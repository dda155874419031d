"""A set-associative LRU data cache.

The machine models (Tables 1 and 2) give each platform its L1
parameters; the simulator routes every array-element access through this
cache so effects like the extra footprint of replicated arrays (Section
7.2: "data replication ... has a negative impact on the cache
behavior") show up in the measured cycle counts.

Each set is a dict used as an ordered set (insertion order == LRU
order, oldest first): a hit deletes and re-inserts the line to move it
to the MRU end, a fill past capacity evicts the first key. This is
O(1) per access where the previous list representation paid an
O(ways) scan plus an O(ways) ``list.remove`` shuffle.
"""

from __future__ import annotations

from ..errors import SimulationError
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    line_bytes: int
    ways: int
    miss_penalty: float  # extra cycles per miss (next-level latency)

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets <= 0:
            raise SimulationError("cache too small for its associativity")
        return sets


class Cache:
    """LRU set-associative cache over byte addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets: List[dict] = [{} for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0
        #: Flat (lines, set_ids) snapshot of every resident line, each
        #: set's entries contiguous in LRU order (oldest first). Kept
        #: current by :meth:`replay_lines_bulk` so chained bulk replays
        #: never walk the per-set dicts; dropped on any dict mutation.
        self._vec: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: True while ``_sets`` lags behind ``_vec`` (bulk replays defer
        #: the dict rebuild until a dict-path caller needs it).
        self._stale = False

    def reset_stats(self) -> None:
        """Zero the hit/miss counters; cache contents are untouched."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Drop every cached line; hit/miss counters are untouched."""
        self._sets = [{} for _ in range(self.config.sets)]
        self._vec = None
        self._stale = False

    def _materialize(self) -> None:
        """Rebuild the per-set dicts from the vector snapshot."""
        vl, vs = self._vec
        sets = self._sets = [{} for _ in range(self.config.sets)]
        starts = np.flatnonzero(
            np.concatenate(([True], vs[1:] != vs[:-1]))
        ).tolist()
        starts.append(vs.shape[0])
        lines_list = vl.tolist()
        for k in range(len(starts) - 1):
            a, b = starts[k], starts[k + 1]
            sets[int(vs[a])] = dict.fromkeys(lines_list[a:b])
        self._stale = False

    def _snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current resident lines as the flat vector snapshot."""
        if self._vec is None:
            vlines: List[int] = []
            vsets: List[int] = []
            for s, resident in enumerate(self._sets):
                if resident:
                    vlines.extend(resident)
                    vsets.extend([s] * len(resident))
            self._vec = (
                np.asarray(vlines, dtype=np.int64),
                np.asarray(vsets, dtype=np.int64),
            )
        return self._vec

    def lines(self) -> List[List[int]]:
        """Per-set resident lines in LRU order (oldest first)."""
        if self._stale:
            self._materialize()
        return [list(ways) for ways in self._sets]

    def touch_line(self, line: int) -> bool:
        """Access one line; returns True on hit."""
        if self._stale:
            self._materialize()
        if self._vec is not None:
            self._vec = None
        ways = self._sets[line % self.config.sets]
        if line in ways:
            del ways[line]
            ways[line] = None
            self.hits += 1
            return True
        self.misses += 1
        ways[line] = None
        if len(ways) > self.config.ways:
            del ways[next(iter(ways))]
        return False

    def access(self, address: int, size_bytes: int) -> int:
        """Access a byte range; returns the number of line misses."""
        return self.access_stats(address, size_bytes)[1]

    def access_stats(self, address: int, size_bytes: int) -> Tuple[int, int]:
        """Access a byte range; returns ``(lines_touched, misses)``.

        Counting accesses in line units keeps per-array hit/miss
        accounting consistent: a wide access spanning two lines is two
        line accesses, so hits = accesses - misses never goes negative.
        """
        first = address // self.config.line_bytes
        last = (address + size_bytes - 1) // self.config.line_bytes
        misses = 0
        for line in range(first, last + 1):
            if not self.touch_line(line):
                misses += 1
        return last - first + 1, misses

    def replay_lines(
        self, lines: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Replay a chronological line-ID stream through the LRU state
        machine; returns a boolean hit mask, one entry per element.

        Equivalent to ``[self.touch_line(l) for l in lines]`` — same
        final cache state, same hit/miss totals — but amortizes the
        per-call overhead across the whole stream and takes a fast path
        for repeated-line streaks: a line that was touched by the
        immediately preceding access is already MRU, so the access is a
        hit and moving it to the back is a no-op.
        """
        seq = lines.tolist() if isinstance(lines, np.ndarray) else lines
        _check_stream(lines)
        if self._stale:
            self._materialize()
        if self._vec is not None:
            self._vec = None
        mask = []
        append = mask.append
        sets = self._sets
        nsets = self.config.sets
        capacity = self.config.ways
        hits = 0
        misses = 0
        prev = None
        for line in seq:
            if line == prev:
                hits += 1
                append(True)
                continue
            prev = line
            ways = sets[line % nsets]
            if line in ways:
                del ways[line]
                ways[line] = None
                hits += 1
                append(True)
            else:
                misses += 1
                ways[line] = None
                if len(ways) > capacity:
                    del ways[next(iter(ways))]
                append(False)
        self.hits += hits
        self.misses += misses
        return np.asarray(mask, dtype=bool)

    def replay_lines_bulk(
        self, lines: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Vectorized twin of :meth:`replay_lines`: same hit mask, same
        hit/miss totals, same final per-set LRU state — computed without
        a per-access Python loop.

        The algorithm is the classic stack-distance characterization of
        LRU. Sets are independent state machines, so the stream is
        stably partitioned by set (reordering accesses *across* sets
        commutes; within a set order is preserved). Each touched set's
        current residents are prepended as virtual accesses (oldest
        first) so pre-existing state participates exactly. An access is
        a hit iff the line was accessed before and the number of
        distinct lines accessed since its previous access is below the
        associativity. That distinct count comes from the identity

            distinct(i) = #{j < i : prev[j] <= prev[i]} - (prev[i] + 1)

        where ``prev`` is the previous-occurrence position (segment
        start - 1 for first occurrences): every j <= prev[i] satisfies
        ``prev[j] < j <= prev[i]`` unconditionally, and within the
        window ``(prev[i], i)`` — always inside one set segment —
        exactly the first-in-window occurrences qualify. The dominance
        count is computed by a bottom-up pairwise merge count
        (:func:`_rank_before`), O(n log^2 n) in NumPy ops. The final
        state of a touched set is its last ``ways`` distinct lines
        ordered by last access (the LRU inclusion property).
        """
        arr = _check_stream(lines)
        n_raw = arr.shape[0]
        if n_raw == 0:
            return np.zeros(0, dtype=bool)
        # Chronological run compaction before anything else: a repeat of
        # the immediately preceding line is the same set's MRU line — a
        # guaranteed hit that changes no state. Real streams are full of
        # such runs (a stride-1 touch stays on one 64-byte line for
        # eight iterations), so dropping them first shrinks every sort
        # and the O(n log^2 n) core by the run factor.
        keep_raw = np.empty(n_raw, dtype=bool)
        keep_raw[0] = True
        np.not_equal(arr[1:], arr[:-1], out=keep_raw[1:])
        arr = arr[keep_raw]
        n = arr.shape[0]
        nsets = self.config.sets
        capacity = self.config.ways
        set_ids = arr % nsets
        touched_flag = np.bincount(set_ids, minlength=nsets).astype(bool)
        svl, svs = self._snapshot()
        vmask = touched_flag[svs] if svs.size else svs.astype(bool)
        v_lines = svl[vmask]
        v_sets = svs[vmask]
        nv = v_lines.shape[0]
        if nv:
            all_lines = np.concatenate([v_lines, arr])
            all_sets = np.concatenate([v_sets, set_ids])
        else:
            all_lines = arr
            all_sets = set_ids
        m = n + nv
        # Stable partition by set: virtual entries (earlier in the
        # concatenation) stay ahead of the real stream of their set.
        order = _stable_argsort(all_sets, nsets - 1)
        g_lines = all_lines[order]
        g_sets = all_sets[order]
        seg_new = np.empty(m, dtype=bool)
        seg_new[0] = True
        np.not_equal(g_sets[1:], g_sets[:-1], out=seg_new[1:])
        # Accesses to one line interleaved only with other sets' lines
        # become adjacent after partitioning — the later ones are hits
        # on an MRU line, compacted away like the chronological runs.
        dup = np.zeros(m, dtype=bool)
        np.equal(g_lines[1:], g_lines[:-1], out=dup[1:])
        dup[1:] &= ~seg_new[1:]
        keep = ~dup
        c_lines = g_lines[keep]
        c_sets = g_sets[keep]
        c_new = seg_new[keep]
        mc = c_lines.shape[0]
        seg_start = np.flatnonzero(c_new)
        seg_start_of = seg_start[np.cumsum(c_new) - 1]
        # Previous occurrence of the same line, in compacted positions.
        # Lines in different sets are never equal, so grouping by line
        # value alone stays within one segment.
        by_line = _stable_argsort(c_lines, int(all_lines.max()))
        sid = c_lines[by_line]
        prev = np.full(mc, -1, dtype=np.int64)
        if mc > 1:
            same = sid[1:] == sid[:-1]
            prev[by_line[1:][same]] = by_line[:-1][same]
        has_prev = prev >= 0
        pv = np.where(has_prev, prev, seg_start_of - 1)
        # Only positions with a previous occurrence can hit, so the
        # dominance count is needed only there. Split it: first
        # occurrences j contribute iff pv[j] = seg_start(j) - 1 <=
        # pv[i], which holds for *every* first occurrence before i
        # (earlier segments start earlier; same-segment firsts sit at
        # seg_start - 1 <= prev) — a running counter. Repeat
        # occurrences carry pairwise-distinct pv (each position is the
        # previous occurrence of at most one element), so their
        # contribution is a rank among the has-prev subset alone —
        # typically a small fraction of a streaming kernel's accesses.
        hit_c = np.zeros(mc, dtype=bool)
        idx_hp = np.flatnonzero(has_prev)
        if idx_hp.size:
            first_cum = np.cumsum(~has_prev)
            sub = pv[idx_hp]
            count_full = _rank_before(sub) + first_cum[idx_hp]
            hit_c[idx_hp] = count_full - (sub + 1) < capacity
        hit = np.empty(m, dtype=bool)
        hit[keep] = hit_c
        hit[dup] = True
        if nv:
            real = order >= nv
            order, hit = order[real] - nv, hit[real]
        result = np.ones(n_raw, dtype=bool)
        result[np.flatnonzero(keep_raw)[order]] = hit
        hits = int(np.count_nonzero(hit)) + (n_raw - n)
        self.hits += hits
        self.misses += n_raw - hits
        # Final state: per touched set, the last `capacity` distinct
        # lines ordered by last access, oldest first. Run-compaction
        # preserves both the distinct lines and the relative order of
        # their final accesses, so the compacted arrays suffice. The
        # new state replaces the touched sets' entries in the vector
        # snapshot; the per-set dicts are rebuilt lazily, so chained
        # bulk replays never pay a Python loop over sets.
        run_last = np.empty(mc, dtype=bool)
        run_last[-1] = True
        if mc > 1:
            np.not_equal(sid[1:], sid[:-1], out=run_last[:-1])
        # Compacted positions are set-major (the partition above), so
        # sorting last accesses by position orders them by set, then
        # by recency.
        last_pos = np.sort(by_line[run_last])
        uline = c_lines[last_pos]
        uset = c_sets[last_pos]
        starts = np.flatnonzero(
            np.concatenate(([True], uset[1:] != uset[:-1]))
        )
        ends = np.append(starts[1:], uset.shape[0])
        end_of = np.repeat(ends, ends - starts)
        keep_res = np.arange(uset.shape[0], dtype=np.int64) >= (
            end_of - capacity
        )
        self._vec = (
            np.concatenate([svl[~vmask], uline[keep_res]]),
            np.concatenate([svs[~vmask], uset[keep_res]]),
        )
        self._stale = True
        return result


def _check_stream(lines: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Validate a replay stream: one-dimensional, integral line IDs.

    The bulk replay reorders accesses across sets, which is only sound
    for a flat chronological stream of whole-line IDs; anything else
    (a 2-D firsts/counts matrix passed unexpanded, float addresses not
    divided down to lines) indicates a caller bug and dies loudly with
    a structured error instead of corrupting LRU state.
    """
    arr = np.asarray(lines)
    if arr.ndim != 1:
        raise SimulationError(
            f"cache replay stream must be one-dimensional, got shape "
            f"{arr.shape}",
            rule="cache.replay-stream",
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise SimulationError(
            f"cache replay stream must hold integer line IDs, got dtype "
            f"{arr.dtype}",
            rule="cache.replay-stream",
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.size and int(arr.min()) < 0:
        raise SimulationError(
            f"cache replay stream holds negative line ID "
            f"{int(arr.min())} (underflowed base address?)",
            rule="cache.replay-stream",
        )
    return arr


def _rank_before(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{j < i : values[j] <= values[i]}`` for an int64
    vector, by bottom-up pairwise merge counting: at each level, every
    pair of sibling width-``w`` blocks contributes the dominance counts
    of right-block elements over left-block elements via one sort and
    one offset-batched ``searchsorted``. Each (j, i) pair is counted at
    exactly one level — the first at which j and i share a 2w block —
    so the total is exact. O(n log^2 n) work, all in NumPy.
    """
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    # Base case: all pairs within blocks of _BASE_WIDTH at once, via a
    # blocked triangular comparison — collapses the first five merge
    # levels (whose per-level NumPy call overhead would dominate) into
    # three array ops over n * _BASE_WIDTH booleans.
    w0 = _BASE_WIDTH
    nb = n // w0
    if nb:
        blocks = values[: nb * w0].reshape(nb, w0)
        le = blocks[:, :, None] <= blocks[:, None, :]
        counts[: nb * w0] = (le & _BASE_MASK).sum(axis=1).ravel()
    tail = n - nb * w0
    if tail > 1:
        tb = values[nb * w0:]
        le = tb[:, None] <= tb[None, :]
        mask = np.triu(np.ones((tail, tail), dtype=bool), 1)
        counts[nb * w0:] = (le & mask).sum(axis=0)
    # Per-block offsets keep every block's values in disjoint ranges so
    # one flat searchsorted answers all block pairs at once. Values are
    # >= -1, so a spacing of max + 2 never lets ranges touch.
    base = np.int64(int(values.max()) + 2)
    width = w0
    while width < n:
        pair = 2 * width
        nblocks = n // pair
        cut = nblocks * pair
        if nblocks:
            blocks = values[:cut].reshape(nblocks, pair)
            offs = np.arange(nblocks, dtype=np.int64) * base
            left = np.sort(blocks[:, :width], axis=1) + offs[:, None]
            queries = (blocks[:, width:] + offs[:, None]).ravel()
            c = np.searchsorted(left.ravel(), queries, side="right")
            # Each block's searchsorted count starts at its left block's
            # offset in the flat array; right halves are strided views.
            counts[:cut].reshape(nblocks, pair)[:, width:] += c.reshape(
                nblocks, width
            ) - (np.arange(nblocks, dtype=np.int64) * width)[:, None]
        if n - cut > width:
            # Tail: one full left block and a partial right remainder.
            left_tail = np.sort(values[cut:cut + width])
            counts[cut + width:] += np.searchsorted(
                left_tail, values[cut + width:], side="right"
            )
        width = pair
    return counts


def _stable_argsort(values: np.ndarray, top: int) -> np.ndarray:
    """Stable argsort of non-negative int64 ``values`` whose maximum is
    ``top``. NumPy's stable sort is a radix sort on 16-bit keys —
    several times faster than its int64 sort — so values that fit are
    narrowed first; the permutation is the same either way."""
    if top < 1 << 16:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")


#: Block width of :func:`_rank_before`'s vectorized base case.
_BASE_WIDTH = 32
_BASE_MASK = np.triu(np.ones((_BASE_WIDTH, _BASE_WIDTH), dtype=bool), 1)
