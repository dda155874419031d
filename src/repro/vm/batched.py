"""Batched loop execution: vectorized simulation with report-identical
accounting.

The reference interpreter in :mod:`repro.vm.simulator` walks every loop
iteration instruction by instruction — isinstance dispatch, affine
evaluation against a dict env, and an LRU touch per array access. For
the paper's figures that interpreter *is* the wall clock: a fig16 point
simulates tens of thousands of dynamic instructions per kernel variant.

This engine decouples functional execution from timing replay, in the
spirit of trace-driven simulators: each ``CompiledLoop`` body is
pre-decoded **once** into a slot program —

* per-slot cycle charges as ``(category, unit_cost) -> count-per-trip``
  buckets, aggregated per slot × trip count instead of per instruction;
* closed-form affine address streams (``base + stride · i`` over the
  whole iteration range, via :func:`repro.vm.codegen.affine_stream`);
* lane values evaluated as whole-range NumPy columns with deferred
  writes and exact-affine store-to-load forwarding;
* one chronologically interleaved line-ID stream replayed in bulk
  through the LRU state machine (:meth:`repro.vm.cache.Cache.replay_lines`).

The result — ``ExecutionReport``, final ``Memory``, cache state — is
**exactly equal** to the reference interpreter's; the bucketed cycle
accounting in :mod:`repro.vm.report` is what makes the totals
bit-identical even for non-dyadic unit costs (AMD's 1.6-cycle lane
inserts), because both engines derive cycles from identical integer
buckets rather than differently-ordered float accumulation.

A loop is batched only when it is provably safe to evaluate columnwise:
no inner loop, no cross-iteration scalar or vector-register carries, no
cross-iteration array aliasing, and every reference affine in the loop
index (unbound symbols force the interpreter). Everything else falls
back per-unit to the reference path — correctness never depends on the
fast path applying.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir import ArrayRef, Const, Expr, Var
from ..perf import count
from .codegen import CompiledLoop, affine_stream
from .isa import (
    Affine,
    ImmRef,
    Instruction,
    MemRef,
    PackMode,
    ScalarExec,
    ScalarRef,
    StoreMode,
    VOp,
    VPack,
    VShuffle,
    VStore,
)
from .report import MISS_CATEGORY, ProvenanceCost

_CONTIG_PACKS = (PackMode.CONTIG_ALIGNED, PackMode.CONTIG_UNALIGNED)
_CONTIG_STORES = (StoreMode.CONTIG_ALIGNED, StoreMode.CONTIG_UNALIGNED)

#: Vectorized twins of the interpreter's ``_OP_FUNCS``. ``+ - * /``,
#: ``neg``/``abs``/``sqrt`` are IEEE-correctly-rounded elementwise in
#: both NumPy and scalar Python, so columns match the interpreter bit
#: for bit. ``min``/``max`` are spelled with ``np.where`` to reproduce
#: Python's tie behavior (``min(a, b)`` returns ``a`` unless ``b < a``)
#: exactly, signed zeros included. ``/`` goes through ``np.divide`` so
#: scalar (Python float) columns get the same IEEE total semantics as
#: array columns and the interpreter's ``_ieee_div`` — x/0 is ±inf,
#: 0/0 is nan, never ZeroDivisionError.
_VEC_FUNCS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": np.divide,
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
    "neg": operator.neg,
    "abs": np.abs,
    "sqrt": np.sqrt,
    # Comparisons produce 1.0/0.0 float masks, matching the
    # interpreter's scalar ``1.0 if a < b else 0.0`` exactly (all state
    # is float64; the relations themselves are IEEE-exact).
    "<": lambda a, b: np.where(np.less(a, b), 1.0, 0.0),
    "<=": lambda a, b: np.where(np.less_equal(a, b), 1.0, 0.0),
    ">": lambda a, b: np.where(np.greater(a, b), 1.0, 0.0),
    ">=": lambda a, b: np.where(np.greater_equal(a, b), 1.0, 0.0),
    "==": lambda a, b: np.where(np.equal(a, b), 1.0, 0.0),
    "!=": lambda a, b: np.where(np.not_equal(a, b), 1.0, 0.0),
    # The blend: lanes with a non-zero mask take ``a``, others ``b`` —
    # identical to the interpreter's eager two-arm select.
    "select": lambda c, a, b: np.where(np.not_equal(c, 0.0), a, b),
}


def _col_last(col) -> float:
    """Final-iteration value of a column (scalar columns are loop
    invariant, so the last value is the value)."""
    if isinstance(col, np.ndarray) and col.ndim:
        return float(col[-1])
    return float(col)


@dataclass
class _Touch:
    """One cache access per iteration: a byte range at an affine flat."""

    slot: int
    array: str
    flat: Affine
    size_bytes: int


@dataclass
class _Slot:
    """One decoded body instruction."""

    instr: Instruction
    prov: Optional[str]
    #: Per-iteration cycle charges, (category, unit_cost) -> count.
    charges: Dict[Tuple[str, float], int] = field(default_factory=dict)
    #: Provenance sink for the current entry (set by ``_account``).
    sink: Optional[ProvenanceCost] = None

    def charge(self, category: str, unit_cycles: float, n: int = 1) -> None:
        key = (category, unit_cycles)
        self.charges[key] = self.charges.get(key, 0) + n


@dataclass
class _LoopProgram:
    """A ``CompiledLoop`` body decoded for batched execution."""

    slots: List[_Slot]
    touches: List[_Touch]
    #: Every distinct flat affine referenced (touches + value reads +
    #: store targets); all must resolve to (base, stride) at entry.
    flats: List[Affine]


class BatchedEngine:
    """Per-run batched executor; owned by one ``_RunState``."""

    def __init__(self, state):
        self.state = state
        self.machine = state.machine
        self.memory = state.memory
        self.report = state.report
        self.cache = state.cache
        #: Decode memo, keyed by unit identity (units are alive for the
        #: whole run, so ids are stable). ``None`` records "not
        #: batchable" so inner loops of a reference-driven nest do not
        #: re-run the safety analysis on every outer iteration.
        self._decoded: Dict[int, Optional[_LoopProgram]] = {}
        self.batched_loops = 0
        self.fallback_loops = 0

    # -- entry point -----------------------------------------------------------------

    def run_loop(self, unit: CompiledLoop, env: Dict[str, int]) -> bool:
        """Execute one loop entry in batch mode. Returns False (having
        changed nothing) when the unit must fall back to the
        interpreter."""
        key = id(unit)
        program = self._decoded.get(key, False)
        if program is False:
            program = _decode_loop(unit, self.machine, self.memory)
            self._decoded[key] = program
        if program is None:
            self.fallback_loops += 1
            count("simulate.batched_fallbacks")
            return False
        spec = unit.spec
        trips = spec.trip_count
        if trips == 0:
            env.pop(spec.index, None)
            return True
        # Entry-dependent check: every affine must be closed-form in
        # the loop index given the enclosing bindings.
        streams: Dict[Affine, Tuple[int, int]] = {}
        for flat in program.flats:
            stream = affine_stream(flat, spec.index, env)
            if stream is None:
                self.fallback_loops += 1
                count("simulate.batched_fallbacks")
                return False
            streams[flat] = stream
        ivals = np.arange(spec.start, spec.stop, spec.step, dtype=np.int64)
        entry = _Entry(self, program, trips, ivals, streams)
        entry.evaluate()
        # _account resolves each slot's provenance sink for this entry,
        # which _replay's per-touch miss attribution relies on.
        self._account(program, trips)
        self._replay(program, trips, ivals, streams)
        entry.apply()
        env.pop(spec.index, None)
        self.batched_loops += 1
        count("simulate.batched_loops")
        return True

    def run_copy(self, unit) -> bool:
        """Batched layout-replication copy: per-lane affine source
        streams, one vectorized copy per lane, and one bulk replay of
        the interleaved src/dst access stream — the same chronological
        order (element-major, source before destination) the
        interpreter's ``run_copy`` issues, so cache state, miss count,
        and the amortized cycle charge are identical."""
        rep = unit.replication
        indices = _copy_indices(rep)
        if indices is None:
            return False
        trips = rep.loop.trip_count
        lanes = rep.lanes
        memory = self.memory
        src = memory.arrays[rep.source]
        dst = memory.arrays[rep.new_name]
        src_addr_base = memory._base[rep.source]
        dst_addr_base = memory._base[rep.new_name]
        src_bytes = memory._elem_bytes[rep.source]
        dst_bytes = memory._elem_bytes[rep.new_name]
        line_bytes = self.cache.config.line_bytes
        m = 2 * lanes
        firsts = np.empty((trips, m), dtype=np.int64)
        counts = np.empty((trips, m), dtype=np.int64)
        for k, (src_idx, dst_idx) in enumerate(indices):
            dst[dst_idx] = src[src_idx]
            for col, addr, nbytes in (
                (2 * k, src_addr_base + src_idx * src_bytes, src_bytes),
                (2 * k + 1, dst_addr_base + dst_idx * dst_bytes, dst_bytes),
            ):
                first = addr // line_bytes
                firsts[:, col] = first
                counts[:, col] = (
                    (addr + (nbytes - 1)) // line_bytes - first + 1
                )
        flat_firsts = firsts.ravel()
        flat_counts = counts.ravel()
        total = int(flat_counts.sum())
        ends = np.cumsum(flat_counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            ends - flat_counts, flat_counts
        )
        lines = np.repeat(flat_firsts, flat_counts) + offsets
        misses = int((~self._replay_stream(lines)).sum())
        machine = self.machine
        per_element = machine.scalar_load + machine.scalar_store
        amortized = (
            rep.elements * per_element
            + misses * machine.l1.miss_penalty
        ) / unit.amortization
        self.report.bump("layout_copy_element", rep.elements)
        self.report.add_extra_cycles(amortized)
        return True

    def finish(self, report):
        """The report ``Simulator.run`` returns for a completed run;
        subclass hook (the compiled engine memoizes timing here)."""
        return report

    # -- timing replay ---------------------------------------------------------------

    def _replay_stream(self, lines: np.ndarray) -> np.ndarray:
        """Run a chronological line stream through the LRU machine;
        subclass hook (the compiled engine substitutes the vectorized
        bulk replay, which is state- and result-identical)."""
        return self.cache.replay_lines(lines)

    def _build_line_stream(
        self,
        program: _LoopProgram,
        trips: int,
        ivals: np.ndarray,
        streams: Dict[Affine, Tuple[int, int]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole loop's chronological line-ID stream — iteration-
        major, then slot order, then line order within one access —
        plus per-element touch attribution and per-touch line totals."""
        touches = program.touches
        m = len(touches)
        memory = self.memory
        line_bytes = self.cache.config.line_bytes
        # Every touch's byte address is affine in the loop index,
        # origin + step * i, so one (trips, m) broadcast covers them all.
        origin = np.empty(m, dtype=np.int64)
        step = np.empty(m, dtype=np.int64)
        reach = np.empty(m, dtype=np.int64)
        for j, touch in enumerate(touches):
            base, stride = streams[touch.flat]
            elem = memory._elem_bytes[touch.array]
            origin[j] = memory._base[touch.array] + base * elem
            step[j] = stride * elem
            reach[j] = touch.size_bytes - 1
        addresses = origin + ivals[:, None] * step
        firsts = addresses // line_bytes
        spill = (addresses + reach) // line_bytes - firsts
        flat_firsts = firsts.ravel()
        touch_ids = np.tile(np.arange(m, dtype=np.int64), trips)
        if not spill.any():
            # Every access stays within one line.
            return flat_firsts, touch_ids, np.full(m, trips, dtype=np.int64)
        # Expand each (first, count) range into consecutive line IDs.
        counts = spill + 1
        lines_per_touch = counts.sum(axis=0)
        total = int(lines_per_touch.sum())
        flat_counts = counts.ravel()
        ends = np.cumsum(flat_counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            ends - flat_counts, flat_counts
        )
        lines = np.repeat(flat_firsts, flat_counts) + offsets
        return lines, np.repeat(touch_ids, flat_counts), lines_per_touch

    def _replay(
        self,
        program: _LoopProgram,
        trips: int,
        ivals: np.ndarray,
        streams: Dict[Affine, Tuple[int, int]],
    ) -> None:
        """Replay every cache access of the whole loop, in the exact
        chronological order the interpreter would issue them, through
        the LRU state machine, attributing misses per touch."""
        m = len(program.touches)
        if m == 0:
            return
        lines, touch_ids, lines_per_touch = self._build_line_stream(
            program, trips, ivals, streams
        )
        self._attribute_replay(program, lines, touch_ids, lines_per_touch)

    def _attribute_replay(
        self,
        program: _LoopProgram,
        lines: np.ndarray,
        touch_ids: np.ndarray,
        lines_per_touch: np.ndarray,
    ) -> None:
        touches = program.touches
        m = len(touches)
        hit_mask = self._replay_stream(lines)
        misses_per_touch = np.bincount(
            touch_ids[~hit_mask], minlength=m
        )

        report = self.report
        penalty = self.machine.l1.miss_penalty
        miss_key = (MISS_CATEGORY, penalty)
        slots = program.slots
        for j, touch in enumerate(touches):
            report.array_accesses[touch.array] = report.array_accesses.get(
                touch.array, 0
            ) + int(lines_per_touch[j])
            misses = int(misses_per_touch[j])
            if not misses:
                continue
            report.array_misses[touch.array] = (
                report.array_misses.get(touch.array, 0) + misses
            )
            report.charges[miss_key] = (
                report.charges.get(miss_key, 0) + misses
            )
            sink = slots[touch.slot].sink
            if sink is not None:
                sink.charges[miss_key] = (
                    sink.charges.get(miss_key, 0) + misses
                )
                sink.cache_misses += misses

    # -- cycle / instruction accounting ----------------------------------------------

    def _account(self, program: _LoopProgram, trips: int) -> None:
        """Aggregate per-slot charges × trip count. ``_Slot.sink`` is
        (re)resolved here per entry so zero-trip loops never materialize
        provenance entries, matching the interpreter."""
        report = self.report
        provenance = report.provenance
        for slot in program.slots:
            sink = None
            if slot.prov is not None:
                sink = provenance.get(slot.prov)
                if sink is None:
                    sink = provenance[slot.prov] = ProvenanceCost()
                sink.instructions += trips
                if isinstance(slot.instr, VShuffle):
                    sink.shuffles += trips
            slot.sink = sink
            for key, per_trip in slot.charges.items():
                total = per_trip * trips
                report.counts[key[0]] = report.counts.get(key[0], 0) + total
                report.charges[key] = report.charges.get(key, 0) + total
                if sink is not None:
                    sink.charges[key] = sink.charges.get(key, 0) + total


def _copy_indices(rep) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """Per lane of a layout replication, the (source, destination)
    element index columns of its copy loop, or None when a lane's
    source is not closed-form in the loop index."""
    loop = rep.loop
    streams = [affine_stream(flat, loop.index, {}) for flat in rep.lane_flats]
    if any(stream is None for stream in streams):
        return None
    ivals = np.arange(loop.start, loop.stop, loop.step, dtype=np.int64)
    jvals = np.arange(loop.trip_count, dtype=np.int64) * rep.lanes
    return [
        (base + stride * ivals, jvals + k)
        for k, (base, stride) in enumerate(streams)
    ]


class _Entry:
    """Functional (value) execution of one batched loop entry.

    Values flow as whole-iteration-range columns. Array writes are
    deferred: reads come either from the store-forwarding map (exact
    affine match — the only aliasing the safety analysis admits) or
    from loop-entry memory, then all writes land in body order at the
    end. Nothing outside this object mutates until :meth:`apply`.
    """

    def __init__(
        self,
        engine: BatchedEngine,
        program: _LoopProgram,
        trips: int,
        ivals: np.ndarray,
        streams: Dict[Affine, Tuple[int, int]],
    ):
        self.engine = engine
        self.program = program
        self.trips = trips
        self.ivals = ivals
        self.streams = streams
        self.scalar_cols: Dict[str, object] = {}
        self.mem_cols: Dict[Tuple[str, Affine], object] = {}
        self.gathers: Dict[Tuple[str, Affine], object] = {}
        self.vreg_cols: Dict[int, List[object]] = {}
        self.writes: List[Tuple[str, Affine, object]] = []

    # -- column sources --------------------------------------------------------------

    def read_scalar(self, name: str):
        col = self.scalar_cols.get(name)
        if col is None:
            return self.engine.memory.scalars[name]
        return col

    def read_mem(self, array: str, flat: Affine):
        key = (array, flat)
        col = self.mem_cols.get(key)
        if col is not None:
            return col
        col = self.gathers.get(key)
        if col is None:
            base, stride = self.streams[flat]
            data = self.engine.memory.arrays[array]
            if stride == 0:
                col = float(data[base])
            else:
                col = data[base + stride * self.ivals]
            self.gathers[key] = col
        return col

    def read_source(self, ref):
        if isinstance(ref, ImmRef):
            return float(ref.value)
        if isinstance(ref, ScalarRef):
            return self.read_scalar(ref.name)
        return self.read_mem(ref.array, ref.flat)

    def read_vreg(self, vreg: int) -> List[object]:
        cols = self.vreg_cols.get(vreg)
        if cols is None:
            cols = [float(v) for v in self.engine.state.vregs[vreg]]
            self.vreg_cols[vreg] = cols
        return cols

    def eval_expr(self, expr: Expr):
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, Var):
            return self.read_scalar(expr.name)
        if isinstance(expr, ArrayRef):
            decl = self.engine.memory.program.arrays[expr.array]
            flat = Affine((), 0)
            for subscript, dim in zip(expr.subscripts, decl.shape):
                flat = flat * dim + subscript
            return self.read_mem(expr.array, flat)
        kids = expr.children()
        values = [self.eval_expr(k) for k in kids]
        return _VEC_FUNCS[getattr(expr, "op")](*values)

    # -- body walk -------------------------------------------------------------------

    def evaluate(self) -> None:
        for slot in self.program.slots:
            instr = slot.instr
            if isinstance(instr, ScalarExec):
                value = self.eval_expr(instr.statement.expr)
                self.write_ref(instr.store, value)
            elif isinstance(instr, VPack):
                self.vreg_cols[instr.dst] = [
                    self.read_source(src) for src in instr.sources
                ]
            elif isinstance(instr, VOp):
                fn = _VEC_FUNCS[instr.op]
                operands = [self.read_vreg(s) for s in instr.srcs]
                self.vreg_cols[instr.dst] = [
                    fn(*[cols[lane] for cols in operands])
                    for lane in range(instr.lanes)
                ]
            elif isinstance(instr, VShuffle):
                src = self.read_vreg(instr.src)
                self.vreg_cols[instr.dst] = [src[i] for i in instr.perm]
            else:
                assert isinstance(instr, VStore)
                cols = self.read_vreg(instr.src)
                for target, col in zip(instr.targets, cols):
                    self.write_ref(target, col)

    def write_ref(self, ref, col) -> None:
        if isinstance(ref, ScalarRef):
            self.scalar_cols[ref.name] = col
            return
        self.mem_cols[(ref.array, ref.flat)] = col
        self.writes.append((ref.array, ref.flat, col))

    # -- state commit ----------------------------------------------------------------

    def apply(self) -> None:
        """Land deferred writes in body order, then scalar and vector
        register finals — exactly the state the interpreter leaves."""
        memory = self.engine.memory
        for array, flat, col in self.writes:
            base, stride = self.streams[flat]
            data = memory.arrays[array]
            if stride == 0:
                data[base] = _col_last(col)
            else:
                data[base + stride * self.ivals] = col
        for name, col in self.scalar_cols.items():
            memory.scalars[name] = _col_last(col)
        vregs = self.engine.state.vregs
        for vreg, cols in self.vreg_cols.items():
            vregs[vreg] = tuple(_col_last(col) for col in cols)


# -- decode: body -> slot program, or None on any unsafe shape -------------------------


def _decode_loop(
    unit: CompiledLoop, machine, memory
) -> Optional[_LoopProgram]:
    if unit.inner is not None or unit.spec.step <= 0:
        return None
    slots: List[_Slot] = []
    touches: List[_Touch] = []
    flats: Dict[Affine, None] = {}
    scalar_reads: List[Tuple[int, str]] = []
    scalar_writes: List[Tuple[int, str]] = []
    array_refs: Dict[str, List[Tuple[int, Affine, bool]]] = {}
    vreg_reads: List[Tuple[int, int]] = []
    vreg_defs: List[Tuple[int, int]] = []

    def note_array(pos: int, array: str, flat: Affine, is_write: bool) -> None:
        flats[flat] = None
        array_refs.setdefault(array, []).append((pos, flat, is_write))

    def elem(array: str) -> int:
        return memory._elem_bytes[array]

    ctx = _DecodeCtx(
        machine, elem, touches, note_array, scalar_reads, scalar_writes,
        memory.program.arrays,
    )
    for pos, instr in enumerate(unit.body):
        slot = _Slot(instr, getattr(instr, "prov", None))
        if isinstance(instr, ScalarExec):
            ok = _decode_scalar(instr, pos, slot, ctx)
        elif isinstance(instr, VPack):
            ok = _decode_pack(instr, pos, slot, ctx)
            vreg_defs.append((pos, instr.dst))
        elif isinstance(instr, VOp):
            slot.charge("vector_op", machine.op_cost(instr.op))
            for src in instr.srcs:
                vreg_reads.append((pos, src))
            vreg_defs.append((pos, instr.dst))
            ok = True
        elif isinstance(instr, VShuffle):
            slot.charge("shuffle", machine.shuffle)
            vreg_reads.append((pos, instr.src))
            vreg_defs.append((pos, instr.dst))
            ok = True
        elif isinstance(instr, VStore):
            ok = _decode_store(instr, pos, slot, ctx)
            vreg_reads.append((pos, instr.src))
        else:
            ok = False
        if not ok:
            return None
        slots.append(slot)

    if not _carries_safe(
        unit.spec, scalar_reads, scalar_writes, vreg_reads, vreg_defs,
        array_refs,
    ):
        return None
    return _LoopProgram(slots, touches, list(flats))


class _DecodeCtx:
    """Shared decode-time plumbing for the per-kind decoders."""

    def __init__(
        self, machine, elem, touches, note_array, scalar_reads,
        scalar_writes, arrays,
    ):
        self.machine = machine
        self.elem = elem
        self.touches = touches
        self.note_array = note_array
        self.scalar_reads = scalar_reads
        self.scalar_writes = scalar_writes
        self.arrays = arrays


def _note_expr_reads(expr: Expr, pos: int, ctx: _DecodeCtx) -> None:
    """Record the *value* reads of a scalar expression — the loads the
    functional evaluation will perform (``instr.loads`` covers the
    accounting side; the Horner flats here are what ``_Entry.eval_expr``
    resolves, so they must reach the stream table too)."""
    if isinstance(expr, Const):
        return
    if isinstance(expr, Var):
        ctx.scalar_reads.append((pos, expr.name))
        return
    if isinstance(expr, ArrayRef):
        decl = ctx.arrays[expr.array]
        flat = Affine((), 0)
        for subscript, dim in zip(expr.subscripts, decl.shape):
            flat = flat * dim + subscript
        ctx.note_array(pos, expr.array, flat, False)
        return
    for kid in expr.children():
        _note_expr_reads(kid, pos, ctx)


def _decode_scalar(
    instr: ScalarExec, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    for load in instr.loads:
        if isinstance(load, MemRef):
            ctx.touches.append(
                _Touch(pos, load.array, load.flat, ctx.elem(load.array))
            )
            ctx.note_array(pos, load.array, load.flat, False)
            slot.charge("scalar_load", machine.scalar_load)
        else:
            slot.charge("scalar_move", machine.scalar_move)
    for op in instr.ops:
        slot.charge("scalar_op", machine.op_cost(op))
    _note_expr_reads(instr.statement.expr, pos, ctx)
    store = instr.store
    if isinstance(store, MemRef):
        ctx.touches.append(
            _Touch(pos, store.array, store.flat, ctx.elem(store.array))
        )
        ctx.note_array(pos, store.array, store.flat, True)
        slot.charge("scalar_store", machine.scalar_store)
    else:
        slot.charge("scalar_move", machine.scalar_move)
        ctx.scalar_writes.append((pos, store.name))
    return True


def _decode_pack(
    instr: VPack, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    mode = instr.mode
    if mode in _CONTIG_PACKS:
        first = instr.sources[0]
        if not isinstance(first, MemRef):
            return False
        width = len(instr.sources) * ctx.elem(first.array)
        ctx.touches.append(_Touch(pos, first.array, first.flat, width))
        cost = machine.vector_load
        if mode is PackMode.CONTIG_UNALIGNED:
            cost += machine.unaligned_extra
        slot.charge("vector_load", cost)
    elif mode is PackMode.SCALAR_CONTIG:
        slot.charge("vector_load", machine.vector_load)
    elif mode is PackMode.IMMEDIATE:
        slot.charge("imm_vector", machine.imm_vector)
    elif mode is PackMode.BROADCAST:
        first = instr.sources[0]
        if isinstance(first, MemRef):
            ctx.touches.append(
                _Touch(pos, first.array, first.flat, ctx.elem(first.array))
            )
            slot.charge("pack_mem_load", machine.scalar_load)
        elif isinstance(first, ScalarRef):
            slot.charge("pack_scalar_move", machine.scalar_move)
        slot.charge("broadcast", machine.broadcast)
    else:  # GATHER / SCALAR_GATHER / MIXED
        for source in instr.sources:
            if isinstance(source, MemRef):
                ctx.touches.append(
                    _Touch(
                        pos, source.array, source.flat, ctx.elem(source.array)
                    )
                )
                slot.charge("pack_mem_load", machine.scalar_load)
            elif isinstance(source, ScalarRef):
                slot.charge("pack_scalar_move", machine.scalar_move)
            slot.charge("lane_insert", machine.lane_insert)
    # Every lane is *read* for its value regardless of mode.
    for source in instr.sources:
        if isinstance(source, MemRef):
            ctx.note_array(pos, source.array, source.flat, False)
        elif isinstance(source, ScalarRef):
            ctx.scalar_reads.append((pos, source.name))
    return True


def _decode_store(
    instr: VStore, pos: int, slot: _Slot, ctx: _DecodeCtx
) -> bool:
    machine = ctx.machine
    mode = instr.mode
    if mode in _CONTIG_STORES:
        first = instr.targets[0]
        if not isinstance(first, MemRef):
            return False
        width = len(instr.targets) * ctx.elem(first.array)
        ctx.touches.append(_Touch(pos, first.array, first.flat, width))
        cost = machine.vector_store
        if mode is StoreMode.CONTIG_UNALIGNED:
            cost += machine.unaligned_extra
        slot.charge("vector_store", cost)
    elif mode is StoreMode.SCALAR_CONTIG:
        slot.charge("vector_store", machine.vector_store)
    else:  # SCATTER / SCALAR_SCATTER
        for target in instr.targets:
            slot.charge("lane_extract", machine.lane_extract)
            if isinstance(target, MemRef):
                ctx.touches.append(
                    _Touch(
                        pos, target.array, target.flat, ctx.elem(target.array)
                    )
                )
                slot.charge("unpack_mem_store", machine.scalar_store)
            else:
                slot.charge("unpack_scalar_move", machine.scalar_move)
    # Every lane is *written* regardless of mode.
    for target in instr.targets:
        if isinstance(target, MemRef):
            ctx.note_array(pos, target.array, target.flat, True)
        elif isinstance(target, ScalarRef):
            ctx.scalar_writes.append((pos, target.name))
        else:
            return False
    return True


def _carries_safe(
    spec,
    scalar_reads: List[Tuple[int, str]],
    scalar_writes: List[Tuple[int, str]],
    vreg_reads: List[Tuple[int, int]],
    vreg_defs: List[Tuple[int, int]],
    array_refs: Dict[str, List[Tuple[int, Affine, bool]]],
) -> bool:
    """Prove the body free of cross-iteration carries.

    Scalars: a scalar that is written in the body and read at a
    position not strictly after its first write carries the previous
    iteration's value (reductions like ``s = s + A[i]``) — unsafe.

    Vector registers: a register read before the body defines it, but
    defined somewhere in the body, likewise carries — unsafe.

    Arrays: every (write, other-ref) pair to one array must either be
    the *same* affine stream (handled in body order by store
    forwarding; stride 0 additionally requires the read to come after
    the first write) or provably never collide across the iteration
    space: equal loop-index coefficient ``a`` and equal outer-variable
    coefficients make the address gap a compile-time constant δ, and a
    collision exists iff ``a != 0`` and ``δ / a`` is a nonzero multiple
    of ``step`` within ``(trips - 1) · step``. Any pair this analysis
    cannot prove disjoint is unsafe.
    """
    index = spec.index
    trips = spec.trip_count
    step = spec.step

    written_scalars = {name for _, name in scalar_writes}
    if written_scalars:
        first_write: Dict[str, int] = {}
        for pos, name in scalar_writes:
            if name not in first_write or pos < first_write[name]:
                first_write[name] = pos
        for pos, name in scalar_reads:
            if name in written_scalars and pos <= first_write[name]:
                return False

    defined_vregs = {vreg for _, vreg in vreg_defs}
    first_def: Dict[int, int] = {}
    for pos, vreg in vreg_defs:
        if vreg not in first_def or pos < first_def[vreg]:
            first_def[vreg] = pos
    for pos, vreg in vreg_reads:
        # Reading a register the body defines, at or before its first
        # definition (source operands are read before the destination
        # is written), means iteration t observes iteration t-1's
        # value: a carry.
        if vreg in defined_vregs and pos <= first_def[vreg]:
            return False

    span = (trips - 1) * step
    for refs in array_refs.values():
        writes = [(pos, flat) for pos, flat, is_write in refs if is_write]
        if not writes:
            continue
        for wpos, wflat in writes:
            a = wflat.coeff(index)
            rest_w = wflat + Affine.var(index, -a) if a else wflat
            for xpos, xflat, x_is_write in refs:
                ax = xflat.coeff(index)
                if ax != a:
                    return False
                rest_x = xflat + Affine.var(index, -ax) if ax else xflat
                if rest_x.coeffs != rest_w.coeffs:
                    return False
                delta = rest_x.const - rest_w.const
                if delta == 0:
                    if a == 0 and not x_is_write and xpos <= wpos:
                        # Constant-address read at-or-before a write to
                        # the same cell: iteration carry.
                        return False
                    continue
                if a == 0:
                    continue  # distinct constant addresses never meet
                if delta % a:
                    continue
                q = delta // a
                if q % step == 0 and q != 0 and abs(q) <= span:
                    return False
    return True
