"""Execution reports: dynamic instruction mix and cycle accounting.

The categories are chosen so the paper's metrics fall out directly:

* Figure 17 reports "dynamic instructions (excluding the
  packing/unpacking instructions)" and "packing/unpacking overheads" —
  :meth:`ExecutionReport.dynamic_instructions` and
  :meth:`ExecutionReport.pack_unpack_ops`.
* Figures 16/19/20/21 report execution-time reductions —
  :attr:`ExecutionReport.cycles`.

Cycle accounting is *bucketed*: every charge lands in an integer
counter keyed by ``(category, unit_cost)`` and ``cycles`` is derived by
summing ``count * unit_cost`` over the buckets in sorted key order.
This makes the total independent of the order charges arrive in, which
is what lets the batched execution engine (``repro.vm.batched``) —
which aggregates whole loops per slot × trip-count instead of walking
iterations — produce *bit-identical* cycle totals to the reference
interpreter even for machines whose unit costs are not exactly
representable sums (e.g. the AMD model's 1.6-cycle lane inserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Bucket category used for L1 miss penalties. It never appears in
#: ``counts`` — misses are reported via ``cache_misses`` — but its
#: bucket participates in the cycle total.
MISS_CATEGORY = "l1_miss"


def _bucket_cycles(
    charges: Dict[Tuple[str, float], int], extra: float = 0.0
) -> float:
    total = extra
    for key in sorted(charges):
        total += charges[key] * key[1]
    return total


@dataclass
class ProvenanceCost:
    """Runtime cost accumulated against one compile-time decision.

    Keys are provenance IDs stamped on instructions by codegen (see
    ``repro.trace.provenance_id``); the simulator fills one of these per
    distinct ID it executes instructions for. Cycles use the same
    bucketed accounting as :class:`ExecutionReport`, so per-decision
    totals agree exactly between execution engines.
    """

    instructions: int = 0
    shuffles: int = 0
    cache_misses: int = 0
    charges: Dict[Tuple[str, float], int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return _bucket_cycles(self.charges)

    def charge(self, category: str, count: int, unit_cycles: float) -> None:
        key = (category, unit_cycles)
        self.charges[key] = self.charges.get(key, 0) + count

    def add(self, other: "ProvenanceCost") -> None:
        self.instructions += other.instructions
        self.shuffles += other.shuffles
        self.cache_misses += other.cache_misses
        for key, count in other.charges.items():
            self.charges[key] = self.charges.get(key, 0) + count

#: Instruction categories that exist only to assemble or disassemble
#: superwords. A contiguous aligned wide load/store is *not* overhead —
#: it is the natural memory access SLP replaces several scalar accesses
#: with; the overhead is the per-lane traffic, inserts/extracts,
#: shuffles and vector-constant materialization.
PACK_UNPACK_CATEGORIES = frozenset(
    {
        "lane_insert",
        "lane_extract",
        "shuffle",
        "broadcast",
        "imm_vector",
        "pack_mem_load",
        "unpack_mem_store",
        "pack_scalar_move",
        "unpack_scalar_move",
    }
)


@dataclass
class ExecutionReport:
    """Aggregated observations from one simulated execution."""

    counts: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    max_live_vregs: int = 0
    #: Per-decision runtime attribution, keyed by provenance ID. Only
    #: populated when the executed plan carries provenance tags (i.e.
    #: tracing was enabled when it was compiled).
    provenance: Dict[str, ProvenanceCost] = field(default_factory=dict)
    #: Per-array cache traffic, in line-access units.
    array_accesses: Dict[str, int] = field(default_factory=dict)
    array_misses: Dict[str, int] = field(default_factory=dict)
    #: Integer charge buckets keyed by ``(category, unit_cost)``; the
    #: source of truth for :attr:`cycles`.
    charges: Dict[Tuple[str, float], int] = field(default_factory=dict)
    #: Cycles with no per-event unit cost (amortized layout copies).
    #: Both engines accumulate these through the identical sequential
    #: code path, so float identity is preserved without bucketing.
    extra_cycles: float = 0.0
    #: When set, every charge is mirrored into this ProvenanceCost. The
    #: interpreter points it at the active instruction's provenance sink
    #: around dispatch; it is transient bookkeeping, not a result.
    sink: Optional[ProvenanceCost] = field(
        default=None, repr=False, compare=False
    )

    @property
    def cycles(self) -> float:
        return _bucket_cycles(self.charges, self.extra_cycles)

    def bump(self, category: str, count: int = 1) -> None:
        self.counts[category] = self.counts.get(category, 0) + count

    def charge(self, category: str, count: int, unit_cycles: float) -> None:
        self.counts[category] = self.counts.get(category, 0) + count
        key = (category, unit_cycles)
        self.charges[key] = self.charges.get(key, 0) + count
        sink = self.sink
        if sink is not None:
            sink.charges[key] = sink.charges.get(key, 0) + count

    def charge_miss(self, misses: int, penalty: float) -> None:
        """Charge L1 miss penalties without touching ``counts`` (misses
        are already reported through ``cache_misses``)."""
        key = (MISS_CATEGORY, penalty)
        self.charges[key] = self.charges.get(key, 0) + misses
        sink = self.sink
        if sink is not None:
            sink.charges[key] = sink.charges.get(key, 0) + misses
            sink.cache_misses += misses

    def add_extra_cycles(self, cycles: float) -> None:
        self.extra_cycles += cycles

    def copy(self) -> "ExecutionReport":
        """An equal report that shares no mutable state with this one."""
        return ExecutionReport(
            counts=dict(self.counts),
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            max_live_vregs=self.max_live_vregs,
            provenance={
                prov: ProvenanceCost(
                    cost.instructions,
                    cost.shuffles,
                    cost.cache_misses,
                    dict(cost.charges),
                )
                for prov, cost in self.provenance.items()
            },
            array_accesses=dict(self.array_accesses),
            array_misses=dict(self.array_misses),
            charges=dict(self.charges),
            extra_cycles=self.extra_cycles,
        )

    def merge(self, other: "ExecutionReport") -> None:
        for category, count in other.counts.items():
            self.bump(category, count)
        for key, count in other.charges.items():
            self.charges[key] = self.charges.get(key, 0) + count
        self.extra_cycles += other.extra_cycles
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.max_live_vregs = max(self.max_live_vregs, other.max_live_vregs)
        for prov, cost in other.provenance.items():
            mine = self.provenance.get(prov)
            if mine is None:
                mine = self.provenance[prov] = ProvenanceCost()
            mine.add(cost)
        for array, count in other.array_accesses.items():
            self.array_accesses[array] = (
                self.array_accesses.get(array, 0) + count
            )
        for array, count in other.array_misses.items():
            self.array_misses[array] = self.array_misses.get(array, 0) + count

    # -- derived metrics ----------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        return sum(self.counts.values())

    @property
    def pack_unpack_ops(self) -> int:
        return sum(
            count
            for category, count in self.counts.items()
            if category in PACK_UNPACK_CATEGORIES
        )

    @property
    def dynamic_instructions(self) -> int:
        """Dynamic instructions excluding packing/unpacking (Figure 17)."""
        return self.total_instructions - self.pack_unpack_ops

    @property
    def memory_operations(self) -> int:
        return sum(
            self.counts.get(cat, 0)
            for cat in (
                "scalar_load",
                "scalar_store",
                "vector_load",
                "vector_store",
                "pack_mem_load",
                "unpack_mem_store",
            )
        )

    def summary(self) -> str:
        lines = [f"cycles: {self.cycles:.1f}"]
        lines.append(
            f"instructions: {self.total_instructions} "
            f"(pack/unpack: {self.pack_unpack_ops})"
        )
        lines.append(
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
        )
        for category in sorted(self.counts):
            lines.append(f"  {category}: {self.counts[category]}")
        return "\n".join(lines)


def reduction(baseline: float, improved: float) -> float:
    """Relative reduction (the y-axis of Figures 16-21): 1 - new/old."""
    if baseline <= 0:
        return 0.0
    return 1.0 - improved / baseline
