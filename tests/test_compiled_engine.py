"""Differential and unit guarantees of the compiled kernel engine.

The compiled engine (``src/repro/vm/compiled.py``) emits one
specialized NumPy function per affine loop, runs a superoptimizing
peephole pass before emission, and caches emitted kernels in-process
and in the ``ArtifactStore``. Like the batched engine it is purely a
simulation-speed optimization: reports and memories must be *exactly
equal* to the reference interpreter's on every plan, with per-unit
fallback to the batched path where codegen does not apply. These tests
pin that contract on the full kernel × variant × machine matrix, the
kernel-cache keying and invalidation rules, the fallback counters, the
peephole rewrites (including idempotence and a deliberately broken
rewrite the differential oracle must catch), and the bulk cache-replay
path the engine relies on.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import Variant, compile_program, parse_program
from repro.bench import ALL_KERNELS, KERNELS
from repro.bench.suite import DEFAULT_VARIANTS
from repro.fuzz import buggy_peephole_mutator, differential_check
from repro.ir import Affine
from repro.perf import PERF
from repro.store import ArtifactStore
from repro.vm import (
    Cache,
    CacheConfig,
    MemRef,
    PackMode,
    Simulator,
    StoreMode,
    VOp,
    VPack,
    VShuffle,
    VStore,
    amd_phenom_ii,
    intel_dunnington,
)
from repro.vm import compiled as compiled_mod
from repro.vm import peephole
from repro.vm.codegen import CompiledCopy
from repro.vm.compiled import (
    clear_kernel_memo,
    clear_timing_memo,
    emit_plan_kernels,
    kernel_fingerprint,
)
from repro.vm.peephole import VCopy, peephole_optimize
from repro.vm.simulator import Memory

MATRIX_MACHINES = [("intel", intel_dunnington), ("amd", amd_phenom_ii)]


@pytest.fixture(autouse=True)
def _fresh_kernel_memo():
    clear_kernel_memo()
    yield
    clear_kernel_memo()


def _run_engines(plan, machine, seed=0, kernel_store=None):
    out = {}
    for engine in ("reference", "batched", "compiled"):
        sim = Simulator(machine, engine=engine, kernel_store=kernel_store)
        out[engine] = sim.run(plan, seed=seed)
    return out


def _assert_identical(plan, machine, seed=0):
    runs = _run_engines(plan, machine, seed=seed)
    ref_report, ref_mem = runs["reference"]
    for engine in ("batched", "compiled"):
        report, mem = runs[engine]
        # Dataclass equality covers counts, cycle charge buckets,
        # extra_cycles, cache hit/miss totals, per-array access/miss
        # stats, and the per-provenance cost breakdown.
        assert report == ref_report, engine
        assert report.cycles == ref_report.cycles
        assert mem.state_equal(ref_mem), engine


# -- the full paper matrix ---------------------------------------------------------


@pytest.mark.parametrize(
    "kernel", ALL_KERNELS, ids=[k.name for k in ALL_KERNELS]
)
def test_kernel_matrix_identical(kernel):
    """Every kernel × variant × machine combination produces reports and
    memories indistinguishable from the reference interpreter and the
    batched engine."""
    program = kernel.build(8)
    for _, factory in MATRIX_MACHINES:
        machine = factory()
        for variant in DEFAULT_VARIANTS:
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


def test_amd_non_dyadic_costs_identical():
    """AMD's fractional per-op costs exercise the exact-integer charge
    buckets the compiled engine replays in bulk."""
    machine = amd_phenom_ii()
    for name in ("namd", "lbm", "milc"):
        program = KERNELS[name].build(32)
        for variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT):
            compiled = compile_program(program, variant, machine)
            _assert_identical(compiled.plan, compiled.machine)


# -- fallback coverage -------------------------------------------------------------

REDUCTION_SRC = """
double A[64];
double s;
for (i = 0; i < 64; i += 1) {
    s = s + A[i];
}
"""

RECURRENCE_SRC = """
double A[66];
for (i = 0; i < 64; i += 1) {
    A[i + 1] = A[i] * 0.5;
}
"""

NESTED_SRC = """
double A[64];
double B[64];
for (i = 0; i < 8; i += 1) {
    for (j = 0; j < 8; j += 1) {
        A[i + j] = A[i + j] + B[j];
    }
}
"""

AFFINE_SRC = """
double A[64];
double B[64];
double C[64];
for (i = 0; i < 64; i += 1) {
    C[i] = A[i] * B[i] + 2.0;
}
"""


def _counters_for(src, variant=Variant.SCALAR, kernel_store=None):
    program = parse_program(src)
    machine = intel_dunnington()
    compiled = compile_program(program, variant, machine)
    PERF.reset()
    PERF.enable()
    try:
        Simulator(
            machine, engine="compiled", kernel_store=kernel_store
        ).run(compiled.plan)
    finally:
        PERF.disable()
    return dict(PERF.counters), compiled


@pytest.mark.parametrize(
    "src",
    [REDUCTION_SRC, RECURRENCE_SRC],
    ids=["scalar-reduction", "array-recurrence"],
)
def test_fallback_kernels_identical(src):
    """Loops with cross-iteration carries take the batched engine's
    fallback decision path — and still match the reference exactly."""
    counters, compiled = _counters_for(src)
    assert counters.get("simulate.compiled_fallbacks", 0) >= 1
    assert counters.get("simulate.compiled_loops", 0) == 0
    _assert_identical(compiled.plan, compiled.machine)


def test_nested_loop_outer_falls_back_inner_compiles():
    """Loop nests decompose: the outer loop falls back, but each inner
    instance runs the emitted kernel with its dynamic base offsets."""
    counters, compiled = _counters_for(NESTED_SRC)
    assert counters.get("simulate.compiled_fallbacks", 0) >= 1
    assert counters.get("simulate.compiled_loops", 0) == 8
    _assert_identical(compiled.plan, compiled.machine)


def test_affine_kernel_takes_compiled_path():
    counters, compiled = _counters_for(AFFINE_SRC)
    assert counters.get("simulate.compiled_loops", 0) >= 1
    assert counters.get("simulate.compiled_fallbacks", 0) == 0
    assert counters.get("compiled.emissions", 0) == 1
    _assert_identical(compiled.plan, compiled.machine)


def test_full_kernel_set_has_no_fallbacks():
    """The affine benchmark kernels must all take the compiled path —
    this is the population the ≥50x speedup gate is measured on."""
    machine = intel_dunnington()
    for name in ("cactusADM", "soplex", "lbm", "milc"):
        program = KERNELS[name].build(16)
        compiled = compile_program(program, Variant.GLOBAL, machine)
        PERF.reset()
        PERF.enable()
        try:
            Simulator(machine, engine="compiled").run(compiled.plan)
        finally:
            PERF.disable()
        assert PERF.counters.get("simulate.compiled_fallbacks", 0) == 0
        assert PERF.counters.get("simulate.compiled_loops", 0) >= 1


# -- kernel caching ----------------------------------------------------------------


def _affine_plan(machine=None):
    machine = machine or intel_dunnington()
    program = parse_program(AFFINE_SRC)
    return compile_program(program, Variant.GLOBAL, machine), machine


class TestKernelCache:
    def test_fingerprint_is_deterministic_across_compiles(self):
        compiled_a, machine = _affine_plan()
        compiled_b, _ = _affine_plan()
        assert compiled_a.plan is not compiled_b.plan
        assert kernel_fingerprint(
            compiled_a.plan, machine
        ) == kernel_fingerprint(compiled_b.plan, machine)

    def test_fingerprint_differs_across_machines(self):
        compiled, _ = _affine_plan()
        assert kernel_fingerprint(
            compiled.plan, intel_dunnington()
        ) != kernel_fingerprint(compiled.plan, amd_phenom_ii())

    def test_codegen_version_bump_invalidates(self, monkeypatch):
        """Bumping CODEGEN_VERSION must change every fingerprint — a
        store shared between old and new workers can never serve a
        stale kernel."""
        compiled, machine = _affine_plan()
        before = kernel_fingerprint(compiled.plan, machine)
        monkeypatch.setattr(
            compiled_mod, "CODEGEN_VERSION", compiled_mod.CODEGEN_VERSION + 1
        )
        after = kernel_fingerprint(compiled.plan, machine)
        assert before != after

    def test_memo_hit_skips_emission(self):
        compiled, machine = _affine_plan()
        sim = Simulator(machine, engine="compiled")
        PERF.reset()
        PERF.enable()
        try:
            sim.run(compiled.plan)
            sim.run(compiled.plan)
        finally:
            PERF.disable()
        assert PERF.counters.get("compiled.emissions", 0) == 1
        assert PERF.counters.get("compiled.kernel_memo_hits", 0) == 1

    def test_store_round_trip_zero_second_emissions(self, tmp_path):
        """A warm worker sharing the store loads the pickled kernel
        artifact instead of re-emitting — the acceptance criterion for
        warm service workers."""
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        counters, _ = _counters_for(AFFINE_SRC, Variant.GLOBAL, store)
        assert counters.get("compiled.emissions", 0) == 1
        assert counters.get("kernel_store.puts", 0) == 1
        # Simulate a fresh process: drop the in-process memo.
        clear_kernel_memo()
        counters, _ = _counters_for(AFFINE_SRC, Variant.GLOBAL, store)
        assert counters.get("compiled.emissions", 0) == 0
        assert counters.get("compiled.kernel_store_hits", 0) == 1
        assert counters.get("kernel_store.hits", 0) == 1

    def test_store_artifact_runs_identically(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        Simulator(machine, engine="compiled", kernel_store=store).run(
            compiled.plan
        )
        clear_kernel_memo()
        ref_report, ref_mem = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        report, mem = Simulator(
            machine, engine="compiled", kernel_store=store
        ).run(compiled.plan)
        assert report == ref_report
        assert mem.state_equal(ref_mem)

    def test_corrupt_kernel_entry_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        fingerprint = kernel_fingerprint(compiled.plan, machine)
        artifact = emit_plan_kernels(compiled.plan, machine)
        store.put_kernel(fingerprint, artifact)
        path = store._kernel_path(fingerprint)
        path.write_bytes(b"not a pickle")
        assert store.get_kernel(fingerprint) is None
        assert store.corrupt_evictions == 1
        assert not path.exists()
        # And the engine recovers by re-emitting.
        report, mem = Simulator(
            machine, engine="compiled", kernel_store=store
        ).run(compiled.plan)
        ref_report, ref_mem = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        assert report == ref_report
        assert mem.state_equal(ref_mem)

    def test_kernel_entries_counted_and_pruned(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        fingerprint = kernel_fingerprint(compiled.plan, machine)
        store.put_kernel(fingerprint, emit_plan_kernels(compiled.plan, machine))
        assert store.stats().entries == 1
        assert store.prune(0) == 1
        assert store.get_kernel(fingerprint) is None


# -- the timing memo ---------------------------------------------------------------

#: Seeds of the memo-hit runs; the memo is filled at seed 0.
HIT_SEEDS = (0, 7)


def _compiled_runs(plan, machine, seeds, memory_for=None):
    """Compiled-engine runs in order, with the timing-memo hits they
    scored."""
    sim = Simulator(machine, engine="compiled")
    PERF.reset()
    PERF.enable()
    try:
        runs = [
            sim.run(
                plan,
                memory=memory_for(seed) if memory_for else None,
                seed=seed,
            )
            for seed in seeds
        ]
    finally:
        PERF.disable()
    return runs, PERF.counters.get("simulate.timing_memo_hits", 0)


def _assert_memo_hits_match_reference(plan, machine):
    """A first compiled run fills the memo; every later run is a memo
    hit whose report and memory equal the reference engine's at that
    run's seed. (An earlier, content-identical plan may have filled
    the memo already, so it is cleared first.)"""
    clear_timing_memo()
    runs, hits = _compiled_runs(plan, machine, (0,) + HIT_SEEDS)
    assert hits == len(HIT_SEEDS)
    reference = Simulator(machine, engine="reference")
    for seed, (report, memory) in zip(HIT_SEEDS, runs[1:]):
        ref_report, ref_memory = reference.run(plan, seed=seed)
        assert report == ref_report, seed
        assert report.cycles == ref_report.cycles
        assert memory.state_equal(ref_memory), seed


def _timing_memo(plan, machine):
    return compiled_mod._MEMO[kernel_fingerprint(plan, machine)].timing


@pytest.mark.parametrize(
    "kernel", ALL_KERNELS, ids=[k.name for k in ALL_KERNELS]
)
def test_kernel_matrix_memo_hits(kernel):
    """Memo hits over the full kernel × variant × machine matrix."""
    program = kernel.build(8)
    for _, factory in MATRIX_MACHINES:
        machine = factory()
        for variant in DEFAULT_VARIANTS:
            compiled = compile_program(program, variant, machine)
            _assert_memo_hits_match_reference(
                compiled.plan, compiled.machine
            )


class TestTimingMemo:
    @pytest.mark.parametrize(
        "src",
        [REDUCTION_SRC, RECURRENCE_SRC, NESTED_SRC],
        ids=["scalar-reduction", "array-recurrence", "nested"],
    )
    def test_fallback_plans(self, src):
        """Fallback units run their normal path on a hit; only their
        report and cache are thrown away."""
        machine = intel_dunnington()
        for variant in (Variant.SCALAR, Variant.GLOBAL):
            compiled = compile_program(parse_program(src), variant, machine)
            _assert_memo_hits_match_reference(compiled.plan, machine)

    def test_layout_plans_with_copy_units(self):
        machine = intel_dunnington()
        covered = 0
        for kernel in ALL_KERNELS:
            compiled = compile_program(
                kernel.build(32), Variant.GLOBAL_LAYOUT, machine
            )
            if not any(
                isinstance(unit, CompiledCopy) for unit in compiled.plan.units
            ):
                continue
            covered += 1
            _assert_memo_hits_match_reference(compiled.plan, machine)
        assert covered >= 1

    def test_returned_reports_do_not_alias_the_memo(self):
        compiled, machine = _affine_plan()
        sim = Simulator(machine, engine="compiled")
        expected, _ = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        for _ in range(3):
            report, _ = sim.run(compiled.plan)
            assert report == expected
            report.counts["vector_op"] = -1
            report.charges.clear()
            report.array_accesses["C"] = -1
            report.extra_cycles += 1.0
            report.cache_misses += 1

    def test_provenance_costs_do_not_alias_the_memo(self):
        from repro.trace import TRACE

        machine = intel_dunnington()
        TRACE.reset()
        TRACE.enable(variant="global")
        try:
            compiled = compile_program(
                KERNELS["milc"].build(16), Variant.GLOBAL, machine
            )
        finally:
            TRACE.disable()
            TRACE.reset()
        expected, _ = Simulator(machine, engine="reference").run(
            compiled.plan
        )
        assert expected.provenance
        sim = Simulator(machine, engine="compiled")
        for _ in range(3):
            report, _ = sim.run(compiled.plan)
            assert report == expected
            for cost in report.provenance.values():
                cost.instructions += 1
                cost.charges.clear()

    def test_other_line_bytes_misses_the_memo(self):
        compiled, machine = _affine_plan()
        plan = compiled.plan
        Simulator(machine, engine="compiled").run(plan)

        def narrow(seed):
            return Memory(plan, seed=seed, line_bytes=32)

        runs, hits = _compiled_runs(plan, machine, (3, 4), narrow)
        assert hits == 1
        assert len(_timing_memo(plan, machine)) == 2
        reference = Simulator(machine, engine="reference")
        for seed, (report, memory) in zip((3, 4), runs):
            ref_report, ref_memory = reference.run(
                plan, memory=narrow(seed), seed=seed
            )
            assert report == ref_report
            assert memory.state_equal(ref_memory)

    def test_memo_stays_bounded_across_layouts(self):
        compiled, machine = _affine_plan()
        plan = compiled.plan
        sim = Simulator(machine, engine="compiled")
        reference = Simulator(machine, engine="reference")
        for line_bytes in (8, 16, 32, 64, 128, 256) * 2:
            report, _ = sim.run(
                plan, memory=Memory(plan, line_bytes=line_bytes)
            )
            expected, _ = reference.run(
                plan, memory=Memory(plan, line_bytes=line_bytes)
            )
            assert report == expected
            assert len(_timing_memo(plan, machine)) <= compiled_mod._TIMING_CAP

    def test_debug_mutator_bypasses_the_memo(self):
        compiled, machine = _affine_plan()
        Simulator(machine, engine="compiled").run(compiled.plan)
        peephole.DEBUG_MUTATOR = buggy_peephole_mutator
        try:
            PERF.reset()
            PERF.enable()
            try:
                for _ in range(2):
                    Simulator(machine, engine="compiled").run(compiled.plan)
            finally:
                PERF.disable()
        finally:
            peephole.DEBUG_MUTATOR = None
        assert PERF.counters.get("simulate.timing_memo_hits", 0) == 0
        assert PERF.counters.get("compiled.emissions", 0) == 2

    def test_raising_first_run_stores_nothing(self, monkeypatch):
        compiled, machine = _affine_plan()
        sim = Simulator(machine, engine="compiled")

        def boom(self, program, trips):
            raise RuntimeError("injected accounting failure")

        with monkeypatch.context() as patch:
            patch.setattr(compiled_mod.CompiledEngine, "_account", boom)
            with pytest.raises(RuntimeError):
                sim.run(compiled.plan)
        assert _timing_memo(compiled.plan, machine) == {}
        _assert_memo_hits_match_reference(compiled.plan, machine)

    def test_clear_timing_memo_forces_a_timed_run(self):
        compiled, machine = _affine_plan()
        _, hits = _compiled_runs(compiled.plan, machine, (0, 1))
        assert hits == 1
        clear_timing_memo()
        assert _timing_memo(compiled.plan, machine) == {}
        _, hits = _compiled_runs(compiled.plan, machine, (2,))
        assert hits == 0

    def test_memo_hits_count_compiled_loops(self):
        compiled, machine = _affine_plan()
        _, hits = _compiled_runs(compiled.plan, machine, (0, 1))
        assert hits == 1
        assert PERF.counters.get("simulate.compiled_loops", 0) == 2

    @pytest.mark.parametrize("engine", ["reference", "batched", "compiled"])
    def test_runs_free_their_memory_without_a_collection(self, engine):
        """A run leaves no reference cycle behind: the memory it returns
        is freed as soon as the caller drops it, on a timed run and on a
        memo hit alike. (A memo hit allocates little, so memories kept
        alive until the next cyclic collection piled up.)"""
        compiled, machine = _affine_plan()
        sim = Simulator(machine, engine=engine)
        gc.collect()
        gc.disable()
        try:
            for seed in (0, 1):
                _, memory = sim.run(compiled.plan, seed=seed)
                alive = weakref.ref(memory)
                del memory
                assert alive() is None, seed
        finally:
            gc.enable()

    def test_non_loop_units_are_fingerprinted(self):
        """Two plans of one loop-free program share every loop (there
        are none) but not their straight-line code; the second must
        not be served the first one's memoized timing."""
        machine = intel_dunnington()
        program = parse_program(
            "double A[8]; double B[8];\n"
            + "".join(f"A[{k}] = B[{k}] + 1.0;\n" for k in range(4))
        )
        scalar = compile_program(program, Variant.SCALAR, machine).plan
        vector = compile_program(program, Variant.GLOBAL, machine).plan
        assert kernel_fingerprint(scalar, machine) != kernel_fingerprint(
            vector, machine
        )
        sim = Simulator(machine, engine="compiled")
        sim.run(scalar)
        report, _ = sim.run(vector)
        expected, _ = Simulator(machine, engine="reference").run(vector)
        assert report == expected


# -- peephole pass -----------------------------------------------------------------


def _mem(array, const):
    return MemRef(array, Affine((), const))


def _pack(dst, refs):
    return VPack(dst, tuple(refs), PackMode.GATHER)


class TestPeephole:
    def test_shuffle_of_shuffle_composes_to_copy(self):
        body = [
            VOp("+", 1, (8, 9), 4),
            VShuffle(2, 1, (1, 0, 3, 2)),
            VShuffle(3, 2, (1, 0, 3, 2)),
        ]
        optimized, events = peephole_optimize(body)
        kinds = [e.kind for e in events]
        assert "shuffle_compose" in kinds
        assert optimized[2] == VCopy(3, 1)

    def test_identity_shuffle_becomes_copy(self):
        body = [VOp("+", 1, (8, 9), 4), VShuffle(2, 1, (0, 1, 2, 3))]
        optimized, events = peephole_optimize(body)
        assert [e.kind for e in events] == ["identity_shuffle"]
        assert optimized[1] == VCopy(2, 1)

    def test_partial_identity_shuffle_is_not_a_copy(self):
        """An identity permutation narrower than the source register
        must stay a shuffle — a copy would change the register width."""
        body = [VOp("+", 1, (8, 9), 4), VShuffle(2, 1, (0, 1))]
        optimized, events = peephole_optimize(body)
        assert events == []
        assert optimized == body

    def test_pack_forwarding(self):
        refs = [_mem("A", k) for k in range(4)]
        body = [
            VOp("+", 1, (8, 9), 4),
            VStore(tuple(refs), 1, StoreMode.CONTIG_ALIGNED),
            _pack(2, reversed(refs)),
        ]
        optimized, events = peephole_optimize(body)
        assert [e.kind for e in events] == ["pack_forward"]
        assert optimized[2] == VShuffle(2, 1, (3, 2, 1, 0))

    def test_aliasing_store_blocks_forwarding(self):
        """An intervening same-array store may overwrite the forwarded
        location at some iteration, so the pack must stay a reload."""
        refs = [_mem("A", k) for k in range(4)]
        body = [
            VOp("+", 1, (8, 9), 4),
            VStore(tuple(refs), 1, StoreMode.CONTIG_ALIGNED),
            VStore((_mem("A", 64),), 1, StoreMode.SCATTER),
            _pack(2, refs),
        ]
        optimized, events = peephole_optimize(body)
        assert events == []
        assert optimized == body

    def test_dead_definition_removed(self):
        body = [
            VOp("+", 1, (8, 9), 4),
            VOp("*", 1, (8, 9), 4),
            VStore((_mem("A", 0),), 1, StoreMode.SCATTER),
        ]
        optimized, events = peephole_optimize(body)
        assert [e.kind for e in events] == ["dead_def"]
        assert len(optimized) == 2

    def test_live_out_definition_kept(self):
        """The engine publishes final register values, so a definition
        never redefined stays even if the body never reads it."""
        body = [VOp("+", 1, (8, 9), 4)]
        optimized, events = peephole_optimize(body)
        assert events == []
        assert optimized == body

    def test_events_carry_provenance(self):
        body = [
            VOp("+", 1, (8, 9), 4, prov="s1"),
            VShuffle(2, 1, (0, 1, 2, 3), prov="s2"),
        ]
        _, events = peephole_optimize(body)
        assert events and events[0].provs == ("s2",)

    def test_idempotent_on_real_plans(self):
        """Running the pass on its own output performs zero rewrites,
        on every loop body of every benchmark kernel plan."""
        machine = intel_dunnington()
        for name in ("cactusADM", "lbm", "milc", "cg"):
            program = KERNELS[name].build(16)
            for variant in DEFAULT_VARIANTS:
                compiled = compile_program(program, variant, machine)
                for _, unit in compiled_mod._walk_loops(compiled.plan):
                    once, _ = peephole_optimize(list(unit.body))
                    twice, events = peephole_optimize(once)
                    assert events == []
                    assert twice == once


# -- the oracle catches a broken rewrite -------------------------------------------


class TestMutation:
    def test_buggy_peephole_caught_by_differential_oracle(self):
        """Installing the deliberately broken rewrite must surface as a
        divergence on the compiled engine — proof the 3-engine matrix
        actually guards the peephole pass."""
        program = parse_program(AFFINE_SRC)
        assert differential_check(program).status == "ok"
        peephole.DEBUG_MUTATOR = buggy_peephole_mutator
        clear_kernel_memo()
        try:
            result = differential_check(program)
        finally:
            peephole.DEBUG_MUTATOR = None
            clear_kernel_memo()
        assert result.status == "diverged"
        assert result.divergence.sim_engine == "compiled"
        # And the poison never leaks into the caches.
        assert differential_check(program).status == "ok"

    def test_mutator_bypasses_kernel_store(self, tmp_path):
        """Kernels emitted under a mutator must not be persisted — a
        later clean run sharing the store would replay the bug."""
        store = ArtifactStore(tmp_path)
        compiled, machine = _affine_plan()
        peephole.DEBUG_MUTATOR = buggy_peephole_mutator
        clear_kernel_memo()
        try:
            Simulator(machine, engine="compiled", kernel_store=store).run(
                compiled.plan
            )
        finally:
            peephole.DEBUG_MUTATOR = None
            clear_kernel_memo()
        fingerprint = kernel_fingerprint(compiled.plan, machine)
        assert store.get_kernel(fingerprint) is None


# -- bulk cache replay -------------------------------------------------------------


class TestBulkReplay:
    def _random_stream(self, rng, lines):
        # Mix hot loops, strides, and random touches: the access shapes
        # kernel replay actually produces.
        parts = [
            rng.integers(0, 32, size=200),
            np.arange(lines) % lines,
            rng.integers(0, lines, size=400),
            np.repeat(rng.integers(0, lines, size=50), 4),
        ]
        return np.concatenate(parts)

    @pytest.mark.parametrize("machine", [intel_dunnington, amd_phenom_ii])
    def test_bulk_matches_sequential(self, machine):
        rng = np.random.default_rng(7)
        config = machine().l1
        lines = (config.size_bytes // config.line_bytes) * 2
        for trial in range(5):
            stream = self._random_stream(rng, lines)
            seq, bulk = Cache(config), Cache(config)
            a = seq.replay_lines(stream)
            b = bulk.replay_lines_bulk(stream)
            assert np.array_equal(a, b)
            assert (seq.hits, seq.misses) == (bulk.hits, bulk.misses)

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0, 1], [2, 3]]), np.array([0.5, 1.0]), [0, -3]],
        ids=["2d", "float", "negative"],
    )
    def test_malformed_stream_raises_structured_error(self, bad):
        """Both replay paths validate their input: a malformed line
        stream (the kind a codegen bug would produce) raises a
        structured SimulationError instead of silently corrupting the
        set state."""
        from repro.errors import SimulationError

        for method in ("replay_lines", "replay_lines_bulk"):
            cache = Cache(intel_dunnington().l1)
            with pytest.raises(SimulationError) as exc:
                getattr(cache, method)(bad)
            assert exc.value.rule == "cache.replay-stream"

    def test_bulk_matches_across_key_widths(self):
        """Line IDs of 16 bits or more take the wide sort path. A chunk
        of narrow IDs replayed after them must still tell residents
        ``k`` and ``k + 2**16`` apart."""
        rng = np.random.default_rng(5)
        config = intel_dunnington().l1
        low = rng.integers(0, 512, size=300)
        wide = rng.permutation(np.concatenate([low, low + (1 << 16)]))
        narrow = rng.integers(0, 512, size=600)
        seq, bulk = Cache(config), Cache(config)
        a = seq.replay_lines(np.concatenate([wide, narrow]))
        b = np.concatenate(
            [bulk.replay_lines_bulk(wide), bulk.replay_lines_bulk(narrow)]
        )
        assert np.array_equal(a, b)
        assert (seq.hits, seq.misses) == (bulk.hits, bulk.misses)

    def test_bulk_matches_after_interleaving(self):
        """Chained calls against one cache instance must agree with a
        sequential replay of the concatenated stream."""
        rng = np.random.default_rng(11)
        config = intel_dunnington().l1
        chunks = [self._random_stream(rng, 1024) for _ in range(3)]
        seq, bulk = Cache(config), Cache(config)
        a = seq.replay_lines(np.concatenate(chunks))
        b = np.concatenate(
            [bulk.replay_lines_bulk(chunk) for chunk in chunks]
        )
        assert np.array_equal(a, b)
        assert (seq.hits, seq.misses) == (bulk.hits, bulk.misses)


# -- engine selection plumbing -----------------------------------------------------


class TestPlumbing:
    def test_env_var_selects_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "compiled")
        assert Simulator(intel_dunnington()).engine == "compiled"

    def test_artifact_kinds_do_not_collide(self, tmp_path):
        """A compile entry and a kernel entry with the same hash string
        live at different paths."""
        store = ArtifactStore(tmp_path)
        assert store._path("deadbeef") != store._kernel_path("deadbeef")
