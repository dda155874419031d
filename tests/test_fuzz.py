"""The differential fuzzer: determinism, a clean smoke campaign, and
the seeded-bug acceptance path (oracle catches it, reducer shrinks it,
fallback survives it)."""

import pytest

from repro import (
    CompilerOptions,
    Variant,
    compile_program,
    intel_dunnington,
    parse_program,
    simulate,
)
from repro.fuzz import (
    buggy_swap_mutator,
    differential_check,
    fuzz,
    generate_case,
    match_predicate,
    reduce_program,
    statement_count,
)


class TestGenerator:
    def test_same_seed_same_program(self):
        a = generate_case(42)
        b = generate_case(42)
        assert a.source == b.source

    def test_different_seeds_differ(self):
        sources = {generate_case(seed).source for seed in range(20)}
        assert len(sources) > 15

    def test_generated_programs_are_well_formed(self):
        from repro.verify import verify_program

        for seed in range(30):
            case = generate_case(seed)
            verify_program(case.program)

    def test_generated_source_reparses_to_same_program(self):
        case = generate_case(7)
        reparsed = parse_program(case.source)
        assert statement_count(reparsed) == statement_count(case.program)
        assert [
            str(stmt) for blk in reparsed.blocks() for stmt in blk
        ] == [
            str(stmt) for blk in case.program.blocks() for stmt in blk
        ]


class TestOracle:
    def test_clean_compiler_has_no_divergence(self):
        case = generate_case(3)
        result = differential_check(case.program, case_seed=3)
        assert result.status in ("ok", "skipped")
        assert result.divergence is None

    def test_smoke_campaign_is_clean(self):
        report = fuzz(seed=0, count=25, reduce_failures=False)
        assert report.divergences == []
        assert report.ok + report.skipped == 25
        assert report.ok > 0

    def test_oracle_catches_seeded_scheduler_bug(self):
        # A mutator that reverses every multi-item schedule violates
        # dependences; the oracle must notice against the scalar
        # baseline, and the reducer must shrink the witness.
        buggy = CompilerOptions(
            cost_gate=False,
            checks="none",
            debug_schedule_mutator=buggy_swap_mutator,
        )
        report = fuzz(
            seed=0, count=20, options=buggy,
            reduce_failures=True, max_divergences=1,
        )
        assert report.divergences, "seeded bug escaped the oracle"
        divergence = report.divergences[0]
        assert divergence.kind in ("memory", "crash")
        assert divergence.reduced_source is not None
        reduced = parse_program(divergence.reduced_source)
        assert statement_count(reduced) <= 6
        # The reduced witness still reproduces the divergence.
        assert match_predicate(divergence, intel_dunnington(), buggy)(reduced)


MEMO_SRC = """
double A[64];
double B[64];
for (i = 0; i < 64; i += 1) {
    B[i] = A[i] * 2.0;
}
"""


class TestMemoOracle:
    """The oracle reruns the compiled engine at another seed, which is
    a timing-memo hit; a memo that serves wrong timing or skips
    functional work must surface as a ``memo`` divergence."""

    def test_clean_memo_passes(self):
        result = differential_check(parse_program(MEMO_SRC))
        assert result.status == "ok"

    def test_skewed_memo_report_is_caught(self, monkeypatch):
        from repro.vm.compiled import CompiledEngine, clear_timing_memo

        finish = CompiledEngine.finish

        def skewed(self, report):
            out = finish(self, report)
            if self._memo_report is not None:
                out.extra_cycles += 1.0
            return out

        clear_timing_memo()
        monkeypatch.setattr(CompiledEngine, "finish", skewed)
        result = differential_check(parse_program(MEMO_SRC))
        assert result.status == "diverged"
        assert result.divergence.kind == "memo"
        assert "report" in result.divergence.detail.lower()

    def test_skipped_kernel_on_memo_hit_is_caught(self, monkeypatch):
        from repro.vm.compiled import CompiledEngine, clear_timing_memo

        run_loop = CompiledEngine.run_loop

        def lazy(self, unit, env):
            if self._memo_report is not None:
                return True
            return run_loop(self, unit, env)

        clear_timing_memo()
        monkeypatch.setattr(CompiledEngine, "run_loop", lazy)
        result = differential_check(parse_program(MEMO_SRC))
        assert result.status == "diverged"
        assert result.divergence.kind == "memo"
        assert "memory" in result.divergence.detail


class TestReducer:
    def test_reduces_to_minimal_dependent_pair(self):
        program = parse_program(
            "float A[64]; float B[64];\n"
            "A[0] = 1.0;\n"
            "A[1] = A[0] + 1.0;\n"
            "A[2] = B[5];\n"
            "A[3] = B[6];\n"
            "A[4] = B[7];\n"
        )

        def has_dependent_pair(candidate):
            blocks = list(candidate.blocks())
            if not blocks:
                return False
            from repro.analysis import DependenceGraph

            return any(
                DependenceGraph(blk).predecessors(stmt.sid)
                for blk in blocks
                for stmt in blk
            )

        reduced = reduce_program(program, has_dependent_pair)
        assert has_dependent_pair(reduced)
        assert statement_count(reduced) == 2

    def test_reducer_never_returns_nonmatching(self):
        program = parse_program("float A[8]; A[0] = 1.0;")
        reduced = reduce_program(program, lambda p: statement_count(p) >= 1)
        assert statement_count(reduced) == 1


class TestFallbackEndToEnd:
    def test_buggy_corpus_compiles_with_scalar_semantics(self):
        # With the seeded bug active and on_error="fallback", every
        # generated program must compile end to end; any block the
        # verifier rejects falls back to scalar, and final memory is
        # bit-identical to the scalar baseline.
        machine = intel_dunnington()
        buggy_fallback = CompilerOptions(
            cost_gate=False,
            checks="all",
            on_error="fallback",
            debug_schedule_mutator=buggy_swap_mutator,
        )
        saw_fallback = False
        for seed in range(8):
            case = generate_case(seed)
            scalar = compile_program(
                case.program, Variant.SCALAR, machine,
                CompilerOptions(checks="none"),
            )
            _, base_memory = simulate(scalar, seed=seed)
            for variant in (Variant.SLP, Variant.GLOBAL):
                result = compile_program(
                    case.program, variant, machine, buggy_fallback
                )
                if result.fallback_blocks:
                    saw_fallback = True
                    assert result.diagnostics
                _, memory = simulate(result, seed=seed)
                assert memory.state_equal(base_memory), (
                    f"seed {seed} {variant}: fallback compile diverged "
                    f"from scalar"
                )
        assert saw_fallback, "the seeded bug never tripped the verifier"
