"""Property-based tests (hypothesis): random well-formed programs in,
valid schedules and preserved semantics out.

The generators produce single-loop programs over a few arrays and
scalars with random affine accesses and random expression shapes —
deliberately adversarial for the grouping/scheduling machinery
(aliasing writes, reductions, reused temporaries, strided refs).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CompilerOptions,
    Variant,
    compile_program,
    intel_dunnington,
    simulate,
)
from repro.analysis import DependenceGraph
from repro.ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    Const,
    FLOAT64,
    Loop,
    Program,
    Statement,
    Var,
)
from repro.slp import (
    holistic_slp_schedule,
    greedy_slp_schedule,
    iterative_grouping,
)

N_ARRAY = 64
TRIPS = 8

SCALARS = ["s0", "s1", "s2", "s3"]
ARRAYS = ["X", "Y"]


@st.composite
def affine_subscripts(draw):
    coeff = draw(st.sampled_from([1, 1, 1, 2, 3]))
    const = draw(st.integers(min_value=0, max_value=8))
    return Affine.of(const, i=coeff)


@st.composite
def leaf_exprs(draw):
    kind = draw(st.sampled_from(["var", "ref", "const", "ref"]))
    if kind == "var":
        return Var(draw(st.sampled_from(SCALARS)), FLOAT64)
    if kind == "const":
        return Const(
            float(draw(st.integers(min_value=1, max_value=9))), FLOAT64
        )
    array = draw(st.sampled_from(ARRAYS))
    return ArrayRef(array, (draw(affine_subscripts()),), FLOAT64)


@st.composite
def exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(leaf_exprs())
    op = draw(st.sampled_from(["+", "-", "*", "+", "*"]))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    return BinOp(op, left, right)


@st.composite
def statements(draw, sid):
    if draw(st.booleans()):
        target = Var(draw(st.sampled_from(SCALARS)), FLOAT64)
    else:
        target = ArrayRef(
            draw(st.sampled_from(ARRAYS)),
            (draw(affine_subscripts()),),
            FLOAT64,
        )
    return Statement(sid, target, draw(exprs()))


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=2, max_value=6))
    body = BasicBlock(
        [draw(statements(sid)) for sid in range(count)]
    )
    program = Program("random")
    for name in ARRAYS:
        program.declare_array(name, (N_ARRAY,), FLOAT64)
    for name in SCALARS:
        program.declare_scalar(name, FLOAT64)
    program.add(Loop("i", 0, TRIPS, 1, body))
    return program


COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestScheduleValidity:
    @given(program=programs())
    @settings(**COMMON)
    def test_global_schedule_always_valid(self, program):
        block = next(iter(program.loops())).body
        deps = DependenceGraph(block)
        schedule = holistic_slp_schedule(
            block, deps, 128, lambda n: program.arrays[n]
        )
        schedule.validate(deps, datapath_bits=128)

    @given(program=programs())
    @settings(**COMMON)
    def test_greedy_schedule_always_valid(self, program):
        block = next(iter(program.loops())).body
        deps = DependenceGraph(block)
        schedule = greedy_slp_schedule(
            block, deps, lambda n: program.arrays[n], 128
        )
        schedule.validate(deps, datapath_bits=128)

    @given(program=programs())
    @settings(**COMMON)
    def test_grouping_units_partition_the_block(self, program):
        block = next(iter(program.loops())).body
        deps = DependenceGraph(block)
        units, _ = iterative_grouping(block, deps, 128)
        sids = sorted(s for u in units for s in u.sids)
        assert sids == [s.sid for s in block]


class TestDifferentialExecution:
    @given(program=programs(), seed=st.integers(min_value=0, max_value=3))
    @settings(**COMMON)
    def test_global_preserves_semantics(self, program, seed):
        scalar = compile_program(
            program, Variant.SCALAR, intel_dunnington()
        )
        _, base = simulate(scalar, seed=seed)
        optimized = compile_program(
            program, Variant.GLOBAL, intel_dunnington()
        )
        _, memory = simulate(optimized, seed=seed)
        assert memory.state_equal(base)

    @given(program=programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_layout_preserves_semantics(self, program):
        scalar = compile_program(
            program, Variant.SCALAR, intel_dunnington()
        )
        _, base = simulate(scalar)
        optimized = compile_program(
            program, Variant.GLOBAL_LAYOUT, intel_dunnington()
        )
        _, memory = simulate(optimized)
        assert memory.state_equal(base)

    @given(program=programs())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gated_global_never_slower_than_scalar(self, program):
        scalar = compile_program(
            program, Variant.SCALAR, intel_dunnington()
        )
        s_report, _ = simulate(scalar)
        optimized = compile_program(
            program, Variant.GLOBAL, intel_dunnington()
        )
        report, _ = simulate(optimized)
        # The static gate is cache-oblivious, so allow a small epsilon
        # for cache-effect inversions.
        assert report.cycles <= s_report.cycles * 1.05 + 50


class TestConditionalRoundTrip:
    """The conditional/select surface syntax: parse -> print -> parse is
    a fixed point, and if-converted execution matches true branch
    semantics on randomly shaped single-level regions."""

    RELOPS = ["<", "<=", ">", ">=", "==", "!="]
    # Condition leaves and branch targets are disjoint: the parser
    # rejects regions whose non-final statements write condition
    # operands (the select form would re-evaluate the mutated cond).
    LEAVES = ["X[i]", "X[i + 1]", "s1"]
    TARGETS = ["Y[i]", "s0"]
    RHS = ["X[i] * 2.0", "s0 + Y[i]", "X[i + 1] - s1", "0.5"]

    @st.composite
    def conditional_sources(draw, self=None):
        cls = TestConditionalRoundTrip
        rng = draw
        left = rng(st.sampled_from(cls.LEAVES))
        right = rng(st.sampled_from(cls.LEAVES))
        relop = rng(st.sampled_from(cls.RELOPS))
        cond = f"{left} {relop} {right}"
        merge = rng(st.booleans())
        lines = []
        if rng(st.booleans()):
            lines.append(f"s1 = {rng(st.sampled_from(cls.RHS))};")
        if merge:
            target = rng(st.sampled_from(cls.TARGETS))
            lines.append(f"if ({cond}) {{")
            lines.append(f"    {target} = {rng(st.sampled_from(cls.RHS))};")
            lines.append("} else {")
            lines.append(f"    {target} = {rng(st.sampled_from(cls.RHS))};")
            lines.append("}")
        else:
            then_targets = rng(
                st.lists(
                    st.sampled_from(cls.TARGETS),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            lines.append(f"if ({cond}) {{")
            for target in then_targets:
                lines.append(
                    f"    {target} = {rng(st.sampled_from(cls.RHS))};"
                )
            lines.append("}")
        body = "\n        ".join(lines)
        return f"""
        double X[64]; double Y[64];
        double s0, s1;
        for (i = 0; i < 8; i += 1) {{
        {body}
        }}
        """

    @given(src=conditional_sources())
    @settings(**COMMON)
    def test_parse_print_parse_is_fixed_point(self, src):
        from repro.ir import format_program, parse_program

        printed = format_program(parse_program(src))
        assert format_program(parse_program(printed)) == printed
        assert "if (" in printed

    @given(
        src=conditional_sources(),
        seed=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_if_converted_execution_matches_branch_semantics(
        self, src, seed
    ):
        from repro.ir import parse_program
        from repro.vm.simulator import interpret_program

        program = parse_program(src)
        oracle = interpret_program(program, seed=seed)
        optimized = compile_program(
            program, Variant.GLOBAL, intel_dunnington()
        )
        _, memory = simulate(optimized, seed=seed)
        assert memory.state_equal(oracle)


class TestAffineProperties:
    @given(
        coeffs=st.dictionaries(
            st.sampled_from(["i", "j", "k"]),
            st.integers(min_value=-8, max_value=8),
            max_size=3,
        ),
        const=st.integers(min_value=-100, max_value=100),
        i=st.integers(min_value=-10, max_value=10),
        j=st.integers(min_value=-10, max_value=10),
        k=st.integers(min_value=-10, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_arithmetic_matches_evaluation(
        self, coeffs, const, i, j, k
    ):
        env = {"i": i, "j": j, "k": k}
        a = Affine.of(const, **coeffs)
        b = Affine.of(const * 2, **{n: c * 3 for n, c in coeffs.items()})
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)
        assert (a * 5).evaluate(env) == a.evaluate(env) * 5
        assert (-a).evaluate(env) == -a.evaluate(env)

    @given(
        const=st.integers(min_value=-50, max_value=50),
        coeff=st.integers(min_value=-8, max_value=8),
        shift=st.integers(min_value=-8, max_value=8),
        i=st.integers(min_value=-10, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_substitution_is_evaluation_composition(
        self, const, coeff, shift, i
    ):
        a = Affine.of(const, i=coeff)
        shifted = a.substitute({"i": Affine.var("i") + shift})
        assert shifted.evaluate({"i": i}) == a.evaluate({"i": i + shift})


class TestTimingIsDataOblivious:
    """The invariant the compiled engine's timing memo rests on: every
    address is affine in loop indices and ``vselect`` evaluates both
    arms, so a plan's ``ExecutionReport`` depends on the plan, the
    machine and the memory layout, never on the data."""

    @pytest.mark.parametrize(
        "conditional", [False, True], ids=["plain", "conditional"]
    )
    @given(
        case_seed=st.integers(min_value=0, max_value=10**6),
        sim_seed=st.integers(min_value=1, max_value=10**4),
        variant=st.sampled_from(
            [Variant.SCALAR, Variant.GLOBAL, Variant.GLOBAL_LAYOUT]
        ),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reports_identical_across_seeds(
        self, conditional, case_seed, sim_seed, variant
    ):
        from repro.fuzz import generate_case
        from repro.vm import Simulator
        from repro.vm.compiled import clear_timing_memo

        case = generate_case(case_seed, conditional=conditional)
        machine = intel_dunnington()
        plan = compile_program(case.program, variant, machine).plan
        for engine in ("reference", "batched", "compiled"):
            simulator = Simulator(machine, engine=engine)
            reports = []
            for seed in (0, sim_seed):
                # Without the memo, both compiled runs replay the cache.
                clear_timing_memo()
                reports.append(simulator.run(plan, seed=seed)[0])
            assert reports[0] == reports[1], engine
