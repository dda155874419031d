"""Differential fuzzing for the whole compiler pipeline.

Three pieces:

* :func:`generate_case` — a seeded random program generator over the
  DSL subset the pipeline supports: affine loop nests, straight-line
  blocks, mixed-arity expressions, comments, and alignment-hostile
  strides. The same seed always produces the same program.
* :func:`differential_check` — the oracle. Every generated program is
  compiled under every vector variant × both grouping engines and run
  on both simulation engines; the resulting memory image must equal
  the scalar baseline *bit for bit* (SLP packs isomorphic statements
  without re-associating, so even float results must match exactly).
  The two grouping engines must additionally produce identical plans.
* :func:`reduce_program` — a greedy delta-debugging reducer that
  shrinks a failing program (drop items, drop statements, shrink trip
  counts, un-loop, prune expressions) while the divergence reproduces.

Grammar restrictions, and why:

* No ``/`` or ``sqrt``: division by tiny values and square roots are
  where the reference interpreter (``math``) and the batched engine
  (``numpy``) can disagree about ``inf``/``nan`` propagation; every
  remaining operator is bit-identical between the two.
* Cases whose *scalar* result contains a non-finite value are skipped
  (reported as such) rather than compared: ``nan != nan`` would turn
  legitimate overflow into a false divergence.
* Inner loops of a nest always have a trip count that is a multiple of
  16, so unrolling never needs the (unsupported) remainder loop for a
  nested inner loop.
* Loop statement *targets* always involve the innermost index —
  accumulating into one cell across a whole loop overflows to ``inf``
  almost surely, which would just inflate the skip count.
* Constants are non-negative, keeping the printer → parser round trip
  (used by the reducer) exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .compiler import CompilerOptions, Variant, compile_program
from .engines import engine_names, resolve
from .errors import format_failure
from .ir import (
    Affine,
    ArrayRef,
    BasicBlock,
    BinOp,
    IfRegion,
    Loop,
    Program,
    Select,
    Statement,
    UnOp,
    Var,
    parse_program,
)
from .transform import has_regions
from .ir.printer import format_program
from .slp.model import Schedule
from .vm import MachineModel, Simulator, intel_dunnington
from .vm.pretty import disassemble_plan

VECTOR_VARIANTS = (
    Variant.NATIVE,
    Variant.SLP,
    Variant.GLOBAL,
    Variant.GLOBAL_LAYOUT,
)
#: The grouping/sim engine axes come from the :mod:`repro.engines`
#: registry at check time, so a newly registered engine is fuzzed
#: automatically — no frozen module-scope lists.

# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------

_TYPE_NAMES = ("float", "double", "int", "int64")
_ARRAY_SIZES = (512, 1024, 2048)
_FLOAT_CONSTS = ("0.25", "0.5", "1.5", "2.0", "3.0")
_INT_CONSTS = ("1", "2", "3", "5")
_COMMENTS = (
    "// fuzz",
    "/* alignment-hostile on purpose */",
    "// generated, do not hand-tune",
)
_BINOPS = ("+", "-", "*", "min", "max")
_RELOPS = ("<", "<=", ">", ">=", "==", "!=")
# Nested inner loops must unroll without a remainder (multiple of 16
# covers every lane count the datapaths produce).
_INNER_TRIPS = (16, 32, 48, 64)
_OUTER_TRIPS = (2, 3, 4, 8)


@dataclass
class FuzzCase:
    """One generated program: the seed, the DSL text, the parsed IR."""

    seed: int
    source: str
    program: Program


def generate_case(seed: int, conditional: bool = False) -> FuzzCase:
    """Deterministically generate one random program from ``seed``.

    With ``conditional`` the grammar also produces single-level
    ``if``/``else`` regions and ``select()`` expressions (the
    if-conversion surface); the flag gates every extra RNG draw, so
    pinned seeds stay byte-identical when it is off.
    """
    # A string seed hashes deterministically across processes (tuple
    # seeds would go through randomized `hash()`).
    rng = random.Random(f"repro-fuzz-{seed}")
    source = _generate_source(rng, conditional)
    return FuzzCase(seed, source, parse_program(source))


def _generate_source(rng: random.Random, conditional: bool = False) -> str:
    type_name = rng.choice(_TYPE_NAMES)
    is_float = type_name in ("float", "double")
    consts = _FLOAT_CONSTS if is_float else _INT_CONSTS
    arrays = {
        f"A{k}": rng.choice(_ARRAY_SIZES) for k in range(rng.randint(2, 4))
    }
    scalars = [f"s{k}" for k in range(rng.randint(1, 3))]

    lines: List[str] = []
    for name, size in arrays.items():
        lines.append(f"{type_name} {name}[{size}];")
    lines.append(f"{type_name} {', '.join(scalars)};")
    if rng.random() < 0.5:
        lines.append(rng.choice(_COMMENTS))

    state = _GenState(rng, list(arrays), scalars, consts, conditional)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            lines.extend(state.straight_block())
        else:
            lines.extend(state.loop_nest())
    return "\n".join(lines) + "\n"


class _GenState:
    def __init__(self, rng, arrays, scalars, consts, conditional=False):
        self.rng = rng
        self.arrays = arrays
        self.scalars = scalars
        self.consts = consts
        self.conditional = conditional

    # -- expressions ---------------------------------------------------------

    def expr(self, depth: int, indices: List[str]) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return self.leaf(indices)
        if self.conditional and rng.random() < 0.15:
            cond = self.condition(indices)
            on_true = self.expr(depth - 1, indices)
            on_false = self.expr(depth - 1, indices)
            return f"select({cond}, {on_true}, {on_false})"
        roll = rng.random()
        if roll < 0.10:
            # abs() of a bare literal is rejected by the parser.
            return f"abs({self.nonconst_leaf(indices)})"
        if roll < 0.16:
            return f"-{self.nonconst_leaf(indices)}"
        op = rng.choice(_BINOPS)
        left = self.expr(depth - 1, indices)
        right = self.expr(depth - 1, indices)
        if op in ("min", "max"):
            return f"{op}({left}, {right})"
        return f"({left} {op} {right})"

    def leaf(self, indices: List[str]) -> str:
        if self.rng.random() < 0.75:
            return self.nonconst_leaf(indices)
        return self.rng.choice(self.consts)

    def nonconst_leaf(self, indices: List[str]) -> str:
        if self.rng.random() < 0.67:
            return self.array_ref(indices)
        return self.rng.choice(self.scalars)

    def condition(self, indices: List[str]) -> str:
        """A parenthesized comparison whose left side is typed (the
        parser rejects all-literal conditions)."""
        op = self.rng.choice(_RELOPS)
        return f"({self.nonconst_leaf(indices)} {op} {self.leaf(indices)})"

    def guarded_condition(
        self, indices: List[str]
    ) -> Tuple[str, frozenset]:
        """A region condition plus the base names it reads. Branch
        targets must avoid those bases (the parser rejects regions
        whose non-final statements write condition operands), so the
        leaves are drawn to leave at least one array free."""
        rng = self.rng
        op = rng.choice(_RELOPS)
        array = rng.choice(self.arrays)
        left = f"{array}[{self.subscript(indices, force_innermost=True)}]"
        forbid = {array}
        roll = rng.random()
        if roll < 0.4:
            right = str(rng.choice(self.consts))
        elif roll < 0.7 and len(self.scalars) > 1:
            scalar = rng.choice(self.scalars)
            forbid.add(scalar)
            right = scalar
        else:
            right = f"{array}[{self.subscript(indices, force_innermost=True)}]"
        return f"({left} {op} {right})", frozenset(forbid)

    # -- array references ----------------------------------------------------

    def array_ref(self, indices: List[str], force_innermost=False) -> str:
        name = self.rng.choice(self.arrays)
        return f"{name}[{self.subscript(indices, force_innermost)}]"

    def subscript(self, indices: List[str], force_innermost=False) -> str:
        rng = self.rng
        if not indices:
            return str(rng.randrange(0, 64))
        terms: List[str] = []
        # Innermost index, with alignment-hostile strides and offsets.
        if force_innermost or rng.random() < 0.9:
            coeff = rng.choice((1, 1, 1, 2, 2, 3, 4))
            inner = indices[-1]
            terms.append(inner if coeff == 1 else f"{coeff}*{inner}")
        # Occasionally mix in an outer index.
        if len(indices) > 1 and rng.random() < 0.5:
            coeff = rng.choice((1, 2, 4))
            outer = indices[0]
            terms.append(outer if coeff == 1 else f"{coeff}*{outer}")
        if rng.random() < 0.6 or not terms:
            terms.append(str(rng.randrange(0, 9)))
        return " + ".join(terms)

    # -- statements and items ------------------------------------------------

    def straight_block(self) -> List[str]:
        rng = self.rng
        lines: List[str] = []
        remaining = rng.randint(4, 10)
        while remaining > 0:
            if rng.random() < 0.08:
                lines.append(rng.choice(_COMMENTS))
            if (
                self.conditional
                and remaining >= 2
                and rng.random() < 0.35
            ):
                region, used = self.if_region([], remaining)
                lines.extend(region)
                remaining -= used
            elif rng.random() < 0.6 and remaining >= 2:
                lines.extend(self.packable_family(min(remaining, 4)))
                remaining -= min(remaining, 4)
            else:
                lines.append(self.statement([]))
                remaining -= 1
        return lines

    def if_region(
        self, indices: List[str], budget: int
    ) -> Tuple[List[str], int]:
        """One single-level ``if``/``else`` region: half the time both
        branches assign the same targets (the select-merge shape),
        otherwise arbitrary branch statements (the masked-update
        shape). Returns the lines and the statement count consumed."""
        rng = self.rng
        cond, forbid = self.guarded_condition(indices)
        free_scalars = [s for s in self.scalars if s not in forbid]
        free_arrays = [a for a in self.arrays if a not in forbid]
        lines = [f"if {cond} {{"]
        width = rng.randint(1, max(1, min(budget, 3)))
        if rng.random() < 0.5:
            # Select-merge shape: identical targets, pairwise.
            targets = []
            for _ in range(width):
                if not indices and free_scalars and rng.random() < 0.3:
                    targets.append(rng.choice(free_scalars))
                else:
                    name = rng.choice(free_arrays)
                    sub = self.subscript(indices, force_innermost=True)
                    targets.append(f"{name}[{sub}]")
            for target in targets:
                value = self.expr(rng.randint(1, 2), indices)
                lines.append(f"  {target} = {value};")
            lines.append("} else {")
            for target in targets:
                value = self.expr(rng.randint(1, 2), indices)
                lines.append(f"  {target} = {value};")
            lines.append("}")
            return lines, 2 * width
        used = width
        for _ in range(width):
            lines.append("  " + self.statement(indices, forbid=forbid))
        if rng.random() < 0.5:
            lines.append("} else {")
            for _ in range(rng.randint(1, 2)):
                lines.append("  " + self.statement(indices, forbid=forbid))
                used += 1
            lines.append("}")
        else:
            lines.append("}")
        return lines, used

    def packable_family(self, width: int) -> List[str]:
        """Isomorphic statements over adjacent elements — the bread and
        butter of SLP; without these most cases never vectorize."""
        rng = self.rng
        dst = rng.choice(self.arrays)
        srcs = [rng.choice(self.arrays) for _ in range(rng.randint(1, 2))]
        base = rng.randrange(0, 32)
        bases = [rng.randrange(0, 32) for _ in srcs]
        op = rng.choice(_BINOPS)
        out: List[str] = []
        for lane in range(width):
            refs = [f"{s}[{b + lane}]" for s, b in zip(srcs, bases)]
            if len(refs) == 1:
                refs.append(rng.choice(self.consts))
            if op in ("min", "max"):
                value = f"{op}({refs[0]}, {refs[1]})"
            else:
                value = f"({refs[0]} {op} {refs[1]})"
            out.append(f"{dst}[{base + lane}] = {value};")
        return out

    def statement(
        self, indices: List[str], forbid: frozenset = frozenset()
    ) -> str:
        rng = self.rng
        scalars = [s for s in self.scalars if s not in forbid]
        if not indices and scalars and rng.random() < 0.3:
            target = rng.choice(scalars)
        else:
            # Loop targets must involve the innermost index (see the
            # module docstring) — and scalar targets stay out of loops.
            arrays = [a for a in self.arrays if a not in forbid]
            name = rng.choice(arrays)
            sub = self.subscript(indices, force_innermost=True)
            target = f"{name}[{sub}]"
        return f"{target} = {self.expr(rng.randint(1, 3), indices)};"

    def loop_nest(self) -> List[str]:
        rng = self.rng
        lines: List[str] = []
        nested = rng.random() < 0.35
        if nested:
            outer_trips = rng.choice(_OUTER_TRIPS)
            inner_trips = rng.choice(_INNER_TRIPS)
            lines.append(f"for (i = 0; i < {outer_trips}; i += 1) {{")
            lines.append(f"  for (j = 0; j < {inner_trips}; j += 1) {{")
            for _ in range(rng.randint(1, 4)):
                lines.append("    " + self.statement(["i", "j"]))
            lines.append("  }")
            lines.append("}")
        else:
            step = rng.choice((1, 1, 1, 2))
            stop = rng.randint(4, 70)
            lines.append(f"for (i = 0; i < {stop}; i += {step}) {{")
            if rng.random() < 0.15:
                lines.append("  " + rng.choice(_COMMENTS))
            for _ in range(rng.randint(1, 5)):
                lines.append("  " + self.statement(["i"]))
            if self.conditional and rng.random() < 0.5:
                region, _ = self.if_region(["i"], 3)
                lines.extend("  " + line for line in region)
            lines.append("}")
        return lines


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One configuration that disagreed with the scalar baseline."""

    seed: int
    #: "crash" | "memory" | "report" | "memo" | "plan" | "interpret"
    kind: str
    variant: str
    grouping_engine: str
    sim_engine: Optional[str]
    detail: str
    source: str
    reduced_source: Optional[str] = None

    def summary(self) -> str:
        where = f"{self.variant}/{self.grouping_engine}"
        if self.sim_engine:
            where += f"/{self.sim_engine}"
        return f"seed {self.seed}: {self.kind} divergence under {where}"


@dataclass
class CaseResult:
    status: str                   # "ok" | "skipped" | "diverged"
    divergence: Optional[Divergence] = None


def _snapshot(memory, program: Program):
    return (
        {name: memory.arrays[name].copy() for name in program.arrays},
        {name: memory.scalars[name] for name in program.scalars},
    )


def _finite(snapshot) -> bool:
    arrays, scalars = snapshot
    return all(np.isfinite(a).all() for a in arrays.values()) and all(
        np.isfinite(v) for v in scalars.values()
    )


def _first_mismatch(baseline, snapshot) -> Optional[str]:
    base_arrays, base_scalars = baseline
    arrays, scalars = snapshot
    for name, expected in base_arrays.items():
        if not np.array_equal(expected, arrays[name]):
            bad = int(np.flatnonzero(expected != arrays[name])[0])
            return (
                f"{name}[{bad}]: scalar={expected[bad]!r} "
                f"vector={arrays[name][bad]!r}"
            )
    for name, expected in base_scalars.items():
        if scalars[name] != expected:
            return f"{name}: scalar={expected!r} vector={scalars[name]!r}"
    return None


def _memo_hit_mismatch(plan, machine, first_report, seed) -> Optional[str]:
    """Run the compiled engine again on a plan it has already run, at
    another seed. That run is a timing-memo hit: only the functional
    kernels execute and the report comes from the memo. It must equal
    the first run's report, and its memory must equal the reference
    engine's at the new seed."""
    report, memory = Simulator(machine, engine="compiled").run(
        plan, seed=seed
    )
    if report != first_report:
        return "compiled memo-hit ExecutionReport differs from its first run"
    _, expected = Simulator(machine, engine="reference").run(plan, seed=seed)
    if not memory.state_equal(expected):
        return f"compiled memo-hit memory differs from reference (seed {seed})"
    return None


def differential_check(
    program: Program,
    machine: Optional[MachineModel] = None,
    options: Optional[CompilerOptions] = None,
    sim_seed: int = 0,
    case_seed: int = 0,
) -> CaseResult:
    """Compare every vector configuration against the scalar baseline.

    Crashes anywhere (including in the baseline) count as divergences;
    cases whose scalar result is non-finite are skipped.
    """
    machine = machine or intel_dunnington()
    base = options or CompilerOptions()
    source = format_program(program)

    def diverged(kind, variant, grouping, sim_engine, detail):
        return CaseResult(
            "diverged",
            Divergence(
                case_seed, kind, variant, grouping, sim_engine, detail,
                source,
            ),
        )

    try:
        scalar = compile_program(program, Variant.SCALAR, machine, base)
        _, memory = Simulator(machine, engine="reference").run(
            scalar.plan, seed=sim_seed
        )
    except Exception as exc:
        return diverged(
            "crash", "scalar", "-", "reference", format_failure(exc)
        )
    baseline = _snapshot(memory, program)
    if not _finite(baseline):
        return CaseResult("skipped")

    # Programs with conditional regions get a second, independent
    # oracle: a tree-walking interpreter with true branch semantics
    # (only the taken branch executes). If-conversion — which every
    # compiled variant above runs through, including SCALAR — must
    # preserve those semantics bit for bit.
    if has_regions(program):
        from .vm.simulator import interpret_program

        try:
            interpreted = interpret_program(program, seed=sim_seed)
        except Exception as exc:
            return diverged(
                "crash", "interpreter", "-", None, format_failure(exc)
            )
        mismatch = _first_mismatch(
            baseline, _snapshot(interpreted, program)
        )
        if mismatch is not None:
            return diverged(
                "interpret", "scalar", "-", "interpreter", mismatch
            )

    sim_engines = engine_names("sim")
    for variant in VECTOR_VARIANTS:
        # The grouping engine only participates in the holistic
        # decision loop; the greedy baselines never touch it.
        holistic = variant in (Variant.GLOBAL, Variant.GLOBAL_LAYOUT)
        groupings = engine_names("grouping") if holistic else (
            "incremental",
        )
        plans = {}
        for grouping in groupings:
            opts = replace(base, grouping_engine=grouping)
            try:
                result = compile_program(program, variant, machine, opts)
            except Exception as exc:
                return diverged(
                    "crash", variant.value, grouping, None,
                    format_failure(exc),
                )
            plans[grouping] = result
            reports = {}
            for sim_engine in sim_engines:
                try:
                    report, mem = Simulator(machine, engine=sim_engine).run(
                        result.plan, seed=sim_seed
                    )
                except Exception as exc:
                    return diverged(
                        "crash", variant.value, grouping, sim_engine,
                        format_failure(exc),
                    )
                mismatch = _first_mismatch(
                    baseline, _snapshot(mem, program)
                )
                if mismatch is not None:
                    return diverged(
                        "memory", variant.value, grouping, sim_engine,
                        mismatch,
                    )
                reports[sim_engine] = report
            # Every engine must produce a bit-identical ExecutionReport
            # — cycles, charge buckets, cache hits/misses, provenance —
            # not just the same memory. Dataclass equality covers all
            # fields.
            for sim_engine, report in reports.items():
                if sim_engine == "reference":
                    continue
                if report != reports["reference"]:
                    return diverged(
                        "report", variant.value, grouping, sim_engine,
                        f"{sim_engine} ExecutionReport differs from "
                        "reference",
                    )
            if "compiled" in reports:
                try:
                    mismatch = _memo_hit_mismatch(
                        result.plan, machine, reports["compiled"],
                        sim_seed + 1,
                    )
                except Exception as exc:
                    return diverged(
                        "crash", variant.value, grouping, "compiled",
                        format_failure(exc),
                    )
                if mismatch is not None:
                    return diverged(
                        "memo", variant.value, grouping, "compiled",
                        mismatch,
                    )
        # Grouping engines sharing a plan-equivalence class (see
        # ``Engine.equivalence``) must emit bit-identical plans: both
        # greedy loops are in class "greedy"; the optimal engine may
        # legitimately choose different groups, so it sits alone and is
        # only held to the semantic checks above.
        classes: Dict[str, List[str]] = {}
        for grouping in plans:
            tag = resolve("grouping", grouping).equivalence
            if tag is not None:
                classes.setdefault(tag, []).append(grouping)
        for tag, members in classes.items():
            if len(members) < 2:
                continue
            texts = {
                g: disassemble_plan(plans[g].plan) for g in members
            }
            first = members[0]
            for other in members[1:]:
                if texts[other] != texts[first]:
                    return diverged(
                        "plan", variant.value, f"{first}+{other}", None,
                        f"grouping engines of class {tag!r} produced "
                        "different plans",
                    )
    return CaseResult("ok")


# ---------------------------------------------------------------------------
# Test-case reduction (greedy delta debugging)
# ---------------------------------------------------------------------------


def reduce_program(
    program: Program,
    predicate: Callable[[Program], bool],
    max_steps: int = 400,
) -> Program:
    """Greedily shrink ``program`` while ``predicate`` stays true.

    ``predicate`` must return True when the candidate still exhibits
    the failure being chased; candidates that raise are discarded.
    """
    current = program
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(current):
            steps += 1
            if steps > max_steps:
                break
            try:
                keep = predicate(candidate)
            except Exception:
                continue
            if keep:
                current = candidate
                improved = True
                break
    stripped = _strip_unused_decls(current)
    try:
        if predicate(stripped):
            return stripped
    except Exception:
        pass
    return current


def statement_count(program: Program) -> int:
    return sum(
        1 for block in program.blocks() for _ in block.flat_statements()
    )


def _rebuild(program: Program, body) -> Program:
    out = program.clone_shell()
    for item in body:
        out.add(item)
    return out


def _candidates(program: Program) -> Iterator[Program]:
    body = program.body
    if len(body) > 1:
        for i in range(len(body)):
            yield _rebuild(program, body[:i] + body[i + 1:])
    for i, item in enumerate(body):
        for reduced in _item_candidates(item):
            yield _rebuild(program, body[:i] + [reduced] + body[i + 1:])


def _item_candidates(item) -> Iterator:
    if isinstance(item, BasicBlock):
        yield from _block_candidates(item)
        return
    assert isinstance(item, Loop)
    yield from _loop_candidates(item, nested=item.inner is not None)


def _loop_candidates(loop: Loop, nested: bool) -> Iterator[Loop]:
    # Un-loop: a single-level loop becomes its body at the first
    # iteration (often enough to keep a packing bug alive).
    if loop.inner is None and len(loop.body):
        binding = {loop.index: Affine((), loop.start)}
        yield BasicBlock(
            [s.substitute_indices(binding) for s in loop.body]
        ).renumbered()
    # Shrink the trip count. Inner loops of a nest stay a multiple of
    # 16 so unrolling never needs a nested remainder loop.
    trips = (16,) if nested and loop.inner is None else (1, 2, 4, 8)
    for trip in trips:
        stop = loop.start + loop.step * trip
        if stop < loop.stop:
            yield replace(loop, stop=stop)
    for block in _block_candidates(loop.body):
        yield loop.with_body(block)
    if loop.inner is not None:
        for inner in _loop_candidates(loop.inner, nested=True):
            yield replace(loop, inner=inner)
        if len(loop.body):
            yield replace(loop, inner=None)


def _block_candidates(block: BasicBlock) -> Iterator[BasicBlock]:
    stmts = block.statements
    if len(stmts) > 1:
        for j in range(len(stmts)):
            yield BasicBlock(stmts[:j] + stmts[j + 1:]).renumbered()
    for j, item in enumerate(stmts):
        if isinstance(item, IfRegion):
            # Inline a branch (losing the condition entirely), then
            # structural shrinks of the region itself.
            yield BasicBlock(
                stmts[:j] + list(item.then_body) + stmts[j + 1:]
            ).renumbered()
            if item.else_body:
                yield BasicBlock(
                    stmts[:j] + list(item.else_body) + stmts[j + 1:]
                ).renumbered()
            for reduced in _region_candidates(item):
                yield BasicBlock(
                    stmts[:j] + [reduced] + stmts[j + 1:]
                ).renumbered()
            continue
        for expr in _expr_candidates(item.expr):
            new = Statement(item.sid, item.target, expr, item.pred)
            yield BasicBlock(
                [new if k == j else s for k, s in enumerate(stmts)]
            )


def _try_region(cond, then_body, else_body=()):
    try:
        return IfRegion(cond, then_body, else_body)
    except Exception:
        return None          # shrink produced an illegal region shape


def _region_candidates(region: IfRegion) -> Iterator[IfRegion]:
    candidates = []
    if region.else_body:
        candidates.append(_try_region(region.cond, region.then_body))
        for j in range(len(region.else_body)):
            candidates.append(
                _try_region(
                    region.cond,
                    region.then_body,
                    region.else_body[:j] + region.else_body[j + 1:],
                )
            )
    if len(region.then_body) > 1:
        for j in range(len(region.then_body)):
            candidates.append(
                _try_region(
                    region.cond,
                    region.then_body[:j] + region.then_body[j + 1:],
                    region.else_body,
                )
            )
    yield from (c for c in candidates if c is not None)


def _try_select(cond, on_true, on_false):
    try:
        return Select(cond, on_true, on_false)
    except Exception:
        return None          # shrink changed an operand's type


def _expr_candidates(expr) -> Iterator:
    if isinstance(expr, BinOp):
        yield expr.left
        yield expr.right
        for sub in _expr_candidates(expr.left):
            yield BinOp(expr.op, sub, expr.right)
        for sub in _expr_candidates(expr.right):
            yield BinOp(expr.op, expr.left, sub)
    elif isinstance(expr, UnOp):
        yield expr.operand
        for sub in _expr_candidates(expr.operand):
            yield UnOp(expr.op, sub)
    elif isinstance(expr, Select):
        yield expr.on_true
        yield expr.on_false
        for sub in _expr_candidates(expr.on_true):
            candidate = _try_select(expr.cond, sub, expr.on_false)
            if candidate is not None:
                yield candidate
        for sub in _expr_candidates(expr.on_false):
            candidate = _try_select(expr.cond, expr.on_true, sub)
            if candidate is not None:
                yield candidate


def _strip_unused_decls(program: Program) -> Program:
    used = set()
    for block in program.blocks():
        for item in block:
            leaves: List = []
            if isinstance(item, IfRegion):
                leaves.extend(item.cond.leaves())
                inner = item.statements()
            else:
                inner = iter((item,))
            for stmt in inner:
                leaves.append(stmt.target)
                leaves.extend(stmt.expr.leaves())
                if stmt.pred is not None:
                    leaves.extend(stmt.pred.cond.leaves())
            for leaf in leaves:
                if isinstance(leaf, ArrayRef):
                    used.add(leaf.array)
                elif isinstance(leaf, Var):
                    used.add(leaf.name)
    out = Program(program.name)
    for name, decl in program.arrays.items():
        if name in used:
            out.declare_array(name, decl.shape, decl.type)
    for name, decl in program.scalars.items():
        if name in used:
            out.declare_scalar(name, decl.type)
    for item in program.body:
        out.add(item)
    return out


# ---------------------------------------------------------------------------
# Deliberate-bug fixtures
# ---------------------------------------------------------------------------


def buggy_swap_mutator(
    schedule: Schedule, label: str
) -> Optional[Schedule]:
    """A deliberately broken "optimization" for exercising the oracle,
    the verifier, and graceful degradation: reverses the schedule of
    every block, which violates dependences whenever the block has any.

    Install via ``CompilerOptions(debug_schedule_mutator=
    buggy_swap_mutator)``.
    """
    if len(schedule.items) < 2:
        return None
    return Schedule(schedule.block, list(reversed(schedule.items)))


def buggy_peephole_mutator(body, label: str):
    """A deliberately broken peephole "rewrite" for exercising the
    3-engine oracle: reverses the sources of the first ``VPack`` that
    packs at least two distinct locations (so the compiled kernel
    computes with permuted lanes), or failing that rotates the first
    ``VShuffle``'s permutation. Returns ``None`` when the body offers
    nothing to break.

    Install via ``repro.vm.peephole.DEBUG_MUTATOR = \
buggy_peephole_mutator`` (kernel caching is bypassed while a mutator is
    active); the mutation tests prove ``differential_check`` reports the
    resulting divergence.
    """
    from .vm import VPack, VShuffle

    mutated = list(body)
    for i, instr in enumerate(mutated):
        if isinstance(instr, VPack) and len(set(instr.sources)) >= 2:
            mutated[i] = replace(
                instr, sources=tuple(reversed(instr.sources))
            )
            return mutated
    for i, instr in enumerate(mutated):
        if isinstance(instr, VShuffle) and len(set(instr.perm)) >= 2:
            rotated = instr.perm[1:] + instr.perm[:1]
            mutated[i] = replace(instr, perm=rotated)
            return mutated
    return None


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


@dataclass
class FuzzReport:
    seed: int
    count: int
    ok: int = 0
    skipped: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.count} case(s) from seed {self.seed}: "
            f"{self.ok} ok, {self.skipped} skipped (non-finite), "
            f"{len(self.divergences)} divergence(s)"
        ]
        for div in self.divergences:
            lines.append(f"  {div.summary()}")
        return "\n".join(lines)


def match_predicate(
    divergence: Divergence,
    machine: Optional[MachineModel] = None,
    options: Optional[CompilerOptions] = None,
) -> Callable[[Program], bool]:
    """A reduction predicate: the same kind of divergence, under the
    same variant, still reproduces."""

    def predicate(candidate: Program) -> bool:
        result = differential_check(candidate, machine, options)
        found = result.divergence
        return (
            found is not None
            and found.kind == divergence.kind
            and found.variant == divergence.variant
        )

    return predicate


def fuzz(
    seed: int = 0,
    count: int = 100,
    machine: Optional[MachineModel] = None,
    options: Optional[CompilerOptions] = None,
    reduce_failures: bool = True,
    max_divergences: int = 10,
    on_case: Optional[Callable[[int, CaseResult], None]] = None,
    conditional: bool = False,
) -> FuzzReport:
    """Run a differential fuzzing campaign of ``count`` cases.

    Stops early after ``max_divergences`` failures; each recorded
    divergence carries the generating source and (when
    ``reduce_failures``) a reduced reproduction. ``conditional``
    switches on the if/else + select grammar.
    """
    machine = machine or intel_dunnington()
    report = FuzzReport(seed, count)
    for k in range(count):
        case = generate_case(seed + k, conditional=conditional)
        result = differential_check(
            case.program, machine, options, case_seed=case.seed
        )
        if result.status == "ok":
            report.ok += 1
        elif result.status == "skipped":
            report.skipped += 1
        else:
            div = result.divergence
            div = replace(div, source=case.source)
            if reduce_failures:
                reduced = reduce_program(
                    case.program, match_predicate(div, machine, options)
                )
                div = replace(div, reduced_source=format_program(reduced))
            report.divergences.append(div)
            if len(report.divergences) >= max_divergences:
                break
        if on_case is not None:
            on_case(k, result)
    return report


__all__ = [
    "CaseResult",
    "Divergence",
    "FuzzCase",
    "FuzzReport",
    "buggy_peephole_mutator",
    "buggy_swap_mutator",
    "differential_check",
    "fuzz",
    "generate_case",
    "match_predicate",
    "reduce_program",
    "statement_count",
]
