"""The four workloads: what one op is, how inputs are drawn from the
seed, how every output is checked, and what set-up costs.

Each workload function takes a :class:`Context` and returns a
:class:`Run`. Every workload is one closed loop: one op at a time.
Checks are never inside an op's timer, and the loop pauses the window
clock while it checks, so ``ops_per_s`` counts only op time. Reference
computations (scalar plans, local compiles, expected CLI output) run
before the window and are not part of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro.bench import ALL_KERNELS, build_kernel
from repro.ir import format_program
from repro.perf import PERF
from repro.vm import MACHINES

from calibration import NOMINAL_S, Calibrator
from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: Fresh set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Calibration samples taken right before and right after each set-up.
SETUP_CALIBRATIONS = 10

#: Kernels printed at this size for ``compile-suite`` and ``cli-cold``.
COMPILE_N = 64
#: ``simulate-large`` compiles every kernel once at this size.
SIMULATE_N = 4096
#: ``serve-mixed`` request sizes and kind mix.
SERVE_SIZES = (32, 64, 128, 256)
SERVE_COMPILE_SHARE = 0.3
#: Passes over every key in which the compile share is exact.
SERVE_BLOCK = 10
SERVE_SHARDS = 2
#: Requests generated per run; far more than a 60-second window serves.
SERVE_STREAM = 50_000
#: Least time between calibrations in the closed loops.
CALIBRATION_INTERVAL_S = 0.025
#: Simulation seeds per run, drawn from the workload seed.
SIM_SEEDS = 3
#: The kernel ``cli-cold`` prints next to ``examples/*.slp``.
CLI_KERNEL = "milc"

FAILED = object()


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float
    tracer: Optional[Tracer]
    calibrator: Calibrator
    #: Corrupt one expected output, so the checks must count failures.
    perturb: bool
    env: Dict[str, str]


@dataclass
class Run:
    """What one workload measured."""

    #: Op latencies as measured: (start on the perf_counter clock, ms).
    raw: List[Tuple[float, float]] = field(default_factory=list)
    raw_traced: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall time of the measured window, pauses excluded.
    window_s: float = 0.0
    #: Calibrated seconds (see ``calibration.py``).
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    cycles_speedup_geomean: float = 0.0
    #: Workload properties, printed as ``# name: value`` lines.
    properties: Dict[str, object] = field(default_factory=dict)
    #: Timed layers measured without spans: name -> (ms per op, calls per op).
    timed: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: Ratio and count layers.
    values: Dict[str, float] = field(default_factory=dict)


# -- shared helpers ----------------------------------------------------------


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def memory_digest(memory, program=None) -> str:
    """Hash of the raw bytes of the arrays and scalars ``program``
    declares (default: all of them), so equal digests mean bit-for-bit
    equal state. Compilers add scalars and arrays of their own (unroll
    copies, layout replicas); comparing against the scalar plan covers
    only the source program's."""
    arrays = memory.arrays if program is None else program.arrays
    scalars = memory.scalars if program is None else program.scalars
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(memory.arrays[name].tobytes())
    for name in sorted(scalars):
        digest.update(name.encode())
        digest.update(struct.pack("<d", memory.scalars[name]))
    return digest.hexdigest()


def perturbed(ctx: Context, expected: str) -> str:
    return expected + "-perturbed" if ctx.perturb else expected


def median_setup(ctx: Context, once: Callable[[int], float]) -> float:
    """Median seconds of ``SETUP_REPEATS`` set-ups, calibrated by the
    median of the calibration samples taken right before and after each.
    One factor for the whole median varied less from run to run than a
    factor per set-up."""
    calibrator = ctx.calibrator
    values, samples = [], []
    for index in range(SETUP_REPEATS):
        calibrator.sample(SETUP_CALIBRATIONS)
        values.append(once(index))
        calibrator.sample(SETUP_CALIBRATIONS)
        samples += calibrator.seconds[-2 * SETUP_CALIBRATIONS:]
    return statistics.median(values) * NOMINAL_S / statistics.median(samples)


def probe_setup(ctx: Context, workload: str) -> float:
    """Median seconds of fresh-interpreter set-ups (see ``probe.py``)."""

    def once(index: int) -> float:
        scratch = ctx.out / f"probe-{index}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(scratch)],
            env=ctx.env, cwd=ctx.root, capture_output=True, text=True,
            timeout=120, check=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        return float(done.stdout.split()[-1])

    return median_setup(ctx, once)


def perf_ratio(counters: Dict[str, int], hits: str, *others: str) -> float:
    hit = counters.get(hits, 0)
    return ratio(hit, hit + sum(counters.get(name, 0) for name in others))


def closed_loop(
    ctx: Context,
    run: Run,
    passes: Iterator[list],
    op: Callable,
    check: Callable,
    targets,
    calibrations: int = 1,
) -> None:
    """One client, one op at a time, until ``ctx.seconds`` of op time.

    With tracing on, odd passes are traced: the wrappers are installed
    for that pass only, so even passes measure the unwrapped program
    and give the tracing overhead. ``check(item, output, traced)`` and
    ``calibrations`` calibration samples run after an op, at most every
    ``CALIBRATION_INTERVAL_S``, with the window clock paused.
    """
    tracer = ctx.tracer
    started = time.perf_counter()
    paused = 0.0
    calibrated = 0.0
    for index, items in enumerate(passes):
        traced = tracer is not None and index % 2 == 1
        with tracer.installed(targets) if traced else contextlib.nullcontext():
            for item in items:
                elapsed = time.perf_counter() - started - paused
                if elapsed >= ctx.seconds and enough(run, tracer):
                    run.window_s = elapsed
                    return
                run.attempted += 1
                began = time.perf_counter()
                try:
                    if traced:
                        PERF.enable()
                        with tracer.op(run.attempted):
                            output = op(item)
                    else:
                        output = op(item)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    output = FAILED
                finally:
                    PERF.disable()
                ended = time.perf_counter()
                (run.raw_traced if traced else run.raw).append(
                    (began, (ended - began) * 1e3)
                )
                if output is FAILED or not check(item, output, traced):
                    run.failed += 1
                # Free this op's output before the next op allocates its
                # own, so the peak RSS is one op's, not two adjacent ones'.
                del output
                if time.perf_counter() - calibrated >= CALIBRATION_INTERVAL_S:
                    ctx.calibrator.sample(calibrations)
                    calibrated = time.perf_counter()
                paused += time.perf_counter() - ended


def enough(run: Run, tracer: Optional[Tracer]) -> bool:
    """The fewest samples the metrics can be computed from."""
    return len(run.raw) >= 2 and (tracer is None or run.raw_traced)


def seeded_passes(rng: random.Random, items: list) -> Iterator[list]:
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


# -- compile-suite -----------------------------------------------------------

COMPILE_TARGETS = [
    ("repro", "parse_program", "ir.parse"),
    ("repro", "compile_program", "compile.self"),
    ("repro.compiler", "if_convert_program", "transform.if_convert"),
    ("repro.compiler", "unroll_program", "transform.unroll"),
    ("repro.compiler", "DependenceGraph", "analysis.dependence"),
    ("repro.compiler", "holistic_slp_schedule", "slp.scheduling"),
    ("repro.slp", "iterative_grouping", "slp.grouping"),
    ("repro.slp.grouping", "find_candidates", "slp.candidates"),
    ("repro.slp.grouping", "VariablePackGraph", "slp.vp_build"),
    ("repro.compiler", "default_scalar_layout", "layout.scalar"),
    ("repro.compiler", "optimized_scalar_layout", "layout.scalar"),
    ("repro.compiler", "plan_array_layout", "layout.array"),
    ("repro.compiler", "apply_array_layout", "layout.array"),
    ("repro.compiler", "compile_scalar_block", "vm.codegen"),
    ("repro.vm.codegen", "VectorCodegen.compile", "vm.codegen"),
]


def compile_suite(ctx: Context) -> Run:
    """``parse_program`` + ``compile_program(GLOBAL_LAYOUT)`` of one of
    the 20 kernels printed at n=64; the simulator is off the timed path."""
    run = Run()
    rng = random.Random(ctx.seed)
    sim_seed = rng.randrange(1 << 16)
    machine = MACHINES["intel"]()
    programs = {}
    sources: Dict[str, str] = {}
    expected: Dict[str, str] = {}
    scalar_cycles: Dict[str, float] = {}
    for kernel in ALL_KERNELS:
        program = programs[kernel.name] = kernel.build(COMPILE_N)
        sources[kernel.name] = format_program(program)
        scalar = repro.compile_program(program, repro.Variant.SCALAR, machine)
        report, memory = repro.Simulator(machine).run(scalar.plan, seed=sim_seed)
        expected[kernel.name] = memory_digest(memory, program)
        scalar_cycles[kernel.name] = report.cycles
    first = ALL_KERNELS[0].name
    expected[first] = perturbed(ctx, expected[first])
    run.setup_s = probe_setup(ctx, "compile-suite")

    checker = repro.Simulator(machine, engine="compiled")
    # First compile of each kernel: (cycles, stats). Every later compile
    # must match it, so nondeterminism counts as a failure.
    firsts: Dict[str, tuple] = {}

    def op(name: str):
        program = repro.parse_program(sources[name])
        return repro.compile_program(
            program, repro.Variant.GLOBAL_LAYOUT, machine
        )

    def check(name: str, result, traced: bool) -> bool:
        report, memory = checker.run(result.plan, seed=sim_seed)
        first = firsts.setdefault(name, (report.cycles, result.stats))
        return (
            memory_digest(memory, programs[name]) == expected[name]
            and (report.cycles, result.stats) == first
        )

    if ctx.tracer is not None:
        PERF.reset()
    closed_loop(ctx, run, seeded_passes(rng, list(sources)), op, check,
                COMPILE_TARGETS)
    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
    run.cycles_speedup_geomean = statistics.geometric_mean(
        scalar_cycles[name] / cycles for name, (cycles, _) in firsts.items()
    )
    stats = [stats for _, stats in firsts.values()]
    blocks = [block for p in programs.values() for block in p.blocks()]
    run.properties.update(
        kernels=len(sources),
        source_blocks=len(blocks),
        source_statements=sum(len(block) for block in blocks),
        compiled_blocks=sum(s.blocks_total for s in stats),
        compiled_statements=sum(s.total_statements for s in stats),
    )
    # Per-kernel figures are deterministic, so they are summed once per
    # kernel rather than weighted by how often the window visited it.
    run.values.update({
        "slp.grouped_fraction": ratio(
            sum(s.grouped_statements for s in stats),
            sum(s.total_statements for s in stats),
        ),
        "compile.blocks_vectorized_ratio": ratio(
            sum(s.blocks_vectorized for s in stats),
            sum(s.blocks_total for s in stats),
        ),
        "layout.replications": ratio(
            sum(s.replications for s in stats), len(stats)
        ),
        "slp.score_cache_hit_ratio": perf_ratio(
            PERF.counters, "grouping.score_cache_hits",
            "grouping.scores_recomputed",
        ),
    })
    return run


# -- simulate-large ----------------------------------------------------------

SIMULATE_TARGETS = [
    ("repro", "Simulator.run", "vm.run_self"),
    ("repro.vm.simulator", "Memory.__init__", "vm.memory_init"),
    ("repro.vm.compiled", "load_plan_kernels", "vm.engine_prepare"),
    ("repro.vm.compiled", "CompiledEngine.__init__", "vm.engine_prepare"),
    ("repro.vm.cache", "Cache.replay_lines_bulk", "vm.cache_replay"),
    ("repro.vm.cache", "Cache.replay_lines", "vm.cache_replay"),
]


def simulate_large(ctx: Context) -> Run:
    """``Simulator(engine="compiled").run`` of one of the 20 kernels
    compiled once at n=4096; the compiler is off the timed path."""
    run = Run()
    rng = random.Random(ctx.seed)
    seeds = rng.sample(range(1 << 16), SIM_SEEDS)
    machine = MACHINES["intel"]()
    simulator = repro.Simulator(machine, engine="compiled")
    plans = {}
    expected: Dict[Tuple[str, int], Tuple[object, str]] = {}
    scalar_cycles: Dict[str, float] = {}
    elements = 0
    mismatched = set()
    for kernel in ALL_KERNELS:
        program = kernel.build(SIMULATE_N)
        plan = repro.compile_program(
            program, repro.Variant.GLOBAL_LAYOUT, machine
        ).plan
        scalar = repro.compile_program(program, repro.Variant.SCALAR, machine)
        plans[kernel.name] = plan
        for seed in seeds:
            report, memory = simulator.run(plan, seed=seed)
            expected[kernel.name, seed] = (report, memory_digest(memory))
            scalar_report, scalar_memory = simulator.run(scalar.plan, seed=seed)
            scalar_cycles[kernel.name] = scalar_report.cycles
            if memory_digest(memory, program) != memory_digest(
                scalar_memory, program
            ):
                mismatched.add((kernel.name, seed))
        elements += sum(array.size for array in memory.arrays.values())
    for seed in seeds:
        key = (ALL_KERNELS[0].name, seed)
        expected[key] = (expected[key][0], perturbed(ctx, expected[key][1]))
    run.setup_s = probe_setup(ctx, "simulate-large")

    gl_cycles: Dict[str, float] = {}
    reports = {"hits": 0, "misses": 0}

    def passes() -> Iterator[list]:
        while True:
            order = [(name, rng.choice(seeds)) for name in plans]
            rng.shuffle(order)
            yield order

    def op(item):
        return simulator.run(plans[item[0]], seed=item[1])

    def check(item, output, traced: bool) -> bool:
        report, memory = output
        reference, digest = expected[item]
        gl_cycles[item[0]] = report.cycles
        reports["hits"] += report.cache_hits
        reports["misses"] += report.cache_misses
        return (
            item not in mismatched
            and report == reference
            and memory_digest(memory) == digest
        )

    if ctx.tracer is not None:
        PERF.reset()
    closed_loop(ctx, run, passes(), op, check, SIMULATE_TARGETS)
    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
    run.cycles_speedup_geomean = statistics.geometric_mean(
        scalar_cycles[name] / gl_cycles[name] for name in gl_cycles
    )
    run.properties.update(
        kernels=len(plans), seeds=len(seeds),
        simulated_elements_per_pass=elements,
    )
    counters = PERF.counters
    run.values.update({
        "vm.cache_miss_ratio": ratio(
            reports["misses"], reports["hits"] + reports["misses"]
        ),
        "vm.compiled_fallback_ratio": perf_ratio(
            counters, "simulate.compiled_fallbacks", "simulate.compiled_loops"
        ),
        "vm.kernel_memo_hit_ratio": perf_ratio(
            counters, "compiled.kernel_memo_hits",
            "compiled.kernel_store_hits", "compiled.emissions",
        ),
    })
    return run


# -- serve-mixed -------------------------------------------------------------

SERVE_TARGETS = [
    ("repro.service.client", "ServiceClient.compile", "service.round_trip"),
    ("repro.service.client", "ServiceClient.simulate", "service.round_trip"),
    ("repro.service.client", "unpickle_b64", "service.unpickle"),
]

HISTOGRAM_STAGES = ("parse", "queue_wait", "execute", "total")


def serve_stream(rng: random.Random, seeds: List[int], length: int) -> list:
    """Requests ``(kind, kernel, n, seed)`` in passes that each visit
    every (kernel, n) key once, in a seeded order. The first pass makes
    every key's first request, so every key's output is checked and
    enters the cycles geomean; later passes repeat keys. Every pass has
    the same number of compile requests, and in each block of
    ``SERVE_BLOCK`` passes every key is a compile request in exactly
    ``SERVE_COMPILE_SHARE`` of them, so every seed asks for the same mix
    of work and changes only its order and the simulation seeds."""
    keys = [(k.name, n) for k in ALL_KERNELS for n in SERVE_SIZES]
    compiles = round(SERVE_COMPILE_SHARE * SERVE_BLOCK)
    stream: list = []
    while len(stream) < length:
        rng.shuffle(keys)
        # Key i compiles in the passes p with (i + p) % SERVE_BLOCK below
        # ``compiles``: that many of any SERVE_BLOCK consecutive keys.
        kind = {
            key: [
                "compile" if (i + p) % SERVE_BLOCK < compiles else "simulate"
                for p in range(SERVE_BLOCK)
            ]
            for i, key in enumerate(keys)
        }
        for p in range(SERVE_BLOCK):
            order = list(keys)
            rng.shuffle(order)
            stream += [
                (kind[key][p], *key, rng.choice(seeds)) for key in order
            ]
    return stream


def serve_mixed(ctx: Context) -> Run:
    """One closed-loop client against an embedded two-shard service with
    a fresh artifact store."""
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceThread

    run = Run()
    rng = random.Random(ctx.seed)
    seeds = rng.sample(range(1 << 16), SIM_SEEDS)
    stream = serve_stream(rng, seeds, SERVE_STREAM)
    machine = MACHINES["intel"]()
    local = repro.Simulator(machine)
    compiled: Dict[Tuple[str, int], object] = {}
    ran: Dict[Tuple[str, int, int], Tuple[object, str]] = {}
    scalar_cycles: Dict[Tuple[str, int], float] = {}
    for kernel in ALL_KERNELS:
        for n in SERVE_SIZES:
            program = build_kernel(kernel.name, n)
            result = repro.compile_program(
                program, repro.Variant.GLOBAL_LAYOUT, machine
            )
            compiled[kernel.name, n] = result
            scalar = repro.compile_program(program, repro.Variant.SCALAR, machine)
            scalar_cycles[kernel.name, n] = local.run(scalar.plan)[0].cycles
            for seed in seeds:
                report, memory = local.run(result.plan, seed=seed)
                ran[kernel.name, n, seed] = (report, memory_digest(memory))
    if ctx.perturb:
        compiled[stream[0][1:3]] = None
    run.setup_s = probe_setup(ctx, "serve-mixed")

    store = ctx.out / "store"
    shutil.rmtree(store, ignore_errors=True)
    service = ServiceThread(shards=SERVE_SHARDS, cache_dir=str(store)).start()
    client = ServiceClient(service.url)
    served_keys: set = set()

    def op(request):
        kind, kernel, n, seed = request
        if kind == "compile":
            return client.compile(kernel=kernel, n=n, variant="global+layout")
        return client.simulate(
            kernel=kernel, n=n, variant="global+layout", seed=seed
        )

    def check(request, outcome, traced: bool) -> bool:
        kind, kernel, n, seed = request
        reference = compiled.get((kernel, n))
        if reference is None or outcome.result != reference:
            return False
        if kind == "simulate":
            report, digest = ran[kernel, n, seed]
            if outcome.report != report or memory_digest(outcome.memory) != digest:
                return False
        served_keys.add((kernel, n))
        return True

    try:
        before = client.metrics()
        # One request per pass, so traced and untraced requests alternate.
        closed_loop(ctx, run, ([request] for request in stream), op, check,
                    SERVE_TARGETS)
        after = client.metrics()
    finally:
        client.close()
        service.stop()

    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF) + rss_mb(
        resource.RUSAGE_CHILDREN
    )
    run.cycles_speedup_geomean = statistics.geometric_mean(
        scalar_cycles[key] / ran[key + (seeds[0],)][0].cycles
        for key in served_keys
    )
    issued = stream[: run.attempted]
    seen: set = set()
    repeats = 0
    for kind, kernel, n, seed in issued:
        repeats += (kernel, n) in seen
        seen.add((kernel, n))
    compiles = sum(1 for request in issued if request[0] == "compile")
    run.properties.update(
        requests=len(issued), compile_share=round(ratio(compiles, len(issued)), 4),
        simulate_share=round(1 - ratio(compiles, len(issued)), 4),
        repeat_share=round(ratio(repeats, len(issued)), 4),
        keys_served=len(served_keys),
    )

    def delta(path: Tuple[str, ...]) -> float:
        old, new = before, after
        for part in path:
            old, new = old.get(part, {}), new.get(part, {})
        return float(new or 0) - float(old or 0)

    service_path = ("service",)
    requests = len(run.raw) + len(run.raw_traced)
    for stage in HISTOGRAM_STAGES:
        latency = service_path + ("latency_ms", stage)
        count = delta(latency + ("count",))
        run.timed["service." + stage] = (
            ratio(delta(latency + ("sum_ms",)), requests),
            ratio(count, requests),
        )
    counters = ("perf", "counters")
    run.values.update({
        "store.hit_ratio": ratio(
            delta(counters + ("compile_cache.hits",)),
            delta(counters + ("compile_cache.hits",))
            + delta(counters + ("compile_cache.misses",)),
        ),
        "service.repeat_share": ratio(repeats, len(issued)),
        "service.coalesced": delta(service_path + ("coalesced",)),
        "service.shed": delta(service_path + ("queue", "rejected")),
        "pool.retries": delta(service_path + ("pool", "retries")),
        "pool.crashes": delta(service_path + ("pool", "crashes")),
    })
    return run


# -- cli-cold ----------------------------------------------------------------


def cli_cold(ctx: Context) -> Run:
    """A fresh ``python -m repro compile FILE --quiet`` per op over
    ``examples/*.slp`` and one printed kernel."""
    run = Run()
    rng = random.Random(ctx.seed)
    files = sorted((ctx.root / "examples").glob("*.slp"))
    printed = ctx.out / f"{CLI_KERNEL}.slp"
    printed.write_text(format_program(build_kernel(CLI_KERNEL, COMPILE_N)))
    files.append(printed)
    machine = MACHINES["intel"]()
    expected: Dict[Path, str] = {}
    cycle_ratios = []
    for path in files:
        program = repro.parse_program(path.read_text())
        result = repro.compile_program(program, repro.Variant.GLOBAL, machine)
        report, _ = repro.Simulator(machine).run(result.plan)
        expected[path] = report.summary() + "\n"
        scalar = repro.compile_program(program, repro.Variant.SCALAR, machine)
        cycle_ratios.append(
            repro.Simulator(machine).run(scalar.plan)[0].cycles / report.cycles
        )
    expected[files[0]] = perturbed(ctx, expected[files[0]])
    python = sys.executable

    def spawn(argv, env=ctx.env) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, env=env, cwd=ctx.root, capture_output=True, text=True,
            timeout=120,
        )

    def timed(argv, env=ctx.env) -> Tuple[float, subprocess.CompletedProcess]:
        began = time.perf_counter()
        done = spawn(argv, env)
        return time.perf_counter() - began, done

    def compile_argv(path: Path) -> List[str]:
        return [python, "-m", "repro", "compile", str(path), "--quiet"]

    def fresh_install(index: int) -> float:
        """First CLI call from a copy of the sources with no bytecode."""
        site = ctx.out / f"fresh-{index}"
        shutil.rmtree(site, ignore_errors=True)
        shutil.copytree(
            ctx.root / "src" / "repro", site / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        seconds, done = timed(
            compile_argv(printed), dict(ctx.env, PYTHONPATH=str(site))
        )
        shutil.rmtree(site, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(done.stderr)
        return seconds

    run.setup_s = median_setup(ctx, fresh_install)
    timed(compile_argv(printed))  # fill this checkout's bytecode cache
    probes = {"bare": [], "import": []}

    def op(path: Path):
        return spawn(compile_argv(path))

    def check(path: Path, done, traced: bool) -> bool:
        if traced:
            probes["bare"].append(timed([python, "-c", "pass"])[0])
            probes["import"].append(
                timed([python, "-c", "import repro.cli"])[0]
            )
        return done.returncode == 0 and done.stdout == expected[path]

    # One op per pass, so traced and untraced ops alternate file by file.
    passes = ([path] for order in seeded_passes(rng, files) for path in order)
    closed_loop(ctx, run, passes, op, check, (), calibrations=3)
    run.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)
    run.cycles_speedup_geomean = statistics.geometric_mean(cycle_ratios)
    run.properties.update(files=len(files))
    if run.raw_traced:
        bare = statistics.fmean(probes["bare"]) * 1e3
        imported = statistics.fmean(probes["import"]) * 1e3
        op_ms = statistics.fmean(ms for _, ms in run.raw_traced)
        run.timed.update({
            "cli.interpreter": (bare, 1.0),
            "cli.import": (imported - bare, 1.0),
            "cli.work": (op_ms - imported, 1.0),
            # The three layers above partition the op by construction.
            "op.unlabeled": (0.0, 1.0),
        })
    return run


WORKLOADS = {
    "compile-suite": compile_suite,
    "simulate-large": simulate_large,
    "serve-mixed": serve_mixed,
    "cli-cold": cli_cold,
}
