"""The repository's benchmark: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-suite --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics instead.
Every output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. See README.md in this
directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Span-timed and probe-timed layers. Each prints ``<name>_ms`` (self
#: time per op), ``<name>.calls`` (calls per op) and ``<name>.share``
#: (self time over op time).
TIMED_LAYERS = (
    "ir.parse",
    "transform.if_convert",
    "transform.unroll",
    "analysis.dependence",
    "slp.candidates",
    "slp.vp_build",
    "slp.grouping",
    "slp.scheduling",
    "layout.scalar",
    "layout.array",
    "vm.codegen",
    "compile.self",
    "vm.memory_init",
    "vm.engine_prepare",
    "vm.cache_replay",
    "vm.run_self",
    "service.round_trip",
    "service.unpickle",
    "service.parse",
    "service.queue_wait",
    "service.execute",
    "service.total",
    "service.client_overhead",
    "cli.interpreter",
    "cli.import",
    "cli.work",
    "op.unlabeled",
)

#: Server-side stages of a request; they break ``service.round_trip``
#: down rather than add to the client's self times.
SERVER_STAGES = {
    "service.parse", "service.queue_wait", "service.execute",
    "service.total", "service.client_overhead",
}

#: Per-layer ratios and counts, with their units.
VALUE_LAYERS = {
    "slp.grouped_fraction": "ratio",
    "slp.score_cache_hit_ratio": "ratio",
    "layout.replications": "1/op",
    "compile.blocks_vectorized_ratio": "ratio",
    "vm.cache_miss_ratio": "ratio",
    "vm.compiled_fallback_ratio": "ratio",
    "vm.kernel_memo_hit_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "service.repeat_share": "ratio",
    "service.coalesced": "count",
    "service.shed": "count",
    "pool.retries": "count",
    "pool.crashes": "count",
    "trace.overhead_ratio": "x",
}


def latencies(run, calibrator) -> dict:
    """Calibrated and raw op latencies, and the mean calibration factors."""
    factor = calibrator.factor
    untraced = [factor(start) for start, _ in run.raw]
    traced = [factor(start) for start, _ in run.raw_traced]
    return {
        "raw": [ms for _, ms in run.raw],
        "untraced": [ms * f for (_, ms), f in zip(run.raw, untraced)],
        "traced": [ms * f for (_, ms), f in zip(run.raw_traced, traced)],
        "factor": statistics.fmean(untraced),
        "traced_factor": statistics.fmean(traced) if traced else 0.0,
    }


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(run, lat) -> dict:
    samples = lat["untraced"]
    return {
        "op_ms_p50": (statistics.median(samples), "ms"),
        "op_ms_p90": (p90(samples), "ms"),
        "ops_per_s": (len(samples) / (run.window_s * lat["factor"]), "1/s"),
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "success_rate": (1.0 - run.failed / run.attempted, "ratio"),
        "cycles_speedup_geomean": (run.cycles_speedup_geomean, "x"),
    }


def per_layer(run, tracer, lat) -> dict:
    """Shares come from raw times; milliseconds are calibrated with the
    traced ops' mean factor."""
    self_s, calls, op_seconds = tracer.fold()
    ops = len(op_seconds)
    op_ms = sum(op_seconds) * 1e3 / ops
    scale = lat["traced_factor"]
    metrics = {}
    for name in TIMED_LAYERS:
        if name in run.timed:
            ms, per_op = run.timed[name]
        elif name == "service.client_overhead" and "service.total" in run.timed:
            ms = self_s["service.round_trip"] * 1e3 / ops
            ms -= run.timed["service.total"][0]
            per_op = 1.0
        else:
            span = "op" if name == "op.unlabeled" else name
            ms = self_s.get(span, 0.0) * 1e3 / ops
            per_op = calls.get(span, 0) / ops
        metrics[name + "_ms"] = (ms * scale, "ms")
        metrics[name + ".calls"] = (per_op, "1/op")
        metrics[name + ".share"] = (ms / op_ms, "ratio")
    values = dict(run.values)
    values["trace.overhead_ratio"] = statistics.median(
        lat["traced"]
    ) / statistics.median(lat["untraced"])
    for name, unit in VALUE_LAYERS.items():
        metrics[name] = (values.get(name, 0.0), unit)
    accounted = sum(
        metrics[name + "_ms"][0]
        for name in TIMED_LAYERS if name not in SERVER_STAGES
    )
    print(
        f"# accounting: layer self times plus op.unlabeled = {accounted} ms "
        f"per traced op; traced op mean {op_ms * scale} ms; untraced op "
        f"mean {statistics.fmean(lat['untraced'])} ms"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--perturb", action="store_true",
        help="corrupt one expected output (the smoke test's error check)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    from calibration import Calibrator
    from tracer import Tracer
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    out = ROOT / ".bench_run" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tracer = Tracer() if args.trace else None
    # Only one process works at a time, so the run is pinned to one CPU;
    # every process it starts inherits the pinning, the calibration
    # process included.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrator = Calibrator(env)
    try:
        ctx = Context(
            root=ROOT, out=out, seed=args.seed, seconds=args.seconds,
            tracer=tracer, calibrator=calibrator, perturb=args.perturb,
            env=env,
        )
        run = WORKLOADS[args.workload](ctx)
        lat = latencies(run, calibrator)
    finally:
        calibrator.close()

    raw = lat["raw"]
    print(f"# workload: {args.workload} seed={args.seed}")
    print(
        f"# untraced ops: {len(raw)} "
        f"({sum(1 for ms in raw if ms > p90(raw))} beyond p90)"
    )
    print(
        f"# wall clock: op_ms_p50 {statistics.median(raw)}, op_ms_p90 "
        f"{p90(raw)}, ops_per_s {len(raw) / run.window_s}"
    )
    print(
        f"# calibration: {len(calibrator.seconds)} samples, median "
        f"{statistics.median(calibrator.seconds) * 1e3} ms, mean factor "
        f"{lat['factor']}"
    )
    if tracer is not None:
        print(f"# traced ops: {len(run.raw_traced)}")
        spans = out / "spans.jsonl"
        tracer.write_jsonl(spans)
        print(f"# spans: {len(tracer.spans)} written to {spans}")
    print(f"# error_rate: {run.failed / run.attempted}")
    for name, value in run.properties.items():
        print(f"# {name}: {value}")
    metrics = (
        per_layer(run, tracer, lat) if tracer is not None
        else end_to_end(run, lat)
    )
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
