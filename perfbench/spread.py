"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--workload NAME ...]

Runs the benchmark once per seed (1..runs) for each workload, for
``run_seconds`` each, then prints, per metric, the median and the
spread: the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median. A spread
under a third of the metric's bound in ``BENCHMARK.json`` is marked
``ok``, and the exit status is 1 if any is not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / spec["command"][1]),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"  {name:24s} median {median:12.5g}  spread "
                  f"{spread:7.2%}  bound {bounds[name]:.3f}  "
                  f"{'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
