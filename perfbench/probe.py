"""One set-up of a workload in a fresh interpreter; prints its seconds.

Run as ``python3 perfbench/probe.py <workload> <scratch dir>`` with
``PYTHONPATH`` naming the program's ``src`` directory. The clock starts
before the first ``repro`` import, so module import and whatever the
workload's user must prepare before the first op are both counted.
Building the benchmark's own inputs is excluded.
"""

from __future__ import annotations

import sys
import time


def compile_suite(scratch: str) -> float:
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.vm import MACHINES

    MACHINES["intel"]()
    return time.perf_counter() - started


def simulate_large(scratch: str) -> float:
    started = time.perf_counter()
    import repro
    from repro.vm import MACHINES, load_plan_kernels

    imported = time.perf_counter() - started
    from repro.bench import ALL_KERNELS

    programs = [k.build(4096) for k in ALL_KERNELS]
    started = time.perf_counter()
    machine = MACHINES["intel"]()
    for program in programs:
        result = repro.compile_program(
            program, repro.Variant.GLOBAL_LAYOUT, machine
        )
        load_plan_kernels(result.plan, result.machine)
    return imported + time.perf_counter() - started


def serve_mixed(scratch: str) -> float:
    started = time.perf_counter()
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceThread

    service = ServiceThread(shards=2, cache_dir=scratch).start()
    try:
        ServiceClient(service.url).healthz()
        return time.perf_counter() - started
    finally:
        service.stop()


PROBES = {
    "compile-suite": compile_suite,
    "simulate-large": simulate_large,
    "serve-mixed": serve_mixed,
}


if __name__ == "__main__":
    print(PROBES[sys.argv[1]](sys.argv[2]))
