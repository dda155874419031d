"""A fixed calibration loop in its own process, to factor out machine speed.

On a shared two-core host, identical work was measured to take from 0.7x
to 1.4x its median time, in phases that last a second or more, and the
two cores' speeds were barely correlated (r = 0.24 over half-second
buckets). The :class:`Calibrator` times a fixed loop of dictionary work
and a 1 MiB copy in a separate process that does not import the program.
It runs during pauses in the measured work, on the CPU the work is
pinned to, so nothing the program does can speed it up or slow it down.
Each timing the benchmark reports is scaled by ``NOMINAL_S / c``, where
``c`` is the median of the calibration samples taken nearest in time. A value
is then in *calibrated* seconds: what it would take if the loop ran in
exactly ``NOMINAL_S``. The raw wall-clock figures are printed next to
the result.

Run as a script, this module is the calibration process itself. It
answers each line on stdin with the loop's time in seconds; it inherits
the CPU pinning of the process that starts it.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

#: The loop's time on the reference scale: calibrated seconds = raw
#: seconds * NOMINAL_S / (measured loop time).
NOMINAL_S = 0.002
#: Calibration samples that set the factor at one instant.
NEAREST = 15


def _loop(buffer: bytearray) -> float:
    began = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    sorted(table.items(), key=lambda item: -item[1])
    bytes(buffer).count(7)
    return time.perf_counter() - began


def serve() -> None:
    """One sample per stdin line: the loop's time."""
    buffer = bytearray(range(256)) * 4096
    for _ in sys.stdin:
        print(_loop(buffer), flush=True)


class Calibrator:
    """Client of the calibration process; samples are (time, seconds)."""

    def __init__(self, env) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        self.times: List[float] = []
        self.seconds: List[float] = []
        self.sample(3)  # the first loops warm the process up
        self.times.clear()
        self.seconds.clear()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._process.stdin.write("\n")
            self._process.stdin.flush()
            seconds = float(self._process.stdout.readline())
            self.times.append(time.perf_counter())
            self.seconds.append(seconds)

    def factor(self, at: float) -> float:
        """``NOMINAL_S`` over the median of the samples nearest ``at``."""
        index = bisect.bisect_left(self.times, at)
        low = max(0, min(index - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(
            self.seconds[low:low + NEAREST]
        )

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait(timeout=30)
        self._process.stdout.close()


if __name__ == "__main__":
    serve()
