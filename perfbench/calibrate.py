"""Machine-speed calibration for timings taken on a shared, drifting host.

On the 2-vCPU VMs this benchmark was built on, the host's load moves the
speed of the same code by 25-45% over tens of seconds, so raw medians of runs
a minute apart disagree by more than any useful regression bound. The fix: a
fixed kernel, independent of rydkit, is timed right before and right after
every measured operation, and the operation's wall time is scaled by the
kernel's reference time over the mean of those two kernel times. The result
is the time the operation would take on a machine where the kernel takes its
reference time. Raw wall times are reported next to the scaled ones.

The kernel is of the same kind as the operation it calibrates, because only
then do the two slow down together: starting an interpreter (`python -c
pass`) for CLI calls and set-ups, pure-Python work in-process for warm
operations. Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
import time


def python_kernel_s() -> float:
    """Wall time of a fixed in-process run of float arithmetic, dict stores,
    number formatting and parsing, and a sort."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(55000):
        x = i * 1.0000001
        acc += x * x / (x + 1.0)
        table[i & 2047] = acc
    text = ",".join("{:.17g}".format(v) for v in table.values())
    if sum(float(v) for v in text.split(",")) <= 0.0:
        raise RuntimeError("calibration kernel computed a wrong sum")
    sorted(table.values(), reverse=True)
    return time.perf_counter() - t0


def spawn_kernel_s(env: dict[str, str] | None = None) -> float:
    """Wall time of starting and ending an interpreter that runs nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


# Each kernel's wall time on an idle 2-vCPU x86-64 VM with Python 3.11: the
# speed that scaled times refer to.
PYTHON_REFERENCE_S = 0.012
SPAWN_REFERENCE_S = 0.040


class Timer:
    """Times operations bracketed by runs of a calibration kernel.

    `measure(fn)` returns (fn's result, wall seconds, kernel seconds), the
    kernel time being the mean of the kernel runs just before and just after
    fn; consecutive operations share the kernel run between them.
    `scaled(wall, kernel)` is the wall time at the kernel's reference speed.
    """

    def __init__(self, kernel, reference_s: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self._before = kernel()

    def measure(self, fn):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = self.kernel()
        kernel = (self._before + after) / 2.0
        self._before = after
        return result, elapsed, kernel

    def scaled(self, wall: float, kernel: float) -> float:
        return wall * self.reference_s / kernel


def python_timer() -> Timer:
    return Timer(python_kernel_s, PYTHON_REFERENCE_S)


def spawn_timer(env: dict[str, str]) -> Timer:
    return Timer(lambda: spawn_kernel_s(env), SPAWN_REFERENCE_S)
