"""Reference kernels that measure how fast the machine runs at the moment.

On a shared host the speed of one core drifts by 25-35 % in phases that
last minutes (a fixed pure-Python loop reads 16 ms in one phase and 25 ms in
the next), longer than one run of the benchmark, so the wall time of a pass
differs between runs by as much as the largest bound the benchmark may
fix.  Each workload therefore names the kernel below that does its kind of
work; the run times that kernel before every pass and after the last, and
the gated time metrics are pass times divided by the mean kernel time
around them.
A pass and its kernel see the same phase, so the drift cancels in the
ratio.

The kernels use only the standard library and numpy, never
restriction_lab: a change to the package moves a normalized metric by the
same factor as it moves the pass's wall time.  Each allocates only what it
frees on return, so the peak memory of a run is the workload's own.
"""

from __future__ import annotations

import functools
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REPS, MIN_SECONDS = 3, 0.1  # a measurement times at least this many calls and seconds


def small_fractions() -> int:
    """Interpreter-bound: sums and comparisons of small-denominator Fractions."""
    hits = 0
    half = Fraction(1, 2)
    for i in range(1, 700):
        a, b = Fraction(i % 97 + 1, i % 89 + 2), Fraction(i % 13 + 1, i % 24 + 1)
        if a + b > 2 * b - half or max(a, b) == 1 / (a + 1):
            hits += 1
    return hits


def big_fractions() -> Fraction:
    """A Fraction sum whose denominator grows: big-int products and gcds."""
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(i % 97 + 1, i % 89 + 2)
    return total


def stream() -> complex:
    """Memory-bound: complex products streamed through 32 MB arrays."""
    z = np.full(1 << 21, 1.0 + 1.0j)
    return complex((z * z).sum())


def python_kernel() -> None:
    """Exact arithmetic on rationals, as the exact layers do it."""
    small_fractions()
    big_fractions()


def mixed_kernel() -> None:
    """Interpreter work and memory traffic, for the numpy workloads."""
    small_fractions()
    stream()


# Chosen by probes that timed six candidate kernels between the passes of
# exact-mix, knapp-grid and cli-suite for five minutes each, then by runs:
# over five 25-second runs the spread of the median pass time fell from
# 13 % to 2 % on exact-mix (python) and from 14 % to 4 % on knapp-grid
# (mixed).  No candidate tracked cli-suite or l2-endpoint clearly better
# than mixed.
KERNELS = {"python": python_kernel, "mixed": mixed_kernel}


def reference_seconds(name: str) -> float:
    """Median wall time of the named kernel over REPS calls, or over
    MIN_SECONDS of calls if that is more."""
    kernel = KERNELS[name]
    times = []
    while len(times) < REPS or sum(times) < MIN_SECONDS:
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


_spent = [0.0]  # seconds all Samplers have spent sampling


def sampling_seconds() -> float:
    """Seconds spent sampling so far; timers subtract what elapsed in their span."""
    return _spent[0]


class Sampler:
    """The reference samples of one run, each with its start and end."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.points: list[tuple[float, float, float]] = []  # (start, end, ref seconds)

    def sample(self) -> None:
        start = perf_counter()
        ref = reference_seconds(self.kernel)
        end = perf_counter()
        self.points.append((start, end, ref))
        _spent[0] += end - start

    def mean_ref(self, first: int, last: int) -> float:
        """Reference seconds over the work done between samples ``first``
        and ``last``: each gap between samples weighs the mean of its two
        ends by its length."""
        points = self.points[first : last + 1]
        total = weighted = 0.0
        for (_, end, ref0), (start, _, ref1) in zip(points, points[1:]):
            total += start - end
            weighted += (start - end) * (ref0 + ref1) / 2
        return weighted / total

    def wrap(self, name, fn, size=None):
        """``fn`` wrapped to take a sample after every call.  It has the
        signature of ``spans.Recorder.wrap``, so ``spans.instrument``
        installs it for a block and restores the original afterwards."""

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.sample()
            return out

        return sampled
