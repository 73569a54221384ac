"""A fixed CPU kernel that measures how fast this machine runs right now.

On shared hosts the speed of a core drifts by up to 1.7x over minutes, and
process CPU time drifts with it. run.py times this kernel throughout each
run and reports times in reference-speed seconds (`to_reference`), which
cancels most of the drift between runs. The kernel
mixes the kinds of work markovlab spends its time in: extended-precision
matrix-vector products, float64 vector maths and interpreted Python loops.
It runs no markovlab code, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel_s() on a 2-core Intel Xeon host (Python 3.11, numpy 2.4).
# It only fixes the scale of the reported seconds.
REF_S = 0.025

# How strongly markovlab's run times follow the kernel's. The kernel slows
# more than markovlab's mix when the host is busy, so the full ratio
# over-corrects. Rescoring one set of 10 runs per workload, the run-to-run
# spread (IQR/median) of wall_s for factor-sweeps, extremal-sweeps and
# verify was 13%, 8.5% and 15% unscaled, 2.8%, 4.9% and 9.3% with
# exponent 1, and 3.9%, 2.9% and 5.8% with 0.8.
ELASTICITY = 0.8

_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal((96, 96)) / 10.0).astype(np.longdouble)
_V = _RNG.standard_normal(96).astype(np.longdouble)
# Small, preallocated arrays: the kernel must not raise the peak RSS that
# run.py reports for the program.
_X = np.linspace(0.0, 1.0, 20_000)
_B1, _B2 = np.empty_like(_X), np.empty_like(_X)


def _once() -> float:
    t0 = perf_counter()
    w = _V
    for _ in range(160):
        w = _A @ w
        w = w / np.abs(w).max()
    for _ in range(20):
        np.cos(_X, out=_B1)
        np.sin(np.multiply(_X, 3.0, out=_B2), out=_B2)
        np.multiply(_B1, _B2, out=_B1)
        np.add(_B1, np.power(_X, 5, out=_B2), out=_B1)
    s = 0
    for i in range(140_000):
        s += i * i % 7
    return perf_counter() - t0


def kernel_s() -> float:
    """Median seconds of three runs of the kernel."""
    return sorted(_once() for _ in range(3))[1]


def to_reference(seconds: float, kernel: float) -> float:
    """`seconds` measured while the kernel took `kernel` seconds, scaled to
    the speed at which it takes REF_S."""
    return seconds * (REF_S / kernel) ** ELASTICITY
