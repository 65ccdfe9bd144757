"""A fixed calibration kernel that gauges the machine's current speed.

On a shared host one core's throughput drifts by up to 2x over tens of
seconds, and a spell can last a whole run.  The benchmark times this kernel
right after every op and scales the op's time by how much slower or faster
than REFERENCE_S the kernel ran around it.  The reported times are then the
times on the reference machine at its usual speed.

The kernel uses numpy only, never nccorr, so a change to the library moves
the op times and leaves the kernel alone.  Its work mirrors the two kinds the
library does: a memory-bound batched einsum over a stack of 8x8 matrices,
like the D search's diagonal-entropy kernel, and an interpreter-bound loop of
numpy scalar reads and writes on one small matrix, like the Jacobi
eigensolver, plus a few small LAPACK calls.
"""
from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

# median kernel time on the reference machine, a 2-core x86-64 VM with BLAS
# pinned to one thread
REFERENCE_S = 0.0090
# ops on each side of an op whose kernel times set its speed factor
WINDOW = 8
# the share of a slowdown of the kernel that the ops suffer too.  Over 20
# runs per workload on the reference VM, log op time against log kernel time
# had slopes of about 0.6 (sweep-families, measure-cold) and 1.0
# (spectral-multipartite); 0.85 gave the smallest spreads over all three
TRACKING = 0.85


class Kernel:
    """Fixed inputs, built once; `run()` times one pass over them."""

    STACK = 1024
    DIM = 8
    SCALAR_SWEEPS = 20
    SMALL_CALLS = 24

    def __init__(self) -> None:
        rng = np.random.default_rng(20080215)
        d = self.DIM
        self.stack = rng.standard_normal((self.STACK, d, d)) + 1j * rng.standard_normal((self.STACK, d, d))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        self.rho = g @ g.conj().T
        self.small = [rng.standard_normal((4, 4)) for _ in range(self.SMALL_CALLS)]
        self.run()

    def _bulk(self) -> float:
        B = self.stack
        M = np.einsum("ik,skc->sic", self.rho, B)
        P = np.einsum("sic,sic->sc", B.conj(), M).real
        P = np.where(P > 0.0, P, 1.0)
        return float((P * np.log2(P)).sum())

    def _scalar(self) -> float:
        A = np.array(self.rho)
        n = self.DIM
        acc = 0.0
        for _ in range(self.SCALAR_SWEEPS):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    h = A[p, q]
                    a = A[p, p].real
                    b = A[q, q].real
                    acc += abs(h) + (b - a)
                    A[p, q] = h * 0.5
                    A[q, p] = A[p, q].conjugate()
        for m in self.small:
            w, _ = np.linalg.eigh(m + m.T)
            acc += float(np.kron(m[:2, :2], m[2:, 2:]).sum()) + float(w[0])
        return acc

    def run(self) -> float:
        """Seconds one pass of the kernel took."""
        t0 = time.perf_counter()
        self._bulk()
        self._scalar()
        return time.perf_counter() - t0


def speed_factors(kernel_s: Sequence[float], window: int = WINDOW) -> List[float]:
    """How many times slower than the reference the machine ran around each op.

    Entry i is the median of the kernel times from op i - window to op
    i + window, over REFERENCE_S, to the power TRACKING.  The median drops a
    kernel pass that a scheduler hiccup slowed; the window follows drifts
    lasting seconds.
    """
    n = len(kernel_s)
    return [
        (statistics.median(kernel_s[max(0, i - window) : i + window + 1]) / REFERENCE_S) ** TRACKING
        for i in range(n)
    ]


def scaled(seconds: Sequence[float], kernel_s: Sequence[float]) -> List[float]:
    """Each op's seconds at the reference machine's speed."""
    return [s / f for s, f in zip(seconds, speed_factors(kernel_s))]
