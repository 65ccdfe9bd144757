"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed when constructed (the
set-up the benchmark times), then serves op i through `op(i)`, the only call
the closed loop times.  `values` and `check` run after the timed loop.  Ops
cycle through `cycle` input types; `expected_op_s` is the mean op time
measured on a 2-core x86-64 VM, which turns --seconds into an op count.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List

import numpy as np

from nccorr import cli, measures, states, sweep
from nccorr.search import SearchConfig

import reference

# seeds of distinct inputs within one run are seed * SEED_STRIDE + index
SEED_STRIDE = 100_000
RANDOM_DIMS = ((2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2))


class SweepFamilies:
    """One op is one point of the ps, sigma or horodecki sweep, all five
    measures at production search settings on a warm sample cache."""

    name = "sweep-families"
    cycle = 3
    expected_op_s = 0.16
    FAMILY_ORDER = ("ps", "sigma", "horodecki")
    GRID_STEPS = 101
    # coprime with GRID_STEPS, so every prefix of the visiting order spreads
    # over the whole parameter range instead of its low end
    GRID_STRIDE = 37

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cfg = SearchConfig(seed=seed)
        self.grids = {
            fam: np.linspace(lo, hi, self.GRID_STEPS) for fam, (_, lo, hi) in sweep.FAMILIES.items()
        }
        # one point per family fills the sample cache for (2,2) and (2,4),
        # as the first point of a real sweep does
        for fam in self.FAMILY_ORDER:
            self._evaluate(fam, float(self.grids[fam][0]))

    def point(self, i: int):
        fam = self.FAMILY_ORDER[i % 3]
        j = (i // 3) * self.GRID_STRIDE % self.GRID_STEPS
        return fam, float(self.grids[fam][j])

    def _evaluate(self, fam: str, p: float) -> Dict[str, float]:
        ctor = sweep.FAMILIES[fam][0]
        return sweep.evaluate_point(
            ctor(p), sweep.MEASURE_ORDER, self.cfg, measures.DEFAULT_PARTITION_CAP
        )

    def op(self, i: int):
        return self._evaluate(*self.point(i))

    def values(self, i: int, raw) -> Dict[str, float]:
        return raw

    def check(self, i: int, vals: Dict[str, float]) -> List[str]:
        return reference.check_family_point(*self.point(i), vals)


class MeasureCold:
    """One op is an in-process `nccorr measure <state.json> --seed <s>` on a
    stored random state, with a new search seed so samples are generated cold."""

    name = "measure-cold"
    cycle = len(RANDOM_DIMS)
    expected_op_s = 1.2
    POOL = 8 * len(RANDOM_DIMS)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.states = []
        self.paths = []
        for i in range(self.POOL):
            dims = RANDOM_DIMS[i % len(RANDOM_DIMS)]
            rho = states.random_density_matrix(dims, math.prod(dims), seed * SEED_STRIDE + i)
            path = workdir / f"state-{i:03d}.json"
            states.store_state(rho, path)
            self.states.append(rho)
            self.paths.append(str(path))

    def op(self, i: int):
        argv = ["measure", self.paths[i % self.POOL], "--seed", str(self.seed * SEED_STRIDE + i)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def values(self, i: int, raw) -> Dict[str, float]:
        code, text = raw
        if code != 0:
            raise RuntimeError(f"nccorr measure exited with {code}")
        return {m: report["value"] for m, report in json.loads(text).items()}

    def check(self, i: int, vals: Dict[str, float]) -> List[str]:
        rho = self.states[i % self.POOL]
        return reference.check_random_state(rho.mat, rho.dims, vals)


class SpectralMultipartite:
    """One op is G, D_G, K and N through the library on one random state of
    full rank or rank 2; the D search does not run."""

    name = "spectral-multipartite"
    TYPES = tuple((dims, rank) for dims in RANDOM_DIMS for rank in (math.prod(dims), 2))
    cycle = len(TYPES)
    expected_op_s = 0.22
    POOL = 8 * len(TYPES)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.states = []
        for i in range(self.POOL):
            dims, rank = self.TYPES[i % len(self.TYPES)]
            self.states.append(states.random_density_matrix(dims, rank, seed * SEED_STRIDE + i))

    def op(self, i: int):
        rho = self.states[i % self.POOL]
        return {
            "G": measures.measure_G(rho).value,
            "DG": measures.measure_DG(rho).value,
            "K": measures.measure_K(rho).value,
            "N": measures.negativity(rho).value,
        }

    def values(self, i: int, raw) -> Dict[str, float]:
        return raw

    def check(self, i: int, vals: Dict[str, float]) -> List[str]:
        rho = self.states[i % self.POOL]
        return reference.check_random_state(rho.mat, rho.dims, vals)


WORKLOADS = {w.name: w for w in (SweepFamilies, MeasureCold, SpectralMultipartite)}


def d_bound(vals: Dict[str, float]) -> float:
    """The tightest upper bound on D an op reports: D where it searches, else D_G."""
    return vals["D"] if "D" in vals else vals["DG"]
