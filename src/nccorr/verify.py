"""Closed-form regression suite: every acceptance check, no golden files.

Each check compares pipeline output against independently coded closed-form
expressions or module invariants and reports the worst deviation.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import DensityMatrix, ProductBasis
from . import measures, qmat, states
from .search import SearchConfig, haar_random_product_basis
from .sweep import MEASURE_ORDER, SweepSpec, csv_text, evaluate_point, run_sweep, sweep_rows

# the pinned tolerance of the closed-form sweep checks (criteria 1-3)
TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def s(x: float) -> float:
    """-x log2 x with s(0) = 0."""
    return 0.0 if x <= 0.0 else -x * math.log2(x)


def binary_entropy(x: float) -> float:
    return s(x) + s(1.0 - x)


def _dev_check(name: str, devs, tol: float) -> Check:
    worst = max(devs) if devs else 0.0
    return Check(name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.1e})")


# ---------------------------------------------------------------- criterion 1


def _ps_closed_forms(p: float) -> dict:
    return {
        "D": 2 * s((1 + p) / 4) - s((1 - p) / 4) - s((1 + 3 * p) / 4),
        "G": 1.0 - binary_entropy((1 + p) / 2),
        "DG": 2 * s((1 + p) / 4) - s((1 - p) / 4) - s((1 + 3 * p) / 4),
        "K": 2 * p,
        "N": abs(min(0.0, (1 - 3 * p) / 4)),
    }


def criterion_1(cfg: SearchConfig) -> Tuple[List[Check], str]:
    t0 = time.perf_counter()
    spec = SweepSpec("ps", 0.0, 1.0, 101, search=cfg)
    rows = sweep_rows(spec)
    elapsed = time.perf_counter() - t0
    devs = {m: [] for m in MEASURE_ORDER}
    for p, vals in rows:
        cf = _ps_closed_forms(p)
        for m in devs:
            devs[m].append(abs(vals[m] - cf[m]))
    checks = [
        _dev_check(f"criterion-1 ps sweep {m} vs closed form", devs[m], TOL)
        for m in MEASURE_ORDER
    ]
    at0 = rows[0][1]
    at1 = rows[-1][1]
    spot_dev = max(
        max(abs(v) for v in at0.values()),
        abs(at1["D"] - 1.0),
        abs(at1["DG"] - 1.0),
        abs(at1["G"] - 1.0),
        abs(at1["K"] - 2.0),
        abs(at1["N"] - 0.5),
    )
    checks.append(
        Check(
            "criterion-1 spot values at p=0 and p=1",
            spot_dev <= TOL,
            f"max deviation {spot_dev:.3e} (tol {TOL:.1e})",
        )
    )
    checks.append(
        Check(
            "criterion-1 runtime",
            elapsed <= 120.0,
            f"{elapsed:.1f}s for 101 points at {cfg.n_samples} samples (limit 120s)",
        )
    )
    return checks, csv_text(rows)


# ---------------------------------------------------------------- criterion 2


def _sigma_K(p: float) -> float:
    if p <= 1.0 / 6.0:
        return 4 * p
    if p <= 0.25:
        return 2 - 8 * p
    return 8 * p - 2


def criterion_2(cfg: SearchConfig) -> List[Check]:
    spec = SweepSpec("sigma", 0.0, 0.5, 101, search=cfg)
    rows = sweep_rows(spec)
    devs = {m: [] for m in ("G", "DG", "K", "N")}
    d_ok = True
    sep_ok = True
    for p, vals in rows:
        devs["G"].append(abs(vals["G"] - min(1 - binary_entropy(p + 0.5), 1 - binary_entropy(2 * p))))
        devs["DG"].append(abs(vals["DG"] - (2 * s(p) - s(2 * p))))
        devs["K"].append(abs(vals["K"] - _sigma_K(p)))
        devs["N"].append(abs(vals["N"] - abs(min(0.0, 0.5 - 2 * p))))
        d_ok &= -1e-9 <= vals["D"] <= vals["DG"] + 1e-9
        sep_ok &= (vals["N"] <= TOL) if p <= 0.25 else (vals["N"] > TOL)
    checks = [
        _dev_check(f"criterion-2 sigma sweep {m} vs closed form", devs[m], TOL)
        for m in ("G", "DG", "K", "N")
    ]
    checks.append(Check("criterion-2 sigma D bounded by D_G", d_ok, "0 <= D <= D_G + 1e-9 at all 101 points"))
    checks.append(Check("criterion-2 sigma N nonzero exactly for p > 1/4", sep_ok, "PPT boundary at p = 1/4"))
    return checks


# ---------------------------------------------------------------- criterion 3


def criterion_3(cfg: SearchConfig) -> List[Check]:
    spec = SweepSpec("horodecki", 0.0, 1.0, 51, search=cfg)
    rows = sweep_rows(spec)
    kn_dev = max(max(vals["K"], vals["N"]) for _, vals in rows)
    valid_ok = all(states.validate(states.make_horodecki(b)).passed for b, _ in rows)
    b0 = rows[0][1]
    b0_dev = max(abs(v) for v in b0.values())
    bound_ok = all(
        vals["D"] >= -1e-9 and vals["G"] >= -1e-9 and vals["DG"] >= -1e-9
        and vals["D"] <= vals["DG"] + 1e-9
        for _, vals in rows
    )
    return [
        Check("criterion-3 horodecki K and N vanish (PPT)", kn_dev <= TOL,
              f"max K/N {kn_dev:.3e} (tol {TOL:.1e})"),
        Check("criterion-3 horodecki states pass validation", valid_ok, "51 grid points"),
        Check("criterion-3 horodecki b=0 product limit", b0_dev <= 1e-6,
              f"max measure {b0_dev:.3e} (tol 1e-6)"),
        Check("criterion-3 horodecki nonnegativity and D <= D_G", bound_ok, "51 grid points"),
    ]


# ---------------------------------------------------------------- criterion 4


def _generic_classical_state(dims: Tuple[int, ...], seed: int):
    basis = haar_random_product_basis(dims, seed)
    rng = np.random.default_rng([seed, 77])
    for _ in range(500):
        q = rng.random(dims)
        q /= q.sum()
        ok = q.min() > 1e-3
        for ax in range(len(dims)):
            other = tuple(i for i in range(len(dims)) if i != ax)
            marg = np.sort(q.sum(axis=other))
            if marg.size > 1 and np.diff(marg).min() < 0.02:
                ok = False
        if ok:
            return states.make_classically_correlated(basis, q)
    raise RuntimeError("could not draw a generic probability tensor")


def criterion_4(cfg: SearchConfig) -> List[Check]:
    worst = 0.0
    for i in range(100):
        dims = (2, 2) if i % 2 == 0 else (2, 3)
        rho = _generic_classical_state(dims, 1000 + i)
        vals = evaluate_point(rho, MEASURE_ORDER, cfg, measures.DEFAULT_PARTITION_CAP)
        worst = max(worst, max(abs(v) for v in vals.values()))
    return [Check("criterion-4 all measures vanish on classical states", worst <= 1e-8,
                  f"max |measure| {worst:.3e} over 100 states (tol 1e-8)")]


# ---------------------------------------------------------------- criterion 5


def _local_rotate(rho: DensityMatrix, basis: ProductBasis) -> DensityMatrix:
    U = qmat.product_basis_matrix(basis)
    return DensityMatrix(rho.dims, U @ rho.mat @ U.conj().T)


def _min_marginal_gap(rho: DensityMatrix) -> float:
    """Smallest gap between two eigenvalues of any one-subsystem marginal."""
    spectra = (qmat.density_spectrum(qmat.partial_trace(rho, [k])) for k in range(rho.n_subsystems))
    return min(float((-np.diff(w)).min()) for w in spectra)


def criterion_5() -> List[Check]:
    gkn_worst = 0.0
    dg_worst = 0.0
    dg_count = 0
    for i in range(50):
        rho = states.random_density_matrix((2, 2), 4, 2000 + i)
        u = haar_random_product_basis((2, 2), 3000 + i)
        rho2 = _local_rotate(rho, u)
        gkn_worst = max(
            gkn_worst,
            abs(measures.measure_G(rho).value - measures.measure_G(rho2).value),
            abs(measures.measure_K(rho).value - measures.measure_K(rho2).value),
            abs(measures.negativity(rho).value - measures.negativity(rho2).value),
        )
        if _min_marginal_gap(rho) > 1e-6:
            dg_count += 1
            dg_worst = max(dg_worst, abs(measures.measure_DG(rho).value - measures.measure_DG(rho2).value))
    return [
        Check("criterion-5 local-unitary invariance of G, K, N", gkn_worst <= 1e-8,
              f"max |before - after| {gkn_worst:.3e} over 50 pairs (tol 1e-8)"),
        Check("criterion-5 local-unitary invariance of D_G", dg_worst <= 1e-8,
              f"max |before - after| {dg_worst:.3e} over {dg_count} nondegenerate pairs (tol 1e-8)"),
    ]


# ---------------------------------------------------------------- criterion 6


def _nondegenerate_two_qubit(seed: int) -> DensityMatrix:
    for i in range(100):
        rho = states.random_density_matrix((2, 2), 4, seed + 10000 * i)
        if _min_marginal_gap(rho) > 1e-3:
            return rho
    raise RuntimeError("could not draw a nondegenerate-marginal state")


def criterion_6() -> List[Check]:
    add_devs = []
    for i in range(20):
        a = _nondegenerate_two_qubit(4000 + i)
        b = _nondegenerate_two_qubit(5000 + i)
        joint = states.tensor_state(a, b)
        add_devs.append(abs(
            measures.measure_DG(joint).value
            - measures.measure_DG(a).value
            - measures.measure_DG(b).value
        ))
    sub_ok = True
    sub_worst = -math.inf
    for p in np.linspace(0.0, 1.0, 5):
        for q in np.linspace(0.0, 0.5, 5):
            a = states.make_pseudo_entangled(float(p))
            b = states.make_sigma(float(q))
            excess = (
                measures.measure_G(states.tensor_state(a, b)).value
                - measures.measure_G(a).value
                - measures.measure_G(b).value
            )
            sub_worst = max(sub_worst, excess)
            sub_ok &= excess <= 1e-9
    return [
        _dev_check("criterion-6 D_G additivity on product states", add_devs, 1e-8),
        Check("criterion-6 G subadditivity on ps x sigma grid", sub_ok,
              f"max excess {sub_worst:.3e} (tol 1e-9)"),
    ]


# ---------------------------------------------------------------- criterion 7


def naive_measure_G(rho: DensityMatrix) -> Tuple[float, dict]:
    """Brute-force G: plain loops over the same balanced-bin assignments."""
    e_tot = qmat.density_spectrum(rho)
    f_values = {}
    assignments = {}
    for k in range(rho.n_subsystems):
        d = rho.dims[k]
        d_tot = rho.d_tot
        bin_size = d_tot // d
        e_red = qmat.density_spectrum(qmat.partial_trace(rho, [k]))
        s_red = np.float64(0.0)
        for x in e_red:
            if x > 0.0:
                s_red += x * np.log2(x)
        best = None
        best_assign = None
        for idx in range(d ** d_tot):
            digits = [(idx // d ** (d_tot - 1 - j)) % d for j in range(d_tot)]
            if any(digits.count(b) != bin_size for b in range(d)):
                continue
            bins = np.zeros(d)
            for j, dig in enumerate(digits):
                bins[dig] += e_tot[j]
            total = np.float64(0.0)
            for b in range(d):
                x = bins[b]
                if x > 0.0:
                    total += x * np.log2(x)
            val = np.abs(total - s_red)
            if best is None or val < best:
                best = val
                best_assign = tuple(digits)
        f_values[k] = best
        assignments[k] = best_assign
    return float(max(f_values.values())), {"F_k": f_values, "assignments": assignments}


def criterion_7() -> List[Check]:
    ok = True
    detail = "exact agreement on 20 random two-qubit states"
    for i in range(20):
        rho = states.random_density_matrix((2, 2), 4, 6000 + i)
        rep = measures.measure_G(rho)
        ref_val, ref_diag = naive_measure_G(rho)
        if rep.value != ref_val:
            ok = False
            detail = f"value mismatch at seed {6000 + i}: {rep.value!r} vs {ref_val!r}"
            break
        for part in rep.witness:
            if part.assignment != ref_diag["assignments"][part.k]:
                ok = False
                detail = f"witness mismatch at seed {6000 + i}, k={part.k}"
                break
        if not ok:
            break
    return [Check("criterion-7 G matches brute-force enumerator exactly", ok, detail)]


# ---------------------------------------------------------------- criterion 8


def criterion_8(cfg: SearchConfig, first_csv: str) -> List[Check]:
    spec = SweepSpec("ps", 0.0, 1.0, 101, search=cfg)
    repeat = run_sweep(spec)
    alt_cfg = replace(cfg, chunk_size=max(1, cfg.chunk_size // 7 + 1))
    rechunked = run_sweep(SweepSpec("ps", 0.0, 1.0, 101, search=alt_cfg))
    return [
        Check("criterion-8 repeated sweep is byte-identical", repeat == first_csv,
              "same seed, same flags"),
        Check("criterion-8 sweep invariant under internal batching", rechunked == first_csv,
              f"chunk size {cfg.chunk_size} vs {alt_cfg.chunk_size}"),
    ]


# --------------------------------------------------------------------- driver


def run_all(cfg: SearchConfig = SearchConfig(), seconds: Optional[Dict[str, float]] = None) -> List[Check]:
    """Every check of criteria 1-8; `seconds`, if given, gets each criterion's wall time."""
    seconds = {} if seconds is None else seconds

    def timed(n: int, run, *args):
        t0 = time.perf_counter()
        out = run(*args)
        seconds[f"criterion-{n}"] = time.perf_counter() - t0
        return out

    checks: List[Check] = []
    c1, csv1 = timed(1, criterion_1, cfg)
    checks.extend(c1)
    checks.extend(timed(2, criterion_2, cfg))
    checks.extend(timed(3, criterion_3, cfg))
    checks.extend(timed(4, criterion_4, cfg))
    checks.extend(timed(5, criterion_5))
    checks.extend(timed(6, criterion_6))
    checks.extend(timed(7, criterion_7))
    checks.extend(timed(8, criterion_8, cfg, csv1))
    return checks
