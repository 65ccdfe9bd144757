"""Closed-form regression suite: every acceptance check, no golden files.

Each check compares pipeline output against independently coded closed-form
expressions or module invariants and reports the worst deviation, taken with
one NaN-propagating maximum, so a non-finite deviation fails its check.

1-3. Sweeps of `ps`, `sigma` and `horodecki` over each family's whole
     `FAMILIES` range: criteria 1 and 2 compare every measure that has a
     closed form with it at every point, at `TOL`, and criterion 3 checks
     that K and N vanish and 0 <= D <= D_G.
4.   Every measure vanishes on generic classical states.
5.   G, K, N and D_G are local-unitary invariant (D_G where the marginals
     are nondegenerate).
6.   D_G is additive and G subadditive on product states.
7.   G equals `naive_measure_G`, value and witness, bit for bit.
8.   A repeated sweep, and one at another chunk size, is byte-identical.
9.   D of Bell-diagonal states in random local frames equals its closed form.
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
from .sweep import FAMILIES, MEASURE_ORDER, SweepSpec, csv_text, evaluate_point, sweep_rows

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


def _worst(devs) -> float:
    """The largest deviation (0.0 if none); any NaN makes it NaN, which fails every bound."""
    return float(np.max(devs)) if len(devs) else 0.0


def _dev_check(name: str, devs, tol: float) -> Check:
    worst = _worst(devs)
    return Check(name, worst <= tol, f"max deviation {worst:.3e} (tol {tol:.1e})")


def _family_rows(family: str, steps: int, cfg: SearchConfig) -> List[Tuple[float, Dict[str, float]]]:
    """All five measures at `steps` points over the family's whole `FAMILIES` range."""
    _, lo, hi = FAMILIES[family]
    return sweep_rows(SweepSpec(family, lo, hi, steps, search=cfg))


def _closed_form_checks(n: int, family: str, rows, closed_forms) -> List[Check]:
    """One check per measure that `closed_forms(p)` gives, over every row of the sweep."""
    forms = [closed_forms(p) for p, _ in rows]
    return [
        _dev_check(f"criterion-{n} {family} sweep {m} vs closed form",
                   [abs(vals[m] - cf[m]) for (_, vals), cf in zip(rows, forms)], TOL)
        for m in forms[0]
    ]


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
    rows = _family_rows("ps", 101, cfg)
    elapsed = time.perf_counter() - t0
    at0, at1 = rows[0][1], rows[-1][1]
    spot = [abs(v) for v in at0.values()]
    spot += [abs(at1[m] - v) for m, v in (("D", 1.0), ("DG", 1.0), ("G", 1.0), ("K", 2.0), ("N", 0.5))]
    return _closed_form_checks(1, "ps", rows, _ps_closed_forms) + [
        _dev_check("criterion-1 spot values at p=0 and p=1", spot, TOL),
        Check("criterion-1 runtime", elapsed <= 120.0,
              f"{elapsed:.1f}s for 101 points at {cfg.n_samples} samples (limit 120s)"),
    ], csv_text(rows)


# ---------------------------------------------------------------- criterion 2


def _sigma_K(p: float) -> float:
    if p <= 1.0 / 6.0:
        return 4 * p
    if p <= 0.25:
        return 2 - 8 * p
    return 8 * p - 2


def _sigma_closed_forms(p: float) -> dict:
    return {
        "G": min(1 - binary_entropy(p + 0.5), 1 - binary_entropy(2 * p)),
        "DG": 2 * s(p) - s(2 * p),
        "K": _sigma_K(p),
        "N": abs(min(0.0, 0.5 - 2 * p)),
    }


def criterion_2(cfg: SearchConfig) -> List[Check]:
    rows = _family_rows("sigma", 101, cfg)
    d_ok = all(-1e-9 <= vals["D"] <= vals["DG"] + 1e-9 for _, vals in rows)
    sep_ok = all((vals["N"] <= TOL) if p <= 0.25 else (vals["N"] > TOL) for p, vals in rows)
    return _closed_form_checks(2, "sigma", rows, _sigma_closed_forms) + [
        Check("criterion-2 sigma D bounded by D_G", d_ok, "0 <= D <= D_G + 1e-9 at all 101 points"),
        Check("criterion-2 sigma N nonzero exactly for p > 1/4", sep_ok, "PPT boundary at p = 1/4"),
    ]


# ---------------------------------------------------------------- criterion 3


def criterion_3(cfg: SearchConfig) -> List[Check]:
    rows = _family_rows("horodecki", 51, cfg)
    kn_dev = _worst([vals[m] for _, vals in rows for m in ("K", "N")])
    valid_ok = all(states.validate(states.make_horodecki(b)).passed for b, _ in rows)
    b0_dev = _worst([abs(v) for v in rows[0][1].values()])
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
    devs = []
    for i in range(100):
        rho = _generic_classical_state((2, 2) if i % 2 == 0 else (2, 3), 1000 + i)
        vals = evaluate_point(rho, MEASURE_ORDER, cfg, measures.DEFAULT_PARTITION_CAP)
        devs += [abs(v) for v in vals.values()]
    worst = _worst(devs)
    return [Check("criterion-4 all measures vanish on classical states", worst <= 1e-8,
                  f"max |measure| {worst:.3e} over 100 states (tol 1e-8)")]


# ---------------------------------------------------------------- criterion 5


def _local_rotate(rho: DensityMatrix, basis: ProductBasis) -> DensityMatrix:
    U = qmat.product_basis_matrix(basis)
    return DensityMatrix(rho.dims, U @ rho.mat @ U.conj().T)


def _min_marginal_gap(rho: DensityMatrix) -> float:
    """Smallest gap between two eigenvalues of any one-subsystem marginal, from the spectra kept on rho."""
    return min(float((-np.diff(w, axis=-1)).min()) for w, _ in qmat.marginal_eigs(rho, vectors=False).values())


def criterion_5() -> List[Check]:
    gkn, dg = [], []
    for i in range(50):
        rho = states.random_density_matrix((2, 2), 4, 2000 + i)
        rho2 = _local_rotate(rho, haar_random_product_basis((2, 2), 3000 + i))
        gkn += [abs(f(rho).value - f(rho2).value)
                for f in (measures.measure_G, measures.measure_K, measures.negativity)]
        if _min_marginal_gap(rho) > 1e-6:
            dg.append(abs(measures.measure_DG(rho).value - measures.measure_DG(rho2).value))
    gkn_worst, dg_worst = _worst(gkn), _worst(dg)
    return [
        Check("criterion-5 local-unitary invariance of G, K, N", gkn_worst <= 1e-8,
              f"max |before - after| {gkn_worst:.3e} over 50 pairs (tol 1e-8)"),
        Check("criterion-5 local-unitary invariance of D_G", dg_worst <= 1e-8,
              f"max |before - after| {dg_worst:.3e} over {len(dg)} nondegenerate pairs (tol 1e-8)"),
    ]


# ---------------------------------------------------------------- criterion 6


def _nondegenerate_two_qubit(seed: int) -> DensityMatrix:
    for i in range(100):
        rho = states.random_density_matrix((2, 2), 4, seed + 10000 * i)
        if _min_marginal_gap(rho) > 1e-3:
            return rho
    raise RuntimeError("could not draw a nondegenerate-marginal state")


def _tensor_excess(measure, a: DensityMatrix, b: DensityMatrix) -> float:
    """measure(a x b) - measure(a) - measure(b)."""
    return measure(states.tensor_state(a, b)).value - measure(a).value - measure(b).value


def criterion_6() -> List[Check]:
    add_devs = [
        abs(_tensor_excess(measures.measure_DG, _nondegenerate_two_qubit(4000 + i), _nondegenerate_two_qubit(5000 + i)))
        for i in range(20)
    ]
    sub_worst = _worst([
        _tensor_excess(measures.measure_G, states.make_pseudo_entangled(float(p)), states.make_sigma(float(q)))
        for p in np.linspace(0.0, 1.0, 5) for q in np.linspace(0.0, 0.5, 5)
    ])
    return [
        _dev_check("criterion-6 D_G additivity on product states", add_devs, 1e-8),
        Check("criterion-6 G subadditivity on ps x sigma grid", sub_worst <= 1e-9,
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
    name = "criterion-7 G matches brute-force enumerator exactly"
    # the qutrit witnesses of (2,3) seeds 6044 and 6047 put eigenvalue 0 in bin 2
    for dims, seed in [((2, 2), 6000 + i) for i in range(20)] + [((2, 3), 6030 + i) for i in range(20)]:
        rho = states.random_density_matrix(dims, math.prod(dims), seed)
        rep = measures.measure_G(rho)
        ref_val, ref_diag = naive_measure_G(rho)
        if rep.value != ref_val:
            return [Check(name, False, f"value mismatch at {dims} seed {seed}: {rep.value!r} vs {ref_val!r}")]
        for part in rep.witness:
            if part.assignment != ref_diag["assignments"][part.k]:
                return [Check(name, False, f"witness mismatch at {dims} seed {seed}, k={part.k}")]
    return [Check(name, True, "exact agreement on 20 random two-qubit and 20 random qubit-qutrit states")]


# ---------------------------------------------------------------- criterion 8


def criterion_8(cfg: SearchConfig, first_csv: str) -> List[Check]:
    repeat = csv_text(_family_rows("ps", 101, cfg))
    alt_cfg = replace(cfg, chunk_size=max(1, cfg.chunk_size // 7 + 1))
    rechunked = csv_text(_family_rows("ps", 101, alt_cfg))
    return [
        Check("criterion-8 repeated sweep is byte-identical", repeat == first_csv,
              "same seed, same flags"),
        Check("criterion-8 sweep invariant under internal batching", rechunked == first_csv,
              f"chunk size {cfg.chunk_size} vs {alt_cfg.chunk_size}"),
    ]


# ---------------------------------------------------------------- criterion 9

# the Bell states' correlation vectors c, the vertices of the tetrahedron of
# Bell-diagonal states (I + sum_i c_i sigma_i x sigma_i) / 4
_BELL_VERTICES = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def criterion_9(cfg: SearchConfig) -> List[Check]:
    """D of Bell-diagonal states, turned by random local unitaries, against its closed form.

    With weights w on the four Bell states, c = w V and c_max = max_i |c_i|,
    the least diagonal entropy over product bases is 1 + h((1 + c_max) / 2)
    and the spectrum is w, so D = 1 + h((1 + c_max) / 2) - S(w).
    """
    devs = []
    for i in range(50):
        w = np.random.default_rng(7000 + i).dirichlet(np.ones(4))
        c = w @ _BELL_VERTICES
        mat = (np.eye(4) + sum(ci * np.kron(P, P) for ci, P in zip(c, _PAULIS))) / 4
        rho = _local_rotate(DensityMatrix((2, 2), mat), haar_random_product_basis((2, 2), 8000 + i))
        exact = 1.0 + binary_entropy((1.0 + float(np.abs(c).max())) / 2) - sum(s(float(x)) for x in w)
        devs.append(abs(measures.measure_D(rho, cfg).value - exact))
    return [_dev_check("criterion-9 D of Bell-diagonal states in random local frames", devs, TOL)]


# --------------------------------------------------------------------- driver


def run_all(cfg: Optional[SearchConfig] = None, seconds: Optional[Dict[str, float]] = None) -> List[Check]:
    """Every check of criteria 1-9 on one config, by default a fresh `SearchConfig()` for this run alone;
    `seconds`, if given, gets each criterion's wall time."""
    cfg = SearchConfig() if cfg is None else cfg
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
    checks.extend(timed(9, criterion_9, cfg))
    return checks
