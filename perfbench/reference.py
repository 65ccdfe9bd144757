"""Independent references the benchmark checks every op against.

K, N and D_G of random states are recomputed here with numpy's LAPACK
eigensolvers, sharing no code with nccorr.  The family closed forms are the
ones nccorr's verification suite pins.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from nccorr import verify

CLOSED_FORM_TOL = 1e-9
REFERENCE_TOL = 1e-8
BOUND_TOL = 1e-9


def _proper_subsets(m: int) -> List[Tuple[int, ...]]:
    # a splitting and its complement have partial transposes with the same
    # spectrum, so taking every proper subset covers every splitting
    return [s for r in range(1, m) for s in itertools.combinations(range(m), r)]


def partial_transpose(mat: np.ndarray, dims: Sequence[int], side: Sequence[int]) -> np.ndarray:
    m = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    axes = list(range(2 * m))
    for k in side:
        axes[k], axes[m + k] = m + k, k
    d = mat.shape[0]
    return t.transpose(axes).reshape(d, d)


def marginal(mat: np.ndarray, dims: Sequence[int], k: int) -> np.ndarray:
    m = len(dims)
    t = np.moveaxis(mat.reshape(tuple(dims) * 2), (k, m + k), (0, 1))
    d_rest = mat.shape[0] // dims[k]
    t = t.reshape(dims[k], dims[k], d_rest, d_rest)
    return np.trace(t, axis1=2, axis2=3)


def _entropy_bits(p: np.ndarray) -> float:
    p = np.clip(p, 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def k_and_n(mat: np.ndarray, dims: Sequence[int]) -> Tuple[float, float]:
    """Minimum over splittings of the spectral L1 distance and the negativity."""
    ev = np.sort(np.linalg.eigvalsh(mat))
    k_best = n_best = math.inf
    for side in _proper_subsets(len(dims)):
        et = np.sort(np.linalg.eigvalsh(partial_transpose(mat, dims, side)))
        k_best = min(k_best, float(np.sum(np.abs(ev - et))))
        n_best = min(n_best, float(-np.sum(et[et < 0.0])))
    return k_best, n_best


def d_g(mat: np.ndarray, dims: Sequence[int]) -> float:
    """Entropy gained by dephasing in the product of the marginal eigenbases."""
    u = np.eye(1)
    for k in range(len(dims)):
        _, v = np.linalg.eigh(marginal(mat, dims, k))
        u = np.kron(u, v)
    probs = np.real(np.einsum("ic,ij,jc->c", u.conj(), mat, u))
    return _entropy_bits(probs) - _entropy_bits(np.linalg.eigvalsh(mat))


def sigma_closed_forms(p: float) -> Dict[str, float]:
    """The sigma-family closed forms of verification criterion 2."""
    h = verify.binary_entropy
    return {
        "G": min(1 - h(p + 0.5), 1 - h(2 * p)),
        "DG": 2 * verify.s(p) - verify.s(2 * p),
        "K": verify._sigma_K(p),
        "N": abs(min(0.0, 0.5 - 2 * p)),
    }


def _bounded_d(vals: Dict[str, float]) -> List[str]:
    if -BOUND_TOL <= vals["D"] <= vals["DG"] + BOUND_TOL:
        return []
    return [f"D={vals['D']!r} outside [0, D_G={vals['DG']!r}]"]


def _close(vals: Dict[str, float], expected: Dict[str, float], tol: float) -> List[str]:
    return [
        f"{m}={vals[m]!r} vs {want!r} (|diff| > {tol:g})"
        for m, want in expected.items()
        if not abs(vals[m] - want) <= tol
    ]


def check_family_point(family: str, p: float, vals: Dict[str, float]) -> List[str]:
    """Problems with one sweep point's five measures; empty when it passes."""
    if family == "ps":
        return _close(vals, verify._ps_closed_forms(p), CLOSED_FORM_TOL)
    if family == "sigma":
        return _close(vals, sigma_closed_forms(p), CLOSED_FORM_TOL) + _bounded_d(vals)
    if family == "horodecki":
        return _close(vals, {"K": 0.0, "N": 0.0}, CLOSED_FORM_TOL) + _bounded_d(vals)
    raise ValueError(f"no check for family {family!r}")


def check_random_state(mat: np.ndarray, dims: Sequence[int], vals: Dict[str, float]) -> List[str]:
    """Problems with a random state's measures against the LAPACK reference."""
    k_ref, n_ref = k_and_n(mat, dims)
    problems = _close(vals, {"K": k_ref, "N": n_ref, "DG": d_g(mat, dims)}, REFERENCE_TOL)
    if "D" in vals:
        problems += _bounded_d(vals)
    g_max = math.log2(max(dims))
    if not -BOUND_TOL <= vals["G"] <= g_max + BOUND_TOL:
        problems.append(f"G={vals['G']!r} outside [0, log2 d = {g_max!r}]")
    return problems
