"""Constructors, validation, random generation and file I/O for density matrices."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    DegenerateSpectrum,
    DensityMatrix,
    DimensionMismatch,
    NotAProbabilityVector,
    ParamOutOfRange,
    ParseError,
    ProductBasis,
    ValidationFailure,
)
from . import qmat

HERM_TOL = 1e-10
TRACE_TOL = 1e-8
MIN_EIG_TOL = 1e-8
DEGENERACY_GAP = 1e-7
PRODUCT_PURITY_TOL = 1e-9


def make_pseudo_entangled(p: float) -> DensityMatrix:
    """Two-qubit mixture of the |00>+|11> Bell projector with white noise."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"p={p!r} outside [0, 1]")
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    mat = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix((2, 2), mat)


def make_sigma(p: float) -> DensityMatrix:
    """Two-qubit mixture of |00>, |11> and the |01>+|10> projector."""
    if not 0.0 <= p <= 0.5:
        raise ParamOutOfRange(f"p={p!r} outside [0, 1/2]")
    phi = np.zeros(4, dtype=np.complex128)
    phi[1] = phi[2] = 1.0 / math.sqrt(2.0)
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = 0.5 - p
    mat += 2.0 * p * np.outer(phi, phi.conj())
    return DensityMatrix((2, 2), mat)


def make_horodecki(b: float) -> DensityMatrix:
    """Horodecki 2x4 state: entangled with positive partial transpose for 0<b<1."""
    if not 0.0 <= b <= 1.0:
        raise ParamOutOfRange(f"b={b!r} outside [0, 1]")
    mat = np.zeros((8, 8), dtype=np.complex128)
    diag = [b, b, b, b, (1.0 + b) / 2.0, b, b, (1.0 + b) / 2.0]
    for i, v in enumerate(diag):
        mat[i, i] = v
    for i, j in ((0, 5), (1, 6), (2, 7)):
        mat[i, j] = b
        mat[j, i] = b
    c = math.sqrt(max(0.0, 1.0 - b * b)) / 2.0
    mat[4, 7] = c
    mat[7, 4] = c
    mat /= 7.0 * b + 1.0
    return DensityMatrix((2, 4), mat)


def make_classically_correlated(local_bases: ProductBasis, probs: np.ndarray) -> DensityMatrix:
    """Mixture of product-basis projectors: a state with a product eigenbasis."""
    probs = np.asarray(probs, dtype=float)
    dims = local_bases.dims
    if probs.shape != dims:
        raise DimensionMismatch(f"probs shape {probs.shape} != dims {dims}")
    flat = probs.reshape(-1)
    if flat.min() < 0.0:
        raise NotAProbabilityVector(f"negative probability {flat.min()!r}")
    if abs(flat.sum() - 1.0) > 1e-8:
        raise NotAProbabilityVector(f"probabilities sum to {flat.sum()!r}")
    B = qmat.product_basis_matrix(local_bases)
    mat = (B * flat) @ B.conj().T
    return DensityMatrix(dims, mat)


def random_density_matrix(dims: Sequence[int], rank: int, seed: int) -> DensityMatrix:
    """Wishart-style random state: GG^dag normalized, G complex Gaussian."""
    dims = tuple(int(d) for d in dims)
    d_tot = int(np.prod(dims))
    if not 1 <= rank <= d_tot:
        raise ParamOutOfRange(f"rank={rank} outside [1, {d_tot}]")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d_tot, rank)) + 1j * rng.standard_normal((d_tot, rank))
    mat = G @ G.conj().T
    mat /= np.trace(mat).real
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(dims, mat)


def tensor_state(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(a.dims + b.dims, qmat.tensor(a.mat, b.mat))


@dataclass(frozen=True)
class ValidationReport:
    herm_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def hermitian_ok(self) -> bool:
        return self.herm_deviation <= HERM_TOL

    @property
    def trace_ok(self) -> bool:
        return self.trace_deviation <= TRACE_TOL

    @property
    def positive_ok(self) -> bool:
        return self.min_eigenvalue >= -MIN_EIG_TOL

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok


def validate(rho: DensityMatrix) -> ValidationReport:
    mat = rho.mat
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    trace_dev = abs(float(np.trace(mat).real) - 1.0)
    spec, _ = qmat.herm_eig((mat + mat.conj().T) / 2.0)
    return ValidationReport(herm_dev, trace_dev, float(spec.values[-1]))


def store_state(rho: DensityMatrix, path) -> None:
    """Write the JSON state format with 17 significant digits per component."""
    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    rows = []
    for row in rho.mat:
        entries = ", ".join(f"[{fmt(v.real)}, {fmt(v.imag)}]" for v in row)
        rows.append(f"[{entries}]")
    dims = ", ".join(str(d) for d in rho.dims)
    body = ",\n    ".join(rows)
    text = f'{{\n  "dims": [{dims}],\n  "matrix": [\n    {body}\n  ]\n}}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _entry(e) -> complex:
    """One matrix entry: a list of exactly two JSON numbers, [real, imag]."""
    if type(e) is not list or len(e) != 2 or any(type(x) not in (int, float) for x in e):
        raise ValueError(f"entry {e!r} is not a [real, imag] pair of numbers")
    return complex(*e)


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or "dims" not in obj or "matrix" not in obj:
        raise ParseError(f"{path}: expected an object with 'dims' and 'matrix'")
    dims = obj["dims"]
    if type(dims) is not list or any(type(d) is not int for d in dims):
        raise ParseError(f"{path}: 'dims' must be a list of integers, got {dims!r}")
    try:
        mat = np.array([[_entry(e) for e in row] for row in obj["matrix"]], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed matrix data ({exc})") from exc
    rho = DensityMatrix(tuple(dims), mat)
    report = validate(rho)
    if not report.passed:
        raise ValidationFailure(
            f"{path}: herm_dev={report.herm_deviation:.3e} "
            f"trace_dev={report.trace_deviation:.3e} min_eig={report.min_eigenvalue:.3e}"
        )
    return rho


def _vector_marginal_purity(vec: np.ndarray, dims: Tuple[int, ...], k: int) -> float:
    rho_v = DensityMatrix(dims, np.outer(vec, vec.conj()))
    marg = qmat.partial_trace(rho_v, [k]).mat
    return float(np.trace(marg @ marg).real)


def has_product_eigenbasis_nondegenerate(rho: DensityMatrix) -> bool:
    """True iff every eigenvector factorizes across all subsystems.

    Only defined for nondegenerate spectra; eigenvectors of (near-)degenerate
    eigenvalues are not unique, so the check raises DegenerateSpectrum there.
    """
    spec, V = qmat.herm_eig(rho.mat)
    vals = spec.values
    # group (near-)equal eigenvalues; eigenvectors are only unique within gaps
    groups = [[0]]
    for j in range(1, rho.d_tot):
        if vals[j - 1] - vals[j] <= DEGENERACY_GAP:
            groups[-1].append(j)
        else:
            groups.append([j])
    isolated = [g[0] for g in groups if len(g) == 1]
    for j in isolated:
        vec = V[:, j]
        for k in range(rho.n_subsystems):
            if _vector_marginal_purity(vec, rho.dims, k) < 1.0 - PRODUCT_PURITY_TOL:
                # an eigenvector of an isolated eigenvalue is unique, so a
                # non-product one settles the question regardless of degeneracy
                return False
    if len(isolated) < rho.d_tot:
        raise DegenerateSpectrum(
            "degenerate spectrum and all isolated eigenvectors are product "
            "vectors; the decision is unreliable, use the correlation measures"
        )
    return True
