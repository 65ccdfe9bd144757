"""Constructors, validation, random generation and file I/O for density matrices."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatch,
    ParamOutOfRange,
    ParseError,
    ProductBasis,
    ValidationFailure,
    checked_dims,
)
from . import qmat

# max |off-diagonal| of rho in `product_eigenbasis`'s basis, relative to max|rho|.
# Classical states read round-off over the combination's relative eigen-gap,
# at most 4.1e-11 on 4000 of them; the family grids' nonclassical points read
# at least 9.9e-3, and a state within eps of a classical one about eps.
CLASSICAL_TOL = 1e-8


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
        mat[i, j] = mat[j, i] = b
    c = math.sqrt(max(0.0, 1.0 - b * b)) / 2.0
    mat[4, 7] = mat[7, 4] = c
    mat /= 7.0 * b + 1.0
    return DensityMatrix((2, 4), mat)


def make_classically_correlated(local_bases: ProductBasis, probs: np.ndarray) -> DensityMatrix:
    """Mixture of product-basis projectors: a state with a product eigenbasis."""
    probs = np.asarray(probs, dtype=float)
    dims = local_bases.dims
    if probs.shape != dims:
        raise DimensionMismatch(f"probs shape {probs.shape} != dims {dims}")
    flat = qmat._check_probs(probs.reshape(-1))
    B = qmat.product_basis_matrix(local_bases)
    mat = (B * flat) @ B.conj().T
    return DensityMatrix(dims, mat)


def random_density_matrix(dims: Sequence[int], rank: int, seed: int) -> DensityMatrix:
    """Wishart-style random state: GG^dag normalized, G complex Gaussian."""
    dims = checked_dims(dims)
    d_tot = math.prod(dims)
    if not 1 <= rank <= d_tot:
        raise ParamOutOfRange(f"rank={rank} outside [1, {d_tot}]")
    if seed < 0:
        raise ParamOutOfRange(f"seed={seed} is negative")
    if d_tot * d_tot * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max:
        raise ParamOutOfRange(f"a {d_tot} x {d_tot} complex matrix is too large for numpy to index")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d_tot, rank)) + 1j * rng.standard_normal((d_tot, rank))
    mat = G @ G.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(dims, qmat.hermitian_part(mat)[0])


def tensor_state(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(a.dims + b.dims, qmat.tensor(a.mat, b.mat))


@dataclass(frozen=True)
class ValidationReport:
    herm_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        """The verdict: every field within its `qmat` tolerance (a NaN field fails)."""
        return (self.herm_deviation <= qmat.HERM_TOL and self.trace_deviation <= qmat.TRACE_TOL
                and self.min_eigenvalue >= -qmat.NEG_TOL)


def validate(rho: DensityMatrix) -> ValidationReport:
    return _validate(rho)[0]


def _validate(rho: DensityMatrix) -> Tuple[ValidationReport, np.ndarray]:
    """`validate`'s report, and the Hermitian part it was computed from."""
    herm, herm_dev = qmat.hermitian_part(rho.mat)
    # from halves, like the Hermitian part, so that no sum overflows
    trace_dev = abs(2.0 * float(np.trace(rho.mat / 2.0).real) - 1.0)
    # entries scaled to at most 1, so no eigenvalue overflows; one past the float range reads -inf
    half_max = float(np.max(np.abs(herm / 2.0))) or 1.0
    w, _ = qmat.herm_eig(herm / 2.0 / half_max, vectors=False)
    return ValidationReport(herm_dev, trace_dev, 2.0 * (half_max * float(w[-1]))), herm


def _complex_pairs(M) -> list:
    """The JSON form of a complex matrix: nested lists of [real, imag] float pairs."""
    return np.stack([np.real(M), np.imag(M)], axis=-1).tolist()


def store_state(rho: DensityMatrix, path) -> None:
    """Write the JSON state format, one matrix row per line, each float by `json` as
    its shortest exact repr, so that `load_state` reads it back bit for bit, -0.0
    included.  `nccorr measure` writes product-basis witnesses as the same pairs."""
    rows = ",\n    ".join(json.dumps(row) for row in _complex_pairs(rho.mat))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "dims": {json.dumps(list(rho.dims))},\n  "matrix": [\n    {rows}\n  ]\n}}\n')


def _entry(e) -> complex:
    """One matrix entry: a list of exactly two JSON numbers, [real, imag]."""
    if type(e) is not list or len(e) != 2 or any(type(x) not in (int, float) for x in e):
        raise ValueError(f"entry {e!r} is not a [real, imag] pair of numbers")
    return complex(*e)


def load_state(path) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.loads(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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
    try:
        rho = DensityMatrix(tuple(dims), mat)
    except (DimensionMismatch, ValidationFailure) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    report, herm = _validate(rho)
    if not report.passed:
        raise ValidationFailure(
            f"{path}: herm_dev={report.herm_deviation:.3e} "
            f"trace_dev={report.trace_deviation:.3e} min_eig={report.min_eigenvalue:.3e}"
        )
    # the Hermitian part: herm_eig bounds |H - H^dag| relative to max|H|, validate absolutely
    return DensityMatrix(rho.dims, herm)


def product_eigenbasis(rho: DensityMatrix) -> Optional[ProductBasis]:
    """A product basis in which rho is diagonal, or None if rho has none.

    rho has a product eigenbasis iff, for every party k, its d_k x d_k blocks
    <a|rho|b> (a, b running over basis states of the other parties) commute
    (Chen, Chitambar, Modi and Vacanti, PRA 83, 020101(R), 2011).  Commuting
    blocks share the eigenbasis E_k of a generic Hermitian combination
    C + C^dag, C = sum_ab w_ab <a|rho|b>; the weights w come from a fixed seed,
    so the result is reproducible.  Where E_k has a degenerate eigenspace the
    blocks act on it as multiples of the identity, and `qmat.herm_eig`'s
    canonical basis of it, which round-off in rho does not move, serves.
    (x) E_k is returned iff rho is diagonal in it up to `CLASSICAL_TOL`, so an
    accepted basis is its own certificate.
    """
    rng = np.random.default_rng(0)
    m = rho.n_subsystems
    T = rho.mat.reshape(rho.dims * 2)
    factors = []
    for k, d in enumerate(rho.dims):
        order = [i for i in range(m) if i != k] + [k]
        blocks = T.transpose(order + [m + i for i in order]).reshape(-1, d, rho.d_tot // d, d)
        w = rng.standard_normal(blocks.shape[::2]) + 1j * rng.standard_normal(blocks.shape[::2])
        C = np.einsum("ab,axby->xy", w, blocks)
        factors.append(qmat.herm_eig(C + C.conj().T)[1])
    basis = ProductBasis(tuple(factors))
    B = qmat.product_basis_matrix(basis)
    R = B.conj().T @ rho.mat @ B
    np.fill_diagonal(R, 0.0)
    return basis if np.max(np.abs(R)) <= CLASSICAL_TOL * np.max(np.abs(rho.mat)) else None
