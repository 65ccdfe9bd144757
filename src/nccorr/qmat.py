"""Dense complex linear algebra for multipartite operators.

Eigen-decomposition (LAPACK eigh with pinned sort and phase rules; eigvalsh
on a stack for spectra alone), tensor composition, partial trace / partial
transposition, and base-2 entropies.
"""
from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BadSubsystemIndex,
    DensityMatrix,
    DimensionMismatch,
    NoConvergence,
    NonHermitian,
    NotAProbabilityVector,
    ProductBasis,
)

# round-off a valid density matrix may show, also read by `states.validate`; a
# product-basis diagonal of rho sums to Tr rho and has no entry below rho's least eigenvalue
HERM_TOL = 1e-10  # max |H - H^dag| (relative to max |H| in herm_eig)
TRACE_TOL = 1e-8  # |Tr rho - 1|, and |sum p - 1| for a probability vector
NEG_TOL = 1e-8  # eigenvalues and probabilities in [-NEG_TOL, 0) are round-off and count as 0


def hermitian_part(M: np.ndarray) -> Tuple[np.ndarray, float]:
    """(M + M^dag)/2 and max|M - M^dag|, both formed from M/2 so that no entry overflows.

    M may be a stack (k, n, n), whose largest deviation is returned.  Halving a
    normal float is exact, so for normal entries both equal the direct
    expressions bit for bit.
    """
    half = M / 2.0
    half_dag = half.conj().swapaxes(-1, -2)
    return half + half_dag, 2.0 * float(np.max(np.abs(half - half_dag)))


def herm_eig(H: np.ndarray, vectors: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Returns two arrays: the real eigenvalues sorted descending and the
    matching eigenvector columns.  The sort is stable and each eigenvector
    is phased so its largest-magnitude component is real and non-negative,
    so the output is reproducible on one machine and numpy/BLAS build.  With
    ``vectors=False``, H may be a stack (k, n, n): one ``eigvalsh`` call gives
    each matrix's eigenvalues, descending along the last axis, and None.  A
    LAPACK failure or a non-finite eigenvalue is raised as NoConvergence.
    """
    A = np.array(H, dtype=np.complex128)
    if A.ndim not in (2, 2 + (not vectors)) or A.shape[-2] != A.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[-1]
    half_scale = float(np.max(np.abs(A / 2.0))) if A.size else 0.0  # max|H|/2; max|H| may overflow
    if half_scale == 0.0:
        return np.zeros(A.shape[:-1]), np.eye(n, dtype=np.complex128) if vectors else None
    A, herm_dev = hermitian_part(A)
    if herm_dev / 2.0 > HERM_TOL * half_scale:
        raise NonHermitian(f"max |H - H^dag| = {herm_dev:.3e} exceeds {HERM_TOL:.0e} * max|H|")
    try:
        w, V = np.linalg.eigh(A) if vectors else (np.linalg.eigvalsh(A)[..., ::-1], None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise NoConvergence("LAPACK returned non-finite eigenvalues")
    if V is None:
        return w, None
    order = np.argsort(-w, kind="stable")
    V = V[:, order]
    ph = V[np.argmax(np.abs(V), axis=0), np.arange(n)]
    V = V * (ph.conj() / np.abs(ph))
    return w[order], V


def density_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of rho sorted descending, checked like any probability vector, round-off negatives set to 0."""
    w = _check_probs(herm_eig(rho.mat, vectors=False)[0])
    return np.where(w < 0.0, 0.0, w)


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product; the first argument is the slower index."""
    return np.kron(np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128))


def _check_subsystems(dims: Sequence[int], idx: Iterable[int]) -> Tuple[int, ...]:
    idx = tuple(int(k) for k in idx)
    m = len(dims)
    for k in idx:
        if k < 0 or k >= m:
            raise BadSubsystemIndex(f"subsystem index {k} out of range for {m} subsystems")
    if len(set(idx)) != len(idx):
        raise BadSubsystemIndex(f"duplicate subsystem index in {idx}")
    return idx


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in `keep` (original order kept)."""
    keep = _check_subsystems(rho.dims, keep)
    if not keep:
        raise BadSubsystemIndex("keep set must be nonempty")
    keep_sorted = sorted(keep)
    m = rho.n_subsystems
    T = rho.mat.reshape(rho.dims + rho.dims)
    row = list(range(m))
    col = [i if i not in keep_sorted else m + i for i in range(m)]
    out = keep_sorted + [m + i for i in keep_sorted]
    red = np.einsum(T, row + col, out)
    new_dims = tuple(rho.dims[i] for i in keep_sorted)
    d = math.prod(new_dims)
    return DensityMatrix(new_dims, red.reshape(d, d))


def partial_transpose(rho: DensityMatrix, side: Iterable[int]) -> np.ndarray:
    """Transpose the listed subsystems; returns a plain matrix."""
    side = _check_subsystems(rho.dims, side)
    m = rho.n_subsystems
    T = rho.mat.reshape(rho.dims + rho.dims)
    axes = list(range(2 * m))
    for k in side:
        axes[k], axes[m + k] = axes[m + k], axes[k]
    d = rho.d_tot
    return np.transpose(T, axes).reshape(d, d).copy()


def _check_probs(p: np.ndarray) -> np.ndarray:
    """p as floats, checked to be a probability vector up to round-off; not clamped."""
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise NotAProbabilityVector("probabilities contain non-finite entries")
    mn = float(p.min()) if p.size else 0.0
    if mn < -NEG_TOL:
        raise NotAProbabilityVector(f"entry {mn:.3e} below -{NEG_TOL:.0e}")
    total = float(p.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise NotAProbabilityVector(f"probabilities sum to {total!r}")
    return p


def entropy_bits(P: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of P, zeros kept (0 log 0 = 0).

    Keeping the zeros fixes how the terms are grouped in the sum, so a row
    gives the same bits alone as inside a batch.  An entry <= 0 gives a zero
    term, so round-off negatives need no clamp.
    """
    return -(P * np.log2(np.where(P > 0.0, P, 1.0))).sum(axis=-1)


def shannon_entropy(p: np.ndarray) -> float:
    """Base-2 Shannon entropy (0 log 0 = 0) of p, checked as a probability vector."""
    return float(entropy_bits(_check_probs(p)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Base-2 von Neumann entropy of the clamped spectrum `density_spectrum`."""
    return float(entropy_bits(density_spectrum(rho)))


def product_basis_matrix(basis: ProductBasis) -> np.ndarray:
    B = np.eye(1, dtype=np.complex128)
    for f in basis.factors:
        B = np.kron(B, f)
    return B


def product_diagonals(rho_mat: np.ndarray, factor_stacks: Sequence[np.ndarray]) -> np.ndarray:
    """diag(B_s^dag rho B_s) for a batch of product bases B_s = U_1[s] x ... x U_m[s].

    `factor_stacks[k]` has shape (S, d_k, d_k); the result is real with shape
    (S, d_tot), columns in Kronecker order.  B_s is never formed: rho is
    reordered as a tensor with one (i_k, j_k) index pair per subsystem, the
    first subsystem's rank-one projectors conj(U[s,i,c]) U[s,j,c] are
    contracted against it in one GEMM shared by the batch, and each further
    subsystem in a batched matmul (one subsystem: an elementwise multiply
    and sum).  That costs about S d_tot^2 d_1 instead of S d_tot^3.  A row
    depends only on the values of its factors: it comes out the same alone
    or inside a batch, and in any memory layout of the stacks, which keeps
    the D search independent of its chunk size.
    """
    # the projectors' strides follow the stacks', and matmul and sum round
    # differently on different strides, so every stack enters in C order
    factor_stacks = [np.ascontiguousarray(F) for F in factor_stacks]
    dims = [F.shape[-1] for F in factor_stacks]
    m = len(dims)
    S = factor_stacks[0].shape[0]
    X = rho_mat.reshape(tuple(dims) * 2).transpose([a for k in range(m) for a in (k, m + k)])
    done, rest = 1, rho_mat.shape[0]
    for k, F in enumerate(factor_stacks):
        d = dims[k]
        rest //= d
        Ft = F.transpose(0, 2, 1)
        P = (Ft.conj()[:, :, :, None] * Ft[:, :, None, :]).reshape(S, d, d * d)
        if m == 1:
            # a one-column GEMM goes to gemv, whose rounding depends on S
            X = (P * X.reshape(d * d)).sum(axis=-1)
        elif k == 0:
            X = P.reshape(S * d, d * d) @ X.reshape(d * d, rest * rest)
        else:
            X = P[:, None] @ X.reshape(S, done, d * d, rest * rest)
        done *= d
    return X.reshape(S, done).real


def diag_probs(rho: DensityMatrix, basis: ProductBasis) -> np.ndarray:
    """Diagonal of rho in the given product basis, checked as a probability vector.

    One-sample call of `product_diagonals`, so no Kronecker basis is formed.
    Round-off negatives are kept, so `shannon_entropy` sees the true sum.
    """
    if basis.dims != rho.dims:
        raise DimensionMismatch(f"basis dims {basis.dims} != state dims {rho.dims}")
    return _check_probs(product_diagonals(rho.mat, [f[None] for f in basis.factors])[0])
