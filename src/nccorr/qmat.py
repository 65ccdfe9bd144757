"""Dense complex linear algebra for multipartite operators.

Eigen-decomposition (one LAPACK eigh, or eigvalsh for spectra alone, per
matrix or stack, with pinned sort, basis and phase rules), tensor
composition, partial trace / partial transposition, and base-2 entropies.

rho's spectrum, its marginal stacks and their eigensystems are made once per
state and kept on it by `core.kept`, read-only, in `rho._kept`, for as long
as the state lives.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BadSubsystemIndex,
    DensityMatrix,
    DimensionMismatch,
    NoConvergence,
    NonHermitian,
    NotAProbabilityVector,
    ProductBasis,
    checked_int,
    dim_groups,
    kept,
)

# round-off a valid density matrix may show, also read by `states.validate`; a
# product-basis diagonal of rho sums to Tr rho and has no entry below rho's least eigenvalue
HERM_TOL = 1e-10  # max |H - H^dag| (relative to max |H| in herm_eig)
TRACE_TOL = 1e-8  # |Tr rho - 1|, and |sum p - 1| for a probability vector
NEG_TOL = 1e-8  # eigenvalues and probabilities in [-NEG_TOL, 0) are round-off and count as 0
TIE_TOL = 1e-10  # eigenvalues or eigenvector magnitudes this close, relative to the largest, count as tied


def hermitian_part(M: np.ndarray) -> Tuple[np.ndarray, float]:
    """(M + M^dag)/2 and max|M - M^dag|, both formed from M/2 so that no entry overflows.

    Halving a normal float is exact, so for normal entries both equal the
    direct expressions bit for bit.
    """
    half = M / 2.0
    half_dag = half.conj().swapaxes(-1, -2)
    return half + half_dag, 2.0 * float(np.max(np.abs(half - half_dag)))


def herm_eig(H: np.ndarray, vectors: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Diagonalize a Hermitian matrix, or a stack (k, n, n) of them, with LAPACK (``numpy.linalg.eigh``).

    Returns the real eigenvalues sorted descending (a stable sort) and
    eigenvector columns fixed by H alone, not by LAPACK's choice of basis.
    Eigenvalues split into clusters at gaps above `TIE_TOL` times max|w|.  One
    cluster of all n gets the identity; one of 1 < m < n, columns V_c, gets
    V_c Q, Q the ascending eigenvectors of V_c^dag Z V_c with Z =
    diag(exp(j/n)), j < n: another basis V_c U gives U^dag Q.  Q is unique up
    to phases unless Z compresses to a multiple of the identity on the
    eigenspace, which Lindemann-Weierstrass rules out when vectors with
    algebraic entries span it; equal spacing would not do, as
    Z = diag(1, 2, 3) ties on the plane orthogonal to (1, 0, -1)/sqrt(2).
    Each vector's lowest-index component within `TIE_TOL` of its largest
    magnitude is then made real and non-negative.
    With ``vectors=False`` one ``eigvalsh`` call gives the eigenvalues alone,
    and None.  A stack takes one LAPACK call and gives each matrix's result
    along the leading axis; a single matrix takes that path as a stack of one.
    A stack that equals its conjugate transpose exactly (NaN never does)
    goes to LAPACK as it is; any other is checked for Hermiticity, each
    matrix against its own max|H|, and its Hermitian part (H + H^dag)/2,
    formed from halves, is diagonalized.  For exactly Hermitian H the two
    differ only in subnormal entries, which halving rounds, and in the sign
    of a zero.
    A non-finite entry on the checked path (NaN always takes it), a LAPACK
    failure or a non-finite eigenvalue is raised as NoConvergence.
    """
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1] or not A.size:
        raise DimensionMismatch(f"expected a nonempty square matrix or stack of them, got shape {A.shape}")
    S = A.reshape((-1,) + A.shape[-2:])
    if not np.array_equal(S, S.conj().swapaxes(-1, -2)):
        if not np.isfinite(S).all():  # NaN passes the Hermiticity test, and eigvalsh may give finite values
            raise NoConvergence("input has non-finite entries")
        half = S / 2.0  # max|H| and H - H^dag may overflow, their halves do not
        half_dag = half.conj().swapaxes(-1, -2)
        dev = np.abs(half - half_dag).max(axis=(-2, -1))
        bad = dev > HERM_TOL * np.abs(half).max(axis=(-2, -1))
        if bad.any():
            raise NonHermitian(f"max |H - H^dag| = {2.0 * float(dev[bad].max()):.3e} exceeds {HERM_TOL:.0e} * max|H|")
        S = half + half_dag
    try:
        w, V = np.linalg.eigh(S) if vectors else (np.linalg.eigvalsh(S)[..., ::-1], None)
        if not np.isfinite(w).all():
            raise NoConvergence("LAPACK returned non-finite eigenvalues")
        if V is None:
            return w.reshape(A.shape[:-1]), None
        for s in range(len(w)):
            w[s], V[s] = _pinned(w[s], V[s])
        return w.reshape(A.shape[:-1]), V.reshape(A.shape)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh failed: {exc}") from exc


def _pinned(w: np.ndarray, V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One matrix's ``eigh`` output with `herm_eig`'s sort, cluster and phase rules applied."""
    n = len(w)
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V[:, order]
    wl, lo, tol = w.tolist(), 0, TIE_TOL * max(w[0], -w[-1])  # max|w|, as w descends
    for hi in range(1, n + 1):
        if hi < n and wl[hi - 1] - wl[hi] <= tol:
            continue
        if hi - lo == n:  # the rule would give the identity up to rounding
            return w, np.eye(n, dtype=np.complex128)
        if hi - lo > 1:
            Vc = V[:, lo:hi]
            V[:, lo:hi] = Vc @ np.linalg.eigh(Vc.conj().T @ (np.exp(np.arange(n) / n)[:, None] * Vc))[1]
        lo = hi
    a = np.abs(V)
    ph = V[np.argmax(a >= (1.0 - TIE_TOL) * a.max(axis=0), axis=0), np.arange(n)]
    return w, V * (ph.conj() / np.abs(ph))


def density_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of rho sorted descending, as `clamped_probs`; kept on rho."""
    return kept(rho._kept, "spectrum", lambda: clamped_probs(herm_eig(rho.mat, vectors=False)[0]))


def clamped_probs(p: np.ndarray) -> np.ndarray:
    """p checked like any probability vector, round-off negatives set to 0."""
    p = _check_probs(p)
    return np.where(p < 0.0, 0.0, p)


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product; the first argument is the slower index."""
    return np.kron(np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128))


def _check_subsystems(dims: Sequence[int], idx: Iterable[int]) -> Tuple[int, ...]:
    idx = tuple(checked_int(k, BadSubsystemIndex, "subsystem indices must be integers") for k in idx)
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
    return DensityMatrix(tuple(rho.dims[i] for i in keep_sorted), _reduced(rho, keep_sorted))


def _reduced(rho: DensityMatrix, keep_sorted: Sequence[int]) -> np.ndarray:
    """The matrix of `partial_trace` for checked, sorted, nonempty `keep_sorted`."""
    m = rho.n_subsystems
    T = rho.mat.reshape(rho.dims + rho.dims)
    col = [i if i not in keep_sorted else m + i for i in range(m)]
    red = np.einsum(T, list(range(m)) + col, list(keep_sorted) + [m + i for i in keep_sorted])
    return red.reshape(math.isqrt(red.size), -1)


def marginal_stacks(rho: DensityMatrix) -> Dict[int, np.ndarray]:
    """{d: (count, d, d)}: the marginals ``partial_trace(rho, [k]).mat`` of each dimension d, in subsystem order; kept on rho."""
    return kept(rho._kept, "marginals", lambda: {
        d: np.stack([_reduced(rho, [k]) for k in ks]) for d, ks in dim_groups(rho.dims).items()
    })


def marginal_eigs(rho: DensityMatrix, vectors: bool = True) -> Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]:
    """{d: `herm_eig` of ``marginal_stacks(rho)[d]``}, kept per `vectors`, as the two modes' eigenvalues can differ.

    G reads the eigenvalues of ``vectors=False``, which must stay ``eigvalsh``
    values for `verify`'s bit-exact check against its naive enumerator.
    """
    return kept(rho._kept, ("marginal_eigs", vectors), lambda: {d: herm_eig(S, vectors) for d, S in marginal_stacks(rho).items()})


def partial_transpose(rho: DensityMatrix, side: Iterable[int]) -> np.ndarray:
    """Transpose the listed subsystems; returns a plain matrix, copied from rho once."""
    side = _check_subsystems(rho.dims, side)
    m = rho.n_subsystems
    T = rho.mat.reshape(rho.dims + rho.dims)
    axes = list(range(2 * m))
    for k in side:
        axes[k], axes[m + k] = axes[m + k], axes[k]
    # one copy: reshaping the contiguous copy gives a view of it
    return np.transpose(T, axes).copy().reshape(rho.d_tot, rho.d_tot)


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


def projectors(factor_stacks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The rank-one projectors of a batch of product bases' columns, as `product_diagonals` takes them.

    `factor_stacks[k]` has shape (S, d_k, d_k), and stack k of the result
    (S, d_k, d_k^2) holds conj(U[s, i, c]) U[s, j, c] at [s, c, (i, j)].
    """
    out = []
    for F in factor_stacks:
        # the projectors' strides follow the stacks', and matmul and sum round
        # differently on different strides, so every stack enters in C order
        S, d = len(F), F.shape[-1]
        Ft = np.ascontiguousarray(F).transpose(0, 2, 1)
        out.append((Ft.conj()[:, :, :, None] * Ft[:, :, None, :]).reshape(S, d, d * d))
    return out


def product_diagonals(rho_mat: np.ndarray, projector_stacks: Sequence[np.ndarray]) -> np.ndarray:
    """diag(B_s^dag rho B_s) for a batch of product bases B_s = U_1[s] x ... x U_m[s], given by their `projectors`.

    The result is real with shape (S, d_tot), columns in Kronecker order.
    B_s is never formed: rho is reordered as a tensor with one (i_k, j_k)
    index pair per subsystem, the first subsystem's projectors are
    contracted against it in one GEMM shared by the batch, and each further
    subsystem in a matmul per sample (a single subsystem too, with rho
    broadcast).  That costs about S d_tot^2 d_1 instead of S d_tot^3.  A row
    depends only on the values of its factors: it comes out the same alone
    or inside a batch, and in any memory layout of the factor stacks, which
    keeps the D search independent of its chunk size.
    """
    dims = [P.shape[1] for P in projector_stacks]
    m = len(dims)
    S = projector_stacks[0].shape[0]
    X = rho_mat.reshape(tuple(dims) * 2).transpose([a for k in range(m) for a in (k, m + k)])
    done, rest = 1, rho_mat.shape[0]
    for k, P in enumerate(projector_stacks):
        d = dims[k]
        rest //= d
        if k == 0 and m > 1:
            X = P.reshape(S * d, d * d) @ X.reshape(d * d, rest * rest)
        else:  # at m == 1 the shared GEMM would be a gemv, whose rounding depends on S
            X = P[:, None] @ X.reshape(-1, done, d * d, rest * rest)
        done *= d
    return X.reshape(S, done).real


def diag_probs(rho: DensityMatrix, basis: ProductBasis) -> np.ndarray:
    """Diagonal of rho in the given product basis, checked as a probability vector.

    One-sample call of `product_diagonals`, so no Kronecker basis is formed.
    Round-off negatives are kept, so `shannon_entropy` sees the true sum.
    """
    if basis.dims != rho.dims:
        raise DimensionMismatch(f"basis dims {basis.dims} != state dims {rho.dims}")
    return _check_probs(product_diagonals(rho.mat, projectors([f[None] for f in basis.factors]))[0])
