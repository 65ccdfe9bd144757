"""Minimization of the product-basis diagonal entropy.

Haar product bases are sampled, and a descent runs from the best of them and
from two fixed starts.  The samples come in order from one numpy Generator
per search, seeded by the search seed, and nothing else draws from it: sample
i is the i-th draw whatever the chunk size, and results are monotone in the
number of samples.  Each Haar factor is the unitary of a QR decomposition of
a complex Gaussian matrix, with R's diagonal real and positive; `_haar_batch`
computes it by Gram–Schmidt in whole-batch elementwise arithmetic, so a
sample comes out bit-identical whatever batch it is made in.  Every basis is
scored by `_batch_entropies`, whose rows do not depend on the batch either.
"""
from __future__ import annotations

import math
from functools import reduce
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, NoConvergence, ParamOutOfRange, ProductBasis
from . import qmat

_N_STARTS = 6  # best samples the descent starts from, besides the fixed candidates
_GRAD_TOL = 1e-6  # a start stops once its gradient norm (bits per radian) is this small
_TRIALS = 2.0 ** np.arange(2, -6, -1)  # line-search steps per round, in units of the Newton step
_RADIUS = 1.0  # longest Newton step (radians, the norm of the coordinates x)
_EIG_FLOOR = 1e-8  # Hessian eigenvalues smaller in magnitude count as this in the Newton step
_SMOOTH_FLOOR = 1e-9  # a witness diagonal entry below this makes its Hessian "not smooth" (None)
_MARGIN = 1e-12  # bits a descended basis must gain over the best start, so rounding never wins


@dataclass(frozen=True)
class SearchConfig:
    n_samples: int = 512
    seed: int = 1
    refine_steps: int = 100  # most descent rounds per start
    chunk_size: int = 2048  # samples made and scored at a time; never affects results

    def __post_init__(self):
        if self.n_samples < 0 or self.refine_steps < 0:
            raise ParamOutOfRange("n_samples and refine_steps must be >= 0")
        if self.chunk_size < 1:
            raise ParamOutOfRange("chunk_size must be >= 1")


def _ginibre(rng: np.random.Generator, dims: Sequence[int], S: int) -> np.ndarray:
    """The next S samples' standard normals from rng: one row of 2 * sum(d_k^2) per sample."""
    return rng.standard_normal((S, sum(2 * d * d for d in dims)))


def _haar_batch(dims: Sequence[int], N: np.ndarray) -> List[np.ndarray]:
    """One Haar-random unitary per subsystem per row of N; C-ordered stacks of shape (S, d, d).

    Each factor is the Q of a QR decomposition of a complex Ginibre matrix,
    with the phases fixed so that R has a real, positive diagonal (Mezzadri,
    Notices AMS 54, 2007).  That Q is computed directly, by Gram–Schmidt on
    the matrix's columns, each orthogonalised twice against the columns
    before it and then normalised.  A column is a complex (d, S) array with
    the samples contiguous, and all arithmetic is elementwise complex and
    real ufuncs with every d-term sum added in a fixed order, so a sample's
    factors depend only on its row of N (the matrices' entries in turn,
    row-major, real then imaginary part): they are bit-identical whether the
    row comes alone, in a slice or in the full batch.  The Ginibre scale is
    left out, since Gram–Schmidt does not depend on it.  A column whose
    residual norm is exactly zero raises NoConvergence.
    """
    factors = []
    for d, G in zip(dims, np.split(N, np.cumsum([2 * d * d for d in dims])[:-1], axis=1)):
        # Q[c, r, s] is entry (r, c) of sample s, and reduce(np.add, ...) sums over r in order
        Q = np.ascontiguousarray(G.view(np.complex128).reshape(-1, d, d).T)
        for c in range(d):
            v = Q[c]
            for _ in range(2):
                for j in range(c):
                    v -= reduce(np.add, Q[j].conj() * v) * Q[j]  # <u_j, v> = sum_r conj(u_jr) v_r
            nrm = np.sqrt(reduce(np.add, v.real * v.real + v.imag * v.imag))
            if not nrm.all():
                raise NoConvergence(
                    f"Haar sample: zero Gram-Schmidt residual in column {c} of a {d}x{d} matrix"
                )
            # a complex-by-real division rounds differently from dividing each part
            v.real /= nrm
            v.imag /= nrm
        factors.append(np.ascontiguousarray(Q.T))
    return factors


def haar_random_product_basis(dims: Sequence[int], sample_seed: int) -> ProductBasis:
    """Haar-uniform local basis per subsystem, deterministic per sample_seed (any integer)."""
    dims = tuple(int(d) for d in dims)
    facs = _haar_batch(dims, _ginibre(np.random.default_rng(sample_seed % 2 ** 64), dims, 1))
    return ProductBasis(tuple(f[0] for f in facs))


def _batch_entropies(rho_mat: np.ndarray, factor_stacks: List[np.ndarray]) -> np.ndarray:
    """Base-2 Shannon entropy of rho's diagonal in each sampled product basis.

    The diagonals come from `qmat.product_diagonals`, which contracts rho one
    subsystem at a time and never forms the d_tot x d_tot basis.
    """
    return qmat.entropy_bits(qmat.product_diagonals(rho_mat, factor_stacks))


def _lie_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d anti-Hermitian matrices with zero diagonal: shape (d^2 - d, d, d).

    For each pair p < q, (E_pq - E_qp)/sqrt(2) and i (E_pq + E_qp)/sqrt(2),
    orthonormal under Re tr(X^dag Y).  The diagonal ones are left out: they
    only rephase a factor's columns, which leaves every diagonal alone.
    """
    G = np.zeros((d * d - d, d, d), dtype=np.complex128)
    c = 0.5 ** 0.5
    for a, (p, q) in enumerate((p, q) for q in range(d) for p in range(q)):
        G[2 * a, p, q], G[2 * a, q, p] = c, -c
        G[2 * a + 1, p, q] = G[2 * a + 1, q, p] = 1j * c
    return G


def _derivatives(rho_mat: np.ndarray, factor_stacks: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and Hessian of the diagonal entropy f(U_k exp(A_k)) at A = 0, for a batch of product bases.

    A factor moves as U_k exp(A_k), and A = sum_a x_a G^_a runs over the
    `_lie_basis` of each subsystem in turn, lifted to the whole space as
    G^_a = 1 x G_a x 1: sum(d_k^2 - d_k) coordinates.  With R = B^dag rho B,
    p = diag R, lambda = log2 p and M_a = [R, G^_a] (the first derivative of R):

        g_a  = -sum_i lambda_i (M_a)_ii
        H_ab = -1/2 sum_ij (lambda_i - lambda_j) ((M_a)_ij (G^_b)_ji + (M_b)_ij (G^_a)_ji)
               - sum_i (M_a)_ii (M_b)_ii / (p_i ln 2)

    G^_a is never formed.  M_a = X_a + X_a^dag with X_a = R G^_a, one matmul
    per subsystem over that subsystem's column axis, against every G_a of
    the subsystem side by side.  As lambda_i - lambda_j
    is antisymmetric and G^_b anti-Hermitian, the X_a^dag half of each sum
    is the conjugate of the X_a half, so X_a alone gives both: (M_a)_ii =
    2 Re (X_a)_ii, and the sum against G^_b is 2 Re of a partial trace onto
    b's subsystem and one matmul.  Every product keeps the basis as its
    batch axis, so a row does not depend on its batch.  Returns g (S, n),
    H (S, n, n) and p (S, d_tot).
    """
    dims = [F.shape[-1] for F in factor_stacks]
    S, d_tot = len(factor_stacks[0]), rho_mat.shape[0]
    B = factor_stacks[0]
    for F in factor_stacks[1:]:
        a, d = B.shape[-1], F.shape[-1]
        B = (B[:, :, None, :, None] * F[:, None, :, None, :]).reshape(S, a * d, a * d)
    R = B.conj().swapaxes(1, 2) @ rho_mat @ B
    p = R.diagonal(axis1=1, axis2=2).real
    # where p_i = 0, row and column i of R vanish, so any finite floor will do
    pc = np.maximum(p, 1e-300)
    lam = np.log2(pc)
    # each subsystem's dimension, basis and the dimensions before and after it
    subs = [(d, _lie_basis(d), math.prod(dims[:k]), math.prod(dims[k + 1 :])) for k, d in enumerate(dims)]
    X = np.empty((S, sum(len(G) for _, G, _, _ in subs), d_tot, d_tot), dtype=np.complex128)
    off = 0
    for d, G, lo, hi in subs:
        # X_a[(i, l), y, h] = sum_x R[(i, l), x, h] G_a[x, y]
        Rk = R.reshape(S, d_tot * lo, d, hi).transpose(0, 1, 3, 2).reshape(S, -1, d)
        Y = (Rk @ G.transpose(1, 0, 2).reshape(d, -1)).reshape(S, d_tot * lo, hi, len(G), d)
        X[:, off : off + len(G)].reshape(S, len(G), d_tot * lo, d, hi)[...] = Y.transpose(0, 3, 1, 4, 2)
        off += len(G)
    J = 2.0 * X.diagonal(axis1=2, axis2=3).real
    g = -(J @ lam[:, :, None])[:, :, 0]
    N = X
    N *= (lam[:, :, None] - lam[:, None, :])[:, None]
    W = []
    for d, G, lo, hi in subs:
        # sum_ij N_ij (G^_b)_ji = sum_xy Tr_{not k}(N)[x, y] G_b[y, x]
        Nk = np.einsum("saljhlkh->sajk", N.reshape(S, -1, lo, d, hi, lo, d, hi))
        W.append(Nk.reshape(S, -1, d * d) @ G.transpose(2, 1, 0).reshape(d * d, -1))
    W = np.concatenate(W, axis=2).real
    H = -(W + W.swapaxes(1, 2)) - (J / (pc * np.log(2.0))[:, None]) @ J.swapaxes(1, 2)
    return g, H, p


def _rotate(U: np.ndarray, A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """U exp(t A) for U and anti-Hermitian A (S, d, d) and each step of t (T,): shape (S, T, d, d).

    One eigh of the Hermitian -iA = V diag(w) V^dag serves every step:
    U exp(t A) = W diag(exp(i t w)) V^dag with W = U V.  Each (s, step)
    entry depends only on U[s], A[s] and its step, not on the batch.
    """
    w, V = np.linalg.eigh(-1j * A)
    phase = np.exp(1j * t[:, None] * w[:, None, :])
    return np.einsum("sik,stk,sjk->stij", U @ V, phase, V.conj())


def _newton(rho_mat: np.ndarray, factor_stacks: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Saddle-free Newton steps at a batch of product bases and their squared gradient norms.

    The step is -V diag(1/max(|w|, `_EIG_FLOOR`)) V^T g for H = V diag(w) V^T,
    so it descends at saddles too, and it is scaled back to length `_RADIUS`
    if longer.  It is returned in the coordinates x of `_derivatives`: one
    (S, sum(d_k^2 - d_k)) array.
    """
    g, H, _ = _derivatives(rho_mat, factor_stacks)
    w, V = np.linalg.eigh(H)
    x = -np.einsum("sab,sb->sa", V, np.einsum("sba,sb->sa", V, g) / np.maximum(np.abs(w), _EIG_FLOOR))
    norm = np.sqrt(np.einsum("sa,sa->s", x, x))
    x *= np.minimum(1.0, _RADIUS / np.maximum(norm, 1e-300))[:, None]
    return x, np.einsum("sa,sa->s", g, g)


def _descend(
    rho_mat: np.ndarray, stacks: Sequence[np.ndarray], h: np.ndarray, max_rounds: int
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Saddle-free Newton descent on the product of unitary groups, from every start at once.

    A round moves each live start along its `_newton` step x, kept in Lie
    coordinates until here, as U_k exp(t A_k) with A_k = sum_a x_a G_a over
    subsystem k's `_lie_basis`, for the steps t in `_TRIALS`, scored in one
    call, and takes the lowest if it is below the start's entropy; x is then
    recomputed there.  A start stops at gradient norm `_GRAD_TOL`, at
    `max_rounds` rounds, or after its first round with no lower step, which
    counts as a round but not as an accepted one and leaves its factors and
    entropy as they were; it is then written to the outputs once and leaves
    the working arrays.  The working arrays hold only the live starts: x, and
    the factors of the K subsystems of one dimension d as one (n, K, d, d)
    stack, which `_rotate` turns in one call.  Returns the final factor
    stacks, entropies, rounds and accepted rounds.
    """
    dims = [F.shape[-1] for F in stacks]
    groups = [[k for k, dk in enumerate(dims) if dk == d] for d in dict.fromkeys(dims)]
    place = sorted((k, g, j) for g, ks in enumerate(groups) for j, k in enumerate(ks))
    # each group's Lie basis, and its subsystems' columns of x
    bases = [_lie_basis(dims[ks[0]]) for ks in groups]
    ends = np.cumsum([d * d - d for d in dims])
    cols = [np.concatenate([np.arange(ends[k] - len(G), ends[k]) for k in ks]) for ks, G in zip(groups, bases)]
    n = len(h)
    U_out, h_out = [np.array(F) for F in stacks], np.array(h)
    rounds_out, accepts_out = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    if max_rounds == 0:  # no round runs, so no start needs a direction
        return U_out, h_out, rounds_out, accepts_out

    start, h, accepts, ok = np.arange(n), np.array(h), np.zeros(n, dtype=int), np.ones(n, dtype=bool)
    U = [np.stack([stacks[k] for k in ks], axis=1) for ks in groups]
    x, gg = _newton(rho_mat, stacks)
    rounds = 0
    while True:
        live = ok & (gg > _GRAD_TOL ** 2) & (rounds < max_rounds)
        if not live.all():
            done = ~live
            i = start[done]
            for k, g, j in place:
                U_out[k][i] = U[g][done, j]
            h_out[i], rounds_out[i], accepts_out[i] = h[done], rounds, accepts[done]
            if not live.any():
                return U_out, h_out, rounds_out, accepts_out
            start, h, accepts, x, gg, *U = (a[live] for a in (start, h, accepts, x, gg, *U))
        n, trials = len(h), []
        for Ug, c, G in zip(U, cols, bases):
            K, d = Ug.shape[1:3]
            A = np.einsum("sa,aij->sij", x[:, c].reshape(n * K, len(G)), G)
            X = _rotate(Ug.reshape(n * K, d, d), A, _TRIALS)
            trials.append(X.reshape(n, K, *X.shape[1:]))
        ent = _batch_entropies(rho_mat, [trials[g][:, j].reshape(-1, dims[k], dims[k]) for k, g, j in place])
        r, step = np.arange(n), np.argmin(ent.reshape(n, -1), axis=1)
        low = ent.reshape(n, -1)[r, step]
        ok = low < h
        rounds += 1
        accepts += ok
        U = [np.where(ok[:, None, None, None], X[r, :, step], Ug) for X, Ug in zip(trials, U)]
        h = np.where(ok, low, h)
        if ok.any():
            x[ok], gg[ok] = _newton(rho_mat, [U[g][ok, j] for _, g, j in place])


def marginal_eigenbasis(rho: DensityMatrix) -> ProductBasis:
    """Product basis formed from each single-subsystem marginal eigenbasis."""
    facs = []
    for k in range(rho.n_subsystems):
        marg = qmat.partial_trace(rho, [k])
        _, V = qmat.herm_eig(marg.mat)
        facs.append(V)
    return ProductBasis(tuple(facs))


def computational_basis(dims: Sequence[int]) -> ProductBasis:
    return ProductBasis(tuple(np.eye(int(d), dtype=np.complex128) for d in dims))


def min_diag_entropy(rho: DensityMatrix, cfg: SearchConfig) -> Tuple[float, ProductBasis, dict]:
    """Smallest diagonal entropy found over fixed, sampled and descended product bases.

    Samples are made and scored `chunk_size` at a time, so memory does not
    grow with their number, and the factors and scores of the best
    `_N_STARTS` by (entropy, index) are kept.  The starts are the
    computational basis, the marginal eigenbasis and those samples, in that
    order, and the first lowest of them is the best start; only the two
    fixed starts are scored here, since a row's score does not depend on its
    batch.  `_descend` runs from every start; its first lowest basis replaces
    the best start if it is lower by more than `_MARGIN`.  Only the witness
    goes through the checked `qmat.diag_probs`.

    Returns (entropy in bits, witness basis, diagnostics).  The result is an
    upper bound on the true minimum and is bit-identical for identical cfg,
    regardless of chunk size.
    """
    dims = rho.dims
    rng = np.random.default_rng(cfg.seed % 2 ** 64)  # the samples' stream; nothing else draws from it
    n, best_h, best_i = cfg.n_samples, np.empty(0), np.empty(0, dtype=int)
    best_f = [np.empty((0, d, d), dtype=np.complex128) for d in dims]
    for lo in range(0, n, cfg.chunk_size):
        new = np.arange(lo, min(lo + cfg.chunk_size, n))
        facs = _haar_batch(dims, _ginibre(rng, dims, len(new)))
        h = np.concatenate([best_h, _batch_entropies(rho.mat, facs)])
        idx = np.concatenate([best_i, new])
        keep = np.lexsort((idx, h))[:_N_STARTS]
        best_h, best_i = h[keep], idx[keep]
        best_f = [np.concatenate(pair)[keep] for pair in zip(best_f, facs)]

    sources = ["computational", "marginal-eigenbasis", *(f"sample:{i}" for i in best_i)]
    fixed = [np.stack(f) for f in zip(computational_basis(dims).factors, marginal_eigenbasis(rho).factors)]
    stacks = [np.concatenate(pair) for pair in zip(fixed, best_f)]
    h = np.concatenate([_batch_entropies(rho.mat, fixed), best_h])
    descended, h_desc, rounds, accepts = _descend(rho.mat, stacks, h, cfg.refine_steps)
    first, i = int(np.argmin(h)), int(np.argmin(h_desc))
    if h_desc[i] < h[first] - _MARGIN:
        factors, best_source, start = [F[i] for F in descended], "refine", sources[i]
    else:
        factors, best_source, start = [F[first] for F in stacks], sources[first], sources[first]

    witness = ProductBasis(tuple(factors))
    g, H, p = (x[0] for x in _derivatives(rho.mat, [f[None] for f in factors]))
    gradient_norm = float(np.sqrt(g @ g))
    diagnostics = {
        "samples_evaluated": n,
        "refine_steps": int(rounds.sum()),
        "refine_accepts": int(accepts.sum()),
        "best_source": best_source,
        "start": start,
        "start_rounds": rounds.tolist(),
        "gradient_norm": gradient_norm,
        "converged": gradient_norm <= _GRAD_TOL,
        # the entropy is not smooth where a diagonal entry vanishes
        "hessian_min_eig": float(np.linalg.eigvalsh(H)[0]) if p.min() >= _SMOOTH_FLOOR else None,
    }
    return qmat.shannon_entropy(qmat.diag_probs(rho, witness)), witness, diagnostics
