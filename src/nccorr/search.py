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

from functools import reduce
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, NoConvergence, ParamOutOfRange, ProductBasis
from . import qmat

_N_STARTS = 2  # best samples the descent starts from, besides the fixed candidates
_GRAD_TOL = 1e-6  # a start stops once its gradient norm (bits per radian) is this small
_TRIALS = 2.0 ** np.arange(2, -6, -1)  # line-search steps per round, in units of the last step
_MIN_STEP = 1e-12  # a start stops when no step down to this one lowers its entropy
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
    before it and then normalised.  The columns are real and imaginary
    (d, S) arrays with the samples contiguous, and all arithmetic is
    elementwise real ufuncs with every d-term sum added in a fixed order, so
    a sample's factors depend only on its row of N (the matrices' entries in
    turn, row-major, real then imaginary part): they are bit-identical
    whether the row comes alone, in a slice or in the full batch.  The
    Ginibre scale is left out, since Gram–Schmidt does not depend on it.  A
    column whose residual norm is exactly zero raises NoConvergence.
    """
    S = len(N)
    counts = [2 * d * d for d in dims]
    factors = []
    off = 0
    for d, cnt in zip(dims, counts):
        # G[s, r, c, part] is part (re, im) of entry (r, c); Re/Im[c, r, s]
        # hold it column by column, and reduce(np.add, ...) sums over r in order
        G = N[:, off : off + cnt].reshape(S, d, d, 2)
        Re, Im = np.ascontiguousarray(G.transpose(3, 2, 1, 0))
        off += cnt
        for c in range(d):
            vr, vi = Re[c], Im[c]
            for _ in range(2):
                for j in range(c):
                    ar, ai = Re[j], Im[j]
                    pr = reduce(np.add, ar * vr + ai * vi)  # <u_j, v> = sum_r conj(u_jr) v_r
                    pi = reduce(np.add, ar * vi - ai * vr)
                    vr -= pr * ar - pi * ai
                    vi -= pr * ai + pi * ar
            nrm = np.sqrt(reduce(np.add, vr * vr + vi * vi))
            if not nrm.all():
                raise NoConvergence(
                    f"Haar sample: zero Gram-Schmidt residual in column {c} of a {d}x{d} matrix"
                )
            vr /= nrm
            vi /= nrm
        U = np.empty((S, d, d), dtype=np.complex128)
        U.real = Re.T
        U.imag = Im.T
        factors.append(U)
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
    P = qmat.product_diagonals(rho_mat, factor_stacks)
    return qmat.entropy_bits(np.where(P > 0.0, P, 0.0))


def _gradient(rho_mat: np.ndarray, factor_stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Riemannian gradient of the diagonal entropy at a batch of product bases, one flat row per basis.

    Moving factor k as U_k exp(eps A), with A anti-Hermitian, changes the
    entropy at the rate <A, C_k> = Re tr(A^dag C_k), where
    C_k = Tr_{not k} [Lambda, rho'], rho' = B^dag rho B and
    Lambda = diag(log2 p) for the diagonal p of rho'.  The anti-Hermitian
    C_k are returned as one (S, sum d_k^2) array, C_1, ..., C_m in turn and
    each row-major, so an inner product over all subsystems is one row sum.
    """
    dims = [F.shape[-1] for F in factor_stacks]
    S, m = len(factor_stacks[0]), len(dims)
    B = factor_stacks[0]
    for F in factor_stacks[1:]:
        a, d = B.shape[-1], F.shape[-1]
        B = (B[:, :, None, :, None] * F[:, None, :, None, :]).reshape(S, a * d, a * d)
    R = B.conj().swapaxes(1, 2) @ rho_mat @ B
    # where p_i = 0, row and column i of rho' vanish, so any finite log2 p_i will do
    lam = np.log2(np.maximum(R.diagonal(axis1=1, axis2=2).real, 1e-300))
    C = ((lam[:, :, None] - lam[:, None, :]) * R).reshape(S, *dims, *dims)
    # C's axes are the basis, a row axis per subsystem, then a column axis per
    # subsystem; C_k traces out every subsystem but k, so every column axis
    # but k's takes its row axis's label
    rows = list(range(1, m + 1))
    traces = [np.einsum(C, [0, *rows, *rows[:k], m + 1, *rows[k + 1 :]], [0, k + 1, m + 1]) for k in range(m)]
    return np.concatenate([Ck.reshape(S, -1) for Ck in traces], axis=1)


def _rotate(U: np.ndarray, A: np.ndarray, t: np.ndarray) -> np.ndarray:
    """U exp(t A) for U and anti-Hermitian A (S, d, d) and steps t (S, T): shape (S, T, d, d).

    One eigh of the Hermitian -iA = V diag(w) V^dag serves every step:
    U exp(t A) = W diag(exp(i t w)) V^dag with W = U V.  Each (s, step)
    entry depends only on U[s], A[s] and its step, not on the batch.
    """
    w, V = np.linalg.eigh(-1j * A)
    phase = np.exp(1j * t[:, :, None] * w[:, None, :])
    return np.einsum("sik,stk,sjk->stij", U @ V, phase, V.conj())


def _descend(
    rho_mat: np.ndarray, stacks: Sequence[np.ndarray], h: np.ndarray, max_rounds: int
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Polak–Ribière+ conjugate gradient on the product of unitary groups, from every start at once.

    This is the method of Abrudan, Eriksson & Koivunen (Signal Processing
    89(9), 2009).  A round moves each live start along its direction D as
    U_k exp(t D_k) for the steps t = t0 * `_TRIALS`, scored in one call, and
    takes the lowest if it is below the start's entropy; t0 becomes its step.
    Otherwise t0 drops below the steps just tried.  A start stops at gradient
    norm `_GRAD_TOL`, at `max_rounds` rounds, or once t0 is below `_MIN_STEP`;
    it is then written to the outputs once and leaves the working arrays.
    The working arrays hold only the live starts: the factors of the K
    subsystems of one dimension d as one (n, K, d, d) stack, which `_rotate`
    turns in one call, and G and D flat, as `_gradient` returns them.
    Returns the final factor stacks, entropies, rounds and accepted rounds.
    """
    dims = [F.shape[-1] for F in stacks]
    groups = [[k for k, dk in enumerate(dims) if dk == d] for d in dict.fromkeys(dims)]
    place = sorted((k, g, j) for g, ks in enumerate(groups) for j, k in enumerate(ks))
    ends = np.cumsum([d * d for d in dims])
    cols = [np.concatenate([np.arange(ends[k] - dims[k] ** 2, ends[k]) for k in ks]) for ks in groups]
    n = len(h)
    U_out, h_out = [np.array(F) for F in stacks], np.array(h)
    rounds_out, accepts_out = np.zeros(n, dtype=int), np.zeros(n, dtype=int)

    start, h, t0, accepts = np.arange(n), np.array(h), np.ones(n), np.zeros(n, dtype=int)
    U = [np.stack([stacks[k] for k in ks], axis=1) for ks in groups]
    G = _gradient(rho_mat, stacks)
    D, gg, rounds = -G, (G.conj() * G).real.sum(1), 0
    while True:
        live = (gg > _GRAD_TOL ** 2) & (t0 >= _MIN_STEP) & (rounds < max_rounds)
        if not live.all():
            done = ~live
            i = start[done]
            for k, g, j in place:
                U_out[k][i] = U[g][done, j]
            h_out[i], rounds_out[i], accepts_out[i] = h[done], rounds, accepts[done]
            if not live.any():
                return U_out, h_out, rounds_out, accepts_out
            start, h, t0, accepts, G, D, gg, *U = (x[live] for x in (start, h, t0, accepts, G, D, gg, *U))
        n, t = len(h), t0[:, None] * _TRIALS
        trials = []
        for Ug, c in zip(U, cols):
            K, d = Ug.shape[1:3]
            X = _rotate(Ug.reshape(n * K, d, d), D[:, c].reshape(n * K, d, d), np.repeat(t, K, axis=0))
            trials.append(X.reshape(n, K, *X.shape[1:]))
        ent = _batch_entropies(rho_mat, [trials[g][:, j].reshape(-1, dims[k], dims[k]) for k, g, j in place])
        r, step = np.arange(n), np.argmin(ent.reshape(t.shape), axis=1)
        low = ent.reshape(t.shape)[r, step]
        ok = low < h
        rounds += 1
        accepts += ok
        U = [np.where(ok[:, None, None, None], X[r, :, step], Ug) for X, Ug in zip(trials, U)]
        h, t0 = np.where(ok, low, h), np.where(ok, t[r, step], t0 * 2.0 ** -len(_TRIALS))
        # a start that found no lower step keeps its G and D; only its t0 drops
        G_new = _gradient(rho_mat, [U[g][:, j] for _, g, j in place])
        gg_new = (G_new.conj() * G_new).real.sum(1)
        beta = np.maximum(0.0, (gg_new - (G.conj() * G_new).real.sum(1)) / gg)
        # directions live in the Lie algebra, so D carries over as it is;
        # where -G + beta D would not descend, restart from -G
        beta[beta * (D.conj() * G_new).real.sum(1) >= gg_new] = 0.0
        D = np.where(ok[:, None], beta[:, None] * D - G_new, D)
        G, gg = np.where(ok[:, None], G_new, G), np.where(ok, gg_new, gg)


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
    grad = _gradient(rho.mat, [f[None] for f in factors])[0]
    diagnostics = {
        "samples_evaluated": n,
        "refine_steps": int(rounds.sum()),
        "refine_accepts": int(accepts.sum()),
        "best_source": best_source,
        "start": start,
        "start_rounds": rounds.tolist(),
        "gradient_norm": float(np.sqrt((grad.conj() * grad).real.sum())),
    }
    return qmat.shannon_entropy(qmat.diag_probs(rho, witness)), witness, diagnostics
