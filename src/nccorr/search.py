"""Minimization of the product-basis diagonal entropy.

Haar product bases are sampled, and a descent runs from the best of them and
from two fixed starts.  The samples come in order from one numpy Generator
per search, seeded by the search seed, and nothing else draws from it: sample
i is the same draw at any chunk size, and the best start's score can only
fall as samples grow.  The result need not: a later sample can push out of
the starts one that would have descended lower.  Each Haar factor is the
unitary of a QR decomposition of a complex Gaussian matrix, with R's diagonal
real and positive; `_haar_batch` computes it by Gram–Schmidt in whole-batch
elementwise arithmetic, so a sample comes out bit-identical whatever batch it
is made in.  Every basis is scored by `_batch_entropies` from its columns'
rank-one projectors (`qmat.projectors`), and its rows do not depend on the
batch either.

A sample set depends only on the SearchConfig and the dims, never on rho, so
a search of one chunk keeps its samples and their projectors on the config
(`SearchConfig` says what it keeps and for how long); a longer search makes
them anew on every call.  Every search keeps its dims' descent `_plan` there.
A sweep passes one config to every point, so it makes each once per dims.

Within a call, `_descend` takes each start's derivatives once and again only
after an accepted step, and the witness's certificate reads them.
"""
from __future__ import annotations

import math
from functools import cache, reduce
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, NoConvergence, ParamOutOfRange, ProductBasis, checked_dims, kept
from . import qmat

_N_STARTS = 6  # best samples the descent starts from, besides the fixed candidates
_GRAD_TOL = 1e-6  # a start stops once its gradient norm (bits per radian) is this small
_TRIALS = 2.0 ** np.arange(2, -3, -1)  # line-search steps per round, in units of the Newton step
_RADIUS = 1.0  # longest Newton step (radians, the norm of the coordinates x)
_EIG_FLOOR = 1e-8  # Hessian eigenvalues smaller in magnitude count as this in the Newton step
_SMOOTH_FLOOR = 1e-9  # a witness diagonal entry below this makes its Hessian "not smooth" (None)
_MARGIN = 1e-12  # bits a descended basis must gain over the best start, so rounding never wins
_FIXED = np.array([0, 1])  # the fixed starts' places in the start set


@dataclass(frozen=True)
class SearchConfig:
    """How hard the D search looks, and what it keeps for the searches it serves.

    Each search draws `n_samples` Haar product bases from the Generator
    seeded by `seed`, `chunk_size` at a time, and descends at most
    `refine_steps` rounds from each start.  `_kept` holds per dims,
    read-only, under ("plan", dims) the search's `_plan`, always, and under
    ("samples", dims) its samples and their projectors if they fit one
    chunk, both for as long as the config lives.  At large dims the plan's
    gather table dominates: 8 n d_tot^2 bytes for n = sum(d_k^2 - d_k),
    1.8 MB on seven qubits and 37.7 MB on nine.  A config is owned by its
    caller: a CLI command, a sweep, a `verify` run or a `measure_D` call.
    """

    n_samples: int = 512
    seed: int = 1
    refine_steps: int = 100  # most descent rounds per start
    chunk_size: int = 2048  # samples made and scored at a time; never affects results
    _kept: Dict[Hashable, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_samples < 0 or self.refine_steps < 0:
            raise ParamOutOfRange("n_samples and refine_steps must be >= 0")
        if self.chunk_size < 1:
            raise ParamOutOfRange("chunk_size must be >= 1")
        if min(self.n_samples, self.chunk_size) > np.iinfo(np.intp).max // 8:
            raise ParamOutOfRange("one chunk's samples are too many for numpy to index; lower chunk_size")


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
    row comes alone, in a slice or in the full batch.  For the same reason
    the subsystems of one dimension share one Gram–Schmidt, their samples
    side by side.  The Ginibre scale is left out, since Gram–Schmidt does
    not depend on it.  A column whose residual norm is exactly zero raises
    NoConvergence.
    """
    S, blocks, factors = len(N), np.split(N, np.cumsum([2 * d * d for d in dims])[:-1], axis=1), [None] * len(dims)
    for d in set(dims):
        ks = [k for k, dk in enumerate(dims) if dk == d]
        # Q[c, r, s] is entry (r, c) of sample s (of subsystem ks[s // S]), and reduce(np.add, ...) sums over r in order
        Q = np.empty((d, d, len(ks) * S), dtype=np.complex128)  # C order: a column's samples are contiguous
        np.concatenate([blocks[k].view(np.complex128).reshape(-1, d, d).T for k in ks], axis=2, out=Q)
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
        for j, k in enumerate(ks):
            factors[k] = np.ascontiguousarray(Q[:, :, j * S : (j + 1) * S].T)
    return factors


def haar_random_product_basis(dims: Sequence[int], sample_seed: int) -> ProductBasis:
    """Haar-uniform local basis per subsystem, deterministic per sample_seed (any integer); dims as for a state."""
    dims = checked_dims(dims)
    facs = _haar_batch(dims, _ginibre(np.random.default_rng(sample_seed % 2 ** 64), dims, 1))
    return ProductBasis(tuple(f[0] for f in facs))


def _batch_entropies(rho_mat: np.ndarray, projector_stacks: List[np.ndarray]) -> np.ndarray:
    """Base-2 Shannon entropy of rho's diagonal in each product basis, given by its `qmat.projectors`.

    The diagonals come from `qmat.product_diagonals`, which contracts rho one
    subsystem at a time and never forms the d_tot x d_tot basis.
    """
    return qmat.entropy_bits(qmat.product_diagonals(rho_mat, projector_stacks))


def _samples(rng: np.random.Generator, dims: Sequence[int], S: int) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The next S Haar samples drawn from rng: their factor stacks and the factors' `qmat.projectors`."""
    facs = _haar_batch(dims, _ginibre(rng, dims, S))
    return facs, qmat.projectors(facs)


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


def _lie(dims: Sequence[int]) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """Each subsystem's `_lie_basis`, and the table (take, coef) that gathers X_a = R G^_a.

    G^_a = 1 x G_a x 1 has at most one nonzero per column, so column c of
    R G^_a is coef[a, 0, c] times one column of R.  take[a] holds the flat
    index into R of every entry of X_a: (n, d_tot, d_tot) for the n =
    sum(d_k^2 - d_k) generators in subsystem order.
    """
    bases, cols, coefs = [_lie_basis(d) for d in dims], [], []
    for k, (d, G) in enumerate(zip(dims, bases)):
        lo, hi = math.prod(dims[:k]), math.prod(dims[k + 1 :])
        row = np.argmax(G != 0, axis=1)  # (a, y): the row of G_a's nonzero in column y, or 0
        # column (l, y, h) of X_a is column (l, row[a, y], h) of R times G_a[row[a, y], y]
        cols.append(((np.arange(lo)[:, None, None] * d + row[:, None, :, None]) * hi + np.arange(hi)).reshape(len(G), -1))
        coef = G.sum(axis=1)  # the one nonzero of each column, or 0
        coefs.append(np.broadcast_to(coef[:, None, :, None], (len(G), lo, d, hi)).reshape(len(G), -1))
    d_tot = math.prod(dims)
    take = np.arange(d_tot)[:, None] * d_tot + np.concatenate(cols)[:, None, :]
    return bases, take, np.concatenate(coefs)[:, None, :]


class _Plan(NamedTuple):
    """What the D search derives from the dims alone, made by `_plan`."""

    dims: Tuple[int, ...]
    eye: Tuple[np.ndarray, ...]  # the computational basis's factors
    take: np.ndarray  # `_lie`'s gather table
    coef: np.ndarray
    # per subsystem: d, the dimensions before and after it, and its `_lie_basis` G as the (d^2, d^2 - d)
    # matrix G.transpose(2, 1, 0), whose row (x, y) holds every G_b[y, x]
    subs: List[Tuple[int, int, int, np.ndarray]]
    # per dimension d: its `_lie_basis`, its subsystems and their columns of the coordinates x
    groups: List[Tuple[int, np.ndarray, List[int], List[slice]]]


def _plan(dims: Tuple[int, ...]) -> _Plan:
    """The descent plan of dims: `_lie`'s tables and every subsystem list and slice the descent reads."""
    bases, take, coef = _lie(dims)
    ends = np.cumsum([len(G) for G in bases]).tolist()
    cols = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
    subs = [(d, math.prod(dims[:k]), math.prod(dims[k + 1 :]), G.transpose(2, 1, 0).reshape(d * d, -1))
            for k, (d, G) in enumerate(zip(dims, bases))]
    groups = []
    for d in set(dims):
        ks = [k for k, dk in enumerate(dims) if dk == d]
        groups.append((d, bases[ks[0]], ks, [cols[k] for k in ks]))
    return _Plan(dims, computational_basis(dims).factors, take, coef, subs, groups)


def _derivatives(rho_mat: np.ndarray, factor_stacks: Sequence[np.ndarray], plan: _Plan) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient and Hessian of the diagonal entropy f(U_k exp(A_k)) at A = 0, for a batch of product bases.

    A factor moves as U_k exp(A_k), and A = sum_a x_a G^_a runs over the
    `_lie_basis` of each subsystem in turn, lifted to the whole space as
    G^_a = 1 x G_a x 1: sum(d_k^2 - d_k) coordinates.  `plan` is `_plan(dims)`.
    With R = B^dag rho B, p = diag R, lambda = log2 p and M_a = [R, G^_a]
    (the first derivative of R):

        g_a  = -sum_i lambda_i (M_a)_ii
        H_ab = -1/2 sum_ij (lambda_i - lambda_j) ((M_a)_ij (G^_b)_ji + (M_b)_ij (G^_a)_ji)
               - sum_i (M_a)_ii (M_b)_ii / (p_i ln 2)

    G^_a is never formed.  M_a = X_a + X_a^dag with X_a = R G^_a, which is
    one gather of R's entries by the plan's `_lie` table and one multiply by its
    coefficients for all a at once; it equals the matmul, as each entry is a
    single product.  As lambda_i - lambda_j is antisymmetric and G^_b
    anti-Hermitian, the X_a^dag half of each sum
    is the conjugate of the X_a half, so X_a alone gives both: (M_a)_ii =
    2 Re (X_a)_ii, and the sum against G^_b is 2 Re of a partial trace onto
    b's subsystem and one matmul.  Every product keeps the basis as its
    batch axis, so a row does not depend on its batch.  Returns g (S, n),
    H (S, n, n) and p (S, d_tot).
    """
    S = len(factor_stacks[0])
    B = factor_stacks[0]
    for F in factor_stacks[1:]:
        a, d = B.shape[-1], F.shape[-1]
        B = (B[:, :, None, :, None] * F[:, None, :, None, :]).reshape(S, a * d, a * d)
    R = B.conj().swapaxes(1, 2) @ rho_mat @ B
    p = R.diagonal(axis1=1, axis2=2).real
    # where p_i = 0, row and column i of R vanish, so any finite floor will do
    pc = np.maximum(p, 1e-300)
    lam = np.log2(pc)
    X = np.take(R.reshape(S, -1), plan.take, axis=1)
    X *= plan.coef
    J = 2.0 * X.diagonal(axis1=2, axis2=3).real
    g = -(J @ lam[:, :, None])[:, :, 0]
    N = X
    N *= (lam[:, :, None] - lam[:, None, :])[:, None]
    W = []
    for d, lo, hi, Gt in plan.subs:
        # sum_ij N_ij (G^_b)_ji = sum_xy Tr_{not k}(N)[x, y] G_b[y, x]
        Nk = np.einsum("saljhlkh->sajk", N.reshape(S, -1, lo, d, hi, lo, d, hi))
        W.append(Nk.reshape(S, -1, d * d) @ Gt)
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


def _newton(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Saddle-free Newton steps from a batch of `_derivatives`' gradients g and Hessians H.

    The step is -V diag(1/max(|w|, `_EIG_FLOOR`)) V^T g for H = V diag(w) V^T,
    so it descends at saddles too, and it is scaled back to length `_RADIUS`
    if longer.  It is returned in the coordinates x of `_derivatives`: one
    (S, sum(d_k^2 - d_k)) array.
    """
    w, V = np.linalg.eigh(H)
    x = -np.einsum("sab,sb->sa", V, np.einsum("sba,sb->sa", V, g) / np.maximum(np.abs(w), _EIG_FLOOR))
    norm = np.sqrt(np.einsum("sa,sa->s", x, x))
    x *= np.minimum(1.0, _RADIUS / np.maximum(norm, 1e-300))[:, None]
    return x


def _descend(
    rho_mat: np.ndarray, stacks: Sequence[np.ndarray], h: np.ndarray, max_rounds: int, plan: _Plan
) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray, np.ndarray, Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Saddle-free Newton descent on the product of unitary groups, from every start at once.

    Every start's `_derivatives` (g, H, p) are taken once, before round 1,
    at max_rounds = 0 too.  A round moves each live start along its
    `_newton` step x, kept in Lie coordinates until here, as U_k exp(t A_k)
    with A_k = sum_a x_a G_a over subsystem k's `_lie_basis`, for the steps t
    in `_TRIALS`, scored in one call, and takes the lowest if it is below the
    start's entropy; the derivatives are then taken there.  A start stops at
    gradient norm `_GRAD_TOL`, at `max_rounds` rounds, or after its first
    round with no lower step, which counts as a round but not as an accepted
    one and leaves its factors, entropy and derivatives as they were.  Every
    per-start array is indexed by start number for the whole call; every
    table of the dims alone is read from `plan`, `_plan(dims)`.  A round
    gathers the live starts by index, turns the factors of every subsystem
    of dimension d in one `_rotate` call, and writes the accepted steps back.
    Returns new factor stacks, entropies, rounds, accepted rounds, and the
    derivatives at every start and at every end (its last accepted
    position), each a new (g, H, p).
    """
    n = len(h)
    U, h = [np.array(F) for F in stacks], np.array(h)
    first = _derivatives(rho_mat, U, plan)
    g, H, p = (np.array(v) for v in first)
    rounds, accepts, live = np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.full(n, max_rounds > 0)
    while True:
        live &= (np.einsum("sa,sa->s", g, g) > _GRAD_TOL ** 2) & (rounds < max_rounds)
        i = np.flatnonzero(live)
        if not len(i):
            return U, h, rounds, accepts, first, (g, H, p)
        m, trials, xi = len(i), {}, _newton(g[i], H[i])
        for d, G, ks, cols in plan.groups:
            A = np.einsum("sa,aij->sij", np.concatenate([xi[:, c] for c in cols]), G)
            moved = _rotate(np.concatenate([U[k][i] for k in ks]), A, _TRIALS)
            trials.update((k, moved[j * m : (j + 1) * m]) for j, k in enumerate(ks))
        stepped = qmat.projectors([trials[k].reshape(-1, d, d) for k, d in enumerate(plan.dims)])
        ent = _batch_entropies(rho_mat, stepped).reshape(m, -1)
        step = np.argmin(ent, axis=1)
        low = ent[np.arange(m), step]
        ok = low < h[i]
        rounds[i] += 1
        accepts[i] += ok
        a = i[ok]
        for k, F in enumerate(U):
            F[a] = trials[k][ok, step[ok]]
        h[a], live[i] = low[ok], ok
        if len(a):
            g[a], H[a], p[a] = _derivatives(rho_mat, [F[a] for F in U], plan)


def marginal_eigenbasis(rho: DensityMatrix) -> ProductBasis:
    """Product of the marginals' `qmat.herm_eig` eigenbases (canonical on degenerate eigenspaces), read-only views kept on rho."""
    bases = {d: iter(V) for d, (_, V) in qmat.marginal_eigs(rho).items()}
    return ProductBasis(tuple(next(bases[d]) for d in rho.dims))


def computational_basis(dims: Sequence[int]) -> ProductBasis:
    return ProductBasis(tuple(np.eye(int(d), dtype=np.complex128) for d in dims))


def min_diag_entropy(rho: DensityMatrix, cfg: SearchConfig) -> Tuple[float, ProductBasis, dict]:
    """Smallest diagonal entropy found over fixed, sampled and descended product bases.

    The starts are one set of arrays: the computational basis and the
    marginal eigenbasis, then the best `_N_STARTS` samples by (entropy,
    index).  Each chunk of `chunk_size` samples is scored once and appended
    to the set, which is then trimmed back, so memory does not grow with
    the number of samples.  The plan, and the samples of a search of one
    chunk, are kept on cfg (see `SearchConfig`).  The first lowest start is
    the best start.
    `_descend` runs from every start; its first lowest basis replaces the
    best start if it is lower by more than `_MARGIN`.  Only the witness goes
    through the checked `qmat.diag_probs`, and its gradient norm and least
    Hessian eigenvalue come from the derivatives `_descend` took at it,
    before round 1 or at its last accepted step.

    Returns (entropy in bits, witness basis, diagnostics).  The result is an
    upper bound on the true minimum and is bit-identical for identical cfg,
    regardless of chunk size.
    """
    dims, n = rho.dims, cfg.n_samples
    plan = kept(cfg._kept, ("plan", dims), lambda: _plan(dims))
    # the samples' stream, made at the first draw, so a kept set is its first n draws
    rng = cache(lambda: np.random.default_rng(cfg.seed % 2 ** 64))
    stacks = [np.array(f) for f in zip(plan.eye, marginal_eigenbasis(rho).factors)]
    h, idx = _batch_entropies(rho.mat, qmat.projectors(stacks)), np.array([-2, -1])
    for lo in range(0, n, cfg.chunk_size):
        new = np.arange(lo, min(lo + cfg.chunk_size, n))
        make = lambda: _samples(rng(), dims, len(new))
        facs, projs = kept(cfg._kept, ("samples", dims), make) if len(new) == n else make()
        h, idx = np.concatenate([h, _batch_entropies(rho.mat, projs)]), np.concatenate([idx, new])
        # kept samples precede the chunk's and have lower indices, so a stable sort ties by index
        keep = np.concatenate([_FIXED, 2 + np.argsort(h[2:], kind="stable")[:_N_STARTS]])
        h, idx, stacks = h[keep], idx[keep], [np.concatenate(pair)[keep] for pair in zip(stacks, facs)]

    sources = ["computational", "marginal-eigenbasis", *(f"sample:{i}" for i in idx[2:])]
    descended, h_desc, rounds, accepts, at_start, at_end = _descend(rho.mat, stacks, h, cfg.refine_steps, plan)
    first, i = int(np.argmin(h)), int(np.argmin(h_desc))
    if h_desc[i] < h[first] - _MARGIN:
        j, best, at, best_source = i, descended, at_end, "refine"
    else:
        j, best, at, best_source = first, stacks, at_start, sources[first]

    witness = ProductBasis(tuple(F[j] for F in best))
    g, H, p = (x[j] for x in at)  # the derivatives the descent took there
    gradient_norm = float(np.sqrt(g @ g))
    diagnostics = {
        "samples_evaluated": n,
        "refine_steps": int(rounds.sum()),
        "refine_accepts": int(accepts.sum()),
        "best_source": best_source,
        "start": sources[j],
        "start_rounds": rounds.tolist(),
        "gradient_norm": gradient_norm,
        "converged": gradient_norm <= _GRAD_TOL,
        # the entropy is not smooth where a diagonal entry vanishes
        "hessian_min_eig": float(np.linalg.eigvalsh(H)[0]) if p.min() >= _SMOOTH_FLOOR else None,
    }
    return float(qmat.entropy_bits(qmat.diag_probs(rho, witness))), witness, diagnostics
