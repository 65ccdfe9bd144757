"""Minimization of the product-basis diagonal entropy.

Random search over Haar product bases with two deterministic seed
candidates (computational basis and the marginal eigenbases) and an
optional hill-climb refinement, all scored by `_batch_entropies`.  The
samples are counter-based: the basis for sample i depends only on (seed, i),
so results are independent of batching and monotone in the number of
samples.  Each Haar factor is the unitary of a QR decomposition of a complex
Gaussian matrix, with R's diagonal real and positive; `_haar_batch` computes
it by Gram–Schmidt in whole-batch elementwise arithmetic, so a sample comes
out bit-identical whatever batch it is made in.  The hill-climb draws from
`default_rng(SeedSequence([seed, _REFINE_TAG]))`.
"""
from __future__ import annotations

import math
from functools import reduce
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, NoConvergence, ParamOutOfRange, ProductBasis
from . import qmat

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_REFINE_TAG = 0x5EEDFACE
_REFINE_STEP = 0.1  # initial hill-climb step; shrinks by 0.9 per rejected trial


@dataclass(frozen=True)
class SearchConfig:
    n_samples: int = 40000
    seed: int = 1
    refine_steps: int = 200
    chunk_size: int = 8192  # evaluation batch size; never affects results

    def __post_init__(self):
        if self.n_samples < 0 or self.refine_steps < 0:
            raise ParamOutOfRange("n_samples and refine_steps must be >= 0")
        if self.chunk_size < 1:
            raise ParamOutOfRange("chunk_size must be >= 1")


def mix64(x) -> np.ndarray:
    """Splitmix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=np.uint64)
        x = (x ^ (x >> np.uint64(30))) * _C1
        x = (x ^ (x >> np.uint64(27))) * _C2
        return x ^ (x >> np.uint64(31))


def sample_key(seed: int, index) -> np.ndarray:
    """Per-sample key: a 64-bit mix of the master seed and the sample index."""
    with np.errstate(over="ignore"):
        s = np.uint64(seed % (1 << 64))
        idx = np.asarray(index, dtype=np.uint64)
        return mix64(mix64(s) ^ (idx + _GAMMA))


def _normals(keys: np.ndarray, count: int) -> np.ndarray:
    """(len(keys), count) standard normals from counter-based uniforms."""
    n_u = count + (count % 2)
    with np.errstate(over="ignore"):
        offs = (np.arange(1, n_u + 1, dtype=np.uint64)) * _GAMMA
        z = mix64(keys[:, None] + offs[None, :])
    u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)  # (0, 1]
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = (2.0 * math.pi) * u[:, 1::2]
    out = np.empty_like(u)
    out[:, 0::2] = r * np.cos(theta)
    out[:, 1::2] = r * np.sin(theta)
    return out[:, :count]


def _haar_batch(dims: Sequence[int], keys: np.ndarray) -> List[np.ndarray]:
    """One Haar-random unitary per subsystem per key; C-ordered stacks of shape (S, d, d).

    Each factor is the Q of a QR decomposition of a complex Ginibre matrix,
    with the phases fixed so that R has a real, positive diagonal (Mezzadri,
    Notices AMS 54, 2007).  That Q is computed directly, by Gram–Schmidt on
    the matrix's columns, each orthogonalised twice against the columns
    before it and then normalised.  The columns are real and imaginary
    (d, S) arrays with the samples contiguous, and all arithmetic is
    elementwise real ufuncs with every d-term sum added in a fixed order, so
    a sample's factors depend only on its key: they are bit-identical
    whether the key comes alone, in a slice or in the full batch.  The
    Ginibre scale is left out, since Gram–Schmidt does not depend on it.  A
    column whose residual norm is exactly zero raises NoConvergence.
    """
    S = len(keys)
    counts = [2 * d * d for d in dims]
    N = _normals(keys, sum(counts))
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
    """Haar-uniform local basis per subsystem, deterministic per sample_seed."""
    keys = mix64(np.array([sample_seed % (1 << 64)], dtype=np.uint64) + _GAMMA)
    facs = _haar_batch(tuple(int(d) for d in dims), keys)
    return ProductBasis(tuple(f[0] for f in facs))


def _batch_entropies(rho_mat: np.ndarray, factor_stacks: List[np.ndarray]) -> np.ndarray:
    """Base-2 Shannon entropy of rho's diagonal in each sampled product basis.

    The diagonals come from `qmat.product_diagonals`, which contracts rho one
    subsystem at a time and never forms the d_tot x d_tot basis.
    """
    P = qmat.product_diagonals(rho_mat, factor_stacks)
    P = np.where(P > 0.0, P, 0.0)
    logs = np.log2(np.where(P > 0.0, P, 1.0))
    return -(P * logs).sum(axis=1)


def unitary_from_antiherm(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A via the eigendecomposition of -iA."""
    Hm = -1j * A
    Hm = (Hm + Hm.conj().T) / 2.0
    w, V = np.linalg.eigh(Hm)
    return (V * np.exp(1j * w)) @ V.conj().T


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


# cache of sampled basis factors keyed by (dims, seed, n_samples); the samples
# do not depend on the state, so sweeps over a family reuse them; read-only,
# because a witness taken from a sample is a view into them
_SAMPLE_CACHE: Dict[tuple, List[np.ndarray]] = {}
_SAMPLE_CACHE_MAX = 4


def _sampled_factors(dims: Tuple[int, ...], seed: int, n_samples: int) -> List[np.ndarray]:
    key = (dims, seed, n_samples)
    if key not in _SAMPLE_CACHE:
        if len(_SAMPLE_CACHE) >= _SAMPLE_CACHE_MAX:
            _SAMPLE_CACHE.pop(next(iter(_SAMPLE_CACHE)))
        keys = sample_key(seed, np.arange(n_samples, dtype=np.uint64))
        stacks = _haar_batch(dims, keys)
        for F in stacks:
            F.setflags(write=False)
        _SAMPLE_CACHE[key] = stacks
    return _SAMPLE_CACHE[key]


def min_diag_entropy(
    rho: DensityMatrix,
    cfg: SearchConfig,
    extra_candidates: Sequence[ProductBasis] = (),
) -> Tuple[float, ProductBasis, dict]:
    """Smallest diagonal entropy found over candidate and sampled product bases.

    `_batch_entropies` scores the fixed candidates in one batch (the first
    minimum wins), the samples chunk by chunk and each hill-climb trial as a
    batch of one.  Only the extra candidates (up front) and the witness go
    through the checked `qmat.diag_probs`, and the returned entropy comes
    from the witness's checked diagonal.

    Returns (entropy in bits, witness basis, diagnostics).  The result is an
    upper bound on the true minimum and is bit-identical for identical cfg,
    regardless of chunk size.
    """
    dims = rho.dims
    for basis in extra_candidates:
        qmat.diag_probs(rho, basis)  # same errors for bad caller input as for a witness
    candidates = [computational_basis(dims), marginal_eigenbasis(rho), *extra_candidates]
    ent = _batch_entropies(rho.mat, [np.stack(f) for f in zip(*(b.factors for b in candidates))])
    i = int(np.argmin(ent))
    best = float(ent[i])
    factors = candidates[i].factors
    best_source = ("computational", "marginal-eigenbasis")[i] if i < 2 else f"extra:{i - 2}"

    n = cfg.n_samples
    if n > 0:
        stacks = _sampled_factors(dims, cfg.seed, n)
        for lo in range(0, n, cfg.chunk_size):
            chunk = [F[lo : lo + cfg.chunk_size] for F in stacks]
            ent = _batch_entropies(rho.mat, chunk)
            i = int(np.argmin(ent))
            if ent[i] < best:
                best = float(ent[i])
                factors = [F[i] for F in chunk]
                best_source = f"sample:{lo + i}"

    accepts = 0
    if cfg.refine_steps > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed % (1 << 64), _REFINE_TAG])
        )
        step = _REFINE_STEP
        m = len(dims)
        for _ in range(cfg.refine_steps):
            k = int(rng.integers(0, m))
            d = dims[k]
            X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            A = (X - X.conj().T) / 2.0
            nrm = float(np.linalg.norm(A))
            if nrm == 0.0:
                continue
            trial = list(factors)
            trial[k] = factors[k] @ unitary_from_antiherm(A * (step / nrm))
            h = float(_batch_entropies(rho.mat, [f[None] for f in trial])[0])
            if h < best:
                best = h
                factors = trial
                best_source = "refine"
                accepts += 1
            else:
                step *= 0.9

    witness = ProductBasis(tuple(factors))
    diagnostics = {
        "samples_evaluated": n,
        "refine_steps": cfg.refine_steps,
        "refine_accepts": accepts,
        "best_source": best_source,
    }
    return qmat.shannon_entropy(qmat.diag_probs(rho, witness)), witness, diagnostics
