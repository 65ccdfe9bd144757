"""Minimization of the product-basis diagonal entropy.

Random search over Haar product bases with two deterministic seed
candidates (computational basis and the marginal eigenbases) and an
optional hill-climb refinement.  Every basis is scored by
`_batch_entropies`, a batch at a time, and one keep-the-first-minimum rule
decides which basis is kept.  The samples are counter-based: the basis for
sample i depends only on (seed, i), so results are independent of batching
and monotone in the number of samples.  Each Haar factor is the unitary of
a QR decomposition of a complex Gaussian matrix, with R's diagonal real and
positive; `_haar_batch` computes it by Gram–Schmidt in whole-batch
elementwise arithmetic, so a sample comes out bit-identical whatever batch
it is made in.  Hill-climb trial j draws from the same counter at index
n_samples + j, with I/step added to the Gaussian matrix so its factors lie
within about `step` of the identity.

Making and scoring the samples is split into work units (`_MAKE_CHUNK`
samples made, `chunk_size` samples scored per unit) that the caller runs
together with one helper thread per further usable CPU, at most
`_MAX_THREADS` threads in all.  numpy releases the GIL in the arithmetic,
each unit writes only its own rows or its own entropies, and the entropies
are reduced in sample order, so the result is the same bit for bit on any
number of CPUs.  The hill-climb stays serial: each round starts from the
best basis of the last.
"""
from __future__ import annotations

import math
import os
import threading
from functools import lru_cache, reduce
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

from .core import DensityMatrix, NoConvergence, ParamOutOfRange, ProductBasis
from . import qmat

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_REFINE_STEP = 0.05  # initial hill-climb step; shrinks by 0.8 after a round with no gain
_REFINE_BATCH = 8  # hill-climb trials per round, scored in one kernel call
_REFINE_MIN_STEP = 2.0 ** -26  # sqrt(eps): near an optimum a step s moves the entropy by ~s**2
_MAKE_CHUNK = 2048  # samples made per work unit when filling the cache
_MAX_THREADS = 3  # D-search threads per call; each holds one unit's temporaries
T = TypeVar("T")


@dataclass(frozen=True)
class SearchConfig:
    n_samples: int = 40000
    seed: int = 1
    refine_steps: int = 200
    chunk_size: int = 2048  # samples per work unit; never affects results

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


def _haar_batch(dims: Sequence[int], keys: np.ndarray, shift: float = 0.0) -> List[np.ndarray]:
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
    nonzero `shift` is added to each Gaussian matrix's diagonal first, so
    the factors lie within about 1/shift of the identity.  A column whose
    residual norm is exactly zero raises NoConvergence.
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
        if shift:
            Re[np.diag_indices(d)] += shift
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
    return qmat.entropy_bits(np.where(P > 0.0, P, 0.0))


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_units(work: Callable[[int], T], starts: Sequence[int]) -> List[T]:
    """[work(lo) for lo in starts], run by the caller and one helper thread per further usable CPU.

    At most `_MAX_THREADS` threads run, the caller included, and never more
    than there are units.  Each takes the next unit until none is left; the
    helpers are started here and joined before returning, so no thread
    outlives the call.  Results come in the order of `starts`.  The first
    exception stops the handing out of units and is raised in the caller,
    with its type, once every thread has stopped.
    """
    results: List[T] = [None] * len(starts)
    units = iter(range(len(starts)))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def drain() -> None:
        while True:
            with lock:
                u = None if errors else next(units, None)
            if u is None:
                return
            try:
                results[u] = work(starts[u])
            except BaseException as exc:
                errors.append(exc)
                return

    helpers = [threading.Thread(target=drain, name="nccorr-search", daemon=True)
               for _ in range(min(_usable_cpus(), _MAX_THREADS, len(starts)) - 1)]
    for th in helpers:
        th.start()
    drain()
    for th in helpers:
        th.join()
    if errors:
        raise errors[0]
    return results


@lru_cache(maxsize=4)
def _sampled_factors(dims: Tuple[int, ...], seed: int, n_samples: int) -> Tuple[np.ndarray, ...]:
    """Factor stacks of samples 0 .. n_samples-1, cached for the last four (dims, seed, n_samples).

    The samples do not depend on the state, so sweeps over a family reuse
    them.  They are read-only, because a witness taken from a sample is a
    view into them.  A sample does not depend on its batch, so they are made
    in units of `_MAKE_CHUNK`, each writing its own rows: a new set needs
    the Gaussians of one unit per thread.
    """
    keys = sample_key(seed, np.arange(n_samples, dtype=np.uint64))
    stacks = tuple(np.empty((n_samples, d, d), dtype=np.complex128) for d in dims)

    def make(lo: int) -> None:
        for F, part in zip(stacks, _haar_batch(dims, keys[lo : lo + _MAKE_CHUNK])):
            F[lo : lo + _MAKE_CHUNK] = part

    _in_units(make, range(0, n_samples, _MAKE_CHUNK))
    for F in stacks:
        F.setflags(write=False)
    return stacks


def min_diag_entropy(
    rho: DensityMatrix,
    cfg: SearchConfig,
    extra_candidates: Sequence[ProductBasis] = (),
) -> Tuple[float, ProductBasis, dict]:
    """Smallest diagonal entropy found over candidate and sampled product bases.

    Every basis tried reaches `_batch_entropies` in a batch, and one rule
    keeps the first minimum of a batch if it is below the best so far: the
    fixed candidates in one batch, then the samples, scored `chunk_size` at
    a time in work units and taken in sample order, then the hill-climb in
    rounds of `_REFINE_BATCH` trials.  A trial multiplies each
    factor of the best basis by a factor near the identity, made by
    `_haar_batch` at sample index n_samples + j with shift 1/step; after a
    round with no gain the step shrinks, and below sqrt(eps) the climb ends.
    Only the extra candidates (up front) and the witness go through the
    checked `qmat.diag_probs`, whose witness diagonal gives the entropy.

    Returns (entropy in bits, witness basis, diagnostics).  The result is an
    upper bound on the true minimum and is bit-identical for identical cfg,
    regardless of chunk size and of the number of CPUs.
    """
    dims = rho.dims
    for basis in extra_candidates:
        qmat.diag_probs(rho, basis)  # same errors for bad caller input as for a witness
    best, factors, best_source = math.inf, None, None

    def keep_first_min(stacks: Sequence[np.ndarray], ent: np.ndarray, source) -> bool:
        nonlocal best, factors, best_source
        i = int(np.argmin(ent))
        if not ent[i] < best:
            return False
        best, factors, best_source = float(ent[i]), [F[i] for F in stacks], source(i)
        return True

    candidates = [computational_basis(dims), marginal_eigenbasis(rho), *extra_candidates]
    stacks = [np.stack(f) for f in zip(*(b.factors for b in candidates))]
    keep_first_min(
        stacks,
        _batch_entropies(rho.mat, stacks),
        lambda i: ("computational", "marginal-eigenbasis")[i] if i < 2 else f"extra:{i - 2}",
    )

    n, chunk = cfg.n_samples, cfg.chunk_size
    if n > 0:
        stacks = _sampled_factors(dims, cfg.seed, n)
        scores = _in_units(lambda lo: _batch_entropies(rho.mat, [F[lo : lo + chunk] for F in stacks]),
                           range(0, n, chunk))
        keep_first_min(stacks, np.concatenate(scores), lambda i: f"sample:{i}")

    accepts, step = 0, _REFINE_STEP
    for lo in range(0, cfg.refine_steps, _REFINE_BATCH):
        idx = np.arange(n + lo, n + min(lo + _REFINE_BATCH, cfg.refine_steps), dtype=np.uint64)
        near_identity = _haar_batch(dims, sample_key(cfg.seed, idx), shift=1.0 / step)
        trials = [F @ Q for F, Q in zip(factors, near_identity)]
        if keep_first_min(trials, _batch_entropies(rho.mat, trials), lambda i: "refine"):
            accepts += 1
        elif (step := step * 0.8) < _REFINE_MIN_STEP:
            break

    witness = ProductBasis(tuple(factors))
    diagnostics = {
        "samples_evaluated": n,
        "refine_steps": cfg.refine_steps,
        "refine_accepts": accepts,
        "best_source": best_source,
    }
    return qmat.shannon_entropy(qmat.diag_probs(rho, witness)), witness, diagnostics
