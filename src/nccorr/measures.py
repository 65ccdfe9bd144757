"""The five correlation quantifiers: D, G, D_G, K and negativity N."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, DimensionMismatch, PartitionCapExceeded
from . import qmat
from .search import SearchConfig, marginal_eigenbasis, min_diag_entropy

DEFAULT_PARTITION_CAP = 1 << 24
_ENUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class Partition:
    """Bin index per total-system eigenvalue, for subsystem k."""

    k: int
    assignment: Tuple[int, ...]


@dataclass(frozen=True)
class MeasureReport:
    measure: str
    value: float
    witness: object
    diagnostics: dict = field(default_factory=dict)


def _neg_entropy_seq(vals: np.ndarray) -> np.float64:
    """Sum of x log2 x accumulated in index order (0 log 0 = 0).

    The fixed accumulation order makes the value bit-reproducible against a
    naive per-assignment loop.
    """
    acc = np.float64(0.0)
    for x in vals:
        if x > 0.0:
            acc += x * np.log2(x)
    return acc


def _grow(
    counts: np.ndarray, sums: np.ndarray, idx: np.ndarray, e: np.float64, bin_size: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend every row by one digit whose bin has room, in counter order."""
    d = counts.shape[1]
    parent, digit = np.divmod(np.flatnonzero(counts < bin_size), d)
    idx = idx[parent] * d + digit
    # take() returns new C-contiguous arrays, so ravel() below is a view of
    # them; flat indexing is several times faster than [rows, digit] here.
    counts = counts.take(parent, axis=0)
    sums = sums.take(parent, axis=0)
    flat = np.arange(0, counts.size, d) + digit
    counts.ravel()[flat] += 1
    sums.ravel()[flat] += e
    return counts, sums, idx


def _completions(room: np.ndarray) -> int:
    """Number of ways to fill the remaining bin room: a multinomial coefficient."""
    return math.factorial(int(room.sum())) // math.prod(math.factorial(int(r)) for r in room)


def _min_balanced_partition(
    e_tot: np.ndarray, targets: Sequence[np.float64], d: int
) -> Tuple[List[Tuple[np.float64, Tuple[int, ...]]], int]:
    """Minimize |sum etilde log etilde - s| over partitions, for each target s.

    Partitions place the d_tot total eigenvalues into d equal-size bins
    (d_tot/d each); bin sums are the mimic eigenvalues.  Only balanced
    assignments are generated, one eigenvalue (digit) at a time and only
    into bins with room; each row carries its bin counts, bin sums and
    base-d counter index (eigenvalue 0 is the most significant digit).  A
    prefix with more than ``_ENUM_CHUNK`` completions is split on its next
    digit, so at most ``_ENUM_CHUNK`` rows are held at once.

    The bin sums depend only on e_tot and d, so one walk serves every
    target s = sum e_red log e_red of the subsystems of dimension d; each
    target keeps its own minimum.  Bit-identical to a plain counter loop
    per target that skips unbalanced assignments
    (``verify.naive_measure_G``): bin sums accumulate ``e_tot[j]`` for
    j = 0, 1, ..., and rows are evaluated in counter order, so ``np.argmin``
    and the strict ``<`` across passes keep the first minimum.  Returns one
    (minimum, assignment) per target and the number of assignments the walk
    evaluated.
    """
    d_tot = len(e_tot)
    bin_size = d_tot // d
    powers = np.array([d ** (d_tot - 1 - j) for j in range(d_tot)], dtype=np.int64)

    best_val: List[Optional[np.float64]] = [None] * len(targets)
    best_idx = [-1] * len(targets)
    evaluated = 0

    def visit(counts: np.ndarray, sums: np.ndarray, idx: np.ndarray, j: int) -> None:
        """Evaluate every balanced completion of one prefix row at level j."""
        nonlocal evaluated
        if _completions(bin_size - counts[0]) > _ENUM_CHUNK:
            counts, sums, idx = _grow(counts, sums, idx, e_tot[j], bin_size)
            for r in range(len(idx)):
                visit(counts[r : r + 1], sums[r : r + 1], idx[r : r + 1], j + 1)
            return
        for jj in range(j, d_tot):
            counts, sums, idx = _grow(counts, sums, idx, e_tot[jj], bin_size)
        T = np.zeros(len(idx))
        for b in range(d):
            x = sums[:, b]
            T += np.where(x > 0.0, x, 0.0) * np.log2(np.where(x > 0.0, x, 1.0))
        for t, s_red in enumerate(targets):
            vals = np.abs(T - s_red)
            i = int(np.argmin(vals))
            if best_val[t] is None or vals[i] < best_val[t]:
                best_val[t] = np.float64(vals[i])
                best_idx[t] = int(idx[i])
        evaluated += len(idx)

    visit(np.zeros((1, d), dtype=np.int64), np.zeros((1, d)), np.zeros(1, dtype=np.int64), 0)
    assert min(best_idx) >= 0
    best = [(v, tuple(int((i // int(p)) % d) for p in powers)) for v, i in zip(best_val, best_idx)]
    return best, evaluated


def _bipartite_splittings(m: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All 2^(m-1) - 1 splittings, subsystem 0 always on side A."""
    if m < 2:
        raise DimensionMismatch(f"K and N need at least 2 subsystems, got {m}")
    out = []
    for mask in range(1 << (m - 1)):
        side_a = [0] + [k for k in range(1, m) if mask & (1 << (k - 1))]
        if len(side_a) == m:
            continue
        side_b = [k for k in range(1, m) if k not in side_a]
        out.append((tuple(side_a), tuple(side_b)))
    return out


def measure_D(rho: DensityMatrix, cfg: SearchConfig = SearchConfig()) -> MeasureReport:
    """Minimum product-basis diagonal entropy minus the von Neumann entropy.

    It depends on rho alone; cfg sets how hard `min_diag_entropy` searches.
    Search-based: the reported value is an upper bound on the true D.
    """
    h_min, basis, diag = min_diag_entropy(rho, cfg)
    s_vn = qmat.von_neumann_entropy(rho)
    diag = dict(diag, min_diag_entropy=h_min, von_neumann_entropy=s_vn)
    return MeasureReport("D", h_min - s_vn, basis, diag)


def measure_G(rho: DensityMatrix, partition_cap: int = DEFAULT_PARTITION_CAP) -> MeasureReport:
    """max over subsystems k of the minimal mimic-eigenvalue discrepancy F_k.

    The cap (on d_k^d_tot) is checked for every subsystem before any walk.
    Subsystems of one dimension share one walk; F_k, the witnesses and
    ``assignments_evaluated`` (each subsystem's count) stay in k order.
    """
    e_tot = qmat.density_spectrum(rho)
    d_tot = len(e_tot)
    for d in rho.dims:
        if d ** d_tot > partition_cap:
            raise PartitionCapExceeded(f"{d}^{d_tot} = {d ** d_tot} exceeds cap {partition_cap}")
    targets = [
        _neg_entropy_seq(qmat.density_spectrum(qmat.partial_trace(rho, [k])))
        for k in range(rho.n_subsystems)
    ]
    walks = {}
    f_values = {}
    evaluated = {}
    witnesses = []
    for k, d in enumerate(rho.dims):
        if d not in walks:
            group = [t for t, dt in zip(targets, rho.dims) if dt == d]
            walks[d] = _min_balanced_partition(e_tot, group, d)
        best, evaluated[k] = walks[d]
        fk, assignment = best[rho.dims[:k].count(d)]
        f_values[k] = float(fk)
        witnesses.append(Partition(k, assignment))
    value = max(f_values.values())
    return MeasureReport(
        "G", value, witnesses, {"F_k": f_values, "assignments_evaluated": evaluated}
    )


def measure_DG(rho: DensityMatrix) -> MeasureReport:
    """Entropy gained by dephasing in the product basis of the marginal eigenbases."""
    basis = marginal_eigenbasis(rho)
    h = qmat.shannon_entropy(qmat.diag_probs(rho, basis))
    s_vn = qmat.von_neumann_entropy(rho)
    return MeasureReport(
        "DG", h - s_vn, basis, {"dephased_entropy": h, "von_neumann_entropy": s_vn}
    )


def _min_over_splittings(
    name: str, rho: DensityMatrix, value_of_pt_spectrum: Callable[[np.ndarray], float]
) -> MeasureReport:
    """Minimum over all bipartite splittings of a value of the sorted
    partial-transpose spectrum; the first minimal splitting is the witness."""
    best = None
    witness = None
    per_split = {}
    for side_a, side_b in _bipartite_splittings(rho.n_subsystems):
        et, _ = qmat.herm_eig(qmat.partial_transpose(rho, side_b))
        val = value_of_pt_spectrum(et)
        per_split[f"{side_a}|{side_b}"] = val
        if best is None or val < best:
            best = val
            witness = (side_a, side_b)
    return MeasureReport(name, best, witness, {"per_splitting": per_split})


def measure_K(rho: DensityMatrix) -> MeasureReport:
    """L1 distance between the sorted spectra of rho and its partial transpose.

    Multipartite inputs take the minimum over all bipartite splittings; the
    spectrum of rho is computed once and shared by every splitting.
    """
    e = qmat.herm_eig(rho.mat)[0]
    return _min_over_splittings("K", rho, lambda et: float(np.sum(np.abs(e - et))))


def _negative_mass(et: np.ndarray) -> float:
    neg = et[et < 0.0]
    return float(-neg.sum()) if neg.size else 0.0


def negativity(rho: DensityMatrix) -> MeasureReport:
    """Absolute sum of the negative partial-transpose eigenvalues (no factor 2)."""
    return _min_over_splittings("N", rho, _negative_mass)


# Name -> (rho, cfg, partition_cap) -> report, in CSV column order.  Each entry
# looks its measure function up when called, so a replaced module attribute
# (a span tracer, a test stub) is what every caller of the table reaches.
MEASURES: Dict[str, Callable[[DensityMatrix, SearchConfig, int], MeasureReport]] = {
    "D": lambda rho, cfg, cap: measure_D(rho, cfg),
    "G": lambda rho, cfg, cap: measure_G(rho, cap),
    "DG": lambda rho, cfg, cap: measure_DG(rho),
    "K": lambda rho, cfg, cap: measure_K(rho),
    "N": lambda rho, cfg, cap: negativity(rho),
}
