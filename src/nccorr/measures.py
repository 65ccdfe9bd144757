"""The five correlation quantifiers: D, G, D_G, K and negativity N."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import DensityMatrix, DimensionMismatch, PartitionCapExceeded, kept
from . import qmat
from .search import SearchConfig, marginal_eigenbasis, min_diag_entropy

DEFAULT_PARTITION_CAP = 1 << 18


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


def _neg_entropy_seq(vals: np.ndarray) -> np.ndarray:
    """Sum of x log2 x over the last axis of non-negative 1-D or 2-D vals, in index order.

    0 log 0 = 0; vals are `density_spectrum` output, clamped to be
    non-negative, or bin sums of it.  The fixed accumulation order makes the
    value bit-reproducible against a naive per-assignment loop; a 1-D input
    gives an np.float64.
    """
    acc = np.float64(0.0)
    for x in vals.T:
        # adding 1 where x == 0 gives log2 1 = 0 there; unlike np.where it
        # costs no array round trip on the scalars of a 1-D input
        acc += x * np.log2(x + (x == 0.0))
    return acc


def _grow(fill: np.ndarray, full: np.ndarray, gate_bin_1: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend every row by one digit whose bin has room, in counter order.

    ``fill[r, b]`` is b + d * (the eigenvalues row r has put in bin b): the
    slot code of bin b's next member.  Bin b has room while it is below
    ``full[b]`` = b + d * bin_size.  With ``gate_bin_1``, bin 1 opens to a
    row only once bin 0 holds an eigenvalue, so of two rows that swap bins 0
    and 1 (same adds, bit-identical sums) only the counter-first grows.  Past
    level (d-2)*bin_size every row has bin 0 filled, so the caller drops the gate.
    Returns the new rows' fill (in counter order), each new row's parent
    row, and each new digit's slot code: its bin's fill before the digit.
    """
    d = len(full)
    room = fill < full
    if gate_bin_1:
        room[:, 1] &= fill[:, 0] > 0
    parent, digit = np.divmod(np.flatnonzero(room), d)
    # take() returns a new C-contiguous array, so ravel() below is a view of
    # it; flat indexing is several times faster than [rows, digit] here.
    fill = fill.take(parent, axis=0)
    flat = np.arange(0, fill.size, d) + digit
    code = fill.ravel()[flat]
    fill.ravel()[flat] = code + d
    return fill, parent, code


# (d_tot, d) -> the member table of its `_walk`: structure only, never a spectrum
_WALKS: Dict[Tuple[int, int], np.ndarray] = {}


def _walk(d_tot: int, d: int) -> np.ndarray:
    """The member table of the balanced assignments, one row per kept assignment, in counter order.

    An assignment places the d_tot total eigenvalues into d equal-size bins
    (d_tot/d each).  Only balanced assignments are generated, one eigenvalue
    (digit) at a time and only into bins with room; the base-d counter reads
    eigenvalue 0 as the most significant digit.  Of two that swap bins 0
    and 1 only the counter-first is made (`_grow`): half of all
    d_tot!/((d_tot/d)!)^d, the count `measure_G`'s cap bounds.

    Digit j goes to slot b + d * m, bin b's fill (`_grow`).
    ``members[m, b, r]`` is then the m-th lowest eigenvalue index that row r
    puts in bin b; the table is all a row holds.
    """
    bin_size = d_tot // d
    # fill stays below d_tot + d, so the smallest dtype holding that serves
    full = np.arange(d, dtype=np.min_scalar_type(d_tot + d)) + d * bin_size
    fill = full[None] - d * bin_size
    slots = np.zeros((1, d_tot), dtype=np.min_scalar_type(d_tot - 1))
    for j in range(d_tot):
        fill, parent, code = _grow(fill, full, j <= (d - 2) * bin_size)
        slots = slots.take(parent, axis=0)
        slots.ravel()[np.arange(0, slots.size, d_tot) + code] = j
    return np.ascontiguousarray(slots.T).reshape(bin_size, d, len(slots))


def _bin_sums(e_tot: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(bin sums, members) of every kept balanced assignment, in counter order.

    The member table depends only on (d_tot, d), so it is kept, read-only,
    in `_WALKS` for later calls (`core.kept`; of concurrent first calls the
    first stored serves), and `_walk` runs only when it is not there.  Every
    bin sum adds ``e_tot[j]`` of its members in ascending j, onto 0.0: one
    member place of every row and bin is gathered at a time and added
    elementwise, never through numpy's pairwise sum, which a reduce over a
    last axis of 8 or more terms would use.
    """
    members = kept(_WALKS, (len(e_tot), d), lambda: _walk(len(e_tot), d))
    sums = e_tot.take(members[0]) + 0.0  # the first add onto 0.0
    for m in members[1:]:
        sums += e_tot.take(m)
    return sums.T, members


def _min_balanced_partition(
    e_tot: np.ndarray, targets: Sequence[np.float64], d: int
) -> Tuple[List[Tuple[np.float64, Tuple[int, ...]]], int]:
    """Minimize |sum etilde log etilde - s| over partitions, for each target s.

    The bin sums of `_bin_sums` are the mimic eigenvalues.  They depend only
    on e_tot and d, so one walk serves every target s = sum e_red log e_red
    of the subsystems of dimension d.  Each target keeps its own first
    minimum in counter order (one ``np.argmin``).  A skipped assignment comes
    after its swap partner and ties it bit for bit (bins 0 and 1 are added
    first, onto 0.0, and addition commutes), so the result is bit-identical
    to a plain counter loop over all balanced assignments
    (``verify.naive_measure_G``).  A minimum's assignment is read off its
    member column (place (m, b) is flat position m * d + b).
    Returns one (minimum, assignment) per target and the number evaluated.
    """
    sums, members = _bin_sums(e_tot, d)
    T = _neg_entropy_seq(sums)
    best = []
    for s_red in targets:
        vals = np.abs(T - s_red)
        i = int(np.argmin(vals))
        best.append((vals[i], tuple((np.argsort(members[:, :, i], axis=None) % d).tolist())))
    return best, len(T)


def _bipartite_splittings(m: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All 2^(m-1) - 1 splittings, subsystem 0 always on side A."""
    if m < 2:
        raise DimensionMismatch(f"K and N need at least 2 subsystems, got {m}")
    # the last mask would put every subsystem on side A
    for mask in range((1 << (m - 1)) - 1):
        side_a = [0] + [k for k in range(1, m) if mask & (1 << (k - 1))]
        side_b = [k for k in range(1, m) if k not in side_a]
        yield tuple(side_a), tuple(side_b)


def measure_D(rho: DensityMatrix, cfg: Optional[SearchConfig] = None) -> MeasureReport:
    """Minimum product-basis diagonal entropy minus the von Neumann entropy.

    It depends on rho alone; cfg sets how hard `min_diag_entropy` searches,
    and None means a fresh `SearchConfig()` for this call alone.
    Search-based: the reported value is an upper bound on the true D.
    """
    h_min, basis, diag = min_diag_entropy(rho, SearchConfig() if cfg is None else cfg)
    s_vn = qmat.von_neumann_entropy(rho)
    diag = dict(diag, min_diag_entropy=h_min, von_neumann_entropy=s_vn)
    return MeasureReport("D", h_min - s_vn, basis, diag)


def measure_G(rho: DensityMatrix, partition_cap: int = DEFAULT_PARTITION_CAP) -> MeasureReport:
    """max over subsystems k of the minimal mimic-eigenvalue discrepancy F_k.

    The cap bounds the assignments evaluated per subsystem, half of
    d_tot!/((d_tot/d_k)!)^d_k, which is also the row count of the walk's kept
    table; every subsystem is checked before any walk.  Subsystems of one
    dimension share one walk; F_k, the witnesses and ``assignments_evaluated``
    (per subsystem) stay in k order.
    """
    e_tot = qmat.density_spectrum(rho)
    for d in rho.dims:
        count = math.factorial(rho.d_tot) // math.factorial(rho.d_tot // d) ** d // 2
        if count > partition_cap:
            raise PartitionCapExceeded(f"G at d = {d} evaluates {count} assignments, more than cap {partition_cap}")
    walks = {}
    for d, (spectra, _) in qmat.marginal_eigs(rho, vectors=False).items():
        targets = [_neg_entropy_seq(qmat.clamped_probs(w)) for w in spectra]
        best, evaluated = _min_balanced_partition(e_tot, targets, d)
        walks[d] = iter([(float(fk), assignment, evaluated) for fk, assignment in best])
    f_values, assignments, evaluated = zip(*(next(walks[d]) for d in rho.dims))
    witnesses = [Partition(k, assignment) for k, assignment in enumerate(assignments)]
    diagnostics = {"F_k": dict(enumerate(f_values)), "assignments_evaluated": dict(enumerate(evaluated))}
    return MeasureReport("G", max(f_values), witnesses, diagnostics)


def measure_DG(rho: DensityMatrix) -> MeasureReport:
    """Entropy gained by dephasing in the product basis of the marginal eigenbases."""
    basis = marginal_eigenbasis(rho)
    h = float(qmat.entropy_bits(qmat.diag_probs(rho, basis)))  # diag_probs has checked the vector
    s_vn = qmat.von_neumann_entropy(rho)
    return MeasureReport(
        "DG", h - s_vn, basis, {"dephased_entropy": h, "von_neumann_entropy": s_vn}
    )


def _min_over_splittings(
    name: str, rho: DensityMatrix, values: Callable[..., Sequence[float]], *lead: np.ndarray
) -> MeasureReport:
    """Minimum of values(E_T, *lead spectra) over bipartite splittings; the first minimal one is the witness.

    E_T holds the partial transposes' spectra, one row per splitting, and
    values gives one value per row; the lead matrices (rho for K) head the
    one `herm_eig` stack.
    """
    splittings = list(_bipartite_splittings(rho.n_subsystems))
    pts = [qmat.partial_transpose(rho, side_b) for _, side_b in splittings]
    spectra = qmat.herm_eig(np.stack([*lead, *pts]), vectors=False)[0]
    vals = dict(zip(splittings, map(float, values(spectra[len(lead):], *spectra[:len(lead)]))))
    witness = min(vals, key=vals.get)
    per_split = {f"{a}|{b}": v for (a, b), v in vals.items()}
    return MeasureReport(name, vals[witness], witness, {"per_splitting": per_split})


def measure_K(rho: DensityMatrix) -> MeasureReport:
    """L1 distance between the sorted spectra of rho and its partial transpose.

    Multipartite inputs take the minimum over all bipartite splittings; rho
    leads the stack of partial transposes, so one `herm_eig` call serves all.
    One reduction over the stacked spectra gives every splitting's distance;
    each row is summed as ``np.sum`` sums it alone (pairwise, in index order).
    """
    return _min_over_splittings("K", rho, lambda E, e: np.abs(e - E).sum(axis=1), rho.mat)


def negativity(rho: DensityMatrix) -> MeasureReport:
    """Absolute sum of the negative partial-transpose eigenvalues (no factor 2)."""
    return _min_over_splittings("N", rho, lambda E: [abs(et[et < 0.0].sum()) for et in E])


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
