import ast
import dataclasses
import gc
import json
import math
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nccorr as nc
from nccorr import cli, core, measures, qmat, search, sweep, verify


def s(x):
    return 0.0 if x <= 0 else -x * math.log2(x)


def H(x):
    return s(x) + s(1 - x)


FAST = nc.SearchConfig(n_samples=300, seed=2, refine_steps=20)
TINY = nc.SearchConfig(n_samples=50, seed=2, refine_steps=0)
BEYOND_TWO_QUBITS = [(2, 4), (3, 3), (2, 2, 2)]


def classical_state(dims, seed):
    rng = np.random.default_rng(seed)
    while True:
        q = rng.random(dims)
        q /= q.sum()
        margins_ok = all(
            np.diff(np.sort(q.sum(axis=tuple(i for i in range(len(dims)) if i != ax)))).min() > 0.05
            for ax in range(len(dims))
        )
        if margins_ok:
            break
    basis = nc.haar_random_product_basis(dims, seed)
    return nc.make_classically_correlated(basis, q)


def separable_mixture(dims, seed, real, terms=4):
    """Random convex mixture of product pure states; PPT by construction."""
    rng = np.random.default_rng(seed)
    mat = 0.0
    for w in rng.dirichlet(np.ones(terms)):
        term = np.ones((1, 1))
        for d in dims:
            v = rng.standard_normal(d) + (0.0 if real else 1j * rng.standard_normal(d))
            v /= np.linalg.norm(v)
            term = np.kron(term, np.outer(v, v.conj()))
        mat = mat + w * term
    return nc.DensityMatrix(dims, mat)


class TestMeasureD:
    def test_ps_matches_dg_closed_form(self):
        for p in np.linspace(0, 1, 9):
            got = nc.measure_D(nc.make_pseudo_entangled(float(p)), FAST).value
            expected = 2 * s((1 + p) / 4) - s((1 - p) / 4) - s((1 + 3 * p) / 4)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_classical_vanishes(self):
        rho = classical_state((2, 3), 7)
        assert abs(nc.measure_D(rho, FAST).value) <= 1e-9

    def test_maximally_mixed_zero(self):
        rho = nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        assert abs(nc.measure_D(rho, TINY).value) <= 1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (2, 2, 2)])
    def test_scoring_kernel_is_local_unitary_covariant(self, dims):
        # D depends on rho alone: the diagonal of rho in F is the diagonal
        # of U rho U^dag in U F, factor by factor
        d = int(np.prod(dims))
        rho = nc.random_density_matrix(dims, d, 40)
        u = nc.haar_random_product_basis(dims, 41)
        ufull = qmat.product_basis_matrix(u)
        rotated = ufull @ rho.mat @ ufull.conj().T
        F = search._haar_batch(dims, search._ginibre(np.random.default_rng(42), dims, 16))
        UF = [uk @ Fk for uk, Fk in zip(u.factors, F)]
        assert np.allclose(qmat.product_diagonals(rotated, qmat.projectors(UF)),
                           qmat.product_diagonals(rho.mat, qmat.projectors(F)), rtol=0, atol=1e-12)

    # the Bell states' (c1, c2, c3), vertices of the tetrahedron of Bell-diagonal states
    BELL_VERTICES = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
    PAULIS = [np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]

    @pytest.mark.parametrize("where,first,count,corners", [
        ("interior", 0, 50, [[0, 1, 2, 3]]),
        ("faces", 50, 12, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
        ("edges", 62, 12, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
    ], ids=["interior", "faces", "edges"])
    def test_bell_diagonal_in_random_local_frames_closed_form(self, where, first, count, corners):
        # rho = (I + sum_i c_i sigma_i x sigma_i)/4 has eigenvalues equal to its
        # Dirichlet weights on the vertices, and D = 1 + h((1 + c_max)/2) - S(lambda)
        # (Modi et al., PRL 104, 080501 (2010)); D is local-unitary invariant.
        # Faces and edges are rank 3 and rank 2.
        for i in range(first, first + count):
            vertices = corners[i % len(corners)]
            w = np.random.default_rng(i).dirichlet(np.ones(len(vertices)))
            c = w @ self.BELL_VERTICES[vertices]
            bell = (np.eye(4) + sum(ck * np.kron(P, P) for ck, P in zip(c, self.PAULIS))) / 4
            B = qmat.product_basis_matrix(nc.haar_random_product_basis((2, 2), 5000 + i))
            rho = nc.DensityMatrix((2, 2), B @ bell @ B.conj().T)
            c1, c2, c3 = c
            lam = np.array([1 - c1 - c2 - c3, 1 - c1 + c2 + c3, 1 + c1 - c2 + c3, 1 + c1 + c2 - c3]) / 4
            exact = 1 + H((1 + np.abs(c).max()) / 2) - sum(s(x) for x in lam)
            got = nc.measure_D(rho, nc.SearchConfig(seed=i + 1)).value
            assert abs(got - exact) <= 1e-9, (where, i, c, got - exact)

    def test_witness_is_minimizing_basis(self):
        rho = nc.make_pseudo_entangled(0.8)
        rep = nc.measure_D(rho, FAST)
        h = qmat.shannon_entropy(qmat.diag_probs(rho, rep.witness))
        assert h - qmat.von_neumann_entropy(rho) == pytest.approx(rep.value, abs=1e-12)


class TestMeasureG:
    def test_ps_closed_form(self):
        got = nc.measure_G(nc.make_pseudo_entangled(0.6)).value
        assert got == pytest.approx(1 - H(0.8), abs=1e-12)
        assert got == pytest.approx(0.278072, abs=1e-6)

    def test_sigma_closed_form_grid(self):
        for p in np.linspace(0, 0.5, 11):
            got = nc.measure_G(nc.make_sigma(float(p))).value
            expected = min(1 - H(p + 0.5), 1 - H(2 * p))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_pure_product_zero(self):
        a = nc.random_density_matrix((2,), 1, 3)
        b = nc.random_density_matrix((3,), 1, 4)
        assert nc.measure_G(nc.tensor_state(a, b)).value <= 1e-12

    def test_partition_cap(self):
        with pytest.raises(nc.PartitionCapExceeded):
            nc.measure_G(nc.make_sigma(0.2), partition_cap=8)

    def test_rejects_what_d_and_dg_reject(self):
        rho = nc.DensityMatrix((2, 2), np.diag([0.6, 0.3, 0.2, 0.1]))  # trace 1.2
        cfg = nc.SearchConfig(n_samples=50, seed=1, refine_steps=5)
        for measure in (nc.measure_G, nc.measure_DG, lambda r: nc.measure_D(r, cfg)):
            with pytest.raises(nc.NotAProbabilityVector):
                measure(rho)

    def test_fk_per_subsystem_reported(self):
        rep = nc.measure_G(nc.random_density_matrix((2, 2), 4, 19))
        assert set(rep.diagnostics["F_k"]) == {0, 1}
        assert rep.value == max(rep.diagnostics["F_k"].values())

    def test_assignments_evaluated_is_balanced_count(self):
        # Half the d_tot! / ((d_tot/d)!)^d balanced assignments per subsystem,
        # not d^d_tot: one of each pair that differs by swapping bins 0 and 1.
        expected = {
            (2, 2, 2, 2): {0: 6435, 1: 6435, 2: 6435, 3: 6435},
            (3, 3): {0: 840, 1: 840},
            (2, 4): {0: 35, 1: 1260},
            (2, 2, 2): {0: 35, 1: 35, 2: 35},
            (3, 4): {0: 17325, 1: 184800},  # the d = 4 walk splits at the default chunk
        }
        for dims, counts in expected.items():
            rep = nc.measure_G(nc.random_density_matrix(dims, 2, 71))
            evaluated = rep.diagnostics["assignments_evaluated"]
            assert evaluated == counts
            d_tot = math.prod(dims)
            for k, d in enumerate(dims):
                assert 2 * evaluated[k] == math.factorial(d_tot) // math.factorial(d_tot // d) ** d

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3), (2, 2, 2)])
    def test_matches_brute_force_beyond_two_qubits(self, dims):
        d_tot = int(np.prod(dims))
        for i, rank in enumerate((d_tot, 2, 1)):
            rho = nc.random_density_matrix(dims, rank, 80 + i)
            rep = nc.measure_G(rho)
            ref_val, ref_diag = verify.naive_measure_G(rho)
            assert rep.value == ref_val
            assert {p.k: p.assignment for p in rep.witness} == ref_diag["assignments"]

    # Each witness below puts eigenvalue 0 in bin 2 or 3 for its d >= 3
    # subsystem, so a walk that pins eigenvalue 0 to bin 0 would miss it.
    BIN_0_NOT_FIRST = [
        ((3, 3), 9, 0), ((2, 3), 2, 48), ((2, 3), 6, 6044), ((2, 4), 8, 18), ((2, 4), 2, 24),
    ]

    def test_matches_brute_force_where_eigenvalue_0_is_not_in_bin_0(self):
        late = []
        for dims, rank, seed in self.BIN_0_NOT_FIRST:
            rho = nc.random_density_matrix(dims, rank, seed)
            rep = nc.measure_G(rho)
            ref_val, ref_diag = verify.naive_measure_G(rho)
            assert rep.value == ref_val
            assert {p.k: p.assignment for p in rep.witness} == ref_diag["assignments"]
            late += [p.assignment[0] for p in rep.witness if dims[p.k] >= 3]
        assert {2, 3} <= set(late)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3), (2, 2, 2)])
    def test_all_ties_match_brute_force(self, dims):
        # every assignment of I/d_tot ties, so the witness is the counter-first one
        d_tot = math.prod(dims)
        rho = nc.DensityMatrix(dims, np.eye(d_tot) / d_tot)
        rep = nc.measure_G(rho)
        ref_val, ref_diag = verify.naive_measure_G(rho)
        assert rep.value == ref_val
        assert {p.k: p.assignment for p in rep.witness} == ref_diag["assignments"]

    def test_all_ties_witness_is_counter_first_on_four_qubits(self):
        rep = nc.measure_G(nc.DensityMatrix((2, 2, 2, 2), np.eye(16) / 16))
        assert rep.witness == [measures.Partition(k, (0,) * 8 + (1,) * 8) for k in range(4)]

    @pytest.mark.parametrize("dims, d, chunks, rows", [
        ((2, 5), 5, 1, 56700),   # 113,400 balanced, half of them kept: one chunk
        ((3, 4), 4, 6, 184800),
    ], ids=["(2,5)-d5", "(3,4)-d4"])
    def test_walk_splits_on_the_kept_completions(self, dims, d, chunks, rows):
        e_tot = qmat.density_spectrum(nc.random_density_matrix(dims, int(np.prod(dims)), 95))
        sizes = [members.shape[2] for _, members in measures._balanced_assignments(e_tot, d)]
        assert (len(sizes), sum(sizes)) == (chunks, rows)
        assert max(sizes) <= measures._ENUM_CHUNK

    def test_prefix_split_matches_single_pass(self, monkeypatch):
        # Every (2,4), (3,3) and (2,2,2,2) subsystem has more balanced
        # assignments than the patched chunk, so the walk splits prefixes.
        cases = [
            nc.random_density_matrix(dims, rank, 90)
            for dims in ((2, 4), (3, 3), (2, 2, 2, 2))
            for rank in (int(np.prod(dims)), 1)
        ]
        whole = [nc.measure_G(rho) for rho in cases]
        monkeypatch.setattr(measures, "_ENUM_CHUNK", 7)
        for rho, ref in zip(cases, whole):
            rep = nc.measure_G(rho)
            assert rep.value == ref.value
            assert rep.witness == ref.witness
            assert rep.diagnostics == ref.diagnostics

    def test_prefix_split_at_the_production_chunk_size(self, monkeypatch):
        # The d = 4 walk of (3,4) keeps 184,800 assignments, more than the
        # default chunk, so the default splits it; the patched chunk does not.
        rho = nc.random_density_matrix((3, 4), 12, 95)
        e_tot = qmat.density_spectrum(rho)
        assert len(list(measures._balanced_assignments(e_tot, 4))) > 1
        split = nc.measure_G(rho)
        evaluated = split.diagnostics["assignments_evaluated"]
        assert evaluated == {0: 17325, 1: 184800}
        assert 2 * evaluated[0] == math.factorial(12) // math.factorial(4) ** 3
        assert 2 * evaluated[1] == math.factorial(12) // math.factorial(3) ** 4
        monkeypatch.setattr(measures, "_ENUM_CHUNK", 1 << 20)
        assert len(list(measures._balanced_assignments(e_tot, 4))) == 1
        whole = nc.measure_G(rho)
        assert split.value == whole.value
        assert split.witness == whole.witness
        assert split.diagnostics == whole.diagnostics

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2), (3, 3), (2, 2, 2)])
    def test_shared_walk_matches_one_walk_per_subsystem(self, dims):
        d_tot = int(np.prod(dims))
        for i, rank in enumerate((d_tot, 2, 1)):
            rho = nc.random_density_matrix(dims, rank, 110 + i)
            rep = nc.measure_G(rho)
            m = len(dims)
            assert list(rep.diagnostics["F_k"]) == list(range(m))
            assert list(rep.diagnostics["assignments_evaluated"]) == list(range(m))
            e_tot = qmat.density_spectrum(rho)
            for k in range(m):
                target = measures._neg_entropy_seq(
                    qmat.density_spectrum(qmat.partial_trace(rho, [k]))
                )
                [(fk, assignment)], count = measures._min_balanced_partition(
                    e_tot, [target], dims[k]
                )
                assert rep.diagnostics["F_k"][k] == fk
                assert rep.witness[k] == measures.Partition(k, assignment)
                assert rep.diagnostics["assignments_evaluated"][k] == count

    def test_one_walk_per_subsystem_dimension(self, monkeypatch):
        walks = []
        one_walk = measures._min_balanced_partition

        def counting_walk(*args):
            walks.append(args)
            return one_walk(*args)

        monkeypatch.setattr(measures, "_min_balanced_partition", counting_walk)
        for dims, expected in [((2, 2, 2, 2), 1), ((2, 3, 2), 2), ((2, 4), 2)]:
            walks.clear()
            nc.measure_G(nc.random_density_matrix(dims, 2, 71))
            assert len(walks) == expected


def kept_counter_indices(members: np.ndarray, d: int) -> np.ndarray:
    """Each row's base-d counter index, after checking that the row is a kept balanced assignment.

    ``members[m, b, r]`` must list bin b's eigenvalues of row r in ascending
    order, every eigenvalue in one place, and the row's first digit in
    {0, 1} must be 0: of two rows that swap bins 0 and 1, the walk keeps
    the counter-first.
    """
    bin_size, _, rows = members.shape
    d_tot = bin_size * d
    assert members.shape[1] == d
    flat = members.reshape(d_tot, rows).astype(np.int64)
    assert (np.sort(flat, axis=0) == np.arange(d_tot)[:, None]).all()
    assert (np.diff(members.astype(np.int64), axis=0) > 0).all()
    digits = np.empty((rows, d_tot), dtype=np.int64)
    np.put_along_axis(digits, flat.T, np.tile(np.arange(d), bin_size)[None], axis=1)
    first_low = np.argmax(digits <= 1, axis=1)
    assert (digits[np.arange(rows), first_low] == 0).all()
    return digits @ d ** np.arange(d_tot - 1, -1, -1, dtype=np.int64)


class TestWalkTable:
    """G keeps the member table of each walk of one chunk, per (d_tot, d, _ENUM_CHUNK); a row holds only its members."""

    @pytest.fixture(autouse=True)
    def no_kept_tables(self, monkeypatch):
        monkeypatch.setattr(measures, "_WALKS", {})

    def test_second_call_builds_no_walk(self, monkeypatch):
        built = []
        walk = measures._walk

        def spy(d_tot, d):
            built.append((d_tot, d))
            return walk(d_tot, d)

        monkeypatch.setattr(measures, "_walk", spy)
        for dims, walks in [((2, 2, 2, 2), [(16, 2)]), ((2, 4), [(8, 2), (8, 4)]), ((2, 3, 2), [(12, 2), (12, 3)])]:
            first = nc.measure_G(nc.random_density_matrix(dims, 2, 71))
            assert sorted(built) == walks
            built.clear()
            second = nc.measure_G(nc.random_density_matrix(dims, 2, 71))
            assert built == []
            assert (second.value, second.witness, second.diagnostics) == (first.value, first.witness, first.diagnostics)

    def test_kept_arrays_are_read_only(self):
        for dims in [(2, 2, 2, 2), (2, 4), (3, 3), (2, 2, 3)]:
            nc.measure_G(nc.random_density_matrix(dims, 2, 71))
        assert len(measures._WALKS) == 6
        for members in measures._WALKS.values():
            assert isinstance(members, np.ndarray) and not members.flags.writeable
            with pytest.raises(ValueError):
                members[0, 0, 0] = 1

    def test_clearing_the_kept_tables_changes_no_result(self):
        states = [nc.random_density_matrix(dims, rank, 40 + rank)
                  for dims in [(2, 2, 2, 2), (2, 4), (3, 3), (2, 3, 2), (2, 5)]
                  for rank in (1, 2, math.prod(dims))]
        kept = [nc.measure_G(rho) for rho in states]
        again = [nc.measure_G(rho) for rho in states]
        measures._WALKS.clear()
        cleared = [nc.measure_G(rho) for rho in states]
        for a, b, c in zip(kept, again, cleared):
            assert a.value == b.value == c.value
            assert a.witness == b.witness == c.witness
            assert a.diagnostics == b.diagnostics == c.diagnostics

    def test_a_walk_of_several_chunks_is_not_kept(self):
        rep = nc.measure_G(nc.random_density_matrix((3, 4), 12, 95))
        assert rep.diagnostics["assignments_evaluated"] == {0: 17325, 1: 184800}
        assert set(measures._WALKS) == {(12, 3, measures._ENUM_CHUNK)}

    def test_concurrent_callers_get_serial_results(self):
        # Threads build, keep and read the tables at once, starting from none;
        # (3,4)'s d = 4 walk is several chunks, so it is walked on every call.
        rhos = [nc.random_density_matrix(dims, rank, 71)
                for dims in [(2, 2, 2, 2), (2, 4), (2, 2, 3), (3, 4)] for rank in (2, math.prod(dims))]
        serial = [nc.measure_G(rho) for rho in rhos]
        measures._WALKS.clear()
        start, errors, reports = threading.Barrier(4), [], []

        def call(k):
            start.wait()
            try:
                for j in range(len(rhos)):
                    c = (k * 2 + j) % len(rhos)
                    reports.append((c, nc.measure_G(rhos[c])))
            except Exception as exc:  # a race must not raise
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads), "deadlock"
        assert errors == []
        assert len(reports) == 4 * len(rhos)
        for c, got in reports:
            want = serial[c]
            assert (got.value, got.witness, got.diagnostics) == (want.value, want.witness, want.diagnostics)
        chunk = measures._ENUM_CHUNK
        assert set(measures._WALKS) == {(16, 2, chunk), (8, 2, chunk), (8, 4, chunk), (12, 2, chunk), (12, 3, chunk)}

    @pytest.mark.parametrize("rank", [1, 2, 16])
    def test_bin_sums_add_their_members_left_to_right(self, rank):
        # Bins of 8 eigenvalues: numpy's pairwise sum, which a reduce over a
        # last axis uses from 8 terms, groups them differently.
        e_tot = qmat.density_spectrum(nc.random_density_matrix((2, 2, 2, 2), rank, 33))
        [(sums, members)] = measures._balanced_assignments(e_tot, 2)
        assert sums.shape == (6435, 2)
        for r in list(range(0, 6435, 37)) + [6434]:
            for b in range(2):
                total = 0.0
                for j in sorted(members[:, b, r]):
                    total += float(e_tot[j])
                assert sums[r, b] == total, (r, b)

    @pytest.mark.parametrize("rank", [1, 2, 12])
    def test_bin_sums_of_a_walk_of_several_chunks_add_left_to_right(self, rank):
        # Each chunk's rows carry the digits of its split prefix in their slots.
        e_tot = qmat.density_spectrum(nc.random_density_matrix((3, 4), rank, 95))
        chunks = list(measures._balanced_assignments(e_tot, 4))
        assert len(chunks) == 6
        for sums, members in chunks:
            for r in list(range(0, len(sums), 997)) + [len(sums) - 1]:
                for b in range(4):
                    total = 0.0
                    for j in sorted(members[:, b, r]):
                        total += float(e_tot[j])
                    assert sums[r, b] == total, (r, b)

    @pytest.mark.parametrize("d_tot, d, chunk", [
        (16, 2, None), (8, 2, None), (8, 4, None), (9, 3, None), (12, 2, None), (12, 3, None),
        (10, 2, None), (10, 5, None), (12, 4, None),
        (16, 2, 7), (8, 2, 7), (8, 4, 7), (9, 3, 7), (12, 2, 7), (12, 3, 7),
    ])
    def test_walk_rows_are_the_kept_assignments_in_counter_order(self, monkeypatch, d_tot, d, chunk):
        # Rows in strictly rising counter order, each a kept balanced
        # assignment, and as many as there are kept assignments: that is
        # every kept assignment, once, in counter order, and every chunk.
        if chunk is not None:
            monkeypatch.setattr(measures, "_ENUM_CHUNK", chunk)
        chunks = list(measures._walk(d_tot, d))
        one_chunk = chunk is None and (d_tot, d) != (12, 4)
        assert (len(chunks) == 1) == one_chunk
        counters = np.concatenate([kept_counter_indices(members, d) for members in chunks])
        assert (np.diff(counters) > 0).all()
        assert 2 * len(counters) == math.factorial(d_tot) // math.factorial(d_tot // d) ** d


class TestMeasureDG:
    def test_ps_half(self):
        got = nc.measure_DG(nc.make_pseudo_entangled(0.5)).value
        assert got == pytest.approx(2 * s(3 / 8) - s(1 / 8) - s(5 / 8), abs=1e-12)
        assert got == pytest.approx(0.26249, abs=1e-5)

    def test_sigma_closed_form(self):
        for p in np.linspace(0, 0.5, 11):
            got = nc.measure_DG(nc.make_sigma(float(p))).value
            assert got == pytest.approx(2 * s(p) - s(2 * p), abs=1e-12)

    def test_already_dephased_zero(self):
        rho = classical_state((2, 2), 23)
        assert abs(nc.measure_DG(rho).value) <= 1e-10

    def test_d_never_exceeds_dg(self):
        for seed in range(8):
            rho = nc.random_density_matrix((2, 2), 4, 300 + seed)
            d = nc.measure_D(rho, TINY).value
            dg = nc.measure_DG(rho).value
            assert d <= dg + 1e-9


class TestMeasureK:
    def test_ps(self):
        assert nc.measure_K(nc.make_pseudo_entangled(0.3)).value == pytest.approx(0.6, abs=1e-12)

    def test_sigma(self):
        assert nc.measure_K(nc.make_sigma(0.2)).value == pytest.approx(0.4, abs=1e-12)

    def test_horodecki_zero(self):
        for b in (0.0, 0.4, 1.0):
            assert nc.measure_K(nc.make_horodecki(b)).value <= 1e-12

    def test_witness_consistency_exact(self):
        rho = nc.random_density_matrix((2, 2, 2), 8, 61)
        rep = nc.measure_K(rho)
        a, b = rep.witness
        assert rep.diagnostics["per_splitting"][f"{a}|{b}"] == rep.value

    @pytest.mark.parametrize("dims", [(2, 4), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)], ids=str)
    def test_per_splitting_values_are_each_rows_own_sum(self, dims):
        # one reduction over the stacked spectra sums each row as np.sum sums it alone
        rho = nc.random_density_matrix(dims, 3, 67)
        e = qmat.herm_eig(rho.mat, vectors=False)[0]
        per_split = nc.measure_K(rho).diagnostics["per_splitting"]
        for a, b in measures._bipartite_splittings(len(dims)):
            et = qmat.herm_eig(qmat.partial_transpose(rho, b), vectors=False)[0]
            assert per_split[f"{a}|{b}"].hex() == float(np.sum(np.abs(e - et))).hex()

    def test_single_subsystem_rejected(self):
        rho = nc.random_density_matrix((3,), 3, 5)
        for measure in (nc.measure_K, nc.negativity):
            with pytest.raises(nc.DimensionMismatch):
                measure(rho)

    @pytest.mark.parametrize("rho", [
        nc.DensityMatrix((2, 2, 2), np.eye(8, dtype=complex) / 8),
        nc.DensityMatrix((2, 2, 2, 2), np.eye(16, dtype=complex) / 16),
        nc.DensityMatrix((2, 2, 2), np.diag(np.random.default_rng(63).dirichlet(np.ones(8)))),
        nc.DensityMatrix((2, 3, 2), np.diag(np.random.default_rng(64).dirichlet(np.ones(12)))),
    ], ids=["I/8", "I/16", "diagonal-2-2-2", "diagonal-2-3-2"])
    def test_exact_ties_keep_the_first_splitting(self, rho):
        # the partial transpose of these states is the state itself, so every
        # splitting gives exactly 0.0; the first one in splitting order wins
        m = rho.n_subsystems
        splittings = list(measures._bipartite_splittings(m))
        for measure in (nc.measure_K, nc.negativity):
            rep = measure(rho)
            assert rep.value == 0.0
            assert rep.witness == ((0,), tuple(range(1, m)))
            per_split = rep.diagnostics["per_splitting"]
            assert list(per_split) == [f"{a}|{b}" for a, b in splittings]
            assert all(v == 0.0 for v in per_split.values())

    @pytest.mark.parametrize("rank", [1, 2, None], ids=["rank-1", "rank-2", "full-rank"])
    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2), (2, 3, 2)], ids=str)
    def test_per_splitting_follows_the_splitting_order(self, dims, rank):
        # one stacked spectrum call serves every splitting; each value must be
        # the one its own partial transpose gives alone
        rho = nc.random_density_matrix(dims, rank or int(np.prod(dims)), 23)
        e = qmat.herm_eig(rho.mat, vectors=False)[0]
        splittings = list(measures._bipartite_splittings(len(dims)))
        k_rep, n_rep = nc.measure_K(rho), nc.negativity(rho)
        assert list(k_rep.diagnostics["per_splitting"]) == [f"{a}|{b}" for a, b in splittings]
        assert list(n_rep.diagnostics["per_splitting"]) == [f"{a}|{b}" for a, b in splittings]
        for a, b in splittings:
            et = qmat.herm_eig(qmat.partial_transpose(rho, b), vectors=False)[0]
            assert k_rep.diagnostics["per_splitting"][f"{a}|{b}"] == float(np.sum(np.abs(e - et)))
            assert n_rep.diagnostics["per_splitting"][f"{a}|{b}"] == float(abs(et[et < 0.0].sum()))

    def test_witness_is_the_first_minimal_splitting_off_ties(self):
        # random states rarely tie, so the first splitting is rarely the
        # witness: this tests the witness rule away from exact ties
        reports = []
        for dims in [(2, 2, 2), (2, 2, 2, 2), (2, 3, 2)]:
            splittings = list(measures._bipartite_splittings(len(dims)))
            for rank in (1, 2, int(np.prod(dims))):
                rho = nc.random_density_matrix(dims, rank, 23)
                for rep in (nc.measure_K(rho), nc.negativity(rho)):
                    values = list(rep.diagnostics["per_splitting"].values())
                    assert rep.value == min(values), (dims, rank, rep.measure)
                    assert rep.witness == splittings[values.index(rep.value)], (dims, rank, rep.measure)
                    reports.append(rep.witness != splittings[0])
        assert len(reports) == 18 and sum(reports) >= 9, reports

    def test_tripartite_splitting_count(self):
        rep = nc.measure_K(nc.random_density_matrix((2, 2, 2), 8, 62))
        assert len(rep.diagnostics["per_splitting"]) == 3
        assert rep.value == min(rep.diagnostics["per_splitting"].values())


class TestNegativity:
    def test_ps_full(self):
        assert nc.negativity(nc.make_pseudo_entangled(1.0)).value == pytest.approx(0.5, abs=1e-12)

    def test_ps_ppt_branch(self):
        for p in (0.0, 0.2, 1 / 3):
            assert nc.negativity(nc.make_pseudo_entangled(p)).value <= 1e-12

    def test_sigma(self):
        assert nc.negativity(nc.make_sigma(0.4)).value == pytest.approx(0.3, abs=1e-12)

    def test_horodecki_ppt(self):
        assert nc.negativity(nc.make_horodecki(0.6)).value <= 1e-12


class TestSharedProperties:
    def test_nonnegativity_on_random_states(self):
        for seed in range(200):
            rho = nc.random_density_matrix((2, 2), 4, 7000 + seed)
            vals = [
                nc.measure_D(rho, TINY).value,
                nc.measure_G(rho).value,
                nc.measure_DG(rho).value,
                nc.measure_K(rho).value,
                nc.negativity(rho).value,
            ]
            assert all(v >= -1e-9 for v in vals)

    def test_all_vanish_on_classical(self):
        for seed in (3, 4):
            for dims in ((2, 2), (2, 3)):
                rho = classical_state(dims, 900 + seed)
                assert abs(nc.measure_D(rho, FAST).value) <= 1e-8
                assert abs(nc.measure_G(rho).value) <= 1e-8
                assert abs(nc.measure_DG(rho).value) <= 1e-8
                assert abs(nc.measure_K(rho).value) <= 1e-8
                assert abs(nc.negativity(rho).value) <= 1e-8

    @pytest.mark.parametrize("dims", BEYOND_TWO_QUBITS)
    def test_gkn_local_unitary_invariance(self, dims):
        for seed in range(3):
            rho = nc.random_density_matrix(dims, int(np.prod(dims)), 7300 + seed)
            u = qmat.product_basis_matrix(nc.haar_random_product_basis(dims, 7400 + seed))
            rho2 = nc.DensityMatrix(dims, u @ rho.mat @ u.conj().T)
            for measure in (nc.measure_G, nc.measure_K, nc.negativity):
                assert abs(measure(rho).value - measure(rho2).value) <= 1e-8

    @pytest.mark.parametrize("dims", BEYOND_TWO_QUBITS)
    def test_all_vanish_on_classical_beyond_two_qubits(self, dims):
        rho = classical_state(dims, 910)
        for name, measure in measures.MEASURES.items():
            assert abs(measure(rho, TINY, measures.DEFAULT_PARTITION_CAP).value) <= 1e-8, name

    @pytest.mark.parametrize("dims", BEYOND_TWO_QUBITS)
    def test_d_never_exceeds_dg_beyond_two_qubits(self, dims):
        for seed in range(3):
            rho = nc.random_density_matrix(dims, int(np.prod(dims)), 7500 + seed)
            assert nc.measure_D(rho, TINY).value <= nc.measure_DG(rho).value + 1e-9

    @pytest.mark.parametrize("p", [i / 10 for i in range(11)])
    def test_ghz_with_white_noise_closed_forms(self, p):
        # p |GHZ><GHZ| + (1 - p) I/8 on three qubits, a test-only state; every
        # splitting gives the same K and N, so the first one is the witness, and
        # D is reached in the computational basis
        psi = np.zeros(8)
        psi[[0, 7]] = 0.5 ** 0.5
        mat = p * np.outer(psi, psi) + (1.0 - p) * np.eye(8) / 8
        rho = nc.DensityMatrix((2, 2, 2), mat.astype(complex))
        h_diag = 2 * s((1 + 3 * p) / 8) + 6 * s((1 - p) / 8)
        s_vn = s((1 + 7 * p) / 8) + 7 * s((1 - p) / 8)
        expected = {"D": h_diag - s_vn, "G": 1 - H((1 + p) / 2), "DG": h_diag - s_vn,
                    "K": 2 * p, "N": max(0.0, (5 * p - 1) / 8)}
        for name, measure in measures.MEASURES.items():
            rep = measure(rho, nc.SearchConfig(), measures.DEFAULT_PARTITION_CAP)
            assert rep.value == pytest.approx(expected[name], abs=1e-9), name
            if name == "G":  # half of the 70 balanced assignments per subsystem
                assert rep.diagnostics["assignments_evaluated"] == {0: 35, 1: 35, 2: 35}
            if name in ("K", "N"):
                per_split = rep.diagnostics["per_splitting"]
                assert list(per_split) == ["(0,)|(1, 2)", "(0, 1)|(2,)", "(0, 2)|(1,)"]
                assert rep.value == min(per_split.values())
                assert "%s|%s" % rep.witness == next(k for k, v in per_split.items() if v == rep.value)

    @pytest.mark.parametrize("dims", BEYOND_TWO_QUBITS)
    def test_k_n_vanish_on_ppt_beyond_two_qubits(self, dims):
        for seed in range(3):
            # real product terms: the partial transpose equals rho, so K = N = 0
            rho = separable_mixture(dims, 7600 + seed, real=True)
            assert nc.measure_K(rho).value <= 1e-9
            assert nc.negativity(rho).value <= 1e-9
            # complex product terms stay PPT, but the partial transpose
            # conjugates them and its spectrum moves, so only N must vanish
            assert nc.negativity(separable_mixture(dims, 7700 + seed, real=False)).value <= 1e-9

    def test_dg_additive_on_tensor_products(self):
        a = nc.random_density_matrix((2, 2), 4, 501)
        b = nc.random_density_matrix((2, 2), 4, 502)
        joint = nc.tensor_state(a, b)
        assert nc.measure_DG(joint).value == pytest.approx(
            nc.measure_DG(a).value + nc.measure_DG(b).value, abs=1e-8
        )


@st.composite
def dims_rank_seed(draw):
    dims = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]))
    return dims, draw(st.integers(1, math.prod(dims))), draw(st.integers(0, 2**32 - 1))


PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


class TestProperties:
    @PROPERTY
    @given(dims_rank_seed())
    def test_gkn_local_unitary_invariance(self, case):
        dims, rank, seed = case
        rho = nc.random_density_matrix(dims, rank, seed)
        u = qmat.product_basis_matrix(nc.haar_random_product_basis(dims, seed))
        rho2 = nc.DensityMatrix(dims, u @ rho.mat @ u.conj().T)
        for measure in (nc.measure_G, nc.measure_K, nc.negativity):
            assert abs(measure(rho).value - measure(rho2).value) <= 1e-8

    @PROPERTY
    @given(dims_rank_seed())
    def test_d_never_exceeds_dg(self, case):
        dims, rank, seed = case
        rho = nc.random_density_matrix(dims, rank, seed)
        cfg = nc.SearchConfig(n_samples=64, seed=seed, refine_steps=16)
        assert nc.measure_D(rho, cfg).value <= nc.measure_DG(rho).value + 1e-9

    @PROPERTY
    @given(dims_rank_seed())
    def test_all_vanish_on_classical(self, case):
        dims, _, seed = case
        rho = classical_state(dims, seed)
        for name, measure in measures.MEASURES.items():
            assert abs(measure(rho, TINY, measures.DEFAULT_PARTITION_CAP).value) <= 1e-8, name

    @PROPERTY
    @given(dims_rank_seed())
    def test_n_vanishes_on_separable_mixtures(self, case):
        dims, rank, seed = case
        assert nc.negativity(separable_mixture(dims, seed, real=False, terms=rank)).value <= 1e-9

    @PROPERTY
    @given(dims_rank_seed())
    def test_k_at_least_twice_n(self, case):
        # both spectra sum to 1, so the sorted pairing meets every negative
        # partial-transpose eigenvalue with a non-negative one: K_s >= 2 N_s
        # on each splitting, and the minima over splittings keep it
        rho = nc.random_density_matrix(*case)
        assert nc.measure_K(rho).value >= 2 * nc.negativity(rho).value - 1e-12


@pytest.mark.parametrize("dims, calls", [
    ((2, 2, 2, 2), {"G": 2, "DG": 2, "K": 1, "N": 1}),
    ((2, 4), {"G": 3, "DG": 3, "K": 1, "N": 1}),
], ids=["(2,2,2,2)", "(2,4)"])
def test_herm_eig_calls_per_measure(monkeypatch, dims, calls):
    # on a fresh state, one call on rho (none for N) and one per stack: the
    # marginals of one dimension (G, D_G) or rho with its partial transposes (K, N)
    herm_eig, count = qmat.herm_eig, []
    monkeypatch.setattr(qmat, "herm_eig", lambda *a, **kw: count.append(1) or herm_eig(*a, **kw))
    mat = nc.random_density_matrix(dims, int(np.prod(dims)), 31).mat
    got = {}
    for name in calls:
        count.clear()
        measures.MEASURES[name](nc.DensityMatrix(dims, mat), TINY, measures.DEFAULT_PARTITION_CAP)
        got[name] = len(count)
    assert got == calls


@pytest.mark.parametrize("dims, calls", [
    ((2, 2, 2, 2), {"G": 2, "DG": 1, "K": 1, "N": 1}),
    ((2, 4), {"G": 3, "DG": 2, "K": 1, "N": 1}),
], ids=["(2,2,2,2)", "(2,4)"])
def test_herm_eig_calls_per_measure_on_one_state(monkeypatch, dims, calls):
    # G keeps rho's spectrum and the marginals' eigenvalues on rho, so D_G
    # solves only for the marginals' vectors; K and N solve on every call
    herm_eig, count = qmat.herm_eig, []
    monkeypatch.setattr(qmat, "herm_eig", lambda *a, **kw: count.append(1) or herm_eig(*a, **kw))
    rho = nc.random_density_matrix(dims, int(np.prod(dims)), 31)
    got = {}
    for name in calls:
        count.clear()
        measures.MEASURES[name](rho, TINY, measures.DEFAULT_PARTITION_CAP)
        got[name] = len(count)
    assert got == calls


def _bits(rep):
    """A report with a product-basis witness read as bytes, for == across calls."""
    witness = rep.witness
    if isinstance(witness, nc.ProductBasis):
        witness = [f.tobytes() for f in witness.factors]
    return rep.measure, rep.value, witness, rep.diagnostics


KEPT_CFG = nc.SearchConfig(n_samples=50, seed=2, refine_steps=5)


def _all_five(rho, order=sweep.MEASURE_ORDER):
    return {m: _bits(measures.MEASURES[m](rho, KEPT_CFG, measures.DEFAULT_PARTITION_CAP)) for m in order}


def _kept_arrays(rho):
    for entry in rho._kept.values():
        for x in [entry] if isinstance(entry, np.ndarray) else entry.values():
            yield from (a for a in (x if isinstance(x, tuple) else (x,)) if a is not None)


def _grid_states(group):
    if group in sweep.FAMILIES:
        ctor, lo, hi = sweep.FAMILIES[group]
        return [ctor(float(p)) for p in np.linspace(lo, hi, 13)]
    d = math.prod(group)
    return [nc.random_density_matrix(group, rank, 1) for rank in (1, 2, d)]


class TestKeptSpectra:
    """rho's spectrum, its marginals and their eigensystems are made once per
    state and kept, read-only, on it, so a state's reports do not depend on
    which measures ran on it before."""

    # the (2,4) and (3,3) states and horodecki at 1/3 are among those whose
    # marginals' eigh and eigvalsh eigenvalues differ in the last bit, which
    # moves G's value there if G is given the eigenvalues of the vector solve
    @pytest.mark.parametrize("group", [*sweep.FAMILIES, (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)], ids=str)
    def test_reports_do_not_depend_on_measure_order(self, group):
        for rho in _grid_states(group):
            fresh = {m: _all_five(nc.DensityMatrix(rho.dims, rho.mat), [m])[m] for m in sweep.MEASURE_ORDER}
            assert _all_five(rho) == fresh
            assert _all_five(nc.DensityMatrix(rho.dims, rho.mat), sweep.MEASURE_ORDER[::-1]) == fresh

    def test_mat_is_a_read_only_copy(self):
        src = np.array(nc.random_density_matrix((2, 4), 3, 5).mat)
        rho = nc.DensityMatrix((2, 4), src)
        assert not rho.mat.flags.writeable
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0
        want = _all_five(nc.DensityMatrix((2, 4), src))
        src[...] = np.eye(8) / 8
        assert src.flags.writeable
        assert _all_five(rho) == want

    def test_kept_arrays_are_read_only(self):
        rho = nc.random_density_matrix((2, 2, 3), 4, 7)
        dg = nc.measure_DG(rho)
        _all_five(rho)
        assert set(rho._kept) == {"spectrum", "marginals", ("marginal_eigs", False), ("marginal_eigs", True)}
        kept = list(_kept_arrays(rho))
        assert len(kept) == 1 + 2 + 2 + 4
        assert not any(a.flags.writeable for a in kept)
        # D_G's witness factors are views of the kept eigenvectors
        assert not any(f.flags.writeable for f in dg.witness.factors)

    def test_replace_starts_with_nothing_kept(self):
        rho = nc.random_density_matrix((2, 4), 2, 3)
        _all_five(rho)
        assert rho._kept
        assert dataclasses.replace(rho)._kept == {}
        assert nc.DensityMatrix(rho.dims, rho.mat)._kept == {}

    def test_equality_and_repr_ignore_what_is_kept(self):
        rho = nc.random_density_matrix((2, 2), 2, 4)
        before = repr(rho)
        assert before == f"DensityMatrix(dims=(2, 2), mat={rho.mat!r})"
        # a state equals only itself and hashes by identity, whatever it keeps
        twin = dataclasses.replace(rho)
        object.__setattr__(twin, "mat", rho.mat)
        table = {rho: 1}
        assert rho == rho and rho != twin
        assert {rho: 1}[rho] == 1
        _all_five(rho)
        assert repr(rho) == before
        assert twin._kept == {} and rho._kept
        assert rho == rho and rho != twin
        assert {rho: 1}[rho] == 1 and table[rho] == 1

    def test_a_product_basis_equals_only_itself(self):
        # as a state does, so a D or D_G report, whose witness is a basis, compares too
        b = nc.ProductBasis((np.eye(2), np.eye(2)))
        twin = nc.ProductBasis((np.eye(2), np.eye(2)))
        assert b == b and b != twin
        assert {b: 1}[b] == 1
        rho = nc.random_density_matrix((2, 2), 2, 4)
        rep, again = nc.measure_D(rho, TINY), nc.measure_D(rho, TINY)
        assert isinstance(rep.witness, nc.ProductBasis)
        assert rep == rep and rep != again

    def test_kept_arrays_die_with_their_state(self):
        rho = nc.random_density_matrix((2, 2, 2), 3, 8)
        _all_five(rho)
        refs = [weakref.ref(a) for a in _kept_arrays(rho)]
        del rho
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_threads_sharing_one_state_get_serial_results(self):
        made = [nc.random_density_matrix(dims, rank, 9) for dims, rank in [((2, 4), 2), ((2, 2, 2, 2), 16)]]
        serial = [_all_five(nc.DensityMatrix(rho.dims, rho.mat)) for rho in made]
        shared = [nc.DensityMatrix(rho.dims, rho.mat) for rho in made]
        start, errors, reports, bases = threading.Barrier(4), [], [], []

        def call(k):
            start.wait()
            try:
                for j, rho in enumerate(shared):
                    bases.append((j, nc.measure_DG(rho).witness))
                    order = sweep.MEASURE_ORDER[k:] + sweep.MEASURE_ORDER[:k]
                    reports.append((j, _all_five(rho, order)))
            except Exception as exc:  # a race must not raise
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads), "deadlock"
        assert errors == []
        assert len(reports) == len(bases) == 4 * len(shared)
        for j, got in reports:
            assert got == serial[j]
        # the first entry stored serves every caller, so no thread holds a copy that lost
        for j, basis in bases:
            kept = [V for _, V in shared[j]._kept["marginal_eigs", True].values()]
            assert all(any(np.shares_memory(f, V) for V in kept) for f in basis.factors)


class TestKeptStore:
    """`core.kept` is the one keep rule: the state's spectra, the config's
    sample sets and G's walk tables are all stored through it."""

    def test_make_runs_once(self):
        store, made = {}, []

        def make():
            made.append(1)
            return np.arange(3.0)

        first = core.kept(store, "k", make)
        assert core.kept(store, "k", make) is first
        assert made == [1] and store == {"k": first}

    @pytest.mark.parametrize("entry", [
        lambda: {2: (np.eye(2), None), 3: (np.ones(3), np.eye(3))},
        lambda: [np.eye(2), np.ones(3)],
        lambda: (np.eye(2), np.ones(3)),
    ], ids=["dict-of-tuples", "list", "tuple"])
    def test_every_array_is_read_only(self, entry):
        got = core.kept({}, "k", entry)
        values = got.values() if isinstance(got, dict) else [got]
        arrays = [a for v in values for a in v if a is not None]
        assert len(arrays) == (3 if isinstance(got, dict) else 2)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 1.0

    def test_an_entry_stored_during_make_serves(self):
        # as when a concurrent first call stores its entry while this one makes its own
        store, competitor = {}, np.zeros(2)

        def make():
            store["k"] = competitor
            return np.ones(2)

        assert core.kept(store, "k", make) is competitor
        assert store == {"k": competitor}

    def test_a_make_that_raises_keeps_nothing(self):
        store = {}

        def make():
            raise nc.NoConvergence("eigh failed")

        with pytest.raises(nc.NoConvergence):
            core.kept(store, "k", make)
        assert store == {}
        assert core.kept(store, "k", lambda: np.ones(2)).tolist() == [1.0, 1.0]

    def test_only_core_stores_or_sets_flags(self):
        # the package's own files, wherever it is imported from
        calls = {}
        for path in sorted(Path(nc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls[path.name] = sorted(
                node.func.attr for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "setflags")
            )
        assert {"core.py", "qmat.py", "search.py", "measures.py"} <= set(calls)
        del calls["core.py"]
        assert {name: found for name, found in calls.items() if found} == {}


class TestMeasureTable:
    def test_callers_reach_a_replaced_measure_function(self, monkeypatch, tmp_path, capsys):
        # MEASURES looks measure_K up at call time, so a replaced module
        # attribute (a stub here, a span wrapper in perfbench) reaches the
        # sweep, the CLI and the verify suite alike.
        stub = measures.MeasureReport("K", 7.0, None)
        monkeypatch.setattr(measures, "measure_K", lambda rho: stub)
        rho = nc.make_pseudo_entangled(0.3)
        assert sweep.evaluate_point(rho, ("K",), TINY, measures.DEFAULT_PARTITION_CAP) == {"K": 7.0}
        path = tmp_path / "ps.json"
        nc.store_state(rho, str(path))
        assert cli.main(["measure", str(path), "--measures", "K"]) == 0
        assert json.loads(capsys.readouterr().out)["K"]["value"] == 7.0
        (check,) = verify.criterion_4(nc.SearchConfig(n_samples=0, refine_steps=0))
        assert not check.passed
        assert "max |measure| 7.000e+00" in check.detail


class TestCriterion7Failures:
    # criterion 7 reports its first mismatch; stub G the way TestMeasureTable stubs K
    def test_value_one_ulp_up(self, monkeypatch):
        real_G = measures.measure_G

        def one_ulp_up(rho, cap=measures.DEFAULT_PARTITION_CAP):
            rep = real_G(rho, cap)
            return dataclasses.replace(rep, value=float(np.nextafter(rep.value, math.inf)))

        monkeypatch.setattr(measures, "measure_G", one_ulp_up)
        (check,) = verify.criterion_7()
        assert not check.passed
        assert check.detail.startswith("value mismatch at (2, 2) seed 6000: ")

    def test_last_assignment_reversed(self, monkeypatch):
        # seed 6000's last witness assignment is a palindrome, so the first
        # mismatch is at seed 6001
        real_G = measures.measure_G

        def reversed_last(rho, cap=measures.DEFAULT_PARTITION_CAP):
            rep = real_G(rho, cap)
            *head, last = rep.witness
            return dataclasses.replace(rep, witness=[*head, measures.Partition(last.k, last.assignment[::-1])])

        monkeypatch.setattr(measures, "measure_G", reversed_last)
        (check,) = verify.criterion_7()
        assert not check.passed
        assert check.detail == "witness mismatch at (2, 2) seed 6001, k=1"


class TestVerifyNaN:
    # Python's max skips a NaN that is not its first argument; every worst
    # deviation goes through one NaN-propagating reduction instead.
    def test_dev_check_fails_on_a_nan_after_a_finite_value(self):
        check = verify._dev_check("x", [0.0, math.nan], 1e-9)
        assert not check.passed
        assert check.detail == "max deviation nan (tol 1.0e-09)"
        assert verify._dev_check("x", [], 1e-9).passed

    def test_nan_measure_fails_criterion_4(self, monkeypatch):
        stub = measures.MeasureReport("K", math.nan, None)
        monkeypatch.setattr(measures, "measure_K", lambda rho: stub)
        (check,) = verify.criterion_4(nc.SearchConfig(n_samples=0, refine_steps=0))
        assert not check.passed
        assert "max |measure| nan" in check.detail

    def test_nan_K_at_one_sigma_point_fails_its_sweep_check(self, monkeypatch):
        real_K = measures.measure_K
        calls = []

        def nan_at_second_point(rho):
            calls.append(rho)
            return measures.MeasureReport("K", math.nan, None) if len(calls) == 2 else real_K(rho)

        monkeypatch.setattr(measures, "measure_K", nan_at_second_point)
        checks = {c.name: c for c in verify.criterion_2(nc.SearchConfig(n_samples=0, refine_steps=0))}
        assert len(calls) == 101
        failed = [name for name, c in checks.items() if not c.passed]
        assert failed == ["criterion-2 sigma sweep K vs closed form"]
        assert checks[failed[0]].detail == "max deviation nan (tol 1.0e-09)"
