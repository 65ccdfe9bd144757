import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nccorr as nc
from nccorr import cli, measures, qmat, search, sweep, verify


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
        assert np.allclose(qmat.product_diagonals(rotated, UF),
                           qmat.product_diagonals(rho.mat, F), rtol=0, atol=1e-12)

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
        # d_tot! / ((d_tot/d)!)^d balanced assignments per subsystem, not d^d_tot.
        expected = {
            (2, 2, 2, 2): {0: 12870, 1: 12870, 2: 12870, 3: 12870},
            (3, 3): {0: 1680, 1: 1680},
            (2, 4): {0: 70, 1: 2520},
            (2, 2, 2): {0: 70, 1: 70, 2: 70},
            (3, 4): {0: 34650, 1: 369600},  # the d = 4 walk splits at the default chunk
        }
        for dims, counts in expected.items():
            rep = nc.measure_G(nc.random_density_matrix(dims, 2, 71))
            assert rep.diagnostics["assignments_evaluated"] == counts

    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3), (2, 2, 2)])
    def test_matches_brute_force_beyond_two_qubits(self, dims):
        d_tot = int(np.prod(dims))
        for i, rank in enumerate((d_tot, 2, 1)):
            rho = nc.random_density_matrix(dims, rank, 80 + i)
            rep = nc.measure_G(rho)
            ref_val, ref_diag = verify.naive_measure_G(rho)
            assert rep.value == ref_val
            assert {p.k: p.assignment for p in rep.witness} == ref_diag["assignments"]

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
        # The d = 5 walk of (2,5) has 113,400 balanced assignments, more than
        # the default chunk, so the default splits it; the patched chunk does not.
        assert measures._ENUM_CHUNK < 113400 <= 1 << 20
        rho = nc.random_density_matrix((2, 5), 10, 95)
        split = nc.measure_G(rho)
        assert split.diagnostics["assignments_evaluated"] == {0: 252, 1: 113400}
        monkeypatch.setattr(measures, "_ENUM_CHUNK", 1 << 20)
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
        # splitting gives the same K and N, and D is reached in the
        # computational basis
        psi = np.zeros(8)
        psi[[0, 7]] = 1.0 / math.sqrt(2.0)
        mat = p * np.outer(psi, psi) + (1.0 - p) * np.eye(8) / 8
        rho = nc.DensityMatrix((2, 2, 2), mat.astype(complex))
        h_diag = 2 * s((1 + 3 * p) / 8) + 6 * s((1 - p) / 8)
        s_vn = s((1 + 7 * p) / 8) + 7 * s((1 - p) / 8)
        expected = {"D": h_diag - s_vn, "G": 1 - H((1 + p) / 2), "DG": h_diag - s_vn,
                    "K": 2 * p, "N": max(0.0, (5 * p - 1) / 8)}
        for name, measure in measures.MEASURES.items():
            value = measure(rho, nc.SearchConfig(), measures.DEFAULT_PARTITION_CAP).value
            assert value == pytest.approx(expected[name], abs=1e-9), name

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
