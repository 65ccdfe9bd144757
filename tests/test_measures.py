import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nccorr as nc
from nccorr import cli, measures, qmat, sweep, verify


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

    def test_local_unitary_invariance_transformed_candidates(self):
        # evaluate both states over corresponding candidate sets: for each
        # candidate basis B on rho, the rotated state gets U B, and vice versa
        rho = nc.random_density_matrix((2, 2), 4, 40)
        u = nc.haar_random_product_basis((2, 2), 41)
        ufull = qmat.product_basis_matrix(u)
        rho2 = nc.DensityMatrix((2, 2), ufull @ rho.mat @ ufull.conj().T)
        cfg = nc.SearchConfig(n_samples=0, refine_steps=0)

        def rotate(basis, forward):
            return nc.ProductBasis(tuple(
                (uf @ f) if forward else (uf.conj().T @ f)
                for uf, f in zip(u.factors, basis.factors)
            ))

        own1 = [nc.computational_basis((2, 2)), nc.marginal_eigenbasis(rho)]
        own2 = [nc.computational_basis((2, 2)), nc.marginal_eigenbasis(rho2)]
        d1 = nc.measure_D(rho, cfg, extra_candidates=[rotate(b, False) for b in own2]).value
        d2 = nc.measure_D(rho2, cfg, extra_candidates=[rotate(b, True) for b in own1]).value
        assert d1 == pytest.approx(d2, abs=1e-8)

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
        assert measures.recompute_K_at_witness(rho, rep.witness) == rep.value

    def test_single_subsystem_rejected(self):
        rho = nc.random_density_matrix((3,), 3, 5)
        for measure in (nc.measure_K, nc.negativity):
            with pytest.raises(nc.DimensionMismatch):
                measure(rho)

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
