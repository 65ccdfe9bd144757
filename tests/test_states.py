import json
import math

import numpy as np
import pytest

import nccorr as nc
from nccorr import qmat


class TestPseudoEntangled:
    def test_p0_is_maximally_mixed(self):
        assert np.array_equal(nc.make_pseudo_entangled(0.0).mat, np.eye(4) / 4)

    def test_p1_is_bell_projector(self):
        mat = nc.make_pseudo_entangled(1.0).mat
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(mat, expected, atol=1e-15)

    def test_diagonal_and_corners(self):
        p = 0.42
        mat = nc.make_pseudo_entangled(p).mat
        assert np.allclose(np.diag(mat).real, [(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4])
        assert mat[0, 3] == pytest.approx(p / 2)

    def test_spectrum_closed_form_grid(self):
        for p in np.linspace(0, 1, 50):
            spec = qmat.density_spectrum(nc.make_pseudo_entangled(float(p)))
            expected = np.sort([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)[::-1]
            assert np.allclose(spec.values, expected, atol=1e-10)

    def test_param_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.make_pseudo_entangled(1.2)


class TestSigma:
    def test_p0_mixture(self):
        assert np.array_equal(nc.make_sigma(0.0).mat, np.diag([0.5, 0, 0, 0.5]))

    def test_p_half_pure(self):
        mat = nc.make_sigma(0.5).mat
        expected = np.zeros((4, 4))
        expected[np.ix_([1, 2], [1, 2])] = 0.5
        assert np.allclose(mat, expected, atol=1e-15)

    def test_spectrum_closed_form_grid(self):
        for p in np.linspace(0, 0.5, 50):
            spec = qmat.density_spectrum(nc.make_sigma(float(p)))
            expected = np.sort([0.5 - p, 0.5 - p, 2 * p, 0.0])[::-1]
            assert np.allclose(spec.values, expected, atol=1e-10)

    def test_pt_threefold_eigenvalue_at_sixth(self):
        pt = qmat.partial_transpose(nc.make_sigma(1 / 6), [1])
        spec, _ = qmat.herm_eig(pt)
        assert np.sum(np.abs(spec.values - 1 / 6) < 1e-12) == 3

    def test_param_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.make_sigma(0.6)


class TestHorodecki:
    def test_trace_one_any_b(self):
        for b in np.linspace(0, 1, 11):
            assert np.trace(nc.make_horodecki(float(b)).mat).real == pytest.approx(1.0, abs=1e-15)

    def test_b0_pure_product(self):
        rho = nc.make_horodecki(0.0)
        # only |4> and |7> survive: |1> x (|0>+|3>)/sqrt(2)
        purity = np.trace(rho.mat @ rho.mat).real
        assert purity == pytest.approx(1.0, abs=1e-14)
        for k in (0, 1):
            m = qmat.partial_trace(rho, [k]).mat
            assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-14)

    def test_b_half_positive(self):
        report = nc.validate(nc.make_horodecki(0.5))
        assert report.passed
        assert report.min_eigenvalue >= -1e-12

    def test_entries(self):
        b = 0.3
        mat = nc.make_horodecki(b).mat * (7 * b + 1)
        assert mat[0, 5] == pytest.approx(b)
        assert mat[4, 7] == pytest.approx(math.sqrt(1 - b * b) / 2)
        assert mat[4, 4] == pytest.approx((1 + b) / 2)

    def test_param_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.make_horodecki(-0.1)


class TestClassicallyCorrelated:
    def test_uniform_is_maximally_mixed(self):
        rho = nc.make_classically_correlated(
            nc.computational_basis((2, 2)), np.full((2, 2), 0.25)
        )
        assert np.allclose(rho.mat, np.eye(4) / 4, atol=1e-15)

    def test_computational_mixture(self):
        probs = np.array([[0.5, 0.0], [0.0, 0.5]])
        rho = nc.make_classically_correlated(nc.computational_basis((2, 2)), probs)
        assert np.allclose(rho.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_spectrum_is_prob_multiset(self):
        rng = np.random.default_rng(8)
        q = rng.random((2, 3))
        q /= q.sum()
        basis = nc.haar_random_product_basis((2, 3), 21)
        spec = qmat.density_spectrum(nc.make_classically_correlated(basis, q))
        assert np.allclose(spec.values, np.sort(q.ravel())[::-1], atol=1e-12)

    def test_rejects_bad_probs(self):
        with pytest.raises(nc.NotAProbabilityVector):
            nc.make_classically_correlated(nc.computational_basis((2, 2)), np.full((2, 2), 0.3))
        with pytest.raises(nc.DimensionMismatch):
            nc.make_classically_correlated(nc.computational_basis((2, 2)), np.full((2, 3), 1 / 6))


class TestRandomDensityMatrix:
    def test_rank_one_is_pure(self):
        rho = nc.random_density_matrix((2, 2), 1, 3)
        assert np.trace(rho.mat @ rho.mat).real == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_per_seed(self):
        a = nc.random_density_matrix((2, 3), 4, 42)
        b = nc.random_density_matrix((2, 3), 4, 42)
        assert np.array_equal(a.mat, b.mat)

    def test_full_rank_positive(self):
        spec = qmat.density_spectrum(nc.random_density_matrix((2, 2), 4, 7))
        assert spec.values[-1] > 0.0

    def test_rank_out_of_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.random_density_matrix((2, 2), 5, 1)


class TestValidateAndIO:
    @pytest.mark.parametrize(
        "rho",
        [
            nc.make_pseudo_entangled(0.37),
            nc.make_sigma(0.21),
            nc.make_horodecki(0.64),
            nc.random_density_matrix((2, 3), 6, 5),
        ],
        ids=["ps", "sigma", "horodecki", "random"],
    )
    def test_constructors_validate_and_roundtrip(self, rho, tmp_path):
        assert nc.validate(rho).passed
        path = tmp_path / "state.json"
        nc.store_state(rho, path)
        back = nc.load_state(path)
        assert back.dims == rho.dims
        assert np.array_equal(back.mat, rho.mat)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(nc.ParseError):
            nc.load_state(path)

    @pytest.mark.parametrize("dims, entry", [
        ([2.7, 2], [0.25, 0.0]),
        ("22", [0.25, 0.0]),
        ([True, 2], [0.25, 0.0]),
        ([2, 2], "10"),
        ([2, 2], [0.25, 0.0, 1.0]),
        ([2, 2], [0.25]),
        ([2, 2], [0.25, None]),
        ([2, 2], ["0.25", 0.0]),
        ([2, 2], [True, 0.0]),
    ], ids=["float-dims", "string-dims", "bool-dims", "string-entry", "three-item-entry",
            "one-item-entry", "null-part", "string-part", "bool-part"])
    def test_load_rejects_malformed_file(self, tmp_path, dims, entry):
        # a valid maximally mixed two-qubit state with one field spoiled
        mat = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        mat[1][1] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": dims, "matrix": mat}))
        with pytest.raises(nc.ParseError):
            nc.load_state(path)

    def test_load_rejects_invalid_state(self, tmp_path):
        path = tmp_path / "nonpsd.json"
        obj = {
            "dims": [2],
            "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(nc.ValidationFailure):
            nc.load_state(path)


class TestProductEigenbasisDetector:
    def test_sigma_has_none(self):
        # the isolated 2p eigenvector (|01>+|10>)/sqrt(2) is entangled
        assert nc.has_product_eigenbasis_nondegenerate(nc.make_sigma(0.125)) is False

    def test_classical_has_one(self):
        rng = np.random.default_rng(12)
        q = rng.random((2, 2))
        q /= q.sum()
        basis = nc.haar_random_product_basis((2, 2), 9)
        rho = nc.make_classically_correlated(basis, q)
        assert nc.has_product_eigenbasis_nondegenerate(rho) is True

    def test_generic_random_has_none(self):
        rho = nc.random_density_matrix((2, 2), 4, 100)
        assert nc.has_product_eigenbasis_nondegenerate(rho) is False

    def test_degenerate_without_witness_raises(self):
        rho = nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        with pytest.raises(nc.DegenerateSpectrum):
            nc.has_product_eigenbasis_nondegenerate(rho)
