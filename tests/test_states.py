import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nccorr as nc
from nccorr import qmat, states, sweep, verify


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
            assert np.allclose(spec, expected, atol=1e-10)

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
            assert np.allclose(spec, expected, atol=1e-10)

    def test_pt_threefold_eigenvalue_at_sixth(self):
        pt = qmat.partial_transpose(nc.make_sigma(1 / 6), [1])
        spec, _ = qmat.herm_eig(pt)
        assert np.sum(np.abs(spec - 1 / 6) < 1e-12) == 3

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
        assert np.allclose(spec, np.sort(q.ravel())[::-1], atol=1e-12)

    def test_rejects_bad_probs(self):
        with pytest.raises(nc.NotAProbabilityVector):
            nc.make_classically_correlated(nc.computational_basis((2, 2)), np.full((2, 2), 0.3))
        with pytest.raises(nc.DimensionMismatch):
            nc.make_classically_correlated(nc.computational_basis((2, 2)), np.full((2, 3), 1 / 6))
        with pytest.raises(nc.NotAProbabilityVector):
            nc.make_classically_correlated(
                nc.computational_basis((2, 2)), np.array([[0.5, np.nan], [0.25, 0.25]])
            )

    def test_accepts_round_off_negatives_like_validate(self):
        # the one probability-vector rule: entries in [-NEG_TOL, 0) are round-off
        probs = np.array([[0.5 + 5e-9, -5e-9], [0.25, 0.25]])
        rho = nc.make_classically_correlated(nc.computational_basis((2, 2)), probs)
        assert np.array_equal(rho.mat, np.diag(probs.ravel()).astype(complex))
        assert nc.validate(rho).passed


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
        assert spec[-1] > 0.0

    def test_rank_out_of_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.random_density_matrix((2, 2), 5, 1)

    def test_negative_seed_out_of_range(self):
        with pytest.raises(nc.ParamOutOfRange):
            nc.random_density_matrix((2, 2), 4, -1)

    @pytest.mark.parametrize("dims", [(0,), (2, -1), (), (1,)])
    def test_bad_dims_raise_the_state_dims_error(self, dims):
        # checked before the rank, so (0,) is not reported as rank 1 outside [1, 0]
        with pytest.raises(nc.DimensionMismatch) as want:
            nc.DensityMatrix(dims, np.eye(1))
        with pytest.raises(nc.DimensionMismatch) as got:
            nc.random_density_matrix(dims, 1, 1)
        assert str(got.value) == str(want.value)

    def test_seed_past_2_64_is_its_own_stream(self):
        # no reduction mod 2^64: numpy seeds a Generator with any integer >= 0
        big = nc.random_density_matrix((2, 2), 4, 2 ** 64 + 7)
        assert not np.array_equal(big.mat, nc.random_density_matrix((2, 2), 4, 7).mat)
        assert nc.validate(big).passed


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
        assert back.mat.tobytes() == rho.mat.tobytes()

    @pytest.mark.parametrize(
        "rho",
        [
            # the Hermitian part keeps entry (0, 1)'s imaginary -0.0
            nc.DensityMatrix((2,), qmat.hermitian_part(np.array([[0.5, complex(0.25, -0.0)], [0.25, 0.5]]))[0]),
            nc.random_density_matrix((2, 3), 6, 1),
        ],
        ids=["negative-zero", "random"],
    )
    def test_store_load_is_bit_exact(self, rho, tmp_path):
        path = tmp_path / "state.json"
        nc.store_state(rho, path)
        assert nc.load_state(path).mat.tobytes() == rho.mat.tobytes()

    def test_a_run_with_pythonpath_cleared_imports_the_copy_it_is_pointed_at(self, tmp_path):
        # CI runs this suite on the installed package, from outside the checkout,
        # with -o pythonpath= clearing pyproject's pythonpath = ["src"].  A copy of
        # the package stands in for the installed one: a fault put only in the
        # copy must fail the run, which it cannot if the run imports src.
        site = tmp_path / "site"
        shutil.copytree(Path(nc.__file__).parent, site / "nccorr", ignore=shutil.ignore_patterns("__pycache__"))
        node = f"{__file__}::TestValidateAndIO::test_store_load_is_bit_exact[negative-zero]"

        def run():
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-o", "pythonpath=", "--continue-on-collection-errors", node],
                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(site)), capture_output=True, text=True, timeout=120)

        proc = run()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(site / "nccorr" / "__init__.py", "a") as f:
            f.write("\nraise ImportError\n")
        proc = run()
        assert proc.returncode != 0, proc.stdout + proc.stderr
        workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
        assert "-o pythonpath=" in workflow.read_text()

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

    def test_least_eigenvalue_near_the_float_maximum(self):
        # herm_eig raises NoConvergence on eigenvalues past the float range, so
        # validate scales its matrix first; -|z| reads -inf, 1.7e308 - |z| is finite
        z = 1.7e308 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            off = nc.validate(nc.DensityMatrix((2,), np.array([[0, z], [np.conj(z), 0]])))
            diag = nc.validate(nc.DensityMatrix((2,), np.array([[1.7e308, z], [np.conj(z), 1.7e308]])))
        assert off.min_eigenvalue == -math.inf and not off.passed
        assert diag.min_eigenvalue == pytest.approx(1.7e308 * (1 - 2 ** 0.5), rel=1e-12)
        assert not diag.passed

    def test_passed_at_each_bound(self):
        # passed is the one verdict: each field exactly at its bound passes,
        # one float step beyond it fails, and a NaN field fails
        ok = nc.ValidationReport(qmat.HERM_TOL, qmat.TRACE_TOL, -qmat.NEG_TOL)
        assert ok.passed
        for field, beyond in [
            ("herm_deviation", np.nextafter(qmat.HERM_TOL, math.inf)),
            ("trace_deviation", np.nextafter(qmat.TRACE_TOL, math.inf)),
            ("min_eigenvalue", np.nextafter(-qmat.NEG_TOL, -math.inf)),
        ]:
            for bad in (beyond, math.nan):
                assert not dataclasses.replace(ok, **{field: float(bad)}).passed, (field, bad)

    def test_load_rejects_invalid_state(self, tmp_path):
        path = tmp_path / "nonpsd.json"
        obj = {
            "dims": [2],
            "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(nc.ValidationFailure):
            nc.load_state(path)


def offdiagonal(rho, basis):
    """max |off-diagonal| of rho in the product basis, relative to max|rho|."""
    B = qmat.product_basis_matrix(basis)
    R = B.conj().T @ rho.mat @ B
    np.fill_diagonal(R, 0.0)
    return np.max(np.abs(R)) / np.max(np.abs(rho.mat))


@st.composite
def classical_weights(draw):
    # small integer weights, so that ties and zeros are common
    dims = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]))
    w = draw(st.lists(st.integers(0, 3), min_size=math.prod(dims), max_size=math.prod(dims)))
    assume(sum(w) > 0)
    return dims, np.array(w, dtype=float).reshape(dims) / sum(w), draw(st.integers(0, 2**32 - 1))


class TestProductEigenbasisDetector:
    def test_sigma_has_none(self):
        # the 2p eigenvector (|01>+|10>)/sqrt(2) is entangled
        assert nc.product_eigenbasis(nc.make_sigma(0.125)) is None

    def test_classical_has_one(self):
        rng = np.random.default_rng(12)
        q = rng.random((2, 2))
        q /= q.sum()
        basis = nc.haar_random_product_basis((2, 2), 9)
        rho = nc.make_classically_correlated(basis, q)
        found = nc.product_eigenbasis(rho)
        assert offdiagonal(rho, found) <= 1e-14
        assert np.allclose(np.sort(nc.diag_probs(rho, found)), np.sort(q.ravel()), atol=1e-14)

    def test_generic_random_has_none(self):
        rho = nc.random_density_matrix((2, 2), 4, 100)
        assert nc.product_eigenbasis(rho) is None

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (2, 2, 2)], ids=["I4", "I16", "I8"])
    def test_maximally_mixed_has_one(self, dims):
        d = math.prod(dims)
        rho = nc.DensityMatrix(dims, np.eye(d, dtype=complex) / d)
        found = nc.product_eigenbasis(rho)
        assert found.dims == dims and offdiagonal(rho, found) == 0.0
        assert all(np.array_equal(f, np.eye(2)) for f in found.factors)

    def test_criterion_4_states_have_one(self):
        for i in range(100):
            rho = verify._generic_classical_state((2, 2) if i % 2 == 0 else (2, 3), 1000 + i)
            assert offdiagonal(rho, nc.product_eigenbasis(rho)) <= states.CLASSICAL_TOL, i

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_degenerate_and_rank_deficient_classical_have_one(self, dims):
        # every party in its own random frame, so no party's basis serves another's
        rng = np.random.default_rng(31)
        for seed in range(4):
            q = rng.integers(0, 3, dims).astype(float)  # at least 4 weights in {0, 1, 2} tie
            q.flat[0], q.flat[-1] = 1.0, 0.0
            rho = nc.make_classically_correlated(nc.haar_random_product_basis(dims, 40 + seed), q / q.sum())
            assert offdiagonal(rho, nc.product_eigenbasis(rho)) <= states.CLASSICAL_TOL, seed

    @pytest.mark.parametrize("family", sorted(sweep.FAMILIES))
    def test_family_grids_have_one_only_at_zero(self, family):
        # on the seed-1 101-point sweeps D is 0 at parameter 0 and at least
        # 1.4e-4 at every other point
        ctor, lo, hi = sweep.FAMILIES[family]
        for p in np.linspace(lo, hi, 101):
            found = nc.product_eigenbasis(ctor(float(p)))
            assert (found is None) == (p > 0), p

    def test_degenerate_factor_basis_does_not_follow_round_off(self):
        # party 0's combination C + C^dag is degenerate on the plane P
        u = np.array([1.0, 1.0, -1.0]) / 3 ** 0.5
        P = np.eye(3) - np.outer(u, u)
        mat = 0.3 * np.kron(P, np.diag([1.0, 0.0])) + 0.4 * np.kron(np.eye(3) - P, np.diag([0.0, 1.0]))
        rho = nc.DensityMatrix((3, 2), mat)
        found = nc.product_eigenbasis(rho)
        rng = np.random.default_rng(8)
        for _ in range(20):
            E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            other = nc.product_eigenbasis(nc.DensityMatrix((3, 2), rho.mat + 1e-15 * (E + E.conj().T) / 2))
            for f, g in zip(found.factors, other.factors):
                assert np.abs(f - g).max() <= 1e-9

    def test_ghz_with_white_noise_has_none(self):
        g = np.zeros(8)
        g[[0, 7]] = 0.5 ** 0.5
        for p in (1e-6, 0.6):
            rho = nc.DensityMatrix((2, 2, 2), p * np.outer(g, g) + (1 - p) * np.eye(8) / 8)
            assert nc.product_eigenbasis(rho) is None, p

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(classical_weights())
    def test_every_classical_state_has_one(self, case):
        dims, q, seed = case
        rho = nc.make_classically_correlated(nc.haar_random_product_basis(dims, seed), q)
        found = nc.product_eigenbasis(rho)
        assert found is not None and found.unitarity_residual() <= 1e-12
        assert abs(qmat.shannon_entropy(nc.diag_probs(rho, found)) - qmat.von_neumann_entropy(rho)) <= 1e-12
