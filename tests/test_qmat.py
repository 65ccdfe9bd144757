import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nccorr as nc
from nccorr import qmat, search

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def random_state(dims, seed, rank=None):
    d = int(np.prod(dims))
    return nc.random_density_matrix(dims, rank or d, seed)


class TestHermEig:
    def test_identity(self):
        spec, V = qmat.herm_eig(np.eye(4, dtype=complex))
        assert np.array_equal(spec, np.ones(4))
        assert np.array_equal(V, np.eye(4))

    def test_pauli_x(self):
        spec, _ = qmat.herm_eig(PAULI_X)
        assert np.allclose(spec, [1.0, -1.0], atol=1e-14)

    def test_sigma_eighth_spectrum(self):
        # block structure 1x1 / 2x2 / 1x1 gives (3/8, 3/8, 1/4, 0) by hand
        spec, _ = qmat.herm_eig(nc.make_sigma(0.125).mat)
        assert np.allclose(spec, [0.375, 0.375, 0.25, 0.0], atol=1e-14)

    def test_non_hermitian_rejected(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(nc.NonHermitian):
            qmat.herm_eig(M)

    def test_reconstruction_500_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 17))
            H = random_hermitian(rng, n)
            spec, V = qmat.herm_eig(H)
            err = np.linalg.norm((V * spec) @ V.conj().T - H)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(H))
            ortho = np.max(np.abs(V.conj().T @ V - np.eye(n)))
            assert ortho <= 1e-10
            assert np.all(np.diff(spec) <= 1e-12)

    def test_deterministic_and_phase_convention(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 7)
        s1, V1 = qmat.herm_eig(H)
        s2, V2 = qmat.herm_eig(H.copy())
        assert np.array_equal(s1, s2)
        assert np.array_equal(V1, V2)
        for j in range(7):
            i = int(np.argmax(np.abs(V1[:, j])))
            assert abs(V1[i, j].imag) < 1e-14
            assert V1[i, j].real >= 0.0

    def test_phase_tie_goes_to_the_lowest_index(self):
        # the 0.2-eigenvector u has three components of equal magnitude, so
        # round-off alone would pick the one made real and non-negative
        u = np.array([1.0, 1.0, -1.0]) / 3 ** 0.5
        H = 0.4 * (np.eye(3) - np.outer(u, u)) + 0.2 * np.outer(u, u)
        rng = np.random.default_rng(5)
        for _ in range(20):
            E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            _, V = qmat.herm_eig(H + 1e-15 * (E + E.conj().T) / 2)
            assert np.abs(V[:, 2] - u).max() <= 1e-12

    @pytest.mark.parametrize("sizes", [(2, 1), (1, 2), (3, 1), (1, 2, 1), (2, 2), (3, 2), (1, 3, 1),
                                       (2, 1, 2), (3, 3), (1, 2, 3), (2, 2, 2)], ids=str)
    def test_degenerate_eigenspace_basis_depends_on_the_eigenspace_alone(self, sizes):
        # H built twice from bases that differ by a random unitary inside each
        # cluster of equal eigenvalues, so only the eigenspaces are the same
        rng = np.random.default_rng(sum(s * 10 ** k for k, s in enumerate(sizes)))

        def unitary(n):
            return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

        n = sum(sizes)
        for _ in range(10):
            w = np.repeat(np.sort(rng.random(len(sizes)))[::-1] + np.arange(len(sizes))[::-1], sizes)
            U = unitary(n)
            W = np.zeros((n, n), dtype=complex)
            for lo, m in zip(np.cumsum((0,) + sizes[:-1]), sizes):
                W[lo : lo + m, lo : lo + m] = unitary(m)
            s1, V1 = qmat.herm_eig((U * w) @ U.conj().T)
            s2, V2 = qmat.herm_eig((U @ W * w) @ (U @ W).conj().T)
            assert np.abs(s1 - s2).max() <= 1e-12
            assert np.abs(V1 - V2).max() <= 1e-12


class TestHermEigFailure:
    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(nc.NoConvergence):
            qmat.herm_eig(PAULI_X)

    def test_eigenvalues_only_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(nc.NoConvergence):
            qmat.herm_eig(PAULI_X, vectors=False)
        with pytest.raises(nc.NoConvergence):
            qmat.herm_eig(np.stack([PAULI_X, PAULI_X]), vectors=False)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_entries_near_the_float_maximum(self, vectors):
        # |z| overflows, so max|H| must come from H/2 for the Hermiticity
        # check to hold; the Hermitian matrix's eigenvalues +-|z| overflow
        z = 1.7e308 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nc.NonHermitian):
                qmat.herm_eig(np.array([[0, z], [z, 0]]), vectors=vectors)
            with pytest.raises(nc.NoConvergence, match="non-finite"):
                qmat.herm_eig(np.array([[0, z], [np.conj(z), 0]]), vectors=vectors)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_nan_entry_is_no_convergence_in_both_modes(self, vectors):
        # NaN never equals itself, so it takes the checked path, whose
        # Hermiticity test it passes; eigvalsh alone gave [-0., 0.] for this one
        H = np.array([[np.nan, 0], [0, 1]])
        for A in (H, np.stack([np.eye(2), H]), np.stack([H, np.eye(2)])):
            with pytest.raises(nc.NoConvergence, match="non-finite"):
                qmat.herm_eig(A, vectors=vectors)
        for A in (np.array([[1, np.nan + 1j], [np.nan - 1j, 1]]), np.array([[1, np.inf], [0, 1]])):
            with pytest.raises(nc.NoConvergence, match="non-finite"):
                qmat.herm_eig(A, vectors=vectors)


class TestHermEigStack:
    @pytest.mark.parametrize("rank", [1, 2, None], ids=["rank-1", "rank-2", "full-rank"])
    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2), (2, 3, 2)], ids=str)
    def test_rows_equal_single_calls(self, dims, rank):
        rho = random_state(dims, 19, rank)
        sides = [[k for k in range(len(dims)) if mask >> k & 1] for mask in range(1 << len(dims))]
        stack = np.stack([qmat.partial_transpose(rho, side) for side in sides])
        spectra, none = qmat.herm_eig(stack, vectors=False)
        assert none is None
        assert spectra.shape == (len(sides), rho.d_tot)
        for H, row in zip(stack, spectra):
            single, _ = qmat.herm_eig(H, vectors=False)
            assert np.array_equal(row, single)
            assert np.max(np.abs(row - qmat.herm_eig(H)[0])) <= 1e-14
            assert np.all(np.diff(row) <= 0.0)

    def test_vectors_reject_a_stack(self):
        stack = np.stack([PAULI_X, PAULI_X])
        with pytest.raises(nc.DimensionMismatch):
            qmat.herm_eig(stack[None], vectors=False)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3), (2, 4)], ids=str)
    def test_vectors_rows_equal_single_calls(self, dims):
        # each dimension's marginals of a pure state, then I/d, the qutrit
        # plane matrix (a tied eigenspace with tied magnitudes) and zero
        u = np.array([1.0, 1.0, -1.0]) / 3 ** 0.5
        plane = {3: [0.4 * (np.eye(3) - np.outer(u, u)) + 0.2 * np.outer(u, u)]}
        for d, marginals in qmat.marginal_stacks(random_state(dims, 23, 1)).items():
            stack = np.concatenate([marginals, [np.eye(d) / d, *plane.get(d, []), np.zeros((d, d))]])
            W, V = qmat.herm_eig(stack)
            assert W.shape == (len(stack), d) and V.shape == stack.shape
            for H, w, v in zip(stack, W, V):
                single_w, single_v = qmat.herm_eig(H)
                assert np.array_equal(w, single_w) and np.array_equal(v, single_v)
            assert np.array_equal(V[len(marginals)], np.eye(d))
            assert np.array_equal(W[-1], np.zeros(d)) and np.array_equal(V[-1], np.eye(d))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2)], ids=str)
    def test_empty_input_is_rejected(self, shape, vectors):
        with pytest.raises(nc.DimensionMismatch):
            qmat.herm_eig(np.zeros(shape), vectors=vectors)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_each_matrix_checked_against_its_own_scale(self, vectors):
        small = 1e-3 * np.array([[0.0, 1.0], [1.0001, 0.0]])
        with pytest.raises(nc.NonHermitian):
            qmat.herm_eig(small, vectors=vectors)
        with pytest.raises(nc.NonHermitian):
            qmat.herm_eig(np.stack([np.diag([1e6, -1e6]), small]), vectors=vectors)

    def test_zero_stack(self):
        spectra, none = qmat.herm_eig(np.zeros((3, 4, 4)), vectors=False)
        assert none is None
        assert np.array_equal(spectra, np.zeros((3, 4)))


def symmetrized_path(H, vectors):
    """herm_eig's result by the path every input took before exactly Hermitian
    input went to LAPACK as it is: eigh or eigvalsh of the Hermitian part,
    then the pinned sort, basis and phase rules."""
    A = np.asarray(H, dtype=np.complex128)
    S = qmat.hermitian_part(A.reshape((-1,) + A.shape[-2:]))[0]
    if not vectors:
        return np.linalg.eigvalsh(S)[..., ::-1].reshape(A.shape[:-1]), None
    w, V = zip(*(qmat._pinned(w, V) for w, V in zip(*np.linalg.eigh(S))))
    return np.stack(w).reshape(A.shape[:-1]), np.stack(V).reshape(A.shape)


def nudged(H, rel, seed):
    """H plus a non-Hermitian perturbation of max|H - H^dag| near rel * max|H|, in both triangles."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(H.shape) + 1j * rng.standard_normal(H.shape)
    return H + rel / 4 * np.abs(H).max() * E


def exact_inputs():
    """Exactly Hermitian matrices and stacks of the kinds the measures pass in:
    rho, its partial transposes, its marginals, and a Hermitian part."""
    rng = np.random.default_rng(31)
    out = [random_hermitian(rng, 5), nc.make_sigma(0.3).mat, nc.make_horodecki(0.4).mat]
    for dims, rank in [((2, 4), 2), ((3, 3), None), ((2, 2, 2), 1), ((2, 2, 2, 2), None)]:
        rho = random_state(dims, 29, rank)
        out += [rho.mat, np.stack([rho.mat] + [qmat.partial_transpose(rho, [k]) for k in range(1, len(dims))])]
        out += list(qmat.marginal_stacks(rho).values())
    return out


class TestHermEigExactInput:
    """A stack equal to its conjugate transpose goes to LAPACK as it is; any
    other is checked and symmetrized.  Both give the old path's bits."""

    @pytest.mark.parametrize("vectors", [True, False])
    def test_exact_input_gives_the_symmetrized_bits(self, vectors):
        for H in exact_inputs():
            assert np.array_equal(H, np.conj(np.swapaxes(H, -1, -2)))
            w, V = qmat.herm_eig(H, vectors)
            want_w, want_V = symmetrized_path(H, vectors)
            assert w.tobytes() == want_w.tobytes()
            assert (V is None) if not vectors else V.tobytes() == want_V.tobytes()

    @pytest.mark.parametrize("vectors", [True, False])
    def test_inexact_input_within_tolerance_is_symmetrized(self, vectors):
        for seed, H in enumerate(exact_inputs()):
            A = nudged(H, 1e-13, seed)
            assert not np.array_equal(A, np.conj(np.swapaxes(A, -1, -2)))
            w, V = qmat.herm_eig(A, vectors)
            want_w, want_V = symmetrized_path(A, vectors)
            assert w.tobytes() == want_w.tobytes()
            assert (V is None) if not vectors else V.tobytes() == want_V.tobytes()
            # the perturbation reaches the result: LAPACK reads other bits from the unsymmetrized A
            assert not np.array_equal(np.linalg.eigvalsh(A), np.linalg.eigvalsh(qmat.hermitian_part(A)[0]))

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_stack_mixing_exact_and_inexact_matrices_is_symmetrized(self, vectors):
        for dims in [(2, 4), (2, 2, 2, 2)]:
            rho = random_state(dims, 37)
            exact = rho.mat
            inexact = nudged(exact, 1e-13, 3)
            for stack in [np.stack([exact, inexact, exact]), np.stack([inexact, exact])]:
                w, V = qmat.herm_eig(stack, vectors)
                want_w, want_V = symmetrized_path(stack, vectors)
                assert w.tobytes() == want_w.tobytes()
                assert (V is None) if not vectors else V.tobytes() == want_V.tobytes()
                assert not np.array_equal(np.linalg.eigvalsh(stack), np.linalg.eigvalsh(qmat.hermitian_part(stack)[0]))

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_stack_with_one_matrix_past_tolerance_is_rejected(self, vectors):
        exact = random_state((2, 4), 41).mat
        for stack in [np.stack([exact, nudged(exact, 1e-8, 5)]), np.stack([exact, exact, nudged(exact, 1e-9, 6)])]:
            with pytest.raises(nc.NonHermitian):
                qmat.herm_eig(stack, vectors)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_a_deviation_any_closeness_test_would_forgive_is_rejected(self, vectors):
        # max|H - H^dag| / max|H| = 1e-9: past HERM_TOL, well inside np.allclose's defaults
        H = np.diag([1.0, 0.5, 0.25]).astype(complex)
        H[2, 0] = 1e-9
        assert np.allclose(H, H.conj().T)
        with pytest.raises(nc.NonHermitian):
            qmat.herm_eig(H, vectors)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(qmat.tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal(self):
        out = qmat.tensor(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        assert np.array_equal(np.diag(out), [10, 14, 15, 21])

    def test_block_structure(self):
        P0 = np.diag([1.0, 0.0]).astype(complex)
        out = qmat.tensor(P0, PAULI_X)
        assert np.array_equal(out[:2, :2], PAULI_X)
        assert np.all(out[2:, :] == 0) and np.all(out[:, 2:] == 0)


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(5)
        A = random_state((2,), 1).mat
        B = random_state((3,), 2).mat * 0.7  # trace != 1 on purpose
        rho = nc.DensityMatrix((2, 3), np.kron(A, B))
        red = qmat.partial_trace(rho, [0])
        assert np.allclose(red.mat, A * np.trace(B), atol=1e-12)

    def test_ps_marginal_maximally_mixed(self):
        for p in (0.0, 0.3, 1.0):
            red = qmat.partial_trace(nc.make_pseudo_entangled(p), [0])
            assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-14)

    def test_sigma_marginal(self):
        red = qmat.partial_trace(nc.make_sigma(0.2), [1])
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rho = random_state((2, 2, 2), 9)
        red = qmat.partial_trace(rho, [0, 2])
        assert abs(np.trace(red.mat).real - 1.0) <= 1e-12
        assert red.dims == (2, 2)

    def test_bad_index(self):
        with pytest.raises(nc.BadSubsystemIndex):
            qmat.partial_trace(nc.make_sigma(0.1), [2])
        with pytest.raises(nc.BadSubsystemIndex):
            qmat.partial_trace(nc.make_sigma(0.1), [])
        with pytest.raises(nc.BadSubsystemIndex):
            qmat.partial_trace(nc.make_sigma(0.1), [0, 0])
        # a non-integer index is refused, not truncated to a subsystem
        rho = nc.random_density_matrix((2, 3), 2, 1)
        with pytest.raises(nc.BadSubsystemIndex, match="1.7"):
            qmat.partial_trace(rho, [1.7])
        with pytest.raises(nc.BadSubsystemIndex, match="0.9"):
            qmat.partial_transpose(rho, [0.9])
        assert qmat.partial_trace(rho, [np.int64(1)]).dims == (3,)


class TestPartialTranspose:
    def test_sigma_pt_spectrum(self):
        p = 0.2
        pt = qmat.partial_transpose(nc.make_sigma(p), [1])
        spec, _ = qmat.herm_eig(pt)
        expected = np.sort([0.5, 0.5 - 2 * p, p, p])[::-1]
        assert np.allclose(spec, expected, atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_involution_exact(self, seed):
        rho = random_state((2, 3), seed)
        pt = qmat.partial_transpose(rho, [1])
        back = qmat.partial_transpose(nc.DensityMatrix((2, 3), pt), [1])
        assert np.array_equal(back, rho.mat)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_product_spectrum_preserved(self, seed):
        a = random_state((2,), seed)
        b = random_state((3,), seed + 1)
        rho = nc.tensor_state(a, b)
        s0, _ = qmat.herm_eig(rho.mat)
        s1, _ = qmat.herm_eig(qmat.partial_transpose(rho, [1]))
        assert np.allclose(s0, s1, atol=1e-10)

    def test_horodecki_spectrum_preserved(self):
        for b in (0.1, 0.5, 0.9):
            rho = nc.make_horodecki(b)
            s0, _ = qmat.herm_eig(rho.mat)
            s1, _ = qmat.herm_eig(qmat.partial_transpose(rho, [1]))
            assert np.allclose(s0, s1, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rho = random_state((2, 2), 17)
        pt = qmat.partial_transpose(rho, [0])
        assert abs(np.trace(pt).real - 1.0) <= 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12


class TestEntropies:
    @pytest.mark.parametrize(
        "p,expected",
        [([1, 0, 0, 0], 0.0), ([0.5, 0.5], 1.0), ([0.25] * 4, 2.0)],
    )
    def test_shannon_known(self, p, expected):
        assert qmat.shannon_entropy(np.array(p)) == pytest.approx(expected, abs=1e-14)

    def test_shannon_rejects_bad_input(self):
        with pytest.raises(nc.NotAProbabilityVector):
            qmat.shannon_entropy(np.array([0.5, 0.6]))
        with pytest.raises(nc.NotAProbabilityVector):
            qmat.shannon_entropy(np.array([1.5, -0.5]))
        with pytest.raises(nc.NotAProbabilityVector):
            qmat.shannon_entropy(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_round_off_negatives_score_as_their_clamped_copy(self, dims):
        # a pure state in its marginal eigenbasis (a Schmidt basis) has zero
        # diagonal entries, which come out as round-off negatives
        rows = [
            qmat.product_diagonals(rho.mat, qmat.projectors([f[None] for f in search.marginal_eigenbasis(rho).factors]))[0]
            for rho in (random_state(dims, seed, rank=1) for seed in range(20))
        ]
        P = np.array(rows + [[1.0, -1e-17, *([0.0] * (len(rows[0]) - 2))]])
        assert (P < 0).any(axis=1).sum() >= 5
        clamped = np.where(P > 0.0, P, 0.0)

        def same_bits(a, b):
            return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

        assert same_bits(qmat.entropy_bits(P), qmat.entropy_bits(clamped))
        for p, c in zip(P, clamped):
            assert same_bits(qmat.shannon_entropy(p), qmat.entropy_bits(c))

    def test_vn_pure_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        rho = nc.DensityMatrix((2, 2), np.outer(psi, psi.conj()))
        assert qmat.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_vn_maximally_mixed(self):
        rho = nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        assert qmat.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_vn_ps_closed_form(self):
        def s(x):
            return 0.0 if x <= 0 else -x * math.log2(x)

        for p in np.linspace(0, 1, 11):
            expected = 3 * s((1 - p) / 4) + s((1 + 3 * p) / 4)
            got = qmat.von_neumann_entropy(nc.make_pseudo_entangled(float(p)))
            assert got == pytest.approx(expected, abs=1e-11)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_vn_unitary_invariance(self, seed):
        rho = random_state((2, 2), seed)
        u = nc.haar_random_product_basis((4,), seed + 99).factors[0]
        rho2 = nc.DensityMatrix((2, 2), u @ rho.mat @ u.conj().T)
        assert abs(
            qmat.von_neumann_entropy(rho) - qmat.von_neumann_entropy(rho2)
        ) <= 1e-9


class TestDiagProbs:
    def test_computational_on_diagonal(self):
        q = np.array([0.4, 0.3, 0.2, 0.1])
        rho = nc.DensityMatrix((2, 2), np.diag(q).astype(complex))
        basis = nc.computational_basis((2, 2))
        assert np.allclose(qmat.diag_probs(rho, basis), q, atol=1e-15)

    def test_ps_diagonal(self):
        p = 0.37
        probs = qmat.diag_probs(nc.make_pseudo_entangled(p), nc.computational_basis((2, 2)))
        expected = [(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4]
        assert np.allclose(probs, expected, atol=1e-14)

    def test_any_basis_on_maximally_mixed(self):
        rho = nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        basis = nc.haar_random_product_basis((2, 2), 123)
        assert np.allclose(qmat.diag_probs(rho, basis), 0.25, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(nc.DimensionMismatch):
            qmat.diag_probs(nc.make_sigma(0.1), nc.computational_basis((2, 3)))
        with pytest.raises(nc.DimensionMismatch):
            nc.ProductBasis((np.eye(2), np.ones((2, 3))))


class TestProductDiagonals:
    DIMS = [(2,), (3,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)]

    @staticmethod
    def haar_stacks(dims, n, seed):
        return search._haar_batch(dims, search._ginibre(np.random.default_rng(seed), dims, n))

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("n", [1, 37])
    def test_matches_dense_kronecker_formula(self, dims, n):
        rho = random_state(dims, 40 + n)
        stacks = self.haar_stacks(dims, n, 5)
        got = qmat.product_diagonals(rho.mat, qmat.projectors(stacks))
        assert got.shape == (n, rho.d_tot)
        for s in range(n):
            B = qmat.product_basis_matrix(nc.ProductBasis(tuple(F[s] for F in stacks)))
            dense = np.einsum("ic,ic->c", B.conj(), rho.mat @ B).real
            assert np.max(np.abs(got[s] - dense)) <= 1e-14

    @pytest.mark.parametrize("dims", DIMS)
    def test_row_alone_equals_row_in_batch(self, dims):
        rho = random_state(dims, 61)
        stacks = self.haar_stacks(dims, 37, 6)
        batch = qmat.product_diagonals(rho.mat, qmat.projectors(stacks))
        for s in range(37):
            alone = qmat.product_diagonals(rho.mat, qmat.projectors([F[s : s + 1] for F in stacks]))
            assert np.array_equal(alone[0], batch[s])

    @pytest.mark.parametrize("dims", DIMS)
    def test_layout_does_not_change_rows(self, dims):
        rng = np.random.default_rng(sum(dims))
        for seed in range(10):
            rho = random_state(dims, 70 + seed, rank=int(rng.integers(1, np.prod(dims) + 1)))
            # herm_eig returns F-ordered eigenvector matrices
            facs = search.marginal_eigenbasis(rho).factors
            f_order = [np.asfortranarray(np.stack([f, f[::-1]])) for f in facs]
            c_order = [np.ascontiguousarray(F) for F in f_order]
            strided = [np.stack([F, F], axis=-1)[..., 0] for F in f_order]
            want = qmat.product_diagonals(rho.mat, qmat.projectors(c_order))
            assert not strided[0].flags.c_contiguous and not strided[0].flags.f_contiguous
            for stacks in (f_order, strided):
                assert np.array_equal(qmat.product_diagonals(rho.mat, qmat.projectors(stacks)), want)
            alone = qmat.product_diagonals(rho.mat, qmat.projectors([f[None] for f in facs]))
            assert np.array_equal(alone[0], want[0])
