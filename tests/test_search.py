import math
import threading
import tracemalloc

import numpy as np
import pytest

import nccorr as nc
from nccorr import qmat, search


def s(x):
    return 0.0 if x <= 0 else -x * math.log2(x)


def normals(dims, n, seed):
    """n samples' Ginibre normals for `search._haar_batch`, from default_rng(seed)."""
    return search._ginibre(np.random.default_rng(seed), dims, n)


class TestHaarSampling:
    def test_unitarity(self):
        basis = nc.haar_random_product_basis((2, 2), 4711)
        assert basis.unitarity_residual() <= 1e-12
        for f in basis.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = nc.haar_random_product_basis((2, 4), 99)
        b = nc.haar_random_product_basis((2, 4), 99)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)
        c = nc.haar_random_product_basis((2, 4), 100)
        assert not np.array_equal(a.factors[0], c.factors[0])

    def test_haar_first_moment(self):
        # E |U_00|^2 = 1/d for Haar; check d=2 over 10^4 samples
        (us,) = search._haar_batch((2,), normals((2,), 10000, 0))
        mean = float(np.mean(np.abs(us[:, 0, 0]) ** 2))
        assert abs(mean - 0.5) <= 0.02

    HAAR_DIMS = [(2,), (3,), (4,), (2, 4), (3, 3), (2, 2, 2, 2)]

    @staticmethod
    def lapack_oracle(dims, N):
        """Q of LAPACK's QR of each Ginibre matrix, phased so R has a positive diagonal."""
        out, off = [], 0
        for d in dims:
            block = N[:, off : off + 2 * d * d].reshape(-1, d, d, 2)
            off += 2 * d * d
            Q, R = np.linalg.qr(block[..., 0] + 1j * block[..., 1])
            diag = R[:, np.arange(d), np.arange(d)]
            out.append(Q * (diag / np.abs(diag))[:, None, :])
        return out

    @pytest.mark.parametrize("dims", HAAR_DIMS)
    def test_row_alone_in_slice_and_in_batch_identical(self, dims):
        N = normals(dims, 10000, 11)
        full = search._haar_batch(dims, N)
        part = search._haar_batch(dims, N[4321:4400])
        for i in (0, 1, 4321, 4399, 9999):
            alone = search._haar_batch(dims, N[i : i + 1])
            for F, A in zip(full, alone):
                assert np.array_equal(A[0], F[i])
        for F, P in zip(full, part):
            assert F.flags.c_contiguous and P.flags.c_contiguous
            assert np.array_equal(P, F[4321:4400])
        # complex ufuncs run a vector body and a scalar tail: every tail length, at an odd offset
        for n in range(1, 18):
            for F, P in zip(full, search._haar_batch(dims, N[777 : 777 + n])):
                assert np.array_equal(P, F[777 : 777 + n])

    @pytest.mark.parametrize("dims", HAAR_DIMS)
    def test_every_sample_unitary(self, dims):
        for F in search._haar_batch(dims, normals(dims, 10000, 11)):
            d = F.shape[-1]
            gram = np.swapaxes(F.conj(), 1, 2) @ F
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-14

    @pytest.mark.parametrize("dims", HAAR_DIMS)
    def test_matches_lapack_qr_with_phase_fix(self, dims):
        N = normals(dims, 2000, 12)
        for F, Q in zip(search._haar_batch(dims, N), self.lapack_oracle(dims, N)):
            assert np.max(np.abs(F - Q)) <= 1e-11

    @pytest.mark.parametrize("d", [3, 4])
    def test_haar_first_moment_qutrit_and_ququart(self, d):
        (us,) = search._haar_batch((d,), normals((d,), 10000, 11))
        assert abs(float(np.mean(np.abs(us[:, 0, 0]) ** 2)) - 1.0 / d) <= 0.02

    @pytest.mark.parametrize("columns", [
        [[1.0, 0.0], [2.0, 0.0]],  # second column a multiple of the first
        [[0.0, 0.0], [1.0, 0.0]],  # zero first column
    ], ids=["dependent-column", "zero-column"])
    def test_rank_deficient_input_raises(self, columns):
        # entries (r, c) in the normals' layout: real, imaginary part per entry
        G = np.array(columns).T
        N = np.stack([G, np.zeros_like(G)], axis=-1).reshape(1, -1)
        with pytest.raises(nc.NoConvergence):
            search._haar_batch((2,), np.repeat(N, 3, 0))


class TestSearchConfig:
    @pytest.mark.parametrize("field", [{"n_samples": -1}, {"chunk_size": 0}],
                             ids=["negative-samples", "zero-chunk-size"])
    def test_bad_value_is_param_out_of_range(self, field):
        with pytest.raises(nc.ParamOutOfRange):
            nc.SearchConfig(**field)


class TestMinDiagEntropy:
    def test_diagonal_state_exact(self):
        q = np.array([0.4, 0.3, 0.2, 0.1])
        rho = nc.DensityMatrix((2, 2), np.diag(q).astype(complex))
        cfg = nc.SearchConfig(n_samples=200, seed=2, refine_steps=0)
        val, basis, _ = nc.min_diag_entropy(rho, cfg)
        expected = qmat.shannon_entropy(qmat.diag_probs(rho, nc.computational_basis((2, 2))))
        assert val == expected

    def test_maximally_mixed_two_bits(self):
        rho = nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)
        val, _, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=100, refine_steps=5))
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_ps_half_closed_form(self):
        rho = nc.make_pseudo_entangled(0.5)
        val, _, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=2000, refine_steps=50))
        assert val == pytest.approx(2 * s(3 / 8) + 2 * s(1 / 8), abs=1e-12)

    def test_never_below_von_neumann(self):
        for seed in range(6):
            rho = nc.random_density_matrix((2, 2), 4, seed)
            val, _, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=300, refine_steps=20))
            assert val >= qmat.von_neumann_entropy(rho) - 1e-9

    def test_never_above_deterministic_candidates(self):
        rho = nc.random_density_matrix((2, 2), 4, 31)
        val, _, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=500, refine_steps=0))
        comp = qmat.shannon_entropy(qmat.diag_probs(rho, nc.computational_basis((2, 2))))
        marg = qmat.shannon_entropy(qmat.diag_probs(rho, nc.marginal_eigenbasis(rho)))
        assert val <= comp and val <= marg

    def test_monotone_in_samples(self):
        rho = nc.random_density_matrix((2, 2), 4, 55)
        vals = [
            nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=n, seed=7, refine_steps=0))[0]
            for n in (0, 100, 400, 1600)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_chunk_size_invariance(self):
        rho = nc.random_density_matrix((2, 3), 6, 77)
        base = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=700, seed=3, refine_steps=30))
        for chunk in (1, 13, 256, 10000):
            cfg = nc.SearchConfig(n_samples=700, seed=3, refine_steps=30, chunk_size=chunk)
            val, basis, _ = nc.min_diag_entropy(rho, cfg)
            assert val == base[0]
            for fa, fb in zip(basis.factors, base[1].factors):
                assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3)])
    def test_chunk_size_invariance_multipartite(self, dims):
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 78)
        base = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=700, seed=3, refine_steps=30))
        for chunk in (1, 13, 256, 10000):
            cfg = nc.SearchConfig(n_samples=700, seed=3, refine_steps=30, chunk_size=chunk)
            val, basis, diag = nc.min_diag_entropy(rho, cfg)
            assert val == base[0]
            assert diag == base[2]
            for fa, fb in zip(basis.factors, base[1].factors):
                assert np.array_equal(fa, fb)

    def test_refinement_never_increases(self):
        rho = nc.random_density_matrix((2, 2), 4, 91)
        v0, _, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=200, seed=5, refine_steps=0))
        v1, _, d1 = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=200, seed=5, refine_steps=200))
        assert v1 <= v0
        assert d1["refine_accepts"] >= 0

    @pytest.mark.parametrize("refine_steps", [200, 20000])
    @pytest.mark.parametrize("dims", [(2, 3), (2, 4), (3, 3)])
    def test_refine_leaves_pure_state_optimum_alone(self, dims, refine_steps):
        # the marginal eigenbasis of a pure state is its Schmidt basis, which
        # attains the minimum (D = D_G); no descended basis may beat it by
        # rounding, however many rounds each start may take
        for seed in (1, 2, 3):
            rho = nc.random_density_matrix(dims, 1, seed)
            rep = nc.measure_D(rho, nc.SearchConfig(refine_steps=refine_steps))
            assert rep.diagnostics["best_source"] == "marginal-eigenbasis"
            assert rep.value == nc.measure_DG(rho).value
            # each start ends on at most one rejected round
            diag = rep.diagnostics
            assert diag["refine_steps"] - diag["refine_accepts"] <= len(diag["start_rounds"])

    @pytest.mark.parametrize("rho, bound", [
        (nc.make_horodecki(0.28), 0.5039),
        (nc.make_horodecki(0.52), 0.4608),
        (nc.random_density_matrix((3, 3), 9, 100), 0.4546),
    ], ids=["horodecki-0.28", "horodecki-0.52", "random-3x3-seed100"])
    def test_refine_meets_production_bounds(self, rho, bound):
        rep = nc.measure_D(rho, nc.SearchConfig())
        assert rep.diagnostics["best_source"] == "refine"
        assert rep.value <= bound

    def test_witness_reproduces_value(self):
        rho = nc.random_density_matrix((2, 2), 4, 13)
        val, basis, _ = nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=400, refine_steps=0))
        assert qmat.shannon_entropy(qmat.diag_probs(rho, basis)) == pytest.approx(val, abs=1e-12)


class TestDescent:
    @staticmethod
    def moved_entropies(rho, factors, X):
        """Entropy at U_k exp(A_k) for each row x of X, A_k from x's `_lie_basis` coordinates."""
        moved, off = [], 0
        for F in factors:
            G = search._lie_basis(F.shape[-1])
            A = np.einsum("ka,aij->kij", X[:, off : off + len(G)], G)
            off += len(G)
            moved.append(search._rotate(np.repeat(F, len(X), axis=0), A, np.ones(1))[:, 0])
        return search._batch_entropies(rho.mat, moved)

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_gradient_matches_central_differences(self, dims):
        # gradient and Hessian of `_derivatives` against central differences
        # of the scorer, at eps = 1e-5 for g and 1e-4 for H
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 5)
        factors = search._haar_batch(dims, normals(dims, 1, 3))
        g, H, p = search._derivatives(rho.mat, factors)
        n = sum(d * d - d for d in dims)
        assert g.shape == (1, n) and H.shape == (1, n, n)
        assert np.max(np.abs(p - qmat.product_diagonals(rho.mat, factors))) <= 1e-15
        E = np.eye(n)
        f = self.moved_entropies(rho, factors, np.concatenate([1e-5 * E, -1e-5 * E])).reshape(2, n)
        assert np.max(np.abs(g[0] - (f[0] - f[1]) / 2e-5)) <= 1e-9
        eps = 1e-4
        pm = [eps * (E[:, None] + s * E[None]).reshape(n * n, n) for s in (1, -1)]
        f = self.moved_entropies(rho, factors, np.concatenate([pm[0], pm[1], -pm[1], -pm[0]])).reshape(4, n, n)
        fd = (f[0] - f[1] - f[2] + f[3]) / (4 * eps * eps)
        assert np.max(np.abs(H[0] - fd)) <= 1e-6

    def test_hessian_tells_saddles_from_the_witness(self):
        # both fixed starts of horodecki 0.52 are stationary saddles; the
        # descended witness is a strict local minimum
        rho = nc.make_horodecki(0.52)
        for basis, least in [(nc.computational_basis(rho.dims), -0.2985), (search.marginal_eigenbasis(rho), -0.01736)]:
            g, H, _ = search._derivatives(rho.mat, [f[None] for f in basis.factors])
            assert np.sqrt(g[0] @ g[0]) <= search._GRAD_TOL
            assert np.linalg.eigvalsh(H[0])[0] == pytest.approx(least, abs=1e-4)
        diag = nc.measure_D(rho, nc.SearchConfig()).diagnostics
        assert diag["converged"] is True
        assert diag["hessian_min_eig"] == pytest.approx(0.0432, abs=1e-3)

    def test_certificate_is_not_smooth_at_a_zero_diagonal_entry(self):
        # a pure (2,3) state's witness is its Schmidt basis, where 4 of the 6
        # diagonal entries vanish
        diag = nc.measure_D(nc.random_density_matrix((2, 3), 1, 1), nc.SearchConfig()).diagnostics
        assert diag["best_source"] == "marginal-eigenbasis"
        assert diag["converged"] is True and diag["hessian_min_eig"] is None

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_rotate_rows_alone_or_stacked_identical_and_unitary(self, dims):
        # the descent stacks the factors of same-dimension subsystems, start-major,
        # and turns them in one call; each (start, step) must not depend on that
        n, rng = 5, np.random.default_rng(4)
        U = search._haar_batch(dims, normals(dims, n, 8))
        A = []
        for d in dims:
            X = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            A.append(X - X.conj().swapaxes(1, 2))
        t = rng.uniform(0.01, 1.0) * search._TRIALS
        for d in dict.fromkeys(dims):
            ks = [k for k, dk in enumerate(dims) if dk == d]
            stacked = search._rotate(
                np.stack([U[k] for k in ks], axis=1).reshape(-1, d, d),
                np.stack([A[k] for k in ks], axis=1).reshape(-1, d, d),
                t,
            ).reshape(n, len(ks), len(search._TRIALS), d, d)
            gram = stacked.conj().swapaxes(-1, -2) @ stacked
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-14
            for j, k in enumerate(ks):
                assert np.array_equal(search._rotate(U[k], A[k], t), stacked[:, j])
                for s in range(n):
                    w, V = np.linalg.eigh(-1j * A[k][s])
                    for step in range(len(search._TRIALS)):
                        alone = search._rotate(U[k][s : s + 1], A[k][s : s + 1], t[step : step + 1])
                        assert np.array_equal(alone[0, 0], stacked[s, j, step])
                        want = U[k][s] @ V @ np.diag(np.exp(1j * t[step] * w)) @ V.conj().T
                        assert np.max(np.abs(stacked[s, j, step] - want)) <= 1e-13

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 4), (2, 2, 2, 2)])
    def test_start_descends_the_same_alone_or_in_a_batch(self, dims):
        # starts stop at different rounds and leave the batch, so a start's path
        # must not depend on its batch; the stationary third start stops at round 0
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 7)
        starts = search._haar_batch(dims, normals(dims, 4, 1))
        h = search._batch_entropies(rho.mat, starts)
        U, _, _, _ = search._descend(rho.mat, starts, h, 100)
        norms = np.sqrt((np.abs(search._derivatives(rho.mat, U)[0]) ** 2).sum(1))
        stationary = [F[[np.argmin(norms)]] for F in U]
        assert norms.min() <= search._GRAD_TOL
        starts = [np.concatenate([F[:2], S, F[2:]]) for F, S in zip(starts, stationary)]
        h = search._batch_entropies(rho.mat, starts)
        U, h_end, rounds, _ = search._descend(rho.mat, starts, h, 100)
        assert rounds[2] == 0 and len(set(rounds.tolist())) > 2
        for i in range(5):
            U_i, h_i, rounds_i, _ = search._descend(rho.mat, [F[i : i + 1] for F in starts], h[i : i + 1], 100)
            assert h_i[0] == h_end[i] and rounds_i[0] == rounds[i]
            for F, F_i in zip(U, U_i):
                assert np.array_equal(F_i[0], F[i])

    @staticmethod
    def spied_descend(monkeypatch, rho_mat, starts, h, max_rounds, reject=None):
        """`_descend` with the inputs of `_rotate` and `_derivatives` and the scores recorded per call.

        reject = (round, start) makes that start's steps score inf in that round.
        """
        rotated, derived, scores = [], [], []
        rotate, score, derivatives = search._rotate, search._batch_entropies, search._derivatives

        def spy_rotate(U, A, t):
            rotated.append((U.copy(), A.copy()))
            return rotate(U, A, t)

        def spy_score(rho_mat, stacks):
            ent = score(rho_mat, stacks)
            scores.append(ent.copy())
            if reject is not None and len(scores) == reject[0]:
                T = len(search._TRIALS)
                ent[reject[1] * T : (reject[1] + 1) * T] = np.inf
            return ent

        def spy_derivatives(rho_mat, stacks):
            derived.append([F.copy() for F in stacks])
            return derivatives(rho_mat, stacks)

        monkeypatch.setattr(search, "_rotate", spy_rotate)
        monkeypatch.setattr(search, "_batch_entropies", spy_score)
        monkeypatch.setattr(search, "_derivatives", spy_derivatives)
        out = search._descend(rho_mat, starts, h, max_rounds)
        monkeypatch.undo()
        return out, rotated, derived, scores

    def test_start_leaves_at_its_first_rejected_round(self, monkeypatch):
        # two (3,3) starts share a batch, and start 0 finds nothing lower in
        # round 2: it leaves with its round-1 factors and entropy, and later
        # rounds carry only start 1, whose path is that of start 1 alone
        rho = nc.random_density_matrix((3, 3), 9, 7)
        starts = search._haar_batch((3, 3), normals((3, 3), 2, 1))
        h = search._batch_entropies(rho.mat, starts)
        (U, h_end, rounds, accepts), rotated, derived, scores = self.spied_descend(
            monkeypatch, rho.mat, starts, h, 100, reject=(2, 0))
        assert rounds[0] == 2 and accepts[0] == 1
        assert rounds[1] > 3 and accepts[1] >= rounds[1] - 1
        T = len(search._TRIALS)
        assert h_end[0] == scores[0][:T].min() < h[0]
        # the factors start 0 was turned from in round 2 are its round-1 choice
        assert np.array_equal(np.stack([U[0][0], U[1][0]]), rotated[1][0][:2])
        assert [len(U_r) for U_r, _ in rotated] == [4, 4] + [2] * (rounds[1] - 2)
        assert [len(F[0]) for F in derived] == [2, 2] + [1] * (len(derived) - 2)

        (U_1, h_1, rounds_1, accepts_1), rotated_1, derived_1, _ = self.spied_descend(
            monkeypatch, rho.mat, [F[1:] for F in starts], h[1:], 100)
        assert h_1[0] == h_end[1] and rounds_1[0] == rounds[1] and accepts_1[0] == accepts[1]
        for F, F_1 in zip(U, U_1):
            assert np.array_equal(F_1[0], F[1])
        assert len(rotated_1) == len(rotated) and len(derived_1) == len(derived)
        for (U_r, A_r), (U_s, A_s) in zip(rotated, rotated_1):
            assert np.array_equal(U_r[-2:], U_s) and np.array_equal(A_r[-2:], A_s)
        for F_r, F_s in zip(derived, derived_1):
            for a, b in zip(F_r, F_s):
                assert np.array_equal(a[-1:], b)

    def test_no_rounds_compute_no_derivatives_and_turn_nothing(self, monkeypatch):
        rho = nc.random_density_matrix((2, 3), 6, 7)
        starts = search._haar_batch((2, 3), normals((2, 3), 3, 1))
        h = search._batch_entropies(rho.mat, starts)
        (U, h_end, rounds, accepts), rotated, derived, scores = self.spied_descend(
            monkeypatch, rho.mat, starts, h, 0)
        assert rotated == derived == scores == []
        assert np.array_equal(h_end, h) and not rounds.any() and not accepts.any()
        for F, F_0 in zip(U, starts):
            assert np.array_equal(F, F_0)

    @pytest.mark.parametrize("seed, bound", [(1, None), (2006, 0.4422745949546236)])
    def test_every_start_converges_near_horodecki_one(self, monkeypatch, seed, bound):
        # here the starts once crept along at the 100-round cap, and where the
        # cap cut decided D
        ends = []
        descend = search._descend

        def spy(rho_mat, stacks, h, max_rounds):
            out = descend(rho_mat, stacks, h, max_rounds)
            ends.append((rho_mat, out[0], out[2]))
            return out

        monkeypatch.setattr(search, "_descend", spy)
        for b in (0.94, 0.95, 0.96, 0.97, 0.98, 0.99):
            rep = nc.measure_D(nc.make_horodecki(b), nc.SearchConfig(seed=seed))
            rho_mat, U, rounds = ends[-1]
            g = search._derivatives(rho_mat, U)[0]
            assert np.sqrt((g * g).sum(1)).max() <= search._GRAD_TOL
            assert rounds.max() < 100
            assert rep.diagnostics["converged"] is True and rep.diagnostics["hessian_min_eig"] > 0
        if bound is not None:
            assert rep.value <= bound

    def test_diagnostics_certify_the_descended_witness(self):
        rho = nc.make_horodecki(0.28)
        diag = nc.measure_D(rho, nc.SearchConfig()).diagnostics
        assert diag["best_source"] == "refine"
        assert diag["start"].startswith("sample:")
        assert len(diag["start_rounds"]) == 2 + search._N_STARTS
        assert diag["refine_steps"] == sum(diag["start_rounds"])
        assert 0 < diag["refine_accepts"] <= diag["refine_steps"]
        assert diag["gradient_norm"] <= search._GRAD_TOL

    def test_memory_is_bounded_by_the_chunk_size(self):
        rho = nc.random_density_matrix((2, 4), 8, 3)
        cfg = nc.SearchConfig(n_samples=100_000, chunk_size=1024, refine_steps=0)
        tracemalloc.start()
        try:
            nc.measure_D(rho, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestMarginalEigenbasis:
    # both families have marginals exactly I/2, so any basis diagonalises them;
    # the D_G closed forms hold only for the computational one
    @pytest.mark.parametrize("make, params", [
        (nc.make_pseudo_entangled, (0.0, 0.3, 0.5, 1.0)),
        (nc.make_sigma, (0.0, 0.125, 0.25, 0.5)),
    ])
    def test_identity_factors_on_families(self, make, params):
        for p in params:
            basis = search.marginal_eigenbasis(make(p))
            for f in basis.factors:
                assert np.array_equal(f, np.eye(2))


class TestSingleScorer:
    """Fixed starts, samples and descent steps share one scorer; only the
    witness goes through `qmat.diag_probs`."""

    @pytest.mark.parametrize("rho, cfg, source", [
        (nc.DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)),
         nc.SearchConfig(n_samples=200, seed=2, refine_steps=0), "computational"),
        (nc.random_density_matrix((2, 3), 1, 1),
         nc.SearchConfig(n_samples=200, seed=2, refine_steps=0), "marginal-eigenbasis"),
        (nc.random_density_matrix((2, 2, 2), 2, 6),
         nc.SearchConfig(n_samples=2000, seed=3, refine_steps=0), "sample:"),
        (nc.random_density_matrix((2, 2, 2), 2, 6),
         nc.SearchConfig(n_samples=400, seed=1, refine_steps=100), "refine"),
    ], ids=["computational", "marginal-eigenbasis", "sample", "refine"])
    def test_value_is_entropy_of_checked_witness(self, rho, cfg, source):
        val, basis, diag = nc.min_diag_entropy(rho, cfg)
        assert diag["best_source"].startswith(source)
        assert val == qmat.shannon_entropy(qmat.diag_probs(rho, basis))

    def test_diag_probs_only_for_witness(self, monkeypatch):
        calls = []
        real = qmat.diag_probs

        def counting(rho, basis):
            calls.append(basis)
            return real(rho, basis)

        monkeypatch.setattr(qmat, "diag_probs", counting)
        rho = nc.random_density_matrix((2, 3), 6, 21)
        cfg = nc.SearchConfig(n_samples=300, seed=4, refine_steps=50)
        _, basis, _ = nc.min_diag_entropy(rho, cfg)
        assert len(calls) == 1
        assert calls[0] is basis

    def test_every_start_is_scored_once(self, monkeypatch):
        # 300 samples in chunks of 128, 128 and 44, plus the two fixed
        # starts; the kept samples' scores are reused, not recomputed
        rows = []
        real = search._batch_entropies

        def counting(rho_mat, factor_stacks):
            rows.append(len(factor_stacks[0]))
            return real(rho_mat, factor_stacks)

        monkeypatch.setattr(search, "_batch_entropies", counting)
        rho = nc.random_density_matrix((2, 3), 6, 21)
        nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=300, seed=4, refine_steps=0, chunk_size=128))
        assert sum(rows) == 302

    @pytest.mark.parametrize("rho, error", [
        (nc.DensityMatrix((2, 2), np.eye(4, dtype=complex) / 2), nc.NotAProbabilityVector),
    ], ids=["trace-two-state"])
    def test_bad_input_still_raises(self, rho, error):
        cfg = nc.SearchConfig(n_samples=50, seed=1, refine_steps=5)
        with pytest.raises(error):
            nc.min_diag_entropy(rho, cfg)

    def test_batch_score_equals_checked_entropy(self):
        # both sum -p log2 p with the zeros kept, so the grouping is the same
        cases = [(nc.random_density_matrix((3, 3), 1, 1), None)]
        for dims in [(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]:
            d = int(np.prod(dims))
            for seed in range(8):
                cases.append((nc.random_density_matrix(dims, (1, 2, d)[seed % 3], seed),
                              nc.SearchConfig(n_samples=500, seed=1, refine_steps=40)))
        for rho, cfg in cases:
            basis = search.marginal_eigenbasis(rho) if cfg is None else nc.min_diag_entropy(rho, cfg)[1]
            score = search._batch_entropies(rho.mat, [f[None] for f in basis.factors])[0]
            assert score == qmat.shannon_entropy(qmat.diag_probs(rho, basis))

    def test_editing_a_sample_witness_leaves_later_results_alone(self):
        rho = nc.random_density_matrix((2, 2, 2), 2, 6)
        cfg = nc.SearchConfig(n_samples=2000, seed=3, refine_steps=0)
        rep = nc.measure_D(rho, cfg)
        assert rep.diagnostics["best_source"].startswith("sample:")
        rep.witness.factors[0][:] = np.eye(2)
        assert nc.measure_D(rho, cfg).value == rep.value


class TestConcurrentCallers:
    """The search keeps no state between calls, so callers on several
    threads get what they would get one after another."""

    def test_concurrent_callers_get_serial_results(self):
        jobs = [
            (nc.random_density_matrix((2, 4), 8, 41), nc.SearchConfig(n_samples=7000, seed=11, refine_steps=40)),
            (nc.random_density_matrix((2, 2, 2), 8, 42),
             nc.SearchConfig(n_samples=7000, seed=12, refine_steps=40, chunk_size=1000)),
        ]
        serial = [nc.measure_D(rho, cfg) for rho, cfg in jobs]
        start = threading.Barrier(len(jobs))
        reports = [None] * len(jobs)

        def call(k):
            start.wait()
            reports[k] = nc.measure_D(*jobs[k])

        threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads), "deadlock"
        for got, want in zip(reports, serial):
            assert got.value == want.value
            assert got.diagnostics == want.diagnostics
            for fa, fb in zip(got.witness.factors, want.witness.factors):
                assert np.array_equal(fa, fb)
