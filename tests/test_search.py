import dataclasses
import gc
import inspect
import json
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import nccorr as nc
from nccorr import cli, qmat, search, sweep, verify


def s(x):
    return 0.0 if x <= 0 else -x * math.log2(x)


def normals(dims, n, seed):
    """n samples' Ginibre normals for `search._haar_batch`, from default_rng(seed)."""
    return search._ginibre(np.random.default_rng(seed), dims, n)


def perturbed(rho, seed):
    """rho plus 1e-15 (E + E^dag)/2, E complex Gaussian from default_rng(seed): round-off in a stored state."""
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(rho.mat.shape) + 1j * rng.standard_normal(rho.mat.shape)
    return nc.DensityMatrix(rho.dims, rho.mat + 1e-15 * (E + E.conj().T) / 2)


@pytest.fixture
def made(monkeypatch):
    """The sample count of every `search._haar_batch` call."""
    calls = []
    haar = search._haar_batch
    monkeypatch.setattr(search, "_haar_batch", lambda dims, N: calls.append(len(N)) or haar(dims, N))
    return calls


class TestHaarSampling:
    def test_unitarity(self):
        basis = nc.haar_random_product_basis((2, 2), 4711)
        assert basis.unitarity_residual() <= 1e-12
        for f in basis.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3, 2), (2, 2, 2, 2)])
    def test_one_gram_schmidt_per_dimension_equals_one_per_subsystem(self, dims):
        # the subsystems of one dimension share one Gram-Schmidt; each factor
        # must be bit for bit the one its subsystem's normals give alone
        N = normals(dims, 300, 12)
        ends = np.cumsum([2 * d * d for d in dims])
        for d, end, F in zip(dims, ends, search._haar_batch(dims, N)):
            (alone,) = search._haar_batch((d,), np.ascontiguousarray(N[:, end - 2 * d * d : end]))
            assert F.flags.c_contiguous and F.shape == alone.shape and F.tobytes() == alone.tobytes()

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

    @pytest.mark.parametrize("make", [lambda dims: nc.haar_random_product_basis(dims, 1), nc.computational_basis],
                             ids=["haar", "computational"])
    @pytest.mark.parametrize("dims", [(0,), (2, -1), (), (1,), (2.5, 2)])
    def test_bad_dims_are_a_dimension_mismatch(self, make, dims):
        # no state has these dims, so neither may a basis; numpy's own errors must not leak
        with pytest.raises(nc.DimensionMismatch, match="subsystem dims must all be >= 2"):
            make(dims)

    def test_numpy_int_dims_give_plain_int_factors(self):
        basis = nc.computational_basis(np.array([2, 3], dtype=np.int64))
        assert basis.dims == (2, 3) and all(type(d) is int for d in basis.dims)
        assert all(np.array_equal(f, np.eye(d)) for f, d in zip(basis.factors, (2, 3)))

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

    @pytest.mark.parametrize("chunk_size", [1, 7, 2048])
    def test_start_set_ties_by_sample_index(self, monkeypatch, chunk_size):
        # scores rounded to 0.1 bits tie often; the starts must be the two
        # fixed ones, then the best _N_STARTS samples by (score, index)
        real, real_descend, seen = search._batch_entropies, search._descend, []
        monkeypatch.setattr(search, "_batch_entropies", lambda m, f: np.round(real(m, f), 1))

        def capture(rho_mat, stacks, h, max_rounds, plan):
            seen.append([np.array(F) for F in stacks])
            return real_descend(rho_mat, stacks, h, max_rounds, plan)

        monkeypatch.setattr(search, "_descend", capture)
        rho, n = nc.random_density_matrix((2, 3), 6, 21), 300
        nc.min_diag_entropy(rho, nc.SearchConfig(n_samples=n, seed=4, refine_steps=0, chunk_size=chunk_size))
        facs = search._haar_batch(rho.dims, normals(rho.dims, n, 4))
        score = np.round(real(rho.mat, qmat.projectors(facs)), 1)
        best = sorted(range(n), key=lambda i: (score[i], i))[: search._N_STARTS + 1]
        assert score[best[-2]] == score[best[-1]]  # a tie at the cut
        fixed = zip(search.computational_basis(rho.dims).factors, search.marginal_eigenbasis(rho).factors)
        for F, (c, m), S in zip(seen[0], fixed, facs):
            assert np.array_equal(F, np.stack([c, m, *S[best[:-1]]]))

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
        return search._batch_entropies(rho.mat, qmat.projectors(moved))

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_gradient_matches_central_differences(self, dims):
        # gradient and Hessian of `_derivatives` against central differences
        # of the scorer, at eps = 1e-5 for g and 1e-4 for H
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 5)
        factors = search._haar_batch(dims, normals(dims, 1, 3))
        g, H, p = search._derivatives(rho.mat, factors, search._plan(dims))
        n = sum(d * d - d for d in dims)
        assert g.shape == (1, n) and H.shape == (1, n, n)
        assert np.max(np.abs(p - qmat.product_diagonals(rho.mat, qmat.projectors(factors)))) <= 1e-15
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
            g, H, _ = search._derivatives(rho.mat, [f[None] for f in basis.factors], search._plan(rho.dims))
            assert np.sqrt(g[0] @ g[0]) <= search._GRAD_TOL
            assert np.linalg.eigvalsh(H[0])[0] == pytest.approx(least, abs=1e-4)
        rep = nc.measure_D(rho, nc.SearchConfig())
        diag = rep.diagnostics
        assert rep.value == pytest.approx(0.460722647996, abs=1e-9)
        assert diag["best_source"] == "refine" and diag["gradient_norm"] <= search._GRAD_TOL
        assert diag["converged"] is True
        assert diag["hessian_min_eig"] == pytest.approx(0.0432, abs=1e-3)
        # the witness as the JSON report writes it gives the least diagonal entropy bit for bit
        factors = json.loads(json.dumps(cli._serialize_witness(rep.witness)))["factors"]
        basis = nc.ProductBasis(tuple(np.array([[complex(*z) for z in row] for row in f]) for f in factors))
        assert qmat.shannon_entropy(qmat.diag_probs(rho, basis)) == diag["min_diag_entropy"]

    def test_certificate_is_not_smooth_at_a_zero_diagonal_entry(self):
        # a pure (2,3) state's witness is its Schmidt basis, where 4 of the 6
        # diagonal entries vanish
        diag = nc.measure_D(nc.random_density_matrix((2, 3), 1, 1), nc.SearchConfig()).diagnostics
        assert diag["best_source"] == "marginal-eigenbasis"
        assert diag["converged"] is True and diag["hessian_min_eig"] is None

    @pytest.mark.parametrize("dims", [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_rotate_rows_alone_or_stacked_identical_and_unitary(self, dims):
        # the descent concatenates the factors of same-dimension subsystems,
        # subsystem by subsystem, and turns them in one call; each (start, step)
        # must not depend on that
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
                np.concatenate([U[k] for k in ks]), np.concatenate([A[k] for k in ks]), t
            ).reshape(len(ks), n, len(search._TRIALS), d, d)
            gram = stacked.conj().swapaxes(-1, -2) @ stacked
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-14
            for j, k in enumerate(ks):
                assert np.array_equal(search._rotate(U[k], A[k], t), stacked[j])
                for s in range(n):
                    w, V = np.linalg.eigh(-1j * A[k][s])
                    for step in range(len(search._TRIALS)):
                        alone = search._rotate(U[k][s : s + 1], A[k][s : s + 1], t[step : step + 1])
                        assert np.array_equal(alone[0, 0], stacked[j, s, step])
                        want = U[k][s] @ V @ np.diag(np.exp(1j * t[step] * w)) @ V.conj().T
                        assert np.max(np.abs(stacked[j, s, step] - want)) <= 1e-13

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 4), (2, 2, 2, 2), (2, 3, 2)])
    def test_start_descends_the_same_alone_or_in_a_batch(self, dims):
        # starts stop at different rounds and leave the batch, so a start's path
        # must not depend on its batch; the stationary third start stops at round 0.
        # (2,3,2)'s qubits are not adjacent: their rotations share a call across the qutrit
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 7)
        starts = search._haar_batch(dims, normals(dims, 4, 1))
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        plan = search._plan(dims)
        U, *_ = search._descend(rho.mat, starts, h, 100, plan)
        norms = np.sqrt((np.abs(search._derivatives(rho.mat, U, plan)[0]) ** 2).sum(1))
        stationary = [F[[np.argmin(norms)]] for F in U]
        assert norms.min() <= search._GRAD_TOL
        starts = [np.concatenate([F[:2], S, F[2:]]) for F, S in zip(starts, stationary)]
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        U, h_end, rounds, *_ = search._descend(rho.mat, starts, h, 100, plan)
        assert rounds[2] == 0 and len(set(rounds.tolist())) > 2
        for i in range(5):
            U_i, h_i, rounds_i, *_ = search._descend(rho.mat, [F[i : i + 1] for F in starts], h[i : i + 1], 100, plan)
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

        def spy_derivatives(rho_mat, stacks, plan):
            derived.append([F.copy() for F in stacks])
            return derivatives(rho_mat, stacks, plan)

        monkeypatch.setattr(search, "_rotate", spy_rotate)
        monkeypatch.setattr(search, "_batch_entropies", spy_score)
        monkeypatch.setattr(search, "_derivatives", spy_derivatives)
        out = search._descend(rho_mat, starts, h, max_rounds, search._plan(tuple(F.shape[-1] for F in starts)))
        monkeypatch.undo()
        return out, rotated, derived, scores

    def test_start_leaves_at_its_first_rejected_round(self, monkeypatch):
        # two (3,3) starts share a batch, and start 0 finds nothing lower in
        # round 2: it leaves with its round-1 factors and entropy, and later
        # rounds carry only start 1, whose path is that of start 1 alone
        rho = nc.random_density_matrix((3, 3), 9, 7)
        starts = search._haar_batch((3, 3), normals((3, 3), 2, 1))
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        (U, h_end, rounds, accepts, *_), rotated, derived, scores = self.spied_descend(
            monkeypatch, rho.mat, starts, h, 100, reject=(2, 0))
        assert rounds[0] == 2 and accepts[0] == 1
        assert rounds[1] > 3 and accepts[1] >= rounds[1] - 1
        T = len(search._TRIALS)
        assert h_end[0] == scores[0][:T].min() < h[0]
        # the factors start 0 was turned from in round 2 are its round-1 choice;
        # a rotation call's rows run subsystem by subsystem, start by start
        assert np.array_equal(np.stack([U[0][0], U[1][0]]), rotated[1][0].reshape(2, 2, 3, 3)[:, 0])
        assert [len(U_r) for U_r, _ in rotated] == [4, 4] + [2] * (rounds[1] - 2)
        assert [len(F[0]) for F in derived] == [2, 2] + [1] * (len(derived) - 2)

        (U_1, h_1, rounds_1, accepts_1, *_), rotated_1, derived_1, _ = self.spied_descend(
            monkeypatch, rho.mat, [F[1:] for F in starts], h[1:], 100)
        assert h_1[0] == h_end[1] and rounds_1[0] == rounds[1] and accepts_1[0] == accepts[1]
        for F, F_1 in zip(U, U_1):
            assert np.array_equal(F_1[0], F[1])
        assert len(rotated_1) == len(rotated) and len(derived_1) == len(derived)
        for (U_r, A_r), (U_s, A_s) in zip(rotated, rotated_1):
            assert np.array_equal(U_r.reshape(2, -1, 3, 3)[:, -1], U_s)
            assert np.array_equal(A_r.reshape(2, -1, 3, 3)[:, -1], A_s)
        for F_r, F_s in zip(derived, derived_1):
            for a, b in zip(F_r, F_s):
                assert np.array_equal(a[-1:], b)

    @pytest.mark.parametrize("max_rounds", [0, 100])
    def test_inputs_are_never_written(self, max_rounds):
        # min_diag_entropy keeps the starts as the witness when no descended
        # basis wins, so the outputs must be new arrays, at 0 rounds too
        rho = nc.random_density_matrix((2, 2, 2), 8, 7)
        starts = search._haar_batch((2, 2, 2), normals((2, 2, 2), 4, 1))
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        before = [a.copy() for a in (*starts, h)]
        for a in (*starts, h):
            a.setflags(write=False)
        U, h_end, rounds, _, first, last = search._descend(rho.mat, starts, h, max_rounds, search._plan((2, 2, 2)))
        assert rounds.any() == (max_rounds > 0)
        for a, b in zip((*starts, h), before):
            assert np.array_equal(a, b)
        for out in (*U, h_end):
            assert out.flags.writeable and not any(np.shares_memory(out, a) for a in (*starts, h))
        for out in (*first, *last):
            assert not any(np.shares_memory(out, a) for a in (*starts, h))

    def test_no_rounds_take_the_starts_derivatives_once_and_turn_nothing(self, monkeypatch):
        # the witness's certificate comes from the descent, so at 0 rounds the
        # starts are evaluated once, all in one call, and nothing moves
        rho = nc.random_density_matrix((2, 3), 6, 7)
        starts = search._haar_batch((2, 3), normals((2, 3), 3, 1))
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        (U, h_end, rounds, accepts, first, last), rotated, derived, scores = self.spied_descend(
            monkeypatch, rho.mat, starts, h, 0)
        assert rotated == scores == []
        assert len(derived) == 1
        for F, F_0 in zip(derived[0], starts):
            assert np.array_equal(F, F_0)
        assert np.array_equal(h_end, h) and not rounds.any() and not accepts.any()
        for F, F_0 in zip(U, starts):
            assert np.array_equal(F, F_0)
        for a, b in zip(first, last):
            assert np.array_equal(a, b)

    def test_lie_tables_are_made_once_per_search(self, monkeypatch):
        # one basis per subsystem and one gather table serve every round of
        # the descent and the witness's certificate, however many rounds run;
        # a second search on the config makes none, and a new config its own
        calls, lie_basis, tables, plan = [], search._lie_basis, [], search._plan
        monkeypatch.setattr(search, "_lie_basis", lambda d: calls.append(d) or lie_basis(d))
        monkeypatch.setattr(search, "_plan", lambda dims: tables.append(list(dims)) or plan(dims))
        rho, cfg = nc.random_density_matrix((2, 2, 2, 2), 16, 7), nc.SearchConfig()
        _, _, diag = nc.min_diag_entropy(rho, cfg)
        assert max(diag["start_rounds"]) > 2
        assert calls == [2] * 4 and tables == [[2, 2, 2, 2]]
        nc.min_diag_entropy(nc.random_density_matrix((2, 2, 2, 2), 16, 8), cfg)
        assert calls == [2] * 4 and tables == [[2, 2, 2, 2]]
        nc.min_diag_entropy(rho, nc.SearchConfig())
        assert calls == [2] * 8 and tables == [[2, 2, 2, 2]] * 2

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2)])
    def test_gathered_x_equals_the_matmul_x(self, dims):
        # X_a = R G^_a with G^_a = 1 x G_a x 1, gathered by the plan's table as
        # `_derivatives` does, equals the dense matmul against `_lie_basis` (==:
        # only the sign of an exact zero may differ)
        d_tot, rng = math.prod(dims), np.random.default_rng(sum(dims))
        R = rng.standard_normal((3, d_tot, d_tot)) + 1j * rng.standard_normal((3, d_tot, d_tot))
        plan = search._plan(dims)
        X = np.take(R.reshape(3, -1), plan.take, axis=1)
        X *= plan.coef
        lifted = [np.kron(np.kron(np.eye(math.prod(dims[:k])), G), np.eye(math.prod(dims[k + 1 :])))
                  for k, d in enumerate(dims) for G in search._lie_basis(d)]
        assert X.shape == (3, len(lifted), d_tot, d_tot)
        for a, G in enumerate(lifted):
            assert np.array_equal(X[:, a], R @ G)

    @pytest.mark.parametrize("dims", [(4, 2), (3, 2, 3)])
    def test_subsystems_are_grouped_by_dimension_in_order_of_first_appearance(self, dims):
        # one rule, `core.dim_groups`, batches the subsystems of one dimension
        # for the plan and the marginal stacks alike
        assert list(nc.core.dim_groups((3, 2, 3, 4, 2)).items()) == [(3, [0, 2]), (2, [1, 4]), (4, [3])]
        order = list(dict.fromkeys(dims))
        assert [d for d, _, _, _ in search._plan(dims).groups] == order
        assert [ks for _, _, ks, _ in search._plan(dims).groups] == list(nc.core.dim_groups(dims).values())
        assert list(qmat.marginal_stacks(nc.random_density_matrix(dims, 2, 3))) == order

    @pytest.mark.parametrize("seed, bound", [(1, None), (2006, 0.4422745949546236)])
    def test_every_start_converges_near_horodecki_one(self, monkeypatch, seed, bound):
        # here the starts once crept along at the 100-round cap, and where the
        # cap cut decided D
        ends = []
        descend = search._descend

        def spy(rho_mat, stacks, h, max_rounds, plan):
            out = descend(rho_mat, stacks, h, max_rounds, plan)
            ends.append((rho_mat, out[0], out[2]))
            return out

        monkeypatch.setattr(search, "_descend", spy)
        for b in (0.94, 0.95, 0.96, 0.97, 0.98, 0.99):
            rep = nc.measure_D(nc.make_horodecki(b), nc.SearchConfig(seed=seed))
            rho_mat, U, rounds = ends[-1]
            g = search._derivatives(rho_mat, U, search._plan(tuple(F.shape[-1] for F in U)))[0]
            assert np.sqrt((g * g).sum(1)).max() <= search._GRAD_TOL
            assert rounds.max() < 100
            assert rep.diagnostics["converged"] is True and rep.diagnostics["hessian_min_eig"] > 0
        if bound is not None:
            assert rep.value <= bound

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_kept_derivatives_are_those_at_each_start_and_each_end(self, dims):
        # the descent hands back the (g, H, p) it took at every start and at
        # every start's last accepted position, which a fresh call gives alone
        rho = nc.random_density_matrix(dims, int(np.prod(dims)), 9)
        starts = search._haar_batch(dims, normals(dims, 4, 2))
        h = search._batch_entropies(rho.mat, qmat.projectors(starts))
        plan = search._plan(dims)
        U, _, rounds, accepts, first, last = search._descend(rho.mat, starts, h, 100, plan)
        assert accepts.all() and len(set(rounds.tolist())) > 1
        for at, F in ((first, starts), (last, U)):
            for i in range(4):
                for x, y in zip(at, search._derivatives(rho.mat, [G[i : i + 1] for G in F], plan)):
                    assert np.array_equal(x[i], y[0])

    @pytest.mark.parametrize("rho, cfg, source", [
        (nc.make_horodecki(0.28), nc.SearchConfig(), "refine"),
        (nc.random_density_matrix((2, 2, 2), 2, 6), nc.SearchConfig(n_samples=2000, seed=3, refine_steps=0), "sample:"),
        (nc.DensityMatrix((2, 2), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)),
         nc.SearchConfig(n_samples=200, seed=2, refine_steps=5), "computational"),
        (nc.random_density_matrix((2, 3), 1, 1), nc.SearchConfig(), "marginal-eigenbasis"),
    ], ids=["refine", "sample-no-rounds", "undescended-start", "pure-undescended-start"])
    def test_certificate_equals_fresh_derivatives_at_the_witness(self, monkeypatch, rho, cfg, source):
        # the certificate comes from the derivatives the descent took, at the
        # start or at its last accepted position; a fresh evaluation at the
        # witness alone must give the same bits
        _, basis, diag = nc.min_diag_entropy(rho, cfg)
        assert diag["best_source"].startswith(source)
        g, H, p = (x[0] for x in search._derivatives(rho.mat, [f[None] for f in basis.factors], search._plan(rho.dims)))
        assert diag["gradient_norm"] == float(np.sqrt(g @ g))
        assert diag["hessian_min_eig"] == (float(np.linalg.eigvalsh(H)[0]) if p.min() >= search._SMOOTH_FLOOR else None)
        assert (diag["hessian_min_eig"] is None) == (source == "marginal-eigenbasis")
        assert (max(diag["start_rounds"]) > 0) == (cfg.refine_steps > 0)
        # only the witness's own end is read: the other, made NaN, changes nothing
        descend = search._descend

        def poisoned(*args):
            U, h, rounds, accepts, first, last = descend(*args)
            nan = tuple(np.full_like(x, np.nan) for x in (first if source == "refine" else last))
            return (U, h, rounds, accepts, nan, last) if source == "refine" else (U, h, rounds, accepts, first, nan)

        monkeypatch.setattr(search, "_descend", poisoned)
        assert nc.min_diag_entropy(rho, cfg)[2] == diag

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

    @pytest.mark.parametrize("rank", [1, 2, None], ids=["rank-1", "rank-2", "full-rank"])
    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 2, 2, 2), (2, 3, 2)], ids=str)
    def test_factors_equal_single_marginal_calls(self, dims, rank):
        rho = nc.random_density_matrix(dims, rank or math.prod(dims), 41)
        basis = search.marginal_eigenbasis(rho)
        for k in range(len(dims)):
            assert np.array_equal(basis.factors[k], qmat.herm_eig(qmat.partial_trace(rho, [k]).mat)[1])

    @pytest.mark.parametrize("family", ["ps", "sigma", "horodecki"])
    def test_dg_does_not_follow_round_off(self, family):
        # ps and sigma have marginals I/2, and horodecki at b = 1 degenerate
        # ones: any eigenbasis LAPACK picks there would do, but D_G must not move
        make, lo, hi = sweep.FAMILIES[family]
        for i, p in enumerate(np.linspace(lo, hi, 101)):
            rho = make(float(p))
            exact = nc.measure_DG(rho).value
            for k in range(3):
                assert abs(nc.measure_DG(perturbed(rho, 3 * i + k)).value - exact) <= 1e-9

    # span{(|0>+|1>)/sqrt2, (|2>+|3>)/sqrt2} is sigma_A's 0.3-eigenspace and
    # its complement the 0.2-eigenspace: both tied, and neither spanned by
    # standard basis vectors
    TIED = np.array([[1, 1, 0, 0], [0, 0, 1, 1]]) / 2 ** 0.5
    SIGMA_A = 0.3 * TIED.T @ TIED + 0.2 * (np.eye(4) - TIED.T @ TIED)

    def test_tied_eigenspace_canonical_basis_diagonalises_sigma_a(self):
        # the basis fixed within each tied eigenspace is unitary and
        # diagonalises sigma_A, exact and perturbed, so D_G of sigma_A x I/2 is 0
        rho = nc.DensityMatrix((4, 2), np.kron(self.SIGMA_A, np.eye(2) / 2))
        for r in (rho, perturbed(rho, 1), perturbed(rho, 2)):
            F = search.marginal_eigenbasis(r).factors[0]
            assert np.abs(F.conj().T @ F - np.eye(4)).max() <= 1e-12
            T = F.conj().T @ self.SIGMA_A @ F
            assert np.abs(T - np.diag(np.diag(T))).max() <= 1e-12
            assert abs(nc.measure_DG(r).value) <= 1e-12

    def test_dg_does_not_follow_round_off_in_part_of_the_space(self):
        # the same marginal, but psi is entangled across the degenerate
        # eigenspace, so D_G depends on the basis taken within it
        psi = (np.kron(self.TIED[0], [1, 0]) + np.kron(self.TIED[1], [0, 1])) / 2 ** 0.5
        rest = np.kron(self.SIGMA_A - 0.3 * self.TIED.T @ self.TIED, np.eye(2) / 2)
        rho = nc.DensityMatrix((4, 2), 0.6 * np.outer(psi, psi) + rest)
        assert np.allclose(qmat.partial_trace(rho, [0]).mat, self.SIGMA_A)
        exact = nc.measure_DG(rho).value
        for seed in range(10):
            assert abs(nc.measure_DG(perturbed(rho, seed)).value - exact) <= 1e-9

    @pytest.mark.parametrize("u", [(1, 1, -1), (1, 0, -1)], ids=["u-1-1-m1", "u-1-0-m1"])
    def test_qutrit_eigenspace_basis_does_not_follow_round_off(self, u):
        # A's 0.4-eigenspace is the plane orthogonal to u, whose entries tie in
        # magnitude, so neither the plane's basis nor u's phase may be left
        # to round-off
        u = np.array(u) / np.linalg.norm(u)
        A = 0.4 * (np.eye(3) - np.outer(u, u)) + 0.2 * np.outer(u, u)
        rho = nc.DensityMatrix((3, 2), np.kron(A, np.eye(2) / 2))
        F = search.marginal_eigenbasis(rho).factors[0]
        dg = nc.measure_DG(rho).value
        last = F
        for seed in range(20):
            r = perturbed(rho, seed)
            B = search.marginal_eigenbasis(r).factors[0]
            # within 1e-9 of the exact basis and of the previous seed's
            assert np.abs(B - F).max() <= 1e-9 and np.abs(B - last).max() <= 1e-9
            assert abs(nc.measure_DG(r).value - dg) <= 1e-9
            last = B


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
            score = search._batch_entropies(rho.mat, qmat.projectors([f[None] for f in basis.factors]))[0]
            assert score == qmat.shannon_entropy(qmat.diag_probs(rho, basis))

    def test_editing_a_sample_witness_leaves_later_results_alone(self, made):
        # the edited witness comes from a call served by the config's kept set
        rho = nc.random_density_matrix((2, 2, 2), 2, 6)
        cfg = nc.SearchConfig(n_samples=2000, seed=3, refine_steps=0)
        nc.measure_D(rho, cfg)
        made.clear()
        rep = nc.measure_D(rho, cfg)
        assert made == []
        assert rep.diagnostics["best_source"].startswith("sample:")
        kept = [np.array(F) for F in cfg._kept["samples", (2, 2, 2)][0]]
        rep.witness.factors[0][:] = np.eye(2)
        again = nc.measure_D(rho, cfg)
        assert again.value == rep.value
        assert again.witness.factors[0].tobytes() != rep.witness.factors[0].tobytes()
        for F, K in zip(cfg._kept["samples", (2, 2, 2)][0], kept):
            assert np.array_equal(F, K)


class TestConcurrentCallers:
    """The only state the search keeps between calls is the sample sets and
    descent plans on its config, which depend on the config and the dims
    alone, so callers on several threads get what they would get one after
    another."""

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


    def test_concurrent_callers_share_the_sample_table(self, made):
        # four threads share one config per seed, so they keep and read the
        # sets of six configs at once
        rho = nc.random_density_matrix((2, 3), 6, 43)
        serial = [nc.measure_D(rho, nc.SearchConfig(n_samples=128, seed=seed, refine_steps=10)) for seed in range(21, 27)]
        cfgs = [nc.SearchConfig(n_samples=128, seed=seed, refine_steps=10) for seed in range(21, 27)]
        made.clear()
        start, errors, reports = threading.Barrier(4), [], []

        def call(k):
            start.wait()
            try:
                for j in range(3 * len(cfgs)):
                    c = (k + j) % len(cfgs)
                    reports.append((c, nc.measure_D(rho, cfgs[c])))
            except Exception as exc:  # a race must not raise
                errors.append(exc)

        threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads), "deadlock"
        assert errors == []
        assert len(reports) == 4 * 3 * len(cfgs)
        # concurrent first calls may each make a config's set, later ones none
        assert len(cfgs) <= len(made) <= 4 * len(cfgs)
        assert all(sorted(cfg._kept) == [("plan", (2, 3)), ("samples", (2, 3))] for cfg in cfgs)
        for c, got in reports:
            want = serial[c]
            assert got.value == want.value
            assert got.diagnostics == want.diagnostics
            for fa, fb in zip(got.witness.factors, want.witness.factors):
                assert np.array_equal(fa, fb)


class TestConfigSampleSets:
    """A search of one chunk keeps its sample set on its SearchConfig, one
    read-only set per dims, for as long as the config lives."""

    @staticmethod
    def report(rep):
        return rep.value, [f.tobytes() for f in rep.witness.factors], rep.diagnostics

    def test_second_call_makes_no_samples(self, made):
        cfg = nc.SearchConfig(n_samples=64, refine_steps=5)
        # the set holds no state: a second state of the same dims reuses it
        for k, want in enumerate([[64], []]):
            nc.measure_D(nc.random_density_matrix((2, 4), 3, 60 + k), cfg)
            assert made == want
            made.clear()
        assert list(cfg._kept) == [("plan", (2, 4)), ("samples", (2, 4))]
        # other dims on the same config get a set of their own, beside the first
        nc.measure_D(nc.random_density_matrix((2, 2, 2), 3, 60), cfg)
        assert made == [64]
        made.clear()
        assert [F.shape for F in cfg._kept["samples", (2, 2, 2)][0]] == [(64, 2, 2)] * 3
        assert [F.shape for F in cfg._kept["samples", (2, 4)][0]] == [(64, 2, 2), (64, 4, 4)]
        # another seed or n is another config, and seed 1 + 2**64 draws seed 1's samples
        for seed, n in [(2, 64), (1, 65), (1 + 2 ** 64, 64)]:
            other = nc.SearchConfig(n_samples=n, seed=seed, refine_steps=5)
            nc.measure_D(nc.random_density_matrix((2, 4), 3, 60), other)
            assert made == [n]
            made.clear()
        for F, G in zip(other._kept["samples", (2, 4)][0], cfg._kept["samples", (2, 4)][0]):
            assert np.array_equal(F, G)

    def test_equality_hash_and_repr_ignore_the_sets(self):
        cfg = nc.SearchConfig()
        before = hash(cfg), repr(cfg)
        nc.measure_D(nc.random_density_matrix((2, 2), 4, 64), cfg)
        assert list(cfg._kept) == [("plan", (2, 2)), ("samples", (2, 2))]
        assert cfg == nc.SearchConfig()
        assert (hash(cfg), repr(cfg)) == before

    def test_replace_starts_with_no_sets(self):
        # a copy that shared the sets would serve seed 1's samples to seed 2
        cfg = nc.SearchConfig(n_samples=64, refine_steps=5)
        nc.measure_D(nc.random_density_matrix((2, 2), 4, 65), cfg)
        assert cfg._kept
        for other in (dataclasses.replace(cfg), dataclasses.replace(cfg, seed=2), nc.SearchConfig()):
            assert other._kept == {}

    def test_kept_stacks_die_with_their_config(self):
        cfg = nc.SearchConfig(n_samples=16, refine_steps=0)
        nc.measure_D(nc.random_density_matrix((2, 3), 6, 66), cfg)
        facs, projs = cfg._kept["samples", (2, 3)]
        refs = [weakref.ref(F) for F in (*facs, *projs)]
        del cfg, facs, projs
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    def test_kept_arrays_are_read_only(self):
        cfg = nc.SearchConfig(n_samples=16, refine_steps=0)
        nc.measure_D(nc.random_density_matrix((2, 3, 2), 4, 62), cfg)
        facs, projs = cfg._kept["samples", (2, 3, 2)]
        assert [F.shape for F in facs] == [(16, 2, 2), (16, 3, 3), (16, 2, 2)]
        assert [P.shape for P in projs] == [(16, 2, 4), (16, 3, 9), (16, 2, 4)]
        for F in (*facs, *projs):
            assert not F.flags.writeable
            with pytest.raises(ValueError):
                F[0, 0, 0] = 1

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (2, 3, 2)])
    def test_kept_projectors_are_the_factors_projectors(self, dims):
        # the set scores its samples by the projectors it keeps, which must be
        # those `qmat.projectors` makes of its factors, byte for byte
        cfg = nc.SearchConfig(n_samples=64, refine_steps=0)
        nc.measure_D(nc.random_density_matrix(dims, math.prod(dims), 67), cfg)
        facs, projs = cfg._kept["samples", dims]
        fresh = qmat.projectors(facs)
        assert len(projs) == len(fresh) == len(dims)
        for P, Q in zip(projs, fresh):
            assert P.shape == Q.shape and P.tobytes() == Q.tobytes()

    def test_a_fresh_config_per_call_changes_no_result(self):
        states = [ctor(float(p)) for name, (ctor, lo, hi) in sweep.FAMILIES.items()
                  for p in np.linspace(lo, hi, 51 if name == "horodecki" else 101)]
        states += [nc.random_density_matrix(dims, rank, 1)
                   for dims in [(2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2), (2, 3, 2)]
                   for rank in (1, 2, math.prod(dims))]
        cfg = nc.SearchConfig()
        kept = [self.report(nc.measure_D(rho, cfg)) for rho in states]
        assert set(cfg._kept) == {(kind, dims) for kind in ("plan", "samples")
                                  for dims in [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 2, 2), (2, 3, 2)]}
        for rho, want in zip(states, kept):
            assert self.report(nc.measure_D(rho, nc.SearchConfig())) == want

    def test_several_chunks_keep_no_samples(self, made):
        rho = nc.random_density_matrix((3, 3), 9, 63)
        one = self.report(nc.measure_D(rho, nc.SearchConfig(n_samples=300, refine_steps=20)))
        cfg = nc.SearchConfig(n_samples=300, refine_steps=20, chunk_size=128)
        made.clear()
        for _ in range(3):
            assert self.report(nc.measure_D(rho, cfg)) == one
        assert made == [128, 128, 44] * 3
        assert list(cfg._kept) == [("plan", (3, 3))]


class TestConfigPlans:
    """Every search keeps its dims' descent plan (`search._plan`) on its
    SearchConfig, read-only, for as long as the config lives, whatever its size."""

    @staticmethod
    def arrays(x):
        """Every array in a plan, through tuples and lists."""
        if isinstance(x, np.ndarray):
            return [x]
        return [a for v in x for a in TestConfigPlans.arrays(v)] if isinstance(x, (tuple, list)) else []

    @staticmethod
    def reports_equal(got, want):
        assert got.value.hex() == want.value.hex() and got.diagnostics == want.diagnostics
        assert [f.tobytes() for f in got.witness.factors] == [f.tobytes() for f in want.witness.factors]

    def test_no_default_config_outlives_its_call(self):
        # a default-argument config would live, with every plan it keeps, as long as the process
        assert inspect.signature(nc.measure_D).parameters["cfg"].default is None
        assert inspect.signature(verify.run_all).parameters["cfg"].default is None

    def test_a_config_less_call_makes_its_own_samples_and_plan(self, made, monkeypatch):
        rho = nc.random_density_matrix((2, 4), 8, 9)
        want = nc.measure_D(rho, nc.SearchConfig())
        plans, plan = [], search._plan
        monkeypatch.setattr(search, "_plan", lambda dims: plans.append(dims) or plan(dims))
        made.clear()
        for _ in range(2):
            self.reports_equal(nc.measure_D(rho), want)
        assert made == [512, 512] and plans == [(2, 4), (2, 4)]

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 3, 2), (2, 8), (3, 4, 5), (2,) * 6, (2,) * 7])
    def test_the_gather_table_takes_8_n_d_tot_squared_bytes(self, dims):
        # the memory a kept plan costs, as SearchConfig states it; from 60 levels on
        # the table is nearly all of the plan
        plan = search._plan(dims)
        n, d_tot = sum(d * d - d for d in dims), math.prod(dims)
        assert plan.take.nbytes == 8 * n * d_tot * d_tot
        if d_tot >= 60:
            assert plan.take.nbytes > 0.9 * sum(a.nbytes for a in self.arrays(plan))

    def test_a_sweep_makes_one_plan_per_dims(self, monkeypatch):
        plans, plan = [], search._plan
        monkeypatch.setattr(search, "_plan", lambda dims: plans.append(dims) or plan(dims))
        cfg = nc.SearchConfig(n_samples=64, refine_steps=5)
        for family in ("ps", "horodecki"):
            _, lo, hi = sweep.FAMILIES[family]
            rows = sweep.sweep_rows(sweep.SweepSpec(family, lo, hi, 5, search=cfg))
            assert len(rows) == 5 and all("D" in vals for _, vals in rows)
        assert plans == [(2, 2), (2, 4)]
        assert set(cfg._kept) == {(kind, dims) for kind in ("plan", "samples") for dims in [(2, 2), (2, 4)]}

    @pytest.mark.parametrize("dims, rounds", [((2, 3, 2), 5), ((2,) * 7, 2)], ids=["2x3x2", "seven-qubits"])
    def test_plan_arrays_are_read_only_and_die_with_their_config(self, dims, rounds, monkeypatch):
        cfg = nc.SearchConfig(n_samples=16, refine_steps=rounds)
        nc.min_diag_entropy(nc.random_density_matrix(dims, math.prod(dims), 68), cfg)
        plan = cfg._kept["plan", dims]
        plans, make = [], search._plan
        monkeypatch.setattr(search, "_plan", lambda dims: plans.append(dims) or make(dims))
        nc.min_diag_entropy(nc.random_density_matrix(dims, math.prod(dims), 69), cfg)
        assert plans == [] and cfg._kept["plan", dims] is plan
        arrays = self.arrays(plan)
        # the computational basis's factors, the gather table and its coefficients,
        # each subsystem's transposed basis and each dimension's basis
        assert len(arrays) == len(dims) + 2 + len(dims) + len(set(dims))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1
        refs = [weakref.ref(a) for a in arrays]
        del cfg, plan, arrays, a
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_reused_config_reports_what_a_fresh_one_does(self):
        # one config serves every dims, twice over, so each plan and sample set
        # is read back beside those of other dims, two of them the same sizes in another order
        dims_list = [(2, 2), (2, 4), (4, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2)]
        cfg = nc.SearchConfig(n_samples=128, refine_steps=30)
        for seed in (1, 2):
            for dims in dims_list:
                rho = nc.random_density_matrix(dims, math.prod(dims), seed)
                self.reports_equal(*(nc.measure_D(rho, c) for c in (cfg, nc.SearchConfig(n_samples=128, refine_steps=30))))
        assert {dims for kind, dims in cfg._kept if kind == "plan"} == set(dims_list)
