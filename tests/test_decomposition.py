import numpy as np
import pytest

import oracles
from lumprank import (
    PageRankParams,
    build_hyperlink_matrix,
    detect_dangling,
    lumped_apply,
    parse_edge_list,
    permute_blocks,
    power_method,
    recover_pagerank,
    uniform_vector,
)
from lumprank.decomposition import (
    _block_split,
    ldu_factors,
    stochastic_complement,
    verify_coupled_stationarity,
)
from lumprank.transforms import (
    build_dense_google,
)


def dense_setup(rng, n_max=40):
    while True:
        n = int(rng.integers(4, n_max))
        frac = float(rng.choice([0.2, 0.5, 0.8]))
        edges = oracles.random_edge_dict(rng, n, frac)
        g = oracles.make_webgraph(n, edges)
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        if 1 <= p.k <= n - 1:
            break
    params = PageRankParams.uniform(n, alpha=float(rng.choice([0.5, 0.85, 0.99])))
    Gt = build_dense_google(g, params, p)
    return g, params, H, p, Gt


def micro_setup():
    g = parse_edge_list("1 2\n1 3\n2 1\n")
    params = PageRankParams.uniform(3, alpha=0.5)
    p = detect_dangling(build_hyperlink_matrix(g))
    return build_dense_google(g, params, p)


class TestLduFactors:
    def test_reconstruction_random(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            n, k = g.n, p.k
            f = ldu_factors(Gt, k)
            recon = f.Lfac @ f.Dfac @ f.Ufac
            assert np.abs(recon - (np.eye(n) - Gt)).max() <= 1e-12 * n

    def test_unit_triangular_structure_exact(self):
        rng = np.random.default_rng(41)
        g, params, H, p, Gt = dense_setup(rng)
        n, k = g.n, p.k
        f = ldu_factors(Gt, k)
        assert np.array_equal(np.diag(f.Lfac), np.ones(n))
        assert np.array_equal(np.diag(f.Ufac), np.ones(n))
        assert np.array_equal(f.Lfac[:k, k:], np.zeros((k, n - k)))
        assert np.array_equal(f.Ufac[k:, :k], np.zeros((n - k, k)))
        assert np.array_equal(f.Dfac[:k, k:], np.zeros((k, n - k)))
        assert np.array_equal(f.Dfac[k:, :k], np.zeros((n - k, k)))

    def test_trailing_diagonal_block_is_identity_minus_complement(self):
        Gt = micro_setup()
        f = ldu_factors(Gt, 2)
        S = stochastic_complement(Gt, 2)
        assert np.abs(f.Dfac[2:, 2:] - (np.eye(1) - S)).max() == 0.0

    def test_split_point_validated(self):
        Gt = micro_setup()
        for k in (0, 3, -1):
            with pytest.raises(ValueError, match="split point"):
                ldu_factors(Gt, k)

    def test_singular_leading_block_raises(self):
        # synthetic: identity trailing chain makes I - G11 exactly singular
        M = np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            ldu_factors(M, 1)

    def test_nearly_singular_leading_block_raises(self):
        # I - G11 = [[1, 1], [1, 1 + 1e-13]]: not exactly singular, but the
        # solve for Y grows G12 by ~1e13
        Gt = np.zeros((3, 3))
        Gt[:2, :2] = np.eye(2) - np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        Gt[0, 2] = 1.0
        Gt[2] = 1.0 / 3
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            ldu_factors(Gt, 2)


class TestStochasticComplement:
    def test_single_dangling_complement_is_one(self):
        S = stochastic_complement(micro_setup(), 2)
        assert S.shape == (1, 1)
        assert abs(S[0, 0] - 1.0) <= 1e-12

    def test_last_split_complement_is_one(self):
        rng = np.random.default_rng(42)
        g, params, H, p, Gt = dense_setup(rng)
        S = stochastic_complement(Gt, g.n - 1)
        assert S.shape == (1, 1)
        assert abs(S[0, 0] - 1.0) <= 1e-10

    def test_single_nondangling_two_dangling(self):
        g = oracles.make_webgraph(3, {0: {1}})
        params = PageRankParams.uniform(3, alpha=0.85)
        p = detect_dangling(build_hyperlink_matrix(g))
        assert p.k == 1
        Gt = build_dense_google(g, params, p)
        S = stochastic_complement(Gt, 1)
        assert S.shape == (2, 2)
        assert S.min() >= -1e-12
        assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-10

    def test_rows_stochastic_and_complement_singularity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            S = stochastic_complement(Gt, p.k)
            assert S.min() >= -1e-12
            assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-10
            I_S = np.eye(S.shape[0]) - S
            smallest = np.linalg.svd(I_S, compute_uv=False).min()
            norm = np.linalg.norm(I_S)
            assert smallest <= 1e-8 * max(norm, 1e-300)


class TestCoupledStationarity:
    def test_micro_instance_identities(self):
        Gt = micro_setup()
        pi = np.array([3 / 8, 5 / 16, 5 / 16])
        rep = verify_coupled_stationarity(pi, Gt, 2, tol=1e-10)
        assert rep.passed, rep.detail
        assert "dangling from nondangling" in rep.detail

    def test_random_graphs_with_direct_solve(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            pi = oracles.stationary(Gt)
            rep = verify_coupled_stationarity(pi, Gt, p.k, tol=1e-8)
            assert rep.passed, rep.detail

    def test_recovered_ranking_satisfies_identities(self):
        # cross-module agreement: the sparse-pipeline ranking passes the
        # decomposition identities too
        rng = np.random.default_rng(45)
        for _ in range(6):
            g, params, H, p, Gt = dense_setup(rng)
            b = permute_blocks(H, p, params)
            sigma, _, _, conv = power_method(lambda s: lumped_apply(s, b),
                                             uniform_vector(p.k + 1), 1e-13, 50_000)
            assert conv
            pi_tilde = recover_pagerank(sigma, b)
            rep = verify_coupled_stationarity(pi_tilde, Gt, p.k, tol=1e-8)
            assert rep.passed, rep.detail

    def test_identities_through_z_and_w_match_direct_solves(self):
        # (b) is pi2 Z and (c) is pi1 W, products with the cached blocks;
        # each must equal the solve it stands for
        rng = np.random.default_rng(47)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            k, n = p.k, g.n
            s = _block_split(Gt, k)
            pi = oracles.stationary(Gt)
            pi1, pi2 = pi[:k], pi[k:]
            direct_b = np.linalg.solve((np.eye(k) - Gt[:k, :k]).T, Gt[k:, :k].T @ pi2)
            assert np.abs(pi2 @ s.Z - direct_b).max() <= 1e-12
            assert s.W is not None  # uniform v and w: every trailing row sums below 1
            direct_c = np.linalg.solve((np.eye(n - k) - Gt[k:, k:]).T, Gt[:k, k:].T @ pi1)
            assert np.abs(pi1 @ s.W - direct_c).max() <= 1e-12

    def test_perturbed_vector_fails(self):
        rng = np.random.default_rng(46)
        g, params, H, p, Gt = dense_setup(rng)
        pi = oracles.stationary(Gt)
        pi[0] += 1e-3
        pi /= pi.sum()
        rep = verify_coupled_stationarity(pi, Gt, p.k, tol=1e-6)
        assert not rep.passed

    def test_unit_trailing_row_sums_skip_reported(self):
        # all teleport/dangling mass on the dangling node: u2^T e = 1, so the
        # trailing resolvent does not exist and identity (c) must be skipped
        g = parse_edge_list("1 2\n1 3\n2 1\n")
        conc = np.array([0.0, 0.0, 1.0])
        params = PageRankParams(alpha=0.5, v=conc, w=conc.copy())
        p = detect_dangling(build_hyperlink_matrix(g))
        Gt = build_dense_google(g, params, p)
        pi = oracles.stationary(Gt)
        rep = verify_coupled_stationarity(pi, Gt, p.k, tol=1e-10)
        assert rep.passed, rep.detail
        assert "skipped" in rep.detail

    def test_length_mismatch_raises(self):
        Gt = micro_setup()
        with pytest.raises(ValueError, match="length 3"):
            verify_coupled_stationarity(np.full(4, 0.25), Gt, 2)
