import ast
import time
from pathlib import Path

import numpy as np
import pytest

import lumprank.cli
import lumprank.graph
import lumprank.lumping
import oracles
from lumprank import (
    PageRankParams,
    bicgstab,
    build_hyperlink_matrix,
    detect_dangling,
    full_operator,
    parse_edge_list,
    permute_blocks,
    power_method,
    recover_pagerank,
    solve_chain,
    solve_lumped,
    uniform_vector,
    unpermute,
)
from lumprank.cli import generate_edge_list
from lumprank.lumping import _system
from lumprank.transforms import build_dense_lumped, stationary_dense

# 3-node micro-instance: internal 0 -> {1,2}, 1 -> {0}, 2 dangling.
TRI_EDGES = {0: {1, 2}, 1: {0}}
TRI_TEXT = "1 2\n1 3\n2 1\n"
TRI_SIGMA = np.array([3 / 8, 5 / 16, 5 / 16])


def tri_setup(alpha=0.5):
    g = parse_edge_list(TRI_TEXT)
    params = PageRankParams.uniform(3, alpha=alpha, tol=1e-12, max_iter=10_000)
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    return g, params, H, p, permute_blocks(H, p)


def lumped_system(A, p, params):
    """The lumped chain's system operator, x -> (I - alpha*S1^T) x, as
    solve_lumped binds it."""
    return _system(A, p.lump(params.w), params.alpha)


def random_case(rng, n_max=60, alphas=(0.5, 0.85, 0.99)):
    n = int(rng.integers(4, n_max))
    frac = float(rng.choice([0.1, 0.3, 0.5, 0.9]))
    edges = oracles.random_edge_dict(rng, n, frac)
    g = oracles.make_webgraph(n, edges)
    alpha = float(rng.choice(alphas))
    params = PageRankParams.uniform(n, alpha=alpha, tol=1e-13, max_iter=50_000)
    return g, edges, params


class TestDetectDangling:
    def test_trailing_dangling_node(self):
        H = build_hyperlink_matrix(oracles.make_webgraph(3, {0: {1}, 1: {0}}))
        p = detect_dangling(H)
        assert p.k == 2
        assert p.perm.tolist() == [0, 1, 2]

    def test_all_dangling(self):
        H = build_hyperlink_matrix(oracles.make_webgraph(2, {}))
        p = detect_dangling(H)
        assert p.k == 0
        assert p.perm.tolist() == [0, 1]

    def test_single_nondangling_is_listed_first(self):
        H = build_hyperlink_matrix(oracles.make_webgraph(3, {2: {0}}))
        p = detect_dangling(H)
        assert p.k == 1
        assert p.perm.tolist() == [2, 0, 1]

    def test_inverse_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g, _, _ = random_case(rng)
            p = detect_dangling(build_hyperlink_matrix(g))
            assert np.array_equal(p.inv_perm[p.perm], np.arange(g.n))
            assert sorted(p.perm.tolist()) == list(range(g.n))


def dangling_rows_of_product(H, p, x1):
    """The dangling part of x^T H, in permuted order, for x = x1 on the
    nondangling nodes and 0 elsewhere: x1^T H12, as recovery computes it."""
    x = np.zeros(p.n)
    x[p.perm[:p.k]] = x1
    return H.rmatvec(x)[p.perm[p.k:]]


class TestPermuteBlocks:
    def test_micro_instance_blocks(self):
        _, _, H, p, A = tri_setup()
        assert p.k == 2 and p.n == 3
        # the lumped chain's matrix: [H11 | H12 e], then the lumped state's empty row
        assert A.n == 3
        assert oracles.to_dense(A).tolist() == [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert A.dangling_mask().tolist() == [False, False, True]
        # H12, read through H
        assert [dangling_rows_of_product(H, p, x1).tolist() for x1 in np.eye(2)] == [
            [0.5], [0.0]]

    def test_no_dangling_gives_empty_trailing_block(self):
        g = oracles.make_webgraph(3, {0: {1}, 1: {2}, 2: {0}})
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        A = permute_blocks(H, p)
        assert dangling_rows_of_product(H, p, np.ones(3)).shape == (0,)
        # each row stores its column-k entry, an explicit 0.0
        assert A.row_nnz().tolist() == [2, 2, 2, 0]
        assert oracles.to_dense(A)[:3, 3].tolist() == [0.0, 0.0, 0.0]

    def test_uniform_vector_split(self):
        g = oracles.make_webgraph(4, {0: {1}, 1: {0}})
        H = build_hyperlink_matrix(g)
        params = PageRankParams.uniform(4)
        p = detect_dangling(H)
        assert p.lump(params.v).tolist() == [0.25, 0.25, 0.5]
        assert params.v[p.perm[p.k:]].tolist() == [0.25, 0.25]

    def test_one_column_k_entry_per_row(self):
        # a row's dangling links fold into one entry, never one per link
        g = oracles.make_webgraph(6, {0: {1, 2, 3, 4}, 1: {0, 5}})
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        A = permute_blocks(H, p)
        assert A.data.size == 2 + 2  # H11 holds 0 -> 1 and 1 -> 0
        assert oracles.to_dense(A).tolist() == [
            [0.0, 0.25, 0.75], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]
        assert np.count_nonzero(p.inv_perm[H.indices] >= p.k) == 4

    def test_row_ordered_layout_sums_like_concatenated(self):
        # A stores each row's H12 e entry right after that row's H11 entries;
        # every bin of x^T A still adds its terms in the order of the layout
        # with all H12 e entries after H11, serially in a bin of at most
        # _PAIRWISE_MIN terms and pairwise in a longer one (column k of the
        # 3000-node graph), so the products are bitwise equal
        rng = np.random.default_rng(9)
        cases = [random_case(rng)[0] for _ in range(10)]
        cases.append(parse_edge_list(generate_edge_list(3000, 0.5, 8, seed=9)))
        for g in cases:
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            A = permute_blocks(H, p)
            k = p.k
            last = A.indptr[1:k + 1] - 1
            assert np.all(np.diff(A.rows) >= 0)
            assert np.flatnonzero(A.indices == k).tolist() == last.tolist()
            prow, pcol = p.inv_perm[H.rows], p.inv_perm[H.indices]
            in11 = pcol < k
            rows = np.concatenate([prow[in11], np.arange(k)])
            cols = np.concatenate([pcol[in11], np.full(k, k)])
            data = np.concatenate([H.data[in11], oracles.to_dense(A)[:k, k]])
            long_cols = np.flatnonzero(
                np.bincount(cols, minlength=k + 1) > lumprank.graph._PAIRWISE_MIN)
            for _ in range(3):
                x = rng.random(k + 1)
                terms = x[rows] * data
                concatenated = np.bincount(cols, weights=terms, minlength=k + 1)
                for j in long_cols:  # numpy's pairwise sum, the call rmatvec makes
                    concatenated[j] = np.add.reduceat(terms[cols == j], [0])[0]
                assert np.array_equal(A.rmatvec(x), concatenated)
        assert k in long_cols  # the 3000-node graph's column k

    def test_kernel_on_lumped_matrix(self):
        # weighted rows and explicit 0.0 entries in column k: the product and
        # the dense form agree with the dense [H11 | H12 e] over an empty row
        rng = np.random.default_rng(18)
        for _ in range(10):
            g, edges, _ = random_case(rng)
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            A = permute_blocks(H, p)
            k = p.k
            Hd = oracles.dense_hyperlink(g.n, edges)[np.ix_(p.perm, p.perm)]
            expected = np.zeros((k + 1, k + 1))
            expected[:k, :k] = Hd[:k, :k]
            expected[:k, k] = Hd[:k, k:].sum(axis=1)
            Ad = oracles.to_dense(A)
            assert np.abs(Ad - expected).max() <= 1e-15
            assert np.count_nonzero(A.data == 0.0) == np.count_nonzero(expected[:k, k] == 0.0)
            x = rng.random(k + 1)
            out = A.rmatvec(x)
            assert out.dtype == np.float64 and out.shape == (k + 1,)
            assert np.abs(out - x @ Ad).max() <= 1e-14

    def test_block_invariants_random(self):
        rng = np.random.default_rng(2)

        def cases():
            for _ in range(15):
                yield random_case(rng)
            for n, edges in ((7, {}), (9, {i: {(i + 1) % 9, (i + 4) % 9} for i in range(9)})):
                yield oracles.make_webgraph(n, edges), edges, PageRankParams.uniform(n)

        seen = set()
        for g, edges, params in cases():
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            A = permute_blocks(H, p)
            k = p.k
            seen.add({0: "k=0", g.n: "k=n"}.get(k, "mixed"))
            # dense [H11 | H12 e] from the oracle's hyperlink matrix
            Hd = oracles.dense_hyperlink(g.n, edges)[np.ix_(p.perm, p.perm)]
            Ad = oracles.to_dense(A)
            assert np.array_equal(Ad[:k, :k], Hd[:k, :k])
            assert np.abs(Ad[:k, k] - Hd[:k, k:].sum(axis=1)).max(initial=0.0) <= 1e-15
            assert np.abs(Ad[:k].sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12
            # the lumped state is the one dangling row
            assert A.dangling_mask().tolist() == [False] * k + [True]
            # recovery reads H12 through H: row by row exactly, and for any x1
            for i in range(k):
                assert np.array_equal(dangling_rows_of_product(H, p, np.eye(k)[i]), Hd[i, k:])
            x1 = rng.random(k)
            assert np.abs(dangling_rows_of_product(H, p, x1)
                          - x1 @ Hd[:k, k:]).max(initial=0.0) <= 1e-15
            a = params.alpha
            u = a * params.w[p.perm] + (1 - a) * params.v[p.perm]
            # the recovered tail of the lumped state alone is u2
            u2 = recover_pagerank(np.eye(k + 1)[k], H, p, params)[k:]
            assert np.array_equal(u2, u[k:]) and u2.min(initial=0.0) >= 0
            assert p.lump(params.v)[k] == params.v[p.perm[k:]].sum()
            assert p.lump(params.w)[k] == params.w[p.perm[k:]].sum()
        assert seen == {"k=0", "k=n", "mixed"}


class TestLumpedApply:
    """The lumped chain's system operator x -> (I - alpha*S1^T) x, S1 = [A; w^T]."""

    def test_preserves_probability_simplex(self):
        # S1 is row-stochastic: S1^T x = (x - op(x))/alpha maps the simplex to itself
        rng = np.random.default_rng(3)
        for _ in range(15):
            g, _, params = random_case(rng)
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            sigma = rng.random(p.k + 1)
            sigma /= sigma.sum()
            out = (sigma - lumped_system(permute_blocks(H, p), p, params)(sigma)) / params.alpha
            assert abs(out.sum() - 1.0) <= 1e-12
            assert out.min() >= 0.0

    def test_micro_instance_value(self):
        _, params, _, p, A = tri_setup()
        out = lumped_system(A, p, params)(np.full(3, 1 / 3))
        # S1^T x = [4/9, 5/18, 5/18] at alpha 1/2
        assert np.abs(out - np.array([1 / 9, 7 / 36, 7 / 36])).max() <= 1e-15

    def test_matches_dense_lumped_oracle(self):
        rng = np.random.default_rng(4)

        def cases():
            for _ in range(10):
                yield random_case(rng)
            for n, frac in ((5, 0.0), (17, 0.0), (40, 0.0), (3, None), (9, None)):
                # k = n, then k = 0
                edges = {} if frac is None else oracles.random_edge_dict(rng, n, frac)
                v, w = rng.random(n) + 0.1, rng.random(n) + 0.1
                yield oracles.make_webgraph(n, edges), edges, PageRankParams(
                    alpha=0.85, v=v / v.sum(), w=w / w.sum(), tol=1e-13, max_iter=50_000)

        seen = set()
        for g, edges, params in cases():
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            A = permute_blocks(H, p)
            # dense S1 = [H11, H12 e; w1^T, sum w2] from the oracle hyperlink matrix
            Hd = oracles.dense_hyperlink(g.n, edges)[np.ix_(p.perm, p.perm)]
            w = params.w[p.perm]
            k = p.k
            seen.add({0: "k=0", g.n: "k=n"}.get(k, "mixed"))
            S1 = np.empty((k + 1, k + 1))
            S1[:k, :k] = Hd[:k, :k]
            S1[:k, k] = Hd[:k, k:].sum(axis=1)
            S1[k, :k] = w[:k]
            S1[k, k] = w[k:].sum()
            x = rng.random(k + 1)
            expected = (np.eye(k + 1) - params.alpha * S1.T) @ x
            assert np.abs(lumped_system(A, p, params)(x) - expected).max() <= 1e-13
        assert seen == {"k=0", "k=n", "mixed"}

    def test_degenerate_all_dangling(self):
        H = build_hyperlink_matrix(oracles.make_webgraph(2, {}))
        p = detect_dangling(H)
        params = PageRankParams.uniform(2, alpha=0.75)
        assert lumped_system(permute_blocks(H, p), p, params)(np.array([1.0])).tolist() == [0.25]

    def test_length_mismatch_raises(self):
        _, params, H, p, A = tri_setup()
        with pytest.raises(ValueError, match="length 3"):
            lumped_system(A, p, params)(np.full(4, 0.25))
        # the parameter vectors themselves must match the graph
        with pytest.raises(ValueError, match="length 3"):
            p.lump(np.full(4, 0.25))
        with pytest.raises(ValueError, match="sizes differ"):
            recover_pagerank(TRI_SIGMA, H, p, PageRankParams.uniform(4))


class TestFullApply:
    def test_preserves_probability_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            g, _, params = random_case(rng)
            H = build_hyperlink_matrix(g)
            x = rng.random(g.n)
            x /= x.sum()
            out = full_operator(H, params)(x)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert out.min() >= 0.0

    def test_all_dangling_returns_u(self):
        params = PageRankParams.uniform(2, alpha=0.7)
        H = build_hyperlink_matrix(oracles.make_webgraph(2, {}))
        x = np.array([0.9, 0.1])
        u = params.alpha * params.w + (1 - params.alpha) * params.v
        assert np.abs(full_operator(H, params)(x) - u).max() <= 1e-15

    def test_micro_instance_value(self):
        g, params, H, _, _ = tri_setup()
        out = full_operator(H, params)(np.full(3, 1 / 3))
        assert np.abs(out - np.array([7 / 18, 11 / 36, 11 / 36])).max() <= 1e-15

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g, edges, params = random_case(rng)
            H = build_hyperlink_matrix(g)
            G = oracles.dense_google(g.n, edges, params.alpha)
            x = rng.random(g.n)
            x /= x.sum()
            assert np.abs(full_operator(H, params)(x) - x @ G).max() <= 1e-13

    def test_length_mismatch_raises(self):
        g, params, H, _, _ = tri_setup()
        with pytest.raises(ValueError, match="length 3"):
            full_operator(H, params)(np.full(5, 0.2))
        with pytest.raises(ValueError, match="length 3"):
            _system(H, params.w, params.alpha)(np.full(5, 0.2))
        with pytest.raises(ValueError, match="sizes differ"):
            full_operator(H, PageRankParams.uniform(4))

    def test_system_matches_dense_oracle(self):
        # on the full H, _system is x -> (I - alpha*P^T) x with P = H + d w^T
        rng = np.random.default_rng(16)
        for i in range(12):
            g, edges, params = random_case(rng) if i < 10 else (
                oracles.make_webgraph(7, {}), {}, PageRankParams.uniform(7))
            w = rng.random(g.n) + 0.1
            params = PageRankParams(alpha=params.alpha, v=params.v, w=w / w.sum())
            P = oracles.dense_google(g.n, edges, 1.0, w=params.w)
            x = rng.random(g.n)
            expected = (np.eye(g.n) - params.alpha * P.T) @ x
            out = _system(build_hyperlink_matrix(g), params.w, params.alpha)(x)
            assert np.abs(out - expected).max() <= 1e-13


class TestPowerMethod:
    def test_identity_converges_immediately(self):
        x0 = np.array([0.2, 0.3, 0.5])
        x, iters, residual, converged = power_method(lambda x: x.copy(), x0, 1e-12, 100)
        assert converged and iters == 1 and residual == 0.0
        assert np.array_equal(x, x0)

    def test_micro_instance_stationary(self):
        # one dangling node: the full chain's ranking is the lumped vector
        _, params, H, _, _ = tri_setup()
        sigma, _, _, converged = power_method(full_operator(H, params),
                                              uniform_vector(3), 1e-12, 10_000)
        assert converged
        assert np.abs(sigma - TRI_SIGMA).max() <= 1e-11

    def test_zero_max_iter_returns_start(self):
        x0 = np.array([0.5, 0.5])
        x, iters, _, converged = power_method(lambda x: x.copy(), x0, 1e-12, 0)
        assert not converged and iters == 0
        assert np.array_equal(x, x0)

    def test_non_finite_raises(self):
        bad = lambda x: x * np.inf
        with pytest.raises(FloatingPointError):
            power_method(bad, np.array([0.5, 0.5]), 1e-12, 10)


class TestRankSinks:
    """Rank sinks put the second eigenvalue at alpha, where power iteration
    crawls and BiCGSTAB does not."""

    @pytest.mark.parametrize("n, k", [(300, 120), (120, 120)])  # with, without dangling
    def test_rank_sinks_converge_in_a_fifth_of_the_steps(self, n, k):
        rng = np.random.default_rng(13)
        for _ in range(3):
            edges, v = oracles.sink_case(rng, n, k)
            g = oracles.make_webgraph(n, edges)
            params = PageRankParams(alpha=0.99, v=v, w=uniform_vector(n), tol=1e-12,
                                    max_iter=50_000)
            rep = solve_lumped(g, params)
            _, plain_iters, _, plain_conv = power_method(
                full_operator(build_hyperlink_matrix(g), params), uniform_vector(n),
                params.tol, params.max_iter)
            assert rep.converged and plain_conv
            assert rep.k == k
            assert 5 * rep.iterations <= plain_iters
            pi_dense = oracles.stationary(oracles.dense_google(n, edges, 0.99, v=v))
            assert np.abs(rep.pagerank - pi_dense).sum() <= 1e-10

    def test_zero_teleport_entries_stay_nonnegative(self):
        # the first group gets no in-links from outside and no teleport mass,
        # so its rank is 0 and an unclipped Krylov iterate can dip below 0 there
        rng = np.random.default_rng(14)
        for _ in range(3):
            edges, v = oracles.sink_case(rng)
            for s in range(48, 120):
                edges[s] = {t for t in edges[s] if t >= 16} or {200}
            v[rng.random(300) < 0.5] = 0.0
            v[:16] = 0.0
            v /= v.sum()
            params = PageRankParams(alpha=0.99, v=v, w=v, tol=1e-12, max_iter=50_000)
            rep = solve_lumped(oracles.make_webgraph(300, edges), params)
            assert rep.converged
            assert rep.pagerank.min() >= 0.0
            pi_dense = oracles.stationary(oracles.dense_google(300, edges, 0.99, v=v, w=v))
            assert np.abs(rep.pagerank - pi_dense).sum() <= 1e-10


class TestRecoverAndUnpermute:
    def test_micro_instance_recovery(self):
        _, params, H, p, _ = tri_setup()
        pi = recover_pagerank(TRI_SIGMA, H, p, params)
        # single dangling node: the lumped coordinate is that node's rank
        assert np.abs(pi - TRI_SIGMA).max() <= 1e-15

    def test_all_dangling_recovery_is_u(self):
        params = PageRankParams.uniform(2, alpha=0.3)
        H = build_hyperlink_matrix(oracles.make_webgraph(2, {}))
        pi = recover_pagerank(np.array([1.0]), H, detect_dangling(H), params)
        u = params.alpha * params.w + (1 - params.alpha) * params.v
        assert np.abs(pi - u).max() <= 1e-15

    def test_sums_to_one_without_renormalization(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g, _, params = random_case(rng)
            H = build_hyperlink_matrix(g)
            p = detect_dangling(H)
            if p.k in (0, g.n):
                continue
            sigma = oracles.stationary(build_dense_lumped(permute_blocks(H, p), p, params))
            pi = recover_pagerank(sigma, H, p, params)
            assert abs(pi.sum() - 1.0) <= 1e-12

    def test_one_structure_serves_two_parameter_sets(self):
        # the blocks are built once; alpha, v and w enter only afterwards
        rng = np.random.default_rng(17)
        n = 80
        edges = oracles.random_edge_dict(rng, n, 0.4)
        H = build_hyperlink_matrix(oracles.make_webgraph(n, edges))
        p = detect_dangling(H)
        assert 1 <= p.k <= n - 1
        A = permute_blocks(H, p)
        for alpha in (0.6, 0.97):
            v = rng.pareto(1.2, n) + 1e-3  # heavy-tailed teleportation
            w = rng.random(n) + 0.05
            params = PageRankParams(alpha=alpha, v=v / v.sum(), w=w / w.sum())
            sigma = stationary_dense(build_dense_lumped(A, p, params))
            pi = unpermute(recover_pagerank(sigma, H, p, params), p)
            G = oracles.dense_google(n, edges, alpha, v=params.v, w=params.w)
            assert np.abs(pi - stationary_dense(G)).max() <= 1e-12

    def test_unpermute_examples(self):
        p_id = detect_dangling(build_hyperlink_matrix(
            oracles.make_webgraph(3, {0: {1}, 1: {0}})))
        assert unpermute(np.array([1., 2., 3.]), p_id).tolist() == [1.0, 2.0, 3.0]
        p_rot = detect_dangling(build_hyperlink_matrix(
            oracles.make_webgraph(3, {2: {0}})))
        assert p_rot.perm.tolist() == [2, 0, 1]
        assert unpermute(np.array([1., 2., 3.]), p_rot).tolist() == [2.0, 3.0, 1.0]

    def test_permute_unpermute_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g, _, _ = random_case(rng)
            p = detect_dangling(build_hyperlink_matrix(g))
            x = rng.random(g.n)
            assert np.array_equal(unpermute(x[p.perm], p), x)


class TestSolveLumped:
    def test_micro_instance(self):
        g = parse_edge_list(TRI_TEXT)
        rep = solve_lumped(g, PageRankParams.uniform(3, alpha=0.5, tol=1e-12,
                                                     max_iter=10_000))
        assert rep.converged
        assert np.abs(rep.pagerank - np.array([0.375, 0.3125, 0.3125])).max() <= 1e-11

    def test_all_dangling_closed_form(self):
        g = oracles.make_webgraph(2, {})
        rep = solve_lumped(g, PageRankParams.uniform(2, alpha=0.6))
        assert rep.iterations == 1 and rep.converged
        assert rep.pagerank.tolist() == [0.5, 0.5]

    def test_all_dangling_nonuniform_is_u(self):
        # the lumped chain is one state; its recovery is u = alpha*w + (1-alpha)*v
        rng = np.random.default_rng(31)
        v, w = rng.random(6), rng.random(6)
        params = PageRankParams(alpha=0.7, v=v / v.sum(), w=w / w.sum())
        rep = solve_lumped(oracles.make_webgraph(6, {}), params)
        assert rep.converged and rep.k == 0
        u = params.alpha * params.w + (1.0 - params.alpha) * params.v
        assert np.abs(rep.pagerank - u).sum() <= 1e-15

    @pytest.mark.parametrize("alpha", [0.85, 0.99])
    def test_no_dangling_matches_dense_oracle(self, alpha):
        rng = np.random.default_rng(32)
        for trial in range(10):
            n = int(rng.integers(4, 60))
            edges = oracles.random_edge_dict(rng, n, 0.0)  # every node links out
            if trial % 2:
                edges.update({0: {1}, 1: {0}, 2: {3}, 3: {2}})  # two rank sinks
            v = rng.random(n)
            params = PageRankParams(alpha=alpha, v=v / v.sum(), w=uniform_vector(n),
                                    tol=1e-13, max_iter=50_000)
            rep = solve_lumped(oracles.make_webgraph(n, edges), params)
            assert rep.converged and rep.k == rep.n == n
            pi = oracles.stationary(oracles.dense_google(n, edges, alpha, v=params.v))
            assert np.abs(rep.pagerank - pi).sum() <= 1e-8

    def test_two_cycle_no_dangling(self):
        g = parse_edge_list("0 1\n1 0\n")
        rep = solve_lumped(g, PageRankParams.uniform(2, alpha=0.85, tol=1e-12,
                                                     max_iter=1000))
        assert rep.k == rep.n == 2
        assert np.abs(rep.pagerank - 0.5).max() <= 1e-12

    def test_report_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g, _, params = random_case(rng)
            rep = solve_lumped(g, params)
            assert rep.converged
            assert rep.residual <= params.tol
            assert rep.pagerank.min() >= 0.0
            assert abs(rep.pagerank.sum() - 1.0) <= 1e-10

    def test_solves_through_solve_chain_once(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return solve_chain(*args)

        monkeypatch.setattr(lumprank.lumping, "solve_chain", spy)
        g, params, H, p, A = tri_setup()
        rep = solve_lumped(g, params)
        ((lumped, v, w, alpha, tol, max_iter),) = calls
        assert lumped.n == p.k + 1 and np.array_equal(lumped.indptr, A.indptr)
        assert np.array_equal(v, p.lump(params.v)) and np.array_equal(w, p.lump(params.w))
        assert (alpha, tol, max_iter) == (params.alpha, params.tol, params.max_iter)
        assert rep.converged

    def test_non_convergence_returns_best_iterate(self):
        g = parse_edge_list(TRI_TEXT)
        rep = solve_lumped(g, PageRankParams.uniform(3, alpha=0.85, tol=1e-16,
                                                     max_iter=3))
        assert not rep.converged and rep.iterations == 3
        assert abs(rep.pagerank.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("edges, n, ran", [
        (TRI_EDGES, 3, {"hyperlink", "partition", "blocks", "loop", "recover"}),
        ({0: {1}, 1: {0}}, 2, {"hyperlink", "partition", "blocks", "loop", "recover"}),  # k == n
        ({}, 2, {"hyperlink", "partition", "blocks", "loop", "recover"}),                # k == 0
    ])
    def test_stage_timings(self, edges, n, ran):
        g = oracles.make_webgraph(n, edges)
        t0 = time.perf_counter()
        rep = solve_lumped(g, PageRankParams.uniform(n, alpha=0.85))
        wall = time.perf_counter() - t0
        assert set(rep.timings) == {"hyperlink", "partition", "blocks", "loop", "recover"}
        assert all(t >= 0.0 for t in rep.timings.values())
        assert {s for s, t in rep.timings.items() if t > 0.0} == ran
        assert sum(rep.timings.values()) <= wall


def honesty_graphs(kind, seed, count=6):
    """Seeded (n, edges, v) cases: sink graphs (eigenvalue alpha) with n from
    50 to 400, or random graphs of every dangling share."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(50, 401))
        if kind == "sink":
            k = 2 * n // 5
            edges, v = oracles.sink_case(rng, n, k, groups=3, size=min(16, k // 3))
        else:
            edges = oracles.random_edge_dict(rng, n, float(rng.choice([0.0, 0.3, 0.7, 0.95])))
            v = rng.random(n)
            v /= v.sum()
        yield n, edges, v


class TestHonestStop:
    """``converged`` means the ranking is within tol of the exact one."""

    @pytest.mark.parametrize("alpha", [0.85, 0.99])
    @pytest.mark.parametrize("kind, seed", [("sink", 41), ("random", 42)])
    def test_converged_reports_are_within_tol(self, kind, seed, alpha):
        # one rule on both chains: error_bound = ||r||_1/(1-alpha), the
        # lumped one over s = 1 + r_k, |r_k| <= ||r||_1 = (1-alpha)*bound
        u = np.finfo(float).eps / 2
        for n, edges, v in honesty_graphs(kind, seed):
            g = oracles.make_webgraph(n, edges)
            H = build_hyperlink_matrix(g)
            pi_dense = oracles.stationary(oracles.dense_google(n, edges, alpha, v=v))
            for tol in (1e-6, 1e-8, 1e-10, 1e-12):
                params = PageRankParams(alpha=alpha, v=v, w=uniform_vector(n), tol=tol,
                                        max_iter=10_000)
                rep = solve_lumped(g, params)
                full = solve_chain(H, v, params.w, alpha, tol, 10_000)
                for pi, iters, res, bound in ((rep.pagerank, rep.iterations, rep.residual,
                                               rep.error_bound), full):
                    err = float(np.abs(pi - pi_dense).sum())
                    assert bound <= tol and err <= tol, (n, tol, err)
                    # the bound is exact arithmetic; the dense oracle rounds
                    assert err <= bound + 1e-15, (n, tol, err)
                    assert bound == pytest.approx(res / (1.0 - alpha),
                                                  rel=(1.0 - alpha) * tol + 4 * u)
                    assert iters <= params.max_iter
                assert rep.converged

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 1000])
    @pytest.mark.parametrize("case", ["k=0", "two-cycle", "uniform-three-cycle",
                                      "two-2-cycles-dangling"])
    def test_edge_cases_stay_finite_within_budget(self, case, max_iter):
        if case == "k=0":
            n, edges, v = 4, {}, np.array([0.1, 0.2, 0.3, 0.4])
        elif case == "two-cycle":
            n, edges, v = 2, {0: {1}, 1: {0}}, np.array([0.9, 0.1])
        elif case == "uniform-three-cycle":
            n, edges, v = 3, {0: {1}, 1: {2}, 2: {0}}, uniform_vector(3)
        else:
            n, edges = 5, {0: {1}, 1: {0}, 2: {3}, 3: {2}}
            v = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        params = PageRankParams(alpha=0.85, v=v, w=uniform_vector(n), tol=1e-12,
                                max_iter=max_iter)
        rep = solve_lumped(oracles.make_webgraph(n, edges), params)
        assert 1 <= rep.iterations <= max_iter
        assert np.isfinite(rep.pagerank).all() and rep.pagerank.min() >= 0.0
        assert abs(rep.pagerank.sum() - 1.0) <= 1e-12
        assert np.isfinite(rep.error_bound)
        err = np.abs(rep.pagerank - oracles.stationary(
            oracles.dense_google(n, edges, 0.85, v=v))).sum()
        # the bound is exact arithmetic; the two vectors carry their rounding
        assert err <= rep.error_bound + 1e-15
        if max_iter == 1000:
            assert rep.converged
        if case in ("k=0", "uniform-three-cycle"):
            # the start vector is the solution: the first check stops
            assert rep.converged and rep.iterations == 1

    def test_tol_1e_12_is_met_where_serial_sums_first_missed_it(self):
        # the smallest gen graph (90 % dangling, average degree 16, seeds 1
        # and 2, 20,000 to 85,000 nodes in steps of 1,000) on which the
        # lumped solve at alpha 0.99 stalled above tol 1e-12 (residual
        # 2.55e-15, error_bound 1.02e-12, 999 applications) while rmatvec
        # summed column k's 7,300 terms in one serial chain
        g = parse_edge_list(generate_edge_list(73_000, 0.9, 16, seed=2))
        params = PageRankParams.uniform(g.n, alpha=0.99, tol=1e-12)
        rep = solve_lumped(g, params)
        assert (rep.n, rep.k) == (59_913, 7_300)
        assert rep.converged and rep.error_bound <= 1e-12 and rep.iterations <= 50
        # the full chain has no column that long, and agrees within both tols
        x, _, _, bound = solve_chain(build_hyperlink_matrix(g), params.v, params.w, 0.99,
                                     1e-12, 1000)
        assert bound <= 1e-12
        assert np.abs(rep.pagerank - x).sum() <= 2e-12

    def test_unreachable_tol_reports_not_converged(self):
        edges, v = oracles.sink_case(np.random.default_rng(43))
        params = PageRankParams(alpha=0.99, v=v, w=uniform_vector(300), tol=1e-16,
                                max_iter=3)
        rep = solve_lumped(oracles.make_webgraph(300, edges), params)
        assert not rep.converged and rep.iterations == 3
        assert rep.error_bound > params.tol
        assert np.isfinite(rep.pagerank).all() and abs(rep.pagerank.sum() - 1.0) <= 1e-12


def sweep_edge_sets(labels):
    """Every nonempty edge set on 3 labels (511), or a fixed seeded sample
    of 200 of the 65,535 on 4, as (index, out-edge dict)."""
    pairs = [(s, t) for s in range(labels) for t in range(labels)]
    if labels == 3:
        masks = range(1, 2 ** len(pairs))
    else:
        masks = np.random.default_rng(4).choice(np.arange(1, 2 ** len(pairs)), 200,
                                                replace=False).tolist()
    for index, mask in enumerate(masks):
        edges = {}
        for bit, (s, t) in enumerate(pairs):
            if mask >> bit & 1:
                edges.setdefault(s, set()).add(t)
        yield index, edges


def one_zero_vector(rng, n):
    x = rng.random(n)
    x[rng.integers(n)] = 0.0
    return x / x.sum()


class TestExactSweep:
    """Both chains against exact rational PageRank on every small graph:
    converged runs are within tol, and error_bound bounds the exact error
    up to the rounding of the float64 residual it is computed from."""

    U = np.finfo(float).eps / 2

    def check(self, n, edges, alpha, tol, v, w):
        """Failure notes of both chains on one run, empty when both hold."""
        g = oracles.make_webgraph(n, edges)
        params = PageRankParams(alpha=alpha, v=v, w=w, tol=tol, max_iter=1000)
        exact = oracles.exact_pagerank(n, edges, alpha, params.v, params.w)
        rep = solve_lumped(g, params)
        x, _, _, bound = solve_chain(build_hyperlink_matrix(g), params.v, params.w, alpha,
                                     tol, params.max_iter)
        # the residual's own rounding, ~u per unit of ||x||_1, magnified by
        # 1/(1-alpha), is no longer below 1e-15 near alpha = 1
        slack = 1e-15 if alpha <= 0.99 else self.U / (1.0 - alpha)
        notes = []
        for chain, pi, eb, conv in (("lumped", rep.pagerank, rep.error_bound, rep.converged),
                                    ("full", x, bound, bound <= tol)):
            err = oracles.exact_l1(pi, exact)
            if not (conv and err <= tol and err <= eb + slack):
                notes.append(f"{chain} {edges} alpha={alpha} v={params.v.tolist()} "
                             f"w={params.w.tolist()}: converged={conv} err={err:.3e} "
                             f"error_bound={eb:.3e}")
        return notes

    @pytest.mark.parametrize("alpha, tol", [(0.5, 1e-12), (0.85, 1e-12), (0.99, 1e-12),
                                            (0.999999, 1e-6)])
    @pytest.mark.parametrize("labels", [3, 4])
    def test_both_chains_are_within_tol_and_bound(self, labels, alpha, tol):
        notes = []
        for index, edges in sweep_edge_sets(labels):
            rng = np.random.default_rng([labels, index])
            v, w = one_zero_vector(rng, labels), one_zero_vector(rng, labels)
            notes += self.check(labels, edges, alpha, tol, uniform_vector(labels),
                                uniform_vector(labels))
            notes += self.check(labels, edges, alpha, tol, v, w)
        assert not notes, "\n".join(notes)

    def test_rounding_floor_case(self):
        # the one run of the sweeps on which error_bound reads below the
        # exact error: both chains report 8.85e-12 against 1.42e-11, since
        # the float64 residual reads 8.85e-18 where the exact one is
        # 2.39e-17, and 1/(1-alpha) = 1e6 magnifies the gap
        edges = {0: {0}, 1: {1, 2}}
        v = np.array([0.454935400611404, 0.5450645993885961, 0.0])
        w = np.array([0.0, 0.4720060485213236, 0.5279939514786764])
        assert not self.check(3, edges, 0.999999, 1e-6, v, w)


class TestBicgstab:
    def test_iterations_count_every_application(self):
        edges, v = oracles.sink_case(np.random.default_rng(44))
        g = oracles.make_webgraph(300, edges)
        params = PageRankParams(alpha=0.99, v=v, w=uniform_vector(300))
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        calls, system = [], lumped_system(permute_blocks(H, p), p, params)
        v = p.lump(params.v)

        def op(x):
            calls.append(1)
            return system(x)

        for max_iter in (1, 2, 3, 4, 5, 10, 1000):
            calls.clear()
            x, iters, res, conv = bicgstab(op, (1 - params.alpha) * v, v, 1e-14, max_iter)
            assert iters == len(calls) <= max_iter
            assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-15
            # the residual reported is the true one of the vector returned
            assert res == np.abs((1 - params.alpha) * v - op(x)).sum()
            assert conv == (res <= 1e-14)
        assert conv

    def test_non_finite_candidate_never_returned(self):
        _, params, _, p, A = tri_setup(alpha=0.85)
        calls, system = [], lumped_system(A, p, params)
        v = p.lump(params.v)

        def op(x):
            calls.append(1)
            y = system(x)
            return y * np.inf if len(calls) == 2 else y  # the first direction overflows

        x, iters, res, conv = bicgstab(op, (1 - params.alpha) * v, v, 1e-15, 100)
        assert conv and np.isfinite(x).all()
        # one dangling node, kept in place: the lumped vector is the ranking
        pi_dense = oracles.stationary(oracles.dense_google(3, TRI_EDGES, 0.85))
        assert np.abs(x - pi_dense).sum() <= 1e-14

    def test_nan_operator_gives_unconverged_start(self):
        x0 = np.array([0.5, 0.5])
        x, iters, res, conv = bicgstab(lambda x: x * np.nan, x0, x0, 1e-12, 10)
        assert not conv and iters <= 10
        assert np.array_equal(x, x0)


    @pytest.mark.parametrize("module", [lumprank.graph, lumprank.lumping, lumprank.cli])
    def test_rank_path_calls_no_blas(self, module):
        # a long dot handed to OpenBLAS's threads can stall on a loaded host,
        # so rank and compare compute their products with numpy's own loops
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        blas = {"dot", "inner", "vdot", "matmul", "tensordot"}
        found = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                 or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in blas
                 or isinstance(node, ast.Attribute) and node.attr == "linalg"]
        assert found == []


class TestAgreementProperties:
    def test_lumped_matches_full_power_and_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(12):
            g, edges, params = random_case(rng, n_max=120)
            rep = solve_lumped(g, params)
            H = build_hyperlink_matrix(g)
            pi_full, _, _, conv = power_method(full_operator(H, params),
                                               uniform_vector(g.n), 1e-13, 50_000)
            assert rep.converged and conv
            assert np.abs(rep.pagerank - pi_full).sum() <= 1e-8
            pi_dense = oracles.stationary(oracles.dense_google(g.n, edges, params.alpha))
            assert np.abs(rep.pagerank - pi_dense).sum() <= 1e-8

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            n = int(rng.integers(5, 40))
            edges = oracles.random_edge_dict(rng, n, 0.4)
            text = oracles.edge_text(edges)
            phi = rng.permutation(10 * n)  # sparse, shuffled label space
            relabeled = "\n".join(
                f"{phi[int(a)]} {phi[int(b)]}"
                for line in text.splitlines() if line
                for a, b in [line.split()]
            )
            g1 = parse_edge_list(text)
            g2 = parse_edge_list(relabeled)
            params1 = PageRankParams.uniform(g1.n, alpha=0.85, tol=1e-13, max_iter=50_000)
            r1 = solve_lumped(g1, params1)
            r2 = solve_lumped(g2, PageRankParams.uniform(g2.n, alpha=0.85, tol=1e-13,
                                                         max_iter=50_000))
            assert g1.n == g2.n
            index_of = {int(label): j for j, label in enumerate(g2.labels)}
            for i in range(g1.n):
                j = index_of[int(phi[int(g1.labels[i])])]
                assert abs(r1.pagerank[i] - r2.pagerank[j]) <= 1e-10
