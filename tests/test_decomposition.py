import dataclasses
import gc
import inspect
import re
import sys
import tracemalloc

import numpy as np
import pytest

import lumprank.decomposition
import lumprank.graph
import lumprank.transforms
import oracles
from lumprank import (
    PageRankParams,
    build_hyperlink_matrix,
    detect_dangling,
    parse_edge_list,
    permute_blocks,
    solve_lumped,
)
from lumprank.cli import generate_edge_list
from lumprank.decomposition import (
    dangling_from_nondangling,
    ldu_factors,
    run_checks,
    stochastic_complement,
    verify_coupled_stationarity,
)
from lumprank.transforms import (
    TransformKind,
    build_dense_google,
    build_dense_lumped,
    check_lumpable,
    check_spectrum_identity,
    stationary_dense,
    verify_transform_condition,
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
    Gt = build_dense_google(H, p, params)
    return g, params, H, p, Gt


def micro_setup():
    g = parse_edge_list("1 2\n1 3\n2 1\n")
    params = PageRankParams.uniform(3, alpha=0.5)
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    return build_dense_google(H, p, params)


class TestLduFactors:
    def test_reconstruction_random(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            n, k = g.n, p.k
            Z, S, dev = ldu_factors(Gt, k)
            dense_dev = oracles.ldu_deviation(Gt, Z, S)
            assert dense_dev <= 1e-12 * n
            # the blockwise deviation measures the same product
            assert dev <= 1e-12 * n and abs(dev - dense_dev) <= 1e-14 * n

    def test_unit_triangular_structure_exact(self, monkeypatch):
        rng = np.random.default_rng(41)
        g, params, H, p, Gt = dense_setup(rng)
        n, k = g.n, p.k
        # D11 and Y are freed at return; they are seen as the first solve's
        # matrix and result
        solved = []
        solve = lumprank.decomposition._solve
        monkeypatch.setattr(lumprank.decomposition, "_solve",
                            lambda A, B, what: solved.append((A.copy(), solve(A, B, what)))
                            or solved[-1][1])
        Z, S, _ = ldu_factors(Gt, k)
        (D11, Y), _ = solved
        assert (D11.shape, Y.shape, Z.shape, S.shape) == (
            (k, k), (k, n - k), (n - k, k), (n - k, n - k))
        assert np.array_equal(D11, np.eye(k) - Gt[:k, :k])
        Lfac, Dfac, Ufac = oracles.ldu_dense(Gt, Z, S)
        assert np.array_equal(Ufac[:k, k:], -Y)
        assert np.array_equal(np.diag(Lfac), np.ones(n))
        assert np.array_equal(np.diag(Ufac), np.ones(n))
        assert np.array_equal(Lfac[:k, k:], np.zeros((k, n - k)))
        assert np.array_equal(Ufac[k:, :k], np.zeros((n - k, k)))
        assert np.array_equal(Dfac[:k, k:], np.zeros((k, n - k)))
        assert np.array_equal(Dfac[k:, :k], np.zeros((n - k, k)))

    def test_trailing_diagonal_block_is_identity_minus_complement(self):
        Gt = micro_setup()
        Z, S, _ = ldu_factors(Gt, 2)
        Dfac = oracles.ldu_dense(Gt, Z, S)[1]
        assert np.abs(Dfac[2:, 2:] - (np.eye(1) - S)).max() == 0.0
        # S = G22 + G21 (I - G11)^-1 G12, formed here by a direct solve
        direct = Gt[2:, 2:] + Gt[2:, :2] @ np.linalg.solve(np.eye(2) - Gt[:2, :2], Gt[:2, 2:])
        assert np.abs(S - direct).max() <= 1e-15

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

    @pytest.mark.parametrize("block", ["G12", "G21", "G22"])
    def test_nan_in_an_off_leading_block_is_a_nan_deviation(self, block):
        # a NaN in G12 or G21 makes the solves non-finite, which raise; in
        # G22 the solves succeed, and the NaN must reach the deviation, so
        # that run_checks fails the row (Python's max over the block
        # deviations drops a NaN that is not first: it read 0.0 here)
        Gt = np.full((4, 4), 0.25)
        Gt[{"G12": (0, 3), "G21": (3, 0), "G22": (3, 3)}[block]] = np.nan
        if block == "G22":
            assert np.isnan(ldu_factors(Gt, 2)[2])
        else:
            with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
                ldu_factors(Gt, 2)

    def test_nearly_singular_leading_block_raises(self):
        # I - G11 = [[1, 1], [1, 1 + 1e-13]]: not exactly singular, but the
        # solve for Y grows G12 by ~1e13
        Gt = np.zeros((3, 3))
        Gt[:2, :2] = np.eye(2) - np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        Gt[0, 2] = 1.0
        Gt[2] = 1.0 / 3
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            ldu_factors(Gt, 2)


def complement(Gt, k):
    """The stochastic complement of the split at k, after its own check passed."""
    _, S, _ = ldu_factors(Gt, k)
    dev = stochastic_complement(S)
    assert dev <= 1e-10, dev
    return S


class TestStochasticComplement:
    def test_single_dangling_complement_is_one(self):
        S = complement(micro_setup(), 2)
        assert S.shape == (1, 1)
        assert abs(S[0, 0] - 1.0) <= 1e-12

    def test_last_split_complement_is_one(self):
        rng = np.random.default_rng(42)
        g, params, H, p, Gt = dense_setup(rng)
        S = complement(Gt, g.n - 1)
        assert S.shape == (1, 1)
        assert abs(S[0, 0] - 1.0) <= 1e-10

    def test_single_nondangling_two_dangling(self):
        g = oracles.make_webgraph(3, {0: {1}})
        params = PageRankParams.uniform(3, alpha=0.85)
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        assert p.k == 1
        Gt = build_dense_google(H, p, params)
        S = complement(Gt, 1)
        assert S.shape == (2, 2)
        assert S.min() >= -1e-12
        assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-10

    def test_rows_stochastic_and_complement_singularity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            S = complement(Gt, p.k)
            assert S.min() >= -1e-12
            assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-10
            I_S = np.eye(S.shape[0]) - S
            smallest = np.linalg.svd(I_S, compute_uv=False).min()
            norm = np.linalg.norm(I_S)
            assert smallest <= 1e-8 * max(norm, 1e-300)

    @pytest.mark.parametrize("defect, dev", [("row", 1e-6), ("negative", 1e-3)])
    def test_defect_is_a_failed_report(self, defect, dev):
        # a row sum off 1, or a negative entry with row sums kept, is
        # reported with its size, never raised
        _, S, _ = ldu_factors(micro_setup(), 1)
        assert S.shape == (2, 2)
        if defect == "row":
            S[-1] *= 1 + dev
        else:
            S[-1] += [-S[-1, 0] - dev, S[-1, 0] + dev]
        got = stochastic_complement(S)
        assert got > 1e-10
        assert abs(got - dev) <= 1e-15


def coupled_rows(pis, Gt, Z, S):
    """The coupled check of the rows of ``pis`` with the factors Z and S of
    G~, with identity (c) taken from G~'s blocks at the factors' split."""
    k = Z.shape[1]
    dangling = dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:])
    return verify_coupled_stationarity(pis, Z, S, dangling)


def coupled(pi, Gt, k):
    """The (deviation, note) of one stationary vector on the split at k."""
    Z, S, _ = ldu_factors(Gt, k)
    [row] = coupled_rows(np.asarray(pi)[None], Gt, Z, S)
    return row


def perturbed(pi):
    bad = pi.copy()
    bad[0] += 1e-3
    return bad / bad.sum()


class TestCoupledStationarity:
    def test_micro_instance_identities(self):
        Gt = micro_setup()
        pi = np.array([3 / 8, 5 / 16, 5 / 16])
        dev, note = coupled(pi, Gt, 2)
        assert dev <= 1e-10, note
        assert "dangling from nondangling" in note

    def test_random_graphs_with_direct_solve(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            pi = oracles.stationary(Gt)
            dev, note = coupled(pi, Gt, p.k)
            assert dev <= 1e-8, note

    def test_recovered_ranking_satisfies_identities(self):
        # cross-module agreement: the sparse-pipeline ranking passes the
        # decomposition identities too
        rng = np.random.default_rng(45)
        for _ in range(6):
            g, params, H, p, Gt = dense_setup(rng)
            solved = solve_lumped(g, PageRankParams(alpha=params.alpha, v=params.v,
                                                    w=params.w, tol=1e-13))
            assert solved.converged
            dev, note = coupled(solved.pagerank[p.perm], Gt, p.k)
            assert dev <= 1e-8, note

    def test_identities_match_direct_solves(self, monkeypatch):
        # (b) is pi2 Z, a product with the cached block, and (c) is one
        # solve with (I - G22)^T for every row; for an exact and a perturbed
        # vector, each must equal the direct solve it stands for, and each
        # row's deviation the largest gap from those solves
        rng = np.random.default_rng(47)
        solved = []
        solve = lumprank.decomposition._solve
        monkeypatch.setattr(lumprank.decomposition, "_solve",
                            lambda *a: solved.append(solve(*a)) or solved[-1])
        for _ in range(10):
            g, params, H, p, Gt = dense_setup(rng)
            k = p.k
            Z, S, _ = ldu_factors(Gt, k)
            exact = oracles.stationary(Gt)
            pis = np.stack([exact, perturbed(exact)])
            solved.clear()
            rows = coupled_rows(pis, Gt, Z, S)
            # uniform v and w: every trailing row sums below 1, so (c) is solved
            [X] = solved
            assert X.shape == (g.n - k, 2)
            for pi, x, (dev, note) in zip(pis, X.T, rows):
                pi1, pi2 = pi[:k], pi[k:]
                direct_b, direct_c = oracles.coupled_solves(Gt, k, pi)
                assert np.abs(pi2 @ Z - direct_b).max() <= 1e-12
                assert np.abs(x - direct_c).max() <= 1e-12
                dev_c = float(np.abs(direct_c - pi2).max())
                expected = max(float(np.abs(pi2 @ S - pi2).max()),
                               float(np.abs(direct_b - pi1).max()), dev_c)
                assert abs(dev - expected) <= 1e-12, note
                printed = float(re.search(r"dangling from nondangling=(\S+)", note).group(1))
                assert abs(printed - dev_c) <= 5e-4 * dev_c + 1e-12, note

    def test_two_rows_share_one_solve(self, monkeypatch):
        # the negative control's vector is a second row of the same call,
        # solved with the first in one np.linalg.solve
        rng = np.random.default_rng(48)
        g, params, H, p, Gt = dense_setup(rng)
        Z, S, _ = ldu_factors(Gt, p.k)
        solved = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solved.append(1) or solve(*a))
        pi = oracles.stationary(Gt)
        solved.clear()
        rows = coupled_rows(np.stack([pi, perturbed(pi)]), Gt, Z, S)
        assert len(rows) == 2
        assert len(solved) == 1

    def test_two_row_call_bounds_the_traced_peak(self):
        # one two-row call holds O(n) arrays: the solve's right-hand side
        # and result, m x r each, the diagonal's m entries and the r x m
        # |X^T - P2| temporaries; (a) and (b) run after the solve, one
        # vector at a time.  4 r n doubles bound them.  The bound also
        # admits m^2 doubles, the (I - G22)^T that the call formed as a new
        # array before it borrowed G22 (TestBorrowedMemory bounds the
        # borrowing).  Measured: 139,832 B, most of it numpy's two fixed
        # ufunc buffers, of a 246,600 B bound.  On this graph the k x m
        # matrix W = G12 (I - G22)^-1 alone is larger than the bound, so a
        # call that formed W would fail: one did, at 558,602 B
        g = parse_edge_list(generate_edge_list(400, 0.5, 4, seed=3))
        n = g.n
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        Gt = build_dense_google(H, p, PageRankParams.uniform(n))
        k, m, r = p.k, n - p.k, 2
        assert (n, k) == (367, 200)
        Z, S, _ = ldu_factors(Gt, k)
        pi = oracles.stationary(Gt)
        pis = np.stack([pi, perturbed(pi)])
        assert k * m > 4 * r * n
        bound = 8 * (m * m + 4 * r * n)

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = coupled_rows(pis, Gt, Z, S)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rows[0][0] <= 1e-8 and rows[1][0] > 1e-6
        assert peak <= bound, (peak, bound)

    def test_perturbed_vector_fails(self):
        rng = np.random.default_rng(46)
        g, params, H, p, Gt = dense_setup(rng)
        dev, note = coupled(perturbed(oracles.stationary(Gt)), Gt, p.k)
        assert dev > 1e-6, note

    def test_unit_trailing_row_sums_skip_reported(self):
        # all teleport/dangling mass on the dangling node: u2^T e = 1, so the
        # trailing resolvent does not exist and identity (c) must be skipped
        g = parse_edge_list("1 2\n1 3\n2 1\n")
        conc = np.array([0.0, 0.0, 1.0])
        params = PageRankParams(alpha=0.5, v=conc, w=conc.copy())
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        Gt = build_dense_google(H, p, params)
        pi = oracles.stationary(Gt)
        dev, note = coupled(pi, Gt, p.k)
        assert dev <= 1e-10, note
        assert "skipped" in note

    def test_length_mismatch_raises(self):
        Z, S, _ = ldu_factors(micro_setup(), 2)
        skipped = (None, "trailing block has unit row sums")
        with pytest.raises(ValueError, match="length 3"):
            verify_coupled_stationarity(np.full((1, 4), 0.25), Z, S, skipped)
        with pytest.raises(ValueError, match="length 3"):  # one vector, not a row
            verify_coupled_stationarity(np.full(3, 1 / 3), Z, S, skipped)

    def test_dangling_for_other_rows_raises(self):
        # (c) checked for one row cannot be paired with two rows, nor the reverse
        rng = np.random.default_rng(48)
        g, params, H, p, Gt = dense_setup(rng)
        k = p.k
        Z, S, _ = ldu_factors(Gt, k)
        pi = oracles.stationary(Gt)
        one, two = pi[None], np.stack([pi, perturbed(pi)])
        for checked, given in [(one, two), (two, one)]:
            dangling = dangling_from_nondangling(checked, Gt[:k, k:], Gt[k:, k:])
            assert dangling[0] is not None
            with pytest.raises(ValueError, match="checked for"):
                verify_coupled_stationarity(given, Z, S, dangling)


def coupled_cases():
    """(name, Gt, k, pis) for each path of identity (c) in the coupled check: (c)
    solved, skipped for a unit trailing row sum, and skipped for an
    I - G22 singular to working precision below that rule."""
    g, params, H, p, Gt = dense_setup(np.random.default_rng(50))
    pi = oracles.stationary(Gt)
    yield "solved", Gt, p.k, np.stack([pi, perturbed(pi)])
    for name, text, v in [
            ("unit row sums", "1 2\n1 3\n2 1\n", [0.0, 0.0, 1.0]),
            ("singular", "1 2\n2 1\n1 3\n2 4\n", [5e-12, 5e-12, 0.499999999995, 0.499999999995])]:
        g = parse_edge_list(text)
        v = np.array(v)
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        Gt = build_dense_google(H, p, PageRankParams(alpha=0.85, v=v, w=v.copy()))
        yield name, Gt, p.k, oracles.stationary(Gt)[None]


class TestBorrowedTrailingBlock:
    """dangling_from_nondangling solves with I - G22 written into the view
    G22 of G~ and puts back every entry of G~ bit for bit."""

    @pytest.mark.parametrize("case", ["solved", "unit row sums", "singular"])
    def test_every_path_restores_the_matrix(self, case):
        [(_, Gt, k, pis)] = [c for c in coupled_cases() if c[0] == case]
        Z, S, _ = ldu_factors(Gt, k)
        Gt_before = Gt.copy()
        rows = coupled_rows(pis, Gt, Z, S)
        assert np.array_equal(Gt, Gt_before)
        notes = {"solved": "dangling from nondangling=",
                 "unit row sums": "skipped (trailing block has unit row sums)",
                 "singular": "skipped (I minus the trailing block is singular"}
        assert notes[case] in rows[0][1]
        # a borrowed G22 must be writeable: a read-only G~ gives read-only
        # views, and the solve raises numpy's ValueError with no entry
        # changed; the unit-row-sum skip writes nothing, so it still returns
        Gt.setflags(write=False)
        if case == "unit row sums":
            assert dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:]) == (
                None, "trailing block has unit row sums")
        else:
            with pytest.raises(ValueError, match="read-only"):
                dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:])
        assert np.array_equal(Gt, Gt_before)

    @pytest.mark.parametrize("case", ["solved", "unit row sums", "singular"])
    def test_checked_before_the_factors_gives_the_same_rows(self, case):
        # run_checks takes (c) from G~'s own blocks before ldu_factors runs
        # and hands it to the coupled check: the rows are those of (c) taken
        # from G~'s blocks after ldu_factors, and G~ is restored
        [(_, Gt, k, pis)] = [c for c in coupled_cases() if c[0] == case]
        Gt_before = Gt.copy()
        dangling = dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:])
        assert np.array_equal(Gt, Gt_before)
        Z, S, _ = ldu_factors(Gt, k)
        assert verify_coupled_stationarity(pis, Z, S, dangling) == coupled_rows(pis, Gt, Z, S)
        with pytest.raises(ValueError, match=f"length {Gt.shape[0]}"):
            dangling_from_nondangling(pis[:, 1:], Gt[:k, k:], Gt[k:, k:])

    def test_factors_the_formed_transpose(self, monkeypatch):
        # the matrix solved is (I - G22)^T as a new array would hold it, to
        # the last bit, so the solution is unchanged by the borrowing
        [(_, Gt, k, pis)] = [c for c in coupled_cases() if c[0] == "solved"]
        Z, S, _ = ldu_factors(Gt, k)
        m = Gt.shape[0] - k
        formed = -Gt[k:, k:].T
        formed.flat[::m + 1] += 1.0
        seen = []
        solve = lumprank.decomposition._solve
        monkeypatch.setattr(lumprank.decomposition, "_solve",
                            lambda A, B, what: seen.append((A.copy(), solve(A, B, what)))
                            or seen[-1][1])
        coupled_rows(pis, Gt, Z, S)
        [(A, X)] = seen
        assert np.array_equal(A, formed)
        assert np.array_equal(X, np.linalg.solve(formed, Gt[:k, k:].T @ pis[:, :k].T))


class TestBorrowedMemory:
    def test_borrowing_checks_allocate_under_a_tenth_of_n_squared(self):
        # each check factors the arrays it is given, so beyond its inputs it
        # holds O(n) vectors and numpy's fixed 8192-double ufunc buffers
        # (the in-place negation of the strided G22 takes two), under
        # 0.1 n^2 doubles at n = 503 (measured: 0.008, 0.011 and 0.069).
        # tracemalloc does not see LAPACK's work copies.  Forming
        # I - Gt/lam, I - M^T or (I - G22)^T as new arrays took 1.01, 1.00
        # and 0.21 n^2 here
        g = parse_edge_list(generate_edge_list(550, 0.5, 4, seed=3))
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        n, k = g.n, p.k
        assert (n, k) == (503, 275)
        params = PageRankParams.uniform(n)
        Gt = build_dense_google(H, p, params)
        G1 = build_dense_lumped(permute_blocks(H, p), p, params)
        Z, S, _ = ldu_factors(Gt, k)
        pi = oracles.stationary(Gt)
        pis = np.stack([pi, perturbed(pi)])
        calls = {"check_spectrum_identity": lambda: check_spectrum_identity(Gt, [G1], k),
                 "stationary_dense": lambda: stationary_dense(Gt),
                 "verify_coupled_stationarity": lambda: coupled_rows(pis, Gt, Z, S)}
        peaks = {}
        for name, call in calls.items():
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / (8 * n * n)
            finally:
                tracemalloc.stop()
        assert all(peak < 0.1 for peak in peaks.values()), peaks


    def test_lumpable_allocates_under_a_tenth_of_n_squared(self):
        # its finiteness test is max|M|, with no n x n mask of np.isfinite
        # (that mask alone is 0.125 n^2 doubles); measured: 0.004 n^2
        g = parse_edge_list(generate_edge_list(550, 0.5, 4, seed=3))
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        Gt = build_dense_google(H, p, PageRankParams.uniform(g.n))
        peak = traced_peak(lambda: check_lumpable(Gt, p.k))
        assert peak < 0.1 * 8 * g.n * g.n, peak

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_transform_condition_holds_two_order_m_matrices(self, kind):
        # L is built after left(I) has returned and freed its identity, so
        # at most two order-m matrices are alive; the identity, L and
        # left(I) together took 3.00-3.03 m^2 doubles.  Measured: 2.00-2.03
        # m^2 at m = 600, the rest numpy's fixed 8192-double ufunc buffer
        m = 600
        peak = traced_peak(lambda: verify_transform_condition(kind, m))
        assert peak < 2.05 * 8 * m * m, peak / (8 * m * m)

    def test_ldu_factors_hold_their_factors_and_row_blocks(self):
        # beyond its four factors, k^2 + 2k(n-k) + (n-k)^2 doubles, the
        # LDU check holds only 64-row blocks of its deviation: 64 x k of
        # Z D11 and 64 x (n-k) of the trailing product, while the block of
        # rows before still holds its trailing product (D11 Y's blocks are
        # smaller), and numpy's fixed 8192-double ufunc buffer (S += G22
        # reads a strided view).  Measured: 5,512,860 B of a 5,574,176 B
        # bound.  tracemalloc does not see LAPACK's work copies.  An
        # order-(n-k) or k x (n-k) product would not fit
        g = parse_edge_list(generate_edge_list(900, 0.6, 4, seed=3))
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        Gt = build_dense_google(H, p, PageRankParams.uniform(g.n))
        n, k = g.n, p.k
        m = n - k
        assert (n, k) == (782, 360)
        bound = 8 * (k * k + 2 * k * m + m * m + 64 * (2 * m + k) + 8192)
        assert bound - 8 * (k * k + 2 * k * m + m * m) < 8 * min(m * m, k * m)
        peak = traced_peak(lambda: ldu_factors(Gt, k))
        assert peak <= bound, (peak, bound)


def traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak beyond what was held before,
    as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


LAB = (lumprank.transforms, lumprank.decomposition)
# private helpers that compute one step of a check, not a check of their own
HELPERS = {"_absmax", "_solve", "_apply_left", "_apply_right_inverse", "_google_matrix"}


class TestRunChecks:
    @pytest.mark.parametrize("negative_control", [False, True])
    def test_every_borrowing_check_restores_the_matrices(self, monkeypatch, negative_control):
        # G~ and the lumped block are factored in place by the checks that
        # borrow them; after each such call both must be bit-identical to
        # what was built (the negative control corrupts the lumped block on
        # purpose, so there only G~ is compared)
        g, params, H, p, Gt = dense_setup(np.random.default_rng(51))
        built = []

        def keep(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                built.append((out, out.copy()))
                return out
            return wrapper

        def compare_after(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                for M, before in built[:1 if negative_control else 2]:
                    assert np.array_equal(M, before), name
                called.append(name)
                return out
            return wrapper

        called = []
        mod = lumprank.decomposition
        for name in ("build_dense_google", "build_dense_lumped"):
            monkeypatch.setattr(mod, name, keep(getattr(mod, name)))
        for name in ("check_spectrum_identity", "stationary_dense",
                     "verify_coupled_stationarity"):
            monkeypatch.setattr(mod, name, compare_after(name, getattr(mod, name)))
        rows = run_checks(g, params, negative_control=negative_control)
        assert len(built) == 2 and len(called) == 3
        assert [status for status, *_ in rows].count("PASS") == 14

    def test_reaches_every_public_function_and_no_private_check(self, monkeypatch):
        # the lab's public functions are what the tests test; run_checks
        # must call each of them, and no private function other than the
        # helpers, so that no untested private twin of a check comes back
        g, params, H, p, Gt = dense_setup(np.random.default_rng(49))
        functions = {(mod.__name__, name): fn for mod in LAB for name, fn in vars(mod).items()
                     if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                     and name != "run_checks"}
        called = set()

        def spy(key, fn):
            def wrapper(*args, **kwargs):
                called.add(key)
                return fn(*args, **kwargs)
            return wrapper

        spies = {id(fn): spy(key, fn) for key, fn in functions.items()}
        for mod in LAB:  # every binding, imported names included
            for attr, obj in list(vars(mod).items()):
                if id(obj) in spies:
                    monkeypatch.setattr(mod, attr, spies[id(obj)])

        rows = run_checks(g, params, negative_control=True)
        assert [status for status, *_ in rows].count("SKIP") == 0
        public = {key for key in functions if not key[1].startswith("_")}
        assert ("lumprank.decomposition", "ldu_factors") in public
        assert ("lumprank.transforms", "check_spectrum_identity") in public
        assert sorted(public - called) == []
        private_checks = {key for key in functions
                          if key[1].startswith("_") and key[1] not in HELPERS}
        assert sorted(called & private_checks) == []

    def test_builds_one_hyperlink_matrix(self, monkeypatch):
        # both dense chains are formed from the one H that run_checks builds
        g, params, H, p, Gt = dense_setup(np.random.default_rng(53))
        built = []
        build = lumprank.graph.build_hyperlink_matrix
        for name, mod in list(sys.modules.items()):  # every binding of the builder
            if name.startswith("lumprank") and getattr(mod, "build_hyperlink_matrix",
                                                       None) is build:
                monkeypatch.setattr(mod, "build_hyperlink_matrix",
                                    lambda g: built.append(build(g)) or built[-1])
        rows = run_checks(g, params, negative_control=True)
        assert [status for status, *_ in rows].count("PASS") == 14
        assert len(built) == 1

    def test_no_second_check_convention(self):
        # every check returns its deviation and run_checks owns every
        # threshold: no public lab function takes a threshold or a partition
        # of its own, and no module wraps results in a dataclass
        for mod in LAB:
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                assert not dataclasses.is_dataclass(obj), (mod.__name__, name)
                if inspect.isfunction(obj) and not name.startswith("_"):
                    params = set(inspect.signature(obj).parameters)
                    assert params.isdisjoint({"tol", "boundaries", "blocks"}), (
                        mod.__name__, name, params)

    def test_trailing_solve_comes_before_the_leading_solves(self, monkeypatch):
        # identity (c) is solved while G~ and the vectors are the only large
        # arrays alive, before ldu_factors solves for Y = D11^-1 G12 and then
        # for Z, whose transpose solves D11^T Z^T = G21^T
        g, params, H, p, Gt = dense_setup(np.random.default_rng(52))
        k = p.k
        seen = []
        solve = lumprank.decomposition._solve

        def spy(A, B, what):
            seen.append((what, B.copy()))
            return solve(A, B, what)

        monkeypatch.setattr(lumprank.decomposition, "_solve", spy)
        rows = run_checks(g, params, negative_control=True)
        assert [status for status, *_ in rows].count("PASS") == 14
        assert [what for what, _ in seen] == ["I minus the trailing block",
                                              "I minus the leading block",
                                              "I minus the leading block"]
        assert np.array_equal(seen[1][1], Gt[:k, k:])
        assert np.array_equal(seen[2][1], Gt[k:, :k].T)
