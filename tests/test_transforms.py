import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import lumprank.transforms
import oracles
from lumprank import (
    PageRankParams,
    build_hyperlink_matrix,
    detect_dangling,
    full_operator,
    parse_edge_list,
    permute_blocks,
    power_method,
    uniform_vector,
)
from lumprank.cli import generate_edge_list
from lumprank.transforms import (
    TransformKind,
    _apply_right_inverse,
    build_dense_google,
    build_dense_lumped,
    build_transform,
    check_lumpable,
    check_spectrum_identity,
    similarity_transform,
    stationary_dense,
    verify_transform_condition,
)

BUILTIN = (TransformKind.AVERAGING, TransformKind.SPARSE_ELIM, TransformKind.JORDAN_DIFF)
# the orders the closed forms are compared at against the dense oracle
ORACLE_ORDERS = (1, 2, 3, 127, 128, 129, 300)


def dense_setup(rng, n_max=40, alphas=(0.5, 0.85, 0.99)):
    """Random graph with at least one dangling and one nondangling node."""
    while True:
        n = int(rng.integers(4, n_max))
        frac = float(rng.choice([0.2, 0.5, 0.8]))
        edges = oracles.random_edge_dict(rng, n, frac)
        g = oracles.make_webgraph(n, edges)
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        if 1 <= p.k <= n - 1:
            break
    params = PageRankParams.uniform(n, alpha=float(rng.choice(alphas)))
    Gt = build_dense_google(g, params, p)
    return g, params, H, p, Gt, permute_blocks(H, p)


class TestBuildTransform:
    def test_averaging_order_3(self):
        L = build_transform(TransformKind.AVERAGING, 3)
        third = 1.0 / 3
        expected = np.array([[1, 0, 0],
                             [-third, 2 * third, -third],
                             [-third, -third, 2 * third]])
        assert np.array_equal(L, expected)

    def test_sparse_elim_order_3(self):
        L = build_transform(TransformKind.SPARSE_ELIM, 3)
        assert L.tolist() == [[1, 0, 0], [-1, 1, 0], [-1, 0, 1]]

    def test_jordan_diff_order_3(self):
        L = build_transform(TransformKind.JORDAN_DIFF, 3)
        assert L.tolist() == [[1, 0, 0], [-1, 1, 0], [0, -1, 1]]

    @pytest.mark.parametrize("kind", BUILTIN)
    def test_order_1_collapses_to_identity(self, kind):
        assert build_transform(kind, 1).tolist() == [[1.0]]

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            build_transform(TransformKind.AVERAGING, 0)

    @pytest.mark.parametrize("kind", BUILTIN)
    @pytest.mark.parametrize("m", [1, 2, 3, 300])
    def test_closed_form_inverse(self, kind, m):
        # the column operations applied to I give L^-1
        Linv = np.eye(m)
        _apply_right_inverse(kind, Linv)
        assert np.abs(Linv - np.linalg.inv(build_transform(kind, m))).max() <= 1e-12
        assert np.array_equal(Linv[:, 0], np.ones(m))
        if m == 1:
            assert Linv.tolist() == [[1.0]]


def defined_as(monkeypatch, matrix):
    """Make ``build_transform`` return ``matrix`` for every kind, as the
    condition check reads it."""
    monkeypatch.setattr(lumprank.transforms, "build_transform",
                        lambda kind, m: np.array(matrix, dtype=float))


class TestTransformCondition:
    @pytest.mark.parametrize("kind", BUILTIN)
    def test_builtins_pass_up_to_order_50(self, kind):
        for m in range(1, 51):
            rep = verify_transform_condition(kind, m, tol=1e-12)
            assert rep.passed, (kind, m, rep.detail)

    def test_identity_fails_condition(self, monkeypatch):
        defined_as(monkeypatch, np.eye(3))
        rep = verify_transform_condition(TransformKind.SPARSE_ELIM, 3, tol=1e-12)
        assert not rep.passed
        assert rep.max_abs_deviation >= 1.0  # I e = e, off e1 by 1 in each tail entry
        assert rep.detail.startswith("forward map off")

    def test_singular_matrix_reported(self, monkeypatch):
        # maps e to e1, so only the operation checks can see that it is
        # singular: no column operation takes it to I
        defined_as(monkeypatch, [[1.0, 0.0], [0.0, 0.0]])
        for kind in BUILTIN:
            rep = verify_transform_condition(kind, 2)
            assert not rep.passed
            assert rep.detail.startswith("left operation off")
            assert rep.max_abs_deviation == 1.0  # right_inv(L) - I has -1 at (2, 2)

    def test_nearly_singular_matrix_reported(self, monkeypatch):
        # maps e to e1 exactly; its inverse would have ~1e13 entries
        defined_as(monkeypatch, [[1.0, 0.0], [1e-13, -1e-13]])
        for kind in BUILTIN:
            rep = verify_transform_condition(kind, 2)
            assert not rep.passed
            assert rep.max_abs_deviation >= 0.5

    def test_order_below_1_raises(self):
        for kind in BUILTIN:
            with pytest.raises(ValueError, match=">= 1"):
                verify_transform_condition(kind, 0)

    @pytest.mark.filterwarnings("error")
    def test_nearly_singular_transform_of_order_60_reported(self, monkeypatch):
        # two rows equal up to one unit in the last place: no traceback, no
        # warning, and a failed report
        L = build_transform(TransformKind.AVERAGING, 60)
        L[-1] = L[-2]
        L[-1, 0] = np.nextafter(L[-1, 0], 0.0)
        defined_as(monkeypatch, L)
        rep = verify_transform_condition(TransformKind.AVERAGING, 60)
        assert not rep.passed
        assert rep.detail.startswith("left operation off")
        assert rep.max_abs_deviation == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_definition_fails(self, monkeypatch):
        L = build_transform(TransformKind.JORDAN_DIFF, 200)
        L[150, 7] = np.nan
        defined_as(monkeypatch, L)
        rep = verify_transform_condition(TransformKind.JORDAN_DIFF, 200)
        assert not rep.passed and np.isnan(rep.max_abs_deviation)

    @pytest.mark.parametrize("kind", BUILTIN)
    def test_closed_form_inverse_passes(self, kind):
        for m in (1, 2, 127, 128, 129, 300):
            rep = verify_transform_condition(kind, m)
            assert rep.passed and rep.max_abs_deviation <= 1e-13, (m, rep.detail)


class TestDenseGoogle:
    def test_micro_instance_matrix(self):
        g = parse_edge_list("1 2\n1 3\n2 1\n")
        params = PageRankParams.uniform(3, alpha=0.5)
        p = detect_dangling(build_hyperlink_matrix(g))
        Gt = build_dense_google(g, params, p)
        expected = np.array([[1 / 6, 5 / 12, 5 / 12],
                             [2 / 3, 1 / 6, 1 / 6],
                             [1 / 3, 1 / 3, 1 / 3]])
        assert np.abs(Gt - expected).max() <= 1e-15

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(8):
            _, _, _, _, Gt, _ = dense_setup(rng)
            assert np.abs(Gt.sum(axis=1) - 1.0).max() <= 1e-12

    def test_agrees_with_matrix_free_full_apply(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            g, params, H, p, Gt, _ = dense_setup(rng)
            x = rng.random(g.n)
            x /= x.sum()
            lhs = (x[p.perm] @ Gt)
            rhs = full_operator(H, params)(x)[p.perm]
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_equals_two_array_formula(self):
        # alpha*H.data scattered into one array, bit for bit the matrix of
        # scattering H into Ht and scaling a second array alpha*Ht
        rng = np.random.default_rng(27)
        for _ in range(8):
            g, params, H, p, _, _ = dense_setup(rng)
            v, w = rng.pareto(1.5, g.n) + 1e-3, rng.random(g.n)
            params = PageRankParams(alpha=params.alpha, v=v / v.sum(), w=w / w.sum())
            Ht = np.zeros((g.n, g.n))
            Ht[p.inv_perm[H.rows], p.inv_perm[H.indices]] = H.data
            expected = params.alpha * Ht
            expected[p.k:, :] += params.alpha * params.w[p.perm]
            expected += (1.0 - params.alpha) * params.v[p.perm]
            assert np.array_equal(build_dense_google(g, params, p), expected)

    def test_size_cap_enforced(self):
        g = parse_edge_list("1 2\n1 3\n2 1\n")
        params = PageRankParams.uniform(3)
        p = detect_dangling(build_hyperlink_matrix(g))
        with pytest.raises(ValueError, match="dense"):
            build_dense_google(g, params, p, dense_limit=2)


def lab_setup(g):
    """(Gt, k) of a graph at alpha 0.85 with uniform v and w."""
    p = detect_dangling(build_hyperlink_matrix(g))
    return build_dense_google(g, PageRankParams.uniform(g.n, alpha=0.85), p), p.k


def split_graph(rng, k, m):
    """Random graph whose nodes 0..k-1 link out and whose m others dangle."""
    n = k + m
    edges = {s: {int(t) for t in rng.integers(0, n, int(rng.integers(1, 8)))}
             for s in range(k)}
    return oracles.make_webgraph(n, edges)


def product_calls(tree):
    """Source text of every matrix product and numpy.linalg use in tree."""
    blas = {"dot", "inner", "vdot", "matmul", "tensordot"}
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in blas
            or isinstance(node, ast.Attribute) and node.attr == "linalg"]


class TestSimilarityTransform:
    def test_lumped_block_matches_direct_formula_all_kinds(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            g, params, H, p, Gt, A = dense_setup(rng)
            k, n = p.k, g.n
            direct = build_dense_lumped(A, p, params)
            blocks = []
            for kind in BUILTIN:
                lower, G1 = similarity_transform(Gt, kind, k)
                assert np.abs(G1 - direct).max() <= 1e-12
                assert lower.shape == (n - k, n)
                bottom = lower[1:]
                if bottom.size:
                    assert np.abs(bottom).max() <= 1e-12
                blocks.append(G1)
            # the lumped block is transform-independent
            for other in blocks[1:]:
                assert np.abs(blocks[0] - other).max() <= 1e-12

    def test_matches_explicit_conjugation(self):
        # B Gt B^-1 with B = blockdiag(I, L) formed densely: the returned
        # parts for each built-in L, and the oracle's for those and a
        # generic L
        rng = np.random.default_rng(28)
        for _ in range(4):
            g, params, H, p, Gt, _ = dense_setup(rng)
            k, n = p.k, g.n
            m = n - k
            # a perturbation of norm ~0.5 keeps the generic L well conditioned
            generic = np.eye(m) + rng.standard_normal((m, m)) / (4 * np.sqrt(m))
            cases = [(kind, build_transform(kind, m)) for kind in BUILTIN] + [(None, generic)]
            for kind, L in cases:
                B = np.eye(n)
                B[k:, k:] = L
                expected = B @ Gt @ np.linalg.inv(B)
                parts = [oracles.conjugate(Gt, L, k)]
                if kind is not None:
                    parts.append(similarity_transform(Gt, kind, k))
                for lower, G1 in parts:
                    assert np.abs(lower - expected[k:]).max() <= 1e-12
                    assert np.abs(G1 - expected[:k + 1, :k + 1]).max() <= 1e-12

    @pytest.mark.parametrize("kind", BUILTIN)
    @pytest.mark.parametrize("m", ORACLE_ORDERS)
    def test_closed_forms_match_the_dense_oracle(self, kind, m):
        rng = np.random.default_rng(40 + m)
        for k in (1, 23):
            Gt, _ = lab_setup(split_graph(rng, k, m))
            expected = oracles.conjugate(Gt, build_transform(kind, m), k)
            for got, ref in zip(similarity_transform(Gt, kind, k), expected):
                assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("kind", BUILTIN)
    @pytest.mark.parametrize("text, shape", [
        (generate_edge_list(30, 0.05, 4, seed=1), (30, 29)),  # m = 1
        (generate_edge_list(20, 0.96, 4, seed=7), (8, 1)),    # k = 1
    ])
    def test_edge_splits_match_the_dense_oracle(self, kind, text, shape):
        # the m = 1 and k = 1 graphs that verify is compared on
        g = parse_edge_list(text)
        Gt, k = lab_setup(g)
        assert (g.n, k) == shape
        expected = oracles.conjugate(Gt, build_transform(kind, g.n - k), k)
        for got, ref in zip(similarity_transform(Gt, kind, k), expected):
            assert np.abs(got - ref).max() <= 1e-12

    def test_any_transform_mapping_ones_to_e1_lumps(self):
        # the lumping holds for every invertible L with L e = e1, not only
        # the built-ins: on the dense oracle with L = Q A, A the averaging
        # transform and Q a generic matrix with first column e1
        rng = np.random.default_rng(31)
        for _ in range(4):
            g, params, H, p, Gt, A = dense_setup(rng)
            k, m = p.k, g.n - p.k
            Q = np.eye(m)
            Q[:, 1:] += rng.standard_normal((m, m - 1)) / (4 * np.sqrt(m))
            L = Q @ build_transform(TransformKind.AVERAGING, m)
            assert np.abs(L.sum(axis=1) - np.eye(m)[0]).max() <= 1e-12
            lower, G1 = oracles.conjugate(Gt, L, k)
            assert np.abs(lower[1:]).max(initial=0.0) <= 1e-12
            assert np.abs(G1 - build_dense_lumped(A, p, params)).max() <= 1e-12

    def test_single_dangling_node_degenerate(self):
        g = parse_edge_list("1 2\n1 3\n2 1\n")
        params = PageRankParams.uniform(3, alpha=0.5)
        p = detect_dangling(build_hyperlink_matrix(g))
        Gt = build_dense_google(g, params, p)
        for kind in BUILTIN:
            lower, G1 = similarity_transform(Gt, kind, 2)
            assert np.array_equal(G1, Gt) and np.array_equal(lower, Gt[2:])

    def test_first_column_elimination_closed_form(self):
        # the sparse-elim conjugation has an explicit entrywise form built from
        # the rank-one inverse I + (e - e1) e1^T
        rng = np.random.default_rng(23)
        for _ in range(6):
            g, params, H, p, Gt, _ = dense_setup(rng)
            k, n = p.k, g.n
            m = n - k
            L = build_transform(TransformKind.SPARSE_ELIM, m)
            Linv = np.eye(m)
            Linv[1:, 0] = 1.0
            G11 = Gt[:k, :k]
            G12 = Gt[:k, k:]
            u1 = Gt[k, :k]
            u2 = Gt[k, k:]
            e = np.ones(m)
            expected = np.zeros((n, n))
            expected[:k, :k] = G11
            expected[:k, k:] = G12 @ Linv
            expected[k:, :k] = np.outer(L @ e, u1)
            expected[k:, k:] = np.outer(L @ e, u2 @ Linv)
            # the conjugated rows k.. and the leading (k+1)-block, whose column k
            # is the first column of G12 L^-1
            lower, G1 = similarity_transform(Gt, TransformKind.SPARSE_ELIM, k)
            assert np.abs(lower - expected[k:]).max() <= 1e-12
            assert np.abs(G1 - expected[:k + 1, :k + 1]).max() <= 1e-12

    def test_wrong_transform_order_raises(self):
        # the transform's order is n - k: k = n leaves it 0, k = -1 makes it n + 1
        rng = np.random.default_rng(25)
        g, params, H, p, Gt, _ = dense_setup(rng)
        for k in (g.n, -1):
            with pytest.raises(ValueError, match="order"):
                similarity_transform(Gt, TransformKind.AVERAGING, k)

    def test_guard_flags_products(self):
        tree = ast.parse("a @ b\nnp.dot(a, b)\nx.matmul(y)\nnp.linalg.inv(a)\n"
                         "from numpy import linalg\na * b\nnp.cumsum(a)\n")
        assert product_calls(tree) == ["a @ b", "np.dot(a, b)", "x.matmul(y)", "np.linalg"]

    def test_closed_forms_make_no_product(self):
        # L and L^-1 are row and column operations: neither entry point nor
        # any module function it reaches may form a matrix product or call
        # into numpy.linalg, so no order-(n-k) product can come back
        tree = ast.parse(Path(lumprank.transforms.__file__).read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        todo, reached = ["similarity_transform", "verify_transform_condition"], set()
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [node.id for node in ast.walk(defs[name])
                         if isinstance(node, ast.Name) and node.id in defs]
        assert {"_apply_left", "_apply_right_inverse", "build_transform"} <= reached
        assert [call for name in sorted(reached) for call in product_calls(defs[name])] == []


class TestSpectrumIdentity:
    def test_passes_for_random_graphs_all_kinds(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            g, params, H, p, Gt, _ = dense_setup(rng)
            for kind in BUILTIN:
                _, G1 = similarity_transform(Gt, kind, p.k)
                rep = check_spectrum_identity(Gt, G1, p.k, tol=1e-8, seed=42)
                assert rep.passed, rep.detail
                assert "seed=42" in rep.detail

    def test_all_dangling_two_node_closed_form(self):
        g = oracles.make_webgraph(2, {})
        params = PageRankParams.uniform(2, alpha=0.85)
        p = detect_dangling(build_hyperlink_matrix(g))
        Gt = build_dense_google(g, params, p)
        # rank-one matrix: det(2I - e u^T) = 2^2 * (1 - u^T e / 2) = 2
        assert abs(np.linalg.det(2 * np.eye(2) - Gt) - 2.0) <= 1e-12
        rep = check_spectrum_identity(Gt, np.array([[1.0]]), 0, tol=1e-8)
        assert rep.passed

    def test_corrupted_lumped_block_fails(self):
        rng = np.random.default_rng(27)
        g, params, H, p, Gt, A = dense_setup(rng)
        bad = build_dense_lumped(A, p, params)
        bad[0, 0] += 0.1
        assert not check_spectrum_identity(Gt, bad, p.k, tol=1e-8).passed

    def test_size_mismatch_raises(self):
        rng = np.random.default_rng(28)
        g, params, H, p, Gt, _ = dense_setup(rng)
        with pytest.raises(ValueError, match="inconsistent"):
            check_spectrum_identity(Gt, np.eye(p.k + 2), p.k)


    @pytest.mark.filterwarnings("error")
    def test_agreeing_singular_points_count_as_zero(self):
        # at lambda = 2 both I - G/lambda are exactly singular; elsewhere the
        # determinants agree, so the check passes with no warning
        rep = check_spectrum_identity(np.diag([2.0, 0, 0]), np.diag([2.0, 0]), 1)
        assert rep.passed and rep.max_abs_deviation == 0.0

    @pytest.mark.filterwarnings("error")
    def test_one_singular_side_fails(self):
        rep = check_spectrum_identity(np.diag([2.0, 0, 0]), np.diag([2.5, 0]), 1)
        assert not rep.passed and rep.max_abs_deviation == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["full", "lumped"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_fail(self, side, bad):
        G, G1 = np.full((3, 3), 1 / 3), np.full((2, 2), 0.5)
        (G if side == "full" else G1)[1, 1] = bad
        rep = check_spectrum_identity(G, G1, 1)
        assert not rep.passed and rep.max_abs_deviation == np.inf


class TestLumpable:
    def test_dangling_to_nondangling_block_always_passes(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            g, params, H, p, Gt, _ = dense_setup(rng)
            rep = check_lumpable(Gt, [p.k], tol=1e-10, blocks=[(1, 0)])
            assert rep.passed, rep.detail

    def test_constant_row_sum_blocks_pass(self):
        M = np.array([[0, 0.5, 0.25, 0.25],
                      [0.5, 0, 0.25, 0.25],
                      [1 / 3, 1 / 3, 1 / 6, 1 / 6],
                      [1 / 3, 1 / 3, 1 / 6, 1 / 6]])
        rep = check_lumpable(M, [2], tol=1e-12)
        assert rep.passed
        assert rep.max_abs_deviation <= 1e-15

    def test_broken_block_row_sum_fails(self):
        # move mass across the block boundary in one row: still stochastic,
        # but the (0,1) block's row sums become 0.6 vs 0.5
        M = np.array([[0, 0.4, 0.35, 0.25],
                      [0.5, 0, 0.25, 0.25],
                      [1 / 3, 1 / 3, 1 / 6, 1 / 6],
                      [1 / 3, 1 / 3, 1 / 6, 1 / 6]])
        rep = check_lumpable(M, [2], tol=1e-10)
        assert not rep.passed
        assert abs(rep.max_abs_deviation - 0.1) <= 1e-12

    def test_boundaries_validated(self):
        M = np.eye(2)
        with pytest.raises(ValueError, match="boundaries"):
            check_lumpable(M, [0], tol=1e-10)
        with pytest.raises(ValueError, match="boundaries"):
            check_lumpable(M, [2], tol=1e-10)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="stochastic"):
            check_lumpable(np.eye(3) * 2.0, [1], tol=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0]])
    def test_non_finite_row_rejected(self, row):
        M = np.full((3, 3), 1 / 3)
        M[0] = row
        with pytest.raises(ValueError, match="not row-stochastic"):
            check_lumpable(M, [1], tol=1e-10)


class TestStationaryDense:
    def test_agrees_with_lumped_power_iteration(self):
        rng = np.random.default_rng(30)
        for _ in range(6):
            g, params, H, p, Gt, A = dense_setup(rng)
            sigma_dense = stationary_dense(build_dense_lumped(A, p, params))
            # the lumped vector aggregates the full chain's: [pi1, sum pi2]
            pi_power, _, _, conv = power_method(
                full_operator(H, params), uniform_vector(g.n), 1e-13, 50_000)
            assert conv
            sigma_power = np.append(pi_power[p.perm[:p.k]], pi_power[p.perm[p.k:]].sum())
            assert np.abs(sigma_dense - sigma_power).max() <= 1e-8

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(31)
        g, params, H, p, Gt, _ = dense_setup(rng)
        Gt_before = Gt.copy()
        pi = stationary_dense(Gt)
        assert np.array_equal(Gt, Gt_before)  # only its own copy is factored in place
        pi_oracle = oracles.stationary(Gt)
        assert np.abs(pi - pi_oracle).max() <= 1e-12
        assert np.abs(pi @ Gt - pi).max() <= 1e-12


class TestLuSlogdet:
    """The spectrum check's determinants: numpy's LU log-determinants of
    I - Gt/lam, filled for every sample point into one reused n x n buffer."""

    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    def test_matches_numpy_slogdet(self, n):
        # the buffered full side against slogdet of freshly formed matrices,
        # at the documented sample points, with negative determinants present
        rng = np.random.default_rng(60 + n)
        cases = [rng.standard_normal((n, n)) for _ in range(6)]
        cases += [A[::-1].copy() for A in cases[:3]]  # rows reversed
        cases.append(np.diag(4.0 * np.arange(1, n + 1)))  # det(I - A/lam) < 0 for n = 1
        lams = np.concatenate([[1.5, 2.0, 3.0], np.random.default_rng(0).uniform(1.1, 4.0, 5)])
        signs = set()
        for i, A in enumerate(cases):
            B = cases[(i + 1) % len(cases)] if i % 2 else A + 1e-6 * np.outer(A[0], A[:, 0])
            worst = 0.0
            for lam in lams:
                (s1, l1), (s2, l2) = (np.linalg.slogdet(np.eye(n) - M / lam) for M in (A, B))
                signs.add(s1)
                top = max(l1, l2)
                worst = max(worst, abs(s1 * np.exp(l1 - top) - s2 * np.exp(l2 - top)))
            rep = check_spectrum_identity(A, B, n - 1, tol=1e-8)
            assert abs(rep.max_abs_deviation - worst) <= 1e-12
            assert check_spectrum_identity(A, A, n - 1, tol=0.0).max_abs_deviation == 0.0
        assert -1.0 in signs and 1.0 in signs

    @pytest.mark.parametrize("A", [
        np.zeros((1, 1)),
        np.zeros((3, 3)),
        np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]]),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
    ])
    def test_singular_gives_zero_sign_and_minus_inf(self, A):
        # 2 I - Gt = A exactly, so the full side's determinant at lambda = 2
        # is (0, -inf); the lumped side (the order-n block with k = n - 1) is
        # shifted off that eigenvalue, so the check must fail, without warnings
        n = A.shape[0]
        Gt = 2.0 * np.eye(n) - A
        assert tuple(np.linalg.slogdet(2.0 * np.eye(n) - Gt)) == (0.0, -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_spectrum_identity(Gt, Gt + 0.5 * np.eye(n), n - 1)
        assert not rep.passed
        assert rep.max_abs_deviation >= 1.0


def layouts(M):
    """M as a C-order array, a Fortran-order array and a strided view."""
    big = np.zeros(tuple(2 * d + 3 for d in M.shape))
    view = big[tuple(slice(1, 1 + 2 * d, 2) for d in M.shape)]
    view[...] = M
    return {"C": np.ascontiguousarray(M), "F": np.asfortranarray(M), "view": view}


def reference_product(a, b):
    """a @ b entry by entry through math.fsum: no BLAS call."""
    A, B = np.atleast_2d(a), b.reshape(b.shape[0], -1)
    out = np.array([[math.fsum(row * col) for col in B.T] for row in A])
    return out.reshape(a.shape[:-1] + b.shape[1:])


class TestBlasProduct:
    """Every lab product runs on numpy's BLAS; it must agree with a BLAS-free
    reference on each layout the lab hands it, written into a strided target
    too."""

    @pytest.mark.parametrize("la", ["C", "F", "view"])
    @pytest.mark.parametrize("lb", ["C", "F", "view"])
    @pytest.mark.parametrize("shapes", [((7, 5), (5, 9)), ((7, 5), (5,)), ((5,), (5, 9)),
                                        ((1, 1), (1, 4)), ((6, 1), (1,))])
    def test_matches_numpy_matmul(self, la, lb, shapes):
        rng = np.random.default_rng(70)
        a, b = (rng.standard_normal(shape) for shape in shapes)
        a, b = layouts(a)[la], layouts(b)[lb]
        ref = reference_product(a, b)
        out = layouts(np.zeros(ref.shape))[la]
        for got in (a @ b, np.matmul(a, b, out=out)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_blocks_of_a_permuted_google_matrix(self):
        rng = np.random.default_rng(71)
        g, _, _, p, Gt, _ = dense_setup(rng, n_max=60)
        k = p.k
        x = rng.random(Gt.shape[0])
        for a, b in [(Gt[k:, :k], Gt[:k, k:]), (Gt[:k, k:], Gt[k:]), (x[:k], Gt[:k, k:]),
                     (Gt[:k, k:], x[k:]), (x[k:], Gt[k:, :k])]:
            ref = reference_product(a, b)
            assert np.abs(a @ b - ref).max() <= 1e-13 * np.abs(ref).max()
        # the conjugation's first k columns are L @ Gt[k:, :k], by row operations
        L = build_transform(TransformKind.AVERAGING, g.n - k)
        lower, _ = similarity_transform(Gt, TransformKind.AVERAGING, k)
        ref = reference_product(L, Gt[k:, :k])
        assert np.abs(lower[:, :k] - ref).max() <= 1e-13 * np.abs(ref).max()


def scipy_imports(tree):
    """Source text of every import of scipy or of one of its modules in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(ast.unparse(node))
    return found


class TestOneBlasLibrary:
    """numpy and scipy each load their own OpenBLAS, each with a thread pool
    whose idle workers spin on the cores the other one needs; the lab and the
    CLI import no scipy, so ``verify`` runs on numpy's BLAS alone."""

    def test_guard_flags_scipy_imports(self):
        tree = ast.parse("import scipy\nimport numpy, scipy.linalg as sl\n"
                         "from scipy import linalg\nfrom scipy.linalg import blas\n"
                         "import scipyx\nfrom numpy import linalg\nfrom .scipy import x\n")
        assert len(scipy_imports(tree)) == 4

    @pytest.mark.parametrize("module", ["transforms.py", "decomposition.py", "cli.py"])
    def test_imports_no_scipy(self, module):
        path = Path(lumprank.transforms.__file__).with_name(module)
        assert scipy_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
