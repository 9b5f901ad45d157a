"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (visible with pytest -s).  Tolerances are fixed here and nowhere else."""

import gc
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from lumprank import (
    PageRankParams,
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
)
from lumprank.cli import generate_edge_list
from lumprank.decomposition import (
    dangling_from_nondangling,
    ldu_factors,
    run_checks,
    stochastic_complement,
    verify_coupled_stationarity,
)
from lumprank.lumping import _system
from lumprank.transforms import (
    TransformKind,
    build_dense_google,
    build_dense_lumped,
    build_transform,
    check_spectrum_identity,
    similarity_transform,
    verify_transform_condition,
)

BUILTIN = (TransformKind.AVERAGING, TransformKind.SPARSE_ELIM, TransformKind.JORDAN_DIFF)


def report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} failed: {detail}"


def direct_lumped_from_dense(Gt: np.ndarray, k: int) -> np.ndarray:
    """The (k+1)-order lumped matrix read straight off the dense blocks."""
    G1 = np.empty((k + 1, k + 1))
    G1[:k, :k] = Gt[:k, :k]
    G1[:k, k] = Gt[:k, k:].sum(axis=1)
    G1[k, :k] = Gt[k, :k]
    G1[k, k] = Gt[k, k:].sum()
    return G1


@pytest.fixture(scope="module")
def graph_set():
    """20 seeded random graphs with n <= 50 and both node classes nonempty."""
    rng = np.random.default_rng(2024)
    alphas = [0.5, 0.85, 0.99]
    cases = []
    while len(cases) < 20:
        n = int(rng.integers(5, 51))
        frac = float(rng.choice([0.2, 0.5, 0.9]))
        g = oracles.make_webgraph(n, oracles.random_edge_dict(rng, n, frac))
        H = build_hyperlink_matrix(g)
        p = detect_dangling(H)
        if not 1 <= p.k <= n - 1:
            continue
        params = PageRankParams.uniform(n, alpha=alphas[len(cases) % 3])
        cases.append((g, params, H, p))
    return cases


def test_c1_oracle_equivalence_lumped_vs_full():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    fracs = [0.1, 0.5, 0.9]
    alphas = [0.5, 0.85, 0.99]
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(5, 201))
        g = oracles.make_webgraph(n, oracles.random_edge_dict(rng, n, fracs[i % 3]))
        params = PageRankParams.uniform(n, alpha=alphas[(i // 3) % 3],
                                        tol=1e-12, max_iter=30_000)
        rep = solve_lumped(g, params)
        H = build_hyperlink_matrix(g)
        pi_full, _, _, conv = power_method(full_operator(H, params),
                                           uniform_vector(n), 1e-12, 30_000)
        assert rep.converged and conv
        worst = max(worst, float(np.abs(rep.pagerank - pi_full).sum()))
    elapsed = time.perf_counter() - t0
    report("C1", worst <= 1e-8 and elapsed < 30.0,
           f"50 graphs, n in [5,200]: max 1-norm gap {worst:.3e} (<=1e-8), "
           f"runtime {elapsed:.1f}s (<30s)")


def test_c2_transform_family_orders_1_to_50():
    worst_fwd = 0.0
    worst_inv = 0.0
    for kind in BUILTIN:
        for m in range(1, 51):
            L = build_transform(kind, m)
            allowed = {0.0, 1.0, -1.0, -1.0 / m, 1.0 / m, (m - 1.0) / m}
            assert set(np.unique(L).tolist()) <= allowed, (kind, m)
            e1 = np.zeros(m)
            e1[0] = 1.0
            worst_fwd = max(worst_fwd, float(np.abs(L @ np.ones(m) - e1).max()))
            worst_inv = max(worst_inv, float(np.abs(np.linalg.solve(L, e1) - 1.0).max()))
            assert verify_transform_condition(kind, m)[0] <= 1e-12, (kind, m)
    report("C2", worst_fwd <= 1e-15 and worst_inv <= 1e-12,
           f"3 kinds x orders 1..50: map-to-e1 residual {worst_fwd:.2e} (<=1e-15), "
           f"inverse residual {worst_inv:.2e} (<=1e-12)")


def test_c3_block_triangularity_and_lumped_block(graph_set):
    worst_bottom = 0.0
    worst_block = 0.0
    for g, params, H, p in graph_set:
        Gt = build_dense_google(H, p, params)
        k = p.k
        direct = direct_lumped_from_dense(Gt, k)
        for kind in BUILTIN:
            lower, G1 = similarity_transform(Gt, kind, k)
            bottom = lower[1:]
            if bottom.size:
                worst_bottom = max(worst_bottom, float(np.abs(bottom).max()))
            worst_block = max(worst_block, float(np.abs(G1 - direct).max()))
    report("C3", worst_bottom <= 1e-11 and worst_block <= 1e-12,
           f"20 graphs x 3 kinds: bottom-row magnitude {worst_bottom:.2e} (<=1e-11), "
           f"lumped-block formula gap {worst_block:.2e} (<=1e-12)")


def test_c4_spectrum_identity(graph_set):
    worst = 0.0
    all_passed = True
    for idx, (g, params, H, p) in enumerate(graph_set):
        Gt = build_dense_google(H, p, params)
        G1 = direct_lumped_from_dense(Gt, p.k)
        [(dev, _)] = check_spectrum_identity(Gt, [G1], p.k, seed=idx)
        all_passed &= dev <= 1e-8
        worst = max(worst, dev)
    report("C4", all_passed and worst <= 1e-8,
           f"20 graphs, 8 sample points each: worst relative deviation {worst:.2e} (<=1e-8)")


def test_c5_recovery_matches_dense_stationary(graph_set):
    worst_l1 = 0.0
    worst_sum = 0.0
    for g, params, H, p in graph_set:
        sigma = oracles.stationary(build_dense_lumped(permute_blocks(H, p), p, params))
        pi_rec = recover_pagerank(sigma, H, p, params)
        worst_sum = max(worst_sum, abs(float(pi_rec.sum()) - 1.0))
        pi_dense = oracles.stationary(build_dense_google(H, p, params))
        worst_l1 = max(worst_l1, float(np.abs(pi_rec - pi_dense).sum()))
    report("C5", worst_l1 <= 1e-9 and worst_sum <= 1e-12,
           f"recovered ranking vs dense direct solve: 1-norm gap {worst_l1:.2e} (<=1e-9), "
           f"unnormalized sum off by {worst_sum:.2e} (<=1e-12)")


def test_c6_decomposition_identities_and_negative_controls(graph_set):
    worst_ldu = 0.0  # scaled by 1e-12 * n
    worst_rows = 0.0
    worst_coupled = 0.0
    coupled_ok = complement_ok = True
    for g, params, H, p in graph_set:
        Gt = build_dense_google(H, p, params)
        n, k = g.n, p.k
        Z, S, _ = ldu_factors(Gt, k)
        worst_ldu = max(worst_ldu, oracles.ldu_deviation(Gt, Z, S) / (1e-12 * n))
        complement_ok &= stochastic_complement(S) <= 1e-10
        worst_rows = max(worst_rows, float(np.abs(S.sum(axis=1) - 1.0).max()))
        sigma = oracles.stationary(build_dense_lumped(permute_blocks(H, p), p, params))
        pis = recover_pagerank(sigma, H, p, params)[None]
        [(dev, _)] = verify_coupled_stationarity(
            pis, Z, S, dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:]))
        coupled_ok &= dev <= 1e-8
        worst_coupled = max(worst_coupled, dev)

    # negative controls on the first case
    g, params, H, p = graph_set[0]
    Gt = build_dense_google(H, p, params)
    pi_bad = oracles.stationary(Gt)
    pi_bad[0] += 1e-3
    pi_bad /= pi_bad.sum()
    k = p.k
    Z, S, _ = ldu_factors(Gt, k)
    [(dev, _)] = verify_coupled_stationarity(
        pi_bad[None], Z, S, dangling_from_nondangling(pi_bad[None], Gt[:k, k:], Gt[k:, k:]))
    control_coupled = dev > 1e-6
    G1_bad = direct_lumped_from_dense(Gt, p.k)
    G1_bad[0, 0] += 0.1
    control_spectrum = not check_spectrum_identity(Gt, [G1_bad], k)[0][0] <= 1e-8

    ok = (worst_ldu <= 1.0 and worst_rows <= 1e-10 and complement_ok and coupled_ok
          and worst_coupled <= 1e-8 and control_coupled and control_spectrum)
    report("C6", ok,
           f"LDU gap {worst_ldu:.2e}x budget (<=1), complement rows {worst_rows:.2e} "
           f"(<=1e-10), coupled identities {worst_coupled:.2e} (<=1e-8), "
           f"negative controls fail: {control_coupled and control_spectrum}")


def test_c7_worked_micro_instance_both_paths():
    expected = np.array([3 / 8, 5 / 16, 5 / 16])
    g = parse_edge_list("1 2\n1 3\n2 1\n")
    # independent oracle confirms the frozen fractions
    pi_oracle = oracles.stationary(oracles.dense_google(3, oracles.graph_to_dict(g), 0.5))
    assert np.abs(pi_oracle - expected).max() <= 1e-14
    params = PageRankParams.uniform(3, alpha=0.5, tol=1e-13, max_iter=10_000)
    rep = solve_lumped(g, params)
    # the full chain as compare solves it: BiCGSTAB on (I - alpha*P^T) pi = (1-alpha)*v
    H = build_hyperlink_matrix(g)
    pi_full, _, _, bound = solve_chain(H, params.v, params.w, 0.5, 1e-13, 10_000)
    assert rep.converged and bound <= 1e-13
    worst = max(float(np.abs(rep.pagerank - expected).max()),
                float(np.abs(pi_full - expected).max()))
    report("C7", worst <= 1e-10,
           f"3-node instance, both solver paths: max deviation {worst:.2e} "
           f"from (3/8, 5/16, 5/16) (<=1e-10)")


def apply_times(op, x, times):
    """Apply op to x `times` times, as a solve loop does."""
    for _ in range(times):
        op(x)


def test_c8_performance_shape_100k_nodes():
    n = 100_000
    k_target = 10_000  # dangling fraction 0.9
    rng = np.random.default_rng(808)
    edges = {
        src: {int(t) for t in rng.integers(0, n, size=int(rng.integers(1, 16)))}
        for src in range(k_target)  # out-degree uniform on [1, 15]: avg 8
    }
    g = oracles.make_webgraph(n, edges)
    params = PageRankParams.uniform(n, alpha=0.85)
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    assert p.k == k_target
    # the operators of the two linear systems BiCGSTAB solves
    lumped_op = _system(permute_blocks(H, p), p.lump(params.w), params.alpha)
    full_op = _system(H, params.w, params.alpha)
    x_lumped = uniform_vector(p.k + 1)
    x_full = uniform_vector(n)

    def per_iteration_seconds(op, x0, iters=30, reps=3):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            apply_times(op, x0, iters)
            best = min(best, (time.perf_counter() - t0) / iters)
        return best

    t_lumped = per_iteration_seconds(lumped_op, x_lumped)
    t_full = per_iteration_seconds(full_op, x_full)

    # allocation shape: lumped iteration must never touch a length-n array
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    apply_times(lumped_op, x_lumped, 5)
    lumped_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    apply_times(full_op, x_full, 5)
    full_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    budget = int(0.75 * 8 * n)  # well under one float64 array of length n
    ok = (t_lumped < t_full and lumped_peak < budget
          and full_peak > 8 * n  # sanity: the tracer does see n-sized arrays
          and lumped_peak < full_peak)
    report("C8", ok,
           f"per-iteration wall time lumped {t_lumped * 1e3:.3f}ms < full "
           f"{t_full * 1e3:.3f}ms; lumped peak alloc {lumped_peak}B < {budget}B, "
           f"full peak {full_peak}B")


def test_c9_performance_shape_200k_nodes():
    # C8's shape at k = 2e4 (beyond 1e4, where a BLAS level-1 call in the
    # step would go multithreaded), plus an absolute per-step bound
    n = 200_000
    k_target = 20_000  # dangling fraction 0.9
    rng = np.random.default_rng(909)
    edges = {
        src: {int(t) for t in rng.integers(0, n, size=int(rng.integers(1, 16)))}
        for src in range(k_target)  # out-degree uniform on [1, 15]: avg 8
    }
    g = oracles.make_webgraph(n, edges)
    params = PageRankParams.uniform(n, alpha=0.85)
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    assert p.k == k_target
    # the operators of the two linear systems BiCGSTAB solves
    lumped_op = _system(permute_blocks(H, p), p.lump(params.w), params.alpha)
    full_op = _system(H, params.w, params.alpha)
    x_lumped = uniform_vector(p.k + 1)
    x_full = uniform_vector(n)

    def per_iteration_seconds(op, x0, iters=30, reps=3):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            apply_times(op, x0, iters)
            best = min(best, (time.perf_counter() - t0) / iters)
        return best

    t_lumped = per_iteration_seconds(lumped_op, x_lumped)
    t_full = per_iteration_seconds(full_op, x_full)

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    apply_times(lumped_op, x_lumped, 5)
    lumped_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    apply_times(full_op, x_full, 5)
    full_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    budget = int(0.75 * 8 * n)
    ok = (t_lumped < t_full and t_lumped <= 0.5e-3 and lumped_peak < budget
          and full_peak > 8 * n and lumped_peak < full_peak)
    report("C9", ok,
           f"per-iteration wall time lumped {t_lumped * 1e3:.3f}ms (<=0.5ms) < full "
           f"{t_full * 1e3:.3f}ms; lumped peak alloc {lumped_peak}B < {budget}B, "
           f"full peak {full_peak}B")


def check_dense_lab_memory(cid: str, frac: float, n_expected: int, budget: float):
    """run_checks with the negative controls on a 600-node graph: all rows
    as expected, and a tracemalloc peak of at most budget n^2 doubles."""
    g = parse_edge_list(generate_edge_list(600, frac, 4, seed=3))
    n = g.n
    assert n == n_expected
    params = PageRankParams.uniform(n)

    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    rows = run_checks(g, params, seed=0, negative_control=True)
    peak = (tracemalloc.get_traced_memory()[1] - base) / (8 * n * n)
    tracemalloc.stop()

    statuses = [status for status, _, _, _ in rows]
    ok = statuses.count("PASS") == 14 and statuses.count("FAIL") == 2 and peak <= budget
    report(cid, ok,
           f"run_checks at n={n}: peak alloc {peak:.2f} n^2 doubles "
           f"(<={budget}); {statuses.count('PASS')} PASS, {statuses.count('FAIL')} FAIL "
           f"(14 and the 2 negative controls)")


def test_c10_dense_lab_memory_shape():
    # the check sequence of verify keeps G~ and at most a few order-(n-k)
    # blocks at once: it never forms the conjugated n x n matrix, nor an
    # identity or |.| temporary of order n.  tracemalloc sees numpy's arrays,
    # not LAPACK's work copies or OpenBLAS's buffers, so the bound holds on
    # every platform.
    check_dense_lab_memory("C10", 0.7, 477, 3.75)


def test_c10_dense_lab_memory_shape_high_k():
    # 30% dangling: the (k+1)-order lumped block and the order-k blocks of
    # the decomposition checks are the large ones.  The peak is 2.55 n^2;
    # holding the lumped block past the spectrum identity reads 2.96 n^2,
    # and the eight (k+1)-order determinants stacked into one slogdet call
    # 10.2 n^2.
    check_dense_lab_memory("C10", 0.3, 588, 2.8)
