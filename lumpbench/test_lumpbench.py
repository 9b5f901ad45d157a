"""Tests of the benchmark itself: generator, reference and gates.

    python3 -m pytest lumpbench/test_lumpbench.py -q
"""

import numpy as np
import pytest

import reference
import run
import workloads

TINY = workloads.Spec("rank", n=1000, k=300, max_degree=7, sink_frac=0.3, alpha=0.85,
                      tol=1e-10, max_iter=1000, personalized=True)


def tiny_graph(seed=0):
    rng = np.random.default_rng(seed)
    src, dst, _ = workloads.generate_edges(TINY, rng)
    labels = workloads._distinct_labels(rng, TINY.n)
    v = rng.pareto(1.2, size=TINY.n) + 0.01
    return src, dst, labels, v / v.sum()


def rank_tsv(labels, scores, k):
    """Text in the documented ``rank`` format."""
    printed = np.array([float(f"{s:.12g}") for s in scores])
    order = np.lexsort((labels, -printed))
    rows = [f"{labels[i]}\t{scores[i]:.12g}\t{r}" for r, i in enumerate(order, start=1)]
    head = f"# n={labels.size} k={k} dangling={labels.size - k} alpha=0.85 iters=9 residual=1e-11"
    return "\n".join([head, *rows]) + "\n"


class TestGenerator:
    @pytest.mark.parametrize("name", ["rank-solve", "verify-dense"])
    def test_byte_identical_for_a_fixed_seed(self, tmp_path, name):
        a = workloads.generate(name, 7, tmp_path / "a")
        b = workloads.generate(name, 7, tmp_path / "b")
        c = workloads.generate(name, 8, tmp_path / "c")
        for f in ("graph.txt", "v.txt") if a.v_path else ("graph.txt",):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        assert a.graph_path.read_bytes() != c.graph_path.read_bytes()

    def test_every_node_appears_and_exactly_k_emit(self):
        src, dst, _, _ = tiny_graph()
        assert np.unique(np.concatenate([src, dst])).size == TINY.n
        assert np.array_equal(np.unique(src), np.arange(TINY.k))

    def test_sink_groups_are_closed(self):
        src, dst, _, _ = tiny_graph()
        inside = src < 64  # round(0.3 * 300 / 64) * 64 sink nodes
        assert np.array_equal(src[inside] // workloads.GROUP, dst[inside] // workloads.GROUP)

    def test_cache_replaces_an_entry_on_a_new_seed(self, tmp_path):
        a = workloads.load_or_generate("verify-dense", 1, tmp_path)
        again = workloads.load_or_generate("verify-dense", 1, tmp_path)
        b = workloads.load_or_generate("verify-dense", 2, tmp_path)
        assert np.array_equal(a.src, again.src) and a.meta == again.meta
        assert b.meta["seed"] == 2 and not np.array_equal(a.src, b.src)


class TestReference:
    def test_matches_a_dense_stationary_solve(self):
        src, dst, _, v = tiny_graph()
        n, alpha = TINY.n, TINY.alpha
        H = reference.hyperlink_matrix(src, dst, n).toarray()
        dangling = H.sum(axis=1) == 0
        G = alpha * (H + np.outer(dangling, np.full(n, 1.0 / n))) + (1 - alpha) * v
        A = np.eye(n) - G.T
        A[-1] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
        dense = np.linalg.solve(A, rhs)
        pi = reference.reference_pagerank(src, dst, n, alpha, v)
        assert np.abs(pi - dense).sum() < 1e-12


class TestRankGate:
    @pytest.fixture
    def case(self):
        src, dst, labels, v = tiny_graph()
        pi = reference.reference_pagerank(src, dst, TINY.n, TINY.alpha, v)
        return labels, pi

    def gate(self, text, labels, pi, code=0):
        return reference.check_rank_output(text, code, labels, TINY.k, pi, 1e-9)[0]

    def test_accepts_the_documented_output(self, case):
        labels, pi = case
        assert self.gate(rank_tsv(labels, pi, TINY.k), labels, pi) == []

    def test_rejects_a_corrupted_score(self, case):
        labels, pi = case
        bad = pi.copy()
        bad[np.argmin(bad)] += 1e-6
        assert any("l1 error" in p for p in self.gate(rank_tsv(labels, bad, TINY.k), labels, pi))

    def test_rejects_a_dropped_node(self, case):
        labels, pi = case
        lines = rank_tsv(labels, pi, TINY.k).splitlines()
        assert self.gate("\n".join(lines[:-1]) + "\n", labels, pi)

    def test_rejects_a_substituted_label(self, case):
        labels, pi = case
        text = rank_tsv(labels, pi, TINY.k)
        last = text.splitlines()[-1]
        text = text.replace(last, "1" + last[1:] if last[0] != "1" else "2" + last[1:])
        assert any("label set" in p for p in self.gate(text, labels, pi))

    def test_rejects_rows_out_of_order(self, case):
        labels, pi = case
        lines = rank_tsv(labels, pi, TINY.k).splitlines()
        a, b = lines[1].split("\t"), lines[2].split("\t")
        lines[1], lines[2] = "\t".join([*b[:2], a[2]]), "\t".join([*a[:2], b[2]])
        assert any("order" in p for p in self.gate("\n".join(lines), labels, pi))

    def test_rejects_a_wrong_header_and_exit_code(self, case):
        labels, pi = case
        text = rank_tsv(labels, pi, TINY.k).replace(f"k={TINY.k} ", f"k={TINY.k - 1} ", 1)
        problems = self.gate(text, labels, pi, code=2)
        assert any("header" in p for p in problems) and any("exit code" in p for p in problems)


VERIFY_NAMES = [f"{check}[{kind}]" for kind in ("averaging", "sparse-elim", "jordan-diff")
                for check in ("transform_condition", "block_triangular", "lumped_block_formula")]
VERIFY_NAMES += ["spectrum_identity", "lumpable_dangling_to_nondangling", "ldu_reconstruction",
                 "stochastic_complement_rows", "coupled_stationarity"]
VERIFY_OK = "\n".join(
    ["# n=2000 k=600 dangling=1400 alpha=0.85 seed=1"]
    + [f"PASS {name} max_dev=1.000e-15" for name in VERIFY_NAMES]
    + ["FAIL negative_control[corrupted_lumped_block] max_dev=8.7e-02  (expected FAIL)",
       "FAIL negative_control[perturbed_stationary] max_dev=9.9e-04  (expected FAIL)"]) + "\n"


class TestVerifyGate:
    def test_accepts_the_documented_outcome(self):
        assert reference.check_verify_output(VERIFY_OK, 1, 2000, 600) == []

    def test_rejects_a_flipped_check(self):
        text = VERIFY_OK.replace("PASS spectrum_identity", "FAIL spectrum_identity")
        assert reference.check_verify_output(text, 1, 2000, 600)

    def test_rejects_a_negative_control_that_passes(self):
        text = VERIFY_OK.replace("FAIL negative_control[perturbed", "PASS negative_control[perturbed")
        assert reference.check_verify_output(text, 1, 2000, 600)

    def test_rejects_a_skipped_check_and_exit_0(self):
        text = VERIFY_OK.replace("PASS coupled_stationarity max_dev=1.000e-15",
                                 "SKIP coupled_stationarity  (no reason)")
        assert len(reference.check_verify_output(text, 0, 2000, 600)) >= 2


class TestTraceMetrics:
    def test_a_removed_function_is_a_missing_span(self):
        spans = [[0, "cli.main", 0.0, 3.0, None], [1, "cli.cmd_rank", 0.5, 3.0, 0],
                 [2, "cli._load_graph", 0.5, 1.5, 1]]
        rec = {"spans": spans, "wrapped": ["cli.main", "cli.cmd_rank", "cli._load_graph"]}
        r = run.Run()
        run.Bench.span_metrics(r, rec, "cli")
        assert r.samples["graph.parse_s"] == [1.0]
        # self time of main (0.5 s) and cmd_rank (2.5 s minus a 1 s child)
        assert r.samples["cli.output_s"] == [2.0]
        assert "graph.build_hyperlink_matrix" in r.missing
        assert r.samples["graph.csr_build_s"] == [0.0]
        assert "transforms.similarity_s" not in r.samples  # verify-only stage never ran

    def test_kernel_counts_favour_the_lumped_step(self):
        meta = {"n": 1000, "k": 100, "nnz_H": 5000, "nnz_H11": 400}
        c = run.kernel_counts(meta)
        assert c["lumping.full_apply_bytes"] > c["lumping.apply_bytes"] > 0
        assert c["lumping.full_apply_flops"] == 2 * 5000 + 6 * 1000

