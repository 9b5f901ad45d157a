import ast
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lumprank.cli
import lumprank.decomposition
import lumprank.lumping
import lumprank.transforms
import oracles
from lumprank import (
    PageRankParams,
    SolveReport,
    build_hyperlink_matrix,
    detect_dangling,
    load_weight_vector,
    parse_edge_list,
    permute_blocks,
    solve_chain,
    solve_lumped,
)
from lumprank.cli import generate_edge_list, main
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
    build_transform,
    check_lumpable,
    check_spectrum_identity,
    stationary_dense,
    verify_transform_condition,
)

TRI_TEXT = "1 2\n1 3\n2 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def row_by_row(labels, scores, top=None):
    """The TSV rows of ``rank``, printed one row at a time: Python's sort on
    (printed 12-digit score descending, label ascending), each score
    formatted in its own row."""
    labels, scores = labels.tolist(), scores.tolist()
    printed = [float(f"{s:.12g}") for s in scores]
    order = sorted(range(len(scores)), key=lambda i: (-printed[i], labels[i]))[:top]
    return "".join(f"{labels[i]}\t{scores[i]:.12g}\t{rank}\n"
                   for rank, i in enumerate(order, start=1))


def assert_rows_match(capsys, path, labels, scores, *argv, tops=(None, 0, 1)):
    """``rank`` prints the row-by-row reference rows at every ``--top``,
    n + 5 included."""
    for top in (*tops, labels.size + 5):
        top_argv = [] if top is None else ["--top", str(top)]
        code, out, _ = run(capsys, "rank", str(path), *argv, *top_argv)
        assert code == 0
        header, body = out.split("\n", 1)
        assert header.startswith(f"# n={labels.size} ")
        assert body == row_by_row(labels, scores, top)


def rank_fixed_scores(monkeypatch, path, text, scores):
    """Write the edge list ``text`` to ``path`` and make ``rank`` print
    ``scores`` (in internal node order) in place of solving; returns the
    parsed graph."""
    path.write_text(text)

    def fake_solve(g, params):
        return SolveReport(iterations=1, residual=0.0, error_bound=0.0, converged=True,
                           pagerank=scores, k=g.n, n=g.n, timings={})

    monkeypatch.setattr(lumprank.cli, "solve_lumped", fake_solve)
    return parse_edge_list(text)


LABEL_MAX = 2**63 - 1
_SAME_LABELS = np.random.default_rng(6).permutation(1000)[:30].tolist()
_WIDTH_LABELS = [0, *(10**d + e for d in range(1, 19) for e in (-1, 0)), LABEL_MAX]
# (edge list, scores in internal node order, labels in the expected row order)
FIXED_SCORE_CASES = {
    # the extreme labels share a printed score, 2**63 - 1 with the larger raw one
    "labels_0_and_int64_max_tie": (
        f"{LABEL_MAX} 5\n5 {LABEL_MAX - 1}\n0 {LABEL_MAX - 1}\n",
        [0.25 * (1 + 3e-15), 0.125, 0.25, 0.375], [0, LABEL_MAX - 1, LABEL_MAX, 5]),
    # distinct raw scores, rising with the index, that all print the same
    "every_score_prints_the_same": (
        "".join(f"{a} {b}\n" for a, b in zip(_SAME_LABELS, _SAME_LABELS[1:] + _SAME_LABELS[:1])),
        [(1.0 + i * 1e-15) / 30 for i in range(30)], sorted(_SAME_LABELS)),
    "one_node": ("7 7\n", [1.0], [7]),
    # a cycle through 0 and both sides of every digit-count step up to 2**63 - 1,
    # with distinct scores falling along it
    "digit_count_boundaries": (
        "".join(f"{a} {b}\n"
                for a, b in zip(_WIDTH_LABELS, _WIDTH_LABELS[1:] + _WIDTH_LABELS[:1])),
        [1.0 / (i + 1) for i in range(len(_WIDTH_LABELS))], _WIDTH_LABELS),
}


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRI_TEXT)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("0 1\n1 0\n")
    return str(path)


class TestRank:
    def test_micro_instance_output(self, capsys, tri_file):
        code, out, _ = run(capsys, "rank", tri_file, "--alpha", "0.5", "--tol", "1e-12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# n=3 k=2 dangling=1 alpha=0.5 iters=")
        rows = [line.split("\t") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert rows[0][1] == "0.375"
        assert rows[1][1] == "0.3125" and rows[2][1] == "0.3125"
        assert [r[2] for r in rows] == ["1", "2", "3"]

    def test_exact_ties_break_by_ascending_label(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("9 5\n5 9\n")
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["5", "9"]
        assert rows[0][1] == rows[1][1] == "0.5"
        assert [r[2] for r in rows] == ["1", "2"]

    def test_output_parses_back_and_sums_to_one(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(80, 0.5, 4, seed=3))
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        scores = np.array([float(r[1]) for r in rows])
        assert abs(scores.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(scores) <= 0)  # descending
        assert [int(r[2]) for r in rows] == list(range(1, len(rows) + 1))

    def test_matches_library_solve(self, capsys, tri_file):
        code, out, _ = run(capsys, "rank", tri_file, "--alpha", "0.7")
        g = parse_edge_list(TRI_TEXT)
        rep = solve_lumped(g, PageRankParams.uniform(3, alpha=0.7))
        by_label = {int(r[0]): float(r[1])
                    for r in (line.split("\t") for line in out.strip().splitlines()[1:])}
        for i in range(3):
            assert abs(by_label[int(g.labels[i])] - rep.pagerank[i]) <= 1e-12

    def test_weight_vector_from_file(self, capsys, tmp_path, tri_file):
        vfile = tmp_path / "v.txt"
        vfile.write_text("2 1 1\n")
        code, out, _ = run(capsys, "rank", tri_file, "--alpha", "0.5", "--v", str(vfile))
        assert code == 0
        g = parse_edge_list(TRI_TEXT)
        params = PageRankParams(alpha=0.5, v=np.array([0.5, 0.25, 0.25]),
                                w=np.full(3, 1 / 3))
        rep = solve_lumped(g, params)
        by_label = {int(r[0]): float(r[1])
                    for r in (line.split("\t") for line in out.strip().splitlines()[1:])}
        for i in range(3):
            assert abs(by_label[int(g.labels[i])] - rep.pagerank[i]) <= 1e-12

    def test_uniform_spec_is_the_uniform_vector(self):
        assert lumprank.cli._load_weight("uniform", 4).tolist() == [0.25] * 4

    def test_weight_file_reading_uniform_exits_1(self, capsys, tri_file, tmp_path):
        # the literal `uniform` is a CLI spec, not the text of a vector file
        path = tmp_path / "v.txt"
        path.write_text("uniform\n")
        code, out, err = run(capsys, "rank", tri_file, "--v", str(path))
        assert code == 1 and out == ""
        assert err == "lumprank: error: weight vector: non-numeric entry\n"

    def test_all_zero_weight_file_prints_a_plain_sum(self, capsys, tri_file, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("0 0 0\n")
        code, out, err = run(capsys, "rank", tri_file, "--v", str(path))
        assert code == 1 and out == ""
        assert err == ("lumprank: error: weight vector: sum 0.0 outside [1e-9, 1e9] "
                       "(all-zero or badly scaled)\n")

    def test_overflowing_weight_sum_is_one_message(self, tmp_path):
        # finite entries whose sum overflows: the message alone, and no numpy
        # warning, which -W error would turn into a traceback
        graph, weights = tmp_path / "g.txt", tmp_path / "v.txt"
        graph.write_text("1 2\n2 3\n3 4\n4 1\n")
        weights.write_text("1e308 1e308 1e308 1e308\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "lumprank.cli", "rank", str(graph), "--v", str(weights)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("lumprank: error: weight vector: sum inf outside [1e-9, 1e9] "
                               "(all-zero or badly scaled)\n")

    @pytest.mark.parametrize("command", ["rank", "compare", "verify"])
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_exits_1(self, capsys, tri_file, command, tol):
        # no 1-norm distance between probability vectors exceeds 2, so a
        # run stopped by an infinite tol would be "converged" at any iterate
        code, out, err = run(capsys, command, tri_file, "--tol", tol)
        assert code == 1 and out == ""
        assert err == f"lumprank: error: tol must be positive and finite, got {tol}\n"

    @pytest.mark.parametrize("argv", [
        ("rank", "{graph}", "--alpha", "abc"),
        ("rank",),
        ("rank", "{graph}", "--no-such-flag"),
        ("verify", "{graph}", "--seed", "1.5"),
    ], ids=["bad_alpha_type", "missing_graph", "unknown_flag", "non_integer_seed"])
    def test_usage_error_exits_1(self, capsys, tri_file, argv):
        # argparse's own status is 2, which here means "not converged"
        code, out, err = run(capsys, *(a.format(graph=tri_file) for a in argv))
        assert code == 1 and out == ""
        assert err.startswith("usage: lumprank ") and "error:" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lumprank rank ")

    def test_top_truncates(self, capsys, tri_file):
        code, out, _ = run(capsys, "rank", tri_file, "--top", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + one row

    def test_top_zero_prints_only_the_header(self, capsys, tri_file):
        code, out, _ = run(capsys, "rank", tri_file, "--top", "0")
        assert code == 0
        assert out.startswith("# n=3 ") and out.count("\n") == 1

    def test_negative_top_exits_1(self, capsys, tri_file):
        code, out, err = run(capsys, "rank", tri_file, "--top", "-1")
        assert code == 1
        assert out == ""
        assert "--top" in err

    def test_output_matches_row_by_row_printing(self, capsys, tmp_path):
        # many dangling nodes share a score, so ties are broken by label
        rng = np.random.default_rng(4)
        path = tmp_path / "g.txt"
        text = generate_edge_list(300, 0.7, 2, seed=4)
        labels = rng.permutation(10_000)[:300]
        path.write_text("\n".join(f"{labels[int(a)]} {labels[int(b)]}"
                                  for a, b in (line.split() for line in text.splitlines())))
        g = parse_edge_list(path.read_text())
        rep = solve_lumped(g, PageRankParams.uniform(g.n))
        scores = [row.split("\t")[1] for row in row_by_row(g.labels, rep.pagerank).splitlines()]
        assert len(set(scores)) < len(scores) // 2
        assert_rows_match(capsys, path, g.labels, rep.pagerank, tops=(None, 0, 1, 50))

    def test_scores_equal_when_printed_tie_by_label(self, capsys, monkeypatch, tmp_path):
        # labels fall as the internal index rises, and raw scores fall with
        # the index too: a sort on the raw score would put the larger label
        # first, while ties on the printed value put the smaller one first
        n = 40
        path = tmp_path / "g.txt"
        i = np.arange(n)
        scores = np.where(i % 2 == 0, 0.03, 0.02) * (1.0 + (n - i) * 1e-14)
        g = rank_fixed_scores(
            monkeypatch, path,
            "".join(f"{100 - 2 * i} {99 - 2 * i}\n" for i in range(n // 2)), scores)
        assert g.labels.tolist() == list(range(100, 100 - n, -1))
        assert np.unique(scores).size == n
        # --top 7 cuts inside the 0.03 group, --top 25 inside the 0.02 group
        assert_rows_match(capsys, path, g.labels, scores, tops=(None, 0, 1, 7, 25))
        _, out, _ = run(capsys, "rank", str(path))
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert {r[1] for r in rows} == {"0.03", "0.02"}
        assert [r[0] for r in rows[:3]] == ["62", "64", "66"]

    @pytest.mark.parametrize("case", FIXED_SCORE_CASES)
    def test_fixed_scores_match_row_by_row(self, capsys, monkeypatch, tmp_path, case):
        text, scores, expected = FIXED_SCORE_CASES[case]
        scores = np.array(scores)
        path = tmp_path / "g.txt"
        g = rank_fixed_scores(monkeypatch, path, text, scores)
        assert np.unique(scores).size == g.n
        # on the two tie cases, --top 2 and n // 2 cut inside a group of
        # equal printed scores
        assert_rows_match(capsys, path, g.labels, scores, tops=(None, 0, 1, 2, g.n // 2))
        _, out, _ = run(capsys, "rank", str(path))
        assert [int(line.split("\t")[0]) for line in out.splitlines()[1:]] == expected

    def test_zero_weights_give_exact_zero_scores(self, capsys, tmp_path):
        # a node without in-links whose v and w entries are 0 scores exactly 0
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 2, seed=8))
        g = parse_edge_list(path.read_text())
        linked = np.bincount(g.indices, minlength=g.n) > 0
        weights = tmp_path / "vw.txt"
        weights.write_text(" ".join("1" if x else "0" for x in linked))
        argv = ("--v", str(weights), "--w", str(weights))
        rep = solve_lumped(g, PageRankParams(alpha=0.85, v=linked / linked.sum(),
                                             w=linked / linked.sum()))
        zero = rep.pagerank == 0.0
        assert zero.sum() >= 2 and zero.tolist() == (~linked).tolist()
        assert not np.signbit(rep.pagerank).any()
        assert_rows_match(capsys, path, g.labels, rep.pagerank, *argv)
        _, out, _ = run(capsys, "rank", str(path), *argv)
        zero_rows = [line.split("\t") for line in out.splitlines()[-int(zero.sum()):]]
        assert {r[1] for r in zero_rows} == {"0"}
        assert [int(r[0]) for r in zero_rows] == sorted(g.labels[zero].tolist())

    def test_labels_at_int64_max(self, capsys, tmp_path):
        top = 2**63 - 1
        path = tmp_path / "g.txt"
        path.write_text(f"{top} 0\n0 {top - 1}\n{top - 1} {top}\n{top - 2} {top}\n")
        g = parse_edge_list(path.read_text())
        rep = solve_lumped(g, PageRankParams.uniform(g.n))
        assert_rows_match(capsys, path, g.labels, rep.pagerank)
        _, out, _ = run(capsys, "rank", str(path))
        assert {line.split("\t")[0] for line in out.splitlines()[1:]} == {
            str(top), "0", str(top - 1), str(top - 2)}

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "rank", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error" in err

    def test_parse_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\noops\n")
        code, _, err = run(capsys, "rank", str(path))
        assert code == 1
        assert "line 2" in err

    def test_label_too_large_exits_1(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("9223372036854775808 1\n")
        code, out, err = run(capsys, "rank", str(path))
        assert code == 1
        assert out == ""
        assert "line 1: node label too large" in err
        assert "Traceback" not in err

    def test_invalid_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 2\n# caf\xe9\n3 4\n")
        code, out, err = run(capsys, "rank", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("lumprank: error: ") and "utf-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw, line", [
        (b"1 2\n# caf\xe9\n3 4\n", 2),
        (b"\xff 1\n", 1),
        (b"1 2\r\n\r\n3 4\n4 \x80\n", 4),
        (b"# \xe2\x80\xa8 two lines\n1 2\n\xc3(\n", 4),  # U+2028 breaks a line too
    ])
    def test_invalid_utf8_names_its_line(self, capsys, tmp_path, raw, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(raw)
        code, out, err = run(capsys, "rank", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"lumprank: error: line {line}: byte 0x")
        assert "not valid utf-8" in err and "position" not in err

    def test_invalid_utf8_weight_file_exits_1(self, capsys, tri_file, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"0.5 0.25\n0.2\xe95\n")
        code, out, err = run(capsys, "rank", tri_file, "--v", str(path))
        assert code == 1 and out == ""
        assert err.startswith("lumprank: error: weight vector: ")
        assert "not valid utf-8" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "# caf\u00e9\r\n1 2\r\n2\t3\r\n\r\n  # indented\r\n3 1\r\n",
        "1\u00a02\n\u3000 2 3\n3\u20031\n",
        "# \u2603\n7 8\u20289 7\n8\t9\x85\n",
        "5 6\n\n6 5\n",
    ])
    def test_file_bytes_parse_like_the_reference(self, capsys, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("utf-8"))
        labels, targets = oracles.reference_parse(path.read_bytes())
        g = lumprank.cli._load_graph(str(path))
        assert g.labels.tolist() == labels
        assert [oracles.out_edges(g, i) for i in range(g.n)] == [
            targets[i] for i in range(len(labels))]
        code, out, _ = run(capsys, "rank", str(path))
        assert code == 0
        assert out.startswith(f"# n={len(labels)} ")

    def test_bad_alpha_exits_1(self, capsys, tri_file):
        code, _, err = run(capsys, "rank", tri_file, "--alpha", "1.5")
        assert code == 1
        assert "alpha" in err

    def test_floating_point_error_exits_1(self, capsys, monkeypatch, tri_file):
        def degenerate(g, params):
            raise FloatingPointError("non-finite or degenerate iterate at step 3")

        monkeypatch.setattr("lumprank.cli.solve_lumped", degenerate)
        code, out, err = run(capsys, "rank", tri_file)
        assert code == 1
        assert out == ""
        assert err == "lumprank: error: non-finite or degenerate iterate at step 3\n"
        assert "Traceback" not in err

    def test_non_convergence_exits_2_but_prints(self, capsys, tri_file):
        code, out, _ = run(capsys, "rank", tri_file, "--tol", "1e-16", "--max-iter", "2")
        assert code == 2
        assert len(out.strip().splitlines()) == 4

    def test_header_error_bound_is_honest(self, capsys, tmp_path):
        # alpha 0.99 on a gen graph: a converged run's bound is within tol;
        # an unreachable tol exits 2, still printing every row and its bound.
        # A converged header's bound is the full chain's rule
        # residual/(1-alpha), within the printed digits and the factor 1/s of
        # the recovered sum s, |s - 1| <= residual
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(400, 0.6, 4, seed=9))
        for alpha, tol, max_iter, want in (("0.99", "1e-12", "1000", 0),
                                           ("0.99", "1e-16", "3", 2),
                                           ("0.85", "1e-10", "1000", 0)):
            code, out, _ = run(capsys, "rank", str(path), "--alpha", alpha,
                               "--tol", tol, "--max-iter", max_iter)
            assert code == want
            header, *rows = out.splitlines()
            fields = dict(f.split("=") for f in header[2:].split())
            assert int(fields["iters"]) <= int(max_iter)
            bound = float(fields["error_bound"])
            assert (bound <= float(tol)) == (want == 0)
            if want == 0:
                assert bound == pytest.approx(
                    float(fields["residual"]) / (1 - float(alpha)), rel=1e-5)
            assert len(rows) == int(fields["n"])

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        # `rank FILE | head -n 1`: the TSV is far above a 64 KiB pipe buffer,
        # so the write meets the closed pipe; that is normal shell use, and
        # rank exits as a writer killed by SIGPIPE would, with no message
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(20000, 0.5, 4, seed=3))
        src = Path(__file__).resolve().parents[1] / "src"
        with open(tmp_path / "err.txt", "wb") as err:
            rank = subprocess.Popen([sys.executable, "-m", "lumprank.cli", "rank", str(path)],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env={**os.environ, "PYTHONPATH": str(src)})
            head = subprocess.Popen(["head", "-n", "1"], stdin=rank.stdout,
                                    stdout=subprocess.PIPE)
            rank.stdout.close()  # head holds the only read end
            first = head.communicate(timeout=60)[0]
            code = rank.wait(timeout=60)
        assert first.startswith(b"# n=") and first.count(b"\n") == 1
        assert code == 141
        assert (tmp_path / "err.txt").read_bytes() == b""

    def test_deterministic_output(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=13))
        _, out1, _ = run(capsys, "rank", str(path), "--alpha", "0.9")
        _, out2, _ = run(capsys, "rank", str(path), "--alpha", "0.9")
        assert out1 == out2


BLOCK = lumprank.cli._BLOCK_ROWS


def cycle_text(labels):
    """Edge-list text of one cycle through ``labels``, so that internal node
    i is labels[i]."""
    return "".join(f"{a} {b}\n" for a, b in zip(labels, labels[1:] + labels[:1]))


class TestRankBlocks:
    """rank writes its rows BLOCK at a time; no block edge shows in the output."""

    def test_large_graph_matches_row_by_row_at_block_edges(self, capsys, tmp_path):
        # 70,000 nodes, 63,000 of them dangling with one in-link each, so
        # printed scores tie in long runs; the --top values end a block, or
        # stop one row before or after its edge, and one reaches a third block
        rng = np.random.default_rng(12)
        n, k = 70_000, 7_000
        labels = rng.choice(2**62, size=n, replace=False) * 2 + 1
        src = np.concatenate([rng.integers(0, k, n - k), np.arange(k)])
        dst = np.concatenate([np.arange(k, n), rng.integers(0, n, k)])
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in
                                zip(labels[src].tolist(), labels[dst].tolist())))
        g = parse_edge_list(path.read_bytes())
        assert g.n == n > 2 * BLOCK
        rep = solve_lumped(g, PageRankParams.uniform(g.n))
        rows = row_by_row(g.labels, rep.pagerank).splitlines(keepends=True)
        assert len({row.split("\t")[1] for row in rows}) < n // 2
        for top in (None, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
            code, out, _ = run(capsys, "rank", str(path),
                               *([] if top is None else ["--top", str(top)]))
            assert code == 0
            assert out.split("\n", 1)[1] == "".join(rows[:top]), top

    @pytest.mark.parametrize("case", ["zero_group_across_the_edge",
                                      "largest_label_ends_a_block"])
    def test_extreme_labels_and_zero_scores_straddle_a_block_edge(
            self, capsys, monkeypatch, tmp_path, case):
        # zero_group_across_the_edge: the exact-zero scores are labels 0 and
        # 2**63 - 1, rows BLOCK and BLOCK + 1; largest_label_ends_a_block:
        # 2**63 - 1 has the smallest positive score, row BLOCK, and the zero
        # group 0, 1, 2 starts the next block
        others = list(range(10, 10 + BLOCK - 1))
        if case == "zero_group_across_the_edge":
            labels, zeros = others + [0, LABEL_MAX], {0, LABEL_MAX}
            expected = [(BLOCK, 0), (BLOCK + 1, LABEL_MAX)]
        else:
            labels, zeros = others + [LABEL_MAX, 0, 1, 2], {0, 1, 2}
            expected = [(BLOCK, LABEL_MAX), (BLOCK + 1, 0), (BLOCK + 2, 1)]
        # distinct positive scores that fall with the list position
        scores = np.array([0.0 if x in zeros else 1.0 / (i + 2)
                           for i, x in enumerate(labels)])
        path = tmp_path / "g.txt"
        g = rank_fixed_scores(monkeypatch, path, cycle_text(labels), scores)
        assert g.labels.tolist() == labels
        assert_rows_match(capsys, path, g.labels, scores,
                          tops=(None, BLOCK - 1, BLOCK, BLOCK + 1))
        _, out, _ = run(capsys, "rank", str(path))
        rows = out.splitlines()
        for rank, label in expected:
            score = "0" if label in zeros else f"{scores[labels.index(label)]:.12g}"
            assert rows[rank] == f"{label}\t{score}\t{rank}"

    def test_blocks_bound_the_traced_peak(self):
        # The bounds, in bytes, for n nodes with u distinct scores.  The sort
        # peaks below 96 n: np.unique's own arrays (about 33 n), or the
        # formatting (inverse 8 n, 88 per distinct score for its float,
        # text and cell), or the row key (inverse, label ranks, two key
        # temporaries and order, 40 n, and 40 u for values, groups and
        # cells).  Between blocks the generator holds order, inverse and
        # cells: 16 n + 24 u.  Making a block adds at most 4 byte matrices of
        # BLOCK rows (the rows, their NUL mask, the selected bytes and their
        # text); a row here is at most 19 + 24 + 6 + 3 bytes.  Measured on
        # numpy 2.4 with u = 49,925: a 7.6 MB peak against the 16.4 MB
        # bound (the whole-string writer peaked at 24.7 MB), 4.2 MB held
        # between blocks, and 4.9 MB above that while a block is made.
        n = 100_000
        rng = np.random.default_rng(3)
        labels = rng.choice(2**62, size=n, replace=False) * 2 + 1
        scores = rng.random(n)
        scores[rng.random(n) < 0.5] = 0.25
        scores /= scores.sum()
        u = np.unique(scores).size
        block_bytes = BLOCK * (19 + lumprank.cli._CELL + 6 + 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            blocks = lumprank.cli._ranking_rows(labels, scores, None)
            sizes = [next(blocks).count("\n")]
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sizes += [block.count("\n") for block in blocks]
            later_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [BLOCK] * 3 + [n - 3 * BLOCK]
        assert peak - base <= 96 * n + 4 * block_bytes
        # no block is made before the writer asks for it
        assert held - base <= 16 * n + 24 * u + block_bytes
        assert later_peak - held <= 4 * block_bytes


class TestHeader:
    @pytest.mark.parametrize("command", ["rank", "compare", "verify"])
    @pytest.mark.parametrize("alpha", ["0.85", "0.999999999999"])
    def test_alpha_prints_in_full(self, capsys, tri_file, command, alpha):
        # {alpha:g} printed 0.999999999999 as alpha=1
        _, out, _ = run(capsys, command, tri_file, "--alpha", alpha)
        assert f" alpha={alpha} " in out.splitlines()[0]


class TestCompare:
    def test_reports_small_gap(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=5))
        code, out, _ = run(capsys, "compare", str(path))
        assert code == 0
        gap = float(out.split("l1_diff=")[1].strip())
        assert gap <= 1e-8
        assert "lumped:" in out and "full:" in out and "per_iter=" in out

    def test_no_dangling_notice(self, capsys, cycle_file):
        # the lumped chain's dangling block is empty
        code, out, _ = run(capsys, "compare", cycle_file)
        assert code == 0
        assert float(re.search(r"^l1_diff=(\S+)$", out, re.M).group(1)) <= 1e-8
        code, out, _ = run(capsys, "rank", cycle_file)
        assert code == 0 and " dangling=0 " in out.splitlines()[0]

    def test_lumped_per_iter_is_loop_only(self, capsys, tmp_path, monkeypatch):
        reports = []

        def recording_solve(g, params):
            reports.append(solve_lumped(g, params))
            return reports[-1]

        monkeypatch.setattr(lumprank.cli, "solve_lumped", recording_solve)
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=5))
        code, out, _ = run(capsys, "compare", str(path))
        assert code == 0
        (rep,) = reports
        line = next(l for l in out.splitlines() if l.startswith("lumped:"))
        assert f"per_iter={rep.timings['loop'] / rep.iterations:.3e}s" in line
        # time= stays the whole solve, which contains the loop
        assert float(re.search(r"time=(\S+)s", line).group(1)) >= rep.timings["loop"]


    def test_full_time_includes_hyperlink_build(self, capsys, tmp_path, monkeypatch):
        # the lumped time= covers solve_lumped's hyperlink build, so the full
        # time= covers its own; per_iter= stays the loop alone on both sides
        def slow_build(g):
            time.sleep(0.05)
            return build_hyperlink_matrix(g)

        monkeypatch.setattr(lumprank.cli, "build_hyperlink_matrix", slow_build)
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=5))
        code, out, _ = run(capsys, "compare", str(path))
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("full:"))
        full_time = float(re.search(r"time=(\S+)s", line).group(1))
        per_iter = float(re.search(r"per_iter=(\S+)s", line).group(1))
        iters = int(re.search(r"iters=(\d+)", line).group(1))
        assert full_time >= 0.05
        assert per_iter * iters < full_time - 0.05

    @staticmethod
    def side_lines(out):
        """{side: (iters, error_bound)} of the lumped: and full: lines."""
        found = re.findall(r"^(lumped|full):\s+iters=(\d+) .* error_bound=(\S+)$", out, re.M)
        return {side: (int(iters), float(bound)) for side, iters, bound in found}

    def test_one_side_missing_tol_exits_2(self, capsys, tmp_path):
        # at one tol the lumped side here needs 26 applications, the full
        # side 23; a budget of 25 runs the full solve unchanged to its stop
        # and cuts the lumped one short
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=2))
        code, out, _ = run(capsys, "compare", str(path), "--alpha", "0.99")
        assert code == 0
        (lumped_iters, _), (full_iters, _) = self.side_lines(out).values()
        assert full_iters + 2 < lumped_iters
        budget = str(full_iters + 2)
        code, out, _ = run(capsys, "compare", str(path), "--alpha", "0.99", "--max-iter", budget)
        assert code == 2
        assert len(out.splitlines()) == 4 and "\nl1_diff=" in out
        sides = self.side_lines(out)
        assert sides["full"][0] == full_iters and sides["full"][1] <= 1e-10
        assert sides["lumped"][0] <= full_iters + 2 and sides["lumped"][1] > 1e-10

    def test_both_sides_missing_tol_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=2))
        code, out, _ = run(capsys, "compare", str(path), "--tol", "1e-16", "--max-iter", "3")
        assert code == 2
        assert len(out.splitlines()) == 4 and "\nl1_diff=" in out
        sides = self.side_lines(out)
        assert set(sides) == {"lumped", "full"}
        assert all(iters <= 3 and bound > 1e-16 for iters, bound in sides.values())

    def test_both_sides_run_solve_chain(self, capsys, tmp_path, monkeypatch):
        # one owner of BiCGSTAB's start, stop and bound: the lumped chain
        # (through solve_lumped), then the full H, both at the caller's tol
        calls = []

        def spy(H, v, w, alpha, tol, max_iter):
            calls.append((H, tol))
            return solve_chain(H, v, w, alpha, tol, max_iter)

        monkeypatch.setattr(lumprank.lumping, "solve_chain", spy)
        monkeypatch.setattr(lumprank.cli, "solve_chain", spy)
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(120, 0.6, 4, seed=5))
        code, out, _ = run(capsys, "compare", str(path), "--tol", "1e-9")
        assert code == 0
        H = build_hyperlink_matrix(parse_edge_list(path.read_text()))
        (A, lumped_tol), (full_H, full_tol) = calls
        assert A.n == detect_dangling(H).k + 1 and lumped_tol == 1e-9
        assert full_tol == 1e-9 and full_H.n == H.n
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(full_H, field), getattr(H, field))
        assert not hasattr(lumprank.cli, "bicgstab") and not hasattr(lumprank.cli, "_system")

    @pytest.mark.parametrize("seed", range(6))
    def test_converged_sides_are_within_tol(self, capsys, tmp_path, seed):
        # rank sinks at alpha 0.99 put the second eigenvalue at alpha; both
        # sides stop on an error bound, so each is within tol of the exact
        # ranking and the two are within 2*tol of each other
        edges, v = oracles.sink_case(np.random.default_rng(seed))
        path, v_path = tmp_path / "g.txt", tmp_path / "v.txt"
        path.write_text(oracles.edge_text(edges))
        labels = parse_edge_list(path.read_text()).labels
        v_path.write_text(" ".join(repr(x) for x in v[labels].tolist()))
        for tol in (1e-8, 1e-10, 1e-12):
            code, out, _ = run(capsys, "compare", str(path), "--alpha", "0.99",
                               "--v", str(v_path), "--tol", repr(tol))
            assert code == 0, out
            bounds = [float(b) for b in re.findall(r"error_bound=(\S+)", out)]
            assert len(bounds) == 2 and max(bounds) <= tol, out
            assert float(re.search(r"^l1_diff=(\S+)$", out, re.M).group(1)) <= 2 * tol, out


# the status and name columns of ``verify --negative-control`` on a graph
# with both blocks nonempty, in output order
NEGATIVE_CONTROL_ROWS = [
    ("PASS", "transform_condition[averaging]"),
    ("PASS", "block_triangular[averaging]"),
    ("PASS", "lumped_block_formula[averaging]"),
    ("PASS", "transform_condition[sparse-elim]"),
    ("PASS", "block_triangular[sparse-elim]"),
    ("PASS", "lumped_block_formula[sparse-elim]"),
    ("PASS", "transform_condition[jordan-diff]"),
    ("PASS", "block_triangular[jordan-diff]"),
    ("PASS", "lumped_block_formula[jordan-diff]"),
    ("PASS", "spectrum_identity"),
    ("PASS", "lumpable_dangling_to_nondangling"),
    ("PASS", "ldu_reconstruction"),
    ("PASS", "stochastic_complement_rows"),
    ("PASS", "coupled_stationarity"),
    ("FAIL", "negative_control[corrupted_lumped_block]"),
    ("FAIL", "negative_control[perturbed_stationary]"),
]


class TestVerify:
    def test_all_checks_pass_on_micro_instance(self, capsys, tri_file):
        code, out, _ = run(capsys, "verify", tri_file, "--alpha", "0.5")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert any("degenerate order-1" in l for l in lines)

    def test_all_checks_pass_on_random_graph(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        code, out, _ = run(capsys, "verify", str(path), "--alpha", "0.85", "--seed", "9")
        assert code == 0
        assert "FAIL" not in out
        assert "seed=9" in out

    def test_negative_control_fails(self, capsys, tri_file, tmp_path):
        # both blocks nonempty: every check runs, and only the controls fail
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        for graph in (tri_file, str(path)):
            code, out, _ = run(capsys, "verify", graph, "--negative-control")
            assert code == 1
            header, *lines = out.splitlines()
            assert header.startswith("# n=")
            assert [LINE.match(l).groups()[:2] for l in lines] == NEGATIVE_CONTROL_ROWS

    def test_negative_control_at_the_default_dense_limit(self, capsys, tmp_path):
        # n = 2000 with 1850 dangling nodes: each nondangling node has an
        # out-link and each dangling node an in-link, so the parser keeps all
        # 2000; the spectrum identity's unscaled log-determinants round in
        # proportion to n, and its max_dev must still be at most 1e-10
        rng = np.random.default_rng(4)
        k, n = 150, 2000
        src = np.concatenate([rng.integers(0, k, n - k), np.arange(k),
                              rng.integers(0, k, 2 * k)])
        dst = np.concatenate([np.arange(k, n), rng.integers(0, n, k),
                              rng.integers(0, n, 2 * k)])
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist())))
        code, out, err = run(capsys, "verify", str(path), "--negative-control")
        assert code == 1 and err == ""
        header, *lines = out.splitlines()
        assert header == "# n=2000 k=150 dangling=1850 alpha=0.85 seed=0"
        rows = [LINE.match(l).groups() for l in lines]
        assert [row[:2] for row in rows] == NEGATIVE_CONTROL_ROWS
        devs = {name: dev for _, name, dev, _ in rows}
        assert float(devs["spectrum_identity"]) <= 1e-10

    def test_each_matrix_is_lu_factored_once(self, capsys, tmp_path, monkeypatch):
        # 28 LU factorizations, one per np.linalg.solve or slogdet call, none
        # of the same matrix, and no np.linalg.inv: the three order-(n-k)
        # transforms L and their inverses are row and column operations,
        # with no factorization; I - G11 for Y and its transpose for
        # Z, and (I - G22)^T for the coupled identity (c) (3); the stationary
        # system (1); the 8 n x n spectrum determinants (8); the 8 (k+1)-order
        # determinants of the lumped block and 8 of its corrupted control
        # (16).  The perturbed vector of the negative control shares the
        # coupled solve, with no solve of its own.
        factored = []
        inverted = []

        def recording(fn, calls):
            def record(a, *args, **kwargs):
                a = np.asarray(a)
                calls.append((a.shape, a.tobytes()))
                return fn(a, *args, **kwargs)
            return record

        monkeypatch.setattr(np.linalg, "inv", recording(np.linalg.inv, inverted))
        monkeypatch.setattr(np.linalg, "solve", recording(np.linalg.solve, factored))
        monkeypatch.setattr(np.linalg, "slogdet", recording(np.linalg.slogdet, factored))
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        code, out, _ = run(capsys, "verify", str(path), "--negative-control")
        assert code == 1 and out.count("PASS ") == 14
        assert len(factored) == len(set(factored)) == 3 + 1 + 8 + 2 * 8
        assert inverted == []

    def test_singular_leading_block_keeps_its_rows(self, capsys, tmp_path):
        # a closed 2-cycle at alpha 1 - 1e-12 leaves I - G11 singular to
        # working precision: ldu_reconstruction fails, the checks that need
        # its factors are SKIP rows, and the 11 rows before it still print
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n3 1\n3 4\n")
        code, out, err = run(capsys, "verify", str(path), "--alpha", "0.999999999999",
                             "--negative-control")
        assert code == 1 and err == ""
        header, *lines = out.splitlines()
        assert header == "# n=4 k=3 dangling=1 alpha=0.999999999999 seed=0"
        rows = [LINE.match(line).groups() for line in lines]
        assert [status for status, *_ in rows[:11]] == ["PASS"] * 11
        assert [(status, name) for status, name, _, _ in rows[11:]] == [
            ("FAIL", "ldu_reconstruction"),
            ("SKIP", "stochastic_complement_rows"),
            ("SKIP", "coupled_stationarity"),
            ("FAIL", "negative_control[corrupted_lumped_block]"),
            ("SKIP", "negative_control[perturbed_stationary]")]
        assert rows[11][2:] == ("inf", "I minus the leading block is singular to "
                                       "working precision")
        assert all(dev is None and note for status, _, dev, note in rows if status == "SKIP")

    def test_near_singular_trailing_block_keeps_its_rows(self, capsys, tmp_path):
        # v and w put 1 - 1e-11 of their mass on the two dangling nodes: the
        # trailing row sums stay below the 1 - 1e-12 skip rule, yet
        # I - G22 is singular to working precision, so identity (c) is a
        # skipped part of the coupled note and every row still prints
        path, v_path = tmp_path / "g.txt", tmp_path / "v.txt"
        path.write_text("1 2\n2 1\n1 3\n2 4\n")
        v_path.write_text("5e-12 5e-12 0.499999999995 0.499999999995")
        code, out, err = run(capsys, "verify", str(path), "--v", str(v_path),
                             "--w", str(v_path))
        assert code == 0 and err == ""
        header, *lines = out.splitlines()
        assert header == "# n=4 k=2 dangling=2 alpha=0.85 seed=0"
        rows = [LINE.match(line).groups() for line in lines]
        assert len(rows) == 14 and all(status == "PASS" for status, *_ in rows)
        status, name, dev, note = rows[-1]
        assert name == "coupled_stationarity"
        assert note.endswith("; dangling from nondangling skipped (I minus the trailing "
                             "block is singular to working precision)")

    def test_dense_limit_exits_3(self, capsys, tri_file):
        code, out, err = run(capsys, "verify", tri_file, "--dense-limit", "2")
        assert code == 3
        assert out == ""
        assert err == "lumprank: n=3 exceeds dense limit 2\n"

    def test_dense_limit_equal_to_n_runs(self, capsys, tri_file):
        code, out, err = run(capsys, "verify", tri_file, "--dense-limit", "3")
        assert code == 0 and err == ""
        assert out.startswith("# n=3 k=2 dangling=1 ")

    def test_dense_limit_defaults_to_2000(self):
        cfg = lumprank.cli.build_parser().parse_args(["verify", "g.txt"])
        assert cfg.dense_limit == 2000

    def test_no_dangling_graph_skips_transform_lab(self, capsys, cycle_file):
        code, out, _ = run(capsys, "verify", cycle_file)
        assert code == 0
        assert "SKIP" in out and "FAIL" not in out

    def test_run_checks_skip_rows_hold_the_reason(self):
        g = parse_edge_list("0 1\n1 0\n")
        rows = run_checks(g, PageRankParams.uniform(g.n), negative_control=True)
        assert [status for status, _, _, _ in rows] == ["SKIP"] * 6
        assert all(dev is None and note for _, _, dev, note in rows)

    def test_negative_seed_exits_1(self, capsys, tri_file):
        code, out, err = run(capsys, "verify", tri_file, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed must be at least 0, got -1" in err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_dense_limit_below_1_exits_1(self, capsys, tri_file, limit):
        code, out, err = run(capsys, "verify", tri_file, "--dense-limit", limit)
        assert code == 1
        assert out == ""
        assert f"--dense-limit must be at least 1, got {limit}" in err

    def test_cli_imports_no_private_lab_name(self):
        # the check sequence lives in decomposition.run_checks, not in the CLI
        tree = ast.parse(Path(lumprank.cli.__file__).read_text(encoding="utf-8"))
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[-1] in ("transforms", "decomposition")
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


LINE = re.compile(r"(PASS|FAIL|SKIP) (\S+)(?: max_dev=(\S+))?(?:  \((.*)\))?$")


def public_path_checks(g, params, seed):
    """The checks of ``verify --negative-control``, each made by calling the
    public lab functions on its own, L*D*U formed as a dense product of the
    assembled factors, the complement's row deviation from its matrix, and
    the transform rows from the dense oracle, products with each L and
    np.linalg.inv(L).  Returns (status, name, max_dev, note) tuples in
    output order."""
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    n, k = g.n, p.k
    Gt = build_dense_google(H, p, params)
    out = []

    def emit(name, passed, dev, note=""):
        out.append(("PASS" if passed else "FAIL", name, dev, note))

    G1_direct = build_dense_lumped(permute_blocks(H, p), p, params)
    for kind in TransformKind:
        L = build_transform(kind, n - k)
        dev = oracles.transform_condition(L)
        emit(f"transform_condition[{kind.value}]", dev <= 1e-12, dev)
        lower, G1 = oracles.conjugate(Gt, L, k)
        dev_tri = float(np.abs(lower[1:]).max()) if n - k > 1 else 0.0
        emit(f"block_triangular[{kind.value}]", dev_tri <= 1e-11, dev_tri,
             "degenerate order-1 transform" if n - k == 1 else "")
        dev_g1 = float(np.abs(G1 - G1_direct).max())
        emit(f"lumped_block_formula[{kind.value}]", dev_g1 <= 1e-12, dev_g1)
    [(dev, note)] = check_spectrum_identity(Gt, [G1_direct], k, seed=seed)
    emit("spectrum_identity", dev <= 1e-8, dev, note)
    dev = check_lumpable(Gt, k)
    emit("lumpable_dangling_to_nondangling", dev <= 1e-10, dev)
    Z, S, _ = ldu_factors(Gt, k)
    dev_ldu = oracles.ldu_deviation(Gt, Z, S)
    emit("ldu_reconstruction", dev_ldu <= 1e-12 * n, dev_ldu)
    dev_rows = max(float(np.abs(S.sum(axis=1) - 1.0).max()), float(max(-S.min(), 0.0)))
    assert stochastic_complement(S) == dev_rows
    emit("stochastic_complement_rows", dev_rows <= 1e-10, dev_rows)
    pi_t = stationary_dense(Gt)
    bad_pi = pi_t.copy()
    bad_pi[0] += 1e-3
    bad_pi /= bad_pi.sum()
    # one call for both vectors, as verify makes it: the two rows share one
    # solve, whose rounding differs from a solve for one vector
    pis = np.stack([pi_t, bad_pi])
    (dev, note), (bad_dev, _) = verify_coupled_stationarity(
        pis, Z, S, dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:]))
    emit("coupled_stationarity", dev <= 1e-8, dev, note)

    bad = G1_direct.copy()
    bad[0, 0] += 0.1
    [(bad_spectrum, _)] = check_spectrum_identity(Gt, [bad], k, seed=seed)
    emit("negative_control[corrupted_lumped_block]", bad_spectrum <= 1e-8, bad_spectrum,
         "expected FAIL")
    emit("negative_control[perturbed_stationary]", bad_dev <= 1e-6, bad_dev, "expected FAIL")
    return out


SINKS = "0 100\n1 200\n100 101\n101 100\n200 201\n201 202\n202 200\n"


class TestVerifyDifferential:
    """``verify`` shares one set of block factors and one set of
    determinants across its checks; its report must match the public
    functions called one by one."""

    @pytest.mark.parametrize("text, alpha, seed, on_dangling, shape", [
        (generate_edge_list(30, 0.05, 4, seed=1), 0.85, 0, False, (30, 29)),   # m = 1
        (generate_edge_list(20, 0.96, 4, seed=7), 0.85, 3, False, (8, 1)),     # k = 1
        (generate_edge_list(40, 0.5, 4, seed=2), 0.5, 1, True, None),    # (c) skipped
        (generate_edge_list(50, 0.6, 4, seed=4) + SINKS, 0.99, 2, False, None),
        (generate_edge_list(80, 0.7, 6, seed=8), 0.85, 5, False, None),
    ])
    def test_matches_public_functions(self, capsys, tmp_path, text, alpha, seed,
                                      on_dangling, shape):
        path = tmp_path / "g.txt"
        path.write_text(text)
        g = parse_edge_list(text)
        k = detect_dangling(build_hyperlink_matrix(g)).k
        assert shape is None or (g.n, k) == shape
        argv = ["verify", str(path), "--alpha", str(alpha), "--seed", str(seed),
                "--negative-control"]
        v = np.ones(g.n)
        if on_dangling:  # all teleport and dangling mass on dangling nodes
            v[np.diff(g.indptr) > 0] = 0.0
            v_path = tmp_path / "v.txt"
            v_path.write_text(" ".join(map(str, v)))
            argv += ["--v", str(v_path), "--w", str(v_path)]
        v = load_weight_vector(" ".join(map(str, v)), g.n)
        params = PageRankParams(alpha=alpha, v=v, w=v.copy())

        code, out, _ = run(capsys, *argv)
        assert code == 1
        got = [LINE.match(l).groups() for l in out.splitlines()[1:]]
        expected = public_path_checks(g, params, seed)
        assert [(s, name) for s, name, _, _ in got] == [(s, name) for s, name, _, _ in expected]
        for (_, name, dev, note), (_, _, ref_dev, ref_note) in zip(got, expected):
            # max_dev prints with 4 significant digits
            assert abs(float(dev) - float(f"{ref_dev:.3e}")) <= 1e-12, name
            assert (note or "") == ref_note, name
        if on_dangling:
            assert "dangling from nondangling skipped" in out

        # the lab entry point itself, compared on the unrounded deviations
        rows = run_checks(g, params, seed, negative_control=True)
        assert ([(s, name, note) for s, name, _, note in rows]
                == [(s, name, note) for s, name, _, note in expected])
        for (_, name, dev, _), (_, _, ref_dev, _) in zip(rows, expected):
            assert abs(dev - ref_dev) <= 1e-12, name

    def test_transform_condition_rows_match_the_check_alone(self):
        # run_checks's condition rows equal the check called on its own
        g = parse_edge_list(generate_edge_list(400, 0.7, 4, seed=5))
        m = g.n - detect_dangling(build_hyperlink_matrix(g)).k
        assert m == 197
        rows = {name: (status, dev, note) for status, name, dev, note
                in run_checks(g, PageRankParams.uniform(g.n))}
        for kind in TransformKind:
            alone, _ = verify_transform_condition(kind, m)
            status, dev, note = rows[f"transform_condition[{kind.value}]"]
            assert (status, note) == ("PASS" if alone <= 1e-12 else "FAIL", "")
            assert abs(dev - alone) <= 1e-12

    def test_definition_off_by_1e_9_fails_its_condition_row(self, monkeypatch):
        # one entry of one kind's dense L off by 1e-9: that kind's condition
        # row, and only it, fails, since the closed forms no longer compute it
        g = parse_edge_list(generate_edge_list(60, 0.5, 4, seed=11))
        define = lumprank.transforms.build_transform
        for bad in TransformKind:
            def off(kind, m, bad=bad):
                L = define(kind, m)
                if kind is bad:
                    L[m // 2, m // 3] += 1e-9
                return L

            monkeypatch.setattr(lumprank.transforms, "build_transform", off)
            rows = {name: (status, dev, note) for status, name, dev, note
                    in run_checks(g, PageRankParams.uniform(g.n))}
            for kind in TransformKind:
                status, dev, note = rows[f"transform_condition[{kind.value}]"]
                if kind is bad:
                    assert status == "FAIL" and 0.99e-9 <= dev <= 3e-9, (kind, dev)
                    # the note names the three deviations, the largest one
                    # printed as max_dev
                    named = [float(x) for x in re.findall(r"\|=(\S+?)(?:,|$)", note)]
                    assert len(named) == 3 and max(named) == float(f"{dev:.3e}"), note
                else:
                    assert (status, note) == ("PASS", ""), kind

    # the factor blocks, and the blocks of G~ that only one block of the
    # blockwise check compares against
    @pytest.mark.parametrize("block", ["Y", "Z", "D11", "G12", "G21"])
    def test_corrupted_factor_block_fails_ldu(self, capsys, tmp_path, monkeypatch, block):
        # the reconstruction is computed from the blocks ldu_factors solves
        # with and for: it solves D11 Y = G12 first and D11^T Z^T = G21^T
        # second, and each block is corrupted, as ldu_factors holds it,
        # once its solve is done (G12 and G21 are views of G~)
        call, pick = {"D11": (1, 0), "G12": (1, 1), "Y": (1, 2),
                      "G21": (2, 1), "Z": (2, 2)}[block]
        solve = lumprank.decomposition._solve
        leading = []

        def corrupting(A, B, what):
            X = solve(A, B, what)
            if what == "I minus the leading block":
                leading.append(what)
                if len(leading) == call:
                    bad = (A, B, X)[pick]
                    bad = bad.T if call == 2 else bad
                    bad[-1, :2] += [1e-6, -1e-6]  # row sums kept
            return X

        monkeypatch.setattr(lumprank.decomposition, "_solve", corrupting)
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1 and len(leading) == 2
        fails = [l.split()[1] for l in out.splitlines() if l.startswith("FAIL")]
        assert "ldu_reconstruction" in fails


    def test_complement_row_defect_is_a_fail_row(self, capsys, tmp_path, monkeypatch):
        # S's rows off 1 must reach the check's own FAIL line, with every
        # other check still printed, and must not abort verify
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        _, clean, _ = run(capsys, "verify", str(path))
        ldu = lumprank.decomposition.ldu_factors

        def corrupted_ldu(Gt, k):
            Z, S, dev = ldu(Gt, k)
            S[-1] *= 1 + 1e-6
            return Z, S, dev

        monkeypatch.setattr(lumprank.decomposition, "ldu_factors", corrupted_ldu)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "lumprank: error:" not in err
        rows = [line.split()[:2] for line in out.splitlines()[1:]]
        assert [name for _, name in rows] == [line.split()[1] for line in clean.splitlines()[1:]]
        assert ["FAIL", "stochastic_complement_rows"] in rows


class TestGen:
    def test_deterministic_for_fixed_seed(self, capsys):
        _, out1, _ = run(capsys, "gen", "--nodes", "10", "--dangling-frac", "0.5",
                         "--seed", "7")
        _, out2, _ = run(capsys, "gen", "--nodes", "10", "--dangling-frac", "0.5",
                         "--seed", "7")
        assert out1 == out2 and out1

    def test_all_dangling_emits_nothing(self, capsys):
        code, out, _ = run(capsys, "gen", "--nodes", "10", "--dangling-frac", "1.0")
        assert code == 0
        assert out == ""

    def test_dangling_count_matches_fraction(self, capsys):
        # seed chosen so every node id appears in the emitted edges
        from lumprank import build_hyperlink_matrix, detect_dangling
        code, out, _ = run(capsys, "gen", "--nodes", "100", "--dangling-frac", "0.3",
                           "--seed", "6")
        assert code == 0
        g = parse_edge_list(out)
        p = detect_dangling(build_hyperlink_matrix(g))
        assert g.n - p.k >= 30

    def test_generated_nondangling_have_out_edges(self, capsys):
        code, out, _ = run(capsys, "gen", "--nodes", "50", "--dangling-frac", "0.4",
                           "--seed", "1")
        sources = {line.split()[0] for line in out.strip().splitlines()}
        assert sources == {str(i) for i in range(30)}

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(capsys, "gen", "--nodes", "10", "--dangling-frac", "0.5",
                             "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed must be at least 0, got -1" in err

    @pytest.mark.parametrize("argv, message", [
        (("--nodes", "10", "--dangling-frac", "1.5"),
         "dangling fraction must lie in [0, 1], got 1.5"),
        (("--nodes", "0", "--dangling-frac", "0.5"), "node count must be positive, got 0"),
        (("--nodes", "10", "--dangling-frac", "0.5", "--avg-degree", "0"),
         "average degree must be at least 1, got 0"),
    ], ids=["fraction", "nodes", "avg_degree"])
    def test_invalid_fraction_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 1 and out == ""
        assert err == f"lumprank: error: {message}\n"

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError()  # no message, as the interpreter raises it

        monkeypatch.setattr(lumprank.cli, "generate_edge_list", out_of_memory)
        code, out, err = run(capsys, "gen", "--nodes", "5", "--dangling-frac", "0.5")
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"lumprank: error: \S.*\n", err)
        assert "Traceback" not in err


# Runs in a fresh interpreter: which scipy modules are loaded after each
# step of a session that imports the CLI, runs every command and imports the
# dense lab's names.
SCIPY_PROBE = """
import contextlib, io, json, sys
path = sys.argv[1]
steps = {}

def record(step, code=None):
    steps[step] = {"code": code, "scipy": sorted(
        m for m in sys.modules if m.split(".")[0] == "scipy")}

import lumprank.cli
record("import lumprank.cli")
for argv in (["gen", "--nodes", "50", "--dangling-frac", "0.4"], ["rank", path],
             ["compare", path]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = lumprank.cli.main(argv)
    record(argv[0], code)
from lumprank import *
record("star import", int(callable(solve_lumped) and "build_dense_google" not in globals()))
from lumprank.decomposition import ldu_factors
from lumprank.transforms import build_dense_google
record("lab names", int(callable(build_dense_google) and callable(ldu_factors)))
with contextlib.redirect_stdout(io.StringIO()):
    code = lumprank.cli.main(["verify", path])
record("verify", code)
print(json.dumps(steps))
"""


# modules that numpy.random brings in (secrets loads hashlib, and hashlib
# OpenSSL's _hashlib); verify needs none of them
RANDOM_PROBE = r"""
import contextlib, io, json, sys
import numpy
NAMES = ["numpy.random", "hashlib", "_hashlib", "secrets"]
bare = [m for m in NAMES if m in sys.modules]
from lumprank.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", sys.argv[1], "--negative-control"])
print(json.dumps({"bare": bare, "code": code,
                  "verify": [m for m in NAMES if m in sys.modules]}))
"""


# Runs in a fresh interpreter: a verify over the dense limit exits 3 with the
# lab's modules never imported.
LIMIT_PROBE = """
import contextlib, io, json, sys
from lumprank.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["verify", sys.argv[1], "--dense-limit", "2"])
print(json.dumps({"code": code, "out": out.getvalue(), "lab": sorted(
    m for m in ("lumprank.transforms", "lumprank.decomposition") if m in sys.modules)}))
"""


class TestVerifyModules:
    def test_verify_over_the_limit_loads_no_lab_module(self, tri_file):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", LIMIT_PROBE, tri_file],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert json.loads(proc.stdout) == {"code": 3, "out": "", "lab": []}
        assert proc.stderr == "lumprank: n=3 exceeds dense limit 2\n"

    def test_verify_loads_no_numpy_random_or_hashlib(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", RANDOM_PROBE, str(path)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        probe = json.loads(proc.stdout)
        if probe["bare"]:
            pytest.skip(f"a bare import numpy already loads {probe['bare']} "
                        f"(numpy {np.__version__} imports numpy.random eagerly)")
        assert probe["code"] == 1
        assert probe["verify"] == []


class TestScipyFreePath:
    def test_no_step_loads_scipy(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(path)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        steps = json.loads(proc.stdout)
        # the dense lab runs on numpy alone, so no process loads scipy's BLAS
        for step in ("import lumprank.cli", "gen", "rank", "compare", "star import",
                     "lab names", "verify"):
            assert steps[step]["scipy"] == [], step
        assert [steps[s]["code"] for s in ("gen", "rank", "compare")] == [0, 0, 0]
        # the package root exports the engine alone
        assert steps["star import"]["code"] == 1
        # the lab names resolve from their own modules
        assert steps["lab names"]["code"] == 1
        assert steps["verify"]["code"] == 0
