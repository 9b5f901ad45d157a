import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lumprank.cli
import lumprank.decomposition
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
    solve_lumped,
)
from lumprank.cli import generate_edge_list, main
from lumprank.decomposition import (
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
        # on the multi-node cases, --top 2 and n // 2 cut inside a group of
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
        # an unreachable tol exits 2, still printing every row and its bound
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(400, 0.6, 4, seed=9))
        for tol, max_iter, want in (("1e-12", "1000", 0), ("1e-16", "3", 2)):
            code, out, _ = run(capsys, "rank", str(path), "--alpha", "0.99",
                               "--tol", tol, "--max-iter", max_iter)
            assert code == want
            header, *rows = out.splitlines()
            fields = dict(f.split("=") for f in header[2:].split())
            assert int(fields["iters"]) <= int(max_iter)
            assert (float(fields["error_bound"]) <= float(tol)) == (want == 0)
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
        code, out, _ = run(capsys, "compare", cycle_file)
        assert code == 0
        assert float(re.search(r"^l1_diff=(\S+)$", out, re.M).group(1)) <= 1e-8

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
            lines = [l for l in out.splitlines() if not l.startswith("#")]
            controls = [l for l in lines if "negative_control[" in l]
            others = [l for l in lines if "negative_control[" not in l]
            assert [l.split()[:2] for l in controls] == [
                ["FAIL", "negative_control[corrupted_lumped_block]"],
                ["FAIL", "negative_control[perturbed_stationary]"]]
            assert len(others) == 14 and all(l.startswith("PASS ") for l in others)

    def test_each_matrix_is_lu_factored_once(self, capsys, tmp_path, monkeypatch):
        # 28 LU factorizations, one per np.linalg.solve or slogdet call, none
        # of the same matrix, and no np.linalg.inv: the three order-(n-k)
        # transforms L and their inverses are row and column operations,
        # with no factorization; I - G11 for Y and its transpose for
        # Z, and (I - G22)^T for W (3); the stationary system (1); the 8
        # n x n spectrum determinants (8); the 8 (k+1)-order determinants of
        # the lumped block and 8 of its corrupted control (16).  The coupled
        # identities and the negative controls reuse Z and W, with no solve
        # of their own.
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

    def test_dense_limit_exits_3(self, capsys, tri_file):
        code, _, err = run(capsys, "verify", tri_file, "--dense-limit", "2")
        assert code == 3
        assert "dense limit" in err

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
    public lab functions on its own, L*D*U formed as a dense product, and
    the transform rows from the dense oracle, products with each L and
    np.linalg.inv(L).  Returns (status, name, max_dev, note) tuples in
    output order."""
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    n, k = g.n, p.k
    Gt = build_dense_google(g, params, p)
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
    rep = check_spectrum_identity(Gt, G1_direct, k, tol=1e-8, seed=seed)
    emit("spectrum_identity", rep.passed, rep.max_abs_deviation, rep.detail)
    rep = check_lumpable(Gt, [k], tol=1e-10, blocks=[(1, 0)])
    emit("lumpable_dangling_to_nondangling", rep.passed, rep.max_abs_deviation)
    f = ldu_factors(Gt, k)
    dev_ldu = float(np.abs(f.Lfac @ f.Dfac @ f.Ufac - (np.eye(n) - Gt)).max())
    emit("ldu_reconstruction", dev_ldu <= 1e-12 * n, dev_ldu)
    S = stochastic_complement(Gt, k)
    dev_rows = max(float(np.abs(S.sum(axis=1) - 1.0).max()), float(max(-S.min(), 0.0)))
    emit("stochastic_complement_rows", dev_rows <= 1e-10, dev_rows)
    pi_t = stationary_dense(Gt)
    rep = verify_coupled_stationarity(pi_t, Gt, k, tol=1e-8)
    emit("coupled_stationarity", rep.passed, rep.max_abs_deviation, rep.detail)

    bad = G1_direct.copy()
    bad[0, 0] += 0.1
    rep = check_spectrum_identity(Gt, bad, k, tol=1e-8, seed=seed)
    emit("negative_control[corrupted_lumped_block]", rep.passed, rep.max_abs_deviation,
         "expected FAIL")
    bad_pi = pi_t.copy()
    bad_pi[0] += 1e-3
    bad_pi /= bad_pi.sum()
    rep = verify_coupled_stationarity(bad_pi, Gt, k, tol=1e-6)
    emit("negative_control[perturbed_stationary]", rep.passed, rep.max_abs_deviation,
         "expected FAIL")
    return out


SINKS = "0 100\n1 200\n100 101\n101 100\n200 201\n201 202\n202 200\n"


class TestVerifyDifferential:
    """``verify`` shares one split and one set of determinants across its
    checks; its report must match the public functions called one by one."""

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
            rep = verify_transform_condition(kind, m, tol=1e-12)
            status, dev, note = rows[f"transform_condition[{kind.value}]"]
            assert (status, note) == ("PASS" if rep.passed else "FAIL", "")
            assert abs(dev - rep.max_abs_deviation) <= 1e-12

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
                    assert " off: " in note
                else:
                    assert (status, note) == ("PASS", ""), kind

    # the factor blocks, and the blocks of G~ that only one block of the
    # blockwise check compares against
    @pytest.mark.parametrize("block", ["Y", "Z", "D11", "S", "G12", "G21"])
    def test_corrupted_factor_block_fails_ldu(self, capsys, tmp_path, monkeypatch, block):
        split = lumprank.decomposition._block_split

        def corrupted_split(Gt, k):
            s, D11, Y = split(Gt, k)
            parts = dict(D11=D11, Y=Y, Z=s.Z, S=s.S, G12=s.G12, G21=s.G21)
            bad = parts[block].copy()
            bad[-1, :2] += [1e-6, -1e-6]  # row sums kept: S stays stochastic
            parts[block] = bad
            D11, Y = parts.pop("D11"), parts.pop("Y")
            return dataclasses.replace(s, **parts), D11, Y

        monkeypatch.setattr(lumprank.decomposition, "_block_split", corrupted_split)
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        fails = [l.split()[1] for l in out.splitlines() if l.startswith("FAIL")]
        assert "ldu_reconstruction" in fails


    def test_complement_row_defect_is_a_fail_row(self, capsys, tmp_path, monkeypatch):
        # S's rows off 1 must reach the check's own FAIL line, with every
        # other check still printed, and must not abort verify
        path = tmp_path / "g.txt"
        path.write_text(generate_edge_list(60, 0.5, 4, seed=11))
        _, clean, _ = run(capsys, "verify", str(path))
        split = lumprank.decomposition._block_split

        def corrupted_split(Gt, k):
            s, D11, Y = split(Gt, k)
            S = s.S.copy()
            S[-1] *= 1 + 1e-6
            return dataclasses.replace(s, S=S), D11, Y

        monkeypatch.setattr(lumprank.decomposition, "_block_split", corrupted_split)
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

    def test_invalid_fraction_exits_1(self, capsys):
        code, _, err = run(capsys, "gen", "--nodes", "10", "--dangling-frac", "1.5")
        assert code == 1
        assert "fraction" in err

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
