import importlib
import inspect
import math

import numpy as np
import pytest

import oracles
from lumprank import (
    EdgeListParseError,
    PageRankParams,
    build_hyperlink_matrix,
    load_weight_vector,
    parse_edge_list,
    probability_vector,
)


def row_as_dict(H, i):
    start, stop = H.indptr[i], H.indptr[i + 1]
    return dict(zip(H.indices[start:stop].tolist(), H.data[start:stop].tolist()))


class TestParseEdgeList:
    def test_renumbers_in_first_appearance_order(self):
        g = parse_edge_list("1 2\n1 3\n2 1")
        assert g.n == 3
        assert g.labels.tolist() == [1, 2, 3]
        assert [oracles.out_edges(g, i) for i in range(g.n)] == [[1, 2], [0], []]

    def test_self_loop_kept(self):
        g = parse_edge_list("7 7")
        assert g.n == 1
        assert oracles.out_edges(g, 0) == [0]

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("1 2\n1 2\n")
        assert g.n == 2
        assert [oracles.out_edges(g, i) for i in range(g.n)] == [[1], []]

    def test_comments_blanks_and_mixed_whitespace_ignored(self):
        g = parse_edge_list("# header\n\n  1\t 2 \n#tail\n")
        assert g.n == 2
        assert oracles.out_edges(g, 0) == [1]

    def test_accepts_utf8_bytes(self):
        g = parse_edge_list(b"4 5\n")
        assert g.labels.tolist() == [4, 5]

    @pytest.mark.parametrize("text,fragment", [
        ("1\n", "line 1"),
        ("1 2 3\n", "line 1"),
        ("1 2\nx y\n", "line 2"),
        ("1 2\n3 4.5\n", "line 2"),
        ("1 -2\n", "negative"),
        ("1 2\n9223372036854775808 1\n", "line 2: node label too large"),
        # labels int() would read: each pair below names two distinct labels
        # that int() maps to one node
        ("1000 1\n1_000 2\n", "line 2: non-integer node label"),
        ("1 2\n\u0661 3\n", "line 2: non-integer node label"),
        ("7 \uff17\n", "line 1: non-integer node label"),
    ])
    def test_malformed_line_reports_line_number(self, text, fragment):
        with pytest.raises(EdgeListParseError, match=fragment):
            parse_edge_list(text)

    @pytest.mark.parametrize("text", [
        "", "   \n", "# only a comment\n\n",
        # bytes take the fast reader's emptiness test
        pytest.param(b"", id="bytes-empty"), pytest.param(b" \t\n", id="bytes-blank-line"),
        pytest.param(b"\t\t", id="bytes-tabs")])
    def test_empty_input_rejected(self, text):
        with pytest.raises(EdgeListParseError, match="empty"):
            parse_edge_list(text)

    def test_label_round_trip(self):
        rng = np.random.default_rng(5)
        labels = rng.choice(10_000, size=60, replace=False)
        text = "\n".join(f"{labels[2 * i]} {labels[2 * i + 1]}" for i in range(30))
        g = parse_edge_list(text)
        index_of = {int(label): i for i, label in enumerate(g.labels)}
        for i in range(g.n):
            assert index_of[int(g.labels[i])] == i
        assert sorted(index_of.values()) == list(range(g.n))

    def test_targets_in_range_and_distinct(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            edges = oracles.random_edge_dict(rng, n, float(rng.uniform(0.0, 0.8)))
            g = parse_edge_list(oracles.edge_text(edges))
            for i in range(g.n):
                out = oracles.out_edges(g, i)
                assert all(0 <= t < g.n for t in out)
                assert len(set(out)) == len(out)


def assert_parses_like_reference(text):
    """parse_edge_list gives the reference's labels and CSR, or its exact error."""
    try:
        labels, targets = oracles.reference_parse(text)
    except EdgeListParseError as exc:
        with pytest.raises(EdgeListParseError) as raised:
            parse_edge_list(text)
        assert str(raised.value) == str(exc)
        return
    g = parse_edge_list(text)
    rows = [targets[i] for i in range(len(labels))]
    assert g.n == len(labels)
    assert g.labels.dtype == np.int64 and g.labels.tolist() == labels
    assert g.indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert g.indices.tolist() == [t for r in rows for t in r]


def edge_pairs(g):
    """[src label, dst label] of each edge of ``g``, in CSR order."""
    labels = g.labels.tolist()
    return [[labels[i], labels[t]] for i in range(g.n) for t in oracles.out_edges(g, i)]


def random_edge_text(rng, plain):
    """Edge-list text with shuffled labels up to 2**63 - 1, duplicate edges,
    self-loops, tabs, padding and blank lines.  Unless ``plain``, it may also
    hold comment lines and CRLF line ends, which the fast reader leaves to
    the checked one."""
    n = int(rng.integers(2, 40))
    labels = rng.choice(np.array([2**63 - 1 - int(x) for x in range(200)]
                                 + list(range(200)), dtype=np.int64), size=n, replace=False)
    comments = ["# comment", "  #\tindented # comment", "#", "# café"]
    pads, seps = ["", " ", "\t", " \t "], [" ", "\t", "  ", " \t"]
    lines = []
    for _ in range(int(rng.integers(1, 80))):
        kind = rng.random()
        if kind < 0.1 and not plain:
            lines.append(str(rng.choice(comments)))
        elif kind < 0.2:
            lines.append(str(rng.choice(pads)))
        else:
            src = int(rng.choice(labels))
            dst = src if rng.random() < 0.1 else int(rng.choice(labels))
            lead, sep, trail = (str(rng.choice(c)) for c in (pads, seps, pads))
            lines.append(f"{lead}{src}{sep}{dst}{trail}")
    if not any(line.strip() and not line.lstrip().startswith("#") for line in lines):
        lines.append(f"{labels[0]} {labels[-1]}")
    eol = "\r\n" if rng.random() < 0.3 and not plain else "\n"
    return eol.join(lines) + (eol if rng.random() < 0.5 else "")


class TestReferenceParity:
    def test_random_edge_lists_take_the_fast_reader_and_match(self):
        from lumprank.graph import _fast_pairs

        rng = np.random.default_rng(20)
        for i in range(400):
            plain = i % 2 == 0
            text = random_edge_text(rng, plain)
            if plain:
                # all but the label 2**63 - 1, which fromstring cannot tell
                # from a clamped larger one
                fast = _fast_pairs(text.encode("ascii"))
                assert (fast is None) == (str(2**63 - 1) in text), text
            assert_parses_like_reference(text)
            assert_parses_like_reference(text.encode("utf-8"))

    @pytest.mark.parametrize("text", [
        # '#' inside a data line
        "1 2 # note\n", "1 2#note\n", "1 #2\n", "1 2\n3 4 #\n",
        # line breaks to str.splitlines() other than \n and \r\n
        *(f"1 2{ch}3 4\n" for ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        *(f"1{ch}2\n" for ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        *(f"# c{ch}1 2\n3 4\n" for ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        # labels only int() reads
        "1_0 2\n", "+1 2\n", "1 +2\n", "\u0661\u0662 3\n", "\uff11 \uff12\n",
        "-0 1\n", "1 -2\n", "1e3 2\n", "0x1 2\n", "1 2.0\n", "1 2.5\n",
        "1000 1\n1_000 2\n", "-1_0 2\n", "1 -\u0661\n", "+\u0661 2\n", "1\u00a0\u0662\n",
        "1 99999999999999999999_9\n",
        # blanks other than space and tab
        "1\u00a02\n", "\u3000 1 2\n", "1\x1f2\n", "\u00a0# c\n1 2\n",
        # the int64 boundary
        "9223372036854775807 1\n", "9223372036854775808 1\n",
        "1 9223372036854775808\n", "1 2\n100000000000000000000000000000 1\n",
        "18446744073709551616 1\n", "09223372036854775807 0\n",
        "000000000000000000000000000007 8\n",
        # not two columns
        "1 2 3\n4 5 6\n", "1\n2\n3\n", "1 2\n3\n", "1\n2 3\n",
        # no edges
        "", "\n", "   \n\t\n", "\r\n", "# only a comment\n", "# a\n  # b\n\n",
        # comment lines holding anything
        "# caf\u00e9 \x00 1 2 3\n1 2\n", "##\n1 2\n#\n",
    ])
    def test_divergent_inputs_match(self, text):
        assert_parses_like_reference(text)
        assert_parses_like_reference(text.encode("utf-8"))

    @pytest.mark.parametrize("raw, pairs", [
        (b"09223372036854775807 0\n", [[2**63 - 1, 0]]),
        (b"1 9223372036854775807", [[1, 2**63 - 1]]),
        # more than 19 digits, below 2**63
        (b"000000000000000000000000000007 8\n", [[7, 8]]),
        (b"00000000009223372036854775807\t3\n\n4 0000000000000000000000\n",
         [[2**63 - 1, 3], [4, 0]]),
    ])
    def test_fast_reader_leaves_labels_at_the_int64_limit_to_the_checked_one(self, raw, pairs):
        # np.fromstring clamps at 2**63 - 1, so that value goes to the checked reader
        from lumprank.graph import _fast_pairs

        fast = _fast_pairs(raw)
        if any(2**63 - 1 in pair for pair in pairs):
            assert fast is None
        else:  # leading zeros alone: fromstring reads the label
            assert fast.tolist() == pairs
        assert edge_pairs(parse_edge_list(raw)) == pairs
        assert_parses_like_reference(raw)

    @pytest.mark.parametrize("text, message", [
        ("1 2\n3", "line 2: expected two node labels, got '3'"),
        ("1 2\n3 4 5\n", "line 2: expected two node labels, got '3 4 5'"),
        # an even count of labels, not two on each line
        ("1 2 3 4\n", "line 1: expected two node labels, got '1 2 3 4'"),
        ("1\n2\n", "line 1: expected two node labels, got '1'"),
        ("5 6\n\n1 2 3\n4\n", "line 3: expected two node labels, got '1 2 3'"),
        ("9223372036854775808 1\n",
         "line 1: node label too large (must be below 2**63) in '9223372036854775808 1'"),
        ("1 2\n3 09223372036854775808\n",
         "line 2: node label too large (must be below 2**63) in '3 09223372036854775808'"),
        ("1 99999999999999999999999\n",
         "line 1: node label too large (must be below 2**63) in '1 99999999999999999999999'"),
    ])
    def test_fast_reader_leaves_bad_lines_to_the_checked_one(self, text, message):
        from lumprank.graph import _fast_pairs

        assert _fast_pairs(text.encode("ascii")) is None
        with pytest.raises(EdgeListParseError) as raised:
            parse_edge_list(text.encode("ascii"))
        assert str(raised.value) == message
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("offset", range(-2, 9))
    def test_fast_reader_across_a_chunk_edge(self, offset):
        # the line "123456 7" starts `offset` bytes before the first chunk
        # edge, so the edge falls before it, on each of its bytes, or after it
        from lumprank.graph import _CHUNK, _fast_pairs

        q, r = divmod(_CHUNK - offset, 4)
        head = "1 2\n" * q + " " * r
        raw = (head + "123456 7\n8 9\n").encode("ascii")
        assert _fast_pairs(raw).tolist() == [[1, 2]] * q + [[123456, 7], [8, 9]]
        # three labels, then one, on the line that meets the edge
        assert _fast_pairs((head + "123456 7 5\n").encode("ascii")) is None
        assert _fast_pairs((head + "123456\n7 8\n").encode("ascii")) is None
        # a label at the int64 limit goes to the checked reader, wherever it falls
        raw = (head + f"{2**63 - 1} 7\n").encode("ascii")
        assert _fast_pairs(raw) is None
        assert edge_pairs(parse_edge_list(raw)) == [[1, 2], [2**63 - 1, 7]]
        assert _fast_pairs((head + f"{2**63} 7\n").encode("ascii")) is None

    @pytest.mark.parametrize("text, fast", [
        ("05 1\n5 2\n", True), ("+5 1\n5 2\n", False), ("-0 1\n0 2\n", False)])
    def test_spellings_of_one_integer_name_one_node(self, text, fast):
        # both readers compare labels as integers
        from lumprank.graph import _fast_pairs

        assert (_fast_pairs(text.encode("ascii")) is not None) == fast
        assert_parses_like_reference(text)
        assert_parses_like_reference(text.encode("utf-8"))
        assert parse_edge_list(text).n == 3


class TestHyperlinkMatrix:
    def test_two_outlinks_share_weight(self):
        H = build_hyperlink_matrix(parse_edge_list("0 1\n0 2\n"))
        assert row_as_dict(H, 0) == {1: 0.5, 2: 0.5}

    def test_dangling_row_is_structurally_empty(self):
        H = build_hyperlink_matrix(parse_edge_list("0 1\n0 2\n"))
        assert H.row_nnz().tolist() == [2, 0, 0]
        assert H.dangling_mask().tolist() == [False, True, True]

    def test_self_loop_row(self):
        H = build_hyperlink_matrix(parse_edge_list("7 7"))
        assert row_as_dict(H, 0) == {0: 1.0}

    def test_rows_sum_to_one_and_values_are_equal_quotients(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            edges = oracles.random_edge_dict(rng, n, float(rng.uniform(0.0, 0.9)))
            H = build_hyperlink_matrix(oracles.make_webgraph(n, edges))
            for i in range(n):
                vals = H.data[H.indptr[i]:H.indptr[i + 1]]
                if vals.size == 0:
                    continue
                assert abs(vals.sum() - 1.0) <= 1e-12
                assert np.all(vals > 0.0)
                # every stored value is the same computed quotient 1/m
                assert np.all(vals == 1.0 / vals.size)

    def test_parse_then_build_is_deterministic(self):
        rng = np.random.default_rng(3)
        edges = oracles.random_edge_dict(rng, 25, 0.4)
        text = oracles.edge_text(edges)
        H1 = build_hyperlink_matrix(parse_edge_list(text))
        H2 = build_hyperlink_matrix(parse_edge_list(text))
        assert np.array_equal(H1.indptr, H2.indptr)
        assert np.array_equal(H1.indices, H2.indices)
        assert np.array_equal(H1.data, H2.data)

    def test_csr_holds_the_same_arrays(self):
        rng = np.random.default_rng(5)
        edges = oracles.random_edge_dict(rng, 25, 0.4)
        H = build_hyperlink_matrix(oracles.make_webgraph(25, edges))
        assert H.csr.shape == (25, 25)
        assert np.array_equal(H.csr.indptr, H.indptr)
        assert np.array_equal(H.csr.indices, H.indices)
        assert np.array_equal(H.csr.data, H.data)

    def test_rmatvec_and_stored_entries_match_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            edges = oracles.random_edge_dict(rng, n, float(rng.uniform(0.0, 0.9)))
            H = build_hyperlink_matrix(oracles.make_webgraph(n, edges))
            Hd = oracles.dense_hyperlink(n, edges)
            assert np.array_equal(oracles.to_dense(H), Hd)
            assert H.rows.tolist() == [i for i in range(n) for _ in sorted(edges.get(i, ()))]
            x = rng.random(n)
            out = H.rmatvec(x)
            assert out.dtype == np.float64 and out.shape == (n,)
            assert np.abs(out - x @ Hd).max() <= 1e-14

    def test_long_column_is_summed_pairwise(self):
        # 20,000 rows link to node 0 and to themselves: bincount's serial
        # chain for bin 0 lands ~37 ulp off the exact sum, numpy's pairwise
        # one within 2; the short bins stay bincount's single products
        m = 20_000
        H = build_hyperlink_matrix(
            oracles.make_webgraph(m + 1, {i: {0, i} for i in range(1, m + 1)}))
        x = 1.0 + np.random.default_rng(6).random(m + 1) * 1e-4
        out = H.rmatvec(x)
        exact = math.fsum(0.5 * x[1:])  # halving is exact, so are the terms
        assert abs(out[0] - exact) <= 2 * np.spacing(exact)
        assert np.array_equal(out[1:], 0.5 * x[1:])

    def test_edgeless_rmatvec_is_float_zeros(self):
        # bincount of no entries returns int64 zeros; the kernel returns floats
        H = build_hyperlink_matrix(oracles.make_webgraph(4, {}))
        out = H.rmatvec(np.full(4, 0.25))
        assert out.dtype == np.float64 and out.tolist() == [0.0] * 4
        assert oracles.to_dense(H).tolist() == [[0.0] * 4] * 4


class TestLoadWeightVector:
    def test_explicit_entries_renormalized(self):
        assert load_weight_vector("2 1 1", 3).tolist() == [0.5, 0.25, 0.25]

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            load_weight_vector("1 -1 1", 3)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3"):
            load_weight_vector("1 2", 3)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^weight vector: sum 0\.0 outside"):
            load_weight_vector("0 0 0", 3)

    # the last: finite entries whose sum overflows, rejected with no numpy warning
    @pytest.mark.parametrize("text", ["1e10 1 1", "1e-12 1e-11 0", "1e308 1e308 1e308"])
    def test_out_of_range_sum_rejected(self, text):
        with pytest.raises(ValueError, match=r"^weight vector: sum \S+ outside"):
            load_weight_vector(text, 3)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            load_weight_vector("1 two 3", 3)

    @pytest.mark.parametrize("text", ["1 0.2_5 3", "1_0 1 1", "1 \u0661 3", "1 \uff12 3",
                                      "0.\u0665 1 1"])
    def test_underscores_and_non_ascii_digits_rejected(self, text):
        # float() reads each of these
        with pytest.raises(ValueError, match="non-numeric"):
            load_weight_vector(text, 3)

    def test_non_ascii_blanks_still_separate(self):
        assert load_weight_vector("2\u00a01\u30001", 3).tolist() == [0.5, 0.25, 0.25]

    def test_zero_entries_allowed(self):
        assert load_weight_vector("0 1 0", 3).tolist() == [0.0, 1.0, 0.0]


class TestParams:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PageRankParams.uniform(3, alpha=alpha)

    def test_tol_and_max_iter_validated(self):
        with pytest.raises(ValueError, match="tol"):
            PageRankParams.uniform(3, tol=0.0)
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                PageRankParams.uniform(3, tol=tol)
        with pytest.raises(ValueError, match="max_iter"):
            PageRankParams.uniform(3, max_iter=0)

    def test_vectors_validated(self):
        with pytest.raises(ValueError, match="negative"):
            PageRankParams(alpha=0.5, v=np.array([1.5, -0.5]), w=np.full(2, 0.5))
        with pytest.raises(ValueError, match=r"^probability vector sums to 1\.1, not 1$"):
            PageRankParams(alpha=0.5, v=np.array([0.5, 0.6]), w=np.full(2, 0.5))
        # finite entries whose sum overflows: the error alone, no numpy warning
        with pytest.raises(ValueError, match=r"^probability vector sums to inf, not 1$"):
            probability_vector([1e308, 1e308, 0.0])
        with pytest.raises(ValueError, match="same length"):
            PageRankParams(alpha=0.5, v=np.full(2, 0.5), w=np.full(4, 0.25))

    def test_probability_vector_accepts_unit_sum(self):
        x = probability_vector([0.25, 0.75])
        assert x.dtype == np.float64
        assert x.tolist() == [0.25, 0.75]


class TestPackageRoot:
    ENGINE = {
        "DanglingPartition", "EdgeListParseError", "HyperlinkMatrix", "PageRankParams",
        "SolveReport", "WebGraph", "bicgstab", "build_hyperlink_matrix", "detect_dangling",
        "full_operator", "load_weight_vector", "parse_edge_list", "permute_blocks",
        "power_method", "probability_vector", "recover_pagerank", "solve_chain",
        "solve_lumped", "uniform_vector", "unpermute",
    }

    def test_exports_exactly_the_engine_names(self):
        import lumprank

        assert len(lumprank.__all__) == len(set(lumprank.__all__)) == 20
        assert set(lumprank.__all__) == self.ENGINE
        assert lumprank.__all__ == [*lumprank.graph.__all__, *lumprank.lumping.__all__]

    @pytest.mark.parametrize("modname", ["lumprank.graph", "lumprank.lumping"])
    def test_module_all_lists_its_own_public_definitions(self, modname):
        # a public class or function added to an engine module without being
        # exported, or an export that is gone, fails here
        mod = importlib.import_module(modname)
        own = {name for name, obj in vars(mod).items()
               if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == modname}
        assert len(mod.__all__) == len(set(mod.__all__))
        assert set(mod.__all__) == own

    def test_each_export_resolves_to_an_engine_module(self):
        import lumprank

        for name in lumprank.__all__:
            obj = getattr(lumprank, name)
            assert obj.__module__ in ("lumprank.graph", "lumprank.lumping"), name
