"""Command-line front end: rank, compare, verify, and gen subcommands."""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .graph import (
    PageRankParams,
    build_hyperlink_matrix,
    load_weight_vector,
    parse_edge_list,
    uniform_vector,
)
from .lumping import solve_chain, solve_lumped

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_DENSE_LIMIT = 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lumprank",
        description="PageRank that lumps all dangling nodes into one state, "
                    "plus dense verification of the underlying matrix identities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_solver_args(p):
        p.add_argument("graph_path", help="edge-list file ('src dst' per line, '#' comments)")
        p.add_argument("--alpha", type=float, default=0.85, help="damping factor in (0,1)")
        p.add_argument("--v", dest="v_spec", default="uniform", metavar="SPEC",
                       help="personalization vector: 'uniform' or a file of n floats")
        p.add_argument("--w", dest="w_spec", default="uniform", metavar="SPEC",
                       help="dangling-node vector: 'uniform' or a file of n floats")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="1-norm error bound each solve must meet")
        p.add_argument("--max-iter", type=int, default=1000,
                       help="most operator applications per solve, residual checks included")

    p_rank = sub.add_parser("rank", help="rank nodes via the lumped solver (TSV on stdout)")
    add_solver_args(p_rank)
    p_rank.add_argument("--top", type=int, default=None,
                        help="print only the best N rows (N >= 0)")

    p_cmp = sub.add_parser("compare",
                           help="lumped vs full chain, both by BiCGSTAB: timings and 1-norm gap")
    add_solver_args(p_cmp)

    p_ver = sub.add_parser("verify", help="dense identity checks on a small graph")
    add_solver_args(p_ver)
    p_ver.add_argument("--dense-limit", type=int, default=2000,
                       help="largest node count the dense checks accept (default 2000); "
                            "a larger graph exits 3")
    p_ver.add_argument("--seed", type=int, default=0, help="seed for sampled check points")
    p_ver.add_argument("--negative-control", action="store_true",
                       help="also run deliberately corrupted checks (they must FAIL)")

    p_gen = sub.add_parser("gen", help="emit a random edge list on stdout")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--dangling-frac", type=float, required=True,
                       help="fraction of nodes that emit no edges, in [0,1]")
    p_gen.add_argument("--avg-degree", type=int, default=4,
                       help="out-degree is uniform on [1, 2*avg-1]")
    p_gen.add_argument("--seed", type=int, default=0)
    return ap


def _load_graph(path: str):
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


def _load_weight(spec: str, n: int) -> np.ndarray:
    if spec == "uniform":
        return uniform_vector(n)
    with open(spec, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"weight vector: {spec} is not valid utf-8 (byte "
                         f"0x{raw[exc.start]:02x} at offset {exc.start})") from None
    return load_weight_vector(text, n)


def _load_params(cfg, n: int) -> PageRankParams:
    return PageRankParams(
        alpha=cfg.alpha,
        v=_load_weight(cfg.v_spec, n),
        w=_load_weight(cfg.w_spec, n),
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )


def cmd_rank(cfg) -> int:
    if cfg.top is not None and cfg.top < 0:
        raise ValueError(f"--top must be at least 0, got {cfg.top}")
    g = _load_graph(cfg.graph_path)
    params = _load_params(cfg, g.n)
    rep = solve_lumped(g, params)
    print(f"# n={rep.n} k={rep.k} dangling={rep.n - rep.k} alpha={params.alpha!r} "
          f"iters={rep.iterations} residual={rep.residual:.6e} "
          f"error_bound={rep.error_bound:.6e}")
    for block in _ranking_rows(g.labels, rep.pagerank, cfg.top):
        sys.stdout.write(block)
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


# Rows per block of ``rank`` output; each block is written before the next is made.
_BLOCK_ROWS = 32768
# Bytes per score cell: "%.12g" of a nonnegative float takes at most 18
# characters, and 24 keeps a cell three 8-byte words.
_CELL = 24


def _ranking_rows(labels: np.ndarray, scores: np.ndarray, top: int | None):
    """The ``label<TAB>score<TAB>rank`` rows of ``rank``, best ``top`` first,
    yielded as text blocks of at most ``_BLOCK_ROWS`` rows.

    Rows sort on the printed 12-digit score, descending, so ties mean ties in
    the output, and then on the label, ascending.  The distinct scores are
    formatted by one ``%`` call into fixed-width cells.  Equal neighbouring
    cells among them (in ascending score order) form one printed group; each
    row's sort key, ``(groups above its own) * n + (its label's position in
    label order)``, is a distinct int64, so one plain ``argsort`` gives the
    row order.  Each block is assembled as a byte matrix, one row per line,
    with NULs padding every field to its width; one boolean selection drops
    them.
    """
    # np.unique merges -0.0 with 0.0, which print differently; a PageRank
    # vector is nonnegative, and the solver never yields -0.0
    assert not np.signbit(scores).any()
    n = labels.size
    uniq, inverse = np.unique(scores, return_inverse=True)
    formatted = bytearray((f"%-{_CELL}.12g" * uniq.size) % tuple(uniq.tolist()), "ascii")
    cells = np.frombuffer(formatted, np.uint8).reshape(uniq.size, _CELL)
    cells *= cells != ord(" ")  # the padding becomes NULs
    printed = cells.view(f"V{_CELL}").ravel()
    # rounding is monotone, so the printed groups ascend with uniq
    group = np.zeros(uniq.size, dtype=np.int64)
    np.cumsum(printed[1:] != printed[:-1], out=group[1:])
    label_rank = np.empty(n, dtype=np.int64)
    label_rank[np.argsort(labels)] = np.arange(n)
    order = np.argsort((group[-1] - group)[inverse] * n + label_rank)[:top]
    del uniq, group, label_rank  # the blocks read order, inverse and cells alone
    m = order.size
    label_width, rank_width = len(str(labels.max())), len(str(m))
    score_col = label_width + 1
    for lo in range(0, m, _BLOCK_ROWS):
        rows = order[lo:lo + _BLOCK_ROWS]
        block = np.empty((rows.size, label_width + _CELL + rank_width + 3), np.uint8)
        block[:, :label_width] = _decimal_digits(labels[rows], label_width)
        block[:, label_width] = ord("\t")
        block[:, score_col:score_col + _CELL] = np.take(cells, inverse[rows], axis=0)
        block[:, score_col + _CELL] = ord("\t")
        block[:, -rank_width - 1:-1] = _decimal_digits(np.arange(lo + 1, lo + rows.size + 1),
                                                       rank_width)
        block[:, -1] = ord("\n")
        text = block[block != 0].tobytes().decode("ascii")
        del block  # only the text waits for the writer
        yield text


def _decimal_digits(x: np.ndarray, width: int) -> np.ndarray:
    """(x.size, width) uint8 ASCII decimal of nonnegative int64 ``x``,
    right-aligned, with NULs for the leading zeros; ``width`` is at least the
    widest number's digit count.  One digit per pass, units first, into one
    row per digit place; a digit taken from a number already down to 0 is a
    leading zero, except in the units place, so 0 prints as "0".  The result
    is the transposed view of those rows."""
    out = np.empty((width, x.size), np.uint8)
    for j in range(width - 1, -1, -1):
        q = x // 10
        out[j] = x - q * 10
        out[j] += ord("0")  # in uint8, one int64 temporary fewer
        if j < width - 1:
            out[j] *= x > 0
        x = q
    return out.T


def cmd_compare(cfg) -> int:
    g = _load_graph(cfg.graph_path)
    params = _load_params(cfg, g.n)
    t0 = time.perf_counter()
    rep = solve_lumped(g, params)
    lumped_time = time.perf_counter() - t0
    n, k = rep.n, rep.k
    print(f"# n={n} k={k} dangling={n - k} alpha={params.alpha!r} tol={params.tol:g}")

    # both time= figures run from the hyperlink build, both per_iter= cover the loop alone
    t0 = time.perf_counter()
    H = build_hyperlink_matrix(g)
    t_loop = time.perf_counter()
    pi_full, full_iters, _, full_bound = solve_chain(H, params.v, params.w, params.alpha,
                                                     params.tol, params.max_iter)
    t1 = time.perf_counter()
    full_time, full_loop = t1 - t0, t1 - t_loop

    diff = float(np.abs(rep.pagerank - pi_full).sum())
    print(f"lumped: iters={rep.iterations} time={lumped_time:.6f}s "
          f"per_iter={rep.timings['loop'] / rep.iterations:.3e}s "
          f"error_bound={rep.error_bound:.6e}")
    print(f"full:   iters={full_iters} time={full_time:.6f}s "
          f"per_iter={full_loop / full_iters:.3e}s error_bound={full_bound:.6e}")
    print(f"l1_diff={diff:.6e}")
    return EXIT_OK if rep.converged and full_bound <= params.tol else EXIT_NOT_CONVERGED


def cmd_verify(cfg) -> int:
    if cfg.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {cfg.seed}")
    if cfg.dense_limit < 1:
        raise ValueError(f"--dense-limit must be at least 1, got {cfg.dense_limit}")
    g = _load_graph(cfg.graph_path)
    if g.n > cfg.dense_limit:
        print(f"lumprank: n={g.n} exceeds dense limit {cfg.dense_limit}", file=sys.stderr)
        return EXIT_DENSE_LIMIT
    # the dense lab loads only for a graph within the limit
    from .decomposition import run_checks

    params = _load_params(cfg, g.n)
    k = int(np.count_nonzero(np.diff(g.indptr)))  # nodes with out-links
    print(f"# n={g.n} k={k} dangling={g.n - k} alpha={params.alpha!r} seed={cfg.seed}")
    rows = run_checks(g, params, cfg.seed, cfg.negative_control)
    for status, name, dev, note in rows:
        dev_text = "" if dev is None else f" max_dev={dev:.3e}"
        print(f"{status} {name}{dev_text}" + (f"  ({note})" if note else ""))
    return EXIT_OK if all(row[0] != "FAIL" for row in rows) else 1


def generate_edge_list(nodes: int, dangling_frac: float, avg_degree: int,
                       seed: int) -> str:
    """Random edge-list text; the first ceil((1-frac)*nodes) ids emit edges.

    Each emitting node draws its out-degree uniformly from [1, 2*avg_degree-1]
    and its targets uniformly over all node ids.  Deterministic per seed.
    """
    if nodes < 1:
        raise ValueError(f"node count must be positive, got {nodes}")
    if not 0.0 <= dangling_frac <= 1.0:
        raise ValueError(f"dangling fraction must lie in [0, 1], got {dangling_frac}")
    if avg_degree < 1:
        raise ValueError(f"average degree must be at least 1, got {avg_degree}")
    rng = np.random.default_rng(seed)
    nondangling = math.ceil((1.0 - dangling_frac) * nodes)
    lines = []
    for src in range(nondangling):
        degree = int(rng.integers(1, 2 * avg_degree))
        for dst in rng.integers(0, nodes, size=degree):
            lines.append(f"{src} {dst}")
    return "\n".join(lines) + ("\n" if lines else "")


def cmd_gen(cfg) -> int:
    if cfg.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {cfg.seed}")
    sys.stdout.write(generate_edge_list(cfg.nodes, cfg.dangling_frac,
                                        cfg.avg_degree, cfg.seed))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        cfg = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means "not converged" here
        if exc.code != 2:
            raise
        return EXIT_INPUT_ERROR
    handlers = {"rank": cmd_rank, "compare": cmd_compare,
                "verify": cmd_verify, "gen": cmd_gen}
    try:
        return handlers[cfg.command](cfg)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`), which is no input error;
        # stdout goes to /dev/null so the exit-time flush stays silent, and
        # the status is 128 + SIGPIPE, as a shell reports a writer it killed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        # MemoryError() raised by the interpreter carries no message
        print(f"lumprank: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
