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
)
from .lumping import bicgstab, full_system, solve_lumped

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
    p_ver.add_argument("--dense-limit", type=int, default=None)  # None: the lab's default
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
        return load_weight_vector("uniform", n)
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
    print(f"# n={rep.n} k={rep.k} dangling={rep.n - rep.k} alpha={params.alpha:g} "
          f"iters={rep.iterations} residual={rep.residual:.6e} "
          f"error_bound={rep.error_bound:.6e}")
    sys.stdout.write(_ranking_rows(g.labels, rep.pagerank, cfg.top))
    return EXIT_OK if rep.converged else EXIT_NOT_CONVERGED


def _ranking_rows(labels: np.ndarray, scores: np.ndarray, top: int | None) -> str:
    """The ``label<TAB>score<TAB>rank`` rows of ``rank``, best ``top`` first.

    Rows sort on the printed 12-digit score, descending, so ties mean ties in
    the output, and then on the label, ascending.  The distinct scores are
    formatted by one ``%`` call.  Equal neighbouring strings among them (in
    ascending score order) form one printed group; each row's sort key,
    ``(groups above its own) * n + (its label's position in label order)``,
    is a distinct int64, so one plain ``argsort`` gives the row order.  All
    rows are formatted by one more ``%`` call.
    """
    # np.unique merges -0.0 with 0.0, which print differently; a PageRank
    # vector is nonnegative, and the solver never yields -0.0
    assert not np.signbit(scores).any()
    n = labels.size
    uniq, inverse = np.unique(scores, return_inverse=True)
    text = np.array((("%.12g\n" * uniq.size) % tuple(uniq.tolist())).split("\n")[:-1],
                    dtype=object)
    # rounding is monotone, so the printed groups ascend with uniq
    group = np.zeros(uniq.size, dtype=np.int64)
    np.cumsum(text[1:] != text[:-1], out=group[1:])
    label_rank = np.empty(n, dtype=np.int64)
    label_rank[np.argsort(labels)] = np.arange(n)
    order = np.argsort((group[-1] - group)[inverse] * n + label_rank)[:top]
    m = order.size
    cells = [None] * (3 * m)
    cells[0::3] = labels[order].tolist()
    cells[1::3] = text[inverse[order]].tolist()
    cells[2::3] = range(1, m + 1)
    return ("%d\t%s\t%d\n" * m) % tuple(cells)


def cmd_compare(cfg) -> int:
    g = _load_graph(cfg.graph_path)
    params = _load_params(cfg, g.n)
    t0 = time.perf_counter()
    rep = solve_lumped(g, params)
    lumped_time = time.perf_counter() - t0
    n, k = rep.n, rep.k
    print(f"# n={n} k={k} dangling={n - k} alpha={params.alpha:g} tol={params.tol:g}")

    op = full_system(build_hyperlink_matrix(g), params)
    scale = 1.0 / (1.0 - params.alpha)  # error_bound per unit of ||r||_1, see full_system
    t0 = time.perf_counter()
    pi_full, full_iters, full_res, _ = bicgstab(op, (1.0 - params.alpha) * params.v,
                                                params.v, params.tol / scale,
                                                params.max_iter)
    full_time = time.perf_counter() - t0
    full_bound = scale * full_res

    # both per_iter figures cover the solve loop alone; time= keeps the whole solve
    diff = float(np.abs(rep.pagerank - pi_full).sum())
    print(f"lumped: iters={rep.iterations} time={lumped_time:.6f}s "
          f"per_iter={rep.timings['loop'] / rep.iterations:.3e}s "
          f"error_bound={rep.error_bound:.6e}")
    print(f"full:   iters={full_iters} time={full_time:.6f}s "
          f"per_iter={full_time / full_iters:.3e}s error_bound={full_bound:.6e}")
    print(f"l1_diff={diff:.6e}")
    return EXIT_OK if rep.converged and full_bound <= params.tol else EXIT_NOT_CONVERGED


def cmd_verify(cfg) -> int:
    # the dense lab loads only for the command that uses it
    from .decomposition import run_checks
    from .transforms import DENSE_LIMIT_DEFAULT

    if cfg.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {cfg.seed}")
    dense_limit = DENSE_LIMIT_DEFAULT if cfg.dense_limit is None else cfg.dense_limit
    if dense_limit < 1:
        raise ValueError(f"--dense-limit must be at least 1, got {dense_limit}")
    g = _load_graph(cfg.graph_path)
    if g.n > dense_limit:
        print(f"lumprank: n={g.n} exceeds dense limit {dense_limit}", file=sys.stderr)
        return EXIT_DENSE_LIMIT
    params = _load_params(cfg, g.n)
    k = int(np.count_nonzero(np.diff(g.indptr)))  # nodes with out-links
    print(f"# n={g.n} k={k} dangling={g.n - k} alpha={params.alpha:g} seed={cfg.seed}")
    rows = run_checks(g, params, cfg.seed, cfg.negative_control, dense_limit)
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
    cfg = build_parser().parse_args(argv)
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
