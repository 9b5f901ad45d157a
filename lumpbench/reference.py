"""Independent PageRank reference and the correctness gates.

The reference uses scipy sparse products, never lumprank's solver.  With
G = alpha*(H + d w^T) + (1-alpha) e v^T the stationary row vector satisfies

    pi^T (I - alpha H) = alpha (pi^T d) w^T + (1-alpha) v^T,

so two solves, (I - alpha H^T) x = w and (I - alpha H^T) y = v, give
pi = alpha s x + (1-alpha) y, where the dangling mass
s = pi^T d = (1-alpha) d^T y / (1 - alpha d^T x).

The solves sum the Neumann series x = sum_j (alpha H^T)^j b.  Columns of H^T
sum to at most 1, so the truncation error after t terms is at most
alpha^t / (1-alpha) ||b||_1: the step count is fixed in advance from that
bound, not from a stopping rule like the one under test.  (Sparse LU fills in
badly on random graphs with closed groups, so it is not used.)
"""

from __future__ import annotations

import re

import numpy as np
from scipy import sparse

# a-priori 1-norm truncation error of each solve
_SERIES_ERROR = 1e-14
# the reference itself must be this close to stationary
_REFERENCE_RESIDUAL = 1e-12

VERIFY_CHECKS = 14  # PASS lines of a graph with both blocks nonempty and m > 1
NEGATIVE_CONTROLS = 2


def hyperlink_matrix(src: np.ndarray, dst: np.ndarray, n: int) -> sparse.csr_matrix:
    """Row-normalised link matrix, duplicate edges collapsed."""
    pairs = np.unique(src.astype(np.int64) * n + dst)
    rows, cols = pairs // n, pairs % n
    outdeg = np.bincount(rows, minlength=n)
    return sparse.csr_matrix((1.0 / outdeg[rows], (rows, cols)), shape=(n, n))


def neumann_solve(H: sparse.csr_matrix, alpha: float, B: np.ndarray) -> np.ndarray:
    """Solve (I - alpha H^T) X = B for nonnegative columns of unit 1-norm."""
    steps = int(np.ceil(np.log(_SERIES_ERROR * (1.0 - alpha)) / np.log(alpha)))
    Ht = (alpha * H.T).tocsr()
    X = B.copy()
    for _ in range(steps):
        X = B + Ht @ X
    return X


def reference_pagerank(src, dst, n: int, alpha: float, v: np.ndarray) -> np.ndarray:
    """PageRank with teleport ``v`` and uniform dangling vector."""
    H = hyperlink_matrix(src, dst, n)
    w = np.full(n, 1.0 / n)
    d = np.diff(H.indptr) == 0
    x, y = neumann_solve(H, alpha, np.column_stack([w, v])).T
    s = (1.0 - alpha) * y[d].sum() / (1.0 - alpha * x[d].sum())
    pi = alpha * s * x + (1.0 - alpha) * y
    pi /= pi.sum()
    step = alpha * (H.T @ pi) + alpha * pi[d].sum() * w + (1.0 - alpha) * v
    residual = float(np.abs(step - pi).sum())
    if residual > _REFERENCE_RESIDUAL:
        raise RuntimeError(f"reference not stationary: residual {residual:.3e}")
    return pi


def l1_bound(alpha: float, tol: float) -> float:
    """1-norm error a rank result must stay within.

    A stop on successive differences below ``tol`` leaves an error of up to
    about tol*alpha/(1-alpha); the factor 10 covers the constant.
    """
    return 10.0 * tol / (1.0 - alpha)


def node_index(labels: np.ndarray, out_labels: np.ndarray):
    """Generated node of each output label, or None unless ``out_labels`` is
    a permutation of ``labels``."""
    n = labels.size
    if out_labels.shape != (n,):
        return None
    sorter = np.argsort(labels)
    node = sorter[np.searchsorted(labels, out_labels, sorter=sorter).clip(0, n - 1)]
    if not np.array_equal(labels[node], out_labels) or np.unique(node).size != n:
        return None
    return node


_HEADER = re.compile(r"^# n=(\d+) k=(\d+) ")


def _header_counts(first_line: str):
    m = _HEADER.match(first_line)
    return (int(m.group(1)), int(m.group(2))) if m else None


def check_rank_output(text: str, exit_code: int, labels: np.ndarray, k: int,
                      reference: np.ndarray, bound: float):
    """Gate one ``lumprank rank`` output.  Returns (problems, l1_error).

    ``labels[i]`` and ``reference[i]`` belong to the same generated node.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    head, _, body = text.partition("\n")
    n = labels.size
    if _header_counts(head) != (n, k):
        problems.append(f"header {head[:80]!r} does not state n={n} k={k}")
    tokens = body.split()
    if len(tokens) != 3 * n:
        problems.append(f"{len(tokens) // 3} rows, expected {n}")
        return problems, float("inf")
    try:
        out_labels = np.array(tokens[0::3]).astype(np.int64)
        scores = np.array(tokens[1::3]).astype(np.float64)
        ranks = np.array(tokens[2::3]).astype(np.int64)
    except (ValueError, OverflowError):
        problems.append("a row does not hold label<TAB>score<TAB>rank")
        return problems, float("inf")
    if not np.array_equal(ranks, np.arange(1, n + 1)):
        problems.append("rank column is not 1..n")
    # README order: score descending, ties by ascending label
    dscore = np.diff(scores)
    if np.any(dscore > 0) or np.any((dscore == 0) & (np.diff(out_labels) <= 0)):
        problems.append("rows are not in score-descending, label-ascending order")
    node = node_index(labels, out_labels)
    if node is None:
        problems.append("label set differs from the generated labels")
        return problems, float("inf")
    err = float(np.abs(scores - reference[node]).sum())
    if not err <= bound:
        problems.append(f"l1 error {err:.3e} exceeds {bound:.3e}")
    return problems, err


def check_verify_output(text: str, exit_code: int, n: int, k: int):
    """Gate one ``lumprank verify --negative-control`` output.  Returns problems.

    The documented outcome is exit 1 with every check PASS and every
    negative control FAIL.
    """
    problems = []
    if exit_code != 1:
        problems.append(f"exit code {exit_code}, expected 1")
    lines = text.splitlines()
    if not lines or _header_counts(lines[0]) != (n, k):
        problems.append(f"header does not state n={n} k={k}")
    passed = controls = 0
    for line in lines[1:]:
        status, _, rest = line.partition(" ")
        name = rest.split(" ", 1)[0]
        control = name.startswith("negative_control[")
        if control and status == "FAIL":
            controls += 1
        elif not control and status == "PASS":
            passed += 1
        else:
            problems.append(f"unexpected line {line[:80]!r}")
    if passed != VERIFY_CHECKS:
        problems.append(f"{passed} checks passed, expected {VERIFY_CHECKS}")
    if controls != NEGATIVE_CONTROLS:
        problems.append(f"{controls} negative controls failed, expected {NEGATIVE_CONTROLS}")
    return problems
