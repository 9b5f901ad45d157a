"""Independent dense oracles for the tests.

Matrices are assembled entry by entry from raw out-edge dicts, and stationary
vectors come from one dense direct solve.  Nothing here touches the package's
sparse machinery, so these values stay valid as a check on it.
"""

import math
import re

import numpy as np


def dense_hyperlink(n, edges):
    """Dense row-normalized link matrix from a raw out-edge dict."""
    H = np.zeros((n, n))
    for i, targets in edges.items():
        ts = sorted(set(targets))
        for j in ts:
            H[i, j] = 1.0 / len(ts)
    return H


def dense_google(n, edges, alpha, v=None, w=None):
    """G = alpha*(H + d w^T) + (1-alpha) e v^T from a raw out-edge dict."""
    H = dense_hyperlink(n, edges)
    v = np.full(n, 1.0 / n) if v is None else np.asarray(v, dtype=float)
    w = np.full(n, 1.0 / n) if w is None else np.asarray(w, dtype=float)
    d = np.array([0.0 if edges.get(i) else 1.0 for i in range(n)])
    e = np.ones(n)
    return alpha * (H + np.outer(d, w)) + (1.0 - alpha) * np.outer(e, v)


def stationary(M):
    """Stationary row vector of a stochastic matrix: one redundant balance
    equation replaced by the normalization, then a direct solve."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    A = np.eye(n) - M.T
    A[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return np.linalg.solve(A, rhs)


def conjugate(Gt, L, k):
    """The parts of blockdiag(I, L) Gt blockdiag(I, L)^-1 that the lab's
    similarity form returns, for any invertible L of order n - k, by dense
    products with L and np.linalg.inv(L): the conjugated rows k..n-1,
    [L G21 | L G22 L^-1], and the leading (k+1)-block, whose first k rows
    are [G11 | G12 L^-1 e1] and whose last row is the first row of the
    conjugated rows."""
    Linv = np.linalg.inv(L)
    lower = L @ Gt[k:]
    lower[:, k:] = lower[:, k:] @ Linv
    G1 = np.empty((k + 1, k + 1))
    G1[:k, :k] = Gt[:k, :k]
    G1[:k, k] = (Gt[:k, k:] @ Linv)[:, 0]
    G1[k] = lower[0, :k + 1]
    return lower, G1


def transform_condition(L):
    """max(|L e - e1|, |L L^-1 - I|) with L^-1 from np.linalg.inv."""
    m = L.shape[0]
    e1 = np.zeros(m)
    e1[0] = 1.0
    return max(float(np.abs(L @ np.ones(m) - e1).max()),
               float(np.abs(L @ np.linalg.inv(L) - np.eye(m)).max()))


def out_edges(g, i):
    """Out-neighbours of internal node i of a WebGraph, as a list."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()


def graph_to_dict(g):
    """Raw out-edge dict of a WebGraph (internal indices)."""
    return {i: set(out_edges(g, i)) for i in range(g.n)}


def random_edge_dict(rng, n, dangling_frac, avg_degree=4):
    """Out-edge dict where the first ceil((1-frac)*n) nodes emit edges."""
    nondangling = max(1, math.ceil((1.0 - dangling_frac) * n))
    nondangling = min(nondangling, n)
    return {
        src: {int(t) for t in rng.integers(0, n, size=int(rng.integers(1, 2 * avg_degree)))}
        for src in range(nondangling)
    }


def make_webgraph(n, edges):
    """WebGraph over labels 0..n-1 from a raw out-edge dict (isolated nodes kept)."""
    from lumprank import WebGraph

    rows = [sorted(edges.get(i, ())) for i in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    indices = np.array([t for r in rows for t in r], dtype=np.int64)
    return WebGraph(n=n, labels=np.arange(n, dtype=np.int64), indptr=indptr,
                    indices=indices)


def edge_text(edges):
    """Edge-list text for a raw out-edge dict, sources and targets ascending."""
    lines = [f"{s} {t}" for s in sorted(edges) for t in sorted(edges[s])]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_parse(text):
    """Line-by-line edge-list reader: (labels, {i: sorted targets}).

    The package's original parser, kept as the reference its vectorised reader
    must match: labels are interned in first-appearance order, the first bad
    line raises EdgeListParseError with its number.  Two rules were added: a
    label of 2**63 or more is rejected, where the original crashed when it
    stored the labels as int64; and a label is ASCII digits after an optional
    sign, where the original's int() also read underscores ("1_000") and
    non-ASCII digits, so two distinct labels could name one node.
    """
    from lumprank import EdgeListParseError

    if isinstance(text, bytes):
        text = text.decode("utf-8")

    index_of = {}
    labels = []
    targets = []

    def intern(label):
        idx = index_of.get(label)
        if idx is None:
            idx = len(labels)
            index_of[label] = idx
            labels.append(label)
            targets.append(set())
        return idx

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two node labels, got {stripped!r}"
            )
        if not all(re.fullmatch(r"[+-]?[0-9]+", tok) for tok in tokens):
            raise EdgeListParseError(
                f"line {lineno}: non-integer node label in {stripped!r}"
            )
        src_label, dst_label = int(tokens[0]), int(tokens[1])
        if src_label < 0 or dst_label < 0:
            raise EdgeListParseError(
                f"line {lineno}: negative node label in {stripped!r}"
            )
        if src_label >= 2**63 or dst_label >= 2**63:
            raise EdgeListParseError(
                f"line {lineno}: node label too large (must be below 2**63) in {stripped!r}"
            )
        src = intern(src_label)
        dst = intern(dst_label)
        targets[src].add(dst)

    if not labels:
        raise EdgeListParseError("empty edge list: no nodes or edges found")
    return labels, {i: sorted(t) for i, t in enumerate(targets)}


def sink_case(rng, n=300, k=120, groups=3, size=16):
    """Graph whose first groups*size nodes form closed groups (rank sinks),
    so the Google matrix has eigenvalue alpha; nodes >= k are dangling.
    Returns (edges, heavy-tailed teleport vector)."""
    edges = {}
    for s in range(groups * size):
        base = s - s % size
        # a cycle keeps each group irreducible; the other links stay inside
        edges[s] = {base + (s + 1 - base) % size}
        edges[s] |= {int(t) for t in base + rng.integers(0, size, 3)}
    for s in range(groups * size, k):
        edges[s] = {int(t) for t in rng.integers(0, n, int(rng.integers(1, 8)))}
    v = rng.pareto(1.0, n) + 1e-3
    return edges, v / v.sum()
