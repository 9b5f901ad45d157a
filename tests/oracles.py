"""Independent dense oracles for the tests.

Matrices are assembled entry by entry from raw out-edge dicts, and stationary
vectors come from one dense direct solve.  Nothing here touches the package's
sparse machinery, so these values stay valid as a check on it.  The one
exception, :func:`to_dense`, only scatters a matrix's stored arrays so that
tests can compare them with these oracles.
"""

import math
import re
from fractions import Fraction

import numpy as np


def dense_hyperlink(n, edges):
    """Dense row-normalized link matrix from a raw out-edge dict."""
    H = np.zeros((n, n))
    for i, targets in edges.items():
        ts = sorted(set(targets))
        for j in ts:
            H[i, j] = 1.0 / len(ts)
    return H


def to_dense(H):
    """A HyperlinkMatrix as a dense array: its stored entries scattered at
    (rows, indices), zeros elsewhere."""
    dense = np.zeros((H.n, H.n))
    dense[H.rows, H.indices] = H.data
    return dense


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


def exact_pagerank(n, edges, alpha, v, w):
    """Exact PageRank of float inputs, as n Fractions.

    (I - alpha*P^T) x = (1-alpha)*v, P = H + d w^T with H's entries exactly
    1/outdegree and every float of alpha, v and w at its exact binary value,
    is scaled to integers and solved by fraction-free (Bareiss) elimination;
    I - alpha*P^T is strictly diagonally dominant by columns, so no pivot is
    zero.  Returns x/e^T x.
    """
    a = Fraction(alpha)
    M = [[Fraction(int(i == j)) for j in range(n)] + [(1 - a) * Fraction(float(v[i]))]
         for i in range(n)]
    for j in range(n):  # column j of P^T is row j of P
        targets = sorted(set(edges.get(j, ())))
        out = ({t: Fraction(1, len(targets)) for t in targets} if targets
               else {i: Fraction(float(w[i])) for i in range(n)})
        for i, p_ji in out.items():
            M[i][j] -= a * p_ji
    scale = math.lcm(*(x.denominator for row in M for x in row))
    A = [[int(x * scale) for x in row] for row in M]
    prev = 1
    for c in range(n - 1):
        for r in range(c + 1, n):
            for j in range(c + 1, n + 1):
                A[r][j] = (A[r][j] * A[c][c] - A[r][c] * A[c][j]) // prev
        prev = A[c][c]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (A[i][n] - sum(A[i][j] * x[j] for j in range(i + 1, n))) / Fraction(A[i][i])
    total = sum(x)
    return [xi / total for xi in x]


def exact_l1(x, exact):
    """1-norm distance of a float vector from a list of Fractions, rounded
    once to float at the end."""
    return float(sum(abs(Fraction(float(xi)) - e) for xi, e in zip(x, exact)))


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


def ldu_dense(Gt, Z, S):
    """The n x n factors (L, D, U) of the block LDU factorization of
    I - Gt whose blocks Z and S are given: L = [[I, 0], [-Z, I]],
    D = blockdiag(D11, I - S) and U = [[I, -Y], [0, I]], with D11 = I - G11
    and Y = D11^-1 G12 formed here from Gt."""
    n, k = Gt.shape[0], Z.shape[1]
    D11 = np.eye(k) - Gt[:k, :k]
    L = np.eye(n)
    L[k:, :k] = -Z
    U = np.eye(n)
    U[:k, k:] = -np.linalg.solve(D11, Gt[:k, k:])
    D = np.zeros((n, n))
    D[:k, :k] = D11
    D[k:, k:] = np.eye(n - k) - S
    return L, D, U


def ldu_deviation(Gt, Z, S):
    """max|L D U - (I - Gt)| by the dense product of the assembled factors."""
    L, D, U = ldu_dense(Gt, Z, S)
    return float(np.abs(L @ D @ U - (np.eye(Gt.shape[0]) - Gt)).max())


def coupled_solves(Gt, k, pi):
    """What the coupled stationarity identities (b) and (c) predict, each by
    its own direct solve: pi1 = pi2 G21 (I - G11)^-1 and
    pi2 = pi1 G12 (I - G22)^-1."""
    n = Gt.shape[0]
    pi1, pi2 = pi[:k], pi[k:]
    b = np.linalg.solve((np.eye(k) - Gt[:k, :k]).T, Gt[k:, :k].T @ pi2)
    c = np.linalg.solve((np.eye(n - k) - Gt[k:, k:]).T, Gt[:k, k:].T @ pi1)
    return b, c


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
