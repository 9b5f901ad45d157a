"""Dense verification lab: the transform family mapping ones to e1, the block
similarity form, spectrum identity, and the general lumpability test.

Everything here is O(n^2)/O(n^3) dense machinery meant for desk-scale cross
checks of the sparse pipeline, guarded by a configurable size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import HyperlinkMatrix, PageRankParams, WebGraph, build_hyperlink_matrix
from .lumping import DanglingPartition

DENSE_LIMIT_DEFAULT = 2000


class TransformKind(Enum):
    """Families of order-m matrices with L @ ones = e1."""

    AVERAGING = "averaging"      # dense rows: identity minus rank-one averaging
    SPARSE_ELIM = "sparse-elim"  # subtract row 1 from the rest; lower triangular
    JORDAN_DIFF = "jordan-diff"  # identity minus a lower Jordan block, bidiagonal


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a numerical identity check."""

    passed: bool
    max_abs_deviation: float
    detail: str = ""


def build_transform(kind: TransformKind, m: int) -> np.ndarray:
    """Build the m-by-m transform of the chosen family.

    Every kind is invertible, maps the all-ones vector to the first
    coordinate vector, and collapses to [[1]] for m == 1.  This dense
    matrix is the definition: the lab itself applies L and L^-1 by row and
    column operations, which :func:`verify_transform_condition` proves
    against it.
    """
    if m < 1:
        raise ValueError(f"transform order must be >= 1, got {m}")
    L = np.eye(m)
    if kind is TransformKind.AVERAGING:
        L[1:, :] = -1.0 / m
        L[np.arange(1, m), np.arange(1, m)] = (m - 1.0) / m
    elif kind is TransformKind.SPARSE_ELIM:
        L[1:, 0] = -1.0
    elif kind is TransformKind.JORDAN_DIFF:
        L[np.arange(1, m), np.arange(m - 1)] = -1.0
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    return L


def _apply_left(kind: TransformKind, X: np.ndarray) -> np.ndarray:
    """L X for the transform of ``kind`` whose order is X's row count, by
    row operations: row 1 is kept, and from each later row averaging
    subtracts the column means, sparse-elim row 1 and jordan-diff the row
    above it.  O(m n) for an m x n X; returns a new array."""
    out = np.empty(X.shape)
    out[0] = X[0]
    if kind is TransformKind.AVERAGING:
        np.subtract(X[1:], X.mean(axis=0), out=out[1:])
    elif kind is TransformKind.SPARSE_ELIM:
        np.subtract(X[1:], X[0], out=out[1:])
    elif kind is TransformKind.JORDAN_DIFF:
        np.subtract(X[1:], X[:-1], out=out[1:])
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    return out


def _apply_right_inverse(kind: TransformKind, X: np.ndarray) -> None:
    """X L^-1 in place, for the transform of ``kind`` whose order is X's
    column count, by column operations.  The inverses are
    averaging: I + (e - e1) e^T, which adds the sum of columns 2..m to
    every column; sparse-elim: I + (e - e1) e1^T, which adds it to column 1
    only; jordan-diff: the lower triangle of ones, a reverse cumulative
    sum along each row.  O(m n) for an n x m X, with no order-m temporary."""
    if kind is TransformKind.AVERAGING:
        X += X[:, 1:].sum(axis=1, keepdims=True)
    elif kind is TransformKind.SPARSE_ELIM:
        X[:, 0] += X[:, 1:].sum(axis=1)
    elif kind is TransformKind.JORDAN_DIFF:
        np.cumsum(X[:, ::-1], axis=1, out=X[:, ::-1])
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")


def _absmax(X: np.ndarray) -> float:
    """max|X| without an |X| temporary; NaN when X holds a NaN."""
    return float(max(X.max(), -X.min()))


def verify_transform_condition(kind: TransformKind, m: int,
                               tol: float = 1e-12) -> CheckReport:
    """Prove the closed forms of the order-m transform of ``kind`` against
    its dense definition L = ``build_transform(kind, m)``.

    Three deviations, each O(m^2) with no matrix product: the forward map
    max|L e - e1| (row sums of L); the left operation max|left(I) - L|, the
    row operations of :func:`similarity_transform` applied to the identity;
    and the inverse residual max|right_inv(L) - I|, its column operations
    applied to L.  Row operations act on each column alike, so left(I) = L
    shows that they compute L X for every X; column operations act on each
    row alike, so right_inv(L) = I shows that L is invertible and that they
    compute X L^-1.  L^-1 e1 = e follows from L e = e1.  A NaN anywhere
    makes the deviation NaN.  Failures are reported, never raised.
    """
    L = build_transform(kind, m)
    left = _apply_left(kind, np.eye(m))
    left -= L
    dev_left = _absmax(left)
    del left
    e1 = np.zeros(m)
    e1[0] = 1.0
    dev_fwd = _absmax(L.sum(axis=1) - e1)
    _apply_right_inverse(kind, L)
    L.flat[::m + 1] -= 1.0
    dev_res = _absmax(L)

    max_dev = float(np.max([dev_fwd, dev_left, dev_res]))  # NaN when any is NaN
    passed = max_dev <= tol
    detail = (f"|L e - e1|={dev_fwd:.3e}, |left(I) - L|={dev_left:.3e}, "
              f"|right_inv(L) - I|={dev_res:.3e}")
    if not passed:
        which = ("forward map" if not dev_fwd <= tol else
                 "left operation" if not dev_left <= tol else "inverse residual")
        detail = f"{which} off: " + detail
    return CheckReport(passed=passed, max_abs_deviation=max_dev, detail=detail)


def build_dense_google(g: WebGraph, params: PageRankParams, p: DanglingPartition,
                       dense_limit: int = DENSE_LIMIT_DEFAULT) -> np.ndarray:
    """Assemble the explicit permuted Google matrix (lab use only).

    Rows above the split are alpha*H + (1-alpha) e v^T; dangling rows are the
    rank-one u^T rows.  Refuses graphs beyond the dense cap.
    """
    if g.n > dense_limit:
        raise ValueError(
            f"n={g.n} exceeds the dense lab limit {dense_limit}; use the sparse solver"
        )
    if params.n != g.n or p.perm.size != g.n:
        raise ValueError("graph, params, and partition sizes differ")
    H = build_hyperlink_matrix(g)
    G = np.zeros((g.n, g.n))
    G[p.inv_perm[H.rows], p.inv_perm[H.indices]] = params.alpha * H.data
    v = params.v[p.perm]
    w = params.w[p.perm]
    G[p.k:, :] += params.alpha * w
    G += (1.0 - params.alpha) * v
    return G


def build_dense_lumped(A: HyperlinkMatrix, p: DanglingPartition,
                       params: PageRankParams) -> np.ndarray:
    """Explicit (k+1)-order lumped matrix [G11, G12 e; u1^T, u2^T e] from the
    lumped chain's matrix A of :func:`~lumprank.lumping.permute_blocks`,
    with u = alpha*w + (1-alpha)*v the row every dangling node shares and
    v, w lumped by :meth:`DanglingPartition.lump`: the dense counterpart of
    the matrix-free operator."""
    k, alpha = p.k, params.alpha
    v = (1.0 - alpha) * p.lump(params.v)
    # in place, with no (k+1)^2 temporary: the order of verify's dense
    # allocations moves its peak RSS by ~1 MB
    M = A.toarray()
    M *= alpha
    M += v
    M[k] = alpha * p.lump(params.w) + v
    return M


def stationary_dense(M: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by direct linear solve."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    A = -M.T
    A.flat[::n + 1] += 1.0  # I - M^T, the identity added in place
    A[-1, :] = 1.0  # replace one redundant equation by the normalization
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


def similarity_transform(Gt: np.ndarray, kind: TransformKind, k: int):
    """Conjugate the permuted matrix by blockdiag(I_k, L), L the order-(n-k)
    transform of ``kind``, and return the parts the lab reads.

    Returns (lower, lumped_block): the conjugated rows k..n-1, that is
    [L G21 | L G22 L^-1], and the leading (k+1) x (k+1) block, whose first k
    rows are [G11 | G12 L^-1 e1] and whose last row is the first row of
    ``lower``.  The conjugated first k rows are never formed.  L and L^-1
    are applied in closed form, O((n-k) n) in all: ``lower`` is the row
    operations of L on rows k..n-1 of ``Gt``, then the column operations of
    L^-1 on its last n-k columns, and column k of the leading block is the
    first column of G12 L^-1, by the same column operations on a copy of
    G12.  :func:`verify_transform_condition` proves both operations against
    the dense L of :func:`build_transform`.
    """
    Gt = np.asarray(Gt, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.ndim != 2 or Gt.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {Gt.shape}")
    if not 0 <= k < n:
        raise ValueError(f"split point k={k} out of range for order {n}")

    lower = _apply_left(kind, Gt[k:])
    _apply_right_inverse(kind, lower[:, k:])
    top = Gt[:k, k:].copy()  # G12, then G12 L^-1
    _apply_right_inverse(kind, top)
    G1 = np.empty((k + 1, k + 1))
    G1[:k, :k] = Gt[:k, :k]
    G1[:k, k] = top[:, 0]
    G1[k] = lower[0, :k + 1]
    return lower, G1


def check_spectrum_identity(Gt: np.ndarray, G1: np.ndarray, k: int,
                            tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Compare characteristic polynomials of the full and lumped matrices.

    Evaluates det(lam I - Gt) against lam^(n-k-1) * det(lam I - G1) at three
    fixed points {1.5, 2, 3} plus five seeded uniform draws from (1.1, 4.0),
    all outside the unit spectral disk so neither side vanishes.  Both sides
    are divided by lam^n, so the check compares det(I - Gt/lam) with
    det(I - G1/lam).  Each determinant is a sign and log|det| from
    ``np.linalg.slogdet``, and the comparison runs in that log space, which
    equals the relative deviation for small discrepancies and cannot
    overflow.  slogdet adds the n log-pivots in one running sum, which
    rounds in proportion to its size; the scaling keeps it near 0 (unscaled,
    log|det| ~ 1e3 at n = 1200 left ~2e-12 of rounding in the deviation).
    """
    return _spectrum_check(Gt, k, seed)(G1, tol)


def _spectrum_check(Gt: np.ndarray, k: int, seed: int):
    """Evaluate the full side of :func:`check_spectrum_identity` once.

    Returns ``check(G1, tol) -> CheckReport``, which computes only the
    (k+1)-order side, so several lumped blocks are compared against one set
    of n x n determinants.
    """
    Gt = np.asarray(Gt, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.shape != (n, n):
        raise ValueError("inconsistent sizes: full must be n x n, lumped (k+1) x (k+1)")
    rng = np.random.default_rng(seed)
    lams = np.concatenate([[1.5, 2.0, 3.0], rng.uniform(1.1, 4.0, size=5)])
    finite = bool(np.isfinite(Gt).all())
    full = []
    shifted = np.empty((n, n))  # I - Gt/lam, refilled for each lam
    for lam in lams if finite else ():
        np.divide(Gt, -lam, out=shifted)
        shifted.flat[::n + 1] += 1.0
        full.append(np.linalg.slogdet(shifted))

    def check(G1: np.ndarray, tol: float) -> CheckReport:
        G1 = np.asarray(G1, dtype=np.float64)
        if G1.shape != (k + 1, k + 1):
            raise ValueError("inconsistent sizes: full must be n x n, lumped (k+1) x (k+1)")
        if not (finite and np.isfinite(G1).all()):
            return CheckReport(passed=False, max_abs_deviation=np.inf,
                               detail=f"seed={seed}; non-finite matrix entries")
        worst = 0.0
        worst_lam = float(lams[0])
        shifted = np.empty((k + 1, k + 1))  # I - G1/lam, refilled for each lam
        for lam, (s_full, ld_full) in zip(lams, full):
            np.divide(G1, -lam, out=shifted)
            shifted.flat[::k + 2] += 1.0
            s_lump, ld_lump = np.linalg.slogdet(shifted)
            if s_full == s_lump == 0.0:
                rel = 0.0  # both sides exactly singular: the determinants agree
            else:
                # |d1 - d2| / max(|d1|, |d2|) with determinants kept in log
                # space; 1 when only one side is singular
                rel = abs(1.0 - s_full * s_lump * np.exp(-abs(ld_full - ld_lump)))
            if rel > worst or np.isnan(rel):  # a NaN deviation stays the worst
                worst, worst_lam = float(rel), float(lam)
        return CheckReport(
            passed=worst <= tol, max_abs_deviation=worst,
            detail=f"seed={seed}; worst relative deviation at lambda={worst_lam:.6g}",
        )

    return check


def check_lumpable(M: np.ndarray, boundaries, tol: float = 1e-10,
                   blocks=None) -> CheckReport:
    """Row-sum-constancy test for the off-diagonal blocks of a partition.

    ``boundaries`` are the interior split points of a contiguous partition of
    [0, n).  A block passes when its row sums agree within tol (a rank-one
    block such as e u^T always does).  ``blocks`` optionally restricts the
    test to the given (row_block, col_block) pairs; default is every
    off-diagonal block.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.ndim != 2 or M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    cuts = [0, *boundaries, n]
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            raise ValueError(f"boundaries must be strictly increasing inside (0, {n}): {boundaries}")
    if not np.isfinite(M).all() or np.abs(M.sum(axis=1) - 1.0).max() > tol:
        raise ValueError("matrix is not row-stochastic within tol")

    nblocks = len(cuts) - 1
    if blocks is None:
        blocks = [(i, j) for i in range(nblocks) for j in range(nblocks) if i != j]
    worst = 0.0
    parts = []
    for i, j in blocks:
        if not (0 <= i < nblocks and 0 <= j < nblocks) or i == j:
            raise ValueError(f"invalid off-diagonal block index pair {(i, j)}")
        sums = M[cuts[i]:cuts[i + 1], cuts[j]:cuts[j + 1]].sum(axis=1)
        spread = float(sums.max() - sums.min())
        worst = max(worst, spread)
        parts.append(f"block({i},{j}) spread={spread:.3e}")
    return CheckReport(passed=worst <= tol, max_abs_deviation=worst,
                       detail="; ".join(parts))
