"""Dense verification lab: the transform family mapping ones to e1, the block
similarity form, spectrum identity, and the lumpability test of the paper's
partition, k nondangling singletons and one dangling block.

Everything here is O(n^2)/O(n^3) dense machinery meant for desk-scale cross
checks of the sparse pipeline; ``lumprank verify`` refuses a graph above its
``--dense-limit`` before this module loads.  Each check returns its
deviation, with a note where ``verify`` prints one; the thresholds that make
a deviation PASS or FAIL belong to :func:`lumprank.decomposition.run_checks`.
"""

from __future__ import annotations

import operator
from enum import Enum
from random import Random

import numpy as np

from .graph import HyperlinkMatrix, PageRankParams
from .lumping import DanglingPartition

# how far from 1 a row sum may be for check_lumpable to take M as stochastic
_STOCHASTIC_TOL = 1e-10


class TransformKind(Enum):
    """Families of order-m matrices with L @ ones = e1."""

    AVERAGING = "averaging"      # dense rows: identity minus rank-one averaging
    SPARSE_ELIM = "sparse-elim"  # subtract row 1 from the rest; lower triangular
    JORDAN_DIFF = "jordan-diff"  # identity minus a lower Jordan block, bidiagonal


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


def verify_transform_condition(kind: TransformKind, m: int) -> tuple[float, str]:
    """Prove the closed forms of the order-m transform of ``kind`` against
    its dense definition L = ``build_transform(kind, m)``.

    Three deviations, each O(m^2) with no matrix product: the forward map
    max|L e - e1| (row sums of L); the left operation max|left(I) - L|, the
    row operations of :func:`similarity_transform` applied to the identity;
    and the inverse residual max|right_inv(L) - I|, its column operations
    applied to L.  Row operations act on each column alike, so left(I) = L
    shows that they compute L X for every X; column operations act on each
    row alike, so right_inv(L) = I shows that L is invertible and that they
    compute X L^-1.  L^-1 e1 = e follows from L e = e1.

    Returns (max_dev, note): the largest of the three deviations, NaN when
    any is NaN, and a note that names all three.  A defect is a large
    deviation, never an exception.
    """
    if m < 1:
        raise ValueError(f"transform order must be >= 1, got {m}")
    # L is built once left(I) is in, whose identity is then freed: at most
    # two order-m matrices are alive at once
    left = _apply_left(kind, np.eye(m))
    L = build_transform(kind, m)
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
    return max_dev, (f"|L e - e1|={dev_fwd:.3e}, |left(I) - L|={dev_left:.3e}, "
                     f"|right_inv(L) - I|={dev_res:.3e}")


def _google_matrix(rows: np.ndarray, cols: np.ndarray, data: np.ndarray, k: int,
                   alpha: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense alpha (H + d w^T) + (1-alpha) e v^T from the stored entries of a
    hyperlink matrix H, ``data`` at (``rows``, ``cols``), where d marks the
    dangling rows, which start at row k.  In place, with no temporary of the
    matrix's size (the order of verify's dense allocations moves its peak
    RSS by ~1 MB): alpha*data is scattered, alpha*w added to the dangling
    rows, then (1-alpha)*v to every row."""
    G = np.zeros((v.size, v.size))
    G[rows, cols] = alpha * data
    G[k:, :] += alpha * w
    G += (1.0 - alpha) * v
    return G


def build_dense_google(H: HyperlinkMatrix, p: DanglingPartition,
                       params: PageRankParams) -> np.ndarray:
    """Assemble the explicit permuted Google matrix G~ of the hyperlink
    matrix H (lab use only): rows above the split are alpha*H + (1-alpha)
    e v^T, and dangling rows are the rank-one u^T rows, u = alpha*w +
    (1-alpha)*v."""
    if params.n != H.n or p.perm.size != H.n:
        raise ValueError("hyperlink matrix, params, and partition sizes differ")
    return _google_matrix(p.inv_perm[H.rows], p.inv_perm[H.indices], H.data, p.k,
                          params.alpha, params.v[p.perm], params.w[p.perm])


def build_dense_lumped(A: HyperlinkMatrix, p: DanglingPartition,
                       params: PageRankParams) -> np.ndarray:
    """Explicit (k+1)-order lumped matrix [G11, G12 e; u1^T, u2^T e] from the
    lumped chain's matrix A of :func:`~lumprank.lumping.permute_blocks`,
    with u = alpha*w + (1-alpha)*v the row every dangling node shares and
    v, w lumped by :meth:`DanglingPartition.lump`: the dense counterpart of
    the matrix-free operator.  A's one dangling row is row k, so this is the
    Google matrix of A by the formula of :func:`build_dense_google`."""
    return _google_matrix(A.rows, A.indices, A.data, p.k, params.alpha,
                          p.lump(params.v), p.lump(params.w))


def stationary_dense(M: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix by direct linear solve.

    Solves (I - M^T) x = 0 with its last equation replaced by the
    normalization sum(x) = 1.  M is borrowed, not copied: the system's
    transpose, I - M with its last column set to ones, is written into M
    itself and factored through the view M.T, and M's entries are put back
    bit for bit before return, also when the solve raises.  M must be
    writeable.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    diag, last = M.diagonal().copy(), M[:, -1].copy()
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    np.negative(M, out=M)  # exact, so negating again restores every entry
    try:
        M.flat[::n + 1] += 1.0  # I - M, the identity added in place
        M[:, -1] = 1.0  # replace one redundant equation by the normalization
        return np.linalg.solve(M.T, rhs)
    finally:
        np.negative(M, out=M)
        M.flat[::n + 1] = diag
        M[:, -1] = last


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


def check_spectrum_identity(Gt: np.ndarray, lumped, k: int,
                            seed: int = 0) -> list[tuple[float, str]]:
    """Compare characteristic polynomials of the full matrix and each lumped block.

    Evaluates det(Gt - lam I) against (-lam)^(n-k-1) * det(G1 - lam I) at
    three fixed points {1.5, 2, 3} plus five draws of
    ``random.Random(seed).uniform(1.1, 4.0)``, all outside the unit spectral
    disk so neither side vanishes; a negative seed raises ValueError, as
    ``Random`` would draw seed |seed|'s points.  The standard library's generator is
    already loaded by ``import numpy``; numpy.random would load ten modules
    and hashlib with OpenSSL, ~5.5 MB of resident memory, for five numbers.
    Each determinant is a sign and log|det| from
    ``np.linalg.slogdet``, and the comparison runs in that log space: the
    sign of the full side against (-1)^(n-k-1) times the lumped one, and
    log|det(Gt - lam I)| against log|det(G1 - lam I)| + (n-k-1) log lam.
    The log-space gap equals the relative deviation for small
    discrepancies and cannot overflow, and determinants that agree exactly
    read exactly 0.  slogdet adds the n log-pivots in one running sum,
    which rounds in proportion to its size, about n log lam unscaled: on
    1200-node graphs that leaves ~1e-12 to ~2e-12 of rounding in the
    deviation and at n = 2000 ~4e-12, far below the 1e-8 threshold of
    :func:`~lumprank.decomposition.run_checks`.  Comparing
    I - Gt/lam instead keeps the sum near 0 (~5e-14 at n = 1200), but
    needs an n x n array beside Gt to hold it.

    Every matrix is borrowed, not copied: its diagonal is shifted in place
    for each sample point, the transposed view is factored, and the
    diagonal is restored, bit for bit, before the next matrix is read, also
    when a factorization raises.  Every matrix must be writeable.

    ``lumped`` is an iterable of (k+1)-order blocks G1, and the result holds
    one (max_dev, note) per block, in order: the worst relative deviation
    over the sample points, inf when either matrix holds a non-finite
    entry, and a note with the seed and the worst point.  The n x n
    determinants are computed once, before the first block is taken, and
    every block is compared against them.  Blocks are taken one at a time,
    so a generator may build or alter each one after the result of the one
    before.
    """
    Gt = np.asarray(Gt, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.shape != (n, n):
        raise ValueError("inconsistent sizes: full must be n x n, lumped (k+1) x (k+1)")
    seed = operator.index(seed)
    if seed < 0:  # Random seeds from |seed|, so -s would repeat seed s
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = Random(seed)
    lams = [1.5, 2.0, 3.0] + [rng.uniform(1.1, 4.0) for _ in range(5)]

    def slogdets(X):
        """slogdet(X - lam I) for every lam, X's diagonal restored after."""
        diag = X.diagonal().copy()
        out = []
        try:
            for lam in lams:
                X.flat[::X.shape[0] + 1] = diag - lam
                # det(X^T) = det(X), and for a C-ordered X the transposed view
                # is Fortran-ordered, so LAPACK's working copy is a memcpy
                out.append(np.linalg.slogdet(X.T))
        finally:
            X.flat[::X.shape[0] + 1] = diag
        return out

    # max|.| is finite exactly when every entry is; np.isfinite would hold
    # an n x n mask
    finite = bool(np.isfinite(_absmax(Gt)))
    full = slogdets(Gt) if finite else []
    j = n - k - 1  # the power of -lam that the lumped side lacks

    results = []
    for G1 in lumped:
        G1 = np.asarray(G1, dtype=np.float64)
        if G1.shape != (k + 1, k + 1):
            raise ValueError("inconsistent sizes: full must be n x n, lumped (k+1) x (k+1)")
        if not (finite and np.isfinite(_absmax(G1))):
            results.append((np.inf, f"seed={seed}; non-finite matrix entries"))
            continue
        worst, worst_lam = 0.0, lams[0]
        for lam, (s_full, ld_full), (s_lump, ld_lump) in zip(lams, full, slogdets(G1)):
            if s_full == s_lump == 0.0:
                rel = 0.0  # both sides exactly singular: the determinants agree
            else:
                # |d1 - d2| / max(|d1|, |d2|) with determinants kept in log
                # space; 1 when only one side is singular
                s_lump *= (-1.0) ** j
                ld_lump += j * np.log(lam)
                rel = abs(1.0 - s_full * s_lump * np.exp(-abs(ld_full - ld_lump)))
            if rel > worst or np.isnan(rel):  # a NaN deviation stays the worst
                worst, worst_lam = float(rel), lam
        results.append((worst, f"seed={seed}; worst relative deviation at lambda={worst_lam:.6g}"))
    return results


def check_lumpable(M: np.ndarray, k: int) -> float:
    """Lumpability of the paper's partition of a row-stochastic M: the k
    leading states as singletons and the trailing n-k as one block.

    Singletons lump trivially, so the partition is lumpable exactly when
    every trailing row has the same probability of entering each
    singleton: when the rows of M[k:, :k] agree entry by entry (a rank-one
    block such as e u^T always does).  Returns max over j < k of the spread
    max - min of column j of M[k:, :k].  Raises ValueError for a k outside
    [1, n-1] or an M that is not row-stochastic within 1e-10.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.ndim != 2 or M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"split point k={k} must leave both blocks nonempty (n={n})")
    # max|.| is finite exactly when every entry is, with no n x n mask
    if (not np.isfinite(_absmax(M))
            or np.abs(M.sum(axis=1) - 1.0).max() > _STOCHASTIC_TOL):
        raise ValueError(f"matrix is not row-stochastic within {_STOCHASTIC_TOL:g}")
    M21 = M[k:, :k]
    return float((M21.max(axis=0) - M21.min(axis=0)).max())
