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

# a solve whose result outgrows its right-hand side by more than this factor,
# both measured against the matrix's largest entry, counts as singular
_GROWTH_LIMIT = 1e10

# rows multiplied by L^-1 at a time: of L G22 in similarity_transform, of
# L in verify_transform_condition's residual
_ROW_BLOCK = 128


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
    coordinate vector, and collapses to [[1]] for m == 1.  Any other matrix
    L can be passed to the lab functions directly.
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


def _transform_inverse(kind: TransformKind, m: int) -> np.ndarray:
    """The exact inverse of ``build_transform(kind, m)``.

    averaging: I + (e - e1) e^T; sparse-elim: I + (e - e1) e1^T;
    jordan-diff: the lower triangle of ones.  Each has first column e.
    """
    if kind is TransformKind.JORDAN_DIFF:
        return np.tri(m)
    Linv = np.eye(m)
    if kind is TransformKind.AVERAGING:
        Linv[1:] += 1.0
    elif kind is TransformKind.SPARSE_ELIM:
        Linv[1:, 0] = 1.0
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    return Linv


def _absmax(X: np.ndarray) -> float:
    """max|X| without an |X| temporary; NaN when X holds a NaN."""
    return float(max(X.max(), -X.min()))


def _solve(A: np.ndarray, B: np.ndarray | None, what: str) -> np.ndarray:
    """X with A X = B, raising LinAlgError when A is singular to working
    precision: the solve raises, X is not finite, or
    max|X| max|A| > 1e10 max|B|.  B=None gives A^-1 from ``np.linalg.inv``,
    with max|B| = 1 and no identity operand."""
    singular = np.linalg.LinAlgError(f"{what} is singular to working precision")
    try:
        X = np.linalg.inv(A) if B is None else np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise singular from None
    growth = _absmax(X)
    scale = 1.0 if B is None else _absmax(B)
    if not np.isfinite(growth) or growth * _absmax(A) > _GROWTH_LIMIT * scale:
        raise singular
    return X


def verify_transform_condition(L: np.ndarray, tol: float = 1e-12,
                               Linv: np.ndarray | None = None) -> CheckReport:
    """Check L @ ones == e1, invertibility, and L^-1 @ e1 == ones.

    L^-1 is ``Linv`` when given (a caller that also conjugates by L shares
    one inverse), else ``np.linalg.inv(L)``.  Either way it is proven, not
    trusted: the deviation includes the residual max|L L^-1 - I|, formed
    ``_ROW_BLOCK`` rows at a time so no order-m temporary appears, and
    L^-1 @ e1 is read as its first column.  L counts as singular when
    ``np.linalg.inv`` fails, or its result is not finite or exceeds
    1e10 / max|L|; the report then says ``singular`` with an infinite
    deviation.  Failures are reported, never raised.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"transform must be square, got shape {L.shape}")
    m = L.shape[0]
    if Linv is None:
        try:
            Linv = _solve(L, None, "transform")
        except np.linalg.LinAlgError as exc:
            return CheckReport(passed=False, max_abs_deviation=np.inf, detail=str(exc))
    elif Linv.shape != L.shape:
        raise ValueError(f"inverse must have the transform's shape {L.shape}, got {Linv.shape}")
    e1 = np.zeros(m)
    e1[0] = 1.0
    dev_fwd = float(np.abs(L @ np.ones(m) - e1).max())
    dev_inv = float(np.abs(Linv[:, 0] - 1.0).max())
    block_devs = []
    for i in range(0, m, _ROW_BLOCK):
        R = L[i:i + _ROW_BLOCK] @ Linv
        R.flat[i::m + 1] -= 1.0  # the identity's entries (j, i + j)
        block_devs.append(_absmax(R))
    dev_res = float(np.max(block_devs))  # NaN when any block holds one

    max_dev = float(np.max([dev_fwd, dev_inv, dev_res]))
    passed = max_dev <= tol
    detail = (f"|L e - e1|={dev_fwd:.3e}, |L^-1 e1 - e|={dev_inv:.3e}, "
              f"|L L^-1 - I|={dev_res:.3e}")
    if not passed:
        which = ("forward map" if dev_fwd > tol else
                 "inverse map" if dev_inv > tol else "inverse residual")
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


def similarity_transform(Gt: np.ndarray, L: np.ndarray, k: int,
                         Linv: np.ndarray | None = None):
    """Conjugate the permuted matrix by blockdiag(I_k, L) and return the parts
    the lab reads.

    Returns (lower, lumped_block): the conjugated rows k..n-1, that is
    [L G21 | L G22 L^-1], and the leading (k+1) x (k+1) block, whose first k
    rows are [G11 | G12 L^-1 e1] and whose last row is the first row of
    ``lower``.  The conjugated first k rows are never formed.  L^-1 is
    ``Linv`` when given, else ``np.linalg.inv(L)``; a singular L raises
    LinAlgError.  A supplied ``Linv`` is trusted, not checked: ``run_checks``
    proves it first by its residual max|L L^-1 - I| in
    :func:`verify_transform_condition`, the condition row of the same
    transform.  ``lower`` is L times the rows k..n-1 of ``Gt``, one
    product; L G22 L^-1 is then formed in it a block of rows at a time
    times L^-1, so no order-(n-k) product is held beside L^-1.
    """
    Gt = np.asarray(Gt, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.ndim != 2 or Gt.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {Gt.shape}")
    m = n - k
    if not 0 <= k < n:
        raise ValueError(f"split point k={k} out of range for order {n}")
    if L.shape != (m, m):
        raise ValueError(f"transform must have order {m}, got shape {L.shape}")
    if Linv is None:
        Linv = _solve(L, None, "transform")
    elif Linv.shape != L.shape:
        raise ValueError(f"inverse must have the transform's shape {L.shape}, got {Linv.shape}")

    G1 = np.empty((k + 1, k + 1))
    G1[:k, :k] = Gt[:k, :k]
    np.matmul(Gt[:k, k:], Linv[:, 0], out=G1[:k, k])
    lower = L @ Gt[k:]
    right = lower[:, k:]
    for i in range(0, m, _ROW_BLOCK):
        rows = right[i:i + _ROW_BLOCK]
        rows[...] = rows @ Linv
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
        for lam, (s_full, ld_full) in zip(lams, full):
            s_lump, ld_lump = np.linalg.slogdet(np.eye(k + 1) - G1 / lam)
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
