"""Block LDU factorization of I - G~, the stochastic complement of the
dangling block, the coupled stationarity identities linking the two block
rankings, and :func:`run_checks`, the check sequence of ``lumprank verify``.

Each check returns its deviation, with a note where ``verify`` prints one,
and :func:`run_checks` alone turns deviations into PASS or FAIL."""

from __future__ import annotations

import numpy as np

from .graph import PageRankParams, WebGraph, build_hyperlink_matrix
from .lumping import detect_dangling, permute_blocks
from .transforms import (
    TransformKind,
    _absmax,
    build_dense_google,
    build_dense_lumped,
    check_lumpable,
    check_spectrum_identity,
    similarity_transform,
    stationary_dense,
    verify_transform_condition,
)

# rows that ldu_factors compares at once in its reconstruction deviation
_ROW_BLOCK = 64

# a solve whose result outgrows its right-hand side by more than this factor,
# both measured against the matrix's largest entry, counts as singular
_GROWTH_LIMIT = 1e10


def _solve(A: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """X with A X = B, raising LinAlgError when A is singular to working
    precision: the solve raises, X is not finite, or
    max|X| max|A| > 1e10 max|B|."""
    singular = np.linalg.LinAlgError(f"{what} is singular to working precision")
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise singular from None
    growth = _absmax(X)
    if not np.isfinite(growth) or growth * _absmax(A) > _GROWTH_LIMIT * _absmax(B):
        raise singular
    return X


def ldu_factors(Gt: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Block LDU factorization of I - G~ split at k: returns (Z, S,
    max|L D U - (I - G~)|).

    I - G~ = L D U with L = [[I, 0], [-Z, I]], D = blockdiag(D11, I - S)
    and U = [[I, -Y], [0, I]], where D11 = I - G11, Y = D11^-1 G12,
    Z = G21 D11^-1 and S = G22 + Z G12, the stochastic complement of the
    trailing block.  No n x n factor is formed.  D11 = I - G11 is solved
    once for Y and then once, transposed, for Z, and S is formed last.
    Only the deviation reads D11 and Y, so both are freed at return.  The
    deviation is computed from the factors' own blocks, block by block:
    L D U = [[D11, -D11 Y], [-Z D11, Z D11 Y + I - S]].  The unit and zero
    blocks of L and U are exact by this construction, and the leading
    block is D11 = I - G11 itself, so
    the other three blocks hold the whole deviation: about 2k(n-k)(n+k)
    flops instead of the dense 4n^3.  The identities in the trailing block
    cancel, so it is compared as (Z D11) Y - S + G22.  Each block is
    compared 64 rows at a time, so no product of order n-k, nor of shape
    k x (n-k), is held.

    The leading block I - G11 is nonsingular whenever the damping factor is
    below 1; a singular leading block raises LinAlgError.
    """
    Gt = np.asarray(Gt, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.ndim != 2 or Gt.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {Gt.shape}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"split point k={k} must leave both blocks nonempty (n={n})")
    G12, G21, G22 = Gt[:k, k:], Gt[k:, :k], Gt[k:, k:]
    # I - G11, negated and the identity added in place: negating the
    # strided view itself would also take a ufunc buffer of 8192 doubles
    D11 = Gt[:k, :k].copy()
    np.negative(D11, out=D11)
    D11.flat[::k + 1] += 1.0
    # Y before Z and S: its solve's work copies are then taken while D11 is
    # the only factor alive, and verify's peak RSS is ~2 MB lower
    Y = _solve(D11, G12, "I minus the leading block")
    Z = _solve(D11.T, G21.T, "I minus the leading block").T
    S = Z @ G12
    S += G22

    # a block of rows at a time, so no k x (n-k) or (n-k)-order product is
    # held: D11 Y - G12 by rows of D11, and for rows of Z, Z D11 - G21 and
    # (Z D11) Y - S + G22
    devs = []
    for i in range(0, k, _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        D11Y = D11[rows] @ Y
        D11Y -= G12[rows]
        devs.append(_absmax(D11Y))
    del D11Y  # the trailing rows hold their own two blocks
    for i in range(0, n - k, _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        ZD11 = Z[rows] @ D11
        trailing = ZD11 @ Y
        trailing -= S[rows]
        trailing += G22[rows]
        ZD11 -= G21[rows]
        devs += [_absmax(ZD11), _absmax(trailing)]
    return Z, S, float(np.max(devs))  # NaN when any block holds a NaN


def stochastic_complement(S: np.ndarray) -> float:
    """How far the stochastic complement S of :func:`ldu_factors` is from a
    stochastic matrix.

    The complement of a stochastic matrix's trailing block is stochastic.
    Returns the larger of max|S e - e| and the magnitude of the most
    negative entry (0 when none is negative); a defect is a large
    deviation, never an exception.
    """
    return max(float(np.abs(S.sum(axis=1) - 1.0).max()), float(max(-S.min(), 0.0)))


def dangling_from_nondangling(pis: np.ndarray, G12: np.ndarray,
                              G22: np.ndarray) -> tuple[np.ndarray | None, str]:
    """Identity (c) of :func:`verify_coupled_stationarity` for each row of
    ``pis``: the dangling part equals the nondangling part pushed through
    G12 (I-G22)^-1, that is the solve of (I-G22)^T x = G12^T pi1.

    It reads only the blocks G12 and G22 of G~, so a caller may check it
    before the block factors exist.  (c) needs I - G22 nonsingular; it is
    skipped when the trailing block has a row sum at 1 within 1e-12 or when
    I - G22 is singular to working precision.  (I - G22)^T is solved once
    for every row's right-hand side, and it is not copied: I - G22 is
    written into the view ``G22``, that is into G~ itself, and factored
    through its transpose, and G22 is restored bit for bit before return,
    also when the solve raises; G22 must be writeable.  Returns the
    deviation max|x - pi2| of each row, or None with the reason (c) was
    skipped.
    """
    k, m = G12.shape
    pis = np.asarray(pis, dtype=np.float64)
    if pis.ndim != 2 or pis.shape[1] != k + m:
        raise ValueError(f"expected stationary vectors as rows of length {k + m}, "
                         f"got shape {pis.shape}")
    if not G22.sum(axis=1).max() < 1.0 - 1e-12:  # a NaN row sum skips too
        return None, "trailing block has unit row sums"
    diag = G22.diagonal().copy()
    B = G12.T @ pis[:, :k].T
    np.negative(G22, out=G22)  # exact, so negating again restores every entry
    try:
        G22.flat[::m + 1] += 1.0  # I - G22, the identity added in place
        X = _solve(G22.T, B, "I minus the trailing block")
    except np.linalg.LinAlgError as exc:
        return None, str(exc)
    finally:
        np.negative(G22, out=G22)
        G22.flat[::m + 1] = diag
    return np.abs(X.T - pis[:, k:]).max(axis=1), ""


def verify_coupled_stationarity(pis: np.ndarray, Z: np.ndarray, S: np.ndarray,
                                dangling: tuple[np.ndarray | None, str],
                                ) -> list[tuple[float, str]]:
    """Check the three identities binding the block parts of each stationary
    vector, one per row of ``pis``, from the factors Z and S of
    :func:`ldu_factors`.

    (a) the dangling part is stationary for the stochastic complement S;
    (b) the nondangling part equals the dangling part pushed through
        G21 (I-G11)^-1, that is pi2 Z;
    (c) the dangling part equals the nondangling part pushed through
        G12 (I-G22)^-1: ``dangling`` is the result of
        :func:`dangling_from_nondangling` for the same rows, which needs
        only G12 and G22, so a caller may check (c) before the factors
        exist.  A skipped (c) has its reason in the note.

    Returns one ``(deviation, note)`` per row, the deviation the largest of
    the identities checked.
    """
    k = Z.shape[1]
    n = k + S.shape[0]
    pis = np.asarray(pis, dtype=np.float64)
    if pis.ndim != 2 or pis.shape[1] != n:
        raise ValueError(f"expected stationary vectors as rows of length {n}, "
                         f"got shape {pis.shape}")
    P1, P2 = pis[:, :k], pis[:, k:]
    dev_c, skipped = dangling
    if dev_c is not None and len(dev_c) != len(pis):
        raise ValueError(f"identity (c) was checked for {len(dev_c)} rows, "
                         f"expected {len(pis)}")

    out = []
    for i, (pi1, pi2) in enumerate(zip(P1, P2)):
        devs = [float(np.abs(pi2 @ S - pi2).max()), float(np.abs(pi2 @ Z - pi1).max())]
        parts = [f"complement stationarity={devs[0]:.3e}",
                 f"nondangling from dangling={devs[1]:.3e}"]
        if dev_c is None:
            parts.append(f"dangling from nondangling skipped ({skipped})")
        else:
            devs.append(float(dev_c[i]))
            parts.append(f"dangling from nondangling={devs[2]:.3e}")
        out.append((max(devs), "; ".join(parts)))
    return out


def run_checks(g: WebGraph, params: PageRankParams, seed: int = 0,
               negative_control: bool = False) -> list[tuple]:
    """Every dense lab check of ``lumprank verify``, in its output order.

    Returns ``(status, name, max_dev, note)`` rows: status is PASS, FAIL or
    SKIP, and a SKIP row holds None as max_dev and its reason as the note.
    A leading block I - G11 singular to working precision fails
    ``ldu_reconstruction`` with max_dev inf and its reason as the note, and
    the checks that need the factors are SKIP rows.  This function owns the
    order of the checks, every threshold that turns a deviation into PASS
    or FAIL, and the negative controls (corrupted inputs that must FAIL),
    whose rows ``negative_control`` appends after all others.  ``seed``
    draws the spectrum identity's sample points.  Each dense factorization
    and determinant is computed once; the negative controls reuse them with
    only the corrupted input recomputed.
    """
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    n, k = g.n, p.k
    m = n - k
    Gt = build_dense_google(H, p, params)
    # each negative control is checked beside the check it corrupts, and
    # its row is printed last
    rows, controls = [], []

    def emit(name: str, passed: bool, dev: float, note: str = "", out=rows):
        out.append(("PASS" if passed else "FAIL", name, dev, note))

    def skip(name: str, why: str, out=rows):
        out.append(("SKIP", name, None, why))

    no_factors = "needs the block factors, which ldu_reconstruction could not form"
    if m == 0:
        for kind in TransformKind:
            skip(f"transform_condition[{kind.value}]", "no dangling nodes; nothing to lump")
        skip("spectrum_identity", "no dangling nodes")
    else:
        G1_direct = build_dense_lumped(permute_blocks(H, p), p, params)
        for kind in TransformKind:
            # L and L^-1 are row and column operations, never matrices: the
            # condition row proves both against the dense L, then the
            # conjugation applies them to the rows k..n-1 of G~
            dev, note = verify_transform_condition(kind, m)
            passed = dev <= 1e-12
            emit(f"transform_condition[{kind.value}]", passed, dev, "" if passed else note)
            lower, G1 = similarity_transform(Gt, kind, k)
            dev_tri = _absmax(lower[1:]) if m > 1 else 0.0
            del lower
            note = "degenerate order-1 transform" if m == 1 else ""
            emit(f"block_triangular[{kind.value}]", dev_tri <= 1e-11, dev_tri, note)
            G1 -= G1_direct
            dev_g1 = _absmax(G1)
            del G1
            emit(f"lumped_block_formula[{kind.value}]", dev_g1 <= 1e-12, dev_g1)

        def lumped_blocks():
            yield G1_direct
            if negative_control:
                # checked now, on the block corrupted in place: the lumped
                # block is freed before the decomposition checks allocate
                # theirs
                G1_direct[0, 0] += 0.1
                yield G1_direct

        (dev, note), *corrupted = check_spectrum_identity(Gt, lumped_blocks(), k, seed=seed)
        emit("spectrum_identity", dev <= 1e-8, dev, note)
        for dev, _ in corrupted:
            emit("negative_control[corrupted_lumped_block]", dev <= 1e-8, dev,
                 "expected FAIL", out=controls)
        del G1_direct

    if 1 <= k <= n - 1:
        dev = check_lumpable(Gt, k)
        emit("lumpable_dangling_to_nondangling", dev <= 1e-10, dev)

        pi_t = stationary_dense(Gt)  # solved before the factors exist
        # the negative control's perturbed vector is the second row, so
        # both vectors share the one solve with (I - G22)^T
        pis = pi_t[None]
        if negative_control:
            bad_pi = pi_t.copy()
            bad_pi[0] += 1e-3
            bad_pi /= bad_pi.sum()
            pis = np.stack([pi_t, bad_pi])
        # identity (c) reads only G12, G22 and the vectors: its solve's work
        # copy is taken while G~ is the only large array alive.  A singular
        # leading block then skips the coupled row and wastes this one solve
        dangling = dangling_from_nondangling(pis, Gt[:k, k:], Gt[k:, k:])
        try:
            Z, S, dev_ldu = ldu_factors(Gt, k)
        except np.linalg.LinAlgError as exc:
            # a leading block singular to working precision (alpha next to
            # 1 with a closed class) is a failed check, not a lost report
            emit("ldu_reconstruction", False, np.inf, str(exc))
            skip("stochastic_complement_rows", no_factors)
            skip("coupled_stationarity", no_factors)
            if negative_control:
                skip("negative_control[perturbed_stationary]", no_factors, out=controls)
        else:
            emit("ldu_reconstruction", dev_ldu <= 1e-12 * n, dev_ldu)

            dev_rows = stochastic_complement(S)
            emit("stochastic_complement_rows", dev_rows <= 1e-10, dev_rows)

            (dev, note), *perturbed = verify_coupled_stationarity(pis, Z, S, dangling)
            emit("coupled_stationarity", dev <= 1e-8, dev, note)
            for dev, _ in perturbed:
                emit("negative_control[perturbed_stationary]", dev <= 1e-6, dev,
                     "expected FAIL", out=controls)
    else:
        skip("lumpable_dangling_to_nondangling", "partition has an empty block")
        skip("decomposition_checks", "split needs both nondangling and dangling nodes")
    return rows + controls
