"""Block LDU factorization of I - G~, the stochastic complement of the
dangling block, the coupled stationarity identities linking the two block
rankings, and :func:`run_checks`, the check sequence of ``lumprank verify``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import PageRankParams, WebGraph, build_hyperlink_matrix
from .lumping import detect_dangling, permute_blocks
from .transforms import (
    DENSE_LIMIT_DEFAULT,
    CheckReport,
    TransformKind,
    _absmax,
    _solve,
    _spectrum_check,
    _transform_inverse,
    build_dense_google,
    build_dense_lumped,
    build_transform,
    check_lumpable,
    similarity_transform,
    stationary_dense,
    verify_transform_condition,
)


@dataclass(frozen=True)
class LduFactors:
    """I - G~ = Lfac @ Dfac @ Ufac with unit block-triangular outer factors.

    Dfac is block diagonal: the inverted leading block on top, I minus the
    stochastic complement (singular by stochasticity) at the bottom.
    """

    Lfac: np.ndarray
    Dfac: np.ndarray
    Ufac: np.ndarray
    k: int


@dataclass(frozen=True)
class _BlockSplit:
    """G~ split at k, with the solve every block identity shares.

    With D11 = I - G11, Z = G21 D11^-1 is one solve with D11^T, and the
    stochastic complement is S = G22 + Z G12.  G12, G21 and G22 are views
    of G~.
    """

    k: int
    G12: np.ndarray
    G21: np.ndarray
    G22: np.ndarray
    Z: np.ndarray
    S: np.ndarray

    @property
    def n(self) -> int:
        return self.k + self.S.shape[0]

    @cached_property
    def W(self):
        """W = G12 (I - G22)^-1, one solve with (I - G22)^T, or None when a
        trailing row sums to 1 within 1e-12 (I - G22 is then singular).
        Computed on first use: only the coupled stationarity identity (c)
        needs it."""
        if self.G22.sum(axis=1).max() >= 1.0 - 1e-12:
            return None
        A = -self.G22.T
        A.flat[::A.shape[0] + 1] += 1.0  # (I - G22)^T, the identity added in place
        return _solve(A, self.G12.T, "I minus the trailing block").T


def _block_split(Gt: np.ndarray, k: int):
    """Returns (split, D11, Y) with Y = D11^-1 G12, one solve with D11.  Only
    the LDU factors read D11 and Y, so they stay outside the split, and a
    caller frees them once it is done with the factors."""
    Gt = np.asarray(Gt, dtype=np.float64)
    n = Gt.shape[0]
    if Gt.ndim != 2 or Gt.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {Gt.shape}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"split point k={k} must leave both blocks nonempty (n={n})")
    G12, G21, G22 = Gt[:k, k:], Gt[k:, :k], Gt[k:, k:]
    D11 = -Gt[:k, :k]
    D11.flat[::k + 1] += 1.0  # I - G11, the identity added in place
    Y = _solve(D11, G12, "I minus the leading block")
    Z = _solve(D11.T, G21.T, "I minus the leading block").T
    S = Z @ G12
    S += G22
    return _BlockSplit(k=k, G12=G12, G21=G21, G22=G22, Z=Z, S=S), D11, Y


def ldu_factors(Gt: np.ndarray, k: int) -> LduFactors:
    """Block LDU factors of I - G~ split at k.

    The leading block I - G11 is nonsingular whenever the damping factor is
    below 1; a singular leading block raises LinAlgError.
    """
    s, D11, Y = _block_split(Gt, k)
    n = s.n
    Lfac = np.eye(n)
    Lfac[k:, :k] = -s.Z
    Ufac = np.eye(n)
    Ufac[:k, k:] = -Y
    Dfac = np.zeros((n, n))
    Dfac[:k, :k] = D11
    Dfac[k:, k:] = np.eye(n - k) - s.S
    return LduFactors(Lfac=Lfac, Dfac=Dfac, Ufac=Ufac, k=k)


def _ldu_deviation(s: _BlockSplit, D11: np.ndarray, Y: np.ndarray) -> float:
    """max |L D U - (I - G~)| over the factors of :func:`ldu_factors`, block by block.

    With L = [[I, 0], [-Z, I]], D = blockdiag(D11, I - S) and
    U = [[I, -Y], [0, I]], the product is
    [[D11, -D11 Y], [-Z D11, Z D11 Y + I - S]].  The unit and zero blocks
    of L and U are exact by this construction, and the leading block is
    D11 = I - G11 itself, so the other three blocks hold the whole
    deviation: about 2k(n-k)(n+k) flops instead of the dense 4n^3.  The
    identities in the trailing block cancel, so it is compared as
    Z D11 Y - S + G22 in one (n-k)-order buffer.
    """
    D11Y = D11 @ Y
    trailing = s.Z @ D11Y
    trailing -= s.S
    trailing += s.G22
    dev_trailing = _absmax(trailing)
    del trailing
    D11Y -= s.G12
    ZD11 = s.Z @ D11
    ZD11 -= s.G21
    return max(_absmax(D11Y), _absmax(ZD11), dev_trailing)


def stochastic_complement(Gt: np.ndarray, k: int) -> np.ndarray:
    """Stochastic complement S = G22 + G21 (I-G11)^-1 G12 of the trailing block.

    The complement of a stochastic matrix is stochastic; entries below -1e-12
    or row sums off 1 by more than 1e-10 mean the input was not a stochastic
    matrix split and raise ValueError.
    """
    S = _block_split(Gt, k)[0].S
    if S.min() < -1e-12:
        raise ValueError(f"complement has entry {S.min():.3e} < -1e-12; input not stochastic?")
    row_dev = np.abs(S.sum(axis=1) - 1.0).max()
    if row_dev > 1e-10:
        raise ValueError(f"complement row sums deviate from 1 by {row_dev:.3e} > 1e-10")
    return S


def _coupled_stationarity(s: _BlockSplit, pi_tilde: np.ndarray, tol: float) -> CheckReport:
    pi_tilde = np.asarray(pi_tilde, dtype=np.float64)
    if pi_tilde.shape != (s.n,):
        raise ValueError(f"expected stationary vector of length {s.n}, got shape {pi_tilde.shape}")
    pi1, pi2 = pi_tilde[:s.k], pi_tilde[s.k:]

    dev_a = float(np.abs(pi2 @ s.S - pi2).max())
    dev_b = float(np.abs(pi2 @ s.Z - pi1).max())

    devs = [dev_a, dev_b]
    parts = [f"complement stationarity={dev_a:.3e}",
             f"nondangling from dangling={dev_b:.3e}"]
    if s.W is None:
        parts.append("dangling from nondangling skipped (trailing block has unit row sums)")
    else:
        dev_c = float(np.abs(pi1 @ s.W - pi2).max())
        devs.append(dev_c)
        parts.append(f"dangling from nondangling={dev_c:.3e}")

    worst = max(devs)
    return CheckReport(passed=worst <= tol, max_abs_deviation=worst,
                       detail="; ".join(parts))


def verify_coupled_stationarity(pi_tilde: np.ndarray, Gt: np.ndarray, k: int,
                                tol: float = 1e-8) -> CheckReport:
    """Check the three identities binding the block parts of the stationary vector.

    (a) the dangling part is stationary for the stochastic complement;
    (b) the nondangling part equals the dangling part pushed through
        G21 (I-G11)^-1;
    (c) the dangling part equals the nondangling part pushed through
        G12 (I-G22)^-1.

    (c) needs I - G22 nonsingular; it is skipped (and reported) when the
    trailing block has a row sum at 1 within 1e-12.
    """
    return _coupled_stationarity(_block_split(Gt, k)[0], pi_tilde, tol)


def run_checks(g: WebGraph, params: PageRankParams, seed: int = 0,
               negative_control: bool = False,
               dense_limit: int = DENSE_LIMIT_DEFAULT) -> list[tuple]:
    """Every dense lab check of ``lumprank verify``, in its output order.

    Returns ``(status, name, max_dev, note)`` rows: status is PASS, FAIL or
    SKIP, and a SKIP row holds None as max_dev and its reason as the note.
    This function owns the order of the checks, their thresholds and the
    negative controls (corrupted inputs that must FAIL), which
    ``negative_control`` appends.  ``seed`` draws the spectrum identity's
    sample points.  Each dense factorization and determinant is computed
    once; the negative controls reuse them with only the corrupted input
    recomputed.
    """
    H = build_hyperlink_matrix(g)
    p = detect_dangling(H)
    n, k = g.n, p.k
    m = n - k
    Gt = build_dense_google(g, params, p, dense_limit=dense_limit)
    rows = []

    def emit(name: str, passed: bool, dev: float, note: str = ""):
        rows.append(("PASS" if passed else "FAIL", name, dev, note))

    def skip(name: str, why: str):
        rows.append(("SKIP", name, None, why))

    split = corrupted_block = None
    if m == 0:
        for kind in TransformKind:
            skip(f"transform_condition[{kind.value}]", "no dangling nodes; nothing to lump")
        skip("spectrum_identity", "no dangling nodes")
    else:
        G1_direct = build_dense_lumped(permute_blocks(H, p), p, params)
        for kind in TransformKind:
            L = build_transform(kind, m)
            # one exact inverse per transform, in closed form: the condition
            # check proves it by its residual L L^-1 - I and reads L^-1 e1 as
            # its first column, then the conjugation trusts it
            Linv = _transform_inverse(kind, m)
            rep = verify_transform_condition(L, tol=1e-12, Linv=Linv)
            emit(f"transform_condition[{kind.value}]", rep.passed,
                 rep.max_abs_deviation, rep.detail if not rep.passed else "")
            lower, G1 = similarity_transform(Gt, L, k, Linv=Linv)
            del L, Linv  # each transform's arrays are freed before the next one's
            dev_tri = _absmax(lower[1:]) if m > 1 else 0.0
            del lower
            note = "degenerate order-1 transform" if m == 1 else ""
            emit(f"block_triangular[{kind.value}]", dev_tri <= 1e-11, dev_tri, note)
            G1 -= G1_direct
            dev_g1 = _absmax(G1)
            del G1
            emit(f"lumped_block_formula[{kind.value}]", dev_g1 <= 1e-12, dev_g1)
        spectrum = _spectrum_check(Gt, k, seed)
        rep = spectrum(G1_direct, tol=1e-8)
        emit("spectrum_identity", rep.passed, rep.max_abs_deviation, rep.detail)
        if negative_control:
            # checked now, on the block corrupted in place, and reported
            # last: the lumped block is freed before the decomposition
            # checks allocate theirs
            G1_direct[0, 0] += 0.1
            corrupted_block = spectrum(G1_direct, tol=1e-8)
        del G1_direct, spectrum

    if 1 <= k <= n - 1:
        rep = check_lumpable(Gt, [k], tol=1e-10, blocks=[(1, 0)])
        emit("lumpable_dangling_to_nondangling", rep.passed, rep.max_abs_deviation)

        pi_t = stationary_dense(Gt)  # solved before the split's blocks exist
        split, D11, Y = _block_split(Gt, k)
        dev_ldu = _ldu_deviation(split, D11, Y)
        del D11, Y  # no later check reads them; W's solve reuses their memory
        emit("ldu_reconstruction", dev_ldu <= 1e-12 * n, dev_ldu)

        S = split.S
        dev_rows = max(float(np.abs(S.sum(axis=1) - 1.0).max()),
                       float(max(-S.min(), 0.0)))
        emit("stochastic_complement_rows", dev_rows <= 1e-10, dev_rows)

        rep = _coupled_stationarity(split, pi_t, tol=1e-8)
        emit("coupled_stationarity", rep.passed, rep.max_abs_deviation, rep.detail)
    else:
        skip("lumpable_dangling_to_nondangling", "partition has an empty block")
        skip("decomposition_checks", "split needs both nondangling and dangling nodes")

    if negative_control:
        if corrupted_block is not None:
            emit("negative_control[corrupted_lumped_block]", corrupted_block.passed,
                 corrupted_block.max_abs_deviation, "expected FAIL")
        if split is not None:
            bad_pi = pi_t.copy()
            bad_pi[0] += 1e-3
            bad_pi /= bad_pi.sum()
            rep = _coupled_stationarity(split, bad_pi, tol=1e-6)
            emit("negative_control[perturbed_stationary]", rep.passed,
                 rep.max_abs_deviation, "expected FAIL")
    return rows
