"""Dangling-node lumping: partition, the lumped chain's matrix, matrix-free
operators, the linear solve, and recovery of the full ranking.

The full chain has transition matrix G = alpha*(H + d w^T) + (1-alpha) e v^T.
Reordering nondangling nodes first turns G into a 2x2 block form whose lower
blocks are rank one; collapsing the dangling block to one state yields a
(k+1)-order chain with the same nonzero spectrum.  That chain is itself a
Google matrix, of a (k+1)-node graph whose only dangling node is the lumped
state, so both chains' stationary vectors solve a system
(I - alpha*P^T) x = (1-alpha)*v with P row-stochastic, and one sparse type,
:class:`~lumprank.graph.HyperlinkMatrix`, one operator builder and one
solve, :func:`solve_chain`, serve both: BiCGSTAB from v, stopped on a
rigorous 1-norm error bound.  :func:`solve_lumped` runs it on the lumped
chain and expands sigma back to all n nodes in closed form; ``compare`` runs
it on the full chain.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import (
    HyperlinkMatrix,
    PageRankParams,
    WebGraph,
    build_hyperlink_matrix,
)

__all__ = ["DanglingPartition", "SolveReport", "bicgstab", "detect_dangling",
           "full_operator", "permute_blocks", "power_method", "recover_pagerank",
           "solve_chain", "solve_lumped", "unpermute"]


@dataclass(frozen=True)
class DanglingPartition:
    """Reordering that lists the k nondangling nodes first, dangling last.

    ``perm[i]`` is the original index at permuted position ``i``; both groups
    keep ascending original order so the permutation is deterministic.
    """

    k: int
    perm: np.ndarray
    inv_perm: np.ndarray

    @property
    def n(self) -> int:
        return self.perm.size

    def lump(self, x: np.ndarray) -> np.ndarray:
        """[x1, sum x2]: the nondangling entries of the original-order
        n-vector x in permuted order, then its dangling entries summed."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        return np.append(x[self.perm[:self.k]], x[self.perm[self.k:]].sum())


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a PageRank solve; scores are in original node order.

    ``iterations`` counts applications of the lumped operator, the
    true-residual checks included.  ``residual`` is the 1-norm of the true
    residual of the lumped linear system at the returned lumped vector, and
    ``error_bound`` = residual/((1-alpha)*s), s the sum of the recovered
    vector before its renormalisation, bounds the 1-norm distance of
    ``pagerank`` from the exact PageRank vector (derived in
    :func:`solve_lumped`); ``converged`` means error_bound <= tol.

    ``timings`` holds the wall seconds of each stage of :func:`solve_lumped`:
    hyperlink (matrix build), partition, blocks, loop (the linear solve) and
    recover (expansion to all n nodes).
    """

    iterations: int
    residual: float
    error_bound: float
    converged: bool
    pagerank: np.ndarray
    k: int
    n: int
    timings: dict


def detect_dangling(H: HyperlinkMatrix) -> DanglingPartition:
    """Split nodes on structurally empty rows of H.

    The test is on stored entries, never on floating-point row sums, so a row
    summing to 0.999... due to rounding can never be misclassified.
    """
    mask = H.dangling_mask()
    nd = np.flatnonzero(~mask)
    d = np.flatnonzero(mask)
    perm = np.concatenate([nd, d])
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(H.n)
    return DanglingPartition(k=int(nd.size), perm=perm, inv_perm=inv_perm)


def permute_blocks(H: HyperlinkMatrix, p: DanglingPartition) -> HyperlinkMatrix:
    """The lumped chain's graph, built straight from the CSR arrays of H.

    It is the (k+1)-order hyperlink matrix whose rows 0..k-1 are
    A = [H11 | H12 e], the nondangling rows of the permuted H with each row's
    links to dangling nodes summed into one entry of column k, and whose row
    k, the lumped state, is its one dangling row.  Every row of A stores its
    column-k entry, a 0.0 for a row with no dangling links.  alpha, v and w
    enter only through rank-one terms: the lumped chain is
    M = alpha*S1 + (1-alpha) e lump(v)^T with S1 = [A; lump(w)^T]
    row-stochastic.  No dense block of size k*(n-k) or (n-k)^2 is ever formed.
    """
    if p.perm.size != H.n:
        raise ValueError("partition and matrix sizes differ")
    k = p.k
    # dangling rows are structurally empty, so every entry lies in the top k
    # rows; CSR order keeps prow ascending, and each row's entries in order
    prow = p.inv_perm[H.rows]
    pcol = p.inv_perm[H.indices]
    # entry positions of each block; gathers by integer positions cost less
    # than boolean-mask selections
    in11, in12 = np.flatnonzero(pcol < k), np.flatnonzero(pcol >= k)
    # H12 e: each row with dangling links reduced on its own, in storage order
    rows12 = prow[in12]
    starts = np.flatnonzero(np.diff(rows12, prepend=-1))
    r12 = np.zeros(k)
    r12[rows12[starts]] = np.add.reduceat(H.data[in12], starts)
    # A in row order: each row's H11 entries, then its H12 e entry last.
    # Column k holds k entries, so rmatvec sums its bin pairwise.
    rows11 = prow[in11]
    indptr = np.zeros(k + 2, dtype=np.int64)
    np.cumsum(np.bincount(rows11, minlength=k) + 1, out=indptr[1:k + 1])
    indptr[k + 1] = indptr[k]  # the lumped state's empty row
    # H11 entry t follows t H11 entries and one H12 e entry per earlier row
    pos11 = rows11 + np.arange(in11.size)
    cols = np.full(in11.size + k, k)
    cols[pos11] = pcol[in11]
    data = np.empty(in11.size + k)
    data[pos11] = H.data[in11]
    data[indptr[1:k + 1] - 1] = r12
    return HyperlinkMatrix(n=k + 1, indptr=indptr, indices=cols, data=data)


def _system(H: HyperlinkMatrix, w: np.ndarray,
            alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Bind x -> (I - alpha*P^T) x for P = H + d w^T, with d the indicator of
    H's dangling rows: x - alpha*(H^T x + (sum of x over dangling)*w), one
    sparse product and two axpys.

    The full chain passes its hyperlink matrix, the lumped chain the matrix
    of :func:`permute_blocks`, whose one dangling row is the lumped state.
    """
    m = H.n
    dangling = np.flatnonzero(H.dangling_mask())

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (m,):
            raise ValueError(f"expected vector of length {m}, got shape {x.shape}")
        y = H.rmatvec(x)
        y += x[dangling].sum() * w
        y *= -alpha
        y += x
        return y

    return apply


def full_operator(H: HyperlinkMatrix,
                  params: PageRankParams) -> Callable[[np.ndarray], np.ndarray]:
    """Bind a matrix-free x^T -> x^T G step over the full n-node chain.

    x^T G = x - (I - alpha*P^T) x + (1-alpha)*(x^T e)*v^T, P = H + d w^T:
    x minus the operator :func:`solve_chain` solves with, plus the teleport
    term.  Cost O(nnz(H) + n).
    """
    if params.n != H.n:
        raise ValueError("parameter vectors and matrix sizes differ")
    system = _system(H, params.w, params.alpha)

    def apply(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = x - system(x)
        out += ((1.0 - params.alpha) * x.sum()) * params.v
        return out

    return apply


def power_method(apply_op: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                 tol: float, max_iter: int):
    """Left power iteration with per-step renormalization to unit 1-norm.

    Stops when the 1-norm difference of successive iterates drops below tol,
    which is not an error bound.  Returns (iterate, iterations, residual,
    converged), where iterations counts applications of apply_op; with
    max_iter=0 the start vector comes straight back unconverged.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    residual = np.inf
    for t in range(1, max_iter + 1):
        y = apply_op(x)
        total = y.sum()
        if not (np.isfinite(total) and total > 0.0):  # a sum is non-finite if any entry is
            raise FloatingPointError(f"non-finite or degenerate iterate at step {t}")
        y /= total  # exact no-op in exact arithmetic; arrests rounding drift
        residual = float(np.abs(y - x).sum())
        if residual < tol:
            return y, t, residual, True
        x = y
    return x, max_iter, residual, False


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's own einsum loop, never BLAS: handing a long dot to
    OpenBLAS's threads stalled for up to 100 ms on a 2-vCPU host with
    hypervisor steal, against microseconds for the loop."""
    return np.einsum("i,i->", a, b)


@np.errstate(over="ignore", invalid="ignore")  # non-finite candidates are never checked
def bicgstab(apply_op: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
             x0: np.ndarray, tol: float, max_iter: int):
    """Solve apply_op(x) = rhs for a probability vector x by BiCGSTAB
    (van der Vorst 1992), stopping on the true residual.

    Only checked vectors are returned.  A check clips the iterate to be
    nonnegative, renormalises it to unit 1-norm and applies apply_op once for
    its true residual rhs - apply_op(x).  The start x0 is checked first;
    after that a check runs when the recursive residual (s at the half step,
    r at the full step) has 1-norm at most tol, when the recurrence breaks
    down (a zero or non-finite rho, rhat.v, t.t or omega), and when one more
    step would leave no application for a check.  A check that does not
    converge restarts the recurrence from the checked vector, its true
    residual and the shadow vector rhat = r.  A breakdown at a restart's
    first product (rhat.v) ends the solve unchecked, since a restart from the
    same x, r and rhat would repeat it.  A candidate that is not finite is
    never checked; the recurrence restarts from the best checked vector.
    The overflow that makes such a candidate raises no numpy warning.  A
    start vector that cannot be checked (not finite, or no positive entry)
    raises ValueError.

    Returns (x, iterations, residual, converged) for the checked vector with
    the smallest true residual: ``residual`` is that residual's 1-norm,
    ``converged`` means residual <= tol, and ``iterations`` counts
    applications of apply_op, checks included.  It never exceeds max_iter,
    which must be at least 1.
    """
    applied = 0
    best = None  # (x, r, residual) of the checked vector with the smallest residual

    def check(x):
        nonlocal applied, best
        x = np.maximum(x, 0.0)
        total = x.sum()  # a sum is non-finite if any entry is
        if not (np.isfinite(total) and total > 0.0):
            return best
        x /= total
        r = rhs - apply_op(x)
        applied += 1
        res = float(np.abs(r).sum())
        if best is None or res < best[2]:
            best = (x, r, res)
        return x, r, res

    if check(np.asarray(x0, dtype=np.float64)) is None:
        raise ValueError("bicgstab: start vector x0 is not finite or has no positive entry")
    x, r, res = best
    while res > tol and applied + 2 <= max_iter:
        rhat = p = r  # never updated in place
        rho = _dot(rhat, r)
        candidate = None  # only a step sets it
        while applied + 2 <= max_iter:
            v = apply_op(p)
            applied += 1
            rhat_v = _dot(rhat, v)
            if not 0.0 < abs(rhat_v) < np.inf:
                break
            a = rho / rhat_v
            candidate = x + a * p
            s = r - a * v
            # s before t: a vector solved at the half step stops here, never
            # reaching t = 0
            if np.abs(s).sum() <= tol or applied + 2 > max_iter:
                break
            t = apply_op(s)
            applied += 1
            tt = _dot(t, t)
            if not 0.0 < tt < np.inf:
                break
            omega = _dot(t, s) / tt
            candidate = x = candidate + omega * s
            r = s - omega * t
            rho_next = _dot(rhat, r)
            # beta divides by rho and omega
            if np.abs(r).sum() <= tol or not 0.0 < abs(rho_next * omega) < np.inf:
                break
            p = r + (rho_next / rho) * (a / omega) * (p - omega * v)
            rho = rho_next
        if candidate is None:  # a restart from the same x, r and rhat would repeat it
            break
        x, r, res = check(candidate)
    x, _, res = best
    return x, applied, res, res <= tol


def solve_chain(H: HyperlinkMatrix, v: np.ndarray, w: np.ndarray, alpha: float,
                tol: float, max_iter: int):
    """Stationary vector of the Google matrix alpha*P + (1-alpha) e v^T,
    P = H + d w^T, by :func:`bicgstab` on (I - alpha*P^T) x = (1-alpha)*v
    from x = v.

    P is row-stochastic, so ||P^T||_1 = 1 and, by the Neumann series,
    ||(I - alpha*P^T)^-1||_1 <= 1/(1-alpha): a checked iterate x with true
    residual r is within error_bound = ||r||_1/(1-alpha) of the exact x*, and
    the solve stops once that is at most tol.  On the full chain x is the
    answer itself; :func:`solve_lumped` carries the same bound through the
    recovery map to the full chain's answer.

    Returns (x, iterations, residual, error_bound), the first three as
    :func:`bicgstab` returns them.  Cost O(nnz(H) + n) per application.
    """
    scale = 1.0 / (1.0 - alpha)  # error_bound per unit of ||r||_1
    x, iters, res, _ = bicgstab(_system(H, w, alpha), (1.0 - alpha) * v, v, tol / scale,
                                max_iter)
    return x, iters, res, scale * res


def recover_pagerank(sigma: np.ndarray, H: HyperlinkMatrix, p: DanglingPartition,
                     params: PageRankParams) -> np.ndarray:
    """Expand the lumped stationary vector to all n nodes (permuted order).

    The first k entries are sigma's nondangling entries unchanged; the tail
    redistributes the lumped node's mass, with v2 and w2 the dangling entries
    of v and w in permuted order:

        tail = alpha*(sa^T H12) + (1-alpha)*(sa^T e)*v2^T + sb*u2^T,
        u2 = alpha*w2 + (1-alpha)*v2

    sa^T H12 is the dangling part of x^T H, x being sa on the nondangling
    nodes and 0 elsewhere.  No renormalization: stationarity of sigma makes
    the result sum to 1.
    """
    k, alpha = p.k, params.alpha
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (k + 1,):
        raise ValueError(f"expected vector of length {k + 1}, got shape {sigma.shape}")
    if not params.n == p.n == H.n:
        raise ValueError("matrix, partition and parameter vector sizes differ")
    v2, w2 = params.v[p.perm[k:]], params.w[p.perm[k:]]
    sa = sigma[:k]
    x = np.zeros(p.n)
    x[p.perm[:k]] = sa
    tail = H.rmatvec(x)[p.perm[k:]]
    tail *= alpha
    tail += ((1.0 - alpha) * sa.sum()) * v2
    tail += sigma[k] * (alpha * w2 + (1.0 - alpha) * v2)
    return np.concatenate([sa, tail])


def unpermute(pi_tilde: np.ndarray, p: DanglingPartition) -> np.ndarray:
    """Map a permuted-order vector back to original node order."""
    pi_tilde = np.asarray(pi_tilde)
    if pi_tilde.shape != (p.perm.size,):
        raise ValueError(f"expected vector of length {p.perm.size}, got shape {pi_tilde.shape}")
    out = np.empty_like(pi_tilde)
    out[p.perm] = pi_tilde
    return out


@contextmanager
def _stage(timings: dict, name: str):
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def solve_lumped(g: WebGraph, params: PageRankParams) -> SolveReport:
    """Full pipeline: hyperlink matrix, partition, BiCGSTAB on the lumped
    linear system, recovery, un-permutation.

    Every graph runs the (k+1)-order chain.  With no dangling nodes the lumped
    state gets no inflow and its entry stays 0; with no nondangling nodes the
    chain is that one state, whose recovery is u = alpha*w + (1-alpha)*v.

    The lumped stationary vector solves (I - alpha*S1^T) sigma = (1-alpha)*v,
    with S1 = [A; w^T], A the matrix of :func:`permute_blocks`, and v, w
    lumped by :meth:`DanglingPartition.lump`.  :func:`solve_chain` solves it
    at tol and returns delta = ||r||_1/(1-alpha), r the true residual of its
    checked iterate sigma, which is clipped to be nonnegative and sums to 1.
    Recovery carries r to the full chain exactly: p = R(sigma) from
    :func:`recover_pagerank` satisfies, in permuted order,

        (1-alpha)*v - (I - alpha*P^T) p = [r1 + alpha*r_k*w1 ; alpha*r_k*w2],
        e^T p = s = 1 + r_k,

    with r1 the first k entries of r, r_k its last, and w1, w2 the
    nondangling and dangling entries of w.  The report is pi = p/s, so its
    full residual is ([r1 ; 0] + r_k*u)/s with u = alpha*w + (1-alpha)*v, a
    probability vector, and has 1-norm at most ||r||_1/s.  By
    :func:`solve_chain`'s Neumann step on the full chain,
    ||pi - pi*||_1 <= delta/s, the reported error_bound.  So one rule bounds
    both chains, the lumped one up to the factor 1/s = 1 + O((1-alpha)*delta).

    The bound holds in exact arithmetic on the computed sigma.  In floating
    point, rounding puts a floor under ||r||_1.  A's rmatvec sums the k
    column-k terms pairwise, so the floor does not grow with k: at alpha
    0.99, error_bound met 1e-12 on every graph tried, of 16k to 200k nodes
    with k = 2,000 to 20,000.  A tol below the floor is never met: the solve
    runs out of max_iter and reports not converged.  Near the floor the bound
    is not rigorous either: the float64 residual can read low by about u
    (the unit roundoff) per unit of ||sigma||_1, and 1/(1-alpha) magnifies
    that, so below ~u/(1-alpha) neither chain's error_bound is proven.
    """
    timings = {}
    with _stage(timings, "hyperlink"):
        H = build_hyperlink_matrix(g)
    with _stage(timings, "partition"):
        p = detect_dangling(H)
    with _stage(timings, "blocks"):
        A = permute_blocks(H, p)
    with _stage(timings, "loop"):
        sigma, iters, res, delta = solve_chain(A, p.lump(params.v), p.lump(params.w),
                                               params.alpha, params.tol, params.max_iter)
    with _stage(timings, "recover"):
        pi = unpermute(recover_pagerank(sigma, H, p, params), p)
        # s = 1 + r_k: exact no-op at stationarity; keeps the report a
        # probability vector
        s = pi.sum()
        pi /= s
    error_bound = delta / s
    return SolveReport(iterations=iters, residual=res, error_bound=error_bound,
                       converged=error_bound <= params.tol, pagerank=pi, k=p.k, n=H.n,
                       timings=timings)
