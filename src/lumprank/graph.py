"""Web-graph ingestion, the sparse hyperlink matrix, and probability vectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["EdgeListParseError", "HyperlinkMatrix", "PageRankParams", "WebGraph",
           "build_hyperlink_matrix", "load_weight_vector", "parse_edge_list",
           "probability_vector", "uniform_vector"]


class EdgeListParseError(ValueError):
    """Raised when edge-list text cannot be parsed; message carries the line number."""


@dataclass(frozen=True)
class WebGraph:
    """Directed link graph in CSR form over dense 0-based internal indices.

    External labels (integers in [0, 2**63)) are renumbered in
    first-appearance order; ``labels[i]`` is the external label of internal
    node ``i``.  The out-neighbours of node ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending and duplicate-free.
    """

    n: int
    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


# The only bytes the fast tokeniser accepts.
_DATA_BYTES = b"0123456789 \t\n"
_MAX_LABEL = 2**63 - 1
# Bytes per pass of the fast reader's line check, so that its masks stay small.
_CHUNK = 1 << 18
# How far a probability vector's sum may stray from 1.
_SUM_TOL = 1e-12
# Columns with more stored entries than this get their rmatvec bin summed
# pairwise.  bincount adds a bin's m terms in one serial chain, whose rounding
# grows like m; numpy's pairwise sum also runs serially, in 8 interleaved
# chains, up to its block of 128 terms.  So no bin's rounding exceeds ~128
# units in the last place of its terms' sum, however large the graph.
_PAIRWISE_MIN = 128


def parse_edge_list(text: str | bytes) -> WebGraph:
    """Parse "src dst" lines into a :class:`WebGraph`.

    Blank lines and lines whose first non-blank character is ``#`` are
    ignored.  Labels are decimal integers in [0, 2**63).  Duplicate edges
    collapse to one; self-loops count as ordinary out-edges.  Bytes are read
    as UTF-8.  Raises :class:`EdgeListParseError` on a malformed line, on
    bytes that are not UTF-8 (naming the line that holds the first bad byte),
    or on empty input.
    """
    if isinstance(text, str) and not text.isascii():
        return _build_graph(_checked_pairs(text))
    raw = text.encode("ascii") if isinstance(text, str) else text
    pairs = _fast_pairs(raw)
    if pairs is None:
        pairs = _checked_pairs(_decode_utf8(raw))
    # on CPython 3.11+ the caller's argument lives only in this frame, so the
    # input's bytes are freed before the graph build, which sets the peak
    del text, raw
    return _build_graph(pairs)


def _decode_utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as _checked_pairs does: the valid prefix, split by
        # str.splitlines, ends on the line that holds the bad byte
        lineno = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise EdgeListParseError(
            f"line {lineno}: byte 0x{raw[exc.start]:02x} is not valid utf-8 ({exc.reason})"
        ) from None


def _fast_pairs(raw: bytes) -> np.ndarray | None:
    """(m, 2) label pairs read by ``np.fromstring``, or None to read line by line.

    Returns None unless ``raw`` holds only ASCII digits, spaces, tabs and
    ``\\n``, and every line that is not blank holds exactly two labels below
    2**63 - 1.  On such input fromstring and :func:`_checked_pairs` agree;
    anything else (comments, ``\\r\\n`` and the label 2**63 - 1 included),
    valid or not, is left to the checked reader.  The line structure is
    checked on the bytes as arrays, ``_CHUNK`` bytes at a time: each label's
    first digit and each newline, in order, must come as newlines and pairs
    of labels.
    """
    if raw.translate(None, _DATA_BYTES) or not raw or raw.isspace():  # strip() would copy raw
        return None
    byte = np.frombuffer(raw, np.uint8)
    # the label starts (True) and newlines (False) in order, a chunk at a
    # time, behind the last two of the chunk before; a newline opens the file
    event, labels = np.zeros(2, bool), 0
    for lo in range(0, byte.size, _CHUNK):
        chunk = byte[lo:lo + _CHUNK]
        blank = chunk <= ord(" ")  # space, tab or newline
        start = np.empty_like(blank)  # the first digit of each label
        start[0] = not blank[0] and (lo == 0 or byte[lo - 1] <= ord(" "))
        np.greater(blank[:-1], blank[1:], out=start[1:])
        event = np.concatenate([event[-2:], start[start | (chunk == ord("\n"))]])
        labels += np.count_nonzero(event[2:])
        if _not_two_per_line(event):
            return None
    if _not_two_per_line(np.append(event[-2:], False)):  # a newline closes it
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    # fromstring clamps a label of 2**63 or more to 2**63 - 1, so a file that
    # holds that value is the checked reader's to accept or reject
    if values.size != labels or (values == _MAX_LABEL).any():
        return None
    return values.reshape(-1, 2)


def _not_two_per_line(event: np.ndarray) -> bool:
    """Whether a label (True) among ``event[1:-1]`` stands alone between
    newlines (False) or in a run of three: then some line does not hold
    exactly two labels."""
    before, mid, after = event[:-2], event[1:-1], event[2:]
    return bool((mid & before & after).any() or (mid > (before | after)).any())


def _decimal(token: str) -> int:
    """int(token) for ASCII decimal text; int() alone also reads ``1_000``
    and non-ASCII digits such as ``\u0661``."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _checked_pairs(text: str) -> np.ndarray:
    """(m, 2) label pairs read line by line; the first bad line raises
    :class:`EdgeListParseError` with its number."""
    flat: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected two node labels, got {stripped!r}"
            )
        try:
            src_label, dst_label = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer node label in {stripped!r}"
            ) from None
        if src_label < 0 or dst_label < 0:
            raise EdgeListParseError(
                f"line {lineno}: negative node label in {stripped!r}"
            )
        if src_label > _MAX_LABEL or dst_label > _MAX_LABEL:
            raise EdgeListParseError(
                f"line {lineno}: node label too large (must be below 2**63) in {stripped!r}"
            )
        flat += (src_label, dst_label)
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


def _build_graph(pairs: np.ndarray) -> WebGraph:
    """CSR graph from (m, 2) label pairs, nodes numbered in first-appearance order."""
    if pairs.size == 0:
        raise EdgeListParseError("empty edge list: no nodes or edges found")
    flat = pairs.ravel()  # src0, dst0, src1, dst1, ...: the order labels appear in
    uniq, inverse = np.unique(flat, return_inverse=True)
    first = np.full(uniq.size, flat.size)
    np.minimum.at(first, inverse, np.arange(flat.size))
    by_first = np.argsort(first)
    index = np.empty_like(by_first)
    index[by_first] = np.arange(uniq.size)
    ids = index[inverse]
    n = uniq.size
    # one sortable key per edge; n <= 2m keeps n*n below 2**63 for any graph in memory
    key = np.sort(ids[0::2] * n + ids[1::2])
    key = key[np.r_[True, key[1:] != key[:-1]]]
    src, indices = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return WebGraph(n=n, labels=uniq[by_first], indptr=indptr, indices=indices)


@dataclass(frozen=True)
class HyperlinkMatrix:
    """Square sparse matrix as numpy CSR arrays, every row either empty or
    summing to 1: the link matrix of a graph.

    Row ``i`` stores ``data[indptr[i]:indptr[i + 1]]`` at columns
    ``indices[indptr[i]:indptr[i + 1]]``, each column at most once; ``rows``,
    built with the matrix, holds the row of each stored entry, and the private
    fields the entries of each column with more than ``_PAIRWISE_MIN`` of
    them, which :meth:`rmatvec` sums pairwise.  A dangling row
    stores no entries at all, so danglingness is a structural property of the
    storage, never a floating-point comparison.  From
    :func:`build_hyperlink_matrix` a row with out-links holds 1/out_degree at
    each out-neighbor column; the lumped chain's matrix of
    :func:`~lumprank.lumping.permute_blocks` carries other weights and may
    store explicit zeros.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    _long_cols: np.ndarray = field(init=False, repr=False, compare=False)
    _long_pos: np.ndarray = field(init=False, repr=False, compare=False)
    _long_starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", np.repeat(np.arange(self.n), self.row_nnz()))
        # the long columns, their entries' positions grouped by column in
        # storage order, and where each column's group starts
        col_nnz = np.bincount(self.indices, minlength=self.n)
        long = col_nnz > _PAIRWISE_MIN
        cols = np.flatnonzero(long)
        pos = np.flatnonzero(long[self.indices])
        pos = pos[np.argsort(self.indices[pos], kind="stable")]
        starts = np.zeros(cols.size, dtype=np.int64)
        np.cumsum(col_nnz[cols[:-1]], out=starts[1:])
        object.__setattr__(self, "_long_cols", cols)
        object.__setattr__(self, "_long_pos", pos)
        object.__setattr__(self, "_long_starts", starts)

    @cached_property
    def csr(self):
        """The same matrix as a ``scipy.sparse.csr_matrix``, built on first
        access; it needs scipy, from the ``test`` extra.  The solver never
        touches it, so ranking never imports scipy."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr),
                                 shape=(self.n, self.n))

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of rows with zero stored entries."""
        return self.row_nnz() == 0

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """x^T H as a 1-D array of length n: a gather and a weighted
        ``np.bincount``, one pass over the entries, no BLAS call and no scipy.
        The long columns' bins are then summed again by ``np.add.reduceat``,
        which numpy sums pairwise, so their rounding grows like log m, not m."""
        weights = x[self.rows]
        weights *= self.data
        out = np.bincount(self.indices, weights=weights, minlength=self.n)
        if self._long_cols.size:
            out[self._long_cols] = np.add.reduceat(weights[self._long_pos], self._long_starts)
        # bincount of no entries returns int64 zeros, weights or not
        return out.astype(np.float64, copy=False)


def build_hyperlink_matrix(g: WebGraph) -> HyperlinkMatrix:
    """Build the hyperlink matrix: uniform weight over each node's out-links."""
    degree = np.diff(g.indptr)
    return HyperlinkMatrix(n=g.n, indptr=g.indptr, indices=g.indices,
                           data=1.0 / np.repeat(degree, degree))


def probability_vector(values) -> np.ndarray:
    """Validate and return a float64 probability vector (nonnegative, 1-norm 1)."""
    x = np.array(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("probability vector has non-finite entries")
    if np.any(x < 0.0):
        raise ValueError("probability vector has a negative entry")
    with np.errstate(over="ignore"):  # finite entries may sum to inf, reported below
        total = x.sum()
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probability vector sums to {float(total)!r}, not 1")
    return x


def uniform_vector(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def load_weight_vector(source: str, n: int) -> np.ndarray:
    """Weight vector from whitespace-separated decimal text.

    Entries must be nonnegative, exactly ``n`` of them, and are renormalized
    to sum 1 provided the raw sum lies in [1e-9, 1e9].
    """
    tokens = source.split()
    # numpy's cast from str, like float(), also reads "0.2_5" and non-ASCII digits
    if "_" in source or not (source.isascii() or all(tok.isascii() for tok in tokens)):
        raise ValueError("weight vector: non-numeric entry")
    try:
        entries = np.array(tokens, dtype=np.float64)
    except ValueError:
        raise ValueError("weight vector: non-numeric entry") from None
    if entries.size != n:
        raise ValueError(f"weight vector: expected {n} entries, got {entries.size}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("weight vector: non-finite entry")
    if np.any(entries < 0.0):
        raise ValueError("weight vector: negative entry")
    with np.errstate(over="ignore"):  # finite entries may sum to inf, reported below
        total = entries.sum()
    if not 1e-9 <= total <= 1e9:
        raise ValueError(
            f"weight vector: sum {float(total)!r} outside [1e-9, 1e9] (all-zero or badly scaled)"
        )
    return entries / total


@dataclass(frozen=True)
class PageRankParams:
    """Damping factor, teleportation/dangling vectors, and the stopping rule."""

    alpha: float
    v: np.ndarray
    w: np.ndarray
    tol: float = 1e-10
    max_iter: int = 1000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        # no 1-norm distance between probability vectors exceeds 2, so an
        # infinite tol would make any iterate "converged"
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        object.__setattr__(self, "v", probability_vector(self.v))
        object.__setattr__(self, "w", probability_vector(self.w))
        if self.v.shape != self.w.shape:
            raise ValueError("v and w must have the same length")

    @property
    def n(self) -> int:
        return self.v.size

    @classmethod
    def uniform(cls, n: int, alpha: float = 0.85, tol: float = 1e-10,
                max_iter: int = 1000) -> "PageRankParams":
        """Params with uniform teleportation and dangling vectors of length n."""
        return cls(alpha=alpha, v=uniform_vector(n), w=uniform_vector(n),
                   tol=tol, max_iter=max_iter)
