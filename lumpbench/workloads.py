"""Seeded workload generator for the lumprank benchmark.

The generator is the benchmark's own and does not call ``lumprank gen``, so a
change to the program cannot shift the inputs.  Nodes are numbered
0..n-1 internally: ids < k are nondangling (the first ``sink_nodes`` of them
form closed groups), ids >= k are dangling.  Every dangling node receives at
least one in-link, so the edge list names every node and the program parses
exactly n nodes with exactly k of them nondangling.  Only ``src dst`` lines are
written.  The program sees only the written files, never these arrays.
"""

from __future__ import annotations

import json
import shutil
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# bump when the generated bytes change, so stale caches are not reused
GENERATOR_VERSION = 1
# nodes in one closed group (rank sink)
GROUP = 64


@dataclass(frozen=True)
class Spec:
    """Shape and solver settings of one workload."""

    command: str          # "rank" or "verify"
    n: int                # nodes
    k: int                # nondangling nodes
    max_degree: int       # out-degree uniform on [1, max_degree]
    sink_frac: float      # share of nondangling nodes inside closed groups
    alpha: float
    tol: float
    max_iter: int
    personalized: bool    # heavy-tailed --v file instead of uniform


SPECS = {
    # parse, CSR build and TSV output dominate; a uniform graph converges in
    # ~9 iterations.  k > 1e4 puts the lumped dot on the threaded-BLAS side.
    "rank-ingest": Spec("rank", n=200_000, k=20_000, max_degree=31, sink_frac=0.0,
                        alpha=0.85, tol=1e-10, max_iter=1000, personalized=False),
    # closed groups put the second eigenvalue at alpha, so the iteration count
    # follows log(tol)/log(alpha): the power loop dominates, parsing is small.
    # The default --max-iter 1000 would exit 2 (not converged) here.
    "rank-solve": Spec("rank", n=40_000, k=20_000, max_degree=15, sink_frac=0.3,
                       alpha=0.99, tol=1e-10, max_iter=20_000, personalized=True),
    # the only workload that runs the dense lab (transforms, decomposition):
    # O(n^3) LAPACK work.  n is below the default dense limit (2000) so that
    # a run holds enough calls for a steady median.
    "verify-dense": Spec("verify", n=1200, k=360, max_degree=15, sink_frac=0.3,
                         alpha=0.85, tol=1e-10, max_iter=1000, personalized=False),
}


@dataclass
class Workload:
    """A generated workload: files for the program, arrays for the checks."""

    name: str
    seed: int
    spec: Spec
    graph_path: Path
    v_path: Path | None
    src: np.ndarray        # internal source id per file line (with duplicates)
    dst: np.ndarray
    labels: np.ndarray     # labels[i] is the label written for internal node i
    v: np.ndarray          # teleport vector in internal order, sums to 1
    meta: dict

    def cli_args(self) -> list[str]:
        """Arguments after ``lumprank`` for this workload's command."""
        s = self.spec
        args = [s.command, str(self.graph_path), "--alpha", repr(s.alpha),
                "--tol", repr(s.tol), "--max-iter", str(s.max_iter)]
        if self.v_path is not None:
            args += ["--v", str(self.v_path)]
        if s.command == "verify":
            args += ["--seed", str(self.seed), "--negative-control"]
        return args


def _rng(name: str, seed: int) -> np.random.Generator:
    # salt with the workload name so one seed gives unrelated graphs per workload
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _distinct_labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct labels in [0, 2^63 - 1), in random order."""
    draw = rng.integers(0, 2**63 - 1, size=n + 64, dtype=np.int64)
    _, first = np.unique(draw, return_index=True)
    if first.size < n:
        raise RuntimeError("label draw collided too often")  # ~1e-9 per seed
    return draw[np.sort(first)[:n]]


def generate_edges(spec: Spec, rng: np.random.Generator):
    """Internal (src, dst) arrays in random line order, duplicates kept."""
    n, k = spec.n, spec.k
    sink_nodes = int(round(spec.sink_frac * k / GROUP)) * GROUP
    degree = rng.integers(1, spec.max_degree + 1, size=k)

    # closed groups: a cycle keeps each group irreducible, the other out-links
    # stay inside the group
    ids = np.arange(sink_nodes)
    s_src = np.repeat(ids, degree[:sink_nodes])
    base = (s_src // GROUP) * GROUP
    first_slot = np.zeros(s_src.size, dtype=bool)
    first_slot[np.cumsum(degree[:sink_nodes]) - degree[:sink_nodes]] = True
    cycle_next = base + (s_src - base + 1) % GROUP
    s_dst = np.where(first_slot, cycle_next, base + rng.integers(0, GROUP, size=s_src.size))

    # open nodes: one shuffled slot per out-link; the first n-k slots cover
    # every dangling node once, the rest target any node uniformly
    o_src = rng.permutation(np.repeat(np.arange(sink_nodes, k), degree[sink_nodes:]))
    m = n - k
    if o_src.size < m:
        raise ValueError(f"{o_src.size} open out-links cannot reach {m} dangling nodes")
    o_dst = rng.integers(0, n, size=o_src.size)
    o_dst[:m] = k + rng.permutation(m)

    src = np.concatenate([s_src, o_src])
    dst = np.concatenate([s_dst, o_dst])
    order = rng.permutation(src.size)
    return src[order], dst[order], sink_nodes


def first_appearance(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Internal ids in the order their labels first appear in the file."""
    seq = np.column_stack([src, dst]).ravel()
    nodes, first = np.unique(seq, return_index=True)
    if nodes.size != n:
        raise RuntimeError("generated edge list does not name every node")
    return nodes[np.argsort(first)]


def _write_lines(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    text = "\n".join(f"{x} {y}" for x, y in zip(a.tolist(), b.tolist()))
    path.write_text(text + "\n", encoding="utf-8")


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Generate workload ``name`` for ``seed`` into ``out_dir`` (overwritten)."""
    spec = SPECS[name]
    rng = _rng(name, seed)
    src, dst, sink_nodes = generate_edges(spec, rng)
    labels = _distinct_labels(rng, spec.n)
    if spec.personalized:
        v = rng.pareto(1.2, size=spec.n) + 0.01
        v /= v.sum()
    else:
        v = np.full(spec.n, 1.0 / spec.n)

    out_dir.mkdir(parents=True, exist_ok=True)
    graph_path = out_dir / "graph.txt"
    _write_lines(graph_path, labels[src], labels[dst])
    v_path = None
    if spec.personalized:
        # the CLI reads --v entries in first-appearance order of the labels
        v_path = out_dir / "v.txt"
        order = first_appearance(src, dst, spec.n)
        v_path.write_text("\n".join(repr(x) for x in v[order].tolist()) + "\n",
                          encoding="utf-8")

    pairs = np.unique(src.astype(np.int64) * spec.n + dst)
    nnz_h11 = int(np.count_nonzero((pairs // spec.n < spec.k) & (pairs % spec.n < spec.k)))
    meta = {
        "workload": name, "seed": seed, "generator_version": GENERATOR_VERSION,
        "spec": asdict(spec), "n": spec.n, "k": spec.k, "sink_nodes": sink_nodes,
        "edge_lines": int(src.size), "nnz_H": int(pairs.size), "nnz_H11": nnz_h11,
    }
    np.savez(out_dir / "arrays.npz", src=src, dst=dst, labels=labels, v=v)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    return Workload(name, seed, spec, graph_path, v_path, src, dst, labels, v, meta)


def load_or_generate(name: str, seed: int, cache_root: Path) -> Workload:
    """Cached :func:`generate`; one entry per workload, replaced on a new seed."""
    out_dir = cache_root / name
    meta_path = out_dir / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        spec = SPECS[name]
        if (meta.get("seed"), meta.get("generator_version"), meta.get("spec")) == (
                seed, GENERATOR_VERSION, asdict(spec)):
            arr = np.load(out_dir / "arrays.npz")
            v_path = out_dir / "v.txt" if spec.personalized else None
            return Workload(name, seed, spec, out_dir / "graph.txt", v_path,
                            arr["src"], arr["dst"], arr["labels"], arr["v"], meta)
    shutil.rmtree(out_dir, ignore_errors=True)
    return generate(name, seed, out_dir)
