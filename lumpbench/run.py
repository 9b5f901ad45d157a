"""lumprank benchmark: run a seeded workload and print its metrics.

    python3 lumpbench/run.py --workload rank-ingest --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src``.  With
``--trace 0`` it measures the end-to-end metrics (tracing off): the CLI runs
in a fresh process, exactly as a user runs it.  With ``--trace 1`` it runs
the same command in a traced process (spans from ``tracer.py``) and prints
the per-layer metrics.  ``--workload all`` runs every workload in turn.

Every operation is checked against the benchmark's own reference
(``reference.py``); the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a table with units, the failure ratio, and a JSON detail record holding
the machine facts, the workload shape and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"


def metric_units(trace: bool) -> dict:
    """{name: unit} of the metrics a run reports, from BENCHMARK.json."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in definition["per_layer" if trace else "end_to_end"]}


# per-layer metrics read from spans: name -> (process, "total" or "self", span names).
# "cli" is the traced workload command, "solve" a traced solve_lumped.
SPAN_METRICS = {
    "graph.parse_s": ("cli", "total", ["cli._load_graph"]),  # read + parse_edge_list
    "graph.csr_build_s": ("cli", "total", ["graph.build_hyperlink_matrix"]),
    "graph.weights_load_s": ("cli", "total", ["graph.load_weight_vector"]),
    "lumping.partition_s": ("solve", "total", ["lumping.detect_dangling"]),
    "lumping.blocks_s": ("solve", "total", ["lumping.permute_blocks"]),
    "lumping.recover_s": ("solve", "total", ["lumping.recover_pagerank", "lumping.unpermute"]),
    # the CLI layer's own work: TSV formatting for rank, L*D*U reconstruction
    # and report for verify
    "cli.output_s": ("cli", "self", ["cli.main", "cli.build_parser", "cli.cmd_rank",
                                     "cli.cmd_verify"]),
    # stages only verify runs; they are printed, and reported only where they ran
    "cli.verify_self_s": ("cli", "self", ["cli.cmd_verify"]),
    "transforms.dense_google_s": ("cli", "total", ["transforms.build_dense_google"]),
    "transforms.transform_check_s": ("cli", "total", ["transforms.build_transform",
                                                      "transforms.verify_transform_condition"]),
    "transforms.similarity_s": ("cli", "total", ["transforms.similarity_transform"]),
    "transforms.spectrum_s": ("cli", "total", ["transforms.check_spectrum_identity"]),
    "transforms.lumpable_s": ("cli", "total", ["transforms.check_lumpable"]),
    "transforms.stationary_s": ("cli", "total", ["transforms.stationary_dense"]),
    "decomposition.ldu_s": ("cli", "total", ["decomposition.ldu_factors"]),
    "decomposition.complement_s": ("cli", "total", ["decomposition.stochastic_complement"]),
    "decomposition.coupled_s": ("cli", "total", ["decomposition.verify_coupled_stationarity"]),
}
# A per_layer metric must read on every workload, and a stage a workload never
# runs would read a constant 0, so these stay out of BENCHMARK.json.
VERIFY_ONLY = {name for name in SPAN_METRICS
               if name == "cli.verify_self_s" or name.split(".")[0] in ("transforms",
                                                                        "decomposition")}
# measured and printed, but not BENCHMARK.json metrics (see README.md)
PRINTED_ONLY = {"solve_s": "s", **{name: "s" for name in sorted(VERIFY_ONLY)},
                "transforms.checks_passed": "count"}

SOLVE_PER_ROUND_S = 0.5  # in-process solves repeat until this much time in a round
MIN_ROUNDS = {0: 3, 1: 2}
FULL_STEPS = 100        # fixed full-chain steps behind lumping.full_iter_s
CHILD_TIMEOUT_S = 60  # the slowest child takes ~8 s; a run must end within 180 s
ENTRY = "import sys; from lumprank.cli import main; sys.exit(main())"  # the console script
DENSE_LAB_MODULES = ("lumprank.transforms", "lumprank.decomposition")


class Run:
    """Counts and samples of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.missing = set()  # span names a metric needs but no function provides

    def check(self, what: str, problems: list[str]) -> None:
        """Count one operation; it failed if ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def spawn(argv, stdout: Path, stderr: Path, env: dict):
    """Run a child to completion.  Returns (wall s, exit code, peak RSS MB).

    The child is reaped with wait4, so its own ru_maxrss is available; a
    timer kills it if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def machine_facts() -> dict:
    import scipy

    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cpu = platform.processor() or None
    info = read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", info, re.M)
    if m:
        cpu = m.group(1).strip()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(idx / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    nproc = len(os.sched_getaffinity(0))

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"default = nproc ({nproc})"),
    }


def kernel_counts(meta: dict) -> dict:
    """Computed bytes and flops of one power step (not measured).

    Model: CSR with 8-byte values and 4-byte column indices and row pointers;
    per step the matrix is read once and four vectors of the chain's order
    (input, output, two rank-one vectors) pass once; flops are 2 per stored
    entry plus 6 per vector element (scaling and two axpys).  The lumped
    chain's sparse part is [H11 | H12 e]: nnz(H11) + k entries, k rows, order
    k+1.  The full chain reads all of H, order n.  No roofline ratio is
    given: a bandwidth probe needs arrays 4x the last-level cache.
    """
    def step(nnz, rows, order):
        return 12 * nnz + 4 * (rows + 1) + 4 * 8 * order, 2 * nnz + 6 * order

    n, k = meta["n"], meta["k"]
    lb, lf = step(meta["nnz_H11"] + k, k, k + 1)
    fb, ff = step(meta["nnz_H"], n, n)
    return {"lumping.apply_bytes": lb, "lumping.apply_flops": lf,
            "lumping.full_apply_bytes": fb, "lumping.full_apply_flops": ff}


def span_total(spans, names):
    return sum(s[3] - s[2] for s in spans if s[1] in names)


def span_self(spans, names):
    """Time in the named spans minus the time of their direct children."""
    ids = {s[0] for s in spans if s[1] in names}
    return span_total(spans, names) - sum(s[3] - s[2] for s in spans if s[4] in ids)


def dense_lab_import_s(stderr_text: str) -> float:
    """Import time of the dense lab, from ``-X importtime`` output.

    Self time of the two lab modules and of every ``scipy.linalg`` module,
    which only they need.  Shared modules that happen to be imported first
    under them (numpy, scipy._lib) are not counted, so this is the part that
    would go away with the lab, not the cumulative time under it.
    """
    total = 0
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
        if m and (m.group(2) in DENSE_LAB_MODULES or m.group(2) == "scipy.linalg"
                  or m.group(2).startswith("scipy.linalg.")):
            total += int(m.group(1))
    return total / 1e6


def rounds_within(seconds: float, minimum: int):
    """Yield round numbers while a round as long as the last one still ends
    within ``seconds`` of the start; at least ``minimum`` rounds."""
    start = last = time.perf_counter()
    rounds = 0
    while True:
        now = time.perf_counter()
        if rounds >= minimum and (now - start) + (now - last) > seconds:
            return
        last = now
        yield rounds
        rounds += 1


class Bench:
    """One workload at one seed: inputs, reference, and the operations."""

    def __init__(self, name: str, seed: int):
        import lumprank

        self.lr = lumprank
        self.wl = workloads.load_or_generate(name, seed, CACHE)
        self.spec = self.wl.spec
        self.tmp = CACHE / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        ref_path = CACHE / name / "reference.npy"
        if ref_path.is_file():
            self.reference = np.load(ref_path)
        else:
            self.reference = reference.reference_pagerank(
                self.wl.src, self.wl.dst, self.spec.n, self.spec.alpha, self.wl.v)
            np.save(ref_path, self.reference)
        self.bound = reference.l1_bound(self.spec.alpha, self.spec.tol)
        self.cli_args = self.wl.cli_args()

    # --- the operations -------------------------------------------------

    def check_cli(self, run: Run, out: Path, code: int) -> None:
        text = out.read_text(encoding="utf-8", errors="replace")
        if self.spec.command == "rank":
            problems, _ = reference.check_rank_output(
                text, code, self.wl.labels, self.spec.k, self.reference, self.bound)
        else:
            problems = reference.check_verify_output(text, code, self.spec.n, self.spec.k)
        run.check(f"{self.spec.command} exit={code}", problems)

    def cli(self, run: Run):
        out, err = self.tmp / "cli.out", self.tmp / "cli.err"
        wall, code, rss = spawn([sys.executable, "-c", ENTRY, *self.cli_args],
                                out, err, child_env())
        self.check_cli(run, out, code)
        return wall, rss

    def setup(self, run: Run) -> float:
        out, err = self.tmp / "setup.out", self.tmp / "setup.err"
        wall, code, _ = spawn([sys.executable, "-c", "import lumprank.cli"],
                              out, err, child_env())
        run.check("import lumprank.cli", [] if code == 0 else [f"exit code {code}"])
        return wall

    def check_solve(self, run: Run, labels, pagerank, converged: bool,
                    nnz_h: int | None = None) -> float:
        """Gate one solve; ``nnz_h`` is the program's nnz(H), checked if given."""
        node = reference.node_index(self.wl.labels, np.asarray(labels))
        problems = [] if converged else ["not converged"]
        if nnz_h is not None and nnz_h != self.wl.meta["nnz_H"]:
            problems.append(f"nnz(H) {nnz_h} differs from the generated {self.wl.meta['nnz_H']}")
        err = float("inf")
        if node is None:
            problems.append("label set differs from the generated labels")
        else:
            err = float(np.abs(np.asarray(pagerank) - self.reference[node]).sum())
            if not err <= self.bound:
                problems.append(f"l1 error {err:.3e} exceeds {self.bound:.3e}")
        run.check("solve_lumped", problems)
        return err

    def solve(self, run: Run, g, params) -> float:
        t0 = time.perf_counter()
        rep = self.lr.solve_lumped(g, params)
        wall = time.perf_counter() - t0
        self.check_solve(run, g.labels, rep.pagerank, rep.converged)
        return wall

    def traced(self, run: Run, mode: str, args, **env):
        """Run tracer.py; returns (wall s, spans record or None)."""
        out, err, rec = (self.tmp / f"trace-{mode}.{x}" for x in ("out", "err", "json"))
        rec.unlink(missing_ok=True)
        wall, code, _ = spawn([sys.executable, str(BENCH_DIR / "tracer.py"), str(rec),
                               mode, *args], out, err, child_env(**env))
        if mode == "cli":
            self.check_cli(run, out, code)
        if not rec.is_file():
            run.check(f"traced {mode}", [f"no span record, exit code {code}"])
            return wall, None
        return wall, json.loads(rec.read_text(encoding="utf-8"))

    # --- the two kinds of run -------------------------------------------

    def measure(self, seconds: float) -> Run:
        """End-to-end metrics, tracing off; ``solve_s`` on rank workloads."""
        run = Run()
        solving = self.spec.command == "rank"
        if solving:
            g, params = tracer.load_problem(self.cli_args)
            self.solve(run, g, params)  # warm-up
        self.setup(run)  # warm-up: writes the bytecode cache
        for rounds in rounds_within(seconds, MIN_ROUNDS[0]):
            wall, rss = self.cli(run)
            run.add("wall_s", wall)
            run.add("peak_rss_mb", rss)
            run.add("setup_s", self.setup(run))
            if solving and rounds % 2 == 0:  # solve_s has no bound (README.md)
                spent = 0.0
                while spent < SOLVE_PER_ROUND_S:
                    run.add("solve_s", self.solve(run, g, params))
                    spent += run.samples["solve_s"][-1]
        return run

    def trace(self, seconds: float) -> Run:
        """Per-layer metrics from traced processes, plus the tracing overhead."""
        run = Run()
        solve_args = [str(FULL_STEPS), *self.cli_args]
        self.setup(run)  # warm-up: writes the bytecode cache
        for rounds in rounds_within(seconds, MIN_ROUNDS[1]):
            # alternate which goes first, so an order effect cancels in the overhead
            if rounds % 2:
                traced, rec = self.traced(run, "cli", self.cli_args)
                untraced, _ = self.cli(run)
            else:
                untraced, _ = self.cli(run)
                traced, rec = self.traced(run, "cli", self.cli_args)
            if rec is not None:
                run.add("trace.overhead_s", traced - untraced)
                run.add("cli.import_s", rec["import_s"])
                run.add("cli.output_bytes", (self.tmp / "trace-cli.out").stat().st_size)
                self.span_metrics(run, rec, "cli")
            for metric, env in (("lumping.iter_s", {}),
                                ("lumping.iter_s_1t", {"OPENBLAS_NUM_THREADS": "1"})):
                _, rec = self.traced(run, "solve", solve_args, **env)
                if rec is None:
                    continue
                err = self.check_solve(run, rec["labels"], rec["pagerank"], rec["converged"],
                                       rec["nnz_H"])
                if "lumping.power_method" not in rec["wrapped"]:
                    run.missing.add("lumping.power_method")
                loop = span_total(rec["spans"], {"lumping.power_method"})
                run.add(metric, loop / rec["iterations"] if rec["iterations"] else 0.0)
                if not env:
                    self.span_metrics(run, rec, "solve")
                    run.add("lumping.iterations", rec["iterations"])
                    run.add("lumping.residual", rec["residual"])
                    run.add("lumping.full_iter_s", rec["full_iter_s"])
                    run.add("lumping.l1_err", err)
                    run.add("graph.edges", rec["nnz_H"])
            _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import lumprank.cli"],
                               self.tmp / "importtime.out", self.tmp / "importtime.err",
                               child_env())
            run.check("import lumprank.cli", [] if code == 0 else [f"exit code {code}"])
            run.add("cli.import_dense_lab_s",
                    dense_lab_import_s((self.tmp / "importtime.err").read_text(encoding="utf-8")))
        if self.spec.command == "verify":
            passed = (self.tmp / "trace-cli.out").read_text(encoding="utf-8").count("\nPASS ")
            run.add("transforms.checks_passed", passed)
        for metric, value in kernel_counts(self.wl.meta).items():
            run.add(metric, value)
        return run

    @staticmethod
    def span_metrics(run: Run, rec: dict, process: str) -> None:
        wrapped = set(rec["wrapped"])
        ran = {s[1] for s in rec["spans"]}
        for metric, (proc, kind, names) in SPAN_METRICS.items():
            if proc != process or (metric in VERIFY_ONLY and not ran & set(names)):
                continue
            run.missing.update(n for n in names if n not in wrapped)
            fn = span_total if kind == "total" else span_self
            run.add(metric, fn(rec["spans"], set(names)))


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    bench = Bench(name, seed)
    run = bench.trace(seconds) if trace else bench.measure(seconds)
    units = metric_units(trace)
    metrics = {}
    for metric, unit in units.items():
        values = run.samples.get(metric, [])
        metrics[metric] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(), "shape": bench.wl.meta, "l1_bound": bench.bound,
        "samples": run.samples, "missing_spans": sorted(run.missing),
        "problems": run.problems[:20],
    }
    return run, metrics, detail


def print_table(name: str, run: Run, metrics: dict) -> None:
    """Every metric with its unit, then the printed-only ones, then fail_ratio."""
    rows = [(metric, m["value"], m["unit"]) for metric, m in metrics.items()]
    for metric, unit in PRINTED_ONLY.items():
        if metric not in metrics and run.samples.get(metric):
            rows.append((metric, statistics.median(run.samples[metric]), unit))
    for metric, value, unit in rows:
        n = len(run.samples.get(metric, []))
        print(f"{name:13s} {metric:30s} {value:.6g} {unit}  (median of {n})")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"{name:13s} {'fail_ratio':30s} {ratio:.6g} 1  ({run.failed}/{run.attempted})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.SPECS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lumprank" / "cli.py").is_file():
        print(f"lumpbench: no program at {SRC / 'lumprank'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lumprank
    if Path(lumprank.__file__).resolve().parent != (SRC / "lumprank").resolve():
        print(f"lumpbench: imported lumprank from {lumprank.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        run, metrics, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("detail " + json.dumps(detail))
        print_table(name, run, metrics)
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
