"""Run lumprank in this process with spans around its public functions.

Usage (``src`` must be on PYTHONPATH):

    python3 lumpbench/tracer.py SPANS.json cli ARGS...
        runs ``lumprank.cli.main(ARGS)``; its output goes to this process's
        stdout and its return value becomes the exit code.
    python3 lumpbench/tracer.py SPANS.json solve FULL_STEPS ARGS...
        loads the graph and parameters of the CLI command ARGS untraced, then
        traces one ``solve_lumped``.  Before tracing it times FULL_STEPS
        steps of the full-chain power method.

Spans are (id, name, start, end, parent id) and are kept in memory until the
run ends, then written to SPANS.json together with the names of the wrapped
functions, so the reader can tell a span that never ran from a function a
refactor removed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# the layers whose public functions get spans
LAYERS = ("graph", "lumping", "transforms", "decomposition", "cli")
# called once per power step; a span there would distort the loop it measures
UNWRAPPED = {"lumping.lumped_apply"}
# private, but it is the "read + parse" stage of every CLI command
EXTRA = {"cli._load_graph"}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []   # [id, name, start, end, parent]
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
        return traced


def _targets():
    """{span name: function} for the public functions of every layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lumprank.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in EXTRA)
                    and name not in UNWRAPPED):
                found[name] = obj
    return found


def install(tracer: Tracer) -> list[str]:
    """Rebind every module-level name that refers to a target function.

    Callers look the names up in their own module's globals (``from .graph
    import parse_edge_list``), so each binding is replaced, not just the
    defining one.  Returns the span names installed.
    """
    targets = _targets()
    wrapped = {id(fn): tracer.wrap(name, fn) for name, fn in targets.items()}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "lumprank" or modname.startswith("lumprank.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return sorted(targets)


def _run_cli(tracer, argv):
    import lumprank.cli
    wrapped = install(tracer)
    return lumprank.cli.main(argv), {"wrapped": wrapped}


def load_problem(cli_args):
    """(graph, params) of the CLI command ``cli_args``, loaded as the CLI loads them.

    The CLI's own parser and loaders are used, private as they are, so the
    solve sees exactly the graph and parameters the command would.
    """
    from lumprank import cli

    cfg = cli.build_parser().parse_args(cli_args)
    g = cli._load_graph(cfg.graph_path)
    return g, cli._load_params(cfg, g.n)


def _run_solve(tracer, full_steps, *cli_args):
    import lumprank as lr

    g, params = load_problem(list(cli_args))
    # tol 0 never stops early, so exactly full_steps steps run
    H = lr.build_hyperlink_matrix(g)
    op = lr.full_operator(H, params)
    x0 = lr.uniform_vector(g.n)
    t0 = time.perf_counter()
    lr.power_method(op, x0, 0.0, int(full_steps))
    full_iter_s = (time.perf_counter() - t0) / int(full_steps)

    wrapped = install(tracer)
    rep = lr.solve_lumped(g, params)
    extra = {"wrapped": wrapped, "iterations": rep.iterations, "residual": rep.residual,
             "converged": bool(rep.converged), "full_iter_s": full_iter_s,
             "nnz_H": int(H.csr.nnz), "labels": g.labels.tolist(),
             "pagerank": rep.pagerank.tolist()}
    return 0, extra


def main(argv):
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    importlib.import_module("lumprank.cli")
    import_s = time.perf_counter() - t0
    if mode == "cli":
        code, extra = _run_cli(tracer, rest)
    elif mode == "solve":
        code, extra = _run_solve(tracer, *rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    record = {"import_s": import_s, "spans": tracer.spans, **extra}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
