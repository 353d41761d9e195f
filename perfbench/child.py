"""One workload in one process: warm-up, set-up, timed commands or trace.

``run.py`` starts this script with BLAS pinned to one thread and ``src`` on
the import path, so ``ru_maxrss`` is this workload's own high-water mark.
Each command is ``ferrosolve.cli.main`` called in this warm process with a
fresh ``--out``; the first (warm-up) command is not timed and its artifact
digest is the reference every later command must reproduce byte for byte.
The result goes to ``--result`` as JSON.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gate
import tracing
import workloads

MIN_COMMANDS = 3        # timed commands per run, whatever --seconds says
MIN_TRACED = 2          # traced commands, so counts can be compared


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Commands:
    """Runs CLI commands on one scenario and gates every one of them."""

    def __init__(self, workload, scenario, workdir):
        from ferrosolve import cli, parse_scenario

        self.cli = cli
        self.workload = workload
        self.scenario = scenario
        self.workdir = workdir
        self.tolerances = parse_scenario(str(scenario)).tolerances
        self.reference = None
        self.attempted = 0
        self.failures = {}          # command number -> problems found

    def run(self, tracer=None):
        """One command; returns (wall seconds, out dir).  The caller removes it."""
        out = self.workdir / f"out{self.attempted}"
        argv = [self.workload.command, str(self.scenario), "--out", str(out)]
        out.mkdir()
        crash = None
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("cli.command", self.cli.main, argv)
            except Exception:           # a traceback: exit code 1 in a shell
                code, crash = 1, traceback.format_exc(limit=-3)
            wall = time.perf_counter() - start
        self.attempted += 1
        found = [f"exit code {code}"] if code != 0 else []
        if crash:
            found.append(crash)
        found += gate.problems(out, self.tolerances, self.workload.command)
        d = gate.digest(out)
        if self.reference is None:
            self.reference = d
        elif d != self.reference:
            found.append("artifact bytes differ from the first command")
        self.fail(found)
        return wall, out

    def fail(self, found):
        """Record one failed command if ``found`` lists any problem."""
        if found:
            self.failures.setdefault(self.attempted, []).extend(found)

    def timed(self):
        wall, out = self.run()
        shutil.rmtree(out)
        return wall


def setup_seconds(scenario, levels):
    """Everything a command pays before the first step, through the public API."""
    from ferrosolve import average_loads, parse_scenario

    start = time.perf_counter()
    scn = parse_scenario(str(scenario))
    for level in levels:
        grid = scn.build_grid()
        tensors = scn.build_tensors()
        system = scn.build_system(grid, tensors)
        problem = scn.build_problem(level=level, system=system)
        schedule = scn.build_schedule(grid)
        average_loads(system, schedule, problem.time_grid)
    return time.perf_counter() - start


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(cmds, workload, seconds):
    """End-to-end metrics with tracing off.

    Each iteration takes one set-up sample and then one command, so both
    medians come from the same time budget and see the same machine.
    """
    levels = workloads.levels(workload)
    setups, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        setups.append(setup_seconds(cmds.scenario, levels))
        walls.append(cmds.timed())
    run_s = statistics.median(walls)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "cell_steps_per_s": workloads.cell_steps(workload) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"run_s_samples": walls, "run_s_quartiles": quartiles(walls),
            "setup_s_samples": setups}
    return metrics, info


def traced(cmds, seconds, workdir):
    """Per-layer metrics from pairs of one untraced and one traced command.

    The wrappers are installed only around the traced command of a pair, so
    the untraced one runs the library's own functions and the difference
    between the two is the tracing overhead.
    """
    tracer = tracing.Tracer()
    overheads, span_lists, layers = [], [], []
    start = time.perf_counter()
    while len(layers) < MIN_TRACED or time.perf_counter() - start < seconds:
        plain = cmds.timed()
        tracer.reset()
        tracing.install(tracer)
        try:
            wall, out = cmds.run(tracer)
        finally:
            tracer.unwrap()
        overheads.append(wall - plain)
        span_lists.append(tracer.spans)
        m = tracing.layer_metrics(tracer)
        steps, iterations = gate.certificate_counts(out)
        shutil.rmtree(out)
        cmds.fail([f"traced {k} = {m[k]} but certificates give {v}"
                   for k, v in (("rothe.steps", steps), ("rothe.iterations", iterations))
                   if m[k] != v])
        if layers:
            cmds.fail([f"{k} changed between traced commands: {layers[0][k]} -> {m[k]}"
                       for k in tracing.COUNTS if m[k] != layers[0][k]])
        layers.append(m)
    tracing.write_spans(workdir / "spans.csv", span_lists)
    metrics = {k: (layers[0][k] if k in tracing.COUNTS else
                   statistics.median(m[k] for m in layers))
               for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    info = {"trace_overhead_s_samples": overheads}
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    scenario = workloads.write_scenario(
        workload, args.seed, args.workdir / f"{workload.name}-seed{args.seed}.scn")
    cmds = Commands(workload, scenario, args.workdir)
    cmds.timed()                                   # warm-up, not timed
    if args.trace:
        metrics, info = traced(cmds, args.seconds, args.workdir)
    else:
        metrics, info = measure(cmds, workload, args.seconds)
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "attempted": cmds.attempted, "failed": len(cmds.failures),
        "failures": cmds.failures, "metrics": metrics, "info": info,
        "environment": environment(),
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
