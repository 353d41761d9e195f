"""In-memory span tracing of ferrosolve's public functions, from outside.

The tracer replaces module and class attributes with timing wrappers and
puts the originals back on :meth:`Tracer.unwrap`.  ``from x import y`` binds
``y`` in the importing module, so each function is wrapped under the name
its caller uses (``ferrosolve.cli.average_loads``, ``ferrosolve.rothe.full_prox``,
the writers reached through ``ferrosolve.cli.fio``, ...).

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root).  Self time is a span's duration minus the
durations of its direct children; in one thread the children never overlap.
"""

import functools
import os
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.step_iterations = []
        self._stack = []
        self._patched = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(tracer, args, result)`` runs after each successful call and
        may add to ``tracer.counts``.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self):
        """Put back every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def reset(self):
        """Start a new span list and zero the counts."""
        self.spans = []
        self.counts = Counter()
        self.step_iterations = []

    def totals(self):
        """Per span name: (calls, total_s, self_s)."""
        child_time = Counter()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         self_s + (end - start) - child_time[idx])
        return out


def write_spans(path, span_lists):
    """Write the spans of several commands as CSV, times from each command's start."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("command,index,name,start_s,end_s,parent\n")
        for i, spans in enumerate(span_lists):
            t0 = spans[0][1] if spans else 0.0
            for idx, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{i},{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# what is wrapped


def _count_m_bytes(tracer, args, result):
    n = result.shape[0]
    tracer.counts["elliptic.M_bytes"] += 8 * n * n


def _count_iterations(tracer, args, result):
    tracer.step_iterations.append(result[2].iterations)


def _count_atoms(tracer, args, result):
    tracer.counts["young.atoms"] += sum(a.shape[0] for row in result.atoms for a in row)


def _count_bytes(tracer, args, result):
    tracer.counts["io.bytes"] += os.path.getsize(args[0])


def install(tracer):
    """Wrap the public entry points of every layer the CLI reaches."""
    from ferrosolve import cli, elliptic, io, potentials, rothe, young

    AS, SP = elliptic.AssembledSystem, rothe.SteppedProblem
    tracer.wrap(cli, "parse_scenario", "scenario.parse")
    tracer.wrap(AS, "__init__", "elliptic.assemble")
    tracer.wrap(AS, "solve_bvp", "elliptic.solve")
    tracer.wrap(AS, "apply_M", "elliptic.apply_M")
    tracer.wrap(AS, "assemble_M_matrix", "elliptic.M_matrix", _count_m_bytes)
    tracer.wrap(SP, "__init__", "rothe.problem_init")
    tracer.wrap(cli, "average_loads", "rothe.average_loads")
    tracer.wrap(SP, "run", "rothe.run")
    tracer.wrap(SP, "step", "rothe.step", _count_iterations)
    tracer.wrap(SP, "apply_M", "rothe.apply_M")
    tracer.wrap(SP, "residual_parts", "rothe.certificate")
    tracer.wrap(rothe, "full_prox", "potentials.prox")
    tracer.wrap(potentials.PotentialSpec, "conjugate_prox", "potentials.prox")
    tracer.wrap(potentials.BallIndicator, "conjugate_prox", "potentials.prox")
    tracer.wrap(rothe, "fenchel_residual", "potentials.fenchel")
    tracer.wrap(cli, "convergence_study", "young.study")
    tracer.wrap(cli, "build_measure", "young.measure", _count_atoms)
    tracer.wrap(young, "build_measure", "young.measure", _count_atoms)
    tracer.wrap(cli, "mvs_residual", "young.mvs")
    for attr in ("write_trajectory_csv", "write_energy_csv",
                 "write_certificates_csv", "write_snapshot",
                 "write_measure_csv", "write_study_csv"):
        short = attr.removeprefix("write_").removesuffix("_csv")
        tracer.wrap(io, attr, f"io.{short}", _count_bytes)


#: layer metrics that are exact counts and must repeat between commands
COUNTS = ("elliptic.solves", "elliptic.M_bytes", "elliptic.apply_M_calls",
          "rothe.steps", "rothe.iterations", "rothe.iters_per_step_max",
          "rothe.apply_M_calls", "rothe.certificate_calls",
          "potentials.prox_calls", "young.atoms", "io.bytes")


def layer_metrics(tracer):
    """Per-layer metrics of one command, recorded since the last reset.

    Counts are exact; times are in seconds.  Layers a command does not
    reach report zero.
    """
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    iters = tracer.step_iterations
    steps = calls("rothe.step")
    io_s = sum(v[1] for k, v in t.items() if k.startswith("io."))
    io_bytes = tracer.counts["io.bytes"]
    return {
        "scenario.parse_s": total("scenario.parse"),
        "elliptic.assemble_s": total("elliptic.assemble"),
        "elliptic.solves": calls("elliptic.solve"),
        "elliptic.solve_s": total("elliptic.solve"),
        "elliptic.M_matrix_s": total("elliptic.M_matrix"),
        "elliptic.M_bytes": tracer.counts["elliptic.M_bytes"],
        "elliptic.apply_M_calls": calls("elliptic.apply_M"),
        "rothe.problem_init_s": total("rothe.problem_init"),
        "rothe.average_loads_s": total("rothe.average_loads"),
        "rothe.run_s": total("rothe.run"),
        "rothe.step_s": total("rothe.step"),
        "rothe.step_self_s": t.get("rothe.step", (0, 0.0, 0.0))[2],
        "rothe.steps": steps,
        "rothe.iterations": sum(iters),
        "rothe.iters_per_step_mean": statistics.fmean(iters) if iters else 0.0,
        "rothe.iters_per_step_max": max(iters, default=0),
        "rothe.apply_M_calls": calls("rothe.apply_M"),
        "rothe.apply_M_s": total("rothe.apply_M"),
        "rothe.certificate_calls": calls("rothe.certificate"),
        "rothe.certificate_s": total("rothe.certificate"),
        "rothe.certified_ratio": (steps / calls("rothe.certificate")
                                  if calls("rothe.certificate") else 0.0),
        "rothe.ledger_s": total("rothe.run") - total("rothe.step"),
        "potentials.prox_calls": calls("potentials.prox"),
        "potentials.prox_s": total("potentials.prox"),
        "potentials.fenchel_s": total("potentials.fenchel"),
        "young.study_s": total("young.study"),
        "young.measure_s": total("young.measure"),
        "young.mvs_s": total("young.mvs"),
        "young.atoms": tracer.counts["young.atoms"],
        "io.write_s": io_s,
        "io.trajectory_s": total("io.trajectory"),
        "io.snapshot_s": total("io.snapshot"),
        "io.measure_s": total("io.measure"),
        "io.bytes": io_bytes,
        "io.MB_per_s": io_bytes / io_s / 1e6 if io_s > 0 else 0.0,
        "cli.self_s": t.get("cli.command", (0, 0.0, 0.0))[2],
    }
