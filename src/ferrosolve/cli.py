"""Command line driver: ``ferrosolve run|converge|check <scenario> ...``.

Exit codes: 0 success, 2 solver failure (including an energy-ledger slack
below -tol_energy or an MVS slack below -tol_mvs), 3 validation, file,
configuration or command-line usage failure.  The environment variable
FERROSOLVE_THREADS caps the worker threads of the underlying linear algebra
libraries.
"""

import argparse
import os
import sys

import numpy as np

from .errors import (DomainEscape, FerrosolveError, MismatchedScenario,
                     NonPositiveDefinite, ParseError, ValidationError)
from . import io as fio
from .rothe import average_loads, interpolant_gap
from .scenario import parse_scenario
from .tensors import assemble_block_A, assemble_block_D
from .young import build_measure, convergence_study, mvs_residual, uniform_partition

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VALIDATION = 3

_VALIDATION_ERRORS = (ParseError, ValidationError, NonPositiveDefinite,
                      MismatchedScenario, DomainEscape, OSError, UnicodeDecodeError)


def _coercivity_gate(scn, override):
    """Refuse the unregularized regime for non-coercive remanent energies."""
    if not scn.build_f().coercive and not scn.build_tensors().hardening_definite:
        if override:
            print("warning: remanent energy is not coercive and the hardening "
                  "map vanishes; proceeding under --override-coercivity",
                  file=sys.stderr)
            return
        raise ValidationError([
            "remanent energy family lacks the quadratic lower bound and the "
            "hardening map is zero: the unregularized existence regime does "
            "not apply; pass --override-coercivity to run anyway"])


def _run_level(scn, system, level, outdir):
    grid = system.grid
    problem = scn.build_problem(level=level, system=system)
    schedule = scn.build_schedule(grid)
    # finite loads can still overflow their trace; that is reported below
    with np.errstate(all="ignore"):
        zhat = average_loads(system, schedule, problem.time_grid)
    bad = np.flatnonzero(~np.isfinite(zhat).reshape(len(zhat), -1).all(axis=1))
    if len(bad):
        raise ValidationError([
            f"level {level}, step {bad[0] + 1}: the load trace is not finite "
            "(the loads overflow it)"])
    z0 = scn.initial_state(grid)
    # a huge finite load can overflow the stepper's products; the step turns
    # a non-finite gap or certificate into StepSolveFailure
    with np.errstate(all="ignore"):
        traj, ledger = problem.run(z0, zhat, step_tol=scn.tolerances.step_tol)

    suffix = f"_m{level}"
    fio.write_trajectory_csv(
        os.path.join(outdir, f"trajectory{suffix}.csv"), level, traj, grid.dim)
    fio.write_energy_csv(
        os.path.join(outdir, f"energy{suffix}.csv"), level, ledger)
    fio.write_certificates_csv(
        os.path.join(outdir, f"certificates{suffix}.csv"), level, traj)
    for i, t in enumerate(np.atleast_1d(scn.checkpoints)):
        n = int(round(t / traj.time_grid.h))
        n = max(0, min(n, traj.time_grid.n_steps))
        b, q = schedule.at(n * traj.time_grid.h)
        fields = system.solve_bvp(z=traj.z_nodes[n], b=b, q=q)
        fio.write_snapshot(
            os.path.join(outdir, f"snapshot{suffix}_t{i}.vtk"), grid, fields,
            title=f"state at t={n * traj.time_grid.h:.17g}")
    return problem, traj, ledger


def _energy_failure(level, ledger, tol):
    """A message naming the step of the lowest energy slack when it is
    below -tol (the artifacts are written before this is checked)."""
    slack = ledger.slack()
    n = int(np.argmin(slack))
    if slack[n] >= -tol:
        return None
    return (f"level {level}, step {n + 1}: energy slack {slack[n]:.3e} "
            f"< -tol_energy = {-tol:.3e}")


def _exit_code(failures):
    """Print the failures that occurred; EXIT_SOLVER if there were any."""
    failures = [msg for msg in failures if msg]
    for msg in failures:
        print(msg, file=sys.stderr)
    return EXIT_SOLVER if failures else EXIT_OK


def cmd_run(scn, args):
    level = args.level if args.level is not None else scn.level
    if args.level is not None:
        scn.check_levels("--level", level, level)
    outdir = fio.ensure_outdir(args.out)
    _coercivity_gate(scn, args.override_coercivity)
    problem, traj, ledger = _run_level(scn, scn.build_system(), level, outdir)
    worst = max((c.residual for c in traj.certificates), default=0.0)
    print(f"level {level}: {traj.time_grid.n_steps} steps, "
          f"max certificate {worst:.3e}, outputs in {outdir}")
    if worst > scn.tolerances.step_tol:
        return EXIT_SOLVER
    return _exit_code([_energy_failure(level, ledger, scn.tolerances.tol_energy)])


def cmd_converge(scn, args):
    m0, m1 = args.levels if args.levels is not None else scn.levels
    if args.levels is not None:
        scn.check_levels("--levels", m0, m1)
    outdir = fio.ensure_outdir(args.out)
    _coercivity_gate(scn, args.override_coercivity)

    system = scn.build_system()
    grid = system.grid
    f_spec = scn.build_f()
    g_spec = scn.build_g()
    tols = scn.tolerances
    results = []
    problems = {}
    failures = []
    for lv in range(m0, m1 + 1):
        problem, traj, ledger = _run_level(scn, system, lv, outdir)
        results.append((lv, traj))
        problems[lv] = problem
        failures.append(_energy_failure(lv, ledger, tols.tol_energy))

    partition = uniform_partition(problems[m0].time_grid, grid,
                                  n_time_bins=2 ** m0)
    study = convergence_study(results, f_spec, grid.strain_dim,
                              grid.volumes, partition)
    fio.write_study_csv(os.path.join(outdir, "study.csv"), study)
    measure = build_measure([tr for _, tr in results], grid.volumes, partition)
    fio.write_measure_csv(os.path.join(outdir, "measure.csv"), measure)

    rows = []
    for lv, traj in results:
        rep = mvs_residual(traj, problems[lv], f_spec, g_spec)
        rows.append((rep.lhs, rep.rhs, rep.slack)
                    + interpolant_gap(traj, grid.volumes, p_star=g_spec.p_star))
        if not rep.slack >= -tols.tol_mvs:
            failures.append(f"level {lv}: MVS slack {rep.slack:.3e} "
                            f"< -tol_mvs = {-tols.tol_mvs:.3e}")
    fio.write_mvs_csv(os.path.join(outdir, "mvs.csv"),
                      [lv for lv, _ in results], rows)

    diffs = study["final_state_diffs"]
    print(f"levels {m0}..{m1}: final-state level differences "
          + " ".join(f"{d:.3e}" for d in diffs))
    return _exit_code(failures)


def cmd_check(scn, args):
    _coercivity_gate(scn, args.override_coercivity)
    tensors = scn.build_tensors()
    block_A = assemble_block_A(tensors)
    block_D = assemble_block_D(tensors)
    f_spec = scn.build_f()
    g_spec = scn.build_g()
    print(f"c0 = {block_A.c0:.17g}")
    print(f"lambda_min_D = {block_D.lam_min:.17g}")
    print(f"f family = {f_spec.family}, coercive = {f_spec.coercive}, "
          f"growth = {f_spec.growth_constants}")
    print(f"g family = {g_spec.family}, growth = {g_spec.growth_constants}")
    print(f"hardening definite = {tensors.hardening_definite}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_VALIDATION."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _ArgumentParser(
        prog="ferrosolve",
        description="Quasi-static ferroelectric evolution: solve, refine, check.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("run", cmd_run), ("converge", cmd_converge),
                     ("check", cmd_check)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("scenario", help="scenario configuration file")
        p.add_argument("--override-coercivity", action="store_true",
                       help="run even when the coercivity prerequisites fail")
        if name == "run":
            p.add_argument("--level", type=int, default=None,
                           help="dyadic time level (overrides the scenario)")
        if name == "converge":
            p.add_argument("--levels", type=_levels_arg, default=None,
                           metavar="m0..m1", help="level range for studies")
        if name != "check":
            p.add_argument("--out", default="out", help="output directory")
    return parser


def _levels_arg(text):
    try:
        m0, m1 = text.split("..")
        return int(m0), int(m1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected m0..m1, got {text!r}") from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scn = parse_scenario(args.scenario)
        return args.func(scn, args)
    except _VALIDATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FerrosolveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
