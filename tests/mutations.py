"""Mutation checks: each entry breaks the library on purpose, and a named test
must fail on the broken copy.

    python tests/mutations.py

The runner copies ``src/`` to a temporary directory.  It first runs each named
test against the unbroken copy, in a process that has imported ``ferrosolve``
from the copy, and requires it to pass there.  Then, entry by entry, it
replaces the entry's old text (which must occur exactly once in its file)
by the new text in the copy, runs only the entry's test and requires it to
fail, and restores the file.  It prints one line per entry and exits 1 if
any entry misbehaved.  The file name keeps pytest from collecting it.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRAJECTORY = "tests/test_golden.py::test_written_trajectory_re_derives_its_certificates"
_ORACLE = "tests/test_young.py::test_build_measure_matches_per_bin_oracle"

#: (file under src/, old text, new text, test node that must fail)
MUTATIONS = [
    # the written trajectory is the certified iterate (the mutant writes the
    # d entries of E before the sigma block)
    ("ferrosolve/io.py",
     "    se = traj.sigma_E.reshape(-1, k)\n",
     "    se = np.roll(traj.sigma_E.reshape(-1, k), space_dim(k), axis=1)\n",
     _TRAJECTORY),
    ("ferrosolve/rothe.py", "self.zhat - self.Mz[1:]", "self.zhat - self.Mz[:-1]", _TRAJECTORY),
    ("ferrosolve/rothe.py", "return xB, M_xB, StepCertificate",
     "return xA, M_xB, StepCertificate", _TRAJECTORY),
    # the ledger's Sigma is taken at the nodes z^1..z^N
    ("ferrosolve/rothe.py",
     "self.driving_stress(z[1:], traj.zhat, Mz[1:] + z[1:] @ self.L.T + self.reg * z[1:])",
     "self.driving_stress(z[:-1], traj.zhat, Mz[:-1] + z[:-1] @ self.L.T + self.reg * z[:-1])",
     "tests/test_rothe.py::test_run_and_ledger_match_per_step_oracle"),
    # the piecewise-constant interpolant at node times (the mutant is the
    # former rounding, which steps one node too far at level 18)
    ("ferrosolve/rothe.py", "n = np.searchsorted(self.time_grid.times, t)",
     "n = max(int(np.ceil(t / self.time_grid.h - 1e-12)), 0)",
     "tests/test_rothe.py::test_z_const_at_node_times"),
    # the compacted index blocks of the writers
    ("ferrosolve/io.py", 'np.argsort(block == 0, axis=1, kind="stable")',
     "np.argsort(block == 0, axis=1)",
     "tests/test_io.py::test_integer_columns_at_every_power_of_ten"),
    ("ferrosolve/io.py", "order[:, :width]", "order[:, :width - 1]",
     "tests/test_io.py::test_measure_rows_match_per_value_format"),
    # the sorted pooling of the measure
    ("ferrosolve/young.py", 'np.argsort(labels, kind="stable")', "np.argsort(labels)", _ORACLE),
    ("ferrosolve/young.py",
     "    padded = np.insert(x, starts, 0.0, axis=0)\n"
     "    return np.add.reduceat(padded, starts + np.arange(len(counts)), axis=0)\n",
     "    return np.add.reduceat(x, starts, axis=0)\n", _ORACLE),
    ("ferrosolve/young.py", 'side="right") - 1', 'side="left") - 1', _ORACLE),
    # one block per time bin
    ("ferrosolve/young.py", "atoms=[b.reshape(n_cells, -1, k)",
     "atoms=[b.reshape(-1, n_cells, k)",
     "tests/test_young.py::test_build_measure_holds_one_block_per_time_bin"),
    ("ferrosolve/young.py", "atoms=[b.reshape(n_cells, -1, k)",
     "atoms=[b.reshape(-1, n_cells, k).swapaxes(0, 1)", _ORACLE),
    ("ferrosolve/young.py", "np.repeat([w.shape[1] for w in measure.weights], n_cells)",
     "np.tile([w.shape[1] for w in measure.weights], n_cells)",
     "tests/test_young.py::test_eval_F_matches_per_bin_oracle"),
    ("ferrosolve/io.py", "*np.indices(w.shape).reshape(2, -1)",
     "*np.indices(w.shape).reshape(2, -1)[::-1]",
     "tests/test_io.py::test_measure_rows_match_per_value_format"),
    ("ferrosolve/young.py", "    if not (len(edges) > 1", "    if False and (len(edges) > 1",
     "tests/test_young.py::test_build_measure_rejects_edges_off_zero_to_T"),
    # values read off the data: the (r, P) split, a trajectory's level, and the
    # time edges of the measure that mvs_residual bins the steps with
    ("ferrosolve/packing.py", "{2: 1, 5: 2, 9: 3}", "{2: 1, 5: 2, 9: 2}",
     "tests/test_tensors.py::test_space_dim_inverts_internal_dim"),
    ("ferrosolve/io.py", "np.full(n_steps, traj.time_grid.level)",
     "np.full(n_steps, traj.time_grid.level + 1)",
     "tests/test_io.py::test_trajectory_rows_match_per_value_format"),
    ("ferrosolve/young.py", "_time_edges(measure.time_edges, traj.time_grid.T)",
     "np.asarray(measure.time_edges, dtype=float)",
     "tests/test_young.py::test_mvs_residual_rejects_measure_off_the_trajectory_time"),
    # the guards around the march
    ("ferrosolve/rothe.py", "        if not np.all(full_contains(self.f, z_prev)):\n",
     "        if False:\n",
     "tests/test_rothe.py::test_step_rejects_previous_state_outside_domain_of_f"),
    ("ferrosolve/rothe.py", "np.any(np.diff(self.times) <= 0)", "np.any(np.diff(self.times) < 0)",
     "tests/test_rothe.py::test_load_schedule_rejects_equal_sample_times"),
    ("ferrosolve/young.py", "if tr.time_grid.T != T or ", "if ",
     "tests/test_young.py::test_family_of_different_final_times_rejected"),
    ("ferrosolve/rothe.py", "if not 0.0 < scale < np.inf:", "if not 0.0 < scale:",
     "tests/test_rothe.py::test_anderson_overflowing_differences_give_plain_move"),
    ("ferrosolve/elliptic.py", "U = U - self.lu.solve(res)", "U = U + self.lu.solve(res)",
     "tests/test_elliptic.py::test_solve_refines_a_slightly_wrong_lu_solve"),
    ("ferrosolve/elliptic.py",
     "            if rel > self.linear_tol:\n                raise LinearSolveFailure(rel)",
     "            if False:\n                raise LinearSolveFailure(rel)",
     "tests/test_elliptic.py::test_solve_raises_when_refinement_falls_short"),
]

#: run pytest in a process whose ferrosolve is the copy's
_PYTEST = ("import sys, ferrosolve, pytest\n"
           "if not ferrosolve.__file__.startswith(sys.argv[1]):\n"
           "    sys.exit(f'ferrosolve imported from {ferrosolve.__file__}')\n"
           "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', sys.argv[2]]))\n")


def _run(src, node):
    # no bytecode: a restored file can share its size and mtime second with
    # its mutant, and would then be run from the mutant's cached bytecode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PYTEST, src, node], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.returncode, (proc.stdout + proc.stderr).strip().splitlines()[-1:]


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for i, (name, old, new, node) in enumerate(MUTATIONS):
            with open(os.path.join(src, name)) as fh:
                found = fh.read().count(old)
            if found != 1:
                print(f"[{i}] {name}: the old text occurs {found} times, not once: {old!r}")
                bad += 1
        if bad:
            return 1
        for node in dict.fromkeys(node for *_, node in MUTATIONS):
            rc, tail = _run(src, node)
            if rc != 0:
                print(f"{node} does not pass on the unmutated copy (exit {rc}): {tail}")
                bad += 1
        if bad:
            return 1
        for i, (name, old, new, node) in enumerate(MUTATIONS):
            path = os.path.join(src, name)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            rc, tail = _run(src, node)
            with open(path, "w") as fh:
                fh.write(text)
            killed = rc == 1
            bad += not killed
            print(f"[{i}] {name} {old.strip()!r} -> {new.strip()!r}: {node} "
                  + (f"fails ({tail[0] if tail else ''})" if killed
                     else f"does not fail (exit {rc}): {tail}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
