"""Narrative refinement study: solve the same scenario at dyadic levels
m = 4..7 and check that the cross-level empirical measures collapse, i.e.
that the family of discrete solutions concentrates on a single trajectory.

Run with:  python3 demos/level_refinement_study.py
"""

import numpy as np

from ferrosolve import (AssembledSystem, Grid, LoadSchedule, PowerLaw,
                        Quadratic, SteppedProblem, average_loads,
                        convergence_study, make_tensors, measure_at_time,
                        mvs_residual, uniform_partition)

grid = Grid(1, 16)
tensors = make_tensors(1, elastic=2.0, dielectric=1.0,
                       coupling=0.5, hardening=0.3)
system = AssembledSystem(grid, tensors)

f_spec = Quadratic(np.eye(2))
g_spec = PowerLaw(1.0, 2.0)
schedule = LoadSchedule([0.0, 1.0], [[0.0], [0.8]], [0.0, 0.4])
z0 = np.zeros((grid.n_cells, grid.internal_dim))

results = []
problems = {}
for level in (4, 5, 6, 7):
    problem = SteppedProblem(system, f_spec, g_spec, level, T=1.0)
    zhat = average_loads(system, schedule, problem.time_grid)
    traj, _ = problem.run(z0, zhat, step_tol=1e-9)
    results.append((level, traj))
    problems[level] = problem
    print(f"level m={level}: {problem.time_grid.n_steps:3d} steps, "
          f"worst certificate {max(c.residual for c in traj.certificates):.2e}")

# Pointwise-in-time measures at the final time: their spread is the
# cross-level disagreement, which should shrink as levels refine.
print("\ncross-level spread of the measure at t = T:")
trajs = dict(results)
for m in (4, 5, 6):
    mu = measure_at_time([trajs[m], trajs[m + 1]], grid.volumes, 1.0)
    print(f"  levels {{{m}, {m + 1}}}: max spread = {mu.max_spread:.3e}")

# Full space-time study against a coarse reference partition.
part = uniform_partition(problems[7].time_grid, grid, n_time_bins=4)
study = convergence_study(results, f_spec, grid.strain_dim, grid.volumes, part)
print("\nfinal-state differences between consecutive levels "
      "(should roughly halve):")
for (a, b), d in zip(zip(study["levels"], study["levels"][1:]),
                     study["final_state_diffs"]):
    print(f"  m={a} vs m={b}: {d:.4e}")

# The weak-inequality residual of each certified trajectory is nonnegative
# up to the aggregated per-step certificates.
print("\nweak-inequality slack per level:")
for level, traj in results:
    rep = mvs_residual(traj, problems[level], f_spec, g_spec)
    print(f"  m={level}: slack = {rep.slack:.3e}")
