"""Narrative walkthrough: drive a clamped ferroelectric bar through a load
ramp and watch the internal state, the per-step certificates, and the energy
balance.

Run with:  python3 demos/hysteresis_walkthrough.py
"""

import numpy as np

from ferrosolve import (AssembledSystem, BallIndicator, Grid, LoadSchedule,
                        Quadratic, SteppedProblem, average_loads, make_tensors)

# A one-dimensional bar, 16 cells, clamped and grounded at both ends.
grid = Grid(1, 16)
tensors = make_tensors(1, elastic=2.0, dielectric=1.0,
                       coupling=0.5, hardening=0.3)
system = AssembledSystem(grid, tensors)

print("stability certificates of the material block operators:")
print(f"  c0 (coupled quadratic-form bound) = {system.block_A.c0:.6f}")
print(f"  lambda_min of the dual metric     = {system.block_D.lam_min:.6f}")

# Rate-independent switching: an indicator dissipation potential with
# threshold kappa, plus a quadratic remanent energy.
f_spec = Quadratic(np.eye(2))
g_spec = BallIndicator(0.4)

level = 6                       # 2**6 = 64 implicit steps on [0, T]
problem = SteppedProblem(system, f_spec, g_spec, level, T=1.0)

# Ramp the body force and the free-charge density linearly in time.
schedule = LoadSchedule([0.0, 1.0], [[0.0], [4.0]], [0.0, 2.0])
zhat = average_loads(system, schedule, problem.time_grid)

z0 = np.zeros((grid.n_cells, grid.internal_dim))
traj, ledger = problem.run(z0, zhat, step_tol=1e-10)

print(f"\nran {problem.time_grid.n_steps} steps, h = {problem.h:.4f}")
worst = max(c.residual for c in traj.certificates)
print(f"worst per-step duality certificate: {worst:.3e}")
viol = max(c.constraint_violation for c in traj.certificates)
print(f"worst threshold violation |Sigma| - kappa: {viol:.3e}")

print(f"minimum cumulative energy slack: {ledger.slack().min():.3e}  "
      "(nonnegative up to solver tolerance)")
print(f"minimum per-step dissipation:    {ledger.dissipation.min():.3e}")

# The remanent strain and polarization at a quarter-point cell over time.
# (The center cell sits on the symmetry point of the ramp, where the driving
# force vanishes, so we look a quarter of the way along the bar instead.)
probe = grid.n_cells // 4
print("\n   t        r           P")
for n in range(0, problem.time_grid.n_steps + 1, 8):
    r, P = traj.z_nodes[n, probe]
    print(f"  {problem.time_grid.times[n]:.3f}   {r: .6f}   {P: .6f}")
