"""Acceptance suite: ten end-to-end certification criteria.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failure) before asserting, so the suite doubles as a
human-readable certification report.
"""

import numpy as np
import pytest

from ferrosolve import (AssembledSystem, BallIndicator, Grid, LoadSchedule,
                        LogSaturationDirectional, LogSaturationRadial,
                        PowerLaw, Quadratic, SteppedProblem, TimeGrid,
                        Trajectory, average_loads, eval_F,
                        interpolant_gap, make_tensors, measure_at_time,
                        mvs_residual)
from ferrosolve.cli import main
from ferrosolve.potentials import full_grad, full_value


def _report(num, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _system(dim, n, coupling_scale=0.4, hardening=0.3, seed=0):
    rng = np.random.default_rng(seed)
    s = dim * (dim + 1) // 2
    t = make_tensors(dim, ("isotropic", 1.0, 1.1),
                     np.diag(rng.uniform(0.9, 1.4, dim)),
                     coupling=coupling_scale * rng.standard_normal((dim, s)),
                     hardening=hardening)
    grid = Grid(dim, n)
    return grid, AssembledSystem(grid, t)


def _reference(level, f_spec=None, g_spec=None, hardening=0.2, amp=0.8,
               step_tol=1e-6, fp_tol=1e-10):
    grid = Grid(1, 16)
    t = make_tensors(1, 2.0, 1.0, coupling=0.5, hardening=hardening)
    sys_ = AssembledSystem(grid, t)
    f_spec = f_spec or Quadratic(np.eye(2))
    g_spec = g_spec or PowerLaw(1.0, 2.0)
    prob = SteppedProblem(sys_, f_spec, g_spec, level, T=1.0)
    sched = LoadSchedule([0.0, 1.0], [[0.0], [amp]], [0.0, amp / 2])
    zhat = average_loads(sys_, sched, prob.time_grid)
    z0 = np.zeros((grid.n_cells, 2))
    traj, ledger = prob.run(z0, zhat, step_tol=step_tol, fp_tol=fp_tol)
    return grid, prob, zhat, traj, ledger


# ---------------------------------------------------------------------------


def test_acceptance_01_algebraic_certificates():
    worst = 0.0
    c0s, lam_mins = [], []
    for dim, n in ((1, 8), (2, 8), (3, 6)):
        grid, sys_ = _system(dim, n, seed=dim)
        c0s.append(sys_.block_A.c0)
        lam_mins.append(sys_.block_D.lam_min)
        D = sys_.block_D.matrix
        sym_gap = np.abs(D - D.T).max() / np.abs(D).max()
        worst = max(worst, sym_gap)
        rng = np.random.default_rng(dim)
        vol = grid.volumes[:, None]
        for _ in range(5):
            z = rng.standard_normal((grid.n_cells, grid.internal_dim))
            w = rng.standard_normal(z.shape)
            scale = max(np.abs(z).max(), 1.0)
            Qz = sys_.project_Q(z)
            worst = max(worst, np.abs(sys_.project_Q(Qz) - Qz).max() / scale)
            lhs = np.sum(vol * (Qz @ D.T) * w)
            rhs = np.sum(vol * (z @ D.T) * sys_.project_Q(w))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
            Mz, Mw = sys_.apply_M(z), sys_.apply_M(w)
            s1, s2 = np.sum(vol * Mz * w), np.sum(vol * z * Mw)
            worst = max(worst, abs(s1 - s2) / max(abs(s1), 1.0))
            psd = np.sum(vol * Mz * z)
            worst = max(worst, max(0.0, -psd))
    ok = min(c0s) > 0 and min(lam_mins) > 0 and worst <= 1e-8
    _report(1, ok, f"c0_min={min(c0s):.3e} lamD_min={min(lam_mins):.3e} "
            f"worst probe={worst:.3e} (<= 1e-8)")


def test_acceptance_02_manufactured_convergence():
    from test_elliptic import _manufactured_d1, _manufactured_d2, _observed_order
    o1 = _observed_order([_manufactured_d1(n) for n in (8, 16, 32, 64)])
    o2 = _observed_order([_manufactured_d2(n) for n in (4, 8, 16, 32)])
    ok = abs(o1 - 2.0) <= 0.2 and abs(o2 - 2.0) <= 0.2
    _report(2, ok, f"orders d1={o1:.3f} d2={o2:.3f} (2.0 +/- 0.2)")


def test_acceptance_03_step_oracles():
    # (a) closed-form linear oracle: quadratic f, p = 2 power law g
    grid = Grid(1, 1)
    t = make_tensors(1, 1.0, 1.0, coupling=0.6, hardening=0.2)
    sys_ = AssembledSystem(grid, t)
    c_g, H = 0.8, np.diag([0.5, 1.5])
    prob = SteppedProblem(sys_, Quadratic(H), PowerLaw(c_g, 2.0), 3, T=1.0)
    h = prob.h
    z_prev = np.array([[0.1, -0.3]])
    zhat = np.array([[0.7, 0.4]])
    z, _, _ = prob.step(z_prev, zhat, step_tol=1e-14, fp_tol=1e-13)
    Mm = sys_.assemble_M_matrix() + prob.L + prob.reg * np.eye(2)
    A = np.eye(2) / (2 * c_g * h) + Mm + H
    v_ref = np.linalg.solve(A, zhat[0] + z_prev[0] / (2 * c_g * h))
    err_a = np.abs(z[0] - v_ref).max()

    # (b) brute-force 400 x 400 grid search: indicator g, log-saturation f
    f_spec, g_spec = LogSaturationRadial(1.0), BallIndicator(0.5)
    prob2 = SteppedProblem(sys_, f_spec, g_spec, 2, T=1.0)
    z_prev2 = np.array([[0.05, 0.1]])
    zhat2 = np.array([[0.9, 0.8]])
    z2, _, _ = prob2.step(z_prev2, zhat2, step_tol=1e-12, fp_tol=1e-12)
    Mm2 = sys_.assemble_M_matrix() + prob2.L + prob2.reg * np.eye(2)
    r_grid = np.linspace(-1.0, 1.0, 400)
    P_grid = np.linspace(-0.999, 0.999, 400)
    R, P = np.meshgrid(r_grid, P_grid, indexing="ij")
    V = np.stack([R.ravel(), P.ravel()], axis=-1)
    rate = (V - z_prev2[0]) / prob2.h
    obj = (prob2.h * g_spec.conjugate_value(rate)
           + 0.5 * np.sum((V @ Mm2.T) * V, axis=-1)
           + full_value(f_spec, V) - V @ zhat2[0])
    best = V[np.argmin(np.where(np.isfinite(obj), obj, np.inf))]
    spacing = max(r_grid[1] - r_grid[0], P_grid[1] - P_grid[0])
    err_b = np.abs(z2[0] - best).max()
    ok = err_a <= 1e-9 and err_b <= spacing
    _report(3, ok, f"linear oracle err={err_a:.2e} (<=1e-9), "
            f"grid-search err={err_b:.2e} (<= {spacing:.2e})")


def test_acceptance_04_inclusion_certificates_and_uniqueness():
    grid, prob, zhat, traj, _ = _reference(level=6)
    worst_cert = max(c.residual for c in traj.certificates)
    rng = np.random.default_rng(123)
    worst_restart = 0.0
    for n in (0, 15, 31, 47, 63):
        z_prev, z_ref = traj.z_nodes[n], traj.z_nodes[n + 1]
        for _ in range(5):
            y0 = z_prev + 0.5 * rng.standard_normal(z_prev.shape)
            z, _, _ = prob.step(z_prev, zhat[n], step_tol=1e-6, fp_tol=1e-10,
                                y0=y0)
            worst_restart = max(worst_restart, np.abs(z - z_ref).max())
    ok = worst_cert <= 1e-6 and worst_restart <= 1e-7
    _report(4, ok, f"max certificate={worst_cert:.2e} (<=1e-6), "
            f"max restart deviation={worst_restart:.2e} (<=1e-7)")


def test_acceptance_05_energy_monitor_both_regimes():
    # rate-dependent regime: no hardening, coercive log-saturation f
    _, _, _, traj_a, led_a = _reference(
        level=5, f_spec=LogSaturationRadial(2.0), hardening=None, amp=0.6,
        step_tol=1e-10, fp_tol=1e-12)
    slack_a = led_a.slack().min()
    # rate-independent regime: indicator g, strictly positive hardening
    _, _, _, traj_b, led_b = _reference(
        level=5, g_spec=BallIndicator(0.4), hardening=0.3, amp=1.2,
        step_tol=1e-10, fp_tol=1e-12)
    slack_b = led_b.slack().min()
    viol = max(c.constraint_violation for c in traj_b.certificates)
    ok = slack_a >= -1e-8 and slack_b >= -1e-8 and viol <= 1e-8
    _report(5, ok, f"slack rate-dep={slack_a:.2e}, rate-indep={slack_b:.2e} "
            f"(>=-1e-8), K-violation={viol:.2e} (<=1e-8)")


def test_acceptance_06_dissipation():
    worst = np.inf
    for kwargs in ({}, {"g_spec": BallIndicator(0.4), "amp": 1.2},
                   {"f_spec": LogSaturationRadial(2.0), "hardening": None}):
        _, _, _, _, ledger = _reference(level=4, step_tol=1e-9, **kwargs)
        worst = min(worst, ledger.dissipation.min())
    ok = worst >= -1e-10
    _report(6, ok, f"min per-step dissipation={worst:.2e} (>=-1e-10)")


def test_acceptance_07_interpolant_gap_identity():
    worst = 0.0
    for kwargs in ({}, {"g_spec": BallIndicator(0.4), "amp": 1.2}):
        grid, prob, _, traj, _ = _reference(level=4, step_tol=1e-9, **kwargs)
        lhs, rhs = interpolant_gap(traj, grid.volumes, p_star=prob.g.p_star)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    ok = worst <= 1e-10
    _report(7, ok, f"max relative gap-identity error={worst:.2e} (<=1e-10)")


def test_acceptance_08_measure_collapse_and_mvs_slack():
    f_spec = Quadratic(np.eye(2))
    runs = {m: _reference(level=m, hardening=0.3, step_tol=1e-9, fp_tol=1e-11)
            for m in (4, 5, 6, 7)}
    grid = runs[4][0]
    trajs = {m: runs[m][3] for m in runs}

    # cross-level measure at the final time for growing level windows
    spreads = []
    for m in (4, 5, 6):
        mu = measure_at_time([trajs[m], trajs[m + 1]], grid.volumes, 1.0)
        spreads.append(mu.max_spread)
    monotone = all(a > b for a, b in zip(spreads, spreads[1:]))

    vol_w = grid.volumes / grid.volumes.sum()
    level_diff = float(np.sqrt(np.sum(
        vol_w[:, None] * (trajs[7].z_nodes[-1] - trajs[6].z_nodes[-1]) ** 2)))
    collapse_ok = spreads[-1] <= 10.0 * level_diff

    # averaged driving force approaches grad f at the barycenter
    mu_all = measure_at_time([trajs[m] for m in (4, 5, 6, 7)], grid.volumes, 1.0)
    F = eval_F(mu_all, f_spec)
    grad_bar = full_grad(f_spec, mu_all.first_moment[0])
    F_dev = float(np.abs(F[0] - grad_bar).max())

    # weak-inequality slack at the checkpoints t = 1/2 and t = 1
    worst_slack = 0.0
    for m in (4, 5, 6, 7):
        prob, traj = runs[m][1], trajs[m]
        rep_full = mvs_residual(traj, prob)
        half = Trajectory(TimeGrid(T=0.5, level=m - 1),
                          traj.z_nodes[:2 ** (m - 1) + 1],
                          traj.Mz[:2 ** (m - 1) + 1],
                          traj.zhat[:2 ** (m - 1)],
                          traj.certificates[:2 ** (m - 1)])
        rep_half = mvs_residual(half, prob)
        worst_slack = min(worst_slack, rep_full.slack, rep_half.slack)
    ok = monotone and collapse_ok and F_dev <= 1e-10 and worst_slack >= -1e-5
    _report(8, ok, f"spreads={['%.2e' % s for s in spreads]} monotone={monotone}, "
            f"final<=10x diff ({spreads[-1]:.2e} vs {10 * level_diff:.2e}), "
            f"F deviation={F_dev:.2e}, worst slack={worst_slack:.2e} (>=-1e-5)")


def test_acceptance_09_gradient_and_moreau_checks():
    rng = np.random.default_rng(2024)
    radial = LogSaturationRadial(1.5)
    direct = LogSaturationDirectional(1.5, [0.6, -0.8])
    worst_grad = 0.0
    n_ok = 0
    while n_ok < 1000:
        x = rng.uniform(-1.3, 1.3, 2)
        if not (np.hypot(*x) < 0.95 * 1.5 and abs(x @ [0.6, -0.8]) < 0.95 * 1.5):
            continue
        n_ok += 1
        for spec in (radial, direct):
            g = spec.grad(x)
            fd = np.zeros(2)
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += 1e-6
                xm[i] -= 1e-6
                fd[i] = (float(spec.value(xp)) - float(spec.value(xm))) / 2e-6
            worst_grad = max(worst_grad,
                             np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1.0))
    worst_moreau = 0.0
    for spec in (PowerLaw(1.0, 2.0), PowerLaw(0.7, 3.0), BallIndicator(0.9)):
        for _ in range(200):
            v = rng.uniform(-2.0, 2.0, 3)
            lam = float(rng.uniform(0.1, 3.0))
            gap = np.linalg.norm(
                spec.prox(lam, v) + lam * spec.conjugate_prox(1.0 / lam, v / lam) - v)
            worst_moreau = max(worst_moreau, gap)
    ok = worst_grad <= 1e-6 and worst_moreau <= 1e-9
    _report(9, ok, f"max grad-FD error={worst_grad:.2e} (<=1e-6), "
            f"max Moreau gap={worst_moreau:.2e} (<=1e-9)")


def test_acceptance_10_coercivity_gate(tmp_path):
    text = """
[grid]
dim = 2
cells = 2

[tensors]
elastic = isotropic 1.0 1.0
dielectric = 1.0

[potential.f]
family = log_saturation_directional
P_s = 1.0
a = 1.0 0.0

[potential.g]
family = ball_indicator
kappa = 0.5

[time]
T = 1.0
level = 2
"""
    path = tmp_path / "noncoercive.cfg"
    path.write_text(text)
    rc_plain = main(["check", str(path)])
    rc_override = main(["check", str(path), "--override-coercivity"])
    ok = rc_plain == 3 and rc_override == 0
    _report(10, ok, f"exit without override={rc_plain} (==3), "
            f"with override={rc_override} (==0)")
