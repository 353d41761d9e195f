"""Empirical measure pooling, averaged driving force, weak-inequality residual."""

import numpy as np
import pytest

from ferrosolve import (AssembledSystem, AtomOutsideDomain, BallIndicator, Grid,
                        LoadSchedule, LogSaturationRadial, MismatchedScenario,
                        PowerLaw, Quadratic, SteppedProblem, average_loads,
                        build_measure, convergence_study, eval_F,
                        make_tensors, measure_at_time, mvs_residual,
                        uniform_partition, young)
from ferrosolve.potentials import full_contains, full_grad
from ferrosolve.young import EmpiricalYoungMeasure


def _run(level, grid, sys_, f, g, sched, step_tol=1e-10):
    prob = SteppedProblem(sys_, f, g, level, T=1.0)
    zhat = average_loads(sys_, sched, prob.time_grid)
    z0 = np.zeros((grid.n_cells, grid.internal_dim))
    traj, ledger = prob.run(z0, zhat, step_tol=step_tol, fp_tol=1e-12)
    return prob, traj


@pytest.fixture(scope="module")
def smooth_family():
    grid = Grid(1, 8)
    t = make_tensors(1, 2.0, 1.0, coupling=0.5, hardening=0.4)
    sys_ = AssembledSystem(grid, t)
    f = Quadratic(np.eye(grid.internal_dim))
    g = PowerLaw(1.0, 2.0)
    sched = LoadSchedule([0.0, 1.0], [[0.0], [0.6]], [0.0, 0.3])
    runs = {lv: _run(lv, grid, sys_, f, g, sched) for lv in (3, 4, 5)}
    return grid, sys_, f, g, runs


def test_measure_normalization_and_first_moment(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    edges = uniform_partition(runs[3][0].time_grid, n_time_bins=4)
    mu = build_measure(trajs, grid.volumes, edges)
    for row in mu.weights:
        for w in row:
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)
    # first moment equals the pooled weighted average by construction; check
    # against an independent accumulation over raw samples
    i, j = 1, 2
    a = mu.atoms[i][j]
    w = mu.weights[i][j]
    assert np.allclose(mu.first_moment[i, j], w @ a, atol=1e-12)


def test_single_level_identical_cells_is_dirac():
    """All pooled samples equal -> one effective atom per (time bin, cell),
    zero spread."""
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, coupling=0.2, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    prob = SteppedProblem(sys_, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 2, T=1.0)
    zhat = np.zeros((prob.time_grid.n_steps, grid.n_cells, 2))
    traj, _ = prob.run(np.full((grid.n_cells, 2), 0.0), zhat)
    edges = uniform_partition(prob.time_grid, n_time_bins=2)
    mu = build_measure([traj], grid.volumes, edges)
    assert mu.max_spread == 0.0
    F = eval_F(mu, Quadratic(np.eye(2)))
    assert np.abs(F).max() == 0.0


def test_two_atom_equal_volume_weights():
    class _T:
        pass

    def fake_traj(z_vals):
        t = _T()
        from ferrosolve import TimeGrid
        t.time_grid = TimeGrid(T=1.0, level=0 + 1)
        t.z_nodes = np.array([[[0.0, 0.0]], *[[[v, v]] for v in z_vals]])
        return t

    t1 = fake_traj([1.0, 1.0])
    t2 = fake_traj([2.0, 2.0])
    mu = build_measure([t1, t2], np.array([1.0]), np.array([0.0, 1.0]))
    # equal pooled volume: weights 1/2 on z1 atoms and 1/2 on z2 atoms
    w = mu.weights[0][0]
    a = mu.atoms[0][0]
    mass_at_1 = w[np.isclose(a[:, 0], 1.0)].sum()
    mass_at_2 = w[np.isclose(a[:, 0], 2.0)].sum()
    assert mass_at_1 == pytest.approx(0.5)
    assert mass_at_2 == pytest.approx(0.5)
    assert np.allclose(mu.first_moment[0, 0], [1.5, 1.5])


def test_eval_F_two_atoms_finite_difference_oracle():
    spec = LogSaturationRadial(1.5)
    atoms = np.array([[0.0, 0.3], [0.0, -0.6]])   # (r, P) with d = 1
    mu = EmpiricalYoungMeasure(
        time_edges=np.array([0.0, 1.0]), atoms=[atoms[None]], weights=[np.array([[0.3, 0.7]])],
        first_moment=(np.array([0.3, 0.7]) @ atoms)[None, None, :],
        spread=np.zeros((1, 1)))
    F = eval_F(mu, spec)

    def fd(P):
        h = 1e-6
        return (float(spec.value(np.array([P + h])))
                - float(spec.value(np.array([P - h])))) / (2 * h)

    expected_P = 0.3 * fd(0.3) + 0.7 * fd(-0.6)
    assert F[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert F[0, 0, 1] == pytest.approx(expected_P, rel=1e-6)


def test_eval_F_atom_outside_domain():
    spec = LogSaturationRadial(0.5)
    atoms = np.array([[0.0, 0.9]])
    mu = EmpiricalYoungMeasure(
        time_edges=np.array([0.0, 1.0]), atoms=[atoms[None]], weights=[np.array([[1.0]])],
        first_moment=atoms[None, :], spread=np.zeros((1, 1)))
    with pytest.raises(AtomOutsideDomain):
        eval_F(mu, spec)


def test_jensen_direction_two_atom_measures():
    """|grad f| convex: measure-average of |grad f| dominates value at mean."""
    spec = Quadratic(np.diag([1.0, 3.0]))
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = rng.uniform(-1, 1, (2, 2))
        w = rng.uniform(0.1, 0.9)
        weights = np.array([w, 1 - w])
        mean = weights @ a
        avg_norm = weights @ np.linalg.norm(spec.grad(a), axis=-1)
        assert avg_norm >= np.linalg.norm(spec.grad(mean)) - 1e-12


def test_mismatched_trajectories_rejected(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    edges = uniform_partition(runs[3][0].time_grid, n_time_bins=2)
    other = Grid(1, 4)
    t2 = make_tensors(1, 1.0, 1.0)
    sys2 = AssembledSystem(other, t2)
    prob2 = SteppedProblem(sys2, Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 3, T=1.0)
    traj2, _ = prob2.run(np.zeros((other.n_cells, 2)),
                         np.zeros((8, other.n_cells, 2)))
    with pytest.raises(MismatchedScenario):
        build_measure([runs[3][1], traj2], grid.volumes, edges)


def test_mvs_residual_certified_trajectory(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    prob, traj = runs[5]
    rep = mvs_residual(traj, prob)
    # slack = minus aggregated per-step certificates, so near zero from below
    assert rep.slack <= 1e-12
    assert rep.slack >= -1e-6


@pytest.mark.parametrize("g", [PowerLaw(1.0, 2.0), PowerLaw(1.0, 3.0), BallIndicator(0.05)],
                         ids=["power_p2", "power_p3", "ball"])
def test_mvs_residual_with_one_atom_per_cell_measure(g):
    """With one time bin per step, every (time bin, cell) holds one atom of
    weight 1, so the measure's driving force is grad f at the trajectory
    value and both sides equal those without a measure exactly; coarse time
    bins average F and move the slack."""
    grid = Grid(1, 6)
    t = make_tensors(1, 1.0, 1.0, coupling=0.3, hardening=0.4)
    sys_ = AssembledSystem(grid, t)
    f = LogSaturationRadial(1.0)
    sched = LoadSchedule([0.0, 1.0], [[0.0], [0.8]], [0.0, 0.6])
    prob, traj = _run(3, grid, sys_, f, g, sched, step_tol=1e-9)
    plain = mvs_residual(traj, prob)
    fine = uniform_partition(prob.time_grid, n_time_bins=prob.time_grid.n_steps)
    mu = build_measure([traj], grid.volumes, fine)
    assert all(len(w) == 1 for row in mu.weights for w in row)
    rep = mvs_residual(traj, prob, measure=mu)
    assert (rep.lhs, rep.rhs) == (plain.lhs, plain.rhs)
    coarse = uniform_partition(prob.time_grid, n_time_bins=4)
    rep = mvs_residual(traj, prob, measure=build_measure([traj], grid.volumes, coarse))
    assert rep.slack != plain.slack


def test_mvs_residual_zero_scenario():
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    f, g = Quadratic(np.eye(2)), PowerLaw(1.0, 2.0)
    prob = SteppedProblem(sys_, f, g, 2, T=1.0)
    traj, _ = prob.run(np.zeros((grid.n_cells, 2)),
                       np.zeros((4, grid.n_cells, 2)))
    rep = mvs_residual(traj, prob)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.slack == 0.0


def test_mvs_residual_scaling_with_horizon():
    """Time-translation-invariant regime: doubling the window doubles both sides.

    A linear ramp load drives the smooth quadratic problem onto a constant-rate
    trajectory once the geometric transient has decayed.  Comparing the
    one-unit window [2, 3] with the two-unit window [2, 4] of the same run
    (same step size, same regularization weight) must double each side.
    """
    from ferrosolve import TimeGrid, Trajectory

    grid = Grid(1, 8)
    t = make_tensors(1, 1.0, 1.0, coupling=0.3, hardening=0.5)
    sys_ = AssembledSystem(grid, t)
    f, g = Quadratic(4.0 * np.eye(2)), PowerLaw(2.0, 2.0)
    reg = 0.2

    # long run over [0, 4] with h = 1/32 (level 7)
    prob = SteppedProblem(sys_, f, g, 7, T=4.0, reg_weight=reg)
    sched = LoadSchedule([0.0, 4.0], [[0.0], [2.0]], [0.0, 1.0])
    zhat = average_loads(sys_, sched, prob.time_grid)
    traj, _ = prob.run(np.zeros((grid.n_cells, 2)), zhat,
                       step_tol=1e-12, fp_tol=1e-13)

    def window(n0, n_steps, T, level):
        tg = TimeGrid(T=T, level=level)
        assert tg.n_steps == n_steps and tg.h == pytest.approx(traj.time_grid.h)
        return Trajectory(tg, traj.z_nodes[n0:n0 + n_steps + 1],
                          traj.Sigma[n0:n0 + n_steps],
                          traj.sigma_E[n0:n0 + n_steps],
                          traj.certificates[n0:n0 + n_steps],
                          traj.zhat[n0:n0 + n_steps])

    prob1 = SteppedProblem(sys_, f, g, 5, T=1.0, reg_weight=reg)
    prob2 = SteppedProblem(sys_, f, g, 6, T=2.0, reg_weight=reg)
    rep1 = mvs_residual(window(64, 32, 1.0, 5), prob1)
    rep2 = mvs_residual(window(64, 64, 2.0, 6), prob2)
    assert rep2.lhs == pytest.approx(2.0 * rep1.lhs, rel=1e-4)
    assert rep2.rhs == pytest.approx(2.0 * rep1.rhs, rel=1e-4)


def test_convergence_study_smooth_regime(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    results = [(lv, runs[lv][1]) for lv in (3, 4, 5)]
    edges = uniform_partition(runs[3][0].time_grid, n_time_bins=4)
    mu = build_measure([tr for _, tr in results], grid.volumes, edges)
    study = convergence_study([tr for _, tr in results], f, grid.volumes, mu)
    diffs = study["final_state_diffs"]
    # successive level differences shrink by roughly a factor of two
    assert diffs[1] < diffs[0]
    assert diffs[1] / diffs[0] == pytest.approx(0.5, abs=0.25)
    # spread of a single level is zero only in degenerate cases; across the
    # smooth family it must stay bounded and the averaged force is exact for
    # quadratic f (linear gradient commutes with averaging)
    assert max(study["F_deviation"]) <= 1e-10


def test_zero_scenario_study_all_zero():
    grid = Grid(1, 4)
    t = make_tensors(1, 1.0, 1.0, hardening=0.1)
    sys_ = AssembledSystem(grid, t)
    f, g = Quadratic(np.eye(2)), PowerLaw(1.0, 2.0)
    results = []
    probs = {}
    for lv in (2, 3):
        prob = SteppedProblem(sys_, f, g, lv, T=1.0)
        traj, _ = prob.run(np.zeros((grid.n_cells, 2)),
                           np.zeros((2 ** lv, grid.n_cells, 2)))
        results.append((lv, traj))
        probs[lv] = prob
    edges = uniform_partition(probs[2].time_grid, n_time_bins=2)
    mu = build_measure([tr for _, tr in results], grid.volumes, edges)
    study = convergence_study([tr for _, tr in results], f, grid.volumes, mu)
    assert max(study["final_state_diffs"]) == 0.0
    assert max(study["pooled_spreads"]) == 0.0


# ---------------------------------------------------------------------------
# Independent oracles for the sorted segment-sum pooling: the per-bin loops
# that pooled the measures before, kept here verbatim in substance.


def _oracle_build(trajectories, volumes, time_edges):
    edges = np.asarray(time_edges, dtype=float)
    nt = len(edges) - 1
    n_cells, k = trajectories[0].z_nodes.shape[1:]
    atoms = [[[] for _ in range(n_cells)] for _ in range(nt)]
    wts = [[[] for _ in range(n_cells)] for _ in range(nt)]
    for tr in trajectories:
        h = tr.time_grid.h
        mids = (np.arange(tr.time_grid.n_steps) + 0.5) * h
        bins = np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, nt - 1)
        for n, i in enumerate(bins):
            zn = tr.z_nodes[n + 1]
            for c in range(n_cells):
                atoms[i][c].append(zn[c])
                wts[i][c].append(h * volumes[c])
    out_atoms, out_w = [], []
    first = np.zeros((nt, n_cells, k))
    spread = np.zeros((nt, n_cells))
    for i in range(nt):
        row_a, row_w = [], []
        for c in range(n_cells):
            a = np.array(atoms[i][c])
            w = np.array(wts[i][c])
            w = w / w.sum()
            row_a.append(a)
            row_w.append(w)
            bar = w @ a
            first[i, c] = bar
            spread[i, c] = np.sqrt(w @ np.sum((a - bar) ** 2, axis=-1))
        out_atoms.append(row_a)
        out_w.append(row_w)
    return out_atoms, out_w, first, spread


def _oracle_eval_F(atoms, weights, f_spec):
    nt, ng = len(atoms), len(atoms[0])
    out = np.zeros((nt, ng, atoms[0][0].shape[-1]))
    for i in range(nt):
        for j in range(ng):
            a = atoms[i][j]
            if not np.all(full_contains(f_spec, a)):
                raise AtomOutsideDomain(
                    f"atom outside the domain of the remanent energy in bin ({i}, {j})")
            out[i, j] = weights[i][j] @ full_grad(f_spec, a)
    return out


def _oracle_measure_at_time(trajectories, t):
    hs = np.array([tr.time_grid.h for tr in trajectories])
    wts = hs / hs.sum()
    samples = np.stack([tr.z_const(t) for tr in trajectories])
    n_cells, k = samples.shape[1:]
    atoms, weights = [], []
    first = np.zeros((1, n_cells, k))
    spread = np.zeros((1, n_cells))
    for c in range(n_cells):
        a = samples[:, c, :]
        atoms.append(a)
        weights.append(wts.copy())
        first[0, c] = wts @ a
        spread[0, c] = np.sqrt(wts @ np.sum((a - first[0, c]) ** 2, axis=-1))
    return [atoms], [weights], first, spread


def _assert_ulps(got, want, scale, n_ulp=4):
    """|got - want| within n_ulp units in the last place of scale."""
    assert np.all(np.abs(got - want) <= n_ulp * np.spacing(np.abs(scale)))


def _assert_same_measure(mu, atoms, weights, first, spread):
    assert len(mu.atoms) == len(atoms)
    for i in range(len(atoms)):
        assert len(mu.atoms[i]) == len(atoms[i])
        for j in range(len(atoms[i])):
            assert np.array_equal(mu.atoms[i][j], atoms[i][j])
            assert np.array_equal(mu.weights[i][j], weights[i][j])
            # a first moment is a sum of w|a| at most; rounding is relative to it
            scale = weights[i][j] @ np.abs(atoms[i][j])
            _assert_ulps(mu.first_moment[i, j], first[i, j], scale)
    _assert_ulps(mu.spread, spread, spread)


def _partitions(time_grid):
    """Time edges: level-3 step midpoints (odd multiples of 1/16) on bin
    edges; four equal bins; uneven hand-made bins."""
    return [
        uniform_partition(time_grid, n_time_bins=16),
        uniform_partition(time_grid, n_time_bins=4),
        np.array([0.0, 3.0 / 16.0, 0.5, 13.0 / 16.0, 1.0]),
    ]


def _uneven_volumes(grid):
    return grid.volumes * (1.0 + 0.37 * np.arange(grid.n_cells))


def test_build_measure_matches_per_bin_oracle(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    vols = _uneven_volumes(grid)
    for edges in _partitions(runs[3][0].time_grid):
        for subset in (trajs, trajs[1:], trajs[2:]):
            mu = build_measure(subset, vols, edges)
            _assert_same_measure(mu, *_oracle_build(subset, vols, edges))


def test_build_measure_holds_one_block_per_time_bin(smooth_family):
    """Every cell of time bin i holds the n_i atoms of the steps whose
    midpoints fall in the bin: atoms[i] is one (n_cells, n_i, k) array and
    weights[i] one (n_cells, n_i) array."""
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    k = trajs[0].z_nodes.shape[-1]
    for edges in _partitions(runs[3][0].time_grid):
        for subset in (trajs, trajs[1:], trajs[2:]):
            mu = build_measure(subset, grid.volumes, edges)
            assert len(mu.atoms) == len(mu.weights) == len(edges) - 1
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                n_i = 0
                for tr in subset:
                    mids = (np.arange(tr.time_grid.n_steps) + 0.5) * tr.time_grid.h
                    n_i += int(np.count_nonzero((lo <= mids) & (mids < hi)))
                assert mu.atoms[i].shape == (grid.n_cells, n_i, k)
                assert mu.weights[i].shape == (grid.n_cells, n_i)
    mu = measure_at_time(trajs, grid.volumes, 0.3)
    assert mu.atoms[0].shape == (grid.n_cells, len(trajs), k)
    assert mu.weights[0].shape == (grid.n_cells, len(trajs))


@pytest.mark.parametrize("edges", [[0.0, 0.5], [0.0, 0.5, 0.25, 1.0], [0.25, 1.0],
                                   [0.0, 0.5, 0.5, 1.0], [0.0, 1.5], [0.0, np.nan, 1.0],
                                   [1.0]],
                         ids=["short", "decreasing", "late_start", "repeated", "long",
                              "nan", "one_edge"])
def test_build_measure_rejects_edges_off_zero_to_T(smooth_family, edges):
    """Edges that do not increase strictly from 0 to T are refused, not
    clipped: a step outside them would be pooled into an end bin."""
    grid, sys_, f, g, runs = smooth_family
    with pytest.raises(ValueError, match="time edges must increase strictly from 0 to T = 1"):
        build_measure([runs[3][1]], grid.volumes, np.array(edges))


def test_eval_F_matches_per_bin_oracle(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    P_max = max(np.abs(tr.z_nodes[..., 1]).max() for tr in trajs)
    specs = [Quadratic(np.array([[2.0, 0.3], [0.3, 0.5]])),
             LogSaturationRadial(1.5 * P_max)]
    for edges in _partitions(runs[3][0].time_grid):
        mu = build_measure(trajs, _uneven_volumes(grid), edges)
        for spec in specs:
            F = eval_F(mu, spec)
            want = _oracle_eval_F(mu.atoms, mu.weights, spec)
            for i in range(len(mu.atoms)):
                for j in range(len(mu.atoms[i])):
                    scale = mu.weights[i][j] @ np.abs(full_grad(spec, mu.atoms[i][j]))
                    _assert_ulps(F[i, j], want[i, j], scale)


def test_eval_F_names_first_bin_outside_domain(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    edges = _partitions(runs[3][0].time_grid)[0]
    mu = build_measure(trajs, grid.volumes, edges)
    P_max = max(np.abs(tr.z_nodes[..., 1]).max() for tr in trajs)
    spec = LogSaturationRadial(1.5 * P_max)
    late = len(mu.atoms) - 1
    mu.atoms[late][2][-1, 1] = 2.0 * P_max
    mu.atoms[late][1][0, 1] = -2.0 * P_max
    with pytest.raises(AtomOutsideDomain) as want:
        _oracle_eval_F(mu.atoms, mu.weights, spec)
    with pytest.raises(AtomOutsideDomain) as got:
        eval_F(mu, spec)
    assert str(got.value) == str(want.value)
    assert f"({late}, 1)" in str(got.value)


def test_measure_at_time_matches_per_cell_oracle(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    trajs = [runs[lv][1] for lv in (3, 4, 5)]
    for t in (0.0, 0.3, 0.5, 1.0):
        mu = measure_at_time(trajs, grid.volumes, t)
        _assert_same_measure(mu, *_oracle_measure_at_time(trajs, t))


def test_build_measure_rejects_empty_time_bin(smooth_family):
    grid, sys_, f, g, runs = smooth_family
    edges = uniform_partition(runs[3][0].time_grid, n_time_bins=16)
    with pytest.raises(ValueError, match="time bin 0 "):
        build_measure([runs[3][1]], grid.volumes, edges)


# Independent oracle for the weak-inequality residual: the per-step loop that
# evaluated it before, with its own step -> time-bin lookup and a per-cell
# fill of the measure's driving force.


def _oracle_mvs(traj, problem, f_spec, g_spec, measure=None):
    vol = problem.vol
    h = traj.time_grid.h
    Lm = problem.L + problem.reg * np.eye(problem.L.shape[0])
    if measure is not None:
        F_bins = eval_F(measure, f_spec)
        edges = np.asarray(measure.time_edges, dtype=float)
    lhs = rhs = 0.0
    for n in range(traj.time_grid.n_steps):
        z = traj.z_nodes[n + 1]
        if measure is None:
            F = full_grad(f_spec, z)
        else:
            i = int(np.clip(np.searchsorted(edges, (n + 0.5) * h, side="right") - 1,
                            0, F_bins.shape[0] - 1))
            F = np.empty_like(z)
            for c in range(len(z)):
                F[c] = F_bins[i, c]
        arg = traj.sigma_E[n] - z @ Lm.T - F
        rate = (traj.z_nodes[n + 1] - traj.z_nodes[n]) / h
        arg_in = g_spec.project(arg)
        corr = np.sum(rate * (arg_in - arg), axis=-1)
        lhs += h * float(np.sum(vol * (g_spec.conjugate_value(rate)
                                       + g_spec.value(arg_in) + corr)))
        rhs += h * float(np.sum(vol * np.sum(rate * arg, axis=-1)))
    return lhs, rhs


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("g", [PowerLaw(1.0, 2.0), PowerLaw(0.7, 3.0), BallIndicator(0.05)],
                         ids=["power_p2", "power_p3", "ball"])
def test_mvs_residual_matches_per_step_oracle(dim, g):
    """Exact agreement at levels 3 and 5, without a measure and with the
    measure of both levels on each time partition, on 8 cells in 1-D
    and in 2-D."""
    grid = Grid(dim, 8 if dim == 1 else 2)
    if dim == 1:
        t = make_tensors(1, 2.0, 1.0, coupling=0.5, hardening=0.3)
        sched = LoadSchedule([0.0, 0.5, 1.0], [[0.0], [1.2], [-0.4]],
                             [0.0, 0.6, 0.1])
    else:
        t = make_tensors(2, ("isotropic", 1.0, 1.0), 1.0,
                         coupling=0.3 * np.eye(2, grid.strain_dim), hardening=0.2)
        sched = LoadSchedule([0.0, 0.5, 1.0],
                             [[0.0, 0.0], [1.5, -0.8], [-0.5, 0.6]],
                             [0.0, 0.9, -0.3])
    sys_ = AssembledSystem(grid, t)
    f = LogSaturationRadial(1.0)
    runs = [_run(lv, grid, sys_, f, g, sched, step_tol=1e-9) for lv in (3, 5)]
    measures = [None] + [build_measure([tr for _, tr in runs], _uneven_volumes(grid), edges)
                         for edges in _partitions(runs[0][0].time_grid)]
    for prob, traj in runs:
        for mu in measures:
            rep = mvs_residual(traj, prob, measure=mu)
            assert (rep.lhs, rep.rhs) == _oracle_mvs(traj, prob, f, g, measure=mu)


def test_mvs_residual_rejects_measure_of_another_grid(smooth_family):
    """A measure pooled on another grid supplies no driving force for some
    cells of the trajectory, so the residual refuses it, as the pooling
    refuses trajectories of different grids."""
    grid, sys_, f, g, runs = smooth_family
    prob, traj = runs[3]
    other = Grid(1, 4)
    prob2 = SteppedProblem(AssembledSystem(other, make_tensors(1, 1.0, 1.0)),
                           Quadratic(np.eye(2)), PowerLaw(1.0, 2.0), 3, T=1.0)
    traj2, _ = prob2.run(np.zeros((other.n_cells, 2)), np.zeros((8, other.n_cells, 2)))
    mu = build_measure([traj2], other.volumes,
                       uniform_partition(prob2.time_grid, n_time_bins=2))
    with pytest.raises(MismatchedScenario):
        mvs_residual(traj, prob, measure=mu)


def test_mvs_residual_rejects_measure_off_the_trajectory_time():
    """A measure whose time edges do not run from 0 to the trajectory's T is
    refused, not clipped: a measure over [0, 1] for a T = 2 trajectory would
    give every step after t = 1 the driving force of its last bin, and a
    measure at one time has no time bins."""
    grid = Grid(1, 4)
    sys_ = AssembledSystem(grid, make_tensors(1, 1.0, 1.0, coupling=0.3, hardening=0.4))
    f, g = LogSaturationRadial(1.0), PowerLaw(1.0, 2.0)
    sched = LoadSchedule([0.0, 2.0], [[0.0], [0.8]], [0.0, 0.6])
    runs = {}
    for T in (1.0, 2.0):
        prob = SteppedProblem(sys_, f, g, 3, T=T)
        runs[T] = prob, prob.run(np.zeros((grid.n_cells, 2)),
                                 average_loads(sys_, sched, prob.time_grid))[0]
    prob, traj = runs[2.0]
    short = runs[1.0][1]
    for mu in (build_measure([short], grid.volumes, uniform_partition(short.time_grid, 4)),
               measure_at_time([traj], grid.volumes, 0.5)):
        with pytest.raises(ValueError, match="time edges must increase strictly from 0 to T = 2"):
            mvs_residual(traj, prob, measure=mu)


# Independent oracle for the study: the loop that built every prefix measure
# and every single-level measure separately.


def _oracle_study(results, f_spec, volumes, time_edges):
    results = sorted(results, key=lambda lr: lr[0])
    trajs = [tr for _, tr in results]
    spreads, F_dev = [], []
    for i in range(1, len(trajs) + 1):
        mu = build_measure(trajs[:i], volumes, time_edges)
        spreads.append(mu.max_spread)
        F = eval_F(mu, f_spec)
        grad_bar = full_grad(f_spec, mu.first_moment)
        F_dev.append(float(np.abs(F - grad_bar).max(initial=0.0)))
    w = volumes / volumes.sum()
    final_diffs = [float(np.sqrt(np.sum(w[:, None] * (za.z_nodes[-1] - zb.z_nodes[-1]) ** 2)))
                   for za, zb in zip(trajs, trajs[1:])]
    solo = [build_measure([tr], volumes, time_edges).max_spread for tr in trajs]
    return {"levels": [lv for lv, _ in results], "pooled_spreads": spreads,
            "solo_spreads": solo, "F_deviation": F_dev, "final_state_diffs": final_diffs}


_STUDY_LEVELS = [(3,), (3, 4), (3, 4, 5)]


@pytest.mark.parametrize("levels", _STUDY_LEVELS, ids=["1_level", "2_levels", "3_levels"])
@pytest.mark.parametrize("uneven", [False, True], ids=["4_bins", "uneven_bins"])
def test_convergence_study_matches_per_prefix_oracle(smooth_family, levels, uneven):
    """Given the pooled measure, the study equals the loop that builds every
    prefix and every level alone, on a non-quadratic f whose averaged
    driving force differs from grad f at the first moment."""
    grid, sys_, f, g, runs = smooth_family
    results = [(lv, runs[lv][1]) for lv in levels]
    P_max = max(np.abs(tr.z_nodes[..., 1]).max() for _, tr in results)
    spec = LogSaturationRadial(1.5 * P_max)
    vols = _uneven_volumes(grid)
    edges = _partitions(runs[3][0].time_grid)[2 if uneven else 1]
    mu = build_measure([tr for _, tr in results], vols, edges)
    study = convergence_study([tr for _, tr in results[::-1]], spec, vols, mu)
    assert study == _oracle_study(results, spec, vols, edges)
    assert max(study["F_deviation"]) > 0.0


@pytest.mark.parametrize("levels", _STUDY_LEVELS, ids=["1_level", "2_levels", "3_levels"])
def test_convergence_study_builds_each_measure_once(smooth_family, monkeypatch, levels):
    """The pooled measure is given and the first level alone is the first
    prefix, so n levels take n - 1 prefix and n - 1 single-level builds."""
    grid, sys_, f, g, runs = smooth_family
    results = [(lv, runs[lv][1]) for lv in levels]
    edges = uniform_partition(runs[3][0].time_grid, n_time_bins=4)
    mu = build_measure([tr for _, tr in results], grid.volumes, edges)
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return build_measure(*args)

    monkeypatch.setattr(young, "build_measure", counted)
    convergence_study([tr for _, tr in results], f, grid.volumes, mu)
    n = len(levels)
    assert len(calls) == 2 * (n - 1)
    assert sorted(calls) == sorted(list(range(1, n)) + [1] * (n - 1))
