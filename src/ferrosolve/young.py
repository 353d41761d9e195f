"""Empirical parametrized-measure diagnostics for level families.

Trajectories computed at several dyadic levels are pooled into one discrete
probability measure per coarse space-time cell.  The pooling is one sorted
pass: every atom is labelled by its partition cell, the labels are stably
sorted once, and the weight sums, first moments, spreads and averaged driving
forces are segment sums (``np.add.reduceat``) over the sorted atoms.  The
diagnostics quantify whether the family collapses (spread of the atoms
shrinks with the level), whether the averaged driving force converges to the
gradient of the remanent energy at the barycenter, and whether the weak
solution inequality holds for the empirical measure within tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AtomOutsideDomain, MismatchedScenario
from .potentials import full_contains, full_grad


@dataclass(frozen=True)
class ReferencePartition:
    """Coarse space-time partition used to bin trajectory samples.

    time_edges : increasing array of time bin edges (nt+1,)
    cell_groups : list of integer arrays, a partition of the grid cells
    """

    time_edges: np.ndarray
    cell_groups: tuple


def uniform_partition(time_grid, grid, n_time_bins, n_cell_groups=None):
    """Equal time bins; grid cells split into contiguous groups."""
    edges = np.linspace(0.0, time_grid.T, n_time_bins + 1)
    if n_cell_groups is None:
        n_cell_groups = grid.n_cells
    groups = tuple(np.array_split(np.arange(grid.n_cells), n_cell_groups))
    groups = tuple(g for g in groups if len(g))
    return ReferencePartition(time_edges=edges, cell_groups=groups)


@dataclass
class EmpiricalYoungMeasure:
    """Weighted atoms per (time bin, cell group) of a reference partition.

    atoms[i][j] is an (n_ij, k) array, weights[i][j] an (n_ij,) probability
    vector (for built measures, views into one array of sorted atoms and one
    of weights); first_moment and spread are (nt, ng, k) and (nt, ng).
    """

    partition: ReferencePartition
    atoms: list
    weights: list
    first_moment: np.ndarray
    spread: np.ndarray

    @property
    def max_spread(self):
        return float(self.spread.max(initial=0.0))


def _check_family(trajectories):
    """(n_cells, k) of a level family that shares its grid and final time."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    T = trajectories[0].time_grid.T
    _, n_cells, k = trajectories[0].z_nodes.shape
    for tr in trajectories:
        if tr.time_grid.T != T or tr.z_nodes.shape[1] != n_cells:
            raise MismatchedScenario(
                "trajectories disagree on the final time or the grid")
    return n_cells, k


def _segment_sum(x, counts):
    """Sums along axis 0 of the consecutive segments of x of lengths counts.

    Each segment is led by a zero, so that ``np.add.reduceat`` adds it in the
    same pairwise order as ``np.sum`` of the segment alone (reduceat starts
    from a segment's first element) and an empty segment sums to zero.
    """
    starts = np.cumsum(counts) - counts
    padded = np.insert(x, starts, 0.0, axis=0)
    return np.add.reduceat(padded, starts + np.arange(len(counts)), axis=0)


def _pooled_moments(atoms, weights, counts):
    """First moment (n_seg, k) and spread (n_seg,) of each segment of atoms
    under its (already normalized) weights."""
    first = _segment_sum(weights[:, None] * atoms, counts)
    dev = np.sum((atoms - np.repeat(first, counts, axis=0)) ** 2, axis=-1)
    return first, np.sqrt(_segment_sum(weights * dev, counts))


def _cell_groups(partition, n_cells):
    """The cells of the partition's groups in group order, and their groups.

    Raises ValueError unless the groups partition cells 0 .. n_cells - 1,
    every cell in exactly one group.
    """
    groups = partition.cell_groups
    cells = np.concatenate(groups)
    if not np.array_equal(np.sort(cells), np.arange(n_cells)):
        raise ValueError(f"the cell groups do not partition the {n_cells} grid cells: "
                         "every cell must lie in exactly one group")
    return cells, np.repeat(np.arange(len(groups)), [len(g) for g in groups])


def _time_bins(time_grid, edges):
    """Time bin of each step: the bin of edges that holds the step's midpoint."""
    mids = (np.arange(time_grid.n_steps) + 0.5) * time_grid.h
    return np.clip(np.searchsorted(edges, mids, side="right") - 1, 0, len(edges) - 2)


def _rows(flat, counts, ng):
    """Split flat along axis 0 into segments (views), ng segments per row."""
    ends = np.cumsum(counts).tolist()
    segs = [flat[e - c:e] for e, c in zip(ends, counts.tolist())]
    return [segs[i:i + ng] for i in range(0, len(segs), ng)]


def build_measure(trajectories, volumes, partition):
    """Pool piecewise-constant interpolant values of several levels.

    Each step of each trajectory contributes one atom per grid cell with
    weight h * volume; weights are normalized per partition cell.  All
    trajectories must share the grid and final time.  Every atom is labelled
    by its (time bin, cell group) and the labels are stably sorted once, so a
    partition cell holds its atoms in the order trajectory, step, position in
    the group; the moments are segment sums over the sorted atoms.
    """
    n_cells, k = _check_family(trajectories)
    edges = np.asarray(partition.time_edges, dtype=float)
    nt = len(edges) - 1
    ng = len(partition.cell_groups)
    cells, group = _cell_groups(partition, n_cells)

    labels, atoms, wts = [], [], []
    for tr in trajectories:
        bins = _time_bins(tr.time_grid, edges)
        labels.append((bins[:, None] * ng + group).ravel())
        atoms.append(tr.z_nodes[1:, cells].reshape(-1, k))
        wts.append(np.tile(tr.time_grid.h * volumes[cells], len(bins)))
    labels = np.concatenate(labels)
    counts = np.bincount(labels, minlength=nt * ng)
    empty = np.flatnonzero(~counts.reshape(nt, ng).any(axis=1))
    if len(empty):
        raise ValueError(f"time bin {empty[0]} of the partition holds no step")
    order = np.argsort(labels, kind="stable")
    a = np.concatenate(atoms)[order]
    w = np.concatenate(wts)[order]
    w /= np.repeat(_segment_sum(w, counts), counts)
    first, spread = _pooled_moments(a, w, counts)
    return EmpiricalYoungMeasure(
        partition=partition, atoms=_rows(a, counts, ng), weights=_rows(w, counts, ng),
        first_moment=first.reshape(nt, ng, k), spread=spread.reshape(nt, ng),
    )


def measure_at_time(trajectories, volumes, t):
    """Cross-level measure at a fixed time: atoms are the levels' interpolant
    values, weighted by their step sizes.

    This is the pointwise-in-time counterpart of :func:`build_measure`: the
    collapse of these measures to a Dirac as the levels refine is the
    discrete signature of a strong (single-valued) limit.
    """
    n_cells, k = _check_family(trajectories)
    hs = np.array([tr.time_grid.h for tr in trajectories])
    wts = hs / hs.sum()
    groups = tuple(np.array([c]) for c in range(n_cells))
    part = ReferencePartition(time_edges=np.array([t, t]), cell_groups=groups)
    # (n_cells * n_levels, k): the atoms of cell c are rows c*nl .. (c+1)*nl
    a = np.stack([tr.z_const(t) for tr in trajectories], axis=1).reshape(-1, k)
    w = np.tile(wts, n_cells)
    counts = np.full(n_cells, len(trajectories))
    first, spread = _pooled_moments(a, w, counts)
    return EmpiricalYoungMeasure(
        partition=part, atoms=_rows(a, counts, n_cells), weights=_rows(w, counts, n_cells),
        first_moment=first[None], spread=spread[None])


def eval_F(measure, f_spec, strain_dim):
    """Measure-averaged driving force F = int grad f dmu per partition cell."""
    nt = len(measure.atoms)
    ng = len(measure.atoms[0])
    k = measure.first_moment.shape[-1]
    counts = np.array([len(w) for row in measure.weights for w in row])
    atoms = np.concatenate([a for row in measure.atoms for a in row])
    weights = np.concatenate([w for row in measure.weights for w in row])
    inside = np.atleast_1d(full_contains(f_spec, atoms, strain_dim))
    if not inside.all():
        i, j = divmod(int(np.searchsorted(np.cumsum(counts), np.argmin(inside),
                                          side="right")), ng)
        raise AtomOutsideDomain(
            f"atom outside the domain of the remanent energy in bin ({i}, {j})")
    grad = full_grad(f_spec, atoms, strain_dim)
    return _segment_sum(weights[:, None] * grad, counts).reshape(nt, ng, k)


@dataclass
class MVSResidualReport:
    """Both sides of the measure-valued weak inequality and their gap."""

    lhs: float
    rhs: float

    @property
    def slack(self):
        return self.rhs - self.lhs


def mvs_residual(traj, problem, f_spec, g_spec, measure=None):
    """Weak-inequality residual of one trajectory's step data.

    LHS integrates g*(rate) + g((sigma, E) - L_m z - F) over space-time, with
    g taken at the argument's flow-rule projection (``g_spec.project``) plus
    the pairing of the rate with the projection's move, as in the step
    certificate.  RHS is the duality pairing of the rate with the argument,
    with the inner integral computed cell-by-cell in time first, never as a
    reordered global quadrature.  L_m includes the level's vanishing
    regularization (it belongs to the discrete flow rule and disappears only
    in the limit), and F is the gradient of the remanent energy at the
    trajectory value unless a pooled measure is supplied, in which case the
    measure-averaged driving force of its space-time bin is used.  For a certified trajectory the
    slack equals minus the aggregate of the per-step duality certificates up
    to the measure-averaging error.
    """
    vol = problem.vol
    h = traj.time_grid.h
    s = problem.s
    Lm = problem.L + problem.reg * np.eye(problem.L.shape[0])
    z = traj.z_nodes[1:]
    if measure is None:
        F = full_grad(f_spec, z, s)
    else:
        part = measure.partition
        cells, group = _cell_groups(part, z.shape[1])
        bins = _time_bins(traj.time_grid, np.asarray(part.time_edges, dtype=float))
        F = np.zeros_like(z)
        F[:, cells] = eval_F(measure, f_spec, s)[bins[:, None], group]
    arg = traj.sigma_E - z @ Lm.T - F
    rate = traj.rates
    arg_in = g_spec.project(arg)
    corr = np.sum(rate * (arg_in - arg), axis=-1)
    lhs = h * np.sum(vol * (g_spec.conjugate_value(rate) + g_spec.value(arg_in) + corr),
                     axis=1)
    rhs = h * np.sum(vol * np.sum(rate * arg, axis=-1), axis=1)
    # a running sum in step order, not np.sum's pairwise order
    return MVSResidualReport(lhs=float(np.cumsum(lhs)[-1]), rhs=float(np.cumsum(rhs)[-1]))


def convergence_study(results, f_spec, strain_dim, volumes, partition):
    """Cross-level collapse diagnostics.

    Parameters
    ----------
    results : list of (level, Trajectory) sorted by level.

    Returns a dict with per-level spreads (pooling levels up to each entry),
    the deviation of the averaged driving force from grad f at the first
    moment, and pairwise level differences of the final state.
    """
    results = sorted(results, key=lambda lr: lr[0])
    levels = [lv for lv, _ in results]
    trajs = [tr for _, tr in results]

    spreads = []
    F_dev = []
    for i in range(1, len(trajs) + 1):
        mu = build_measure(trajs[:i], volumes, partition)
        spreads.append(mu.max_spread)
        F = eval_F(mu, f_spec, strain_dim)
        grad_bar = full_grad(f_spec, mu.first_moment, strain_dim)
        F_dev.append(float(np.abs(F - grad_bar).max(initial=0.0)))

    final_diffs = []
    for i in range(1, len(trajs)):
        za, zb = trajs[i - 1].z_nodes[-1], trajs[i].z_nodes[-1]
        w = volumes / volumes.sum()
        final_diffs.append(float(np.sqrt(np.sum(w[:, None] * (za - zb) ** 2))))

    # spread of each level alone (collapse monotonicity check)
    solo_spreads = []
    for tr in trajs:
        mu = build_measure([tr], volumes, partition)
        solo_spreads.append(mu.max_spread)

    return {
        "levels": levels,
        "pooled_spreads": spreads,
        "solo_spreads": solo_spreads,
        "F_deviation": F_dev,
        "final_state_diffs": final_diffs,
    }
