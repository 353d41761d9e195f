"""Empirical parametrized-measure diagnostics for level families.

Trajectories computed at several dyadic levels are pooled into one discrete
probability measure per (time bin, grid cell), the discrete counterpart of
the Young measure indexed by the points of space-time.  The pooling is one
sorted pass: every atom is labelled by its partition cell, the labels are
stably sorted once, and the weight sums, first moments, spreads and averaged
driving forces are segment sums (``np.add.reduceat``) over the sorted atoms.
The diagnostics quantify whether the family collapses (spread of the atoms
shrinks with the level), whether the averaged driving force converges to the
gradient of the remanent energy at the barycenter, and whether the weak
solution inequality holds for the empirical measure within tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AtomOutsideDomain, MismatchedScenario
from .potentials import full_contains, full_grad


def uniform_partition(time_grid, n_time_bins):
    """Edges of n_time_bins equal time bins over [0, T]."""
    return np.linspace(0.0, time_grid.T, n_time_bins + 1)


@dataclass
class EmpiricalYoungMeasure:
    """Weighted atoms per (time bin, grid cell).

    time_edges is the increasing array of the nt + 1 time bin edges.  Every
    grid cell of time bin i holds the same number n_i of atoms: atoms[i] is
    an (n_cells, n_i, k) array and weights[i] an (n_cells, n_i) array whose
    rows are probability vectors, so atoms[i][c] are the atoms of bin i and
    cell c (for built measures, views into one array of sorted atoms and
    one of weights); first_moment and spread are (nt, n_cells, k) and
    (nt, n_cells).
    """

    time_edges: np.ndarray
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


def _time_bins(time_grid, edges):
    """Time bin of each step: the bin of edges that holds the step's midpoint."""
    mids = (np.arange(time_grid.n_steps) + 0.5) * time_grid.h
    return np.searchsorted(edges, mids, side="right") - 1


def _time_edges(time_edges, T):
    """The time edges as floats; ValueError unless they increase strictly from 0 to T."""
    edges = np.asarray(time_edges, dtype=float)
    if not (len(edges) > 1 and edges[0] == 0.0 and edges[-1] == T
            and np.all(np.diff(edges) > 0.0)):
        raise ValueError(f"time edges must increase strictly from 0 to T = {T:g}")
    return edges


def build_measure(trajectories, volumes, time_edges):
    """Pool piecewise-constant interpolant values of several levels.

    Each step of each trajectory contributes one atom per grid cell with
    weight h * volume; weights are normalized per (time bin, grid cell).  All
    trajectories must share the grid and final time T, and time_edges must
    increase strictly from 0 to T.  Every atom is labelled by its (time bin,
    grid cell) and the labels are stably sorted once, so a partition cell
    holds its atoms in the order trajectory, step; the moments are segment
    sums over the sorted atoms.
    """
    n_cells, k = _check_family(trajectories)
    edges = _time_edges(time_edges, trajectories[0].time_grid.T)
    nt = len(edges) - 1

    bins = [_time_bins(tr.time_grid, edges) for tr in trajectories]
    steps = np.bincount(np.concatenate(bins), minlength=nt)
    empty = np.flatnonzero(steps == 0)
    if len(empty):
        raise ValueError(f"time bin {empty[0]} of the partition holds no step")
    labels = np.concatenate([(b[:, None] * n_cells + np.arange(n_cells)).ravel() for b in bins])
    order = np.argsort(labels, kind="stable")
    a = np.concatenate([tr.z_nodes[1:].reshape(-1, k) for tr in trajectories])[order]
    w = np.concatenate([np.tile(tr.time_grid.h * volumes, tr.time_grid.n_steps)
                        for tr in trajectories])[order]
    counts = np.repeat(steps, n_cells)
    w /= np.repeat(_segment_sum(w, counts), counts)
    first, spread = _pooled_moments(a, w, counts)
    split = np.cumsum(steps * n_cells)[:-1]
    return EmpiricalYoungMeasure(
        time_edges=edges, atoms=[b.reshape(n_cells, -1, k) for b in np.split(a, split)],
        weights=[b.reshape(n_cells, -1) for b in np.split(w, split)],
        first_moment=first.reshape(nt, n_cells, k), spread=spread.reshape(nt, n_cells),
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
    # (n_cells * n_levels, k): the atoms of cell c are rows c*nl .. (c+1)*nl
    a = np.stack([tr.z_const(t) for tr in trajectories], axis=1).reshape(-1, k)
    w = np.tile(wts, n_cells)
    counts = np.full(n_cells, len(trajectories))
    first, spread = _pooled_moments(a, w, counts)
    return EmpiricalYoungMeasure(
        time_edges=np.array([t, t]), atoms=[a.reshape(n_cells, -1, k)],
        weights=[w.reshape(n_cells, -1)], first_moment=first[None], spread=spread[None])


def eval_F(measure, f_spec):
    """Measure-averaged driving force F = int grad f dmu per partition cell."""
    nt, n_cells, k = measure.first_moment.shape
    counts = np.repeat([w.shape[1] for w in measure.weights], n_cells)
    atoms = np.concatenate([a.reshape(-1, k) for a in measure.atoms])
    weights = np.concatenate([w.ravel() for w in measure.weights])
    inside = np.atleast_1d(full_contains(f_spec, atoms))
    if not inside.all():
        i, j = divmod(int(np.searchsorted(np.cumsum(counts), np.argmin(inside),
                                          side="right")), n_cells)
        raise AtomOutsideDomain(
            f"atom outside the domain of the remanent energy in bin ({i}, {j})")
    grad = full_grad(f_spec, atoms)
    return _segment_sum(weights[:, None] * grad, counts).reshape(nt, n_cells, k)


@dataclass
class MVSResidualReport:
    """Both sides of the measure-valued weak inequality and their gap."""

    lhs: float
    rhs: float

    @property
    def slack(self):
        return self.rhs - self.lhs


def mvs_residual(traj, problem, measure=None):
    """Weak-inequality residual of one trajectory's step data.

    LHS integrates g*(rate) + g((sigma, E) - L_m z - F) over space-time, with
    the problem's g taken at the argument's flow-rule projection plus the
    pairing of the rate with the projection's move, as in the step
    certificate.  RHS is the duality pairing of the rate with the argument,
    with the inner integral computed cell-by-cell in time first, never as a
    reordered global quadrature.  L_m includes the level's vanishing
    regularization (it belongs to the discrete flow rule and disappears only
    in the limit), and F is the gradient of the remanent energy at the
    trajectory value unless a pooled measure is supplied, in which case the
    measure-averaged driving force of its (time bin, grid cell) is used; a
    measure on another grid is a MismatchedScenario, and one whose time edges
    do not run from 0 to the trajectory's T a ValueError.  For a certified
    trajectory the slack equals minus the aggregate of the per-step duality
    certificates up to the measure-averaging error.
    """
    vol, f_spec, g_spec = problem.vol, problem.f, problem.g
    h = traj.time_grid.h
    Lm = problem.L + problem.reg * np.eye(problem.L.shape[0])
    z = traj.z_nodes[1:]
    if measure is None:
        F = full_grad(f_spec, z)
    else:
        if measure.first_moment.shape[1] != z.shape[1]:
            raise MismatchedScenario("the measure and the trajectory disagree on the grid")
        bins = _time_bins(traj.time_grid, _time_edges(measure.time_edges, traj.time_grid.T))
        F = eval_F(measure, f_spec)[bins]
    arg = traj.sigma_E - z @ Lm.T - F
    rate = traj.rates
    arg_in = g_spec.project(arg)
    corr = np.sum(rate * (arg_in - arg), axis=-1)
    lhs = h * np.sum(vol * (g_spec.conjugate_value(rate) + g_spec.value(arg_in) + corr),
                     axis=1)
    rhs = h * np.sum(vol * np.sum(rate * arg, axis=-1), axis=1)
    # a running sum in step order, not np.sum's pairwise order
    return MVSResidualReport(lhs=float(np.cumsum(lhs)[-1]), rhs=float(np.cumsum(rhs)[-1]))


def convergence_study(trajectories, f_spec, volumes, measure):
    """Cross-level collapse diagnostics.

    Parameters
    ----------
    trajectories : the level family in any order; the study sorts it by level.
    measure : the measure of all the trajectories pooled in level order
        (:func:`build_measure`); the measures of the other prefixes of the
        family and of each level alone are built on its time edges.

    Returns a dict with per-level spreads (pooling levels up to each entry),
    the deviation of the averaged driving force from grad f at the first
    moment, and pairwise level differences of the final state.
    """
    trajs = sorted(trajectories, key=lambda tr: tr.time_grid.level)
    edges = measure.time_edges

    def F_deviation(mu):
        F = eval_F(mu, f_spec)
        grad_bar = full_grad(f_spec, mu.first_moment)
        return float(np.abs(F - grad_bar).max(initial=0.0))

    # one measure at a time: each is dropped once its numbers are taken
    spreads, F_dev = [], []
    for i in range(1, len(trajs)):
        mu = build_measure(trajs[:i], volumes, edges)
        spreads.append(mu.max_spread)
        F_dev.append(F_deviation(mu))
        del mu
    spreads.append(measure.max_spread)
    F_dev.append(F_deviation(measure))

    final_diffs = []
    for i in range(1, len(trajs)):
        za, zb = trajs[i - 1].z_nodes[-1], trajs[i].z_nodes[-1]
        w = volumes / volumes.sum()
        final_diffs.append(float(np.sqrt(np.sum(w[:, None] * (za - zb) ** 2))))

    # spread of each level alone (collapse monotonicity check); the first
    # level alone is the first prefix
    solo_spreads = spreads[:1] + [build_measure([tr], volumes, edges).max_spread
                                  for tr in trajs[1:]]

    return {
        "levels": [tr.time_grid.level for tr in trajs],
        "pooled_spreads": spreads,
        "solo_spreads": solo_spreads,
        "F_deviation": F_dev,
        "final_state_diffs": final_diffs,
    }
