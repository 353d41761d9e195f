"""Artifact writers: row formatting against per-value formatting."""

import numpy as np

from ferrosolve import FieldState, Grid, StepCertificate, TimeGrid
from ferrosolve.io import _fmt, write_snapshot, write_trajectory_csv
from ferrosolve.rothe import Trajectory

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
           np.nextafter(0.0, 1.0) * 3, 1.0 / 3.0, -1e300, 0.1, 123456789.0]


def _special_trajectory(dim=2, n_cells=3, level=2):
    """A trajectory whose values hold every entry of SPECIAL plus random
    floats of magnitudes from 1e-300 to 1e300."""
    tg = TimeGrid(T=1.0, level=level)
    k = dim * (dim + 1) // 2 + dim
    rng = np.random.default_rng(0)

    def values(shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        v.flat[:len(SPECIAL)] = SPECIAL
        return v

    z, se = values((tg.n_steps + 1, n_cells, k)), values((tg.n_steps, n_cells, k))
    certs = [StepCertificate(r, 0.0, 0.0, 1) for r in (np.nan, -0.0, 5e-324, 0.1)]
    return Trajectory(tg, z, se, se, certs, se)


def test_trajectory_rows_match_per_value_format(tmp_path):
    traj = _special_trajectory()
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, 2, traj, 2)
    expected = []
    for n in range(traj.time_grid.n_steps):
        for c in range(traj.z_nodes.shape[1]):
            row = ["2", str(n + 1), _fmt((n + 1) * traj.time_grid.h), str(c)]
            row += [_fmt(v) for v in traj.z_nodes[n + 1, c]]
            row += [_fmt(v) for v in traj.sigma_E[n, c]]
            row.append(_fmt(traj.certificates[n].residual))
            expected.append(",".join(row))
    lines = path.read_text().splitlines()[2:]
    assert lines == expected
    assert "nan" in path.read_text() and "-inf" in path.read_text()


def test_snapshot_rows_match_per_value_format(tmp_path):
    grid = Grid(2, 2)
    rng = np.random.default_rng(2)
    nodal = rng.choice(SPECIAL, (grid.n_nodes, 3))
    cells = rng.standard_normal((grid.n_cells, 3))
    fields = FieldState(u=nodal[:, :2], phi=nodal[:, 2], eps=cells, E=cells[:, :2],
                        sigma=cells, D=cells[:, :2])
    path = tmp_path / "s.vtk"
    write_snapshot(path, grid, fields)
    lines = path.read_text().splitlines()
    start = lines.index(f"POINT_DATA {grid.n_nodes}") + 2
    disp = lines[start:start + grid.n_nodes]
    assert disp == [f"{_fmt(a)} {_fmt(b)} {_fmt(0.0)}" for a, b in fields.u]
    phi_at = start + grid.n_nodes + 2
    assert lines[phi_at:phi_at + grid.n_nodes] == [_fmt(v) for v in fields.phi]
