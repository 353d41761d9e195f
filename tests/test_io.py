"""Artifact writers against per-value ``'%.17g'`` formatting.

The oracle is Python's own ``'%.17g' % v``, one value at a time; it does not
go through ``ferrosolve.io``.
"""

import io

import numpy as np
import pytest

from ferrosolve import (EmpiricalYoungMeasure, EnergyLedger, FieldState, Grid,
                        StepCertificate, TimeGrid)
from ferrosolve.io import (_CHUNK, _write_values, write_certificates_csv,
                           write_energy_csv, write_measure_csv, write_mvs_csv,
                           write_snapshot, write_study_csv, write_trajectory_csv)
from ferrosolve.rothe import Trajectory

pytestmark = pytest.mark.filterwarnings("error")

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
           np.nextafter(0.0, 1.0) * 3, 1.0 / 3.0, -1e300, 0.1, 123456789.0]


def _g(v):
    return "%.17g" % v


def _oracle(values, seps):
    """Rows of the 2-d array values, value j followed by seps[j]."""
    values = np.asarray(values, dtype=float)
    row = "".join("%.17g" + s for s in seps)
    return (row * len(values)) % tuple(values.ravel().tolist())


def _written(values, seps):
    buf = io.BytesIO()
    _write_values(buf, np.asarray(values, dtype=float), seps)
    return buf.getvalue().decode()


def _first_mismatch(values, got):
    for v, line in zip(values, got.split("\n")):
        if line != _g(v):
            return v, line, _g(v)
    return None


def _corpus():
    """About 1.0 M seeded values that reach every branch of the formatter."""
    rng = np.random.default_rng(20131)
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([1e-280, 1e280, 2.2250738585072014e-308, 1.7976931348623157e308])
    with np.errstate(over="ignore"):    # the largest double steps up to inf
        edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                                np.nextafter(edges, np.inf)])
    specials = np.concatenate([
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny],
        tiny * rng.integers(1, 2 ** 52, 2000),                  # subnormals
        edges,
    ])
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    # k / 2**j with odd k: for small j many are exact ties at the 17th digit
    ties = np.ldexp(rng.integers(2 ** 51, 2 ** 53, 200_000) | 1,
                    -rng.integers(1, 64, 200_000))
    integers = np.concatenate([rng.integers(0, 2 ** 53, 100_000).astype(float),
                               np.arange(100_000.0), [2.0 ** 53, 2.0 ** 53 - 1]])
    bits = rng.integers(0, 2 ** 63, 300_000, dtype=np.int64)
    bits = np.where(rng.random(300_000) < 0.5, bits, bits | np.int64(-2 ** 63))
    scaled = rng.standard_normal(300_000) * 10.0 ** rng.integers(-300, 301, 300_000)
    corpus = np.concatenate([specials, powers, -powers, ties, integers,
                             bits.view(np.float64), scaled])
    return corpus


def test_formatter_matches_percent_g_on_a_million_values():
    values = _corpus()
    assert len(values) > 1_000_000
    got = _written(values[:, None], "\n")
    mismatch = None if got == _oracle(values[:, None], "\n") else _first_mismatch(values, got)
    assert mismatch is None     # (value, written, expected)


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_formatter_at_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(3 * n) * 10.0 ** rng.integers(-30, 30, 3 * n)
    values[:min(len(SPECIAL), 3 * n)] = SPECIAL[:3 * n]
    assert _written(values[:n, None], "\n") == _oracle(values[:n, None], "\n")
    rows = values.reshape(n, 3)
    assert _written(rows, " ,\n") == _oracle(rows, " ,\n")


def _special_values(rng, shape):
    """Floats of magnitudes 1e-300 to 1e300 that start with SPECIAL."""
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    v.flat[:len(SPECIAL)] = SPECIAL
    return v


def _special_trajectory(dim=2, n_cells=3, level=2):
    """A trajectory whose values hold every entry of SPECIAL plus random
    floats of magnitudes from 1e-300 to 1e300."""
    tg = TimeGrid(T=1.0, level=level)
    k = dim * (dim + 1) // 2 + dim
    rng = np.random.default_rng(0)
    z = _special_values(rng, (tg.n_steps + 1, n_cells, k))
    se = _special_values(rng, (tg.n_steps, n_cells, k))
    certs = [StepCertificate(r, v, g, i) for r, v, g, i in
             zip([np.nan, -0.0, 5e-324, 0.1], [0.0, np.inf, 1e-300, -2.0],
                 [1e300, 3.0, -0.0, np.nan], [0, 7, 10, 123456])]
    return Trajectory(tg, z, se, se, certs[:tg.n_steps], se)


def _check_trajectory(tmp_path, dim):
    traj = _special_trajectory(dim=dim)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    expected = []
    for n in range(traj.time_grid.n_steps):
        for c in range(traj.z_nodes.shape[1]):
            row = ["2", str(n + 1), _g((n + 1) * traj.time_grid.h), str(c)]
            row += [_g(v) for v in traj.z_nodes[n + 1, c]]
            row += [_g(v) for v in traj.sigma_E[n, c]]
            row.append(_g(traj.certificates[n].residual))
            expected.append(",".join(row))
    lines = path.read_text().splitlines()
    assert len(lines[1].split(",")) == 5 + 2 * (dim * (dim + 1) // 2 + dim)
    assert lines[2:] == expected
    assert "nan" in path.read_text() and "-inf" in path.read_text()


def test_trajectory_rows_match_per_value_format(tmp_path):
    _check_trajectory(tmp_path, 2)


def test_trajectory_3d_rows_match_per_value_format(tmp_path):
    _check_trajectory(tmp_path, 3)


def test_energy_rows_match_per_value_format(tmp_path):
    rng = np.random.default_rng(3)
    n = 4
    ledger = EnergyLedger(0.25, *(_special_values(rng, m) for m in (n, n, n, n, n)),
                          _special_values(rng, n + 1), _special_values(rng, n + 1))
    ledger.Ig_star_rate[:] = [1.0, np.inf, -0.0, 3e-5]
    path = tmp_path / "e.csv"
    with np.errstate(all="ignore"):
        slack = ledger.slack()
        write_energy_csv(path, 7, ledger)
    expected = [",".join(["7", str(i + 1), _g((i + 1) * 0.25), _g(ledger.dissipation[i]),
                          _g(ledger.Ig_star_rate[i]), _g(ledger.Ig_Sigma[i]),
                          _g(ledger.quad_energy[i + 1]), _g(ledger.If_energy[i + 1]),
                          _g(slack[i])]) for i in range(n)]
    assert path.read_text().splitlines()[2:] == expected


def test_certificate_rows_match_per_value_format(tmp_path):
    traj = _special_trajectory(level=12)
    path = tmp_path / "c.csv"
    write_certificates_csv(path, traj)
    expected = [f"12,{n + 1},{_g(c.residual)},{_g(c.constraint_violation)},"
                f"{_g(c.fixed_point_gap)},{c.iterations}"
                for n, c in enumerate(traj.certificates)]
    assert path.read_text().splitlines()[2:] == expected


def test_study_rows_match_per_value_format(tmp_path):
    study = {"levels": [3, 4, 10], "solo_spreads": SPECIAL[:3],
             "pooled_spreads": SPECIAL[3:6], "F_deviation": SPECIAL[6:9],
             "final_state_diffs": SPECIAL[9:11]}
    path = tmp_path / "s.csv"
    write_study_csv(path, study)
    diffs = [np.nan] + study["final_state_diffs"]
    expected = [",".join([str(lv)] + [_g(study[key][i]) for key in
                                      ("solo_spreads", "pooled_spreads", "F_deviation")]
                         + [_g(diffs[i])]) for i, lv in enumerate(study["levels"])]
    assert path.read_text().splitlines()[2:] == expected


def test_mvs_rows_match_per_value_format(tmp_path):
    levels = [3, 4, 10]
    rows = np.array(SPECIAL[:len(levels) * 5 - 3] + [2.5, -1e-5, 7e22]).reshape(-1, 5)
    path = tmp_path / "mvs.csv"
    write_mvs_csv(path, levels, [tuple(r) for r in rows])
    expected = ["level,lhs,rhs,slack,gap_lhs,gap_rhs"] + [
        ",".join([str(lv)] + [_g(v) for v in row]) for lv, row in zip(levels, rows)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_measure_rows_match_per_value_format(tmp_path):
    rng = np.random.default_rng(4)
    k, n_cells = 5, 2
    counts = [3, 12]                     # atoms per cell in each of 2 time bins
    atoms = [_special_values(rng, (n_cells, c, k)) for c in counts]
    weights = [_special_values(rng, (n_cells, c)) for c in counts]
    measure = EmpiricalYoungMeasure(np.array([0.0, 0.5, 1.0]), atoms, weights,
                                    np.zeros((2, n_cells, k)), np.zeros((2, n_cells)))
    path = tmp_path / "m.csv"
    write_measure_csv(path, measure)
    expected = [",".join([str(i), str(j), str(a), _g(weights[i][j, a])]
                         + [_g(v) for v in atoms[i][j, a]])
                for i in range(2) for j in range(n_cells) for a in range(counts[i])]
    lines = path.read_text().splitlines()
    assert lines[1] == "time_bin,cell_group,atom,weight,z0,z1,z2,z3,z4"
    assert lines[2:] == expected


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
    assert disp == [f"{_g(a)} {_g(b)} {_g(0.0)}" for a, b in fields.u]
    phi_at = start + grid.n_nodes + 2
    assert lines[phi_at:phi_at + grid.n_nodes] == [_g(v) for v in fields.phi]


def test_integer_columns_at_every_power_of_ten(tmp_path):
    """Level, step, cell and iteration counts are integral doubles through
    the formatter; exact powers of ten take its per-value path."""
    iterations = [0] + [i for e in range(1, 6) for i in (10 ** e - 1, 10 ** e)] + [1]
    tg = TimeGrid(T=1.0, level=7)
    n_cells, k = 1001, 2
    rng = np.random.default_rng(5)
    z = rng.standard_normal((tg.n_steps + 1, n_cells, k))
    se = rng.standard_normal((tg.n_steps, n_cells, k))
    certs = [StepCertificate(0.5 ** n, 0.0, 1e-3, iterations[n % len(iterations)])
             for n in range(tg.n_steps)]
    traj = Trajectory(tg, z, se, se, certs, se)
    write_certificates_csv(tmp_path / "c.csv", traj)
    fields = [line.split(",") for line in (tmp_path / "c.csv").read_text().splitlines()[2:]]
    assert [(f[0], f[1], f[5]) for f in fields] == [
        ("7", str(n + 1), str(c.iterations)) for n, c in enumerate(certs)]
    write_trajectory_csv(tmp_path / "t.csv", traj)
    fields = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()[2:]]
    assert [(f[0], f[1], f[3]) for f in fields] == [
        ("7", str(n + 1), str(c)) for n in range(tg.n_steps) for c in range(n_cells)]
