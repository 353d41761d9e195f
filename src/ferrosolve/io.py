"""Deterministic artifact writers.

All numbers are formatted with 17 significant digits, so identical inputs
produce byte-identical files.  Trajectory and ledger data go to CSV with a
fixed, versioned column layout; field snapshots go to legacy-text
structured-grid files with one block per field.
"""

import os

import numpy as np

FORMAT_VERSION = 1


def _fmt(x):
    return f"{float(x):.17g}"


def _rows(fmt, values):
    """Rows of a 2-d array, each formatted by one ``%.17g`` format string."""
    return "".join(fmt % tuple(row) for row in np.asarray(values, dtype=float).tolist())


def _component_names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def trajectory_columns(dim):
    s = dim * (dim + 1) // 2
    return (["level", "step", "time", "cell"]
            + _component_names("r", s) + _component_names("P", dim)
            + _component_names("sigma", s) + _component_names("E", dim)
            + ["certificate"])


def write_trajectory_csv(path, level, traj, dim):
    """One row per (step, cell); columns fixed by :func:`trajectory_columns`."""
    h = traj.time_grid.h
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# ferrosolve trajectory v{FORMAT_VERSION}\n")
        fh.write(",".join(trajectory_columns(dim)) + "\n")
        n_cells, k = traj.z_nodes.shape[1:]
        cell = np.arange(n_cells)[:, None]
        values = ",".join(["%.17g"] * (2 * k))
        for n in range(traj.time_grid.n_steps):
            fmt = (f"{level},{n + 1},{_fmt((n + 1) * h)},%d,{values},"
                   f"{_fmt(traj.certificates[n].residual)}\n")
            fh.write(_rows(fmt, np.hstack([cell, traj.z_nodes[n + 1], traj.sigma_E[n]])))


def write_energy_csv(path, level, ledger):
    slack = ledger.slack()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# ferrosolve energy ledger v{FORMAT_VERSION}\n")
        fh.write("level,step,time,dissipation,Ig_star_rate,Ig_Sigma,"
                 "quad_energy,If_energy,slack\n")
        for n in range(len(ledger.dissipation)):
            fh.write(",".join([
                str(level), str(n + 1), _fmt((n + 1) * ledger.h),
                _fmt(ledger.dissipation[n]), _fmt(ledger.Ig_star_rate[n]),
                _fmt(ledger.Ig_Sigma[n]), _fmt(ledger.quad_energy[n + 1]),
                _fmt(ledger.If_energy[n + 1]), _fmt(slack[n]),
            ]) + "\n")


def write_certificates_csv(path, level, traj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# ferrosolve certificates v{FORMAT_VERSION}\n")
        fh.write("level,step,residual,constraint_violation,fixed_point_gap,iterations\n")
        for n, cert in enumerate(traj.certificates):
            fh.write(",".join([
                str(level), str(n + 1), _fmt(cert.residual),
                _fmt(cert.constraint_violation), _fmt(cert.fixed_point_gap),
                str(cert.iterations),
            ]) + "\n")


def write_measure_csv(path, measure):
    """Per-cell atoms of an empirical measure: one row per atom."""
    k = measure.first_moment.shape[-1]
    comp = _component_names("z", k)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# ferrosolve measure atoms v{FORMAT_VERSION}\n")
        fh.write("time_bin,cell_group,atom,weight," + ",".join(comp) + "\n")
        for i, row in enumerate(measure.atoms):
            for j, a in enumerate(row):
                wts = measure.weights[i][j]
                fmt = f"{i},{j},%d," + ",".join(["%.17g"] * (k + 1)) + "\n"
                fh.write(_rows(fmt, np.column_stack(
                    [np.arange(a.shape[0]), wts, a])))


def write_study_csv(path, study):
    """Per-level collapse diagnostics of a convergence study."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# ferrosolve convergence study v{FORMAT_VERSION}\n")
        fh.write("level,solo_spread,pooled_spread,F_deviation,final_state_diff\n")
        for i, lv in enumerate(study["levels"]):
            diff = study["final_state_diffs"][i - 1] if i > 0 else float("nan")
            fh.write(",".join([
                str(lv), _fmt(study["solo_spreads"][i]),
                _fmt(study["pooled_spreads"][i]), _fmt(study["F_deviation"][i]),
                _fmt(diff),
            ]) + "\n")


# ---------------------------------------------------------------------------
# legacy-text structured-grid snapshots


def write_snapshot(path, grid, fields, title="ferrosolve snapshot"):
    """Legacy-text structured-grid file: points + nodal fields + box fields.

    Nodal displacement and potential go into the point-data section; strains,
    stresses and electric quantities (per-simplex constants) are averaged per
    lattice box and written as cell data.
    """
    d = grid.dim
    npa = grid.nodes_per_axis
    dims = list(reversed(npa)) + [1] * (3 - d)
    n_nodes = grid.n_nodes
    coords = np.zeros((n_nodes, 3))
    coords[:, :d] = grid.node_coords

    n_boxes = int(np.prod(grid.cells_per_axis))
    n_simp = grid.n_cells // n_boxes

    def box_average(cell_vals):
        v = np.asarray(cell_vals, dtype=float)
        vols = grid.volumes.reshape(n_boxes, n_simp)
        shaped = v.reshape((n_boxes, n_simp) + v.shape[1:])
        w = vols / vols.sum(axis=1, keepdims=True)
        if shaped.ndim == 2:
            return np.sum(w * shaped, axis=1)
        return np.sum(w[..., None] * shaped, axis=1)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_GRID\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        fh.write(f"POINTS {n_nodes} double\n")
        fh.write(_rows("%.17g %.17g %.17g\n", coords))

        fh.write(f"POINT_DATA {n_nodes}\n")
        u3 = np.zeros((n_nodes, 3))
        u3[:, :d] = fields.u
        fh.write("VECTORS displacement double\n")
        fh.write(_rows("%.17g %.17g %.17g\n", u3))
        fh.write("SCALARS potential double 1\nLOOKUP_TABLE default\n")
        fh.write(_rows("%.17g\n", fields.phi[:, None]))

        fh.write(f"CELL_DATA {n_boxes}\n")
        blocks = [
            ("strain", box_average(fields.eps)),
            ("stress", box_average(fields.sigma)),
            ("electric_field", box_average(fields.E)),
            ("electric_displacement", box_average(fields.D)),
        ]
        for name, vals in blocks:
            ncomp = vals.shape[1]
            fh.write(f"SCALARS {name} double {ncomp}\nLOOKUP_TABLE default\n")
            fh.write(_rows(" ".join(["%.17g"] * ncomp) + "\n", vals))


def ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path
