"""Seeded scenario workloads of the benchmark.

Each workload is one ``ferrosolve`` command on one generated scenario file.
The seed perturbs the load amplitudes (by at most 10 %) and puts a small
per-cell initial polarization into every cell; sizes, families and the
time levels stay fixed, so every seed keeps the workload in its regime.
The scenario text goes through ``serialize_scenario`` and must read back
unchanged through ``parse_scenario``; the program sees only that file.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # "run" or "converge"
    base: str              # scenario text before the seeded perturbation


LOAD_JITTER = 0.1          # relative spread of the load amplitudes
P0_AMPLITUDE = 0.02        # bound of each initial polarization component


_MATERIAL_2D = """
[tensors]
elastic = isotropic 1.0 1.0
dielectric = 1.0
coupling = 0.3 0.0 0.0 0.0 0.3 0.0
hardening = 0.1
"""

WORKLOADS = {w.name: w for w in (
    # ROADMAP baseline run (2-D 16x16, n = 2560, 32 steps).  The elliptic
    # layer dominates: the dense M from 2560 single-column solves, the
    # dense stepper mat-vecs and the trajectory writer.  The splitting loop
    # is light (about 20 iterations per step).
    Workload(
        name="run-2d-powerlaw",
        command="run",
        base="""
[grid]
dim = 2
cells = 16 16
""" + _MATERIAL_2D + """
[potential.f]
family = log_saturation_radial
P_s = 1.0

[potential.g]
family = power_law
c = 1.0
p = 3.0

[time]
T = 1.0
level = 5

[loads]
row = 0.0 0.0 0.0 0.0
row = 1.0 0.6 0.3 1.0
""",
    ),
    # Rate-independent charge cycle on 2-D 8x8 (n = 640, 128 steps), about
    # 50 splitting iterations per step: the stepper and the log-saturation
    # prox dominate and the elliptic set-up is small, so an elliptic
    # optimisation should not move it and a stepper or prox one should.
    Workload(
        name="run-2d-hysteresis",
        command="run",
        base="""
[grid]
dim = 2
cells = 8 8
""" + _MATERIAL_2D + """
[potential.f]
family = log_saturation_radial
P_s = 1.0

[potential.g]
family = ball_indicator
kappa = 0.1

[time]
T = 1.0
level = 7

[loads]
row = 0.0 0.0 0.0 0.0
row = 0.25 0.0 0.0 2.0
row = 0.75 0.0 0.0 -2.0
row = 1.0 0.0 0.0 0.0
""",
    ),
    # 3-D level study on a 3^3 Kuhn grid (n = 1458), levels 3..5.  The CLI
    # rebuilds the system, the LU factorization and the dense M once per
    # level; it is the only workload that runs the measure diagnostics
    # (`young`) and the measure writer, and it covers 3-D strain packing.
    Workload(
        name="converge-3d",
        command="converge",
        base="""
[grid]
dim = 3
cells = 3 3 3

[tensors]
elastic = isotropic 1.0 1.0
dielectric = 1.0
coupling = 0.2 0.0 0.0 0.0 0.0 0.0 0.0 0.2 0.0 0.0 0.0 0.0 0.0 0.0 0.2 0.0 0.0 0.0
hardening = 0.2

[potential.f]
family = quadratic
H = 1.0

[potential.g]
family = power_law
c = 1.0
p = 2.0

[time]
T = 1.0
level = 5
levels = 3 5

[loads]
row = 0.0 0.0 0.0 0.0 0.0
row = 1.0 0.5 0.25 0.0 1.0
""",
    ),
)}


def scenario_text(workload, seed):
    """Canonical scenario text of ``workload`` for ``seed``."""
    from ferrosolve import parse_scenario, serialize_scenario

    scn = parse_scenario(workload.base, is_text=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    scale = 1.0 + LOAD_JITTER * rng.uniform(-1.0, 1.0, size=2)
    scn.load_b = scn.load_b * scale[0]
    scn.load_q = scn.load_q * scale[1]
    n_cells = scn.build_grid().n_cells
    s = scn.dim * (scn.dim + 1) // 2
    scn.z0 = np.zeros((n_cells, scn.z0.shape[-1]))
    scn.z0[:, s:] = P0_AMPLITUDE * rng.uniform(-1.0, 1.0, size=(n_cells, scn.dim))
    scn.z0_uniform = False
    scn.seed = int(seed)
    return serialize_scenario(scn)


def write_scenario(workload, seed, path):
    """Write the scenario file; raise RuntimeError unless it reads back unchanged."""
    from ferrosolve import parse_scenario, serialize_scenario

    text = scenario_text(workload, seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    if serialize_scenario(parse_scenario(str(path))) != text:
        raise RuntimeError(f"{workload.name}: {path} does not read back unchanged")
    return path


def levels(workload):
    """The time levels the workload's command solves."""
    from ferrosolve import parse_scenario

    scn = parse_scenario(workload.base, is_text=True)
    if workload.command == "converge":
        return list(range(scn.levels[0], scn.levels[1] + 1))
    return [scn.level]


def cell_steps(workload):
    """Sum over the solved levels of n_cells * 2**level."""
    from ferrosolve import parse_scenario

    n_cells = parse_scenario(workload.base, is_text=True).build_grid().n_cells
    return sum(n_cells * 2 ** lv for lv in levels(workload))
