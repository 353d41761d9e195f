"""The output as it is: five small scenarios against the committed reference.

``tests/golden/reference.json`` holds, per artifact, a fixed sample of its
data lines and its SHA-256.  The sampled numbers are always compared, to
GOLDEN_ATOL; the hashes only under the Python, numpy and scipy versions
that wrote the reference.  ``tests/golden/write_reference.py`` rewrites the
reference and prints how far each artifact moved.

The same outputs certify themselves: the step certificates and the ledger
terms that need no solve are rebuilt from the written trajectory and the
scenario, with closed forms of the potentials written here.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ferrosolve import Grid, parse_scenario

_SCRIPT = os.path.join(os.path.dirname(__file__), "golden", "write_reference.py")
_spec = importlib.util.spec_from_file_location("write_reference", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: 100x below the default step_tol, 10x above the largest drift of a change
#: that moved states in their last digits
GOLDEN_ATOL = 1e-8
#: a certificate or ledger term rebuilt from the files against the written
#: one: the files hold every double exactly, so only the order of the
#: roundings differs
REBUILD_ATOL = 1e-15


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    golden.run_scenarios(str(outdir))
    with open(golden.REFERENCE) as fh:
        reference = json.load(fh)
    return reference, golden.read_artifacts(str(outdir))


def test_golden_numbers_match_the_reference(outputs):
    reference, artifacts = outputs
    assert sorted(artifacts) == sorted(reference["artifacts"])
    moved = {key: golden.sample_difference(entry, artifacts[key])
             for key, entry in reference["artifacts"].items()}
    assert all(len(entry["sample"]) for entry in reference["artifacts"].values())
    assert max(moved.values()) <= GOLDEN_ATOL, {k: v for k, v in moved.items()
                                                if v > GOLDEN_ATOL}


def test_golden_bytes_match_under_the_recorded_versions(outputs):
    reference, artifacts = outputs
    changed = [key for key, entry in reference["artifacts"].items()
               if golden.describe(artifacts[key])["sha256"] != entry["sha256"]]
    if reference["versions"] != golden.versions():
        # `pytest -rs` then tells how far the bits of each artifact moved
        moved = ", ".join(
            f"{key} {golden.sample_difference(entry, artifacts[key]):.3g}"
            if key in changed else f"{key} same bytes"
            for key, entry in sorted(reference["artifacts"].items()))
        pytest.skip(f"reference written under {reference['versions']}, "
                    f"running under {golden.versions()}; largest sampled "
                    f"difference per artifact: {moved}")
    assert not changed


def _avx512_mask():
    """numpy's AVX-512 dispatch targets that this CPU has: numpy refuses to
    disable a feature the CPU lacks."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return ",".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f))


@pytest.mark.parametrize("env", [{"OPENBLAS_CORETYPE": "Prescott"},
                                 {"NPY_DISABLE_CPU_FEATURES": _avx512_mask()}],
                         ids=["openblas_prescott", "numpy_without_avx512"])
def test_golden_numbers_hold_under_another_blas_kernel(tmp_path, env):
    """OpenBLAS's Prescott kernels, and numpy's loops without AVX-512, round
    differently from the ones picked for this CPU, so the bytes may move;
    the sampled numbers may not."""
    run = ("import importlib.util, sys\n"
           "spec = importlib.util.spec_from_file_location('write_reference', sys.argv[1])\n"
           "golden = importlib.util.module_from_spec(spec)\n"
           "spec.loader.exec_module(golden)\n"
           "golden.run_scenarios(sys.argv[2])\n")
    proc = subprocess.run([sys.executable, "-c", run, _SCRIPT, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(os.environ, **env))
    assert proc.returncode == 0, proc.stderr
    with open(golden.REFERENCE) as fh:
        reference = json.load(fh)["artifacts"]
    artifacts = golden.read_artifacts(str(tmp_path))
    assert sorted(artifacts) == sorted(reference)
    moved = {key: golden.sample_difference(entry, artifacts[key])
             for key, entry in reference.items()}
    assert max(moved.values()) <= GOLDEN_ATOL, {k: v for k, v in moved.items()
                                                if v > GOLDEN_ATOL}


def _table(data):
    """{column name: float array} of a written CSV file."""
    lines = data.decode().splitlines()
    rows = np.array([[float(t) for t in line.split(",")] for line in lines[2:]])
    return dict(zip(lines[1].split(","), rows.T))


def _norm(v):
    return np.sqrt(np.sum(v * v, axis=-1))


def _remanent(family, args):
    """f and grad f of a log-saturation energy, as functions of P."""
    Ps = args["P_s"]
    if family == "log_saturation_radial":
        def value(P):
            t = _norm(P) / Ps
            return -Ps ** 2 * (np.log1p(-t) + t)
        return value, lambda P: (Ps / (Ps - _norm(P)))[..., None] * P
    assert family == "log_saturation_directional"
    a = np.asarray(args["a"]) / np.linalg.norm(args["a"])

    def value(P):
        t = P @ a / Ps
        return 0.5 * Ps * ((1.0 + t) * np.log1p(t) + (1.0 - t) * np.log1p(-t))
    return value, lambda P: np.arctanh(P @ a / Ps)[..., None] * a


def _dissipation(family, args):
    """g, g* and the flow-rule projection onto the domain of g."""
    if family == "ball_indicator":
        kappa = args["kappa"]
        return (lambda w: np.where(_norm(w) <= kappa * (1.0 + 1e-12), 0.0, np.inf),
                lambda v: kappa * _norm(v),
                lambda w: (kappa / np.maximum(_norm(w), kappa))[..., None] * w)
    assert family == "power_law"
    c, p = args["c"], args["p"]
    p_star = p / (p - 1.0)
    return (lambda w: c * _norm(w) ** p,
            lambda v: (c * p) ** (1.0 / (1.0 - p)) / p_star * _norm(v) ** p_star,
            lambda w: w)


@pytest.mark.parametrize("name", [n for n, c in golden.COMMANDS.items() if c == "run"])
def test_written_trajectory_re_derives_its_certificates(outputs, name):
    """Sigma = sigma_E - z L^T - reg z - grad f(z) and rate = (z_n - z_{n-1})/h
    from trajectory_m*.csv give each step's Young-Fenchel certificate and the
    ledger terms dissipation, Ig_star_rate, Ig_Sigma and If_energy."""
    _, artifacts = outputs
    scn = parse_scenario(os.path.join(golden.HERE, name + ".scn"))
    m = scn.level
    vol = Grid(scn.dim, scn.cells_per_axis, scn.lengths).volumes
    n_steps, n_cells = 2 ** m, len(vol)
    s, k = scn.dim * (scn.dim + 1) // 2, scn.z0.shape[-1]
    columns = list(_table(artifacts[f"{name}/trajectory_m{m}.csv"]).values())
    table = np.stack(columns, axis=-1).reshape(n_steps, n_cells, -1)
    z = np.concatenate([np.broadcast_to(scn.z0, (1, n_cells, k)), table[:, :, 4:4 + k]])
    sigma_E, written = table[:, :, 4 + k:4 + 2 * k], table[:, 0, -1]
    f_value, f_grad = _remanent(*scn.potentials["f"])
    g, g_star, project = _dissipation(*scn.potentials["g"])

    grad_f = np.zeros_like(z[1:])
    grad_f[..., s:] = f_grad(z[1:, :, s:])
    Sigma = sigma_E - z[1:] @ scn.hardening.T - z[1:] / m - grad_f
    rate = np.diff(z, axis=0) / (scn.T / n_steps)
    gap = g(project(Sigma)) + g_star(rate) - np.sum(rate * Sigma, axis=-1)
    certificate = np.sum(vol * np.maximum(gap, 0.0), axis=-1)
    assert np.all(table[:, :, -1] == written[:, None])
    np.testing.assert_allclose(certificate, written, rtol=0, atol=REBUILD_ATOL)
    residual = _table(artifacts[f"{name}/certificates_m{m}.csv"])["residual"]
    np.testing.assert_allclose(certificate, residual, rtol=0, atol=REBUILD_ATOL)

    energy = _table(artifacts[f"{name}/energy_m{m}.csv"])
    rebuilt = {"dissipation": np.sum(vol[:, None] * rate * Sigma, axis=(1, 2)),
               "Ig_star_rate": np.sum(vol * g_star(rate), axis=1),
               "Ig_Sigma": np.sum(vol * g(project(Sigma)), axis=1),
               "If_energy": np.sum(vol * f_value(z[1:, :, s:]), axis=1)}
    for column, values in rebuilt.items():
        np.testing.assert_allclose(values, energy[column], rtol=0, atol=REBUILD_ATOL,
                                   err_msg=column)
