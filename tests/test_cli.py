"""Command line driver: exit codes, artifacts, determinism, coercivity gate."""

import ast
import itertools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ferrosolve.cli import main

REFERENCE = """
[grid]
dim = 1
cells = 16

[tensors]
elastic = 2.0
dielectric = 1.0
coupling = 0.5
hardening = 0.2

[potential.f]
family = quadratic
H = 1.0

[potential.g]
family = power_law

[time]
T = 1.0
level = 4
levels = 3 4

[loads]
row = 0.0 0.0 0.0
row = 1.0 0.8 0.4
"""

NONCOERCIVE = """
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


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_exit_zero_and_artifacts(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = str(tmp_path / "out")
    rc = main(["run", scn, "--out", out])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "trajectory_m4.csv" in names
    assert "energy_m4.csv" in names
    assert "certificates_m4.csv" in names
    assert any(n.startswith("snapshot") and n.endswith(".vtk") for n in names)
    header = open(os.path.join(out, "trajectory_m4.csv")).readlines()[1].strip()
    assert header == "level,step,time,cell,r0,P0,sigma0,E0,certificate"


def test_run_outputs_byte_identical(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", scn, "--out", out]) == 0
        blobs.append(b"".join(
            open(os.path.join(out, n), "rb").read()
            for n in sorted(os.listdir(out))))
    assert blobs[0] == blobs[1]


def test_run_zero_scenario_all_zero_outputs(tmp_path):
    text = REFERENCE.replace("row = 1.0 0.8 0.4", "row = 1.0 0.0 0.0")
    scn = _write(tmp_path, "zero.cfg", text)
    out = str(tmp_path / "out")
    assert main(["run", scn, "--out", out]) == 0
    import csv
    with open(os.path.join(out, "trajectory_m4.csv")) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert all(float(r["r0"]) == 0.0 and float(r["P0"]) == 0.0 for r in rows)


def test_run_unattainable_tolerance_exit_two(tmp_path):
    # large-amplitude loads put the roundoff floor of the certificate far
    # above 1e-16, so the step solver must give up
    text = REFERENCE.replace("row = 1.0 0.8 0.4", "row = 1.0 1e4 5e3")
    text += "\n[tolerances]\nstep_tol = 1e-16\n"
    scn = _write(tmp_path, "hard.cfg", text)
    rc = main(["run", scn, "--out", str(tmp_path / "out")])
    assert rc == 2


def test_validation_failure_exit_three(tmp_path):
    text = REFERENCE.replace("dielectric = 1.0", "dielectric = -1.0")
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["run", scn, "--out", str(tmp_path / "out")]) == 3
    assert main(["check", scn]) == 3


_BAD_SCALARS = [
    ("T", "T = 1.0", "T = x"),
    ("level", "level = 4", "level = x"),
    ("P_s", "family = quadratic\nH = 1.0", "family = log_saturation_radial\nP_s = x"),
    ("a", "family = quadratic\nH = 1.0",
     "family = log_saturation_directional\nP_s = 1.0\na = x"),
    ("c", "family = power_law", "family = power_law\nc = x"),
    ("p", "family = power_law", "family = power_law\np = x"),
    ("kappa", "family = power_law", "family = ball_indicator\nkappa = x"),
    ("seed", "[loads]", "[options]\nseed = x\n\n[loads]"),
    ("reg_weight", "[loads]", "[options]\nreg_weight = x\n\n[loads]"),
]


@pytest.mark.parametrize("key,old,new", _BAD_SCALARS, ids=[c[0] for c in _BAD_SCALARS])
def test_bad_scalar_exit_three_with_line(tmp_path, capsys, key, old, new):
    assert old in REFERENCE
    text = REFERENCE.replace(old, new)
    lineno = text.splitlines().index(f"{key} = x") + 1
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["check", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: line {lineno}: ")
    assert key in err


def test_missing_file_exit_three(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 3


# (id, arguments under {tmp}, the error named, whether the scenario is at fault)
_UNREADABLE = [
    ("run-directory", ["run", "{tmp}/dir.cfg", "--out", "{tmp}/out"],
     "IsADirectoryError", True),
    ("check-directory", ["check", "{tmp}/dir.cfg"], "IsADirectoryError", True),
    ("run-not-utf8", ["run", "{tmp}/latin1.cfg", "--out", "{tmp}/out"],
     "UnicodeDecodeError", True),
    ("out-is-a-file", ["run", "{tmp}/ref.cfg", "--out", "{tmp}/file"],
     "FileExistsError", False),
    ("out-under-a-file", ["run", "{tmp}/ref.cfg", "--out", "{tmp}/file/out"],
     "NotADirectoryError", False),
]


@pytest.mark.parametrize("name,args,error,scenario_case", _UNREADABLE,
                         ids=[c[0] for c in _UNREADABLE])
def test_unreadable_path_exit_three(tmp_path, capsys, name, args, error, scenario_case):
    (tmp_path / "dir.cfg").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(REFERENCE.encode() + b"# caf\xe9\n")
    _write(tmp_path, "ref.cfg", REFERENCE)
    (tmp_path / "file").write_text("")
    assert main([a.format(tmp=tmp_path) for a in args]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{error}: ")
    if scenario_case:
        assert not (tmp_path / "out").exists()


def test_check_prints_certificates(tmp_path, capsys):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    assert main(["check", scn]) == 0
    out = capsys.readouterr().out
    assert "c0 = " in out
    assert "lambda_min_D = " in out
    # the growth constants print as plain floats, not as numpy's repr
    growth = [ast.literal_eval(ln.split("growth = ")[1])
              for ln in out.splitlines() if "growth = " in ln]
    assert growth[0] == {"b1": 0.5, "b2": 0.0, "p": 2.0}
    assert len(growth) == 2 and all(type(v) is float
                                    for g in growth for v in g.values())


def test_coercivity_gate_exit_three_without_override(tmp_path):
    scn = _write(tmp_path, "nc.cfg", NONCOERCIVE)
    assert main(["check", scn]) == 3
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == 3


def test_coercivity_gate_override(tmp_path):
    scn = _write(tmp_path, "nc.cfg", NONCOERCIVE)
    assert main(["check", scn, "--override-coercivity"]) == 0
    # adding a strictly positive hardening map also satisfies the gate
    text = NONCOERCIVE.replace("dielectric = 1.0", "dielectric = 1.0\nhardening = 0.5")
    scn2 = _write(tmp_path, "nc2.cfg", text)
    assert main(["check", scn2]) == 0


def test_converge_exit_zero_and_study(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = str(tmp_path / "out")
    rc = main(["converge", scn, "--levels", "3..4", "--out", out])
    assert rc == 0
    names = os.listdir(out)
    assert "study.csv" in names
    assert "measure.csv" in names
    assert "mvs.csv" in names


def test_converge_bad_levels_exit_three(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    rc = main(["converge", scn, "--levels", "4..3", "--out", str(tmp_path / "o")])
    assert rc == 3


def test_console_script_entry_point(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    env = dict(os.environ, FERROSOLVE_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ferrosolve.cli", "check", scn],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "c0 = " in proc.stdout


def test_snapshot_structured_grid_format(tmp_path):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = str(tmp_path / "out")
    assert main(["run", scn, "--out", out]) == 0
    snap = next(os.path.join(out, n) for n in sorted(os.listdir(out))
                if n.endswith(".vtk"))
    lines = open(snap).read().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_GRID" in lines
    assert any(l.startswith("DIMENSIONS") for l in lines)
    assert any(l.startswith("POINT_DATA") for l in lines)
    assert any(l.startswith("CELL_DATA") for l in lines)


def test_thread_cap_set_before_numpy_import():
    """FERROSOLVE_THREADS reaches the BLAS variables before numpy loads."""
    probe = (
        "import os, sys\n"
        "seen = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "        return None\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import ferrosolve.cli\n"
        "print(seen)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["FERROSOLVE_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['1']"


def test_converge_builds_one_system(tmp_path, monkeypatch):
    from ferrosolve import elliptic

    built = []
    init = elliptic.AssembledSystem.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(elliptic.AssembledSystem, "__init__", counting_init)
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    assert main(["converge", scn, "--levels", "2..4", "--out", str(tmp_path / "o")]) == 0
    assert len(built) == 1


def test_unknown_key_exit_three_with_line(tmp_path, capsys):
    text = REFERENCE.replace("T = 1.0", "T = 1.0\nbogus = 3")
    lineno = text.splitlines().index("bogus = 3") + 1
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["run", scn, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: line {lineno}: unknown key 'bogus' in [time]")
    assert not os.path.exists(tmp_path / "out")


def test_row_key_only_in_table_sections(tmp_path, capsys):
    text = REFERENCE.replace("T = 1.0", "T = 1.0\nrow = 0.0")
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["check", scn]) == 3
    assert "unknown key 'row' in [time]" in capsys.readouterr().err


_NON_FINITE = [
    ("loads", "row = 1.0 0.8 0.4", "row = 1.0 nan 0.4", "[loads] row"),
    ("T", "T = 1.0", "T = inf", "[time] T"),
    ("step_tol", "levels = 3 4", "levels = 3 4\n\n[tolerances]\nstep_tol = nan",
     "[tolerances] step_tol"),
    ("elastic", "elastic = 2.0", "elastic = -inf", "[tensors] elastic"),
]


@pytest.mark.parametrize("name,old,new,key", _NON_FINITE,
                         ids=[c[0] for c in _NON_FINITE])
def test_non_finite_value_exit_three_with_line(tmp_path, capsys, name, old, new, key):
    assert old in REFERENCE
    text = REFERENCE.replace(old, new)
    bad = new.splitlines()[-1]
    lineno = text.splitlines().index(bad) + 1
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["run", scn, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ValidationError: {key} at line {lineno}: non-finite")


@pytest.mark.parametrize("command,level", [("run", 4), ("converge", 3)])
def test_overflowing_load_exit_three(tmp_path, capsys, command, level):
    """A finite load whose trace overflows is a validation error naming the
    first non-finite step, raised before any step is solved."""
    text = REFERENCE.replace("row = 1.0 0.8 0.4", "row = 1.0 0.8 1e308")
    scn = _write(tmp_path, "huge.cfg", text)
    out = tmp_path / "out"
    assert main([command, scn, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"ValidationError: level {level}, step \d+: the load trace "
                        r"is not finite \(the loads overflow it\)\n", err)
    assert os.listdir(out) == []


def test_huge_finite_load_names_its_scale(tmp_path, capsys):
    """A load whose trace is finite but drives the stepper's products to
    overflow fails the step (exit 2), and the message names the load scale."""
    text = REFERENCE.replace("row = 1.0 0.8 0.4", "row = 1.0 0.8 1e200")
    scn = _write(tmp_path, "huge.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", scn, "--out", str(tmp_path / "out")]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    match = re.fullmatch(r"StepSolveFailure: step 1 did not converge: .*"
                         r"load scale max\|zhat\| (\S+)\n", err)
    assert match and 1e190 < float(match.group(1)) < 1e210


def test_run_level_zero_exit_three(tmp_path, capsys):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    assert main(["run", scn, "--level", "0", "--out", str(tmp_path / "o")]) == 3
    assert "--level: need a level >= 1, got 0" in capsys.readouterr().err


def test_huge_level_rejected_by_check(tmp_path, capsys):
    scn = _write(tmp_path, "big.cfg", REFERENCE.replace("level = 4", "level = 40"))
    assert main(["check", scn]) == 3
    assert "[time] level: level 40" in capsys.readouterr().err


def test_huge_levels_rejected(tmp_path, capsys):
    scn = _write(tmp_path, "big.cfg", REFERENCE.replace("levels = 3 4", "levels = 3 40"))
    assert main(["check", scn]) == 3
    assert "[time] levels: level 40" in capsys.readouterr().err
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    assert main(["converge", scn, "--levels", "3..40", "--out", str(tmp_path / "o")]) == 3
    assert "--levels: level 40" in capsys.readouterr().err
    assert main(["run", scn, "--level", "1000000000", "--out", str(tmp_path / "o")]) == 3


def test_level_bound_is_the_trajectory_size():
    from ferrosolve.scenario import MAX_TRAJECTORY_VALUES, level_violations

    n_cells, k = MAX_TRAJECTORY_VALUES // 2 ** 10, 2
    assert level_violations("m", 1, 9, n_cells, k) == []
    assert level_violations("m", 1, 10, n_cells, k) != []
    assert level_violations("m", 1, 10 ** 9, 1, 1) != []
    assert level_violations("m", 0, 3, 1, 1) != []
    assert level_violations("m", 4, 3, 1, 1) != []


def _definite(line):
    """Oracle: whether the diagonal written on a scenario line (one number
    for all five entries, or five) is definite, by eigvalsh and the 1e-12
    tolerance relative to the largest entry; an absent line is zero."""
    nums = [float(t) for t in line.split("=")[1].split()] if line else [0.0]
    M = np.diag(np.broadcast_to(nums, (5,)))
    return bool(np.linalg.eigvalsh(M).min() > 1e-12 * max(np.abs(M).max(), 1.0))


_HARDENING = [
    ("definite", "hardening = 0.5", True),
    ("zero", "", False),
    ("semidefinite", "hardening = 0.5 0.5 0.5 0.5 0.0", False),
    ("tiny", "hardening = 1e-13", False),
]


@pytest.mark.parametrize("name,line,definite", _HARDENING,
                         ids=[c[0] for c in _HARDENING])
def test_check_reports_hardening_definiteness(tmp_path, capsys, name, line, definite):
    """The last line of `check` against an independent eigenvalue oracle."""
    text = NONCOERCIVE.replace("dielectric = 1.0", "dielectric = 1.0\n" + line)
    scn = _write(tmp_path, "h.cfg", text)
    assert _definite(line) == definite
    assert main(["check", scn, "--override-coercivity"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(" = ")[0] for ln in out] == [
        "c0", "lambda_min_D", "f family", "g family", "hardening definite"]
    assert out[-1] == f"hardening definite = {definite}"


#: f: (family lines, coercive or None to ask the oracle of its H line)
_GATE_F = {
    "quadratic_I": ("family = quadratic\nH = 1.0", None),
    "quadratic_singular": ("family = quadratic\nH = 1 1 1 1 0", None),
    "radial": ("family = log_saturation_radial\nP_s = 1.0", True),
    "directional": ("family = log_saturation_directional\nP_s = 1.0\na = 1.0 0.0",
                    False),
}
#: g: (family lines, rate-independent)
_GATE_G = {
    "power_law": ("family = power_law", False),
    "ball": ("family = ball_indicator\nkappa = 0.5", True),
}
_GATE_L = {"absent": "", "1e-13": "hardening = 1e-13",
           "semidefinite": "hardening = 0.5 0.5 0.5 0.5 0.0",
           "definite": "hardening = 0.5"}
_GATE_CASES = list(itertools.product(_GATE_F, _GATE_G, _GATE_L))


@pytest.mark.parametrize("f,g,hardening", _GATE_CASES, ids=map("-".join, _GATE_CASES))
def test_coercivity_gate_table(tmp_path, capsys, f, g, hardening):
    """check passes under definite hardening, or for a rate-dependent g with
    a coercive f; else it exits 3 naming the reason, and passes under
    --override-coercivity."""
    (f_lines, coercive), (g_lines, rate_independent) = _GATE_F[f], _GATE_G[g]
    if coercive is None:
        coercive = _definite(f_lines.splitlines()[-1])
    text = (NONCOERCIVE
            .replace("dielectric = 1.0", "dielectric = 1.0\n" + _GATE_L[hardening])
            .replace("family = log_saturation_directional\nP_s = 1.0\na = 1.0 0.0",
                     f_lines)
            .replace("family = ball_indicator\nkappa = 0.5", g_lines))
    scn = _write(tmp_path, "gate.cfg", text)
    ok = _definite(_GATE_L[hardening]) or (coercive and not rate_independent)
    assert main(["check", scn]) == (0 if ok else 3)
    err = capsys.readouterr().err
    if not ok:
        reason = ("is rate-independent" if rate_independent
                  else "lacks the quadratic lower bound")
        assert err.startswith("ValidationError: the ")
        assert reason in err and "hardening map is not positive definite" in err
    assert main(["check", scn, "--override-coercivity"]) == 0
    assert ("warning" in capsys.readouterr().err) == (not ok)


@pytest.mark.parametrize("key,old", [("H", "H = 1.0"), ("hardening", "hardening = 0.2")])
@pytest.mark.parametrize("values", ["nan 0 0 1", "1 0 0 inf", "-inf 0 0 1",
                                    "1e308 1e308 1e308 1e308"],
                         ids=["nan", "inf", "-inf", "1e308_full"])
def test_non_finite_matrix_exit_three(tmp_path, capsys, key, old, values):
    """A matrix with a non-finite entry or eigenvalue, as H or as the
    hardening map, fails check with exit 3 naming its section."""
    assert old in REFERENCE
    scn = _write(tmp_path, "bad.cfg", REFERENCE.replace(old, f"{key} = {values}"))
    assert main(["check", scn]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: [potential.f]" if key == "H"
                          else "ValidationError: [tensors]")
    assert "non-finite" in err and len(err.splitlines()) == 1


_BOUND_OVERFLOWS = "ValidationError: the spectral bound lambda_max(D) + lambda_max(L) + reg = "


@pytest.mark.parametrize("elastic,hardening,options,message", [
    ("2.0", "1e308 1e308 1e308 1e308", "",
     "ValidationError: [tensors] L_hard is not positive semidefinite "
     "(non-finite entry or eigenvalue)"),
    ("1e307", "1.7e308", "", _BOUND_OVERFLOWS),
    ("2.0", "1e307", "[options]\nreg_weight = 1.7e308\n",
     _BOUND_OVERFLOWS + "2.425391e+00 + 1.000000e+307 + 1.700000e+308 overflows\n"),
], ids=["L_1e308_full", "C_1e307_L_1.7e308", "L_1e307_reg_1.7e308"])
def test_overflowing_spectral_bound_exit_three(tmp_path, capsys, elastic, hardening,
                                               options, message):
    """A hardening map whose eigenvalue, or a spectral bound whose sum,
    overflows is one line and exit 3 from run and from check, not a
    traceback.  check takes reg at the coarsest level it can run,
    1 / min(level, levels[0]) = 1/3, unless reg_weight sets it for every
    level; then run and check print the same line."""
    text = (REFERENCE.replace("cells = 16", "cells = 4")
            .replace("elastic = 2.0", f"elastic = {elastic}")
            .replace("hardening = 0.2", f"hardening = {hardening}")) + options
    scn = _write(tmp_path, "huge.cfg", text)
    proc = subprocess.run(
        [sys.executable, "-m", "ferrosolve.cli", "run", scn, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, FERROSOLVE_THREADS="1"))
    assert proc.returncode == 3
    assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert main(["check", scn]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and len(err.splitlines()) == 1
    if message == _BOUND_OVERFLOWS:
        assert err.endswith(" + 3.333333e-01 overflows\n")
    if options:
        assert proc.stderr == err == message


_FAMILY_KEYS = [
    ("f", "H = 1.0", "H = 1.0\nP_s = 1.0", "key 'P_s' does not apply to family quadratic"),
    ("g", "family = power_law", "family = power_law\nkappa = 3",
     "key 'kappa' does not apply to family power_law"),
]


@pytest.mark.parametrize("name,old,new,message", _FAMILY_KEYS,
                         ids=[c[0] for c in _FAMILY_KEYS])
def test_key_of_another_family_exit_three_with_line(tmp_path, capsys, name, old, new,
                                                   message):
    assert old in REFERENCE
    text = REFERENCE.replace(old, new)
    lineno = text.splitlines().index(new.splitlines()[-1]) + 1
    scn = _write(tmp_path, "bad.cfg", text)
    assert main(["check", scn]) == 3
    assert capsys.readouterr().err == f"ParseError: line {lineno}: {message}\n"


_BAD_INPUTS = [
    ("cell_fraction", "[initial]\nrow = 2.7 0.0 0.0",
     "ParseError: line {0}: [initial] row cell: expected integers, got '2.7'"),
    ("cell_negative_fraction", "[initial]\nrow = -0.5 0.0 0.0",
     "ParseError: line {0}: [initial] row cell: expected integers, got '-0.5'"),
    ("cell_repeated", "[initial]\nrow = 2 0.0 0.1\nrow = 2 0.0 0.2",
     "ValidationError: [initial] row at line {0}: cell 2 already set at line {1}"),
    ("step_tol", "[tolerances]\nstep_tol = -1",
     "ValidationError: [tolerances] step_tol must be positive, got -1.0 (line {0})"),
    ("tol_energy", "[tolerances]\ntol_energy = -1",
     "ValidationError: [tolerances] tol_energy must be positive, got -1.0 (line {0})"),
    ("tol_mvs", "[tolerances]\ntol_mvs = 0",
     "ValidationError: [tolerances] tol_mvs must be positive, got 0.0 (line {0})"),
    ("reg_weight", "[options]\nreg_weight = -10",
     "ValidationError: [options] reg_weight must be >= 0, got -10.0 (line {0})"),
]


@pytest.mark.parametrize("name,section,message", _BAD_INPUTS,
                         ids=[c[0] for c in _BAD_INPUTS])
def test_bad_cell_index_or_tolerance_exit_three(tmp_path, capsys, name, section, message):
    """Integer cell indices, one row per cell, positive tolerances and a
    non-negative reg_weight; nothing is run and no output directory made."""
    text = REFERENCE + "\n" + section + "\n"
    lines = text.splitlines()
    bad = [lines.index(ln) + 1 for ln in reversed(section.splitlines()[1:])]
    scn = _write(tmp_path, "bad.cfg", text)
    out = tmp_path / "out"
    assert main(["run", scn, "--out", str(out)]) == 3
    assert capsys.readouterr().err == message.format(*bad) + "\n"
    assert not out.exists()


_USAGE = [
    ("level_not_int", ["run", "--level", "x", "--out", "{out}"]),
    ("levels_single", ["converge", "--levels", "4", "--out", "{out}"]),
    ("levels_dash", ["converge", "--levels", "3-4", "--out", "{out}"]),
    ("levels_colon", ["converge", "--levels", "3:4", "--out", "{out}"]),
    ("unknown_option", ["check", "--bogus"]),
    # check reads only the scenario and --override-coercivity
    ("check_level", ["check", "--level", "4"]),
    ("check_levels", ["check", "--levels", "3..4"]),
    ("check_out", ["check", "--out", "{out}"]),
    # run reads only --level, converge only --levels
    ("run_levels", ["run", "--levels", "9..1", "--out", "{out}"]),
    ("converge_level", ["converge", "--level", "0", "--out", "{out}"]),
]


@pytest.mark.parametrize("name,args", _USAGE, ids=[c[0] for c in _USAGE])
def test_usage_error_exit_three(tmp_path, capsys, name, args):
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        main([args[0], scn, *(a.format(out=out) for a in args[1:])])
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["coupling", "elastic", "dielectric"])
def test_overflowing_tensor_exit_three(tmp_path, capsys, key):
    """A tensor entry whose block operator overflows is a validation error
    naming the block, for check and for run, not a NaN or a singular solve."""
    text = re.sub(rf"^{key} = .*$", f"{key} = 1e308", REFERENCE, flags=re.M)
    scn = _write(tmp_path, "huge.cfg", text)
    block = "D" if key == "coupling" else "A (symmetric part)"
    message = (f"NonPositiveDefinite: {block} is not positive definite "
               "(non-finite entry or eigenvalue)\n")
    assert main(["check", scn]) == 3
    assert capsys.readouterr() == ("", message)
    out = tmp_path / "out"
    assert main(["run", scn, "--out", str(out)]) == 3
    assert capsys.readouterr().err == message


def test_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--help"])
    assert exc.value.code == 0
    assert "m0..m1" in capsys.readouterr().out


def test_energy_slack_below_tolerance_exit_two(tmp_path, capsys, monkeypatch):
    from ferrosolve import rothe

    slack = rothe.EnergyLedger.slack

    def bad_slack(self):
        values = slack(self)
        values[2] = -1.0
        return values

    monkeypatch.setattr(rothe.EnergyLedger, "slack", bad_slack)
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = tmp_path / "out"
    assert main(["run", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "level 4, step 3: energy slack -1.000e+00 < -tol_energy = -1.000e-08\n"
    assert (out / "energy_m4.csv").is_file()
    assert main(["converge", scn, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [ln.split(":")[0] for ln in err] == ["level 3, step 3", "level 4, step 3"]


def test_mvs_slack_below_tolerance_exit_two(tmp_path, capsys, monkeypatch):
    from ferrosolve import cli
    from ferrosolve.young import MVSResidualReport

    residual = cli.mvs_residual

    def bad_residual(traj, problem, *args, **kwargs):
        rep = residual(traj, problem, *args, **kwargs)
        if problem.level == 4:
            return MVSResidualReport(lhs=rep.lhs + 1.0, rhs=rep.rhs)
        return rep

    monkeypatch.setattr(cli, "mvs_residual", bad_residual)
    scn = _write(tmp_path, "ref.cfg", REFERENCE)
    out = tmp_path / "out"
    assert main(["converge", scn, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("level 4: MVS slack -1.000e+00 < -tol_mvs = -1.000e-05")
    assert (out / "mvs.csv").is_file() and (out / "measure.csv").is_file()


#: the exit code of every library error; a new error class needs an entry
EXIT_OF = {"ParseError": 3, "ValidationError": 3, "NonPositiveDefinite": 3,
           "MismatchedScenario": 3, "DomainEscape": 3,
           "OutsideDomain": 2, "UnsupportedFamily": 2, "NoConvergence": 2,
           "SingularSystem": 2, "LinearSolveFailure": 2, "StepSolveFailure": 2,
           "AtomOutsideDomain": 2}


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_has_its_exit_code(tmp_path, capsys, monkeypatch):
    from ferrosolve import cli
    from ferrosolve.errors import FerrosolveError
    classes = sorted(set(_error_classes(FerrosolveError)), key=lambda c: c.__name__)
    assert {c.__name__ for c in classes} == set(EXIT_OF)
    for cls in classes:
        def raising(path, cls=cls):
            raise cls.__new__(cls, "the message")

        monkeypatch.setattr(cli, "parse_scenario", raising)
        assert main(["check", str(tmp_path / "s.ini")]) == EXIT_OF[cls.__name__], cls
        assert capsys.readouterr().err == f"{cls.__name__}: the message\n"
