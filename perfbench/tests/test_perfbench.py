"""Tests of the benchmark's own parts: generator, correctness gate, tracer.

Run with:  PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child       # noqa: E402
import gate        # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402
from ferrosolve import cli, elliptic, io, parse_scenario, potentials, rothe, young  # noqa: E402

TINY = """
[grid]
dim = 1
cells = 8

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
level = 3

[loads]
row = 0.0 0.0 0.0
row = 1.0 0.8 0.4
"""


@pytest.fixture
def tiny_run(tmp_path):
    scenario = tmp_path / "tiny.scn"
    scenario.write_text(TINY, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
    return scenario, out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    w = workloads.WORKLOADS[name]
    assert workloads.scenario_text(w, 3) == workloads.scenario_text(w, 3)
    assert workloads.scenario_text(w, 3) != workloads.scenario_text(w, 4)


def test_written_scenario_reads_back(tmp_path):
    w = workloads.WORKLOADS["run-2d-hysteresis"]
    path = workloads.write_scenario(w, 7, tmp_path / "s.scn")
    scn = parse_scenario(str(path))
    assert scn.seed == 7 and not scn.z0_uniform
    assert abs(scn.z0).max() <= workloads.P0_AMPLITUDE


def test_gate_passes_clean_artifacts(tiny_run):
    scenario, out = tiny_run
    assert gate.problems(out, parse_scenario(str(scenario)).tolerances, "run") == []


def test_doctored_certificate_fails(tiny_run):
    scenario, out = tiny_run
    tols = parse_scenario(str(scenario)).tolerances
    path = next(out.glob("certificates_m*.csv"))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cols = lines[2].split(",")
    cols[2] = repr(10 * tols.step_tol)
    lines[2] = ",".join(cols)
    path.write_text("".join(lines), encoding="utf-8")
    found = gate.problems(out, tols, "run")
    assert len(found) == 1 and "step_tol" in found[0]


def test_doctored_energy_slack_fails(tiny_run):
    scenario, out = tiny_run
    tols = parse_scenario(str(scenario)).tolerances
    path = next(out.glob("energy_m*.csv"))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cols = lines[-1].rstrip("\n").split(",")
    cols[-1] = repr(-10 * tols.tol_energy)
    lines[-1] = ",".join(cols) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert any("tol_energy" in p for p in gate.problems(out, tols, "run"))


def test_digest_sees_one_changed_byte(tiny_run):
    _, out = tiny_run
    before = gate.digest(out)
    path = next(out.glob("trajectory_m*.csv"))
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert gate.digest(out) != before


def _targets():
    owners = (cli, elliptic.AssembledSystem, rothe.SteppedProblem, rothe,
              potentials.PotentialSpec, potentials.BallIndicator, young, io)
    return {(o, a): v for o in owners for a, v in vars(o).items()}


def test_unwrap_restores_originals(tiny_run):
    scenario, out = tiny_run
    before = _targets()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = {k for k, v in _targets().items() if before.get(k) is not v}
        assert (cli, "parse_scenario") in wrapped
        assert (elliptic.AssembledSystem, "solve_bvp") in wrapped
        tracer.call("cli.command", cli.main,
                    ["run", str(scenario), "--out", str(out / "traced")])
    finally:
        tracer.unwrap()
    after = _targets()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    m = tracing.layer_metrics(tracer)
    assert (m["rothe.steps"], m["rothe.iterations"]) == gate.certificate_counts(out / "traced")
    assert m["elliptic.solves"] > 0 and m["young.atoms"] == 0


def test_untraced_command_runs_the_originals(tiny_run, tmp_path, monkeypatch):
    scenario, _ = tiny_run
    original, main = cli.parse_scenario, cli.main
    seen = []

    def spy(argv):
        seen.append(cli.parse_scenario is original)
        return main(argv)

    monkeypatch.setattr(cli, "main", spy)
    w = workloads.Workload(name="tiny", command="run", base=TINY)
    cmds = child.Commands(w, scenario, tmp_path)
    metrics, info = child.traced(cmds, 0.0, tmp_path)
    assert seen == [True, False] * child.MIN_TRACED     # untraced, traced, ...
    assert cli.parse_scenario is original
    assert cmds.failures == {}
    assert len(info["trace_overhead_s_samples"]) == child.MIN_TRACED
    assert metrics["rothe.steps"] == 8


def test_benchmark_json_names_the_workloads():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_crashing_command_counts_as_failed(tiny_run, tmp_path, monkeypatch):
    scenario, _ = tiny_run
    w = workloads.Workload(name="tiny", command="run", base=TINY)
    cmds = child.Commands(w, scenario, tmp_path)
    cmds.timed()
    monkeypatch.setattr(cli, "main", lambda argv: 1 / 0)
    cmds.timed()
    assert cmds.attempted == 2
    assert list(cmds.failures) == [2]
    assert any("ZeroDivisionError" in p for p in cmds.failures[2])
