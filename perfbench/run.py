"""Benchmark of the ferrosolve CLI: one workload, end to end or traced.

    python3 perfbench/run.py --workload run-2d-powerlaw --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout.  Each workload runs in a child
Python process of its own (so ``ru_maxrss`` is that workload's peak), with
``src`` on the import path and BLAS pinned to one thread through the
environment before the interpreter starts.  The child works in
``.perfbench_work/`` under the checkout and nowhere else.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0      # one workload must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_child(workload, seed, seconds, trace):
    """Run one workload in its own process; return its result dict or None."""
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    result = work / "result.json"
    env = dict(os.environ, **PINNED, PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(work / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: child process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"{workload}: child process failed with exit code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def report(res, specs):
    """Print the readable report and return the contract's JSON line."""
    name = res["workload"]
    metrics = {}
    for spec in specs:
        value = res["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{name}  {spec['name']:<28} {value:>14.6g} {spec['unit']}")
    info = res["info"]
    if "run_s_samples" in info:
        q1, q3 = info["run_s_quartiles"]
        print(f"{name}  run_s quartiles {q1:.4f} .. {q3:.4f} s over "
              f"{len(info['run_s_samples'])} commands")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{name}  fail_ratio {failed / attempted:.4g} ({failed} of {attempted} commands)")
    for number, found in res["failures"].items():
        print(f"{name}  command {number} failed: {'; '.join(found)}")
    print(f"{name}  environment {json.dumps(res['environment'], sort_keys=True)}")
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        print(f"BENCHMARK.json names {sorted(names)} but workloads.py defines "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ferrosolve" / "cli.py").is_file():
        print(f"no ferrosolve sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    specs = bench["per_layer" if args.trace else "end_to_end"]
    res = run_child(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return 1
    res["environment"]["git_commit"] = git_commit()
    print(report(res, specs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
