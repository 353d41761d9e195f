"""Write the committed reference output of the golden scenarios.

    PYTHONPATH=src python tests/golden/write_reference.py

Runs each scenario of ``COMMANDS`` through ``ferrosolve`` into a temporary
directory and writes ``reference.json`` next to this file: per artifact its
SHA-256, its line count and a fixed sample of its data lines, with the
Python, numpy and scipy versions that wrote them.  Before it replaces an
existing reference it prints, per artifact, the largest absolute difference
of the sampled numbers against it (``inf`` where the line count, a token
count or a non-number token differs).

``tests/test_golden.py`` runs the same commands and compares against the
reference.  A change that moves the output on purpose reruns this script
and records what it printed.
"""

import hashlib
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
#: scenario file (without .scn) -> the ferrosolve command that runs it
COMMANDS = {"ball-2d": "run", "powerlaw-2d": "run", "converge-3d": "converge"}
#: data lines sampled per artifact, evenly spaced over its data lines
N_SAMPLE = 16


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_scenarios(outdir):
    """Run every golden scenario into ``outdir/<scenario>``."""
    from ferrosolve.cli import main

    for name, command in COMMANDS.items():
        out = os.path.join(outdir, name)
        rc = main([command, os.path.join(HERE, name + ".scn"), "--out", out])
        if rc != 0:
            raise RuntimeError(f"ferrosolve {command} {name}.scn exited {rc}")


def _tokens(line):
    return re.split(r"[,\s]+", line.strip())


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _is_data(line):
    """A line whose every token is a number (not a header or a keyword line)."""
    return bool(line.strip()) and all(_number(t) is not None for t in _tokens(line))


def read_artifacts(outdir):
    """{"<scenario>/<file>": bytes} of every artifact under ``outdir``."""
    return {f"{name}/{path.name}": path.read_bytes()
            for name in COMMANDS for path in sorted(Path(outdir, name).iterdir())}


def describe(data):
    """The reference entry of one artifact's bytes."""
    lines = data.decode("utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if _is_data(line)]
    picks = np.linspace(0, len(rows) - 1, min(N_SAMPLE, len(rows))).round().astype(int)
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": len(lines),
            "sample": [[rows[j], lines[rows[j]]] for j in sorted(set(picks))]}


def sample_difference(entry, data):
    """Largest absolute difference between the sampled lines of ``entry``
    and the same lines of ``data``; inf where their structure differs."""
    lines = data.decode("utf-8").splitlines()
    if len(lines) != entry["lines"]:
        return math.inf
    worst = 0.0
    for i, ref_line in entry["sample"]:
        ref, new = _tokens(ref_line), _tokens(lines[i])
        if len(ref) != len(new):
            return math.inf
        for a, b in zip(ref, new):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None:
                return math.inf
            diff = abs(x - y)
            worst = max(worst, diff if diff == diff else math.inf)
    return worst


def main():
    with tempfile.TemporaryDirectory() as outdir:
        run_scenarios(outdir)
        artifacts = read_artifacts(outdir)
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            old = json.load(fh)["artifacts"]
        for key in sorted(set(old) | set(artifacts)):
            if key not in artifacts or key not in old:
                print(f"{key}: {'removed' if key in old else 'added'}")
                continue
            same = old[key]["sha256"] == hashlib.sha256(artifacts[key]).hexdigest()
            print(f"{key}: largest difference {sample_difference(old[key], artifacts[key]):.3g}"
                  + (" (same bytes)" if same else ""))
    reference = {"versions": versions(),
                 "artifacts": {key: describe(data) for key, data in artifacts.items()}}
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}: {len(artifacts)} artifacts")


if __name__ == "__main__":
    sys.exit(main())
