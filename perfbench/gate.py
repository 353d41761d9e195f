"""Correctness gate for one command's artifact directory.

A command fails when its exit code is non-zero, a certificate residual
exceeds ``step_tol``, an energy-ledger slack is below ``-tol_energy``, an
``mvs.csv`` slack is below ``-tol_mvs``, or its artifacts differ in any byte
from the first command of the same run.  The CLI enforces only the first
two itself, so the gate re-checks everything from the files.
"""

import csv
import hashlib
from pathlib import Path


def read_table(path):
    """Rows of a ferrosolve CSV as dicts, skipping the ``#`` header line."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def digest(outdir):
    """SHA-256 over the names and bytes of every file in ``outdir``."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def certificate_counts(outdir):
    """(steps, iterations) summed over every ``certificates_m*.csv``."""
    rows = [r for p in sorted(Path(outdir).glob("certificates_m*.csv"))
            for r in read_table(p)]
    return len(rows), sum(int(r["iterations"]) for r in rows)


def problems(outdir, tolerances, command):
    """Every violated correctness condition of one command's artifacts."""
    out = Path(outdir)
    found = []
    certs = sorted(out.glob("certificates_m*.csv"))
    energies = sorted(out.glob("energy_m*.csv"))
    if not certs or not energies:
        found.append("missing certificates or energy CSV")
    for path in certs:
        worst = max((float(r["residual"]) for r in read_table(path)), default=float("inf"))
        if not worst <= tolerances.step_tol:
            found.append(f"{path.name}: certificate {worst:.3e} > step_tol")
    for path in energies:
        lowest = min((float(r["slack"]) for r in read_table(path)), default=-float("inf"))
        if not lowest >= -tolerances.tol_energy:
            found.append(f"{path.name}: energy slack {lowest:.3e} < -tol_energy")
    if command == "converge":
        mvs = out / "mvs.csv"
        if not mvs.is_file():
            found.append("missing mvs.csv")
        else:
            lowest = min((float(r["slack"]) for r in read_table(mvs)), default=-float("inf"))
            if not lowest >= -tolerances.tol_mvs:
                found.append(f"mvs.csv: slack {lowest:.3e} < -tol_mvs")
    return found
