"""Deterministic artifact writers.

Every number is written as ``'%.17g' % v`` writes it, byte for byte, so
identical inputs produce byte-identical files.  Trajectory and ledger data go
to CSV with a fixed, versioned column layout; field snapshots go to
legacy-text structured-grid files with one block per field.

The text is produced many values at a time by :func:`_floats`.  A finite x
with 1e-280 < |x| < 1e280 gets its 17 significant digits as the integer
D nearest to |x| * 10**q, with k = floor(log10|x|) and q = 16 - k:

* 10**q = H + L, where H is the double nearest to 10**q and L the double
  nearest to the rest (both from exact integer arithmetic, once).
* |x| * H = p + e exactly (Dekker's two-product on Veltkamp halves; numpy
  rounds every operation once and fuses none).  Where p lies between 1e16
  and 1e17, p >= 2**53 is an integer, |e| <= 8 and |x| * L < 12, so
  lo = e + |x| * L is within 1e-14 of |x| * 10**q - p, and the nearest
  integer is D = p + floor(lo) + (frac(lo) > 0.5).
* That is exact unless frac(lo) is within 1e-9 of 1/2 (a tie or a
  near-tie), and D has 17 digits and exponent k unless p is within 64 of
  1e16 or 1e17 or outside them (log10 can be off by one next to a power of
  ten, and a value just below one can round up to it).

Values in neither window, and nan, infinities, subnormals and magnitudes
beyond the 1e+-280 bounds, fall back to ``'%.17g' % v`` one at a time; zeros
are ``0`` and ``-0``.  The ``%g`` layout (fixed notation for -4 <= k < 17,
otherwise ``d.ddde+XX`` with at least two exponent digits, trailing zeros and
a bare point stripped) is a subsequence of one 48-byte row per value that
holds every character some layout needs, in order; one gather from a table
of byte masks keyed by sign, layout and number of significant digits keeps
the characters of the value's layout and zeroes the rest.

Integer columns (level, step, cell, iterations, ...) are formatted as
doubles too: below 2**53 an integral double's ``'%.17g'`` text is its decimal
digits.  Rows are NUL-padded byte blocks placed side by side; deleting the NUL
bytes leaves the text.  A block that rows gather from (a step's labels and
certificate, the texts of the cell, time-bin and atom indices) is compacted
when it is built, its NUL bytes moved behind the text and its rows cut to the
widest, so the rows that gather it stay narrow.
"""

import functools
import os

import numpy as np

from .packing import space_dim, sym_dim

FORMAT_VERSION = 1

_CHUNK = 2048                # values per block: every scratch array stays under
                             # 128 KiB, so blocks reuse heap memory and the peak
                             # memory does not move
_CELL = 48                   # bytes of a value's row (see _mask)
_QMIN, _QMAX = -265, 297     # q = 16 - floor(log10|x|) over the fast range
_KMIN, _KMAX = -300, 300     # exponents of the exponent table
_SPLIT = 134217729.0         # 2**27 + 1, Veltkamp's splitting constant
_ZERO, _FALLBACK = 23, 24    # layout classes after 21 fixed and 2 exponent ones


def _fmt(x):
    return f"{float(x):.17g}"


def _words(chunks):
    """Little-endian 8-byte words, one per 8-byte string."""
    return np.frombuffer(b"".join(chunks), dtype="<u8")


def _mask(neg, cls, s):
    """The bytes of a value's row that its text keeps, as 0xff/0 words.

    The row holds every character of any layout in order: '-', '0', '.',
    '000' (0-5), digit i at 6 + 2i followed by a '.', 'e' (40), the
    exponent's sign and three digits (41-44), the separator (45), NUL, NUL.
    cls is 0-20 for fixed notation with exponent cls - 4, 21 and 22 for a
    two- and a three-digit exponent, _ZERO for 0 and _FALLBACK for text
    written in afterwards; s is the number of significant digits.
    """
    keep = [0] if neg else []
    if cls == _ZERO:
        keep.append(1)
    elif cls < 4:                        # 0.000ddd
        keep += [1, 2] + [3, 4, 5][:3 - cls] + [6 + 2 * i for i in range(s)]
    elif cls < 21:                       # ddd.ddd
        whole = cls - 3
        keep += [6 + 2 * i for i in range(max(whole, s))]
        keep += [5 + 2 * whole] if s > whole else []
    elif cls < _FALLBACK:                # d.ddde+XX, d.ddde+XXX
        keep += [6 + 2 * i for i in range(s)] + ([7] if s > 1 else [])
        keep += [40, 41] + ([42] if cls == 22 else []) + [43, 44]
    row = np.zeros(_CELL, dtype=np.uint8)
    row[keep + [45]] = 0xFF
    return row.view("<u8")


@functools.cache
def _tables():
    """Powers of ten as double-double halves, the words of a value's row, the
    layout of each exponent, significant-digit counts and the masks; built
    once, on first use."""
    H, L = [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        H.append(num / den)              # integer division rounds correctly
        hnum, hden = H[-1].as_integer_ratio()
        L.append((num * hden - hnum * den) / (den * hden))
    H = np.array(H)
    c = _SPLIT * H
    Hhi = c - (c - H)
    lead = _words(f"-0.000{i % 10}.".encode() for i in range(100))
    groups = np.arange(10000, dtype=np.uint16)
    quads = np.full((10000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = groups[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + ord("0")
    quads = quads.view("<u8").ravel()
    exponents = np.arange(_KMIN, _KMAX + 1)
    exp = _words(f"e{'-' if e < 0 else '+'}{abs(e):03d}\0\0\0".encode() for e in exponents)
    layout = np.where((exponents >= -4) & (exponents < 17), exponents + 4,
                      np.where(np.abs(exponents) < 100, 21, 22))  # cls of _mask
    # digits up to the last nonzero one when group j (of 4 after the first
    # digit) is the last nonzero group; group j of D is looked up at j * 10000 + g
    trailing_zeros = sum(groups % 10 ** i == 0 for i in (1, 2, 3, 4))
    sig = np.concatenate([np.where(groups > 0, 4 * j + 1 - trailing_zeros, 0).astype(np.uint8)
                          for j in (1, 2, 3, 4)])
    masks = np.array([_mask(neg, cls, s) for neg in (0, 1)
                      for cls in range(_FALLBACK + 1) for s in range(1, 18)])
    return (np.stack([H, Hhi, H - Hhi, L], axis=1), lead, quads, exp, 17 * layout,
            sig, masks)


@functools.cache
def _separators(seps):
    """The separators as words at byte 5 of the exponent word."""
    return np.array([b << 40 for b in seps.encode()], dtype="<u8")


def _digits(v):
    """The 17-digit integer D and exponent k of each value of v, and whether
    they are exact (False also for 0 and everything off the fast set)."""
    pow10 = _tables()[0]
    a = np.abs(v)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    H, Hhi, Hlo, L = np.take(pow10, 16 - _QMIN - k, axis=0).T
    p = a * H
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    lo = (((ahi * Hhi - p) + ahi * Hlo + alo * Hhi) + alo * Hlo) + a * L
    whole = np.floor(lo)
    frac = lo - whole
    fast &= (p > 1e16 + 64) & (p < 1e17 - 64) & (np.abs(frac - 0.5) > 1e-9)
    return p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5), k, fast


def _floats(x, seps):
    """NUL-padded ``'%.17g'`` text of the (rows, K) array x: (rows, K * _CELL)
    bytes, the text of x[i, j] followed by the character seps[j]."""
    _, lead, quads, exp, layout, sig, masks = _tables()
    x = np.asarray(x, dtype=float)
    rows, width = x.shape
    v = x.ravel()
    n = v.size
    D, k, fast = _digits(v)
    top = D // 10 ** 16                  # below 100 even off the fast set
    D -= top * 10 ** 16
    upper = D // 10 ** 8
    lower = D - upper * 10 ** 8
    groups = np.empty((n, 4), dtype=np.int64)
    groups[:, 0] = upper // 10 ** 4
    groups[:, 1] = upper - groups[:, 0] * 10 ** 4
    groups[:, 2] = lower // 10 ** 4
    groups[:, 3] = lower - groups[:, 2] * 10 ** 4
    row = np.empty((n, _CELL // 8), dtype="<u8")
    row[:, 0] = np.take(lead, top)
    row[:, 1:5] = np.take(quads, groups)
    row.reshape(rows, width, -1)[:, :, 5] = (np.take(exp, k - _KMIN).reshape(rows, width)
                                             + _separators(seps))
    groups += np.arange(0, 40000, 10000)
    last = np.take(sig, groups)
    s = np.maximum(np.maximum(last[:, 0], last[:, 1]),
                   np.maximum(last[:, 2], np.maximum(last[:, 3], 1)))
    # the mask of (sign, cls, s) is row (sign * (_FALLBACK + 1) + cls) * 17 + s - 1
    cls17 = np.where(fast, np.take(layout, k - _KMIN),
                     np.where(v == 0, 17 * _ZERO, 17 * _FALLBACK))
    row &= np.take(masks, cls17 + s - 1 + np.signbit(v) * (17 * (_FALLBACK + 1)), axis=0)
    out = row.view(np.uint8)
    for i in np.flatnonzero(~fast & (v != 0)):
        text = _fmt(v[i]).encode()
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(rows, width * _CELL)


def _compact(block):
    """The rows of a NUL-padded byte block with their NUL bytes moved behind
    the text, cut to the widest row."""
    order = np.argsort(block == 0, axis=1, kind="stable")
    width = int(np.count_nonzero(block, axis=1).max(initial=0))
    return np.take_along_axis(block, order[:, :width], axis=1)


def _write_rows(fh, n, per_row, parts):
    """Write n rows, each its parts side by side with the NUL padding removed.

    A part maps a slice of rows to their (rows, width) NUL-padded bytes; the
    rows go in chunks of about _CHUNK formatted values (per_row per row).
    """
    step = max(1, _CHUNK // max(per_row, 1))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        block = np.concatenate([part(rows) for part in parts], axis=1)
        fh.write(block.tobytes().translate(None, b"\0"))


def _write_values(fh, values, seps):
    """One row per row of the 2-d array values, value j followed by seps[j]."""
    _write_rows(fh, len(values), values.shape[1], [lambda r: _floats(values[r], seps)])


def _open(path, header):
    fh = open(path, "wb")
    fh.write(header.encode())
    return fh


def _write_table(path, header, columns):
    """A CSV file: the header text, the column names and one row per row of
    the columns, a dict of name to equally long column."""
    values = np.column_stack(list(columns.values()))
    with _open(path, header + ",".join(columns) + "\n") as fh:
        _write_values(fh, values, "," * (values.shape[1] - 1) + "\n")


def _component_names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def trajectory_columns(dim):
    s = sym_dim(dim)
    return (["level", "step", "time", "cell"]
            + _component_names("r", s) + _component_names("P", dim)
            + _component_names("sigma", s) + _component_names("E", dim)
            + ["certificate"])


def write_trajectory_csv(path, traj):
    """One row per (step, cell); columns fixed by :func:`trajectory_columns`."""
    n_steps = traj.time_grid.n_steps
    n_cells, k = traj.z_nodes.shape[1:]
    steps = np.arange(1, n_steps + 1)
    prefix = _compact(_floats(np.column_stack(
        [np.full(n_steps, traj.time_grid.level), steps, steps * traj.time_grid.h]), ",,,"))
    suffix = _compact(_floats(np.array([c.residual for c in traj.certificates],
                                       dtype=float).reshape(-1, 1), "\n"))
    cells = _compact(_floats(np.arange(n_cells)[:, None], ","))
    z = traj.z_nodes[1:].reshape(-1, k)
    se = traj.sigma_E.reshape(-1, k)
    step, cell = np.divmod(np.arange(n_steps * n_cells), n_cells)
    with _open(path, f"# ferrosolve trajectory v{FORMAT_VERSION}\n"
               + ",".join(trajectory_columns(space_dim(k))) + "\n") as fh:
        _write_rows(fh, len(step), 2 * k + 1, [
            lambda r: prefix[step[r]],
            lambda r: cells[cell[r]],
            lambda r: _floats(np.concatenate([z[r], se[r]], axis=1), "," * (2 * k)),
            lambda r: suffix[step[r]],
        ])


def write_energy_csv(path, level, ledger):
    n = len(ledger.dissipation)
    steps = np.arange(1, n + 1)
    _write_table(path, f"# ferrosolve energy ledger v{FORMAT_VERSION}\n", {
        "level": np.full(n, level), "step": steps, "time": steps * ledger.h,
        "dissipation": ledger.dissipation, "Ig_star_rate": ledger.Ig_star_rate,
        "Ig_Sigma": ledger.Ig_Sigma, "quad_energy": ledger.quad_energy[1:n + 1],
        "If_energy": ledger.If_energy[1:n + 1], "slack": ledger.slack()})


def write_certificates_csv(path, traj):
    certs = traj.certificates
    n = len(certs)
    _write_table(path, f"# ferrosolve certificates v{FORMAT_VERSION}\n", {
        "level": np.full(n, traj.time_grid.level), "step": np.arange(1, n + 1),
        "residual": [c.residual for c in certs],
        "constraint_violation": [c.constraint_violation for c in certs],
        "fixed_point_gap": [c.fixed_point_gap for c in certs],
        "iterations": [c.iterations for c in certs]})


def write_measure_csv(path, measure):
    """Atoms of an empirical measure: one row per atom, bin by bin, cell by
    cell."""
    k = measure.first_moment.shape[-1]
    # time bin, cell and atom of each row; one block of index texts serves
    # all three, so each index is formatted once
    labels = np.concatenate([np.column_stack([np.full(w.size, i),
                                              *np.indices(w.shape).reshape(2, -1)])
                             for i, w in enumerate(measure.weights)])
    indices = _compact(_floats(np.arange(labels.max() + 1)[:, None], ","))
    values = np.column_stack([np.concatenate([w.ravel() for w in measure.weights]),
                              np.concatenate([a.reshape(-1, k) for a in measure.atoms])])
    with _open(path, f"# ferrosolve measure atoms v{FORMAT_VERSION}\n"
               "time_bin,cell_group,atom,weight,"
               + ",".join(_component_names("z", k)) + "\n") as fh:
        _write_rows(fh, len(values), k + 1, [
            lambda r: indices[labels[r]].reshape(-1, 3 * indices.shape[1]),
            lambda r: _floats(values[r], "," * k + "\n")])


def write_study_csv(path, study):
    """Per-level collapse diagnostics of a convergence study."""
    levels = study["levels"]
    _write_table(path, f"# ferrosolve convergence study v{FORMAT_VERSION}\n", {
        "level": levels, "solo_spread": study["solo_spreads"],
        "pooled_spread": study["pooled_spreads"], "F_deviation": study["F_deviation"],
        "final_state_diff": np.concatenate(
            [[np.nan], study["final_state_diffs"]])[:len(levels)]})


def write_mvs_csv(path, levels, rows):
    """Per-level sides and slack of the weak inequality and sides of the
    interpolant gap: rows holds lhs, rhs, slack, gap_lhs, gap_rhs of each
    level.  Unlike the other files, this one has no version line."""
    names = ("lhs", "rhs", "slack", "gap_lhs", "gap_rhs")
    rows = np.asarray(rows, dtype=float).reshape(len(levels), len(names))
    _write_table(path, "", {"level": levels, **dict(zip(names, rows.T))})


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
    vols = grid.volumes.reshape(n_boxes, -1, 1)
    weights = vols / vols.sum(axis=1, keepdims=True)

    def box_average(cell_vals):
        return np.sum(weights * np.reshape(cell_vals, vols.shape[:2] + (-1,)), axis=1)

    with _open(path, "# vtk DataFile Version 3.0\n" + title + "\nASCII\n"
               "DATASET STRUCTURED_GRID\n"
               f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n"
               f"POINTS {n_nodes} double\n") as fh:
        _write_values(fh, coords, "  \n")

        fh.write(f"POINT_DATA {n_nodes}\n".encode())
        u3 = np.zeros((n_nodes, 3))
        u3[:, :d] = fields.u
        fh.write(b"VECTORS displacement double\n")
        _write_values(fh, u3, "  \n")
        fh.write(b"SCALARS potential double 1\nLOOKUP_TABLE default\n")
        _write_values(fh, np.asarray(fields.phi, dtype=float)[:, None], "\n")

        fh.write(f"CELL_DATA {n_boxes}\n".encode())
        blocks = [
            ("strain", box_average(fields.eps)),
            ("stress", box_average(fields.sigma)),
            ("electric_field", box_average(fields.E)),
            ("electric_displacement", box_average(fields.D)),
        ]
        for name, vals in blocks:
            ncomp = vals.shape[1]
            fh.write(f"SCALARS {name} double {ncomp}\nLOOKUP_TABLE default\n".encode())
            _write_values(fh, vals, " " * (ncomp - 1) + "\n")


def ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path
