"""Scenario files: sectioned ``key = value`` text with repeated-row tables.

A scenario bundles the grid, material tensors, the two potentials, the time
horizon and levels, time-sampled loads, the initial internal state, optional
checkpoint times and tolerances.  Parsing reports *all* validation
violations, not just the first; a canonical serializer makes
parse -> serialize -> parse the identity on the canonical form.
"""

import io as _io
import math
from dataclasses import dataclass, fields

import numpy as np

from .elliptic import AssembledSystem
from .errors import ParseError, ValidationError
from .grid import Grid
from .packing import internal_dim
from .potentials import (BallIndicator, LogSaturationDirectional,
                         LogSaturationRadial, PowerLaw, Quadratic, full_contains)
from .rothe import LoadSchedule, SteppedProblem, TimeGrid
from .tensors import make_tensors


@dataclass
class Tolerances:
    step_tol: float = 1e-6
    tol_energy: float = 1e-8
    tol_mvs: float = 1e-5
    linear_tol: float = 1e-10


_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))

#: the keys each section accepts; ``row`` is the one repeatable key
_SECTIONS = {
    "grid": ("dim", "cells", "lengths"),
    "tensors": ("elastic", "dielectric", "coupling", "hardening"),
    "potential.f": ("family", "H", "P_s", "a"),
    "potential.g": ("family", "c", "p", "kappa"),
    "time": ("T", "level", "levels"),
    "loads": ("row",),
    "initial": ("z", "row"),
    "checkpoints": ("times",),
    "tolerances": _TOLERANCE_KEYS,
    "options": ("seed", "reg_weight"),
}

#: bound on n_cells * k * 2**level, the size of one per-step trajectory array
MAX_TRAJECTORY_VALUES = 2 ** 24


def level_violations(what, m0, m1, n_cells, k):
    """Problems with the level range m0..m1 on a grid of n_cells cells.

    Levels start at 1, and the finest level may not make a trajectory array
    (2**m1 steps of n_cells * k values) larger than MAX_TRAJECTORY_VALUES.
    """
    if not 1 <= m0 <= m1:
        if m0 == m1:
            return [f"{what}: need a level >= 1, got {m0}"]
        return [f"{what}: need 1 <= m0 <= m1, got {m0}..{m1}"]
    if n_cells * k * 2 ** min(m1, 64) > MAX_TRAJECTORY_VALUES:
        return [f"{what}: level {m1} gives {n_cells} cells x {k} components x "
                f"2**{m1} steps, more than {MAX_TRAJECTORY_VALUES} values"]
    return []


@dataclass
class Scenario:
    """Validated scenario ready to be instantiated into solver objects."""

    dim: int
    cells_per_axis: tuple
    lengths: tuple
    elastic: tuple              # ("isotropic", lam, mu) | ("diag", values) | ("full", matrix)
    dielectric: np.ndarray
    coupling: np.ndarray        # (d, s)
    hardening: np.ndarray       # (k, k)
    f_family: str
    f_params: dict
    g_family: str
    g_params: dict
    T: float
    level: int
    levels: tuple               # (m0, m1)
    load_times: np.ndarray
    load_b: np.ndarray          # (nt, d)
    load_q: np.ndarray          # (nt,)
    z0: np.ndarray              # (n_cells, k)
    z0_uniform: bool
    checkpoints: np.ndarray
    tolerances: Tolerances
    seed: int
    reg_weight: float | None

    def check_levels(self, what, m0, m1):
        """Raise ValidationError unless m0..m1 is a level range this
        scenario's grid can be solved at (see :func:`level_violations`)."""
        n_cells = int(np.prod(self.cells_per_axis)) * math.factorial(self.dim)
        violations = level_violations(what, m0, m1, n_cells, internal_dim(self.dim))
        if violations:
            raise ValidationError(violations)

    # -- instantiation --------------------------------------------------

    def build_grid(self):
        return Grid(self.dim, self.cells_per_axis, self.lengths)

    def build_tensors(self):
        if self.elastic[0] == "isotropic":
            elastic = ("isotropic", self.elastic[1], self.elastic[2])
        else:
            elastic = self.elastic[1]
        hard = self.hardening if self.hardening.any() else None
        coup = self.coupling if self.coupling.any() else None
        return make_tensors(self.dim, elastic, self.dielectric,
                            coupling=coup, hardening=hard)

    def build_f(self):
        if self.f_family == "quadratic":
            return Quadratic(self.f_params["H"])
        if self.f_family == "log_saturation_radial":
            return LogSaturationRadial(self.f_params["P_s"])
        if self.f_family == "log_saturation_directional":
            return LogSaturationDirectional(self.f_params["P_s"], self.f_params["a"])
        raise ValueError(f"unknown f family {self.f_family}")

    def build_g(self):
        if self.g_family == "power_law":
            return PowerLaw(self.g_params["c"], self.g_params["p"])
        if self.g_family == "ball_indicator":
            return BallIndicator(self.g_params["kappa"])
        raise ValueError(f"unknown g family {self.g_family}")

    def build_system(self, grid=None, tensors=None):
        grid = grid or self.build_grid()
        tensors = tensors or self.build_tensors()
        return AssembledSystem(grid, tensors, linear_tol=self.tolerances.linear_tol)

    def build_schedule(self, grid):
        return LoadSchedule.uniform(self.load_times, self.load_b, self.load_q, grid)

    def build_problem(self, level=None, system=None):
        system = system or self.build_system()
        lvl = self.level if level is None else level
        return SteppedProblem(system, self.build_f(), self.build_g(), lvl,
                              self.T, reg_weight=self.reg_weight)

    def initial_state(self, grid):
        if self.z0.shape[0] == grid.n_cells:
            return self.z0.copy()
        return np.broadcast_to(self.z0, (grid.n_cells, self.z0.shape[-1])).copy()


# ---------------------------------------------------------------------------
# parsing


def _floats(text, where, line):
    try:
        nums = [float(tok) for tok in text.split()]
    except ValueError:
        raise ParseError(line, f"expected numbers for {where}, got {text!r}") from None
    if not all(math.isfinite(x) for x in nums):
        raise ValidationError([f"{where} at line {line}: non-finite value in {text!r}"])
    return nums


def _parse_raw(text):
    """Tokenize into {section: {key: value-or-list-of-row-values}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"unterminated section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            current = sections.setdefault(name, {"__lines__": {}})
            accepted = _SECTIONS[name]
            continue
        if current is None:
            raise ParseError(lineno, "content before any section header")
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(lineno, "empty key")
        if key not in accepted:
            raise ParseError(lineno, f"unknown key {key!r} in [{name}]")
        if key == "row":
            current.setdefault(key, []).append((lineno, value))
        else:
            if key in current:
                raise ParseError(lineno, f"duplicate key {key!r}")
            current[key] = value
            current["__lines__"][key] = lineno
    return sections


def parse_scenario(path_or_text, is_text=False):
    """Parse and validate a scenario file.

    Raises ParseError (first syntax problem, with line number) or
    ValidationError (all semantic violations at once).
    """
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    sections = _parse_raw(text)
    violations = []

    def sec(name):
        return sections.get(name, {})

    def get(section, key, default=None, required=False):
        s = sec(section)
        if key in s:
            return s[key]
        if required:
            violations.append(f"[{section}] {key} required")
        return default

    def line(section, key):
        return sec(section).get("__lines__", {}).get(key, 0)

    def scalar(section, key, default, cast=float):
        txt = get(section, key, default)
        try:
            value = cast(txt)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise ParseError(line(section, key),
                             f"[{section}] {key}: expected {kind}, got {txt!r}") from None
        if not math.isfinite(value):
            raise ValidationError([f"[{section}] {key} at line {line(section, key)}: "
                                   f"non-finite value {txt!r}"])
        return value

    # grid -------------------------------------------------------------
    if "grid" not in sections:
        violations.append("[grid] section required")
    dim_txt = get("grid", "dim", required="grid" in sections)
    dim = 1
    if dim_txt is not None:
        try:
            dim = int(dim_txt)
        except ValueError:
            violations.append(f"[grid] dim: not an integer: {dim_txt!r}")
        else:
            if dim not in (1, 2, 3):
                violations.append(f"[grid] dim must be 1, 2 or 3, got {dim}")
                dim = 1
    s_dim = dim * (dim + 1) // 2
    k_dim = s_dim + dim

    cells_txt = get("grid", "cells", "4")
    try:
        cells = tuple(int(t) for t in cells_txt.split())
    except ValueError:
        violations.append(f"[grid] cells: not integers: {cells_txt!r}")
        cells = (4,)
    if len(cells) == 1:
        cells = cells * dim
    if len(cells) != dim or any(c < 1 for c in cells):
        violations.append(f"[grid] cells {cells} incompatible with dim {dim}")
        cells = (4,) * dim
    n_cells_total = int(np.prod(cells)) * math.factorial(dim)   # Kuhn: dim! per box

    lengths_txt = get("grid", "lengths", "1.0")
    lengths = tuple(_floats(lengths_txt, "[grid] lengths", line("grid", "lengths")))
    if len(lengths) == 1:
        lengths = lengths * dim
    if len(lengths) != dim or any(x <= 0 for x in lengths):
        violations.append(f"[grid] lengths {lengths} incompatible with dim {dim}")
        lengths = (1.0,) * dim

    # tensors ----------------------------------------------------------
    elastic_txt = get("tensors", "elastic", "isotropic 1.0 1.0")
    elastic = ("isotropic", 1.0, 1.0)
    toks = elastic_txt.split()
    if toks and toks[0] == "isotropic":
        if len(toks) != 3:
            violations.append("[tensors] elastic isotropic needs two parameters")
        else:
            lam, mu = _floats(" ".join(toks[1:]), "[tensors] elastic",
                              line("tensors", "elastic"))
            elastic = ("isotropic", lam, mu)
    else:
        nums = np.array(_floats(elastic_txt, "[tensors] elastic", line("tensors", "elastic")))
        if nums.size == 1:
            elastic = ("full", float(nums[0]) * np.eye(s_dim))
        elif nums.size == s_dim:
            elastic = ("full", np.diag(nums))
        elif nums.size == s_dim * s_dim:
            elastic = ("full", nums.reshape(s_dim, s_dim))
        else:
            violations.append(
                f"[tensors] elastic: expected 1, {s_dim} or {s_dim * s_dim} numbers")

    def _square(section, key, n, default):
        txt = get(section, key, None)
        if txt is None:
            return default
        nums = np.array(_floats(txt, f"[{section}] {key}", line(section, key)))
        if nums.size == 1:
            return float(nums[0]) * np.eye(n)
        if nums.size == n:
            return np.diag(nums)
        if nums.size == n * n:
            return nums.reshape(n, n)
        violations.append(f"[{section}] {key}: expected 1, {n} or {n * n} numbers")
        return default

    dielectric = _square("tensors", "dielectric", dim, np.eye(dim))
    hardening = _square("tensors", "hardening", k_dim, np.zeros((k_dim, k_dim)))

    coup_txt = get("tensors", "coupling", None)
    coupling = np.zeros((dim, s_dim))
    if coup_txt is not None:
        nums = np.array(_floats(coup_txt, "[tensors] coupling", line("tensors", "coupling")))
        if nums.size == 1 and dim == 1:
            coupling = nums.reshape(1, 1)
        elif nums.size == dim * s_dim:
            coupling = nums.reshape(dim, s_dim)
        else:
            violations.append(
                f"[tensors] coupling: expected {dim * s_dim} numbers for dim {dim}")

    # potentials ---------------------------------------------------------
    f_family = None
    f_params = {}
    if "potential.f" not in sections:
        violations.append("potential.f required")
    else:
        f_family = get("potential.f", "family", required=True)
        if f_family == "quadratic":
            txt = get("potential.f", "H", "1.0")
            nums = np.array(_floats(txt, "[potential.f] H", line("potential.f", "H")))
            if nums.size == 1:
                f_params["H"] = float(nums[0]) * np.eye(k_dim)
            elif nums.size == k_dim:
                f_params["H"] = np.diag(nums)
            elif nums.size == k_dim * k_dim:
                f_params["H"] = nums.reshape(k_dim, k_dim)
            else:
                violations.append(f"[potential.f] H: expected 1, {k_dim} or {k_dim * k_dim} numbers")
                f_params["H"] = np.eye(k_dim)
        elif f_family == "log_saturation_radial":
            f_params["P_s"] = scalar("potential.f", "P_s", "1.0")
            if f_params["P_s"] <= 0:
                violations.append("[potential.f] P_s must be positive")
        elif f_family == "log_saturation_directional":
            f_params["P_s"] = scalar("potential.f", "P_s", "1.0")
            a_txt = get("potential.f", "a", None)
            if a_txt is None:
                violations.append("[potential.f] a required for the directional family")
                f_params["a"] = np.zeros(dim)
                f_params["a"][0] = 1.0
            else:
                a = np.array(_floats(a_txt, "[potential.f] a", line("potential.f", "a")))
                if a.size != dim or not np.linalg.norm(a) > 0:
                    violations.append(f"[potential.f] a: need {dim} numbers, nonzero")
                    a = np.zeros(dim)
                    a[0] = 1.0
                f_params["a"] = a
        elif f_family is not None:
            violations.append(f"[potential.f] unknown family {f_family!r}")

    g_family = None
    g_params = {}
    if "potential.g" not in sections:
        violations.append("potential.g required")
    else:
        g_family = get("potential.g", "family", required=True)
        if g_family == "power_law":
            g_params["c"] = scalar("potential.g", "c", "1.0")
            g_params["p"] = scalar("potential.g", "p", "2.0")
            if g_params["c"] <= 0:
                violations.append("[potential.g] c must be positive")
            if g_params["p"] < 2:
                violations.append("[potential.g] p must be >= 2")
        elif g_family == "ball_indicator":
            g_params["kappa"] = scalar("potential.g", "kappa", "1.0")
            if g_params["kappa"] <= 0:
                violations.append("[potential.g] kappa must be positive")
        elif g_family is not None:
            violations.append(f"[potential.g] unknown family {g_family!r}")

    # time ----------------------------------------------------------------
    T = scalar("time", "T", "1.0")
    if T <= 0:
        violations.append("[time] T must be positive")
        T = 1.0
    level = scalar("time", "level", "4", int)
    violations += level_violations("[time] level", level, level, n_cells_total, k_dim)
    levels_txt = get("time", "levels", None)
    if levels_txt is None:
        levels = (max(1, level - 2), level)
    else:
        try:
            m0, m1 = (int(t) for t in levels_txt.split())
        except ValueError:
            violations.append(f"[time] levels: expected two integers, got {levels_txt!r}")
            m0, m1 = 1, level
        violations += level_violations("[time] levels", m0, m1, n_cells_total, k_dim)
        levels = (m0, m1)

    # loads ----------------------------------------------------------------
    rows = sec("loads").get("row", [])
    if rows:
        lt, lb, lq = [], [], []
        for lineno, value in rows:
            nums = _floats(value, "[loads] row", lineno)
            if len(nums) != dim + 2:
                violations.append(
                    f"[loads] row at line {lineno}: expected t, {dim} body-force "
                    f"components and q ({dim + 2} numbers), got {len(nums)}")
                continue
            lt.append(nums[0])
            lb.append(nums[1:1 + dim])
            lq.append(nums[-1])
        load_times = np.array(lt)
        load_b = np.array(lb).reshape(-1, dim)
        load_q = np.array(lq)
        order = np.argsort(load_times, kind="stable")
        if not np.array_equal(order, np.arange(len(lt))):
            violations.append("[loads] rows must be sorted by time")
        if len(load_times) and (np.any(np.diff(load_times[order]) <= 0)):
            violations.append("[loads] row times must be strictly increasing")
        if len(load_times):
            if load_times.min() > 0.0 or load_times.max() < T:
                violations.append(
                    f"[loads] table must cover [0, {T}] (got "
                    f"[{load_times.min()}, {load_times.max()}])")
    else:
        load_times = np.array([0.0, T])
        load_b = np.zeros((2, dim))
        load_q = np.zeros(2)

    # initial ---------------------------------------------------------------
    z_txt = sec("initial").get("z")
    z_rows = sec("initial").get("row", [])
    z0_uniform = True
    if z_rows:
        z0_uniform = False
        z0 = np.zeros((n_cells_total, k_dim))
        for lineno, value in z_rows:
            nums = _floats(value, "[initial] row", lineno)
            if len(nums) != 1 + k_dim:
                violations.append(
                    f"[initial] row at line {lineno}: expected cell index and "
                    f"{k_dim} components")
                continue
            ci = int(nums[0])
            if not 0 <= ci < n_cells_total:
                violations.append(f"[initial] row at line {lineno}: cell {ci} out of range")
                continue
            z0[ci] = nums[1:]
    elif z_txt is not None:
        nums = _floats(z_txt, "[initial] z", line("initial", "z"))
        if len(nums) != k_dim:
            violations.append(f"[initial] z: expected {k_dim} components, got {len(nums)}")
            nums = [0.0] * k_dim
        z0 = np.array(nums).reshape(1, k_dim)
    else:
        z0 = np.zeros((1, k_dim))

    # checkpoints / tolerances / options -------------------------------------
    ck_txt = sec("checkpoints").get("times")
    checkpoints = (np.array(_floats(ck_txt, "[checkpoints] times", line("checkpoints", "times")))
                   if ck_txt else np.array([T]))
    if np.any(checkpoints < 0) or np.any(checkpoints > T):
        violations.append("[checkpoints] times must lie in [0, T]")

    tols = Tolerances(**{key: scalar("tolerances", key, getattr(Tolerances, key))
                         for key in _TOLERANCE_KEYS})

    seed = scalar("options", "seed", "0", int)
    reg_weight = (scalar("options", "reg_weight", None)
                  if "reg_weight" in sec("options") else None)

    # semantic checks needing built objects ----------------------------------
    if not violations:
        try:
            scn = Scenario(
                dim=dim, cells_per_axis=cells, lengths=lengths, elastic=elastic,
                dielectric=dielectric, coupling=coupling, hardening=hardening,
                f_family=f_family, f_params=f_params, g_family=g_family,
                g_params=g_params, T=T, level=level, levels=levels,
                load_times=load_times, load_b=load_b, load_q=load_q,
                z0=z0, z0_uniform=z0_uniform, checkpoints=checkpoints,
                tolerances=tols, seed=seed, reg_weight=reg_weight,
            )
            f_spec = scn.build_f()
            grid = scn.build_grid()
            zfull = scn.initial_state(grid)
            ok = full_contains(f_spec, zfull, grid.strain_dim)
            bad = np.nonzero(~np.atleast_1d(ok))[0]
            for ci in bad:
                violations.append(
                    f"[initial] state of cell {ci} outside the domain of f")
            try:
                scn.build_tensors()
            except Exception as exc:
                violations.append(f"[tensors] {exc}")
        except Exception as exc:  # defensive: surface as a validation problem
            violations.append(str(exc))
    if violations:
        raise ValidationError(violations)
    return scn


# ---------------------------------------------------------------------------
# canonical serializer


def _fmt(x):
    return f"{float(x):.17g}"


def _fmt_seq(xs):
    return " ".join(_fmt(x) for x in np.asarray(xs, dtype=float).ravel())


def serialize_scenario(scn):
    """Emit the canonical text form; parse(serialize(s)) reproduces s."""
    out = _io.StringIO()
    w = out.write
    w("[grid]\n")
    w(f"dim = {scn.dim}\n")
    w(f"cells = {' '.join(str(c) for c in scn.cells_per_axis)}\n")
    w(f"lengths = {_fmt_seq(scn.lengths)}\n\n")

    w("[tensors]\n")
    if scn.elastic[0] == "isotropic":
        w(f"elastic = isotropic {_fmt(scn.elastic[1])} {_fmt(scn.elastic[2])}\n")
    else:
        w(f"elastic = {_fmt_seq(scn.elastic[1])}\n")
    w(f"dielectric = {_fmt_seq(scn.dielectric)}\n")
    if scn.coupling.any():
        w(f"coupling = {_fmt_seq(scn.coupling)}\n")
    if scn.hardening.any():
        w(f"hardening = {_fmt_seq(scn.hardening)}\n")
    w("\n[potential.f]\n")
    w(f"family = {scn.f_family}\n")
    if scn.f_family == "quadratic":
        w(f"H = {_fmt_seq(scn.f_params['H'])}\n")
    else:
        w(f"P_s = {_fmt(scn.f_params['P_s'])}\n")
        if scn.f_family == "log_saturation_directional":
            w(f"a = {_fmt_seq(scn.f_params['a'])}\n")
    w("\n[potential.g]\n")
    w(f"family = {scn.g_family}\n")
    if scn.g_family == "power_law":
        w(f"c = {_fmt(scn.g_params['c'])}\n")
        w(f"p = {_fmt(scn.g_params['p'])}\n")
    else:
        w(f"kappa = {_fmt(scn.g_params['kappa'])}\n")
    w("\n[time]\n")
    w(f"T = {_fmt(scn.T)}\n")
    w(f"level = {scn.level}\n")
    w(f"levels = {scn.levels[0]} {scn.levels[1]}\n")
    w("\n[loads]\n")
    for i in range(len(scn.load_times)):
        w(f"row = {_fmt(scn.load_times[i])} {_fmt_seq(scn.load_b[i])} {_fmt(scn.load_q[i])}\n")
    w("\n[initial]\n")
    if scn.z0_uniform:
        w(f"z = {_fmt_seq(scn.z0[0])}\n")
    else:
        for ci in range(scn.z0.shape[0]):
            w(f"row = {ci} {_fmt_seq(scn.z0[ci])}\n")
    w("\n[checkpoints]\n")
    w(f"times = {_fmt_seq(scn.checkpoints)}\n")
    w("\n[tolerances]\n")
    for key in _TOLERANCE_KEYS:
        w(f"{key} = {_fmt(getattr(scn.tolerances, key))}\n")
    w("\n[options]\n")
    w(f"seed = {scn.seed}\n")
    if scn.reg_weight is not None:
        w(f"reg_weight = {_fmt(scn.reg_weight)}\n")
    return out.getvalue()
