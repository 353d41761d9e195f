"""Scenario files: sectioned ``key = value`` text with repeated-row tables.

A scenario bundles the grid, material tensors, the two potentials, the time
horizon and levels, time-sampled loads, the initial internal state, optional
checkpoint times and tolerances.  Parsing reports *all* validation
violations, not just the first; a canonical serializer makes
parse -> serialize -> parse the identity on the canonical form.

Two tables drive parsing, the unknown-key check, serialization and the
builders: ``_FAMILIES`` (each potential family's class and parameters) and
``_SECTIONS`` (the keys of each section, in canonical order).
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .elliptic import AssembledSystem
from .errors import FerrosolveError, ParseError, ValidationError
from .grid import Grid
from .packing import internal_dim, sym_dim
from .potentials import (BallIndicator, LogSaturationDirectional,
                         LogSaturationRadial, PowerLaw, Quadratic, full_contains)
from .rothe import LoadSchedule, SteppedProblem
from .tensors import _as_matrix, make_tensors


@dataclass
class Tolerances:
    step_tol: float = 1e-6
    tol_energy: float = 1e-8
    tol_mvs: float = 1e-5
    linear_tol: float = 1e-10


#: per potential ("f" in [potential.f], "g" in [potential.g]): each family's
#: class and, per constructor argument in file order, how its value is read
#: ("number"; "matrix" on the internal space; "vector" in space) and its
#: default (None: required)
_FAMILIES = {
    "f": {cls.family: (cls, params) for cls, params in (
        (Quadratic, {"H": ("matrix", 1.0)}),
        (LogSaturationRadial, {"P_s": ("number", 1.0)}),
        (LogSaturationDirectional, {"P_s": ("number", 1.0), "a": ("vector", None)}),
    )},
    "g": {cls.family: (cls, params) for cls, params in (
        (PowerLaw, {"c": ("number", 1.0), "p": ("number", 2.0)}),
        (BallIndicator, {"kappa": ("number", 1.0)}),
    )},
}

#: the keys each section accepts, in canonical order; ``row`` is the one
#: repeatable key
_SECTIONS = {
    "grid": ("dim", "cells", "lengths"),
    "tensors": ("elastic", "dielectric", "coupling", "hardening"),
    **{f"potential.{name}": ("family", *dict.fromkeys(
        key for _, params in families.values() for key in params))
       for name, families in _FAMILIES.items()},
    "time": ("T", "level", "levels"),
    "loads": ("row",),
    "initial": ("z", "row"),
    "checkpoints": ("times",),
    "tolerances": tuple(f.name for f in fields(Tolerances)),
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
    elastic: object             # ("isotropic", lam, mu) | (s, s) matrix
    dielectric: np.ndarray      # (d, d)
    coupling: np.ndarray | None     # (d, s), None when zero
    hardening: np.ndarray | None    # (k, k), None when zero
    potentials: dict            # {"f" | "g": (family, constructor arguments)}
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
        n_cells = math.prod(self.cells_per_axis) * math.factorial(self.dim)
        violations = level_violations(what, m0, m1, n_cells, internal_dim(self.dim))
        if violations:
            raise ValidationError(violations)

    # -- instantiation --------------------------------------------------

    def build_grid(self):
        return Grid(self.dim, self.cells_per_axis, self.lengths)

    def build_tensors(self):
        return make_tensors(self.dim, self.elastic, self.dielectric,
                            coupling=self.coupling, hardening=self.hardening)

    def _build_potential(self, name):
        family, params = self.potentials[name]
        return _FAMILIES[name][family][0](**params)

    def build_f(self):
        return self._build_potential("f")

    def build_g(self):
        return self._build_potential("g")

    def build_system(self, grid=None, tensors=None):
        grid = grid or self.build_grid()
        tensors = tensors or self.build_tensors()
        return AssembledSystem(grid, tensors, linear_tol=self.tolerances.linear_tol)

    def build_schedule(self, grid):
        """Loads are uniform in space: ``grid`` is unused (the benchmark passes it)."""
        return LoadSchedule(self.load_times, self.load_b, self.load_q)

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


def _ints(text, where, line):
    """The integers of a value; any other token is a ParseError at its line."""
    try:
        return list(map(int, text.split()))
    except ValueError:
        raise ParseError(line, f"{where}: expected integers, got {text!r}") from None


def _floats(text, where, line):
    """The finite numbers of a value: a token that is not a number is a
    ParseError at its line, nan or inf a ValidationError naming key and line."""
    try:
        nums = list(map(float, text.split()))
    except ValueError:
        raise ParseError(line, f"{where}: expected numbers, got {text!r}") from None
    if not all(map(math.isfinite, nums)):
        raise ValidationError([f"{where} at line {line}: non-finite value in {text!r}"])
    return nums


def _parse_raw(text):
    """Tokenize into {section: {key: (line, value)}}; ``row`` holds a list."""
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
            current, accepted = sections.setdefault(name, {}), _SECTIONS[name]
            continue
        if current is None:
            raise ParseError(lineno, "content before any section header")
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        if not key:
            raise ParseError(lineno, "empty key")
        if key not in accepted:
            raise ParseError(lineno, f"unknown key {key!r} in [{name}]")
        if key == "row":
            current.setdefault(key, []).append((lineno, value))
        elif key in current:
            raise ParseError(lineno, f"duplicate key {key!r} "
                                     f"(first at line {current[key][0]})")
        else:
            current[key] = (lineno, value)
    return sections


class _Reader:
    """Typed values of the tokenized sections.  Unreadable tokens raise at
    once; wrong counts and out-of-range values collect in ``violations``."""

    def __init__(self, sections):
        self.sections = sections
        self.violations = []

    def given(self, section, key):
        return key in self.sections.get(section, {})

    def line(self, section, key):
        return self.sections.get(section, {}).get(key, (0, None))[0]

    def count(self, nums, where, line, counts, default):
        """nums if its length is one of counts (any but 0 when counts is
        None), else default and a violation."""
        if (len(nums) in counts) if counts else nums:
            return nums
        expected = " or ".join(map(str, counts)) if counts else "at least one"
        self.violations.append(f"{where} at line {line}: expected {expected} numbers, "
                               f"got {len(nums)}")
        return default

    def numbers(self, section, key, default, read=_floats, counts=None):
        """The numbers of section.key; default when it is absent or has a
        count not in counts (a violation)."""
        line, text = self.sections.get(section, {}).get(key, (0, None))
        if text is None:
            return default
        where = f"[{section}] {key}"
        return self.count(read(text, where, line), where, line, counts, default)

    def rows(self, section, counts):
        """(line, text, numbers) of each row of section whose count of
        numbers is one of counts."""
        where = f"[{section}] row"
        for line, text in self.sections.get(section, {}).get("row", []):
            nums = self.count(_floats(text, where, line), where, line, counts, None)
            if nums is not None:
                yield line, text, nums

    def scalar(self, section, key, default, read=_floats):
        return self.numbers(section, key, [default], read, (1,))[0]

    def matrix(self, section, key, n, default):
        """An n x n matrix given as 1 (times the identity), n (diagonal) or
        n*n (row-major) numbers; default (a scalar or None) when absent."""
        nums = self.numbers(section, key, default, counts=(1, n, n * n))
        if nums is None:
            return None
        shape = {1: (), n: (n,)}.get(np.size(nums), (n, n))
        return _as_matrix(np.reshape(nums, shape), n, f"[{section}] {key}")

    def require(self, ok, section, key, rule, value):
        """Record a violation unless ok; return ok."""
        if not ok:
            self.violations.append(f"[{section}] {key} must be {rule}, got {value} "
                                   f"(line {self.line(section, key)})")
        return ok


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
    r = _Reader(_parse_raw(text))
    violations = r.violations

    # grid -------------------------------------------------------------
    if "grid" not in r.sections:
        violations.append("[grid] section required")
    elif not r.given("grid", "dim"):
        violations.append("[grid] dim required")
    dim = r.scalar("grid", "dim", 1, _ints)
    if not r.require(dim in (1, 2, 3), "grid", "dim", "1, 2 or 3", dim):
        dim = 1
    s_dim, k_dim = sym_dim(dim), internal_dim(dim)
    cells = tuple(r.numbers("grid", "cells", [4], _ints, (1, dim)))
    cells = cells * dim if len(cells) == 1 else cells
    if not r.require(min(cells) >= 1, "grid", "cells", "at least 1", cells):
        cells = (4,) * dim
    lengths = tuple(r.numbers("grid", "lengths", [1.0], counts=(1, dim)))
    lengths = lengths * dim if len(lengths) == 1 else lengths
    if not r.require(min(lengths) > 0, "grid", "lengths", "positive", lengths):
        lengths = (1.0,) * dim
    n_cells = math.prod(cells) * math.factorial(dim)   # Kuhn: dim! per box

    # tensors ----------------------------------------------------------
    line, text = r.sections.get("tensors", {}).get("elastic", (0, "isotropic 1.0 1.0"))
    toks = text.split()
    if toks[:1] == ["isotropic"]:
        lam_mu = _floats(" ".join(toks[1:]), "[tensors] elastic", line)
        elastic = ("isotropic", *r.count(lam_mu, "[tensors] elastic", line, (2,), [1.0, 1.0]))
    else:
        elastic = r.matrix("tensors", "elastic", s_dim, None)
    dielectric = r.matrix("tensors", "dielectric", dim, 1.0)
    coupling = r.numbers("tensors", "coupling", None, counts=(dim * s_dim,))
    coupling = np.reshape(coupling, (dim, s_dim)) if np.any(coupling) else None
    hardening = r.matrix("tensors", "hardening", k_dim, None)
    hardening = hardening if np.any(hardening) else None

    # potentials: read each family's arguments, build it once ---------------
    potentials, built = {}, {}
    for name, families in _FAMILIES.items():
        section = f"potential.{name}"
        if section not in r.sections:
            violations.append(f"{section} required")
            continue
        family = r.sections[section].get("family", (0, None))[1]
        if family is None:
            violations.append(f"[{section}] family required")
            continue
        if family not in families:
            violations.append(f"[{section}] unknown family {family!r}")
            continue
        cls, params = families[family]
        for key, (line, _) in r.sections[section].items():
            if key not in params and key != "family":
                raise ParseError(line, f"key {key!r} does not apply to family {family}")
        args = {}
        for key, (kind, default) in params.items():
            if kind == "number":
                args[key] = r.scalar(section, key, default)
            elif kind == "matrix":
                args[key] = r.matrix(section, key, k_dim, default)
            else:
                args[key] = r.numbers(section, key, default, counts=(dim,))
            if args[key] is None and not r.given(section, key):
                violations.append(f"[{section}] {key} required")
        if all(value is not None for value in args.values()):
            potentials[name] = (family, args)
            try:
                built[name] = cls(**args)
            except ValueError as exc:
                violations.append(f"[{section}] {exc}")

    # time ----------------------------------------------------------------
    T = r.scalar("time", "T", 1.0)
    if not r.require(T > 0, "time", "T", "positive", T):
        T = 1.0
    level = r.scalar("time", "level", 4, _ints)
    violations += level_violations("[time] level", level, level, n_cells, k_dim)
    levels = tuple(r.numbers("time", "levels", [max(1, level - 2), level], _ints, (2,)))
    if r.given("time", "levels"):
        violations += level_violations("[time] levels", *levels, n_cells, k_dim)

    # loads ----------------------------------------------------------------
    table = np.array([nums for _, _, nums in r.rows("loads", (dim + 2,))])
    table = table.reshape(-1, dim + 2)
    if len(table):
        load_times, load_b, load_q = table[:, 0], table[:, 1:-1], table[:, -1]
        if np.any(np.diff(load_times) <= 0):
            violations.append("[loads] row times must be strictly increasing")
        if load_times.min() > 0.0 or load_times.max() < T:
            violations.append(f"[loads] table must cover [0, {T}] (got "
                              f"[{load_times.min()}, {load_times.max()}])")
    else:
        load_times, load_b, load_q = np.array([0.0, T]), np.zeros((2, dim)), np.zeros(2)

    # initial ---------------------------------------------------------------
    z0_uniform = not r.given("initial", "row")
    if z0_uniform:
        z0 = np.array([r.numbers("initial", "z", [0.0] * k_dim, counts=(k_dim,))])
    else:
        if r.given("initial", "z"):
            violations.append("[initial] give either z or rows, not both")
        rows = {}
        for line, text, nums in r.rows("initial", (1 + k_dim,)):
            ci = _ints(text.split(None, 1)[0], "[initial] row cell", line)[0]
            if not 0 <= ci < n_cells:
                violations.append(f"[initial] row at line {line}: cell {ci} out of range")
            elif ci in rows:
                violations.append(f"[initial] row at line {line}: cell {ci} "
                                  f"already set at line {rows[ci][0]}")
            else:
                rows[ci] = (line, nums[1:])
        if not violations:      # else the grid may be too large to allocate
            z0 = np.zeros((n_cells, k_dim))
            for ci, (_, values) in rows.items():
                z0[ci] = values

    # checkpoints / tolerances / options -------------------------------------
    checkpoints = np.array(r.numbers("checkpoints", "times", [T]))
    if np.any(checkpoints < 0) or np.any(checkpoints > T):
        violations.append("[checkpoints] times must lie in [0, T]")
    tolerances = {f.name: r.scalar("tolerances", f.name, f.default) for f in fields(Tolerances)}
    for key, value in tolerances.items():
        r.require(value > 0, "tolerances", key, "positive", value)
    seed = r.scalar("options", "seed", 0, _ints)
    reg_weight = r.scalar("options", "reg_weight", None)
    if reg_weight is not None:
        r.require(reg_weight >= 0, "options", "reg_weight", ">= 0", reg_weight)

    # semantic checks needing built objects ----------------------------------
    if not violations:
        scn = Scenario(
            dim=dim, cells_per_axis=cells, lengths=lengths, elastic=elastic,
            dielectric=dielectric, coupling=coupling, hardening=hardening,
            potentials=potentials, T=T, level=level, levels=levels,
            load_times=load_times, load_b=load_b, load_q=load_q,
            z0=z0, z0_uniform=z0_uniform, checkpoints=checkpoints,
            tolerances=Tolerances(**tolerances), seed=seed, reg_weight=reg_weight,
        )
        try:
            scn.build_tensors()
        except (ValueError, FerrosolveError) as exc:
            violations.append(f"[tensors] {exc}")
        inside = full_contains(built["f"], np.broadcast_to(z0, (n_cells, k_dim)), s_dim)
        violations += [f"[initial] state of cell {ci} outside the domain of f"
                       for ci in np.flatnonzero(~inside)]
    if violations:
        raise ValidationError(violations)
    return scn


# ---------------------------------------------------------------------------
# canonical serializer


def _text(value):
    """Canonical text of a value: strings as they are, integers exactly and
    other numbers with 17 significant digits."""
    if isinstance(value, str):
        return value
    return " ".join(str(x) if isinstance(x, int) else f"{x:.17g}"
                    for x in np.ravel(value).tolist())


def serialize_scenario(scn):
    """Emit the canonical text form; parse(serialize(s)) reproduces s."""
    elastic = scn.elastic
    if isinstance(elastic, tuple):
        elastic = f"{elastic[0]} {_text(elastic[1:])}"
    values = {
        "grid": {"dim": scn.dim, "cells": scn.cells_per_axis, "lengths": scn.lengths},
        "tensors": {"elastic": elastic, "dielectric": scn.dielectric,
                    "coupling": scn.coupling, "hardening": scn.hardening},
        **{f"potential.{name}": {"family": family, **args}
           for name, (family, args) in scn.potentials.items()},
        "time": {"T": scn.T, "level": scn.level, "levels": scn.levels},
        "loads": {"row": [np.hstack(row) for row in
                          zip(scn.load_times, scn.load_b, scn.load_q)]},
        "initial": ({"z": scn.z0[0]} if scn.z0_uniform else
                    {"row": [f"{ci} {_text(z)}" for ci, z in enumerate(scn.z0)]}),
        "checkpoints": {"times": scn.checkpoints},
        "tolerances": asdict(scn.tolerances),
        "options": {"seed": scn.seed, "reg_weight": scn.reg_weight},
    }
    blocks = []
    for section, keys in _SECTIONS.items():
        given = values[section]
        lines = [f"{key} = {_text(value)}\n" for key in keys if key in given
                 for value in (given[key] if key == "row" else [given[key]])
                 if value is not None]
        blocks.append(f"[{section}]\n" + "".join(lines))
    return "\n".join(blocks)
