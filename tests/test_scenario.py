"""Scenario parsing, validation reporting, canonical round-trip."""

import contextlib
import gc
import io
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrosolve import ParseError, ValidationError, parse_scenario, serialize_scenario
from ferrosolve.cli import main

MINIMAL = """
[grid]
dim = 1
cells = 4

[potential.f]
family = quadratic
H = 1.0

[potential.g]
family = power_law
"""


REFERENCE = """
[grid]
dim = 1
cells = 16
lengths = 1.0

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
c = 1.0
p = 2.0

[time]
T = 1.0
level = 6
levels = 4 7

[loads]
row = 0.0 0.0 0.0
row = 1.0 0.8 0.4

[initial]
z = 0.0 0.0

[checkpoints]
times = 0.5 1.0

[tolerances]
step_tol = 1e-8
"""


def test_minimal_scenario_default_fill():
    scn = parse_scenario(MINIMAL, is_text=True)
    assert scn.dim == 1
    assert scn.T == 1.0
    assert scn.level == 4
    assert scn.tolerances.step_tol == 1e-6
    assert scn.tolerances.tol_energy == 1e-8
    assert scn.tolerances.tol_mvs == 1e-5
    assert scn.tolerances.linear_tol == 1e-10
    # zero loads filled in, covering [0, T]
    assert scn.load_times[0] == 0.0 and scn.load_times[-1] == scn.T
    assert np.abs(scn.load_b).max() == 0.0


def test_reference_scenario_builds_objects():
    scn = parse_scenario(REFERENCE, is_text=True)
    grid = scn.build_grid()
    assert grid.n_cells == 16
    sys_ = scn.build_system(grid)
    prob = scn.build_problem(level=3, system=sys_)
    assert prob.time_grid.n_steps == 8
    sched = scn.build_schedule(grid)
    assert sched.rows.shape == (2, 2)


def test_round_trip_identity():
    scn = parse_scenario(REFERENCE, is_text=True)
    text1 = serialize_scenario(scn)
    scn2 = parse_scenario(text1, is_text=True)
    text2 = serialize_scenario(scn2)
    assert text1 == text2


def test_missing_g_section():
    text = MINIMAL.replace("[potential.g]\nfamily = power_law", "")
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    assert any("potential.g required" in v for v in exc.value.violations)


def test_initial_state_outside_domain_names_cell():
    text = """
[grid]
dim = 1
cells = 4

[potential.f]
family = log_saturation_radial
P_s = 1.0

[potential.g]
family = ball_indicator
kappa = 0.5

[initial]
row = 2 0.0 1.5
"""
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    assert any("cell 2" in v for v in exc.value.violations)


def test_all_violations_reported_at_once():
    text = """
[grid]
dim = 1
cells = 4

[potential.f]
family = nosuch

[potential.g]
family = power_law
p = 1.5

[time]
T = -2.0
"""
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    msgs = exc.value.violations
    assert len(msgs) >= 3
    assert any("unknown family" in v for v in msgs)
    assert any("p must be >= 2" in v for v in msgs)
    assert any("T must be positive" in v for v in msgs)


def test_parse_error_reports_line():
    text = "[grid]\ndim = 1\nthis line has no equals sign\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(text, is_text=True)
    assert exc.value.line == 3


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_scenario("[nonsense]\nkey = 1\n", is_text=True)


def test_non_nesting_levels_rejected():
    text = MINIMAL + "\n[time]\nlevels = 5 3\n"
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    assert any("levels" in v for v in exc.value.violations)


def test_load_table_must_cover_horizon():
    text = MINIMAL + "\n[time]\nT = 2.0\n\n[loads]\nrow = 0.0 0.0 0.0\nrow = 1.0 1.0 0.0\n"
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    assert any("cover" in v for v in exc.value.violations)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
    scn = parse_scenario(text, is_text=True)
    assert scn.dim == 1


_SERIALIZED = [
    REFERENCE + "\n[options]\nseed = 3\nreg_weight = 0.125\n",
    """
[grid]
dim = 2
cells = 2 3
lengths = 1.0 2.0

[tensors]
elastic = isotropic 1.0 0.5
hardening = 0.5

[potential.f]
family = log_saturation_directional
P_s = 1.5
a = 1.0 1.0

[potential.g]
family = ball_indicator
kappa = 0.25

[initial]
row = 3 0.0 0.0 0.0 0.1 0.0
""",
    MINIMAL.replace("family = quadratic\nH = 1.0",
                    "family = log_saturation_radial\nP_s = 2.0"),
]


@pytest.mark.parametrize("text", _SERIALIZED, ids=["power", "directional", "radial"])
def test_every_serialized_key_is_accepted(text):
    canonical = serialize_scenario(parse_scenario(text, is_text=True))
    keys = ["seed", "step_tol", "tol_energy", "tol_mvs", "linear_tol"]
    if "reg_weight" in text:
        keys.append("reg_weight")
    for key in keys:
        assert f"\n{key} = " in canonical
    assert serialize_scenario(parse_scenario(canonical, is_text=True)) == canonical


def test_non_finite_number_list_rejected_with_line():
    text = MINIMAL + "\n[checkpoints]\ntimes = 0.5 nan\n"
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    lineno = text.splitlines().index("times = 0.5 nan") + 1
    assert exc.value.violations == [
        f"[checkpoints] times at line {lineno}: non-finite value in '0.5 nan'"]


_TOKENS = ["x", "nan", "inf", "-1", "0", "2.5", "1e308", ""]


@st.composite
def _mutated_reference(draw):
    """The REFERENCE scenario of test_cli with one line dropped or
    duplicated, or one value token replaced."""
    from test_cli import REFERENCE as CLI_REFERENCE

    lines = CLI_REFERENCE.splitlines()
    kind = draw(st.sampled_from(["drop", "duplicate", "replace"]))
    if kind == "replace":
        slots = [(i, j) for i, ln in enumerate(lines) if "=" in ln
                 for j in range(len(ln.split("=", 1)[1].split()))]
        i, j = draw(st.sampled_from(slots))
        key, value = lines[i].split("=", 1)
        toks = value.split()
        toks[j] = draw(st.sampled_from(_TOKENS))
        lines[i] = f"{key}= {' '.join(toks)}"
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=_mutated_reference())
def test_mutated_reference_exits_cleanly_and_round_trips(text):
    """`check` exits 0 or 3 and never raises; what parses round-trips."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", path]) in (0, 3)
    try:
        scn = parse_scenario(text, is_text=True)
    except (ParseError, ValidationError):
        return
    canonical = serialize_scenario(scn)
    assert serialize_scenario(parse_scenario(canonical, is_text=True)) == canonical


def test_huge_grid_with_cell_rows_is_a_violation():
    """A grid far beyond the level bound is reported, not allocated."""
    text = MINIMAL.replace("cells = 4", "cells = 10000000000") + "\n[initial]\nrow = 0 0.0 0.0\n"
    with pytest.raises(ValidationError) as exc:
        parse_scenario(text, is_text=True)
    assert exc.value.violations == [
        "[time] level: level 4 gives 10000000000 cells x 2 components x 2**4 steps, "
        "more than 16777216 values"]


def test_cell_rows_read_bit_for_bit():
    """Per-cell rows in shuffled order, with signed zeros, exponents and
    tiny values, give a z0 equal bit for bit to float() of each token."""
    rng = np.random.default_rng(7)
    tokens = ["-0", "0", "-0.0", "1e-300", "-1E-300", "5e-324", "2.5e+3", "-7.125e-12",
              "0.1", "3", "+4.0", "1_000.5", ".5", "1.7976931348623157e308"]
    text = MINIMAL.replace("dim = 1", "dim = 2").replace("cells = 4", "cells = 3")
    expected = np.zeros((18, 5))
    rows = []
    for c in rng.permutation(18):
        values = rng.choice(tokens, 5)
        expected[c] = [float(v) for v in values]
        rows.append(f"row = {rng.choice([str(c), f'+{c}', f'0{c}'])} {' '.join(values)}\n")
    scn = parse_scenario(text + "\n[initial]\n" + "".join(rows), is_text=True)
    assert scn.z0.tobytes() == expected.tobytes()


#: malformed table rows after MINIMAL: the error of the first row at fault,
#: or every violation, in file order, each with its line
_BAD_ROWS = [
    ("initial_count_range_repeat",
     "[initial]\nrow = 0 0.1 0.2\nrow = 1 0.1\nrow = 9 0.0 0.0\nrow = 0 0.3 0.4\n"
     "row = -1 0 0\n",
     ValidationError, "[initial] row at line 15: expected 3 numbers, got 2; "
     "[initial] row at line 16: cell 9 out of range; [initial] row at line 17: cell 0 "
     "already set at line 14; [initial] row at line 18: cell -1 out of range"),
    ("initial_negative_cell", "[initial]\nrow = 0 0.0 0.0\nrow = -1 0.0 0.0\n",
     ValidationError, "[initial] row at line 15: cell -1 out of range"),
    ("initial_cell_past_end", "[initial]\nrow = 3 0.0 0.0\nrow = 4 0.0 0.0\n",
     ValidationError, "[initial] row at line 15: cell 4 out of range"),
    ("initial_cell_exponent", "[initial]\nrow = 3 0.0 0.0\nrow = 1e0 0.0 0.0\n",
     ParseError, "line 15: [initial] row cell: expected integers, got '1e0'"),
    ("initial_cell_then_number", "[initial]\nrow = 1.5 0.0 0.0\nrow = 2 x 0.0\n",
     ParseError, "line 14: [initial] row cell: expected integers, got '1.5'"),
    ("initial_count_then_number", "[initial]\nrow = 1 0.0\nrow = 2 x 0.0\n",
     ParseError, "line 15: [initial] row: expected numbers, got '2 x 0.0'"),
    ("initial_non_finite", "[initial]\nrow = 1 0.0 0.0\nrow = 2 0.0 inf\nrow = 7 0 0\n",
     ValidationError, "[initial] row at line 15: non-finite value in '2 0.0 inf'"),
    ("initial_cell_nan", "[initial]\nrow = nan 0.0 0.0\n",
     ValidationError, "[initial] row at line 14: non-finite value in 'nan 0.0 0.0'"),
    ("initial_huge_cell",
     "[initial]\nrow = 99999999999999999999999 0.0 0.0\nrow = 1 0 0 0\n",
     ValidationError, "[initial] row at line 14: cell 99999999999999999999999 out of "
     "range; [initial] row at line 15: expected 3 numbers, got 4"),
    ("loads_count", "[loads]\nrow = 0.0 0.0 0.0\nrow = 0.5 1.0\nrow = 0.25 0.0 0.0\n",
     ValidationError, "[loads] row at line 15: expected 3 numbers, got 2; "
     "[loads] table must cover [0, 1.0] (got [0.0, 0.25])"),
    ("loads_word", "[loads]\nrow = 0.0 0.0 0.0\nrow = 1.0 abc 0.0\n",
     ParseError, "line 15: [loads] row: expected numbers, got '1.0 abc 0.0'"),
    ("loads_inf", "[loads]\nrow = 0.0 0.0 0.0\nrow = 1.0 -inf 0.0\n",
     ValidationError, "[loads] row at line 15: non-finite value in '1.0 -inf 0.0'"),
]


@pytest.mark.parametrize("name,rows,error,message", _BAD_ROWS, ids=[c[0] for c in _BAD_ROWS])
def test_bad_table_rows_reported_row_by_row(name, rows, error, message):
    """A table with a row at fault gets the row-by-row report: the first
    unreadable or non-finite row raises, and wrong counts, out-of-range
    cells and repeated cells are all listed."""
    with pytest.raises(error) as exc:
        parse_scenario(MINIMAL + "\n" + rows, is_text=True)
    assert str(exc.value) == message


SETUP = """
[grid]
dim = 2
cells = {n}
lengths = 1.0 2.0

[tensors]
elastic = isotropic 1.0 1.0
dielectric = 1.0
coupling = 0.3 0 0 0 0.3 0
hardening = 0.1

[potential.f]
family = log_saturation_radial

[potential.g]
family = power_law
p = 3.0

[time]
level = 3

[loads]
row = 0.0 0.0 0.0 0.0
row = 1.0 0.5 -0.5 1.0

[initial]
"""


def _setup_calls(n):
    """Python function calls ('call' events of sys.setprofile) made by
    parsing the scenario on an n x n grid with one [initial] row per cell,
    and building its grid and system."""
    text = SETUP.format(n=n) + "".join(f"row = {c} 0.01 0 0 -0.0 1e-3\n"
                                       for c in range(2 * n * n))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()                # no finalizer runs inside the count
    sys.setprofile(profile)
    try:
        scn = parse_scenario(text, is_text=True)
        scn.build_system(scn.build_grid())
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_set_up_makes_no_python_call_per_cell():
    """Set-up is array work: 64x as many cells and [initial] rows make
    about the same number of Python function calls, where one call per cell
    or row would add thousands.  The margin leaves room for size-dependent
    branches inside numpy and scipy."""
    _setup_calls(4)             # fills the caches of first use
    assert abs(_setup_calls(32) - _setup_calls(4)) < 100
