"""Convex potentials: values, gradients, conjugates, prox maps, growth.

Gradients are checked against central finite differences, prox maps against
dense 1-d scans, conjugates against sup-grid evaluation -- every closed form
has an independent oracle.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrosolve import (BallIndicator, LogSaturationDirectional,
                        LogSaturationRadial, OutsideDomain, PowerLaw,
                        Quadratic, fenchel_residual)
from ferrosolve.potentials import (DOMAIN_MARGIN, full_contains, full_grad,
                                   full_prox, full_value)


def _fd_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# gradients vs finite differences


@pytest.mark.parametrize("spec,dim", [
    (PowerLaw(1.0, 2.0), 3),
    (PowerLaw(0.7, 3.0), 2),
    (Quadratic(np.diag([1.0, 2.0, 0.5])), 3),
    (LogSaturationRadial(2.0), 3),
    (LogSaturationDirectional(2.0, [1.0, 1.0, 0.0]), 3),
])
def test_grad_matches_central_differences(spec, dim):
    rng = np.random.default_rng(42)
    for _ in range(50):
        # inside every domain: |x| <= sqrt(3) / 2 < P_s = 2
        x = rng.uniform(-0.5, 0.5, dim)
        g = spec.grad(x)
        g_fd = _fd_grad(lambda v: float(spec.value(v)), x)
        assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-7)


def test_log_saturation_gradients_many_interior_points():
    """Dense finite-difference sweep (the bulk domain-interior check)."""
    rng = np.random.default_rng(0)
    radial = LogSaturationRadial(1.5)
    direct = LogSaturationDirectional(1.5, [0.6, -0.8])
    n_ok = 0
    while n_ok < 1000:
        x = rng.uniform(-1.2, 1.2, 2)
        if not (np.hypot(*x) < 0.95 * 1.5 and abs(x @ [0.6, -0.8]) < 0.95 * 1.5):
            continue
        n_ok += 1
        for spec in (radial, direct):
            g = spec.grad(x)
            g_fd = _fd_grad(lambda v: float(spec.value(v)), x)
            denom = max(np.linalg.norm(g), 1.0)
            assert np.linalg.norm(g - g_fd) / denom <= 1e-6


def test_grad_raises_outside_domain():
    radial = LogSaturationRadial(1.0)
    with pytest.raises(OutsideDomain):
        radial.grad(np.array([1.0, 0.0]))
    direct = LogSaturationDirectional(1.0, [1.0, 0.0])
    with pytest.raises(OutsideDomain):
        direct.grad(np.array([1.0, 5.0]))


# ---------------------------------------------------------------------------
# reference values


def test_log_saturation_radial_reference_value():
    # P_s = 2, |P| = 1: -4 (ln(1/2) + 1/2) = 4 ln 2 - 2
    spec = LogSaturationRadial(2.0)
    val = float(spec.value(np.array([1.0, 0.0])))
    assert val == pytest.approx(4 * np.log(2.0) - 2.0, rel=1e-14)


def test_power_law_conjugate_coefficient():
    # c = 1, p = 2: conjugate is |w|^2 / 4
    spec = PowerLaw(1.0, 2.0)
    w = np.array([3.0, 4.0])
    assert float(spec.conjugate_value(w)) == pytest.approx(25.0 / 4.0, rel=1e-14)


def test_radial_coercivity_lower_bound():
    """f(P) >= |P|^2/2 on the domain (quadratic growth from below)."""
    spec = LogSaturationRadial(1.3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.29, 1.29, (2000, 2))
    pts = pts[spec.contains(pts)]
    vals = spec.value(pts)
    assert np.all(vals >= 0.5 * np.sum(pts ** 2, axis=-1) - 1e-12)
    assert spec.coercive


def test_directional_coercivity_failure_witness():
    """The directional family vanishes on the orthogonal hyperplane."""
    spec = LogSaturationDirectional(1.0, [1.0, 0.0])
    big = np.array([0.0, 1e6])
    assert float(spec.value(big)) == 0.0
    assert not spec.coercive


# ---------------------------------------------------------------------------
# convexity probes


@pytest.mark.parametrize("spec,dim", [
    (PowerLaw(1.0, 2.5), 3),
    (Quadratic(np.eye(2)), 2),
    (LogSaturationRadial(1.0), 2),
    (LogSaturationDirectional(1.0, [0.0, 1.0]), 2),
    (BallIndicator(0.7), 2),
])
def test_midpoint_convexity(spec, dim):
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        x = rng.uniform(-2.0, 2.0, dim)
        y = rng.uniform(-2.0, 2.0, dim)
        fx, fy = float(spec.value(x)), float(spec.value(y))
        if np.isinf(fx) or np.isinf(fy):
            continue
        checked += 1
        mid = float(spec.value(0.5 * (x + y)))
        assert mid <= 0.5 * (fx + fy) + 1e-10


# ---------------------------------------------------------------------------
# prox maps


def _prox_oracle_radial(spec, lam, v, n_grid=200001):
    """Dense 1-d scan for the prox of a radial function."""
    n = np.linalg.norm(v)
    if n == 0:
        return v
    direction = v / n
    rhos = np.linspace(0.0, n, n_grid)
    pts = rhos[:, None] * direction
    obj = spec.value(pts) + np.sum((pts - v) ** 2, axis=-1) / (2 * lam)
    obj = np.where(np.isfinite(obj), obj, np.inf)
    return pts[np.argmin(obj)]


@pytest.mark.parametrize("spec", [
    PowerLaw(1.0, 2.0),
    PowerLaw(0.5, 3.5),
    LogSaturationRadial(1.1),
    BallIndicator(0.8),
])
def test_prox_matches_dense_scan(spec):
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.uniform(-1.5, 1.5, 2)
        lam = float(rng.uniform(0.05, 2.0))
        p = spec.prox(lam, v)
        p_ref = _prox_oracle_radial(spec, lam, v)
        assert np.linalg.norm(p - p_ref) <= 2 * np.linalg.norm(v) / 200000 + 1e-9


def test_prox_optimality_condition():
    """prox output satisfies v - p = lam * grad(p) for smooth families."""
    rng = np.random.default_rng(31)
    for spec in (PowerLaw(1.0, 2.0), PowerLaw(0.9, 2.7),
                 LogSaturationRadial(1.4),
                 LogSaturationDirectional(1.4, [1.0, 1.0])):
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, 2)
            lam = float(rng.uniform(0.1, 1.5))
            p = spec.prox(lam, v)
            if np.linalg.norm(p) < 1e-12:
                continue
            assert np.allclose(v - p, lam * spec.grad(p), atol=1e-9)


def _decimal_root(residual, hi, iters=200):
    """Root in [0, hi] of an increasing residual, bisected in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(0), Decimal(hi)
        for _ in range(iters):
            mid = (lo + hi) / 2
            if residual(mid) > 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


_LAMS = np.geomspace(1e-6, 50.0, 9)
_NS = np.geomspace(1e-10, 1e6, 17)


@pytest.mark.parametrize("P_s", [0.5, 1.0, 2.0])
def test_radial_prox_matches_decimal_root(P_s):
    """|prox| solves x + lam Ps x / (Ps - x) = n, clipped to the domain margin."""
    spec = LogSaturationRadial(P_s)
    clip = P_s * (1.0 - DOMAIN_MARGIN)
    Ps = Decimal(P_s)
    for lam in _LAMS:
        lam_d = Decimal(float(lam))
        got = np.abs(spec.prox(lam, _NS[:, None])[:, 0])
        for n, x in zip(_NS, got):
            n_d = Decimal(float(n))
            ref = _decimal_root(lambda t: t + lam_d * Ps * t / (Ps - t) - n_d,
                                min(n, P_s))
            ref = min(ref, clip)
            assert abs(x - ref) <= 1e-13 * ref, (lam, n, x, ref)


@pytest.mark.parametrize("c", [0.3, 1.0, 4.0])
def test_power_law_p3_prox_matches_decimal_root(c):
    """|prox| solves x + 3 lam c x^2 = n."""
    spec = PowerLaw(c, 3.0)
    c_d = Decimal(c)
    for lam in _LAMS:
        lam_d = Decimal(float(lam))
        got = np.abs(spec.prox(lam, _NS[:, None])[:, 0])
        for n, x in zip(_NS, got):
            n_d = Decimal(float(n))
            ref = _decimal_root(lambda t: t + 3 * lam_d * c_d * t * t - n_d, n)
            assert abs(x - ref) <= 1e-13 * ref, (lam, n, x, ref)


@pytest.mark.parametrize("c", [0.3, 1.0, 4.0])
def test_power_law_newton_prox_matches_decimal_root(c):
    """|prox| solves x + 4.5 lam c x^3.5 = n to 1e-12 relative, n >= 1e-10."""
    spec = PowerLaw(c, 4.5)
    for lam in _LAMS:
        cp = Decimal(float(lam)) * Decimal(c) * Decimal("4.5")
        got = np.abs(spec.prox(lam, _NS[:, None])[:, 0])
        for n, x in zip(_NS, got):
            n_d = Decimal(float(n))
            ref = _decimal_root(lambda t: t + cp * t * t * t * t.sqrt() - n_d, n)
            assert abs(x - ref) <= 1e-12 * ref, (lam, n, x, ref)


@pytest.mark.parametrize("P_s, a", [(0.5, [1.0, 0.0]), (1.0, [0.0, -1.0]),
                                    (2.0, [1.0, 0.0])])
def test_directional_prox_matches_decimal_root(P_s, a):
    """Along a, the prox solves x + lam artanh(x / Ps) = n to 1e-12
    relative, clipped to the domain margin, for n >= 1e-10."""
    spec = LogSaturationDirectional(P_s, a)
    clip = P_s * (1.0 - DOMAIN_MARGIN)
    Ps = Decimal(P_s)
    for lam in _LAMS:
        lam_d = Decimal(float(lam))
        got = spec.prox(lam, _NS[:, None] * spec.a) @ spec.a
        for n, x in zip(_NS, got):
            n_d = Decimal(float(n))

            def res(t):
                return t + lam_d * ((Ps + t) / (Ps - t)).ln() / 2 - n_d

            ref = min(_decimal_root(res, min(n, clip)), clip)
            assert abs(x - ref) <= 1e-12 * ref, (lam, n, x, ref)


@pytest.mark.parametrize("a", [[1.0, 1.0], [0.6, -0.8]], ids=["diagonal", "oblique"])
def test_directional_prox_stays_in_domain_for_huge_arguments(a):
    """The rounding of v - (v, a) a leaves a component along a of order
    eps |v|; the prox removes it, so it stays in the slab for |v| to 1e15."""
    spec = LogSaturationDirectional(1.0, a)
    perp = np.array([-spec.a[1], spec.a[0]])
    for s in (1e6, 1e7, 1e9, 1e12, 1e15):
        for v in (s * spec.a, -s * spec.a, s * spec.a + 3.0 * perp):
            assert spec.contains(spec.prox(0.5, v)), (s, v)


def _mixed_scale_batch(rng, rows=128, dim=2):
    """Rows spanning 1e-8 .. 1e6 in norm, and one lam in 1e-6 .. 50."""
    scale = 10.0 ** rng.uniform(-8.0, 6.0, rows)
    v = rng.standard_normal((rows, dim)) * scale[:, None]
    lam = float(10.0 ** rng.uniform(-6.0, np.log10(50.0)))
    return lam, v


@pytest.mark.parametrize("spec", [
    LogSaturationDirectional(1.0, [1.0, 1.0]),
    PowerLaw(1.0, 4.5),
], ids=["directional", "power_p4.5"])
def test_newton_prox_mixed_scale_batches(spec):
    """A batch solves when every row solves alone, each row to its own stop."""
    rng = np.random.default_rng(2024)
    for _ in range(5):
        lam, v = _mixed_scale_batch(rng)
        batch = spec.prox(lam, v)
        rows = np.stack([spec.prox(lam, row) for row in v])
        assert np.all(np.isfinite(batch))
        assert np.allclose(batch, rows, rtol=1e-12, atol=1e-13)


_PROX_FAMILIES = [
    PowerLaw(0.7, 2.0), PowerLaw(0.7, 3.0), PowerLaw(0.7, 4.5),
    BallIndicator(0.6), Quadratic(np.diag([0.5, 3.0])),
    LogSaturationRadial(1.3), LogSaturationDirectional(1.3, [0.6, -0.8]),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_prox_property_mixed_scales(seed):
    """On mixed-scale batches every prox is defined, in the domain, nonexpansive.

    The nonexpansiveness slack covers the relative Newton stop of each of
    the two evaluations.
    """
    rng = np.random.default_rng(seed)
    lam, u = _mixed_scale_batch(rng)
    v = u + rng.standard_normal(u.shape) * np.linalg.norm(u, axis=-1)[:, None]
    for spec in _PROX_FAMILIES:
        pu, pv = spec.prox(lam, u), spec.prox(lam, v)
        assert np.all(spec.contains(pu)) and np.all(spec.contains(pv))
        dist = np.linalg.norm(pu - pv, axis=-1)
        bound = np.linalg.norm(u - v, axis=-1)
        slack = 1e-12 * (bound + np.maximum(1.0, np.maximum(
            np.linalg.norm(pu, axis=-1), np.linalg.norm(pv, axis=-1))))
        assert np.all(dist <= bound + slack), spec.family


def test_ball_prox_is_projection():
    spec = BallIndicator(0.5)
    v = np.array([3.0, 4.0])
    p = spec.prox(0.7, v)
    assert np.allclose(p, 0.5 * v / 5.0, atol=1e-15)
    inside = np.array([0.1, -0.2])
    assert np.allclose(spec.prox(2.0, inside), inside)


def test_flow_rule_projection_and_violation():
    """A power law is finite everywhere: identity projection, no violation.
    The ball projects radially onto its sphere; the violation is |w| - kappa."""
    w = np.array([[3.0, 4.0], [0.1, -0.2]])
    power = PowerLaw(1.0, 3.0)
    assert np.array_equal(power.project(w), w)
    assert np.array_equal(power.violation(w), [0.0, 0.0])
    ball = BallIndicator(0.5)
    assert np.allclose(ball.project(w), [[0.3, 0.4], [0.1, -0.2]], atol=1e-15)
    assert np.allclose(ball.violation(w), [4.5, 0.0], atol=1e-15)


def test_ledger_exponents():
    """The ledger exponent p and its conjugate p/(p-1), per dissipation family;
    the ball's ledger p* is not the growth exponent of its conjugate."""
    assert (PowerLaw(1.0, 3.0).p, PowerLaw(1.0, 3.0).p_star) == (3.0, 1.5)
    ball = BallIndicator(0.5)
    assert (ball.p, ball.p_star) == (2.0, 2.0)
    assert ball.growth_constants["p_star"] == 1.0


def test_moreau_identity():
    """prox_{lam g}(v) + lam prox_{g*/lam}(v/lam) = v for both g families."""
    rng = np.random.default_rng(8)
    for spec in (PowerLaw(1.0, 2.0), PowerLaw(0.6, 3.0), BallIndicator(0.9)):
        for _ in range(50):
            v = rng.uniform(-2.0, 2.0, 3)
            lam = float(rng.uniform(0.1, 3.0))
            lhs = spec.prox(lam, v) + lam * spec.conjugate_prox(1.0 / lam, v / lam)
            assert np.linalg.norm(lhs - v) <= 1e-9


def test_conjugate_vs_sup_grid():
    """g*(w) >= <w, v> - g(v) on a dense grid, with near-equality at the max."""
    rng = np.random.default_rng(12)
    grid_1d = np.linspace(-6.0, 6.0, 241)
    vx, vy = np.meshgrid(grid_1d, grid_1d)
    pts = np.stack([vx.ravel(), vy.ravel()], axis=-1)
    for spec in (PowerLaw(1.0, 2.0), PowerLaw(0.8, 2.5), BallIndicator(1.2)):
        vals = spec.value(pts)
        for _ in range(5):
            w = rng.uniform(-2.0, 2.0, 2)
            lower = np.max(pts @ w - vals)
            conj = float(spec.conjugate_value(w))
            assert conj >= lower - 1e-9
            assert conj <= lower + 0.3  # grid resolution slack


def test_fenchel_residual_nonnegative_and_tight():
    rng = np.random.default_rng(4)
    for spec in (PowerLaw(1.0, 2.0), BallIndicator(0.7)):
        for _ in range(100):
            w = rng.uniform(-0.6, 0.6, 2)
            v = rng.uniform(-2.0, 2.0, 2)
            res = float(fenchel_residual(spec, v, w))
            if np.isfinite(res):
                assert res >= -1e-12
        # tight when v is a subgradient at w
        w = rng.uniform(-0.5, 0.5, 2)
        if isinstance(spec, PowerLaw):
            v = spec.grad(w)
            assert float(fenchel_residual(spec, v, w)) <= 1e-12


def test_quadratic_prox_closed_form():
    H = np.diag([1.0, 4.0])
    spec = Quadratic(H)
    v = np.array([2.0, 2.0])
    lam = 0.5
    expected = np.array([2.0 / 1.5, 2.0 / 3.0])
    assert np.allclose(spec.prox(lam, v), expected, atol=1e-14)


def test_full_lifting_splits_blocks():
    spec = LogSaturationRadial(1.0)
    z = np.array([[0.3, 0.2]])  # d = 1: one strain entry, P block = last entry
    s_dim = 1
    assert float(full_value(spec, z)[0]) == pytest.approx(
        float(spec.value(np.array([0.2]))))
    g = full_grad(spec, z)
    assert np.all(g[0, :s_dim] == 0.0)
    p = full_prox(spec, 0.5, z)
    assert np.allclose(p[0, :s_dim], z[0, :s_dim])
    assert full_contains(spec, z).all()
    zbad = np.array([[0.0, 1.5]])
    assert not full_contains(spec, zbad).any()


def test_full_lifting_takes_P_as_the_last_three_entries_in_3d():
    """A 3-D z has k = 9 entries: six of packed strain r, then three of P."""
    spec = LogSaturationRadial(1.0)
    z = 0.3 * np.random.default_rng(4).uniform(-1.0, 1.0, (5, 9))
    g = full_grad(spec, z)
    assert np.all(g[:, :6] == 0.0)
    assert np.array_equal(g[:, 6:], spec.grad(z[:, 6:]))
    p = full_prox(spec, 0.5, z)
    assert np.array_equal(p[:, :6], z[:, :6])
    assert np.array_equal(p[:, 6:], spec.prox(0.5, z[:, 6:]))
    assert np.array_equal(full_value(spec, z), spec.value(z[:, 6:]))
