"""Constitutive potentials: evaluation, gradients, conjugates, prox maps.

Two families play the role of the dissipation potential g (a power of the
norm for rate-dependent response, the indicator of a centered ball for
rate-independent response) and three families play the role of the remanent
energy f (a quadratic, and two logarithmic saturation energies whose domain
is bounded in the polarization variable).

Prox maps are closed forms for the quadratic, the power law with p = 2 and
p = 3, the radial log-saturation energy and the ball indicator.  The
directional log-saturation energy and power laws with other p use a
vectorized safeguarded Newton/bisection solve in which every component stops
on its own.

All operations are vectorized over leading axes; the potential argument
always lives on the last axis.  Extended-real values are represented with
``np.inf``; an infinite value is data, not an error.
"""

import numpy as np

from .errors import NoConvergence, OutsideDomain, UnsupportedFamily
from .packing import space_dim
from .tensors import _check_spd

#: relative margin kept between iterates and a bounded-domain boundary
DOMAIN_MARGIN = 1e-9

_MAX_NEWTON = 200


def _norm(v):
    return np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))


def _solve_monotone(residual, lo, hi):
    """Vectorized safeguarded Newton/bisection for increasing residuals.

    Finds x in [lo, hi] with residual(x)[0] = 0; ``residual`` returns
    (value, derivative).  Falls back to bisection whenever the Newton
    candidate leaves the bracket.  Each component stops, and stays frozen,
    as soon as its residual vanishes relative to the initial bracket (the
    scale of the residual's terms) or its bracket is narrow relative to the
    iterate, so roots of any magnitude are resolved to relative accuracy.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    x = 0.5 * (lo + hi)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_NEWTON):
        val, der = residual(x)
        done = np.abs(val) <= 1e-15 * scale
        hi = np.where(val > 0.0, x, hi)
        lo = np.where(val <= 0.0, x, lo)
        narrow = hi - lo <= 1e-13 * np.abs(x)
        active &= ~(done | narrow)
        if not active.any():
            return x
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - val / der
        inside = (newton > lo) & (newton < hi)
        x = np.where(active, np.where(inside, newton, 0.5 * (lo + hi)), x)
    raise NoConvergence("1-d prox solve exceeded iteration budget")


class PotentialSpec:
    """Base class for all potential families.

    Subclasses set ``family`` and ``acts_on`` ("full" for functions of the
    whole internal variable, "P" for functions of the polarization block
    only) and fill ``growth_constants`` (plain floats) where closed forms
    exist.  A dissipation family also sets ``p`` and, when its domain is
    bounded, overrides ``project`` and ``violation``.
    """

    family = "abstract"
    acts_on = "full"
    #: quadratic lower bound on the active block (a1 > 0 in the growth data)
    coercive = False
    #: a dissipation family positively homogeneous of degree one, whose
    #: flow has existence only under definite hardening
    rate_independent = False
    #: ledger exponent of a dissipation family: the energy ledger measures
    #: load traces in L^p and rates in L^{p*}
    p = None

    def __init__(self):
        self.growth_constants = {}

    def value(self, v):
        raise NotImplementedError

    def grad(self, v):
        raise UnsupportedFamily(f"{self.family} has no single-valued gradient")

    def prox(self, lam, v):
        raise NotImplementedError

    def conjugate_value(self, w):
        raise UnsupportedFamily(f"conjugate of {self.family} is not provided")

    def conjugate_prox(self, lam, w):
        """Prox of the conjugate via the Moreau identity."""
        w = np.asarray(w, dtype=float)
        return w - lam * self.prox(1.0 / lam, w / lam)

    def contains(self, v):
        """Whether v lies in the effective domain."""
        return np.ones(np.asarray(v).shape[:-1], dtype=bool)

    # -- dissipation potentials ----------------------------------------

    @property
    def p_star(self):
        """Conjugate ledger exponent p/(p-1)."""
        return self.p / (self.p - 1.0)

    def project(self, w):
        """Flow-rule projection of a driving force onto the domain of g.

        The certificate and the weak inequality evaluate g at project(w) and
        charge <rate, project(w) - w> for the move; the identity for a g
        that is finite everywhere.
        """
        return w

    def violation(self, w):
        """Distance of w to the domain of g (zero where g is finite everywhere)."""
        return np.zeros(np.shape(w)[:-1])


class PowerLaw(PotentialSpec):
    """g(v) = c |v|^p with p >= 2; the reference rate-dependent potential."""

    family = "power_law"

    def __init__(self, c=1.0, p=2.0):
        super().__init__()
        if not p >= 2.0:
            raise ValueError(f"power-law exponent p must be >= 2, got {p}")
        if not c > 0.0:
            raise ValueError(f"power-law coefficient c must be positive, got {c}")
        self.c = float(c)
        self.p = float(p)
        # conjugate is k* |w|^{p*}
        self.conj_coeff = (1.0 / self.p_star) * (c * p) ** (1.0 / (1.0 - p))
        self.growth_constants = {
            "c1": self.c, "c2": 0.0, "c3": self.c, "c4": 0.0,
            "d1": float(self.conj_coeff), "d2": 0.0, "p": self.p,
        }

    def value(self, v):
        return self.c * _norm(v) ** self.p

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        n = _norm(v)
        fac = self.c * self.p * np.where(n > 0.0, n, 1.0) ** (self.p - 2.0)
        return fac[..., None] * v

    def conjugate_value(self, w):
        return self.conj_coeff * _norm(w) ** self.p_star

    def prox(self, lam, v):
        v = np.asarray(v, dtype=float)
        n = _norm(v)
        if self.p == 2.0:
            rho = n / (1.0 + 2.0 * lam * self.c)
        elif self.p == 3.0:
            # positive root of x + 3 lam c x^2 = n, written without cancellation
            rho = 2.0 * n / (1.0 + np.sqrt(1.0 + 12.0 * lam * self.c * n))
        else:
            cp = lam * self.c * self.p

            def res(x):
                return x + cp * x ** (self.p - 1.0) - n, 1.0 + cp * (self.p - 1.0) * x ** (self.p - 2.0)

            rho = _solve_monotone(res, np.zeros_like(n), n)
        scale = np.where(n > 0.0, rho / np.where(n > 0.0, n, 1.0), 0.0)
        return scale[..., None] * v


class BallIndicator(PotentialSpec):
    """Indicator of the centered ball of radius kappa (rate-independent g)."""

    family = "ball_indicator"
    rate_independent = True
    p = 2.0

    def __init__(self, kappa):
        super().__init__()
        if not kappa > 0.0:
            raise ValueError(f"ball radius kappa must be positive, got {kappa}")
        self.kappa = float(kappa)
        # growth_constants["p_star"] is the growth of g*, not the ledger's p*
        self.growth_constants = {"kappa": self.kappa, "d1": self.kappa, "d2": 0.0, "p_star": 1.0}

    def value(self, v):
        n = _norm(v)
        return np.where(n <= self.kappa * (1.0 + 1e-12), 0.0, np.inf)

    def conjugate_value(self, w):
        # support function of the ball
        return self.kappa * _norm(w)

    def prox(self, lam, v):
        # independent of lam
        return self.project(v)

    def project(self, w):
        """Metric projection onto the ball."""
        w = np.asarray(w, dtype=float)
        n = _norm(w)
        scale = np.where(n > self.kappa, self.kappa / np.where(n > 0.0, n, 1.0), 1.0)
        return scale[..., None] * w

    def conjugate_prox(self, lam, w):
        # shrinkage for the support function
        w = np.asarray(w, dtype=float)
        n = _norm(w)
        scale = np.maximum(0.0, 1.0 - lam * self.kappa / np.where(n > 0.0, n, 1.0))
        return scale[..., None] * w

    def violation(self, w):
        return np.maximum(0.0, _norm(w) - self.kappa)

    def contains(self, v):
        return _norm(v) <= self.kappa * (1.0 + 1e-12)


class Quadratic(PotentialSpec):
    """f(z) = 0.5 <H z, z> with H symmetric positive semi-definite."""

    family = "quadratic"

    def __init__(self, H):
        super().__init__()
        H = np.asarray(H, dtype=float)
        if H.ndim == 0:
            raise ValueError("Quadratic needs an explicit matrix; scale an identity")
        if H.ndim == 1:
            H = np.diag(H)
        self.H = H
        (self._w, self._V), self.coercive = _check_spd(H, "H", semidefinite=True,
                                                       vectors=True)
        self.growth_constants = {"b1": 0.5 * max(float(self._w.min()), 0.0),
                                 "b2": 0.0, "p": 2.0}

    def value(self, v):
        v = np.asarray(v, dtype=float)
        return 0.5 * np.sum((v @ self.H.T) * v, axis=-1)

    def grad(self, v):
        return np.asarray(v, dtype=float) @ self.H.T

    def prox(self, lam, v):
        v = np.asarray(v, dtype=float)
        coeff = 1.0 / (1.0 + lam * self._w)
        return ((v @ self._V) * coeff) @ self._V.T


class LogSaturationRadial(PotentialSpec):
    """f(P) = -Ps^2 (ln(1 - |P|/Ps) + |P|/Ps) on the open ball |P| < Ps.

    Coercive: f(P) >= |P|^2 / 2 on its domain, so the unregularized
    existence regime applies.
    """

    family = "log_saturation_radial"
    acts_on = "P"
    coercive = True

    def __init__(self, P_s):
        super().__init__()
        if not P_s > 0.0:
            raise ValueError(f"saturation constant P_s must be positive, got {P_s}")
        self.P_s = float(P_s)
        self.growth_constants = {"a1": 0.5, "a2": 0.0}

    def value(self, v):
        s = _norm(v)
        t = s / self.P_s
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -self.P_s ** 2 * (np.log1p(-t) + t)
        return np.where(t < 1.0, val, np.inf)

    def grad(self, v):
        v = np.asarray(v, dtype=float)
        s = _norm(v)
        if np.any(s >= self.P_s * (1.0 - 1e-15)):
            worst = float(s.max())
            raise OutsideDomain(
                f"|P| = {worst:.6e} is not inside the saturation ball of radius {self.P_s}"
            )
        return (self.P_s / (self.P_s - s))[..., None] * v

    def prox(self, lam, v):
        v = np.asarray(v, dtype=float)
        n = _norm(v)
        Ps = self.P_s
        # x + lam Ps x / (Ps - x) = n  <=>  x^2 - b x + n Ps = 0 with
        # b = Ps (1 + lam) + n; the prox radius is the smaller root, taken in
        # the cancellation-free form 2 n Ps / (b + sqrt(b^2 - 4 n Ps)) with
        # b^2 - 4 n Ps = (Ps (1 + lam) - n)^2 + 4 lam n Ps, via hypot
        a = Ps * (1.0 + lam)
        root = np.hypot(a - n, 2.0 * np.sqrt(lam * n * Ps))
        rho = np.minimum(2.0 * Ps * (n / (a + n + root)), Ps * (1.0 - DOMAIN_MARGIN))
        scale = np.where(n > 0.0, rho / np.where(n > 0.0, n, 1.0), 0.0)
        return scale[..., None] * v

    def contains(self, v):
        return _norm(v) < self.P_s


class LogSaturationDirectional(PotentialSpec):
    """Directional saturation energy along a fixed unit direction a.

    f(P) = (Ps/2) [(1+t) ln(1+t) + (1-t) ln(1-t)] with t = (P, a)/Ps on the
    open slab |(P, a)| < Ps.  Not coercive: it vanishes on the hyperplane
    orthogonal to a, so the unregularized existence regime does not apply.
    """

    family = "log_saturation_directional"
    acts_on = "P"

    def __init__(self, P_s, a):
        super().__init__()
        if not P_s > 0.0:
            raise ValueError(f"saturation constant P_s must be positive, got {P_s}")
        a = np.asarray(a, dtype=float)
        n = np.linalg.norm(a)
        if n == 0.0:
            raise ValueError("direction a must be nonzero")
        self.P_s = float(P_s)
        self.a = a / n

    def _t(self, v):
        return np.asarray(v, dtype=float) @ self.a / self.P_s

    def value(self, v):
        t = self._t(v)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = 0.5 * self.P_s * ((1.0 + t) * np.log1p(t) + (1.0 - t) * np.log1p(-t))
        return np.where(np.abs(t) < 1.0, val, np.inf)

    def grad(self, v):
        t = self._t(v)
        if np.any(np.abs(t) >= 1.0 - 1e-15):
            raise OutsideDomain(
                f"|(P, a)| = {float(np.abs(t).max()) * self.P_s:.6e} reaches saturation {self.P_s}"
            )
        return np.arctanh(t)[..., None] * self.a

    def prox(self, lam, v):
        v = np.asarray(v, dtype=float)
        proj = v @ self.a
        Ps = self.P_s
        bound = Ps * (1.0 - DOMAIN_MARGIN)
        lo = np.maximum(-bound, np.minimum(proj, 0.0))
        hi = np.minimum(bound, np.maximum(proj, 0.0))

        def res(x):
            val = x + lam * np.arctanh(x / Ps) - proj
            der = 1.0 + lam / (Ps * (1.0 - (x / Ps) ** 2))
            return val, der

        rho = _solve_monotone(res, lo, hi)
        # not v + (rho - proj) a, which loses rho in the rounding of a large
        # proj; the rounding of v - proj a leaves a component along a of the
        # order of eps |proj|, so that component is removed a second time
        perp = v - proj[..., None] * self.a
        perp -= (perp @ self.a)[..., None] * self.a
        return perp + rho[..., None] * self.a

    def contains(self, v):
        return np.abs(self._t(v)) < 1.0


def fenchel_residual(g_spec, v, w):
    """Young-Fenchel gap g(w) + g*(v) - <v, w>, nonnegative up to roundoff.

    Zero (up to tolerance) exactly when v is a subgradient of g at w; this is
    the per-point certificate that a time step solved its inclusion.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return g_spec.value(w) + g_spec.conjugate_value(v) - np.sum(v * w, axis=-1)


# ---------------------------------------------------------------------------
# Lifting P-only families to z = (r, P), P being the last space_dim(k) of its k entries.

def full_value(spec, z):
    if spec.acts_on == "P":
        return spec.value(np.asarray(z)[..., -space_dim(np.shape(z)[-1]):])
    return spec.value(z)


def full_grad(spec, z):
    z = np.asarray(z, dtype=float)
    if spec.acts_on == "P":
        d = space_dim(z.shape[-1])
        out = np.zeros_like(z)
        out[..., -d:] = spec.grad(z[..., -d:])
        return out
    return spec.grad(z)


def full_prox(spec, lam, z):
    z = np.asarray(z, dtype=float)
    if spec.acts_on == "P":
        d = space_dim(z.shape[-1])
        out = z.copy()
        out[..., -d:] = spec.prox(lam, z[..., -d:])
        return out
    return spec.prox(lam, z)


def full_contains(spec, z):
    if spec.acts_on == "P":
        return spec.contains(np.asarray(z)[..., -space_dim(np.shape(z)[-1]):])
    return spec.contains(z)
