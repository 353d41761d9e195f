"""Implicit dyadic time discretization of the reduced evolution inclusion.

Each step solves the strictly convex problem

    minimize_v  h g*((v - z_prev)/h) + 1/2 <M_m v, v> + I_f(v) - <z_hat, v>

whose optimality condition is exactly the discrete flow rule
(z - z_prev)/h in  dI_g(Sigma) with Sigma = -M_m z - grad f(z) + z_hat and
M_m = M + L + (1/m) I.  The step is solved by a three-operator splitting
(prox of the rate term, prox of the remanent energy, gradient of the
quadratic); the stopping rule is the integrated Young-Fenchel residual of
the inclusion, so "this step is solved" is a convex-duality certificate,
not an iterate-distance heuristic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, StepSolveFailure
from .potentials import fenchel_residual, full_contains, full_grad, full_prox, full_value

#: iterations between two certificate checks of a step
CHECK_EVERY = 10
#: consecutive certificate checks without a new best certificate, at a
#: converged fixed point, after which a step is declared hopeless
STALL_CHECKS = 50


@dataclass(frozen=True)
class TimeGrid:
    """Dyadic time grid: 2^level steps of size T / 2^level."""

    T: float
    level: int

    @property
    def n_steps(self):
        return 2 ** self.level

    @property
    def h(self):
        return self.T / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


def _pw_linear_interp(ts, vs, t):
    """Evaluate the piecewise-linear interpolant of samples (ts, vs) at t."""
    t = float(np.clip(t, ts[0], ts[-1]))
    i = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * vs[i] + w * vs[i + 1]


def _pw_linear_average(ts, vs, a, b):
    """Exact average of the piecewise-linear interpolant over [a, b]."""
    inner = ts[(ts > a) & (ts < b)]
    pts = np.concatenate([[a], inner, [b]])
    vals = np.stack([_pw_linear_interp(ts, vs, t) for t in pts])
    dt = np.diff(pts)
    shape = (-1,) + (1,) * (vals.ndim - 1)
    integral = np.sum(0.5 * (vals[:-1] + vals[1:]) * dt.reshape(shape), axis=0)
    return integral / (b - a)


class LoadSchedule:
    """Time-sampled body force and charge tables, piecewise linear in time."""

    def __init__(self, times, b, q):
        self.times = np.asarray(times, dtype=float)
        self.b = np.asarray(b, dtype=float)      # (nt, n_cells, d)
        self.q = np.asarray(q, dtype=float)      # (nt, n_cells)
        if self.times.ndim != 1 or len(self.times) < 1:
            raise ValueError("need at least one load sample")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("load sample times must be strictly increasing")

    @classmethod
    def uniform(cls, times, b_rows, q_rows, grid):
        """Spatially uniform loads from per-time rows."""
        nt = len(times)
        b = np.broadcast_to(
            np.asarray(b_rows, dtype=float)[:, None, :], (nt, grid.n_cells, grid.dim)
        ).copy()
        q = np.broadcast_to(
            np.asarray(q_rows, dtype=float)[:, None], (nt, grid.n_cells)
        ).copy()
        return cls(times, b, q)

    def at(self, t):
        return _pw_linear_interp(self.times, self.b, t), _pw_linear_interp(self.times, self.q, t)

    def step_averages(self, time_grid):
        """Per-step exact averages of (b, q); exact for piecewise-linear loads."""
        h = time_grid.h
        bs, qs = [], []
        for n in range(1, time_grid.n_steps + 1):
            a, b_end = (n - 1) * h, n * h
            bs.append(_pw_linear_average(self.times, self.b, a, b_end))
            qs.append(_pw_linear_average(self.times, self.q, a, b_end))
        return np.stack(bs), np.stack(qs)


def average_loads(system, schedule, time_grid):
    """Step-averaged load traces z_hat^n (n_steps, n_cells, k).

    The load trace is linear in (b, q), so averaging the loads first and
    solving once per step is exact.
    """
    b_avg, q_avg = schedule.step_averages(time_grid)
    return np.stack([system.load_trace(b_avg[n], q_avg[n])
                     for n in range(time_grid.n_steps)])


@dataclass
class StepCertificate:
    """Convergence evidence for one accepted step."""

    residual: float          # integrated Young-Fenchel gap
    constraint_violation: float  # distance of Sigma to the domain of g
    fixed_point_gap: float
    iterations: int


@dataclass
class EnergyLedger:
    """Per-step energy bookkeeping backing the discrete a-priori estimate."""

    h: float
    p_star: float                  # exponent of the rate norm
    dissipation: np.ndarray        # <rate, Sigma> integrated over the domain
    Ig_star_rate: np.ndarray
    Ig_Sigma: np.ndarray
    rate_norm: np.ndarray          # |rate|_{p*, Omega}
    zhat_norm: np.ndarray          # |z_hat^n|_{p, Omega}
    quad_energy: np.ndarray        # 1/2 <(M+L) z^l, z^l> + reg/2 |z^l|^2, l = 0..N
    If_energy: np.ndarray          # I_f(z^l), l = 0..N

    def slack(self):
        """RHS - LHS of the summed discrete energy inequality at every l."""
        n = len(self.dissipation)
        lhs_running = np.cumsum(self.h * (self.Ig_star_rate + self.Ig_Sigma))
        lhs = lhs_running + self.quad_energy[1:] + self.If_energy[1:]
        work = np.cumsum(self.h * self.rate_norm * self.zhat_norm)
        rhs = self.quad_energy[0] + self.If_energy[0] + work
        return rhs - lhs


class Trajectory:
    """Rothe node values with affine / constant interpolant accessors."""

    def __init__(self, time_grid, z_nodes, Sigma, sigma_E, certificates, zhat):
        self.time_grid = time_grid
        self.z_nodes = z_nodes          # (N+1, n_cells, k)
        self.Sigma = Sigma              # (N, n_cells, k)
        self.sigma_E = sigma_E          # (N, n_cells, k): (stress, E) per step
        self.certificates = certificates
        self.zhat = zhat                # (N, n_cells, k)

    @property
    def rates(self):
        return np.diff(self.z_nodes, axis=0) / self.time_grid.h

    def z_affine(self, t):
        h = self.time_grid.h
        n = int(np.clip(np.ceil(t / h - 1e-12), 1, self.time_grid.n_steps))
        w = t / h - (n - 1)
        return (1.0 - w) * self.z_nodes[n - 1] + w * self.z_nodes[n]

    def z_const(self, t):
        h = self.time_grid.h
        if t <= 0.0:
            return self.z_nodes[0]
        n = int(np.clip(np.ceil(t / h - 1e-12), 1, self.time_grid.n_steps))
        return self.z_nodes[n]


class SteppedProblem:
    """One dyadic level of the discretized evolution on a fixed grid."""

    def __init__(self, system, f_spec, g_spec, level, T, reg_weight=None):
        self.system = system
        self.f = f_spec
        self.g = g_spec
        self.level = int(level)
        if self.level < 1:
            raise ValueError("level must be >= 1")
        self.T = float(T)
        self.time_grid = TimeGrid(T=self.T, level=self.level)
        self.h = self.time_grid.h
        # the regularization follows the dyadic level unless overridden
        self.reg = (1.0 / self.level) if reg_weight is None else float(reg_weight)
        grid = system.grid
        self.s = grid.strain_dim
        self.vol = grid.volumes
        self.L = system.tensors.L_hard

        self.lam_max = self._lam_max_bound()
        self.gamma = 0.9 / self.lam_max

    # -- operator ------------------------------------------------------

    def apply_M(self, z):
        return self.system.apply_M(z)

    def apply_Mm(self, z):
        return self.apply_M(z) + z @ self.L.T + self.reg * z

    def _lam_max_bound(self):
        """Upper bound lambda_max(D) + lambda_max(L) + reg on the spectrum of M_m.

        I - Q is the D-orthogonal projection, so <M z, z> = |(I - Q) z|_D^2
        <= |z|_D^2 <= lambda_max(D) |z|^2.
        """
        lam_D = np.linalg.eigvalsh(self.system.block_D.matrix).max()
        lam_L = np.linalg.eigvalsh(self.L).max()
        return float(lam_D + lam_L + self.reg)

    # -- inner products -------------------------------------------------

    def _dot(self, a, b):
        return float(np.sum(self.vol[:, None] * a * b))

    def _p_norm(self, a, p):
        mag = np.sqrt(np.sum(a * a, axis=-1))
        if np.isinf(p):
            return float(mag.max(initial=0.0))
        return float(np.sum(self.vol * mag ** p) ** (1.0 / p))

    # -- certificate ----------------------------------------------------

    def residual_parts(self, z, rate, zhat, Mm_z=None):
        """Sigma, integrated Young-Fenchel residual and violation at z.

        The residual is taken at the flow-rule projection of Sigma onto the
        domain of g, plus the pairing of the rate with the projection's move;
        the violation is the largest distance of Sigma to that domain.
        ``Mm_z`` is M_m z when the caller already has it.
        """
        if Mm_z is None:
            Mm_z = self.apply_Mm(z)
        Sigma = -Mm_z - full_grad(self.f, z, self.s) + zhat
        viol = float(self.g.violation(Sigma).max(initial=0.0))
        Sigma_in = self.g.project(Sigma)
        resid = fenchel_residual(self.g, rate, Sigma_in)
        resid = resid + np.sum(rate * (Sigma_in - Sigma), axis=-1)
        total = float(np.sum(self.vol * np.maximum(resid, 0.0)))
        return Sigma, total, viol

    def rounding_floor(self, rate, Sigma):
        """eps * sum vol (|g(project(Sigma))| + |g*(rate)| + |<rate, Sigma>|).

        The roundoff level of the integrated Young-Fenchel residual: a
        certificate tolerance below it cannot be met.
        """
        terms = (np.abs(self.g.value(self.g.project(Sigma)))
                 + np.abs(self.g.conjugate_value(rate))
                 + np.abs(np.sum(rate * Sigma, axis=-1)))
        return float(np.finfo(float).eps * np.sum(self.vol * terms))

    # -- single step -----------------------------------------------------

    def step(self, z_prev, zhat, step_tol=1e-6, fp_tol=1e-10, max_iter=100000,
             y0=None):
        """Solve one implicit step; returns (z, Sigma, certificate).

        Davis-Yin three-operator splitting: the remanent energy enters by its
        prox (which keeps iterates strictly inside its domain), the rate term
        by the prox of its conjugate, the quadratic by plain gradient steps.
        A non-finite certificate or fixed-point gap fails the step at once;
        so does a converged fixed point (gap <= fp_tol) whose best
        certificate has not fallen for STALL_CHECKS consecutive checks.
        """
        z_prev = np.asarray(z_prev, dtype=float)
        if not np.all(full_contains(self.f, z_prev, self.s)):
            raise DomainEscape("previous state left the domain of the remanent energy")
        gam = self.gamma
        y = z_prev.copy() if y0 is None else np.asarray(y0, dtype=float).copy()
        best, stalled = np.inf, 0
        for it in range(1, max_iter + 1):
            xB = full_prox(self.f, gam, y, self.s)
            Mm_xB = self.apply_Mm(xB)
            grad = Mm_xB - zhat
            w = 2.0 * xB - y - gam * grad
            u = self.g.conjugate_prox(gam / self.h, (w - z_prev) / self.h)
            xA = z_prev + self.h * u
            delta = xA - xB
            y += delta
            if it % CHECK_EVERY == 0 or it == max_iter:
                fp = float(np.abs(delta).max(initial=0.0))
                rate = (xB - z_prev) / self.h
                Sigma, resid, viol = self.residual_parts(xB, rate, zhat, Mm_xB)
                if not (np.isfinite(resid) and np.isfinite(fp)):
                    break
                if resid <= step_tol and fp <= fp_tol:
                    return xB, Sigma, StepCertificate(resid, viol, fp, it)
                if resid < best:
                    best, stalled = resid, 0
                else:
                    stalled += 1
                if stalled >= STALL_CHECKS and fp <= fp_tol:
                    break
        raise StepSolveFailure(-1, resid, fp, self.rounding_floor(rate, Sigma))

    # -- full run --------------------------------------------------------

    def run(self, z0, zhat_steps, step_tol=1e-6, fp_tol=1e-10, max_iter=100000):
        """March all 2^level steps; returns (Trajectory, EnergyLedger)."""
        tg = self.time_grid
        z0 = np.asarray(z0, dtype=float)
        if not np.all(full_contains(self.f, z0, self.s)):
            raise DomainEscape("initial state outside the domain of the remanent energy")
        N = tg.n_steps
        z_nodes = np.empty((N + 1,) + z0.shape)
        z_nodes[0] = z0
        Sigmas = np.empty((N,) + z0.shape)
        sigma_E = np.empty((N,) + z0.shape)
        certs = []

        p, p_star = self.g.p, self.g.p_star
        ML0 = self.apply_M(z0) + z0 @ self.L.T
        quad = [0.5 * self._dot(ML0, z0) + 0.5 * self.reg * self._dot(z0, z0)]
        If_e = [self._integral_f(z0)]
        diss, igs, ig, rn, zn = [], [], [], [], []

        y_warm = None
        for n in range(N):
            try:
                z, Sigma, cert = self.step(
                    z_nodes[n], zhat_steps[n], step_tol=step_tol,
                    fp_tol=fp_tol, max_iter=max_iter, y0=y_warm)
            except StepSolveFailure as exc:
                raise StepSolveFailure(n + 1, exc.certificate, exc.fixed_point_gap,
                                       exc.rounding_floor) from exc
            z_nodes[n + 1] = z
            Sigmas[n] = Sigma
            Mz = self.apply_M(z)
            sigma_E[n] = -Mz + zhat_steps[n]
            certs.append(cert)
            y_warm = z.copy()

            rate = (z - z_nodes[n]) / self.h
            diss.append(self._dot(rate, Sigma))
            igs.append(float(np.sum(self.vol * self.g.conjugate_value(rate))))
            # g at the projection: Sigma meets the domain of g to the step tolerance
            ig.append(float(np.sum(self.vol * self.g.value(self.g.project(Sigma)))))
            rn.append(self._p_norm(rate, p_star))
            zn.append(self._p_norm(zhat_steps[n], p))
            MLz = Mz + z @ self.L.T
            quad.append(0.5 * self._dot(MLz, z) + 0.5 * self.reg * self._dot(z, z))
            If_e.append(self._integral_f(z))

        ledger = EnergyLedger(
            h=self.h, p_star=p_star,
            dissipation=np.asarray(diss), Ig_star_rate=np.asarray(igs),
            Ig_Sigma=np.asarray(ig), rate_norm=np.asarray(rn),
            zhat_norm=np.asarray(zn), quad_energy=np.asarray(quad),
            If_energy=np.asarray(If_e),
        )
        traj = Trajectory(tg, z_nodes, Sigmas, sigma_E, certs, np.asarray(zhat_steps))
        return traj, ledger

    def _integral_f(self, z):
        vals = full_value(self.f, z, self.s)
        return float(np.sum(self.vol * vals))


def energy_report(ledger):
    """Slack of the discrete a-priori inequality plus boundedness sequences."""
    slack = ledger.slack()
    lhs_partial = np.cumsum(ledger.h * (ledger.Ig_star_rate + ledger.Ig_Sigma))
    return {
        "slack": slack,
        "dissipation": ledger.dissipation,
        "partial_sums": lhs_partial,
        "rate_pstar_norm": np.sum(ledger.h * ledger.rate_norm ** ledger.p_star)
        ** (1.0 / ledger.p_star),
        "sup_quad_energy": float(ledger.quad_energy.max()),
        "sup_If": float(ledger.If_energy.max()),
    }


def interpolant_gap(traj, volumes, p_star=2.0, n_quad=24):
    """Both sides of the affine-vs-constant interpolant gap identity.

    Left side: the space-time p*-norm of z_affine - z_const, with the time
    integral per step done by Gauss quadrature (independent of the closed
    form).  Right side: h^{p*}/(p*+1) times the p*-norm of the discrete rate.
    """
    h = traj.time_grid.h
    vols = np.asarray(volumes, dtype=float)
    # spatial p*-integral of the per-step jump
    jumps = np.diff(traj.z_nodes, axis=0)                      # (N, nc, k)
    mag = np.sqrt(np.sum(jumps ** 2, axis=-1))                 # (N, nc)
    space = np.sum(vols * mag ** p_star, axis=-1)              # (N,)
    xs, ws = np.polynomial.legendre.leggauss(n_quad)
    # integral over one step of ((nh - t)/h)^{p*}
    t = 0.5 * (xs + 1.0)
    time_factor = 0.5 * np.sum(ws * (1.0 - t) ** p_star) * h
    lhs = float(np.sum(space) * time_factor)
    rates = jumps / h
    mag_r = np.sqrt(np.sum(rates ** 2, axis=-1))
    rhs = (h ** p_star / (p_star + 1.0)) * float(
        np.sum(h * np.sum(vols * mag_r ** p_star, axis=-1)))
    return lhs, rhs
