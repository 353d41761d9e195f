"""Implicit dyadic time discretization of the reduced evolution inclusion.

Each step solves the strictly convex problem

    minimize_v  h g*((v - z_prev)/h) + 1/2 <M_m v, v> + I_f(v) - <z_hat, v>

whose optimality condition is exactly the discrete flow rule
(z - z_prev)/h in  dI_g(Sigma) with Sigma = -M_m z - grad f(z) + z_hat and
M_m = M + L + (1/m) I.  The step is solved by Davis-Yin three-operator
splitting (prox of the rate term, prox of the remanent energy, gradient of
the quadratic) at the step gamma = 1.8 / bound, where the bound is at least
lambda_max(M_m); Davis and Yin (Set-Valued Var. Anal. 2017) allow any
gamma < 2 / lambda_max(M_m).  Type-II Anderson acceleration (memory
AA_MEMORY) extrapolates the splitting variable from its recent history and
restarts from the plain splitting step whenever the fixed-point residual
rises.  Every iteration forms the fixed-point gap max |xA - xB| that
Davis and Yin measure progress by; only when it is within its tolerance is
the integrated Young-Fenchel residual of the inclusion evaluated at the
current iterate, and the step stops at the first iterate that passes both.
So "this step is solved" is a convex-duality certificate, not an
iterate-distance heuristic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, StepSolveFailure
from .potentials import fenchel_residual, full_contains, full_grad, full_prox, full_value

#: consecutive certificate checks (each at a converged fixed-point gap)
#: without a new best certificate, after which a step is declared hopeless
STALL_CHECKS = 50
#: Anderson memory: how many past differences of the splitting variable and
#: of its fixed-point residual the accelerated step combines
AA_MEMORY = 5
#: ridge of the Anderson least-squares solve, relative to the Gram trace
AA_RIDGE = 1e-12


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
    """Loads uniform in space: one row (b_1..b_d, q) per sample time, linear in between."""

    def __init__(self, times, b, q):
        self.times = np.asarray(times, dtype=float)
        b, q = np.asarray(b, dtype=float), np.asarray(q, dtype=float)
        if self.times.ndim != 1 or len(self.times) < 2:
            raise ValueError("need at least two load samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("load sample times must be strictly increasing")
        if b.ndim != 2 or len(b) != len(self.times) or q.shape != self.times.shape:
            raise ValueError(f"need one load row per sample time: b of shape (nt, d) "
                             f"and q of shape (nt,) with nt = {len(self.times)}, "
                             f"got {b.shape} and {q.shape}")
        self.rows = np.column_stack([b, q])      # (nt, d + 1)

    def at(self, t):
        """The load row at time t, as (b of shape (d,), q of shape ())."""
        row = _pw_linear_interp(self.times, self.rows, t)
        return row[:-1], row[-1]

    def step_averages(self, time_grid):
        """Per-step exact averages of the rows, (n_steps, d + 1)."""
        h = time_grid.h
        return np.stack([_pw_linear_average(self.times, self.rows, (n - 1) * h, n * h)
                         for n in range(1, time_grid.n_steps + 1)])


def average_loads(system, schedule, time_grid):
    """Step-averaged load traces z_hat^n (n_steps, n_cells, k).

    The load trace is linear in the load row, so z_hat^n is the step-averaged
    row times the traces of the d + 1 unit rows: d + 1 solves, whatever the
    number of steps.
    """
    traces = np.stack([system.load_trace(unit[:-1], unit[-1])
                       for unit in np.eye(schedule.rows.shape[1])])
    return np.tensordot(schedule.step_averages(time_grid), traces, axes=1)


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
    dissipation: np.ndarray        # <rate, Sigma> integrated over the domain
    Ig_star_rate: np.ndarray
    Ig_Sigma: np.ndarray
    rate_norm: np.ndarray          # |rate|_{p*, Omega}
    zhat_norm: np.ndarray          # |z_hat^n|_{p, Omega}
    quad_energy: np.ndarray        # 1/2 <(M+L) z^l, z^l> + reg/2 |z^l|^2, l = 0..N
    If_energy: np.ndarray          # I_f(z^l), l = 0..N

    def slack(self):
        """RHS - LHS of the summed discrete energy inequality at every l."""
        lhs_running = np.cumsum(self.h * (self.Ig_star_rate + self.Ig_Sigma))
        lhs = lhs_running + self.quad_energy[1:] + self.If_energy[1:]
        work = np.cumsum(self.h * self.rate_norm * self.zhat_norm)
        rhs = self.quad_energy[0] + self.If_energy[0] + work
        return rhs - lhs


class Trajectory:
    """Rothe node values with the piecewise-constant interpolant accessor."""

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

    def z_const(self, t):
        h = self.time_grid.h
        if t <= 0.0:
            return self.z_nodes[0]
        n = int(np.clip(np.ceil(t / h - 1e-12), 1, self.time_grid.n_steps))
        return self.z_nodes[n]


class AndersonHistory:
    """The last AA_MEMORY differences of the splitting variable (``dY``) and
    of its fixed-point residual (``dR``), in ring buffers of shape
    (AA_MEMORY, n), with the Gram matrix ``dR dR^T`` kept up to date by one
    row and column per push.  Only the ``filled`` slots, those written since
    the last reset, are read."""

    def __init__(self, n):
        self.dY = np.zeros((AA_MEMORY, n))
        self.dR = np.zeros((AA_MEMORY, n))
        self.gram = np.zeros((AA_MEMORY, AA_MEMORY))
        self.pushes = 0

    @property
    def filled(self):
        return min(self.pushes, AA_MEMORY)

    def reset(self):
        self.pushes = 0

    def push(self, dy, dr):
        j = self.pushes % AA_MEMORY
        self.dY[j] = dy
        self.dR[j] = dr
        col = self.dR @ self.dR[j]
        self.gram[j, :] = col
        self.gram[:, j] = col
        self.pushes += 1

    def extrapolate(self, r):
        """Type-II Anderson move from the current iterate with residual r.

        alpha minimizes |r - dR^T alpha| (with a ridge of AA_RIDGE times
        the Gram trace); the move is r - (dY + dR)^T alpha, which is the
        plain move r when the history is empty or degenerate.
        """
        m = self.filled
        G = self.gram[:m, :m]
        scale = G.trace()
        if not 0.0 < scale < np.inf:    # empty history, zero or non-finite differences
            return r
        alpha = np.linalg.solve(G + AA_RIDGE * scale * np.eye(m), self.dR[:m] @ r)
        return r - alpha @ self.dY[:m] - alpha @ self.dR[:m]


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
        self.gamma = 1.8 / self.lam_max

    # -- operator ------------------------------------------------------

    def apply_M(self, z):
        return self.system.apply_M(z)

    def _lam_max_bound(self):
        """Upper bound lambda_max(D) + lambda_max(L) + reg on the spectrum of M_m.

        I - Q is the D-orthogonal projection, so <M z, z> = |(I - Q) z|_D^2
        <= |z|_D^2 <= lambda_max(D) |z|^2.
        """
        lam_D = np.linalg.eigvalsh(self.system.block_D.matrix).max()
        lam_L = np.linalg.eigvalsh(self.L).max()
        return float(lam_D + lam_L + self.reg)

    # -- certificate ----------------------------------------------------

    def residual_parts(self, z, rate, zhat, Mm_z):
        """Sigma, integrated Young-Fenchel residual and violation at z.

        The residual is taken at the flow-rule projection of Sigma onto the
        domain of g, plus the pairing of the rate with the projection's move;
        the violation is the largest distance of Sigma to that domain.
        ``Mm_z`` is M_m z.
        """
        Sigma = -Mm_z - full_grad(self.f, z, self.s) + zhat
        viol = float(self.g.violation(Sigma).max(initial=0.0))
        Sigma_in = self.g.project(Sigma)
        resid = fenchel_residual(self.g, rate, Sigma_in)
        resid = resid + np.sum(rate * (Sigma_in - Sigma), axis=-1)
        total = float(np.sum(self.vol * np.maximum(resid, 0.0)))
        return Sigma, total, viol

    # -- single step -----------------------------------------------------

    def step(self, z_prev, zhat, step_tol=1e-6, fp_tol=1e-10, max_iter=100000,
             y0=None):
        """Solve one implicit step; returns (z, Sigma, certificate, M z).

        Davis-Yin three-operator splitting: the remanent energy enters by its
        prox (which keeps iterates strictly inside its domain), the rate term
        by the prox of its conjugate, the quadratic by plain gradient steps
        of size gamma = 1.8 / lam_max, admissible because lam_max bounds the
        spectrum of M_m and Davis-Yin converges for gamma < 2 / lambda_max.
        The splitting map is T(y) = y + r(y) with the fixed-point residual
        r = xA - xB.  Each iteration evaluates it once, at the current y,
        and moves by the type-II Anderson extrapolation of the last
        AA_MEMORY differences of y and r (:class:`AndersonHistory`); when
        |r| rises above its previous value the history is dropped and the
        move is the plain Davis-Yin step r.
        Every iteration takes the fixed-point gap max |r|; the certificate
        at xB = prox_f(y) is checked only when the gap is within fp_tol (and
        at the last iteration, so that a failure carries one).  The step is
        accepted at the first iterate whose gap is within fp_tol and whose
        certificate is within step_tol, and M xB of that iterate is returned
        with it.  A non-finite gap or certificate fails the step at once; so
        do STALL_CHECKS consecutive checks without a new best certificate.
        The failure carries that best certificate (the step_tol that would
        have been met) and the load scale max |zhat|.
        """
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        z_prev = np.asarray(z_prev, dtype=float)
        if not np.all(full_contains(self.f, z_prev, self.s)):
            raise DomainEscape("previous state left the domain of the remanent energy")
        gam = self.gamma
        y = z_prev.copy() if y0 is None else np.asarray(y0, dtype=float).copy()
        y_flat = y.reshape(-1)
        history = AndersonHistory(y.size)
        y_last, r_last, r_norm_last = np.empty_like(y_flat), np.empty_like(y_flat), np.inf
        resid, best, stalled = np.nan, np.inf, 0
        for it in range(1, max_iter + 1):
            xB = full_prox(self.f, gam, y, self.s)
            M_xB = self.apply_M(xB)
            Mm_xB = M_xB + xB @ self.L.T + self.reg * xB
            grad = Mm_xB - zhat
            w = 2.0 * xB - y - gam * grad
            u = self.g.conjugate_prox(gam / self.h, (w - z_prev) / self.h)
            xA = z_prev + self.h * u
            delta = xA - xB
            fp = float(np.abs(delta).max(initial=0.0))
            if not np.isfinite(fp):
                break
            if fp <= fp_tol or it == max_iter:
                rate = (xB - z_prev) / self.h
                Sigma, resid, viol = self.residual_parts(xB, rate, zhat, Mm_xB)
                if not np.isfinite(resid):
                    break
                if resid <= step_tol and fp <= fp_tol:
                    return xB, Sigma, StepCertificate(resid, viol, fp, it), M_xB
                if resid < best:
                    best, stalled = resid, 0
                else:
                    stalled += 1
                if stalled >= STALL_CHECKS:
                    break
            r = delta.reshape(-1)
            r_norm = float(np.sqrt(r @ r))
            if it > 1 and r_norm <= r_norm_last:
                history.push(y_flat - y_last, r - r_last)
                move = history.extrapolate(r)
            else:                 # first iteration, or the residual rose: restart
                history.reset()
                move = r
            y_last[:], r_last[:], r_norm_last = y_flat, r, r_norm
            y_flat += move
        raise StepSolveFailure(-1, resid, fp, best, float(np.abs(zhat).max(initial=0.0)))

    # -- full run --------------------------------------------------------

    def run(self, z0, zhat_steps, step_tol=1e-6, fp_tol=1e-10, max_iter=100000):
        """March all 2^level steps; returns (Trajectory, EnergyLedger).

        Each step starts from the previous node.  M z is kept at every node
        for the stress/field pair and the ledger: applied once to z0 and
        taken from the step at every later node.
        """
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        tg = self.time_grid
        z0 = np.asarray(z0, dtype=float)
        if not np.all(full_contains(self.f, z0, self.s)):
            raise DomainEscape("initial state outside the domain of the remanent energy")
        zhat_steps = np.asarray(zhat_steps)
        N = tg.n_steps
        z_nodes = np.empty((N + 1,) + z0.shape)
        z_nodes[0] = z0
        Mz = np.empty_like(z_nodes)
        Mz[0] = self.apply_M(z0)
        Sigmas = np.empty((N,) + z0.shape)
        certs = []
        for n in range(N):
            try:
                z_nodes[n + 1], Sigmas[n], cert, Mz[n + 1] = self.step(
                    z_nodes[n], zhat_steps[n], step_tol=step_tol,
                    fp_tol=fp_tol, max_iter=max_iter)
            except StepSolveFailure as exc:
                raise StepSolveFailure(n + 1, exc.certificate, exc.fixed_point_gap,
                                       exc.lowest_certificate, exc.load_scale) from exc
            certs.append(cert)
        traj = Trajectory(tg, z_nodes, Sigmas, zhat_steps - Mz[1:], certs, zhat_steps)
        return traj, self._ledger(traj, Mz)

    def _ledger(self, traj, Mz):
        """Energy ledger of a finished trajectory, given M z at every node.

        Every term integrates over the domain one node (or step) at a time,
        as ``np.sum`` of that node alone would, so the ledger does not
        depend on how many steps it covers.
        """
        vol, g = self.vol, self.g
        z, rate, Sigma = traj.z_nodes, traj.rates, traj.Sigma

        def integral(density):
            return np.sum(density.reshape(len(density), -1), axis=1)

        def p_norm(a, p):
            mag = np.sqrt(np.sum(a * a, axis=-1))
            # float_power is the C library pow, as a float64 scalar ** is;
            # numpy's vectorized power differs from it in the last bit
            return np.float_power(integral(vol * mag ** p), 1.0 / p)

        vol_k = vol[:, None]
        quad = (0.5 * integral(vol_k * (Mz + z @ self.L.T) * z)
                + 0.5 * self.reg * integral(vol_k * z * z))
        return EnergyLedger(
            h=self.h,
            dissipation=integral(vol_k * rate * Sigma),
            Ig_star_rate=integral(vol * g.conjugate_value(rate)),
            # g at the projection: Sigma meets the domain of g to the step tolerance
            Ig_Sigma=integral(vol * g.value(g.project(Sigma))),
            rate_norm=p_norm(rate, g.p_star),
            zhat_norm=p_norm(traj.zhat, g.p),
            quad_energy=quad,
            If_energy=integral(vol * full_value(self.f, z, self.s)),
        )


def interpolant_gap(traj, volumes, p_star=2.0):
    """Both sides of the affine-vs-constant interpolant gap identity.

    Left side: the space-time p*-norm of the affine minus the constant
    interpolant, ((nh - t)/h) times the jump on step n, integrated in time
    by 24-point Gauss quadrature per step (independent of the closed form).
    Right side: h^{p*}/(p*+1) times the p*-norm of the discrete rate.
    """
    h = traj.time_grid.h
    vols = np.asarray(volumes, dtype=float)
    # spatial p*-integral of the per-step jump
    jumps = np.diff(traj.z_nodes, axis=0)                      # (N, nc, k)
    mag = np.sqrt(np.sum(jumps ** 2, axis=-1))                 # (N, nc)
    space = np.sum(vols * mag ** p_star, axis=-1)              # (N,)
    xs, ws = np.polynomial.legendre.leggauss(24)
    # integral over one step of ((nh - t)/h)^{p*}
    t = 0.5 * (xs + 1.0)
    time_factor = 0.5 * np.sum(ws * (1.0 - t) ** p_star) * h
    lhs = float(np.sum(space) * time_factor)
    rates = jumps / h
    mag_r = np.sqrt(np.sum(rates ** 2, axis=-1))
    rhs = (h ** p_star / (p_star + 1.0)) * float(
        np.sum(h * np.sum(vols * mag_r ** p_star, axis=-1)))
    return lhs, rhs
