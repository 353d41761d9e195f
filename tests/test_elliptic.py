"""Coupled elliptic solver: assembly oracle, manufactured convergence,
projection identities."""

import numpy as np
import pytest

from ferrosolve import AssembledSystem, Grid, make_tensors


def _node_measures(grid):
    """Lumped nodal measures: each cell gives vol/(d+1) to each of its nodes."""
    nn = grid.cells.shape[1]
    return np.bincount(grid.cells.ravel(), np.repeat(grid.volumes / nn, nn),
                       minlength=grid.n_nodes)


def _lumped_l2(grid, nodal_err):
    nm = _node_measures(grid)
    e = np.asarray(nodal_err)
    if e.ndim == 1:
        return np.sqrt(np.sum(nm * e ** 2))
    return np.sqrt(np.sum(nm[:, None] * e ** 2))


# ---------------------------------------------------------------------------
# direct assembly oracle (d = 1, small grid, hand-built matrix)


def test_d1_assembly_matches_hand_built_matrix():
    """4-cell bar: compare the assembled operator with an explicit loop."""
    C, epsm, e = 2.0, 1.5, 0.7
    grid = Grid(1, 4)
    t = make_tensors(1, C, epsm, coupling=e)
    sys_ = AssembledSystem(grid, t)
    h = 0.25
    n_free = sys_.n_free
    assert n_free == 6  # 3 interior nodes x 2 components

    # element matrix for (u, phi) with linear shape functions:
    # integral over a cell of  C u' v' + e phi' v' - e u' psi' + eps phi' psi'
    K = np.zeros((n_free, n_free))
    A = np.array([[C, e], [-e, epsm]])
    for c in range(4):
        nodes = [c, c + 1]
        for ai, na in enumerate(nodes):
            for bi, nb in enumerate(nodes):
                ga = (-1.0) ** (ai + 1) / h
                gb = (-1.0) ** (bi + 1) / h
                for i in range(2):
                    for j in range(2):
                        da = sys_.dof_of[na * 2 + i]
                        db = sys_.dof_of[nb * 2 + j]
                        if da >= 0 and db >= 0:
                            K[da, db] += h * ga * A[i, j] * gb
    assert np.allclose(sys_.K.toarray(), K, atol=1e-13)


def test_d1_uniform_internal_state_exact_solution():
    """Constant z with zero loads: u and phi solve a linear two-point problem
    whose exact solution is itself linear, so the P1 solution is exact."""
    grid = Grid(1, 8)
    t = make_tensors(1, 1.0, 1.0, coupling=1.0)
    sys_ = AssembledSystem(grid, t)
    z = np.tile([0.3, -0.2], (grid.n_cells, 1))
    f = sys_.solve_bvp(z=z)
    # a uniformly pre-strained clamped bar does not move: the internal-state
    # source is a pure gradient, so u = phi = 0 and the residual stress is
    # sigma = -C r, D = -e r + P
    assert np.abs(f.u).max() <= 1e-13
    assert np.abs(f.phi).max() <= 1e-13
    assert np.allclose(f.sigma[:, 0], -0.3, atol=1e-13)
    assert np.allclose(f.D[:, 0], -0.3 - 0.2, atol=1e-13)


# ---------------------------------------------------------------------------
# manufactured-solution convergence


def _manufactured_d1(n):
    C, epsm, e = 2.0, 1.0, 0.8
    grid = Grid(1, n)
    t = make_tensors(1, C, epsm, coupling=e)
    sys_ = AssembledSystem(grid, t)
    x = grid.centroids[:, 0]
    pi = np.pi
    # u = sin(pi x), phi = sin(2 pi x)
    # sigma = C u' + e phi', D = e u' - eps phi'
    b = -(C * -(pi ** 2) * np.sin(pi * x) + e * -(4 * pi ** 2) * np.sin(2 * pi * x))
    q = e * -(pi ** 2) * np.sin(pi * x) - epsm * -(4 * pi ** 2) * np.sin(2 * pi * x)
    f = sys_.solve_bvp(b=b[:, None], q=q)
    xs = grid.node_coords[:, 0]
    err_u = f.u[:, 0] - np.sin(pi * xs)
    err_p = f.phi - np.sin(2 * pi * xs)
    return _lumped_l2(grid, err_u) + _lumped_l2(grid, err_p)


def _manufactured_d2(n):
    lam, mu = 1.0, 1.0
    grid = Grid(2, n)
    t = make_tensors(2, ("isotropic", lam, mu), 1.0)
    sys_ = AssembledSystem(grid, t)
    pi = np.pi
    xc, yc = grid.centroids[:, 0], grid.centroids[:, 1]
    w = np.sin(pi * xc) * np.sin(pi * yc)
    wxy = pi ** 2 * np.cos(pi * xc) * np.cos(pi * yc)
    # u = (w, w): b_i from the isotropic Navier operator
    b1 = -((2 * mu + lam) * (-pi ** 2 * w) + (lam + mu) * wxy + mu * (-pi ** 2 * w))
    b2 = -(mu * (-pi ** 2 * w) + (lam + mu) * wxy + (2 * mu + lam) * (-pi ** 2 * w))
    # phi = w: q = -Laplace(phi) with unit dielectric
    q = 2 * pi ** 2 * w
    f = sys_.solve_bvp(b=np.stack([b1, b2], axis=-1), q=q)
    xs, ys = grid.node_coords[:, 0], grid.node_coords[:, 1]
    wn = np.sin(pi * xs) * np.sin(pi * ys)
    err_u = f.u - np.stack([wn, wn], axis=-1)
    err_p = f.phi - wn
    return _lumped_l2(grid, err_u) + _lumped_l2(grid, err_p)


def _observed_order(errs):
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    return float(rates[-1])


def test_manufactured_convergence_order_d1():
    errs = [_manufactured_d1(n) for n in (8, 16, 32, 64)]
    order = _observed_order(errs)
    assert order == pytest.approx(2.0, abs=0.2)


def test_manufactured_convergence_order_d2():
    errs = [_manufactured_d2(n) for n in (4, 8, 16, 32)]
    order = _observed_order(errs)
    assert order == pytest.approx(2.0, abs=0.2)


# ---------------------------------------------------------------------------
# projection and reduction operators


def _coupled_system(dim, n):
    rng = np.random.default_rng(dim)
    s = dim * (dim + 1) // 2
    t = make_tensors(dim, ("isotropic", 1.0, 1.2),
                     np.diag(rng.uniform(0.8, 1.5, dim)),
                     coupling=0.4 * rng.standard_normal((dim, s)),
                     hardening=0.3)
    return Grid(dim, n), AssembledSystem(Grid(dim, n), t)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5), (3, 3)])
def test_Q_idempotent_and_D_adjoint(dim, n):
    grid, sys_ = _coupled_system(dim, n)
    rng = np.random.default_rng(100 + dim)
    z = rng.standard_normal((grid.n_cells, grid.internal_dim))
    w = rng.standard_normal(z.shape)
    Qz = sys_.project_Q(z)
    assert np.abs(sys_.project_Q(Qz) - Qz).max() <= 1e-10
    D = sys_.block_D.matrix
    vol = grid.volumes[:, None]
    lhs = np.sum(vol * (Qz @ D.T) * w)
    rhs = np.sum(vol * (z @ D.T) * sys_.project_Q(w))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 5)])
def test_M_symmetric_psd(dim, n):
    grid, sys_ = _coupled_system(dim, n)
    M = sys_.assemble_M_matrix()
    # symmetry in the volume-weighted inner product
    W = np.kron(np.diag(grid.volumes), np.eye(grid.internal_dim))
    WM = W @ M
    assert np.abs(WM - WM.T).max() <= 1e-10 * max(np.abs(WM).max(), 1.0)
    eigs = np.linalg.eigvalsh(0.5 * (WM + WM.T))
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


def test_M_vanishes_on_attainable_states():
    """M z = 0 exactly when z is in the range of Q (zero residual stress)."""
    grid, sys_ = _coupled_system(2, 4)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((grid.n_cells, grid.internal_dim))
    Qz = sys_.project_Q(z)
    assert np.abs(sys_.apply_M(Qz)).max() <= 1e-10
    # and M z equals minus the residual (stress, field) of the zero-load solve
    f = sys_.solve_bvp(z=z)
    Mz = sys_.apply_M(z)
    direct = -np.concatenate([f.sigma, f.E], axis=-1)
    assert np.allclose(Mz, direct, atol=1e-11)


def test_superposition():
    """Linearity: solving with (z, b, q) equals the sum of separate solves."""
    grid, sys_ = _coupled_system(2, 4)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((grid.n_cells, grid.internal_dim))
    b = rng.standard_normal((grid.n_cells, 2))
    q = rng.standard_normal(grid.n_cells)
    full = sys_.solve_bvp(z=z, b=b, q=q)
    fz = sys_.solve_bvp(z=z)
    fl = sys_.solve_bvp(b=b, q=q)
    assert np.allclose(full.u, fz.u + fl.u, atol=1e-12)
    assert np.allclose(full.phi, fz.phi + fl.phi, atol=1e-12)
    assert np.allclose(full.sigma, fz.sigma + fl.sigma, atol=1e-11)
    assert np.allclose(full.D, fz.D + fl.D, atol=1e-11)


def test_load_trace_zero_loads():
    grid, sys_ = _coupled_system(1, 6)
    zhat = sys_.load_trace(np.zeros((grid.n_cells, 1)), np.zeros(grid.n_cells))
    assert np.abs(zhat).max() == 0.0


def _h1(grid, nodal):
    """Lumped L2 norm plus the L2 norm of the cell gradient."""
    grad = grid.cell_gradient(nodal).reshape(grid.n_cells, -1)
    return _lumped_l2(grid, nodal) + np.sqrt(np.sum(grid.volumes[:, None] * grad ** 2))


def _stability_ratio(grid, sys_, b, q):
    """(|u|_1 + |phi|_1) / (|b| + |q|) of the solve with loads b, q."""
    f = sys_.solve_bvp(b=b, q=q)
    vol = grid.volumes
    data = np.sqrt(np.sum(vol[:, None] * b ** 2)) + np.sqrt(np.sum(vol * q ** 2))
    return (_h1(grid, f.u) + _h1(grid, f.phi)) / data


def test_measured_stability_bounded():
    grid, sys_ = _coupled_system(2, 6)
    rng = np.random.default_rng(2)
    ratios = [_stability_ratio(grid, sys_, rng.standard_normal((grid.n_cells, 2)),
                               rng.standard_normal(grid.n_cells)) for _ in range(5)]
    assert max(ratios) < 10.0 / sys_.block_A.c0


@pytest.mark.parametrize("dim,n", [(1, 9), (2, 4), (3, 2)])
def test_apply_M_matches_dense_oracle(dim, n):
    """The sparse operator path against the column-by-column dense M."""
    grid, sys_ = _coupled_system(dim, n)
    M = sys_.assemble_M_matrix()
    rng = np.random.default_rng(30 + dim)
    z = rng.standard_normal((grid.n_cells, grid.internal_dim))
    assert np.allclose(sys_.apply_M(z).ravel(), M @ z.ravel(), atol=1e-11)


def test_load_vector_matches_vertex_loop():
    """rhs_from_loads against a loop that gives each vertex vol/(d+1)."""
    grid, sys_ = _coupled_system(2, 4)
    rng = np.random.default_rng(11)
    b = rng.standard_normal((grid.n_cells, 2))
    q = rng.standard_normal(grid.n_cells)
    ref = np.zeros(sys_.n_free)
    for c, nodes in enumerate(grid.cells):
        share = grid.volumes[c] / 3.0
        for node in nodes:
            for comp, val in enumerate([b[c, 0], b[c, 1], q[c]]):
                dof = sys_.dof_of[node * 3 + comp]
                if dof >= 0:
                    ref[dof] += share * val
    assert np.allclose(sys_.rhs_from_loads(b, q), ref, atol=1e-15)
    # a uniform load, b of shape (d,) and q of shape (), is its per-cell broadcast
    b0, q0 = np.array([0.7, -1.3]), np.array(0.4)
    per_cell = sys_.rhs_from_loads(np.tile(b0, (grid.n_cells, 1)),
                                   np.full(grid.n_cells, q0))
    assert np.array_equal(sys_.rhs_from_loads(b0, q0), per_cell)
