"""Discrete coupled piezoelectric boundary value problem.

Assembles the coupled bilinear form over P1 fields (displacement + electric
potential, homogeneous Dirichlet on the whole boundary), solves it with a
sparse direct factorization computed once per grid, and exposes the derived
objects of the reduction step: the projection Q onto attainable reversible
states, the load trace z_hat and the operator M = D (I - Q).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveFailure, SingularSystem
from .tensors import assemble_block_A, assemble_block_D, constitutive_stress_field


@dataclass
class FieldState:
    """Electromechanical fields produced by one elliptic solve."""

    u: np.ndarray          # nodal displacement (n_nodes, d)
    phi: np.ndarray        # nodal potential (n_nodes,)
    eps: np.ndarray        # per-cell packed strain (n_cells, s)
    E: np.ndarray          # per-cell electric field (n_cells, d)
    sigma: np.ndarray      # per-cell packed stress (n_cells, s)
    D: np.ndarray          # per-cell electric displacement (n_cells, d)


class AssembledSystem:
    """Factorized discrete operator plus right-hand-side builders.

    Immutable after construction; concurrent solves with distinct right-hand
    sides are safe because the factorization is read-only.
    """

    def __init__(self, grid, tensors, linear_tol=1e-10):
        if grid.dim != tensors.dim:
            raise ValueError("grid and tensors disagree on the spatial dimension")
        self.grid = grid
        self.tensors = tensors
        self.linear_tol = float(linear_tol)
        self.block_A = assemble_block_A(tensors)
        self.block_D = assemble_block_D(tensors)
        self._build_dof_map()
        self._build_operators(self._build_B())
        self.lu = None
        if self.n_free:
            try:
                self.lu = spla.splu(self.K)
            except RuntimeError as exc:      # pragma: no cover - guarded by tensor checks
                raise SingularSystem(str(exc)) from exc

    # ------------------------------------------------------------------

    def _build_dof_map(self):
        g = self.grid
        d = g.dim
        self.n_comp = d + 1
        interior = ~g.boundary_mask
        self.free_nodes = np.nonzero(interior)[0]
        # global dof = node * (d+1) + comp; free dofs keep that order
        dof_of = -np.ones(g.n_nodes * self.n_comp, dtype=np.int64)
        free = (self.free_nodes[:, None] * self.n_comp
                + np.arange(self.n_comp)[None, :]).ravel()
        dof_of[free] = np.arange(free.size)
        self.dof_of = dof_of
        self.n_free = free.size
        if self.n_free == 0 and g.n_cells == 0:
            raise SingularSystem("grid has no degrees of freedom")

    def _build_B(self):
        """Per-cell map from element dofs to (packed strain, potential gradient)."""
        g = self.grid
        d, s = g.dim, g.strain_dim
        nn = d + 1                       # nodes per simplex
        k = s + d
        from .packing import sym_index_pairs
        pairs = sym_index_pairs(d)
        B = np.zeros((g.n_cells, k, nn * self.n_comp))
        grads = g.grads                  # (nc, nn, d)
        for a in range(nn):
            for n, (i, j) in enumerate(pairs):
                col_i = a * self.n_comp + i
                col_j = a * self.n_comp + j
                if i == j:
                    B[:, n, col_i] += grads[:, a, i]
                else:
                    B[:, n, col_i] += grads[:, a, j] / np.sqrt(2.0)
                    B[:, n, col_j] += grads[:, a, i] / np.sqrt(2.0)
            phi_col = a * self.n_comp + d
            B[:, s:, phi_col] += grads[:, a, :]
        return B

    def _build_operators(self, B):
        """Sparse strain map G, stiffness K = G^T (V x A) G, source and load maps.

        G stacks the per-cell B over the free dofs, so G U is the per-cell
        (packed strain, potential gradient) of the free-dof vector U.
        """
        g, t = self.grid, self.tensors
        nc, k, m = g.n_cells, g.internal_dim, self.n_comp
        el_free = self.dof_of[(g.cells[:, :, None] * m
                               + np.arange(m)).reshape(nc, -1)]     # (nc, ne)
        rows = np.broadcast_to(np.arange(nc * k).reshape(nc, k, 1), B.shape)
        cols = np.broadcast_to(el_free[:, None, :], B.shape)
        keep = (cols >= 0) & (B != 0.0)
        self.G = sp.csr_matrix((B[keep], (rows[keep], cols[keep])),
                               shape=(nc * k, self.n_free))
        VA = sp.kron(sp.diags(g.volumes), self.block_A.matrix, format="csr")
        self.K = (self.G.T @ VA @ self.G).tocsc()
        # internal state z -> (C r, P - e r) per cell, weighted by its volume
        W = np.block([[t.C, np.zeros((g.strain_dim, g.dim))],
                      [-t.e_piezo, np.eye(g.dim)]])
        self.source_map = (self.G.T @ sp.kron(sp.diags(g.volumes), W)).tocsr()
        # per cell, M z = z @ _M_of_z + (G U) @ _M_of_grads: _reduce is linear
        eye, zero = np.eye(k), np.zeros((k, k))
        self._M_of_z = self._reduce(eye, zero)
        self._M_of_grads = self._reduce(zero, eye)
        # each cell spreads vol/(d+1) of its (b, q) onto every one of its nodes
        rows = el_free.reshape(nc, -1, m)
        cols = np.broadcast_to(np.arange(nc * m).reshape(nc, 1, m), rows.shape)
        vals = np.broadcast_to((g.volumes / (g.dim + 1))[:, None, None], rows.shape)
        keep = rows >= 0
        self.load_map = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                                      shape=(self.n_free, nc * m))

    # ------------------------------------------------------------------

    def rhs_from_internal(self, z):
        """Load vector of the internal-variable source terms."""
        return self.source_map @ np.asarray(z, dtype=float).ravel()

    def rhs_from_loads(self, b, q):
        """Load vector of body force b and charge density q, given per cell,
        (n_cells, d) and (n_cells,), or uniform, (d,) and ()."""
        nc = self.grid.n_cells
        b = np.broadcast_to(np.asarray(b, dtype=float), (nc, self.grid.dim))
        q = np.broadcast_to(np.asarray(q, dtype=float), (nc,))
        return self.load_map @ np.column_stack([b, q]).ravel()

    def _solve(self, rhs):
        """K U = rhs by the LU factors, checked against linear_tol.

        A residual above the tolerance gets one refinement step; if that does
        not bring it under, :class:`LinearSolveFailure` is raised.
        """
        if not self.n_free:
            return np.zeros(0)
        U = self.lu.solve(rhs)
        res = self.K @ U - rhs
        scale = max(np.linalg.norm(rhs), 1e-300)
        rel = np.linalg.norm(res) / scale
        if rel > self.linear_tol:
            U = U - self.lu.solve(res)
            rel = np.linalg.norm(self.K @ U - rhs) / scale
            if rel > self.linear_tol:
                raise LinearSolveFailure(rel)
        return U

    # ------------------------------------------------------------------

    def solve_bvp(self, z=None, b=None, q=None):
        """Solve the coupled problem; returns the full :class:`FieldState`.

        Any of z, b, q may be omitted (treated as zero).
        """
        g = self.grid
        d, s = g.dim, g.strain_dim
        if z is None:
            z = np.zeros((g.n_cells, g.internal_dim))
        z = np.asarray(z, dtype=float)
        rhs = self.rhs_from_internal(z)
        if b is not None or q is not None:
            rhs = rhs + self.rhs_from_loads(0.0 if b is None else b, 0.0 if q is None else q)
        U_free = self._solve(rhs)

        full = np.zeros(g.n_nodes * self.n_comp)
        mask = self.dof_of >= 0
        full[mask] = U_free[self.dof_of[mask]]
        nodal = full.reshape(g.n_nodes, self.n_comp)
        u = nodal[:, :d]
        phi = nodal[:, d]

        eps = g.cell_strain(u)
        E = -g.cell_gradient(phi)
        sigma, D = constitutive_stress_field(self.tensors, eps, E, z[:, :s], z[:, s:])
        return FieldState(u=u, phi=phi, eps=eps, E=E, sigma=sigma, D=D)

    # ------------------------------------------------------------------

    def project_Q(self, z):
        """Projection Q z = (strain, electric displacement) of the zero-load solve."""
        f = self.solve_bvp(z=z)
        return np.concatenate([f.eps, f.D], axis=-1)

    def _reduce(self, z, grads):
        """D (z - Q z) per cell, given z and the (strain, potential gradient) of its solve."""
        s = self.grid.strain_dim
        eps = grads[:, :s]
        _, D = constitutive_stress_field(self.tensors, eps, -grads[:, s:],
                                         z[:, :s], z[:, s:])
        return (z - np.concatenate([eps, D], axis=-1)) @ self.block_D.matrix.T

    def apply_M(self, z):
        """M z = D (z - Q z), from one solve and the strain map G."""
        z = np.asarray(z, dtype=float)
        grads = (self.G @ self._solve(self.rhs_from_internal(z))).reshape(z.shape)
        return z @ self._M_of_z + grads @ self._M_of_grads

    def load_trace(self, b, q):
        """z_hat = (stress, electric field) of the solve with zero internal state."""
        f = self.solve_bvp(b=b, q=q)
        return np.concatenate([f.sigma, f.E], axis=-1)

    def assemble_M_matrix(self):
        """Dense M, column by column from full solves and :meth:`project_Q`.

        A reference for tests only: it does not go through :meth:`apply_M`.
        """
        n = self.grid.n_cells * self.grid.internal_dim
        cols = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            e = e.reshape(self.grid.n_cells, self.grid.internal_dim)
            cols[:, j] = ((e - self.project_Q(e)) @ self.block_D.matrix.T).ravel()
        return cols
