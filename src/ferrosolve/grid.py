"""Structured simplicial grids on boxes.

The domain is an axis-aligned box meshed by a tensor-product node lattice;
each box cell is split into simplices (intervals, two triangles, six Kuhn
tetrahedra) so that the gradient of every nodal multilinear field is exactly
constant per cell.  Internal variables, strains and electric fields then all
live in the per-cell constant space, which makes the projection identities of
the reduction step exact at the discrete level.
"""

import itertools
import math

import numpy as np

from .packing import sym_dim

_TRIANGLES = [(0b00, 0b01, 0b11), (0b00, 0b11, 0b10)]
# Kuhn subdivision: one tet per permutation of axis insertions on the path
# from corner 000 to corner 111.
_TETS = []
for perm in itertools.permutations(range(3)):
    corners = [0]
    c = 0
    for ax in perm:
        c |= 1 << ax
        corners.append(c)
    _TETS.append(tuple(corners))


class Grid:
    """Tensor-product box grid split into simplicial cells.

    Parameters
    ----------
    dim : int
        Spatial dimension (1, 2 or 3).
    cells_per_axis : sequence of int
        Number of boxes along each axis.
    lengths : sequence of float
        Box edge lengths, one per axis or one for all; finite and positive.
    """

    def __init__(self, dim, cells_per_axis, lengths=None):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        cells_per_axis = tuple(int(n) for n in np.atleast_1d(cells_per_axis))
        if len(cells_per_axis) == 1:
            cells_per_axis = cells_per_axis * dim
        if len(cells_per_axis) != dim or any(n < 1 for n in cells_per_axis):
            raise ValueError(f"bad cells_per_axis {cells_per_axis} for dim {dim}")
        if lengths is None:
            lengths = (1.0,) * dim
        lengths = tuple(float(x) for x in np.atleast_1d(lengths))
        if len(lengths) == 1:
            lengths = lengths * dim
        if len(lengths) != dim or not all(0.0 < x < math.inf for x in lengths):
            raise ValueError(f"bad lengths {lengths} for dim {dim}: "
                             "need 1 or dim finite positive edge lengths")
        self.dim = dim
        self.cells_per_axis = cells_per_axis
        self.lengths = lengths
        self.nodes_per_axis = tuple(n + 1 for n in cells_per_axis)

        axes = [np.linspace(0.0, L, n + 1) for L, n in zip(lengths, cells_per_axis)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.node_coords = np.stack([m.ravel() for m in mesh], axis=-1)
        self.n_nodes = self.node_coords.shape[0]

        boundary = np.zeros(self.nodes_per_axis, dtype=bool)
        for ax in range(dim):
            idx = [slice(None)] * dim
            idx[ax] = 0
            boundary[tuple(idx)] = True
            idx[ax] = -1
            boundary[tuple(idx)] = True
        self.boundary_mask = boundary.ravel()

        self.cells = self._build_cells()
        self.n_cells = self.cells.shape[0]
        self._geometry()

    # ------------------------------------------------------------------

    def _build_cells(self):
        """Corner node ids of every simplex, box by box in ``itertools.product``
        order: each box's 2**d corners are one broadcast of the box origins
        against the corner offsets, raveled in one call."""
        d = self.dim
        simplices = {1: [(0, 1)], 2: _TRIANGLES, 3: _TETS}[d]
        origins = np.indices(self.cells_per_axis).reshape(d, -1, 1)
        offsets = (np.arange(1 << d) >> np.arange(d)[:, None]) & 1    # (d, 2**d)
        corners = np.ravel_multi_index(origins + offsets[:, None, :], self.nodes_per_axis)
        return corners[:, simplices].reshape(-1, d + 1).astype(np.int64, copy=False)

    def _geometry(self):
        d = self.dim
        verts = self.node_coords[self.cells]          # (nc, d+1, d)
        edges = verts[:, 1:, :] - verts[:, :1, :]     # (nc, d, d)
        dets = np.linalg.det(edges)
        self.volumes = np.abs(dets) / math.factorial(d)
        inv = np.linalg.inv(edges)                    # (nc, d, d)
        # gradients of barycentric shape functions: rows of inv for nodes 1..d,
        # node 0 carries minus their sum
        grads = np.empty((self.n_cells, d + 1, d))
        grads[:, 1:, :] = np.swapaxes(inv, 1, 2)
        grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
        self.grads = grads

    # ------------------------------------------------------------------

    @property
    def strain_dim(self):
        return sym_dim(self.dim)

    @property
    def internal_dim(self):
        return self.strain_dim + self.dim
