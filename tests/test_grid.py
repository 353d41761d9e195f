"""Simplicial box grids: measures, gradients, packing consistency."""

import itertools

import numpy as np
import pytest

from ferrosolve import Grid
from ferrosolve.grid import _TETS, _TRIANGLES
from test_elliptic import _nodal_gradient, _node_measures, _strain


@pytest.mark.parametrize("dim,n,lengths", [
    (1, 7, 2.0), (2, 4, (1.0, 3.0)), (3, 3, (1.0, 2.0, 0.5))])
def test_volumes_tile_the_box(dim, n, lengths):
    g = Grid(dim, n, lengths)
    assert g.volumes.sum() == pytest.approx(np.prod(np.atleast_1d(lengths)), rel=1e-13)
    assert np.all(g.volumes > 0)
    nm = _node_measures(g)
    assert nm.shape == (g.n_nodes,) and np.all(nm > 0)
    assert nm.sum() == pytest.approx(g.volumes.sum(), rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradient_exact_for_affine_fields(dim):
    g = Grid(dim, 3, 1.5)
    rng = np.random.default_rng(dim)
    a = rng.standard_normal(dim)
    c = rng.standard_normal()
    nodal = g.node_coords @ a + c
    grads = _nodal_gradient(g, nodal)
    assert np.allclose(grads, a, atol=1e-13)


def test_strain_of_linear_displacement():
    g = Grid(2, 4)
    A = np.array([[0.2, 0.7], [-0.3, 0.5]])
    u = g.node_coords @ A.T
    eps = _strain(g, u)
    sym = 0.5 * (A + A.T)
    expected = np.array([sym[0, 0], sym[1, 1], np.sqrt(2.0) * sym[0, 1]])
    assert np.allclose(eps, expected, atol=1e-13)


@pytest.mark.parametrize("dim,lengths", [
    (3, (1.0, 2.0)), (2, (1.0, 0.0)), (2, (1.0, 2.0, 3.0)), (2, (1.0, -1.0))])
def test_bad_lengths_rejected(dim, lengths):
    """1 or dim edge lengths, each finite and positive, as for cells_per_axis."""
    with pytest.raises(ValueError, match="bad lengths"):
        Grid(dim, 2, lengths)


def test_boundary_mask_counts():
    g = Grid(2, 4)
    assert g.boundary_mask.sum() == 25 - 9  # 5x5 nodes, 3x3 interior
    g3 = Grid(3, 2)
    assert (~g3.boundary_mask).sum() == 1   # single interior node


def test_cells_per_box():
    assert Grid(1, 5).n_cells == 5
    assert Grid(2, 3).n_cells == 2 * 9
    assert Grid(3, 2).n_cells == 6 * 8


def _cells_oracle(grid):
    """Corner node ids of every simplex, box by box and corner by corner."""
    d = grid.dim
    simplices = {1: [(0, 1)], 2: _TRIANGLES, 3: _TETS}[d]
    cells = []
    for box in itertools.product(*[range(n) for n in grid.cells_per_axis]):
        corner_ids = {}
        for code in range(1 << d):
            multi = tuple(box[ax] + ((code >> ax) & 1) for ax in range(d))
            corner_ids[code] = np.ravel_multi_index(multi, grid.nodes_per_axis)
        for simplex in simplices:
            cells.append([corner_ids[c] for c in simplex])
    return np.asarray(cells, dtype=np.int64)


@pytest.mark.parametrize("dim,n,lengths", [
    (1, 7, 2.0), (1, 1, 1.0), (2, (3, 5), (1.0, 3.0)), (2, (4, 1), 1.0),
    (3, (2, 3, 4), (1.0, 2.0, 0.5)), (3, 1, 1.0)])
def test_cells_match_box_by_box_loop(dim, n, lengths):
    """The simplices, their order and their corner order are those of the
    loop over boxes in itertools.product order and over box corners."""
    g = Grid(dim, n, lengths)
    expected = _cells_oracle(g)
    assert g.cells.dtype == expected.dtype and np.array_equal(g.cells, expected)
