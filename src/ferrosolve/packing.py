"""Orthonormal (Mandel) packing of symmetric tensors.

Symmetric d x d matrices are stored as vectors of length d(d+1)/2 with the
diagonal entries first and the off-diagonal entries scaled by sqrt(2), so that
the Frobenius inner product of two matrices equals the dot product of their
packed vectors.  All tensor algebra in the solver runs on packed vectors.
"""

import itertools

import numpy as np

def sym_dim(dim):
    """Dimension of the space of symmetric dim x dim matrices."""
    return dim * (dim + 1) // 2


def internal_dim(dim):
    """Dimension of the internal-variable space (packed strain + vector)."""
    return sym_dim(dim) + dim


def space_dim(k):
    """Inverse of :func:`internal_dim`; ValueError for a k that is none of its values."""
    try:
        return {2: 1, 5: 2, 9: 3}[k]
    except KeyError:
        raise ValueError(f"no space dimension has {k} internal variables") from None


def sym_index_pairs(dim):
    """Index pairs (i, j) in packing order: diagonal first, then i < j."""
    diag = [(i, i) for i in range(dim)]
    off = list(itertools.combinations(range(dim), 2))
    return diag + off


def identity_packed(dim):
    """Packed form of the identity matrix."""
    out = np.zeros(sym_dim(dim))
    out[:dim] = 1.0
    return out


def isotropic_stiffness(dim, lam, mu):
    """Packed matrix of the isotropic map ``x -> 2 mu x + lam tr(x) I``.

    Because the packing is orthonormal the matrix is simply
    ``2 mu I + lam m m^T`` with ``m`` the packed identity.
    """
    s = sym_dim(dim)
    m = identity_packed(dim)
    return 2.0 * mu * np.eye(s) + lam * np.outer(m, m)

