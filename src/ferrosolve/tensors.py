"""Constant material tensors and the derived block operators.

The four user-supplied maps are the elastic stiffness C, the dielectric
tensor eps, the piezoelectric coupling e (strain -> vector) and the hardening
map L on internal-variable space.  From these we build the coupled-field
block operator A used by the elliptic solver and the constitutive block
operator D that turns reversible parts (strain - r, D - P) into (stress,
electric field).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDefinite
from .packing import internal_dim, isotropic_stiffness, sym_dim

SYM_TOL = 1e-12


def _as_matrix(value, n, name):
    """Coerce scalar / diagonal / full input into an n x n matrix."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return float(value) * np.eye(n)
    if value.ndim == 1:
        if value.shape[0] != n:
            raise ValueError(f"{name}: expected {n} diagonal entries, got {value.shape[0]}")
        return np.diag(value)
    if value.shape != (n, n):
        raise ValueError(f"{name}: expected shape {(n, n)}, got {value.shape}")
    return value.copy()


def _check_spd(mat, name, semidefinite=False, vectors=False):
    """The one definiteness rule of every symmetric block: (spectrum, definite).

    The spectrum is ``eigh(mat)`` if ``vectors``, else ``eigvalsh(mat)``, and
    ``definite`` is lambda_min > SYM_TOL scale with scale = max(|entry|, 1).
    ValueError unless mat is symmetric within SYM_TOL scale;
    NonPositiveDefinite naming the block unless its entries and eigenvalues
    are finite and lambda_min > 0 (>= -SYM_TOL scale if ``semidefinite``).
    The entries are tested first, so that no LinAlgError escapes.
    """
    if not np.isfinite(mat).all():
        raise NonPositiveDefinite(name, float("nan"), semidefinite)
    scale = max(float(np.abs(mat).max()), 1.0)
    with np.errstate(over="ignore"):     # an overflow is an asymmetry
        if np.abs(mat - mat.T).max() > SYM_TOL * scale:
            raise ValueError(f"{name} is not symmetric")
    spectrum = np.linalg.eigh(mat) if vectors else np.linalg.eigvalsh(mat)
    w = spectrum[0] if vectors else spectrum
    if not np.isfinite(w).all():
        raise NonPositiveDefinite(name, float("nan"), semidefinite)
    lam_min = float(w.min())
    if not (lam_min >= -SYM_TOL * scale if semidefinite else lam_min > 0.0):
        raise NonPositiveDefinite(name, lam_min, semidefinite)
    return spectrum, lam_min > SYM_TOL * scale


@dataclass(frozen=True)
class MaterialTensors:
    """Validated constant coefficient maps in packed coordinates.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    C : ndarray, shape (s, s)
        Elastic stiffness on packed strains, s = dim (dim+1)/2.
    eps : ndarray, shape (dim, dim)
        Dielectric tensor.
    e_piezo : ndarray, shape (dim, s)
        Piezoelectric coupling, packed strain -> vector.
    L_hard : ndarray, shape (k, k)
        Hardening map on internal-variable space, k = s + dim.
    hardening_definite : bool
        Whether L_hard is positive definite by :func:`_check_spd`
        (regularized regime), not merely semidefinite (possibly zero).
    """

    dim: int
    C: np.ndarray
    eps: np.ndarray
    e_piezo: np.ndarray
    L_hard: np.ndarray
    hardening_definite: bool


def make_tensors(dim, elastic, dielectric, coupling=None, hardening=None):
    """Build validated :class:`MaterialTensors`.

    Parameters
    ----------
    dim : int
        Spatial dimension.
    elastic : tuple or array_like
        Either ``("isotropic", lam, mu)`` or an s x s packed matrix (scalar
        allowed, meaning that multiple of the identity).
    dielectric : scalar, 1-d (diagonal) or dim x dim array.
    coupling : scalar (dim = 1), dim x s array, or None for zero.
    hardening : scalar, k-vector (diagonal), k x k array, or None for zero.

    Raises
    ------
    NonPositiveDefinite
        Unless C and eps are positive definite and hardening is positive
        semidefinite, by :func:`_check_spd`.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    s = sym_dim(dim)
    k = internal_dim(dim)

    if isinstance(elastic, tuple) and len(elastic) == 3 and elastic[0] == "isotropic":
        C = isotropic_stiffness(dim, float(elastic[1]), float(elastic[2]))
    else:
        C = _as_matrix(elastic, s, "C")
    eps = _as_matrix(dielectric, dim, "eps")

    if coupling is None:
        e = np.zeros((dim, s))
    else:
        e = np.asarray(coupling, dtype=float)
        if e.ndim == 0:
            if dim != 1:
                raise ValueError("scalar coupling only makes sense for dim = 1")
            e = e.reshape(1, 1)
        if e.shape != (dim, s):
            raise ValueError(f"coupling: expected shape {(dim, s)}, got {e.shape}")
        e = e.copy()

    L = np.zeros((k, k)) if hardening is None else _as_matrix(hardening, k, "L_hard")

    _check_spd(C, "C")
    _check_spd(eps, "eps")
    _, definite = _check_spd(L, "L_hard", semidefinite=True)
    return MaterialTensors(dim=dim, C=C, eps=eps, e_piezo=e, L_hard=L,
                           hardening_definite=definite)


@dataclass(frozen=True)
class BlockOperatorA:
    """Coupled-field block [[C, e^T], [-e, eps]] with its ellipticity constant.

    The skew coupling blocks cancel in the quadratic form, so the ellipticity
    constant c0 equals the smallest eigenvalue of the symmetric part, which in
    turn equals min(lambda_min(C), lambda_min(eps)).
    """

    matrix: np.ndarray
    c0: float


@dataclass(frozen=True)
class BlockOperatorD:
    """Constitutive block operator D with its smallest eigenvalue."""

    matrix: np.ndarray
    lam_min: float


def assemble_block_A(tensors):
    """Assemble the coupled-field operator and compute c0 by eigensolve."""
    C, eps, e = tensors.C, tensors.eps, tensors.e_piezo
    A = np.block([[C, e.T], [-e, eps]])
    with np.errstate(over="ignore"):     # an overflow is a non-finite entry
        sym = 0.5 * (A + A.T)
    w, _ = _check_spd(sym, "A (symmetric part)")
    return BlockOperatorA(matrix=A, c0=float(w.min()))


def assemble_block_D(tensors):
    """Assemble D = [[C + e^T eps^-1 e, -e^T eps^-1], [-eps^-1 e, eps^-1]]."""
    C, eps, e = tensors.C, tensors.eps, tensors.e_piezo
    eps_inv = np.linalg.inv(eps)
    with np.errstate(over="ignore", invalid="ignore"):   # see assemble_block_A
        D = np.block([
            [C + e.T @ eps_inv @ e, -e.T @ eps_inv],
            [-eps_inv @ e, eps_inv],
        ])
        D = 0.5 * (D + D.T)
    # eigh, not eigvalsh: the two LAPACK drivers differ in the last bits, and
    # check prints lam_min to 17 digits
    (w, _), _ = _check_spd(D, "D", vectors=True)
    return BlockOperatorD(matrix=D, lam_min=float(w.min()))


def constitutive_stress_field(tensors, eps_strain, E, r, P):
    """Pointwise (sigma, D) from (1c)-(1d) given packed strain and fields."""
    C, epsm, e = tensors.C, tensors.eps, tensors.e_piezo
    sigma = (eps_strain - r) @ C.T - E @ e
    Dfield = (eps_strain - r) @ e.T + E @ epsm.T + P
    return sigma, Dfield
