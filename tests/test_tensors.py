"""Material tensor validation and the derived block operators."""

import numpy as np
import pytest

from ferrosolve import (NonPositiveDefinite, Quadratic, assemble_block_A,
                        assemble_block_D, isotropic_stiffness, make_tensors)
from ferrosolve.packing import internal_dim, space_dim
from ferrosolve.tensors import constitutive_stress_field


def _pairs(d):
    """Mandel order: the diagonal, then the upper triangle row by row."""
    return [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]


def pack_sym(mat):
    """Mandel vector of a symmetric d x d matrix: off-diagonals times sqrt 2."""
    mat = np.asarray(mat, dtype=float)
    return np.array([mat[i, j] * (1.0 if i == j else np.sqrt(2.0))
                     for i, j in _pairs(len(mat))])


def unpack_sym(vec):
    """The symmetric matrix of a Mandel vector."""
    d = {1: 1, 3: 2, 6: 3}[len(vec)]
    out = np.zeros((d, d))
    for (i, j), v in zip(_pairs(d), vec):
        out[i, j] = out[j, i] = v if i == j else v / np.sqrt(2.0)
    return out


def test_packing_preserves_frobenius_inner_product():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        A = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((d, d))
        B = 0.5 * (B + B.T)
        lhs = np.sum(A * B)
        rhs = np.dot(pack_sym(A), pack_sym(B))
        assert lhs == pytest.approx(rhs, rel=1e-14)
        assert np.allclose(unpack_sym(pack_sym(A)), A)


def test_space_dim_inverts_internal_dim():
    for d in (1, 2, 3):
        assert space_dim(internal_dim(d)) == d
    for k in (3, 4):
        with pytest.raises(ValueError, match=f"no space dimension has {k} internal"):
            space_dim(k)


def test_isotropic_stiffness_eigenvalues_d2():
    # lam = mu = 1: deviatoric modes see 2 mu, the trace mode 2 mu + d lam
    C = isotropic_stiffness(2, 1.0, 1.0)
    w = np.sort(np.linalg.eigvalsh(C))
    assert w[0] == pytest.approx(2.0, rel=1e-14)
    assert w[-1] == pytest.approx(4.0, rel=1e-14)


def test_isotropic_stiffness_matches_tensor_contraction():
    rng = np.random.default_rng(3)
    lam, mu = 1.3, 0.8
    for d in (2, 3):
        C = isotropic_stiffness(d, lam, mu)
        eps = rng.standard_normal((d, d))
        eps = 0.5 * (eps + eps.T)
        sigma_ref = 2 * mu * eps + lam * np.trace(eps) * np.eye(d)
        sigma = unpack_sym(C @ pack_sym(eps))
        assert np.allclose(sigma, sigma_ref, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_make_tensors_shapes(dim):
    t = make_tensors(dim, ("isotropic", 1.0, 1.0), 2.0, hardening=0.5)
    s = dim * (dim + 1) // 2
    assert t.C.shape == (s, s)
    assert t.eps.shape == (dim, dim)
    assert t.e_piezo.shape == (dim, s)
    assert t.L_hard.shape == (s + dim, s + dim)
    assert t.hardening_definite


def test_make_tensors_rejects_indefinite():
    """C and eps must be positive definite, L only semidefinite; the
    message says which."""
    with pytest.raises(NonPositiveDefinite, match="^C is not positive definite"):
        make_tensors(1, -1.0, 1.0)
    with pytest.raises(NonPositiveDefinite, match="^eps is not positive definite"):
        make_tensors(2, ("isotropic", 1.0, 1.0), [-0.5, 1.0])
    with pytest.raises(NonPositiveDefinite, match="^L_hard is not positive semidefinite"):
        make_tensors(1, 1.0, 1.0, hardening=-0.1)


def test_block_A_c0_equals_min_of_block_eigenvalues():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        s = dim * (dim + 1) // 2
        e = rng.standard_normal((dim, s))
        t = make_tensors(dim, ("isotropic", 0.7, 1.1), np.diag(rng.uniform(0.5, 2.0, dim)),
                         coupling=e)
        block = assemble_block_A(t)
        expected = min(np.linalg.eigvalsh(t.C).min(), np.linalg.eigvalsh(t.eps).min())
        assert block.c0 == pytest.approx(expected, rel=1e-12)
        # skew coupling blocks cancel in the quadratic form
        v = rng.standard_normal(s + dim)
        quad = v @ block.matrix @ v
        split = v[:s] @ t.C @ v[:s] + v[s:] @ t.eps @ v[s:]
        assert quad == pytest.approx(split, rel=1e-12)


def test_block_D_d1_closed_form():
    # C = eps = e = 1 in one dimension
    t = make_tensors(1, 1.0, 1.0, coupling=1.0)
    D = assemble_block_D(t).matrix
    assert np.allclose(D, [[2.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_block_D_inverts_constitutive_relations():
    """(sigma, E) = D (strain - r, D_field - P) reproduces the constitutive laws."""
    rng = np.random.default_rng(23)
    for dim in (1, 2, 3):
        s = dim * (dim + 1) // 2
        t = make_tensors(dim, ("isotropic", 1.2, 0.9),
                         np.diag(rng.uniform(1.0, 2.0, dim)),
                         coupling=0.3 * rng.standard_normal((dim, s)))
        block = assemble_block_D(t)
        eps_s = rng.standard_normal((5, s))
        E = rng.standard_normal((5, dim))
        r = rng.standard_normal((5, s))
        P = rng.standard_normal((5, dim))
        sigma, Dfield = constitutive_stress_field(t, eps_s, E, r, P)
        reversible = np.concatenate([eps_s - r, Dfield - P], axis=-1)
        out = reversible @ block.matrix.T
        assert np.allclose(out[:, :s], sigma, atol=1e-12)
        assert np.allclose(out[:, s:], E, atol=1e-12)


def test_block_D_lam_min():
    t = make_tensors(2, ("isotropic", 1.0, 2.0), [1.5, 0.5],
                     coupling=0.2 * np.ones((2, 3)))
    block = assemble_block_D(t)
    assert block.lam_min > 0.0
    # Rayleigh quotients on random vectors never fall below lam_min, and
    # the minimizing eigenvector of the 5x5 matrix attains it
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 5))
    rayleigh = np.sum((x @ block.matrix) * x, axis=1) / np.sum(x * x, axis=1)
    assert rayleigh.min() >= block.lam_min * (1.0 - 1e-12)
    w, V = np.linalg.eig(block.matrix)
    v = np.real(V[:, np.argmin(np.real(w))])
    assert v @ block.matrix @ v / (v @ v) == pytest.approx(block.lam_min, rel=1e-10)


@pytest.mark.parametrize("kwargs, block", [
    ({"elastic": [np.inf, 1.0, 1.0]}, "C"),
    ({"dielectric": [1.0, np.nan]}, "eps"),
    ({"elastic": 1e308}, "A (symmetric part)"),
    ({"dielectric": 1e308}, "A (symmetric part)"),
    ({"coupling": 1e308 * np.ones((2, 3))}, "D"),
], ids=["C_inf", "eps_nan", "C_overflow", "eps_overflow", "coupling_overflow"])
def test_non_finite_blocks_rejected(kwargs, block):
    """A non-finite entry, or a block whose assembly overflows, is
    NonPositiveDefinite naming the block, never a LinAlgError or a NaN."""
    args = {"elastic": 1.0, "dielectric": 1.0, "coupling": None, **kwargs}
    with pytest.raises(NonPositiveDefinite, match=r"non-finite") as exc:
        t = make_tensors(2, args["elastic"], args["dielectric"], args["coupling"])
        assemble_block_A(t)
        assemble_block_D(t)
    assert exc.value.tensor_name == block


#: (name, matrix on the internal space of dim = 1, verdict): True where it
#: is definite, False where it is only semidefinite, else (the error that
#: both Quadratic and make_tensors raise, its message)
DEFINITENESS = [
    ("nan", [[np.nan, 0.0], [0.0, 1.0]], (NonPositiveDefinite, "non-finite")),
    ("inf", np.diag([1.0, np.inf]), (NonPositiveDefinite, "non-finite")),
    ("-inf", np.diag([-np.inf, 1.0]), (NonPositiveDefinite, "non-finite")),
    # eigenvalues 0 and 2e308: not the finite 0 beside the overflow
    ("1e308_full", np.full((2, 2), 1e308), (NonPositiveDefinite, "non-finite")),
    ("1e-300", 1e-300 * np.eye(2), False),
    ("1e-13", 1e-13 * np.eye(2), False),
    ("semidefinite", np.diag([0.5, 0.0]), False),
    ("definite", [[0.5, 0.1], [0.1, 0.5]], True),
    ("indefinite", np.diag([1.0, -0.1]),
     (NonPositiveDefinite, r"is not positive semidefinite \(offending eigenvalue -1.0")),
    ("asymmetric", [[1.0, 0.5], [0.0, 1.0]], (ValueError, "not symmetric")),
]


@pytest.mark.parametrize("name,M,verdict", DEFINITENESS,
                         ids=[c[0] for c in DEFINITENESS])
def test_one_definiteness_rule_for_H_and_L(name, M, verdict):
    """A quadratic remanent energy is coercive exactly when the same matrix
    as hardening map is definite, and both reject the same matrices."""
    M = np.asarray(M, dtype=float)
    if isinstance(verdict, bool):
        assert Quadratic(M).coercive is verdict
        assert make_tensors(1, 2.0, 1.0, hardening=M).hardening_definite is verdict
        return
    for build in (Quadratic, lambda M: make_tensors(1, 2.0, 1.0, hardening=M)):
        with pytest.raises(verdict[0], match=verdict[1]):
            build(M)
