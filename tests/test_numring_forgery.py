"""Forged certificates: each verify() refusal meets a certificate that a
construction returned, with one field changed so that exactly that check
refuses it.  The original must verify and the forgery must not."""

import pytest

from cyclotwist.exactalg import IntMatrix
from cyclotwist.numring import (
    HigmanCertificate,
    RLattice,
    Z2Module,
    free_z2_module,
    higman_check,
    involution_split,
    lattice_split,
    real_cyclotomic,
    resolve_z2_module,
)


def forge(record, **changes):
    """A new record of the same class with the given fields changed."""
    fields = dict(zip(record._fields, record._values()), **changes)
    return type(record)(**fields)


def scaled_rows(mat, rows, c):
    """mat with the given rows multiplied by c."""
    return IntMatrix.from_rows([[c * x for x in r] if i in rows else r
                                for i, r in enumerate(mat.to_rows())])


def _diag(entries):
    """The diagonal matrix with the given entries."""
    return IntMatrix.from_rows([[x * (i == j) for j in range(len(entries))]
                                for i, x in enumerate(entries)])


def _swap(n, i, j):
    """The permutation matrix of Z^n swapping coordinates i and j."""
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return IntMatrix.from_rows([[int(c == perm[r]) for c in range(n)]
                                for r in range(n)])


def refuses(original, forged):
    assert original.verify()
    assert not forged.verify()


@pytest.fixture(scope="module")
def split():
    # M = R^2 at p = 5, N = 2R (+) R: L_0 and L_1 both nonempty
    deg = real_cyclotomic(5).degree
    gens = [[2 * (j == i) for j in range(2 * deg)] for i in range(deg)] + \
        [[int(j == i) for j in range(2 * deg)] for i in range(deg, 2 * deg)]
    cert = lattice_split(RLattice.free(real_cyclotomic(5), 2), gens)
    assert cert.basis_L0.rows and cert.basis_L1.rows
    return cert


def test_split_refuses_a_doubled_orbit_of_l0(split):
    # still a run of whole orbits, but L_0 (+) L_1 is no longer Z^D
    orbit = range(split.group_order)
    refuses(split, forge(split, basis_L0=scaled_rows(split.basis_L0,
                                                      orbit, 2)))


def test_split_refuses_n_with_a_divisor_of_four(split):
    refuses(split, forge(split, n_basis=split.n_basis.scale(2)))


def test_split_refuses_l1_outside_n(split):
    # swapped, L_0 (+) L_1 is the same Z-basis, but the new L_1 rows are
    # the free part, outside N[G]
    refuses(split, forge(split, basis_L0=split.basis_L1,
                         basis_L1=split.basis_L0))


def test_split_refuses_n_outside_2l0_plus_l1(split):
    # N = M holds L_1, but M[G] is not inside 2 L_0 + L_1
    refuses(split, forge(split, n_basis=IntMatrix.identity(split.base_dim)))


@pytest.fixture(scope="module")
def eigenlines():
    # R^2 at p = 5 with Y = [[1, 2], [0, -1]]: P_+ and P_- both nonempty
    deg = real_cyclotomic(5).degree
    y = [[int(j == i) + 2 * (j == i + deg) for j in range(2 * deg)]
         for i in range(deg)] + \
        [[-(j == i) for j in range(2 * deg)] for i in range(deg, 2 * deg)]
    sp = involution_split(Z2Module(RLattice.free(real_cyclotomic(5), 2),
                                   IntMatrix.from_rows(y)))
    assert sp.basis_plus.rows and sp.basis_minus.rows
    return sp


@pytest.fixture(scope="module")
def regular():
    # the free module at p = 5: everything in P_0, with a Higman certificate
    sp = involution_split(free_z2_module(5, 1))
    assert sp.basis_zero.rows and sp.higman is not None
    return sp


def test_involution_refuses_p_plus_out_of_orbit_order(eigenlines):
    rows = eigenlines.basis_plus.to_rows()
    refuses(eigenlines, forge(eigenlines,
                              basis_plus=IntMatrix.from_rows(rows[::-1])))


def test_involution_refuses_swapped_eigenparts(eigenlines):
    refuses(eigenlines, forge(eigenlines, basis_plus=eigenlines.basis_minus,
                              basis_minus=eigenlines.basis_plus))


def test_involution_refuses_a_doubled_p0_row(regular):
    refuses(regular, forge(regular,
                           basis_zero=scaled_rows(regular.basis_zero, {0}, 2)))


def test_involution_refuses_a_false_higman_certificate(regular):
    module = regular.higman.module
    phi = IntMatrix.identity(module.dim)    # phi + Y phi Y = 2, not 1
    refuses(regular, forge(regular, higman=HigmanCertificate(module, phi)))


def test_higman_check_refuses_phi_not_commuting_with_beta():
    # on the free module Y swaps the halves: the projection P onto the
    # first half is a Higman endomorphism, and P + X with X + Y X Y = 0
    # still solves phi + Y phi Y = 1, so only beta refuses it
    module = free_z2_module(5, 1)
    n, half = module.dim, module.dim // 2
    P = _diag([1] * half + [0] * half)
    X = [[0] * n for _ in range(n)]
    X[0][1], X[half][half + 1] = 1, -1
    phi = P + IntMatrix.from_rows(X)
    Y = module.Y
    assert phi + Y @ phi @ Y == IntMatrix.identity(n)
    assert higman_check(module, P)
    assert not higman_check(module, phi)


@pytest.fixture(scope="module")
def resolution():
    # R/2R at p = 5 with trivial Y: a = b = 1, so f1 and f2 are nonempty
    mod2 = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2],
            [-1, 0, 1, 0], [0, -1, 0, 1]]
    res = resolve_z2_module(5, 1, mod2)
    assert (res.a, res.b) == (1, 1)
    return res


def test_resolution_refuses_f1_not_beta_linear(resolution):
    f1 = resolution.f1
    refuses(resolution, forge(resolution, f1=f1 @ _swap(f1.cols, 0, 1)))


def test_resolution_refuses_f1_not_y_linear(resolution):
    # onto the 1-half of R[Z/2Z]: R-linear, but not Y-linear
    deg = resolution.ring.degree
    half = _diag([1] * deg + [0] * deg)
    refuses(resolution, forge(resolution, f1=resolution.f1 @ half))


def test_resolution_refuses_f2_not_beta_linear(resolution):
    # swap two coordinates of the first R[Z/2Z] block of the middle term
    f2, start = resolution.f2, resolution.a * resolution.ring.degree
    refuses(resolution,
            forge(resolution, f2=f2 @ _swap(f2.cols, start, start + 1)))


def test_resolution_refuses_f2_not_y_linear(resolution):
    # identity on R_+^a, onto the 1-half on each R[Z/2Z]
    deg, a, b = resolution.ring.degree, resolution.a, resolution.b
    half = _diag([1] * (a * deg) + ([1] * deg + [0] * deg) * b)
    refuses(resolution, forge(resolution, f2=resolution.f2 @ half))


def test_resolution_refuses_nonzero_composite(resolution):
    # f2 plus R_+^b -> R_+^a, e_j -> e_0: still equivariant, but f2 f1 != 0
    deg = resolution.ring.degree
    extra = IntMatrix.from_rows([[int(c == r % deg)
                                  for c in range(resolution.f2.cols)]
                                 for r in range(resolution.f2.rows)])
    refuses(resolution, forge(resolution, f2=resolution.f2 + extra))


def test_resolution_refuses_im_f1_other_than_the_relations(resolution):
    refuses(resolution, forge(resolution,
                              relations=resolution.relations.scale(2)))


def test_resolution_refuses_im_f2_other_than_ker_f1(resolution):
    refuses(resolution, forge(resolution, f2=resolution.f2.scale(2)))
