import functools
import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cyclotwist.exactalg import (
    F2Echelon,
    IntMatrix,
    PolyF2,
    PolyZ,
    chebyshev_t2,
    chebyshev_u,
    coordinates,
    is_prime,
    pack_mod2,
    row_basis,
    smith_normal_form,
)
import cyclotwist.exactalg as exactalg
import cyclotwist.numring as numring
from cyclotwist.numring import (
    HigmanCertificate,
    InvolutionError,
    InvolutionSplit,
    RLattice,
    Resolution,
    ResolutionError,
    SplitCertificate,
    Z2Module,
    factor_two,
    free_z2_module,
    galois,
    galois_factor_permutation,
    higman_check,
    idempotents_mod2,
    involution_split,
    involution_split_auto,
    lattice_split,
    real_cyclotomic,
    resolve_z2_module,
)
from cyclotwist.numring import (
    _act,
    _amplify,
    _class,
    _free_z2_blocks,
    _galois_images,
    _higman_endomorphism,
    _orbit,
    _r_linear,
    _row_act,
    _row_basis_rows,
    _same_span,
    _span_profile,
    _unimodular,
)
from exact_oracles import (
    X,
    apply,
    contains_all,
    det_bareiss,
    higman_echelon,
    r_entries,
    rmat_to_z,
    row_act_dense,
    solve_one,
)


def from_vector(v) -> PolyZ:
    """The ring element with power-basis coefficients v."""
    return PolyZ(list(v))


# minimal polynomials of 2cos(2pi/p), lowest coefficient first; checked
# against the numeric product over the conjugate roots
MU_TABLE = {
    3: [1, 1],
    5: [-1, 1, 1],
    7: [-1, -2, 1, 1],
    11: [1, 3, -3, -4, 1, 1],
    13: [-1, 3, 6, -4, -5, 1, 1],
    31: [-1, -8, 28, 84, -126, -252, 210, 330, -165, -220, 66, 78,
         -13, -14, 1, 1],
}

# (f, number of primes over 2): f is the order of 2 in (Z/pZ)^x/{+-1}
SPLITTING_TABLE = {
    3: (1, 1), 5: (2, 1), 7: (3, 1), 11: (5, 1), 13: (6, 1),
    17: (4, 2), 19: (9, 1), 23: (11, 1), 29: (14, 1), 31: (5, 3),
    73: (9, 4), 127: (7, 9), 257: (8, 16),
}


def test_minimal_polynomials_frozen():
    for p, coeffs in MU_TABLE.items():
        ring = real_cyclotomic(p)
        assert ring.mu == PolyZ(coeffs)
        assert ring.degree == (p - 1) // 2
        assert ring.mu.is_monic()


def test_mu_divides_chebyshev():
    # beta = zeta + 1/zeta kills U_{p-1}(X/2), whose roots are all the
    # 2cos(pi k / p)
    for p in MU_TABLE:
        ring = real_cyclotomic(p)
        q, rem = chebyshev_u(p - 1).divmod_exact(ring.mu)
        assert rem.is_zero()
        assert ring.reduce(chebyshev_u(p - 1)).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([5, 7, 11]),
    data=st.data(),
)
def test_mult_matrix_is_multiplicative(p, data):
    ring = real_cyclotomic(p)
    deg = ring.degree
    coeff = st.integers(min_value=-9, max_value=9)
    va = data.draw(st.lists(coeff, min_size=deg, max_size=deg))
    vb = data.draw(st.lists(coeff, min_size=deg, max_size=deg))
    a = from_vector(va)
    b = from_vector(vb)
    prod = ring.mul(a, b)
    assert ring.mul(b, a) == prod
    assert apply(ring.mult_matrix(b), va) == ring.coeff_vector(prod)
    assert apply(ring.mult_matrix(a), vb) == ring.coeff_vector(prod)


def test_beta_matrix_is_multiplication_by_x():
    for p in (5, 7, 13):
        ring = real_cyclotomic(p)
        assert ring.beta_matrix() == ring.mult_matrix(X)
        assert ring.mu.eval_matrix(ring.beta_matrix()).is_zero()


def test_factor_two_structure():
    for p, (f, count) in SPLITTING_TABLE.items():
        fac = factor_two(real_cyclotomic(p))
        assert fac.f == f
        assert fac.count == count
        ring = real_cyclotomic(p)
        prod = PolyF2(1)
        for g in fac.factors:
            assert g.degree() == f
            prod = prod * g
        assert prod == ring.mu.reduce_mod2()
        # the ring holds one factorization, built on first use
        assert ring.two_factorization == fac
        assert ring.two_factorization is ring.two_factorization
        # distinct irreducible factors: squarefree, so 2 is unramified
        for i, g in enumerate(fac.factors):
            for h in fac.factors[i + 1:]:
                assert g.gcd(h).is_one()
            assert g.gcd(g.derivative()).is_one()


def test_idempotents_orthogonal():
    for p in (17, 31):
        fac = factor_two(real_cyclotomic(p))
        f2 = real_cyclotomic(p).mu.reduce_mod2()
        idem = idempotents_mod2(real_cyclotomic(p))
        assert len(idem) == fac.count
        total = PolyF2(0)
        for i, e in enumerate(idem):
            total = total + e
            for j, e2 in enumerate(idem):
                prod = (e * e2) % f2
                assert prod == (e if i == j else PolyF2(0))
            # e_i = 1 exactly in the i-th residue field
            for j, g in enumerate(fac.factors):
                want = PolyF2(1) if i == j else PolyF2(0)
                assert e % g == want
        assert total % f2 == PolyF2(1)


def test_galois_action():
    for p in (7, 11, 13):
        ring = real_cyclotomic(p)
        deg = ring.degree
        assert galois(ring, 1) == IntMatrix.identity(deg)
        # -1 fixes the real subfield
        assert galois(ring, p - 1) == IntMatrix.identity(deg)
        for a in range(1, deg + 1):
            m = galois(ring, a)
            # image of beta itself is 2*T_a(beta/2)
            xvec = ring.coeff_vector(ring.reduce(X))
            assert apply(m, xvec) == ring.coeff_vector(
                ring.reduce(chebyshev_t2(a)))
            # ring automorphism: composition matches index product
            for b in range(1, deg + 1):
                assert m @ galois(ring, b) == galois(ring, a * b)


def test_galois_work_limit(monkeypatch):
    # at p = 11, deg^2 * a = 25 * a with a reduced to 1..5 (8 -> 3, 9 -> 2)
    ring = real_cyclotomic(11)
    monkeypatch.setattr("cyclotwist.numring._MAX_GALOIS_WORK", 50)
    for a in (1, 2, 9, 10):
        assert galois(ring, a).rows == 5
    for a, work in ((3, 75), (5, 125), (8, 75)):
        with pytest.raises(ValueError, match="<= 50 .*got %d" % work):
            galois(ring, a)
    with pytest.raises(ValueError, match="invertible"):
        galois(ring, 0)


def test_galois_is_ring_homomorphism():
    p = 11
    ring = real_cyclotomic(p)
    rng = random.Random(7)
    m = galois(ring, 3)
    for _ in range(10):
        a = from_vector([rng.randint(-5, 5) for _ in range(ring.degree)])
        b = from_vector([rng.randint(-5, 5) for _ in range(ring.degree)])
        ga = from_vector(apply(m, ring.coeff_vector(a)))
        gb = from_vector(apply(m, ring.coeff_vector(b)))
        assert apply(m, ring.coeff_vector(ring.mul(a, b))) == \
            ring.coeff_vector(ring.mul(ga, gb))


def test_galois_factor_permutation():
    for p in (17, 31):
        ring = real_cyclotomic(p)
        deg = ring.degree
        fac = factor_two(ring)
        perms = galois_factor_permutation(ring)
        assert set(perms) == set(range(1, deg + 1))
        for a, perm in perms.items():
            assert sorted(perm) == list(range(fac.count))
            # defining property: sigma_a carries the zero set of f_i to
            # that of f_{perm[i]}, i.e. f_{perm[i]}(sigma_a(beta)) = 0
            # in R/(2, f_i)... checked globally mod 2 via composition
            sa = ring.reduce(chebyshev_t2(a))
            for i in range(fac.count):
                lifted = PolyZ([int(b) for b in fac.factors[i].coeffs()])
                comp = ring.reduce(lifted.compose(sa))
                # f_i(sigma_a beta) vanishes mod (2, f_{perm[i]})
                vec = ring.coeff_vector(comp)
                asf2 = PolyF2(pack_mod2(vec))
                assert (asf2 % fac.factors[perm[i]]) == PolyF2(0)
        # composition and transitivity of the orbit of factor 0
        def rep(a):
            a %= p
            return min(a, p - a)
        for a in perms:
            for b in perms:
                ab = rep(a * b)
                assert [perms[a][perms[b][i]] for i in range(fac.count)] == \
                    list(perms[ab])
        orbit = {perms[a][0] for a in perms}
        assert orbit == set(range(fac.count))


def compose_factor_permutation(ring):
    """The Galois permutation of the factors of 2 by composing each factor
    with sigma_a(beta) over Z, then reducing mod mu and mod 2: the route
    the Horner evaluation in F2[X]/(mu mod 2) replaced, kept as its
    oracle."""
    fact = factor_two(ring)
    f2 = ring.mu.reduce_mod2()
    perms = {}
    for a, image in enumerate(_galois_images(ring), 1):
        mapping = []
        for fi in fact.factors:
            val = ring.reduce(PolyZ(list(fi.coeffs())).compose(image))
            vbits = val.reduce_mod2() % f2
            hits = [j for j, fj in enumerate(fact.factors)
                    if (vbits % fj).is_zero()]
            assert len(hits) == 1
            mapping.append(hits[0])
        perms[a] = tuple(mapping)
    return perms


@pytest.mark.parametrize("p", [p for p in range(3, 32, 2) if is_prime(p)])
def test_factor_permutation_matches_compose_oracle(p):
    ring = real_cyclotomic(p)
    assert galois_factor_permutation(ring) == compose_factor_permutation(ring)


def test_constructions_read_the_ring_from_their_input(monkeypatch):
    # only the entry points handed a bare p build the ring; a split
    # factors 2 once, and a resolution verifies with the ring it keeps
    ring = real_cyclotomic(13)
    deg = ring.degree
    gens13 = [[2 * int(j == i) for j in range(2 * deg)] for i in range(deg)]
    gens13 += [[int(j == i) for j in range(2 * deg)]
               for i in range(deg, 2 * deg)]
    module7 = free_z2_module(7, 1)
    res = resolve_z2_module(5, 1, [[1, 0, 1, 0], [0, 1, 0, 1]])
    calls = Counter()
    for name in ("real_cyclotomic", "factor_two", "lattice_split"):
        def counted(*args, fn=getattr(numring, name), name=name, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(numring, name, counted)
    numring.lattice_split(RLattice.free(ring, 2), gens13)
    assert calls == Counter(lattice_split=1, factor_two=1)
    calls.clear()
    involution_split_auto(module7)
    assert calls["real_cyclotomic"] == 0
    assert 0 < calls["factor_two"] <= calls["lattice_split"]
    calls.clear()
    assert res.verify()
    assert calls["real_cyclotomic"] == 0


def test_library_builds_no_smith_transforms(monkeypatch):
    # the full Smith form, U and V included, is the tests' reference: the
    # solvers and the certificates built on them carry only what they read
    tall = IntMatrix.from_rows([[2, 4, 0], [6, 8, 3], [3, 5, -1], [1, 1, 7]])
    mats = [tall, tall.transpose()]
    bases = [(snf.U @ a).to_rows()[:snf.rank()]
             for a, snf in zip(mats, map(smith_normal_form, mats))]
    ring = real_cyclotomic(13)
    deg = ring.degree
    gens13 = [[2 * int(j == i) for j in range(2 * deg)] for i in range(deg)]
    gens13 += [[int(j == i) for j in range(2 * deg)]
               for i in range(deg, 2 * deg)]
    # R/2R at p = 5 with trivial Y: relations 2 and Y - 1
    mod2 = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2],
            [-1, 0, 1, 0], [0, -1, 0, 1]]

    def refused(A):
        raise AssertionError("smith_normal_form has a library caller")

    monkeypatch.setattr(exactalg, "smith_normal_form", refused)
    for a, basis in zip(mats, bases):
        assert row_basis(a) == basis
        batch = a.to_rows() + [[1] * a.cols, [2] * a.cols]
        xs = coordinates(a, batch)
        assert all(x is not None for x in xs[:a.rows])
        for x, w in zip(xs, batch):
            assert x is None or apply(a.transpose(), x) == w
    assert lattice_split(RLattice.free(ring, 2), gens13).verify()
    assert involution_split(free_z2_module(5, 1)).verify()
    res = resolve_z2_module(5, 1, mod2)
    assert (res.a, res.b) == (1, 1) and res.verify()


def test_resolution_verify_refuses_non_injective_f2():
    # M = 0 at p = 5 with f1 the identity of R[Z/2Z] and f2 = 0 on R_+:
    # equivariant, composite zero, im f1 = relations and im f2 = 0 =
    # ker f1, so only the injectivity check can refuse it
    ring = real_cyclotomic(5)
    one = IntMatrix.identity(4)
    assert not Resolution(ring, 1, one, 0, 1, one,
                          IntMatrix.zeros(2, 4)).verify()


def test_lattice_split_trivial_cases():
    for p, rank in ((5, 1), (5, 2), (7, 2)):
        ring = real_cyclotomic(p)
        M = RLattice.free(ring, rank)
        d = M.dim
        # N = M: nothing survives in the quotient
        full = IntMatrix.identity(d).to_rows()
        cert = lattice_split(M, full)
        assert cert.basis_L0.rows == 0
        assert cert.basis_L1.rows == cert.ambient_dim
        assert cert.verify()
        # N = 2M: the quotient is everything
        cert = lattice_split(M, IntMatrix.identity(d).scale(2).to_rows())
        assert cert.basis_L0.rows == cert.ambient_dim
        assert cert.basis_L1.rows == 0
        assert cert.verify()


def test_lattice_split_mixed_components():
    # M = R^2, N = 2R (+) R: quotient R/2R in the first slot
    p = 5
    ring = real_cyclotomic(p)
    deg = ring.degree
    M = RLattice.free(ring, 2)
    gens = []
    for i in range(deg):
        row = [0] * M.dim
        row[i] = 2
        gens.append(row)
    for i in range(deg):
        row = [0] * M.dim
        row[deg + i] = 1
        gens.append(row)
    cert = lattice_split(M, gens)
    assert cert.group_order == deg
    assert cert.basis_L0.rows == deg * cert.group_order
    assert cert.basis_L0.rows + cert.basis_L1.rows == cert.ambient_dim
    assert cert.verify()


def test_lattice_split_prime_product_p31():
    # N = product of two of the three primes over 2; index 2^10 in R,
    # so the free part of the amplified quotient has rank 10 * 15
    p = 31
    ring = real_cyclotomic(p)
    fac = factor_two(ring)
    f1 = PolyZ([int(b) for b in fac.factors[0].coeffs()])
    f2 = PolyZ([int(b) for b in fac.factors[1].coeffs()])
    gens = [ring.coeff_vector(ring.reduce(g))
            for g in (PolyZ([4]), f1.scale(2), f2.scale(2), f1 * f2)]
    M = RLattice.free(ring, 1)
    cert = lattice_split(M, gens)
    assert abs(det_bareiss(cert.n_basis)) == 2 ** 10
    assert cert.basis_L0.rows == 150
    assert cert.verify()


def test_split_verify_rejects_basis_that_is_not_a_submodule():
    # N = 2R + f_1 R at p = 17.  In each copy, the rows of the Z-basis
    # adapted to N (from the Smith form of n_basis) with divisor 2 and
    # with divisor 1 satisfy every lattice claim of the certificate, but
    # neither span is stable under beta
    p = 17
    ring = real_cyclotomic(p)
    f1 = PolyZ([int(b) for b in factor_two(ring).factors[0].coeffs()])
    cert = lattice_split(RLattice.free(ring, 1),
                         [ring.coeff_vector(PolyZ([2])), ring.coeff_vector(f1)])
    snf = smith_normal_form(cert.n_basis)
    d, D = cert.base_dim, cert.ambient_dim
    parts = {1: [], 2: []}
    for s, row in zip(snf.diagonal(), (snf.U @ cert.n_basis).to_rows()):
        parts[s].append([x // s for x in row])

    def amplified(rows):
        return IntMatrix.from_rows(
            [[0] * (g * d) + row + [0] * (D - (g + 1) * d)
             for g in range(cert.group_order) for row in rows])

    forged = SplitCertificate(cert.lattice, amplified(parts[2]),
                              amplified(parts[1]), cert.n_basis)
    assert cert.verify()
    assert not forged.verify()


def _random_unimodular(rng, n, shears=4):
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for k in range(n):
            t[i][k] += c * t[j][k]
        # inverse picks up the opposite shear on the other side
        for k in range(n):
            tinv[k][j] -= c * tinv[k][i]
    return IntMatrix.from_rows(t), IntMatrix.from_rows(tinv)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 31])
def test_amplify_matches_horner_oracle(p):
    # the recurrence blocks against 2T_a(X/2) mod mu Horner-evaluated at
    # beta, on free lattices and their conjugates by unimodular matrices
    ring = real_cyclotomic(p)
    rng = random.Random(p)
    for rank in (1, 2):
        beta = RLattice.free(ring, rank).beta
        T, Tinv = _random_unimodular(rng, beta.rows, shears=2 * beta.rows)
        for b in (beta, T @ beta @ Tinv):
            assert _amplify(ring, b) == [t.eval_matrix(b)
                                         for t in _galois_images(ring)]


def test_lattice_split_random_pairs():
    rng = random.Random(0x5EED)
    cases = 0
    while cases < 20:
        p = rng.choice([5, 7])
        rank = rng.choice([1, 2])
        ring = real_cyclotomic(p)
        M0 = RLattice.free(ring, rank)
        d = M0.dim
        T, Tinv = _random_unimodular(rng, d)
        assert T @ Tinv == IntMatrix.identity(d)
        M = RLattice(ring, rank, T @ M0.beta @ Tinv)
        gens = IntMatrix.identity(d).scale(2).to_rows()
        for _ in range(rng.randint(0, 2)):
            gens.append([rng.randint(-2, 2) for _ in range(d)])
        cert = lattice_split(M, gens)
        assert cert.verify()
        # rank of the free part = log2 of the sublattice index, per copy
        index = abs(det_bareiss(cert.n_basis))
        k = index.bit_length() - 1
        assert index == 2 ** k
        assert cert.basis_L0.rows == k * cert.group_order
        cases += 1


def test_lattice_split_names_the_first_coordinate_outside_n():
    # 2M <= N is decided on the Smith diagonal of N; on failure the error
    # names the first i with 2 e_i outside N, as a span scan finds it
    rng = random.Random(0x2C0)
    outcomes = Counter()
    for _ in range(40):
        ring = real_cyclotomic(rng.choice([5, 7]))
        M = RLattice.free(ring, rng.choice([1, 2]))
        d = M.dim
        gens = [[rng.choice([1, 2, 4, 6, 8]) if k == j else 0
                 for k in range(d)] for j in range(d) if rng.random() < 0.8]
        if rng.random() < 0.5:
            gens.append([rng.randint(-2, 2) for _ in range(d)])
        orbits = [v for g in gens for v in _orbit(g, [M.beta], ring.degree)]
        outside = [i for i in range(d) if not contains_all(
            orbits, [[2 * int(k == i) for k in range(d)]])]
        if outside:
            with pytest.raises(ValueError, match="2M <= N fails at "
                               "coordinate %d$" % outside[0]):
                lattice_split(M, gens)
        else:
            assert lattice_split(M, gens).verify()
        outcomes[outside[0] if outside else None] += 1
    assert outcomes[None] >= 10 and len(outcomes) >= 4


# A free rank-2 lattice at p = 13 conjugated by a unimodular matrix,
# with N of index 2^6.  Its free R-basis needs 3,329 candidates, past
# the pairs e_i +- e_j; a randomized search gave up on it after 20,000.
CONJUGATED_P13_BETA = [
    [0, 1, 0, -6, -1, 0, 1, -2, -6, 5, 5, -1],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, -3, -6, 4, 5, -1, 0, 1, -1, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1],
    [0, 0, 0, -5, 0, 0, 1, -2, -5, 4, 5, -1],
]
CONJUGATED_P13_N_GENS = [
    [2, 0, 0, 0, 0, 0, 0, 2, -2, 0, 0, -2],
    [0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 1],
    [2, 0, 2, 0, 2, 2, -1, 1, -2, 0, 0, -2],
    [0, 2, 4, 0, 4, 4, -1, -1, 0, 1, 1, 0],
]


def test_lattice_split_conjugated_p13_past_the_pairs():
    M = RLattice(real_cyclotomic(13), 2,
                 IntMatrix.from_rows(CONJUGATED_P13_BETA))
    cert = lattice_split(M, CONJUGATED_P13_N_GENS)
    assert (cert.basis_L0.rows, cert.basis_L1.rows) == (36, 36)
    assert cert.verify()


# Oracles for the mod-2 actions of lattice_split.  The split applies
# e_i(beta) and e_i(sigma_a beta) on M/N as the integer matrices
# d_i(beta) and d_{perm_a(i)}(beta) followed by one projection; the
# oracle evaluates e_i at the F2 matrix that beta induces on M/N, and
# inverts the cofactor of each idempotent by the extended Euclidean
# algorithm instead of by Fermat's power.

def _f2_vec_act(v_bits, rows):
    out, i = 0, 0
    while v_bits:
        if v_bits & 1:
            out ^= rows[i]
        v_bits >>= 1
        i += 1
    return out


def _f2_poly_eval(poly, rows, n):
    """poly(A) for the F2 matrix with packed rows A, by Horner."""
    res = (0,) * n
    for c in reversed(poly.coeffs()):
        res = tuple(_f2_vec_act(r, rows) for r in res)
        if c:
            res = tuple(r ^ (1 << k) for k, r in enumerate(res))
    return res


class _Quotient:
    """M/N in its own coordinates: the non-pivot columns of the reduced
    echelon of N mod 2, read off the normal form of an integer vector."""

    def __init__(self, d, n_rows):
        self.ech = F2Echelon(pack_mod2(v) for v in n_rows)
        self.ech.reduce()
        self.dim = d
        self.free_cols = [j for j in range(d) if j not in self.ech.rows]
        self.qdim = len(self.free_cols)

    def project_vec(self, v):
        b = _class(self.ech, v)
        return sum(1 << k for k, j in enumerate(self.free_cols)
                   if b >> j & 1)


def _induced_matrix(Q, A):
    """F2 matrix of the endomorphism A on the quotient, one row per
    quotient coordinate, through the unit vector lifting it."""
    rows = []
    for j in Q.free_cols:
        unit = [0] * Q.dim
        unit[j] = 1
        rows.append(Q.project_vec(_row_act(A, unit)))
    return tuple(rows)


def _split_lattices():
    """(p, M, n_gens) for the lattices the split tests build."""
    rng = random.Random(0xF2)
    ring5 = real_cyclotomic(5)
    mixed = [[2 if j == i else 0 for j in range(4)] for i in range(2)] + \
        [[1 if j == i else 0 for j in range(4)] for i in range(2, 4)]
    ring7 = real_cyclotomic(7)
    T, Tinv = _random_unimodular(rng, 6)
    M7 = RLattice(ring7, 2, T @ RLattice.free(ring7, 2).beta @ Tinv)
    gens7 = IntMatrix.identity(6).scale(2).to_rows() + \
        [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
    ring17 = real_cyclotomic(17)
    f1 = PolyZ([int(b) for b in factor_two(ring17).factors[0].coeffs()])
    ring31 = real_cyclotomic(31)
    g1, g2 = [PolyZ([int(b) for b in g.coeffs()])
              for g in factor_two(ring31).factors[:2]]
    return [
        (5, RLattice.free(ring5, 2), mixed),
        (7, M7, gens7),
        (13, RLattice(real_cyclotomic(13), 2,
                      IntMatrix.from_rows(CONJUGATED_P13_BETA)),
         CONJUGATED_P13_N_GENS),
        (17, RLattice.free(ring17, 1),
         [ring17.coeff_vector(PolyZ([2])), ring17.coeff_vector(f1)]),
        (31, RLattice.free(ring31, 1),
         [ring31.coeff_vector(ring31.reduce(g)) for g in
          (PolyZ([4]), g1.scale(2), g2.scale(2), g1 * g2)]),
    ]


def test_idempotent_actions_match_f2_matrix_oracle():
    rng = random.Random(0x1DE)
    for p, M, gens in _split_lattices():
        ring, d = M.ring, M.dim
        Q = _Quotient(d, _row_basis_rows(
            v for g in gens for v in _orbit(g, [M.beta], ring.degree)))
        assert 0 < Q.qdim < d
        idem = idempotents_mod2(ring)
        dbase = [PolyZ([int(c) for c in e.coeffs()]).eval_matrix(M.beta)
                 for e in idem]
        perms = galois_factor_permutation(ring)
        # copy a = 1 is beta itself, with the identity permutation
        assert _amplify(ring, M.beta)[0] == M.beta
        assert perms[1] == tuple(range(len(idem)))
        vecs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(6)]
        for a, block in enumerate(_amplify(ring, M.beta), 1):
            induced = _induced_matrix(Q, block)
            for i, e in enumerate(idem):
                E = _f2_poly_eval(e, induced, Q.qdim)
                for v in vecs:
                    assert _f2_vec_act(Q.project_vec(v), E) == \
                        Q.project_vec(_row_act(dbase[perms[a][i]], v)), \
                        (p, a, i)


def test_class_mod_n_is_zero_exactly_on_n():
    # the normal form of v mod 2 in the reduced echelon of N mod 2 is 0
    # iff v solves in a Z-basis H of N, and is constant on cosets of N
    rng = random.Random(0xC1A55)
    seen = Counter()
    for p, M, gens in _split_lattices():
        d = M.dim
        H = _row_basis_rows(v for g in gens
                            for v in _orbit(g, [M.beta], M.ring.degree))
        Q = F2Echelon(pack_mod2(v) for v in H)
        Q.reduce()

        def member():
            return _row_act(IntMatrix.from_rows(H),
                            [rng.randint(-3, 3) for _ in H])

        vecs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(20)]
        # members of N, and each moved by one unit vector
        vecs += [member() for _ in range(10)]
        vecs += [[x + (j == i % d) for j, x in enumerate(v)]
                 for i, v in enumerate(vecs[-10:])]
        for v, x in zip(vecs, coordinates(IntMatrix.from_rows(H), vecs)):
            assert (_class(Q, v) == 0) == (x is not None), (p, v)
            seen[x is None] += 1
            n = member()
            assert _class(Q, [a + b for a, b in zip(v, n)]) == \
                _class(Q, v), (p, v, n)
    assert seen[True] and seen[False]


def _xgcd_f2(a, b):
    """Extended gcd over GF(2)[X]: (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = PolyF2(1), PolyF2(0)
    t0, t1 = PolyF2(0), PolyF2(1)
    while not r1.is_zero():
        q = r0 // r1
        r0, r1 = r1, r0 + q * r1
        s0, s1 = s1, s0 + q * s1
        t0, t1 = t1, t0 + q * t1
    return r0, s0, t0


def test_idempotents_match_xgcd_oracle(monkeypatch):
    # build each ring and factorization of 2 once, for both routes
    for name in ("real_cyclotomic", "factor_two"):
        monkeypatch.setattr(numring, name,
                            functools.lru_cache(None)(getattr(numring, name)))
    for p in range(3, 212, 2):
        if not is_prime(p):
            continue
        fac = numring.factor_two(numring.real_cyclotomic(p))
        f2 = numring.real_cyclotomic(p).mu.reduce_mod2()
        oracle = []
        for g in fac.factors:
            m = f2 // g
            gg, s, _ = _xgcd_f2(m, g)
            assert gg.is_one()
            oracle.append((s * m) % f2)
        assert idempotents_mod2(numring.real_cyclotomic(p)) == oracle, p


def test_involution_split_trivial_y():
    p = 5
    ring = real_cyclotomic(p)
    M = RLattice.free(ring, 1)
    mod = Z2Module(M, IntMatrix.identity(M.dim))
    sp = involution_split(mod)
    assert sp.basis_plus.rows == M.dim * sp.group_order
    assert sp.basis_minus.rows == 0
    assert sp.basis_zero.rows == 0
    assert sp.higman is None
    assert sp.verify()


def test_involution_split_regular_module():
    # the free R[Z/2Z]-module of rank 1: no eigenparts, everything
    # projective, and the Higman endomorphism certifies freeness
    p = 5
    mod = free_z2_module(p, 1)
    sp = involution_split(mod)
    assert sp.basis_plus.rows == 0
    assert sp.basis_minus.rows == 0
    assert sp.basis_zero.rows == mod.dim * sp.group_order
    assert sp.higman is not None
    assert sp.higman.verify()
    assert sp.verify()


def test_involution_split_two_eigenlines():
    # R^2 with Y = [[1, 2], [0, -1]] over R: conjugate of diag(1, -1),
    # so both eigenparts are full R-lines and nothing is left over
    p = 5
    ring = real_cyclotomic(p)
    deg = ring.degree
    M = RLattice.free(ring, 2)
    ident = IntMatrix.identity(deg)
    rows = []
    for i in range(deg):
        rows.append(list(ident.row(i)) + [2 * x for x in ident.row(i)])
    for i in range(deg):
        rows.append([0] * deg + [-x for x in ident.row(i)])
    mod = Z2Module(M, IntMatrix.from_rows(rows))
    sp = involution_split(mod)
    assert sp.basis_plus.rows == deg * sp.group_order
    assert sp.basis_minus.rows == deg * sp.group_order
    assert sp.basis_zero.rows == 0
    assert sp.verify()
    # padding by one regular module shifts only the projective part
    sp1 = involution_split(mod, padding=1)
    assert sp1.basis_plus.rows == deg * sp1.group_order
    assert sp1.basis_zero.rows == 2 * deg * sp1.group_order
    assert sp1.higman is not None
    assert sp1.verify()


def test_involution_verify_ties_higman_certificate_to_p0():
    # a valid Higman certificate for a free module of the right size, but
    # with a Y that the stored basis of P_0 does not carry to P_0's Y
    for p, copies in ((5, 1), (5, 2), (7, 1)):
        sp = involution_split(free_z2_module(p, copies))
        other = free_z2_module(p, sp.higman.module.lattice.rank // 2)
        deg, n = sp.group_order, other.dim
        # projection onto the 1-component of each regular summand
        phi = IntMatrix.from_rows([[int(i == j and i % (2 * deg) < deg)
                                    for j in range(n)] for i in range(n)])
        forged = InvolutionSplit(
            sp.padding, sp.ambient, sp.basis_plus, sp.basis_minus,
            sp.basis_zero, HigmanCertificate(other, phi), sp.zero_orbit_basis)
        assert forged.higman.verify() and sp.verify()
        assert not forged.verify()


def test_involution_split_auto_reports_padding():
    p = 5
    mod = free_z2_module(p, 1)
    sp = involution_split_auto(mod)
    assert sp.padding == 0
    assert sp.verify()


def test_involution_split_auto_refuses_padding_past_the_limit(monkeypatch):
    # with no Higman endomorphism every padding fails; at p = 7 rank 2 is
    # Z-dimension 18 and each padding adds 18, so under a limit of 18 the
    # search stops at padding 1 without building it
    calls = []
    monkeypatch.setattr(numring, "_higman_endomorphism",
                        lambda module: calls.append(module.lattice.rank))
    monkeypatch.setitem(numring._MAX_DIM, "involution", 18)
    with pytest.raises(ValueError) as exc:
        involution_split_auto(free_z2_module(7, 1))
    assert str(exc.value) == ("numring involution works in Z-dimension 36, "
                              "over the limit 18")
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    lambda: lattice_split(RLattice.free(real_cyclotomic(67), 1), []),
    lambda: involution_split(free_z2_module(19, 1), padding=1),
    lambda: resolve_z2_module(3, 129, []),
], ids=["split", "involution", "resolve"])
def test_constructions_refuse_past_their_limit(build):
    with pytest.raises(ValueError, match="over the limit"):
        build()


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_r_linear_orbits_match_entrywise_oracle(p):
    # an R-linear map of R^k from the beta-orbits of its k basis images,
    # against the matrix built entry by entry from ring elements (of any
    # degree, so the oracle reduces them mod mu)
    ring = real_cyclotomic(p)
    rng = random.Random(p)
    for k in (0, 1, 2, 3):
        for _ in range(5):
            rmat = [[PolyZ([rng.randint(-3, 3) for _ in range(
                rng.randint(1, 2 * ring.degree + 1))]) for _ in range(k)]
                for _ in range(k)]
            images = [[x for a in row for x in ring.coeff_vector(a)]
                      for row in rmat]
            assert _r_linear(RLattice.free(ring, k), images) == \
                rmat_to_z(ring, rmat, k), (p, rmat)


@pytest.mark.parametrize("p", [17, 31])
def test_correction_parity_in_f2_matches_integer_route(p):
    # lattice_split's stage 2 reads the parity of e_j c mod (2, mu) in
    # F2[X]; the route it replaced reduced the 0/1 lift d_j of e_j times
    # c over Z and took each coefficient mod 2.  Every c of f bits
    ring = real_cyclotomic(p)
    mu2, f = ring.mu.reduce_mod2(), ring.two_factorization.f
    for e in idempotents_mod2(ring):
        d_j = PolyZ(e.coeffs())
        for bits in range(1 << f):
            c = PolyZ([(bits >> i) & 1 for i in range(f)])
            oracle = [a % 2 for a in ring.coeff_vector(ring.reduce(d_j * c))]
            parity = (e * PolyF2(bits) % mu2).bits
            assert [parity >> i & 1 for i in range(ring.degree)] == oracle


def test_higman_check_direct():
    p = 5
    mod = free_z2_module(p, 1)
    deg = mod.lattice.ring.degree
    d = mod.dim
    # phi = projection onto the 1-component: phi + Y phi Y = 1 and it
    # commutes with beta
    rows = []
    for i in range(d):
        row = [0] * d
        if i < deg:
            row[i] = 1
        rows.append(row)
    phi = IntMatrix.from_rows(rows)
    assert higman_check(mod, phi)
    assert not higman_check(mod, IntMatrix.identity(d))
    assert not higman_check(mod, IntMatrix.zeros(d, d))


def dense_higman(ring, y_r):
    """phi with phi + Y phi Y = 1 over R from the dense integer system of
    k^2 * deg unknowns, solved by the Smith form, or None: the route the
    mod-2 solve and lift replaced, kept as its oracle."""
    k, deg = len(y_r), ring.degree
    nunk = k * k * deg
    sys_rows = [[0] * nunk for _ in range(nunk)]
    rhs = [0] * nunk
    for s in range(k):
        for t in range(k):
            base_eq = (s * k + t) * deg
            if s == t:
                rhs[base_eq] = 1
            for u in range(k):
                for v in range(k):
                    base_un = (u * k + v) * deg
                    mm = ring.mult_matrix(ring.reduce(y_r[s][u] * y_r[v][t]))
                    for cc in range(deg):
                        for c2 in range(deg):
                            val = mm.at(cc, c2)
                            if u == s and v == t and cc == c2:
                                val += 1
                            sys_rows[base_eq + cc][base_un + c2] += val
    sol = solve_one(IntMatrix.from_rows(sys_rows), rhs)
    if sol is None:
        return None
    return rmat_to_z(ring, [[PolyZ(sol[(u * k + v) * deg:
                                       (u * k + v + 1) * deg])
                             for v in range(k)] for u in range(k)], k)


def _rmat_mul(ring, a, b):
    return [[ring.reduce(sum((a[i][j] * b[j][t] for j in range(len(b))),
                             PolyZ([0])))
             for t in range(len(b[0]))] for i in range(len(a))]


def _r_conjugate(ring, y_r, rng):
    """A y_r A^-1 for A a product of three elementary matrices over R."""
    k = len(y_r)
    a = [[PolyZ([int(i == j)]) for j in range(k)] for i in range(k)]
    a_inv = [row[:] for row in a]
    for _ in range(3):
        i, j = rng.sample(range(k), 2)
        r = PolyZ([rng.randint(-2, 2) for _ in range(ring.degree)])
        e = [[PolyZ([int(s == t)]) for t in range(k)] for s in range(k)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = r, -r
        a, a_inv = _rmat_mul(ring, a, e), _rmat_mul(ring, e_inv, a_inv)
    return _rmat_mul(ring, _rmat_mul(ring, a, y_r), a_inv)


def test_higman_solve_matches_dense_oracle():
    # Y on R^k: the Y of P_0 for free modules (solvable), and +-1 on
    # each coordinate (L(phi) is 2 phi on the diagonal, so unsolvable),
    # each with an R-unimodular conjugate
    rng = random.Random(0x4167)
    cases = []
    for p, copies in ((5, 1), (5, 2), (7, 1)):
        sp = involution_split(free_z2_module(p, copies))
        cases.append((real_cyclotomic(p), r_entries(sp.higman.module)))
    for p in (5, 7):
        ring = real_cyclotomic(p)
        for signs in ((1,), (-1, -1), (1, -1)):
            cases.append((ring, [[PolyZ([x if i == j else 0])
                                  for j in range(len(signs))]
                                 for i, x in enumerate(signs)]))
    cases += [(ring, _r_conjugate(ring, y_r, rng))
              for ring, y_r in cases if len(y_r) > 1]
    solvable = 0
    for ring, y_r in cases:
        k = len(y_r)
        module = Z2Module(RLattice.free(ring, k), rmat_to_z(ring, y_r, k))
        phi = _higman_endomorphism(module)
        oracle = dense_higman(ring, y_r)
        assert (phi is None) == (oracle is None)
        if phi is not None:
            assert higman_check(module, phi)
            assert higman_check(module, oracle)
            solvable += 1
    assert (len(cases), solvable) == (16, 6)


def _random_y(ring, rng, k):
    """A y_r A^-1 over R^k for y_r block diagonal: 1 x 1 blocks +-1 and
    2 x 2 blocks [[1, r], [0, -1]], r a random ring element.  Higman's
    equation is solvable iff there is no 1 x 1 block and every r is a
    unit in each field of R/2R."""
    one, zero = PolyZ([1]), PolyZ([0])
    y = [[zero] * k for _ in range(k)]
    i = 0
    while i < k:
        if i + 1 < k and rng.random() < 0.8:
            r = PolyZ([rng.randint(-3, 3) for _ in range(ring.degree)])
            y[i][i], y[i][i + 1], y[i + 1][i + 1] = one, r, -one
            i += 2
        else:
            y[i][i] = PolyZ([rng.choice((1, -1))])
            i += 1
    return _r_conjugate(ring, y, rng) if k > 1 else y


def test_higman_normal_form_matches_echelon_oracle():
    # the echelon over all k^2 * deg unknowns decides solvability; the
    # normal form must agree, and each phi it returns must pass Higman's
    # check.  p = 17 and 31 have two and three fields in R/2R, so an r
    # can be a unit in some and zero in others
    rng = random.Random(0x4197)
    verdicts = Counter()
    for p, ks in ((3, (1, 2, 4, 6)), (5, (1, 2, 3, 4)), (7, (2, 3)),
                  (17, (2, 3)), (31, (2,))):
        ring = real_cyclotomic(p)
        for _ in range(12):
            k = rng.choice(ks)
            y_r = _random_y(ring, rng, k)
            module = Z2Module(RLattice.free(ring, k),
                              rmat_to_z(ring, y_r, k))
            phi = _higman_endomorphism(module)
            oracle = higman_echelon(ring, y_r)
            assert (phi is None) == (oracle is None), (p, y_r)
            if phi is not None:
                assert higman_check(module, phi)
                assert higman_check(module, oracle)
            verdicts[p, phi is None] += 1
    for p in (3, 5, 7, 17, 31):
        assert verdicts[p, True] and verdicts[p, False], verdicts


def test_higman_verdicts_in_padded_involutions(monkeypatch):
    # every Higman solve of the involution flow, on the trivial and sign
    # modules and the two eigenlines padded by regular summands, and on
    # free modules, gives the echelon oracle's verdict
    calls = []
    solve = numring._higman_endomorphism

    def checked(module):
        phi = solve(module)
        assert (phi is None) == (higman_echelon(
            module.lattice.ring, r_entries(module)) is None)
        calls.append(phi is None)
        return phi

    monkeypatch.setattr(numring, "_higman_endomorphism", checked)
    for p in (3, 5, 7):
        ring = real_cyclotomic(p)
        deg = ring.degree
        line = RLattice.free(ring, 1)
        eigen = [[int(i == j) + 2 * (j == i + deg) for j in range(2 * deg)]
                 for i in range(deg)]
        eigen += [[-int(i == j) for j in range(2 * deg)]
                  for i in range(deg, 2 * deg)]
        modules = [Z2Module(line, IntMatrix.identity(deg)),
                   Z2Module(line, IntMatrix.identity(deg).scale(-1)),
                   Z2Module(RLattice.free(ring, 2),
                            IntMatrix.from_rows(eigen)),
                   free_z2_module(p, 1)]
        for mod in modules:
            for padding in (0, 1, 2):
                assert involution_split(mod, padding).verify()
    assert len(calls) == 27 and not any(calls)


_NOT_A_MODULE = "mu(beta) != 0: not an R-module structure"


def _mu_verdict(ring, rank, beta):
    """RLattice's verdict on mu(beta) = 0: True, or its refusal message."""
    try:
        RLattice(ring, rank, beta)
    except ValueError as exc:
        return str(exc)
    return True


def _permuted(m: IntMatrix, perm) -> IntMatrix:
    rows = m.to_rows()
    return IntMatrix.from_rows([[rows[i][j] for j in perm] for i in perm])


@pytest.mark.parametrize("p", [5, 7, 13])
def test_mu_check_by_blocks_matches_whole_matrix(p):
    # RLattice evaluates mu on each block of indices that beta's nonzero
    # entries join; the oracle evaluates it on the whole matrix.  Free
    # lattices (rank copies of one block), their conjugates (one dense
    # block), blocks interleaved by a permutation, a free block beside a
    # conjugated one, and each of these with one entry changed
    ring = real_cyclotomic(p)
    rng = random.Random(p)
    refused = Counter()
    for rank in (1, 2, 3):
        free = RLattice.free(ring, rank).beta
        d = free.rows
        T, Tinv = _random_unimodular(rng, d, shears=rng.randint(1, 2 * d))
        perm = list(range(d))
        rng.shuffle(perm)
        h = ring.degree
        T1, T1inv = _random_unimodular(rng, h, shears=h) if h > 1 else (
            IntMatrix.identity(1), IntMatrix.identity(1))
        mixed = numring._block_diag(
            [T1 @ RLattice.free(ring, 1).beta @ T1inv]
            + [RLattice.free(ring, 1).beta] * (rank - 1))
        for kind, beta in (("free", free), ("conjugated", T @ free @ Tinv),
                           ("interleaved", _permuted(free, perm)),
                           ("mixed", mixed)):
            assert ring.mu.eval_matrix(beta).is_zero()
            assert _mu_verdict(ring, rank, beta) is True
            for _ in range(4):
                rows = beta.to_rows()
                i, j = rng.randrange(d), rng.randrange(d)
                rows[i][j] += rng.choice((-1, 1, 2))
                bad = IntMatrix.from_rows(rows)
                whole = ring.mu.eval_matrix(bad).is_zero() or _NOT_A_MODULE
                assert _mu_verdict(ring, rank, bad) == whole
                refused[kind] += whole == _NOT_A_MODULE
    assert refused == {"free": 12, "conjugated": 12, "interleaved": 12,
                       "mixed": 12}


def test_mu_check_of_a_free_lattice_takes_one_block(monkeypatch):
    # the Higman module of the free involution at p = 19 is 18 copies of
    # one 9 x 9 block: mu is evaluated once, on that block, not on the
    # 162 x 162 matrix
    ring = real_cyclotomic(19)
    sizes = []
    evaluate = PolyZ.eval_matrix
    monkeypatch.setattr(PolyZ, "eval_matrix",
                        lambda f, m: sizes.append(m.rows) or evaluate(f, m))
    RLattice.free(ring, 18)
    assert sizes == [9]


def test_unimodular_by_blocks_matches_one_elimination():
    # rows in disjoint column groups, each block unimodular or not, tall
    # or not, with zero rows and a row meeting every column mixed in;
    # one block at fault must make the whole stack fail.  Grouping starts
    # at 32 columns, so most stacks are that wide
    rng = random.Random(0xB10C)
    seen = Counter()
    for trial in range(400):
        ncols = rng.choice((rng.randint(1, 14), rng.randint(32, 48),
                            rng.randint(32, 48)))
        cols = list(range(ncols))
        rng.shuffle(cols)
        rows, bad_block = [], rng.randrange(4)
        for b in range(rng.randint(1, 4)):
            width = min(rng.randint(1, 4 if ncols < 32 else 12), len(cols))
            if not width:
                break
            own, cols = cols[:width], cols[width:]
            t, _ = _random_unimodular(rng, width) if width > 1 else (
                IntMatrix.identity(1), None)
            block = t.to_rows()[:rng.randint(1, width)]
            if b == bad_block:
                kind = rng.choice(("double", "tall", "random"))
                if kind == "double":
                    block[0] = [2 * x for x in block[0]]
                elif kind == "tall":
                    block.append([rng.randint(-2, 2) for _ in range(width)])
                else:
                    block = [[rng.randint(-3, 3) for _ in range(width)]
                             for _ in range(rng.randint(1, width))]
            for r in block:
                row = [0] * ncols
                for j, x in zip(own, r):
                    row[j] = x
                rows.append(row)
        if rng.random() < 0.1:
            rows.append([0] * ncols)
        if rng.random() < 0.1:
            rows.append([rng.choice((-1, 1)) for _ in range(ncols)])
        rng.shuffle(rows)
        diag = numring.elementary_divisors(numring._mat(rows, ncols))
        want = len(diag) == len(rows) and all(s == 1 for s in diag)
        assert _unimodular(rows, ncols) == want, rows
        nonzero = [s for s in diag if s]
        assert _span_profile(rows, ncols) == (len(nonzero), prod(nonzero))
        seen[want] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_row_act_reads_only_nonzero_entries():
    rng = random.Random(0x50A)
    for _ in range(200):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.random()
        A = IntMatrix.from_rows([[rng.randint(-5, 5)
                                  if rng.random() < density else 0
                                  for _ in range(m)] for _ in range(n)]) \
            if n else IntMatrix.zeros(0, m)
        v = [rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(n)]
        assert _row_act(A, v) == row_act_dense(A, v)
        blocks = [A, IntMatrix.identity(3), A]
        w = v + [0, 0, 0] + [rng.randint(-1, 1) for _ in range(n)]
        assert _act(blocks, w) == (row_act_dense(A, v) + [0, 0, 0]
                                   + row_act_dense(A, w[n + 3:]))


def test_free_basis_prefilter_skips_only_failing_smith_forms(monkeypatch):
    # every Smith form of the free involution at p = 13 sees rows that are
    # independent mod 2; each free-basis search, rerun with the mod-2 test
    # switched off, picks the same basis in more Smith forms
    smith, search = numring._unimodular, numring._free_r_basis
    tests, searches = [], []

    def counted(rows, ncols):
        tests.append(F2Echelon(pack_mod2(r) for r in rows).rank == len(rows))
        return smith(rows, ncols)

    def recorded(*args):
        before = len(tests)
        chosen = search(*args)
        searches.append((args, chosen, len(tests) - before))
        return chosen

    monkeypatch.setattr(numring, "_unimodular", counted)
    monkeypatch.setattr(numring, "_free_r_basis", recorded)
    involution_split(free_z2_module(13, 1))
    assert all(tests)

    class Unfiltered(F2Echelon):
        rank = 10 ** 9              # every candidate passes the mod-2 test

    monkeypatch.setattr(numring, "F2Echelon", Unfiltered)
    filtered = unfiltered = 0
    for args, chosen, n_smith in searches:
        del tests[:]
        assert search(*args) == chosen
        filtered, unfiltered = filtered + n_smith, unfiltered + len(tests)
    assert not all(tests) and unfiltered > 2 * filtered


def test_z2_module_validation():
    p = 5
    ring = real_cyclotomic(p)
    M = RLattice.free(ring, 1)
    with pytest.raises(ValueError):
        Z2Module(M, IntMatrix.identity(M.dim).scale(2))
    bad = [[0, 1], [1, 0]]  # swaps basis vectors, breaks beta-linearity
    with pytest.raises(ValueError):
        Z2Module(M, IntMatrix.from_rows(bad))


def test_resolution_sign_module():
    # R_- = R[Z/2Z]/(1+Y): the classical three-term resolution
    for p in (3, 5, 7):
        ring = real_cyclotomic(p)
        deg = ring.degree
        rel = []
        for c in range(deg):
            row = [0] * (2 * deg)
            row[c] = 1
            row[deg + c] = 1
            rel.append(row)
        res = resolve_z2_module(p, 1, rel)
        assert (res.a, res.b) == (1, 0)
        assert res.verify()


def test_resolution_mod_two_trivial_y():
    # R/2R with trivial Y: relations (2, Y - 1)
    for p in (3, 5):
        ring = real_cyclotomic(p)
        deg = ring.degree
        rel = []
        for c in range(2 * deg):
            row = [0] * (2 * deg)
            row[c] = 2
            rel.append(row)
        for c in range(deg):
            row = [0] * (2 * deg)
            row[deg + c] = 1
            row[c] = -1
            rel.append(row)
        res = resolve_z2_module(p, 1, rel)
        assert (res.a, res.b) == (1, 1)
        assert res.verify()
        assert "R_+^1 (+) R[Z/2Z]^1" in res.describe()


def test_resolution_free_module():
    res = resolve_z2_module(5, 2, [])
    assert (res.a, res.b) == (0, 0)
    assert res.f1.rows == 0
    assert res.verify()


def test_resolution_mixed_rank_two():
    # R_- in the first summand, nothing in the second
    p = 5
    ring = real_cyclotomic(p)
    deg = ring.degree
    D0 = 2 * 2 * deg
    rel = []
    for c in range(deg):
        row = [0] * D0
        row[c] = 1
        row[deg + c] = 1
        rel.append(row)
    res = resolve_z2_module(p, 2, rel)
    assert (res.a, res.b) == (1, 0)
    assert res.verify()


def test_resolution_rejects_non_equivariant():
    p = 5
    deg = real_cyclotomic(p).degree
    with pytest.raises(ValueError):
        resolve_z2_module(p, 1, [[1] + [0] * (2 * deg - 1)])


def _same_span_oracle(a, b) -> bool:
    """Mutual containment, by two Smith forms with transforms and one
    solve per row."""
    return contains_all(a, b) and contains_all(b, a)


def test_span_profile_needs_the_joint_span():
    # equal rank and equal index, (2, 2), yet different lattices: only
    # the profile of a + b tells them apart
    a, b = [[1, 0], [0, 2]], [[2, 0], [0, 1]]
    assert _span_profile(a, 2) == _span_profile(b, 2) == (2, 2)
    assert not _same_span_oracle(a, b)
    assert not _same_span(a, b)
    assert _same_span(a, [[1, 2], [0, 2]])


def test_same_span_matches_containment_oracle():
    rng = random.Random("same-span")
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)]
             for _ in range(rng.randint(0, 5))]
        mode = rng.choice(["same", "scaled", "random", "empty"])
        if mode == "empty":
            b = []
        elif mode == "random":
            b = [[rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(rng.randint(0, 5))]
        else:
            # unimodular row operations on a, plus redundant combinations
            b = [list(r) for r in a]
            if len(b) > 1:
                T, _ = _random_unimodular(rng, len(b))
                b = (T @ IntMatrix.from_rows(b)).to_rows()
            if b:
                for _ in range(rng.randint(0, 2)):
                    cs = [rng.randint(-2, 2) for _ in a]
                    b.append([sum(c * r[j] for c, r in zip(cs, a))
                              for j in range(n)])
                if mode == "scaled":
                    i = rng.randrange(len(b))
                    b[i] = [rng.choice([2, 3]) * x for x in b[i]]
            rng.shuffle(b)
        want = _same_span_oracle(a, b)
        assert _same_span(a, b) == want, (a, b)
        assert _same_span(b, a) == want, (a, b)
        seen[mode, want] += 1
    # both verdicts occur, and rank-deficient and empty lists are covered
    assert seen["same", True] and seen["scaled", False]
    assert seen["random", False] and seen["empty", True]


def test_equivariance_test_matches_containment_oracle():
    # resolve_z2_module refuses a relation lattice K exactly when some
    # K.beta or K.Y row lies outside K
    p = 5
    fb, fy = _free_z2_blocks(real_cyclotomic(p), 1)
    D0 = fb.rows
    rng = random.Random("equivariance")
    refused = Counter()
    for _ in range(60):
        rel = []
        for _ in range(rng.randint(1, 2)):
            v = [rng.randint(-2, 2) for _ in range(D0)]
            rel.append(v)
            if rng.random() < 0.7:
                vb = _row_act(fb, v)
                rel += [vb, _row_act(fy, v), _row_act(fy, vb)]
        K = _row_basis_rows(rel)
        stable = not K or contains_all(
            K, [_row_act(g, v) for g in (fb, fy) for v in K])
        try:
            resolve_z2_module(p, 1, rel)
            was_refused = False
        except ValueError as e:
            assert "non-equivariant presentation" in str(e)
            was_refused = True
        except ResolutionError:
            was_refused = False
        assert was_refused == (not stable), rel
        refused[was_refused] += 1
    assert refused[True] and refused[False]


@pytest.mark.parametrize("p, copies", [(3, 2), (5, 2), (7, 2), (13, 1)])
def test_eigenlattice_ranks_of_a_stable_lattice_add_up(p, copies):
    # resolve_z2_module checks only the index of U_+ (+) U_- in K: for a
    # beta- and Y-stable K the two eigenlattice ranks always add up to
    # rank K, since Y is an involution of K (x Y = x on the x + x Y and
    # -1 on the x - x Y, whose span holds 2K)
    ring = real_cyclotomic(p)
    fb, fy = _free_z2_blocks(ring, copies)
    rng, seen = random.Random(p), set()
    for _ in range(20):
        rel = []
        for _ in range(rng.randint(1, 3)):
            # an R[Z/2Z]-orbit, or the beta-orbit of an eigenvector
            v = [rng.randint(-2, 2) for _ in range(fb.rows)]
            tau = rng.choice((0, 1, -1))
            if tau:
                v = [a + tau * b for a, b in zip(v, _row_act(fy, v))]
            for w in _orbit(v, [fb], ring.degree):
                rel += [w] + ([] if tau else [_row_act(fy, w)])
        K = _row_basis_rows(rel)
        if not K:
            continue
        Km = IntMatrix.from_rows(K)
        KY = Km @ fy
        ranks = [len(exactalg.kernel_basis((KY + Km.scale(-tau))
                                           .transpose()))
                 for tau in (1, -1)]
        assert sum(ranks) == len(K), (p, K)
        seen.add(ranks[0] == ranks[1])
    assert seen == {True, False}


def test_resolution_eigen_split_obstruction():
    # M = R[Z/2Z]/2 with the swap action: the relation kernel 2*Z^(2d)
    # meets neither eigenlattice in full rank, so the construction
    # declines rather than certify a wrong answer
    for p in (3, 5):
        deg = real_cyclotomic(p).degree
        rel = IntMatrix.identity(2 * deg).scale(2).to_rows()
        with pytest.raises(ResolutionError):
            resolve_z2_module(p, 1, rel)
