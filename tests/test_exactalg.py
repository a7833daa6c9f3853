import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclotwist.cocycle import Cocycle3
from cyclotwist.exactalg import (
    IntMatrix,
    PolyF2,
    PolyZ,
    charpoly_exact,
    chebyshev_matrices,
    chebyshev_t2,
    chebyshev_u,
    coordinates,
    elementary_divisors,
    kernel_basis,
    row_basis,
    smith_normal_form,
)
from cyclotwist.fusion import (
    FusionModule,
    FusionRing,
    global_det,
    pointed_cyclic,
    tlj,
    tlj_even,
)
from cyclotwist.numring import (
    RLattice,
    _span_profile,
    lattice_split,
    real_cyclotomic,
    resolve_z2_module,
)
from cyclotwist.pimsner import CorrSpec
from exact_oracles import (
    apply,
    det_bareiss,
    poly_eval,
    snf_verify,
    solve_one,
)


def test_intmatrix_shape_guard():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_intmatrix_product_and_transpose():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert apply(a, [1, 1]) == [3, 7]


def test_intmatrix_zero_dimensions():
    z = IntMatrix.zeros(0, 3)
    assert z.rows == 0 and z.cols == 3
    assert (z @ IntMatrix.zeros(3, 2)).rows == 0
    assert IntMatrix.identity(0) @ IntMatrix.zeros(0, 4) == IntMatrix.zeros(0, 4)


def test_snf_identity():
    a = IntMatrix.identity(3)
    r = smith_normal_form(a)
    assert r.S == a and r.U == a and r.V == a
    assert snf_verify(r, a)


def test_snf_hand_example():
    # [[2,4],[6,8]]: gcd of entries 2, |det| = 8, so diagonal (2, 4)
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    r = smith_normal_form(a)
    assert r.diagonal() == [2, 4]
    assert snf_verify(r, a)


def test_snf_zero_matrix():
    a = IntMatrix.zeros(2, 2)
    r = smith_normal_form(a)
    assert r.S == a
    assert abs(det_bareiss(r.U)) == 1 and abs(det_bareiss(r.V)) == 1
    assert snf_verify(r, a)


def test_snf_rectangular():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    r = smith_normal_form(a)
    assert snf_verify(r, a)
    assert r.diagonal() == [1, 3]  # 2x2 minors have gcd 3


# (S, U, V) as the elimination returns them; pinned so that any change
# to the pivot search, the remainder swaps or the fold shows up
SNF_PINNED = [
    ([[2, 4], [6, 8]],
     [[2, 0], [0, 4]],
     [[1, 0], [3, -1]],
     [[1, -2], [0, 1]]),
    ([[1, 2, 3, 4], [4, 5, 6, 7], [2, 0, 8, 1]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 15, 0]],
     [[1, 0, 0], [-2, 0, 1], [70, -1, -33]],
     [[1, -16, -8, -3], [0, 0, 1, 4], [0, 4, 2, 1], [0, 1, 0, -2]]),
    # pivot 2 leaves 3 in the trailing block: a bad row is folded in
    ([[2, 0, 0, 0, 4], [0, 3, 0, 6, 0], [0, 0, 4, 0, 0], [0, 6, 0, 6, 0],
      [4, 0, 0, 0, 9]],
     [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 6, 0],
      [0, 0, 0, 0, 12]],
     [[1, 1, 0, 0, 0], [-2, 0, 0, 0, 1], [-6, -6, 1, 1, 0],
      [-21, -18, 3, 2, 0], [-24, -16, 3, 0, 0]],
     [[-1, -2, 6, -9, 6], [1, 0, -6, 10, -8], [0, 0, 8, -12, 9],
      [0, 0, 1, -2, 2], [0, 1, 0, 0, 0]]),
]


@pytest.mark.parametrize("rows, S, U, V", SNF_PINNED)
def test_snf_transforms_pinned(rows, S, U, V):
    r = smith_normal_form(IntMatrix.from_rows(rows))
    assert (r.S.to_rows(), r.U.to_rows(), r.V.to_rows()) == (S, U, V)


def test_elementary_divisors_match_snf_diagonal():
    rng = random.Random(20261018)
    for _ in range(200):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice([0.0, 0.3, 1.0])
        a = IntMatrix(m, n, [rng.randint(-9, 9) if rng.random() < density
                             else 0 for _ in range(m * n)])
        r = smith_normal_form(a)
        assert elementary_divisors(a) == r.diagonal()
        assert snf_verify(r, a)


def _diagonalize_full_scan(M, m, n):
    """The elimination without its unit shortcuts, kept as the oracle:
    every pivot search scans the whole trailing block, and every pivot,
    1 included, gets the scan that checks it divides that block."""

    def col_swap(j, k):
        for r in M:
            r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(m, n):
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (pi < 0 or -best < v < best):
                    pi, pj, best = i, j, abs(v)
        if pi < 0:
            break
        if pi != t:
            M[t], M[pi] = M[pi], M[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            if M[t][t] < 0:
                M[t] = [-x for x in M[t]]
            p = M[t][t]
            restart = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // p
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // p
                    for r in M:
                        r[j] -= q * r[t]
                    if M[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            p = M[t][t]
            bad = [i for i in range(t + 1, m)
                   if any(M[i][j] % p for j in range(t + 1, n))]
            if not bad:
                break
            M[t] = [a + b for a, b in zip(M[t], M[bad[0]])]
        t += 1


def _snf_oracle(a):
    """(S, U, V) as rows, by the full-scan elimination on [[A, I], [I, 0]]."""
    m, n = a.rows, a.cols
    M = [row + [int(i == j) for j in range(m)]
         for i, row in enumerate(a.to_rows())]
    M += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    _diagonalize_full_scan(M, m, n)
    return ([r[:n] for r in M[:m]], [r[n:] for r in M[:m]],
            [r[:n] for r in M[m:]])


def _unimodular(rng, n, shears):
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        t[i] = [a + c * b for a, b in zip(t[i], t[j])]
    return IntMatrix.from_rows(t)


def _snf_case(rng, kind):
    m, n = rng.randint(0, 9), rng.randint(0, 9)
    if kind == "dense":
        return IntMatrix(m, n, [rng.randint(-20, 20) for _ in range(m * n)])
    if kind == "sparse-units":
        pool = [0] * 6 + [1, -1] * 3 + [2, -3, 4, 6]
        return IntMatrix(m, n, [rng.choice(pool) for _ in range(m * n)])
    if kind == "zero-lines":
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n)):
            for r in rows:
                r[j] = 0
        return IntMatrix(m, n, [x for r in rows for x in r])
    if kind == "low-rank":
        r = rng.randint(0, min(m, n))
        left = IntMatrix(m, r, [rng.randint(-4, 4) for _ in range(m * r)])
        right = IntMatrix(r, n, [rng.randint(-4, 4) for _ in range(r * n)])
        return left @ right
    # unimodular U*D*V around a diagonal D of units, 2s, 6s and zeros
    n = rng.randint(1, 30)
    d = IntMatrix(n, n, [rng.choice([1, 1, 1, 2, 6, 0]) if i == j else 0
                         for i in range(n) for j in range(n)])
    return _unimodular(rng, n, n) @ d @ _unimodular(rng, n, n)


@pytest.mark.parametrize(
    "kind", ["dense", "sparse-units", "zero-lines", "low-rank", "unimodular"])
def test_snf_matches_full_scan_oracle(kind):
    rng = random.Random("snf-oracle/" + kind)
    # 1,000 matrices over the five kinds
    for _ in range(235 if kind != "unimodular" else 60):
        a = _snf_case(rng, kind)
        S, U, V = _snf_oracle(a)
        r = smith_normal_form(a)
        assert (r.S.to_rows(), r.U.to_rows(), r.V.to_rows()) == (S, U, V)
        assert elementary_divisors(a) == [S[i][i]
                                          for i in range(min(a.rows, a.cols))]


def _row_basis_oracle(a):
    """The row basis as it was built from the full Smith form: the
    nonzero rows of U*A."""
    snf = smith_normal_form(a)
    return (snf.U @ a).to_rows()[:snf.rank()]


@pytest.mark.parametrize(
    "kind", ["dense", "sparse-units", "zero-lines", "low-rank", "unimodular"])
def test_row_basis_and_kernel_read_the_smith_transforms(kind):
    # both come from the elimination on [[A], [I_n]], with no U built
    rng = random.Random("row-basis/" + kind)
    for _ in range(120 if kind != "unimodular" else 30):
        a = _snf_case(rng, kind)
        snf = smith_normal_form(a)
        r = snf.rank()
        assert row_basis(a) == _row_basis_oracle(a)
        assert kernel_basis(a) == [[snf.V.at(i, j) for i in range(a.cols)]
                                   for j in range(r, a.cols)]


def _float_generator() -> IntMatrix:
    """The 1x1 matrix [1.0]: IntMatrix refuses a float when it is built,
    so the entry is put in afterwards, as a caller could."""
    g = IntMatrix.identity(1)
    g.entries = (1.0,)
    return g


@pytest.mark.parametrize("build", [
    lambda: IntMatrix.from_rows([[1.5, 2]]),
    lambda: PolyZ([0.7, 2.2]),
    lambda: PolyF2(2.5),
    lambda: IntMatrix.identity(2).scale(1.5),
    lambda: coordinates(IntMatrix.identity(1), [[1.5]]),
    lambda: CorrSpec.from_json_obj({"n": 1.9, "mult": [["inf"]]}),
    lambda: Cocycle3.from_json_obj(
        {"m": 2.9, "denominator": 1, "values": [0] * 8}),
    lambda: lattice_split(RLattice.free(real_cyclotomic(5), 1),
                          [[2.7, 0], [0, 2.2]]),
    lambda: resolve_z2_module(5, 1, [[1.5, 0, 0, 0]]),
    lambda: FusionRing(["1"], 0, [0], [[[1.0]]]),
    lambda: FusionModule(tlj(1), _float_generator()),
], ids=["IntMatrix", "PolyZ", "PolyF2", "IntMatrix.scale",
        "coordinates", "CorrSpec",
        "Cocycle3", "lattice_split", "resolve_z2_module", "FusionRing",
        "FusionModule"])
def test_non_integer_inputs_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_det_examples():
    for rows, det in (([[3, 0, 1], [0, 4, 0], [1, 0, 3]], 32),
                      ([[2, 1], [1, 3]], 5), ([[2, 4], [1, 2]], 0)):
        a = IntMatrix.from_rows(rows)
        assert det_bareiss(a) == det
        assert math.prod(elementary_divisors(a)) == abs(det)
    assert det_bareiss(IntMatrix.identity(5)) == 1
    assert math.prod(elementary_divisors(IntMatrix.identity(0))) == 1
    with pytest.raises(ValueError):
        det_bareiss(IntMatrix.zeros(2, 3))


def test_det_agrees_with_snf_on_random_matrices():
    # |det| as global_det takes it, the product of the Smith diagonal,
    # against Bareiss; a third of the matrices are singular
    rng = random.Random(20260814)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        if rng.random() < 1 / 3:
            r = rng.randint(0, n - 1)
            a = (IntMatrix(n, r, [rng.randint(-4, 4) for _ in range(n * r)])
                 @ IntMatrix(r, n, [rng.randint(-4, 4) for _ in range(r * n)]))
        else:
            a = IntMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
        r = smith_normal_form(a)
        assert snf_verify(r, a)
        det = det_bareiss(a)
        assert math.prod(elementary_divisors(a)) == abs(det)
        singular += det == 0
    assert singular >= 80


@pytest.mark.parametrize("family, first", [
    (tlj, 0), (tlj_even, 0), (pointed_cyclic, 1)],
    ids=["tlj", "tlj_even", "pointed_cyclic"])
def test_global_det_matches_bareiss(family, first):
    for k in range(first, 21):
        rep = global_det(family(k))
        assert rep.det_abs == abs(det_bareiss(rep.Z))


def test_chebyshev_u_small():
    assert chebyshev_u(0) == PolyZ([1])
    assert chebyshev_u(1) == PolyZ([0, 1])
    assert chebyshev_u(2) == PolyZ([-1, 0, 1])
    assert chebyshev_u(4) == PolyZ([1, 0, -3, 0, 1])
    # U_4(X/2) = (X^2+X-1)(X^2-X-1)
    assert PolyZ([-1, 1, 1]) * PolyZ([-1, -1, 1]) == chebyshev_u(4)


def test_chebyshev_u_roots_float():
    for n in range(1, 13):
        p = chebyshev_u(n)
        for j in range(1, n + 1):
            x = 2.0 * math.cos(j * math.pi / (n + 1))
            assert abs(poly_eval(p, x)) < 1e-9


def test_chebyshev_t2_angle_doubling():
    # 2*T_n(cos t) = 2*cos(n t)
    for n in range(8):
        p = chebyshev_t2(n)
        for t in (0.3, 1.1, 2.0):
            assert abs(poly_eval(p, 2.0 * math.cos(t))
                       - 2.0 * math.cos(n * t)) < 1e-9


def test_chebyshev_matrices_match_horner():
    rng = random.Random(20261018)
    for n in (1, 2, 5, 9):
        m = IntMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
        for first, poly in ((1, chebyshev_u), (2, chebyshev_t2)):
            seq = chebyshev_matrices(m, first, 12)
            assert seq == [poly(i).eval_matrix(m) for i in range(12)]
            assert chebyshev_matrices(m, first, 1) == seq[:1]
    assert chebyshev_matrices(IntMatrix.identity(2), 1, 0) == []


def test_polyz_division():
    num = chebyshev_u(4)
    q, r = num.divmod_exact(PolyZ([-1, 1, 1]))
    assert r.is_zero() and q == PolyZ([-1, -1, 1])
    assert PolyZ([-1, 1, 1]).divides(num)
    assert not PolyZ([1, 1, 1]).divides(num)


def test_polyz_compose_and_matrix_eval():
    p = PolyZ([-1, 0, 1])  # X^2 - 1
    assert p.compose(PolyZ([1, 1])) == PolyZ([0, 2, 1])  # (X+1)^2 - 1
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert p.eval_matrix(m) == IntMatrix.zeros(2, 2)


def test_charpoly_companion():
    # companion matrix of X^3 - 2X - 5
    c = IntMatrix.from_rows([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert charpoly_exact(c) == PolyZ([-5, -2, 0, 1])


def test_charpoly_matches_det_at_points():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = IntMatrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
        p = charpoly_exact(a)
        for x in (-2, -1, 0, 1, 3):
            shifted = IntMatrix.identity(n).scale(x) - a
            assert poly_eval(p, x) == det_bareiss(shifted)


def test_coordinates_exact():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert coordinates(a, [[4, 9], [1, 3], [0, 0]]) == [[2, 3], None, [0, 0]]
    assert coordinates(a, []) == []
    # rank deficient: any solution will do
    tall = IntMatrix.from_rows([[1], [2], [3]])
    (x,) = coordinates(tall, [[7]])
    assert x is not None and apply(tall.transpose(), x) == [7]
    with pytest.raises(ValueError):
        coordinates(a, [[1, 2, 3]])


def _coordinates_case(rng, kind):
    """(B, rows): rows of the span of B, some moved off it."""
    k, n = rng.randint(0, 6), rng.randint(0, 6)
    if kind == "full-rank":
        k = rng.randint(0, n)
        B = IntMatrix(k, n, [rng.randint(-5, 5) for _ in range(k * n)])
    elif kind == "rank-deficient":
        r = rng.randint(0, min(k, n))
        B = (IntMatrix(k, r, [rng.randint(-3, 3) for _ in range(k * r)])
             @ IntMatrix(r, n, [rng.randint(-3, 3) for _ in range(r * n)]))
    elif kind == "zero-rows":
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        for i in rng.sample(range(k), rng.randint(0, k)):
            rows[i] = [0] * n
        B = IntMatrix(k, n, [x for r in rows for x in r])
    else:
        B = IntMatrix.zeros(0, n)
    rows = []
    for _ in range(rng.randint(0, 5)):
        x = [rng.randint(-3, 3) for _ in range(B.rows)]
        w = apply(B.transpose(), x)
        if rng.random() < 0.5:
            w = [a + rng.choice([0, 0, 1, -1, 2]) for a in w]
        rows.append(w)
    return B, rows


@pytest.mark.parametrize(
    "kind", ["full-rank", "rank-deficient", "zero-rows", "empty"])
def test_coordinates_matches_back_substitution(kind):
    # one Smith form for the batch against one per vector; the verdict
    # also against the span profile of B + [w]
    rng = random.Random("coordinates/" + kind)
    seen = set()
    for _ in range(150):
        B, rows = _coordinates_case(rng, kind)
        xs = coordinates(B, rows)
        assert len(xs) == len(rows)
        profile = _span_profile(B.to_rows(), B.cols)
        for w, x in zip(rows, xs):
            outside = _span_profile(B.to_rows() + [w], B.cols) != profile
            assert (x is None) == outside, (B, w)
            if x is not None:
                assert len(x) == B.rows and apply(B.transpose(), x) == w
            assert x == solve_one(B.transpose(), w)
            seen.add(x is None)
    assert seen == {True, False}


def test_kernel_basis():
    a = IntMatrix.from_rows([[1, 2, 3]])
    ker = kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert apply(a, v) == [0]
    # the kernel is saturated: SNF of the kernel matrix has unit diagonal
    km = IntMatrix.from_rows(ker).transpose()
    assert smith_normal_form(km).diagonal() == [1, 1]


def test_polyf2_arithmetic():
    x = PolyF2(0b10)
    one = PolyF2(1)
    assert (x + one) * (x + one) == PolyF2(0b101)  # (X+1)^2 = X^2+1
    f = PolyF2(0b111)  # X^2+X+1
    assert (f * (x + one)) == PolyF2(0b1001)  # X^3+1
    # X^3+1 = (X+1)(X^2+X+1), so the remainder vanishes
    assert (PolyF2(0b1001) % f).is_zero()
    assert PolyF2(0b1001) // f == x + one
    assert PolyF2(0b1001).gcd(f) == f
    assert f.powmod(4, PolyF2(0b1001)).bits == ((f * f * f * f) % PolyF2(0b1001)).bits


def test_polyf2_from_polyz():
    p = PolyZ([3, 4, 5])  # -> 1 + 0X + X^2 mod 2
    assert p.reduce_mod2() == PolyF2(0b101)


def test_polyf2_derivative():
    # d/dX (X^3 + X^2 + 1) = 3X^2 + 2X = X^2 over GF(2)
    assert PolyF2(0b1101).derivative() == PolyF2(0b100)
