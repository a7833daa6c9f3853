import pytest

import cyclotwist.fusion as fusion
from cyclotwist.exactalg import IntMatrix, PolyZ, charpoly_exact, chebyshev_u
from cyclotwist.fusion import (
    FusionRing,
    chebyshev_structure_check,
    dk_module,
    global_det,
    group_ring_iso_check,
    parity_sequence,
    pointed_cyclic,
    regular_matrix,
    tlj,
    tlj_even,
)


def deligne_product(A: FusionRing, B: FusionRing) -> FusionRing:
    """Product ring on pairs of labels; structure constants multiply."""
    ra, rb = A.rank, B.rank

    def idx(i, j):
        return i * rb + j

    r = ra * rb
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for c1 in range(ra):
        for c2 in range(rb):
            plane = N[idx(c1, c2)]
            for a1 in range(ra):
                for a2 in range(rb):
                    row = plane[idx(a1, a2)]
                    for b1 in range(ra):
                        na = A.N[c1][a1][b1]
                        if not na:
                            continue
                        for b2 in range(rb):
                            row[idx(b1, b2)] = na * B.N[c2][a2][b2]
    labels = [
        "(%s,%s)" % (A.labels[i], B.labels[j])
        for i in range(ra)
        for j in range(rb)
    ]
    dual = [idx(A.dual[i], B.dual[j]) for i in range(ra) for j in range(rb)]
    return FusionRing(labels, idx(A.unit, B.unit), dual, N)


def test_tlj_small_levels():
    r1 = tlj(1)
    assert r1.labels == ("pi_0", "pi_1")
    # pi_1 * pi_1 = pi_0: the pointed Z/2Z rule
    assert r1.N[0][1][1] == 1 and r1.N[1][1][1] == 0

    r3 = tlj(3)
    # pi_1 * pi_2 = pi_1 + pi_3
    assert [r3.N[h][1][2] for h in range(4)] == [0, 1, 0, 1]


def test_tlj_regular_matrix_example():
    m = regular_matrix(tlj(2), 1)
    assert m == IntMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert regular_matrix(tlj(2), "pi_0") == IntMatrix.identity(3)


def test_regular_matrix_is_ring_hom_and_dual_transpose():
    for k in range(9):
        R = tlj(k)
        mats = [regular_matrix(R, t) for t in range(R.rank)]
        for a in range(R.rank):
            assert regular_matrix(R, R.dual[a]) == mats[a].transpose()
            for b in range(R.rank):
                lhs = mats[a] @ mats[b]
                rhs = IntMatrix.zeros(R.rank, R.rank)
                for t in range(R.rank):
                    c = R.N[t][a][b]
                    if c:
                        rhs = rhs + mats[t].scale(c)
                assert lhs == rhs


def test_pointed_cyclic():
    r = pointed_cyclic(3)
    assert regular_matrix(r, 1) == IntMatrix.from_rows(
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    )
    rep = global_det(r)
    assert rep.Z == IntMatrix.identity(3).scale(3)
    assert rep.det_abs == 27
    assert pointed_cyclic(1).rank == 1
    # same structure tensor as tlj(1) after forgetting label names
    assert pointed_cyclic(2).N == tlj(1).N
    assert pointed_cyclic(2).dual == tlj(1).dual


def test_fusion_ring_rejects_bad_tensors():
    with pytest.raises(ValueError):
        # break the unit law
        FusionRing(["e", "x"], 0, [0, 1], [[[0, 0], [0, 1]], [[0, 1], [1, 0]]])
    good = pointed_cyclic(4)
    bad_n = [[list(row) for row in plane] for plane in good.N]
    bad_n[2][1][1] = 0  # g*g no longer lands in g^2: associativity breaks
    with pytest.raises(ValueError):
        FusionRing(good.labels, good.unit, good.dual, bad_n)


def test_deligne_product():
    a = pointed_cyclic(2)
    t = pointed_cyclic(1)
    assert deligne_product(a, t).N == a.N

    prod = deligne_product(pointed_cyclic(2), pointed_cyclic(3))
    six = pointed_cyclic(6)
    # CRT relabeling (i,j) -> 3i + 2j mod 6 identifies the two rings
    relab = [(3 * i + 2 * j) % 6 for i in range(2) for j in range(3)]
    assert sorted(relab) == list(range(6))
    for c in range(6):
        for x in range(6):
            for y in range(6):
                assert (
                    prod.N[c][x][y]
                    == six.N[relab[c]][relab[x]][relab[y]]
                )

    four = deligne_product(pointed_cyclic(2), pointed_cyclic(2))
    assert global_det(four).det_abs == 256


def test_global_det_tlj_table():
    # |det Z| = 2^(k+1) (k+2)^(k-1)
    for k in range(1, 9):
        rep = global_det(tlj(k))
        assert rep.det_abs == 2 ** (k + 1) * (k + 2) ** (k - 1)
    assert global_det(tlj(2)).det_abs == 32
    assert global_det(tlj(2)).Z == IntMatrix.from_rows(
        [[3, 0, 1], [0, 4, 0], [1, 0, 3]]
    )
    assert global_det(tlj(3)).det_abs == 400
    assert global_det(tlj(3)).radical == 10


def test_global_det_tlj_even():
    rep5 = global_det(tlj_even(5))
    assert rep5.Z == IntMatrix.from_rows([[3, 2, 1], [2, 6, 3], [1, 3, 5]])
    assert rep5.det_abs == 49
    assert global_det(tlj_even(3)).det_abs == 5
    # odd k follow the closed form (k+2)^(k//2) * 2^(k-1-2*(k//2))
    for k in (1, 3, 5, 7):
        assert global_det(tlj_even(k)).det_abs == (k + 2) ** (k // 2) * 2 ** (
            k - 1 - 2 * (k // 2)
        )
    # even k land at exactly twice that expression
    for k in (2, 4, 6):
        closed = (k + 2) ** (k // 2) * 2 ** (k - 1 - 2 * (k // 2))
        assert global_det(tlj_even(k)).det_abs == 2 * closed


def test_pointed_det_table():
    for m in range(1, 7):
        assert global_det(pointed_cyclic(m)).det_abs == m**m


def product_sum_z(R: FusionRing) -> IntMatrix:
    """Z = sum_p M(p) M(dual p) as r matrix products and additions: the
    route global_det took before it summed the structure tensor."""
    Z = IntMatrix.zeros(R.rank, R.rank)
    for p in range(R.rank):
        Z = Z + regular_matrix(R, p) @ regular_matrix(R, R.dual[p])
    return Z


@pytest.mark.parametrize("family, first", [
    (tlj, 0), (tlj_even, 0), (pointed_cyclic, 1)],
    ids=["tlj", "tlj_even", "pointed_cyclic"])
def test_global_det_z_matches_product_sum(family, first):
    for k in range(first, 21):
        R = family(k)
        assert global_det(R).Z == product_sum_z(R)


def test_chebyshev_structure():
    for k in (0, 4, 7):
        rep = chebyshev_structure_check(k)
        assert rep.passed, rep.failures
    for k in range(11):
        R = tlj(k)
        m = regular_matrix(R, 1) if k >= 1 else IntMatrix.zeros(1, 1)
        assert charpoly_exact(m) == chebyshev_u(k + 1)


def test_chebyshev_structure_reports_a_wrong_power(monkeypatch):
    # a wrong M(pi_2) is named in the report; the other checks still pass
    real = fusion.regular_matrix
    monkeypatch.setattr(fusion, "regular_matrix",
                        lambda R, i: real(R, i).scale(2) if i == 2
                        else real(R, i))
    rep = chebyshev_structure_check(4)
    assert rep.failures == ("U_2(M/2) != M(pi_2)",)
    assert rep.annihilated and rep.charpoly_is_u_next and not rep.passed


def test_parity_sequence():
    for k in (1, 2, 5):
        rep = parity_sequence(k)
        assert rep.exact
    # shape check at k=1: multiplication matrix is 2x1
    rep = parity_sequence(1)
    assert rep.mult_matrix.rows == 2 and rep.mult_matrix.cols == 1
    assert rep.augmentation == (1, -1)


def test_dk_module():
    m1 = dk_module(1)
    assert m1.rank == 1
    assert m1.action[1] == IntMatrix.from_rows([[1]])

    m2 = dk_module(2)
    assert m2.rank == 2
    assert m2.action[1] == IntMatrix.from_rows([[0, 2], [1, 0]])
    assert m2.action[0] == IntMatrix.identity(2)

    # validate() runs in the constructor; re-run explicitly for k up to 8
    for k in range(1, 9):
        dk_module(k).validate()


def test_group_ring_iso_check():
    for p in (3, 5, 7, 11, 13):
        rep = group_ring_iso_check(p)
        assert rep.passed, rep.failures
    with pytest.raises(ValueError):
        group_ring_iso_check(9)
    with pytest.raises(ValueError):
        group_ring_iso_check(2)


def test_group_ring_iso_fibonacci_detail():
    # p=5: even part is the Fibonacci ring; charpoly of the pi_2 block
    # must be mu(X-1) with mu = X^2+X-1, i.e. (X-1)^2+(X-1)-1 = X^2-X-1
    from cyclotwist.numring import real_cyclotomic

    mu = real_cyclotomic(5).mu
    assert mu.compose(PolyZ([-1, 1])) == PolyZ([-1, -1, 1])
    R = tlj(3)
    m1 = regular_matrix(R, 1)
    m2 = m1 @ m1 - IntMatrix.identity(4)
    block = IntMatrix.from_rows(
        [[m2.at(i, j) for j in (0, 2)] for i in (0, 2)]
    )
    assert charpoly_exact(block) == PolyZ([-1, -1, 1])


def test_det_report_radical():
    rep = global_det(tlj(1))
    assert rep.det_abs == 4 and rep.radical == 2
    rep = global_det(pointed_cyclic(1))
    assert rep.det_abs == 1 and rep.radical == 1


def test_fusion_json_roundtrip():
    r = tlj_even(5)
    obj = r.to_json_obj()
    back = FusionRing.from_json_obj(obj)
    assert back == r
