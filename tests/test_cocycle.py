import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cyclotwist import exactalg
from cyclotwist.cocycle import (
    Cocycle3,
    CocycleCheck,
    NotClassified,
    coboundary,
    cohomology_class,
    crt_check,
    embed_check,
    is_cocycle,
    omega,
)
from cyclotwist.cocycle import _MAX_EMBED_N, _restrict
from exact_oracles import (
    apply,
    fraction_class,
    fraction_scan,
    full_scan,
    sub,
)


def reverse(c: Cocycle3) -> Cocycle3:
    """The reversed cocycle c'(f,g,h) = c(-h,-g,-f); an involution."""
    m, v = c.m, c.nums
    return Cocycle3.from_function(
        m, c.den,
        lambda f, g, h: v[((-h) % m) * m * m + ((-g) % m) * m + (-f) % m])


# class of reverse(omega_m^k) for m <= 6, computed once with the exact
# certificate substitution turned on and frozen here; reversal fixes
# every class in this range (no closed form asserted beyond the table)
REVERSE_CLASS_TABLE = {
    1: [0],
    2: [0, 1],
    3: [0, 1, 2],
    4: [0, 1, 2, 3],
    5: [0, 1, 2, 3, 4],
    6: [0, 1, 2, 3, 4, 5],
}


def _coboundary_matrix(m):
    """The integer matrix of d on 2-cochains, rows (i,j,h), cols (i,j)."""
    rows = []
    for i in range(m):
        for j in range(m):
            for h in range(m):
                row = [0] * (m * m)
                row[j * m + h] += 1
                row[((i + j) % m) * m + h] -= 1
                row[i * m + (j + h) % m] += 1
                row[i * m + j] -= 1
                rows.append(row)
    return exactalg.IntMatrix.from_rows(rows)


def snf_class(c):
    """Oracle: the first k for which c - omega_m^k = d(beta) is solvable
    by a dense Smith-form solve at denominator lcm(m, denominators of c),
    or None when no k is."""
    m = c.m
    snf = exactalg.smith_normal_form(_coboundary_matrix(m))
    # A*x = b (mod L) is solvable iff gcd(s_i, L) divides (U*b)_i for
    # every i, with s_i = 0 past the diagonal
    diag = snf.diagonal()
    L = lcm(c.den, m)
    for k in range(m):
        g = sub(c, omega(m, k))
        ub = apply(snf.U, [x * (L // g.den) for x in g.nums])
        if all(ci % gcd(diag[i] if i < len(diag) else 0, L) == 0
               for i, ci in enumerate(ub)):
            return k
    return None


def draw_table(data, m):
    """omega_m^k + d(beta) for beta over den in {2m, 3m, 8m, 35m}, with
    one entry perturbed by a nonzero multiple of 1/den or not."""
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    den = data.draw(st.sampled_from([2 * m, 3 * m, 8 * m, 35 * m]))
    beta = [
        [Fraction(data.draw(st.integers(min_value=0, max_value=den - 1)),
                  den)
         for _ in range(m)]
        for _ in range(m)
    ]
    c = omega(m, k).add(coboundary(m, beta))
    if data.draw(st.booleans()):
        L = lcm(c.den, den)
        nums = [x * (L // c.den) for x in c.nums]
        at = data.draw(st.integers(min_value=0, max_value=m**3 - 1))
        nums[at] += data.draw(
            st.integers(min_value=1, max_value=den - 1)) * (L // den)
        c = Cocycle3(m, L, nums)
    return c


def test_omega_values():
    assert omega(2, 1).value(1, 1, 1) == Fraction(1, 2)
    w = omega(4, 3)
    # carry(3,2) = 1, so the value at h=1 is 3/4
    assert w.value(3, 2, 1) == Fraction(3, 4)
    assert w.value(1, 2, 1) == 0
    assert all(v == 0 for v in omega(5, 0).nums)
    with pytest.raises(ValueError):
        omega(0, 0)


def test_standard_family_is_cocycle():
    for m in range(1, 9):
        for k in range(m):
            chk = is_cocycle(omega(m, k))
            assert chk.ok and chk.witness is None


def test_is_cocycle_witness_is_genuine():
    w = omega(3, 1)
    # w.den = 3; over 21, adding 3 at (1,1,1) adds 1/7
    vals = [7 * x for x in w.nums]
    vals[1 * 9 + 1 * 3 + 1] += 3
    broken = Cocycle3(3, 21, vals)
    chk = is_cocycle(broken)
    assert not chk.ok
    f, g, h, k = chk.witness
    lhs = (broken.value(f, g, h) + broken.value(f, (g + h) % 3, k)
           + broken.value(g, h, k))
    rhs = (broken.value((f + g) % 3, h, k)
           + broken.value(f, g, (h + k) % 3))
    assert (lhs - rhs) % 1 != 0


def test_cohomology_class_recovers_standard_k():
    for m in list(range(1, 9)) + [12, 16]:
        for k in range(m):
            cls = cohomology_class(omega(m, k))
            assert (cls.m, cls.k) == (m, k)


def test_coboundary_has_trivial_class():
    rng = random.Random(23)
    for m in (2, 3, 5):
        beta = [[Fraction(rng.randrange(4 * m), 4 * m) for _ in range(m)]
                for _ in range(m)]
        c = coboundary(m, beta)
        assert is_cocycle(c).ok
        assert cohomology_class(c).k == 0


def test_class_invariant_under_perturbation():
    rng = random.Random(77)
    for m in range(2, 7):
        for k in range(m):
            for _ in range(3):
                beta = [
                    [Fraction(rng.randrange(12 * m), 12 * m)
                     for _ in range(m)]
                    for _ in range(m)
                ]
                pert = omega(m, k).add(coboundary(m, beta))
                assert is_cocycle(pert).ok
                assert cohomology_class(pert).k == k


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_class_invariant_hypothesis(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    den = data.draw(st.sampled_from([2 * m, 3 * m, 8 * m]))
    beta = [
        [Fraction(data.draw(st.integers(min_value=0, max_value=den - 1)),
                  den)
         for _ in range(m)]
        for _ in range(m)
    ]
    pert = omega(m, k).add(coboundary(m, beta))
    assert cohomology_class(pert).k == k


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_class_matches_snf_oracle(m, data):
    c = draw_table(data, m)
    expected = snf_class(c)
    assert fraction_class(c) == expected
    if expected is None:
        assert not is_cocycle(c).ok
        with pytest.raises(NotClassified):
            cohomology_class(c)
    else:
        assert cohomology_class(c).k == expected


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_is_cocycle_matches_fraction_scan(m, data):
    c = draw_table(data, m)
    witness = fraction_scan(c)
    assert is_cocycle(c) == CocycleCheck(ok=witness is None,
                                         witness=witness)


def seeded_table(rng, m, kind):
    """Kind 0: a random table; kind 1: omega_m^k + d(beta) in integer
    numerators; kind 2: that sum with one entry perturbed, at a first
    index i >= 2 (outside the scanned slices) for half of them."""
    if kind == 0:
        den = rng.choice([1, 2, m, 2 * m, 7])
        return Cocycle3(m, den, [rng.randrange(den) for _ in range(m**3)])
    k, den = rng.randrange(m), m * rng.choice([2, 3, 8, 35])
    b = [[rng.randrange(den) for _ in range(m)] for _ in range(m)]
    nums = [((i + j) // m) * h * k * (den // m) + b[j][h]
            - b[(i + j) % m][h] + b[i][(j + h) % m] - b[i][j]
            for i in range(m) for j in range(m) for h in range(m)]
    if kind == 2:
        first = 2 if m > 2 and rng.random() < 0.5 else 0
        nums[rng.randrange(first * m * m, m**3)] += rng.randrange(1, den)
    return Cocycle3(m, den, nums)


def test_two_slices_and_integer_pass_match_oracles_on_3000_tables():
    rng = random.Random(2024)
    verdicts = Counter()
    for n in range(3000):
        m = rng.randint(1, 9)
        c = seeded_table(rng, m, n % 3)
        witness = full_scan(c)
        assert is_cocycle(c) == CocycleCheck(ok=witness is None,
                                             witness=witness)
        expected = fraction_class(c)
        assert (expected is None) == (witness is not None)
        if expected is None:
            with pytest.raises(NotClassified):
                cohomology_class(c)
        else:
            assert cohomology_class(c).k == expected
        verdicts[n % 3, witness is None] += 1
    # every kind shows up, and most perturbed tables are not cocycles
    assert verdicts[1, True] == 1000 and verdicts[2, False] > 900
    assert verdicts[0, False] > 500


def test_perturbation_past_the_scanned_slices():
    # the identity at f <= 1 reads c(i,.,.) at every first index i, so a
    # single bad entry at i >= 2 is still seen there, and the witness is
    # the lex-first violation of the whole m^4 scan
    rng = random.Random(5)
    for m in (3, 4, 7, 9):
        for k in (0, 1, m - 1):
            for _ in range(4):
                nums = [5 * x for x in omega(m, k).nums]
                at = rng.randrange(2 * m * m, m**3)
                nums[at] += rng.randrange(1, 5 * m)
                c = Cocycle3(m, 5 * m, nums)
                witness = fraction_scan(c)
                assert witness is not None and witness[0] <= 1
                assert is_cocycle(c) == CocycleCheck(ok=False,
                                                     witness=witness)
                assert fraction_class(c) is None
                with pytest.raises(NotClassified):
                    cohomology_class(c)


def test_reverse_is_involution():
    for m, k in ((3, 2), (5, 4), (6, 1)):
        w = omega(m, k)
        assert reverse(reverse(w)) == w
        assert is_cocycle(reverse(w)).ok


def test_reverse_class_table_frozen():
    for m, row in REVERSE_CLASS_TABLE.items():
        for k in range(m):
            rc = reverse(omega(m, k))
            assert cohomology_class(rc).k == row[k]


def test_not_classified_on_non_cocycle():
    bad = Cocycle3.from_function(
        3, 7, lambda i, j, h: 1 if (i, j, h) == (1, 1, 1) else 0
    )
    assert not is_cocycle(bad).ok
    with pytest.raises(NotClassified):
        cohomology_class(bad)
    # off the slice i = 1 the invariant still reads k/m, so only the
    # check of the witness refuses this table
    vals = [7 * x for x in omega(3, 2).nums]
    vals[2 * 9 + 1 * 3 + 1] += 3
    off_slice = Cocycle3(3, 21, vals)
    assert 3 * sum(off_slice.value(1, j, 1) for j in range(3)) == 2
    assert not is_cocycle(off_slice).ok
    with pytest.raises(NotClassified):
        cohomology_class(off_slice)


def test_embed_check():
    # the carry structure is preserved under i -> n*i into Z/(mn)
    for m in (2, 3, 4, 6):
        for n in (1, 2, 3, 5):
            for k in range(m):
                assert embed_check(m, n, k)
    with pytest.raises(ValueError):
        embed_check(0, 2, 0)


def test_tables_read_k_mod_m_and_embed_limits_n():
    # every table comes from _restrict, which reduces k mod m first, so a
    # 4,001-digit k builds the table of k mod m
    big = 10**4000
    for m in (1, 5, 12):
        for k in (3, -1):
            assert omega(m, big * m + k) == omega(m, k)
            assert _restrict(m, 4, big * m + k) == _restrict(m, 4, k)
            assert embed_check(m, 3, big * m + k)
    assert embed_check(2, _MAX_EMBED_N, 1)
    with pytest.raises(ValueError, match="^n must be <= %d$" % _MAX_EMBED_N):
        embed_check(2, _MAX_EMBED_N + 1, 1)


def test_crt_check():
    for m, n in ((2, 3), (3, 4), (4, 5), (3, 5)):
        for k in range(min(m * n, 7)):
            assert crt_check(m, n, k)
    with pytest.raises(ValueError):
        crt_check(2, 4, 1)


def test_json_roundtrip_and_equality():
    w = omega(4, 3)
    obj = w.to_json_obj()
    back = Cocycle3.from_json_obj(obj)
    assert back == w
    assert hash(back) == hash(w)
    assert back != omega(4, 2)
    # arithmetic stays mod 1, and the denominator is reduced, so equal
    # tables store equal integers
    z = sub(w, w)
    assert z.den == 1 and all(v == 0 for v in z.nums)
    assert w.add(z) == w
    assert Cocycle3(2, 6, [3, -3, 9] + [0] * 5) == Cocycle3(
        2, 2, [1, 1, 1] + [0] * 5)
    assert Cocycle3(2, 6, [2, 4] + [0] * 6).den == 3
    with pytest.raises(ValueError):
        Cocycle3(2, 0, [0] * 8)


def test_trivial_group():
    w = omega(1, 0)
    assert is_cocycle(w).ok
    assert cohomology_class(w).k == 0
    assert w.den == 1
