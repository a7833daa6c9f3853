import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cyclotwist.obstruction as obstruction
from cyclotwist.exactalg import factorize, is_prime, radical
from cyclotwist.obstruction import (
    ActionQuery,
    FibonacciReport,
    agreement_sweep,
    ev1_image,
    exists_automorphism_action,
    exists_tensor_action,
    fibonacci_acts,
    intro_formulation,
    tensor_action,
)
from exact_oracles import agreement_scan, intro_fraction, tensor_local


@dataclass(frozen=True)
class KSharpCuntz:
    """Rational points of the circle model of the refined K-group of
    O_{n+1}; evaluation at the unit multiplies a class by n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("parameter must be >= 1")

    def ev1(self, s) -> Fraction:
        return (self.n * Fraction(s)) % 1


def scan_root(n):
    """The least root of x^2 = x + 1 mod n by scanning every residue,
    or None: the oracle of the constructed route."""
    return next((x for x in range(n) if (x * x - x - 1) % n == 0), None)


def test_anchor_cases():
    # order two on O_3: no automorphism action with the nontrivial twist
    assert not exists_automorphism_action(ActionQuery(2, 2, 1))
    # but after tensoring it exists on O_9
    assert exists_tensor_action(ActionQuery(2, 8, 1))
    # and still not on O_5
    assert not exists_tensor_action(ActionQuery(2, 4, 1))


def test_formulations_agree_everywhere():
    for m in range(1, 49):
        for n in range(1, 49):
            for k in range(m):
                q = ActionQuery(m, n, k)
                assert exists_tensor_action(q) == intro_formulation(q), q


def test_tensor_action_never_factors_n(monkeypatch):
    # only the valuations of n at the primes of m are read, so a prime n
    # near the modulus limit costs no trial division; both routes share
    # one factorization of m per query, and the sweep one per m
    seen = []

    def recording(x):
        seen.append(x)
        return factorize(x)

    monkeypatch.setattr(obstruction, "factorize", recording)
    q = ActionQuery(3, 99999999999971, 1)
    assert tensor_action(q) == exists_tensor_action(q) == \
        intro_formulation(q)
    assert seen == [3]
    seen.clear()
    agreement_sweep(12)
    assert seen == list(range(1, 13))


def test_moduli_match_the_local_and_fraction_oracles():
    rng = random.Random(0x7E45)
    for _ in range(3000):
        m, n = rng.randint(1, 10**6), rng.randint(1, 10**6)
        if rng.random() < 0.5:
            # share prime powers between m and n, as random draws rarely do
            g = rng.choice([2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64, 243])
            m, n = m // g * g or g, n // g * g or g
        primes = factorize(m)
        t = obstruction.tensor_modulus(m, n, primes)
        i = obstruction.intro_modulus(m, n, primes)
        assert m % t == 0 and m % i == 0, (m, n)
        for k in {0, 1, t, i, m // 2, rng.randrange(m), rng.randrange(m)}:
            q = ActionQuery(m, n, k)
            assert (exists_tensor_action(q), intro_formulation(q)) == \
                (tensor_local(m, n, q.k), intro_fraction(m, n, q.k)), q


def test_agreement_sweep_matches_per_triple_oracle():
    for mmax in range(1, 31):
        assert agreement_sweep(mmax) == agreement_scan(mmax), mmax
    assert agreement_sweep(30) == (13950, 0, 0)


@pytest.mark.parametrize("route, wrong", [
    ("tensor_modulus", lambda m, n, primes: m),
    ("intro_modulus", lambda m, n, primes: n),
])
def test_agreement_sweep_counts_a_wrong_route(monkeypatch, route, wrong):
    # a modulus that is wrong (and, for n, need not divide m) makes the
    # sweep count what the per-triple loop counts, and not zero
    monkeypatch.setattr(obstruction, route, wrong)
    for mmax in (1, 2, 7, 16):
        assert agreement_sweep(mmax) == agreement_scan(mmax), mmax
    checked, disagreements, failures = agreement_sweep(16)
    assert disagreements > 0
    assert failures > 0 if route == "tensor_modulus" else failures == 0


def test_automorphism_implies_tensor():
    for m in range(1, 37):
        for n in range(1, 37):
            for k in range(m):
                q = ActionQuery(m, n, k)
                if exists_automorphism_action(q):
                    assert exists_tensor_action(q), q


def test_trivial_twist_always_acts():
    for m in (1, 2, 6, 12, 45):
        for n in (1, 2, 10, 32):
            q = ActionQuery(m, n, 0)
            assert exists_automorphism_action(q)
            assert exists_tensor_action(q)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
def test_admissible_twists_form_a_subgroup(m, n, data):
    k1 = data.draw(st.integers(min_value=0, max_value=m - 1))
    k2 = data.draw(st.integers(min_value=0, max_value=m - 1))
    if exists_tensor_action(ActionQuery(m, n, k1)) and \
            exists_tensor_action(ActionQuery(m, n, k2)):
        assert exists_tensor_action(ActionQuery(m, n, k1 + k2))


def test_ev1_image_matches_circle_model():
    for m in (2, 6, 12):
        for n in (2, 3, 8, 10):
            g = ev1_image(m, n)
            ks = KSharpCuntz(n)
            image = {ks.ev1(Fraction(j, m)) for j in range(m)}
            expected = {Fraction((g * t) % m, m) for t in range(m)}
            assert image == expected
    assert KSharpCuntz(4).ev1(Fraction(3, 8)) == Fraction(1, 2)


def test_action_query_normalizes_twist():
    q = ActionQuery(6, 5, 13)
    assert q.k == 1
    assert ActionQuery(6, 5, -1).k == 5
    with pytest.raises(ValueError):
        ActionQuery(0, 5, 1)


def test_fibonacci_dual_route():
    # the constructor raises if the constructed root and the
    # classification disagree, so a clean sweep is itself the agreement
    # check
    for n in range(1, 2001):
        fibonacci_acts(n)
    r = fibonacci_acts(11)
    assert r.acts and r.witness == 4
    assert (4 * 4 - 4 - 1) % 11 == 0
    assert not fibonacci_acts(4).acts
    assert not fibonacci_acts(25).acts  # 5^2 kills the root
    assert fibonacci_acts(5).witness == 3
    assert fibonacci_acts(1).acts
    # every even order is rejected
    assert all(not fibonacci_acts(n).acts for n in range(2, 600, 2))
    with pytest.raises(ValueError):
        fibonacci_acts(0)


def _acting_sample(rng, count):
    """Moduli in [10^4, 2*10^5], most of them built to act: products of
    primes = +-1 mod 5, some times 5, plus a few prime powers and
    uniform draws."""
    primes = [11, 19, 29, 31, 41, 59, 61, 71, 79, 89, 101, 109, 131, 139]
    out = [11**4, 19**3, 5 * 29**3, 41**3, 3 * 11**4, 25 * 11 * 59]
    while len(out) < count:
        if rng.random() < 0.2:
            out.append(rng.randint(10**4, 2 * 10**5))
            continue
        n = 5 if rng.random() < 0.4 else 1
        while n < 10**4:
            n *= rng.choice(primes)
        if n <= 2 * 10**5:
            out.append(n)
    return out


def test_fibonacci_matches_scan_oracle():
    for n in [*range(1, 3001), *_acting_sample(random.Random(12), 40)]:
        r = fibonacci_acts(n)
        w = scan_root(n)
        assert (r.acts, r.witness) == (w is not None, w), n


def test_fibonacci_witness_satisfies_equation():
    for n in range(1, 500):
        r = fibonacci_acts(n)
        if r.acts:
            assert (r.witness * r.witness - r.witness - 1) % n == 0
        else:
            assert r.witness is None


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(49) == 7
    assert radical(30) == 30
    assert factorize(360) == {2: 3, 3: 2, 5: 1} and factorize(1) == {}
    assert [n for n in range(-1, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
