"""Arithmetic criteria for twisted cyclic-group actions on Cuntz algebras.

Everything here reduces existence questions for (Z/mZ, omega_m^k)-actions
on O_{n+1} to divisibility conditions on the twist residue k.  Where two
independent formulations of the same criterion exist they are evaluated
separately and compared; a disagreement raises instead of guessing.

K-theory enters only through its decidable shadow: K_0(O_{n+1}) = Z/nZ
with the unit as generator, and the circle-valued refinement whose
evaluation map multiplies a rational circle point by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactalg import factorize, radical


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


@dataclass(frozen=True)
class ActionQuery:
    """(m, n, k): group order, Cuntz parameter, twist residue mod m."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("orders must be >= 1")
        object.__setattr__(self, "k", self.k % self.m)


@dataclass(frozen=True)
class FibonacciReport:
    n: int
    acts: bool
    witness: int | None  # a root of x^2 = x + 1 mod n when one exists
    brute: bool
    classification: bool

    def __bool__(self) -> bool:
        return self.acts


def ev1_image(m: int, n: int) -> int:
    """Generator of the subgroup n(Z/mZ), the image of evaluation-at-one
    on obstruction classes: gcd(m, n)."""
    if m < 1 or n < 1:
        raise ValueError("orders must be >= 1")
    return gcd(m, n)


def exists_automorphism_action(q: ActionQuery) -> bool:
    """Z/mZ acts on O_{n+1} by automorphisms with twist k iff k lies in
    n(Z/mZ), i.e. gcd(m,n) divides k."""
    return q.k % ev1_image(q.m, q.n) == 0


def _ppart_divides(k: int, p: int, e: int) -> bool:
    """Whether k lies in p^e Z, with p^e Z read as all of Z for e <= 0."""
    if e <= 0:
        return True
    return k % p**e == 0


def exists_tensor_action(q: ActionQuery) -> bool:
    """Existence of a twisted action on O_{n+1} tensored with a UHF-type
    stabilization, decided prime by prime.

    For p^r || m and p^s || n the local condition at p holds iff

        k in p^min(r,s) Z,  or
        k in p^(r-s+1) Z and p odd,  or
        k in p^(r-s+2) Z and p = 2.

    Primes dividing n but not m impose nothing (r = 0 makes min(r,s) = 0).
    """
    en = factorize(q.n)
    for p, r in factorize(q.m).items():
        s = en.get(p, 0)
        if _ppart_divides(q.k, p, min(r, s)):
            continue
        if p != 2 and _ppart_divides(q.k, p, r - s + 1):
            continue
        if p == 2 and _ppart_divides(q.k, p, r - s + 2):
            continue
        return False
    return True


def intro_formulation(q: ActionQuery) -> bool:
    """Divisibility form of the tensor criterion: with l = radical(m)
    and a/b the lowest-terms form of 2*l*m/n, the action exists iff
    gcd(n, a, m) divides k.

    >>> intro_formulation(ActionQuery(2, 2, 1))
    False
    >>> intro_formulation(ActionQuery(4, 2, 2))
    True
    """
    l = radical(q.m)
    frac = Fraction(2 * l * q.m, q.n)
    a = frac.numerator
    return q.k % gcd(gcd(q.n, a), q.m) == 0


def fibonacci_acts(n: int) -> FibonacciReport:
    """Whether x^2 = x + 1 has a root mod n, certified two ways.

    Brute route: scan all residues.  Classification route: impossible
    for even n; for odd n the root exists iff n is a product of primes
    congruent to +-1 mod 5, with at most a single factor of 5.  The two
    verdicts are compared and a mismatch raises; no silent fallback.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    witness = next((x for x in range(n) if (x * x - x - 1) % n == 0), None)
    brute = witness is not None
    if n % 2 == 0:
        classification = False
    else:
        classification = True
        for p, e in factorize(n).items():
            if p == 5:
                if e > 1:
                    classification = False
                    break
                continue
            if p % 5 not in (1, 4):
                classification = False
                break
    if brute != classification:
        raise AssertionError(
            "fibonacci criteria disagree at n=%d: brute=%s classified=%s"
            % (n, brute, classification)
        )
    return FibonacciReport(
        n=n,
        acts=brute,
        witness=witness,
        brute=brute,
        classification=classification,
    )
