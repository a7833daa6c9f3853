"""Circle-valued 3-cocycles on Z/mZ with exact rational arithmetic.

A value q in Q/Z stands for the circle element e^{2*pi*i*q}; tables are
dense over {0..m-1}^3 and every entry is a Fraction, so cohomology-class
computations are exact.  The standard cocycles are

    omega_m^k(i,j,h) = floor((i+j)/m) * h*k/m   (mod 1),

one per class in H^3(Z/mZ; Q/Z) = Z/mZ.

Class identification needs no linear solve.  The sum
sum_j c(1,j,1) is k/m mod 1 for c cohomologous to omega_m^k, because the
terms of a coboundary telescope away in it; so k = m * sum_j c(1,j,1).
The certificate is a 2-cochain beta with c - omega_m^k = d(beta), built
in closed form from the slice i = 1 and substituted back exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index

# tables have m^3 entries and the identity check visits m^4 quadruples:
# about 50 s at m = 48 on a 2-core VM
_MAX_ORDER = 48


def _check_order(m: int):
    if not 1 <= m <= _MAX_ORDER:
        raise ValueError("group order must be >= 1 and <= %d" % _MAX_ORDER)


class Cocycle3:
    """Dense table c(i,j,h) of exact rationals mod 1 on {0..m-1}^3."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values):
        _check_order(m)
        self.m = m
        vals = tuple(Fraction(v) % 1 for v in values)
        if len(vals) != m**3:
            raise ValueError("need exactly m^3 values")
        self.values = vals

    @classmethod
    def from_function(cls, m: int, fn) -> "Cocycle3":
        _check_order(m)
        return cls(
            m,
            [
                fn(i, j, h)
                for i in range(m)
                for j in range(m)
                for h in range(m)
            ],
        )

    def value(self, i: int, j: int, h: int) -> Fraction:
        m = self.m
        return self.values[(i % m) * m * m + (j % m) * m + (h % m)]

    def denominator_lcm(self) -> int:
        L = 1
        for v in self.values:
            d = v.denominator
            L = L // gcd(L, d) * d
        return L

    def add(self, other: "Cocycle3") -> "Cocycle3":
        if self.m != other.m:
            raise ValueError("group orders differ")
        return Cocycle3(
            self.m, [a + b for a, b in zip(self.values, other.values)]
        )

    def sub(self, other: "Cocycle3") -> "Cocycle3":
        if self.m != other.m:
            raise ValueError("group orders differ")
        return Cocycle3(
            self.m, [a - b for a, b in zip(self.values, other.values)]
        )

    def to_json_obj(self) -> dict:
        L = self.denominator_lcm()
        return {
            "m": self.m,
            "denominator": L,
            "values": [int(v * L) for v in self.values],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Cocycle3":
        m = index(obj["m"])
        L = index(obj["denominator"])
        if L < 1:
            raise ValueError("denominator must be >= 1")
        return cls(m, [Fraction(index(n), L) for n in obj["values"]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cocycle3)
            and self.m == other.m
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.m, self.values))

    def __repr__(self):
        return "Cocycle3(m=%d)" % self.m


@dataclass(frozen=True)
class CohClass:
    m: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k < self.m:
            raise ValueError("class representative out of range")


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    witness: tuple | None  # first violating (f,g,h,k) if any


class NotClassified(Exception):
    """The table is not a cocycle, so it has no class."""


def omega(m: int, k: int) -> Cocycle3:
    """The standard cocycle with class k: carry(i,j) * h*k/m mod 1.

    >>> omega(2, 1).value(1, 1, 1)
    Fraction(1, 2)
    """
    return Cocycle3.from_function(
        m, lambda i, j, h: _omega_value(m, k, i, j, h))


def _omega_value(m: int, k: int, i: int, j: int, h: int) -> Fraction:
    """omega_m^k(i,j,h) for i, j in 0..m-1, without building the table."""
    return Fraction(((i + j) // m) * h * k, m) % 1


def is_cocycle(c: Cocycle3) -> CocycleCheck:
    """Exhaustive check of the cocycle identity over all m^4 quadruples."""
    m = c.m
    v = c.values
    mm = m * m

    def val(i, j, h):
        return v[i * mm + j * m + h]

    for f in range(m):
        for g in range(m):
            fg = (f + g) % m
            for h in range(m):
                gh = (g + h) % m
                left_fixed = val(f, g, h)
                for k in range(m):
                    lhs = left_fixed + val(f, gh, k) + val(g, h, k)
                    rhs = val(fg, h, k) + val(f, g, (h + k) % m)
                    if (lhs - rhs) % 1:
                        return CocycleCheck(ok=False, witness=(f, g, h, k))
    return CocycleCheck(ok=True, witness=None)


def reverse(c: Cocycle3) -> Cocycle3:
    """The reversed cocycle c'(f,g,h) = c(-h,-g,-f); an involution."""
    m = c.m
    return Cocycle3.from_function(
        m, lambda f, g, h: c.value((-h) % m, (-g) % m, (-f) % m)
    )


def coboundary(m: int, beta) -> Cocycle3:
    """d(beta)(i,j,h) = beta(j,h) - beta(i+j,h) + beta(i,j+h) - beta(i,j).

    ``beta`` is indexed as beta[i][j] (or any callable-free 2D table) of
    rationals; the result is always a cocycle of trivial class.
    """
    tab = [[Fraction(beta[i][j]) for j in range(m)] for i in range(m)]

    def d(i, j, h):
        return (
            tab[j][h] - tab[(i + j) % m][h] + tab[i][(j + h) % m] - tab[i][j]
        )

    return Cocycle3.from_function(m, d)


def cohomology_class(c: Cocycle3) -> CohClass:
    """The unique k with c cohomologous to omega_m^k, certified.

    k = m * sum_j c(1,j,1) mod m: coboundary terms telescope away in the
    sum and sum_j omega_m^k(1,j,h) = h*k/m.  The witness beta with
    g = c - omega_m^k = d(beta) is closed form and is substituted back
    exactly.  Raises NotClassified when c is not a cocycle.
    """
    m = c.m
    km = m * sum(c.value(1, j, 1) for j in range(m))
    if km.denominator != 1:
        raise NotClassified(
            "m * sum_j c(1,j,1) = %s is not an integer" % km)
    k = int(km) % m
    g = c.sub(omega(m, k))
    # beta(1,.) = 0 and beta(j,h) - beta(j+1,h) = g(1,j,h) give
    # d(beta) = g on the slice i = 1; at j = m-1 this needs
    # sum_j g(1,j,h) = 0, true for every h when g is a cocycle of class 0.
    # delta = g - d(beta) is then a cocycle vanishing at i = 1, and the
    # cocycle identity at f = 1 reads delta(i+1,.,.) = delta(i,.,.), so
    # delta = 0 everywhere.
    beta = [[Fraction(0)] * m for _ in range(m)]
    beta[0] = [g.value(1, 0, h) for h in range(m)]
    for j in range(1, m - 1):
        beta[j + 1] = [beta[j][h] - g.value(1, j, h) for h in range(m)]
    if g != coboundary(m, beta):
        raise NotClassified(
            "c - omega_%d^%d is not the coboundary of its witness" % (m, k))
    return CohClass(m, k)


def embed_check(m: int, n: int, k: int) -> bool:
    """Exact identity omega_m^k(i,j,h) = omega_{mn}^k(ni,nj,nh) on all of
    {0..m-1}^3; the composition-series embedding at the cocycle level."""
    if m < 1 or n < 1:
        raise ValueError("orders must be >= 1")
    small = omega(m, k)
    for i in range(m):
        for j in range(m):
            for h in range(m):
                if small.value(i, j, h) != _omega_value(
                        m * n, k, n * i, n * j, n * h):
                    return False
    return True


def crt_check(m: int, n: int, k: int) -> bool:
    """Pull omega_{mn}^k back along (i,j) -> ni+mj and classify each leg.

    For coprime m, n the restriction to the first factor must have class
    k mod m and the second k mod n; both are decided by
    ``cohomology_class``, not by syntactic comparison.
    """
    if gcd(m, n) != 1:
        raise ValueError("orders must be coprime")
    first = Cocycle3.from_function(
        m, lambda i, j, h: _omega_value(m * n, k, n * i, n * j, n * h))
    second = Cocycle3.from_function(
        n, lambda i, j, h: _omega_value(m * n, k, m * i, m * j, m * h))
    return (
        cohomology_class(first).k == k % m
        and cohomology_class(second).k == k % n
    )
