"""Circle-valued 3-cocycles on Z/mZ with exact integer arithmetic.

A value q in Q/Z stands for the circle element e^{2*pi*i*q}; tables are
dense over {0..m-1}^3 and hold integer numerators mod one reduced
denominator, so equal tables store equal integers.  Fractions appear only
in ``value``, the beta of ``coboundary`` and error messages.  The
standard cocycles are

    omega_m^k(i,j,h) = floor((i+j)/m) * h*k/m   (mod 1),

one per class in H^3(Z/mZ; Q/Z) = Z/mZ.

Class identification needs no linear solve.  The sum
sum_j c(1,j,1) is k/m mod 1 for c cohomologous to omega_m^k, because the
terms of a coboundary telescope away in it; so k = m * sum_j c(1,j,1).
The certificate is a 2-cochain beta with c - omega_m^k = d(beta), built
in closed form from the slice i = 1 and checked in one integer pass over
the table.  This also decides whether c is a cocycle: every cocycle
passes, and only cocycles can, since omega_m^k and d(beta) are cocycles.
The identity scan visits only the 2*m^3 quadruples with first index 0, 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index

from ._record import Record

# the m^3-entry table and its JSON bind: at m = 96 (6.6 MB of JSON) each
# cocycle command takes 0.4-1.4 s and 50-70 MB as a process on 2 cores
_MAX_ORDER = 96


# embed's table holds numerators over m*n, so its cost grows with the
# digits of n: at m = 96, as a process on 2 cores, 0.50 s and 74 MB at
# n = 10, 0.66 s and 84 MB at 10^14, 1.0 s and 193 MB at 10^300 and
# 2.3 s and 456 MB at 10^1000; a larger n is refused
_MAX_EMBED_N = 10**14


def _check_order(m: int):
    if not 1 <= m <= _MAX_ORDER:
        raise ValueError("group order must be >= 1 and <= %d" % _MAX_ORDER)


class Cocycle3(Record):
    """Dense table c(i,j,h) = nums[(i*m + j)*m + h] / den mod 1 on
    {0..m-1}^3, with 0 <= nums < den and den as small as possible."""

    m: int
    den: int
    nums: tuple

    def __post_init__(self):
        m, den = index(self.m), index(self.den)
        if den < 1:
            raise ValueError("denominator must be >= 1")
        _check_order(m)
        nums = [index(n) % den for n in self.nums]
        if len(nums) != m**3:
            raise ValueError("need exactly m^3 values")
        g = gcd(den, *nums)
        self.__dict__.update(m=m, den=den // g,
                             nums=tuple(n // g for n in nums))

    @classmethod
    def from_function(cls, m: int, den: int, fn) -> "Cocycle3":
        """The table with numerators fn(i, j, h) over ``den``."""
        _check_order(m)
        return cls(
            m,
            den,
            [
                fn(i, j, h)
                for i in range(m)
                for j in range(m)
                for h in range(m)
            ],
        )

    def value(self, i: int, j: int, h: int) -> Fraction:
        m = self.m
        return Fraction(
            self.nums[(i % m) * m * m + (j % m) * m + (h % m)], self.den)

    def add(self, other: "Cocycle3") -> "Cocycle3":
        if self.m != other.m:
            raise ValueError("group orders differ")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Cocycle3(
            self.m, den, [a * x + b * y for x, y in zip(self.nums, other.nums)]
        )

    def to_json_obj(self) -> dict:
        return {"m": self.m, "denominator": self.den,
                "values": list(self.nums)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Cocycle3":
        return cls(obj["m"], obj["denominator"], obj["values"])

    def __repr__(self):
        return "Cocycle3(m=%d)" % self.m


class CohClass(Record):
    m: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k < self.m:
            raise ValueError("class representative out of range")


class CocycleCheck(Record):
    ok: bool
    witness: tuple | None  # first violating (f,g,h,k) if any


class NotClassified(ArithmeticError):
    """The table is not a cocycle, so it has no class."""


def omega(m: int, k: int) -> Cocycle3:
    """The standard cocycle with class k: carry(i,j) * h*k/m mod 1.

    >>> omega(2, 1).value(1, 1, 1)
    Fraction(1, 2)
    """
    return _restrict(m, 1, k)


def _restrict(m: int, n: int, k: int) -> Cocycle3:
    """omega_{mn}^k pulled back along i -> n*i, as a table on Z/m; its
    (mn)^3 table is never built.  The values n*h*k/(mn) = h*k/m mod 1
    depend on k mod m only, so k is reduced first."""
    _check_order(m)
    k %= m
    mn = m * n
    return Cocycle3.from_function(
        m, mn, lambda i, j, h: ((n * i + n * j) // mn) * n * h * k)


def is_cocycle(c: Cocycle3) -> CocycleCheck:
    """The cocycle identity on the numerators mod den, decided on the
    slices f = 0, 1: E = dc has dE = 0, and (dE)(1,b,c,e,f) = 0 reads
    E(b+1,.) = E(b,.) plus terms of the slice E(1,.), so E vanishes iff
    that slice does.  The witness, the lex-first violation, has f <= 1."""
    m, den = c.m, c.den
    rows = [c.nums[r * m:(r + 1) * m] for r in range(m * m)]
    for f in range(min(m, 2)):
        for g in range(m):
            fg = (f + g) % m
            row = rows[f * m + g]
            twice = row + row
            for h in range(m):
                left = row[h]
                for k, (a, b, x, y) in enumerate(zip(
                        rows[f * m + (g + h) % m], rows[g * m + h],
                        rows[fg * m + h], twice[h:h + m])):
                    if (left + a + b - x - y) % den:
                        return CocycleCheck(False, (f, g, h, k))
    return CocycleCheck(True, None)


def coboundary(m: int, beta) -> Cocycle3:
    """d(beta)(i,j,h) = beta(j,h) - beta(i+j,h) + beta(i,j+h) - beta(i,j).

    ``beta`` is indexed as beta[i][j] (or any callable-free 2D table) of
    rationals; the result is always a cocycle of trivial class.
    """
    tab = [[Fraction(beta[i][j]) for j in range(m)] for i in range(m)]
    den = lcm(*(x.denominator for row in tab for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row] for row in tab]
    return Cocycle3.from_function(
        m, den,
        lambda i, j, h: b[j][h] - b[(i + j) % m][h] + b[i][(j + h) % m]
        - b[i][j])


def cohomology_class(c: Cocycle3) -> CohClass:
    """The unique k with c cohomologous to omega_m^k, certified.

    k = m * sum_j c(1,j,1) mod m: coboundary terms telescope away in the
    sum and sum_j omega_m^k(1,j,h) = h*k/m.  The witness beta with
    g = c - omega_m^k = d(beta) is closed form and is checked in one pass
    over integer numerators mod D = lcm(den, m).  Raises NotClassified
    exactly when c is not a cocycle.
    """
    m, v = c.m, c.nums
    # the slice i = 1, with the index 1 wrapped to 0 when m = 1
    one = 1 % m
    s = m * sum(v[(one * m + j) * m + one] for j in range(m))
    if s % c.den:
        raise NotClassified(
            "m * sum_j c(1,j,1) = %s is not an integer" % Fraction(s, c.den))
    k = s // c.den % m
    D = lcm(c.den, m)
    a = D // c.den
    # beta(1,.) = 0 and beta(j,h) - beta(j+1,h) = g(1,j,h) give
    # d(beta) = g on the slice i = 1; at j = m-1 this needs
    # sum_j g(1,j,h) = 0, true for every h when g is a cocycle of class 0.
    # delta = g - d(beta) is then a cocycle vanishing at i = 1, and the
    # cocycle identity at f = 1 reads delta(i+1,.,.) = delta(i,.,.), so
    # delta = 0 everywhere.  beta reads c alone: g(1,j,.) = c(1,j,.) for
    # j < m-1, and omega_m^k(i,j,h) over D is h*k*D/m where i + j carries.
    at = one * m * m
    beta = [[a * x for x in v[at:at + m]], [0] * m][:m]
    for j in range(1, m - 1):
        row = v[at + j * m:at + j * m + m]
        beta.append([x - a * y for x, y in zip(beta[j], row)])
    carry, zero = [h * k * (D // m) for h in range(m)], [0] * m
    for i, bi in enumerate(beta):
        for j in range(m):
            at, t = (i * m + j) * m, bi[j]
            if any((a * x - w - y + z - u + t) % D for x, w, y, z, u in zip(
                    v[at:at + m], carry if i + j >= m else zero, beta[j],
                    beta[(i + j) % m], bi[j:] + bi[:j])):
                raise NotClassified(
                    "c - omega_%d^%d is not the coboundary of its witness"
                    % (m, k))
    return CohClass(m, k)


def embed_check(m: int, n: int, k: int) -> bool:
    """Exact identity omega_m^k(i,j,h) = omega_{mn}^k(ni,nj,nh) on all of
    {0..m-1}^3; the composition-series embedding at the cocycle level.
    n is limited to ``_MAX_EMBED_N``."""
    if m < 1 or n < 1:
        raise ValueError("orders must be >= 1")
    if n > _MAX_EMBED_N:
        raise ValueError("n must be <= %d" % _MAX_EMBED_N)
    return omega(m, k) == _restrict(m, n, k)


def crt_check(m: int, n: int, k: int) -> bool:
    """Pull omega_{mn}^k back along (i,j) -> ni+mj and classify each leg.

    For coprime m, n the restriction to the first factor must have class
    k mod m and the second k mod n; both are decided by
    ``cohomology_class``, not by syntactic comparison.
    """
    if gcd(m, n) != 1:
        raise ValueError("orders must be coprime")
    return (
        cohomology_class(_restrict(m, n, k)).k == k % m
        and cohomology_class(_restrict(n, m, k)).k == k % n
    )
