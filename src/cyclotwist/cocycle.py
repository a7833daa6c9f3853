"""Circle-valued 3-cocycles on Z/mZ with exact rational arithmetic.

A value q in Q/Z stands for the circle element e^{2*pi*i*q}; tables are
dense over {0..m-1}^3 and every entry is a Fraction, so cohomology-class
computations are exact.  The standard cocycles are

    omega_m^k(i,j,h) = floor((i+j)/m) * h*k/m   (mod 1),

one per class in H^3(Z/mZ; Q/Z) = Z/mZ.

Class identification is a linear solve: c - omega_m^k = d(beta) for a
2-cochain beta with values in (1/L)Z/Z, L = lcm(m, denominators of c).
After scaling by L this is an integer system mod L whose matrix depends
only on m, so its Smith form is computed once and reused; each candidate
k then costs one back-substitution (``exactalg.snf_back_substitute``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactalg import IntMatrix, smith_normal_form, snf_back_substitute


class Cocycle3:
    """Dense table c(i,j,h) of exact rationals mod 1 on {0..m-1}^3."""

    __slots__ = ("m", "values")

    def __init__(self, m: int, values):
        if m < 1:
            raise ValueError("group order must be >= 1")
        self.m = m
        vals = tuple(Fraction(v) % 1 for v in values)
        if len(vals) != m**3:
            raise ValueError("need exactly m^3 values")
        self.values = vals

    @classmethod
    def from_function(cls, m: int, fn) -> "Cocycle3":
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
        m = int(obj["m"])
        L = int(obj["denominator"])
        if L < 1:
            raise ValueError("denominator must be >= 1")
        return cls(m, [Fraction(int(n), L) for n in obj["values"]])

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
    """No k in 0..m-1 solves c - omega_m^k = d(beta) at denominator L."""


def omega(m: int, k: int) -> Cocycle3:
    """The standard cocycle with class k: carry(i,j) * h*k/m mod 1.

    >>> omega(2, 1).value(1, 1, 1)
    Fraction(1, 2)
    """
    if m < 1:
        raise ValueError("group order must be >= 1")
    return Cocycle3.from_function(
        m, lambda i, j, h: Fraction(((i + j) // m) * h * k, m)
    )


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


# per group order: the Smith form of the coboundary matrix and the
# U-image of the scaled standard table m*omega_m^1
_SOLVER_CACHE: dict = {}


def _coboundary_matrix(m: int) -> IntMatrix:
    mm = m * m
    rows = []
    for i in range(m):
        for j in range(m):
            ij = (i + j) % m
            for h in range(m):
                row = [0] * mm
                jh = (j + h) % m
                row[j * m + h] += 1
                row[ij * m + h] -= 1
                row[i * m + jh] += 1
                row[i * m + j] -= 1
                rows.append(row)
    return IntMatrix.from_rows(rows)


def _solver_data(m: int):
    data = _SOLVER_CACHE.get(m)
    if data is None:
        snf = smith_normal_form(_coboundary_matrix(m))
        base = omega(m, 1)
        w = [int(v * m) for v in base.values]  # integer table m*omega_m^1
        Uw = snf.U.apply(w)
        data = (snf, Uw)
        _SOLVER_CACHE[m] = data
    return data


def cohomology_class(c: Cocycle3) -> CohClass:
    """The unique k with c cohomologous to omega_m^k, by linear solving.

    Tries k = 0..m-1 in order and returns the first k for which
    c - omega_m^k is a coboundary of a 2-cochain with denominator
    dividing L = lcm(m, denominators of c).  The recovered beta is
    substituted back and checked exactly.

    Raises NotClassified when no k works, which signals a non-cocycle
    input (or a genuinely unreachable denominator; never observed for
    multiples of m).
    """
    m = c.m
    if m == 1:
        return CohClass(1, 0)
    snf, Uwm = _solver_data(m)
    L0 = c.denominator_lcm()
    L = L0 // gcd(L0, m) * m
    scale = L // m
    c_u = snf.U.apply([int(v * L) for v in c.values])
    for k in range(m):
        # U*(L*(c - omega_m^k)) without a second pass through U
        x = snf_back_substitute(
            snf, [a - k * scale * w for a, w in zip(c_u, Uwm)], L)
        if x is None:
            continue
        beta = [[Fraction(x[i * m + j], L) for j in range(m)]
                for i in range(m)]
        if c.sub(omega(m, k)) != coboundary(m, beta):
            raise AssertionError(
                "solver returned an invalid coboundary certificate")
        return CohClass(m, k)
    raise NotClassified(
        "no class in 0..%d matches at denominator %d" % (m - 1, L)
    )


def embed_check(m: int, n: int, k: int) -> bool:
    """Exact identity omega_m^k(i,j,h) = omega_{mn}^k(ni,nj,nh) on all of
    {0..m-1}^3; the composition-series embedding at the cocycle level."""
    if m < 1 or n < 1:
        raise ValueError("orders must be >= 1")
    small = omega(m, k)
    big = omega(m * n, k)
    for i in range(m):
        for j in range(m):
            for h in range(m):
                if small.value(i, j, h) != big.value(n * i, n * j, n * h):
                    return False
    return True


def crt_check(m: int, n: int, k: int) -> bool:
    """Pull omega_{mn}^k back along (i,j) -> ni+mj and classify each leg.

    For coprime m, n the restriction to the first factor must have class
    k mod m and the second k mod n; both are decided with the class
    solver, not by syntactic comparison.
    """
    if gcd(m, n) != 1:
        raise ValueError("orders must be coprime")
    big = omega(m * n, k)
    first = Cocycle3.from_function(
        m, lambda i, j, h: big.value(n * i, n * j, n * h)
    )
    second = Cocycle3.from_function(
        n, lambda i, j, h: big.value(m * i, m * j, m * h)
    )
    return (
        cohomology_class(first).k == k % m
        and cohomology_class(second).k == k % n
    )
