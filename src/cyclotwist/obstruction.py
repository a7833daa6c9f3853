"""Arithmetic criteria for twisted cyclic-group actions on Cuntz algebras.

Everything here reduces existence questions for (Z/mZ, omega_m^k)-actions
on O_{n+1} to divisibility conditions on the twist residue k: each
criterion holds iff a modulus computed from m and n divides k.  The
tensor criterion has two independent moduli, the product T of the local
prime-by-prime conditions (tensor_modulus) and gcd(n, a, m) of the
divisibility form (intro_modulus), read from one factorization of m.
tensor_action evaluates both and compares them; a disagreement raises
instead of guessing.  agreement_sweep factors each m once, takes the
three moduli once per (m, n), and compares the three verdicts on every
k < m as rows of bits.
The Fibonacci test builds its root from the factorization of n and checks
the verdict against the classification of the primes of n mod 5.

K-theory enters only through its decidable shadow: K_0(O_{n+1}) = Z/nZ
with the unit as generator, and the circle-valued refinement whose
evaluation map multiplies a rational circle point by n.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod

from ._record import Record
from .exactalg import factorize

# Largest m or n factored here.  Trial division grows as sqrt(n): a prime
# near this limit takes about 1 s, and a 19-digit one minutes.
MAX_MODULUS = 10**14


class ActionQuery(Record):
    """(m, n, k): group order, Cuntz parameter, twist residue mod m."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("orders must be >= 1")
        if max(self.m, self.n) > MAX_MODULUS:
            raise ValueError("orders must be <= %d" % MAX_MODULUS)
        self.__dict__["k"] = self.k % self.m

    @cached_property
    def primes(self) -> dict:
        """factorize(m), computed once and shared by both routes."""
        return factorize(self.m)


class FibonacciReport(Record):
    n: int
    acts: bool
    witness: int | None  # a root of x^2 = x + 1 mod n when one exists


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


def tensor_modulus(m: int, n: int, primes: dict) -> int:
    """The modulus T of exists_tensor_action, which holds iff T divides
    k, given primes = factorize(m).

    For p^r || m and p^s || n the local condition at p holds iff

        k in p^min(r,s) Z,  or
        k in p^(r-s+1) Z and p odd,  or
        k in p^(r-s+2) Z and p = 2,

    with p^e Z read as all of Z for e <= 0.  The union of these nested
    subgroups is p^e Z with e = min(r, s, max(r - s + delta, 0)), delta
    1 for odd p and 2 for p = 2, and T is the product of those p^e.
    Primes dividing n but not m impose nothing (r = 0 makes e = 0), so
    n is never factored: only its valuation at each p | m is read.
    """
    t = 1
    for p, r in primes.items():
        s = 0
        while n % p == 0:
            s, n = s + 1, n // p
        t *= p ** min(r, s, max(r - s + (2 if p == 2 else 1), 0))
    return t


def intro_modulus(m: int, n: int, primes: dict) -> int:
    """The modulus gcd(n, a, m) of intro_formulation, given primes =
    factorize(m); radical(m) is the product of those primes."""
    num = 2 * prod(primes) * m
    return gcd(n, num // gcd(num, n), m)


def exists_tensor_action(q: ActionQuery) -> bool:
    """Existence of a twisted action on O_{n+1} tensored with a UHF-type
    stabilization, decided prime by prime: T divides k (tensor_modulus).
    """
    return q.k % tensor_modulus(q.m, q.n, q.primes) == 0


def intro_formulation(q: ActionQuery) -> bool:
    """Divisibility form of the tensor criterion: with l = radical(m)
    and a/b the lowest-terms form of 2*l*m/n, the action exists iff
    gcd(n, a, m) divides k (intro_modulus).

    >>> intro_formulation(ActionQuery(2, 2, 1))
    False
    >>> intro_formulation(ActionQuery(4, 2, 2))
    True
    """
    return q.k % intro_modulus(q.m, q.n, q.primes) == 0


def tensor_action(q: ActionQuery) -> bool:
    """The tensor criterion by both routes, exists_tensor_action and
    intro_formulation, which share the query's one factorization of m;
    a disagreement raises."""
    t = exists_tensor_action(q)
    if t != intro_formulation(q):
        raise AssertionError(
            "tensor and divisibility criteria disagree at m=%d n=%d k=%d"
            % (q.m, q.n, q.k))
    return t


def _multiples(d: int, m: int) -> int:
    """The bits k < m with d | k, as one integer: a repunit in base 2^d,
    cut to m bits."""
    span = -(-m // d) * d
    return ((1 << span) - 1) // ((1 << d) - 1) & ((1 << m) - 1)


def agreement_sweep(mmax: int) -> tuple:
    """(checked, disagreements, implication_failures) over the triples
    1 <= m, n <= mmax, 0 <= k < m: the tensor route against the
    divisibility form, and automorphism existence against the tensor
    route.

    Each m is factored once, and each (m, n) gives the three moduli
    (tensor, divisibility form, gcd(m, n)).  The verdicts of one route
    on all k < m are the bits of one integer, so every triple's three
    verdicts are compared at once.
    """
    checked = disagreements = implication_failures = 0
    for m in range(1, mmax + 1):
        primes = factorize(m)
        for n in range(1, mmax + 1):
            t = _multiples(tensor_modulus(m, n, primes), m)
            i = _multiples(intro_modulus(m, n, primes), m)
            a = _multiples(ev1_image(m, n), m)
            disagreements += (t ^ i).bit_count()
            implication_failures += (a & ~t).bit_count()
            checked += m
    return checked, disagreements, implication_failures


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p,
    by Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, x = i, b * b % p, x * b % p
        t = t * c % p
    return x


def _local_roots(p: int, e: int) -> list:
    """All roots of x^2 - x - 1 modulo p^e, for an odd prime p."""
    if p == 5:
        return [3] if e == 1 else []
    if pow(5, (p - 1) // 2, p) != 1:  # Euler's criterion
        return []
    r, roots = _sqrt_mod(5, p), []
    for x in ((1 + r) * (p + 1) // 2 % p, (1 - r) * (p + 1) // 2 % p):
        # x = (1 +- sqrt 5)/2 mod p, then Newton steps double the
        # precision; the derivative 2x - 1 is a unit since p != 5
        k, q = p, p**e
        while k < q:
            k = min(k * k, q)
            x = (x - (x * x - x - 1) * pow(2 * x - 1, -1, k)) % k
        roots.append(x)
    return roots


def fibonacci_acts(n: int) -> FibonacciReport:
    """Whether x^2 = x + 1 has a root mod n, certified two ways.

    Constructed route: an even n has no root mod 2.  For odd n the roots
    mod each prime power p^e of n are built (3 mod 5; otherwise Euler's
    criterion on 5, Tonelli-Shanks for sqrt 5 and Newton lifting to p^e)
    and combined by CRT over every choice of local root; the least is
    the witness, checked by substitution.  Classification route:
    impossible for even n; for odd n the root exists iff n is a product
    of primes congruent to +-1 mod 5, with at most a single factor of 5
    (quadratic reciprocity, independent of Euler's criterion).  The two
    verdicts are compared and a mismatch raises; no silent fallback.
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n > MAX_MODULUS:
        raise ValueError("modulus must be <= %d" % MAX_MODULUS)
    # x^2 - x - 1 is odd for every x, so an even n needs no factoring
    primes = factorize(n) if n % 2 else {}
    roots, modulus = [0] if n % 2 else [], 1
    for p, e in primes.items():
        q = p**e
        lift = pow(modulus, -1, q)
        roots = [r + modulus * ((s - r) * lift % q)
                 for r in roots for s in _local_roots(p, e)]
        if not roots:
            break
        modulus *= q
    witness = min(roots, default=None)
    if witness is not None and (witness * witness - witness - 1) % n:
        raise AssertionError("constructed root %d fails at n=%d"
                             % (witness, n))
    constructed = witness is not None
    classification = n % 2 == 1 and all(
        p % 5 in (1, 4) or (p == 5 and e == 1) for p, e in primes.items())
    if constructed != classification:
        raise AssertionError(
            "fibonacci criteria disagree at n=%d: constructed=%s "
            "classified=%s" % (n, constructed, classification)
        )
    return FibonacciReport(n, constructed, witness)
