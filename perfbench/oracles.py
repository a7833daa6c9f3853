"""Answers the benchmark knows without calling cyclotwist.

Every function here is plain stdlib integer arithmetic written for the
benchmark.  The checker compares the program's output against these, so
nothing in this file may import the package under test.
"""

from __future__ import annotations

from math import gcd


# ------------------------------------------------------------ integers

def prime_factors(n: int) -> dict:
    """{p: e} for n >= 1, by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def radical(n: int) -> int:
    r = 1
    for p in prime_factors(n):
        r *= p
    return r


def fibonacci_acts(n: int) -> bool:
    """x^2 = x + 1 is solvable mod n iff n is odd, every prime factor
    other than 5 is +-1 mod 5, and 5 divides n at most once."""
    if n % 2 == 0:
        return False
    for p, e in prime_factors(n).items():
        if p == 5:
            if e > 1:
                return False
        elif p % 5 not in (1, 4):
            return False
    return True


def fibonacci_accepted(max_n: int) -> int:
    return sum(1 for n in range(1, max_n + 1) if fibonacci_acts(n))


def automorphism_action(m: int, n: int, k: int) -> bool:
    return k % m % gcd(m, n) == 0


def tensor_action(m: int, n: int, k: int) -> bool:
    """Stabilized action exists iff at every prime p with p^r || m and
    p^s || n the residue k lies in p^min(r,s) Z, or in p^(r-s+1) Z for
    odd p, or in p^(r-s+2) Z for p = 2 (a power p^e with e <= 0 reads
    as Z)."""
    k %= m
    fn = prime_factors(n)
    for p, r in prime_factors(m).items():
        s = fn.get(p, 0)
        shift = 2 if p == 2 else 1
        if any(e <= 0 or k % p ** e == 0 for e in (min(r, s), r - s + shift)):
            continue
        return False
    return True


def agreement_triples(max_mn: int) -> int:
    """Triples (m, n, k) with 1 <= m, n <= max_mn and 0 <= k < m."""
    return max_mn * max_mn * (max_mn + 1) // 2


def tlj_det(k: int) -> int:
    return 2 ** (k + 1) * (k + 2) ** (k - 1)


# ------------------------------------------------------------ cocycles
#
# Tables hold integer numerators over one denominator L, laid out as
# index i*m*m + j*m + h, the layout of cyclotwist's JSON table format.

def omega_table(m: int, k: int, L: int) -> list:
    """omega_m^k(i,j,h) = floor((i+j)/m) h k / m, as numerators mod L."""
    s = L // m
    return [((i + j) // m) * h * k * s % L
            for i in range(m) for j in range(m) for h in range(m)]


def coboundary_table(m: int, beta: list, L: int) -> list:
    """d(beta)(i,j,h) = b(j,h) - b(i+j,h) + b(i,j+h) - b(i,j) mod L."""
    return [(beta[j][h] - beta[(i + j) % m][h] + beta[i][(j + h) % m]
             - beta[i][j]) % L
            for i in range(m) for j in range(m) for h in range(m)]


def cocycle_defect(m: int, vals: list, L: int, f: int, g: int, h: int,
                   k: int) -> int:
    """Numerator of (dc)(f,g,h,k) mod L; zero iff the identity holds."""
    mm = m * m

    def v(a, b, c):
        return vals[(a % m) * mm + (b % m) * m + c % m]

    return (v(g, h, k) - v(f + g, h, k) + v(f, g + h, k) - v(f, g, h + k)
            + v(f, g, h)) % L


def is_cocycle(m: int, vals: list, L: int) -> bool:
    return not any(cocycle_defect(m, vals, L, f, g, h, k)
                   for f in range(m) for g in range(m)
                   for h in range(m) for k in range(m))


# ------------------------------------------------------------- Pimsner
#
# A spec is an n x n table of non-negative ints or "inf".

def _row_infinite(row) -> bool:
    return any(v == "inf" for v in row)


def _closure(mult, start: set, absorb: bool) -> set:
    """Least superset of start closed under the forward map and, with
    absorb, containing every finite row whose support lies inside."""
    n = len(mult)
    s = set(start)
    changed = True
    while changed:
        changed = False
        for i in list(s):
            for j in range(n):
                if mult[i][j] != 0 and j not in s:
                    s.add(j)
                    changed = True
        if absorb:
            for i in range(n):
                if i not in s and not _row_infinite(mult[i]) and all(
                        mult[i][j] == 0 or j in s for j in range(n)):
                    s.add(i)
                    changed = True
    return s


def pimsner_verdicts(mult) -> dict:
    """Flags and both simplicity verdicts, decided from the least
    closure of each single vertex: a proper closure is a witness, and
    every nontrivial closed set contains one.  ``minimal`` lists the
    distinct proper Cuntz-Pimsner closures (1-based, sorted)."""
    n = len(mult)
    full_set = set(range(n))
    proper = not any(_row_infinite(row) for row in mult)
    fwd = [_closure(mult, {v}, False) for v in range(n)]
    toeplitz = (all(_row_infinite(row) for row in mult)
                and all(c == full_set for c in fwd))
    out = {
        "faithful": all(any(v != 0 for v in row) for row in mult),
        "full": all(any(mult[i][j] != 0 for i in range(n))
                    for j in range(n)),
        "proper": proper,
        "toeplitz": toeplitz,
        "cp": None,
        "minimal": [],
    }
    if not proper:
        inv = [_closure(mult, {v}, True) for v in range(n)]
        minimal = sorted({tuple(sorted(x + 1 for x in c))
                          for c in inv if c != full_set})
        out["cp"] = not minimal
        out["minimal"] = [list(w) for w in minimal]
    return out


def pimsner_invariant(mult, labelled) -> bool:
    """Whether the 1-based subset is closed under both inclusions."""
    s = {x - 1 for x in labelled}
    return _closure(mult, s, True) == s


# ------------------------------------------------ real cyclotomic rings

def minpoly(p: int) -> list:
    """Coefficients (lowest first) of the minimal polynomial of
    2cos(2pi/p): zeta^-h Phi_p(zeta) = 1 + sum_{j=1..h} C_j(x) with
    x = zeta + 1/zeta and C_0 = 2, C_1 = x, C_{j+1} = x C_j - C_{j-1}."""
    h = (p - 1) // 2
    C = [[2], [0, 1]]
    for j in range(1, h):
        a = [0] + C[j]
        b = C[j - 1] + [0] * (len(a) - len(C[j - 1]))
        C.append([x - y for x, y in zip(a, b)])
    mu = [1] + [0] * h
    for j in range(1, h + 1):
        for i, c in enumerate(C[j]):
            mu[i] += c
    return mu


def beta_matrix(p: int, rank: int) -> list:
    """Right multiplication by beta on R^rank, rows in the power basis."""
    mu = minpoly(p)
    h = len(mu) - 1
    d = rank * h
    rows = []
    for s in range(rank):
        for c in range(h):
            row = [0] * d
            if c < h - 1:
                row[s * h + c + 1] = 1
            else:
                for j in range(h):
                    row[s * h + j] = -mu[j]
            rows.append(row)
    return rows


def two_order(p: int) -> int:
    """Least f with 2^f = +-1 mod p: the degree of each prime over 2."""
    f, x = 1, 2 % p
    while x not in (1, p - 1):
        x = 2 * x % p
        f += 1
    return f


def f2_mul(a: int, b: int) -> int:
    """Product of GF(2) polynomials packed as bit masks (bit i = x^i)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def f2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def mu_mod2(p: int) -> int:
    return sum(1 << i for i, c in enumerate(minpoly(p)) if c % 2)


def factors_mod2(p: int) -> list:
    """The irreducible factors of mu mod 2, ascending as bit masks.  mu
    mod 2 is a squarefree product of factors of one degree f, so its
    degree-f divisors are exactly those factors."""
    f = two_order(p)
    mu2 = mu_mod2(p)
    return [c for c in range(1 << f, 1 << (f + 1)) if not f2_mod(mu2, c)]


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]
