"""Slow, independent routes kept as test oracles for ``exactalg``.

Production code answers every Z-linear question through the one Smith
elimination; the routes here are the ones it replaced: the Bareiss
determinant, the per-vector Smith back-substitution, the full re-check
of a Smith form, and float-friendly polynomial evaluation.  For
``fusion``: the fold of every label that built the dk module and the
pairwise check of the module axioms, both replaced by the module's
generator and its Chebyshev certificate.  For ``cocycle``: the identity
scan over all m^4 quadruples, in integers and in Fractions, which the
two-slice scan replaced, and the class witness substituted back through
Fraction-built tables, which the one integer pass replaced.  For
``numring``: the k^4 GF(2) echelon that solved Higman's equation before
the mod-2 normal form of Y replaced it, the row action that walked
whole matrix rows, and the Z-matrix of an R-linear map built entry by
entry from a matrix of ring elements, which the beta-orbits of the
basis images replaced.  For ``obstruction``: the prime-by-prime local test
and the Fraction-built divisibility form that the two moduli replaced,
and the criterion sweep that asked both, and the automorphism
criterion, once per triple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from cyclotwist.cocycle import Cocycle3, coboundary, omega
from cyclotwist.exactalg import (
    F2Echelon,
    IntMatrix,
    PolyZ,
    SNFResult,
    factorize,
    radical,
    smith_normal_form,
)
from cyclotwist.fusion import FusionRing, tlj
from cyclotwist.obstruction import (
    ActionQuery,
    exists_automorphism_action,
    exists_tensor_action,
    intro_formulation,
)

# snf_verify checks det(U), det(V) = +-1 only up to this many rows: Bareiss
# minors of large transforms can be huge
_DET_CHECK_MAX_DIM = 64

# the polynomial X
X = PolyZ([0, 1])


def apply(M: IntMatrix, vector) -> list:
    """M times a column vector, as a plain list."""
    v = list(vector)
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    n, e = M.cols, M.entries
    return [sum(map(mul, e[i * n:(i + 1) * n], v)) for i in range(M.rows)]


def poly_eval(p: PolyZ, x):
    """p at an int, Fraction or float, by Horner's rule."""
    acc = 0 * x if p.coeffs else 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def det_bareiss(A: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pk - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pk
    return sign * M[n - 1][n - 1]


def snf_verify(r: SNFResult, A: IntMatrix) -> bool:
    """Re-check every Smith-form invariant of r against A: S = U*A*V,
    a non-negative diagonal chain d_1 | d_2 | ..., zero off the
    diagonal, and unimodular U and V (up to ``_DET_CHECK_MAX_DIM`` rows)."""
    if r.U @ A @ r.V != r.S:
        return False
    d = r.diagonal()
    if any(x < 0 for x in d):
        return False
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    if any(x for i, row in enumerate(r.S.to_rows())
           for j, x in enumerate(row) if i != j):
        return False
    if max(A.rows, A.cols) <= _DET_CHECK_MAX_DIM:
        if abs(det_bareiss(r.U)) != 1 or abs(det_bareiss(r.V)) != 1:
            return False
    return True


def solve_one(A: IntMatrix, b, snf: SNFResult | None = None):
    """An integer x with A*x = b, or None, one right-hand side per call:
    with S = U*A*V diagonal, s_i * y_i = (U*b)_i one coordinate at a
    time, then x = V*y."""
    b = list(b)
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    if snf is None:
        snf = smith_normal_form(A)
    diag = snf.diagonal()
    y = [0] * snf.V.rows
    for i, ci in enumerate(apply(snf.U, b)):
        s = diag[i] if i < len(diag) else 0
        if s == 0:
            if ci:
                return None
        else:
            q, r = divmod(ci, s)
            if r:
                return None
            y[i] = q
    return apply(snf.V, y)


def contains_all(x, y) -> bool:
    """Every row of y lies in the Z-span of the rows of x: one Smith form
    of x^T, then one back-substitution per row of y."""
    if not x:
        return not any(any(v) for v in y)
    At = IntMatrix.from_rows(x).transpose()
    snf = smith_normal_form(At)
    return all(solve_one(At, v, snf) is not None for v in y)


def fold_action(k: int) -> list:
    """The action of every label of tlj(k) on the dk module: fusion with
    pi_j in tlj(k), then indices folded through i -> min(i, k-i)."""
    R = tlj(k)
    rank = k // 2 + 1
    action = []
    for j in range(R.rank):
        rows = [[0] * rank for _ in range(rank)]
        for b in range(rank):
            for h in range(R.rank):
                rows[min(h, k - h)][b] += R.N[h][b][j]
        action.append(IntMatrix.from_rows(rows))
    return action


def module_axioms_hold(base: FusionRing, action) -> bool:
    """The unit acts as the identity and action[a] @ action[b] =
    sum_t N[t][a][b] action[t] for every pair of labels: rank^2
    products of the action matrices."""
    n = action[base.unit].rows
    if action[base.unit] != IntMatrix.identity(n):
        return False
    r = base.rank
    for a in range(r):
        for b in range(r):
            rhs = IntMatrix.zeros(n, n)
            for t in range(r):
                if base.N[t][a][b]:
                    rhs = rhs + action[t].scale(base.N[t][a][b])
            if action[a] @ action[b] != rhs:
                return False
    return True


def sub(c: Cocycle3, d: Cocycle3) -> Cocycle3:
    """The table c - d, mod 1."""
    return c.add(Cocycle3(d.m, d.den, [-x for x in d.nums]))


def full_scan(c: Cocycle3):
    """The cocycle identity over all m^4 quadruples on the numerators mod
    den, in lex order; the first violating quadruple or None."""
    m, den, v = c.m, c.den, c.nums
    for f in range(m):
        for g in range(m):
            for h in range(m):
                for k in range(m):
                    lhs = (v[(f * m + g) * m + h]
                           + v[(f * m + (g + h) % m) * m + k]
                           + v[(g * m + h) * m + k])
                    rhs = (v[(((f + g) % m) * m + h) * m + k]
                           + v[(f * m + g) * m + (h + k) % m])
                    if (lhs - rhs) % den:
                        return (f, g, h, k)
    return None


def fraction_scan(c: Cocycle3):
    """The cocycle identity over all m^4 quadruples in Fractions mod 1,
    read through ``value``; the first violating quadruple or None."""
    m, val = c.m, c.value
    for f in range(m):
        for g in range(m):
            for h in range(m):
                for k in range(m):
                    lhs = val(f, g, h) + val(f, g + h, k) + val(g, h, k)
                    rhs = val(f + g, h, k) + val(f, g, h + k)
                    if (lhs - rhs) % 1:
                        return (f, g, h, k)
    return None


def fraction_class(c: Cocycle3):
    """k = m * sum_j c(1,j,1) mod m when that is an integer, confirmed by
    substituting the closed-form witness beta back as Fraction tables:
    g = c - omega_m^k must equal coboundary(m, beta).  k, or None when
    either step fails."""
    m = c.m
    one = 1 % m
    s = m * sum(c.value(one, j, one) for j in range(m))
    if s.denominator != 1:
        return None
    k = int(s) % m
    g = sub(c, omega(m, k))
    beta = [[Fraction(0)] * m for _ in range(m)]
    beta[0] = [g.value(one, 0, h) for h in range(m)]
    for j in range(1, m - 1):
        beta[j + 1] = [b - g.value(one, j, h)
                       for h, b in enumerate(beta[j])]
    return k if g == coboundary(m, beta) else None


def rmat_to_z(ring, rmat, k: int) -> IntMatrix:
    """Z-matrix (row action, power-basis layout) of a k x k matrix of
    ring elements acting on the right of R^k: row (s, c) is the
    coefficients of rmat[s][t] beta^c, t = 0..k-1."""
    deg = ring.degree
    rows = []
    for s in range(k):
        for c in range(deg):
            row = []
            shift = PolyZ([0] * c + [1]) if c else PolyZ([1])
            for t in range(k):
                row.extend(ring.coeff_vector(ring.reduce(rmat[s][t] * shift)))
            rows.append(row)
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, 0)


def r_entries(module) -> list:
    """The k x k matrix of ring elements of the Y of a module on the free
    R^k: entry (s, t) is the t-th block of the image of e_s."""
    deg, k = module.lattice.ring.degree, module.lattice.rank
    return [[PolyZ(module.Y.row(s * deg)[t * deg:(t + 1) * deg])
             for t in range(k)] for s in range(k)]


def higman_echelon(ring, y_r):
    """Z-matrix of an R-linear phi with phi + Y phi Y = 1 on R^k, or None:
    L(phi) = 1 mod 2 as one GF(2) echelon over the k^2 * deg unknowns
    beta^c E_uv, each a vector of k^2 * deg bits (entry (s, t) of a
    matrix over R/2R at bit offset (s * k + t) * deg), then the exact
    lift x = (1 - L(phi_0)) / 2."""
    k, deg = len(y_r), ring.degree
    mu2 = ring.mu.reduce_mod2()
    y2 = [[a.reduce_mod2() for a in row] for row in y_r]
    ech = F2Echelon()
    for u in range(k):
        for v in range(k):
            # the entries of L(E_uv), then of L(beta^c E_uv) = beta^c L(E_uv)
            ent = [((y2[s][u] * y2[v][t]) % mu2).bits ^ (s == u and t == v)
                   for s in range(k) for t in range(k)]
            for _ in range(deg):
                ech.add(sum(e << (i * deg) for i, e in enumerate(ent)))
                ent = [(e << 1) ^ (e >> (deg - 1)) * mu2.bits for e in ent]
    combo = ech.solve(sum(1 << (s * (k + 1) * deg) for s in range(k)))
    if combo is None:
        return None
    phi0 = rmat_to_z(ring, [[PolyZ([(combo >> ((u * k + v) * deg + c)) & 1
                                    for c in range(deg)])
                             for v in range(k)] for u in range(k)], k)
    y = rmat_to_z(ring, y_r, k)
    rest = IntMatrix.identity(k * deg) - phi0 - y @ phi0 @ y
    return phi0 + IntMatrix.from_rows([[a // 2 for a in row]
                                       for row in rest.to_rows()])


def row_act_dense(A: IntMatrix, v) -> list:
    """v . A for a row vector v, one whole row of A per nonzero entry."""
    out = [0] * A.cols
    for i, x in enumerate(v):
        if x:
            for j, a in enumerate(A.row(i)):
                out[j] += x * a
    return out


def matmul_naive(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A @ B by the definition, one dot product per entry."""
    return IntMatrix(A.rows, B.cols,
                     [sum(A.at(i, t) * B.at(t, j) for t in range(A.cols))
                      for i in range(A.rows) for j in range(B.cols)])


def tensor_local(m: int, n: int, k: int) -> bool:
    """The tensor criterion decided prime by prime: for p^r || m and
    p^s || n, k in p^min(r,s) Z, or in p^(r-s+1) Z for odd p, or in
    p^(r-s+2) Z for p = 2, with p^e Z read as Z for e <= 0."""
    def divides(p, e):
        return e <= 0 or k % p**e == 0

    for p, r in factorize(m).items():
        s, rest = 0, n
        while rest % p == 0:
            s, rest = s + 1, rest // p
        if not (divides(p, min(r, s))
                or divides(p, r - s + (2 if p == 2 else 1))):
            return False
    return True


def intro_fraction(m: int, n: int, k: int) -> bool:
    """The divisibility form through Fraction: a is the numerator of
    2 radical(m) m / n, and the action exists iff gcd(n, a, m) | k."""
    a = Fraction(2 * radical(m) * m, n).numerator
    return k % gcd(gcd(n, a), m) == 0


def agreement_scan(mmax: int) -> tuple:
    """(checked, disagreements, implication_failures) of the criterion
    sweep, asking the three criteria once per triple (m, n, k)."""
    checked = disagreements = implication_failures = 0
    for m in range(1, mmax + 1):
        for n in range(1, mmax + 1):
            for k in range(m):
                q = ActionQuery(m, n, k)
                t = exists_tensor_action(q)
                if t != intro_formulation(q):
                    disagreements += 1
                if exists_automorphism_action(q) and not t:
                    implication_failures += 1
                checked += 1
    return checked, disagreements, implication_failures
