"""Arithmetic in R = Z[2cos(2pi/p)] and constructive lattice splitting.

The ring R is the ring of integers of the maximal real subfield of the
p-th cyclotomic field (p an odd prime), generated by beta = 2cos(2pi/p)
with monic minimal polynomial mu of degree (p-1)/2.  Everything here is
exact: elements are integer coefficient vectors in the power basis of
beta.  Linear algebra comes from ``exactalg``: Smith forms for Z-spans,
with the questions put to one span asked as one batch of
``coordinates``, and its one GF(2) echelon for everything mod 2.  A
mod-2 action is an integer matrix (beta, an idempotent lift d_i(beta))
applied to an integer vector, whose class mod N is then read as its
normal form in the reduced echelon of N mod 2 (``_class``).
Each certificate is checked in its own verify(), and the constructions
below return a certificate only after that verify() has passed.

Contents:

* ``real_cyclotomic``  construct R from p; mu = U_d(X/2) + U_{d-1}(X/2)
  with d = (p-1)/2, certified by mu(X^2 - 2) = U_{p-1}(X/2)
* ``factor_two``       factor mu mod 2 (distinct/equal-degree splitting);
  the ring holds its own as the cached property ``two_factorization``,
  a value derived from its fields, so every construction over one ring
  factors 2 once
* ``idempotents_mod2`` CRT idempotents of R/2R
* ``galois``           matrices of the Galois group on the power basis
* ``galois_factor_permutation`` the Galois action on the factors of 2
* ``lattice_split``    the constructive proof that M[G]/N[G] splits off a
  free part: M[G] = L_0 + L_1 with N[G] = 2L_0 + L_1 (SplitCertificate)
* ``involution_split`` eigenlattice decomposition for an R-linear
  involution Y, with a Higman certificate for the projective remainder
  (InvolutionSplit)
* ``resolve_z2_module`` four-term resolutions of R[Z/2Z]-modules
  (Resolution)
* ``higman_check``     verify x = phi(x) + phi(xY)Y

Only ``real_cyclotomic``, ``free_z2_module`` and ``resolve_z2_module``
take a bare p; every other function reads R from what it is handed.

What each verify() proves from the stored matrices alone:

* SplitCertificate: the rows of L_0 and of L_1 come in orbits of the
  Galois-amplified beta of M, so both are R-submodules; together they
  are a Z-basis of M[G]; N has elementary divisors 1 and 2 only, so
  2Z^d <= N, membership in N is decided mod 2 and 2 L_0 + L_1 <= N[G];
  and N[G] <= 2 L_0 + L_1, also mod 2.
* InvolutionSplit: P_+ and P_- are orbit-laid, with Y = +1 and -1 on
  them; P_+, P_-, P_0 together are a Z-basis; and the Higman
  certificate is tied to P_0 by the stored basis T_0 of P_0, which
  intertwines Y and beta with the certificate's module.
* Resolution: equivariance of every map and exactness at each term.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod
from operator import index

from ._record import Record
from .exactalg import (
    F2Echelon,
    IntMatrix,
    PolyF2,
    PolyZ,
    chebyshev_matrices,
    chebyshev_t2,
    chebyshev_u,
    coordinates,
    elementary_divisors,
    is_prime,
    kernel_basis,
    pack_mod2,
    row_basis,
)


class RealCyclotomic(Record):
    """The ring Z[beta], beta = 2cos(2pi/p), in the power basis of beta.

    Elements are PolyZ of degree < (p-1)/2; reduction is exact division
    by the monic mu.
    """

    p: int
    mu: PolyZ

    def __post_init__(self):
        # read in the inner loops of reduce, so stored, not a property
        self.__dict__["degree"] = self.mu.degree()

    @cached_property
    def two_factorization(self) -> "PrimeFactorTwo":
        """factor_two(self), computed once and shared by every
        construction over this ring."""
        return factor_two(self)

    def reduce(self, a: PolyZ) -> PolyZ:
        if a.degree() < self.degree:
            return a
        _, r = a.divmod_exact(self.mu)
        return r

    def mul(self, a: PolyZ, b: PolyZ) -> PolyZ:
        return self.reduce(a * b)

    def coeff_vector(self, a: PolyZ) -> list:
        a = self.reduce(a)
        c = list(a.coeffs)
        return c + [0] * (self.degree - len(c))

    def mult_matrix(self, a: PolyZ) -> IntMatrix:
        """Matrix of multiplication by a on the power basis (columns)."""
        cols = []
        for i in range(self.degree):
            prod = self.mul(a, PolyZ([0] * i + [1]))
            cols.append(self.coeff_vector(prod))
        return IntMatrix.from_rows(cols).transpose()

    def beta_matrix(self) -> IntMatrix:
        return self.mult_matrix(PolyZ([0, 1]))


# `numring idem` takes 0.22 / 0.47 / 2.7 / 5.3 s at p = 401 / 601 / 1009 /
# 1601 on a 2-core VM, the slowest of the ring queries; larger p is refused
_MAX_PRIME = 1009


def real_cyclotomic(p: int) -> RealCyclotomic:
    """Build Z[2cos(2pi/p)] for an odd prime p <= _MAX_PRIME.

    With d = (p-1)/2, mu = U_d(X/2) + U_{d-1}(X/2): at X = 2cos 2t sum to
    product gives mu = sin(pt)/sin(t) = U_{p-1}(cos t), and squaring
    doubles the angle, (2cos t)^2 - 2 = 2cos 2t, so mu(X^2 - 2) =
    U_{p-1}(X/2).  That identity is checked; it determines mu, since
    f -> f(X^2 - 2) is injective on Z[X], and makes it monic of degree d.

    >>> real_cyclotomic(5).mu
    PolyZ([-1, 1, 1])
    """
    if p > _MAX_PRIME:
        raise ValueError("p must be an odd prime <= %d, got %r"
                         % (_MAX_PRIME, p))
    if not (p % 2 and is_prime(p)):
        raise ValueError("p must be an odd prime, got %r" % (p,))
    d = (p - 1) // 2
    mu = chebyshev_u(d) + chebyshev_u(d - 1)
    if mu.compose(PolyZ([-2, 0, 1])) != chebyshev_u(p - 1):
        raise ArithmeticError("mu(X^2 - 2) != U_%d(X/2)" % (p - 1))
    return RealCyclotomic(p, mu)


class PrimeFactorTwo(Record):
    """Factorization of mu modulo 2: distinct irreducibles, each of
    degree f."""

    ring: RealCyclotomic
    factors: tuple
    f: int

    count = property(lambda self: len(self.factors))

    def __post_init__(self):
        if len(set(g.bits for g in self.factors)) != self.count:
            raise ArithmeticError("repeated factor: 2 would ramify")
        degs = {g.degree() for g in self.factors}
        if degs != {self.f}:
            raise ArithmeticError(
                "residue degrees %r, want the order of 2 in (Z/%dZ)^x/{+-1}"
                " = %d" % (sorted(degs), self.ring.p, self.f))


def _order_of_two_mod_p_up_to_sign(p: int) -> int:
    t = 1
    x = 2 % p
    while x != 1 and x != p - 1:
        x = (x * 2) % p
        t += 1
    return t


def factor_two(ring: RealCyclotomic) -> PrimeFactorTwo:
    """Factor mu mod 2 into distinct irreducibles of equal degree.

    Distinct-degree splitting via gcd(f, X^{2^d} - X), then equal-degree
    splitting with the characteristic-2 trace map (Cantor-Zassenhaus; see
    von zur Gathen & Gerhard, Modern Computer Algebra, 14.3), tried on
    the powers of X in turn, so no randomness enters; the factors are
    returned sorted by their bitmasks, and each must have degree the
    order of 2 mod p up to sign.
    """
    f2 = ring.mu.reduce_mod2()
    # squarefree guard: 2 is unramified, so gcd(f, f') must be 1
    der = f2.derivative()
    if der.is_zero() or not f2.gcd(der).is_one():
        raise ArithmeticError("mu mod 2 is not squarefree: 2 ramifies?")
    x = PolyF2(0b10)
    factors = []
    rest = f2
    d = 1
    while rest.degree() >= 1:
        if d > rest.degree():
            raise ArithmeticError("distinct-degree loop overran")
        xq = x.powmod(2**d, rest)
        g = rest.gcd(xq + x)
        if not g.is_one():
            factors.extend(_equal_degree_split(g, d))
            rest = rest // g
        d += 1
    factors.sort(key=lambda q: q.bits)
    return PrimeFactorTwo(ring, tuple(factors),
                          _order_of_two_mod_p_up_to_sign(ring.p))


def _equal_degree_split(g: PolyF2, d: int) -> list:
    """Split a squarefree product of irreducibles of known degree d.

    The trace h -> h + h^2 + ... + h^(2^(d-1)) maps F2[X]/g F2-linearly
    onto F2^(#factors), one trace per factor.  The powers X^j span
    F2[X]/g, so their traces span F2^(#factors), and with two or more
    factors some trace is neither 0 nor 1 on every factor: its gcd with
    g is a proper factor.
    """
    if g.degree() == d:
        return [g]
    for j in range(g.degree()):
        tr = PolyF2(0)
        cur = PolyF2(1 << j)
        for _ in range(d):
            tr = tr + cur
            cur = (cur * cur) % g
        w = g.gcd(tr)
        if not w.is_one() and w.degree() < g.degree():
            return _equal_degree_split(w, d) + _equal_degree_split(g // w, d)
    raise ArithmeticError("no power of X splits %r" % (g,))


def idempotents_mod2(ring: RealCyclotomic) -> list:
    """CRT idempotents e_1..e_n of R/2R, one per prime factor of 2.

    e_i = m * (m^-1 mod g) for the factor g of degree f and its cofactor
    m = (mu mod 2)/g: 1 mod g and 0 mod the others.  The inverse is
    Fermat's m^(2^f - 2) in the field F2[X]/g = F_(2^f) (von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 4).  Pairwise orthogonality
    and the sum 1 are checked before returning.
    """
    two = ring.two_factorization
    f2 = ring.mu.reduce_mod2()
    out = []
    for g in two.factors:
        m = f2 // g
        out.append((m.powmod(2**two.f - 2, g) * m) % f2)
    total = PolyF2(0)
    for e in out:
        total = total + e
    if not (total % f2 == PolyF2(1) % f2):
        raise ArithmeticError("idempotents do not sum to 1")
    if any((a * b) % f2 != (a if i == j else PolyF2(0))
           for i, a in enumerate(out) for j, b in enumerate(out)):
        raise ArithmeticError("idempotent orthogonality fails")
    return out


def _canonical_rep(a: int, p: int) -> int:
    """Representative of +-a mod p inside {1..(p-1)/2}."""
    a = a % p
    if a == 0:
        raise ValueError("a must be invertible mod p")
    return min(a, p - a)


# each of the deg columns is one product with sigma_a(beta), of degree up
# to a, reduced mod mu, so the work grows as deg^2 * a: as processes on 2
# cores, 1.8 s at p = 401, a = 200 (8.0M), 3.9 s at p = 1009, a = 31
# (7.9M), 13 s at p = 1009, a = 100 (25M) and 57 s at a = 504 (128M)
_MAX_GALOIS_WORK = 8_000_000


def galois(ring: RealCyclotomic, a: int) -> IntMatrix:
    """Matrix of the automorphism beta -> 2cos(2pi*a/p) on the power basis.

    sigma_a(beta) = 2*T_a(beta/2) reduced mod mu; columns are the images
    of the basis powers beta^i.  Valid indices are 1..(p-1)/2, canonical
    representatives of (Z/pZ)^x / {+-1}; deg^2 * a is limited to
    ``_MAX_GALOIS_WORK``.  Raises AssertionError unless mu(sigma_a(beta))
    = 0, which makes beta -> sigma_a(beta) a ring endomorphism of R.
    """
    a = _canonical_rep(a, ring.p)
    work = ring.degree ** 2 * a
    if work > _MAX_GALOIS_WORK:
        raise ValueError(
            "galois work deg^2 * a must be <= %d (deg = (p-1)/2, a reduced "
            "to 1..deg), got %d" % (_MAX_GALOIS_WORK, work))
    image = ring.reduce(chebyshev_t2(a))
    cols = []
    acc = PolyZ([1])
    for _ in range(ring.degree):
        # image of beta^i is sigma_a(beta)^i
        cols.append(ring.coeff_vector(acc))
        acc = ring.mul(acc, image)
    # mu(y) = G c + y^deg for y = sigma_a(beta), with c the coefficients of
    # the monic mu below its leading 1 (zip drops that 1), and acc = y^deg
    if any(t + sum(ci * col[r] for ci, col in zip(ring.mu.coeffs, cols))
           for r, t in enumerate(ring.coeff_vector(acc))):
        raise AssertionError("sigma_%d(beta) is not a root of mu" % a)
    return IntMatrix.from_rows(cols).transpose()


def _galois_images(ring: RealCyclotomic) -> list:
    """sigma_a(beta) = 2T_a(beta/2) reduced mod mu, for a = 1..degree."""
    return [ring.reduce(chebyshev_t2(a)) for a in range(1, ring.degree + 1)]


def _amplify(ring: RealCyclotomic, beta: IntMatrix) -> list:
    """The blocks sigma_a(beta), a = 1..degree: beta acting on the copy of
    M twisted by sigma_a, the a-th block of the amplified module M[G].
    Block a is 2T_a(beta/2), which is sigma_a(beta) since mu(beta) = 0,
    built by the three-term recurrence from 2I and beta."""
    return chebyshev_matrices(beta, 2, ring.degree + 1)[1:]


def galois_factor_permutation(ring: RealCyclotomic) -> dict:
    """Permutation action of each sigma_a on the mod-2 prime factors.

    {a: mapping} where mapping[i] = j means sigma_a carries the i-th
    factor to the j-th: f_i(sigma_a(beta)) vanishes mod (2, f_j).  The
    value is computed in F2[X]/(mu mod 2), by Horner at sigma_a(beta)
    mod 2, reducing after every step (von zur Gathen & Gerhard, Modern
    Computer Algebra, 5.2).
    """
    factors = ring.two_factorization.factors
    f2 = ring.mu.reduce_mod2()
    perms = {}
    for a, image in enumerate(_galois_images(ring), 1):
        x = image.reduce_mod2()
        mapping = []
        for fi in factors:
            val = PolyF2(0)
            for c in reversed(fi.coeffs()):
                val = (val * x) % f2 + PolyF2(c)
            hits = [j for j, fj in enumerate(factors)
                    if (val % fj).is_zero()]
            if len(hits) != 1:
                raise ArithmeticError(
                    "factor image not carried to a unique factor: %r" % hits
                )
            mapping.append(hits[0])
        if sorted(mapping) != list(range(len(factors))):
            raise ArithmeticError("Galois image is not a permutation")
        perms[a] = tuple(mapping)
    return perms


# ---------------------------------------------------------------------------
# lattices and modules
#
# Conventions for everything below: module elements are integer ROW
# vectors and endomorphisms act on the right, x -> x.A, so composition
# "first A then B" is the product A @ B.  The matrix of multiplication
# by a ring element r on the power basis is mult_matrix(r).transpose().


def _row_act(A: IntMatrix, v) -> list:
    """v . A for a row vector v, from A's nonzero entries (read once)."""
    out = [0] * A.cols
    for x, row in zip(v, A.nonzero_rows()):
        if x:
            for j, a in row:
                out[j] += x * a
    return out


def _act(blocks, v) -> list:
    """v . diag(blocks), slice by slice; a zero slice maps to zeros."""
    out = []
    off = 0
    for b in blocks:
        part = v[off:off + b.rows]
        out.extend(_row_act(b, part) if any(part) else [0] * b.cols)
        off += b.rows
    return out


def _orbit(v, blocks, n: int) -> list:
    """[v, v.B, ..., v.B^(n-1)] for B = diag(blocks)."""
    out = [list(v)]
    for _ in range(n - 1):
        out.append(_act(blocks, out[-1]))
    return out


def _in_orbits(rows, blocks, n: int) -> bool:
    """rows is a run of whole orbits of length n under diag(blocks); with
    mu(B) = 0 and n = deg(mu), their Z-span is then B-stable."""
    return len(rows) % n == 0 and all(
        rows[i:i + n] == _orbit(rows[i], blocks, n)
        for i in range(0, len(rows), n))


def _mat(rows, ncols: int) -> IntMatrix:
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, ncols)


def _meeting_classes(masks, n: int) -> dict:
    """Joins the n-bit masks that share a bit, transitively: {union of a
    class: indices of its masks}, the unions disjoint (zero masks make
    one class of their own), or {} once a union covers all n bits."""
    classes = {}
    for i, mask in enumerate(masks):
        members = [i]
        for g in [g for g in classes if g & mask]:
            mask |= g
            members += classes.pop(g)
        if mask == (1 << n) - 1:
            return {}
        classes[mask] = classes.get(mask, []) + members
    return classes


def _unimodular(rows, ncols: int) -> bool:
    """The rows extend to a Z-basis of Z^ncols: their span has rank
    len(rows) and index 1 in its saturation.  With ncols rows they are a
    Z-basis."""
    return _span_profile(rows, ncols) == (len(rows), 1)


def _span_profile(rows, ncols: int) -> tuple:
    """(rank, index in its saturation) of the Z-span of the rows: the
    number of nonzero elementary divisors and their product.

    From 32 columns on (below, one elimination costs less than grouping
    the rows), rows sharing no nonzero column are eliminated apart: the
    matrix, reordered, is block diagonal, so over the blocks the ranks
    add and the indices multiply (a zero row is a block with no columns).
    A block that covers every column ends the grouping.
    """
    classes = _meeting_classes((sum(1 << j for j, x in enumerate(r) if x)
                                for r in rows), ncols) if ncols >= 32 else {}
    rank, index = 0, 1
    for mask, idx in classes.items() or [((1 << ncols) - 1, None)]:
        cols = [j for j in range(ncols) if mask >> j & 1]
        block = rows if idx is None else [rows[i] for i in idx]
        if len(cols) < ncols:
            block = [[r[j] for j in cols] for r in block]
        diag = [s for s in elementary_divisors(_mat(block, len(cols))) if s]
        rank, index = rank + len(diag), index * prod(diag)
    return rank, index


def _same_span(a, b) -> bool:
    """The row lists a and b have the same Z-span.

    Both spans lie in L = span(a + b).  Equal rank puts a sublattice and
    L in the same saturation, and equal index there forces equality; so
    three Smith diagonals decide it, with no transforms and no solves.
    """
    if not a and not b:
        return True
    ncols = len((a or b)[0])
    whole = _span_profile(a + b, ncols)
    return _span_profile(a, ncols) == whole == _span_profile(b, ncols)


def _vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _row_basis_rows(rows) -> list:
    """Integer basis of the Z-span of the given row vectors."""
    rows = [list(r) for r in rows if any(r)]
    return row_basis(IntMatrix.from_rows(rows)) if rows else []


def _class(Q: F2Echelon, v) -> int:
    """Class of v in M/N, for 2M <= N <= M and Q the reduced echelon of
    N mod 2: the normal form of v mod 2, zero exactly when v lies in N."""
    return Q.normal_form(pack_mod2(v))


def _embed(gi: int, vec, d: int, nG: int) -> list:
    """vec placed in copy gi of M[G] = Z^(d * nG)."""
    out = [0] * (d * nG)
    out[gi * d:(gi + 1) * d] = vec
    return out


# The largest Z-dimension each lattice construction runs at: split and
# involution work in the Galois amplification, R-rank * deg^2 (counting
# the involution's padding), resolve in R[Z/2Z]^rank, 2 * rank * deg.
# Set from each one's measured curve (CHANGES.md), slowest at p = 3 or 5
_MAX_DIM = {"split": 1024, "involution": 240, "resolve": 256}


def check_size(construction: str, ring: RealCyclotomic, rank: int) -> None:
    """Refuse ``construction`` on a negative R-rank, or one whose
    Z-dimension passes its limit in ``_MAX_DIM``."""
    if rank < 0:
        raise ValueError("rank must be >= 0, got %d" % rank)
    dim = rank * ring.degree * (2 if construction == "resolve"
                                else ring.degree)
    if dim > _MAX_DIM[construction]:
        raise ValueError("numring %s works in Z-dimension %d, over the "
                         "limit %d" % (construction, dim,
                                       _MAX_DIM[construction]))


class RLattice(Record):
    """Free R-module of the given rank, presented as Z^(rank*degree)
    with the integer matrix of right multiplication by beta."""

    ring: RealCyclotomic
    rank: int
    beta: IntMatrix

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0, got %d" % self.rank)
        d = self.rank * self.ring.degree
        if self.beta.rows != d or self.beta.cols != d:
            raise ValueError("beta matrix has wrong shape")
        # mu(beta) is block diagonal on the classes of indices that beta's
        # nonzero entries join, so it is evaluated on each distinct block
        rows = self.beta.to_rows()
        classes = _meeting_classes((sum(1 << j for j, x in enumerate(r) if x)
                                    | 1 << i for i, r in enumerate(rows)), d)
        blocks = {IntMatrix.from_rows([[rows[i][j] for j in c] for i in c])
                  for c in map(sorted, classes.values())} or {self.beta}
        if not all(self.ring.mu.eval_matrix(b).is_zero() for b in blocks):
            raise ValueError("mu(beta) != 0: not an R-module structure")

    @property
    def dim(self) -> int:
        return self.rank * self.ring.degree

    @classmethod
    def free(cls, ring: RealCyclotomic, rank: int) -> "RLattice":
        return cls(ring, rank,
                   _block_diag([ring.beta_matrix().transpose()] * rank))


class Z2Module(Record):
    """An RLattice together with an R-linear involution Y."""

    lattice: RLattice
    Y: IntMatrix

    def __post_init__(self):
        d = self.lattice.dim
        if self.Y.rows != d or self.Y.cols != d:
            raise ValueError("Y has wrong shape")
        if self.Y @ self.Y != IntMatrix.identity(d):
            raise ValueError("Y is not an involution")
        if self.Y @ self.lattice.beta != self.lattice.beta @ self.Y:
            raise ValueError("Y is not R-linear (does not commute with beta)")

    @property
    def dim(self) -> int:
        return self.lattice.dim


def _block_diag(blocks) -> IntMatrix:
    blocks = list(blocks)
    n = sum(b.rows for b in blocks)
    entries = []
    off = 0
    for b in blocks:
        left, right = [0] * off, [0] * (n - off - b.cols)
        for row in b.to_rows():
            entries += left + row + right
        off += b.cols
    return IntMatrix(n, n, entries)


def _div2_lattice(rows, dim: int) -> list:
    """Basis of {x in Z^dim : 2x in Z-span(rows)}."""
    if not rows:
        return []
    # x-parts of the kernel of [2I | -rows^T]
    eqs = [[2 * (i == j) for i in range(dim)] + [-r[j] for r in rows]
           for j in range(dim)]
    ker = kernel_basis(IntMatrix.from_rows(eqs))
    return _row_basis_rows([v[:dim] for v in ker])


# candidates the greedy free-basis search tries before it gives up
_FREE_BASIS_MAX_TRIES = 20000


def _free_r_basis(ring: RealCyclotomic, span_rows, blocks) -> list:
    """Greedy free R-basis of the lattice spanned by span_rows, stable
    under beta = diag(blocks).

    Candidates, in Z-basis coordinates, come in one fixed order: unit
    vectors, then the pairs e_i +- e_j, then shells of growing sup-norm,
    which reach every vector.  One whose orbit is dependent mod 2 on the
    stack is refused at once; else the Smith form of the stacked orbits
    must stay unimodular, so the result is a free basis by construction.
    Raises RuntimeError if the search stalls.
    """
    V = _row_basis_rows(span_rows)
    m = len(V)
    deg = ring.degree
    if m % deg:
        raise ValueError("lattice Z-rank is not a multiple of the degree")
    k = m // deg
    if k == 0:
        return []
    if deg == 1:  # p = 3: mu(beta) = 0 makes beta = -I, so V is stable
        return V
    Vm = IntMatrix.from_rows(V)
    beta_abs = coordinates(Vm, [_act(blocks, v) for v in V])
    if None in beta_abs:
        raise ValueError("lattice is not stable under beta")
    beta_abs = IntMatrix.from_rows(beta_abs)

    def candidates():
        for i in range(m):
            yield [int(t == i) for t in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            for sj in (1, -1):
                yield [1 if t == i else sj if t == j else 0
                       for t in range(m)]
        for bound in itertools.count(1):
            for v in itertools.product(range(-bound, bound + 1), repeat=m):
                if max(map(abs, v)) == bound:
                    yield list(v)

    chosen, stacked, mod2 = [], [], F2Echelon()
    tries = 0
    for cand in candidates():
        tries += 1
        if tries > _FREE_BASIS_MAX_TRIES:
            raise RuntimeError("free R-basis search stalled after %d "
                               "candidates" % _FREE_BASIS_MAX_TRIES)
        orbit = _orbit(cand, [beta_abs], deg)
        # rows dependent mod 2 leave an even elementary divisor: in the
        # reduced echelon of the stack mod 2, normal forms decide that
        if F2Echelon(mod2.normal_form(pack_mod2(v))
                     for v in orbit).rank < deg:
            continue
        if _unimodular(stacked + orbit, m):
            chosen.append(cand)
            stacked += orbit
            for v in orbit:
                mod2.add(pack_mod2(v))
            mod2.reduce()
            if len(chosen) == k:
                break
    return [_row_act(Vm, cand) for cand in chosen]


class SplitCertificate(Record):
    """Certified splitting M[G] = L_0 (+) L_1 with N[G] = 2 L_0 (+) L_1.

    Row bases of L_0 and L_1 live in Z^(dim(M) * |G|), the copies of M
    indexed by the Galois group laid out block by block; ``lattice`` is M
    itself, whose beta gives the R-structure of every copy.  verify()
    rechecks every claim from these matrices alone; lattice_split
    returns a certificate only after it passes.
    """

    lattice: RLattice
    basis_L0: IntMatrix
    basis_L1: IntMatrix
    n_basis: IntMatrix

    p = property(lambda self: self.lattice.ring.p)
    base_dim = property(lambda self: self.lattice.dim)
    group_order = property(lambda self: self.lattice.ring.degree)
    ambient_dim = property(lambda self: self.base_dim * self.group_order)

    def verify(self) -> bool:
        D, d = self.ambient_dim, self.base_dim
        rows0 = self.basis_L0.to_rows()
        rows1 = self.basis_L1.to_rows()
        # L_0 and L_1 are R-submodules of M[G]
        blocks = _amplify(self.lattice.ring, self.lattice.beta)
        if not (_in_orbits(rows0, blocks, self.group_order)
                and _in_orbits(rows1, blocks, self.group_order)):
            return False
        if len(rows0) + len(rows1) != D or not _unimodular(rows0 + rows1, D):
            return False
        # elementary divisors of N in {1, 2} give 2 Z^d <= N, so v lies in
        # N iff v mod 2 lies in the span of N mod 2: 2 L_0 <= N[G] holds
        # outright and L_1 <= N[G] is a residue test, one copy at a time
        n_rows = self.n_basis.to_rows()
        if len(n_rows) != d or self.n_basis.cols != d or any(
                s not in (1, 2)
                for s in elementary_divisors(self.n_basis)):
            return False
        n_span = F2Echelon(pack_mod2(v) for v in n_rows)
        mask = (1 << d) - 1
        for v in rows1:
            bits = pack_mod2(v)
            if any(n_span.residue(bits >> (g * d) & mask)
                   for g in range(self.group_order)):
                return False
        # N[G] <= 2 L_0 + L_1: with L_0 (+) L_1 = Z^D already certified,
        # v lies in 2 L_0 + L_1 iff v mod 2 lies in the span of L_1 mod 2
        # (any mod-2 discrepancy b has v - b in 2 Z^D = 2 L_0 + 2 L_1)
        span = F2Echelon(pack_mod2(v) for v in rows1)
        for g in range(self.group_order):
            for v in n_rows:
                if span.residue(pack_mod2(v) << (g * d)):
                    return False
        return True


def _component_bases(Q: F2Echelon, A, dbase, beta: IntMatrix, f: int):
    """Stage 1: greedy component bases B_i inside the R-basis A.

    Row idx joins B_i when the class of A[idx] d_i(beta) in M/N leaves
    the span so far; its beta orbit of length f then joins the span.  B_i
    is complete once the span is the whole image of d_i(beta) on M/N.
    Returns the B_i and their echelons, stage 2's solvers.
    """
    B_sets, spans = [], []
    for i, di in enumerate(dbase):
        B, span = [], F2Echelon()
        for idx, y in enumerate(A):
            x = _row_act(di, y)
            w = _class(Q, x)
            if not w or not span.residue(w):
                continue
            for v in _orbit(x, [beta], f):
                if not span.add(_class(Q, v)):
                    raise AssertionError("beta orbit collapsed inside span")
            B.append(idx)
        if span.rank != F2Echelon(_class(Q, v)
                                  for v in di.to_rows()).rank:
            raise AssertionError("component %d not fully spanned" % i)
        B_sets.append(B)
        spans.append(span)
    return B_sets, spans


def _correct_complements(ring: RealCyclotomic, Q: F2Echelon, A, B_sets,
                         spans, idem, dbase, beta: IntMatrix) -> list:
    """Stage 2: correct the complement of each B_j to kill its component,
    returning the corrected rows of A.

    Stage 1's echelon of component j is the solver: its rows, the beta
    orbits of A[idx] d_j(beta) mod N for idx in B_j, still hold, because
    an earlier correction of A[idx] is a multiple of the lift of another
    idempotent d_i, and d_j d_i = 0 kills it mod N.  A correction is the
    0/1 lift of e_j c mod (2, mu) applied to an orbit: only its parity
    is read, so it is computed in F2[X].
    """
    A = list(A)
    f, mu2 = ring.two_factorization.f, ring.mu.reduce_mod2()
    for j, (Bj, solver) in enumerate(zip(B_sets, spans)):
        orb_amb = [_orbit(A[idx], [beta], ring.degree) for idx in Bj]
        for idx in range(len(A)):
            if idx in Bj:
                continue
            w = _class(Q, _row_act(dbase[j], A[idx]))
            if not w:
                continue
            coords = solver.solve(w)
            if coords is None:
                raise AssertionError("component image escaped its span")
            corr = [0] * len(A[idx])
            for pos in range(len(Bj)):
                bits = (coords >> (pos * f)) & ((1 << f) - 1)
                if not bits:
                    continue
                # any lift of the class mod 2R works; take the 0/1 one
                # to keep the corrected basis entries small
                elem = (idem[j] * PolyF2(bits) % mu2).bits
                for c, v in enumerate(orb_amb[pos]):
                    if elem >> c & 1:
                        corr = [a + b for a, b in zip(corr, v)]
            A[idx] = _vec_sub(A[idx], corr)
    return A


def _amplified_supports(Q: F2Echelon, A, B_sets, dbase, perm_g,
                        f: int) -> dict:
    """Stage 3: for each idx in some B_i, in increasing order, the
    components that the class of A[idx] meets in each copy of M[G].  On
    the copy twisted by sigma_a, e_i(sigma_a beta) = e_{perm_a(i)}(beta)
    mod (2, mu), so component i there reads A[idx] d_{perm_a(i)}(beta).
    """
    supports = {}
    for idx in sorted({idx for B in B_sets for idx in B}):
        n_y = sum(idx in B for B in B_sets)
        comp = [_class(Q, _row_act(di, A[idx])) for di in dbase]
        per_copy = [frozenset(i for i, j in enumerate(perm) if comp[j])
                    for perm in perm_g]
        if any(len(S) != n_y for S in per_copy):
            raise AssertionError("support size drifted across copies")
        for i in range(len(dbase)):
            if sum(1 for S in per_copy if i in S) != f * n_y:
                raise AssertionError("support column count off")
        supports[idx] = per_copy
    return supports


def _equalize(A, supports, dbase, perm_g, f: int, d: int):
    """Stage 4: deterministic borrower/lender equalization.  For idx
    meeting n_y components, each of its first rho = f n_y copies borrows
    every component i it misses from a lender copy h >= rho that has it,
    adding A[idx] d_i(sigma_h beta) in copy h.  Returns the amplified
    free-part representatives W and the replaced (idx, copy) pairs.
    """
    nG = len(perm_g)
    W, replaced = [], set()
    for idx, per_copy in supports.items():
        rho = f * len(per_copy[0])
        lenders = {}
        for i in range(len(dbase)):
            need = [gi for gi in range(rho) if i not in per_copy[gi]]
            have = [gi for gi in range(rho, nG) if i in per_copy[gi]]
            if len(need) != len(have):
                raise AssertionError("borrower/lender counts differ")
            for gi, h in zip(need, have):
                lenders[(gi, i)] = h
        for gi in range(rho):
            w = _embed(gi, A[idx], d, nG)
            for i in range(len(dbase)):
                if i in per_copy[gi]:
                    continue
                h = lenders[(gi, i)]
                corr = _embed(h, _row_act(dbase[perm_g[h][i]], A[idx]), d, nG)
                w = [a + b for a, b in zip(w, corr)]
            W.append(w)
            replaced.add((idx, gi))
    return W, replaced


def _correct_into_n(Q: F2Echelon, A, W, replaced, beta_g, d: int):
    """Stage 5: check that the classes of the W orbits are an F2-basis of
    (M/N)[G], then correct every other amplified row of A into N[G] by
    subtracting W orbit rows.  Returns the rows of L_0 and of L_1.
    """
    nG = len(beta_g)

    def amp_class(v):  # class in (M/N)[G], copy gi in bits gi*d onwards
        return sum(_class(Q, v[gi * d:(gi + 1) * d]) << gi * d
                   for gi in range(nG))

    L0 = [v for w in W for v in _orbit(w, beta_g, nG)]
    solver = F2Echelon(map(amp_class, L0))
    free = (d - Q.rank) * nG    # F2-dimension of (M/N)[G]
    if len(L0) != free or solver.rank != free:
        raise AssertionError("amplified classes are not a free basis")
    L1 = []
    for gi in range(nG):
        for idx in range(len(A)):
            if (idx, gi) in replaced:
                continue
            z = _embed(gi, A[idx], d, nG)
            qz = amp_class(z)
            if qz:
                coords = solver.solve(qz)
                if coords is None:
                    raise AssertionError("class escaped the free basis span")
                for pos, v in enumerate(L0):
                    if (coords >> pos) & 1:
                        z = _vec_sub(z, v)
            L1.append(z)
    return L0, [v for z in L1 for v in _orbit(z, beta_g, nG)]


def lattice_split(M: RLattice, n_gens) -> SplitCertificate:
    """Split M[G] = L_0 (+) L_1 with N[G] = 2 L_0 (+) L_1, G the Galois
    group of the real subfield whose ring of integers is M.ring, acting
    by twisting the R-structure of the copies of M.

    N is the beta-stable sublattice generated by ``n_gens`` and must
    satisfy 2M <= N <= M.  L_0 is spanned by amplified basis vectors
    whose classes form a free R/2R-basis of (M/N)[G]; L_1 is spanned by
    the corrected complements, which land in N[G].  Every mod-2 action
    is an integer matrix (beta, or the lift d_i(beta) of an idempotent)
    followed by the projection to M/N.  The idempotents and the Galois
    permutation of the factors are computed once for all stages, from
    the factorization of 2 that the ring holds.  Everything is exact;
    the certificate is returned once verify() passes.
    """
    ring = M.ring
    check_size("split", ring, M.rank)
    deg, d, beta = ring.degree, M.dim, M.beta

    # N: beta-saturate the generators, then check 2M <= N <= M
    gens = [list(map(index, g)) for g in n_gens]
    for g in gens:
        if len(g) != d:
            raise ValueError("sublattice generator has length %d, want %d"
                             % (len(g), d))
    H = _row_basis_rows(v for g in gens for v in _orbit(g, [beta], deg))
    # 2M <= N iff N has d elementary divisors, each 1 or 2; only on
    # failure, name the first coordinate i with 2 e_i outside N
    if len(H) != d or any(s not in (1, 2)
                          for s in elementary_divisors(_mat(H, d))):
        i = coordinates(_mat(H, d),
                        IntMatrix.identity(d).scale(2).to_rows()).index(None)
        raise ValueError("2M <= N fails at coordinate %d" % i)

    A = _free_r_basis(ring, IntMatrix.identity(d).to_rows(), [beta])
    f = ring.two_factorization.f
    # the idempotents e_i and the matrices d_i(beta) of their 0/1 lifts
    idem = idempotents_mod2(ring)
    dbase = [PolyZ(e.coeffs()).eval_matrix(beta) for e in idem]
    Q = F2Echelon(pack_mod2(v) for v in H)   # N mod 2, read by _class
    Q.reduce()
    perm_g = list(galois_factor_permutation(ring).values())  # a = 1..deg
    beta_g = _amplify(ring, beta)

    B_sets, spans = _component_bases(Q, A, dbase, beta, f)
    A = _correct_complements(ring, Q, A, B_sets, spans, idem, dbase, beta)
    supports = _amplified_supports(Q, A, B_sets, dbase, perm_g, f)
    W, replaced = _equalize(A, supports, dbase, perm_g, f, d)
    L0_rows, L1_rows = _correct_into_n(Q, A, W, replaced, beta_g, d)

    cert = SplitCertificate(M, _mat(L0_rows, d * deg), _mat(L1_rows, d * deg),
                            IntMatrix.from_rows(H))
    if not cert.verify():
        raise AssertionError("split certificate failed verification")
    return cert


class InvolutionError(RuntimeError):
    """The involution decomposition could not be completed as requested."""


def higman_check(module: Z2Module, phi: IntMatrix) -> bool:
    """Higman's projectivity criterion: x = phi(x) + phi(xY)Y for all x,
    with phi R-linear.  As matrix identities: phi + Y phi Y = 1 and
    phi beta = beta phi."""
    dmod = module.dim
    if phi.rows != dmod or phi.cols != dmod:
        raise ValueError("phi has wrong shape")
    Y = module.Y
    beta = module.lattice.beta
    if phi @ beta != beta @ phi:
        return False
    return phi + (Y @ phi @ Y) == IntMatrix.identity(dmod)


class HigmanCertificate(Record):
    """An explicit R-linear phi with x = phi(x) + phi(xY)Y, in the
    coordinates of the stated module."""

    module: Z2Module
    phi: IntMatrix

    def verify(self) -> bool:
        return higman_check(self.module, self.phi)


def _free_z2_blocks(ring: RealCyclotomic, copies: int):
    """(beta, Y) of the regular module R[Z/2Z]^copies, each copy with the
    Z-basis beta^c, beta^c Y."""
    deg = ring.degree
    rows = IntMatrix.identity(2 * deg).to_rows()
    return (_block_diag([ring.beta_matrix().transpose()] * (2 * copies)),
            _block_diag([IntMatrix.from_rows(rows[deg:] + rows[:deg])]
                        * copies))


def free_z2_module(p: int, copies: int = 1) -> Z2Module:
    """The free module R[Z/2Z]^copies."""
    ring = real_cyclotomic(p)
    beta, Y = _free_z2_blocks(ring, copies)
    return Z2Module(RLattice(ring, 2 * copies, beta), Y)


def _r_linear(free: RLattice, images) -> IntMatrix:
    """Z-matrix (row action) of the R-linear map of the free R^k that
    sends e_s to images[s]: the rows of e_s beta^c are the beta-orbit of
    images[s]."""
    return _mat([v for w in images
                 for v in _orbit(w, [free.beta], free.ring.degree)], free.dim)


def _higman_endomorphism(module: Z2Module):
    """Z-matrix of an R-linear phi with phi + Y phi Y = 1, for ``module``
    an involution Y of the free R^k, or None if there is none.

    Mod 2, Y = 1 + N with N^2 = 0, and phi Y + Y phi = Y reads phi N +
    N phi = 1 + N: solvable iff ker N = im N (x = (x phi) N on ker N),
    iff a beta-stable complement C of im N has half the rank, grown by
    lines of f beta-images in the fields of R/2R; then phi_0 = 1 on C and
    N^-1 on CN.  phi_0 + Y phi_0 Y = 1 - 2x, x = YxY: phi_0 + x solves it.
    """
    free, y = module.lattice, module.Y
    ring, k = free.ring, free.rank
    d, f, b0 = (ring.degree, ring.two_factorization.f,
                ring.beta_matrix().transpose())
    C, span = [], F2Echelon(pack_mod2(r) ^ 1 << i   # im N, then C beside
                            for i, r in enumerate(y.to_rows()))
    for e in idempotents_mod2(ring):
        for r in PolyZ(e.coeffs()).eval_matrix(b0).to_rows():
            for s in range(k):
                if span.residue(pack_mod2(r) << (s * d)):
                    for v in _orbit(_embed(s, r, d, k), [b0] * k, f):
                        span.add(pack_mod2(v))
                        C.append((pack_mod2(v), pack_mod2(_vec_sub(
                            _row_act(y, v), v))))
    if 2 * len(C) != k * d:
        return None
    # [P | P phi_0] for P = [C; CN], invertible: e_u reduces to e_u phi_0
    ech = F2Echelon(t << k * d | c for c, cn in C for t in (c, cn))
    phi0 = _r_linear(free, [[w >> j & 1 for j in range(k * d)] for w in (
        ech.residue(1 << (u + k) * d) for u in range(k))])
    rest = IntMatrix.identity(k * d) - phi0 - y @ phi0 @ y
    return phi0 + IntMatrix.from_rows([[a // 2 for a in row]
                                       for row in rest.to_rows()])


class InvolutionSplit(Record):
    """Decomposition (L (+) R[Z/2Z]^padding)[G] = P_+ (+) P_- (+) P_0
    where Y acts by +1 on P_+, by -1 on P_-, and P_0 carries a Higman
    certificate.  Bases are rows in the amplified padded coordinates;
    ``zero_orbit_basis`` T_0 is the Z-basis of P_0 in which the Higman
    certificate's module is written."""

    padding: int
    ambient: Z2Module               # padded, one copy
    basis_plus: IntMatrix
    basis_minus: IntMatrix
    basis_zero: IntMatrix
    higman: HigmanCertificate | None
    zero_orbit_basis: IntMatrix

    p = property(lambda self: self.ambient.lattice.ring.p)
    group_order = property(lambda self: self.ambient.lattice.ring.degree)

    def verify(self) -> bool:
        D = self.ambient.dim * self.group_order
        beta_amp = _amplify(self.ambient.lattice.ring,
                            self.ambient.lattice.beta)
        y_amp = [self.ambient.Y] * self.group_order
        for mat, tau in ((self.basis_plus, 1), (self.basis_minus, -1)):
            rows = mat.to_rows()
            if not _in_orbits(rows, beta_amp, self.group_order):
                return False
            if any(_act(y_amp, v) != [tau * a for a in v] for v in rows):
                return False
        zrows = self.basis_zero.to_rows()
        rows = self.basis_plus.to_rows() + self.basis_minus.to_rows() + zrows
        if len(rows) != D or not _unimodular(rows, D):
            return False
        h = self.higman
        if h is None:
            return not zrows
        # T_0 is a Z-basis of P_0 carrying the Higman module's Y and beta
        # to those of P_0, so P_0 is that (projective) module
        T0 = self.zero_orbit_basis
        trows = T0.to_rows()
        if (not h.verify() or len(trows) != len(zrows)
                or h.module.dim != len(trows)
                or not _same_span(trows, zrows)):
            return False
        # T_0 . A_amp = A_h . T_0, row by row, for A = Y and A = beta
        return all(_act(amp, t) == _row_act(T0, a)
                   for amp, mat in ((y_amp, h.module.Y),
                                    (beta_amp, h.module.lattice.beta))
                   for t, a in zip(trows, mat.to_rows()))


def involution_split(module: Z2Module, padding: int = 0) -> InvolutionSplit:
    """Split the amplified module into Y-eigenparts and a certified
    projective rest.

    With L the given module padded by ``padding`` regular summands,
    the lattices L(1+tau Y) and L(1+tau Y)/2 n L (computed inside L x Q
    via exact two-division) are fed pairwise to lattice_split; P_tau is
    the half of the resulting L_1, and P_0 = {x : 2x in L_{+,0} + L_{-,0}}
    gets an explicit Higman endomorphism, solved mod 2 and lifted
    exactly (_higman_endomorphism).  Raises InvolutionError when there
    is none.
    """
    ring = module.lattice.ring
    if padding < 0:
        raise ValueError("padding must be nonnegative")
    check_size("involution", ring, module.lattice.rank + 2 * padding)
    deg = ring.degree
    nG = deg
    fb, fy = _free_z2_blocks(ring, padding)
    beta_t = _block_diag([module.lattice.beta, fb])
    y_t = _block_diag([module.Y, fy])
    ambient = Z2Module(
        RLattice(ring, module.lattice.rank + 2 * padding, beta_t), y_t)
    Dt = ambient.dim
    Damp = Dt * nG
    beta_amp = _amplify(ring, beta_t)
    y_amp = [y_t] * nG

    halves = {}
    for tau in (1, -1):
        gen = IntMatrix.identity(Dt) + y_t.scale(tau)
        M2 = _row_basis_rows(gen.to_rows())
        if not M2:
            halves[tau] = ([], [])
            continue
        Np = _div2_lattice(M2, Dt)
        N2 = [[2 * a for a in v] for v in Np]
        basisR = _free_r_basis(ring, M2, [beta_t])
        k = len(basisR)
        T_rows = [v for b in basisR for v in _orbit(b, [beta_t], deg)]
        n2_abs = coordinates(IntMatrix.from_rows(T_rows), N2)
        if None in n2_abs:
            raise AssertionError("2-division lattice escaped M2")
        cert = lattice_split(RLattice.free(ring, k), n2_abs)
        # back to ambient coordinates, copy by copy: x -> x . T
        back = [IntMatrix.from_rows(T_rows)] * nG
        halves[tau] = tuple([_act(back, v) for v in basis.to_rows()]
                            for basis in (cert.basis_L0, cert.basis_L1))

    p_bases = {}
    for tau in (1, -1):
        rows = []
        for v in halves[tau][1]:
            if any(a % 2 for a in v):
                raise AssertionError("P_tau basis is not 2-divisible")
            rows.append([a // 2 for a in v])
        p_bases[tau] = rows

    zero_gens = halves[1][0] + halves[-1][0]
    P0 = _div2_lattice(zero_gens, Damp)

    higman = None
    T0_rows = []
    if P0:
        basis0 = _free_r_basis(ring, P0, beta_amp)
        T0_rows = [v for b in basis0 for v in _orbit(b, beta_amp, deg)]
        y_abs = coordinates(IntMatrix.from_rows(T0_rows),
                            [_act(y_amp, b) for b in basis0])
        if None in y_abs:
            raise AssertionError("P_0 is not Y-stable")
        # Y on P_0, in the basis T_0 of the free R^k0 that basis0 spans
        free0 = RLattice.free(ring, len(basis0))
        module0 = Z2Module(free0, _r_linear(free0, y_abs))
        phi_z = _higman_endomorphism(module0)
        if phi_z is None:
            raise InvolutionError(
                "no Higman endomorphism at padding %d" % padding)
        higman = HigmanCertificate(module0, phi_z)

    split = InvolutionSplit(
        padding, ambient, _mat(p_bases[1], Damp), _mat(p_bases[-1], Damp),
        _mat(P0, Damp), higman, _mat(T0_rows, Damp))
    if not split.verify():
        raise AssertionError("involution certificate failed verification")
    return split


# regular summands involution_split_auto adds at most before it gives up
_MAX_PADDING = 4


def involution_split_auto(module: Z2Module) -> InvolutionSplit:
    """involution_split with the smallest padding that succeeds; a
    padding past the involution's size limit is refused, not tried."""
    last = None
    for pad in range(_MAX_PADDING + 1):
        try:
            return involution_split(module, pad)
        except RuntimeError as exc:  # InvolutionError among them
            last = exc
    raise InvolutionError(
        "no padding up to %d admits the decomposition: %s"
        % (_MAX_PADDING, last))


class ResolutionError(RuntimeError):
    """The four-term resolution construction is not available."""


class Resolution(Record):
    """Exact four-term resolution of M = R[Z/2Z]^rank / relations:

        0 -> R_+^b --f3,f2--> R_+^a (+) R[Z/2Z]^b --f1--> R[Z/2Z]^rank -> M -> 0

    where f3 is the zero-rank inclusion; maps are row matrices (rows are
    images of the domain Z-basis).  verify() replays every exactness and
    equivariance check from the stored matrices.
    """

    ring: RealCyclotomic
    rank: int
    relations: IntMatrix
    a: int
    b: int
    f1: IntMatrix
    f2: IntMatrix

    p = property(lambda self: self.ring.p)
    f3 = property(lambda self: IntMatrix.zeros(0, self.b * self.ring.degree))

    def describe(self) -> str:
        return ("0 -> R_+^0 -> R_+^%d -> R_+^%d (+) R[Z/2Z]^%d "
                "-> R[Z/2Z]^%d -> M -> 0"
                % (self.b, self.a, self.b, self.rank))

    def _actions(self):
        deg = self.ring.degree
        b0 = self.ring.beta_matrix().transpose()
        fb, fy = _free_z2_blocks(self.ring, self.b)
        tgt_beta, tgt_y = _free_z2_blocks(self.ring, self.rank)
        dom1_beta = _block_diag([b0] * self.a + [fb])
        dom1_y = _block_diag([IntMatrix.identity(self.a * deg), fy])
        dom2_beta = _block_diag([b0] * self.b)
        dom2_y = IntMatrix.identity(self.b * deg)
        return (tgt_beta, tgt_y, dom1_beta, dom1_y, dom2_beta, dom2_y)

    def verify(self) -> bool:
        (tgt_beta, tgt_y, dom1_beta, dom1_y,
         dom2_beta, dom2_y) = self._actions()
        # equivariance of every map
        if self.f1.rows:
            if dom1_beta @ self.f1 != self.f1 @ tgt_beta:
                return False
            if dom1_y @ self.f1 != self.f1 @ tgt_y:
                return False
        if self.f2.rows:
            if dom2_beta @ self.f2 != self.f2 @ dom1_beta:
                return False
            if dom2_y @ self.f2 != self.f2 @ dom1_y:
                return False
        # composite is zero
        if self.f2.rows and self.f1.rows:
            if not (self.f2 @ self.f1).is_zero():
                return False
        # exactness at the free cover: im f1 = relation lattice
        if not _same_span(self.relations.to_rows(), self.f1.to_rows()):
            return False
        # exactness in the middle: ker f1 = im f2
        ker1 = kernel_basis(self.f1.transpose()) if self.f1.rows else []
        if not _same_span(ker1, self.f2.to_rows()):
            return False
        # exactness at the left end: f2 injective (f3 has rank zero), that
        # is, its rows are independent
        f2 = self.f2
        return _span_profile(f2.to_rows(), f2.cols)[0] == f2.rows


def resolve_z2_module(p: int, rank: int, relations) -> Resolution:
    """Resolve M = R[Z/2Z]^rank / (relation lattice) by the four-term
    construction: split the relation kernel into Y-eigenlattices, cover
    the +1 part by copies of R_+ and the -1 part by regular modules
    mapped through 1 - Y, and close up with the kernel of coverage.

    The relation lattice (Z-span of the given rows) must be stable
    under beta and Y; otherwise the presentation is rejected.  When the
    kernel is not the direct sum of its Y-eigenlattices the construction
    raises ResolutionError.
    """
    ring = real_cyclotomic(p)
    deg = ring.degree
    D0 = rank * 2 * deg
    if rank < 1:
        raise ValueError("rank must be positive")
    check_size("resolve", ring, rank)
    tgt_beta, tgt_y = _free_z2_blocks(ring, rank)

    rel_rows = [list(map(index, rw)) for rw in relations]
    for rw in rel_rows:
        if len(rw) != D0:
            raise ValueError("relation row has length %d, want %d"
                             % (len(rw), D0))
    rel_mat = _mat(rel_rows, D0)
    K_rows = _row_basis_rows(rel_rows)
    # K is stable iff K + K.beta + K.Y has the span profile of K
    Km = _mat(K_rows, D0)
    KY = Km @ tgt_y
    moved = K_rows + (Km @ tgt_beta).to_rows() + KY.to_rows()
    if _span_profile(moved, D0) != _span_profile(K_rows, D0):
        raise ValueError(
            "non-equivariant presentation: the relation lattice "
            "is not stable under the beta and Y actions")
    # c K lies in the tau-eigenlattice of K iff c (K Y - tau K) = 0.  K is
    # Y-stable and Y an involution, so over Q the two eigenspaces of Y on
    # K are complementary: the ranks add up to rank K, and only the index
    # of U_+ (+) U_- in K is left to check
    cplus = kernel_basis((KY + Km.scale(-1)).transpose())
    cminus = kernel_basis((KY + Km).transpose())
    if not _unimodular(cplus + cminus, Km.rows):
        raise ResolutionError(
            "kernel does not split as U_+ (+) U_-: the eigenlattice "
            "sum has index > 1")
    base_plus = _free_r_basis(ring, [_row_act(Km, c) for c in cplus],
                              [tgt_beta])
    base_minus = _free_r_basis(ring, [_row_act(Km, c) for c in cminus],
                               [tgt_beta])
    a = len(base_plus)
    b = len(base_minus)

    f1_rows = [v for b0 in base_plus for v in _orbit(b0, [tgt_beta], deg)]
    for v in base_minus:
        orbit = _orbit(v, [tgt_beta], deg)
        f1_rows.extend(orbit)
        f1_rows.extend([-x for x in rw] for rw in orbit)
    f1 = _mat(f1_rows, D0)

    mid = a * deg + b * 2 * deg
    f2_rows = []
    for j in range(b):
        for c in range(deg):
            row = [0] * mid
            row[a * deg + j * 2 * deg + c] = 1
            row[a * deg + j * 2 * deg + deg + c] = 1
            f2_rows.append(row)
    res = Resolution(ring, rank, rel_mat, a, b, f1, _mat(f2_rows, mid))
    if not res.verify():
        raise AssertionError("constructed resolution failed verification")
    return res
