"""Fusion rings at the Grothendieck level and their integer invariants.

A fusion ring is stored as its structure tensor N[tau][a][b], the
multiplicity of basis element tau in the product a*b, together with the
unit index and the duality permutation.  Nothing categorical (associators,
braidings) lives here; the twisted and untwisted variants of a category
share one ring.

The key invariant is the matrix Z = sum_pi M(pi) M(dual pi) built from the
regular representation M; its determinant controls which integers d make
the localized ring Z[1/d] act regularly, so |det Z| and its radical are
what ``global_det`` reports.
"""

from __future__ import annotations

from math import gcd, prod
from operator import index

from ._record import Record
from .exactalg import (
    IntMatrix,
    PolyZ,
    charpoly_exact,
    chebyshev_matrices,
    chebyshev_u,
    elementary_divisors,
    is_prime,
    radical,
)


class FusionRing(Record):
    """Based ring with non-negative structure constants and duality."""

    labels: tuple
    unit: int
    dual: tuple
    N: tuple

    def __post_init__(self):
        self.__dict__.update(
            labels=tuple(str(x) for x in self.labels),
            unit=index(self.unit),
            dual=tuple(map(index, self.dual)),
            N=tuple(tuple(tuple(map(index, row)) for row in plane)
                    for plane in self.N))
        self._check_basic()
        if self.rank <= 12:
            self._check_associative()

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.rank:
                raise KeyError(label)
            return label
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(label) from None

    def _check_basic(self):
        r = self.rank
        if not 0 <= self.unit < r:
            raise ValueError("unit index out of range")
        if sorted(self.dual) != list(range(r)):
            raise ValueError("dual is not a permutation")
        if len(self.N) != r or any(
            len(p) != r or any(len(row) != r for row in p) for p in self.N
        ):
            raise ValueError("structure tensor has wrong shape")
        if any(x < 0 for p in self.N for row in p for x in row):
            raise ValueError("negative structure constant")
        u = self.unit
        for a in range(r):
            for t in range(r):
                if self.N[t][u][a] != int(t == a) or self.N[t][a][u] != int(t == a):
                    raise ValueError("unit law fails at (%d,%d)" % (t, a))
            if self.dual[self.dual[a]] != a:
                raise ValueError("dual is not an involution")
            for b in range(r):
                if self.N[u][a][b] != int(b == self.dual[a]):
                    raise ValueError("duality law fails at (%d,%d)" % (a, b))

    def _check_associative(self):
        r = self.rank
        N = self.N
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        lhs = sum(N[e][a][b] * N[d][e][c] for e in range(r))
                        rhs = sum(N[d][a][f] * N[f][b][c] for f in range(r))
                        if lhs != rhs:
                            raise ValueError(
                                "associativity fails at %s" % ((a, b, c, d),)
                            )

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": self.unit,
            "dual": list(self.dual),
            "N": [[list(row) for row in plane] for plane in self.N],
        }

    def __repr__(self):
        return "FusionRing(rank=%d, labels=%r)" % (self.rank, list(self.labels))


class DetReport(Record):
    """Z-matrix of a fusion ring with its determinant data."""

    ring: FusionRing
    Z: IntMatrix
    det_abs: int
    radical: int

    def __post_init__(self):
        if self.det_abs < 1:
            raise ValueError("|det Z| must be >= 1 for a fusion ring")


# Every fusion command takes under 0.3 s at this rank on 2 cores, and dk,
# its module certified through the generator, no longer sets the limit:
# lifted, `fusion cheb` (Berkowitz) takes 0.5 / 1.9 / 4.1 s at rank 64 /
# 96 / 121 and dk 0.3 / 0.9 / 1.5 s.  Larger rings are refused before
# the rank^3 structure tensor is built
_MAX_RANK = 48


def _check_rank(rank: int) -> None:
    if rank > _MAX_RANK:
        raise ValueError("fusion ring rank must be <= %d, got %d"
                         % (_MAX_RANK, rank))


def tlj(k: int) -> FusionRing:
    """Level-k Temperley-Lieb-Jones fusion ring on labels pi_0..pi_k.

    Truncated Clebsch-Gordan rule: pi_i * pi_j contains pi_h once exactly
    when |i-j| <= h <= min(i+j, 2k-i-j) and h has the parity of i+j.
    The associator-twisted variant has the same ring.

    >>> tlj(1).labels
    ('pi_0', 'pi_1')
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    r = k + 1
    _check_rank(r)
    N = [
        [
            [
                int(
                    abs(i - j) <= h <= min(i + j, 2 * k - i - j)
                    and (h - i - j) % 2 == 0
                )
                for j in range(r)
            ]
            for i in range(r)
        ]
        for h in range(r)
    ]
    labels = ["pi_%d" % i for i in range(r)]
    return FusionRing(labels, 0, list(range(r)), N)


def tlj_even(k: int) -> FusionRing:
    """Full subring of tlj(k) on the even-index labels pi_0, pi_2, ..."""
    full = tlj(k)
    even = list(range(0, k + 1, 2))
    labels = [full.labels[i] for i in even]
    N = [
        [[full.N[h][i][j] for j in even] for i in even]
        for h in even
    ]
    return FusionRing(labels, 0, list(range(len(even))), N)


def pointed_cyclic(m: int) -> FusionRing:
    """Group ring of Z/mZ as a fusion ring: basis g^0..g^{m-1}."""
    if m < 1:
        raise ValueError("order must be >= 1")
    _check_rank(m)
    N = [
        [[int(c == (a + b) % m) for b in range(m)] for a in range(m)]
        for c in range(m)
    ]
    labels = ["g^%d" % a for a in range(m)]
    dual = [(-a) % m for a in range(m)]
    return FusionRing(labels, 0, dual, N)


def regular_matrix(R: FusionRing, tau) -> IntMatrix:
    """Matrix of multiplication by tau in the regular representation.

    Entry (pi, w) is N[pi][tau][w]; the dual label gives the transpose.
    """
    t = R.index_of(tau)
    r = R.rank
    return IntMatrix.from_rows(
        [[R.N[p][t][w] for w in range(r)] for p in range(r)]
    )


def global_det(R: FusionRing) -> DetReport:
    """Z = sum over labels of M(pi) M(dual pi), with |det| and its radical.

    The radical is the sharpest published upper bound for the liftability
    constant of the ring: only the prime divisors of |det Z| matter.
    """
    r, N, dual = R.rank, R.N, R.dual
    # entry (a, b) of M(p) M(dual p) is sum_w N[a][p][w] N[w][dual p][b],
    # so row a of Z gains N[a][p][w] times row N[w][dual p] for each
    # nonzero N[a][p][w]; those rows are mostly zero, so keep their support
    support = [[[(b, x) for b, x in enumerate(row) if x] for row in plane]
               for plane in N]
    entries = []
    for a in range(r):
        z = [0] * r
        for p, plane in enumerate(N[a]):
            q = dual[p]
            for w, c in enumerate(plane):
                if c:
                    for b, x in support[w][q]:
                        z[b] += c * x
        entries += z
    Z = IntMatrix(r, r, entries)
    # the product of the Smith diagonal: |det Z|, or 0 if Z is singular
    d = prod(elementary_divisors(Z))
    return DetReport(R, Z, d, radical(d))


class ChebyshevReport(Record):
    k: int
    powers_match: bool
    annihilated: bool
    charpoly_is_u_next: bool
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.powers_match and self.annihilated and self.charpoly_is_u_next


def _chebyshev_failures(R: FusionRing) -> tuple:
    """The relations of tlj(k)'s Chebyshev presentation that R breaks,
    k = rank - 1, as two lists, with M the regular matrix of label 1
    (M = 0 at rank 1, where the truncation kills label 1):

    (a) M(label_i) = U_i(M/2) for 0 <= i <= k;
    (b) U_{k+1}(X/2) annihilates M.

    Both hold exactly when R is Z[X]/(U_{k+1}(X/2)) with label_i =
    U_i(X/2): by (a) label_0 is the unit and a cyclic vector of M, so
    I, M, ..., M^k are independent, and (b) then makes U_{k+1}(X/2) the
    minimal polynomial of M.
    """
    k = R.rank - 1
    M = regular_matrix(R, 1) if k >= 1 else IntMatrix.zeros(1, 1)
    us = chebyshev_matrices(M, 1, k + 2)
    powers = ["U_%d(M/2) != M(%s)" % (i, R.labels[i])
              for i in range(k + 1) if us[i] != regular_matrix(R, i)]
    annihilator = ([] if us[k + 1].is_zero()
                   else ["U_%d(M/2) does not annihilate M" % (k + 1)])
    return powers, annihilator


def chebyshev_structure_check(k: int) -> ChebyshevReport:
    """Check that multiplication by pi_1 generates tlj(k) Chebyshev-style.

    (a) and (b) are ``_chebyshev_failures``; (c) the characteristic
    polynomial of M equals U_{k+1}(X/2), a second route to the
    minimality of the annihilator in (b).
    """
    R = tlj(k)
    powers, annihilator = _chebyshev_failures(R)
    M = regular_matrix(R, 1) if k >= 1 else IntMatrix.zeros(1, 1)
    cp_match = charpoly_exact(M) == chebyshev_u(k + 1)
    charpoly = [] if cp_match else ["charpoly(M) != U_%d(X/2)" % (k + 1)]
    return ChebyshevReport(
        k=k,
        powers_match=not powers,
        annihilated=not annihilator,
        charpoly_is_u_next=cp_match,
        failures=tuple(powers + annihilator + charpoly),
    )


class ParityReport(Record):
    """Exactness data for 0 -> Z^k -> Z^{k+1} -> Z -> 0 at half-level k."""

    k: int
    mult_matrix: IntMatrix
    augmentation: tuple
    injective: bool
    image_saturated: bool
    composite_zero: bool
    surjective: bool

    @property
    def exact(self) -> bool:
        return (
            self.injective
            and self.image_saturated
            and self.composite_zero
            and self.surjective
        )


def parity_sequence(k: int) -> ParityReport:
    """Decategorified index-parity sequence for the even part at level 2k.

    The middle map is left multiplication by pi_1 from the odd-label span
    into the even-label span of tlj(2k); the augmentation sends the class
    of pi_{2i} to (-1)^i.  Exactness is decided by Smith normal form:
    the multiplication matrix must have unit elementary divisors (injective
    with saturated image) and the augmentation must hit 1.
    """
    if k < 1:
        raise ValueError("half-level must be >= 1")
    R = tlj(2 * k)
    evens = list(range(0, 2 * k + 1, 2))
    odds = list(range(1, 2 * k, 2))
    A = IntMatrix.from_rows(
        [[R.N[e][1][o] for o in odds] for e in evens]
    )
    aug = tuple((-1) ** (e // 2) for e in evens)
    diag = elementary_divisors(A)
    injective = len(diag) == k and all(d != 0 for d in diag)
    image_saturated = all(d == 1 for d in diag)
    comp = [sum(aug[i] * A.at(i, j) for i in range(k + 1)) for j in range(k)]
    composite_zero = all(c == 0 for c in comp)
    g = 0
    for a in aug:
        g = gcd(g, a)
    surjective = g == 1
    return ParityReport(
        k=k,
        mult_matrix=A,
        augmentation=aug,
        injective=injective,
        image_saturated=image_saturated,
        composite_zero=composite_zero,
        surjective=surjective,
    )


class FusionModule(Record):
    """Module over a Chebyshev-generated fusion ring such as tlj(k),
    given by the action G of label 1; label j acts by U_j(G/2).

    Matrices act on column coordinate vectors: action[j] applied to the
    coordinates of x gives the coordinates of x * label_j.  A base that
    passes ``_chebyshev_failures`` is Z[X]/(U_{k+1}(X/2)), so label_1 ->
    G extends to a module exactly when U_{k+1}(G/2) = 0: then every
    relation label_a * label_b = sum_t N[t][a][b] label_t holds as a
    polynomial identity mod U_{k+1}(X/2), and the unit acts as I.
    """

    base: FusionRing
    generator: IntMatrix

    def __post_init__(self):
        G = self.generator
        if G.rows != G.cols:
            raise ValueError("generator must be a square matrix")
        powers, annihilator = _chebyshev_failures(self.base)
        if powers or annihilator:
            raise ValueError("base ring breaks its Chebyshev presentation: "
                             "%s" % (powers + annihilator)[0])
        k = self.base.rank - 1
        if not chebyshev_matrices(G, 1, k + 2)[k + 1].is_zero():
            raise ValueError("U_%d(G/2) != 0: the generator does not "
                             "define a module" % (k + 1))

    @property
    def rank(self) -> int:
        return self.generator.rows

    @property
    def action(self) -> tuple:
        return tuple(chebyshev_matrices(self.generator, 1, self.base.rank))


def dk_module(k: int) -> FusionModule:
    """Right tlj(k)-module on folded labels w_0..w_{floor(k/2)}.

    Fusion with pi_1 is computed in tlj(k) and then indices fold through
    i -> min(i, k-i); the tie index k/2 (k even) appears once in the
    basis.  That is the generator, from which FusionModule derives and
    certifies the action of every label; a refusal of this generator is
    a failed certificate, so it raises AssertionError.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    R = tlj(k)
    rank = k // 2 + 1
    rows = [[0] * rank for _ in range(rank)]
    for b in range(rank):
        for h in range(R.rank):
            rows[min(h, k - h)][b] += R.N[h][b][1]
    try:
        return FusionModule(R, IntMatrix.from_rows(rows))
    except ValueError as exc:
        raise AssertionError(str(exc)) from None


class GroupRingIsoReport(Record):
    """Witnesses that tlj(p-2) is the even subring with an adjoined
    square root of 1, i.e. a group ring over Z/2Z, with the even subring
    identified through the real cyclotomic minimal polynomial."""

    p: int
    top_label_squares_to_unit: bool
    flip_is_permutation: bool
    flip_swaps_parity: bool
    grading_multiplicative: bool
    commutative: bool
    even_charpoly_matches: bool
    doubled_charpoly_is_chebyshev: bool
    failures: tuple

    @property
    def passed(self) -> bool:
        return (
            self.top_label_squares_to_unit
            and self.flip_is_permutation
            and self.flip_swaps_parity
            and self.grading_multiplicative
            and self.commutative
            and self.even_charpoly_matches
            and self.doubled_charpoly_is_chebyshev
        )


def group_ring_iso_check(p: int) -> GroupRingIsoReport:
    """Group-ring shape of tlj(p-2) for odd prime p.

    Checks, all exactly:
      (i)   pi_{p-2} * pi_{p-2} = pi_0, so Y := pi_{p-2} is a central
            square root of 1 (the ring is commutative);
      (ii)  multiplication by Y permutes the basis through the label flip
            i -> (p-2)-i, which exchanges even and odd labels, and the
            index-parity grading is multiplicative; together these make
            the ring free of rank one over (even subring)[Z/2Z], with the
            sign-of-parity map as the order-2 ring automorphism;
      (iii) on the even-label block, multiplication by pi_1^2 - 1 has
            characteristic polynomial mu(X-1), where mu is the minimal
            polynomial of 2cos(2pi/p); equivalently that polynomial pulled
            back through X -> X^2 - 1 returns U_{p-1}(X/2).
    """
    from .numring import real_cyclotomic

    _check_rank(p - 1)
    if p < 3 or not is_prime(p) or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    k = p - 2
    R = tlj(k)
    failures = []

    squares = all(
        R.N[h][k][k] == int(h == 0) for h in range(R.rank)
    )
    if not squares:
        failures.append("pi_%d * pi_%d != pi_0" % (k, k))

    def s(i):
        return k - i

    P = regular_matrix(R, k)
    flip_perm = P @ P == IntMatrix.identity(R.rank) and all(
        R.N[c][k][b] == int(c == s(b)) for c in range(R.rank) for b in range(R.rank)
    )
    if not flip_perm:
        failures.append("pi_%d does not permute the basis by the label flip" % k)

    flip_parity = all(s(i) % 2 != i % 2 for i in range(R.rank))
    if not flip_parity:
        failures.append("label flip does not exchange parities")

    graded = all(
        R.N[c][a][b] == 0
        for c in range(R.rank)
        for a in range(R.rank)
        for b in range(R.rank)
        if (c - a - b) % 2
    )
    if not graded:
        failures.append("index parity is not a ring grading")

    commutative = all(
        R.N[c][a][b] == R.N[c][b][a]
        for c in range(R.rank)
        for a in range(R.rank)
        for b in range(R.rank)
    )
    if not commutative:
        failures.append("ring is not commutative")

    M1 = regular_matrix(R, 1) if k >= 1 else IntMatrix.identity(1)
    M2 = M1 @ M1 - IntMatrix.identity(R.rank)
    evens = list(range(0, k + 1, 2))
    block = IntMatrix.from_rows(
        [[M2.at(i, j) for j in evens] for i in evens]
    )
    q = charpoly_exact(block)
    mu = real_cyclotomic(p).mu
    even_match = q == mu.compose(PolyZ([-1, 1]))
    if not even_match:
        failures.append("even-block charpoly != mu(X-1)")
    doubled = q.compose(PolyZ([-1, 0, 1])) == chebyshev_u(p - 1)
    if not doubled:
        failures.append("q(X^2-1) != U_%d(X/2)" % (p - 1))

    return GroupRingIsoReport(
        p=p,
        top_label_squares_to_unit=squares,
        flip_is_permutation=flip_perm,
        flip_swaps_parity=flip_parity,
        grading_multiplicative=graded,
        commutative=commutative,
        even_charpoly_matches=even_match,
        doubled_charpoly_is_chebyshev=doubled,
        failures=tuple(failures),
    )
