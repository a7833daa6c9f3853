"""Simplicity of Pimsner algebras over finite-dimensional commutative A.

Block model
-----------
Take A = C^n with minimal ideals spanned by the coordinate projections
e_1..e_n.  A correspondence over A decomposes into blocks E_ij carried
by e_i on the left and taking right inner products in the ideal of e_j;
the data retained here is the multiplicity mult[i][j] of each block,
a non-negative integer or "inf" (an infinite-dimensional block).

Lemma (reduction to subset combinatorics).  For such E:
  (a) the left action is faithful iff every row of mult is nonzero;
  (b) E is full iff every column is nonzero;
  (c) phi(e_i) is a compact operator on E iff row i has finite total
      mass, so phi(A) meets K(E) trivially iff every row has infinite
      total mass, and E is proper iff every row mass is finite;
  (d) ideals of A are exactly I_S = span{e_i : i in S} for subsets S;
      <E, phi(I_S) E> lies in I_S iff the forward set
      {j : mult[i][j] > 0 for some i in S} is contained in S;
  (e) phi(e_i) lies in K(E I_S) iff row i has finite total mass and its
      support is contained in S, so phi^{-1}(K(E I_S)) <= I_S iff every
      such i already lies in S.
Sketch: phi(e_i) restricts to the identity on the i-th block row, which
is compact iff that row is finite-dimensional, giving (a), (c), (e);
right inner products of the block E_ij land in the j-th coordinate,
giving (b), (d).  The gauge-invariant-ideal criteria then become finite
subset conditions on bitmasks.  Forward-closed subsets are closed under
intersection, and the least one containing S is everything reachable
from S, so they are listed below by a closure walk (Ganter's
NextClosure) rather than by testing every subset.

Both verdicts come from one such listing (simplicity): the Toeplitz
witnesses are the forward-closed subsets, the Cuntz-Pimsner witnesses
the invariant ones among them.  Each witness is then
rechecked once against the raw table, by set membership in each row's
nonzero columns, without the listing's masks.

The model is a strict specialization: it covers diagonalizable
correspondences over C^n, which is all the desk-scale inputs need, and
it reproduces the known simplicity of O_infty from the 1x1 table
[["inf"]].
"""

from __future__ import annotations

from operator import index

from ._record import Record


class _Infinite:
    """The multiplicity of an infinite-dimensional block: an exact marker,
    never summed or compared by size."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinite()

_ENUM_CAP = 20  # witnesses are listed in full: at most 2^20 - 2 of them


def _as_entry(v):
    if v == "inf" or v is INF:
        return INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("entries must be non-negative integers or 'inf'")
    if v < 0:
        raise ValueError("entries must be non-negative integers or 'inf'")
    return v


class CorrSpec:
    """Multiplicity table of a correspondence over A = C^n."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, mult):
        if n < 1:
            raise ValueError("need at least one minimal ideal")
        rows = tuple(tuple(_as_entry(v) for v in row) for row in mult)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("multiplicity table must be n x n")
        self.n = n
        self.mult = rows

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CorrSpec":
        return cls(index(obj["n"]), obj["mult"])

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "mult": [
                ["inf" if v is INF else v for v in row] for row in self.mult
            ],
        }

    def __eq__(self, other):
        return (
            isinstance(other, CorrSpec)
            and self.n == other.n
            and self.mult == other.mult
        )

    def __repr__(self):
        return "CorrSpec(n=%d, mult=%r)" % (self.n, self.mult)


class Flags(Record):
    faithful: bool
    full: bool
    proper: bool


class IdealReport(Record):
    # nontrivial subsets S (1-based labels) closed under the forward map
    forward_closed: tuple
    # those additionally absorbing the compact preimage: both inclusions
    invariant: tuple


class SimplicityReport(Record):
    # violating subsets are 1-based and sorted; the Cuntz-Pimsner pair
    # is None for a proper correspondence, outside that criterion
    toeplitz_simple: bool
    toeplitz_witnesses: tuple
    cuntz_pimsner_simple: bool | None
    cuntz_pimsner_witnesses: tuple | None


def _finite(row) -> bool:
    """A row has finite total mass iff no block in it is infinite."""
    return INF not in row


def validate(spec: CorrSpec) -> Flags:
    """Row/column flags of the block model; non-degeneracy is automatic."""
    faithful = all(any(v != 0 for v in row) for row in spec.mult)
    full = all(
        any(spec.mult[i][j] != 0 for i in range(spec.n)) for j in range(spec.n)
    )
    proper = all(_finite(row) for row in spec.mult)
    return Flags(faithful=faithful, full=full, proper=proper)


def invariant_ideals(spec: CorrSpec) -> IdealReport:
    """The nontrivial subsets satisfying the two ideal inclusions.

    Returns the nontrivial forward-closed subsets and, separately, the
    sublist also absorbing the compact preimage, as sorted 1-based
    tuples in increasing bitmask order.  S is forward-closed iff it
    holds every row reachable from S, and absorbs the compact preimage
    iff every finite row outside S has support meeting the complement.

    The forward-closed sets are walked by NextClosure (Ganter & Reuter,
    Order 8, 1991): after a closed mask comes the closure of (mask
    above i) + i for the smallest bit i outside mask whose closure adds
    no bit above i.  A step costs at most n closures, so the work
    follows the number of witnesses, not 2^n.
    """
    if not all(map(any, spec.mult)):  # INF is truthy
        raise ValueError("left action is not faithful (a row is zero)")
    if spec.n > _ENUM_CAP:
        raise ValueError("subset enumeration capped at n = %d" % _ENUM_CAP)
    n = spec.n
    supp = [sum(1 << j for j, v in enumerate(row) if v != 0)
            for row in spec.mult]
    finite = [i for i in range(n) if _finite(spec.mult[i])]
    # reach[i]: the rows reachable from row i, i included (Warshall)
    reach = [1 << i | supp[i] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]

    def closure(x):
        out = x
        while x:
            low = x & -x
            out |= reach[low.bit_length() - 1]
            x ^= low
        return out

    full = (1 << n) - 1
    fwd = []
    inv = []
    mask = 0  # the empty set is forward-closed
    while True:
        for i in range(n):
            if mask >> i & 1:
                continue
            nxt = closure(mask >> i << i | 1 << i)
            if nxt >> i + 1 == mask >> i + 1:
                break
        mask = nxt
        if mask == full:
            break
        out = full ^ mask
        labelled = tuple(i + 1 for i in range(n) if mask >> i & 1)
        fwd.append(labelled)
        if all(supp[i] & out for i in finite if out >> i & 1):
            inv.append(labelled)
    return IdealReport(forward_closed=tuple(fwd), invariant=tuple(inv))


def _raw_rows(spec: CorrSpec):
    """Each row's nonzero columns, and the rows of finite mass with
    theirs, in 1-based labels, read straight from the table: the
    recheck's own view of the spec, built once per spec and independent
    of the masks of invariant_ideals."""
    cols = {i + 1: frozenset(j + 1 for j, v in enumerate(row) if v != 0)
            for i, row in enumerate(spec.mult)}
    finite = [(i + 1, cols[i + 1]) for i, row in enumerate(spec.mult)
              if all(v is not INF for v in row)]
    return cols, finite


def _recheck(rows, labelled: tuple, need_compact: bool) -> None:
    """Independent re-derivation of the inclusion conditions for one
    subset S, given _raw_rows(spec); raises if a reported witness fails.

    S is forward-closed iff every row in S has its nonzero columns in S,
    and absorbs the compact preimage iff no finite row outside S has its
    nonzero columns in S."""
    cols, finite = rows
    inside = set(labelled)
    forward_ok = all(cols[lab] <= inside for lab in labelled)
    if not forward_ok or (need_compact and any(
            lab not in inside and c <= inside for lab, c in finite)):
        raise AssertionError(
            "witness %r fails independent re-verification" % (labelled,)
        )


def simplicity(spec: CorrSpec) -> SimplicityReport:
    """Both verdicts and their witnesses from one listing of
    invariant_ideals and one recheck pass.  The Toeplitz algebra is
    simple iff no part of A acts compactly (every row has infinite mass)
    and no nontrivial subset is forward-closed; those subsets are its
    witnesses.  For a non-proper correspondence the Cuntz-Pimsner
    algebra is simple iff no nontrivial subset is invariant (both ideal
    inclusions); a proper one (every row finite) is outside that
    criterion, and its pair is None.

    Every forward-closed witness is rechecked against the raw table for
    the forward inclusion, and each invariant one also for the
    compact-preimage inclusion.
    """
    ideals = invariant_ideals(spec)
    rows = _raw_rows(spec)
    # the invariant sets come in listing order among the forward-closed
    # ones; any left unmatched (a wrong listing) are rechecked after
    invariant = iter(ideals.invariant)
    nxt = next(invariant, None)
    for w in ideals.forward_closed:
        need_compact = w == nxt
        _recheck(rows, w, need_compact)
        if need_compact:
            nxt = next(invariant, None)
    if nxt is not None:
        for w in (nxt, *invariant):
            _recheck(rows, w, True)
    finite_rows = len(rows[1])
    proper = finite_rows == spec.n
    return SimplicityReport(
        toeplitz_simple=not finite_rows and not ideals.forward_closed,
        toeplitz_witnesses=ideals.forward_closed,
        cuntz_pimsner_simple=None if proper else not ideals.invariant,
        cuntz_pimsner_witnesses=None if proper else ideals.invariant,
    )
