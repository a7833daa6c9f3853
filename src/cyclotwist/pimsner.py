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
NextClosure) rather than by testing every subset.  Once the listing
is long (_TABLES_AFTER sets), each closure and each label tuple comes
from memoized per-byte tables: one dict per byte of the mask, with an
entry made on its first lookup as one join on a smaller entry.  A spec
with few witnesses builds no table.

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

from operator import add, index, or_

from ._record import Record


class _Infinite:
    """The multiplicity of an infinite-dimensional block: an exact marker,
    never summed or compared by size."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinite()

_ENUM_CAP = 20  # witnesses are listed in full: at most 2^20 - 2 of them
# sets listed bit by bit before invariant_ideals switches to byte tables
_TABLES_AFTER = 64


def _as_entry(v):
    if v == "inf" or v is INF:
        return INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError("entries must be non-negative integers or 'inf'")
    if v < 0:
        raise ValueError("entries must be non-negative integers or 'inf'")
    return v


class CorrSpec(Record):
    """Multiplicity table of a correspondence over A = C^n."""

    n: int
    mult: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one minimal ideal")
        rows = tuple(tuple(_as_entry(v) for v in row) for row in self.mult)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError("multiplicity table must be n x n")
        self.__dict__["mult"] = rows

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


class _ByteTable(dict):
    """The values of one byte of a mask, each made on its first lookup:
    the value of v joins bits[j] over the set bits j of v, lowest first,
    so an entry costs one join on top of a smaller entry."""

    __slots__ = ("bits", "join")

    def __init__(self, bits, join, empty):
        super().__init__(((0, empty),))
        self.bits = bits
        self.join = join

    def __missing__(self, v):
        low = v & -v
        out = self[v] = self.join(self.bits[low.bit_length() - 1],
                                  self[v ^ low])
        return out


def _byte_tables(reach, n):
    """The closure and the 1-based label tuple of a mask, from lazily
    filled tables for bits 0-7, 8-15 and 16 up."""
    spans = ((0, 8), (8, 16), (16, n))
    c0, c1, c2 = (_ByteTable(reach[a:b], or_, 0) for a, b in spans)
    l0, l1, l2 = (_ByteTable([(i + 1,) for i in range(a, min(b, n))],
                             add, ()) for a, b in spans)

    def closure(x):
        return c0[x & 255] | c1[x >> 8 & 255] | c2[x >> 16]

    def label(x):
        return l0[x & 255] + l1[x >> 8 & 255] + l2[x >> 16]

    return closure, label


def validate(spec: CorrSpec) -> Flags:
    """Row/column flags of the block model; non-degeneracy is automatic."""
    # INF is truthy, so a row or column is nonzero iff any entry is
    return Flags(all(map(any, spec.mult)), all(map(any, zip(*spec.mult))),
                 all(map(_finite, spec.mult)))


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
    follows the number of witnesses, not 2^n.  Closures and labels are
    built bit by bit until the listing reaches _TABLES_AFTER sets; from
    there they come from per-byte tables (_ByteTable), one lookup per
    byte of the mask, so a spec with few witnesses builds no table.
    """
    if not all(map(any, spec.mult)):  # INF is truthy
        raise ValueError("left action is not faithful (a row is zero)")
    if spec.n > _ENUM_CAP:
        raise ValueError("subset enumeration capped at n = %d" % _ENUM_CAP)
    n = spec.n
    supp = [sum(1 << j for j, v in enumerate(row) if v != 0)
            for row in spec.mult]
    finite = sum(1 << i for i in range(n) if _finite(spec.mult[i]))
    # reach[i]: the rows reachable from row i, i included (Warshall)
    reach = [1 << i | supp[i] for i in range(n)]
    for k in range(n):
        bit, rk = 1 << k, reach[k]
        reach = [r | rk if r & bit else r for r in reach]

    def closure(x):
        out = x
        while x:
            low = x & -x
            out |= reach[low.bit_length() - 1]
            x ^= low
        return out

    def label(x):
        return tuple(i + 1 for i in range(n) if x >> i & 1)

    full = (1 << n) - 1
    fwd = []
    inv = []
    mask = 0  # the empty set is forward-closed
    while True:
        # candidates i: the bits outside mask, lowest first
        free = full ^ mask
        while True:
            low = free & -free
            nxt = closure(mask & -low | low)
            if nxt ^ mask < low << 1:  # no bit above i was added
                break
            free ^= low
        if nxt == full:
            break
        mask = nxt
        out = full ^ mask
        labelled = label(mask)
        fwd.append(labelled)
        # a finite row outside mask must have support meeting out
        rows = out & finite
        while rows:
            low = rows & -rows
            if not supp[low.bit_length() - 1] & out:
                break
            rows ^= low
        else:
            inv.append(labelled)
        if len(fwd) == _TABLES_AFTER:
            closure, label = _byte_tables(reach, n)
    # by position, which skips Record's keyword binding (about 2 us)
    return IdealReport(tuple(fwd), tuple(inv))


def _raw_rows(spec: CorrSpec):
    """Each row's nonzero columns, by 1-based label, and the labels of
    the rows of finite mass, read straight from the table: the
    recheck's own view of the spec, built once per spec and independent
    of the masks of invariant_ideals."""
    cols = {i + 1: frozenset(j + 1 for j, v in enumerate(row) if v != 0)
            for i, row in enumerate(spec.mult)}
    finite = frozenset(i + 1 for i, row in enumerate(spec.mult)
                       if all(v is not INF for v in row))
    return cols, finite


def _recheck(rows, labelled: tuple, need_compact: bool) -> None:
    """Independent re-derivation of the inclusion conditions for one
    subset S, given _raw_rows(spec); raises if a reported witness fails.

    S is forward-closed iff every row in S has its nonzero columns in S,
    and absorbs the compact preimage iff no finite row outside S has its
    nonzero columns in S."""
    cols, finite = rows
    inside = set(labelled)
    ok = True
    for lab in labelled:
        if not cols[lab] <= inside:
            ok = False
            break
    if ok and need_compact:
        for lab in finite - inside:
            if cols[lab] <= inside:
                ok = False
                break
    if not ok:
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
    # the four fields in order, by position as in invariant_ideals
    return SimplicityReport(
        not finite_rows and not ideals.forward_closed,
        ideals.forward_closed,
        None if proper else not ideals.invariant,
        None if proper else ideals.invariant,
    )
