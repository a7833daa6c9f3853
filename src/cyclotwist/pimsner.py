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
subset conditions, decided below by exhaustive enumeration.

The model is a strict specialization: it covers diagonalizable
correspondences over C^n, which is all the desk-scale inputs need, and
it reproduces the known simplicity of O_infty from the 1x1 table
[["inf"]].
"""

from __future__ import annotations

from dataclasses import dataclass


class _Infinite:
    """The multiplicity of an infinite-dimensional block: an exact marker,
    never summed or compared by size."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INF = _Infinite()

_ENUM_CAP = 20  # subsets are enumerated exhaustively; 2^20 is the limit


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
        return cls(int(obj["n"]), obj["mult"])

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


@dataclass(frozen=True)
class Flags:
    faithful: bool
    full: bool
    proper: bool
    nondegenerate: bool  # automatic in the block model


@dataclass(frozen=True)
class IdealReport:
    # nontrivial subsets S (1-based labels) closed under the forward map
    forward_closed: tuple
    # those additionally absorbing the compact preimage: both inclusions
    invariant: tuple


@dataclass(frozen=True)
class SimplicityReport:
    toeplitz_simple: bool | None
    cuntz_pimsner_simple: bool | None
    witnesses: tuple  # violating subsets, 1-based, sorted
    flags: Flags


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
    return Flags(faithful=faithful, full=full, proper=proper, nondegenerate=True)


def _require_faithful(spec: CorrSpec) -> Flags:
    flags = validate(spec)
    if not flags.faithful:
        raise ValueError("left action is not faithful (a row is zero)")
    if spec.n > _ENUM_CAP:
        raise ValueError(
            "subset enumeration capped at n = %d" % _ENUM_CAP
        )
    return flags


def _forward_closed(spec: CorrSpec, members: list) -> bool:
    """{j : some i in S has mult[i][j] > 0} contained in S."""
    for i in members:
        row = spec.mult[i]
        for j in range(spec.n):
            if row[j] != 0 and j not in members:
                return False
    return True


def _absorbs_compacts(spec: CorrSpec, members: list) -> bool:
    """Every i whose row has finite mass supported in S lies in S."""
    sset = set(members)
    for i in range(spec.n):
        if i in sset:
            continue
        if _finite(spec.mult[i]) and all(
            spec.mult[i][j] == 0 for j in range(spec.n) if j not in sset
        ):
            return False
    return True


def invariant_ideals(spec: CorrSpec) -> IdealReport:
    """Exhaustive scan of the 2^n subsets for the two ideal inclusions.

    Returns the nontrivial forward-closed subsets and, separately, the
    sublist also absorbing the compact preimage; subsets are reported as
    sorted 1-based tuples.
    """
    _require_faithful(spec)
    n = spec.n
    fwd = []
    inv = []
    for mask in range(1, (1 << n) - 1):
        members = [i for i in range(n) if mask >> i & 1]
        if not _forward_closed(spec, members):
            continue
        labelled = tuple(i + 1 for i in members)
        fwd.append(labelled)
        if _absorbs_compacts(spec, members):
            inv.append(labelled)
    return IdealReport(forward_closed=tuple(fwd), invariant=tuple(inv))


def _recheck_witness(spec: CorrSpec, labelled: tuple, need_compact: bool):
    """Independent re-derivation of the inclusion conditions for one
    subset, written against the raw table rather than the helper
    predicates; raises if a reported witness fails."""
    inside = [False] * spec.n
    for lab in labelled:
        inside[lab - 1] = True
    forward_ok = True
    for i in range(spec.n):
        if not inside[i]:
            continue
        for j in range(spec.n):
            entry = spec.mult[i][j]
            if entry != 0 and not inside[j]:
                forward_ok = False
    compact_ok = True
    for i in range(spec.n):
        finite = True
        outside_support = False
        for j in range(spec.n):
            entry = spec.mult[i][j]
            if entry is INF:
                finite = False
            if entry != 0 and not inside[j]:
                outside_support = True
        if finite and not outside_support and not inside[i]:
            compact_ok = False
    if not forward_ok or (need_compact and not compact_ok):
        raise AssertionError(
            "witness %r fails independent re-verification" % (labelled,)
        )


def toeplitz_simple(spec: CorrSpec) -> SimplicityReport:
    """Toeplitz algebra simplicity: no part of A acts compactly (every
    row has infinite mass) and no nontrivial forward-closed subset."""
    flags = _require_faithful(spec)
    rows_infinite = all(not _finite(row) for row in spec.mult)
    witnesses = invariant_ideals(spec).forward_closed
    for w in witnesses:
        _recheck_witness(spec, w, need_compact=False)
    return SimplicityReport(
        toeplitz_simple=rows_infinite and not witnesses,
        cuntz_pimsner_simple=None,
        witnesses=witnesses,
        flags=flags,
    )


def cuntz_pimsner_simple(spec: CorrSpec) -> SimplicityReport:
    """Cuntz-Pimsner algebra simplicity for non-proper correspondences:
    no nontrivial subset satisfies both ideal inclusions.

    Proper input is outside the criterion and rejected, not guessed.
    """
    flags = _require_faithful(spec)
    if flags.proper:
        raise ValueError("criterion not applicable: correspondence is proper")
    witnesses = invariant_ideals(spec).invariant
    for w in witnesses:
        _recheck_witness(spec, w, need_compact=True)
    return SimplicityReport(
        toeplitz_simple=None,
        cuntz_pimsner_simple=not witnesses,
        witnesses=witnesses,
        flags=flags,
    )
