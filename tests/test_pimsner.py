import itertools
import random
from collections import Counter

import pytest

from cyclotwist import pimsner
from cyclotwist.pimsner import (
    INF,
    CorrSpec,
    IdealReport,
    _raw_rows,
    _recheck,
    invariant_ideals,
    simplicity,
    validate,
)


def _forward_closed(spec, members):
    """{j : some i in S has mult[i][j] > 0} contained in S."""
    for i in members:
        row = spec.mult[i]
        for j in range(spec.n):
            if row[j] != 0 and j not in members:
                return False
    return True


def _absorbs_compacts(spec, members):
    """Every i whose row has finite mass supported in S lies in S."""
    sset = set(members)
    for i in range(spec.n):
        if i in sset:
            continue
        if INF not in spec.mult[i] and all(
            spec.mult[i][j] == 0 for j in range(spec.n) if j not in sset
        ):
            return False
    return True


def list_scan(spec):
    """The subset scan on member lists: the oracle of invariant_ideals."""
    fwd = []
    inv = []
    for mask in range(1, (1 << spec.n) - 1):
        members = [i for i in range(spec.n) if mask >> i & 1]
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
    predicates; raises if a reported witness fails.  O(n^2) per subset:
    the oracle of the per-spec recheck _recheck."""
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


def test_validate_flags():
    f = validate(CorrSpec(1, [["inf"]]))
    assert f.faithful and f.full and not f.proper
    f = validate(CorrSpec(2, [[0, 0], [1, 1]]))
    assert not f.faithful
    f = validate(CorrSpec(2, [[1, 1], [1, 0]]))
    assert f.faithful and f.full and f.proper


def test_corr_spec_rejects_bad_entries():
    with pytest.raises(ValueError):
        CorrSpec(1, [[-1]])
    with pytest.raises(ValueError):
        CorrSpec(1, [[1.5]])
    with pytest.raises(ValueError):
        CorrSpec(2, [[1, 2]])


def test_o_infinity_is_simple():
    rep = simplicity(CorrSpec(1, [["inf"]]))
    assert rep.toeplitz_simple and rep.toeplitz_witnesses == ()
    assert rep.cuntz_pimsner_simple


def test_invariant_ideals_examples():
    assert invariant_ideals(CorrSpec(1, [["inf"]])).forward_closed == ()
    rep = invariant_ideals(CorrSpec(2, [["inf", 1], [0, 1]]))
    assert rep.forward_closed == ((2,),)
    assert rep.invariant == ((2,),)
    rep = invariant_ideals(CorrSpec(2, [["inf", 1], [1, 0]]))
    assert rep.forward_closed == ()


def test_two_by_two_cuntz_pimsner_examples():
    # row 2 is finite with support {2}, and {2} is forward-closed:
    # a genuine nontrivial invariant ideal
    rep = simplicity(CorrSpec(2, [["inf", 1], [0, 1]]))
    assert rep.cuntz_pimsner_simple is False
    assert rep.cuntz_pimsner_witnesses == ((2,),)
    # feeding block 2 back into block 1 removes every candidate
    rep = simplicity(CorrSpec(2, [["inf", 1], [1, 0]]))
    assert rep.cuntz_pimsner_simple is True
    assert rep.cuntz_pimsner_witnesses == ()


def test_toeplitz_examples():
    rep = simplicity(CorrSpec(2, [["inf", 1], ["inf", 0]]))
    assert rep.toeplitz_simple is True
    rep = simplicity(CorrSpec(2, [["inf", 0], [0, "inf"]]))
    assert rep.toeplitz_simple is False
    assert (1,) in rep.toeplitz_witnesses
    # a finite-mass row kills Toeplitz simplicity even without ideals
    rep = simplicity(CorrSpec(2, [["inf", 1], [1, 0]]))
    assert rep.toeplitz_simple is False


def test_proper_input_not_applicable():
    with pytest.raises(ValueError, match="not faithful"):
        simplicity(CorrSpec(2, [[0, 0], [1, 1]]))
    # outside the Cuntz-Pimsner criterion: that pair is None, not guessed
    rep = simplicity(CorrSpec(1, [[1]]))
    assert rep.cuntz_pimsner_simple is None
    assert rep.cuntz_pimsner_witnesses is None
    assert rep.toeplitz_simple is False and rep.toeplitz_witnesses == ()


def test_enumeration_cap():
    n = 21
    mult = [["inf" if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(ValueError, match="capped"):
        invariant_ideals(CorrSpec(n, mult))


def _random_spec(rng, n):
    entries = [0, 0, 1, 2, "inf"]
    while True:
        mult = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if all(any(v != 0 for v in row) for row in mult):
            return CorrSpec(n, mult)


def _permute(spec, sigma):
    mult = [[spec.mult[sigma[i]][sigma[j]] for j in range(spec.n)]
            for i in range(spec.n)]
    packed = [["inf" if v == INF else v for v in row] for row in mult]
    return CorrSpec(spec.n, packed)


def _sparse_spec(rng, n, density):
    """Each entry nonzero with the given probability; a zero row is
    redrawn, so the left action stays faithful."""
    mult = []
    while len(mult) < n:
        row = [rng.choice([1, 2, "inf"]) if rng.random() < density else 0
               for _ in range(n)]
        if any(row):
            mult.append(row)
    return CorrSpec(n, mult)


def test_closure_walk_matches_list_scan():
    rng = random.Random(0x5CA9)
    specs = [_random_spec(rng, rng.randint(1, 6)) for _ in range(200)]
    # sparse tables have many closed sets
    for density in (0.1, 0.2, 0.4):
        specs += [_sparse_spec(rng, rng.randint(1, 8), density)
                  for _ in range(60)]
    n = 10
    # a directed path ending in a self-loop: the n - 1 proper suffixes
    for label in (1, "inf"):
        path = [[label if j == min(i + 1, n - 1) else 0 for j in range(n)]
                for i in range(n)]
        specs.append(CorrSpec(n, path))
        assert len(invariant_ideals(specs[-1]).forward_closed) == n - 1
    # two disjoint cycles, on 1..4 and on 5..10
    succ = [1, 2, 3, 0, 5, 6, 7, 8, 9, 4]
    cycles = [["inf" if j == succ[i] else 0 for j in range(n)]
              for i in range(n)]
    specs.append(CorrSpec(n, cycles))
    assert invariant_ideals(specs[-1]).forward_closed == (
        (1, 2, 3, 4), (5, 6, 7, 8, 9, 10))
    cyclic = [["inf" if j == (i + 1) % n else 0 for j in range(n)]
              for i in range(n)]
    cyclic[3][7] = 2
    specs.append(CorrSpec(n, cyclic))
    specs.append(CorrSpec(n, [[[1, 2, "inf"][i % 3] if i == j else 0
                               for j in range(n)] for i in range(n)]))
    # n = 15, 16 and 17 cross the byte boundaries of the tables; the
    # sparse specs list up to a few hundred sets
    listed = []
    for n in (15, 16, 17):
        for density in (0.05, 0.08):
            specs.append(_sparse_spec(rng, n, density))
            listed.append(len(invariant_ideals(specs[-1]).forward_closed))
    assert max(listed) > pimsner._TABLES_AFTER, listed
    for spec in specs:
        assert invariant_ideals(spec) == list_scan(spec)
    # a diagonal spec has every subset closed and invariant, in mask
    # order: 2^n - 2 sets, too many for the scan at these n
    for n in (15, 16, 17):
        diagonal = CorrSpec(n, [[[1, 2, "inf"][i % 3] if i == j else 0
                                 for j in range(n)] for i in range(n)])
        every = tuple(tuple(i + 1 for i in range(n) if mask >> i & 1)
                      for mask in range(1, (1 << n) - 1))
        assert invariant_ideals(diagonal) == IdealReport(
            forward_closed=every, invariant=every)


def test_byte_tables_match_list_scan(monkeypatch):
    # from the second listed set on every closure and label comes from
    # the byte tables, which the default threshold leaves to large
    # listings only
    monkeypatch.setattr(pimsner, "_TABLES_AFTER", 1)
    rng = random.Random(0xB17E)
    specs = [_random_spec(rng, rng.randint(1, 6)) for _ in range(100)]
    for density in (0.1, 0.2, 0.4):
        specs += [_sparse_spec(rng, rng.randint(1, 10), density)
                  for _ in range(40)]
    tabled = 0
    for spec in specs:
        rep = invariant_ideals(spec)
        assert rep == list_scan(spec)
        tabled += len(rep.forward_closed) > 1
    assert tabled > 50, tabled
    # paths on n = 18 and 20 rows reach the top table's bits 16 and up;
    # their closed sets are the n - 1 proper suffixes, in mask order
    for n in (18, 20):
        suffixes = tuple(tuple(range(k, n + 1)) for k in range(n, 1, -1))
        for label, invariant in ((1, ()), ("inf", suffixes)):
            path = [[label if j == min(i + 1, n - 1) else 0
                     for j in range(n)] for i in range(n)]
            assert invariant_ideals(CorrSpec(n, path)) == IdealReport(
                forward_closed=suffixes, invariant=invariant)


def _accepts(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        assert "fails independent re-verification" in str(exc)
        return False
    return True


def test_recheck_matches_recheck_witness():
    # arbitrary subsets, not only witnesses: every subset for n <= 5; a
    # seeded sample of 40, the empty and the full set, and the listed
    # forward-closed sets above that
    rng = random.Random(0x2EC4)
    specs = [_random_spec(rng, rng.randint(1, 8)) for _ in range(150)]
    for density in (0.1, 0.25, 0.5, 0.8):
        specs += [_sparse_spec(rng, rng.randint(1, 8), density)
                  for _ in range(100)]
    verdicts = Counter()
    for spec in specs:
        n = spec.n
        rows = _raw_rows(spec)
        if n <= 5:
            masks = range(1 << n)
        else:
            masks = [0, (1 << n) - 1] + [rng.randrange(1 << n)
                                          for _ in range(40)]
        subsets = [tuple(i + 1 for i in range(n) if mask >> i & 1)
                   for mask in masks]
        if n > 5:
            subsets += invariant_ideals(spec).forward_closed
        for labelled in subsets:
            want = tuple(_accepts(_recheck_witness, spec, labelled, c)
                         for c in (False, True))
            got = tuple(_accepts(_recheck, rows, labelled, c)
                        for c in (False, True))
            assert got == want, (spec, labelled)
            verdicts[want] += 1
    # not forward-closed, forward-closed only, and both inclusions each
    # occur often, so a recheck that skips either condition disagrees
    assert len(verdicts) == 3 and min(verdicts.values()) > 200, verdicts


def test_permutation_equivariance_random():
    rng = random.Random(0xC0DE)
    for _ in range(100):
        n = rng.randint(1, 5)
        spec = _random_spec(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        perm = _permute(spec, sigma)

        rep = simplicity(spec)
        rep_p = simplicity(perm)
        assert rep.toeplitz_simple == rep_p.toeplitz_simple
        relabel = lambda ws: sorted(
            tuple(sorted(sigma[t - 1] + 1 for t in w)) for w in ws
        )
        assert sorted(rep.toeplitz_witnesses) == relabel(
            rep_p.toeplitz_witnesses)
        # None on both sides when proper
        assert rep.cuntz_pimsner_simple == rep_p.cuntz_pimsner_simple


def test_toeplitz_simple_implies_cuntz_pimsner_simple():
    # Toeplitz simplicity forces every row infinite, hence non-proper,
    # so the Cuntz-Pimsner criterion is always applicable here
    rng = random.Random(0xFACE)
    seen = 0
    while seen < 40:
        spec = _random_spec(rng, rng.randint(1, 4))
        rep = simplicity(spec)
        if not rep.toeplitz_simple:
            continue
        seen += 1
        assert rep.cuntz_pimsner_simple


def test_simplicity_matches_validate_and_list_scan():
    # mixed tables, finite ones (proper) and ones whose every nonzero
    # entry is infinite (every row infinite, the Toeplitz case)
    rng = random.Random(0x51AB)
    kinds = Counter()
    for alphabet in ([0, 0, 1, 2, "inf"], [0, 1, 2], [0, 0, "inf"]):
        for _ in range(120):
            n = rng.randint(1, 6)
            while True:
                mult = [[rng.choice(alphabet) for _ in range(n)]
                        for _ in range(n)]
                if all(any(v != 0 for v in row) for row in mult):
                    break
            spec = CorrSpec(n, mult)
            flags, ideals = validate(spec), list_scan(spec)
            rows_infinite = all(INF in row for row in spec.mult)
            rep = simplicity(spec)
            assert rep.toeplitz_simple is (
                rows_infinite and not ideals.forward_closed), spec
            assert rep.toeplitz_witnesses == ideals.forward_closed
            if flags.proper:
                assert rep.cuntz_pimsner_simple is None, spec
                assert rep.cuntz_pimsner_witnesses is None
            else:
                assert rep.cuntz_pimsner_simple is not ideals.invariant
                assert rep.cuntz_pimsner_witnesses == ideals.invariant
            kinds["proper" if flags.proper else "all infinite"
                  if rows_infinite else "mixed"] += 1
            kinds["T", rep.toeplitz_simple] += 1
            kinds["CP", rep.cuntz_pimsner_simple] += 1
    # every kind of spec and every verdict occurs often
    assert len(kinds) == 8 and min(kinds.values()) > 20, kinds


def test_no_invariant_subset_implies_full():
    # both "no nontrivial forward-closed subset" and "every column
    # nonzero" depend only on where the entries are nonzero, so the
    # support patterns are the whole state space: n <= 3 is swept with
    # the full alphabet {0,1,2,inf}, and n = 4 over {0,1}, which covers
    # every support pattern of every alphabet
    for n in (1, 2, 3):
        for flat in itertools.product([0, 1, 2, "inf"], repeat=n * n):
            mult = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            if not all(any(v != 0 for v in row) for row in mult):
                continue
            spec = CorrSpec(n, mult)
            if invariant_ideals(spec).forward_closed == ():
                assert validate(spec).full
    n = 4
    for flat in itertools.product([0, 1], repeat=n * n):
        mult = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if not all(any(row) for row in mult):
            continue
        spec = CorrSpec(n, mult)
        if invariant_ideals(spec).forward_closed == ():
            assert validate(spec).full


def test_json_roundtrip():
    spec = CorrSpec(2, [["inf", 1], [0, 1]])
    obj = spec.to_json_obj()
    assert obj == {"n": 2, "mult": [["inf", 1], [0, 1]]}
    assert CorrSpec.from_json_obj(obj) == spec
