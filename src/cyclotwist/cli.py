"""Command-line front end for the library.

Every subcommand wraps exactly one library operation or one named sweep.
Boolean verdict lines carry a short statement of the governing criterion
so reports are self-describing.  Output is deterministic: identical
invocations print identical bytes.

Exit status: 0 = completed (including a computed false verdict without
--assert), 1 = false verdict under --assert, 2 = usage error (bad
arguments, malformed JSON, out-of-range parameters), 3 = internal
invariant violation (certificate or dual-route consistency failure).
"""

from __future__ import annotations

import argparse
import sys

# Library modules are imported by the handlers that call them, so a
# process compiles only the modules its command runs.

CIT_DET_TLJ = "det formula at level k: 2^(k+1) (k+2)^(k-1)"
CIT_DET_EVEN = "even-part det, odd k: (k+2)^floor(k/2) 2^(k-1-2 floor(k/2))"
CIT_DET_POINTED = "pointed fusion det: m^m"
CIT_CHEB = "level-k generator has characteristic polynomial U_(k+1)(X/2)"
CIT_PARITY = "index-parity sequence is exact at even levels"
CIT_ISO = "group-ring shape: even subring with an adjoined sqrt(1)"
CIT_COCYCLE = "3-cocycle identity on Z/m, checked on all m^4 quadruples"
CIT_CLASS = "H^3(Z/m; Q/Z) = Z/m with representatives omega_m^k"
CIT_EMBED = "cocycle restriction along i -> n*i into Z/(m*n)"
CIT_CRT = "coprime splitting: classes k mod m and k mod n"
CIT_TENSOR = "stabilized existence: twist divisibility at every prime of m"
CIT_AUT = "automorphism-level existence: gcd(m, n) divides k"
CIT_INTRO = "divisibility form: gcd(n, num(2 rad(m) m / n), m) divides k"
CIT_FIB = "x^2 = x+1 mod n: odd n, prime factors +-1 mod 5, at most one 5"
CIT_EV1 = "evaluation at the unit has image gcd(m, n) (Z/m)"
CIT_PIM_T = "Toeplitz simplicity: no compact part, no forward-closed subset"
CIT_PIM_CP = "Cuntz-Pimsner simplicity: no nontrivial invariant subset"
CIT_SPLIT = "certified splitting M[G] = L0 (+) L1, N[G] = 2 L0 (+) L1"
CIT_INVOL = "decomposition P+ (+) P- (+) P0 with a Higman certificate"
CIT_RESOLVE = "four-term exact resolution by R_+ and R[Z/2Z] blocks"


def _say(text: str) -> None:
    sys.stdout.write(text + "\n")


def _verdict(args, label: str, value: bool, citation: str) -> int:
    _say("%s: %s  [%s]" % (label, "true" if value else "false", citation))
    return 1 if (args.do_assert and not value) else 0


def _json_parts(obj, nl: str = "\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True), in pieces of
    one row or at most 1,024 integers; nl is the line break and indent of
    obj's own lines.  Non-str keys and floats are a TypeError."""
    t, inner = type(obj), nl + "  "
    if t is dict and obj:
        if set(map(type, obj)) != {str}:
            raise TypeError("JSON object keys must be str")
        sep = "{" + inner
        for key in sorted(obj):
            yield sep + "".join(_json_parts(key)) + ": "
            yield from _json_parts(obj[key], inner)
            sep = "," + inner
        yield nl + "}"
    elif (t is list or t is tuple) and obj:
        sep = "[" + inner
        for i in range(0, len(obj), 1024):
            chunk = obj[i:i + 1024]
            if set(map(type, chunk)) == {int}:  # not bools: one join, in C
                yield sep + ("," + inner).join(map(int.__repr__, chunk))
                sep = "," + inner
                continue
            for x in chunk:
                yield sep
                yield from _json_parts(x, inner)
                sep = "," + inner
        yield nl + "]"
    elif obj is None or t in (str, int, bool, dict, list, tuple):
        import json  # a scalar, [] or {}
        yield json.dumps(obj)
    else:
        raise TypeError("%s is not a JSON payload value" % t.__name__)


def _emit_json(args, payload: dict) -> None:
    """Write payload and "seed" to the --json path, if given, in the bytes
    of json.dumps(payload, indent=2, sort_keys=True) + "\\n"."""
    if getattr(args, "json_path", None):
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.writelines(_json_parts(dict(payload, seed=args.seed)))
            fh.write("\n")


def _load_json(path: str) -> dict:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("top-level JSON value must be an object")
    return obj


_SHAPES = ("an integer", "a list of integers", "a list of integer rows")


def _int(value) -> int:
    """A JSON integer; floats, booleans and strings are refused rather
    than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _field(obj: dict, name: str, depth: int, leaf=_int):
    """obj[name] read as one entry (depth 0), a list of entries (depth 1)
    or a list of rows of entries (depth 2), each entry passed through
    ``leaf``; any other shape is a ValueError naming the field."""
    if name not in obj:
        raise ValueError("missing field %r" % name)

    def read(value, d):
        if d == 0:
            return leaf(value)
        if not isinstance(value, list):
            raise TypeError(name)
        return [read(v, d - 1) for v in value]

    try:
        return read(obj[name], depth)
    except TypeError:
        raise ValueError("field %r must be %s" % (name, _SHAPES[depth])) \
            from None


# ---------------------------------------------------------------- fusion

def _select_ring(args):
    from .fusion import pointed_cyclic, tlj, tlj_even
    if args.tlj is not None:
        return tlj(args.tlj), "tlj(%d)" % args.tlj
    if args.tlj_even is not None:
        return tlj_even(args.tlj_even), "tlj_even(%d)" % args.tlj_even
    return pointed_cyclic(args.pointed), "pointed(%d)" % args.pointed


def _cmd_fusion_build(args) -> int:
    ring, name = _select_ring(args)
    _say("%s: rank %d" % (name, ring.rank))
    _say("labels: %s" % " ".join(ring.labels))
    _say("dual: %s" % " ".join(str(d) for d in ring.dual))
    payload = {"name": name, "rank": ring.rank}
    payload.update(ring.to_json_obj())
    _emit_json(args, payload)
    return 0


def _tlj_det_formula(k: int) -> int:
    # |det Z| of the level-k fusion ring, for k >= 1
    return 2 ** (k + 1) * (k + 2) ** (k - 1)


def _cmd_fusion_det(args) -> int:
    from .fusion import global_det
    ring, name = _select_ring(args)
    rep = global_det(ring)
    payload = {"name": name, "det_abs": rep.det_abs, "radical": rep.radical}
    if args.tlj is not None:
        k = args.tlj
        formula = _tlj_det_formula(k) if k >= 1 else 1
        _say("|det Z| = %d  [%s]" % (rep.det_abs, CIT_DET_TLJ))
        if k >= 1 and rep.det_abs != formula:
            raise AssertionError(
                "det %d does not match the closed form %d at k=%d"
                % (rep.det_abs, formula, k))
        payload["formula"] = formula
    elif args.tlj_even is not None:
        k = args.tlj_even
        # |det Z| = (k+2)^floor(k/2) at every level; the cited expression
        # is half of it at even k >= 2, which the note says
        exact = (k + 2) ** (k // 2)
        half = k >= 2 and k % 2 == 0
        formula = exact // 2 if half else exact
        _say("|det Z| = %d  [%s]" % (rep.det_abs, CIT_DET_EVEN))
        if half:
            _say("note: exact value is %d = 2 x %d (even level)"
                 % (rep.det_abs, formula))
        if rep.det_abs != exact:
            raise AssertionError("even-part det %d != closed form %d"
                                 % (rep.det_abs, exact))
        payload["formula"] = formula
    else:
        m = args.pointed
        _say("|det Z| = %d  [%s]" % (rep.det_abs, CIT_DET_POINTED))
        if rep.det_abs != m ** m:
            raise AssertionError("pointed det %d != %d" % (rep.det_abs,
                                                           m ** m))
        payload["formula"] = m ** m
    _say("radical = %d" % rep.radical)
    _emit_json(args, payload)
    return 0


def _cmd_fusion_cheb(args) -> int:
    from .fusion import chebyshev_structure_check
    rep = chebyshev_structure_check(args.level)
    _say("powers match U_i: %s" % rep.powers_match)
    _say("U_(k+1)(X/2) annihilates: %s" % rep.annihilated)
    _say("charpoly equals U_(k+1)(X/2): %s" % rep.charpoly_is_u_next)
    _emit_json(args, {
        "level": rep.k,
        "powers_match": rep.powers_match,
        "annihilated": rep.annihilated,
        "charpoly_is_u_next": rep.charpoly_is_u_next,
    })
    return _verdict(args, "chebyshev structure", rep.passed, CIT_CHEB)


def _cmd_fusion_parity(args) -> int:
    from .fusion import parity_sequence
    rep = parity_sequence(args.half_level)
    _say("injective: %s  image saturated: %s  composite zero: %s  "
         "surjective: %s" % (rep.injective, rep.image_saturated,
                             rep.composite_zero, rep.surjective))
    _emit_json(args, {
        "half_level": rep.k,
        "injective": rep.injective,
        "image_saturated": rep.image_saturated,
        "composite_zero": rep.composite_zero,
        "surjective": rep.surjective,
    })
    return _verdict(args, "parity sequence exact", rep.exact, CIT_PARITY)


def _cmd_fusion_dk(args) -> int:
    from .fusion import dk_module
    mod = dk_module(args.level)  # validates the module axioms
    _say("folded module at level %d: rank %d over a base of rank %d"
         % (args.level, mod.rank, mod.base.rank))
    _emit_json(args, {
        "level": args.level,
        "rank": mod.rank,
        "base_rank": mod.base.rank,
        "action": [m.to_rows() for m in mod.action],
    })
    _say("module axioms: true  [unit acts as identity; action respects "
         "the structure constants]")
    return 0


def _cmd_fusion_iso(args) -> int:
    from .fusion import group_ring_iso_check
    rep = group_ring_iso_check(args.p)
    for name in ("top_label_squares_to_unit", "flip_is_permutation",
                 "flip_swaps_parity", "grading_multiplicative",
                 "commutative", "even_charpoly_matches",
                 "doubled_charpoly_is_chebyshev"):
        _say("%s: %s" % (name, getattr(rep, name)))
    _emit_json(args, {"p": rep.p, "passed": rep.passed})
    return _verdict(args, "group-ring shape", rep.passed, CIT_ISO)


# --------------------------------------------------------------- cocycle

def _load_cocycle(args):
    from .cocycle import Cocycle3, omega
    if args.file:
        obj = _load_json(args.file)
        return Cocycle3.from_json_obj({
            "m": _field(obj, "m", 0),
            "denominator": _field(obj, "denominator", 0),
            "values": _field(obj, "values", 1),
        })
    if args.m is None or args.k is None:
        raise ValueError("need either --file or both --m and --k")
    return omega(args.m, args.k)


def _cmd_cocycle_make(args) -> int:
    from .cocycle import omega
    c = omega(args.m, args.k)
    _say("omega(%d, %d): %d table entries, denominator lcm %d"
         % (args.m, args.k, len(c.nums), c.den))
    _emit_json(args, c.to_json_obj())
    return 0


def _cmd_cocycle_check(args) -> int:
    from .cocycle import NotClassified, cohomology_class, is_cocycle
    c = _load_cocycle(args)
    # the identity scan decides; the class certificate must agree with it
    chk = is_cocycle(c)
    try:
        cohomology_class(c)
        certified = True
    except NotClassified:
        certified = False
    if certified != chk.ok:
        raise AssertionError("identity scan says %s, class certificate %s"
                             % (chk.ok, certified))
    if not chk.ok:
        _say("witness quadruple: %s" % (chk.witness,))
    _emit_json(args, {"m": c.m, "cocycle": chk.ok,
                      "witness": None if chk.ok else list(chk.witness)})
    return _verdict(args, "cocycle identity", chk.ok, CIT_COCYCLE)


def _cmd_cocycle_class(args) -> int:
    from .cocycle import NotClassified, cohomology_class
    c = _load_cocycle(args)
    try:
        cls = cohomology_class(c)
    except NotClassified:
        raise ValueError(
            "input table is not a cocycle; nothing to classify") from None
    _say("class: %d (mod %d)  [%s]" % (cls.k, cls.m, CIT_CLASS))
    _emit_json(args, {"m": cls.m, "k": cls.k})
    return 0


def _cmd_cocycle_embed(args) -> int:
    from .cocycle import embed_check
    ok = embed_check(args.m, args.n, args.k)
    _emit_json(args, {"m": args.m, "n": args.n, "k": args.k, "embed": ok})
    return _verdict(args, "embedding identity", ok, CIT_EMBED)


def _cmd_cocycle_crt(args) -> int:
    from .cocycle import crt_check
    ok = crt_check(args.m, args.n, args.k)
    _emit_json(args, {"m": args.m, "n": args.n, "k": args.k, "crt": ok})
    return _verdict(args, "coprime split classes", ok, CIT_CRT)


# ----------------------------------------------------------- obstruction

def _query(args):
    from .obstruction import ActionQuery
    return ActionQuery(args.m, args.n, args.k)


def _cmd_obstruction_cuntz(args) -> int:
    from .obstruction import exists_automorphism_action, tensor_action
    q = _query(args)
    tensor = tensor_action(q)
    aut = exists_automorphism_action(q)
    _say("automorphism action exists: %s  [%s]"
         % ("true" if aut else "false", CIT_AUT))
    _emit_json(args, {"m": q.m, "n": q.n, "k": q.k,
                      "tensor": tensor, "automorphism": aut})
    return _verdict(args, "action on the Cuntz algebra (stabilized)",
                    tensor, CIT_TENSOR)


def _cmd_obstruction_tensor(args) -> int:
    from .obstruction import tensor_action
    q = _query(args)
    ok = tensor_action(q)
    _emit_json(args, {"m": q.m, "n": q.n, "k": q.k, "tensor": ok})
    return _verdict(args, "tensor-stabilized action", ok, CIT_TENSOR)


def _cmd_obstruction_intro(args) -> int:
    from .obstruction import tensor_action
    q = _query(args)
    ok = tensor_action(q)
    _emit_json(args, {"m": q.m, "n": q.n, "k": q.k, "intro": ok})
    return _verdict(args, "divisibility-form action", ok, CIT_INTRO)


def _cmd_obstruction_fibonacci(args) -> int:
    from .obstruction import fibonacci_acts
    rep = fibonacci_acts(args.n)
    if rep.witness is not None:
        _say("witness: %d" % rep.witness)
    _emit_json(args, {"n": rep.n, "acts": rep.acts, "witness": rep.witness})
    return _verdict(args, "fibonacci action", rep.acts, CIT_FIB)


def _cmd_obstruction_ev1(args) -> int:
    from .obstruction import ev1_image
    g = ev1_image(args.m, args.n)
    _say("ev1 image generator: %d  [%s]" % (g, CIT_EV1))
    _emit_json(args, {"m": args.m, "n": args.n, "generator": g})
    return 0


# --------------------------------------------------------------- numring

def _cmd_numring_minpoly(args) -> int:
    from .numring import real_cyclotomic
    ring = real_cyclotomic(args.p)
    _say("mu (lowest coefficient first): %s"
         % " ".join(str(c) for c in ring.mu.coeffs))
    _say("degree: %d" % ring.degree)
    _emit_json(args, {"p": args.p, "mu": list(ring.mu.coeffs),
                      "degree": ring.degree})
    return 0


def _cmd_numring_factor2(args) -> int:
    from .numring import factor_two, real_cyclotomic
    fac = factor_two(real_cyclotomic(args.p))
    _say("mu mod 2 = product of %d irreducible factor(s) of degree %d"
         % (fac.count, fac.f))
    for i, g in enumerate(fac.factors):
        _say("factor %d: %s" % (i, " ".join(str(b) for b in g.coeffs())))
    _emit_json(args, {"p": args.p, "f": fac.f, "count": fac.count,
                      "factors": [g.coeffs() for g in fac.factors]})
    return 0


def _cmd_numring_idem(args) -> int:
    from .numring import idempotents_mod2, real_cyclotomic
    idem = idempotents_mod2(real_cyclotomic(args.p))
    for i, e in enumerate(idem):
        _say("e_%d: %s" % (i, " ".join(str(b) for b in e.coeffs())))
    _emit_json(args, {"p": args.p,
                      "idempotents": [e.coeffs() for e in idem]})
    return 0


def _cmd_numring_galois(args) -> int:
    from .numring import galois, real_cyclotomic
    m = galois(real_cyclotomic(args.p), args.a)
    for i in range(m.rows):
        _say(" ".join(str(x) for x in m.row(i)))
    _emit_json(args, {"p": args.p, "a": args.a, "matrix": m.to_rows()})
    return 0


def _lattice_from_json(obj: dict, construction: str):
    from .exactalg import IntMatrix
    from .numring import RLattice, check_size, real_cyclotomic
    p, rank = _field(obj, "p", 0), _field(obj, "rank", 0)
    ring = real_cyclotomic(p)
    # before the lattice is built: a free one's beta has (rank*deg)^2 entries
    check_size(construction, ring, rank)
    if obj.get("beta") is None:
        return RLattice.free(ring, rank)
    return RLattice(ring, rank, IntMatrix.from_rows(_field(obj, "beta", 2)))


def _cmd_numring_split(args) -> int:
    from .numring import lattice_split
    obj = _load_json(args.file)
    # lattice_split returns only certificates whose verify() passed
    cert = lattice_split(_lattice_from_json(obj, "split"),
                         _field(obj, "n_gens", 2))
    _say("L0 rank %d, L1 rank %d, ambient %d, group order %d"
         % (cert.basis_L0.rows, cert.basis_L1.rows, cert.ambient_dim,
            cert.group_order))
    _emit_json(args, {
        "p": cert.p,
        "base_dim": cert.base_dim,
        "group_order": cert.group_order,
        "basis_L0": cert.basis_L0.to_rows(),
        "basis_L1": cert.basis_L1.to_rows(),
        "n_basis": cert.n_basis.to_rows(),
        "verified": True,
    })
    return _verdict(args, "split certificate verified", True, CIT_SPLIT)


def _cmd_numring_involution(args) -> int:
    from .exactalg import IntMatrix
    from .numring import Z2Module, involution_split, involution_split_auto
    obj = _load_json(args.file)
    mod = Z2Module(_lattice_from_json(obj, "involution"),
                   IntMatrix.from_rows(_field(obj, "y", 2)))
    # involution_split returns only decompositions whose verify() passed
    sp = (involution_split_auto(mod) if args.padding is None
          else involution_split(mod, args.padding))
    _say("padding %d: P+ rank %d, P- rank %d, P0 rank %d"
         % (sp.padding, sp.basis_plus.rows, sp.basis_minus.rows,
            sp.basis_zero.rows))
    _say("higman certificate: %s"
         % ("present" if sp.higman is not None else "not needed"))
    _emit_json(args, {
        "p": sp.p,
        "padding": sp.padding,
        "group_order": sp.group_order,
        "basis_plus": sp.basis_plus.to_rows(),
        "basis_minus": sp.basis_minus.to_rows(),
        "basis_zero": sp.basis_zero.to_rows(),
        "higman_phi": (sp.higman.phi.to_rows()
                       if sp.higman is not None else None),
        "verified": True,
    })
    return _verdict(args, "involution decomposition verified", True,
                    CIT_INVOL)


def _cmd_numring_resolve(args) -> int:
    from .numring import resolve_z2_module
    obj = _load_json(args.file)
    relations = _field(obj, "relations", 2) if "relations" in obj else []
    # resolve_z2_module returns only resolutions whose verify() passed
    res = resolve_z2_module(_field(obj, "p", 0), _field(obj, "rank", 0),
                            relations)
    _say(res.describe())
    _emit_json(args, {
        "p": res.p,
        "rank": res.rank,
        "a": res.a,
        "b": res.b,
        "f1": res.f1.to_rows(),
        "f2": res.f2.to_rows(),
        "f3": res.f3.to_rows(),
        "verified": True,
    })
    return _verdict(args, "resolution exact", True, CIT_RESOLVE)


# --------------------------------------------------------------- pimsner

def _cmd_pimsner_check(args) -> int:
    from .pimsner import CorrSpec, simplicity, validate
    obj = _load_json(args.file)
    # entries are checked by CorrSpec itself: integers or "inf"
    spec = CorrSpec.from_json_obj({
        "n": _field(obj, "n", 0),
        "mult": _field(obj, "mult", 2, leaf=lambda v: v),
    })
    flags = validate(spec)
    _say("flags: faithful=%s full=%s proper=%s" %
         (flags.faithful, flags.full, flags.proper))
    rep = simplicity(spec)
    code = _verdict(args, "Toeplitz algebra simple", rep.toeplitz_simple,
                    CIT_PIM_T)
    if rep.cuntz_pimsner_simple is None:
        _say("Cuntz-Pimsner criterion not applicable: correspondence "
             "is proper")
    else:
        code = max(code, _verdict(args, "Cuntz-Pimsner algebra simple",
                                  rep.cuntz_pimsner_simple, CIT_PIM_CP))
        if rep.cuntz_pimsner_witnesses:
            _say("witnesses: %s" % "; ".join(
                map(str, map(list, rep.cuntz_pimsner_witnesses))))
    # the records' fields are the payload keys; tuples dump as lists
    _emit_json(args, dict(vars(rep), spec=spec.to_json_obj(),
                          flags=vars(flags)))
    return code


# ----------------------------------------------------------------- sweep

def _cmd_sweep_agreement(args) -> int:
    from .obstruction import agreement_sweep
    mmax = args.max
    if mmax < 1 or mmax > 200:
        raise ValueError("--max must be between 1 and 200")
    checked, disagreements, implication_failures = agreement_sweep(mmax)
    _say("checked %d triples up to m,n = %d" % (checked, mmax))
    _say("tensor/divisibility disagreements: %d" % disagreements)
    _say("automorphism-implies-tensor failures: %d" % implication_failures)
    _emit_json(args, {"max": mmax, "checked": checked,
                      "disagreements": disagreements,
                      "implication_failures": implication_failures})
    if disagreements or implication_failures:
        raise AssertionError("criterion sweep found inconsistencies")
    return 0


def _cmd_sweep_det(args) -> int:
    from .fusion import global_det, tlj
    kmax = args.max_k
    if kmax < 1 or kmax > 12:
        raise ValueError("--max-k must be between 1 and 12")
    rows = []
    for k in range(1, kmax + 1):
        exact = global_det(tlj(k)).det_abs
        formula = _tlj_det_formula(k)
        match = exact == formula
        _say("k=%d |det Z| = %d formula = %d %s"
             % (k, exact, formula, "match" if match else "MISMATCH"))
        rows.append({"k": k, "det": exact, "formula": formula,
                     "match": match})
    _emit_json(args, {"max_k": kmax, "rows": rows})
    if not all(r["match"] for r in rows):
        raise AssertionError("determinant table mismatch")
    return 0


def _cmd_sweep_fibonacci(args) -> int:
    from .obstruction import fibonacci_acts
    nmax = args.max_n
    if nmax < 1 or nmax > 200000:
        raise ValueError("--max-n must be between 1 and 200000")
    accepted = 0
    for n in range(1, nmax + 1):
        # fibonacci_acts raises on any dual-route disagreement
        if fibonacci_acts(n).acts:
            accepted += 1
    _say("checked %d moduli, certificate mismatches: 0" % nmax)
    _say("accepted: %d" % accepted)
    _emit_json(args, {"max_n": nmax, "accepted": accepted,
                      "mismatches": 0})
    return 0


# ----------------------------------------------------------------- wiring

# An argument is a (flag, add_argument keywords) pair, or a (tuple of such
# pairs, add_mutually_exclusive_group keywords) pair.
_INT = {"type": int, "required": True}
_P = (("--p", _INT),)
_M_N_K = (("--m", _INT), ("--n", _INT), ("--k", _INT))
_RING_FLAGS = (((
    ("--tlj", {"type": int, "metavar": "K",
               "help": "level-K fusion rules on pi_0..pi_K"}),
    ("--tlj-even", {"type": int, "metavar": "K",
                    "help": "even-label subring at level K"}),
    ("--pointed", {"type": int, "metavar": "M",
                   "help": "group ring of Z/M with basis Z/M"}),
), {"required": True}),)
_COCYCLE_SOURCE = (
    ("--file", {"metavar": "PATH",
                "help": "JSON cocycle table produced by 'cocycle make'"}),
    ("--m", {"type": int, "help": "group order"}),
    ("--k", {"type": int, "help": "standard class representative"}),
)

# group -> (help, {leaf -> (handler, help, arguments)}), in help order
_COMMANDS = {
    "fusion": ("fusion rings and invariants", {
        "build": (_cmd_fusion_build, "construct a fusion ring", _RING_FLAGS),
        "det": (_cmd_fusion_det, "determinant invariant |det Z|",
                _RING_FLAGS),
        "cheb": (_cmd_fusion_cheb, "Chebyshev structure check",
                 (("--level", _INT),)),
        "parity": (_cmd_fusion_parity, "even-part index-parity exactness",
                   (("--half-level", _INT),)),
        "dk": (_cmd_fusion_dk, "folded-label module", (("--level", _INT),)),
        "iso": (_cmd_fusion_iso, "group-ring shape at level p - 2", _P),
    }),
    "cocycle": ("3-cocycles on cyclic groups", {
        "make": (_cmd_cocycle_make, "build a standard cocycle",
                 (("--m", _INT), ("--k", _INT))),
        "check": (_cmd_cocycle_check, "verify the cocycle identity",
                  _COCYCLE_SOURCE),
        "class": (_cmd_cocycle_class, "cohomology class of a table",
                  _COCYCLE_SOURCE),
        "embed": (_cmd_cocycle_embed, "restriction identity into Z/(m*n)",
                  _M_N_K),
        "crt": (_cmd_cocycle_crt, "coprime splitting of classes", _M_N_K),
    }),
    "obstruction": ("existence criteria for twisted actions", {
        "cuntz": (_cmd_obstruction_cuntz,
                  "stabilized action on the Cuntz algebra O_{n+1}", _M_N_K),
        "tensor": (_cmd_obstruction_tensor, "tensor-stabilized criterion",
                   _M_N_K),
        "intro": (_cmd_obstruction_intro, "divisibility formulation",
                  _M_N_K),
        "fibonacci": (_cmd_obstruction_fibonacci,
                      "x^2 = x + 1 solvability mod n, dual-certified",
                      (("--n", _INT),)),
        "ev1": (_cmd_obstruction_ev1, "image of evaluation at the unit",
                (("--m", _INT), ("--n", _INT))),
    }),
    "numring": ("real cyclotomic rings and module certificates", {
        "minpoly": (_cmd_numring_minpoly,
                    "minimal polynomial of 2cos(2pi/p)", _P),
        "factor2": (_cmd_numring_factor2, "factor mu modulo 2", _P),
        "idem": (_cmd_numring_idem, "CRT idempotents of R/2R", _P),
        "galois": (_cmd_numring_galois,
                   "matrix of the automorphism beta -> 2cos(2pi a/p)",
                   _P + (("--a", _INT),)),
        "split": (_cmd_numring_split,
                  "certified splitting for a sublattice pair",
                  (("--file", {"required": True,
                               "help": "JSON {p, rank, beta?, n_gens}"}),)),
        "involution": (
            _cmd_numring_involution,
            "eigenpart decomposition of a module with involution",
            (("--file", {"required": True,
                         "help": "JSON {p, rank, beta?, y}"}),
             ("--padding", {"type": int, "help": "regular summands to add "
                            "(default: smallest that works)"}))),
        "resolve": (_cmd_numring_resolve,
                    "four-term resolution of a presented module",
                    (("--file", {"required": True,
                                 "help": "JSON {p, rank, relations}"}),)),
    }),
    "pimsner": ("Pimsner algebra simplicity", {
        "check": (_cmd_pimsner_check,
                  "Toeplitz and Cuntz-Pimsner verdicts for a correspondence",
                  (("--file", {"required": True, "help": "JSON {n, mult} "
                               "with entries >= 0 or 'inf'"}),)),
    }),
    "sweep": ("consistency sweeps", {
        "agreement": (_cmd_sweep_agreement,
                      "tensor criterion vs divisibility form",
                      (("--max", {"type": int, "default": 48}),)),
        "det": (_cmd_sweep_det, "determinant table vs closed form",
                (("--max-k", {"type": int, "default": 8}),)),
        "fibonacci": (_cmd_sweep_fibonacci, "dual fibonacci certificates",
                      (("--max-n", {"type": int, "default": 10000}),)),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclotwist",
        description="exact fusion-ring, cocycle, obstruction, number-ring "
                    "and Pimsner-simplicity computations",
    )
    top.add_argument("--seed", type=int, default=0,
                     help="seed echoed into JSON output (default 0); "
                          "all computations here are deterministic")
    sub = top.add_subparsers(dest="command", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        gsub = sub.add_parser(group, help=group_help).add_subparsers(
            dest="subcommand", required=True)
        for name, (fn, help_text, arguments) in leaves.items():
            p = gsub.add_parser(name, help=help_text)
            p.set_defaults(func=fn)
            p.add_argument("--json", dest="json_path", metavar="PATH",
                           help="write a machine-readable result object")
            p.add_argument("--assert", dest="do_assert", action="store_true",
                           help="exit 1 when a computed boolean verdict "
                                "is false")
            for flag, kw in arguments:
                if isinstance(flag, str):
                    p.add_argument(flag, **kw)
                else:
                    g = p.add_mutually_exclusive_group(**kw)
                    for f, k in flag:
                        g.add_argument(f, **k)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AssertionError, ArithmeticError) as exc:
        # cocycle.NotClassified is an ArithmeticError
        sys.stderr.write("invariant violation: %s\n" % exc)
        return 3
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        # RuntimeError covers the declared decline paths of the lattice
        # constructions: input outside the certified scope; malformed
        # JSON is a ValueError
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
