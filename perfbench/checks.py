"""Check one job's exit code and output against its expected answer.

``check`` returns None when the output is right and a short reason when
it is not.  ``wrong`` returns a deliberately wrong copy of an expected
answer; the worker runs every check a second time against it and treats
a pass as a broken checker, so a check that cannot fail is caught.
"""

from __future__ import annotations

import json
import re

from . import oracles


def _flag(text, label):
    """The true/false verdict printed after ``label:``, or None."""
    m = re.search(r"^%s: (true|false)\b" % re.escape(label), text, re.M)
    return None if m is None else m.group(1) == "true"


def _ints(pattern, text):
    m = re.search(pattern, text, re.M)
    return None if m is None else [int(g) for g in m.groups()]


def _verified(out_path):
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            return json.load(fh).get("verified") is True
    except (OSError, ValueError):
        return False


def _cocycle_class(e, out, files):
    got = _ints(r"^class: (\d+) \(mod (\d+)\)", out)
    if e["rc"] != 0:
        return "a class line for a non-cocycle" if got else None
    if got != [e["k"], e["m"]]:
        return "class %r, want k=%d mod %d" % (got, e["k"], e["m"])
    return None


def _cocycle_check(e, out, files):
    ok = _flag(out, "cocycle identity")
    if ok is not e["ok"]:
        return "identity verdict %r, want %r" % (ok, e["ok"])
    if not ok:
        quad = _ints(r"^witness quadruple: \((\d+), (\d+), (\d+), (\d+)\)",
                     out)
        table = files["table"]
        if quad is None or not oracles.cocycle_defect(
                table["m"], table["values"], table["denominator"], *quad):
            return "witness %r does not violate the identity" % (quad,)
    return None


def _verdict(label):
    def check(e, out, files):
        ok = _flag(out, label)
        return None if ok is e["ok"] else "%s: %r, want %r" % (label, ok,
                                                               e["ok"])
    return check


def _split(e, out, files):
    got = _ints(r"^L0 rank (\d+), L1 rank (\d+), ambient (\d+), "
                r"group order (\d+)$", out)
    want = [e["L0"], e["L1"], e["ambient"], e["order"]]
    if got != want:
        return "ranks %r, want %r" % (got, want)
    if _flag(out, "split certificate verified") is not True:
        return "no verified split verdict"
    return None


def _involution(e, out, files):
    got = _ints(r"^padding (\d+): P\+ rank (\d+), P- rank (\d+), "
                r"P0 rank (\d+)$", out)
    want = [e["padding"], e["plus"], e["minus"], e["zero"]]
    if got != want:
        return "ranks %r, want %r" % (got, want)
    hig = re.search(r"^higman certificate: (present|not needed)$", out, re.M)
    if hig is None or (hig.group(1) == "present") is not e["higman"]:
        return "higman line, want present=%r" % e["higman"]
    if _flag(out, "involution decomposition verified") is not True:
        return "no verified involution verdict"
    return None


def _resolve(e, out, files):
    got = _ints(r"^0 -> R_\+\^0 -> R_\+\^(\d+) -> R_\+\^(\d+) \(\+\) "
                r"R\[Z/2Z\]\^(\d+) -> R\[Z/2Z\]\^(\d+) -> M -> 0$", out)
    want = [e["b"], e["a"], e["b"], e["rank"]]
    if got != want:
        return "resolution %r, want %r" % (got, want)
    if _flag(out, "resolution exact") is not True:
        return "no exact resolution verdict"
    return None


def _sweep_fibonacci(e, out, files):
    if _ints(r"^checked (\d+) moduli, certificate mismatches: 0$",
             out) != [e["n"]]:
        return "sweep header"
    got = _ints(r"^accepted: (\d+)$", out)
    return None if got == [e["accepted"]] else \
        "accepted %r, want %d" % (got, e["accepted"])


def _sweep_agreement(e, out, files):
    got = _ints(r"^checked (\d+) triples up to m,n = (\d+)$", out)
    if got != [e["checked"], e["max"]]:
        return "checked %r, want %r" % (got, [e["checked"], e["max"]])
    if _ints(r"^tensor/divisibility disagreements: (\d+)$", out) != [0] or \
            _ints(r"^automorphism-implies-tensor failures: (\d+)$",
                  out) != [0]:
        return "sweep reports inconsistencies"
    return None


def _fibonacci(e, out, files):
    ok = _flag(out, "fibonacci action")
    if ok is not e["ok"]:
        return "verdict %r, want %r" % (ok, e["ok"])
    w = _ints(r"^witness: (\d+)$", out)
    n = e["n"]
    if ok and (w is None or w[0] >= n or (w[0] * w[0] - w[0] - 1) % n):
        return "witness %r is not a root mod %d" % (w, n)
    if not ok and w is not None:
        return "witness printed for a false verdict"
    return None


def _cuntz(e, out, files):
    aut = _flag(out, "automorphism action exists")
    if aut is not e["aut"]:
        return "automorphism verdict %r, want %r" % (aut, e["aut"])
    return _verdict("action on the Cuntz algebra (stabilized)")(e, out,
                                                                 files)


def _pimsner(e, out, files):
    flags = re.search(r"^flags: faithful=(\w+) full=(\w+) proper=(\w+)$",
                      out, re.M)
    want = [str(e[k]) for k in ("faithful", "full", "proper")]
    if flags is None or list(flags.groups()) != want:
        return "flags %r, want %r" % (flags and flags.groups(), want)
    if _flag(out, "Toeplitz algebra simple") is not e["toeplitz"]:
        return "Toeplitz verdict, want %r" % e["toeplitz"]
    if e["cp"] is None:
        if "Cuntz-Pimsner criterion not applicable" not in out:
            return "missing not-applicable line for a proper spec"
        return None
    if _flag(out, "Cuntz-Pimsner algebra simple") is not e["cp"]:
        return "Cuntz-Pimsner verdict, want %r" % e["cp"]
    line = re.search(r"^witnesses: (.*)$", out, re.M)
    listed = [] if line is None else \
        [tuple(json.loads(w)) for w in line.group(1).split("; ")]
    if e["count"] is not None:
        if len(listed) != e["count"]:
            return "%d witnesses, want %d" % (len(listed), e["count"])
        return None
    # witness list of unknown length: every minimal closure is on it
    # and every listed subset is invariant
    if not {tuple(w) for w in e["minimal"]} <= set(listed):
        return "a minimal invariant subset is missing"
    mult = files["spec"]["mult"]
    if not all(oracles.pimsner_invariant(mult, w) for w in listed):
        return "a listed witness is not invariant"
    return None


def _fusion_det(e, out, files):
    if _ints(r"^\|det Z\| = (\d+)  ", out) != [e["det"]]:
        return "det, want %d" % e["det"]
    return None if _ints(r"^radical = (\d+)$", out) == [e["radical"]] \
        else "radical, want %d" % e["radical"]


def _fusion_cheb(e, out, files):
    lines = ("powers match U_i: True", "U_(k+1)(X/2) annihilates: True",
             "charpoly equals U_(k+1)(X/2): True")
    if not all(ln in out.splitlines() for ln in lines):
        return "a Chebyshev structure line is not True"
    return _verdict("chebyshev structure")(e, out, files)


def _factor2(e, out, files):
    got = _ints(r"^mu mod 2 = product of (\d+) irreducible factor\(s\) "
                r"of degree (\d+)$", out)
    if got != [e["count"], e["f"]]:
        return "factor count/degree %r, want %r" % (got, [e["count"],
                                                          e["f"]])
    prod = 1
    for bits in re.findall(r"^factor \d+: ([01 ]+)$", out, re.M):
        coeffs = [int(b) for b in bits.split()]
        if len(coeffs) != e["f"] + 1:
            return "factor of wrong degree"
        prod = oracles.f2_mul(prod, sum(c << i for i, c in
                                        enumerate(coeffs)))
    return None if prod == e["mu2"] else "factors do not multiply to mu"


def _minpoly(e, out, files):
    m = re.search(r"^mu \(lowest coefficient first\): ([-\d ]+)$", out,
                  re.M)
    got = None if m is None else [int(c) for c in m.group(1).split()]
    if got != e["mu"]:
        return "mu %r, want %r" % (got, e["mu"])
    return None if _ints(r"^degree: (\d+)$", out) == [len(e["mu"]) - 1] \
        else "degree"


CHECKS = {
    "cocycle-class": _cocycle_class,
    "cocycle-check": _cocycle_check,
    "cocycle-crt": _verdict("coprime split classes"),
    "cocycle-embed": _verdict("embedding identity"),
    "numring-split": _split,
    "numring-involution": _involution,
    "numring-resolve": _resolve,
    "sweep-fibonacci": _sweep_fibonacci,
    "sweep-agreement": _sweep_agreement,
    "obstruction-fibonacci": _fibonacci,
    "obstruction-cuntz": _cuntz,
    "obstruction-tensor": _verdict("tensor-stabilized action"),
    "obstruction-intro": _verdict("divisibility-form action"),
    "pimsner-check": _pimsner,
    "fusion-det": _fusion_det,
    "fusion-cheb": _fusion_cheb,
    "numring-factor2": _factor2,
    "numring-minpoly": _minpoly,
}

# the field each kind's deliberately wrong answer changes
_WRONG_FIELD = {
    "cocycle-class": "k", "numring-split": "L0",
    "numring-involution": "plus", "numring-resolve": "a",
    "sweep-fibonacci": "accepted", "sweep-agreement": "checked",
    "pimsner-check": "toeplitz", "fusion-det": "det",
    "numring-factor2": "count", "numring-minpoly": "mu",
}


def check(job, rc, out, files, out_path):
    """None if exit code and output match the job's answer, else why."""
    e = job["expect"]
    if rc != e["rc"]:
        return "exit %r, want %d" % (rc, e["rc"])
    if job["argv"][-1:] == ["{out}"] and rc == 0 and not _verified(out_path):
        return '--json payload lacks "verified": true'
    return CHECKS[job["kind"]](e, out, files)


def wrong(job):
    """A copy of the job whose expected answer is deliberately wrong."""
    e = dict(job["expect"])
    if e["rc"] != 0:
        e["rc"] = 0  # a failing job must not pass as a success
    else:
        key = _WRONG_FIELD.get(job["kind"], "ok")
        v = e[key]
        if isinstance(v, bool):
            e[key] = not v
        elif isinstance(v, list):
            e[key] = v + [1]
        else:
            e[key] = v + 1
    return dict(job, expect=e)
