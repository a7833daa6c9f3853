"""Spans around cyclotwist's public functions, installed from outside.

``Tracer.install`` replaces every public function in every module
namespace that holds it (``cli.cohomology_class``, ``cocycle.
cohomology_class`` and ``numring.smith_normal_form`` all get the same
wrapper) and the public methods of the public classes, so a nested
call becomes a child span of its caller.  The package source is not
touched.  Spans stay in memory; ``write`` stores them when the run
ends, and ``summary`` and ``layer_metrics`` reduce them to calls and
self time per name.

Counts that the program does not report are computed here from the
arguments and results of the traced calls, outside the span's
interval, and are labelled "computed" in ``COMPUTED``.  That work is
recorded as a "perfbench.hook" child span of the caller, so it stays
out of every reported self time but counts in the tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "cocycle", "obstruction", "pimsner", "numring", "fusion",
          "exactalg")

# Accessors called once per matrix row or entry in inner loops: a span
# each would cost more than the work and hide the layers that matter.
UNTRACED = {"IntMatrix.at", "IntMatrix.row", "Cocycle3.value",
            "CorrSpec.row_mass", "PolyF2.coeffs", "PolyF2.degree",
            "PolyF2.is_zero", "PolyZ.degree", "PolyZ.is_zero"}

# span names whose calls and self time are reported
REPORTED = (
    "cli.main",
    "cocycle.Cocycle3.from_json_obj", "cocycle.is_cocycle",
    "cocycle.cohomology_class", "cocycle.coboundary", "cocycle.omega",
    "exactalg.smith_normal_form", "exactalg.det_exact",
    "exactalg.charpoly_exact", "exactalg.IntMatrix.apply",
    "exactalg.IntMatrix.matmul",
    "numring.lattice_split", "numring.SplitCertificate.verify",
    "numring.involution_split", "numring.InvolutionSplit.verify",
    "numring.resolve_z2_module", "numring.Resolution.verify",
    "numring.factor_two", "numring.real_cyclotomic",
    "obstruction.fibonacci_acts", "obstruction.exists_tensor_action",
    "obstruction.intro_formulation",
    "pimsner.invariant_ideals", "pimsner.toeplitz_simple",
    "pimsner.cuntz_pimsner_simple",
    "fusion.global_det", "fusion.chebyshev_structure_check", "fusion.tlj",
)

# computed counts: name -> (unit, how it is computed)
COMPUTED = {
    "cocycle.is_cocycle.quadruples":
        ("count", "computed: m^4 when the identity holds, else the "
                  "position of the witness quadruple plus one"),
    "cocycle.snf_per_class":
        ("ratio", "computed: SNF calls inside cohomology_class / its calls"),
    "exactalg.smith_normal_form.cells":
        ("count", "computed: sum of rows x cols of the input"),
    "exactalg.smith_normal_form.max_dim":
        ("count", "computed: largest rows or cols of an input"),
    "exactalg.smith_normal_form.max_entry_bits":
        ("bits", "computed: largest entry bit length in returned S, U, V"),
    "numring.involution_split.snf_calls":
        ("count", "computed: SNF calls inside involution_split / its calls"),
    "numring.verify_share":
        ("ratio", "computed: top-level verify() time / (build + verify) "
                  "time of lattice_split, involution_split and "
                  "resolve_z2_module"),
    "obstruction.fibonacci_acts.residues_scanned":
        ("count", "computed: witness + 1, or n when there is none"),
    "pimsner.invariant_ideals.subsets_scanned":
        ("count", "computed: 2^n - 2 per call"),
    "pimsner.witness_ratio":
        ("ratio", "computed: witnesses kept by the calling verdict / "
                  "subsets scanned"),
}

# the builds and top-level verify() calls behind numring.verify_share
_VERIFY_SHARE = {
    "numring.lattice_split": "build_s",
    "numring.involution_split": "build_s",
    "numring.resolve_z2_module": "build_s",
    "numring.SplitCertificate.verify": "verify_s",
    "numring.InvolutionSplit.verify": "verify_s",
    "numring.Resolution.verify": "verify_s",
}
_BUILDS = [n for n, kind in _VERIFY_SHARE.items() if kind == "build_s"]


def _entry_bits(mat) -> int:
    e = mat.entries
    return max(max(e), -min(e)).bit_length() if e else 0


class Tracer:
    def __init__(self):
        self.spans = []     # (name, job, start, end, parent index)
        self.stack = []     # indices into spans of the open calls
        self.active = Counter()  # open calls per name
        self.job = None
        self.totals = Counter()  # computed counts
        self.max_dim = 0
        self.max_bits = 0
        self._wrapped = {}

    # ------------------------------------------------------------ install

    def _wrap(self, name, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        spans, stack, active = self.spans, self.stack, self.active
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name in _VERIFY_SHARE:
            after = functools.partial(self._build_or_verify,
                                      _VERIFY_SHARE[name])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, self.job, start, end, parent)
            if after is not None:
                after(args, result, end - start)
                # a child span of the caller, so that the counting is
                # not charged to the caller's self time
                spans.append(("perfbench.hook", self.job, end, clock(),
                              stack[-1] if stack else None))
            return result

        self._wrapped[fn] = traced
        return traced

    def install(self):
        mods = {m: importlib.import_module("cyclotwist." + m) for m in LAYERS}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and \
                        obj.__module__.startswith("cyclotwist."):
                    home = obj.__module__.split(".")[-1]
                    setattr(mod, attr,
                            self._wrap("%s.%s" % (home, obj.__name__), obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            public = attr == "__matmul__" or not attr.startswith("_")
            label = "%s.%s" % (cls.__name__, attr.strip("_"))
            if not public or label in UNTRACED:
                continue
            name = "%s.%s" % (short, label)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    # ---------------------------------------------------- computed counts

    def _after_cocycle_is_cocycle(self, args, result, dur):
        m = args[0].m
        if result.ok:
            self.totals["cocycle.is_cocycle.quadruples"] += m ** 4
        else:
            f, g, h, k = result.witness
            self.totals["cocycle.is_cocycle.quadruples"] += \
                ((f * m + g) * m + h) * m + k + 1

    def _after_exactalg_smith_normal_form(self, args, result, dur):
        a = args[0]
        self.totals["exactalg.smith_normal_form.cells"] += a.rows * a.cols
        self.max_dim = max(self.max_dim, a.rows, a.cols)
        self.max_bits = max(self.max_bits, _entry_bits(result.S),
                            _entry_bits(result.U), _entry_bits(result.V))
        if self.active["cocycle.cohomology_class"]:
            self.totals["snf_in_class"] += 1
        if self.active["numring.involution_split"]:
            self.totals["snf_in_involution"] += 1

    def _after_obstruction_fibonacci_acts(self, args, result, dur):
        scanned = result.n if result.witness is None else result.witness + 1
        self.totals["obstruction.fibonacci_acts.residues_scanned"] += scanned

    def _after_pimsner_invariant_ideals(self, args, result, dur):
        self.totals["pimsner.invariant_ideals.subsets_scanned"] += \
            2 ** args[0].n - 2
        # the Cuntz-Pimsner verdict keeps the invariant subsets, the
        # Toeplitz verdict the forward-closed ones
        kept = result.invariant if self.active[
            "pimsner.cuntz_pimsner_simple"] else result.forward_closed
        self.totals["pimsner_witnesses"] += len(kept)

    def _build_or_verify(self, kind, args, result, dur):
        # a verify() inside a build is part of that build
        if not any(self.active[b] for b in _BUILDS):
            self.totals[kind] += dur

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Calls and self time per reported name, and the raw counts."""
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, _job, start, end, parent in self.spans:
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s = Counter()
        for (name, _job, start, end, _parent), c in zip(self.spans, child):
            self_s[name] += end - start - c
        return {
            "calls": {n: calls[n] for n in REPORTED},
            "self_s": {n: self_s[n] for n in REPORTED},
            "totals": dict(self.totals),
            "max_dim": self.max_dim,
            "max_bits": self.max_bits,
        }

    def write(self, path):
        """Store every span as one JSON line: id, parent, name, job,
        start and end (perf_counter seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, job, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, job, start, end]))
                fh.write("\n")


def layer_metrics(summaries) -> dict:
    """{metric: (value, unit)} per traced pass: the mean over the
    summaries of one run's traced workers, each of which ran the cycle
    once."""
    calls, self_s, t = Counter(), Counter(), Counter()
    for sm in summaries:
        calls.update(sm["calls"])
        self_s.update(sm["self_s"])
        t.update(sm["totals"])
    for counter in (calls, self_s, t):
        for name in counter:
            counter[name] /= len(summaries)
    out = {}
    for name in REPORTED:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cocycle.is_cocycle.quadruples": t["cocycle.is_cocycle.quadruples"],
        "cocycle.snf_per_class":
            ratio(t["snf_in_class"], calls["cocycle.cohomology_class"]),
        "exactalg.smith_normal_form.cells":
            t["exactalg.smith_normal_form.cells"],
        "exactalg.smith_normal_form.max_dim":
            max(sm["max_dim"] for sm in summaries),
        "exactalg.smith_normal_form.max_entry_bits":
            max(sm["max_bits"] for sm in summaries),
        "numring.involution_split.snf_calls":
            ratio(t["snf_in_involution"], calls["numring.involution_split"]),
        "numring.verify_share":
            ratio(t["verify_s"], t["build_s"] + t["verify_s"]),
        "obstruction.fibonacci_acts.residues_scanned":
            t["obstruction.fibonacci_acts.residues_scanned"],
        "pimsner.invariant_ideals.subsets_scanned":
            t["pimsner.invariant_ideals.subsets_scanned"],
        "pimsner.witness_ratio":
            ratio(t["pimsner_witnesses"],
                  t["pimsner.invariant_ideals.subsets_scanned"]),
    }
    for name, value in values.items():
        out[name] = (value, COMPUTED[name][0])
    return out
