"""Golden CLI transcript: every subcommand on small inputs, byte for byte.

``tests/golden/cli_transcript.json`` records, for each case, the argv,
the JSON input files, the exit code, stdout, stderr and the raw text of
the ``--json`` payload.  The test replays every case and compares all of
it, so a refactor of the library cannot change a verdict, a certificate
or a CLI byte without failing here.  That includes the parser's own
bytes: help at every level, missing required arguments and unknown
commands.  Help text is wrapped to the terminal width, so every case
runs with COLUMNS=80 (the width argparse assumes when COLUMNS is unset).

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from cyclotwist.cli import main

TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.json"


def replay(argv, files, workdir):
    """Run one case in-process; placeholders {name} in argv become the
    paths of the written input files and {out} the --json path."""
    paths = {}
    for name, obj in files.items():
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        paths[name] = path
    out_path = os.path.join(workdir, "out.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    run_argv = [a.format(out=out_path, **paths) if a.startswith("{") else a
                for a in argv]
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(run_argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    payload = None
    if os.path.exists(out_path):
        with open(out_path, "r", encoding="utf-8") as fh:
            payload = fh.read()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "json": payload}


def test_cli_matches_golden_transcript(tmp_path):
    cases = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert len(cases) > 50
    mismatches = []
    for case in cases:
        got = replay(case["argv"], case["files"], str(tmp_path))
        for key in ("rc", "stdout", "stderr", "json"):
            if got[key] != case[key]:
                mismatches.append("%s: %s differs:\n  want %r\n  got  %r"
                                  % (" ".join(case["argv"]), key, case[key],
                                     got[key]))
    assert not mismatches, "\n".join(mismatches)


# ------------------------------------------------------------ generation

def _shear_pair(n, shears):
    """A unimodular T and its inverse from row shears (i, j, c)."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    tinv = [row[:] for row in t]
    for i, j, c in shears:
        for k in range(n):
            t[i][k] += c * t[j][k]
        for k in range(n):
            tinv[k][j] -= c * tinv[k][i]
    return t, tinv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _beta_rows(p, rank):
    """Right multiplication by 2cos(2pi/p) on R^rank, power basis."""
    from cyclotwist.numring import RLattice, real_cyclotomic
    return RLattice.free(real_cyclotomic(p), rank).beta.to_rows()


def _conjugated_split(p, rank, gens, shears):
    beta = _beta_rows(p, rank)
    t, tinv = _shear_pair(len(beta), shears)
    return {"p": p, "rank": rank, "beta": _matmul(_matmul(t, beta), tinv),
            "n_gens": _matmul(gens, tinv)}


def _cocycle_file(m, k, den, beta_num):
    """omega_m^k + d(beta) with beta(i, j) = beta_num(i, j) / den."""
    from fractions import Fraction

    from cyclotwist.cocycle import coboundary, omega
    beta = [[Fraction(beta_num(i, j), den) for j in range(m)]
            for i in range(m)]
    return omega(m, k).add(coboundary(m, beta)).to_json_obj()


def _cases():
    """(argv, files) for every case of the transcript."""
    J = ["--json", "{out}"]
    cases = []

    def add(argv, **files):
        cases.append((argv, files))

    # fusion
    for flags in (["--tlj", "2"], ["--tlj-even", "4"], ["--pointed", "3"]):
        add(["fusion", "build"] + flags + J)
    for flags in (["--tlj", "0"], ["--tlj", "3"], ["--tlj-even", "3"],
                  ["--tlj-even", "4"], ["--pointed", "4"]):
        add(["fusion", "det"] + flags + J)
    add(["fusion", "cheb", "--level", "0"] + J)
    add(["fusion", "cheb", "--level", "4", "--assert"] + J)
    add(["fusion", "parity", "--half-level", "2"] + J)
    add(["fusion", "dk", "--level", "3"] + J)
    add(["fusion", "dk", "--level", "4"] + J)
    add(["fusion", "iso", "--p", "5"] + J)
    add(["fusion", "iso", "--p", "7", "--assert"])
    add(["fusion", "iso", "--p", "9"])

    # cocycle
    add(["cocycle", "make", "--m", "4", "--k", "3"] + J)
    add(["cocycle", "check", "--m", "5", "--k", "2", "--assert"])
    add(["cocycle", "check"])
    for m, k in ((1, 0), (2, 1), (3, 2), (4, 3), (5, 1), (6, 5)):
        add(["cocycle", "class", "--m", str(m), "--k", str(k)] + J)
    for m, k, den in ((4, 1, 8), (5, 3, 15), (6, 4, 12), (6, 0, 18)):
        table = _cocycle_file(m, k, den,
                              lambda i, j: (3 * i + 5 * j * j + i * j) % den)
        add(["cocycle", "check", "--file", "{table}"], table=table)
        add(["cocycle", "class", "--file", "{table}"] + J, table=table)
    bad = {"m": 2, "denominator": 3, "values": [0] * 7 + [1]}
    add(["cocycle", "check", "--file", "{table}"], table=bad)
    add(["cocycle", "class", "--file", "{table}"], table=bad)
    add(["cocycle", "embed", "--m", "3", "--n", "4", "--k", "2", "--assert"])
    add(["cocycle", "crt", "--m", "3", "--n", "4", "--k", "5", "--assert"])
    add(["cocycle", "crt", "--m", "4", "--n", "6", "--k", "1"])
    add(["cocycle", "check", "--m", "4", "--k", "3"] + J)
    add(["cocycle", "check", "--file", "{table}"] + J, table=bad)
    add(["cocycle", "embed", "--m", "2", "--n", "3", "--k", "1"] + J)
    add(["cocycle", "crt", "--m", "5", "--n", "3", "--k", "7"] + J)

    # obstruction
    for m, n, k in ((2, 2, 1), (2, 8, 1), (12, 8, 4), (9, 3, 3)):
        add(["obstruction", "cuntz", "--m", str(m), "--n", str(n),
             "--k", str(k), "--assert"] + J)
    for sub in ("tensor", "intro"):
        add(["obstruction", sub, "--m", "8", "--n", "4", "--k", "2"])
        add(["obstruction", sub, "--m", "2", "--n", "4", "--k", "1"])
        add(["obstruction", sub, "--m", "12", "--n", "8", "--k", "4"] + J)
        add(["obstruction", sub, "--m", "8", "--n", "4", "--k", "2",
             "--assert"] + J)
    add(["obstruction", "cuntz", "--m", "0", "--n", "2", "--k", "1"])
    for n in (1, 11, 12, 55, 25):
        add(["obstruction", "fibonacci", "--n", str(n), "--assert"] + J)
    add(["obstruction", "ev1", "--m", "6", "--n", "4"] + J)

    # numring
    for p in (3, 5, 7):
        add(["numring", "minpoly", "--p", str(p)] + J)
        add(["numring", "factor2", "--p", str(p)] + J)
        add(["numring", "idem", "--p", str(p)] + J)
    add(["numring", "minpoly", "--p", "9"])
    add(["numring", "galois", "--p", "7", "--a", "2"] + J)
    add(["numring", "galois", "--p", "7", "--a", "0"])
    split = ["numring", "split", "--file", "{lattice}"] + J
    add(split, lattice={"p": 3, "rank": 2, "n_gens": [[2, 0], [1, 1]]})
    add(split, lattice={"p": 5, "rank": 1, "n_gens": [[2, 0]]})
    add(split, lattice={"p": 5, "rank": 2, "n_gens": [[2, 0, 0, 0],
                                                      [0, 0, 1, 0]]})
    add(split, lattice=_conjugated_split(
        5, 2, [[2, 0, 0, 0], [1, 1, 0, 1]],
        [(0, 2, 1), (3, 1, -1), (1, 0, 1), (2, 3, 1)]))
    add(split, lattice={"p": 7, "rank": 1, "n_gens": [[2, 0, 0]]})
    add(split, lattice=_conjugated_split(
        7, 2, [[2, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 1]],
        [(0, 3, 1), (4, 1, -1), (2, 5, 1), (5, 0, -1)]))
    add(split, lattice={"p": 5, "rank": 1, "n_gens": [[1, 0]]})
    add(split, lattice={"p": 5, "rank": 1, "n_gens": [[4, 0]]})
    invol = ["numring", "involution", "--file", "{module}"] + J
    swap5 = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    add(invol, module={"p": 5, "rank": 2, "y": swap5})
    add(invol + ["--padding", "0"], module={"p": 5, "rank": 2, "y": swap5})
    add(invol, module={"p": 5, "rank": 1, "y": [[1, 0], [0, 1]]})
    add(invol, module={"p": 5, "rank": 1, "y": [[-1, 0], [0, -1]]})
    add(invol, module={"p": 3, "rank": 2, "y": [[1, 2], [0, -1]]})
    add(invol, module={"p": 7, "rank": 2,
                       "y": [[1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 2, 0],
                             [0, 0, 1, 0, 0, 2], [0, 0, 0, -1, 0, 0],
                             [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, -1]]})
    add(invol, module={"p": 5, "rank": 1, "y": [[0, 1], [1, 0]]})
    resolve = ["numring", "resolve", "--file", "{module}"] + J
    add(resolve, module={"p": 5, "rank": 1,
                         "relations": [[1, 0, 1, 0], [0, 1, 0, 1]]})
    add(resolve, module={"p": 3, "rank": 1, "relations": [[2, 0], [0, 2]]})
    add(resolve, module={"p": 5, "rank": 2, "relations": []})
    add(resolve, module={"p": 5, "rank": 1,
                         "relations": [[2, 0, 0, 0], [0, 2, 0, 0],
                                       [0, 0, 2, 0], [0, 0, 0, 2],
                                       [-1, 0, 1, 0], [0, -1, 0, 1]]})
    add(resolve, module={"p": 7, "rank": 1,
                         "relations": [[1, 0, 0, 1, 0, 0],
                                       [0, 1, 0, 0, 1, 0],
                                       [1, 1, 1, 1, 1, 1]]})
    add(resolve, module={"p": 5, "rank": 1, "relations": [[1, 0, 0, 0]]})

    # pimsner
    pim = ["pimsner", "check", "--file", "{corr}"] + J
    for n, mult in ((1, [["inf"]]), (1, [[2]]), (2, [["inf", 1], [0, 1]]),
                    (3, [[0, 1, 0], [0, 0, 1], ["inf", 0, 0]]),
                    (3, [[0, "inf", 0], [0, 0, "inf"], ["inf", 0, 0]]),
                    (4, [[1, 0, 0, "inf"], [0, 2, 0, 0], [0, 0, "inf", 0],
                         [1, 0, 1, 1]]),
                    (2, [[0, 0], [1, 1]])):
        add(pim, corr={"n": n, "mult": mult})

    # sweeps
    add(["sweep", "agreement", "--max", "6"] + J)
    add(["sweep", "agreement", "--max", "0"])
    add(["sweep", "det", "--max-k", "3"] + J)
    add(["sweep", "fibonacci", "--max-n", "50"] + J)

    # the parser: help at each level, each leaf's missing required
    # arguments (cocycle check/class and the sweeps have none), unknown
    # commands
    add(["-h"])
    for group, leaf in (("fusion", "det"), ("cocycle", "class"),
                        ("obstruction", "cuntz"), ("numring", "involution"),
                        ("pimsner", "check"), ("sweep", "fibonacci")):
        add([group, "-h"])
        add([group, leaf, "-h"])
    for group, leaves in (
            ("fusion", ("build", "cheb", "parity", "dk", "iso")),
            ("cocycle", ("make", "check", "embed", "crt")),
            ("obstruction", ("tensor", "intro", "fibonacci", "ev1")),
            ("numring", ("minpoly", "factor2", "idem", "galois", "split",
                         "resolve")),
            ("sweep", ("agreement", "det"))):
        for leaf in leaves:
            add([group, leaf, "-h"])
    for group, leaves in (
            ("fusion", ("build", "det", "cheb", "parity", "dk", "iso")),
            ("cocycle", ("make", "embed", "crt")),
            ("obstruction", ("cuntz", "tensor", "intro", "fibonacci",
                             "ev1")),
            ("numring", ("minpoly", "factor2", "idem", "galois", "split",
                         "involution", "resolve")),
            ("pimsner", ("check",))):
        for leaf in leaves:
            add([group, leaf])
    add(["frobnicate"])
    add(["numring", "frobnicate"])
    return cases


def _regenerate():
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        for argv, files in _cases():
            rec = {"argv": argv, "files": files}
            rec.update(replay(argv, files, workdir))
            out.append(rec)
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(out), TRANSCRIPT))


if __name__ == "__main__":
    _regenerate()
