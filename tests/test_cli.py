import argparse
import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cyclotwist import cli
from cyclotwist.cli import _build_parser, main
from cyclotwist.numring import _MAX_DIM

# exit convention: 0 completed, 1 false verdict under --assert,
# 2 usage/scope error, 3 invariant violation


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_det_tlj3_prints_400(capsys):
    code, out, _ = run(capsys, ["fusion", "det", "--tlj", "3"])
    assert code == 0
    assert "|det Z| = 400" in out
    assert "2^(k+1) (k+2)^(k-1)" in out


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, ["fusion", "det", "--tlj", "3"])
    _, second, _ = run(capsys, ["fusion", "det", "--tlj", "3"])
    assert first == second


def test_module_entry_point(tmp_path):
    # the installed package is runnable as python -m cyclotwist
    r = subprocess.run(
        [sys.executable, "-m", "cyclotwist", "fusion", "det", "--tlj", "3"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert "|det Z| = 400" in r.stdout


def test_obstruction_anchor_triples(capsys):
    code, out, _ = run(capsys, ["obstruction", "cuntz",
                                "--m", "2", "--n", "2", "--k", "1",
                                "--assert"])
    assert code == 1
    assert "automorphism action exists: false" in out
    code, out, _ = run(capsys, ["obstruction", "cuntz",
                                "--m", "2", "--n", "8", "--k", "1",
                                "--assert"])
    assert code == 0
    assert "stabilized): true" in out
    code, out, _ = run(capsys, ["obstruction", "cuntz",
                                "--m", "2", "--n", "4", "--k", "1",
                                "--assert"])
    assert code == 1


def test_false_verdict_without_assert_exits_zero(capsys):
    code, out, _ = run(capsys, ["obstruction", "tensor",
                                "--m", "2", "--n", "4", "--k", "1"])
    assert code == 0
    assert "false" in out


def test_usage_errors_exit_two(capsys):
    assert run(capsys, ["nosuch"])[0] == 2
    assert run(capsys, ["fusion", "nosuch"])[0] == 2
    assert run(capsys, ["fusion", "det"])[0] == 2  # missing ring choice
    assert run(capsys, ["obstruction", "cuntz", "--m", "0",
                        "--n", "2", "--k", "1"])[0] == 2
    assert run(capsys, ["numring", "galois", "--p", "7", "--a", "0"])[0] == 2


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["pimsner", "check", "--file", str(bad)])[0] == 2
    missing = tmp_path / "nofile.json"
    assert run(capsys, ["pimsner", "check", "--file", str(missing)])[0] == 2


def test_cocycle_roundtrip_through_files(capsys, tmp_path):
    table = tmp_path / "c.json"
    code, out, _ = run(capsys, ["cocycle", "make", "--m", "4", "--k", "3",
                                "--json", str(table)])
    assert code == 0
    obj = json.loads(table.read_text())
    assert obj["m"] == 4 and len(obj["values"]) == 64
    code, out, _ = run(capsys, ["cocycle", "check", "--file", str(table)])
    assert code == 0 and "cocycle identity: true" in out
    code, out, _ = run(capsys, ["cocycle", "class", "--file", str(table)])
    assert code == 0 and "class: 3 (mod 4)" in out


def test_cocycle_class_rejects_non_cocycle(capsys, tmp_path):
    vals = [0] * 8
    vals[7] = 1  # lone 1/3 at (1,1,1) violates the identity
    nc = tmp_path / "nc.json"
    nc.write_text(json.dumps({"m": 2, "denominator": 3, "values": vals}))
    code, out, _ = run(capsys, ["cocycle", "check", "--file", str(nc)])
    assert code == 0 and "false" in out and "witness" in out
    code, _, err = run(capsys, ["cocycle", "class", "--file", str(nc)])
    assert code == 2 and "not a cocycle" in err


def test_cocycle_source_required(capsys):
    code, _, err = run(capsys, ["cocycle", "check"])
    assert code == 2
    assert "--file" in err or "--m" in err


def test_cocycle_embed_and_crt(capsys):
    assert run(capsys, ["cocycle", "embed", "--m", "3", "--n", "4",
                        "--k", "2", "--assert"])[0] == 0
    # omega_{3000}^2 is read entry by entry, never built
    assert run(capsys, ["cocycle", "embed", "--m", "3", "--n", "1000",
                        "--k", "2", "--assert"])[0] == 0
    assert run(capsys, ["cocycle", "crt", "--m", "3", "--n", "4",
                        "--k", "5", "--assert"])[0] == 0
    # non-coprime orders are a usage error
    assert run(capsys, ["cocycle", "crt", "--m", "4", "--n", "6",
                        "--k", "1"])[0] == 2
    # so is an embedding factor past the limit
    assert run(capsys, ["cocycle", "embed", "--m", "3", "--n", str(10**50),
                        "--k", "2"]) == (2, "", "error: n must be <= %d\n"
                                         % 10**14)


@pytest.mark.parametrize("argv", [
    ["cocycle", "make", "--m", "97", "--k", "1"],
    ["cocycle", "check", "--m", "97", "--k", "1"],
    ["cocycle", "class", "--m", "97", "--k", "1"],
    ["cocycle", "class", "--file", "{table}"],
    ["cocycle", "crt", "--m", "97", "--n", "2", "--k", "1"],
    # coprime orders, each refused before a table is built
    ["cocycle", "crt", "--m", "1", "--n", "0", "--k", "0"],
    ["cocycle", "crt", "--m", "3", "--n", "-1", "--k", "1"],
    ["cocycle", "crt", "--m", "96", "--n", str(10**4000 + 1), "--k", "1"],
])
def test_cocycle_group_order_limit_exits_two(capsys, monkeypatch, tmp_path,
                                             argv):
    from cyclotwist import cocycle

    def no_table(*args):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(cocycle.Cocycle3, "from_function", no_table)
    table = tmp_path / "big.json"
    table.write_text(json.dumps({"m": 97, "denominator": 1, "values": [0]}))
    argv = [a.replace("{table}", str(table)) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "group order must be >= 1 and <= 96" in err


@pytest.mark.parametrize("argv", [
    ["numring", "minpoly", "--p", "1013"],
    ["numring", "factor2", "--p", "1013"],
    ["numring", "idem", "--p", "1013"],
    ["numring", "galois", "--p", "1013", "--a", "2"],
])
def test_numring_prime_limit_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: p must be an odd prime <= 1009, got 1013\n"


def test_numring_galois_work_limit_exits_two(capsys):
    # 57 s as a process before the limit; refused before any column
    code, out, err = run(capsys, ["numring", "galois", "--p", "1009",
                                  "--a", "504"])
    assert code == 2 and out == ""
    assert "<= 8000000" in err and "got 128024064" in err


# each fusion flag at the largest rank allowed (48) and one above it; the
# iso ring tlj(p - 2) has rank p - 1, and the limit is checked before
# the primality of p
@pytest.mark.parametrize("argv", [
    ["fusion", "det", "--tlj", "47"],
    ["fusion", "det", "--tlj-even", "47"],
    ["fusion", "det", "--pointed", "48"],
    ["fusion", "cheb", "--level", "47", "--assert"],
    ["fusion", "parity", "--half-level", "23", "--assert"],
    ["fusion", "iso", "--p", "47", "--assert"],
])
def test_fusion_rank_at_the_limit_runs(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0 and out and err == ""


def test_fusion_iso_at_the_limit_checks_the_prime(capsys):
    code, out, err = run(capsys, ["fusion", "iso", "--p", "49"])
    assert (code, out, err) == (2, "", "error: p must be an odd prime\n")


@pytest.mark.parametrize("argv, rank", [
    (["fusion", "det", "--tlj", "48"], 49),
    (["fusion", "build", "--tlj-even", "48"], 49),
    (["fusion", "build", "--pointed", "49"], 49),
    (["fusion", "cheb", "--level", "48"], 49),
    (["fusion", "parity", "--half-level", "24"], 49),
    (["fusion", "iso", "--p", "50"], 49),
    (["fusion", "iso", "--p", "53"], 52),
])
def test_fusion_rank_limit_exits_two(capsys, argv, rank):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: fusion ring rank must be <= 48, got %d\n" % rank


def test_invariant_violation_exits_three(capsys, monkeypatch):
    def broken(q):
        raise AssertionError("forced certificate mismatch")

    monkeypatch.setattr("cyclotwist.obstruction.exists_tensor_action", broken)
    code, _, err = run(capsys, ["obstruction", "tensor",
                                "--m", "2", "--n", "3", "--k", "1"])
    assert code == 3
    assert "invariant violation" in err


@pytest.mark.parametrize("route", ["tensor_modulus", "intro_modulus"])
@pytest.mark.parametrize("leaf", ["cuntz", "tensor", "intro"])
def test_obstruction_route_disagreement_exits_three(capsys, monkeypatch,
                                                     leaf, route):
    # each leaf asks both routes; (2, 8, 1) acts, so modulus m refuses k
    monkeypatch.setattr("cyclotwist.obstruction." + route,
                        lambda m, n, primes: m)
    code, out, err = run(capsys, ["obstruction", leaf,
                                  "--m", "2", "--n", "8", "--k", "1"])
    assert code == 3 and out == ""
    assert "invariant violation" in err and "disagree at m=2 n=8 k=1" in err


@pytest.mark.parametrize("route", ["tensor_modulus", "intro_modulus"])
def test_agreement_sweep_disagreement_exits_three(capsys, monkeypatch,
                                                  route):
    monkeypatch.setattr("cyclotwist.obstruction." + route,
                        lambda m, n, primes: m)
    code, out, err = run(capsys, ["sweep", "agreement", "--max", "6"])
    assert code == 3
    assert "tensor/divisibility disagreements: 0" not in out
    assert err == "invariant violation: criterion sweep found " \
        "inconsistencies\n"


def test_wrong_fibonacci_root_exits_three(capsys, monkeypatch):
    # a local root that is not a root fails the substitution check
    monkeypatch.setattr("cyclotwist.obstruction._local_roots",
                        lambda p, e: [1])
    code, out, err = run(capsys, ["obstruction", "fibonacci", "--n", "11"])
    assert code == 3 and out == ""
    assert "invariant violation" in err


def test_galois_non_root_exits_three(capsys, monkeypatch):
    # an image of beta that is not a root of mu fails the mu(y) = 0 check
    from cyclotwist import numring
    from cyclotwist.exactalg import PolyZ
    t2 = numring.chebyshev_t2
    monkeypatch.setattr(numring, "chebyshev_t2", lambda a: t2(a) + PolyZ([1]))
    code, out, err = run(capsys, ["numring", "galois", "--p", "7",
                                  "--a", "2"])
    assert code == 3 and out == ""
    assert "invariant violation" in err


def _det_off_by_one(monkeypatch):
    from cyclotwist import fusion
    real = fusion.global_det

    def det(ring):
        rep = real(ring)
        return fusion.DetReport(rep.ring, rep.Z, rep.det_abs + 1, rep.radical)

    monkeypatch.setattr(fusion, "global_det", det)


def _factor_dropped(monkeypatch):
    # one factor of 2 missing: the idempotents no longer sum to 1
    from cyclotwist import numring
    real = numring.factor_two

    def factor_two(ring):
        fac = real(ring)
        return numring.PrimeFactorTwo(ring, fac.factors[1:], fac.f)

    monkeypatch.setattr(numring, "factor_two", factor_two)


def _repeated_factor(monkeypatch):
    monkeypatch.setattr("cyclotwist.numring._equal_degree_split",
                        lambda g, d: [g, g])


def _dk_generator_bumped(monkeypatch):
    from cyclotwist import fusion
    from cyclotwist.exactalg import IntMatrix
    real = fusion.FusionModule

    def bumped(base, G):
        entries = list(G.entries)
        entries[0] += 1
        return real(base, IntMatrix(G.rows, G.cols, entries))

    monkeypatch.setattr(fusion, "FusionModule", bumped)


def _omega_bumped(monkeypatch):
    # one entry of omega's table moved: the table is no cocycle
    from cyclotwist import cocycle
    real = cocycle.omega

    def omega(m, k):
        c = real(m, k)
        return cocycle.Cocycle3(c.m, c.den, (c.nums[0] + 1,) + c.nums[1:])

    monkeypatch.setattr(cocycle, "omega", omega)


def _chebyshev_perturbed(monkeypatch):
    from cyclotwist import numring
    from cyclotwist.exactalg import PolyZ
    real = numring.chebyshev_u
    monkeypatch.setattr(numring, "chebyshev_u",
                        lambda n: real(n) + PolyZ([n == 3]))


def _fibonacci_root_wrong(monkeypatch):
    monkeypatch.setattr("cyclotwist.obstruction._local_roots",
                        lambda p, e: [1])


@pytest.mark.parametrize("argv, breaks, message", [
    (["fusion", "det", "--tlj", "3"], _det_off_by_one,
     "det 401 does not match the closed form 400 at k=3"),
    (["fusion", "det", "--tlj-even", "3"], _det_off_by_one,
     "even-part det 6 != closed form 5"),
    (["fusion", "det", "--tlj-even", "4"], _det_off_by_one,
     "even-part det 37 != closed form 36"),
    (["fusion", "det", "--pointed", "4"], _det_off_by_one,
     "pointed det 257 != 256"),
    (["fusion", "dk", "--level", "4"], _dk_generator_bumped,
     "U_5(G/2) != 0: the generator does not define a module"),
    (["sweep", "det", "--max-k", "3"], _det_off_by_one,
     "determinant table mismatch"),
    (["sweep", "fibonacci", "--max-n", "50"], _fibonacci_root_wrong, ""),
    (["numring", "factor2", "--p", "7"], _repeated_factor,
     "repeated factor: 2 would ramify"),
    (["numring", "idem", "--p", "17"], _factor_dropped,
     "idempotents do not sum to 1"),
    (["numring", "minpoly", "--p", "7"], _chebyshev_perturbed,
     "mu(X^2 - 2) != U_6(X/2)"),
    (["cocycle", "embed", "--m", "3", "--n", "4", "--k", "2"],
     _omega_bumped, "is not the coboundary of its witness"),
    (["cocycle", "crt", "--m", "3", "--n", "4", "--k", "5"],
     _omega_bumped, "is not the coboundary of its witness"),
], ids=["det-tlj", "det-tlj-even-odd", "det-tlj-even-even", "det-pointed",
        "dk", "sweep-det", "sweep-fibonacci", "factor2", "idem", "minpoly",
        "embed", "crt"])
def test_broken_route_or_certificate_exits_three(capsys, monkeypatch, argv,
                                                 breaks, message):
    # each leaf with two routes or a certificate: break one by monkeypatch
    breaks(monkeypatch)
    code, _, err = run(capsys, argv)
    assert code == 3, err
    assert err.startswith("invariant violation: ") and message in err


def test_even_part_det_at_level_zero_writes_formula_one(capsys, tmp_path):
    # (k+2)^floor(k/2) is 1 at k = 0, where no even-level note is printed
    out = tmp_path / "det.json"
    code, text, _ = run(capsys, ["fusion", "det", "--tlj-even", "0",
                                 "--json", str(out)])
    assert code == 0 and "note:" not in text
    assert json.loads(out.read_text(encoding="utf-8"))["formula"] == 1


def test_readme_command_line_examples(capsys, tmp_path):
    # every command of the README's example block, with the output shown
    # under it; a trailing comment is the content of its --file
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    assert len(examples) == 6
    for command, shown in examples:
        command, _, comment = command.partition("#")
        argv = command.split()
        assert argv[0] == "cyclotwist"
        if "--file" in argv:
            path = tmp_path / argv[argv.index("--file") + 1]
            path.write_text(comment.strip(), encoding="utf-8")
            argv[argv.index("--file") + 1] = str(path)
        code, out, err = run(capsys, argv[1:])
        assert code == 0 and err == "", command
        if shown:
            assert out.splitlines() == shown, command


_LIMIT = 10**14


@pytest.mark.parametrize("argv", [
    ["fibonacci", "--n", str(_LIMIT + 1)],
    ["cuntz", "--m", str(_LIMIT + 1), "--n", "3", "--k", "1"],
    ["cuntz", "--m", "3", "--n", str(_LIMIT + 1), "--k", "1"],
    ["tensor", "--m", str(_LIMIT + 1), "--n", "3", "--k", "1"],
    ["tensor", "--m", "3", "--n", str(_LIMIT + 1), "--k", "1"],
    ["intro", "--m", str(_LIMIT + 1), "--n", "3", "--k", "1"],
    ["intro", "--m", "3", "--n", str(_LIMIT + 1), "--k", "1"],
])
def test_obstruction_moduli_above_the_limit_exit_two(capsys, argv):
    code, out, err = run(capsys, ["obstruction"] + argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(_LIMIT) in err
    # the limit itself is accepted (10^14 = 2^14 5^14 factors at once)
    at_limit = [str(_LIMIT) if a == str(_LIMIT + 1) else a for a in argv]
    assert run(capsys, ["obstruction"] + at_limit)[0] == 0


def test_unclassifiable_cocycle_exits_three(capsys, monkeypatch):
    from cyclotwist.cocycle import NotClassified

    def refuse(c):
        raise NotClassified("forced")

    # the scan passes a true cocycle that the certificate refuses
    monkeypatch.setattr("cyclotwist.cocycle.cohomology_class", refuse)
    code, _, err = run(capsys, ["cocycle", "check", "--m", "3", "--k", "1"])
    assert code == 3
    assert "invariant violation" in err


def test_cocycle_class_decides_without_identity_scan(capsys, tmp_path,
                                                     monkeypatch):
    def forbidden(c):
        raise AssertionError("is_cocycle called")

    monkeypatch.setattr("cyclotwist.cocycle.is_cocycle", forbidden)
    nc = tmp_path / "nc.json"
    nc.write_text(json.dumps({"m": 2, "denominator": 3,
                              "values": [0] * 7 + [1]}))
    code, out, err = run(capsys, ["cocycle", "class", "--file", str(nc)])
    assert (code, out) == (2, "")
    assert err == "error: input table is not a cocycle; nothing to classify\n"


def test_pimsner_check_reports_both_verdicts(capsys, tmp_path):
    f = tmp_path / "corr.json"
    f.write_text(json.dumps({"n": 2, "mult": [["inf", 1], [0, 1]]}))
    code, out, _ = run(capsys, ["pimsner", "check", "--file", str(f)])
    assert code == 0
    assert "Toeplitz algebra simple: false" in out
    assert "Cuntz-Pimsner algebra simple: false" in out
    assert "[2]" in out  # the invariant subset {2}


def test_pimsner_proper_case_not_applicable(capsys, tmp_path):
    f = tmp_path / "proper.json"
    f.write_text(json.dumps({"n": 1, "mult": [[2]]}))
    code, out, _ = run(capsys, ["pimsner", "check", "--file", str(f)])
    assert code == 0
    assert "not applicable" in out and "proper" in out


# row 2 is finite with support {1}: {1} and {1, 3} are forward-closed
# but do not absorb the compact preimage
_CORR_MIXED = {"n": 3, "mult": [["inf", 0, 0], [1, 0, 0], [0, 0, "inf"]]}


def test_pimsner_check_lists_and_rechecks_once(capsys, tmp_path,
                                              monkeypatch):
    import cyclotwist.pimsner as pimsner

    f = tmp_path / "corr.json"
    f.write_text(json.dumps(_CORR_MIXED))
    calls = Counter()
    rechecked = []

    def counted(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def recheck(rows, labelled, need_compact, real=pimsner._recheck):
        rechecked.append((labelled, need_compact))
        return real(rows, labelled, need_compact)

    monkeypatch.setattr(pimsner, "invariant_ideals",
                        counted(pimsner.invariant_ideals, "list"))
    validate = counted(pimsner.validate, "validate")
    monkeypatch.setattr(pimsner, "validate", validate)
    monkeypatch.setattr(pimsner, "_recheck", recheck)
    code, out, _ = run(capsys, ["pimsner", "check", "--file", str(f)])
    assert code == 0
    assert out.endswith("witnesses: [1, 2]; [3]\n")
    assert calls == {"list": 1, "validate": 1}
    # each forward-closed subset once, the invariant ones with the
    # compact-preimage inclusion too
    assert rechecked == [((1,), False), ((1, 2), True), ((3,), True),
                         ((1, 3), False)]


@pytest.mark.parametrize("fwd, inv", [
    # {2} is not forward-closed: row 2 reaches column 1
    ([(2,)], []),
    # {1} is forward-closed, but the finite row 2 has support {1}
    ([(1,), (1, 2)], [(1,), (1, 2)]),
    # the same, listed as invariant without being listed as forward-closed
    ([(1, 2)], [(1,), (1, 2)]),
])
def test_pimsner_forged_witness_fails_recheck(capsys, tmp_path,
                                              monkeypatch, fwd, inv):
    import cyclotwist.pimsner as pimsner

    f = tmp_path / "corr.json"
    f.write_text(json.dumps(_CORR_MIXED))
    monkeypatch.setattr(pimsner, "invariant_ideals",
                        lambda spec: pimsner.IdealReport(
                            forward_closed=tuple(fwd), invariant=tuple(inv)))
    code, _, err = run(capsys, ["pimsner", "check", "--file", str(f)])
    assert code == 3
    assert "fails independent re-verification" in err


def test_numring_split_file_input(capsys, tmp_path):
    f = tmp_path / "split.json"
    f.write_text(json.dumps({"p": 5, "rank": 1, "n_gens": [[2, 0]]}))
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, ["numring", "split", "--file", str(f),
                                "--json", str(cert)])
    assert code == 0
    assert "split certificate verified: true" in out
    obj = json.loads(cert.read_text())
    assert obj["verified"] is True
    assert len(obj["basis_L0"]) == 4 and obj["basis_L1"] == []


def test_numring_involution_file_input(capsys, tmp_path):
    f = tmp_path / "invol.json"
    y = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    f.write_text(json.dumps({"p": 5, "rank": 2, "y": y}))
    code, out, _ = run(capsys, ["numring", "involution", "--file", str(f)])
    assert code == 0
    assert "involution decomposition verified: true" in out
    assert "higman certificate: present" in out


@pytest.mark.parametrize("sub, obj", [
    ("split", {"p": 5, "rank": -1, "n_gens": []}),
    ("involution", {"p": 5, "rank": -1, "y": []}),
])
def test_numring_negative_rank_exits_two(capsys, tmp_path, sub, obj):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["numring", sub, "--file", str(f)])
    assert code == 2 and out == ""
    assert "rank must be >= 0, got -1" in err


def _limit_address_space():
    # 1 GB: an unguarded rank-100000 lattice needs far more, so a missing
    # guard ends in a MemoryError here instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("rank", [2 ** 70, 100000])
@pytest.mark.parametrize("sub, field", [
    ("split", {"n_gens": []}),
    ("involution", {"y": []}),
    ("resolve", {"relations": []}),
])
def test_numring_oversized_rank_exits_two(tmp_path, sub, field, rank):
    # at p = 5 (degree 2) each R-rank is 4 Z-dimensions in every
    # construction: deg^2 in the Galois amplification, 2 * deg in R[Z/2Z]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict({"p": 5, "rank": rank}, **field)))
    r = subprocess.run(
        [sys.executable, "-m", "cyclotwist", "numring", sub, "--file", str(f)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == ("error: numring %s works in Z-dimension %d, over "
                        "the limit %d\n" % (sub, 4 * rank, _MAX_DIM[sub]))


def test_numring_resolve_file_input(capsys, tmp_path):
    f = tmp_path / "res.json"
    f.write_text(json.dumps({"p": 5, "rank": 1,
                             "relations": [[1, 0, 1, 0], [0, 1, 0, 1]]}))
    out_json = tmp_path / "res_out.json"
    code, out, _ = run(capsys, ["numring", "resolve", "--file", str(f),
                                "--json", str(out_json)])
    assert code == 0
    assert "resolution exact: true" in out
    obj = json.loads(out_json.read_text())
    assert (obj["a"], obj["b"]) == (1, 0) and obj["verified"] is True


def test_numring_resolve_decline_exits_two(capsys, tmp_path):
    # R[Z/2Z]/2 with the swap involution: the kernel has no eigen
    # splitting, so the construction declines instead of certifying
    f = tmp_path / "dec.json"
    f.write_text(json.dumps({"p": 3, "rank": 1,
                             "relations": [[2, 0], [0, 2]]}))
    code, _, err = run(capsys, ["numring", "resolve", "--file", str(f)])
    assert code == 2
    assert "eigenlattice" in err


def test_numring_free_basis_stall_exits_two(capsys, tmp_path, monkeypatch):
    from cyclotwist import numring
    monkeypatch.setattr(numring, "_FREE_BASIS_MAX_TRIES", 0)
    f = tmp_path / "split.json"
    f.write_text(json.dumps({"p": 5, "rank": 1, "n_gens": [[2, 0]]}))
    code, out, err = run(capsys, ["numring", "split", "--file", str(f)])
    assert (code, out) == (2, "")
    assert err == "error: free R-basis search stalled after 0 candidates\n"


def test_numring_involution_without_padding_exits_two(capsys, tmp_path,
                                                      monkeypatch):
    # with no Higman endomorphism, every padding up to the last is refused
    from cyclotwist import numring
    monkeypatch.setattr(numring, "_higman_endomorphism", lambda module: None)
    f = tmp_path / "invol.json"
    y = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    f.write_text(json.dumps({"p": 5, "rank": 2, "y": y}))
    code, out, err = run(capsys, ["numring", "involution", "--file", str(f)])
    assert (code, out) == (2, "")
    assert err == ("error: no padding up to 4 admits the decomposition: "
                   "no Higman endomorphism at padding 4\n")


@pytest.mark.parametrize("n", ["0", "200001"])
def test_sweep_fibonacci_range_exits_two(capsys, n):
    code, out, err = run(capsys, ["sweep", "fibonacci", "--max-n", n])
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be between 1 and 200000\n"


def test_numring_scalar_commands(capsys):
    code, out, _ = run(capsys, ["numring", "minpoly", "--p", "11"])
    assert code == 0 and "1 3 -3 -4 1 1" in out
    code, out, _ = run(capsys, ["numring", "factor2", "--p", "17"])
    assert code == 0 and "2 irreducible factor(s) of degree 4" in out
    code, out, _ = run(capsys, ["numring", "idem", "--p", "17"])
    assert code == 0 and out.count("e_") == 2
    code, out, _ = run(capsys, ["numring", "galois", "--p", "7", "--a", "2"])
    assert code == 0 and out.splitlines()[0] == "1 -2 3"


def test_sweeps_small(capsys):
    code, out, _ = run(capsys, ["sweep", "agreement", "--max", "6"])
    assert code == 0 and "disagreements: 0" in out
    code, out, _ = run(capsys, ["sweep", "det", "--max-k", "3"])
    assert code == 0 and out.count("match") == 3
    code, out, _ = run(capsys, ["sweep", "fibonacci", "--max-n", "50"])
    assert code == 0 and "mismatches: 0" in out


def test_sweep_range_caps(capsys):
    assert run(capsys, ["sweep", "agreement", "--max", "0"])[0] == 2
    assert run(capsys, ["sweep", "det", "--max-k", "40"])[0] == 2


def test_json_payload_echoes_seed(capsys, tmp_path):
    f = tmp_path / "out.json"
    run(capsys, ["fusion", "build", "--pointed", "3", "--json", str(f)])
    assert json.loads(f.read_text())["seed"] == 0
    run(capsys, ["--seed", "7", "fusion", "build", "--pointed", "3",
                 "--json", str(f)])
    assert json.loads(f.read_text())["seed"] == 7


def test_fusion_build_payload_shape(capsys, tmp_path):
    f = tmp_path / "ring.json"
    code, out, _ = run(capsys, ["fusion", "build", "--tlj", "2",
                                "--json", str(f)])
    assert code == 0 and "rank 3" in out
    obj = json.loads(f.read_text())
    assert obj["labels"] == ["pi_0", "pi_1", "pi_2"]
    assert len(obj["N"]) == 3


def test_fusion_verdict_subcommands(capsys):
    assert run(capsys, ["fusion", "cheb", "--level", "4",
                        "--assert"])[0] == 0
    assert run(capsys, ["fusion", "parity", "--half-level", "2",
                        "--assert"])[0] == 0
    assert run(capsys, ["fusion", "iso", "--p", "5", "--assert"])[0] == 0
    code, out, _ = run(capsys, ["fusion", "dk", "--level", "3"])
    assert code == 0 and "rank 2" in out


def test_obstruction_ev1_and_fibonacci(capsys):
    code, out, _ = run(capsys, ["obstruction", "ev1", "--m", "6",
                                "--n", "4"])
    assert code == 0 and "generator: 2" in out
    code, out, _ = run(capsys, ["obstruction", "fibonacci", "--n", "11"])
    assert code == 0 and "witness: 4" in out
    assert run(capsys, ["obstruction", "fibonacci", "--n", "12",
                        "--assert"])[0] == 1


_GOOD_INPUTS = {
    "cocycle": {"m": 2, "denominator": 2, "values": [0] * 8},
    "split": {"p": 5, "rank": 1, "n_gens": [[2, 0]]},
    "involution": {"p": 5, "rank": 1, "y": [[1, 0], [0, 1]]},
    "resolve": {"p": 5, "rank": 1, "relations": [[1, 0, 1, 0]]},
    "corr": {"n": 1, "mult": [["inf"]]},
}
_COMMANDS = {
    "cocycle": [["cocycle", "check"], ["cocycle", "class"]],
    "split": [["numring", "split"]],
    "involution": [["numring", "involution"]],
    "resolve": [["numring", "resolve"]],
    "corr": [["pimsner", "check"]],
}


@pytest.mark.parametrize("kind, field, value", [
    ("cocycle", "values", [0] * 7 + [None]),
    ("cocycle", "values", 5),
    ("cocycle", "m", None),
    ("resolve", "relations", 5),
    ("split", "beta", 5),
    ("split", "n_gens", [[2, 0], None]),
    ("split", "p", "five"),
    ("involution", "y", 5),
    ("corr", "mult", 5),
    ("corr", "mult", [5]),
    ("cocycle", "m", 2.9),
    ("cocycle", "m", True),
    ("split", "p", 5.0),
])
def test_malformed_fields_exit_two(capsys, tmp_path, kind, field, value):
    obj = dict(_GOOD_INPUTS[kind], **{field: value})
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    for argv in _COMMANDS[kind]:
        code, out, err = run(capsys, argv + ["--file", str(f)])
        assert code == 2 and out == ""
        assert "field %r" % field in err


_CERT_PATHS = [
    ("split", "SplitCertificate",
     {"p": 5, "rank": 2, "n_gens": [[2, 0, 0, 0], [0, 0, 1, 0]]}),
    ("involution", "InvolutionSplit",
     {"p": 5, "rank": 2, "y": [[0, 0, 1, 0], [0, 0, 0, 1],
                               [1, 0, 0, 0], [0, 1, 0, 0]]}),
    ("resolve", "Resolution",
     {"p": 5, "rank": 1, "relations": [[1, 0, 1, 0], [0, 1, 0, 1]]}),
]


@pytest.mark.parametrize("sub, cls, obj", _CERT_PATHS)
def test_certificates_verified_once_and_gate_output(capsys, tmp_path,
                                                    monkeypatch, sub, cls,
                                                    obj):
    import cyclotwist.numring as numring

    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    argv = ["numring", sub, "--file", str(f)]
    calls = Counter()
    for name in {cls, "SplitCertificate"}:
        klass = getattr(numring, name)

        def counted(self, verify=klass.verify, name=name):
            calls[name] += 1
            return verify(self)

        monkeypatch.setattr(klass, "verify", counted)
    code, out, _ = run(capsys, argv)
    assert code == 0 and ": true" in out
    assert calls[cls] == 1
    # an involution verifies each inner split certificate once, inside
    # lattice_split: one per eigenpart of the swap module
    assert calls["SplitCertificate"] == {"split": 1, "involution": 2,
                                         "resolve": 0}[sub]

    monkeypatch.setattr(getattr(numring, cls), "verify", lambda self: False)
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "invariant violation" in err


def _json_leaves():
    """(group, leaf) for every command whose parser takes --json."""

    def children(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        return {}

    return [(g, name) for g, group in children(_build_parser()).items()
            for name, leaf in children(group).items()
            if any("--json" in a.option_strings for a in leaf._actions)]


# the smallest useful arguments of each leaf; {name} is an input file
_LEAF_ARGS = {
    ("fusion", "build"): ["--tlj", "2"],
    ("fusion", "det"): ["--tlj", "3"],
    ("fusion", "cheb"): ["--level", "4"],
    ("fusion", "parity"): ["--half-level", "2"],
    ("fusion", "dk"): ["--level", "3"],
    ("fusion", "iso"): ["--p", "5"],
    ("cocycle", "make"): ["--m", "4", "--k", "3"],
    ("cocycle", "check"): ["--m", "4", "--k", "3"],
    ("cocycle", "class"): ["--m", "4", "--k", "3"],
    ("cocycle", "embed"): ["--m", "2", "--n", "3", "--k", "1"],
    ("cocycle", "crt"): ["--m", "3", "--n", "4", "--k", "5"],
    ("obstruction", "cuntz"): ["--m", "2", "--n", "8", "--k", "1"],
    ("obstruction", "tensor"): ["--m", "2", "--n", "8", "--k", "1"],
    ("obstruction", "intro"): ["--m", "2", "--n", "8", "--k", "1"],
    ("obstruction", "fibonacci"): ["--n", "11"],
    ("obstruction", "ev1"): ["--m", "6", "--n", "4"],
    ("numring", "minpoly"): ["--p", "5"],
    ("numring", "factor2"): ["--p", "5"],
    ("numring", "idem"): ["--p", "5"],
    ("numring", "galois"): ["--p", "7", "--a", "2"],
    ("numring", "split"): ["--file", "{split}"],
    ("numring", "involution"): ["--file", "{involution}"],
    ("numring", "resolve"): ["--file", "{resolve}"],
    ("pimsner", "check"): ["--file", "{corr}"],
    ("sweep", "agreement"): ["--max", "6"],
    ("sweep", "det"): ["--max-k", "3"],
    ("sweep", "fibonacci"): ["--max-n", "50"],
}

_LEAF_FILES = {
    "split": {"p": 5, "rank": 1, "n_gens": [[2, 0]]},
    "involution": {"p": 5, "rank": 1, "y": [[1, 0], [0, 1]]},
    "resolve": {"p": 5, "rank": 1,
                "relations": [[1, 0, 1, 0], [0, 1, 0, 1]]},
    "corr": {"n": 2, "mult": [["inf", 1], [0, 1]]},
}


def test_every_leaf_takes_json_and_has_arguments():
    assert sorted(_json_leaves()) == sorted(_LEAF_ARGS)


def test_readme_subcommand_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("\nSubcommands:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for row in table.splitlines()[2:]:  # after the header and rule
        group, leaves = row.strip("|").split("|")
        listed.append((group.strip(" `"),
                       [leaf.strip(" `") for leaf in leaves.split(",")]))
    assert listed == [(group, list(leaves))
                      for group, (_, leaves) in cli._COMMANDS.items()]


def test_readme_certificate_table_covers_every_leaf():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("\nCertificates:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for row in table.splitlines()[2:]:  # after the header and rule
        leaf, kind, checked = (c.strip() for c in row.strip("|").split("|"))
        assert kind in ("certificate", "two routes", "checks",
                        "construction only") and checked, row
        listed.append(tuple(leaf.strip("`").split()))
    assert listed == [(group, leaf)
                      for group, (_, leaves) in cli._COMMANDS.items()
                      for leaf in leaves]


@pytest.mark.parametrize("group, leaf", _json_leaves())
def test_every_json_leaf_writes_its_payload(capsys, tmp_path, group, leaf):
    paths = {}
    for name, obj in _LEAF_FILES.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    args = [a.format(**paths) for a in _LEAF_ARGS[group, leaf]]
    out = tmp_path / "out.json"
    code, _, err = run(capsys, [group, leaf] + args + ["--json", str(out)])
    assert code == 0, err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(payload, dict) and payload["seed"] == 0
    assert len(payload) > 1
