import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclotwist
from cyclotwist import cocycle, fusion, numring, pimsner
from cyclotwist._record import Record
from cyclotwist.exactalg import IntMatrix, SNFResult
from cyclotwist.obstruction import MAX_MODULUS, ActionQuery


def _leaf(*argv) -> str:
    return "assert main(%r) == 0" % list(argv)


# (what a fresh interpreter runs after ``import cyclotwist.cli``, the
# cyclotwist modules it then holds); SPEC names a Pimsner spec file
FRESH = {
    "import": ("pass", {"cli"}),
    # one leaf per command group loads exactly that group's modules
    "obstruction-cuntz": (
        _leaf("obstruction", "cuntz", "--m", "3", "--n", "4", "--k", "1"),
        {"cli", "obstruction", "exactalg", "_record"}),
    "cocycle-check": (_leaf("cocycle", "check", "--m", "3", "--k", "1"),
                      {"cli", "cocycle", "_record"}),
    "numring-minpoly": (_leaf("numring", "minpoly", "--p", "7"),
                        {"cli", "numring", "exactalg", "_record"}),
    "fusion-det": (_leaf("fusion", "det", "--tlj", "3"),
                   {"cli", "fusion", "exactalg", "_record"}),
    "pimsner-check": ("assert main(['pimsner', 'check', '--file', SPEC]) == 0",
                      {"cli", "pimsner", "_record"}),
    "sweep-agreement": (_leaf("sweep", "agreement", "--max", "4"),
                        {"cli", "obstruction", "exactalg", "_record"}),
    # the package imports a module on first access, and all six for a
    # star import
    "attribute": ("cyclotwist.numring.real_cyclotomic",
                  {"cli", "numring", "exactalg", "_record"}),
    "star": ("from cyclotwist import *\n"
             "assert [m.__name__ for m in (exactalg, fusion, cocycle, "
             "obstruction, numring, pimsner)] == "
             "['cyclotwist.' + n for n in cyclotwist.__all__]",
             {"cli", "exactalg", "fusion", "cocycle", "obstruction",
              "numring", "pimsner", "_record"}),
}


@pytest.mark.parametrize("code, modules", FRESH.values(), ids=FRESH)
def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path, code,
                                                    modules):
    # a fresh interpreter, so that nothing imported by the test session
    # counts; dataclasses pulls in inspect, ast, dis and tokenize, and a
    # command compiles only its own group's modules
    spec = tmp_path / "spec.json"
    spec.write_text('{"n": 2, "mult": [["inf", 1], [0, 1]]}')
    src = str(Path(cyclotwist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "\n".join([
        "import sys, cyclotwist.cli",
        "loaded = set(sys.modules)",
        "main = cyclotwist.cli.main",
        "SPEC = %r" % str(spec),
        code,
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)),",
        "      sorted({'json'} & loaded),",
        "      sorted(m[11:] for m in sys.modules",
        "             if m.startswith('cyclotwist.')))",
    ])
    r = subprocess.run([sys.executable, "-c", probe],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[] [] %s" % sorted(modules)


def test_package_names_unknown_attribute():
    with pytest.raises(AttributeError, match="'no_such_module'"):
        cyclotwist.no_such_module


_M = IntMatrix.from_rows


# (record class, fields in order with values, exact repr)
RECORDS = [
    (ActionQuery, {"m": 4, "n": 2, "k": 3}, "ActionQuery(m=4, n=2, k=3)"),
    (SNFResult, {"S": _M([[1, 0], [0, 2]]), "U": _M([[1, 0], [0, 1]]),
                 "V": _M([[0, 1], [1, 0]])},
     "SNFResult(S=IntMatrix.from_rows([[1, 0], [0, 2]]), "
     "U=IntMatrix.from_rows([[1, 0], [0, 1]]), "
     "V=IntMatrix.from_rows([[0, 1], [1, 0]]))"),
]


@pytest.mark.parametrize("cls, kw, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, kw, text):
    names, values = tuple(kw), tuple(kw.values())
    a = cls(*values)
    assert a == cls(**kw) == cls(*values[:1], **dict(list(kw.items())[1:]))
    assert hash(a) == hash(cls(**kw))
    assert repr(a) == text
    assert a != values and a != object()
    for name, value in kw.items():
        assert getattr(a, name) == value
    # missing, extra, unknown and repeated fields
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1], zzz=values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    # frozen: no assignment or deletion, of fields or anything else
    for name in (names[0], "zzz"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*values)


def test_record_fields_differ():
    assert ActionQuery(4, 2, 3) != ActionQuery(4, 2, 1)
    assert ActionQuery(4, 2, 3) != ActionQuery(4, 3, 3)


def test_action_query_post_init_runs():
    # __post_init__ reduces the twist and rejects out-of-range orders
    assert ActionQuery(4, 2, 7) == ActionQuery(4, 2, 3)
    assert ActionQuery(m=4, n=2, k=-1).k == 3
    for m, n in ((0, 2), (2, 0), (-1, 1), (MAX_MODULUS + 1, 1),
                 (1, MAX_MODULUS + 1)):
        with pytest.raises(ValueError):
            ActionQuery(m, n, 0)


_RING = numring.real_cyclotomic(5)
LIBRARY_VALUES = {
    "FusionRing": lambda: fusion.tlj(2),
    "CorrSpec": lambda: pimsner.CorrSpec(2, [["inf", 1], [0, 1]]),
    "Cocycle3": lambda: cocycle.omega(3, 1),
    "RealCyclotomic": lambda: _RING,
    "SplitCertificate": lambda: numring.lattice_split(
        numring.RLattice.free(_RING, 1), [[2, 0]]),
    "InvolutionSplit": lambda: numring.involution_split(
        numring.free_z2_module(5)),
    "Resolution": lambda: numring.resolve_z2_module(
        5, 1, [[1, 0, 1, 0], [0, 1, 0, 1]]),
}


@pytest.mark.parametrize("build", LIBRARY_VALUES.values(),
                         ids=LIBRARY_VALUES)
def test_library_values_are_frozen_records(build):
    # the certificates come from the constructions, after their verify()
    a = build()
    cls = type(a)
    assert isinstance(a, Record) and cls._fields
    values = {f: getattr(a, f) for f in cls._fields}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    b = cls(**values)
    assert a == b and hash(a) == hash(b)
    assert getattr(a, "verify", lambda: True)()
