"""Exactness by inspection: the library's source holds no true division,
no float or complex literal, no use of the float or complex types, and
from ``math`` only the integer functions gcd, lcm and prod."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "cyclotwist")
                 .glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm", "prod"}


def inexact_tokens(text: str) -> list:
    """(line, token) of every true division, float or complex literal and
    float or complex name in the Python source text."""
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        bad = (
            (tok.type == tokenize.OP and tok.string in ("/", "/="))
            or (tok.type == tokenize.NUMBER and not isinstance(
                ast.literal_eval(tok.string), int))
            or (tok.type == tokenize.NAME
                and tok.string in ("float", "complex")))
        if bad:
            found.append((tok.start[0], tok.string))
    return found


def inexact_math_imports(text: str) -> list:
    """(line, name) of every import from math outside MATH_ALLOWED; a
    bare ``import math`` counts as the whole module."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name == "math" or a.name.startswith("math.")]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, a.name) for a in node.names
                      if a.name not in MATH_ALLOWED]
    return found


def test_scanners_catch_every_kind():
    assert {"exactalg.py", "numring.py", "cli.py"} <= {p.name for p in SOURCES}
    text = ("from math import gcd, sqrt\nimport math\n"
            "x = 1 / 2\nx /= 3\ny = 1.0 + 2j + 1e3\nz = float(x)\n"
            "w = complex\nok = 7 // 2 + 0x1E + 1_000  # 1 / 2 and 1.5\n"
            "s = '3 / 4 and 0.5 and float'\n")
    assert inexact_tokens(text) == [(3, "/"), (4, "/="), (5, "1.0"),
                                    (5, "2j"), (5, "1e3"), (6, "float"),
                                    (7, "complex")]
    assert inexact_math_imports(text) == [(1, "sqrt"), (2, "math")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_source_is_exact(path):
    text = path.read_text(encoding="utf-8")
    assert inexact_tokens(text) == []
    assert inexact_math_imports(text) == []
