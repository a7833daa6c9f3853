"""Seeded fuzz of ``cocycle check --file`` and ``cocycle class --file``.

Whatever the file holds, each run ends in exit 0 or 2, writes no
traceback and takes under 2 s: the fixed cases cover wrong types and
lengths of every field, odd JSON scalars, nested lists and the group
orders and denominators at and past their limits; the seeded cases mix
them with well-formed tables.  Stdlib only, so it runs without
hypothesis.
"""

import json
import random
import time

import pytest

from cyclotwist.cli import main
from cyclotwist.cocycle import _MAX_ORDER, omega

SEED = 1729
SEEDED_CASES = 100
BIG = 2**70

# JSON values that are not integers, or not of the expected shape
ODD = [True, False, 1.5, -0.0, 1e300, "3", "inf", "", None, [], [1], [[0]],
       {}, {"m": 2}]


GOOD = {"m": 2, "denominator": 2, "values": [0] * 8}


def table(**fields):
    """The table GOOD with some fields replaced; "den" names the
    denominator."""
    if "den" in fields:
        fields["denominator"] = fields.pop("den")
    return dict(GOOD, **fields)


def fixed_documents():
    docs = [table(), table(values=[1] * 8), table(den=BIG),
            table(den=BIG, values=[BIG - 1] * 8),
            table(m=1, den=1, values=[0]),
            table(m=0, values=[]), table(m=_MAX_ORDER + 1, values=[0]),
            table(m=BIG, values=[0]), table(m=-3, values=[0]),
            table(den=0), table(den=-1), table(den=-BIG),
            table(values=[0] * 7), table(values=[0] * 9), table(values=[]),
            table(values=[[0] * 8]), table(values=[[0]] * 8),
            table(values=[0] * 7 + [[0]]), {"m": 2, "denominator": 2},
            {"m": 2, "values": [0] * 8}, {"denominator": 2, "values": []},
            [], 5, "table", None]
    for value in ODD:
        docs += [table(m=value), table(den=value), table(values=value),
                 table(values=[0] * 7 + [value])]
    return docs


# raw file texts that are not a JSON object, or not JSON at all
RAW_TEXTS = ["", "{", "[1, 2", "null", "Infinity",
             '{"m": 2, "denominator": 2, "values": [0, 0, 0, 0, 0, 0, 0, '
             'NaN]}',
             '{"m": 2, "denominator": Infinity, "values": []}',
             '{"m": 2, "denominator": 2, "values": ' + "[" * 100000 + "]"
             * 100000 + "}",
             '{"m": 2, "denominator": 2, "values": [0, 0, 0, 0, 0, 0, 0, '
             + "9" * 5000 + "]}"]


def seeded_document(rng):
    """A well-formed table (omega_m^k perturbed or not, or random values)
    with one field replaced by an odd value a third of the time."""
    m = rng.randint(1, 9)
    if rng.random() < 0.5:
        w = omega(m, rng.randrange(m))
        den = w.den * rng.choice([1, 3, BIG])
        values = [x * (den // w.den) for x in w.nums]
        if rng.random() < 0.5:
            values[rng.randrange(m**3)] += rng.randrange(1, 5)
    else:
        den = rng.choice([1, 2, 7, BIG])
        values = [rng.randrange(-den, 2 * den) for _ in range(m**3)]
    doc = table(m=m, den=den, values=values)
    if rng.random() < 1 / 3:
        field = rng.choice(["m", "denominator", "values"])
        doc[field] = rng.choice(ODD + [0, -1, BIG, _MAX_ORDER + 1])
    return doc


def texts():
    rng = random.Random(SEED)
    return ([json.dumps(d) for d in fixed_documents()] + RAW_TEXTS
            + [json.dumps(seeded_document(rng))
               for _ in range(SEEDED_CASES)])


@pytest.mark.parametrize("command", ["check", "class"])
def test_cocycle_file_fuzz(capsys, tmp_path, command):
    path = tmp_path / "table.json"
    codes = set()
    for text in texts():
        path.write_text(text)
        start = time.perf_counter()
        code = main(["cocycle", command, "--file", str(path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2), (text[:200], code, err)
        assert "Traceback" not in err
        assert elapsed < 2, (text[:200], elapsed)
        codes.add(code)
    assert codes == {0, 2}
