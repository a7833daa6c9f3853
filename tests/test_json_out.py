"""The --json writer against its oracle, json.dumps(obj, indent=2,
sort_keys=True): byte for byte on every value a payload can hold, the
same exception where both refuse, and flat memory on the largest
payload."""

import json
import os
import subprocess
import sys
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

from cyclotwist.cli import _emit_json, _json_parts


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def written(obj) -> str:
    return "".join(_json_parts(obj))


_EDGE_CASES = [
    0, -1, -(2 ** 70), 2 ** 70, 10 ** 3999, -(10 ** 3999),
    "", "inf", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\n\t",
    "café ∑ \U0001f600", True, False, None,
    [], {}, (), [[]], [{}], {"a": {}}, {"a": []}, ((),), (1, -2, 3),
    [1, True, None], [1, True, 2, False], [True] * 5,
    # Pimsner specs: "inf" among the integers of a row
    [["inf", 0, 1], [2, "inf", "inf"], [0, 0, 0]],
    {"b": [1, [2, [3, {"c": None}]]], "a": "x", "A": -3, "": 0},
    {"é": 1, "e": 2, "z\"q": [True]},
] + [list(range(-n // 2, n - n // 2)) for n in (1023, 1024, 1025, 2049)] + [
    # runs broken by a bool, a string or a row at and past a slice edge
    list(range(1023)) + [True] + list(range(5)),
    list(range(1024)) + ["inf"] + list(range(1030)),
    list(range(2000)) + [[1, 2]] + [3],
    [list(range(1025)), list(range(3))],
]


@pytest.mark.parametrize("obj", _EDGE_CASES,
                         ids=lambda o: repr(o)[:40])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert written(obj) == oracle(obj)


_SCALARS = (st.none() | st.booleans() | st.text(max_size=8)
            | st.integers() | st.integers(min_value=-2 ** 80,
                                          max_value=2 ** 80))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(obj):
    assert written(obj) == oracle(obj)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1100),
                          st.sampled_from([True, False, None, "inf", [7]])),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=3))
def test_writer_matches_json_dumps_on_long_runs(segments, rows):
    # runs of ints that end at and cross the 1,024-item slices, each
    # broken by a bool, null, string or row
    values = []
    for n, stop in segments:
        values += list(range(-n // 3, n - n // 3)) + [stop]
    obj = {"matrix": [values] * rows, "flat": values[:-1]}
    assert written(obj) == oracle(obj)


def test_emit_json_writes_the_oracle_bytes(tmp_path):
    payload = {"p": 13, "basis": [[1, -2], [0, 1]], "name": "tlj(2)",
               "witnesses": [(0, 1), (2,)], "higman_phi": None,
               "verified": True}
    out = tmp_path / "out.json"
    _emit_json(Namespace(json_path=str(out), seed=7), payload)
    assert out.read_bytes() == (oracle(dict(payload, seed=7)) + "\n").encode()
    assert "seed" not in payload
    _emit_json(Namespace(json_path=None, seed=7), {"p": 1.5})  # no --json


@pytest.mark.parametrize("obj", [
    1.5, float("inf"), [1, 2.0], [[1, 2], [3, 4.5]], {"a": 0.1},
    {1: 2}, {"a": 1, 2: 3}, {(1, 2): 3}, {None: 1}, {True: 1},
    {1, 2}, b"bytes", object(),
])
def test_writer_refuses_floats_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        written(obj)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
@pytest.mark.parametrize("obj", [
    10 ** 4300, [1, 10 ** 4300], [True, -(10 ** 5000)],
    {"v": list(range(2000)) + [10 ** 4400]},
], ids=["scalar", "run", "after-a-bool", "second-slice"])
def test_integers_past_the_digit_limit_fail_alike(obj):
    with pytest.raises(ValueError) as ours:
        written(obj)
    with pytest.raises(ValueError) as theirs:
        oracle(obj)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer string conversion limit")
@pytest.mark.parametrize("value", [
    -(10 ** 4999), list(range(-1500, 1500)) + [10 ** 4999] + [7] * 600,
], ids=["alone", "in-a-run"])
def test_emit_json_lifts_the_digit_limit_for_the_write(tmp_path, value):
    # a verified certificate may hold entries past 4,300 digits; the
    # write gives json's bytes for it, and the limit is back afterwards
    payload = {"basis": value, "verified": True}
    out = tmp_path / "long.json"
    limit = sys.get_int_max_str_digits()
    _emit_json(Namespace(json_path=str(out), seed=0), payload)
    assert sys.get_int_max_str_digits() == limit
    try:
        sys.set_int_max_str_digits(0)
        want = oracle(dict(payload, seed=0)) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.read_bytes() == want.encode()


# A fresh wrapper process runs the command and reads the child's own peak
# RSS from wait4, so no earlier child of the test process counts.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "cyclotwist"] + sys.argv[1:],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KB on Linux")
def test_largest_payload_peak_rss(tmp_path):
    # cocycle make at m = 96 writes 884,736 values; 48-55 MB written in
    # slices, 97 MB when the values were joined as one string
    out = tmp_path / "omega96.json"
    r = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "cocycle", "make", "--m", "96",
         "--k", "95", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    code, peak_kb = map(int, r.stdout.split())
    assert code == 0, r.stderr
    assert peak_kb < 70 * 1024
    text = out.read_text(encoding="utf-8")
    assert text == oracle(json.loads(text)) + "\n"
