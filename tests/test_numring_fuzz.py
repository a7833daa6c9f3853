"""Seeded fuzz of the ``--file`` commands ``numring split``, ``numring
involution``, ``numring resolve`` and ``pimsner check``.

Whatever the file holds, each run ends in exit 0 or 2, writes no
traceback and takes under 2 s.  The fixed cases put wrong types and
shapes in every field (booleans, floats, strings, "inf" where integers
belong, nesting), 2^70 and 5,000-digit integers, primes that are not
prime, negative or huge, ranks 0, negative and 2^70, non-square beta or
beta with mu(beta) != 0, a y that is no involution, relation rows of the
wrong length, and n = 0, 21 and 2^70; the seeded cases perturb
well-formed inputs.  Stdlib only, so it runs without hypothesis.
"""

import json
import random
import time

import pytest

from cyclotwist.cli import main

SEED = 2718
SEEDED_CASES = 40
BIG = 2**70
# a 5,000-digit integer, past what int() and json convert by default
HUGE = "9" * 5000

# JSON values that are not integers, or not of the expected shape
ODD = [True, False, 1.5, -0.0, 1e300, "3", "inf", "", None, [], [1], [[0]],
       [[[0]]], {}, {"p": 5}, BIG, -BIG]

# p = 5: R has degree 2, and R-rank 1 is Z-dimension 2
ONE2 = [[1, 0], [0, 1]]
SWAP4 = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
GOOD = {
    "split": {"p": 5, "rank": 1, "n_gens": [[2, 0], [0, 2]]},
    "involution": {"p": 5, "rank": 2, "y": SWAP4},
    "resolve": {"p": 5, "rank": 1,
                "relations": [[1, 0, 1, 0], [0, 1, 0, 1]]},
}
BODY = {"split": "n_gens", "involution": "y", "resolve": "relations"}


def numring_documents(command):
    good, body = GOOD[command], BODY[command]

    def doc(**fields):
        return dict(good, **fields)

    docs = [doc(), {}, [], 5, "lattice", None,
            {k: v for k, v in good.items() if k != body},
            {k: v for k, v in good.items() if k != "p"},
            {k: v for k, v in good.items() if k != "rank"}]
    for p in (0, 1, 2, 4, 9, 15, -5, 1013, 1019, BIG, BIG + 1):
        docs.append(doc(p=p))
    for rank in (0, -1, 3, BIG, -BIG):
        docs.append(doc(rank=rank))
    for value in ODD:
        docs += [doc(p=value), doc(rank=value), doc(**{body: value}),
                 doc(beta=value), doc(**{body: [value] * 2}),
                 doc(**{body: [[0, value]] * 2})]
    docs += [doc(beta=[[0, 1], [1, 1]]), doc(beta=[[0, 1, 0], [1, 1, 0]]),
             doc(beta=[[1, 0], [0, 1]]), doc(beta=[[0, 1], [1]]),
             doc(beta=[[BIG, 0], [0, BIG]]), doc(beta=[]),
             doc(**{body: []}), doc(**{body: [[]]}),
             doc(**{body: [[0] * 3]}), doc(**{body: [[0] * 5] * 4}),
             doc(**{body: [[2, 0, 0, 0]] * 2}),
             doc(**{body: [[BIG] * len(r) for r in good[body]]})]
    if command == "involution":
        docs += [doc(y=[[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1]]),
                 doc(y=[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1]]),
                 doc(rank=1, y=ONE2), doc(rank=1, y=[[-1, 0], [0, -1]]),
                 doc(rank=1, y=[[0, 1], [1, 0]]),
                 doc(p=3, rank=2, y=[[1, 2], [0, -1]]),
                 doc(p=3, rank=81, y=None)]
    if command == "split":
        docs += [doc(n_gens=[[4, 0]]), doc(n_gens=[[1, 0]]),
                 doc(n_gens=[[3, 0], [0, 3]]),
                 doc(rank=2, n_gens=[[2, 0, 0, 0], [0, 0, 1, 0]])]
    if command == "resolve":
        docs += [doc(relations=[[1, 0, 0, 0]]),
                 doc(relations=[[2, 0, 0, 0], [0, 2, 0, 0]]),
                 doc(rank=2, relations=[]), doc(p=3, relations=[[2, 0]]),
                 doc(rank=0, relations=[])]
    return docs


def pimsner_documents():
    good = {"n": 2, "mult": [["inf", 1], [0, 1]]}

    def doc(**fields):
        return dict(good, **fields)

    docs = [doc(), {}, [], {"n": 2}, {"mult": good["mult"]},
            doc(n=0, mult=[]), doc(n=1, mult=[["inf"]]), doc(n=-1),
            doc(n=21, mult=[[1] * 21] * 21), doc(n=BIG),
            doc(n=3), doc(mult=[["inf", 1]]), doc(mult=[["inf", 1, 0],
                                                        [0, 1, 0]]),
            doc(mult=[["inf", 1], [0]]), doc(mult=[["Inf", 1], [0, 1]]),
            doc(mult=[["infinity", 1], [0, 1]]), doc(mult=[[-1, 1], [0, 1]]),
            doc(mult=[[BIG, 1], [0, 1]]),
            doc(mult=[[0, 0], [0, 0]]), doc(mult=[["inf"] * 2] * 2)]
    for value in ODD:
        docs += [doc(n=value), doc(mult=value), doc(mult=[value] * 2),
                 doc(mult=[["inf", value], [0, 1]])]
    return docs


# raw file texts that are not a JSON object, or not JSON at all
RAW_TEXTS = ["", "{", "[1, 2", "null", "Infinity", '{"p": NaN}',
             '{"p": 5, "rank": Infinity}',
             '{"n": 2, "mult": ' + "[" * 100000 + "]" * 100000 + "}",
             '{"p": 5, "rank": 1, "n_gens": ' + "[" * 100000 + "]" * 100000
             + "}",
             '{"p": %s, "rank": 1, "n_gens": []}' % HUGE,
             '{"p": 5, "rank": %s, "y": []}' % HUGE,
             '{"p": 5, "rank": 1, "n_gens": [[2, %s]]}' % HUGE,
             '{"p": 5, "rank": 1, "relations": [[1, 0, 1, %s]]}' % HUGE,
             '{"n": %s, "mult": []}' % HUGE,
             '{"n": 1, "mult": [[%s]]}' % HUGE]


def seeded_numring(rng, command):
    """A small well-formed input at p = 3, 5 or 7, with one entry or one
    field replaced a third of the time each."""
    p = rng.choice((3, 5, 7))
    deg = (p - 1) // 2
    if command == "split":
        rank = rng.randint(1, 2)
        d = rank * deg
        gens = [[2 * (i == j) for j in range(d)] for i in range(d)]
        gens += [[rng.randint(-2, 2) for _ in range(d)]
                 for _ in range(rng.randint(0, 2))]
        doc = {"p": p, "rank": rank, "n_gens": gens}
    elif command == "involution":
        one = [[int(i == j) for j in range(deg)] for i in range(deg)]
        zero = [[0] * deg for _ in range(deg)]
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            y = [[sign * x for x in r] for r in one]
            rank = 1
        else:
            y = [a + b for a, b in zip(zero, one)] + \
                [a + b for a, b in zip(one, zero)]
            rank = 2
        doc = {"p": p, "rank": rank, "y": y}
    else:
        rank = 1
        rels = [[int(j == i or j == i + deg) for j in range(2 * deg)]
                for i in range(deg)]
        rels += [[rng.randint(-1, 1) for _ in range(2 * deg)]
                 for _ in range(rng.randint(0, 1))]
        doc = {"p": p, "rank": rank, "relations": rels}
    body = doc[BODY[command]]
    if rng.random() < 1 / 3:
        row = rng.choice(body)
        row[rng.randrange(len(row))] += rng.choice((-1, 1, 2))
    if rng.random() < 1 / 3:
        field = rng.choice(sorted(doc))
        doc[field] = rng.choice(ODD + [0, -1, 2])
    return doc


def seeded_pimsner(rng):
    n = rng.randint(1, 6)
    mult = [[rng.choice((0, 0, 1, 2, "inf")) for _ in range(n)]
            for _ in range(n)]
    if rng.random() < 1 / 3:
        mult[rng.randrange(n)][rng.randrange(n)] = rng.choice(ODD)
    return {"n": n, "mult": mult}


def texts(command):
    rng = random.Random("%d/%s" % (SEED, command))
    if command == "pimsner":
        docs = pimsner_documents()
        docs += [seeded_pimsner(rng) for _ in range(SEEDED_CASES)]
    else:
        docs = numring_documents(command)
        docs += [seeded_numring(rng, command) for _ in range(SEEDED_CASES)]
    return [json.dumps(d) for d in docs] + RAW_TEXTS


@pytest.mark.parametrize("command",
                         ["split", "involution", "resolve", "pimsner"])
def test_file_fuzz(capsys, tmp_path, command):
    argv = (["pimsner", "check"] if command == "pimsner"
            else ["numring", command])
    path = tmp_path / "input.json"
    codes = set()
    for text in texts(command):
        path.write_text(text)
        start = time.perf_counter()
        code = main(argv + ["--file", str(path)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2), (text[:200], code, err)
        assert "Traceback" not in err
        assert elapsed < 2, (text[:200], elapsed)
        codes.add(code)
    assert codes == {0, 2}
