"""Seeded job mixes for the three workloads, each job with its answer.

A job is one CLI invocation: ``argv`` for ``cyclotwist.cli.main``, the
JSON input files it reads, and ``expect``, the answer the checker holds
it to.  Answers come from ``oracles`` or from how the input was built,
never from cyclotwist itself.

A mix is one cycle of jobs with the job kinds interleaved.  A run
repeats the cycle, each time in a fresh worker process, so every
repetition pays the same cold start and nothing carries over from one
to the next.  After its first pass a worker runs the cycle's jobs
again, in order, except those marked ``once``: the jobs that change
the program's state (the first class solve for each m) and the few
slowest ones.  So a quick job is timed many more times than a cold or
slow one within the same run.

Each mix puts its median job and its tail job (the eleventh slowest)
inside a group of jobs of about equal cost, so the two figures do not
jump between unlike jobs from seed to seed.

Sizes stay inside ranges known to be cheap: cocycle m <= 10 (the class
solver's memory grows about as m^6), Pimsner n <= 16 (2^n subsets are
scanned), Fibonacci sweeps far below the 200000 limit of the CLI.
"""

from __future__ import annotations

import random

from . import oracles


def _interleave(groups):
    """Merge job lists round-robin, spreading each evenly over the cycle."""
    out = []
    groups = [list(g) for g in groups if g]
    longest = max(len(g) for g in groups)
    for t in range(longest):
        for g in groups:
            # spread a short group evenly over the long ones
            if (t * len(g)) // longest != ((t + 1) * len(g)) // longest:
                out.append(g[(t * len(g)) // longest])
    return out


def _job(kind, argv, expect, files=None, once=False):
    return {"kind": kind, "argv": argv, "expect": expect,
            "files": files or {}, "once": once}


# -------------------------------------------------------- cocycle-classify

# tables per m: (with class and check, class only, check only).  The
# thirteen checks at m = 10 form the group the tail job falls in (above
# them: the cold solves and two warm m = 10 class solves); the fourteen
# class solves at m = 6 form the group the median job falls in.  m = 9
# gets checks only: its cold solve would add a second to every fresh
# worker.
COCYCLE_TABLES = {10: (3, 0, 10), 9: (0, 0, 2), 8: (2, 0, 0),
                  7: (2, 0, 0), 6: (7, 7, 0), 5: (2, 0, 0),
                  4: (2, 0, 0), 3: (2, 0, 0), 2: (2, 0, 0)}
COCYCLE_PERTURBED = (8, 7, 6, 5, 4, 3, 2)  # one bad table at each m


def _cocycle_table(rng, m):
    """omega_m^k + d(beta), beta random with denominator 2m, 3m or 8m."""
    k = rng.randrange(m)
    den = rng.choice([2 * m, 3 * m, 8 * m])
    beta = [[rng.randrange(den) for _ in range(m)] for _ in range(m)]
    vals = [(a + b) % den for a, b in zip(oracles.omega_table(m, k, den),
                                          oracles.coboundary_table(m, beta,
                                                                   den))]
    return k, den, vals


def _perturb(rng, m, den, vals):
    """Add a nonzero amount to one entry until the identity fails."""
    while True:
        bad = list(vals)
        bad[rng.randrange(len(bad))] += rng.randrange(1, den)
        bad = [v % den for v in bad]
        if not oracles.is_cocycle(m, bad, den):
            return bad


def cocycle_cycle(rng):
    per_m = []
    for m, (both, class_only, check_only) in COCYCLE_TABLES.items():
        # the first table is never the bad one, so the first class job
        # of each m is the one that builds the solver
        bad_at = rng.randrange(1, both) if m in COCYCLE_PERTURBED else None
        jobs = []
        for t in range(both + class_only + check_only):
            k, den, vals = _cocycle_table(rng, m)
            if t == bad_at:
                vals = _perturb(rng, m, den, vals)
            table = {"m": m, "denominator": den, "values": vals}
            files = {"table": table}
            ok = t != bad_at
            if t < both + class_only:
                # a table that is not a cocycle has no class: usage error
                jobs.append(_job("cocycle-class",
                                 ["cocycle", "class", "--file", "{table}"],
                                 {"rc": 0 if ok else 2, "m": m, "k": k},
                                 files, once=t == 0))
            if t < both or t >= both + class_only:
                jobs.append(_job("cocycle-check",
                                 ["cocycle", "check", "--file", "{table}"],
                                 {"rc": 0, "ok": ok}, files))
        per_m.append(jobs)
    extra = []
    for _ in range(2):
        m, n = rng.choice([(2, 3), (3, 4), (2, 5), (3, 5)])
        k = rng.randrange(m * n)
        extra.append(_job("cocycle-crt",
                          ["cocycle", "crt", "--m", str(m), "--n", str(n),
                           "--k", str(k)], {"rc": 0, "ok": True}))
        m, n = rng.randint(2, 5), rng.randint(2, 4)
        extra.append(_job("cocycle-embed",
                          ["cocycle", "embed", "--m", str(m), "--n", str(n),
                           "--k", str(rng.randrange(m))],
                          {"rc": 0, "ok": True}))
    return _interleave(per_m + [extra])


# --------------------------------------------------------- lattice-certify

def _unimodular(rng, n, shears=4):
    t = oracles.identity(n)
    tinv = oracles.identity(n)
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for k in range(n):
            t[i][k] += c * t[j][k]
        for k in range(n):
            tinv[k][j] -= c * tinv[k][i]
    return t, tinv


def _split_p31():
    """Criterion 10's instance: N = 4R + 2f1 R + 2f2 R + f1 f2 R for two
    primes over 2 at p = 31, so M/N = R/(2, f1 f2) has 2-rank 10 and L0
    has 10 rows per group element."""
    p, h = 31, 15
    f1, f2 = oracles.factors_mod2(p)[:2]

    def vec(mask):
        return [(mask >> i) & 1 for i in range(h)]

    gens = [[4] + [0] * (h - 1), [2 * x for x in vec(f1)],
            [2 * x for x in vec(f2)], vec(oracles.f2_mul(f1, f2))]
    q = 10
    return _job("numring-split",
                ["numring", "split", "--file", "{lattice}", "--json",
                 "{out}"],
                {"rc": 0, "L0": q * h, "L1": (h - q) * h, "ambient": h * h,
                 "order": h},
                {"lattice": {"p": p, "rank": 1, "n_gens": gens}},
                once=True)


def _split_conjugated(rng, p, rank, once=False):
    """A free lattice conjugated by a random unimodular T, and the image
    of N0 = (+)_s a_s R with a_s in {1, 2}: [M:N] = 2^(h * #{a_s = 2})."""
    h = (p - 1) // 2
    d = rank * h
    t, tinv = _unimodular(rng, d)
    beta = oracles.matmul(oracles.matmul(t, oracles.beta_matrix(p, rank)),
                          tinv)
    scale = [rng.choice([1, 2]) for _ in range(rank)]
    if rank == 1:
        scale = [2]
    gens0 = []
    for s, a in enumerate(scale):
        for c in range(h):
            row = [0] * d
            row[s * h + c] = a
            gens0.append(row)
    # redundant generators: integer combinations of the ones above
    for _ in range(2):
        coef = [rng.randint(-1, 1) for _ in gens0]
        gens0.append([sum(c * g[i] for c, g in zip(coef, gens0))
                      for i in range(d)])
    q = h * scale.count(2)
    return _job("numring-split",
                ["numring", "split", "--file", "{lattice}", "--json",
                 "{out}"],
                {"rc": 0, "L0": q * h, "L1": (d - q) * h, "ambient": d * h,
                 "order": h},
                {"lattice": {"p": p, "rank": rank, "beta": beta,
                             "n_gens": oracles.matmul(gens0, tinv)}}, once)


def _involution(rng, p, shape):
    """trivial: Y = 1 on R (all of it is P+); eigen: Y = [[1, 2A], [0, -1]]
    on R^2 with A multiplication by a random ring element (P+ and P- of
    rank h each); free: the regular module R[Z/2Z], projective with no
    eigen-summand, so all of it is P0 with a Higman certificate."""
    h = (p - 1) // 2
    one = oracles.identity(h)
    zero = [[0] * h for _ in range(h)]
    if shape == "trivial":
        obj = {"p": p, "rank": 1, "y": one}
        expect = {"plus": h * h, "minus": 0, "zero": 0, "higman": False}
    elif shape == "eigen":
        b = oracles.beta_matrix(p, 1)
        a = zero
        power = one
        for _ in range(h):
            c = rng.randint(-1, 1)
            a = [[x + c * y for x, y in zip(ra, rp)]
                 for ra, rp in zip(a, power)]
            power = oracles.matmul(power, b)
        y = [ri + [2 * x for x in ra] for ri, ra in zip(one, a)]
        y += [[0] * h + [-x for x in ri] for ri in one]
        obj = {"p": p, "rank": 2, "y": y}
        expect = {"plus": h * h, "minus": h * h, "zero": 0,
                  "higman": False}
    else:
        y = [rz + ri for rz, ri in zip(zero, one)]
        y += [ri + rz for ri, rz in zip(one, zero)]
        obj = {"p": p, "rank": 2, "beta": oracles.beta_matrix(p, 2), "y": y}
        expect = {"plus": 0, "minus": 0, "zero": 2 * h * h, "higman": True}
    expect.update(rc=0, padding=0)
    return _job("numring-involution",
                ["numring", "involution", "--file", "{module}", "--json",
                 "{out}"], expect, {"module": obj})


def _resolve(rng, p, shape):
    """sign: R[Z/2Z]/(Y - 1) has relation kernel (1 + Y)R, a = 1, b = 0;
    mod2: R[Z/2Z]/(2, 1 - Y) has kernel (1 + Y)R (+) (1 - Y)R, a = b = 1;
    free: no relations, a = b = 0.  Redundant relation rows (integer
    combinations of the others) vary the presentation, not the module."""
    h = (p - 1) // 2
    rank = 1
    rows = []
    if shape == "sign":
        for c in range(h):
            row = [0] * (2 * h)
            row[c] = row[h + c] = 1
            rows.append(row)
        a, b = 1, 0
    elif shape == "mod2":
        for c in range(2 * h):
            row = [0] * (2 * h)
            row[c] = 2
            rows.append(row)
        for c in range(h):
            row = [0] * (2 * h)
            row[h + c] = 1
            row[c] = -1
            rows.append(row)
        a, b = 1, 1
    else:
        rank = rng.choice([1, 2])
        a, b = 0, 0
    if rows:
        for _ in range(2):
            coef = [rng.randint(-1, 1) for _ in rows]
            rows.append([sum(c * r[i] for c, r in zip(coef, rows))
                         for i in range(2 * h)])
        rng.shuffle(rows)
    return _job("numring-resolve",
                ["numring", "resolve", "--file", "{module}", "--json",
                 "{out}"],
                {"rc": 0, "a": a, "b": b, "rank": rank},
                {"module": {"p": p, "rank": rank, "relations": rows}})


def lattice_cycle(rng):
    # the p = 31 and p = 17 splits are the slowest jobs of a cycle and
    # run once per worker.  The twelve p = 13 rank-2 splits form the
    # group the tail job falls in.  The median job falls among the sign
    # and mod-2 resolutions at p = 7 to 13.  The free involution runs at
    # p = 5 and 7 only: at p = 11 it would take about as long as the rest
    # of the cycle, and timing it in every worker would leave no time to
    # time the other jobs more than once.
    splits = [_split_p31(), _split_conjugated(rng, 17, 2, once=True)]
    splits += [_split_conjugated(rng, 13, 2) for _ in range(12)]
    splits += [_split_conjugated(rng, p, rng.choice([1, 2])) for p in (7, 11)]
    invs = [_involution(rng, p, shape) for p in (5, 7, 11)
            for shape in ("free", "trivial", "eigen")
            if (p, shape) != (11, "free")]
    ress = [_resolve(rng, p, shape) for p in (5, 7, 11, 13)
            for shape in ("sign", "mod2", "free") for _ in range(3)]
    for g in (splits, invs, ress):
        rng.shuffle(g)
    return _interleave([splits, invs, ress])


# -------------------------------------------------------------- scan-sweep

def _pimsner(n, mult, expect_count=None, once=False):
    expect = oracles.pimsner_verdicts(mult)
    expect["rc"] = 0
    expect["count"] = expect_count
    return _job("pimsner-check",
                ["pimsner", "check", "--file", "{spec}"], expect,
                {"spec": {"n": n, "mult": mult}}, once)


def _pimsner_cyclic(rng, n):
    """A cycle with seeded labels plus two chords: strongly connected, so
    no subset is closed and no witness exists; one infinite label per
    row keeps it non-proper."""
    mult = [[0] * n for _ in range(n)]
    for i in range(n):
        mult[i][(i + 1) % n] = "inf"
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n)
        mult[i][j] = rng.choice([1, 2, "inf"])
    return _pimsner(n, mult, expect_count=0)


def _pimsner_diagonal(rng, n):
    """Diagonal with at least one infinite entry: every subset is closed
    under both inclusions, so 2^n - 2 witnesses."""
    diag = [rng.choice([1, 2, "inf"]) for _ in range(n)]
    diag[rng.randrange(n)] = "inf"
    mult = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return _pimsner(n, mult, expect_count=2 ** n - 2, once=True)


def _pimsner_random(rng, n):
    while True:
        mult = [[rng.choice([0] * 6 + [1, 2, "inf"]) for _ in range(n)]
                for _ in range(n)]
        if all(any(v != 0 for v in row) for row in mult):
            return _pimsner(n, mult)


def _fibonacci_query(rng):
    """n in a narrow band near 10^5, so each brute scan costs about the
    same; one in four is built to act (a product of primes = +-1 mod 5)."""
    if rng.random() < 0.25:
        while True:
            n = 1
            while n < 90000:
                q = rng.choice([11, 19, 29, 31, 41, 59, 61, 71, 79, 89])
                n *= q
            if n <= 100000:
                break
    else:
        n = rng.randint(90000, 100000)
    return _job("obstruction-fibonacci",
                ["obstruction", "fibonacci", "--n", str(n)],
                {"rc": 0, "n": n, "ok": oracles.fibonacci_acts(n)})


def _action_query(rng, kind):
    """One millisecond obstruction query: with m, n <= 12 the run time
    is almost all per-call CLI overhead."""
    m, n = rng.randint(1, 12), rng.randint(1, 12)
    k = rng.randrange(m)
    return _job("obstruction-" + kind,
                ["obstruction", kind, "--m", str(m), "--n", str(n),
                 "--k", str(k)],
                {"rc": 0, "aut": oracles.automorphism_action(m, n, k),
                 "ok": oracles.tensor_action(m, n, k)})


def _small(rng, kind):
    """Other quick queries: fusion determinants and Chebyshev structure
    at levels <= 5, and the number ring's mu and its factors mod 2."""
    if kind == "det":
        k = rng.randint(1, 5)
        det = oracles.tlj_det(k)
        return _job("fusion-det", ["fusion", "det", "--tlj", str(k)],
                    {"rc": 0, "det": det, "radical": oracles.radical(det)})
    if kind == "cheb":
        k = rng.randint(1, 5)
        return _job("fusion-cheb", ["fusion", "cheb", "--level", str(k)],
                    {"rc": 0, "ok": True})
    p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31])
    if kind == "factor2":
        f = oracles.two_order(p)
        return _job("numring-factor2", ["numring", "factor2", "--p", str(p)],
                    {"rc": 0, "f": f, "count": (p - 1) // 2 // f,
                     "mu2": oracles.mu_mod2(p)})
    return _job("numring-minpoly", ["numring", "minpoly", "--p", str(p)],
                {"rc": 0, "mu": oracles.minpoly(p)})


def scan_cycle(rng):
    # the two diagonal scans, which list 2^13 - 2 witnesses, are the
    # slowest jobs of a cycle and run once per worker.  The twelve
    # cyclic n = 14 scans form the group the tail job falls in; the
    # random scans and the sweeps cost less than those.
    slow = [_pimsner_cyclic(rng, 14) for _ in range(12)]
    slow += [_pimsner_diagonal(rng, 13) for _ in range(2)]
    slow += [_pimsner_random(rng, 12) for _ in range(4)]
    for _ in range(3):
        n = rng.randint(950, 1050)
        slow.append(_job("sweep-fibonacci",
                         ["sweep", "fibonacci", "--max-n", str(n)],
                         {"rc": 0, "n": n,
                          "accepted": oracles.fibonacci_accepted(n)}))
    mx = rng.randint(20, 28)
    slow.append(_job("sweep-agreement",
                     ["sweep", "agreement", "--max", str(mx)],
                     {"rc": 0, "max": mx,
                      "checked": oracles.agreement_triples(mx)}))
    slow += [_fibonacci_query(rng) for _ in range(10)]
    slow += [_small(rng, kind) for kind in ("det", "cheb", "factor2",
                                            "minpoly") for _ in range(2)]
    # most jobs are action queries, so job_p50_s measures the per-call
    # overhead of the CLI
    quick = [_action_query(rng, kind) for kind in ("cuntz", "tensor",
                                                   "intro")
             for _ in range(24)]
    for g in (slow, quick):
        rng.shuffle(g)
    return _interleave([slow, quick])


WORKLOADS = {
    "cocycle-classify": cocycle_cycle,
    "lattice-certify": lattice_cycle,
    "scan-sweep": scan_cycle,
}


def build(workload: str, seed: int) -> list:
    """The cycle of jobs; the same (workload, seed) gives the same jobs."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
