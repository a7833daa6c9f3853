"""Slow, independent routes kept as test oracles for ``exactalg``.

Production code answers every Z-linear question through the one Smith
elimination; the routes here are the ones it replaced: the Bareiss
determinant, the per-vector Smith back-substitution, the full re-check
of a Smith form, and float-friendly polynomial evaluation.  For
``fusion``: the fold of every label that built the dk module and the
pairwise check of the module axioms, both replaced by the module's
generator and its Chebyshev certificate.
"""

from __future__ import annotations

from operator import mul

from cyclotwist.exactalg import IntMatrix, PolyZ, SNFResult, smith_normal_form
from cyclotwist.fusion import FusionRing, tlj

# snf_verify checks det(U), det(V) = +-1 only up to this many rows: Bareiss
# minors of large transforms can be huge
_DET_CHECK_MAX_DIM = 64

# the polynomial X
X = PolyZ([0, 1])


def apply(M: IntMatrix, vector) -> list:
    """M times a column vector, as a plain list."""
    v = list(vector)
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    n, e = M.cols, M.entries
    return [sum(map(mul, e[i * n:(i + 1) * n], v)) for i in range(M.rows)]


def poly_eval(p: PolyZ, x):
    """p at an int, Fraction or float, by Horner's rule."""
    acc = 0 * x if p.coeffs else 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def det_bareiss(A: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = M[k][k]
        for i in range(k + 1, n):
            Mi, Mk = M[i], M[k]
            mik = Mi[k]
            for j in range(k + 1, n):
                Mi[j] = (Mi[j] * pk - mik * Mk[j]) // prev
            Mi[k] = 0
        prev = pk
    return sign * M[n - 1][n - 1]


def snf_verify(r: SNFResult, A: IntMatrix) -> bool:
    """Re-check every Smith-form invariant of r against A: S = U*A*V,
    a non-negative diagonal chain d_1 | d_2 | ..., zero off the
    diagonal, and unimodular U and V (up to ``_DET_CHECK_MAX_DIM`` rows)."""
    if r.U @ A @ r.V != r.S:
        return False
    d = r.diagonal()
    if any(x < 0 for x in d):
        return False
    for a, b in zip(d, d[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    if any(x for i, row in enumerate(r.S.to_rows())
           for j, x in enumerate(row) if i != j):
        return False
    if max(A.rows, A.cols) <= _DET_CHECK_MAX_DIM:
        if abs(det_bareiss(r.U)) != 1 or abs(det_bareiss(r.V)) != 1:
            return False
    return True


def solve_one(A: IntMatrix, b, snf: SNFResult | None = None):
    """An integer x with A*x = b, or None, one right-hand side per call:
    with S = U*A*V diagonal, s_i * y_i = (U*b)_i one coordinate at a
    time, then x = V*y."""
    b = list(b)
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    if snf is None:
        snf = smith_normal_form(A)
    diag = snf.diagonal()
    y = [0] * snf.V.rows
    for i, ci in enumerate(apply(snf.U, b)):
        s = diag[i] if i < len(diag) else 0
        if s == 0:
            if ci:
                return None
        else:
            q, r = divmod(ci, s)
            if r:
                return None
            y[i] = q
    return apply(snf.V, y)


def contains_all(x, y) -> bool:
    """Every row of y lies in the Z-span of the rows of x: one Smith form
    of x^T, then one back-substitution per row of y."""
    if not x:
        return not any(any(v) for v in y)
    At = IntMatrix.from_rows(x).transpose()
    snf = smith_normal_form(At)
    return all(solve_one(At, v, snf) is not None for v in y)


def fold_action(k: int) -> list:
    """The action of every label of tlj(k) on the dk module: fusion with
    pi_j in tlj(k), then indices folded through i -> min(i, k-i)."""
    R = tlj(k)
    rank = k // 2 + 1
    action = []
    for j in range(R.rank):
        rows = [[0] * rank for _ in range(rank)]
        for b in range(rank):
            for h in range(R.rank):
                rows[min(h, k - h)][b] += R.N[h][b][j]
        action.append(IntMatrix.from_rows(rows))
    return action


def module_axioms_hold(base: FusionRing, action) -> bool:
    """The unit acts as the identity and action[a] @ action[b] =
    sum_t N[t][a][b] action[t] for every pair of labels: rank^2
    products of the action matrices."""
    n = action[base.unit].rows
    if action[base.unit] != IntMatrix.identity(n):
        return False
    r = base.rank
    for a in range(r):
        for b in range(r):
            rhs = IntMatrix.zeros(n, n)
            for t in range(r):
                if base.N[t][a][b]:
                    rhs = rhs + action[t].scale(base.N[t][a][b])
            if action[a] @ action[b] != rhs:
                return False
    return True
