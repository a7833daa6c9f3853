"""Exact linear algebra over Z and GF(2): the verification backbone.

Everything downstream (fusion determinants, coboundary solving, lattice
certificates, resolution exactness) reduces to integer matrix arithmetic.
All entries are Python ints, so nothing overflows and floats appear nowhere
in this module.  Each solver exists once, here:

* ``IntMatrix``          dense integer matrix, immutable, with a kept view of
  its nonzero entries; products dot a dense row, add rows for a sparse one
* ``_smith``             the one Smith elimination, S = U*A*V with
  unimodular U, V and the divisibility chain d_1 | d_2 | ....  Row
  operations reach whatever sits beside A, and column operations what
  sits below, so each front end puts there exactly what it reads:
  - ``elementary_divisors``: nothing; the bare diagonal, whose product is
    |det A| for a square A
  - ``kernel_basis``: I_n below, for V
  - ``row_basis``: A beside, for U*A
  - ``coordinates``: the batch beside B^T, for U*w, and I_k below, for V
  - ``smith_normal_form``: I_m beside and I_n below, for U and V.  No
    library code calls it; it is the reference the tests compare against
* ``coordinates``        the one Z-linear solver: for a batch of rows w,
  an x with x*B = w or None, from one elimination on B^T
* ``F2Echelon``          the one GF(2) echelon: rank, residue,
  coordinate-tracked solve and the reduced form with its free columns,
  on vectors packed into int bitmasks by ``pack_mod2``
* ``factorize`` / ``radical`` / ``is_prime``  the integer helpers
* ``charpoly_exact``     division-free characteristic polynomial (Berkowitz)
* ``chebyshev_u``        U_n(X/2) as an integer polynomial
* ``PolyZ`` / ``PolyF2``  dense polynomials, lowest degree first
"""

from __future__ import annotations

from operator import index, mul

from ._record import Record

class IntMatrix:
    """Dense integer matrix, entries stored row-major, immutable."""

    __slots__ = ("rows", "cols", "entries", "_nonzero")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        data = tuple(map(index, entries))
        if len(data) != rows * cols:
            raise ValueError(
                "entry count %d does not match %dx%d" % (len(data), rows, cols)
            )
        self.rows = rows
        self.cols = cols
        self.entries = data
        self._nonzero = None

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        m = len(rows_list)
        n = len(rows_list[0]) if m else 0
        if any(len(r) != n for r in rows_list):
            raise ValueError("ragged rows")
        return cls(m, n, [e for r in rows_list for e in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        entries = [0] * (n * n)
        entries[::n + 1] = [1] * n
        return cls(n, n, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        n = self.cols
        return list(self.entries[i * n : (i + 1) * n])

    def to_rows(self) -> list:
        n = self.cols
        e = self.entries
        return [list(e[i * n : (i + 1) * n]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        m, n, e = self.rows, self.cols, self.entries
        return IntMatrix(n, m, [e[i * n + j] for j in range(n) for i in range(m)])

    def nonzero_rows(self) -> tuple:
        """Per row, the (column, entry) pairs of its nonzero entries, built
        at the first call: the matrix never changes."""
        if self._nonzero is None:
            n, e = self.cols, self.entries
            self._nonzero = tuple(tuple((j, x) for j, x in enumerate(
                e[i * n:(i + 1) * n]) if x) for i in range(self.rows))
        return self._nonzero

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        n = other.cols
        b = other.to_rows()
        cols = None
        out = []
        # a row at least 3/4 nonzero takes dot products with the columns;
        # a sparser one sums the rows of other it selects, skipping zero
        # a_ik (the numring factors are mostly zero)
        for ai in self.to_rows():
            if ai and 4 * (len(ai) - ai.count(0)) >= 3 * len(ai):
                cols = cols or list(zip(*b))
                out += [sum(map(mul, ai, c)) for c in cols]
                continue
            acc = [0] * n
            for x, bk in zip(ai, b):
                if x:
                    acc = [s + x * y for s, y in zip(acc, bk)]
            out += acc
        return IntMatrix(self.rows, n, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows, self.cols, [x + y for x, y in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            self.rows, self.cols, [x - y for x, y in zip(self.entries, other.entries)]
        )

    def scale(self, c: int) -> "IntMatrix":
        c = index(c)
        return IntMatrix(self.rows, self.cols, [c * x for x in self.entries])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "IntMatrix.from_rows(%r)" % (self.to_rows(),)


class SNFResult(Record):
    """Smith normal form S = U*A*V with unimodular U, V.

    Diagonal entries are non-negative and each divides the next.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list:
        return [self.S.at(i, i) for i in range(min(self.S.rows, self.S.cols))]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _diagonalize(M: list, m: int, n: int) -> None:
    """Smith-reduce the leading m x n block of the rows M in place.

    Pivot choice: the first entry of least absolute value in the trailing
    block, row by row, which keeps growth tame (Cohen, GTM 138, 2.4.4).
    No entry beats a unit, so the search stops at the first +-1, and a
    pivot 1 skips the scan that checks it divides the trailing block.

    Rows past the m-th record the column operations (V, if I_n sits
    below A), and columns past the n-th take the row operations (U times
    whatever sits beside A).  No step touches an entry it cannot change.
    At step t, rows t..m-1 are zero left of column t and the rows above t
    are zero in A from column t on, so row operations, sign flips and the
    fold run from column t, and column swaps from row t.  Once column t
    is zero below the pivot, a column operation changes only the pivot
    row and the rows of V that are nonzero in column t: without
    transforms, one entry.
    """
    vrows = M[m:]

    def col_swap(j, k):
        for i in range(t, len(M)):
            r = M[i]
            r[j], r[k] = r[k], r[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        pi = pj = -1
        best = 0
        for i in range(t, m):
            Mi = M[i]
            for j in range(t, n):
                v = Mi[j]
                if v and (pi < 0 or -best < v < best):
                    pi, pj = i, j
                    best = abs(v)
                    if best == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            M[t], M[pi] = M[pi], M[t]
        if pj != t:
            col_swap(t, pj)
        while True:
            Mt = M[t]
            if Mt[t] < 0:
                Mt[t:] = [-x for x in Mt[t:]]
            p = Mt[t]
            tail = Mt[t:]
            restart = False
            for i in range(t + 1, m):
                Mi = M[i]
                v = Mi[t]
                if v:
                    q = v // p
                    Mi[t:] = [a - q * b for a, b in zip(Mi[t:], tail)]
                    if Mi[t]:
                        # remainder is a strictly smaller pivot candidate
                        M[t], M[i] = Mi, Mt
                        restart = True
                        break
            if restart:
                continue
            # column t is now zero below the pivot
            live = [Mt] + [r for r in vrows if r[t]]
            for j in range(t + 1, n):
                v = Mt[j]
                if v:
                    q = v // p
                    for r in live:
                        r[j] -= q * r[t]
                    if Mt[j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # the pivot must divide the trailing block (a unit always does):
            # else fold the first row holding an entry it misses into the
            # pivot row and re-eliminate
            bad = None if p == 1 else next(
                (r for r in M[t + 1:m] if any(x % p for x in r[t + 1:n])),
                None)
            if bad is None:
                break
            Mt[t:] = [a + b for a, b in zip(Mt[t:], bad[t:])]
        t += 1


def _smith(A: IntMatrix, beside=None, below=False) -> list:
    """The one elimination: A with the m rows ``beside`` next to it and,
    if ``below``, I_n under it.  Returns the rows, whose leading m x n
    block is then S = U*A*V, with U*beside to its right and V under it."""
    M = A.to_rows()
    if beside is not None:
        M = [r + list(b) for r, b in zip(M, beside)]
    if below:
        M += IntMatrix.identity(A.cols).to_rows()
    _diagonalize(M, A.rows, A.cols)
    return M


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Diagonalize A over Z by unimodular row and column operations,
    eliminating on [[A, I_m], [I_n]] so that U and V build up beside
    and below A.  No library code calls it: it is the tests' reference."""
    m, n = A.rows, A.cols
    M = _smith(A, IntMatrix.identity(m).to_rows(), below=True)
    return SNFResult(
        S=IntMatrix(m, n, [x for r in M[:m] for x in r[:n]]),
        U=IntMatrix(m, m, [x for r in M[:m] for x in r[n:]]),
        V=IntMatrix(n, n, [x for r in M[m:] for x in r]),
    )


def elementary_divisors(A: IntMatrix) -> list:
    """The Smith-form diagonal of A, without the transforms."""
    M = _smith(A)
    return [M[i][i] for i in range(min(A.rows, A.cols))]


class PolyZ:
    """Integer polynomial, dense coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(map(index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    def degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "PolyZ") -> "PolyZ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return PolyZ(out)

    def __sub__(self, other: "PolyZ") -> "PolyZ":
        return self + (-other)

    def __neg__(self) -> "PolyZ":
        return PolyZ([-c for c in self.coeffs])

    def __mul__(self, other: "PolyZ") -> "PolyZ":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyZ([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return PolyZ(out)

    def scale(self, c: int) -> "PolyZ":
        return PolyZ([c * x for x in self.coeffs])

    def shift(self, k: int) -> "PolyZ":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return PolyZ([0] * k + list(self.coeffs))

    def divmod_exact(self, divisor: "PolyZ"):
        """Polynomial division; requires every quotient step to stay in Z.

        Works whenever the divisor is monic (the only case needed here)
        or the division happens to be exact; raises otherwise.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = list(divisor.coeffs)
        dd = len(d) - 1
        lead = d[-1]
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i] == 0:
                continue
            if rem[i] % lead:
                raise ArithmeticError("division not exact over Z")
            f = rem[i] // lead
            q[i - dd] = f
            for j in range(dd + 1):
                rem[i - dd + j] -= f * d[j]
        return PolyZ(q), PolyZ(rem)

    def divides(self, other: "PolyZ") -> bool:
        try:
            _, r = other.divmod_exact(self)
        except ArithmeticError:
            return False
        return r.is_zero()

    def compose(self, inner: "PolyZ") -> "PolyZ":
        """self(inner(X)) by Horner's rule on polynomials."""
        acc = PolyZ([])
        for c in reversed(self.coeffs):
            acc = acc * inner + PolyZ([c])
        return acc

    def eval_matrix(self, M: IntMatrix) -> IntMatrix:
        """Evaluate at a square integer matrix."""
        if M.rows != M.cols:
            raise ValueError("matrix evaluation needs a square matrix")
        n = M.rows
        acc = IntMatrix.zeros(n, n)
        ident = IntMatrix.identity(n)
        for c in reversed(self.coeffs):
            acc = acc @ M + ident.scale(c)
        return acc

    def reduce_mod2(self) -> "PolyF2":
        return PolyF2(pack_mod2(self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "PolyZ(%r)" % (list(self.coeffs),)


class PolyF2:
    """Polynomial over the two-element field, packed into an int bitmask.

    Bit i is the coefficient of X^i, so normalization is automatic.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        if bits < 0:
            raise ValueError("negative bitmask")
        self.bits = index(bits)

    def coeffs(self) -> list:
        return [(self.bits >> i) & 1 for i in range(self.degree() + 1)]

    def degree(self) -> int:
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_one(self) -> bool:
        return self.bits == 1

    def __add__(self, other: "PolyF2") -> "PolyF2":
        return PolyF2(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "PolyF2") -> "PolyF2":
        a, b = self.bits, other.bits
        out = 0
        shift = 0
        while b:
            if b & 1:
                out ^= a << shift
            b >>= 1
            shift += 1
        return PolyF2(out)

    def __mod__(self, other: "PolyF2") -> "PolyF2":
        if other.bits == 0:
            raise ZeroDivisionError("mod by zero polynomial")
        r = self.bits
        d = other.bits
        dd = d.bit_length()
        while r.bit_length() >= dd:
            r ^= d << (r.bit_length() - dd)
        return PolyF2(r)

    def __floordiv__(self, other: "PolyF2") -> "PolyF2":
        if other.bits == 0:
            raise ZeroDivisionError("division by zero polynomial")
        r = self.bits
        d = other.bits
        dd = d.bit_length()
        q = 0
        while r.bit_length() >= dd:
            s = r.bit_length() - dd
            q ^= 1 << s
            r ^= d << s
        return PolyF2(q)

    def gcd(self, other: "PolyF2") -> "PolyF2":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a

    def powmod(self, e: int, mod: "PolyF2") -> "PolyF2":
        result = PolyF2(1) % mod
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def derivative(self) -> "PolyF2":
        # only odd-degree terms survive in characteristic 2
        out = 0
        b = self.bits >> 1
        i = 0
        while b:
            if (b & 1) and i % 2 == 0:
                out |= 1 << i
            b >>= 1
            i += 1
        return PolyF2(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyF2) and self.bits == other.bits

    def __hash__(self):
        return hash(("PolyF2", self.bits))

    def __repr__(self):
        if self.bits == 0:
            return "PolyF2(0)"
        terms = []
        for i in reversed(range(self.degree() + 1)):
            if (self.bits >> i) & 1:
                terms.append("1" if i == 0 else ("X" if i == 1 else "X^%d" % i))
        return "PolyF2<%s>" % " + ".join(terms)


def _chebyshev(n: int, first: int) -> PolyZ:
    """P_n for P_0 = first, P_1 = X, P_{n+1} = X*P_n - P_{n-1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = PolyZ([first])
    if n == 0:
        return prev
    cur = PolyZ([0, 1])
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1) - prev
    return cur


def chebyshev_matrices(M: IntMatrix, first: int, count: int) -> list:
    """The polynomials P_0, ..., P_{count-1} of ``_chebyshev`` at the square
    matrix M, by its recurrence: one product per term, no Horner pass."""
    seq = [IntMatrix.identity(M.rows).scale(first), M][:count]
    while len(seq) < count:
        seq.append(M @ seq[-1] - seq[-2])
    return seq


def chebyshev_u(n: int) -> PolyZ:
    """U_n(X/2) as an integer polynomial.

    U_0 = 1, U_1(X/2) = X, U_{n+1}(X/2) = X*U_n(X/2) - U_{n-1}(X/2).

    >>> chebyshev_u(2)
    PolyZ([-1, 0, 1])
    """
    return _chebyshev(n, 1)


def chebyshev_t2(n: int) -> PolyZ:
    """2*T_n(X/2) as an integer polynomial (first kind, rescaled).

    2*T_0 = 2, 2*T_1(X/2) = X, and the same three-term recurrence as U.
    Sends 2cos(t) to 2cos(n*t), which is how Galois conjugation acts on
    the real cyclotomic generator.
    """
    return _chebyshev(n, 2)


def charpoly_exact(A: IntMatrix) -> PolyZ:
    """Characteristic polynomial det(X*I - A), division-free (Berkowitz)."""
    if A.rows != A.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = A.rows
    M = A.to_rows()
    # coefficients highest degree first during the recursion
    C = [1]
    for k in range(n):
        a = M[k][k]
        R = M[k][:k]
        col = [M[i][k] for i in range(k)]
        B = [row[:k] for row in M[:k]]
        toep = [1, -a]
        v = col
        for _ in range(k):
            toep.append(-sum(x * y for x, y in zip(R, v)))
            v = [sum(B[i][j] * v[j] for j in range(k)) for i in range(k)]
        newC = [0] * (k + 2)
        for i, ti in enumerate(toep):
            if ti:
                for j, cj in enumerate(C):
                    if i + j < k + 2:
                        newC[i + j] += ti * cj
        C = newC
    return PolyZ(list(reversed(C)))


def coordinates(B: IntMatrix, rows) -> list:
    """For each row w, an integer x with x*B = w, or None when w lies
    outside the Z-span of the rows of B; any solution if B is rank
    deficient.

    One elimination on [[B^T, W], [I_k]], the batch as the columns of W,
    serves it all: it leaves the Smith form S = U*B^T*V with U*w in
    place of each w and V below.  x*B = w reads S*y = U*w with x = V*y,
    so each diagonal entry s_i must divide coordinate i of U*w (past the
    diagonal, or at s_i = 0, it must be zero).  U is never built.
    """
    rows = [list(map(index, w)) for w in rows]
    k, n = B.rows, B.cols
    if any(len(w) != n for w in rows):
        raise ValueError("vector length mismatch")
    M = _smith(B.transpose(), [[w[i] for w in rows] for i in range(n)],
               below=True)
    V = M[n:]
    out = []
    for j in range(k, k + len(rows)):
        y = [0] * k
        for i, r in enumerate(M[:n]):
            c = r[j]
            s = r[i] if i < k else 0
            # the remainder of c by s, all of c when s = 0
            if c % s if s else c:
                y = None
                break
            if s:
                y[i] = c // s
        out.append(None if y is None else [sum(map(mul, v, y)) for v in V])
    return out


def kernel_basis(A: IntMatrix) -> list:
    """Basis of the integer kernel {x : A*x = 0}, as a list of vectors.

    The kernel is spanned by the columns of V beyond the SNF rank; that
    span is saturated, so it is the full kernel lattice.
    """
    m, n = A.rows, A.cols
    M = _smith(A, below=True)
    r = sum(1 for i in range(min(m, n)) if M[i][i])
    return [[row[j] for row in M[m:]] for j in range(r, n)]


def row_basis(A: IntMatrix) -> list:
    """Integer basis of the Z-span of the rows of A: the nonzero rows of
    U*A for the Smith form S = U*A*V, read from the elimination on
    [A, A], whose right half becomes U*A.  Neither U nor V is built."""
    n = A.cols
    return [r[n:] for r in _smith(A, A.to_rows()) if any(r[:n])]


def pack_mod2(vec) -> int:
    """An integer vector reduced mod 2, packed as a bitmask: bit j is set
    iff vec[j] is odd."""
    bits = 0
    for j, x in enumerate(vec):
        if x & 1:
            bits |= 1 << j
    return bits


class F2Echelon:
    """Echelon basis of a subspace of GF(2)^n, vectors packed as bitmasks.

    Each row is keyed by its pivot, its highest set bit, and carries the
    combination of inserted vectors that produced it (bit i for the i-th
    insertion), so ``solve`` returns coordinates in the inserted vectors.
    ``reduce`` brings the rows to the reduced form, which is unique for
    the span, and ``normal_form`` then gives the canonical coset
    representative: zero on every pivot column.
    """

    def __init__(self, vectors=()):
        self.rows = {}      # pivot -> row
        self.combos = {}    # pivot -> inserted vectors summing to the row
        self.inserted = 0
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, w: int):
        """(residue, combination) after clearing leading pivots of w; the
        residue is zero iff w lies in the span."""
        combo = 0
        while w:
            piv = w.bit_length() - 1
            row = self.rows.get(piv)
            if row is None:
                break
            w ^= row
            combo ^= self.combos[piv]
        return w, combo

    def residue(self, w: int) -> int:
        return self._reduce(w)[0]

    def add(self, w: int) -> bool:
        """Insert w; True iff it was independent of the span so far."""
        w, combo = self._reduce(w)
        combo ^= 1 << self.inserted
        self.inserted += 1
        if not w:
            return False
        piv = w.bit_length() - 1
        self.rows[piv] = w
        self.combos[piv] = combo
        return True

    def solve(self, w: int):
        """Bitmask of inserted vectors summing to w, or None."""
        w, combo = self._reduce(w)
        return None if w else combo

    def reduce(self) -> None:
        """Clear every pivot column outside its own row."""
        for piv in sorted(self.rows, reverse=True):
            row, combo = self.rows[piv], self.combos[piv]
            for other, orow in self.rows.items():
                if other != piv and (orow >> piv) & 1:
                    self.rows[other] = orow ^ row
                    self.combos[other] ^= combo

    def normal_form(self, w: int) -> int:
        """w with every pivot column cleared; needs ``reduce`` first."""
        for piv, row in self.rows.items():
            if (w >> piv) & 1:
                w ^= row
        return w


def factorize(n: int) -> dict:
    """Prime factorization by trial division; {p: exponent}, {} for 1."""
    if n < 1:
        raise ValueError("need a positive integer")
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def radical(n: int) -> int:
    """Product of the distinct prime divisors."""
    r = 1
    for p in factorize(n):
        r *= p
    return r


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}
