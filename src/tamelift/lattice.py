"""Exact integer linear algebra, over Z and Z/N, used by every other module.

Everything works on tuples of Python ints (arbitrary precision); no floats.
Matrices are tuples of row tuples.
"""
from __future__ import annotations

import struct
import sys
from math import gcd, prod
from operator import add, lshift, mul, neg, sub

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def is_strict_int(value) -> bool:
    """True for an int that is not a bool.  A float or bool equal to an int
    hashes alike, so accepting one would let it share (and fill) every cache
    keyed on integer data."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_ints(**values) -> None:
    """Raise ValueError naming the first value that is not a strict int."""
    for name, value in values.items():
        if not is_strict_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def as_tuple(value, what: str, error=ValueError) -> tuple:
    """tuple(value), or error(message) naming `what` when value is not
    iterable, as a JSON number or null where a list belongs."""
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{what} must be a list, got {value!r}") from None


def as_rows(value, what: str, error=ValueError) -> tuple[tuple, ...]:
    """as_tuple for a list of lists, such as a matrix."""
    return tuple(as_tuple(row, f"each row of {what}", error)
                 for row in as_tuple(value, what, error))


# ---------------------------------------------------------------------------
# vectors

def dot(u: Vec, v: Vec) -> int:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(map(add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(map(sub, u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vec_scale(c: int, u: Vec) -> Vec:
    return tuple([c * a for a in u])


def vec_mod(u: Vec, n: int) -> Vec:
    return tuple([a % n for a in u])


def zero_vec(n: int) -> Vec:
    return (0,) * n


# ---------------------------------------------------------------------------
# matrices

def identity_matrix(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(a: Mat, x: Vec) -> Vec:
    n = len(x)
    for row in a:
        if len(row) != n:
            raise ValueError(f"dimension mismatch: {len(row)} vs {n}")
    return tuple([sum(map(mul, row, x)) for row in a])


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_scale(c: int, a: Mat) -> Mat:
    return tuple(vec_scale(c, row) for row in a)


def mat_pow(a: Mat, k: int) -> Mat:
    if k < 0:
        raise ValueError("negative power not supported")
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


class PackedRows(dict):
    """Integer rows packed column-wise, one entry per field width k, built
    on first use: self[k] = (columns, low, high, k).  Column c is
    sum_i rows[i][c] . 2^(k.i), so sum_c y_c . column_c holds row_i . y in
    field i; low has a 1 and high a 2^(k-1) in each field.  `at(size)` takes
    the least power of two k >= 8 with 2^(k-1) > (largest L1 norm of a
    row) . size, which bounds every |row_i . y| when no |y_c| exceeds size,
    so each field of sum_c y_c . column_c + high lies in [1, 2^k).  Every
    width is a whole number of bytes, and `_unpack_fields` reads the fields
    of one up to 64 bits wide with one cast.  Keyed by k alone, there are
    at most log2(widest k) + 1 entries."""

    __slots__ = ("rows", "norm")

    def __init__(self, rows: Mat):
        self.rows = rows
        self.norm = max([sum(map(abs, row)) for row in rows], default=0)

    def __missing__(self, k: int) -> tuple[Vec, int, int, int]:
        shifts = range(0, k * len(self.rows), k)
        low = ((1 << k * len(self.rows)) - 1) // ((1 << k) - 1)
        columns = tuple([sum(map(lshift, column, shifts))
                         for column in zip(*self.rows)])
        entry = self[k] = (columns, low, low << k - 1, k)
        return entry

    def at(self, size: int) -> tuple[Vec, int, int, int]:
        return self[1 << max(3, (self.norm * size).bit_length().bit_length())]

    def products(self, y: Vec) -> Vec:
        """Every row . y, in row order, off one product at y's width."""
        columns, _, high, k = self.at(max(map(abs, y)) if y else 0)
        return _unpack_fields(sum(map(mul, y, columns)) + high, high, k,
                             len(self.rows))


# the native signed format of each item size struct offers, in bytes
_SIGNED_FORMATS = {struct.calcsize(code): code for code in "bhilq"}


def _unpack_fields(packed: int, high: int, k: int, count: int) -> Vec:
    """The low `count` k-bit fields of packed, each less the 2^(k-1) that
    high holds in it, low field first.  With each field in [1, 2^k), packed
    xor high holds every value in k-bit two's complement and no carry
    crosses a field, so for k of 8 to 64 one native signed cast reads them
    all; wider fields are read one by one."""
    code = _SIGNED_FORMATS.get(k >> 3)
    if code is not None:
        return tuple(memoryview((packed ^ high).to_bytes(
            (k >> 3) * count, sys.byteorder)).cast(code).tolist())
    mask, half = (1 << k) - 1, 1 << k - 1
    return tuple([(packed >> shift & mask) - half
                  for shift in range(0, k * count, k)])


# ---------------------------------------------------------------------------
# Smith normal form with transforms

def smith_normal_form(a: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal,
    nonnegative, and each diagonal entry dividing the next.

    One augmented matrix [[a, 1_m], [1_n, 0]] is reduced: row operations act
    on its first m rows and so build u in columns n.., column operations act
    on its first n columns and so build v in rows m..  Pivoting is
    deterministic (smallest absolute value, then row-major position), so
    downstream canonical solutions are reproducible.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    w = [[*row, *[0] * m] for row in a] + [[0] * (n + m) for _ in range(n)]
    for i in range(m):
        w[i][n + i] = 1
    for j in range(n):
        w[m + j][j] = 1

    def add_row(i: int, j: int, c: int) -> None:  # row_i += c*row_j
        wi, wj = w[i], w[j]
        for k in range(n + m):
            wi[k] += c * wj[k]

    def add_col(j: int, i: int, c: int) -> None:  # col_j += c*col_i
        for row in w:
            row[j] += c * row[i]

    def swap_cols(i: int, j: int) -> None:
        for row in w:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # the smallest nonzero entry of the trailing submatrix is the pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = w[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        w[t], w[best[1]] = w[best[1]], w[t]
        swap_cols(t, best[2])
        while True:  # clear the pivot's column, then its row
            p = w[t][t]
            for i in range(t + 1, m):
                if w[i][t]:
                    add_row(i, t, -(w[i][t] // p))
                    if w[i][t]:  # remainder smaller than |p|: new pivot
                        w[t], w[i] = w[i], w[t]
                        break
            else:
                for j in range(t + 1, n):
                    if w[t][j]:
                        add_col(j, t, -(w[t][j] // p))
                        if w[t][j]:
                            swap_cols(t, j)
                            break
                else:
                    break
        # the pivot must divide every remaining entry
        for i in range(t + 1, m):
            if any(x % p for x in w[i][t + 1:n]):
                add_row(t, i, 1)
                break
        else:
            if p < 0:
                w[t] = [-x for x in w[t]]
            t += 1
    top, bottom = w[:m], w[m:]
    return (tuple([tuple(row[:n]) for row in top]),
            tuple([tuple(row[n:]) for row in top]),
            tuple([tuple(row[:n]) for row in bottom]))


# ---------------------------------------------------------------------------
# lattices

def hnf_rows(rows) -> Mat:
    """Canonical (row Hermite form) basis of the lattice spanned by the rows:
    pivots positive and strictly to the right as you go down, entries above a
    pivot reduced into [0, pivot).  The number of its rows is the rank of
    the given rows, and an r x r integer matrix is invertible over Z exactly
    when its form is the r x r identity."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    n = len(work[0])
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            while work[i][col] != 0:
                q = work[r][col] // work[i][col]
                work[r] = [a - q * b for a, b in zip(work[r], work[i])]
                work[r], work[i] = work[i], work[r]
        if work[r][col] < 0:
            work[r] = [-a for a in work[r]]
        p = work[r][col]
        for i in range(r):
            q = work[i][col] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def integer_kernel_basis(a: Mat, n: int) -> Mat:
    """Canonical basis of {x in Z^n : a x = 0}, for a with n columns (n is
    passed, so a may have no rows); this kernel is saturated.

    Row operations take [a^T | 1_n] to its Hermite form [h | t] with t
    unimodular and h = t a^T, so the rows of t where h is zero are a basis
    of the kernel, and already in Hermite form."""
    m = len(a)
    rows = hnf_rows(tuple(row[j] for row in a)
                    + tuple(int(i == j) for i in range(n)) for j in range(n))
    return tuple(row[m:] for row in rows if not any(row[:m]))


class ModSolver:
    """What solving a x = b (mod n) needs of a's Smith form (d, u, v), as
    `smith_normal_form` returns it, and of n, computed once: u, v, and for
    each diagonal entry d_i the step (g_i = gcd(d_i, n), n / g_i, inverse
    of d_i / g_i mod n / g_i, which is 0 when n / g_i = 1)."""

    __slots__ = ("modulus", "u", "v", "steps")

    def __init__(self, snf: tuple[Mat, Mat, Mat], n: int):
        d, u, v = snf
        steps = []
        for i in range(min(len(u), len(v))):
            g = gcd(d[i][i], n)
            nn = n // g
            steps.append((g, nn, pow(d[i][i] // g % nn, -1, nn)))
        self.modulus, self.u, self.v = n, u, v
        self.steps = tuple(steps)

    @property
    def kernel_count(self) -> int:
        """Size of the kernel of a x = 0 (mod n): gcd(d_i, n) per diagonal
        entry, and n per column beyond the diagonal."""
        return prod(g for g, _, _ in self.steps) * self.modulus ** (
            len(self.v) - len(self.steps))

    def solve(self, b: Vec) -> Vec | None:
        """The canonical solution x in [0, n)^cols of a x = b (mod n), or
        None: the Smith-form particular solution with every free parameter
        set to 0, coordinates then reduced into [0, n).  y_i = (c_i / g_i)
        . inv_i mod n / g_i needs no prior reduction of c = u b mod n: g_i
        divides n.  u is square, so one length check of b (ValueError)
        covers every row of u . b."""
        steps, n, u = self.steps, self.modulus, self.u
        if len(b) != len(u):
            raise ValueError(f"dimension mismatch: {len(u)} vs {len(b)}")
        c = [sum(map(mul, row, b)) for row in u]
        # rows of d beyond its columns read 0 = c_i (mod n)
        if any(ci % n for ci in c[len(steps):]):
            return None
        y = [0] * len(self.v)
        for i, (g, nn, inv) in enumerate(steps):
            ci = c[i]
            if ci % g:
                return None
            y[i] = ci // g * inv % nn
        return tuple([sum(map(mul, row, y)) % n for row in self.v])


def solve_int_smith(snf: tuple[Mat, Mat, Mat], b: Vec) -> Vec | None:
    """The x in Z^cols with a x = b, for a matrix a given by its Smith form
    (d, u, v), with every free parameter set to 0; None when no integer
    solution exists."""
    d, u, v = snf
    m, cols = len(u), len(v)
    if len(b) != m:
        raise ValueError(f"dimension mismatch: {len(b)} vs {m}")
    c = mat_vec(u, b)
    y = [0] * cols
    for i in range(m):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if c[i] != 0:
                return None
        elif c[i] % di != 0:
            return None
        else:
            y[i] = c[i] // di
    return mat_vec(v, tuple(y))
