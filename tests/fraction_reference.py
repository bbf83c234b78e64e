"""Rational (Fraction) reference solvers for the integer code in `tamelift`.

The package computes only over Z and Z/N; these plain Gauss-Jordan routines
over Q are the independent references its integer results are checked
against: simple-root coordinates, the standard parabolic cocharacters, and
the root permutation of a Weyl element.  The data those comparisons run on
are listed here too.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from tamelift.lattice import mat_transpose, mat_vec
from tamelift.root_datum import build_root_datum, make_root_datum

# the presets the integer solves are compared on, one custom datum besides
REFERENCE_PRESETS = (
    "GL1", "GL2", "GL3", "GL4", "GL5", "GL6", "SL2", "SL3", "SL4", "SL5",
    "Sp2", "Sp4", "Sp6", "Sp8", "SO3", "SO4", "SO5", "SO6", "SO7", "SO8",
    "SO9", "G2",
)


def sheared_gl3():
    """GL3 with characters in the basis rows of A and cocharacters in the
    basis columns of B^-1, so that the pairing is A^-1 B^-1, not the
    identity, and the simple-root functionals skip a pivot column."""
    gl3 = build_root_datum("GL3")
    a = ((1, 2, 0), (0, 1, 0), (0, 1, 1))
    b = ((1, 0, 0), (1, 1, 0), (0, -1, 1))
    pairing = ((3, -2, 0), (-1, 1, 0), (0, 0, 1))  # A^-1 B^-1
    roots = [mat_vec(mat_transpose(a), r) for r in gl3.roots]
    coroots = [mat_vec(b, c) for c in gl3.coroots]
    return make_root_datum(3, roots, coroots, pairing, gl3.simple_roots,
                           "sheared-GL3")


def coords_in_base(base_vectors, v):
    """Solve for v as a rational combination of the base vectors, free
    variables 0; None when v is outside their span."""
    n = len(v)
    k = len(base_vectors)
    rows = [[Fraction(base_vectors[j][i]) for j in range(k)] + [Fraction(v[i])]
            for i in range(n)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    out = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        out[col] = rows[i][k]
    return tuple(out)


def rational_inverse(a):
    """Exact inverse as a list of Fraction rows; raises if singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if work[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


@lru_cache(maxsize=None)
def _contragredient(pairing, matrix):
    """Matrix of the dual action on characters, as Fraction rows."""
    pt = tuple(zip(*pairing))
    pt_inv = rational_inverse(pt)
    w_inv = rational_inverse(matrix)
    w_inv_t = list(zip(*w_inv))
    # pt_inv * w_inv_t * pt
    step = [[sum(a * b for a, b in zip(row, col)) for col in zip(*pt)]
            for row in w_inv_t]
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*step))
        for row in pt_inv
    )


def root_action(datum, w, character):
    """Image of a character under the contragredient of w (so that pairings
    with w-translated cocharacters are preserved), exact over Q."""
    c = _contragredient(datum.pairing, w.matrix)
    image = tuple(sum(a * Fraction(x) for a, x in zip(row, character)) for row in c)
    if any(v.denominator != 1 for v in image):
        raise ValueError("contragredient image is not integral on this character")
    return tuple(int(v) for v in image)
