"""The Smith-form kernels the integer code in `tamelift.lattice` replaced.

`smith_normal_form` kept its transforms u and v in two side matrices, and
`integer_kernel_basis` read the kernel off v's columns beyond the nonzero
diagonal and put them into Hermite form.  Both are kept here verbatim as the
references the package's one-matrix reductions are checked against.
"""
from __future__ import annotations

from tamelift.lattice import Mat, hnf_rows, identity_matrix


def smith_normal_form(a: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (d, u, v) with u*a*v = d, u and v unimodular, d diagonal,
    nonnegative, and each diagonal entry dividing the next.

    Pivoting is deterministic (smallest absolute value, then row-major
    position), so downstream canonical solutions are reproducible.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    work = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def add_row(i: int, j: int, c: int) -> None:  # row_i += c*row_j
        wi, wj = work[i], work[j]
        for k in range(n):
            wi[k] += c * wj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += c * uj[k]

    def add_col(j: int, i: int, c: int) -> None:  # col_j += c*col_i
        for row in work:
            row[j] += c * row[i]
        for row in v:
            row[j] += c * row[i]

    def swap_rows(i: int, j: int) -> None:
        work[i], work[j] = work[j], work[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in work:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # pick the smallest nonzero entry of the trailing submatrix as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = work[i][j]
                if e != 0 and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            p = work[t][t]
            dirty = False
            for i in range(t + 1, m):
                if work[i][t] != 0:
                    add_row(i, t, -(work[i][t] // p))
                    if work[i][t] != 0:  # remainder smaller than |p|
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if work[t][j] != 0:
                    add_col(j, t, -(work[t][j] // p))
                    if work[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            break
        # pivot must divide every remaining entry
        p = work[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if work[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if work[t][t] < 0:
            add_row(t, t, -2)  # negate the row
        t += 1

    d = tuple(tuple(row) for row in work)
    return d, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def integer_kernel_basis(a: Mat, n: int | None = None) -> Mat:
    """Canonical basis of {x in Z^n : a x = 0}; this kernel is saturated."""
    m = len(a)
    if n is None:
        n = len(a[0]) if m else 0
    if m == 0:
        return identity_matrix(n)
    d, _, v = smith_normal_form(a)
    cols = []
    for j in range(n):
        dj = d[j][j] if j < min(m, n) else 0
        if dj == 0:
            cols.append(tuple(v[i][j] for i in range(n)))
    return hnf_rows(cols)
