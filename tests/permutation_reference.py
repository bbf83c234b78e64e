"""The per-root loop that the packed root permutation in
`tamelift.root_datum` replaced.

`_root_permutation_cached` looked up the image of each coroot under the
matrix, then pulled the image root's functional back through the matrix
with one dot product per column, root by root.  It is kept here verbatim
as the reference the packed path is checked against, in its value and in
the text of the ValueError it raises for a matrix that does not preserve
the datum.
"""
from __future__ import annotations

from tamelift.lattice import Mat, dot, mat_vec
from tamelift.root_datum import (
    RootDatum,
    _coroot_index_map,
    root_functionals,
)


def root_permutation(datum: RootDatum, matrix: Mat) -> tuple[int, ...]:
    # w(alpha)^vee = w(alpha^vee): the image of each coroot names the image
    # root.  That root must pair with w(y) as alpha pairs with y, i.e. its
    # functional times the matrix is alpha's functional; the pairing is
    # nondegenerate, so this pins it down and makes the map injective.
    index = _coroot_index_map(datum)
    functionals = root_functionals(datum)
    columns = tuple(zip(*matrix))
    perm = []
    for i, alpha_v in enumerate(datum.coroots):
        j = index.get(mat_vec(matrix, alpha_v))
        if j is None:
            raise ValueError(
                f"matrix sends coroot {alpha_v} outside the coroot set")
        pulled_back = tuple(dot(functionals[j], col) for col in columns)
        if pulled_back != functionals[i]:
            raise ValueError(
                f"matrix does not preserve the pairing at root "
                f"{datum.roots[i]}")
        perm.append(j)
    return tuple(perm)
