"""The plain-sum root pairings that the packed products in
`tamelift.root_datum` replaced.

`root_pairings` summed every root functional against the cocharacter, one
sum per root, and `is_regular_cochar` looked for a zero among those sums; a
lift's slots were tested one cocharacter at a time.  They are kept here
verbatim as the references the packed path is checked against.
"""
from __future__ import annotations

from operator import mul

from tamelift.root_datum import root_functionals


def root_pairings(datum, cochar) -> tuple[int, ...]:
    """<alpha, cochar> for every root alpha, in root order."""
    return tuple([sum(map(mul, row, cochar))
                  for row in root_functionals(datum)])


def is_regular_cochar(datum, cochar) -> bool:
    """True when no root pairs to zero with the cocharacter."""
    return 0 not in root_pairings(datum, cochar)


def all_regular(datum, cochars) -> bool:
    """True when every cocharacter is regular."""
    return all(is_regular_cochar(datum, c) for c in cochars)
