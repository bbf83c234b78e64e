"""Cocharacter dynamics at the root-combinatorics level.

A cocharacter splits the root set by the sign of its pairing: nonnegative
roots form a parabolic root subset, the zero part is its Levi, the positive
part its unipotent radical.  This module also provides chamber arithmetic
(sums of cocharacters in a common open chamber) and Frobenius-twisted orbit
sums, which stand in for products of Frobenius translates of a cocharacter.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ChamberMismatchError
from .lattice import Vec, vec_add
from .root_datum import RootDatum, WeylElement, root_pairings, root_permutation


@dataclass(frozen=True)
class ParabolicType:
    """Root-subset shadow of the parabolic attached to a cocharacter.

    Root subsets are stored as frozensets of indices into the datum's
    roots.  Equality and hashing read the nonnegative set alone (the Levi
    and unipotent parts are determined by it), so two types compare equal
    exactly when they carve out the same parabolic; only parabolics of one
    datum are meant to be compared.
    """

    defining_cochar: Vec = field(compare=False)
    nonneg_roots: frozenset[int]
    levi_roots: frozenset[int] = field(compare=False)
    unipotent_roots: frozenset[int] = field(compare=False)


def parabolic_of(datum: RootDatum, cochar: Vec) -> ParabolicType:
    """Split the roots by sign of their pairing with the cocharacter."""
    cochar = tuple(cochar)
    return ParabolicType(cochar, *split_by_sign(root_pairings(datum, cochar)))


def split_by_sign(pairings: Vec) -> tuple[frozenset[int], ...]:
    """The (nonnegative, zero, positive) index sets of a pairing vector:
    a parabolic's root set, its Levi and its unipotent radical, from one
    pass over the pairings."""
    levi, unipotent = [], []
    for i, v in enumerate(pairings):
        if v > 0:
            unipotent.append(i)
        elif v == 0:
            levi.append(i)
    levi, unipotent = frozenset(levi), frozenset(unipotent)
    return levi | unipotent, levi, unipotent


def _signs(values: Vec) -> Vec:
    return tuple((v > 0) - (v < 0) for v in values)


def chamber_sum(datum: RootDatum, lam: Vec, mu: Vec) -> Vec:
    """Sum of two cocharacters lying in one open chamber (empty Levi).

    The sum stays in that chamber, so it defines the same Borel type.
    """
    signs = _signs(root_pairings(datum, lam))
    if signs != _signs(root_pairings(datum, mu)):
        raise ChamberMismatchError(f"{lam} and {mu} do not share a chamber")
    if 0 in signs:
        raise ChamberMismatchError(
            f"{lam} is not in an open chamber (some root pairs to zero)")
    return vec_add(lam, mu)


def frobenius_orbit_sum(datum: RootDatum, lam: Vec, w: WeylElement, d: int) -> Vec:
    """Sum of the first d translates of a cocharacter under w.

    This is the computable stand-in for the product of Frobenius translates:
    the translates commute at the cocharacter level, so their product is the
    sum in the cocharacter lattice.
    """
    if d < 1:
        raise ValueError(f"translate count must be positive, got {d}")
    total = tuple(lam)
    cur = tuple(lam)
    for _ in range(d - 1):
        cur = w.apply(cur)
        total = vec_add(total, cur)
    return total


def normalizer_element_in_parabolic(datum: RootDatum, w: WeylElement,
                                    p: ParabolicType) -> bool:
    """Does w stabilize the parabolic's root subset?

    A torus-normalizing element lies in a parabolic containing the torus
    exactly when its root action maps the parabolic's root set onto itself
    (parabolics are self-normalizing).
    """
    perm = root_permutation(datum, w)
    return {perm[i] for i in p.nonneg_roots} == p.nonneg_roots


def parabolic_to_dict(p: ParabolicType) -> dict:
    return {
        "cochar": list(p.defining_cochar),
        "nonneg": sorted(p.nonneg_roots),
        "levi": sorted(p.levi_roots),
        "unipotent": sorted(p.unipotent_roots),
    }
