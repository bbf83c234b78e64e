"""Cocharacter dynamics at the root-combinatorics level.

A cocharacter splits the root set by the sign of its pairing: nonnegative
roots form a parabolic root subset, the zero part is its Levi, the positive
part its unipotent radical.  This module also provides chamber arithmetic
(sums of cocharacters in a common open chamber) and Frobenius-twisted orbit
sums, which stand in for products of Frobenius translates of a cocharacter.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ChamberMismatchError
from .lattice import Vec, vec_add
from .root_datum import RootDatum, WeylElement, root_pairings, root_permutation


@dataclass(frozen=True, eq=False)
class ParabolicType:
    """Root-subset shadow of the parabolic attached to a cocharacter.

    Root subsets are stored as frozensets of indices into datum.roots, so
    two types over the same datum compare equal exactly when they carve out
    the same parabolic (the Levi and unipotent parts are determined by the
    nonnegative set).
    """

    datum: RootDatum
    defining_cochar: Vec
    nonneg_roots: frozenset[int]
    levi_roots: frozenset[int]
    unipotent_roots: frozenset[int]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParabolicType)
            and self.datum == other.datum
            and self.nonneg_roots == other.nonneg_roots
        )

    def __hash__(self) -> int:
        return hash((self.datum, self.nonneg_roots))

    def nonneg_root_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.datum.roots[i] for i in sorted(self.nonneg_roots))

    def levi_root_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.datum.roots[i] for i in sorted(self.levi_roots))

    def unipotent_root_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.datum.roots[i] for i in sorted(self.unipotent_roots))


def parabolic_of(datum: RootDatum, cochar: Vec) -> ParabolicType:
    """Split the roots by sign of their pairing with the cocharacter."""
    cochar = tuple(cochar)
    values = root_pairings(datum, cochar)
    levi = frozenset(i for i, v in enumerate(values) if v == 0)
    unipotent = frozenset(i for i, v in enumerate(values) if v > 0)
    return ParabolicType(
        datum=datum,
        defining_cochar=cochar,
        nonneg_roots=levi | unipotent,
        levi_roots=levi,
        unipotent_roots=unipotent,
    )


def is_proper(p: ParabolicType) -> bool:
    """A parabolic type is proper exactly when something is moved, i.e. the
    unipotent part is nonempty."""
    return bool(p.unipotent_roots)


def same_parabolic(datum: RootDatum, lam: Vec, mu: Vec) -> bool:
    """Do the two cocharacters induce the same sign pattern on the roots?"""
    return _signs(root_pairings(datum, lam)) == _signs(root_pairings(datum, mu))


def _signs(values: Vec) -> Vec:
    return tuple((v > 0) - (v < 0) for v in values)


def chamber_sum(datum: RootDatum, lam: Vec, mu: Vec) -> Vec:
    """Sum of two cocharacters lying in one open chamber (empty Levi).

    The sum stays in that chamber, so it defines the same Borel type.
    """
    if not same_parabolic(datum, lam, mu):
        raise ChamberMismatchError(f"{lam} and {mu} do not share a chamber")
    if parabolic_of(datum, lam).levi_roots:
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
