"""Hodge-Tate types of crystalline tuples, regularization, and the
labeled/colabeled multiset calculus.

The Hodge-Tate type of a tuple negates its slots (the Lubin-Tate character
carries weight -1 at the identity colabel, the cyclotomic character carries
weight -1).  Regularization adds a large multiple of an averaged regular
seed to a lift, leaving its reduction untouched while clearing every root
pairing.  The multiset half of the module implements weight bookkeeping for
a coefficient field larger than the base: colabeled data lives on embedding
colabels, labeled data is the fiberwise union divided by the degree.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import mod, not_

from .crystalline_lift import (
    CrysCharTuple,
    LiftResult,
    _checked_lift,
    _solve_seed,
)
from .errors import InternalConsistencyError, MultisetDivisionError
from .lattice import Vec, vec_add, vec_neg, vec_scale, zero_vec
from .root_datum import (
    RootDatum,
    canonical_regular_cochar,  # re-exported
    is_regular_cochar,
    root_pairings,
)
from .tame_reps import TameInertialPair


@dataclass(frozen=True)
class HTType:
    """One Hodge-Tate cocharacter per colabel j in Z/f."""

    f: int
    cochars: tuple[Vec, ...]

    def __post_init__(self):
        if self.f < 1 or len(self.cochars) != self.f:
            raise ValueError(
                f"expected {self.f} cocharacters, got {len(self.cochars)}")
        object.__setattr__(self, "cochars",
                           tuple(tuple(c) for c in self.cochars))


def ht_type(v: CrysCharTuple) -> HTType:
    """Negate every slot: weight -1 at a colabel means the slot acts there
    by the Lubin-Tate character."""
    return HTType(f=v.f, cochars=tuple(vec_neg(s) for s in v.slots))


def is_ht_regular(datum: RootDatum, t: HTType) -> bool:
    return all(is_regular_cochar(datum, c) for c in t.cochars)


def ht_to_dict(t: HTType) -> dict:
    return {str(j): list(c) for j, c in enumerate(t.cochars)}


# ---------------------------------------------------------------------------
# regularization

def regular_seed(datum: RootDatum, q: int, f: int, colabel: int,
                 cochar: Vec) -> CrysCharTuple:
    """Tuple concentrated at one colabel; the seed must be regular."""
    if not is_regular_cochar(datum, cochar):
        raise ValueError(f"seed cocharacter {tuple(cochar)} is not regular")
    if not 0 <= colabel < f:
        raise ValueError(f"colabel {colabel} out of range for f={f}")
    slots = [zero_vec(datum.rank) for _ in range(f)]
    slots[colabel] = tuple(cochar)
    return CrysCharTuple(datum=datum, q=q, f=f, slots=tuple(slots))


@dataclass(frozen=True)
class RegularLiftResult(LiftResult):
    """A lift made Hodge-Tate regular by adding seed_multiplier . N times
    the averaged canonical seed."""

    seed_multiplier: int


def regular_lift(datum: RootDatum, p: TameInertialPair) -> RegularLiftResult:
    """Hodge-Tate regular lift with the same reduction.

    Adds C . N times the averaged seed to the base lift, slot by slot, for
    the smallest C >= 0 making every colabel regular.  Both are lifts from
    a slot-0 seed: the base from the solved x, the averaged seed from the
    regular s, so the sum is the lift from x + C . N . s, whose slot j is
    M_j . x + C . N . M_j . s.  Root alpha pairs with it as P + C . N . A,
    where P = <alpha, M_j . x> and A = <alpha, M_j . s> is never 0, so
    each (root, slot) forbids at most one C, namely -P / (N . A) when that
    is an integer.  Each M_j lies in W and permutes the roots, so over all
    roots the pairs (P, A) of slot j are those of slot 0, (<alpha, x>,
    <alpha, s>), reordered: every slot forbids the same values, and the
    root pairings of x against the plan's seed steps N . <alpha, s> give
    the least C none forbids in closed form, before any slot is built and
    with no C tried.  The returned tuple's kernel condition, reduction and
    the regularity of every slot are re-verified.
    """
    plan, x = _solve_seed(datum, p)
    steps = plan.seed_steps
    pairings = root_pairings(datum, x)
    divisible = map(not_, map(mod, pairings, steps))
    forbidden = {-a // b for a, b in compress(zip(pairings, steps), divisible)}
    c = 0
    while c in forbidden:
        c += 1
    shifted = vec_add(x, vec_scale(c * plan.modulus, plan.seed))
    lift = _checked_lift(datum, p, plan.slots(shifted), "regularized lift",
                         RegularLiftResult, seed_multiplier=c)
    if not lift.regular:
        raise InternalConsistencyError(
            "regularized lift failed re-verification")
    return lift


# ---------------------------------------------------------------------------
# integer multisets

@dataclass(frozen=True)
class IntMultiset:
    """Finite multiset of integers, stored as a sorted tuple with
    repetitions."""

    items: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @property
    def size(self) -> int:
        return len(self.items)

    def union(self, other: IntMultiset) -> IntMultiset:
        return IntMultiset(self.items + other.items)

    def counts(self) -> dict[int, int]:
        return dict(Counter(self.items))


def multiset_divide(m: IntMultiset, s: int) -> IntMultiset:
    """Divide every multiplicity by s; each must be divisible."""
    if s < 1:
        raise ValueError(f"divisor must be a positive integer, got {s}")
    out = []
    for value, count in sorted(m.counts().items()):
        quotient, rem = divmod(count, s)
        if rem:
            raise MultisetDivisionError(
                f"multiplicity {count} of {value} is not divisible by {s}")
        out.extend([value] * quotient)
    return IntMultiset(tuple(out))


# ---------------------------------------------------------------------------
# embedding profiles

@dataclass(frozen=True)
class EmbeddingProfile:
    """Finite model of coefficient-field embeddings over base embeddings:
    a surjection from colabels to labels with all fibers of equal size."""

    colabels: tuple[int, ...]
    restriction: tuple[tuple[int, int], ...]
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "colabels", tuple(self.colabels))
        object.__setattr__(self, "restriction",
                           tuple(tuple(p) for p in self.restriction))
        res = dict(self.restriction)
        if set(res) != set(self.colabels) or len(res) != len(self.colabels):
            raise ValueError("restriction must be defined exactly on colabels")
        fibers = Counter(res.values())
        if any(size != self.degree for size in fibers.values()):
            raise ValueError(
                f"every fiber must have size {self.degree}, got {dict(fibers)}")

    def restrict(self, colabel: int) -> int:
        return dict(self.restriction)[colabel]

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted({label for _, label in self.restriction}))

    def fiber(self, label: int) -> tuple[int, ...]:
        return tuple(sorted(c for c, lab in self.restriction if lab == label))


def make_unramified_profile(num_labels: int, degree: int) -> EmbeddingProfile:
    """Colabels Z/(num_labels . degree) restricting to labels Z/num_labels
    by reduction; the unramified-tower picture."""
    if num_labels < 1 or degree < 1:
        raise ValueError("num_labels and degree must be positive")
    colabels = tuple(range(num_labels * degree))
    restriction = tuple((c, c % num_labels) for c in colabels)
    return EmbeddingProfile(colabels=colabels, restriction=restriction,
                            degree=degree)


def labeled_from_colabeled(profile: EmbeddingProfile, colabeled: dict,
                           label: int) -> IntMultiset:
    """Union of the fiber's multisets over a label, divided by the degree."""
    missing = set(profile.colabels) - set(colabeled)
    if missing:
        raise ValueError(f"colabeled data missing colabels {sorted(missing)}")
    if label not in profile.labels():
        raise ValueError(f"{label} is not a label of the profile")
    total = IntMultiset(())
    for colabel in profile.fiber(label):
        total = total.union(colabeled[colabel])
    return multiset_divide(total, profile.degree)


def galois_twist(colabeled: dict, theta: dict) -> dict:
    """Relabel colabeled data along a permutation: output at sigma is the
    input at theta(sigma)."""
    keys = set(colabeled)
    if set(theta) != keys or set(theta.values()) != keys:
        raise ValueError("theta must be a bijection of the colabel set")
    return {sigma: colabeled[theta[sigma]] for sigma in colabeled}


# ---------------------------------------------------------------------------
# worked multiset families

def gl_colabeled_multisets(t: HTType) -> dict[int, IntMultiset]:
    """On a general-linear datum the cocharacter entries at each colabel are
    already the Hodge-Tate weight multiset there."""
    return {j: IntMultiset(c) for j, c in enumerate(t.cochars)}


def induced_lt_ht(num_base_labels: int, d: int) -> tuple[dict, dict]:
    """Weights of the induction of a Lubin-Tate character up an unramified
    degree-d step, as (colabeled, labeled) maps.

    Colabels over the canonical label carry {-1} with d-1 zeros (exactly one
    Frobenius translate matches there); all other colabels carry d zeros.
    The labeled map, the fiberwise average, is {0, ..., 0, -1} at the
    canonical label and all zeros elsewhere.
    """
    if d < 1:
        raise ValueError(f"degree must be a positive integer, got {d}")
    profile = make_unramified_profile(num_base_labels, d)
    hit = IntMultiset((-1,) + (0,) * (d - 1))
    miss = IntMultiset((0,) * d)
    colabeled = {
        sigma: hit if sigma % num_base_labels == 0 else miss
        for sigma in profile.colabels
    }
    labeled = {
        label: labeled_from_colabeled(profile, colabeled, label)
        for label in profile.labels()
    }
    return colabeled, labeled
