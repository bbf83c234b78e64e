"""Hodge-Tate types of crystalline tuples, their regularity, and the
labeled/colabeled multiset calculus.

The Hodge-Tate type of a tuple negates its slots (the Lubin-Tate character
carries weight -1 at the identity colabel, the cyclotomic character carries
weight -1).  The regular lift itself is built in `crystalline_lift`, beside
the plan it reads, and re-exported here.  The multiset half of the module
implements weight bookkeeping for a coefficient field larger than the base:
colabeled data lives on embedding colabels, labeled data is the fiberwise
union divided by the degree.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, filterfalse

from .crystalline_lift import (
    CrysCharTuple,
    RegularLiftResult,  # re-exported
    regular_lift,  # re-exported
)
from .errors import MultisetDivisionError
from .lattice import Vec, is_strict_int, require_ints, vec_neg, zero_vec
from .record import record
from .root_datum import (
    RootDatum,
    _all_regular,
    _require_cochar,
    canonical_regular_cochar,  # re-exported
    is_regular_cochar,
)


@record
class HTType:
    """One Hodge-Tate cocharacter per colabel j in Z/f."""

    f: int
    cochars: tuple[Vec, ...]

    def __post_init__(self):
        require_ints(f=self.f)
        if self.f < 1 or len(self.cochars) != self.f:
            raise ValueError(
                f"expected {self.f} cocharacters, got {len(self.cochars)}")
        cochars = tuple(tuple(c) for c in self.cochars)
        for entry in filterfalse(is_strict_int, chain.from_iterable(cochars)):
            raise ValueError(f"cocharacter entry {entry!r} is not an integer")
        object.__setattr__(self, "cochars", cochars)


def ht_type(v: CrysCharTuple) -> HTType:
    """Negate every slot: weight -1 at a colabel means the slot acts there
    by the Lubin-Tate character."""
    return HTType(f=v.f, cochars=tuple(vec_neg(s) for s in v.slots))


def is_ht_regular(datum: RootDatum, t: HTType) -> bool:
    """True when every colabel's cocharacter is regular: one zero-field
    test per slot, all at the width the type's largest entry needs.
    Raises ValueError as `root_pairings` does."""
    for c in t.cochars:
        _require_cochar(datum, c)
    return _all_regular(datum, t.cochars)


def ht_to_dict(t: HTType) -> dict:
    return {str(j): list(c) for j, c in enumerate(t.cochars)}


# ---------------------------------------------------------------------------
# regularization

def regular_seed(datum: RootDatum, q: int, f: int, colabel: int,
                 cochar: Vec) -> CrysCharTuple:
    """Tuple concentrated at one colabel; the seed must be regular."""
    if not is_regular_cochar(datum, cochar):
        raise ValueError(f"seed cocharacter {tuple(cochar)} is not regular")
    require_ints(f=f, colabel=colabel)
    if not 0 <= colabel < f:
        raise ValueError(f"colabel {colabel} out of range for f={f}")
    slots = [zero_vec(datum.rank) for _ in range(f)]
    slots[colabel] = tuple(cochar)
    return CrysCharTuple(datum=datum, q=q, f=f, slots=tuple(slots))


# ---------------------------------------------------------------------------
# integer multisets

@record
class IntMultiset:
    """Finite multiset of integers, stored as a sorted tuple with
    repetitions."""

    items: tuple[int, ...]

    def __post_init__(self):
        items = tuple(sorted(self.items))
        for entry in filterfalse(is_strict_int, items):
            raise ValueError(f"multiset entry {entry!r} is not an integer")
        object.__setattr__(self, "items", items)

    @property
    def size(self) -> int:
        return len(self.items)

    def union(self, other: IntMultiset) -> IntMultiset:
        return IntMultiset(self.items + other.items)

    def counts(self) -> dict[int, int]:
        return dict(Counter(self.items))


def multiset_divide(m: IntMultiset, s: int) -> IntMultiset:
    """Divide every multiplicity by s; each must be divisible."""
    if not is_strict_int(s) or s < 1:
        raise ValueError(f"divisor must be a positive integer, got {s!r}")
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

@record
class EmbeddingProfile:
    """Finite model of coefficient-field embeddings over base embeddings:
    a surjection from colabels to labels with all fibers of equal size."""

    colabels: tuple[int, ...]
    restriction: tuple[tuple[int, int], ...]
    degree: int

    def __post_init__(self):
        require_ints(degree=self.degree)
        object.__setattr__(self, "colabels", tuple(self.colabels))
        object.__setattr__(self, "restriction",
                           tuple(tuple(p) for p in self.restriction))
        res = dict(self.restriction)
        # 1.0 and True equal, and hash as, the colabel 1: refused before
        # the set and fiber checks below take them for it
        for colabel in self.colabels:
            require_ints(colabel=colabel)
        for colabel, label in self.restriction:
            require_ints(colabel=colabel, label=label)
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
    require_ints(num_labels=num_labels, degree=degree)
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
    require_ints(num_base_labels=num_base_labels, d=d)
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
