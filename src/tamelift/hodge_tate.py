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
    _lift_plan,
    _solve_seed,
    kernel_membership,
    reduction,
)
from .errors import InternalConsistencyError, MultisetDivisionError
from .lattice import (
    Mat,
    Vec,
    mat_mul,
    mat_vec,
    vec_add,
    vec_neg,
    vec_scale,
    zero_vec,
)
from .root_datum import (
    RootDatum,
    is_regular_cochar,
    per_datum,
    root_functionals,
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

def canonical_regular_cochar(datum: RootDatum) -> Vec:
    """Deterministic regular cocharacter: the staircase (r-1+k, ..., 1+k, k)
    for the smallest workable shift k, with a geometric fallback for data
    the staircase cannot handle."""
    r = datum.rank
    for k in range(len(datum.roots) + 2):
        candidate = tuple(r - 1 - i + k for i in range(r))
        if is_regular_cochar(datum, candidate):
            return candidate
    bound = len(datum.roots) * max(r - 1, 1) + 2
    for t in range(2, bound + 2):
        candidate = tuple(t ** i for i in range(r))
        if is_regular_cochar(datum, candidate):
            return candidate
    raise InternalConsistencyError(
        f"no regular cocharacter found for {datum.label}")


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


@dataclass(frozen=True)
class _RegularPlan:
    """What every regularization of one (datum, w, q, f) shares: the
    pairing tables G_j = F . M_j, with F the root functionals (one row per
    root, `root_functionals`) and M_j the lift plan's slot matrices.  Slot
    j of a lift from the slot-0 seed y is M_j . y, and row alpha of G_j
    times y is its pairing with root alpha, so one product per table row
    gives every (root, slot) pairing of the lift.  The rows are stacked in
    slot order, and the seed steps follow the same order, computed from
    the same rows for the regular seed s = `canonical_regular_cochar`."""

    seed: Vec  # s
    pairing_rows: Mat  # rows of G_0, then of G_1, ...
    seed_steps: Vec  # N . (row . s) = N . <alpha, M_j . s>; never 0


@per_datum
def _regular_plan(datum: RootDatum, w_matrix: Mat, q: int,
                  f: int) -> _RegularPlan:
    lift = _lift_plan(datum, w_matrix, q, f)
    seed = canonical_regular_cochar(datum)
    functionals = root_functionals(datum)
    rows = tuple(row for m in lift.slot_matrices
                 for row in mat_mul(functionals, m))
    return _RegularPlan(
        seed=seed,
        pairing_rows=rows,
        seed_steps=vec_scale(lift.modulus, mat_vec(rows, seed)),
    )


def regular_lift(datum: RootDatum, p: TameInertialPair) -> RegularLiftResult:
    """Hodge-Tate regular lift with the same reduction.

    Adds C . N times the averaged seed to the base lift, for the smallest
    C >= 0 making every colabel regular: both are lifts from a slot-0 seed
    (x for the base, s for the averaged seed), so the sum is the lift from
    x + C . N . s.  The averaged seed's slots are Weyl translates of the
    regular s, hence themselves regular: root alpha pairs with slot j of
    the sum as P + C . N . A, where P = G_j[alpha] . x and
    N . A = G_j[alpha] . s . N, the plan's step for that table row, is
    never 0.  So each table row forbids at most one C, namely
    -P / (N . A) when that is an integer, and C is the least nonnegative
    value none forbids: the products of the rows with x, one pass over the
    table, give it in closed form rather than by trying one C after
    another.  The returned tuple's kernel condition, reduction and
    regularity are re-verified.
    """
    lift, x = _solve_seed(datum, p)
    plan = _regular_plan(datum, p.w.matrix, p.q, p.f)
    steps = plan.seed_steps
    pairings = mat_vec(plan.pairing_rows, x)
    divisible = map(not_, map(mod, pairings, steps))
    forbidden = {-a // b for a, b in compress(zip(pairings, steps), divisible)}
    c = 0
    while c in forbidden:
        c += 1
    slots = lift.slots(vec_add(x, vec_scale(c * lift.modulus, plan.seed)))
    candidate = CrysCharTuple(datum=datum, q=p.q, f=p.f, slots=slots)
    kernel_ok = kernel_membership(p.w, candidate)
    reduction_ok = reduction(candidate) == p.vbar
    if not (kernel_ok and reduction_ok
            and is_ht_regular(datum, ht_type(candidate))):
        raise InternalConsistencyError(
            "regularized lift failed re-verification")
    return RegularLiftResult(
        tuple=candidate,
        kernel_checked=kernel_ok,
        reduction_checked=reduction_ok,
        regular=True,
        seed_multiplier=c,
    )


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
