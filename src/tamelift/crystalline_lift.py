"""The lifting engine: crystalline character tuples and the averaging
operator that produces Frobenius-equivariant lifts.

A crystalline character tuple assigns one cocharacter to each of the f
unramified embedding slots.  A Frobenius shift rotates the slots; the
averaging operator xi sums Weyl-twisted shifts so that its output always
satisfies the kernel condition w . slot_j = slot_{j-1}.  Reducing a tuple
collapses it to a single cocharacter vector mod N = q^f - 1.  The lifts
invert that reduction on compatible pairs, the regular lift with every
slot regular, both from one cached plan per configuration.
"""
from __future__ import annotations

from itertools import chain, compress
from math import gcd, prod
from operator import mod, mul, not_

from .errors import (
    GuardError,
    InternalConsistencyError,
    LiftHypothesisError,
)
from .lattice import (
    Mat,
    ModSolver,
    PackedRows,
    Vec,
    _unpack_fields,
    identity_matrix,
    is_strict_int,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    smith_normal_form,
    vec_add,
    vec_scale,
    zero_vec,
)
from .record import record
from .root_datum import (
    RootDatum,
    WeylElement,
    _all_regular,
    canonical_regular_cochar,
    per_datum,
    require_in_weyl_group,
    root_pairings,
)
from .tame_reps import TameInertialPair, _require_q_f, _require_valid

# bound on N^ceil(r/2): about the exhaustive count's steps mod N (it takes
# fewer where it counts the prime-power parts of N one at a time), and the
# most entries one of its tables can hold (about 50 MB of tables at the cap)
EXHAUSTIVE_CAP = 2 * 10 ** 5
# the exhaustive count splits N into its prime-power parts only when
# N^ceil(r/2) exceeds this.  Timed with packed residues on q - w and the
# averaged matrices of rank-2 data, the split took 1.1-2.0 of the time up
# to N of about 46, where factoring N and a table per part cost more than
# they save; 0.4-0.9 from there to 124, and 0.13-0.8 above, the most where
# one part is nearly all of N (166, 242, 250).  At 124 each lift-sweep count
# keeps its way: whole at r <= 2, split at r > 2 for N = 24, 26 and 124.
SPLIT_FLOOR = 124


@record
class CrysCharTuple:
    """One cocharacter per colabel slot j in Z/f."""

    datum: RootDatum
    q: int
    f: int
    slots: tuple[Vec, ...]

    def __post_init__(self):
        _require_q_f(self.q, self.f)
        if len(self.slots) != self.f:
            raise ValueError(
                f"expected {self.f} slots, got {len(self.slots)}")
        slots = tuple(tuple(s) for s in self.slots)
        for s in slots:
            if len(s) != self.datum.rank:
                raise ValueError(
                    f"slot {s} does not have rank {self.datum.rank}")
        if not all(map(is_strict_int, chain.from_iterable(slots))):
            raise ValueError(f"slot entries must be integers, got {slots!r}")
        object.__setattr__(self, "slots", slots)

    @classmethod
    def _from_plan(cls, datum: RootDatum, q: int, f: int,
                   slots: tuple[Vec, ...]) -> CrysCharTuple:
        """The tuple with these fields, set without the checks of
        `__post_init__`.  For `_checked_lift` only: its q and f come from a
        validated pair, and its slots are f tuples of `rank` ints, products
        of a lift plan's integer matrices and an integer seed."""
        v = object.__new__(cls)
        v.__dict__.update(datum=datum, q=q, f=f, slots=slots)
        return v

    @property
    def modulus(self) -> int:
        return self.q ** self.f - 1


def make_crys_tuple(datum: RootDatum, q: int, slots) -> CrysCharTuple:
    slots = tuple(slots)
    return CrysCharTuple(datum=datum, q=q, f=len(slots), slots=slots)


@record
class LiftResult:
    """A constructed lift together with re-verified soundness flags."""

    tuple: CrysCharTuple
    kernel_checked: bool
    reduction_checked: bool
    regular: bool

    @classmethod
    def _from_check(cls, v: CrysCharTuple, regular: bool,
                    **fields) -> LiftResult:
        """For `_checked_lift` only: set without `__init__`."""
        result = object.__new__(cls)
        result.__dict__.update(tuple=v, kernel_checked=True,
                               reduction_checked=True, regular=regular,
                               **fields)
        return result


# ---------------------------------------------------------------------------
# the three basic operators

def frobenius_shift(v: CrysCharTuple) -> CrysCharTuple:
    """Rotate slots right: slot j of the output is slot j-1 of the input."""
    f = v.f
    slots = tuple(v.slots[(j - 1) % f] for j in range(f))
    return CrysCharTuple(datum=v.datum, q=v.q, f=f, slots=slots)


def weyl_act(w: WeylElement, v: CrysCharTuple) -> CrysCharTuple:
    """Apply w to every slot."""
    if len(w.matrix) != v.datum.rank:
        raise ValueError(
            f"Weyl element acts on rank {len(w.matrix)}, "
            f"tuple has rank {v.datum.rank}")
    return CrysCharTuple(datum=v.datum, q=v.q, f=v.f,
                         slots=tuple(w.apply(s) for s in v.slots))


def xi_operator(w: WeylElement, v: CrysCharTuple) -> CrysCharTuple:
    """The averaging operator: sum over i of w^i applied to the (f-1-i)-th
    Frobenius shift.  When w^f is the identity its output satisfies the
    kernel condition, whatever the input."""
    if len(w.matrix) != v.datum.rank:
        raise ValueError(
            f"Weyl element acts on rank {len(w.matrix)}, "
            f"tuple has rank {v.datum.rank}")
    f = v.f
    powers = [identity_matrix(v.datum.rank)]
    for _ in range(f - 1):
        powers.append(mat_mul(powers[-1], w.matrix))
    slots = []
    for j in range(f):
        total = zero_vec(v.datum.rank)
        for i in range(f):
            total = vec_add(total, mat_vec(powers[i], v.slots[(j + 1 + i) % f]))
        slots.append(total)
    return CrysCharTuple(datum=v.datum, q=v.q, f=f, slots=tuple(slots))


def reduction(v: CrysCharTuple) -> Vec:
    """Collapse a tuple to a single vector mod N: sum of q^j . slot_j.

    Rotating the slots multiplies the reduction by q; acting by w on the
    slots acts by w on the reduction.
    """
    n = v.modulus
    powers = [v.q ** j for j in range(v.f)]
    return tuple([sum(map(mul, powers, coords)) % n
                  for coords in zip(*v.slots)])


def kernel_membership(w: WeylElement, v: CrysCharTuple) -> bool:
    """True iff w . slot_j equals slot_{j-1 mod f} for every j, exactly."""
    matrix, slots = w.matrix, v.slots
    # w is square and every slot has the datum's rank: one size check
    # covers every row of every product
    if len(matrix) != v.datum.rank:
        raise ValueError(
            f"dimension mismatch: {len(matrix)} vs {v.datum.rank}")
    images = [tuple([sum(map(mul, row, s)) for row in matrix])
              for s in slots]
    return images == [slots[-1], *slots[:-1]]


# ---------------------------------------------------------------------------
# lifting

def averaged_scale_matrix(w_matrix: Mat, q: int, f: int) -> Mat:
    """The reduction of the averaging operator: sum of q^(f-1-i) . w^i."""
    rank = len(w_matrix)
    total = mat_scale(q ** (f - 1), identity_matrix(rank))
    power = identity_matrix(rank)
    for i in range(1, f):
        power = mat_mul(power, w_matrix)
        total = mat_add(total, mat_scale(q ** (f - 1 - i), power))
    return total


@record(eq=False)
class _LiftPlan:
    """What every lift, regularization and exactness check of one
    (datum, w, q, f) shares.  Slot j of the lift from a slot-0 seed y is
    M_j . y, with M_j = w^((f-1-j) mod f).  The stacked M_j are packed,
    and so are the check rows over a tuple's flattened slots: f.r giving
    (w . slot_j - slot_{j-1})_i, then r giving sum_j q^j . slot_j[i].  The
    averaged congruence xi_bar . x = vbar (mod N) is solved with its
    Smith-form constants, computed once here.  The regular seed s =
    canonical_regular_cochar needs one slot's steps only: each M_j lies in
    W and so permutes the roots, and the pairings of every slot are those
    of slot 0 reordered (see `regular_lift`)."""

    modulus: int
    xi_bar: Mat  # averaged_scale_matrix
    xi_solver: ModSolver  # the constants of its Smith form mod N
    slot_matrices: tuple[Mat, ...]  # M_j
    packed_slots: PackedRows  # the rows of M_0, ..., M_(f-1)
    checks: PackedRows  # the kernel rows, then the reduction rows
    q_minus_w: Mat  # q . 1 - w
    ker_count: int  # kernel size of q - w mod N, by its Smith form
    seed: Vec  # s
    seed_steps: Vec  # N . <alpha, s>, root by root; never 0

    def slots(self, x: Vec) -> tuple[Vec, ...]:
        """xi of the tuple with x in slot 0 and zeros elsewhere: its slot j
        is slot_matrices[j] . x, all f.r entries read off one packed
        product of the stacked M_j with x (r big-int multiplies)."""
        return tuple(zip(*[iter(self.packed_slots.products(x))] * len(x)))

    def verifies(self, slots: tuple[Vec, ...], vbar: Vec) -> bool:
        """True iff the slots (f tuples of `rank` ints) satisfy the kernel
        condition and reduce to vbar: in one packed product of the check
        rows with the flattened slots, at the width their own largest entry
        needs, the low f.r fields are each the offset 2^(k-1) and the next
        r, less it, reduce to vbar mod N."""
        flat = list(chain.from_iterable(slots))
        size = max(map(abs, flat)) if flat else 0
        columns, _, high, k = self.checks.at(size)
        packed = sum(map(mul, flat, columns)) + high
        kernel_bits = k * len(columns)
        if (packed ^ high) & ((1 << kernel_bits) - 1):
            return False
        n = self.modulus
        return tuple([v % n for v in _unpack_fields(
            packed >> kernel_bits, high >> kernel_bits, k, len(vbar))]) == vbar


@per_datum
def _lift_plan(datum: RootDatum, w: WeylElement, q: int, f: int) -> _LiftPlan:
    """Built on the first lift of a configuration; raises, and so caches
    nothing, unless w lies in W and w^f is the identity.  The memo keys
    on w's matrix alone: a WeylElement hashes and compares as it."""
    require_in_weyl_group(datum, w)
    w_matrix = w.matrix
    ident = identity_matrix(datum.rank)
    powers = [ident]
    for _ in range(f):
        powers.append(mat_mul(powers[-1], w_matrix))
    if powers[f] != ident:
        raise LiftHypothesisError(
            f"lifting requires the Weyl element's f-th power to be the "
            f"identity (f={f})")
    xi_bar = averaged_scale_matrix(w_matrix, q, f)
    q_minus_w = mat_sub(mat_scale(q, ident), w_matrix)
    n = q ** f - 1
    seed = canonical_regular_cochar(datum)
    slot_matrices = tuple(powers[f - 1 - j] for j in range(f))
    # entry (b, c) of the flattened slots is slot_b[c]
    span = [(b, c) for b in range(f) for c in range(datum.rank)]
    checks = [[w_matrix[i][c] * (b == j) - ((b, c) == ((j - 1) % f, i))
               for b, c in span] for j, i in span]
    checks += [[q ** b * (c == i) for b, c in span] for i in range(datum.rank)]
    return _LiftPlan(
        modulus=n,
        xi_bar=xi_bar,
        xi_solver=ModSolver(smith_normal_form(xi_bar), n),
        slot_matrices=slot_matrices,
        packed_slots=PackedRows(tuple(chain.from_iterable(slot_matrices))),
        checks=PackedRows(checks),
        q_minus_w=q_minus_w,
        ker_count=ModSolver(smith_normal_form(q_minus_w), n).kernel_count,
        seed=seed,
        seed_steps=vec_scale(n, root_pairings(datum, seed)),
    )


def _solve_seed(datum: RootDatum, p: TameInertialPair) -> tuple[_LiftPlan, Vec]:
    """Solve the averaged congruence xi_bar . x = vbar (mod N) for the
    slot-0 seed x; returns the configuration's plan and x.

    The pair is validated only when the plan build or the solve fails, and
    then first, so an invalid pair raises what validating it up front
    would.  A success needs no validation: the lift from x, re-verified by
    `_checked_lift`, certifies it.  Its slots satisfy w . slot_j =
    slot_{j-1}, so their reduction r = sum_j q^j . slot_j has w . r =
    q . r - N . slot_{f-1}, and r = vbar (mod N) then gives w . vbar =
    q . vbar (mod N).  Nor can an invalid pair be solved once the plan has
    checked w^f = 1: (q - w) . xi_bar = q^f - w^f = N, so the image of
    xi_bar mod N lies in the kernel of q - w."""
    try:
        plan = _lift_plan(datum, p.w, p.q, p.f)
    except Exception:
        _require_valid(datum, p)
        raise
    x = plan.xi_solver.solve(p.vbar)
    if x is None:
        _require_valid(datum, p)
        raise InternalConsistencyError(
            "averaged congruence has no solution for a compatible pair")
    return plan, x


def _checked_lift(datum: RootDatum, p: TameInertialPair, plan: _LiftPlan,
                  x: Vec, what: str, result: type[LiftResult] = LiftResult,
                  **fields) -> LiftResult:
    """The lift from the slot-0 seed x, re-verified: raises
    InternalConsistencyError unless it satisfies the kernel condition and
    reduces to vbar (`plan.verifies`).  Its slots are `plan.slots`
    products, so the tuple is built without re-checking its entries.
    Returns it as `result`, with any further `fields`; `regular` records
    whether every slot is regular, all tested by `_all_regular` at the
    width the slots' own largest entry needs."""
    slots = plan.slots(x)
    if not plan.verifies(slots, p.vbar):
        raise InternalConsistencyError(f"{what} failed re-verification")
    v = CrysCharTuple._from_plan(datum, p.q, p.f, slots)
    return result._from_check(v, _all_regular(datum, slots), **fields)


def lift_inertia(datum: RootDatum, p: TameInertialPair) -> LiftResult:
    """Construct a Frobenius-equivariant tuple reducing to vbar.

    Solves the averaged congruence for a slot-0 seed x, then averages it:
    slot j is w^((f-1-j) mod f) . x, read off the configuration's cached
    plan.  Soundness of the output is re-verified before returning.
    """
    plan, x = _solve_seed(datum, p)
    return _checked_lift(datum, p, plan, x, "constructed lift")


@record
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
    lift = _checked_lift(datum, p, plan, shifted, "regularized lift",
                         RegularLiftResult, seed_multiplier=c)
    if not lift.regular:
        raise InternalConsistencyError(
            "regularized lift failed re-verification")
    return lift


# ---------------------------------------------------------------------------
# exactness check

def simple_trick_check(datum: RootDatum, q: int, f: int, w: WeylElement,
                       method: str = "snf") -> bool:
    """Verify that the kernel of (q - w) on (Z/N)^r equals the image of the
    averaged scale matrix.

    The image always sits inside the kernel, because (q - w) composed with
    the averaging matrix is multiplication by N when w^f is the identity;
    the check compares sizes, so a True is a certificate of equality.
    Methods: "exhaustive" counts both kernels over all N^r vectors without
    the Smith form, meeting in the middle: the residues of one half of the
    coordinates are tabulated and those of the other half looked up.  Where
    N^ceil(r/2) exceeds SPLIT_FLOOR, each prime-power part p^k of N is
    counted on its own and the counts multiplied, about the sum of
    (p^k)^ceil(r/2) steps; elsewhere, about N^ceil(r/2).  It raises
    GuardError, before N is factored, when N^ceil(r/2) exceeds
    EXHAUSTIVE_CAP.  "snf", the default, counts them through Smith normal
    form.  Both are exact, so they return the same bool.  q and f are checked
    as a pair's are (ValueError, or GuardError for too large an N).  q - w,
    the averaged matrix and their Smith-form kernel counts come from the
    configuration's lift plan, which raises ValueError unless w lies in W
    and LiftHypothesisError unless w^f is the identity.
    """
    if method not in ("exhaustive", "snf"):
        raise ValueError(f"unknown method {method!r}")
    _require_q_f(q, f)
    plan = _lift_plan(datum, w, q, f)
    rank, n = datum.rank, plan.modulus
    if n == 1:
        return True
    if method == "exhaustive":
        larger_half = (rank + 1) // 2
        if n ** larger_half > EXHAUSTIVE_CAP:
            raise GuardError(
                f"exhaustive exactness check out of range: {n}^{larger_half} "
                f"half-vectors exceed {EXHAUSTIVE_CAP}")
        ker_count = _count_kernel_by_halves(plan.q_minus_w, n)
        xi_ker_count = _count_kernel_by_halves(plan.xi_bar, n)
    else:
        ker_count = plan.ker_count
        xi_ker_count = plan.xi_solver.kernel_count
    image_count, rem = divmod(n ** rank, xi_ker_count)
    if rem:
        raise InternalConsistencyError(
            f"kernel count {xi_ker_count} does not divide {n}^{rank}")
    return image_count == ker_count


def _count_kernel_by_halves(mat: Mat, n: int) -> int:
    """Kernel size mod n of a square matrix, counted over all n^r vectors
    without its Smith form.  By the Chinese remainder theorem it is the
    product of the kernel sizes mod the prime-power parts p^k of n; where
    n^ceil(r/2) exceeds SPLIT_FLOOR, each part is counted on its own, about
    the sum of (p^k)^ceil(r/2) steps instead of n^ceil(r/2).  Factoring n
    takes about sqrt(n) steps, so n must be small: `simple_trick_check`
    applies the exhaustive guard first."""
    if n ** ((len(mat) + 1) // 2) <= SPLIT_FLOOR:
        return _count_kernel_mod(mat, n)
    return prod(_count_kernel_mod(mat, part)
                for part in _prime_power_parts(n))


def _prime_power_parts(n: int) -> list[int]:
    """The prime-power parts of n >= 1, by trial division: pairwise coprime
    prime powers whose product is n; about sqrt(n) steps."""
    parts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            part = 1
            while n % p == 0:
                n //= p
                part *= p
            parts.append(part)
        p += 1
    if n > 1:
        parts.append(n)
    return parts


def _count_kernel_mod(mat: Mat, n: int) -> int:
    """Kernel size mod n of a square matrix, meeting in the middle: split
    x = (x1, x2) with |x1| = floor(r/2); A x = 0 exactly when A1 x1 =
    A2 (-x2), and -x2 runs over (Z/n)^(r - |x1|) as x2 does, so tabulate
    the residues of A1 x1 with their multiplicities and look up each
    residue of A2 x2.  Costs about n^ceil(r/2) steps; the table has at
    most n^floor(r/2) entries.

    A residue vector is one int, coordinate i in bits [k.i, k.(i+1)) with
    2^(k-1) >= n.  A sum t of two has fields below 2n, without carries, and
    t - (((t + fix) & high) >> (k-1)) . n reduces it, where low holds 1,
    high 2^(k-1) and fix 2^(k-1) - n in every field."""
    shift = (n - 1).bit_length()  # k - 1
    low = ((1 << (shift + 1) * len(mat)) - 1) // ((1 << shift + 1) - 1)
    high, fix = low << shift, ((1 << shift) - n) * low
    # a column of order d = n / gcd(n, col) has d multiples, n / d times each
    steps = []
    for col in zip(*mat):
        packed = 0
        for x in reversed(col):
            packed = packed << shift + 1 | x % n
        multiples = [0]
        for _ in range(1, n // gcd(n, *col)):
            t = multiples[-1] + packed
            multiples.append(t - (((t + fix) & high) >> shift) * n)
        steps.append((multiples, n // len(multiples)))
    half = len(mat) // 2
    table = _residue_counts(steps[:half], n, shift, high, fix)
    # the larger half is streamed: all but its last column are tabulated,
    # so no table outgrows the first half's
    last, repeats = steps[-1]
    count = 0
    for v, m in _residue_counts(steps[half:-1], n, shift, high, fix).items():
        m *= repeats
        for s in last:
            t = v + s
            count += m * table.get(t - (((t + fix) & high) >> shift) * n, 0)
    return count


def _residue_counts(steps: list[tuple[list[int], int]], n: int, shift: int,
                    high: int, fix: int) -> dict[int, int]:
    """How many t in (Z/n)^len(steps) give each packed residue of sum t_i
    col_i mod n, one column at a time; steps[i] holds the distinct packed
    multiples of col_i and how often each occurs (see `_count_kernel_mod`)."""
    counts = {0: 1}
    for multiples, repeats in steps:
        grown: dict[int, int] = {}
        for v, m in counts.items():
            m *= repeats
            for s in multiples:
                t = v + s
                key = t - (((t + fix) & high) >> shift) * n
                grown[key] = grown.get(key, 0) + m
        counts = grown
    return counts


# ---------------------------------------------------------------------------
# JSON form

def lift_to_dict(result: LiftResult) -> dict:
    v = result.tuple
    return {
        "slots": [list(s) for s in v.slots],
        "q": v.q,
        "f": v.f,
        "checks": {
            "kernel": result.kernel_checked,
            "reduction": result.reduction_checked,
            "regular": result.regular,
        },
    }
