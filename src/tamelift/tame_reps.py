"""Tame inertial pairs: the data model for mod-p representations whose
restriction to inertia lands in a maximal torus.

A pair records the residue field size q, the unramified degree f, a
cocharacter vector vbar with entries mod N = q^f - 1 describing the inertia
action, and a Weyl element w standing in for Frobenius.  Compatibility means
Frobenius conjugation matches the q-power map on inertia characters:
w . vbar = q . vbar (mod N), entrywise in cocharacter coordinates.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import gcd

from .dynamic import ParabolicType, split_by_sign
from .errors import GuardError, InternalConsistencyError, InvalidPairError
from .lattice import (
    Mat,
    Vec,
    as_tuple,
    dot,
    hnf_rows,
    identity_matrix,
    is_strict_int,
    mat_pow,
    smith_normal_form,
    solve_int_smith,
    vec_mod,
    vec_scale,
)
from .root_datum import (
    RootDatum,
    WeylElement,
    _packed_functionals,
    _root_permutation_cached,
    _weyl_limit_error,
    per_datum,
    require_in_weyl_group,
    root_functionals,
    root_pairings,
    root_permutation,
    simple_coreflections,
    weyl_fixed_space,
    weyl_from_matrix,
    weyl_from_word,
)

ORACLE_RANK_CAP = 4
ORACLE_WEYL_CAP = 1152
MODULUS_BITS_CAP = 4096
PRIME_TRIAL_BOUND = 2 ** 20


def is_prime_power(q: int) -> bool:
    """Whether q is a prime power, by trial division with 2 ..
    PRIME_TRIAL_BOUND; GuardError when none of them divides a q of at least
    PRIME_TRIAL_BOUND^2, which that cannot decide."""
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        if p == PRIME_TRIAL_BOUND:
            raise GuardError(
                f"q has no prime factor up to {PRIME_TRIAL_BOUND}, the bound "
                f"of trial division, and too many bits ({q.bit_length()}) "
                f"for that to decide whether it is a prime power")
        p += 1
    return True


def _require_q_f(q: int, f: int) -> None:
    """Reject (ValueError) a q that is not a prime power or an f below 1,
    and (GuardError) a q that `is_prime_power` cannot decide or a modulus
    N = q^f - 1 of more than MODULUS_BITS_CAP bits.  Both must be ints and
    not bools: floats equal to integers hash alike, so one would otherwise
    share (and could fill) every memo keyed on q or f."""
    for name, value in (("q", q), ("f", f)):
        if not is_strict_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if f < 1:
        raise ValueError(f"f must be a positive integer, got {f}")
    # q^f - 1 has at least (bits of q - 1) . f bits, so a large f is
    # refused before q^f is computed
    if ((q.bit_length() - 1) * f > MODULUS_BITS_CAP
            or (q ** f - 1).bit_length() > MODULUS_BITS_CAP):
        raise GuardError(
            f"modulus q^f - 1 exceeds the bound of {MODULUS_BITS_CAP} bits "
            f"(q has {q.bit_length()} bits, f = {f})")


@dataclass(frozen=True)
class TameInertialPair:
    """The tuple (q, f, vbar, w); vbar is stored reduced to [0, N)."""

    q: int
    f: int
    vbar: Vec
    w: WeylElement

    def __post_init__(self):
        _require_q_f(self.q, self.f)
        if not all(is_strict_int(x) for x in self.vbar):
            raise ValueError(
                f"vbar entries must be integers, got {tuple(self.vbar)!r}")
        if len(self.vbar) != len(self.w.matrix):
            raise ValueError(
                f"vbar has {len(self.vbar)} entries but the Weyl element "
                f"acts on rank {len(self.w.matrix)}")
        object.__setattr__(self, "vbar", vec_mod(self.vbar, self.modulus))

    @property
    def modulus(self) -> int:
        return self.q ** self.f - 1


def make_pair(datum: RootDatum, q: int, f: int, vbar, w) -> TameInertialPair:
    """Build a pair over a datum; w may be a WeylElement, a word, or a
    word string like "s0 s1".  A WeylElement must be rank x rank and lie in
    the datum's Weyl group (ValueError otherwise)."""
    if isinstance(w, WeylElement):
        require_in_weyl_group(datum, w)
    else:
        w = weyl_from_word(datum, w)
    vbar = as_tuple(vbar, "vbar")
    if len(vbar) != datum.rank:
        raise ValueError(
            f"vbar has {len(vbar)} entries, expected rank {datum.rank}")
    return TameInertialPair(q=q, f=f, vbar=vbar, w=w)


# ---------------------------------------------------------------------------
# validity

@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the compatibility check.  Each failure is a triple
    (coordinate, value under the Weyl action, value scaled by q), both
    sides reduced mod the modulus."""

    valid: bool
    modulus: int
    failures: tuple[tuple[int, int, int], ...]

    def __bool__(self) -> bool:
        return self.valid


def _congruence_failures(p: TameInertialPair) -> tuple[tuple[int, int, int], ...]:
    # the pair already matched vbar's length to the square matrix
    n, q, vbar = p.modulus, p.q, p.vbar
    sides = [(sum(map(operator.mul, row, vbar)) % n, q * x % n)
             for row, x in zip(p.w.matrix, vbar)]
    return tuple([(i, a, b) for i, (a, b) in enumerate(sides) if a != b])


def _compatible(p: TameInertialPair, n: int) -> bool:
    """Whether w . vbar = q . vbar (mod n), with no report built."""
    q, vbar = p.q, p.vbar
    for row, x in zip(p.w.matrix, vbar):
        if (sum(map(operator.mul, row, vbar)) - q * x) % n:
            return False
    return True


def validate_pair(datum: RootDatum, p: TameInertialPair) -> ValidityReport:
    """Check w . vbar = q . vbar (mod N).  Reports, never raises, on a
    mathematical failure; raises only on a rank mismatch with the datum."""
    if len(p.vbar) != datum.rank:
        raise ValueError(
            f"pair has {len(p.vbar)} coordinates, datum has rank {datum.rank}")
    failures = _congruence_failures(p)
    return ValidityReport(valid=not failures, modulus=p.modulus,
                          failures=failures)


def _require_valid(datum: RootDatum, p: TameInertialPair) -> None:
    report = validate_pair(datum, p)
    if not report:
        raise InvalidPairError(
            f"pair fails compatibility at coordinates "
            f"{[i for i, _, _ in report.failures]} (mod {report.modulus})")


# ---------------------------------------------------------------------------
# niveau and Frobenius order

def niveau(p: TameInertialPair) -> int:
    """Smallest f0 >= 1 with q^f0 . vbar = vbar (mod N); at most f since
    q^f = 1 mod N."""
    if _congruence_failures(p):
        raise InvalidPairError("niveau requires a compatible pair")
    n = p.modulus
    for k in range(1, p.f + 1):
        scale = pow(p.q, k, n) if n > 1 else 0
        if vec_mod(vec_scale(scale, p.vbar), n) == p.vbar:
            return k
    raise AssertionError("unreachable: q^f is 1 mod N")


@dataclass(frozen=True)
class WeylOrderReport:
    """Whether powers of w fall back to the identity at the niveau and at
    the full degree.  The degree power being the identity is the hypothesis
    of the lifting construction."""

    niveau: int
    niveau_power_is_identity: bool
    degree_power_is_identity: bool


def check_weyl_order(p: TameInertialPair) -> WeylOrderReport:
    f0 = niveau(p)
    ident = identity_matrix(len(p.w.matrix))
    return WeylOrderReport(
        niveau=f0,
        niveau_power_is_identity=mat_pow(p.w.matrix, f0) == ident,
        degree_power_is_identity=mat_pow(p.w.matrix, p.f) == ident,
    )


# ---------------------------------------------------------------------------
# irreducibility

def inertia_centralizer_roots(datum: RootDatum,
                              p: TameInertialPair) -> tuple[Vec, ...]:
    """Roots whose pairing with vbar vanishes mod N: the root system of the
    connected centralizer of the inertia image.  Lexicographically sorted.
    One pass: the report that _require_valid raises from is built only when
    vbar's length or a congruence row fails, and the pairings are one packed
    product without root_pairings' entry check, since a TameInertialPair
    holds ints in [0, N) and the length was just checked."""
    n, vbar = p.modulus, p.vbar
    if len(vbar) != datum.rank or not _compatible(p, n):
        _require_valid(datum, p)
    return tuple([alpha for alpha, v in zip(
        datum.roots, _packed_functionals(datum).products(vbar)) if not v % n])


@dataclass(frozen=True)
class IrreducibilityResult:
    """Verdict with a certificate on failure: either a root killing vbar,
    or a noncentral w-fixed cocharacter cutting out a proper parabolic
    that contains the image."""

    irreducible: bool
    failing_root: Vec | None = None
    fixed_cochar: Vec | None = None

    def __bool__(self) -> bool:
        return self.irreducible


def is_G_irreducible(datum: RootDatum, p: TameInertialPair) -> IrreducibilityResult:
    """Decide whether no proper parabolic contains the image.

    True exactly when (a) no root pairing with vbar vanishes mod N and
    (b) every w-fixed cocharacter pairs to zero with every root.  Exact for
    every automorphism of the datum, in W or not (the w-orbit sum of a
    stable parabolic's cocharacter is fixed and defines it); any other
    matrix raises ValueError, as in the oracle.  (b) depends on w alone, so
    its certificate is kept once per datum and w (_noncentral_fixed_cochar).
    """
    killed = inertia_centralizer_roots(datum, p)
    root_permutation(datum, p.w)  # ValueError unless w permutes the roots
    if killed:
        return IrreducibilityResult(irreducible=False, failing_root=max(killed))
    fixed = _noncentral_fixed_cochar(datum, p.w)
    return IrreducibilityResult(irreducible=fixed is None, fixed_cochar=fixed)


@per_datum
def _noncentral_fixed_cochar(datum: RootDatum, w: WeylElement) -> Vec | None:
    """The largest w-fixed basis vector pairing nonzero with some root, or
    None when every fixed cocharacter is central.  Keyed on w's matrix."""
    return max([v for v in weyl_fixed_space(datum, w)
                if any(root_pairings(datum, v))], default=None)


# ---------------------------------------------------------------------------
# brute-force oracle

def brute_force_parabolic_oracle(datum: RootDatum, p: TameInertialPair,
                                 limit: int | None = None) -> list[ParabolicType]:
    """Every proper parabolic root subset containing the torus that the pair
    lands in, enumerated directly: every Weyl translate of every standard
    parabolic, kept when w stabilizes it.

    The translates depend only on the datum, so they are built once per
    datum, on the first oracle call, into a table of the distinct proper
    parabolics containing the torus: the W-orbit of each standard
    cocharacter, closed under the simple reflections (_torus_parabolics).
    The table keeps one int per root with a membership bit per entry, so a
    call for a new w tests every entry's stability at once with one XOR per
    root under w's root permutation; each entry's ParabolicType is built
    the first time a call returns it.  The fixed-space criterion of
    is_G_irreducible plays no part.

    Only meaningful when the inertia centralizer roots are empty (then any
    parabolic containing the image contains the torus).  Guarded by rank
    and by |W|, which the table learns from the orbit of the regular
    standard cocharacter (|W| points); passing an explicit limit on |W|
    replaces the default guard (rank <= ORACLE_RANK_CAP and
    |W| <= ORACLE_WEYL_CAP).  The limit must be an int, not a bool or
    float (ValueError).  The datum has one table whatever the limit, and
    a call whose limit is below |W| raises GuardError, storing nothing.
    """
    if limit is not None and not is_strict_int(limit):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if inertia_centralizer_roots(datum, p):
        raise ValueError(
            "oracle requires empty inertia centralizer roots; some root "
            "pairing with vbar vanishes mod N")
    if limit is None:
        if datum.rank > ORACLE_RANK_CAP:
            raise GuardError(
                f"oracle out of range: rank {datum.rank} exceeds "
                f"{ORACLE_RANK_CAP}; pass an explicit limit to override")
        limit = ORACLE_WEYL_CAP
    # the table may predate this limit; a datum without roots walks no orbit
    order, points, _, _ = _torus_parabolics(datum, limit=limit)
    if points and order > limit:
        raise _weyl_limit_error(datum, limit)
    return list(_stable_proper_parabolics(datum, p.w.matrix, limit=limit))


@per_datum
def _standard_parabolic_cochars(datum: RootDatum) -> tuple[Vec, ...]:
    """One integral defining cocharacter per proper standard parabolic:
    pairing zero on a proper subset of the simple roots, positive outside.
    The last one keeps every simple root, so it is regular.

    mu solves rows . mu = keep (rows: the simple-root functionals) with
    mu zero off the pivot columns of the rows' Hermite form, where the rank
    of the column prefix grows; on those columns the system is square and
    nonsingular, because the simple roots are independent.  Its Smith form
    has last diagonal entry t > 0, which every other one divides, so the
    solve of square . y = t . keep is integral: y is t times the rational
    solution, and mu is that solution's least positive integral multiple
    y / gcd(t, y)."""
    functionals = root_functionals(datum)
    rows = [functionals[i] for i in datum.simple_roots]
    if not rows:
        return ()
    pivots = [next(c for c, x in enumerate(row) if x)
              for row in hnf_rows(rows)]
    snf = smith_normal_form(tuple(tuple(row[c] for c in pivots)
                                  for row in rows))
    top = snf[0][-1][-1]
    out = []
    for keep in itertools.product((0, 1), repeat=len(rows)):
        if not any(keep):
            continue  # every simple pairs to zero: the whole group, not proper
        y = solve_int_smith(snf, vec_scale(top, keep))
        g = gcd(top, *y)
        mu = [0] * datum.rank
        for c, yi in zip(pivots, y):
            mu[c] = yi // g
        mu = tuple(mu)
        if [dot(row, mu) > 0 for row in rows] != [bool(k) for k in keep]:
            raise InternalConsistencyError(
                f"standard cocharacter {mu} of {datum.label} does not cut "
                f"out the simple roots {keep}")
        out.append(mu)
    return tuple(out)


@per_datum
def _torus_parabolics(datum: RootDatum, *, limit: int) -> tuple:
    """Every proper parabolic containing the torus, once each, as the
    table (order, points, members, records).  points holds each
    parabolic's (cochar, pairings), sorted by its nonnegative root indices;
    bit e of members[i] is set when root i lies in parabolic e; records[e]
    is parabolic e's ParabolicType, None until a call first returns it;
    order is |W|, the size of the regular orbit.

    Each standard cocharacter mu pairs >= 0 with the simple roots, so it is
    the dominant point of its W-orbit, and every orbit point is reached
    from it by steps s_i.lam = lam - c.alpha_i^vee with
    c = <alpha_i, lam> > 0.  Since s_i is an involution,
    <alpha_j, s_i.lam> = <s_i(alpha_j), lam>: the pairings of the new point
    are lam's permuted by s_i's root permutation, with no pairing computed.
    The stabilizer of a standard parabolic in W fixes its mu, so the orbit
    points and the parabolics of that type correspond one to one.

    The orbit of the regular cocharacter is closed first, and raises the
    GuardError of weyl_group_elements as soon as it passes the limit.  A
    call that raises stores nothing.  The limit is a guard, not part of
    the memo key: there is one table per datum, and a later call with a
    smaller limit is refused by comparing it with order."""
    steps = [(s, datum.coroots[s],
              operator.itemgetter(*_root_permutation_cached(datum, g)))
             for s, g in zip(datum.simple_roots, simple_coreflections(datum))]
    cochars = _standard_parabolic_cochars(datum)
    orbits = []
    for mu in cochars[-1:] + cochars[:-1]:
        orbit = {mu: root_pairings(datum, mu)}
        stack = [mu]
        while stack:
            lam = stack.pop()
            pairings = orbit[lam]
            for s, coroot, permute in steps:
                c = pairings[s]
                if c > 0:
                    image = tuple([x - c * y for x, y in zip(lam, coroot)])
                    if image not in orbit:
                        orbit[image] = permute(pairings)
                        stack.append(image)
            if len(orbit) > limit:
                raise _weyl_limit_error(datum, limit)
        orbits.append(orbit)
    # the nonnegative index tuples are distinct, so they alone decide the sort
    table = sorted((tuple([i for i, v in enumerate(pairings) if v >= 0]),
                    lam, pairings)
                   for orbit in orbits for lam, pairings in orbit.items())
    members = [0] * len(datum.roots)
    for e, (nonneg, _, _) in enumerate(table):
        for i in nonneg:
            members[i] |= 1 << e
    return (len(orbits[0]) if orbits else 0, [entry[1:] for entry in table],
            tuple(members), [None] * len(table))


@per_datum
def _stable_proper_parabolics(datum: RootDatum, w_matrix: Mat, *,
                              limit: int) -> tuple[ParabolicType, ...]:
    # w stabilizes a parabolic when its root permutation maps the
    # nonnegative roots onto themselves (normalizer_element_in_parabolic);
    # the permutation is a bijection, so exactly when no root and its image
    # disagree on membership: the OR over i of members[i] ^ members[perm[i]]
    # has bit e clear exactly for the stable parabolics e
    _, points, members, records = _torus_parabolics(datum, limit=limit)
    perm = _root_permutation_cached(datum, w_matrix)
    stable = ~functools.reduce(operator.or_, map(
        operator.xor, members, map(members.__getitem__, perm)), 0)
    stable &= (1 << len(points)) - 1
    found = []
    while stable:
        e = (stable & -stable).bit_length() - 1
        stable &= stable - 1
        if records[e] is None:
            lam, pairings = points[e]
            records[e] = ParabolicType(lam, *split_by_sign(pairings))
        found.append(records[e])
    return tuple(found)


# ---------------------------------------------------------------------------
# JSON form

def pair_to_dict(datum: RootDatum, p: TameInertialPair) -> dict:
    from .root_datum import build_root_datum, datum_to_dict

    try:
        is_preset = build_root_datum(datum.label) == datum
    except ValueError:
        is_preset = False
    out = {
        "group": datum.label if is_preset else datum_to_dict(datum),
        "q": p.q,
        "f": p.f,
        "vbar": list(p.vbar),
    }
    if p.w.word is not None:
        out["weyl_word"] = list(p.w.word)
    else:
        out["weyl_matrix"] = [list(row) for row in p.w.matrix]
    return out


def pair_from_dict(data: dict) -> tuple[RootDatum, TameInertialPair]:
    from .root_datum import build_root_datum, datum_from_dict

    if not isinstance(data, dict):
        raise ValueError("pair JSON must be an object")
    missing = {"group", "q", "f", "vbar"} - set(data)
    if missing:
        raise ValueError(f"pair JSON missing fields: {sorted(missing)}")
    group = data["group"]
    datum = (build_root_datum(group) if isinstance(group, str)
             else datum_from_dict(group))
    if "weyl_word" in data:
        w = weyl_from_word(datum, data["weyl_word"])
    elif "weyl_matrix" in data:
        w = weyl_from_matrix(datum, data["weyl_matrix"])
    else:
        raise ValueError("pair JSON needs weyl_word or weyl_matrix")
    return datum, make_pair(datum, data["q"], data["f"], data["vbar"], w)
