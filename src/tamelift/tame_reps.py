"""Tame inertial pairs: the data model for mod-p representations whose
restriction to inertia lands in a maximal torus.

A pair records the residue field size q, the unramified degree f, a
cocharacter vector vbar with entries mod N = q^f - 1 describing the inertia
action, and a Weyl element w standing in for Frobenius.  Compatibility means
Frobenius conjugation matches the q-power map on inertia characters:
w . vbar = q . vbar (mod N), entrywise in cocharacter coordinates.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import gcd

from .dynamic import ParabolicType, split_by_sign
from .errors import GuardError, InternalConsistencyError, InvalidPairError
from .lattice import (
    Mat,
    Vec,
    det,
    dot,
    hnf_rows,
    identity_matrix,
    is_strict_int,
    mat_pow,
    vec_mod,
    vec_scale,
)
from .root_datum import (
    RootDatum,
    WeylElement,
    _root_permutation_cached,
    _weyl_limit_error,
    central_cochar_space,
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


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    while q % p == 0:
        q //= p
    return q == 1


def _require_q_f(q: int, f: int) -> None:
    """Reject (ValueError) a q that is not a prime power or an f below 1.
    Both must be ints and not bools: floats equal to integers hash alike,
    so one would otherwise share (and could fill) every memo keyed on q or
    f."""
    for name, value in (("q", q), ("f", f)):
        if not is_strict_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not is_prime_power(q):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if f < 1:
        raise ValueError(f"f must be a positive integer, got {f}")


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
    if len(vbar) != datum.rank:
        raise ValueError(
            f"vbar has {len(vbar)} entries, expected rank {datum.rank}")
    return TameInertialPair(q=q, f=f, vbar=tuple(vbar), w=w)


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
    n = p.modulus
    weyl_side = vec_mod(p.w.apply(p.vbar), n)
    scaled_side = vec_mod(vec_scale(p.q, p.vbar), n)
    return tuple(
        (i, a, b) for i, (a, b) in enumerate(zip(weyl_side, scaled_side))
        if a != b
    )


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
    connected centralizer of the inertia image.  Lexicographically sorted."""
    _require_valid(datum, p)
    return _killed_roots(datum, p)


def _killed_roots(datum: RootDatum, p: TameInertialPair) -> tuple[Vec, ...]:
    # inertia_centralizer_roots without the validation, for callers that
    # have validated the pair already
    n = p.modulus
    return tuple(alpha for alpha, v in zip(datum.roots,
                                           root_pairings(datum, p.vbar))
                 if v % n == 0)


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
    (b) the w-fixed cocharacter space is no larger than the central one.
    """
    killed = inertia_centralizer_roots(datum, p)
    if killed:
        return IrreducibilityResult(irreducible=False, failing_root=max(killed))
    fixed = weyl_fixed_space(datum, p.w)
    central = central_cochar_space(datum)
    if len(fixed) == len(central):
        return IrreducibilityResult(irreducible=True)
    # the central space is the common kernel of the root functionals, so a
    # fixed vector is noncentral exactly when some root pairs nonzero with it
    noncentral = [v for v in fixed if any(root_pairings(datum, v))]
    if not noncentral:
        # every element of W fixes the central cocharacters, so a fixed
        # space of another size with no noncentral vector means w is not in W
        raise InvalidPairError(
            f"Frobenius element {p.w.matrix} lies outside the Weyl group of "
            f"{datum.label}: its fixed cocharacters are all central but "
            f"their rank is {len(fixed)}, not {len(central)}")
    return IrreducibilityResult(irreducible=False, fixed_cochar=max(noncentral))


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
    A call for a new w then only tests which table entries w's root
    permutation maps onto themselves.  The fixed-space criterion of
    is_G_irreducible plays no part.

    Only meaningful when the inertia centralizer roots are empty (then any
    parabolic containing the image contains the torus).  Guarded by rank
    and by |W|, which the table learns from the orbit of the regular
    standard cocharacter (|W| points); passing an explicit limit on |W|
    replaces the default guard (rank <= ORACLE_RANK_CAP and
    |W| <= ORACLE_WEYL_CAP).
    """
    _require_valid(datum, p)
    if _killed_roots(datum, p):
        raise ValueError(
            "oracle requires empty inertia centralizer roots; some root "
            "pairing with vbar vanishes mod N")
    if limit is None:
        if datum.rank > ORACLE_RANK_CAP:
            raise GuardError(
                f"oracle out of range: rank {datum.rank} exceeds "
                f"{ORACLE_RANK_CAP}; pass an explicit limit to override")
        limit = ORACLE_WEYL_CAP
    return [ParabolicType(datum, *record)
            for record in _stable_proper_parabolics(datum, p.w.matrix, limit)]


@per_datum
def _standard_parabolic_cochars(datum: RootDatum) -> tuple[Vec, ...]:
    """One integral defining cocharacter per proper standard parabolic:
    pairing zero on a proper subset of the simple roots, positive outside.
    The last one keeps every simple root, so it is regular.

    mu solves rows . mu = keep (rows: the simple-root functionals) with
    mu zero off the pivot columns of the rows' echelon form, where the rank
    of the column prefix grows; on those columns the system is square and
    nonsingular, because the simple roots are independent.  Cramer's rule
    gives the solution y / D, and mu is its least positive integral
    multiple."""
    functionals = root_functionals(datum)
    rows = [functionals[i] for i in datum.simple_roots]
    pivots = [next(c for c, x in enumerate(row) if x)
              for row in hnf_rows(rows)]
    square = [[row[c] for c in pivots] for row in rows]
    d = det(square)
    out = []
    for keep in itertools.product((0, 1), repeat=len(rows)):
        if not any(keep):
            continue  # every simple pairs to zero: the whole group, not proper
        y = [det([r[:i] + [k] + r[i + 1:] for r, k in zip(square, keep)])
             for i in range(len(pivots))]
        g = gcd(d, *y) if d > 0 else -gcd(d, *y)
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


# The memo keeps a parabolic as (defining cochar, nonneg, levi, unipotent),
# a ParabolicType's fields without its datum: a ParabolicType in the datum's
# own memo would refer back to the datum, which only the cycle collector
# could then free.
_ParabolicRecord = tuple[Vec, frozenset[int], frozenset[int], frozenset[int]]


@per_datum
def _torus_parabolics(datum: RootDatum, limit: int
                      ) -> tuple[tuple[_ParabolicRecord, tuple[bool, ...]], ...]:
    """Every proper parabolic containing the torus, once each, sorted by
    the sorted tuple of its nonnegative root indices, and with its
    nonnegative set as a 0/1 indicator tuple over the roots.

    Each standard cocharacter mu pairs >= 0 with the simple roots, so it is
    the dominant point of its W-orbit, and every orbit point is reached
    from it by steps s_i.lam = lam - c.alpha_i^vee with
    c = <alpha_i, lam> > 0.  Since s_i is an involution,
    <alpha_j, s_i.lam> = <s_i(alpha_j), lam>: the pairings of the new point
    are lam's permuted by s_i's root permutation, with no pairing computed.
    The stabilizer of a standard parabolic in W fixes its mu, so the orbit
    points and the parabolics of that type correspond one to one.

    The orbit of the regular cocharacter has |W| points; it is closed first,
    and raises the GuardError of weyl_group_elements as soon as it passes
    the limit.  A call that raises stores nothing."""
    steps = [(s, datum.coroots[s],
              operator.itemgetter(*_root_permutation_cached(datum, g)))
             for s, g in zip(datum.simple_roots, simple_coreflections(datum))]
    cochars = _standard_parabolic_cochars(datum)
    points = []
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
        points.extend(orbit.items())
    table = [((lam, *split_by_sign(pairings)),
              tuple([v >= 0 for v in pairings])) for lam, pairings in points]
    table.sort(key=lambda entry: tuple(sorted(entry[0][1])))
    return tuple(table)


@per_datum
def _stable_proper_parabolics(datum: RootDatum, w_matrix: Mat,
                              limit: int) -> tuple[_ParabolicRecord, ...]:
    # w stabilizes a parabolic when its root permutation maps the
    # nonnegative roots onto themselves (normalizer_element_in_parabolic);
    # the permutation is a bijection, so exactly when the permuted
    # indicator tuple is the indicator tuple
    perm = root_permutation(datum, WeylElement(matrix=w_matrix))
    table = _torus_parabolics(datum, limit)
    if not table:
        return table  # no roots, so no proper parabolic
    image = operator.itemgetter(*perm)
    return tuple(record for record, mask in table if image(mask) == mask)


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
        w = weyl_from_matrix(datum, tuple(tuple(r) for r in data["weyl_matrix"]))
    else:
        raise ValueError("pair JSON needs weyl_word or weyl_matrix")
    return datum, make_pair(datum, data["q"], data["f"], data["vbar"], w)
