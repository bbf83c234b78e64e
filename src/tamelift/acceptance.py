"""Deterministic verification sweeps shared by the test suite and the CLI.

Each criterion runs one documented property over a fixed sweep of presets,
prime powers, unramified degrees, and Weyl elements.  Every random draw
comes from a Random seeded at the start of the criterion, so two runs with
the same seed walk the same cases and produce the same report.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product

from .crystalline_lift import (
    _lift_plan,
    kernel_membership,
    lift_inertia,
    reduction,
    simple_trick_check,
)
from .dynamic import chamber_sum, parabolic_of
from .fixtures import run_fixture_suite
from .hodge_tate import ht_type, is_ht_regular, regular_lift
from .lattice import identity_matrix, mat_pow, mat_vec, vec_add, vec_scale
from .root_datum import (
    RootDatum,
    build_root_datum,
    is_regular_cochar,
    root_pairings,
    weyl_group_elements,
)
from .tame_reps import (
    brute_force_parabolic_oracle,
    check_weyl_order,
    inertia_centralizer_roots,
    is_G_irreducible,
    make_pair,
    validate_pair,
)

DEFAULT_SEED = 0

# lift sweep, shared by criteria 1, 2, and 4
LIFT_PRESETS = ("GL2", "GL3", "GL4", "Sp4", "G2")
LIFT_PRIME_POWERS = (2, 3, 5)
LIFT_DEGREES = (1, 2, 3)
LIFT_SAMPLES = 100

# irreducibility sweep, shared by criteria 3 and 6
IRRED_PRESETS = ("GL2", "GL3", "Sp4", "G2")
IRRED_PRIME_POWERS = (2, 3, 4)
IRRED_DEGREES = (1, 2)
IRRED_MODULUS_CAP = 80
IRRED_EXHAUSTIVE_CAP = 10 ** 5
IRRED_SAMPLES = 500

CHAMBER_PAIRS_PER_PRESET = 1000
CHAMBER_COORD_BOUND = 9

REGULAR_LIFT_MULTIPLIER_CAP = 4

CRITERION_NAMES = {
    1: "lift soundness",
    2: "kernel-image exactness",
    3: "irreducibility criterion vs oracle",
    4: "regular lift search",
    5: "golden fixtures",
    6: "niveau power identity",
    7: "chamber sum invariance",
}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    cases: int
    failures: tuple[str, ...]
    seconds: float

    def summary(self) -> str:
        """The `selftest` report of this criterion: a status line, then at
        most three failures.  Seconds are left out, so the report of a seed
        is the same on every run."""
        state = "PASS" if self.passed else "FAIL"
        line = (f"criterion {self.number} ({self.name}): {state} "
                f"[{self.cases} cases]")
        for message in self.failures[:3]:
            line += f"\n  {message}"
        hidden = len(self.failures) - 3
        if hidden > 0:
            line += f"\n  ... and {hidden} more failures"
        return line


def _lift_sweep():
    """Yield (preset, datum, q, f, w) over every lift-sweep configuration:
    all Weyl elements whose f-th power is the identity."""
    for preset in LIFT_PRESETS:
        datum = build_root_datum(preset)
        elements = weyl_group_elements(datum)
        ident = identity_matrix(datum.rank)
        for f in LIFT_DEGREES:
            compatible = [w for w in elements if mat_pow(w.matrix, f) == ident]
            for q in LIFT_PRIME_POWERS:
                for w in compatible:
                    yield preset, datum, q, f, w


def _lift_cases(seed: int):
    """Yield (preset, datum, pair) for LIFT_SAMPLES valid pairs per lift-sweep
    configuration: vbar is the averaged matrix of the configuration's lift
    plan applied to a random x mod N, which always lands in the kernel of
    (q - w) mod N."""
    rng = random.Random(seed)
    for preset, datum, q, f, w in _lift_sweep():
        plan = _lift_plan(datum, w, q, f)
        for _ in range(LIFT_SAMPLES):
            x = tuple(rng.randrange(plan.modulus) for _ in range(datum.rank))
            yield preset, datum, make_pair(datum, q, f,
                                           mat_vec(plan.xi_bar, x), w)


def _pair_label(preset: str, p) -> str:
    return f"{preset} q={p.q} f={p.f} w={list(p.w.word)} vbar={p.vbar}"


def run_criterion_1(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """Every lift reproduces its input: kernel membership holds and the
    reduction returns the original tame pair, as exact integers."""
    cases = 0
    failures: list[str] = []
    for preset, datum, p in _lift_cases(seed):
        out = lift_inertia(datum, p)
        cases += 1
        if not (kernel_membership(p.w, out.tuple)
                and reduction(out.tuple) == p.vbar):
            failures.append(_pair_label(preset, p))
    return cases, failures


def run_criterion_2(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """The kernel of (q - w) mod N equals the image of the averaging matrix
    for every lift-sweep configuration, counted two independent ways: over
    all vectors (meeting in the middle, and for ranks above 2 one
    prime-power part of N at a time) and through Smith normal form."""
    del seed  # the sweep is already exhaustive
    cases = 0
    failures: list[str] = []
    for preset, datum, q, f, w in _lift_sweep():
        cases += 1
        exhaustive = simple_trick_check(datum, q, f, w, method="exhaustive")
        snf = simple_trick_check(datum, q, f, w, method="snf")
        if not (exhaustive and snf):
            failures.append(f"{preset} q={q} f={f} w={list(w.word)}: "
                            f"exhaustive={exhaustive} snf={snf}")
    return cases, failures


def _irreducibility_cases(seed: int):
    """Yield (preset, datum, pair) for every valid pair with no root killed
    by the inertia character, over the irreducibility sweep."""
    rng = random.Random(seed)
    for preset in IRRED_PRESETS:
        datum = build_root_datum(preset)
        elements = weyl_group_elements(datum)
        for q in IRRED_PRIME_POWERS:
            for f in IRRED_DEGREES:
                n = q ** f - 1
                if n > IRRED_MODULUS_CAP:
                    continue
                if n ** datum.rank <= IRRED_EXHAUSTIVE_CAP:
                    candidates = product(range(n), repeat=datum.rank)
                else:
                    candidates = (tuple(rng.randrange(n)
                                        for _ in range(datum.rank))
                                  for _ in range(IRRED_SAMPLES))
                for vbar in candidates:
                    for w in elements:
                        p = make_pair(datum, q, f, vbar, w)
                        if not validate_pair(datum, p).valid:
                            continue
                        if inertia_centralizer_roots(datum, p):
                            continue
                        yield preset, datum, p


def run_criterion_3(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """The two-condition irreducibility criterion agrees with the brute
    force search for a stable proper parabolic, case by case."""
    cases = 0
    failures: list[str] = []
    for preset, datum, p in _irreducibility_cases(seed):
        verdict = bool(is_G_irreducible(datum, p))
        stable = brute_force_parabolic_oracle(datum, p)
        cases += 1
        if verdict != (not stable):
            failures.append(f"{_pair_label(preset, p)}: criterion={verdict} "
                            f"oracle={len(stable)}")
    if cases == 0:
        failures.append("sweep produced no eligible pairs")
    return cases, failures


def run_criterion_4(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """regular_lift always lands on a fully regular tuple with a small seed
    multiplier, and repeating the sweep with the same seed reproduces every
    output bit for bit."""
    first, failures = _regular_lift_pass(seed)
    second, _ = _regular_lift_pass(seed)
    if first != second:
        failures.append("rerun with the same seed changed the outputs")
    return len(first), failures


def _regular_lift_pass(seed: int):
    outcomes = []
    failures: list[str] = []
    for preset, datum, p in _lift_cases(seed):
        out = regular_lift(datum, p)
        outcomes.append((preset, p.q, p.f, p.w.matrix, p.vbar,
                         out.tuple.slots, out.seed_multiplier))
        label = _pair_label(preset, p)
        if not (out.regular and is_ht_regular(datum, ht_type(out.tuple))):
            failures.append(f"{label}: lift not regular")
        elif out.seed_multiplier > REGULAR_LIFT_MULTIPLIER_CAP:
            failures.append(f"{label}: multiplier {out.seed_multiplier}")
        elif reduction(out.tuple) != p.vbar:
            failures.append(f"{label}: reduction mismatch")
    return outcomes, failures


def run_criterion_5(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """The stored golden fixture files are reproduced byte for byte."""
    del seed  # nothing random: recomputation against stored files
    outcomes = run_fixture_suite()
    failures = [f"fixture {o.name} mismatched" for o in outcomes
                if not o.passed]
    return len(outcomes), failures


def run_criterion_6(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """Every pair the criterion judges irreducible has a Weyl element whose
    niveau-th power is the identity."""
    cases = 0
    failures: list[str] = []
    for preset, datum, p in _irreducibility_cases(seed):
        if not is_G_irreducible(datum, p):
            continue
        cases += 1
        if not check_weyl_order(p).niveau_power_is_identity:
            failures.append(_pair_label(preset, p))
    if cases == 0:
        failures.append("sweep produced no irreducible pairs")
    return cases, failures


def _random_regular_cochar(datum: RootDatum, rng: random.Random):
    bound = CHAMBER_COORD_BOUND
    while True:
        cand = tuple(rng.randrange(-bound, bound + 1)
                     for _ in range(datum.rank))
        if is_regular_cochar(datum, cand):
            return cand


def _chamber_companion(datum: RootDatum, lam, rng: random.Random):
    """A second cocharacter in the same open chamber as lam: scale lam past
    a random perturbation so no root functional can change sign."""
    delta = tuple(rng.randrange(-CHAMBER_COORD_BOUND, CHAMBER_COORD_BOUND + 1)
                  for _ in range(datum.rank))
    margin = max(abs(v) for v in root_pairings(datum, delta))
    return vec_add(vec_scale(margin + 1, lam), delta)


def run_criterion_7(seed: int = DEFAULT_SEED) -> tuple[int, list[str]]:
    """Adding two cocharacters from the same open chamber never moves the
    attached parabolic."""
    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []
    for preset in LIFT_PRESETS:
        datum = build_root_datum(preset)
        for _ in range(CHAMBER_PAIRS_PER_PRESET):
            lam = _random_regular_cochar(datum, rng)
            mu = _chamber_companion(datum, lam, rng)
            total = chamber_sum(datum, lam, mu)
            cases += 1
            if parabolic_of(datum, total) != parabolic_of(datum, lam):
                failures.append(f"{preset} lam={lam} mu={mu}")
    return cases, failures


CRITERIA = (
    run_criterion_1,
    run_criterion_2,
    run_criterion_3,
    run_criterion_4,
    run_criterion_5,
    run_criterion_6,
    run_criterion_7,
)


def run_selected(numbers, seed: int = DEFAULT_SEED) -> tuple[CriterionResult, ...]:
    """Run the named criteria in ascending order, timing each; a crash
    becomes a failed result with no cases, not a lost report."""
    results = []
    for number in sorted(set(numbers)):
        if not 1 <= number <= len(CRITERIA):
            raise ValueError(f"no criterion {number}; valid: 1..{len(CRITERIA)}")
        start = time.perf_counter()
        try:
            cases, failures = CRITERIA[number - 1](seed)
        except Exception as exc:
            cases, failures = 0, [f"{type(exc).__name__}: {exc}"]
        results.append(CriterionResult(
            number=number, name=CRITERION_NAMES[number], passed=not failures,
            cases=cases, failures=tuple(failures),
            seconds=time.perf_counter() - start))
    return tuple(results)


def run_all(seed: int = DEFAULT_SEED) -> tuple[CriterionResult, ...]:
    return run_selected(range(1, len(CRITERIA) + 1), seed)
