"""Golden fixtures: small worked scenarios stored as canonical JSON and
recomputed on demand.

Each builder reruns its scenario from scratch; the suite compares the
recomputation byte-for-byte against the stored file.
"""
from __future__ import annotations

from pathlib import Path

from .dynamic import (
    frobenius_orbit_sum,
    normalizer_element_in_parabolic,
    parabolic_of,
    parabolic_to_dict,
)
from .hodge_tate import (
    IntMultiset,
    ht_to_dict,
    ht_type,
    induced_lt_ht,
    multiset_divide,
    regular_seed,
)
from .jsonio import canonical_json
from .record import record
from .root_datum import build_root_datum, weyl_from_word

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def gl4_parabolic_fixture() -> dict:
    """A rank-4 block scenario: a product of two disjoint swaps, a cochar
    whose two-step orbit sum groups the slots in pairs, and the parabolic
    that the orbit sum cuts out, stabilized by the Weyl element."""
    datum = build_root_datum("GL4")
    word = [1, 0, 2, 1]
    w = weyl_from_word(datum, word)
    cochar = (3, 1, 4, 2)
    orbit_sum = frobenius_orbit_sum(datum, cochar, w, 2)
    parab = parabolic_of(datum, orbit_sum)
    return {
        "group": "GL4",
        "weyl_word": word,
        "cochar": list(cochar),
        "translate_count": 2,
        "orbit_sum": list(orbit_sum),
        "roots": [list(r) for r in datum.roots],
        "parabolic": parabolic_to_dict(parab),
        "normalizer_in_parabolic":
            normalizer_element_in_parabolic(datum, w, parab),
    }


def multiset_halving_fixture() -> dict:
    m = IntMultiset((1, 1, 2, 2, 2, 2))
    return {
        "input": list(m.items),
        "divisor": 2,
        "output": list(multiset_divide(m, 2).items),
    }


def induced_weights_fixture() -> dict:
    out = {}
    for d in (1, 2, 3, 5):
        colabeled, labeled = induced_lt_ht(2, d)
        out[str(d)] = {
            "num_base_labels": 2,
            "colabeled": {str(s): list(m.items)
                          for s, m in sorted(colabeled.items())},
            "labeled": {str(t): list(m.items)
                        for t, m in sorted(labeled.items())},
        }
    return out


def lubin_tate_ht_fixture() -> dict:
    """Hodge-Tate types of the tuple concentrated at colabel 0 with value
    (1, 0): weight -1 at the identity colabel, 0 everywhere else."""
    datum = build_root_datum("GL2")
    out = {}
    for f in (1, 2, 3):
        seed = regular_seed(datum, 3, f, 0, (1, 0))
        out[str(f)] = ht_to_dict(ht_type(seed))
    return out


FIXTURE_BUILDERS = {
    "gl4_parabolic": gl4_parabolic_fixture,
    "multiset_halving": multiset_halving_fixture,
    "induced_weights": induced_weights_fixture,
    "lubin_tate_ht": lubin_tate_ht_fixture,
}


@record
class FixtureOutcome:
    name: str
    passed: bool
    expected: str
    actual: str


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def run_fixture_suite() -> list[FixtureOutcome]:
    """Recompute every fixture and compare byte-for-byte with the stored
    canonical JSON."""
    outcomes = []
    for name in sorted(FIXTURE_BUILDERS):
        actual = canonical_json(FIXTURE_BUILDERS[name]())
        path = fixture_path(name)
        expected = path.read_text(encoding="utf-8") if path.exists() else ""
        outcomes.append(FixtureOutcome(
            name=name,
            passed=actual == expected,
            expected=expected,
            actual=actual,
        ))
    return outcomes


def write_fixture_files(directory: Path | None = None) -> list[Path]:
    directory = Path(directory) if directory is not None else FIXTURE_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in sorted(FIXTURE_BUILDERS.items()):
        path = directory / f"{name}.json"
        path.write_text(canonical_json(builder()), encoding="utf-8")
        written.append(path)
    return written
