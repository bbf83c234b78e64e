"""In-process tests for the command line front end: worked examples, output
formats, exit codes, and determinism."""
from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamelift import errors
from tamelift.cli import main
from tamelift.fixtures import FIXTURE_BUILDERS
from tamelift.jsonio import canonical_json

GL2_PAIR = ["--group", "GL2", "--q", "3", "--f", "2", "--w", "s0",
            "--vbar", "1,3"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lift_worked_example_table(capsys):
    code, out, _ = run(["lift", *GL2_PAIR], capsys)
    assert code == 0
    assert out == (
        "q: 3  f: 2  modulus: 8\n"
        "slot 0: (1, 0)\n"
        "slot 1: (0, 1)\n"
        "reduction: (1, 3)\n"
        "checks: kernel yes, reduction yes, regular yes\n"
    )


def test_lift_json_output_is_canonical(capsys):
    code, out, _ = run(["lift", *GL2_PAIR, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["slots"] == [[1, 0], [0, 1]]
    assert payload["reduction"] == [1, 3]
    assert payload["checks"] == {"kernel": True, "reduction": True,
                                 "regular": True}
    assert out == canonical_json(payload)


def test_regular_lift_zero_vbar(capsys):
    code, out, _ = run(["regular-lift", "--group", "GL2", "--q", "3",
                        "--f", "2", "--w", "s0", "--vbar", "0,0"], capsys)
    assert code == 0
    assert "seed multiplier: 1\n" in out
    assert "reduction: (0, 0)\n" in out
    assert "regular yes" in out


def test_datum_table_lists_roots(capsys):
    code, out, _ = run(["datum", "--group", "GL4"], capsys)
    assert code == 0
    assert "roots (12):" in out
    code, out, _ = run(["datum", "--group", "G2"], capsys)
    assert code == 0
    assert "roots (12):" in out
    assert "simple roots (2):" in out


def test_datum_json_roundtrips(capsys):
    code, out, _ = run(["datum", "--group", "Sp4", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "Sp4"
    assert payload["rank"] == 2
    assert len(payload["roots"]) == 8
    assert len(payload["weyl_generators"]) == 2


def test_datum_custom_invalid_names_invariant(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "rank": 2, "roots": [[1, -1]], "coroots": [[1, -1], [0, 5]],
        "pairing": [[1, 0], [0, 1]], "simple_roots": [0]}))
    code, _, err = run(["datum", "--custom", str(bad)], capsys)
    assert code == 2
    assert "root-coroot-bijection" in err


def test_datum_unreadable_file_is_input_error(tmp_path, capsys):
    code, _, err = run(["datum", "--custom", str(tmp_path / "missing.json")],
                       capsys)
    assert code == 1
    assert "error" in err


def test_validate_reports_failures(capsys):
    code, out, _ = run(["validate", "--group", "GL2", "--q", "3", "--f", "2",
                        "--w", "s0", "--vbar", "1,5"], capsys)
    assert code == 2
    assert "valid: no\n" in out
    assert "coordinate 0: weyl side 5, scaled side 3" in out


def test_validate_valid_pair_shows_niveau(capsys):
    code, out, _ = run(["validate", *GL2_PAIR], capsys)
    assert code == 0
    assert "valid: yes\n" in out
    assert "niveau: 2\n" in out
    assert "w^niveau is identity: yes\n" in out


def test_irreducible_verdicts_and_certificates(capsys):
    code, out, _ = run(["irreducible", *GL2_PAIR], capsys)
    assert code == 0
    assert out.startswith("irreducible: yes\n")

    code, out, _ = run(["irreducible", "--group", "GL2", "--q", "3",
                        "--f", "2", "--w", "s0", "--vbar", "4,4"], capsys)
    assert code == 2
    assert "irreducible: no\n" in out
    assert "root (1, -1) pairs to zero" in out

    code, out, _ = run(["irreducible", "--group", "GL2", "--q", "3",
                        "--f", "2", "--w", "", "--vbar", "4,0"], capsys)
    assert code == 2
    assert "noncentral w-fixed cocharacter (1, 0)" in out


def test_ht_table(capsys):
    code, out, _ = run(["ht", *GL2_PAIR], capsys)
    assert code == 0
    assert out == (
        "colabel  cocharacter  regular  offending-root\n"
        "      0  (-1, 0)  yes  -\n"
        "      1  (0, -1)  yes  -\n"
        "ht regular: yes\n"
    )


def test_ht_flags_offending_root(capsys):
    code, out, _ = run(["ht", "--group", "GL2", "--q", "3", "--f", "2",
                        "--w", "s0", "--vbar", "0,0"], capsys)
    assert code == 0
    assert "(1, -1)" in out
    assert "ht regular: no" in out
    code, out, _ = run(["ht", "--group", "GL2", "--q", "3", "--f", "2",
                        "--w", "s0", "--vbar", "0,0", "--regular"], capsys)
    assert code == 0
    assert "ht regular: yes" in out


def test_oracle_gl4_pair(capsys):
    code, out, _ = run(["oracle", "--group", "GL4", "--q", "3", "--f", "2",
                        "--w", "s1 s0 s2 s1", "--vbar", "1,2,3,6"], capsys)
    assert code == 0
    assert out.startswith("stable proper parabolics: 2\n")
    assert "cochar (1, 0, 1, 0)" in out


@pytest.mark.parametrize("f", ["20000", "200000"])
def test_lift_degree_over_the_bound_exits_3_at_once(capsys, f):
    # both once ran the lift: 20000 to a 4,300-digit printing error (exit
    # 1), 200000 for more than 100 s
    start = time.perf_counter()
    code, out, err = run(["lift", "--group", "GL2", "--q", "2", "--f", f,
                          "--w", "", "--vbar", "0,0"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "bound of 4096 bits" in err and "internal" not in err


def test_lift_of_an_undecided_q_exits_3_at_once(capsys):
    # q = 2^61 - 1 once ran trial division for longer than 5 s
    start = time.perf_counter()
    code, out, err = run(["lift", "--group", "GL2", "--q",
                          str(2 ** 61 - 1), "--f", "1", "--w", "",
                          "--vbar", "0,0"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "up to 1048576" in err and "internal" not in err


def test_oracle_guard_and_env_override(monkeypatch, capsys):
    argv = ["oracle", "--group", "GL5", "--q", "2", "--f", "4",
            "--w", "s2 s1 s0", "--vbar", "1,2,4,8,0"]
    monkeypatch.delenv("TAMELIFT_ORACLE_LIMIT", raising=False)
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "oracle out of range" in err

    monkeypatch.setenv("TAMELIFT_ORACLE_LIMIT", "200")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.startswith("stable proper parabolics: 2\n")

    monkeypatch.setenv("TAMELIFT_ORACLE_LIMIT", "many")
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "TAMELIFT_ORACLE_LIMIT" in err


def test_pair_file_matches_inline(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"group": "GL2", "q": 3, "f": 2,
                                "vbar": [1, 3], "weyl_word": [0]}))
    _, inline_out, _ = run(["lift", *GL2_PAIR], capsys)
    code, file_out, _ = run(["lift", "--pair-file", str(path)], capsys)
    assert code == 0
    assert file_out == inline_out


def test_weyl_matrix_input_matches_word(capsys):
    _, word_out, _ = run(["lift", *GL2_PAIR], capsys)
    code, matrix_out, _ = run(["lift", "--group", "GL2", "--q", "3",
                               "--f", "2", "--w", "[[0,1],[1,0]]",
                               "--vbar", "1,3"], capsys)
    assert code == 0
    assert matrix_out == word_out


def test_invalid_inputs_exit_1(tmp_path, capsys):
    cases = [
        ["lift", "--group", "GL2", "--q", "3", "--f", "2", "--w", "s0"],
        ["lift", "--group", "GL2", "--q", "3", "--f", "2", "--w", "s0",
         "--vbar", "1,x"],
        ["lift", "--group", "GL9000", "--q", "3", "--f", "2", "--w", "s0",
         "--vbar", "1,3"],
        ["lift", "--group", "GL2", "--q", "6", "--f", "1", "--w", "",
         "--vbar", "1,2"],
        ["lift", "--group", "GL2", "--q", "3", "--f", "2", "--w", "s7",
         "--vbar", "1,3"],
        ["selftest", "--only", "9"],
        ["nonsense"],
    ]
    for argv in cases:
        code, _, err = run(argv, capsys)
        assert code == 1, argv
        assert err.strip(), argv

    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"group": "GL2", "q": 3, "f": 2,
                                "vbar": [1, 3], "weyl_word": [0]}))
    code, _, err = run(["lift", "--pair-file", str(path), "--q", "3"], capsys)
    assert code == 1
    assert "cannot be combined" in err


def test_pair_file_float_q_exits_1(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"group": "GL2", "q": 3.0, "f": 2,
                                "vbar": [1, 3], "weyl_word": [0]}))
    code, out, err = run(["lift", "--pair-file", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: q must be an integer, got 3.0\n"


def test_pair_file_non_int_weyl_word_exits_1(tmp_path, capsys):
    # a float letter used to be truncated: [0.9] lifted as [0]
    path = tmp_path / "pair.json"
    for word, shown in [([0.9], "0.9"), ([True], "True")]:
        path.write_text(json.dumps({"group": "GL2", "q": 3, "f": 2,
                                    "vbar": [1, 3], "weyl_word": word}))
        code, out, err = run(["lift", "--pair-file", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: Weyl word letters must be integers, got {shown}\n"


def test_datum_custom_bool_entry_is_rejected(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "rank": 2, "roots": [[True, -1], [-1, 1]],
        "coroots": [[1, -1], [-1, 1]], "pairing": [[1, 0], [0, 1]],
        "simple_roots": [0]}))
    code, out, err = run(["datum", "--custom", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "roots: entries must be integer vectors of length 2" in err


@pytest.mark.parametrize("fields, message", [
    ({"weyl_matrix": 5}, "Weyl matrix must be a list, got 5"),
    ({"vbar": 5, "weyl_word": [0]}, "vbar must be a list, got 5"),
    ({"weyl_word": 5}, "Weyl word must be a list, got 5"),
])
def test_pair_file_scalar_for_a_list_exits_1(tmp_path, capsys, fields,
                                             message):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"group": "GL2", "q": 3, "f": 2,
                                "vbar": [1, 3], **fields}))
    code, out, err = run(["irreducible", "--pair-file", str(path)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_weyl_matrix_flag_that_is_no_matrix_exits_1(capsys):
    code, out, err = run(["irreducible", "--group", "GL2", "--q", "3",
                          "--f", "2", "--vbar", "1,3", "--w", "[1,2]"],
                         capsys)
    assert (code, out) == (1, "")
    assert err == "error: each row of Weyl matrix must be a list, got 1\n"


@pytest.mark.parametrize("fields, message", [
    ({"roots": 5}, "roots: roots must be a list, got 5"),
    ({"simple_roots": [[0]]},
     "simple-roots: simple root index [0] out of range"),
])
def test_datum_custom_malformed_field_exits_2(tmp_path, capsys, fields,
                                              message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "rank": 2, "roots": [[1, -1], [-1, 1]],
        "coroots": [[1, -1], [-1, 1]], "pairing": [[1, 0], [0, 1]],
        "simple_roots": [0], **fields}))
    code, out, err = run(["datum", "--custom", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9)
    | st.text("s0123 ,", max_size=6),
    lambda inner: st.lists(inner, max_size=3), max_leaves=8)
SMALL_INTS = st.integers(-1, 2)
# each field is arbitrary JSON or well shaped for rank 2, so that some
# draws get past the parsing to the pair checks and the computations
PAIR_FIELD_VALUES = {
    "vbar": JSON_VALUES | st.lists(SMALL_INTS, min_size=2, max_size=2)
    | st.just([0, 0]),
    "weyl_word": JSON_VALUES | st.lists(st.integers(0, 1), max_size=4),
    "weyl_matrix": JSON_VALUES | st.lists(
        st.lists(SMALL_INTS, min_size=2, max_size=2), min_size=2,
        max_size=2),
}


@st.composite
def pair_documents(draw):
    weyl = draw(st.sampled_from(("weyl_word", "weyl_matrix")))
    return {"group": draw(st.sampled_from(("GL2", "SL3", "G2"))),
            "q": draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))),
            "f": draw(st.integers(1, 3)),
            "vbar": draw(PAIR_FIELD_VALUES["vbar"]),
            weyl: draw(PAIR_FIELD_VALUES[weyl])}


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(("validate", "irreducible", "lift",
                                "regular-lift", "oracle")),
       document=pair_documents())
def test_pair_file_fields_never_fail_internally(tmp_path, capsys, command,
                                                document):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(document))
    code, _, err = run([command, "--pair-file", str(path)], capsys)
    assert code in (0, 1, 2, 3)
    assert "internal" not in err


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    import tamelift.cli as cli

    def broken(args):
        raise TypeError("boom")

    monkeypatch.setattr(cli, "_cmd_lift", broken)
    code, out, err = run(["lift", *GL2_PAIR], capsys)
    assert (code, out) == (4, "")
    assert err == "error: internal TypeError: boom\n"
    code, _, err = run(["lift", *GL2_PAIR, "--verbose"], capsys)
    assert code == 4
    assert err.startswith("Traceback")
    assert err.endswith("error: internal TypeError: boom\n")


# the documented exit code and stderr of every error a CLI handler may raise
EXIT_CODE_CONTRACT = [
    (errors.DatumValidationError("roots", "boom"), 2, "roots: boom"),
    (errors.ChamberMismatchError("boom"), 2, "boom"),
    (errors.InvalidPairError("boom"), 2, "boom"),
    (errors.GuardError("boom"), 3, "boom"),
    (errors.LiftHypothesisError("boom"), 2, "boom"),
    (errors.InternalConsistencyError("boom"), 4, "boom"),
    (errors.MultisetDivisionError("boom"), 2, "boom"),
    (ValueError("boom"), 1, "boom"),
    (OSError("boom"), 1, "boom"),
    (RuntimeError("boom"), 4, "internal RuntimeError: boom"),
]


def test_exit_code_contract_covers_every_domain_error():
    covered = {type(exc) for exc, _, _ in EXIT_CODE_CONTRACT}
    assert set(errors.TameliftError.__subclasses__()) <= covered


@pytest.mark.parametrize("exc, code, message", EXIT_CODE_CONTRACT,
                         ids=[type(exc).__name__ for exc, _, _ in
                              EXIT_CODE_CONTRACT])
def test_exit_code_contract(monkeypatch, capsys, exc, code, message):
    import tamelift.cli as cli

    def raising(datum, p):
        raise exc

    monkeypatch.setattr(cli, "lift_inertia", raising)
    assert run(["lift", *GL2_PAIR], capsys) == (code, "",
                                                 f"error: {message}\n")


def test_weyl_matrix_outside_w_exits_1(capsys):
    # -I preserves the GL2 datum but is not in its Weyl group
    code, out, err = run(["irreducible", "--group", "GL2", "--q", "3",
                          "--f", "2", "--vbar", "2,4",
                          "--w", "[[-1,0],[0,-1]]"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: matrix is not a Weyl group element of GL2: it "
                   "preserves the root datum but lies outside W\n")


def test_invalid_pair_exits_2(capsys):
    code, _, err = run(["lift", "--group", "GL2", "--q", "3", "--f", "2",
                        "--w", "s0", "--vbar", "1,5"], capsys)
    assert code == 2
    assert "congruence" in err or "compatibility" in err


def test_selftest_subset(capsys):
    code, out, _ = run(["selftest", "--only", "5,7"], capsys)
    assert code == 0
    assert "criterion 5 (golden fixtures): PASS [4 cases]\n" in out
    assert "criterion 7 (chamber sum invariance): PASS [5000 cases]\n" in out
    assert out.endswith("selftest: PASS\n")


def test_selftest_report_of_failures(capsys, monkeypatch):
    import tamelift.acceptance as acceptance
    from tamelift.acceptance import CriterionResult

    failed = CriterionResult(
        number=3, name="irreducibility criterion vs oracle", passed=False,
        cases=9, seconds=1.5, failures=tuple(f"case {k}" for k in range(5)))
    # the CLI imports the acceptance module only when selftest runs
    monkeypatch.setattr(acceptance, "run_selected",
                        lambda numbers, seed: (failed,))
    code, out, err = run(["selftest", "--only", "3", "--verbose"], capsys)
    assert code == 2
    assert out == (
        "criterion 3 (irreducibility criterion vs oracle): FAIL [9 cases]\n"
        "  case 0\n  case 1\n  case 2\n  ... and 2 more failures\n"
        "selftest: FAIL\n")
    assert out.startswith(failed.summary() + "\n")
    assert err == "criterion 3: 1.5s\n"


def test_selftest_reports_a_crashed_criterion(capsys, monkeypatch):
    import tamelift.acceptance as acceptance

    def crashing(seed):
        raise RuntimeError("boom")

    criteria = list(acceptance.CRITERIA)
    criteria[2] = crashing
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    (result,) = acceptance.run_selected([3])
    assert (result.number, result.passed, result.cases, result.failures) == (
        3, False, 0, ("RuntimeError: boom",))
    assert result.seconds >= 0
    code, out, _ = run(["selftest", "--only", "3"], capsys)
    assert (code, out) == (
        2, "criterion 3 (irreducibility criterion vs oracle): FAIL [0 cases]\n"
           "  RuntimeError: boom\nselftest: FAIL\n")


@pytest.mark.parametrize("argv, seed", [
    (["selftest"], 0), (["selftest", "--only", "3"], 0),
    (["selftest", "--seed", "7"], 7), (["selftest", "--only", "3",
                                        "--seed", "7"], 7),
])
def test_selftest_seed_defaults_to_the_acceptance_seed(argv, seed, capsys,
                                                         monkeypatch):
    import tamelift.acceptance as acceptance

    seeds = []

    def record(*args, seed):
        seeds.append(seed)
        return ()

    monkeypatch.setattr(acceptance, "run_all", record)
    monkeypatch.setattr(acceptance, "run_selected", record)
    assert acceptance.DEFAULT_SEED == 0
    code, out, _ = run(argv, capsys)
    assert (code, out, seeds) == (0, "selftest: PASS\n", [seed])


GL4_PAIR = ["--group", "GL4", "--q", "3", "--f", "2", "--w", "s1 s0 s2 s1",
            "--vbar", "1,2,3,6"]
VALIDATE_KEYS = {"valid", "modulus", "failures", "niveau",
                 "niveau_power_is_identity", "degree_power_is_identity"}
IRREDUCIBLE_KEYS = {"irreducible", "failing_root", "fixed_cochar"}


@pytest.mark.parametrize("argv, keys", [
    (["validate", *GL2_PAIR], VALIDATE_KEYS),
    (["validate", *GL2_PAIR[:-1], "1,5"], VALIDATE_KEYS),
    (["irreducible", *GL2_PAIR], IRREDUCIBLE_KEYS),
    (["irreducible", *GL2_PAIR[:-1], "4,4"], IRREDUCIBLE_KEYS),
    (["oracle", *GL4_PAIR], {"count", "parabolics"}),
    (["fixtures"], {"passed", "fixtures"}),
    (["regular-lift", *GL2_PAIR[:-1], "0,0"],
     {"slots", "q", "f", "checks", "reduction", "seed_multiplier"}),
], ids=["validate", "validate-invalid", "irreducible", "irreducible-not",
        "oracle", "fixtures", "regular-lift"])
def test_json_output_has_its_keys_and_the_table_exit_code(capsys, argv,
                                                          keys):
    table_code, _, _ = run(argv, capsys)
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == table_code
    payload = json.loads(out)
    assert set(payload) == keys
    assert out == canonical_json(payload)


def test_selftest_json(capsys):
    code, out, _ = run(["selftest", "--only", "5", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["results"][0]["number"] == 5
    assert out == canonical_json(payload)


def test_fixtures_pass(capsys):
    code, out, _ = run(["fixtures"], capsys)
    assert code == 0
    assert out.count(": PASS") == 4


def test_fixtures_mismatch_prints_diff(monkeypatch, capsys):
    monkeypatch.setitem(FIXTURE_BUILDERS, "multiset_halving",
                        lambda: {"input": [9]})
    code, out, _ = run(["fixtures"], capsys)
    assert code == 2
    assert "fixture multiset_halving: FAIL" in out
    assert "--- multiset_halving.json (stored)" in out
    assert "+++ multiset_halving.json (recomputed)" in out


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["ht", *GL2_PAIR, "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "selftest" in out
