"""Command line front end.

Subcommands inspect root data, validate tame inertial pairs, compute lifts
and their Hodge-Tate types, run the brute-force parabolic search, and
reproduce the golden fixtures and verification sweeps.

Results go to stdout, diagnostics to stderr.  Output is deterministic: the
same flags (and seed, where one applies) give byte-identical stdout.  Exit
codes: 0 success, 1 invalid input (a ValueError or OSError), and for a
domain error the `exit_code` of its type in `tamelift.errors`: 2 a
validation or requested check failed, 3 an enumeration guard tripped, 4 an
internal re-check failed.  Any other unexpected error also exits 4.  Every
failure prints one `error:` line, with no traceback unless --verbose.
"""
from __future__ import annotations

import argparse
import os
import sys

from .crystalline_lift import lift_inertia, lift_to_dict, regular_lift
from .dynamic import parabolic_to_dict
from .errors import TameliftError
from .hodge_tate import ht_to_dict, ht_type
from .jsonio import canonical_json, load_json_file
from .root_datum import (
    build_root_datum,
    datum_from_dict,
    datum_to_dict,
    root_pairings,
    simple_coreflections,
    weyl_from_matrix,
    weyl_from_word,
)
from .tame_reps import (
    brute_force_parabolic_oracle,
    check_weyl_order,
    is_G_irreducible,
    make_pair,
    pair_from_dict,
    validate_pair,
)

ORACLE_LIMIT_ENV = "TAMELIFT_ORACLE_LIMIT"


class CliInputError(ValueError):
    """Unusable flags or unreadable input; exits 1, as any ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)

    def _parse_optional(self, arg_string):
        # no option starts with "-" and a digit, so "--vbar -1,-3" reads as
        # "--vbar=-1,-3" (argparse itself only takes "-1" as a value)
        if arg_string[:1] == "-" and arg_string[1:2].isdecimal():
            return None
        return super()._parse_optional(arg_string)


# ---------------------------------------------------------------------------
# input parsing

def _parse_vbar(text: str):
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise CliInputError(
            f"cannot parse --vbar {text!r}; expected comma separated "
            f"integers like 1,3") from exc


def _parse_weyl(datum, text: str):
    text = text.strip()
    if text.startswith("["):
        import json

        try:
            matrix = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliInputError(f"cannot parse --w matrix: {exc}") from exc
        return weyl_from_matrix(datum, matrix)
    return weyl_from_word(datum, text)


def _load_datum(args):
    if args.group is not None and args.custom is not None:
        raise CliInputError("use exactly one of --group / --custom")
    if args.group is not None:
        return build_root_datum(args.group)
    if args.custom is not None:
        return datum_from_dict(load_json_file(args.custom))
    raise CliInputError("need --group or --custom")


def _load_pair(args):
    inline = (args.group, args.custom, args.q, args.f, args.vbar, args.w)
    if args.pair_file is not None:
        if any(value is not None for value in inline):
            raise CliInputError(
                "--pair-file cannot be combined with inline pair flags")
        datum, p = pair_from_dict(load_json_file(args.pair_file))
    else:
        datum = _load_datum(args)
        missing = [flag for flag, value in
                   (("--q", args.q), ("--f", args.f),
                    ("--vbar", args.vbar), ("--w", args.w))
                   if value is None]
        if missing:
            raise CliInputError("missing " + ", ".join(missing))
        vbar = _parse_vbar(args.vbar)
        w = _parse_weyl(datum, args.w)
        p = make_pair(datum, args.q, args.f, vbar, w)
    if args.verbose:
        word = "matrix input" if p.w.word is None else f"word {list(p.w.word)}"
        print(f"pair: {datum.label}, q={p.q}, f={p.f}, "
              f"modulus={p.modulus}, w from {word}", file=sys.stderr)
    return datum, p


# ---------------------------------------------------------------------------
# output formatting

def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_json(payload) -> None:
    sys.stdout.write(canonical_json(payload))


def _offending_root(datum, cochar):
    killed = [alpha for alpha, v in zip(datum.roots,
                                        root_pairings(datum, cochar))
              if v == 0]
    return max(killed) if killed else None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_datum(args) -> int:
    datum = _load_datum(args)
    generators = simple_coreflections(datum)
    if args.format == "json":
        payload = datum_to_dict(datum)
        payload["label"] = datum.label
        payload["weyl_generators"] = [[list(row) for row in g]
                                      for g in generators]
        _emit_json(payload)
        return 0
    print(f"label: {datum.label}")
    print(f"rank: {datum.rank}")
    print(f"roots ({len(datum.roots)}):")
    for k, alpha in enumerate(datum.roots):
        print(f"  {k:3d}  root {_fmt_vec(alpha)}  "
              f"coroot {_fmt_vec(datum.coroots[k])}")
    print(f"simple roots ({len(datum.simple_roots)}):")
    for i, k in enumerate(datum.simple_roots):
        print(f"  s{i} = root {k} {_fmt_vec(datum.roots[k])}")
    print("weyl generators (cocharacter action, one row per line):")
    for i, g in enumerate(generators):
        print(f"  s{i}: " + "  ".join(_fmt_vec(row) for row in g))
    return 0


def _cmd_validate(args) -> int:
    datum, p = _load_pair(args)
    report = validate_pair(datum, p)
    order = check_weyl_order(p) if report.valid else None
    if args.format == "json":
        payload = {
            "valid": report.valid,
            "modulus": report.modulus,
            "failures": [{"coordinate": i, "weyl_side": a, "scaled_side": b}
                         for i, a, b in report.failures],
            "niveau": None if order is None else order.niveau,
            "niveau_power_is_identity":
                None if order is None else order.niveau_power_is_identity,
            "degree_power_is_identity":
                None if order is None else order.degree_power_is_identity,
        }
        _emit_json(payload)
    else:
        print(f"modulus: {report.modulus}")
        print(f"valid: {_yn(report.valid)}")
        for i, a, b in report.failures:
            print(f"  coordinate {i}: weyl side {a}, scaled side {b}")
        if order is not None:
            print(f"niveau: {order.niveau}")
            print(f"w^niveau is identity: {_yn(order.niveau_power_is_identity)}")
            print(f"w^f is identity: {_yn(order.degree_power_is_identity)}")
    return 0 if report.valid else 2


def _cmd_irreducible(args) -> int:
    datum, p = _load_pair(args)
    result = is_G_irreducible(datum, p)
    if args.format == "json":
        payload = {
            "irreducible": result.irreducible,
            "failing_root": None if result.failing_root is None
            else list(result.failing_root),
            "fixed_cochar": None if result.fixed_cochar is None
            else list(result.fixed_cochar),
        }
        _emit_json(payload)
    else:
        print(f"irreducible: {_yn(result.irreducible)}")
        if result.failing_root is not None:
            print(f"certificate: root {_fmt_vec(result.failing_root)} pairs "
                  f"to zero with vbar mod {p.modulus}")
        if result.fixed_cochar is not None:
            print(f"certificate: noncentral w-fixed cocharacter "
                  f"{_fmt_vec(result.fixed_cochar)}")
    return 0 if result.irreducible else 2


def _emit_lift(p, out, args, multiplier=None) -> int:
    # the lift's reduction is vbar: the lift re-verified it
    if args.format == "json":
        payload = lift_to_dict(out)
        payload["reduction"] = list(p.vbar)
        if multiplier is not None:
            payload["seed_multiplier"] = multiplier
        _emit_json(payload)
        return 0
    print(f"q: {p.q}  f: {p.f}  modulus: {p.modulus}")
    for j, slot in enumerate(out.tuple.slots):
        print(f"slot {j}: {_fmt_vec(slot)}")
    if multiplier is not None:
        print(f"seed multiplier: {multiplier}")
    print(f"reduction: {_fmt_vec(p.vbar)}")
    print(f"checks: kernel {_yn(out.kernel_checked)}, "
          f"reduction {_yn(out.reduction_checked)}, "
          f"regular {_yn(out.regular)}")
    return 0


def _cmd_lift(args) -> int:
    datum, p = _load_pair(args)
    return _emit_lift(p, lift_inertia(datum, p), args)


def _cmd_regular_lift(args) -> int:
    datum, p = _load_pair(args)
    out = regular_lift(datum, p)
    return _emit_lift(p, out, args, multiplier=out.seed_multiplier)


def _cmd_ht(args) -> int:
    datum, p = _load_pair(args)
    out = regular_lift(datum, p) if args.regular else lift_inertia(datum, p)
    t = ht_type(out.tuple)
    offending = {j: _offending_root(datum, c)
                 for j, c in enumerate(t.cochars)}
    # HT-regular exactly when no slot has a root pairing to zero with it
    regular = all(root is None for root in offending.values())
    if args.format == "json":
        payload = {
            "f": t.f,
            "cochars": ht_to_dict(t),
            "offending_roots": {str(j): None if r is None else list(r)
                                for j, r in offending.items()},
            "regular": regular,
        }
        _emit_json(payload)
        return 0
    print("colabel  cocharacter  regular  offending-root")
    for j, c in enumerate(t.cochars):
        root = offending[j]
        root_text = "-" if root is None else _fmt_vec(root)
        print(f"{j:7d}  {_fmt_vec(c)}  {_yn(root is None)}  {root_text}")
    print(f"ht regular: {_yn(regular)}")
    return 0


def _cmd_oracle(args) -> int:
    datum, p = _load_pair(args)
    limit = None
    env = os.environ.get(ORACLE_LIMIT_ENV)
    if env is not None:
        try:
            limit = int(env)
        except ValueError as exc:
            raise CliInputError(
                f"{ORACLE_LIMIT_ENV} must be an integer, got {env!r}") from exc
    found = brute_force_parabolic_oracle(datum, p, limit=limit)
    if args.format == "json":
        _emit_json({"count": len(found),
                    "parabolics": [parabolic_to_dict(par) for par in found]})
        return 0
    print(f"stable proper parabolics: {len(found)}")
    for k, par in enumerate(found):
        d = parabolic_to_dict(par)
        print(f"  {k}: cochar {_fmt_vec(d['cochar'])}  nonneg {d['nonneg']}  "
              f"levi {d['levi']}  unipotent {d['unipotent']}")
    return 0


def _parse_criteria(text: str):
    try:
        return sorted({int(tok.strip()) for tok in text.split(",")})
    except ValueError as exc:
        raise CliInputError(
            f"cannot parse --only {text!r}; expected e.g. 1,3,5") from exc


def _cmd_selftest(args) -> int:
    from .acceptance import DEFAULT_SEED, run_all, run_selected

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.only is not None:
        results = run_selected(_parse_criteria(args.only), seed=seed)
    else:
        results = run_all(seed=seed)
    passed = all(r.passed for r in results)
    if args.format == "json":
        _emit_json({
            "passed": passed,
            "results": [{"number": r.number, "name": r.name,
                         "passed": r.passed, "cases": r.cases,
                         "failures": list(r.failures)} for r in results],
        })
    else:
        for r in results:
            print(r.summary())
            if args.verbose:
                print(f"criterion {r.number}: {r.seconds:.1f}s",
                      file=sys.stderr)
        print(f"selftest: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def _cmd_fixtures(args) -> int:
    import difflib

    from .fixtures import run_fixture_suite

    outcomes = run_fixture_suite()
    failed = [o for o in outcomes if not o.passed]
    if args.format == "json":
        _emit_json({
            "passed": not failed,
            "fixtures": [{"name": o.name, "passed": o.passed}
                         for o in outcomes],
        })
        return 0 if not failed else 2
    for o in outcomes:
        print(f"fixture {o.name}: {'PASS' if o.passed else 'FAIL'}")
    for o in failed:
        diff = difflib.unified_diff(
            o.expected.splitlines(keepends=True),
            o.actual.splitlines(keepends=True),
            fromfile=f"{o.name}.json (stored)",
            tofile=f"{o.name}.json (recomputed)",
        )
        sys.stdout.writelines(diff)
    return 0 if not failed else 2


# ---------------------------------------------------------------------------
# parser assembly and dispatch

def _add_datum_arguments(sub) -> None:
    sub.add_argument("--group", help="preset name, e.g. GL3, SL4, Sp4, SO5, G2")
    sub.add_argument("--custom", help="path to a root datum JSON file")


def _add_pair_arguments(sub) -> None:
    _add_datum_arguments(sub)
    sub.add_argument("--q", type=int, help="residue field size (prime power)")
    sub.add_argument("--f", type=int, help="unramified degree")
    sub.add_argument("--vbar", help="comma separated integers, e.g. 1,3")
    sub.add_argument("--w", help="Weyl word like 's0 s1 s0' (empty for the "
                                 "identity) or a JSON matrix")
    sub.add_argument("--pair-file", help="path to a pair JSON file "
                                         "(replaces the inline flags)")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"),
                        default="table", help="output format")
    common.add_argument("--verbose", action="store_true",
                        help="extra diagnostics on stderr")

    parser = _Parser(prog="tamelift", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Parser)

    sub = subparsers.add_parser("datum", parents=[common],
                                help="describe a root datum")
    _add_datum_arguments(sub)
    sub.set_defaults(handler=_cmd_datum)

    for name, handler, text in (
            ("validate", _cmd_validate,
             "check the Frobenius compatibility congruence"),
            ("irreducible", _cmd_irreducible,
             "decide G-irreducibility with a certificate"),
            ("lift", _cmd_lift, "compute the canonical crystalline lift"),
            ("regular-lift", _cmd_regular_lift,
             "compute a Hodge-Tate regular crystalline lift"),
            ("ht", _cmd_ht, "print the Hodge-Tate cocharacter table"),
            ("oracle", _cmd_oracle,
             "enumerate stable proper parabolics by brute force")):
        sub = subparsers.add_parser(name, parents=[common], help=text)
        _add_pair_arguments(sub)
        if name == "ht":
            sub.add_argument("--regular", action="store_true",
                             help="use the regularized lift")
        sub.set_defaults(handler=handler)

    sub = subparsers.add_parser("selftest", parents=[common],
                                help="run the verification sweeps")
    sub.add_argument("--seed", type=int,
                     help="seed for the randomized sweeps")
    sub.add_argument("--only", help="comma separated criterion numbers")
    sub.set_defaults(handler=_cmd_selftest)

    sub = subparsers.add_parser("fixtures", parents=[common],
                                help="recompute the golden fixtures")
    sub.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except TameliftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug: report it as an internal failure
        if args.verbose:
            import traceback
            traceback.print_exc()
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
