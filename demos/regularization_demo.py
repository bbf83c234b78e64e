"""Hodge-Tate types and regularization: when the canonical lift is
degenerate, retune it by adding N times an averaged regular seed."""
from __future__ import annotations

from tamelift import (
    build_root_datum,
    canonical_regular_cochar,
    ht_type,
    is_ht_regular,
    lift_inertia,
    make_pair,
    regular_lift,
    root_pairings,
    weyl_from_word,
    weyl_identity,
)


def show_type(datum, label, v) -> None:
    t = ht_type(v)
    print(f"  {label}:")
    for j, c in enumerate(t.cochars):
        pairings = root_pairings(datum, c)
        killed = [alpha for alpha, x in zip(datum.roots, pairings) if x == 0]
        note = f"killed by {killed[0]}" if killed else "regular"
        print(f"    colabel {j}: {c}  ({note})")
    print(f"    regular type: {is_ht_regular(datum, t)}")


def degenerate_then_regular() -> None:
    gl2 = build_root_datum("GL2")
    swap = weyl_from_word(gl2, "s0")
    p = make_pair(gl2, 3, 2, (0, 0), swap)

    print("GL2, q=3, f=2, w=s0, vbar=(0, 0):")
    base = lift_inertia(gl2, p)
    show_type(gl2, "canonical lift (degenerate)", base.tuple)

    out = regular_lift(gl2, p)
    show_type(gl2, f"regularized lift (seed multiplier C={out.seed_multiplier})",
              out.tuple)
    from tamelift import reduction
    print(f"    reduction still vbar: {reduction(out.tuple) == p.vbar}")


def multiplier_zero_when_already_regular() -> None:
    gl2 = build_root_datum("GL2")
    swap = weyl_from_word(gl2, "s0")
    p = make_pair(gl2, 3, 2, (1, 3), swap)
    out = regular_lift(gl2, p)
    print(f"\nvbar=(1, 3) already lifts regularly: C={out.seed_multiplier}")


def seeds_per_preset() -> None:
    print("\ncanonical regular seed cocharacters:")
    for name in ("GL2", "GL3", "GL4", "Sp4", "SO5", "G2"):
        datum = build_root_datum(name)
        print(f"  {name:4} {canonical_regular_cochar(datum)}")


def g2_degenerate() -> None:
    g2 = build_root_datum("G2")
    p = make_pair(g2, 5, 1, (0, 0), weyl_identity(g2))
    out = regular_lift(g2, p)
    print(f"\nG2, q=5, f=1, vbar=(0, 0): C={out.seed_multiplier}, "
          f"slots {out.tuple.slots}, regular={out.regular}")


if __name__ == "__main__":
    degenerate_then_regular()
    multiplier_zero_when_already_regular()
    seeds_per_preset()
    g2_degenerate()
