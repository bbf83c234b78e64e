"""Tour of the built-in root data: presets, pairings, Weyl groups, and the
JSON round trip for custom data."""
from __future__ import annotations

from tamelift import (
    build_root_datum,
    datum_from_dict,
    datum_to_dict,
    root_pairings,
    weyl_from_word,
    weyl_group_elements,
)


def preset_overview() -> None:
    print("preset overview")
    for name in ("GL2", "GL3", "GL4", "SL3", "Sp4", "SO5", "SO8", "G2"):
        datum = build_root_datum(name)
        size = len(weyl_group_elements(datum))
        print(f"  {name:4} rank {datum.rank}  roots {len(datum.roots):3}  "
              f"simple {len(datum.simple_roots)}  |W| {size}")


def pairing_sanity() -> None:
    # every root pairs to 2 with its own coroot
    print("\n<alpha, alpha_vee> = 2 for every root:")
    for name in ("GL3", "Sp4", "G2"):
        datum = build_root_datum(name)
        values = {root_pairings(datum, alpha_v)[k]
                  for k, alpha_v in enumerate(datum.coroots)}
        print(f"  {name}: {sorted(values)}")


def weyl_words() -> None:
    datum = build_root_datum("GL3")
    print("\nGL3 Weyl group, one reduced word per element:")
    for w in weyl_group_elements(datum):
        word = " ".join(f"s{i}" for i in w.word) or "(identity)"
        image = w.apply((2, 1, 0))
        print(f"  {word:10}  sends (2, 1, 0) to {image}")
    longest = weyl_from_word(datum, "s0 s1 s0")
    same = weyl_from_word(datum, "s1 s0 s1")
    print(f"  braid relation: s0 s1 s0 == s1 s0 s1 -> {longest == same}")


def custom_round_trip() -> None:
    datum = build_root_datum("Sp4")
    data = datum_to_dict(datum)
    back = datum_from_dict(data, label="my-sp4")
    print("\ncustom JSON round trip for Sp4:")
    print(f"  same roots and pairing: {back.roots == datum.roots and back.pairing == datum.pairing}")
    print(f"  label carried separately: {back.label}")


if __name__ == "__main__":
    preset_overview()
    pairing_sanity()
    weyl_words()
    custom_round_trip()
