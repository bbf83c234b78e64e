"""Canonical JSON: sorted keys, two-space indent, trailing newline, integers
only.  Golden files and CLI output share this form so byte comparison works.
`json` is imported on first use, so a call that reads and writes no JSON
does not load it."""
from __future__ import annotations


def canonical_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def load_json_file(path) -> object:
    import json

    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
