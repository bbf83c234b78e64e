"""Child driver for traced CLI calls.

Runs `tamelift.cli.main(argv)` in this fresh process with the benchmark's
wrappers installed, and times `import tamelift` and `main` separately.  The
CLI's stdout and exit code pass through unchanged; the timings and spans go
to the last line of stderr, after CHILD_MARKER.

    python3 bench/cli_child.py lift --group GL2 --q 3 --f 2 --w s0 --vbar 1,3
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

CHILD_MARKER = "BENCH-CHILD "


def main(argv) -> int:
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
    import tracer as tracing

    t0 = time.perf_counter()
    import tamelift.cli
    t1 = time.perf_counter()
    tr = tracing.Tracer()
    tr.install()
    tr.op = 0
    t2 = time.perf_counter()
    code = tamelift.cli.main(argv)
    t3 = time.perf_counter()
    tr.uninstall()
    sys.stdout.flush()
    report = {"import_s": t1 - t0, "main_s": t3 - t2,
              "layers": tr.summary(), "trace": tr.to_dict()}
    print(CHILD_MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
