"""Traced stand-in for the `altchains` command, run as a subprocess.

Usage: python bench/cli_entry.py OUT.json ARG...

It installs the tracer's wrappers, calls `altchains.cli.main(ARG...)`, writes
the per-layer totals, the time spent inside `main` and the tracer's own
set-up and write-out time to OUT.json, and exits with main's return code.
The parent takes the rest of the invocation's wall time as start-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import altchains.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def run(out_path: str, argv: list[str]) -> int:
    began = perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    main_began = perf_counter_ns()
    code = altchains.cli.main(argv)
    main_ended = perf_counter_ns()
    tracer.recording = False
    Path(out_path).write_text(json.dumps({
        "spans": tracer.snapshot(),
        "main_ns": main_ended - main_began,
        "tracer_ns": (main_began - began) + (perf_counter_ns() - main_ended),
    }))
    return code


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1], sys.argv[2:]))
