"""Fresh-interpreter helper started by run.py; not run by hand.

    probe.py setup WARMUP_JSON
        import entangler.cli and run the warm-up argv lists (a JSON list of
        lists) in order; the parent times the whole start.
    probe.py trace STATS_PATH KEEP_SPANS CLI_ARGS...
        install the tracer, run one ``entangler`` command, write call
        counts, self times and (if KEEP_SPANS is 1) spans to STATS_PATH,
        and exit with the command's exit code.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup(warmup_json: str) -> int:
    from entangler import cli

    for argv in json.loads(warmup_json):
        if cli.main(argv) != 0:
            return 1
    return 0


def _trace(stats_path: str, keep_spans: str, argv: list[str]) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.keep_spans = keep_spans == "1"
    tracer.install()
    from entangler import cli

    rc = cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": tracer.calls, "self_ns": tracer.self_ns,
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(_setup(sys.argv[2]))
    if mode == "trace":
        sys.exit(_trace(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(f"unknown probe mode {mode!r}")
