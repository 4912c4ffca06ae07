"""Start ``repro serve`` from this checkout, optionally with the tracer.

Usage (from the repository root)::

    python3 servebench/launcher.py [--trace-out FILE] serve --workers 2 ...

Everything after the launcher's own option is handed to ``repro``'s CLI
unchanged.  With ``--trace-out`` the span wrappers of
:mod:`servebench.tracer` are installed in this (the server parent)
process before the server starts; when the server exits (SIGTERM unwinds
``repro serve`` cleanly) they are removed, the restore self-test runs,
and the spans go to ``FILE`` with the self-test result in
``FILE.meta.json``.  Spawned shards import this file as their
``__main__`` but never run :func:`main`, so they are not wrapped.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.api.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    from servebench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)
        with open(trace_out + ".meta.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"not_restored": tracer.verify_restored()},
                handle,
                allow_nan=False,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
