"""Run one ``cyclomap`` CLI command in this fresh interpreter.

    python3 bench/launch.py [--trace] -- ARG...
    python3 bench/launch.py --alloc FIELD_ID

The first form imports ``cyclomap.cli`` and calls ``cli.run(ARG...)``, so
field construction stays cold, as a user of the CLI pays it.  With
``--trace`` the layer wrappers are installed first, and one line
``BENCH-TRACE <json>`` with the import time, the per-layer aggregate and
the spans is written to stderr after the command ends.  The second form
prints the tracemalloc peak, in bytes, of building one field from nothing.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _alloc_peak(field_id: str) -> int:
    import tracemalloc

    from cyclomap.notation import field_from_id

    tracemalloc.start()
    try:
        field_from_id(field_id)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if argv[:1] == ["--alloc"]:
        print(_alloc_peak(argv[1]))
        return 0
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    start = time.perf_counter()
    from cyclomap import cli

    import_s = time.perf_counter() - start
    if not trace:
        return cli.run(argv)

    from tracer import TRACE_MARK, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.run(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record = tracer.aggregate()
    record["import_s"] = import_s
    record["span_rows"] = list(tracer.span_rows())
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
