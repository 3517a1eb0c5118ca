"""Run the acdcdyn command line the way its console script does.

    python3 perfbench/launch.py [--trace FILE] <acdcdyn arguments...>

With ``--trace FILE`` the span wrappers of ``spans.py`` are installed before
``acdcdyn.cli.main`` runs, and the spans plus the import time are written to
FILE as JSON when the command returns.  The package is found through
``PYTHONPATH``.
"""

import json
import sys
import time

t0 = time.perf_counter()
args = sys.argv[1:]
trace_file = None
if args[:1] == ["--trace"]:
    trace_file, args = args[1], args[2:]

import acdcdyn.cli  # noqa: E402  (the import itself is measured)

import_s = time.perf_counter() - t0

if trace_file is None:
    sys.exit(acdcdyn.cli.main(args))

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 0
try:
    code = acdcdyn.cli.main(args)
finally:
    tracer.uninstall()
    with open(trace_file, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "spans": tracer.records()}, f)
sys.exit(code)
