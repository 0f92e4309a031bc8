"""Traced cold ``cslbec`` call.

Usage: python3 bench/bootstrap.py SPANS_JSON ARG...

Imports the package (timed as the ``import`` layer), wraps its public
functions with the benchmark tracer, runs ``cslbec.cli.run(ARG...)`` and
writes the tracer snapshot to SPANS_JSON when it exits.  The exit code is
the command's.  ``PYTHONPATH`` must point at the checkout's ``src``.
"""

import json
import sys
import time

start = time.perf_counter()

import tracer  # noqa: E402  (the bench directory is sys.path[0])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    t0 = time.perf_counter()
    import cslbec.cli
    tr.record("import", t0, time.perf_counter())
    tr.install()
    code = 1
    try:
        code = cslbec.cli.run(argv)
    finally:
        end = time.perf_counter()
        tr.region(end - start)
        tr.spans.append((0, None, None, "call", start, end))
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tr.snapshot(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
