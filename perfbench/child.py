"""One benchmark operation: run a thpsolve command in this fresh interpreter.

usage: python3 child.py TIMINGS_JSON TRACE THPSOLVE_ARG...

Times the import of thpsolve.cli and the two pipeline stages (prepare and
the boundary search).  With TRACE 1 it also opens a span around every call
listed in tracer.LAYER_SPANS, and after the command estimates what those
spans cost.  It writes the timings to TIMINGS_JSON and exits with the
command's exit code.
"""

import json
import sys
import time

import tracer


def main() -> int:
    timings_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import thpsolve.cli as cli
    import_s = time.perf_counter() - start
    spans = tracer.Tracer()
    if traced:
        missing = tracer.install(spans, tracer.LAYER_SPANS, tracer.LAYER_COUNTS)
    else:
        missing = tracer.install(spans, tracer.STAGE_SPANS)
    code = cli.main(argv)
    timings = {"import_s": import_s, "missing": missing, **spans.summary()}
    if traced:
        timings["trace"] = {"overhead_s": tracer.overhead_s(spans)}
    with open(timings_path, "w") as fh:
        json.dump(timings, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
