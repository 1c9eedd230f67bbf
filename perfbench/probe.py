"""The benchmark's set-up time: thpsolve's pipeline.prepare, repeated in one
process.

usage: python3 probe.py THPSOLVE_ARG...

Runs the thpsolve command only as far as its call of pipeline.prepare, keeps
that call's arguments and makes one untimed call, which also warms the file
cache and the bytecode for the operations that follow.  It then prints
"ready" and reads stdin line by line: each line holds a budget in seconds,
and the probe repeats the call while the next repetition fits in the budget
(at least once), then prints one JSON list of the repetitions' times.  It
exits at the end of its input.
"""

import json
import sys
import time

import thpsolve.cli as cli
import thpsolve.pipeline as pipeline

import tracer


class _Captured(BaseException):
    """Ends the command at its prepare call; the command's own error
    handling only catches exceptions."""


def captured_prepare(argv: list) -> tuple:
    """(args, kwargs) of the command's call of pipeline.prepare."""
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Captured

    original = pipeline.prepare
    tracer.rebind(original, capture)
    try:
        cli.main(argv)
    except _Captured:
        pass
    finally:
        tracer.rebind(capture, original)
    if not calls:
        raise RuntimeError(f"thpsolve {' '.join(argv)} never calls pipeline.prepare")
    return calls[0]


def main() -> int:
    args, kwargs = captured_prepare(sys.argv[1:])
    pipeline.prepare(*args, **kwargs)
    print("ready", flush=True)
    for line in sys.stdin:
        budget_s, times = float(line), []
        while not times or sum(times) + times[-1] <= budget_s:
            start = time.perf_counter()
            pipeline.prepare(*args, **kwargs)
            times.append(time.perf_counter() - start)
        print(json.dumps(times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
