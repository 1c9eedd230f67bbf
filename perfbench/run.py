"""Benchmark of the thpsolve command line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Closed loop with one client: one fresh Python child at a time runs a
thpsolve command from ../src with BLAS pinned to one thread, and the next
starts once it has exited and an oracle that does not use thpsolve has
checked its output.  After each operation a set-up probe (probe.py), started
once per run, repeats the command's pipeline.prepare for a short slice;
setup_s is the median of all those repetitions.  Operations repeat while
the next one is expected to end less than half an operation after
--seconds, so a run measures about --seconds (at least one operation).

Prints one JSON record per operation, then a table of the end-to-end metrics
(median, tail percentile, sample count), then as the last line a JSON object
{"correct", "attempted", "failed", "metrics"}.  Its metrics are those
BENCHMARK.json lists: the end-to-end ones with --trace 0 and the per-layer
ones with --trace 1, where every operation is traced and each value is the
median over the operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PROBE = HERE / "probe.py"
WORK = HERE / ".work"

BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# every run must end within 180 s; operations are killed past this budget
RUN_LIMIT_S = 170.0

# after each operation the set-up probe repeats prepare for this share of
# the operation's wall time: the machine's speed drifts over seconds, so
# set-up samples must be spread over the run like the operations are
SETUP_SHARE = 0.2

# every end-to-end metric the table prints; which of them the final line
# carries is up to BENCHMARK.json (NOTES.md says why the others are not
# gated)
REPORTED = {"wall_s": "s", "import_s": "s", "setup_s": "s", "search_s": "s",
            "peak_rss_mb": "MB", "boundary_max_err": "1", "fail_share": "1"}


def declared(kind: str) -> dict:
    """Metric name -> unit of the ``kind`` list ("end_to_end" or
    "per_layer") of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def ungated() -> list:
    gated = declared("end_to_end")
    return [name for name in REPORTED if name not in gated]


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout


def _within(limit_s: float, call):
    """``call()``, interrupted by OperationTimeout after ``limit_s``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(limit_s, 0.001))
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _wait(proc: subprocess.Popen, limit_s: float):
    """Block until ``proc`` exits (killing it after ``limit_s``); return its
    resource usage.  The child is always reaped, also when this process is
    being stopped."""
    try:
        _, status, usage = _within(limit_s, lambda: os.wait4(proc.pid, 0))
    except BaseException as exc:
        os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        if not isinstance(exc, OperationTimeout):
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), **BLAS_THREADS}


class SetupProbe:
    """The probe.py child of one run: it repeats the command's
    pipeline.prepare when asked, in slices between operations."""

    def __init__(self, args: list, limit_s: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), *args], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env(), cwd=ROOT)
        try:
            self._read(limit_s)     # "ready": the untimed warm-up call is done
        except BaseException:
            self.close()
            raise

    def _read(self, limit_s: float) -> str:
        line = _within(limit_s, self.proc.stdout.readline)
        if not line:
            raise RuntimeError(f"set-up probe exited with {self.proc.wait()}")
        return line

    def repeat(self, budget_s: float, limit_s: float) -> list:
        """Times of the prepare calls that fit in ``budget_s`` (at least one)."""
        self.proc.stdin.write(f"{budget_s}\n")
        self.proc.stdin.flush()
        return json.loads(self._read(limit_s))

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_op(workload: workloads.Workload, work_dir: Path, traced: bool,
           limit_s: float) -> dict:
    """One operation: spawn the command, time it, check its output."""
    out = work_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    timings = work_dir / "timings.json"
    timings.unlink(missing_ok=True)
    log_path = work_dir / "child.log"
    cmd = [sys.executable, str(CHILD), str(timings), str(int(traced)),
           *workload.args(out)]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        usage = _wait(proc, limit_s)
        wall_s = time.perf_counter() - start
    record = {"traced": traced, "exit_code": proc.returncode, "wall_s": wall_s,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        record["problems"] = [f"exit code {proc.returncode}: {' | '.join(tail)}"]
        return record
    spans = json.loads(timings.read_text())
    record["import_s"] = spans["import_s"]
    # the command's own prepare call, cold in a fresh process; setup_s comes
    # from the probe's warm repetitions instead
    record["prepare_s"] = spans["total_s"].get("pipeline.prepare")
    record["search_s"] = spans["total_s"].get("pipeline.solve")
    if traced:
        record["layers"] = {**summary.layer_values(spans), "cli.bytes_written": sum(
            f.stat().st_size for f in out.rglob("*") if f.is_file())}
        record["missing_spans"] = spans["missing"]
    try:
        fields, problems = workload.check(out)
    except (OSError, ValueError, KeyError) as exc:
        fields, problems = {}, [f"unreadable output: {exc!r}"]
    record.update(fields)
    record["problems"] = problems
    return record


def measure(workload: workloads.Workload, work_dir: Path, probe: SetupProbe,
            seconds: float, trace: bool, deadline: float) -> list:
    """Closed loop: operations, each followed by a set-up slice, back to
    back while the next one, of mean length, would end less than half an
    operation after ``seconds``."""
    records = []
    start = time.perf_counter()
    while True:
        record = run_op(workload, work_dir, trace, deadline - time.perf_counter())
        record["setup_s"] = probe.repeat(SETUP_SHARE * record["wall_s"],
                                         deadline - time.perf_counter())
        records.append(record)
        elapsed = time.perf_counter() - start
        if (elapsed * (1 + 0.5 / len(records)) > seconds
                or time.perf_counter() > deadline):
            return records


def _median(values, low=False):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return statistics.median_low(values) if low else statistics.median(values)


def e2e_values(records: list, name: str) -> list:
    """The samples of an end-to-end metric; setup_s has several per record."""
    values = []
    for r in records:
        value = r.get(name)
        if isinstance(value, list):
            values.extend(value)
        elif value is not None:
            values.append(value)
    return values


def report(records: list) -> list:
    """Table lines: every end-to-end metric over the run's operations."""
    lines = [f"{'metric':<18}{'unit':<6}{'median':>14}  tail percentile (samples)"]
    for name, unit in REPORTED.items():
        if name == "fail_share":
            failed = sum(bool(r["problems"]) for r in records)
            lines.append(f"{name:<18}{unit:<6}{failed / len(records):>14.6g}"
                         f"  {failed} of {len(records)} operations failed")
            continue
        values = e2e_values(records, name)
        if not values:
            lines.append(f"{name:<18}{unit:<6}{'-':>14}  not measured on this workload")
            continue
        tail = summary.tail_percentile(values)
        tail_text = (f"p{tail[0]:.0f} = {tail[1]:.6g}" if tail
                     else "n/a: needs 11 samples")
        lines.append(f"{name:<18}{unit:<6}{statistics.median(values):>14.6g}"
                     f"  {tail_text} (n={len(values)})")
    return lines


def result(records: list, trace: bool) -> dict:
    failed = sum(bool(r["problems"]) for r in records)
    if trace:
        # counts and sizes take the lower median, so they stay whole numbers
        metrics = {name: {"value": _median((r.get("layers", {}).get(name) for r in records),
                                           low=unit != "s"),
                          "unit": unit}
                   for name, unit in declared("per_layer").items()}
    else:
        metrics = {name: {"value": _median(e2e_values(records, name)), "unit": unit}
                   for name, unit in declared("end_to_end").items()}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def _stop(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    # on SIGTERM, unwind so that the children are stopped and reaped
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thpsolve" / "cli.py").is_file():
        print(f"perfbench: no thpsolve source under {SRC}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, work_dir)
        probe = SetupProbe(workload.args(work_dir / "probe"), 60)
        try:
            records = measure(workload, work_dir, probe, args.seconds,
                              bool(args.trace), deadline)
        finally:
            probe.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for r in records:
        print(json.dumps({"record": r}))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} operations")
    for line in report(records):
        print(line)
    outcome = result(records, bool(args.trace))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
