"""Arithmetic of the benchmark report: medians, the tail percentile,
run-to-run spread, and per-layer metrics from the child's span summary."""

from __future__ import annotations

import statistics

# where each per-layer metric of BENCHMARK.json comes from: (section of the
# child's timings, span or counter name).  Every time is self time, i.e. with
# child spans subtracted.  cli.bytes_written is measured by run.py itself.
LAYER_SOURCES = {
    "numerics.spline_evals": ("calls", "numerics.spline_eval"),
    "numerics.spline_eval_s": ("self_s", "numerics.spline_eval"),
    "numerics.spline_builds": ("calls", "numerics.spline_build"),
    "numerics.spline_build_s": ("self_s", "numerics.spline_build"),
    "numerics.cumint_calls": ("calls", "numerics.cumint"),
    "numerics.cumint_s": ("self_s", "numerics.cumint"),
    "numerics.tabulate_s": ("self_s", "numerics.tabulate"),
    "particular.solve_s": ("self_s", "particular.solve"),
    "particular.complex_branch": ("counters", "particular.complex_branch"),
    "formal_powers.build_s": ("self_s", "formal_powers.build"),
    "expr.evals": ("counters", "expr.evals"),
    "assemble.init_s": ("self_s", "assemble.init"),
    "assemble.system_s": ("self_s", "assemble.system"),
    "assemble.lstsq_s": ("self_s", "assemble.lstsq"),
    "assemble.fit_s": ("self_s", "assemble.fit"),
    "optimize.evals": ("counters", "optimize.evals"),
    "optimize.rejected": ("counters", "optimize.rejected"),
    "optimize.self_s": ("self_s", "optimize.search"),
    "thp.solution_evals": ("calls", "thp.solution_eval"),
    "thp.solution_eval_s": ("self_s", "thp.solution_eval"),
    "special.ei_calls": ("calls", "special.ei"),
    "special.ei_s": ("self_s", "special.ei"),
    "cli.parse_s": ("self_s", "cli.main"),
    "cli.self_s": ("self_s", "cli.command"),
    "trace.overhead_s": ("trace", "overhead_s"),
}


def layer_values(spans: dict) -> dict:
    """Per-layer metric values of one traced operation; a layer the command
    never entered reads 0."""
    return {metric: spans.get(section, {}).get(key, 0)
            for metric, (section, key) in LAYER_SOURCES.items()}


def tail_percentile(values, beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it,
    as (percent, value), or None when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - beyond        # 1-based rank of the value
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
