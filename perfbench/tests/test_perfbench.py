"""Tests of the benchmark's own arithmetic and checks."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds B [1, 6] (which holds C [3, 4]) and B [7, 8]
    t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4, 6, 7, 8, 10]))
    t.enter("A")
    t.enter("B")
    t.enter("C")
    t.exit()
    t.exit()
    t.enter("B")
    t.exit()
    t.exit()
    assert dict(t.calls) == {"A": 1, "B": 2, "C": 1}
    assert dict(t.total_s) == {"A": 10, "B": 6, "C": 1}
    assert dict(t.self_s) == {"A": 4, "B": 5, "C": 1}


def test_wrapped_call_closes_its_span_when_it_raises():
    t = tracer.Tracer(clock=FakeClock([0, 2, 5, 9]))

    def fail():
        raise ValueError

    inner = t.wrap("inner", fail)

    def outer():
        with pytest.raises(ValueError):
            inner()

    t.wrap("outer", outer)()
    assert t.self_s["inner"] == 3 and t.self_s["outer"] == 6


def test_search_fits_and_rejections_are_counted():
    t = tracer.Tracer()

    def fit(solver, model, a=None, clamp=False):
        if model == "bad":
            raise ArithmeticError
        return model

    counted = tracer._count_search_fits(t, t.wrap("assemble.fit", fit))
    counted(None, "ok", clamp=True)
    counted(None, "ok")                 # the final refit is not a search eval
    counted(None, "ok", None, True)
    with pytest.raises(ArithmeticError):
        counted(None, "bad", clamp=True)
    assert t.counters == {"optimize.evals": 3, "optimize.rejected": 1}
    assert t.calls["assemble.fit"] == 4


def test_wrapper_cost_is_the_wrapped_loop_less_the_bare_loop():
    ticks = iter(range(10**6))
    # a span reads the clock twice per call; each loop reads it twice more
    cost = tracer.wrapper_cost(lambda t, fn: t.wrap("span", fn), calls=50,
                               repeats=3, clock=lambda: next(ticks))
    assert cost == 2.0


def test_overhead_is_wrapped_calls_times_their_cost(monkeypatch):
    costs = iter([2e-6, 1e-6])      # one span, one counted call
    monkeypatch.setattr(tracer, "wrapper_cost", lambda make_wrapper: next(costs))
    t = tracer.Tracer()
    t.calls.update({"a": 600, "b": 400})
    t.counters.update({"expr.evals": 500, "optimize.evals": 7})
    assert tracer.overhead_s(t) == pytest.approx(1000 * 2e-6 + 500 * 1e-6)


def test_final_line_carries_the_metrics_benchmark_json_declares():
    gated = run.declared("end_to_end")
    assert {name: run.REPORTED[name] for name in gated} == gated
    assert run.ungated() == [m for m in run.REPORTED if m not in gated]
    assert set(run.declared("per_layer")) == {*summary.LAYER_SOURCES, "cli.bytes_written"}
    records = [{"traced": False, "problems": [], "wall_s": w, "peak_rss_mb": 80.0,
                "setup_s": setup} for w, setup in ((1.0, [0.1, 0.3]), (3.0, [0.2]))]
    metrics = run.result(records, trace=False)["metrics"]
    assert set(metrics) == set(gated)
    assert metrics["wall_s"] == {"value": 2.0, "unit": "s"}
    # setup_s pools the set-up repetitions of every operation
    assert metrics["setup_s"]["value"] == 0.2


def test_setup_probe_repeats_the_commands_prepare(tmp_path):
    import probe
    import thpsolve.cli
    import thpsolve.pipeline
    args, kwargs = probe.captured_prepare(
        workloads.make("basis", 0, tmp_path).args(tmp_path / "out"))
    assert (kwargs["mesh_points"], kwargs["degree"]) == (20001, 20)
    assert thpsolve.cli.prepare is thpsolve.pipeline.prepare
    setup = run.SetupProbe(workloads.make("reference", 0, tmp_path).args(tmp_path / "out"), 60)
    try:
        times = setup.repeat(0.1, 60)
    finally:
        setup.close()
    assert times and all(t > 0 for t in times)
    assert len(times) == 1 or sum(times[:-1]) <= 0.1


@pytest.mark.parametrize("n, expected", [
    (10, None),
    (11, (100 / 11, 1)),
    (20, (50.0, 10)),
    (100, (90.0, 90)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))      # order must not matter
    assert summary.tail_percentile(values) == expected


def test_spread_is_interquartile_range_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25
    assert summary.spread(values) == pytest.approx(5.5 / 5.5)


def test_ei_oracle_against_known_values():
    # Ei(1) and Ei(1/2) from Abramowitz & Stegun, table 5.1
    assert oracles.ei_inv(1.8951178163559368) == pytest.approx(1.0, abs=1e-14)
    assert oracles.ei_inv(0.45421990486317357) == pytest.approx(0.5, abs=1e-14)
    assert oracles.reference_s(0.0) == pytest.approx(1.0, abs=1e-14)
    # melt-rate condition: s' = -u_x(s, t) = s exp(-s^2/2 - t), so
    # s'(0) = exp(-1/2)
    h = 1e-6
    slope = (oracles.reference_s(h) - oracles.reference_s(0.0)) / h
    assert slope == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_forced_nonzero_exit_counts_as_failed(tmp_path):
    broken = workloads.Workload(
        lambda out: ["solve", str(tmp_path / "missing.cfg"), "--out", str(out)],
        oracles.check_manufactured)
    record = run.run_op(broken, tmp_path, traced=False, limit_s=60)
    assert record["exit_code"] == 2 and record["problems"]
    passing = {"traced": False, "wall_s": 1.0, "problems": []}
    outcome = run.result([record, passing], trace=False)
    assert (outcome["attempted"], outcome["failed"], outcome["correct"]) == (2, 1, False)
    assert any(re.search(r"fail_share\s+1\s+0\.5\s+1 of 2", line)
               for line in run.report([record, passing]))


def _write_solve_output(out: Path, s_offset: float):
    out.mkdir()
    t = np.linspace(0.0, 1.0, 101).tolist()
    (out / "boundary.csv").write_text(
        "t,s\n" + "".join(f"{ti!r},{oracles.manufactured_s(ti) + s_offset!r}\n" for ti in t))
    rows = [(x, ti) for ti in np.linspace(0.0, 1.0, 50).tolist()
            for x in np.linspace(0.0, oracles.manufactured_s(ti), 50).tolist()]
    (out / "solution.csv").write_text(
        "x,t,u\n" + "".join(f"{x!r},{ti!r},{oracles.manufactured_u(x, ti)!r}\n"
                            for x, ti in rows))
    (out / "coefficients.txt").write_text("a_0 = 1.0e+00\na_2 = 1.0e+00\n")
    (out / "residuals.txt").write_text("".join(
        f"I_{i} ({name}): norm = 0  max = 1e-12\n"
        for i, name in enumerate(("initial", "lateral", "dirichlet", "flux"), start=1))
        + "F = 1e-20\n")


def test_manufactured_oracle_passes_exact_and_rejects_wrong_boundary(tmp_path):
    _write_solve_output(tmp_path / "exact", 0.0)
    fields, problems = oracles.check_manufactured(tmp_path / "exact")
    assert problems == [] and fields["boundary_max_err"] < 1e-15
    _write_solve_output(tmp_path / "wrong", 0.05)
    _, problems = oracles.check_manufactured(tmp_path / "wrong")
    assert any(p.startswith("boundary_max_err") for p in problems)


def test_manufactured_config_at_seed_zero_is_the_documented_example():
    doc = (BENCH.parent / "docs" / "config.md").read_text()
    example = re.search(r"```ini\n(.*?)```", doc, re.S).group(1)
    assert workloads.manufactured_config(0) == example
    assert {workloads.manufactured_slope(s) for s in range(50)} == set(workloads.SLOPES)
    assert min(workloads.SLOPES) == 0.05 and max(workloads.SLOPES) == 0.3
