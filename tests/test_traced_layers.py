"""The benchmark tracer wraps thpsolve functions by module and attribute
name; a target that no longer resolves silently drops its layer from the
benchmark's per-layer report."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import thpsolve.cli  # noqa: F401  (with the package, every traced module)
from thpsolve import InnerSolver, minimize_boundary

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("mod_name, path",
                         [(mod, path) for _, mod, path
                          in tracer.LAYER_SPANS + tracer.LAYER_COUNTS])
def test_every_traced_target_resolves(mod_name, path):
    assert tracer._resolve(mod_name, path) is not None, f"{mod_name}.{path}"


def test_fit_takes_clamp_as_fourth_positional_argument():
    # the tracer counts a search evaluation by reading clamp from args[3]
    params = list(inspect.signature(InnerSolver.fit).parameters)
    assert params[:4] == ["self", "model", "a", "clamp"]


@pytest.mark.parametrize("start", ["reference", "outside-the-band"])
def test_search_passes_clamp_true_by_keyword(start, benchmark_solution,
                                             manufactured, monkeypatch):
    # the tracer counts optimize.evals by the clamp keyword of each fit: a
    # search fit without it would read 0 evaluations
    if start == "reference":
        bench, solution, _ = benchmark_solution
        solver = InnerSolver(bench.spec, solution.table, 100, 100)
        search = {}
    else:
        solver, _ = manufactured
        search = {"K": 2, "initial_b": [1.2, 0.0]}   # s(1) > L
    calls, fit = [], InnerSolver.fit

    def recorded(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return fit(*args, **kwargs)

    counter = tracer.Tracer()
    monkeypatch.setattr(InnerSolver, "fit",
                        tracer._count_search_fits(counter, recorded))
    rows = []
    minimize_boundary(solver, **search, trace=lambda *row: rows.append(row))
    assert calls and all(len(args) == 1 and kwargs == {"clamp": True}
                         for args, kwargs in calls)
    assert counter.counters["optimize.evals"] == len(calls) == len(rows)
    if start == "outside-the-band":
        assert rows[0][1] == float("inf")
