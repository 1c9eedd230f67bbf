"""The benchmark tracer wraps thpsolve functions by module and attribute
name; a target that no longer resolves silently drops its layer from the
benchmark's per-layer report."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import thpsolve.cli  # noqa: F401  (with the package, every traced module)
from thpsolve import InnerSolver

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
