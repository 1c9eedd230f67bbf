"""Span tracing of thpsolve from outside its source tree.

`install` replaces chosen functions and methods of the imported thpsolve
modules with wrappers that open a span for each call.  Spans nest along the
call stack.  `Tracer` folds them as they close into per-name call counts,
total time and self time (a span's duration minus the part of it covered by
its child spans), so memory stays constant however many calls a command
makes.  `wrapper_cost` measures what one wrapped call costs, so that a
traced run can state its own overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module under thpsolve, attribute path); several targets may
# share one span name.  The two stage spans are installed in every run: they
# give setup_s and search_s.  The layer spans are added in traced runs.
STAGE_SPANS = (
    ("pipeline.prepare", "pipeline", "prepare"),
    ("pipeline.solve", "pipeline", "solve_free_boundary"),
)
LAYER_SPANS = STAGE_SPANS + (
    ("numerics.spline_eval", "numerics", "Interpolant.__call__"),
    ("numerics.spline_eval", "numerics", "Interpolant.derivative"),
    ("numerics.spline_build", "numerics", "Interpolant.__init__"),
    ("numerics.cumint", "numerics", "cumulative_integral"),
    ("numerics.tabulate", "numerics", "SampledFunction.from_callable"),
    ("particular.solve", "particular", "solve_particular"),
    ("formal_powers.build", "formal_powers", "build_formal_powers"),
    ("assemble.init", "assemble", "InnerSolver.__init__"),
    ("assemble.system", "assemble", "InnerSolver.system_for"),
    ("assemble.lstsq", "assemble", "solve_linear"),
    ("assemble.fit", "assemble", "InnerSolver.fit"),
    ("optimize.search", "optimize", "minimize_boundary"),
    ("thp.solution_eval", "thp", "solution_eval"),
    ("special.ei", "special", "ei"),
    ("cli.main", "cli", "main"),
    ("cli.command", "cli", "cmd_solve"),
    ("cli.command", "cli", "cmd_validate_example"),
    ("cli.command", "cli", "cmd_basis_dump"),
)
# counted without a span, so expression time stays in its caller's self time
LAYER_COUNTS = (("expr.evals", "expr", "Expression.__call__"),)


class Tracer:
    """Aggregates nested spans into per-name counts, total and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._open = []   # [name, start, time covered by closed children]

    def enter(self, name: str):
        self._open.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._open.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._open:
            self._open[-1][2] += duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return functools.wraps(fn)(traced)

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counters": dict(self.counters)}


def _count_search_fits(tracer: Tracer, traced_fit):
    """InnerSolver.fit with clamp=True is one evaluation of the outer
    search's objective; count those, and the ones that raised."""
    def fit(*args, **kwargs):
        clamp = kwargs.get("clamp", args[3] if len(args) > 3 else False)
        if not clamp:
            return traced_fit(*args, **kwargs)
        tracer.counters["optimize.evals"] += 1
        try:
            return traced_fit(*args, **kwargs)
        except Exception:
            tracer.counters["optimize.rejected"] += 1
            raise
    return functools.wraps(traced_fit)(fit)


def _flag_complex_branch(tracer: Tracer, traced_solve):
    def solve(*args, **kwargs):
        result = traced_solve(*args, **kwargs)
        tracer.counters["particular.complex_branch"] += int(
            (result.f.values.imag != 0).any())
        return result
    return functools.wraps(traced_solve)(solve)


def _count_calls(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tracer.counters[name] += 1
        return fn(*args, **kwargs)
    return functools.wraps(fn)(counted)


_DECORATE = {"assemble.fit": _count_search_fits,
             "particular.solve": _flag_complex_branch}


def rebind(original, replacement):
    """Point every thpsolve module attribute that names ``original`` at
    ``replacement``: modules import functions by name, so patching only the
    defining module would miss their callers."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "thpsolve"
                                  or mod_name.startswith("thpsolve.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(mod_name: str, path: str):
    """(owner, attribute, raw value) of a target, or None if it is gone."""
    module = sys.modules.get(f"thpsolve.{mod_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    raw = vars(owner).get(attr) if owner is not None else None
    return None if raw is None else (owner, attr, raw)


def install(tracer: Tracer, spans=STAGE_SPANS, counts=()) -> list:
    """Wrap each target of ``spans`` in a span and each target of
    ``counts`` in a call counter, in the imported thpsolve modules.

    Returns the targets that do not exist, so a caller can report a layer
    that a later version of the program removed instead of failing.
    """
    missing = []
    for name, mod_name, path in tuple(spans) + tuple(counts):
        target = _resolve(mod_name, path)
        if target is None:
            missing.append(f"{mod_name}.{path}")
            continue
        owner, attr, raw = target
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if (name, mod_name, path) in counts:
            wrapped = _count_calls(tracer, name, fn)
        else:
            wrapped = tracer.wrap(name, fn)
            if name in _DECORATE:
                wrapped = _DECORATE[name](tracer, wrapped)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        else:
            rebind(fn, wrapped)
    return missing


def _noop():
    return None


def _loop_s(fn, calls: int, clock) -> float:
    start = clock()
    for _ in range(calls):
        fn()
    return clock() - start


def wrapper_cost(make_wrapper, calls: int = 20000, repeats: int = 5,
                 clock=time.perf_counter) -> float:
    """Seconds that one call through ``make_wrapper(tracer, fn)`` adds to a
    call of ``fn``, measured on a no-op with a scratch tracer: the least of
    ``repeats`` timings of ``calls`` calls, less the same loop unwrapped."""
    wrapped = make_wrapper(Tracer(clock), _noop)
    best = min(_loop_s(wrapped, calls, clock) - _loop_s(_noop, calls, clock)
               for _ in range(repeats))
    return max(best, 0.0) / calls


def overhead_s(spans: Tracer) -> float:
    """Estimated time the wrappers of `install` added to a traced command:
    its span and counted calls times the cost of one such wrapped call.
    The cost is measured on a no-op in a warm loop, so this is a lower
    estimate."""
    span_cost = wrapper_cost(lambda t, fn: t.wrap("span", fn))
    count_cost = wrapper_cost(lambda t, fn: _count_calls(t, "count", fn))
    counted = sum(spans.counters.get(name, 0) for name, _, _ in LAYER_COUNTS)
    return sum(spans.calls.values()) * span_cost + counted * count_cost
