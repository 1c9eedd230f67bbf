"""Exponential integral Ei, its inverse, and the exact reference problem.

The reference free boundary problem uses q(x) = x^2 on [0, 1] x [0, 1]; it
has the closed-form solution u(x, t) = exp(-x^2/2 - t) with the moving
boundary s(t) = sqrt(2 * Ei^{-1}(2C - 2 e^{-t})), C = Ei(1/2)/2 + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assemble import ProblemSpec
from .errors import DomainError

__all__ = ["ei", "ei_inv", "ExactBenchmark", "exact_benchmark",
           "BENCHMARK_L", "EI_INV_BRACKET"]

# mesh interval for the reference problem; s(t) stays below ~1.37 on [0, 1]
BENCHMARK_L = 1.5
EI_INV_BRACKET = (0.05, 1.5)


# scipy is imported once per public call, not at module level (commands
# that never evaluate Ei then never load it) and not once per Ei value
# (ei_inv evaluates it a dozen times per call)

def _ei(x: float, expi) -> float:
    if x <= 0:
        raise DomainError(f"Ei requires x > 0, got {x}")
    return float(expi(x))


def ei(x: float) -> float:
    """Exponential integral Ei on the positive axis."""
    from scipy.special import expi

    return _ei(x, expi)


def ei_inv(y: float, bracket: tuple = EI_INV_BRACKET) -> float:
    """Inverse of Ei on a bracket where it is strictly increasing."""
    from scipy.optimize import brentq
    from scipy.special import expi

    lo, hi = bracket
    flo, fhi = _ei(lo, expi), _ei(hi, expi)
    if not flo <= y <= fhi:
        raise DomainError(
            f"target {y} outside [Ei({lo}), Ei({hi})] = [{flo:.6g}, {fhi:.6g}]"
        )
    # Ei' = e^x / x stays below 21 on the default bracket, so this x
    # tolerance leaves the residual far inside the check below
    x = brentq(lambda v: _ei(v, expi) - y, lo, hi, xtol=1e-15)
    if abs(_ei(x, expi) - y) > 1e-12:
        raise DomainError(f"Ei inversion did not reach tolerance at y={y}")
    return x


@dataclass(frozen=True)
class ExactBenchmark:
    """Reference problem instance plus its closed-form solution pair."""

    spec: ProblemSpec
    C: float
    exact_u: Callable[[float, float], float]
    exact_s: Callable[[float], float]


def exact_benchmark(times: np.ndarray | None = None) -> ExactBenchmark:
    """Reference problem with q = x^2, Dirichlet data on the moving
    boundary tabulated at the given collocation times (101 equispaced
    points on [0, 1] by default)."""
    if times is None:
        times = np.linspace(0.0, 1.0, 101)
    times = np.asarray(times, dtype=float)
    C = 0.5 * ei(0.5) + 1.0

    def exact_s(t: float) -> float:
        return math.sqrt(2.0 * ei_inv(2.0 * C - 2.0 * math.exp(-t)))

    def exact_u(x: float, t: float) -> float:
        return math.exp(-0.5 * x * x - t)

    g3_values = np.asarray([exact_u(exact_s(t), t) for t in times])
    spec = ProblemSpec(
        q=lambda x: x * x,
        L=BENCHMARK_L,
        l=1.0,
        T=1.0,
        gamma11=lambda x: 1.0,
        gamma12=lambda x: 0.0,
        gamma21=lambda t: 0.0,
        gamma22=lambda t: 1.0,
        g1=lambda x: np.exp(-0.5 * x * x),
        g2=lambda t: 0.0,
        g3=g3_values,
    )
    return ExactBenchmark(spec=spec, C=C, exact_u=exact_u, exact_s=exact_s)
