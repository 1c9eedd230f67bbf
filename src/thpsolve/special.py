"""Exponential integral Ei, its inverse, and problems with exact solutions.

The reference free boundary problem uses q(x) = x^2 on [0, 1] x [0, 1]; it
has the closed-form solution u(x, t) = exp(-x^2/2 - t) with the moving
boundary s(t) = sqrt(2 * Ei^{-1}(2C - 2 e^{-t})), C = Ei(1/2)/2 + 1.

The Hermite-mode problems use q(x) = x^2 - beta, a prescribed boundary
s(t) = 1 + sin(2t)/2 and two Hermite functions w_k = H_k(x) e^(-x^2/2),
which satisfy w_k'' = (x^2 - (2k + 1)) w_k, as the exact solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assemble import ProblemSpec
from .errors import DomainError

__all__ = ["ei", "ei_inv", "ExactBenchmark", "exact_benchmark",
           "hermite_benchmark", "BENCHMARK_L", "EI_INV_BRACKET"]

# mesh interval for the reference problem; s(t) stays below ~1.37 on [0, 1]
BENCHMARK_L = 1.5
EI_INV_BRACKET = (0.05, 1.5)

_EULER_GAMMA = 0.57721566490153286061
_EPS = np.finfo(float).eps
# Newton in ln x from the top of the bracket settles every target within 7
# steps; a target left short of the root fails the final residual check
_MAX_STEPS = 100


def _result(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def ei(x):
    """Exponential integral Ei on the positive axis, for a scalar or an
    array.

    Sums Ei(x) = gamma + ln x + sum_{k>=1} x^k / (k k!), whose terms are all
    positive for x > 0, so the series loses nothing to cancellation (about
    195 terms at x = 100).  Past x ~ 716, where Ei overflows, the result is
    inf.
    """
    x = np.asarray(x, dtype=float)
    bad = ~(x > 0)   # NaN included
    if bad.any():
        raise DomainError(f"Ei requires x > 0, got {x[bad].flat[0]}")
    term = np.ones_like(x)
    total = np.zeros_like(x)
    k = 0
    with np.errstate(over="ignore"):
        while True:
            k += 1
            term = term * x / k
            total += term / k
            # the terms only fall from here on, and each is below half an
            # ulp of the sum, so the terms an array adds for its larger
            # entries leave the smaller ones as a scalar call gives them
            if np.all(term / k <= 0.25 * _EPS * total):
                break
    return _result(_EULER_GAMMA + np.log(x) + total)


def ei_inv(y):
    """Inverse of Ei on ``EI_INV_BRACKET``, where it is strictly increasing,
    for a scalar or an array of targets.

    Newton steps in u = ln x from the top of the bracket,
    x <- x exp(-(Ei(x) - y) e^(-x)).  Ei(e^u) is increasing and convex in
    u, so the iterates fall monotonically to the root and never leave the
    bracket.  Each target stops at the iterate where its own step falls
    below a few ulps, so an array gives what scalar calls give.
    """
    lo, hi = EI_INV_BRACKET
    flo, fhi = ei(lo), ei(hi)
    y = np.asarray(y, dtype=float)
    bad = ~((flo <= y) & (y <= fhi))   # NaN included
    if bad.any():
        raise DomainError(
            f"target {y[bad].flat[0]} outside [Ei({lo}), Ei({hi})] = "
            f"[{flo:.6g}, {fhi:.6g}]"
        )
    x = np.full(y.shape, float(hi))
    active = np.ones(y.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        step = np.where(active, x * np.exp(-(ei(x) - y) * np.exp(-x)), x)
        active &= np.abs(step - x) > 4 * _EPS * x
        x = step
        if not active.any():
            break
    # Ei' = e^x / x stays below 21 on the bracket, so a root found
    # to a few ulps leaves the residual far inside this check
    missed = np.abs(ei(x) - y) > 1e-12
    if missed.any():
        raise DomainError(
            f"Ei inversion did not reach tolerance at y={y[missed].flat[0]}")
    return _result(x)


@dataclass(frozen=True, eq=False)
class ExactBenchmark:
    """Problem instance plus its closed-form solution pair; both functions
    take scalars or arrays (broadcast together for exact_u)."""

    spec: ProblemSpec
    exact_u: Callable
    exact_s: Callable


def _exact(q, L, T, exact_u, exact_s, exact_u_x=None) -> ExactBenchmark:
    """The problem on [0, L] x [0, T] solved by the pair (exact_u, exact_s):
    l = s(0) = 1, g1 = u(x, 0), g2 = u_x(0, t) = 0, g3 = u(s(t), t) and,
    given ``exact_u_x``, the flux data u_x(s(t), t).  Each datum is a
    callable, so any collocation grid takes it."""
    flux = None if exact_u_x is None else lambda t: exact_u_x(exact_s(t), t)
    spec = ProblemSpec(q=q, L=L, l=1.0, T=T, g1=lambda x: exact_u(x, 0.0),
                       g2=lambda t: 0.0, g3=lambda t: exact_u(exact_s(t), t),
                       flux_data=flux)
    return ExactBenchmark(spec=spec, exact_u=exact_u, exact_s=exact_s)


def exact_benchmark() -> ExactBenchmark:
    """Reference problem with q = x^2 on [0, BENCHMARK_L] x [0, 1]."""
    C = 0.5 * ei(0.5) + 1.0

    def exact_s(t):
        return np.sqrt(2.0 * ei_inv(2.0 * C - 2.0 * np.exp(-t)))

    def exact_u(x, t):
        return np.exp(-0.5 * x * x - t)

    return _exact(lambda x: x * x, BENCHMARK_L, 1.0, exact_u, exact_s)


def hermite_benchmark(beta: float, T: float) -> ExactBenchmark:
    """Problem with q = x^2 - beta on [0, 2], l = 1 and final time ``T``,
    whose exact solution is u = w_0 e^((beta - 1) t) + 0.3 w_2 e^((beta - 5) t)
    with w_0 = e^(-x^2/2) and w_2 = (4x^2 - 2) e^(-x^2/2), and whose boundary
    is s = 1 + sin(2t)/2.  u_x(0, t) = 0 since both modes are even; its flux
    data u_x(s(t), t) replace the melt-rate condition.  For beta >= 0 the
    spectral shift is beta, and f is never constant."""

    def exact_s(t):
        return 1.0 + 0.5 * np.sin(2.0 * t)

    def exact_u(x, t):
        h2 = 4.0 * x * x - 2.0      # H_2(x)
        return np.exp(-0.5 * x * x) * (np.exp((beta - 1.0) * t)
                                       + 0.3 * h2 * np.exp((beta - 5.0) * t))

    def exact_u_x(x, t):
        # w_0' = -x w_0 and w_2' = (8x - x H_2(x)) e^(-x^2/2)
        h2 = 4.0 * x * x - 2.0
        return x * np.exp(-0.5 * x * x) * (-np.exp((beta - 1.0) * t)
                                           + 0.3 * (8.0 - h2) * np.exp((beta - 5.0) * t))

    return _exact(lambda x: x * x - beta, 2.0, T, exact_u, exact_s, exact_u_x)
