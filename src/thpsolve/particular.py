"""Nonvanishing particular solution of f'' - (q(x) + c) f = 0 with f(0) = 1.

The solution is built as a power series of iterated integrals: starting from
the seed 1 each term is obtained by integrating against q + c and then
against 1.  The series converges factorially on a bounded interval, so a
handful of terms at tolerance 1e-14 suffices.

The spectral shift c = max(0, -min q) makes q + c >= 0, so the exact f
is real, convex and at least 1 for every real q (Kravchenko & Porter
2010).  A basis built for q + c solves u_xx - q u = u_t once multiplied by
e^(c t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonvanishingError
from .numerics import SampledFunction, cumulative_integral

__all__ = ["ParticularSolution", "solve_particular"]

# f at or below this on a node counts as vanishing
ZERO_THRESHOLD = 1e-10

MAX_TERMS = 50
TOLERANCE = 1e-14


@dataclass(frozen=True, eq=False)
class ParticularSolution:
    """Zero-free solution of f'' = q f, normalized to f(0) = 1, together
    with its derivative and the tabulated potential ``q``, which is the
    problem's potential plus the spectral ``shift``."""

    f: SampledFunction
    f_prime: SampledFunction
    q: SampledFunction
    shift: float

    @property
    def mesh(self):
        return self.f.mesh


# an overflow ends the series in ConvergenceError (a non-finite sum), not
# in a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _series_solution(q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Sum of iterated double integrals starting from the seed 1.

    ``q`` holds node values on a uniform mesh of spacing ``h``.  Returns
    (y, y') at the same nodes: the solution of y'' = q y with y(0) = 1,
    y'(0) = 0.  Each iteration maps T -> integral of (integral of q*T), two
    :func:`cumulative_integral` calls on plain arrays, so T solves y'' = q y
    term by term.
    """
    term = np.ones(q.shape)
    total = term.copy()
    total_prime = np.zeros_like(term)
    for k in range(1, MAX_TERMS + 1):
        inner = cumulative_integral(q * term, h)
        term = cumulative_integral(inner, h)
        total += term
        total_prime += inner
        term_norm = np.abs(term).max()
        total_norm = np.abs(total).max()    # inf or NaN once total overflows
        if not (np.isfinite(total_norm) and np.isfinite(total_prime).all()):
            raise ConvergenceError(f"iterated-integral series overflows at "
                                   f"term {k}; the potential is too large")
        if term_norm <= TOLERANCE * max(total_norm, 1.0):
            return total, total_prime
    raise ConvergenceError(
        f"iterated-integral series did not converge within {MAX_TERMS} terms "
        f"(last term sup-norm {term_norm:.3e})"
    )


def solve_particular(q: SampledFunction) -> ParticularSolution:
    """Construct a zero-free f with f(0) = 1, f'(0) = 0 on the mesh of
    ``q``, for the shifted potential q + c with c = max(0, -min q over the
    nodes).  Since q + c >= 0 and f(0) = 1, the exact f is at least 1, but
    the quadrature weights have negative entries: a q that the mesh does
    not resolve can give node values below 1.  A node with f at or below
    ZERO_THRESHOLD (a vanishing f or a sign change) raises
    NonvanishingError.
    """
    shift = max(0.0, -float(np.min(q.values)))
    shifted = SampledFunction(q.mesh, q.values + shift)
    y1, y1p = _series_solution(shifted.values, q.mesh.h)
    if np.min(y1) <= ZERO_THRESHOLD:
        raise NonvanishingError(
            f"particular solution vanishes on the mesh (min f = {np.min(y1):.3e})")
    return ParticularSolution(
        f=SampledFunction(q.mesh, y1),
        f_prime=SampledFunction(q.mesh, y1p),
        q=shifted,
        shift=shift,
    )
