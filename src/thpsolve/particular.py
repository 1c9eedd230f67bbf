"""Nonvanishing particular solution of f'' - q(x) f = 0 with f(0) = 1.

The solution is built as a power series of iterated integrals: starting from
the seed (1 for the Neumann-normalized branch, x for the Dirichlet one) each
term is obtained by integrating against q and then against 1.  The series
converges factorially on a bounded interval, so a handful of terms at
tolerance 1e-14 suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NonvanishingError
from .numerics import SampledFunction, cumulative_integral

__all__ = ["ParticularSolution", "solve_particular"]

# nodes with |f| below this trigger the complex-combination fallback
ZERO_THRESHOLD = 1e-10

MAX_TERMS = 50
TOLERANCE = 1e-14


@dataclass(frozen=True)
class ParticularSolution:
    """Zero-free solution of f'' = q f, normalized to f(0) = 1, together
    with its derivative and the tabulated potential."""

    f: SampledFunction
    f_prime: SampledFunction
    q: SampledFunction

    @property
    def mesh(self):
        return self.f.mesh


def _series_solution(q: SampledFunction,
                     seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of iterated double integrals starting from ``seed``.

    Returns (y, y') tabulated on the mesh of q, in the dtype of q (float
    for real data).  Each iteration maps T -> integral of (integral of
    q*T), so T solves y'' = q y term by term.
    """
    mesh = q.mesh
    term = seed.astype(q.values.dtype)
    total = term.copy()
    total_prime = np.zeros_like(term)
    if len(seed) and seed[0] == 0.0:  # seed x has derivative 1
        total_prime += 1.0
    for _ in range(MAX_TERMS):
        inner = cumulative_integral(SampledFunction(mesh, q.values * term))
        term = cumulative_integral(inner).values
        total += term
        total_prime += inner.values
        term_norm = np.max(np.abs(term))
        if term_norm <= TOLERANCE * max(np.max(np.abs(total)), 1.0):
            return total, total_prime
    raise ConvergenceError(
        f"iterated-integral series did not converge within {MAX_TERMS} terms "
        f"(last term sup-norm {term_norm:.3e})"
    )


def solve_particular(q: SampledFunction) -> ParticularSolution:
    """Construct a zero-free f with f(0) = 1 on the mesh of ``q``.

    The branch y1 (y1(0)=1, y1'(0)=0) is used directly when it has no node
    near zero and, if real, does not change sign between nodes (a zero
    between nodes is still a zero).  Otherwise the combination y1 + i*y2 is
    returned; for real q its modulus is bounded away from zero because the
    Wronskian of the two branches equals one.  The series are summed in the
    dtype of q, so for real q the branch y1 is float data and only
    y1 + i*y2 is complex.
    """
    mesh = q.mesh
    ones = np.ones(mesh.n_points)
    y1, y1p = _series_solution(q, ones)
    sign_change = not np.any(y1.imag) and np.any(y1.real[:-1] * y1.real[1:] < 0)
    if np.min(np.abs(y1)) > ZERO_THRESHOLD and not sign_change:
        return ParticularSolution(
            f=SampledFunction(mesh, y1),
            f_prime=SampledFunction(mesh, y1p),
            q=q,
        )
    x_nodes = mesh.nodes - mesh.x_start
    y2, y2p = _series_solution(q, x_nodes)
    f = y1 + 1j * y2
    fp = y1p + 1j * y2p
    if np.min(np.abs(f)) <= ZERO_THRESHOLD:
        raise NonvanishingError(
            "y1 + i*y2 still vanishes on the mesh (complex potential?)"
        )
    return ParticularSolution(
        f=SampledFunction(mesh, f),
        f_prime=SampledFunction(mesh, fp),
        q=q,
    )
