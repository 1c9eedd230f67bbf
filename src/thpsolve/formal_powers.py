"""Formal powers phi_0..phi_N generated from a zero-free solution f.

Two interleaved sequences of recursive integrals against f^2 and f^-2
produce functions phi_n that play the role of x^n for the perturbed
operator d^2/dx^2 - q(x).  Their first derivatives come out in closed form
from the same recursion, so no numerical differentiation is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .numerics import Interpolant, SampledFunction, cumulative_integral
from .particular import ParticularSolution, ZERO_THRESHOLD

__all__ = ["FormalPowerTable", "build_formal_powers"]


@dataclass(frozen=True)
class FormalPowerTable:
    """Node values of phi_0..phi_N and their derivatives, stacked as
    ``values[n, 0, i] = phi_n(x_i)`` and ``values[n, 1, i] = phi_n'(x_i)``,
    for the shifted potential ``f.q`` (see :mod:`thpsolve.particular`)."""

    degree: int
    values: np.ndarray = field(repr=False)    # (N+1, 2, n_points)
    f: ParticularSolution = field(repr=False)

    @property
    def mesh(self):
        return self.f.mesh

    @cached_property
    def spline(self) -> Interpolant:
        """One cubic Hermite interpolant of the whole stack with exact
        slopes, made on first use: callers that only read node values never
        pay for it.  The slopes of (phi_n, phi_n') are (phi_n', phi_n''),
        with phi_n'' = (q + c) phi_n + n (n-1) phi_(n-2) from the recursion
        (``f.q`` holds q + c)."""
        phi, phi_prime = self.values[:, 0], self.values[:, 1]
        n = np.arange(self.degree + 1)[:, None]
        second = self.f.q.values * phi
        second[2:] += n[2:] * (n[2:] - 1) * phi[:-2]
        return Interpolant(self.mesh, self.values.T,
                           slopes=np.stack([phi_prime, second], axis=1).T)


def build_formal_powers(f: ParticularSolution, degree: int) -> FormalPowerTable:
    """Run the recursive-integral construction up to index ``degree``.

    The chains write straight into the table's values, which are not
    copied."""
    if degree < 0:
        raise ConfigurationError("degree must be nonnegative")
    mesh = f.mesh
    fv = f.f.values
    fpv = f.f_prime.values
    if np.min(np.abs(fv)) <= ZERO_THRESHOLD:
        raise ConfigurationError("f vanishes on the mesh; recursion would divide by zero")
    f2 = fv * fv
    inv_f2 = 1.0 / f2

    # rows[n] = (phi_n, phi_n') node values, one contiguous row each
    rows = np.empty((degree + 1, 2, mesh.n_points))
    rows[0] = fv, fpv
    # X^(n): weight 1/f^2 for odd n, f^2 for even n; X~(n) the other way
    # round.  Only the last two terms of each chain are live, which keeps
    # the working set at a few mesh-sized arrays whatever the degree.
    big_x = big_xt = np.ones(mesh.n_points)
    for n in range(1, degree + 1):
        w, wt = (inv_f2, f2) if n % 2 else (f2, inv_f2)
        next_x = n * cumulative_integral(SampledFunction(mesh, big_x * w)).values
        next_xt = n * cumulative_integral(SampledFunction(mesh, big_xt * wt)).values
        chain, prev = (next_x, big_x) if n % 2 else (next_xt, big_xt)
        rows[n, 0] = fv * chain
        rows[n, 1] = fpv * chain + n * prev / fv
        big_x, big_xt = next_x, next_xt
    return FormalPowerTable(degree=degree, values=rows, f=f)
