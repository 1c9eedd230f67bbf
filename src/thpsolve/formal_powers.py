"""Formal powers phi_0..phi_N generated from a zero-free solution f.

Two interleaved sequences of recursive integrals against f^2 and f^-2
produce functions phi_n that play the role of x^n for the perturbed
operator d^2/dx^2 - q(x).  Their first derivatives come out in closed form
from the same recursion, so no numerical differentiation is involved.
Where the shifted potential q + c vanishes, phi_n = x^n, and the
monomials are written directly instead of approximated by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, require_count
from .numerics import Interpolant, cumulative_integral
from .particular import ParticularSolution, ZERO_THRESHOLD

__all__ = ["FormalPowerTable", "build_formal_powers"]


@dataclass(frozen=True, eq=False)
class FormalPowerTable:
    """Node values of phi_0..phi_N and their derivatives, stacked as
    ``values[n, 0, i] = phi_n(x_i)`` and ``values[n, 1, i] = phi_n'(x_i)``,
    for the shifted potential ``f.q`` (see :mod:`thpsolve.particular`)."""

    values: np.ndarray = field(repr=False)    # (N+1, 2, n_points)
    f: ParticularSolution = field(repr=False)

    @property
    def degree(self) -> int:
        return len(self.values) - 1

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
    """Run the recursive-integral construction up to index ``degree``,
    with one :func:`cumulative_integral` call per degree on the (2, P)
    stack of both chains.  Where the shifted potential q + c is zero at
    every node, f = 1 and the rows are the monomials (x^n, n x^(n-1)),
    each made from the row before by a multiply, with no integral.

    The chains write straight into the table's values, which are not
    copied.  Raises DomainError naming the first degree whose values leave
    the float range."""
    require_count("degree", degree, 0)
    mesh = f.mesh
    fv = f.f.values
    fpv = f.f_prime.values
    if np.min(np.abs(fv)) <= ZERO_THRESHOLD:
        raise ConfigurationError("f vanishes on the mesh; recursion would divide by zero")
    f2 = fv * fv

    # rows[n] = (phi_n, phi_n') node values, one contiguous row each
    rows = np.empty((degree + 1, 2, mesh.n_points))
    rows[0] = fv, fpv
    try:
        with np.errstate(over="raise", invalid="raise"):
            if not f.q.values.any():
                # q + c = 0: f = 1 and phi_n = x^n, with no quadrature error
                x = mesh.nodes
                for n in range(1, degree + 1):
                    np.multiply(rows[n - 1, 0], x, out=rows[n, 0])
                    np.multiply(n, rows[n - 1, 0], out=rows[n, 1])
                return FormalPowerTable(values=rows, f=f)
            # X^(n) integrates against 1/f^2 for odd n and f^2 for even n,
            # X~(n) the other way round, and phi_n is made of X^(n) for odd
            # n and X~(n) for even n.  So the stack holds that chain first,
            # reversing at every degree, and its weights stay (1/f^2, f^2).
            # Only the last term of each chain is live, which keeps the
            # working set at a few mesh-sized arrays.
            weights = np.stack([1.0 / f2, f2])
            chains = np.ones((2, mesh.n_points))
            work = np.empty_like(chains)    # the integrands, then n * prev / f
            for n in range(1, degree + 1):
                prev = chains[1]
                chains = cumulative_integral(
                    np.multiply(chains[::-1], weights, out=work), mesh.h)
                chains *= n
                np.multiply(fv, chains[0], out=rows[n, 0])
                np.multiply(fpv, chains[0], out=rows[n, 1])
                np.multiply(n, prev, out=work[0])
                work[0] /= fv
                rows[n, 1] += work[0]
    except FloatingPointError:
        raise DomainError(f"formal power phi_{n} exceeds the float range on "
                          f"[0, {mesh.x_end:g}]") from None
    return FormalPowerTable(values=rows, f=f)
