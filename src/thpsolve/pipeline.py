"""End-to-end driver: potential -> particular solution -> formal powers ->
collocation -> boundary search."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assemble import FitResult, InnerSolver, ProblemSpec
from .formal_powers import FormalPowerTable, build_formal_powers
from .numerics import SampledFunction, UniformMesh
from .optimize import minimize_boundary
from .particular import solve_particular
from .thp import solution_eval

__all__ = ["Solution", "prepare", "solve_free_boundary"]

# the one home of each default of the basis (the command line passes only
# what a flag or a config key sets; InnerSolver holds the collocation ones,
# optimize.minimize_boundary the search ones)
DEFAULT_MESH_POINTS = 2001
DEFAULT_DEGREE = 12


def prepare(spec: ProblemSpec, mesh_points: int = DEFAULT_MESH_POINTS,
            degree: int = DEFAULT_DEGREE) -> FormalPowerTable:
    """Tabulate q on the quadrature mesh of ``mesh_points`` nodes on [0, L],
    build the particular solution and the basis table."""
    mesh = UniformMesh(spec.L, mesh_points)
    f = solve_particular(SampledFunction.from_callable(mesh, spec.q, "q"))
    return build_formal_powers(f, degree)


@dataclass(frozen=True, eq=False)
class Solution:
    """The answer of a boundary search, read through ``s_eval(t)`` and
    ``u_eval(x, t)``: s(t) = l + sum_j b_j t^j and u = sum_n a_n H_n on the
    basis table, at points (x, t) broadcast against each other, in their
    shape (a float for scalars, as ``s_eval`` gives for a scalar t)."""

    table: FormalPowerTable
    fit: FitResult

    def s_eval(self, t):
        return self.fit.boundary.s_eval(t)

    def u_eval(self, x, t):
        u = solution_eval(self.table, self.fit.a, x, t)
        u = u.reshape(np.broadcast(x, t).shape)
        return float(u) if u.ndim == 0 else u

    @cached_property
    def grid(self) -> np.ndarray:
        """Rows (x, t, u) on 50 times x 50 points from x = 0 to the
        boundary, t-major, up to the last collocation time T; u comes from
        one evaluation over all 2500 points (the basis arrays are
        2500 x 2 x (N + 1) values)."""
        times = np.linspace(0.0, self.fit.t[-1], 50)
        x = np.linspace(0.0, self.s_eval(times), 50, axis=1).ravel()
        t = np.repeat(times, 50)
        return np.column_stack([x, t, self.u_eval(x, t)])


def solve_free_boundary(solver: InnerSolver, **search) -> Solution:
    """Run the outer boundary search on the collocation problem of
    ``solver``, with the keyword arguments ``search`` of
    :func:`thpsolve.optimize.minimize_boundary`."""
    return Solution(solver.table, minimize_boundary(solver, **search))
