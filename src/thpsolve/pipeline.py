"""End-to-end driver: potential -> particular solution -> formal powers ->
collocation -> boundary search."""

from __future__ import annotations

from dataclasses import dataclass

from .assemble import CollocationGrid, FitResult, ProblemSpec
from .formal_powers import FormalPowerTable, build_formal_powers
from .numerics import SampledFunction, UniformMesh
from .optimize import OptimizerSettings, minimize_boundary
from .particular import solve_particular

__all__ = ["Workspace", "prepare", "solve_free_boundary"]

# the one home of each discretization default (the command line passes only
# what a flag or a config key sets)
DEFAULT_MESH_POINTS = 2001
DEFAULT_DEGREE = 12
DEFAULT_N_X = 100   # collocation intervals on [0, l]
DEFAULT_N_T = 100   # collocation intervals on [0, T]


@dataclass(frozen=True, eq=False)
class Workspace:
    """Problem instance together with its precomputed basis table and grid."""

    spec: ProblemSpec
    grid: CollocationGrid
    table: FormalPowerTable


def prepare(spec: ProblemSpec, mesh_points: int = DEFAULT_MESH_POINTS,
            degree: int = DEFAULT_DEGREE, n_x: int = DEFAULT_N_X,
            n_t: int = DEFAULT_N_T) -> Workspace:
    """Tabulate q, build the particular solution and the basis table."""
    mesh = UniformMesh(0.0, spec.L, mesh_points)
    f = solve_particular(SampledFunction.from_callable(mesh, spec.q, "q"))
    table = build_formal_powers(f, degree)
    grid = CollocationGrid.equidistant(spec.l, spec.T, n_x=n_x, n_t=n_t)
    return Workspace(spec=spec, grid=grid, table=table)


def solve_free_boundary(work: Workspace,
                        settings: OptimizerSettings = OptimizerSettings(),
                        trace=None) -> FitResult:
    """Run the outer boundary search on a prepared workspace."""
    return minimize_boundary(work.spec, work.grid, work.table, settings,
                             trace=trace)
