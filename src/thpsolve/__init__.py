"""Free boundary solver for u_xx - q(x) u = u_t built on a transmuted
heat-polynomial basis."""

from .assemble import FitResult, InnerSolver, ProblemSpec, solve_linear
from .boundary import BoundaryModel
from .errors import (ConfigurationError, ConvergenceError, DomainError,
                     ExpressionEvalError, ExpressionSyntaxError,
                     NonvanishingError, OptimizationError, SolverError)
from .expr import Expression, parse
from .formal_powers import FormalPowerTable, build_formal_powers
from .numerics import (Interpolant, SampledFunction, UniformMesh,
                       cumulative_integral)
from .optimize import minimize_boundary
from .particular import ParticularSolution, solve_particular
from .pipeline import Solution, prepare, solve_free_boundary
from .special import (ExactBenchmark, ei, ei_inv, exact_benchmark,
                      hermite_benchmark)
from .thp import basis, heat_coeff, pde_residual, solution_eval

__version__ = "0.1.0"
