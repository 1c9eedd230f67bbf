"""The benchmark's workloads: thpsolve command lines, the inputs they read,
and the oracle that checks their output.

Inputs are generated from the seed into the run's own work directory; the
benchmark reads nothing of the repository but the program itself.  Why each
workload exists is written down in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

NAMES = ("reference", "manufactured", "basis")

# The manufactured problem is the example in docs/config.md; at
# seed 0 this text equals that example byte for byte.  Other seeds change
# only the slope of the initial boundary guess, taken from a grid of values
# in [0.05, 0.3] that are all known to converge.
MANUFACTURED_CONFIG = """\
# potential and geometry
q        = 0
l        = 1.0          # boundary anchor s(0)
l_domain = 2.0          # right end of the computational interval [0, L]
t_final  = 1.0

# data
g1    = 1 + x^2         # initial condition u(x, 0)
g2    = 0               # u_x(0, t): default weights are gamma21 = 0, gamma22 = 1
g3    = 1 + (1+t/2)^2 + 2*t   # Dirichlet data on the free boundary
flux  = 2*(1 + t/2)     # optional: measured flux u_x(s(t), t)

# discretization (all optional; defaults shown)
mesh_points = 2001
n   = 12                # basis degree N
n_x = 100               # collocation points on [0, l] (n_x + 1 nodes)
n_t = 100               # collocation points on [0, T] (n_t + 1 nodes)
k   = 6                 # boundary polynomial degree K
max_iterations = 400

initial_boundary = 1 + {slope}*t   # optional guess; must satisfy s(0) = l
"""
SLOPES = tuple(k / 40 for k in range(2, 13))    # 0.05, 0.075, ..., 0.3

BASIS_CONFIG = """\
q = x^2
l = 1.0
l_domain = 2.0
t_final = 1.0
g3 = 1
mesh_points = 20001
n = 20
"""
BASIS_NODES = np.linspace(0.0, 2.0, 20001)
BASIS_DUMPED = 2    # basis-dump --n


@dataclass(frozen=True)
class Workload:
    args: Callable[[Path], list]     # output dir -> thpsolve arguments
    check: Callable[[Path], tuple]   # output dir -> (accuracy fields, problems)


def manufactured_slope(seed: int) -> float:
    """Slope of the initial boundary guess; seed 0 gives the documented 0.1."""
    return SLOPES[(seed + 2) % len(SLOPES)]


def manufactured_config(seed: int) -> str:
    return MANUFACTURED_CONFIG.format(slope=f"{manufactured_slope(seed):g}")


def make(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``work_dir``."""
    if name == "reference":
        # a fixed problem: the seed is unused
        return Workload(lambda out: [
            "validate-example", "--N", "12", "--K", "6", "--mesh", "2001",
            "--out", str(out)], oracles.check_reference)
    if name == "manufactured":
        config = work_dir / "manufactured.cfg"
        config.write_text(manufactured_config(seed))
        return Workload(lambda out: ["solve", str(config), "--out", str(out)],
                        oracles.check_manufactured)
    if name == "basis":
        # a fixed problem: the seed is unused
        config = work_dir / "basis.cfg"
        config.write_text(BASIS_CONFIG)
        phi0 = oracles.particular_f(BASIS_NODES)
        return Workload(lambda out: [
            "basis-dump", str(config), "--n", str(BASIS_DUMPED), "--out", str(out)],
            lambda out: oracles.check_basis(out, BASIS_NODES, phi0, BASIS_DUMPED))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
