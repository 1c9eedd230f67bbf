"""Correctness checks of thpsolve's output files that use no thpsolve code.

Each check reads the files a command wrote and returns the accuracy fields
every record carries (F, a_0..a_6, per-block residual maxima, errors against
the exact answer) together with a list of problems; an empty list means the
output is correct.  Exact answers come from closed forms and scipy.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import expi

# accuracy gate of the acceptance suite: boundary and solution error, and
# every condition residual maximum
GATE = 1e-2

# published basis coefficients of the reference problem, with tolerances
PUBLISHED_A = {0: (1.00000201, 1e-3), 2: (-0.50002066, 1e-3),
               4: (1.0 / 24.0, 2e-3), 6: (-1.0 / 720.0, 5e-4)}

RECORDED_A = range(7)   # a_0..a_6 go into every record of a solve

# relative max error allowed for phi_0 on the basis workload; the series
# solution on its 20001-node mesh is accurate to rounding level
PHI0_TOL = 1e-8

# reference problem: q = x^2, exact u = exp(-x^2/2 - t),
# s(t) = sqrt(2 Ei^-1(2C - 2 e^-t)) with C = Ei(1/2)/2 + 1
REFERENCE_C = 0.5 * expi(0.5) + 1.0


def ei_inv(y: float) -> float:
    """Inverse of Ei on the positive axis, where it is increasing."""
    return brentq(lambda x: expi(x) - y, 1e-3, 10.0, xtol=1e-15, rtol=1e-15)


def reference_s(t: float) -> float:
    return math.sqrt(2.0 * ei_inv(2.0 * REFERENCE_C - 2.0 * math.exp(-t)))


def reference_u(x, t):
    return np.exp(-0.5 * x * x - t)


def manufactured_s(t):
    return 1.0 + 0.5 * t


def manufactured_u(x, t):
    return 1.0 + x * x + 2.0 * t


def particular_f(nodes: np.ndarray) -> np.ndarray:
    """f'' = x^2 f, f(0) = 1, f'(0) = 0, integrated by scipy at ``nodes``."""
    sol = solve_ivp(lambda x, y: (y[1], x * x * y[0]), (nodes[0], nodes[-1]),
                    (1.0, 0.0), method="DOP853", t_eval=nodes,
                    rtol=1e-13, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"phi_0 oracle failed: {sol.message}")
    return sol.y[0]


def _csv(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _fit_fields(out: Path) -> dict:
    """F, a_0..a_6 and residual maxima as written by a solve."""
    a, maxima, F = {}, {}, None
    for line in (out / "coefficients.txt").read_text().splitlines():
        m = re.fullmatch(r"a_(\d+) = (\S+)", line)
        if m and int(m.group(1)) in RECORDED_A:
            a[f"a_{m.group(1)}"] = float(m.group(2))
    for line in (out / "residuals.txt").read_text().splitlines():
        m = re.fullmatch(r"I_(\d) \((\w+)\): norm = \S+\s+max = (\S+)", line)
        if m:
            maxima[f"residual_max_{m.group(2)}"] = float(m.group(3))
        elif line.startswith("F = "):
            F = float(line[4:])
    return {"F": F, **a, **maxima}


def _fit_problems(fields: dict) -> list:
    problems = []
    if fields["F"] is None:
        problems.append("residuals.txt has no F")
    maxima = {k: v for k, v in fields.items() if k.startswith("residual_max_")}
    if len(maxima) != 4:
        problems.append(f"residuals.txt has {len(maxima)} blocks, want 4")
    problems += [f"{k} = {v:.3e} > {GATE}" for k, v in maxima.items() if not v <= GATE]
    return problems


def _error_check(name: str, err: float, problems: list) -> float:
    if not err <= GATE:
        problems.append(f"{name} = {err:.3e} > {GATE}")
    return err


def _check_solve(out: Path, exact_s, exact_u) -> tuple:
    """Checks common to both solve workloads: boundary and solution against
    the exact pair, residual maxima against the gate."""
    fields = _fit_fields(out)
    problems = _fit_problems(fields)
    boundary = _csv(out / "boundary.csv")
    fields["boundary_max_err"] = _error_check(
        "boundary_max_err", float(np.max(np.abs(boundary["s"] - exact_s(boundary["t"])))),
        problems)
    solution = _csv(out / "solution.csv")
    if len(solution["u"]) != 2500:
        problems.append(f"solution.csv has {len(solution['u'])} rows, want 2500")
    fields["solution_max_err"] = _error_check(
        "solution_max_err",
        float(np.max(np.abs(solution["u"] - exact_u(solution["x"], solution["t"])))),
        problems)
    return fields, problems


def check_reference(out: Path) -> tuple:
    """validate-example output against the Ei closed form and the published
    coefficients."""
    fields, problems = _check_solve(out, np.vectorize(reference_s), reference_u)
    for n, (want, tol) in PUBLISHED_A.items():
        got = fields.get(f"a_{n}")
        if got is None or not abs(got - want) <= tol:
            problems.append(f"a_{n} = {got} not within {tol} of published {want}")
    return fields, problems


def check_manufactured(out: Path) -> tuple:
    return _check_solve(out, manufactured_s, manufactured_u)


def check_basis(out: Path, nodes: np.ndarray, phi0: np.ndarray, n_max: int) -> tuple:
    """phi.csv: the mesh, the column set, and phi_0 (= f) against the
    scipy solution of f'' = q f."""
    problems = []
    table = _csv(out / "phi.csv")
    want = (["x"] + [f"re_phi_{n}" for n in range(n_max + 1)]
            + [f"im_phi_{n}" for n in range(n_max + 1)])
    if list(table) != want:
        return {"phi0_max_err": None}, [f"phi.csv columns {list(table)}, want {want}"]
    if len(table["x"]) != len(nodes) or np.max(np.abs(table["x"] - nodes)) > 1e-12:
        return {"phi0_max_err": None}, ["phi.csv x column is not the mesh"]
    got = table["re_phi_0"] + 1j * table["im_phi_0"]
    err = float(np.max(np.abs(got - phi0)) / np.max(np.abs(phi0)))
    if not err <= PHI0_TOL:
        problems.append(f"phi0_max_err = {err:.3e} > {PHI0_TOL}")
    return {"phi0_max_err": err}, problems
