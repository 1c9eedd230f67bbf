"""Classical heat polynomials and their transmuted counterparts.

h_n(x,t) = sum_k c_k^n x^(n-2k) t^k solves the heat equation; replacing the
monomials x^m by the formal powers phi_m of q + c and multiplying by e^(c t)
yields functions H_n solving u_xx - q(x) u = u_t with the same t-structure.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .formal_powers import FormalPowerTable
from .numerics import tabulate

__all__ = ["heat_coeff", "basis", "solution_eval", "pde_residual"]

FD_STEP = 1e-4   # x-step of the finite differences in pde_residual


def heat_coeff(n: int, k: int) -> int:
    """Exact coefficient n! / ((n-2k)! k!)."""
    if n < 0 or k < 0 or 2 * k > n:
        raise DomainError(f"coefficient undefined for n={n}, k={k}")
    return math.factorial(n) // (math.factorial(n - 2 * k) * math.factorial(k))


@lru_cache(maxsize=None)
def _heat_coeff_matrix(degree: int) -> np.ndarray:
    """C[k, n] = c_k^n for n <= degree, zero where 2k > n (read-only).
    Raises DomainError where c_k^n exceeds the float range (n >= 266)."""
    c = np.zeros((degree // 2 + 1, degree + 1))
    for n in range(degree + 1):
        for k in range(n // 2 + 1):
            try:
                c[k, n] = heat_coeff(n, k)
            except OverflowError:
                raise DomainError(
                    f"heat coefficient c_{k}^{n} exceeds the float range") from None
    c.setflags(write=False)
    return c


def basis(table: FormalPowerTable, x, t) -> np.ndarray:
    """All basis functions at the points (x, t), broadcast against each
    other (at least 1-D): H_n in ``[..., 0, n]`` and its x-derivative in
    ``[..., 1, n]``, from H_n(x, t) = e^(c t) sum_k c_k^n phi_(n-2k)(x) t^k
    with the table's shift c (for c = 0 the factor is exactly 1).  Raises
    DomainError for x outside the mesh, and where e^(c t), or else H_n or
    its x-derivative, leaves the float range, naming which."""
    x, t = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)),
                               np.atleast_1d(np.asarray(t, dtype=float)))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    phi = table.spline(x)                      # (P, 2, N+1)
    coeff = _heat_coeff_matrix(table.degree)
    out = np.zeros_like(phi)
    shift = table.f.shift
    try:
        with np.errstate(over="raise", invalid="raise"):
            tk = np.exp(shift * t)             # e^(c t) t^k
    except FloatingPointError:
        raise DomainError(f"H_n exceeds the float range (its factor e^(c t), shift "
                          f"c = {shift:g}, t up to {t.max():g})") from None
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(coeff.shape[0]):
                m = 2 * k
                out[:, :, m:] += coeff[k, m:] * phi[:, :, :phi.shape[2] - m] * tk[:, None, None]
                tk = tk * t
    except FloatingPointError:
        raise DomainError(
            f"H_n or its x-derivative exceeds the float range (N = {table.degree}, "
            f"x in [{x.min():g}, {x.max():g}], t in [{t.min():g}, {t.max():g}], "
            f"shift c = {shift:g})") from None
    return out.reshape(shape + out.shape[1:])


def solution_eval(table: FormalPowerTable, coeffs, x, t) -> np.ndarray:
    """u_N(x, t) = sum_n a_n H_n(x, t) for a coefficient vector a_0..a_M,
    M <= N, at the points (x, t) broadcast against each other."""
    a = np.asarray(coeffs)
    return basis(table, x, t)[..., 0, :len(a)] @ a


def pde_residual(table: FormalPowerTable, q, coeffs, sample_points) -> float:
    """Max of |u_xx - q u - u_t| over interior sample points (x, t), for
    the problem's potential datum ``q`` (read with :func:`tabulate`), so the
    check holds the basis to the equation it was built for.

    Derivatives are central finite differences of step ``FD_STEP``; the
    second x-derivative differences the closed-form u_x (a second
    difference of the value interpolants alone would be dominated by their
    curvature error for the higher-degree basis functions)."""
    x, t = np.asarray(sample_points, dtype=float).reshape(-1, 2).T
    a = np.asarray(coeffs)
    # in t the basis is an exact polynomial, so a finer step costs nothing
    # in rounding noise and cuts the truncation error of the t-difference
    t_step = FD_STEP / 10.0
    u = solution_eval(table, a, x, t)
    u_xx = (basis(table, x + FD_STEP, t)[:, 1, :len(a)] @ a
            - basis(table, x - FD_STEP, t)[:, 1, :len(a)] @ a) / (2 * FD_STEP)
    u_t = (solution_eval(table, a, x, t + t_step)
           - solution_eval(table, a, x, t - t_step)) / (2 * t_step)
    return float(np.max(np.abs(u_xx - tabulate(q, x, "q") * u - u_t),
                        initial=0.0))
