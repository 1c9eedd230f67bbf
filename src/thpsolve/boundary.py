"""Polynomial free-boundary candidates s_K(t) = l + sum_j b_j t^j."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BoundaryModel"]

# admissibility margin for the lower bound s > 0 and upper bound s <= L
CONSTRAINT_MARGIN = 1e-6


@dataclass(frozen=True)
class BoundaryModel:
    """Boundary curve anchored at s(0) = l with monomial shape functions
    t^1 .. t^K; the offset l absorbs the initial position so every candidate
    automatically satisfies s(0) = l."""

    l: float
    coefficients: np.ndarray = field(repr=True)

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.atleast_1d(np.asarray(self.coefficients, dtype=float)))

    @property
    def K(self) -> int:
        return len(self.coefficients)

    # np.vecdot rounds an array of times like one scalar call per time (a
    # matrix-vector product does not)
    def s_eval(self, t):
        t = np.asarray(t, dtype=float)
        powers = t[..., None] ** np.arange(1, self.K + 1)
        out = self.l + np.vecdot(powers, self.coefficients)
        return out if out.shape else float(out)

    def s_dot_eval(self, t):
        t = np.asarray(t, dtype=float)
        j = np.arange(1, self.K + 1)
        powers = t[..., None] ** (j - 1)
        out = np.vecdot(powers, j * self.coefficients)
        return out if out.shape else float(out)

    def violations(self, times, upper: float) -> np.ndarray:
        """Per-time violation of 0 < s(t) <= L over the sample times: the
        distance below the margin or above L, zero inside the band."""
        s = np.atleast_1d(self.s_eval(times))
        return np.minimum(s - CONSTRAINT_MARGIN, 0.0) + np.maximum(s - upper, 0.0)

    def constraint_violation(self, times, upper: float) -> float:
        """Summed squared violation of 0 < s(t) <= L over the sample times;
        zero when the boundary stays inside the band with margin."""
        v = self.violations(times, upper)
        return float(v @ v)
