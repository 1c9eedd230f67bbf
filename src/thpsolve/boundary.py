"""Polynomial free-boundary candidates s_K(t) = l + sum_j b_j t^j."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["BoundaryModel"]

# the admissible band of s is [CONSTRAINT_MARGIN, L]: s > 0 with a margin
CONSTRAINT_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class BoundaryModel:
    """Boundary curve anchored at s(0) = l with monomial shape functions
    t^1 .. t^K; the offset l absorbs the initial position so every candidate
    automatically satisfies s(0) = l."""

    l: float
    coefficients: np.ndarray = field(repr=True)

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        # a NaN or infinite boundary would evaluate to NaN without an error
        if not (np.isfinite(self.l) and np.isfinite(b).all()):
            raise ConfigurationError(
                f"boundary must be finite, got l = {self.l!r} and "
                f"coefficients {b.tolist()}")
        object.__setattr__(self, "coefficients", b)

    @property
    def K(self) -> int:
        return len(self.coefficients)

    def shape(self, t) -> np.ndarray:
        """Shape functions d s / d b_j = t^j, j = 1..K, along a last axis."""
        return self._powers(t, derivative=False)

    def shape_dot(self, t) -> np.ndarray:
        """Their time derivatives d s' / d b_j = j t^(j-1), along a last axis."""
        return self._powers(t, derivative=True)

    def _powers(self, t, derivative: bool) -> np.ndarray:
        """t^j or j t^(j-1), j = 1..K, along a last axis; DomainError
        where they leave the float range."""
        t = np.asarray(t, dtype=float)[..., None]
        j = np.arange(1, self.K + 1)
        try:
            with np.errstate(over="raise"):
                return j * t ** (j - 1) if derivative else t ** j
        except FloatingPointError:
            raise DomainError(
                f"boundary shape function t^j exceeds the float range "
                f"(t up to {np.max(np.abs(t)):g}, j up to {self.K})") from None

    # np.vecdot rounds an array of times like one scalar call per time (a
    # matrix-vector product does not)
    def s_eval(self, t):
        out = self.l + np.vecdot(self.shape(t), self.coefficients)
        return out if out.shape else float(out)

    def s_dot_eval(self, t):
        out = np.vecdot(self.shape_dot(t), self.coefficients)
        return out if out.shape else float(out)

    def clamp(self, times, upper: float) -> tuple[np.ndarray, np.ndarray]:
        """s at the sample times clipped into the admissible band
        [CONSTRAINT_MARGIN, upper], and the violation s - clipped, zero
        exactly where s lies inside the band."""
        s = np.atleast_1d(self.s_eval(times))
        clipped = np.clip(s, CONSTRAINT_MARGIN, upper)
        return clipped, s - clipped
