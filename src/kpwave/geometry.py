"""Dispersion geometry: group velocities, rays, the oscillation phase, and
three-wave resonant triads."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import Grid2D, dispersion_omega
from .vfields import z_coordinate

TRIAD_TOL = 1e-12
SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class RayVelocity:
    """Velocity pair (v1, v2) parametrizing the ray x = v1 t, y = v2 t."""

    v1: float
    v2: float

    @property
    def v(self) -> float:
        """Ray parameter -v1 + v2^2/4; packets exist only for v > 0."""
        return -self.v1 + 0.25 * self.v2**2

    @property
    def is_admissible(self) -> bool:
        return self.v > 0

    def valid_at(self, t: float) -> bool:
        """Whether a packet on the ray is valid at t: t > 0 and v >= t^(-2/3)."""
        return t > 0 and self.v >= t ** (-2.0 / 3.0)


def ray_frequency(vel: RayVelocity) -> tuple[float, float]:
    """Frequency (xi_v, eta_v) carried along the ray; positive-xi branch."""
    v = vel.v
    if not v > 0:
        raise DomainError(f"ray parameter v={v} not positive (elliptic region)")
    sq = math.sqrt(v)
    return (sq / SQRT3, -vel.v2 * sq / (2 * SQRT3))


def group_velocity(xi: float, eta: float) -> RayVelocity:
    """Transport velocity (-3 xi^2 + eta^2/xi^2, -2 eta/xi) of frequency (xi, eta)."""
    if xi == 0:
        raise DomainError("group velocity undefined at xi = 0")
    return RayVelocity(-3 * xi**2 + eta**2 / xi**2, -2 * eta / xi)


def phase_phi(t: float, x: float, y: float) -> float:
    """Oscillation phase -(2/(3 sqrt 3)) t^{-1/2} z^{3/2}, z = -x + y^2/(4t)."""
    if not t > 0:
        raise DomainError("phase defined for t > 0")
    z = -x + y * y / (4 * t)
    if z < 0:
        raise DomainError(f"z={z} < 0: outside the propagation region")
    return -(2.0 / (3.0 * SQRT3)) * z**1.5 / math.sqrt(t)


def phase_phi_grid(grid: Grid2D, t: float, cols=slice(None)) -> np.ndarray:
    """Phase on the centered grid's columns `cols`; z clamped to 0 outside
    the propagation region (callers multiply by cutoffs supported in z > 0)."""
    z = np.maximum(z_coordinate(grid, t, cols), 0.0)
    return -(2.0 / (3.0 * SQRT3)) * z**1.5 / math.sqrt(t)


@dataclass(frozen=True)
class ResonantTriad:
    """Wavenumber triple with k1 + k2 = k3 and matching dispersion sum."""

    k1: tuple[float, float]
    k2: tuple[float, float]
    k3: tuple[float, float]

    def __post_init__(self):
        if any(k[0] == 0 for k in (self.k1, self.k2, self.k3)):
            raise DomainError("triad members must have nonzero x-frequency")
        if (self.k1[0] + self.k2[0] != self.k3[0]
                or self.k1[1] + self.k2[1] != self.k3[1]):
            raise DomainError("triad does not satisfy k1 + k2 = k3 exactly")
        if self.residual > TRIAD_TOL:
            raise DomainError(f"dispersion residual {self.residual} exceeds tolerance")

    @property
    def omegas(self) -> tuple[float, float, float]:
        return tuple(dispersion_omega(*k) for k in (self.k1, self.k2, self.k3))

    @property
    def residual(self) -> float:
        """|omega(k1) + omega(k2) - omega(k3)| / max |omega(ki)|."""
        w1, w2, w3 = self.omegas
        scale = max(abs(w1), abs(w2), abs(w3), 1e-300)
        return abs(w1 + w2 - w3) / scale


def resonant_triad(xi1: float, xi2: float, eta1: float, branch: int) -> ResonantTriad:
    """Solve the resonance system for eta2 and return a verified triad.

    branch = +1 picks eta1/xi1 - eta2/xi2 = +sqrt(3)(xi1+xi2); -1 the other root.
    """
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    if xi1 == 0 or xi2 == 0 or xi1 + xi2 == 0:
        raise DomainError("degenerate x-frequencies (some xi_i = 0)")
    eta2 = xi2 * (eta1 / xi1 - branch * SQRT3 * (xi1 + xi2))
    return ResonantTriad((xi1, eta1), (xi2, eta2), (xi1 + xi2, eta1 + eta2))
