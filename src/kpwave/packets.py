"""Moving wave packets along rays, the packet pairing gamma(t, v), and the
approximate-solution residual diagnostics."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .errors import DomainError, GridMismatchError, InvalidInputError
from .geometry import RayVelocity, phase_phi, phase_phi_grid
from .grids import (ComplexField, Grid2D, RealField, SpectralField, forward_transform,
                    inverse_transform_complex, multiplier_dx, sup_norm)
from .bumps import bump_d1, bump_d2, bump_normalized
from .vfields import _Spectrum, _symbol, z_coordinate

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class PacketParams:
    """A packet instant: ray velocity, time, and the envelope descriptor.

    The envelope is a tensor product of normalized compactly supported
    bumps, so its integral is 1 by construction.
    """

    vel: RayVelocity
    t: float
    chi_profile: str = "tensor-bump"

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError("packet requires t > 0")
        if not self.vel.is_admissible:
            raise DomainError(f"ray parameter v={self.vel.v} not positive")
        if self.vel.v < self.t ** (-2.0 / 3.0):
            raise DomainError(
                f"v={self.vel.v} below validity threshold t^(-2/3)={self.t**(-2/3):.3g}")
        if self.chi_profile != "tensor-bump":
            raise InvalidInputError(f"unknown envelope profile {self.chi_profile!r}")

    @property
    def lambda1(self) -> float:
        return self.t**-0.5 * self.vel.v**-0.25

    @property
    def lambda2(self) -> float:
        return self.t**-0.5 * self.vel.v**0.25


def _packet_coords(p: PacketParams, grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Envelope coordinates (alpha, beta) on the centered grid."""
    t, v, v2 = p.t, p.vel.v, p.vel.v2
    z = z_coordinate(grid, t)
    alpha = p.lambda1 * (z - v * t)
    beta = p.lambda2 * (grid.YA - v2 * t)
    return alpha, beta


def _check_support(grid: Grid2D, chi: np.ndarray) -> None:
    outside = (np.abs(grid.XC) > grid.Lx / 4) | (np.abs(grid.YC) > grid.Ly / 4)
    if np.any(chi[outside] != 0):
        raise DomainError("packet support leaves the central half-box")


def packet_leading(p: PacketParams, grid: Grid2D) -> ComplexField:
    """The leading-order form chi * e^{i phi} of the packet."""
    alpha, beta = _packet_coords(p, grid)
    chi = bump_normalized(alpha) * bump_normalized(beta)
    _check_support(grid, chi)
    return ComplexField(grid, chi * np.exp(1j * phase_phi_grid(grid, p.t)), p.t)


def _packet_coeffs(p: PacketParams, grid: Grid2D) -> np.ndarray:
    """The packet's coefficients: dx acts on one transform of chi e^{i phi}."""
    lead = forward_transform(packet_leading(p, grid)).coeffs
    return (-1j * SQRT3 * p.vel.v**-0.5) * multiplier_dx(grid).values * lead


def build_packet(p: PacketParams, grid: Grid2D) -> ComplexField:
    """Assemble the packet -i sqrt(3) v^{-1/2} dx(chi e^{i phi}); the x
    derivative acts spectrally on the assembled product."""
    return inverse_transform_complex(SpectralField(grid, _packet_coeffs(p, grid), p.t))


def _pairing(ux: _Spectrum, psi_coeffs: np.ndarray) -> complex:
    """The integral of u_x conj(psi), by Parseval."""
    return complex(ux.grid.Lx * ux.grid.Ly * np.vdot(psi_coeffs, ux.coeffs))


def gamma(u: RealField, p: PacketParams, psi: ComplexField | None = None) -> complex:
    """The packet pairing integral of u_x against the conjugate packet."""
    if psi is not None and psi.grid != u.grid:
        raise GridMismatchError("field and packet live on different grids")
    psi_coeffs = _packet_coeffs(p, u.grid) if psi is None else forward_transform(psi).coeffs
    return _pairing(_Spectrum.of(u).d(1), psi_coeffs)


@dataclass(frozen=True)
class PacketResidual:
    """Result of applying the linear flow operator to a packet."""

    full: ComplexField      # (d_t + dx^3 - dx^{-1} dy^2) Psi
    leading: ComplexField   # explicit O(1/t) divergence + curvature bracket
    remainder: ComplexField
    remainder_sup: float
    leading_sup: float


def _leading_bracket(p: PacketParams, grid: Grid2D) -> ComplexField:
    """Closed-form leading terms of the flow operator applied to the packet.

    Conjugating the flow operator by e^{i phi} and using the exact eikonal
    cancellation, the O(1/t) part collapses in envelope coordinates to
    t^{-1} [chi + (alpha chi_a + beta chi_b)/2 + i sqrt(3)(chi_aa + chi_bb)].
    """
    alpha, beta = _packet_coords(p, grid)
    ba, bb = bump_normalized(alpha), bump_normalized(beta)
    chi = ba * bb
    chi_a = bump_d1(alpha) * bb
    chi_b = ba * bump_d1(beta)
    chi_aa = bump_d2(alpha) * bb
    chi_bb = ba * bump_d2(beta)
    bracket = (chi + 0.5 * (alpha * chi_a + beta * chi_b)
               + 1j * SQRT3 * (chi_aa + chi_bb))
    phase = np.exp(1j * phase_phi_grid(grid, p.t))
    return ComplexField(grid, bracket * phase / p.t, p.t)


def packet_residual(p: PacketParams, grid: Grid2D,
                    dt_step: float | None = None) -> PacketResidual:
    """Apply the linear flow operator to the packet and split off the
    explicit leading terms; the time derivative uses centered differences."""
    t = p.t
    if dt_step is None:
        dt_step = min(0.01, t / 100)
    if dt_step > t / 20:
        raise InvalidInputError(
            f"finite-difference step {dt_step} too large relative to t={t}")
    c_m, c, c_p = (_packet_coeffs(PacketParams(p.vel, s, p.chi_profile), grid)
                   for s in (t - dt_step, t, t + dt_step))
    flow = (c_p - c_m) / (2 * dt_step) + (_symbol(grid, 3) - _symbol(grid, -1, 2)) * c
    full = inverse_transform_complex(SpectralField(grid, flow, t))
    leading = _leading_bracket(p, grid)
    rem = ComplexField(grid, full.samples - leading.samples, t)
    return PacketResidual(
        full=full, leading=leading, remainder=rem,
        remainder_sup=sup_norm(rem), leading_sup=sup_norm(leading))


def _pair(ux: _Spectrum, p: PacketParams, gam: complex | None = None) -> tuple:
    """(gamma, reconstruction error) from the spectrum of u_x: one
    transform for the packet, and u_x inverted once however many pair."""
    g, t = ux.grid, p.t
    x_ray, y_ray = p.vel.v1 * t, p.vel.v2 * t
    if abs(x_ray - g.x0) > g.Lx / 4 or abs(y_ray - g.y0) > g.Ly / 4:
        raise DomainError("ray point outside the trusted central half-box")
    if gam is None:
        gam = _pairing(ux, _packet_coeffs(p, g))
    ux_ray = float(RectBivariateSpline(g.x, g.y, ux.samples, kx=3, ky=3)(x_ray, y_ray)[0, 0])
    recon = 2.0 / t * (cmath.exp(1j * phase_phi(t, x_ray, y_ray)) * gam).real
    return gam, abs(ux_ray - recon)


def reconstruction_error(u: RealField, p: PacketParams,
                         gam: complex | None = None) -> float:
    """|u_x at the ray point - the packet reconstruction| at time t.

    The reconstruction is 2 t^{-1} Re(e^{i phi} gamma) at the ray point;
    u_x is evaluated there by bicubic interpolation.  Pass the pairing
    `gam = gamma(u, p)` when it is already known.
    """
    return _pair(_Spectrum.of(u).d(1), p, gam)[1]


@dataclass(frozen=True)
class GammaSeries:
    """gamma sampled along increasing times at a fixed ray velocity."""

    vel: RayVelocity
    samples: list  # of (t, complex)

    def __post_init__(self):
        times = [t for t, _ in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInputError("sample times must be strictly increasing")
        for t in times:
            if self.vel.v < t ** (-2.0 / 3.0):
                raise DomainError(f"sample at t={t} outside the validity domain")

    @property
    def times(self) -> list:
        return [t for t, _ in self.samples]

    @property
    def values(self) -> list:
        return [g for _, g in self.samples]


def gamma_dot_series(series: GammaSeries) -> list:
    """|d gamma / dt| at interior sample times via centered differences on
    a possibly nonuniform time grid."""
    ts = np.asarray(series.times, dtype=float)
    gs = np.asarray(series.values, dtype=complex)
    if len(ts) < 3:
        raise InvalidInputError("need at least 3 samples to differentiate")
    out = []
    for i in range(1, len(ts) - 1):
        h1 = ts[i] - ts[i - 1]
        h2 = ts[i + 1] - ts[i]
        # three-point derivative, exact on quadratics for nonuniform steps
        d = (-h2 / (h1 * (h1 + h2)) * gs[i - 1]
             + (h2 - h1) / (h1 * h2) * gs[i]
             + h1 / (h2 * (h1 + h2)) * gs[i + 1])
        out.append((float(ts[i]), abs(d)))
    return out
