"""Moving wave packets along rays, the packet pairing gamma(t, v), and the
approximate-solution residual diagnostics."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .geometry import RayVelocity, phase_phi, phase_phi_grid
from .grids import ComplexField, Grid2D, RealField, l2_inner, samples_in_place, spectrum, sup_norm
from .bumps import bump_d1, bump_d2, bump_normalized
from .vfields import _central_half_box, _Spectrum, _symbol, derivative, z_coordinate

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class PacketParams:
    """A packet instant: ray velocity and time.

    The envelope is a tensor product of normalized compactly supported
    bumps, so its integral is 1 by construction.
    """

    vel: RayVelocity
    t: float

    def __post_init__(self):
        if not self.vel.valid_at(self.t):  # so v > 0 too
            raise DomainError(f"ray parameter v={self.vel.v} invalid at t={self.t}: "
                              "a packet needs t > 0 and v >= t^(-2/3)")

    @property
    def lambda1(self) -> float:
        return self.t**-0.5 * self.vel.v**-0.25

    @property
    def lambda2(self) -> float:
        return self.t**-0.5 * self.vel.v**0.25


def _packet_support(p: PacketParams, grid: Grid2D) -> tuple:
    """The columns `cols` where bump(beta) is nonzero and on them alpha =
    lambda1 (z - v t), beta = lambda2 (y - v2 t), their normalized bumps and
    the envelope chi, their product; `DomainError` if chi leaves the central half-box."""
    beta = p.lambda2 * (grid.y - p.vel.v2 * p.t)
    cols = np.flatnonzero(bump_beta := bump_normalized(beta))
    alpha = p.lambda1 * (z_coordinate(grid, p.t, cols) - p.vel.v * p.t)
    chi = (bump_alpha := bump_normalized(alpha)) * bump_beta[cols]
    rows, ys = _central_half_box(grid)
    if np.count_nonzero(chi) != np.count_nonzero(chi[rows, (ys.start <= cols) & (cols < ys.stop)]):
        raise DomainError("packet support leaves the central half-box")
    return cols, alpha, beta[cols], bump_alpha, bump_beta[cols], chi


def _leading(p: PacketParams, grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """The support columns, and chi e^{i phi} on them."""
    cols, *_, chi = _packet_support(p, grid)
    return cols, chi * np.exp(1j * phase_phi_grid(grid, p.t, cols))


def _on_grid(grid: Grid2D, cols: np.ndarray, values: np.ndarray, t: float) -> ComplexField:
    """The complex field equal to `values` on the columns `cols`, zero elsewhere."""
    out = np.zeros(grid.shape, dtype=complex)
    out[:, cols] = values
    return ComplexField(grid, out, t)


def packet_leading(p: PacketParams, grid: Grid2D) -> ComplexField:
    """The leading-order form chi * e^{i phi} of the packet."""
    return _on_grid(grid, *_leading(p, grid), p.t)


def _packet_coeffs(p: PacketParams, grid: Grid2D) -> np.ndarray:
    """The packet's raw coefficients: dx acts on one transform of chi e^{i phi}."""
    lead = spectrum(packet_leading(p, grid).samples)
    return (-1j * SQRT3 * p.vel.v**-0.5) * _symbol(grid, 1) * lead


def build_packet(p: PacketParams, grid: Grid2D) -> ComplexField:
    """Assemble the packet -i sqrt(3) v^{-1/2} dx(chi e^{i phi}); the x
    derivative acts spectrally on the assembled product."""
    return ComplexField(grid, samples_in_place(_packet_coeffs(p, grid), grid.ny), p.t)


def _gamma(uxx: _Spectrum, p: PacketParams) -> complex:
    """The integral of u_x conj(psi), psi's dx moved onto u_x by parts (dx is skew-adjoint):
    -i sqrt(3) v^{-1/2} times that of u_xx conj(chi e^{i phi}), on the packet's support,
    summed in numpy's own einsum loop against the real and imaginary views, never BLAS."""
    g = uxx.grid
    cols, lead = _leading(p, g)
    u = uxx.samples[:, cols]
    pair = complex(np.einsum("ij,ij->", lead.real, u), -np.einsum("ij,ij->", lead.imag, u))
    return -1j * SQRT3 * p.vel.v**-0.5 * g.hx * g.hy * pair


def gamma(u: RealField, p: PacketParams, psi: ComplexField | None = None) -> complex:
    """The packet pairing integral of u_x against the conjugate packet, or
    against `psi` if it is given."""
    if psi is not None:
        return l2_inner(derivative(u, dx_order=1), psi)
    return _gamma(_Spectrum.of(u).d(1).d(1), p)


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
    cols, alpha, beta, ba, bb, chi = _packet_support(p, grid)
    chi_a, chi_b = bump_d1(alpha) * bb, ba * bump_d1(beta)
    chi_aa, chi_bb = bump_d2(alpha) * bb, ba * bump_d2(beta)
    bracket = (chi + 0.5 * (alpha * chi_a + beta * chi_b)
               + 1j * SQRT3 * (chi_aa + chi_bb))
    phase = np.exp(1j * phase_phi_grid(grid, p.t, cols))
    return _on_grid(grid, cols, bracket * phase / p.t, p.t)


def packet_residual(p: PacketParams, grid: Grid2D) -> PacketResidual:
    """Apply the linear flow operator to the packet and split off the
    explicit leading terms; the time derivative uses centered differences
    of step min(0.01, t/100)."""
    t, h = p.t, min(0.01, p.t / 100)
    c_m, c, c_p = (_packet_coeffs(PacketParams(p.vel, s), grid) for s in (t - h, t, t + h))
    flow = (c_p - c_m) / (2 * h) + (_symbol(grid, 3) - _symbol(grid, -1, 2)) * c
    full = ComplexField(grid, samples_in_place(flow, grid.ny), t)
    leading = _leading_bracket(p, grid)
    rem = ComplexField(grid, full.samples - leading.samples, t)
    return PacketResidual(
        full=full, leading=leading, remainder=rem,
        remainder_sup=sup_norm(rem), leading_sup=sup_norm(leading))


def _point_value(S: _Spectrum, x: float, y: float) -> float:
    """A real field's value at (x, y) from its half spectrum, in O(nx*ny):
    Re sum c e^{i xi (x - x_0)} e^{i eta (y - y_0)} over the full lattice,
    (x_0, y_0) being the first sample, with the Nyquist lines read as
    cosines (the y-Nyquist column's sum over xi is real already)."""
    g, c = S.grid, S.coeffs
    ex = np.exp(1j * g.xi * (x - g.x[0]))
    ey = np.exp(1j * g.eta[:c.shape[1]] * (y - g.y[0]))
    ex[g.nx // 2] = ex[g.nx // 2].real
    ey[1:-1] *= 2  # the interior columns stand for their mirrors too
    return float(np.einsum("i,ij,j->", ex, c, ey).real)


def _ray_point(vel: RayVelocity, t: float, g: Grid2D) -> tuple[float, float]:
    """The ray point (v1 t, v2 t); `DomainError` outside the trusted central half-box."""
    x, y = vel.v1 * t, vel.v2 * t
    if abs(x - g.x0) > g.Lx / 4 or abs(y - g.y0) > g.Ly / 4:
        raise DomainError(f"ray point ({x}, {y}) outside the trusted central half-box")
    return x, y


def _pair(ux: _Spectrum, p: PacketParams) -> tuple:
    """(gamma, reconstruction error) from the spectrum of u_x: gamma by parts
    against u_xx (`ux.d(1)`, shared while held), and u_x exactly at the ray point."""
    g, t = ux.grid, p.t
    x_ray, y_ray = _ray_point(p.vel, t, g)
    gam = _gamma(ux.d(1), p)
    recon = 2.0 / t * (cmath.exp(1j * phase_phi(t, x_ray, y_ray)) * gam).real
    return gam, abs(_point_value(ux, x_ray, y_ray) - recon)


def reconstruction_error(u: RealField, p: PacketParams) -> float:
    """|u_x - 2 t^{-1} Re(e^{i phi} gamma)| at the ray point at time t, u_x
    evaluated there exactly, as the trigonometric polynomial its spectrum
    defines."""
    return _pair(_Spectrum.of(u).d(1), p)[1]


@dataclass(frozen=True)
class GammaSeries:
    """gamma sampled along increasing times at a fixed ray velocity."""

    vel: RayVelocity
    samples: list  # of (t, complex)

    def __post_init__(self):
        times = self.times
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidInputError("sample times must be strictly increasing")
        if invalid := [t for t in times if not self.vel.valid_at(t)]:
            raise DomainError(f"sample at t={invalid[0]} outside the validity domain")

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
