"""Moving-band projection, the quadratic long-time correction, its flow
residuals, and extraction of the asymptotic linear profile.  The residuals
take one transform of each snapshot they read."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .evolution import Trajectory, linear_propagate
from .decompose import _plus_coeffs
from .grids import (
    ComplexField,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    inverse_transform_complex,
    l2_norm,
    multiplier_dx,
    spectral_l2_norm,
)
from .vfields import _Spectrum, _symbol

DEFAULT_ALPHA = 1.0 / 6.0
_CONTENT_TOL = 1e-12


@dataclass(frozen=True)
class BandProjection:
    """Sharp x-frequency band [t^{-alpha/2}, t^{alpha/2}] at time t."""

    t: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.t < 1:
            raise DomainError("band projection defined for t >= 1")
        if not self.alpha > 0:
            raise InvalidInputError("alpha must be positive")

    @property
    def lower(self) -> float:
        return self.t ** (-self.alpha / 2)

    @property
    def upper(self) -> float:
        return self.t ** (self.alpha / 2)


@dataclass(frozen=True)
class ScatterReport:
    """Sizes of the correction and the two flow residuals at one time."""

    t: float
    umod_l2: float
    scat_helper_residual: float
    modscat_residual: float
    back_propagated_data_drift: float

    def __post_init__(self):
        vals = (self.umod_l2, self.scat_helper_residual,
                self.modscat_residual, self.back_propagated_data_drift)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise InvalidInputError("report entries must be finite and nonnegative")


def _band(F: SpectralField, bp: BandProjection) -> SpectralField:
    """The coefficients of a projected field F kept by the band."""
    if not F.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    g = F.grid
    abs_xi = np.abs(g.xi)
    in_band = (abs_xi >= bp.lower) & (abs_xi <= bp.upper)
    in_band[0] = False
    if not np.any(in_band):
        raise DomainError(
            f"band [{bp.lower:.3g}, {bp.upper:.3g}] contains no grid x-frequencies")
    return SpectralField(g, np.where(in_band[:, None], F.coeffs, 0.0), F.time_tag)


def band_project(u: RealField, bp: BandProjection) -> tuple[RealField, ComplexField]:
    """Sharp band-pass of x-frequencies |xi| in [lower, upper]; returns the
    real band field and its positive-frequency half."""
    W = _band(forward_transform(u), bp)
    w_plus = inverse_transform_complex(SpectralField(u.grid, _plus_coeffs(W), u.time_tag))
    return inverse_transform(W), w_plus


def _min_positive_content(F: SpectralField) -> float:
    """Smallest |xi| carrying non-negligible coefficient mass."""
    g = F.grid
    amp = np.abs(F.coeffs).max(axis=1)
    scale = amp.max()
    if scale == 0:
        return np.inf
    live = amp > _CONTENT_TOL * scale
    live[0] = False
    if not np.any(live):
        return np.inf
    return float(np.abs(g.xi[live]).min())


def _umod(w_plus: _Spectrum, lower: float) -> tuple[np.ndarray, np.ndarray]:
    """Re(w+ w+_x) and the coefficients of the correction (8/3) dx^{-3} of
    it; a product with content below 2 * lower is rejected."""
    g = w_plus.grid
    q = RealField(g, (w_plus.samples * w_plus.d(1).samples).real, w_plus.time_tag)
    Fq = forward_transform(q)
    if np.abs(Fq.coeffs).max() > 0:
        low_content = _min_positive_content(Fq)
        if low_content < 2 * lower * (1 - 1e-9):
            raise InvalidInputError(
                f"quadratic product has content at |xi|={low_content:.3g} "
                f"below 2*lower={2*lower:.3g}")
    return q.samples, (8.0 / 3.0) * multiplier_dx(g, -3).values * Fq.coeffs


def compute_umod(w_plus: ComplexField, lower: float) -> RealField:
    """The quadratic correction (8/3) dx^{-3} Re(w+ w+_x).

    `lower` is the smallest |xi| that w+ carries (the band's lower edge).
    The triple inverse derivative is well defined because the quadratic
    product lives at x-frequencies >= 2 * lower; input whose product has
    content below that is rejected.
    """
    _, coeffs = _umod(_Spectrum.of(w_plus), lower)
    return inverse_transform(SpectralField(w_plus.grid, coeffs, w_plus.time_tag))


def scattering_residuals(traj: Trajectory, t: float,
                         alpha: float = DEFAULT_ALPHA) -> ScatterReport:
    """Measure how well the band-quadratic term shadows the full nonlinearity
    and how well the correction absorbs it under the flow at time t.

    The time derivative of the correction is taken by centered differences
    of the fully composed quantity at the bracketing snapshots, so the
    moving band edges are accounted for automatically.
    """
    times = traj.times
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9:
        raise DomainError(f"no snapshot at t={t}")
    if idx == 0 or idx == len(times) - 1:
        raise InvalidInputError("need snapshots bracketing t on both sides")
    u = traj.snapshots[idx]
    g = u.grid
    spectra = {j: forward_transform(traj.snapshots[j]) for j in (idx - 1, idx, idx + 1)}

    def umod_at(j: int, tj: float) -> tuple[np.ndarray, np.ndarray]:
        bp = BandProjection(tj, alpha)
        return _umod(_Spectrum(g, _plus_coeffs(_band(spectra[j], bp)), False, tj), bp.lower)

    q_half, umod = umod_at(idx, t)
    ux = _Spectrum(g, spectra[idx].coeffs, True, t, u.samples).d(1).samples
    helper = l2_norm(RealField(g, u.samples * ux - 2 * q_half, t))
    um_prev, um_next = (umod_at(j, times[j])[1] for j in (idx - 1, idx + 1))
    # d_t u_mod + (dx^3 - dx^{-1} dy^2) u_mod, on the coefficients
    flow = ((um_next - um_prev) / (times[idx + 1] - times[idx - 1])
            + (_symbol(g, 3) - _symbol(g, -1, 2)) * umod)
    modscat = l2_norm(RealField(g, 2 * q_half - _Spectrum(g, flow, True, t).samples, t))
    b_prev, b_here = (linear_propagate(spectra[j], -times[j]) for j in (idx - 1, idx))
    drift = spectral_l2_norm(SpectralField(g, b_here.coeffs - b_prev.coeffs, 0.0))
    return ScatterReport(t=t, umod_l2=spectral_l2_norm(SpectralField(g, umod, t)),
                         scat_helper_residual=helper, modscat_residual=modscat,
                         back_propagated_data_drift=drift)


def extract_scatter_data(traj: Trajectory, min_fraction: float = 0.25
                         ) -> tuple[RealField, list]:
    """Pull each late snapshot back to time zero through the exact linear
    flow; successive L^2 distances form a Cauchy-sequence diagnostic and the
    last pullback is the asymptotic data surrogate."""
    times = traj.times
    late = [s for s in traj.snapshots if s.time_tag >= times[-1] * min_fraction]
    if len(late) < 2:
        raise InvalidInputError("too few late snapshots for a drift series")
    backs = [linear_propagate(forward_transform(s), -s.time_tag) for s in late]
    drift_series = []
    for i in range(1, len(backs)):
        a, b = backs[i - 1], backs[i]
        d = spectral_l2_norm(SpectralField(a.grid, b.coeffs - a.coeffs, 0.0))
        drift_series.append((float(late[i].time_tag), d))
    u0 = inverse_transform(backs[-1])
    return u0, drift_series
