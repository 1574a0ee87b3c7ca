"""Moving-band projection, the quadratic long-time correction, its flow
residuals, and extraction of the asymptotic linear profile.  The residuals
take one transform of each snapshot they read."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .evolution import Trajectory, _linear_flow
from .decompose import _plus_coeffs
from .grids import (
    ComplexField,
    RealField,
    check_projected,
    l2_norm,
    samples_in_place,
    spectrum,
)
from .vfields import _Spectrum, _symbol

BAND_ALPHA = 1.0 / 6.0  # the band exponent alpha
LATE_FRACTION = 0.25  # a drift series starts at t >= LATE_FRACTION * the last time
_CONTENT_TOL = 1e-12


@dataclass(frozen=True)
class BandProjection:
    """Sharp x-frequency band [t^{-alpha/2}, t^{alpha/2}] at time t, alpha
    being `BAND_ALPHA`."""

    t: float

    def __post_init__(self):
        if self.t < 1:
            raise DomainError("band projection defined for t >= 1")

    @property
    def lower(self) -> float:
        return self.t ** (-BAND_ALPHA / 2)

    @property
    def upper(self) -> float:
        return self.t ** (BAND_ALPHA / 2)

    def rows(self, grid) -> np.ndarray:
        """The grid's x-frequency rows the band keeps; `DomainError` if none."""
        abs_xi = np.abs(grid.xi)
        in_band = (abs_xi >= self.lower) & (abs_xi <= self.upper)
        in_band[0] = False
        if not np.any(in_band):
            raise DomainError(
                f"band [{self.lower:.3g}, {self.upper:.3g}] contains no grid x-frequencies")
        return in_band

    def check_product(self, grid) -> None:
        """Refuse a band whose quadratic product reaches below 2*lower, as
        `_umod` would for any data: row sums k1 + k2 past the x-Nyquist row
        wrap to k1 + k2 - nx."""
        abs_xi = np.abs(grid.xi[self.rows(grid)])
        _check_floor(2 * min(abs_xi.min(), np.abs(grid.xi).max() - abs_xi.max()), self.lower)


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


def _band(coeffs: np.ndarray, grid, bp: BandProjection) -> np.ndarray:
    """The raw coefficients of a projected field kept by the band."""
    check_projected(coeffs)
    return np.where(bp.rows(grid)[:, None], coeffs, 0.0)


def band_project(u: RealField, bp: BandProjection) -> tuple[RealField, ComplexField]:
    """Sharp band-pass of x-frequencies |xi| in [lower, upper]; returns the
    real band field and its positive-frequency half."""
    g = u.grid
    W = _band(spectrum(u.samples), g, bp)
    w_plus = ComplexField(g, samples_in_place(_plus_coeffs(W, g), g.ny), u.time_tag)
    return RealField(g, samples_in_place(W, g.ny), u.time_tag), w_plus


def _check_floor(low: float, lower: float) -> None:
    """Refuse (`InvalidInputError`) a quadratic product whose lowest |xi|,
    `low`, is below 2*lower: dx^{-3} of it is defined from there up."""
    if low < 2 * lower * (1 - 1e-9):
        raise InvalidInputError(f"quadratic product has content at |xi|={low:.3g} "
                                f"below 2*lower={2*lower:.3g}")


def _umod(w_plus: _Spectrum, lower: float) -> tuple[np.ndarray, np.ndarray]:
    """Re(w+ w+_x) and the coefficients of the correction (8/3) dx^{-3} of
    it; a product with content below 2 * lower is rejected."""
    g = w_plus.grid
    q = (w_plus.samples * w_plus.d(1).samples).real
    Fq = spectrum(q)
    amp = np.abs(Fq).max(axis=1)  # per row; a half spectrum's rows hold both signs of xi
    live = amp > _CONTENT_TOL * amp.max()
    live[0] = False
    _check_floor(np.abs(g.xi[live]).min(initial=np.inf), lower)  # the lowest |xi| with content
    return q, (8.0 / 3.0) * _symbol(g, -3) * Fq


def compute_umod(w_plus: ComplexField, lower: float) -> RealField:
    """The quadratic correction (8/3) dx^{-3} Re(w+ w+_x).

    `lower` is the smallest |xi| that w+ carries (the band's lower edge).
    The triple inverse derivative is well defined because the quadratic
    product lives at x-frequencies >= 2 * lower; input whose product has
    content below that is rejected.
    """
    g = w_plus.grid
    _, coeffs = _umod(_Spectrum.of(w_plus), lower)
    return RealField(g, samples_in_place(coeffs, g.ny), w_plus.time_tag)


def scattering_residuals(traj: Trajectory, t: float) -> ScatterReport:
    """Measure how well the band-quadratic term shadows the full nonlinearity
    and how well the correction absorbs it under the flow at time t, on the
    bands of exponent `BAND_ALPHA`.

    The time derivative of the correction is taken by centered differences
    of the fully composed quantity at the bracketing snapshots, so the
    moving band edges are accounted for automatically.
    """
    times = traj.times
    idx = traj.index(t)
    if idx == 0 or idx == len(times) - 1:
        raise InvalidInputError("need snapshots bracketing t on both sides")
    u = traj.snapshots[idx]
    g = u.grid
    spectra = {j: _Spectrum.of(traj.snapshots[j]) for j in (idx - 1, idx, idx + 1)}

    def umod_at(j: int, tj: float) -> tuple[np.ndarray, np.ndarray]:
        bp = BandProjection(tj)
        plus = _plus_coeffs(_band(spectra[j].coeffs, g, bp), g)
        return _umod(_Spectrum(g, plus, tj), bp.lower)

    q_half, umod = umod_at(idx, t)
    helper = l2_norm(RealField(g, u.samples * spectra[idx].d(1).samples - 2 * q_half, t))
    um_prev, um_next = (umod_at(j, times[j])[1] for j in (idx - 1, idx + 1))
    # d_t u_mod + (dx^3 - dx^{-1} dy^2) u_mod, on the coefficients
    flow = ((um_next - um_prev) / (times[idx + 1] - times[idx - 1])
            + (_symbol(g, 3) - _symbol(g, -1, 2, umod.shape[1])) * umod)
    modscat = l2_norm(RealField(g, 2 * q_half - samples_in_place(flow, g.ny), t))
    b_prev, b_here = (_linear_flow(spectra[j].coeffs, g, -times[j]) for j in (idx - 1, idx))
    return ScatterReport(t=t, umod_l2=_Spectrum(g, umod, t).l2(),
                         scat_helper_residual=helper, modscat_residual=modscat,
                         back_propagated_data_drift=_Spectrum(g, b_here - b_prev, 0.0).l2())


def drift_start(times, min_fraction: float) -> int:
    """The index of the first late (t >= min_fraction * times[-1]) of the
    increasing `times`; `InvalidInputError` unless the last two are late."""
    if len(times) < 2 or times[-2] < times[-1] * min_fraction:
        raise InvalidInputError("too few late snapshots for a drift series")
    return int(np.searchsorted(times, times[-1] * min_fraction))


def extract_scatter_data(traj: Trajectory, min_fraction: float = LATE_FRACTION
                         ) -> tuple[RealField, list]:
    """Pull each late snapshot (`drift_start`) back to time zero through the
    exact linear flow; successive L^2 distances form a Cauchy-sequence
    diagnostic and the last pullback is the asymptotic data surrogate."""
    late = traj.snapshots[drift_start(traj.times, min_fraction):]
    g, drift_series, prev = late[0].grid, [], None
    for s in late:  # one pullback at a time: only the previous one is kept
        back = _linear_flow(check_projected(spectrum(s.samples)), g, -s.time_tag)
        if prev is not None:
            drift_series.append((float(s.time_tag), _Spectrum(g, back - prev, 0.0).l2()))
        prev = back
    return RealField(g, samples_in_place(prev, g.ny), 0.0), drift_series
