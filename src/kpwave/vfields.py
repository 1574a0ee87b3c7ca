"""The first-order operators commuting with the linear flow (Lx, Ly, Lz,
Lz+-, S0), the time-dependent solution norm built from them, and the
inequality checkers used as numerical diagnostics.

Each diagnostic transforms an input field once; a chain of derivative
factors is one symbol product and one inverse, whose real part is taken
unchecked for a real field: products of (i xi)^a (i eta)^b, odd factors
zeroed on the self-paired Nyquist lines, satisfy s(-k) = conj(s(k)).

Coordinate factors use absolute coordinates, which jump at the box seam;
this is only meaningful for fields localized away from it.  Each
coordinate-weighted field's support-leakage fraction is checked once, and
the result flagged untrusted when mass outside the central half-box
exceeds LEAKAGE_TOL.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .grids import (
    ComplexField,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform_complex,
    l2_norm,
    multiplier_dx,
    multiplier_dy,
    spectral_l2_norm,
    sup_norm,
)

LEAKAGE_TOL = 1e-6
NEGATIVE_Z_MASS_TOL = 1e-6

VECTOR_FIELD_TAGS = ("Lx", "Ly", "Lz", "LzPlus", "LzMinus", "S0", "LyDx")


class UntrustedFieldWarning(UserWarning):
    """Coordinate weight applied to a field with too much mass near the
    box edge; the result cannot be trusted."""


@dataclass(frozen=True)
class VectorFieldId:
    """Which operator, instantiated at which time."""

    tag: str
    time: float = 0.0

    def __post_init__(self):
        if self.tag not in VECTOR_FIELD_TAGS:
            raise DomainError(f"unknown vector field tag {self.tag!r}")
        if self.tag in ("Lz", "LzPlus", "LzMinus") and not self.time > 0:
            raise DomainError(f"{self.tag} requires time > 0")


@dataclass(frozen=True)
class XNormReport:
    """The four component norms of the solution space, unsquared."""

    l2: float
    uxxx: float
    ly2dxu: float
    s0u: float

    @property
    def total(self) -> float:
        return math.sqrt(self.l2**2 + self.uxxx**2 + self.ly2dxu**2 + self.s0u**2)


class _Spectrum:
    """One field's Fourier coefficients, for the length of a diagnostic call:
    `d` gives a derivative's spectrum, shared while a caller holds it, and
    `samples` inverts at most once."""

    def __init__(self, grid, coeffs, real: bool, time_tag: float, samples=None):
        self.grid, self.coeffs, self.real, self.time_tag = grid, coeffs, real, time_tag
        self._samples, self._leakage, self._d = samples, None, weakref.WeakValueDictionary()

    @classmethod
    def of(cls, field) -> "_Spectrum":
        return cls(field.grid, forward_transform(field).coeffs,
                   isinstance(field, RealField), field.time_tag, field.samples)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = self.inv(1.0)
        return self._samples

    def inv(self, symbol) -> np.ndarray:
        out = inverse_transform_complex(
            SpectralField(self.grid, symbol * self.coeffs, self.time_tag)).samples
        return out.real.copy() if self.real else out

    def d(self, dx_order: int = 0, dy_order: int = 0) -> "_Spectrum":
        if not (dx_order or dy_order):
            return self
        key = (dx_order, dy_order)
        child = self._d.get(key) or _Spectrum(
            self.grid, _symbol(self.grid, *key) * self.coeffs, self.real, self.time_tag)
        self._d[key] = child
        return child

    def weighted(self, weight: np.ndarray) -> np.ndarray:
        """weight * samples, with the leakage warning of a coordinate weight."""
        if self._leakage is None:
            self._leakage = leakage_fraction(self)
            if self._leakage >= LEAKAGE_TOL:
                warnings.warn(
                    f"support leakage {self._leakage:.3e} >= {LEAKAGE_TOL}: "
                    "coordinate weight untrusted", UntrustedFieldWarning, stacklevel=3)
        return weight * self.samples

    def l2(self) -> float:
        return spectral_l2_norm(SpectralField(self.grid, self.coeffs))

    def field(self, samples=None):
        s = self.samples if samples is None else samples
        return (ComplexField if np.iscomplexobj(s) else RealField)(self.grid, s, self.time_tag)


def _symbol(grid, dx_order: int = 0, dy_order: int = 0):
    """Symbol of dx^dx_order dy^dy_order, as `derivative` applies it."""
    sx = multiplier_dx(grid, dx_order).values if dx_order else 1.0
    return sx * multiplier_dy(grid, dy_order).values if dy_order else sx


def _lx_symbol(grid, t: float) -> np.ndarray:
    return -3 * t * _symbol(grid, 2) - t * _symbol(grid, -2, 2)


def _ly_symbol(grid, t: float) -> np.ndarray:
    return 2 * t * _symbol(grid, -1, 1)


def derivative(field, dx_order: int = 0, dy_order: int = 0):
    """Spectral derivative (negative dx_order = inverse x-derivative)."""
    return _Spectrum.of(field).d(dx_order, dy_order).field()


def leakage_fraction(field) -> float:
    """Fraction of L^2 mass outside the central half-box."""
    g = field.grid
    inside = (np.abs(g.XC) <= g.Lx / 4) & (np.abs(g.YC) <= g.Ly / 4)
    total = np.sum(np.abs(field.samples) ** 2)
    if total == 0:
        return 0.0
    return float(np.sum(np.abs(field.samples[~inside]) ** 2) / total)


def z_coordinate(grid, t: float) -> np.ndarray:
    """z = -x + y^2/(4t) in absolute coordinates."""
    if not t > 0:
        raise DomainError("z coordinate requires t > 0")
    return -grid.XA + grid.YA**2 / (4 * t)


def _vector_field(vfid: VectorFieldId, S: _Spectrum) -> np.ndarray:
    """Samples of the operator on the field with spectrum S: weighted
    samples or derivatives, plus the derivative part as one symbol."""
    t, g, tag = vfid.time, S.grid, vfid.tag
    if tag == "Lx":
        return S.weighted(g.XA) + S.inv(_lx_symbol(g, t))
    if tag == "Ly":
        return S.weighted(g.YA) + S.inv(_ly_symbol(g, t))
    if tag == "LyDx":
        return _vector_field(VectorFieldId("Ly", t), S.d(1))
    if tag == "S0":  # Lx dx + Ly dy
        symbol = _lx_symbol(g, t) * _symbol(g, 1) + _ly_symbol(g, t) * _symbol(g, 0, 1)
        return S.d(1).weighted(g.XA) + S.d(0, 1).weighted(g.YA) + S.inv(symbol)
    if tag == "Lz":
        return S.weighted(z_coordinate(g, t)) + S.inv(3 * t * _symbol(g, 2))
    if tag in ("LzPlus", "LzMinus"):
        z = z_coordinate(g, t)
        total = np.sum(np.abs(S.samples) ** 2)
        neg = np.sum(np.abs(S.samples[z < 0]) ** 2)
        if total > 0 and neg / total > NEGATIVE_Z_MASS_TOL:
            raise InvalidInputError(
                f"mass fraction {neg/total:.3e} on {{z<0}}: {tag} undefined there")
        sign = 1.0 if tag == "LzPlus" else -1.0
        return (S.weighted(np.sqrt(np.maximum(z, 0.0)))
                + sign * 1j * math.sqrt(3 * t) * S.d(1).samples)
    raise DomainError(f"unknown tag {tag!r}")


def apply_vector_field(vfid: VectorFieldId, u):
    """Apply one of the operators to a Real/ComplexField snapshot.

    Derivative factors act spectrally, coordinate factors in physical space.
    LzPlus/LzMinus return a ComplexField and require the field's mass on
    {z < 0} to be negligible (the factorization only exists for z >= 0).
    """
    S = _Spectrum.of(u)
    return S.field(_vector_field(vfid, S))


def _ly_spectrum(S: _Spectrum, t: float) -> _Spectrum:
    """Ly f's spectrum from f's: one transform, of the weighted part."""
    weighted = forward_transform(S.field(S.weighted(S.grid.YA))).coeffs
    return _Spectrum(S.grid, weighted + _ly_symbol(S.grid, t) * S.coeffs, S.real, S.time_tag)


def _x_norm(S: _Spectrum, t: float) -> XNormReport:
    ux = S.d(1)  # held, so that S0 shares it
    ly2dxu = _vector_field(VectorFieldId("Ly", t), _ly_spectrum(ux, t))
    s0u = _vector_field(VectorFieldId("S0", t), S)
    return XNormReport(l2=l2_norm(S.field()), uxxx=S.d(3).l2(),
                       ly2dxu=l2_norm(S.field(ly2dxu)), s0u=l2_norm(S.field(s0u)))


def x_norm(u, t: float) -> XNormReport:
    """Component norms ||u||, ||u_xxx||, ||Ly^2 dx u||, ||S0 u|| at time t."""
    return _x_norm(_Spectrum.of(u), t)


def _l4_norm(field) -> float:
    g = field.grid
    return float((g.hx * g.hy * np.sum(np.abs(field.samples) ** 4)) ** 0.25)


def check_anisotropic_sobolev(f) -> float:
    """sup|f| / (||f||^{1/4} ||f_x||^{1/2} ||f_yy||^{1/4}); scale invariant."""
    S = _Spectrum.of(f)
    denom = l2_norm(f) ** 0.25 * S.d(1).l2() ** 0.5 * S.d(0, 2).l2() ** 0.25
    if denom == 0:
        raise InvalidInputError("ratio undefined for the zero field")
    return sup_norm(f) / denom


def check_interpolation_LySobolev(u, t: float) -> float:
    """||dx Ly u||_{L^4}^2 / (||u_x||_inf ||dx Ly^2 u||_{L^2})."""
    if t == 0:
        raise DomainError("interpolation check requires t != 0")
    dxu, ly = _Spectrum.of(u).d(1), VectorFieldId("Ly", t)
    lhs = _l4_norm(dxu.field(_vector_field(ly, dxu))) ** 2
    rhs = sup_norm(dxu.field()) * l2_norm(dxu.field(_vector_field(ly, _ly_spectrum(dxu, t))))
    if rhs == 0:
        raise InvalidInputError("ratio undefined: vanishing right-hand side")
    return lhs / rhs
