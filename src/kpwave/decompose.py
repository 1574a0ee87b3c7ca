"""Sign-frequency split, dyadic x-frequency decomposition, the
hyperbolic/elliptic spatial split, and the pointwise-bound profiler, which
transforms its input once and keeps u+ and the dyadic pieces as coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError
from .grids import (
    ComplexField,
    RealField,
    SpectralField,
    conjugate_mirror,
    forward_transform,
    inverse_transform_complex,
    l2_norm,
)
from .bumps import plateau_cutoff, smooth_step
from .vfields import VectorFieldId, _ly_spectrum, _Spectrum, _vector_field, _x_norm, z_coordinate


@dataclass(frozen=True)
class DyadicPiece:
    """One x-frequency-localized component of the positive-frequency half."""

    lam: float
    plus_part: ComplexField

    @property
    def t(self) -> float:
        return self.plus_part.time_tag


@dataclass(frozen=True)
class HypEllSplit:
    """Spatial split of a dyadic piece; hyp + ell reproduces it exactly."""

    hyp: ComplexField
    ell: ComplexField
    lam: float
    t: float


@dataclass(frozen=True)
class ProfileRow:
    """Measured sup-norms against the bound shapes on one v-bin."""

    v_lo: float
    v_hi: float
    sup_hyp: float
    bound_hyp: float
    sup_hyp_x: float
    bound_hyp_x: float
    sup_ell: float
    bound_ell: float
    sup_ell_x: float
    bound_ell_x: float

    @property
    def ratio_hyp(self) -> float:
        return self.sup_hyp / self.bound_hyp

    @property
    def ratio_hyp_x(self) -> float:
        return self.sup_hyp_x / self.bound_hyp_x

    @property
    def ratio_ell(self) -> float:
        return self.sup_ell / self.bound_ell

    @property
    def ratio_ell_x(self) -> float:
        return self.sup_ell_x / self.bound_ell_x


@dataclass(frozen=True)
class LambdaRow:
    """Per-scale L^2 diagnostics for the hyperbolic/elliptic operator bounds."""

    lam: float
    lz_hyp: float          # ||Lz+ u_lam^{hyp,+}||
    lz_hyp_rhs: float      # lam^{-2} t^{-1/2} (||u_lam|| + ||Lz dx u_lam||)
    ell_weighted: float    # ||<lam^{-2} v> u_lam^{ell}||
    ell_rhs: float         # lam^{-3} t^{-1} (||u_lam|| + ||Lz dx u_lam||)


@dataclass(frozen=True)
class PointwiseProfile:
    t: float
    delta: float
    width: float
    rows: list = field(default_factory=list)
    lambda_rows: list = field(default_factory=list)
    hyp_weighted: float = 0.0      # ||v^{1/2} Lz+ dx u^{hyp,+}||
    hyp_weighted_rhs: float = 0.0  # t^{-1/2} ||u||_X
    ell_third: float = 0.0         # ||v^{-1} dx^3 Ly^2 u^{hyp}||
    ell_third_rhs: float = 0.0     # ||u||_X


def _plus_coeffs(F: SpectralField) -> np.ndarray:
    """The coefficients of u+ (see `split_sign_frequencies`)."""
    if not F.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    g = F.grid
    c = np.where(g.XI > 0, F.coeffs, 0.0)
    c[g.nx // 2, :] = F.coeffs[g.nx // 2, :] / 2
    return c


def split_sign_frequencies(u: RealField) -> tuple[ComplexField, ComplexField]:
    """u = u+ + u- with u- = conj(u+); u+ carries the xi > 0 coefficients.

    The (self-paired) x-Nyquist row is shared half-and-half so that the
    reconstruction is exact for any input.
    """
    c = _plus_coeffs(forward_transform(u))
    u_plus = inverse_transform_complex(SpectralField(u.grid, c, u.time_tag))
    u_minus = ComplexField(u.grid, np.conj(u_plus.samples), u.time_tag)
    return u_plus, u_minus


def _dyadic_coeffs(F: SpectralField, delta: float):
    """Yield (lambda, coefficients) of each dyadic piece of the
    positive-frequency coefficients F."""
    if not (0 < delta <= 1):
        raise InvalidInputError("delta must lie in (0, 1]")
    g = F.grid
    c = F.coeffs
    scale = np.abs(c).max()
    # the x-Nyquist column may carry the shared half of a real mode; any
    # other non-positive column must be empty
    bad = (g.xi <= 0)
    bad[g.nx // 2] = False
    neg_mass = np.abs(c[bad]).max() if scale > 0 else 0.0
    if scale > 0 and neg_mass > 1e-12 * scale:
        raise InvalidInputError("input carries non-positive x-frequency content")

    abs_xi = np.abs(g.xi)
    pos = abs_xi > 0
    ell = np.full(g.nx, -np.inf)
    ell[pos] = np.log2(abs_xi[pos]) / delta
    live = pos & (np.abs(c).max(axis=1) > 1e-14 * scale)
    if not np.any(live):
        live = pos
    lo = int(math.floor(ell[live].min()))
    hi = int(math.ceil(ell[live].max()))
    # telescoping weights from shared step values: exact partition of unity
    svals = {n: smooth_step(ell - n) for n in range(lo - 1, hi + 1)}
    for n in range(lo, hi + 1):
        w = svals[n - 1] - svals[n]
        piece_coeffs = c * w[:, None]
        # drop pieces holding only transform roundoff
        if np.abs(piece_coeffs).max() > 1e-14 * scale:
            yield 2.0 ** (n * delta), piece_coeffs


def dyadic_decompose(u_plus: ComplexField, delta: float = 1.0) -> list[DyadicPiece]:
    """Partition-of-unity decomposition in x-frequency over the 2^{delta Z}
    lattice; the pieces sum back to the input exactly."""
    g, t = u_plus.grid, u_plus.time_tag
    return [DyadicPiece(lam, inverse_transform_complex(SpectralField(g, c, t)))
            for lam, c in _dyadic_coeffs(forward_transform(u_plus), delta)]


def hyperbolic_elliptic_split(piece: DyadicPiece, width: float = 0.5) -> HypEllSplit:
    """Cut the piece with a smooth plateau in v = z/t around 3 lambda^2.

    Only defined for t >= 1; scales below the uncertainty threshold
    t^{-1/3} are entirely elliptic.
    """
    t = piece.t
    if t < 1:
        raise DomainError("hyperbolic/elliptic split defined for t >= 1")
    if not width > 0:
        raise InvalidInputError("width must be positive")
    g = piece.plus_part.grid
    lam = piece.lam
    if lam < t ** (-1.0 / 3.0):
        zero = ComplexField(g, np.zeros(g.shape, dtype=complex), t)
        return HypEllSplit(zero, piece.plus_part, lam, t)
    v = z_coordinate(g, t) / t
    chi = plateau_cutoff((v - 3 * lam**2) / (3 * lam**2 * width))
    hyp = ComplexField(g, chi * piece.plus_part.samples, t)
    ell = ComplexField(g, piece.plus_part.samples - hyp.samples, t)
    return HypEllSplit(hyp, ell, lam, t)


def _bracket(s: np.ndarray | float) -> np.ndarray:
    return np.sqrt(1.0 + np.square(s))


def hyp_bound(t: float, v: float) -> float:
    """Pointwise bound shape for the hyperbolic part."""
    return min(v ** -0.75, v ** -0.375) / t


def hyp_x_bound(t: float, v: float) -> float:
    return min(v ** -0.25, v ** 0.125) / t


def ell_bound(t: float, v: float) -> float:
    s = _bracket(t ** (2.0 / 3.0) * v)
    return t ** -0.75 * s ** -0.75 * (1.0 + math.log(s))


def ell_x_bound(t: float, v: float) -> float:
    return t ** (-13.0 / 12.0) * _bracket(t ** (2.0 / 3.0) * v) ** -0.25


def pointwise_profile(u: RealField, t: float, delta: float = 1.0,
                      width: float = 0.5, bins_per_decade: int = 8) -> PointwiseProfile:
    """Profile the decomposed field against the hyperbolic/elliptic bound
    shapes over logarithmic v-bins, and evaluate the per-scale operator
    estimates."""
    if t < 1:
        raise DomainError("profile defined for t >= 1")
    g = u.grid
    S = _Spectrum.of(u)
    v = z_coordinate(g, t) / t
    # u_hyp = 2 Re(hyp_plus), with hyp_plus's coefficients summed piece by piece
    hyp_plus, hyp_coeffs = np.zeros(g.shape, dtype=complex), np.zeros(g.shape, dtype=complex)
    lambda_rows = []
    for lam, c in _dyadic_coeffs(SpectralField(g, _plus_coeffs(SpectralField(g, S.coeffs)), t), delta):
        if lam < t ** (-1.0 / 3.0):  # wholly elliptic
            continue
        piece = _Spectrum(g, c, False, t)
        split = hyperbolic_elliptic_split(DyadicPiece(lam, piece.field()), width)
        hyp = _Spectrum.of(split.hyp)
        hyp_plus += hyp.samples
        hyp_coeffs += hyp.coeffs
        lz_dx = _vector_field(VectorFieldId("Lz", t), piece.d(1))
        budget = l2_norm(piece.field()) + l2_norm(piece.field(lz_dx))
        lambda_rows.append(LambdaRow(
            lam=lam,
            lz_hyp=l2_norm(hyp.field(_vector_field(VectorFieldId("LzPlus", t), hyp))),
            lz_hyp_rhs=lam**-2 * t**-0.5 * budget,
            ell_weighted=l2_norm(ComplexField(g, _bracket(v / lam**2) * split.ell.samples, t)),
            ell_rhs=lam**-3 / t * budget,
        ))

    u_hyp = 2 * hyp_plus.real
    u_ell = u.samples - u_hyp
    dx_hyp = _Spectrum(g, hyp_coeffs, False, t, hyp_plus).d(1)
    hyp_x = 2 * dx_hyp.samples.real
    ux = S.d(1)  # held, so that the X norm shares it
    ell_x = ux.samples - hyp_x

    v_floor = t ** (-2.0 / 3.0) / 8
    v_cap = max(np.abs(v).max(), 2 * v_floor)
    n_bins = int(math.ceil(math.log10(v_cap / v_floor) * bins_per_decade))
    edges = v_floor * (v_cap / v_floor) ** (np.arange(n_bins + 1) / n_bins)

    rows = []
    # catch-all bin for v below the floor (elliptic territory)
    masks = [(v <= edges[0], 0.0, edges[0])]
    for i in range(n_bins):
        masks.append(((v > edges[i]) & (v <= edges[i + 1]), edges[i], edges[i + 1]))
    for mask, v_lo, v_hi in masks:
        if not np.any(mask):
            continue
        v_mid = math.sqrt(max(v_lo, v_floor / 2) * v_hi)
        rows.append(ProfileRow(
            v_lo=v_lo, v_hi=v_hi,
            sup_hyp=float(np.abs(u_hyp[mask]).max()),
            bound_hyp=hyp_bound(t, v_mid),
            sup_hyp_x=float(np.abs(hyp_x[mask]).max()),
            bound_hyp_x=hyp_x_bound(t, v_mid),
            sup_ell=float(np.abs(u_ell[mask]).max()),
            bound_ell=ell_bound(t, v_mid),
            sup_ell_x=float(np.abs(ell_x[mask]).max()),
            bound_ell_x=ell_x_bound(t, v_mid),
        ))

    # corollary quantities: weighted norms of the assembled hyperbolic part
    xr = _x_norm(S, t)
    lz_dx_hyp = _vector_field(VectorFieldId("LzPlus", t), dx_hyp)
    w_pos = np.sqrt(np.maximum(v, 0.0))
    hyp_weighted = l2_norm(dx_hyp.field(w_pos * lz_dx_hyp))
    inv_v = np.where(v > v_floor, 1.0 / np.maximum(v, v_floor), 0.0)
    # u_hyp = hyp_plus + conj(hyp_plus), and Ly^2 u_hyp stays a spectrum for dx^3
    u_hyp_spectrum = _Spectrum(g, hyp_coeffs + conjugate_mirror(hyp_coeffs), True, t, u_hyp)
    third = _ly_spectrum(_ly_spectrum(u_hyp_spectrum, t), t).d(3).samples
    ell_third = l2_norm(S.field(inv_v * third))

    return PointwiseProfile(
        t=t, delta=delta, width=width, rows=rows, lambda_rows=lambda_rows,
        hyp_weighted=hyp_weighted, hyp_weighted_rhs=t**-0.5 * xr.total,
        ell_third=ell_third, ell_third_rhs=xr.total,
    )
