"""Sign-frequency split, dyadic x-frequency decomposition, the
hyperbolic/elliptic spatial split, and the pointwise-bound profiler, which
transforms its input once and keeps u+ and the dyadic pieces as coefficients.

The profiler holds one dyadic piece at a time: a piece's split, spectra and
derivatives are dropped once its per-scale row is read, and only the sums
of the hyperbolic parts (u_hyp as a real array, beside their coefficients)
carry over to the next.  The v-bins are found in one sorted pass."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidInputError
from .grids import (
    ComplexField,
    RealField,
    check_projected,
    conjugate_mirror,
    full_lattice,
    l2_norm,
    samples_in_place,
    spectrum,
)
from .bumps import plateau_cutoff, smooth_step
from .vfields import VectorFieldId, _ly_spectrum, _Spectrum, _vector_field, _x_norm, z_coordinate

BINS_PER_DECADE = 8  # logarithmic v-bins per decade in `pointwise_profile`
PLATEAU_WIDTH = 0.5  # the hyperbolic plateau's half-width, relative to 3 lambda^2


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
    rows: list = field(default_factory=list)
    lambda_rows: list = field(default_factory=list)
    hyp_weighted: float = 0.0      # ||v^{1/2} Lz+ dx u^{hyp,+}||
    hyp_weighted_rhs: float = 0.0  # t^{-1/2} ||u||_X
    ell_third: float = 0.0         # ||v^{-1} dx^3 Ly^2 u^{hyp}||
    ell_third_rhs: float = 0.0     # ||u||_X


def _plus_coeffs(coeffs: np.ndarray, grid) -> np.ndarray:
    """The full-lattice coefficients of u+ (see `split_sign_frequencies`)
    from the half spectrum of u."""
    c = full_lattice(check_projected(coeffs), grid.ny)
    nyquist = c[grid.nx // 2] / 2
    c[grid.xi <= 0] = 0.0
    c[grid.nx // 2] = nyquist
    return c


def split_sign_frequencies(u: RealField) -> tuple[ComplexField, ComplexField]:
    """u = u+ + u- with u- = conj(u+); u+ carries the xi > 0 coefficients.

    The (self-paired) x-Nyquist row is shared half-and-half so that the
    reconstruction is exact for any input.
    """
    g = u.grid
    c = _plus_coeffs(spectrum(u.samples), g)
    u_plus = ComplexField(g, samples_in_place(c, g.ny), u.time_tag)
    u_minus = ComplexField(g, np.conj(u_plus.samples), u.time_tag)
    return u_plus, u_minus


def _dyadic_coeffs(g, c: np.ndarray):
    """Yield (lambda, coefficients) of each dyadic piece, lambda in 2^Z, of
    the positive-frequency full-lattice coefficients c."""
    scale = np.abs(c).max()
    # the x-Nyquist column may carry the shared half of a real mode; any
    # other non-positive column must be empty
    bad = (g.xi <= 0)
    bad[g.nx // 2] = False
    if scale > 0 and np.abs(c[bad]).max() > 1e-12 * scale:
        raise InvalidInputError("input carries non-positive x-frequency content")

    abs_xi = np.abs(g.xi)
    pos = abs_xi > 0
    ell = np.full(g.nx, -np.inf)
    ell[pos] = np.log2(abs_xi[pos])
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
            yield 2.0 ** n, piece_coeffs


def dyadic_decompose(u_plus: ComplexField) -> list[DyadicPiece]:
    """Partition-of-unity decomposition in x-frequency over the dyadic
    lattice 2^Z; the pieces sum back to the input exactly."""
    g, t = u_plus.grid, u_plus.time_tag
    return [DyadicPiece(lam, ComplexField(g, samples_in_place(c, g.ny), t))
            for lam, c in _dyadic_coeffs(g, spectrum(u_plus.samples))]


def hyperbolic_elliptic_split(piece: DyadicPiece) -> HypEllSplit:
    """Cut the piece with a smooth plateau in v = z/t around 3 lambda^2.

    Only defined for t >= 1; scales below the uncertainty threshold
    t^{-1/3} are entirely elliptic.
    """
    t = piece.t
    if t < 1:
        raise DomainError("hyperbolic/elliptic split defined for t >= 1")
    return _cut(piece, z_coordinate(piece.plus_part.grid, t) / t)


def _cut(piece: DyadicPiece, v: np.ndarray) -> HypEllSplit:
    """`hyperbolic_elliptic_split` at the samples' v = z/t, which a caller
    that holds v passes in."""
    g, t, lam = piece.plus_part.grid, piece.t, piece.lam
    if lam < t ** (-1.0 / 3.0):
        zero = ComplexField(g, np.zeros(g.shape, dtype=complex), t)
        return HypEllSplit(zero, piece.plus_part, lam, t)
    chi = plateau_cutoff((v - 3 * lam**2) / (3 * lam**2 * PLATEAU_WIDTH))
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


def _bin_maxima(v: np.ndarray, edges: np.ndarray, fields) -> tuple[np.ndarray, list]:
    """The v-bins that hold a sample, and each field's max |f| on each: bin
    0 is v <= edges[0], bin i is edges[i-1] < v <= edges[i], and v past
    edges[-1] is in none.  One sort of the samples by bin serves every
    field."""
    b = np.searchsorted(edges, v.ravel(), side="left")
    counts = np.bincount(b, minlength=len(edges))[:len(edges)]
    order = np.argsort(b, kind="stable")[:counts.sum()]
    bins = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[bins]
    return bins, [np.maximum.reduceat(np.abs(f.ravel()[order]), starts) for f in fields]


def _scale_row(piece: _Spectrum, lam: float, v: np.ndarray,
               u_hyp: np.ndarray, hyp_coeffs: np.ndarray) -> LambdaRow:
    """One dyadic piece's operator estimates.  Adds the real samples and
    the coefficients of its hyperbolic part to u_hyp and hyp_coeffs, and
    drops each of its fields once read."""
    g, t, samples = piece.grid, piece.time_tag, piece.inv(1.0)  # not cached on the piece
    split = _cut(DyadicPiece(lam, piece.field(samples)), v)
    ell_weighted = l2_norm(piece.field(_bracket(v / lam**2) * split.ell.samples))
    hyp, l2 = _Spectrum.of(split.hyp), l2_norm(piece.field(samples))
    del split, samples
    u_hyp += hyp.samples.real
    hyp_coeffs += hyp.coeffs
    budget = l2 + l2_norm(piece.field(_vector_field(VectorFieldId("Lz", t), piece.d(1))))
    return LambdaRow(
        lam=lam,
        lz_hyp=l2_norm(hyp.field(_vector_field(VectorFieldId("LzPlus", t), hyp))),
        lz_hyp_rhs=lam**-2 * t**-0.5 * budget,
        ell_weighted=ell_weighted,
        ell_rhs=lam**-3 / t * budget,
    )


def pointwise_profile(u: RealField, t: float) -> PointwiseProfile:
    """Profile the decomposed field (dyadic pieces on 2^Z, plateau width
    `PLATEAU_WIDTH`) against the hyperbolic/elliptic bound shapes over
    logarithmic v-bins, and evaluate the per-scale operator estimates."""
    if t < 1:
        raise DomainError("profile defined for t >= 1")
    g = u.grid
    S = _Spectrum.of(u)
    v = z_coordinate(g, t) / t
    # u_hyp = 2 Re(hyp_plus), summed piece by piece as real parts, beside
    # hyp_plus's coefficients
    u_hyp, hyp_coeffs = np.zeros(g.shape), np.zeros(g.shape, dtype=complex)
    lambda_rows = [_scale_row(_Spectrum(g, c, t), lam, v, u_hyp, hyp_coeffs)
                   for lam, c in _dyadic_coeffs(g, _plus_coeffs(S.coeffs, g))
                   if lam >= t ** (-1.0 / 3.0)]  # smaller scales are wholly elliptic
    u_hyp *= 2

    dx_hyp = _Spectrum(g, hyp_coeffs, t).d(1)
    hyp_x = 2 * dx_hyp.samples.real
    ux = S.d(1)  # held, so that the X norm shares it

    v_floor = t ** (-2.0 / 3.0) / 8
    v_cap = max(np.abs(v).max(), 2 * v_floor)
    n_bins = int(math.ceil(math.log10(v_cap / v_floor) * BINS_PER_DECADE))
    edges = v_floor * (v_cap / v_floor) ** (np.arange(n_bins + 1) / n_bins)
    lows = (0.0, *edges)  # bin 0 is the catch-all below the floor (elliptic territory)
    rows = []
    bins, maxima = _bin_maxima(v, edges, (u_hyp, hyp_x, u.samples - u_hyp, ux.samples - hyp_x))
    for i, sup_hyp, sup_hyp_x, sup_ell, sup_ell_x in zip(bins, *maxima):
        v_lo, v_hi = lows[i], edges[i]
        v_mid = math.sqrt(max(v_lo, v_floor / 2) * v_hi)
        rows.append(ProfileRow(
            v_lo=v_lo, v_hi=v_hi,
            sup_hyp=float(sup_hyp), bound_hyp=hyp_bound(t, v_mid),
            sup_hyp_x=float(sup_hyp_x), bound_hyp_x=hyp_x_bound(t, v_mid),
            sup_ell=float(sup_ell), bound_ell=ell_bound(t, v_mid),
            sup_ell_x=float(sup_ell_x), bound_ell_x=ell_x_bound(t, v_mid),
        ))

    # corollary quantities: weighted norms of the assembled hyperbolic part
    xr = _x_norm(S, t)
    lz_dx_hyp = _vector_field(VectorFieldId("LzPlus", t), dx_hyp)
    w_pos = np.sqrt(np.maximum(v, 0.0))
    hyp_weighted = l2_norm(dx_hyp.field(w_pos * lz_dx_hyp))
    inv_v = np.where(v > v_floor, 1.0 / np.maximum(v, v_floor), 0.0)
    # u_hyp = hyp_plus + conj(hyp_plus), and Ly^2 u_hyp stays a spectrum for dx^3
    hyp_coeffs += conjugate_mirror(hyp_coeffs)
    u_hyp_spectrum = _Spectrum(g, hyp_coeffs[:, :S.coeffs.shape[1]], t, u_hyp)
    third = _ly_spectrum(_ly_spectrum(u_hyp_spectrum, t), t).d(3).samples
    ell_third = l2_norm(S.field(inv_v * third))

    return PointwiseProfile(
        t=t, rows=rows, lambda_rows=lambda_rows,
        hyp_weighted=hyp_weighted, hyp_weighted_rhs=t**-0.5 * xr.total,
        ell_third=ell_third, ell_third_rhs=xr.total,
    )
