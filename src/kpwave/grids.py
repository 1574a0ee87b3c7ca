"""Periodic grids, field containers, transforms, and Fourier multipliers.

Conventions fixed here and relied on everywhere else:

* Arrays are shaped (nx, ny) with axis 0 the x direction, row-major.
* The forward transform carries the 1/(nx*ny) factor and the coefficients
  are amplitudes of plane waves e^{i(xi*x + eta*y)} at the *physical*
  coordinates, so a unit cosine really has coefficients 1/2.
* Parseval: ||f||_{L^2}^2 = Lx*Ly * sum |c|^2.
* The xi = 0 line of coefficients is zeroed on ingestion of evolution data
  (zero-x-mode convention), which makes 1/dx single valued.
* One transform pair, `spectrum`/`samples_of`, gives raw coefficients
  (1/(nx*ny) normalized, no physical phase): the rfft2 half spectrum (the
  first ny//2 + 1 columns) of a real field, the fft2 lattice of a complex
  one.  Each is two of numpy.fft's 1-D passes in scipy.fft's order, with
  the 1/(nx*ny) factor where scipy applies it, so the bits are scipy's: the
  half spectrum is an rfft along y, the factor, then an fft along x in
  place; the lattice an fft along x, the factor, then an fft along y in
  place.  Either is inverted by an ifft along x in place, then an irfft
  (or an ifft in place) along y, with no factor.  A caller that owns a
  fresh buffer (a symbol product, a flowed spectrum) inverts it in place
  with `samples_in_place`, which overwrites it; `samples_of` inverts a
  private copy and leaves its input as it is.  Inside kpwave
  every operation is a diagonal symbol product or a Parseval sum, which
  the phase does not change, so the phase exists only where a public
  `SpectralField` enters or leaves (`to_spectral`, `from_spectral`, and
  `inverse_transform`'s Hermitian check).
* Nyquist modes sit on the negative half of the lattice; odd-symbol
  multipliers are zeroed there to preserve realness.
* A real field's Nyquist coefficients are their own mirrors, so the phase
  there is the real +-1 nearest the plane-wave phase: every real field
  round-trips through a `SpectralField`, whatever the box offset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy import fft as npfft

from .errors import DomainError, GridMismatchError, InvalidInputError

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Grid2D:
    """Periodic computational box with nx*ny modes, centered at (x0, y0).
    Its (nx, ny) lattices are read-only broadcast views of its 1-D axes."""

    nx: int
    ny: int
    Lx: float
    Ly: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8 or self.nx % 2 or self.ny % 2:
            raise InvalidInputError("mode counts must be even and >= 8")
        for name in ("Lx", "Ly", "x0", "y0"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.Lx > 0 and self.Ly > 0):
            raise InvalidInputError("box side lengths must be positive")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def x(self) -> np.ndarray:
        """Physical x coordinates, [x0 - Lx/2, x0 + Lx/2)."""
        return self.x0 - self.Lx / 2 + self.hx * np.arange(self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return self.y0 - self.Ly / 2 + self.hy * np.arange(self.ny)

    @cached_property
    def xc(self) -> np.ndarray:
        """Centered (sawtooth) x coordinate, used for coordinate weights."""
        return self.x - self.x0

    @cached_property
    def yc(self) -> np.ndarray:
        return self.y - self.y0

    @cached_property
    def xi(self) -> np.ndarray:
        """x wavenumbers in FFT order; Nyquist on the negative half."""
        return 2 * np.pi * npfft.fftfreq(self.nx, d=self.hx)

    @cached_property
    def eta(self) -> np.ndarray:
        return 2 * np.pi * npfft.fftfreq(self.ny, d=self.hy)

    @property
    def XI(self) -> np.ndarray:
        return np.broadcast_to(self.xi[:, None], self.shape)

    @property
    def ETA(self) -> np.ndarray:
        return np.broadcast_to(self.eta[None, :], self.shape)

    @property
    def XC(self) -> np.ndarray:
        return np.broadcast_to(self.xc[:, None], self.shape)

    @property
    def YC(self) -> np.ndarray:
        return np.broadcast_to(self.yc[None, :], self.shape)

    @property
    def XA(self) -> np.ndarray:
        """Absolute x coordinates as a mesh (box seam at x0 +- Lx/2)."""
        return np.broadcast_to(self.x[:, None], self.shape)

    @property
    def YA(self) -> np.ndarray:
        return np.broadcast_to(self.y[None, :], self.shape)

    @cached_property
    def _phase_factors(self) -> tuple[np.ndarray, np.ndarray]:
        # e^{-i*xi*x_start} and e^{-i*eta*y_start}: their product converts
        # raw FFT output to physical plane-wave amplitudes.
        px = np.exp(-1j * self.xi * self.x[0])
        py = np.exp(-1j * self.eta * self.y[0])
        for p in (px, py):
            p[len(p) // 2] = 1.0 if p[len(p) // 2].real >= 0 else -1.0
        return px, py

    def _phase(self, cols: int | None = None) -> np.ndarray:
        px, py = self._phase_factors  # the product on the first `cols` eta columns
        return px[:, None] * py[None, :cols]

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask for quadratic products."""
        mx, my = (np.abs(k) <= (2.0 / 3.0) * np.abs(k).max() for k in (self.xi, self.eta))
        return mx[:, None] & my[None, :]


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


@dataclass(frozen=True)
class _Samples:
    grid: Grid2D
    samples: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=self._dtype)
        if s.shape != self.grid.shape:
            raise InvalidInputError(f"samples shape {s.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(s)):
            raise InvalidInputError("non-finite samples")
        object.__setattr__(self, "samples", s)


class RealField(_Samples):
    """Real sample array on a grid; a snapshot of u(t, .)."""

    _dtype = np.float64


class ComplexField(_Samples):
    """Complex sample array on a grid (sign-frequency pieces, packets)."""

    _dtype = np.complex128


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients over the wavenumber lattice, FFT ordering."""

    grid: Grid2D
    coeffs: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise InvalidInputError(f"coeffs shape {c.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("non-finite coefficients")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class Multiplier:
    """Fourier multiplier: pointwise factor on the wavenumber lattice."""

    values: np.ndarray
    description: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError(f"non-finite multiplier values ({self.description})")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# transforms


def _scaled(coeffs: np.ndarray, n: int) -> np.ndarray:
    """coeffs times 1/n in place, on the float views of the real and
    imaginary parts, as pocketfft applies its factor; 1/n is the double
    nearest the long-double quotient, as scipy.fft's norm="forward" has it."""
    fct = float(1 / np.longdouble(n))
    for part in (coeffs.real, coeffs.imag):
        np.multiply(part, fct, out=part)
    return coeffs


def spectrum(samples: np.ndarray) -> np.ndarray:
    """Raw coefficients: the rfft2 half spectrum of real samples (an rfft
    along y, scaled, then an fft along x in place), the fft2 lattice of
    complex ones (an fft along x, scaled, then an fft along y in place)."""
    if np.iscomplexobj(samples):
        c = _scaled(npfft.fft(samples, axis=0), samples.size)
        return npfft.fft(c, axis=1, out=c)
    c = _scaled(npfft.rfft(samples, axis=1), samples.size)
    return npfft.fft(c, axis=0, out=c)


def samples_of(coeffs: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The inverse of `spectrum`: real samples of a half spectrum, complex
    ones of a full lattice; `coeffs` is left as it is."""
    return samples_in_place(coeffs.copy(), shape[1])


def samples_in_place(coeffs: np.ndarray, ny: int) -> np.ndarray:
    """`samples_of` for coefficients its caller gives up, which this
    overwrites: an ifft along x in place, then along y an ifft in place (a
    full lattice, ny columns) or an irfft (a half spectrum)."""
    c = npfft.ifft(coeffs, axis=0, norm="forward", out=coeffs)
    if c.shape[1] == ny:
        return npfft.ifft(c, axis=1, norm="forward", out=c)
    return npfft.irfft(c, n=ny, axis=1, norm="forward")


def ingest(samples: np.ndarray) -> np.ndarray:
    """The half spectrum of real samples with the xi = 0 row zeroed."""
    coeffs = spectrum(samples)
    coeffs[0] = 0.0
    return coeffs


def full_lattice(coeffs: np.ndarray, ny: int) -> np.ndarray:
    """A real field's full lattice from its half spectrum: the eta < 0
    columns mirror the eta > 0 ones, conjugated."""
    nx, h = coeffs.shape
    full = np.empty((nx, ny), dtype=complex)
    full[:, :h] = coeffs
    np.conj(coeffs[-np.arange(nx), h - 2:0:-1], out=full[:, h:])
    return full


def to_spectral(coeffs: np.ndarray, grid: Grid2D, t: float) -> SpectralField:
    """The `SpectralField` of raw coefficients, a half spectrum mirrored to
    the full lattice (which the +-1 Nyquist phase keeps Hermitian)."""
    if coeffs.shape != grid.shape:
        coeffs = full_lattice(coeffs, grid.ny)
    phase = grid._phase()  # named: numpy would reuse a temporary and swap the operands
    return SpectralField(grid, coeffs * phase, t)


def from_spectral(F: SpectralField) -> np.ndarray:
    """The half spectrum of a real field's `SpectralField`."""
    h = F.grid.ny // 2 + 1
    return F.coeffs[:, :h] / F.grid._phase(h)


def is_projected(coeffs: np.ndarray) -> bool:
    """True iff the xi = 0 row is negligible (zero up to transform roundoff
    relative to the largest coefficient), on a half or a full lattice."""
    scale = np.abs(coeffs).max()
    return bool(scale == 0 or np.abs(coeffs[0]).max() <= 1e-13 * scale)


def check_projected(coeffs: np.ndarray) -> np.ndarray:
    """`coeffs` if `is_projected`, else `InvalidInputError`: the one zero-x-mode entry check."""
    if not is_projected(coeffs):
        raise InvalidInputError("field must be zero-x-mode projected")
    return coeffs


def half_l2_squared(coeffs: np.ndarray) -> float:
    """sum |c|^2 over the full lattice from a half spectrum: interior
    columns count twice, the eta = 0 and y-Nyquist columns once."""
    return 2 * sum_squares(coeffs) - sum_squares(coeffs[:, [0, -1]])


def forward_transform(f: RealField | ComplexField) -> SpectralField:
    """FFT with 1/(nx*ny) normalization and physical-coordinate phases."""
    return to_spectral(spectrum(f.samples), f.grid, f.time_tag)


def conjugate_mirror(coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-k)): the coefficients of conj(f) when c are those of f."""
    return np.conj(np.roll(coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))


def hermitian_defect(F: SpectralField) -> float:
    """Relative deviation of coeffs from Hermitian symmetry."""
    c = F.coeffs
    scale = np.abs(c).max()
    if scale == 0:
        return 0.0
    return float(np.abs(c - conjugate_mirror(c)).max() / scale)


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse FFT; rejects coefficients that break Hermitian symmetry."""
    if hermitian_defect(F) > HERMITIAN_TOL:
        raise InvalidInputError("coefficients break Hermitian symmetry")
    return RealField(F.grid, samples_in_place(from_spectral(F), F.grid.ny), F.time_tag)


def inverse_transform_complex(F: SpectralField) -> ComplexField:
    g = F.grid
    return ComplexField(g, samples_in_place(F.coeffs / g._phase(), g.ny), F.time_tag)


def apply_multiplier(F: SpectralField, m: Multiplier) -> SpectralField:
    if m.values.shape != F.grid.shape:
        raise GridMismatchError("multiplier shape does not match grid")
    return SpectralField(F.grid, F.coeffs * m.values, F.time_tag)


def project_zero_xmodes(F: SpectralField) -> SpectralField:
    """Zero the xi = 0 line; idempotent and self-adjoint."""
    c = F.coeffs.copy()
    c[0, :] = 0.0
    return SpectralField(F.grid, c, F.time_tag)


def project_field(f: RealField) -> RealField:
    """Zero-x-mode projection in physical space (ingestion convention)."""
    return RealField(f.grid, samples_in_place(ingest(f.samples), f.grid.ny), f.time_tag)


# ---------------------------------------------------------------------------
# symbols


def dispersion_omega(xi: float, eta: float) -> float:
    """Dispersion relation xi^3 + eta^2/xi of a plane wave e^{i(x xi + y eta)}."""
    if xi == 0:
        raise DomainError("dispersion relation is singular at xi = 0")
    return xi**3 + eta**2 / xi


def _omega_half(grid: Grid2D, cols: int | None) -> np.ndarray:
    """omega on rows 0..nx/2 (xi >= 0, then the x-Nyquist row) of the first
    `cols` eta columns, xi^3 and eta^2 as exact products; zero on the xi = 0
    line and the x-Nyquist row."""
    xi, eta = grid.xi[:grid.nx // 2 + 1].copy(), grid.eta[:cols]
    xi[0] = 1.0  # placeholder, zeroed below
    w = (xi * xi * xi)[:, None] + (eta * eta)[None, :] / xi[:, None]
    w[[0, -1]] = 0.0
    return w


def omega_values(grid: Grid2D, cols: int | None = None) -> np.ndarray:
    """omega on the first `cols` eta columns of the lattice (all by default);
    zero on the xi = 0 line and the x-Nyquist row.  The rows past nx/2 are
    the negation of their mirrors, so omega is exactly odd in xi, and each
    value is a few correctly rounded products, a quotient and a sum, whose
    bits no SIMD dispatch changes (numpy's pow would)."""
    w = _omega_half(grid, cols)
    return np.concatenate((w, -w[-2:0:-1]))


def _flow_factor(grid: Grid2D, cols: int, t: float) -> np.ndarray:
    """e^{i omega t} on the first `cols` eta columns: the cosine and sine of
    omega*t on rows 0..nx/2, and their conjugate on the mirror rows past
    nx/2, so each sine and cosine is taken once and the factor is exactly
    Hermitian in xi."""
    theta = _omega_half(grid, cols) * t
    h = len(theta)
    e = np.empty((grid.nx, theta.shape[1]), complex)
    np.cos(theta, out=e.real[:h])
    np.sin(theta, out=e.imag[:h])
    np.conjugate(e[h - 2:0:-1], out=e[h:])
    return e


def dx_symbol(grid: Grid2D, order: int = 1) -> np.ndarray:
    """The 1-D symbol of d/dx^order over xi; negative orders give the
    inverse derivative, and odd ones vanish on the ambiguous Nyquist row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = (1j * grid.xi) ** order
    if order < 0:
        sym[0] = 0.0
    if order % 2:
        sym[grid.nx // 2] = 0.0
    return sym


def dy_symbol(grid: Grid2D, order: int = 1) -> np.ndarray:
    """The 1-D symbol of d/dy^order over eta."""
    if order < 0:
        raise DomainError("no inverse y-derivative convention")
    sym = (1j * grid.eta) ** order
    if order % 2:
        sym[grid.ny // 2] = 0.0
    return sym


def multiplier_dx(grid: Grid2D, order: int = 1) -> Multiplier:
    """Symbol of d/dx^order; negative orders give the inverse derivative."""
    return Multiplier(np.broadcast_to(dx_symbol(grid, order)[:, None], grid.shape), f"dx^{order}")


def multiplier_dy(grid: Grid2D, order: int = 1) -> Multiplier:
    return Multiplier(np.broadcast_to(dy_symbol(grid, order)[None, :], grid.shape), f"dy^{order}")


def multiplier_omega(grid: Grid2D) -> Multiplier:
    """i*omega: the generator of the linear flow (preserves realness)."""
    return Multiplier(1j * omega_values(grid), "i*omega")


# ---------------------------------------------------------------------------
# norms and pairings


def sum_squares(a: np.ndarray) -> float:
    """sum |a|^2 in numpy's own einsum loop on views (a complex array's real
    and imaginary parts): no copy, and never BLAS, whose threads split a sum
    in an order the host sets."""
    parts, ax = (a.real, a.imag) if np.iscomplexobj(a) else (a,), [*range(a.ndim)]
    return float(sum(np.einsum(p, ax, p, ax, []) for p in parts))


def l2_norm(f) -> float:
    """Discrete L^2 norm of a Real/ComplexField."""
    g = f.grid
    return float(np.sqrt(g.hx * g.hy * sum_squares(f.samples)))


def spectral_l2_norm(F: SpectralField) -> float:
    g = F.grid
    return float(np.sqrt(g.Lx * g.Ly * sum_squares(F.coeffs)))


def l2_inner(f, g) -> complex:
    """<f, g> = integral of f * conj(g)."""
    _check_same_grid(f, g)
    return complex(f.grid.hx * f.grid.hy * np.einsum("ij,ij->", f.samples, np.conj(g.samples)))


def sup_norm(f) -> float:
    return float(np.abs(f.samples).max())


# ---------------------------------------------------------------------------
# snapshot files: JSON header + sibling raw binary


def save_snapshot(f: RealField, stem: Path | str) -> None:
    """Write <stem>.json header and <stem>.bin raw f64-le row-major samples."""
    stem = Path(stem)
    g = f.grid
    header = {
        "nx": g.nx, "ny": g.ny, "Lx": g.Lx, "Ly": g.Ly,
        "x0": g.x0, "y0": g.y0, "time_tag": f.time_tag,
        "layout": "row-major", "dtype": "f64-le",
    }
    stem.with_suffix(".json").write_text(json.dumps(header, indent=1, sort_keys=True))
    f.samples.astype("<f8").tofile(stem.with_suffix(".bin"))


def load_snapshot(stem: Path | str) -> RealField:
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("layout") != "row-major" or header.get("dtype") != "f64-le":
        raise InvalidInputError("unsupported snapshot layout")
    grid = Grid2D(header["nx"], header["ny"], header["Lx"], header["Ly"],
                  header.get("x0", 0.0), header.get("y0", 0.0))
    raw = np.fromfile(stem.with_suffix(".bin"), dtype="<f8")
    if raw.size != grid.nx * grid.ny:
        raise InvalidInputError("snapshot payload size mismatch")
    return RealField(grid, raw.reshape(grid.shape), header["time_tag"])
