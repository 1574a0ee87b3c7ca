"""Periodic grids, field containers, transforms, and Fourier multipliers.

Conventions fixed here and relied on everywhere else:

* Arrays are shaped (nx, ny) with axis 0 the x direction, row-major.
* The forward transform carries the 1/(nx*ny) factor and the coefficients
  are amplitudes of plane waves e^{i(xi*x + eta*y)} at the *physical*
  coordinates, so a unit cosine really has coefficients 1/2.
* Parseval: ||f||_{L^2}^2 = Lx*Ly * sum |c|^2.
* The xi = 0 line of coefficients is zeroed on ingestion of evolution data
  (zero-x-mode convention), which makes 1/dx single valued.
* One transform pair: `forward_transform` takes a real or a complex
  field; `inverse_transform` returns a real field and refuses coefficients
  that break Hermitian symmetry, `inverse_transform_complex` returns a
  complex field.  The stepper in `evolution` keeps its own private pair,
  rfft2/irfft2 on the half spectrum without the phase, and meets these
  conventions only where a `SpectralField` enters or leaves it.
* Nyquist modes sit on the negative half of the lattice; odd-symbol
  multipliers are zeroed there to preserve realness.
* A real field's Nyquist coefficients are their own mirrors, so the phase
  there is the real +-1 nearest the plane-wave phase: every real field
  round-trips, whatever the box offset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, GridMismatchError, InvalidInputError

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Grid2D:
    """Periodic computational box with nx*ny modes, centered at (x0, y0)."""

    nx: int
    ny: int
    Lx: float
    Ly: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8 or self.nx % 2 or self.ny % 2:
            raise InvalidInputError("mode counts must be even and >= 8")
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
        return 2 * np.pi * sfft.fftfreq(self.nx, d=self.hx)

    @cached_property
    def eta(self) -> np.ndarray:
        return 2 * np.pi * sfft.fftfreq(self.ny, d=self.hy)

    @cached_property
    def XI(self) -> np.ndarray:
        return self.xi[:, None] * np.ones((1, self.ny))

    @cached_property
    def ETA(self) -> np.ndarray:
        return np.ones((self.nx, 1)) * self.eta[None, :]

    @cached_property
    def XC(self) -> np.ndarray:
        return self.xc[:, None] * np.ones((1, self.ny))

    @cached_property
    def YC(self) -> np.ndarray:
        return np.ones((self.nx, 1)) * self.yc[None, :]

    @cached_property
    def XA(self) -> np.ndarray:
        """Absolute x coordinates as a mesh (box seam at x0 +- Lx/2)."""
        return self.x[:, None] * np.ones((1, self.ny))

    @cached_property
    def YA(self) -> np.ndarray:
        return np.ones((self.nx, 1)) * self.y[None, :]

    @cached_property
    def _phase(self) -> np.ndarray:
        # e^{-i(xi*x_start + eta*y_start)}: converts raw FFT output to
        # physical plane-wave amplitudes.
        px = np.exp(-1j * self.xi * self.x[0])
        py = np.exp(-1j * self.eta * self.y[0])
        for p in (px, py):
            p[len(p) // 2] = 1.0 if p[len(p) // 2].real >= 0 else -1.0
        return px[:, None] * py[None, :]

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask for quadratic products."""
        cx = (2.0 / 3.0) * np.abs(self.xi).max()
        cy = (2.0 / 3.0) * np.abs(self.eta).max()
        return ((np.abs(self.XI) <= cx) & (np.abs(self.ETA) <= cy))


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

    @property
    def is_projected(self) -> bool:
        """True iff the xi = 0 line is negligible (zero up to transform
        roundoff relative to the largest coefficient)."""
        scale = np.abs(self.coeffs).max()
        if scale == 0:
            return True
        return bool(np.abs(self.coeffs[0, :]).max() <= 1e-13 * scale)


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


def forward_transform(f: RealField | ComplexField) -> SpectralField:
    """FFT with 1/(nx*ny) normalization and physical-coordinate phases."""
    g = f.grid
    coeffs = sfft.fft2(f.samples)
    coeffs /= g.nx * g.ny
    coeffs *= g._phase
    return SpectralField(g, coeffs, f.time_tag)


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


def _inverse_samples(F: SpectralField) -> np.ndarray:
    g = F.grid
    samples = sfft.ifft2(F.coeffs / g._phase, overwrite_x=True)
    samples *= g.nx * g.ny
    return samples


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse FFT; rejects coefficients that break Hermitian symmetry."""
    if hermitian_defect(F) > HERMITIAN_TOL:
        raise InvalidInputError("coefficients break Hermitian symmetry")
    return RealField(F.grid, _inverse_samples(F).real, F.time_tag)


def inverse_transform_complex(F: SpectralField) -> ComplexField:
    return ComplexField(F.grid, _inverse_samples(F), F.time_tag)


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
    return inverse_transform(project_zero_xmodes(forward_transform(f)))


# ---------------------------------------------------------------------------
# symbols


def dispersion_omega(xi: float, eta: float) -> float:
    """Dispersion relation xi^3 + eta^2/xi of a plane wave e^{i(x xi + y eta)}."""
    if xi == 0:
        raise DomainError("dispersion relation is singular at xi = 0")
    return xi**3 + eta**2 / xi


def omega_values(grid: Grid2D) -> np.ndarray:
    """omega on the lattice; zero on the xi = 0 line and the x-Nyquist row."""
    xi = grid.xi.copy()
    xi[0] = 1.0  # placeholder, zeroed below
    w = (grid.xi**3)[:, None] + (grid.eta**2)[None, :] / xi[:, None]
    w[0, :] = 0.0
    w[grid.nx // 2, :] = 0.0
    return w


def multiplier_dx(grid: Grid2D, order: int = 1) -> Multiplier:
    """Symbol of d/dx^order; negative orders give the inverse derivative."""
    if order == 0:
        return Multiplier(np.ones(grid.shape), "identity")
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = (1j * grid.xi) ** order
    if order < 0:
        sym[0] = 0.0
    if order % 2:  # odd symbol: kill the ambiguous Nyquist row
        sym[grid.nx // 2] = 0.0
    return Multiplier(np.broadcast_to(sym[:, None], grid.shape), f"dx^{order}")


def multiplier_dy(grid: Grid2D, order: int = 1) -> Multiplier:
    if order < 0:
        raise DomainError("no inverse y-derivative convention")
    sym = (1j * grid.eta) ** order
    if order % 2:
        sym[grid.ny // 2] = 0.0
    return Multiplier(np.broadcast_to(sym[None, :], grid.shape), f"dy^{order}")


def multiplier_omega(grid: Grid2D) -> Multiplier:
    """i*omega: the generator of the linear flow (preserves realness)."""
    return Multiplier(1j * omega_values(grid), "i*omega")


# ---------------------------------------------------------------------------
# norms and pairings


def l2_norm(f) -> float:
    """Discrete L^2 norm of a Real/ComplexField."""
    g = f.grid
    return float(np.sqrt(g.hx * g.hy * np.sum(np.abs(f.samples) ** 2)))


def spectral_l2_norm(F: SpectralField) -> float:
    g = F.grid
    return float(np.sqrt(g.Lx * g.Ly * np.sum(np.abs(F.coeffs) ** 2)))


def l2_inner(f, g) -> complex:
    """<f, g> = integral of f * conj(g)."""
    _check_same_grid(f, g)
    return complex(f.grid.hx * f.grid.hy * np.sum(f.samples * np.conj(g.samples)))


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
