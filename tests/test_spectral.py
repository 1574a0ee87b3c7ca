"""Transforms, multipliers, zero-mode projection, and the dispersion symbol."""

import math
from functools import cached_property

import numpy as np
import pytest
import scipy.fft as sfft

from kpwave.errors import DomainError, GridMismatchError, InvalidInputError
from kpwave.grids import (
    ComplexField,
    Grid2D,
    Multiplier,
    RealField,
    SpectralField,
    apply_multiplier,
    dispersion_omega,
    forward_transform,
    from_spectral,
    full_lattice,
    hermitian_defect,
    inverse_transform,
    inverse_transform_complex,
    is_projected,
    l2_inner,
    l2_norm,
    load_snapshot,
    multiplier_dx,
    multiplier_dy,
    multiplier_omega,
    omega_values,
    project_field,
    project_zero_xmodes,
    save_snapshot,
    spectral_l2_norm,
    sum_squares,
    to_spectral,
)
from kpwave.harness import theorem_suite_configs

from conftest import random_field, random_spectral

CANNED_GRIDS = pytest.mark.parametrize(
    "grid", [c.grid for c in theorem_suite_configs().values()], ids=list(theorem_suite_configs()))


def _full_lattice_phase(g: Grid2D) -> np.ndarray:
    """The physical phase as one (nx, ny) array, each Nyquist factor the
    real +-1 nearest it: the reference the transforms must reproduce."""
    px = np.exp(-1j * g.xi * g.x[0])
    py = np.exp(-1j * g.eta * g.y[0])
    for p in (px, py):
        p[len(p) // 2] = 1.0 if p[len(p) // 2].real >= 0 else -1.0
    return px[:, None] * py[None, :]


class TestGrid:
    def test_spacing_and_lattice(self):
        g = Grid2D(64, 32, 16.0, 8.0, 0.0, 0.0)
        assert g.hx == 16.0 / 64
        assert g.hy == 8.0 / 32
        assert np.isclose(np.sort(g.xi)[-1], 2 * np.pi / 16.0 * 31)
        assert 0.0 in g.xi

    def test_lattices_are_read_only_views_of_the_axes(self):
        g = Grid2D(16, 8, 16.0, 8.0, 0.3, -0.2)
        for name, axis, along_x in (("XI", "xi", True), ("ETA", "eta", False),
                                    ("XC", "xc", True), ("YC", "yc", False),
                                    ("XA", "x", True), ("YA", "y", False)):
            lattice, a = getattr(g, name), getattr(g, axis)
            assert lattice.shape == g.shape
            assert np.array_equal(lattice, np.broadcast_to(a[:, None] if along_x else a, g.shape))
            assert np.shares_memory(lattice, a), name
            with pytest.raises(ValueError):
                lattice[0, 0] = 1.0

    def test_rejects_odd_or_small_counts(self):
        with pytest.raises(InvalidInputError):
            Grid2D(63, 32, 16.0, 8.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            Grid2D(64, 4, 16.0, 8.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            Grid2D(64, 32, -1.0, 8.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["Lx", "Ly", "x0", "y0"])
    def test_rejects_non_finite_box(self, name, value):
        box = {"Lx": 16.0, "Ly": 8.0, "x0": 0.0, "y0": 0.0, name: value}
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            Grid2D(16, 8, **box)

    @CANNED_GRIDS
    def test_holds_only_one_dimensional_arrays(self, grid):
        for name, attr in vars(Grid2D).items():
            if isinstance(attr, (property, cached_property)):
                getattr(grid, name)
        lattices = [k for k, v in vars(grid).items() if isinstance(v, np.ndarray) and v.ndim >= 2]
        assert lattices == []

    @CANNED_GRIDS
    def test_transforms_match_the_full_lattice_phase(self, grid):
        rng = np.random.default_rng(11)
        phase, h = _full_lattice_phase(grid), grid.ny // 2 + 1
        u = rng.standard_normal(grid.shape)
        z = u + 1j * rng.standard_normal(grid.shape)
        full = full_lattice(sfft.rfft2(u, norm="forward"), grid.ny)
        F = forward_transform(RealField(grid, u))
        assert np.array_equal(F.coeffs, full * phase)
        assert np.array_equal(to_spectral(full[:, :h], grid, 0.0).coeffs, full * phase)
        assert np.array_equal(from_spectral(F), F.coeffs[:, :h] / phase[:, :h])
        assert np.array_equal(inverse_transform(F).samples,
                              sfft.irfft2(F.coeffs[:, :h] / phase[:, :h], s=grid.shape, norm="forward"))
        raw = sfft.fft2(z, norm="forward")
        Fc = forward_transform(ComplexField(grid, z))
        assert np.array_equal(Fc.coeffs, raw * phase)
        assert np.array_equal(inverse_transform_complex(Fc).samples,
                              sfft.ifft2(Fc.coeffs / phase, norm="forward"))


class TestForwardTransform:
    def test_single_cosine_modes(self, grid):
        # cos(2 pi x / Lx) -> coefficient 1/2 at xi = +-2 pi / Lx
        k = 2 * np.pi / grid.Lx
        f = RealField(grid, np.cos(k * grid.XA), 0.0)
        F = forward_transform(f)
        assert np.isclose(F.coeffs[1, 0], 0.5, atol=1e-13)
        assert np.isclose(F.coeffs[-1, 0], 0.5, atol=1e-13)
        other = F.coeffs.copy()
        other[1, 0] = other[-1, 0] = 0.0
        assert np.abs(other).max() < 1e-13

    def test_round_trip(self, grid, rng):
        f = random_field(grid, rng)
        back = inverse_transform(forward_transform(f))
        scale = np.abs(f.samples).max()
        assert np.abs(back.samples - f.samples).max() < 1e-13 * scale

    @pytest.mark.parametrize("grid", [
        *(c.grid for c in theorem_suite_configs().values()),
        Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0),
        Grid2D(64, 32, 20.0, 10.0, 0.0, 0.37),
    ], ids=lambda g: f"{g.nx}x{g.ny}@({g.x0},{g.y0})")
    def test_white_noise_round_trip(self, grid):
        # Nyquist content included: the phase there must be real on any
        # box offset, or ingestion breaks Hermitian symmetry
        noise = np.random.default_rng(7).standard_normal(grid.shape)
        back = project_field(RealField(grid, noise, 0.0))
        diff = np.fft.fft2(noise - back.samples)
        diff[0, :] = 0.0  # the projection removes exactly the xi = 0 line
        assert np.abs(diff).max() <= 1e-14 * np.abs(np.fft.fft2(noise)).max()
        assert np.abs(back.samples.mean(axis=0)).max() <= 1e-14 * np.abs(noise).max()

    def test_gaussian_parseval(self):
        # ||exp(-x^2-y^2)||_{L^2}^2 = pi/2 on a box large enough to kill tails
        g = Grid2D(256, 256, 40.0, 40.0, 0.0, 0.0)
        f = RealField(g, np.exp(-g.XA**2 - g.YA**2), 0.0)
        exact = math.pi / 2
        assert abs(l2_norm(f) ** 2 - exact) < 1e-10 * exact
        assert abs(spectral_l2_norm(forward_transform(f)) ** 2 - exact) < 1e-10 * exact

    def test_rejects_nonfinite(self, grid):
        bad = np.zeros(grid.shape)
        bad[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            RealField(grid, bad, 0.0)


class TestInverseTransform:
    def test_mode_pair_gives_cosine(self, grid):
        k = 2 * np.pi / grid.Lx
        c = np.zeros(grid.shape, dtype=complex)
        c[1, 0] = c[-1, 0] = 0.5
        f = inverse_transform(SpectralField(grid, c, 0.0))
        assert np.abs(f.samples - np.cos(k * grid.XA)).max() < 1e-13

    def test_zero(self, grid):
        f = inverse_transform(SpectralField(grid, np.zeros(grid.shape, complex), 0.0))
        assert np.all(f.samples == 0)

    def test_random_hermitian_gives_real(self, grid, rng):
        F = random_spectral(grid, rng)
        z = inverse_transform_complex(F)
        assert np.abs(z.samples.imag).max() < 1e-13 * np.abs(z.samples.real).max()

    def test_rejects_broken_symmetry(self, grid):
        c = np.zeros(grid.shape, dtype=complex)
        c[1, 0] = 1.0  # no conjugate partner
        F = SpectralField(grid, c, 0.0)
        assert hermitian_defect(F) > 1e-12
        with pytest.raises(InvalidInputError):
            inverse_transform(F)


class TestMultipliers:
    def test_dx_on_sine(self, grid):
        k = 2 * np.pi / grid.Lx * 3
        f = RealField(grid, np.sin(k * grid.XA), 0.0)
        out = inverse_transform(apply_multiplier(forward_transform(f), multiplier_dx(grid)))
        assert np.abs(out.samples - k * np.cos(k * grid.XA)).max() < 1e-12 * k

    def test_inverse_dx_antiderivative(self):
        # box of side 2 pi: dx^{-1} sin(x) = -cos(x) (zero-mean antiderivative)
        g = Grid2D(32, 8, 2 * np.pi, 2 * np.pi, 0.0, 0.0)
        f = RealField(g, np.sin(g.XA), 0.0)
        out = inverse_transform(apply_multiplier(forward_transform(f), multiplier_dx(g, -1)))
        assert np.abs(out.samples + np.cos(g.XA)).max() < 1e-13

    def test_inverse_after_dx_is_identity(self, grid, rng):
        f = random_field(grid, rng)
        F = forward_transform(f)
        back = apply_multiplier(apply_multiplier(F, multiplier_dx(grid)), multiplier_dx(grid, -1))
        # identity off the zero line and away from the Nyquist row (odd symbol)
        mask = np.ones(grid.shape, bool)
        mask[0, :] = mask[grid.nx // 2, :] = False
        assert np.abs((back.coeffs - F.coeffs)[mask]).max() < 1e-13

    def test_multiplier_composition_is_single_product(self, grid, rng):
        F = random_spectral(grid, rng)
        m1, m2 = multiplier_dx(grid, -1), multiplier_dy(grid, 2)
        combined = Multiplier(m1.values * m2.values, "dx^-1 dy^2")
        via_two = apply_multiplier(apply_multiplier(F, m1), m2)
        via_one = apply_multiplier(F, combined)
        # pointwise products reassociate only up to the last ulp
        scale = np.abs(via_one.coeffs).max()
        assert np.abs(via_two.coeffs - via_one.coeffs).max() < 4e-16 * scale

    def test_hermitian_symmetry_preserved(self, grid, rng):
        F = random_spectral(grid, rng)
        for m in (multiplier_dx(grid), multiplier_dy(grid),
                  multiplier_dx(grid, -1), multiplier_omega(grid)):
            assert hermitian_defect(apply_multiplier(F, m)) < 1e-12

    def test_grid_mismatch_rejected(self, grid, rng):
        other = Grid2D(32, 16, 20.0, 10.0, 0.0, 0.0)
        with pytest.raises(GridMismatchError):
            apply_multiplier(random_spectral(grid, rng), multiplier_dx(other))

    def test_no_inverse_dy(self, grid):
        with pytest.raises(DomainError):
            multiplier_dy(grid, -1)


class TestZeroModeProjection:
    def test_removes_constant(self):
        g = Grid2D(32, 8, 2 * np.pi, 2 * np.pi, 0.0, 0.0)
        f = RealField(g, 1.0 + np.cos(g.XA), 0.0)
        out = inverse_transform(project_zero_xmodes(forward_transform(f)))
        assert np.abs(out.samples - np.cos(g.XA)).max() < 1e-13

    def test_idempotent(self, grid, rng):
        F = random_spectral(grid, rng)
        once = project_zero_xmodes(F)
        twice = project_zero_xmodes(once)
        assert np.array_equal(once.coeffs, twice.coeffs)
        assert is_projected(once.coeffs)

    def test_x_mean_vanishes(self, grid, rng):
        c = random_spectral(grid, rng).coeffs.copy()
        c[0, 0] = 1.0  # inject a mean
        out = inverse_transform(project_zero_xmodes(SpectralField(grid, c, 0.0)))
        assert np.abs(out.samples.mean(axis=0)).max() < 1e-13

    def test_self_adjoint(self, grid, rng):
        rng2 = np.random.default_rng(7)
        f = random_field(grid, rng)
        h = random_field(grid, rng2)

        def project(u):
            return inverse_transform(project_zero_xmodes(forward_transform(u)))

        lhs = l2_inner(project(f), h)
        rhs = l2_inner(f, project(h))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestDispersion:
    def test_reference_values(self):
        assert dispersion_omega(1.0, 0.0) == 1.0
        assert np.isclose(dispersion_omega(1.0, math.sqrt(3.0)), 4.0, atol=1e-14)

    def test_odd_symmetry(self, rng):
        for _ in range(20):
            xi = rng.uniform(-3, 3) or 1.0
            eta = rng.uniform(-3, 3)
            assert np.isclose(dispersion_omega(-xi, -eta), -dispersion_omega(xi, eta))

    def test_singular_at_zero(self):
        with pytest.raises(DomainError):
            dispersion_omega(0.0, 1.0)

    def test_lattice_values_zero_on_excluded_lines(self, grid):
        w = omega_values(grid)
        assert np.all(w[0, :] == 0)
        assert np.all(w[grid.nx // 2, :] == 0)

    @pytest.mark.parametrize("grid", [c.grid for c in theorem_suite_configs().values()],
                             ids=list(theorem_suite_configs()))
    def test_leading_columns_are_a_slice_of_the_lattice(self, grid):
        h = grid.ny // 2 + 1
        assert np.array_equal(omega_values(grid, h), omega_values(grid)[:, :h])


class TestParsevalProperty:
    def test_random_fields(self, grid, rng):
        for _ in range(5):
            f = random_field(grid, rng)
            a, b = l2_norm(f), spectral_l2_norm(forward_transform(f))
            assert abs(a - b) < 1e-12 * a


    def test_sum_squares_on_every_layout_matches_the_pairwise_sum(self, rng):
        c = rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33))
        for a in (c, c.real, c.T, c[8:40, 3:20], c[:, [0, -1]], c[c.real > 0], c[::2, ::3]):
            assert sum_squares(a) == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-14)
        assert sum_squares(np.zeros((8, 8), complex)) == 0.0


class TestSnapshotIO:
    def test_round_trip(self, grid, rng, tmp_path):
        f = random_field(grid, rng)
        save_snapshot(f, tmp_path / "snap")
        back = load_snapshot(tmp_path / "snap")
        assert back.grid == grid
        assert np.array_equal(back.samples, f.samples)
        assert back.time_tag == f.time_tag
