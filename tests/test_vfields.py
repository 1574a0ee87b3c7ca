"""The commuting first-order operators, the X norm, and inequality checkers."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kpwave.errors import DomainError, InvalidInputError
from kpwave.evolution import SolverConfig, evolve, linear_propagate, nonlinear_term
from kpwave.grids import (
    Grid2D,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    l2_norm,
    project_field,
    project_zero_xmodes,
)
from kpwave.harness import build_initial_data, theorem_suite_configs
from kpwave.vfields import (
    UntrustedFieldWarning,
    VectorFieldId,
    apply_vector_field,
    check_anisotropic_sobolev,
    check_interpolation_LySobolev,
    derivative,
    leakage_fraction,
    x_norm,
    z_coordinate,
)

from conftest import gaussian_field, random_field


def localized_random(grid, rng, sx=None, sy=None, decay=2.0):
    """Random band-limited field windowed to the central region.

    Taking an x-derivative at the end keeps the field localized while
    removing the x-mean the window would otherwise reintroduce."""
    sx = sx or grid.Lx / 12
    sy = sy or grid.Ly / 12
    w = random_field(grid, rng, decay).samples * np.exp(
        -(grid.XC / sx) ** 2 - (grid.YC / sy) ** 2)
    return derivative(RealField(grid, w, 0.0), dx_order=1)


class TestApplyVectorField:
    def test_ly_at_time_zero_is_y(self, grid, rng):
        u = localized_random(grid, rng)
        out = apply_vector_field(VectorFieldId("Ly", 0.0), u)
        assert np.array_equal(out.samples, grid.YA * u.samples)

    def test_lz_requires_positive_time(self):
        with pytest.raises(DomainError):
            VectorFieldId("Lz", 0.0)
        with pytest.raises(DomainError):
            VectorFieldId("LzPlus", -1.0)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            VectorFieldId("Lq", 1.0)

    def test_commutation_with_linear_flow(self):
        # apply at t=0, propagate  ==  propagate, apply at t.  The datum
        # must avoid low x-frequencies: there the propagator phase varies
        # faster than the frequency lattice resolves and the coordinate
        # multiply stops acting like a spectral derivative
        g = Grid2D(512, 128, 160.0, 60.0, 0.0, 0.0)
        c = np.exp(-((np.abs(g.XI) - 1.0) / 0.17) ** 2 - (g.ETA / 0.5) ** 2)
        c[0, :] = 0.0
        u0 = inverse_transform(SpectralField(g, (c * g.dealias_mask) + 0j, 0.0))
        assert leakage_fraction(u0) < 1e-10
        t = 0.3
        for tag in ("Lx", "Ly"):
            # Lx u picks up an x-mean, which the flow is not defined on;
            # compare the two paths within the projected class
            lu0 = apply_vector_field(VectorFieldId(tag, 0.0), u0)
            path1 = inverse_transform(linear_propagate(
                project_zero_xmodes(forward_transform(lu0)), t))
            ut = inverse_transform(linear_propagate(forward_transform(u0), t))
            lut = apply_vector_field(VectorFieldId(tag, t), RealField(g, ut.samples, t))
            path2 = inverse_transform(project_zero_xmodes(forward_transform(lut)))
            diff = l2_norm(RealField(g, path1.samples - path2.samples, t))
            assert diff < 1e-11 * l2_norm(path2)

    def test_lz_dx_operator_identity(self, rng):
        # Lz dx = -S0 + (1/(4t)) Ly^2 dx - 1/2 at t = 2
        g = Grid2D(128, 64, 40.0, 20.0, 0.0, 0.0)
        t = 2.0
        for _ in range(3):
            # smooth data: spectral tails at the band edge otherwise leak
            # onto the y-Nyquist row through the coordinate multiplies
            u = localized_random(g, rng, decay=6.0)
            ux = derivative(u, dx_order=1)
            lhs = apply_vector_field(VectorFieldId("Lz", t), ux)
            ly = VectorFieldId("Ly", t)
            ly2dx = apply_vector_field(ly, apply_vector_field(ly, ux))
            s0 = apply_vector_field(VectorFieldId("S0", t), u)
            rhs = -s0.samples + ly2dx.samples / (4 * t) - 0.5 * u.samples
            assert np.abs(lhs.samples - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_leakage_warning(self, grid, rng):
        u = random_field(grid, rng)  # spread over the whole box
        assert leakage_fraction(u) > 1e-6
        with pytest.warns(UntrustedFieldWarning):
            apply_vector_field(VectorFieldId("Lx", 1.0), u)

    def test_lzplus_negative_z_mass_guard(self, grid, rng):
        u = localized_random(grid, rng)  # centered at x=0: half the mass has z<0
        assert np.any(z_coordinate(grid, 1.0) < 0)
        with pytest.raises(InvalidInputError):
            apply_vector_field(VectorFieldId("LzPlus", 1.0), u)


class TestXNorm:
    def test_working_memory_on_the_energy_grid(self):
        """The tracemalloc peak of one call on the canned energy grid
        (1024x512), in half spectra of that grid: 8.0 when each fresh
        symbol product is inverted in place and each symbol is built in
        one array, 10.0 when `_Spectrum.inv` and `.samples` copied the
        buffers they had just allocated."""
        cfg = theorem_suite_configs()["energy"]
        g, u = cfg.grid, build_initial_data(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UntrustedFieldWarning)
            tracemalloc.start()
            x_norm(u, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak <= 9.0 * g.nx * (g.ny // 2 + 1) * 16

    def test_zero_field(self, grid):
        rep = x_norm(RealField(grid, np.zeros(grid.shape), 0.0), 0.0)
        assert rep.l2 == rep.uxxx == rep.ly2dxu == rep.s0u == rep.total == 0.0

    def test_time_zero_components(self, grid, rng):
        u = localized_random(grid, rng)
        rep = x_norm(u, 0.0)
        ux = derivative(u, dx_order=1)
        uy = derivative(u, dy_order=1)
        assert rep.l2 == pytest.approx(l2_norm(u), rel=1e-13)
        assert rep.uxxx == pytest.approx(l2_norm(derivative(u, dx_order=3)), rel=1e-13)
        y2ux = RealField(grid, grid.YA**2 * ux.samples, 0.0)
        assert rep.ly2dxu == pytest.approx(l2_norm(y2ux), rel=1e-12)
        s0 = RealField(grid, grid.XA * ux.samples + grid.YA * uy.samples, 0.0)
        assert rep.s0u == pytest.approx(l2_norm(s0), rel=1e-12)
        assert rep.total == pytest.approx(
            np.sqrt(rep.l2**2 + rep.uxxx**2 + rep.ly2dxu**2 + rep.s0u**2))

    def test_quadrature_oracle(self):
        # u = eps * dx(exp(-x^2 - y^2) cos 3x): tensor structure gives the
        # X-norm components as products of dense 1-d quadratures
        eps = 0.1
        g = Grid2D(256, 256, 40.0, 40.0, 0.0, 0.0)
        u = RealField(g, eps * (np.exp(-g.XA**2 - g.YA**2) * (
            -2 * g.XA * np.cos(3 * g.XA) - 3 * np.sin(3 * g.XA))), 0.0)
        rep = x_norm(project_field(u), 0.0)

        x = np.linspace(-12.0, 12.0, 240001)
        dx = x[1] - x[0]
        h = np.exp(-x**2 + 3j * x)
        # f^{(n)} = Re(p_n(x) h), p_{n+1} = p_n' + (-2x + 3i) p_n
        p = np.array([1.0 + 0j])
        fs = []
        for _ in range(5):
            fs.append(np.real(np.polyval(p, x) * h))
            p = np.polyadd(np.polyadd(np.polyder(p),
                                      np.concatenate([-2.0 * p, [0.0]])), 3j * p)
        f1, f2, f4 = fs[1], fs[2], fs[4]
        gy = np.exp(-x**2)
        gyp = -2 * x * gy

        def q(v):
            return float(np.trapezoid(v, dx=dx))

        l2 = eps * np.sqrt(q(f1**2) * q(gy**2))
        uxxx = eps * np.sqrt(q(f4**2) * q(gy**2))
        ly2dxu = eps * np.sqrt(q(f2**2) * q(x**4 * gy**2))
        s0u = eps * np.sqrt(q(x**2 * f2**2) * q(gy**2)
                            + 2 * q(x * f2 * f1) * q(x * gy * gyp)
                            + q(f1**2) * q(x**2 * gyp**2))
        total = np.sqrt(l2**2 + uxxx**2 + ly2dxu**2 + s0u**2)
        assert rep.total == pytest.approx(total, rel=1e-8)


class TestDynamicIdentities:
    """Identities along a nonlinear background, verified by finite
    differences in time restricted to the central half-box (the coordinate
    weights are only meaningful away from the periodic seam)."""

    @classmethod
    def setup_class(cls):
        g = Grid2D(512, 256, 160.0, 80.0, 0.0, 0.0)
        cls.g = g
        u0 = gaussian_field(g, amp=0.05, sx=3.0, sy=3.0, kx=1.0)
        cls.dt = 0.005
        cls.t0 = 0.2
        cls.traj = evolve(u0, SolverConfig(dt=cls.dt, t0=0.0,
                                           t_end=cls.t0 + 2 * cls.dt))
        cls.inner = (np.abs(g.XC) <= g.Lx / 4) & (np.abs(g.YC) <= g.Ly / 4)

    def _central_norm(self, arr):
        g = self.g
        return float(np.sqrt(g.hx * g.hy * np.sum(arr[self.inner] ** 2)))

    @staticmethod
    def _u_t(u):
        lin = (-derivative(u, dx_order=3).samples
               + derivative(u, dx_order=-1, dy_order=2).samples)
        return lin + nonlinear_term(u).samples

    def test_scaling_generator_solves_linearized(self):
        # w = 3t u_t + x u_x + 2y u_y + 2u satisfies
        # w_t + w_xxx - dx^{-1} w_yy + (uw)_x = 0
        g, t0, h = self.g, self.t0, self.dt
        ts = [t0 - h, t0, t0 + h]
        us = [self.traj.field_at(t) for t in ts]

        def Su(u, t):
            return RealField(g, 3 * t * self._u_t(u)
                             + g.XA * derivative(u, dx_order=1).samples
                             + 2 * g.YA * derivative(u, dy_order=1).samples
                             + 2 * u.samples, t)

        ws = [Su(u, t) for u, t in zip(us, ts)]
        wdot = (ws[2].samples - ws[0].samples) / (2 * h)
        w, u = ws[1], us[1]
        uw = RealField(g, u.samples * w.samples, t0)
        resid = (wdot + derivative(w, dx_order=3).samples
                 - derivative(w, dx_order=-1, dy_order=2).samples
                 + derivative(uw, dx_order=1).samples)
        scale = max(self._central_norm(wdot),
                    self._central_norm(derivative(w, dx_order=3).samples))
        assert self._central_norm(resid) < 2e-3 * scale

    def test_modified_variable_identity(self):
        # w = S0 u - t u u_x satisfies L w = -(uw)_x + 6t (u_x u_xx)_x
        g, t0, h = self.g, self.t0, self.dt
        ts = [t0 - h, t0, t0 + h]
        us = [self.traj.field_at(t) for t in ts]

        def wmod(u, t):
            s0 = apply_vector_field(VectorFieldId("S0", t), u).samples
            ux = derivative(u, dx_order=1).samples
            return RealField(g, s0 - t * u.samples * ux, t)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UntrustedFieldWarning)
            ws = [wmod(u, t) for u, t in zip(us, ts)]
        wdot = (ws[2].samples - ws[0].samples) / (2 * h)
        w, u = ws[1], us[1]
        uw = RealField(g, u.samples * w.samples, t0)
        ux = derivative(u, dx_order=1).samples
        uxx = derivative(u, dx_order=2).samples
        lhs = (wdot + derivative(w, dx_order=3).samples
               - derivative(w, dx_order=-1, dy_order=2).samples)
        rhs = (-derivative(uw, dx_order=1).samples
               + 6 * t0 * derivative(RealField(g, ux * uxx, t0), dx_order=1).samples)
        scale = max(self._central_norm(wdot),
                    self._central_norm(derivative(w, dx_order=3).samples))
        assert self._central_norm(lhs - rhs) < 2e-3 * scale


class TestAnisotropicSobolev:
    def test_scaling_invariance(self):
        # the ratio is exactly covariant under f(x, y) -> f(a x, b y)
        vals = []
        for (a, b) in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
            g = Grid2D(128, 128, 40.0 / a, 40.0 / b, 0.0, 0.0)
            f = RealField(g, np.exp(-(a * g.XA) ** 2 - (b * g.YA) ** 2), 0.0)
            vals.append(check_anisotropic_sobolev(f))
        assert max(vals) - min(vals) < 1e-10 * vals[0]

    def test_gaussian_family_bounded(self, rng):
        g = Grid2D(128, 128, 40.0, 40.0, 0.0, 0.0)
        vals = []
        for _ in range(20):
            a, b = rng.uniform(0.5, 2.0, 2)
            f = RealField(g, np.exp(-(a * g.XA) ** 2 - (b * g.YA) ** 2), 0.0)
            vals.append(check_anisotropic_sobolev(f))
        # anisotropic Gaussians are all rescalings of one profile
        assert max(vals) < 1.01 * min(vals)

    def test_sharp_bump_stress(self):
        gauss_val = None
        for n in (256, 512, 1024):
            g = Grid2D(n, n, 40.0, 40.0, 0.0, 0.0)
            if gauss_val is None:
                ref = RealField(g, np.exp(-g.XA**2 - g.YA**2), 0.0)
                gauss_val = check_anisotropic_sobolev(ref)
            wx = 0.5 * (1.0 + np.tanh((2.0 - np.abs(g.XA)) / 0.05))
            wy = 0.5 * (1.0 + np.tanh((2.0 - np.abs(g.YA)) / 0.05))
            sharp = RealField(g, wx * wy, 0.0)
            ratio = check_anisotropic_sobolev(sharp)
            assert np.isfinite(ratio)
            assert ratio < 10 * gauss_val

    def test_zero_field_rejected(self, grid):
        with pytest.raises(InvalidInputError):
            check_anisotropic_sobolev(RealField(grid, np.zeros(grid.shape), 0.0))


class TestInterpolationLySobolev:
    BASELINE_GRID = (128, 64, 40.0, 20.0)

    def _baseline(self):
        g = Grid2D(*self.BASELINE_GRID, 0.0, 0.0)
        u = gaussian_field(g, amp=1.0, sx=1.5, sy=1.5, kx=1.0)
        return check_interpolation_LySobolev(u, 1.0), g

    def test_baseline_finite(self):
        ratio, _ = self._baseline()
        assert np.isfinite(ratio) and ratio > 0

    def test_rescaled_family_bounded(self):
        base, _ = self._baseline()
        for lam in (0.5, 1.0, 2.0):
            g = Grid2D(128, 64, 40.0 / lam, 20.0 / lam**2, 0.0, 0.0)
            X, Y = g.XA, g.YA
            env = np.exp(-(lam * X) ** 2 / 2.25 - (lam**2 * Y) ** 2 / 2.25)
            samples = lam**2 * (-2 * (lam * X) / 2.25 * np.cos(lam * X)
                                - np.sin(lam * X)) * env
            u = project_field(RealField(g, samples, 0.0))
            ratio = check_interpolation_LySobolev(u, 1.0 / lam**3)
            assert ratio < 4 * base

    def test_random_fields_bounded(self, rng):
        base, g = self._baseline()
        for _ in range(50):
            u = localized_random(g, rng)
            ratio = check_interpolation_LySobolev(u, 1.0)
            assert ratio < 4 * base

    def test_time_zero_rejected(self, grid, rng):
        with pytest.raises(DomainError):
            check_interpolation_LySobolev(localized_random(grid, rng), 0.0)
