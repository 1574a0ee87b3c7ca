"""Moving-band projection, the quadratic correction, and scattering data."""

import tracemalloc

import numpy as np
import pytest

from kpwave.errors import DomainError, InvalidInputError
from kpwave.evolution import SolverConfig, Trajectory, evolve
from kpwave.grids import ComplexField, Grid2D, RealField, l2_norm
from kpwave.scattering import (
    BandProjection,
    ScatterReport,
    band_project,
    compute_umod,
    extract_scatter_data,
    scattering_residuals,
)

from conftest import gaussian_field, random_field


class TestBandProjection:
    def test_edges_at_t64(self):
        bp = BandProjection(64.0)
        assert bp.lower == pytest.approx(2.0 ** -0.5, rel=1e-14)
        assert bp.upper == pytest.approx(2.0 ** 0.5, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            BandProjection(0.5)

    def test_in_band_field_is_fixed(self, grid):
        bp = BandProjection(16.0)
        k = 2 * np.pi / grid.Lx * 3  # |xi| = 0.94 inside [0.79, 1.26]
        assert bp.lower < k < bp.upper
        u = RealField(grid, np.cos(k * grid.XA), 16.0)
        w, w_plus = band_project(u, bp)
        assert np.abs(w.samples - u.samples).max() < 1e-13
        assert np.abs(2 * w_plus.samples.real - u.samples).max() < 1e-13

    def test_out_of_band_field_is_killed(self, grid):
        bp = BandProjection(16.0)
        k = 2 * np.pi / grid.Lx * 8  # |xi| = 2.5 above the band
        u = RealField(grid, np.cos(k * grid.XA), 16.0)
        w, w_plus = band_project(u, bp)
        assert np.abs(w.samples).max() < 1e-15
        assert np.abs(w_plus.samples).max() < 1e-15

    def test_idempotent(self, grid, rng):
        bp = BandProjection(16.0)
        u = random_field(grid, rng)
        u = RealField(grid, u.samples, 16.0)
        w1, _ = band_project(u, bp)
        w2, _ = band_project(w1, bp)
        scale = np.abs(w1.samples).max()
        assert np.abs(w2.samples - w1.samples).max() < 1e-13 * scale

    def test_requires_projection(self, grid):
        u = RealField(grid, 1.0 + 0.0 * grid.XA, 4.0)
        with pytest.raises(InvalidInputError):
            band_project(u, BandProjection(4.0))

    def test_empty_band_rejected(self, grid):
        # at t slightly above 1 the band is narrower than the lattice spacing
        u = RealField(grid, np.cos(2 * np.pi / grid.Lx * 3 * grid.XA), 0.0)
        with pytest.raises(DomainError):
            band_project(u, BandProjection(1.0))


class TestComputeUmod:
    def test_zero_input(self, grid):
        w = ComplexField(grid, np.zeros(grid.shape, complex), 4.0)
        out = compute_umod(w, lower=0.5)
        assert np.all(out.samples == 0)

    def test_single_mode_closed_form(self):
        # w+ = e^{i(xi0 x + eta0 y)}:
        # (8/3) dx^{-3} Re(w+ w+_x) = -(1/(3 xi0^2)) cos(2(xi0 x + eta0 y))
        g = Grid2D(64, 32, 4 * np.pi, 4 * np.pi, 0.0, 0.0)
        xi0, eta0 = 1.0, 0.5
        w = ComplexField(g, np.exp(1j * (xi0 * g.XA + eta0 * g.YA)), 4.0)
        out = compute_umod(w, lower=xi0)
        exact = -np.cos(2 * (xi0 * g.XA + eta0 * g.YA)) / (3 * xi0**2)
        assert np.abs(out.samples - exact).max() < 1e-12

    def test_translation_commutes(self, grid, rng):
        bp = BandProjection(16.0)
        u = RealField(grid, random_field(grid, rng).samples, 16.0)
        _, w_plus = band_project(u, bp)
        shift = 7
        shifted = ComplexField(grid, np.roll(w_plus.samples, shift, axis=0), 16.0)
        a = np.roll(compute_umod(w_plus, bp.lower).samples, shift, axis=0)
        b = compute_umod(shifted, bp.lower).samples
        assert np.abs(a - b).max() < 1e-12 * max(np.abs(a).max(), 1e-300)

    def test_low_content_rejected(self, grid):
        k = 2 * np.pi / grid.Lx * 3
        w = ComplexField(grid, np.exp(1j * k * grid.XA), 4.0)
        with pytest.raises(InvalidInputError):
            compute_umod(w, lower=2 * k)  # claims content only above 4k


class TestScatterReport:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            ScatterReport(4.0, np.nan, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            ScatterReport(4.0, 0.0, -1.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def zero_traj():
    # wide box: the moving band at t = 2 is narrow and must contain a
    # lattice x-frequency
    g = Grid2D(64, 32, 120.0, 10.0, 0.0, 0.0)
    u0 = RealField(g, np.zeros(g.shape), 0.0)
    return evolve(u0, SolverConfig(dt=0.5, t0=0.0, t_end=5.0),
                  snapshot_times=[2.0, 3.0, 4.0])


@pytest.fixture(scope="module")
def nonlinear_traj():
    g = Grid2D(256, 64, 128.0, 64.0, 0.0, 0.0)
    u0 = gaussian_field(g, amp=0.05, sx=8.0, sy=6.0, kx=1.0)
    return evolve(u0, SolverConfig(dt=0.025, t0=0.0, t_end=40.0),
                  snapshot_times=[0.0, 2.5, 5.0, 10.0, 20.0, 40.0])


class TestScatteringResiduals:
    def test_zero_solution(self, zero_traj):
        rep = scattering_residuals(zero_traj, 3.0)
        assert rep.umod_l2 == 0.0
        assert rep.scat_helper_residual == 0.0
        assert rep.modscat_residual == 0.0
        assert rep.back_propagated_data_drift == 0.0

    def test_missing_snapshot(self, zero_traj):
        with pytest.raises(DomainError):
            scattering_residuals(zero_traj, 3.3)

    def test_needs_bracketing(self, zero_traj):
        with pytest.raises(InvalidInputError):
            scattering_residuals(zero_traj, 2.0)


class TestExtractScatterData:
    def test_linear_trajectory_is_exact(self, grid, rng):
        u0 = random_field(grid, rng)
        traj = evolve(u0, SolverConfig(dt=1.0, t0=0.0, t_end=8.0),
                      snapshot_times=[0.0, 2.0, 4.0, 8.0], linear=True)
        u_sc, drifts = extract_scatter_data(traj, min_fraction=0.1)
        assert all(d < 1e-13 for _, d in drifts)
        assert np.abs(u_sc.samples - u0.samples).max() < 1e-13

    def test_nonlinear_drift_decays(self, nonlinear_traj):
        u_sc, drifts = extract_scatter_data(nonlinear_traj, min_fraction=0.1)
        vals = [d for _, d in drifts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_back_propagation_unitarity(self, nonlinear_traj):
        u_sc, _ = extract_scatter_data(nonlinear_traj, min_fraction=0.1)
        late = nonlinear_traj.snapshots[-1]
        assert abs(l2_norm(u_sc) - l2_norm(late)) < 1e-10 * l2_norm(late)

    def test_peak_memory_does_not_grow_with_late_snapshots(self, rng):
        g = Grid2D(256, 64, 64.0, 32.0)
        u0 = random_field(g, rng)

        def peak(n):
            traj = evolve(u0, SolverConfig(dt=1.0, t0=0.0, t_end=float(n)),
                          snapshot_times=[float(k) for k in range(n + 1)], linear=True)
            tracemalloc.start()
            extract_scatter_data(traj, min_fraction=0.0)
            out = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return out
        assert peak(24) < 1.2 * peak(3)

    def test_unprojected_snapshot_refused(self, grid, rng):
        traj = Trajectory([RealField(grid, rng.standard_normal(grid.shape), t)
                           for t in (1.0, 2.0)])
        with pytest.raises(InvalidInputError, match="projected"):
            extract_scatter_data(traj)

    def test_too_few_snapshots(self, grid, rng):
        u0 = random_field(grid, rng)
        traj = evolve(u0, SolverConfig(dt=1.0, t0=0.0, t_end=8.0),
                      snapshot_times=[0.0, 8.0], linear=True)
        with pytest.raises(InvalidInputError):
            extract_scatter_data(traj, min_fraction=0.9)
