"""Linear propagator, IFRK4 stepping, linearized flow, and symmetries."""

import math

import numpy as np
import pytest

from kpwave.errors import DomainError, InvalidInputError, StepFailureError
from kpwave.evolution import (
    BackgroundInterpolator,
    SolverConfig,
    Trajectory,
    apply_symmetry,
    evolve,
    evolve_linearized,
    galilean_fourier_map,
    linear_propagate,
    nonlinear_term,
    step_linearized,
    step_nonlinear,
)
from kpwave.grids import (
    Grid2D,
    RealField,
    SpectralField,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    l2_norm,
    multiplier_dx,
    multiplier_dy,
    project_field,
    spectral_l2_norm,
    sup_norm,
)
from kpwave.vfields import derivative, sup_norm as _unused_sup  # noqa: F401

from conftest import gaussian_field, random_field, random_spectral


def _linear_part(u):
    """dx^3 u - dx^{-1} dy^2 u."""
    return (derivative(u, dx_order=3).samples
            - derivative(u, dx_order=-1, dy_order=2).samples)


class TestLinearPropagate:
    def test_dt_zero_identity(self, grid, rng):
        F = random_spectral(grid, rng)
        out = linear_propagate(F, 0.0)
        assert np.array_equal(out.coeffs, F.coeffs)

    def test_group_property_and_unitarity(self, grid, rng):
        F = random_spectral(grid, rng)
        one = linear_propagate(linear_propagate(F, 0.7), 1.6)
        two = linear_propagate(F, 2.3)
        scale = np.abs(F.coeffs).max()
        assert np.abs(one.coeffs - two.coeffs).max() < 1e-13 * scale
        assert abs(spectral_l2_norm(one) - spectral_l2_norm(F)) < 1e-13 * spectral_l2_norm(F)

    def test_plane_wave_residual(self):
        # a single mode must solve d_t u + u_xxx - dx^{-1} u_yy = 0
        g = Grid2D(64, 32, 2 * np.pi * 4, 2 * np.pi * 2, 0.0, 0.0)
        k = 2 * np.pi / g.Lx * 4          # xi = 1
        l = 2 * np.pi / g.Ly * 2          # eta = 1
        u0 = RealField(g, np.cos(k * g.XA + l * g.YA), 0.0)
        F = forward_transform(u0)
        h = 3e-5
        up = inverse_transform(linear_propagate(F, h))
        um = inverse_transform(linear_propagate(F, -h))
        dtu = (up.samples - um.samples) / (2 * h)
        resid = dtu + _linear_part(u0)
        assert np.abs(resid).max() < 1e-8

    def test_requires_projected(self, grid):
        c = np.zeros(grid.shape, complex)
        c[0, 1] = c[0, -1] = 1.0
        with pytest.raises(InvalidInputError):
            linear_propagate(SpectralField(grid, c, 0.0), 1.0)


class TestNonlinearTerm:
    def test_zero(self, grid):
        out = nonlinear_term(RealField(grid, np.zeros(grid.shape), 0.0))
        assert np.all(out.samples == 0)

    def test_cosine_hand_expansion(self):
        # -dx(cos^2(x)/2) = sin(2x)/2
        g = Grid2D(32, 8, 2 * np.pi, 2 * np.pi, 0.0, 0.0)
        u = RealField(g, np.cos(g.XA), 0.0)
        out = nonlinear_term(u)
        assert np.abs(out.samples - np.sin(2 * g.XA) / 2).max() < 1e-13

    def test_zero_mean_output(self, grid, rng):
        out = nonlinear_term(random_field(grid, rng))
        assert abs(out.samples.mean(axis=0)).max() < 1e-13


class TestStepNonlinear:
    def test_zero_amplitude_matches_linear(self, grid):
        F = SpectralField(grid, np.zeros(grid.shape, complex), 0.0)
        out = step_nonlinear(F, 0.1)
        assert np.array_equal(out.coeffs, linear_propagate(F, 0.1).coeffs)

    def test_richardson_self_convergence(self):
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        u0 = gaussian_field(g, amp=0.5, sx=2.0, sy=2.0, kx=1.0)
        T = 0.5
        sols = []
        for dt in (0.0125, 0.00625, 0.003125):
            traj = evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T))
            sols.append(traj.snapshots[-1].samples)
        e1 = np.sqrt(np.mean((sols[0] - sols[1]) ** 2))
        e2 = np.sqrt(np.mean((sols[1] - sols[2]) ** 2))
        order = math.log2(e1 / e2)
        assert order >= 3.8

    def test_l2_conservation(self):
        g = Grid2D(128, 32, 64.0, 32.0, 0.0, 0.0)
        u0 = gaussian_field(g, amp=0.05, sx=4.0, sy=4.0, kx=1.0)
        traj = evolve(u0, SolverConfig(dt=0.02, t0=0.0, t_end=10.0,
                                       snapshot_stride=100))
        n0 = l2_norm(traj.snapshots[0])
        for s in traj.snapshots[1:]:
            assert abs(l2_norm(s) - n0) < 1e-10 * n0

    def test_blowup_guard(self):
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        u0 = gaussian_field(g, amp=300.0, sx=2.0, sy=2.0, kx=1.0)
        with pytest.raises(StepFailureError, match=r"at step \d+ \(t=.*grew by a factor"):
            evolve(u0, SolverConfig(dt=0.5, t0=0.0, t_end=50.0))


class TestExactTimes:
    """A stepping run refuses times it cannot reach in whole steps."""

    def _runs(self, g):
        u0 = gaussian_field(g, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
        bg = evolve(u0, SolverConfig(dt=0.01, t0=0.0, t_end=1.0, snapshot_stride=10))
        return (lambda cfg, times=None: evolve(u0, cfg, times),
                lambda cfg, times=None: evolve_linearized(u0, bg, cfg, times))

    def test_incommensurate_t_end_refused(self, grid):
        for run in self._runs(grid):
            with pytest.raises(InvalidInputError, match=r"t_end t=1\.0 .*dt=0\.03"):
                run(SolverConfig(dt=0.03, t0=0.0, t_end=1.0))

    def test_off_lattice_snapshot_refused(self, grid):
        for run in self._runs(grid):
            with pytest.raises(InvalidInputError, match=r"t=0\.5 .*dt=0\.03"):
                run(SolverConfig(dt=0.03, t0=0.0, t_end=0.99), [0.0, 0.5])

    def test_snapshot_beyond_t_end_refused(self, grid):
        for run in self._runs(grid):
            with pytest.raises(InvalidInputError, match=r"t=1\.2 .*dt=0\.05"):
                run(SolverConfig(dt=0.05, t0=0.0, t_end=1.0), [0.5, 1.2])

    def test_lattice_times_are_hit_exactly(self, grid):
        for run in self._runs(grid):
            traj = run(SolverConfig(dt=0.03, t0=0.0, t_end=0.99), [0.99, 0.51, 0.0])
            assert np.allclose(traj.times, [0.0, 0.51, 0.99], rtol=0, atol=1e-12)
            assert traj.field_at(0.51).time_tag == 17 * 0.03

    def test_linear_jump_takes_any_time(self, grid):
        u0 = gaussian_field(grid, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
        traj = evolve(u0, SolverConfig(dt=0.03, t0=0.0, t_end=1.0), [0.5], linear=True)
        assert list(traj.times) == [0.0, 0.5, 1.0]


class TestLinearized:
    def _background(self, g, amp=0.05, T=2.0, dt=0.005):
        u0 = gaussian_field(g, amp=amp, sx=2.0, sy=2.0, kx=1.0)
        return evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T))

    def test_zero_background_is_linear(self, grid, rng):
        zero = RealField(grid, np.zeros(grid.shape), 0.0)
        zeroT = RealField(grid, np.zeros(grid.shape), 1.0)
        bg = Trajectory([zero, zeroT])
        W = random_spectral(grid, rng)
        out = step_linearized(W, bg, 0.5)
        ref = linear_propagate(W, 0.5)
        scale = np.abs(W.coeffs).max()
        assert np.abs(out.coeffs - ref.coeffs).max() < 1e-13 * scale

    def test_translation_symmetry(self):
        # w = dx u is an exact solution of the linearized equation
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        bg = self._background(g)
        w0 = derivative(bg.snapshots[0], dx_order=1)
        traj = evolve_linearized(w0, bg, SolverConfig(dt=0.005, t0=0.0, t_end=2.0,
                                                      snapshot_stride=100))
        wT = traj.snapshots[-1]
        ref = derivative(bg.field_at(2.0), dx_order=1)
        assert l2_norm(RealField(g, wT.samples - ref.samples, 2.0)) < 1e-8 * l2_norm(ref)

    def test_gronwall_inequality(self, rng):
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        bg = self._background(g)
        w0 = random_field(g, rng)
        dt = 0.02
        traj = evolve_linearized(w0, bg, SolverConfig(dt=dt, t0=0.0, t_end=2.0,
                                                      snapshot_stride=10))
        for a, b in zip(traj.snapshots, traj.snapshots[1:]):
            tm = 0.5 * (a.time_tag + b.time_tag)
            d_sq = (l2_norm(b) ** 2 - l2_norm(a) ** 2) / (b.time_tag - a.time_tag)
            u = bg.field_at(bg.nearest_time(tm), tol=1.0)
            bound = sup_norm(derivative(u, dx_order=1)) * (0.5 * (l2_norm(a) ** 2 + l2_norm(b) ** 2))
            assert d_sq <= bound + 1e-6

    def test_background_evaluated_once_per_distinct_time(self, monkeypatch):
        # a step needs the background at t, t + dt/2 and t + dt, and t + dt
        # is the next step's t: 2n + 1 evaluations for n steps
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        bg = self._background(g, T=0.6, dt=0.05)
        calls = []
        samples_at = BackgroundInterpolator.samples_at
        monkeypatch.setattr(BackgroundInterpolator, "samples_at",
                            lambda self, t: calls.append(t) or samples_at(self, t))
        w0 = derivative(bg.snapshots[0], dx_order=1)
        evolve_linearized(w0, bg, SolverConfig(dt=0.05, t0=0.0, t_end=0.5))
        assert len(calls) == 21

    def test_background_gap_rejected(self, grid, rng):
        zero = RealField(grid, np.zeros(grid.shape), 0.0)
        zeroT = RealField(grid, np.zeros(grid.shape), 0.5)
        bg = Trajectory([zero, zeroT])
        with pytest.raises(DomainError):
            step_linearized(random_spectral(grid, rng), bg, 2.0)


class TestSymmetries:
    def test_identity_parameters(self, ufield):
        same = apply_symmetry(ufield, "scaling", 1.0)
        assert np.allclose(same.samples, ufield.samples, atol=0)
        same = apply_symmetry(ufield, "galilean", 0.0)
        assert np.abs(same.samples - ufield.samples).max() < 1e-13

    def test_galilean_fourier_formula(self):
        # hat u_c(t, xi, eta) = hat u(t, xi, eta + c xi) e^{-i c^2 t xi} e^{-2 i c t eta}
        g = Grid2D(32, 32, 10.0, 20.0, 0.0, 0.0)
        c = 0.5  # c * Ly = Lx: admissible
        rng = np.random.default_rng(5)
        F = random_spectral(g, rng)
        Fc = SpectralField(g, F.coeffs, 1.25)
        out = galilean_fourier_map(Fc, c)
        deta = 2 * np.pi / g.Ly
        for (j, k) in [(1, 2), (3, -4), (-2, 5), (5, 0)]:
            xi, eta = g.XI[j, k], g.ETA[j, k]
            shift = int(round(c * xi / deta))
            src = F.coeffs[j, (k + shift) % g.ny]
            want = src * np.exp(-1j * c * c * 1.25 * xi) * np.exp(-2j * c * 1.25 * eta)
            assert abs(out.coeffs[j, k] - want) < 1e-10

    def test_galilean_commutes_with_flow(self):
        g = Grid2D(64, 96, 10.0, 20.0, 0.0, 0.0)
        c = 0.5
        # datum kept well inside the dealias band in both frames: the sheared
        # and unsheared products must see identical masks
        u0 = gaussian_field(g, amp=0.01, sx=2.0, sy=2.5, kx=1.5)
        T, dt = 0.5, 0.005
        ev_then_tr = apply_symmetry(
            evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1],
            "galilean", c)
        u0c = apply_symmetry(u0, "galilean", c)
        tr_then_ev = evolve(u0c, SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1]
        diff = l2_norm(RealField(g, ev_then_tr.samples - tr_then_ev.samples, T))
        assert diff < 1e-6 * l2_norm(tr_then_ev)

    def test_scaling_commutes_with_flow(self):
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        lam = 2.0
        u0 = gaussian_field(g, amp=0.2, sx=2.0, sy=2.0, kx=1.0)
        T, dt = 0.4, 0.004
        uT = evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1]
        ev_then_tr = apply_symmetry(uT, "scaling", lam)
        u0s = apply_symmetry(u0, "scaling", lam)
        tr_then_ev = evolve(
            RealField(u0s.grid, u0s.samples, 0.0),
            SolverConfig(dt=dt / lam**3, t0=0.0, t_end=T / lam**3)).snapshots[-1]
        assert ev_then_tr.grid == tr_then_ev.grid
        diff = l2_norm(RealField(u0s.grid, ev_then_tr.samples - tr_then_ev.samples, 0.0))
        assert diff < 1e-6 * l2_norm(tr_then_ev)

    def test_reversal_symmetry(self):
        # u(-t, -x, y) solves the equation: running the reflected final state
        # forward returns the reflected initial state
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        u0 = gaussian_field(g, amp=0.2, sx=2.0, sy=2.0, kx=1.0)
        T, dt = 0.5, 0.005
        uT = evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1]
        back = evolve(apply_symmetry(uT, "reversal"),
                      SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1]
        ref = apply_symmetry(u0, "reversal")
        diff = l2_norm(RealField(g, back.samples - ref.samples, 0.0))
        assert diff < 1e-8 * l2_norm(u0)

    def test_inadmissible_galilean_rejected(self, ufield):
        with pytest.raises(DomainError):
            apply_symmetry(ufield, "galilean", 0.123)


class TestTrajectoryIO:
    def test_save_load_round_trip(self, grid, rng, tmp_path):
        snaps = [RealField(grid, random_field(grid, rng).samples, float(t))
                 for t in (0.0, 1.0, 2.0)]
        traj = Trajectory(snaps, SolverConfig(dt=1.0, t0=0.0, t_end=2.0))
        traj.save(tmp_path / "run")
        back = Trajectory.load(tmp_path / "run")
        assert list(back.times) == [0.0, 1.0, 2.0]
        for a, b in zip(back.snapshots, snaps):
            assert np.array_equal(a.samples, b.samples)
        assert back.config == traj.config

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(dt=-0.1, t0=0.0, t_end=1.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(dt=0.1, t0=1.0, t_end=0.0)
        with pytest.raises(InvalidInputError):
            SolverConfig(dt=2.0, t0=0.0, t_end=1.0)
