"""Linear propagator, IFRK4 stepping, linearized flow, and symmetries."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from kpwave.errors import DomainError, InvalidInputError, StepFailureError
from kpwave.evolution import (
    BackgroundInterpolator,
    SolverConfig,
    Trajectory,
    _schedule,
    _Workspace,
    apply_symmetry,
    evolve,
    evolve_linearized,
    galilean_fourier_map,
    linear_propagate,
    nonlinear_term,
    snapshot_index,
    step_linearized,
    step_nonlinear,
)
from kpwave.grids import (
    Grid2D,
    RealField,
    SpectralField,
    apply_multiplier,
    forward_transform,
    half_l2_squared,
    hermitian_defect,
    ingest,
    inverse_transform,
    l2_norm,
    multiplier_dx,
    multiplier_dy,
    omega_values,
    project_field,
    spectral_l2_norm,
    sup_norm,
)
from kpwave.decompose import split_sign_frequencies
from kpwave.scattering import BandProjection, band_project, extract_scatter_data
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


class TestZeroXModeRefusal:
    """Every entry that needs 1/dx refuses a field with an x-mean, through
    one check."""

    ENTRIES = {
        "linear_propagate": lambda u: linear_propagate(forward_transform(u), 1.0),
        "nonlinear_term": nonlinear_term,
        "step_nonlinear": lambda u: step_nonlinear(forward_transform(u), 0.1),
        "step_linearized": lambda u: step_linearized(forward_transform(u), Trajectory(
            [RealField(u.grid, np.zeros(u.grid.shape), t) for t in (0.0, 1.0)]), 0.1),
        "split_sign_frequencies": split_sign_frequencies,
        "band_project": lambda u: band_project(u, BandProjection(16.0)),
        "extract_scatter_data": lambda u: extract_scatter_data(
            Trajectory([RealField(u.grid, u.samples, t) for t in (1.0, 2.0)])),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_refused(self, grid, rng, entry):
        u = random_field(grid, rng)
        u = RealField(grid, u.samples + 0.1 * np.cos(2 * np.pi * grid.YA / grid.Ly), 0.0)
        with pytest.raises(InvalidInputError, match="field must be zero-x-mode projected"):
            self.ENTRIES[entry](u)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_step_nonlinear_refuses_a_step_that_is_not_positive(self, grid, rng, dt):
        with pytest.raises(InvalidInputError, match="dt must be positive"):
            step_nonlinear(random_spectral(grid, rng), dt)


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

    @pytest.mark.parametrize("nsteps, stride", [(10, 1), (10, 3), (9, 3), (1, 5)])
    def test_default_snapshot_steps(self, nsteps, stride):
        cfg = SolverConfig(dt=0.5, t0=1.0, t_end=1.0 + 0.5 * nsteps, snapshot_stride=stride)
        sched = _schedule(cfg, None)
        assert sched.last == nsteps
        assert ([i for i in range(nsteps + 1) if i in sched]
                == list(sched) == sorted({*range(0, nsteps + 1, stride), nsteps}))

    def test_default_snapshot_steps_are_not_listed(self):
        cfg = SolverConfig(dt=1.0, t0=0.0, t_end=1e6, snapshot_stride=7)
        tracemalloc.start()
        sched = _schedule(cfg, None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sched.last == 10**6 and peak < 2**20
        assert all(i in sched for i in (0, 7, 999_999, 10**6))
        assert 8 not in sched and 10**6 + 7 not in sched

    def test_a_run_ends_at_its_last_requested_time(self, monkeypatch):
        # stepping on to t_end would take 99 steps that no snapshot keeps
        times, advance = [], _Workspace.advance
        monkeypatch.setattr(_Workspace, "advance",
                            lambda ws, coeffs, t, *a: times.append(t) or advance(ws, coeffs, t, *a))
        g, cfg = Grid2D(64, 32, 40.0, 20.0, 0.0, 0.0), SolverConfig(dt=0.1, t0=0.0, t_end=10.0)
        assert _schedule(cfg, [0.0, 0.1]).last == 1
        traj = evolve(RealField(g, np.zeros(g.shape), 0.0), cfg, snapshot_times=[0.0, 0.1])
        assert list(traj.times) == [0.0, 0.1] and times == [0.0]

    @pytest.mark.parametrize("dt, t_end, steps", [(1e-10, 1e10, "1e+20"), (1e-300, 1e300, "inf")])
    def test_a_run_too_long_to_index_names_its_step_count(self, dt, t_end, steps):
        with pytest.raises(InvalidInputError, match=re.escape(f"takes {steps} steps of dt={dt}")):
            _schedule(SolverConfig(dt=dt, t0=0.0, t_end=t_end), None)

    def test_linear_jump_takes_any_time(self, grid):
        u0 = gaussian_field(grid, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
        traj = evolve(u0, SolverConfig(dt=0.03, t0=0.0, t_end=1.0), [0.5], linear=True)
        assert list(traj.times) == [0.0, 0.5, 1.0]

    def test_linear_jump_names_t_end_within_the_tolerance(self, grid):
        # 5e-13 is 5e-12 steps of dt past t_end: that time names t_end
        u0 = gaussian_field(grid, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
        traj = evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=5.0), [5.0 + 5e-13, 2.0],
                      linear=True)
        assert list(traj.times) == [0.0, 2.0, 5.0]
        assert traj.field_at(5.0 + 5e-13) is traj.snapshots[-1]

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_snapshot_time_refused(self, grid, t):
        for run in self._runs(grid):
            with pytest.raises(InvalidInputError, match=rf"snapshot time t={t}"):
                run(SolverConfig(dt=0.05, t0=0.0, t_end=1.0), [0.5, t])

    @pytest.mark.parametrize("t", [3.0, -0.5])
    def test_linear_jump_refuses_times_outside_the_interval(self, grid, t):
        u0 = gaussian_field(grid, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
        with pytest.raises(InvalidInputError, match=rf"t={t}.*t0=0.0, t_end=1.0"):
            evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=1.0), [0.5, t], linear=True)


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

    def test_one_step_blow_up_raises(self, grid, rng):
        u = random_field(grid, rng).samples
        big = 1e4 * u / np.abs(u).max()
        bg = Trajectory([RealField(grid, big, 0.0), RealField(grid, big, 1.0)])
        with pytest.raises(StepFailureError, match=r"at step 1 \(t=0\.5\).*grew by a factor"):
            step_linearized(random_spectral(grid, rng), bg, 0.5)

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
            u = bg.field_at(bg.nearest_time(tm))
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
                            lambda self, t, out=None: calls.append(t) or samples_at(self, t, out))
        w0 = derivative(bg.snapshots[0], dx_order=1)
        evolve_linearized(w0, bg, SolverConfig(dt=0.05, t0=0.0, t_end=0.5))
        assert len(calls) == 21

    def test_background_samples_do_not_depend_on_earlier_calls(self):
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        bg = self._background(g, T=0.6, dt=0.05)
        times = (0.3, 0.125, 0.3, 0.55, 0.125)
        warm = BackgroundInterpolator(bg)
        seen = [warm.samples_at(t) for t in times]
        for t, got in zip(times, seen):
            assert np.array_equal(got, BackgroundInterpolator(bg).samples_at(t))

    def test_background_gap_rejected(self, grid, rng):
        zero = RealField(grid, np.zeros(grid.shape), 0.0)
        zeroT = RealField(grid, np.zeros(grid.shape), 0.5)
        bg = Trajectory([zero, zeroT])
        with pytest.raises(DomainError):
            step_linearized(random_spectral(grid, rng), bg, 2.0)

    def test_background_gap_rejected_before_the_first_step(self, grid, rng, monkeypatch):
        zero = RealField(grid, np.zeros(grid.shape), 0.0)
        bg = Trajectory([zero, RealField(grid, np.zeros(grid.shape), 0.5)])
        calls = []
        samples_at = BackgroundInterpolator.samples_at
        monkeypatch.setattr(BackgroundInterpolator, "samples_at",
                            lambda self, t: calls.append(t) or samples_at(self, t))
        with pytest.raises(DomainError, match="does not cover"):
            evolve_linearized(random_field(grid, rng), bg, SolverConfig(dt=0.1, t0=0.0, t_end=1.0))
        assert calls == []

    def test_background_needs_to_cover_only_the_steps_taken(self, rng, monkeypatch):
        # a run given snapshot times stops at the last of them, whatever t_end
        g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
        bg = self._background(g, T=0.5, dt=0.01)
        w0 = random_field(g, rng)
        got = evolve_linearized(w0, bg, SolverConfig(dt=0.01, t0=0.0, t_end=1.0), [0.0, 0.5])
        ref = evolve_linearized(w0, bg, SolverConfig(dt=0.01, t0=0.0, t_end=0.5), [0.0, 0.5])
        assert list(got.times) == list(ref.times) == [0.0, 0.5]
        assert all(np.array_equal(a.samples, b.samples)
                   for a, b in zip(got.snapshots, ref.snapshots))
        calls = []
        monkeypatch.setattr(BackgroundInterpolator, "samples_at",
                            lambda self, t, out=None: calls.append(t))
        with pytest.raises(DomainError, match=r"does not cover \[t0, 0\.6"):
            evolve_linearized(w0, bg, SolverConfig(dt=0.01, t0=0.0, t_end=1.0), [0.0, 0.6])
        assert calls == []


def _reference_ifrk4(u0, dt, nsteps, background=None):
    """`nsteps` full-spectrum IFRK4 steps from the samples u0 (x-mean
    removed): the flow of -d/dx(u^2/2), or of -d/dx(b*w) for a background
    interpolator b.  Returns the samples at the end."""
    g, n = u0.grid, u0.samples.size
    neg_dx = -multiplier_dx(g).values * g.dealias_mask
    e1 = np.exp(1j * omega_values(g) * (dt / 2))
    e2 = e1 * e1

    def nl(c, t):
        w = (sfft.ifft2(c) * n).real
        w = 0.5 * w * w if background is None else background.samples_at(t) * w
        return neg_dx * sfft.fft2(w) / n

    c = sfft.fft2(u0.samples) / n
    c[0] = 0.0
    for i in range(nsteps):
        t = u0.time_tag + i * dt
        n1 = nl(c, t)
        n2 = nl(e1 * (c + dt / 2 * n1), t + dt / 2)
        n3 = nl(e1 * c + dt / 2 * n2, t + dt / 2)
        n4 = nl(e2 * c + dt * e1 * n3, t + dt)
        c = e2 * c + dt / 6 * (e2 * n1 + 2 * e1 * (n2 + n3) + n4)
    return (sfft.ifft2(c) * n).real


class TestHalfSpectrum:
    """Stepping on the rfft2 half spectrum on offset grids, with white noise
    so that both Nyquist lines carry content."""

    GRIDS = [Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0), Grid2D(64, 32, 20.0, 10.0, 0.0, 0.37)]

    @staticmethod
    def _noise(g, amp=1e-2, seed=5):  # with an x-mean, which the stepper drops
        rng = np.random.default_rng(seed)
        return RealField(g, amp * rng.standard_normal(g.shape), 0.0)

    def _background(self, g):
        return evolve(self._noise(g, seed=6), SolverConfig(dt=0.01, t0=0.0, t_end=0.2))

    @pytest.mark.parametrize("g", GRIDS)
    def test_single_steps_are_hermitian_and_match_reference(self, g):
        u0, dt = project_field(self._noise(g)), 0.01
        bg = self._background(g)
        F = forward_transform(u0)
        for out, ref in ((step_nonlinear(F, dt), _reference_ifrk4(u0, dt, 1)),
                         (step_linearized(F, bg, dt),
                          _reference_ifrk4(u0, dt, 1, BackgroundInterpolator(bg)))):
            assert hermitian_defect(out) <= 1e-14
            got = inverse_transform(out).samples
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("g", GRIDS)
    def test_ten_steps_match_full_spectrum_reference(self, g):
        u0, dt = self._noise(g), 0.01
        bg = self._background(g)
        cfg = SolverConfig(dt=dt, t0=0.0, t_end=10 * dt)
        for traj, ref in ((evolve(u0, cfg), _reference_ifrk4(u0, dt, 10)),
                          (evolve_linearized(u0, bg, cfg),
                           _reference_ifrk4(u0, dt, 10, BackgroundInterpolator(bg)))):
            got = traj.snapshots[-1].samples
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("linearized", [False, True])
    def test_a_step_allocates_at_most_a_transform_pair_beyond_its_workspace(self, linearized):
        # the workspace's blocks hold the fluxes and the background, so the
        # heap does not shrink and grow again from one step to the next
        g = Grid2D(256, 64, 80.0, 40.0, 0.0, 0.0)
        u0 = self._noise(g)
        bg = BackgroundInterpolator(self._background(g)) if linearized else None
        ws, c = _Workspace(g, 0.01, bg), ingest(u0.samples)
        ws.advance(c, 0.0)
        tracemalloc.start()
        ws.advance(c, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= c.nbytes + u0.samples.nbytes + 2**14

    @pytest.mark.parametrize("g", GRIDS)
    def test_guard_norm_is_the_full_lattice_norm(self, g):
        u = project_field(self._noise(g))
        half = ingest(u.samples)
        full = spectral_l2_norm(forward_transform(u)) ** 2 / (g.Lx * g.Ly)
        assert abs(half_l2_squared(half) - full) <= 1e-14 * full


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
        # a stride that is no int, or is a bool, under the loader's leaf rule
        for stride in (2.5, True):
            with pytest.raises(InvalidInputError, match=f"snapshot_stride .* got {stride}"):
                SolverConfig(dt=0.1, t0=0.0, t_end=1.0, snapshot_stride=stride)

    def test_lookups_on_an_empty_trajectory_refused(self):
        traj = Trajectory([], SolverConfig(dt=0.1, t0=0.0, t_end=1.0))
        for lookup in (traj.index, traj.field_at, traj.nearest_time):
            with pytest.raises(DomainError, match="no snapshot"):
                lookup(0.0)
        assert snapshot_index([], 0.0, math.inf) is None

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["dt", "t0", "t_end"])
    def test_config_refuses_non_finite_times(self, name, value):
        times = {"dt": 0.1, "t0": 0.0, "t_end": 1.0, name: value}
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            SolverConfig(**times)

    @pytest.mark.parametrize("key", ["dt", "t0", "t_end", "snapshot_stride"])
    def test_load_refuses_a_missing_config_key(self, grid, rng, tmp_path, key):
        cfg = SolverConfig(dt=1.0, t0=0.0, t_end=1.0, snapshot_stride=2)
        snaps = [RealField(grid, random_field(grid, rng).samples, t) for t in (0.0, 1.0)]
        Trajectory(snaps, cfg).save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["config"][key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        if key == "snapshot_stride":  # has a default
            assert Trajectory.load(tmp_path).config.snapshot_stride == 1
            return
        with pytest.raises(InvalidInputError, match=f"missing key.*{key}"):
            Trajectory.load(tmp_path)

    @pytest.mark.parametrize("key, value", [("dt", "1.0"), ("t_end", True), ("snapshot_stride", 2.0)])
    def test_load_refuses_a_config_leaf_of_the_wrong_type(self, grid, rng, tmp_path, key, value):
        snaps = [RealField(grid, random_field(grid, rng).samples, t) for t in (0.0, 1.0)]
        Trajectory(snaps, SolverConfig(dt=1.0, t0=0.0, t_end=1.0)).save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidInputError, match=re.escape(f"config.{key}: expected")):
            Trajectory.load(tmp_path)

    @pytest.mark.parametrize("key", ["dealias", "order"])
    def test_load_refuses_an_unknown_config_key(self, grid, rng, tmp_path, key):
        snaps = [RealField(grid, random_field(grid, rng).samples, t) for t in (0.0, 1.0)]
        Trajectory(snaps, SolverConfig(dt=1.0, t0=0.0, t_end=1.0)).save(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"][key] = True
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidInputError, match=f"unknown key.*{key}"):
            Trajectory.load(tmp_path)
