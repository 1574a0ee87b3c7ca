"""How many FFTs each diagnostic entry point takes: one spectrum per input
field, and derivatives as symbol products with one inverse each.  And how
many the stepper, the exact linear jump and ingestion take: half-spectrum
transforms only.  Every transform is two 1-D passes, counted by name: a
real field's half spectrum is an `rfft` along y and an `fft` along x, and
it is inverted by an `ifft` along x and an `irfft` along y; a complex
field's lattice is an `fft` (or `ifft`) along each axis; and an IFRK4 flux
is an `rfft` along y and an `fft` along x over the dealiased columns."""

import sys
from collections import Counter

import numpy as np
import pytest
import numpy.fft

from kpwave.decompose import pointwise_profile
from kpwave.evolution import (
    SolverConfig,
    evolve,
    evolve_linearized,
    nonlinear_term,
    step_nonlinear,
)
from kpwave.grids import Grid2D, RealField, forward_transform, project_field
from kpwave.harness import _DIAG_RUNNERS
from kpwave.scattering import scattering_residuals
from kpwave.vfields import x_norm

pytestmark = pytest.mark.filterwarnings("ignore::kpwave.vfields.UntrustedFieldWarning")

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft",
             "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


class _CountingFFT:
    """Stands in for `numpy.fft` inside every kpwave module that calls it
    and counts 1-D passes, in total and by name."""

    def __init__(self):
        self.calls = 0
        self.names = Counter()

    def __getattr__(self, name):
        fn = getattr(numpy.fft, name)
        if name not in FFT_FUNCS:
            return fn

        def counted(*args, **kwargs):
            self.calls += 1
            self.names[name] += 1
            return fn(*args, **kwargs)
        return counted


@pytest.fixture
def fft_count(monkeypatch):
    counter = _CountingFFT()
    for name, module in list(sys.modules.items()):
        if name.startswith("kpwave") and getattr(module, "npfft", None) is numpy.fft:
            monkeypatch.setattr(module, "npfft", counter)
    return counter


def pulse(g, amp, sx, sy, kx=1.0, cx=0.0):
    env = np.exp(-((g.XA - cx) / sx) ** 2 - (g.YA / sy) ** 2)
    return project_field(RealField(g, amp * env * np.cos(kx * (g.XA - cx)), 0.0))


def linear_run(g, u0, times):
    return evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=times[-1]),
                  snapshot_times=times, linear=True)


def test_x_norm(fft_count):
    g = Grid2D(64, 32, 40.0, 20.0, 0.0, 0.0)
    u = pulse(g, 0.1, 3.0, 3.0)
    fft_count.names.clear()
    x_norm(u, 2.0)
    # 7 transforms, all of a real field's half spectrum; a chain of
    # `derivative` calls took 18
    assert fft_count.names == Counter(rfft=2, fft=2, ifft=5, irfft=5)


def test_pointwise_profile(fft_count):
    g = Grid2D(256, 64, 220.0, 90.0, -32.0, 0.0)
    traj = linear_run(g, pulse(g, 0.01, 4.0, 4.0, cx=-30.0), [0.0, 4.0])
    u = traj.field_at(4.0)
    fft_count.names.clear()
    pointwise_profile(u, 4.0)
    # 28 transforms; a chain of `derivative` calls took 62
    assert fft_count.names == Counter(rfft=4, fft=10, ifft=35, irfft=7)


def test_gamma_and_reconstruction_error_per_sample(fft_count, tmp_path):
    g = Grid2D(128, 32, 120.0, 32.0, -20.0, 0.0)
    traj = linear_run(g, pulse(g, 0.02, 2.0, 2.0), [0.0, 4.0, 5.0, 6.0])
    for rays in ([(-3.0, 0.0)], [(-3.0, 0.0), (-2.5, 0.5)]):
        fft_count.names.clear()
        _DIAG_RUNNERS["gamma"](traj, {"rays": rays, "t_min": 1.0}, tmp_path)
        rows = (tmp_path / "gamma.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * len(rays)
        # per sampled snapshot its half spectrum and the inverse of u_xx, which
        # the rays share; each packet pairs on its support, with no complex
        # full-lattice transform
        assert fft_count.names == Counter(rfft=3, fft=3, ifft=3, irfft=3)


def test_scattering_residuals(fft_count):
    g = Grid2D(256, 32, 256.0, 32.0, 0.0, 0.0)
    traj = evolve(pulse(g, 0.05, 4.0, 6.0, kx=0.9), SolverConfig(dt=0.05, t0=0.0, t_end=8.05),
                  snapshot_times=[0.0, 7.95, 8.0, 8.05], linear=True)
    fft_count.names.clear()
    scattering_residuals(traj, 8.0)
    # 14 transforms; a chain of `derivative` calls took 31
    assert fft_count.names == Counter(rfft=6, fft=6, ifft=14, irfft=2)


def test_nonlinear_evolve(fft_count):
    # one rfft2 in, an inverse and a flux per IFRK4 stage, and an inverse per
    # snapshot, which stage 1 of the step after it reuses: 4N inverses for the
    # N steps to the last snapshot, and one for that snapshot, whatever the S
    # snapshots (the stages and the snapshots inverted separately: 4N + S)
    g = Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0)
    u0 = pulse(g, 0.1, 2.0, 2.0)
    for stride, times, nsteps in ((1, [0.0, 0.5, 1.0], 10), (1, [0.2, 0.3, 0.6, 1.0], 10),
                                  (1, [0.0, 0.7], 7), (3, None, 10)):
        fft_count.names.clear()
        evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=1.0, snapshot_stride=stride),
               snapshot_times=times)
        assert fft_count.names == Counter(rfft=4 * nsteps + 1, fft=4 * nsteps + 1,
                                          ifft=4 * nsteps + 1, irfft=4 * nsteps + 1), times


def test_linearized_evolve(fft_count):
    # as the nonlinear stepper: the background enters as samples
    g = Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0)
    cfg = SolverConfig(dt=0.1, t0=0.0, t_end=1.0)
    bg, w0 = evolve(pulse(g, 0.1, 2.0, 2.0), cfg), pulse(g, 0.01, 1.0, 1.0)
    fft_count.names.clear()
    evolve_linearized(w0, bg, cfg, snapshot_times=[0.0, 0.5, 1.0])
    assert fft_count.names == Counter(rfft=41, fft=41, ifft=41, irfft=41)


def test_single_steps_and_nonlinear_term(fft_count):
    # a step's stage 1 inverts the state itself; the check of projection
    # takes one rfft2
    g = Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0)
    u = pulse(g, 0.1, 2.0, 2.0)
    F = forward_transform(u)
    fft_count.names.clear()
    step_nonlinear(F, 0.1)
    assert fft_count.names == Counter(rfft=4, fft=4, ifft=4, irfft=4)
    fft_count.names.clear()
    nonlinear_term(u)
    assert fft_count.names == Counter(rfft=2, fft=2, ifft=1, irfft=1)


def test_linear_evolve(fft_count):
    # the exact linear jump: one rfft2 in, one inverse per snapshot
    g = Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0)
    u0 = RealField(g, np.random.default_rng(3).standard_normal(g.shape), 0.0)
    times = [0.0, 0.5, 1.0, 2.5]
    linear_run(g, u0, times)
    assert fft_count.names == Counter(rfft=1, fft=1, ifft=len(times), irfft=len(times))


def test_project_field(fft_count):
    g = Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0)
    project_field(RealField(g, np.random.default_rng(4).standard_normal(g.shape), 0.0))
    assert fft_count.names == Counter(rfft=1, fft=1, ifft=1, irfft=1)
