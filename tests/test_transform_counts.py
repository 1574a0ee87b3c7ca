"""How many FFTs each diagnostic entry point takes: one spectrum per input
field, and derivatives as symbol products with one inverse each."""

import numpy as np
import pytest
import scipy.fft

from kpwave import grids
from kpwave.decompose import pointwise_profile
from kpwave.evolution import SolverConfig, evolve
from kpwave.grids import Grid2D, RealField, project_field
from kpwave.harness import _DIAG_RUNNERS
from kpwave.scattering import scattering_residuals
from kpwave.vfields import x_norm

pytestmark = pytest.mark.filterwarnings("ignore::kpwave.vfields.UntrustedFieldWarning")

FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


class _CountingFFT:
    """Stands in for `scipy.fft` inside kpwave.grids and counts transforms."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        fn = getattr(scipy.fft, name)
        if name not in FFT_FUNCS:
            return fn

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


@pytest.fixture
def fft_count(monkeypatch):
    counter = _CountingFFT()
    monkeypatch.setattr(grids, "sfft", counter)
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
    fft_count.calls = 0
    x_norm(u, 2.0)
    assert fft_count.calls <= 7  # a chain of `derivative` calls took 18


def test_pointwise_profile(fft_count):
    g = Grid2D(256, 64, 220.0, 90.0, -32.0, 0.0)
    traj = linear_run(g, pulse(g, 0.01, 4.0, 4.0, cx=-30.0), [0.0, 4.0])
    u = traj.field_at(4.0)
    fft_count.calls = 0
    pointwise_profile(u, 4.0)
    assert fft_count.calls <= 62 // 2  # a chain of `derivative` calls took 62


def test_gamma_and_reconstruction_error_per_sample(fft_count, tmp_path):
    g = Grid2D(128, 32, 120.0, 32.0, -20.0, 0.0)
    traj = linear_run(g, pulse(g, 0.02, 2.0, 2.0), [0.0, 4.0, 5.0, 6.0])
    fft_count.calls = 0
    _DIAG_RUNNERS["gamma"](traj, {"rays": [(-3.0, 0.0)], "t_min": 1.0}, tmp_path)
    rows = (tmp_path / "gamma.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert fft_count.calls <= 3 * len(rows)  # 6 per sample through `derivative`


def test_scattering_residuals(fft_count):
    g = Grid2D(256, 32, 256.0, 32.0, 0.0, 0.0)
    traj = evolve(pulse(g, 0.05, 4.0, 6.0, kx=0.9), SolverConfig(dt=0.05, t0=0.0, t_end=8.05),
                  snapshot_times=[0.0, 7.95, 8.0, 8.05], linear=True)
    fft_count.calls = 0
    scattering_residuals(traj, 8.0)
    assert fft_count.calls <= 18  # a chain of `derivative` calls took 31
