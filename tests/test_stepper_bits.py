"""The stepper against the two-dimensional transforms: on the six canned
grids every stepping entry point is bit for bit the IFRK4 step written with
`irfft2`/`rfft2`, and it leaves its inputs as they were."""

import numpy as np
import pytest
import scipy.fft as sfft

from kpwave.evolution import (
    BackgroundInterpolator,
    SolverConfig,
    Trajectory,
    _Workspace,
    evolve,
    evolve_linearized,
    nonlinear_term,
    step_linearized,
    step_nonlinear,
)
from kpwave.grids import (
    RealField,
    dx_symbol,
    forward_transform,
    from_spectral,
    ingest,
    omega_values,
    samples_of,
    to_spectral,
)
from kpwave.harness import theorem_suite_configs

CANNED = theorem_suite_configs()
DT = 1e-3


def _noise(g, seed, amp=1e-2):
    """White noise, so that every mode, the Nyquist lines too, carries content."""
    return amp * np.random.default_rng(seed).standard_normal(g.shape)


def _ref_flux(g, w, u=None):
    h = g.ny // 2 + 1
    neg_dx = dx_symbol(g)[:, None] * g.dealias_mask[:, :h] / -(g.nx * g.ny)
    return neg_dx * sfft.rfft2(0.5 * w * w if u is None else u * w)


def _ref_advance(g, c, t, bg=None):
    """One IFRK4 step of the half spectrum c from t, each stage through
    irfft2 and rfft2."""
    e1 = np.exp(1j * omega_values(g, g.ny // 2 + 1) * (DT / 2))
    e2 = e1 * e1
    u0, u_mid, u1 = (None,) * 3 if bg is None else (
        bg.samples_at(t), bg.samples_at(t + DT / 2), bg.samples_at(t + DT))

    def nl(c, u):
        return _ref_flux(g, sfft.irfft2(c, s=g.shape, norm="forward"), u)
    n1 = nl(c, u0)
    n2 = nl(e1 * (c + (DT / 2) * n1), u_mid)
    n3 = nl(e1 * c + (DT / 2) * n2, u_mid)
    n4 = nl(e2 * c + DT * e1 * n3, u1)
    n2 += n3
    np.multiply(2 * e1, n2, out=n2)
    np.add(e2 * n1, n2, out=n2)
    n2 += n4
    np.multiply(DT / 6, n2, out=n2)
    return np.add(e2 * c, n2, out=n2)


def _ref_evolve(g, samples, nsteps, bg=None):
    c, out = ingest(samples), []
    for i in range(nsteps + 1):
        out.append(sfft.irfft2(c, s=g.shape, norm="forward"))
        if i < nsteps:
            c = _ref_advance(g, c, i * DT, bg)
    return out


def _background(g):
    """A stored background over [0, 4*DT]: smooth in time, noisy in space."""
    a, b = _noise(g, 11), _noise(g, 12)
    return Trajectory([RealField(g, a + (k * DT) * b, k * DT) for k in range(5)])


@pytest.fixture(params=sorted(CANNED), scope="module")
def canned(request):
    g = CANNED[request.param].grid
    return g, RealField(g, _noise(g, 5), 0.0), _background(g)


def test_samples_of_is_irfft2(canned):
    g, u, _ = canned
    c = ingest(u.samples)
    kept = c.copy()
    assert np.array_equal(samples_of(c, g.shape), sfft.irfft2(c, s=g.shape, norm="forward"))
    assert np.array_equal(c, kept)


def test_advance_and_nonlinear_term(canned):
    g, u, bg = canned
    c = ingest(u.samples)
    assert np.array_equal(_Workspace(g, DT).advance(c, 0.0), _ref_advance(g, c, 0.0))
    interp = BackgroundInterpolator(bg)
    assert np.array_equal(_Workspace(g, DT, interp).advance(c, DT),
                          _ref_advance(g, c, DT, interp))
    # stage 1 starts from the samples it is given
    assert np.array_equal(_Workspace(g, DT).advance(c, 0.0, samples_of(c, g.shape)),
                          _ref_advance(g, c, 0.0))

    w = sfft.irfft2(c, s=g.shape, norm="forward")
    v = RealField(g, w, 0.0)
    want = sfft.irfft2(_ref_flux(g, w), s=g.shape, norm="forward")
    assert np.array_equal(nonlinear_term(v).samples, want)
    assert np.array_equal(v.samples, w)


def test_single_steps(canned):
    g, u, bg = canned
    projected = sfft.irfft2(ingest(u.samples), s=g.shape, norm="forward")
    F = forward_transform(RealField(g, projected, 0.0))
    kept = F.coeffs.copy()
    bg_kept = [s.samples.copy() for s in bg.snapshots]
    c = from_spectral(F)
    assert np.array_equal(step_nonlinear(F, DT).coeffs,
                          to_spectral(_ref_advance(g, c, 0.0), g, DT).coeffs)
    assert np.array_equal(step_linearized(F, bg, DT).coeffs,
                          to_spectral(_ref_advance(g, c, 0.0, BackgroundInterpolator(bg)),
                                      g, DT).coeffs)
    assert np.array_equal(F.coeffs, kept)
    assert all(np.array_equal(s.samples, k) for s, k in zip(bg.snapshots, bg_kept))


def test_three_step_runs(canned):
    g, u, bg = canned
    kept = u.samples.copy()
    bg_kept = [s.samples.copy() for s in bg.snapshots]
    cfg = SolverConfig(dt=DT, t0=0.0, t_end=3 * DT)
    for traj, ref in ((evolve(u, cfg), _ref_evolve(g, u.samples, 3)),
                      (evolve_linearized(u, bg, cfg),
                       _ref_evolve(g, u.samples, 3, BackgroundInterpolator(bg)))):
        assert len(traj.snapshots) == len(ref) == 4
        assert all(np.array_equal(s.samples, r) for s, r in zip(traj.snapshots, ref))
    assert np.array_equal(u.samples, kept)
    assert all(np.array_equal(s.samples, k) for s, k in zip(bg.snapshots, bg_kept))
