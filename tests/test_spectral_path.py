"""The diagnostics' spectral path: its symbols keep real fields real, and
its results match chains of the public `derivative`/`apply_vector_field`."""

import numpy as np
import pytest

from kpwave.decompose import (
    dyadic_decompose,
    hyperbolic_elliptic_split,
    pointwise_profile,
    split_sign_frequencies,
)
from kpwave.evolution import SolverConfig, evolve
from kpwave.grids import (
    ComplexField,
    Grid2D,
    RealField,
    SpectralField,
    conjugate_mirror,
    forward_transform,
    inverse_transform_complex,
    l2_norm,
    project_field,
)
from kpwave.vfields import (
    VectorFieldId,
    _lx_symbol,
    _ly_symbol,
    _symbol,
    apply_vector_field,
    derivative,
    x_norm,
    z_coordinate,
)

pytestmark = pytest.mark.filterwarnings("ignore::kpwave.vfields.UntrustedFieldWarning")

GRIDS = (
    Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0),
    Grid2D(64, 32, 20.0, 10.0, 0.3, 0.0),
    Grid2D(48, 40, 30.0, 12.0, -7.1, 0.37),
)


def path_symbols(g, t):
    """Every symbol and symbol product the spectral path inverts for a
    real source."""
    s = _symbol
    lx, ly = _lx_symbol(g, t), _ly_symbol(g, t)
    return {
        "dx": s(g, 1), "dy": s(g, 0, 1), "dx^3": s(g, 3), "dy^2": s(g, 0, 2),
        "Lx": lx, "Ly": ly, "Lz": 3 * t * s(g, 2),
        "Ly dx": ly * s(g, 1),
        "S0": lx * s(g, 1) + ly * s(g, 0, 1),
        "Ly dx^3": ly * s(g, 3),
        "flow dx^-3": (s(g, 3) - s(g, -1, 2)) * s(g, -3),
    }


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"x0={g.x0},y0={g.y0}")
def test_symbols_keep_real_fields_real(g):
    rng = np.random.default_rng(7)
    for _ in range(3):
        F = forward_transform(RealField(g, rng.standard_normal(g.shape), 0.0))
        for name, sym in path_symbols(g, 1.7).items():
            out = inverse_transform_complex(SpectralField(g, sym * F.coeffs, 0.0)).samples
            assert np.abs(out.imag).max() <= 1e-13 * np.abs(out.real).max(), name
        # the coefficients of 2 Re(h) from those of a complex h
        h = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        H = forward_transform(ComplexField(g, h, 0.0)).coeffs
        out = inverse_transform_complex(SpectralField(g, H + conjugate_mirror(H), 0.0)).samples
        assert np.abs(out.imag).max() <= 1e-13 * np.abs(out.real).max()
        assert np.abs(out.real - 2 * h.real).max() <= 1e-13 * np.abs(h).max()


def localized_field(t):
    """A narrowband pulse after linear flow to t, on an offset grid fine
    enough in x for the hyperbolic cutoff at t = 1."""
    g = Grid2D(2048, 64, 220.0, 90.0, -32.0, 0.0)
    env = np.exp(-((g.XA + 45.0) / 6.0) ** 2 - (g.YA / 6.0) ** 2)
    u0 = project_field(RealField(g, 0.01 * env * np.cos(g.XA + 45.0), 0.0))
    traj = evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=t), snapshot_times=[t], linear=True)
    return traj.snapshots[-1]


def close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * abs(b)


@pytest.mark.parametrize("t", [1.0, 4.0])
def test_x_norm_matches_operator_chains(t):
    u = localized_field(t)
    ux = derivative(u, dx_order=1)
    ly = VectorFieldId("Ly", t)
    s0 = (apply_vector_field(VectorFieldId("Lx", t), ux).samples
          + apply_vector_field(ly, derivative(u, dy_order=1)).samples)
    ref = (l2_norm(u), l2_norm(derivative(u, dx_order=3)),
           l2_norm(apply_vector_field(ly, apply_vector_field(ly, ux))),
           l2_norm(RealField(u.grid, s0, t)))
    rep = x_norm(u, t)
    for got, want in zip((rep.l2, rep.uxxx, rep.ly2dxu, rep.s0u), ref):
        assert close(got, want)


@pytest.mark.parametrize("t", [1.0, 4.0])
def test_profile_matches_operator_chains(t):
    u = localized_field(t)
    g = u.grid
    prof = pointwise_profile(u, t)

    v = z_coordinate(g, t) / t
    hyp_plus = np.zeros(g.shape, dtype=complex)
    rows = []
    for piece in dyadic_decompose(split_sign_frequencies(u)[0]):
        split = hyperbolic_elliptic_split(piece, 0.5)
        hyp_plus += split.hyp.samples
        if piece.lam < t ** (-1.0 / 3.0):
            continue
        lam = piece.lam
        lz_dx = apply_vector_field(VectorFieldId("Lz", t),
                                   derivative(piece.plus_part, dx_order=1))
        budget = l2_norm(piece.plus_part) + l2_norm(lz_dx)
        rows.append((
            lam,
            l2_norm(apply_vector_field(VectorFieldId("LzPlus", t), split.hyp)),
            lam**-2 * t**-0.5 * budget,
            l2_norm(ComplexField(g, np.sqrt(1 + (v / lam**2) ** 2) * split.ell.samples, t)),
            lam**-3 / t * budget))
    assert rows
    got = np.array([(r.lam, r.lz_hyp, r.lz_hyp_rhs, r.ell_weighted, r.ell_rhs)
                    for r in prof.lambda_rows])
    want = np.array(rows)
    assert got.shape == want.shape
    assert np.array_equal(got[:, 0], want[:, 0])
    # column by column, as the scales.csv columns are compared: a piece that
    # holds only roundoff has quantities 1e-10 of its column's largest
    assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0))

    dx_hyp = derivative(ComplexField(g, hyp_plus, t), dx_order=1)
    lz = apply_vector_field(VectorFieldId("LzPlus", t), dx_hyp)
    hyp_weighted = l2_norm(ComplexField(g, np.sqrt(np.maximum(v, 0.0)) * lz.samples, t))
    ly = VectorFieldId("Ly", t)
    ly2 = apply_vector_field(ly, apply_vector_field(ly, RealField(g, 2 * hyp_plus.real, t)))
    v_floor = t ** (-2.0 / 3.0) / 8
    inv_v = np.where(v > v_floor, 1.0 / np.maximum(v, v_floor), 0.0)
    ell_third = l2_norm(RealField(g, inv_v * derivative(ly2, dx_order=3).samples, t))
    assert close(prof.hyp_weighted, hyp_weighted)
    # dx^3 and the y^2 weight amplify input roundoff: the u_hyp assembled from
    # pieces transformed once differs from the chain's by 6e-14 of its size,
    # and ell_third by 3e-12 (both are within 1e-14 of an extended-precision
    # evaluation on their own u_hyp)
    assert close(prof.ell_third, ell_third, rtol=1e-11)
