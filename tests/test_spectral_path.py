"""The diagnostics' spectral path: its symbols keep real fields real, its
results match chains of the public `derivative`/`apply_vector_field`, and
they match an independent full-lattice numpy.fft evaluation on white noise."""

import numpy as np
import pytest

from kpwave.decompose import (
    dyadic_decompose,
    hyperbolic_elliptic_split,
    pointwise_profile,
    split_sign_frequencies,
)
from kpwave.evolution import SolverConfig, evolve
from kpwave.harness import theorem_suite_configs
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
        split = hyperbolic_elliptic_split(piece)
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


# ---------------------------------------------------------------------------
# an independent full-lattice reference: numpy.fft, no half spectrum, no phase


def _fwd(f):
    return np.fft.fft2(f) / f.size


def _inv(c):
    return np.fft.ifft2(c) * c.size


def _ref_symbol(g, a=0, b=0):
    """(i xi)^a (i eta)^b on the full lattice; xi = 0 dropped from inverse
    x-derivatives and odd factors dropped on their Nyquist line."""
    xi = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.Lx / g.nx)
    eta = 2 * np.pi * np.fft.fftfreq(g.ny, d=g.Ly / g.ny)
    with np.errstate(divide="ignore", invalid="ignore"):
        sx = (1j * xi) ** a
    sy = (1j * eta) ** b
    if a < 0:
        sx[0] = 0.0
    if a % 2:
        sx[g.nx // 2] = 0.0
    if b % 2:
        sy[g.ny // 2] = 0.0
    return sx[:, None] * sy[None, :]


def _ref_d(g, f, a=0, b=0):
    out = _inv(_ref_symbol(g, a, b) * _fwd(f))
    return out if np.iscomplexobj(f) else out.real


def _ref_vector_field(tag, g, f, t):
    x, y = g.XA, g.YA
    z = -x + y**2 / (4 * t)
    d = lambda h, a=0, b=0: _ref_d(g, h, a, b)  # noqa: E731
    lx = lambda h: x * h - 3 * t * d(h, 2) - t * d(h, -2, 2)  # noqa: E731
    ly = lambda h: y * h + 2 * t * d(h, -1, 1)  # noqa: E731
    return {
        "Lx": lambda: lx(f),
        "Ly": lambda: ly(f),
        "LyDx": lambda: ly(d(f, 1)),
        "S0": lambda: lx(d(f, 1)) + ly(d(f, 0, 1)),
        "Lz": lambda: z * f + 3 * t * d(f, 2),
        "LzPlus": lambda: np.sqrt(np.maximum(z, 0)) * f + 1j * np.sqrt(3 * t) * d(f, 1),
        "LzMinus": lambda: np.sqrt(np.maximum(z, 0)) * f - 1j * np.sqrt(3 * t) * d(f, 1),
    }[tag]()


def _norm(g, f):
    return np.sqrt(g.hx * g.hy * np.sum(np.abs(f) ** 2))


def noisy_pulse(g, seed=11):
    """White noise plus a modulated pulse, with the xi = 0 row removed by
    the reference transform."""
    rng = np.random.default_rng(seed)
    env = np.exp(-((g.XA - g.x0) / 2.0) ** 2 - ((g.YA - g.y0) / 2.0) ** 2)
    f = 0.1 * rng.standard_normal(g.shape) + env * np.cos(1.3 * (g.XA - g.x0))
    c = _fwd(f)
    c[0] = 0.0
    return _inv(c).real


def near(got, want, rtol=1e-12):
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"x0={g.x0},y0={g.y0}")
def test_derivatives_and_vector_fields_match_the_full_lattice(g):
    t, f = 4.0, noisy_pulse(g)
    u = RealField(g, f, t)
    h = ComplexField(g, f + 1j * noisy_pulse(g, seed=12), t)
    for a, b in ((1, 0), (0, 1), (3, 0), (2, 2), (-1, 2), (-2, 1)):
        got = derivative(u, a, b)
        assert isinstance(got, RealField)
        assert near(got.samples, _ref_d(g, f, a, b)), (a, b)
        assert near(derivative(h, a, b).samples, _ref_d(g, h.samples, a, b)), (a, b)
    z_pos = f * (z_coordinate(g, t) >= 0)  # the Lz+- factorization needs z >= 0
    for tag in ("Lx", "Ly", "LyDx", "S0", "Lz", "LzPlus", "LzMinus"):
        src = z_pos if tag in ("LzPlus", "LzMinus") else f
        got = apply_vector_field(VectorFieldId(tag, t), RealField(g, src, t)).samples
        assert near(got, _ref_vector_field(tag, g, src, t)), tag


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"x0={g.x0},y0={g.y0}")
def test_x_norm_matches_the_full_lattice(g):
    t, f = 4.0, noisy_pulse(g)
    ux = _ref_d(g, f, 1)
    ly = _ref_vector_field("Ly", g, _ref_vector_field("Ly", g, ux, t), t)
    want = (_norm(g, f), _norm(g, _ref_d(g, f, 3)), _norm(g, ly),
            _norm(g, _ref_vector_field("S0", g, f, t)))
    rep = x_norm(RealField(g, f, t), t)
    for got, w in zip((rep.l2, rep.uxxx, rep.ly2dxu, rep.s0u), want):
        assert close(got, w)


def _ref_profile(g, f, t, delta=1.0, width=0.5):
    """The per-scale rows, hyp_weighted and ell_third of `pointwise_profile`,
    from the definitions on the full lattice."""
    from kpwave.bumps import plateau_cutoff, smooth_step

    xi = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.Lx / g.nx)
    c = _fwd(f)
    plus = np.where((xi > 0)[:, None], c, 0.0)
    plus[g.nx // 2] = c[g.nx // 2] / 2
    scale = np.abs(plus).max()
    pos = xi != 0
    ell = np.full(g.nx, -np.inf)
    ell[pos] = np.log2(np.abs(xi[pos])) / delta
    live = pos & (np.abs(plus).max(axis=1) > 1e-14 * scale)
    z = -g.XA + g.YA**2 / (4 * t)
    v = z / t
    rows, hyp_plus = [], np.zeros(g.shape, dtype=complex)
    for n in range(int(np.floor(ell[live].min())), int(np.ceil(ell[live].max())) + 1):
        pc = plus * (smooth_step(ell - n + 1) - smooth_step(ell - n))[:, None]
        lam = 2.0 ** (n * delta)
        if np.abs(pc).max() <= 1e-14 * scale or lam < t ** (-1.0 / 3.0):
            continue
        p = _inv(pc)
        hyp = plateau_cutoff((v - 3 * lam**2) / (3 * lam**2 * width)) * p
        hyp_plus += hyp
        budget = _norm(g, p) + _norm(g, _ref_vector_field("Lz", g, _ref_d(g, p, 1), t))
        rows.append((lam, _norm(g, _ref_vector_field("LzPlus", g, hyp, t)),
                     lam**-2 * t**-0.5 * budget,
                     _norm(g, np.sqrt(1 + (v / lam**2) ** 2) * (p - hyp)),
                     lam**-3 / t * budget))
    lz = _ref_vector_field("LzPlus", g, _ref_d(g, hyp_plus, 1), t)
    hyp_weighted = _norm(g, np.sqrt(np.maximum(v, 0.0)) * lz)
    ly = lambda h: _ref_vector_field("Ly", g, h, t)  # noqa: E731
    v_floor = t ** (-2.0 / 3.0) / 8
    inv_v = np.where(v > v_floor, 1.0 / np.maximum(v, v_floor), 0.0)
    ell_third = _norm(g, inv_v * _ref_d(g, ly(ly(2 * hyp_plus.real)), 3))
    return np.array(rows), hyp_weighted, ell_third


# The profile needs a box whose seam lies beyond the hyperbolic region at
# t = 4, and white noise small enough that the spectral dx of the assembled
# hyperbolic part keeps its mass on {z >= 0} (a relative noise of 1e-3 puts
# 5e-5 of it on z < 0, where Lz+ is refused): the localized field's box,
# moved by the offsets of GRIDS, with noise at 1e-4 of the pulse.
PROFILE_GRIDS = tuple(Grid2D(2048, 64, 220.0, 90.0, -32.0 + g.x0, g.y0) for g in GRIDS)


def _ref_linear_flow(g, f, t):
    xi = 2 * np.pi * np.fft.fftfreq(g.nx, d=g.Lx / g.nx)
    eta = 2 * np.pi * np.fft.fftfreq(g.ny, d=g.Ly / g.ny)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = xi[:, None] ** 3 + eta[None, :] ** 2 / xi[:, None]
    omega[0] = omega[g.nx // 2] = 0.0
    return _inv(_fwd(f) * np.exp(1j * omega * t)).real


@pytest.mark.parametrize("g", PROFILE_GRIDS, ids=lambda g: f"x0={g.x0},y0={g.y0}")
def test_profile_matches_the_full_lattice(g):
    t = 4.0
    env = np.exp(-((g.XA + 45.0) / 6.0) ** 2 - (g.YA / 6.0) ** 2)
    f = _ref_linear_flow(g, 0.01 * env * np.cos(g.XA + 45.0), t)
    f += 1e-4 * np.abs(f).max() * np.random.default_rng(11).standard_normal(g.shape)
    c = _fwd(f)
    c[0] = 0.0
    f = _inv(c).real
    prof = pointwise_profile(RealField(g, f, t), t)
    rows, hyp_weighted, ell_third = _ref_profile(g, f, t)
    got = np.array([(r.lam, r.lz_hyp, r.lz_hyp_rhs, r.ell_weighted, r.ell_rhs)
                    for r in prof.lambda_rows])
    assert got.shape == rows.shape and len(rows)
    assert np.array_equal(got[:, 0], rows[:, 0])
    assert np.all(np.abs(got - rows).max(axis=0) <= 1e-12 * np.abs(rows).max(axis=0))
    assert close(prof.hyp_weighted, hyp_weighted)
    assert close(prof.ell_third, ell_third, rtol=1e-11)  # see test_profile_matches_operator_chains


@pytest.mark.parametrize("name", sorted(theorem_suite_configs()))
def test_project_field_keeps_the_coefficients_off_the_zero_row(name):
    g = theorem_suite_configs()[name].grid
    f = np.random.default_rng(13).standard_normal(g.shape)
    before, after = _fwd(f), _fwd(project_field(RealField(g, f, 0.0)).samples)
    scale = np.abs(before).max()
    assert np.abs(after[0]).max() <= 1e-14 * scale
    assert np.abs(after[1:] - before[1:]).max() <= 1e-14 * scale
