"""Moving packets, the pairing gamma, and the approximation residuals."""

import numpy as np
import pytest

from kpwave.bumps import (
    bump,
    bump_d1,
    bump_d2,
    bump_mass,
    bump_normalized,
    plateau_cutoff,
    smooth_step,
)
from kpwave.decompose import (
    dyadic_decompose,
    hyperbolic_elliptic_split,
    split_sign_frequencies,
)
from kpwave.errors import DomainError, GridMismatchError, InvalidInputError
from kpwave.evolution import SolverConfig, evolve
from kpwave.geometry import RayVelocity, phase_phi_grid
from kpwave.grids import (
    ComplexField,
    Grid2D,
    RealField,
    project_field,
    sup_norm,
)
from kpwave.harness import build_initial_data, fit_decay, theorem_suite_configs
from kpwave.packets import (
    GammaSeries,
    PacketParams,
    _leading_bracket,
    _pair,
    _point_value,
    build_packet,
    gamma,
    gamma_dot_series,
    packet_leading,
    packet_residual,
    reconstruction_error,
)
from kpwave.vfields import _Spectrum, derivative, z_coordinate

VEL = RayVelocity(-3.0, 0.0)
PACKET_TIMES = (10.0, 40.0, 80.0)

pytestmark = pytest.mark.filterwarnings(
    "ignore::kpwave.vfields.UntrustedFieldWarning")


def ray_grid(t, nx=512, ny=256, Lx=256.0, Ly=128.0):
    """Grid centered on the ray point of VEL at time t."""
    return Grid2D(nx, ny, Lx, Ly, VEL.v1 * t, VEL.v2 * t)


def flat_envelope_ux(grid, t, c0):
    """Synthetic field whose x-derivative is 2/t Re(c0 W e^{i phi}) with a
    wide plateau W that equals 1 on the packet envelope support."""
    p = PacketParams(VEL, t)
    alpha = p.lambda1 * (z_coordinate(grid, t) - VEL.v * t)
    beta = p.lambda2 * (grid.YA - VEL.v2 * t)
    W = plateau_cutoff(alpha / 4.0) * plateau_cutoff(beta / 4.0)
    ux = 2.0 / t * np.real(c0 * W * np.exp(1j * phase_phi_grid(grid, t)))
    return derivative(project_field(RealField(grid, ux, t)), dx_order=-1)


@pytest.fixture(scope="module")
def linear_run_t40():
    """Linear solution at t = 40 on a grid holding both the datum and the
    ray point of VEL in the trusted region."""
    g = Grid2D(512, 128, 256.0, 128.0, -100.0, 0.0)
    env = np.exp(-(g.XA**2) / 36.0 - g.YA**2 / 9.0)
    samples = 0.01 * ((-2 * g.XA / 36.0) * env * np.cos(g.XA)
                      - env * np.sin(g.XA))
    u0 = project_field(RealField(g, samples, 0.0))
    traj = evolve(u0, SolverConfig(dt=1.0, t0=0.0, t_end=40.0), linear=True)
    return traj.snapshots[-1]


@pytest.fixture(scope="module")
def packet_run():
    """The canned packet experiment's datum (its ray is VEL) flowed linearly
    to each of PACKET_TIMES."""
    cfg = theorem_suite_configs()["packet"]
    return evolve(build_initial_data(cfg), cfg.solver, snapshot_times=[0.0, *PACKET_TIMES],
                  linear=True)


def full_grid_envelope(p, g):
    """alpha, beta and e^{i phi} evaluated over the whole grid."""
    alpha = p.lambda1 * (z_coordinate(g, p.t) - p.vel.v * p.t)
    beta = p.lambda2 * (g.y - p.vel.v2 * p.t)
    return alpha, beta, np.exp(1j * phase_phi_grid(g, p.t))


def spectral_gamma(u, p):
    """gamma by Parseval: the packet's fft2 times the odd dx symbol i xi
    (zero on the x-Nyquist row), paired with u_x's full lattice."""
    g, n = u.grid, u.grid.nx * u.grid.ny
    alpha, beta, phase = full_grid_envelope(p, g)
    lead = bump_normalized(alpha) * bump_normalized(beta) * phase
    dx = 1j * g.xi
    dx[g.nx // 2] = 0.0
    psi = -1j * np.sqrt(3.0) * p.vel.v**-0.5 * dx[:, None] * np.fft.fft2(lead) / n
    ux = np.fft.fft2(derivative(u, dx_order=1).samples) / n
    return g.Lx * g.Ly * np.vdot(psi, ux)


class TestPacketParams:
    def test_scale_product(self):
        for t in (2.0, 10.0, 100.0):
            p = PacketParams(VEL, t)
            assert p.lambda1 * p.lambda2 == pytest.approx(1.0 / t, rel=1e-14)

    def test_envelope_normalization(self):
        s = np.linspace(-1.0, 1.0, 200001)
        mass = np.trapezoid(bump_normalized(s), dx=s[1] - s[0])
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_bump_mass_is_the_quadrature_value(self):
        from scipy.integrate import quad
        val, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, 1, epsabs=1e-14)
        assert bump_mass() == val

    def test_bump_mass_by_gauss_legendre(self):
        # the integrand is C^infinity with every derivative zero at +-1, so
        # the rule has converged to roundoff by 100 nodes
        nodes, weights = np.polynomial.legendre.leggauss(100)
        assert weights @ bump(nodes) == pytest.approx(bump_mass(), rel=1e-14, abs=0)

    def test_smooth_step_is_the_whole_array_formula(self):
        # exponentials taken only inside (0, 1), bit for bit the formula
        # that takes them over the whole array and keeps them there
        near = np.concatenate([np.linspace(-1e-12, 1e-12, 2001), [5e-324, -5e-324]])
        s = np.concatenate([np.linspace(-0.5, 1.5, 200001), near, 1.0 + near, [0.0, 1.0]])
        mid = ~((s <= 0) | (s >= 1))
        with np.errstate(over="ignore"):
            a = np.exp(-1.0 / np.where(mid, s, 0.5))
            b = np.exp(-1.0 / np.where(mid, 1.0 - s, 0.5))
            steps = smooth_step(s), smooth_step(np.stack([s, s]))[1]
        want = np.where(s >= 1, 1.0, 0.0)
        want[mid] = (a / (a + b))[mid]
        assert all(np.array_equal(step, want) for step in steps)
        assert smooth_step(0.5) == 0.5 and smooth_step(0.0) == 0.0 and smooth_step(1.0) == 1.0

    def test_validity_domain(self):
        with pytest.raises(DomainError):
            PacketParams(RayVelocity(-3e-4, 0.0), 100.0)  # v < t^{-2/3}
        with pytest.raises(DomainError):
            PacketParams(VEL, 0.0)
        with pytest.raises(DomainError):
            PacketParams(RayVelocity(3.0, 0.0), 10.0)  # elliptic ray


class TestBuildPacket:
    def test_leading_identity_scale(self):
        ratios = []
        for t in (10.0, 40.0, 160.0):
            g = ray_grid(t)
            p = PacketParams(VEL, t)
            diff = build_packet(p, g).samples - packet_leading(p, g).samples
            ratios.append(np.abs(diff).max() / p.lambda1)
        assert all(1.0 < r < 2.0 for r in ratios)
        assert max(ratios) - min(ratios) < 0.1 * min(ratios)

    def test_mass_scales_linearly_in_t(self):
        vals = []
        for t in (90.0, 180.0):
            g = ray_grid(t, Lx=320.0, Ly=160.0)
            psi = build_packet(PacketParams(VEL, t), g)
            vals.append(g.hx * g.hy * np.sum(np.abs(psi.samples)) / t)
        assert abs(vals[1] - vals[0]) < 0.05 * vals[0]

    def test_local_frequency_at_center(self):
        t = 160.0
        g = ray_grid(t, nx=1024, ny=512)
        psi = build_packet(PacketParams(VEL, t), g)
        dx_psi = derivative(psi, dx_order=1)
        ix = np.argmin(np.abs(g.x - VEL.v1 * t))
        iy = np.argmin(np.abs(g.y - VEL.v2 * t))
        local = (dx_psi.samples[ix, iy] / psi.samples[ix, iy]).imag
        assert local == pytest.approx(1.0, rel=0.03)

    @pytest.mark.parametrize("t", PACKET_TIMES)
    def test_leading_forms_are_the_full_grid_evaluation(self, t):
        # evaluated on the support columns only, bit for bit the whole grid's
        g, p = theorem_suite_configs()["packet"].grid, PacketParams(VEL, t)
        alpha, beta, phase = full_grid_envelope(p, g)
        ba, bb = bump_normalized(alpha), bump_normalized(beta)
        chi = ba * bb
        assert np.array_equal(packet_leading(p, g).samples, chi * phase)
        chi_a = bump_d1(alpha) * bb
        chi_b = ba * bump_d1(beta)
        chi_aa = bump_d2(alpha) * bb
        chi_bb = ba * bump_d2(beta)
        bracket = (chi + 0.5 * (alpha * chi_a + beta * chi_b)
                   + 1j * np.sqrt(3.0) * (chi_aa + chi_bb))
        assert np.array_equal(_leading_bracket(p, g).samples, bracket * phase / t)

    def test_support_must_fit(self):
        # envelope support straddling the half-box edge trips the check
        g = Grid2D(256, 64, 128.0, 64.0, -90.0, 0.0)
        with pytest.raises(DomainError):
            build_packet(PacketParams(VEL, 40.0), g)


class TestGamma:
    def test_zero_field(self):
        t = 40.0
        g = ray_grid(t)
        assert gamma(RealField(g, np.zeros(g.shape), t),
                     PacketParams(VEL, t)) == 0.0

    def test_grid_mismatch(self):
        t = 40.0
        g = ray_grid(t)
        psi = build_packet(PacketParams(VEL, t), g)
        other = Grid2D(128, 64, 40.0, 20.0, 0.0, 0.0)
        with pytest.raises(GridMismatchError):
            gamma(RealField(other, np.zeros(other.shape), t),
                  PacketParams(VEL, t), psi=psi)

    def test_synthetic_packet_pairing(self):
        # u_x = 2/t Re(chi e^{i phi}) pairs to the envelope's squared mass
        t = 40.0
        g = ray_grid(t)
        p = PacketParams(VEL, t)
        lead = packet_leading(p, g)
        u = derivative(project_field(
            RealField(g, 2.0 / t * lead.samples.real, t)), dx_order=-1)
        s = np.linspace(-1.0, 1.0, 20001)
        b2 = np.trapezoid(bump_normalized(s) ** 2, dx=s[1] - s[0])
        assert gamma(u, p) == pytest.approx(b2 * b2, rel=0.02)

    def test_flat_envelope_recovers_coefficient(self):
        t = 40.0
        g = ray_grid(t)
        c0 = 0.03 * np.exp(0.7j)
        u = flat_envelope_ux(g, t, c0)
        assert gamma(u, PacketParams(VEL, t)) == pytest.approx(c0, rel=0.02)

    @pytest.mark.parametrize("t", PACKET_TIMES)
    def test_pairing_by_parts_is_the_spectral_pairing(self, packet_run, t):
        u, p = packet_run.field_at(t), PacketParams(VEL, t)
        ref = spectral_gamma(u, p)
        gam = _pair(_Spectrum.of(u).d(1), p)[0]

        def close(g):
            return abs(g - ref) <= 1e-12 * abs(ref)
        assert close(gam)
        # the bound tells a flipped sign of the by-parts step, or v^{+1/2}
        # in place of v^{-1/2}, apart
        assert not close(-gam) and not close(gam * p.vel.v)

    def test_reconstruction_error_reuses_pairing(self, linear_run_t40):
        u, p = linear_run_t40, PacketParams(VEL, 40.0)
        assert _pair(_Spectrum.of(u).d(1), p) == (gamma(u, p), reconstruction_error(u, p))

    def test_uniform_bound_on_linear_solution(self, linear_run_t40):
        u = linear_run_t40
        t = 40.0
        gam = gamma(u, PacketParams(VEL, t))
        ux_sup = sup_norm(derivative(u, dx_order=1))
        assert abs(gam) <= t * ux_sup * (1 + 1e-6)

    def test_simplified_kernel_agreement(self):
        # pairing against chi e^{i phi} instead of the full packet differs
        # by at most C v^{1/4} t^{-1/2} |gamma|
        c0 = 0.03 * np.exp(0.7j)
        for t in (10.0, 40.0, 160.0):
            g = ray_grid(t)
            p = PacketParams(VEL, t)
            u = flat_envelope_ux(g, t, c0)
            full = gamma(u, p)
            simplified = gamma(u, p, psi=packet_leading(p, g))
            assert abs(full - simplified) <= 0.3 * VEL.v**0.25 * t**-0.5 * abs(full)

    def test_frequency_mismatch_suppression(self, linear_run_t40):
        # the pairing sees u^{hyp,+}; the conjugate and elliptic parts are
        # suppressed by the phase mismatch
        u = linear_run_t40
        t = 40.0
        g = u.grid
        up, _ = split_sign_frequencies(u)
        hyp = np.zeros(g.shape, dtype=complex)
        ell = np.zeros(g.shape, dtype=complex)
        for piece in dyadic_decompose(up):
            split = hyperbolic_elliptic_split(piece)
            hyp += split.hyp.samples
            ell += split.ell.samples
        psi = build_packet(PacketParams(VEL, t), g)

        def pair(samples):
            wx = derivative(ComplexField(g, samples, t), dx_order=1)
            return abs(complex(g.hx * g.hy
                               * np.sum(wx.samples * np.conj(psi.samples))))

        main = pair(hyp)
        assert main > 100 * pair(np.conj(hyp))
        assert main > 100 * pair(ell + np.conj(ell))


class TestPacketResidual:
    def test_remainder_decay(self):
        series = []
        lead_ratios = []
        for t in (40.0, 66.0, 108.0, 180.0, 320.0):
            g = ray_grid(t, nx=1024, ny=512)
            p = PacketParams(VEL, t)
            res = packet_residual(p, g)
            series.append((t, res.remainder_sup))
            psi_sup = sup_norm(build_packet(p, g))
            lead_ratios.append(res.leading_sup / (psi_sup / t))
        fit = fit_decay(series, (40.0, 320.0))
        assert fit.exponent == pytest.approx(-1.5, abs=0.2)
        # leading terms scale exactly like t^{-1} x packet size
        assert max(lead_ratios) - min(lead_ratios) < 0.05 * min(lead_ratios)


class TestReconstruction:
    def test_zero_field(self):
        t = 40.0
        g = ray_grid(t)
        err = reconstruction_error(RealField(g, np.zeros(g.shape), t),
                                   PacketParams(VEL, t))
        assert err == 0.0

    def test_synthetic_packet(self):
        t = 40.0
        g = ray_grid(t)
        c0 = 0.03 * np.exp(0.7j)
        u = flat_envelope_ux(g, t, c0)
        err = reconstruction_error(u, PacketParams(VEL, t))
        ux_ray = 2.0 / t * abs(c0)  # |u_x| envelope at the ray point
        assert err < 0.05 * ux_ray

    def test_point_value_is_exact_off_the_grid(self):
        # a band-limited real field (no Nyquist content) is its own
        # trigonometric interpolant, so it is exact at any point
        g = Grid2D(32, 16, 12.0, 6.0, 0.7, -0.4)
        rng = np.random.default_rng(11)
        modes = [(2 * np.pi * rng.integers(-15, 16) / g.Lx, 2 * np.pi * rng.integers(-7, 8) / g.Ly,
                  rng.standard_normal(), rng.uniform(0, 2 * np.pi)) for _ in range(12)]

        def f(x, y):
            return sum(a * np.cos(k * x + l * y + ph) for k, l, a, ph in modes)

        S = _Spectrum.of(RealField(g, f(g.XA, g.YA), 0.0))
        scale = np.abs(S.samples).max()
        for x, y in rng.uniform(-20.0, 20.0, (25, 2)):
            assert abs(_point_value(S, x, y) - f(x, y)) <= 1e-13 * scale

    def test_point_value_reads_nyquist_lines_as_cosines(self):
        g = Grid2D(32, 16, 12.0, 6.0, 0.7, -0.4)

        def f(x, y):
            x, y = x - g.x[0], y - g.y[0]
            return (np.cos(np.pi / g.hx * x) * np.sin(2 * np.pi * 3 / g.Ly * y + 0.3)
                    + np.sin(2 * np.pi * 5 / g.Lx * x + 0.2) * np.cos(np.pi / g.hy * y))

        S = _Spectrum.of(RealField(g, f(g.XA, g.YA), 0.0))
        for x, y in np.random.default_rng(13).uniform(-20.0, 20.0, (25, 2)):
            assert abs(_point_value(S, x, y) - f(x, y)) <= 1e-13

    def test_point_value_at_nodes_is_the_sample(self):
        g = Grid2D(32, 16, 12.0, 6.0, 0.7, -0.4)
        rng = np.random.default_rng(12)
        S = _Spectrum.of(RealField(g, rng.standard_normal(g.shape), 0.0))  # Nyquist content too
        for j, k in zip(rng.integers(0, g.nx, 25), rng.integers(0, g.ny, 25)):
            assert abs(_point_value(S, g.x[j], g.y[k]) - S.samples[j, k]) <= 1e-13

    def test_ray_point_must_be_trusted(self):
        g = Grid2D(512, 256, 256.0, 128.0, 0.0, 0.0)  # ray point at x=-120
        u = RealField(g, np.zeros(g.shape), 40.0)
        with pytest.raises(DomainError):
            reconstruction_error(u, PacketParams(VEL, 40.0))


class TestGammaDotSeries:
    def test_constant_series(self):
        times = np.linspace(10.0, 20.0, 9)
        series = GammaSeries(VEL, [(t, 0.3 + 0.1j) for t in times])
        assert all(v == 0.0 for _, v in gamma_dot_series(series))

    def test_analytic_power_law(self):
        times = np.geomspace(10.0, 40.0, 25)
        series = GammaSeries(VEL, [(t, complex(t ** (-13.0 / 12.0)))
                                   for t in times])
        for t, v in gamma_dot_series(series):
            exact = 13.0 / 12.0 * t ** (-25.0 / 12.0)
            assert v == pytest.approx(exact, rel=0.01)

    def test_too_few_samples(self):
        series = GammaSeries(VEL, [(10.0, 1 + 0j), (11.0, 1 + 0j)])
        with pytest.raises(InvalidInputError):
            gamma_dot_series(series)

    def test_times_must_increase(self):
        with pytest.raises(InvalidInputError):
            GammaSeries(VEL, [(10.0, 0j), (10.0, 0j), (11.0, 0j)])

    def test_validity_domain(self):
        slow = RayVelocity(-3e-4, 0.0)
        with pytest.raises(DomainError):
            GammaSeries(slow, [(10.0, 0j), (11.0, 0j), (12.0, 0j)])
