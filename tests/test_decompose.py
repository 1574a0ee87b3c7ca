"""Sign split, dyadic pieces, hyperbolic/elliptic split, and the profiler."""

import tracemalloc

import numpy as np
import pytest

from kpwave.decompose import (
    DyadicPiece,
    _bin_maxima,
    dyadic_decompose,
    hyperbolic_elliptic_split,
    pointwise_profile,
    split_sign_frequencies,
)
from kpwave.errors import DomainError, InvalidInputError
from kpwave.evolution import SolverConfig, evolve
from kpwave.grids import (
    ComplexField,
    Grid2D,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    l2_norm,
    project_field,
)
from kpwave.harness import build_initial_data, fit_decay, theorem_suite_configs
from kpwave.vfields import x_norm, z_coordinate

from conftest import random_field

# the profiler applies coordinate weights to fields that legitimately fill
# the box; the leakage warnings are expected here
pytestmark = pytest.mark.filterwarnings(
    "ignore::kpwave.vfields.UntrustedFieldWarning")


def spectral_bump(grid, xi0=1.0, sxi=0.17, seta=0.5):
    """Real field whose spectrum is a Gaussian bump centered at x-frequency
    xi0, with negligible content at xi <= 0."""
    c = np.exp(-((np.abs(grid.XI) - xi0) / sxi) ** 2 - (grid.ETA / seta) ** 2)
    c[0, :] = 0.0
    return inverse_transform(SpectralField(grid, (c * grid.dealias_mask) + 0j, 0.0))


def narrowband_pulse(grid, amp, sx, sy, center=0.0):
    """amp * dx(exp(-(x-c)^2/sx^2 - y^2/sy^2) cos(x - c)), projected."""
    X = grid.XA - center
    env = np.exp(-(X**2) / sx**2 - grid.YA**2 / sy**2)
    samples = amp * ((-2 * X / sx**2) * env * np.cos(X) - env * np.sin(X))
    return project_field(RealField(grid, samples, 0.0))


class TestSignSplit:
    def test_cosine_gives_half_exponential(self):
        g = Grid2D(32, 8, 2 * np.pi, 2 * np.pi, 0.0, 0.0)
        u = RealField(g, np.cos(g.XA), 0.0)
        up, um = split_sign_frequencies(u)
        assert np.abs(up.samples - 0.5 * np.exp(1j * g.XA)).max() < 1e-13
        assert np.array_equal(um.samples, np.conj(up.samples))

    def test_reconstruction(self, grid, rng):
        u = random_field(grid, rng)
        up, um = split_sign_frequencies(u)
        assert np.abs(up.samples + um.samples - u.samples).max() < 1e-13
        assert np.abs(2 * up.samples.real - u.samples).max() < 1e-13

    def test_l2_ratio(self, grid, rng):
        for _ in range(5):
            u = random_field(grid, rng)
            up, _ = split_sign_frequencies(u)
            assert l2_norm(up) == pytest.approx(l2_norm(u) / np.sqrt(2), rel=1e-12)

    def test_x_norm_ratio(self):
        # needs data with no content near xi = 0, where the sign cut would
        # couple to the coordinate weights
        g = Grid2D(512, 128, 160.0, 60.0, 0.0, 0.0)
        u = spectral_bump(g)
        up, _ = split_sign_frequencies(u)
        total = x_norm(u, 0.0).total
        assert x_norm(up, 0.0).total == pytest.approx(total / np.sqrt(2), rel=1e-10)

    def test_requires_projection(self, grid):
        u = RealField(grid, 1.0 + 0.0 * grid.XA, 0.0)
        with pytest.raises(InvalidInputError):
            split_sign_frequencies(u)


class TestDyadicDecompose:
    def test_single_mode_one_or_two_pieces(self, grid):
        k = 2 * np.pi / grid.Lx * 5
        u = RealField(grid, np.cos(k * grid.XA), 0.0)
        up, _ = split_sign_frequencies(u)
        pieces = dyadic_decompose(up)
        assert 1 <= len(pieces) <= 2

    def test_pieces_sum_to_input(self, grid, rng):
        up, _ = split_sign_frequencies(random_field(grid, rng))
        pieces = dyadic_decompose(up)
        total = sum(p.plus_part.samples for p in pieces)
        scale = np.abs(up.samples).max()
        assert np.abs(total - up.samples).max() < 1e-12 * scale

    def test_almost_orthogonality(self, grid):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            u = random_field(grid, rng)
            up, _ = split_sign_frequencies(u)
            pieces = dyadic_decompose(up)
            total = x_norm(up, 0.0).total ** 2
            parts = sum(x_norm(p.plus_part, 0.0).total ** 2 for p in pieces)
            assert 0.5 <= parts / total <= 2.0

    def test_rejects_negative_frequency_content(self, grid, rng):
        u = random_field(grid, rng)
        with pytest.raises(InvalidInputError):
            dyadic_decompose(ComplexField(grid, u.samples + 0j, 0.0))


def ray_packet(grid, t, lam, v_center, sx=1.5, sy=2.0):
    """Single-scale complex packet localized at v = v_center on the grid."""
    x_loc = -v_center * t
    env = np.exp(-((grid.XA - x_loc) / sx) ** 2 - (grid.YA / sy) ** 2)
    samples = env * np.exp(1j * lam * grid.XA)
    return DyadicPiece(lam, ComplexField(grid, samples, t))


class TestHypEllSplit:
    def test_exact_reconstruction(self):
        g = Grid2D(128, 32, 80.0, 20.0, -10.0, 0.0)
        piece = ray_packet(g, 4.0, 1.0, 3.0)
        split = hyperbolic_elliptic_split(piece)
        scale = np.abs(piece.plus_part.samples).max()
        assert np.abs(split.hyp.samples + split.ell.samples
                      - piece.plus_part.samples).max() < 4e-16 * scale

    def test_field_on_the_ray_is_hyperbolic(self):
        g = Grid2D(128, 32, 80.0, 20.0, -10.0, 0.0)
        piece = ray_packet(g, 4.0, 1.0, 3.0)
        split = hyperbolic_elliptic_split(piece)
        assert l2_norm(split.ell) < 1e-6 * l2_norm(piece.plus_part)

    def test_field_at_negative_v_is_elliptic(self):
        g = Grid2D(128, 32, 80.0, 20.0, 10.0, 0.0)
        piece = ray_packet(g, 4.0, 1.0, -3.0)
        split = hyperbolic_elliptic_split(piece)
        # the Gaussian envelope is not compactly supported; only its far
        # tail can meet the cutoff region
        assert l2_norm(split.hyp) < 1e-14 * l2_norm(piece.plus_part)

    def test_small_scales_are_elliptic(self):
        g = Grid2D(128, 32, 80.0, 20.0, -10.0, 0.0)
        t = 4.0
        lam = 0.5 * t ** (-1.0 / 3.0)
        piece = ray_packet(g, t, lam, 3 * lam**2)
        split = hyperbolic_elliptic_split(piece)
        assert np.all(split.hyp.samples == 0)
        assert np.array_equal(split.ell.samples, piece.plus_part.samples)

    def test_early_time_rejected(self):
        g = Grid2D(128, 32, 80.0, 20.0, -10.0, 0.0)
        piece = ray_packet(g, 0.5, 1.0, 3.0)
        with pytest.raises(DomainError):
            hyperbolic_elliptic_split(piece)


class TestLinearRunConcentration:
    """After linear evolution, each dyadic piece concentrates on its ray
    v = 3 lambda^2 (stationary phase)."""

    def test_dominant_piece_at_t20(self):
        g = Grid2D(512, 128, 256.0, 128.0, -60.0, 0.0)
        u0 = narrowband_pulse(g, amp=0.01, sx=6.0, sy=3.0)
        T = 20.0
        traj = evolve(u0, SolverConfig(dt=1.0, t0=0.0, t_end=T), linear=True)
        u = traj.snapshots[-1]
        up, _ = split_sign_frequencies(u)
        pieces = dyadic_decompose(up)
        dom = max(pieces, key=lambda p: l2_norm(p.plus_part))
        split = hyperbolic_elliptic_split(dom)
        mass = l2_norm(dom.plus_part)
        assert l2_norm(split.hyp) > 0.9 * mass

        v = z_coordinate(g, T) / T
        window = (v >= 3 * dom.lam**2 * 0.5) & (v <= 3 * dom.lam**2 * 1.5)
        in_window = np.sqrt(g.hx * g.hy
                            * np.sum(np.abs(dom.plus_part.samples[window]) ** 2))
        assert in_window > 0.9 * mass

        # the hyperbolic part lives at v well above t^{-2/3}
        low = v < T ** (-2.0 / 3.0) / 8
        low_mass = np.sum(np.abs(split.hyp.samples[low]) ** 2)
        assert low_mass < 1e-6 * np.sum(np.abs(split.hyp.samples) ** 2)

    def test_cutoff_spectral_tails(self):
        # the spatial cutoff spreads x-frequency only below 1e-8 once
        # t^{1/3} lambda >= 4
        g = Grid2D(1024, 256, 880.0, 360.0, -128.0, 0.0)
        u0 = narrowband_pulse(g, amp=0.01, sx=16.0, sy=16.0, center=-60.0)
        T = 64.0
        traj = evolve(u0, SolverConfig(dt=4.0, t0=0.0, t_end=T), linear=True)
        up, _ = split_sign_frequencies(traj.snapshots[-1])
        for piece in dyadic_decompose(up):
            if T ** (1.0 / 3.0) * piece.lam < 4.0 or piece.lam > 1.5:
                continue
            split = hyperbolic_elliptic_split(piece)
            F = forward_transform(split.hyp)
            band = ((np.abs(g.XI) >= piece.lam * 2**-1.5)
                    & (np.abs(g.XI) <= piece.lam * 2**1.5))
            tail = np.sum(np.abs(F.coeffs[~band]) ** 2)
            assert tail < 1e-8 * np.sum(np.abs(F.coeffs) ** 2)


class TestBinMaxima:
    def test_matches_a_mask_per_bin(self, rng):
        edges = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        # on an edge (the lower bin), in the catch-all, past the last edge,
        # and nothing in (0.4, 0.8]
        v = np.concatenate([[0.2, 0.1, 1.6, 0.05, -3.0, 2.0],
                            rng.uniform(0.1, 0.4, 40), rng.uniform(0.8, 1.6, 30)])
        f = rng.standard_normal((2, v.size))
        f[0, 0] = 10.0  # the max of (0.1, 0.2] sits on its upper edge
        order = rng.permutation(v.size)
        v, f = v[order].reshape(4, 19), f[:, order].reshape(2, 4, 19)
        masks = [v <= edges[0]] + [(v > lo) & (v <= hi) for lo, hi in zip(edges, edges[1:])]
        want = [i for i, m in enumerate(masks) if np.any(m)]
        bins, maxima = _bin_maxima(v, edges, f)
        assert want == [0, 1, 2, 4] and bins.tolist() == want
        for field, got in zip(f, maxima):
            assert got.tolist() == [np.abs(field[masks[i]]).max() for i in want]
        assert maxima[0][1] == 10.0


class TestPointwiseProfile:
    def test_working_memory_on_the_profile_grid(self):
        """The tracemalloc peak of one call on the canned profile grid
        (1024x256) at t = 4, in full complex arrays of that grid: 10.6 when
        each dyadic piece is finished and dropped before the next, the
        v-bins are found in one pass and each fresh spectrum is inverted in
        place; 21.7 when every piece's fields, the bin masks and the copies
        of fresh buffers lived until the return."""
        cfg = theorem_suite_configs()["profile"]
        g = cfg.grid
        traj = evolve(build_initial_data(cfg), cfg.solver, snapshot_times=[0.0, 4.0], linear=True)
        u = traj.field_at(4.0)
        tracemalloc.start()
        pointwise_profile(u, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 11.6 * g.nx * g.ny * 16

    def test_zero_field(self, grid):
        prof = pointwise_profile(RealField(grid, np.zeros(grid.shape), 0.0), 2.0)
        for row in prof.rows:
            assert row.sup_hyp == row.sup_hyp_x == row.sup_ell == row.sup_ell_x == 0.0
        assert prof.hyp_weighted == 0.0
        assert prof.ell_third == 0.0

    def test_early_time_rejected(self, grid, rng):
        with pytest.raises(DomainError):
            pointwise_profile(random_field(grid, rng), 0.5)

    def test_hyperbolic_gradient_decay_on_the_ray(self):
        # small-amplitude nonlinear run: sup |dx u^hyp| on the ray v = 3
        # decays like 1/t
        g = Grid2D(1024, 128, 640.0, 128.0, -160.0, 0.0)
        u0 = narrowband_pulse(g, amp=0.01, sx=8.0, sy=4.0)
        times = [8.0, 16.0, 24.0, 32.0, 48.0, 64.0]
        traj = evolve(u0, SolverConfig(dt=0.05, t0=0.0, t_end=64.0),
                      snapshot_times=[0.0] + times)
        series = []
        for t in times:
            prof = pointwise_profile(traj.field_at(t), t)
            sup = [r.sup_hyp_x for r in prof.rows if r.v_lo <= 3.0 <= r.v_hi]
            series.append((t, sup[0]))
        fit = fit_decay(series, (16.0, 64.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.15)
