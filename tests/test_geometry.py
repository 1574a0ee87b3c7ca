"""Rays, group velocities, the propagation phase, and resonant triads."""

import math

import numpy as np
import pytest

from kpwave.errors import DomainError
from kpwave.evolution import SolverConfig, evolve
from kpwave.geometry import (
    RayVelocity,
    group_velocity,
    phase_phi,
    ray_frequency,
    resonant_triad,
)
from kpwave.grids import Grid2D, RealField, dispersion_omega, forward_transform

from conftest import gaussian_field

SQRT3 = math.sqrt(3.0)


class TestRayFrequency:
    def test_reference_ray(self):
        assert ray_frequency(RayVelocity(-3.0, 0.0)) == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_scaling_family(self):
        for lam in (0.5, 1.0, 2.0):
            xi, eta = ray_frequency(RayVelocity(-3.0 * lam**2, 0.0))
            assert xi == pytest.approx(lam, abs=1e-13)
            assert eta == pytest.approx(0.0, abs=1e-13)

    def test_elliptic_velocity_rejected(self):
        with pytest.raises(DomainError):
            ray_frequency(RayVelocity(1.0, 0.0))

    def test_derived_v(self):
        vel = RayVelocity(-2.0, 2.0)
        assert vel.v == pytest.approx(3.0)
        assert vel.is_admissible

    def test_valid_from_v_to_the_minus_three_halves(self):
        # v = 1 is valid from t = 1 on; no t <= 0 is valid
        vel = RayVelocity(-1.0, 0.0)
        assert [vel.valid_at(t) for t in (-1.0, 0.0, 0.5, 1.0, 8.0)] == [False] * 3 + [True] * 2
        assert RayVelocity(-0.25, 0.0).valid_at(8.0) and not RayVelocity(-0.25, 0.0).valid_at(7.9)


class TestGroupVelocity:
    def test_reference_frequency(self):
        vel = group_velocity(1.0, 0.0)
        assert (vel.v1, vel.v2) == pytest.approx((-3.0, 0.0))

    def test_inverse_pair(self, rng):
        for _ in range(20):
            vel = RayVelocity(rng.uniform(-5, -0.5), rng.uniform(-2, 2))
            if not vel.is_admissible:
                continue
            back = group_velocity(*ray_frequency(vel))
            assert back.v1 == pytest.approx(vel.v1, abs=1e-13)
            assert back.v2 == pytest.approx(vel.v2, abs=1e-13)

    def test_singular_at_zero(self):
        with pytest.raises(DomainError):
            group_velocity(0.0, 1.0)

    def test_packet_transport(self):
        # center of mass of a linear wave packet moves at the group velocity
        xi0, eta0 = 1.0, 0.5
        vel = group_velocity(xi0, eta0)
        # narrow spectral band: the mean group velocity converges to the
        # carrier value only as the frequency spread shrinks
        g = Grid2D(512, 256, 160.0, 80.0, 0.0, 0.0)
        u0 = gaussian_field(g, amp=0.01, sx=12.0, sy=12.0, kx=xi0, ky=eta0)
        T = 8.0
        traj = evolve(u0, SolverConfig(dt=0.1, t0=0.0, t_end=T), linear=True)
        uT = traj.snapshots[-1]

        def com(u):
            w = u.samples**2
            return (np.sum(g.XA * w) / np.sum(w), np.sum(g.YA * w) / np.sum(w))

        x0, y0 = com(u0)
        x1, y1 = com(uT)
        assert abs((x1 - x0) - vel.v1 * T) < 0.05 * abs(vel.v1 * T)
        assert abs((y1 - y0) - vel.v2 * T) < 0.05 * abs(vel.v2 * T)


class TestPhasePhi:
    def test_closed_form_point(self):
        # z = 3, t = 1: phi = -(2/(3 sqrt 3)) * 3^{3/2} = -2
        assert phase_phi(1.0, -3.0, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_zero_on_the_light_surface(self):
        assert phase_phi(2.0, 1.0, 2 * math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            phase_phi(1.0, 1.0, 0.0)

    def test_gradient_is_ray_frequency(self):
        for vel in (RayVelocity(-3.0, 0.0), RayVelocity(-2.0, 1.0), RayVelocity(-1.0, -0.5)):
            t = 7.0
            x, y = vel.v1 * t, vel.v2 * t
            h = 1e-5 * max(1.0, abs(x), abs(y))
            dphix = (phase_phi(t, x + h, y) - phase_phi(t, x - h, y)) / (2 * h)
            dphiy = (phase_phi(t, x, y + h) - phase_phi(t, x, y - h)) / (2 * h)
            xi_v, eta_v = ray_frequency(vel)
            assert dphix == pytest.approx(xi_v, abs=1e-6)
            assert dphiy == pytest.approx(eta_v, abs=1e-6)

    def test_eikonal_equation(self):
        # d_t phi = omega(grad phi) at admissible points
        for (t, x, y) in ((5.0, -10.0, 2.0), (9.0, -4.0, 3.0), (3.0, -2.0, 0.5)):
            h = 1e-5 * max(1.0, abs(x), abs(y), t)
            dphit = (phase_phi(t + h, x, y) - phase_phi(t - h, x, y)) / (2 * h)
            dphix = (phase_phi(t, x + h, y) - phase_phi(t, x - h, y)) / (2 * h)
            dphiy = (phase_phi(t, x, y + h) - phase_phi(t, x, y - h)) / (2 * h)
            assert dphit == pytest.approx(dispersion_omega(dphix, dphiy), abs=1e-6)


class TestResonantTriad:
    def test_reference_triad(self):
        triad = resonant_triad(1.0, 1.0, SQRT3, +1)
        assert triad.k2[1] == pytest.approx(-SQRT3, abs=1e-13)
        assert triad.k3 == pytest.approx((2.0, 0.0))
        w1 = dispersion_omega(*triad.k1)
        w2 = dispersion_omega(*triad.k2)
        w3 = dispersion_omega(*triad.k3)
        assert (w1, w2, w3) == pytest.approx((4.0, 4.0, 8.0), abs=1e-12)

    def test_random_triads_verify(self, rng):
        for _ in range(30):
            xi1 = rng.uniform(0.2, 3.0)
            xi2 = rng.uniform(0.2, 3.0)
            eta1 = rng.uniform(-3.0, 3.0)
            branch = 1 if rng.random() < 0.5 else -1
            triad = resonant_triad(xi1, xi2, eta1, branch)
            ws = [dispersion_omega(*k) for k in (triad.k1, triad.k2, triad.k3)]
            assert abs(ws[0] + ws[1] - ws[2]) < 1e-12 * max(abs(w) for w in ws)
            assert triad.k1[0] + triad.k2[0] == pytest.approx(triad.k3[0], abs=1e-13)
            assert triad.k1[1] + triad.k2[1] == pytest.approx(triad.k3[1], abs=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            resonant_triad(1.0, -1.0, 0.5, +1)

    def test_no_collinear_transport(self, rng):
        # the three waves of a verified triad never share one group velocity
        for _ in range(20):
            triad = resonant_triad(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0),
                                   rng.uniform(-2.0, 2.0), +1)
            vels = [group_velocity(*k) for k in (triad.k1, triad.k2, triad.k3)]
            pair_equal = [
                abs(a.v1 - b.v1) < 1e-9 and abs(a.v2 - b.v2) < 1e-9
                for a, b in ((vels[0], vels[1]), (vels[0], vels[2]), (vels[1], vels[2]))
            ]
            assert not all(pair_equal)
