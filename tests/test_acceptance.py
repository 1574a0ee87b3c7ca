"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test prints a single ``CRITERION n: PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure) and asserts every check it
covers. Tolerances are pinned constants, stated inline.
"""

import csv
import math

import numpy as np
import pytest

from kpwave.decompose import (
    dyadic_decompose,
    hyperbolic_elliptic_split,
    split_sign_frequencies,
)
from kpwave.evolution import (
    SolverConfig,
    apply_symmetry,
    evolve,
    galilean_fourier_map,
    linear_propagate,
    nonlinear_term,
)
from kpwave.geometry import RayVelocity, resonant_triad
from kpwave.grids import (
    ComplexField,
    Grid2D,
    Multiplier,
    RealField,
    SpectralField,
    apply_multiplier,
    forward_transform,
    inverse_transform,
    l2_inner,
    l2_norm,
    multiplier_dx,
    multiplier_dy,
    project_field,
    project_zero_xmodes,
    spectral_l2_norm,
    sup_norm,
)
from kpwave.harness import fit_decay, run_experiment, theorem_suite_configs
from kpwave.packets import PacketParams, build_packet, packet_leading, packet_residual
from kpwave.scattering import compute_umod, extract_scatter_data
from kpwave.vfields import (
    VectorFieldId,
    apply_vector_field,
    derivative,
    x_norm,
    z_coordinate,
)

from conftest import gaussian_field, random_field, random_spectral

pytestmark = pytest.mark.filterwarnings(
    "ignore::kpwave.vfields.UntrustedFieldWarning")

SUITE = theorem_suite_configs()


def _verdict(num, title, checks):
    """checks: list of (label, bool). Print one verdict line, then assert."""
    failed = [label for label, ok in checks if not ok]
    print(f"CRITERION {num}: {'FAIL' if failed else 'PASS'} - {title}")
    assert not failed, f"criterion {num} ({title}) failed checks: {failed}"


def _suite_run(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    return run_experiment(SUITE[name], out)


def _column(path, name, tname="t[code-units]"):
    with open(path) as fh:
        return [(float(r[tname]), float(r[name]))
                for r in csv.DictReader(fh) if r[name] != ""]


@pytest.fixture(scope="module")
def linear_decay_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "linear_decay")


@pytest.fixture(scope="module")
def conservation_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "conservation")


@pytest.fixture(scope="module")
def energy_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "energy")


@pytest.fixture(scope="module")
def profile_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "profile")


@pytest.fixture(scope="module")
def packet_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "packet")


@pytest.fixture(scope="module")
def scatter_run(tmp_path_factory):
    return _suite_run(tmp_path_factory, "scatter")


def test_criterion_01_spectral_algebra(grid, rng):
    checks = []
    # Parseval and round trip on random fields
    pars, trip = [], []
    for _ in range(5):
        f = random_field(grid, rng)
        a, b = l2_norm(f), spectral_l2_norm(forward_transform(f))
        pars.append(abs(a - b) <= 1e-12 * a)
        back = inverse_transform(forward_transform(f))
        trip.append(np.abs(back.samples - f.samples).max()
                    <= 1e-13 * np.abs(f.samples).max())
    checks.append(("parseval 1e-12", all(pars)))
    checks.append(("round trip 1e-13", all(trip)))
    # composed multipliers equal the single pointwise product (to the ulp)
    F = random_spectral(grid, rng)
    m1, m2 = multiplier_dx(grid, -1), multiplier_dy(grid, 2)
    one = apply_multiplier(F, Multiplier(m1.values * m2.values, "dx^-1 dy^2"))
    two = apply_multiplier(apply_multiplier(F, m1), m2)
    checks.append(("multiplier composition",
                   np.abs(two.coeffs - one.coeffs).max()
                   <= 4e-16 * np.abs(one.coeffs).max()))
    # zero-mode projection: idempotent and self-adjoint
    once = project_zero_xmodes(F)
    checks.append(("projection idempotent",
                   np.array_equal(once.coeffs,
                                  project_zero_xmodes(once).coeffs)))
    f, h = random_field(grid, rng), random_field(grid, rng)

    def proj(u):
        return inverse_transform(project_zero_xmodes(forward_transform(u)))

    lhs, rhs = l2_inner(proj(f), h), l2_inner(f, proj(h))
    checks.append(("projection self-adjoint 1e-12",
                   abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))))
    _verdict(1, "spectral algebra", checks)


def test_criterion_02_linear_propagator(grid, rng, linear_decay_run):
    checks = []
    F = random_spectral(grid, rng)
    one = linear_propagate(linear_propagate(F, 0.7), 1.6)
    two = linear_propagate(F, 2.3)
    checks.append(("group property 1e-13",
                   np.abs(one.coeffs - two.coeffs).max()
                   <= 1e-13 * np.abs(F.coeffs).max()))
    checks.append(("unitarity 1e-13",
                   abs(spectral_l2_norm(one) - spectral_l2_norm(F))
                   <= 1e-13 * spectral_l2_norm(F)))
    # plane wave solves the linear equation (centered-difference residual)
    g = Grid2D(64, 32, 2 * np.pi * 4, 2 * np.pi * 2, 0.0, 0.0)
    k, l = 2 * np.pi / g.Lx * 4, 2 * np.pi / g.Ly * 2
    u0 = RealField(g, np.cos(k * g.XA + l * g.YA), 0.0)
    Fp = forward_transform(u0)
    h = 3e-5
    dtu = (inverse_transform(linear_propagate(Fp, h)).samples
           - inverse_transform(linear_propagate(Fp, -h)).samples) / (2 * h)
    resid = (dtu + derivative(u0, dx_order=3).samples
             - derivative(u0, dx_order=-1, dy_order=2).samples)
    checks.append(("plane-wave residual 1e-8", np.abs(resid).max() < 1e-8))
    # dispersive decay of a localized free wave
    fit = fit_decay(_column(linear_decay_run / "sup.csv", "sup_u"), (5.0, 50.0))
    checks.append(("sup|u| exponent -1 +- 0.1", abs(fit.exponent + 1.0) <= 0.1))
    _verdict(2, "linear propagator", checks)


def test_criterion_03_conservation_convergence(conservation_run):
    checks = []
    l2 = _column(conservation_run / "norms.csv", "l2")
    n0 = l2[0][1]
    drift = max(abs(v - n0) for _, v in l2) / n0
    checks.append(("L2 drift < 1e-10 on [0, 20]", drift < 1e-10))
    # Richardson self-convergence of the stepper
    g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
    u0 = gaussian_field(g, amp=0.5, sx=2.0, sy=2.0, kx=1.0)
    sols = [evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=0.5)).snapshots[-1].samples
            for dt in (0.0125, 0.00625, 0.003125)]
    e1 = np.sqrt(np.mean((sols[0] - sols[1]) ** 2))
    e2 = np.sqrt(np.mean((sols[1] - sols[2]) ** 2))
    checks.append(("self-convergence order >= 3.8", math.log2(e1 / e2) >= 3.8))
    _verdict(3, "conservation and convergence", checks)


def test_criterion_04_symmetry_covariance():
    checks = []
    # Galilean boost commutes with the nonlinear flow
    g = Grid2D(64, 96, 10.0, 20.0, 0.0, 0.0)
    c = 0.5  # c * Ly = Lx: admissible shear
    u0 = gaussian_field(g, amp=0.01, sx=2.0, sy=2.5, kx=1.5)
    T, dt = 0.5, 0.005
    ev_tr = apply_symmetry(
        evolve(u0, SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1],
        "galilean", c)
    tr_ev = evolve(apply_symmetry(u0, "galilean", c),
                   SolverConfig(dt=dt, t0=0.0, t_end=T)).snapshots[-1]
    diff = l2_norm(RealField(g, ev_tr.samples - tr_ev.samples, T))
    checks.append(("galilean commutation 1e-6", diff <= 1e-6 * l2_norm(tr_ev)))
    # scaling map commutes with the flow across rescaled boxes
    gs = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
    lam = 2.0
    v0 = gaussian_field(gs, amp=0.2, sx=2.0, sy=2.0, kx=1.0)
    vT = evolve(v0, SolverConfig(dt=0.004, t0=0.0, t_end=0.4)).snapshots[-1]
    ev_tr = apply_symmetry(vT, "scaling", lam)
    v0s = apply_symmetry(v0, "scaling", lam)
    tr_ev = evolve(RealField(v0s.grid, v0s.samples, 0.0),
                   SolverConfig(dt=0.004 / lam**3, t0=0.0,
                                t_end=0.4 / lam**3)).snapshots[-1]
    diff = l2_norm(RealField(v0s.grid, ev_tr.samples - tr_ev.samples, 0.0))
    checks.append(("scaling commutation 1e-6", diff <= 1e-6 * l2_norm(tr_ev)))
    # Fourier-side boost formula at sampled modes
    gf = Grid2D(32, 32, 10.0, 20.0, 0.0, 0.0)
    F = random_spectral(gf, np.random.default_rng(5))
    out = galilean_fourier_map(SpectralField(gf, F.coeffs, 1.25), 0.5)
    deta = 2 * np.pi / gf.Ly
    ok = True
    for (j, k) in [(1, 2), (3, -4), (-2, 5), (5, 0)]:
        xi, eta = gf.XI[j, k], gf.ETA[j, k]
        shift = int(round(0.5 * xi / deta))
        want = (F.coeffs[j, (k + shift) % gf.ny]
                * np.exp(-1j * 0.25 * 1.25 * xi) * np.exp(-1j * 1.25 * eta))
        ok = ok and abs(out.coeffs[j, k] - want) < 1e-10
    checks.append(("fourier galilean formula 1e-10", ok))
    _verdict(4, "symmetry covariance", checks)


def test_criterion_05_vector_field_algebra(rng):
    checks = []
    # L_x, L_y commute with the linear flow (datum away from low xi, where
    # the propagator phase outruns the frequency lattice)
    g = Grid2D(512, 128, 160.0, 60.0, 0.0, 0.0)
    c = np.exp(-((np.abs(g.XI) - 1.0) / 0.17) ** 2 - (g.ETA / 0.5) ** 2)
    c[0, :] = 0.0
    u0 = inverse_transform(SpectralField(g, (c * g.dealias_mask) + 0j, 0.0))
    t = 0.3
    for tag in ("Lx", "Ly"):
        lu0 = apply_vector_field(VectorFieldId(tag, 0.0), u0)
        path1 = inverse_transform(linear_propagate(
            project_zero_xmodes(forward_transform(lu0)), t))
        ut = inverse_transform(linear_propagate(forward_transform(u0), t))
        lut = apply_vector_field(VectorFieldId(tag, t),
                                 RealField(g, ut.samples, t))
        path2 = inverse_transform(project_zero_xmodes(forward_transform(lut)))
        diff = l2_norm(RealField(g, path1.samples - path2.samples, t))
        checks.append((f"{tag} flow commutation 1e-11",
                       diff <= 1e-11 * l2_norm(path2)))
    # Lz dx = -S0 + (1/(4t)) Ly^2 dx - 1/2 at t = 2 on smooth random data
    g2 = Grid2D(128, 64, 40.0, 20.0, 0.0, 0.0)
    t2 = 2.0
    w = random_field(g2, rng, 6.0).samples * np.exp(
        -(g2.XC / (g2.Lx / 12)) ** 2 - (g2.YC / (g2.Ly / 12)) ** 2)
    u = derivative(RealField(g2, w, 0.0), dx_order=1)
    ux = derivative(u, dx_order=1)
    lhs = apply_vector_field(VectorFieldId("Lz", t2), ux)
    ly = VectorFieldId("Ly", t2)
    ly2dx = apply_vector_field(ly, apply_vector_field(ly, ux))
    s0 = apply_vector_field(VectorFieldId("S0", t2), u)
    rhs = -s0.samples + ly2dx.samples / (4 * t2) - 0.5 * u.samples
    checks.append(("Lz dx operator identity 1e-10",
                   np.abs(lhs.samples - rhs).max() <= 1e-10 * np.abs(rhs).max()))
    # w = Su solves the linearized equation along the nonlinear flow
    g3 = Grid2D(512, 256, 160.0, 80.0, 0.0, 0.0)
    u0n = gaussian_field(g3, amp=0.05, sx=3.0, sy=3.0, kx=1.0)
    h, t0 = 0.005, 0.2
    traj = evolve(u0n, SolverConfig(dt=h, t0=0.0, t_end=t0 + 2 * h))
    inner = (np.abs(g3.XC) <= g3.Lx / 4) & (np.abs(g3.YC) <= g3.Ly / 4)

    def cnorm(arr):
        return float(np.sqrt(g3.hx * g3.hy * np.sum(arr[inner] ** 2)))

    def Su(u, tt):
        u_t = (-derivative(u, dx_order=3).samples
               + derivative(u, dx_order=-1, dy_order=2).samples
               + nonlinear_term(u).samples)
        return RealField(g3, 3 * tt * u_t
                         + g3.XA * derivative(u, dx_order=1).samples
                         + 2 * g3.YA * derivative(u, dy_order=1).samples
                         + 2 * u.samples, tt)

    ts = [t0 - h, t0, t0 + h]
    ws = [Su(traj.field_at(tt), tt) for tt in ts]
    wdot = (ws[2].samples - ws[0].samples) / (2 * h)
    wmid, umid = ws[1], traj.field_at(t0)
    uw = RealField(g3, umid.samples * wmid.samples, t0)
    resid = (wdot + derivative(wmid, dx_order=3).samples
             - derivative(wmid, dx_order=-1, dy_order=2).samples
             + derivative(uw, dx_order=1).samples)
    scale = max(cnorm(wdot), cnorm(derivative(wmid, dx_order=3).samples))
    checks.append(("Su solves linearized (2e-3 of term size)",
                   cnorm(resid) <= 2e-3 * scale))
    _verdict(5, "vector-field algebra", checks)


def test_criterion_06_energy_growth(rng, energy_run):
    checks = []
    fit = fit_decay(_column(energy_run / "norms.csv", "x_total"), (1.0, 100.0))
    checks.append(("X-norm growth exponent <= 0.1", fit.exponent <= 0.1))
    # Gronwall differential inequality along the linearized flow
    from kpwave.evolution import evolve_linearized
    g = Grid2D(64, 32, 20.0, 10.0, 0.0, 0.0)
    u0 = gaussian_field(g, amp=0.05, sx=2.0, sy=2.0, kx=1.0)
    bg = evolve(u0, SolverConfig(dt=0.005, t0=0.0, t_end=2.0))
    traj = evolve_linearized(random_field(g, rng), bg,
                             SolverConfig(dt=0.02, t0=0.0, t_end=2.0,
                                          snapshot_stride=10))
    ok = True
    for a, b in zip(traj.snapshots, traj.snapshots[1:]):
        tm = 0.5 * (a.time_tag + b.time_tag)
        d_sq = (l2_norm(b) ** 2 - l2_norm(a) ** 2) / (b.time_tag - a.time_tag)
        u = bg.field_at(bg.nearest_time(tm))
        bound = (sup_norm(derivative(u, dx_order=1))
                 * 0.5 * (l2_norm(a) ** 2 + l2_norm(b) ** 2))
        ok = ok and d_sq <= bound + 1e-6
    checks.append(("gronwall inequality + 1e-6", ok))
    _verdict(6, "energy growth shadow", checks)


def test_criterion_07_decomposition(grid, rng, profile_run):
    checks = []
    # exact reconstruction through every stage
    u = random_field(grid, rng)
    up, um = split_sign_frequencies(u)
    checks.append(("sign split reconstruction 1e-13",
                   np.abs(up.samples + um.samples - u.samples).max()
                   <= 1e-13 * np.abs(u.samples).max()))
    pieces = dyadic_decompose(up)
    total = sum(p.plus_part.samples for p in pieces)
    checks.append(("dyadic sum 1e-12",
                   np.abs(total - up.samples).max()
                   <= 1e-12 * np.abs(up.samples).max()))
    piece = ComplexField(grid, pieces[0].plus_part.samples, 2.0)
    split = hyperbolic_elliptic_split(type(pieces[0])(pieces[0].lam, piece))
    checks.append(("hyp + ell reconstruction",
                   np.abs(split.hyp.samples + split.ell.samples
                          - piece.samples).max()
                   <= 4e-16 * np.abs(piece.samples).max()))
    # almost orthogonality of the dyadic X norms at delta = 1
    factors = []
    for seed in (1, 2, 3):
        v = random_field(grid, np.random.default_rng(seed))
        vp, _ = split_sign_frequencies(v)
        ps = dyadic_decompose(vp)
        factors.append(sum(x_norm(p.plus_part, 0.0).total ** 2 for p in ps)
                       / x_norm(vp, 0.0).total ** 2)
    checks.append(("almost-orthogonality in [1/2, 2]",
                   all(0.5 <= f <= 2.0 for f in factors)))
    # hyperbolic support: after linear evolution the hyp parts carry no mass
    # at v below the uncertainty floor
    gl = Grid2D(512, 128, 256.0, 128.0, -60.0, 0.0)
    X = gl.XA
    env = np.exp(-(X**2) / 36.0 - gl.YA**2 / 9.0)
    d0 = project_field(RealField(
        gl, 0.01 * ((-2 * X / 36.0) * env * np.cos(X) - env * np.sin(X)), 0.0))
    T = 20.0
    uT = evolve(d0, SolverConfig(dt=1.0, t0=0.0, t_end=T),
                linear=True).snapshots[-1]
    upT, _ = split_sign_frequencies(uT)
    v = z_coordinate(gl, T) / T
    low = v < T ** (-2.0 / 3.0) / 8
    ok = True
    for p in dyadic_decompose(upT):
        s = hyperbolic_elliptic_split(p)
        tot = np.sum(np.abs(s.hyp.samples) ** 2)
        if tot > 0:
            ok = ok and np.sum(np.abs(s.hyp.samples[low]) ** 2) <= 1e-6 * tot
    checks.append(("hyp support above the v floor", ok))
    # pointwise-bound ratio columns stay below one t-independent constant
    with open(profile_run / "profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    worst = {}
    for r in rows:
        t = float(r["t[code-units]"])
        m = max(float(r[cname]) for cname in
                ("ratio_hyp", "ratio_hyp_x", "ratio_ell", "ratio_ell_x"))
        worst[t] = max(worst.get(t, 0.0), m)
    checks.append(("profile ratios <= 2.5 at t in {4, 16, 64}",
                   set(worst) == {4.0, 16.0, 64.0}
                   and max(worst.values()) <= 2.5))
    _verdict(7, "decomposition suite", checks)


def test_criterion_08_wave_packets(packet_run):
    checks = []
    vel = RayVelocity(-3.0, 0.0)
    # leading-order identity: |Psi - chi e^{i phi}| = O(lambda1), with a
    # stable constant across a decade of t
    ratios = []
    for t in (10.0, 40.0, 160.0):
        g = Grid2D(512, 256, 256.0, 128.0, -3.0 * t, 0.0)
        p = PacketParams(vel, t)
        diff = build_packet(p, g).samples - packet_leading(p, g).samples
        ratios.append(np.abs(diff).max() / p.lambda1)
    checks.append(("leading identity O(lambda1)",
                   all(0.5 < r < 3.0 for r in ratios)
                   and max(ratios) - min(ratios) <= 0.1 * min(ratios)))
    # residual remainder exponent at v = 3
    series = []
    for t in (40.0, 66.0, 108.0, 180.0, 320.0):
        g = Grid2D(1024, 512, 256.0, 128.0, -3.0 * t, 0.0)
        res = packet_residual(PacketParams(vel, t), g)
        series.append((t, res.remainder_sup))
    fit = fit_decay(series, (40.0, 320.0))
    checks.append(("remainder exponent -3/2 +- 0.2",
                   abs(fit.exponent + 1.5) <= 0.2))
    # reconstruction error and gamma-dot decay on the small-amplitude run
    rec = fit_decay(_column(packet_run / "gamma.csv", "recon_error"),
                    (10.0, 80.0))
    checks.append(("reconstruction exponent <= -9/8 + 0.15",
                   rec.exponent <= -9.0 / 8.0 + 0.15))
    gd = fit_decay(_column(packet_run / "gamma.csv", "abs_gamma_dot"),
                   (10.0, 80.0))
    checks.append(("|gamma dot| exponent <= -13/12 + 0.2",
                   gd.exponent <= -13.0 / 12.0 + 0.2))
    gam = [v for t, v in _column(packet_run / "gamma.csv", "abs_gamma")
           if 10.0 <= t <= 80.0]
    checks.append(("gamma variation <= 15%",
                   (max(gam) - min(gam)) <= 0.15 * max(gam)))
    _verdict(8, "wave-packet suite", checks)


def test_criterion_09_resonances(rng):
    checks = []
    ok = True
    for _ in range(20):
        xi1 = rng.uniform(0.2, 3.0)
        xi2 = rng.uniform(0.2, 3.0)
        eta1 = rng.uniform(-3.0, 3.0)
        branch = 1 if rng.uniform() < 0.5 else -1
        tr = resonant_triad(xi1, xi2, eta1, branch)
        scale = max(abs(w) for w in tr.omegas)
        ok = ok and abs(tr.residual) <= 1e-12 * max(1.0, scale)
        ok = ok and all(abs(a + b - c) <= 1e-12
                        for a, b, c in zip(tr.k1, tr.k2, tr.k3))
    checks.append(("random triads close to 1e-12", ok))
    tr = resonant_triad(1.0, 1.0, math.sqrt(3.0), 1)
    checks.append(("triad ((1,r3),(1,-r3),(2,0))",
                   np.allclose(tr.k1, (1.0, math.sqrt(3.0)), atol=1e-13)
                   and np.allclose(tr.k2, (1.0, -math.sqrt(3.0)), atol=1e-13)
                   and np.allclose(tr.k3, (2.0, 0.0), atol=1e-13)))
    checks.append(("omega sum 4 + 4 = 8",
                   np.allclose(tr.omegas, (4.0, 4.0, 8.0), atol=1e-12)))
    _verdict(9, "resonance suite", checks)


def test_criterion_10_scattering(scatter_run):
    checks = []
    # single-mode closed form of the quadratic correction
    g = Grid2D(64, 32, 4 * np.pi, 4 * np.pi, 0.0, 0.0)
    xi0, eta0 = 1.0, 0.5
    w = ComplexField(g, np.exp(1j * (xi0 * g.XA + eta0 * g.YA)), 4.0)
    exact = -np.cos(2 * (xi0 * g.XA + eta0 * g.YA)) / (3 * xi0**2)
    checks.append(("single-mode u_mod closed form 1e-12",
                   np.abs(compute_umod(w, lower=xi0).samples - exact).max()
                   <= 1e-12))
    # fitted exponents of the correction and both flow residuals
    umod = fit_decay(_column(scatter_run / "scatter.csv", "umod_l2"),
                     (8.0, 64.0))
    checks.append(("u_mod exponent -3/4 +- 0.1",
                   abs(umod.exponent + 0.75) <= 0.1))
    helper = fit_decay(
        _column(scatter_run / "scatter.csv", "scat_helper_residual"),
        (8.0, 64.0))
    checks.append(("helper residual exponent <= -49/48 + 0.2",
                   helper.exponent <= -49.0 / 48.0 + 0.2))
    modscat = fit_decay(
        _column(scatter_run / "scatter.csv", "modscat_residual"),
        (8.0, 64.0))
    checks.append(("modified residual exponent <= -7/4 + 0.25",
                   modscat.exponent <= -7.0 / 4.0 + 0.25))
    # back-propagation unitarity and Cauchy drift on a dedicated run with
    # dyadically spaced late snapshots
    gs = Grid2D(256, 64, 128.0, 64.0, 0.0, 0.0)
    u0 = gaussian_field(gs, amp=0.05, sx=8.0, sy=6.0, kx=1.0)
    traj = evolve(u0, SolverConfig(dt=0.025, t0=0.0, t_end=40.0),
                  snapshot_times=[0.0, 2.5, 5.0, 10.0, 20.0, 40.0])
    u_sc, drifts = extract_scatter_data(traj, min_fraction=0.1)
    late = traj.snapshots[-1]
    checks.append(("back-propagation unitarity 1e-10",
                   abs(l2_norm(u_sc) - l2_norm(late)) <= 1e-10 * l2_norm(late)))
    vals = [d for _, d in drifts]
    checks.append(("cauchy drift monotone decaying",
                   all(b < a for a, b in zip(vals, vals[1:]))))
    _verdict(10, "scattering suite", checks)
