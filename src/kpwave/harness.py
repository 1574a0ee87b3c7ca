"""Experiment configuration, the run driver with CSV outputs, power-law
fitting, and the canned diagnostic suite."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInputError
from .evolution import SolverConfig, Trajectory, evolve
from .geometry import RayVelocity, resonant_triad
from .grids import (
    Grid2D,
    RealField,
    SpectralField,
    conjugate_mirror,
    inverse_transform,
    project_field,
    project_zero_xmodes,
    save_snapshot,
    sup_norm,
)
from .decompose import pointwise_profile
from .packets import GammaSeries, PacketParams, _pair, gamma_dot_series
from .scattering import extract_scatter_data, scattering_residuals
from .vfields import _Spectrum, derivative, x_norm


def _toolkit_version() -> str:
    try:
        from importlib.metadata import version
        return version("kpwave")
    except Exception:
        return "unknown"


# ---------------------------------------------------------------------------
# configuration

INITIAL_FAMILIES = ("modulated_gaussian", "two_packet")


@dataclass(frozen=True)
class Pulse:
    """One modulated-Gaussian component of the initial data."""

    amplitude: float
    carrier: tuple[float, float]
    sigma: tuple[float, float]
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.amplitude < 0:
            raise ConfigError("initial.amplitude: must be >= 0")
        if not (self.sigma[0] > 0 and self.sigma[1] > 0):
            raise ConfigError("initial.sigma: widths must be positive")


@dataclass(frozen=True)
class InitialSpec:
    """Initial-data family descriptor."""

    family: str
    pulses: tuple[Pulse, ...]
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if self.family not in INITIAL_FAMILIES:
            raise ConfigError(f"initial.family: unknown family {self.family!r}")
        want = 1 if self.family == "modulated_gaussian" else 2
        if len(self.pulses) != want:
            raise ConfigError(
                f"initial.pulses: family {self.family!r} takes {want} pulse(s)")
        if self.noise_amplitude < 0:
            raise ConfigError("initial.noise_amplitude: must be >= 0")

    @property
    def amplitude(self) -> float:
        return max(p.amplitude for p in self.pulses)


@dataclass(frozen=True)
class DiagnosticSpec:
    """One requested diagnostic: kind plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = ("norms", "sup", "gamma", "decompose", "scatter")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"diagnostics.kind: unknown kind {self.kind!r}")
        if self.kind == "gamma":
            for ray in self.params.get("rays", []):
                vel = RayVelocity(*ray)
                if not vel.is_admissible:
                    raise ConfigError(
                        f"diagnostics.gamma.rays: ray {tuple(ray)} has v <= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run: grid, data, solver,
    diagnostics, seed.  Round-trips through JSON."""

    grid: Grid2D
    initial: InitialSpec
    solver: SolverConfig
    diagnostics: tuple[DiagnosticSpec, ...] = ()
    snapshot_times: tuple[float, ...] | None = None
    seed: int = 0
    linear: bool = False
    save_trajectory: bool = True
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {
            "grid": asdict(self.grid),
            "initial": asdict(self.initial),
            "solver": asdict(self.solver),
            "diagnostics": [asdict(ds) for ds in self.diagnostics],
            "snapshot_times": (None if self.snapshot_times is None
                               else list(self.snapshot_times)),
            "seed": self.seed,
            "linear": self.linear,
            "save_trajectory": self.save_trajectory,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            init = d["initial"]
            pulses = tuple(
                Pulse(amplitude=p["amplitude"],
                      carrier=tuple(p["carrier"]),
                      sigma=tuple(p["sigma"]),
                      center=tuple(p.get("center", (0.0, 0.0))))
                for p in init["pulses"])
            return cls(
                grid=Grid2D(**d["grid"]),
                initial=InitialSpec(family=init["family"], pulses=pulses,
                                    noise_amplitude=init.get("noise_amplitude", 0.0)),
                solver=SolverConfig(**d["solver"]),
                diagnostics=tuple(DiagnosticSpec(ds["kind"], ds.get("params", {}))
                                  for ds in d.get("diagnostics", [])),
                snapshot_times=(None if d.get("snapshot_times") is None
                                else tuple(d["snapshot_times"])),
                seed=int(d.get("seed", 0)),
                linear=bool(d.get("linear", False)),
                save_trajectory=bool(d.get("save_trajectory", True)),
                out_dir=d.get("out_dir"),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed experiment config: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# initial data

def build_initial_data(cfg: ExperimentConfig) -> RealField:
    """Assemble the configured initial datum on the grid.

    Each pulse is amplitude * dx(exp(-(x-cx)^2/sx^2 - (y-cy)^2/sy^2)
    * cos(xi0 (x-cx) + eta0 (y-cy))); the x-derivative acts spectrally, so
    the x-mean vanishes exactly.
    """
    g = cfg.grid
    total = np.zeros(g.shape)
    for p in cfg.initial.pulses:
        cx, cy = p.center
        dx_ = g.XA - cx
        dy_ = g.YA - cy
        env = np.exp(-(dx_ / p.sigma[0]) ** 2 - (dy_ / p.sigma[1]) ** 2)
        prof = p.amplitude * env * np.cos(p.carrier[0] * dx_ + p.carrier[1] * dy_)
        total += derivative(RealField(g, prof, cfg.solver.t0), dx_order=1).samples
    if cfg.initial.noise_amplitude > 0:
        rng = np.random.default_rng(cfg.seed)
        c = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        c *= g.dealias_mask
        noise = inverse_transform(project_zero_xmodes(
            SpectralField(g, c + conjugate_mirror(c), cfg.solver.t0)))
        scale = sup_norm(noise)
        if scale > 0:
            total += cfg.initial.noise_amplitude / scale * noise.samples
    return project_field(RealField(g, total, cfg.solver.t0))


# ---------------------------------------------------------------------------
# fitting

@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law value ~ prefactor * t^exponent."""

    exponent: float
    prefactor: float
    residual_rms: float
    window: tuple[float, float]

    def __post_init__(self):
        if not self.window[0] < self.window[1]:
            raise InvalidInputError("fit window is empty")
        if self.residual_rms < 0:
            raise InvalidInputError("rms residual must be nonnegative")


def fit_decay(series, window: tuple[float, float]) -> DecayFit:
    """Fit log(value) = exponent * log(t) + log(prefactor) on the window."""
    pts = [(t, v) for t, v in series if window[0] <= t <= window[1]]
    if len(pts) < 5:
        raise InvalidInputError(
            f"need >= 5 points in window {window}, got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise InvalidInputError("power-law fit requires positive values")
    lt = np.log([t for t, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lt, lv, 1)
    resid = lv - (slope * lt + intercept)
    return DecayFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                    residual_rms=float(np.sqrt(np.mean(resid**2))),
                    window=window)


def sup_norm_series(traj: Trajectory, quantity: str = "u") -> list:
    """Per-snapshot sup of u or of its spectral x-derivative."""
    if quantity not in ("u", "u_x"):
        raise InvalidInputError(f"unknown quantity {quantity!r}")
    out = []
    for s in traj.snapshots:
        f = s if quantity == "u" else derivative(s, dx_order=1)
        out.append((float(s.time_tag), sup_norm(f)))
    return out


# ---------------------------------------------------------------------------
# run driver

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _diag_norms(traj: Trajectory, params: dict, out: Path) -> None:
    rows = []
    for s in traj.snapshots:
        t = float(s.time_tag)
        r = x_norm(s, t)
        rows.append((t, r.l2, r.uxxx, r.ly2dxu, r.s0u, r.total))
    _write_csv(out / "norms.csv",
               ["t[code-units]", "l2", "uxxx", "ly2dxu", "s0u", "x_total"], rows)


def _diag_sup(traj: Trajectory, params: dict, out: Path) -> None:
    su = dict(sup_norm_series(traj, "u"))
    sx = dict(sup_norm_series(traj, "u_x"))
    rows = [(t, su[t], sx[t]) for t in sorted(su)]
    _write_csv(out / "sup.csv", ["t[code-units]", "sup_u", "sup_ux"], rows)


def _diag_gamma(traj: Trajectory, params: dict, out: Path) -> None:
    rays = [RayVelocity(*r) for r in params.get("rays", [(-3.0, 0.0)])]
    t_min = params.get("t_min", 1.0)
    samples = [[] for _ in rays]
    for s in traj.snapshots:
        t = float(s.time_tag)
        live = [i for i, vel in enumerate(rays) if t >= t_min and vel.v >= t ** (-2.0 / 3.0)]
        ux = _Spectrum.of(s).d(1) if live else None  # one spectrum serves every ray
        for i in live:
            samples[i].append((t, *_pair(ux, PacketParams(rays[i], t))))
    rows = []
    for vel, ray_samples in zip(rays, samples):
        series = GammaSeries(vel, [(t, gam) for t, gam, _ in ray_samples])
        dots = dict(gamma_dot_series(series)) if len(ray_samples) >= 3 else {}
        for t, gam, rec in ray_samples:
            rows.append((t, vel.v1, vel.v2, gam.real, gam.imag, abs(gam),
                         dots.get(t, ""), rec))
    _write_csv(out / "gamma.csv",
               ["t[code-units]", "v1", "v2", "re_gamma", "im_gamma",
                "abs_gamma", "abs_gamma_dot", "recon_error"], rows)


def _diag_decompose(traj: Trajectory, params: dict, out: Path) -> None:
    times = params.get("times") or [float(t) for t in traj.times if t >= 1]
    delta = params.get("delta", 1.0)
    width = params.get("width", 0.5)
    prows, srows = [], []
    for t in times:
        prof = pointwise_profile(traj.field_at(t), t, delta=delta, width=width)
        for r in prof.rows:
            prows.append((t, r.v_lo, r.v_hi,
                          r.sup_hyp, r.bound_hyp, r.ratio_hyp,
                          r.sup_hyp_x, r.bound_hyp_x, r.ratio_hyp_x,
                          r.sup_ell, r.bound_ell, r.ratio_ell,
                          r.sup_ell_x, r.bound_ell_x, r.ratio_ell_x))
        for lr in prof.lambda_rows:
            srows.append((t, lr.lam, lr.lz_hyp, lr.lz_hyp_rhs,
                          lr.ell_weighted, lr.ell_rhs))
        srows.append((t, 0.0, prof.hyp_weighted, prof.hyp_weighted_rhs,
                      prof.ell_third, prof.ell_third_rhs))
    _write_csv(out / "profile.csv",
               ["t[code-units]", "v_lo", "v_hi",
                "sup_hyp", "bound_hyp", "ratio_hyp",
                "sup_hyp_x", "bound_hyp_x", "ratio_hyp_x",
                "sup_ell", "bound_ell", "ratio_ell",
                "sup_ell_x", "bound_ell_x", "ratio_ell_x"], prows)
    _write_csv(out / "scales.csv",
               ["t[code-units]", "lambda", "lhs_hyp", "rhs_hyp",
                "lhs_ell", "rhs_ell"], srows)


def _diag_scatter(traj: Trajectory, params: dict, out: Path) -> None:
    alpha = params.get("alpha", 1.0 / 6.0)
    times = params.get("times") or [float(t) for t in traj.times[1:-1] if t >= 1]
    rows = []
    for t in times:
        r = scattering_residuals(traj, t, alpha)
        rows.append((r.t, r.umod_l2, r.scat_helper_residual,
                     r.modscat_residual, r.back_propagated_data_drift))
    _write_csv(out / "scatter.csv",
               ["t[code-units]", "umod_l2", "scat_helper_residual",
                "modscat_residual", "back_propagated_data_drift"], rows)
    u0, drift = extract_scatter_data(traj)
    save_snapshot(u0, out / "u_scatter_0")
    _write_csv(out / "drift.csv", ["t[code-units]", "cauchy_drift"], drift)


_DIAG_RUNNERS = {
    "norms": _diag_norms,
    "sup": _diag_sup,
    "gamma": _diag_gamma,
    "decompose": _diag_decompose,
    "scatter": _diag_scatter,
}


def run_experiment(cfg: ExperimentConfig, out_dir: Path | str | None = None) -> Path:
    """Run the configured evolution, write the trajectory (optionally), all
    requested diagnostic CSVs, and a provenance manifest.  Deterministic
    for a fixed config and seed."""
    out = Path(out_dir if out_dir is not None else (cfg.out_dir or "run_out"))
    out.mkdir(parents=True, exist_ok=True)
    config_text = cfg.to_json()
    (out / "config.json").write_text(config_text)

    u0 = build_initial_data(cfg)
    linear = cfg.linear or cfg.initial.amplitude == 0
    traj = evolve(u0, cfg.solver, snapshot_times=cfg.snapshot_times, linear=linear)

    for ds in cfg.diagnostics:
        _DIAG_RUNNERS[ds.kind](traj, ds.params, out)

    if cfg.save_trajectory:
        traj.save(out / "trajectory")

    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "toolkit_version": _toolkit_version(),
        "linear": linear,
        "snapshot_times": [float(t) for t in traj.times],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return out


# ---------------------------------------------------------------------------
# canned experiment suite

def log_times(t0: float, t1: float, per_octave: int = 8) -> tuple[float, ...]:
    """Logarithmically spaced sample times, rounded to 1e-6."""
    n = max(2, int(round(math.log2(t1 / t0) * per_octave)) + 1)
    ts = t0 * (t1 / t0) ** (np.arange(n) / (n - 1))
    return tuple(round(float(t), 6) for t in ts)


def bracketed_times(centers, h: float) -> tuple[float, ...]:
    """Each center plus tight +-h neighbors, for time differencing."""
    out = set()
    for c in centers:
        out.update((round(c - h, 6), round(c, 6), round(c + h, 6)))
    return tuple(sorted(out))


def theorem_suite_configs(scale: float = 1.0) -> dict:
    """The canned experiments whose outputs feed the acceptance checks.

    scale < 1 shrinks grids and horizons proportionally for smoke runs.
    Stepping experiments end and take snapshots on their dt lattice.
    """
    if not 0 < scale <= 1:
        raise ConfigError("scale must lie in (0, 1]")

    def n(v, lo=8):
        k = max(lo, int(v * scale))
        return k if k % 2 == 0 else k + 1

    def on_lattice(t, dt):  # the step-lattice time k*dt nearest t
        return round(round(t / dt) * dt, 6)

    cfgs = {}

    # free-flow decay of a localized datum
    t_dec = max(5.0, 50.0 * scale)
    cfgs["linear_decay"] = ExperimentConfig(
        grid=Grid2D(n(1024), n(512), 512.0, 416.0, -90.0, 0.0),
        initial=InitialSpec("modulated_gaussian", (Pulse(0.01, (1.0, 0.0), (3.0, 3.0)),)),
        solver=SolverConfig(dt=0.1, t0=0.0, t_end=t_dec),
        diagnostics=(DiagnosticSpec("sup"),),
        snapshot_times=log_times(max(2.0, 5.0 * scale), t_dec),
        linear=True, save_trajectory=False)

    # conservation / accuracy of the nonlinear stepper
    cfgs["conservation"] = ExperimentConfig(
        grid=Grid2D(n(256), n(64), 128.0, 64.0, 0.0, 0.0),
        initial=InitialSpec("modulated_gaussian", (Pulse(0.05, (0.5, 0.0), (12.0, 8.0)),)),
        solver=SolverConfig(dt=0.02, t0=0.0, t_end=on_lattice(max(1.0, 20.0 * scale), 0.02)),
        diagnostics=(DiagnosticSpec("norms"),),
        snapshot_times=tuple(float(k) for k in
                             range(0, int(max(1.0, 20.0 * scale)) + 1)))

    # slow-growth shadow of the energy estimate
    t_en = max(4.0, 100.0 * scale)
    cfgs["energy"] = ExperimentConfig(
        grid=Grid2D(n(1024), n(512), 640.0, 580.0, -40.0, 0.0),
        initial=InitialSpec("modulated_gaussian", (Pulse(0.01, (0.5, 0.0), (24.0, 40.0)),)),
        solver=SolverConfig(dt=0.1, t0=0.0, t_end=on_lattice(t_en, 0.1)),
        diagnostics=(DiagnosticSpec("norms"), DiagnosticSpec("sup")),
        snapshot_times=tuple(on_lattice(t, 0.1) for t in log_times(1.0, t_en)),
        save_trajectory=False)

    # free-flow run profiled against the pointwise bound shapes
    t_prof = max(4.0, 64.0 * scale)
    cfgs["profile"] = ExperimentConfig(
        grid=Grid2D(n(1024), n(256), 880.0, 360.0, -128.0, 0.0),
        initial=InitialSpec("modulated_gaussian",
                            (Pulse(0.01, (1.0, 0.0), (16.0, 16.0), (-60.0, 0.0)),)),
        solver=SolverConfig(dt=0.1, t0=0.0, t_end=t_prof),
        diagnostics=(DiagnosticSpec("decompose",
                                    {"times": [4.0, min(16.0, t_prof), t_prof]}),),
        snapshot_times=(0.0, 4.0, min(16.0, t_prof), t_prof),
        linear=True, save_trajectory=False)

    # packet pairing along the ray (-3, 0)
    t_pk = max(12.0, 80.0 * scale)
    cfgs["packet"] = ExperimentConfig(
        grid=Grid2D(n(1024), n(256), 960.0, 256.0, -160.0, 0.0),
        initial=InitialSpec("modulated_gaussian", (Pulse(0.02, (1.0, 0.0), (4.0, 4.0)),)),
        solver=SolverConfig(dt=0.05, t0=0.0, t_end=on_lattice(t_pk, 0.05)),
        diagnostics=(DiagnosticSpec("gamma",
                                    {"rays": [(-3.0, 0.0)], "t_min": 10.0 * min(1.0, scale * 2)}),),
        snapshot_times=tuple(on_lattice(t, 0.05) for t in
                             log_times(min(10.0, t_pk / 2), t_pk, per_octave=16)),
        save_trajectory=False)

    # band correction and its flow residuals
    t_sc = max(10.0, 65.0 * scale)
    sc_dt = 0.05
    sc_centers = tuple(sorted(set(
        on_lattice(t, sc_dt) for t in log_times(8.0 * min(1.0, scale * 2), t_sc - 1.0))))
    cfgs["scatter"] = ExperimentConfig(
        grid=Grid2D(n(1024), n(128), 1024.0, 128.0, 0.0, 0.0),
        initial=InitialSpec("modulated_gaussian", (Pulse(0.05, (0.9, 0.0), (4.0, 6.0)),)),
        solver=SolverConfig(dt=sc_dt, t0=0.0, t_end=on_lattice(t_sc, sc_dt)),
        diagnostics=(DiagnosticSpec("scatter", {"times": list(sc_centers)}),),
        snapshot_times=(0.0,) + bracketed_times(sc_centers, 0.05) + (on_lattice(t_sc, sc_dt),),
        save_trajectory=False)

    return cfgs


def run_theorem_suite(out_root: Path | str, scale: float = 1.0,
                      only: list | None = None) -> dict:
    """Run the canned experiments and a resonance-table dump; returns the
    per-experiment output directories."""
    out_root = Path(out_root)
    results = {}
    for name, cfg in theorem_suite_configs(scale).items():
        if only and name not in only:
            continue
        results[name] = run_experiment(cfg, out_root / name)
    # resonance table: example triads on both branches
    rows = []
    for xi1, xi2, eta1 in ((1.0, 1.0, math.sqrt(3.0)), (1.0, 2.0, 0.5),
                           (0.5, 1.5, -1.0), (2.0, 3.0, 1.0)):
        for branch in (1, -1):
            tr = resonant_triad(xi1, xi2, eta1, branch)
            rows.append((*tr.k1, *tr.k2, *tr.k3, *tr.omegas, tr.residual))
    out_root.mkdir(parents=True, exist_ok=True)
    _write_csv(out_root / "resonances.csv",
               ["xi1", "eta1", "xi2", "eta2", "xi3", "eta3",
                "omega1", "omega2", "omega3", "residual"], rows)
    results["resonances"] = out_root
    return results
