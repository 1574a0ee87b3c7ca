"""Time integration: exact linear propagator, IFRK4 nonlinear stepping,
the linearized flow on a stored background, and the equation's symmetries.

The linear phase is purely imaginary, so the integrating factor is unitary
and the linear part of every step is exact.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy import fft as sfft

from .errors import DomainError, InvalidInputError, StepFailureError
from .grids import (
    Grid2D,
    RealField,
    SpectralField,
    forward_transform,
    inverse_transform,
    load_snapshot,
    multiplier_dx,
    omega_values,
    project_field,
    save_snapshot,
)

BLOWUP_FACTOR = 1e6
LATTICE_TOL = 1e-9  # in steps: how far a time may sit from t0 + i*dt


@dataclass
class SolverConfig:
    """Stepping parameters for a single evolution run."""

    dt: float
    t0: float
    t_end: float
    dealias: bool = True
    snapshot_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        if not self.t0 < self.t_end:
            raise InvalidInputError("need t0 < t_end")
        if self.dt > self.t_end - self.t0:
            raise InvalidInputError("dt exceeds the time interval")
        if self.snapshot_stride < 1:
            raise InvalidInputError("snapshot_stride must be >= 1")


@dataclass
class Trajectory:
    """Ordered snapshots of one evolution run."""

    snapshots: list[RealField]
    config: SolverConfig | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        times = self.times
        if np.any(np.diff(times) <= 0):
            raise InvalidInputError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time_tag for s in self.snapshots])

    def field_at(self, t: float, tol: float = 1e-9) -> RealField:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.snapshots[i].time_tag - t) > tol:
            raise DomainError(f"no snapshot at t={t}")
        return self.snapshots[i]

    def nearest_time(self, t: float) -> float:
        return float(self.times[int(np.argmin(np.abs(self.times - t)))])

    def save(self, directory: Path | str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for i, s in enumerate(self.snapshots):
            save_snapshot(s, directory / f"snap_{i:05d}")
        manifest = {
            "time_tags": [s.time_tag for s in self.snapshots],
            "provenance": self.provenance,
        }
        if self.config is not None:
            manifest["config"] = asdict(self.config)
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))

    @classmethod
    def load(cls, directory: Path | str) -> "Trajectory":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        snaps = [load_snapshot(directory / f"snap_{i:05d}")
                 for i in range(len(manifest["time_tags"]))]
        config = SolverConfig(**manifest["config"]) if "config" in manifest else None
        return cls(snaps, config, manifest.get("provenance", {}))


# ---------------------------------------------------------------------------
# linear propagator

def linear_propagate(F: SpectralField, dt: float) -> SpectralField:
    """Exact linear flow: multiply by exp(i*omega*dt); unitary on L^2."""
    if not F.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    phase = np.exp(1j * omega_values(F.grid) * dt)
    return SpectralField(F.grid, F.coeffs * phase, F.time_tag + dt)


# ---------------------------------------------------------------------------
# snapshot scheduling and stepping

def _schedule(cfg: SolverConfig, snapshot_times, linear: bool = False):
    """The linear jump's sorted times (t0, t_end, the requested ones between)
    or a stepping run's (steps, sorted snapshot steps): by default every
    `snapshot_stride` steps and the last, and a t_end or requested time off
    the lattice t0 + i*dt or outside [t0, t_end] is refused."""
    if linear:
        times = {cfg.t0, cfg.t_end, *(snapshot_times or ())}
        return sorted(t for t in times if cfg.t0 - 1e-12 <= t <= cfg.t_end + 1e-12)

    def step(t, what, last):
        x = (t - cfg.t0) / cfg.dt
        if abs(x - round(x)) > LATTICE_TOL or not 0 <= round(x) <= last:
            raise InvalidInputError(
                f"{what} t={t} is off the step lattice t0 + i*dt in [t0, t_end] "
                f"(t0={cfg.t0}, dt={cfg.dt}, t_end={cfg.t_end})")
        return round(x)

    nsteps = step(cfg.t_end, "t_end", math.inf)
    if snapshot_times is None:
        return nsteps, sorted({*range(0, nsteps + 1, cfg.snapshot_stride), nsteps})
    return nsteps, sorted({step(t, "snapshot time", nsteps) for t in snapshot_times})


class _Workspace:
    """Stepping data of one grid: omega, the folded -i*xi*mask multiplier,
    the physical phase, and the exponentials of the last dt used."""

    def __init__(self, grid: Grid2D, dealias: bool):
        self.omega = omega_values(grid)
        self.neg_dx = -multiplier_dx(grid).values * (grid.dealias_mask if dealias else 1.0)
        self.phase = grid._phase
        self._exp = (None, None, None)

    def exponentials(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """exp(i*omega*dt/2) and exp(i*omega*dt)."""
        if self._exp[0] != dt:
            e1 = np.exp(1j * self.omega * (dt / 2))
            self._exp = (dt, e1, e1 * e1)
        return self._exp[1:]

    def flux(self, coeffs: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """Spectral -d/dx(w^2/2) of the field w with these coefficients, or
        -d/dx(u*w) for background samples u (the linearized term)."""
        w = sfft.ifft2(coeffs / self.phase)
        if u is None:
            w = w.real * coeffs.size
            w = 0.5 * w * w
        else:
            w = u * (w * coeffs.size)
        return self.neg_dx * (sfft.fft2(w) / coeffs.size * self.phase)

    def ifrk4_step(self, coeffs: np.ndarray, dt: float, nl) -> np.ndarray:
        """One integrating-factor RK4 step of dc/dt = i*omega*c + nl(c, s),
        s being the time since the start of the step."""
        e1, e2 = self.exponentials(dt)
        n1 = nl(coeffs, 0.0)
        n2 = nl(e1 * (coeffs + (dt / 2) * n1), dt / 2)
        n3 = nl(e1 * coeffs + (dt / 2) * n2, dt / 2)
        n4 = nl(e2 * coeffs + dt * e1 * n3, dt)
        # e2*c + dt/6*(e2*n1 + 2*e1*(n2 + n3) + n4) in place: less peak memory
        n2 += n3
        np.multiply(2 * e1, n2, out=n2)
        np.add(e2 * n1, n2, out=n2)
        n2 += n4
        np.multiply(dt / 6, n2, out=n2)
        return np.add(e2 * coeffs, n2, out=n2)


_WORKSPACES = weakref.WeakValueDictionary()


def _workspace(grid: Grid2D, dealias: bool) -> _Workspace:
    """The shared workspace of (grid, dealias); it lives while a run holds it."""
    ws = _WORKSPACES.get((grid, dealias)) or _Workspace(grid, dealias)
    _WORKSPACES[grid, dealias] = ws
    return ws


def _nonlinear_flow(ws: _Workspace, dt: float):  # advance(coeffs, t) of the full equation
    return lambda c, t: ws.ifrk4_step(c, dt, lambda c, s: ws.flux(c))


def _march(F: SpectralField, dt: float, nsteps: int, snap_steps, advance, record) -> list:
    """The stepping loop: take `nsteps` steps of `advance(coeffs, t)` from F
    and return `record(state)` at each index in `snap_steps`, tagged t0 + i*dt.
    The blow-up guard compares each step's L^2 norm with the previous one."""
    coeffs, t0, wanted, out = F.coeffs, F.time_tag, set(snap_steps), []
    norm = np.vdot(coeffs, coeffs).real
    for i in range(nsteps + 1):
        if i in wanted:
            out.append(record(SpectralField(F.grid, coeffs, t0 + i * dt)))
        if i == nsteps:
            return out
        new = advance(coeffs, t0 + i * dt)
        new_norm = np.vdot(new, new).real
        if not new_norm <= BLOWUP_FACTOR**2 * max(norm, 1e-300):
            raise StepFailureError(
                f"blow-up at step {i + 1} (t={t0 + (i + 1) * dt:.6g}): the L^2 norm "
                f"grew by a factor {math.sqrt(new_norm / max(norm, 1e-300)):.3g}")
        coeffs, norm = new, new_norm


def nonlinear_term(u: RealField, dealias: bool = True) -> RealField:
    """-d/dx(u^2/2) with 2/3-rule dealiasing; exact zero x-mean output."""
    F = forward_transform(u)
    if not F.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    flux = _workspace(u.grid, dealias).flux(F.coeffs)
    return inverse_transform(SpectralField(u.grid, flux, u.time_tag))


def step_nonlinear(F: SpectralField, dt: float, dealias: bool = True) -> SpectralField:
    """One IFRK4 step of the full equation; formal order 4."""
    if not F.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    flow = _nonlinear_flow(_workspace(F.grid, dealias), dt)
    return _march(F, dt, 1, [1], flow, lambda S: S)[0]


class BackgroundInterpolator:
    """Cubic-in-time interpolation of a stored trajectory's samples.

    Snapshot spacing must keep interpolation error below scheme error;
    guidance: stride*dt <= 0.1.
    """

    def __init__(self, traj: Trajectory):
        self.times = traj.times
        self.snaps = traj.snapshots
        if len(self.snaps) < 2:
            raise InvalidInputError("background needs at least 2 snapshots")
        self._last = (math.nan, None)  # the last step's t + dt and the samples there

    def covers(self, t0: float, t1: float, tol: float = 1e-9) -> bool:
        return self.times[0] - tol <= t0 and t1 <= self.times[-1] + tol

    def samples_at(self, t: float) -> np.ndarray:
        ts = self.times
        if t < ts[0] - 1e-9 or t > ts[-1] + 1e-9:
            raise DomainError(f"background does not cover t={t}")
        i = int(np.searchsorted(ts, t))
        lo = max(0, min(i - 2, len(ts) - 4)) if len(ts) >= 4 else 0
        idx = range(lo, min(lo + 4, len(ts)))
        out = np.zeros(self.snaps[0].samples.shape)
        for j in idx:
            lj = 1.0
            for m in idx:
                if m != j:
                    lj *= (t - ts[m]) / (ts[j] - ts[m])
            out += lj * self.snaps[j].samples
        return out

    def stage_samples(self, t: float, dt: float) -> dict:
        """Samples at t + s for the IFRK4 stage offsets s = 0, dt/2, dt.  The
        last step's t + dt is this t (to roundoff) and is not evaluated again."""
        t_last, last = self._last
        start = last if math.isclose(t_last, t, rel_tol=1e-14, abs_tol=1e-14) else self.samples_at(t)
        mid, self._last = self.samples_at(t + dt / 2), (t + dt, self.samples_at(t + dt))
        return {0.0: start, dt / 2: mid, dt: self._last[1]}


def step_linearized(w: SpectralField, background: Trajectory | BackgroundInterpolator,
                    dt: float, dealias: bool = True) -> SpectralField:
    """One IFRK4 step of the flow linearized around a background solution."""
    if not w.is_projected:
        raise InvalidInputError("field must be zero-x-mode projected")
    bg = background if isinstance(background, BackgroundInterpolator) \
        else BackgroundInterpolator(background)
    t = w.time_tag
    if not bg.covers(min(t, t + dt), max(t, t + dt)):
        raise DomainError("background trajectory does not cover the step")
    ws = _workspace(w.grid, dealias)
    stages = bg.stage_samples(t, dt)
    out = ws.ifrk4_step(w.coeffs, dt, lambda c, s: ws.flux(c, stages[s]))
    return SpectralField(w.grid, out, t + dt)


def evolve(u0: RealField, cfg: SolverConfig,
           snapshot_times: list[float] | None = None,
           linear: bool = False) -> Trajectory:
    """Integrate from t0 to t_end, storing snapshots.

    Snapshots are taken every `snapshot_stride` steps and at the last step
    by default, or at `snapshot_times`, tagged t0 + i*dt.  Exact-time rule:
    IFRK4 stepping takes whole steps, so t_end and each requested time must
    be on the lattice t0 + i*dt within [t0, t_end], or `InvalidInputError`
    is raised before the first step.  With `linear=True` the exact
    propagator jumps to t0, t_end and any requested time in between.
    """
    schedule = _schedule(cfg, snapshot_times, linear)
    u0 = project_field(u0)
    F = SpectralField(u0.grid, forward_transform(u0).coeffs, cfg.t0)
    if linear:
        snaps = [inverse_transform(linear_propagate(F, t - cfg.t0)) for t in schedule]
        return Trajectory(snaps, cfg, {"mode": "linear"})
    flow = _nonlinear_flow(_workspace(u0.grid, cfg.dealias), cfg.dt)
    return Trajectory(_march(F, cfg.dt, *schedule, flow, inverse_transform), cfg,
                      {"mode": "nonlinear"})


def evolve_linearized(w0: RealField, background: Trajectory, cfg: SolverConfig,
                      snapshot_times: list[float] | None = None) -> Trajectory:
    """Integrate the linearized equation along a stored background, under
    the exact-time rule of `evolve`."""
    schedule = _schedule(cfg, snapshot_times)
    w0 = project_field(w0)
    ws = _workspace(w0.grid, cfg.dealias)  # held, so every step_linearized shares it
    bg = BackgroundInterpolator(background)
    W = SpectralField(w0.grid, forward_transform(w0).coeffs, cfg.t0)

    def flow(coeffs, t):
        return step_linearized(SpectralField(W.grid, coeffs, t), bg, cfg.dt, cfg.dealias).coeffs

    return Trajectory(_march(W, cfg.dt, *schedule, flow, inverse_transform), cfg,
                      {"mode": "linearized"})


# ---------------------------------------------------------------------------
# symmetries

def apply_symmetry(u: RealField, kind: str, param: float = 0.0) -> RealField:
    """Apply a symmetry of the equation to a snapshot.

    kind = "scaling":  lambda^2 u(lambda^3 t, lambda x, lambda^2 y); the box
      metadata is rescaled rather than resampling.
    kind = "galilean": u(t, x - c y + c^2 t, y - 2 c t) via the exact Fourier
      shear; requires c*Ly to be an integer multiple of Lx.
    kind = "reversal": reflection of x about the box center.
    """
    g = u.grid
    if kind == "scaling":
        lam = param
        if not lam > 0:
            raise DomainError("scaling parameter must be positive")
        grid2 = Grid2D(g.nx, g.ny, g.Lx / lam, g.Ly / lam**2, g.x0 / lam, g.y0 / lam**2)
        return RealField(grid2, lam**2 * u.samples, u.time_tag / lam**3)
    if kind == "reversal":
        idx = (-np.arange(g.nx)) % g.nx
        return RealField(g, u.samples[idx, :], u.time_tag)
    if kind == "galilean":
        return inverse_transform(galilean_fourier_map(forward_transform(u), param))
    raise DomainError(f"unknown symmetry kind {kind!r}")


def galilean_fourier_map(F: SpectralField, c: float) -> SpectralField:
    """Fourier-side Galilean map u_c(t,xi,eta) = u(t,xi,eta+c*xi) * phases."""
    g = F.grid
    ratio = c * g.Ly / g.Lx
    if abs(ratio - round(ratio)) > 1e-9:
        raise DomainError(
            "inadmissible Galilean parameter: c*Ly must be an integer "
            f"multiple of Lx (got c*Ly/Lx = {ratio})")
    m = int(round(ratio))
    jj = np.rint(sfft.fftfreq(g.nx) * g.nx).astype(int)
    cols = (np.arange(g.ny)[None, :] + (m * jj)[:, None]) % g.ny
    sheared = F.coeffs[np.arange(g.nx)[:, None], cols]
    t = F.time_tag
    phase = np.exp(-1j * c * c * t * g.XI) * np.exp(-2j * c * t * g.ETA)
    out = sheared * phase
    # the boost phase and the shear are sign-ambiguous at the Nyquist
    # frequencies; zero them (same convention as the odd-symbol multipliers)
    out[g.nx // 2, :] = 0.0
    out[:, g.ny // 2] = 0.0
    return SpectralField(g, out, t)
