"""Time integration: exact linear propagator, IFRK4 nonlinear stepping,
the linearized flow on a stored background, and the equation's symmetries.

The linear phase is purely imaginary, so the integrating factor is unitary
and the linear part of every step is exact.
The nonlinear, linearized and exact linear flows act on the rfft2 half
spectrum of the samples (`grids.spectrum`, without the physical phase); the
phase and the full lattice appear only where a public `SpectralField` enters
or leaves.  Each stepping run builds its own `_Workspace`, and nothing of it
outlives the run.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Iterator, get_args, get_origin, get_type_hints

import numpy as np
from numpy import fft as npfft

from .errors import DomainError, InvalidInputError, StepFailureError
from .grids import (
    Grid2D,
    RealField,
    SpectralField,
    _flow_factor,
    check_projected,
    dx_symbol,
    forward_transform,
    from_spectral,
    half_l2_squared,
    ingest,
    inverse_transform,
    load_snapshot,
    samples_in_place,
    samples_of,
    save_snapshot,
    spectrum,
    to_spectral,
)

BLOWUP_FACTOR = 1e6
LATTICE_TOL = 1e-9  # in steps: how far a time may sit from t0 + i*dt


@dataclass
class SolverConfig:
    """Stepping parameters for a single evolution run."""

    dt: float
    t0: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        for name in ("dt", "t0", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise InvalidInputError("dt must be positive")
        if not self.t0 < self.t_end:
            raise InvalidInputError("need t0 < t_end")
        if self.dt > self.t_end - self.t0:
            raise InvalidInputError("dt exceeds the time interval")
        if not (_is_a(int, self.snapshot_stride) and self.snapshot_stride >= 1):
            raise InvalidInputError(
                f"snapshot_stride must be an int >= 1, got {self.snapshot_stride!r}")


def _is_a(hint: type, v) -> bool:
    """Whether v is a JSON leaf of type `hint` (bool, int, float or str): a
    bool is no number, and a float may be given as an int."""
    return isinstance(v, (int, float) if hint is float else hint) and (
        hint is bool or not isinstance(v, bool))


def load_config(hint, v, error: type[Exception], path: str = ""):
    """Build a `hint` (a config dataclass at the top) from `v`, the JSON form
    `asdict` gave it, with the dataclasses' own fields, type hints and
    defaults.  An unknown or missing key, a value of the wrong shape or leaf
    type (`_is_a`), or one a dataclass refuses raises `error` naming its
    dotted path."""
    args, where = get_args(hint), path or hint.__name__
    if type(None) in args:  # X | None
        if v is None:
            return None
        hint, args = args[0], get_args(args[0])
    if (is_dataclass(hint) or hint is dict) and not isinstance(v, dict):
        raise error(f"{where}: expected an object, got {v!r}")
    if get_origin(hint) is tuple:
        if not isinstance(v, (list, tuple)):
            raise error(f"{where}: expected an array, got {v!r}")
        items = args[:1] * len(v) if args[1:] == (...,) else args
        if len(items) != len(v):
            raise error(f"{where}: expected {len(items)} entries, got {len(v)}")
        return tuple(load_config(h, x, error, f"{path}[{i}]")
                     for i, (h, x) in enumerate(zip(items, v)))
    if hint in (bool, int, float, str) and not _is_a(hint, v):
        raise error(f"{where}: expected {hint.__name__}, got {v!r}")
    if not is_dataclass(hint):
        return v
    unknown = sorted(set(v) - {f.name for f in fields(hint)})
    missing = [f.name for f in fields(hint) if f.name not in v
               and f.default is MISSING and f.default_factory is MISSING]
    if unknown:
        raise error(f"{where}: unknown key(s) {unknown}")
    if missing:
        raise error(f"{where}: missing key(s) {missing}")
    hints = get_type_hints(hint)
    try:
        return hint(**{k: load_config(hints[k], x, error, f"{path}.{k}" if path else k)
                       for k, x in v.items()})
    except (TypeError, ValueError) as exc:  # what a dataclass refuses, as `error`
        raise exc if isinstance(exc, error) else error(f"{where}: {exc}")


@dataclass
class Trajectory:
    """Ordered snapshots of one evolution run."""

    snapshots: list[RealField]
    config: SolverConfig | None = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise InvalidInputError("snapshot times must be strictly increasing")

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time_tag for s in self.snapshots])

    def index(self, t: float) -> int:
        """The snapshot within LATTICE_TOL steps of dt of t (1e-9 without a
        config); `DomainError` if there is none."""
        tol = LATTICE_TOL * self.config.dt if self.config else 1e-9
        if (i := snapshot_index(self.times, t, tol)) is None:
            raise DomainError(f"no snapshot at t={t}")
        return i

    def field_at(self, t: float) -> RealField:
        return self.snapshots[self.index(t)]

    def nearest_time(self, t: float) -> float:
        """The time of the snapshot nearest t; `DomainError` if there is none."""
        if (i := snapshot_index(self.times, t, math.inf)) is None:
            raise DomainError(f"no snapshot near t={t}: the trajectory has none")
        return float(self.times[i])

    def save(self, directory: Path | str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for i, s in enumerate(self.snapshots):
            save_snapshot(s, directory / f"snap_{i:05d}")
        manifest = {"time_tags": [s.time_tag for s in self.snapshots]}
        if self.config is not None:
            manifest["config"] = asdict(self.config)
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))

    @classmethod
    def load(cls, directory: Path | str) -> "Trajectory":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        snaps = [load_snapshot(directory / f"snap_{i:05d}")
                 for i in range(len(manifest["time_tags"]))]
        config = load_config(SolverConfig | None, manifest.get("config"),
                             InvalidInputError, "config")
        return cls(snaps, config)


def snapshot_index(times, t: float, tol: float) -> int | None:
    """The index of the entry of `times` nearest t, or None beyond tol or
    if `times` is empty."""
    if len(times) == 0:
        return None
    i = int(np.argmin(np.abs(np.asarray(times) - t)))
    return i if abs(times[i] - t) <= tol else None


# ---------------------------------------------------------------------------
# linear propagator

def linear_propagate(F: SpectralField, dt: float) -> SpectralField:
    """Exact linear flow: multiply by exp(i*omega*dt); unitary on L^2."""
    check_projected(F.coeffs)
    return SpectralField(F.grid, _linear_flow(F.coeffs, F.grid, dt), F.time_tag + dt)


def _linear_flow(coeffs: np.ndarray, grid: Grid2D, dt: float) -> np.ndarray:
    """The exact linear flow over dt of a projected field's coefficients, on
    the full lattice or a half spectrum, multiplied into a fresh `_flow_factor`."""
    e = _flow_factor(grid, coeffs.shape[1], dt)
    return np.multiply(e, coeffs, out=e)


# ---------------------------------------------------------------------------
# snapshot scheduling and stepping

@dataclass(frozen=True)
class _Schedule:
    """A run's snapshot indices, never listed: the members of `steps` (a
    range or a sorted tuple) capped at `last`, so the top member of a
    default range, up to a stride past the last step, stands for it.  Index
    i is the time t0 + i*dt of a stepping run of `last` steps, or `jump[i]`."""

    t0: float
    dt: float
    last: int
    steps: range | tuple
    jump: tuple = ()

    def _at(self, k: int) -> int | None:  # the k-th snapshot index, None past an end
        return min(self.steps[k], self.last) if 0 <= k < len(self.steps) else None

    def __contains__(self, i: int) -> bool:
        return self._at(bisect_left(self.steps, i)) == i

    def __iter__(self):
        return (min(i, self.last) for i in self.steps)

    def time(self, i: int) -> float:
        return self.jump[i] if self.jump else self.t0 + i * self.dt

    def index(self, t: float) -> int | None:
        """The snapshot index t names, within LATTICE_TOL steps of dt, or None."""
        if self.jump:
            i = snapshot_index(self.jump, t, LATTICE_TOL * self.dt)
        else:
            x = (t - self.t0) / self.dt
            i = round(x) if math.isfinite(x) and abs(x - round(x)) <= LATTICE_TOL else None
        return i if i is not None and i in self else None

    def last_two_times(self) -> list:
        """The times of the last two snapshots, or of all if there are fewer."""
        k = len(self.steps)
        return [self.time(self._at(j)) for j in range(max(k - 2, 0), k)]

    def since(self, pred) -> Iterator[int]:
        """The snapshot indices from the first whose time meets the monotone `pred`."""
        n, key = len(self.steps), lambda k: pred(self.time(self._at(k)))
        return map(self._at, range(bisect_left(range(n), True, key=key), n))

    def around(self, i: int) -> tuple:
        """The snapshot indices before and after snapshot i, None past an end."""
        k = bisect_left(self.steps, i)
        return self._at(k - 1), self._at(k + 1)


def _schedule(cfg: SolverConfig, snapshot_times, linear: bool = False) -> _Schedule:
    """A run's snapshots: a stepping run's every `snapshot_stride` steps and
    the last, or the requested ones, the last ending the run, a t_end or
    requested time off the lattice t0 + i*dt in [t0, t_end] refused; the
    linear jump's t0, t_end and the requested times in [t0, t_end], each
    merged into the one before it or into t_end when it names that one."""
    if linear:
        tol, times = LATTICE_TOL * cfg.dt, [cfg.t0]
        for t in sorted(snapshot_times or ()):
            if not cfg.t0 - tol <= t <= cfg.t_end + tol:
                raise InvalidInputError(f"snapshot time t={t} is outside [t0, t_end] "
                                        f"(t0={cfg.t0}, t_end={cfg.t_end})")
            if times[-1] + tol < t < cfg.t_end - tol:
                times.append(t)
        times.append(cfg.t_end)
        return _Schedule(cfg.t0, cfg.dt, len(times) - 1, range(len(times)), tuple(times))

    x = (cfg.t_end - cfg.t0) / cfg.dt
    if not x < sys.maxsize:  # a range's length must fit a C index
        raise InvalidInputError(f"the run from t0={cfg.t0} to t_end={cfg.t_end} takes {x:.6g} "
                                f"steps of dt={cfg.dt}, more than a step index holds")
    every_step = _Schedule(cfg.t0, cfg.dt, round(x), range(round(x) + 1))

    def step(t, what):
        if (i := every_step.index(t)) is None:
            raise InvalidInputError(
                f"{what} t={t} is off the step lattice t0 + i*dt in [t0, t_end] "
                f"(t0={cfg.t0}, dt={cfg.dt}, t_end={cfg.t_end})")
        return i

    nsteps, stride = step(cfg.t_end, "t_end"), cfg.snapshot_stride
    steps = (range(0, nsteps + stride, stride) if snapshot_times is None
             else tuple(sorted({step(t, "snapshot time") for t in snapshot_times})))
    return _Schedule(cfg.t0, cfg.dt, min(steps[-1], nsteps) if steps else 0, steps)


class _Workspace:
    """The stepping data of one run with step dt, on the rfft2 half spectrum
    (the first ny//2 + 1 columns): the flux and exp(i*omega*dt/2),
    exp(i*omega*dt), computed once.  For a linearized run it also holds the
    background interpolator and the samples at the previous step's t + dt.
    The state is `grids.ingest`'s raw half spectrum, which
    `grids.to_spectral`/`from_spectral` convert."""

    def __init__(self, grid: Grid2D, dt: float,
                 background: "BackgroundInterpolator | None" = None):
        self.grid, self.dt, self.background = grid, dt, background
        self.flux = _flux(grid, linearized=background is not None)
        self.e1 = _flow_factor(grid, grid.ny // 2 + 1, dt / 2)
        self.e2 = self.e1 * self.e1
        # one block each for the four fluxes and the background at t, t + dt/2, t + dt,
        # written over at every step: the heap neither regrows per step nor fragments
        self.n = np.empty((4,) + self.e1.shape, complex)
        self.u = list(np.empty((0 if background is None else 3,) + grid.shape))
        self._end = math.nan  # the previous step's t + dt, whose background u[0] holds

    def _background_stages(self, t: float) -> tuple:
        """The background at t, t + dt/2 and t + dt.  The previous step's
        t + dt is this t (to roundoff) and is not evaluated again."""
        bg, dt, (start, mid, end) = self.background, self.dt, self.u
        if not math.isclose(self._end, t, rel_tol=1e-14, abs_tol=1e-14):
            bg.samples_at(t, start)
        bg.samples_at(t + dt / 2, mid)
        bg.samples_at(t + dt, end)
        self._end, self.u = t + dt, [end, mid, start]
        return start, mid, end

    def advance(self, coeffs: np.ndarray, t: float,
                samples: np.ndarray | None = None) -> np.ndarray:
        """One integrating-factor RK4 step from t of dc/dt = i*omega*c + N,
        N being -d/dx(w^2/2) of the field w, or -d/dx(u*w) along the
        background u in a linearized run.  Stages 3 and 4 build their input
        in their flux's buffer, which the inverse overwrites; stage 1
        overwrites `samples`, the samples of `coeffs` if the caller gives
        them up."""
        dt, e1, e2, flux, ny = self.dt, self.e1, self.e2, self.flux, self.grid.ny
        n1, n2, n3, n4 = self.n
        u0, u_mid, u1 = (None,) * 3 if self.background is None else self._background_stages(t)
        flux(samples_of(coeffs, self.grid.shape) if samples is None else samples, u0, n1)
        del samples  # overwritten by stage 1: not held through the later stages
        # stage 2 keeps its temporary: numpy takes e1*(temporary) as temporary*e1
        # on large arrays, and a complex product's bits depend on the operand order
        flux(samples_in_place(e1 * (coeffs + (dt / 2) * n1), ny), u_mid, n2)
        np.add(np.multiply(e1, coeffs, out=n3), (dt / 2) * n2, out=n3)
        flux(samples_in_place(n3, ny), u_mid, n3)
        np.add(np.multiply(e2, coeffs, out=n4), dt * e1 * n3, out=n4)
        flux(samples_in_place(n4, ny), u1, n4)
        # e2*c + dt/6*(e2*n1 + 2*e1*(n2 + n3) + n4), all but the new state in place
        n2 += n3
        np.multiply(2 * e1, n2, out=n2)
        np.add(np.multiply(e2, n1, out=n1), n2, out=n2)
        n2 += n4
        np.multiply(dt / 6, n2, out=n2)
        new = e2 * coeffs
        return np.add(new, n2, out=new)


def _flux(grid: Grid2D, linearized: bool = False):
    """flux(w, u=None, out=None): -d/dx(w^2/2) of the samples w, or
    -d/dx(u*w) along background samples u in a linearized run, as a raw
    half spectrum, in `out` if it is given; the product overwrites w.  The
    folded -i*xi*mask/(nx*ny) multiplier carries the 2/3-rule mask and, for
    w^2/2, the 1/2 (a power of two: exact).  The forward x pass runs only on
    the leading eta columns the mask keeps; the multiplier zeroes the rest."""
    mask = grid.dealias_mask[:, :grid.ny // 2 + 1]
    cols = int(np.count_nonzero(mask[0]))  # the xi = 0 row: the eta part of the mask
    neg_dx = dx_symbol(grid)[:, None] * mask / -((1 if linearized else 2) * grid.nx * grid.ny)

    def flux(w, u=None, out=None):
        np.multiply(w, w if u is None else u, out=w)
        c = npfft.rfft(w, axis=1)
        npfft.fft(c[:, :cols], axis=0, out=c[:, :cols])
        return np.multiply(c, neg_dx, out=c if out is None else out)
    return flux


def _march(coeffs: np.ndarray, sched: _Schedule, advance, record) -> list:
    """The stepping loop: take `sched.last` steps of `advance` from the
    state `coeffs` at index 0, handing it a copy of a recorded snapshot's
    samples, and return `record(state, t)` at each snapshot of `sched`.
    The blow-up guard compares each step's L^2 norm with the previous one."""
    out, norm = [], half_l2_squared(coeffs)
    for i in range(sched.last + 1):
        t, snap = sched.time(i), i in sched
        if snap:
            out.append(record(coeffs, t))
        if i == sched.last:
            return out
        new = advance(coeffs, t, out[-1].samples.copy() if snap else None)
        new_norm = half_l2_squared(new)
        if not new_norm <= BLOWUP_FACTOR**2 * max(norm, 1e-300):
            raise StepFailureError(
                f"blow-up at step {i + 1} (t={sched.time(i + 1):.6g}): the L^2 norm "
                f"grew by a factor {math.sqrt(new_norm / max(norm, 1e-300)):.3g}")
        coeffs, norm = new, new_norm


def nonlinear_term(u: RealField) -> RealField:
    """-d/dx(u^2/2) under the 2/3-rule mask; exact zero x-mean output."""
    check_projected(spectrum(u.samples))
    g = u.grid
    return RealField(g, samples_in_place(_flux(g)(u.samples.copy()), g.ny), u.time_tag)


def step_nonlinear(F: SpectralField, dt: float) -> SpectralField:
    """One IFRK4 step of the full equation; formal order 4."""
    check_projected(F.coeffs)
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    return _march(from_spectral(F), _Schedule(F.time_tag, dt, 1, (1,)),
                  _Workspace(F.grid, dt).advance, lambda c, t: to_spectral(c, F.grid, t))[0]


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

    def covers(self, t0: float, t1: float) -> bool:
        return self.times[0] - 1e-9 <= t0 and t1 <= self.times[-1] + 1e-9

    def samples_at(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """The samples at t, written into `out` if it is given."""
        ts = self.times
        if not self.covers(t, t):
            raise DomainError(f"background does not cover t={t}")
        lo = max(0, min(int(np.searchsorted(ts, t)) - 2, len(ts) - 4))
        idx = range(lo, min(lo + 4, len(ts)))
        out = np.empty(self.snaps[0].samples.shape) if out is None else out
        out.fill(0.0)
        for j in idx:
            lj = math.prod((t - ts[m]) / (ts[j] - ts[m]) for m in idx if m != j)
            out += lj * self.snaps[j].samples
        return out


def step_linearized(w: SpectralField, background: Trajectory, dt: float) -> SpectralField:
    """One IFRK4 step of the flow linearized around a background solution."""
    check_projected(w.coeffs)
    bg, t = BackgroundInterpolator(background), w.time_tag
    if not bg.covers(min(t, t + dt), max(t, t + dt)):
        raise DomainError("background trajectory does not cover the step")
    return _march(from_spectral(w), _Schedule(t, dt, 1, (1,)),
                  _Workspace(w.grid, dt, bg).advance, lambda c, s: to_spectral(c, w.grid, s))[0]


def evolve(u0: RealField, cfg: SolverConfig,
           snapshot_times: list[float] | None = None,
           linear: bool = False) -> Trajectory:
    """Integrate from t0, storing the snapshots of `_schedule`: IFRK4 takes
    whole steps to t_end (or to the last requested time), by default
    recording every `snapshot_stride` steps and the last, tagged t0 + i*dt;
    with `linear=True` the exact propagator jumps to t0, t_end and each
    requested time between.  A refused time raises `InvalidInputError` first."""
    sched = _schedule(cfg, snapshot_times, linear)
    g = u0.grid
    if linear:
        coeffs = ingest(u0.samples)
        snaps = [RealField(g, samples_in_place(_linear_flow(coeffs, g, t - cfg.t0), g.ny), t)
                 for t in map(sched.time, sched)]
        return Trajectory(snaps, cfg)
    ws = _Workspace(g, cfg.dt)
    snaps = _march(ingest(u0.samples), sched, ws.advance,
                   lambda c, t: RealField(g, samples_of(c, g.shape), t))
    return Trajectory(snaps, cfg)


def evolve_linearized(w0: RealField, background: Trajectory, cfg: SolverConfig,
                      snapshot_times: list[float] | None = None) -> Trajectory:
    """Integrate the linearized equation along a stored background, under
    the exact-time rule of `evolve`; the background must cover the steps
    taken, from t0 to the last snapshot."""
    sched = _schedule(cfg, snapshot_times)
    bg = BackgroundInterpolator(background)
    if not bg.covers(cfg.t0, t_last := sched.time(sched.last)):
        raise DomainError(f"background trajectory does not cover [t0, {t_last}]")
    ws = _Workspace(w0.grid, cfg.dt, bg)
    snaps = _march(ingest(w0.samples), sched, ws.advance,
                   lambda c, t: RealField(ws.grid, samples_of(c, ws.grid.shape), t))
    return Trajectory(snaps, cfg)


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
    jj = np.rint(npfft.fftfreq(g.nx) * g.nx).astype(int)
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
