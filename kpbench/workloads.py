"""The three benchmark workloads and the loop that measures them.

Each workload builds its inputs from the seed and the canned
``theorem_suite_configs()`` experiments, calls only kpwave's public API in
its rounds, and checks every round's outputs (outside the timed part).
A round attempts the same operations every time, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import dataclasses
import functools
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import kpwave
from kpwave import (
    DiagnosticSpec,
    InvalidInputError,
    RealField,
    SolverConfig,
    Trajectory,
    theorem_suite_configs,
)
from kpwave.harness import bracketed_times

import checks
from spans import Tracer, combine, per_layer_metrics, rebind, restore, totals_by_segment

SETUPS = 3           # set-ups per run; setup_s reports their median
FIXED_NOISE_SEED = 1409_4487


def jittered(cfg, rng):
    """The canned config with each pulse's amplitude scaled by 0.9-1.1 and
    its centre moved by up to half a unit, so each seed gives other data
    of the same shape and cost."""
    pulses = tuple(
        dataclasses.replace(
            p, amplitude=p.amplitude * rng.uniform(0.9, 1.1),
            center=(p.center[0] + rng.uniform(-0.5, 0.5),
                    p.center[1] + rng.uniform(-0.5, 0.5)))
        for p in cfg.initial.pulses)
    return dataclasses.replace(cfg, initial=dataclasses.replace(cfg.initial, pulses=pulses))


def touch_grid(grid) -> None:
    """Fill the grid's lazily computed lattice caches, whatever they are."""
    for name, attr in vars(type(grid)).items():
        if isinstance(attr, functools.cached_property):
            getattr(grid, name)


class EvolveCapture:
    """Keeps the trajectory `run_experiment` evolves, so rounds can check
    in-memory snapshots against what was written."""

    def __init__(self):
        self.last = None
        evolve = kpwave.evolve

        def capture(*args, **kwargs):
            self.last = evolve(*args, **kwargs)
            return self.last

        self._undo = rebind(evolve, capture)

    def close(self):
        restore(self._undo)


# ---------------------------------------------------------------------------
# nonlinear_evolve

class NonlinearEvolve:
    """The `energy` experiment's grid (1024x512), datum and dt = 0.1 over a
    horizon of 20 IFRK4 steps, through `run_experiment` with the `sup`
    diagnostic at five snapshots and the trajectory saved."""

    name = "nonlinear_evolve"

    def __init__(self, seed, quick, work: Path):
        self.seed = seed
        self.work = work
        self.t_end = 0.4 if quick else 2.0
        self.capture = EvolveCapture()

    def setup(self):
        base = theorem_suite_configs()["energy"]
        cfg = dataclasses.replace(
            jittered(base, np.random.default_rng(self.seed)),
            solver=SolverConfig(dt=0.1, t0=0.0, t_end=self.t_end),
            snapshot_times=tuple(self.t_end * k / 4 for k in range(5)),
            diagnostics=(DiagnosticSpec("sup"),),
            linear=False, save_trajectory=True, out_dir=None)
        touch_grid(cfg.grid)
        kpwave.build_initial_data(cfg)
        return cfg

    def round(self, cfg):
        out = kpwave.run_experiment(cfg, self.work / "run")
        traj = self.capture.last
        return {"out": out, "traj": traj, "ops": [("run_experiment energy", None)],
                "sim_time": cfg.solver.t_end - cfg.solver.t0,
                "snapshots": len(checks.read_csv(out / "sup.csv"))}

    def check(self, cfg, res):
        traj, out = res["traj"], res["out"]
        loaded = Trajectory.load(out / "trajectory")
        g = cfg.grid
        checks.check_nonlinear_run(
            [s.time_tag for s in traj.snapshots], [s.samples for s in traj.snapshots],
            [s.time_tag for s in loaded.snapshots], [s.samples for s in loaded.snapshots],
            checks.read_csv(out / "sup.csv"), g.Lx, g.Ly)

    def close(self):
        self.capture.close()


# ---------------------------------------------------------------------------
# snapshot_diagnostics

class SnapshotDiagnostics:
    """Four canned experiments on the exact linear flow, each on its own
    grid and through `run_experiment`: `energy` with `norms` on three
    snapshots, `profile` with `decompose` at two times, `packet` with
    `gamma` on seven snapshots and `scatter` with `scatter` at three
    centres.  Then white noise is ingested with `project_field` on each of
    the six canned grids."""

    name = "snapshot_diagnostics"
    # grids whose physical phase makes the x-Nyquist coefficient non-real:
    # ingesting noise there raises "coefficients break Hermitian symmetry"
    OFFSET_GRIDS = ("profile", "packet")

    def __init__(self, seed, quick, work: Path):
        self.seed = seed
        self.quick = quick
        self.work = work
        self.capture = EvolveCapture()

    def setup(self):
        canned = theorem_suite_configs()
        rng = np.random.default_rng(self.seed)
        R = dataclasses.replace
        en, pr, pk, sc = (jittered(canned[k], rng)
                          for k in ("energy", "profile", "packet", "scatter"))
        times = [4.0] if self.quick else [4.0, 16.0]
        sc_centers = [8.0] if self.quick else [8.0, 16.0, 32.0]
        runs = {
            "energy": R(en, solver=R(en.solver, t_end=times[-1]),
                        snapshot_times=(0.0, *times),
                        diagnostics=(DiagnosticSpec("norms"),)),
            "profile": R(pr, solver=R(pr.solver, t_end=times[-1]),
                         snapshot_times=(0.0, *times),
                         diagnostics=(DiagnosticSpec("decompose", {"times": times}),)),
            "packet": R(pk, snapshot_times=pk.snapshot_times[::24 if self.quick else 8]),
            "scatter": R(sc, solver=R(sc.solver, t_end=sc_centers[-1] + 1.0),
                         snapshot_times=(0.0,) + bracketed_times(sc_centers, 0.05)
                         + (sc_centers[-1] + 1.0,),
                         diagnostics=(DiagnosticSpec("scatter", {"times": sc_centers}),)),
        }
        runs = {k: R(c, linear=True, save_trajectory=False, out_dir=None)
                for k, c in runs.items()}
        for c in runs.values():
            touch_grid(c.grid)
            kpwave.build_initial_data(c)
        # white noise for ingestion; on the offset grids the noise does not
        # depend on the seed, because ingestion there fails whatever it is
        noise = {}
        fixed = np.random.default_rng(FIXED_NOISE_SEED)
        for name, c in canned.items():
            src = fixed if name in self.OFFSET_GRIDS else rng
            touch_grid(c.grid)
            noise[name] = RealField(c.grid, src.standard_normal(c.grid.shape), 0.0)
        return {"runs": runs, "noise": noise}

    def round(self, state):
        outs, ops = {}, []
        for name, cfg in state["runs"].items():
            outs[name] = (kpwave.run_experiment(cfg, self.work / name), self.capture.last)
            ops.append((f"run_experiment {name}", None))
        ingested = {}
        for name, f in state["noise"].items():
            try:
                ingested[name] = kpwave.project_field(f)
                ops.append((f"project_field {name}", None))
            except InvalidInputError as exc:
                ops.append((f"project_field {name}", str(exc)))
        evals = (len(checks.read_csv(outs["energy"][0] / "norms.csv"))
                 + len(state["runs"]["profile"].diagnostics[0].params["times"])
                 + len(checks.read_csv(outs["packet"][0] / "gamma.csv"))
                 + len(checks.read_csv(outs["scatter"][0] / "scatter.csv")))
        sim_time = sum(c.solver.t_end - c.solver.t0 for c in state["runs"].values())
        return {"outs": outs, "ingested": ingested, "ops": ops,
                "sim_time": sim_time, "snapshots": evals}

    def check(self, state, res):
        outs = res["outs"]
        out, traj = outs["energy"]
        g = traj.snapshots[0].grid
        checks.check_norms(checks.read_csv(out / "norms.csv"),
                           [s.samples for s in traj.snapshots], g.Lx, g.Ly)
        checks.check_profile(checks.read_csv(outs["profile"][0] / "profile.csv"))
        checks.check_gamma(checks.read_csv(outs["packet"][0] / "gamma.csv"))
        out, traj = outs["scatter"]
        g = traj.snapshots[0].grid
        norm_at = {float(s.time_tag): checks.l2(s.samples, g.Lx, g.Ly) for s in traj.snapshots}
        checks.check_scatter(checks.read_csv(out / "scatter.csv"), norm_at)
        for name, f in res["ingested"].items():
            checks.check_ingestion(state["noise"][name].samples, f.samples,
                                   drops_nyquist=name in self.OFFSET_GRIDS)

    def close(self):
        self.capture.close()


# ---------------------------------------------------------------------------
# linearized_evolve

class LinearizedEvolve:
    """`evolve_linearized` of w0 = dx u0 and of w0 = dy u0 over t in [0, 1]
    (dt = 0.05, 20 steps each) along a nonlinear background of the
    `scatter` experiment's datum (1024x128, amplitude 0.05) stored at every
    step, which set-up evolves."""

    name = "linearized_evolve"
    DT = 0.05

    def __init__(self, seed, quick, work: Path):
        self.seed = seed
        self.T = 0.2 if quick else 1.0

    def setup(self):
        cfg = jittered(theorem_suite_configs()["scatter"],
                       np.random.default_rng(self.seed))
        touch_grid(cfg.grid)
        u0 = kpwave.build_initial_data(cfg)
        solver = SolverConfig(dt=self.DT, t0=0.0, t_end=self.T)
        background = kpwave.evolve(u0, solver)
        g = cfg.grid
        w0 = {}
        for what, sym in (("dx", checks.dx_symbol), ("dy", checks.dy_symbol)):
            w0[what] = (RealField(g, checks.apply_symbol(u0.samples, sym(g.shape, g.Lx, g.Ly)), 0.0),
                        sym(g.shape, g.Lx, g.Ly))
        return {"grid": g, "solver": solver, "background": background, "w0": w0}

    def round(self, state):
        results, ops = {}, []
        for what, (w0, _sym) in state["w0"].items():
            results[what] = kpwave.evolve_linearized(w0, state["background"], state["solver"],
                                              snapshot_times=[self.T / 2, self.T])
            ops.append((f"evolve_linearized {what}", None))
        return {"results": results, "ops": ops, "sim_time": self.T * len(results),
                "snapshots": sum(len(r.snapshots) for r in results.values())}

    def check(self, state, res):
        bg = state["background"]
        for what, traj in res["results"].items():
            sym = state["w0"][what][1]
            checks.require(len(traj.snapshots) == 2, f"linearized {what}: expected 2 snapshots")
            for s in traj.snapshots:
                t = float(s.time_tag)
                checks.check_linearized(s.samples, bg.field_at(t).samples, sym, what, t)

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (NonlinearEvolve, SnapshotDiagnostics, LinearizedEvolve)}


# ---------------------------------------------------------------------------
# the measuring loop

def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        work: Path, quick: bool = False) -> dict:
    """Set up SETUPS times, then run whole rounds until `seconds` have
    passed, checking each.  Returns the result record.  `quick` keeps the
    grids and data but takes the shortest horizons and fewest snapshots
    the checks allow, for smoke runs."""
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, quick, work)
    try:
        return _measure(wl, seconds, trace, import_s)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, seconds, trace, import_s):
    setup_times = []
    tracer = Tracer() if trace else None
    for i in range(SETUPS):
        traced = trace and i == SETUPS - 1
        if traced:
            tracer.segment = "setup"
            tracer.install()
        t0 = time.perf_counter()
        try:
            state = wl.setup()
        finally:
            if traced:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    # in traced mode rounds alternate untraced / traced, so the overhead is
    # measured on the same load in the same run
    rounds, times, traced_flags = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        if traced:
            tracer.segment = f"round{i}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            res = wl.round(state)
        finally:
            if traced:
                tracer.uninstall()
        times.append(time.perf_counter() - t0)
        traced_flags.append(traced)
        wl.check(state, res)
        rounds.append({"ops": res["ops"], "work": (res["sim_time"], res["snapshots"])})
        i += 1
        if time.perf_counter() - start >= seconds and (not trace or i >= 2):
            break

    works = {r["work"] for r in rounds}
    checks.require(len(works) == 1, f"rounds did different amounts of work: {works}")
    sim_time, snapshots = works.pop()
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = [(op, err) for r in rounds for op, err in r["ops"] if err is not None]
    untraced = [t for t, f in zip(times, traced_flags) if not f]
    record = {
        "workload": wl.name,
        "rounds": len(rounds),
        "round_s": times,
        "round_traced": traced_flags,
        "setup_s": setup_times,
        "import_s": import_s,
        "sim_time_per_round": sim_time,
        "snapshots_per_round": snapshots,
        "attempted": attempted,
        "failed": len(failed),
        "failed_ops": dict(sorted(set(failed))),
    }
    if not trace:
        record["metrics"] = {
            "sim_time_per_s": (statistics.median(sim_time / t for t in untraced), "time_units/s"),
            "snapshots_per_s": (statistics.median(snapshots / t for t in untraced), "1/s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        return record
    traced_times = [t for t, f in zip(times, traced_flags) if f]
    totals = totals_by_segment(tracer.spans)
    setup_tot = totals.pop("setup", {})
    combined = combine(setup_tot, list(totals.values()))
    metrics = per_layer_metrics(combined)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_times) / statistics.median(untraced) - 1.0), "%")
    record["metrics"] = metrics
    record["spans"] = tracer.dump()
    return record

