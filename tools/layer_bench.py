"""Per-layer timings of kpwave source trees side by side, and optionally
their kpbench end-to-end metrics in alternating pairs.

    python3 tools/layer_bench.py --tree parent=../kpwave-parent --tree change=. \\
        --rounds 10 --repeats 15 --out BENCH.json
    # add alternating kpbench pairs (each `--workload all --trace 0`)
    python3 tools/layer_bench.py --tree parent=../kpwave-parent --tree change=. \\
        --rounds 10 --kpbench-pairs 10 --kpbench-seconds 30 --out BENCH.json

Each tree is the root of a kpwave checkout.  Every round runs each tree in
a fresh interpreter that imports kpwave from the tree's `src/`, and the
order of the trees alternates from round to round.  The `import` layer is
the wall time of that first import, numpy's included, and the number of
scipy modules it loaded.  At the energy grid
(1024x512) and the packet grid (1024x256) of the canned suite, a worker
times the transform pair (`spectrum` then `samples_of`), one flux
evaluation (the product and its dealiased forward transform), one IFRK4
step, the exact linear flow of the half spectrum to t = 4
(`evolution._linear_flow`), a `derivative` and an `x_norm`, each on the
experiment's initial datum; on the profile grid (1024x256) it times a `pointwise_profile` of
that experiment's datum flowed linearly to t = 4, and on the packet grid
one `gamma` sample (`packets._pair`: u_x's spectrum, u_xx and the pairing)
on that experiment's ray, its datum flowed linearly to t = 40.  It keeps
the median of `--repeats` calls, and the `tracemalloc` peak of one more
call, untimed.
The report gives, per tree and layer, the median and interquartile range
of those round medians in milliseconds, each tree's median over the first
tree's, and the median of the peaks in MiB (of the scipy module counts for
`import`).

With `--kpbench-pairs n`, n pairs of `kpbench/run.py --workload all
--trace 0` runs follow (seed 9001 + i for pair i, tree order alternating),
and the report adds every end-to-end metric per pair, its median and
interquartile range per tree, and how many pairs each later tree was
ahead of the first on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

GRIDS = {"1024x512": "energy", "1024x256": "packet"}
LAYERS = ("transform_pair", "flux", "ifrk4_step", "linear_flow", "derivative", "x_norm")
PROFILE_TIME = 4.0  # the `pointwise_profile` layer's time, on the profile grid
GAMMA_TIME = 40.0  # the `gamma` layer's time, on the packet grid
FLOW_TIME = 4.0  # the `linear_flow` layer's time, on each grid of GRIDS
# which way each end-to-end metric improves, as the benchmark declares it
BETTER = {m["name"]: m["better"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def _measure(fn, make_args, repeats: int) -> dict:
    """The median time in ms of `repeats` calls, and the tracemalloc peak in
    MiB of one more, untimed; the arguments are made outside both."""
    fn(*make_args())  # warm the plan caches
    args = make_args()
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times = []
    for _ in range(repeats):
        args = make_args()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return {"ms": 1e3 * statistics.median(times), "peak_mib": peak / 2**20}


def worker(root: Path, repeats: int) -> dict:
    """The import time in ms and the scipy modules it loaded, then the
    median call time in ms and the peak in MiB of every layer, with kpwave
    imported from `root`/src."""
    sys.path.insert(0, str(root / "src"))
    import warnings

    start = time.perf_counter()
    from kpwave import decompose, evolution, geometry, grids, harness, packets, vfields

    out = {"import": {"ms": 1e3 * (time.perf_counter() - start), "scipy_modules": sum(
        name == "scipy" or name.startswith("scipy.") for name in sys.modules)}}
    warnings.simplefilter("ignore")  # x_norm's untrusted-coordinate warnings
    cfgs = harness.theorem_suite_configs()
    cfg = cfgs["profile"]
    u = evolution.evolve(harness.build_initial_data(cfg), cfg.solver, linear=True,
                         snapshot_times=[cfg.solver.t0, PROFILE_TIME]).field_at(PROFILE_TIME)
    out[f"{cfg.grid.nx}x{cfg.grid.ny}.pointwise_profile"] = _measure(
        lambda: decompose.pointwise_profile(u, PROFILE_TIME), tuple, repeats)
    cfg = cfgs["packet"]
    u = evolution.evolve(harness.build_initial_data(cfg), cfg.solver, linear=True,
                         snapshot_times=[cfg.solver.t0, GAMMA_TIME]).field_at(GAMMA_TIME)
    p = packets.PacketParams(geometry.RayVelocity(*cfg.diagnostics[0].settings["rays"][0]),
                             GAMMA_TIME)
    out[f"{cfg.grid.nx}x{cfg.grid.ny}.gamma"] = _measure(
        lambda: packets._pair(vfields._Spectrum.of(u).d(1), p), tuple, repeats)
    for label, name in GRIDS.items():
        cfg = cfgs[name]
        g, dt = cfg.grid, cfg.solver.dt
        u = harness.build_initial_data(cfg)
        c = grids.ingest(u.samples)
        w = grids.samples_of(c, g.shape)
        flux, ws = evolution._flux(g), evolution._Workspace(g, dt)
        calls = {
            "transform_pair": (lambda: grids.samples_of(grids.spectrum(u.samples), g.shape),
                               tuple),
            "flux": (flux, lambda: (w.copy(),)),  # a flux may overwrite its samples
            "ifrk4_step": (lambda: ws.advance(c, 0.0), tuple),
            "linear_flow": (lambda: evolution._linear_flow(c, g, FLOW_TIME), tuple),
            "derivative": (lambda: vfields.derivative(u, dx_order=1), tuple),
            "x_norm": (lambda: vfields.x_norm(u, 1.0), tuple),
        }
        for layer in LAYERS:
            out[f"{label}.{layer}"] = _measure(*calls[layer], repeats)
    return out


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "iqr": q3 - q1, "n": len(values)}


def _last_json(cmd: list, cwd: Path, timeout: float) -> dict:
    """The JSON object on the last line of `cmd`'s output; kpbench prints
    one (with "correct": false) even when a check fails."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"layer_bench: {' '.join(cmd)} in {cwd} exited with "
                         f"{proc.returncode} and no JSON line") from None


def layer_rounds(trees: dict, rounds: int, repeats: int) -> dict:
    per_tree = {label: [] for label in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for label in order:
            per_tree[label].append(_last_json(
                [sys.executable, str(Path(__file__).resolve()), "--worker", str(trees[label]),
                 "--repeats", str(repeats)], trees[label], 600))
        print(f"layer round {r + 1}/{rounds} done", file=sys.stderr, flush=True)
    first = next(iter(trees))
    report = {}
    for key in per_tree[first][0]:
        stats = {label: _spread([rec[key]["ms"] for rec in recs])
                 for label, recs in per_tree.items()}
        for label, recs in per_tree.items():
            stats[label]["ratio_to_" + first] = stats[label]["median"] / stats[first]["median"]
            for field in per_tree[first][0][key].keys() - {"ms"}:  # the peak, or scipy_modules
                stats[label][field] = statistics.median(rec[key][field] for rec in recs)
        report[key] = stats
    return report


def kpbench_pairs(trees: dict, pairs: int, seconds: float) -> dict:
    runs = {label: [] for label in trees}
    for i in range(pairs):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label in order:
            res = _last_json([sys.executable, "kpbench/run.py", "--workload", "all",
                              "--seed", str(9001 + i), "--seconds", str(seconds),
                              "--trace", "0"], trees[label], 3 * (seconds + 300))
            runs[label].append({"seed": 9001 + i, "correct": res["correct"],
                                "attempted": res["attempted"], "failed": res["failed"],
                                **{k: v["value"] for k, v in res["metrics"].items()}})
        print(f"kpbench pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)
    first = next(iter(trees))
    summary = {}
    for metric in (k for k in runs[first][0] if k.split(".")[-1] in BETTER):
        higher = BETTER[metric.split(".")[-1]] == "higher"
        stats = {label: _spread([run[metric] for run in rs]) for label, rs in runs.items()}
        for label in list(trees)[1:]:
            stats[label]["change_of_median"] = (stats[label]["median"]
                                                / stats[first]["median"] - 1)
            stats[label]["pairs_ahead"] = sum(
                (b[metric] > a[metric]) == higher and b[metric] != a[metric]
                for a, b in zip(runs[first], runs[label]))
        summary[metric] = stats
    return {"command": f"python3 kpbench/run.py --workload all --seed <9001+i> "
                       f"--seconds {seconds:g} --trace 0",
            "summary": summary, "runs": runs}


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append", default=[], metavar="LABEL=CHECKOUT",
                   help="a kpwave checkout to measure; the first is the reference")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=15, help="calls per layer and round")
    p.add_argument("--kpbench-pairs", type=int, default=0)
    p.add_argument("--kpbench-seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path)
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(args.worker.resolve(), args.repeats)))
        return 0
    trees = dict(t.split("=", 1) for t in args.tree)
    trees = {label: Path(root).resolve() for label, root in trees.items()}
    if args.rounds < 2 or args.kpbench_pairs == 1:
        p.error("an interquartile range needs at least 2 rounds and 2 pairs")
    if len(trees) < 1 or any(not (r / "src" / "kpwave").is_dir() for r in trees.values()):
        p.error("each --tree must name a kpwave checkout with src/kpwave")
    report = {"environment": environment(), "trees": list(trees),
              "layers": {"rounds": args.rounds, "repeats": args.repeats, "unit": "ms",
                         "peak_unit": "MiB",
                         "timings": layer_rounds(trees, args.rounds, args.repeats)}}
    if args.kpbench_pairs:
        report["kpbench"] = kpbench_pairs(trees, args.kpbench_pairs, args.kpbench_seconds)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
