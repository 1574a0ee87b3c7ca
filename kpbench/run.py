"""kpwave benchmark.

    python3 kpbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kpwave checkout; kpwave is imported from its
`src/` directory, never from an installed copy.  Workloads:
nonlinear_evolve, snapshot_diagnostics, linearized_evolve, or `all`, which
runs each in its own process.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
whole record (environment, per-round times, spans) goes to
`.bench_out/results/`.  See kpbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("nonlinear_evolve", "snapshot_diagnostics", "linearized_evolve")


def parse_args(argv):
    p = argparse.ArgumentParser(description="kpwave benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shortest horizons and fewest snapshots, for smoke runs")
    return p.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy
    import scipy.fft

    threads = {k: v for k, v in sorted(os.environ.items())
               if "THREAD" in k.upper() or k.upper().endswith("_NUM_CPUS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": scipy.fft.get_workers(),
        "thread_env": threads,
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 300, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"kpbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kpwave" / "__init__.py").is_file():
        print(f"kpbench: no kpwave sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("kpbench: need --seconds > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kpwave
    import_s = time.perf_counter() - t0
    if SRC.resolve() not in Path(kpwave.__file__).resolve().parents:
        print(f"kpbench: imported kpwave from {kpwave.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    correct, problem = True, None
    try:
        rec = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            import_s, work, args.quick)
    except checks.CheckFailure as exc:
        correct, problem = False, str(exc)
        rec = {"workload": args.workload, "attempted": 1, "failed": 0, "metrics": {}}

    spans = rec.pop("spans", None)
    rec.update(seed=args.seed, seconds=args.seconds, trace=args.trace, quick=args.quick,
               env=env, correct=correct, problem=problem)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(rec, indent=1, sort_keys=True))
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload}: {rec.get('rounds', 0)} rounds, "
          f"attempted {rec['attempted']}, failed {rec['failed']}")
    for name, reason in rec.get("failed_ops", {}).items():
        print(f"  failed: {name} ({reason})")
    for name, (value, unit) in rec["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    if not correct:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
