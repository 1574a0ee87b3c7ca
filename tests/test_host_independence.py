"""Outputs and CPU use that do not depend on the BLAS thread count: every
norm, leakage check and pairing sums in numpy's own einsum loop, so a run
writes the same bytes under one or two OpenBLAS threads, and a stepping run
keeps one CPU busy, not two."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(args, threads: int, **kw) -> subprocess.CompletedProcess:
    """Run python with `args` in a fresh interpreter under
    OPENBLAS_NUM_THREADS=threads, with the package's src/ on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, **kw)


def test_csvs_are_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    for threads in (1, 2):
        _python(["-m", "kpwave.cli", "--out", str(tmp_path / str(threads)), "theorem-suite",
                 "--scale", "0.25", "--only", "energy", "--only", "packet"], threads)
    one, two = (sorted(p.relative_to(tmp_path / d) for p in (tmp_path / d).rglob("*.csv"))
                for d in ("1", "2"))
    assert one == two and len(one) == 4  # norms, sup, gamma, resonances
    for name in one:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


_STEPPING = """
import resource, time
from kpwave import SolverConfig, build_initial_data, evolve, theorem_suite_configs
u0 = build_initial_data(theorem_suite_configs()["scatter"])  # 1024 x 128
cpu = lambda: (lambda r: r.ru_utime + r.ru_stime)(resource.getrusage(resource.RUSAGE_SELF))
c0, w0 = cpu(), time.perf_counter()
evolve(u0, SolverConfig(dt=0.05, t0=0.0, t_end=5.0), snapshot_times=[5.0])
print(cpu() - c0, time.perf_counter() - w0)
"""


def test_a_stepping_run_keeps_one_cpu_busy():
    cpu, wall = map(float, _python(["-c", _STEPPING], 2).stdout.split())
    assert cpu <= 1.05 * wall, (cpu, wall)
