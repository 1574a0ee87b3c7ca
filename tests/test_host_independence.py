"""Outputs and CPU use that do not depend on the BLAS thread count: every
norm, leakage check and pairing sums in numpy's own einsum loop, so a run
writes the same bytes under one or two OpenBLAS threads, and a stepping run
keeps one CPU busy, not two.  The dispersion relation and the exact linear
flow's factor do not depend on numpy's SIMD dispatch either."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(args, threads: int, **env) -> subprocess.CompletedProcess:
    """Run python with `args` in a fresh interpreter under
    OPENBLAS_NUM_THREADS=threads and `env`, with the package's src/ on the path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads), **env}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


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


_GAMMA = """
from kpwave import build_initial_data, evolve, theorem_suite_configs
from kpwave.geometry import RayVelocity
from kpwave.packets import PacketParams, _pair
from kpwave.vfields import _Spectrum
cfg = theorem_suite_configs()["packet"]
# from t = 50 the support holds over 10k samples, past which OpenBLAS splits a dot
# product over its threads; at t = 53 to 56.55 the packet straddles the split
times = [40.0, 50.0, 53.0, 55.0, 56.55, 60.0, 70.0, 80.0]
traj = evolve(build_initial_data(cfg), cfg.solver, times, linear=True)
vel = RayVelocity(*cfg.diagnostics[0].settings["rays"][0])
print(repr([_pair(_Spectrum.of(traj.field_at(t)).d(1), PacketParams(vel, t)) for t in times]))
"""


def test_gamma_is_the_same_under_one_and_two_blas_threads():
    one, two = (_python(["-c", _GAMMA], threads).stdout for threads in (1, 2))
    assert one == two


_OMEGA = """
import hashlib
from kpwave.grids import _flow_factor, omega_values
from kpwave.harness import theorem_suite_configs
h = hashlib.sha256()
for c in theorem_suite_configs().values():
    g = c.grid
    h.update(omega_values(g).tobytes())
    for t in (c.solver.dt / 2, 17.3, -40.0):
        h.update(_flow_factor(g, g.ny // 2 + 1, t).tobytes())
print(h.hexdigest())
"""


def test_omega_and_the_flow_factor_do_not_depend_on_simd_dispatch():
    """The same bytes with every dispatch target above numpy's baseline
    that this host has, and with all of them switched off."""
    targets = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if not targets:
        pytest.skip("numpy dispatches to no target above its baseline on this host")
    here = _python(["-c", _OMEGA], 1, NPY_DISABLE_CPU_FEATURES="").stdout
    without = _python(["-c", _OMEGA], 1, NPY_DISABLE_CPU_FEATURES=" ".join(targets)).stdout
    assert here == without
