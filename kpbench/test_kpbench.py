"""The benchmark's own tests: each check fails on a perturbed output, and
each workload runs end to end at the quick size.

    python3 -m pytest kpbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailure
from conftest import HERE, ROOT


def _run_round(cls, work):
    wl = cls(seed=7, quick=True, work=work)
    state = wl.setup()
    res = wl.round(state)
    return wl, state, res


@pytest.fixture(scope="module")
def nonlinear(work):
    wl, state, res = _run_round(workloads.NonlinearEvolve, work)
    yield wl, state, res
    wl.close()


@pytest.fixture(scope="module")
def diagnostics(work):
    wl, state, res = _run_round(workloads.SnapshotDiagnostics, work)
    yield wl, state, res
    wl.close()


@pytest.fixture(scope="module")
def linearized(work):
    wl, state, res = _run_round(workloads.LinearizedEvolve, work)
    yield wl, state, res
    wl.close()


# ---------------------------------------------------------------------------
# nonlinear_evolve

def _nonlinear_args(state, res):
    snaps = [s.samples.copy() for s in res["traj"].snapshots]
    times = [s.time_tag for s in res["traj"].snapshots]
    rows = checks.read_csv(res["out"] / "sup.csv")
    g = state.grid
    return times, snaps, list(times), [s.copy() for s in snaps], rows, g.Lx, g.Ly


def test_nonlinear_round_passes(nonlinear):
    wl, state, res = nonlinear
    wl.check(state, res)
    checks.check_nonlinear_run(*_nonlinear_args(state, res))


def test_rescaled_snapshot_breaks_l2(nonlinear):
    _, state, res = nonlinear
    times, snaps, rt, reloaded, rows, Lx, Ly = _nonlinear_args(state, res)
    snaps[-1] *= 1.001
    with pytest.raises(CheckFailure, match="L2 drift"):
        checks.check_nonlinear_run(times, snaps, rt, reloaded, rows, Lx, Ly)


def test_sign_flipped_snapshot_breaks_hamiltonian(nonlinear):
    _, state, res = nonlinear
    times, snaps, rt, reloaded, rows, Lx, Ly = _nonlinear_args(state, res)
    snaps[-1] = -snaps[-1]   # same L2 norm, opposite cubic term
    with pytest.raises(CheckFailure, match="Hamiltonian"):
        checks.check_nonlinear_run(times, snaps, rt, reloaded, rows, Lx, Ly)


def test_x_mean_is_caught(nonlinear):
    _, state, res = nonlinear
    times, snaps, rt, reloaded, rows, Lx, Ly = _nonlinear_args(state, res)
    snaps[2] = snaps[2] + 1e-6
    with pytest.raises(CheckFailure, match="x-mean"):
        checks.check_nonlinear_run(times, snaps, rt, reloaded, rows, Lx, Ly)


def test_reload_must_be_bit_identical(nonlinear):
    _, state, res = nonlinear
    times, snaps, rt, reloaded, rows, Lx, Ly = _nonlinear_args(state, res)
    i = np.unravel_index(np.argmax(np.abs(reloaded[1])), reloaded[1].shape)
    reloaded[1][i] = np.nextafter(reloaded[1][i], np.inf)
    with pytest.raises(CheckFailure, match="bit-identical"):
        checks.check_nonlinear_run(times, snaps, rt, reloaded, rows, Lx, Ly)


def test_sup_csv_must_match_samples(nonlinear):
    _, state, res = nonlinear
    times, snaps, rt, reloaded, rows, Lx, Ly = _nonlinear_args(state, res)
    rows[-1] = dict(rows[-1], sup_u=repr(float(rows[-1]["sup_u"]) * (1 + 1e-15)))
    with pytest.raises(CheckFailure, match="sup.csv"):
        checks.check_nonlinear_run(times, snaps, rt, reloaded, rows, Lx, Ly)


# ---------------------------------------------------------------------------
# snapshot_diagnostics

def test_diagnostics_round_passes_and_counts_offset_failures(diagnostics):
    wl, state, res = diagnostics
    wl.check(state, res)
    failed = sorted(name for name, err in res["ops"] if err is not None)
    assert failed == ["project_field packet", "project_field profile"]
    assert len(res["ops"]) == 10


def _norms(res):
    out, traj = res["outs"]["energy"]
    g = traj.snapshots[0].grid
    return checks.read_csv(out / "norms.csv"), [s.samples for s in traj.snapshots], g.Lx, g.Ly


def test_norm_drift_is_caught(diagnostics):
    rows, snaps, Lx, Ly = _norms(diagnostics[2])
    rows[-1] = dict(rows[-1], ly2dxu=repr(float(rows[-1]["ly2dxu"]) * (1 + 1e-9)))
    with pytest.raises(CheckFailure, match="ly2dxu varies"):
        checks.check_norms(rows, snaps, Lx, Ly)


def test_rescaled_snapshot_breaks_norm_l2(diagnostics):
    rows, snaps, Lx, Ly = _norms(diagnostics[2])
    snaps = [s.copy() for s in snaps]
    snaps[-1] *= 1.001
    with pytest.raises(CheckFailure, match="numpy L2"):
        checks.check_norms(rows, snaps, Lx, Ly)


def test_norm_check_needs_a_contained_field(diagnostics):
    rows, snaps, Lx, Ly = _norms(diagnostics[2])
    snaps = [s.copy() for s in snaps]
    snaps[1][0, :] += 1e-2 * np.abs(snaps[1]).max()
    with pytest.raises(CheckFailure, match="leakage"):
        checks.check_norms(rows, snaps, Lx, Ly)


def test_profile_ratio_bound_is_caught(diagnostics):
    rows = checks.read_csv(diagnostics[2]["outs"]["profile"][0] / "profile.csv")
    rows[0] = dict(rows[0], ratio_ell="3.0")
    with pytest.raises(CheckFailure, match="ratio_ell reaches"):
        checks.check_profile(rows)


def test_shifted_gamma_series_is_caught(diagnostics):
    rows = checks.read_csv(diagnostics[2]["outs"]["packet"][0] / "gamma.csv")
    k = len(rows) // 2
    rows[k] = {**rows[k], **{c: repr(1.2 * float(rows[k][c]))
                             for c in ("re_gamma", "im_gamma", "abs_gamma")}}
    with pytest.raises(CheckFailure, match="varies by"):
        checks.check_gamma(rows)


def test_back_propagated_drift_is_caught(diagnostics):
    out, traj = diagnostics[2]["outs"]["scatter"]
    g = traj.snapshots[0].grid
    norm_at = {float(s.time_tag): checks.l2(s.samples, g.Lx, g.Ly) for s in traj.snapshots}
    rows = checks.read_csv(out / "scatter.csv")
    checks.check_scatter(rows, norm_at)
    t = float(rows[0]["t[code-units]"])
    rows[0] = dict(rows[0], back_propagated_data_drift=repr(1e-9 * norm_at[t]))
    with pytest.raises(CheckFailure, match="roundoff"):
        checks.check_scatter(rows, norm_at)


def test_ingestion_may_change_only_the_zero_line(diagnostics):
    _, state, res = diagnostics
    before = state["noise"]["energy"].samples
    after = res["ingested"]["energy"].samples
    checks.check_ingestion(before, after, drops_nyquist=False)
    wave = np.cos(2 * np.pi * np.arange(before.shape[0]) / before.shape[0])[:, None]
    with pytest.raises(CheckFailure, match="off the xi = 0 line"):
        checks.check_ingestion(before, after + 1e-6 * wave, drops_nyquist=False)


# ---------------------------------------------------------------------------
# linearized_evolve

def test_linearized_round_passes(linearized):
    wl, state, res = linearized
    wl.check(state, res)


def test_sign_flipped_linearized_result_is_caught(linearized):
    _, state, res = linearized
    traj = res["results"]["dx"]
    s = traj.snapshots[-1]
    t = float(s.time_tag)
    sym = state["w0"]["dx"][1]
    with pytest.raises(CheckFailure, match="misses"):
        checks.check_linearized(-s.samples, state["background"].field_at(t).samples,
                                sym, "dx", t)


# ---------------------------------------------------------------------------
# end to end

def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "kpbench" / "run.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=cwd, timeout=300)
    return proc


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_end_to_end_quick(name):
    proc = _bench("--workload", name, "--seed", "11", "--seconds", "0.1",
                  "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    failing = 2 if name == "snapshot_diagnostics" else 0   # of 10 operations
    assert res["failed"] * 10 == failing * res["attempted"]


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "linearized_evolve", "--seed", "11", "--seconds", "0.1",
                  "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert res["metrics"]["evolution.step_linearized.calls"]["value"] == 8


def test_refuses_to_run_without_the_sources(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "kpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("--workload", "nonlinear_evolve", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
