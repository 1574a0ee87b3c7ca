"""Command-line front end: subcommands, JSON outputs, and error paths."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpwave.cli import main
from kpwave.evolution import SolverConfig
from kpwave.grids import Grid2D
from kpwave.harness import (
    DiagnosticSpec,
    ExperimentConfig,
    InitialSpec,
    Pulse,
    theorem_suite_configs,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::kpwave.vfields.UntrustedFieldWarning")


@pytest.fixture()
def config_path(tmp_path):
    cfg = ExperimentConfig(
        grid=Grid2D(64, 32, 40.0, 20.0, 0.0, 0.0),
        initial=InitialSpec("modulated_gaussian",
                            (Pulse(0.05, (1.0, 0.0), (4.0, 3.0)),)),
        solver=SolverConfig(dt=0.1, t0=0.0, t_end=1.0),
        diagnostics=(DiagnosticSpec("norms"),),
        snapshot_times=(0.0, 0.5, 1.0),
        save_trajectory=False)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvolve:
    def test_writes_outputs(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "--config", str(config_path),
                               "--out", str(out_dir), "evolve")
        assert code == 0
        assert json.loads(out)["out_dir"] == str(out_dir)
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "norms.csv").exists()

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_t_end_refused(self, capsys, config_path, tmp_path, value):
        d = json.loads(config_path.read_text())
        d["solver"]["t_end"] = value
        config_path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "--config", str(config_path),
                               "--out", str(tmp_path / "run"), "evolve")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "t_end must be finite" in error["message"]

    def test_misspelled_key_refused(self, capsys, config_path, tmp_path):
        d = json.loads(config_path.read_text())
        d["initial"]["pulses"][0]["centre"] = [1.0, 0.0]
        config_path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "--config", str(config_path),
                               "--out", str(tmp_path / "run"), "evolve")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert "initial.pulses[0]: unknown key(s) ['centre']" in error["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, param, value", [("decompose", "delta", 1.0),
                                                    ("decompose", "width", 0.5),
                                                    ("scatter", "alpha", 0.2)])
    def test_a_constant_of_a_diagnostic_is_no_parameter(
            self, capsys, config_path, tmp_path, kind, param, value):
        d = json.loads(config_path.read_text())
        d["diagnostics"] = [{"kind": kind, "params": {param: value}}]
        config_path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "--config", str(config_path),
                               "--out", str(tmp_path / "run"), "evolve")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert f"diagnostics.{kind}: unknown parameter(s) ['{param}']" in error["message"]
        assert not list(tmp_path.rglob("*.csv"))

    def test_gamma_ray_leaving_the_trusted_box_refused(self, capsys, tmp_path):
        cfg = theorem_suite_configs(0.1)["packet"]
        cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, t_end=140.0),
                                  snapshot_times=(0.0, 20.0, 60.0, 100.0, 140.0))
        path = tmp_path / "packet.json"
        path.write_text(cfg.to_json())
        code, _, err = run_cli(capsys, "--config", str(path), "--out", str(tmp_path / "run"),
                               "evolve")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("diagnostics.gamma.rays: ray (-3.0, 0.0) at t=140.0")
        assert not list(tmp_path.rglob("*.csv"))

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--out", str(tmp_path / "x"), "evolve")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_diagnostic_subcommand_restricts(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "gamma_run"
        code, out, _ = run_cli(capsys, "--config", str(config_path),
                               "--out", str(out_dir), "norms")
        assert code == 0
        assert json.loads(out)["diagnostic"] == "norms"
        assert (out_dir / "norms.csv").exists()


    def test_sup_subcommand(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "sup_run"
        code, out, _ = run_cli(capsys, "--config", str(config_path),
                               "--out", str(out_dir), "sup")
        assert code == 0
        assert json.loads(out)["diagnostic"] == "sup"
        assert (out_dir / "sup.csv").exists()
        assert not (out_dir / "norms.csv").exists()


class TestResonances:
    def test_default_triad(self, capsys):
        code, out, _ = run_cli(capsys, "resonances")
        assert code == 0
        data = json.loads(out)
        assert data["k1"] == pytest.approx([1.0, math.sqrt(3.0)])
        assert data["k2"] == pytest.approx([1.0, -math.sqrt(3.0)])
        assert data["k3"] == pytest.approx([2.0, 0.0])
        assert data["omegas"] == pytest.approx([4.0, 4.0, 8.0])
        assert abs(data["residual"]) < 1e-12


class TestFitDecay:
    def test_fit_from_csv(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        lines = ["t[code-units],value"]
        for k in range(20):
            t = 2.0 ** (k / 4.0)
            lines.append(f"{t!r},{7.0 / t!r}")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "fit-decay", str(path), "--vcol", "value")
        assert code == 0
        fit = json.loads(out)
        assert fit["exponent"] == pytest.approx(-1.0, abs=1e-12)
        assert fit["prefactor"] == pytest.approx(7.0, rel=1e-12)

    def test_missing_column(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t[code-units],value\n1.0,1.0\n")
        code, _, err = run_cli(capsys, "fit-decay", str(path), "--vcol", "bogus")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("row, col, text", [(3, "v", "2.0,abc"), (2, "t[code-units]", "x,1.0"),
                                                (3, "v", "2.0")])
    def test_cell_that_is_not_a_number(self, capsys, tmp_path, row, col, text):
        # a word, or a short row's missing cell
        path = tmp_path / "bad.csv"
        lines = ["t[code-units],v", "1.0,1.0", "2.0,0.5"]
        lines[row - 1] = text
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "fit-decay", str(path), "--vcol", "v")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith(f"{path}: row {row}, column {col!r}: ")

    def test_a_time_that_is_not_positive(self, capsys, tmp_path):
        # a run's t = 0 row: refused by name, fitted from --tmin 1
        path = tmp_path / "sup.csv"
        rows = [(0.0, 2.0)] + [(2.0 ** (k / 4.0), 2.0 ** (-k / 4.0)) for k in range(20)]
        path.write_text("t[code-units],v\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        code, _, err = run_cli(capsys, "fit-decay", str(path), "--vcol", "v")
        assert code == 2
        assert json.loads(err) == {"error": "InvalidInputError",
                                   "message": "power-law fit requires positive times, got t=0.0"}
        code, out, _ = run_cli(capsys, "fit-decay", str(path), "--vcol", "v", "--tmin", "1")
        assert code == 0
        assert json.loads(out)["exponent"] == pytest.approx(-1.0, abs=1e-12)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit-decay",
                               str(tmp_path / "nope.csv"), "--vcol", "v")
        assert code == 3
        assert json.loads(err)["error"] == "OSError"


class TestTheoremSuite:
    def test_smoke(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--out", str(tmp_path / "suite"),
                               "theorem-suite", "--scale", "0.05",
                               "--only", "conservation")
        assert code == 0
        results = json.loads(out)
        assert set(results) == {"conservation", "resonances"}

    @pytest.mark.parametrize("scale", ["0.05", "0.1", "0.25", "0.37", "0.5"])
    def test_scatter_refused_before_evolving(self, capsys, tmp_path, scale):
        # the first scatter time is below 1 (0.05), its band holds no grid
        # x-frequency (0.1, 0.25), or its quadratic product wraps below twice
        # the band's lower edge (0.37, 0.5)
        code, _, err = run_cli(capsys, "--out", str(tmp_path / "suite"),
                               "theorem-suite", "--scale", scale, "--only", "scatter")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"
        assert not list(tmp_path.rglob("*.csv"))


_LOADED_SCIPY = """
import sys
import kpwave, kpwave.cli
print(*(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))
"""


def test_imports_no_scipy():
    """`import kpwave, kpwave.cli` in a fresh interpreter, with the
    package's src/ on the path, loads no scipy module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], check=True,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True).stdout
    assert out.split() == []
