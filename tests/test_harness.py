"""Experiment configuration, run driver, power-law fits, and the suite."""

import dataclasses
import hashlib
import json
import math
import platform
import re
import tracemalloc

import numpy as np
import pytest

from kpwave.errors import ConfigError, InvalidInputError
from kpwave.evolution import SolverConfig, evolve
from kpwave.grids import Grid2D, RealField, is_projected, project_field, spectrum
import kpwave
from kpwave import harness
from kpwave.harness import (
    DecayFit,
    _resolve_diagnostics,
    DiagnosticSpec,
    ExperimentConfig,
    InitialSpec,
    Pulse,
    bracketed_times,
    build_initial_data,
    fit_decay,
    log_times,
    run_experiment,
    run_theorem_suite,
    sup_norm_series,
    theorem_suite_configs,
)
from kpwave.vfields import derivative

# the norm diagnostics apply coordinate weights to noisy box-filling fields
pytestmark = pytest.mark.filterwarnings(
    "ignore::kpwave.vfields.UntrustedFieldWarning")


def small_config(**overrides):
    cfg = ExperimentConfig(
        grid=Grid2D(64, 32, 40.0, 20.0, 0.0, 0.0),
        initial=InitialSpec("modulated_gaussian",
                            (Pulse(0.05, (1.0, 0.0), (4.0, 3.0)),),
                            noise_amplitude=0.01),
        solver=SolverConfig(dt=0.1, t0=0.0, t_end=1.0),
        diagnostics=(DiagnosticSpec("norms"), DiagnosticSpec("sup")),
        snapshot_times=(0.0, 0.5, 1.0),
        seed=7,
        save_trajectory=False)
    return dataclasses.replace(cfg, **overrides)


class TestFitDecay:
    def test_exact_power_law(self):
        series = [(t, 7.0 / t) for t in np.geomspace(1.0, 100.0, 20)]
        fit = fit_decay(series, (1.0, 100.0))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(7.0, rel=1e-12)
        assert fit.residual_rms < 1e-12

    def test_constant_series(self):
        series = [(t, 3.0) for t in np.geomspace(1.0, 100.0, 20)]
        fit = fit_decay(series, (1.0, 100.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_log_periodic_wobble(self):
        series = [(t, (1 + 0.05 * np.sin(np.log(t))) / t)
                  for t in np.geomspace(1.0, 100.0, 20)]
        fit = fit_decay(series, (1.0, 100.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    def test_too_few_points(self):
        series = [(t, 1.0 / t) for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        with pytest.raises(InvalidInputError):
            fit_decay(series, (1.0, 8.0))

    def test_positive_values_required(self):
        series = [(t, 1.0 / t - 0.1) for t in np.geomspace(1.0, 100.0, 20)]
        with pytest.raises(InvalidInputError):
            fit_decay(series, (1.0, 100.0))

    def test_positive_times_required(self):
        # a run's t = 0 row has no logarithm; the fit from t = 1 is fine
        series = [(0.0, 2.0)] + [(t, 1.0 / t) for t in np.geomspace(1.0, 100.0, 20)]
        with pytest.raises(InvalidInputError, match=r"positive times, got t=0\.0"):
            fit_decay(series, (-math.inf, math.inf))
        assert fit_decay(series, (1.0, math.inf)).exponent == pytest.approx(-1.0, abs=1e-12)

    def test_window_must_be_nonempty(self):
        with pytest.raises(InvalidInputError):
            DecayFit(exponent=-1.0, prefactor=1.0, residual_rms=0.0,
                     window=(2.0, 2.0))


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config()
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            InitialSpec("solitary", (Pulse(0.1, (1.0, 0.0), (1.0, 1.0)),))

    def test_pulse_count(self):
        p = Pulse(0.1, (1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ConfigError):
            InitialSpec("two_packet", (p,))

    def test_pulse_validation(self):
        with pytest.raises(ConfigError):
            Pulse(-0.1, (1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ConfigError):
            Pulse(0.1, (1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["amplitude", "carrier", "sigma", "center"])
    def test_pulse_refuses_non_finite_numbers(self, name, value):
        numbers = {"amplitude": 0.1, "carrier": (1.0, 0.0), "sigma": (1.0, 1.0),
                   "center": (0.0, 0.0)}
        numbers[name] = value if name == "amplitude" else (1.0, value)
        with pytest.raises(ConfigError, match=f"initial.{name}: must be finite"):
            Pulse(**numbers)

    def test_stale_solver_key_refused(self):
        d = json.loads(small_config().to_json())
        d["solver"]["dealias"] = True
        with pytest.raises(ConfigError, match="dealias"):
            ExperimentConfig.from_json(json.dumps(d))

    def test_unknown_diagnostic(self):
        with pytest.raises(ConfigError):
            DiagnosticSpec("spectrogram")

    def test_inadmissible_gamma_ray(self):
        with pytest.raises(ConfigError):
            DiagnosticSpec("gamma", {"rays": [(3.0, 0.0)]})

    @pytest.mark.parametrize("rays", [[["a", 0]], [[-3.0, 0.0, 1.0]], [-3.0], [[math.nan, 0.0]], []])
    def test_malformed_gamma_ray_refused_by_its_path(self, rays):
        # each ray is checked to be a pair of finite numbers before its v is
        # read, and no ray is refused as no `times` is (not a header-only gamma.csv)
        match = re.escape(f"diagnostics.gamma.rays: ray {rays[0]!r} is not a pair of finite numbers"
                          if rays else "diagnostics.gamma.rays: expected a list of one or more "
                          "rays, got []")
        with pytest.raises(ConfigError, match=match):
            DiagnosticSpec("gamma", {"rays": rays})
        d = json.loads(theorem_suite_configs(0.1)["packet"].to_json())
        d["diagnostics"][0]["params"]["rays"] = rays
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("kind, params", [
        ("decompose", {"tims": [2.0]}), ("scatter", {"times": [2.0], "delta": 1.0}),
        ("gamma", {"times": [2.0]}), ("norms", {"times": [2.0]}), ("sup", {"rays": []}),
        ("decompose", {"delta": 1.0}), ("decompose", {"width": 0.5}), ("scatter", {"alpha": 0.2})])
    def test_unknown_parameter(self, kind, params):
        with pytest.raises(ConfigError, match="unknown parameter"):
            DiagnosticSpec(kind, params)

    def test_one_table_states_each_parameter_and_its_default(self):
        assert DiagnosticSpec.PARAMS == {
            "norms": {}, "sup": {}, "gamma": {"rays": ((-3.0, 0.0),), "t_min": 1.0},
            "decompose": {"times": None}, "scatter": {"times": None}}
        assert sum(map(len, DiagnosticSpec.PARAMS.values())) == 4
        assert DiagnosticSpec("gamma", {"t_min": 2.0}).settings == {
            "rays": ((-3.0, 0.0),), "t_min": 2.0}

    @pytest.mark.parametrize("keys, path, unknown, required", [
        ((), "ExperimentConfig", "snapshot_time", "grid"),
        (("initial",), "initial", "noise_amplitud", "family"),
        (("initial", "pulses", 0), "initial.pulses[0]", "centre", "amplitude"),
        (("diagnostics", 0), "diagnostics[0]", "param", "kind"),
        (("solver",), "solver", "t_start", "dt"),
        (("grid",), "grid", "Nx", "nx")])
    def test_unknown_and_missing_keys_name_their_path(self, keys, path, unknown, required):
        d = json.loads(small_config().to_json())
        level = d
        for k in keys:
            level = level[k]
        level[unknown] = 1.0
        with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown key(s) ['{unknown}']")):
            ExperimentConfig.from_dict(d)
        del level[unknown], level[required]
        with pytest.raises(ConfigError, match=re.escape(f"{path}: missing key(s) ['{required}']")):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("keys, value, match", [
        (("grid",), 5, "grid: expected an object"),
        (("initial", "pulses", 0, "carrier"), 1.0, "initial.pulses[0].carrier: expected an array"),
        (("initial", "pulses", 0, "sigma"), [1.0], "initial.pulses[0].sigma: expected 2 entries"),
        (("diagnostics",), {"kind": "sup"}, "diagnostics: expected an array"),
        (("diagnostics", 0, "params"), [], "diagnostics[0].params: expected an object")])
    def test_wrong_shapes_name_their_path(self, keys, value, match):
        d = json.loads(small_config().to_json())
        level = d
        for k in keys[:-1]:
            level = level[k]
        level[keys[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(match)):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("keys, value, match", [
        (("linear",), "no", "linear: expected bool, got 'no'"),
        (("linear",), 0, "linear: expected bool, got 0"),
        (("seed",), "a", "seed: expected int, got 'a'"),
        (("seed",), True, "seed: expected int, got True"),
        (("grid", "nx"), 64.0, "grid.nx: expected int, got 64.0"),
        (("solver", "dt"), "0.02", "solver.dt: expected float, got '0.02'"),
        (("solver", "dt"), False, "solver.dt: expected float, got False"),
        (("initial", "pulses", 0, "carrier", 0), None,
         "initial.pulses[0].carrier[0]: expected float, got None"),
        (("initial", "family"), 1, "initial.family: expected str, got 1")])
    def test_leaves_of_the_wrong_type_name_their_path(self, keys, value, match):
        d = json.loads(theorem_suite_configs(0.1)["conservation"].to_json())
        level = d
        for k in keys[:-1]:
            level = level[k]
        level[keys[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(match)):
            ExperimentConfig.from_dict(d)

    def test_an_int_stands_for_a_float_as_given(self):
        d = json.loads(small_config().to_json())
        d["solver"]["t_end"] = 1
        cfg = ExperimentConfig.from_dict(d)
        assert type(cfg.solver.t_end) is int and json.loads(cfg.to_json()) == d

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{}")


class TestInitialData:
    def test_zero_x_mean(self):
        u0 = build_initial_data(small_config())
        assert np.abs(u0.samples.mean(axis=0)).max() < 1e-14

    def test_amplitude_scaling(self):
        cfg = small_config(initial=InitialSpec(
            "modulated_gaussian", (Pulse(0.05, (1.0, 0.0), (4.0, 3.0)),)))
        cfg2 = small_config(initial=InitialSpec(
            "modulated_gaussian", (Pulse(0.10, (1.0, 0.0), (4.0, 3.0)),)))
        a, b = build_initial_data(cfg), build_initial_data(cfg2)
        assert np.abs(b.samples - 2 * a.samples).max() < 1e-14

    def test_matches_the_full_lattice_construction(self):
        pulses = (Pulse(0.05, (1.0, 0.3), (4.0, 3.0), (5.0, -2.0)),
                  Pulse(0.02, (0.7, -0.2), (3.0, 5.0), (-10.0, 4.0)))
        cfg = small_config(initial=InitialSpec("two_packet", pulses))
        g = cfg.grid
        prof = sum(p.amplitude * np.exp(-((g.XA - p.center[0]) / p.sigma[0]) ** 2
                                        - ((g.YA - p.center[1]) / p.sigma[1]) ** 2)
                   * np.cos(p.carrier[0] * (g.XA - p.center[0])
                            + p.carrier[1] * (g.YA - p.center[1])) for p in pulses)
        ref = project_field(derivative(RealField(g, prof, 0.0), dx_order=1))
        u0 = build_initial_data(cfg)
        assert is_projected(spectrum(u0.samples))
        assert np.abs(u0.samples - ref.samples).max() <= 1e-14 * np.abs(ref.samples).max()

    def test_noise_is_seeded(self):
        a = build_initial_data(small_config())
        b = build_initial_data(small_config())
        c = build_initial_data(small_config(seed=8))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)


class TestRunExperiment:
    def test_deterministic_outputs(self, tmp_path):
        cfg = small_config()
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        for name in ("norms.csv", "sup.csv", "config.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        a = run_experiment(small_config(), tmp_path / "a")
        c = run_experiment(small_config(seed=8), tmp_path / "c")
        assert (a / "norms.csv").read_bytes() != (c / "norms.csv").read_bytes()

    @pytest.mark.parametrize("spec, linear", [
        (DiagnosticSpec("decompose", {"times": [2.5]}), True),
        (DiagnosticSpec("scatter", {"times": [2.5]}), False),
        (DiagnosticSpec("scatter", {"times": [4.0]}), True),   # no snapshot after it
        (DiagnosticSpec("scatter", {"times": [0.0]}), False),  # none before it
    ])
    def test_bad_diagnostic_times_refused_before_evolving(self, tmp_path, monkeypatch, spec, linear):
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = small_config(solver=SolverConfig(dt=0.5, t0=0.0, t_end=4.0),
                           snapshot_times=(0.0, 2.0, 4.0), diagnostics=(spec,), linear=linear)
        with pytest.raises(ConfigError, match="times: t="):
            run_experiment(cfg, tmp_path / "run")
        assert calls == []

    def test_zero_amplitude_runs_linear(self, tmp_path):
        cfg = small_config(initial=InitialSpec(
            "modulated_gaussian", (Pulse(0.0, (1.0, 0.0), (4.0, 3.0)),),
            noise_amplitude=0.01))
        out = run_experiment(cfg, tmp_path / "z")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["linear"] is True

    def test_manifest_records_the_package_version(self, tmp_path):
        out = run_experiment(small_config(), tmp_path / "v")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["toolkit_version"] == kpwave.__version__

    def test_manifest_records_the_python_and_numpy_versions(self, tmp_path):
        out = run_experiment(small_config(), tmp_path / "v")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == platform.python_version()

    @pytest.mark.parametrize("name, spec, match", [
        ("profile", DiagnosticSpec("decompose", {"times": "abc"}), "decompose.times: expected a list"),
        ("profile", DiagnosticSpec("decompose", {"times": 4.0}), "decompose.times: expected a list"),
        ("profile", DiagnosticSpec("decompose", {"times": [4.0, True]}), "decompose.times: expected"),
        ("scatter", DiagnosticSpec("scatter", {"times": ["8.0"]}), "scatter.times: expected a list"),
        ("conservation", DiagnosticSpec("gamma", {"t_min": "x"}), "gamma.t_min: expected a finite"),
        ("conservation", DiagnosticSpec("gamma", {"t_min": math.nan}), "gamma.t_min: expected"),
        ("conservation", DiagnosticSpec("gamma", {"t_min": None}), "gamma.t_min: expected"),
        # an empty list is refused, not read as a request for the default times
        ("profile", DiagnosticSpec("decompose", {"times": []}), r"decompose.times: .* got \[\]"),
        ("scatter", DiagnosticSpec("scatter", {"times": []}), r"scatter.times: .* got \[\]")])
    def test_ill_typed_parameters_refused_before_evolving(
            self, tmp_path, monkeypatch, name, spec, match):
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = dataclasses.replace(theorem_suite_configs(0.1)[name], diagnostics=(spec,))
        with pytest.raises(ConfigError, match=f"diagnostics.{match}"):
            run_experiment(cfg, tmp_path / "run")
        assert calls == [] and not list(tmp_path.rglob("*.csv"))

    def test_gamma_ray_leaving_the_trusted_box_refused_before_evolving(self, tmp_path, monkeypatch):
        # at t = 140 the ray (-3, 0) sits 260 from x0 = -160, past Lx/4 = 240
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = theorem_suite_configs(0.1)["packet"]

        def ending_at(t_end):
            return dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, t_end=t_end),
                                       snapshot_times=(0.0, 20.0, 60.0, 100.0, t_end))
        _resolve_diagnostics(ending_at(120.0), False)  # 200 from x0: inside
        with pytest.raises(ConfigError, match=re.escape(
                "diagnostics.gamma.rays: ray (-3.0, 0.0) at t=140.0: ray point (-420.0, 0.0) "
                "outside the trusted central half-box")):
            run_experiment(ending_at(140.0), tmp_path / "run")
        assert calls == [] and not list(tmp_path.rglob("*.csv"))

    def test_gamma_packet_leaving_the_trusted_box_refused_before_evolving(
            self, tmp_path, monkeypatch):
        # at t = 131.5 the ray point x = -394.5 sits 234.5 from x0 = -160, within
        # Lx/4 = 240, but the packet's support reaches past it
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = theorem_suite_configs()["packet"]
        cfg = dataclasses.replace(cfg, linear=True, snapshot_times=(0.0, 131.5),
                                  solver=dataclasses.replace(cfg.solver, t_end=131.5))
        with pytest.raises(ConfigError, match=re.escape(
                "diagnostics.gamma.rays: ray (-3.0, 0.0) at t=131.5: "
                "packet support leaves the central half-box")):
            run_experiment(cfg, tmp_path / "run")
        assert calls == [] and not list(tmp_path.iterdir())

    def test_scatter_without_a_drift_series_refused_before_evolving(self, tmp_path, monkeypatch):
        # only t = 100 is at or past t_last/4 = 25: `extract_scatter_data` needs two
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = theorem_suite_configs()["scatter"]
        cfg = dataclasses.replace(cfg, linear=True, snapshot_times=(0.0, 1.95, 2.0, 2.05, 100.0),
                                  solver=dataclasses.replace(cfg.solver, t_end=100.0),
                                  diagnostics=(DiagnosticSpec("scatter", {"times": [2.0]}),))
        with pytest.raises(ConfigError, match=re.escape(
                "diagnostics.scatter: the last snapshots are at t=[2.05, 100.0]: "
                "too few late snapshots for a drift series")):
            run_experiment(cfg, tmp_path / "run")
        assert calls == [] and not list(tmp_path.iterdir())

    def test_gamma_skips_a_snapshot_at_t_0(self, tmp_path):
        # no packet exists at t <= 0, whatever t_min says
        cfg = small_config(diagnostics=(DiagnosticSpec("gamma", {"t_min": -1.0}),))
        rows = (run_experiment(cfg, tmp_path / "g") / "gamma.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.5, 1.0]

    @pytest.mark.parametrize("params", [{"times": [1.2]}, {}])  # given, and the default
    def test_scatter_after_a_snapshot_below_1_refused_before_evolving(
            self, tmp_path, monkeypatch, params):
        calls = []
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(a))
        cfg = small_config(grid=Grid2D(256, 32, 256.0, 32.0),
                           solver=SolverConfig(dt=0.1, t0=0.0, t_end=2.0),
                           snapshot_times=(0.0, 0.9, 1.2, 1.5, 2.0),
                           diagnostics=(DiagnosticSpec("scatter", params),))
        before = r"t=1\.2\d*: at the snapshot before it, t=0\.9\d*: band projection"
        with pytest.raises(ConfigError, match=before):
            run_experiment(cfg, tmp_path / "run")
        assert calls == []


class TestSeriesHelpers:
    def test_sup_norm_series(self):
        cfg = small_config()
        traj = evolve(build_initial_data(cfg), cfg.solver,
                      snapshot_times=cfg.snapshot_times)
        series = sup_norm_series(traj, "u")
        assert [t for t, _ in series] == [0.0, 0.5, 1.0]
        assert all(v > 0 for _, v in series)
        with pytest.raises(InvalidInputError):
            sup_norm_series(traj, "u_yy")

    def test_log_times(self):
        ts = log_times(2.0, 8.0, per_octave=4)
        assert ts[0] == 2.0 and ts[-1] == 8.0
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_bracketed_times(self):
        assert bracketed_times([4.0], 0.05) == (3.95, 4.0, 4.05)


class TestTheoremSuite:
    @pytest.mark.parametrize("scale", [1.0, 0.25, 0.05])
    def test_canned_configs_round_trip_through_json(self, scale):
        for name, cfg in theorem_suite_configs(scale).items():
            text = cfg.to_json()
            assert "dealias" not in json.loads(text)["solver"], name
            back = ExperimentConfig.from_json(text)
            assert back == cfg and back.to_json() == text, name

    def test_config_catalog(self):
        cfgs = theorem_suite_configs()
        assert set(cfgs) == {"linear_decay", "conservation", "energy",
                             "profile", "packet", "scatter"}
        assert all(isinstance(c, ExperimentConfig) for c in cfgs.values())

    SCALE_1_SHA256 = {  # of each scale-1 config.json text, which every canned output rests on
        "linear_decay": "65e2a1a7b0cfdf8220510430843aa1cfef14fa97f5023c75b5a3f36b7886ca2b",
        "conservation": "df80c7f728d59b4fd40bc25455cbbe31d835e5d9edc83a059c770e3491a190e8",
        "energy": "b7204a8e2ffb6f96ed741b82759cecc0049c00118a186f68efdbf55b01528421",
        "profile": "c1ea1fdde6911cc3b886d5e527ba43f70dbed99fe4cf766a12f4cf9536e50d2c",
        "packet": "388bc323861c888713a92924b8af4ac215ce0529f23d59f769510597782e2bb2",
        "scatter": "876c60d796758b3a083adffdf68c780ec9950cb83f0daab68a2607e0ac7c31b9",
    }

    def test_scale_1_config_texts_are_pinned(self):
        assert {name: hashlib.sha256(cfg.to_json().encode()).hexdigest()
                for name, cfg in theorem_suite_configs().items()} == self.SCALE_1_SHA256

    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.1234, 0.25, 0.37, 0.5, 0.75, 0.9, 1.0])
    def test_scaled_mode_counts_are_even_fast_fft_lengths(self, scale):
        full = theorem_suite_configs()
        for name, cfg in theorem_suite_configs(scale).items():
            for n, v in zip(cfg.grid.shape, full[name].grid.shape):
                even = max(8, int(v * scale))
                even += even % 2  # the count before fast lengths
                m = n // 2
                for p in (2, 3, 5):
                    while m % p == 0:
                        m //= p
                assert n % 2 == 0 and m == 1 and n >= even, (name, n, even)

    def test_canned_times_resolve_to_the_given_ones(self):
        for name, cfg in theorem_suite_configs().items():
            want = [{**DiagnosticSpec.PARAMS[ds.kind], **ds.params} for ds in cfg.diagnostics]
            assert _resolve_diagnostics(cfg, cfg.linear) == want, name

    @pytest.mark.parametrize("linear, t0, snaps", [(False, 0.0, (1.5, 2.0, 2.5, 3.0)),
                                                   (True, 1.5, (2.0, 2.5)),
                                                   (False, 0.0, None)])
    def test_default_times_are_the_snapshot_times_from_1(self, linear, t0, snaps):
        # decompose's: every snapshot time >= 1; scatter's: every interior one
        kinds = ("decompose", "scatter") if snaps else ("decompose",)
        cfg = small_config(grid=Grid2D(64, 32, 64.0, 20.0),
                           solver=SolverConfig(dt=0.5, t0=t0, t_end=3.0), snapshot_times=snaps,
                           diagnostics=tuple(DiagnosticSpec(k) for k in kinds))
        times = evolve(build_initial_data(cfg), cfg.solver, snapshot_times=snaps,
                       linear=linear).times
        want = [[float(t) for t in times if t >= 1], [float(t) for t in times[1:-1] if t >= 1]]
        assert [p["times"] for p in _resolve_diagnostics(cfg, linear)] == want[:len(kinds)]

    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_canned_packet_rays_stay_in_the_trusted_box(self, scale):
        cfg = theorem_suite_configs(scale)["packet"]
        (params,) = _resolve_diagnostics(cfg, cfg.linear)
        assert params == cfg.diagnostics[0].params

    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            theorem_suite_configs(scale=0.0)
        with pytest.raises(ConfigError):
            theorem_suite_configs(scale=2.0)

    @pytest.mark.parametrize("scale", [1.0, 0.37, 0.1234, 0.05])
    def test_stepping_times_on_lattice(self, scale):
        # the scatter band of the first time wraps its quadratic product
        # below twice its lower edge, holds no grid x-frequency, or that
        # time is below 1
        scatter_refusal = {0.37: "below 2\\*lower", 0.1234: "no grid x-frequencies",
                           0.05: "below 1"}.get(scale)
        for name, cfg in theorem_suite_configs(scale).items():
            if name == "scatter" and scatter_refusal:
                with pytest.raises(ConfigError, match=scatter_refusal):
                    _resolve_diagnostics(cfg, cfg.linear)
            else:
                _resolve_diagnostics(cfg, cfg.linear)
            if cfg.linear:
                continue
            s = cfg.solver
            for t in (s.t_end, *cfg.snapshot_times):
                steps = (t - s.t0) / s.dt
                assert abs(steps - round(steps)) <= 1e-9, (name, t)
                assert s.t0 <= t <= s.t_end, (name, t)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_diagnostic_times_on_a_long_default_schedule(self, stride, monkeypatch):
        # a million steps with every snapshot step held as a range: nothing
        # lists them, so the check stays small
        solver = SolverConfig(dt=0.5, t0=0.0, t_end=5e5, snapshot_stride=stride)

        def check(kind, t):
            cfg = small_config(solver=solver, snapshot_times=None,
                               diagnostics=(DiagnosticSpec(kind, {"times": [t]}),))
            _resolve_diagnostics(cfg, False)
        tracemalloc.start()
        check("scatter", 6.0)
        check("decompose", 5e5)  # the last step, off the stride
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20
        for kind, t, match in (("decompose", 0.25, "not a snapshot time"),
                               ("decompose", 1.0, "not a snapshot time" if stride == 3 else None),
                               ("decompose", math.nan, "not a snapshot time"),
                               # at stride 3 the snapshot before, t = 1.5, has an empty band
                               ("scatter", 3.0, "no grid x-frequencies" if stride == 3 else None),
                               ("scatter", 0.0, "each side"),
                               ("scatter", 5e5, "each side")):
            if match is None:
                check(kind, t)
                continue
            with pytest.raises(ConfigError, match=match):
                check(kind, t)
        with pytest.raises(ConfigError, match="not a snapshot time"):
            _resolve_diagnostics(small_config(snapshot_times=(), diagnostics=(
                DiagnosticSpec("scatter", {"times": [0.5]}),)), False)
        # a gamma ray sampled at no time: its first sampled snapshot is found
        # by bisection, and no packet support is checked
        calls = {"_sampled": 0, "_packet_support": 0}
        for name in calls:
            def counted(*args, _fn=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        _resolve_diagnostics(small_config(solver=solver, snapshot_times=None, diagnostics=(
            DiagnosticSpec("gamma", {"t_min": 1e9}),)), False)
        assert 0 < calls["_sampled"] <= math.ceil(math.log2(10**6 + 2))
        assert calls["_packet_support"] == 0

    def test_gamma_support_checked_from_the_first_sampled_snapshot(self, monkeypatch):
        checked, check = [], harness._packet_support
        monkeypatch.setattr(harness, "_packet_support",
                            lambda p, g: checked.append(p.t) or check(p, g))
        for linear in (False, True):  # the step lattice, and the linear jump's times
            for t_min, times in ((0.5, [0.5, 1.0]), (0.6, [1.0]), (0.0, [0.5, 1.0]), (2.0, [])):
                checked.clear()
                _resolve_diagnostics(small_config(diagnostics=(
                    DiagnosticSpec("gamma", {"t_min": t_min}),)), linear)
                assert checked == times, (linear, t_min)

    def test_a_time_names_its_snapshot_under_one_tolerance(self):
        # 5e-10 steps of dt = 100 off the lattice: the schedule, the check
        # and the trajectory's lookup all name step 1
        t, solver = 100.00000005, SolverConfig(dt=100.0, t0=0.0, t_end=300.0)
        cfg = small_config(solver=solver, snapshot_times=(0.0, t, 300.0),
                           diagnostics=(DiagnosticSpec("decompose", {"times": [t]}),))
        assert _resolve_diagnostics(cfg, False) == [{"times": [t]}]
        traj = evolve(RealField(cfg.grid, np.zeros(cfg.grid.shape), 0.0), solver,
                      snapshot_times=cfg.snapshot_times)
        assert list(traj.times) == [0.0, 100.0, 300.0]
        assert traj.field_at(t) is traj.snapshots[1]

    @pytest.mark.parametrize("scale", [0.05, 0.1, 0.1234, 0.25, 0.37, 0.5, 0.75, 0.9, 1.0])
    def test_scatter_band_products_stay_above_twice_the_lower_edge(self, scale):
        # the canned scatter config is refused, or at each time it reads (every
        # scatter time and the snapshots on each side) the sums k1 + k2 of the
        # band's positive rows, wrapped onto the x lattice, keep |xi| >= 2*lower
        cfg = theorem_suite_configs(scale)["scatter"]
        try:
            (params,) = _resolve_diagnostics(cfg, cfg.linear)
        except ConfigError:
            return
        g, snaps = cfg.grid, sorted(cfg.snapshot_times)
        k = np.abs(np.rint(g.xi * g.Lx / (2 * np.pi)).astype(int))
        for t in params["times"]:
            j = snaps.index(t)
            for tj in snaps[j - 1:j + 2]:
                lower, upper = tj ** (-1 / 12), tj ** (1 / 12)
                rows = k[(np.abs(g.xi) >= lower) & (np.abs(g.xi) <= upper) & (k > 0)]
                sums = (rows[:, None] + rows[None, :] + g.nx // 2) % g.nx - g.nx // 2
                low = np.abs(sums).min() * 2 * np.pi / g.Lx
                assert low >= 2 * lower * (1 - 1e-9), (scale, t, tj, low)

    def test_smoke_run(self, tmp_path):
        results = run_theorem_suite(tmp_path, scale=0.05, only=["conservation"])
        assert set(results) == {"conservation", "resonances"}
        out = results["conservation"]
        for name in ("config.json", "manifest.json", "norms.csv"):
            assert (out / name).exists()
        rows = (tmp_path / "resonances.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert max(abs(float(r.split(",")[-1])) for r in rows) < 1e-12
