import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from conftest import duffing_grid_dataset

from foldtrack import continuation
from foldtrack.cli import main
from foldtrack.config import config_from_dict
from foldtrack.csvio import read_dataset_csv, read_run_log, write_dataset_csv
from foldtrack.errors import NoConvergence, SingularJacobian
from foldtrack.gpr import Dataset
from foldtrack.oracles import DuffingParams, duffing_gamma

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_trace_config(**overrides):
    cfg = {
        "oracle": {
            "name": "duffing",
            "params": {"omega_n": 1.0, "zeta": 0.02, "alpha_3": 0.05, "noise_sigma": 0.0},
            "domain_box": {"omega_min": 0.95, "omega_max": 1.45, "A_min": 0.05, "A_max": 5.0},
        },
        "init": {"x0": {"omega": 1.11, "A": 1.45}, "grid_shape": [5, 5],
                 "half_widths": {"omega": 0.05, "A": 0.45}},
        "hyperparameters": {"init": {"sigma_n2": 1e-6, "sigma_f2": 0.05,
                                     "l_omega": 0.05, "l_A": 0.45}},
        "continuation": {"h": 0.1, "h_max": 0.15, "max_steps": 6},
        "acquisition": {"n_test": 30, "beta_tol": 5e-3, "max_points_per_step": 10},
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


class TestTrace:
    def test_zero_steps_writes_init_artifacts(self, tmp_path):
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 0
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        assert read_dataset_csv(out / "dataset.csv").n >= 25
        rows = read_run_log(out / "run_log.csv")
        assert len(rows) == 1 and rows[0]["step"] == 0

    def test_isola_detached_branch_start_from_its_header(self, tmp_path):
        # configs/isola.yaml documents the detached branch's start in its header
        text = (CONFIGS / "isola.yaml").read_text()
        header = [line.lstrip("#").strip() for line in text.splitlines() if line.startswith("#")]
        start = yaml.safe_load(next(line for line in header if line.startswith("init:")))
        cfg = yaml.safe_load(text)
        cfg["init"].update(start["init"])
        out = tmp_path / "out"
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
        assert res.exit_code == 0, res.output
        assert "(domain_exit)" in res.output
        assert len(read_run_log(out / "run_log.csv")) >= 3

    def test_full_run_completes_with_fold_curve(self, tmp_path):
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 45
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        rows = read_run_log(tmp_path / "out" / "run_log.csv")
        assert len(rows) >= 30

    def test_unattainable_beta_tol_caps_but_exits_zero(self, tmp_path):
        # threshold so small no collection can ever satisfy it: every step
        # ends via the collection cap, with a warning, and the run still goes on
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 2
        cfg["acquisition"] = {"n_test": 10, "beta_tol": 1e-30, "max_points_per_step": 2}
        path = write_cfg(tmp_path, cfg)
        with pytest.warns(UserWarning, match="above tol"):
            res = run_cli("trace", "--config", path, "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        rows = read_run_log(tmp_path / "out" / "run_log.csv")
        assert len(rows) == 3  # initial fold + 2 steps
        with open(tmp_path / "out" / "collection_log.csv") as fh:
            n_collected = sum(1 for _ in fh) - 1
        assert n_collected == 2 * len(rows)

    def test_manifest_replay_bit_identical(self, tmp_path):
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 5
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "a"))
        assert res.exit_code == 0
        res2 = run_cli("trace", "--config", str(tmp_path / "a" / "manifest.json"),
                       "--out", str(tmp_path / "b"))
        assert res2.exit_code == 0
        for name in ("run_log.csv", "collection_log.csv", "dataset.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_reason_domain_exit(self, tmp_path):
        cfg = base_trace_config()
        cfg["oracle"]["domain_box"]["omega_max"] = 1.2
        cfg["continuation"]["max_steps"] = 40
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["reason"] == "domain_exit"
        last = read_run_log(tmp_path / "out" / "run_log.csv")[-1]
        assert 1.19 < last["omega"] <= 1.2

    def test_reason_step_underflow_inside_box(self, tmp_path, monkeypatch):
        # the stepper's corrector (h > 0) accepts two steps, then fails at every h;
        # find_first_fold's solve at h = 0 is not counted
        real, calls = continuation.correct, []

        def fails_after_two_steps(model, x_pred, x_prev, t_prev, h, cfg):
            if h > 0.0:
                calls.append(h)
                if len(calls) > 2:
                    raise NoConvergence("injected failure")
            return real(model, x_pred, x_prev, t_prev, h, cfg)

        monkeypatch.setattr(continuation, "correct", fails_after_two_steps)
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 10
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["reason"] == "step_underflow"
        assert len(read_run_log(tmp_path / "out" / "run_log.csv")) == 3

    def test_refresh_failure_ends_the_run(self, monkeypatch):
        # step 0's refresh succeeds, step 1's raises a cusp: the run stops there
        # and keeps the model its measurement at the solution built
        from foldtrack import driver
        real, models = driver.improve_solution, []

        def cusp_at_step_1(model, *args, seed, **kwargs):
            if seed == (42, 1):
                models.append(model)
                raise SingularJacobian("injected cusp")
            return real(model, *args, seed=seed, **kwargs)

        monkeypatch.setattr(driver, "improve_solution", cusp_at_step_1)
        result = driver.run_trace(config_from_dict(base_trace_config()))
        assert result.reason == "refresh_failed: injected cusp"
        assert result.status == "continuation_error"
        assert [s.step for s in result.steps] == [0]
        assert result.model is models[0]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_trace_config()
        cfg["surprise"] = 1
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert "unknown keys" in res.output

    def test_oracle_error_exit_code(self, tmp_path):
        cfg = base_trace_config()
        cfg["init"]["x0"] = {"omega": 1.44, "A": 4.9}  # grid extends past the box
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 2

    def test_continuation_failure_exit_code(self, tmp_path):
        cfg = base_trace_config()
        cfg["oracle"]["params"]["alpha_3"] = 0.0  # linear: no folds anywhere
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 3

    def test_malformed_config_rejected_before_oracle(self, tmp_path):
        cfg = base_trace_config()
        cfg["acquisition"]["n_max"] = 4  # below the n0 = 25 grid
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_n_max_holds_after_the_seed_grid(self, tmp_path, monkeypatch, seed):
        # the 40 dB Duffing run reaches the cap within its 60 steps; every model
        # a step starts from, and the written dataset, stays at n_max or below
        cfg = yaml.safe_load((Path(__file__).parent.parent / "configs" / "duffing_noisy.yaml")
                             .read_text())
        cfg["acquisition"]["n_max"] = 40
        real, sizes = continuation.advance, []

        def advance(model, *args, **kwargs):
            sizes.append(model.n)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(continuation, "advance", advance)
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg), "--seed", str(seed),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code in (0, 3)  # seed 1 stops with refresh_failed, a separate defect
        assert max(sizes) == 40
        assert read_dataset_csv(tmp_path / "out" / "dataset.csv").n <= 40

    def test_refit_each_step_flag(self, tmp_path):
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 3
        cfg["hyperparameters"]["refit_each_step"] = True
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        rows = read_run_log(tmp_path / "out" / "run_log.csv")
        assert len(rows) == 4


class TestSweep:
    def test_replay_identity(self, tmp_path):
        # sweeping the replay oracle over its own grid reproduces the file
        p = DuffingParams()
        omegas = [1.05, 1.10, 1.15]
        As = [0.5, 1.0, 1.5, 2.0]
        X = np.array([[w, a] for w in omegas for a in As])
        ds = Dataset(X, duffing_gamma(p, X[:, 0], X[:, 1]))
        src = tmp_path / "recorded.csv"
        write_dataset_csv(src, ds)
        cfg = {
            "oracle": {"name": "replay", "params": {"path": "recorded.csv", "tol": 1e-9}},
            "sweep": {"omega_start": 1.05, "omega_stop": 1.15, "omega_step": 0.05,
                      "A_start": 0.5, "A_stop": 2.0, "A_step": 0.5},
        }
        res = run_cli("sweep", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        assert (tmp_path / "out" / "dataset.csv").read_bytes() == src.read_bytes()

    def test_duffing_sweep_writes_per_frequency_files(self, tmp_path):
        cfg = {
            "oracle": {"name": "duffing",
                       "params": {"noise_sigma": 0.0},
                       "domain_box": {"omega_min": 0.95, "omega_max": 1.45,
                                      "A_min": 0.05, "A_max": 5.0}},
            "sweep": {"omega_start": 1.05, "omega_stop": 1.15, "omega_step": 0.05,
                      "A_start": 0.2, "A_stop": 3.0, "A_step": 0.2},
        }
        res = run_cli("sweep", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"), "--threads", "3")
        assert res.exit_code == 0
        assert len(list((tmp_path / "out").glob("scurve_*.csv"))) == 3
        # sweep runs in one process and only records the flag
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["threads"] == 3


class TestNlfrCommand:
    def test_matches_hand_filter(self, tmp_path):
        p = DuffingParams()
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.uniform(1.0, 1.3, 400), rng.uniform(0.3, 3.0, 400)])
        F = duffing_gamma(p, X[:, 0], X[:, 1])
        write_dataset_csv(tmp_path / "data.csv", Dataset(X, F))
        level, band = 0.3, 0.05
        cfg = {"inputs": {"datasets": ["data.csv"]}, "gamma_level": level, "band": band}
        res = run_cli("nlfr", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        with open(tmp_path / "out" / "slice_points.csv") as fh:
            got = [(float(r["omega"]), float(r["A"]), float(r["F"]))
                   for r in csv.DictReader(fh)]
        expected = [(w, a, f) for (w, a), f in zip(X, F) if abs(f - level) <= band * level]
        assert len(got) == len(expected) > 0
        for g, e in zip(sorted(got), sorted(expected)):
            assert g == pytest.approx(e, rel=1e-12)


    def test_band_outside_range_is_config_error(self, tmp_path):
        X = np.array([[1.0, 1.0], [1.1, 1.5]])
        write_dataset_csv(tmp_path / "data.csv", Dataset(X, np.array([0.3, 0.4])))
        cfg = {"inputs": {"datasets": ["data.csv"]}, "gamma_level": 0.3, "band": 0.7}
        res = run_cli("nlfr", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: band must lie in (0, 0.5)")


class TestMissingInputs:
    def test_nlfr_missing_dataset_is_config_error(self, tmp_path):
        cfg = {"inputs": {"datasets": ["nope.csv"]}, "gamma_level": 1.0}
        res = run_cli("nlfr", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert "not found" in res.output

    def test_offline_missing_dataset_is_config_error(self, tmp_path):
        cfg = {"inputs": {"dataset": "nope.csv"}}
        res = run_cli("offline", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1


def _small_config(tmp_path, command):
    """A small config `command` runs, with the dataset it reads written to `tmp_path`."""
    X = np.array([[w, a] for w in np.linspace(1.0, 1.2, 6) for a in np.linspace(0.5, 2.5, 5)])
    write_dataset_csv(tmp_path / "d.csv",
                      Dataset(X, duffing_gamma(DuffingParams(), X[:, 0], X[:, 1])))
    return {"trace": base_trace_config(),
            "sweep": {"oracle": base_trace_config()["oracle"],
                      "sweep": {"omega_start": 1.05, "omega_stop": 1.15, "omega_step": 0.05,
                                "A_start": 0.2, "A_stop": 1.0, "A_step": 0.4}},
            "ensemble": {"inputs": {"dataset": "d.csv"}, "n_runs": 2, "max_steps": 5},
            "offline": {"inputs": {"dataset": "d.csv"}},
            "nlfr": {"inputs": {"datasets": ["d.csv"]}, "gamma_level": 0.3}}[command]


class TestUnreadableInputs:
    # each edit maps a dotted key path to its value; a value the command cannot
    # take, or a key its section does not have, ends in one error line that names
    # the key, not in a traceback or a silently coerced value
    @pytest.mark.parametrize("command, edit", [
        ("trace", {"seed": "x"}),
        ("offline", {"max_steps": "many"}),
        ("offline", {"x0": {"omega": 1.1, "A": 1.4}}),
        ("trace", {"init.x0.omega": "abc"}),
        ("trace", {"init.grid_shape": ["a", 5]}),
        ("trace", {"init.half_widths.A": "wide"}),
        ("trace", {"init.half_widths.omega": 0}),
        ("trace", {"oracle.params.zeta": -1}),
        ("offline", {"h": 0.5, "h_max": 0.1}),
        ("ensemble", {"max_steps": -3}),
        ("sweep", {"sweep.omega_step": 0}),
        ("trace", {"measure_at_solution": "false"}),
        ("trace", {"hyperparameters.refit_each_step": "no"}),
        ("trace", {"seed": 2.7}),
        ("trace", {"continuation.max_steps": 2.9}),
        ("trace", {"seed": True}),
        ("sweep", {"sweep.omega_step": -0.25}),
        ("sweep", {"sweep.A_step": 0}),
        ("sweep", {"sweep.omega_stop": 1.0}),
        ("sweep", {"sweep.A_stop": 0.1}),
        ("sweep", {"threads": 0}),
        ("ensemble", {"threads": 0}),
        ("ensemble", {"n_runs": 0}),
        ("ensemble", {"fit_n_starts": 0}),
        ("offline", {"inputs.dataset": ["d.csv"]}),
        ("nlfr", {"inputs.datasets": "d.csv"}),
        ("trace", {"seed": -1}),
        ("offline", {"seed": -1}),
        ("ensemble", {"seed": -1}),
        ("sweep", {"seed": -1}),
        ("trace", {"oracle.params": "abc"}),
        ("sweep", {"oracle.params": [["zeta", 0.02]]}),
        ("trace", {"continuation.h_min": 1e-3}),
        ("trace", {"acquisition.ellipse_semi_A": 0.9}),
        ("trace", {"hyperparameters.n_starts": 5}),
        ("trace", {"oracle.seed": 3}),
        ("sweep", {"units": 5}),
        ("sweep", {"units": "Hz"}),
        ("sweep", {"units": ["Hz"]}),
        ("trace", {"units": {"omega": 5}}),
    ], ids=["trace_seed", "offline_max_steps", "offline_x0_mapping", "trace_x0_string",
            "trace_grid_shape_string", "trace_half_width_string", "trace_half_width_zero",
            "trace_oracle_param_rejected", "offline_h_above_h_max",
            "ensemble_max_steps_negative", "sweep_omega_step_zero",
            "trace_measure_at_solution_string", "trace_fit_string", "trace_seed_fraction",
            "trace_max_steps_fraction", "trace_seed_bool", "sweep_omega_step_negative",
            "sweep_A_step_zero", "sweep_omega_stop_below_start", "sweep_A_stop_below_start",
            "sweep_threads_zero", "ensemble_threads_zero", "ensemble_n_runs_zero",
            "ensemble_fit_n_starts_zero", "offline_dataset_list", "nlfr_datasets_string",
            "trace_seed_negative", "offline_seed_negative", "ensemble_seed_negative",
            "sweep_seed_negative", "trace_oracle_params_string", "sweep_oracle_params_pairs",
            "trace_h_min_unknown", "trace_ellipse_semi_A_unknown", "trace_n_starts_unknown",
            "trace_oracle_seed_unknown", "sweep_units_number", "sweep_units_string",
            "sweep_units_list", "trace_units_number_value"])
    def test_unparseable_value_is_config_error(self, tmp_path, command, edit):
        cfg = _small_config(tmp_path, command)
        for path, value in edit.items():
            *sections, key = path.split(".")
            section = cfg
            for s in sections:
                section = section[s]
            section[key] = value
        res = run_cli(command, "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        for path in edit:
            assert path.split(".")[-1] in res.output

    @pytest.mark.parametrize("command", ["trace", "offline", "ensemble", "sweep"])
    def test_negative_seed_override_is_config_error(self, tmp_path, command):
        res = run_cli(command, "--config", write_cfg(tmp_path, _small_config(tmp_path, command)),
                      "--seed", "-1", "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert ".seed: " in res.output

    def test_oracle_params_not_a_mapping_names_its_key(self, tmp_path):
        cfg = base_trace_config()
        cfg["oracle"]["params"] = "abc"
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: oracle.params: ")

    @pytest.mark.parametrize("key, value", [
        ("settle_time", -1), ("settle_rel_tol", 0), ("settle_max_time", -5),
        ("saturation_mm", -1), ("settle_extend", 1.0)])
    def test_rig_value_it_cannot_run_is_config_error(self, tmp_path, key, value):
        # each value would be refused only by its effect on the experiment:
        # a skipped or endless settle, or a saturation trip on every sample
        cfg = yaml.safe_load((CONFIGS / "rig_trace.yaml").read_text(encoding="utf-8"))
        cfg["oracle"]["params"][key] = value
        cfg["continuation"]["max_steps"] = 0
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: oracle.params: ") and key in res.output

    def test_offline_too_few_points_is_config_error(self, tmp_path):
        X = np.array([[1.0, 1.0], [1.1, 1.5]])
        write_dataset_csv(tmp_path / "data.csv", Dataset(X, np.array([0.3, 0.4])))
        res = run_cli("offline", "--config",
                      write_cfg(tmp_path, {"inputs": {"dataset": "data.csv"}}),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: need at least 5 points")


class TestOfflineAndEnsemble:
    @pytest.fixture()
    def traced(self, tmp_path):
        cfg = base_trace_config()
        cfg["continuation"]["max_steps"] = 18
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "run"))
        assert res.exit_code == 0
        return tmp_path

    def test_offline_traces_recorded_dataset(self, traced):
        cfg = {"inputs": {"dataset": str(traced / "run" / "dataset.csv")},
               "x0": [1.15, 1.6], "max_steps": 40}
        res = run_cli("offline", "--config", write_cfg(traced, cfg, "off.yaml"),
                      "--out", str(traced / "off"))
        assert res.exit_code == 0
        rows = read_run_log(traced / "off" / "fold_curve.csv")
        assert len(rows) > 5
        manifest = json.loads((traced / "off" / "manifest.json").read_text())
        assert "hyperparameters_fitted" in manifest

    def test_offline_names_each_directions_stop(self, tmp_path, duffing_params):
        # a 13x13 grid over omega 1.05-1.35 and one far point at omega 0.8 that
        # stretches the data box: the forward direction reaches the box edge, the
        # backward one leaves the data cloud well inside the box
        grid = duffing_grid_dataset(duffing_params, center=(1.2, 1.8), half=(0.15, 1.2),
                                    shape=(13, 13))
        X = np.vstack([grid.X, [[0.8, 0.6]]])
        write_dataset_csv(tmp_path / "data.csv",
                          Dataset(X, duffing_gamma(duffing_params, X[:, 0], X[:, 1])))
        cfg = {"inputs": {"dataset": "data.csv"}, "x0": [1.15, 1.7], "max_steps": 100,
               "hyperparameters": {"sigma_n2": 1e-8, "sigma_f2": 0.04, "l_omega": 0.05,
                                   "l_A": 0.45}}
        res = run_cli("offline", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 0
        assert "(forward domain_exit, backward step_underflow)" in res.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stop_reasons"] == {"forward": "domain_exit",
                                            "backward": "step_underflow"}
        rows = read_run_log(tmp_path / "out" / "fold_curve.csv")
        omega_max = 1.35 + 0.05 * (1.35 - 0.8)  # the data box's 5% pad
        assert omega_max - 0.01 < rows[-1]["omega"] <= omega_max
        assert 0.9 < rows[0]["omega"] < 1.05

    def test_offline_seed_override_replays_from_manifest(self, tmp_path):
        # the seed draws the fit's random starts, which land apart in the last
        # digits on noisy data, so a replay with another seed differs
        W, A = np.meshgrid(np.linspace(1.00, 1.21, 8), np.linspace(0.6, 3.0, 9),
                           indexing="ij")
        W, A = W.ravel(), A.ravel()
        F = duffing_gamma(DuffingParams(), W, A)
        F = F + 0.01 * F.mean() * np.random.default_rng(0).standard_normal(F.shape)
        write_dataset_csv(tmp_path / "data.csv", Dataset(np.column_stack([W, A]), F))
        cfg = {"inputs": {"dataset": str(tmp_path / "data.csv")}, "max_steps": 10}
        first = run_cli("offline", "--config", write_cfg(tmp_path, cfg), "--seed", "3",
                        "--out", str(tmp_path / "first"))
        assert first.exit_code == 0
        manifest = tmp_path / "first" / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["seed"] == 3
        replay = run_cli("offline", "--config", str(manifest), "--out", str(tmp_path / "replay"))
        assert replay.exit_code == 0
        assert (tmp_path / "replay" / "fold_curve.csv").read_bytes() == \
            (tmp_path / "first" / "fold_curve.csv").read_bytes()

    def test_ensemble_warm_start_completes_the_benchmark_sweep(self, tmp_path):
        # the noisy 285-point S-curve sweep of perfbench/dataset.py, seed 0; cold
        # 1-start fits of the dropout subsets collapse to the lower length-scale
        # bound and most runs find no grid point inside the data cloud
        W, A = np.meshgrid(np.linspace(1.00, 1.21, 15), np.linspace(0.2, 3.0, 19),
                           indexing="ij")
        W, A = W.ravel(), A.ravel()
        F = duffing_gamma(DuffingParams(), W, A)
        F = np.maximum(F + 0.01 * F.mean() * np.random.default_rng(0).standard_normal(F.shape),
                       0.0)
        write_dataset_csv(tmp_path / "sweep.csv", Dataset(np.column_stack([W, A]), F))
        cfg = {"inputs": {"dataset": "sweep.csv"}, "n_runs": 20, "max_steps": 10,
               "threads": 2}
        res = run_cli("ensemble", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "ens"))
        assert res.exit_code == 0
        with open(tmp_path / "ens" / "summary.csv") as fh:
            completed = sum(r["completed"] == "1" for r in csv.DictReader(fh))
        assert completed >= 18
        manifest = json.loads((tmp_path / "ens" / "manifest.json").read_text())
        assert set(manifest["hyper_init"]) == {"sigma_n2", "sigma_f2", "l_omega", "l_A"}

    @pytest.mark.parametrize("n_points, fraction", [(10, 0.1), (30, 1.5)],
                             ids=["fewer_than_10_points_left", "dropout_fraction_above_1"])
    def test_ensemble_rejected_input_is_config_error(self, tmp_path, n_points, fraction):
        X = np.column_stack([np.linspace(1.0, 1.2, n_points), np.linspace(0.5, 2.5, n_points)])
        write_dataset_csv(tmp_path / "data.csv",
                          Dataset(X, duffing_gamma(DuffingParams(), X[:, 0], X[:, 1])))
        cfg = {"inputs": {"dataset": "data.csv"}, "n_runs": 2, "dropout_fraction": fraction}
        res = run_cli("ensemble", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "ens"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ")

    def test_ensemble_smoke_profile(self, traced):
        import time
        cfg = {"inputs": {"dataset": str(traced / "run" / "dataset.csv")},
               "n_runs": 10, "dropout_fraction": 0.1, "fit_n_starts": 1,
               "max_steps": 60, "seed": 5}
        t0 = time.time()
        res = run_cli("ensemble", "--config", write_cfg(traced, cfg, "ens.yaml"),
                      "--out", str(traced / "ens"))
        elapsed = time.time() - t0
        assert res.exit_code == 0
        assert elapsed < 60.0
        with open(traced / "ens" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        completed = [r for r in rows if r["completed"] == "1"]
        assert len(completed) >= 9
        for r in completed:
            assert (traced / "ens" / f"curve_{int(r['run_id']):04d}.csv").exists()
            assert r["n_segments"] == "1"
