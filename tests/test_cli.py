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
from foldtrack.csvio import (RUN_LOG_HEADER, read_dataset_csv, read_run_log,
                             write_dataset_csv, write_run_log)
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
        assert len(rows) == 1 and rows[0].h == 0.0

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
        assert 1.19 < last.fold.omega <= 1.2

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
        assert len(result.steps) == 1
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

    def test_domain_exhausted_before_the_first_step_exits_3(self, tmp_path):
        # step 0's collection cannot place its candidates in a box this small
        cfg = base_trace_config(seed=1)
        cfg["oracle"]["domain_box"] = {"omega_min": 1.10, "omega_max": 1.12,
                                       "A_min": 1.40, "A_max": 1.50}
        cfg["init"]["half_widths"] = {"omega": 0.01, "A": 0.05}
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 3
        assert res.output == "error: could not place 30 candidates inside ellipse and domain box\n"

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


    def test_grid_stops_at_its_stop(self, tmp_path):
        # 0.5 / 0.3 and 0.8 / 0.3 steps are not whole: the grids end at the
        # last value before their stops, inside the oracle's domain box
        cfg = {
            "oracle": {"name": "duffing",
                       "params": {"noise_sigma": 0.0},
                       "domain_box": {"omega_min": 0.95, "omega_max": 1.45,
                                      "A_min": 0.05, "A_max": 5.0}},
            "sweep": {"omega_start": 0.95, "omega_stop": 1.45, "omega_step": 0.3,
                      "A_start": 0.2, "A_stop": 1.0, "A_step": 0.3},
        }
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
        assert res.exit_code == 0
        assert json.loads((out / "manifest.json").read_text())["reason"] == "complete"
        X = read_dataset_csv(out / "dataset.csv").X
        assert X[:, 0].tolist() == pytest.approx([0.95] * 3 + [1.25] * 3)
        assert X[:, 1].tolist() == pytest.approx([0.2, 0.5, 0.8] * 2)

    def test_grid_ending_on_the_box_edge_measures_there(self, tmp_path):
        # 0.2 + 24 * 0.2 rounds to 5.000000000000001; clamped at the stop,
        # the last value lies on the box edge A_max = 5.0, not past it
        cfg = {
            "oracle": {"name": "duffing",
                       "params": {"noise_sigma": 0.0},
                       "domain_box": {"omega_min": 0.95, "omega_max": 1.45,
                                      "A_min": 0.05, "A_max": 5.0}},
            "sweep": {"omega_start": 1.05, "omega_stop": 1.15, "omega_step": 0.05,
                      "A_start": 0.2, "A_stop": 5.0, "A_step": 0.2},
        }
        out = tmp_path / "out"
        res = run_cli("sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out))
        assert res.exit_code == 0
        assert json.loads((out / "manifest.json").read_text())["reason"] == "complete"
        assert read_dataset_csv(out / "dataset.csv").n == 75


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
    @pytest.mark.parametrize("run_log", ["dataset", "no_gamma_model"])
    def test_nlfr_run_log_of_another_format_is_config_error(self, tmp_path, run_log):
        # a dataset CSV, or a run log without its gamma_model column, ended in a
        # KeyError traceback
        write_dataset_csv(tmp_path / "dataset.csv",
                          Dataset(np.array([[1.0, 1.0], [1.1, 1.5]]), np.array([0.3, 0.4])))
        (tmp_path / "no_gamma_model.csv").write_text(
            "step,omega,A,gamma_measured,t_omega,t_A,h,newton_iters\n"
            "0,1.1,1.4,,1.0,0.0,0.0,0\n")
        cfg = {"inputs": {"run_logs": [f"{run_log}.csv"]}, "gamma_level": 0.3}
        res = run_cli("nlfr", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert "unexpected run log header" in res.output

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


class TestDatasetRows:
    # a short row was read on into the next one, since the cells were flattened
    # and reshaped to three columns; a long row or a non-number raised a message
    # that named neither file nor row
    # (float() reads nan and inf, so a non-finite cell was read as a number)
    @pytest.mark.parametrize("body, row", [
        ("1.0,2.0\n3.0,4.0\n5.0,6.0\n", 1),
        ("1.0,2.0,0.3\n1.1,2.0,0.4,9.0\n", 2),
        ("1.0,2.0,0.3\n1.1,2.0,0.4\n1.2,abc,0.5\n", 3),
        ("1.0,2.0,0.3\n1.1,2.0,nan\n", 2),
        ("1.0,inf,0.3\n", 1),
        ("1.0,2.0,0.3\n-inf,2.0,0.4\n", 2),
    ], ids=["short_rows", "long_row", "non_number", "nan", "inf", "minus_inf"])
    def test_malformed_row_is_refused_by_file_and_row(self, tmp_path, body, row):
        path = tmp_path / "data.csv"
        path.write_text("omega,A,F\n" + body)
        with pytest.raises(ValueError, match=f"data.csv: row {row}: "):
            read_dataset_csv(path)

    def test_offline_on_short_rows_is_one_error_line(self, tmp_path):
        (tmp_path / "data.csv").write_text("omega,A,F\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        res = run_cli("offline", "--config",
                      write_cfg(tmp_path, {"inputs": {"dataset": "data.csv"}}),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert "data.csv: row 1: 2 cells, want 3" in res.output

    def test_offline_on_a_nan_force_names_file_and_row(self, tmp_path):
        # it exited with "non-finite output values", naming neither file nor row
        write_dataset_csv(tmp_path / "data.csv",
                          duffing_grid_dataset(DuffingParams(), shape=(6, 5)))
        lines = (tmp_path / "data.csv").read_text().splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        res = run_cli("offline", "--config",
                      write_cfg(tmp_path, {"inputs": {"dataset": "data.csv"}}),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert "data.csv: row 7: non-finite number nan" in res.output

    @pytest.mark.parametrize("cell, value", [(1, "nan"), (4, "inf"), (3, "-inf")],
                             ids=["omega_nan", "gamma_measured_inf", "gamma_model_minus_inf"])
    def test_non_finite_run_log_cell_is_refused_by_file_and_row(self, tmp_path, cell, value):
        # a run log whose omega was nan read as a fold point, and nlfr used it
        rows = ["0,1.1,1.4,0.3,,1.0,0.0,0.0,0", "1,1.12,1.5,0.3,0.31,1.0,0.0,0.1,2"]
        second = rows[1].split(",")
        second[cell] = value
        path = tmp_path / "log.csv"
        path.write_text("\n".join([",".join(RUN_LOG_HEADER), rows[0], ",".join(second)]) + "\n")
        with pytest.raises(ValueError, match=f"log.csv: row 2: non-finite number {value}"):
            read_run_log(path)
        path.write_text("\n".join([",".join(RUN_LOG_HEADER), rows[0]]) + "\n")
        assert read_run_log(path)[0].gamma_measured is None


class TestBadPaths:
    # a directory where a file belongs, or a file where the output directory
    # belongs, ended in a traceback, and trace found a bad --out only after its
    # whole run; each is one error line and exit 1, before any trace
    @pytest.mark.parametrize("command, cfg, args, message", [
        ("trace", None, ["--config", "adir"], "'--config': File 'adir' is a directory."),
        ("trace", base_trace_config(), ["--out", "afile"],
         "'--out': Directory 'afile' is a file."),
        ("offline", {"inputs": {"dataset": "adir"}}, [], "dataset file not found: "),
        ("nlfr", {"inputs": {"run_logs": ["adir"]}, "gamma_level": 0.3}, [],
         "run log file not found: "),
    ], ids=["trace_config_directory", "trace_out_file", "offline_dataset_directory",
            "nlfr_run_log_directory"])
    def test_refused_before_any_work(self, tmp_path, monkeypatch, command, cfg, args, message):
        import foldtrack.driver
        monkeypatch.setattr(foldtrack.driver, "run_trace",
                            lambda *a, **kw: pytest.fail("run_trace was called"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        config = [] if cfg is None else ["--config", write_cfg(tmp_path, cfg)]
        res = run_cli(command, *config, "--out", "out", *args)
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert message in res.output


class TestUsageErrors:
    # an option click cannot read exits 1, as a config value the command cannot
    # take does, with one error line that names the option
    @pytest.mark.parametrize("args, flag", [
        (["--seed", "abc"], "--seed"),
        (["--surprise", "1"], "--surprise"),
        ([], "--config"),
    ], ids=["seed_not_an_integer", "unknown_option", "missing_config"])
    def test_usage_error_is_one_error_line_and_exit_1(self, tmp_path, args, flag):
        config = [] if flag == "--config" else [
            "--config", write_cfg(tmp_path, base_trace_config())]
        res = run_cli("trace", *config, *args, "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert flag in res.output


    @pytest.mark.parametrize("args, flag", [
        (["--bogus"], "--bogus"),
        (["--bogus", "trace"], "--bogus"),
    ], ids=["alone", "before_a_command"])
    def test_group_usage_error_is_one_error_line_and_exit_1(self, args, flag):
        # the group's own options are read before any command runs
        res = run_cli(*args)
        assert res.exit_code == 1
        assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
        assert flag in res.output

    def test_group_help_exits_0(self):
        res = run_cli("--help")
        assert res.exit_code == 0
        assert res.output.startswith("Usage: ")

    def test_bare_main_prints_the_help_and_exits_0(self):
        # it exited 2, the oracle-error code
        res = CliRunner().invoke(main, [])
        assert res.exit_code == 0
        assert res.output == run_cli("--help").output


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
        ("trace", {"measure_at_solution": True}),
        ("trace", {"acquisition.beta_tol": float("nan")}),
        ("trace", {"init.x0.omega": float("nan")}),
        ("trace", {"init.x0.A": float("-inf")}),
        ("nlfr", {"gamma_level": float("nan")}),
        ("nlfr", {"gamma_level": -0.3}),
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
            "sweep_units_list", "trace_units_number_value",
            "trace_measure_at_solution_unknown", "trace_beta_tol_nan", "trace_x0_nan",
            "trace_x0_minus_inf", "nlfr_gamma_level_nan", "nlfr_gamma_level_negative"])
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
        ("saturation_mm", -1), ("settle_extend", 1.0), ("f1", 12.0), ("record_len", 500)])
    def test_rig_value_it_cannot_run_is_config_error(self, tmp_path, key, value):
        # the rig's constants are fixed in code, and only k3 and noise_sigma are
        # settable: every other key is refused as unknown, whatever its value
        cfg = yaml.safe_load((CONFIGS / "rig_trace.yaml").read_text(encoding="utf-8"))
        cfg["oracle"]["params"][key] = value
        cfg["continuation"]["max_steps"] = 0
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: oracle.params: ") and key in res.output

    def test_isola_shape_key_is_config_error(self, tmp_path):
        # the isola's shape constants are fixed in code; only noise_sigma is settable
        cfg = yaml.safe_load((CONFIGS / "isola.yaml").read_text(encoding="utf-8"))
        cfg["oracle"]["params"] = {"m2": 3.1}
        cfg["continuation"]["max_steps"] = 0
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: oracle.params: ") and "m2" in res.output
        assert len(res.output.splitlines()) == 1

    def test_isola_negative_noise_is_config_error(self, tmp_path):
        # a negative noise std was accepted and ran noiseless
        cfg = yaml.safe_load((CONFIGS / "isola.yaml").read_text(encoding="utf-8"))
        cfg["oracle"]["params"] = {"noise_sigma": -1}
        res = run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "out"))
        assert res.exit_code == 1
        assert res.output.startswith("error: oracle.params: ") and "noise_sigma" in res.output
        assert len(res.output.splitlines()) == 1

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

    def test_run_log_and_fold_curve_round_trip(self, traced):
        # one format for online and offline curves: each reads back and rewrites
        # to the same bytes, and nlfr takes either as a run log
        cfg = {"inputs": {"dataset": "run/dataset.csv"}, "x0": [1.15, 1.6], "max_steps": 40}
        res = run_cli("offline", "--config", write_cfg(traced, cfg, "off.yaml"),
                      "--out", str(traced / "off"))
        assert res.exit_code == 0
        for path in (traced / "run" / "run_log.csv", traced / "off" / "fold_curve.csv"):
            points = read_run_log(path)
            write_run_log(traced / "again.csv", points)
            assert (traced / "again.csv").read_bytes() == path.read_bytes()
            cfg = {"inputs": {"run_logs": [str(path)]},
                   "gamma_level": points[len(points) // 2].fold.gamma_model}
            res = run_cli("nlfr", "--config", write_cfg(traced, cfg, "nlfr.yaml"),
                          "--out", str(traced / "nlfr"))
            assert res.exit_code == 0
            assert ", 1 fold markers;" in res.output

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
        assert omega_max - 0.01 < rows[-1].fold.omega <= omega_max
        assert 0.9 < rows[0].fold.omega < 1.05

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

    @pytest.mark.parametrize("n_points", [3, 6])
    def test_ensemble_refuses_a_small_dataset_before_any_fit(self, tmp_path, monkeypatch,
                                                            n_points):
        # 10% dropout leaves n - 1 points, short of the 10 the README asks for: the
        # refusal names that rule, and no likelihood is maximized before it
        import scipy.optimize
        real, calls = scipy.optimize.minimize, []

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        X = np.column_stack([np.linspace(1.0, 1.2, n_points), np.linspace(0.5, 2.5, n_points)])
        write_dataset_csv(tmp_path / "data.csv",
                          Dataset(X, duffing_gamma(DuffingParams(), X[:, 0], X[:, 1])))
        cfg = {"inputs": {"dataset": "data.csv"}, "n_runs": 2}
        res = run_cli("ensemble", "--config", write_cfg(tmp_path, cfg),
                      "--out", str(tmp_path / "ens"))
        assert res.exit_code == 1
        assert res.output == f"error: only {n_points - 1} points would remain; need >= 10\n"
        assert calls == []

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


def written_files(out):
    """The names of the files in `out` other than its manifest."""
    return sorted(p.name for p in Path(out).iterdir() if p.name != "manifest.json")


def manifest_of(out):
    return json.loads((Path(out) / "manifest.json").read_text())


@pytest.fixture()
def recorded(tmp_path, monkeypatch, duffing_params):
    """A working directory as the README lays it out: a sweep's dataset in
    `rig_sweep_out/` and a fold curve crossing gamma 0.3 in `fold_out/`."""
    monkeypatch.chdir(tmp_path)
    for d in ("rig_sweep_out", "fold_out", "configs"):
        (tmp_path / d).mkdir()
    write_dataset_csv("rig_sweep_out/dataset.csv", duffing_grid_dataset(
        duffing_params, center=(1.2, 1.8), half=(0.15, 1.2), shape=(13, 13)))
    write_run_log("fold_out/fold_curve.csv", [
        continuation.CurvePoint(continuation.FoldPoint(1.1 + 0.01 * k, 1.5 + 0.1 * k,
                                                       0.2 + 0.05 * k),
                                continuation.Tangent(0.6, 0.8), 0.1 * (k > 0), 2)
        for k in range(5)])
    return tmp_path


HYPER = {"sigma_n2": 1e-8, "sigma_f2": 0.04, "l_omega": 0.05, "l_A": 0.45}
SWEEP_GRID = {"omega_start": 1.05, "omega_stop": 1.1, "omega_step": 0.025,
              "A_start": 0.6, "A_stop": 1.0, "A_step": 0.2}
# (command, config path, config, --out): each config names its inputs from its own
# directory; the ensemble is the README's ens.yaml, next to rig_sweep_out/
ELSEWHERE = [
    ("offline", "configs/off.yaml",
     {"inputs": {"dataset": "../rig_sweep_out/dataset.csv"}, "x0": [1.15, 1.7],
      "max_steps": 10, "hyperparameters": HYPER}, "results/offline"),
    ("nlfr", "configs/nlfr.yaml",
     {"inputs": {"datasets": ["../rig_sweep_out/dataset.csv"],
                 "run_logs": ["../fold_out/fold_curve.csv"]}, "gamma_level": 0.3},
     "results/nlfr"),
    ("ensemble", "ens.yaml",
     {"inputs": {"dataset": "rig_sweep_out/dataset.csv"}, "n_runs": 3, "max_steps": 10,
      "seed": 5}, "ens_out"),
    ("sweep", "configs/sweep.yaml",
     {"oracle": {"name": "replay",
                 "params": {"path": "../rig_sweep_out/dataset.csv", "tol": 1e-9}},
      "sweep": SWEEP_GRID}, "results/sweep"),
]


class TestReplayFromAnotherDirectory:
    """A relative input path starts at the directory of the file that names it:
    a manifest names its run's inputs from --out, so it replays byte for byte
    wherever --out lies against the config."""

    @pytest.mark.parametrize("command, cfg_path, cfg, out", ELSEWHERE,
                             ids=[case[0] for case in ELSEWHERE])
    def test_manifest_replays_into_another_depth(self, recorded, command, cfg_path, cfg, out):
        Path(cfg_path).write_text(yaml.safe_dump(cfg))
        first = run_cli(command, "--config", cfg_path, "--out", out)
        assert first.exit_code == 0, first.output
        replay = run_cli(command, "--config", f"{out}/manifest.json",
                         "--out", f"replays/{command}/again")
        assert replay.exit_code == 0, replay.output
        files = written_files(out)
        assert files == written_files(f"replays/{command}/again") != []
        for name in files:
            assert (recorded / "replays" / command / "again" / name).read_bytes() == \
                (recorded / out / name).read_bytes()


class TestManifestOutputs:
    """Each command's manifest lists exactly the files it wrote into --out."""

    def test_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_trace_config(continuation={"h": 0.1, "h_max": 0.15, "max_steps": 2})
        assert run_cli("trace", "--config", write_cfg(tmp_path, cfg),
                       "--out", str(out)).exit_code == 0
        assert manifest_of(out)["outputs"] == written_files(out) == \
            ["collection_log.csv", "dataset.csv", "run_log.csv"]

    @pytest.mark.parametrize("command", ["offline", "nlfr", "sweep"])
    def test_offline_nlfr_and_sweep(self, recorded, command):
        _, cfg_path, cfg, out = next(case for case in ELSEWHERE if case[0] == command)
        Path(cfg_path).write_text(yaml.safe_dump(cfg))
        assert run_cli(command, "--config", cfg_path, "--out", out).exit_code == 0
        assert manifest_of(out)["outputs"] == written_files(out)
        if command == "sweep":  # one file per frequency, and the combined dataset
            assert written_files(out) == ["dataset.csv", "scurve_000.csv", "scurve_001.csv",
                                          "scurve_002.csv"]

    def test_ensemble_with_a_failed_run(self, recorded, monkeypatch):
        # the second dropout run's trace fails: it writes no curve file
        from foldtrack import postprocess
        trace, calls = postprocess.offline_fold_trace, []

        def failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NoConvergence("injected")
            return trace(*args, **kwargs)

        monkeypatch.setattr(postprocess, "offline_fold_trace", failing_second)
        _, cfg_path, cfg, out = next(case for case in ELSEWHERE if case[0] == "ensemble")
        Path(cfg_path).write_text(yaml.safe_dump(cfg))
        res = run_cli("ensemble", "--config", cfg_path, "--out", out)
        assert res.exit_code == 0
        assert "67% of 3 runs completed" in res.output
        assert manifest_of(out)["outputs"] == written_files(out) == \
            ["curve_0000.csv", "curve_0002.csv", "summary.csv"]
