import importlib.util
import json
import subprocess
import sys
from collections import Counter, namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from foldtrack.config import config_from_dict, load_config, load_raw, make_oracle
from foldtrack.csvio import write_dataset_csv
from foldtrack.driver import run_trace
from foldtrack.errors import DuplicatePoint
from foldtrack.gpr import Dataset, GprModel
from foldtrack.oracles import DuffingParams, duffing_gamma

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "survey.py"


def survey(*args):
    res = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                         text=True, check=True)
    *rows, last = [json.loads(line) for line in res.stdout.splitlines()]
    return rows, last["summary"]


def load_survey(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src and perfbench first
    spec = importlib.util.spec_from_file_location("survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_duffing_row_matches_a_direct_trace():
    [row], summary = survey("--config", str(ROOT / "configs" / "duffing.yaml"), "--seeds", "42:43")
    cfg = replace(load_config(ROOT / "configs" / "duffing.yaml"), seed=42)
    oracle = make_oracle(cfg.oracle, run_seed=cfg.seed)
    result = run_trace(cfg, oracle=oracle)
    assert row["seed"] == 42 and row["reason"] == result.reason
    assert row["fold_points"] == len(result.steps)
    assert row["oracle_calls"] == oracle._calls
    assert row["rig_seconds"] is None
    # the README's accuracy on the noiseless config
    assert row["locus_error"]["force_rel"] < 0.02 and row["locus_error"]["omega_rel"] < 0.005
    assert summary["reasons"] == {result.reason.split(":")[0]: 1}
    assert summary["oracle_calls_per_fold_point"] == oracle._calls / len(result.steps)


def test_set_overrides_a_dotted_key_per_seed():
    rows, summary = survey("--config", str(ROOT / "configs" / "duffing.yaml"), "--seeds", "0:2",
                           "--set", "continuation.max_steps=2")
    assert [r["seed"] for r in rows] == [0, 1]
    assert all(r["reason"] == "max_steps" and r["fold_points"] == 3 for r in rows)
    assert summary["seeds"] == 2 and summary["fold_points"] == 6


def test_every_measurement_is_kept_skipped_or_pruned():
    # duffing-capped's config; seed 0 ends cleanly (domain_exit) after pruning
    [row], summary = survey("--config", str(ROOT / "configs" / "duffing_noisy.yaml"),
                            "--seeds", "0:1", "--set", "acquisition.n_max=40")
    raw = load_raw(ROOT / "configs" / "duffing_noisy.yaml")
    raw["acquisition"]["n_max"] = 40
    cfg = replace(config_from_dict(raw), seed=0)
    result = run_trace(cfg, oracle=make_oracle(cfg.oracle, run_seed=0))
    assert row["reason"] == result.reason == "domain_exit"
    n0 = cfg.init.grid_shape[0] * cfg.init.grid_shape[1]
    added = result.model.dataset.n - n0
    assert n0 == 25 and row["prunes"] > 0
    assert row["oracle_calls"] == n0 + added + row["duplicates"] + row["prunes"]
    assert (summary["duplicates"], summary["prunes"]) == (row["duplicates"], row["prunes"])


def test_counting_updates_counts_refused_duplicates_and_removals(duffing_model, monkeypatch):
    module = load_survey(monkeypatch)
    add_point = GprModel.add_point
    counts = Counter()
    with module.counting_updates(counts):
        with pytest.raises(DuplicatePoint):
            duffing_model.add_point(tuple(duffing_model.dataset.X[3]), 1.0)
        duffing_model.add_point((1.2, 2.2), 0.5).remove_point(0)
    assert counts == {"duplicates": 1, "prunes": 1}
    assert GprModel.add_point is add_point


def test_rig_row_holds_the_fold_error_against_the_rig_reference(monkeypatch):
    config = ROOT / "configs" / "rig_trace.yaml"
    [row], summary = survey("--config", str(config), "--seeds", "0:1",
                            "--set", "continuation.max_steps=2")
    module = load_survey(monkeypatch)
    raw = load_raw(config)
    raw["continuation"]["max_steps"] = 2
    cfg = replace(config_from_dict(raw), seed=0)
    reference = module.rig_reference_of(cfg)
    folds = run_trace(cfg, oracle=make_oracle(cfg.oracle, run_seed=0)).fold_points
    assert row["fold_points"] == len(folds) == 3
    assert module.survey_row(cfg, 0) == row  # sweeps the reference itself
    # the three folds reach 12.8 and 12.95 Hz, not 13.1 Hz
    assert set(row["locus_error"]) == {"12.8", "12.95"}
    for omega, err in row["locus_error"].items():
        A_ref, F_ref = reference[float(omega)]
        A, F = module.interpolate_fold([(f.omega, f.A, f.gamma_model) for f in folds],
                                       float(omega)) or (folds[0].A, folds[0].gamma_model)
        assert err == {"A_abs": abs(A - A_ref), "F_rel": abs(F - F_ref) / F_ref}
        # perfbench's rig check takes 1 mm and 10%
        assert err["A_abs"] < 1.0 and err["F_rel"] < 0.1
    assert summary["locus_error"]["12.8"] == {
        "seeds": 1, **{k: {"median": v, "worst": v} for k, v in row["locus_error"]["12.8"].items()}}


def test_start_point_counts_at_the_start_frequency(monkeypatch):
    module = load_survey(monkeypatch)
    Fold = namedtuple("Fold", "omega A gamma_model")
    reference = {12.8: (2.6, 1.6), 12.95: (2.8, 1.9)}
    # started a hair above 12.8 Hz and traced upward: the line never crosses 12.8
    folds = [Fold(12.8 + 1e-9, 2.7, 1.5), Fold(13.0, 3.0, 2.0)]
    errs = module.rig_locus_errors(folds, reference, start_omega=12.8)
    assert errs["12.8"] == {"A_abs": abs(2.7 - 2.6), "F_rel": abs(1.5 - 1.6) / 1.6}
    assert set(errs) == {"12.8", "12.95"}
    # a start elsewhere counts only where the line reaches
    assert set(module.rig_locus_errors(folds, reference, start_omega=12.7)) == {"12.95"}


def test_replay_config_reads_its_table_from_its_own_directory(tmp_path):
    # a relative params.path starts at the config's directory, not the working
    # directory, and a replay back-end has no closed form, so no locus error
    cfgs = tmp_path / "cfgs"
    cfgs.mkdir()
    omegas, As = np.arange(1.0, 1.3001, 0.005), np.arange(0.5, 2.5001, 0.05)
    X = np.array([[w, a] for w in omegas for a in As])
    write_dataset_csv(cfgs / "recorded.csv", Dataset(X, duffing_gamma(DuffingParams(), *X.T)))
    raw = load_raw(ROOT / "configs" / "duffing.yaml")
    raw["oracle"] = {"name": "replay", "params": {"path": "recorded.csv", "tol": 0.05}}
    raw["continuation"]["max_steps"] = 3
    (cfgs / "replay.yaml").write_text(yaml.safe_dump(raw), encoding="utf-8")
    res = subprocess.run([sys.executable, str(SCRIPT), "--config", "cfgs/replay.yaml",
                          "--seeds", "0:1"], capture_output=True, text=True, cwd=tmp_path,
                         check=False)
    assert res.returncode == 0, res.stderr
    row, last = [json.loads(line) for line in res.stdout.splitlines()]
    assert row["reason"] == "max_steps" and row["fold_points"] == 4
    assert row["locus_error"] is None and row["rig_seconds"] is None
    assert "worst_locus_error" not in last["summary"]


@pytest.mark.parametrize("config, message", [
    (".", "config path is not a file: ."),
    ("missing.yaml", "config file not found: missing.yaml"),
    ("bad.yaml", "config: unknown keys ['surprise'] (allowed: "),
], ids=["directory", "missing", "unknown_key"])
def test_unreadable_config_is_one_error_line_and_exit_1(tmp_path, config, message):
    (tmp_path / "bad.yaml").write_text(
        (ROOT / "configs" / "duffing.yaml").read_text(encoding="utf-8") + "surprise: 1\n")
    res = subprocess.run([sys.executable, str(SCRIPT), "--config", config, "--seeds", "0:1"],
                         capture_output=True, text=True, cwd=tmp_path, check=False)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("text", ["-1:1", "3:3", "2"], ids=["negative_start", "empty", "no_colon"])
def test_bad_seed_range_is_refused(monkeypatch, text):
    # a negative seed would reach the oracle's generator, which refuses it with a traceback
    with pytest.raises(SystemExit, match=r"^--seeds takes a:b with 0 <= a < b, got "):
        load_survey(monkeypatch).parse_seeds(text)
