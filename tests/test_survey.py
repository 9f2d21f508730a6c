import importlib.util
import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from foldtrack.config import config_from_dict, load_config, load_raw, make_oracle
from foldtrack.driver import run_trace
from foldtrack.errors import DuplicatePoint
from foldtrack.gpr import GprModel

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "survey.py"


def survey(*args):
    res = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                         text=True, check=True)
    *rows, last = [json.loads(line) for line in res.stdout.splitlines()]
    return rows, last["summary"]


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
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src and perfbench first
    spec = importlib.util.spec_from_file_location("survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    add_point = GprModel.add_point
    counts = Counter()
    with module.counting_updates(counts):
        with pytest.raises(DuplicatePoint):
            duffing_model.add_point(tuple(duffing_model.dataset.X[3]), 1.0)
        duffing_model.add_point((1.2, 2.2), 0.5).remove_point(0)
    assert counts == {"duplicates": 1, "prunes": 1}
    assert GprModel.add_point is add_point
