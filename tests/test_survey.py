import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from foldtrack.config import load_config, make_oracle
from foldtrack.driver import run_trace

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
