"""The README's own commands and paths: its rig pipeline runs as written, and
every script and config it names exists."""

import re
import shlex
import shutil
from pathlib import Path

import yaml
from click.testing import CliRunner

from foldtrack.cli import main
from foldtrack.config import ensemble_config_from_dict

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_command(name):
    """The arguments of the README's one line that starts `foldtrack <name>`."""
    lines = [ln for ln in README.splitlines() if ln.startswith(f"foldtrack {name} ")]
    assert len(lines) == 1
    return shlex.split(lines[0], comments=True)[1:]


def test_rig_pipeline_runs_as_written(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for name in ("sweep", "offline"):
        res = CliRunner().invoke(main, readme_command(name), catch_exceptions=False)
        assert res.exit_code == 0, res.output
    assert (tmp_path / "rig_offline_out" / "fold_curve.csv").is_file()


def test_named_scripts_and_configs_exist():
    paths = set(re.findall(r"\b(?:scripts/\w+\.py|configs/\w+\.yaml)\b", README))
    assert "scripts/survey.py" in paths and "configs/rig_offline.yaml" in paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []


def test_inline_ensemble_config_reads():
    block = README.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = ensemble_config_from_dict(yaml.safe_load(block))
    assert (cfg.dataset, cfg.n_runs) == ("rig_sweep_out/dataset.csv", 20)
