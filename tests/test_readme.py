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


def test_ensemble_example_replays_from_its_manifest(tmp_path, monkeypatch):
    # ens.yaml next to rig_sweep_out/, its manifest in ens_out/: the replay the
    # README gives reads the same sweep and writes the same CSVs
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ens.yaml").write_text(README.split("```yaml\n", 1)[1].split("```", 1)[0])
    replay = shlex.split(re.search(r"`foldtrack (ensemble --config \S+/manifest\.json [^`]+)`",
                                   README)[1])
    for args in (readme_command("sweep"), readme_command("ensemble"), replay):
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output
    out, again = tmp_path / "ens_out", tmp_path / replay[replay.index("--out") + 1]
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert "summary.csv" in csvs and sorted(p.name for p in again.glob("*.csv")) == csvs
    assert all((out / name).read_bytes() == (again / name).read_bytes() for name in csvs)
