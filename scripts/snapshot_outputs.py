#!/usr/bin/env python3
"""Write a fixed set of foldtrack outputs into OUT, to compare two checkouts.

    python3 scripts/snapshot_outputs.py OUT

The package is imported from this checkout's `src`, so running the script
of each checkout and then `diff -r OUT_A OUT_B` shows every byte that a
change moved.  The set:

* `run_trace` artifacts (run log, collection log, dataset, manifest) for
  `duffing.yaml` seeds 0-1, `duffing_noisy.yaml` with `n_max: 40` seeds
  0-2, `isola.yaml` seed 0 and `rig_trace.yaml` seed 0;
* the CLI `trace` on `duffing.yaml` and its replay from the manifest,
  `sweep` on `rig_sweep.yaml`, `offline` on `rig_offline.yaml` over that
  sweep, and `nlfr` over the CLI trace, each with its manifest;
* the `repr` of every run of `dropout_ensemble` on the benchmark's sweep of
  seed 0 (`perfbench/dataset.py`), warm-started and on 2 worker processes,
  as the benchmark's `ensemble-offline` workload calls it;
* the exit code and output of inputs the CLI refuses: `trace` on
  `duffing.yaml` with an unknown key, with its seed grid outside the domain
  box and with `alpha_3: 0`, `nlfr` with `band: 0.7`, `offline` with a
  missing and with a 2-row dataset, and `ensemble` with
  `dropout_fraction: 1.5`.

It takes about a minute; the rig runs take most of it.  Every path written
into a manifest is relative, so OUT may live anywhere.

    python3 scripts/snapshot_outputs.py --compare OUT_A OUT_B

compares two such trees.  For every file that differs it prints the line
count on each side, whether the text outside the numbers matches, and the
largest relative change of a number, |a - b| / max(|a|, |b|), over lines
whose text matches.  It exits 1 when a file is missing on one side or a
line count or the non-numeric text differs, so a change that should move
numbers by round-off only can be checked with one command.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import yaml  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from foldtrack import csvio  # noqa: E402
from foldtrack.cli import main as cli_main  # noqa: E402
from foldtrack.config import load_config  # noqa: E402
from foldtrack.continuation import ContinuationConfig  # noqa: E402
from foldtrack.driver import run_trace, write_trace_artifacts  # noqa: E402
from foldtrack.geometry import DomainBox  # noqa: E402
from foldtrack.gpr import Dataset, Hyperparameters, fit_hyperparameters  # noqa: E402
from foldtrack.postprocess import dropout_ensemble  # noqa: E402

CONFIGS = ROOT / "configs"
TRACES = [("duffing.yaml", None, (0, 1)), ("duffing_noisy.yaml", 40, (0, 1, 2)),
          ("isola.yaml", None, (0,)), ("rig_trace.yaml", None, (0,))]


def traces(out: Path):
    for name, n_max, seeds in TRACES:
        cfg = load_config(CONFIGS / name)
        if n_max is not None:
            cfg = replace(cfg, acquisition=replace(cfg.acquisition, n_max=n_max))
        for seed in seeds:
            run = replace(cfg, seed=seed)
            write_trace_artifacts(out / f"{Path(name).stem}_seed{seed}", run, run_trace(run))


def cli(out: Path, *args: str):
    res = CliRunner().invoke(cli_main, list(args), catch_exceptions=False)
    (out / f"exit_{args[0]}_{Path(args[args.index('--out') + 1]).name}.txt").write_text(
        f"{res.exit_code}\n{res.output}", encoding="utf-8")


def commands(out: Path):
    os.chdir(out)  # every output path handed to the CLI is relative to OUT
    cli(out, "trace", "--config", str(CONFIGS / "duffing.yaml"), "--out", "cli_trace")
    cli(out, "trace", "--config", "cli_trace/manifest.json", "--out", "cli_replay")
    cli(out, "sweep", "--config", str(CONFIGS / "rig_sweep.yaml"), "--out", "cli_sweep")
    offline = yaml.safe_load((CONFIGS / "rig_offline.yaml").read_text(encoding="utf-8"))
    offline["inputs"]["dataset"] = "cli_sweep/dataset.csv"
    Path("offline.yaml").write_text(yaml.safe_dump(offline), encoding="utf-8")
    cli(out, "offline", "--config", "offline.yaml", "--out", "cli_offline")
    nlfr = {"inputs": {"datasets": ["cli_trace/dataset.csv"],
                       "run_logs": ["cli_trace/run_log.csv"]},
            "gamma_level": 0.7, "band": 0.05}
    Path("nlfr.yaml").write_text(yaml.safe_dump(nlfr), encoding="utf-8")
    cli(out, "nlfr", "--config", "nlfr.yaml", "--out", "cli_nlfr")


def rejected(out: Path):
    """Run each refused input; its config is written into OUT next to its exit file."""
    duffing = yaml.safe_load((CONFIGS / "duffing.yaml").read_text(encoding="utf-8"))
    csvio.write_dataset_csv(out / "two_rows.csv", Dataset(np.array([[1.0, 1.0], [1.1, 1.5]]),
                                                          np.array([0.3, 0.4])))
    outside = copy.deepcopy(duffing)
    outside["init"]["x0"] = {"omega": 1.44, "A": 4.9}
    linear = copy.deepcopy(duffing)
    linear["oracle"]["params"]["alpha_3"] = 0.0
    cases = [
        ("trace", "rejected_unknown_key", {**duffing, "surprise": 1}),
        ("trace", "rejected_grid_outside_box", outside),
        ("trace", "rejected_no_fold", linear),
        ("nlfr", "rejected_band", {"inputs": {"datasets": ["two_rows.csv"]},
                                   "gamma_level": 0.3, "band": 0.7}),
        ("offline", "rejected_missing_dataset", {"inputs": {"dataset": "missing.csv"}}),
        ("offline", "rejected_two_rows", {"inputs": {"dataset": "two_rows.csv"}}),
        ("ensemble", "rejected_dropout", {"inputs": {"dataset": "ensemble_sweep0.csv"},
                                          "n_runs": 2, "dropout_fraction": 1.5}),
    ]
    for command, name, cfg in cases:
        Path(f"{name}.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        cli(out, command, "--config", f"{name}.yaml", "--out", name)


def ensemble(out: Path):
    import dataset
    from workloads import ENSEMBLE

    path = out / "ensemble_sweep0.csv"
    dataset.write_csv(path, dataset.sweep(0))
    ds = csvio.read_dataset_csv(path)
    v = float(np.var(ds.F))
    hyper = fit_hyperparameters(ds, Hyperparameters(1e-4 * v, v, 0.05, 0.45), n_starts=1, seed=0)
    ccfg = ContinuationConfig(h=0.1, h_max=0.25, max_steps=ENSEMBLE["max_steps"],
                              domain_box=DomainBox(*dataset.CONTINUATION_BOX))
    res = dropout_ensemble(ds, ENSEMBLE["n_runs"], ENSEMBLE["dropout_fraction"], seed=0,
                           hyper_init=hyper, cfg=ccfg, x0=dataset.START,
                           fit_n_starts=ENSEMBLE["fit_n_starts"], threads=ENSEMBLE["threads"])
    (out / "ensemble_runs.txt").write_text("".join(f"{r!r}\n" for r in res.runs),
                                           encoding="utf-8")


NUMBER = re.compile(r"[-+]?(?:\b(?:nan|inf)\b|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_file(a: Path, b: Path) -> tuple[bool, str]:
    """(text differs, report line) for two versions of one file."""
    lines_a = a.read_text(encoding="utf-8", errors="replace").splitlines()
    lines_b = b.read_text(encoding="utf-8", errors="replace").splitlines()
    text_same = len(lines_a) == len(lines_b)
    worst = 0.0
    for la, lb in zip(lines_a, lines_b):
        if NUMBER.sub("#", la) != NUMBER.sub("#", lb):
            text_same = False
            continue
        for x, y in zip(NUMBER.findall(la), NUMBER.findall(lb)):
            worst = max(worst, _rel_change(float(x), float(y)))
    text = "same" if text_same else "DIFFERS"
    return not text_same, (f"lines {len(lines_a)} / {len(lines_b)}, text {text}, "
                           f"max rel change {worst:.2e}")


def compare(a: Path, b: Path) -> int:
    """Print every file of two snapshot trees that differs; 1 if any text differs."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    broken = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        broken += 1
    moved = 0
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        differs, report = compare_file(a / rel, b / rel)
        print(f"{rel}: {report}")
        moved += 1
        broken += differs
    print(f"{moved} files differ, {broken} in line count, text or presence")
    return 1 if broken else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, nargs="?", help="output directory (created)")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                    help="compare two snapshot trees instead of writing one")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.out is None:
        ap.error("give OUT, or --compare A B")
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    traces(out)
    ensemble(out)
    commands(out)
    rejected(out)
