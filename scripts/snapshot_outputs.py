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
  `sweep` on `rig_sweep.yaml` and on a Duffing grid whose amplitude stop
  lies on the domain box edge, `offline` on `rig_offline.yaml` over the rig
  sweep and again without its `x0` and `hyperparameters`, so the offline
  path fits and scans for its own start, `nlfr` over the CLI trace's run
  log and `nlfr` over the offline `fold_curve.csv`, so the one run-log
  reader reads what both of its writers wrote, and `ensemble` over the
  benchmark's sweep of seed 0 with 4 runs on 2 worker processes and no
  start point, so each run scans for its own, each with its manifest;
* the replays of the CLI `offline`, `nlfr` and `ensemble` from their
  manifests into `replays/<command>_replay`, one level deeper than the
  runs they replay, so each manifest's input paths must hold from its own
  directory; each replay's CSVs are byte for byte its run's;
* the `repr` of every run of `dropout_ensemble` on the benchmark's sweep of
  seed 0 (`perfbench/dataset.py`), warm-started and on 2 worker processes,
  as the benchmark's `ensemble-offline` workload calls it;
* `rig_replay.txt`, the rig paths no trace reaches, as the acceptance
  check of non-invasive control runs them: a noise-free rig's
  `picard_noninvasive(12.8, 2.0)` at fixed A1*, then `replay_open_loop` on
  its fundamental force, with the point's A and F, the replay amplitude and
  the rig's clock;
* the exit code and output of inputs the CLI refuses: `trace` on
  `duffing.yaml` with an unknown key, with an unknown `oracle` key, with its
  seed grid outside the domain box, with `alpha_3: 0`, in a domain box too
  small for step 0's candidates and with `--seed abc`, `nlfr` with
  `band: 0.7`, `offline` with a missing and with a 2-row dataset,
  `ensemble` with `dropout_fraction: 1.5`, and `sweep`, `nlfr`, `ensemble`
  and `offline` each with an unknown top-level key;
* `configs_resolved.json`, the `to_dict()` of every shipped config, of the
  README's ensemble config and of one nlfr config, as a manifest embeds it.

It takes a few seconds.  Every path written into a manifest is relative,
so OUT may live anywhere.  numpy's and scipy's BLAS run on one thread, as
in the CLI, so the bytes do not depend on the machine's core count.

    python3 scripts/snapshot_outputs.py --compare OUT_A OUT_B

compares two such trees.  For every file that differs it prints the line
count on each side, whether the text outside the numbers matches, and the
largest relative change of a number, |a - b| / max(|a|, |b|), over lines
whose text matches.  A file in run-log format is split into directions at
its h = 0 rows, each of which starts one (an offline fold curve holds the
backward direction, then the forward one from its h = 0 start); where the
directions' row counts differ it prints them on each side, since rows that
moved between directions pair wrongly by position.  It exits 1 when a file
is missing on one side, or a line count, a direction's row count or the
non-numeric text differs, so a change that should move numbers by
round-off only can be checked with one command.  Its last line counts the
files that differ and names the largest relative change over all of them
and the file it is in.
"""

from __future__ import annotations

import argparse
import copy
import json
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
from foldtrack.blas import pin_blas_threads  # noqa: E402
from foldtrack.cli import main as cli_main  # noqa: E402
from foldtrack.config import (config_from_dict, ensemble_config_from_dict,  # noqa: E402
                              load_config, load_raw, nlfr_config_from_dict,
                              offline_config_from_dict, sweep_config_from_dict)
from foldtrack.continuation import ContinuationConfig  # noqa: E402
from foldtrack.driver import run_trace, write_trace_artifacts  # noqa: E402
from foldtrack.geometry import DomainBox  # noqa: E402
from foldtrack.gpr import Dataset, Hyperparameters, fit_hyperparameters  # noqa: E402
from foldtrack.postprocess import dropout_ensemble  # noqa: E402
from foldtrack.rig import RigOracle, RigParams  # noqa: E402

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
    box_edge = {"oracle": {"name": "duffing", "params": {"noise_sigma": 0.0},
                           "domain_box": {"omega_min": 0.95, "omega_max": 1.45,
                                          "A_min": 0.05, "A_max": 5.0}},
                "sweep": {"omega_start": 1.05, "omega_stop": 1.15, "omega_step": 0.05,
                          "A_start": 0.2, "A_stop": 5.0, "A_step": 0.2}}
    Path("box_edge.yaml").write_text(yaml.safe_dump(box_edge), encoding="utf-8")
    cli(out, "sweep", "--config", "box_edge.yaml", "--out", "cli_sweep_box_edge")
    offline = yaml.safe_load((CONFIGS / "rig_offline.yaml").read_text(encoding="utf-8"))
    offline["inputs"]["dataset"] = "cli_sweep/dataset.csv"
    Path("offline.yaml").write_text(yaml.safe_dump(offline), encoding="utf-8")
    cli(out, "offline", "--config", "offline.yaml", "--out", "cli_offline")
    del offline["x0"], offline["hyperparameters"]
    Path("offline_fit.yaml").write_text(yaml.safe_dump(offline), encoding="utf-8")
    cli(out, "offline", "--config", "offline_fit.yaml", "--out", "cli_offline_fit")
    nlfr = {"inputs": {"datasets": ["cli_trace/dataset.csv"],
                       "run_logs": ["cli_trace/run_log.csv"]},
            "gamma_level": 0.7, "band": 0.05}
    Path("nlfr.yaml").write_text(yaml.safe_dump(nlfr), encoding="utf-8")
    cli(out, "nlfr", "--config", "nlfr.yaml", "--out", "cli_nlfr")
    nlfr = {"inputs": {"datasets": ["cli_sweep/dataset.csv"],
                       "run_logs": ["cli_offline/fold_curve.csv"]},
            "gamma_level": 1.6, "band": 0.05}
    Path("nlfr_offline.yaml").write_text(yaml.safe_dump(nlfr), encoding="utf-8")
    cli(out, "nlfr", "--config", "nlfr_offline.yaml", "--out", "cli_nlfr_offline")
    ensemble_cfg = {"inputs": {"dataset": "ensemble_sweep0.csv"}, "n_runs": 4, "threads": 2}
    Path("ensemble.yaml").write_text(yaml.safe_dump(ensemble_cfg), encoding="utf-8")
    cli(out, "ensemble", "--config", "ensemble.yaml", "--out", "cli_ensemble")
    for command in ("offline", "nlfr", "ensemble"):
        cli(out, command, "--config", f"cli_{command}/manifest.json",
            "--out", f"replays/{command}_replay")


def rejected(out: Path):
    """Run each refused input; its config is written into OUT next to its exit file."""
    duffing = yaml.safe_load((CONFIGS / "duffing.yaml").read_text(encoding="utf-8"))
    csvio.write_dataset_csv(out / "two_rows.csv", Dataset(np.array([[1.0, 1.0], [1.1, 1.5]]),
                                                          np.array([0.3, 0.4])))
    outside = copy.deepcopy(duffing)
    outside["init"]["x0"] = {"omega": 1.44, "A": 4.9}
    linear = copy.deepcopy(duffing)
    linear["oracle"]["params"]["alpha_3"] = 0.0
    tiny = copy.deepcopy(duffing)
    tiny["oracle"]["domain_box"] = {"omega_min": 1.10, "omega_max": 1.12,
                                    "A_min": 1.40, "A_max": 1.50}
    tiny["init"]["half_widths"] = {"omega": 0.01, "A": 0.05}
    tiny["seed"] = 1
    cases = [
        ("trace", "rejected_unknown_key", {**duffing, "surprise": 1}),
        ("trace", "rejected_grid_outside_box", outside),
        ("trace", "rejected_no_fold", linear),
        ("trace", "rejected_tiny_box", tiny),
        ("nlfr", "rejected_band", {"inputs": {"datasets": ["two_rows.csv"]},
                                   "gamma_level": 0.3, "band": 0.7}),
        ("offline", "rejected_missing_dataset", {"inputs": {"dataset": "missing.csv"}}),
        ("offline", "rejected_two_rows", {"inputs": {"dataset": "two_rows.csv"}}),
        ("ensemble", "rejected_dropout", {"inputs": {"dataset": "ensemble_sweep0.csv"},
                                          "n_runs": 2, "dropout_fraction": 1.5}),
        ("trace", "rejected_oracle_key", {**duffing, "oracle": {**duffing["oracle"], "seed": 3}}),
        ("sweep", "rejected_sweep_unknown_key", {**load_raw(CONFIGS / "rig_sweep.yaml"),
                                                "surprise": 1}),
        ("nlfr", "rejected_nlfr_unknown_key", {"inputs": {"datasets": ["two_rows.csv"]},
                                               "gamma_level": 0.3, "surprise": 1}),
        ("ensemble", "rejected_ensemble_unknown_key",
         {"inputs": {"dataset": "ensemble_sweep0.csv"}, "surprise": 1}),
        ("offline", "rejected_offline_unknown_key", {"inputs": {"dataset": "two_rows.csv"},
                                                     "surprise": 1}),
    ]
    for command, name, cfg in cases:
        Path(f"{name}.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
        cli(out, command, "--config", f"{name}.yaml", "--out", name)
    cli(out, "trace", "--config", str(CONFIGS / "duffing.yaml"), "--seed", "abc",
        "--out", "rejected_seed_abc")


def resolved(out: Path):
    """Write the resolved config of each parser's inputs, as a manifest embeds it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parsers = {"duffing.yaml": config_from_dict, "duffing_noisy.yaml": config_from_dict,
               "isola.yaml": config_from_dict, "rig_trace.yaml": config_from_dict,
               "rig_sweep.yaml": sweep_config_from_dict,
               "rig_offline.yaml": offline_config_from_dict}
    configs = {name: parse(load_raw(CONFIGS / name)) for name, parse in parsers.items()}
    configs["README ensemble"] = ensemble_config_from_dict(
        yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0]))
    configs["nlfr"] = nlfr_config_from_dict({"inputs": {"datasets": ["d.csv"]},
                                             "gamma_level": 0.7})
    with open(out / "configs_resolved.json", "w", encoding="utf-8") as fh:
        json.dump({name: cfg.to_dict() for name, cfg in configs.items()}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")


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


def rig_replay(out: Path):
    rig = RigOracle(RigParams(noise_sigma=0.0), DomainBox(9.0, 16.0, 0.02, 25.0), seed=2)
    point, _, coeffs = rig.picard_noninvasive(12.8, 2.0)
    _, Au, Bu = coeffs["u"]
    A_replay = rig.replay_open_loop(12.8, Au[0], Bu[0])
    (out / "rig_replay.txt").write_text(
        f"A {point.A!r}\nF {point.F!r}\nA_replay {A_replay!r}\nt {rig._t!r}\n", encoding="utf-8")


NUMBER = re.compile(r"[-+]?(?:\b(?:nan|inf)\b|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _rel_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


RUN_LOG_HEADER = ",".join(csvio.RUN_LOG_HEADER)
H_COLUMN = csvio.RUN_LOG_HEADER.index("h")


def directions(lines: list[str]) -> list[int]:
    """Row counts of a run-log file's directions; each h = 0 row starts one."""
    counts = []
    for line in lines[1:]:
        if not counts or float(line.split(",")[H_COLUMN]) == 0.0:
            counts.append(0)
        counts[-1] += 1
    return counts


def compare_file(a: Path, b: Path) -> tuple[bool, float, str]:
    """(text or directions differ, largest relative change, report line) for two
    versions of one file."""
    lines_a = a.read_text(encoding="utf-8", errors="replace").splitlines()
    lines_b = b.read_text(encoding="utf-8", errors="replace").splitlines()
    text_same = len(lines_a) == len(lines_b)
    rows = ""
    if lines_a[:1] == lines_b[:1] == [RUN_LOG_HEADER]:
        dirs_a, dirs_b = directions(lines_a), directions(lines_b)
        if dirs_a != dirs_b:
            rows = (f", rows per direction {'+'.join(map(str, dirs_a))} / "
                    f"{'+'.join(map(str, dirs_b))}")
    worst = 0.0
    for la, lb in zip(lines_a, lines_b):
        if NUMBER.sub("#", la) != NUMBER.sub("#", lb):
            text_same = False
            continue
        for x, y in zip(NUMBER.findall(la), NUMBER.findall(lb)):
            worst = max(worst, _rel_change(float(x), float(y)))
    text = "same" if text_same else "DIFFERS"
    report = (f"lines {len(lines_a)} / {len(lines_b)}, text {text}{rows}, "
              f"max rel change {worst:.2e}")
    return not text_same or bool(rows), worst, report


def compare(a: Path, b: Path) -> int:
    """Print every file of two snapshot trees that differs, then a summary line with
    the largest relative change and its file; 1 if any text or direction differs."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    broken = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        broken += 1
    moved = 0
    worst, worst_file = 0.0, None
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        differs, change, report = compare_file(a / rel, b / rel)
        print(f"{rel}: {report}")
        moved += 1
        broken += differs
        if worst_file is None or change > worst:
            worst, worst_file = change, rel
    largest = "" if worst_file is None else f", max rel change {worst:.2e} in {worst_file}"
    print(f"{moved} files differ, {broken} in line count, text or presence{largest}")
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
    pin_blas_threads()
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    traces(out)
    rig_replay(out)
    ensemble(out)
    commands(out)
    rejected(out)
    resolved(out)
