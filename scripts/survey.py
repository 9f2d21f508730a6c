#!/usr/bin/env python3
"""Trace one config over a range of seeds and print one JSON row per seed.

    python3 scripts/survey.py --config configs/rig_trace.yaml --seeds 0:20
    python3 scripts/survey.py --config configs/duffing_noisy.yaml --seeds 0:20 \\
        --set acquisition.n_max=40

`--seeds a:b` runs seeds a to b-1.  Each `--set key=value` sets a dotted
config key before the config is read; the value is parsed as YAML, so
`--set continuation.h_max=0.3` sets a number.  The package is imported from
this checkout's `src`.

A row holds the seed, the stop reason, the fold points traced (the first
fold included), the oracle's `measure` calls, the simulated rig seconds
(`RigOracle._t`, null for the analytic back-ends) and the worst error of the
traced fold points against the closed-form locus:

* `duffing`: the largest relative force and frequency errors of the model's
  fold force against the lower fold of `perfbench/locus.py`;
* `isola`: the largest distance in A to the nearest exact fold amplitude of
  `IsolaParams.fold_amplitudes` at the fold point's frequency;
* `rig` and `replay`: null, as they have no closed form.

A seed whose trace fails before its first fold point (the CLI's exit 2 or
3) gets the reason `init_failed: <error>` and 0 fold points; the survey
goes on with the next seed.

The last line is a summary over the seeds: stop-reason counts, totals, and
oracle calls and rig seconds per fold point.  Nothing is timed, so two
checkouts give the same output for the same experiment.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import yaml  # noqa: E402
from locus import Duffing, lower_fold_errors  # noqa: E402

from foldtrack.config import config_from_dict, load_raw, make_oracle  # noqa: E402
from foldtrack.driver import run_trace  # noqa: E402
from foldtrack.errors import ContinuationError, OracleError  # noqa: E402


def locus_errors(name: str, params, folds) -> dict | None:
    """Worst error of the fold points against the back-end's closed-form locus."""
    if name == "duffing":
        model = Duffing(params.omega_n, params.zeta, params.alpha_3)
        errs = [lower_fold_errors(model, f.omega, f.gamma_model) for f in folds]
        return {"force_rel": max(e for e, _ in errs), "omega_rel": max(e for _, e in errs)}
    if name == "isola":
        return {"A_abs": max(min((abs(f.A - a) for a in params.fold_amplitudes(f.omega)),
                                 default=math.inf) for f in folds)}
    return None


def survey_row(cfg, seed: int) -> dict:
    """Trace `cfg` at `seed` and return its survey row."""
    cfg = replace(cfg, seed=seed)
    oracle = make_oracle(cfg.oracle, run_seed=seed)
    calls = 0
    measure = oracle.measure

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return measure(*args, **kwargs)

    oracle.measure = counted
    try:
        result = run_trace(cfg, oracle=oracle)
    except (OracleError, ContinuationError) as e:  # before the first fold: nothing traced
        reason, folds = f"init_failed: {e}", []
    else:
        reason, folds = result.reason, result.fold_points
    return {"seed": seed, "reason": reason, "fold_points": len(folds),
            "oracle_calls": calls, "rig_seconds": getattr(oracle, "_t", None),
            "locus_error": locus_errors(cfg.oracle.name, oracle.params, folds) if folds else None}


def summary(rows: list[dict]) -> dict:
    """Totals over the rows; per-fold-point figures divide totals by total fold points."""
    folds = sum(r["fold_points"] for r in rows)
    calls = sum(r["oracle_calls"] for r in rows)
    out = {"seeds": len(rows),
           "reasons": dict(sorted(Counter(r["reason"].split(":")[0] for r in rows).items())),
           "fold_points": folds, "oracle_calls": calls,
           "oracle_calls_per_fold_point": calls / folds if folds else None}
    if rows and rows[0]["rig_seconds"] is not None:
        seconds = sum(r["rig_seconds"] for r in rows)
        out["rig_seconds"] = seconds
        out["rig_seconds_per_fold_point"] = seconds / folds if folds else None
    errors = [r["locus_error"] for r in rows if r["locus_error"] is not None]
    if errors:
        out["worst_locus_error"] = {k: max(e[k] for e in errors) for k in errors[0]}
    return out


def set_key(raw: dict, assignment: str):
    """Apply one `dotted.key=value` assignment to the raw config mapping."""
    path, sep, value = assignment.partition("=")
    if not sep or not path:
        raise SystemExit(f"--set takes key=value, got {assignment!r}")
    *sections, key = path.split(".")
    for s in sections:
        raw = raw.setdefault(s, {})
    raw[key] = yaml.safe_load(value)


def parse_seeds(text: str) -> range:
    a, sep, b = text.partition(":")
    try:
        seeds = range(int(a), int(b))
    except ValueError:
        seeds = None
    if not sep or not seeds:
        raise SystemExit(f"--seeds takes a:b with a < b, got {text!r}")
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="a:b runs seeds a..b-1")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="set a dotted config key; repeatable")
    args = ap.parse_args(argv)
    raw = load_raw(args.config)
    for assignment in args.set:
        set_key(raw, assignment)
    cfg = config_from_dict(raw)
    rows = []
    for seed in args.seeds:
        rows.append(survey_row(cfg, seed))
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({"summary": summary(rows)}))


if __name__ == "__main__":
    main()
