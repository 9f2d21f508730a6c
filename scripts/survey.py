#!/usr/bin/env python3
"""Trace one config over a range of seeds and print one JSON row per seed.

    python3 scripts/survey.py --config configs/rig_trace.yaml --seeds 0:20
    python3 scripts/survey.py --config configs/duffing_noisy.yaml --seeds 0:20 \\
        --set acquisition.n_max=40

`--seeds a:b` runs seeds a to b-1.  Each `--set key=value` sets a dotted
config key before the config is read; the value is parsed as YAML, so
`--set continuation.h_max=0.3` sets a number.  A relative input path of
the config (a replay's `params.path`) starts at the config's directory, as
in the CLI.  The package is imported from this checkout's `src`.

A row holds the seed, the stop reason, the fold points traced (the first
fold included), the oracle's `measure` calls, the samples skipped as
duplicates of a training input, the points pruned to hold `n_max`, the
simulated rig seconds (`RigOracle._t`, null for the analytic back-ends) and
the worst error of the traced fold points against the closed-form locus:

* `duffing`: the largest relative force and frequency errors of the model's
  fold force against the lower fold of `perfbench/locus.py`;
* `isola`: the largest distance in A to the nearest exact fold amplitude of
  `IsolaParams.fold_amplitudes` at the fold point's frequency;
* `rig`: at each reference frequency of `perfbench/checks.py` (12.8, 12.95,
  13.1 and 13.25 Hz) that the traced fold curve reaches, read through
  `checks.interpolate_fold`, |dA| in mm and the relative |dF| of the model's
  fold against `checks.rig_reference`, the force maximum of a noise-free
  S-curve sweep.  The reference is swept once per survey.  The start point
  counts at the start frequency even where the curve, started a hair past
  it, never crosses it;
* `replay`: null, as it has no closed form.

A config that cannot be read (a missing file, a directory, an unknown key
or a refused value, `--set` ones included) ends the survey before any seed
with one `error: <message>` line on stderr and exit code 1, as in the CLI.

A seed whose trace fails before its first fold point (the CLI's exit 2 or
3) gets the reason `init_failed: <error>` and 0 fold points; the survey
goes on with the next seed.

Every measurement is either in the final dataset, a duplicate, or pruned,
so on a run that ends cleanly the oracle calls equal the dataset's rows plus
duplicates plus prunes.  A run that ends with `refresh_failed` or
`oracle_error` keeps the model from before its last refresh, so the sum
need not hold there.

The last line is a summary over the seeds: stop-reason counts, totals,
oracle calls and rig seconds per fold point, and the worst locus error (for
the rig, the median and worst of each error per reference frequency).
Nothing is timed, so two checkouts give the same output for the same
experiment.  Like the CLI, the survey runs numpy's and scipy's BLAS on one
thread, so its rows do not depend on the machine's core count.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import yaml  # noqa: E402
from checks import interpolate_fold, rig_reference  # noqa: E402
from locus import Duffing, lower_fold_errors  # noqa: E402

from foldtrack.blas import pin_blas_threads  # noqa: E402
from foldtrack.config import config_from_dict, load_raw, make_oracle  # noqa: E402
from foldtrack.driver import run_trace  # noqa: E402
from foldtrack.errors import (ConfigError, ContinuationError, DuplicatePoint,  # noqa: E402
                              OracleError)
from foldtrack.gpr import GprModel  # noqa: E402
from foldtrack.rig import RigOracle, RigParams  # noqa: E402


def rig_reference_of(cfg) -> dict:
    """{omega: (A, F)} force maxima of noise-free sweeps through fresh rigs of `cfg`."""
    params = RigParams(**{**cfg.oracle.params, "noise_sigma": 0.0})
    return rig_reference(lambda: RigOracle(params, cfg.oracle.domain_box, seed=0))


def rig_locus_errors(folds, reference: dict, start_omega: float) -> dict:
    """{omega: {A_abs, F_rel}} of the traced folds at each reference frequency reached."""
    out = {}
    for omega, (A_ref, F_ref) in reference.items():
        got = interpolate_fold(folds, omega)
        if got is None and omega == start_omega:
            got = folds[0][1:]
        if got is not None:
            out[str(omega)] = {"A_abs": abs(got[0] - A_ref), "F_rel": abs(got[1] - F_ref) / F_ref}
    return out


def locus_errors(cfg, oracle, folds, reference=None) -> dict | None:
    """Error of the fold points against the back-end's closed form or rig reference.

    The closed forms read `oracle.params`, which only the duffing and isola
    back-ends have; a rig `reference` not given is swept here from `cfg`.
    """
    name = cfg.oracle.name
    if name == "rig":
        if reference is None:
            reference = rig_reference_of(cfg)
        return rig_locus_errors(folds, reference, cfg.init.x0_omega)
    if name == "duffing":
        params = oracle.params
        model = Duffing(params.omega_n, params.zeta, params.alpha_3)
        errs = [lower_fold_errors(model, f.omega, f.gamma_model) for f in folds]
        return {"force_rel": max(e for e, _ in errs), "omega_rel": max(e for _, e in errs)}
    if name == "isola":
        params = oracle.params
        return {"A_abs": max(min((abs(f.A - a) for a in params.fold_amplitudes(f.omega)),
                                 default=math.inf) for f in folds)}
    return None


@contextmanager
def counting_updates(counts: Counter):
    """Count samples refused as duplicates and points removed from any model, while open.

    During a run only `add_measurement` adds points and only `prune` removes them.
    """
    add_point, remove_point = GprModel.add_point, GprModel.remove_point

    def counted_add(self, x, F_value):
        try:
            return add_point(self, x, F_value)
        except DuplicatePoint:
            counts["duplicates"] += 1
            raise

    def counted_remove(self, index):
        counts["prunes"] += 1
        return remove_point(self, index)

    GprModel.add_point, GprModel.remove_point = counted_add, counted_remove
    try:
        yield
    finally:
        GprModel.add_point, GprModel.remove_point = add_point, remove_point


def survey_row(cfg, seed: int, reference: dict | None = None,
               base_dir: Path | None = None) -> dict:
    """Trace `cfg` at `seed` and return its survey row.

    `reference` is the rig's `rig_reference_of(cfg)`; a rig row sweeps it
    itself when it is not given.  `base_dir` is the directory the config's
    relative input paths (a replay's `params.path`) start at, as in the CLI.
    """
    cfg = replace(cfg, seed=seed)
    oracle = make_oracle(cfg.oracle, run_seed=seed, base_dir=base_dir)
    calls = 0
    measure = oracle.measure

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return measure(*args, **kwargs)

    oracle.measure = counted
    updates = Counter()
    try:
        with counting_updates(updates):
            result = run_trace(cfg, oracle=oracle)
    except (OracleError, ContinuationError) as e:  # before the first fold: nothing traced
        reason, folds = f"init_failed: {e}", []
    else:
        reason, folds = result.reason, result.fold_points
    return {"seed": seed, "reason": reason, "fold_points": len(folds),
            "oracle_calls": calls, "duplicates": updates["duplicates"],
            "prunes": updates["prunes"], "rig_seconds": getattr(oracle, "_t", None),
            "locus_error": locus_errors(cfg, oracle, folds, reference) if folds else None}


def summary(rows: list[dict]) -> dict:
    """Totals over the rows; per-fold-point figures divide totals by total fold points."""
    folds = sum(r["fold_points"] for r in rows)
    calls = sum(r["oracle_calls"] for r in rows)
    out = {"seeds": len(rows),
           "reasons": dict(sorted(Counter(r["reason"].split(":")[0] for r in rows).items())),
           "fold_points": folds, "oracle_calls": calls,
           "duplicates": sum(r["duplicates"] for r in rows),
           "prunes": sum(r["prunes"] for r in rows),
           "oracle_calls_per_fold_point": calls / folds if folds else None}
    errors = [r["locus_error"] for r in rows if r["locus_error"] is not None]
    if rows and rows[0]["rig_seconds"] is not None:
        seconds = sum(r["rig_seconds"] for r in rows)
        out["rig_seconds"] = seconds
        out["rig_seconds_per_fold_point"] = seconds / folds if folds else None
        at = {}
        for e in errors:
            for omega, err in e.items():
                at.setdefault(omega, []).append(err)
        out["locus_error"] = {
            omega: {"seeds": len(errs),
                    **{k: {"median": statistics.median(e[k] for e in errs),
                           "worst": max(e[k] for e in errs)} for k in ("A_abs", "F_rel")}}
            for omega, errs in sorted(at.items(), key=lambda kv: float(kv[0]))}
    elif errors:
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
    if not sep or not seeds or seeds.start < 0:
        raise SystemExit(f"--seeds takes a:b with 0 <= a < b, got {text!r}")
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="a:b runs seeds a..b-1")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="set a dotted config key; repeatable")
    args = ap.parse_args(argv)
    pin_blas_threads()
    try:
        raw = load_raw(args.config)
        for assignment in args.set:
            set_key(raw, assignment)
        cfg = config_from_dict(raw)
    except ConfigError as e:
        sys.exit(f"error: {e}")
    reference = rig_reference_of(cfg) if cfg.oracle.name == "rig" else None
    rows = []
    for seed in args.seeds:
        rows.append(survey_row(cfg, seed, reference, base_dir=args.config.parent))
        print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({"summary": summary(rows)}))


if __name__ == "__main__":
    main()
