#!/usr/bin/env python3
"""Benchmark of online fold tracking; run from the root of a foldtrack checkout.

    python3 perfbench/run.py --workload duffing-capped --seed 0 --seconds 20 --trace 0

Each run starts one measuring process that sets up like the CLI and runs
jobs (traces, or dropout ensembles) back to back with consecutive seeds
from --seed, then fresh set-up-only processes, so that set-up time is a
median.  --trace 0 prints the end-to-end metrics; --trace 1 runs each job
untraced and then traced, and prints the per-layer metrics with the tracing
overhead.  The last line of stdout is one JSON object with keys correct,
attempted, failed and metrics.  README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ENSEMBLE, WORKLOADS  # noqa: E402

SETUPS = 5                 # fresh processes whose set-up time gives the median
SETUP_SPEED_POWER = 0.6    # how set-up time follows the probe's speed (_setup_speed)
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 20.0
# math libraries may not start threads of their own; the ensemble runs its own 2
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


# every workload reports each of these (BENCHMARK.json)
END_TO_END = ("setup_s", "fold_points_per_s", "think_ms.p50", "think_ms.p90",
              "measurements_per_fold_point", "peak_rss_mb")


class BenchError(Exception):
    pass


def _spawn(args: list[str], timeout: float) -> dict:
    env = {**os.environ, **PINNED_ENV}
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                             "--spawned", repr(spawned)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _prepare(root: Path, name: str, seed: int) -> Path:
    spec = WORKLOADS[name]
    if not (root / "src" / "foldtrack" / "__init__.py").is_file():
        raise BenchError(f"no foldtrack sources under {root / 'src'}; run from a checkout root")
    if spec.config is not None and not (root / spec.config).is_file():
        raise BenchError(f"missing {spec.config}")
    run_dir = HERE / "out" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if spec.kind == "ensemble":
        import dataset
        dataset.write_csv(run_dir / "dataset.csv", dataset.sweep(seed))
        cfg = {"inputs": {"dataset": "dataset.csv"}, "seed": seed, **ENSEMBLE}
        (run_dir / "ensemble.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return run_dir


def _setup_speed(setups: list[dict]) -> float:
    """Reference units per wall second of set-up, from the probe bursts after it.

    Medians over the processes: one process's burst says little about the
    speed its imports ran at, but a slow spell of the machine that lasts
    minutes slows every process of the run.  Set-up slows less than the
    probe, as part of it is file reads and dynamic loading: over 17 runs whose
    median probe speed spanned 1.9x, the run's median set-up time went as the
    probe's speed to the power 0.63 (README.md).
    """
    from timing import PROBE_REF_S
    return (PROBE_REF_S / statistics.median(s["probe_s"] for s in setups)) ** SETUP_SPEED_POWER


def _setup_metrics(setups: list[dict]) -> dict:
    keys = ("import_ms", "config_ms", "oracle_ms", "input_ms")
    speed = _setup_speed(setups)
    # a part the workload does not have (an oracle, an input file) reads 0
    return {f"setup.{k}": statistics.median(s.get(k, 0.0) for s in setups) * speed
            for k in keys}


def _end_to_end(name: str, measured: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    from timing import percentile
    jobs = measured["jobs"]
    ref = sum(j["ref_s"] for j in jobs)
    wall = sum(j["wall_s"] for j in jobs)
    folds = sum(j["n_folds"] for j in jobs)
    setup_wall = [s["wall_s"] for s in setups]
    m = {"setup_s": (statistics.median(setup_wall) * _setup_speed(setups), "s")}
    notes = [f"set-up: median of {len(setups)} fresh processes; wall median "
             f"{statistics.median(setup_wall):.3f} s, "
             f"{min(setup_wall):.3f}..{max(setup_wall):.3f} s",
             f"{folds} fold points in {ref:.2f} s of job time in reference units "
             f"({wall:.2f} s wall) over {len(jobs)} jobs"]
    if folds:
        m["fold_points_per_s"] = (folds / ref, "1/s")
    n_meas = sum(j["n_meas"] for j in jobs)
    if folds:
        m["measurements_per_fold_point"] = (n_meas / folds, "count")
    if WORKLOADS[name].kind == "ensemble":
        # no oracle: the pause is the wait for one dropout_ensemble call's posterior
        lat = [1e3 * j["ref_s"] for j in jobs]
        m["think_ms.p50"] = (percentile(lat, 50), "ms")
        m["think_ms.p90"] = (percentile(lat, 90), "ms")
        notes.append(f"think time: {len(lat)} dropout_ensemble calls, "
                     f"{min(lat):.0f}..{max(lat):.0f} ms; {n_meas} measurements "
                     "traced from by completed runs")
    else:
        gaps = [g for j in jobs for g in j["gaps_ms"]]
        raw = [g for j in jobs for g in j["raw_gaps_ms"]]
        p50, p90 = percentile(gaps, 50), percentile(gaps, 90)
        m["think_ms.p50"] = (p50, "ms")
        m["think_ms.p90"] = (p90, "ms")
        notes.append(f"think time: {len(gaps)} gaps after the seed grid, "
                     f"{sum(g > p90 for g in gaps)} above p90; wall p50 "
                     f"{percentile(raw, 50):.2f} ms, p90 {percentile(raw, 90):.2f} ms")
        notes.append("trace stops: " + ", ".join(
            f"seed {j['seed']} {j['reason'].split(':')[0]} n={j['n_final']}" for j in jobs))
        if WORKLOADS[name].check == "duffing":
            beyond = sum(j.get("beyond_readme", 0) for j in jobs)
            notes.append(f"{beyond} of {folds} fold points miss the README's 2% force / "
                         "0.5% frequency accuracy (not a failure)")
    m["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    return m, notes


def _per_layer(measured: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    import layers
    units = {k: u for k, u, _ in layers.catalogue()}
    vals = {**measured["layers"], **_setup_metrics(setups)}
    notes = [f"tracing overhead {vals['trace.overhead_pct']:.1f}% "
             f"({vals['trace.overhead_ms']:.1f} ms per job) over "
             f"{measured['plain_ref_s']:.2f} s untraced, in reference units"]
    return {k: (v, units[k]) for k, v in vals.items()}, notes


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    run_dir = _prepare(root, name, seed)
    common = ["--workload", name, "--seed", str(seed), "--run-dir", str(run_dir)]
    measured = _spawn([*common, "--mode", "trace" if trace else "measure",
                       "--seconds", repr(seconds)], WORKER_TIMEOUT_S)
    setups = [measured["setup"]] + [
        _spawn([*common, "--mode", "setup"], SETUP_TIMEOUT_S)["setup"] for _ in range(SETUPS - 1)]
    if trace:
        metrics, notes = _per_layer(measured, setups)
    else:
        metrics, notes = _end_to_end(name, measured, setups)
        missing = [k for k in END_TO_END if k not in metrics]
        if missing:
            raise BenchError(f"no {', '.join(missing)} from this run")
    jobs = measured["jobs"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    # an operation that raised is only failed; one whose output fails a check is also incorrect
    faults = [e for j in jobs for e in j["faults"]]
    print(f"workload {name}, seeds {seed}..{max(j['seed'] for j in jobs)}"
          f"{', each untraced, then traced' if trace else ''}")
    for note in notes:
        print(f"  {note}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:42s} {v:14.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}")
    for e in [e for j in jobs for e in j["errors"]][:20]:
        print(f"  error: {e}")
    for e in faults[:20]:
        print(f"  fault: {e}")
    return {"correct": not faults, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    try:
        result = run(a.workload, a.seed, a.seconds, bool(a.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
