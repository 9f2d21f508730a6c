"""One fresh benchmark process: set up like the CLI, then run jobs back to back.

Started by run.py, which passes the `time.perf_counter()` reading taken just
before the spawn, so set-up time includes interpreter start.  Prints one
JSON object on stdout.  Math-library threads are pinned to one by run.py.

    --mode setup    set up only
    --mode measure  set up, then run jobs for --seconds (end-to-end figures)
    --mode trace    set up, then run each job untraced and again with spans
                    around every layer, for --seconds
"""

import time

T_SCRIPT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

# Online runs go on until the pooled think gaps hold at least this many
# samples above their 90th percentile.
MIN_BEYOND_P90 = 10
# A run holds at least this many jobs, so that no one seed's trace weighs
# more than a sixth in a pooled figure (binding on rig-online, ~8 s a trace).
MIN_JOBS = 6
# An ensemble run holds at least this many dropout_ensemble calls, the
# samples of its think-time p90 (about 1.2 s each).
MIN_ENSEMBLE_JOBS = 15
# Never start another job after this much job time, whatever the samples say.
MAX_JOB_SECONDS = 90.0
# probes timed after set-up, and pairs of probes around every ensemble job
SETUP_PROBES = 20
ENSEMBLE_PAIRS = 25


def _setup_online(spec, root):
    from foldtrack.config import config_from_dict, load_raw, make_oracle
    t0 = time.perf_counter()
    raw = load_raw(root / spec.config)
    if spec.n_max is not None:
        raw.setdefault("acquisition", {})["n_max"] = spec.n_max
    cfg = config_from_dict(raw)
    t1 = time.perf_counter()
    oracle = make_oracle(cfg.oracle, run_seed=cfg.seed, base_dir=(root / spec.config).parent)
    t2 = time.perf_counter()
    return {"cfg": cfg, "oracle": oracle}, {"config_ms": 1e3 * (t1 - t0),
                                            "oracle_ms": 1e3 * (t2 - t1)}


def _setup_ensemble(run_dir):
    from foldtrack.config import ensemble_config_from_dict, load_raw
    t0 = time.perf_counter()
    cfg = ensemble_config_from_dict(load_raw(run_dir / "ensemble.json"))
    t1 = time.perf_counter()
    state = {"cfg": cfg, "run_dir": run_dir}
    _load_input(state, run_dir / cfg.dataset, cfg.seed)
    t2 = time.perf_counter()
    return state, {"config_ms": 1e3 * (t1 - t0), "input_ms": 1e3 * (t2 - t1)}


def _load_input(state, path, data_seed):
    """Read a sweep CSV as `foldtrack ensemble` does; a full-data fit gives hyper_init."""
    from foldtrack import csvio, gpr
    ds = csvio.read_dataset_csv(path)
    state["hyper"] = gpr.fit_hyperparameters(ds, _duffing_hyper_guess(ds), n_starts=1,
                                             seed=data_seed)
    state["dataset"], state["data_seed"] = ds, data_seed


def _next_input(state, seed):
    """Job `seed` runs on the sweep generated from that seed, read and fitted before it.

    Set-up has read the first one.  A dataset per job keeps one sweep's noise
    from setting a whole run's figures.
    """
    import dataset
    if state["data_seed"] == seed:
        return
    path = state["run_dir"] / "jobs" / f"dataset_{seed}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    dataset.write_csv(path, dataset.sweep(seed))
    _load_input(state, path, seed)


def _duffing_hyper_guess(ds):
    """Warm-start guess for the full-data fit: the shipped Duffing length scales."""
    import numpy as np
    from foldtrack.gpr import Hyperparameters
    v = float(np.var(ds.F))
    return Hyperparameters(sigma_n2=1e-4 * v, sigma_f2=v, l_omega=0.05, l_A=0.45)


def _online_job(state, seed, out_dir, probe):
    from foldtrack import driver
    from foldtrack.config import make_oracle
    from foldtrack.errors import FoldtrackError
    from timing import TimedOracle, job_seconds, think_gaps_ms
    cfg = replace(state["cfg"], seed=seed)
    oracle = TimedOracle(make_oracle(cfg.oracle, run_seed=seed), probe)
    t0 = time.perf_counter()
    try:
        result = driver.run_trace(cfg, oracle)
        driver.write_trace_artifacts(out_dir / f"trace_{seed}", cfg, result)
        error = None
    except FoldtrackError as e:
        result, error = None, f"{type(e).__name__}: {e}"
    t1 = time.perf_counter()
    wall, ref = job_seconds(oracle.calls, t0, t1)
    n_grid = cfg.init.grid_shape[0] * cfg.init.grid_shape[1]
    folds = [(p.omega, p.A, p.gamma_model) for p in result.fold_points] if result else []
    return {"seed": seed, "wall_s": wall, "ref_s": ref, "attempted": 1, "folds": folds,
            "n_folds": len(folds), "n_meas": len(oracle.calls), "calls": oracle.calls,
            "gaps_ms": think_gaps_ms(oracle.calls, n_grid),
            "raw_gaps_ms": think_gaps_ms(oracle.calls, n_grid, scaled=False),
            "reason": result.reason if result else error,
            "n_final": result.model.n if result else 0,
            "errors": [error] if error else []}


def _ensemble_job(state, seed):
    from foldtrack import postprocess
    from foldtrack.continuation import ContinuationConfig
    from foldtrack.geometry import DomainBox

    import dataset
    cfg = state["cfg"]
    ccfg = ContinuationConfig(h=0.1, h_max=0.25, max_steps=cfg.max_steps,
                              domain_box=DomainBox(*dataset.CONTINUATION_BOX))
    cpu0, t0 = time.process_time(), time.perf_counter()
    res = postprocess.dropout_ensemble(state["dataset"], cfg.n_runs, cfg.dropout_fraction,
                                       seed=seed, hyper_init=state["hyper"], cfg=ccfg,
                                       x0=dataset.START, fit_n_starts=cfg.fit_n_starts,
                                       threads=cfg.threads)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    curves = [r.curve.as_array()[:, :2].tolist() if r.completed else None for r in res.runs]
    # the measurements each completed run traces from: the dataset less its dropped points
    kept = state["dataset"].n - math.ceil(cfg.dropout_fraction * state["dataset"].n)
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "attempted": len(res.runs),
            "curves": curves, "n_folds": sum(len(c) for c in curves if c is not None),
            "n_meas": kept * sum(c is not None for c in curves),
            "errors": [r.error for r in res.runs if not r.completed]}


def _enough(jobs, kind, seconds, elapsed, end_to_end):
    if elapsed >= MAX_JOB_SECONDS:
        return True
    if elapsed < seconds:
        return False
    if not end_to_end:
        return True
    if kind == "ensemble":
        return len(jobs) >= MIN_ENSEMBLE_JOBS
    if len(jobs) < MIN_JOBS:
        return False
    from timing import percentile
    gaps = [g for j in jobs for g in j["gaps_ms"]]
    return len(gaps) > 0 and sum(g > percentile(gaps, 90) for g in gaps) >= MIN_BEYOND_P90


def _run_jobs(spec, state, first_seed, out_dir, probe, n_jobs=None, seconds=None,
              end_to_end=True):
    """Jobs with consecutive seeds from first_seed; a fixed count, or until `seconds`.

    An end-to-end run also holds at least MIN_ENSEMBLE_JOBS ensemble jobs,
    or at least MIN_JOBS online jobs with think gaps whose p90 has
    MIN_BEYOND_P90 samples beyond it.  An ensemble
    job runs on the sweep of its own seed and has no oracle to probe at;
    two-wide probe bursts before and after each one set its speed.
    """
    from timing import PAIR_REF_S
    jobs = []
    t_begin = time.perf_counter()
    while True:
        seed = first_seed + len(jobs)
        if spec.kind == "online":
            job = _online_job(state, seed, out_dir, probe)
        else:
            _next_input(state, seed)
            before = probe.pair_burst(ENSEMBLE_PAIRS)
            job = _ensemble_job(state, seed)
            after = probe.pair_burst(ENSEMBLE_PAIRS)
            job["ref_s"] = job["wall_s"] * PAIR_REF_S / (0.5 * (before + after))
        jobs.append(job)
        if n_jobs is not None:
            if len(jobs) >= n_jobs:
                return jobs
        elif _enough(jobs, spec.kind, seconds, time.perf_counter() - t_begin, end_to_end):
            return jobs


def _check(spec, state, jobs):
    """Faults per job, from computations made apart from foldtrack's tracking."""
    import checks
    import numpy as np
    if spec.kind == "ensemble":
        import dataset
        from locus import Duffing
        curve = Duffing().locus_curve(omega_max=dataset.BOX[1] + 0.05)
        for job in jobs:
            job["failed"] = len(job["errors"])
            job["faults"] = []
            for c in job["curves"]:
                faults = checks.check_ensemble_curve(np.array(c), curve) if c is not None else []
                job["failed"] += bool(faults)
                job["faults"].extend(faults)
        return
    reference = None
    if spec.check == "rig":
        from foldtrack.rig import RigOracle, RigParams
        cfg = state["cfg"]
        params = RigParams(**{**cfg.oracle.params, "noise_sigma": 0.0})
        reference = checks.rig_reference(lambda: RigOracle(params, cfg.oracle.domain_box, seed=0))
    box = state["cfg"].oracle.domain_box
    for job in jobs:
        job["faults"] = []
        if job["errors"]:
            job["failed"] = 1
            continue
        measured = [(c.omega, c.A) for c in job["calls"]]
        faults = checks.check_in_box(measured, (box.omega_min, box.omega_max,
                                                box.A_min, box.A_max))
        if spec.check == "duffing":
            faults += checks.check_duffing_folds(job["folds"])
            job["beyond_readme"] = checks.count_beyond_readme(job["folds"])
        else:
            faults += checks.check_rig_folds(job["folds"], reference)
        job["faults"] = faults
        job["failed"] = int(bool(faults))


def _traced(spec, state, args, jobs_dir, probe):
    """Each seed untraced, then traced, for --seconds; per-layer figures of the traced jobs.

    Alternating the two keeps a drift in the machine's speed out of the
    tracing overhead.
    """
    import layers
    from spans import Tracer
    tracer = Tracer()
    oracle_cls = type(state["oracle"]) if spec.kind == "online" else None
    plain, jobs = [], []
    t_begin = time.perf_counter()
    while not plain or time.perf_counter() - t_begin < min(args.seconds, MAX_JOB_SECONDS):
        seed = args.seed + len(plain)
        plain += _run_jobs(spec, state, seed, jobs_dir, probe, n_jobs=1)
        layers.install(tracer, oracle_cls)
        try:
            jobs += _run_jobs(spec, state, seed, jobs_dir, probe, n_jobs=1)
        finally:
            tracer.unpatch()
    n = len(jobs)
    ref_plain = sum(j["ref_s"] for j in plain)
    ref_traced = sum(j["ref_s"] for j in jobs)
    # spans are in wall time; one factor for the traced jobs puts them in reference units
    scale = ref_traced / sum(j["wall_s"] for j in jobs)
    extra = {"trace.overhead_ms": 1e3 * (ref_traced - ref_plain) / n,
             "trace.overhead_pct": 100.0 * (ref_traced - ref_plain) / ref_plain}
    if spec.kind == "ensemble":
        extra["postprocess.dropout_ensemble.cpu_per_wall"] = \
            sum(j["cpu_s"] for j in jobs) / sum(j["wall_s"] for j in jobs)
        extra["postprocess.runs_completed"] = \
            sum(sum(c is not None for c in j["curves"]) for j in jobs) / n
    out = {"layers": layers.reduce(tracer, n, extra, scale),
           "plain_ref_s": ref_plain}
    return plain + jobs, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    spec = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)

    # -- set-up, as `foldtrack trace` / `foldtrack ensemble` pay it ------------
    t_imp0 = time.perf_counter()
    import foldtrack.cli  # noqa: F401  (the CLI's own imports: click, config, postprocess, ...)
    import foldtrack.driver  # noqa: F401  (imported by `trace` on first use)
    import scipy.optimize  # noqa: F401  (imported by the first fit)
    t_imp1 = time.perf_counter()
    if spec.kind == "online":
        state, parts = _setup_online(spec, root)
    else:
        state, parts = _setup_ensemble(run_dir)
    t_ready = time.perf_counter()

    # set-up is timed in wall seconds; a probe burst right after it lets
    # run.py scale the run's median set-up to reference units
    from timing import SpeedProbe
    probe = SpeedProbe()
    setup = {"wall_s": t_ready - args.spawned,
             "interp_ms": 1e3 * (T_SCRIPT - args.spawned),
             "import_ms": 1e3 * (t_imp1 - t_imp0), **parts,
             "probe_s": statistics.fmean(probe.burst(SETUP_PROBES))}
    out = {"setup": setup}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    jobs_dir = run_dir / "jobs"
    if args.mode == "measure":
        jobs = _run_jobs(spec, state, args.seed, jobs_dir, probe, seconds=args.seconds)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        jobs, traced = _traced(spec, state, args, jobs_dir, probe)
        out.update(traced)
    _check(spec, state, jobs)
    for j in jobs:
        for bulky in ("calls", "curves", "folds"):
            j.pop(bulky, None)
    out["jobs"] = jobs
    print(json.dumps(out))


if __name__ == "__main__":
    main()
