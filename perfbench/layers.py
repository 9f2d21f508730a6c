"""Which foldtrack functions the traced run wraps, and the per-layer figures.

Every figure is per job: one trace on an online workload, one
`dropout_ensemble` call on ensemble-offline.  README.md lists the end-to-end
metric each one should move.
"""

from __future__ import annotations

import os
import statistics
import sys

from spans import Tracer

# (metric, unit, better) for every per-layer figure.  Every workload reports all
# of them; a layer the workload does not reach reads 0 there (README.md).
_GPR = [
    ("gpr.add_point.calls", "count", "lower"), ("gpr.add_point.ms", "ms", "lower"),
    ("gpr.remove_point.calls", "count", "lower"), ("gpr.remove_point.ms", "ms", "lower"),
]
_GPR_PREDICT = [
    ("gpr.predict_mean_derivs.calls", "count", "lower"),
    ("gpr.predict_mean_derivs.ms", "ms", "lower"),
]
_GPR_VAR = [("gpr.predict_var.calls", "count", "lower"), ("gpr.predict_var.ms", "ms", "lower")]
_GPR_FIT = [
    ("gpr.fit_hyperparameters.calls", "count", "lower"),
    ("gpr.fit_hyperparameters.ms", "ms", "lower"),
    ("gpr.build.calls", "count", "lower"), ("gpr.build.ms", "ms", "lower"),
]
_ACQ = [
    ("acquisition.improve_solution.self_ms", "ms", "lower"),
    ("acquisition.sensitivity_beta.calls", "count", "lower"),
    ("acquisition.sensitivity_beta.ms", "ms", "lower"),
    ("acquisition.generate_candidates.calls", "count", "lower"),
    ("acquisition.beta_evals_per_collection", "count", "lower"),
    ("acquisition.prune.calls", "count", "lower"), ("acquisition.prune.ms", "ms", "lower"),
    ("acquisition.collections", "count", "lower"),
    ("acquisition.duplicate_skips", "count", "lower"),
]
_CONT = [
    ("continuation.correct.calls", "count", "lower"), ("continuation.correct.ms", "ms", "lower"),
    ("continuation.correct.failures", "count", "lower"),
    ("continuation.newton_iters", "count", "lower"),
    ("continuation.tangent_at.calls", "count", "lower"),
    ("continuation.find_first_fold.ms", "ms", "lower"),
    ("continuation.accept_ratio", "ratio", "higher"),
]
_ORACLE = [
    ("oracle.measure.calls", "count", "lower"), ("oracle.measure.ms", "ms", "lower"),
    ("oracle.measure.ms.p50", "ms", "lower"),
]
_RIG = [
    ("rig.picard_noninvasive.per_measure", "count", "lower"),
    ("rig.rig_simulate.per_measure", "count", "lower"),
]
_POST = [
    ("postprocess.dropout_ensemble.ms", "ms", "lower"),
    ("postprocess.dropout_ensemble.cpu_per_wall", "ratio", "higher"),
    ("postprocess.offline_fold_trace.calls", "count", "lower"),
    ("postprocess.offline_fold_trace.self_ms", "ms", "lower"),
    ("postprocess.runs_completed", "count", "higher"),
]
_DRIVER = [
    ("driver.run_trace.ms", "ms", "lower"), ("driver.write_trace_artifacts.ms", "ms", "lower"),
    ("csvio.bytes_written", "B", "lower"),
]
_SETUP = [("setup.import_ms", "ms", "lower"), ("setup.config_ms", "ms", "lower"),
          ("setup.oracle_ms", "ms", "lower"), ("setup.input_ms", "ms", "lower")]
_OVERHEAD = [("trace.overhead_ms", "ms", "lower"), ("trace.overhead_pct", "%", "lower")]

CATALOGUE = _GPR + _GPR_PREDICT + _GPR_VAR + _GPR_FIT + _ACQ + _CONT + _ORACLE + _RIG + _POST \
    + _DRIVER + _SETUP + _OVERHEAD


def catalogue():
    """Every per-layer metric once, in a stable order."""
    return list(CATALOGUE)


def install(tracer: Tracer, oracle_cls=None):
    """Wrap the public functions of each foldtrack module, in every module that calls them."""
    from foldtrack import acquisition, continuation, csvio, driver, gpr, postprocess
    from foldtrack.errors import CollectionCap, DuplicatePoint

    def dup_skip(args, kwargs, result, exc):
        parent = tracer.current()
        if isinstance(exc, DuplicatePoint) and parent is not None \
                and parent.name == "acquisition.improve_solution":
            tracer.count("duplicate_skips")

    def collections(args, kwargs, result, exc):
        res = exc.result if isinstance(exc, CollectionCap) else result
        if res is not None:
            tracer.count("collections", len(res.collections))

    def corrected(args, kwargs, result, exc):
        if exc is not None:
            tracer.count("correct_failures")
            return
        tracer.count("newton_iters", result.iterations)
        h = kwargs.get("h", args[4] if len(args) > 4 else 0.0)
        if h > 0.0:
            tracer.count("step_accepts")

    def written(args, kwargs, result, exc):
        if exc is None:
            tracer.count("bytes_written", os.path.getsize(args[0]))

    M = gpr.GprModel
    tracer.patch([M], "add_point", "gpr.add_point", dup_skip)
    tracer.patch([M], "remove_point", "gpr.remove_point")
    tracer.patch([M], "predict_mean_derivs", "gpr.predict_mean_derivs")
    tracer.patch([M], "predict_var", "gpr.predict_var")
    tracer.patch([gpr, driver, postprocess], "fit_hyperparameters", "gpr.fit_hyperparameters")
    tracer.patch([gpr, driver, postprocess], "build", "gpr.build")
    tracer.patch([acquisition, driver], "improve_solution", "acquisition.improve_solution",
                 collections)
    tracer.patch([acquisition], "sensitivity_beta", "acquisition.sensitivity_beta")
    tracer.patch([acquisition], "generate_candidates", "acquisition.generate_candidates")
    tracer.patch([acquisition], "prune", "acquisition.prune")
    tracer.patch([continuation, driver, acquisition, postprocess], "correct",
                 "continuation.correct", corrected)
    tracer.patch([continuation, driver, postprocess], "predict_step", "continuation.predict_step")
    tracer.patch([continuation, driver, postprocess], "tangent_at", "continuation.tangent_at")
    tracer.patch([continuation, driver, postprocess], "find_first_fold",
                 "continuation.find_first_fold")
    tracer.patch([postprocess], "dropout_ensemble", "postprocess.dropout_ensemble")
    tracer.patch([postprocess], "offline_fold_trace", "postprocess.offline_fold_trace")
    tracer.patch([driver], "run_trace", "driver.run_trace")
    tracer.patch([driver], "write_trace_artifacts", "driver.write_trace_artifacts")
    for name in ("write_run_log", "write_collection_log", "write_dataset_csv", "write_manifest"):
        tracer.patch([csvio], name, f"csvio.{name}", written)
    if oracle_cls is not None:
        tracer.patch([oracle_cls], "measure", "oracle.measure")
    rig = sys.modules.get("foldtrack.rig")
    if rig is not None:
        tracer.patch([rig.RigOracle], "picard_noninvasive", "rig.picard_noninvasive")
        tracer.patch([rig.RigOracle], "rig_simulate", "rig.rig_simulate")


def reduce(tracer: Tracer, n_jobs: int, extra: dict, scale: float = 1.0) -> dict:
    """Per-job per-layer figures of a traced run; `extra` holds figures taken by the worker.

    Span times are multiplied by `scale`, which puts them in reference units
    (timing.py).  A figure whose layer the run never entered, or whose
    denominator is 0, reads 0.  The set-up figures come from run.py.
    """
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def ms(name, self_time=False):
        return 1e3 * scale * tot.get(name, (0, 0.0, 0.0))[2 if self_time else 1]

    per_job = {}
    for name in ("gpr.add_point", "gpr.remove_point", "gpr.predict_mean_derivs",
                 "gpr.predict_var", "gpr.fit_hyperparameters", "gpr.build",
                 "acquisition.sensitivity_beta", "acquisition.prune", "continuation.correct",
                 "oracle.measure", "postprocess.offline_fold_trace"):
        per_job[f"{name}.calls"] = calls(name)
        per_job[f"{name}.ms"] = ms(name)
    per_job.update({
        "acquisition.improve_solution.self_ms": ms("acquisition.improve_solution", True),
        "acquisition.generate_candidates.calls": calls("acquisition.generate_candidates"),
        "acquisition.collections": c["collections"],
        "acquisition.duplicate_skips": c["duplicate_skips"],
        "continuation.correct.failures": c["correct_failures"],
        "continuation.newton_iters": c["newton_iters"],
        "continuation.tangent_at.calls": calls("continuation.tangent_at"),
        "continuation.find_first_fold.ms": ms("continuation.find_first_fold"),
        "postprocess.offline_fold_trace.self_ms": ms("postprocess.offline_fold_trace", True),
        "postprocess.dropout_ensemble.ms": ms("postprocess.dropout_ensemble"),
        "driver.run_trace.ms": ms("driver.run_trace"),
        "driver.write_trace_artifacts.ms": ms("driver.write_trace_artifacts"),
        "csvio.bytes_written": c["bytes_written"],
    })
    out = {k: v / n_jobs for k, v in per_job.items()}
    # ratios are taken over the whole traced run, not averaged per job
    if c["collections"]:
        out["acquisition.beta_evals_per_collection"] = \
            calls("acquisition.sensitivity_beta") / c["collections"]
    if calls("continuation.predict_step"):
        out["continuation.accept_ratio"] = c["step_accepts"] / calls("continuation.predict_step")
    measure_ms = tracer.durations_ms("oracle.measure")
    if measure_ms:
        out["oracle.measure.ms.p50"] = scale * statistics.median(measure_ms)
        for name in ("rig.picard_noninvasive", "rig.rig_simulate"):
            if calls(name):
                out[f"{name}.per_measure"] = calls(name) / len(measure_ms)
    out.update(extra)
    return {k: out.get(k, 0.0) for k, _, _ in CATALOGUE if not k.startswith("setup.")}
