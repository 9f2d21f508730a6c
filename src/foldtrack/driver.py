"""Online fold-tracking driver: initialization, active data collection,
artifact writing.

One run: measure an n0 seed grid, fit kernel hyperparameters on it, locate
a first fold at the starting frequency, then follow it with the step loop
`continuation.follow`.  That loop ends the run at the step budget (reason
`max_steps`), the domain boundary (`domain_exit`), a step underflow inside
the box (`step_underflow`) or a cusp (`singular_jacobian`).  The first fold
and each accepted step go through the loop's one `accept`, which does what
only an online run can: it measures at the solution, collects data until
the solution is robust to new measurements, and records a
`continuation.CurvePoint` with both the surrogate's force and the measured
one; a step whose collection hit its cap is recorded too, with
`beta_final` at least beta_tol.  After the first fold it may then refit
the hyperparameters.  A failure at the first fold raises; after it, a
failure ends the run with `oracle_error` or `refresh_failed`, and the
result keeps the error, which the CLI raises once the artifacts are
written.  Every measurement after the seed grid enters the model through
`acquisition.add_measurement`, which holds it to n_max points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import csvio
from .acquisition import CollectionRecord, add_measurement, improve_solution
from .config import RunConfig, make_oracle
from .continuation import CurvePoint, FoldPoint, Step, find_first_fold, follow, tangent_at
from .continuation import correct, predict_step  # noqa: F401 (perfbench wraps them here)
from .errors import ContinuationError, OracleError
from .gpr import Dataset, GprModel, Hyperparameters, build, fit_hyperparameters


@dataclass
class StepRecord:
    point: CurvePoint
    collections: list[CollectionRecord]
    beta_final: float


@dataclass
class TraceResult:
    steps: list[StepRecord]  # step k is steps[k]; step 0 is the first fold
    model: GprModel
    reason: str
    status: str  # "ok" | "continuation_error" | "oracle_error"
    error: OracleError | ContinuationError | None = None  # the error that ended the run

    @property
    def hyper_fitted(self) -> Hyperparameters:
        """The hyperparameters of the final model: the fit's, or the last refit's."""
        return self.model.hyper

    @property
    def curve(self) -> list[CurvePoint]:
        return [s.point for s in self.steps]

    @property
    def fold_points(self) -> list[FoldPoint]:
        return [s.point.fold for s in self.steps]

    def collection_rows(self):
        return ([k, *c] for k, s in enumerate(self.steps) for c in s.collections)


def measure_init_grid(oracle, cfg: RunConfig) -> Dataset:
    """n0 measurements regularly distributed around the starting point; a half
    width not given is the length scale of `cfg.hyper.init` on its axis."""
    init, hyper_init = cfg.init, cfg.hyper.init
    hw_omega = init.half_width_omega if init.half_width_omega is not None else hyper_init.l_omega
    hw_A = init.half_width_A if init.half_width_A is not None else hyper_init.l_A
    n_om, n_A = init.grid_shape
    omegas = np.linspace(init.x0_omega - hw_omega, init.x0_omega + hw_omega, n_om) \
        if n_om > 1 else np.array([init.x0_omega])
    As = np.linspace(init.x0_A - hw_A, init.x0_A + hw_A, n_A) \
        if n_A > 1 else np.array([init.x0_A])
    X, F = [], []
    for omega in omegas:
        for A in As:
            m = oracle.measure(omega, A)
            X.append([m.omega, m.A])
            F.append(m.F)
    return Dataset(np.array(X), np.array(F))


def run_trace(cfg: RunConfig, oracle=None) -> TraceResult:
    """Execute one online continuation run; raises only on init-stage failures."""
    if oracle is None:
        oracle = make_oracle(cfg.oracle, run_seed=cfg.seed)
    ccfg = cfg.continuation

    dataset = measure_init_grid(oracle, cfg)
    if dataset.n >= 5:
        hyper = fit_hyperparameters(dataset, cfg.hyper.init, bounds=cfg.hyper.bounds,
                                    seed=cfg.seed)
    else:
        hyper = cfg.hyper.init
    model = build(dataset, hyper)

    fold = find_first_fold(model, (cfg.init.x0_omega, cfg.init.x0_A), ccfg)
    tangent = tangent_at(model, fold, None)
    steps: list[StepRecord] = []

    def accept(_, step, k):
        """Measure at the step's fold, collect until it is robust, record it as step k,
        then refit if the config asks and k > 0.  The model is kept here, not in
        `follow`, so a refresh that raises leaves it at what the measurement built."""
        nonlocal model
        point = step.point
        m = oracle.measure(point.fold.omega, point.fold.A)
        model, fold = add_measurement(model, point.fold, point.tangent, m,
                                      cfg.acquisition.n_max, ccfg)
        imp = improve_solution(model, oracle, fold, point.tangent, cfg.acquisition, ccfg,
                               seed=(cfg.seed, k))
        model = imp.model
        steps.append(StepRecord(replace(point, fold=imp.fold, gamma_measured=m.F),
                                imp.collections, imp.beta_max_final))
        if k > 0 and cfg.hyper.refit_each_step:
            model = build(model.dataset, fit_hyperparameters(
                model.dataset, model.hyper, bounds=cfg.hyper.bounds, n_starts=1, seed=cfg.seed))
        return model, imp.fold

    model, fold = accept(model, Step(CurvePoint(fold, tangent, 0.0, 0), ccfg.h), 0)

    status, error = "ok", None
    try:
        reason = follow(model, fold, tangent, ccfg, accept)
    except OracleError as e:
        reason, status, error = f"oracle_error: {e}", "oracle_error", e
    except ContinuationError as e:
        reason, status, error = f"refresh_failed: {e}", "continuation_error", e

    return TraceResult(steps=steps, model=model, reason=reason, status=status, error=error)


def write_trace_artifacts(out_dir, cfg: RunConfig, result: TraceResult) -> dict:
    """Write run log, collection log, dataset, fitted hyperparameters, manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_run_log(out / "run_log.csv", result.curve)
    csvio.write_collection_log(out / "collection_log.csv", result.collection_rows())
    csvio.write_dataset_csv(out / "dataset.csv", result.model.dataset)
    extra = {
        "n_steps": len(result.steps),
        "hyperparameters_fitted": result.hyper_fitted.as_dict(),
    }
    return csvio.write_manifest(out / "manifest.json", config_dict=cfg.to_dict(),
                                seed=cfg.seed, threads=cfg.threads, status=result.status,
                                reason=result.reason,
                                outputs=["run_log.csv", "collection_log.csv", "dataset.csv"],
                                extra=extra)
