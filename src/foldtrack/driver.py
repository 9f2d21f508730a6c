"""Online fold-tracking driver: initialization, the online step loop,
active data collection, artifact writing.

One run: measure an n0 seed grid, fit kernel hyperparameters on it, locate
a first fold at the starting frequency, then take accepted steps with the
stepper `continuation.advance` until the step budget (reason `max_steps`),
the domain boundary (`domain_exit`), a step underflow inside the box
(`step_underflow`) or a cusp (`singular_jacobian`) ends the run.  After each
accepted step the driver does what only an online run can: it measures at
the solution (configurable, so the logged curve carries both the
surrogate's force estimate and a directly measured one), collects data
until the solution is robust to new measurements, and optionally refits
the hyperparameters.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import csvio
from .acquisition import CollectionRecord, improve_solution
from .config import RunConfig, make_oracle
from .continuation import FoldPoint, Tangent, advance, correct, find_first_fold, tangent_at
from .continuation import predict_step  # noqa: F401 (perfbench wraps it here)
from .errors import (CollectionCap, ContinuationError, DomainExhausted, DomainExit,
                     DuplicatePoint, OracleError, SingularJacobian, StepUnderflow)
from .gpr import Dataset, GprModel, build, fit_hyperparameters

log = logging.getLogger(__name__)


@dataclass
class StepRecord:
    step: int
    fold: FoldPoint
    tangent: Tangent
    h: float
    newton_iters: int
    collections: list[CollectionRecord] = field(default_factory=list)
    beta_final: float = 0.0


@dataclass
class TraceResult:
    steps: list[StepRecord]
    model: GprModel | None
    hyper_fitted: "object"
    reason: str
    status: str  # "ok" | "continuation_error" | "oracle_error"

    @property
    def fold_points(self) -> list[FoldPoint]:
        return [s.fold for s in self.steps]

    def run_log_rows(self):
        for s in self.steps:
            f = s.fold
            yield [s.step, f.omega, f.A, f.gamma_model, f.gamma_measured,
                   s.tangent.t_omega, s.tangent.t_A, s.h, s.newton_iters]

    def collection_rows(self):
        for s in self.steps:
            for c in s.collections:
                yield [s.step, c.collection_idx, c.omega_req, c.A_req,
                       c.omega_meas, c.A_meas, c.F_meas, c.beta_max]


def measure_init_grid(oracle, cfg: RunConfig, hyper_init) -> Dataset:
    """n0 measurements regularly distributed around the starting point."""
    init = cfg.init
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


def _measure_at_solution(model, oracle, fold, tangent, ccfg):
    """Anchor the surrogate with a real measurement at the accepted solution."""
    m = oracle.measure(fold.omega, fold.A)
    try:
        model = model.add_point((m.omega, m.A), m.F)
    except DuplicatePoint:
        return model, fold.with_measurement(m.F)
    refreshed = correct(model, (fold.omega, fold.A), fold, tangent, 0.0, ccfg)
    return model, refreshed.point.with_measurement(m.F)


def _improve(model, oracle, fold, tangent, h, cfg, seed):
    try:
        return improve_solution(model, oracle, fold, tangent, h,
                                cfg.acquisition, cfg.continuation, seed=seed)
    except CollectionCap as cap:
        warnings.warn(str(cap), stacklevel=2)
        return cap.result


def run_trace(cfg: RunConfig, oracle=None) -> TraceResult:
    """Execute one online continuation run; raises only on init-stage failures."""
    if oracle is None:
        oracle = make_oracle(cfg.oracle, run_seed=cfg.seed)
    ccfg = cfg.continuation

    dataset = measure_init_grid(oracle, cfg, cfg.hyper.init)
    if cfg.hyper.fit and dataset.n >= 5:
        hyper = fit_hyperparameters(dataset, cfg.hyper.init, bounds=cfg.hyper.bounds,
                                    n_starts=cfg.hyper.n_starts, seed=cfg.seed)
    else:
        hyper = cfg.hyper.init
    model = build(dataset, hyper)

    fold = find_first_fold(model, (cfg.init.x0_omega, cfg.init.x0_A), ccfg)
    tangent = tangent_at(model, fold, None)
    if cfg.measure_at_solution:
        model, fold = _measure_at_solution(model, oracle, fold, tangent, ccfg)
    imp = _improve(model, oracle, fold, tangent, 0.0, cfg, seed=(cfg.seed, 0))
    model, fold = imp.model, imp.fold
    steps = [StepRecord(step=0, fold=fold, tangent=tangent, h=0.0, newton_iters=0,
                        collections=imp.collections, beta_final=imp.beta_max_final)]

    h = ccfg.h
    reason, status = "max_steps", "ok"
    for k in range(1, ccfg.max_steps + 1):
        try:
            step = advance(model, fold, steps[-1].tangent, h, ccfg)
        except DomainExit:
            reason = "domain_exit"
            break
        except StepUnderflow:
            reason = "step_underflow"
            break
        except SingularJacobian as e:
            reason = f"singular_jacobian: {e}"
            break

        fold_k = step.result.point
        try:
            if cfg.measure_at_solution:
                model, fold_k = _measure_at_solution(model, oracle, fold_k, step.tangent, ccfg)
            imp = _improve(model, oracle, fold_k, step.tangent, step.h, cfg, seed=(cfg.seed, k))
            model, fold_k = imp.model, imp.fold
        except OracleError as e:
            log.error("oracle failed mid-run at step %d: %s", k, e)
            reason, status = f"oracle_error: {e}", "oracle_error"
            break
        except (ContinuationError, DomainExhausted) as e:
            reason, status = f"refresh_failed: {e}", "continuation_error"
            break

        steps.append(StepRecord(step=k, fold=fold_k, tangent=step.tangent, h=step.h,
                                newton_iters=step.result.iterations,
                                collections=imp.collections, beta_final=imp.beta_max_final))
        fold, h = fold_k, step.h_next

        if cfg.hyper.refit_each_step:
            hyper = fit_hyperparameters(model.dataset, hyper, bounds=cfg.hyper.bounds,
                                        n_starts=1, seed=cfg.seed)
            model = build(model.dataset, hyper)

    return TraceResult(steps=steps, model=model, hyper_fitted=hyper,
                       reason=reason, status=status)


def write_trace_artifacts(out_dir, cfg: RunConfig, result: TraceResult) -> dict:
    """Write run log, collection log, dataset, fitted hyperparameters, manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_run_log(out / "run_log.csv", result.run_log_rows())
    csvio.write_collection_log(out / "collection_log.csv", result.collection_rows())
    if result.model is not None:
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
