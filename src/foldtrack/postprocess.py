"""Offline analyses over recorded measurement data.

These mirror what the online driver does, but consume stored datasets and
never trigger new measurements: full-surface surrogate fits with fold
continuation, constant-force (NLFR) slices with fold markers, S-curve
sweeps through an oracle, and dropout ensembles that quantify how sensitive
a fold curve is to the particular points that were collected.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .continuation import (ContinuationConfig, FoldPoint, Tangent, advance, find_first_fold,
                           in_data_cloud, tangent_at)
from .continuation import correct, predict_step  # noqa: F401 (perfbench wraps them here)
from .errors import (ContinuationError, EmptySliceWarning, FoldtrackError, OracleError,
                     SingularJacobian, StepUnderflow)
from .geometry import DomainBox
from .gpr import Dataset, GprModel, Hyperparameters, build, fit_hyperparameters
from .oracles import MeasuredPoint


@dataclass
class SCurve:
    """Fixed-frequency amplitude sweep; failures are recorded, not fatal."""

    omega: float
    points: list[MeasuredPoint] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)

    @property
    def F(self) -> np.ndarray:
        return np.array([p.F for p in self.points])

    @property
    def A(self) -> np.ndarray:
        return np.array([p.A for p in self.points])


def sweep_s_curve(oracle, omega: float, A_grid) -> SCurve:
    """One measurement per grid amplitude, in order; per-point errors skipped."""
    A_grid = np.asarray(A_grid, dtype=float)
    if len(A_grid) > 1 and not np.all(np.diff(A_grid) > 0):
        raise ValueError("A_grid must be strictly increasing")
    curve = SCurve(omega=float(omega))
    for A_t in A_grid:
        try:
            curve.points.append(oracle.measure(omega, float(A_t)))
        except OracleError as e:
            curve.failures.append((float(A_t), f"{type(e).__name__}: {e}"))
    return curve


@dataclass
class FoldCurve:
    points: list[FoldPoint]
    hyper: Hyperparameters | None = None
    meta: list[tuple[float, float, float, int]] | None = None  # t_omega, t_A, h, iters
    reason: str = ""

    def as_array(self) -> np.ndarray:
        """(n, 3) array of omega, A, gamma_model."""
        return np.array([[p.omega, p.A, p.gamma_model] for p in self.points]).reshape(-1, 3)

    def run_log_rows(self):
        meta = self.meta or [(0.0, 0.0, 0.0, 0)] * len(self.points)
        for k, (p, m) in enumerate(zip(self.points, meta)):
            yield [k, p.omega, p.A, p.gamma_model, p.gamma_measured, m[0], m[1], m[2], m[3]]

    def n_segments(self, gap: float = 1.0) -> int:
        """Connected polyline segments, split at normalized jumps larger than `gap`."""
        if len(self.points) < 2 or self.hyper is None:
            return 1 if self.points else 0
        arr = self.as_array()
        du = np.diff(arr[:, 0]) / self.hyper.l_omega
        dv = np.diff(arr[:, 1]) / self.hyper.l_A
        return int(1 + np.sum(np.hypot(du, dv) > gap))


def fold_curve_from_run_log(rows, hyper: Hyperparameters | None = None) -> FoldCurve:
    """Rebuild a fold-curve polyline from run-log records (see csvio)."""
    points = [FoldPoint(r["omega"], r["A"], r["gamma_model"], r["gamma_measured"])
              for r in rows]
    meta = [(r["t_omega"], r["t_A"], r["h"], r["newton_iters"]) for r in rows]
    return FoldCurve(points=points, hyper=hyper, meta=meta)


def _trace_one_direction(model, fold0, t0: Tangent, cfg: ContinuationConfig):
    """Up to max_steps accepted steps from fold0 along t0; underflow or a cusp ends them."""
    steps = []
    fold, tangent, h = fold0, t0, cfg.h
    while len(steps) < cfg.max_steps:
        try:
            step = advance(model, fold, tangent, h, cfg)
        except (StepUnderflow, SingularJacobian):
            break
        fold, tangent, h = step.result.point, step.tangent, step.h_next
        steps.append((fold, (tangent.t_omega, tangent.t_A, step.h, step.result.iterations)))
    return steps


def seed_scan(model: GprModel, box: DomainBox, n_grid: int = 40):
    """Coarse grid scan for the in-cloud point with the smallest |dGamma/dA|."""
    omegas = np.linspace(box.omega_min, box.omega_max, n_grid)
    As = np.linspace(box.A_min, box.A_max, n_grid)
    best, best_val = None, math.inf
    for omega in omegas:
        for A in As:
            if not in_data_cloud(model, omega, A):
                continue
            val = abs(model.predict_mean_derivs((omega, A)).d_A)
            if val < best_val:
                best, best_val = (float(omega), float(A)), val
    if best is None:
        raise ContinuationError("no grid point lies inside the data cloud")
    return best


def data_box(dataset: Dataset, pad: float = 0.0) -> DomainBox:
    lo = dataset.X.min(axis=0)
    hi = dataset.X.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return DomainBox(lo[0] - pad * span[0], hi[0] + pad * span[0],
                     lo[1] - pad * span[1], hi[1] + pad * span[1])


def initial_guess(dataset: Dataset) -> Hyperparameters:
    """Likelihood-fit start from the data alone: the force variance as signal,
    a 1e-8 share of it as noise, and a quarter of each input's spread as
    its length scale."""
    var = float(np.var(dataset.F))
    return Hyperparameters(sigma_n2=max(1e-8 * var, 1e-12), sigma_f2=var + 1e-12,
                           l_omega=max(float(np.ptp(dataset.X[:, 0])) / 4.0, 1e-9),
                           l_A=max(float(np.ptp(dataset.X[:, 1])) / 4.0, 1e-9))


def offline_fold_trace(dataset: Dataset, hyper: Hyperparameters | None = None,
                       cfg: ContinuationConfig | None = None, x0=None, seed: int = 0,
                       bidirectional: bool = True, fit_n_starts: int = 5,
                       fit_init: Hyperparameters | None = None) -> FoldCurve:
    """Fold curve of the surrogate built from all points of a recorded dataset.

    Hyperparameters are fitted when not supplied (optionally warm-started
    from `fit_init`); the starting point comes from a coarse |dGamma/dA|
    scan unless given.  No new data is collected.
    """
    if dataset.n == 0:
        raise ValueError("cannot trace an empty dataset")
    if hyper is None:
        init = fit_init if fit_init is not None else initial_guess(dataset)
        hyper = fit_hyperparameters(dataset, init, n_starts=fit_n_starts, seed=seed)
    model = build(dataset, hyper)
    if cfg is None:
        cfg = ContinuationConfig(domain_box=data_box(dataset, pad=0.05), max_steps=200)
    elif cfg.domain_box is None:
        from dataclasses import replace
        cfg = replace(cfg, domain_box=data_box(dataset, pad=0.05))
    if x0 is None:
        x0 = seed_scan(model, cfg.domain_box)
    fold0 = find_first_fold(model, x0, cfg)
    t0 = tangent_at(model, fold0, None)
    forward = _trace_one_direction(model, fold0, t0, cfg)
    steps = [(fold0, (t0.t_omega, t0.t_A, 0.0, 0))] + forward
    if bidirectional:
        t_back = Tangent(-t0.t_omega, -t0.t_A)
        backward = _trace_one_direction(model, fold0, t_back, cfg)
        steps = list(reversed(backward)) + steps
    return FoldCurve(points=[s[0] for s in steps], hyper=hyper,
                     meta=[s[1] for s in steps])


@dataclass
class SliceResult:
    gamma_level: float
    band: float
    points: np.ndarray             # (n, 3) omega, A, F of in-band measurements
    markers: list[FoldPoint]       # one representative per in-band fold-curve arc


def nlfr_slice(datasets, gamma_level: float, band: float, fold_curves=()) -> SliceResult:
    """Constant-force cross-section: measured points and fold markers in-band.

    A marker is one fold point per contiguous in-band arc of each fold
    curve (the arc's point with force closest to the level), so a curve
    crossing the level once yields exactly one marker however densely it
    was sampled.
    """
    if not 0.0 < band < 0.5:
        raise ValueError("band must lie in (0, 0.5)")
    rows = []
    for ds in datasets:
        mask = np.abs(ds.F - gamma_level) <= band * gamma_level
        rows.extend(np.column_stack([ds.X[mask], ds.F[mask]]))
    points = np.array(rows).reshape(-1, 3)

    markers: list[FoldPoint] = []
    for curve in fold_curves:
        pts = curve.points if isinstance(curve, FoldCurve) else list(curve)
        arc: list[FoldPoint] = []
        for p in pts:
            if abs(p.gamma_model - gamma_level) <= band * gamma_level:
                arc.append(p)
            elif arc:
                markers.append(min(arc, key=lambda q: abs(q.gamma_model - gamma_level)))
                arc = []
        if arc:
            markers.append(min(arc, key=lambda q: abs(q.gamma_model - gamma_level)))
    if len(points) == 0 and not markers:
        warnings.warn(f"no measurements or fold points within +-{band:.0%} of "
                      f"{gamma_level}", EmptySliceWarning, stacklevel=2)
    return SliceResult(gamma_level=gamma_level, band=band, points=points, markers=markers)


@dataclass
class EnsembleRun:
    run_id: int
    completed: bool
    curve: FoldCurve | None
    hyper: Hyperparameters | None
    n_segments: int
    error: str = ""


@dataclass
class EnsembleResult:
    runs: list[EnsembleRun]
    dropout_fraction: float
    seed: int

    @property
    def completed_fraction(self) -> float:
        if not self.runs:
            return 0.0
        return sum(r.completed for r in self.runs) / len(self.runs)


def dropout_ensemble(dataset: Dataset, n_runs: int, dropout_fraction: float, seed: int = 0,
                     hyper_init: Hyperparameters | None = None,
                     cfg: ContinuationConfig | None = None, x0=None,
                     fit_n_starts: int = 1, threads: int = 1) -> EnsembleResult:
    """Refit and retrace fold curves on datasets with points randomly removed.

    Each run drops exactly ceil(fraction * n) distinct points (fraction 0
    drops none), re-maximizes the likelihood for its own data, and traces
    offline.  Failures are recorded per run, never fatal.

    `threads` counts worker processes: min(threads, n_runs, cpu count) of
    them are forked for the call and joined before it returns.  With one
    worker, or where the platform offers no `fork`, the runs go in this
    process.  Each run seeds its own generator from (seed, run_id), so the
    result is byte-identical for any `threads`.  An exception other than a
    FoldtrackError in a run reaches the caller with its type.
    """
    if not 0.0 <= dropout_fraction < 1.0:
        raise ValueError("dropout_fraction must lie in [0, 1)")
    n_drop = math.ceil(dropout_fraction * dataset.n) if dropout_fraction > 0 else 0
    if dataset.n - n_drop < 10:
        raise ValueError(f"only {dataset.n - n_drop} points would remain; need >= 10")

    one_run = partial(_ensemble_run, dataset=dataset, n_drop=n_drop, seed=seed,
                      hyper_init=hyper_init, cfg=cfg, x0=x0, fit_n_starts=fit_n_starts)
    workers = min(threads, n_runs, os.cpu_count() or 1)
    return EnsembleResult(runs=_map_runs(one_run, n_runs, workers),
                          dropout_fraction=dropout_fraction, seed=seed)


def _ensemble_run(run_id: int, *, dataset: Dataset, n_drop: int, seed: int,
                  hyper_init: Hyperparameters | None, cfg: ContinuationConfig | None,
                  x0, fit_n_starts: int) -> EnsembleRun:
    """One dropout run; module level so that a worker process can be sent it."""
    rng = np.random.default_rng((seed, run_id))
    keep = np.sort(rng.choice(dataset.n, size=dataset.n - n_drop, replace=False))
    sub = Dataset(dataset.X[keep], dataset.F[keep])
    try:
        curve = offline_fold_trace(sub, cfg=cfg, x0=x0, seed=run_id,
                                   fit_n_starts=fit_n_starts, fit_init=hyper_init)
        return EnsembleRun(run_id=run_id, completed=True, curve=curve,
                           hyper=curve.hyper, n_segments=curve.n_segments())
    except FoldtrackError as e:
        return EnsembleRun(run_id=run_id, completed=False, curve=None, hyper=None,
                           n_segments=0, error=f"{type(e).__name__}: {e}")


def _map_runs(one_run, n_runs: int, workers: int) -> list[EnsembleRun]:
    """one_run over run ids 0 .. n_runs-1, in order, on `workers` forked processes.

    Forked workers start with the package already imported, where spawned
    ones would import numpy, scipy and foldtrack again on every call; each
    task pickles one_run with its run id, and each result comes back
    pickled.  A forked child holds only the calling thread, so no other
    thread of the caller may hold a lock the runs need.  The pool machinery
    is imported here, so that importing the package does not pay for it.
    """
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(one_run, range(n_runs)))
    return [one_run(run_id) for run_id in range(n_runs)]


def curve_distance(curve_a: FoldCurve, curve_b: FoldCurve, hyper: Hyperparameters) -> float:
    """Symmetric mean nearest-point distance in normalized (omega, A)."""
    a = curve_a.as_array()[:, :2] / [hyper.l_omega, hyper.l_A]
    b = curve_b.as_array()[:, :2] / [hyper.l_omega, hyper.l_A]
    if len(a) == 0 or len(b) == 0:
        return math.inf
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
