"""Offline analyses over recorded measurement data.

These mirror what the online driver does, but consume stored datasets and
never trigger new measurements: full-surface surrogate fits with fold
continuation, constant-force (NLFR) slices with fold markers, S-curve
sweeps through an oracle, and dropout ensembles that quantify how sensitive
a fold curve is to the particular points that were collected.

An offline fold trace runs the online run's step loop, `continuation.follow`,
once in each direction from its first fold, with an `accept` that records
the step and leaves the model as it is.  Its `FoldCurve` holds the same
`continuation.CurvePoint` records as an online run, and why each direction
stopped.

A trace or ensemble given no hyperparameters fits them with no start of
its own: `gpr.fit_hyperparameters` starts from `gpr.initial_guess`, which
it takes from the data as it takes its default bounds.  Both take the
caller's continuation config, whose missing domain box `data_box` fills
from the data.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby

import numpy as np

from .continuation import (ContinuationConfig, CurvePoint, FoldPoint, Tangent, find_first_fold,
                           follow, seed_scan, tangent_at)
from .continuation import correct, predict_step  # noqa: F401 (perfbench wraps them here)
from .errors import EmptySliceWarning, FoldtrackError, OracleError
from .geometry import DomainBox
from .gpr import Dataset, Hyperparameters, build, curvature_scale, fit_hyperparameters
from .oracles import MeasuredPoint


@dataclass
class SCurve:
    """Fixed-frequency amplitude sweep; failures are recorded, not fatal."""

    omega: float
    points: list[MeasuredPoint] = field(default_factory=list)
    failures: list[tuple[float, str]] = field(default_factory=list)


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
    records: list[CurvePoint]
    hyper: Hyperparameters
    reason: tuple[str, str] | None = None  # why the (forward, backward) directions stopped

    @property
    def points(self) -> list[FoldPoint]:
        return [r.fold for r in self.records]

    def __iter__(self):
        """The fold points in curve order, so a curve serves where a list of them does."""
        return iter(self.points)

    def as_array(self) -> np.ndarray:
        """(n, 3) array of omega, A, gamma_model."""
        return np.array(self.points, dtype=float).reshape(-1, 3)

    def n_segments(self) -> int:
        """Connected polyline segments, split at jumps longer than one length scale."""
        if not self.records:
            return 0
        arr = self.as_array()
        du = np.diff(arr[:, 0]) / self.hyper.l_omega
        dv = np.diff(arr[:, 1]) / self.hyper.l_A
        return int(1 + np.sum(np.hypot(du, dv) > 1.0))


def data_box(dataset: Dataset) -> DomainBox:
    """The inputs' bounding box, widened by 5% of its span on each side."""
    lo = dataset.X.min(axis=0)
    hi = dataset.X.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-9)
    return DomainBox(lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def offline_fold_trace(dataset: Dataset, hyper: Hyperparameters | None = None, *,
                       cfg: ContinuationConfig, x0=None, seed: int = 0) -> FoldCurve:
    """Fold curve of the surrogate built from all points of a recorded dataset.

    Hyperparameters are fitted when not supplied, from the fit's own start,
    `gpr.initial_guess`, and four more starts drawn from `seed`.  The
    continuation runs by `cfg`, in `data_box(dataset)` when `cfg` names no
    box, and starts from `seed_scan`'s pick unless given `x0`.  From the
    first fold, `continuation.follow` takes up to cfg.max_steps steps
    forward (along increasing omega) and as many backward; the curve runs
    from the backward end to the forward end, and its `reason` is the pair
    (forward, backward) of their stop reasons.  No new data is collected.
    """
    if dataset.n == 0:
        raise ValueError("cannot trace an empty dataset")
    if hyper is None:
        hyper = fit_hyperparameters(dataset, seed=seed)
    model = build(dataset, hyper)
    if cfg.domain_box is None:
        cfg = replace(cfg, domain_box=data_box(dataset))
    if x0 is None:
        x0 = seed_scan(model, cfg.domain_box)
    fold0 = find_first_fold(model, x0, cfg)
    t0 = tangent_at(model, fold0, None)
    forward, backward = [], []
    reason = (follow(model, fold0, t0, cfg, _recorder(forward)),
              follow(model, fold0, Tangent(-t0.t_omega, -t0.t_A), cfg, _recorder(backward)))
    return FoldCurve(backward[::-1] + [CurvePoint(fold0, t0, 0.0, 0)] + forward, hyper, reason)


def _recorder(records: list):
    """A `follow` accept that appends each step's CurvePoint to `records`."""
    def accept(model, step, k):
        records.append(step.point)
        return model, step.point.fold
    return accept


@dataclass
class SliceResult:
    points: np.ndarray             # (n, 3) omega, A, F of in-band measurements
    markers: list[FoldPoint]       # one per crossing of the level by a fold curve


def nlfr_slice(datasets, gamma_level: float, band: float, fold_curves=()) -> SliceResult:
    """Constant-force cross-section: measured points and fold markers in-band.

    Each of `fold_curves` is a sequence of `FoldPoint`s in curve order, and
    gets one marker per crossing of the level, in curve order: the point
    with force closest to the level of each contiguous in-band arc, so a
    curve crossing the level once yields exactly one marker however densely
    it was sampled; and where the curve steps from below the band straight
    to above it, or back, the point on that segment where gamma_model
    equals the level, by linear interpolation.
    """
    if not 0.0 < band < 0.5:
        raise ValueError("band must lie in (0, 0.5)")
    if not gamma_level > 0.0:
        raise ValueError(f"gamma_level must be positive, got {gamma_level}")
    rows = []
    for ds in datasets:
        mask = np.abs(ds.F - gamma_level) <= band * gamma_level
        rows.extend(np.column_stack([ds.X[mask], ds.F[mask]]))
    points = np.array(rows).reshape(-1, 3)

    def miss(p: FoldPoint) -> float:
        return abs(p.gamma_model - gamma_level)

    def side(p: FoldPoint) -> int:
        """0 in the band, else +1 above it and -1 below."""
        if miss(p) <= band * gamma_level:
            return 0
        return 1 if p.gamma_model > gamma_level else -1

    markers: list[FoldPoint] = []
    for curve in fold_curves:
        last_side, last = 0, None
        for arc_side, arc in groupby(curve, key=side):
            arc = list(arc)
            if arc_side == 0:
                markers.append(min(arc, key=miss))
            elif arc_side == -last_side:
                markers.append(_level_crossing(last, arc[0], gamma_level))
            last_side, last = arc_side, arc[-1]
    if len(points) == 0 and not markers:
        warnings.warn(f"no measurements or fold points within +-{band:.0%} of "
                      f"{gamma_level}", EmptySliceWarning, stacklevel=2)
    return SliceResult(points=points, markers=markers)


def _level_crossing(p: FoldPoint, q: FoldPoint, level: float) -> FoldPoint:
    """The point of segment p-q where gamma_model, linear along it, equals `level`."""
    s = (level - p.gamma_model) / (q.gamma_model - p.gamma_model)
    return FoldPoint(p.omega + s * (q.omega - p.omega), p.A + s * (q.A - p.A), level)


@dataclass
class EnsembleRun:
    run_id: int
    completed: bool
    curve: FoldCurve | None
    error: str = ""


@dataclass
class EnsembleResult:
    runs: list[EnsembleRun]
    hyper_init: Hyperparameters  # the full dataset's optimum every run's fit started from

    @property
    def completed_fraction(self) -> float:
        if not self.runs:
            return 0.0
        return sum(r.completed for r in self.runs) / len(self.runs)


def dropout_ensemble(dataset: Dataset, n_runs: int, dropout_fraction: float, seed: int = 0,
                     hyper_init: Hyperparameters | None = None, *,
                     cfg: ContinuationConfig, x0=None,
                     fit_n_starts: int = 1, threads: int = 1) -> EnsembleResult:
    """Refit and retrace fold curves on datasets with points randomly removed.

    Each run drops exactly ceil(fraction * n) distinct points (fraction 0
    drops none), re-maximizes the likelihood for its own data with
    `fit_n_starts` starts, and traces offline by `cfg`, in the box
    `data_box` takes from the run's own data when `cfg` names none, as
    `offline_fold_trace` does.  Every run's fit starts from
    `hyper_init`, the full dataset's optimum, and works in the scales
    `gpr.curvature_scale` takes there once per call, before any worker is
    forked.  Without `hyper_init`, once the arguments are checked, the full
    dataset is fitted from the fit's own start, `gpr.initial_guess`, and four
    more starts drawn from `seed`; the result carries `hyper_init` either
    way.  Failures are recorded per run, never fatal.

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
    if hyper_init is None:
        hyper_init = fit_hyperparameters(dataset, seed=seed)

    scale = curvature_scale(dataset, hyper_init)
    one_run = partial(_ensemble_run, dataset=dataset, n_drop=n_drop, seed=seed,
                      hyper_init=hyper_init, scale=scale, cfg=cfg, x0=x0,
                      fit_n_starts=fit_n_starts)
    workers = min(threads, n_runs, os.cpu_count() or 1)
    return EnsembleResult(runs=_map_runs(one_run, n_runs, workers), hyper_init=hyper_init)


def _ensemble_run(run_id: int, *, dataset: Dataset, n_drop: int, seed: int,
                  hyper_init: Hyperparameters, scale: np.ndarray,
                  cfg: ContinuationConfig, x0, fit_n_starts: int) -> EnsembleRun:
    """One dropout run; module level so that a worker process can be sent it."""
    rng = np.random.default_rng((seed, run_id))
    keep = np.sort(rng.choice(dataset.n, size=dataset.n - n_drop, replace=False))
    sub = dataset.take(keep)
    try:
        hyper = fit_hyperparameters(sub, hyper_init, n_starts=fit_n_starts, seed=run_id,
                                    scale=scale)
        curve = offline_fold_trace(sub, hyper=hyper, cfg=cfg, x0=x0)
        return EnsembleRun(run_id=run_id, completed=True, curve=curve)
    except FoldtrackError as e:
        return EnsembleRun(run_id=run_id, completed=False, curve=None,
                           error=f"{type(e).__name__}: {e}")


def _map_runs(one_run, n_runs: int, workers: int) -> list[EnsembleRun]:
    """one_run over run ids 0 .. n_runs-1, in order, on `workers` forked processes.

    Forked workers start with the package already imported, where spawned
    ones would import numpy, scipy and foldtrack again on every call; each
    task pickles one_run with its run id, and each result comes back
    pickled.  A forked child holds only the calling thread, so no other
    thread of the caller may hold a lock the runs need, and it inherits the
    caller's BLAS thread count, which the CLI pins to one.  The pool
    machinery is imported here, so that importing the package does not pay
    for it.
    """
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(one_run, range(n_runs)))
    return [one_run(run_id) for run_id in range(n_runs)]
