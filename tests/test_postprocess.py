import math
import multiprocessing
import os
import pickle
from concurrent.futures import process

import numpy as np
import pytest

from conftest import duffing_grid_dataset
from reference_oracles import duffing_fold_amplitudes, duffing_force

from foldtrack import postprocess
from foldtrack.config import EnsembleConfig, SweepConfig, load_config
from foldtrack.continuation import (ContinuationConfig, FoldPoint, _in_cloud, find_first_fold,
                                    follow, tangent_at)
from foldtrack.driver import run_trace
from foldtrack.errors import ContinuationError, EmptySliceWarning, NoConvergence
from foldtrack.geometry import DomainBox
from foldtrack.gpr import (Dataset, FitBounds, Hyperparameters, build, fit_hyperparameters,
                           initial_guess)
from foldtrack.oracles import DuffingOracle, DuffingParams, IsolaOracle, duffing_gamma
from foldtrack.postprocess import (FoldCurve, data_box, dropout_ensemble, nlfr_slice,
                                   offline_fold_trace, seed_scan, sweep_s_curve)


def densify_polyline(arr: np.ndarray, factor: int) -> np.ndarray:
    """Insert linear interpolants between consecutive polyline vertices."""
    out = [arr[:1]]
    for a, b in zip(arr[:-1], arr[1:]):
        ts = np.linspace(0.0, 1.0, factor + 1)[1:]
        out.append(a + np.outer(ts, b - a))
    return np.vstack(out)


@pytest.fixture(scope="module")
def online_run():
    cfg = load_config("configs/duffing.yaml")
    from dataclasses import replace
    cfg = replace(cfg, continuation=replace(cfg.continuation, max_steps=22))
    result = run_trace(cfg)
    assert len(result.steps) >= 20
    return result


class TestSweep:
    def test_single_point_grid(self, duffing_oracle):
        curve = sweep_s_curve(duffing_oracle, 1.1, [1.5])
        assert len(curve.points) == 1
        assert curve.points[0].A == 1.5

    def test_s_signature_above_critical(self, duffing_params, duffing_oracle):
        # the surface has two interior extrema in A at this frequency
        assert len(duffing_fold_amplitudes(1.0, 0.02, 0.05, 1.12)) == 2
        curve = sweep_s_curve(duffing_oracle, 1.12, np.arange(0.4, 3.2, 0.1))
        F = [p.F for p in curve.points]
        lmax = [i for i in range(1, len(F) - 1) if F[i] > F[i - 1] and F[i] > F[i + 1]]
        lmin = [i for i in range(1, len(F) - 1) if F[i] < F[i - 1] and F[i] < F[i + 1]]
        assert lmax and lmin and min(lmax) < max(lmin)

    def test_failures_recorded_not_fatal(self, duffing_oracle):
        grid = [1.0, 2.0, 4.9, 5.5, 6.0]  # last two exceed the domain box
        curve = sweep_s_curve(duffing_oracle, 1.1, grid)
        assert len(curve.points) == 3
        assert len(curve.failures) == 2

    def test_monotone_grid_required(self, duffing_oracle):
        with pytest.raises(ValueError):
            sweep_s_curve(duffing_oracle, 1.1, [1.0, 0.5])

    def test_default_grid_spacing_is_hardware_protocol(self):
        # 0.25 Hz frequency spacing, 0.2 mm amplitude steps
        assert SweepConfig.__dataclass_fields__["omega_step"].default == 0.25
        assert SweepConfig.__dataclass_fields__["A_step"].default == 0.2


@pytest.fixture(scope="module")
def isola_grid_model():
    """Acceptance criterion 3's 16 x 16 isola grid with its fit, and the isola's box."""
    oracle = IsolaOracle(seed=0)
    box = oracle.domain_box
    ws = np.linspace(box.omega_min, box.omega_max, 16)
    As = np.linspace(0.05, box.A_max - 0.05, 16)
    X = np.array([[w, a] for w in ws for a in As])
    F = np.array([oracle.measure(w, a).F for w, a in X])
    ds = Dataset(X, F)
    bounds = FitBounds(sigma_n2=(1e-10, 1e-2), sigma_f2=(1e-4, 100.0),
                       l_omega=(0.03, 0.30), l_A=(0.1, 0.9))
    hyper = fit_hyperparameters(ds, Hyperparameters(1e-8, float(np.var(F)), 0.12, 0.5),
                                bounds=bounds, n_starts=1, seed=0)
    return build(ds, hyper), box


@pytest.fixture(scope="module")
def sweep0_model():
    """The benchmark's noisy 285-point S-curve sweep of seed 0 (perfbench/dataset.py),
    fitted from the benchmark's start, and its data box."""
    W, A = np.meshgrid(np.linspace(1.00, 1.21, 15), np.linspace(0.2, 3.0, 19), indexing="ij")
    W, A = W.ravel(), A.ravel()
    F = duffing_gamma(DuffingParams(), W, A)
    F = np.maximum(F + 0.01 * F.mean() * np.random.default_rng(0).standard_normal(F.shape),
                   0.0)
    ds = Dataset(np.column_stack([W, A]), F)
    v = float(np.var(F))
    hyper = fit_hyperparameters(ds, Hyperparameters(1e-4 * v, v, 0.05, 0.45), n_starts=1,
                                seed=0)
    return build(ds, hyper), data_box(ds)


def _seed_scan_one_point_at_a_time(model, box):
    """The scan as a loop over its 40 x 40 grid, omega-major, the first minimum winning."""
    hyp = model.hyper
    best, best_val = None, math.inf
    for omega in np.linspace(box.omega_min, box.omega_max, 40):
        for A in np.linspace(box.A_min, box.A_max, 40):
            if not _in_cloud(model.kernel_pass(omega / hyp.l_omega, A / hyp.l_A)):
                continue
            val = abs(model.predict_mean_derivs((omega, A)).d_A)
            if val < best_val:
                best, best_val = (float(omega), float(A)), val
    return best


class TestSeedScan:
    def test_equals_the_one_point_loop(self, online_run, duffing_model, duffing_box,
                                       isola_grid_model, sweep0_model):
        for model, box in ((online_run.model, data_box(online_run.model.dataset)),
                           (duffing_model, duffing_box), isola_grid_model, sweep0_model):
            assert seed_scan(model, box) == _seed_scan_one_point_at_a_time(model, box)

    def test_empty_cloud_raises(self, duffing_model):
        far = DomainBox(5.0, 6.0, 20.0, 30.0)
        hyp = duffing_model.hyper
        assert not _in_cloud(duffing_model.kernel_pass(
            5.0 / hyp.l_omega, np.array([[20.0], [25.0], [30.0]]) / hyp.l_A)).any()
        with pytest.raises(ContinuationError):
            seed_scan(duffing_model, far)


class TestOfflineTrace:
    def test_matches_online_curve(self, online_run):
        online = FoldCurve(online_run.curve, hyper=online_run.hyper_fitted)
        offline = offline_fold_trace(online_run.model.dataset,
                                     cfg=ContinuationConfig(max_steps=200), seed=0)
        on = online.as_array()
        on = on[np.argsort(on[:, 0])]
        lo, hi = on[:, 0].min(), on[:, 0].max()
        checked = 0
        for p in offline.points:
            if not lo <= p.omega <= hi:
                continue
            g_on = np.interp(p.omega, on[:, 0], on[:, 2])
            assert abs(p.gamma_model - g_on) / g_on < 0.01
            checked += 1
        assert checked >= 8

    def test_uses_supplied_hyper_without_fit(self, online_run):
        hyp = online_run.hyper_fitted
        curve = offline_fold_trace(online_run.model.dataset, hyper=hyp,
                                   cfg=ContinuationConfig(max_steps=200))
        assert curve.hyper == hyp
        assert len(curve.points) > 5

    def test_sparse_scurve_data_oscillates_more(self, duffing_params, duffing_box):
        # offline trace from a few widely-spaced S-curves wiggles around the
        # true locus more than the trace from online-run data does
        oracle = DuffingOracle(duffing_params, duffing_box, seed=5)
        X, F = [], []
        for w in np.arange(1.06, 1.31, 0.06):
            for a in np.arange(0.6, 3.0, 0.15):
                m = oracle.measure(w, a)
                X.append([m.omega, m.A])
                F.append(m.F)
        sparse = Dataset(np.array(X), np.array(F))
        curve_sparse = offline_fold_trace(sparse, cfg=ContinuationConfig(max_steps=200),
                                          x0=(1.12, 1.55), seed=0)

        def max_gamma_err(curve):
            errs = []
            for p in curve.points:
                if not 1.07 <= p.omega <= 1.29:
                    continue
                a_t = duffing_fold_amplitudes(1.0, 0.02, 0.05, p.omega)[0]
                g_t = duffing_force(1.0, 0.02, 0.05, p.omega, a_t)
                errs.append(abs(p.gamma_model - g_t) / g_t)
            assert len(errs) >= 5
            return max(errs)

        cfg = load_config("configs/duffing.yaml")
        from dataclasses import replace
        cfg = replace(cfg, continuation=replace(cfg.continuation, max_steps=22))
        online = run_trace(cfg)
        curve_online = offline_fold_trace(online.model.dataset,
                                          cfg=ContinuationConfig(max_steps=200), seed=0)
        assert max_gamma_err(curve_sparse) > max_gamma_err(curve_online)

    def test_max_steps_counts_accepted_steps(self, duffing_params):
        # h starts at one length scale; an attempt at h = 1 is rejected before
        # the sixth step, and the direction would run on for nine
        ds = duffing_grid_dataset(duffing_params, center=(1.2, 1.8), half=(0.15, 1.2),
                                  shape=(13, 13))
        cfg = ContinuationConfig(h=1.0, h_max=1.0, max_steps=6,
                                 domain_box=DomainBox(1.0, 1.4, 0.5, 3.2))
        model = build(ds, Hyperparameters(1e-8, 0.04, 0.05, 0.45))
        fold0 = find_first_fold(model, (1.15, 1.7), cfg)
        hs = []

        def record(model, step, k):
            hs.append(step.point.h)
            return model, step.point.fold

        follow(model, fold0, tangent_at(model, fold0, None), cfg, record)
        assert min(hs) < cfg.h  # h only shrinks when an attempt is rejected
        assert len(hs) == cfg.max_steps


class TestNlfrSlice:
    def test_band_covering_all_points(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.1, 1.5], [1.2, 2.0]]),
                     np.array([1.0, 1.1, 0.9]))
        res = nlfr_slice([ds], gamma_level=1.0, band=0.2)
        assert len(res.points) == 3

    def test_band_validation(self):
        ds = Dataset(np.array([[1.0, 1.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            nlfr_slice([ds], 1.0, 0.6)

    def test_points_satisfy_band_inequality(self, online_run):
        ds = online_run.model.dataset
        res = nlfr_slice([ds], gamma_level=0.3, band=0.05)
        assert len(res.points) > 0
        assert np.all(np.abs(res.points[:, 2] - 0.3) <= 0.05 * 0.3)

    def test_one_marker_per_level_crossing(self):
        # synthetic fold curve crossing the level once: exactly one marker,
        # independent of how densely the polyline samples the band
        pts = [FoldPoint(1.0 + 0.01 * k, 1.0, 0.20 + 0.004 * k) for k in range(40)]
        res = nlfr_slice([], gamma_level=0.25, band=0.05, fold_curves=[pts])
        assert len(res.markers) == 1
        assert res.markers[0].gamma_model == pytest.approx(0.25, abs=0.004)

    def test_crossing_between_two_out_of_band_points_gets_a_marker(self):
        # 0.28 -> 0.32 steps over the band 0.3 +- 0.015 without a point in it;
        # the marker sits where the segment's force equals the level
        pts = [FoldPoint(1.0, 1.0, 0.26), FoldPoint(1.1, 1.2, 0.28),
               FoldPoint(1.2, 1.6, 0.32), FoldPoint(1.3, 1.8, 0.34)]
        res = nlfr_slice([], gamma_level=0.3, band=0.05, fold_curves=[pts])
        assert len(res.markers) == 1
        m = res.markers[0]
        assert (m.omega, m.A, m.gamma_model) == pytest.approx((1.15, 1.4, 0.3), rel=1e-12)

    def test_two_markers_for_two_crossings(self):
        gammas = np.concatenate([np.linspace(0.1, 0.4, 25), np.linspace(0.4, 0.1, 25)])
        pts = [FoldPoint(1.0 + 0.01 * k, 1.0, g) for k, g in enumerate(gammas)]
        res = nlfr_slice([], gamma_level=0.25, band=0.04, fold_curves=[pts])
        assert len(res.markers) == 2

    def test_duffing_slice_has_two_markers(self, online_run):
        curve = FoldCurve(online_run.curve, hyper=online_run.hyper_fitted)
        gammas = curve.as_array()[:, 2]
        # a level both fold branches reach inside the domain box; the online
        # curve covers the lower-amplitude branch, the analytically known
        # upper branch supplies the other crossing
        level = float(gammas[3])
        assert 0.1 < level < 0.4
        other = []
        for w in np.linspace(1.15, 1.44, 60):
            a = duffing_fold_amplitudes(1.0, 0.02, 0.05, w, A_max=9.0)[1]
            other.append(FoldPoint(w, a, duffing_force(1.0, 0.02, 0.05, w, a)))
        res = nlfr_slice([online_run.model.dataset], level, 0.05,
                         fold_curves=[curve, other])
        assert len(res.markers) == 2

    def test_empty_slice_warns(self):
        ds = Dataset(np.array([[1.0, 1.0]]), np.array([1.0]))
        with pytest.warns(EmptySliceWarning):
            res = nlfr_slice([ds], gamma_level=100.0, band=0.05)
        assert len(res.points) == 0 and res.markers == []


class _ScriptedBug(RuntimeError):
    """A defect, not a FoldtrackError: it must reach the caller of dropout_ensemble."""


def _script_runs(monkeypatch, failures):
    """Make a run's fit raise failures[run_id] for the runs named there.

    The fit is seeded by the run id.  Callers pass a `hyper_init`, so the
    scripted fit sees the runs' own fits only.  Worker processes are forked
    after this, so they inherit the patch.
    """
    real = postprocess.fit_hyperparameters

    def scripted(sub, init, *, seed, **kw):
        if seed in failures:
            raise failures[seed]
        return real(sub, init, seed=seed, **kw)

    monkeypatch.setattr(postprocess, "fit_hyperparameters", scripted)


class _RecordingPool(process.ProcessPoolExecutor):
    """The real pool, recording the worker count it was asked for."""

    sizes: list[int] = []

    def __init__(self, max_workers=None, **kw):
        type(self).sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kw)


class _InProcessPool:
    """Stands in for the pool: records its worker count and starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers=None, mp_context=None):
        type(self).sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture()
def pool_spy(monkeypatch):
    """Two CPUs, so that threads=2 forks two workers wherever this runs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(process, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.sizes


FORK = "fork" in multiprocessing.get_all_start_methods()


class TestDropoutEnsemble:
    def test_zero_dropout_runs_identical(self, online_run):
        ds = online_run.model.dataset
        res = dropout_ensemble(ds, n_runs=2, dropout_fraction=0.0, seed=3,
                               fit_n_starts=1, hyper_init=online_run.hyper_fitted,
                               cfg=ContinuationConfig(max_steps=200))
        assert res.completed_fraction == 1.0
        a, b = res.runs[0].curve.as_array(), res.runs[1].curve.as_array()
        assert np.array_equal(a, b)

    def test_protocol_default_constants(self):
        assert EnsembleConfig.__dataclass_fields__["n_runs"].default == 300
        assert EnsembleConfig.__dataclass_fields__["dropout_fraction"].default == 0.10

    def test_deterministic_and_thread_independent(self, online_run, monkeypatch, pool_spy):
        _script_runs(monkeypatch, {1: NoConvergence("scripted failure")})
        kw = dict(n_runs=4, dropout_fraction=0.1, seed=5, fit_n_starts=1,
                  hyper_init=online_run.hyper_fitted, cfg=ContinuationConfig(max_steps=200))
        serial = dropout_ensemble(online_run.model.dataset, threads=1, **kw)
        assert pool_spy == []
        forked = dropout_ensemble(online_run.model.dataset, threads=2, **kw)
        assert pool_spy == ([2] if FORK else [])
        assert multiprocessing.active_children() == []
        assert [r.run_id for r in forked.runs] == [0, 1, 2, 3]
        assert [r.completed for r in forked.runs] == [True, False, True, True]
        assert forked.runs[1].error == "NoConvergence: scripted failure"
        # curve, completed and error, byte for byte
        assert [pickle.dumps(r) for r in forked.runs] == [pickle.dumps(r) for r in serial.runs]

    def test_curves_stay_in_tube_around_full_data_curve(self, online_run):
        # scope all traces to the branch the online run actually supported
        # with data; outside it the surrogate fold is a regression artifact
        ds = online_run.model.dataset
        box = DomainBox(1.10, 1.35, 1.2, 2.9)
        ccfg = ContinuationConfig(h=0.1, h_max=0.3, max_steps=80, domain_box=box)
        x0 = (online_run.fold_points[2].omega, online_run.fold_points[2].A)
        full = offline_fold_trace(ds, hyper=online_run.hyper_fitted, cfg=ccfg, x0=x0)
        res = dropout_ensemble(ds, n_runs=12, dropout_fraction=0.1, seed=11,
                               fit_n_starts=1, hyper_init=online_run.hyper_fitted,
                               cfg=ccfg, x0=x0)
        assert res.completed_fraction >= 0.95
        dense = densify_polyline(full.as_array(), 30)
        hyp = online_run.hyper_fitted
        for run in res.runs:
            if not run.completed:
                continue
            for p in run.curve.points:
                d = np.hypot((dense[:, 0] - p.omega) / hyp.l_omega,
                             (dense[:, 1] - p.A) / hyp.l_A)
                i = int(np.argmin(d))
                if i in (0, len(dense) - 1):
                    continue  # overhang beyond the full curve's extent
                assert abs(p.gamma_model - dense[i, 2]) <= 0.05 * dense[i, 2]

    def test_without_hyper_init_the_full_dataset_is_fitted_once(self, monkeypatch,
                                                                duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        full = fit_hyperparameters(ds, initial_guess(ds), seed=4)
        real, fitted = postprocess.fit_hyperparameters, []

        def recording(data, init=None, **kw):
            fitted.append((data.n, init, kw.get("scale") is None))
            return real(data, init, **kw)

        monkeypatch.setattr(postprocess, "fit_hyperparameters", recording)
        res = dropout_ensemble(ds, n_runs=2, dropout_fraction=0.1, seed=4,
                               cfg=ContinuationConfig(max_steps=2))
        assert res.hyper_init == full
        # the full dataset, unscaled from the fit's own start; then each run, scaled from its optimum
        assert fitted == [(25, None, True), (22, full, False), (22, full, False)]

    def test_too_small_remainder_rejected(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.1, 1.5]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            dropout_ensemble(ds, n_runs=2, dropout_fraction=0.4,
                             cfg=ContinuationConfig(max_steps=200))


class TestEnsembleProcesses:
    """threads > 1 runs the dropout runs on forked worker processes."""

    def test_worker_exception_reaches_caller_with_its_type(self, monkeypatch, pool_spy,
                                                           duffing_params, duffing_hyper):
        _script_runs(monkeypatch, {2: _ScriptedBug("not a FoldtrackError")})
        ds = duffing_grid_dataset(duffing_params)
        with pytest.raises(_ScriptedBug, match="not a FoldtrackError"):
            dropout_ensemble(ds, n_runs=4, dropout_fraction=0.1, threads=2,
                             hyper_init=duffing_hyper, cfg=ContinuationConfig(max_steps=2))
        assert pool_spy == ([2] if FORK else [])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads, n_runs, cpus, workers", [
        (1000, 3, 8, 3),     # never more workers than runs
        (1000, 20, 4, 4),    # ... or than CPUs
        (2, 20, 8, 2),
        (4, 20, None, None),  # an unknown CPU count means one: no pool
        (1, 20, 8, None),
    ])
    def test_worker_count_capped(self, monkeypatch, duffing_params, duffing_hyper, threads,
                                 n_runs, cpus, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_InProcessPool, "sizes", [])
        monkeypatch.setattr(process, "ProcessPoolExecutor", _InProcessPool)
        _script_runs(monkeypatch, {i: NoConvergence("skip the fit") for i in range(n_runs)})
        ds = duffing_grid_dataset(duffing_params)
        res = dropout_ensemble(ds, n_runs=n_runs, dropout_fraction=0.1, threads=threads,
                               hyper_init=duffing_hyper, cfg=ContinuationConfig(max_steps=200))
        assert len(res.runs) == n_runs
        assert _InProcessPool.sizes == ([] if workers is None or not FORK else [workers])

    def test_serial_where_fork_is_not_offered(self, monkeypatch, duffing_params, duffing_hyper):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(_InProcessPool, "sizes", [])
        monkeypatch.setattr(process, "ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        _script_runs(monkeypatch, {i: NoConvergence("skip the fit") for i in range(4)})
        ds = duffing_grid_dataset(duffing_params)
        res = dropout_ensemble(ds, n_runs=4, dropout_fraction=0.1, threads=4,
                               hyper_init=duffing_hyper, cfg=ContinuationConfig(max_steps=200))
        assert [r.run_id for r in res.runs] == [0, 1, 2, 3]
        assert _InProcessPool.sizes == []

