"""Acceptance gate: one test per criterion, each printing a PASS line with its
runtime (run with `pytest tests/test_acceptance.py -s` to see them).

Tolerances are stated inline and match the package's documented guarantees.
"""

import time
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from conftest import TINY_NOISE, duffing_grid_dataset
from reference_oracles import (cs_mean_derivs, dense_log_marginal,
                               duffing_lower_fold_branch, isola_marker_count, linear_tip_frf)

from foldtrack.acquisition import AcquisitionConfig, generate_candidates, sensitivity_beta
from foldtrack.cli import main as cli_main
from foldtrack.config import config_from_dict
from foldtrack.continuation import ContinuationConfig, FoldPoint
from foldtrack.driver import run_trace
from foldtrack.errors import DuplicatePoint
from foldtrack.geometry import DomainBox
from foldtrack.gpr import Dataset, FitBounds, Hyperparameters, build, fit_hyperparameters, log_marginal
from foldtrack.oracles import DuffingOracle, DuffingParams, IsolaOracle, duffing_gamma
from foldtrack.postprocess import dropout_ensemble, nlfr_slice, offline_fold_trace
from foldtrack.rig import RigOracle, RigParams

DUFFING = DuffingParams(omega_n=1.0, zeta=0.02, alpha_3=0.05, noise_sigma=0.0)
BOX = DomainBox(0.95, 1.45, 0.05, 5.0)


def trace_config(noise_sigma=0.0, beta_tol=5e-3, h_max=0.15, max_steps=60, seed=42):
    return config_from_dict({
        "oracle": {"name": "duffing",
                   "params": {"omega_n": 1.0, "zeta": 0.02, "alpha_3": 0.05,
                              "noise_sigma": noise_sigma},
                   "domain_box": BOX.as_dict()},
        "init": {"x0": {"omega": 1.11, "A": 1.45}, "grid_shape": [5, 5],
                 "half_widths": {"omega": 0.05, "A": 0.45}},
        "hyperparameters": {"init": {"sigma_n2": 1e-6, "sigma_f2": 0.05,
                                     "l_omega": 0.05, "l_A": 0.45}},
        "continuation": {"h": 0.1, "h_max": h_max, "max_steps": max_steps},
        "acquisition": {"n_test": 50, "beta_tol": beta_tol, "n_max": 100,
                        "max_points_per_step": 10},
        "seed": seed,
    })


@pytest.fixture(scope="module")
def noiseless_run():
    return run_trace(trace_config())


def report(n, name, elapsed, budget):
    print(f"\nACCEPTANCE {n} {name}: PASS ({elapsed:.1f} s < {budget:.0f} s budget)")


def test_criterion_1_gpr_correctness_suite(duffing_params):
    """Interpolation < 1e-7 scaled, variance bounds, update-vs-rebuild 1e-8,
    analytic-vs-numerical derivatives 1e-5 relative, dense log-marginal 1e-8."""
    t0 = time.monotonic()
    ds = duffing_grid_dataset(duffing_params)
    hyper = Hyperparameters(TINY_NOISE, 0.04, 0.05, 0.45)
    model = build(ds, hyper)

    # interpolation exactness, noise-free
    scale = max(abs(ds.F).max(), 1.0)
    assert all(abs(model.predict_mean(tuple(x)) - f) < 1e-7 * scale
               for x, f in zip(ds.X, ds.F))

    # variance bounds everywhere
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = (rng.uniform(0.9, 1.4), rng.uniform(0.2, 3.0))
        assert 0.0 <= model.predict_var(x) <= hyper.sigma_f2 + 1e-10

    # add/remove vs rebuild to 1e-8
    m = model
    added = []
    for _ in range(15):
        x = (rng.uniform(1.0, 1.3), rng.uniform(0.5, 3.0))
        try:
            m = m.add_point(x, duffing_gamma(duffing_params, *x))
        except DuplicatePoint:
            continue
        added.append(x)
    for _ in range(7):
        m = m.remove_point(int(rng.integers(0, m.n)))
    fresh = build(m.dataset, hyper)
    assert np.allclose(m.alpha, fresh.alpha, rtol=1e-8, atol=1e-10)

    # analytic vs numerical-oracle derivatives, 1e-5 relative (1e-8 floor)
    for _ in range(50):
        x = (rng.uniform(1.06, 1.14), rng.uniform(1.1, 1.7))
        got = model.predict_mean_derivs(x)
        _, ref = cs_mean_derivs(ds.X, model.alpha, hyper.sigma_f2, hyper.l_omega,
                                hyper.l_A, x, 1e-5 * hyper.l_omega, 1e-5 * hyper.l_A)
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-5, abs=1e-8)

    # log marginal vs explicit inverse/determinant, 1e-8
    h2 = Hyperparameters(4e-4, 0.04, 0.05, 0.45)
    assert log_marginal(ds, h2) == pytest.approx(
        dense_log_marginal(ds.X, ds.F, 4e-4, 0.04, 0.05, 0.45), abs=1e-8)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, "GPR correctness suite", elapsed, 10)


def _check_against_brute_force(result, tol_gamma=0.02, tol_omega=0.005):
    """Traced curve vs the brute-force fold locus of the analytic surface."""
    omegas = np.array([p.omega for p in result.fold_points])
    ws, A_f, F_f = duffing_lower_fold_branch(1.0, 0.02, 0.05,
                                             omegas.min() - 0.02, omegas.max() + 0.06)
    for p in result.fold_points:
        g_ref = float(np.interp(p.omega, ws, F_f))      # same-frequency force level
        assert abs(p.gamma_model - g_ref) / g_ref <= tol_gamma
        w_ref = float(np.interp(p.gamma_model, F_f, ws))  # fold frequency at that force
        assert abs(p.omega - w_ref) / w_ref <= tol_omega


def test_criterion_2_duffing_fold_tracking():
    """Online fold curve within 2% in force and 0.5% in frequency of the
    brute-force locus, noiseless and at ~40 dB SNR, over >= 30 steps."""
    t0 = time.monotonic()
    clean = run_trace(trace_config())
    assert len(clean.steps) >= 30
    _check_against_brute_force(clean)

    # 40 dB SNR: noise std is 1% of the mean force over the initialization grid
    gw = np.linspace(1.06, 1.16, 5)
    ga = np.linspace(1.0, 1.9, 5)
    sigma = float(np.mean([duffing_gamma(DUFFING, w, a) for w in gw for a in ga])) / 100.0
    noisy = run_trace(trace_config(noise_sigma=sigma, beta_tol=4e-3, h_max=0.10))
    assert len(noisy.steps) >= 30
    _check_against_brute_force(noisy)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(2, "Duffing fold-tracking accuracy", elapsed, 120)


def test_criterion_3_isola_detection():
    """Constant-force slices: 2 fold markers below the documented threshold,
    3 above it, equal to the brute-force counts."""
    t0 = time.monotonic()
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
    cfg = ContinuationConfig(h=0.1, h_max=0.3, max_steps=150, domain_box=box)
    main_curve = offline_fold_trace(ds, hyper=hyper, cfg=cfg, x0=(1.2, 1.5))
    detached = offline_fold_trace(ds, hyper=hyper, cfg=cfg, x0=(1.42, 3.7))

    for level, expected in ((oracle.level_two_folds, 2), (oracle.level_three_folds, 3)):
        brute = isola_marker_count(oracle.params, box, level, band=0.05)
        assert brute == expected
        got = nlfr_slice([ds], level, 0.05, fold_curves=[main_curve, detached])
        assert len(got.markers) == expected

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, "isola detection", elapsed, 120)


def test_criterion_4_acquisition_behaviour(noiseless_run, duffing_box):
    """Collecting at the argmax-beta candidate strictly decreases beta there;
    >= 95% of steps finish their collection loop under the threshold."""
    t0 = time.monotonic()
    # sparse 9-point model
    ds = duffing_grid_dataset(DUFFING, center=(1.10, 1.41), half=(0.05, 0.45), shape=(3, 3))
    hyper = Hyperparameters(1e-8, 0.04, 0.05, 0.45)
    model = build(ds, hyper)
    oracle = DuffingOracle(DUFFING, duffing_box, seed=1)
    x_sol = FoldPoint(1.10, 1.41, model.predict_mean((1.10, 1.41)))
    cfg = AcquisitionConfig(n_test=50, beta_tol=1e-9)
    cands = generate_candidates(x_sol, cfg, rng_seed=(3, 0), hyper=hyper,
                                domain_box=duffing_box)
    betas = [sensitivity_beta(model, x, x_sol) for x in cands]
    x_star = cands[int(np.argmax(betas))]
    m = oracle.measure(*x_star)
    grown = model.add_point((m.omega, m.A), m.F)
    assert sensitivity_beta(grown, x_star, x_sol) < max(betas)

    # termination statistics across the full trace
    beta_tol = 5e-3
    steps = noiseless_run.steps
    assert all(len(s.collections) <= 10 for s in steps)
    under_tol = sum(s.beta_final < beta_tol for s in steps)
    assert under_tol / len(steps) >= 0.95

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, "acquisition behaviour", elapsed, 60)


def test_criterion_5_virtual_rig_physics():
    """(a) linear FRF within 2% near f1, (b) non-invasive open-loop replay
    within 2%, (c) S-curve force non-monotone above fold onset."""
    t0 = time.monotonic()
    box = DomainBox(9.0, 16.0, 0.02, 25.0)

    # (a) linear regime
    lin = RigOracle(RigParams(k3=0.0, noise_sigma=0.0), box, seed=1)
    for f in (10.8, 11.49, 12.2):
        m = lin.measure(f, 0.5)
        assert m.A / m.F == pytest.approx(abs(linear_tip_frf(lin.params, f)), rel=0.02)

    # (b) non-invasiveness on a stable branch
    rig = RigOracle(RigParams(noise_sigma=0.0), box, seed=2)
    point, _, coeffs = rig.picard_noninvasive(12.8, 2.0)
    _, Au, Bu = coeffs["u"]
    A_replay = rig.replay_open_loop(12.8, Au[0], Bu[0])
    assert A_replay == pytest.approx(point.A, rel=0.02)

    # (c) S signature above onset
    rig2 = RigOracle(RigParams(noise_sigma=0.0), box, seed=3)
    Fs = np.array([rig2.measure(12.8, float(a)).F for a in np.arange(0.5, 5.0, 0.375)])
    lmax = [i for i in range(1, len(Fs) - 1) if Fs[i] > Fs[i - 1] and Fs[i] > Fs[i + 1]]
    lmin = [i for i in range(1, len(Fs) - 1) if Fs[i] < Fs[i - 1] and Fs[i] < Fs[i + 1]]
    assert lmax and lmin and min(lmax) < max(lmin)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(5, "virtual rig physics", elapsed, 300)


def test_criterion_6_ensemble_protocol(noiseless_run):
    """30-run smoke profile of the 300-run/10%-dropout protocol: >= 95% of
    runs complete and the flat region spreads more than the resonant one."""
    t0 = time.monotonic()
    ds = noiseless_run.model.dataset
    box = DomainBox(1.10, 1.42, 1.2, 3.2)
    cfg = ContinuationConfig(h=0.1, h_max=0.25, max_steps=100, domain_box=box)
    x0 = (noiseless_run.fold_points[3].omega, noiseless_run.fold_points[3].A)
    result = dropout_ensemble(ds, n_runs=30, dropout_fraction=0.10, seed=17,
                              fit_n_starts=1, hyper_init=noiseless_run.hyper_fitted,
                              cfg=cfg, x0=x0)
    assert result.completed_fraction >= 0.95

    curves = []
    for r in result.runs:
        if r.completed:
            arr = r.curve.as_array()
            curves.append(arr[np.argsort(arr[:, 0])])
    lo = max(c[:, 0].min() for c in curves)
    hi = min(c[:, 0].max() for c in curves)
    ws = np.linspace(lo, hi, 60)
    G = np.array([np.interp(ws, c[:, 0], c[:, 2]) for c in curves])
    spread = G.std(axis=0) / G.mean(axis=0)
    third = len(ws) // 3

    # designation check: the low-frequency section really is the flat one
    # (the surface curvature |d2F/dA2| at the fold grows along the branch)
    from reference_oracles import duffing_fold_amplitudes, duffing_dF_dA
    def curvature(w):
        a = duffing_fold_amplitudes(1.0, 0.02, 0.05, w)[0]
        h = 1e-4
        return abs(duffing_dF_dA(1.0, 0.02, 0.05, w, a + h)
                   - duffing_dF_dA(1.0, 0.02, 0.05, w, a - h)) / (2 * h)
    assert curvature(float(ws[third // 2])) < curvature(float(ws[-third // 2]))

    flat = float(spread[:third].mean())
    resonant = float(spread[-third:].mean())
    assert flat > resonant

    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    report(6, "ensemble protocol", elapsed, 180)


def test_criterion_7_end_to_end_reproducibility(tmp_path):
    """cmd_trace re-run from its manifest reproduces all CSVs bit-identically."""
    t0 = time.monotonic()
    raw = {
        "oracle": {"name": "duffing",
                   "params": {"omega_n": 1.0, "zeta": 0.02, "alpha_3": 0.05,
                              "noise_sigma": 0.003},
                   "domain_box": BOX.as_dict()},
        "init": {"x0": {"omega": 1.11, "A": 1.45}, "grid_shape": [5, 5],
                 "half_widths": {"omega": 0.05, "A": 0.45}},
        "hyperparameters": {"init": {"sigma_n2": 1e-6, "sigma_f2": 0.05,
                                     "l_omega": 0.05, "l_A": 0.45}},
        "continuation": {"h": 0.1, "h_max": 0.15, "max_steps": 8},
        "acquisition": {"n_test": 30, "beta_tol": 5e-3},
        "seed": 123,
        "threads": 1,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    runner = CliRunner()
    r1 = runner.invoke(cli_main, ["trace", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "a")], catch_exceptions=False)
    assert r1.exit_code == 0
    r2 = runner.invoke(cli_main, ["trace", "--config", str(tmp_path / "a" / "manifest.json"),
                                  "--out", str(tmp_path / "b")], catch_exceptions=False)
    assert r2.exit_code == 0
    for name in ("run_log.csv", "collection_log.csv", "dataset.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    elapsed = time.monotonic() - t0
    report(7, "end-to-end reproducibility", elapsed, 60)
