import math
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import duffing_grid_dataset
from reference_oracles import (artificial_measurement, duffing_lower_fold_branch,
                               listed_candidates)

from foldtrack import acquisition
from foldtrack.acquisition import (AcquisitionConfig, add_measurement, generate_candidates,
                                   improve_solution, prune, sensitivity_beta)
from foldtrack.config import config_from_dict, load_raw
from foldtrack.continuation import (ContinuationConfig, FoldPoint, correct, find_first_fold,
                                    predict_step, tangent_at)
from foldtrack.driver import run_trace
from foldtrack.errors import CollectionCap, ContinuationError, DomainExhausted
from foldtrack.geometry import DomainBox
from foldtrack.gpr import Dataset, GprModel, build

CCFG = ContinuationConfig(h=0.1, h_max=0.3)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def fold(duffing_model):
    return find_first_fold(duffing_model, (1.10, 1.41), CCFG)


class TestGenerateCandidates:
    def test_all_candidates_inside_ellipse(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=50, beta_tol=0.01)
        a, b = 2 * duffing_hyper.l_omega, 2 * duffing_hyper.l_A
        pts = generate_candidates((1.1, 1.4), cfg, rng_seed=3, hyper=duffing_hyper)
        assert len(pts) == 50
        for om, A in pts:
            assert ((om - 1.1) / a) ** 2 + ((A - 1.4) / b) ** 2 <= 1.0 + 1e-12

    def test_empirical_mean_near_center(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=50, beta_tol=0.01)
        a = 2 * duffing_hyper.l_omega
        pts = np.array(generate_candidates((1.1, 1.4), cfg, rng_seed=3, hyper=duffing_hyper))
        assert abs(pts[:, 0].mean() - 1.1) < 0.15 * a

    def test_area_uniform_radial_distribution(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=4000, beta_tol=0.01)
        a, b = 2 * duffing_hyper.l_omega, 2 * duffing_hyper.l_A
        pts = np.array(generate_candidates((1.1, 1.4), cfg, rng_seed=9, hyper=duffing_hyper))
        r2 = ((pts[:, 0] - 1.1) / a) ** 2 + ((pts[:, 1] - 1.4) / b) ** 2
        # for an area-uniform draw, P(r^2 <= q) = q
        for q in (0.25, 0.5, 0.75):
            assert np.mean(r2 <= q) == pytest.approx(q, abs=0.03)

    def test_same_seed_reproduces(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=20, beta_tol=0.01)
        p1 = generate_candidates((1.1, 1.4), cfg, rng_seed=(5, 7), hyper=duffing_hyper)
        p2 = generate_candidates((1.1, 1.4), cfg, rng_seed=(5, 7), hyper=duffing_hyper)
        assert np.array_equal(p1, p2)

    def test_redraw_respects_domain_box(self, duffing_hyper):
        box = DomainBox(1.05, 1.12, 1.0, 1.8)
        cfg = AcquisitionConfig(n_test=40, beta_tol=0.01)
        pts = generate_candidates((1.1, 1.4), cfg, rng_seed=1, hyper=duffing_hyper,
                                  domain_box=box)
        for om, A in pts:
            assert box.contains(om, A)

    def test_box_test_is_elementwise_with_edges_inside(self):
        box = DomainBox(1.0, 2.0, 0.5, 1.5)
        om = np.array([1.0, 2.0, np.nextafter(2.0, 3.0), 1.5, 1.5])
        A = np.array([0.5, 1.5, 1.0, np.nextafter(0.5, 0.0), 1.0])
        assert box.contains(om, A).tolist() == [True, True, False, False, True]
        assert [bool(box.contains(w, a)) for w, a in zip(om, A)] == \
            [True, True, False, False, True]

    @pytest.mark.parametrize("box", [None, DomainBox(1.05, 1.12, 1.0, 1.8)],
                             ids=["no_box", "redraw"])
    def test_array_matches_the_listed_draws(self, duffing_hyper, box):
        # the box keeps about a sixth of the ellipse, so the first 600 draws give
        # about 100 candidates and the redraw path runs
        cfg = AcquisitionConfig(n_test=150, beta_tol=0.01)
        pts = generate_candidates((1.1, 1.4), cfg, rng_seed=(2, 3), hyper=duffing_hyper,
                                  domain_box=box)
        assert isinstance(pts, np.ndarray) and pts.dtype == float and pts.shape == (150, 2)
        listed = listed_candidates((1.1, 1.4), 150, (2, 3), duffing_hyper, box)
        assert list(map(tuple, pts.tolist())) == listed

    def test_domain_exhausted(self, duffing_hyper):
        box = DomainBox(3.0, 4.0, 10.0, 12.0)  # disjoint from the ellipse
        cfg = AcquisitionConfig(n_test=5, beta_tol=0.01)
        with pytest.raises(DomainExhausted):
            generate_candidates((1.1, 1.4), cfg, rng_seed=1, hyper=duffing_hyper,
                                domain_box=box)
        with pytest.raises(DomainExhausted):
            listed_candidates((1.1, 1.4), 5, 1, duffing_hyper, box)


class TestArtificialMeasurement:
    def test_at_training_point_noise_free(self, duffing_model):
        x0 = tuple(duffing_model.dataset.X[5])
        f0 = duffing_model.dataset.F[5]
        assert artificial_measurement(duffing_model, x0) == pytest.approx(f0, abs=1e-4)

    def test_far_from_data_prior(self, duffing_model):
        far = (10.0, 40.0)
        sf = math.sqrt(duffing_model.hyper.sigma_f2)
        assert artificial_measurement(duffing_model, far) == pytest.approx(0.0 + sf, rel=1e-9)

    def test_never_below_mean(self, duffing_model):
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = (rng.uniform(1.0, 1.2), rng.uniform(0.8, 2.0))
            assert artificial_measurement(duffing_model, x) >= duffing_model.predict_mean(x)


class TestSensitivityBeta:
    def test_duplicate_candidate_scores_zero(self, duffing_model, fold):
        x0 = tuple(duffing_model.dataset.X[5])
        assert sensitivity_beta(duffing_model, x0, fold) == 0.0

    def test_positive_on_sparse_model(self, duffing_hyper):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.uniform(1.05, 1.15, 5), rng.uniform(1.0, 1.8, 5)])
        m = build(Dataset(X, rng.uniform(0.1, 0.3, 5)), duffing_hyper)
        x_sol = FoldPoint(1.10, 1.4, m.predict_mean((1.10, 1.4)))
        assert sensitivity_beta(m, (1.10, 1.4), x_sol) > 0.0

    def test_incremental_equals_rebuild(self, duffing_model, fold):
        x_c = (1.12, 1.25)
        f_bar = artificial_measurement(duffing_model, x_c)
        beta_inc = sensitivity_beta(duffing_model, x_c, fold)
        rebuilt = build(duffing_model.dataset.append(x_c, f_bar), duffing_model.hyper)
        g0 = duffing_model.predict_mean_derivs((fold.omega, fold.A)).d_A
        g1 = rebuilt.predict_mean_derivs((fold.omega, fold.A)).d_A
        assert beta_inc == pytest.approx(abs(g1 - g0), abs=1e-8)

    def test_scoring_never_mutates_base_model(self, duffing_model, fold, duffing_hyper):
        alpha_before = duffing_model.alpha.tobytes()
        chol_before = duffing_model.chol.tobytes()
        cfg = AcquisitionConfig(n_test=30, beta_tol=0.01)
        for x in generate_candidates(fold, cfg, rng_seed=4, hyper=duffing_hyper):
            sensitivity_beta(duffing_model, x, fold)
        assert duffing_model.alpha.tobytes() == alpha_before
        assert duffing_model.chol.tobytes() == chol_before
        assert duffing_model.n == 25


class TestImproveSolution:
    def test_dense_data_needs_no_collection(self, duffing_params, duffing_hyper,
                                            duffing_oracle, fold):
        dense = duffing_grid_dataset(duffing_params, center=(fold.omega, fold.A),
                                     half=(0.05, 0.45), shape=(9, 9))
        model = build(dense, duffing_hyper)
        t = tangent_at(model, fold, None)
        cfg = AcquisitionConfig(n_test=50, beta_tol=0.01)
        res = improve_solution(model, duffing_oracle, fold, t, cfg, CCFG, seed=1)
        assert res.collections == []
        assert res.beta_max_final < cfg.beta_tol

    def test_collection_reduces_beta_at_collected_point(self, duffing_model, duffing_oracle,
                                                        duffing_hyper, fold):
        cfg = AcquisitionConfig(n_test=50, beta_tol=1e-9, max_points_per_step=1)
        cands = generate_candidates(fold, cfg, rng_seed=(1, 0), hyper=duffing_hyper,
                                    domain_box=duffing_oracle.domain_box)
        betas = [sensitivity_beta(duffing_model, x, fold) for x in cands]
        x_best = cands[int(np.argmax(betas))]
        beta_before = max(betas)
        meas = duffing_oracle.measure(*x_best)
        grown = duffing_model.add_point((meas.omega, meas.A), meas.F)
        beta_after = sensitivity_beta(grown, x_best, fold)
        assert beta_after < beta_before

    def test_terminates_under_tolerance(self, duffing_model, duffing_oracle, fold):
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=50, beta_tol=5e-3, max_points_per_step=10)
        res = improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=2)
        assert res.beta_max_final < cfg.beta_tol
        assert len(res.collections) <= cfg.max_points_per_step

    @pytest.mark.parametrize("beta_tol, cap, capped", [(5e-3, 10, False), (1e-12, 3, True)],
                             ids=["under_tolerance", "collection_cap"])
    def test_one_batched_scoring_call_per_round(self, duffing_model, duffing_oracle, fold,
                                                monkeypatch, beta_tol, cap, capped):
        calls = []
        batched = GprModel.predict_var_and_cov_d_A

        def counted(self, x, C):
            calls.append(len(C))
            return batched(self, x, C)

        monkeypatch.setattr(GprModel, "predict_var_and_cov_d_A", counted)
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=50, beta_tol=beta_tol, max_points_per_step=cap)
        with pytest.warns(CollectionCap) if capped else nullcontext():
            res = improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=2)
        assert len(res.collections) > 0
        assert len(calls) == len(res.collections) + 1
        assert all(m > 1 for m in calls)

    def test_collection_cap_carries_partial_result(self, duffing_model, duffing_oracle, fold):
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=20, beta_tol=1e-12, max_points_per_step=3)
        with pytest.warns(CollectionCap):
            res = improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=3)
        assert len(res.collections) == 3
        assert res.model.n == duffing_model.n + 3

    def test_model_size_never_exceeds_cap(self, duffing_model, duffing_oracle, fold):
        t = tangent_at(duffing_model, fold, None)
        n_max = duffing_model.n + 2
        cfg = AcquisitionConfig(n_test=20, beta_tol=1e-12, max_points_per_step=5, n_max=n_max)
        with pytest.warns(CollectionCap):
            res = improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=3)
        assert res.model.n <= n_max

    def test_deterministic_collection_log(self, duffing_model, duffing_params,
                                          duffing_box, fold):
        from foldtrack.oracles import DuffingOracle
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=30, beta_tol=5e-3, max_points_per_step=10)
        logs = []
        for _ in range(2):
            oracle = DuffingOracle(duffing_params, duffing_box, seed=11)
            res = improve_solution(duffing_model, oracle, fold, t, cfg, CCFG, seed=9)
            logs.append([(c.omega_meas, c.A_meas, c.F_meas, c.beta_max)
                         for c in res.collections])
        assert logs[0] == logs[1]


class TestAddMeasurement:
    def test_refresh_move_beyond_the_bound_raises(self, duffing_model, duffing_oracle, fold,
                                                  monkeypatch):
        t = tangent_at(duffing_model, fold, None)
        meas = duffing_oracle.measure(fold.omega + 0.02, fold.A + 0.1)
        model, moved = add_measurement(duffing_model, fold, t, meas, 100, CCFG)
        assert model.n == duffing_model.n + 1 and moved != fold
        monkeypatch.setattr(acquisition, "MAX_REFRESH_MOVE", 0.0)
        with pytest.raises(ContinuationError, match="refresh moved the fold"):
            add_measurement(duffing_model, fold, t, meas, 100, CCFG)

    @pytest.mark.parametrize("seed", [160, 249])
    def test_capped_noisy_folds_stay_on_the_locus(self, seed):
        # at these seeds a refresh used to jump onto another part of the zero
        # set, after which the logged folds missed the locus by up to 61% in force
        raw = load_raw(CONFIGS / "duffing_noisy.yaml")
        raw["acquisition"]["n_max"] = 40
        result = run_trace(replace(config_from_dict(raw), seed=seed))
        # the lower fold branch from just above its cusp (1.0352) to the box edge
        ws, _, F_f = duffing_lower_fold_branch(1.0, 0.02, 0.05, 1.04, 1.45)
        for p in result.fold_points:
            g_ref = float(np.interp(p.omega, ws, F_f))
            assert abs(p.gamma_model - g_ref) / g_ref <= 0.05


class TestPrune:
    def test_at_cap_unchanged(self, duffing_model, fold):
        out = prune(duffing_model, fold, duffing_model.n)
        assert out is duffing_model

    def test_zero_influence_point_removed_first(self, duffing_hyper, fold):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.uniform(1.08, 1.12, 8), rng.uniform(1.2, 1.6, 8)])
        X = np.vstack([X, [3.0, 4.0]])  # far outside the correlated neighbourhood
        F = np.append(rng.uniform(0.1, 0.3, 8), 0.7)
        m = build(Dataset(X, F), duffing_hyper)
        pruned = prune(m, fold, 8)
        assert pruned.n == 8
        assert not np.any(np.all(pruned.dataset.X == [3.0, 4.0], axis=1))

    def test_fold_condition_shift_bounded(self, duffing_hyper, fold):
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.uniform(1.05, 1.15, 10), rng.uniform(1.1, 1.7, 10)])
        X = np.vstack([X, [2.8, 3.8], [3.2, 4.2]])
        F = np.append(rng.uniform(0.1, 0.3, 10), [0.5, 0.6])
        m = build(Dataset(X, F), duffing_hyper)
        g_before = m.predict_mean_derivs((fold.omega, fold.A)).d_A
        influences = []
        for i in range(m.n):
            g_i = m.remove_point(i).predict_mean_derivs((fold.omega, fold.A)).d_A
            influences.append(abs(g_i - g_before))
        pruned = prune(m, fold, 10)
        g_after = pruned.predict_mean_derivs((fold.omega, fold.A)).d_A
        assert abs(g_after - g_before) < max(influences)


class TestOnePointConvention:
    """A FoldPoint is its (omega, A) point wherever one is taken."""

    @pytest.fixture(scope="class")
    def pair(self, fold):
        return (fold.omega, fold.A)

    def test_continuation_and_acquisition_take_either(self, duffing_model, fold, pair):
        t = tangent_at(duffing_model, fold)
        assert predict_step(fold, t, 0.1, duffing_model.hyper) == \
            predict_step(pair, t, 0.1, duffing_model.hyper)
        x_pred = predict_step(pair, t, 0.1, duffing_model.hyper)
        assert correct(duffing_model, fold, pair, t, 0.0, CCFG) == \
            correct(duffing_model, pair, pair, t, 0.0, CCFG)
        assert correct(duffing_model, x_pred, fold, t, 0.1, CCFG) == \
            correct(duffing_model, x_pred, pair, t, 0.1, CCFG)
        cfg = AcquisitionConfig(n_test=20)
        candidates = generate_candidates(fold, cfg, 5, duffing_model.hyper)
        assert np.array_equal(candidates,
                              generate_candidates(pair, cfg, 5, duffing_model.hyper))
        np.testing.assert_array_equal(sensitivity_beta(duffing_model, candidates, fold),
                                      sensitivity_beta(duffing_model, candidates, pair))
        one = sensitivity_beta(duffing_model, fold, x_pred)
        assert isinstance(one, float) and one == sensitivity_beta(duffing_model, pair, x_pred)
        n_max = duffing_model.n - 2
        np.testing.assert_array_equal(prune(duffing_model, fold, n_max).dataset.X,
                                      prune(duffing_model, pair, n_max).dataset.X)

    def test_gpr_model_takes_either(self, duffing_model, fold, pair):
        m = duffing_model
        assert m.predict_mean(fold) == m.predict_mean(pair)
        assert m.predict_mean_derivs(fold) == m.predict_mean_derivs(pair)
        assert m.predict_var(fold) == m.predict_var(pair)
        np.testing.assert_array_equal(m.loo_shifts(m.pass_at(fold)), m.loo_shifts(m.pass_at(pair)))
        a, b = m.add_point(fold, 0.3), m.add_point(pair, 0.3)
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        for got, ref in zip(m.predict_var_and_cov_d_A(fold, fold),
                            m.predict_var_and_cov_d_A(pair, pair)):
            np.testing.assert_array_equal(got, ref)

    def test_dataset_takes_either(self, duffing_model, fold, pair):
        ds = duffing_model.dataset
        np.testing.assert_array_equal(ds.append(fold, 0.3).X, ds.append(pair, 0.3).X)
        assert ds.duplicate_of(fold) == ds.duplicate_of(pair) == [-1]
        assert ds.duplicate_of(FoldPoint(*ds.X[7], 0.3)) == [7]
