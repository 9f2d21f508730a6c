import math

import numpy as np
import pytest

from conftest import duffing_grid_dataset
from reference_oracles import artificial_measurement

from foldtrack.acquisition import (AcquisitionConfig, generate_candidates, improve_solution,
                                   prune, sensitivity_beta)
from foldtrack.continuation import (ContinuationConfig, FoldPoint, find_first_fold,
                                    tangent_at)
from foldtrack.errors import CollectionCap, DomainExhausted
from foldtrack.geometry import DomainBox
from foldtrack.gpr import Dataset, GprModel, build

CCFG = ContinuationConfig(h=0.1, h_min=1e-3, h_max=0.3, newton_tol=1e-8)


@pytest.fixture(scope="module")
def fold(duffing_model):
    return find_first_fold(duffing_model, (1.10, 1.41), CCFG)


class TestGenerateCandidates:
    def test_degenerate_ellipse_returns_center(self):
        cfg = AcquisitionConfig(n_test=1, beta_tol=0.01,
                                ellipse_semi_omega=0.0, ellipse_semi_A=0.0)
        pts = generate_candidates((1.0, 2.0), cfg, rng_seed=0)
        assert pts == [(1.0, 2.0)]

    def test_all_candidates_inside_ellipse(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=50, beta_tol=0.01)
        a, b = cfg.semi_axes(duffing_hyper)
        assert a == 2 * duffing_hyper.l_omega and b == 2 * duffing_hyper.l_A
        pts = generate_candidates((1.1, 1.4), cfg, rng_seed=3, hyper=duffing_hyper)
        assert len(pts) == 50
        for om, A in pts:
            assert ((om - 1.1) / a) ** 2 + ((A - 1.4) / b) ** 2 <= 1.0 + 1e-12

    def test_empirical_mean_near_center(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=50, beta_tol=0.01)
        a, _ = cfg.semi_axes(duffing_hyper)
        pts = np.array(generate_candidates((1.1, 1.4), cfg, rng_seed=3, hyper=duffing_hyper))
        assert abs(pts[:, 0].mean() - 1.1) < 0.15 * a

    def test_area_uniform_radial_distribution(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=4000, beta_tol=0.01)
        a, b = cfg.semi_axes(duffing_hyper)
        pts = np.array(generate_candidates((1.1, 1.4), cfg, rng_seed=9, hyper=duffing_hyper))
        r2 = ((pts[:, 0] - 1.1) / a) ** 2 + ((pts[:, 1] - 1.4) / b) ** 2
        # for an area-uniform draw, P(r^2 <= q) = q
        for q in (0.25, 0.5, 0.75):
            assert np.mean(r2 <= q) == pytest.approx(q, abs=0.03)

    def test_same_seed_reproduces(self, duffing_hyper):
        cfg = AcquisitionConfig(n_test=20, beta_tol=0.01)
        p1 = generate_candidates((1.1, 1.4), cfg, rng_seed=(5, 7), hyper=duffing_hyper)
        p2 = generate_candidates((1.1, 1.4), cfg, rng_seed=(5, 7), hyper=duffing_hyper)
        assert p1 == p2

    def test_redraw_respects_domain_box(self, duffing_hyper):
        box = DomainBox(1.05, 1.12, 1.0, 1.8)
        cfg = AcquisitionConfig(n_test=40, beta_tol=0.01)
        pts = generate_candidates((1.1, 1.4), cfg, rng_seed=1, hyper=duffing_hyper,
                                  domain_box=box)
        for om, A in pts:
            assert box.contains(om, A)

    def test_domain_exhausted(self, duffing_hyper):
        box = DomainBox(3.0, 4.0, 10.0, 12.0)  # disjoint from the ellipse
        cfg = AcquisitionConfig(n_test=5, beta_tol=0.01)
        with pytest.raises(DomainExhausted):
            generate_candidates((1.1, 1.4), cfg, rng_seed=1, hyper=duffing_hyper,
                                domain_box=box)


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

    @pytest.mark.parametrize("beta_tol, cap", [(5e-3, 10), (1e-12, 3)],
                             ids=["under_tolerance", "collection_cap"])
    def test_one_batched_scoring_call_per_round(self, duffing_model, duffing_oracle, fold,
                                                monkeypatch, beta_tol, cap):
        calls = []
        batched = GprModel.predict_var_and_cov_d_A

        def counted(self, x, C):
            calls.append(len(C))
            return batched(self, x, C)

        monkeypatch.setattr(GprModel, "predict_var_and_cov_d_A", counted)
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=50, beta_tol=beta_tol, max_points_per_step=cap)
        try:
            res = improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=2)
        except CollectionCap as e:
            res = e.result
        assert len(res.collections) > 0
        assert len(calls) == len(res.collections) + 1
        assert all(m > 1 for m in calls)

    def test_collection_cap_carries_partial_result(self, duffing_model, duffing_oracle, fold):
        t = tangent_at(duffing_model, fold, None)
        cfg = AcquisitionConfig(n_test=20, beta_tol=1e-12, max_points_per_step=3)
        with pytest.raises(CollectionCap) as exc:
            improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=3)
        res = exc.value.result
        assert len(res.collections) == 3
        assert res.model.n == duffing_model.n + 3

    def test_model_size_never_exceeds_cap(self, duffing_model, duffing_oracle, fold):
        t = tangent_at(duffing_model, fold, None)
        n_max = duffing_model.n + 2
        cfg = AcquisitionConfig(n_test=20, beta_tol=1e-12, max_points_per_step=5, n_max=n_max)
        with pytest.raises(CollectionCap) as exc:
            improve_solution(duffing_model, duffing_oracle, fold, t, cfg, CCFG, seed=3)
        assert exc.value.result.model.n <= n_max

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
