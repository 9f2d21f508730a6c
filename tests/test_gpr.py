import math

import numpy as np
import pytest
import yaml

from conftest import TINY_NOISE, duffing_grid_dataset
from reference_oracles import (cs_mean_derivs, dense_log_marginal, dense_log_marginal_grad,
                               dense_loo_mean_d_A_shift, dense_predict, se_kernel_matrix)

from foldtrack.errors import DuplicatePoint, IndexOutOfRange
from foldtrack.gpr import (Dataset, FitBounds, Hyperparameters, _LogMarginal, build,
                           default_fit_bounds, fit_hyperparameters, kernel, log_marginal)
from foldtrack.oracles import DuffingParams, duffing_gamma


class TestHyperparameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Hyperparameters(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Hyperparameters(1.0, 1.0, math.inf, 1.0)

    def test_dict_round_trip_exact(self):
        h = Hyperparameters(0.02, 2.02, 0.30, 1.09)
        assert Hyperparameters.from_dict(h.as_dict()) == h

    def test_yaml_round_trip_exact(self):
        h = Hyperparameters(1.2345678901234567e-5, 2.02, 0.1 + 0.2, 1.09)
        loaded = Hyperparameters.from_dict(yaml.safe_load(yaml.safe_dump(h.as_dict())))
        assert loaded == h


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, 2.0]]), np.array([np.inf]))

    def test_duplicate_inputs_rejected(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            Dataset(X, np.zeros(3))

    def test_append_drop(self):
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([3.0]))
        ds2 = ds.append((1.5, 2.5), 4.0)
        assert ds2.n == 2 and ds.n == 1
        assert ds2.drop(1).n == 1
        with pytest.raises(IndexOutOfRange):
            ds2.drop(2)


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        h = Hyperparameters(0.1, 2.5, 0.3, 1.1)
        assert kernel((1.2, 3.4), (1.2, 3.4), h) == 2.5

    def test_unit_case(self):
        h = Hyperparameters(0.1, 1.0, 1.0, 1.0)
        assert kernel((0.0, 0.0), (1.0, 0.0), h) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_symmetry_exact(self):
        h = Hyperparameters(0.1, 1.7, 0.4, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x1, x2 = rng.uniform(-3, 3, size=(2, 2))
            assert kernel(tuple(x1), tuple(x2), h) == kernel(tuple(x2), tuple(x1), h)

    def test_bounded_by_signal_variance(self):
        h = Hyperparameters(0.1, 1.7, 0.4, 2.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x1, x2 = rng.uniform(-3, 3, size=(2, 2))
            assert 0.0 < kernel(tuple(x1), tuple(x2), h) <= 1.7


class TestBuild:
    def test_empty_dataset_prior(self):
        h = Hyperparameters(0.1, 2.0, 1.0, 1.0)
        m = build(Dataset.empty(), h)
        assert m.n == 0
        assert m.predict_mean((0.3, -1.0)) == 0.0
        assert m.predict_var((0.3, -1.0)) == 2.0

    def test_single_point_alpha(self):
        h = Hyperparameters(TINY_NOISE, 0.8, 1.0, 1.0)
        m = build(Dataset(np.array([[1.0, 2.0]]), np.array([3.0])), h)
        assert m.alpha[0] == pytest.approx(3.0 / 0.8, rel=1e-8)

    def test_factor_reconstructs_covariance(self, duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        h = Hyperparameters(1e-4, 0.04, 0.05, 0.85)
        m = build(ds, h)
        K_ref = se_kernel_matrix(ds.X, ds.X, 0.04, 0.05, 0.85) + 1e-4 * np.eye(ds.n)
        err = np.linalg.norm(m.chol @ m.chol.T - K_ref) / np.linalg.norm(K_ref)
        assert err < 1e-8

    def test_alpha_residual(self, duffing_model):
        ds = duffing_model.dataset
        h = duffing_model.hyper
        K = se_kernel_matrix(ds.X, ds.X, h.sigma_f2, h.l_omega, h.l_A) \
            + h.sigma_n2 * np.eye(ds.n)
        res = np.linalg.norm(K @ duffing_model.alpha - ds.F) / np.linalg.norm(ds.F)
        assert res < 1e-8

    def test_rebuild_bit_identical(self, duffing_params, duffing_hyper):
        ds = duffing_grid_dataset(duffing_params)
        m1, m2 = build(ds, duffing_hyper), build(ds, duffing_hyper)
        assert np.array_equal(m1.chol, m2.chol)
        assert np.array_equal(m1.alpha, m2.alpha)

    def test_jitter_ladder_recovers_indefinite_matrix(self):
        from foldtrack.gpr import _factorize
        h = Hyperparameters(1e-12, 1.0, 1.0, 1.0)
        pts = [[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]]  # lambda_min ~ 5e-9
        K = se_kernel_matrix(pts, pts, 1.0, 1.0, 1.0)
        K -= 1e-8 * np.eye(3)  # slightly indefinite: plain factorization fails
        assert np.linalg.eigvalsh(K)[0] < 0
        L, jitter = _factorize(K, h)
        assert jitter > 0.0
        assert np.all(np.isfinite(L))

    def test_factorization_failure_when_jitter_exhausted(self):
        from foldtrack.errors import FactorizationFailure
        from foldtrack.gpr import _factorize
        h = Hyperparameters(1e-12, 1.0, 1.0, 1.0)
        K = -np.eye(3)  # beyond any jitter in the ladder
        with pytest.raises(FactorizationFailure):
            _factorize(K, h)


class TestPredictMean:
    def test_zero_outputs(self):
        h = Hyperparameters(0.1, 1.0, 1.0, 1.0)
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros(2))
        m = build(ds, h)
        assert m.predict_mean((0.3, 0.7)) == 0.0

    def test_interpolates_noise_free(self, duffing_model):
        ds = duffing_model.dataset
        worst = max(abs(duffing_model.predict_mean(tuple(x)) - f)
                    for x, f in zip(ds.X, ds.F))
        assert worst < 1e-8 * max(abs(ds.F).max(), 1.0)

    def test_matches_analytic_surface_at_center(self, duffing_params, duffing_model):
        from foldtrack.oracles import duffing_gamma
        x_star = (1.10, 1.41)
        pred = duffing_model.predict_mean(x_star)
        truth = duffing_gamma(duffing_params, *x_star)
        assert pred == pytest.approx(truth, rel=0.01)

    def test_matches_dense_algebra(self, duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        h = Hyperparameters(1e-3, 0.04, 0.05, 0.85)
        m = build(ds, h)
        x_star = (1.08, 1.6)
        mean_ref, var_ref = dense_predict(ds.X, ds.F, x_star, 1e-3, 0.04, 0.05, 0.85)
        assert m.predict_mean(x_star) == pytest.approx(mean_ref, abs=1e-10)
        assert m.predict_var(x_star) == pytest.approx(var_ref, abs=1e-10)


class TestPredictVar:
    def test_prior_variance_on_empty(self):
        m = build(Dataset.empty(), Hyperparameters(0.1, 3.3, 1.0, 1.0))
        assert m.predict_var((5.0, 5.0)) == 3.3

    def test_zero_at_training_point_noise_free(self, duffing_model):
        x0 = tuple(duffing_model.dataset.X[7])
        assert duffing_model.predict_var(x0) < 1e-8

    def test_single_point_shrinkage_formula(self):
        sf2, sn2 = 0.8, 0.09
        m = build(Dataset(np.array([[0.5, 0.5]]), np.array([2.0])),
                  Hyperparameters(sn2, sf2, 1.0, 1.0))
        assert m.predict_var((0.5, 0.5)) == pytest.approx(sf2 * sn2 / (sf2 + sn2), rel=1e-12)

    def test_bounded_by_signal_variance(self, duffing_model):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = (rng.uniform(1.0, 1.2), rng.uniform(0.8, 2.0))
            v = duffing_model.predict_var(x)
            assert 0.0 <= v <= 0.04 + 1e-10


class TestPredictMeanDerivs:
    def test_zero_outputs_zero_derivatives(self):
        h = Hyperparameters(0.1, 1.0, 1.0, 1.0)
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros(2))
        d = build(ds, h).predict_mean_derivs((0.3, 0.7))
        assert d == (0.0, 0.0, 0.0, 0.0)

    def test_matches_complex_step_oracle(self, duffing_model):
        h = duffing_model.hyper
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = (rng.uniform(1.06, 1.14), rng.uniform(1.1, 1.7))
            d = duffing_model.predict_mean_derivs(x)
            mean_ref, ref = cs_mean_derivs(duffing_model.dataset.X, duffing_model.alpha,
                                           h.sigma_f2, h.l_omega, h.l_A, x,
                                           1e-5 * h.l_omega, 1e-5 * h.l_A)
            assert mean_ref == pytest.approx(duffing_model.predict_mean(x), abs=1e-12)
            for a, b in zip(d, ref):
                assert a == pytest.approx(b, rel=1e-5, abs=1e-8)

    def test_even_symmetry_in_A(self):
        # three points mirrored about A0 with equal outputs: odd derivative vanishes
        A0 = 2.0
        ds = Dataset(np.array([[1.0, A0 - 0.4], [1.0, A0], [1.0, A0 + 0.4]]),
                     np.array([1.5, 1.5, 1.5]))
        m = build(ds, Hyperparameters(1e-10, 1.0, 1.0, 0.5))
        assert abs(m.predict_mean_derivs((1.0, A0)).d_A) < 1e-10



class TestLooMeanShift:
    @pytest.mark.parametrize("x", [(1.08, 1.6), (1.13, 1.0)])
    def test_matches_dense_inverse(self, duffing_params, x):
        ds = duffing_grid_dataset(duffing_params)
        m = build(ds, Hyperparameters(1e-3, 0.04, 0.05, 0.85))
        ref = dense_loo_mean_d_A_shift(ds.X, ds.F, x, 1e-3, 0.04, 0.05, 0.85)
        assert np.max(np.abs(m.loo_mean_d_A_shift(x) - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_leaves_the_factor_alone(self, duffing_model):
        chol = duffing_model.chol.copy()
        duffing_model.loo_mean_d_A_shift((1.08, 1.6))
        assert np.array_equal(duffing_model.chol, chol)

class TestLogMarginal:
    def test_single_zero_output(self):
        h = Hyperparameters(0.3, 1.7, 1.0, 1.0)
        ds = Dataset(np.array([[0.0, 0.0]]), np.array([0.0]))
        expected = -0.5 * math.log(1.7 + 0.3) - 0.5 * math.log(2 * math.pi)
        assert log_marginal(ds, h) == pytest.approx(expected, rel=1e-12)

    def test_single_general_output(self):
        h = Hyperparameters(0.3, 1.7, 1.0, 1.0)
        F0 = -2.5
        ds = Dataset(np.array([[0.0, 0.0]]), np.array([F0]))
        expected = (-0.5 * F0**2 / 2.0 - 0.5 * math.log(2.0)
                    - 0.5 * math.log(2 * math.pi))
        assert log_marginal(ds, h) == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_algebra(self, duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        ref = dense_log_marginal(ds.X, ds.F, 4e-4, 0.04, 0.05, 0.85)
        got = log_marginal(ds, Hyperparameters(4e-4, 0.04, 0.05, 0.85))
        assert got == pytest.approx(ref, abs=1e-8)

    def test_decreasing_in_output_norm(self, duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        h = Hyperparameters(1e-3, 0.04, 0.05, 0.85)
        bigger = Dataset(ds.X, 3.0 * ds.F)
        assert log_marginal(bigger, h) < log_marginal(ds, h)


def _sweep_dataset() -> Dataset:
    """A noisy Duffing S-curve sweep (15 x 19 points, 1% noise) with 256 of its points kept."""
    W, A = np.meshgrid(np.linspace(1.0, 1.21, 15), np.linspace(0.2, 3.0, 19), indexing="ij")
    W, A = W.ravel(), A.ravel()
    rng = np.random.default_rng(0)
    F = duffing_gamma(DuffingParams(), W, A)
    F = np.maximum(F + 0.01 * F.mean() * rng.standard_normal(F.shape), 0.0)
    keep = np.sort(rng.choice(len(F), 256, replace=False))
    return Dataset(np.column_stack([W, A])[keep], F[keep])


class TestLikelihoodGradient:
    # hyperparameters away from the optimum, where every gradient entry is O(1) or larger
    CASES = [("grid25", Hyperparameters(4e-4, 0.04, 0.05, 0.85)),
             ("sweep256", Hyperparameters(1e-3, 1.0, 0.05, 0.5))]

    @staticmethod
    def _dataset(name, duffing_params):
        return duffing_grid_dataset(duffing_params) if name == "grid25" else _sweep_dataset()

    @pytest.mark.parametrize("name, hyper", CASES, ids=[c[0] for c in CASES])
    def test_matches_central_differences_of_log_marginal(self, duffing_params, name, hyper):
        ds = self._dataset(name, duffing_params)
        z = np.log(hyper.as_array())
        value, grad = _LogMarginal(ds)(z)
        assert value == log_marginal(ds, Hyperparameters.from_array(np.exp(z)))
        step = 1e-4
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            up, down = (log_marginal(ds, Hyperparameters.from_array(np.exp(z + s * e)))
                        for s in (1, -1))
            assert grad[i] == pytest.approx((up - down) / (2 * step), rel=1e-6)

    @pytest.mark.parametrize("name, hyper", CASES, ids=[c[0] for c in CASES])
    def test_matches_dense_algebra(self, duffing_params, name, hyper):
        ds = self._dataset(name, duffing_params)
        _, grad = _LogMarginal(ds)(np.log(hyper.as_array()))
        ref = dense_log_marginal_grad(ds.X, ds.F, *hyper.as_array())
        assert np.max(np.abs(grad - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestFitHyperparameters:
    def test_recovers_length_scales_from_gp_draw(self):
        rng = np.random.default_rng(12)
        true = Hyperparameters(1e-6, 1.0, 0.5, 2.0)
        X = np.column_stack([rng.uniform(0, 3, 50), rng.uniform(0, 10, 50)])
        K = se_kernel_matrix(X, X, true.sigma_f2, true.l_omega, true.l_A)
        F = np.linalg.cholesky(K + 1e-10 * np.eye(50)) @ rng.standard_normal(50)
        ds = Dataset(X, F)
        init = Hyperparameters(1e-4, 0.3, 1.5, 6.0)
        fit = fit_hyperparameters(ds, init, seed=0)
        assert true.l_omega / 2 <= fit.l_omega <= true.l_omega * 2
        assert true.l_A / 2 <= fit.l_A <= true.l_A * 2

    def test_never_worse_than_init(self, duffing_params):
        ds = duffing_grid_dataset(duffing_params)
        init = Hyperparameters(1e-6, np.var(ds.F) + 1e-3, 0.05, 0.45)
        fit = fit_hyperparameters(ds, init, seed=1)
        assert log_marginal(ds, fit) >= log_marginal(ds, init) - 1e-12

    def test_constant_zero_data_drives_signal_variance_down(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)])
        ds = Dataset(X, np.zeros(12))
        bounds = FitBounds(sigma_n2=(1e-8, 1.0), sigma_f2=(1e-6, 10.0),
                           l_omega=(0.05, 5.0), l_A=(0.05, 5.0))
        fit = fit_hyperparameters(ds, Hyperparameters(0.01, 1.0, 0.5, 0.5),
                                  bounds=bounds, seed=0)
        assert fit.sigma_f2 <= 1e-6 * 10  # pushed to the bottom decade of its range

    def test_constant_nonzero_data_returns_without_error(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)])
        ds = Dataset(X, np.full(12, 2.5))
        fit = fit_hyperparameters(ds, Hyperparameters(0.01, 1.0, 0.5, 0.5), seed=0)
        lo, hi = default_fit_bounds(ds).sigma_f2
        assert lo <= fit.sigma_f2 <= hi

    def test_evaluates_its_start_point_once(self, duffing_params, monkeypatch):
        ds = duffing_grid_dataset(duffing_params)
        init = Hyperparameters(1e-6, 0.05, 0.05, 0.45)
        seen = []
        call = _LogMarginal.__call__

        def recording(self, z):
            seen.append(np.array(z))
            return call(self, z)

        monkeypatch.setattr(_LogMarginal, "__call__", recording)
        fit_hyperparameters(ds, init, n_starts=1, seed=0)
        z0 = np.clip(np.log(init.as_array()), *np.log(default_fit_bounds(ds).as_arrays()))
        assert np.array_equal(seen[0], z0)
        assert sum(np.array_equal(z, z0) for z in seen) == 1

    def test_requires_five_points(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_hyperparameters(ds, Hyperparameters(0.1, 1.0, 1.0, 1.0))


class TestAddRemove:
    def test_add_to_empty_shrinkage(self):
        sf2, sn2 = 0.8, 0.2
        m = build(Dataset.empty(), Hyperparameters(sn2, sf2, 1.0, 1.0))
        m2 = m.add_point((1.0, 1.0), 2.0)
        assert m2.n == 1
        assert m2.predict_mean((1.0, 1.0)) == pytest.approx(2.0 * sf2 / (sf2 + sn2), rel=1e-12)

    def test_add_then_remove_restores_alpha(self, duffing_model):
        m2 = duffing_model.add_point((1.2, 2.2), 0.5)
        m3 = m2.remove_point(m2.n - 1)
        assert np.allclose(m3.alpha, duffing_model.alpha, rtol=0, atol=1e-8)

    def test_random_adds_match_fresh_build(self, duffing_hyper):
        rng = np.random.default_rng(21)
        m = build(Dataset.empty(), duffing_hyper)
        X, F = [], []
        for _ in range(20):
            x = (rng.uniform(1.0, 1.3), rng.uniform(0.5, 3.0))
            f = rng.uniform(0.0, 1.0)
            m = m.add_point(x, f)
            X.append(x)
            F.append(f)
        fresh = build(Dataset(np.array(X), np.array(F)), duffing_hyper)
        assert np.allclose(m.alpha, fresh.alpha, rtol=1e-8, atol=1e-10)
        assert np.allclose(m.chol, fresh.chol, rtol=1e-8, atol=1e-10)

    def test_duplicate_add_rejected(self, duffing_model):
        x0 = tuple(duffing_model.dataset.X[3])
        with pytest.raises(DuplicatePoint):
            duffing_model.add_point(x0, 1.0)

    def test_remove_sole_point_gives_empty(self, duffing_hyper):
        m = build(Dataset(np.array([[1.0, 1.0]]), np.array([2.0])), duffing_hyper)
        assert m.remove_point(0).n == 0

    def test_remove_interior_matches_fresh_build(self, duffing_params, duffing_hyper):
        ds = duffing_grid_dataset(duffing_params)
        m = build(ds, duffing_hyper)
        m2 = m.remove_point(12)
        fresh = build(ds.drop(12), duffing_hyper)
        assert np.allclose(m2.alpha, fresh.alpha, rtol=1e-8, atol=1e-10)

    def test_remove_out_of_range(self, duffing_model):
        with pytest.raises(IndexOutOfRange):
            duffing_model.remove_point(duffing_model.n)
