import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import TINY_NOISE
from reference_oracles import duffing_fold_amplitudes

from foldtrack import continuation
from foldtrack.continuation import (H_MIN, NEWTON_TOL, ContinuationConfig, CorrectResult,
                                    FoldPoint, Step, Tangent, advance, correct, find_first_fold,
                                    follow, in_data_cloud, predict_step, tangent_at,
                                    tangent_from_jrow, zero_fn)
from foldtrack.errors import (DomainExit, LeftDataCloud, NoConvergence, SingularJacobian,
                              StepUnderflow)
from foldtrack.geometry import DomainBox
from foldtrack.gpr import Dataset, Hyperparameters, build

CFG = ContinuationConfig(h=0.1, h_max=0.3)


@pytest.fixture(scope="module")
def fold_on_surrogate(duffing_model):
    return find_first_fold(duffing_model, (1.10, 1.41), CFG)


def surrogate_fold_A(model, omega, lo, hi, n=4000):
    """Dense-scan + bisection root of dGamma/dA on the surrogate itself."""
    As = np.linspace(lo, hi, n)
    g = np.array([model.predict_mean_derivs((omega, a)).d_A for a in As])
    idx = np.nonzero(np.diff(np.sign(g)) != 0)[0]
    assert len(idx) >= 1
    lo_a, hi_a = As[idx[0]], As[idx[0] + 1]
    for _ in range(60):
        mid = 0.5 * (lo_a + hi_a)
        if np.sign(model.predict_mean_derivs((omega, mid)).d_A) == \
           np.sign(model.predict_mean_derivs((omega, lo_a)).d_A):
            lo_a = mid
        else:
            hi_a = mid
    return 0.5 * (lo_a + hi_a)


class TestZeroFn:
    def test_zero_data_gives_zero_everywhere(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.1, 1.5], [1.0, 2.0]]), np.zeros(3))
        m = build(ds, Hyperparameters(TINY_NOISE, 1.0, 0.1, 0.5))
        g, (j1, j2) = zero_fn(m, (1.05, 1.4))
        assert g == 0.0 and j1 == 0.0 and j2 == 0.0

    def test_small_residual_at_true_fold(self, duffing_params, duffing_model):
        A_true = duffing_fold_amplitudes(1.0, 0.02, 0.05, 1.10)[0]
        g_at_fold = abs(zero_fn(duffing_model, (1.10, A_true))[0])
        As = np.linspace(1.0, 1.8, 60)
        g_scale = max(abs(zero_fn(duffing_model, (1.10, a))[0]) for a in As)
        assert g_at_fold < 5e-2 * g_scale

    def test_sign_flip_across_fold(self, duffing_model):
        A_fold = surrogate_fold_A(duffing_model, 1.10, 1.1, 1.7)
        g_lo = zero_fn(duffing_model, (1.10, A_fold - 0.15))[0]
        g_hi = zero_fn(duffing_model, (1.10, A_fold + 0.15))[0]
        assert g_lo * g_hi < 0


class TestFindFirstFold:
    def test_already_at_fold_returns_immediately(self, duffing_model, fold_on_surrogate):
        again = find_first_fold(duffing_model, (fold_on_surrogate.omega, fold_on_surrogate.A), CFG)
        assert again.omega == fold_on_surrogate.omega
        assert again.A == pytest.approx(fold_on_surrogate.A, abs=1e-12)

    def test_converges_to_surrogate_fold(self, duffing_model):
        A_ref = surrogate_fold_A(duffing_model, 1.10, 1.1, 1.7)
        start_A = A_ref + 0.3 * duffing_model.hyper.l_A
        fold = find_first_fold(duffing_model, (1.10, start_A), CFG)
        assert abs(fold.A - A_ref) / duffing_model.hyper.l_A < 1e-3
        assert abs(zero_fn(duffing_model, (fold.omega, fold.A))[0]) \
            * duffing_model.hyper.l_A / math.sqrt(duffing_model.hyper.sigma_f2) < NEWTON_TOL

    def test_flat_region_no_convergence(self):
        # linear-in-A surface: dGamma/dA is a positive constant, no root anywhere
        omegas = np.linspace(0.9, 1.1, 7)
        As = np.linspace(0.0, 4.0, 9)
        X = np.array([[w, a] for w in omegas for a in As])
        F = 0.1 + 0.2 * X[:, 1]
        m = build(Dataset(X, F), Hyperparameters(1e-8, 0.5, 0.1, 0.5))
        with pytest.raises(NoConvergence):
            find_first_fold(m, (1.0, 2.0), CFG)

    def test_start_outside_cloud_rejected(self, duffing_model):
        with pytest.raises(LeftDataCloud):
            find_first_fold(duffing_model, (2.5, 1.4), CFG)


class TestTangent:
    def test_axis_aligned_jrow(self):
        t = tangent_from_jrow((0.0, 1.0))
        assert (t.t_omega, t.t_A) == (1.0, 0.0)

    def test_diagonal_jrow(self):
        t = tangent_from_jrow((1.0, 1.0))
        assert t.t_omega == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert t.t_A == pytest.approx(-1 / math.sqrt(2), rel=1e-15)

    def test_orientation_follows_previous(self):
        prev = Tangent(-1.0, 0.0)
        t = tangent_from_jrow((0.0, 1.0), prev)
        assert t.t_omega == -1.0

    def test_singular_jrow_raises(self):
        with pytest.raises(SingularJacobian):
            tangent_from_jrow((1e-13, -1e-13))

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            Tangent(0.5, 0.5)

    def test_consecutive_tangents_stay_aligned(self, duffing_model, fold_on_surrogate):
        cfg = ContinuationConfig(h=0.1, h_max=0.1)
        fold, tangent = fold_on_surrogate, None
        dots = []
        for _ in range(6):
            t_new = tangent_at(duffing_model, fold, tangent)
            if tangent is not None:
                dots.append(t_new.t_omega * tangent.t_omega + t_new.t_A * tangent.t_A)
            tangent = t_new
            x_pred = predict_step(fold, tangent, cfg.h, duffing_model.hyper)
            fold = correct(duffing_model, x_pred, fold, tangent, cfg.h, cfg).point
        assert all(d > 0.9 for d in dots)


class TestPredictStep:
    def test_zero_step(self, duffing_hyper):
        x = FoldPoint(1.1, 1.4, 0.2)
        assert predict_step(x, Tangent(1.0, 0.0), 0.0, duffing_hyper) == (1.1, 1.4)

    def test_unit_affine_formula(self):
        h = Hyperparameters(0.1, 1.0, 1.0, 1.0)
        assert predict_step((1.0, 1.0), Tangent(1.0, 0.0), 0.1, h) == (1.1, 1.0)

    def test_quadratic_prediction_defect(self, duffing_model, fold_on_surrogate):
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        defects = []
        for h in (0.08, 0.04, 0.02):
            x = predict_step(fold_on_surrogate, t, h, duffing_model.hyper)
            defects.append(abs(zero_fn(duffing_model, x)[0]))
        r1 = defects[0] / defects[1]
        r2 = defects[1] / defects[2]
        assert 3.0 <= r1 <= 5.0
        assert 3.0 <= r2 <= 5.0


class TestCorrect:
    def test_zero_correction_when_already_solved(self, duffing_model, fold_on_surrogate):
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        res = correct(duffing_model, (fold_on_surrogate.omega, fold_on_surrogate.A),
                      fold_on_surrogate, t, 0.0, CFG)
        assert res.iterations == 0
        assert res.point.omega == fold_on_surrogate.omega
        assert res.point.A == fold_on_surrogate.A

    def test_reentry_after_perturbation(self, duffing_model, fold_on_surrogate):
        hyp = duffing_model.hyper
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        base = correct(duffing_model,
                       predict_step(fold_on_surrogate, t, 0.1, hyp),
                       fold_on_surrogate, t, 0.1, CFG).point
        perturbed = (base.omega + 0.05 * hyp.l_omega, base.A + 0.05 * hyp.l_A)
        back = correct(duffing_model, perturbed, fold_on_surrogate, t, 0.1, CFG).point
        d = math.hypot((back.omega - base.omega) / hyp.l_omega,
                       (back.A - base.A) / hyp.l_A)
        assert d < 1e-6

    def test_accepted_point_satisfies_both_residuals(self, duffing_model, fold_on_surrogate):
        hyp = duffing_model.hyper
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        res = correct(duffing_model, predict_step(fold_on_surrogate, t, 0.12, hyp),
                      fold_on_surrogate, t, 0.12, CFG)
        p = res.point
        g_norm = abs(zero_fn(duffing_model, (p.omega, p.A))[0]) * hyp.l_A / math.sqrt(hyp.sigma_f2)
        psa = abs(t.t_omega * (p.omega - fold_on_surrogate.omega) / hyp.l_omega
                  + t.t_A * (p.A - fold_on_surrogate.A) / hyp.l_A - 0.12)
        assert g_norm < NEWTON_TOL
        assert psa < NEWTON_TOL

    def test_corrected_force_matches_analytic_folds(self, duffing_params, duffing_model,
                                                    fold_on_surrogate):
        from reference_oracles import duffing_force
        fold, t = fold_on_surrogate, None
        for _ in range(5):
            t = tangent_at(duffing_model, fold, t)
            x_pred = predict_step(fold, t, 0.1, duffing_model.hyper)
            fold = correct(duffing_model, x_pred, fold, t, 0.1, CFG).point
            A_true = duffing_fold_amplitudes(1.0, 0.02, 0.05, fold.omega)[0]
            g_true = duffing_force(1.0, 0.02, 0.05, fold.omega, A_true)
            assert fold.gamma_model == pytest.approx(g_true, rel=0.02)

    def test_quadratic_residual_decay(self, duffing_model, fold_on_surrogate):
        """Newton residuals from a near-solution shrink superlinearly."""
        hyp = duffing_model.hyper
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        up = fold_on_surrogate.omega / hyp.l_omega
        vp = fold_on_surrogate.A / hyp.l_A
        u, v = up + 0.03 * t.t_omega + 0.02, vp + 0.03 * t.t_A - 0.02
        s = math.sqrt(hyp.sigma_f2)
        residuals = []
        for _ in range(4):
            d = duffing_model.predict_mean_derivs((u * hyp.l_omega, v * hyp.l_A))
            r1 = d.d_A * hyp.l_A / s
            j11 = d.d_omega_A * hyp.l_omega * hyp.l_A / s
            j12 = d.d_AA * hyp.l_A**2 / s
            r2 = t.t_omega * (u - up) + t.t_A * (v - vp) - 0.0
            residuals.append(max(abs(r1), abs(r2)))
            det = j11 * t.t_A - j12 * t.t_omega
            u += (-r1 * t.t_A + r2 * j12) / det
            v += (-r2 * j11 + r1 * t.t_omega) / det
        assert residuals[1] / residuals[0] < 0.2
        assert residuals[2] / residuals[1] < residuals[1] / residuals[0]

    def test_prediction_outside_cloud_rejected(self, duffing_model, fold_on_surrogate):
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        far = (2.0, 1.4)
        with pytest.raises(LeftDataCloud):
            correct(duffing_model, far, fold_on_surrogate, t, 0.1, CFG)

    def test_accepted_points_stay_in_cloud(self, duffing_model, fold_on_surrogate):
        fold, t = fold_on_surrogate, None
        for _ in range(4):
            t = tangent_at(duffing_model, fold, t)
            x_pred = predict_step(fold, t, 0.1, duffing_model.hyper)
            fold = correct(duffing_model, x_pred, fold, t, 0.1, CFG).point
            assert in_data_cloud(duffing_model, fold.omega, fold.A)


class TestStepSizeControl:
    """The step-size rule for a failed corrector, as applied by advance."""

    def test_halving_on_failure(self, monkeypatch, duffing_model, fold_on_surrogate):
        tried = []

        def fails_once(model, x_pred, x_prev, t, h, cfg):
            tried.append(h)
            if len(tried) == 1:
                raise NoConvergence("injected failure")
            return CorrectResult(FoldPoint(x_pred[0], x_pred[1], 0.0), 1, 0.0)

        monkeypatch.setattr(continuation, "correct", fails_once)
        cfg = ContinuationConfig(h=0.05, h_max=0.1)
        step = advance(duffing_model, fold_on_surrogate, None, 0.05, cfg)
        assert tried == [0.05, pytest.approx(0.025, rel=1e-15)]
        assert step.h == pytest.approx(0.025, rel=1e-15)

    def test_underflow_at_floor(self, monkeypatch, duffing_model, fold_on_surrogate):
        tried = []

        def never_converges(model, x_pred, x_prev, t, h, cfg):
            tried.append(h)
            raise NoConvergence("injected failure")

        monkeypatch.setattr(continuation, "correct", never_converges)
        cfg = ContinuationConfig(h=0.05, h_max=0.1)
        with pytest.raises(StepUnderflow) as info:
            advance(duffing_model, fold_on_surrogate, None, 1e-3, cfg)
        assert not isinstance(info.value, DomainExit)
        assert tried == [1e-3]


class TestAdvance:
    """The one stepper: predict, check the box, correct, halve h until a step is accepted."""

    @pytest.fixture()
    def tangent(self, duffing_model, fold_on_surrogate):
        t = tangent_at(duffing_model, fold_on_surrogate, None)
        assert t.t_omega > 0.5  # so an omega_max edge cuts the tangent ray
        return t

    @staticmethod
    def box_cutting_ray(model, fold, t, h_edge):
        """Domain box whose omega_max edge crosses the tangent ray h_edge out."""
        return DomainBox(0.95, predict_step(fold, t, h_edge, model.hyper)[0], 0.05, 5.0)

    def test_accepted_step_is_the_corrector_result(self, duffing_model, fold_on_surrogate,
                                                   tangent):
        step = advance(duffing_model, fold_on_surrogate, None, 0.1, CFG)
        x_pred = predict_step(fold_on_surrogate, tangent, 0.1, duffing_model.hyper)
        assert step.h == 0.1
        assert step.tangent == tangent
        assert step.result == correct(duffing_model, x_pred, fold_on_surrogate, tangent, 0.1, CFG)

    @pytest.mark.parametrize("h, h_max, iters, h_next", [
        (0.05, 0.1, 3, 0.06),
        (0.05, 0.1, 4, 0.05),
        (0.09, 0.1, 1, 0.1),
        (0.9, 5.0, 1, 1.0),
    ], ids=["growth_after_3_iterations", "hold_above_3_iterations", "cap_at_h_max",
            "cap_at_one_length_scale"])
    def test_next_h(self, monkeypatch, duffing_model, fold_on_surrogate, h, h_max, iters,
                    h_next):
        def converges_in_iters(model, x_pred, x_prev, t, h, cfg):
            return CorrectResult(FoldPoint(x_pred[0], x_pred[1], 0.0), iters, 0.0)

        monkeypatch.setattr(continuation, "correct", converges_in_iters)
        cfg = ContinuationConfig(h=h, h_max=h_max)
        step = advance(duffing_model, fold_on_surrogate, None, h, cfg)
        assert step.h == h
        assert step.h_next == pytest.approx(h_next, rel=1e-15)

    def test_prediction_outside_box_halves_h(self, duffing_model, fold_on_surrogate, tangent):
        box = self.box_cutting_ray(duffing_model, fold_on_surrogate, tangent, 0.2)
        cfg = replace(CFG, domain_box=box)
        assert not box.contains(*predict_step(fold_on_surrogate, tangent, 0.3,
                                              duffing_model.hyper))
        step = advance(duffing_model, fold_on_surrogate, None, 0.3, cfg)
        assert step.h == 0.15
        x_pred = predict_step(fold_on_surrogate, tangent, 0.15, duffing_model.hyper)
        assert step.result == correct(duffing_model, x_pred, fold_on_surrogate, tangent, 0.15,
                                      cfg)

    def test_underflow_at_h_min(self, duffing_model, fold_on_surrogate, tangent):
        # the edge passes through the fold, so every prediction leaves the box
        box = self.box_cutting_ray(duffing_model, fold_on_surrogate, tangent, 0.0)
        with pytest.raises(DomainExit):
            advance(duffing_model, fold_on_surrogate, None, CFG.h, replace(CFG, domain_box=box))

    def test_corrector_failures_to_h_min_are_no_domain_exit(self, monkeypatch, duffing_model,
                                                            fold_on_surrogate, tangent):
        # the first halving comes from the box, the last ones from the corrector
        box = self.box_cutting_ray(duffing_model, fold_on_surrogate, tangent, 0.2)
        tried = []

        def never_converges(model, x_pred, x_prev, t, h, cfg):
            tried.append(h)
            raise NoConvergence("injected failure")

        monkeypatch.setattr(continuation, "correct", never_converges)
        with pytest.raises(StepUnderflow) as info:
            advance(duffing_model, fold_on_surrogate, None, 0.3, replace(CFG, domain_box=box))
        assert not isinstance(info.value, DomainExit)
        assert tried[0] == 0.15 and tried[-1] == H_MIN

    @pytest.mark.parametrize("error", [NoConvergence, LeftDataCloud])
    def test_corrector_failure_retried_at_half_step(self, monkeypatch, duffing_model,
                                                    fold_on_surrogate, error):
        tried = []
        real = continuation.correct

        def fails_once(model, x_pred, x_prev, t, h, cfg):
            tried.append(h)
            if len(tried) == 1:
                raise error("injected failure")
            return real(model, x_pred, x_prev, t, h, cfg)

        monkeypatch.setattr(continuation, "correct", fails_once)
        step = advance(duffing_model, fold_on_surrogate, None, 0.2, CFG)
        assert tried == [0.2, 0.1]
        assert step.h == 0.1

    def test_corrector_singular_jacobian_propagates(self, monkeypatch, duffing_model,
                                                    fold_on_surrogate):
        tried = []

        def cusp(model, x_pred, x_prev, t, h, cfg):
            tried.append(h)
            raise SingularJacobian("injected cusp")

        monkeypatch.setattr(continuation, "correct", cusp)
        with pytest.raises(SingularJacobian):
            advance(duffing_model, fold_on_surrogate, None, 0.2, CFG)
        assert tried == [0.2]

    def test_singular_tangent_propagates(self):
        ds = Dataset(np.array([[1.0, 1.0], [1.1, 1.5], [1.0, 2.0]]), np.zeros(3))
        m = build(ds, Hyperparameters(TINY_NOISE, 1.0, 0.1, 0.5))
        with pytest.raises(SingularJacobian):
            advance(m, FoldPoint(1.05, 1.4, 0.0), None, 0.1, CFG)


class TestFollow:
    """The one step loop around advance: count accepted steps, carry the tangent
    and h, hand each step to `accept`, name the stop."""

    CFG = ContinuationConfig(h=0.1, h_max=0.3, max_steps=3)

    @staticmethod
    def step(i):
        """A distinct accepted step; its h_next is what the next advance must try."""
        return Step(CorrectResult(FoldPoint(1.0 + i, 2.0 + i, 0.5), i, 0.0),
                    Tangent(math.cos(i), math.sin(i)), 0.01 * i, 0.02 * i)

    @staticmethod
    def stand_in(monkeypatch, outcomes):
        """Replace advance by one that returns or raises `outcomes` in turn;
        returns the list of (model, fold, prev, h) it is called with."""
        calls = []

        def advance(model, fold, prev, h, cfg):
            calls.append((model, fold, prev, h))
            out = outcomes[len(calls) - 1]
            if isinstance(out, Exception):
                raise out
            return out

        monkeypatch.setattr(continuation, "advance", advance)
        return calls

    def test_max_steps(self, monkeypatch):
        calls = self.stand_in(monkeypatch, [self.step(1), self.step(2), self.step(3)])

        def keep(model, step, k):
            return model, step.result.point

        assert follow("m", FoldPoint(1.0, 2.0, 0.5), Tangent(1.0, 0.0), self.CFG,
                      keep) == "max_steps"
        assert len(calls) == self.CFG.max_steps

    @pytest.mark.parametrize("error, reason", [
        (DomainExit("edge"), "domain_exit"),
        (StepUnderflow("floor"), "step_underflow"),
        (SingularJacobian("injected cusp"), "singular_jacobian: injected cusp"),
    ], ids=["domain_exit", "step_underflow", "singular_jacobian"])
    def test_stop_raised_by_advance_is_named(self, monkeypatch, error, reason):
        calls = self.stand_in(monkeypatch, [self.step(1), error])
        accepted = []

        def accept(model, step, k):
            accepted.append(k)
            return model, step.result.point

        assert follow("m", FoldPoint(1.0, 2.0, 0.5), Tangent(1.0, 0.0), self.CFG,
                      accept) == reason
        assert len(calls) == 2 and accepted == [1]

    def test_accept_sees_each_step_and_sets_where_the_next_starts(self, monkeypatch):
        steps = [self.step(1), self.step(2), self.step(3)]
        calls = self.stand_in(monkeypatch, steps)
        seen, returned = [], []

        def accept(model, step, k):
            seen.append((model, step, k))
            returned.append((f"model after {k}", FoldPoint(10.0 + k, 20.0 + k, 0.5)))
            return returned[-1]

        fold0, t0 = FoldPoint(1.0, 2.0, 0.5), Tangent(1.0, 0.0)
        follow("model 0", fold0, t0, self.CFG, accept)
        assert seen == [("model 0", steps[0], 1), ("model after 1", steps[1], 2),
                        ("model after 2", steps[2], 3)]
        assert calls[0] == ("model 0", fold0, t0, self.CFG.h)
        for k in (1, 2):
            model, fold = returned[k - 1]
            assert calls[k] == (model, fold, steps[k - 1].tangent, steps[k - 1].h_next)

    @pytest.mark.parametrize("error", [SingularJacobian, StepUnderflow])
    def test_exception_from_accept_propagates(self, monkeypatch, error):
        calls = self.stand_in(monkeypatch, [self.step(1), self.step(2)])
        raised = error("refresh failed")

        def accept(model, step, k):
            raise raised

        with pytest.raises(error) as info:
            follow("m", FoldPoint(1.0, 2.0, 0.5), Tangent(1.0, 0.0), self.CFG, accept)
        assert info.value is raised
        assert len(calls) == 1
