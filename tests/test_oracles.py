import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reference_oracles import (duffing_fold_amplitudes, duffing_force, isola_gamma_dA,
                               isola_marker_count, isola_three_fold_band)

from foldtrack.errors import OutOfDomain
from foldtrack.geometry import DomainBox
from foldtrack.oracles import (DuffingOracle, DuffingParams, IsolaOracle, IsolaParams,
                               ReplayOracle, duffing_gamma, isola_gamma)


class TestDuffingGamma:
    def test_zero_amplitude_zero_force(self, duffing_params):
        for w in (0.5, 1.0, 1.7):
            assert duffing_gamma(duffing_params, w, 0.0) == 0.0

    def test_pure_damping_at_linear_resonance(self):
        p = DuffingParams(omega_n=2.0, zeta=0.03, alpha_3=0.0)
        A = 1.7
        assert duffing_gamma(p, 2.0, A) == pytest.approx(2 * 0.03 * 2.0**2 * A, rel=1e-12)

    def test_matches_independent_formula(self, duffing_params):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w, A = rng.uniform(0.8, 1.4), rng.uniform(0.0, 3.0)
            assert duffing_gamma(duffing_params, w, A) == pytest.approx(
                duffing_force(1.0, 0.02, 0.05, w, A), rel=1e-12)

    def test_s_curve_above_critical_forcing(self, duffing_params):
        # above the cusp frequency the force-amplitude section has two extrema
        roots = duffing_fold_amplitudes(1.0, 0.02, 0.05, 1.12)
        assert len(roots) == 2


def _duffing_steady_amplitude(p, omega, gamma0, y0, n_settle=30, n_measure=5):
    """Integrate the oscillator and return (steady amplitude, final state)."""
    T = 2 * math.pi / omega

    def rhs(t, s):
        y, v = s
        return [v, gamma0 * math.cos(omega * t) - 2 * p.zeta * p.omega_n * v
                - p.omega_n**2 * y - p.alpha_3 * y**3]

    sol = solve_ivp(rhs, (0.0, n_settle * T), y0, rtol=1e-7, atol=1e-9,
                    dense_output=False)
    y1 = sol.y[:, -1]
    t_eval = np.linspace(0.0, n_measure * T, 40 * n_measure)
    sol2 = solve_ivp(rhs, (0.0, n_measure * T), y1, t_eval=t_eval, rtol=1e-7, atol=1e-9)
    return float(np.max(np.abs(sol2.y[0]))), sol2.y[:, -1]


@pytest.mark.slow
def test_fold_locus_matches_time_domain_jumps(duffing_params):
    """Sweep the oscillator through the hysteresis range: the amplitude jumps
    happen at the brute-force fold frequencies of the force surface."""
    from scipy.optimize import brentq
    p = duffing_params
    gamma0 = 0.30

    def gamma_at_lower_fold(w):
        return duffing_force(1.0, p.zeta, p.alpha_3, w,
                             duffing_fold_amplitudes(1.0, p.zeta, p.alpha_3, w, A_max=9.0)[0]) - gamma0

    def gamma_at_upper_fold(w):
        return duffing_force(1.0, p.zeta, p.alpha_3, w,
                             duffing_fold_amplitudes(1.0, p.zeta, p.alpha_3, w, A_max=9.0)[1]) - gamma0

    # the resonant branch dies where the high-A fold reaches gamma0 (jump down
    # on an up-sweep); the low branch dies at the low-A fold (jump up, down-sweep)
    w_down_ref = brentq(gamma_at_upper_fold, 1.32, 1.55)
    w_up_ref = brentq(gamma_at_lower_fold, 1.05, 1.3)

    # up-sweep, started below the hysteresis range so it rides the high branch
    state = [0.0, 0.0]
    prev_amp, w_jump_down = None, None
    for w in np.arange(1.12, 1.49, 0.005):
        amp, state = _duffing_steady_amplitude(p, w, gamma0, state)
        if prev_amp is not None and amp < 0.6 * prev_amp:
            w_jump_down = 0.5 * (w + w_prev)
            break
        prev_amp, w_prev = amp, w
    assert w_jump_down is not None
    assert abs(w_jump_down - w_down_ref) / w_down_ref < 0.01

    # down-sweep from above the hysteresis range, riding the low branch
    state = [0.0, 0.0]
    prev_amp, w_jump_up = None, None
    for w in np.arange(1.50, 1.08, -0.005):
        amp, state = _duffing_steady_amplitude(p, w, gamma0, state)
        if prev_amp is not None and amp > 1.6 * prev_amp:
            w_jump_up = 0.5 * (w + w_prev)
            break
        prev_amp, w_prev = amp, w
    assert w_jump_up is not None
    assert abs(w_jump_up - w_up_ref) / w_up_ref < 0.01


class TestDuffingOracle:
    def test_realizes_target_exactly(self, duffing_oracle):
        m = duffing_oracle.measure(1.1, 1.3)
        assert (m.omega, m.A) == (1.1, 1.3)
        assert m.F == duffing_gamma(duffing_oracle.params, 1.1, 1.3)

    def test_zero_target_needs_zero_force(self):
        box = DomainBox(0.9, 1.3, 0.0, 5.0)
        quiet = DuffingOracle(DuffingParams(noise_sigma=0.0), box, seed=0)
        assert quiet.measure(1.1, 0.0).F == 0.0
        noisy = DuffingOracle(DuffingParams(noise_sigma=0.01), box, seed=0)
        m = noisy.measure(1.1, 0.0)
        assert 0.0 <= m.F < 0.1  # zero response plus (clamped) noise

    def test_linear_regime_reduces_to_frf(self):
        # cubic zeroed: F equals the linear frequency-response prediction
        p = DuffingParams(alpha_3=0.0)
        o = DuffingOracle(p, DomainBox(0.5, 1.5, 0.0, 5.0), seed=0)
        for w, A in ((0.8, 1.2), (1.0, 2.0), (1.3, 0.7)):
            h_inv = math.hypot(p.omega_n**2 - w**2, 2 * p.zeta * p.omega_n * w)
            assert o.measure(w, A).F == pytest.approx(h_inv * A, rel=1e-12)

    def test_out_of_domain(self, duffing_oracle):
        with pytest.raises(OutOfDomain):
            duffing_oracle.measure(0.5, 1.0)

    def test_noise_reproducible_per_seed(self, duffing_box):
        p = DuffingParams(noise_sigma=0.01)
        o1 = DuffingOracle(p, duffing_box, seed=7)
        o2 = DuffingOracle(p, duffing_box, seed=7)
        pts1 = [o1.measure(1.1, 1.0).F for _ in range(5)]
        pts2 = [o2.measure(1.1, 1.0).F for _ in range(5)]
        assert pts1 == pts2
        assert o1.measure(1.1, 1.0, seed=3).F == o2.measure(1.1, 1.0, seed=3).F

    def test_force_never_negative_under_noise(self, duffing_box):
        p = DuffingParams(noise_sigma=5.0)
        o = DuffingOracle(p, duffing_box, seed=1)
        assert all(o.measure(1.0, 0.06).F >= 0.0 for _ in range(20))


class TestIsolaSurface:
    def test_zero_amplitude_zero_force(self):
        p = IsolaParams()
        for w in np.linspace(0.85, 1.45, 7):
            assert isola_gamma(p, w, 0.0) == 0.0

    def test_analytic_fold_amplitudes_are_roots(self):
        p = IsolaParams()
        for w in (1.0, 1.30, 1.42):
            for a in p.fold_amplitudes(w):
                assert abs(isola_gamma_dA(p, w, a)) < 1e-12

    def test_derivative_consistent_with_surface(self):
        p = IsolaParams()
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            w, a = rng.uniform(0.9, 1.4), rng.uniform(0.1, 3.8)
            fd = (isola_gamma(p, w, a + h) - isola_gamma(p, w, a - h)) / (2 * h)
            assert isola_gamma_dA(p, w, a) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_surface_positive_inside_box(self):
        p = IsolaParams()
        W, A = np.meshgrid(np.linspace(0.85, 1.45, 101), np.linspace(0.01, 4.0, 101),
                           indexing="ij")
        assert isola_gamma(p, W, A).min() > 0.0

    def test_brute_force_fold_counts_bracket_threshold(self):
        o = IsolaOracle()
        band = 0.05
        lo, hi = isola_three_fold_band(o.params, o.domain_box)
        assert isola_marker_count(o.params, o.domain_box, o.level_two_folds, band) == 2
        assert isola_marker_count(o.params, o.domain_box, o.level_three_folds, band) == 3
        assert o.level_two_folds * (1 + band) < lo
        assert lo < o.level_three_folds * (1 - band)
        assert o.level_three_folds * (1 + band) < hi
        # the band the IsolaOracle class comment states
        assert (lo, hi) == pytest.approx((0.2488, 0.3148), abs=1e-4)

    def test_measure_matches_surface(self):
        o = IsolaOracle(seed=3)
        m = o.measure(1.2, 2.0)
        assert m.F == isola_gamma(o.params, 1.2, 2.0)

    def test_noise_reproducible_per_seed(self):
        p = IsolaParams(noise_sigma=0.01)
        a, b = IsolaOracle(p, seed=5), IsolaOracle(p, seed=5)
        assert [a.measure(1.2, 2.0).F for _ in range(3)] == \
               [b.measure(1.2, 2.0).F for _ in range(3)]


class TestReplayOracle:
    def test_reproduces_stored_points(self):
        X = np.array([[1.0, 1.0], [1.1, 1.5], [1.2, 2.0]])
        F = np.array([0.2, 0.3, 0.4])
        o = ReplayOracle(X, F, tol=1e-6)
        m = o.measure(1.1, 1.5)
        assert (m.omega, m.A, m.F) == (1.1, 1.5, 0.3)

    def test_nearest_neighbour_within_tolerance(self):
        X = np.array([[1.0, 1.0], [1.1, 1.5]])
        o = ReplayOracle(X, np.array([0.2, 0.3]), tol=0.05)
        assert o.measure(1.099, 1.497).F == 0.3

    def test_out_of_domain_beyond_tolerance(self):
        X = np.array([[1.0, 1.0], [1.1, 1.5]])
        o = ReplayOracle(X, np.array([0.2, 0.3]), tol=1e-6)
        with pytest.raises(OutOfDomain):
            o.measure(1.05, 1.2)
