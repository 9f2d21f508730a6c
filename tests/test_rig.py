import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from reference_oracles import fourier_series, lstsq_fourier_coeffs

from foldtrack.config import load_config, make_oracle
from foldtrack.driver import run_trace
from foldtrack.errors import ControlDiverged
from foldtrack.geometry import DomainBox
from foldtrack.postprocess import sweep_s_curve
from foldtrack.rig import (RigOracle, RigParams, _phasor, _TargetSignal, fourier_coeffs,
                           linear_tip_frf, update_a1star_mapping)

BOX = DomainBox(9.0, 16.0, 0.02, 25.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_rig(**kw) -> RigOracle:
    seed = kw.pop("seed", 1)
    return RigOracle(RigParams(**kw), BOX, seed=seed)


class TestFourierCoeffs:
    def test_recovers_known_signal(self):
        fs, f = 1000.0, 12.3
        t = np.arange(2000) / fs
        sig = 0.4 + 1.5 * np.cos(2 * np.pi * f * t) - 0.7 * np.sin(2 * np.pi * f * t) \
            + 0.2 * np.cos(3 * 2 * np.pi * f * t)
        a0, A, B = fourier_coeffs(sig, f, fs, 7)
        assert a0 == pytest.approx(0.8, abs=1e-9)
        assert A[0] == pytest.approx(1.5, abs=1e-9)
        assert B[0] == pytest.approx(-0.7, abs=1e-9)
        assert A[2] == pytest.approx(0.2, abs=1e-9)
        assert abs(A[1]) < 1e-9 and abs(B[2]) < 1e-9

    def test_matches_lstsq_late_noisy_partial_cycles(self):
        # 1,537 samples hold 18.9 cycles; the fit keeps the last 18
        fs, f, t0 = 1000.0, 12.3, 700.0
        rng = np.random.default_rng(5)
        t = t0 + np.arange(1537) / fs
        sig = fourier_series(0.6, [1.5, 0.0, 0.2, 0.05, 0.0, 0.0, 0.01],
                             [-0.7, 0.1, 0.0, 0.0, 0.02, 0.0, 0.0], f, t)
        sig += 0.05 * rng.standard_normal(len(t))
        a0, A, B = fourier_coeffs(sig, f, fs, 7, t0=t0)
        a0_ref, A_ref, B_ref = lstsq_fourier_coeffs(sig, f, fs, 7, t0)
        assert a0 == pytest.approx(a0_ref, abs=1e-10)
        np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(B, B_ref, rtol=0, atol=1e-10)


class TestTargetSignal:
    def test_horner_matches_harmonic_sum(self):
        # a late window, where the phase is large and carries its own round-off
        f = 12.8
        target = _TargetSignal(f, 7)
        target.a0 = 0.3
        target.A[:] = [2.8, 0.0, -0.4, 0.05, 0.0, 0.01, 0.003]
        target.B[:] = [0.0, 0.2, 0.1, -0.02, 0.01, 0.0, 0.002]
        t = 700.0 + np.arange(2000) / 1000.0
        ref = fourier_series(target.a0, target.A, target.B, f, t)
        scale = np.sum(np.abs(target.A) + np.abs(target.B))
        assert np.max(np.abs(target.sample(_phasor(f, t)) - ref)) <= 1e-9 * scale


class TestEquilibriumAndLinear:
    def test_zero_target_zero_response(self):
        rig = make_rig(noise_sigma=0.0)
        records, coeffs = rig.rig_simulate(12.0, 0.0)
        assert np.max(np.abs(records["y"])) < 1e-12
        assert np.max(np.abs(records["u"])) < 1e-12

    def test_linear_frf_agreement(self):
        # cubic zeroed: measured A/F matches the modal model within 2%
        rig = make_rig(k3=0.0, noise_sigma=0.0)
        for f in (10.5, 11.49, 12.5):
            m = rig.measure(f, 0.5)
            ref = abs(linear_tip_frf(rig.params, f))
            assert m.A / m.F == pytest.approx(ref, rel=0.02)

    def test_linear_plant_picard_immediate(self):
        rig = make_rig(k3=0.0, noise_sigma=0.0)
        point, _, coeffs = rig.picard_noninvasive(12.0, 1.0)
        assert point.harmonics_residual < 1e-10
        _, Au, Bu = coeffs["u"]
        assert max(math.hypot(Au[j], Bu[j]) for j in range(1, 7)) < 1e-10

    def test_low_amplitude_force_near_linear_prediction(self):
        # cubic on, small response: F within 5% of |H|^-1 * A
        rig = make_rig(noise_sigma=0.0)
        m = rig.measure(12.0, 0.15)
        ref = m.A / abs(linear_tip_frf(rig.params, 12.0))
        assert m.F == pytest.approx(ref, rel=0.05)


class TestNonlinearBehaviour:
    def test_third_harmonic_grows_cubically(self):
        rig = make_rig(noise_sigma=0.0)
        amps, h3 = [], []
        for a1 in (0.2, 0.3, 0.45, 0.675, 1.0):
            point, _, coeffs = rig.picard_noninvasive(12.0, a1)
            _, Ay, By = coeffs["y"]
            amps.append(math.hypot(Ay[0], By[0]))
            h3.append(math.hypot(Ay[2], By[2]))
        slope = np.polyfit(np.log(amps), np.log(h3), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)

    def test_s_curve_fold_above_onset(self):
        # swept F(A) is non-monotone at a frequency above fold onset
        rig = make_rig(noise_sigma=0.0, seed=2)
        Fs = []
        for A_t in np.arange(0.5, 5.0, 0.375):
            Fs.append(rig.measure(12.8, A_t).F)
        Fs = np.array(Fs)
        local_max = [i for i in range(1, len(Fs) - 1) if Fs[i] > Fs[i - 1] and Fs[i] > Fs[i + 1]]
        local_min = [i for i in range(1, len(Fs) - 1) if Fs[i] < Fs[i - 1] and Fs[i] < Fs[i + 1]]
        assert local_max and local_min
        assert min(local_max) < max(local_min)

    def test_picard_converges_in_hardening_regime(self):
        rig = make_rig(noise_sigma=0.0)
        point, _, _ = rig.picard_noninvasive(12.8, 4.0)
        assert point.harmonics_residual < rig.params.picard_tol

    def test_control_diverges_on_saturation(self):
        rig = make_rig(noise_sigma=0.0)
        with pytest.raises(ControlDiverged):
            rig.picard_noninvasive(11.49, 60.0)

    def test_saturation_exit_saves_loop_state(self):
        # the loop's other way out stores the state of the saturating sample
        rig = make_rig(noise_sigma=0.0)
        with pytest.raises(ControlDiverged):
            rig.picard_noninvasive(11.49, 60.0)
        samples = rig._t * rig.params.sample_rate
        assert samples == pytest.approx(round(samples), abs=1e-9)
        q1, _, q2, _ = rig._q
        phi1, phi2 = rig.params.phi
        assert abs(1000.0 * (phi1 * q1 + phi2 * q2)) > rig.params.saturation_mm

    def test_trip_does_not_fail_later_simulations(self):
        # a loop left beyond saturation restarts from rest at its next simulation
        rig = RigOracle(RigParams(noise_sigma=0.0), DomainBox(9.0, 16.0, 0.02, 80.0), seed=1)
        tripped = sweep_s_curve(rig, 11.49, [1.0, 60.0])
        assert len(tripped.failures) == 1
        curve = sweep_s_curve(rig, 12.8, [1.0, 2.0, 3.0])
        assert len(curve.points) == 3 and not curve.failures


class TestLock:
    """The fixed settle wait runs only when the loop is not locked at omega."""

    def test_same_frequency_skips_the_fixed_wait(self):
        rig = make_rig(noise_sigma=0.0)
        rig.rig_simulate(12.8, 2.0)
        t = rig._t
        rig.rig_simulate(12.8, 2.1)
        assert rig._t - t < rig.params.settle_time

    def test_new_frequency_waits(self):
        rig = make_rig(noise_sigma=0.0)
        rig.rig_simulate(12.8, 2.0)
        t = rig._t
        rig.rig_simulate(12.9, 2.0)
        assert rig._t - t >= rig.params.settle_time

    def test_replay_unlocks(self):
        rig = make_rig(noise_sigma=0.0)
        rig.rig_simulate(12.8, 2.0)
        rig.replay_open_loop(12.8, 1.0, 0.0)
        t = rig._t
        rig.rig_simulate(12.8, 2.0)
        assert rig._t - t >= rig.params.settle_time

    def test_trip_unlocks(self):
        rig = make_rig(noise_sigma=0.0)
        rig.rig_simulate(11.49, 1.0)
        with pytest.raises(ControlDiverged):
            rig.rig_simulate(11.49, 60.0)
        t = rig._t
        rig.rig_simulate(11.49, 1.0)
        assert rig._t - t >= rig.params.settle_time

    @pytest.mark.parametrize("omega, A_max, F_max", [
        (12.8, 2.6349026385411345, 1.581826927749988),
        (13.1, 2.9400923154422407, 2.127564102196547),
    ])
    def test_s_curve_force_maximum_kept(self, omega, A_max, F_max):
        # the force maximum of a noise-free sweep stays where the loop that
        # always waited the fixed settle_time and started Picard from zero
        # harmonics put it
        rig = RigOracle(RigParams(noise_sigma=0.0), DomainBox(11.0, 14.0, 0.2, 8.0), seed=0)
        pts = [rig.measure(omega, float(a)) for a in np.arange(2.2, 3.6, 0.15)]
        # simulated seconds per measurement; waiting the fixed settle_time
        # before every simulation takes 23.6 s at 12.8 Hz
        assert rig._t / len(pts) < 12.0
        A = np.array([p.A for p in pts])
        F = np.array([p.F for p in pts])
        i = next(i for i in range(1, len(F) - 1) if F[i - 1] <= F[i] >= F[i + 1])
        lo = max(i - 2, 0)
        c2, c1, c0 = np.polyfit(A[lo:i + 3], F[lo:i + 3], 2)
        a_star = -c1 / (2.0 * c2)
        assert a_star == pytest.approx(A_max, abs=0.02)
        assert c0 + c1 * a_star + c2 * a_star ** 2 == pytest.approx(F_max, rel=0.003)


class TestNonInvasiveness:
    def test_open_loop_replay_reproduces_amplitude(self):
        # stable low branch point: remove the controller, keep only the
        # fundamental force, and the steady response must be unchanged
        rig = make_rig(noise_sigma=0.0)
        point, _, coeffs = rig.picard_noninvasive(12.8, 2.0)
        _, Au, Bu = coeffs["u"]
        A_replay = rig.replay_open_loop(12.8, Au[0], Bu[0])
        assert A_replay == pytest.approx(point.A, rel=0.02)


class TestMeasureRealization:
    def test_measurement_identity_exact(self):
        rig = make_rig(noise_sigma=0.05)
        rng = np.random.default_rng((rig.seed, 123))
        point, _, coeffs = rig.picard_noninvasive(12.5, 1.5, rng=rng)
        _, Af, Bf = coeffs["f"]
        assert point.F == math.hypot(Af[0], Bf[0])

    def test_realized_amplitude_statistics(self):
        # continuation-style request path with a warm mapping
        rig = make_rig(noise_sigma=0.0, seed=3)
        hits, total = 0, 0
        for A_t in np.arange(0.8, 2.5, 0.1):
            m = rig.measure(12.8, float(A_t))
            total += 1
            hits += abs(m.A - A_t) <= 0.02 * A_t
        assert hits / total >= 0.9

    def test_pinned_cold_simulation(self):
        # a fresh rig's first simulation: fixed settle wait, Picard target from
        # zero harmonics; values of the numpy-scalar loop
        rig = RigOracle(RigParams(noise_sigma=0.05), DomainBox(11.0, 14.0, 0.2, 8.0), seed=7)
        _, coeffs = rig.rig_simulate(12.8, 2.8, rng=np.random.default_rng((7, 0)))
        assert coeffs["y"][1][0] == pytest.approx(1.7818808630615202, rel=1e-12)
        assert coeffs["y"][2][0] == pytest.approx(0.8108077132635783, rel=1e-12)
        assert coeffs["f"][1][0] == pytest.approx(1.1369576757261914, rel=1e-12)
        assert rig._t == pytest.approx(7.16, rel=1e-12)

    def test_pinned_measurement(self):
        # a whole measurement: a cold first simulation, then Picard and
        # realization rounds on the locked loop; a rewrite of the loop's
        # arithmetic must keep these values
        rig = RigOracle(RigParams(noise_sigma=0.05), DomainBox(11.0, 14.0, 0.2, 8.0), seed=7)
        m = rig.measure(12.8, 2.8)
        assert m.A == pytest.approx(2.775105473871795, rel=1e-12)
        assert m.F == pytest.approx(1.575597844143026, rel=1e-12)
        assert m.a1_star == pytest.approx(3.745536907575487, rel=1e-12)
        assert m.harmonics_residual == pytest.approx(0.0038707960273817476, rel=1e-12)
        assert m.seed_state == "7:0"

    def test_records_are_float_arrays_of_record_length(self):
        rig = make_rig(noise_sigma=0.05)
        records, _ = rig.rig_simulate(12.5, 1.5, rng=np.random.default_rng(0))
        for key in ("y", "u", "f"):
            assert records[key].dtype == np.float64
            assert records[key].shape == (rig.params.record_len,)

    def test_reproducible_with_same_seed(self):
        a = make_rig(noise_sigma=0.05, seed=9)
        b = make_rig(noise_sigma=0.05, seed=9)
        pa = [a.measure(12.0, 1.0), a.measure(12.1, 1.2)]
        pb = [b.measure(12.0, 1.0), b.measure(12.1, 1.2)]
        for x, y in zip(pa, pb):
            assert (x.omega, x.A, x.F, x.a1_star) == (y.omega, y.A, y.F, y.a1_star)


class TestSimulatedPath:
    def test_trace_runs_the_same_simulations(self, monkeypatch):
        # rig_trace.yaml seed 0: the number of simulations and Picard runs and
        # the simulated time of a whole trace; window arithmetic must not move them
        counts = {"rig_simulate": 0, "picard_noninvasive": 0}
        for name in counts:
            def counted(self, *args, _method=getattr(RigOracle, name), _name=name, **kw):
                counts[_name] += 1
                return _method(self, *args, **kw)
            monkeypatch.setattr(RigOracle, name, counted)
        cfg = replace(load_config(CONFIGS / "rig_trace.yaml"), seed=0)
        rig = make_oracle(cfg.oracle, run_seed=cfg.seed)
        run_trace(cfg, oracle=rig)
        assert counts == {"rig_simulate": 172, "picard_noninvasive": 110}
        assert rig._t == pytest.approx(611.05, abs=1e-6)


class TestMapping:
    def test_linear_history_exact_interpolation(self):
        history = [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]
        assert update_a1star_mapping(history, 2.5) == pytest.approx(5.0, rel=1e-12)

    def test_affine_history_exact(self):
        history = [(a, 0.7 + 1.3 * a) for a in (0.5, 1.0, 1.5, 2.2)]
        assert update_a1star_mapping(history, 1.8) == pytest.approx(0.7 + 1.3 * 1.8, rel=1e-10)

    def test_constant_history_falls_back_proportional(self):
        history = [(2.0, 3.0), (2.0, 3.0), (2.0, 3.0)]
        assert update_a1star_mapping(history, 4.0) == pytest.approx(6.0)

    def test_empty_history_uses_identity_guess(self):
        assert update_a1star_mapping([], 1.7) == 1.7

    def test_single_point_proportional(self):
        assert update_a1star_mapping([(2.0, 5.0)], 1.0) == pytest.approx(2.5)

    def test_sliding_window(self):
        # old misleading points outside the window are ignored
        history = [(1.0, 100.0)] + [(a, 2.0 * a) for a in np.linspace(0.5, 3.0, 30)]
        assert update_a1star_mapping(history, 2.0, window=30) == pytest.approx(4.0, rel=1e-6)


class TestRigParamsValidation:
    def test_hardware_scale_constants(self):
        p = RigParams()
        assert (p.f1, p.f2) == (11.49, 36.45)
        assert (p.zeta1, p.zeta2) == (0.026, 0.022)
        assert p.sample_rate == 1000.0 and p.record_len == 2000
        assert p.fourier_modes == 7
        assert p.controller_num == (0.0053,)
        assert p.controller_den == (1.0, -2.4521, 1.9725, -0.5155)
        assert 3.0 < p.f2 / p.f1 < 3.3

    def test_monic_denominator_required(self):
        with pytest.raises(ValueError):
            RigParams(controller_den=(2.0, -1.0, 0.5, -0.1))

    def test_record_window_covers_22_to_29_cycles(self):
        p = RigParams()
        seconds = p.record_len / p.sample_rate
        assert 22 <= seconds * 11.0 and seconds * 14.5 <= 29
