import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from reference_oracles import fourier_series, linear_tip_frf, lstsq_fourier_coeffs

from foldtrack import rig as rig_module
from foldtrack.config import load_config, make_oracle
from foldtrack.driver import run_trace
from foldtrack.errors import ControlDiverged
from foldtrack.geometry import DomainBox
from foldtrack.postprocess import sweep_s_curve
from foldtrack.rig import (MAX_CORRECTIONS, REALIZATION_TOL, RigOracle, RigParams,
                           _fit_fourier, _phasor, _segment_references,
                           _TargetSignal, update_a1star_mapping)

BOX = DomainBox(9.0, 16.0, 0.02, 25.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_rig(**kw) -> RigOracle:
    seed = kw.pop("seed", 1)
    return RigOracle(RigParams(**kw), BOX, seed=seed)


def make_target(omega: float, a1_star: float, a0: float = 0.0, A=(), B=()) -> _TargetSignal:
    """The reference of A1* = a1_star, with a0 and the given higher harmonics A_j, B_j, j >= 2."""
    target = _TargetSignal(omega, RigParams.fourier_modes)
    target.a0 = a0
    target.A[0] = a1_star
    target.A[1:1 + len(A)] = A
    target.B[1:1 + len(B)] = B
    return target


def settle_and_record(rig: RigOracle, omega: float, a1_star: float, rng=None):
    """Settle the loop on the reference of A1* = a1_star alone, then record one window."""
    target = make_target(omega, a1_star)
    rig._settle(target)
    return rig.rig_simulate(target, rng=rng)


def assert_locked_on(rig: RigOracle, target: _TargetSignal):
    """The loop is locked on the target's frequency, a0 and higher harmonics."""
    omega, a0, A, B = rig._lock
    assert (omega, a0) == (target.omega_hz, target.a0)
    assert np.array_equal(A, target.A[1:]) and np.array_equal(B, target.B[1:])


class TestFourierCoeffs:
    def test_recovers_known_signal(self):
        fs, f = 1000.0, 12.3
        t = np.arange(2000) / fs
        sig = 0.4 + 1.5 * np.cos(2 * np.pi * f * t) - 0.7 * np.sin(2 * np.pi * f * t) \
            + 0.2 * np.cos(3 * 2 * np.pi * f * t)
        [(a0, A, B)] = _fit_fourier(_phasor(f, t), fs / f, 7, sig)
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
        [(a0, A, B)] = _fit_fourier(_phasor(f, t), fs / f, 7, sig)
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


class TestSettleArithmetic:
    """The settle's block reference and one-mode fit of each period."""

    def test_block_reference_equals_per_segment_sampling(self):
        rng = np.random.default_rng(11)
        T = 1.0 / RigParams.sample_rate
        for _ in range(40):
            omega = rng.uniform(9.0, 16.0)
            target = _TargetSignal(omega, 7)
            target.a0 = rng.normal()
            target.A[:] = rng.normal(size=7)
            target.B[:] = rng.normal(size=7)
            n = math.ceil(RigParams.sample_rate / omega) + 1
            count = int(rng.integers(1, 12))
            t = rng.uniform(0.0, 600.0)
            E, ystar = _segment_references(target, t, n, T, count)
            for k in range(count):
                E_k = _phasor(omega, t + np.arange(n) * T)
                assert np.array_equal(E[k], E_k)
                assert np.array_equal(ystar[k], target.sample(E_k))
                t = t + n * T

    def test_one_mode_fit_of_a_period_list_matches_lstsq(self):
        # the settle's fit: one period plus one sample, its y samples a list
        fs = RigParams.sample_rate
        rng = np.random.default_rng(12)
        for _ in range(200):
            omega = rng.uniform(9.0, 16.0)
            n = math.ceil(fs / omega) + 1
            t0 = rng.uniform(0.0, 600.0)
            t = t0 + np.arange(n) / fs
            y = fourier_series(rng.normal(), rng.normal(size=3), rng.normal(size=3), omega, t)
            y += 0.05 * rng.standard_normal(n)
            [(a0, A, B)] = _fit_fourier(_phasor(omega, t), fs / omega, 1, y.tolist())
            a0_ref, A_ref, B_ref = lstsq_fourier_coeffs(y, omega, fs, 1, t0)
            assert a0 == pytest.approx(a0_ref, abs=1e-10)
            np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(B, B_ref, rtol=0, atol=1e-10)


class TestEquilibriumAndLinear:
    def test_zero_target_zero_response(self):
        rig = make_rig(noise_sigma=0.0)
        records, coeffs = settle_and_record(rig, 12.0, 0.0)
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

    def test_saturation_exit_leaves_loop_at_rest(self):
        # the trip puts the loop at rest as a fresh rig's, its clock on the
        # saturating sample
        rig = make_rig(noise_sigma=0.0)
        with pytest.raises(ControlDiverged):
            rig.picard_noninvasive(11.49, 60.0)
        samples = rig._t * rig.params.sample_rate
        assert samples == pytest.approx(round(samples), abs=1e-9)
        assert rig._q == [0.0] * 4
        assert rig._u_hist == rig._e_hist == [0.0] * 3
        assert rig._lock is None

    def test_replay_after_a_trip_runs_from_rest(self):
        # an open-loop replay straight after a trip runs as on a fresh rig
        # whose clock stands at the saturating sample
        tripped = make_rig(noise_sigma=0.0)
        with pytest.raises(ControlDiverged):
            tripped.picard_noninvasive(11.49, 60.0)
        fresh = make_rig(noise_sigma=0.0)
        fresh._t = tripped._t
        assert tripped.replay_open_loop(12.8, 1.0, 0.0) == fresh.replay_open_loop(12.8, 1.0, 0.0)

    def test_trip_does_not_fail_later_simulations(self):
        # a tripped loop is at rest, so its next simulation runs as a fresh rig's
        rig = RigOracle(RigParams(noise_sigma=0.0), DomainBox(9.0, 16.0, 0.02, 80.0), seed=1)
        tripped = sweep_s_curve(rig, 11.49, [1.0, 60.0])
        assert len(tripped.failures) == 1
        curve = sweep_s_curve(rig, 12.8, [1.0, 2.0, 3.0])
        assert len(curve.points) == 3 and not curve.failures


class TestLock:
    """A loop from rest waits the fixed settle_time; a running loop skips it.

    From rest means unlocked: a fresh rig, or a loop restarted after a
    saturation trip or an open-loop replay.  A running loop, locked at the
    requested frequency or at another, goes straight to the period-by-period
    convergence check.
    """

    def test_same_frequency_skips_the_fixed_wait(self):
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 12.8, 2.0)
        t = rig._t
        settle_and_record(rig, 12.8, 2.1)
        assert rig._t - t < rig.params.settle_time

    def test_new_frequency_skips_the_fixed_wait(self):
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 12.8, 2.0)
        t = rig._t
        settle_and_record(rig, 12.9, 2.0)
        record = rig.params.record_len / rig.params.sample_rate
        assert rig._t - t - record < rig.params.settle_time

    def test_fresh_loop_waits_in_full(self):
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 12.8, 2.0)
        record = rig.params.record_len / rig.params.sample_rate
        assert rig._t - record >= rig.params.settle_time

    def test_replay_unlocks(self):
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 12.8, 2.0)
        rig.replay_open_loop(12.8, 1.0, 0.0)
        t = rig._t
        settle_and_record(rig, 12.8, 2.0)
        record = rig.params.record_len / rig.params.sample_rate
        assert rig._t - t - record >= rig.params.settle_time

    def test_trip_unlocks(self):
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 11.49, 1.0)
        with pytest.raises(ControlDiverged):
            settle_and_record(rig, 11.49, 60.0)
        t = rig._t
        settle_and_record(rig, 11.49, 1.0)
        record = rig.params.record_len / rig.params.sample_rate
        assert rig._t - t - record >= rig.params.settle_time

    def test_record_runs_one_window_straight_on(self):
        # no settle: the clock moves by exactly one record, on a loop locked
        # at another frequency on another reference
        rig = make_rig(noise_sigma=0.0)
        settle_and_record(rig, 12.8, 2.0)
        t = rig._t
        target = make_target(12.9, 2.1, a0=0.01, A=[0.0, 0.05], B=[-0.02])
        rig.rig_simulate(target)
        p = rig.params
        assert rig._t == t + p.record_len / p.sample_rate
        assert_locked_on(rig, target)

    def test_each_closed_loop_window_locks_the_loop(self):
        # the fixed wait from rest, a probe and a record each lock the loop on
        # their own target; the settle's period checks that follow the wait
        # leave that lock as it is
        rig = make_rig(noise_sigma=0.0)
        waited = make_target(12.8, 2.0)
        rig._settle(waited)
        assert_locked_on(rig, waited)
        probed = make_target(12.8, 2.05, a0=0.01, A=[0.0, 0.05], B=[-0.02])
        rig._probe(probed)
        assert_locked_on(rig, probed)
        recorded = make_target(12.8, 2.05, a0=0.02, A=[0.01], B=[0.0, 0.03])
        rig.rig_simulate(recorded)
        assert_locked_on(rig, recorded)

    @pytest.mark.parametrize("hop", [(12.8, 13.1), (13.25, 12.95), (12.5, 13.0)])
    def test_measurement_after_a_hop_matches_one_from_rest(self, hop):
        # the period check alone settles a loop moved from another frequency
        # as well as the fixed wait settles one from rest
        before, omega = hop
        hopped = make_rig(noise_sigma=0.0)
        hopped.measure(before, 2.5)
        from_rest, _, _ = make_rig(noise_sigma=0.0).picard_noninvasive(omega, 2.5)
        after_hop, _, _ = hopped.picard_noninvasive(omega, 2.5)
        assert after_hop.A == pytest.approx(from_rest.A, rel=1e-3)
        assert after_hop.F == pytest.approx(from_rest.F, rel=1e-3)

    def test_settle_capped_at_max_time(self, monkeypatch):
        # no two periods ever agree to 1e-300, so each settle runs to its cap
        monkeypatch.setattr(RigParams, "settle_rel_tol", 1e-300)
        monkeypatch.setattr(RigParams, "settle_max_time", 8.0)
        rig = make_rig(noise_sigma=0.0)
        p = rig.params
        record = p.record_len / p.sample_rate
        for omega in (12.8, 12.8, 13.0):
            period = (math.ceil(p.sample_rate / omega) + 1) / p.sample_rate
            t = rig._t
            settle_and_record(rig, omega, 2.0)
            settle = rig._t - t - record
            assert p.settle_max_time - 1e-9 <= settle <= p.settle_max_time + period + 1e-9

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
        _, coeffs = settle_and_record(rig, 12.8, 2.8, rng=np.random.default_rng((7, 0)))
        assert coeffs["y"][1][0] == pytest.approx(1.7818808630615202, rel=1e-12)
        assert coeffs["y"][2][0] == pytest.approx(0.8108077132635783, rel=1e-12)
        assert coeffs["f"][1][0] == pytest.approx(1.1369576757261914, rel=1e-12)
        assert rig._t == pytest.approx(7.16, rel=1e-12)

    def test_pinned_measurement(self):
        # a whole measurement: a cold first settle, then the one Picard loop
        # that probes each iteration, corrects A1* on the locked loop and
        # ends on a full record; a rewrite of the loop's arithmetic must keep
        # these values
        rig = RigOracle(RigParams(noise_sigma=0.05), DomainBox(11.0, 14.0, 0.2, 8.0), seed=7)
        m = rig.measure(12.8, 2.8)
        assert m.A == pytest.approx(2.773700241605924, rel=1e-12)
        assert m.F == pytest.approx(1.573537356304454, rel=1e-12)
        assert m.a1_star == pytest.approx(3.744484853548487, rel=1e-12)
        assert m.harmonics_residual == pytest.approx(0.009291597768000249, rel=1e-12)
        assert m.seed_state == "7:0"
        assert rig._t == pytest.approx(9.542, rel=1e-12)

    def test_records_are_float_arrays_of_record_length(self):
        rig = make_rig(noise_sigma=0.05)
        records, _ = settle_and_record(rig, 12.5, 1.5, rng=np.random.default_rng(0))
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
        # rig_trace.yaml seed 0: the number of probes, full records and Picard
        # runs and the simulated time of a whole trace; window arithmetic must
        # not move them
        counts = {"_probe": 0, "rig_simulate": 0, "picard_noninvasive": 0}
        for name in counts:
            def counted(self, *args, _method=getattr(RigOracle, name), _name=name, **kw):
                counts[_name] += 1
                return _method(self, *args, **kw)
            monkeypatch.setattr(RigOracle, name, counted)
        cfg = replace(load_config(CONFIGS / "rig_trace.yaml"), seed=0)
        rig = make_oracle(cfg.oracle, run_seed=cfg.seed)
        run_trace(cfg, oracle=rig)
        assert counts == {"_probe": 145, "rig_simulate": 51, "picard_noninvasive": 48}
        assert rig._t == pytest.approx(213.117, abs=1e-6)


class Loop(NamedTuple):
    """One Picard loop: its request, result, A1* corrections and the simulations
    it ran, in order ("p" a probe, "r" a full record)."""

    A_target: float
    point: object
    records: dict
    coeffs: dict
    corrections: int
    runs: str


@pytest.fixture(scope="module")
def seed0_loops():
    """rig_trace.yaml seed 0: each Picard loop (Loop), and the number of measurements."""
    loops, measures, predictions, runs = [], [], [], []
    mapping, picard, measure, probe, simulate = (
        rig_module.update_a1star_mapping, RigOracle.picard_noninvasive, RigOracle.measure,
        RigOracle._probe, RigOracle.rig_simulate)

    def counted_mapping(*args, **kw):
        predictions.append(args[1])
        return mapping(*args, **kw)

    def recorded_picard(self, omega, a1_star, rng=None, A_target=None):
        before = len(predictions)
        runs.clear()
        point, records, coeffs = picard(self, omega, a1_star, rng=rng, A_target=A_target)
        loops.append(Loop(A_target, point, records, coeffs, len(predictions) - before,
                          "".join(runs)))
        return point, records, coeffs

    def counted_probe(self, *args, **kw):
        runs.append("p")
        return probe(self, *args, **kw)

    def counted_simulate(self, *args, **kw):
        runs.append("r")
        return simulate(self, *args, **kw)

    def counted_measure(self, *args, **kw):
        measures.append(args)
        return measure(self, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rig_module, "update_a1star_mapping", counted_mapping)
        mp.setattr(RigOracle, "picard_noninvasive", recorded_picard)
        mp.setattr(RigOracle, "_probe", counted_probe)
        mp.setattr(RigOracle, "rig_simulate", counted_simulate)
        mp.setattr(RigOracle, "measure", counted_measure)
        cfg = replace(load_config(CONFIGS / "rig_trace.yaml"), seed=0)
        run_trace(cfg, oracle=make_oracle(cfg.oracle, run_seed=cfg.seed))
    return loops, len(measures)


class TestOneLoop:
    """measure runs one Picard loop, whose iterations also correct A1*."""

    def test_one_picard_loop_per_measurement(self, seed0_loops):
        loops, n_measures = seed0_loops
        assert len(loops) == n_measures > 25
        assert all(loop.A_target is not None for loop in loops)

    def test_each_point_converged_and_realized_or_out_of_corrections(self, seed0_loops):
        loops, _ = seed0_loops
        hit = [abs(loop.point.A - loop.A_target) <= REALIZATION_TOL * loop.A_target
               for loop in loops]
        corrections = [loop.corrections for loop in loops]
        assert all(loop.point.harmonics_residual < RigParams().picard_tol for loop in loops)
        assert all(h or c == MAX_CORRECTIONS for h, c in zip(hit, corrections))
        assert max(corrections) == MAX_CORRECTIONS
        # some loops hit after a correction, some run out of corrections
        assert any(h and c > 0 for h, c in zip(hit, corrections))
        assert not all(hit)

    def test_each_point_comes_from_a_full_record(self, seed0_loops):
        # the returned point is read from a record_len window, not from a probe
        loops, _ = seed0_loops
        p = RigParams()
        for loop in loops:
            assert loop.runs.endswith("r")
            for key in "yuf":
                assert loop.records[key].shape == (p.record_len,)
            _, Ay, By = loop.coeffs["y"]
            a0u, Au, Bu = loop.coeffs["u"]
            _, Af, Bf = loop.coeffs["f"]
            assert loop.point.A == math.hypot(Ay[0], By[0])
            assert loop.point.F == math.hypot(Af[0], Bf[0])
            assert loop.point.harmonics_residual == max(
                abs(a0u) / 2.0, max(math.hypot(Au[j], Bu[j]) for j in range(1, p.fourier_modes)))

    def test_full_record_only_straight_after_a_probe(self, seed0_loops):
        # every iteration probes; a full record follows a probe, never a settle
        loops, _ = seed0_loops
        for loop in loops:
            assert loop.runs.startswith("p") and "rr" not in loop.runs
        runs = "".join(loop.runs for loop in loops)
        n_probes, n_records = runs.count("p"), runs.count("r")
        assert n_records > len(loops)              # some full records fail the tests
        assert n_probes - n_records > n_records    # most iterations end at their probe

    def test_without_a_target_a1_star_is_held_and_the_map_untouched(self):
        rig = make_rig(noise_sigma=0.0)
        rig.measure(12.8, 2.0)
        history = list(rig.mapping_history)
        point, _, _ = rig.picard_noninvasive(12.8, 2.7)
        assert point.a1_star == 2.7
        assert rig.mapping_history == history


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
        assert update_a1star_mapping(history, 2.0) == pytest.approx(4.0, rel=1e-6)


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

    def test_record_window_covers_22_to_29_cycles(self):
        p = RigParams()
        seconds = p.record_len / p.sample_rate
        assert 22 <= seconds * 11.0 and seconds * 14.5 <= 29
