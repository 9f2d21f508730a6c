"""Tests of the benchmark's own parts:  python3 -m pytest perfbench"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from locus import Duffing, distance_to_curve, lower_fold_errors  # noqa: E402
from spans import Tracer  # noqa: E402
from timing import (PROBE_REF_S, TimedOracle, job_seconds, percentile,  # noqa: E402
                    speed_factors, think_gaps_ms)

D = Duffing()


# -- closed-form locus ---------------------------------------------------------

def test_fold_amplitudes_hand_values():
    # omega = 1.11: a = -0.2321, c = 0.0444, sqrt(a^2 - 3c^2) = 0.2189893,
    # s = (0.4642 -+ 0.2189893) / 0.1125 = 2.179651, 6.072793
    A_lo, A_hi = D.fold_amplitudes(1.11)
    assert A_lo == pytest.approx(1.476364, abs=2e-6)
    assert A_hi == pytest.approx(2.464304, abs=2e-6)


def test_cusp_hand_values():
    # w_c = sqrt(3) 0.02 + sqrt(1.0012) = 1.0352409; s_c = -2 a / (3 b) = 1.275088
    assert D.cusp_omega == pytest.approx(1.0352409, abs=1e-7)
    curve = D.locus_curve(1.2)
    i = int(np.argmin(curve[:, 0]))
    assert curve[i, 0] == pytest.approx(1.0352409, abs=1e-7)
    assert curve[i, 1] == pytest.approx(1.129198, abs=1e-6)
    # the two branches close continuously at the cusp
    assert np.all(np.isfinite(curve))
    assert np.max(np.abs(np.diff(curve[:, 1]))) < 0.02
    assert np.all(np.isnan(D.fold_amplitudes(1.03)))


@pytest.mark.parametrize("omega", [1.04, 1.11, 1.3, 1.45])
def test_fold_amplitudes_zero_dF_dA(omega):
    h = 1e-6
    for A in D.fold_amplitudes(omega):
        dF = (D.force(omega, A + h) - D.force(omega, A - h)) / (2 * h)
        assert abs(dF) < 1e-6


def test_lower_fold_inverse_and_errors():
    A, F = D.lower_fold(1.2)
    assert D.lower_fold_omega(float(F)) == pytest.approx(1.2, abs=1e-10)
    e_F, e_w = lower_fold_errors(D, 1.2, float(F) * 1.01)
    assert e_F == pytest.approx(0.01, rel=1e-9)
    assert 0.0 < e_w < 0.01


def test_distance_to_curve_measures_segments():
    curve = np.array([[0.0, 0.0], [2.0, 0.0]])
    d = distance_to_curve([[1.0, 0.5], [3.0, 0.0]], curve, np.array([1.0, 0.5]))
    assert d == pytest.approx([1.0, 1.0])


# -- think gaps ----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class ScriptedOracle:
    """Each measure takes `cost` seconds of the fake clock."""

    domain_box = (0.0, 1.0, 0.0, 1.0)

    def __init__(self, clock, cost):
        self.clock, self.cost = clock, cost

    def measure(self, omega, A, seed=None):
        self.clock.t += self.cost
        return types.SimpleNamespace(omega=omega, A=A, F=1.0)


class ScriptedProbe:
    """Each probe takes `cost` seconds of the fake clock."""

    def __init__(self, clock, cost):
        self.clock, self.cost = clock, cost

    def __call__(self):
        self.clock.t += self.cost


def _scripted_run(pauses, probe_s=PROBE_REF_S):
    clock = FakeClock()
    timed = TimedOracle(ScriptedOracle(clock, cost=0.5), ScriptedProbe(clock, probe_s), clock)
    for k, pause in enumerate(pauses):
        clock.t += pause
        timed.measure(0.1 * k, 0.2)
    return timed, clock


def test_think_gaps_on_scripted_oracle():
    pauses = [0.0, 1e-6, 2e-6, 0.250, 0.004, 0.007, 0.011]  # before each call
    timed, _ = _scripted_run(pauses)
    assert timed.domain_box == (0.0, 1.0, 0.0, 1.0)
    assert [c.omega for c in timed.calls] == pytest.approx([0.1 * k for k in range(7)])
    # three grid measurements; the first gap kept holds the fit (250 ms); probing is not think time
    assert think_gaps_ms(timed.calls, 3) == pytest.approx([250.0, 4.0, 7.0, 11.0])
    assert think_gaps_ms(timed.calls, 7) == []


def test_think_gaps_scale_by_the_probe():
    # the machine at half the reference speed: probes and pauses both take twice as long
    timed, _ = _scripted_run([0.0, 0.0, 0.020, 0.040, 0.060], probe_s=2 * PROBE_REF_S)
    assert think_gaps_ms(timed.calls, 2) == pytest.approx([10.0, 20.0, 30.0])
    assert think_gaps_ms(timed.calls, 2, scaled=False) == pytest.approx([20.0, 40.0, 60.0])


def test_speed_factors_follow_local_probes():
    probes = [PROBE_REF_S] * 6 + [2 * PROBE_REF_S] * 6
    f = speed_factors(probes)
    assert f[0] == pytest.approx(1.0) and f[-1] == pytest.approx(0.5)
    assert f[5] == pytest.approx(5 / 7)  # window of 3 fast and 2 slow probes
    assert all(a >= b for a, b in zip(f, f[1:]))


def test_job_seconds_leave_out_probing():
    timed, clock = _scripted_run([0.1, 0.2, 0.3], probe_s=2 * PROBE_REF_S)
    t_end = clock.t + 0.4
    wall, ref = job_seconds(timed.calls, 0.0, t_end)
    # pauses 0.6 s, three measurements 1.5 s and 0.4 s after the last; six probes left out
    assert wall == pytest.approx(2.5)
    assert ref == pytest.approx(1.25)


def test_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile([3.0], 90) == 3.0


# -- checks reject a displaced fold point ----------------------------------------

def _duffing_folds(omegas):
    return [(w, float(a), float(f)) for w in omegas for a, f in [D.lower_fold(w)]]


def test_duffing_check_rejects_displaced_point():
    folds = _duffing_folds([1.11, 1.2, 1.3, 1.44])
    assert checks.check_duffing_folds(folds) == []
    w, A, F = folds[2]
    folds[2] = (w, A, F * (1.0 + 2 * checks.DUFFING_TOL_FORCE))
    faults = checks.check_duffing_folds(folds)
    assert len(faults) == 1 and "fold 2" in faults[0]


def test_rig_check_rejects_displaced_point():
    ref = {12.8: (2.64, 1.58), 13.25: (3.09, 2.42)}
    folds = [(12.8, 2.62, 1.56), (13.0, 2.8, 1.95), (13.3, 3.1, 2.5)]
    assert checks.check_rig_folds(folds, ref) == []
    moved = [(12.8, 2.62 + 2 * checks.RIG_TOL_A_MM, 1.56)] + folds[1:]
    assert len(checks.check_rig_folds(moved, ref)) == 1
    louder = [(12.8, 2.62, 1.56 * (1 + 2 * checks.RIG_TOL_FORCE))] + folds[1:]
    assert len(checks.check_rig_folds(louder, ref)) == 1
    # a trace that stops early is checked where it reached, and fails only if nowhere
    assert checks.check_rig_folds(folds[:1], ref) == []
    assert "no reference frequency" in checks.check_rig_folds([], ref)[0]
    assert checks.check_in_box([(12.0, 3.0)], (11.0, 14.0, 0.2, 8.0)) == []
    assert len(checks.check_in_box([(12.0, 0.1)], (11.0, 14.0, 0.2, 8.0))) == 1


def test_ensemble_check_rejects_displaced_point():
    locus = D.locus_curve(1.26)
    curve = locus[::200].copy()  # through the cusp, both branches
    assert checks.check_ensemble_curve(curve, locus) == []
    k = int(np.argmin(curve[:, 0]))  # the point nearest the cusp
    # the locus runs along A there, so move the point below the cusp frequency
    curve[k, 0] -= 2 * checks.ENSEMBLE_TOL * checks.ENSEMBLE_SCALES[0]
    faults = checks.check_ensemble_curve(curve, locus)
    assert len(faults) == 1 and f"point {k} " in faults[0]


def test_s_curve_force_max_between_grid_points():
    A = np.linspace(1.9, 3.7, 13)
    F = 1.58 - 0.4 * (A - 2.637) ** 2 + 0.3 * np.clip(A - 3.2, 0, None) ** 2
    a_star, f_star = checks.s_curve_force_max(A, F)
    assert a_star == pytest.approx(2.637, abs=1e-9)
    assert f_star == pytest.approx(1.58, abs=1e-9)


# -- spans -------------------------------------------------------------------------

def test_tracer_patches_every_caller_and_takes_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    lib = types.ModuleType("lib")
    lib.leaf = leaf
    user = types.ModuleType("user")
    user.leaf = leaf

    def outer():
        clock.t += 1.0
        user.leaf()
        lib.leaf()

    tracer.patch([lib, user], "leaf", "lib.leaf")
    wrapped_outer = tracer.wrap("outer", outer)
    wrapped_outer()
    tracer.unpatch()
    assert user.leaf is leaf and lib.leaf is leaf
    tot = tracer.totals()
    assert tot["lib.leaf"] == (2, 4.0, 4.0)
    assert tot["outer"] == (1, 5.0, 1.0)
    with pytest.raises(RuntimeError):
        tracer.patch([lib, types.SimpleNamespace(__name__="other", leaf=math.sqrt)],
                     "leaf", "lib.leaf")


# -- the report ------------------------------------------------------------------

def test_every_workload_reports_every_end_to_end_metric():
    import json

    import run
    manifest = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in manifest["end_to_end"]]
    assert sorted(run.END_TO_END) == sorted(names)
    setups = [{"wall_s": 1.0, "probe_s": PROBE_REF_S}] * 3
    online = {"ref_s": 2.0, "wall_s": 2.5, "n_folds": 10, "n_meas": 40, "seed": 1,
              "gaps_ms": [float(g) for g in range(1, 30)], "raw_gaps_ms": [1.0] * 29,
              "reason": "domain_edge: left the box", "n_final": 40, "beyond_readme": 0}
    ensemble = {"ref_s": 1.1, "wall_s": 1.3, "n_folds": 460, "n_meas": 2570}
    for name in run.WORKLOADS:
        job = online if run.WORKLOADS[name].kind == "online" else ensemble
        metrics, _ = run._end_to_end(name, {"jobs": [job, job], "peak_rss_mb": 90.0}, setups)
        assert sorted(metrics) == sorted(names), name
        assert all(v > 0 for v, _ in metrics.values()), name


def test_every_workload_reports_every_per_layer_metric():
    import json

    import layers
    import run
    manifest = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = sorted(m["name"] for m in manifest["per_layer"])
    assert sorted(k for k, _, _ in layers.catalogue()) == names
    # a traced run that entered no layer: every figure is there and reads 0
    extra = {"trace.overhead_ms": 1.0, "trace.overhead_pct": 0.5}
    vals = layers.reduce(Tracer(), 2, extra)
    setups = [{"wall_s": 1.0, "probe_s": PROBE_REF_S, "import_ms": 600.0, "config_ms": 1.0,
               "oracle_ms": 0.1}] * 3
    metrics, _ = run._per_layer({"layers": vals, "plain_ref_s": 2.0}, setups)
    assert sorted(metrics) == names
    assert metrics["gpr.add_point.ms"][0] == 0.0 and metrics["setup.input_ms"][0] == 0.0
