"""Virtual test rig: a two-mode beam model under discrete-time output feedback.

The plant is a Galerkin reduction of a cantilever with a nonlinear spring
mechanism at its tip: two mass-normalized modal oscillators

    q_i'' + 2 zeta_i w_i q_i' + w_i^2 q_i = psi_i u - phi_i k3 y^3,
    y = phi_1 q_1 + phi_2 q_2,

driven by the shaker force u and coupled through the cubic tip force.  The
modal frequencies and damping ratios are the identified values of the
physical beam (11.49 Hz / 0.026 and 36.45 Hz / 0.022, a 3.17 frequency
ratio); mode-shape and stiffness coefficients are phenomenological, tuned
so the loop below is stable and folds appear at forces of a few newtons.

The tip displacement in mm is compared against a harmonic reference signal
and fed through the fixed z-domain controller

    U(z)/E(z) = 0.0053 / (z^3 - 2.4521 z^2 + 1.9725 z - 0.5155)

at 1 kHz.  Feedback is made non-invasive by cancelling the control signal's
higher harmonics with a Picard iteration on the reference coefficients, the
fundamental sine coefficient being pinned to zero as the phase reference.
The reported force amplitude is sqrt(A1_u^2 + B1_u^2) of the measured force
record (the applied force plus sensor noise).

A measurement is one fixed-point loop on the reference, as in control-based
continuation (Barton & Sieber, Phys. Rev. E 87, 052916, 2013).  Its first
A1* is predicted from the running map of (realized amplitude, A1*) pairs.
Each iteration settles the loop and fits the response and control signals
on a noise-free probe of PROBE_PERIODS whole periods.  The loop would end
once the higher-harmonic residual is below picard_tol and the amplitude
hits or MAX_CORRECTIONS corrections were made.  Only when the probe passes
that test does the iteration record the full record_len window.  The
record itself never settles: it runs straight on from the loop as it
stands, and it follows the probe with no new settle because the Picard
loop calls it right after the probe.  The loop ends only when the full
record passes the same test; so a measurement is accepted on a full
record, and reports its force.  Otherwise the iteration's last fit, probe
or record, sets the higher harmonics of the reference and adds its
(A, A1*) pair to the map, and while the realized amplitude misses the
request by more than REALIZATION_TOL the next iteration also runs on the
A1* the map predicts.  A correction thus rides on an iteration the
harmonics need anyway, and an iteration that cannot be the last costs a
settle and a probe, not a 2 s record.

The loop keeps running between simulations, as on the hardware.  Each
window that _closed_loop runs, the fixed wait from rest, a probe or a
record, locks it at that frequency on that reference; the settle's period
checks leave the lock as it is.  A saturation trip puts the loop at rest
where it trips: zero plant state and histories, unlocked, as in a fresh
rig, with the clock at the saturating sample.  An unlocked loop (a fresh
rig, a tripped loop, or one after an open-loop replay) first waits the
fixed settle_time.  A running loop, locked at this frequency or at another,
skips that wait.  Either way the settle then checks convergence period by
period: it compares each period's fundamental response amplitude with the
previous period's and ends at the first that agrees within settle_rel_tol,
or once settle_max_time has run.  Picard iteration on a loop locked at its
frequency starts from the locked higher harmonics instead of zeros, so a
later measurement at one frequency starts close to its fixed point.

The plant is ZOH-discretized per mode at the sample rate, with the cubic
force held constant over each sample like the shaker input; this keeps the
simulation exactly repeatable for a given seed.

The per-sample loop runs on Python floats: the ZOH coefficients, the
reference and any open-loop drive are converted once per segment, and the
records are built from lists after the loop.  Each operation on a numpy
scalar costs several times the same IEEE operation on a float, and the
loop is most of a measurement's time.  The operations and their order are
those of the numpy-scalar loop, so every record is bit-for-bit the same.

The numpy work around the loop rests on one phasor per segment,
E = exp(i 2 pi omega t) at its samples.  The reference is a Horner
evaluation in E of the complex coefficients A_j - i B_j, an open-loop
replay's drive is Au1 Re E + Bu1 Im E, and the Fourier design matrix of
the segment's window holds the real and imaginary parts of the powers of
E, so no other trigonometric array is taken.  The y, u and force records
of a window are fitted together: one solve of the normal equations
M^T M c = M^T [y u f], whose matrix is nearly diagonal because the window
spans whole cycles.  The settle's period check takes the reference of
SETTLE_BLOCK periods from one phasor, each period starting where the
loop's clock stands after the one before, and fits each period's
fundamental alone with the same three-column solve; its periods build no
force records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from scipy.linalg import expm

from .errors import ControlDiverged, PicardDiverged
from .geometry import DomainBox
from .oracles import MeasuredPoint, SeededOracle

TWO_PI = 2.0 * math.pi
# Amplitude realization: A1* is fitted on the last MAPPING_WINDOW (A, A1*)
# pairs, and a measurement's Picard loop corrects A1* up to MAX_CORRECTIONS
# times until the realized amplitude is within REALIZATION_TOL (relative) of
# the request.
MAPPING_WINDOW = 30
REALIZATION_TOL = 0.02
MAX_CORRECTIONS = 2
# A running loop's settle computes the reference of this many periods at a
# time; on rig_trace.yaml a settle takes 2-15 periods, most often 3-5.
SETTLE_BLOCK = 8
# A Picard iteration first fits y and u on a noise-free probe of this many
# whole periods, and records the full window only when the probe says the
# iteration can be the last.
PROBE_PERIODS = 4
# An open-loop replay settles this long, s, before its record.
REPLAY_TRANSIENT = 3.0


@dataclass(frozen=True)
class RigParams:
    """Virtual-rig constants; frequencies in Hz, displacements in mm, forces in N.

    Only the cubic stiffness and the force noise are settable: the rest
    describe the one beam and controller the rig emulates.
    """

    k3: float = 8.0e7          # tip cubic stiffness, N/m^3
    noise_sigma: float = 0.05  # force-record noise std, N
    f1: ClassVar[float] = 11.49
    f2: ClassVar[float] = 36.45
    zeta1: ClassVar[float] = 0.026
    zeta2: ClassVar[float] = 0.022
    phi: ClassVar[tuple[float, float]] = (1.0, -1.5)     # tip deflection per modal coordinate
    psi: ClassVar[tuple[float, float]] = (-1.35, -3.15)  # modal force per unit shaker force
    sample_rate: ClassVar[float] = 1000.0
    record_len: ClassVar[int] = 2000
    fourier_modes: ClassVar[int] = 7
    controller_num: ClassVar[tuple[float, ...]] = (0.0053,)
    controller_den: ClassVar[tuple[float, ...]] = (1.0, -2.4521, 1.9725, -0.5155)  # monic
    picard_tol: ClassVar[float] = 0.01       # max higher-harmonic force amplitude, N
    picard_max_iter: ClassVar[int] = 20
    saturation_mm: ClassVar[float] = 50.0    # ~10x the linear resonance deflection per newton
    settle_time: ClassVar[float] = 5.0       # fixed wait of a loop from rest, s
    settle_max_time: ClassVar[float] = 30.0  # cap on one settle, the fixed wait included, s
    settle_rel_tol: ClassVar[float] = 1e-3   # agreement of consecutive periods' amplitudes

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma >= 0 required")


def _phasor(omega_hz: float, t: np.ndarray) -> np.ndarray:
    """exp(i 2 pi omega t): its j-th power holds cos and sin of harmonic j."""
    return np.exp(1j * (TWO_PI * omega_hz) * t)


def _fit_fourier(E: np.ndarray, period: float, n_modes: int, *signals: np.ndarray):
    """Least-squares Fourier coefficients (a0, A_j, B_j) of each signal.

    The signals are sampled at the times of the phasor E, and `period` is in
    samples.  The window is the longest run of whole cycles that fits the
    record, counted back from its end; one normal-equations solve fits
    every signal on its basis.
    """
    n = len(E)
    n_cyc = int(n / period)
    if n_cyc < 1:
        raise ValueError("record shorter than one oscillation cycle")
    L = min(int(round(n_cyc * period)), n)
    powers = np.cumprod(np.broadcast_to(E[n - L:, None], (L, n_modes)), axis=1)
    M = np.empty((L, 2 * n_modes + 1))
    M[:, 0] = 0.5
    M[:, 1::2] = powers.real
    M[:, 2::2] = powers.imag
    Y = np.column_stack([s[n - L:] for s in signals])
    coef = np.linalg.solve(M.T @ M, M.T @ Y)
    return [(float(c[0]), c[1::2].copy(), c[2::2].copy()) for c in coef.T]


def _fundamental_amplitude(E: np.ndarray, period: float, y: list) -> float:
    """sqrt(A1^2 + B1^2) of y, as _fit_fourier(E, period, 1, y) gives it.

    The same normal-equations matrix and solve on the same arrays, built
    without the general fit's harmonic powers and column stack.
    """
    n = len(E)
    L = min(int(round(int(n / period) * period)), n)
    window = E[n - L:]
    M = np.empty((L, 3))
    M[:, 0] = 0.5
    M[:, 1] = window.real
    M[:, 2] = window.imag
    c = np.linalg.solve(M.T @ M, M.T @ np.array(y[n - L:], dtype=float)[:, None])
    return math.hypot(c[1, 0], c[2, 0])


def _segment_references(target: "_TargetSignal", t0: float, n: int, T: float, count: int):
    """Phasors E and references y* of `count` consecutive n-sample segments, as rows.

    Segment k starts at t0 with n*T added k times, where the loop's clock
    stands after the k segments before it, so each row is bit for bit the
    phasor and reference of its segment taken alone.
    """
    starts = [t0]
    for _ in range(count - 1):
        starts.append(starts[-1] + n * T)
    E = _phasor(target.omega_hz, np.array(starts)[:, None] + np.arange(n) * T)
    return E, target.sample(E)


class _TargetSignal:
    """Reference y*(t) = A0/2 + sum_j A_j cos(j w t) + B_j sin(j w t)."""

    def __init__(self, omega_hz: float, n_modes: int):
        self.omega_hz = omega_hz
        self.a0 = 0.0
        self.A = np.zeros(n_modes)
        self.B = np.zeros(n_modes)

    def sample(self, E: np.ndarray) -> np.ndarray:
        """y* at the times of the phasor E = _phasor(omega_hz, t).

        Re sum_j (A_j - i B_j) E^j, by Horner's rule in E.
        """
        return 0.5 * self.a0 + np.polyval(np.append((self.A - 1j * self.B)[::-1], 0.0), E).real


class RigOracle(SeededOracle):
    """Closed-loop measurement back-end emulating the physical experiment.

    Stateful like the hardware: plant and controller states, the running
    map from requested response amplitude to the reference coefficient
    A1*, and the RNG stream all persist across measure() calls.  Frequencies
    in Hz, amplitudes in mm, forces in N.
    """

    def __init__(self, params: RigParams, domain_box: DomainBox, seed: int = 0):
        super().__init__(params, domain_box, seed)
        self.mapping_history: list[tuple[float, float]] = []

        p = params
        T = 1.0 / p.sample_rate
        self._T = T
        self._modes = []
        for w, zeta in ((TWO_PI * p.f1, p.zeta1), (TWO_PI * p.f2, p.zeta2)):
            Ac = np.array([[0.0, 1.0], [-w * w, -2.0 * zeta * w]])
            M = expm(np.block([[Ac, np.array([[0.0], [1.0]])], [np.zeros((1, 3))]]) * T)
            Ad, Bd = M[:2, :2], M[:2, 2]
            self._modes.append((float(Ad[0, 0]), float(Ad[0, 1]), float(Ad[1, 0]),
                                float(Ad[1, 1]), float(Bd[0]), float(Bd[1])))
        self._rest()
        self._t = 0.0

    def _rest(self):
        """Put the loop at rest: zero plant state and histories, unlocked."""
        self._q = [0.0, 0.0, 0.0, 0.0]  # q1, qd1, q2, qd2
        self._u_hist = [0.0, 0.0, 0.0]
        self._e_hist = [0.0, 0.0, 0.0]
        # (omega, a0, A[1:], B[1:]) of the reference of the last closed-loop
        # window; None for a loop at rest or replayed open loop
        self._lock = None

    # -- core closed-loop simulation ----------------------------------------

    def _run_segment(self, n: int, ystar: list | None = None, drive: list | None = None):
        """Advance the loop n samples; returns the lists of y (mm) and u samples.

        Closed loop on the reference samples ystar, or open loop on the force
        samples drive; both are lists of Python floats (module doc).
        """
        p = self.params
        T = self._T
        t0 = self._t
        phi1, phi2 = p.phi
        psi1, psi2 = p.psi
        k3 = p.k3
        (a11, a12, a21, a22, b1, b2) = self._modes[0]
        (c11, c12, c21, c22, d1, d2) = self._modes[1]
        q1, qd1, q2, qd2 = self._q
        u1, u2, u3 = self._u_hist
        e1, e2, e3 = self._e_hist
        den = p.controller_den
        r1, r2, r3 = -den[1], den[2], den[3]  # negation is exact; the sum keeps its order
        gain = p.controller_num[0]
        sat = p.saturation_mm
        ys = []
        us = []
        for k in range(n):
            y_m = phi1 * q1 + phi2 * q2   # metres
            y_mm = 1000.0 * y_m
            if abs(y_mm) > sat:
                self._rest()
                self._t = t0 + k * T
                raise ControlDiverged(f"tip response {y_mm:.1f} mm exceeded saturation {sat} mm")
            if drive is not None:
                u = drive[k]
            else:
                e = ystar[k] - y_mm
                u = r1 * u1 - r2 * u2 - r3 * u3 + gain * e3
                e1, e2, e3 = e, e1, e2
            cubic = k3 * y_m * y_m * y_m
            v1 = psi1 * u - phi1 * cubic
            v2 = psi2 * u - phi2 * cubic
            q1, qd1 = a11 * q1 + a12 * qd1 + b1 * v1, a21 * q1 + a22 * qd1 + b2 * v1
            q2, qd2 = c11 * q2 + c12 * qd2 + d1 * v2, c21 * q2 + c22 * qd2 + d2 * v2
            ys.append(y_mm)
            us.append(u)
            u1, u2, u3 = u, u1, u2
        self._q = [q1, qd1, q2, qd2]
        self._u_hist = [u1, u2, u3]
        self._e_hist = [e1, e2, e3]
        self._t = t0 + n * T
        return ys, us

    def _closed_loop(self, target: _TargetSignal, n: int):
        """Run n samples on the target's reference and lock the loop on it.

        Returns the y and u lists and E, the target's phasor at the samples.
        """
        E, ystar = _segment_references(target, self._t, n, self._T, 1)
        ys, us = self._run_segment(n, ystar[0].tolist())
        self._lock = (target.omega_hz, target.a0, target.A[1:].copy(), target.B[1:].copy())
        return ys, us, E[0]

    def _locked_at(self, omega_hz: float) -> bool:
        return self._lock is not None and self._lock[0] == omega_hz

    def _settle(self, target: _TargetSignal):
        """Run the transient until the fundamental response amplitude is steady.

        An unlocked loop first waits the fixed settle_time; a running loop
        does not.  Then each period's fundamental amplitude is compared with
        the previous period's, and the settle ends at the first period that
        agrees within settle_rel_tol, or at the first period that ends after
        settle_max_time (best effort; the Picard tolerance still guards the
        measurement).
        """
        p = self.params
        elapsed = 0.0
        if self._lock is None:
            self._closed_loop(target, int(p.settle_time * p.sample_rate))
            elapsed = p.settle_time
        # one oscillation period rounded up to whole samples, +1 so the
        # least-squares window always contains a full cycle
        period = p.sample_rate / target.omega_hz
        n = int(math.ceil(period)) + 1
        amp_prev = None
        while True:
            E, ystar = _segment_references(target, self._t, n, self._T, SETTLE_BLOCK)
            for k in range(SETTLE_BLOCK):
                ys, _ = self._run_segment(n, ystar[k].tolist())
                elapsed += n / p.sample_rate
                amp = _fundamental_amplitude(E[k], period, ys)
                if amp_prev is not None and (abs(amp - amp_prev) <= p.settle_rel_tol * max(amp, 1e-12)
                                             or elapsed >= p.settle_max_time):
                    return
                amp_prev = amp

    def _probe(self, target: _TargetSignal):
        """Run PROBE_PERIODS whole periods on the settled loop; returns the y and u fits.

        No force record is taken, so the probe draws no noise.
        """
        p = self.params
        period = p.sample_rate / target.omega_hz
        ys, us, E = self._closed_loop(target, int(math.ceil(PROBE_PERIODS * period)) + 1)
        fits = _fit_fourier(E, period, p.fourier_modes, np.array(ys, dtype=float),
                            np.array(us, dtype=float))
        return dict(zip("yu", fits))

    def rig_simulate(self, target: _TargetSignal, rng=None):
        """Record one record_len window on the target, straight on from the loop as it stands.

        No settle runs first.  Returns (records, coeffs): records has keys
        y, u and f; coeffs has the least-squares Fourier coefficients of y,
        u and the force record f, which carries noise drawn from rng.
        """
        p = self.params
        noise = (rng.standard_normal(p.record_len) * p.noise_sigma
                 if rng is not None and p.noise_sigma > 0 else None)
        ys, us, E = self._closed_loop(target, p.record_len)
        y = np.array(ys, dtype=float)
        u = np.array(us, dtype=float)
        f = u + noise if noise is not None else u.copy()
        fits = _fit_fourier(E, p.sample_rate / target.omega_hz, p.fourier_modes, y, u, f)
        return {"y": y, "u": u, "f": f}, dict(zip("yuf", fits))

    def picard_noninvasive(self, omega_hz: float, a1_star: float, rng=None,
                           A_target: float | None = None):
        """Cancel higher harmonics of the control signal by Picard iteration.

        B1* = 0; returns the realized MeasuredPoint of the last full record
        plus its records and coefficients.  A loop locked at omega_hz starts
        from its locked higher harmonics, not from zeros.

        Each iteration settles the loop and fits y and u on a probe of
        PROBE_PERIODS periods.  Only when the probe passes the tests that
        end the loop does the iteration record the full window with
        rig_simulate, straight on from the probe; the loop returns only
        when that record passes them too.
        Otherwise the higher harmonics of the reference are set from the
        last fit, probe or record, and the loop goes on.

        Without A_target, A1* stays at a1_star and the test is that the
        higher-harmonic residual is below picard_tol.  With it, each
        iteration's (A, A1*) pair, from its last fit, joins mapping_history,
        and while the realized amplitude misses A_target by more than
        REALIZATION_TOL and fewer than MAX_CORRECTIONS corrections were
        made, the next iteration also runs on the A1* that
        update_a1star_mapping predicts from it.  The loop ends once the
        residual is below picard_tol and the amplitude hits or the
        corrections are used up.
        """
        p = self.params
        target = _TargetSignal(omega_hz, p.fourier_modes)
        if self._locked_at(omega_hz):
            _, target.a0, target.A[1:], target.B[1:] = self._lock
        target.A[0] = a1_star
        corrections = 0

        def verdict(coeffs):
            """(residual, realized A, whether A1* is to be corrected) of one fit."""
            a0u, Au, Bu = coeffs["u"]
            residual = max(abs(a0u) / 2.0,
                           max(math.hypot(Au[j], Bu[j]) for j in range(1, p.fourier_modes)))
            _, Ay, By = coeffs["y"]
            A_real = math.hypot(Ay[0], By[0])
            correct = (A_target is not None and corrections < MAX_CORRECTIONS
                       and abs(A_real - A_target) > REALIZATION_TOL * max(abs(A_target), 1e-9))
            return residual, A_real, correct

        residual = math.inf
        for _ in range(p.picard_max_iter):
            self._settle(target)
            coeffs = self._probe(target)
            residual, A_real, correct = verdict(coeffs)
            records = None
            if residual < p.picard_tol and not correct:
                records, coeffs = self.rig_simulate(target, rng=rng)
                residual, A_real, correct = verdict(coeffs)
            if A_target is not None:
                self.mapping_history.append((A_real, a1_star))
            if records is not None and residual < p.picard_tol and not correct:
                _, Af, Bf = coeffs["f"]
                return (MeasuredPoint(omega=omega_hz, A=A_real, F=math.hypot(Af[0], Bf[0]),
                                      a1_star=a1_star, harmonics_residual=residual,
                                      seed_state=""),
                        records, coeffs)
            target.a0, Ay, By = coeffs["y"]
            target.A[1:] = Ay[1:]
            target.B[1:] = By[1:]
            if correct:
                a1_star = target.A[0] = update_a1star_mapping(self.mapping_history, A_target)
                corrections += 1
        raise PicardDiverged(
            f"higher-harmonic residual {residual:.4g} N above tol {p.picard_tol} "
            f"after {p.picard_max_iter} iterations at {omega_hz} Hz")

    def replay_open_loop(self, omega_hz: float, Au1: float, Bu1: float):
        """Drive the plant open loop with the fundamental force only.

        Continues from the current plant state (feedback removed), runs
        REPLAY_TRANSIENT seconds, then records one measurement window and
        returns the fundamental response amplitude.  Used to verify that a
        converged control signal was non-invasive.  It unlocks the loop.
        """
        p = self.params
        self._lock = None
        # the transient, then the record, whose phasor and response are fitted
        for n in (int(REPLAY_TRANSIENT * p.sample_rate), p.record_len):
            E = _phasor(omega_hz, self._t + np.arange(n) * self._T)
            ys, _ = self._run_segment(n, drive=(Au1 * E.real + Bu1 * E.imag).tolist())
        [(_, Ay, By)] = _fit_fourier(E, p.sample_rate / omega_hz, p.fourier_modes,
                                     np.array(ys, dtype=float))
        return math.hypot(Ay[0], By[0])

    # -- amplitude realization ----------------------------------------------

    def measure(self, omega: float, A_target: float, seed: int | None = None) -> MeasuredPoint:
        """Realize a response of amplitude ~A_target at frequency omega (Hz)."""
        key = self._key(omega, A_target, seed)
        rng = np.random.default_rng((self.seed, key))
        a1 = update_a1star_mapping(self.mapping_history, A_target)
        point, _, _ = self.picard_noninvasive(omega, a1, rng=rng, A_target=A_target)
        return replace(point, seed_state=f"{self.seed}:{key}")


def update_a1star_mapping(history, A_requested: float) -> float:
    """Predict the reference coefficient A1* that realizes a requested amplitude.

    Least-squares linear fit A1* = c0 + c1 A over the most recent
    MAPPING_WINDOW pairs; proportional fallback with fewer than two (or
    degenerate) points.
    """
    pts = list(history)[-MAPPING_WINDOW:]
    if len(pts) >= 2:
        A = np.array([p[0] for p in pts])
        a1 = np.array([p[1] for p in pts])
        if np.ptp(A) > 1e-9 * max(np.abs(A).max(), 1.0):
            M = np.stack([np.ones_like(A), A], axis=1)
            (c0, c1), *_ = np.linalg.lstsq(M, a1, rcond=None)
            return float(c0 + c1 * A_requested)
    if pts:
        A_last, a1_last = pts[-1]
        if abs(A_last) > 1e-12:
            return a1_last * A_requested / A_last
    return float(A_requested)
