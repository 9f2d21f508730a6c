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

The loop keeps running between simulations, as on the hardware.  After each
recorded window it is locked at that frequency on that window's reference.
A simulation waits the fixed settle_time only when the loop is not locked at
its frequency (a fresh rig, a new frequency, or after an open-loop replay or
a saturation trip); a locked loop goes straight to the convergence check.
Picard iteration on a locked loop starts from the locked higher harmonics
instead of zeros, so later realization rounds at one frequency start close
to their fixed point.  A loop left beyond saturation by a trip restarts from
rest at its next simulation.

The plant is ZOH-discretized per mode at the sample rate, with the cubic
force held constant over each sample like the shaker input; this keeps the
simulation exactly repeatable for a given seed.

The per-sample loop runs on Python floats: the ZOH coefficients, the
reference and any open-loop drive are converted once per segment, and the
records are built from lists after the loop.  Each operation on a numpy
scalar costs several times the same IEEE operation on a float, and the
loop is most of a measurement's time.  The operations and their order are
those of the numpy-scalar loop, so every record is bit-for-bit the same.

The numpy work around the loop rests on one phasor per closed-loop
segment, E = exp(i 2 pi omega t) at its samples.  The reference is a
Horner evaluation in E of the complex coefficients A_j - i B_j, and the
Fourier design matrix of the segment's window holds the real and
imaginary parts of the powers of E, so no other trigonometric array is
taken.  The y, u and force records of a window are fitted together: one
solve of the normal equations M^T M c = M^T [y u f], whose matrix is
nearly diagonal because the window spans whole cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ControlDiverged, PicardDiverged
from .geometry import DomainBox
from .oracles import MeasuredPoint, SeededOracle

TWO_PI = 2.0 * math.pi
# Amplitude realization: A1* is fitted on the last MAPPING_WINDOW (A, A1*)
# pairs, and a measurement corrects A1* up to MAX_CORRECTIONS times until the
# realized amplitude is within REALIZATION_TOL (relative) of the request.
MAPPING_WINDOW = 30
REALIZATION_TOL = 0.02
MAX_CORRECTIONS = 2


@dataclass(frozen=True)
class RigParams:
    """Virtual-rig constants; frequencies in Hz, displacements in mm, forces in N."""

    f1: float = 11.49
    f2: float = 36.45
    zeta1: float = 0.026
    zeta2: float = 0.022
    phi: tuple[float, float] = (1.0, -1.5)     # tip deflection per modal coordinate
    psi: tuple[float, float] = (-1.35, -3.15)  # modal force per unit shaker force
    k3: float = 8.0e7                          # tip cubic stiffness, N/m^3
    sample_rate: float = 1000.0
    record_len: int = 2000
    fourier_modes: int = 7
    controller_num: tuple[float, ...] = (0.0053,)
    controller_den: tuple[float, ...] = (1.0, -2.4521, 1.9725, -0.5155)
    picard_tol: float = 0.01       # max higher-harmonic force amplitude, N
    picard_max_iter: int = 20
    noise_sigma: float = 0.05      # force-record noise std, N
    saturation_mm: float = 50.0    # ~10x the linear resonance deflection per newton
    settle_time: float = 5.0       # fixed wait after the loop starts at a frequency, s
    settle_extend: float = 1.0
    settle_max_time: float = 30.0
    settle_rel_tol: float = 1e-3

    def __post_init__(self):
        if self.sample_rate <= 0 or self.record_len <= 0:
            raise ValueError("sample rate and record length must be positive")
        if self.controller_den[0] != 1.0:
            raise ValueError("controller denominator must be monic")
        if self.fourier_modes < 1 or self.picard_max_iter < 1:
            raise ValueError("fourier_modes and picard_max_iter must be >= 1")
        if self.noise_sigma < 0 or self.picard_tol <= 0:
            raise ValueError("noise_sigma >= 0 and picard_tol > 0 required")


def linear_tip_frf(p: RigParams, f_hz):
    """Modal-model FRF from shaker force to tip displacement, mm/N (complex)."""
    s = 2j * math.pi * np.asarray(f_hz, dtype=float)
    w1, w2 = TWO_PI * p.f1, TWO_PI * p.f2
    H = (p.psi[0] * p.phi[0] / (s**2 + 2 * p.zeta1 * w1 * s + w1**2)
         + p.psi[1] * p.phi[1] / (s**2 + 2 * p.zeta2 * w2 * s + w2**2))
    return 1000.0 * H


def fourier_coeffs(signal: np.ndarray, omega_hz: float, sample_rate: float,
                   n_modes: int, t0: float = 0.0):
    """Least-squares Fourier coefficients (a0, A_j, B_j) over integer periods.

    Uses the longest window of whole oscillation cycles that fits the
    record, counted back from its end.
    """
    E = _phasor(omega_hz, t0 + np.arange(len(signal)) / sample_rate)
    return _fit_fourier(E, sample_rate / omega_hz, n_modes, signal)[0]


def _phasor(omega_hz: float, t: np.ndarray) -> np.ndarray:
    """exp(i 2 pi omega t): its j-th power holds cos and sin of harmonic j."""
    return np.exp(1j * (TWO_PI * omega_hz) * t)


def _fit_fourier(E: np.ndarray, period: float, n_modes: int, *signals: np.ndarray):
    """fourier_coeffs of each signal, sampled at the times of the phasor E.

    `period` is in samples.  The window is the last whole cycles of the
    record; one normal-equations solve fits every signal on its basis.
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
        self._q = [0.0, 0.0, 0.0, 0.0]  # q1, qd1, q2, qd2
        self._u_hist = [0.0, 0.0, 0.0]
        self._e_hist = [0.0, 0.0, 0.0]
        self._t = 0.0
        # (omega, a0, A[1:], B[1:]) of the reference the loop last settled
        # and recorded on; None for a fresh, tripped or replayed loop
        self._lock = None

    # -- core closed-loop simulation ----------------------------------------

    def _run_segment(self, n: int, target: _TargetSignal | None, rng=None,
                     open_loop_u: np.ndarray | None = None):
        """Advance the loop n samples; returns records (y_mm, u, f_meas) and E.

        E is the target's phasor at the segment's samples, None in open loop.
        """
        p = self.params
        T = self._T
        t0 = self._t
        E = ystar = None
        if target is not None:
            E = _phasor(target.omega_hz, t0 + np.arange(n) * T)
            # Python floats, not numpy scalars, in the per-sample loop (module doc)
            ystar = target.sample(E).tolist()
        drive = open_loop_u.tolist() if open_loop_u is not None else None
        noise = rng.standard_normal(n) * p.noise_sigma if (rng is not None and p.noise_sigma > 0) else None
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
                self._q = [q1, qd1, q2, qd2]
                self._u_hist = [u1, u2, u3]
                self._e_hist = [e1, e2, e3]
                self._t = t0 + k * T
                self._lock = None
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
        y_rec = np.array(ys, dtype=float)
        u_rec = np.array(us, dtype=float)
        f_rec = u_rec + noise if noise is not None else u_rec.copy()
        return y_rec, u_rec, f_rec, E

    def _locked_at(self, omega_hz: float) -> bool:
        return self._lock is not None and self._lock[0] == omega_hz

    def _restart_if_saturated(self):
        """Restart a loop left beyond saturation from rest, unlocked.

        A saturation exit saves the state of the saturating sample; run on
        from there, every later simulation would trip on its first sample.
        """
        p = self.params
        q1, _, q2, _ = self._q
        if abs(1000.0 * (p.phi[0] * q1 + p.phi[1] * q2)) > p.saturation_mm:
            self._q = [0.0, 0.0, 0.0, 0.0]
            self._u_hist = [0.0, 0.0, 0.0]
            self._e_hist = [0.0, 0.0, 0.0]
            self._lock = None

    def _settle(self, target: _TargetSignal, omega_hz: float):
        """Run the transient until the fundamental response amplitude is steady.

        The fixed settle_time wait runs only when the loop is not locked at
        omega_hz; a locked loop goes straight to the convergence check.
        """
        p = self.params
        elapsed = 0.0
        if not self._locked_at(omega_hz):
            self._run_segment(int(p.settle_time * p.sample_rate), target)
            elapsed = p.settle_time
        # one oscillation period rounded up to whole samples, +1 so the
        # least-squares window always contains a full cycle
        period = p.sample_rate / omega_hz
        period_samples = int(math.ceil(period)) + 1
        while True:
            y1, _, _, E1 = self._run_segment(period_samples, target)
            y2, _, _, E2 = self._run_segment(period_samples, target)
            [(_, A1, B1)] = _fit_fourier(E1, period, 1, y1)
            [(_, A2, B2)] = _fit_fourier(E2, period, 1, y2)
            amp1 = math.hypot(A1[0], B1[0])
            amp2 = math.hypot(A2[0], B2[0])
            if abs(amp2 - amp1) <= p.settle_rel_tol * max(amp2, 1e-12):
                return
            if elapsed >= p.settle_max_time:
                return  # accept best effort; Picard tolerance still guards quality
            self._run_segment(int(p.settle_extend * p.sample_rate), target)
            elapsed += p.settle_extend + 2.0 * period_samples / p.sample_rate

    def rig_simulate(self, omega_hz: float, a1_star: float,
                     target: _TargetSignal | None = None, rng=None):
        """Settle the loop on a reference signal and record one measurement window.

        Returns (records, coeffs): records has keys y, u, f, t0; coeffs has the
        least-squares Fourier coefficients of y, u and the noisy force record.
        """
        p = self.params
        if target is None:
            target = _TargetSignal(omega_hz, p.fourier_modes)
            target.A[0] = a1_star
        self._restart_if_saturated()
        self._settle(target, omega_hz)
        t0 = self._t
        y, u, f, E = self._run_segment(p.record_len, target, rng=rng)
        self._lock = (omega_hz, target.a0, target.A[1:].copy(), target.B[1:].copy())
        fits = _fit_fourier(E, p.sample_rate / omega_hz, p.fourier_modes, y, u, f)
        coeffs = dict(zip("yuf", fits))
        return {"y": y, "u": u, "f": f, "t0": t0}, coeffs

    def picard_noninvasive(self, omega_hz: float, a1_star: float, rng=None):
        """Cancel higher harmonics of the control signal by Picard iteration.

        Holds A1* fixed and B1* = 0; after convergence returns the realized
        MeasuredPoint plus the final records and coefficients.  A loop locked
        at omega_hz starts from its locked higher harmonics, not from zeros.
        """
        p = self.params
        target = _TargetSignal(omega_hz, p.fourier_modes)
        if self._locked_at(omega_hz):
            _, target.a0, target.A[1:], target.B[1:] = self._lock
        target.A[0] = a1_star
        residual = math.inf
        for _ in range(p.picard_max_iter):
            records, coeffs = self.rig_simulate(omega_hz, a1_star, target=target, rng=rng)
            _, Au, Bu = coeffs["u"]
            a0u = coeffs["u"][0]
            residual = max(abs(a0u) / 2.0,
                           max(math.hypot(Au[j], Bu[j]) for j in range(1, p.fourier_modes)))
            if residual < p.picard_tol:
                a0y, Ay, By = coeffs["y"]
                _, Af, Bf = coeffs["f"]
                F = math.hypot(Af[0], Bf[0])
                A_real = math.hypot(Ay[0], By[0])
                return (MeasuredPoint(omega=omega_hz, A=A_real, F=F, a1_star=a1_star,
                                      harmonics_residual=residual, seed_state=""),
                        records, coeffs)
            a0y, Ay, By = coeffs["y"]
            target.a0 = a0y
            target.A[1:] = Ay[1:]
            target.B[0] = 0.0
            target.B[1:] = By[1:]
        raise PicardDiverged(
            f"higher-harmonic residual {residual:.4g} N above tol {p.picard_tol} "
            f"after {p.picard_max_iter} iterations at {omega_hz} Hz")

    def replay_open_loop(self, omega_hz: float, Au1: float, Bu1: float,
                         transient: float = 3.0):
        """Drive the plant open loop with the fundamental force only.

        Continues from the current plant state (feedback removed), settles
        for `transient` seconds, then records one measurement window and
        returns the fundamental response amplitude.  Used to verify that a
        converged control signal was non-invasive.
        """
        p = self.params
        self._restart_if_saturated()
        self._lock = None

        def u_of(n):
            t = self._t + np.arange(n) / p.sample_rate
            ph = TWO_PI * omega_hz * t
            return Au1 * np.cos(ph) + Bu1 * np.sin(ph)

        self._run_segment(int(transient * p.sample_rate), None, open_loop_u=u_of(int(transient * p.sample_rate)))
        t0 = self._t
        y, _, _, _ = self._run_segment(p.record_len, None, open_loop_u=u_of(p.record_len))
        _, Ay, By = fourier_coeffs(y, omega_hz, p.sample_rate, p.fourier_modes, t0=t0)
        return math.hypot(Ay[0], By[0])

    # -- amplitude realization ----------------------------------------------

    def measure(self, omega: float, A_target: float, seed: int | None = None) -> MeasuredPoint:
        """Realize a response of amplitude ~A_target at frequency omega (Hz)."""
        key = self._key(omega, A_target, seed)
        rng = np.random.default_rng((self.seed, key))
        for _ in range(MAX_CORRECTIONS + 1):
            a1 = update_a1star_mapping(self.mapping_history, A_target)
            point, _, _ = self.picard_noninvasive(omega, a1, rng=rng)
            self.mapping_history.append((point.A, a1))
            if abs(point.A - A_target) <= REALIZATION_TOL * max(abs(A_target), 1e-9):
                break
        return MeasuredPoint(omega=point.omega, A=point.A, F=point.F,
                             a1_star=point.a1_star,
                             harmonics_residual=point.harmonics_residual,
                             seed_state=f"{self.seed}:{key}")


def update_a1star_mapping(history, A_requested: float, window: int = MAPPING_WINDOW) -> float:
    """Predict the reference coefficient A1* that realizes a requested amplitude.

    Least-squares linear fit A1* = c0 + c1 A over the most recent `window`
    pairs; proportional fallback with fewer than two (or degenerate) points.
    """
    pts = list(history)[-window:]
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
