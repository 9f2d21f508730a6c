"""Closed-form fold locus of the harmonic-balance Duffing surface.

Written from the formula, not from foldtrack.  With s = A^2 the squared
force amplitude of y'' + 2 zeta wn y' + wn^2 y + alpha y^3 = F cos(w t) is

    G(s) = s [(a + b s)^2 + c^2],   a = wn^2 - w^2,  b = 3 alpha / 4,  c = 2 zeta wn w,

and dF/dA = 0 exactly where dG/ds = 3 b^2 s^2 + 4 a b s + a^2 + c^2 = 0:

    s = (-2a -+ sqrt(a^2 - 3 c^2)) / (3 b).

For a hardening spring (b > 0) the two roots exist above the cusp
frequency, where a^2 = 3 c^2, i.e. w_c = sqrt(3) zeta wn + wn sqrt(1 + 3 zeta^2).
The smaller root is the lower-amplitude fold (force maximum of the S-curve),
the larger one the upper-amplitude fold (force minimum); they meet at the cusp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Duffing:
    """Oscillator constants; the defaults are those of the shipped Duffing configs."""

    omega_n: float = 1.0
    zeta: float = 0.02
    alpha_3: float = 0.05

    def force(self, omega, A):
        """Force amplitude F(omega, A) of the single-harmonic balance."""
        omega = np.asarray(omega, dtype=float)
        A = np.asarray(A, dtype=float)
        elastic = (self.omega_n**2 - omega**2) * A + 0.75 * self.alpha_3 * A**3
        damping = 2.0 * self.zeta * self.omega_n * omega * A
        return np.sqrt(elastic**2 + damping**2)

    @property
    def cusp_omega(self) -> float:
        z, wn = self.zeta, self.omega_n
        return math.sqrt(3.0) * z * wn + wn * math.sqrt(1.0 + 3.0 * z * z)

    def fold_amplitudes(self, omega):
        """(A_lower, A_upper) of the two folds at each omega; NaN below the cusp."""
        omega = np.asarray(omega, dtype=float)
        a = self.omega_n**2 - omega**2
        b = 0.75 * self.alpha_3
        c = 2.0 * self.zeta * self.omega_n * omega
        disc = a * a - 3.0 * c * c
        ok = (disc >= 0.0) & (a < 0.0)
        root = np.sqrt(np.where(ok, disc, np.nan))
        s_lo = (-2.0 * a - root) / (3.0 * b)
        s_hi = (-2.0 * a + root) / (3.0 * b)
        return np.sqrt(s_lo), np.sqrt(s_hi)

    def lower_fold(self, omega):
        """(A, F) of the lower-amplitude fold at omega (NaN below the cusp)."""
        A_lo, _ = self.fold_amplitudes(omega)
        return A_lo, self.force(omega, A_lo)

    def lower_fold_omega(self, F: float, omega_hi: float = 3.0) -> float:
        """Frequency at which the lower fold carries force F (bisection).

        The lower-fold force grows monotonically from the cusp upwards.
        """
        lo, hi = self.cusp_omega, omega_hi
        if not self.lower_fold(lo)[1] <= F <= self.lower_fold(hi)[1]:
            return math.nan
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if self.lower_fold(mid)[1] < F:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def locus_curve(self, omega_max: float, n: int = 4000) -> np.ndarray:
        """(m, 2) polyline (omega, A) of the whole fold locus up to omega_max.

        Runs down the lower branch to the cusp and back up the upper one, so
        a distance to it is well defined at the cusp, where dA/domega of
        either branch is infinite.  Points cluster towards the cusp.
        """
        w_c = self.cusp_omega
        ws = w_c + (omega_max - w_c) * np.linspace(0.0, 1.0, n) ** 2
        ws[0] = w_c
        A_lo, A_hi = self.fold_amplitudes(ws)
        A_lo[0] = A_hi[0] = math.sqrt(-2.0 * (self.omega_n**2 - w_c**2) / (2.25 * self.alpha_3))
        lower = np.column_stack([ws[::-1], A_lo[::-1]])
        upper = np.column_stack([ws[1:], A_hi[1:]])
        return np.vstack([lower, upper])


def lower_fold_errors(model: Duffing, omega: float, F: float) -> tuple[float, float]:
    """Relative force and frequency errors of a fold point against the lower fold.

    Force error compares F with the locus force at the same frequency;
    frequency error compares omega with the locus frequency at the same force.
    """
    _, F_ref = model.lower_fold(omega)
    w_ref = model.lower_fold_omega(F)
    return abs(F - float(F_ref)) / float(F_ref), abs(omega - w_ref) / w_ref


def distance_to_curve(points, curve, scales) -> np.ndarray:
    """Distance of each point to the polyline `curve`, in units of `scales`.

    Points and curve are (n, 2) arrays of (omega, A); each segment is
    measured exactly, not just its vertices.
    """
    P = np.asarray(points, dtype=float)[:, :2] / scales
    C = np.asarray(curve, dtype=float)[:, :2] / scales
    a, b = C[:-1], C[1:]
    ab = b - a
    len2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    out = np.empty(len(P))
    for i, p in enumerate(P):
        t = np.clip(np.sum((p - a) * ab, axis=1) / len2, 0.0, 1.0)
        proj = a + t[:, None] * ab
        out[i] = np.sqrt(np.min(np.sum((proj - p) ** 2, axis=1)))
    return out
