"""Simulated measurement back-ends standing in for the physical experiment.

Every oracle answers `measure(omega, A_target, seed=None)` with a realized
(omega, A, F) sample.  `SeededOracle` holds the protocol of the simulated
ones: the domain check and the per-call random key.  Three families are
provided:

* `DuffingOracle` -- closed-form force-amplitude surface of a linear plus
  cubic oscillator, optionally with additive Gaussian measurement noise.
* `IsolaOracle` -- an engineered smooth surface whose fold locus is known
  exactly and which carries a detached high-amplitude fold branch, so a
  constant-force slice gains a third fold above a documented force level.
* `ReplayOracle` -- answers from a recorded `omega,A,F` table, for
  regression tests without any dynamics.

The closed-loop virtual rig lives in `foldtrack.rig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import OutOfDomain
from .geometry import DomainBox


@dataclass(frozen=True)
class MeasuredPoint:
    """One realized experimental sample.

    `a1_star` and `harmonics_residual` are populated by the virtual rig
    only; analytic oracles leave them None.  `seed_state` records the RNG
    provenance so any single measurement can be reproduced bit-identically.
    """

    omega: float
    A: float
    F: float
    a1_star: float | None = None
    harmonics_residual: float | None = None
    seed_state: str = ""


class SeededOracle:
    """The measurement protocol shared by the simulated back-ends.

    A request outside `domain_box` raises OutOfDomain.  Each call draws its
    randomness from default_rng((seed, key)), where the key is the call's
    explicit `seed`, else the number of calls made so far without one; the
    realized point records "seed:key" as its `seed_state`.  `measure` reads
    the closed-form force `surface(params, omega, A)` and adds Gaussian
    noise of std `params.noise_sigma`, clamped at zero force; the rig
    overrides it with its closed-loop experiment.
    """

    surface = None

    def __init__(self, params, domain_box: DomainBox, seed: int = 0):
        self.params = params
        self.domain_box = domain_box
        self.seed = int(seed)
        self._calls = 0

    def _key(self, omega: float, A_target: float, seed: int | None) -> int:
        """Check the request against the domain box and issue its seed key."""
        if not self.domain_box.contains(omega, A_target):
            raise OutOfDomain(f"({omega}, {A_target}) outside {self.domain_box}")
        if seed is not None:
            return int(seed)
        key = self._calls
        self._calls += 1
        return key

    def measure(self, omega: float, A_target: float, seed: int | None = None) -> MeasuredPoint:
        key = self._key(omega, A_target, seed)
        F = float(self.surface(self.params, omega, A_target))
        if self.params.noise_sigma > 0.0:
            rng = np.random.default_rng((self.seed, key))
            F = max(0.0, F + self.params.noise_sigma * rng.standard_normal())
        return MeasuredPoint(omega=float(omega), A=float(A_target), F=float(F),
                             seed_state=f"{self.seed}:{key}")


# ---------------------------------------------------------------------------
# Duffing back-end
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DuffingParams:
    """Mass-normalized linear-plus-cubic oscillator constants.

    omega_n in rad/s, zeta dimensionless, alpha_3 in (rad/s)^2 per
    amplitude^2, noise_sigma is the std of additive force noise (N).
    """

    omega_n: float = 1.0
    zeta: float = 0.02
    alpha_3: float = 0.05
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not (self.omega_n > 0 and self.zeta > 0 and self.noise_sigma >= 0):
            raise ValueError("require omega_n > 0, zeta > 0, noise_sigma >= 0")
        if not math.isfinite(self.alpha_3):
            raise ValueError("alpha_3 must be finite")


def duffing_gamma(p: DuffingParams, omega, A):
    """Harmonic-balance force amplitude of the Duffing oscillator.

    Gamma(omega, A) = sqrt([(omega_n^2 - omega^2) A + (3/4) alpha_3 A^3]^2
    + [2 zeta omega_n omega A]^2); the single-mode balance of
    y'' + 2 zeta omega_n y' + omega_n^2 y + alpha_3 y^3 = Gamma cos(omega t).
    """
    omega = np.asarray(omega, dtype=float)
    A = np.asarray(A, dtype=float)
    elastic = (p.omega_n**2 - omega**2) * A + 0.75 * p.alpha_3 * A**3
    damping = 2.0 * p.zeta * p.omega_n * omega * A
    out = np.hypot(elastic, damping)
    return float(out) if out.ndim == 0 else out


class DuffingOracle(SeededOracle):
    """Measurement interface over the analytic Duffing surface."""

    surface = staticmethod(duffing_gamma)


# ---------------------------------------------------------------------------
# Isola back-end
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolaParams:
    """Shape constants of the engineered two-branch fold surface.

    dGamma/dA is a quartic in A with factored roots, so both fold-pair
    branches are available in closed form:

        dGamma/dA = scale * [(A - m1)^2 - rho1(omega)] * [(A - m2)^2 - rho2(omega)]

    where m1 rises linearly with omega (main resonance branch, opening at
    the cusp omega_c1) and the second pair opens at omega_c2 near the high
    edge of the domain, producing the detached fold section.  Gamma is the
    exact antiderivative in A, so Gamma(omega, 0) = 0.

    The shape constants were certified by brute force: see the comment on
    `IsolaOracle.level_two_folds` / `level_three_folds` below.  Only the
    force noise is settable.
    """

    noise_sigma: float = 0.0
    m1_0: ClassVar[float] = 1.1
    m1_slope: ClassVar[float] = 0.7
    omega_ref: ClassVar[float] = 0.9
    rho1_rate: ClassVar[float] = 0.15
    omega_c1: ClassVar[float] = 0.95
    m2: ClassVar[float] = 3.1
    rho2_rate: ClassVar[float] = 3.0
    omega_c2: ClassVar[float] = 1.26
    scale: ClassVar[float] = 0.045

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma >= 0 required")

    def m1(self, omega):
        return self.m1_0 + self.m1_slope * (np.asarray(omega, dtype=float) - self.omega_ref)

    def rho1(self, omega):
        return self.rho1_rate * (np.asarray(omega, dtype=float) - self.omega_c1)

    def rho2(self, omega):
        return self.rho2_rate * (np.asarray(omega, dtype=float) - self.omega_c2)

    def fold_amplitudes(self, omega: float) -> list[float]:
        """Exact fold amplitudes at this frequency (roots of dGamma/dA)."""
        out = []
        for m, rho in ((float(self.m1(omega)), float(self.rho1(omega))),
                       (self.m2, float(self.rho2(omega)))):
            if rho > 0.0:
                r = math.sqrt(rho)
                out.extend([m - r, m + r])
        return sorted(a for a in out if a > 0.0)


def isola_gamma(p: IsolaParams, omega, A):
    """Engineered force-amplitude surface with a detached fold branch."""
    omega = np.asarray(omega, dtype=float)
    A = np.asarray(A, dtype=float)
    m1 = p.m1(omega)
    rho1 = p.rho1(omega)
    # expand [(A-m1)^2 - rho1][(A-m2)^2 - rho2] and integrate in A term by term
    b1 = -2.0 * m1
    c1 = m1 * m1 - rho1
    b2 = -2.0 * p.m2
    c2 = p.m2**2 - p.rho2(omega)
    # quartic coefficients (ascending powers of A)
    k0 = c1 * c2
    k1 = b1 * c2 + b2 * c1
    k2 = c1 + c2 + b1 * b2
    k3 = b1 + b2
    gamma = p.scale * (k0 * A + k1 * A**2 / 2.0 + k2 * A**3 / 3.0
                       + k3 * A**4 / 4.0 + A**5 / 5.0)
    return float(gamma) if gamma.ndim == 0 else gamma


ISOLA_DOMAIN = DomainBox(omega_min=0.85, omega_max=1.45, A_min=0.0, A_max=4.0)


class IsolaOracle(SeededOracle):
    """Measurement interface over the engineered isola surface."""

    # Certified by brute force over ISOLA_DOMAIN (tests/test_oracles.py):
    # constant-force slices carry exactly 2 fold points from the main cusp
    # level ~0.196 up to ~0.2488, where they first cross the detached fold
    # branch, and exactly 3 in the band ~0.2488-0.3148 above it.
    # `level_two_folds` / `level_three_folds` are documented example levels
    # whose +-5% neighbourhoods stay inside their count bands.
    level_two_folds: float = 0.22
    level_three_folds: float = 0.28
    surface = staticmethod(isola_gamma)

    def __init__(self, params: IsolaParams = IsolaParams(),
                 domain_box: DomainBox = ISOLA_DOMAIN, seed: int = 0):
        super().__init__(params, domain_box, seed)


# ---------------------------------------------------------------------------
# Replay back-end
# ---------------------------------------------------------------------------

class ReplayOracle:
    """Nearest-neighbour lookup into a recorded measurement table.

    `tol` is the acceptance radius in spread-normalized input coordinates;
    queries farther than that from every stored sample raise OutOfDomain.
    """

    def __init__(self, X: np.ndarray, F: np.ndarray, tol: float = 1e-6):
        X = np.asarray(X, dtype=float).reshape(-1, 2)
        if len(X) == 0:
            raise ValueError("replay table is empty")
        self.X = X
        self.F = np.asarray(F, dtype=float).ravel()
        self.tol = float(tol)
        self._scales = np.ptp(X, axis=0)
        self._scales[self._scales == 0.0] = 1.0
        self.domain_box = DomainBox(X[:, 0].min(), max(X[:, 0].max(), X[:, 0].min() + 1e-12),
                                    X[:, 1].min(), max(X[:, 1].max(), X[:, 1].min() + 1e-12))

    def measure(self, omega: float, A_target: float, seed: int | None = None) -> MeasuredPoint:
        d = np.hypot((self.X[:, 0] - omega) / self._scales[0],
                     (self.X[:, 1] - A_target) / self._scales[1])
        i = int(np.argmin(d))
        if d[i] > self.tol:
            raise OutOfDomain(f"no recorded sample within tol={self.tol} of ({omega}, {A_target})")
        return MeasuredPoint(omega=float(self.X[i, 0]), A=float(self.X[i, 1]),
                             F=float(self.F[i]), seed_state="replay")
