"""Gaussian-process regression over (omega, A) inputs with incremental updates.

The response-surface surrogate is a zero-mean GP with an anisotropic
squared-exponential kernel, one length scale per input dimension, plus
i.i.d. Gaussian observation noise.  The Cholesky factor of the training
covariance is kept with the model: points are added in O(n^2) and removed
by a rank-one update, and the same factor gives, with no model built, the
closed-form scores that acquisition ranks candidates and points by.

All quantities live in the physical units of the experiment; the prior
mean is zero in those units, so predictions revert to zero force far away
from the data.  Coordinates are only rescaled where a dimensionless
distance is needed: by the spread of the inputs for the duplicate rule, by
the length scales in continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import (
    DuplicatePoint,
    FactorizationFailure,
    IndexOutOfRange,
    NumericalBreakdown,
    OptimizationFailure,
)

DUPLICATE_TOL = 1e-9

# Relative jitter ladder tried during factorization.  The first attempt is
# unjittered so that alpha and the log marginal agree with dense algebra to
# the tolerances the rest of the package is tested against.
_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


@dataclass(frozen=True)
class Hyperparameters:
    """SE-kernel parameters: noise variance, signal variance, two length scales.

    Units follow the experiment: sigma_n2 and sigma_f2 in force units
    squared, l_omega in frequency units, l_A in response-amplitude units.
    """

    sigma_n2: float
    sigma_f2: float
    l_omega: float
    l_A: float

    def __post_init__(self):
        vals = (self.sigma_n2, self.sigma_f2, self.l_omega, self.l_A)
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"hyperparameters must be strictly positive and finite, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_n2, self.sigma_f2, self.l_omega, self.l_A])

    @classmethod
    def from_array(cls, a) -> "Hyperparameters":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_dict(self) -> dict:
        return {"sigma_n2": self.sigma_n2, "sigma_f2": self.sigma_f2,
                "l_omega": self.l_omega, "l_A": self.l_A}

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparameters":
        return cls(float(d["sigma_n2"]), float(d["sigma_f2"]),
                   float(d["l_omega"]), float(d["l_A"]))


@dataclass(frozen=True)
class FitBounds:
    """Per-parameter positive search intervals for the likelihood fit."""

    sigma_n2: tuple[float, float]
    sigma_f2: tuple[float, float]
    l_omega: tuple[float, float]
    l_A: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in self.as_dict().items():
            if not (0.0 < lo <= hi and math.isfinite(hi)):
                raise ValueError(f"invalid bounds for {name}: ({lo}, {hi})")

    def as_dict(self) -> dict:
        return {"sigma_n2": self.sigma_n2, "sigma_f2": self.sigma_f2,
                "l_omega": self.l_omega, "l_A": self.l_A}

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = [self.sigma_n2, self.sigma_f2, self.l_omega, self.l_A]
        lo = np.array([p[0] for p in pairs])
        hi = np.array([p[1] for p in pairs])
        return lo, hi


def _spreads(X: np.ndarray) -> np.ndarray:
    """Per-column range of the inputs, 1 where a column is constant."""
    s = np.ptp(X, axis=0)
    s[s == 0.0] = 1.0
    return s


@dataclass(frozen=True)
class Dataset:
    """Training inputs (omega, A) and measured force amplitudes F.

    Arrays are frozen at construction; append/drop return new datasets.
    Two inputs closer than DUPLICATE_TOL, with each coordinate divided by
    the spread of the inputs, are duplicates and raise DuplicatePoint: they
    make the noise-free covariance factor singular.  The constructor checks
    every pair; `append` checks the new input against the others, in O(n);
    `drop` checks nothing, because removing a point only shrinks the spreads.
    """

    X: np.ndarray  # (n, 2) columns omega, A
    F: np.ndarray  # (n,)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        F = np.asarray(self.F, dtype=float).ravel()
        if X.size == 0:
            X = X.reshape(0, 2)
        if X.shape[1] != 2:
            raise ValueError(f"inputs must be (n, 2), got {X.shape}")
        if X.shape[0] != F.shape[0]:
            raise ValueError(f"inputs and outputs differ in length: {X.shape[0]} vs {F.shape[0]}")
        if X.size and not np.all(np.isfinite(X)):
            raise ValueError("non-finite input coordinates")
        if F.size and not np.all(np.isfinite(F)):
            raise ValueError("non-finite output values")
        X.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "F", F)
        self._check_duplicates()

    def _check_duplicates(self):
        if self.n < 2:
            return
        Z = self.X / _spreads(self.X)
        d2 = np.sum((Z[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        if np.min(d2) < DUPLICATE_TOL**2:
            i, j = np.unravel_index(np.argmin(d2), d2.shape)
            raise DuplicatePoint(f"inputs {i} and {j} coincide within duplicate tolerance")

    @classmethod
    def _trusted(cls, X: np.ndarray, F: np.ndarray) -> "Dataset":
        """Wrap fresh arrays already known to form a valid dataset, unchecked."""
        ds = object.__new__(cls)
        X.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(ds, "X", X)
        object.__setattr__(ds, "F", F)
        return ds

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @classmethod
    def empty(cls) -> "Dataset":
        return cls(np.zeros((0, 2)), np.zeros(0))

    def append(self, x, F_value: float) -> "Dataset":
        x = np.asarray(x, dtype=float).reshape(1, 2)
        F_value = float(F_value)
        if not (np.all(np.isfinite(x)) and math.isfinite(F_value)):
            raise ValueError(f"non-finite sample {x.ravel().tolist()}, {F_value}")
        i = self.duplicate_of(x)
        if i is not None:
            raise DuplicatePoint(f"input {x.ravel().tolist()} duplicates training input {i}")
        return Dataset._trusted(np.vstack([self.X, x]), np.append(self.F, F_value))

    def duplicate_of(self, x) -> int | None:
        """Index of the training input that x duplicates, or None; O(n)."""
        X = np.vstack([self.X, np.reshape(x, (1, 2))])
        hits = np.flatnonzero(np.sum(((self.X - X[-1]) / _spreads(X)) ** 2, axis=1)
                              < DUPLICATE_TOL**2)
        return int(hits[0]) if hits.size else None

    def drop(self, index: int) -> "Dataset":
        if not 0 <= index < self.n:
            raise IndexOutOfRange(f"index {index} outside [0, {self.n})")
        keep = np.arange(self.n) != index
        return Dataset._trusted(self.X[keep], self.F[keep])


class MeanDerivs(NamedTuple):
    """Partial derivatives of the posterior mean at a query point."""

    d_omega: float
    d_A: float
    d_AA: float
    d_omega_A: float


def kernel(x1, x2, hyper: Hyperparameters) -> float:
    """Anisotropic squared-exponential covariance between two input pairs."""
    do = (x1[0] - x2[0]) / hyper.l_omega
    da = (x1[1] - x2[1]) / hyper.l_A
    return hyper.sigma_f2 * math.exp(-0.5 * (do * do + da * da))


def _kernel_matrix(X: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    do = (X[:, 0:1] - X[:, 0:1].T) / hyper.l_omega
    da = (X[:, 1:2] - X[:, 1:2].T) / hyper.l_A
    return hyper.sigma_f2 * np.exp(-0.5 * (do**2 + da**2))


def _kernel_vec(X: np.ndarray, x, hyper: Hyperparameters) -> np.ndarray:
    do = (X[:, 0] - x[0]) / hyper.l_omega
    da = (X[:, 1] - x[1]) / hyper.l_A
    return hyper.sigma_f2 * np.exp(-0.5 * (do**2 + da**2))


def _kernel_vec_d_A(X: np.ndarray, x, hyper: Hyperparameters) -> np.ndarray:
    """d/dA at x of the covariances between x and each row of X."""
    return -(x[1] - X[:, 1]) / hyper.l_A**2 * _kernel_vec(X, x, hyper)


def _factorize(K: np.ndarray, hyper: Hyperparameters):
    """Lower Cholesky factor of K, escalating diagonal jitter on breakdown."""
    n = K.shape[0]
    scale = hyper.sigma_f2 + hyper.sigma_n2  # equals trace(K)/n for the SE kernel
    for rel in _JITTER_LADDER:
        try:
            L = cholesky(K + rel * scale * np.eye(n), lower=True)
            return L, rel * scale
        except np.linalg.LinAlgError:
            continue
    raise FactorizationFailure(
        "covariance matrix not positive definite after jitter escalation; "
        "check for duplicate inputs or degenerate hyperparameters")


@dataclass(frozen=True)
class GprModel:
    """Immutable GP posterior: dataset, hyperparameters, Cholesky factor, alpha.

    `chol` is the lower factor of K = kernel(X, X) + sigma_n2*I (+ jitter) and
    `alpha` solves K alpha = F.  All update operations return new models.
    """

    dataset: Dataset
    hyper: Hyperparameters
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.dataset.n

    # -- prediction --------------------------------------------------------

    def predict_mean(self, x) -> float:
        """Posterior mean force amplitude at x = (omega, A)."""
        k = _kernel_vec(self.dataset.X, x, self.hyper)
        return float(k @ self.alpha)

    def predict_var(self, x) -> float:
        """Posterior variance of the latent force amplitude at x.

        Bounded by [0, sigma_f2]; tiny negative round-off is clamped, larger
        violations raise NumericalBreakdown.
        """
        k = _kernel_vec(self.dataset.X, x, self.hyper)
        v = solve_triangular(self.chol, k, lower=True)
        var = self.hyper.sigma_f2 - float(v @ v)
        if var < -1e-10:
            raise NumericalBreakdown(f"predictive variance {var} below -1e-10")
        return max(var, 0.0)

    def predict_mean_derivs(self, x) -> MeanDerivs:
        """Analytic dG/domega, dG/dA, d2G/dA2, d2G/domega dA of the posterior mean."""
        hyp = self.hyper
        k = _kernel_vec(self.dataset.X, x, hyp)
        w = k * self.alpha
        do = (x[0] - self.dataset.X[:, 0]) / hyp.l_omega**2
        da = (x[1] - self.dataset.X[:, 1]) / hyp.l_A**2
        d_omega = float(-do @ w)
        d_A = float(-da @ w)
        d_AA = float((da * da - 1.0 / hyp.l_A**2) @ w)
        d_omega_A = float((do * da) @ w)
        return MeanDerivs(d_omega, d_A, d_AA, d_omega_A)

    def predict_cov_d_A(self, x, x2) -> float:
        """d/dA at x of the posterior covariance of the latent values at x and x2."""
        X, hyp = self.dataset.X, self.hyper
        V = solve_triangular(self.chol, np.column_stack(
            [_kernel_vec_d_A(X, x, hyp), _kernel_vec(X, x2, hyp)]), lower=True)
        return -(x[1] - x2[1]) / hyp.l_A**2 * kernel(x, x2, hyp) - float(V[:, 0] @ V[:, 1])

    def loo_mean_d_A_shift(self, x) -> np.ndarray:
        """dG/dA at x minus its value without training point i, for every i.

        Closed form (Rasmussen & Williams eq. 5.12): the mean at x exceeds the
        one without point i by (K^-1 k_x)_i alpha_i / (K^-1)_ii; no downdate.
        """
        Kinv = cho_solve((self.chol, True), np.eye(self.n))
        return Kinv @ _kernel_vec_d_A(self.dataset.X, x, self.hyper) * self.alpha / np.diag(Kinv)

    # -- incremental updates -----------------------------------------------

    def add_point(self, x, F_value: float) -> "GprModel":
        """Extend the model with one observation; O(n^2) factor update.

        Raises DuplicatePoint when x duplicates a training input (see Dataset).
        """
        x = (float(x[0]), float(x[1]))
        data = self.dataset.append(x, F_value)
        k = _kernel_vec(self.dataset.X, x, self.hyper)
        col = solve_triangular(self.chol, k, lower=True)
        s2 = self.hyper.sigma_f2 + self.hyper.sigma_n2 + self.jitter - float(col @ col)
        if s2 <= 0.0:
            raise FactorizationFailure(
                "factor extension broke down; point is numerically dependent on the data")
        L = np.zeros((self.n + 1, self.n + 1))
        L[:-1, :-1] = self.chol
        L[-1, :-1] = col
        L[-1, -1] = math.sqrt(s2)
        alpha = cho_solve((L, True), data.F)
        return GprModel(data, self.hyper, L, alpha, self.jitter)

    def remove_point(self, index: int) -> "GprModel":
        """Drop training point `index`; rank-one factor downdate, O(n^2)."""
        data = self.dataset.drop(index)
        if data.n == 0:
            return build(data, self.hyper)
        L = np.delete(np.delete(self.chol, index, axis=0), index, axis=1)
        # trailing block absorbs the deleted column segment: M M^T = L33 L33^T + l32 l32^T
        w = self.chol[index + 1:, index].copy()
        _rank_one_update(L[index:, index:], w)
        alpha = cho_solve((L, True), data.F)
        return GprModel(data, self.hyper, L, alpha, self.jitter)


def _rank_one_update(L: np.ndarray, w: np.ndarray):
    """In-place lower-triangular update: L L^T + w w^T -> L L^T."""
    m = len(w)
    for k in range(m):
        r = math.hypot(L[k, k], w[k])
        c = r / L[k, k]
        s = w[k] / L[k, k]
        L[k, k] = r
        if k + 1 < m:
            L[k + 1:, k] = (L[k + 1:, k] + s * w[k + 1:]) / c
            w[k + 1:] = c * w[k + 1:] - s * L[k + 1:, k]


def build(dataset: Dataset, hyper: Hyperparameters) -> GprModel:
    """Factorize the training covariance and cache alpha = K^-1 F."""
    K = _kernel_matrix(dataset.X, hyper)
    K[np.diag_indices_from(K)] += hyper.sigma_n2
    L, jitter = _factorize(K, hyper)
    alpha = cho_solve((L, True), dataset.F)
    return GprModel(dataset, hyper, L, alpha, jitter)


def log_marginal(dataset: Dataset, hyper: Hyperparameters) -> float:
    """Log marginal likelihood -1/2 F^T K^-1 F - 1/2 log|K| - n/2 log(2 pi)."""
    if dataset.n == 0:
        raise ValueError("log marginal likelihood of an empty dataset")
    model = build(dataset, hyper)
    return _log_marginal_from_factor(model.chol, model.alpha, dataset.F)


def _log_marginal_from_factor(L, alpha, F) -> float:
    n = len(F)
    return float(-0.5 * F @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2.0 * math.pi))


def _log_marginal_and_grad(dataset: Dataset, z: np.ndarray):
    """Value and gradient of the log marginal likelihood w.r.t. log-parameters."""
    hyper = Hyperparameters.from_array(np.exp(z))
    X, F = dataset.X, dataset.F
    n = dataset.n
    Kse = _kernel_matrix(X, hyper)
    K = Kse + hyper.sigma_n2 * np.eye(n)
    L, _ = _factorize(K, hyper)
    alpha = cho_solve((L, True), F)
    value = _log_marginal_from_factor(L, alpha, F)

    Kinv = cho_solve((L, True), np.eye(n))
    W = np.outer(alpha, alpha) - Kinv
    Do2 = ((X[:, 0:1] - X[:, 0:1].T) / hyper.l_omega) ** 2
    Da2 = ((X[:, 1:2] - X[:, 1:2].T) / hyper.l_A) ** 2
    # dK/dlog(theta) for theta = (sigma_n2, sigma_f2, l_omega, l_A)
    grads = np.array([
        0.5 * hyper.sigma_n2 * np.trace(W),
        0.5 * np.sum(W * Kse),
        0.5 * np.sum(W * (Kse * Do2)),
        0.5 * np.sum(W * (Kse * Da2)),
    ])
    return value, grads


def default_fit_bounds(dataset: Dataset) -> FitBounds:
    """Data-driven search intervals: variances from var(F), lengths from input spread."""
    v = float(np.var(dataset.F))
    if v <= 0.0:
        v = max(1.0, float(np.mean(dataset.F)) ** 2)
    spans = np.ptp(dataset.X, axis=0)
    spans[spans <= 0.0] = np.maximum(np.abs(dataset.X).max(axis=0), 1.0)[spans <= 0.0]
    return FitBounds(
        sigma_n2=(1e-10 * v, 10.0 * v),
        sigma_f2=(1e-8 * v, 1e3 * v),
        l_omega=(spans[0] / 100.0, 20.0 * spans[0]),
        l_A=(spans[1] / 100.0, 20.0 * spans[1]),
    )


def fit_hyperparameters(dataset: Dataset, init: Hyperparameters,
                        bounds: FitBounds | None = None, n_starts: int = 5,
                        seed: int = 0) -> Hyperparameters:
    """Maximize the log marginal likelihood over the four kernel parameters.

    Quasi-Newton (L-BFGS-B) on log-parameters with analytic gradients,
    multi-started from `init` plus log-uniform draws inside `bounds`.  The
    result never has a lower likelihood than the (bound-clipped) init.

    Raises OptimizationFailure if no start produces a finite likelihood.
    """
    from scipy.optimize import minimize

    if dataset.n < 5:
        raise ValueError(f"need at least 5 points to fit hyperparameters, got {dataset.n}")
    if bounds is None:
        bounds = default_fit_bounds(dataset)
    lo, hi = bounds.as_arrays()
    z_lo, z_hi = np.log(lo), np.log(hi)
    z0 = np.clip(np.log(init.as_array()), z_lo, z_hi)

    def objective(z):
        try:
            value, grad = _log_marginal_and_grad(dataset, z)
        except FactorizationFailure:
            return 1e25, np.zeros(4)
        if not np.isfinite(value):
            return 1e25, np.zeros(4)
        return -value, -grad

    rng = np.random.default_rng(seed)
    starts = [z0]
    for _ in range(max(0, n_starts - 1)):
        starts.append(rng.uniform(z_lo, z_hi))

    candidates = []
    f0, _ = objective(z0)
    if f0 < 1e24:
        candidates.append((f0, z0))
    for z_start in starts:
        try:
            res = minimize(objective, z_start, jac=True, method="L-BFGS-B",
                           bounds=list(zip(z_lo, z_hi)))
        except Exception:
            continue
        if np.isfinite(res.fun) and res.fun < 1e24:
            candidates.append((float(res.fun), np.clip(res.x, z_lo, z_hi)))
    if not candidates:
        raise OptimizationFailure("no start produced a finite log marginal likelihood")
    best = min(candidates, key=lambda t: t[0])
    return Hyperparameters.from_array(np.exp(best[1]))
