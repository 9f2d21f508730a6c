"""Gaussian-process regression over (omega, A) inputs with incremental updates.

The response-surface surrogate is a zero-mean GP with an anisotropic
squared-exponential kernel, one length scale per input dimension, plus
i.i.d. Gaussian observation noise.  The Cholesky factor of the training
covariance is kept with the model: a point is added in O(n^2) by extending
the factor, and removed by factorizing the points that remain.  The same
factor gives, with no model built, the closed-form scores that acquisition
ranks candidates and points by: one triangular solve per candidate set, one
inverse per set of points.  A `Dataset` keeps the column minima and maxima
its duplicate rule divides by, taken once per dataset, so checking a
candidate set or an appended point is one comparison with the inputs and no
rescan of their columns.

The linear algebra calls LAPACK directly (dpotrf, dtrtrs, dpotrs, dpotri),
without the scipy.linalg wrappers: at the sizes of a local model their
checks and copies cost several times the routine itself.  The factor is
kept Fortran-ordered, as LAPACK returns it, so no call copies it.  The
wrappers' finiteness check is not needed: `Dataset` and `Hyperparameters`
refuse non-finite values, so every covariance built from them is finite.

A hyperparameter fit maximizes the log marginal likelihood with its analytic
gradient.  It takes the input differences and its n x n work arrays once per
fit and evaluates its start point once.  Each evaluation factors the
symmetric K through its transpose, which is the same matrix in the Fortran
order LAPACK reads, so it is copied without transposing.  It reads the
gradient from the one triangle W of K^-1 that LAPACK dpotri returns: for a
symmetric M, sum((alpha alpha^T - K^-1) o M) = alpha^T M alpha
- 2 sum(W o M) + sum(diag(W) diag(M)), so the full inverse is never
formed.  A fit may be given a scale per log-parameter, taken by
`curvature_scale` from the likelihood's curvature at a nearby optimum: the
optimizer then starts with a curvature model close to the true one and
needs fewer evaluations to converge (Nocedal & Wright, Numerical
Optimization, section 7.2).

All quantities live in the physical units of the experiment; the prior
mean is zero in those units, so predictions revert to zero force far away
from the data.  A query point is read from its first two entries, and
one point is a batch of one.  Its covariances with the training inputs,
and the posterior mean, come from one kernel pass, `GprModel.kernel_pass`:
its offsets from the inputs in length scales (`unit_inputs`, cached once
per model), read by `mean_terms` with the weights sigma_f2 alpha.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

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

# Forward-difference step in log-parameters for `curvature_scale`.
_CURVATURE_STEP = 1e-4


@dataclass(frozen=True)
class Hyperparameters:
    """SE-kernel parameters: noise variance, signal variance, two length scales.

    Units follow the experiment: sigma_n2 and sigma_f2 in force units
    squared, l_omega in frequency units, l_A in response-amplitude units.
    Its fields, in order, are the one list of the parameters' names
    (`HYPER_NAMES`), which arrays, dicts, bounds, configs and CSVs follow.
    """

    sigma_n2: float
    sigma_f2: float
    l_omega: float
    l_A: float

    def __post_init__(self):
        vals = tuple(vars(self).values())
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError(f"hyperparameters must be strictly positive and finite, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))

    @classmethod
    def from_array(cls, a) -> "Hyperparameters":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_dict(self) -> dict:
        return asdict(self)


HYPER_NAMES = tuple(f.name for f in fields(Hyperparameters))


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
        return {name: getattr(self, name) for name in HYPER_NAMES}

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.array(list(self.as_dict().values()), dtype=float).T)


def as_points(C) -> np.ndarray:
    """The first two entries of each point of C, as (m, 2); one point is a batch of one."""
    return np.atleast_2d(np.asarray(C, dtype=float))[:, :2]


def _coincide(X: np.ndarray, C: np.ndarray, s: np.ndarray) -> np.ndarray:
    """hits[i, j]: C[i] lies within DUPLICATE_TOL of X[j], coordinates divided by s[i].

    s holds one row of per-column spreads per row of C; a zero spread counts as 1.
    The two scaled differences are (m, n) arrays, one per coordinate.
    """
    s = np.where(s == 0.0, 1.0, s)
    d_omega = (X[:, 0] - C[:, 0:1]) / s[:, 0:1]
    d_A = (X[:, 1] - C[:, 1:2]) / s[:, 1:2]
    return d_omega * d_omega + d_A * d_A < DUPLICATE_TOL**2


@dataclass(frozen=True)
class Dataset:
    """Training inputs (omega, A) and measured force amplitudes F.

    Arrays are frozen at construction; append/drop return new datasets.
    An input closer than DUPLICATE_TOL to an earlier one, with each
    coordinate divided by the spread of the inputs up to and including it,
    is a duplicate and raises DuplicatePoint: duplicates make the noise-free
    covariance factor singular.  The constructor checks each row against the
    rows before it, `append` checks the new input against the others, so a
    dataset grown by `append` passes the constructor's check; `take` and
    `drop` check nothing, because a subset kept in order only shrinks the
    spreads.  The spreads come from the column minima and maxima, which are
    kept with the dataset: each instance computes them once, when a
    duplicate check first needs them.
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
        X = self.X
        # an input j after input i may lie beyond i's running spread, so that
        # pair's offset may overflow; the mask drops it, and inf is no duplicate
        with np.errstate(over="ignore"):
            hits = _coincide(X, X, np.maximum.accumulate(X) - np.minimum.accumulate(X))
        hits &= np.tri(self.n, k=-1, dtype=bool)
        if hits.any():
            j = int(hits.any(axis=1).argmax())
            raise DuplicatePoint(f"inputs {int(hits[j].argmax())} and {j} coincide "
                                 f"within duplicate tolerance")

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

    @cached_property
    def _extent(self) -> tuple[np.ndarray, np.ndarray]:
        """Column minima and maxima of the inputs; +inf and -inf when there are none."""
        if self.n == 0:
            return np.full(2, math.inf), np.full(2, -math.inf)
        return self.X.min(axis=0), self.X.max(axis=0)

    @classmethod
    def empty(cls) -> "Dataset":
        return cls(np.zeros((0, 2)), np.zeros(0))

    def append(self, x, F_value: float) -> "Dataset":
        """This dataset with the sample (x, F_value) last; O(n).

        The cost is one `duplicate_of` check of x against the n inputs, using
        the kept column extremes (taken first if this dataset has not yet
        needed them), and one copy of the arrays into arrays one row longer.
        """
        omega, A, F_value = float(x[0]), float(x[1]), float(F_value)
        if not (math.isfinite(omega) and math.isfinite(A) and math.isfinite(F_value)):
            raise ValueError(f"non-finite sample {[omega, A]}, {F_value}")
        i = int(self.duplicate_of((omega, A))[0])
        if i >= 0:
            raise DuplicatePoint(f"input {[omega, A]} duplicates training input {i}")
        n = self.n
        X = np.empty((n + 1, 2))
        X[:n] = self.X
        X[n] = omega, A
        F = np.empty(n + 1)
        F[:n] = self.F
        F[n] = F_value
        return Dataset._trusted(X, F)

    def duplicate_of(self, C) -> np.ndarray:
        """For each row of C, the first training input it duplicates, or -1; O(n*m).

        C is one point or an (m, 2) array, read by `as_points`.  Row c is
        compared using the spreads of the training inputs together with c alone.
        """
        C = as_points(C)
        lo, hi = self._extent
        hits = _coincide(self.X, C, np.maximum(hi, C) - np.minimum(lo, C))
        if not hits.any():
            return np.full(len(C), -1)
        return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)

    def take(self, rows) -> "Dataset":
        """The rows at the strictly increasing indices `rows`, in order, unchecked.

        Each kept row meets the rows kept before it with spreads no larger
        than its own in this dataset, so the subset passes the constructor's
        check whenever this dataset does.
        """
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        if rows.size and not (0 <= rows[0] and rows[-1] < self.n
                              and np.all(rows[1:] > rows[:-1])):
            raise IndexOutOfRange(f"rows must increase strictly inside [0, {self.n})")
        return Dataset._trusted(self.X[rows], self.F[rows])

    def drop(self, index: int) -> "Dataset":
        """This dataset without row `index`, unchecked, as `take` of the other rows."""
        if not 0 <= index < self.n:
            raise IndexOutOfRange(f"index {index} outside [0, {self.n})")
        return Dataset._trusted(np.concatenate((self.X[:index], self.X[index + 1:])),
                                np.concatenate((self.F[:index], self.F[index + 1:])))


class MeanDerivs(NamedTuple):
    """Partial derivatives of the posterior mean at a query point."""

    d_omega: float
    d_A: float
    d_AA: float
    d_omega_A: float


def _kernel_matrix(X1: np.ndarray, X2: np.ndarray, hyper: Hyperparameters) -> np.ndarray:
    """Anisotropic squared-exponential covariances between the rows of X1 and X2."""
    do = (X1[:, 0:1] - X2[:, 0:1].T) / hyper.l_omega
    da = (X1[:, 1:2] - X2[:, 1:2].T) / hyper.l_A
    return hyper.sigma_f2 * np.exp(-0.5 * (do**2 + da**2))


class KernelPass(NamedTuple):
    """Offsets du, dv and d2 = du^2 + dv^2 of query points (u, v) from reference points,
    in length scales, one reference point per entry of the last axis."""

    du: np.ndarray
    dv: np.ndarray
    d2: np.ndarray


def _offsets(u, v, U: np.ndarray) -> KernelPass:
    """The pass of (u, v) against the reference points U, a (2, n) array in length scales."""
    du = u - U[0]
    dv = v - U[1]
    return KernelPass(du, dv, du * du + dv * dv)


def _factorize(K: np.ndarray, hyper: Hyperparameters):
    """Lower Cholesky factor of K, escalating diagonal jitter on breakdown."""
    n = K.shape[0]
    scale = hyper.sigma_f2 + hyper.sigma_n2  # equals trace(K)/n for the SE kernel
    for rel in _JITTER_LADDER:
        L = _cholesky(K + rel * scale * np.eye(n) if rel else K)
        if L is not None:
            return L, rel * scale
    raise FactorizationFailure(
        "covariance matrix not positive definite after jitter escalation; "
        "check for duplicate inputs or degenerate hyperparameters")


@dataclass(frozen=True)
class GprModel:
    """Immutable GP posterior: dataset, hyperparameters, Cholesky factor, alpha.

    `chol` is the lower factor of K = _kernel_matrix(X, X) + sigma_n2*I (+ jitter),
    Fortran-ordered with a zero upper triangle, and `alpha` solves K alpha = F.
    All update operations return new models.
    """

    dataset: Dataset
    hyper: Hyperparameters
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.dataset.n

    @cached_property
    def unit_inputs(self) -> np.ndarray:
        """(2, n): the training inputs' omega / l_omega and A / l_A, one row each."""
        X, hyp = self.dataset.X, self.hyper
        return np.array([X[:, 0] / hyp.l_omega, X[:, 1] / hyp.l_A])

    @cached_property
    def weights(self) -> np.ndarray:
        """sigma_f2 alpha: the posterior mean at x is the sum of exp(-d^2/2) times
        these, d the distance from x to each input in length scales."""
        return self.hyper.sigma_f2 * self.alpha

    # -- prediction --------------------------------------------------------

    def kernel_pass(self, u, v) -> KernelPass:
        """The pass at (u, v) = (omega / l_omega, A / l_A); arrays of query points
        need a trailing axis of length 1."""
        return _offsets(u, v, self.unit_inputs)

    def pass_at(self, x) -> KernelPass:
        """The pass at the physical point x."""
        return self.kernel_pass(x[0] / self.hyper.l_omega, x[1] / self.hyper.l_A)

    def mean_terms(self, p: KernelPass) -> np.ndarray:
        """exp(-d^2/2) times `weights`: each input's term of the posterior mean."""
        return np.exp(-0.5 * p.d2) * self.weights

    def _cov(self, p: KernelPass) -> np.ndarray:
        """Prior covariances sigma_f2 exp(-d^2/2) of a pass."""
        return self.hyper.sigma_f2 * np.exp(-0.5 * p.d2)

    def _cov_d_A(self, p: KernelPass) -> np.ndarray:
        """d/dA at the query point of the prior covariances of a pass."""
        return -p.dv / self.hyper.l_A * self._cov(p)

    def predict_mean(self, x) -> float:
        """Posterior mean force amplitude at x = (omega, A)."""
        return float(self.mean_terms(self.pass_at(x)).sum())

    def predict_var(self, x) -> float:
        """Posterior variance of the latent force amplitude at x.

        Bounded by [0, sigma_f2]; tiny negative round-off is clamped, larger
        violations raise NumericalBreakdown.
        """
        v = _solve_lower(self.chol, self._cov(self.pass_at(x)))
        return float(_clamped_var(self.hyper.sigma_f2 - float(v @ v)))

    def predict_mean_derivs(self, x) -> MeanDerivs:
        """Analytic dG/domega, dG/dA, d2G/dA2, d2G/domega dA of the posterior mean."""
        hyp = self.hyper
        p = self.pass_at(x)
        w = self.mean_terms(p)
        return MeanDerivs(float(-(p.du @ w)) / hyp.l_omega, float(-(p.dv @ w)) / hyp.l_A,
                          float((p.dv * p.dv - 1.0) @ w) / hyp.l_A**2,
                          float((p.du * p.dv) @ w) / (hyp.l_omega * hyp.l_A))

    def predict_var_and_cov_d_A(self, x, C) -> tuple[np.ndarray, np.ndarray]:
        """Posterior variances at the points C and d/dA at x of cov(x, c), for every c.

        One pass at x and C gives [d/dA k(X, x), k(X, C)] transposed, so in the
        Fortran order LAPACK reads, and one triangular solve of it gives V, whose
        first column against each other one is the data's share of both.
        Variances are clamped and checked as in `predict_var`.
        """
        hyp = self.hyper
        Q = np.vstack([as_points(x), as_points(C)]) / (hyp.l_omega, hyp.l_A)
        p = self.kernel_pass(Q[:, 0:1], Q[:, 1:2])
        B = self._cov(p)
        B[0] *= -p.dv[0] / hyp.l_A
        V = _solve_lower(self.chol, B.T)
        var = _clamped_var(hyp.sigma_f2 - np.einsum("ij,ij->j", V[:, 1:], V[:, 1:]))
        prior = self._cov_d_A(_offsets(Q[0, 0], Q[0, 1], Q[1:].T))
        return var, prior - V[:, 0] @ V[:, 1:]

    def loo_shifts(self, p: KernelPass) -> np.ndarray:
        """dG/dA at the query point of the pass p minus its value without
        training point i, for every i; `pass_at(x)` gives the pass at x.

        Closed form (Rasmussen & Williams eq. 5.12): the mean at x exceeds the
        one without point i by (K^-1 k_x)_i alpha_i / (K^-1)_ii; no model is rebuilt.
        """
        W = _inverse_lower(self.chol)
        d = np.diag(W)
        k = self._cov_d_A(p)
        return (W @ k + W.T @ k - d * k) * self.alpha / d

    # -- updates -----------------------------------------------------------

    def add_point(self, x, F_value: float) -> "GprModel":
        """Extend the model with one observation; O(n^2) factor update.

        Raises DuplicatePoint when x duplicates a training input (see Dataset).
        """
        data = self.dataset.append(x, F_value)
        col = _solve_lower(self.chol, self._cov(self.pass_at(x)))
        s2 = self.hyper.sigma_f2 + self.hyper.sigma_n2 + self.jitter - float(col @ col)
        if s2 <= 0.0:
            raise FactorizationFailure(
                "factor extension broke down; point is numerically dependent on the data")
        L = np.zeros((self.n + 1, self.n + 1), order="F")
        L[:-1, :-1] = self.chol
        L[-1, :-1] = col
        L[-1, -1] = math.sqrt(s2)
        alpha = _cho_solve(L, data.F)
        return GprModel(data, self.hyper, L, alpha, self.jitter)

    def remove_point(self, index: int) -> "GprModel":
        """Drop training point `index` and factorize the rest afresh, O(n^3).

        The jitter ladder restarts from zero, as in `build`.
        """
        return build(self.dataset.drop(index), self.hyper)


def _cholesky(K: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric K by LAPACK dpotrf; None if K is not definite.

    The factor is Fortran-ordered with its strict upper triangle zeroed.  K is
    read from its lower triangle and left unchanged.
    """
    L, info = dpotrf(K, lower=1, clean=1)
    if info > 0:
        return None
    if info != 0:
        raise FactorizationFailure(f"Cholesky factorization failed (info {info})")
    return L


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for the lower-triangular L, by LAPACK dtrtrs; B is a vector or a matrix.

    LAPACK refuses n = 0, whose solution is the empty B itself.
    """
    if L.shape[0] == 0:
        return np.array(B, dtype=float)
    X, info = dtrtrs(L, B, lower=1)
    if info != 0:
        raise FactorizationFailure(f"triangular solve with the factor failed (info {info})")
    return X


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor L of K, by LAPACK dpotrs.

    LAPACK refuses n = 0, whose solution is the empty b itself.
    """
    if L.shape[0] == 0:
        return np.array(b, dtype=float)
    x, info = dpotrs(L, b, lower=1)
    if info != 0:
        raise FactorizationFailure(f"solving with the factor failed (info {info})")
    return x


def _inverse_lower(L: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Lower triangle of K^-1 from the lower Cholesky factor L of K, by LAPACK dpotri.

    The strict upper triangle is zero, as in L, so K^-1 = W + W^T - diag(W).
    `overwrite` lets LAPACK work in L's memory.
    """
    W, info = dpotri(L, lower=1, overwrite_c=int(overwrite))
    if info != 0:
        raise FactorizationFailure(f"inverting the covariance from its factor failed "
                                   f"(info {info})")
    return W


def _clamped_var(var):
    """Posterior variance with round-off below 0 clamped; below -1e-10 it is a breakdown."""
    lowest = np.minimum.reduce(var, axis=None, initial=0.0)
    if lowest < -1e-10:
        raise NumericalBreakdown(f"predictive variance {lowest} below -1e-10")
    return np.maximum(var, 0.0)


def build(dataset: Dataset, hyper: Hyperparameters) -> GprModel:
    """Factorize the training covariance and cache alpha = K^-1 F."""
    K = _kernel_matrix(dataset.X, dataset.X, hyper)
    K.flat[::dataset.n + 1] += hyper.sigma_n2
    L, jitter = _factorize(K, hyper)
    alpha = _cho_solve(L, dataset.F)
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


class _LogMarginal:
    """Log marginal likelihood of one dataset and its gradient w.r.t. log-parameters.

    A fit calls it at many hyperparameters and one dataset, so the input
    differences and the n x n work arrays are taken once, at construction.
    K_se follows `_kernel_matrix`'s arithmetic and is exactly symmetric, so
    K = K_se + sigma_n2 I is factored as K^T: the same matrix, in the
    Fortran order dpotrf reads, so LAPACK's copy of it does not transpose,
    and the value is `log_marginal`'s to the bit.  dpotri returns the lower
    triangle W of K^-1 from the factor, the strict upper one zero.  The
    gradient (Rasmussen & Williams eq. 5.9) is sigma_n2 (alpha.alpha -
    tr K^-1)/2 for the noise, and S(M)/2 with S(M) = sum((alpha alpha^T -
    K^-1) o M) for the rest: M = K_se for the signal variance, K_se o D2 for
    each length scale l, D2 holding the squared input differences along its
    axis over l^2.  As M is symmetric and K^-1 = W + W^T - diag(W),
    S(M) = alpha^T M alpha - 2 sum(W o M) + sum(diag(W) diag(M)); the last
    term is sigma_f2 tr K^-1 for K_se and 0 for K_se o D2, whose diagonal is
    zero.  Each K_se o D2 is formed in D2's own buffer.
    """

    def __init__(self, dataset: Dataset):
        X = dataset.X
        self.F = dataset.F
        self.Dw = np.subtract.outer(X[:, 0], X[:, 0])
        self.Da = np.subtract.outer(X[:, 1], X[:, 1])
        self.Do2, self.Da2, self.Kse = (np.empty_like(self.Dw) for _ in range(3))

    def __call__(self, z: np.ndarray):
        hyper = Hyperparameters.from_array(np.exp(z))
        F, Do2, Da2, Kse = self.F, self.Do2, self.Da2, self.Kse
        n = len(F)
        np.square(np.divide(self.Dw, hyper.l_omega, out=Do2), out=Do2)
        np.square(np.divide(self.Da, hyper.l_A, out=Da2), out=Da2)
        np.add(Do2, Da2, out=Kse)
        Kse *= -0.5
        np.exp(Kse, out=Kse)
        Kse *= hyper.sigma_f2
        # factor K = Kse + sigma_n2 I in place; the diagonal of Kse is sigma_f2 exactly
        Kse.flat[::n + 1] += hyper.sigma_n2
        L, _ = _factorize(Kse.T, hyper)
        Kse.flat[::n + 1] = hyper.sigma_f2
        alpha = _cho_solve(L, F)
        value = _log_marginal_from_factor(L, alpha, F)

        W = _inverse_lower(L, overwrite=True)
        w = W.T.ravel()  # W is Fortran-ordered, so this is a view
        tr_Kinv = np.trace(W)

        def s_of(M):
            """S(M) without its diagonal term."""
            return alpha @ (M @ alpha) - 2.0 * (w @ M.ravel())

        s_f = s_of(Kse) + hyper.sigma_f2 * tr_Kinv
        s_omega = s_of(np.multiply(Do2, Kse, out=Do2))
        s_A = s_of(np.multiply(Da2, Kse, out=Da2))
        grads = 0.5 * np.array([hyper.sigma_n2 * (alpha @ alpha - tr_Kinv), s_f, s_omega, s_A])
        return value, grads


def initial_guess(dataset: Dataset) -> Hyperparameters:
    """Likelihood-fit start from the data alone: the force variance as signal,
    a 1e-8 share of it as noise, and a quarter of each input's spread as
    its length scale."""
    var = float(np.var(dataset.F))
    return Hyperparameters(sigma_n2=max(1e-8 * var, 1e-12), sigma_f2=var + 1e-12,
                           l_omega=max(float(np.ptp(dataset.X[:, 0])) / 4.0, 1e-9),
                           l_A=max(float(np.ptp(dataset.X[:, 1])) / 4.0, 1e-9))


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


def curvature_scale(dataset: Dataset, hyper: Hyperparameters) -> np.ndarray:
    """Per-log-parameter scales 1 / sqrt(max(|d2(-log p)/dz_i^2|, 1)) at `hyper`.

    Each curvature is a forward difference, step 1e-4, of the analytic
    gradient: five evaluations.  A direction whose curvature is below 1 in
    magnitude (flat, or slightly concave) or not finite keeps unit scale, so
    no scale exceeds 1; every direction does when the covariance cannot be
    factorized.
    """
    log_marginal_and_grad = _LogMarginal(dataset)
    z = np.log(hyper.as_array())
    curvature = np.zeros(4)
    try:
        _, grad = log_marginal_and_grad(z)
        for i in range(4):
            dz = np.zeros(4)
            dz[i] = _CURVATURE_STEP
            curvature[i] = (grad[i] - log_marginal_and_grad(z + dz)[1][i]) / _CURVATURE_STEP
    except FactorizationFailure:
        return np.ones(4)
    curvature[~np.isfinite(curvature)] = 0.0
    return 1.0 / np.sqrt(np.maximum(np.abs(curvature), 1.0))


def fit_hyperparameters(dataset: Dataset, init: Hyperparameters | None = None,
                        bounds: FitBounds | None = None, n_starts: int = 5,
                        seed: int = 0, scale: np.ndarray | None = None) -> Hyperparameters:
    """Maximize the log marginal likelihood over the four kernel parameters.

    Quasi-Newton (L-BFGS-B) on log-parameters z with analytic gradients,
    multi-started from `init` plus log-uniform draws inside `bounds`.  The
    result never has a lower likelihood than the (bound-clipped) init.
    Without `init` the fit starts from `initial_guess`, and without
    `bounds` it searches `default_fit_bounds`: both from the data alone.

    With `scale` (four positive numbers, as from `curvature_scale`) the
    optimizer works in y = z / scale: bounds, starts and result are mapped by
    that division and the matching multiplication, and the projected-gradient
    tolerance is 1e-5 * min(scale), so no stopping rule is looser in z.
    Without it, or with unit scales, the arithmetic is the unscaled fit's.

    Raises OptimizationFailure if no start produces a finite likelihood.
    """
    from scipy.optimize import minimize

    if dataset.n < 5:
        raise ValueError(f"need at least 5 points to fit hyperparameters, got {dataset.n}")
    if init is None:
        init = initial_guess(dataset)
    if bounds is None:
        bounds = default_fit_bounds(dataset)
    s = np.ones(4) if scale is None else np.asarray(scale, dtype=float)
    lo, hi = bounds.as_arrays()
    z_lo, z_hi = np.log(lo), np.log(hi)
    z0 = np.clip(np.log(init.as_array()), z_lo, z_hi)

    log_marginal_and_grad = _LogMarginal(dataset)

    def evaluate(z):
        try:
            value, grad = log_marginal_and_grad(z)
        except FactorizationFailure:
            return 1e25, np.zeros(4)
        if not np.isfinite(value):
            return 1e25, np.zeros(4)
        return -value, -grad * s

    # The last point and its result: L-BFGS-B's first call repeats the guard's below.
    last = {}

    def objective(y):
        if "y" not in last or not np.array_equal(y, last["y"]):
            last.update(y=np.array(y), result=evaluate(y * s))
        value, grad = last["result"]
        return value, grad.copy()

    rng = np.random.default_rng(seed)
    starts = [z0]
    for _ in range(max(0, n_starts - 1)):
        starts.append(rng.uniform(z_lo, z_hi))

    candidates = []
    f0, _ = objective(z0 / s)
    if f0 < 1e24:
        candidates.append((f0, z0))
    for z_start in starts:
        try:
            res = minimize(objective, z_start / s, jac=True, method="L-BFGS-B",
                           bounds=list(zip(z_lo / s, z_hi / s)),
                           options={"gtol": 1e-5 * s.min()})
        except Exception:
            continue
        if np.isfinite(res.fun) and res.fun < 1e24:
            candidates.append((float(res.fun), np.clip(res.x * s, z_lo, z_hi)))
    if not candidates:
        raise OptimizationFailure("no start produced a finite log marginal likelihood")
    best = min(candidates, key=lambda t: t[0])
    return Hyperparameters.from_array(np.exp(best[1]))
