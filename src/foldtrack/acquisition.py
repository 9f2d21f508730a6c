"""Active selection of the next measurement around the current fold solution.

Candidates are drawn area-uniformly from an ellipse whose semi-axes are
twice the kernel length scales, as one (n_test, 2) array per round, which
the scoring and the pick of the next request read directly.  Every
candidate of a round is scored by beta, the shift of the fold-condition
value at the current solution caused by adding an artificial measurement
(posterior mean plus one standard deviation) at the candidate, in closed
form; one triangular solve scores the whole round, and a single pair is
scored as a batch of one.
The most influential candidate is measured for real until no candidate
can move the zero-problem by more than `beta_tol`, keeping the solution
robust to new data.  Every realized sample of a run enters the model
through `add_measurement`, which holds the size cap n_max by discarding
the points of least leave-one-out influence.

Two alternatives were tried in the original study and discarded (see
README): collecting where the predictive variance is largest pushes points
to the data periphery, and scoring by the shift of the solution itself
costs a nonlinear solve per candidate for no better selections.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .continuation import ContinuationConfig, FoldPoint, Tangent, correct
from .errors import CollectionCap, ContinuationError, DomainExhausted, DuplicatePoint
from .geometry import DomainBox
from .gpr import GprModel, as_points

# Farthest the h = 0 re-correct of `add_measurement` may move the fold, in
# length scales.  On duffing_noisy.yaml with n_max 40, seeds 0-339 (one BLAS
# thread), the median of each seed's largest move is 0.044 and all but two
# seeds stay at or below 0.184; seeds 160 (0.41, then 1.95) and 249 (0.68)
# jump onto another part of the zero set, and are the only ones whose folds
# then miss the closed-form locus.  rig_trace.yaml seeds 0-99 reach at most
# 0.357, and duffing_noisy.yaml itself (n_max 100) seeds 0-99 at most 0.116.
MAX_REFRESH_MOVE = 0.4


@dataclass(frozen=True)
class AcquisitionConfig:
    n_test: int = 50
    beta_tol: float = 4e-2
    n_max: int = 100
    max_points_per_step: int = 10

    def __post_init__(self):
        if self.n_test < 1:
            raise ValueError("n_test must be >= 1")
        if self.beta_tol <= 0.0:
            raise ValueError("beta_tol must be positive")
        if self.n_max < 1 or self.max_points_per_step < 1:
            raise ValueError("n_max and max_points_per_step must be >= 1")


class CollectionRecord(NamedTuple):
    """One collection of a step, in the collection log's column order after `step`."""

    collection_idx: int
    omega_req: float
    A_req: float
    omega_meas: float
    A_meas: float
    F_meas: float
    beta_max: float


@dataclass
class ImproveResult:
    model: GprModel
    fold: FoldPoint
    collections: list[CollectionRecord] = field(default_factory=list)
    beta_max_final: float = 0.0


def generate_candidates(center, cfg: AcquisitionConfig, rng_seed, hyper,
                        domain_box: DomainBox | None = None) -> np.ndarray:
    """Exactly n_test inputs as an (n_test, 2) array, area-uniform in the
    ellipse around `center` whose semi-axes are twice `hyper`'s length scales.

    Points falling outside the domain box are redrawn; raises
    DomainExhausted when the admissible part of the ellipse is too small.
    Deterministic for a given rng_seed.
    """
    a, b = 2.0 * hyper.l_omega, 2.0 * hyper.l_A
    rng = np.random.default_rng(rng_seed)
    out = np.empty((0, 2))
    max_draws = 400 * cfg.n_test + 400
    drawn = 0
    while len(out) < cfg.n_test:
        m = min(4 * cfg.n_test, max_draws - drawn)
        if m <= 0:
            raise DomainExhausted(
                f"could not place {cfg.n_test} candidates inside ellipse and domain box")
        r = np.sqrt(rng.uniform(size=m))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        pts = np.empty((m, 2))
        pts[:, 0] = center[0] + a * r * np.cos(phi)
        pts[:, 1] = center[1] + b * r * np.sin(phi)
        drawn += m
        if domain_box is not None:
            pts = pts[domain_box.contains(pts[:, 0], pts[:, 1])]
        out = np.concatenate((out, pts))
    return out[:cfg.n_test]


def sensitivity_beta(model: GprModel, x_cand, x_sol):
    """|dGamma/dA shift at the solution| caused by an artificial measurement.

    Observing mean + sigma_c at candidate c moves dGamma/dA at the solution
    by dcov_A * sigma_c / (sigma_c^2 + sigma_n2 + jitter), dcov_A being the
    A-derivative of the posterior covariance of solution and candidate.
    `x_cand` is an (m, 2) array of candidates, all scored by one triangular
    solve, giving an (m,) array; one point is a batch of one and gives a
    float.  A candidate that duplicates a training input scores 0.
    """
    x_cand = np.asarray(x_cand, dtype=float)
    C = as_points(x_cand)
    fresh = model.dataset.duplicate_of(C) < 0
    every = bool(fresh.all())
    var, cov_d_A = model.predict_var_and_cov_d_A(x_sol, C if every else C[fresh])
    score = np.abs(cov_d_A) * np.sqrt(var) / (var + model.hyper.sigma_n2 + model.jitter)
    if every:
        beta = score
    else:
        beta = np.zeros(len(C))
        beta[fresh] = score
    return float(beta[0]) if x_cand.ndim == 1 else beta


def add_measurement(model: GprModel, fold: FoldPoint, tangent: Tangent, meas, n_max: int,
                    ccfg: ContinuationConfig) -> tuple[GprModel, FoldPoint]:
    """The one way a realized (omega, A, F) sample enters the model during a run.

    Adds the sample, prunes back to n_max and re-corrects the fold with an
    h = 0 arclength constraint.  A sample that
    duplicates a training input leaves model and fold unchanged.  A re-correct
    that moves the fold more than MAX_REFRESH_MOVE length scales raises
    ContinuationError.
    """
    try:
        model = model.add_point((meas.omega, meas.A), meas.F)
    except DuplicatePoint:
        return model, fold
    model = prune(model, fold, n_max)
    refreshed = correct(model, fold, fold, tangent, 0.0, ccfg).point
    move = math.hypot((refreshed.omega - fold.omega) / model.hyper.l_omega,
                      (refreshed.A - fold.A) / model.hyper.l_A)
    if move > MAX_REFRESH_MOVE:
        raise ContinuationError(f"refresh moved the fold {move:.3g} length scales "
                                f"(limit {MAX_REFRESH_MOVE})")
    return model, refreshed


def improve_solution(model: GprModel, experiment, x_sol: FoldPoint, t_prev: Tangent,
                     cfg: AcquisitionConfig, ccfg: ContinuationConfig,
                     seed=0) -> ImproveResult:
    """Collect measurements until the fold solution is robust to new data.

    Each round scores a fresh candidate set with one `sensitivity_beta`
    call; if the largest beta exceeds beta_tol the winning candidate is
    measured through `experiment` and the realized sample enters the model
    through `add_measurement`.  Warns CollectionCap, and returns the result
    as it stands, if max_points_per_step rounds were not enough.
    """
    result = ImproveResult(model=model, fold=x_sol)
    for round_idx in range(cfg.max_points_per_step + 1):
        candidates = generate_candidates(result.fold, cfg, (seed, round_idx),
                                         hyper=result.model.hyper, domain_box=ccfg.domain_box)
        betas = sensitivity_beta(result.model, candidates, result.fold)
        beta_max = float(betas.max())
        result.beta_max_final = beta_max
        if beta_max < cfg.beta_tol:
            return result
        if round_idx == cfg.max_points_per_step:
            break
        omega_req, A_req = candidates[int(np.argmax(betas))].tolist()
        meas = experiment.measure(omega_req, A_req)
        result.collections.append(CollectionRecord(round_idx, omega_req, A_req, meas.omega,
                                                   meas.A, meas.F, beta_max))
        result.model, result.fold = add_measurement(result.model, result.fold, t_prev, meas,
                                                    cfg.n_max, ccfg)
    warnings.warn(CollectionCap(f"max beta {beta_max:.3g} still above tol {cfg.beta_tol:.3g} "
                                f"after {cfg.max_points_per_step} collections"), stacklevel=2)
    return result


def prune(model: GprModel, x_sol, n_max: int) -> GprModel:
    """Shrink the training set to n_max by dropping low-influence points.

    Influence of point i is the leave-one-out change of dGamma/dA at the
    current solution, in closed form; ties are broken by removing the point
    farthest from the solution.
    """
    while model.n > n_max:
        p = model.pass_at(x_sol)
        order = np.lexsort((-p.d2, np.abs(model.loo_shifts(p))))
        model = model.remove_point(int(order[0]))
    return model
