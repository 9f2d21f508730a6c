"""Pseudo-arclength tracing of the fold condition dGamma/dA = 0 on a GP surrogate.

The zero-problem is scalar, g(omega, A) = dGamma/dA, with the forcing
frequency as the free parameter.  A solution curve is followed with tangent
prediction and Newton correction against the pseudo-arclength constraint.
All arithmetic runs in normalized coordinates (omega / l_omega, A / l_A),
and residuals are additionally scaled by sqrt(sigma_f2) so the corrector
tolerance is dimensionless and portable between desk-scale and rig-scale
units.

Surrogates are unreliable outside the cloud of training data, so every
Newton iterate is kept inside it: steps are clipped to one length scale and
backtracked when they would exit the cloud (or the domain box).  A run that
cannot make progress that way fails with NoConvergence or LeftDataCloud.

The model's kernel pass, `GprModel.kernel_pass`, is the one evaluation of
the zero problem and of the cloud rule.  Each Newton iterate costs one
pass, which gives the cloud test, the scaled residual and Jacobian row,
and the model's force, so an accepted iterate's pass serves the next
Newton iteration and the converged point needs no further prediction.
`seed_scan` picks the start of a trace given none, for `find_first_fold`,
and scores each frequency column of its grid from one pass.

`advance` is the one stepper and the only step-size control: tangent,
prediction, domain-box check, correction and halving of the continuation
step until a step is accepted, and the growth rule that sets the next step.
`follow` is the one step loop around it: it counts accepted steps, carries
the tangent and `Step.h_next`, names the stop, and after each accepted step
hands the step, whose `CurvePoint` is the run-log row, to the caller's
`accept`.  The online driver (`trace`) passes an `accept` that measures and
refreshes the model; the offline traces (`offline`, `ensemble`) pass one
that only records the step's point.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContinuationError, DomainExit, LeftDataCloud, NoConvergence,
                     SingularJacobian, StepUnderflow)
from .geometry import DomainBox
from .gpr import GprModel, KernelPass

# A query point is "inside the data cloud" when at least CLOUD_MIN_POINTS
# training inputs lie within CLOUD_RADIUS length scales of it.
CLOUD_RADIUS = 2.0
CLOUD_MIN_POINTS = 3

_MAX_NEWTON_STEP = 1.0  # length scales per iteration
_MAX_BACKTRACKS = 8

# The floor of the step size h, in length scales, and the corrector's
# tolerance and iteration budget.  The tolerance bounds the dimensionless
# residuals, so one value serves desk-scale and rig-scale units.
H_MIN = 1e-3
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 20


class FoldPoint(NamedTuple):
    """Solution of the fold condition on the surrogate, with the model's force there.

    Its first two entries are its location, so it is an (omega, A) point
    wherever one is taken."""

    omega: float
    A: float
    gamma_model: float


@dataclass(frozen=True)
class Tangent:
    """Unit tangent to the fold curve in normalized (omega, A) coordinates."""

    t_omega: float
    t_A: float

    def __post_init__(self):
        nrm = math.hypot(self.t_omega, self.t_A)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"tangent norm {nrm} deviates from 1 by more than 1e-12")


@dataclass(frozen=True)
class CurvePoint:
    """An accepted point of a traced fold curve, online or offline: one run-log row.

    Tangent, h and Newton iterations are the step's (0 for the first fold);
    `gamma_measured` is the force an online run measured there, else None."""

    fold: FoldPoint
    tangent: Tangent
    h: float
    newton_iters: int
    gamma_measured: float | None = None


@dataclass(frozen=True)
class ContinuationConfig:
    """Step sizes, domain box and the step budget.

    `max_steps` counts accepted steps, online and offline alike; attempts
    rejected on the way to an accepted step do not use it up.
    """

    h: float = 0.1
    h_max: float = 0.5
    domain_box: DomainBox | None = None
    max_steps: int = 50

    def __post_init__(self):
        if not H_MIN <= self.h <= self.h_max:
            raise ValueError(f"need H_MIN ({H_MIN}) <= h <= h_max")
        if self.max_steps < 0:
            raise ValueError("max_steps >= 0 required")


# -- zero problem -----------------------------------------------------------

def _in_cloud(p: KernelPass):
    """The cloud rule on a pass: CLOUD_MIN_POINTS inputs lie within CLOUD_RADIUS.

    It counts the inputs with d^2 <= CLOUD_RADIUS^2, which is the same test
    as the CLOUD_MIN_POINTS-th smallest d^2 lying within it; a model with
    fewer inputs holds no point inside its cloud."""
    return (p.d2 <= CLOUD_RADIUS**2).sum(axis=-1) >= CLOUD_MIN_POINTS


def _fold_system(model: GprModel, p: KernelPass) -> tuple[float, tuple[float, float], float]:
    """Residual, Jacobian row and posterior mean force from the pass at one iterate.

    The residual is l_A dGamma/dA and the row its gradient in (u, v), both
    over sqrt(sigma_f2), so dimensionless.
    """
    w = model.mean_terms(p)
    s = math.sqrt(model.hyper.sigma_f2)
    return (float(-(p.dv @ w)) / s,
            (float((p.du * p.dv) @ w) / s, float((p.dv * p.dv - 1.0) @ w) / s),
            float(w.sum()))


def _admissible_pass(model: GprModel, u: float, v: float,
                     box: DomainBox | None) -> KernelPass | None:
    """The pass at (u, v), or None where it lies outside the domain box or the data cloud."""
    if box is not None and not box.contains(u * model.hyper.l_omega, v * model.hyper.l_A):
        return None
    p = model.kernel_pass(u, v)
    return p if _in_cloud(p) else None


def _damped_step(model, u, v, du, dv, box):
    """Clip the Newton step to one length scale, backtrack to stay admissible.

    Returns the new iterate and its pass."""
    nrm = math.hypot(du, dv)
    if not math.isfinite(nrm):
        raise NoConvergence("Newton step is not finite")
    if nrm > _MAX_NEWTON_STEP:
        du, dv = du / nrm * _MAX_NEWTON_STEP, dv / nrm * _MAX_NEWTON_STEP
    for _ in range(_MAX_BACKTRACKS):
        p = _admissible_pass(model, u + du, v + dv, box)
        if p is not None:
            return u + du, v + dv, p
        du, dv = 0.5 * du, 0.5 * dv
    raise LeftDataCloud("every damped iterate leaves the data cloud or domain box")


# -- operations -------------------------------------------------------------

def find_first_fold(model: GprModel, x0, cfg: ContinuationConfig) -> FoldPoint:
    """The fold at x0's omega: `correct` from x0 with tangent (1, 0) and h = 0.

    That arclength constraint freezes omega, so each Newton step moves A
    alone.  x0 must lie inside the data cloud; iterates are kept there and
    inside the domain box.
    """
    return correct(model, x0, x0, Tangent(1.0, 0.0), 0.0, cfg).point


def seed_scan(model: GprModel, box: DomainBox) -> tuple[float, float]:
    """The point of a 40 x 40 grid over `box` inside the data cloud with the smallest |dGamma/dA|.

    Each omega column is one kernel pass over its 40 amplitudes, which gives
    both the cloud test and the score |sum dv w| = l_A |dGamma/dA|.  Of
    equal scores the first in omega-major order wins.  Raises
    ContinuationError when no grid point lies inside the data cloud.
    """
    hyp = model.hyper
    omegas = np.linspace(box.omega_min, box.omega_max, 40)
    As = np.linspace(box.A_min, box.A_max, 40)
    v = (As / hyp.l_A)[:, None]
    score = np.empty((len(omegas), len(As)))
    for i, omega in enumerate(omegas):
        p = model.kernel_pass(omega / hyp.l_omega, v)
        w = model.mean_terms(p)
        score[i] = np.where(_in_cloud(p), np.abs(np.einsum("ij,ij->i", p.dv, w)), np.inf)
    k = int(np.argmin(score))
    if not score.flat[k] < np.inf:
        raise ContinuationError("no grid point lies inside the data cloud")
    i, j = divmod(k, len(As))
    return float(omegas[i]), float(As[j])


def tangent_from_jrow(jrow, prev: Tangent | None = None) -> Tangent:
    """Unit null vector of the 1x2 Jacobian row, oriented along `prev`.

    Without a previous tangent the branch direction of increasing omega is
    chosen (increasing A on a vertical tangent).
    """
    j_u, j_v = float(jrow[0]), float(jrow[1])
    nrm = math.hypot(j_u, j_v)
    if nrm < 1e-12:
        raise SingularJacobian("fold-curve tangent undefined: both Jacobian entries ~ 0")
    t_u, t_v = -j_v / nrm, j_u / nrm
    if prev is not None:
        if t_u * prev.t_omega + t_v * prev.t_A < 0.0:
            t_u, t_v = -t_u, -t_v
    elif t_u < 0.0 or (t_u == 0.0 and t_v < 0.0):
        t_u, t_v = -t_u, -t_v
    return Tangent(t_u, t_v)


def tangent_at(model: GprModel, x: FoldPoint, prev: Tangent | None = None) -> Tangent:
    """Tangent to the fold curve at an accepted solution, in normalized coords."""
    _, jrow, _ = _fold_system(model, model.pass_at(x))
    return tangent_from_jrow(jrow, prev)


def predict_step(x, t: Tangent, h: float, hyper) -> tuple[float, float]:
    """Euler predictor x + h t, taken in normalized coordinates."""
    return (x[0] + h * t.t_omega * hyper.l_omega,
            x[1] + h * t.t_A * hyper.l_A)


@dataclass(frozen=True)
class CorrectResult:
    point: FoldPoint
    iterations: int


def correct(model: GprModel, x_pred, x_prev, t_prev: Tangent, h: float,
            cfg: ContinuationConfig) -> CorrectResult:
    """Newton on [g = 0, pseudo-arclength = 0] from the predicted point.

    `x_prev` is the base solution the arclength constraint refers to; pass
    the current solution with h = 0 to re-solve in place after a model
    update.  Iterates stay inside the data cloud and the domain box.
    """
    hyp = model.hyper
    up, vp = x_prev[0] / hyp.l_omega, x_prev[1] / hyp.l_A
    u, v = x_pred[0] / hyp.l_omega, x_pred[1] / hyp.l_A
    p = _admissible_pass(model, u, v, cfg.domain_box)
    if p is None:
        raise LeftDataCloud("predicted point is outside the data cloud or domain box")

    for it in range(NEWTON_MAX_ITER + 1):
        r1, (j11, j12), gamma = _fold_system(model, p)
        r2 = t_prev.t_omega * (u - up) + t_prev.t_A * (v - vp) - h
        if max(abs(r1), abs(r2)) < NEWTON_TOL:
            return CorrectResult(FoldPoint(u * hyp.l_omega, v * hyp.l_A, gamma), it)
        det = j11 * t_prev.t_A - j12 * t_prev.t_omega
        scale = math.hypot(j11, j12)
        if abs(det) < 1e-12 * max(scale, 1e-30):
            raise SingularJacobian(
                "corrector Jacobian is singular (tangent parallel to the zero set); "
                "possible cusp or branch point")
        du = (-r1 * t_prev.t_A + r2 * j12) / det
        dv = (-r2 * j11 + r1 * t_prev.t_omega) / det
        u, v, p = _damped_step(model, u, v, du, dv, cfg.domain_box)
    raise NoConvergence(f"corrector did not reach tol={NEWTON_TOL} "
                        f"in {NEWTON_MAX_ITER} iterations")


# -- stepper ----------------------------------------------------------------

@dataclass(frozen=True)
class Step:
    """An accepted step: its curve point and the h to try next."""

    point: CurvePoint
    h_next: float


def advance(model: GprModel, fold: FoldPoint, prev: Tangent | None, h: float,
            cfg: ContinuationConfig) -> Step:
    """One accepted pseudo-arclength step from the accepted solution `fold`.

    The tangent at `fold` is oriented along `prev`.  A prediction outside the
    domain box, and a corrector that fails with NoConvergence or
    LeftDataCloud, halve h (floor H_MIN) and retry.  Raises StepUnderflow
    when h is already H_MIN, as DomainExit when that last attempt's
    prediction left the box, and SingularJacobian at a cusp; the model is
    never changed.

    The accepted step's point holds the corrected fold, the tangent at
    `fold`, the h it used and its Newton iterations.  Its h_next is the
    step-size rule's next h: grown by 1.2
    after at most 3 Newton iterations, capped by h_max and by one length
    scale (1.0 normalized), and otherwise kept, capped by h_max.
    """
    tangent = tangent_at(model, fold, prev)
    while True:
        x_pred = predict_step(fold, tangent, h, model.hyper)
        outside = cfg.domain_box is not None and not cfg.domain_box.contains(*x_pred)
        if not outside:
            try:
                result = correct(model, x_pred, fold, tangent, h, cfg)
            except (NoConvergence, LeftDataCloud):
                pass
            else:
                h_next = min(1.2 * h, cfg.h_max, 1.0) if result.iterations <= 3 \
                    else min(h, cfg.h_max)
                return Step(CurvePoint(result.point, tangent, h, result.iterations), h_next)
        if h <= H_MIN * (1.0 + 1e-12):
            if outside:
                raise DomainExit(f"predictions leave the domain box down to H_MIN={H_MIN}")
            raise StepUnderflow(f"step size would fall below H_MIN={H_MIN}")
        h = max(0.5 * h, H_MIN)


def follow(model: GprModel, fold: FoldPoint, tangent: Tangent, cfg: ContinuationConfig,
           accept: Callable[[GprModel, Step, int], tuple[GprModel, FoldPoint]]) -> str:
    """Up to cfg.max_steps accepted steps from `fold` along `tangent`; returns why they stopped.

    The first step tries h = cfg.h and is oriented along `tangent`; each
    later one starts from the previous step's `point.tangent` and `h_next`.
    After accepted step k (counting from 1), `accept(model, step, k)`
    returns the model and fold the next step starts from; an exception it
    raises reaches the caller unchanged.  The reason is `max_steps`, or the
    stop `advance` raised: `domain_exit`, `step_underflow` or
    `singular_jacobian: <message>`.
    """
    h = cfg.h
    for k in range(1, cfg.max_steps + 1):
        try:
            step = advance(model, fold, tangent, h, cfg)
        except DomainExit:
            return "domain_exit"
        except StepUnderflow:
            return "step_underflow"
        except SingularJacobian as e:
            return f"singular_jacobian: {e}"
        model, fold = accept(model, step, k)
        tangent, h = step.point.tangent, step.h_next
    return "max_steps"
