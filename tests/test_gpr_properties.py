"""Property tests for the regression layer and the scores read off it.

Random inputs are drawn on coarse lattices so covariance conditioning stays
bounded; the contracts under test (interpolation, variance bounds, update
equivalence, permutation equivariance, closed-form beta, single and
batched, prune against their explicit-update references, and the fit's
likelihood against `log_marginal`) are exactly the ones other modules rely on.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TINY_NOISE, duffing_grid_dataset
from reference_oracles import (add_point_beta, cs_mean_derivs, downdate_influences,
                               first_duplicate)

from foldtrack import csvio
from foldtrack.acquisition import prune, sensitivity_beta
from foldtrack.errors import DuplicatePoint, FactorizationFailure
from foldtrack.gpr import (DUPLICATE_TOL, Dataset, Hyperparameters, _LogMarginal, build,
                           log_marginal)

HYPER = Hyperparameters(sigma_n2=TINY_NOISE, sigma_f2=1.0, l_omega=0.6, l_A=1.0)

lattice_points = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), unique=True, min_size=1, max_size=8)
outputs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _dataset(points, values) -> Dataset:
    X = np.array([[0.3 * i, 0.5 * j] for i, j in points], dtype=float)
    return Dataset(X, np.array(values[:len(points)], dtype=float))


@settings(max_examples=40, deadline=None)
@given(points=lattice_points, values=st.lists(outputs, min_size=8, max_size=8))
def test_interpolation_noise_free(points, values):
    ds = _dataset(points, values)
    model = build(ds, HYPER)
    scale = max(np.abs(ds.F).max(), 1.0)
    for x, f in zip(ds.X, ds.F):
        assert abs(model.predict_mean(tuple(x)) - f) < 1e-7 * scale


@settings(max_examples=40, deadline=None)
@given(points=lattice_points, values=st.lists(outputs, min_size=8, max_size=8),
       qx=st.floats(-1.0, 4.0), qy=st.floats(-1.0, 6.0))
def test_variance_bounds(points, values, qx, qy):
    model = build(_dataset(points, values), HYPER)
    v = model.predict_var((qx, qy))
    assert 0.0 <= v <= HYPER.sigma_f2 + 1e-10


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       unique=True, min_size=5, max_size=30),
       values=st.lists(outputs, min_size=30, max_size=30),
       z=st.tuples(st.floats(-12.0, 0.0), st.floats(-3.0, 2.0), st.floats(-2.0, 1.0),
                   st.floats(-2.0, 1.0)))
def test_fit_likelihood_equals_log_marginal(points, values, z):
    # the value a fit maximizes is the public log marginal likelihood
    ds = _dataset(points, values)
    z = np.array(z)
    try:
        expected = log_marginal(ds, Hyperparameters.from_array(np.exp(z)))
    except FactorizationFailure:
        with pytest.raises(FactorizationFailure):
            _LogMarginal(ds)(z)
        return
    value, grad = _LogMarginal(ds)(z)
    assert value == pytest.approx(expected, rel=1e-12)
    assert np.all(np.isfinite(grad))


@settings(max_examples=30, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       unique=True, min_size=2, max_size=8),
       values=st.lists(outputs, min_size=8, max_size=8),
       seed=st.integers(0, 2**16))
def test_permutation_equivariance(points, values, seed):
    ds = _dataset(points, values)
    perm = np.random.default_rng(seed).permutation(ds.n)
    shuffled = Dataset(ds.X[perm], ds.F[perm])
    m1, m2 = build(ds, HYPER), build(shuffled, HYPER)
    for x in [(0.7, 1.3), (2.0, 3.5), (-0.5, 0.0)]:
        assert m1.predict_mean(x) == pytest.approx(m2.predict_mean(x), abs=1e-10)
        assert m1.predict_var(x) == pytest.approx(m2.predict_var(x), abs=1e-10)


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 99),
              st.integers(0, 99), outputs),
    max_size=50)


@settings(max_examples=30, deadline=None)
@given(ops=ops_strategy)
def test_update_equivalence_interleaved(ops):
    """Any interleaving of adds/removes equals a fresh factorization.

    Every dataset reached that way also passes the constructor's all-pairs
    duplicate check, although the updates themselves never run it.
    """
    model = build(Dataset(np.array([[0.0, 0.0], [0.9, 1.5]]), np.array([1.0, -2.0])), HYPER)
    for kind, a, b, value in ops:
        if kind == "add":
            x = (0.17 * (a % 25), 0.23 * (b % 25))
            try:
                model = model.add_point(x, value)
            except DuplicatePoint:
                pass
        elif model.n > 1:
            model = model.remove_point(a % model.n)
    fresh = build(Dataset(model.dataset.X, model.dataset.F), HYPER)
    assert np.allclose(model.alpha, fresh.alpha, rtol=1e-8, atol=1e-10)
    assert np.allclose(model.chol, fresh.chol, rtol=1e-8, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       unique=True, min_size=3, max_size=8),
       values=st.lists(outputs, min_size=8, max_size=8),
       sigma_n2=st.sampled_from([TINY_NOISE, 1e-4, 1e-2]),
       cand=st.tuples(st.integers(-5, 32), st.integers(-5, 50)),
       sol=st.tuples(st.floats(0.0, 2.7), st.floats(0.0, 4.5)), dup=st.integers(0, 7))
def test_beta_matches_add_point_reference(points, values, sigma_n2, cand, sol, dup):
    """Closed-form beta is >= 0, equals the add-point beta, and is 0 on a duplicate.

    Candidates sit on a lattice offset from the training inputs: within a
    tiny distance of one, both betas are round-off.
    """
    model = build(_dataset(points, values), Hyperparameters(sigma_n2, 1.0, 0.6, 1.0))
    cand = (0.05 + 0.1 * cand[0], 0.05 + 0.1 * cand[1])
    beta = sensitivity_beta(model, cand, sol)
    assert beta >= 0.0
    assert beta == pytest.approx(add_point_beta(model, cand, sol), rel=1e-8, abs=1e-12)
    assert sensitivity_beta(model, tuple(model.dataset.X[dup % model.n]), sol) == 0.0


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       unique=True, min_size=0, max_size=8),
       values=st.lists(outputs, min_size=8, max_size=8),
       sigma_n2=st.sampled_from([TINY_NOISE, 1e-4, 1e-2]),
       cands=st.lists(st.tuples(st.integers(-5, 32), st.integers(-5, 50)),
                      min_size=2, max_size=12),
       sol=st.tuples(st.floats(0.0, 2.7), st.floats(0.0, 4.5)),
       dup=st.integers(0, 7), at=st.integers(0, 10))
@example(points=[], values=[0.0] * 8, sigma_n2=TINY_NOISE, cands=[(3, 4), (20, 30)],
         sol=(1.0, 2.0), dup=0, at=0)
def test_batched_beta_matches_add_point_reference(points, values, sigma_n2, cands, sol,
                                                  dup, at):
    """One batched call scores every candidate as the add-point reference does.

    A training input placed strictly inside the batch scores exactly 0, and
    the argmax is the reference's wherever the two largest are not a near tie.
    The model may be empty.
    """
    model = build(_dataset(points, values), Hyperparameters(sigma_n2, 1.0, 0.6, 1.0))
    C = [(0.05 + 0.1 * i, 0.05 + 0.1 * j) for i, j in cands]
    mid = 1 + at % (len(C) - 1)
    if model.n:
        C.insert(mid, tuple(model.dataset.X[dup % model.n]))
    betas = sensitivity_beta(model, np.array(C), sol)
    ref = np.array([add_point_beta(model, c, sol) for c in C])
    assert betas.shape == (len(C),)
    assert betas == pytest.approx(ref, rel=1e-8, abs=1e-12)
    if model.n:
        assert betas[mid] == 0.0
    second, first = np.sort(ref)[-2:]
    if first - second > 1e-6 * first + 1e-10:
        assert np.argmax(betas) == np.argmax(ref)


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       unique=True, min_size=3, max_size=8),
       values=st.lists(outputs, min_size=8, max_size=8),
       sigma_n2=st.sampled_from([TINY_NOISE, 1e-4, 1e-2]),
       sol=st.tuples(st.floats(0.0, 2.7), st.floats(0.0, 4.5)))
def test_prune_drops_the_downdate_reference_index(points, values, sigma_n2, sol):
    model = build(_dataset(points, values), Hyperparameters(sigma_n2, 1.0, 0.6, 1.0))
    influences = downdate_influences(model, sol)
    assert np.abs(model.loo_shifts(model.pass_at(sol))) == pytest.approx(influences, rel=1e-6,
                                                                          abs=1e-10)
    dist = np.hypot((model.dataset.X[:, 0] - sol[0]) / model.hyper.l_omega,
                    (model.dataset.X[:, 1] - sol[1]) / model.hyper.l_A)
    first, second = np.sort(influences)[:2]
    # a tie within the reference's round-off may fall either way
    assume(second - first > 1e-6 * influences.max() + 1e-10)
    expected = model.remove_point(int(np.lexsort((-dist, influences))[0]))
    assert np.array_equal(prune(model, sol, model.n - 1).dataset.X, expected.dataset.X)


def test_updates_skip_the_all_pairs_check(monkeypatch):
    model = build(_dataset([(0, 0), (3, 4), (9, 9)], [1.0, 2.0, 3.0]), HYPER)

    def all_pairs(self):
        raise AssertionError("all-pairs duplicate check ran on an update")

    monkeypatch.setattr(Dataset, "_check_duplicates", all_pairs)
    model = model.add_point((1.2, 0.5), 0.5)
    model = model.remove_point(1)
    assert model.n == 3


def test_append_near_duplicate_raises():
    ds = _dataset([(0, 0), (3, 4), (9, 9)], [1.0, 2.0, 3.0])
    spread = np.ptp(ds.X, axis=0)
    with pytest.raises(DuplicatePoint):
        ds.append(ds.X[1] + 0.5 * DUPLICATE_TOL * spread, 0.0)
    assert ds.append(ds.X[1] + 2.0 * DUPLICATE_TOL * spread, 0.0).n == 4
    with pytest.raises(DuplicatePoint):
        build(ds, HYPER).add_point(tuple(ds.X[2] - 0.5 * DUPLICATE_TOL * spread), 0.0)


def test_duplicate_point_is_a_value_error():
    assert issubclass(DuplicatePoint, ValueError)
    with pytest.raises(DuplicatePoint):
        Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), np.zeros(3))


def test_appended_dataset_round_trips_through_csv(tmp_path):
    # 5e-10 apart is no duplicate under the spread of the first two inputs,
    # but would be under the spread the third input gives the whole set
    ds = Dataset.empty().append((0.0, 0.0), 1.0).append((5e-10, 0.0), 1.0) \
        .append((1.0, 1.0), 2.0)
    csvio.write_dataset_csv(tmp_path / "dataset.csv", ds)
    back = csvio.read_dataset_csv(tmp_path / "dataset.csv")
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.F, ds.F)


# A probe is a drawn row plus an offset in units of the dataset's spread times
# DUPLICATE_TOL (0: an exact copy; around 1: the tolerance's edge), times
# (1 + 1e-10) for a near copy, or a fresh point.
probe_strategy = st.one_of(
    st.tuples(st.just("offset"), st.integers(0, 20),
              st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]), st.sampled_from([0, 1])),
    st.tuples(st.just("near"), st.integers(0, 20), st.just(0.0), st.just(0)),
    st.tuples(st.just("fresh"), st.integers(-40, 40), st.integers(-40, 40), st.just(0)))
# down to 1e-300 in magnitude, so the constructor's running spreads of the
# first rows can be far below later rows' offsets
coordinate = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) > 1e-300)
row_strategy = st.lists(st.tuples(coordinate, coordinate), max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=row_strategy, flat=st.sampled_from([None, 0, 1]),
       probes=st.lists(probe_strategy, min_size=1, max_size=10))
@example(rows=[], flat=None, probes=[("fresh", 1, 2, 0), ("offset", 0, 0.0, 0)])
@example(rows=[(1.0, 2.0)], flat=None, probes=[("offset", 0, 0.0, 0), ("near", 0, 0.0, 0),
                                               ("fresh", 3, -1, 0)])
@example(rows=[(1.0, 2.0), (1.5, 2.0), (3.0, 2.0)], flat=1,
         probes=[("near", 1, 0.0, 0), ("offset", 2, 0.999, 0), ("offset", 2, 1.001, 0)])
def test_duplicate_rule_matches_the_brute_force_reference(rows, flat, probes):
    """`duplicate_of`, `append` and the constructor apply one rule.

    The reference recomputes the spreads of X and the probe for every probe.
    Rows are appended in order, each refused exactly when the reference finds
    it a duplicate; `flat` gives one column a zero spread.
    """
    if flat is not None:
        rows = [(r[0], 0.75) if flat else (0.75, r[1]) for r in rows]
    ds = Dataset.empty()
    for omega, A in rows:
        if first_duplicate(ds.X, (omega, A)) < 0:
            ds = ds.append((omega, A), 1.0)
    assert np.array_equal(Dataset(ds.X, ds.F).X, ds.X)  # the constructor's check passes
    spread = np.ptp(ds.X, axis=0) if ds.n else np.ones(2)
    unit = DUPLICATE_TOL * np.where(spread > 0.0, spread, 1.0)
    C = []
    for kind, a, b, sign in probes:
        if kind == "fresh" or ds.n == 0:
            C.append((0.137 * a, 0.113 * b))
        elif kind == "near":
            C.append(tuple(ds.X[a % ds.n] * (1.0 + 1e-10)))
        else:
            C.append(tuple(ds.X[a % ds.n] + (b if sign else -b) * unit))
    expected = [first_duplicate(ds.X, c) for c in C]
    assert ds.duplicate_of(np.array(C)).tolist() == expected
    assert [int(ds.duplicate_of(c)[0]) for c in C] == expected
    grown = ds
    for c, first in zip(C, expected):
        if first >= 0:
            with pytest.raises(DuplicatePoint):
                ds.append(c, 0.5)
        else:
            assert ds.append(c, 0.5).X[-1].tolist() == list(c)
        if first_duplicate(grown.X, c) < 0:
            grown = grown.append(c, 0.5)
        else:
            with pytest.raises(DuplicatePoint):
                grown.append(c, 0.5)
    rebuilt = Dataset(grown.X, grown.F)  # raises DuplicatePoint if the rule was broken
    assert np.array_equal(rebuilt.X, grown.X) and np.array_equal(rebuilt.F, grown.F)


def test_derivative_consistency_100_cases(duffing_params):
    """Analytic derivatives vs the complex-step oracle on random cases."""
    rng = np.random.default_rng(2024)
    centers = [(1.10, 1.41), (1.15, 1.8), (1.08, 1.1)]
    checked = 0
    while checked < 100:
        center = centers[checked % len(centers)]
        ds = duffing_grid_dataset(duffing_params, center=center,
                                  half=(0.05, 0.45), shape=(4, 4))
        hyper = Hyperparameters(TINY_NOISE, 0.04,
                                float(rng.uniform(0.04, 0.07)),
                                float(rng.uniform(0.4, 0.6)))
        model = build(ds, hyper)
        for _ in range(5):
            x = (center[0] + rng.uniform(-0.04, 0.04),
                 center[1] + rng.uniform(-0.35, 0.35))
            got = model.predict_mean_derivs(x)
            _, ref = cs_mean_derivs(ds.X, model.alpha, hyper.sigma_f2,
                                    hyper.l_omega, hyper.l_A, x,
                                    1e-5 * hyper.l_omega, 1e-5 * hyper.l_A)
            for g, r in zip(got, ref):
                assert g == pytest.approx(r, rel=1e-5, abs=1e-8)
            checked += 1
