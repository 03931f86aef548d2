"""Argmin sets over polytopes, exposure draws, and the shrinking perturbation."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo import (
    ConvexBody,
    Functional,
    argmin_set,
    exposing_functional,
    semicontinuity_probe,
    shrink_argmin,
    uniqueness_fraction,
)
from torusgeo.errors import InputDomainError, PerturbationFailureError
from torusgeo.experiments import _argmin_bruteforce, random_body

SQUARE = ConvexBody([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


# -- argmin_set -----------------------------------------------------------------

def test_zero_functional_activates_everything():
    a = argmin_set(Functional.zero(2), SQUARE)
    assert a.value == 0.0
    assert len(a.active_indices) == 4
    assert a.diameter == pytest.approx(np.sqrt(2.0))


def test_generic_functional_unique_corner():
    a = argmin_set(Functional((1.0, 1.0)), SQUARE)
    assert a.value == 0.0
    assert a.active_indices == (0,)
    assert a.diameter == 0.0


def test_edge_aligned_functional():
    a = argmin_set(Functional((1.0, 0.0)), SQUARE)
    assert a.value == 0.0
    assert set(a.active_indices) == {0, 2}
    assert a.diameter == pytest.approx(1.0)


def test_positive_scaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        body = random_body(rng)
        f = Functional(rng.standard_normal(body.dimension))
        alpha = float(rng.uniform(0.1, 50.0))
        a1 = argmin_set(f, body)
        a2 = argmin_set(alpha * f, body)
        assert a1.active_indices == a2.active_indices
        assert a2.value == pytest.approx(alpha * a1.value, rel=1e-12, abs=1e-12)


def test_m_is_concave():
    rng = np.random.default_rng(1)
    for _ in range(50):
        body = random_body(rng)
        f1 = Functional(rng.standard_normal(body.dimension))
        f2 = Functional(rng.standard_normal(body.dimension))
        mid = argmin_set(0.5 * f1 + 0.5 * f2, body).value
        lo = 0.5 * argmin_set(f1, body).value + 0.5 * argmin_set(f2, body).value
        assert mid >= lo - 1e-12 * (1.0 + abs(mid))


def test_bruteforce_oracle_on_integer_polytopes():
    # exact comparisons at tolerance 0
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        body = ConvexBody(rng.integers(-3, 4, size=(int(rng.integers(3, 12)), n)).astype(float))
        f = Functional(rng.integers(-2, 3, size=n).astype(float))
        a = argmin_set(f, body, tol=0.0)
        m, active = _argmin_bruteforce(f, body, tol=0.0)
        assert a.value == m
        assert a.active_indices == active


# -- semicontinuity -------------------------------------------------------------

def test_probe_stable_unique_minimizer():
    scales = [2.0 ** (-k) for k in range(1, 15)]
    rep = semicontinuity_probe(Functional((1.0, 1.0)), SQUARE,
                               [Functional((0.3, -0.2))], scales)
    assert rep.tail_max_error <= scales[len(scales) // 2]
    assert rep.diameter_violations == 0
    assert rep.passed


def test_probe_strict_diameter_drop():
    # perturbing an edge-aligned functional exposes a single corner
    scales = [2.0 ** (-k) for k in range(1, 12)]
    rep = semicontinuity_probe(Functional((1.0, 0.0)), SQUARE,
                               [Functional((0.0, 1.0))], scales)
    assert rep.base_diameter == pytest.approx(1.0)
    assert all(d == 0.0 for d in rep.diameters)
    assert rep.diameter_violations == 0


def test_probe_rejects_bad_scales():
    with pytest.raises(InputDomainError):
        semicontinuity_probe(Functional((1.0, 0.0)), SQUARE,
                             [Functional((0.0, 1.0))], [0.5, 0.5])


def test_probe_random_bodies_no_violations():
    rng = np.random.default_rng(3)
    scales = [2.0 ** (-k) for k in range(1, 20)]
    for _ in range(20):
        body = random_body(rng)
        f = Functional(rng.standard_normal(body.dimension))
        p = Functional(rng.standard_normal(body.dimension))
        rep = semicontinuity_probe(f, body, [p], scales)
        assert rep.diameter_violations == 0


# -- exposing_functional ----------------------------------------------------------

def test_expose_unit_square():
    g = exposing_functional(SQUARE, eps=0.1, seed=0)
    assert argmin_set(g, SQUARE).diameter <= 0.1
    assert g.norm == pytest.approx(1.0)


def test_expose_single_point_body():
    pt = ConvexBody([(0.3, -0.7, 2.0)])
    g = exposing_functional(pt, eps=1e-9, seed=1)
    assert argmin_set(g, pt).diameter == 0.0


def test_expose_random_bodies_hits_single_vertex():
    rng = np.random.default_rng(4)
    for trial in range(50):
        body = random_body(rng)
        g = exposing_functional(body, eps=1e-6, seed=trial)
        # oracle: the drawn direction's argmin is exactly one vertex
        vals = g(body.vertices)
        assert (vals <= vals.min() + 1e-9 * (1 + abs(vals.min()))).sum() == 1


def test_expose_rejects_nonpositive_eps():
    with pytest.raises(InputDomainError):
        exposing_functional(SQUARE, eps=0.0)


# -- shrink_argmin -----------------------------------------------------------------

def test_shrink_zero_functional_on_square():
    res = shrink_argmin(Functional.zero(2), SQUARE, eps=1e-3, delta=1.0, seed=0)
    a = argmin_set(res.functional, SQUARE)
    assert len(a.active_indices) == 1
    assert res.diameter_after == 0.0
    # f = 0: m(f + t g) = t * min g over the argmin face, the equality case
    g = Functional(res.functional.coefficients / res.t)
    m0 = float(g(SQUARE.vertices).min())
    assert a.value == pytest.approx(res.t * m0, rel=1e-12)


def test_shrink_already_unique_first_try():
    f = Functional((1.0, 1.0))
    res = shrink_argmin(f, SQUARE, eps=1e-3, delta=0.5, seed=0)
    assert len(res.tested_t) == 1
    # delta / ||g||, trimmed: the computed ||g|| of the unit draw may round below 1
    assert res.t <= 0.5
    assert res.diameter_after == 0.0
    assert np.linalg.norm(res.functional.coefficients - f.coefficients) <= 0.5


def test_shrink_delta_below_tolerance_resolution():
    # t * g cannot separate (0, 0) from (0, 1) under the active-set tolerance
    f = Functional((1.0, 0.0))
    with pytest.raises(PerturbationFailureError, match="below what tol = 1e-09 can resolve"):
        shrink_argmin(f, SQUARE, eps=1e-3, delta=1e-10)
    res = shrink_argmin(f, SQUARE, eps=1e-3, delta=1e-8)
    assert res.t == 1.0000000000000002e-8
    assert res.diameter_after == 0.0


def test_shrink_degenerate_segment():
    seg = ConvexBody([(0.0, 0.0), (1.0, 0.0)])
    res = shrink_argmin(Functional((0.0, 1.0)), seg, eps=1e-6, delta=1.0, seed=2)
    assert res.diameter_before == pytest.approx(1.0)
    assert res.diameter_after == 0.0
    a = argmin_set(res.functional, seg)
    assert len(a.active_indices) == 1


def test_shrink_stays_in_neighborhood():
    # non-zero f is where rounding in f + t g can push the shift past delta
    rng = np.random.default_rng(5)
    for trial in range(30):
        body = random_body(rng)
        delta = 0.1
        for size in (0.0, 1.0, 1e3):
            f = Functional(size * rng.standard_normal(body.dimension))
            res = shrink_argmin(f, body, eps=1e-3 * body.diameter, delta=delta, seed=trial)
            shift = float(np.linalg.norm(res.functional.coefficients - f.coefficients))
            assert shift <= delta
            assert res.diameter_after <= 1e-3 * body.diameter


# -- uniqueness_fraction --------------------------------------------------------------

def test_uniqueness_fraction_square():
    frac = uniqueness_fraction(SQUARE, sample_count=10000, eps=1e-6, seed=0)
    assert frac >= 0.999


def test_uniqueness_fraction_degenerate_cases():
    pt = ConvexBody([(1.0, 2.0)])
    assert uniqueness_fraction(pt, 100, eps=1e-9, seed=1) == 1.0
    assert uniqueness_fraction(SQUARE, 100, eps=2.0, seed=2) == 1.0  # eps >= diam K


# -- serialization -----------------------------------------------------------------

def test_body_and_functional_csv_round_trip():
    body = ConvexBody([(0.5, -1.25), (2.0, 3.0)])
    back = ConvexBody.from_csv(body.to_csv())
    assert np.array_equal(back.vertices, body.vertices)
    f = Functional((0.25, -3.5))
    assert np.array_equal(Functional.from_csv("0.25,-3.5").coefficients, f.coefficients)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 1e3]),
       st.floats(1e-3, 1.0))
@settings(max_examples=30, deadline=None)
def test_shrink_internal_inequalities_hypothesis(seed, size, delta):
    # the two internal assertions raise on violation, so success is the test
    rng = np.random.default_rng(seed)
    body = random_body(rng)
    f = Functional(size * rng.standard_normal(body.dimension))
    res = shrink_argmin(f, body, eps=1e-3 * body.diameter, delta=delta, seed=seed)
    assert res.diameter_after <= 1e-3 * body.diameter
    assert np.linalg.norm(res.functional.coefficients - f.coefficients) <= delta
