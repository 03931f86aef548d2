"""Pushforward to grid measures, pairing, and the action-consistency bridge."""
import numpy as np
import pytest

from torusgeo import (
    ConformalFactor,
    ConformalMetric,
    DiscreteLoop,
    GridMeasure,
    action,
    action_consistency,
    euclidean,
    loop_measure,
    pairing,
    pushforward,
    separation_test,
)
from torusgeo.errors import InputDomainError, ResolutionMismatchError
from torusgeo.fourier import Fourier2D


def measure_of(loop, metric=None):
    metric = metric or euclidean()
    cap = float(np.linalg.norm(loop.velocities, axis=1).max()) * (1 + 1e-12)
    return loop_measure(metric, loop, cap)


# -- GridMeasure basics ----------------------------------------------------------

def test_grid_measure_validation():
    with pytest.raises(InputDomainError):
        GridMeasure(np.zeros((4, 5)))
    with pytest.raises(InputDomainError):
        GridMeasure(-np.ones((8, 8)))


def test_grid_measure_csv_round_trip():
    rng = np.random.default_rng(0)
    mu = GridMeasure(rng.random((8, 8)))
    back = GridMeasure.from_csv(mu.to_csv())
    assert np.array_equal(back.weights, mu.weights)
    assert back.total_mass == mu.total_mass


# -- pushforward -------------------------------------------------------------------

def test_mass_identity_exact():
    rng = np.random.default_rng(1)
    base = DiscreteLoop.straight((2, 1), 24)
    loop = DiscreteLoop(base.vertices + 0.05 * rng.standard_normal((24, 2)), (2, 1))
    mu = pushforward(euclidean(), measure_of(loop), 64)
    assert mu.total_mass == pytest.approx(action(euclidean(), loop), abs=1e-14)


def test_constant_speed_mass_is_length_squared():
    loop = DiscreteLoop.straight((3, 4), 32)
    mu = pushforward(euclidean(), measure_of(loop), 32)
    assert mu.total_mass == pytest.approx(25.0, abs=1e-10)


def test_horizontal_loop_mass_in_one_row():
    loop = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.3))
    mu = pushforward(euclidean(), measure_of(loop), 16)
    row = int(0.3 * 16)
    assert mu.weights[:, row].sum() == pytest.approx(mu.total_mass)


def test_low_resolution_rejected():
    loop = DiscreteLoop.straight((1, 0), 16)
    with pytest.raises(InputDomainError):
        pushforward(euclidean(), measure_of(loop), 4)


def test_pushforward_linearity():
    # convex combination formed samplewise equals combination of pushforwards
    from torusgeo.loops import LoopMeasure
    l1 = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.2))
    l2 = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.7))
    m1, m2 = measure_of(l1), measure_of(l2)
    mix = LoopMeasure(points=np.vstack([m1.points, m2.points]),
                      velocities=np.vstack([m1.velocities, m2.velocities]),
                      speed_cap=max(m1.speed_cap, m2.speed_cap))
    res = 16
    combined = pushforward(euclidean(), mix, res).weights
    halves = 0.5 * (pushforward(euclidean(), m1, res).weights
                    + pushforward(euclidean(), m2, res).weights)
    assert np.allclose(combined, halves, atol=1e-15)


# -- pairing -----------------------------------------------------------------------

def test_pairing_with_one_is_total_mass():
    loop = DiscreteLoop.straight((1, 1), 16)
    mu = pushforward(euclidean(), measure_of(loop), 32)
    assert pairing(ConformalFactor.constant(1.0), mu) == pytest.approx(mu.total_mass)


def test_pairing_bilinear():
    rng = np.random.default_rng(2)
    mu = GridMeasure(rng.random((16, 16)))
    f1 = ConformalFactor(Fourier2D(1.0, {(1, 0): (0.2, 0.0)}))
    f2 = ConformalFactor(Fourier2D(1.5, {(0, 1): (0.0, 0.3)}))
    a, b = 2.0, -0.5
    combo = ConformalFactor(a * f1.series + b * f2.series, require_positive=False)
    lhs = pairing(combo, mu)
    rhs = a * pairing(f1, mu) + b * pairing(f2, mu)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pairing_monotone():
    rng = np.random.default_rng(3)
    mu = GridMeasure(rng.random((16, 16)))
    lo = ConformalFactor.constant(1.0)
    hi = ConformalFactor(Fourier2D(1.5, {(1, 0): (0.4, 0.0)}))
    assert pairing(lo, mu) <= pairing(hi, mu)


def test_bump_off_support_pairs_to_zero():
    # all mass sits in one cell row; a bump vanishing on that row's centers
    # (peaked half a torus away) pairs to zero
    res = 16
    loop = DiscreteLoop.straight((1, 0), res, offset=(0.0, 0.1))
    mu = pushforward(euclidean(), measure_of(loop), res)
    c = (int(0.1 * res) + 0.5) / res
    bump = ConformalFactor(Fourier2D(0.5, {(0, 1): (-0.5 * np.cos(2 * np.pi * c),
                                                    -0.5 * np.sin(2 * np.pi * c))}),
                           require_positive=False)
    # bump(y) = 0.5 * (1 - cos(2 pi (y - c)))
    assert float(bump.series(np.array([0.0, c]))) == pytest.approx(0.0, abs=1e-15)
    assert pairing(bump, mu) == pytest.approx(0.0, abs=1e-12)


def test_pairing_matches_per_cell_point_evaluation():
    # |rounding of each cell value| <= 4 eps (1 + 2 pi max|k|_1) (|c0| + sum(|a| + |b|))
    rng = np.random.default_rng(5)
    series = Fourier2D(1.0, {(3, -2): (0.1, 0.05), (0, 4): (-0.1, 0.2), (5, 0): (0.03, 0.0)})
    factor = ConformalFactor(series)
    k1, size = 5, 1.0 + 0.15 + 0.3 + 0.03
    for res in (8, 24, 64):
        mu = GridMeasure(rng.random((res, res)))
        t = (np.arange(res) + 0.5) / res
        centres = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
        ref = float((factor(centres) * mu.weights).sum())
        tol = 4.0 * np.finfo(float).eps * (1.0 + 2.0 * np.pi * k1) * size * mu.total_mass
        assert abs(pairing(factor, mu) - ref) <= tol


# -- action consistency ----------------------------------------------------------------

def test_consistency_exact_for_constants():
    rng = np.random.default_rng(4)
    base = DiscreteLoop.straight((1, 1), 20)
    loop = DiscreteLoop(base.vertices + 0.03 * rng.standard_normal((20, 2)), (1, 1))
    assert action_consistency(euclidean(), ConformalFactor.constant(1.0), loop) \
        == pytest.approx(0.0, abs=1e-13)
    assert action_consistency(euclidean(), ConformalFactor.constant(2.5), loop) \
        == pytest.approx(0.0, abs=1e-12)


def test_consistency_within_lipschitz_bound():
    rng = np.random.default_rng(5)
    factor = ConformalFactor(Fourier2D(1.2, {(1, 0): (0.15, 0.0), (0, 1): (0.0, 0.1)}))
    for _ in range(5):
        base = DiscreteLoop.straight((1, 0), 32)
        loop = DiscreteLoop(base.vertices + 0.02 * rng.standard_normal((32, 2)), (1, 0))
        gap = action_consistency(euclidean(), factor, loop, resolution=256)
        lip = factor.series.sup_gradient_norm(512)
        bound = lip * (np.sqrt(2.0) / 256) * action(euclidean(), loop)
        assert gap <= bound


# -- separation test ---------------------------------------------------------------------

def test_measure_equals_itself():
    loop = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.2))
    mu = pushforward(euclidean(), measure_of(loop), 16)
    v = separation_test(mu, mu, tol=1e-12)
    assert v.equal and v.witness is None


def test_disjoint_rows_distinguished():
    l1 = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.2))
    l2 = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.7))
    m1 = pushforward(euclidean(), measure_of(l1), 16)
    m2 = pushforward(euclidean(), measure_of(l2), 16)
    v = separation_test(m1, m2, tol=1e-9)
    assert not v.equal
    assert v.witness[1] in (int(0.2 * 16), int(0.7 * 16))


def test_reparametrization_does_not_separate():
    loop = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.4))
    from torusgeo import reparametrize_constant_speed
    flat = reparametrize_constant_speed(euclidean(), loop)
    m1 = pushforward(euclidean(), measure_of(loop), 16)
    m2 = pushforward(euclidean(), measure_of(flat), 16)
    assert separation_test(m1, m2, tol=1e-9).equal


def test_resolution_mismatch_rejected():
    with pytest.raises(ResolutionMismatchError):
        separation_test(GridMeasure(np.zeros((8, 8))), GridMeasure(np.zeros((16, 16))),
                        tol=1e-9)


# -- minimizer transfer ---------------------------------------------------------------

def test_minimizer_transfer_inequality():
    # the pool loop minimizing the rescaled action also minimizes the pairing
    from torusgeo.experiments import height_bump
    factor = height_bump(0.3)
    scaled = ConformalMetric(euclidean(), factor)
    pool = [DiscreteLoop.straight((1, 0), 64, offset=(0.0, y))
            for y in (0.25, 0.1, 0.5, 0.8)]
    actions = [action(scaled, c) for c in pool]
    best = int(np.argmin(actions))
    paired = [pairing(factor, pushforward(euclidean(), measure_of(c), 256))
              for c in pool]
    assert all(paired[best] <= p + 1e-9 for p in paired)
