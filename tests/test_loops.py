"""Discrete loops: winding, length, action, the speed-variance gap, measures."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo import (
    ConformalFactor,
    ConformalMetric,
    DiscreteLoop,
    Fourier2D,
    RandersMetric,
    action,
    cs_gap,
    euclidean,
    length,
    loop_measure,
    reparametrize_constant_speed,
)
from torusgeo.errors import (
    DegenerateLoopError,
    MalformedLoopError,
    SpeedCapError,
    TrivialClassError,
)
from torusgeo.loops import require_nontrivial, segment_lengths


def two_speed_loop():
    """Half the parameter at Euclidean speed 1, half at speed 3; winding (2, 0)."""
    deltas = np.array([0.125] * 4 + [0.375] * 4)
    xs = np.concatenate([[0.0], np.cumsum(deltas)[:-1]])
    verts = np.stack([xs, np.zeros(8)], axis=-1)
    return DiscreteLoop(verts, (2, 0))


# -- construction and winding -------------------------------------------------

def test_straight_lift_winding():
    loop = DiscreteLoop.straight((1, 0), 8)
    assert loop.winding == (1, 0)


def test_open_lift_winding_from_offset():
    pts = np.array([(0.3, 0.7)]) + np.arange(9)[:, None] / 8.0 * np.array([2.0, 1.0])
    loop = DiscreteLoop.from_open_lift(pts)
    assert loop.winding == (2, 1)


def test_constant_loop_is_trivial_and_rejected_downstream():
    loop = DiscreteLoop(np.full((8, 2), 0.4), (0, 0))
    assert loop.winding == (0, 0)
    with pytest.raises(TrivialClassError):
        require_nontrivial(loop.winding)


def test_nonclosing_lift_rejected():
    pts = np.zeros((9, 2))
    pts[-1] = (0.5, 0.0)
    with pytest.raises(MalformedLoopError):
        DiscreteLoop.from_open_lift(pts)


def test_too_few_vertices_rejected():
    with pytest.raises(MalformedLoopError):
        DiscreteLoop(np.zeros((4, 2)), (1, 0))


def test_nonfinite_vertices_rejected():
    v = np.zeros((8, 2))
    v[3, 1] = np.nan
    with pytest.raises(MalformedLoopError):
        DiscreteLoop(v, (1, 0))


def test_csv_round_trip():
    rng = np.random.default_rng(0)
    loop = DiscreteLoop(rng.random((12, 2)), (1, -2))
    back = DiscreteLoop.from_csv(loop.to_csv())
    assert back.winding == loop.winding
    assert np.array_equal(back.vertices, loop.vertices)


def test_reversed_negates_winding():
    loop = DiscreteLoop.straight((2, 1), 10, offset=(0.1, 0.2))
    rev = loop.reversed()
    assert rev.winding == (-2, -1)
    assert length(euclidean(), rev) == pytest.approx(length(euclidean(), loop))


def test_closed_lift_cached_and_read_only():
    loop = DiscreteLoop(np.random.default_rng(1).random((10, 2)), (2, -1))
    c = loop.closed_lift
    assert c is loop.closed_lift
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0, 0] = 1.0
    assert np.array_equal(c, np.vstack([loop.vertices, loop.vertices[0] + np.array([2.0, -1.0])]))


def test_midpoints_deltas_velocities_equal_formulas():
    loop = DiscreteLoop(np.random.default_rng(2).random((12, 2)) * 3.0 - 1.0, (-1, 3))
    v = loop.vertices
    c = np.vstack([v, v[0] + np.array([-1.0, 3.0])])
    assert np.array_equal(loop.deltas, c[1:] - c[:-1])
    assert np.array_equal(loop.midpoints, 0.5 * (c[:-1] + c[1:]))
    assert np.array_equal(loop.velocities, 12 * (c[1:] - c[:-1]))


# -- length -------------------------------------------------------------------

def test_straight_lengths():
    assert length(euclidean(), DiscreteLoop.straight((1, 0), 8)) == pytest.approx(1.0)
    assert length(euclidean(), DiscreteLoop.straight((3, 4), 16)) == pytest.approx(5.0)


def test_randers_length_telescopes_and_flips():
    m = RandersMetric(euclidean(), (0.5, 0.0))
    loop = DiscreteLoop.straight((1, 0), 8)
    assert length(m, loop) == pytest.approx(1.5)
    assert length(m, loop.reversed()) == pytest.approx(0.5)


def test_length_cyclic_shift_invariant():
    rng = np.random.default_rng(1)
    loop = DiscreteLoop(DiscreteLoop.straight((1, 1), 16).vertices
                        + 0.02 * rng.standard_normal((16, 2)), (1, 1))
    m = RandersMetric(euclidean(), (0.3, 0.1))
    base_l, base_a = length(m, loop), action(m, loop)
    for k in (1, 5, 15):
        shifted = loop.cyclic_shift(k)
        assert length(m, shifted) == pytest.approx(base_l, abs=1e-12)
        assert action(m, shifted) == pytest.approx(base_a, abs=1e-12)


def test_constant_conformal_scales_length_exactly():
    kappa = 2.25
    m = ConformalMetric(euclidean(), ConformalFactor.constant(kappa))
    rng = np.random.default_rng(2)
    loop = DiscreteLoop(DiscreteLoop.straight((2, 1), 12).vertices
                        + 0.05 * rng.standard_normal((12, 2)), (2, 1))
    assert length(m, loop) == pytest.approx(
        np.sqrt(kappa) * length(euclidean(), loop), abs=1e-12)


# -- action and the Cauchy-Schwarz gap ------------------------------------------

def test_action_of_straight_loop_exact():
    for n in (8, 13, 64):
        assert action(euclidean(), DiscreteLoop.straight((1, 0), n)) == pytest.approx(1.0, abs=1e-12)


def test_constant_speed_action_is_length_squared():
    loop = DiscreteLoop.straight((3, 4), 32)
    assert action(euclidean(), loop) == pytest.approx(25.0, abs=1e-10)
    assert cs_gap(euclidean(), loop) == pytest.approx(0.0, abs=1e-12)


def test_two_speed_loop_action_length_gap():
    loop = two_speed_loop()
    assert length(euclidean(), loop) == pytest.approx(2.0)
    assert action(euclidean(), loop) == pytest.approx(5.0)
    assert cs_gap(euclidean(), loop) == pytest.approx(1.0)


def test_gap_nonnegative_bulk():
    from torusgeo.experiments import random_loop, random_metric
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = random_metric(rng)
        loop = random_loop(rng)
        assert cs_gap(m, loop) >= -1e-9


# -- reparametrization -----------------------------------------------------------

def test_reparametrize_idempotent_on_constant_speed():
    loop = DiscreteLoop.straight((1, 0), 16, offset=(0.2, 0.6))
    out = reparametrize_constant_speed(euclidean(), loop)
    assert np.abs(out.vertices - loop.vertices).max() <= 1e-9


def test_reparametrize_two_speed_loop():
    loop = two_speed_loop()
    out = reparametrize_constant_speed(euclidean(), loop)
    assert out.winding == (2, 0)
    a = action(euclidean(), out)
    assert cs_gap(euclidean(), out) <= 1e-6 * a
    # the chain is straight, so resampling preserves the length exactly
    assert length(euclidean(), out) == pytest.approx(2.0, abs=1e-9)


def test_reparametrize_preserves_winding_and_stays_on_chain():
    rng = np.random.default_rng(4)
    base = DiscreteLoop.straight((1, 2), 24)
    loop = DiscreteLoop(base.vertices + 0.02 * rng.standard_normal((24, 2)), (1, 2))
    m = RandersMetric(euclidean(), (0.3, 0.0))
    out = reparametrize_constant_speed(m, loop)
    assert out.winding == loop.winding
    # every output vertex lies on some input segment
    closed = loop.closed_lift
    for v in out.vertices:
        d = closed[1:] - closed[:-1]
        t = ((v - closed[:-1]) * d).sum(axis=1) / (d ** 2).sum(axis=1)
        t = np.clip(t, 0.0, 1.0)
        dist = np.linalg.norm(closed[:-1] + t[:, None] * d - v, axis=1)
        assert dist.min() <= 1e-9


def test_reparametrize_double_application_stable():
    rng = np.random.default_rng(5)
    base = DiscreteLoop.straight((1, 0), 16)
    loop = DiscreteLoop(base.vertices + 0.01 * rng.standard_normal((16, 2)), (1, 0))
    once = reparametrize_constant_speed(euclidean(), loop)
    twice = reparametrize_constant_speed(euclidean(), once)
    assert np.abs(twice.vertices - once.vertices).max() <= 1e-9


def test_reparametrize_rejects_degenerate_loop():
    loop = DiscreteLoop(np.full((8, 2), 0.3), (0, 0))
    with pytest.raises(DegenerateLoopError):
        reparametrize_constant_speed(euclidean(), loop)


def test_reparametrize_equalizes_speeds():
    rng = np.random.default_rng(6)
    base = DiscreteLoop.straight((2, -1), 20)
    loop = DiscreteLoop(base.vertices + 0.03 * rng.standard_normal((20, 2)), (2, -1))
    out = reparametrize_constant_speed(euclidean(), loop)
    ell = segment_lengths(euclidean(), out)
    assert ell.std() / ell.mean() <= 1e-3


def test_reparametrize_builds_only_the_returned_loop(monkeypatch):
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(13)  # some of these loops need Newton steps
    loops = [random_loop(rng) for _ in range(8)]
    bump = ConformalFactor(Fourier2D(1.0, {(1, 0): (0.2, 0.0), (0, 1): (0.0, 0.15)}))
    metrics = [euclidean(), RandersMetric(euclidean(), (0.3, 0.1)),
               ConformalMetric(euclidean(), bump)]
    built = []
    real_init = DiscreteLoop.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteLoop, "__init__", counted_init)
    for loop in loops:
        for metric in metrics:
            before = len(built)
            out = reparametrize_constant_speed(metric, loop)
            assert len(built) == before + 1
            assert out.winding == loop.winding


def test_reparametrize_non_finite_trial_raises():
    # chords between x = +-1e308 overflow, so the first trial's points are
    # 0 * inf = nan
    v = np.zeros((8, 2))
    v[::2, 0], v[1::2, 0] = 1e308, -1e308
    loop = DiscreteLoop(v, (1, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(MalformedLoopError, match="vertices must be finite"):
            reparametrize_constant_speed(euclidean(), loop)


def test_reparametrize_infinite_length_raises():
    # the vertices and chords are finite, but the chords' squares overflow
    v = np.zeros((8, 2))
    v[:, 0] = np.arange(8) * 1e307
    loop = DiscreteLoop(v, (1, 0))
    with np.errstate(over="ignore"):
        assert length(euclidean(), loop) == np.inf
        with pytest.raises(MalformedLoopError, match="length is not finite"):
            reparametrize_constant_speed(euclidean(), loop)


# -- loop measures ------------------------------------------------------------

def test_loop_measure_atoms_and_weight():
    loop = DiscreteLoop.straight((1, 0), 8)
    mu = loop_measure(euclidean(), loop, b=2.0)
    assert mu.weight == pytest.approx(1.0 / 8)
    assert np.allclose(mu.velocities, [1.0, 0.0])


def test_loop_measure_cap_violation():
    loop = DiscreteLoop.straight((1, 0), 8)
    with pytest.raises(SpeedCapError):
        loop_measure(euclidean(), loop, b=0.5)


def test_loop_measure_is_probability_measure():
    loop = DiscreteLoop.straight((1, 1), 10)
    mu = loop_measure(euclidean(), loop, b=2.0)
    assert mu.integrate(lambda x, v: np.ones(len(x))) == pytest.approx(1.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cs_gap_hypothesis(seed):
    from torusgeo.experiments import random_loop, random_metric
    rng = np.random.default_rng(seed)
    m = random_metric(rng)
    loop = random_loop(rng)
    assert cs_gap(m, loop) >= -1e-9
