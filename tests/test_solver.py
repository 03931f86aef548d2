"""Action descent: ground truths, gradients, multiplicity reports, speed caps."""
import numpy as np
import pytest

from torusgeo import (
    ConformalFactor,
    ConformalMetric,
    DiscreteLoop,
    RandersMetric,
    SolverConfig,
    action,
    action_gradient,
    cs_gap,
    euclidean,
    loop_distance,
    min_reference_length,
    minimizer_set,
    shortest_loop,
    speed_bound,
    verify_speed_cap,
)
from torusgeo.errors import InputDomainError, MalformedLoopError, TrivialClassError
from torusgeo.fourier import Fourier2D
from torusgeo.metrics import RiemannianMetric
from torusgeo.solver import _descend, _distance_table, _starts

CFG = SolverConfig(n_vertices=64, max_iters=2000, grad_tol=1e-7, seed=0)


def cos_sq_factor(amplitude=0.5):
    # 1 + a*cos^2(2*pi*y) = (1 + a/2) + (a/2)*cos(4*pi*y), troughs at y = 1/4, 3/4
    return ConformalFactor(Fourier2D(1.0 + amplitude / 2.0,
                                     {(0, 2): (amplitude / 2.0, 0.0)}))


# -- reference quantities -------------------------------------------------------

def test_min_reference_length_values():
    assert min_reference_length((1, 0)) == pytest.approx(1.0)
    assert min_reference_length((3, 4)) == pytest.approx(5.0)
    assert min_reference_length((1, 1)) == pytest.approx(np.sqrt(2.0))


def test_min_reference_length_rejects_trivial():
    with pytest.raises(TrivialClassError):
        min_reference_length((0, 0))


def test_speed_bound_values():
    # comparison constant carries a 1.01 safety inflation, so c_F^2 <= 1.0202x
    b = speed_bound(euclidean(), (1, 0))
    assert 1.0 <= b <= 1.0202 * 1.0
    b = speed_bound(euclidean(), (3, 4))
    assert 5.0 <= b <= 1.0202 * 5.0
    b = speed_bound(RandersMetric(euclidean(), (0.5, 0.0)), (1, 0))
    assert 4.0 <= b <= 1.0202 * 4.0


# -- config validation ----------------------------------------------------------

def test_config_rejects_bad_fields():
    with pytest.raises(InputDomainError):
        SolverConfig(n_vertices=16)
    with pytest.raises(InputDomainError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(InputDomainError):
        SolverConfig(num_starts=0)


# -- gradient ---------------------------------------------------------------------

def test_action_gradient_matches_finite_differences():
    from torusgeo.experiments import random_loop, random_metric
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_metric(rng)
        loop = random_loop(rng, n_min=8, n_max=16)
        g = action_gradient(m, loop)
        h = 1e-6
        for (i, j) in [(0, 0), (loop.n_vertices // 2, 1)]:
            vp = loop.vertices.copy()
            vp[i, j] += h
            vm = loop.vertices.copy()
            vm[i, j] -= h
            fd = (action(m, DiscreteLoop(vp, loop.winding))
                  - action(m, DiscreteLoop(vm, loop.winding))) / (2 * h)
            scale = max(abs(fd), np.abs(g).max())
            assert abs(g[i, j] - fd) <= 1e-5 * scale


# -- shortest_loop ----------------------------------------------------------------

def test_flat_horizontal_class():
    res = shortest_loop(euclidean(), (1, 0), CFG)
    assert res.converged
    assert res.length == pytest.approx(1.0, rel=5e-3)
    # flat geodesics are straight: constant height
    ys = res.loop.vertices[:, 1]
    assert ys.max() - ys.min() <= 1e-3


def test_flat_diagonal_class():
    res = shortest_loop(euclidean(), (1, 1), CFG)
    assert res.converged
    assert res.length == pytest.approx(np.sqrt(2.0), rel=5e-3)


def test_conformal_trough_selection():
    # oracle: 1-D brute force over 1000 horizontal translates
    lam = cos_sq_factor(0.5)
    ys = np.arange(1000) / 1000.0
    line_lengths = np.sqrt(lam(np.stack([np.zeros(1000), ys], axis=-1)))
    best_y = ys[np.argmin(line_lengths)]
    assert min(abs(best_y - 0.25), abs(best_y - 0.75)) <= 1e-3

    m = ConformalMetric(euclidean(), lam)
    res = shortest_loop(m, (1, 0), CFG)
    assert res.converged
    assert res.length == pytest.approx(1.0, rel=5e-3)
    mean_y = float(np.mod(res.loop.vertices[:, 1], 1.0).mean())
    assert min(abs(mean_y - 0.25), abs(mean_y - 0.75)) <= 0.02


def test_descent_is_monotone():
    m = RandersMetric(euclidean(), (0.3, 0.1))
    res = shortest_loop(m, (1, 1), CFG)
    hist = res.action_history
    assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(hist, hist[1:]))


def test_action_never_exceeds_input_action():
    rng = np.random.default_rng(9)
    base = DiscreteLoop.straight((1, 0), 64)
    init = DiscreteLoop(base.vertices + 0.05 * rng.standard_normal((64, 2)), (1, 0))
    res = shortest_loop(euclidean(), (1, 0), CFG, init=init)
    assert res.action <= action(euclidean(), init) + 1e-12


def test_wrong_init_winding_rejected():
    init = DiscreteLoop.straight((2, 0), 64)
    with pytest.raises(InputDomainError):
        shortest_loop(euclidean(), (1, 0), CFG, init=init)


def test_output_is_constant_speed():
    m = RandersMetric(euclidean(), (0.3, 0.0))
    res = shortest_loop(m, (1, 0), CFG)
    assert cs_gap(m, res.loop) <= 1e-6 * res.action


def test_refinement_consistency():
    for m in (euclidean(), RandersMetric(euclidean(), (0.3, 0.1))):
        coarse = shortest_loop(m, (1, 1), SolverConfig(n_vertices=32, seed=1))
        fine = shortest_loop(m, (1, 1), SolverConfig(n_vertices=64, seed=1))
        assert abs(fine.length - coarse.length) <= 5e-3 * coarse.length


# -- the batched descent core ---------------------------------------------------------

def test_batch_matches_batches_of_one():
    # at t = 0.05 the starts need 110-220 iterations: with max_iters = 190 some
    # converge and some stop at the cap, each on its own schedule
    from torusgeo.experiments import height_bump
    m = ConformalMetric(euclidean(), height_bump(0.05))
    cfg = SolverConfig(n_vertices=32, num_starts=6, max_iters=190, grad_tol=1e-7, seed=0)
    x0 = _starts((1, 0), cfg)
    batch = _descend(m, (1, 0), cfg, x0)
    alone = [shortest_loop(m, (1, 0), cfg, init=DiscreteLoop(x, (1, 0))) for x in x0]
    assert 0 < sum(r.converged for r in alone) < len(alone)
    for b, a in zip(batch, alone):
        assert np.array_equal(b.loop.vertices, a.loop.vertices)
        assert (b.iterations, b.converged, b.length, b.action) == \
            (a.iterations, a.converged, a.length, a.action)
        assert b.action_history == a.action_history
    rep = minimizer_set(m, (1, 0), cfg)
    assert rep.n_converged == sum(r.converged for r in alone)
    assert rep.n_failed == len(alone) - rep.n_converged


def test_randers_descent_through_coincident_vertices():
    # a zero segment has |v|_g = 0, where the Randers gradient takes its limit 0
    m = RandersMetric(euclidean(), (0.3, 0.0))
    v = DiscreteLoop.straight((1, 0), 32, offset=(0.0, 0.25)).vertices.copy()
    v[5] = v[4]
    loop = DiscreteLoop(v, (1, 0))
    assert np.all(np.isfinite(action_gradient(m, loop)))
    res = shortest_loop(m, (1, 0), SolverConfig(n_vertices=32, seed=0), init=loop)
    assert res.converged
    assert res.length == pytest.approx(1.3, rel=1e-9)


class _SteepMetric(RiemannianMetric):
    """Euclidean speeds with the gradient scaled by `scale`: every trial step overshoots."""

    def __init__(self, scale):
        super().__init__()
        self.scale = scale

    def kernel(self, x, v):
        f, gx, gv = super().kernel(x, v)
        return f, gx * self.scale, gv * self.scale


def test_stalled_line_search_returns_unconverged():
    cfg = SolverConfig(n_vertices=32, num_starts=3, seed=1)
    x0 = _starts((1, 0), cfg)
    for res, x in zip(_descend(_SteepMetric(1e30), (1, 0), cfg, x0), x0):
        assert not res.converged
        assert res.iterations == 1
        assert len(res.action_history) == 1
        assert res.action_history[0] == action(euclidean(), DiscreteLoop(x, (1, 0)))


def test_non_finite_trial_step_raises():
    cfg = SolverConfig(n_vertices=32, num_starts=3, seed=1)
    with pytest.raises(MalformedLoopError):
        minimizer_set(_SteepMetric(np.nan), (1, 0), cfg)


# -- loop_distance ------------------------------------------------------------------

def test_loop_distance_identical_and_translates():
    a = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.1))
    assert loop_distance(a, a) == 0.0
    b = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.4))
    assert loop_distance(a, b) == pytest.approx(0.3, abs=1e-12)
    c = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.7))
    assert loop_distance(a, c) == pytest.approx(0.4, abs=1e-12)  # wraparound


def test_distance_table_equals_loop_distance():
    rng = np.random.default_rng(11)
    loops = [DiscreteLoop(DiscreteLoop.straight((2, 1), 16, offset=rng.uniform(-3, 3, 2)).vertices
                          + rng.uniform(-0.3, 0.3, (16, 2)), (2, 1)) for _ in range(5)]
    # vertices on the wrap: exactly 0, 1 and -1, just inside it, and -1e-20,
    # which reduces mod 1 to exactly 1.0
    wrap = DiscreteLoop.straight((2, 1), 16).vertices.copy()
    wrap[:6] = [[0.0, 1.0], [1.0, 0.0], [-1.0, -1e-20], [-1e-20, 0.5],
                [np.nextafter(1.0, 0.0), -0.0], [np.nextafter(0.0, 1.0), 2.0]]
    loops += [DiscreteLoop(wrap, (2, 1)), DiscreteLoop(wrap - 1e-20, (2, 1))]
    table = _distance_table(loops)
    for i in range(len(loops)):
        assert table[i, i] == 0.0
        for j in range(len(loops)):
            if i != j:
                assert table[i, j] == loop_distance(loops[i], loops[j])


def test_loop_distance_rejects_winding_mismatch():
    a = DiscreteLoop.straight((1, 0), 16)
    b = DiscreteLoop.straight((0, 1), 16)
    with pytest.raises(InputDomainError):
        loop_distance(a, b)


# -- minimizer_set --------------------------------------------------------------------

def test_flat_continuum_witnessed():
    cfg = SolverConfig(n_vertices=64, num_starts=12, seed=2)
    rep = minimizer_set(euclidean(), (1, 0), cfg)
    assert rep.spread >= 0.3
    assert rep.n_clusters >= 2


def test_perturbed_metric_collapses_to_one_cluster():
    from torusgeo.experiments import height_bump
    m = ConformalMetric(euclidean(), height_bump(0.5))
    cfg = SolverConfig(n_vertices=64, num_starts=8, seed=2)
    rep = minimizer_set(m, (1, 0), cfg)
    assert rep.n_clusters == 1
    assert rep.spread <= 1e-2


def test_single_start_spread_zero():
    cfg = SolverConfig(n_vertices=64, num_starts=1, seed=3)
    rep = minimizer_set(euclidean(), (1, 0), cfg)
    assert rep.spread == 0.0


def test_positive_scaling_equivariance():
    from torusgeo.experiments import height_bump
    kappa = 1.7
    base = ConformalMetric(euclidean(), height_bump(0.4))
    scaled = ConformalMetric(base, ConformalFactor.constant(kappa ** 2))
    cfg = SolverConfig(n_vertices=64, num_starts=6, seed=4)
    r1 = minimizer_set(base, (1, 0), cfg)
    r2 = minimizer_set(scaled, (1, 0), cfg)
    assert r1.n_clusters == r2.n_clusters
    assert r2.best_length == pytest.approx(kappa * r1.best_length, rel=1e-6)
    for c1, c2 in zip(r1.clusters, r2.clusters):
        assert loop_distance(c1.representative, c2.representative) <= cfg.cluster_tol


# -- verify_speed_cap ----------------------------------------------------------------

def test_speed_cap_on_minimizers():
    res = shortest_loop(euclidean(), (1, 0), CFG)
    assert verify_speed_cap(euclidean(), res.loop, (1, 0))
    m = RandersMetric(euclidean(), (0.5, 0.0))
    res = shortest_loop(m, (1, 0), CFG)
    assert verify_speed_cap(m, res.loop, (1, 0))


def test_speed_cap_rejects_fast_loop():
    verts = DiscreteLoop.straight((1, 0), 32).vertices.copy()
    verts[5] += (0.0, 0.5)  # one segment at Euclidean speed ~16
    fast = DiscreteLoop(verts, (1, 0))
    assert not verify_speed_cap(euclidean(), fast, (1, 0))
