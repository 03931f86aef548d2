"""Action descent: ground truths, gradients, multiplicity reports, speed caps."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from torusgeo.solver import _descend, _evaluate, _single_linkage, _spread_links, _starts

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
    with pytest.raises(InputDomainError):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize("field, value", [
    ("grad_tol", float("inf")),  # would report a start converged without a step
    ("grad_tol", float("nan")),  # would stall every start
    ("cluster_tol", float("inf")),
    ("cluster_tol", float("nan")),  # would drop minimizers from their own clusters
    ("n_vertices", 64.5),  # would run on a 65-vertex loop
    ("max_iters", 100.5),
    ("num_starts", 2.5),
])
def test_config_rejects_non_finite_tolerances_and_non_integer_counts(field, value):
    with pytest.raises(InputDomainError):
        SolverConfig(**{field: value})


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


def test_batched_action_equals_loops_action():
    # the descent's action is exactly `loops.action`, bit for bit
    from torusgeo.experiments import random_loop, random_metric
    rng = np.random.default_rng(8)
    for _ in range(500):
        m, loop = random_metric(rng), random_loop(rng)
        assert _evaluate(m, loop.vertices[None], loop.winding)[0][0] == action(m, loop)


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


def test_final_reparametrization_is_needed(monkeypatch):
    # a converged descent on an oblique conformal factor stops short of constant
    # speed (relative gap 2.1e-6); the final reparametrization brings it to 4.1e-9
    from torusgeo import solver
    calls = []

    def spy(metric, loops, _real=solver.reparametrize_batch):
        outs = _real(metric, loops)
        calls.append((loops, outs))
        return outs

    monkeypatch.setattr(solver, "reparametrize_batch", spy)
    m = ConformalMetric(euclidean(), ConformalFactor(Fourier2D(1.0, {(2, 1): (0.2, 0.35)})))
    res = shortest_loop(m, (1, 1), SolverConfig(n_vertices=64, max_iters=3000, grad_tol=1e-7,
                                                seed=0))
    assert res.converged and res.iterations == 22 and res.stop == "gradient"
    [([iterate], [out])] = calls
    assert out is res.loop
    assert cs_gap(m, iterate) > 1e-6 * action(m, iterate)
    assert cs_gap(m, res.loop) <= 1e-6 * res.action


def test_refinement_consistency():
    for m in (euclidean(), RandersMetric(euclidean(), (0.3, 0.1))):
        coarse = shortest_loop(m, (1, 1), SolverConfig(n_vertices=32, seed=1))
        fine = shortest_loop(m, (1, 1), SolverConfig(n_vertices=64, seed=1))
        assert abs(fine.length - coarse.length) <= 5e-3 * coarse.length


# -- the batched descent core ---------------------------------------------------------

def test_batch_matches_batches_of_one():
    # at t = 0.05 the starts need 12-18 iterations: with max_iters = 12 some
    # converge and some stop at the cap, each on its own schedule
    from torusgeo.experiments import height_bump
    m = ConformalMetric(euclidean(), height_bump(0.05))
    cfg = SolverConfig(n_vertices=32, num_starts=6, max_iters=12, grad_tol=1e-7, seed=0)
    x0 = _starts((1, 0), cfg)
    batch = _descend(m, (1, 0), cfg, x0)
    alone = [shortest_loop(m, (1, 0), cfg, init=DiscreteLoop(x, (1, 0))) for x in x0]
    assert 0 < sum(r.converged for r in alone) < len(alone)
    for b, a in zip(batch, alone):
        assert np.array_equal(b.loop.vertices, a.loop.vertices)
        assert (b.iterations, b.converged, b.stop, b.length, b.action) == \
            (a.iterations, a.converged, a.stop, a.length, a.action)
        assert b.stop == ("gradient" if b.converged else "max_iters")
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
        assert not res.converged and res.stop == "stall"
        assert res.iterations == 1
        assert len(res.action_history) == 1
        assert res.action_history[0] == action(euclidean(), DiscreteLoop(x, (1, 0)))


def test_unmoved_trial_stalls_at_once(monkeypatch):
    # a step far below the vertices' ulp leaves them unchanged: the line search
    # ends at its first trial, not after 60, and the start ends stalled
    from torusgeo import solver
    calls = []

    def evaluate(*args, _real=solver._evaluate):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(solver, "_evaluate", evaluate)
    cfg = SolverConfig(n_vertices=32, num_starts=3, grad_tol=1e-305, seed=1)
    for res in _descend(_SteepMetric(1e-300), (1, 0), cfg, _starts((1, 0), cfg)):
        assert (res.converged, res.stop, res.iterations) == (False, "stall", 1)
    assert len(calls) == 1  # the starts' own evaluation; no trial was evaluated


def test_stalled_quasi_newton_step_retries_with_a_plain_step(monkeypatch):
    # every direction built from stored pairs overshoots by 1e30 and stalls; the
    # start forgets its pairs, takes a plain step, and still converges
    from torusgeo import solver
    no_pairs = []

    def direction(g, live, mem_s, mem_y, rho, gamma, symbol, _real=solver._lbfgs_direction):
        with_pairs = rho[live, 0] > 0.0
        no_pairs.append(not with_pairs.any())
        d = _real(g, live, mem_s, mem_y, rho, gamma, symbol)
        d[with_pairs] *= 1e30
        return d

    monkeypatch.setattr(solver, "_lbfgs_direction", direction)
    res = shortest_loop(euclidean(), (1, 0), SolverConfig(n_vertices=32, seed=0))
    assert res.converged and res.stop == "gradient"
    # iterations alternate: a plain step stores a pair, the next step stalls
    assert no_pairs[::2] == [True] * len(no_pairs[::2])
    assert not any(no_pairs[1::2])
    hist = res.action_history
    assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(hist, hist[1:]))


def test_non_descent_direction_falls_back_to_a_plain_step(monkeypatch):
    # every direction built from stored pairs points uphill; the step takes the
    # plain direction instead, so the start converges at about one evaluation
    # per iteration rather than backtracking each line search to its end
    from torusgeo import solver
    calls = []

    def direction(g, live, mem_s, mem_y, rho, gamma, symbol, _real=solver._lbfgs_direction):
        d = _real(g, live, mem_s, mem_y, rho, gamma, symbol)
        d[rho[live, 0] > 0.0] *= -1.0
        return d

    def evaluate(*args, _real=solver._evaluate):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(solver, "_lbfgs_direction", direction)
    monkeypatch.setattr(solver, "_evaluate", evaluate)
    res = shortest_loop(euclidean(), (1, 0), SolverConfig(n_vertices=32, seed=0))
    assert res.converged and res.stop == "gradient"
    assert len(calls) <= 2 * res.iterations


def test_non_finite_trial_step_raises():
    cfg = SolverConfig(n_vertices=32, num_starts=3, seed=1)
    with pytest.raises(MalformedLoopError):
        minimizer_set(_SteepMetric(np.nan), (1, 0), cfg)


# -- convergence on generic factors and small bumps -------------------------------------

def three_mode_factor():
    # 1 + three distinct modes in [-2, 2]^2 with coefficients <= 0.03, drawn from rng 7
    rng = np.random.default_rng(7)
    modes = {}
    while len(modes) < 3:
        k = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        if k != (0, 0) and k not in modes and (-k[0], -k[1]) not in modes:
            modes[k] = (rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))
    return ConformalFactor(Fourier2D(1.0, modes))


@pytest.mark.parametrize("winding", [(2, 1), (1, 0)])
def test_generic_three_mode_factor_converges_every_start(winding):
    # a Sobolev gradient descent stopped at 2000 iterations on all 30 starts here
    m = ConformalMetric(euclidean(), three_mode_factor())
    cfg = SolverConfig(n_vertices=64, num_starts=30, seed=0)
    solved = _descend(m, winding, cfg, _starts(winding, cfg))
    assert [r.stop for r in solved] == ["gradient"] * 30
    assert all(r.converged for r in solved)


def test_small_bump_converges_straight_and_equispaced():
    # at t = 0.01 the transverse curvature is about 0.003: all 50 starts converge
    # onto horizontal lines, vertices equispaced in x
    from torusgeo.experiments import height_bump
    m = ConformalMetric(euclidean(), height_bump(0.01))
    cfg = SolverConfig(n_vertices=64, num_starts=50, seed=1)
    solved = _descend(m, (1, 0), cfg, _starts((1, 0), cfg))
    assert [r.stop for r in solved] == ["gradient"] * 50
    v = np.stack([r.loop.vertices for r in solved])
    steps = np.diff(np.concatenate([v[:, :, 0], v[:, :1, 0] + 1.0], axis=1), axis=1)
    assert np.abs(steps - 1.0 / 64).max() <= 1e-10
    assert (v[:, :, 1].max(axis=1) - v[:, :, 1].min(axis=1)).max() <= 1e-10
    assert np.median([r.iterations for r in solved]) < 40


def test_uniqueness_seed_46_passes_every_check():
    # the spreads at t = 0.05, 0.1 and 0.2 are one line sampled at other
    # phases; they must not rise by more than the check's 1e-9 slack
    from torusgeo.experiments import run_uniqueness
    records, checks = run_uniqueness({}, 46)
    assert all(checks.values()), checks
    assert [r["n_failed"] for r in records] == [0, 0, 0, 0]


# -- loop_distance ------------------------------------------------------------------

def test_loop_distance_identical_and_translates():
    a = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.1))
    assert loop_distance(a, a) == 0.0
    b = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.4))
    assert loop_distance(a, b) == pytest.approx(0.3, abs=1e-12)
    c = DiscreteLoop.straight((1, 0), 16, offset=(0.0, 0.7))
    assert loop_distance(a, c) == pytest.approx(0.4, abs=1e-12)  # wraparound


def _lines(heights, phases=None):
    """Horizontal (1,0) 64-vertex lines at the given heights, sampled from the given x phases."""
    phases = np.zeros(len(heights)) if phases is None else phases
    return [DiscreteLoop.straight((1, 0), 64, offset=(x, y)) for x, y in zip(phases, heights)]


def _continuum_21():
    """50 straight 64-vertex (2,1) lines at `_starts`' stratified offsets along
    the class normal (seed 2), without its jitter: the flat (2,1) continuum."""
    rng = np.random.default_rng(2)
    normal = np.array([-1.0, 2.0]) / np.hypot(2, 1)
    return [DiscreteLoop.straight((2, 1), 64, offset=((k + rng.random()) / 50) * normal)
            for k in range(50)]


def _wrap_loops():
    rng = np.random.default_rng(11)
    loops = [DiscreteLoop(DiscreteLoop.straight((2, 1), 16, offset=rng.uniform(-3, 3, 2)).vertices
                          + rng.uniform(-0.3, 0.3, (16, 2)), (2, 1)) for _ in range(5)]
    # vertices on the wrap: exactly 0, 1 and -1, just inside it, and -1e-20,
    # which reduces mod 1 to exactly 1.0
    wrap = DiscreteLoop.straight((2, 1), 16).vertices.copy()
    wrap[:6] = [[0.0, 1.0], [1.0, 0.0], [-1.0, -1e-20], [-1e-20, 0.5],
                [np.nextafter(1.0, 0.0), -0.0], [np.nextafter(0.0, 1.0), 2.0]]
    return loops + [DiscreteLoop(wrap, (2, 1)), DiscreteLoop(wrap - 1e-20, (2, 1))]


def _assert_spread_links_exact(loops, tols):
    """`_spread_links` at each tol against the brute-force table of every `loop_distance`."""
    m = len(loops)
    table = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            table[i, j] = table[j, i] = loop_distance(loops[i], loops[j])
    for tol in tols:
        spread, near = _spread_links(loops, tol)
        assert spread == table.max()
        assert np.array_equal(near, table <= tol)


_LOOP_SETS = {
    "wrap": _wrap_loops,
    # the t = 0 shape: a continuum of translates
    "heights": lambda: _lines(np.random.default_rng(3).random(50)),
    # the t > 0 shape: one line sampled at other phases
    "phases": lambda: _lines(np.full(50, 0.25), phases=np.random.default_rng(4).random(50) / 64),
    # the class whose continuum leaves the most pairs open after the pivots:
    # 346 computed pairs at tol 0.05, against 190-301 in a default uniqueness run
    "continuum-21": _continuum_21,
    "identical": lambda: _lines(np.full(10, 0.3)),
    "one": lambda: _lines([0.3]),
    "two": lambda: _lines([0.3, 0.45]),
    "three": lambda: _lines([0.3, 0.45, 0.9]),
    # the eighths from 1/8: the pivots are 1/8, 5/8, 3/8 and 7/8, so the
    # lines at 1/4 and 1/2, exactly 0.25 apart, meet on the pruned path with
    # both bounds at 0.25 -+ eps
    "tol-pair": lambda: _lines(np.arange(1, 9) % 8 / 8),
}


@pytest.mark.parametrize("name", list(_LOOP_SETS))
def test_spread_links_equals_loop_distance_table(name):
    _assert_spread_links_exact(_LOOP_SETS[name](), (0.001, 0.004, 0.05, 0.25, 0.5))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_spread_links_equals_loop_distance_table_hypothesis(seed):
    # a few clusters of jittered lines in one class, so both bounds decide
    # links and some pairs sit close to tol
    rng = np.random.default_rng(seed)
    winding = [(1, 0), (2, 1), (1, -1)][int(rng.integers(3))]
    n = int(rng.integers(8, 33))
    centers = rng.random((int(rng.integers(1, 4)), 2))
    loops = []
    for _ in range(int(rng.integers(1, 25))):
        base = DiscreteLoop.straight(winding, n, offset=centers[rng.integers(len(centers))]
                                     + rng.normal(0.0, 0.05, 2))
        loops.append(DiscreteLoop(base.vertices + rng.uniform(-0.02, 0.02, (n, 2)), winding))
    _assert_spread_links_exact(loops, [float(rng.uniform(0.0, 0.4))])


def test_spread_links_computes_few_pairs(monkeypatch):
    # at the uniqueness default config the pivot bounds settle most of the
    # 1,225 pairs of the 50 kept loops at each t
    from torusgeo import solver
    from torusgeo.experiments import run_uniqueness
    sizes, counts = [], []

    def links(loops, tol, _real=solver._spread_links):
        sizes.append(len(loops))
        counts.append(0)
        return _real(loops, tol)

    def pairs(pts, i, j, _real=solver._pair_distances):
        counts[-1] += len(i)
        return _real(pts, i, j)

    monkeypatch.setattr(solver, "_spread_links", links)
    monkeypatch.setattr(solver, "_pair_distances", pairs)
    run_uniqueness({}, 1)
    assert sizes == [50, 50, 50, 50]
    assert max(counts) <= 400, counts


def test_loop_distance_rejects_winding_mismatch():
    a = DiscreteLoop.straight((1, 0), 16)
    b = DiscreteLoop.straight((0, 1), 16)
    with pytest.raises(InputDomainError):
        loop_distance(a, b)


def _union_find_groups(dist, tol):
    """Reference single linkage: union-find over the pairs at distance <= tol."""
    n = len(dist)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def test_single_linkage_equals_union_find():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = int(rng.integers(1, 61))
        pts = rng.random((m, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        tol = rng.uniform(0.0, 0.3)
        assert _single_linkage(dist <= tol) == _union_find_groups(dist, tol)


def test_single_linkage_follows_a_long_chain():
    # two chains of unit steps, shuffled so that each group's least member sits
    # far along its chain: labels need many rounds to spread
    rng = np.random.default_rng(18)
    pos = rng.permutation(np.concatenate([np.arange(30), np.arange(40, 70)])).astype(float)
    dist = np.abs(pos[:, None] - pos[None])
    groups = _single_linkage(dist <= 1.0)
    assert groups == _union_find_groups(dist, 1.0)
    assert [sorted(pos[g]) for g in groups] in ([list(range(30)), list(range(40, 70))],
                                                [list(range(40, 70)), list(range(30))])


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


def test_minimizer_set_evaluates_each_start_once(monkeypatch):
    # outside the reparametrization, the starts' reported lengths and actions
    # come from one evaluation of their segment lengths, all starts stacked;
    # the descent uses the kernel, and reparametrizes the starts as one batch
    from torusgeo import metrics, solver
    from torusgeo.experiments import height_bump
    calls, inside, batches = [], [], []

    def reparam(metric, loops, _real=solver.reparametrize_batch):
        inside.append(True)
        batches.append(len(loops))
        try:
            return _real(metric, loops)
        finally:
            inside.pop()

    monkeypatch.setattr(solver, "reparametrize_batch", reparam)
    for cls in (metrics.RiemannianMetric, metrics.ConformalMetric):
        def speed(self, x, v, _real=cls.speed):
            if not inside:
                calls.append(1)
            return _real(self, x, v)
        monkeypatch.setattr(cls, "speed", speed)
    m = ConformalMetric(euclidean(), height_bump(0.2))
    rep = minimizer_set(m, (1, 0), SolverConfig(n_vertices=32, num_starts=5, seed=1))
    assert rep.n_converged + rep.n_failed == 5
    assert batches == [5]
    assert len(calls) == 1  # the starts; the comparison constant reads only coefficients


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
    assert verify_speed_cap(euclidean(), res.loop)
    m = RandersMetric(euclidean(), (0.5, 0.0))
    res = shortest_loop(m, (1, 0), CFG)
    assert verify_speed_cap(m, res.loop)


def test_speed_cap_rejects_fast_loop():
    # two segments at Euclidean speed ~16, or at exactly 3: inside the (3, 4)
    # class's cap of ~5.1 but over the (1, 0) loop's own cap of ~1.02
    for kink in (0.5, np.sqrt(8.0) / 32):
        verts = DiscreteLoop.straight((1, 0), 32).vertices.copy()
        verts[5] += (0.0, kink)
        fast = DiscreteLoop(verts, (1, 0))
        assert not verify_speed_cap(euclidean(), fast)
