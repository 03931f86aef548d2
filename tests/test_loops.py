"""Discrete loops: winding, length, action, the speed-variance gap, measures."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo import (
    ConformalFactor,
    ConformalMetric,
    DiscreteLoop,
    RandersMetric,
    action,
    cs_gap,
    euclidean,
    length,
    loop_measure,
    reparametrize_batch,
    reparametrize_constant_speed,
    reparametrize_rows,
)
from torusgeo.errors import (
    DegenerateLoopError,
    MalformedLoopError,
    SpeedCapError,
    TrivialClassError,
)
from torusgeo.loops import (
    _length_action,
    _pad_closing,
    _padded_speeds,
    _point_on_polygon,
    _row_sums,
    _stack,
    edges,
    require_nontrivial,
    segment_lengths,
)


def in_order_sum(values) -> float:
    """(x_0 + x_1) + x_2 + ..., one float addition at a time."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def stacked_lengths(metric, loops):
    """Segment lengths of the loops from one `speed` call, as padded rows for `_length_action`, and their Ns."""
    x, winding, n = _stack(loops)
    return _padded_speeds(metric, edges(_pad_closing(x, winding, n), winding), n), n


def two_speed_loop():
    """Half the parameter at Euclidean speed 1, half at speed 3; winding (2, 0)."""
    deltas = np.array([0.125] * 4 + [0.375] * 4)
    xs = np.concatenate([[0.0], np.cumsum(deltas)[:-1]])
    verts = np.stack([xs, np.zeros(8)], axis=-1)
    return DiscreteLoop(verts, (2, 0))


def assert_on_chain(out, loop):
    """Every vertex of `out` lies on some segment of `loop`'s closed lift."""
    closed = loop.closed_lift
    d = closed[1:] - closed[:-1]
    for v in out.vertices:
        t = ((v - closed[:-1]) * d).sum(axis=1) / (d ** 2).sum(axis=1)
        t = np.clip(t, 0.0, 1.0)
        dist = np.linalg.norm(closed[:-1] + t[:, None] * d - v, axis=1)
        assert dist.min() <= 1e-9


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


@pytest.mark.parametrize("shape", [(8,), (8, 3), (2, 8, 2)])
def test_vertices_not_n_by_2_rejected(shape):
    with pytest.raises(MalformedLoopError, match="shape"):
        DiscreteLoop(np.zeros(shape), (1, 0))


def test_nonfinite_vertices_rejected():
    v = np.zeros((8, 2))
    v[3, 1] = np.nan
    with pytest.raises(MalformedLoopError):
        DiscreteLoop(v, (1, 0))


def test_reversed_negates_winding():
    loop = DiscreteLoop.straight((2, 1), 10, offset=(0.1, 0.2))
    rev = loop.reversed()
    assert rev.winding == (-2, -1)
    assert length(euclidean(), rev) == pytest.approx(length(euclidean(), loop))


def test_closed_lift_appends_x0_plus_winding():
    loop = DiscreteLoop(np.random.default_rng(1).random((10, 2)), (2, -1))
    c = loop.closed_lift
    assert np.array_equal(c, np.vstack([loop.vertices, loop.vertices[0] + np.array([2.0, -1.0])]))


def test_midpoints_deltas_velocities_equal_formulas():
    loop = DiscreteLoop(np.random.default_rng(2).random((12, 2)) * 3.0 - 1.0, (-1, 3))
    v = loop.vertices
    c = np.vstack([v, v[0] + np.array([-1.0, 3.0])])
    assert np.array_equal(loop.deltas, c[1:] - c[:-1])
    assert np.array_equal(loop.midpoints, 0.5 * (c[:-1] + c[1:]))
    assert np.array_equal(loop.velocities, 12 * (c[1:] - c[:-1]))
    # a batch of lifts gets each row's midpoints and deltas
    batch = np.random.default_rng(3).random((5, 12, 2)) * 3.0 - 1.0
    mids, deltas = edges(batch, (-1, 3))
    for row, m, d in zip(batch, mids, deltas):
        assert np.array_equal(m, DiscreteLoop(row, (-1, 3)).midpoints)
        assert np.array_equal(d, DiscreteLoop(row, (-1, 3)).deltas)


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


def test_action_is_n_times_sum_of_squared_segment_lengths():
    # one convention: N * sum ell_i^2 of ell_i = F(m_i, dx_i), added in segment
    # order, bit for bit; for N a power of two it is also the period-1 form (1/N) sum F^2(m_i, N dx_i)
    from torusgeo.experiments import random_loop, random_metric
    rng = np.random.default_rng(17)
    powers = 0
    for _ in range(300):
        m, loop = random_metric(rng), random_loop(rng)
        n = loop.n_vertices
        ell = segment_lengths(m, loop)
        assert action(m, loop) == in_order_sum(ell ** 2) * n
        assert length(m, loop) == in_order_sum(ell)
        if n & (n - 1) == 0:
            powers += 1
            mids, deltas = edges(loop.vertices, loop.winding)
            assert action(m, loop) == in_order_sum(m.speed(mids, n * deltas) ** 2) / n
    assert powers


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
    assert_on_chain(out, loop)


def test_point_on_polygon_equals_lerp():
    # reference: the lerp on segment j = floor(u), clamped to 0..N-1; equal bit for bit
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(9)
    for _ in range(200):
        closed = random_loop(rng).closed_lift
        n = len(closed) - 1
        for u in (np.arange(n, dtype=float), np.arange(n) + 0.5, np.sort(rng.uniform(0, n, n))):
            j = np.minimum(np.floor(u).astype(int), n - 1)
            frac = u - j
            expected = closed[j] + frac[:, None] * (closed[j + 1] - closed[j])
            assert _point_on_polygon(closed, u).tobytes() == expected.tobytes()


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


# the cs-property loops (seed, index) whose pass from phase 0 stalls
STALLS = [(905, 556), (907, 661), (929, 199), (0, 1318), (0, 6086), (707, 641), (934, 893),
          (957, 563), (967, 159), (502, 499)]


@functools.cache
def cs_metrics() -> tuple:
    from torusgeo.experiments import cs_property_metrics
    return tuple(cs_property_metrics())


def cs_loop(seed: int, index: int):
    """Loop `index` of the cs-property experiment at `seed`, and the index of the metric it takes."""
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        loop = random_loop(rng)
    return loop, index % len(cs_metrics())


def rng13_loops() -> list:
    """Eight loops, some of which need Newton steps under each cs-property metric."""
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(13)
    return [random_loop(rng) for _ in range(8)]


@pytest.mark.parametrize("seed, index", STALLS)
def test_reparametrize_restarts_past_a_stall(seed, index):
    # the pass from phase 0 stalls at a relative gap of 1.2e-4 to 4.0e-3 on
    # these cs-property loops; a restart at a shifted phase reaches the
    # tolerance. Loop 499 of seed 502 stalls at 7.1e-4 from all four quarter
    # phases and needs an eighth phase
    loop, k = cs_loop(seed, index)
    metric = cs_metrics()[k]
    out = reparametrize_constant_speed(metric, loop)
    assert cs_gap(metric, out) <= 1e-6 * action(metric, out)


_ALONE = {}


def reparametrized_alone(k: int, loop) -> bytes:
    """The vertex bytes of loop reparametrized alone under metric k, computed once per session."""
    key = (k, loop.vertices.tobytes(), loop.winding)
    if key not in _ALONE:
        _ALONE[key] = reparametrize_constant_speed(cs_metrics()[k], loop).vertices.tobytes()
    return _ALONE[key]


@given(st.integers(0, 2 ** 32 - 1), st.randoms(use_true_random=False))
@settings(max_examples=5, deadline=None)
def test_reparametrize_batch_matches_each_loop_alone(seed, order):
    # mixed N (8..48, and 120..160, so the short rows carry long padding) and
    # mixed windings, with the stall loops, among them one that needs the
    # eighth phases, and loops that take Newton steps
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(seed)
    drawn = [random_loop(rng) for _ in range(10)] + [random_loop(rng, 120, 160)]
    stalls = [cs_loop(*case) for case in STALLS]
    for k, metric in enumerate(cs_metrics()):
        loops = [loop for loop, j in stalls if j == k] + rng13_loops() + drawn
        alone = [reparametrized_alone(k, loop) for loop in loops]
        for batch in (loops, order.sample(loops, len(loops))):
            outs = reparametrize_batch(metric, batch)
            assert [out.vertices.tobytes() for out in outs] == [alone[loops.index(loop)]
                                                                 for loop in batch]
            assert [out.winding for out in outs] == [loop.winding for loop in batch]


def test_row_sums_add_each_row_in_order():
    # the in-order sum of each padded row, for every N from 8 to 299; a row's
    # bits depend on neither the block's width nor the order of its rows
    rng = np.random.default_rng(21)
    n = np.arange(8, 300)
    ell = rng.random((len(n), n[-1])) * rng.choice([1e-3, 1.0, 1e3], (len(n), n[-1]))
    ell[np.arange(n[-1]) >= n[:, None]] = 0.0
    for a in (ell, ell ** 2):
        want = [in_order_sum(row[:k]) for row, k in zip(a, n)]
        assert _row_sums(a, n).tolist() == want
        wide = np.concatenate([a, rng.random((len(n), 37))], axis=1)
        assert _row_sums(wide, n).tolist() == want
        perm = rng.permutation(len(n))
        assert _row_sums(a[perm], n[perm]).tolist() == [want[i] for i in perm]
        # one count for every row, and a single row
        assert _row_sums(a[:, :100], 100).tolist() == [in_order_sum(row[:100]) for row in a]
        assert [float(_row_sums(row, k)) for row, k in zip(a, n)] == want


def test_inversion_knots_end_at_the_loop_length(monkeypatch):
    # the cumulative F-length that the inversion step inverts ends, bit for
    # bit, at the length `_length_action` gives each row
    from torusgeo import loops as loops_mod
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(23)
    batch = [random_loop(rng) for _ in range(40)] + [random_loop(rng, 120, 160)]
    interp, knots = loops_mod._interp_rows, []

    def spy(x, xp, fp, last):
        knots.append(xp[np.arange(len(xp)), last])
        return interp(x, xp, fp, last)

    monkeypatch.setattr(loops_mod, "_interp_rows", spy)
    for metric in cs_metrics():
        ell, n = stacked_lengths(metric, batch)
        total = _length_action(ell, n)[0]
        width = ell.shape[1]
        u = np.where(np.arange(width) < n[:, None], np.arange(width, dtype=float), 0.0)
        loops_mod._inversion_direction(u, ell, total, n)
        assert knots.pop().tolist() == total.tolist()


def test_cs_gap_is_the_stacked_gap():
    # cs_gap and the stacked lengths of cs-property agree bit for bit: both
    # square the length correctly rounded
    from torusgeo.experiments import random_loop
    rng = np.random.default_rng(22)
    loops = [random_loop(rng) for _ in range(300)]
    for metric in cs_metrics():
        total, a = _length_action(*stacked_lengths(metric, loops))
        assert [cs_gap(metric, loop) for loop in loops] == (a - total ** 2).tolist()


@pytest.mark.parametrize("seed", [1, 5, 502])
def test_reparametrize_rows_pairs_are_the_lengths_of_its_loops(seed):
    # the cs-property rows of the seed (loop 405 stalls at seed 5, and seed 502
    # reaches Newton steps and the eighth phases): each row's (length, action),
    # of the input and of the result, has the bits of the loop's own; what
    # lies past a row's N is ignored
    from torusgeo.experiments import cs_property_metrics, random_loops
    x, winding, n = random_loops(np.random.default_rng(seed), 1000, 8, 48, 0.45)
    x[np.arange(x.shape[1]) >= n[:, None]] = np.nan
    for k, metric in enumerate(cs_property_metrics()):
        rows = slice(k, None, 3)
        pts, before, after = reparametrize_rows(metric, x[rows], winding[rows], n[rows])
        for points, pair in ((x[rows], before), (pts, after)):
            loops = [DiscreteLoop(p[:m], w) for p, w, m in zip(points, winding[rows], n[rows])]
            want = _length_action(*stacked_lengths(metric, loops))
            assert [v.tobytes() for v in pair] == [v.tobytes() for v in want]


def test_reparametrize_builds_only_the_returned_loop(monkeypatch):
    loops = rng13_loops()
    built = []
    real_init = DiscreteLoop.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteLoop, "__init__", counted_init)
    for metric in cs_metrics():
        before = len(built)
        outs = reparametrize_batch(metric, loops)
        assert len(built) == before + len(loops)
        assert [out.winding for out in outs] == [loop.winding for loop in loops]


def test_reparametrize_first_speed_call_is_the_input_loop(monkeypatch):
    # the phase-0 trials sample the input vertices exactly: the first call is
    # the stacked inputs' own evaluation, which the length checks read, and no
    # later call evaluates an input again
    from torusgeo import metrics
    calls = []
    for cls in (metrics.RiemannianMetric, metrics.RandersMetric, metrics.ConformalMetric):
        def speed(self, x, v, _real=cls.speed):
            calls.append((np.array(x), np.array(v)))
            return _real(self, x, v)
        monkeypatch.setattr(cls, "speed", speed)
    loops = rng13_loops()
    inputs = [edges(loop.vertices, loop.winding) for loop in loops]
    for metric in cs_metrics():
        calls.clear()
        reparametrize_batch(metric, loops)
        x, v = calls[0]
        assert np.array_equal(x, np.concatenate([mids for mids, _ in inputs]))
        assert np.array_equal(v, np.concatenate([deltas for _, deltas in inputs]))
        for _, v in calls[1:]:
            later = {row.tobytes() for row in v}
            for _, deltas in inputs:
                assert not all(row.tobytes() in later for row in deltas)


def test_reparametrize_survives_a_singular_newton_system(monkeypatch):
    # a failed Newton solve ends the pass; the restarts and the best-gap pick
    # still return a loop on the input chain, no worse than the input
    loops = rng13_loops()
    solves = []

    def singular(a, b):
        solves.append(1)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for metric in cs_metrics():
        for loop, out in zip(loops, reparametrize_batch(metric, loops)):
            assert out.winding == loop.winding
            assert_on_chain(out, loop)
            assert cs_gap(metric, out) <= cs_gap(metric, loop) + 1e-12 * action(metric, loop)
    assert solves  # some pass reached a Newton step


def test_singular_newton_system_ends_only_its_own_pass(monkeypatch):
    # rng-13 loop 6 and a copy moved by 1e-12 take their Newton steps in the
    # same rounds, as stacks of two systems; the first system met in a stack
    # is made singular. That pass ends, and each loop still gets the bits it
    # gets alone under the same solver
    real_solve = np.linalg.solve
    poison = []

    def solve(a, b):
        if len(a) > 1 and not poison:
            poison.append(a[0].copy())
        if any(np.array_equal(m, poison[0]) for m in a):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    loop = rng13_loops()[6]
    twin = DiscreteLoop(loop.vertices + 1e-12, loop.winding)
    for metric in cs_metrics():
        poison.clear()
        outs = reparametrize_batch(metric, [loop, twin])
        assert poison
        alone = [reparametrize_constant_speed(metric, x) for x in (loop, twin)]
        assert [out.vertices.tobytes() for out in outs] == [out.vertices.tobytes() for out in alone]


def test_reparametrize_batch_of_none_is_empty():
    assert reparametrize_batch(euclidean(), []) == []


def test_reparametrize_pads_without_floating_point_errors():
    # padded segments have zero chords; no metric may overflow, divide by zero
    # or make a nan on them
    loops = rng13_loops()
    assert len({loop.n_vertices for loop in loops}) > 1
    for metric in cs_metrics():
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            reparametrize_batch(metric, loops)


@pytest.mark.parametrize("xs, expected", [
    (np.arange(8) * 1e307, "inf"),          # finite chords whose squares overflow
    (np.tile([1e308, -1e308], 4), "nan"),   # the chords overflow, and 0 * inf = nan
], ids=["inf", "nan"])
def test_reparametrize_infinite_length_raises(xs, expected):
    v = np.zeros((8, 2))
    v[:, 0] = xs
    loop = DiscreteLoop(v, (1, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert repr(length(euclidean(), loop)) == expected
        with pytest.raises(MalformedLoopError, match="length is not finite"):
            reparametrize_constant_speed(euclidean(), loop)


@pytest.mark.parametrize("bad, error, message", [
    (DiscreteLoop(np.full((12, 2), 0.3), (0, 0)), DegenerateLoopError,
     "loop 2: cannot reparametrize a zero-length loop"),
    (DiscreteLoop(np.stack([np.arange(8) * 1e307, np.zeros(8)], axis=-1), (1, 0)),
     MalformedLoopError, "loop 2: length is not finite"),
], ids=["zero-length", "not-finite"])
def test_reparametrize_batch_names_the_bad_loop_before_any_step(monkeypatch, bad, error, message):
    from torusgeo import metrics
    calls = []

    def speed(self, x, v, _real=metrics.RiemannianMetric.speed):
        calls.append(1)
        return _real(self, x, v)

    monkeypatch.setattr(metrics.RiemannianMetric, "speed", speed)
    loops = rng13_loops()
    with np.errstate(over="ignore"):
        with pytest.raises(error, match=message):
            reparametrize_batch(euclidean(), loops[:2] + [bad] + loops[2:])
    assert len(calls) == 1  # the inputs' evaluation, and no step


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
