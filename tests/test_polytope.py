"""Argmin sets over polytopes, exposure draws, and the shrinking perturbation."""
import ast
import inspect
import textwrap

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
from torusgeo import polytope
from torusgeo.errors import ExposureFailureError, InputDomainError, PerturbationFailureError
from torusgeo.experiments import _argmin_bruteforce, random_body

SQUARE = ConvexBody([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


# -- input validation -------------------------------------------------------------

@pytest.mark.parametrize("vertices", [[], np.zeros((0, 2)), [1.0, 2.0], np.zeros((2, 2, 2)),
                                      [[0.0, np.nan]], [[np.inf, 0.0]]],
                         ids=["empty", "no-rows", "vector", "3-d", "nan", "inf"])
def test_body_rejects_bad_vertices(vertices):
    with pytest.raises(InputDomainError, match="vertices"):
        ConvexBody(vertices)


@pytest.mark.parametrize("coefficients", [[[1.0, 0.0]], 1.0, [np.nan, 0.0], [0.0, -np.inf]],
                         ids=["matrix", "scalar", "nan", "inf"])
def test_functional_rejects_bad_coefficients(coefficients):
    with pytest.raises(InputDomainError, match="finite vector"):
        Functional(coefficients)


def test_negative_argmin_tolerance_rejected():
    with pytest.raises(InputDomainError, match="tol"):
        argmin_set(Functional.zero(2), SQUARE, tol=-1e-12)


def test_expose_fails_on_a_segment_longer_than_eps():
    # every direction's argmin is the whole segment: both ends within the active-set tolerance
    with pytest.raises(ExposureFailureError):
        exposing_functional(ConvexBody([[0.0, 0.0], [1e-12, 0.0]]), eps=1e-13)


@pytest.mark.parametrize("eps, delta", [(0.0, 0.1), (-1.0, 0.1), (0.1, 0.0), (0.1, -1.0)])
def test_shrink_rejects_nonpositive_eps_or_delta(eps, delta):
    with pytest.raises(InputDomainError, match="positive"):
        shrink_argmin(Functional.zero(2), SQUARE, eps=eps, delta=delta)


@pytest.mark.parametrize("call", [
    lambda: shrink_argmin(Functional.zero(2), SQUARE, 0.1, float("nan")),
    lambda: shrink_argmin(Functional.zero(2), SQUARE, 0.1, float("inf")),
    lambda: shrink_argmin(Functional.zero(2), SQUARE, float("nan"), 0.1),
    lambda: exposing_functional(SQUARE, float("nan")),
], ids=["delta-nan", "delta-inf", "eps-nan", "expose-eps-nan"])
def test_shrink_and_expose_reject_nan_eps_and_nonfinite_delta(call):
    # a nan delta used to spin in the trimmed step, an infinite one to fail
    # on an empty max, and a nan eps to fail every exposing draw
    with pytest.raises(InputDomainError, match="positive"):
        call()


@pytest.mark.parametrize("call", [
    lambda f, body: argmin_set(f, body),
    lambda f, body: shrink_argmin(f, body, eps=0.1, delta=0.1),
], ids=["argmin", "shrink"])
def test_overflowing_vertex_values_rejected(call):
    # f's values on the vertices overflow to +-inf, so the minimum is -inf and
    # the active-set threshold nan: no vertex would be active. numpy's overflow
    # warning from the product is an error under pytest; the check comes after it.
    f, body = Functional((1e200, 0.0)), ConvexBody([[1e200, 0.0], [-1e200, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(InputDomainError, match="row 0.*overflow"):
        call(f, body)


def test_uniqueness_fraction_rejects_zero_samples():
    with pytest.raises(InputDomainError, match="sample_count"):
        uniqueness_fraction(SQUARE, 0, eps=0.1)
    for eps in (-1.0, float("nan")):
        with pytest.raises(InputDomainError, match="eps"):
            uniqueness_fraction(SQUARE, 10, eps=eps)


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


def test_argmin_set_keeps_the_vertex_values():
    rng = np.random.default_rng(6)
    for _ in range(10):
        body = random_body(rng)
        f = Functional(rng.standard_normal(body.dimension))
        a = argmin_set(f, body)
        assert np.array_equal(a.values, f(body.vertices))
        assert not a.values.flags.writeable
        assert all(type(i) is int for i in a.active_indices)
        # the values are no part of the set's identity
        assert a == polytope.ArgminSet(a.value, a.active_indices, a.diameter, a.values + 1.0)
        rep = semicontinuity_probe(f, body, Functional(np.ones(body.dimension)), [0.5, 0.25])
        assert rep.base == a and np.array_equal(rep.base.values, a.values)
        assert (rep.base_value, rep.base_diameter) == (a.value, a.diameter)


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
    fs, bodies = [], []
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(3, 12))
        bodies.append(ConvexBody(rng.integers(-3, 4, size=(k, n)).astype(float)))
        fs.append(Functional(rng.integers(-2, 3, size=n).astype(float)))
    for f, body, (m, active) in zip(fs, bodies, _argmin_bruteforce(fs, bodies, tol=0.0)):
        a = argmin_set(f, body, tol=0.0)
        assert a.value == m
        assert a.active_indices == active


def _numpy_scalar_scan(f, body, tol=1e-9):
    """The oracle's scan as it was first written, on numpy scalars."""
    vals = [float(sum(c * x for c, x in zip(f.coefficients, v))) for v in body.vertices]
    m = min(vals)
    active = [i for i, v in enumerate(vals) if v <= m + tol * (1.0 + abs(m))]
    return m, tuple(active)


def test_bruteforce_oracle_equals_numpy_scalar_scan():
    rng = np.random.default_rng(11)
    fs, bodies = [], []
    for trial in range(200):
        body = random_body(rng)
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        f = Functional(size * rng.standard_normal(body.dimension))
        if trial % 2:
            # near-ties: copies of the minimizing vertex raised by multiples of
            # the active-set tolerance, on both sides of its threshold
            vals = body.vertices @ f.coefficients
            m = float(vals.min())
            x0 = body.vertices[int(vals.argmin())]
            step = f.coefficients / float(f.coefficients @ f.coefficients)
            extra = [x0 + c * 1e-9 * (1.0 + abs(m)) * step for c in (0.0, 0.5, 0.999, 1.001, 1.5)]
            body = ConvexBody(np.vstack([body.vertices, extra]))
        fs.append(f)
        bodies.append(body)
    # one block of mixed dimensions and vertex counts
    for f, body, (m, active) in zip(fs, bodies, _argmin_bruteforce(fs, bodies)):
        m_ref, active_ref = _numpy_scalar_scan(f, body)
        assert type(m) is float
        assert m == m_ref
        assert active == active_ref


def _in_order_scan(f, body, tol):
    """m and the active vertices of f over the body, each value summed left to right."""
    vals = []
    for v in body.vertices.tolist():
        acc = 0.0
        for c, x in zip(f.coefficients.tolist(), v):
            acc += c * x
        vals.append(acc)
    m = min(vals)
    return m, tuple(i for i, v in enumerate(vals) if v <= m + tol * (1.0 + abs(m)))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_bruteforce_block_is_the_in_order_scan(tol):
    rng = np.random.default_rng(12)
    fs, bodies = [], []
    for n in range(2, 9):
        for k in (n + 1, 40):
            bodies.append(ConvexBody(rng.standard_normal((k, n))))
            fs.append(Functional(rng.standard_normal(n)))
    # tied vertices under a -0.0 coefficient: three share the minimum 1.0,
    # and the sum of the second body's first vertex is -0.0 in order
    bodies += [ConvexBody([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [0.0, 1.0, 2.0], [3.0, 3.0, 3.0]]),
               ConvexBody([[1.0, -0.0], [2.0, 1.0], [-1.0, 4.0]])]
    fs += [Functional([1.0, 1.0, -0.0]), Functional([-0.0, 1.0])]
    block = _argmin_bruteforce(fs, bodies, tol)
    assert len(block) == len(bodies)
    for f, body, (m, active) in zip(fs, bodies, block):
        m_ref, active_ref = _in_order_scan(f, body, tol)
        assert type(m) is float and m == m_ref
        assert active == active_ref and all(type(i) is int for i in active)
    assert block[-2][1] == (0, 1, 2)
    assert block[-1] == (-0.0, (0,))
    assert _argmin_bruteforce([], []) == []


def test_bruteforce_oracle_is_independent_of_the_engine():
    # no matrix product, and no name the experiments module imports from polytope
    from torusgeo import experiments
    tree = ast.parse(textwrap.dedent(inspect.getsource(_argmin_bruteforce)))
    imported = {a.asname or a.name for node in ast.walk(ast.parse(inspect.getsource(experiments)))
                if isinstance(node, ast.ImportFrom) and node.module == "polytope"
                for a in node.names}
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"dot", "matmul", "einsum", "inner", "tensordot"}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported and not read & imported


# -- diameters ------------------------------------------------------------------

def pairwise_diameter(p):
    """The diameter formula `_diameter` reproduces: the root of the largest sum
    of a pair's squared coordinate differences, added in order."""
    sq = (p[:, None] - p[None]) ** 2
    total = sq[..., 0]
    for c in range(1, p.shape[1]):
        total = total + sq[..., c]
    return float(np.sqrt(total.max()))


def test_diameters_are_the_pairwise_formula_bit_for_bit():
    # every n from 1 to 20 and n around and past 128 (the sizes where numpy's
    # own pairwise sum of n terms differs from the in-order one), every k from
    # 1 to 45, duplicate vertices, repeated shapes and a set of equal points
    rng = np.random.default_rng(23)
    sets = []
    for n in range(1, 21):
        for k in range(1, 46):
            p = rng.standard_normal((k, n)) * rng.choice([1e-3, 1.0, 1e3])
            if k > 2:
                p[rng.integers(1, k)] = p[0]
            sets.append(p)
    sets += [rng.standard_normal((40, 8)) for _ in range(12)] + [np.ones((5, 3))] * 3
    sets += [rng.standard_normal((k, n)) * rng.choice([1e-3, 1.0, 1e3])
             for n in (127, 128, 129, 136, 300) for k in (2, 7)]
    assert [polytope._diameter(p).hex() for p in sets] == [pairwise_diameter(p).hex() for p in sets]


def test_all_active_argmin_returns_pairwise_diameter_computed_once(monkeypatch):
    calls = []
    real = polytope._diameter

    def counted(pts):
        calls.append(pts.tobytes())
        return real(pts)

    monkeypatch.setattr(polytope, "_diameter", counted)
    rng = np.random.default_rng(12)
    bodies = [random_body(rng) for _ in range(20)]
    zeros = [Functional.zero(body.dimension) for body in bodies]
    eps = [1e-3 * pairwise_diameter(body.vertices) for body in bodies]
    # the whole body is f = 0's argmin face: the batch exposes inside it
    results = polytope.shrink_argmin_batch(zeros, bodies, eps, [0.1] * 20, list(range(20)))
    for body, zero, res in zip(bodies, zeros, results):
        assert res.before.diameter == body.diameter == pairwise_diameter(body.vertices)
        for _ in range(3):
            assert argmin_set(zero, body).diameter == body.diameter
    # each body's diameter is computed once
    whole = [body.vertices.tobytes() for body in bodies]
    assert [key for key in calls if key in whole] == whole


def fraction_one_at_a_time(body, sample_count, eps, seed):
    """`uniqueness_fraction` with one diameter per sample."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((sample_count, body.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = dirs @ body.vertices.T
    m = vals.min(axis=1)
    hits = 0
    for i in range(sample_count):
        active = body.vertices[vals[i] <= m[i] + polytope.DEFAULT_TOL * (1.0 + abs(m[i]))]
        if len(active) == 1 or pairwise_diameter(active) <= eps:
            hits += 1
    return hits / sample_count


def test_uniqueness_fraction_equals_one_diameter_per_sample():
    rng = np.random.default_rng(24)
    bodies = [SQUARE, ConvexBody([(0.0, 0.0), (1e-10, 0.0), (1.0, 1.0)])]
    for _ in range(20):
        body = random_body(rng)
        bodies.append(body)
        # exact and near copies of three vertices make multi-vertex active sets
        near = body.vertices[:3] + 1e-10 * rng.standard_normal((3, body.dimension))
        bodies.append(ConvexBody(np.vstack([body.vertices, body.vertices[:3], near])))
    for i, body in enumerate(bodies):
        for eps in (0.0, 1e-12, 1e-9, 1.0):
            assert uniqueness_fraction(body, 300, eps, seed=i) \
                == fraction_one_at_a_time(body, 300, eps, seed=i)


# -- semicontinuity -------------------------------------------------------------

def test_probe_stable_unique_minimizer():
    scales = [2.0 ** (-k) for k in range(1, 15)]
    rep = semicontinuity_probe(Functional((1.0, 1.0)), SQUARE,
                               Functional((0.3, -0.2)), scales)
    assert rep.tail_max_error <= scales[len(scales) // 2]
    assert rep.diameter_violations == 0
    assert rep.passed


def test_probe_strict_diameter_drop():
    # perturbing an edge-aligned functional exposes a single corner
    scales = [2.0 ** (-k) for k in range(1, 12)]
    rep = semicontinuity_probe(Functional((1.0, 0.0)), SQUARE,
                               Functional((0.0, 1.0)), scales)
    assert rep.base_diameter == pytest.approx(1.0)
    assert all(d == 0.0 for d in rep.diameters)
    assert rep.diameter_violations == 0


def test_probe_rejects_bad_scales():
    # not decreasing; a tail past the last scale, before the first, or of no scales
    for scales, tail_start in [([0.5, 0.5], None), ([0.5, 0.25], 2), ([0.5, 0.25], -1), ([], None)]:
        with pytest.raises(InputDomainError):
            semicontinuity_probe(Functional((1.0, 0.0)), SQUARE,
                                 Functional((0.0, 1.0)), scales, tail_start)


def test_probe_random_bodies_no_violations():
    rng = np.random.default_rng(3)
    scales = [2.0 ** (-k) for k in range(1, 20)]
    for _ in range(20):
        body = random_body(rng)
        f = Functional(rng.standard_normal(body.dimension))
        p = Functional(rng.standard_normal(body.dimension))
        rep = semicontinuity_probe(f, body, p, scales)
        assert rep.diameter_violations == 0


# -- exposing_functional ----------------------------------------------------------

def test_expose_unit_square():
    g, face = exposing_functional(SQUARE, eps=0.1, seed=0)
    assert face == argmin_set(g, SQUARE)
    assert face.diameter <= 0.1
    assert g.norm == pytest.approx(1.0)


def test_expose_single_point_body():
    pt = ConvexBody([(0.3, -0.7, 2.0)])
    g, face = exposing_functional(pt, eps=1e-9, seed=1)
    assert face == argmin_set(g, pt)
    assert face.diameter == 0.0


def test_expose_random_bodies_hits_single_vertex():
    rng = np.random.default_rng(4)
    for trial in range(50):
        body = random_body(rng)
        g, face = exposing_functional(body, eps=1e-6, seed=trial)
        # oracle: the drawn direction's argmin is exactly one vertex
        vals = g(body.vertices)
        assert (vals <= vals.min() + 1e-9 * (1 + abs(vals.min()))).sum() == 1
        assert face == argmin_set(g, body)
        assert face.value == float(vals.min())


def test_expose_rejects_nonpositive_eps():
    with pytest.raises(InputDomainError):
        exposing_functional(SQUARE, eps=0.0)


# -- shrink_argmin -----------------------------------------------------------------

def test_shrink_zero_functional_on_square():
    res = shrink_argmin(Functional.zero(2), SQUARE, eps=1e-3, delta=1.0, seed=0)
    a = argmin_set(res.functional, SQUARE)
    assert len(a.active_indices) == 1
    assert res.after.diameter == 0.0
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
    assert res.after.diameter == 0.0
    assert np.linalg.norm(res.functional.coefficients - f.coefficients) <= 0.5


def test_shrink_delta_below_tolerance_resolution():
    # t * g cannot separate (0, 0) from (0, 1) under the active-set tolerance
    f = Functional((1.0, 0.0))
    with pytest.raises(PerturbationFailureError, match="below what tol = 1e-09 can resolve"):
        shrink_argmin(f, SQUARE, eps=1e-3, delta=1e-10)
    res = shrink_argmin(f, SQUARE, eps=1e-3, delta=1e-8)
    assert res.t == 1.0000000000000002e-8
    assert res.after.diameter == 0.0


def test_shrink_degenerate_segment():
    seg = ConvexBody([(0.0, 0.0), (1.0, 0.0)])
    res = shrink_argmin(Functional((0.0, 1.0)), seg, eps=1e-6, delta=1.0, seed=2)
    assert res.before.diameter == pytest.approx(1.0)
    assert res.after.diameter == 0.0
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
            assert res.after.diameter <= 1e-3 * body.diameter


def test_shrink_reports_its_realized_shift():
    rng = np.random.default_rng(12)
    for trial in range(20):
        body = random_body(rng)
        for size in (1.0, 1e3):
            f = Functional(size * rng.standard_normal(body.dimension))
            res = shrink_argmin(f, body, eps=1e-3 * body.diameter, delta=0.1, seed=trial)
            assert res.shift == polytope._norm(res.functional.coefficients - f.coefficients)
            assert res.shift <= 0.1


def test_shrink_functional_has_the_bits_of_f_plus_t_g():
    # f* is built from arrays, not from Functional arithmetic: the same coefficients, bit for bit
    rng = np.random.default_rng(9)
    for trial in range(20):
        body = random_body(rng)
        for size in (0.0, 1.0, 1e3):
            f = Functional(size * rng.standard_normal(body.dimension))
            eps = 1e-3 * body.diameter
            res = shrink_argmin(f, body, eps, delta=0.1, seed=trial)
            active = list(res.before.active_indices)
            face = body if len(active) == len(body.vertices) else ConvexBody(body.vertices[active])
            g, _ = exposing_functional(face, eps / 2.0, seed=trial)
            assert np.array_equal(res.functional.coefficients, (f + res.t * g).coefficients)
            assert np.linalg.norm(res.functional.coefficients - f.coefficients) \
                == polytope._norm(res.functional.coefficients - f.coefficients)


def test_shrink_returns_its_argmin_sets():
    # before is f's argmin set, after is f*'s: whole-body (f = 0), vertex and edge faces
    rng = np.random.default_rng(8)
    cases = [(SQUARE, Functional((1.0, 0.0)))]
    for _ in range(20):
        body = random_body(rng)
        cases += [(body, Functional(size * rng.standard_normal(body.dimension)))
                  for size in (0.0, 1.0, 1e3)]
    for trial, (body, f) in enumerate(cases):
        res = shrink_argmin(f, body, eps=1e-3 * body.diameter, delta=0.1, seed=trial)
        assert res.before == argmin_set(f, body)
        assert res.after == argmin_set(res.functional, body)


# -- shrink_argmin_batch -------------------------------------------------------------

# two vertices 2e-9 apart: a third of the draws leave both active, wider than eps / 2
REDRAW = ConvexBody([(0.0, 0.0), (2e-9, 0.0)])
# f's argmin is the first vertex; at the first t a near tie keeps both active for some g
HALVING = ConvexBody([(0.0, 1e6), (0.03, 1e6 + 1.5e-3)])
SEGMENT = ConvexBody([(0.0, 0.0), (1e-12, 0.0)])


def batch_row(kind: int, seed: int) -> tuple:
    """(f, body, eps, delta, seed) of one batch row of the given kind."""
    rng = np.random.default_rng(seed)
    if kind in (0, 1):  # a random body, f = 0 or f with a one-vertex face
        body = random_body(rng)
        f = Functional(kind * 10.0 ** rng.integers(0, 4) * rng.standard_normal(body.dimension))
        return f, body, 1e-3 * body.diameter, 0.1, seed
    if kind == 2:  # a cube under a coordinate functional: a face of 2^(n-1) vertices
        n = int(rng.integers(2, 6))
        body = ConvexBody(np.array(np.meshgrid(*[[0.0, 1.0]] * n)).reshape(n, -1).T)
        return Functional(np.eye(n)[0]), body, 1e-3 * body.diameter, 0.1, seed
    if kind == 3:
        return Functional.zero(2), REDRAW, 1e-12, 10.0, seed
    if kind == 4:
        return Functional((0.0, 1.0)), HALVING, 1e-3, 0.1, seed
    if kind == 5:  # delta below what the tolerance resolves
        return Functional((1.0, 0.0)), SQUARE, 1e-3, 1e-12, seed
    return Functional.zero(2), SEGMENT, 2e-13, 0.1, seed  # no draw exposes a point


def entry_bits(entry) -> tuple:
    """Everything a batch entry holds, as bytes, hex floats and strings."""
    if isinstance(entry, Exception):
        return type(entry).__name__, str(entry)

    def argmin_bits(a):
        return a.value.hex(), a.active_indices, a.diameter.hex(), a.values.tobytes()

    return (entry.functional.coefficients.tobytes(), entry.t.hex(), entry.shift.hex(),
            [t.hex() for t in entry.tested_t], argmin_bits(entry.before), argmin_bits(entry.after))


def alone(row):
    try:
        return shrink_argmin(*row)
    except (ExposureFailureError, PerturbationFailureError) as e:
        return e


def assert_batch_is_each_row_alone(rows, order):
    want = [entry_bits(alone(row)) for row in rows]
    for perm in (range(len(rows)), order):
        batch = polytope.shrink_argmin_batch(*[list(col) for col in zip(*[rows[i] for i in perm])])
        assert [entry_bits(entry) for entry in batch] == [want[i] for i in perm]


def test_shrink_batch_rows_cover_redraws_halvings_and_errors():
    rows = [batch_row(kind, seed) for kind in range(7) for seed in range(6)]
    outs = [alone(row) for row in rows]
    kinds = [kind for kind in range(7) for _ in range(6)]
    assert {type(o).__name__ for o in outs} == {"PerturbationResult", "PerturbationFailureError",
                                               "ExposureFailureError"}
    assert all("below what tol" in str(o) for o, kind in zip(outs, kinds) if kind == 5)
    # f's argmin faces: the whole body, one vertex, and proper faces of many vertices
    faces = [len(o.before.active_indices) for o, kind in zip(outs, kinds) if kind < 3]
    assert min(faces) == 1 and max(faces) > 1
    # REDRAW rows whose first draw was rejected, HALVING rows that halved past k = 0
    redrawn = [exposing_functional(REDRAW, 5e-13, seed=seed)[0] for seed in range(6)]
    first = [np.random.default_rng(seed).standard_normal(2) for seed in range(6)]
    assert any(not np.array_equal(g.coefficients, v / np.linalg.norm(v))
               for g, v in zip(redrawn, first))
    assert max(len(o.tested_t) for o, kind in zip(outs, kinds) if kind == 4) > 1
    assert_batch_is_each_row_alone(rows, np.random.default_rng(25).permutation(len(rows)))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2 ** 31 - 1)), min_size=1,
                max_size=10), st.data())
@settings(max_examples=40, deadline=None)
def test_shrink_batch_equals_each_row_alone_hypothesis(specs, data):
    rows = [batch_row(kind, seed) for kind, seed in specs]
    assert_batch_is_each_row_alone(rows, data.draw(st.permutations(range(len(rows)))))


class Replay(np.random.Generator):
    """A generator whose `standard_normal` hands out the given draws in order."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = list(draws)

    def standard_normal(self, size=None):
        return self.draws.pop(0)


def shared_draws(rows, seed) -> list:
    """Each row's exposing draws from one generator: every round, each live row in row order."""
    gen = np.random.default_rng(seed)
    faces = [ConvexBody(body.vertices[list(argmin_set(f, body).active_indices)])
             for f, body, *_ in rows]
    draws = [[] for _ in rows]
    live = range(len(rows))
    for _ in range(polytope._EXPOSING_DRAWS):
        for i in live:
            draws[i].append(gen.standard_normal(faces[i].dimension))
        live = [i for i in live if not exposes(draws[i][-1], faces[i], rows[i][2] / 2.0)]
    return draws


def exposes(v, face, eps) -> bool:
    nv = polytope._norm(v)
    return nv != 0.0 and argmin_set(Functional(v / nv), face).diameter <= eps


def test_shrink_batch_rows_can_share_a_generator():
    # one Generator for every row: each row's entry is the one it gets alone
    # from the draws that fall to it when each round draws for the live rows
    # in row order; redraws (kind 3) and exhausted draws (kind 6) shift the
    # later rows' draws
    rows = [batch_row(kind, seed) for seed in range(3) for kind in range(7)]
    gen = np.random.default_rng(17)
    got = polytope.shrink_argmin_batch(*[list(col) for col in zip(*rows)][:4], [gen] * len(rows))
    draws = shared_draws(rows, 17)
    want = [alone(row[:4] + (Replay(d),)) for row, d in zip(rows, draws)]
    assert [entry_bits(e) for e in got] == [entry_bits(e) for e in want]
    assert max(len(d) for d in draws) == polytope._EXPOSING_DRAWS


def test_shrink_batch_exhausted_schedule_is_an_error(monkeypatch):
    # g = f = (0, 1) on the square keeps the bottom edge (diameter 1 > eps) active
    # at every t without violating either inequality, so the schedule runs out
    ordinary = batch_row(1, 3)
    want = entry_bits(alone(ordinary))

    def expose(bodies, eps, seeds, _real=polytope._expose):
        out = _real(bodies, eps, seeds)
        g = Functional((0.0, 1.0))
        out[1] = (g, argmin_set(g, bodies[1]))
        return out

    monkeypatch.setattr(polytope, "_expose", expose)
    rows = [ordinary, (Functional((0.0, 1.0)), SQUARE, 0.1, 0.5, 0)]
    got, stuck = polytope.shrink_argmin_batch(*[list(col) for col in zip(*rows)])
    assert entry_bits(got) == want
    assert isinstance(stuck, PerturbationFailureError)
    assert str(stuck) == "schedule of 60 halvings exhausted without shrinking the argmin"


def test_shrink_batch_rejects_mismatched_or_nonpositive_rows():
    zero = Functional.zero(2)
    with pytest.raises(InputDomainError, match="one entry per row"):
        polytope.shrink_argmin_batch([zero], [SQUARE, SQUARE], [0.1], [0.1], [0])
    with pytest.raises(InputDomainError, match="positive"):
        polytope.shrink_argmin_batch([zero] * 2, [SQUARE] * 2, [0.1, 0.0], [0.1] * 2, [0, 1])
    assert polytope.shrink_argmin_batch([], [], [], [], []) == []


# -- uniqueness_fraction --------------------------------------------------------------

def test_uniqueness_fraction_square():
    frac = uniqueness_fraction(SQUARE, sample_count=10000, eps=1e-6, seed=0)
    assert frac >= 0.999


def test_uniqueness_fraction_degenerate_cases():
    pt = ConvexBody([(1.0, 2.0)])
    assert uniqueness_fraction(pt, 100, eps=1e-9, seed=1) == 1.0
    assert uniqueness_fraction(SQUARE, 100, eps=2.0, seed=2) == 1.0  # eps >= diam K


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 1e3]),
       st.floats(1e-3, 1.0))
@settings(max_examples=30, deadline=None)
def test_shrink_internal_inequalities_hypothesis(seed, size, delta):
    # the two internal assertions raise on violation, so success is the test
    rng = np.random.default_rng(seed)
    body = random_body(rng)
    f = Functional(size * rng.standard_normal(body.dimension))
    res = shrink_argmin(f, body, eps=1e-3 * body.diameter, delta=delta, seed=seed)
    assert res.after.diameter <= 1e-3 * body.diameter
    assert np.linalg.norm(res.functional.coefficients - f.coefficients) <= delta
