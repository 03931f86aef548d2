"""Finsler metric variants: evaluation, convexity, comparison constants."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo import (
    ConformalFactor,
    ConformalMetric,
    RandersMetric,
    RiemannianMetric,
    comparison_constant,
    euclidean,
    evaluate,
    seminorm_distance,
    verify_convexity,
)
from torusgeo.errors import (
    InputDomainError,
    InvalidMetricError,
    NotAConformalFactorError,
)
from torusgeo.fourier import Fourier2D
from torusgeo.metrics import fiber_hessian, translation_curvature


def random_metrics(seed=0):
    rng = np.random.default_rng(seed)
    return [
        euclidean(),
        RiemannianMetric(Fourier2D(1.5, {(1, 0): (0.2, 0.0)}), 0.1,
                         Fourier2D(1.2, {(0, 1): (0.0, 0.15)})),
        RandersMetric(euclidean(), (0.5, 0.0)),
        RandersMetric(euclidean(), (Fourier2D(0.2, {(1, 1): (0.1, 0.0)}),
                                    Fourier2D(0.0, {(0, 1): (0.0, 0.1)}))),
        ConformalMetric(euclidean(), ConformalFactor(
            Fourier2D(1.0, {(0, 1): (0.2, 0.0)}))),
    ], rng


# -- evaluate -----------------------------------------------------------------

def test_euclidean_345():
    assert evaluate(euclidean(), (0.1, 0.9), (3.0, 4.0)) == pytest.approx(5.0)


def test_randers_shifts_by_drift():
    m = RandersMetric(euclidean(), (0.5, 0.0))
    assert evaluate(m, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.5)
    assert evaluate(m, (0.0, 0.0), (-1.0, 0.0)) == pytest.approx(0.5)


def test_positive_homogeneity_factor_two():
    for m in random_metrics()[0]:
        f1 = evaluate(m, (0.3, 0.4), (1.0, 0.0))
        f2 = evaluate(m, (0.3, 0.4), (2.0, 0.0))
        assert abs(f2 - 2.0 * f1) <= 1e-12 * f2


def test_zero_vector_gives_zero():
    for m in random_metrics()[0]:
        assert evaluate(m, (0.5, 0.5), (0.0, 0.0)) == 0.0


def test_nonfinite_input_rejected():
    with pytest.raises(InputDomainError):
        evaluate(euclidean(), (np.nan, 0.0), (1.0, 0.0))
    with pytest.raises(InputDomainError):
        evaluate(euclidean(), (0.0, 0.0), (np.inf, 1.0))


def test_homogeneity_property_bulk():
    # 10^3 random (x, v, a), a in (0, 10]
    metrics, rng = random_metrics(7)
    for _ in range(1000 // len(metrics)):
        for m in metrics:
            x = rng.random(2)
            v = rng.standard_normal(2)
            if np.linalg.norm(v) < 1e-6:
                continue
            a = rng.uniform(1e-3, 10.0)
            fa = evaluate(m, x, a * v)
            f1 = evaluate(m, x, v)
            assert abs(fa - a * f1) <= 1e-10 * a * f1


# -- convexity ----------------------------------------------------------------

def test_euclidean_hessian_is_twice_identity():
    rep = verify_convexity(euclidean(), sample_count=64, seed=0)
    assert rep.min_eigenvalue == pytest.approx(2.0, abs=1e-5)
    assert rep.passed


def test_randers_half_drift_convex():
    # oracle: brute-force eigenvalue scan over 10^4 fiber directions
    m = RandersMetric(euclidean(), (0.5, 0.0))
    th = np.linspace(0.0, 2 * np.pi, 10000, endpoint=False)
    v = np.stack([np.cos(th), np.sin(th)], axis=-1)
    x = np.zeros_like(v) + 0.5
    h = fiber_hessian(m, x, v)
    tr = h[:, 0, 0] + h[:, 1, 1]
    disc = np.sqrt((h[:, 0, 0] - h[:, 1, 1]) ** 2 + 4 * h[:, 0, 1] ** 2)
    assert (0.5 * (tr - disc)).min() > 0.0
    assert verify_convexity(m, sample_count=256, seed=1).passed


def test_invalid_randers_rejected():
    with pytest.raises(InvalidMetricError):
        RandersMetric(euclidean(), (1.2, 0.0))


def test_riemannian_positive_definiteness_enforced():
    with pytest.raises(InvalidMetricError):
        RiemannianMetric(1.0, 2.0, 1.0)  # det = 1 - 4 < 0


def test_fiber_hessian_makes_one_field_pass(monkeypatch):
    from torusgeo.fourier import FieldPass
    m = RiemannianMetric(Fourier2D(1.5, {(1, 0): (0.2, 0.0)}), Fourier2D(0.1, {(1, 1): (0.1, 0.0)}),
                         Fourier2D(1.2, {(0, 1): (0.0, 0.15)}))
    rng = np.random.default_rng(23)
    x, v = rng.random((40, 2)), rng.standard_normal((40, 2))
    calls = []
    original = FieldPass.__call__

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(FieldPass, "__call__", counted)
    h = fiber_hessian(m, x, v)
    assert len(calls) == 1
    # v^T g v has the Hessian 2 g exactly
    g11, g12, g22 = m.g11(x), m.g12(x), m.g22(x)
    assert np.allclose(h, 2.0 * np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2),
                       rtol=0.0, atol=1e-9)


# -- certified validity -----------------------------------------------------------

# each dips below zero only between the points of a 128^2 grid: sin 2 pi 64 x
# vanishes at every x = j/128
_WAVE = Fourier2D(0.0, {(64, 0): (0.0, 1.02)})


@pytest.mark.parametrize("build, error", [
    (lambda: ConformalFactor(1.0 + _WAVE), NotAConformalFactorError),  # min -0.02
    (lambda: RiemannianMetric(1.0, _WAVE, 1.0), InvalidMetricError),  # det g reaches -0.04
    (lambda: RandersMetric(euclidean(), (_WAVE, 0.0)), InvalidMetricError),  # |beta| 1.02
], ids=["factor", "riemannian-det", "randers-dual-norm"])
def test_negative_between_sample_points_rejected(build, error):
    with pytest.raises(error, match="is not positive"):
        build()


def test_positive_factor_too_close_to_zero_is_uncertified():
    # min 1e-4: the Lipschitz bound would need an n of about 44,000 to certify it
    with pytest.raises(NotAConformalFactorError, match="uncertified"):
        ConformalFactor(Fourier2D(1.0, {(1, 0): (0.9999, 0.0)}))


def test_every_built_factor_and_metric_still_certified(monkeypatch):
    # the rest of tests/ constructs its own metrics and factors as it runs
    from torusgeo import metrics
    from torusgeo.experiments import cs_property_metrics, height_bump, random_factor, random_metric
    cs_property_metrics()
    random_metrics()
    _kernel_metrics()
    for t in (0.01, 0.05, 0.1, 0.2, 0.5):
        height_bump(t)
    grids = []

    def spied(series, n, _fn=metrics.on_grid):
        grids.append(n)
        return _fn(series, n)

    monkeypatch.setattr(metrics, "on_grid", spied)
    rng = np.random.default_rng(29)
    for _ in range(1000):
        random_factor(rng)
    assert set(grids) == {16}  # each draw certified on the first grid
    for _ in range(1000):
        random_metric(rng)


# -- comparison constant --------------------------------------------------------

def test_comparison_constant_euclidean():
    c = comparison_constant(euclidean())
    assert 1.0 <= c <= 1.011


def test_comparison_constant_doubled_metric():
    m = ConformalMetric(euclidean(), ConformalFactor.constant(4.0))
    c = comparison_constant(m)
    assert 2.0 <= c <= 2.022


def test_comparison_constant_randers_half():
    # F ranges over [|v|/2, 3|v|/2]; max(F/|v|, |v|/F) = max(3/2, 2) = 2
    m = RandersMetric(euclidean(), (0.5, 0.0))
    c = comparison_constant(m)
    assert 2.0 <= c <= 2.022


def test_comparison_constant_certifies_an_aliased_factor():
    # lambda = 1 + 0.5 sin(2 pi 16 x) is 1 on every point of a 32^2 grid, but
    # its c_F is 1/sqrt(0.5); the converged (1,0) loop's top segment speed is
    # 1.39, which a constant sampled as 1.01 (cap 1.0201) would reject
    from torusgeo import SolverConfig, shortest_loop, verify_speed_cap
    m = ConformalMetric(euclidean(), ConformalFactor(Fourier2D(1.0, {(16, 0): (0.0, 0.5)})))
    assert comparison_constant(m) >= np.sqrt(2.0)
    res = shortest_loop(m, (1, 0), SolverConfig(n_vertices=128, max_iters=4000, seed=0))
    assert res.converged and res.stop == "gradient"
    assert float(np.linalg.norm(res.loop.velocities, axis=1).max()) > 1.3
    assert verify_speed_cap(m, res.loop)


def sampled_comparison_constant(metric, n=32):
    """max(F, 1/F, 1) over an n^2 grid and n unit directions, inflated: a lower estimate."""
    pts = Fourier2D.grid(n).reshape(-1, 2)
    th = np.arange(n) * 2.0 * np.pi / n
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    f = metric.speed(pts[:, None, :], dirs[None, :, :])
    return max(float(f.max()), float(1.0 / f.min()), 1.0) * 1.01


def test_comparison_constant_of_the_experiments_metrics_is_tight():
    # where the extremes of F/|v| fall on the grid, the certificate is the
    # sampled value to rounding
    from torusgeo.experiments import height_bump
    metrics = [euclidean(), RandersMetric(euclidean(), (0.3, 0.0))]
    metrics += [ConformalMetric(euclidean(), height_bump(t)) for t in (0.05, 0.1, 0.2)]
    for m in metrics:
        sampled = sampled_comparison_constant(m)
        assert abs(comparison_constant(m) - sampled) <= 2.0 * np.spacing(sampled)


def test_sandwich_inequality_bulk():
    metrics, rng = random_metrics(11)
    for m in metrics:
        c = comparison_constant(m)
        th = rng.uniform(0, 2 * np.pi, 2000)
        v = np.stack([np.cos(th), np.sin(th)], axis=-1)
        x = rng.random((2000, 2))
        f = m.speed(x, v)
        assert np.all(f / c <= 1.0 + 1e-12)
        assert np.all(1.0 <= c * f + 1e-12)


def test_degenerate_metric_rejected():
    # F(-1, 0) = 1e-10: vanishes on a unit vector up to sampling tolerance
    m = RandersMetric(euclidean(), (1.0 - 1e-10, 0.0))
    with pytest.raises(InvalidMetricError):
        comparison_constant(m)


def test_comparison_constant_and_curvature_are_certified_once_per_metric(monkeypatch):
    from torusgeo import metrics
    grids = []

    def spied(series, n, _fn=metrics.on_grid):
        grids.append(n)
        return _fn(series, n)

    monkeypatch.setattr(metrics, "on_grid", spied)
    base = RiemannianMetric(Fourier2D(1.5, {(1, 0): (0.2, 0.0)}), 0.1, 1.2)
    m = ConformalMetric(RandersMetric(base, (0.2, 0.1)), ConformalFactor.constant(2.0))
    grids.clear()
    first = (comparison_constant(m), translation_curvature(m))
    certified = len(grids)
    assert certified > 0
    assert (comparison_constant(m), translation_curvature(m)) == first
    assert len(grids) == certified


# -- translation curvature ------------------------------------------------------

def sampled_translation_curvature(metric, rng, count=200, step=1e-5):
    """The largest norm of the central difference of `kernel`'s grad_x F^2 at count
    random points x and unit vectors v: a lower estimate of the sup."""
    x = rng.random((count, 2))
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    v = np.stack([np.cos(th), np.sin(th)], axis=-1)
    cols = [(metric.kernel(x + step * e, v)[1] - metric.kernel(x - step * e, v)[1]) / (2.0 * step)
            for e in np.eye(2)]
    return float(np.linalg.norm(np.stack(cols, axis=-1), ord=2, axis=(-2, -1)).max())


def test_translation_curvature_bounds_the_kernels_second_differences():
    from torusgeo.experiments import height_bump
    aliased = ConformalMetric(euclidean(), ConformalFactor(Fourier2D(1.0, {(16, 0): (0.0, 0.5)})))
    # its bound is g12's alone, reached where |cos 2 pi x| = 2 |vx vy| = 1
    shear = RiemannianMetric(1.0, Fourier2D(0.0, {(1, 0): (0.3, 0.0)}), 1.0)
    metrics = _kernel_metrics() + [ConformalMetric(euclidean(), height_bump(t))
                                   for t in (0.05, 0.2)] + [aliased, shear]
    rng = np.random.default_rng(17)
    for m in metrics:
        # 1e-6 relative covers the difference's own error
        assert sampled_translation_curvature(m, rng) <= translation_curvature(m) * (1.0 + 1e-6)


@pytest.mark.parametrize("t", [0.01, 0.05, 0.2, 0.5])
def test_translation_curvature_of_the_bump_is_its_trough_curvature(t):
    # d^2/dy^2 of 1 + t sin^2(pi (y - 1/4)) is 2 pi^2 t cos(2 pi (y - 1/4)): the bound is its sup
    from torusgeo.experiments import height_bump
    ref = 2.0 * np.pi ** 2 * t
    assert abs(translation_curvature(ConformalMetric(euclidean(), height_bump(t))) - ref) \
        <= 2.0 * np.spacing(ref)


def test_translation_curvature_vanishes_without_x_dependence():
    for m in (euclidean(), RiemannianMetric(2.0, 0.3, 1.5), RandersMetric(euclidean(), (0.3, -0.2)),
              RandersMetric(RiemannianMetric(2.0, 0.3, 1.5), (0.1, 0.4)),
              ConformalMetric(euclidean(), ConformalFactor.constant(3.0))):
        assert translation_curvature(m) == 0.0


# -- conformal scaling ----------------------------------------------------------

def test_conformal_identity_and_quadrupling():
    base = euclidean()
    rng = np.random.default_rng(13)
    x, v = rng.random((50, 2)), rng.standard_normal((50, 2))
    one = ConformalMetric(base, ConformalFactor.constant(1.0))
    four = ConformalMetric(base, ConformalFactor.constant(4.0))
    assert np.allclose(one.speed(x, v), base.speed(x, v), atol=1e-15)
    assert np.allclose(four.speed(x, v), 2.0 * base.speed(x, v), atol=1e-14)


def test_conformal_pointwise_value():
    lam = ConformalFactor(Fourier2D(1.0, {(0, 1): (0.2, 0.0)}))
    m = ConformalMetric(euclidean(), lam)
    assert evaluate(m, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(np.sqrt(1.2))


def test_nonpositive_factor_rejected():
    with pytest.raises(NotAConformalFactorError):
        ConformalFactor(Fourier2D(0.5, {(0, 1): (1.0, 0.0)}))
    with pytest.raises(NotAConformalFactorError):
        ConformalMetric(euclidean(), Fourier2D(0.5, {(0, 1): (1.0, 0.0)}))


@pytest.mark.parametrize("build", [
    lambda: ConformalFactor(Fourier2D(np.nan)),
    lambda: ConformalFactor(Fourier2D(np.inf)),
    lambda: ConformalMetric(euclidean(), np.nan),
    lambda: ConformalMetric(euclidean(), ConformalFactor(Fourier2D(np.nan))),
    lambda: RiemannianMetric(np.nan, 0.0, 1.0),
    lambda: RandersMetric(euclidean(), (np.nan, 0.0)),
    lambda: RandersMetric(euclidean(), (0.0, np.inf)),
], ids=["factor-nan", "factor-inf", "unverified-factor-nan", "conformal-metric-nan",
        "riemannian-nan", "randers-nan", "randers-inf"])
def test_non_finite_coefficients_rejected(build):
    # a nan coefficient passed every grid check (nan <= 0.0 is False), and the
    # conformal metric built on it gave a nan comparison constant
    with pytest.raises(InputDomainError, match="finite"):
        build()


def test_unverified_factor_dipping_below_zero_still_raises():
    # 0.05 + cos(2 pi x) is negative on a third of the torus
    dips = Fourier2D(0.05, {(1, 0): (1.0, 0.0)})
    with pytest.raises(NotAConformalFactorError):
        ConformalMetric(euclidean(), dips)


def test_verified_factor_evaluates_no_further_grid(monkeypatch):
    from torusgeo import fourier, metrics
    lam = ConformalFactor(Fourier2D(1.0, {(1, 1): (0.2, -0.1)}))
    base = euclidean()  # certified when built
    calls = []
    for module, name in ((fourier, "on_grid"), (fourier, "on_axes"), (metrics, "on_grid")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    m = ConformalMetric(base, lam)
    assert calls == []
    assert m.speed(np.array([0.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(np.sqrt(1.2))
    ConformalFactor(lam)  # the counter sees a positivity check
    assert calls


def test_conformal_composition():
    lam1 = ConformalFactor(Fourier2D(1.0, {(1, 0): (0.2, 0.0)}))
    lam2 = ConformalFactor(Fourier2D(1.5, {(0, 1): (0.0, 0.3)}))
    a = ConformalMetric(ConformalMetric(euclidean(), lam1), lam2)
    b = ConformalMetric(euclidean(), lam1 * lam2)
    rng = np.random.default_rng(17)
    x, v = rng.random((100, 2)), rng.standard_normal((100, 2))
    assert np.allclose(a.speed(x, v), b.speed(x, v), atol=1e-12)


def test_scaled_metric_keeps_invariants():
    m = ConformalMetric(euclidean(), ConformalFactor(
        Fourier2D(1.0, {(1, 1): (0.15, 0.1)})))
    assert verify_convexity(m, sample_count=128, seed=3).passed
    f1 = evaluate(m, (0.2, 0.8), (0.0, 1.0))
    f3 = evaluate(m, (0.2, 0.8), (0.0, 3.0))
    assert abs(f3 - 3.0 * f1) <= 1e-12 * f3


# -- seminorm distance -----------------------------------------------------------

def test_sample_count_and_k_max_validated():
    with pytest.raises(InputDomainError, match="sample_count"):
        verify_convexity(euclidean(), 0, 0)
    f = Fourier2D(0.3, {(1, 0): (0.2, -0.1)})
    with pytest.raises(InputDomainError, match="k_max"):
        seminorm_distance(f, f, k_max=-1)


def test_seminorm_identity_of_indiscernibles():
    f = Fourier2D(0.3, {(1, 0): (0.2, -0.1)})
    assert seminorm_distance(f, f) == 0.0


def test_seminorm_bounded_by_two():
    f = Fourier2D(100.0, {(2, 2): (50.0, 0.0)})
    g = Fourier2D(-3.0)
    assert seminorm_distance(f, g, k_max=40) < 2.0


def test_seminorm_constant_offset_closed_form():
    # f - g constant delta: every C^k norm is delta
    delta = 0.7
    f, g = Fourier2D(1.0 + delta), Fourier2D(1.0)
    k_max = 8
    expected = sum(2.0 ** (-k) for k in range(k_max + 1)) * delta / (1 + delta)
    assert seminorm_distance(f, g, k_max=k_max) == pytest.approx(expected, abs=1e-14)


def test_seminorm_metric_axioms():
    rng = np.random.default_rng(19)
    for _ in range(10):
        fs = [Fourier2D(rng.uniform(-1, 1),
                        {(1, 0): (rng.uniform(-1, 1), 0.0), (0, 1): (0.0, rng.uniform(-1, 1))})
              for _ in range(3)]
        dab = seminorm_distance(fs[0], fs[1])
        dba = seminorm_distance(fs[1], fs[0])
        dac = seminorm_distance(fs[0], fs[2])
        dcb = seminorm_distance(fs[2], fs[1])
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= dac + dcb + 1e-12


@given(st.floats(0.05, 5.0), st.integers(0, 2 ** 16))
@settings(max_examples=50, deadline=None)
def test_homogeneity_hypothesis(a, seed):
    rng = np.random.default_rng(seed)
    m = RandersMetric(euclidean(), (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    x, v = rng.random(2), rng.standard_normal(2)
    if np.linalg.norm(v) < 1e-6:
        return
    f1, fa = evaluate(m, x, v), evaluate(m, x, a * v)
    assert abs(fa - a * f1) <= 1e-10 * max(a * abs(f1), 1e-30)


# -- the fused kernel -------------------------------------------------------------

def _reference_kernel(metric, x, v):
    """F and the gradients of F^2 by per-field formulas, each field evaluated on its own."""
    vx, vy = v[..., 0], v[..., 1]
    if isinstance(metric, ConformalMetric):
        lam = metric.factor(x)
        fb, bx, bv = _reference_kernel(metric.base, x, v)
        gv = lam[..., None] * bv
        gx = lam[..., None] * bx
        fb2 = fb ** 2
        gx[..., 0] += metric.factor.derivative(1, 0)(x) * fb2
        gx[..., 1] += metric.factor.derivative(0, 1)(x) * fb2
        return np.sqrt(lam) * fb, gx, gv
    if isinstance(metric, RandersMetric):
        s, rx, rv = _reference_kernel(metric.riemannian, x, v)
        bx, by = metric.beta_x(x), metric.beta_y(x)
        f = s + bx * vx + by * vy
        ratio = f / s
        gv = np.empty_like(rv)
        gv[..., 0] = ratio * rv[..., 0] + 2.0 * f * bx
        gv[..., 1] = ratio * rv[..., 1] + 2.0 * f * by
        gx = np.empty_like(rx)
        for axis, d in ((0, (1, 0)), (1, (0, 1))):
            dbx, dby = metric.beta_x.derivative(*d)(x), metric.beta_y.derivative(*d)(x)
            gx[..., axis] = ratio * rx[..., axis] + 2.0 * f * (dbx * vx + dby * vy)
        return f, gx, gv
    a, b, c = metric.g11(x), metric.g12(x), metric.g22(x)
    f = np.sqrt(np.maximum(a * vx ** 2 + 2.0 * b * vx * vy + c * vy ** 2, 0.0))
    gv = np.stack([2.0 * (a * vx + b * vy), 2.0 * (b * vx + c * vy)], axis=-1)
    gx = np.empty_like(gv)
    for axis, d in ((0, (1, 0)), (1, (0, 1))):
        da, db, dc = (s.derivative(*d)(x) for s in (metric.g11, metric.g12, metric.g22))
        gx[..., axis] = da * vx ** 2 + 2.0 * db * vx * vy + dc * vy ** 2
    return f, gx, gv


def _kernel_metrics():
    riemannian = [
        RiemannianMetric(Fourier2D(1.5, {(1, 0): (0.2, 0.0)}), 0.1,
                         Fourier2D(1.2, {(0, 1): (0.0, 0.15)})),
        # the two diagonal fields list their shared modes in opposite orders
        RiemannianMetric(Fourier2D(2.0, {(1, 0): (0.2, 0.1), (1, -1): (0.05, 0.0)}),
                         Fourier2D(0.0, {(0, 1): (0.1, -0.05)}),
                         Fourier2D(2.0, {(1, -1): (0.1, 0.1), (1, 0): (0.0, 0.2)})),
    ]
    randers = [RandersMetric(euclidean(), (0.3, -0.2)),
               RandersMetric(riemannian[0], (Fourier2D(0.2, {(1, 1): (0.1, 0.0)}),
                                             Fourier2D(0.0, {(0, 1): (0.0, 0.1)})))]
    factor = ConformalFactor(Fourier2D(1.0, {(0, 1): (0.2, -0.1), (2, 1): (0.0, 0.1)}))
    bases = [euclidean()] + riemannian + randers
    return bases + [ConformalMetric(b, factor) for b in bases] \
        + [ConformalMetric(ConformalMetric(riemannian[1], factor), factor)]


def test_kernel_equals_speed_and_per_field_formulas():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 2.0, (5, 16, 2))
    v = rng.standard_normal((5, 16, 2))
    for m in _kernel_metrics():
        f, gx, gv = m.kernel(x, v)
        rf, rgx, rgv = _reference_kernel(m, x, v)
        assert np.array_equal(f, m.speed(x, v))
        assert np.array_equal(f, rf)
        assert np.array_equal(gx, rgx) and np.array_equal(gv, rgv)
        sx, sv = m.speed_sq_grads(x, v)
        assert np.array_equal(sx, gx) and np.array_equal(sv, gv)


def test_kernel_broadcasts_points_against_vectors():
    x = np.random.default_rng(4).random((6, 1, 2))
    v = np.array([[[1.0, 0.0], [0.6, -0.8], [0.0, 2.0]]])
    for m in (euclidean(), RandersMetric(euclidean(), (0.3, 0.1))):
        f, gx, gv = m.kernel(x, v)
        assert f.shape == (6, 3) and gx.shape == gv.shape == (6, 3, 2)
        assert m.speed(x, v).shape == (6, 3)


def test_randers_kernel_at_zero_vector_is_zero():
    m = RandersMetric(euclidean(), (0.3, 0.0))
    x = np.array([[0.2, 0.7], [0.5, 0.5]])
    v = np.array([[0.0, 0.0], [1.0, 0.0]])
    f, gx, gv = m.kernel(x, v)
    assert f[0] == 0.0
    assert np.array_equal(gx[0], [0.0, 0.0]) and np.array_equal(gv[0], [0.0, 0.0])
    # away from v = 0 the guard changes nothing
    assert np.array_equal(gv[1], _reference_kernel(m, x[1:], v[1:])[2][0])
    assert np.all(np.isfinite(np.concatenate(m.speed_sq_grads(x, v))))
