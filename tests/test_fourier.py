"""Truncated Fourier series: exact derivatives, algebra, norms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo.errors import InputDomainError, NotAConformalFactorError
from torusgeo.fourier import TWO_PI, FieldPass, Fourier2D, on_axes, on_grid
from torusgeo.metrics import ConformalFactor


def rand_series(rng, n_modes=3, kmax=2, amp=1.0):
    modes = {}
    for _ in range(n_modes):
        k = (int(rng.integers(-kmax, kmax + 1)), int(rng.integers(-kmax, kmax + 1)))
        if k == (0, 0):
            continue
        modes[k] = (rng.uniform(-amp, amp), rng.uniform(-amp, amp))
    return Fourier2D(rng.uniform(-amp, amp), modes)


def test_constant_evaluation():
    f = Fourier2D(2.5)
    pts = np.random.default_rng(0).random((10, 2))
    assert np.allclose(f(pts), 2.5)


def test_single_mode_value():
    # cos(2*pi*y) at y = 0 is 1, at y = 0.5 is -1
    f = Fourier2D(0.0, {(0, 1): (1.0, 0.0)})
    assert float(f(np.array([0.3, 0.0]))) == pytest.approx(1.0)
    assert float(f(np.array([0.7, 0.5]))) == pytest.approx(-1.0)
    assert float(f(np.array([0.0, 0.25]))) == pytest.approx(0.0, abs=1e-15)


def test_negative_mode_canonicalized():
    # cos is even, sin odd: mode (-1, 0) with (a, b) == mode (1, 0) with (a, -b)
    f = Fourier2D(0.0, {(-1, 0): (0.3, 0.4)})
    g = Fourier2D(0.0, {(1, 0): (0.3, -0.4)})
    pts = np.random.default_rng(1).random((50, 2))
    assert np.allclose(f(pts), g(pts), atol=1e-15)


def test_derivative_against_finite_difference():
    rng = np.random.default_rng(2)
    f = rand_series(rng)
    pts = rng.random((20, 2))
    h = 1e-6
    for axis, d in ((0, f.derivative(1, 0)), (1, f.derivative(0, 1))):
        e = np.zeros(2)
        e[axis] = h
        fd = (f(pts + e) - f(pts - e)) / (2 * h)
        assert np.allclose(d(pts), fd, atol=1e-7)


def test_derivative_of_constant_is_zero():
    f = Fourier2D(3.0)
    assert f.derivative(1, 0).max_abs() == 0.0
    assert f.derivative(0, 5).max_abs() == 0.0


@pytest.mark.parametrize("const, modes", [
    (np.nan, None),
    (np.inf, None),
    (-np.inf, None),
    (1.0, {(1, 0): (np.nan, 0.0)}),
    (1.0, {(0, 1): (0.0, np.inf)}),
    (1.0, {(0, 0): (np.nan, 0.0)}),  # the (0, 0) mode folds into the constant
], ids=["nan", "inf", "-inf", "mode-cos-nan", "mode-sin-inf", "zero-mode-nan"])
def test_non_finite_coefficient_rejected(const, modes):
    with pytest.raises(InputDomainError, match="finite"):
        Fourier2D(const, modes)


def test_overflowing_scaling_rejected():
    with pytest.raises(InputDomainError):
        10.0 * Fourier2D(1.0, {(1, 0): (1e308, 0.0)})


# finite coefficients whose sum, product or derivative overflows to inf
HUGE = Fourier2D(1.0, {(1, 0): (1e308, 0.0)})


@pytest.mark.parametrize("build", [
    lambda: HUGE + HUGE,
    lambda: HUGE * HUGE,
    lambda: Fourier2D(0, {(1, 0): (1e308, 0)}).derivative(1, 0),
    lambda: ConformalFactor(HUGE + HUGE),
], ids=["sum", "product", "derivative", "factor-of-sum"])
def test_overflowing_algebra_rejected(build):
    with pytest.raises(InputDomainError, match="finite"):
        build()


@pytest.mark.parametrize("k", [(1.5, 0), (-0.5, 0), (np.nan, 0)], ids=["1.5", "-0.5", "nan"])
def test_non_integer_wavenumber_rejected(k):
    # int() alone makes 1.5 mode 1 and -0.5 mode (0, 0), and fails on nan with a bare ValueError
    with pytest.raises(InputDomainError, match="integers"):
        Fourier2D(1.0, {k: (1.0, 0.0)})


def test_integral_wavenumbers_of_any_type_accepted():
    f = Fourier2D(0.0, {(np.int64(2), 0): (1.0, 0.0), (0.0, -1.0): (0.0, 1.0)})
    assert f.modes == {(2, 0): (1.0, 0.0), (0, 1): (0.0, -1.0)}
    assert all(type(c) is int for k in f.modes for c in k)


def test_product_pointwise():
    rng = np.random.default_rng(3)
    f, g = rand_series(rng), rand_series(rng)
    pts = rng.random((100, 2))
    assert np.allclose((f * g)(pts), f(pts) * g(pts), atol=1e-12)


def test_scalar_and_additive_algebra():
    rng = np.random.default_rng(4)
    f, g = rand_series(rng), rand_series(rng)
    pts = rng.random((30, 2))
    assert np.allclose((f + g)(pts), f(pts) + g(pts), atol=1e-14)
    assert np.allclose((f - g)(pts), f(pts) - g(pts), atol=1e-14)
    assert np.allclose((2.5 * f)(pts), 2.5 * f(pts), atol=1e-14)
    assert np.allclose((1.0 - f)(pts), 1.0 - f(pts), atol=1e-14)


def test_product_derivative_leibniz():
    # d(fg) = f'g + fg' must hold exactly at the coefficient level
    rng = np.random.default_rng(5)
    f, g = rand_series(rng), rand_series(rng)
    lhs = (f * g).derivative(1, 0)
    rhs = f.derivative(1, 0) * g + f * g.derivative(1, 0)
    assert lhs.coefficients_equal(rhs, tol=1e-12)


def test_grid_shape_and_norms():
    g = Fourier2D.grid(16)
    assert g.shape == (16, 16, 2)
    f = Fourier2D(0.0, {(1, 0): (1.0, 0.0)})
    assert f.max_abs(64) == pytest.approx(1.0)
    assert f.grid_values(64).min() == pytest.approx(-1.0)
    # |grad cos(2 pi x)| peaks at 2 pi
    assert f.lipschitz_bound() == 2 * np.pi
    assert Fourier2D(-3.0).lipschitz_bound() == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_mode_accumulation_commutes_with_evaluation(seed):
    rng = np.random.default_rng(seed)
    f, g = rand_series(rng), rand_series(rng)
    pts = rng.random((10, 2))
    assert np.allclose((f + g)(pts), (g + f)(pts), atol=1e-14)


# -- shared-pass evaluation -----------------------------------------------------------

def _reference_eval(f, pts):
    """Single-series evaluation: the constant, then each mode added in the series' order."""
    out = np.full(pts.shape[:-1], f.const)
    x, y = pts[..., 0], pts[..., 1]
    for (kx, ky), (a, b) in f.modes.items():
        th = 2.0 * np.pi * (kx * x + ky * y)
        out = out + a * np.cos(th) + b * np.sin(th)
    return out


def _grid_tolerance(f):
    """Rounding allowance of a grid value against `_reference_eval`.

    4 eps (1 + 2 pi max|k|_1) (|c0| + sum(|a| + |b|)): the phases differ by
    rounding of size eps 2 pi |k|_1, the sums by a few eps of the coefficients.
    """
    k1 = max((abs(kx) + abs(ky) for kx, ky in f.modes), default=0)
    size = abs(f.const) + sum(abs(a) + abs(b) for a, b in f.modes.values())
    return 4.0 * np.finfo(float).eps * (1.0 + 2.0 * np.pi * k1) * size


def _shared_series(seed):
    rng = np.random.default_rng(seed)
    f = rand_series(rng, n_modes=4)
    g = Fourier2D(0.5, {(1, 0): (0.3, -0.2), (0, 1): (0.1, 0.4)})
    # same modes as g in the opposite order: each series adds them in its own order
    h = Fourier2D(-1.0, {(0, 1): (0.2, 0.0), (1, 0): (0.0, 0.7)})
    return [f, f.derivative(1, 0), f.derivative(0, 1), g, h, h.derivative(0, 1),
            Fourier2D(2.5), Fourier2D(0.0, {(0, 1): (0.0, 0.0)})]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_pass_equals_call(seed):
    series = _shared_series(seed)
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (7, 9, 2))
    values = FieldPass(series)(pts[..., 0], pts[..., 1])
    for f, val in zip(series, values):
        ref = _reference_eval(f, pts)
        assert np.array_equal(f(pts), ref)
        assert np.array_equal(np.broadcast_to(val, ref.shape), ref)
    grid = Fourier2D.grid(24)
    for f, val in zip(series, on_grid(series, 24)):
        assert np.all(np.abs(val - _reference_eval(f, grid)) <= _grid_tolerance(f))
        assert np.array_equal(f.grid_values(24), val)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_pass_one_cos_sin_per_mode(seed, monkeypatch):
    series = _shared_series(seed)
    modes = {k for f in series for k, ab in f.modes.items() if ab != (0.0, 0.0)}
    field_pass = FieldPass(series)
    calls = {"cos": 0, "sin": 0}

    def counted(name):
        real = getattr(np, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (7, 9, 2))
    field_pass(pts[..., 0], pts[..., 1])
    assert calls == {"cos": len(modes), "sin": len(modes)}


# -- the certified Lipschitz constant ---------------------------------------------------

def _sampled_gradient_sup(f, n):
    """Max of |grad f| on the n x n grid: a lower estimate of the sup, not a bound."""
    dx, dy = on_grid((f.derivative(1, 0), f.derivative(0, 1)), n)
    return float(np.hypot(dx, dy).max())


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 4),
       st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_lipschitz_bound_dominates_sampled_gradient(seed, n_modes, kmax, amp):
    f = rand_series(np.random.default_rng(seed), n_modes=n_modes, kmax=kmax, amp=amp)
    bound = f.lipschitz_bound()
    # a single mode peaking on the grid samples its sup up to rounding
    assert _sampled_gradient_sup(f, 256) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("k, ab", [((1, 0), (1.0, 0.0)), ((0, 3), (0.0, -2.5)),
                                   ((2, -1), (0.3, 0.4)), ((4, 4), (-1e-3, 7.0))])
def test_lipschitz_bound_single_mode_exact(k, ab):
    f = Fourier2D(1.5, {k: ab})
    assert f.lipschitz_bound() == TWO_PI * (np.hypot(*k) * np.hypot(*ab))


def test_sampled_gradient_misses_the_peak_of_a_single_mode():
    # cos(2 pi x - phi) with phi half a cell of the 512^2 grid: |grad| = 2 pi |sin(2 pi x - phi)|
    # peaks at x* = 1/4 + 1/1024, midway between grid points
    phi = np.pi / 512
    factor = ConformalFactor(Fourier2D(1.0, {(1, 0): (0.5 * np.cos(phi), 0.5 * np.sin(phi))}))
    lip = factor.lipschitz_bound()
    assert lip == pytest.approx(np.pi, rel=1e-15)
    peak = np.array([0.25 + 1.0 / 1024, 0.3])
    grad = np.hypot(factor.derivative(1, 0)(peak), factor.derivative(0, 1)(peak))
    assert float(grad) == pytest.approx(lip, rel=1e-12)
    # the grid estimate is cos(pi / 512) times the sup: it was never a bound
    sampled = _sampled_gradient_sup(factor, 512)
    assert sampled == pytest.approx(lip * np.cos(phi), rel=1e-12)
    assert sampled < lip * (1.0 - 1e-5)


def test_certificate_reads_the_lipschitz_bound(monkeypatch):
    read = []

    def spy(self, _real=Fourier2D.lipschitz_bound):
        read.append(self)
        return _real(self)

    monkeypatch.setattr(Fourier2D, "lipschitz_bound", spy)
    factor = ConformalFactor(Fourier2D(2.0, {(1, 0): (0.1, 0.0)}))
    assert read == [factor]
    # the certificate has no copy of its own: an infinite constant certifies nothing
    monkeypatch.setattr(Fourier2D, "lipschitz_bound", lambda self: np.inf)
    with pytest.raises(NotAConformalFactorError, match="uncertified"):
        ConformalFactor(Fourier2D(2.0, {(1, 0): (0.1, 0.0)}))


# -- separable grids ------------------------------------------------------------------

def _on_points(f, tx, ty):
    gx, gy = np.meshgrid(tx, ty, indexing="ij")
    return _reference_eval(f, np.stack([gx, gy], axis=-1))


def _wide_series(rng, kmax=8):
    """Random modes with |k| up to kmax, plus modes with kx = 0, ky = 0 and negative ky."""
    modes = {(int(rng.integers(-kmax, kmax + 1)), int(rng.integers(-kmax, kmax + 1))):
             (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)}
    modes.pop((0, 0), None)
    modes.update({(0, int(rng.integers(1, kmax + 1))): (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (int(rng.integers(1, kmax + 1)), 0): (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (int(rng.integers(1, kmax + 1)), -int(rng.integers(1, kmax + 1))):
                      (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  (kmax, -kmax): (rng.uniform(-1, 1), rng.uniform(-1, 1))})
    return Fourier2D(rng.uniform(-2, 2), modes)


@pytest.mark.parametrize("n", [8, 24, 512])
def test_on_axes_matches_point_evaluation(n):
    rng = np.random.default_rng(n)
    series = [_wide_series(rng) for _ in range(3)]
    series += [series[0].derivative(1, 0), series[0].derivative(0, 1),
               Fourier2D(0.0, {(3, 0): (0.0, 0.0), (0, 5): (0.2, 0.0)})]
    grid = np.arange(n) / n
    centres = (np.arange(n) + 0.5) / n  # the axes of `pairing`
    other = np.sort(rng.uniform(-1.0, 2.0, n // 2 + 1))  # no grid at all
    for tx, ty in ((grid, grid), (centres, centres), (centres, other)):
        values = on_axes(series, tx, ty)
        for f, val in zip(series, values):
            assert val.shape == (len(tx), len(ty))
            assert np.all(np.abs(val - _on_points(f, tx, ty)) <= _grid_tolerance(f))
    for f, val in zip(series, on_grid(series, n)):
        assert np.array_equal(on_axes((f,), grid, grid)[0], val)


def test_on_axes_constant_series_is_exact():
    t = (np.arange(24) + 0.5) / 24
    const = Fourier2D(0.1 + 0.2)
    zero_modes = Fourier2D(-7.25, {(1, 0): (0.0, 0.0), (2, -3): (0.0, 0.0)})
    empty = Fourier2D(0.0)
    for f in (const, zero_modes, empty):
        (val,) = on_axes((f,), t, t[:5])
        assert val.dtype == float
        assert np.array_equal(val, np.full((24, 5), f.const))
        assert np.array_equal(on_grid((f,), 8)[0], np.full((8, 8), f.const))


def test_on_axes_bound_holds_for_random_series():
    rng = np.random.default_rng(11)
    for _ in range(40):
        f = rand_series(rng, n_modes=5, kmax=8, amp=float(rng.uniform(0.1, 10.0)))
        n = int(rng.integers(8, 65))
        t = np.arange(n) / n
        (val,) = on_axes((f,), t, t)
        assert np.all(np.abs(val - _on_points(f, t, t)) <= _grid_tolerance(f))
