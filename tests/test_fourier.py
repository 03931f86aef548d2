"""Truncated Fourier series: exact derivatives, algebra, norms."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusgeo.fourier import FieldPass, Fourier2D, on_grid


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
    assert f.value(0.3, 0.0) == pytest.approx(1.0)
    assert f.value(0.7, 0.5) == pytest.approx(-1.0)
    assert f.value(0.0, 0.25) == pytest.approx(0.0, abs=1e-15)


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
    assert f.min_on_grid(64) == pytest.approx(-1.0)
    # |grad cos(2 pi x)| peaks at 2 pi
    assert f.sup_gradient_norm(256) == pytest.approx(2 * np.pi, rel=1e-3)


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


def _shared_series(seed):
    rng = np.random.default_rng(seed)
    f = rand_series(rng, n_modes=4)
    g = Fourier2D(0.5, {(1, 0): (0.3, -0.2), (0, 1): (0.1, 0.4)})
    # same modes as g in the opposite order: it cannot join g's pass
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
        assert np.array_equal(val, _reference_eval(f, grid))
        assert np.array_equal(f.grid_values(24), val)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sup_gradient_norm_equals_separate_grids(seed):
    for f in _shared_series(seed)[:5]:
        ref = np.hypot(f.derivative(1, 0).grid_values(64), f.derivative(0, 1).grid_values(64))
        assert f.sup_gradient_norm(64) == float(ref.max())
