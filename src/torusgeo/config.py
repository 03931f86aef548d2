"""Key-value experiment configs and metric construction from them.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment. Values
are scalars or comma-separated lists. Fourier coefficients of a field are
given as `prefix.mode_kx,ky = cos_coeff,sin_coeff` plus `prefix.const`.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .fourier import Fourier2D
from .metrics import (
    ConformalFactor,
    ConformalMetric,
    FinslerMetric,
    RandersMetric,
    RiemannianMetric,
    euclidean,
)


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def get_float(cfg: dict, key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        v = float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from e
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r}: expected a finite number, got {cfg[key]!r}")
    return v


def get_int(cfg: dict, key: str, default: int | None = None) -> int:
    v = get_float(cfg, key, default if default is None else float(default))
    if v != int(v):
        raise ConfigError(f"key {key!r}: expected an integer, got {v}")
    return int(v)


def get_floats(cfg: dict, key: str, default=None) -> list[float]:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return list(default)
    try:
        vals = [float(x) for x in cfg[key].split(",")]
    except ValueError as e:
        raise ConfigError(f"key {key!r}: not a number list: {cfg[key]!r}") from e
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"key {key!r}: expected finite numbers, got {cfg[key]!r}")
    return vals


def get_pair(cfg: dict, key: str, default=None) -> tuple[int, int]:
    vals = get_floats(cfg, key, default)
    if len(vals) != 2 or any(v != int(v) for v in vals):
        raise ConfigError(f"key {key!r}: expected an integer pair")
    return int(vals[0]), int(vals[1])


def series_from_config(cfg: dict, prefix: str, default_const: float = 0.0) -> Fourier2D:
    """Assemble a Fourier series from `prefix.const` and `prefix.mode_kx,ky` keys."""
    series = Fourier2D(get_float(cfg, prefix + "const", default_const))
    for key, value in cfg.items():
        if not key.startswith(prefix + "mode_"):
            continue
        mode_part = key[len(prefix + "mode_"):]
        try:
            kx, ky = (int(s) for s in mode_part.split(","))
            a, b = (float(s) for s in value.split(","))
        except ValueError as e:
            raise ConfigError(f"bad Fourier mode line {key!r} = {value!r}") from e
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ConfigError(f"Fourier mode line {key!r}: expected finite coefficients, "
                              f"got {value!r}")
        series += Fourier2D(0.0, {(kx, ky): (a, b)})
    return series


def metric_from_config(cfg: dict, prefix: str = "metric.") -> FinslerMetric:
    """Build a metric from config keys under `prefix`.

    Recognized variants: euclidean; riemannian (g11/g12/g22 fields); randers
    (riemannian fields plus `beta = bx,by` or beta_x/beta_y fields); conformal
    (base metric under `prefix + "base."`, factor under `prefix + "lambda."`).
    """
    variant = cfg.get(prefix + "variant", "euclidean")
    if variant == "euclidean":
        return euclidean()
    if variant in ("riemannian", "randers"):
        base = RiemannianMetric(
            series_from_config(cfg, prefix + "g11.", default_const=1.0),
            series_from_config(cfg, prefix + "g12.", default_const=0.0),
            series_from_config(cfg, prefix + "g22.", default_const=1.0),
        )
        if variant == "riemannian":
            return base
        if prefix + "beta" in cfg:
            bx, by = get_floats(cfg, prefix + "beta")
            beta = (Fourier2D(bx), Fourier2D(by))
        else:
            beta = (series_from_config(cfg, prefix + "beta_x.", default_const=0.0),
                    series_from_config(cfg, prefix + "beta_y.", default_const=0.0))
        return RandersMetric(base, beta)
    if variant == "conformal":
        base = metric_from_config(cfg, prefix + "base.")
        factor = ConformalFactor(series_from_config(cfg, prefix + "lambda.", default_const=1.0))
        return ConformalMetric(base, factor)
    raise ConfigError(f"unknown metric variant {variant!r}")
