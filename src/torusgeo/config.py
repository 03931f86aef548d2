"""Key-value experiment configs and their typed getters.

Format: UTF-8 text, one `key = value` per line, `#` starts a comment. Values
are scalars or comma-separated lists. Each getter takes the key's default,
which it returns when the key is absent, and tests the key with `in`.
"""
from __future__ import annotations

import math

from .errors import ConfigError


def parse_config(text: str) -> dict[str, str]:
    """The file's keys and values; a key given twice or an empty key is an error."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}  # each key's line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already given on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


def get_float(cfg: dict, key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        v = float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}") from e
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r}: expected a finite number, got {cfg[key]!r}")
    return v


def get_int(cfg: dict, key: str, default: int) -> int:
    try:  # an integer literal converts exactly, also past 2**53 where a float rounds
        return int(cfg[key]) if key in cfg else default
    except ValueError:
        v = get_float(cfg, key, default)  # a float form such as 3.0 or 1e15
    if v != int(v):
        raise ConfigError(f"key {key!r}: expected an integer, got {v}")
    return int(v)


def get_floats(cfg: dict, key: str, default) -> list[float]:
    if key not in cfg:
        return list(default)
    try:
        vals = [float(x) for x in cfg[key].split(",")]
    except ValueError as e:
        raise ConfigError(f"key {key!r}: not a number list: {cfg[key]!r}") from e
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"key {key!r}: expected finite numbers, got {cfg[key]!r}")
    return vals

