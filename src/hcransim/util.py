"""Small shared helpers: unit conversions, seed splitting, complex Gaussians,
the JSON file reader and config checks."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np


def dbm_to_watt(dbm: float) -> float:
    """Convert a power level in dBm to watts (20 dBm -> 0.1 W)."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt: float) -> float:
    if watt <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * np.log10(watt) + 30.0


def child_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Counter-based split of a master seed.

    Children for different keys are statistically independent and do not
    depend on the order they are created in, so parallel workers can derive
    their own streams.
    """
    return np.random.SeedSequence(master_seed, spawn_key=tuple(key))


def seed_to_int(seq: np.random.SeedSequence) -> int:
    """Collapse a SeedSequence to a plain nonnegative int."""
    return int(seq.generate_state(1, np.uint64)[0] >> 1)


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, unit variance per entry.

    CN(0, s) draws are s**0.5 * crandn(...): real and imaginary parts each
    carry half the variance.
    """
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out / np.sqrt(2.0)


def require_finite(config) -> None:
    """Raise a ValueError naming the first float field of a dataclass that
    is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def typed(value, want: type, key: str):
    """value if it may fill a config field of type want, else a ValueError
    that names the key. Nothing is coerced: an int fills a float field, but a
    bool is never a number and a float never fills an int field."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
        raise ValueError(f"config key {key!r} must be of type {want.__name__}, got {value!r}")
    return value


def section(raw: dict, name: str, known: set, label: str) -> dict:
    """raw[name] (empty if absent) if it is an object of known keys, else a
    ValueError that names the section or the unknown keys."""
    entry = raw.get(name, {})
    if not isinstance(entry, dict):
        raise ValueError(f"config section {name!r} must be an object, got {entry!r}")
    if set(entry) - known:
        raise ValueError(f"unknown {label} keys: {sorted(set(entry) - known)}")
    return dict(entry)


def read_json_object(path) -> dict:
    """The JSON object a file holds, or a ValueError that names the file:
    for text that is not JSON, a document that is not an object, and a key
    repeated in any object (``json`` alone would keep the last one)."""

    def unique(pairs: list) -> dict:
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        if repeated:
            raise ValueError(f"repeated keys {repeated} in {path}")
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(raw).__name__}")
    return raw
