"""Small shared helpers: unit conversions, seed splitting, complex Gaussians, config checks."""

from __future__ import annotations

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
    """Collapse a SeedSequence to a plain nonnegative int (for config fields)."""
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
