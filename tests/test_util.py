"""Unit conversions, seed splitting, and complex Gaussian draws."""

import numpy as np
import pytest

from hcransim.util import child_seed, crandn, dbm_to_watt, seed_to_int, watt_to_dbm

from helpers import child_rng


def test_dbm_to_watt_known_points():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watt(-100.0) == pytest.approx(1e-13, rel=1e-12)
    assert dbm_to_watt(17.0) == pytest.approx(0.05011872336272722, rel=1e-12)


def test_dbm_watt_round_trip():
    for dbm in (-100.0, -3.0, 0.0, 17.0, 27.0, 30.0):
        assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-10)


def test_watt_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)
    with pytest.raises(ValueError):
        watt_to_dbm(-1.0)


def test_child_seed_is_deterministic_and_key_sensitive():
    a = child_seed(7, 3, 1).generate_state(4)
    b = child_seed(7, 3, 1).generate_state(4)
    c = child_seed(7, 3, 2).generate_state(4)
    d = child_seed(8, 3, 1).generate_state(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_child_rng_streams_do_not_depend_on_creation_order():
    first = child_rng(0, 5, 2).standard_normal(3)
    _ = child_rng(0, 1, 0).standard_normal(100)
    second = child_rng(0, 5, 2).standard_normal(3)
    assert np.array_equal(first, second)


def test_seed_to_int_range_and_determinism():
    for key in [(0,), (1, 2), (99, 0, 3)]:
        value = seed_to_int(child_seed(42, *key))
        assert 0 <= value < 2**63
        assert value == seed_to_int(child_seed(42, *key))


def test_crandn_unit_variance_and_circularity():
    rng = np.random.default_rng(0)
    z = crandn(rng, 200_000)
    # unit variance per entry, split evenly between real and imaginary parts
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=5e-3)
    assert np.var(z.real) == pytest.approx(0.5, abs=5e-3)
    assert np.var(z.imag) == pytest.approx(0.5, abs=5e-3)
    # circular symmetry: the pseudo-variance E[z^2] vanishes
    assert abs(np.mean(z**2)) < 5e-3


def test_crandn_shape():
    rng = np.random.default_rng(1)
    assert crandn(rng, 3, 4, 5).shape == (3, 4, 5)
    assert crandn(rng).shape == ()
