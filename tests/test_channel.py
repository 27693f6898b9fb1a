"""Seeded AWGN channel."""

import math

import numpy as np
import pytest

from decodex.bench import SweepConfig, run_cell, run_sweep
from decodex.phy import ChannelConfig, transmit


def test_no_noise_sentinel_passthrough():
    x = np.exp(1j * np.linspace(0, 3, 17))
    y = transmit(x, ChannelConfig(snr_db=math.inf, seed=1))
    assert np.array_equal(x, y)


def test_same_seed_is_bit_identical():
    x = np.ones(256, dtype=complex)
    a = transmit(x, ChannelConfig(5.0, 123))
    b = transmit(x, ChannelConfig(5.0, 123))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    x = np.ones(256, dtype=complex)
    assert not np.array_equal(
        transmit(x, ChannelConfig(5.0, 1)), transmit(x, ChannelConfig(5.0, 2))
    )


def test_empirical_variance_at_0db():
    x = np.zeros(10 ** 6, dtype=complex)
    y = transmit(x, ChannelConfig(0.0, 2024))
    var = float(np.mean(np.abs(y) ** 2))
    assert abs(var - 1.0) < 0.01


def test_variance_follows_snr():
    x = np.zeros(200_000, dtype=complex)
    for snr_db in (-3.0, 6.0, 10.0):
        y = transmit(x, ChannelConfig(snr_db, 55))
        var = float(np.mean(np.abs(y) ** 2))
        assert abs(var - 10 ** (-snr_db / 10)) / 10 ** (-snr_db / 10) < 0.02


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_snr_that_names_no_channel_is_rejected(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        ChannelConfig(snr_db, 1)


def test_nan_snr_fails_its_cell_instead_of_reporting_a_clean_channel():
    with pytest.raises(ValueError, match="snr_db"):
        run_cell("cpu", 4, math.nan, 10, 2, seed=1)
    config = SweepConfig(mcs_set=(4,), snr_grid_db=(math.nan, -math.inf), prb_set=(10,), n_tb=2)
    records = run_sweep(config)
    assert len(records) == 2
    assert all(r.failure.startswith("ValueError") and math.isnan(r.bler) for r in records)
