"""Tests for the scaled modified Bessel function exp(-x) I0(x)."""
import importlib.util

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdsim import i0e

HAVE_MPMATH = importlib.util.find_spec("mpmath") is not None

# Frozen from high-precision evaluation.
I0E_AT_1 = 0.4657596075936404
I0E_AT_700 = 0.015081295651531358


def test_frozen_reference_points():
    assert i0e(1.0) == pytest.approx(I0E_AT_1, rel=1e-14)
    assert i0e(700.0) == pytest.approx(I0E_AT_700, rel=1e-14)
    assert i0e(0.0) == 1.0


def test_matches_scipy_across_nine_decades():
    x = np.logspace(-8, 5, 4001)
    ours = i0e(x)
    ref = scipy.special.i0e(x)
    rel = np.abs(ours - ref) / ref
    assert float(rel.max()) < 5e-13


def test_matches_scipy_around_branch_switch():
    # Dense sweep across the series/asymptotic handoff.
    x = np.linspace(15.0, 25.0, 2001)
    rel = np.abs(i0e(x) - scipy.special.i0e(x)) / scipy.special.i0e(x)
    assert float(rel.max()) < 5e-13


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath not installed")
@pytest.mark.parametrize("x", [0.3, 1.0, 7.5, 19.99, 20.01, 123.4, 1e4])
def test_matches_arbitrary_precision(x):
    import mpmath

    mpmath.mp.dps = 40
    ref = float(mpmath.exp(-x) * mpmath.besseli(0, x))
    assert i0e(x) == pytest.approx(ref, rel=1e-13)


@given(x=st.floats(0.0, 1e5))
def test_bounds_and_symmetry(x):
    v = float(i0e(x))
    assert 0.0 < v <= 1.0  # exp(-x) I0(x) peaks at 1 for x = 0
    assert float(i0e(-x)) == v  # I0 is even


def test_monotone_decreasing():
    x = np.linspace(0.0, 50.0, 500)
    v = i0e(x)
    assert np.all(np.diff(v) < 0.0)


def test_shapes_and_scalar_round_trip():
    out = i0e(np.array([[0.5, 2.0], [30.0, 400.0]]))
    assert out.shape == (2, 2)
    scalar = i0e(3.0)
    assert np.ndim(scalar) == 0
    assert float(scalar) == pytest.approx(float(i0e(np.array([3.0]))[0]))


def test_integral_representation_identity():
    # I0(x) = (1/pi) * integral_0^pi exp(x cos t) dt, so
    # i0e(x) = (1/pi) * integral_0^pi exp(x (cos t - 1)) dt.
    theta = (np.arange(4096) + 0.5) * (np.pi / 4096)
    for x in (0.5, 5.0, 19.9, 20.1, 50.0, 700.0):
        ref = float(np.mean(np.exp(x * (np.cos(theta) - 1.0))))
        assert float(i0e(x)) == pytest.approx(ref, rel=5e-13)


# Either side of the series/asymptotic switch at 20, and the far ends.
BATCH_EDGES = (0.0, 1e-300, 20.0 - 1e-6, 20.0, 20.0 + 1e-6, 1e5)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-1e5, 1e5), max_size=40), seed=st.integers(0, 2**32 - 1))
def test_batch_is_bit_identical_to_one_at_a_time(xs, seed):
    # Each series stops at the batch's longest one: the terms an element
    # adds after its own stopping rule fired are below half an ulp of its
    # sum, so they round away.
    x = np.array([*xs, *BATCH_EDGES])
    np.random.default_rng(seed).shuffle(x)
    alone = np.array([i0e(v) for v in x])
    assert np.array_equal(_bits(i0e(x)), _bits(alone))


def test_dense_batch_is_bit_identical_in_any_chunking():
    x = np.concatenate([np.logspace(-300, 5, 2000), np.linspace(15.0, 25.0, 2001),
                        BATCH_EDGES])
    np.random.default_rng(5).shuffle(x)
    alone = np.array([i0e(v) for v in x])
    assert np.array_equal(_bits(i0e(x)), _bits(alone))
    chunks = np.concatenate([i0e(c) for c in np.array_split(x, 97)])
    assert np.array_equal(_bits(chunks), _bits(alone))
