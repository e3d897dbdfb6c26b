import numpy as np
import pytest

from rcga.core import Bounds, make_rng


def box(lo, hi, n):
    return Bounds.uniform(lo, hi, n)


class TestBounds:
    def test_uniform_constructor(self):
        b = box(-30.0, 30.0, 4)
        assert b.dimension == 4
        assert np.all(b.lower == -30.0) and np.all(b.upper == 30.0)
        assert np.all(b.span == 60.0)

    def test_rejects_reversed_faces(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Bounds(np.zeros(2), np.ones(3))


class TestRngStream:
    def test_replay(self):
        a, b = make_rng(123), make_rng(123)
        assert np.array_equal(a.random(100), b.random(100))
        assert a.integers(0, 10) == b.integers(0, 10)

    def test_unit_interval(self):
        u = make_rng(5).random(10_000)
        assert np.all((u >= 0.0) & (u < 1.0))
