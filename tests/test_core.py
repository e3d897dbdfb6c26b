import numpy as np
import pytest

from rcga.core import Bounds, make_rng


def box(lo, hi, n):
    return Bounds(lo, hi, n)


class TestBounds:
    def test_uniform_constructor(self):
        b = box(-30.0, 30.0, 4)
        assert b.dimension == 4
        assert (b.lower, b.upper, b.span) == (-30.0, 30.0, 60.0)

    def test_rejects_reversed_faces(self):
        for lo, hi in ((1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError, match="strictly below"):
                box(lo, hi, 2)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf)])
    def test_rejects_non_finite_face(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            box(lo, hi, 2)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            box(-1.0, 1.0, 0)


class TestRngStream:
    def test_replay(self):
        a, b = make_rng(123), make_rng(123)
        assert np.array_equal(a.random(100), b.random(100))
        assert a.integers(0, 10) == b.integers(0, 10)

    def test_unit_interval(self):
        u = make_rng(5).random(10_000)
        assert np.all((u >= 0.0) & (u < 1.0))
