import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rcga import benchmarks
from rcga.benchmarks import (
    REGISTRY,
    batch_eval,
    benchmark_eval,
    benchmark_spec,
    resolve_problem_id,
)
from rcga.core import make_rng

N = 30


def vec(value, n=N):
    return np.full(n, float(value))


class TestPointEvaluations:
    def test_sphere_origin(self):
        assert benchmark_eval(9, vec(0)) == 0.0

    def test_ackley_origin(self):
        assert abs(benchmark_eval(1, vec(0))) < 1e-12

    def test_exponential_origin(self):
        assert benchmark_eval(2, vec(0)) == -1.0

    def test_griewank_origin(self):
        assert abs(benchmark_eval(3, vec(0))) < 1e-12

    def test_rastrigin_origin(self):
        assert abs(benchmark_eval(6, vec(0))) < 1e-12

    def test_rosenbrock_ones(self):
        assert benchmark_eval(7, vec(1)) == 0.0

    def test_rosenbrock_origin_is_n_minus_one(self):
        assert benchmark_eval(7, vec(0)) == N - 1

    def test_levy_montalvo_1_at_minus_ones(self):
        assert abs(benchmark_eval(4, vec(-1))) < 1e-12

    def test_levy_montalvo_2_at_ones(self):
        assert abs(benchmark_eval(5, vec(1))) < 1e-12

    def test_cigar_coefficients(self):
        x = np.zeros(N)
        x[0] = 1.0
        assert benchmark_eval(13, x) == 1.0
        y = np.zeros(N)
        y[1] = 1.0
        assert benchmark_eval(13, y) == 1e7

    def test_zakharov_origin(self):
        assert benchmark_eval(8, vec(0)) == 0.0

    def test_hyper_ellipsoid_origin(self):
        assert benchmark_eval(10, vec(0)) == 0.0

    def test_schwefel_4_max_abs(self):
        assert benchmark_eval(11, np.array([3.0, -7.0, 2.0])) == 7.0

    def test_dejong_noise_origin_range(self):
        rng = make_rng(0)
        value = benchmark_eval(12, vec(0), rng=rng)
        assert 0.0 <= value <= N
        # Nondeterministic across stream positions, replayable under a fresh stream.
        assert benchmark_eval(12, vec(0), rng=rng) != value
        assert benchmark_eval(12, vec(0), rng=make_rng(0)) == value

    def test_penalized_unconstrained_interiors(self):
        assert abs(benchmark_eval(14, vec(-1))) < 1e-12
        assert abs(benchmark_eval(15, vec(1))) < 1e-12


class TestPenaltyU:
    """The penalty u(x, a, k, m) of problems 14 and 15, as ``_penalty_sum`` over one-gene rows."""

    def u(self, x):
        return benchmarks._penalty_sum(np.array([[x]]), 10.0, 100.0, 4.0)[0]

    def test_inside_is_free(self):
        assert self.u(5.0) == 0.0

    def test_above(self):
        assert self.u(11.0) == 100.0

    def test_below(self):
        assert self.u(-12.0) == 1600.0

    def test_positivity_and_symmetry_grid(self):
        # Dense grid: the penalty never rewards infeasibility and is mirror-symmetric.
        x = np.linspace(-25.0, 25.0, 2001)[:, None]
        u = benchmarks._penalty_sum(x, 10.0, 100.0, 4.0)
        assert np.all(u >= 0.0)
        assert np.array_equal(u, benchmarks._penalty_sum(-x, 10.0, 100.0, 4.0))
        assert np.all(u[np.abs(x[:, 0]) <= 10.0] == 0.0)


class TestRegistry:
    def test_fifteen_entries_with_expected_names(self):
        assert sorted(REGISTRY) == list(range(1, 16))
        assert REGISTRY[1].name == "Ackley's Problem"
        assert REGISTRY[15].name == "Generalized Penalized Function 2"

    @pytest.mark.parametrize(
        "pid,lo,hi",
        [
            (1, -30, 30), (2, -1, 1), (3, -600, 600), (4, -10, 10), (5, -5, 5),
            (6, -5.12, 5.12), (7, -30, 30), (8, -5.12, 5.12), (9, -5.12, 5.12),
            (10, -5.12, 5.12), (11, -100, 100), (12, -10, 10), (13, -10, 10),
            (14, -10, 10), (15, -5.12, 5.12),
        ],
    )
    def test_bounds(self, pid, lo, hi):
        spec = benchmark_spec(pid)
        assert spec.bounds.lower[0] == lo and spec.bounds.upper[0] == hi

    @pytest.mark.parametrize("pid", sorted(set(REGISTRY) - {12}))
    @pytest.mark.parametrize("n", [2, 10, 30])
    def test_optimum_location_evaluates_to_optimum_value(self, pid, n):
        spec = benchmark_spec(pid, dimension=n)
        assert abs(benchmark_eval(pid, spec.optimum_location) - spec.optimum_value) < 1e-12

    def test_noisy_optimum_in_expectation(self):
        spec = benchmark_spec(12, dimension=10)
        rng = make_rng(4)
        values = batch_eval(12, np.tile(spec.optimum_location, (1000, 1)), rng=rng)
        assert abs(values.mean() - spec.optimum_value) < 0.05 * 10

    @pytest.mark.parametrize("pid", sorted(set(REGISTRY) - {12}))
    def test_random_samples_never_beat_optimum(self, pid):
        spec = benchmark_spec(pid, dimension=10)
        rng = make_rng(1000 + pid)
        X = spec.bounds.lower + rng.random((10_000, 10)) * spec.bounds.span
        assert batch_eval(pid, X).min() >= spec.optimum_value - 1e-12

    def test_spec_examples(self):
        s1 = benchmark_spec(1)
        assert (s1.bounds.lower[0], s1.bounds.upper[0]) == (-30.0, 30.0)
        assert s1.optimum_value == 0.0 and np.all(s1.optimum_location == 0.0)
        s6 = benchmark_spec(6)
        assert (s6.bounds.lower[0], s6.bounds.upper[0]) == (-5.12, 5.12)
        s7 = benchmark_spec(7)
        assert np.all(s7.optimum_location == 1.0)

    def test_rosenbrock_corrected_optimum_beats_samples(self):
        # The all-ones minimizer must undercut a million random samples.
        spec = benchmark_spec(7, dimension=10)
        rng = make_rng(77)
        low = min(
            batch_eval(7, spec.bounds.lower + rng.random((250_000, 10)) * spec.bounds.span).min()
            for _ in range(4)
        )
        assert low > benchmark_eval(7, spec.optimum_location)

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            benchmark_eval(16, np.zeros(2))
        with pytest.raises(ValueError):
            benchmark_eval(7, np.zeros(1))
        with pytest.raises(ValueError):
            benchmark_eval(12, np.zeros(4))  # noisy problem without a stream

    def test_resolve_by_name(self):
        assert resolve_problem_id("ackley's problem") == 1
        assert resolve_problem_id("SPHERE FUNCTION") == 9
        assert resolve_problem_id(3) == 3
        with pytest.raises(KeyError):
            resolve_problem_id("nope")


class TestStructuralProperties:
    @given(arrays(float, (3, 6), elements=st.floats(-5.12, 5.12)))
    def test_penalized_equal_cores_inside_box(self, X):
        assert np.allclose(batch_eval(14, X), batch_eval(4, X), rtol=0, atol=0)
        assert np.allclose(batch_eval(15, X), batch_eval(5, X), rtol=0, atol=0)

    @given(st.integers(1, 11) | st.sampled_from([13, 14, 15]), st.integers(0, 2**32 - 1))
    def test_deterministic_problems_are_pure(self, pid, seed):
        x = benchmark_spec(pid, dimension=4).bounds.lower + make_rng(seed).random(4) * benchmark_spec(pid, dimension=4).bounds.span
        assert benchmark_eval(pid, x) == benchmark_eval(pid, x)

    def test_batch_matches_scalar(self):
        rng = make_rng(8)
        for pid in sorted(set(REGISTRY) - {12}):
            spec = benchmark_spec(pid, dimension=6)
            X = spec.bounds.lower + rng.random((5, 6)) * spec.bounds.span
            batched = batch_eval(pid, X)
            single = [benchmark_eval(pid, row) for row in X]
            assert np.allclose(batched, single, rtol=1e-15, atol=0)
