import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import StubRng
from rcga.core import Bounds, make_rng
from rcga.operators import (
    CrossoverConfig,
    CrossoverKind,
    MutationConfig,
    MutationKind,
    ax_crossover,
    blx_alpha_crossover,
    fx_crossover,
    gaussian_mutation,
    laplace_crossover,
    nonuniform_mutation,
    psox_crossover,
    sbx_crossover,
    tournament_index,
)

parent_pairs = st.tuples(
    arrays(float, 6, elements=st.floats(-100, 100)),
    arrays(float, 6, elements=st.floats(-100, 100)),
)


class TestAx:
    def test_midpoint(self):
        child = ax_crossover(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5)
        assert np.array_equal(child, [1.0, 2.0])

    def test_alpha_one_returns_first_parent(self):
        p1, p2 = np.array([3.0, -1.0]), np.array([9.0, 9.0])
        assert np.array_equal(ax_crossover(p1, p2, 1.0), p1)

    def test_alpha_zero_returns_second_parent(self):
        p1, p2 = np.array([3.0, -1.0]), np.array([9.0, 9.0])
        assert np.array_equal(ax_crossover(p1, p2, 0.0), p2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ax_crossover(np.zeros(2), np.zeros(3), 0.5)

    @given(parent_pairs)
    def test_containment_for_interior_alpha(self, pair):
        p1, p2 = pair
        child = ax_crossover(p1, p2, 0.5)
        assert np.all(child >= np.minimum(p1, p2) - 1e-9)
        assert np.all(child <= np.maximum(p1, p2) + 1e-9)


class TestFx:
    def test_equal_parents_degenerate(self):
        v = np.array([1.5, -2.5, 0.0])
        assert np.array_equal(fx_crossover(v, v, make_rng(0)), v)

    @given(parent_pairs, st.integers(0, 2**31 - 1))
    def test_containment(self, pair, seed):
        p1, p2 = pair
        child = fx_crossover(p1, p2, make_rng(seed))
        assert np.all(child >= np.minimum(p1, p2))
        assert np.all(child <= np.maximum(p1, p2))

    def test_uniform_mean_oracle(self):
        # 1e5 independent genes of a (0, 1) parent pair: mean must approach 1/2.
        n = 100_000
        child = fx_crossover(np.zeros(n), np.ones(n), make_rng(42))
        assert abs(child.mean() - 0.5) < 0.01


class TestBlxAlpha:
    def test_equal_parents_degenerate(self):
        v = np.array([4.0, 4.0])
        assert np.array_equal(blx_alpha_crossover(v, v, 0.5, make_rng(1)), v)

    def test_extended_interval(self):
        child = blx_alpha_crossover(np.zeros(1000), np.ones(1000), 0.5, make_rng(2))
        assert np.all(child >= -0.5) and np.all(child <= 1.5)

    def test_range_coverage_oracle(self):
        n = 100_000
        child = blx_alpha_crossover(np.zeros(n), np.ones(n), 0.5, make_rng(3))
        assert child.min() < -0.4 and child.max() > 1.4


class TestSbx:
    def test_forced_u_half_reproduces_parents(self):
        p1, p2 = np.array([0.0, 3.0]), np.array([1.0, -2.0])
        c1, c2 = sbx_crossover(p1, p2, 2.0, StubRng(uniforms=[0.5]))
        assert np.allclose(c1, p1, atol=1e-15) and np.allclose(c2, p2, atol=1e-15)

    def test_scalar_reference_value(self):
        # u = 0.25, eta = 2: beta = (0.5)**(1/3); children (1-beta)/2 and (1+beta)/2.
        beta = 0.5 ** (1.0 / 3.0)
        c1, c2 = sbx_crossover(np.array([0.0]), np.array([1.0]), 2.0, StubRng(uniforms=[0.25]))
        assert abs(c1[0] - (1 - beta) / 2) < 1e-12
        assert abs(c2[0] - (1 + beta) / 2) < 1e-12

    @given(parent_pairs, st.integers(0, 2**31 - 1))
    def test_mean_preservation(self, pair, seed):
        p1, p2 = pair
        c1, c2 = sbx_crossover(p1, p2, 2.0, make_rng(seed))
        scale = 1.0 + np.abs(p1) + np.abs(p2)
        assert np.all(np.abs((c1 + c2) - (p1 + p2)) < 1e-10 * scale)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            sbx_crossover(np.zeros(2), np.ones(2), 0.0, make_rng(0))


class TestLaplace:
    def test_b_zero_a_zero_clones_parents(self):
        p1, p2 = np.array([0.0, 5.0]), np.array([1.0, -5.0])
        c1, c2 = laplace_crossover(p1, p2, 0.0, 0.0, make_rng(9))
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_equal_parents(self):
        v = np.array([2.0, 2.0])
        c1, c2 = laplace_crossover(v, v, 0.0, 0.5, make_rng(10))
        assert np.array_equal(c1, v) and np.array_equal(c2, v)

    def test_scalar_reference_value(self):
        beta = -0.5 * np.log(0.5)
        c1, c2 = laplace_crossover(np.array([0.0]), np.array([1.0]), 0.0, 0.5, StubRng(uniforms=[0.5]))
        assert abs(c1[0] - beta) < 1e-12
        assert abs(c2[0] - (1.0 + beta)) < 1e-12

    def test_shared_shift_per_gene(self):
        p1, p2 = np.zeros(4), np.full(4, 2.0)
        c1, c2 = laplace_crossover(p1, p2, 0.0, 0.5, make_rng(11))
        assert np.allclose(c2 - c1, p2 - p1)


class TestPsox:
    def cfg(self, **kw):
        return CrossoverConfig(kind=CrossoverKind.PSOX, **kw)

    def test_identity_configuration_bit_exact(self):
        p = make_rng(1).random(30) * 10 - 5
        child = psox_crossover(p, np.ones(30), -np.ones(30),
                               self.cfg(psox_w=1.0, psox_c1=0.0, psox_c2=0.0), make_rng(2))
        assert np.array_equal(child, p)

    def test_forced_zero_attraction(self):
        p = np.array([2.0, -4.0])
        child = psox_crossover(p, np.ones(2), np.ones(2), self.cfg(),
                               StubRng(uniforms=[0.0, 0.0]))
        assert np.allclose(child, 0.6 * p, atol=0)

    def test_converged_population_contracts(self):
        g = np.array([3.0, 3.0, 3.0])
        child = psox_crossover(g, g, g, self.cfg(), make_rng(3))
        assert np.allclose(child, 0.6 * g)

    def test_scalar_reference_value(self):
        child = psox_crossover(np.array([0.0]), np.array([1.0]), np.array([2.0]),
                               self.cfg(), StubRng(uniforms=[0.5, 0.5]))
        assert abs(child[0] - 2.25) < 1e-12

    def test_scalar_draw_mode_moves_all_genes_together(self):
        p = np.zeros(5)
        child = psox_crossover(p, np.ones(5), np.ones(5),
                               self.cfg(psox_per_gene_draws=False), make_rng(4))
        assert np.allclose(child, child[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psox_crossover(np.zeros(2), np.zeros(3), np.zeros(2), self.cfg(), make_rng(0))


def unit_bounds(n):
    return Bounds.uniform(-1.0, 1.0, n)


class TestGaussianMutation:
    def test_zero_rate_is_identity(self):
        x = np.array([0.3, -0.7])
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.0)
        assert np.array_equal(gaussian_mutation(x, unit_bounds(2), cfg, make_rng(5)), x)

    def test_std_oracle(self):
        # rate 1, sigma fraction 0.1 on [-1, 1]: per-gene deviation std is 0.2.
        n = 100_000
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=1.0, gm_sigma_fraction=0.1)
        out = gaussian_mutation(np.zeros(n), unit_bounds(n), cfg, make_rng(6))
        assert abs(out.std() - 0.2) < 0.01

    @given(arrays(float, 8, elements=st.floats(-1, 1)), st.integers(0, 2**31 - 1))
    def test_bounds_containment(self, x, seed):
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.5, gm_sigma_fraction=0.5)
        out = gaussian_mutation(x, unit_bounds(8), cfg, make_rng(seed))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestNonuniformMutation:
    def cfg(self, rate=1.0):
        return MutationConfig(kind=MutationKind.NUM, per_gene_rate=rate)

    def test_final_generation_is_identity(self):
        x = np.array([0.4, -0.2])
        out = nonuniform_mutation(x, unit_bounds(2), 100, 100, self.cfg(), make_rng(7))
        assert np.array_equal(out, x)

    def test_zero_rate_is_identity(self):
        x = np.array([0.4, -0.2])
        out = nonuniform_mutation(x, unit_bounds(2), 0, 100, self.cfg(rate=0.0), make_rng(8))
        assert np.array_equal(out, x)

    def test_annealing_shrinks_steps(self):
        n = 10_000
        x = np.zeros(n)
        early = nonuniform_mutation(x, unit_bounds(n), 0, 100, self.cfg(), make_rng(9))
        late = nonuniform_mutation(x, unit_bounds(n), 90, 100, self.cfg(), make_rng(9))
        assert np.abs(early).mean() > np.abs(late).mean()

    @given(arrays(float, 8, elements=st.floats(-1, 1)), st.integers(0, 50), st.integers(0, 2**31 - 1))
    def test_bounds_containment(self, x, gen, seed):
        out = nonuniform_mutation(x, unit_bounds(8), gen, 50, self.cfg(rate=0.7), make_rng(seed))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_rejects_gen_out_of_range(self):
        with pytest.raises(ValueError):
            nonuniform_mutation(np.zeros(2), unit_bounds(2), 5, 4, self.cfg(), make_rng(0))


class TestTournament:
    def test_single_individual(self):
        assert tournament_index(np.array([3.0]), 3, make_rng(0)) == 0

    def test_argmin_contract_with_full_coverage(self):
        rng = StubRng(ints=[np.arange(4)])
        assert tournament_index(np.array([5.0, 1.0, 4.0, 2.0]), 4, rng) == 1

    def test_tie_broken_by_earliest_draw(self):
        fitness = np.array([2.0, 2.0, 2.0])
        rng = StubRng(ints=[np.array([2, 0, 1])])
        assert tournament_index(fitness, 3, rng) == 2

    def test_never_worse_than_sampled_best(self):
        seed_rng = make_rng(12)
        fitness = seed_rng.random(20)
        for _ in range(200):
            picks = seed_rng.integers(0, 20, size=3)
            winner = tournament_index(fitness, 3, StubRng(ints=[picks]))
            assert fitness[winner] == fitness[picks].min()

    def test_uniform_fitness_selects_uniformly(self):
        fitness = np.zeros(10)
        rng = make_rng(13)
        counts = np.zeros(10)
        draws = 100_000
        for _ in range(draws):
            counts[tournament_index(fitness, 3, rng)] += 1
        expected = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_index(np.array([]), 3, make_rng(0))


class TestBatchedRows:
    """Row r of an (m, n) call equals the 1-D call on row r fed that row's draws."""

    m, n = 4, 5

    def matrices(self, seed, count, low=-3.0, high=3.0):
        rng = make_rng(seed)
        return [low + (high - low) * rng.random((self.m, self.n)) for _ in range(count)]

    def draws(self, seed, count):
        # Kept inside (0.01, 0.99) so that no preset hits Laplace's u == 0 redraw.
        return [0.01 + 0.98 * u for u in self.matrices(seed, count, 0.0, 1.0)]

    def test_ax(self):
        p1, p2 = self.matrices(20, 2)
        out = ax_crossover(p1, p2, 0.3)
        for r in range(self.m):
            assert np.array_equal(out[r], ax_crossover(p1[r], p2[r], 0.3))

    @pytest.mark.parametrize("op", [
        lambda p1, p2, rng: fx_crossover(p1, p2, rng),
        lambda p1, p2, rng: blx_alpha_crossover(p1, p2, 0.5, rng),
    ], ids=["fx", "blx_alpha"])
    def test_one_child_operators(self, op):
        p1, p2 = self.matrices(21, 2)
        (u,) = self.draws(22, 1)
        out = op(p1, p2, StubRng(uniforms=[u]))
        for r in range(self.m):
            assert np.array_equal(out[r], op(p1[r], p2[r], StubRng(uniforms=[u[r]])))

    @pytest.mark.parametrize("op", [
        lambda p1, p2, rng: sbx_crossover(p1, p2, 2.0, rng),
        lambda p1, p2, rng: laplace_crossover(p1, p2, 0.0, 0.15, rng),
    ], ids=["sbx", "laplace"])
    def test_pair_operators(self, op):
        p1, p2 = self.matrices(23, 2)
        (u,) = self.draws(24, 1)
        c1, c2 = op(p1, p2, StubRng(uniforms=[u]))
        for r in range(self.m):
            r1, r2 = op(p1[r], p2[r], StubRng(uniforms=[u[r]]))
            assert np.array_equal(c1[r], r1) and np.array_equal(c2[r], r2)

    def test_psox_with_shared_gbest(self):
        p, pbest = self.matrices(25, 2)
        gbest = np.linspace(-1.0, 1.0, self.n)
        a, b = self.draws(26, 2)
        cfg = CrossoverConfig(kind=CrossoverKind.PSOX)
        out = psox_crossover(p, pbest, gbest, cfg, StubRng(uniforms=[a, b]))
        for r in range(self.m):
            row = psox_crossover(p[r], pbest[r], gbest, cfg, StubRng(uniforms=[a[r], b[r]]))
            assert np.array_equal(out[r], row)

    def test_gaussian_mutation(self):
        (x,) = self.matrices(27, 1, -1.0, 1.0)
        (hit,) = self.draws(28, 1)
        (noise,) = self.matrices(29, 1)
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.5, gm_sigma_fraction=0.1)
        out = gaussian_mutation(x, unit_bounds(self.n), cfg, StubRng(uniforms=[hit], normals=[noise]))
        for r in range(self.m):
            rng = StubRng(uniforms=[hit[r]], normals=[noise[r]])
            assert np.array_equal(out[r], gaussian_mutation(x[r], unit_bounds(self.n), cfg, rng))

    def test_nonuniform_mutation(self):
        (x,) = self.matrices(30, 1, -1.0, 1.0)
        hit, up, step = self.draws(31, 3)
        cfg = MutationConfig(kind=MutationKind.NUM, per_gene_rate=0.5)
        out = nonuniform_mutation(x, unit_bounds(self.n), 3, 10, cfg, StubRng(uniforms=[hit, up, step]))
        for r in range(self.m):
            rng = StubRng(uniforms=[hit[r], up[r], step[r]])
            assert np.array_equal(out[r], nonuniform_mutation(x[r], unit_bounds(self.n), 3, 10, cfg, rng))

    def test_psox_scalar_draws_are_per_row(self):
        cfg = CrossoverConfig(kind=CrossoverKind.PSOX, psox_w=0.0, psox_c1=1.0, psox_c2=1.0,
                              psox_per_gene_draws=False)
        direction = np.arange(1.0, self.n + 1.0)
        zeros = np.zeros((self.m, self.n))
        r1 = psox_crossover(zeros, np.tile(direction, (self.m, 1)), np.zeros(self.n), cfg, make_rng(32)) / direction
        r2 = psox_crossover(zeros, zeros, direction, cfg, make_rng(33)) / direction
        for r in (r1, r2):
            assert np.allclose(r, r[:, :1], rtol=1e-12, atol=0)  # one draw moves every gene of a row
            assert np.unique(r[:, 0]).size == self.m  # rows draw their own value
        # The draws are one (m, 1) column each for r1 and r2.
        a, b = np.array([[0.1], [0.2], [0.3], [0.4]]), np.array([[0.5], [0.6], [0.7], [0.8]])
        out = psox_crossover(zeros, np.tile(direction, (self.m, 1)), 2.0 * direction, cfg, StubRng(uniforms=[a, b]))
        assert np.allclose(out, (a + 2.0 * b) * direction, rtol=1e-12, atol=0)

    def test_tournament_rows(self):
        fitness = np.array([3.0, 1.0, 2.0, 1.0, 5.0, 0.5])
        picks = np.array([[0, 2, 4], [3, 1, 0], [1, 3, 2], [5, 5, 0], [4, 4, 4]])
        winners = tournament_index(fitness, 3, StubRng(ints=[picks]), size=len(picks))
        assert winners.tolist() == [2, 3, 1, 5, 4]  # rows 1 and 2 tie at 1.0: earliest draw wins
        for row, w in zip(picks, winners):
            assert w == tournament_index(fitness, 3, StubRng(ints=[row]))
