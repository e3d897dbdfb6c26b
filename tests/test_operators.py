from dataclasses import fields

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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psox_crossover(np.zeros(2), np.zeros(3), np.zeros(2), self.cfg(), make_rng(0))

    @pytest.mark.parametrize("shape", [(30,), (40, 30)], ids=["vector", "matrix"])
    def test_bits_equal_the_textbook_expression(self, shape):
        rng = make_rng(12)
        p, pbest, gbest = (rng.random(shape) * 20 - 10 for _ in range(3))
        gbest = gbest.reshape(-1, 30)[0]
        r1, r2 = rng.random(shape), rng.random(shape)
        cfg = self.cfg(psox_w=0.7, psox_c1=1.3, psox_c2=1.7)
        inputs = [a.copy() for a in (p, pbest, gbest)]
        child = psox_crossover(p, pbest, gbest, cfg, StubRng(uniforms=[r1, r2]))
        expected = cfg.psox_w * p + cfg.psox_c1 * r1 * (pbest - p) + cfg.psox_c2 * r2 * (gbest - p)
        assert np.array_equal(child, expected)
        assert all(np.array_equal(a, b) for a, b in zip((p, pbest, gbest), inputs))


def unit_bounds(n):
    return Bounds(-1.0, 1.0, n)


class TestGaussianMutation:
    def test_zero_rate_is_identity(self):
        x = np.array([0.3, -0.7])
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.0)
        out = gaussian_mutation(x, unit_bounds(2), cfg, make_rng(5))
        assert np.array_equal(out, x) and not np.shares_memory(out, x)

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
        assert np.array_equal(out, x) and not np.shares_memory(out, x)

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


class CountingRng:
    """A real stream that records (method, size) of every draw."""

    def __init__(self, seed):
        self._rng = make_rng(seed)
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self._rng.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        self.calls.append(("normal", size))
        return self._rng.normal(loc, scale, size)


class TestSparseMutation:
    """Mutation draws the mask for every gene, then one set of step draws per hit gene."""

    GM = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.3, gm_sigma_fraction=0.5)
    NUM = MutationConfig(kind=MutationKind.NUM, per_gene_rate=0.3)

    def mutate(self, x, b, cfg, rng):
        if cfg.kind is MutationKind.GM:
            return gaussian_mutation(x, b, cfg, rng)
        return nonuniform_mutation(x, b, 2, 10, cfg, rng)

    @pytest.mark.parametrize("cfg", [GM, NUM], ids=["gm", "num"])
    def test_genes_not_hit_come_back_bit_identical(self, cfg):
        # Out-of-box values, a negative zero and a NaN would all change under a clamp or an add.
        x = np.array([[5.0, -0.0, np.nan, 0.25], [-7.0, 0.5, 1e-300, -0.0]])
        hit = np.array([[0.9, 0.9, 0.9, 0.1], [0.9, 0.1, 0.9, 0.9]])
        rng = StubRng(uniforms=[hit, 0.2, 0.4], normals=[0.3])
        out = self.mutate(x, unit_bounds(4), cfg, rng)
        spared = hit >= cfg.per_gene_rate
        assert out[spared].tobytes() == x[spared].tobytes()
        assert not np.array_equal(out[~spared], x[~spared])

    def test_huge_steps_land_on_the_faces(self):
        x = np.array([[0.0, 0.5, -0.5], [0.5, 0.25, 0.0]])
        hit = np.array([[0.0, 0.9, 0.0], [0.9, 0.0, 0.0]])
        big = np.array([1e6, -1e6, -1e6, 1e6])
        out = gaussian_mutation(x, unit_bounds(3), self.GM, StubRng(uniforms=[hit], normals=[big]))
        assert out.tolist() == [[1.0, 0.5, -1.0], [0.5, -1.0, 1.0]]

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_chromosomes_of_another_dimension(self, n):
        with pytest.raises(ValueError, match="genes"):
            gaussian_mutation(np.zeros((2, n)), unit_bounds(3), self.GM, make_rng(0))

    def test_one_normal_per_hit(self):
        x = np.zeros((6, 7))
        rng = CountingRng(40)
        gaussian_mutation(x, unit_bounds(7), self.GM, rng)
        k = int((make_rng(40).random(x.shape) < self.GM.per_gene_rate).sum())
        assert k > 0
        assert rng.calls == [("random", x.shape), ("normal", k)]

    def test_one_direction_and_one_step_per_hit(self):
        x = np.zeros((6, 7))
        rng = CountingRng(41)
        nonuniform_mutation(x, unit_bounds(7), 2, 10, self.NUM, rng)
        k = int((make_rng(41).random(x.shape) < self.NUM.per_gene_rate).sum())
        assert k > 0
        assert rng.calls == [("random", x.shape), ("random", k), ("random", k)]

    @pytest.mark.parametrize("up,face", [(0.2, 1.0), (0.7, -1.0)], ids=["upward", "downward"])
    def test_num_hit_gene_matches_the_scalar_formula(self, up, face):
        gen, max_gen, r, x = 3, 10, 0.6, 0.2
        expected = x + (face - x) * (1.0 - r ** ((1.0 - gen / max_gen) ** self.NUM.num_b))
        out = nonuniform_mutation(np.array([x]), unit_bounds(1), gen, max_gen, self.NUM,
                                  StubRng(uniforms=[0.0, up, r]))
        assert abs(out[0] - expected) < 1e-15


FLOAT_FIELDS = [(cls, f.name) for cls in (CrossoverConfig, MutationConfig)
                for f in fields(cls) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[name for _, name in FLOAT_FIELDS])
def test_config_rejects_a_non_finite_float(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name}: must be finite$"):
        cls(**{name: value})


class TestTournament:
    def test_single_individual(self):
        assert tournament_index(np.array([3.0]), 3, make_rng(0), size=1).tolist() == [0]

    def test_argmin_contract_with_full_coverage(self):
        rng = StubRng(ints=[np.arange(4)])
        assert tournament_index(np.array([5.0, 1.0, 4.0, 2.0]), 4, rng, size=1).tolist() == [1]

    def test_tie_broken_by_earliest_draw(self):
        fitness = np.array([2.0, 2.0, 2.0])
        rng = StubRng(ints=[np.array([2, 0, 1])])
        assert tournament_index(fitness, 3, rng, size=1).tolist() == [2]

    def test_never_worse_than_sampled_best(self):
        seed_rng = make_rng(12)
        fitness = seed_rng.random(20)
        picks = seed_rng.integers(0, 20, size=(200, 3))
        winners = tournament_index(fitness, 3, StubRng(ints=[picks]), size=len(picks))
        assert np.array_equal(fitness[winners], fitness[picks].min(axis=1))

    def test_uniform_fitness_selects_uniformly(self):
        fitness = np.zeros(10)
        draws = 100_000
        counts = np.bincount(tournament_index(fitness, 3, make_rng(13), size=draws), minlength=10)
        expected = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * sigma)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            tournament_index(np.array([]), 3, make_rng(0), size=1)


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

    def hit_slices(self, hit, rate):
        """Per row, the slice of the per-hit draws that its hits take, in row-major order."""
        ends = np.cumsum((hit < rate).sum(axis=1))
        return [slice(a, z) for a, z in zip(ends - (hit < rate).sum(axis=1), ends)]

    def test_gaussian_mutation(self):
        (x,) = self.matrices(27, 1, -1.0, 1.0)
        (hit,) = self.draws(28, 1)
        noise = self.matrices(29, 1)[0].ravel()[: (hit < 0.5).sum()]
        cfg = MutationConfig(kind=MutationKind.GM, per_gene_rate=0.5, gm_sigma_fraction=0.1)
        out = gaussian_mutation(x, unit_bounds(self.n), cfg, StubRng(uniforms=[hit], normals=[noise]))
        for r, part in enumerate(self.hit_slices(hit, 0.5)):
            rng = StubRng(uniforms=[hit[r]], normals=[noise[part]])
            assert np.array_equal(out[r], gaussian_mutation(x[r], unit_bounds(self.n), cfg, rng))

    def test_nonuniform_mutation(self):
        (x,) = self.matrices(30, 1, -1.0, 1.0)
        hit, up, step = self.draws(31, 3)
        k = (hit < 0.5).sum()
        up, step = up.ravel()[:k], step.ravel()[:k]
        cfg = MutationConfig(kind=MutationKind.NUM, per_gene_rate=0.5)
        out = nonuniform_mutation(x, unit_bounds(self.n), 3, 10, cfg, StubRng(uniforms=[hit, up, step]))
        for r, part in enumerate(self.hit_slices(hit, 0.5)):
            rng = StubRng(uniforms=[hit[r], up[part], step[part]])
            assert np.array_equal(out[r], nonuniform_mutation(x[r], unit_bounds(self.n), 3, 10, cfg, rng))

    def test_tournament_rows(self):
        fitness = np.array([3.0, 1.0, 2.0, 1.0, 5.0, 0.5])
        picks = np.array([[0, 2, 4], [3, 1, 0], [1, 3, 2], [5, 5, 0], [4, 4, 4]])
        winners = tournament_index(fitness, 3, StubRng(ints=[picks]), size=len(picks))
        assert winners.tolist() == [2, 3, 1, 5, 4]  # rows 1 and 2 tie at 1.0: earliest draw wins
        for row, w in zip(picks, winners):
            assert [w] == tournament_index(fitness, 3, StubRng(ints=[row]), size=1).tolist()
