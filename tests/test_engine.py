import numpy as np
import pytest

from rcga import benchmarks
from rcga.core import make_rng
from rcga.engine import GaConfig, SwarmMemory, _elite_swap, init_state, run_ga, step_generation
from rcga.operators import CrossoverConfig, CrossoverKind, MutationConfig, MutationKind


def config(
    problem=9,
    dimension=4,
    pop=20,
    gens=10,
    kind=CrossoverKind.PSOX,
    mutation=MutationKind.GM,
    seed=0,
    crossover_rate=0.8,
    per_gene_rate=0.1,
    elitism=1,
):
    return GaConfig(
        objective=benchmarks.benchmark_spec(problem, dimension=dimension),
        population_size=pop,
        generations=gens,
        crossover=CrossoverConfig(kind=kind, crossover_rate=crossover_rate),
        mutation=MutationConfig(kind=mutation, per_gene_rate=per_gene_rate),
        selection_k=3,
        seed=seed,
        elitism=elitism,
    )


class TestInitState:
    def test_population_fully_evaluated(self):
        state = init_state(config(pop=300))
        assert state.positions.shape == (300, 4)
        assert state.fitness.shape == (300,)
        assert np.all(np.isfinite(state.fitness))
        assert state.memory.pbest_fitness.shape == (300,)
        assert state.evaluations == 300

    def test_gbest_is_population_argmin(self):
        state = init_state(config())
        assert state.memory.gbest_fitness == state.fitness.min()

    def test_same_seed_identical_population(self):
        a, b = init_state(config(seed=5)), init_state(config(seed=5))
        assert np.array_equal(a.positions, b.positions)

    def test_bounds_respected(self):
        state = init_state(config(problem=6))
        b = state.config.objective.bounds
        assert np.all(state.positions >= b.lower) and np.all(state.positions < b.upper)

    def test_law_of_large_numbers_mean(self):
        # Analytic mean of U[-5.12, 5.12) is 0; 1e5 draws per gene.
        state = init_state(config(problem=9, dimension=2, pop=100_000))
        assert np.all(np.abs(state.positions.mean(axis=0)) < 0.05)

    def test_one_matrix_draw_equals_per_row_draws(self):
        # PCG64 fills a (pop, n) draw row-major, so one matrix draw replays the
        # population that per-row vector draws made from the same seed.
        cfg = config(problem=6, pop=100, dimension=30, seed=15)
        b = cfg.objective.bounds
        rng = make_rng(15)
        rows = np.stack([b.lower + rng.random(30) * b.span for _ in range(100)])
        assert np.array_equal(init_state(cfg).positions, rows)


class TestStepGeneration:
    def test_disabled_variation_copies_tournament_winners(self):
        cfg = config(crossover_rate=0.0, per_gene_rate=0.0, elitism=0)
        state = init_state(cfg)
        parents = state.positions.copy()
        state = step_generation(state)
        for row in state.positions:
            assert any(np.array_equal(row, p) for p in parents)

    def test_gbest_never_degrades(self):
        state = init_state(config(seed=3))
        best = state.memory.gbest_fitness
        for _ in range(20):
            state = step_generation(state)
            assert state.memory.gbest_fitness <= best
            best = state.memory.gbest_fitness

    def test_psox_partner_slot_differs(self):
        state = init_state(config(seed=4))
        pairs = []
        for _ in range(10):
            state = step_generation(state, psox_audit=lambda i, j: pairs.append((i, j)))
        assert pairs, "PSOX crossover never fired"
        assert all(i != j for i, j in pairs)

    def test_children_respect_bounds(self):
        state = init_state(config(problem=6, seed=5))
        b = state.config.objective.bounds
        for _ in range(5):
            state = step_generation(state)
            assert np.all(state.positions >= b.lower) and np.all(state.positions <= b.upper)

    def test_pair_offspring_operators_fill_population(self):
        for kind in (CrossoverKind.SBX, CrossoverKind.LAPLACE):
            state = init_state(config(kind=kind, pop=21, seed=6))
            state = step_generation(state)
            assert state.positions.shape == (21, 4)

    def test_odd_population_pair_operators_at_full_crossover(self):
        for kind in (CrossoverKind.SBX, CrossoverKind.LAPLACE):
            state = init_state(config(problem=6, kind=kind, pop=21, crossover_rate=1.0, seed=16))
            b = state.config.objective.bounds
            for _ in range(3):
                state = step_generation(state)
                assert state.positions.shape == (21, 4) and state.fitness.shape == (21,)
                assert np.all(state.positions >= b.lower) and np.all(state.positions <= b.upper)

    def test_elitism_keeps_previous_best(self):
        cfg = config(seed=7, elitism=2)
        state = init_state(cfg)
        keep = np.sort(state.fitness)[:2]
        state = step_generation(state)
        got = np.sort(state.fitness)
        assert keep[0] in got and keep[1] in got


class TestEliteSwap:
    def test_single_elite_picks_the_slots_of_the_stable_sort(self):
        # argmin/argmax must break ties as the stable argsort did: first minimum, last maximum.
        rng = make_rng(17)
        cases = [rng.integers(0, 3, size=(2, 12)).astype(float) for _ in range(200)]
        cases.append((np.array([0.0, -0.0, 3.0]), np.array([7.0, -0.0, 7.0, 0.0])))
        for parents, children in cases:
            elite, doomed = _elite_swap(parents, children, 1)
            assert elite == np.argsort(parents, kind="stable")[0]
            assert doomed == np.argsort(children, kind="stable")[-1]


class TestSwarmMemory:
    def test_observe_tracks_per_slot_minimum(self):
        mem = SwarmMemory.from_population(np.zeros((3, 2)), np.array([3.0, 1.0, 2.0]))
        mem.observe(np.ones((3, 2)), np.array([4.0, 0.5, 2.5]))
        assert np.array_equal(mem.pbest_fitness, [3.0, 0.5, 2.0])
        assert mem.gbest_fitness == 0.5
        assert np.array_equal(mem.gbest_position, [1.0, 1.0])

    def test_gbest_equals_min_pbest(self):
        state = init_state(config(seed=8))
        for _ in range(10):
            state = step_generation(state)
            assert state.memory.gbest_fitness == state.memory.pbest_fitness.min()

    def test_pbest_dominates_every_occupant(self):
        state = init_state(config(seed=9))
        history_min = state.fitness.copy()
        for _ in range(15):
            state = step_generation(state)
            history_min = np.minimum(history_min, state.fitness)
            assert np.all(state.memory.pbest_fitness <= history_min + 0.0)


class TestRunGa:
    def test_zero_generations(self):
        trace = run_ga(config(gens=0))
        assert trace.best_per_generation.size == 0
        assert trace.evaluations == 20
        assert np.isfinite(trace.final_best_fitness)

    def test_trace_is_monotone_best_so_far(self):
        trace = run_ga(config(gens=30, seed=10))
        assert np.all(np.diff(trace.best_per_generation) <= 0.0)

    def test_pilot_sphere_convergence(self):
        cfg = GaConfig(
            objective=benchmarks.benchmark_spec(9, dimension=2),
            population_size=50,
            generations=100,
            crossover=CrossoverConfig(kind=CrossoverKind.PSOX),
            mutation=MutationConfig(kind=MutationKind.GM),
            seed=1,
        )
        assert run_ga(cfg).final_best_fitness <= 1e-6

    def test_bit_identical_replay(self):
        cfg = config(gens=15, seed=11)
        a, b = run_ga(cfg), run_ga(cfg)
        assert np.array_equal(a.best_per_generation, b.best_per_generation)
        assert np.array_equal(a.final_best_position, b.final_best_position)
        assert a.final_best_fitness == b.final_best_fitness

    def test_evaluation_budget(self):
        trace = run_ga(config(pop=30, gens=12))
        assert trace.evaluations == 30 * (12 + 1)

    def test_final_best_matches_trace_tail(self):
        trace = run_ga(config(gens=25, seed=12))
        assert trace.final_best_fitness == trace.best_per_generation[-1]

    def test_noisy_problem_runs(self):
        trace = run_ga(config(problem=12, gens=5, seed=13))
        assert np.isfinite(trace.final_best_fitness)

    def test_on_generation_hook_sees_every_step(self):
        seen = []
        run_ga(config(gens=7, seed=14), on_generation=lambda s: seen.append(s.generation))
        assert seen == list(range(1, 8))


class TestConfigValidation:
    def test_psox_needs_two_slots(self):
        with pytest.raises(ValueError):
            config(pop=1)

    def test_elitism_cannot_exceed_population(self):
        with pytest.raises(ValueError):
            GaConfig(
                objective=benchmarks.benchmark_spec(9, dimension=2),
                population_size=5,
                elitism=6,
            )
