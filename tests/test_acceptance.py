"""End-to-end acceptance suite.

Each numbered check times itself against its runtime budget and records one
"criterion N: PASS/FAIL" line, printed in the pytest terminal summary.

Heavy GA workloads (criteria 4-7) run through the experiment harness exactly
as a user would drive them: config file in, bundle of trace CSVs out.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conftest import ACCEPTANCE_LINES
from rcga import benchmarks
from rcga.core import make_rng
from rcga.engine import GaConfig, run_ga
from rcga.experiment import final_bests, load_manifest, mutation_sweep, run_experiment
from rcga.operators import (
    CrossoverConfig,
    CrossoverKind,
    MutationConfig,
    MutationKind,
    ax_crossover,
    blx_alpha_crossover,
    fx_crossover,
    laplace_crossover,
    psox_crossover,
    sbx_crossover,
)
from rcga.stats import SampleGroup, dunnett_one_sided, kruskal_wallis


def record(name: str, ok: bool, detail: str) -> None:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def write_config(path: Path, **entries) -> Path:
    path.write_text("\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n")
    return path


def cell_means(bundle: Path) -> dict[tuple[int, str], float]:
    manifest = load_manifest(bundle)
    means = {}
    for cell in manifest["cells"]:
        finals = final_bests(bundle, cell)
        if finals is not None:
            means[(cell["problem"], cell["operator"])] = float(finals.mean())
    return means


# ---------------------------------------------------------------------------
# Criterion 1: benchmark correctness


def test_criterion_1_benchmark_correctness():
    start = time.time()
    worst_gap = 0.0
    for pid in range(1, 16):
        for n in (2, 10, 30):
            spec = benchmarks.benchmark_spec(pid, dimension=n)
            rng = make_rng(10_000 + pid * 31 + n)
            if pid == 12:
                at_opt = benchmarks.batch_eval(
                    12, np.tile(spec.optimum_location, (1000, 1)), rng=rng
                ).mean()
                assert abs(at_opt - spec.optimum_value) <= 0.05 * n, (pid, n, at_opt)
            else:
                at_opt = benchmarks.batch_eval(pid, spec.optimum_location[None, :])[0]
                assert abs(at_opt - spec.optimum_value) <= 1e-12, (pid, n, at_opt)

            X = spec.bounds.lower + rng.random((100_000, n)) * spec.bounds.span
            if pid == 12:
                # Noisy objective: compare expected values. E[f] is the
                # quartic core plus n/2, so no point can undercut the
                # registered expected optimum.
                expected = np.sum(X**4, axis=1) + 0.5 * n
                low = expected.min()
            else:
                low = benchmarks.batch_eval(pid, X).min()
            gap = spec.optimum_value - low
            worst_gap = max(worst_gap, gap)
            assert low >= spec.optimum_value - 1e-12, (pid, n, low)
    elapsed = time.time() - start
    record(
        "1",
        elapsed < 30.0,
        f"15 problems x n in (2,10,30): optima exact, 1e5 samples never beat them "
        f"(worst margin {worst_gap:.1e}); {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: operator algebra


def test_criterion_2_operator_algebra():
    start = time.time()
    n = 100_000  # gene-wise operators: one huge vector = 1e5 independent pairs
    rng = make_rng(2222)

    p1 = rng.random(n) * 2.0 - 1.0
    p2 = rng.random(n) * 2.0 - 1.0
    c1, c2 = sbx_crossover(p1, p2, 2.0, rng)
    sbx_err = np.max(np.abs((c1 + c2) / 2.0 - (p1 + p2) / 2.0))
    assert sbx_err <= 1e-12

    q1 = rng.random(n) * 200.0 - 100.0
    q2 = rng.random(n) * 200.0 - 100.0
    lo, hi = np.minimum(q1, q2), np.maximum(q1, q2)
    fx = fx_crossover(q1, q2, rng)
    assert np.all(fx >= lo) and np.all(fx <= hi)
    blx = blx_alpha_crossover(q1, q2, 0.5, rng)
    spread = 0.5 * (hi - lo)
    assert np.all(blx >= lo - spread) and np.all(blx <= hi + spread)
    ax = ax_crossover(q1, q2, 0.5)
    assert np.all(ax >= lo) and np.all(ax <= hi)

    identity_cfg = CrossoverConfig(kind=CrossoverKind.PSOX, psox_w=1.0, psox_c1=0.0, psox_c2=0.0)
    child = psox_crossover(q1, rng.random(n), rng.random(n), identity_cfg, rng)
    assert np.array_equal(child, q1)

    l1, l2 = laplace_crossover(q1, q2, 0.0, 0.0, rng)
    assert np.array_equal(l1, q1) and np.array_equal(l2, q2)

    elapsed = time.time() - start
    record(
        "2",
        elapsed < 30.0,
        f"SBX mean drift {sbx_err:.1e} <= 1e-12; FX/BLX/AX containment over 1e5 pairs; "
        f"PSOX identity and Laplace(a=0,b=0) cloning bit-exact; {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: statistics oracle equivalence


FIXED_GROUPS = [
    SampleGroup("a", np.array([1.0, 2.0, 3.0])),
    SampleGroup("b", np.array([4.0, 5.0, 6.0])),
    SampleGroup("c", np.array([7.0, 8.0, 9.0])),
]


def test_criterion_3a_kruskal_wallis_h():
    start = time.time()
    h, p, _ = kruskal_wallis(FIXED_GROUPS)
    ok = abs(h - 7.2) <= 1e-9 and p < 0.05
    elapsed = time.time() - start
    record("3a", ok and elapsed < 120.0, f"H = {h:.12f} (7.2 +/- 1e-9), p = {p:.4f}; {elapsed:.1f}s")


def test_criterion_3b_kruskal_wallis_p_vs_permutation_oracle():
    # Oracle: 1e5 random reassignments of the pooled sample into the three
    # groups; the p-value is the upper tail of H over that null.
    start = time.time()
    h, p_impl, _ = kruskal_wallis(FIXED_GROUPS)
    pooled = np.concatenate([g.values for g in FIXED_GROUPS])
    ranks = scipy.stats.rankdata(pooled)
    rng = make_rng(33)
    perm = ranks[np.argsort(rng.random((100_000, 9)), axis=1)]
    sums = perm[:, 0:3].sum(axis=1), perm[:, 3:6].sum(axis=1), perm[:, 6:9].sum(axis=1)
    h_null = 12.0 / 90.0 * sum(s**2 / 3.0 for s in sums) - 30.0
    p_perm = float(np.mean(h_null >= h - 1e-9))
    elapsed = time.time() - start
    # At group sizes (3,3,3) the operation enumerates all 1680 distinct
    # assignments and returns the exact tail of the maximal H, 6/1680 ~
    # 0.0036; the asymptotic chi-square tail (0.0273) would miss the oracle.
    record(
        "3b",
        abs(p_impl - p_perm) <= 0.005 and elapsed < 120.0,
        f"KW p {p_impl:.4f} vs permutation p {p_perm:.4f} "
        f"(|diff| {abs(p_impl - p_perm):.4f}, tolerance 0.005); {elapsed:.1f}s",
    )


def test_criterion_3c_dunnett_matches_analytic_t():
    start = time.time()
    worst = 0.0
    cases = 0
    for shift in (0.0, 0.1, 0.2, 0.3, 0.5):
        for seed in range(4):
            rng = make_rng(7000 + cases)
            control = SampleGroup("ctl", rng.standard_normal(30))
            treatment = SampleGroup("t", rng.standard_normal(30) + shift)
            [p] = dunnett_one_sided(control, [treatment])
            _, p_ref = scipy.stats.ttest_ind(
                treatment.values, control.values, alternative="greater"
            )
            worst = max(worst, abs(p - p_ref))
            cases += 1
    elapsed = time.time() - start
    record(
        "3c",
        worst <= 0.01 and cases == 20 and elapsed < 120.0,
        f"k=1 quadrature vs analytic one-sided t over 20 seeded cases: "
        f"max |diff| {worst:.4f} <= 0.01; {elapsed:.1f}s < 120s",
    )


def test_criterion_3c_dunnett_matches_scipy_for_five_treatments():
    # scipy.stats.dunnett integrates the multivariate t; the family of five
    # treatments exercises the shared-control correlation that k = 1 cannot.
    # Measured max |diff| 5.3e-5 here, scipy's own quasi-Monte Carlo error.
    start = time.time()
    worst = 0.0
    cases = 0
    for shift in (0.0, 0.1, 0.2, 0.3, 0.5):
        for seed in range(4):
            rng = make_rng(7100 + cases)
            control = SampleGroup("ctl", rng.standard_normal(30))
            treatments = [SampleGroup(f"t{j}", rng.standard_normal(30) + shift * j / 4) for j in range(5)]
            p = dunnett_one_sided(control, treatments)
            ref = scipy.stats.dunnett(
                *(t.values for t in treatments), control=control.values,
                alternative="greater", random_state=make_rng(9100 + cases),
            ).pvalue
            worst = max(worst, float(np.max(np.abs(p - ref))))
            cases += 1
    elapsed = time.time() - start
    record(
        "3c (k=5)",
        worst <= 0.01 and cases == 20 and elapsed < 120.0,
        f"5-treatment quadrature vs scipy.stats.dunnett over 20 seeded 30-run cases: "
        f"max |diff| {worst:.4f} <= 0.01; {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: headline reproduction at paper scale (scaled tolerance)


def test_criterion_4_headline_sphere(tmp_path):
    start = time.time()
    cfg = write_config(
        tmp_path / "headline.cfg",
        name="headline",
        problems=9,
        dimension=30,
        operators="PSOX",
        mutations="GM",
        population_size=300,
        generations=1000,
        runs=10,
        crossover_rate=0.8,
        mutation_rate=0.1,
        seed=41,
        workers=2,
        output_dir=tmp_path / "bundle",
    )
    bundle = run_experiment(cfg)
    manifest = load_manifest(bundle)
    finals = final_bests(bundle, manifest["cells"][0])
    hits = int(np.sum(finals <= 1e-20))
    elapsed = time.time() - start
    record(
        "4",
        hits >= 9 and elapsed < 900.0,
        f"PSOX-GM on Sphere n=30, pop 300, 1000 generations: {hits}/10 runs <= 1e-20 "
        f"(best {finals.min():.1e}, worst {finals.max():.1e}); {elapsed:.0f}s < 900s",
    )


# ---------------------------------------------------------------------------
# Criteria 5 and 6: dominance and known weaknesses at desk scale (one bundle)


@pytest.fixture(scope="module")
def desk_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    cfg = write_config(
        tmp / "desk.cfg",
        name="desk",
        problems="1, 6, 8, 9, 10, 11, 13, 5, 15",
        dimension=30,
        operators="AX, FX, BLX_ALPHA, SBX, LAPLACE, PSOX",
        mutations="NUM",
        scale="desk",
        crossover_rate=0.8,
        mutation_rate=0.1,
        seed=171,
        workers=2,
        output_dir=tmp / "bundle",
    )
    start = time.time()
    bundle = run_experiment(cfg)
    return bundle, time.time() - start


def test_criterion_5_dominance_ordering(desk_bundle):
    bundle, elapsed = desk_bundle
    means = cell_means(bundle)
    competitors = ["AX", "FX", "BLX_ALPHA", "SBX", "LAPLACE"]
    wins = []
    for pid in (1, 6, 8, 9, 10, 11, 13):
        psox = means[(pid, "PSOX")]
        wins.append(all(psox < means[(pid, op)] for op in competitors))
    record(
        "5",
        sum(wins) >= 5 and elapsed < 1800.0,
        f"desk preset NUM: PSOX mean strictly best on {sum(wins)}/7 unimodal-dominance "
        f"problems (need >= 5); bundle built in {elapsed:.0f}s < 1800s",
    )


def test_criterion_6_known_weakness(desk_bundle):
    bundle, _ = desk_bundle
    means = cell_means(bundle)
    checks = {
        pid: means[(pid, "PSOX")] > means[(pid, "BLX_ALPHA")]
        and means[(pid, "PSOX")] > means[(pid, "LAPLACE")]
        for pid in (5, 15)
    }
    record(
        "6",
        all(checks.values()),
        "desk preset NUM: PSOX mean worse than BLX-alpha and LX on problems 5 and 15 "
        + str({p: f"PSOX {means[(p, 'PSOX')]:.2e} vs BLX {means[(p, 'BLX_ALPHA')]:.2e}, "
                  f"LX {means[(p, 'LAPLACE')]:.2e}" for p in (5, 15)}),
    )


# ---------------------------------------------------------------------------
# Criterion 7: mutation-rate interaction


def test_criterion_7_mutation_rate_sweep(tmp_path):
    start = time.time()
    cfg = write_config(
        tmp_path / "sweep.cfg",
        name="sweep",
        problems="4, 5, 7, 11",
        dimension=30,
        mutation_rates="0.1, 0.4, 0.7, 1.0",
        population_size=100,
        generations=100,
        runs=10,
        crossover_rate=0.8,
        seed=230,
        workers=2,
        output_dir=tmp_path / "bundle",
    )
    bundle = mutation_sweep(cfg)
    manifest = load_manifest(bundle)
    means: dict[tuple[int, float], float] = {}
    for cell in manifest["cells"]:
        finals = final_bests(bundle, cell)
        means[(cell["problem"], cell["rate"])] = float(finals.mean())
    high_rate_helps = all(means[(pid, 1.0)] <= means[(pid, 0.1)] for pid in (4, 5))
    low_rate_helps = all(means[(pid, 0.1)] <= means[(pid, 1.0)] for pid in (7, 11))
    elapsed = time.time() - start
    record(
        "7",
        high_rate_helps and low_rate_helps and elapsed < 600.0,
        f"PSOX-GM sweep: rate 1.0 helps on 4/5 "
        f"({means[(4, 1.0)]:.2e} vs {means[(4, 0.1)]:.2e}; {means[(5, 1.0)]:.2e} vs {means[(5, 0.1)]:.2e}), "
        f"rate 0.1 helps on 7/11; {elapsed:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: determinism


def test_criterion_8_byte_identical_reruns(tmp_path):
    start = time.time()
    cfg = write_config(
        tmp_path / "smoke.cfg",
        name="smoke",
        problems=9,
        dimension=10,
        operators="PSOX",
        mutations="GM",
        population_size=30,
        generations=10,
        runs=2,
        seed=7,
        workers=1,
        output_dir=tmp_path / "bundle",
    )
    bundle = run_experiment(cfg)
    first = {f.name: f.read_bytes() for f in sorted(bundle.glob("*.csv"))}
    bundle = run_experiment(cfg)
    second = {f.name: f.read_bytes() for f in sorted(bundle.glob("*.csv"))}
    elapsed = time.time() - start
    record(
        "8",
        first == second and len(first) == 1 and elapsed < 60.0,
        f"smoke config re-run reproduces trace CSVs byte for byte; {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# Criterion 9: engine invariants over randomized smoke runs


class EngineAuditor:
    """Cross-checks the archive against independently tracked history."""

    def __init__(self):
        self.violations: list[str] = []
        self._slot_min = None
        self._gbest = math.inf

    def on_generation(self, state):
        if self._slot_min is None:
            self._slot_min = np.full(state.fitness.shape, math.inf)
        self._slot_min = np.minimum(self._slot_min, state.fitness)
        mem = state.memory
        if mem.gbest_fitness > self._gbest:
            self.violations.append(f"gbest rose: {self._gbest} -> {mem.gbest_fitness}")
        self._gbest = min(self._gbest, mem.gbest_fitness)
        if not np.all(mem.pbest_fitness <= self._slot_min):
            self.violations.append("pbest above an observed occupant")
        if mem.gbest_fitness != mem.pbest_fitness.min():
            self.violations.append("gbest is not the archive minimum")


def test_criterion_9_engine_invariants():
    rng = make_rng(909)
    total_psox_picks = 0
    violations = []
    for run in range(100):
        pid = int(rng.integers(1, 16))
        kind = list(CrossoverKind)[int(rng.integers(0, 6))]
        mut = MutationKind.GM if rng.random() < 0.5 else MutationKind.NUM
        cfg = GaConfig(
            objective=benchmarks.benchmark_spec(pid, dimension=int(rng.integers(2, 6))),
            population_size=int(rng.integers(4, 20)),
            generations=int(rng.integers(3, 12)),
            crossover=CrossoverConfig(kind=kind, crossover_rate=float(rng.random())),
            mutation=MutationConfig(kind=mut, per_gene_rate=float(rng.random() * 0.5)),
            selection_k=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**31)),
            elitism=int(rng.integers(0, 3)),
        )
        auditor = EngineAuditor()
        pairs: list[tuple[int, int]] = []
        run_ga(cfg, on_generation=auditor.on_generation, psox_audit=lambda i, j: pairs.append((i, j)))
        violations.extend(auditor.violations)
        bad_pairs = [p for p in pairs if p[0] == p[1]]
        violations.extend(f"partner equals parent slot: {p}" for p in bad_pairs)
        total_psox_picks += len(pairs)
    record(
        "9",
        not violations and total_psox_picks > 0,
        f"100 randomized smoke runs: gbest monotone, archive audit clean, "
        f"{total_psox_picks} PSOX partner picks all with j != i"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )
