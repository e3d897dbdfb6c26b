"""Statistical comparison pipeline: summaries, Kruskal-Wallis omnibus test,
and a one-sided Dunnett post-hoc with a designated control group.

The Kruskal-Wallis p is exact (full permutation null) for small designs and
the asymptotic chi-square tail for large ones; the report records which.

The Dunnett step tests, for each treatment, H1: treatment mean > control mean.
Under minimization a larger objective is worse, so a "+" flag reads "the
treatment is significantly worse than the control", i.e. the control operator
wins. Family-adjusted p-values come from seeded Monte Carlo sampling of the
max-statistic null distribution. Both tests return p-values, and only
``build_report`` turns them into flags; ``dunnett.csv`` keeps each p
beside its flag, so the orientation can be re-mapped by the reader.

That null depends only on the design: the group sizes, control first, and
the number of draws. ``DunnettNulls(seed, mc_samples)``, its only source,
samples it at most once per design for one analysis, seeded from the
analysis seed and the design, and sorts it once; each p is then a
bisection into the sorted draws. Each deviate is drawn once, and a block
of rows at a time the treatment deviates are reduced to each row's largest
per distinct treatment size: O(mc_samples x distinct sizes) memory. With
one size, as in every block a ``run`` bundle holds, a null takes 2.6-2.9 MB
and 12-33 ms at 10^5 draws for 6 to 15 groups and 24 MB and 0.24-0.26 s at
10^6 draws for 15; 14 distinct sizes take 24 MB at 10^5 draws (tracemalloc
peak and median time, 2-core x86 host, ``BENCH_null_one_pass.json``).

The module needs only numpy and ``math``: midranks are computed with numpy,
and the chi-square tail of ``kruskal_wallis`` is the finite series that an
integer number of degrees of freedom gives (``_chi2_sf``), so no analysis
loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

FLAG_SIGNIFICANT = "+"
FLAG_NOT_SIGNIFICANT = "~"
FLAG_NOT_RUN = "-"

KW_EXACT = "exact"
KW_CHI2 = "chi2"
# Largest design, counted in distinct assignments N!/prod(n_i!), whose
# Kruskal-Wallis null is enumerated in full. Chosen on cost: time and memory
# grow linearly with the count, and at this size one enumeration takes at most
# ~16 ms and ~18 MB (9+10 groups; numpy 2.4 on one core of a 2-core x86 host),
# while 11+11 (705432 assignments) already takes ~0.2 s and ~160 MB per block.
KW_EXACT_MAX_ASSIGNMENTS = 100_000
DUNNETT_MIN_SAMPLES = 10**4  # fewest Monte Carlo draws of the Dunnett null
# Draws of the Dunnett null reduced at a time. At 4096 rows each temporary
# of a 15-group null stays under 0.5 MB; 1024 and 16384 rows took the same time.
NULL_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SampleGroup:
    """Final best objective values of one configuration, one value per run."""

    label: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"group {self.label!r}: values must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"group {self.label!r}: values must be finite")


@dataclass(frozen=True)
class DunnettOutcome:
    label: str
    p_value: Optional[float]  # None when the omnibus test did not fire
    flag: str


@dataclass(frozen=True)
class StatReport:
    kw_h: float
    kw_p: float
    kw_method: str  # KW_EXACT or KW_CHI2: how kw_p was computed
    kw_flag: str
    dunnett: tuple[DunnettOutcome, ...]


def summarize(values) -> tuple:
    """Arithmetic mean and sample standard deviation over the first axis
    (n-1 divisor; 0 for n=1). A vector gives two floats; a (runs,
    generations) matrix gives per-generation arrays. The std of values that
    include an infinity is NaN."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("summarize: empty input")
    mean = v.mean(axis=0)
    with np.errstate(invalid="ignore"):
        std = v.std(axis=0, ddof=1) if v.shape[0] > 1 else np.zeros_like(mean)
    return (float(mean), float(std)) if v.ndim == 1 else (mean, std)


def _kw_method(sizes: Sequence[int]) -> str:
    """KW_EXACT when the design has at most KW_EXACT_MAX_ASSIGNMENTS distinct
    assignments of N values to groups of the given sizes, else KW_CHI2.

    The multinomial count is built one binomial factor at a time in integer
    math and abandoned as soon as it passes the limit.
    """
    count, placed = 1, 0
    for size in sizes:
        placed += size
        count *= math.comb(placed, size)
        if count > KW_EXACT_MAX_ASSIGNMENTS:
            return KW_CHI2
    return KW_EXACT


def _combinations(m: int, n: int) -> np.ndarray:
    """All n-subsets of range(m) as rows of a (comb(m, n), n) index array."""
    combos = np.arange(m - n + 1)[:, None]
    for pos in range(1, n):
        last = combos[:, -1]
        counts = m - n + pos - last
        starts = np.cumsum(counts) - counts
        step = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        combos = np.column_stack([np.repeat(combos, counts, axis=0), np.repeat(last + 1, counts) + step])
    return combos


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midranks of ``values`` (tied values share the mean of their 1-based
    positions) and the size of each tie run, in ascending order of value."""
    order = np.argsort(values)
    _, first, counts = np.unique(values[order], return_index=True, return_counts=True)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(first + 0.5 * (counts + 1), counts)
    return ranks, counts


def _exact_kw_p(ranks: np.ndarray, sizes: Sequence[int]) -> float:
    """Exact upper tail P(H >= h_obs) over every distinct assignment of the
    pooled midranks to groups of the given sizes.

    H is an increasing function of sum(R_i^2 / n_i) for fixed N and tie
    pattern (the tie correction is the same constant for every assignment),
    so the tail is counted on the integer statistic sum(D_i^2 * L / n_i),
    with D_i the group sums of doubled midranks and L = lcm(sizes). That is
    exact: no float tolerance is needed. Below the exact-branch limit it
    stays under 2e13, far inside int64.

    The smallest groups are enumerated first, one (assignments x subsets)
    block at a time; the largest group takes what is left.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    lcm = math.lcm(*sizes)
    observed = sum(int(d.sum()) ** 2 * (lcm // d.size) for d in np.split(doubled, np.cumsum(sizes)[:-1]))

    *enumerated, last = sorted(sizes)
    stat = np.zeros(1, dtype=np.int64)
    taken = np.zeros(1, dtype=np.int64)
    remaining = doubled[None, :]
    for i, n in enumerate(enumerated):
        m = remaining.shape[1]
        chosen = _combinations(m, n)
        sums = remaining[:, chosen].sum(axis=-1)
        stat = (stat[:, None] + sums * sums * (lcm // n)).ravel()
        taken = (taken[:, None] + sums).ravel()
        if i + 1 < len(enumerated):
            keep = np.ones((chosen.shape[0], m), dtype=bool)
            np.put_along_axis(keep, chosen, False, axis=1)
            rest = np.nonzero(keep)[1].reshape(chosen.shape[0], m - n)
            remaining = remaining[:, rest].reshape(-1, m - n)
    last_sums = int(doubled.sum()) - taken
    stat += last_sums * last_sums * (lcm // last)
    return float(np.count_nonzero(stat >= observed)) / stat.size


def _chi2_sf(df: int, x: float) -> float:
    """Upper tail P(X >= x) of the chi-square distribution with integer ``df``
    degrees of freedom: Q(df/2, x/2) in closed form (Abramowitz & Stegun 26.4).

    With h = x/2 it is S = exp(-h) * sum(h^a / Gamma(a + 1)) over a = 0, 1, ...
    below df/2 for even ``df``, and erfc(sqrt(h)) + S over a = 1/2, 3/2, ...
    below df/2 for odd ``df``. Every term is positive, so nothing cancels;
    each is the previous one times h / a.
    """
    if x <= 0.0:
        return 1.0
    half = 0.5 * x
    odd = df % 2
    p = math.erfc(math.sqrt(half)) if odd else 0.0
    term = math.exp(-half) * (2.0 * math.sqrt(half / math.pi) if odd else 1.0)
    a = 0.5 * odd
    while a < 0.5 * df:
        p += term
        a += 1.0
        term *= half / a
    return p


def kruskal_wallis(groups: Sequence[SampleGroup]) -> tuple[float, float, str]:
    """Tie-corrected H statistic, its upper-tail p and the method behind p.

    The p-value is P(H >= h_obs) under H0, computed by the method
    ``_kw_method`` picks from the group sizes:

    - designs with at most KW_EXACT_MAX_ASSIGNMENTS = 1e5 distinct
      assignments N!/prod(n_i!) (3x3x3 = 1680, 8+8 = 12870, 4x4x5 = 90090)
      get the exact permutation p (KW_EXACT): the fixed midranks are dealt
      to the groups in every distinct way and the share with H >= h_obs is
      counted. This is the small-sample test of Kruskal & Wallis (1952);
      the chi-square approximation is poor for group sizes of 5 or fewer;
    - larger designs (10+10 = 184756, 5x5x5, every 10- or 30-run block of
      the study) get the asymptotic chi-square tail with k-1 degrees of
      freedom (KW_CHI2), in closed form (``_chi2_sf``).

    A fully degenerate input (every value identical) is reported as no
    detectable difference: H = 0, p = 1, with the method of its sizes.
    """
    if len(groups) < 2:
        raise ValueError("kruskal_wallis: need at least 2 groups")
    sizes = [g.values.size for g in groups]
    if min(sizes) < 2:
        raise ValueError("kruskal_wallis: every group needs at least 2 values")
    method = _kw_method(sizes)
    pooled = np.concatenate([g.values for g in groups])
    n_total = pooled.size
    if np.all(pooled == pooled[0]):
        return 0.0, 1.0, method

    ranks, tie_counts = _midranks(pooled)
    h = 0.0
    offset = 0
    for size in sizes:
        r = float(np.sum(ranks[offset : offset + size]))
        h += r * r / size
        offset += size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)

    correction = 1.0 - float(np.sum(tie_counts**3 - tie_counts)) / (n_total**3 - n_total)
    h = max(h / correction, 0.0)

    p = _exact_kw_p(ranks, sizes) if method == KW_EXACT else _chi2_sf(len(groups) - 1, h)
    return h, p, method


def _sorted_max_null(sizes: np.ndarray, mc_samples: int, rng: np.random.Generator) -> np.ndarray:
    """``mc_samples`` draws of the max statistic under H0, sorted ascending.

    ``sizes`` are the group sizes, control first. Each draw has a shared
    control deviate, independent treatment deviates and a shared pooled-
    variance chi-square factor with N - k degrees of freedom, which
    reproduces the classic correlation structure of the comparison family.

    The stream holds every control deviate, then the treatment deviates row
    by row, then every chi-square factor; each is drawn once. Among the
    treatments of one size, a draw's statistic is non-decreasing in its
    deviate (rounded subtraction and division by a positive number are
    monotone), so their largest statistic is that of their largest deviate,
    bit for bit. Each block of NULL_BLOCK_ROWS rows of treatment deviates is
    reduced to that numerator per distinct treatment size, so the result has
    the bits of the whole-matrix formula in O(mc_samples x distinct sizes)
    memory, and the stream is left where that formula leaves it.
    """
    n0, nj = sizes[0], sizes[1:]
    dof = int(np.sum(sizes)) - sizes.size
    distinct = np.unique(nj)
    control = rng.standard_normal(mc_samples) / np.sqrt(n0)
    numerators = np.empty((mc_samples, distinct.size))
    zt = np.empty((min(NULL_BLOCK_ROWS, mc_samples), nj.size))
    for start in range(0, mc_samples, NULL_BLOCK_ROWS):
        rows = slice(start, min(start + NULL_BLOCK_ROWS, mc_samples))
        block = rng.standard_normal(out=zt[: rows.stop - start])
        for i, n in enumerate(distinct):
            numerators[rows, i] = block[:, nj == n].max(axis=1) / np.sqrt(n) - control[rows]
    del control
    s = np.sqrt(rng.chisquare(dof, mc_samples) / dof)
    numerators /= s[:, None] * np.sqrt(1.0 / distinct + 1.0 / n0)
    t_max = numerators.max(axis=1)
    t_max.sort()
    return t_max


def _upper_tail(sorted_null: np.ndarray, t) -> np.ndarray:
    """Share of the null draws at or above each ``t``: ``mean(null >= t)``, by bisection."""
    n = sorted_null.size
    return (n - np.searchsorted(sorted_null, t, side="left")) / n


class DunnettNulls:
    """The Dunnett nulls of one analysis: each design's null is sampled once.

    A design is the group sizes, control first; every null of one instance
    has ``mc_samples`` draws. Each is drawn from a stream seeded by ``seed``,
    the group sizes and ``mc_samples``, so a block's p-values depend only on
    its own data, and every block of that design shares the sorted draws.
    """

    def __init__(self, seed: int, mc_samples: int):
        if mc_samples < DUNNETT_MIN_SAMPLES:
            raise ValueError("DunnettNulls: mc_samples must be at least 10^4")
        self.seed = seed
        self.mc_samples = mc_samples
        self._nulls: dict[tuple[int, ...], np.ndarray] = {}

    def sorted_null(self, sizes: np.ndarray) -> np.ndarray:
        design = (*(int(n) for n in sizes), self.mc_samples)
        if design not in self._nulls:
            rng = np.random.Generator(np.random.PCG64([self.seed, *design]))
            self._nulls[design] = _sorted_max_null(sizes, self.mc_samples, rng)
        return self._nulls[design]


def dunnett_one_sided(
    control: SampleGroup,
    treatments: Sequence[SampleGroup],
    nulls: DunnettNulls,
) -> np.ndarray:
    """Family-adjusted one-sided p for each treatment, in order (H1: treatment mean > control mean).

    The null of the max statistic is ``nulls``' shared null for this
    design. With zero pooled variance the p-value degenerates to 0 or 1 by
    the sign of the mean difference, and no null is sampled.
    """
    if len(treatments) == 0:
        raise ValueError("dunnett_one_sided: need at least one treatment")
    if control.values.size < 2 or any(t.values.size < 2 for t in treatments):
        raise ValueError("dunnett_one_sided: every group needs at least 2 values")

    all_groups = [control, *treatments]
    sizes = np.array([g.values.size for g in all_groups], dtype=float)
    means = np.array([float(np.mean(g.values)) for g in all_groups])
    sum_sq = sum(float(np.sum((g.values - m) ** 2)) for g, m in zip(all_groups, means))
    pooled_var = sum_sq / (int(np.sum(sizes)) - len(all_groups))
    n0, nj = sizes[0], sizes[1:]
    diffs = means[1:] - means[0]

    if pooled_var == 0.0:
        return np.where(diffs > 0, 0.0, 1.0)

    t_obs = diffs / np.sqrt(pooled_var * (1.0 / nj + 1.0 / n0))
    return _upper_tail(nulls.sorted_null(sizes), t_obs)


def build_report(
    groups: Sequence[SampleGroup],
    control_label: str,
    alpha: float,
    nulls: DunnettNulls,
) -> StatReport:
    """Two-stage pipeline: omnibus Kruskal-Wallis, then Dunnett versus the control.

    The only place a p is compared with ``alpha``, which must lie in (0, 1):
    a p below it is flagged significant ("+"), any other "~". The post-hoc
    runs only on a significant omnibus result; otherwise every Dunnett cell
    is marked not-run ("-"). ``nulls`` is passed on to ``dunnett_one_sided``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"build_report: alpha must lie in (0, 1), got {alpha}")
    labels = [g.label for g in groups]
    if control_label not in labels:
        raise ValueError(f"control group {control_label!r} not among {labels}")
    control = groups[labels.index(control_label)]
    treatments = [g for g in groups if g.label != control_label]

    def flag(p: float) -> str:
        return FLAG_SIGNIFICANT if p < alpha else FLAG_NOT_SIGNIFICANT

    kw_h, kw_p, method = kruskal_wallis(groups)
    kw_flag = flag(kw_p)

    if kw_flag == FLAG_SIGNIFICANT:
        p_values = dunnett_one_sided(control, treatments, nulls)
        dunnett = tuple(DunnettOutcome(t.label, float(p), flag(p)) for t, p in zip(treatments, p_values))
    else:
        dunnett = tuple(DunnettOutcome(t.label, None, FLAG_NOT_RUN) for t in treatments)

    return StatReport(
        kw_h=kw_h,
        kw_p=kw_p,
        kw_method=method,
        kw_flag=kw_flag,
        dunnett=dunnett,
    )
