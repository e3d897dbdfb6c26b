"""Statistical comparison pipeline: summaries, Kruskal-Wallis omnibus test,
and a one-sided Dunnett post-hoc with a designated control group.

The Kruskal-Wallis p is exact (full permutation null) for small designs and
the asymptotic chi-square tail for large ones; the report records which.

The Dunnett step tests, for each treatment, H1: treatment mean > control mean.
Under minimization a larger objective is worse, so a "+" flag reads "the
treatment is significantly worse than the control", i.e. the control operator
wins. Family-adjusted p-values come from seeded Monte Carlo sampling of the
max-statistic null distribution; both raw p and flag are always reported so
the orientation can be re-mapped by the reader.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import chi2, rankdata

from .core import RngStream

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
class GroupSummary:
    label: str
    mean: float
    std: float


@dataclass(frozen=True)
class DunnettOutcome:
    label: str
    p_value: Optional[float]  # None when the omnibus test did not fire
    flag: str


@dataclass(frozen=True)
class StatReport:
    groups: tuple[GroupSummary, ...]
    control_label: str
    kw_h: float
    kw_p: float
    kw_method: str  # KW_EXACT or KW_CHI2: how kw_p was computed
    kw_flag: str
    dunnett: tuple[DunnettOutcome, ...]


def summarize(values) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (n-1 divisor; 0 for n=1)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("summarize: empty input")
    mean = float(np.mean(v))
    std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    return mean, std


def rank_with_ties(values) -> np.ndarray:
    """Midranks 1..N: tied values share the mean of their rank positions."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("rank_with_ties: empty input")
    return rankdata(v, method="average")


def kw_method(sizes: Sequence[int]) -> str:
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


def kruskal_wallis(groups: Sequence[SampleGroup], alpha: float = 0.05) -> tuple[float, float, str]:
    """Tie-corrected H statistic, its upper-tail p and the flag at ``alpha``.

    The p-value is P(H >= h_obs) under H0, computed by the method
    ``kw_method`` picks from the group sizes:

    - designs with at most KW_EXACT_MAX_ASSIGNMENTS = 1e5 distinct
      assignments N!/prod(n_i!) (3x3x3 = 1680, 8+8 = 12870, 4x4x5 = 90090)
      get the exact permutation p: the fixed midranks are dealt to the
      groups in every distinct way and the share with H >= h_obs is
      counted. This is the small-sample test of Kruskal & Wallis (1952);
      the chi-square approximation is poor for group sizes of 5 or fewer;
    - larger designs (10+10 = 184756, 5x5x5, every 10- or 30-run block of
      the study) get the asymptotic chi-square tail with k-1 degrees of
      freedom.

    A fully degenerate input (every value identical) is reported as no
    detectable difference: H = 0, p = 1.
    """
    if len(groups) < 2:
        raise ValueError("kruskal_wallis: need at least 2 groups")
    sizes = [g.values.size for g in groups]
    if min(sizes) < 2:
        raise ValueError("kruskal_wallis: every group needs at least 2 values")
    pooled = np.concatenate([g.values for g in groups])
    n_total = pooled.size
    if np.all(pooled == pooled[0]):
        return 0.0, 1.0, FLAG_NOT_SIGNIFICANT

    ranks = rank_with_ties(pooled)
    h = 0.0
    offset = 0
    for size in sizes:
        r = float(np.sum(ranks[offset : offset + size]))
        h += r * r / size
        offset += size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)

    _, tie_counts = np.unique(pooled, return_counts=True)
    correction = 1.0 - float(np.sum(tie_counts**3 - tie_counts)) / (n_total**3 - n_total)
    h = max(h / correction, 0.0)

    if kw_method(sizes) == KW_EXACT:
        p = _exact_kw_p(ranks, sizes)
    else:
        p = float(chi2.sf(h, len(groups) - 1))
    flag = FLAG_SIGNIFICANT if p < alpha else FLAG_NOT_SIGNIFICANT
    return h, p, flag


def _dunnett_statistics(control: SampleGroup, treatments: Sequence[SampleGroup]):
    """Per-treatment t statistics with pooled within-group variance."""
    all_groups = [control, *treatments]
    sizes = np.array([g.values.size for g in all_groups], dtype=float)
    means = np.array([float(np.mean(g.values)) for g in all_groups])
    sum_sq = sum(float(np.sum((g.values - np.mean(g.values)) ** 2)) for g in all_groups)
    dof = int(np.sum(sizes)) - len(all_groups)
    pooled_var = sum_sq / dof
    return sizes, means, pooled_var, dof


def dunnett_one_sided(
    control: SampleGroup,
    treatments: Sequence[SampleGroup],
    alpha: float,
    mc_samples: int,
    rng: RngStream,
) -> list[tuple[float, str]]:
    """Family-adjusted one-sided p for each treatment (H1: treatment mean > control mean).

    The null of the max statistic is sampled ``mc_samples`` times: shared
    control deviate, independent treatment deviates, and a shared pooled-
    variance chi-square factor, which reproduces the classic correlation
    structure of the comparison family. With zero pooled variance the p-value
    degenerates to 0 or 1 by the sign of the mean difference.
    """
    if len(treatments) == 0:
        raise ValueError("dunnett_one_sided: need at least one treatment")
    if control.values.size < 2 or any(t.values.size < 2 for t in treatments):
        raise ValueError("dunnett_one_sided: every group needs at least 2 values")
    if mc_samples < DUNNETT_MIN_SAMPLES:
        raise ValueError("dunnett_one_sided: mc_samples must be at least 10^4")

    sizes, means, pooled_var, dof = _dunnett_statistics(control, treatments)
    n0, nj = sizes[0], sizes[1:]
    diffs = means[1:] - means[0]

    if pooled_var == 0.0:
        return [(0.0, FLAG_SIGNIFICANT) if d > 0 else (1.0, FLAG_NOT_SIGNIFICANT) for d in diffs]

    scale = np.sqrt(pooled_var * (1.0 / nj + 1.0 / n0))
    t_obs = diffs / scale

    z0 = rng.standard_normal(mc_samples)
    zt = rng.standard_normal((mc_samples, len(treatments)))
    s = np.sqrt(rng.chisquare(dof, mc_samples) / dof)
    t_null = (zt / np.sqrt(nj) - z0[:, None] / np.sqrt(n0)) / (s[:, None] * np.sqrt(1.0 / nj + 1.0 / n0))
    max_null = t_null.max(axis=1)

    results = []
    for t in t_obs:
        p = float(np.mean(max_null >= t))
        results.append((p, FLAG_SIGNIFICANT if p < alpha else FLAG_NOT_SIGNIFICANT))
    return results


def build_report(
    groups: Sequence[SampleGroup],
    control_label: str,
    alpha: float,
    rng: RngStream,
    mc_samples: int = 100_000,
) -> StatReport:
    """Two-stage pipeline: omnibus Kruskal-Wallis, then Dunnett versus the control.

    The post-hoc runs only on a significant omnibus result; otherwise every
    Dunnett cell is marked not-run ("-").
    """
    labels = [g.label for g in groups]
    if control_label not in labels:
        raise ValueError(f"control group {control_label!r} not among {labels}")
    control = groups[labels.index(control_label)]
    treatments = [g for g in groups if g.label != control_label]

    summaries = tuple(GroupSummary(g.label, *summarize(g.values)) for g in groups)
    kw_h, kw_p, kw_flag = kruskal_wallis(groups, alpha)

    if kw_flag == FLAG_SIGNIFICANT:
        outcomes = dunnett_one_sided(control, treatments, alpha, mc_samples, rng)
        dunnett = tuple(DunnettOutcome(t.label, p, flag) for t, (p, flag) in zip(treatments, outcomes))
    else:
        dunnett = tuple(DunnettOutcome(t.label, None, FLAG_NOT_RUN) for t in treatments)

    return StatReport(
        groups=summaries,
        control_label=control_label,
        kw_h=kw_h,
        kw_p=kw_p,
        kw_method=kw_method([g.values.size for g in groups]),
        kw_flag=kw_flag,
        dunnett=dunnett,
    )
