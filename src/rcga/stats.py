"""Statistical comparison pipeline: summaries, Kruskal-Wallis omnibus test,
and a one-sided Dunnett post-hoc with a designated control group.

The Kruskal-Wallis p is exact (full permutation null) for small designs and
the asymptotic chi-square tail for large ones; the report records which.

The Dunnett step tests, for each treatment, H1: treatment mean > control mean.
Under minimization a larger objective is worse, so a "+" flag reads "the
treatment is significantly worse than the control", i.e. the control operator
wins. Each family-adjusted p is the upper tail of the max-statistic null,
a 2-D integral over the control deviate and the pooled-variance factor that
``_dunnett_sf`` computes by quadrature, deterministically and with the
relative accuracy of a small p kept. Both tests return p-values, and only
``build_report`` turns them into flags; ``dunnett.csv`` keeps each p
beside its flag, so the orientation can be re-mapped by the reader.

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
    include an infinity is NaN, and so is the mean of both infinities."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("summarize: empty input")
    with np.errstate(invalid="ignore"):
        mean = v.mean(axis=0)
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


def _dunnett_sf(sizes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Family-adjusted one-sided p, P(max_j T_j >= t) under H0, for each ``t``.

    ``sizes`` are the group sizes, control first. Under H0,
    T_j = (a_j Z_j - b_j Z_0) / S with a_j = sqrt(n_0 / (n_0 + n_j)),
    b_j = sqrt(n_j / (n_0 + n_j)), independent standard normal Z and
    S^2 = chi^2_nu / nu, nu = N - k. So p = E[1 - prod_j Phi((t S + b_j Z_0) / a_j)],
    a 2-D integral over the control deviate z and u = nu S^2 / 2, which is
    Gamma(nu / 2) distributed (Dunnett, JASA 50, 1955). Phi of each distinct
    treatment size is raised to its count, and the integrand is
    -expm1(sum log1p(-Q)), Q the normal upper tail from ``math.erfc``, so a
    small p keeps its relative accuracy.

    Both integrals are trapezoid rules, which converge exponentially for
    analytic integrands that decay on both sides (Trefethen & Weideman, SIAM
    Review 56, 2014); their steps follow from how fast each integrand grows
    off the real axis:
    - over x = log u, step min(0.4, 0.8 / sqrt(nu / 2)), centred where the
      integrand peaks, u = (nu / 2) / (1 + t^2 / nu) for t > 0, and reaching
      21 / (nu / 2) + 6 / sqrt(nu / 2) below that and 6 / sqrt(nu / 2) above;
    - over z, step sqrt(n_0 / N), since phi(z) prod_j Phi_j^count_j grows at
      most like exp(y^2 N / (2 n_0)) at distance y off the axis, centred at
      -max_j b_j t s, where a large t's tail mass lies, and reaching 6.5
      either side.
    Against a 3000 x 3000-node Gauss-Legendre rule the error was at most
    2.2e-8 for 2-15 groups of 2-30 values and t in [-2, 8]. For one treatment
    it stayed within 1e-7 of the exact t tail, relative, at t up to 60 and
    p down to 3e-54.
    """
    n0, total = sizes[0], float(np.sum(sizes))
    half = 0.5 * (total - sizes.size)
    distinct, counts = np.unique(sizes[1:], return_counts=True)
    a, b = np.sqrt(n0 / (n0 + distinct)), np.sqrt(distinct / (n0 + distinct))
    t = np.clip(np.asarray(t, dtype=float), -1e150, 1e150)  # t^2 stays finite
    t_pos = np.maximum(t, 0.0)

    step = min(0.4, 0.8 / math.sqrt(half))
    reach = 6.0 / math.sqrt(half)
    x = np.arange(-math.ceil((21.0 / half + reach) / step), math.ceil(reach / step) + 1) * step
    x = x + np.log(half / (1.0 + t_pos * t_pos / (2.0 * half)))[:, None]  # (t, x)
    u = np.exp(x)
    s = np.sqrt(u / half)
    w_x = step * np.exp(half * x - u - math.lgamma(half))

    step_z = math.sqrt(n0 / total)
    z = np.arange(-math.ceil(6.5 / step_z), math.ceil(6.5 / step_z) + 1) * step_z
    z = z - (b.max() * t_pos)[:, None, None] * s[:, :, None]  # (t, x, z)
    w_z = step_z / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)

    arg = ((t[:, None] * s)[:, :, None, None] + z[..., None] * b) / (a * math.sqrt(2.0))
    upper = 0.5 * np.fromiter(map(math.erfc, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)
    with np.errstate(divide="ignore"):  # Phi = 0 gives log -inf, and the integrand 1
        beaten = -np.expm1(np.log1p(-upper) @ counts)
    return np.minimum(np.einsum("txz,tx,txz->t", beaten, w_x, w_z), 1.0)


def dunnett_one_sided(control: SampleGroup, treatments: Sequence[SampleGroup]) -> np.ndarray:
    """Family-adjusted one-sided p for each treatment, in order (H1: treatment mean > control mean).

    Each p is the upper tail of the max statistic's null at the treatment's
    t (``_dunnett_sf``). With zero pooled variance the p-value degenerates to
    0 or 1 by the sign of the mean difference.
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
    return _dunnett_sf(sizes, t_obs)


def build_report(
    groups: Sequence[SampleGroup],
    control_label: str,
    alpha: float,
) -> StatReport:
    """Two-stage pipeline: omnibus Kruskal-Wallis, then Dunnett versus the control.

    The only place a p is compared with ``alpha``, which must lie in (0, 1):
    a p below it is flagged significant ("+"), any other "~". The post-hoc
    runs only on a significant omnibus result; otherwise every Dunnett cell
    is marked not-run ("-").
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
        p_values = dunnett_one_sided(control, treatments)
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
