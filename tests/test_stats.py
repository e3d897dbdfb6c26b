import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import rcga
from rcga.core import make_rng
from rcga.stats import (
    FLAG_NOT_RUN,
    FLAG_NOT_SIGNIFICANT,
    FLAG_SIGNIFICANT,
    KW_CHI2,
    KW_EXACT,
    SampleGroup,
    _chi2_sf,
    _dunnett_sf,
    _midranks,
    build_report,
    dunnett_one_sided,
    kruskal_wallis,
    summarize,
)


def groups(*value_lists, labels=None):
    labels = labels or [f"g{i}" for i in range(len(value_lists))]
    return [SampleGroup(lab, np.asarray(vals, dtype=float)) for lab, vals in zip(labels, value_lists)]


class TestSummarize:
    def test_constant_sample(self):
        assert summarize([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_point_sample(self):
        mean, std = summarize([0.0, 2.0])
        assert mean == 1.0 and abs(std - math.sqrt(2.0)) < 1e-15

    def test_against_two_pass_oracle(self):
        values = make_rng(21).random(30) * 7 - 3
        mean, std = summarize(values)
        oracle_mean = math.fsum(values) / 30
        oracle_std = math.sqrt(math.fsum((v - oracle_mean) ** 2 for v in values) / 29)
        assert abs(mean - oracle_mean) < 1e-12
        assert abs(std - oracle_std) < 1e-12

    def test_matrix_reduces_each_column(self):
        curves = make_rng(22).random((5, 4))
        mean, std = summarize(curves)
        for g in range(4):
            assert (mean[g], std[g]) == summarize(curves[:, g])
        mean, std = summarize(curves[:1])
        assert np.array_equal(mean, curves[0]) and np.array_equal(std, np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_both_infinities_give_a_nan_mean_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, std = summarize(np.array([[np.inf, 1.0], [-np.inf, 2.0]]))
        assert np.isnan(mean[0]) and mean[1] == 1.5
        assert np.isnan(std[0]) and abs(std[1] - math.sqrt(0.5)) < 1e-15


class TestKruskalWallis:
    def test_fixed_example(self):
        h, p, method = kruskal_wallis(groups([1, 2, 3], [4, 5, 6], [7, 8, 9]))
        assert abs(h - 7.2) < 1e-9
        # Exact permutation tail: 6 of the 9!/(3!3!3!) = 1680 distinct
        # assignments reach the maximal H = 7.2.
        assert abs(p - 6 / 1680) < 1e-9
        assert p < 0.05 and method == KW_EXACT

    def test_identical_groups_convention(self):
        assert kruskal_wallis(groups([5, 5, 5], [5, 5, 5], [5, 5, 5])) == (0.0, 1.0, KW_EXACT)

    def test_method_follows_group_sizes(self):
        rng = make_rng(8)
        for sizes, method in (((3, 3, 3), KW_EXACT), ((10, 10), KW_CHI2)):
            assert kruskal_wallis(groups(*(rng.random(n) for n in sizes)))[2] == method
            assert kruskal_wallis(groups(*(np.full(n, 5.0) for n in sizes))) == (0.0, 1.0, method)

    def test_null_calibration(self):
        rng = make_rng(303)
        quiet = 0
        for _ in range(100):
            a, b = rng.standard_normal(30), rng.standard_normal(30)
            _, p, _ = kruskal_wallis(groups(a, b))
            quiet += p >= 0.05
        assert quiet >= 90

    def test_monotone_transform_invariance(self):
        rng = make_rng(42)
        raw = [rng.standard_normal(12), rng.standard_normal(12) + 0.5, rng.standard_normal(12)]
        h1, p1, _ = kruskal_wallis(groups(*raw))
        h2, p2, _ = kruskal_wallis(groups(*[np.exp(g) for g in raw]))
        assert abs(h1 - h2) < 1e-9 and abs(p1 - p2) < 1e-12

    def test_matches_scipy_with_ties(self):
        rng = make_rng(77)
        a = np.round(rng.random(15), 1)
        b = np.round(rng.random(12), 1)
        c = np.round(rng.random(18), 1)
        h, p, _ = kruskal_wallis(groups(a, b, c))
        ref = scipy.stats.kruskal(a, b, c)
        assert abs(h - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-10

    def test_exact_branch_with_ties_matches_scipy_permutation_test(self):
        # 10!/(3!3!4!) = 4200 assignments: exact branch, with three tie runs.
        a, b, c = [1.0, 1.0, 2.0], [2.0, 3.0, 3.0], [3.0, 4.0, 4.0, 5.0]
        h, p, _ = kruskal_wallis(groups(a, b, c))
        ref = scipy.stats.permutation_test(
            (a, b, c),
            lambda *gs, axis: scipy.stats.kruskal(*gs, axis=axis).statistic,
            permutation_type="independent",
            vectorized=True,
            n_resamples=np.inf,
            alternative="greater",
        )
        assert abs(h - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    def test_h_nonnegative_p_in_unit_interval(self, seed):
        rng = make_rng(seed)
        gs = groups(rng.integers(0, 4, 8).astype(float), rng.integers(0, 4, 8).astype(float))
        h, p, _ = kruskal_wallis(gs)
        assert h >= 0.0 and 0.0 <= p <= 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kruskal_wallis(groups([1, 2, 3]))
        with pytest.raises(ValueError):
            kruskal_wallis(groups([1, 2], [3]))


# Values with many exact ties: signed zeros, integer-valued floats and a few others.
tied_values = st.lists(
    st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, -1.0, 0.5, 1e-300, -7.25, 1e6]) | st.floats(-1e3, 1e3),
    min_size=1,
    max_size=300,
)


class TestMidranks:
    @given(tied_values)
    def test_equals_scipy_rankdata_bit_for_bit(self, values):
        x = np.array(values)
        ranks, tie_counts = _midranks(x)
        expected = scipy.stats.rankdata(x)
        assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(tie_counts, np.unique(x, return_counts=True)[1])

    def test_signed_zeros_tie(self):
        ranks, tie_counts = _midranks(np.array([0.0, -0.0, 2.0, -1.0, 0.0]))
        assert ranks.tolist() == [3.0, 3.0, 5.0, 1.0, 3.0] and tie_counts.tolist() == [1, 3, 1]


# (df, x, Q) with Q = P(chi2_df >= x) to 17 significant digits, computed with
# mpmath 1.3 at 40 digits:
#     mpmath.mp.dps = 40
#     for df in range(1, 21):
#         for x in (0.01 * df, 1.5 * df + 0.25, 35.0 * df):
#             q = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
#             print((df, x, mpmath.nstr(q, 17, min_fixed=0, max_fixed=0)))
CHI2_SF_REFERENCE = [
    (1, 0.01, 9.2034432544594204e-1), (1, 1.75, 1.8587673236587593e-1), (1, 35.0, 3.2970532689972866e-9),
    (2, 0.02, 9.9004983374916805e-1), (2, 3.25, 1.9691167520419405e-1), (2, 70.0, 6.3051167601469894e-16),
    (3, 0.03, 9.9863039481880868e-1), (3, 4.75, 1.9104575526969271e-1), (3, 105.0, 1.3066311890367611e-22),
    (4, 0.04, 9.9980264677289041e-1), (4, 6.25, 1.812398511965556e-1), (4, 140.0, 2.8225693124951392e-29),
    (5, 0.05, 9.9997079046000105e-1), (5, 7.75, 1.7056249096296937e-1), (5, 175.0, 6.2521912741801799e-36),
    (6, 0.06, 9.9999560004506025e-1), (6, 9.25, 1.5999871382681093e-1), (6, 210.0, 1.4083149363343887e-42),
    (7, 0.07, 9.999993289114677e-1), (7, 10.75, 1.4990175447412075e-1), (7, 245.0, 3.2104852692117017e-49),
    (8, 0.08, 9.9999989669042229e-1), (8, 12.25, 1.4039320844793484e-1), (8, 280.0, 7.3848973005097898e-56),
    (9, 0.09, 9.9999998398157908e-1), (9, 13.75, 1.3150025032417044e-1), (9, 315.0, 1.7106193656576293e-62),
    (10, 0.1, 9.9999999750204866e-1), (10, 15.25, 1.2320965531542841e-1), (10, 350.0, 3.9846469854674207e-69),
    (11, 0.11, 9.9999999960864096e-1), (11, 16.75, 1.1549110144402781e-1), (11, 385.0, 9.3242080550847138e-76),
    (12, 0.12, 9.9999999993844663e-1), (12, 18.25, 1.0830782931808251e-1), (12, 420.0, 2.1902228340261142e-82),
    (13, 0.13, 9.9999999999028705e-1), (13, 19.75, 1.0162167345118966e-1), (13, 455.0, 5.1613584398277919e-89),
    (14, 0.14, 9.9999999999846302e-1), (14, 21.25, 9.539544061669308e-2), (14, 490.0, 1.2196603264482231e-95),
    (15, 0.15, 9.999999999997562e-1), (15, 22.75, 8.959398705544551e-2), (15, 525.0, 2.8890349733063629e-102),
    (16, 0.16, 9.9999999999996124e-1), (16, 24.25, 8.418464215121335e-2), (16, 560.0, 6.8576552593984276e-109),
    (17, 0.17, 9.9999999999999383e-1), (17, 25.75, 7.9137301695358883e-2), (17, 595.0, 1.6307986677151887e-115),
    (18, 0.18, 9.9999999999999902e-1), (18, 27.25, 7.4424356853421816e-2), (18, 630.0, 3.8845227347156401e-122),
    (19, 0.19, 9.9999999999999984e-1), (19, 28.75, 7.0020545924582367e-2), (19, 665.0, 9.266430730260778e-129),
    (20, 0.2, 9.9999999999999997e-1), (20, 30.25, 6.5902774948501005e-2), (20, 700.0, 2.213405340424449e-135),
]


class TestChiSquareTail:
    @pytest.mark.parametrize("k", range(2, 16))
    def test_p_equals_scipy_chi2_sf_bit_for_bit(self, k):
        rng = make_rng(100 + k)
        # Rounded values tie; 10 runs per group put every k on the chi-square branch.
        gs = groups(*[np.round(rng.random(10) + 0.1 * i, 1) for i in range(k)])
        h, p, _ = kruskal_wallis(gs)
        # The bits are the closed form's, which is more accurate than scipy's
        # chdtrc (see the reference table below); scipy's chi2.sf is held to 1e-13.
        assert float(p).hex() == _chi2_sf(k - 1, h).hex()
        assert abs(p - scipy.stats.chi2.sf(h, k - 1)) <= 1e-13 * p

    @pytest.mark.parametrize("df, x, q", CHI2_SF_REFERENCE)
    def test_matches_the_reference_table(self, df, x, q):
        # df = 1 is erfc alone, and math.erfc's error in the far tail is ~6e-14.
        assert abs(_chi2_sf(df, x) - q) <= (1e-13 if df == 1 else 4e-15) * q

    def test_agrees_with_scipy_chi2_sf(self):
        for df, x, q in CHI2_SF_REFERENCE:
            assert abs(_chi2_sf(df, x) - scipy.stats.chi2.sf(x, df)) <= 1e-13 * q

    def test_nonpositive_x_gives_one(self):
        assert all(_chi2_sf(df, x) == 1.0 for df in range(1, 21) for x in (0.0, -0.0, -3.5))


class TestScipyLoading:
    # A fresh interpreter: this module has already loaded scipy.stats itself.
    SCRIPT = """
import json, sys
import numpy as np
import rcga, rcga.cli, rcga.experiment, rcga.svgplot
from rcga.stats import SampleGroup, kruskal_wallis

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": loaded()}
kruskal_wallis([SampleGroup(str(i), np.arange(3.0) + i) for i in range(3)])
seen["exact"] = loaded()
kruskal_wallis([SampleGroup(str(i), np.arange(30.0) + i) for i in range(2)])
seen["chi2"] = loaded()
bundle = rcga.experiment.run_experiment(sys.argv[1])
analyses = rcga.experiment.analyze(bundle)
rcga.experiment.plot_convergence(bundle)
seen["analyze"] = loaded()
print(json.dumps({"seen": seen, "methods": [a.report.kw_method for a in analyses]}))
"""

    def test_no_analysis_loads_scipy(self, tmp_path):
        config = tmp_path / "chi2.cfg"
        config.write_text(
            "name = chi2\nproblems = 9\ndimension = 4\noperators = PSOX, AX\nmutations = GM\n"
            "population_size = 16\ngenerations = 8\nruns = 10\nseed = 5\nworkers = 1\n"
            f"output_dir = {tmp_path / 'bundle'}\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rcga.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(config)], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["methods"] == [KW_CHI2]
        assert result["seen"] == {"import": [], "exact": [], "chi2": [], "analyze": []}


class TestNumpyRandomLoading:
    # A fresh interpreter: this module has already loaded numpy.random itself.
    SCRIPT = """
import json, sys
import rcga, rcga.cli, rcga.experiment, rcga.svgplot

def loaded():
    return "numpy.random" in sys.modules

seen = {"import": loaded()}
bundle = rcga.experiment.run_experiment(sys.argv[1])
seen["pooled_run"] = loaded()
rcga.experiment.analyze(bundle)
rcga.experiment.plot_convergence(bundle)
seen["analyze"] = loaded()
rcga.experiment.run_experiment(sys.argv[1], {"workers": 1, "output_dir": sys.argv[2]})
seen["one_worker_run"] = loaded()
print(json.dumps(seen))
"""

    def test_only_a_process_that_draws_loads_numpy_random(self, tmp_path):
        config = tmp_path / "rng.cfg"
        config.write_text(
            "name = rng\nproblems = 9\ndimension = 4\noperators = PSOX, AX\nmutations = GM\n"
            "population_size = 16\ngenerations = 8\nruns = 3\nseed = 5\nworkers = 2\n"
            f"output_dir = {tmp_path / 'pooled'}\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rcga.__file__).resolve().parents[1]))
        env.pop("RCGA_WORKERS", None)
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(config), str(tmp_path / "single")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # The pool's workers draw, so the pooled bundle is whole, yet the parent never loaded it.
        assert len(list((tmp_path / "pooled").glob("trace_*.csv"))) == 2
        assert json.loads(done.stdout) == {"import": False, "pooled_run": False, "analyze": False,
                                           "one_worker_run": True}


class TestDunnettOneSided:
    def test_identical_treatment_not_flagged(self):
        control = SampleGroup("ctl", np.array([1.0, 2.0, 3.0, 4.0]))
        twin = SampleGroup("twin", np.array([1.0, 2.0, 3.0, 4.0]))
        [p] = dunnett_one_sided(control, [twin])
        assert p >= 0.4

    def test_k1_reduces_to_pooled_t_test(self):
        rng = make_rng(2)
        control = SampleGroup("ctl", rng.standard_normal(30))
        shifted = SampleGroup("t", rng.standard_normal(30) + 2.0)
        [p] = dunnett_one_sided(control, [shifted])
        assert p < 0.001
        # Analytic oracle: one-sided two-sample pooled t test.
        t_stat, p_ref = scipy.stats.ttest_ind(shifted.values, control.values, alternative="greater")
        assert abs(p - p_ref) < 0.01

    def test_degenerate_variance_signs(self):
        control = SampleGroup("ctl", np.zeros(4))
        worse = SampleGroup("worse", np.ones(4))
        better = SampleGroup("better", -np.ones(4))
        assert dunnett_one_sided(control, [worse, better]).tolist() == [0.0, 1.0]
        report = build_report([control, worse, better], "ctl", 0.05)
        assert [(o.p_value, o.flag) for o in report.dunnett] == [(0.0, FLAG_SIGNIFICANT), (1.0, FLAG_NOT_SIGNIFICANT)]

    def test_location_scale_invariance(self):
        rng = make_rng(5)
        base = [rng.standard_normal(10), rng.standard_normal(10) + 1.0, rng.standard_normal(10) - 0.3]
        def run(transform):
            ctl, t1, t2 = [SampleGroup(str(i), transform(v)) for i, v in enumerate(base)]
            return dunnett_one_sided(ctl, [t1, t2])
        plain = run(lambda v: v)
        moved = run(lambda v: 3.5 * v + 11.0)
        for pa, pb in zip(plain, moved):
            assert abs(pa - pb) < 1e-3 and (pa < 0.05) == (pb < 0.05)

    def test_family_adjustment_exceeds_marginal(self):
        # With many null treatments the max-statistic family p for a fixed
        # difference must be larger than the single-comparison p.
        rng = make_rng(7)
        control = SampleGroup("ctl", rng.standard_normal(20))
        shifted = SampleGroup("s", rng.standard_normal(20) + 0.6)
        nulls = [SampleGroup(f"n{i}", rng.standard_normal(20)) for i in range(4)]
        [p_alone] = dunnett_one_sided(control, [shifted])
        ps = dunnett_one_sided(control, [shifted, *nulls])
        assert ps[0] > p_alone

    def test_requires_enough_samples(self):
        control = SampleGroup("ctl", np.array([1.0, 2.0]))
        t1 = SampleGroup("t", np.array([1.0, 2.0]))
        single = SampleGroup("one", np.array([1.5]))
        with pytest.raises(ValueError, match="every group needs at least 2 values"):
            dunnett_one_sided(control, [t1, single])
        with pytest.raises(ValueError, match="every group needs at least 2 values"):
            dunnett_one_sided(single, [t1])
        with pytest.raises(ValueError, match="need at least one treatment"):
            dunnett_one_sided(control, [])


def gauss_legendre_panels(lo: float, hi: float, panels: int):
    """Nodes and weights of a composite 10-point Gauss-Legendre rule on [lo, hi]."""
    x, w = scipy.special.roots_legendre(10)
    edges = np.linspace(lo, hi, panels + 1)
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def reference_dunnett_sf(sizes, t):
    """P(max_j T_j >= t) by a many-node rule that shares nothing with
    ``_dunnett_sf``: 400 Gauss-Legendre nodes over z in [-9, 9], 400 over
    log S in [-40 / nu - 3, 2.5] with the chi density from ``math.lgamma``, and
    log Phi from ``scipy.special.log_ndtr``. On the designs below it lies
    within 5e-10 of the same rule with 3000 x 3000 nodes."""
    sizes = np.asarray(sizes, dtype=float)
    n0, dof = sizes[0], sizes.sum() - sizes.size
    distinct, counts = np.unique(sizes[1:], return_counts=True)
    a, b = np.sqrt(n0 / (n0 + distinct)), np.sqrt(distinct / (n0 + distinct))
    z, w_z = gauss_legendre_panels(-9.0, 9.0, 40)
    w_z = w_z * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    y, w_y = gauss_legendre_panels(-40.0 / dof - 3.0, 2.5, 40)
    chi2 = dof * np.exp(2 * y)  # chi^2_nu = nu S^2, and d(chi^2) = 2 chi^2 dy
    w_y = w_y * np.exp(0.5 * dof * np.log(chi2) - 0.5 * chi2 - (0.5 * dof - 1) * math.log(2) - math.lgamma(0.5 * dof))
    s = np.exp(y)
    return np.array([
        w_y @ -np.expm1(scipy.special.log_ndtr((x * s[:, None, None] + b * z[:, None]) / a) @ counts) @ w_z
        for x in t
    ])


class TestDunnettSf:
    T = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])

    # 2-15 groups of 2-30 runs: equal sizes, and a control smaller than, larger
    # than and between the treatments.
    @pytest.mark.parametrize("sizes", [
        [2, 2], [3, 3], [2, 2, 2], [5, 5], [2, 30], [30, 2], [3, 5, 7], [10] * 6, [30] * 6,
        [2] + [30] * 14, [30] + [2] * 14, [9, *range(3, 17)], [30] * 15,
    ], ids=lambda sizes: "-".join(map(str, sizes)))
    def test_matches_a_many_node_reference(self, sizes):
        p = _dunnett_sf(np.array(sizes, dtype=float), self.T)
        assert np.abs(p - reference_dunnett_sf(sizes, self.T)).max() <= 1e-6

    def test_random_designs_match_the_reference(self):
        draw = np.random.default_rng(31)
        for _ in range(4):
            sizes = draw.integers(2, 31, size=draw.integers(2, 16))
            p = _dunnett_sf(sizes.astype(float), self.T)
            assert np.abs(p - reference_dunnett_sf(sizes, self.T)).max() <= 1e-6, sizes

    @pytest.mark.parametrize("n0", [2, 3, 5, 10, 30])
    def test_one_treatment_gives_the_t_tail(self, n0):
        # k = 1 is the one-sided pooled t test with n0 + n1 - 2 degrees of freedom.
        far = np.array([10.0, 20.0, 40.0])
        for n1 in (2, 7, 30):
            p = _dunnett_sf(np.array([n0, n1], dtype=float), np.concatenate([self.T, far]))
            exact = scipy.stats.t.sf(np.concatenate([self.T, far]), n0 + n1 - 2)
            assert np.abs(p - exact).max() <= 1e-6, n1
            # A small p keeps its relative accuracy, far below what sampling resolves.
            assert np.abs(p[-3:] / exact[-3:] - 1).max() <= 1e-6, n1

    def test_extreme_t_gives_one_or_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = _dunnett_sf(np.full(6, 30.0), np.array([-np.inf, -1e300, 1e300, np.inf]))
        assert np.abs(p - [1.0, 1.0, 0.0, 0.0]).max() <= 1e-9

    def test_p_falls_as_t_grows(self):
        t = np.linspace(-3.0, 12.0, 61)
        for sizes in ([2, 2], [2, 30, 30], [30] * 6):
            assert np.all(np.diff(_dunnett_sf(np.array(sizes, dtype=float), t)) < 0), sizes


class TestBuildReport:
    def test_identical_groups_dash_dunnett(self):
        gs = groups([5, 5, 5], [5, 5, 5], [5, 5, 5], labels=["PSOX", "AX", "FX"])
        report = build_report(gs, "PSOX", 0.05)
        assert report.kw_flag == FLAG_NOT_SIGNIFICANT
        assert all(o.flag == FLAG_NOT_RUN and o.p_value is None for o in report.dunnett)

    def test_dominant_control_flags_all_treatments(self):
        rng = make_rng(2)
        gs = [
            SampleGroup("PSOX", rng.random(30) * 1e-6),
            SampleGroup("AX", rng.random(30) + 1.0),
            SampleGroup("FX", rng.random(30) + 2.0),
        ]
        report = build_report(gs, "PSOX", 0.05)
        assert report.kw_flag == FLAG_SIGNIFICANT
        assert [o.label for o in report.dunnett] == ["AX", "FX"]
        assert all(o.flag == FLAG_SIGNIFICANT for o in report.dunnett)

    def test_alpha_moves_only_the_flags(self):
        rng = make_rng(11)
        gs = [SampleGroup(label, rng.standard_normal(10) + shift)
              for label, shift in (("PSOX", 0.0), ("AX", 0.6), ("FX", 1.0), ("SBX", 3.0))]
        strict, loose = (build_report(gs, "PSOX", alpha) for alpha in (0.01, 0.5))
        assert (strict.kw_h, strict.kw_p, strict.kw_method) == (loose.kw_h, loose.kw_p, loose.kw_method)
        assert [o.p_value for o in strict.dunnett] == [o.p_value for o in loose.dunnett]
        for alpha, report in ((0.01, strict), (0.5, loose)):
            assert report.kw_flag == FLAG_SIGNIFICANT and report.kw_p < alpha
            assert [o.flag for o in report.dunnett] == [
                FLAG_SIGNIFICANT if o.p_value < alpha else FLAG_NOT_SIGNIFICANT for o in report.dunnett
            ]
        # One Dunnett p lies between the two levels, so the flags differ.
        assert [o.flag for o in strict.dunnett] != [o.flag for o in loose.dunnett]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        gs = groups([1, 2, 3], [4, 5, 6], labels=["PSOX", "AX"])
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            build_report(gs, "PSOX", alpha)

    def test_records_kw_method(self):
        small = groups([1, 2, 3], [4, 5, 6], [7, 8, 9], labels=["PSOX", "AX", "FX"])
        rng = make_rng(5)
        large = groups(rng.random(10), rng.random(10), labels=["PSOX", "AX"])
        assert build_report(small, "PSOX", 0.05).kw_method == KW_EXACT
        assert build_report(large, "PSOX", 0.05).kw_method == KW_CHI2

    def test_deterministic_given_seed(self):
        rng = make_rng(9)
        gs = groups(rng.random(10), rng.random(10) + 0.2, labels=["PSOX", "AX"])
        r1 = build_report(gs, "PSOX", 0.05)
        r2 = build_report(gs, "PSOX", 0.05)
        assert r1 == r2

    def test_missing_control_rejected(self):
        with pytest.raises(ValueError):
            build_report(groups([1, 2], [3, 4]), "PSOX", 0.05)
