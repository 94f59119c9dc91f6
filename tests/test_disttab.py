import functools
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from gibbslz import (
    CosineLattice,
    DistTable,
    DomainError,
    EnsembleSpec,
    ImpossibleConditionError,
    NumericError,
    Statistics,
    build_suffix_dp,
    checks,
    conditional_entropy_exact,
    conditional_site_marginals,
    convolve,
    disttab,
    entropy_gap,
    marginal_tables,
    summary,
)


def delta(k):
    """Point mass at the nonnegative integer k."""
    logp = np.full(k + 1, -np.inf)
    logp[k] = 0.0
    return DistTable(logp)


def enumerate_conditional(tables, n):
    """Brute-force conditional law over configurations with the given total."""
    atoms = {}
    for config in itertools.product(*(range(t.support_max + 1) for t in tables)):
        if sum(config) != n:
            continue
        w = 1.0
        for t, k in zip(tables, config):
            w *= t.probs[k]
        atoms[config] = w
    z = sum(atoms.values())
    return {c: w / z for c, w in atoms.items()}, z


def product_atoms(tables) -> tuple[np.ndarray, np.ndarray]:
    """(configs, weights): every configuration of the product support as a
    row of an int matrix, in lexicographic order, and its product-law weight."""
    configs = np.indices([t.logp.size for t in tables]).reshape(len(tables), -1).T
    weights = np.ones(configs.shape[0])
    for j, t in enumerate(tables):
        weights *= t.probs[configs[:, j]]
    return configs, weights


def covariance(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Covariance of x and y under the probability weights w."""
    return float(w @ (x * y) - (w @ x) * (w @ y))


def random_lc_table(rng: np.random.Generator) -> DistTable:
    """Random log-concave law: concave log-pmf from sorted increments."""
    k = int(rng.integers(1, 7))
    d = np.sort(rng.uniform(-1.5, 1.5, size=k))[::-1]
    logp = np.concatenate([[0.0], np.cumsum(d)])
    return DistTable(logp - np.logaddexp.reduce(logp))


def log_concave(table: DistTable) -> bool:
    """p(k)^2 >= p(k-1) p(k+1) on the whole support, up to float rounding
    in long convolution chains; genuine violations are far larger."""
    return bool(np.all(np.diff(table.logp, 2) <= 1e-12))


def test_table_validation():
    with pytest.raises(DomainError):
        DistTable(np.array([0.1, -1.0]))  # positive log-prob
    with pytest.raises(DomainError):
        DistTable.from_probs([0.5, -0.1, 0.6])
    with pytest.raises(DomainError):
        DistTable.from_probs([0.5, 0.4])  # mass 0.9
    with pytest.raises(DomainError):
        DistTable.bernoulli(1.5)
    with pytest.raises(DomainError):
        DistTable.geometric(-2.0)
    # The one-pass check must reject NaN and +inf log-probabilities too.
    with pytest.raises(DomainError):
        DistTable(np.array([np.nan, 0.0]))
    with pytest.raises(DomainError):
        DistTable(np.array([-np.inf, np.inf]))


def test_table_is_read_only():
    t = DistTable.bernoulli(0.3)
    with pytest.raises(ValueError):
        t.logp[0] = 0.0
    with pytest.raises(ValueError):
        t.probs[0] = 99.0


def test_bernoulli_moments_closed_form():
    for p in (0.5, 0.3, 0.85):
        ms = summary(DistTable.bernoulli(p))
        assert ms.mean == pytest.approx(p, abs=1e-15)
        assert ms.variance == pytest.approx(p * (1 - p), abs=1e-15)
        third = p * (1 - p) * (p * p + (1 - p) ** 2)
        assert ms.abs_central_moment3 == pytest.approx(third, abs=1e-15)
    half = summary(DistTable.bernoulli(0.5))
    assert half.abs_central_moment3 == pytest.approx(0.125, abs=1e-15)
    assert half.entropy_bits == pytest.approx(1.0, abs=1e-15)
    assert half.mode == 0  # ties resolve to the smallest index


def test_delta_table():
    t = delta(3)
    assert t.support_max == 3
    assert summary(t).variance == 0.0
    assert summary(t).mode == 3


def test_geometric_matches_closed_form():
    a = 1.0  # mean occupancy one: q = 1/2
    t = DistTable.geometric(a, tail_tol=1e-14)
    ms = summary(t)
    assert ms.mean == pytest.approx(a, abs=1e-11)
    assert ms.variance == pytest.approx(a * (1 + a), abs=1e-10)
    two_bits = (a + 1) * math.log2(a + 1) - a * math.log2(a) if a != 1 else 2.0
    assert ms.entropy_bits == pytest.approx(two_bits, abs=1e-10)
    assert t.truncation_tail < 1e-13
    assert np.all(np.diff(t.logp, 2) <= 1e-12)  # log-concave
    # recorded tail equals the true dropped geometric mass
    q = a / (1 + a)
    assert t.truncation_tail == pytest.approx(q ** (t.support_max + 1), rel=1e-6)


def test_convolve_exact_and_tail_bookkeeping():
    a = DistTable.bernoulli(0.25)
    b = DistTable.bernoulli(0.5)
    c = convolve(a, b)
    np.testing.assert_allclose(c.probs, [0.375, 0.5, 0.125], rtol=1e-14)
    g = DistTable.geometric(0.7, tail_tol=1e-10)
    s = convolve(g, g)
    assert s.truncation_tail == pytest.approx(2 * g.truncation_tail, rel=1e-12)


def test_convolve_many_equals_the_pairwise_fold():
    rng = np.random.default_rng(4)
    tables = [DistTable.bernoulli(0.3), DistTable.geometric(0.8, tail_tol=1e-10),
              delta(2)] + [DistTable.bernoulli(float(p))
                           for p in rng.uniform(0.05, 0.95, size=20)]
    tables.append(DistTable.geometric(1.7, tail_tol=1e-9))
    many = convolve(*tables)
    folded = functools.reduce(convolve, tables)
    np.testing.assert_array_equal(many.logp, folded.logp)
    assert many.truncation_tail == folded.truncation_tail
    assert many.truncation_tail == pytest.approx(
        sum(t.truncation_tail for t in tables), rel=1e-15)


def test_convolve_of_one_table_and_of_none():
    g = DistTable.geometric(0.7, tail_tol=1e-10)
    one = convolve(g)
    np.testing.assert_array_equal(one.logp, g.logp)
    assert one.truncation_tail == g.truncation_tail
    with pytest.raises(DomainError):
        convolve()


def test_convolution_preserves_log_concavity():
    rng = np.random.default_rng(8)
    t = DistTable.bernoulli(0.35)
    for _ in range(6):
        other = DistTable.geometric(float(rng.uniform(0.2, 2.0)))
        t = convolve(t, other)
        assert log_concave(t)
    # 1000 random log-concave pairs, every third with a Bernoulli law.
    rng = np.random.default_rng(0)
    for trial in range(1000):
        a = random_lc_table(rng)
        b = DistTable.bernoulli(float(rng.uniform(0.05, 0.95))) if trial % 3 == 0 \
            else random_lc_table(rng)
        assert log_concave(convolve(a, b))


def test_is_log_concave_detects_violation():
    for probs in ([0.5, 0.01, 0.49], [0.5, 0.1, 0.4]):
        bad = DistTable.from_probs(probs)
        assert np.diff(bad.logp, 2)[0] > 0.0  # p(1)^2 < p(0) p(2)
        assert not log_concave(bad)


def test_conditional_law_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(8):
        ell = int(rng.integers(2, 6))
        tables = []
        for _ in range(ell):
            if rng.random() < 0.5:
                tables.append(DistTable.bernoulli(float(rng.uniform(0.1, 0.9))))
            else:
                tables.append(DistTable.geometric(float(rng.uniform(0.3, 1.2)),
                                                  tail_tol=1e-6))
        top = sum(t.support_max for t in tables)
        n = int(rng.integers(0, top + 1))
        law, _ = enumerate_conditional(tables, n)
        if not law:
            continue
        dp = build_suffix_dp(tables, n)
        margs = conditional_site_marginals(dp)
        for i in range(ell):
            exact = np.zeros(tables[i].support_max + 1)
            for config, w in law.items():
                exact[config[i]] += w
            got = margs[i].probs
            # occupancies beyond the target total are unreachable and trimmed
            assert got.size <= exact.size
            np.testing.assert_allclose(got, exact[: got.size], atol=1e-12)
            assert float(exact[got.size:].sum()) == 0.0
        h_enum = -sum(w * math.log2(w) for w in law.values() if w > 0)
        assert conditional_entropy_exact(dp) == pytest.approx(h_enum, abs=1e-10)
    # Negative control: the comparison tells neighbouring totals apart.
    tables = [DistTable.bernoulli(p) for p in (0.2, 0.5, 0.7, 0.9)]
    law, _ = enumerate_conditional(tables, 2)
    h_enum = -sum(w * math.log2(w) for w in law.values() if w > 0)
    h_off = conditional_entropy_exact(build_suffix_dp(tables, 3))
    assert abs(h_off - h_enum) > 1e-10


def test_uniform_conditional_anchor():
    # four fair binary sites conditioned to total 2: uniform over 6 configs
    tables = [DistTable.bernoulli(0.5)] * 4
    dp = build_suffix_dp(tables, 2)
    assert conditional_entropy_exact(dp) == pytest.approx(math.log2(6), abs=1e-12)
    for marg in conditional_site_marginals(dp):
        np.testing.assert_allclose(marg.probs, [0.5, 0.5], atol=1e-12)
    assert entropy_gap(tables, 2) == pytest.approx(math.log2(6) - 4.0, abs=1e-12)


def test_two_site_heterogeneous_anchor():
    # p = (1/3, 2/3) conditioned on one particle: P(k0 = 1) = 1/5
    tables = [DistTable.bernoulli(1 / 3), DistTable.bernoulli(2 / 3)]
    dp = build_suffix_dp(tables, 1)
    first, second = conditional_site_marginals(dp)
    assert first.probs[1] == pytest.approx(0.2, abs=1e-14)
    assert second.probs[1] == pytest.approx(0.8, abs=1e-14)


def test_dp_reuse_across_totals():
    # One DP per total: each conditions on its own target.
    tables = [DistTable.bernoulli(0.4)] * 6
    for n in (0, 1, 3, 6):
        expected, _ = enumerate_conditional(tables, n)
        h = -sum(w * math.log2(w) for w in expected.values() if w > 0)
        dp = build_suffix_dp(tables, n)
        assert conditional_entropy_exact(dp) == pytest.approx(h, abs=1e-10)
    with pytest.raises(ImpossibleConditionError):
        build_suffix_dp(tables, 7)


def test_entropy_gap_is_nonpositive():
    rng = np.random.default_rng(5)
    for _ in range(5):
        tables = [DistTable.bernoulli(float(rng.uniform(0.2, 0.8)))
                  for _ in range(6)]
        n = int(rng.integers(1, 6))
        assert entropy_gap(tables, n) <= 1e-12


def test_impossible_condition_raises():
    tables = [DistTable.bernoulli(0.5)] * 3
    with pytest.raises(ImpossibleConditionError):
        build_suffix_dp(tables, 5)
    certain = [delta(1), delta(1)]
    with pytest.raises(ImpossibleConditionError):
        build_suffix_dp(certain, 1)


def test_dp_cell_budget(monkeypatch):
    tables = [DistTable.bernoulli(0.5)] * 64
    monkeypatch.setattr(disttab, "_MAX_CELLS", 100)
    with pytest.raises(NumericError):
        build_suffix_dp(tables, 32)


def clt_ladder(site: DistTable, sizes=(25, 100, 400, 1600)) -> tuple[list, bool]:
    """Sup errors of the totals of m IID sites along the ladder, and whether
    each stays within the Lyapunov ratio times checks._CLT_RATIO_BOUND."""
    sups, within = [], True
    for m in sizes:
        sup, lyap = checks._local_clt([site] * m)
        sups.append(sup)
        within = within and sup <= checks._CLT_RATIO_BOUND * lyap
    return sups, within


def test_local_clt_error_shrinks_with_size():
    # Bernoulli ladders: the sup error stays within the Lyapunov ratio and
    # strictly shrinks as sites are added.
    for p in (0.5, 0.35):
        sups, within = clt_ladder(DistTable.bernoulli(p))
        assert within, (p, sups)
        assert all(a > b for a, b in zip(sups, sups[1:])), (p, sups)
    _, lyap = checks._local_clt([DistTable.bernoulli(0.5)] * 400)
    # Fair Bernoulli sites: E|K - 1/2|^3 = 1/8 and sigma^3 = (m/4)^{3/2}.
    assert lyap == pytest.approx(400 * 0.125 / 10.0**3, rel=1e-12)
    # Negative control: sites on {0, 2} put the total on even integers, so
    # sigma P(S = q) stays near 2 phi at even q and 0 at odd q.  The sup
    # error does not shrink, and the Lyapunov ratio, which does, falls below it.
    sups, within = clt_ladder(DistTable.from_probs((0.5, 0.0, 0.5)))
    assert not within
    assert not all(a > b for a, b in zip(sups, sups[1:])), sups
    with pytest.raises(DomainError):
        checks._local_clt([delta(2)] * 4)


def score_ratio(ps: np.ndarray, n: int) -> tuple[float, float]:
    """(lhs, rhs) of the downward score bound for a sum S of independent
    Bernoulli(p_i) occupancies,

        P(S = n-1) / P(S = n)  >=  n / ((M - n + 1) k*),

    with M the number of sites and k* the mean odds p_i/(1-p_i).  Equality
    holds in the exchangeable (all p_i equal) case; n = 0 gives (0, 0).
    The law of S is folded in the probability domain, one site at a time.
    """
    if n == 0:
        return 0.0, 0.0
    law = np.ones(1)
    for p in ps:
        law = np.convolve(law, (1.0 - p, p))
    kstar = float(np.mean(ps / (1.0 - ps)))
    return float(law[n - 1] / law[n]), n / ((len(ps) - n + 1) * kstar)


def score_bound_holds(lhs: float, rhs: float) -> bool:
    return lhs >= rhs * (1.0 - 1e-12) - 1e-15


def test_score_ratio_iid_equality_and_bounds():
    ps = np.full(12, 0.3)
    for n in range(1, 13):
        lhs, rhs = score_ratio(ps, n)
        # exchangeable sites make the bound an identity
        assert lhs == pytest.approx(rhs, rel=1e-12)
    assert score_ratio(ps, 0) == (0.0, 0.0)
    # 500 random sums of up to 32 sites, every fourth exchangeable.
    rng = np.random.default_rng(1)
    strict = 0
    for trial in range(500):
        m = int(rng.integers(2, 33))
        if trial % 4 == 0:
            ps = np.full(m, float(rng.uniform(0.1, 0.9)))
        else:
            ps = rng.uniform(0.05, 0.95, size=m)
        n = int(rng.integers(0, m + 1))
        lhs, rhs = score_ratio(ps, n)
        assert score_bound_holds(lhs, rhs), (trial, lhs, rhs)
        if trial % 4 == 0:
            assert lhs == pytest.approx(rhs, rel=1e-12)
        elif n > 1:
            # Negative control: past n = 1, where both sides are 1/sum of the
            # odds, heterogeneous sites meet the bound strictly, so the
            # reversed inequality is flagged.
            assert not score_bound_holds(rhs, lhs), (trial, lhs, rhs)
            strict += 1
    assert strict > 300


def log_domain_clt(tables):
    """(sup error, Lyapunov ratio) of checks._local_clt, with the moments
    from disttab.summary and the law from the log-domain convolve."""
    moments = [summary(t) for t in tables]
    mean = sum(m.mean for m in moments)
    var = sum(m.variance for m in moments)
    sigma = math.sqrt(var)
    law = convolve(*tables)
    qs = np.arange(min(0, math.floor(mean - 10.0 * sigma)),
                   max(law.support_max, math.ceil(mean + 10.0 * sigma)) + 1)
    pmf = np.zeros(qs.size)
    inside = (qs >= 0) & (qs <= law.support_max)
    pmf[inside] = law.probs[qs[inside]]
    gauss = np.exp(-((qs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi)
    return (float(np.max(np.abs(sigma * pmf - gauss))),
            sum(m.abs_central_moment3 for m in moments) / sigma**3)


def test_probability_folds_match_log_domain_convolve():
    # score-ratio and local-clt fold their sums in the probability domain;
    # the log-domain DistTable algebra is the oracle they must agree with.
    rng = np.random.default_rng(11)
    for _ in range(40):
        ps = rng.uniform(0.05, 0.95, size=int(rng.integers(2, 33)))
        n = int(rng.integers(1, ps.size + 1))
        law = convolve(*[DistTable.bernoulli(float(p)) for p in ps])
        lhs, _ = score_ratio(ps, n)
        ref = math.exp(law.logp[n - 1] - law.logp[n])
        assert lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
    systems = [[DistTable.bernoulli(p)] * m for p in (0.5, 0.35)
               for m in (25, 100, 400, 1600)]
    systems += [marginal_tables(EnsembleSpec(stats, 1.0, mu, CosineLattice()), 64)
                for stats, mu in ((Statistics.FERMI, 1.0), (Statistics.BOSE, -0.5))]
    for tables in systems:
        sup, lyap = checks._local_clt(tables)
        ref_sup, ref_lyap = log_domain_clt(tables)
        assert sup == pytest.approx(ref_sup, rel=0.0, abs=1e-12)
        assert lyap == pytest.approx(ref_lyap, rel=1e-12, abs=0.0)


EFRON_PHIS = [
    lambda k: k.sum(axis=1),
    lambda k: k.max(axis=1),
    lambda k: k.min(axis=1),
    lambda k: k[:, 0],
    lambda k: k @ np.arange(1, k.shape[1] + 1),
    lambda k: k.sum(axis=1) >= 2,
    lambda k: np.minimum(k, 2).sum(axis=1),
]


def efron_monotone(tables, phi) -> bool:
    """E[phi | total] is nondecreasing in the total, by enumeration; every
    total up to the summed supports must occur."""
    configs, weights = product_atoms(tables)
    totals = configs.sum(axis=1)
    vals = np.bincount(totals, weights * phi(configs)) / np.bincount(totals, weights)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    return not np.any(np.diff(vals) < -tol)


def efron_systems() -> list[list[DistTable]]:
    """Mixed Bernoulli/geometric systems with full support."""
    geom3 = DistTable.from_probs(np.array([1.0, 0.55, 0.55**2, 0.55**3])
                                 / sum(0.55**k for k in range(4)))
    binom2 = convolve(DistTable.bernoulli(0.4), DistTable.bernoulli(0.7))
    return [
        [DistTable.bernoulli(0.3), DistTable.bernoulli(0.6), DistTable.bernoulli(0.9)],
        [DistTable.bernoulli(0.5)] * 5,
        [geom3, geom3, DistTable.bernoulli(0.25)],
        [binom2, DistTable.bernoulli(0.5), geom3],
        [DistTable.bernoulli(0.3), DistTable.bernoulli(0.6),
         DistTable.geometric(0.8, tail_tol=1e-4)],
    ]


def test_efron_monotonicity_increasing_vs_decreasing():
    # Coordinatewise nondecreasing phis; the decreasing -sum is the negative
    # control.
    for tables in efron_systems():
        for phi in EFRON_PHIS:
            assert efron_monotone(tables, phi)
        assert not efron_monotone(tables, lambda k: -k.sum(axis=1))


WINDOW_FUNCS = [
    lambda v: v.sum(axis=-1),
    lambda v: v.max(axis=-1),
    lambda v: v.min(axis=-1),
    lambda v: (v.sum(axis=-1) >= 1).astype(float),
    lambda v: (v**2).sum(axis=-1),
]


def test_negative_association_exhaustive():
    # Conditioned on their total, occupancies are negatively associated:
    # nondecreasing functions of disjoint site sets have covariance <= 0.
    # Negating one function makes it decreasing, the negative control.
    geom = DistTable.from_probs(np.array([1.0, 0.5, 0.25]) / 1.75)
    systems = [
        ([DistTable.bernoulli(p) for p in (0.2, 0.5, 0.7, 0.9)], (1, 2, 3)),
        ([geom, geom, DistTable.bernoulli(0.4)], (1, 2, 3)),
        ([geom, DistTable.bernoulli(0.3), DistTable.bernoulli(0.8), geom], (2, 4)),
    ]
    splits = [((0,), (1,)), ((0,), (1, 2)), ((0, 1), (2,)), ((1,), (2,))]
    pairs = flagged = 0
    for tables, totals in systems:
        configs, weights = product_atoms(tables)
        for n in totals:
            on = configs.sum(axis=1) == n
            k = configs[on].astype(float)
            w = weights[on] / weights[on].sum()
            for a_sites, b_sites in splits:
                for f, g in itertools.product(WINDOW_FUNCS, repeat=2):
                    fv, gv = f(k[:, a_sites]), g(k[:, b_sites])
                    assert covariance(w, fv, gv) <= 1e-12
                    flagged += covariance(w, fv, -gv) > 1e-12
                    pairs += 1
    assert pairs == 800
    # Most pairs are strictly negatively correlated, so most flip.
    assert flagged > pairs // 2


def test_chebyshev_rearrangement():
    # An increasing and a decreasing function of one occupancy have
    # nonpositive covariance under any law; a comonotone pair, whose
    # covariance is a variance, is the negative control.
    rng = np.random.default_rng(3)
    for _ in range(200):
        support = int(rng.integers(1, 10))
        p = rng.uniform(0.05, 1.0, size=support + 1)
        p /= p.sum()
        up = np.cumsum(rng.uniform(0.0, 1.0, size=p.size))
        down = -np.cumsum(rng.uniform(0.0, 1.0, size=p.size))
        assert covariance(p, up, down) <= 1e-12
        assert covariance(p, up, up) > 1e-12


def mode_mean_within_bound(table: DistTable) -> bool:
    s = summary(table)
    return abs(s.mode - s.mean) <= math.sqrt(3.0 * s.variance) + 1e-12


def test_bottomley_mode_mean():
    # The mode and mean of a log-concave law differ by at most sqrt(3 Var).
    rng = np.random.default_rng(4)
    for trial in range(300):
        if trial % 5 == 0:
            table = DistTable.geometric(float(rng.uniform(0.2, 3.0)))
        else:
            table = random_lc_table(rng)
        assert mode_mean_within_bound(table)
    # Negative control: a law that is not log-concave, its mode at 0 just
    # above each of eight atoms far out, has mean - mode > sqrt(3 Var).
    probs = np.zeros(28)
    probs[0] = 0.12
    probs[20:] = 0.11
    assert not mode_mean_within_bound(DistTable.from_probs(probs))


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_suffix_rows_with_site_support_beyond_total(n):
    # Bose sites whose supports exceed n + 1 make the kernel loop over the
    # suffix row instead of the site law; the rows must still be the heads
    # of the exact law of the total.
    tables = [DistTable.geometric(m, tail_tol=1e-10) for m in (0.4, 1.5, 0.9, 2.5)]
    assert all(t.support_max > n for t in tables)
    dp = build_suffix_dp(tables, n)
    law = functools.reduce(convolve, tables)
    np.testing.assert_allclose(np.exp(dp.logT[0]), law.probs[: n + 1],
                               rtol=0.0, atol=1e-15)
    for marg in conditional_site_marginals(dp):
        assert marg.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_numerics_import_without_scipy():
    code = ("import sys, gibbslz, gibbslz.expcli, gibbslz.checks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
