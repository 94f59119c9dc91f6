import functools
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from gibbslz import (
    DistTable,
    DomainError,
    ImpossibleConditionError,
    NumericError,
    build_suffix_dp,
    checks,
    conditional_entropy_exact,
    conditional_site_marginals,
    convolve,
    disttab,
    entropy_gap,
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


def test_convolution_preserves_log_concavity():
    rng = np.random.default_rng(8)
    t = DistTable.bernoulli(0.35)
    for _ in range(6):
        other = DistTable.geometric(float(rng.uniform(0.2, 2.0)))
        t = convolve(t, other)
        # p(k)^2 >= p(k-1) p(k+1), up to float rounding
        assert np.all(np.diff(t.logp, 2) <= 1e-12)


def test_is_log_concave_detects_violation():
    bad = DistTable.from_probs([0.5, 0.01, 0.49])
    assert np.diff(bad.logp, 2)[0] > 0.0  # p(1)^2 < p(0) p(2)


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


def test_local_clt_error_shrinks_with_size():
    small_sup, small_lyap = checks._local_clt([DistTable.bernoulli(0.5)] * 25)
    big_sup, big_lyap = checks._local_clt([DistTable.bernoulli(0.5)] * 400)
    assert big_sup < small_sup
    assert small_lyap <= 1.0
    # Fair Bernoulli sites: E|K - 1/2|^3 = 1/8 and sigma^3 = (m/4)^{3/2}.
    assert big_lyap == pytest.approx(400 * 0.125 / 10.0**3, rel=1e-12)
    with pytest.raises(DomainError):
        checks._local_clt([delta(2)] * 4)


def test_score_ratio_iid_equality_and_bounds():
    tables = [DistTable.bernoulli(0.3)] * 12
    for n in range(1, 13):
        lhs, rhs = checks._score_ratio(tables, n)
        # exchangeable sites make the bound an identity
        assert lhs == pytest.approx(rhs, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        het = [DistTable.bernoulli(float(rng.uniform(0.05, 0.95)))
               for _ in range(int(rng.integers(2, 10)))]
        n = int(rng.integers(1, len(het) + 1))
        lhs, rhs = checks._score_ratio(het, n)
        assert lhs >= rhs - 1e-12
    assert checks._score_ratio(tables, 0) == (0.0, 0.0)


def test_efron_monotonicity_increasing_vs_decreasing(monkeypatch):
    # The battery's own phis on one mixed Bernoulli/geometric system; its
    # fault swaps the increasing sum for the decreasing -sum.
    tables = [DistTable.bernoulli(0.3), DistTable.bernoulli(0.6),
              DistTable.geometric(0.8, tail_tol=1e-4)]
    monkeypatch.setattr(checks, "_efron_instances", lambda: [tables])
    assert checks.check_efron().passed
    assert not checks.check_efron(fault=True).passed


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
