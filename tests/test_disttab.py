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
    PreconditionError,
    build_suffix_dp,
    conditional_entropy_exact,
    conditional_site_marginals,
    convolve,
    efron_monotonicity_check,
    entropy_gap,
    is_log_concave,
    local_clt_error,
    score_ratio_check,
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
    assert is_log_concave(t)
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
        assert is_log_concave(t)


def test_is_log_concave_detects_violation():
    bad = DistTable.from_probs([0.5, 0.01, 0.49])
    assert not is_log_concave(bad)


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
    tables = [DistTable.bernoulli(0.4)] * 6
    dp = build_suffix_dp(tables, 6)
    for n in (0, 1, 3, 6):
        expected, _ = enumerate_conditional(tables, n)
        h = -sum(w * math.log2(w) for w in expected.values() if w > 0)
        assert conditional_entropy_exact(dp, n) == pytest.approx(h, abs=1e-10)
    with pytest.raises(DomainError):
        conditional_entropy_exact(dp, 7)


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


def test_dp_cell_budget():
    tables = [DistTable.bernoulli(0.5)] * 64
    with pytest.raises(NumericError):
        build_suffix_dp(tables, 32, max_cells=100)


def test_local_clt_error_shrinks_with_size():
    small = local_clt_error([DistTable.bernoulli(0.5)] * 25)
    big = local_clt_error([DistTable.bernoulli(0.5)] * 400)
    assert big.sup_error < small.sup_error
    assert small.lyapunov_ratio <= 1.0
    assert big.lyapunov_ratio <= 1.0
    assert big.sigma == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(DomainError):
        local_clt_error([delta(2)] * 4)


def test_score_ratio_iid_equality_and_bounds():
    tables = [DistTable.bernoulli(0.3)] * 12
    for n in range(1, 13):
        w = score_ratio_check(tables, n)
        assert w.holds
        # exchangeable sites make the bound an identity
        assert w.lhs == pytest.approx(w.rhs, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        het = [DistTable.bernoulli(float(rng.uniform(0.05, 0.95)))
               for _ in range(int(rng.integers(2, 10)))]
        n = int(rng.integers(1, len(het) + 1))
        w = score_ratio_check(het, n)
        assert w.lhs >= w.rhs - 1e-12
    vac = score_ratio_check(tables, 0)
    assert vac.holds and vac.lhs == 0.0 and vac.rhs == 0.0


def test_score_ratio_rejects_non_binary():
    with pytest.raises(PreconditionError):
        score_ratio_check([DistTable.geometric(0.5)], 1)


def test_efron_monotonicity_increasing_vs_decreasing():
    tables = [DistTable.bernoulli(0.3), DistTable.bernoulli(0.6),
              DistTable.geometric(0.8, tail_tol=1e-4)]
    assert efron_monotonicity_check(tables, lambda k: float(sum(k)))
    assert efron_monotonicity_check(tables, lambda k: float(max(k)))
    assert not efron_monotonicity_check(tables, lambda k: -float(sum(k)))
    with pytest.raises(PreconditionError):
        big = [DistTable.geometric(1.0)] * 12
        efron_monotonicity_check(big, lambda k: float(sum(k)), max_configs=1000)


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
