"""Each property battery fails when its fault is injected and passes
otherwise, at the quick battery sizes.  The ensemble-free lemmas that
test_disttab checks at full size are held to the same contract here."""

import numpy as np
import pytest

import gibbslz as g
from gibbslz import checks
from test_disttab import (
    EFRON_PHIS,
    efron_monotone,
    efron_systems,
    log_concave,
    random_lc_table,
    score_bound_holds,
    score_ratio,
)

FERMI = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
# Fermi at mu = -45 has n = 0 at ell = 6 and 64: every draw is the empty
# string, so a fault must corrupt something other than the draws.
EMPTY = g.EnsembleSpec(g.Statistics.FERMI, 1.0, -45.0, g.CosineLattice())
QUICK = checks.BatteryScale.quick()


def lc_closure(spec, fault):
    """Random log-concave convolutions stay log-concave; the fault swaps the
    middle one for a law with p(1)^2 < p(0) p(2)."""
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(120):
        a = random_lc_table(rng)
        b = g.DistTable.bernoulli(float(rng.uniform(0.05, 0.95))) if trial % 3 == 0 \
            else random_lc_table(rng)
        c = g.convolve(a, b)
        if fault and trial == 60:
            c = g.DistTable.from_probs((0.5, 0.1, 0.4))
        ok = ok and log_concave(c)
    return checks.CheckResult("lc-closure", ok, "120 convolutions")


def score_ratio_lemma(spec, fault):
    """Downward score bound on random Bernoulli sums; the fault reverses the
    bound on one instance."""
    rng = np.random.default_rng(1)
    ok = True
    for trial in range(60):
        m = int(rng.integers(2, 33))
        ps = np.full(m, float(rng.uniform(0.1, 0.9))) if trial % 4 == 0 \
            else rng.uniform(0.05, 0.95, size=m)
        lhs, rhs = score_ratio(ps, int(rng.integers(0, m + 1)))
        ok = ok and (lhs < rhs if fault and trial == 30 else score_bound_holds(lhs, rhs))
    return checks.CheckResult("score-ratio", ok, "60 instances")


def efron(spec, fault):
    """E[phi | total] is nondecreasing; the fault replaces the sum by -sum."""
    phis = [lambda k: -k.sum(axis=1)] + EFRON_PHIS[1:] if fault else EFRON_PHIS
    ok = all(efron_monotone(t, phi) for t in efron_systems() for phi in phis)
    return checks.CheckResult("efron-monotonicity", ok, "exhaustive instances")


BATTERIES = {
    "lc-closure": lc_closure,
    "score-ratio": score_ratio_lemma,
    "efron-monotonicity": efron,
    "na-empirical": lambda spec, fault: checks.check_na_empirical(
        spec, 2, QUICK.na_draws, fault=fault),
    "moment-constants": lambda spec, fault: checks.check_moment_constants(
        spec, fault=fault),
    "local-clt": lambda spec, fault: checks.check_local_clt(
        spec, QUICK.clt_sizes, fault=fault),
    "sampler-tv": lambda spec, fault: checks.check_sampler_tv(
        spec, 5, QUICK.tv_draws, fault=fault),
    "ensemble-identities": lambda spec, fault: checks.check_ensemble_identities(
        spec, QUICK.riemann_points, fault=fault),
}
SPEC_DEPENDENT = ("na-empirical", "local-clt", "sampler-tv", "ensemble-identities")


@pytest.mark.parametrize(
    "name,spec",
    [pytest.param(name, FERMI, id=name) for name in sorted(BATTERIES)]
    + [pytest.param(name, EMPTY, id=f"{name}-empty") for name in SPEC_DEPENDENT])
def test_fault_flips_battery(name, spec):
    clean = BATTERIES[name](spec, False)
    assert clean.name == name
    assert clean.passed, clean.detail
    assert not BATTERIES[name](spec, True).passed


def test_na_empirical_passes_on_identical_draws():
    # Fermi at mu = -45 has n = 0 at ell = 64: every draw is the empty
    # string and every window covariance and its standard error vanish.
    empty = g.EnsembleSpec(g.Statistics.FERMI, 1.0, -45.0, g.CosineLattice())
    res = checks.check_na_empirical(empty, 2, QUICK.na_draws)
    assert res.passed, res.detail
    assert "n=0" in res.detail and "max cov/se 0.00" in res.detail
