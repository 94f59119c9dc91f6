"""Each property battery fails when its fault is injected and passes
otherwise, at the quick battery sizes.  The ensemble-free lemmas that
test_disttab checks at full size are held to the same contract here."""

import tracemalloc

import numpy as np
import pytest

import gibbslz as g
from gibbslz import checks, sampler
from oracles import bernoulli, convolve, from_probs
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
BOSE = g.EnsembleSpec(g.Statistics.BOSE, 1.0, -0.5, g.CosineLattice())
QUICK = checks.BatteryScale.quick()


def lc_closure(spec, fault):
    """Random log-concave convolutions stay log-concave; the fault swaps the
    middle one for a law with p(1)^2 < p(0) p(2)."""
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(120):
        a = random_lc_table(rng)
        b = bernoulli(float(rng.uniform(0.05, 0.95))) if trial % 3 == 0 \
            else random_lc_table(rng)
        c = convolve(a, b)
        if fault and trial == 60:
            c = from_probs((0.5, 0.1, 0.4))
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
    "local-clt": lambda spec, fault: checks.check_local_clt(spec, fault=fault),
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


@pytest.mark.parametrize("spec", [FERMI, BOSE], ids=["fermi", "bose"])
def test_batteries_do_not_depend_on_the_block_size(monkeypatch, spec):
    # Blocks of a few rows and of thousands: the uniforms come from one
    # stream in row order, so the window sums and the atom counts, and with
    # them the results, are those of one whole matrix of draws.
    points = QUICK.riemann_points
    mids = (np.arange(points) + 0.5) / points
    whole = (np.mean(g.marginal_mean(spec, mids)), np.mean(g.marginal_entropy(spec, mids)))
    drawn = []
    for block in (1 << 10, 1 << 17):
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
        drawn.append((checks.check_na_empirical(spec, 2, QUICK.na_draws),
                      checks.check_sampler_tv(spec, 5, QUICK.tv_draws)))
        means = checks._midpoint_means(spec, points)
        assert np.allclose(means, whole, rtol=0.0, atol=1e-15), (block, means, whole)
        res = checks.check_ensemble_identities(spec, points)
        assert res.passed, res.detail
    assert drawn[0] == drawn[1]
    assert all(res.passed for res in drawn[0])


# Fermi batteries with blocks of 2^12 cells: 4000 draws at ell=64, 60,000
# at ell=6 and 2^18 midpoints.  The whole-array code held all the uniforms
# of na-empirical (2 MiB) and their float copy, a code per sampler-tv draw
# and its sorted copy (0.5 MiB each), and 2 MiB float arrays of the
# midpoints.  Measured peaks: 0.39, 0.08 and 0.20 MiB, against 4.2, 1.0 and
# 10 MiB for the whole-array code; the bounds leave 12%.
WORKING_SETS = {
    "na-empirical": (lambda size: checks.check_na_empirical(FERMI, 2, size), 4000, 0.44),
    "sampler-tv": (lambda size: checks.check_sampler_tv(FERMI, 5, size), 60_000, 0.09),
    "ensemble-identities": (
        lambda size: checks.check_ensemble_identities(FERMI, size), 1 << 18, 0.22),
}


@pytest.mark.parametrize("name", sorted(WORKING_SETS))
def test_battery_working_set(monkeypatch, name):
    run, size, bound_mib = WORKING_SETS[name]
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1 << 12)
    # numpy imports some of its modules on first use; a small untraced run
    # keeps them out of the peak when this test runs alone.
    run(100)
    tracemalloc.start()
    try:
        res = run(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed, res.detail
    assert peak <= bound_mib * 2**20, peak / 2**20
