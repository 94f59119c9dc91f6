"""Each property battery fails when its fault is injected and passes
otherwise, at the quick battery sizes."""

import pytest

import gibbslz as g
from gibbslz import checks

FERMI = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
# Fermi at mu = -45 has n = 0 at ell = 6 and 64: every draw is the empty
# string, so a fault must corrupt something other than the draws.
EMPTY = g.EnsembleSpec(g.Statistics.FERMI, 1.0, -45.0, g.CosineLattice())
QUICK = checks.BatteryScale.quick()

BATTERIES = {
    "lc-closure": lambda spec, fault: checks.check_lc_closure(
        0, QUICK.lc_trials, fault=fault),
    "score-ratio": lambda spec, fault: checks.check_score_ratio(
        1, QUICK.score_trials, fault=fault),
    "efron-monotonicity": lambda spec, fault: checks.check_efron(fault=fault),
    "na-empirical": lambda spec, fault: checks.check_na_empirical(
        spec, 2, QUICK.na_draws, fault=fault),
    "local-clt": lambda spec, fault: checks.check_local_clt(
        spec, QUICK.clt_sizes, fault=fault),
    "sampler-tv": lambda spec, fault: checks.check_sampler_tv(
        spec, 5, QUICK.tv_draws, fault=fault),
    "conditional-entropy-enum": lambda spec, fault: checks.check_conditional_entropy_enum(
        6, QUICK.enum_instances, fault=fault),
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


def test_score_ratio_fault_fails_on_empty_total(monkeypatch):
    # n = 0 gives the vacuous (0, 0); a fault landing there must still fail.
    monkeypatch.setattr(checks, "_score_ratio", lambda ps, n: (0.0, 0.0))
    assert checks.check_score_ratio(1, 3).passed
    assert not checks.check_score_ratio(1, 3, fault=True).passed


def test_na_empirical_passes_on_identical_draws():
    # Fermi at mu = -45 has n = 0 at ell = 64: every draw is the empty
    # string and every window covariance and its standard error vanish.
    empty = g.EnsembleSpec(g.Statistics.FERMI, 1.0, -45.0, g.CosineLattice())
    res = checks.check_na_empirical(empty, 2, QUICK.na_draws)
    assert res.passed, res.detail
    assert "n=0" in res.detail and "max cov/se 0.00" in res.detail
