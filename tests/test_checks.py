"""Each property battery fails when its fault is injected and passes
otherwise, at the quick battery sizes."""

import pytest

import gibbslz as g
from gibbslz import checks

FERMI = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
QUICK = checks.BatteryScale.quick()

BATTERIES = {
    "lc-closure": lambda fault: checks.check_lc_closure(
        0, QUICK.lc_trials, fault=fault),
    "score-ratio": lambda fault: checks.check_score_ratio(
        1, QUICK.score_trials, fault=fault),
    "efron-monotonicity": lambda fault: checks.check_efron(fault=fault),
    "na-empirical": lambda fault: checks.check_na_empirical(
        FERMI, 2, QUICK.na_draws, fault=fault),
    "local-clt": lambda fault: checks.check_local_clt(
        FERMI, QUICK.clt_sizes, fault=fault),
    "conditional-entropy-enum": lambda fault: checks.check_conditional_entropy_enum(
        6, QUICK.enum_instances, fault=fault),
}


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_fault_flips_battery(name):
    clean = BATTERIES[name](False)
    assert clean.name == name
    assert clean.passed, clean.detail
    assert not BATTERIES[name](True).passed


def test_score_ratio_fault_fails_on_empty_total(monkeypatch):
    # n = 0 gives the vacuous (0, 0); a fault landing there must still fail.
    monkeypatch.setattr(checks, "_score_ratio", lambda tables, n: (0.0, 0.0))
    assert checks.check_score_ratio(1, 3).passed
    assert not checks.check_score_ratio(1, 3, fault=True).passed
