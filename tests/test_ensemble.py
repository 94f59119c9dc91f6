import math

import numpy as np
import pytest

from gibbslz import (
    CosineLattice,
    DomainError,
    EnsembleError,
    EnsembleSpec,
    NumericError,
    Statistics,
    TabulatedGrid,
    TargetRangeError,
    entropy_rate,
    eval_dispersion,
    marginal_entropy,
    marginal_mean,
    particle_density,
    site_entropies,
    site_means,
    solve_mu,
)
from gibbslz import ensemble

FERMI = Statistics.FERMI
BOSE = Statistics.BOSE


def fermi_spec(beta=1.0, mu=1.0):
    return EnsembleSpec(FERMI, beta, mu, CosineLattice())

def bose_spec(beta=1.0, mu=-0.5):
    return EnsembleSpec(BOSE, beta, mu, CosineLattice())


def test_cosine_dispersion_shape():
    disp = CosineLattice()
    y = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(disp.base_energy(y), [0.0, 1.0, 2.0, 1.0, 0.0],
                               atol=1e-15)
    assert disp.min_base_energy == 0.0
    assert disp.base_energy(disp.argmin_base_energy) == disp.min_base_energy
    assert disp.max_base_energy == float(disp.base_energy(0.5)) == 2.0


def test_tabulated_grid_interpolates_linearly():
    grid = TabulatedGrid((0.0, 2.0, 1.0))
    assert grid.base_energy(np.array([0.25]))[0] == pytest.approx(1.0)
    assert grid.base_energy(np.array([0.75]))[0] == pytest.approx(1.5)
    assert grid.min_base_energy == 0.0
    assert grid.argmin_base_energy == 0.0
    # the first minimising node, here off any power-of-two grid
    low = TabulatedGrid((0.5, 0.2, 0.9, 0.2))
    assert low.argmin_base_energy == 1 / 3
    assert low.base_energy(low.argmin_base_energy) == low.min_base_energy
    # linear pieces peak at a node: the band maximum is the largest value
    assert grid.max_base_energy == 2.0
    assert low.max_base_energy == 0.9


def test_tabulated_grid_needs_two_points():
    with pytest.raises(DomainError):
        TabulatedGrid((1.0,))


def test_spec_validation():
    with pytest.raises(EnsembleError):
        EnsembleSpec(FERMI, 0.0, 1.0, CosineLattice())
    with pytest.raises(EnsembleError):
        EnsembleSpec(FERMI, -1.0, 1.0, CosineLattice())
    with pytest.raises(EnsembleError):
        EnsembleSpec(FERMI, 1.0, math.inf, CosineLattice())
    # Bose chemical potential must stay below the band minimum (0 here)
    with pytest.raises(EnsembleError):
        EnsembleSpec(BOSE, 1.0, 0.0, CosineLattice())
    with pytest.raises(EnsembleError):
        EnsembleSpec(BOSE, 1.0, 0.5, CosineLattice())
    EnsembleSpec(BOSE, 1.0, -1e-6, CosineLattice())


def test_eval_dispersion_domain():
    spec = fermi_spec()
    with pytest.raises(DomainError):
        eval_dispersion(spec, np.array([-0.1]))
    with pytest.raises(DomainError):
        eval_dispersion(spec, np.array([1.1]))


def test_fermi_marginal_closed_points():
    # at omega = mu the level is half filled with one full bit of entropy
    spec = fermi_spec(beta=1.0, mu=1.0)
    assert marginal_mean(spec, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert marginal_entropy(spec, 0.25) == pytest.approx(1.0, abs=1e-15)
    # beta*(omega - mu) = ln 3 gives occupancy 1/4
    spec2 = fermi_spec(beta=1.0, mu=1.0 - math.log(3.0))
    assert marginal_mean(spec2, 0.25) == pytest.approx(0.25, rel=1e-14)
    h_quarter = 2.0 - 0.75 * math.log2(3.0)
    assert marginal_entropy(spec2, 0.25) == pytest.approx(h_quarter, rel=1e-14)


def test_bose_marginal_closed_points():
    # beta*(omega - mu) = ln 2 gives mean occupancy 1 and entropy 2 bits
    spec = EnsembleSpec(BOSE, 1.0, -math.log(2.0), CosineLattice())
    assert marginal_mean(spec, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert marginal_entropy(spec, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_marginal_extreme_arguments_are_finite():
    # far tails must not overflow or produce NaN
    spec = fermi_spec(beta=50.0, mu=-5.0)
    assert marginal_mean(spec, 0.5) > 0.0
    assert np.isfinite(marginal_entropy(spec, 0.5))
    spec2 = EnsembleSpec(BOSE, 40.0, -15.0, CosineLattice())
    m = marginal_mean(spec2, 0.0)
    assert m == pytest.approx(math.exp(-600.0), rel=1e-12)
    assert np.isfinite(marginal_entropy(spec2, 0.0))


def test_site_profiles_match_pointwise_formulas():
    spec = bose_spec()
    ell = 9
    y = np.arange(ell) / ell
    np.testing.assert_allclose(site_means(spec, ell), marginal_mean(spec, y),
                               rtol=1e-15)
    np.testing.assert_allclose(site_entropies(spec, ell),
                               marginal_entropy(spec, y), rtol=1e-15)


def test_half_filling_symmetry():
    # cosine band symmetric around its mean energy pins density to 1/2
    spec = fermi_spec(beta=1.0, mu=1.0)
    assert particle_density(spec) == pytest.approx(0.5, abs=1e-9)


def test_quadrature_against_riemann():
    rng = np.random.default_rng(4)
    for _ in range(4):
        beta = float(rng.uniform(0.4, 2.5))
        if rng.random() < 0.5:
            spec = EnsembleSpec(FERMI, beta, float(rng.uniform(-1.0, 3.0)),
                                CosineLattice())
        else:
            spec = EnsembleSpec(BOSE, beta, float(rng.uniform(-2.5, -0.1)),
                                CosineLattice())
        y = (np.arange(200_000) + 0.5) / 200_000
        assert particle_density(spec) == pytest.approx(
            float(marginal_mean(spec, y).mean()), abs=1e-7)
        assert entropy_rate(spec) == pytest.approx(
            float(marginal_entropy(spec, y).mean()), abs=1e-7)


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        particle_density(fermi_spec(), quad_tol=0.0)


def test_quadrature_budget_guard():
    # integrable near-divergence exhausts the interval budget loudly
    spec = EnsembleSpec(BOSE, 1.0, -1e-12, CosineLattice())
    with pytest.raises(NumericError):
        particle_density(spec)


def test_solve_mu_round_trips():
    cases = [
        (FERMI, 0.9, 0.3),
        (FERMI, 1.7, 0.8),
        (BOSE, 1.0, 0.4),
        (BOSE, 0.6, 2.5),
    ]
    for stats, beta, r in cases:
        mu = solve_mu(stats, CosineLattice(), beta, r)
        spec = EnsembleSpec(stats, beta, mu, CosineLattice())
        assert particle_density(spec) == pytest.approx(r, abs=1e-8)


def test_solve_mu_symmetric_anchor():
    # Exact reprs: the bench's ladder-fermi solves r = 0.5, and every output
    # derived from mu is byte-compared with earlier releases.
    assert repr(solve_mu(FERMI, CosineLattice(), 1.0, 0.5)) == "1.0"
    assert repr(solve_mu(FERMI, CosineLattice(), 1.0, 0.3)) == "0.053760336634280856"


def one_mode_shift(stats, beta, r):
    """mu - omega0 at which a single mode's mean occupancy is r."""
    if stats is FERMI:
        return math.log(r / (1.0 - r)) / beta
    return -math.log1p(1.0 / r) / beta


@pytest.mark.parametrize("band", [CosineLattice(), TabulatedGrid((0.5, 0.2, 0.9, 0.4)),
                                  TabulatedGrid((0.0, 100.0))],
                         ids=["cosine", "grid4", "grid0-100"])
@pytest.mark.parametrize("stats,r", [(FERMI, 0.05), (FERMI, 0.7),
                                     (BOSE, 0.02), (BOSE, 1.5)])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_band_extremes_bracket_the_density(band, stats, r, beta):
    # solve_mu bisects [min omega0 + s, max omega0 + s] without probing its
    # ends; a Bose upper end is proven only below the band minimum.
    def density(mu):
        return particle_density(EnsembleSpec(stats, beta, mu, band))

    s = one_mode_shift(stats, beta, r)
    bottom, top = band.min_base_energy + s, band.max_base_energy + s
    assert density(bottom) <= r
    if stats is BOSE and top >= band.min_base_energy:
        return
    assert density(top) >= r
    # negative control: the extremes swapped do not bracket r
    assert not density(top) <= r <= density(bottom)


def test_solve_mu_reports_a_density_short_at_the_bose_ceiling(monkeypatch):
    # Density held below r: a Bose bisection collapses onto its unproven
    # upper end just under the band minimum, which means r is unattainable;
    # a Fermi bracket is proven at both ends, so its collapse is numeric.
    monkeypatch.setattr(ensemble, "particle_density", lambda spec, quad_tol: 0.1)
    with pytest.raises(TargetRangeError, match="not attainable"):
        solve_mu(BOSE, CosineLattice(), 1.0, 0.4)
    with pytest.raises(NumericError, match="collapsed"):
        solve_mu(FERMI, CosineLattice(), 1.0, 0.4)


def test_solve_mu_reports_a_quadrature_failure_at_the_bose_ceiling(monkeypatch):
    # A quadrature that fails while hi is still the Bose ceiling has seen
    # only densities below r; once a density above r has moved hi, or for
    # Fermi, a failure stays numeric.
    def fail(spec, quad_tol):
        raise NumericError("quadrature did not converge")

    monkeypatch.setattr(ensemble, "particle_density", fail)
    with pytest.raises(TargetRangeError, match="quadrature"):
        solve_mu(BOSE, CosineLattice(), 1.0, 0.4)
    with pytest.raises(NumericError, match="quadrature"):
        solve_mu(FERMI, CosineLattice(), 1.0, 0.4)
    calls = []

    def above_then_fail(spec, quad_tol):
        calls.append(spec.mu)
        return 0.5 if len(calls) == 1 else fail(spec, quad_tol)

    monkeypatch.setattr(ensemble, "particle_density", above_then_fail)
    with pytest.raises(NumericError, match="quadrature"):
        solve_mu(BOSE, CosineLattice(), 1.0, 0.4)


def test_solve_mu_on_a_linear_bose_band_edge():
    # Exact reprs of densities the quadrature reaches below the ceiling.
    band = TabulatedGrid((0.0, 1.0))
    assert repr(solve_mu(BOSE, band, 1.0, 1.0)) == "-0.3132616908174164"
    assert repr(solve_mu(BOSE, band, 1.0, 5.0)) == "-0.004278920091696382"


def test_solve_mu_rejects_unreachable_density():
    with pytest.raises(TargetRangeError):
        solve_mu(FERMI, CosineLattice(), 1.0, 1.2)
    with pytest.raises(TargetRangeError):
        solve_mu(FERMI, CosineLattice(), 1.0, 0.0)
    with pytest.raises(TargetRangeError):
        solve_mu(BOSE, CosineLattice(), 1.0, -0.3)


def test_density_monotone_in_mu():
    mus = np.linspace(-2.0, 3.0, 11)
    dens = [particle_density(fermi_spec(1.0, float(m)), 1e-10) for m in mus]
    assert all(b > a for a, b in zip(dens, dens[1:]))

