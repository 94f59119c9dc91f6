"""Single-mode occupancy laws and their thermodynamic integrals.

The setting is a one-dimensional band of modes indexed by a point y of the
unit interval.  A mode at y has energy

    omega(y) = omega0(y) - mu

where omega0 is the bare dispersion and mu the chemical potential.  Under
Gibbs weighting at inverse temperature beta the occupation number of the mode
is independent of the others (grand ensemble) with law

    Fermi:  Bernoulli, P(K = 1) = e^{-beta omega} / (1 + e^{-beta omega})
    Bose:   geometric, P(K = k) proportional to e^{-k beta omega}

Bose statistics require beta * omega(y) > 0 everywhere, otherwise the mode
occupancy has no normalisable law; EnsembleSpec enforces this at construction.

Two mode profiles drive everything downstream:

    marginal_mean(y)      mean occupancy of the mode at y
    marginal_entropy(y)   Shannon entropy, in bits, of the occupancy at y

and their integrals over y in [0, 1]: particle_density and entropy_rate.
solve_mu inverts the density map mu -> particle_density at fixed beta.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EnsembleError, NumericError, TargetRangeError

LN2 = math.log(2.0)
# Halving rounds and live intervals the adaptive Simpson rule may use, its
# default tolerance, and the density residual at which solve_mu stops.
_SIMPSON_ROUNDS = 60
_SIMPSON_INTERVALS = 1 << 20
_DEFAULT_QUAD_TOL = 1e-9
_DENSITY_TOL = 1e-8


class Statistics(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"


@dataclass(frozen=True)
class CosineLattice:
    """Nearest-neighbour tight-binding band omega0(y) = 1 - cos(2 pi y)."""

    def base_energy(self, y):
        return 1.0 - np.cos(2.0 * np.pi * np.asarray(y, dtype=float))

    @property
    def min_base_energy(self) -> float:
        return 0.0

    @property
    def argmin_base_energy(self) -> float:
        return 0.0

    @property
    def max_base_energy(self) -> float:
        return 2.0


@dataclass(frozen=True)
class TabulatedGrid:
    """Bare energies tabulated on a uniform grid over [0, 1].

    Values are linearly interpolated between grid nodes, so the band minimum
    and maximum equal the smallest and largest tabulated values.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise DomainError("tabulated dispersion needs at least two grid values")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("tabulated dispersion values must be finite")
        object.__setattr__(self, "values", vals)

    def base_energy(self, y):
        grid = np.linspace(0.0, 1.0, len(self.values))
        return np.interp(np.asarray(y, dtype=float), grid, np.asarray(self.values))

    @property
    def min_base_energy(self) -> float:
        return min(self.values)

    @property
    def argmin_base_energy(self) -> float:
        nodes = np.linspace(0.0, 1.0, len(self.values))
        return float(nodes[self.values.index(self.min_base_energy)])

    @property
    def max_base_energy(self) -> float:
        return max(self.values)


Dispersion = CosineLattice | TabulatedGrid


@dataclass(frozen=True)
class EnsembleSpec:
    """Statistics, inverse temperature, chemical potential and dispersion.

    Invalid combinations are rejected at construction: beta must be positive
    and a Bose ensemble needs mu strictly below the band minimum so that every
    mode energy omega(y) stays positive.
    """

    stats: Statistics
    beta: float
    mu: float
    dispersion: Dispersion = field(default_factory=CosineLattice)

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise EnsembleError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.mu):
            raise EnsembleError(f"mu must be finite, got {self.mu}")
        if self.stats is Statistics.BOSE and self.mu >= self.dispersion.min_base_energy:
            raise EnsembleError(
                "Bose ensemble needs mu < min omega0 "
                f"(mu={self.mu}, band minimum={self.dispersion.min_base_energy})"
            )


def _unit_points(y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError("mode index must lie in [0, 1]")
    return arr


def _match_shape(values, like):
    if np.ndim(like) == 0:
        return float(values)
    return values


def eval_dispersion(spec: EnsembleSpec, y):
    """Mode energy omega(y) = omega0(y) - mu for y in [0, 1]."""
    arr = _unit_points(y)
    return _match_shape(spec.dispersion.base_energy(arr) - spec.mu, y)


def _fermi_mean(x):
    """Logistic mean 1/(1 + e^x); an overflowing e^x gives the limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(x))


def _energy_mean(stats: Statistics, x):
    """Mean occupancy of modes of scaled energy x = beta*omega.

    Fermi modes give the logistic value 1/(1+e^x), Bose modes 1/(e^x - 1),
    computed through expm1 so the tails stay accurate.
    """
    if stats is Statistics.FERMI:
        return _fermi_mean(x)
    if np.any(x <= 0.0):
        raise EnsembleError("Bose mode energy must stay positive")
    # e^{-x}/(1 - e^{-x}) never overflows, unlike 1/(e^x - 1)
    ex = np.exp(-x)
    return ex / -np.expm1(-x)


def _energy_entropy(stats: Statistics, x):
    """Shannon entropy, in bits, of the occupancy of modes of scaled energy x.

    Closed form: -+ log2(1 -+ e^{-x}) + (x / ln 2) * mean, with the upper
    signs for Bose statistics.  The second term is the nat-valued tilt
    x * mean converted to bits.
    """
    if stats is Statistics.FERMI:
        return (np.logaddexp(0.0, -x) + x * _fermi_mean(x)) / LN2
    if np.any(x <= 0.0):
        raise EnsembleError("Bose mode energy must stay positive")
    ex = np.exp(-x)
    neg = -np.expm1(-x)
    return (-np.log(neg) + x * ex / neg) / LN2


def marginal_mean(spec: EnsembleSpec, y):
    """Mean occupancy of the mode at y (_energy_mean at x = beta*omega(y))."""
    x = spec.beta * np.asarray(eval_dispersion(spec, y))
    return _match_shape(_energy_mean(spec.stats, x), y)


def marginal_entropy(spec: EnsembleSpec, y):
    """Entropy, in bits, of the occupancy of the mode at y (_energy_entropy
    at x = beta*omega(y))."""
    x = spec.beta * np.asarray(eval_dispersion(spec, y))
    return _match_shape(_energy_entropy(spec.stats, x), y)


def site_means(spec: EnsembleSpec, ell: int) -> np.ndarray:
    """Mean occupancy profile at the ell mode points j/ell, j = 0..ell-1."""
    if ell < 1:
        raise DomainError("ell must be at least 1")
    return np.asarray(marginal_mean(spec, np.arange(ell) / ell))


def site_entropies(spec: EnsembleSpec, ell: int) -> np.ndarray:
    """Entropy profile, in bits, at the ell mode points j/ell."""
    if ell < 1:
        raise DomainError("ell must be at least 1")
    return np.asarray(marginal_entropy(spec, np.arange(ell) / ell))


def _adaptive_simpson(f, tol: float) -> float:
    """Adaptive composite Simpson rule on [0, 1] for a vectorised integrand.

    Intervals whose Richardson error estimate exceeds their share of the
    tolerance are halved; accepted intervals contribute the extrapolated
    value.  The tolerance is allotted proportionally to interval width, so
    the accumulated error estimate stays below tol.  Rounds are capped at 60
    and live intervals at 2^20, so a near-singular integrand fails loudly.
    """
    if tol <= 0.0:
        raise DomainError("quadrature tolerance must be positive")
    lo = np.array([0.0])
    hi = np.array([1.0])
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    fmid = np.asarray(f(0.5 * (lo + hi)), dtype=float)
    total = 0.0
    for _ in range(_SIMPSON_ROUNDS):
        h = hi - lo
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = np.asarray(f(lm), dtype=float)
        frm = np.asarray(f(rm), dtype=float)
        s1 = h / 6.0 * (flo + 4.0 * fmid + fhi)
        s2 = h / 12.0 * (flo + 4.0 * flm + 2.0 * fmid + 4.0 * frm + fhi)
        err = (s2 - s1) / 15.0
        done = np.abs(err) <= tol * h
        total += float(np.sum(s2[done] + err[done]))
        if np.all(done):
            return total
        keep = ~done
        if 2 * int(keep.sum()) > _SIMPSON_INTERVALS:
            raise NumericError(
                "quadrature interval budget exceeded; integrand varies too "
                "sharply for this tolerance"
            )
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
    raise NumericError(f"quadrature did not converge to tolerance {tol}")


def particle_density(spec: EnsembleSpec, quad_tol: float = _DEFAULT_QUAD_TOL) -> float:
    """Integral over y of the mean occupancy profile."""
    return _adaptive_simpson(lambda y: marginal_mean(spec, y), quad_tol)


def entropy_rate(spec: EnsembleSpec, quad_tol: float = _DEFAULT_QUAD_TOL) -> float:
    """Integral over y of the mode entropy profile, in bits per site."""
    return _adaptive_simpson(lambda y: marginal_entropy(spec, y), quad_tol)


# Gap kept between a Bose bracket endpoint and the band minimum; the density
# integral is evaluated arbitrarily close to, never at, the divergence.
_BOSE_MU_GAP = 1e-12


def solve_mu(
    stats: Statistics,
    dispersion: Dispersion,
    beta: float,
    r: float,
    quad_tol: float = _DEFAULT_QUAD_TOL,
) -> float:
    """Chemical potential whose particle density is r to within 1e-8.

    A mode's mean occupancy rises with mu - omega0(y).  With s the shift at
    which one mode holds r (logit(r) / beta for Fermi, -log1p(1/r) / beta
    for Bose), the density is at most r at mu = min omega0 + s and at least
    r at mu = max omega0 + s, and that bracket is bisected.  A Bose mu stays
    below the band minimum, so a Bose upper end past it is held just under
    the minimum; a density still short of r there raises TargetRangeError.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise EnsembleError(f"beta must be positive and finite, got {beta}")
    if stats is Statistics.FERMI:
        if not (0.0 < r < 1.0):
            raise TargetRangeError(f"Fermi density must lie in (0, 1), got {r}")
        shift = math.log(r / (1.0 - r)) / beta
        ceiling = math.inf
    else:
        if not (math.isfinite(r) and r > 0.0):
            raise TargetRangeError(f"Bose density must be positive, got {r}")
        shift = -math.log1p(1.0 / r) / beta
        ceiling = dispersion.min_base_energy - _BOSE_MU_GAP

    def residual(mu: float) -> float:
        spec = EnsembleSpec(stats, beta, mu, dispersion)
        return particle_density(spec, quad_tol) - r

    # [min + s, max + s], written about the band's centre so that on the
    # cosine band it rounds, and mu with it, as in earlier releases.
    half = 0.5 * (dispersion.max_base_energy - dispersion.min_base_energy)
    centre = dispersion.min_base_energy + half + shift
    lo = centre - half
    hi = min(centre + half, ceiling)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        try:
            fmid = residual(mid)
        except NumericError as exc:
            # Only a density short of r has moved lo, so while hi is the
            # ceiling every density tried was below r.
            if hi != ceiling:
                raise
            raise TargetRangeError(
                f"density {r} not reached below the band minimum before the "
                f"density quadrature failed: {exc}") from exc
        if abs(fmid) < _DENSITY_TOL:
            return mid
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            if hi == ceiling:
                raise TargetRangeError(
                    f"density {r} not attainable below the band minimum")
            raise NumericError(
                f"bisection bracket collapsed before |density - r| < {_DENSITY_TOL}"
            )
    raise NumericError("bisection failed to converge")
