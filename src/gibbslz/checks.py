"""Property batteries: checks of the configured ensemble.

Each battery builds the configured ensemble's site laws, sampler or profile
integrals and checks one property of them, or one pair of independent
computation routes, returning a CheckResult with a measured margin.  Its
docstring names the package route it exercises.  The lemmas that hold for
every law of independent occupancies (log-concavity closure, the score
ratio, Efron monotonicity, negative association, Chebyshev rearrangement,
the mode-mean bound) read no config; tests/test_disttab.py checks them,
as it checks the local CLT along Bernoulli ladders.

The batteries that draw or integrate at scale (na-empirical, sampler-tv and
ensemble-identities) walk their draws in the sampler's draw_blocks and their
points in blocks of _BLOCK_CELLS.  Beyond one block they keep only seven
window sums per draw (na-empirical) and one count per observed atom
(sampler-tv).

Fault injection deliberately corrupts one battery's input or tolerance so a
harness run can demonstrate that violations are detected and reported, not
silently absorbed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import disttab, ensemble, sampler
from .errors import ConfigError, DomainError, NumericError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BatteryScale:
    na_draws: int
    tv_draws: int
    riemann_points: int

    @classmethod
    def full(cls) -> "BatteryScale":
        return cls(na_draws=20000, tv_draws=1_000_000, riemann_points=1_000_000)

    @classmethod
    def quick(cls) -> "BatteryScale":
        return cls(na_draws=4000, tv_draws=60_000, riemann_points=100_000)


def check_na_empirical(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                       fault: bool = False,
                       tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                       quad_tol: float = ensemble._DEFAULT_QUAD_TOL) -> CheckResult:
    """Sample covariances of disjoint-window sums under conditioning stay
    within three standard errors of nonpositive.  Route: the canonical
    tree's bulk draws (sample_from_uniforms) at ell=64."""
    ell = 64
    r_eff = ensemble.particle_density(spec, quad_tol)
    n = sampler.choose_n(r_eff, ell).n
    cs = sampler.CanonicalSampler(spec, ell, n, tail_tol)
    windows = [(0, 8), (8, 16), (16, 32), (32, 48), (48, 64), (0, 32), (32, 64)]
    # Uniforms come in the sampler's blocks of rows from one stream, which
    # fills rows in order, so the draws equal those of one (draws, ell)
    # matrix; only each draw's window sums are kept.
    rng = np.random.default_rng(seed)
    sums = np.empty((len(windows), draws))
    for lo, hi in cs.draw_blocks(draws):
        vals = cs.sample_from_uniforms(rng.random((hi - lo, ell))).astype(float)
        for row, (a0, a1) in zip(sums, windows):
            row[lo:hi] = vals[:, a0:a1].sum(axis=1)
    worst = -math.inf
    ok = True
    pairs = 0
    for i, (a0, a1) in enumerate(windows):
        for j, (b0, b1) in enumerate(windows[i + 1:], i + 1):
            if not (a1 <= b0 or b1 <= a0):
                continue
            pairs += 1
            xc = sums[i] - sums[i].mean()
            yc = sums[j] - sums[j].mean()
            prod = xc * yc
            cov = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(draws)
            # Identical draws (n = 0, say) leave se = 0; so does a constant
            # nonzero product, which then counts as infinitely many se.
            if se > 0.0:
                ratio = cov / se
            else:
                ratio = math.copysign(math.inf, cov) if cov else 0.0
            worst = max(worst, ratio)
            # The fault's limit fails every covariance, even the zeros of
            # identical draws.
            if cov > (-math.inf if fault else 3.0 * se):
                ok = False
    return CheckResult("na-empirical", ok,
                       f"{pairs} window pairs at ell={ell}, n={n}: "
                       f"max cov/se {worst:.2f} (bound 3)")


def check_moment_constants(spec: ensemble.EnsembleSpec, fault: bool = False,
                           tail_tol: float = sampler._DEFAULT_TAIL_TOL) -> CheckResult:
    """Third absolute central moments of the site laws obey the statistics-
    specific variance bounds: 2 Var (Fermi), 28 max(1, mean) Var (Bose).
    Route: marginal_tables + disttab.summary at ell=16 and 256."""
    scale = 0.001 if fault else 1.0
    worst = 0.0
    count = 0
    ok = True
    for ell in (16, 256):
        for t in sampler.marginal_tables(spec, ell, tail_tol):
            s = disttab.summary(t)
            if spec.stats is ensemble.Statistics.FERMI:
                bound = 2.0 * s.variance
            else:
                bound = 28.0 * max(1.0, s.mean) * s.variance
            ratio = s.abs_central_moment3 / (scale * bound)
            worst = max(worst, ratio)
            count += 1
            if s.abs_central_moment3 > scale * bound * (1.0 + 1e-12):
                ok = False
    return CheckResult("moment-constants", ok,
                       f"{count} site laws, worst moment/bound ratio {worst:.3f}")


_CLT_RATIO_BOUND = 1.0


def _local_clt(tables) -> tuple[float, float]:
    """(sup error, Lyapunov ratio) of the total S of independent occupancies.

    The sup error is sup_q |sigma P(S = q) - phi((q - mean)/sigma)| against
    the standard Gaussian density phi; the Lyapunov ratio
    L = sum E|K_i - E K_i|^3 / sigma^3 controls it.  The site moments come
    from disttab.summary, and the law of S from a probability-domain fold of
    the tables.
    """
    moments = [disttab.summary(t) for t in tables]
    mean = sum(m.mean for m in moments)
    var = sum(m.variance for m in moments)
    if var <= 0.0:
        raise DomainError("degenerate total: zero variance")
    sigma = math.sqrt(var)
    law = functools.reduce(np.convolve, [t.probs for t in tables])
    lo = min(0, math.floor(mean - 10.0 * sigma))
    hi = max(law.size - 1, math.ceil(mean + 10.0 * sigma))
    pmf = np.zeros(hi - lo + 1)
    pmf[-lo:law.size - lo] = law
    qs = np.arange(lo, hi + 1, dtype=float)
    gauss = np.exp(-((qs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi)
    return (float(np.max(np.abs(sigma * pmf - gauss))),
            sum(m.abs_central_moment3 for m in moments) / sigma**3)


def check_local_clt(spec: ensemble.EnsembleSpec, fault: bool = False,
                    tail_tol: float = sampler._DEFAULT_TAIL_TOL) -> CheckResult:
    """Gaussian local approximation of the total of the site laws: the sup
    error stays within the Lyapunov third-moment ratio.  Route:
    marginal_tables at ell=64, folded with np.convolve."""
    sup, lyap = _local_clt(sampler.marginal_tables(spec, 64, tail_tol))
    # The fault's negative bound fails every ratio, even the zero sup error
    # of an exactly Gaussian total.
    bound = -1.0 if fault else _CLT_RATIO_BOUND
    return CheckResult("local-clt", bool(sup <= bound * lyap),
                       f"sup/L {sup / lyap:.3f} (bound {_CLT_RATIO_BOUND}); "
                       f"site laws ell=64: sup {sup:.2e}, L {lyap:.2e}")


def check_sampler_tv(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                     fault: bool = False,
                     tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                     quad_tol: float = ensemble._DEFAULT_QUAD_TOL) -> CheckResult:
    """Total variation between fixed-total draws at ell=6 and the exact
    conditional law, computed atom by atom over the observed support.
    Route: the canonical tree's tabulated bulk draws against the product
    law of the site tables, normalised by P(S = n) from their fold."""
    ell = 6
    r_eff = ensemble.particle_density(spec, quad_tol)
    n = sampler.choose_n(r_eff, ell).n
    # Atoms are counted by their base-(n+1) code, which must fit in int64.
    if (n + 1)**ell >= 2**63:
        raise NumericError(f"base-{n + 1} codes of {ell} sites overflow int64")
    tables = sampler.marginal_tables(spec, ell, tail_tol)
    cs = sampler.CanonicalSampler(spec, ell, n, tail_tol)
    # A 1-D integer unique is far faster than axis=0 or rows viewed as bytes.
    place = (n + 1)**np.arange(ell - 1, -1, -1, dtype=np.int64)
    # Uniforms come in the sampler's blocks of rows from one stream, which
    # fills rows in order, so the draws equal those of one (draws, ell)
    # matrix.  Each block's atom counts merge into the running counts by
    # code; both key arrays are sorted and unique.
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    for lo, hi in cs.draw_blocks(draws):
        codes = cs.sample_from_uniforms(rng.random((hi - lo, ell))) @ place
        new_keys, new_counts = np.unique(codes, return_counts=True)
        merged = np.union1d(keys, new_keys)
        total = np.zeros(merged.size, dtype=np.int64)
        total[np.searchsorted(merged, keys)] += counts
        total[np.searchsorted(merged, new_keys)] += new_counts
        keys, counts = merged, total
    # Product-law weights of the observed atoms, kept independent of the
    # tree on purpose.
    atoms = keys[:, None] // place % (n + 1)
    weights = np.ones(atoms.shape[0])
    for j, t in enumerate(tables):
        weights *= t.probs[atoms[:, j]]
    exact = weights / functools.reduce(np.convolve, [t.probs for t in tables])[n]
    emp = counts / draws
    tv = 0.5 * (np.abs(emp - exact).sum() + max(0.0, 1.0 - exact.sum()))
    # The fault's negative bound fails every TV, even the zero of a total
    # that leaves one possible string.
    bound = -1.0 if fault else 0.01 if draws >= 500_000 else 0.05
    return CheckResult("sampler-tv", bool(tv <= bound),
                       f"ell={ell}, n={n}, {draws} draws over {atoms.shape[0]} atoms: "
                       f"TV {tv:.4f} (bound {bound})")


def _midpoint_means(spec: ensemble.EnsembleSpec, points: int) -> tuple[float, float]:
    """Midpoint Riemann sums of the mean and entropy profiles over [0, 1),
    accumulated one block of points at a time."""
    r_sum = h_sum = 0.0
    for lo, hi in sampler._blocks(points, 1):
        mids = (np.arange(lo, hi) + 0.5) / points
        r_sum += float(np.sum(ensemble.marginal_mean(spec, mids)))
        h_sum += float(np.sum(ensemble.marginal_entropy(spec, mids)))
    return r_sum / points, h_sum / points


def check_ensemble_identities(spec: ensemble.EnsembleSpec, riemann_points: int,
                              fault: bool = False,
                              tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                              quad_tol: float = ensemble._DEFAULT_QUAD_TOL) -> CheckResult:
    """Cross-route identities: closed-form profiles vs exact tables, adaptive
    quadrature vs a midpoint Riemann sum, the density-solve round trip, and
    density monotone in mu.  Route: site_means/site_entropies against
    marginal_tables + disttab.summary; ensemble quadrature and solve_mu."""
    # The fault's negative tolerance fails every error, even an exact zero.
    tol_entropy = -1.0 if fault else 1e-10
    msgs = []
    ok = True

    tables = sampler.marginal_tables(spec, 64, tail_tol)
    ents = ensemble.site_entropies(spec, 64)
    means = ensemble.site_means(spec, 64)
    # A Bose table is not renormalised: it drops the geometric tail k > K of
    # mass tau, whose shares of the closed-form profiles are tau (K + 1 + m)
    # of the mean and -tau log2(1 - q) - log2(q) tau (K + 1 + m) of the
    # entropy, with q = m / (1 + m).  Fermi tables drop nothing.
    tau = np.array([t.truncation_tail for t in tables])
    tail_m = tau * (np.array([t.support_max for t in tables]) + 1.0 + means)
    tail_e = np.zeros_like(tau)
    cut = tau > 0.0
    q = means[cut] / (1.0 + means[cut])
    tail_e[cut] = -tau[cut] * np.log2(1.0 - q) - np.log2(q) * tail_m[cut]
    summaries = [disttab.summary(t) for t in tables]
    worst_e = max(abs(s.entropy_bits + te - e)
                  for s, te, e in zip(summaries, tail_e, ents))
    worst_m = max(abs(s.mean + tm - m) for s, tm, m in zip(summaries, tail_m, means))
    if worst_e > tol_entropy or worst_m > 1e-10:
        ok = False
    msgs.append(f"profile vs tables: entropy {worst_e:.1e}, mean {worst_m:.1e}")

    r_mid, h_mid = _midpoint_means(spec, riemann_points)
    dens = ensemble.particle_density(spec, quad_tol)
    hrate = ensemble.entropy_rate(spec, quad_tol)
    gap_q = max(abs(dens - r_mid), abs(hrate - h_mid))
    if gap_q > 1e-7:
        ok = False
    msgs.append(f"quadrature vs Riemann ({riemann_points} pts): {gap_q:.1e}")

    mu_back = ensemble.solve_mu(spec.stats, spec.dispersion, spec.beta, dens,
                                quad_tol=quad_tol)
    spec_back = ensemble.EnsembleSpec(spec.stats, spec.beta, mu_back, spec.dispersion)
    gap_rt = abs(ensemble.particle_density(spec_back, quad_tol) - dens)
    if gap_rt > 1e-8:
        ok = False
    msgs.append(f"density round trip: {gap_rt:.1e}")

    mus = np.linspace(spec.mu - 1.0, spec.mu + 1.0, 21) \
        if spec.stats is ensemble.Statistics.FERMI else \
        np.linspace(spec.mu - 1.0, spec.mu, 21, endpoint=False)
    densities = [ensemble.particle_density(
        ensemble.EnsembleSpec(spec.stats, spec.beta, float(m), spec.dispersion),
        quad_tol) for m in mus]
    if not all(a < b for a, b in zip(densities, densities[1:])):
        ok = False
    msgs.append("density monotone over 21 mu values")

    return CheckResult("ensemble-identities", ok, "; ".join(msgs))


def run_batteries(spec: ensemble.EnsembleSpec, seed: int, scale: BatteryScale,
                  inject_fault: str | None = None,
                  tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                  quad_tol: float = ensemble._DEFAULT_QUAD_TOL) -> list[CheckResult]:
    """Run every battery against one ensemble; see each battery's docstring.
    Batteries that build site laws or samplers, or integrate profiles, do
    so at tail_tol and quad_tol."""
    tols = {"tail_tol": tail_tol, "quad_tol": quad_tol}
    batteries = {
        "na-empirical": lambda fault: check_na_empirical(
            spec, seed + 2, scale.na_draws, fault, **tols),
        "moment-constants": lambda fault: check_moment_constants(
            spec, fault, tail_tol=tail_tol),
        "local-clt": lambda fault: check_local_clt(spec, fault, tail_tol=tail_tol),
        "sampler-tv": lambda fault: check_sampler_tv(
            spec, seed + 5, scale.tv_draws, fault, **tols),
        "ensemble-identities": lambda fault: check_ensemble_identities(
            spec, scale.riemann_points, fault, **tols),
    }
    if inject_fault is not None and inject_fault not in batteries:
        raise ConfigError(f"unknown fault target {inject_fault!r}")
    return [run(name == inject_fault) for name, run in batteries.items()]
