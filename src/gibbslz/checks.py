"""Property batteries: structural inequalities and dual-route cross checks.

Each battery exercises one provable property of independent occupancy laws
or one pair of independent computation routes, and returns a CheckResult
with a measured margin.  The batteries are deliberately redundant with the
unit tests: they run at larger trial counts, under one command, against the
configured ensemble.  Each battery computes its own inequality; disttab
supplies only the table algebra and the suffix-DP oracle.

Fault injection deliberately corrupts one battery's input or tolerance so a
harness run can demonstrate that violations are detected and reported, not
silently absorbed.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import disttab, ensemble, sampler
from .disttab import DistTable
from .errors import DomainError, NumericError
from .lzparse import TypicalParams

LN2 = math.log(2.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class BatteryScale:
    lc_trials: int
    score_trials: int
    chebyshev_trials: int
    bottomley_trials: int
    enum_instances: int
    na_draws: int
    tv_draws: int
    clt_sizes: tuple[int, ...]
    riemann_points: int

    @classmethod
    def full(cls) -> "BatteryScale":
        return cls(lc_trials=1000, score_trials=500, chebyshev_trials=200,
                   bottomley_trials=300, enum_instances=50, na_draws=20000,
                   tv_draws=1_000_000, clt_sizes=(25, 100, 400, 1600),
                   riemann_points=1_000_000)

    @classmethod
    def quick(cls) -> "BatteryScale":
        return cls(lc_trials=120, score_trials=60, chebyshev_trials=40,
                   bottomley_trials=60, enum_instances=10, na_draws=4000,
                   tv_draws=60_000, clt_sizes=(25, 100),
                   riemann_points=100_000)


def _random_lc_table(rng: np.random.Generator) -> DistTable:
    """Random log-concave law: concave log-pmf from sorted increments."""
    k = int(rng.integers(1, 7))
    d = np.sort(rng.uniform(-1.5, 1.5, size=k))[::-1]
    logp = np.concatenate([[0.0], np.cumsum(d)])
    return DistTable(logp - np.logaddexp.reduce(logp))


def _random_table(rng: np.random.Generator, support: int) -> DistTable:
    p = rng.uniform(0.05, 1.0, size=support + 1)
    return DistTable.from_probs(p / p.sum())


def enumerate_configs(marginals):
    """Yield (config, weight) over the product support, skipping weight 0.

    The weight is the product of the marginal probabilities.  This brute-force
    route is kept independent of the suffix-sum recursion on purpose.
    """
    rows = [t.probs for t in marginals]
    for config in itertools.product(*(range(r.size) for r in rows)):
        w = 1.0
        for r, k in zip(rows, config):
            w *= r[k]
        if w > 0.0:
            yield config, w


def _enumerate_conditional(tables, n: int):
    """Yield (config, weight) over configurations with the given total; the
    weights are unnormalised products of marginal probabilities."""
    return ((c, w) for c, w in enumerate_configs(tables) if sum(c) == n)


def check_lc_closure(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Convolution of independent log-concave laws stays log-concave."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for t in range(trials):
        a = _random_lc_table(rng)
        b = DistTable.bernoulli(float(rng.uniform(0.05, 0.95))) if t % 3 == 0 \
            else _random_lc_table(rng)
        c = disttab.convolve(a, b)
        if fault and t == trials // 2:
            c = DistTable.from_probs((0.5, 0.1, 0.4))
        lp = c.logp
        if lp.size >= 3:
            interior = np.isfinite(lp[:-2] + lp[2:])
            if np.any(interior):
                margin = float(np.min((2.0 * lp[1:-1] - lp[:-2] - lp[2:])[interior]))
                worst = min(worst, margin)
    # The slack forgives float rounding in long convolution chains; genuine
    # violations are orders of magnitude larger.
    return CheckResult("lc-closure", worst >= -1e-12,
                       f"{trials} convolutions, worst log-concavity margin {worst:.3e}")


def _score_ratio(tables, n: int) -> tuple[float, float]:
    """(lhs, rhs) of the downward score bound for a sum S of independent
    Bernoulli occupancies,

        P(S = n-1) / P(S = n)  >=  n / ((M - n + 1) k*),

    with M the number of sites and k* the mean odds p_i/(1-p_i).  Equality
    holds in the exchangeable (all p_i equal) case; n = 0 gives (0, 0).
    """
    if n == 0:
        return 0.0, 0.0
    law = functools.reduce(disttab.convolve, tables)
    ps = np.array([math.exp(t.logp[1]) for t in tables])
    kstar = float(np.mean(ps / (1.0 - ps)))
    return (math.exp(law.logp[n - 1] - law.logp[n]),
            n / ((len(tables) - n + 1) * kstar))


def check_score_ratio(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Downward score bound for Bernoulli sums, with exchangeable equality."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_slack = math.inf
    worst_eq = 0.0
    for t in range(trials):
        m = int(rng.integers(2, 33))
        if t % 4 == 0:
            ps = np.full(m, float(rng.uniform(0.1, 0.9)))
        else:
            ps = rng.uniform(0.05, 0.95, size=m)
        tables = [DistTable.bernoulli(float(p)) for p in ps]
        n = int(rng.integers(0, m + 1))
        lhs, rhs = _score_ratio(tables, n)
        holds = lhs >= rhs * (1.0 - 1e-12) - 1e-15
        if fault and t == trials // 2:
            holds = lhs < rhs
        if not holds:
            ok = False
        if n > 0:
            worst_slack = min(worst_slack, lhs - rhs)
            if t % 4 == 0 and 1 <= n <= m:
                worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, rhs))
    return CheckResult(
        "score-ratio", ok,
        f"{trials} instances, min slack {worst_slack:.3e}, "
        f"worst exchangeable relative mismatch {worst_eq:.3e}")


def _efron_instances() -> list[list[DistTable]]:
    geom3 = DistTable.from_probs(np.array([1.0, 0.55, 0.55**2, 0.55**3])
                                 / sum(0.55**k for k in range(4)))
    binom2 = disttab.convolve(DistTable.bernoulli(0.4), DistTable.bernoulli(0.7))
    return [
        [DistTable.bernoulli(0.3), DistTable.bernoulli(0.6), DistTable.bernoulli(0.9)],
        [DistTable.bernoulli(0.5)] * 5,
        [geom3, geom3, DistTable.bernoulli(0.25)],
        [binom2, DistTable.bernoulli(0.5), geom3],
    ]


def check_efron(fault: bool = False) -> CheckResult:
    """E[phi | total] is nondecreasing for coordinatewise nondecreasing phi."""
    phis = [
        ("sum", lambda k: float(sum(k))),
        ("max", lambda k: float(max(k))),
        ("min", lambda k: float(min(k))),
        ("head", lambda k: float(k[0])),
        ("weighted", lambda k: float(sum((i + 1) * v for i, v in enumerate(k)))),
        ("threshold", lambda k: 1.0 if sum(k) >= 2 else 0.0),
        ("capped", lambda k: float(sum(min(v, 2) for v in k))),
    ]
    cases = 0
    ok = True
    for tables in _efron_instances():
        # Every total up to the summed supports occurs: these laws have full
        # support, so each conditional mean below is well defined.
        atoms = list(enumerate_configs(tables))
        totals = [sum(c) for c, _ in atoms]
        weights = np.array([w for _, w in atoms])
        den = np.bincount(totals, weights)
        for name, phi in phis:
            test_phi = (lambda k: -float(sum(k))) if fault and name == "sum" else phi
            vals = np.bincount(totals, weights * [test_phi(c) for c, _ in atoms]) / den
            tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
            if np.any(np.diff(vals) < -tol):
                ok = False
            cases += 1
    return CheckResult("efron-monotonicity", ok, f"{cases} exhaustive instances")


_WINDOW_FUNCS = [
    ("sum", lambda v: v.sum(axis=-1)),
    ("max", lambda v: v.max(axis=-1)),
    ("min", lambda v: v.min(axis=-1)),
    ("hit", lambda v: (v.sum(axis=-1) >= 1).astype(float)),
    ("ssq", lambda v: (v**2).sum(axis=-1)),
]


def check_na_exhaustive(fault: bool = False) -> CheckResult:
    """Conditioned occupancies are negatively associated: every pair of
    nondecreasing functions on disjoint site sets has covariance <= 0."""
    geom = DistTable.from_probs(np.array([1.0, 0.5, 0.25]) / 1.75)
    systems = [
        ([DistTable.bernoulli(p) for p in (0.2, 0.5, 0.7, 0.9)], (1, 2, 3)),
        ([geom, geom, DistTable.bernoulli(0.4)], (1, 2, 3)),
        ([geom, DistTable.bernoulli(0.3), DistTable.bernoulli(0.8), geom], (2, 4)),
    ]
    splits = [((0,), (1,)), ((0,), (1, 2)), ((0, 1), (2,)), ((1,), (2,))]
    worst = -math.inf
    pairs = 0
    ok = True
    for tables, totals in systems:
        for n in totals:
            atoms = list(_enumerate_conditional(tables, n))
            z = sum(w for _, w in atoms)
            for a_sites, b_sites in splits:
                if max(a_sites + b_sites) >= len(tables):
                    continue
                for fname, f in _WINDOW_FUNCS:
                    for gname, g in _WINDOW_FUNCS:
                        pairs += 1
                        ef = eg = efg = 0.0
                        for config, w in atoms:
                            ka = np.asarray([config[i] for i in a_sites], dtype=float)
                            kb = np.asarray([config[i] for i in b_sites], dtype=float)
                            fv = float(f(ka))
                            gv = float(g(kb))
                            if fault:
                                gv = -gv
                            ef += w * fv
                            eg += w * gv
                            efg += w * fv * gv
                        cov = efg / z - (ef / z) * (eg / z)
                        worst = max(worst, cov)
                        if cov > 1e-12:
                            ok = False
    return CheckResult("na-exhaustive", ok,
                       f"{pairs} function pairs, max covariance {worst:.3e}")


def check_na_empirical(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                       fault: bool = False) -> CheckResult:
    """Sample covariances of disjoint-window sums under conditioning stay
    within three standard errors of nonpositive."""
    ell = 64
    r_eff = ensemble.particle_density(spec)
    n = sampler.choose_n(r_eff, ell).n
    cs = sampler.CanonicalSampler(spec, ell, n)
    u = np.random.default_rng(seed).random((draws, ell))
    vals = cs.sample_from_uniforms(u).astype(float)
    windows = [(0, 8), (8, 16), (16, 32), (32, 48), (48, 64), (0, 32), (32, 64)]
    worst = -math.inf
    ok = True
    pairs = 0
    for i, (a0, a1) in enumerate(windows):
        for b0, b1 in windows[i + 1:]:
            if not (a1 <= b0 or b1 <= a0):
                continue
            pairs += 1
            x = vals[:, a0:a1].sum(axis=1)
            y = vals[:, b0:b1].sum(axis=1)
            if fault:
                y = -y
            xc = x - x.mean()
            yc = y - y.mean()
            prod = xc * yc
            cov = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(draws)
            ratio = cov / se
            worst = max(worst, ratio)
            if cov > 3.0 * se:
                ok = False
    return CheckResult("na-empirical", ok,
                       f"{pairs} window pairs at ell={ell}, n={n}: "
                       f"max cov/se {worst:.2f} (bound 3)")


def check_chebyshev(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """For any law, an increasing and a decreasing function of the same
    occupancy have nonpositive covariance."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    ok = True
    for _ in range(trials):
        t = _random_table(rng, int(rng.integers(1, 10)))
        p = t.probs
        up = np.cumsum(rng.uniform(0.0, 1.0, size=p.size))
        down = -np.cumsum(rng.uniform(0.0, 1.0, size=p.size))
        if fault:
            down = up
        cov = float(p @ (up * down) - (p @ up) * (p @ down))
        worst = max(worst, cov)
        if cov > 1e-12:
            ok = False
    return CheckResult("chebyshev-rearrangement", ok,
                       f"{trials} laws, max covariance {worst:.3e}")


def check_moment_constants(spec: ensemble.EnsembleSpec,
                           fault: bool = False) -> CheckResult:
    """Third absolute central moments of the site laws obey the statistics-
    specific variance bounds: 2 Var (Fermi), 28 max(1, mean) Var (Bose)."""
    scale = 0.001 if fault else 1.0
    worst = 0.0
    count = 0
    ok = True
    for ell in (16, 256):
        for t in sampler.marginal_tables(spec, ell):
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


def check_bottomley(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Mode and mean of a log-concave law differ by at most sqrt(3 Var)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for t in range(trials):
        if t % 5 == 0:
            table = DistTable.geometric(float(rng.uniform(0.2, 3.0)))
        else:
            table = _random_lc_table(rng)
        s = disttab.summary(table)
        bound = math.sqrt((0.001 if fault else 3.0) * s.variance)
        gap = abs(s.mode - s.mean)
        if s.variance > 0.0:
            worst = max(worst, gap / max(bound, 1e-300))
        if gap > bound + 1e-12:
            ok = False
    return CheckResult("bottomley-mode-mean", ok,
                       f"{trials} laws, worst |mode-mean|/bound {worst:.3f}")


_CLT_RATIO_BOUND = 1.0


def _local_clt(tables) -> tuple[float, float]:
    """(sup error, Lyapunov ratio) of the total S of independent occupancies.

    The sup error is sup_q |sigma P(S = q) - phi((q - mean)/sigma)| against
    the standard Gaussian density phi; the Lyapunov ratio
    L = sum E|K_i - E K_i|^3 / sigma^3 controls it.
    """
    moments = [disttab.summary(t) for t in tables]
    mean = sum(m.mean for m in moments)
    var = sum(m.variance for m in moments)
    if var <= 0.0:
        raise DomainError("degenerate total: zero variance")
    sigma = math.sqrt(var)
    law = functools.reduce(disttab.convolve, tables)
    lo = min(0, math.floor(mean - 10.0 * sigma))
    hi = max(law.support_max, math.ceil(mean + 10.0 * sigma))
    qs = np.arange(lo, hi + 1, dtype=float)
    pmf = np.zeros(qs.size)
    inside = (qs >= 0) & (qs <= law.support_max)
    pmf[inside] = law.probs[qs[inside].astype(int)]
    gauss = np.exp(-((qs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi)
    return (float(np.max(np.abs(sigma * pmf - gauss))),
            sum(m.abs_central_moment3 for m in moments) / sigma**3)


def check_local_clt(spec: ensemble.EnsembleSpec, sizes: tuple[int, ...],
                    fault: bool = False) -> CheckResult:
    """Gaussian local approximation of the total: the sup error is controlled
    by the Lyapunov third-moment ratio and shrinks along IID ladders."""
    bound = _CLT_RATIO_BOUND * (1e-4 if fault else 1.0)
    ok = True
    worst_ratio = 0.0
    details = []
    for p in (0.5, 0.35):
        sups = []
        for m in sizes:
            sup, lyap = _local_clt([DistTable.bernoulli(p)] * m)
            sups.append(sup)
            worst_ratio = max(worst_ratio, sup / lyap)
            if sup > bound * lyap:
                ok = False
        if not all(a > b for a, b in zip(sups, sups[1:])):
            ok = False
        details.append(f"p={p}: sup {sups[0]:.2e}->{sups[-1]:.2e}")
    sup, lyap = _local_clt(sampler.marginal_tables(spec, 64))
    worst_ratio = max(worst_ratio, sup / lyap)
    if sup > bound * lyap:
        ok = False
    details.append(f"site laws ell=64: sup {sup:.2e}, L {lyap:.2e}")
    return CheckResult("local-clt", ok,
                       f"worst sup/L {worst_ratio:.3f} (bound {_CLT_RATIO_BOUND}); "
                       + "; ".join(details))


def check_sampler_tv(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                     fault: bool = False) -> CheckResult:
    """Total variation between fixed-total draws at ell=6 and the exact
    conditional law, computed atom by atom over the observed support."""
    ell = 6
    r_eff = ensemble.particle_density(spec)
    n = sampler.choose_n(r_eff, ell).n
    # Atoms are counted by their base-(n+1) code, which must fit in int64.
    if (n + 1)**ell >= 2**63:
        raise NumericError(f"base-{n + 1} codes of {ell} sites overflow int64")
    tables = sampler.marginal_tables(spec, ell)
    dp = disttab.build_suffix_dp(tables, n)
    cs = sampler.CanonicalSampler(spec, ell, n)
    rng = np.random.default_rng(seed)
    u = rng.random((draws, ell))
    if fault:
        u = u**1.3
    vals = cs.sample_from_uniforms(u)
    # A 1-D integer unique is far faster than axis=0 or rows viewed as bytes.
    place = (n + 1)**np.arange(ell - 1, -1, -1, dtype=np.int64)
    keys, counts = np.unique(vals @ place, return_counts=True)
    atoms = keys[:, None] // place % (n + 1)
    logps = np.zeros(atoms.shape[0])
    for j, t in enumerate(tables):
        logps += t.logp[atoms[:, j]]
    logps -= dp.logT[0, n]
    exact = np.exp(logps)
    emp = counts / draws
    tv = 0.5 * (np.abs(emp - exact).sum() + max(0.0, 1.0 - exact.sum()))
    bound = 0.01 if draws >= 500_000 else 0.05
    return CheckResult("sampler-tv", bool(tv <= bound),
                       f"ell={ell}, n={n}, {draws} draws over {atoms.shape[0]} atoms: "
                       f"TV {tv:.4f} (bound {bound})")


def check_conditional_entropy_enum(seed: int, instances: int,
                                   fault: bool = False) -> CheckResult:
    """Suffix-recursion conditional entropies and marginals match brute-force
    enumeration on random small systems."""
    rng = np.random.default_rng(seed)
    tol = 1e-18 if fault else 1e-10
    worst = 0.0
    ok = True
    for _ in range(instances):
        ell = int(rng.integers(2, 7))
        tables = []
        for _ in range(ell):
            kind = rng.integers(0, 3)
            if kind == 0:
                tables.append(DistTable.bernoulli(float(rng.uniform(0.1, 0.9))))
            elif kind == 1:
                q = float(rng.uniform(0.2, 0.7))
                pr = np.array([q**k for k in range(4)])
                tables.append(DistTable.from_probs(pr / pr.sum()))
            else:
                tables.append(_random_table(rng, int(rng.integers(1, 4))))
        smax = sum(t.support_max for t in tables)
        n = int(rng.integers(0, smax + 1))
        atoms = list(_enumerate_conditional(tables, n))
        if not atoms:
            continue
        z = sum(w for _, w in atoms)
        h_enum = -sum(w / z * math.log2(w / z) for _, w in atoms)
        dp = disttab.build_suffix_dp(tables, n)
        h_dp = disttab.conditional_entropy_exact(dp)
        gap = abs(h_dp - h_enum)
        worst = max(worst, gap)
        if gap > tol:
            ok = False
        marg0 = np.zeros(tables[0].support_max + 1)
        for config, w in atoms:
            marg0[config[0]] += w / z
        got = disttab.conditional_site_marginals(dp)[0].probs
        gap_m = float(np.max(np.abs(got - marg0[: got.size])))
        worst = max(worst, gap_m)
        if gap_m > max(tol, 1e-12):
            ok = False
    return CheckResult("conditional-entropy-enum", ok,
                       f"{instances} random systems, worst mismatch {worst:.2e}")


def check_ensemble_identities(spec: ensemble.EnsembleSpec, riemann_points: int,
                              fault: bool = False) -> CheckResult:
    """Cross-route identities: closed-form profiles vs exact tables, adaptive
    quadrature vs a midpoint Riemann sum, density-solve round trip, and the
    oscillation contract of the profile partition."""
    tol_entropy = 1e-18 if fault else 1e-10
    msgs = []
    ok = True

    tables = sampler.marginal_tables(spec, 64)
    ents = ensemble.site_entropies(spec, 64)
    means = ensemble.site_means(spec, 64)
    worst_e = max(abs(disttab.summary(t).entropy_bits - e)
                  for t, e in zip(tables, ents))
    worst_m = max(abs(disttab.summary(t).mean - m) for t, m in zip(tables, means))
    if worst_e > tol_entropy or worst_m > 1e-10:
        ok = False
    msgs.append(f"profile vs tables: entropy {worst_e:.1e}, mean {worst_m:.1e}")

    mids = (np.arange(riemann_points) + 0.5) / riemann_points
    r_mid = float(np.mean(np.asarray(ensemble.marginal_mean(spec, mids))))
    h_mid = float(np.mean(np.asarray(ensemble.marginal_entropy(spec, mids))))
    dens = ensemble.particle_density(spec)
    hrate = ensemble.entropy_rate(spec)
    gap_q = max(abs(dens - r_mid), abs(hrate - h_mid))
    if gap_q > 1e-7:
        ok = False
    msgs.append(f"quadrature vs Riemann ({riemann_points} pts): {gap_q:.1e}")

    mu_back = ensemble.solve_mu(spec.stats, spec.dispersion, spec.beta, dens)
    spec_back = ensemble.EnsembleSpec(spec.stats, spec.beta, mu_back, spec.dispersion)
    gap_rt = abs(ensemble.particle_density(spec_back) - dens)
    if gap_rt > 1e-8:
        ok = False
    msgs.append(f"density round trip: {gap_rt:.1e}")

    mus = np.linspace(spec.mu - 1.0, spec.mu + 1.0, 21) \
        if spec.stats is ensemble.Statistics.FERMI else \
        np.linspace(spec.mu - 1.0, spec.mu, 21, endpoint=False)
    densities = [ensemble.particle_density(
        ensemble.EnsembleSpec(spec.stats, spec.beta, float(m), spec.dispersion))
        for m in mus]
    if not all(a < b for a, b in zip(densities, densities[1:])):
        ok = False
    msgs.append("density monotone over 21 mu values")

    eps = 0.3
    params = ensemble.partition_intervals(spec, eps)
    tp = TypicalParams.from_ensemble(spec, eps)
    worst_osc = 0.0
    for lo, hi in params:
        ys = np.linspace(lo, hi, 10_001)
        prof = np.asarray(ensemble.marginal_mean(spec, ys))
        worst_osc = max(worst_osc, float(prof.max() - prof.min()))
    if worst_osc > tp.eps_prime:
        ok = False
    msgs.append(f"partition: {len(params)} intervals, worst oscillation "
                f"{worst_osc:.2e} vs allowance {tp.eps_prime:.2e}")

    return CheckResult("ensemble-identities", ok, "; ".join(msgs))


def run_batteries(spec: ensemble.EnsembleSpec, seed: int,
                  scale: BatteryScale | None = None,
                  inject_fault: str | None = None) -> list[CheckResult]:
    """Run every battery against one ensemble; see each battery's docstring."""
    s = scale or BatteryScale.full()

    def hit(name: str) -> bool:
        return inject_fault == name

    results = [
        check_lc_closure(seed, s.lc_trials, fault=hit("lc-closure")),
        check_score_ratio(seed + 1, s.score_trials, fault=hit("score-ratio")),
        check_efron(fault=hit("efron-monotonicity")),
        check_na_exhaustive(fault=hit("na-exhaustive")),
        check_na_empirical(spec, seed + 2, s.na_draws, fault=hit("na-empirical")),
        check_chebyshev(seed + 3, s.chebyshev_trials,
                        fault=hit("chebyshev-rearrangement")),
        check_moment_constants(spec, fault=hit("moment-constants")),
        check_bottomley(seed + 4, s.bottomley_trials, fault=hit("bottomley-mode-mean")),
        check_local_clt(spec, s.clt_sizes, fault=hit("local-clt")),
        check_sampler_tv(spec, seed + 5, s.tv_draws, fault=hit("sampler-tv")),
        check_conditional_entropy_enum(seed + 6, s.enum_instances,
                                       fault=hit("conditional-entropy-enum")),
        check_ensemble_identities(spec, s.riemann_points,
                                  fault=hit("ensemble-identities")),
    ]
    if inject_fault is not None and inject_fault not in {r.name for r in results}:
        raise DomainError(f"unknown fault target {inject_fault!r}")
    return results
