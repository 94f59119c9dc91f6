"""Property batteries: structural inequalities and dual-route cross checks.

Each battery exercises one provable property of independent occupancy laws
or one pair of independent computation routes, and returns a CheckResult
with a measured margin.  The batteries are deliberately redundant with the
unit tests: they run at larger trial counts, under one command, against the
configured ensemble.  Each battery computes its own inequality, and its
docstring names the package route it exercises, or says it exercises none.

Fault injection deliberately corrupts one battery's input or tolerance so a
harness run can demonstrate that violations are detected and reported, not
silently absorbed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import disttab, ensemble, sampler
from .disttab import DistTable
from .errors import ConfigError, DomainError, NumericError


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


def _atoms(tables, configs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(configs, weights): an (A, ell) int64 matrix of site configurations,
    by default every one in the product support in lexicographic order, and
    their product-law weights.

    This brute-force route is kept independent of the suffix-sum recursion
    on purpose.
    """
    if configs is None:
        shape = [t.logp.size for t in tables]
        configs = np.indices(shape).reshape(len(shape), -1).T
    weights = np.ones(configs.shape[0])
    for j, t in enumerate(tables):
        weights *= t.probs[configs[:, j]]
    return configs, weights


def check_lc_closure(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Convolution of independent log-concave laws stays log-concave.
    Route: disttab.convolve, the oracle's log-domain algebra."""
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


def _score_ratio(ps: np.ndarray, n: int) -> tuple[float, float]:
    """(lhs, rhs) of the downward score bound for a sum S of independent
    Bernoulli(p_i) occupancies,

        P(S = n-1) / P(S = n)  >=  n / ((M - n + 1) k*),

    with M the number of sites and k* the mean odds p_i/(1-p_i).  Equality
    holds in the exchangeable (all p_i equal) case; n = 0 gives (0, 0).
    The law of S is folded in the probability domain, one site at a time.
    """
    if n == 0:
        return 0.0, 0.0
    law = np.ones(1)
    for p in ps:
        law = np.convolve(law, (1.0 - p, p))
    kstar = float(np.mean(ps / (1.0 - ps)))
    return float(law[n - 1] / law[n]), n / ((len(ps) - n + 1) * kstar)


def check_score_ratio(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Downward score bound for Bernoulli sums, with exchangeable equality.
    Route: none; random laws, folded with np.convolve."""
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
        n = int(rng.integers(0, m + 1))
        lhs, rhs = _score_ratio(ps, n)
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
    """E[phi | total] is nondecreasing for coordinatewise nondecreasing phi.
    Route: none; fixed laws enumerated by brute force."""
    # Each phi maps the (A, ell) configuration matrix to one value per atom.
    phis = [
        ("sum", lambda k: k.sum(axis=1)),
        ("max", lambda k: k.max(axis=1)),
        ("min", lambda k: k.min(axis=1)),
        ("head", lambda k: k[:, 0]),
        ("weighted", lambda k: k @ np.arange(1, k.shape[1] + 1)),
        ("threshold", lambda k: k.sum(axis=1) >= 2),
        ("capped", lambda k: np.minimum(k, 2).sum(axis=1)),
    ]
    cases = 0
    ok = True
    for tables in _efron_instances():
        # Every total up to the summed supports occurs: these laws have full
        # support, so each conditional mean below is well defined.
        configs, weights = _atoms(tables)
        totals = configs.sum(axis=1)
        den = np.bincount(totals, weights)
        for name, phi in phis:
            test_phi = (lambda k: -k.sum(axis=1)) if fault and name == "sum" else phi
            vals = np.bincount(totals, weights * test_phi(configs)) / den
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
    nondecreasing functions on disjoint site sets has covariance <= 0.
    Route: none; fixed laws enumerated by brute force."""
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
        configs, weights = _atoms(tables)
        for n in totals:
            on = configs.sum(axis=1) == n
            k = configs[on].astype(float)
            w = weights[on]
            z = w.sum()
            for a_sites, b_sites in splits:
                if max(a_sites + b_sites) >= len(tables):
                    continue
                for _, f in _WINDOW_FUNCS:
                    for _, g in _WINDOW_FUNCS:
                        pairs += 1
                        fv = f(k[:, a_sites])
                        gv = -g(k[:, b_sites]) if fault else g(k[:, b_sites])
                        ef = (w * fv).sum()
                        eg = (w * gv).sum()
                        efg = (w * fv * gv).sum()
                        cov = efg / z - (ef / z) * (eg / z)
                        worst = max(worst, cov)
                        if cov > 1e-12:
                            ok = False
    return CheckResult("na-exhaustive", ok,
                       f"{pairs} function pairs, max covariance {worst:.3e}")


def check_na_empirical(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                       fault: bool = False,
                       tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                       quad_tol: float = 1e-9) -> CheckResult:
    """Sample covariances of disjoint-window sums under conditioning stay
    within three standard errors of nonpositive.  Route: the canonical
    tree's bulk draws (sample_from_uniforms) at ell=64."""
    ell = 64
    r_eff = ensemble.particle_density(spec, quad_tol)
    n = sampler.choose_n(r_eff, ell).n
    cs = sampler.CanonicalSampler(spec, ell, n, tail_tol)
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
            xc = x - x.mean()
            yc = y - y.mean()
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


def check_chebyshev(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """For any law, an increasing and a decreasing function of the same
    occupancy have nonpositive covariance.  Route: none; random laws."""
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


def check_bottomley(seed: int, trials: int, fault: bool = False) -> CheckResult:
    """Mode and mean of a log-concave law differ by at most sqrt(3 Var).
    Route: disttab.summary of random and geometric laws."""
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
    L = sum E|K_i - E K_i|^3 / sigma^3 controls it.  The site moments come
    from one padded (tables, K) probability matrix, and the law of S from a
    probability-domain fold of the tables.
    """
    probs = [t.probs for t in tables]
    pmat = np.zeros((len(probs), max(p.size for p in probs)))
    for row, p in zip(pmat, probs):
        row[:p.size] = p
    ks = np.arange(pmat.shape[1], dtype=float)
    means = pmat @ ks
    dev = np.abs(ks - means[:, None])
    mean = float(means.sum())
    var = float((pmat * dev**2).sum())
    if var <= 0.0:
        raise DomainError("degenerate total: zero variance")
    sigma = math.sqrt(var)
    law = probs[0]
    for p in probs[1:]:
        law = np.convolve(law, p)
    lo = min(0, math.floor(mean - 10.0 * sigma))
    hi = max(law.size - 1, math.ceil(mean + 10.0 * sigma))
    pmf = np.zeros(hi - lo + 1)
    pmf[-lo:law.size - lo] = law
    qs = np.arange(lo, hi + 1, dtype=float)
    gauss = np.exp(-((qs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi)
    return (float(np.max(np.abs(sigma * pmf - gauss))),
            float((pmat * dev**3).sum()) / sigma**3)


def check_local_clt(spec: ensemble.EnsembleSpec, sizes: tuple[int, ...],
                    fault: bool = False,
                    tail_tol: float = sampler._DEFAULT_TAIL_TOL) -> CheckResult:
    """Gaussian local approximation of the total: the sup error is controlled
    by the Lyapunov third-moment ratio and shrinks along IID ladders.
    Route: marginal_tables at ell=64, folded with np.convolve."""
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
    sup, lyap = _local_clt(sampler.marginal_tables(spec, 64, tail_tol))
    worst_ratio = max(worst_ratio, sup / lyap)
    if sup > bound * lyap:
        ok = False
    details.append(f"site laws ell=64: sup {sup:.2e}, L {lyap:.2e}")
    return CheckResult("local-clt", ok,
                       f"worst sup/L {worst_ratio:.3f} (bound {_CLT_RATIO_BOUND}); "
                       + "; ".join(details))


def check_sampler_tv(spec: ensemble.EnsembleSpec, seed: int, draws: int,
                     fault: bool = False,
                     tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                     quad_tol: float = 1e-9) -> CheckResult:
    """Total variation between fixed-total draws at ell=6 and the exact
    conditional law, computed atom by atom over the observed support.
    Route: the canonical tree's tabulated bulk draws against build_suffix_dp."""
    ell = 6
    r_eff = ensemble.particle_density(spec, quad_tol)
    n = sampler.choose_n(r_eff, ell).n
    # Atoms are counted by their base-(n+1) code, which must fit in int64.
    if (n + 1)**ell >= 2**63:
        raise NumericError(f"base-{n + 1} codes of {ell} sites overflow int64")
    tables = sampler.marginal_tables(spec, ell, tail_tol)
    dp = disttab.build_suffix_dp(tables, n)
    cs = sampler.CanonicalSampler(spec, ell, n, tail_tol)
    # A 1-D integer unique is far faster than axis=0 or rows viewed as bytes.
    place = (n + 1)**np.arange(ell - 1, -1, -1, dtype=np.int64)
    # Uniforms come in the sampler's blocks of rows from one stream, which
    # fills rows in order, so the draws equal those of one (draws, ell)
    # matrix; only the codes are kept.
    rng = np.random.default_rng(seed)
    codes = np.empty(draws, dtype=np.int64)
    for lo, hi in sampler._blocks(draws, ell):
        codes[lo:hi] = cs.sample_from_uniforms(rng.random((hi - lo, ell))) @ place
    keys, counts = np.unique(codes, return_counts=True)
    atoms, weights = _atoms(tables, keys[:, None] // place % (n + 1))
    exact = weights / math.exp(dp.logT[0, n])
    emp = counts / draws
    tv = 0.5 * (np.abs(emp - exact).sum() + max(0.0, 1.0 - exact.sum()))
    # The fault's negative bound fails every TV, even the zero of a total
    # that leaves one possible string.
    bound = -1.0 if fault else 0.01 if draws >= 500_000 else 0.05
    return CheckResult("sampler-tv", bool(tv <= bound),
                       f"ell={ell}, n={n}, {draws} draws over {atoms.shape[0]} atoms: "
                       f"TV {tv:.4f} (bound {bound})")


def check_conditional_entropy_enum(seed: int, instances: int,
                                   fault: bool = False) -> CheckResult:
    """Suffix-recursion conditional entropies and marginals match brute-force
    enumeration on random small systems.  Route: build_suffix_dp,
    conditional_entropy_exact and conditional_site_marginals."""
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
        # Every law has full support, so some configuration has total n.
        configs, weights = _atoms(tables)
        on = configs.sum(axis=1) == n
        p = weights[on] / weights[on].sum()
        h_enum = float(-(p * np.log2(p)).sum())
        dp = disttab.build_suffix_dp(tables, n)
        h_dp = disttab.conditional_entropy_exact(dp)
        gap = abs(h_dp - h_enum)
        worst = max(worst, gap)
        if gap > tol:
            ok = False
        marg0 = np.bincount(configs[on, 0], p, minlength=tables[0].support_max + 1)
        got = disttab.conditional_site_marginals(dp)[0].probs
        gap_m = float(np.max(np.abs(got - marg0[: got.size])))
        worst = max(worst, gap_m)
        if gap_m > max(tol, 1e-12):
            ok = False
    return CheckResult("conditional-entropy-enum", ok,
                       f"{instances} random systems, worst mismatch {worst:.2e}")


def check_ensemble_identities(spec: ensemble.EnsembleSpec, riemann_points: int,
                              fault: bool = False,
                              tail_tol: float = sampler._DEFAULT_TAIL_TOL,
                              quad_tol: float = 1e-9) -> CheckResult:
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
    worst_e = max(abs(disttab.summary(t).entropy_bits - e)
                  for t, e in zip(tables, ents))
    worst_m = max(abs(disttab.summary(t).mean - m) for t, m in zip(tables, means))
    if worst_e > tol_entropy or worst_m > 1e-10:
        ok = False
    msgs.append(f"profile vs tables: entropy {worst_e:.1e}, mean {worst_m:.1e}")

    mids = (np.arange(riemann_points) + 0.5) / riemann_points
    r_mid = float(np.mean(np.asarray(ensemble.marginal_mean(spec, mids))))
    h_mid = float(np.mean(np.asarray(ensemble.marginal_entropy(spec, mids))))
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
                  quad_tol: float = 1e-9) -> list[CheckResult]:
    """Run every battery against one ensemble; see each battery's docstring.
    Batteries that build site laws or samplers, or integrate profiles, do
    so at tail_tol and quad_tol."""
    tols = {"tail_tol": tail_tol, "quad_tol": quad_tol}
    batteries = {
        "lc-closure": lambda fault: check_lc_closure(seed, scale.lc_trials, fault),
        "score-ratio": lambda fault: check_score_ratio(
            seed + 1, scale.score_trials, fault),
        "efron-monotonicity": check_efron,
        "na-exhaustive": check_na_exhaustive,
        "na-empirical": lambda fault: check_na_empirical(
            spec, seed + 2, scale.na_draws, fault, **tols),
        "chebyshev-rearrangement": lambda fault: check_chebyshev(
            seed + 3, scale.chebyshev_trials, fault),
        "moment-constants": lambda fault: check_moment_constants(
            spec, fault, tail_tol=tail_tol),
        "bottomley-mode-mean": lambda fault: check_bottomley(
            seed + 4, scale.bottomley_trials, fault),
        "local-clt": lambda fault: check_local_clt(
            spec, scale.clt_sizes, fault, tail_tol=tail_tol),
        "sampler-tv": lambda fault: check_sampler_tv(
            spec, seed + 5, scale.tv_draws, fault, **tols),
        "conditional-entropy-enum": lambda fault: check_conditional_entropy_enum(
            seed + 6, scale.enum_instances, fault),
        "ensemble-identities": lambda fault: check_ensemble_identities(
            spec, scale.riemann_points, fault, **tols),
    }
    if inject_fault is not None and inject_fault not in batteries:
        raise ConfigError(f"unknown fault target {inject_fault!r}")
    return [run(name == inject_fault) for name, run in batteries.items()]
