"""Exact finite-support occupancy laws and fixed-total conditioning oracles.

A DistTable stores the law of one nonnegative integer occupancy in the log
domain, so convolution and conditioning stay accurate far into the tails.
On top of the tables sit the exact oracles used to cross-check the sampler
and the entropy bookkeeping.  The command line takes its entropy gap from
the canonical sampler's tree; the suffix DP below is the independent route
that checks it, in the batteries and the tests:

  * build_suffix_dp: table of suffix-sum laws T_j(s) = P(K_j + ... + K_{ell-1} = s),
    the substrate for conditioning on a fixed total occupancy;
  * conditional_site_marginals / conditional_entropy_exact: one-site laws and
    the joint entropy of (K_0, ..., K_{ell-1}) given the total;
  * entropy_gap: conditional joint entropy minus the sum of unconditioned
    marginal entropies (nonpositive; the per-site cost of pinning the total);
  * local_clt_error: sup-norm gap between the exact law of the total and the
    matching discrete Gaussian, together with the Lyapunov third-moment ratio;
  * score_ratio_check, efron_monotonicity_check: structural inequalities for
    sums of independent log-concave occupancies;
  * enumerate_configs: brute force over the product support, the route kept
    independent of the suffix-sum recursion.

All entropies are in bits.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ImpossibleConditionError,
    NumericError,
    PreconditionError,
)

LN2 = math.log(2.0)
NEG_INF = -math.inf

# Mass-balance slack: base tolerance, plus any recorded truncation tail, plus
# a per-entry float allowance for long convolutions.
_MASS_TOL = 1e-12
_MASS_EPS_PER_ENTRY = 4e-16


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DistTable:
    """Law of one occupancy on {0, ..., support_max}, stored as log-probabilities.

    Entries may be -inf (zero probability).  The probabilities must sum to one
    within a small slack; laws truncated from an infinite support record the
    discarded mass in truncation_tail and are deliberately not renormalised,
    so the recorded tail remains an honest error bound.
    """

    logp: np.ndarray
    truncation_tail: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.logp, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("log-probability table must be a nonempty vector")
        if np.any(np.isnan(arr)) or np.any(arr > 0.0):
            raise DomainError("log-probabilities must be in [-inf, 0]")
        if not (0.0 <= self.truncation_tail < 0.1):
            raise DomainError("truncation tail must be a small nonnegative mass")
        mass = float(np.exp(arr, where=np.isfinite(arr), out=np.zeros_like(arr)).sum())
        slack = _MASS_TOL + self.truncation_tail + _MASS_EPS_PER_ENTRY * arr.size
        if abs(mass - 1.0) > slack:
            raise DomainError(f"probabilities sum to {mass!r}, not 1 within {slack:g}")
        object.__setattr__(self, "logp", _freeze(arr))

    @property
    def support_max(self) -> int:
        return self.logp.size - 1

    @property
    def probs(self) -> np.ndarray:
        out = np.exp(self.logp, where=np.isfinite(self.logp),
                     out=np.zeros_like(self.logp))
        out.flags.writeable = False
        return out

    @classmethod
    def from_probs(cls, probs, truncation_tail: float = 0.0) -> "DistTable":
        arr = np.asarray(probs, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("probabilities must be nonnegative")
        with np.errstate(divide="ignore"):
            return cls(np.log(arr), truncation_tail)

    @classmethod
    def bernoulli(cls, p: float) -> "DistTable":
        if not (0.0 <= p <= 1.0):
            raise DomainError(f"Bernoulli parameter must lie in [0, 1], got {p}")
        with np.errstate(divide="ignore"):
            return cls(np.array([math.log(1.0 - p) if p < 1.0 else NEG_INF,
                                 math.log(p) if p > 0.0 else NEG_INF]))

    @classmethod
    def geometric(cls, mean: float, tail_tol: float = 1e-12) -> "DistTable":
        """Geometric law with the given mean, truncated once the remaining
        tail mass drops below tail_tol; the discarded mass is recorded."""
        if not (mean > 0.0 and math.isfinite(mean)):
            raise DomainError(f"geometric mean must be positive and finite, got {mean}")
        if not (0.0 < tail_tol < 0.1):
            raise DomainError("tail tolerance must be a small positive mass")
        # mean a gives success ratio q = a / (1 + a); P(K > m) = q^{m+1}.
        logq = math.log(mean) - math.log1p(mean)
        kmax = max(0, math.ceil(math.log(tail_tol) / logq) - 1)
        while (kmax + 1) * logq >= math.log(tail_tol):
            kmax += 1
        ks = np.arange(kmax + 1)
        log1mq = math.log1p(-mean / (1.0 + mean))
        tail = math.exp((kmax + 1) * logq)
        return cls(log1mq + ks * logq, truncation_tail=tail)


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    abs_central_moment3: float
    entropy_bits: float
    mode: int


def summary(table: DistTable) -> MomentSummary:
    """Mean, variance, third absolute central moment, entropy (bits), mode.

    The mode is the smallest maximiser of the probability.
    """
    p = table.probs
    ks = np.arange(p.size, dtype=float)
    mean = float(p @ ks)
    dev = ks - mean
    variance = float(p @ dev**2)
    m3 = float(p @ np.abs(dev) ** 3)
    pos = p > 0.0
    entropy = float(-(p[pos] @ table.logp[pos]) / LN2)
    mode = int(np.argmax(p))
    return MomentSummary(mean, variance, m3, entropy, mode)


def _log_convolve(la: np.ndarray, lb: np.ndarray, size: int) -> np.ndarray:
    """First size entries of the log-domain convolution of la and lb.

    The one kernel behind convolve and the suffix-sum rows.  Loops over the
    shorter operand in increasing k, skipping -inf terms.
    """
    if la.size > lb.size:
        la, lb = lb, la
    out = np.full(size, NEG_INF)
    for k in range(min(la.size, size)):
        if la[k] == NEG_INF:
            continue
        m = min(lb.size, size - k)
        out[k:k + m] = np.logaddexp(out[k:k + m], la[k] + lb[:m])
    return out


def convolve(a: DistTable, b: DistTable) -> DistTable:
    """Law of the sum of two independent occupancies, in the log domain."""
    out = _log_convolve(a.logp, b.logp, a.logp.size + b.logp.size - 1)
    return DistTable(out, truncation_tail=a.truncation_tail + b.truncation_tail)


def is_log_concave(table: DistTable, rel_slack: float = 1e-12) -> bool:
    """Whether p(k)^2 >= p(k-1) p(k+1) (1 - rel_slack) across the support.

    The slack forgives float rounding in tables produced by long convolution
    chains; genuine violations are orders of magnitude larger.
    """
    lp = table.logp
    if lp.size < 3:
        return True
    lhs = 2.0 * lp[1:-1]
    rhs = lp[:-2] + lp[2:]
    with np.errstate(invalid="ignore"):
        ok = (rhs == NEG_INF) | (lhs >= rhs + math.log1p(-rel_slack))
    return bool(np.all(ok))


@dataclass(frozen=True)
class SuffixSumDP:
    """Suffix-sum laws of independent occupancies, truncated at a target total.

    logT[j, s] = log P(K_j + ... + K_{ell-1} = s) for 0 <= s <= target.  The
    final row j = ell is the point mass at zero.  Any total n <= target with
    logT[0, n] finite can be conditioned on using the same table.
    """

    marginals: tuple[DistTable, ...]
    target: int
    logT: np.ndarray

    @property
    def ell(self) -> int:
        return len(self.marginals)

    def _resolve_total(self, n: int | None) -> int:
        n = self.target if n is None else int(n)
        if not (0 <= n <= self.target):
            raise DomainError(f"total must lie in [0, {self.target}], got {n}")
        if self.logT[0, n] == NEG_INF:
            raise ImpossibleConditionError(
                f"total occupancy {n} has probability zero under these marginals"
            )
        return n


def build_suffix_dp(
    marginals,
    n: int,
    max_cells: int = 1 << 24,
) -> SuffixSumDP:
    """Backward recursion for the suffix-sum laws, truncated at total n.

    Raises ImpossibleConditionError when the target total is unreachable
    (beyond the summed supports, or of probability zero), and refuses tables
    whose (ell+1) x (n+1) storage would exceed max_cells.
    """
    tables = tuple(marginals)
    if not tables:
        raise DomainError("need at least one marginal")
    if n < 0:
        raise DomainError("target total must be nonnegative")
    if sum(t.support_max for t in tables) < n:
        raise ImpossibleConditionError(
            f"total occupancy {n} exceeds the summed marginal supports"
        )
    ell = len(tables)
    if (ell + 1) * (n + 1) > max_cells:
        raise NumericError(
            f"suffix table would need {(ell + 1) * (n + 1)} cells "
            f"(cap {max_cells}); use CanonicalSampler for instances this large"
        )
    logT = np.full((ell + 1, n + 1), NEG_INF)
    logT[ell, 0] = 0.0
    for j in range(ell - 1, -1, -1):
        logT[j] = _log_convolve(tables[j].logp, logT[j + 1], n + 1)
    if logT[0, n] == NEG_INF:
        raise ImpossibleConditionError(
            f"total occupancy {n} has probability zero under these marginals"
        )
    logT.flags.writeable = False
    return SuffixSumDP(tables, n, logT)


def _forward_conditionals(dp: SuffixSumDP, n: int):
    """Forward sweep under the conditioned chain.

    Yields, per site j, the pair (state probabilities pi over remaining
    totals s, conditional transition matrix Q[k, s] = P(K_j = k | remaining
    total s)).  The states enumerate 0..n; pi starts at the point mass on n.
    """
    pi = np.zeros(n + 1)
    pi[n] = 1.0
    for j in range(dp.ell):
        lp = dp.marginals[j].logp
        nxt = dp.logT[j + 1]
        states = np.nonzero(pi > 0.0)[0]
        kmax = min(lp.size - 1, int(states.max()))
        ks = np.arange(kmax + 1)
        idx = states[None, :] - ks[:, None]
        valid = idx >= 0
        w = np.where(valid, lp[ks, None] + nxt[np.clip(idx, 0, n)], NEG_INF)
        norm = dp.logT[j, states]
        if np.any(norm == NEG_INF):
            raise NumericError("conditioned chain reached a dead-end state")
        q = np.exp(w - norm)
        yield j, pi, states, ks, q
        pi = np.bincount(idx[valid], weights=(q * pi[states])[valid],
                         minlength=n + 1)
    if abs(pi[0] - 1.0) > 1e-9:
        raise NumericError("conditioned chain failed to consume the target total")


def conditional_site_marginals(dp: SuffixSumDP, n: int | None = None) -> list[DistTable]:
    """Laws of each K_i given that the string total equals n."""
    n = dp._resolve_total(n)
    out = []
    for j, pi, states, ks, q in _forward_conditionals(dp, n):
        probs = q @ pi[states]
        total = probs.sum()
        out.append(DistTable.from_probs(probs / total))
    return out


def conditional_entropy_exact(dp: SuffixSumDP, n: int | None = None) -> float:
    """Joint entropy, in bits, of the string given that its total equals n.

    Chain rule over sites: sum_j E_pi H(K_j | remaining total), with the
    expectation over the conditioned remaining-total states.
    """
    n = dp._resolve_total(n)
    total_bits = 0.0
    for j, pi, states, ks, q in _forward_conditionals(dp, n):
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(q > 0.0, q * np.log(q), 0.0)
        site_bits = -(plogp.sum(axis=0)) / LN2
        total_bits += float(site_bits @ pi[states])
    return total_bits


def entropy_gap(marginals, n: int, max_cells: int = 1 << 24) -> float:
    """Conditional joint entropy minus the summed marginal entropies, in bits.

    Nonpositive: conditioning on the total can only lower the entropy.
    """
    dp = build_suffix_dp(marginals, n, max_cells=max_cells)
    free = sum(summary(t).entropy_bits for t in dp.marginals)
    return conditional_entropy_exact(dp, n) - free


@dataclass(frozen=True)
class LocalCltReport:
    sup_error: float
    lyapunov_ratio: float
    sigma: float


def local_clt_error(marginals) -> LocalCltReport:
    """Sup-norm distance between the exact law of the total and its Gaussian.

    Reports sup_q |sigma P(S = q) - phi((q - mean)/sigma)| together with the
    Lyapunov ratio L = sum E|K_i - E K_i|^3 / sigma^3 that controls it.
    """
    tables = list(marginals)
    if not tables:
        raise DomainError("need at least one marginal")
    moments = [summary(t) for t in tables]
    mean = sum(m.mean for m in moments)
    var = sum(m.variance for m in moments)
    if var <= 0.0:
        raise DomainError("degenerate total: zero variance")
    sigma = math.sqrt(var)
    lyap = sum(m.abs_central_moment3 for m in moments) / sigma**3

    law = functools.reduce(convolve, tables)
    lo = min(0, math.floor(mean - 10.0 * sigma))
    hi = max(law.support_max, math.ceil(mean + 10.0 * sigma))
    qs = np.arange(lo, hi + 1, dtype=float)
    pmf = np.zeros(qs.size)
    inside = (qs >= 0) & (qs <= law.support_max)
    pmf[inside] = law.probs[qs[inside].astype(int)]
    gauss = np.exp(-((qs - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi)
    sup_err = float(np.max(np.abs(sigma * pmf - gauss)))
    return LocalCltReport(sup_err, lyap, sigma)


@dataclass(frozen=True)
class ScoreRatioWitness:
    holds: bool
    lhs: float
    rhs: float


def score_ratio_check(marginals, n: int) -> ScoreRatioWitness:
    """For independent Bernoulli occupancies, test the downward score bound

        P(S = n-1) / P(S = n)  >=  n / ((M - n + 1) k*),

    with M the number of sites and k* the mean odds p_i/(1-p_i).  Equality
    holds in the exchangeable (all p_i equal) case.  n = 0 holds vacuously.
    """
    tables = list(marginals)
    if not tables:
        raise DomainError("need at least one marginal")
    if any(t.support_max > 1 for t in tables):
        raise PreconditionError("score ratio bound applies to Bernoulli marginals only")
    ps = np.array([math.exp(t.logp[1]) if t.support_max >= 1 else 0.0 for t in tables])
    if np.any(ps >= 1.0):
        raise DomainError("odds undefined: some marginal is a point mass at 1")
    M = len(tables)
    if not (0 <= n <= M):
        raise PreconditionError(f"total must lie in [0, {M}], got {n}")
    if n == 0:
        return ScoreRatioWitness(True, 0.0, 0.0)

    law = functools.reduce(convolve, tables)
    if law.logp[n] == NEG_INF:
        raise PreconditionError(f"total {n} has probability zero")
    lhs = float(math.exp(law.logp[n - 1] - law.logp[n]))
    kstar = float(np.mean(ps / (1.0 - ps)))
    rhs = n / ((M - n + 1) * kstar)
    holds = lhs >= rhs * (1.0 - 1e-12) - 1e-15
    return ScoreRatioWitness(bool(holds), lhs, rhs)


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


def efron_monotonicity_check(
    marginals,
    phi,
    max_configs: int = 250_000,
) -> bool:
    """Whether E[phi(K) | S = s] is nondecreasing in s, by exhaustive enumeration.

    phi maps an occupancy tuple to a float and must be coordinatewise
    nondecreasing for the property to be guaranteed; the marginals must be
    log-concave.  Instances larger than max_configs configurations are
    refused rather than silently subsampled.
    """
    tables = list(marginals)
    if not tables:
        raise DomainError("need at least one marginal")
    for t in tables:
        if not is_log_concave(t):
            raise PreconditionError("monotonicity guarantee needs log-concave marginals")
    n_configs = math.prod(t.support_max + 1 for t in tables)
    if n_configs > max_configs:
        raise PreconditionError(
            f"{n_configs} configurations exceed the exhaustive cap {max_configs}"
        )
    smax = sum(t.support_max for t in tables)
    num = np.zeros(smax + 1)
    den = np.zeros(smax + 1)
    for config, w in enumerate_configs(tables):
        s = sum(config)
        num[s] += w * phi(config)
        den[s] += w
    live = den > 0.0
    vals = num[live] / den[live]
    if vals.size < 2:
        return True
    tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    return bool(np.all(np.diff(vals) >= -tol))
