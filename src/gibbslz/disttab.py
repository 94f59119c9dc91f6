"""Exact finite-support occupancy laws and the fixed-total conditioning oracle.

A DistTable stores the law of one nonnegative integer occupancy in the log
domain, so convolution and conditioning stay accurate far into the tails.
On top of the tables sits the exact suffix-sum oracle.  The command line
takes its entropy gap from the canonical sampler's tree; the suffix DP below
is the independent route that checks it, in the batteries and the tests:

  * build_suffix_dp: table of suffix-sum laws T_j(s) = P(K_j + ... + K_{ell-1} = s),
    the substrate for conditioning on a fixed total occupancy;
  * conditional_site_marginals / conditional_entropy_exact: one-site laws and
    the joint entropy of (K_0, ..., K_{ell-1}) given the total;
  * entropy_gap: conditional joint entropy minus the sum of unconditioned
    marginal entropies (nonpositive; the per-site cost of pinning the total).

The structural inequalities these laws obey (log-concavity closure, Efron
monotonicity, the score-ratio bound, negative association) are checked by
tests/test_disttab.py.  All entropies are in bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ImpossibleConditionError, NumericError

LN2 = math.log(2.0)
NEG_INF = -math.inf

# Mass-balance slack: base tolerance, plus any recorded truncation tail, plus
# a per-entry float allowance for long convolutions.
_MASS_TOL = 1e-12
_MASS_EPS_PER_ENTRY = 4e-16
# Storage cap of a suffix table, in cells; larger instances belong to the
# canonical sampler.
_MAX_CELLS = 1 << 24


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
        # One pass each: NaN fails the comparison, and exp(-inf) is exactly 0.
        if not np.all(arr <= 0.0):
            raise DomainError("log-probabilities must be in [-inf, 0]")
        if not (0.0 <= self.truncation_tail < 0.1):
            raise DomainError("truncation tail must be a small nonnegative mass")
        mass = float(np.exp(arr).sum())
        slack = _MASS_TOL + self.truncation_tail + _MASS_EPS_PER_ENTRY * arr.size
        if abs(mass - 1.0) > slack:
            raise DomainError(f"probabilities sum to {mass!r}, not 1 within {slack:g}")
        object.__setattr__(self, "logp", _freeze(arr))

    @property
    def support_max(self) -> int:
        return self.logp.size - 1

    @property
    def probs(self) -> np.ndarray:
        out = np.exp(self.logp)
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
        # mean a gives success ratio q = a / (1 + a); P(K > m) = q^{m+1}.
        logq = math.log(mean) - math.log1p(mean)
        kmax = int(geometric_tops(np.array([logq]), tail_tol)[0])
        ks = np.arange(kmax + 1)
        log1mq = math.log1p(-mean / (1.0 + mean))
        tail = math.exp((kmax + 1) * logq)
        return cls(log1mq + ks * logq, truncation_tail=tail)


def geometric_tops(logq: np.ndarray, tail_tol: float) -> np.ndarray:
    """Last kept k of geometric laws with log ratios logq < 0, truncated at
    the smallest top with q^{top+1} < tail_tol, as floats."""
    if not (0.0 < tail_tol < 0.1):
        raise DomainError("tail tolerance must be a small positive mass")
    log_tol = math.log(tail_tol)
    top = np.maximum(np.ceil(log_tol / logq) - 1.0, 0.0)
    top += (top + 1.0) * logq >= log_tol
    return top


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


def convolve(*tables: DistTable) -> DistTable:
    """Law of the sum of independent occupancies, in the log domain.

    Folds left to right over the raw log arrays and validates only the
    result, whose truncation tail is the sum of the tables' tails.
    """
    if not tables:
        raise DomainError("need at least one table to convolve")
    out, tail = tables[0].logp, tables[0].truncation_tail
    for t in tables[1:]:
        out = _log_convolve(out, t.logp, out.size + t.logp.size - 1)
        tail += t.truncation_tail
    return DistTable(out, truncation_tail=tail)


@dataclass(frozen=True)
class SuffixSumDP:
    """Suffix-sum laws of independent occupancies, truncated at a target total.

    logT[j, s] = log P(K_j + ... + K_{ell-1} = s) for 0 <= s <= target.  The
    final row j = ell is the point mass at zero.  The conditioning oracles
    below condition on the string total being target.
    """

    marginals: tuple[DistTable, ...]
    target: int
    logT: np.ndarray

    @property
    def ell(self) -> int:
        return len(self.marginals)


def build_suffix_dp(marginals, n: int) -> SuffixSumDP:
    """Backward recursion for the suffix-sum laws, truncated at total n.

    Raises ImpossibleConditionError when the target total is unreachable
    (beyond the summed supports, or of probability zero), and refuses tables
    whose (ell+1) x (n+1) storage would exceed _MAX_CELLS.
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
    if (ell + 1) * (n + 1) > _MAX_CELLS:
        raise NumericError(
            f"suffix table would need {(ell + 1) * (n + 1)} cells "
            f"(cap {_MAX_CELLS}); use CanonicalSampler for instances this large"
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


def _forward_conditionals(dp: SuffixSumDP):
    """Forward sweep under the chain conditioned on the total dp.target.

    Yields, per site j, the triple (state probabilities pi over remaining
    totals s, the live states, conditional transition matrix Q[k, s] =
    P(K_j = k | remaining total s) over them).  The states enumerate
    0..target; pi starts at the point mass on target.
    """
    n = dp.target
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
        yield pi, states, q
        pi = np.bincount(idx[valid], weights=(q * pi[states])[valid],
                         minlength=n + 1)
    if abs(pi[0] - 1.0) > 1e-9:
        raise NumericError("conditioned chain failed to consume the target total")


def conditional_site_marginals(dp: SuffixSumDP) -> list[DistTable]:
    """Laws of each K_i given that the string total equals dp.target."""
    out = []
    for pi, states, q in _forward_conditionals(dp):
        probs = q @ pi[states]
        total = probs.sum()
        out.append(DistTable.from_probs(probs / total))
    return out


def conditional_entropy_exact(dp: SuffixSumDP) -> float:
    """Joint entropy, in bits, of the string given that its total equals
    dp.target.

    Chain rule over sites: sum_j E_pi H(K_j | remaining total), with the
    expectation over the conditioned remaining-total states.
    """
    total_bits = 0.0
    for pi, states, q in _forward_conditionals(dp):
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(q > 0.0, q * np.log(q), 0.0)
        site_bits = -(plogp.sum(axis=0)) / LN2
        total_bits += float(site_bits @ pi[states])
    return total_bits


def entropy_gap(marginals, n: int) -> float:
    """Conditional joint entropy minus the summed marginal entropies, in bits.

    Nonpositive: conditioning on the total can only lower the entropy.
    """
    dp = build_suffix_dp(marginals, n)
    free = sum(summary(t).entropy_bits for t in dp.marginals)
    return conditional_entropy_exact(dp) - free
