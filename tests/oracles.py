"""Table helpers the tests build their exact laws from, and a grand draw
independent of the cached site energies.

The package keeps only the table code its commands and batteries run
(DistTable, the suffix-sum DP and its conditional entropy); these helpers
stand beside it as test oracles.  They build on disttab's own kernels, so
the laws they give are the ones the package's DP computes.  All entropies
are in bits, except in kappa_iid, the closed-form LZ78 constant of i.i.d.
letters, which works in nats as its law does.  blocked_grand_draw
evaluates each block's energies from the dispersion itself.
"""

import math

import numpy as np

from gibbslz import disttab, sampler
from gibbslz.disttab import DistTable
from gibbslz.ensemble import Statistics, _fermi_mean, eval_dispersion
from gibbslz.errors import DomainError
from gibbslz.sampler import geometric_tops


def from_probs(probs, truncation_tail: float = 0.0) -> DistTable:
    """Table of the nonnegative probabilities probs, summing to one."""
    arr = np.asarray(probs, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("probabilities must be nonnegative")
    with np.errstate(divide="ignore"):
        return DistTable(np.log(arr), truncation_tail)


def bernoulli(p: float) -> DistTable:
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"Bernoulli parameter must lie in [0, 1], got {p}")
    return DistTable(np.array([math.log(1.0 - p) if p < 1.0 else -math.inf,
                               math.log(p) if p > 0.0 else -math.inf]))


def geometric(mean: float, tail_tol: float = 1e-12) -> DistTable:
    """Geometric law with the given mean, truncated once the remaining tail
    mass drops below tail_tol; the discarded mass is recorded."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise DomainError(f"geometric mean must be positive and finite, got {mean}")
    # mean a gives success ratio q = a / (1 + a); P(K > m) = q^{m+1}.
    logq = math.log(mean) - math.log1p(mean)
    kmax = int(geometric_tops(np.array([logq]), tail_tol)[0])
    log1mq = math.log1p(-mean / (1.0 + mean))
    tail = math.exp((kmax + 1) * logq)
    return DistTable(log1mq + np.arange(kmax + 1) * logq, truncation_tail=tail)


def convolve(*tables: DistTable) -> DistTable:
    """Law of the sum of independent occupancies, in the log domain.

    Folds left to right over the raw log arrays and validates only the
    result, whose truncation tail is the sum of the tables' tails.
    """
    if not tables:
        raise DomainError("need at least one table to convolve")
    out, tail = tables[0].logp, tables[0].truncation_tail
    for t in tables[1:]:
        out = disttab._log_convolve(out, t.logp, out.size + t.logp.size - 1)
        tail += t.truncation_tail
    return DistTable(out, truncation_tail=tail)


def conditional_site_marginals(dp: disttab.SuffixSumDP) -> list[DistTable]:
    """Laws of each K_i given that the string total equals dp.target."""
    out = []
    for pi, states, q in disttab._forward_conditionals(dp):
        probs = q @ pi[states]
        out.append(from_probs(probs / probs.sum()))
    return out


def entropy_gap(tables, n: int) -> float:
    """Conditional joint entropy minus the summed marginal entropies;
    nonpositive, since conditioning on the total can only lower the entropy."""
    dp = disttab.build_suffix_dp(tables, n)
    free = sum(disttab.summary(t).entropy_bits for t in dp.marginals)
    return disttab.conditional_entropy_exact(dp) - free


def kappa_iid(probs) -> float:
    """The constant kappa of the i.i.d. LZ78 word count C on letters with
    these probabilities: ell h / C - ln C tends to kappa, with h in nats
    (Jacquet & Szpankowski 1995; Louchard & Szpankowski 1997).

    kappa = gamma - 1 + h2 / (2 h) - alpha, with h2 = sum p ln^2 p and
    alpha = -sum over k >= 2 of (sum_i p_i^k ln p_i) / (1 - sum_i p_i^k).
    """
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    if p.size < 2:
        raise DomainError("kappa needs at least two letters of positive probability")
    lnp = np.log(p)
    h = -float(p @ lnp)
    h2 = float(p @ lnp**2)
    alpha = 0.0
    pk = p * p
    while pk.max() > 1e-18:
        alpha -= float(pk @ lnp) / (1.0 - float(pk.sum()))
        pk *= p
    return np.euler_gamma - 1.0 + h2 / (2.0 * h) - alpha


def blocked_grand_draw(spec, ell: int, seed: int, replica: int = 0) -> np.ndarray:
    """sample_grand's draw with each block's energies evaluated afresh from
    the dispersion, in the blocks of sampler._blocks, as an int64 string."""
    rng = sampler.make_rng(seed, ell, replica)
    out = np.empty(ell, dtype=np.int64)
    for lo, hi in sampler._blocks(ell, 1):
        u = rng.random(hi - lo)
        x = spec.beta * eval_dispersion(spec, np.arange(lo, hi) / ell)
        if spec.stats is Statistics.FERMI:
            out[lo:hi] = u < _fermi_mean(x)
        else:
            out[lo:hi] = np.floor(np.log1p(-u) / -x)
    return out
