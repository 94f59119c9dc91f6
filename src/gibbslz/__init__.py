"""Lempel-Ziv word counts of Bose/Fermi occupancy strings.

Exact marginals, fixed-particle-number conditioning, tree-based canonical
sampling, LZ78 parsing, and property batteries tying the measured
compression rate to the ensemble entropy integral.
"""

from .disttab import (
    DistTable,
    MomentSummary,
    SuffixSumDP,
    build_suffix_dp,
    conditional_entropy_exact,
    conditional_site_marginals,
    convolve,
    entropy_gap,
    summary,
)
from .ensemble import (
    CosineLattice,
    Dispersion,
    EnsembleSpec,
    Statistics,
    TabulatedGrid,
    entropy_of_mean,
    entropy_rate,
    eval_dispersion,
    marginal_entropy,
    marginal_mean,
    particle_density,
    partition_intervals,
    site_entropies,
    site_means,
    solve_mu,
)
from .errors import (
    ConfigError,
    DomainError,
    EnsembleError,
    GibbsLzError,
    ImpossibleConditionError,
    NumericError,
    TargetRangeError,
)
from .lzparse import (
    LzParse,
    TypicalParams,
    WordClassCounts,
    classify_words,
    code_rate,
    lz78_parse,
    lz_rate,
    lz_rate_from_count,
)
from .sampler import (
    CanonicalSampler,
    OccupancyString,
    ParticleTarget,
    Provenance,
    choose_n,
    make_rng,
    marginal_tables,
    sample_grand,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalSampler", "ConfigError", "CosineLattice", "Dispersion",
    "DistTable", "DomainError", "EnsembleError", "EnsembleSpec",
    "GibbsLzError", "ImpossibleConditionError", "LzParse", "MomentSummary",
    "NumericError", "OccupancyString", "ParticleTarget", "Provenance",
    "Statistics", "SuffixSumDP", "TabulatedGrid", "TargetRangeError",
    "TypicalParams", "WordClassCounts", "build_suffix_dp", "choose_n",
    "classify_words", "code_rate", "conditional_entropy_exact",
    "conditional_site_marginals", "convolve", "entropy_gap", "entropy_of_mean",
    "entropy_rate", "eval_dispersion", "lz78_parse", "lz_rate",
    "lz_rate_from_count", "make_rng", "marginal_entropy", "marginal_mean",
    "marginal_tables", "particle_density", "partition_intervals",
    "sample_grand", "site_entropies", "site_means", "solve_mu", "summary",
]
