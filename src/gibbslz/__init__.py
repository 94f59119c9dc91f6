"""Lempel-Ziv word counts of Bose/Fermi occupancy strings.

Exact marginals, fixed-particle-number conditioning, tree-based canonical
sampling, LZ78 parsing, and property batteries tying the measured
compression rate to the ensemble entropy integral.

Public names load on first use (PEP 562): ``import gibbslz`` imports neither
numpy nor any submodule, so ``python -m gibbslz`` can set its BLAS thread
default before numpy starts OpenBLAS.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in (
    ("disttab", "DistTable MomentSummary SuffixSumDP build_suffix_dp "
                "conditional_entropy_exact summary"),
    ("ensemble", "CosineLattice Dispersion EnsembleSpec Statistics TabulatedGrid "
                 "entropy_rate eval_dispersion marginal_entropy marginal_mean "
                 "particle_density site_entropies site_means solve_mu"),
    ("errors", "ConfigError DomainError EnsembleError GibbsLzError "
               "ImpossibleConditionError NumericError TargetRangeError"),
    ("lzparse", "LzParse TypicalParams WordClassCounts classify_words code_rate "
                "lz78_parse lz_rate"),
    ("sampler", "CanonicalSampler ParticleTarget choose_n make_rng marginal_tables "
                "sample_grand"),
) for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
