"""Incremental dictionary parsing of occupancy strings and word statistics.

The parser scans left to right and cuts the shortest word not seen before,
growing a dictionary over the (unbounded) integer alphabet; the trailing
remainder, which may duplicate an earlier word, is kept as a final word so
the words tile the string exactly.  The headline statistic is

    lz_rate = C * log2(ell) / ell,

with C the word count: the compressed size per site when each word is coded
by a fixed-width pointer.  code_rate = C * log2(C) / ell is the matching
self-referential pointer cost.

Strings keep the integer dtype they come in, which the samplers make the
narrowest that holds the string (one byte per site for Fermi strings and
most Bose ones).  The dictionary is one set of words as byte strings of
the string's raw bytes, itemsize bytes per symbol, so a word costs a short
bytes object instead of a chain of trie nodes.  Every proper prefix of a
word is itself a word, so whether s[i:i+k] is in the dictionary is true up
to some k and false beyond it; the parse finds that edge by galloping from
the previous word's length, a few set probes per word instead of one trie
step per symbol.

Word-level diagnostics weigh each parsed word against the mode profiles of
the generating ensemble: a word's ensemble entropy is the per-site entropy
profile summed across its window, and a word is typical when its window's
occupancy deviates from the mean profile by at most an allowance per site
(see TypicalParams).  classify_words splits each parse of a block of
strings into typical words below an entropy budget, remaining typical
words, and non-typical words.  Both profiles depend only on (spec, ell):
they are derived a block of sites at a time from the length's cached site
energies (sampler._site_energies, 8 bytes a site), once per block of
strings, and never held whole.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    EnsembleSpec,
    _energy_entropy,
    _energy_mean,
    marginal_entropy,
    marginal_mean,
)
from .errors import DomainError
from .sampler import _blocks, _site_energies


def _as_values(string) -> np.ndarray:
    arr = np.asarray(string)
    if arr.ndim != 1:
        raise DomainError("occupancy string must be one-dimensional")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise DomainError("occupancies must be integers")
    return arr


@dataclass(frozen=True)
class LzParse:
    """A tiling of a length-ell string into dictionary words.

    Word w has lengths[w] sites and follows word w - 1, so the words end at
    cumsum(lengths), exclusive.  All words except possibly the last
    are distinct, and every proper prefix of a word occurs earlier as a word.
    """

    ell: int
    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.ascontiguousarray(self.lengths, dtype=np.int64)
        # Positive lengths that sum to ell are exactly the tilings of the string.
        if lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != self.ell:
            raise DomainError("word lengths must be positive and sum to ell")
        lengths.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)

    @property
    def word_count(self) -> int:
        return self.lengths.size


def lz78_parse(string) -> LzParse:
    """Shortest-new-word incremental parse with a dictionary of byte strings.

    A word starting at byte i is data[i:j] for the shortest j whose slice is
    not yet a word.  Membership of data[i:i+k] is monotone in k, so the
    search gallops from the previous word's length: up in doubling steps
    while slices are words, or down while they are not, then bisects the
    bracket.  The trailing remainder is emitted as a final word even when
    it repeats an earlier one, so the word count matches the pointer count
    of the coder.
    """
    arr = _as_values(string)
    data = arr.tobytes()
    w = arr.itemsize
    end = len(data)
    words: set[bytes] = set()
    lengths: list[int] = []
    # Bound methods and plain comparisons instead of min/max: this loop
    # runs once per word.
    add, push = words.add, lengths.append
    i = 0
    guess = w
    while i < end:
        # Bracket the word's end: data[i:lo] is a word (or empty), and
        # data[i:hi] is not, or hi is the end of the string, where the
        # remainder is the last word whether or not it is new.
        j = i + guess
        if j > end:
            j = end
        if data[i:j] in words:
            lo, step = j, w
            hi = j + w
            while hi < end and data[i:hi] in words:
                lo = hi
                step += step
                hi += step
            if hi > end:
                hi = end
        else:
            hi, step = j, w
            lo = j - w
            while lo > i and data[i:lo] not in words:
                hi = lo
                step += step
                lo -= step
            if lo < i:
                lo = i
        while hi - lo > w:
            mid = lo + (hi - lo) // w // 2 * w
            if data[i:mid] in words:
                lo = mid
            else:
                hi = mid
        add(data[i:hi])
        push(hi - i)
        guess = hi - i
        i = hi
    return LzParse(int(arr.size), np.asarray(lengths, dtype=np.int64) // w)


def lz_rate(parse: LzParse) -> float:
    """Pointer-code rate C log2(ell) / ell in bits per site; needs ell >= 2."""
    if parse.ell < 2:
        raise DomainError("rate is defined for strings of length at least 2")
    return parse.word_count * math.log2(parse.ell) / parse.ell


def code_rate(parse: LzParse) -> float:
    """Self-referential pointer cost C log2(C) / ell in bits per site."""
    if parse.ell < 2:
        raise DomainError("rate is defined for strings of length at least 2")
    c = parse.word_count
    if c <= 1:
        return 0.0
    return c * math.log2(c) / parse.ell


@dataclass(frozen=True)
class TypicalParams:
    """Per-site deviation allowance for the typical-window test.

    eps_prime = eps * e(L) / (2 L), where L is the supremum of the mean
    profile and e(L) the entropy of the mode where the mean peaks: at the
    dispersion's minimising point, as occupancy falls with energy.  A
    window of length M is typical when its summed occupancy exceeds the
    summed mean profile by at most M * eps_prime (one-sided by default;
    two_sided also rejects windows that undershoot by more than that).
    """

    eps: float
    eps_prime: float
    sup_mean: float
    entropy_at_sup: float
    two_sided: bool = False

    @classmethod
    def from_ensemble(cls, spec: EnsembleSpec, eps: float,
                      two_sided: bool = False) -> "TypicalParams":
        if not (0.0 < eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {eps}")
        at = spec.dispersion.argmin_base_energy
        sup_mean = marginal_mean(spec, at)
        if not sup_mean > 0.0:
            raise DomainError("the mean occupancy profile is zero everywhere; "
                              "the ensemble is frozen")
        e_sup = marginal_entropy(spec, at)
        eps_prime = eps * e_sup / (2.0 * sup_mean)
        return cls(eps, eps_prime, sup_mean, e_sup, two_sided)


@dataclass(frozen=True)
class WordClassCounts:
    """Counts of parse words by typicality and ensemble-entropy budget."""

    low_typical: int
    other_typical: int
    non_typical: int


def classify_words(parses: Sequence[LzParse], strings, spec: EnsembleSpec,
                   params: TypicalParams) -> list[WordClassCounts]:
    """Split each parse's words into low-entropy typical, other typical, and
    non-typical, with entropy budget (1 - eps^2) log2(ell) bits per word.

    Row i of the 2-D strings is the string parses[i] tiles; a block of
    strings of one length is classified at once.  A word's deviation and
    its ensemble entropy are differences of prefix sums, of each row's
    arr - means and of the entropy profile, at the word's two ends.  The
    site means and entropies come from the length's site energies one block
    of sites at a time, once for all the rows; a site of a block costs the
    m rows' deviations and about four cells of means, entropies and their
    temporaries, so the block's working set stays within _BLOCK_CELLS.  The
    prefix sums run block by block, each block's first element carrying the
    sum so far, and only their values at word ends are kept: the same
    additions in the same order as one cumsum over the string, without an
    ell-long float array."""
    arr = np.asarray(strings)
    if arr.ndim != 2 or arr.shape[0] != len(parses):
        raise DomainError("strings must be a 2-D block with one row per parse")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise DomainError("occupancies must be integers")
    m, ell = arr.shape
    if any(parse.ell != ell for parse in parses):
        raise DomainError("parse and string lengths disagree")
    if ell < 2:
        raise DomainError("classification needs a string of length at least 2")
    energies = _site_energies(spec, ell)
    ends = [np.cumsum(parse.lengths) for parse in parses]
    dev_at = [np.empty(e.size) for e in ends]
    ent_at = [np.empty(e.size) for e in ends]
    done = [0] * m
    blocks = _blocks(ell, m + 4)
    buf = np.empty(m * blocks[0][1])
    carry = np.zeros(m)
    ent_carry = 0.0
    for lo, hi in blocks:
        x = energies[lo:hi]
        ent = _energy_entropy(spec.stats, x)
        ent[0] += ent_carry
        np.cumsum(ent, out=ent)
        ent_carry = ent[-1]
        dev = buf[:m * (hi - lo)].reshape(m, hi - lo)
        np.subtract(arr[:, lo:hi], _energy_mean(spec.stats, x), out=dev)
        dev[:, 0] += carry
        np.cumsum(dev, axis=1, out=dev)
        carry = dev[:, -1].copy()
        for i in range(m):
            # Word ends in (lo, hi] read the prefix sums through site end - 1.
            upto = int(np.searchsorted(ends[i], hi, side="right"))
            at = ends[i][done[i]:upto] - 1 - lo
            dev_at[i][done[i]:upto] = dev[i, at]
            ent_at[i][done[i]:upto] = ent[at]
            done[i] = upto
    budget = (1.0 - params.eps**2) * math.log2(ell)
    out = []
    for parse, dev_ends, ent_ends in zip(parses, dev_at, ent_at):
        devs = np.diff(dev_ends, prepend=0.0)
        word_entropy = np.diff(ent_ends, prepend=0.0)
        if params.two_sided:
            typical = np.abs(devs) <= parse.lengths * params.eps_prime
        else:
            typical = devs <= parse.lengths * params.eps_prime
        low = typical & (word_entropy <= budget)
        out.append(WordClassCounts(
            low_typical=int(np.count_nonzero(low)),
            other_typical=int(np.count_nonzero(typical & ~low)),
            non_typical=int(np.count_nonzero(~typical)),
        ))
    return out
