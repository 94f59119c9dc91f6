"""Parser structure, rate formulas, word-count extremes, and word classes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbslz as g
from gibbslz import sampler
from gibbslz import (
    CosineLattice,
    EnsembleSpec,
    LzParse,
    Statistics,
    TabulatedGrid,
    TypicalParams,
    classify_words,
    code_rate,
    lz78_parse,
    lz_rate,
    marginal_entropy,
    marginal_mean,
    site_entropies,
    site_means,
)
from gibbslz.errors import DomainError
from gibbslz.ensemble import _energy_entropy, _energy_mean, eval_dispersion
from gibbslz.lzparse import _as_values
from gibbslz.sampler import _site_energies

FERMI = EnsembleSpec(Statistics.FERMI, 1.0, 1.0, CosineLattice())


# Reference routes: a symbol-by-symbol trie parse, word by word the
# quantities classify_words computes in bulk from prefix sums, plus the
# greatest word count of a parse.

def trie_lengths(string) -> list[int]:
    """Word lengths of the shortest-new-word parse, one trie step per
    symbol: each word is a node of nested dicts keyed by the symbol's int."""
    root: dict[int, dict] = {}
    lengths: list[int] = []
    node = root
    start = 0
    vals = np.asarray(string).tolist()
    for i, sym in enumerate(vals):
        child = node.get(sym)
        if child is None:
            node[sym] = {}
            lengths.append(i - start + 1)
            node = root
            start = i + 1
        else:
            node = child
    if start < len(vals):
        lengths.append(len(vals) - start)
    return lengths


def starts(parse: LzParse) -> np.ndarray:
    """First site of every word of the parse."""
    return np.cumsum(parse.lengths) - parse.lengths


def word_windows(parse: LzParse) -> list[tuple[int, int]]:
    """(start, length) of every word of the parse."""
    return list(zip(starts(parse).tolist(), parse.lengths.tolist()))


def class_total(counts) -> int:
    """Words counted by a WordClassCounts, over all three classes."""
    return counts.low_typical + counts.other_typical + counts.non_typical


def word_ensemble_entropy(spec: EnsembleSpec, ell: int, start: int,
                          length: int) -> float:
    """Summed per-site entropy profile (bits) across one word's window."""
    if not (0 <= start and length >= 1 and start + length <= ell):
        raise DomainError("word window must lie inside the string")
    idx = np.arange(start, start + length)
    return float(np.sum(np.asarray(marginal_entropy(spec, idx / ell))))


def typical_membership(string, start: int, length: int,
                       mean_profile: np.ndarray, params: TypicalParams) -> bool:
    """Whether the window [start, start+length) passes the deviation test."""
    arr = _as_values(string)
    if not (0 <= start and length >= 1 and start + length <= arr.size):
        raise DomainError("window must lie inside the string")
    profile = np.asarray(mean_profile, dtype=float)
    if profile.shape != arr.shape:
        raise DomainError("mean profile must match the string length")
    window = slice(start, start + length)
    dev = float(arr[window].sum() - profile[window].sum())
    allowance = length * params.eps_prime
    if params.two_sided:
        return abs(dev) <= allowance
    return dev <= allowance


def max_word_count(ell: int, alphabet_size: int = 2) -> int:
    """Largest word count any length-ell string over the alphabet can produce.

    Greedy extreme: exhaust all words of length 1, then 2, and so on; the
    remainder contributes complete words of the next length plus at most one
    trailing word.
    """
    if ell < 0 or alphabet_size < 1:
        raise DomainError("need ell >= 0 and a nonempty alphabet")
    count = 0
    remaining = ell
    d = 1
    while True:
        block = d * alphabet_size**d
        if remaining < block:
            full, part = divmod(remaining, d)
            return count + full + (1 if part else 0)
        count += alphabet_size**d
        remaining -= block
        d += 1


def test_hand_traced_parse():
    parse = lz78_parse(np.array([1, 0, 1, 1, 0, 1, 0]))
    assert parse.word_count == 5
    assert starts(parse).tolist() == [0, 1, 2, 4, 6]
    assert parse.lengths.tolist() == [1, 1, 2, 2, 1]


def test_all_zeros_closed_form():
    # 0 | 00 | 000 | ... : the count is the least k with k(k+1)/2 >= ell.
    for ell in [1, 2, 3, 6, 10, 11, 12, 100, 1000]:
        parse = lz78_parse(np.zeros(ell, dtype=np.int64))
        expected = next(k for k in range(1, ell + 1) if k * (k + 1) // 2 >= ell)
        assert parse.word_count == expected
        assert parse.word_count == max_word_count(ell, alphabet_size=1)


def test_trailing_word_may_duplicate():
    parse = lz78_parse(np.array([0, 1, 0, 1, 0, 1]))
    assert word_windows(parse) == [(0, 1), (1, 1), (2, 2), (4, 2)]
    vals = np.array([0, 1, 0, 1, 0, 1])
    words = [tuple(vals[s:s + m]) for s, m in word_windows(parse)]
    assert words[-1] == words[2]
    assert len(set(words[:-1])) == len(words) - 1


def test_single_repeated_symbol_counts_trailer():
    parse = lz78_parse(np.array([1, 1]))
    assert parse.word_count == 2
    assert word_windows(parse) == [(0, 1), (1, 1)]


def test_all_but_last_word_distinct_on_samples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = rng.integers(0, 3, size=rng.integers(2, 400))
        parse = lz78_parse(vals)
        words = [tuple(vals[s:s + m]) for s, m in word_windows(parse)]
        assert len(set(words[:-1])) == len(words) - 1
        assert int(parse.lengths.sum()) == vals.size


def test_prefix_closure_on_samples():
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = rng.integers(0, 2, size=rng.integers(2, 300))
        parse = lz78_parse(vals)
        seen = set()
        for s, m in word_windows(parse)[:-1]:
            word = tuple(vals[s:s + m])
            if m > 1:
                assert word[:-1] in seen
            seen.add(word)


def test_relabel_invariance():
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 4, size=500)
    base = lz78_parse(vals)
    for mapping in [{0: 1, 1: 0, 2: 3, 3: 2}, {k: k + 17 for k in range(4)}]:
        relabeled = np.vectorize(mapping.get)(vals)
        parse = lz78_parse(relabeled)
        assert starts(parse).tolist() == starts(base).tolist()
        assert parse.lengths.tolist() == base.lengths.tolist()


@st.composite
def occupancy_strings(draw) -> np.ndarray:
    """Strings over a few symbols of one integer dtype, the full range of
    the dtype included, as contiguous arrays or as views with a stride."""
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16, np.int64])))
    info = np.iinfo(dtype)
    alphabet = draw(st.lists(st.integers(int(info.min), int(info.max)),
                             min_size=1, max_size=4, unique=True))
    values = draw(st.lists(st.sampled_from(alphabet), max_size=300))
    step = draw(st.sampled_from([1, 3, -2]))
    # The gaps of a strided view hold a symbol of the alphabet, so a parse
    # that read them would cut different words.
    base = np.full(max(1, len(values) * abs(step)), alphabet[0], dtype=dtype)
    view = base[::step][:len(values)]
    view[:] = values
    return view


@settings(max_examples=300, deadline=None)
@given(occupancy_strings())
@example(np.array([], dtype=np.uint8))
@example(np.array([7], dtype=np.uint16))
@example(np.array([-3], dtype=np.int64))
@example(np.full(50, 4, dtype=np.uint8))
@example(np.full(50, 2**40, dtype=np.int64))
@example(np.array([256, 1, 256, 256, 1, 0, 256, 1, 1, 256], dtype=np.uint16))
@example(np.array([-1, 2**63 - 1, -1, -1, -2**63, 0, -1, 2**63 - 1], dtype=np.int64))
@example(np.arange(40, dtype=np.int64)[::-3])
@example(np.array([0] * 10 + [1] + [0] * 7, dtype=np.uint16))
def test_parse_matches_the_trie(string):
    # The byte-string dictionary with its galloping search cuts exactly
    # the words of the trie, whatever the dtype, values, length or strides.
    # In the last example the final gallop runs past the end of the string
    # and bisects a bracket of three two-byte symbols.
    parse = lz78_parse(string)
    assert parse.ell == string.size
    assert parse.lengths.tolist() == trie_lengths(string)


CANONICAL = [g.CanonicalSampler(FERMI, 512, 256),
             g.CanonicalSampler(EnsembleSpec(Statistics.BOSE, 1.0, -0.5,
                                             CosineLattice()), 256, 130)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_parse_matches_the_trie_on_sampled_rows(seed):
    # Rows of a canonical batch are views into one matrix of the sampler's
    # narrow dtype.
    for cs in CANONICAL:
        for row in cs.sample_batch(seed, [0, 1, 2]):
            assert lz78_parse(row).lengths.tolist() == trie_lengths(row)


def test_max_word_count_is_tight_for_short_binary_strings():
    for ell in range(1, 13):
        best = 0
        for bits in range(1 << ell):
            vals = np.array([(bits >> i) & 1 for i in range(ell)], dtype=np.int64)
            best = max(best, lz78_parse(vals).word_count)
        assert best == max_word_count(ell, alphabet_size=2)


def test_max_word_count_validation_and_growth():
    with pytest.raises(DomainError):
        max_word_count(-1)
    with pytest.raises(DomainError):
        max_word_count(5, alphabet_size=0)
    assert max_word_count(0) == 0
    # Bound grows sublinearly: C log2 C <= ell log2(alphabet) + O(C).
    for ell in [64, 256, 1024, 4096]:
        c = max_word_count(ell, alphabet_size=2)
        assert c * math.log2(c) <= ell + 2 * c


def test_rate_formulas():
    assert lz_rate(LzParse(7, np.array([1, 1, 2, 2, 1]))) == \
        pytest.approx(5 * math.log2(7) / 7)
    parse = lz78_parse(np.array([1, 0, 1, 1, 0, 1, 0]))
    assert lz_rate(parse) == pytest.approx(5 * math.log2(7) / 7)
    assert code_rate(parse) == pytest.approx(5 * math.log2(5) / 7)
    with pytest.raises(DomainError):
        lz_rate(LzParse(1, np.array([1])))
    with pytest.raises(DomainError):
        code_rate(lz78_parse(np.array([0])))


def test_parse_tiling_validation():
    # Words are stored by length only, so gaps and overlaps cannot be
    # represented; what is left to refuse is a zero length and lengths
    # that miss ell.
    empty = LzParse(0, np.array([], dtype=np.int64))
    assert empty.word_count == 0 and starts(empty).size == 0
    parse = LzParse(5, np.array([2, 1, 2]))
    assert starts(parse).tolist() == [0, 2, 3]
    with pytest.raises(DomainError):
        LzParse(3, np.array([1, 1]))
    with pytest.raises(DomainError):
        LzParse(3, np.array([1, 1, 1, 1]))
    with pytest.raises(DomainError):
        LzParse(2, np.array([0, 2]))
    with pytest.raises(DomainError):
        LzParse(2, np.array([], dtype=np.int64))
    with pytest.raises(DomainError):
        LzParse(2, np.array([[1, 1]]))
    parse = lz78_parse(np.array([1, 0]))
    with pytest.raises(ValueError):
        parse.lengths[0] = 5


def test_parse_rejects_bad_inputs():
    with pytest.raises(DomainError):
        lz78_parse(np.array([[1, 0], [0, 1]]))
    with pytest.raises(DomainError):
        lz78_parse(np.array([0.5, 1.0]))


def test_word_ensemble_entropy_matches_profile():
    ell = 64
    ents = site_entropies(FERMI, ell)
    whole = word_ensemble_entropy(FERMI, ell, 0, ell)
    assert whole == pytest.approx(float(ents.sum()), rel=1e-12)
    one = word_ensemble_entropy(FERMI, ell, 17, 1)
    assert one == pytest.approx(float(marginal_entropy(FERMI, 17 / ell)), rel=1e-12)
    with pytest.raises(DomainError):
        word_ensemble_entropy(FERMI, ell, 60, 5)
    with pytest.raises(DomainError):
        word_ensemble_entropy(FERMI, ell, -1, 2)


def test_typical_params_from_ensemble():
    params = TypicalParams.from_ensemble(FERMI, 0.3)
    expit = lambda t: 1.0 / (1.0 + math.exp(-t))
    sup = expit(1.0)
    assert params.sup_mean == pytest.approx(sup, abs=1e-6)
    h = -(sup * math.log2(sup) + (1 - sup) * math.log2(1 - sup))
    assert params.entropy_at_sup == pytest.approx(h, abs=1e-6)
    assert params.eps_prime == pytest.approx(0.3 * h / (2 * sup), abs=1e-6)
    assert not params.two_sided
    for bad in [0.0, 1.0, -0.2, 1.5]:
        with pytest.raises(DomainError):
            TypicalParams.from_ensemble(FERMI, bad)


def test_typical_params_peak_at_an_off_grid_node():
    # The band minimum of this grid sits at y = 1/3, which no dyadic grid
    # contains; the supremum must be read there, not near it.
    disp = TabulatedGrid((0.5, 0.2, 0.9, 0.4))
    spec = EnsembleSpec(Statistics.BOSE, 1.0, 0.19, disp)
    params = TypicalParams.from_ensemble(spec, 0.3)
    assert params.sup_mean == marginal_mean(spec, 1 / 3)
    assert params.entropy_at_sup == marginal_entropy(spec, 1 / 3)
    ys = np.linspace(0.0, 1.0, 1 << 12)
    assert params.sup_mean >= float(np.max(marginal_mean(spec, ys)))


def test_typical_membership_thresholds():
    params = TypicalParams(eps=0.5, eps_prime=0.25, sup_mean=0.5,
                           entropy_at_sup=1.0, two_sided=False)
    profile = np.full(8, 0.5)
    vals = np.array([1, 1, 0, 0, 0, 0, 0, 0])
    # Window [0, 4): dev = 2 - 2 = 0 <= 1.
    assert typical_membership(vals, 0, 4, profile, params)
    # Window [0, 2): dev = 2 - 1 = 1 > 0.5.
    assert not typical_membership(vals, 0, 2, profile, params)
    # Exactly at the allowance passes.
    assert typical_membership(np.array([1, 1, 0, 0, 1, 0, 0, 0]), 0, 4,
                              profile, params)
    # Undershoot passes one-sided, fails two-sided.
    zeros = np.zeros(8, dtype=np.int64)
    assert typical_membership(zeros, 0, 4, profile, params)
    two = TypicalParams(eps=0.5, eps_prime=0.25, sup_mean=0.5,
                        entropy_at_sup=1.0, two_sided=True)
    assert not typical_membership(zeros, 0, 4, profile, two)
    with pytest.raises(DomainError):
        typical_membership(vals, 6, 4, profile, params)
    with pytest.raises(DomainError):
        typical_membership(vals, 0, 4, profile[:4], params)


def direct_counts(parse, string, spec: EnsembleSpec,
                  params: TypicalParams) -> tuple[int, int, int]:
    """(low typical, other typical, non-typical) word counts, word by word."""
    means = site_means(spec, parse.ell)
    budget = (1.0 - params.eps ** 2) * math.log2(parse.ell)
    low = other = non = 0
    for s, m in word_windows(parse):
        typ = typical_membership(string, s, m, means, params)
        ent = word_ensemble_entropy(spec, parse.ell, s, m)
        if typ and ent <= budget:
            low += 1
        elif typ:
            other += 1
        else:
            non += 1
    return low, other, non


def test_classify_words_matches_direct_loop():
    ell = 256
    cs = g.CanonicalSampler(FERMI, ell, g.choose_n(0.5, ell).n)
    string = cs.sample_batch(seed=5, replicas=[0])[0]
    parse = lz78_parse(string)
    params = TypicalParams.from_ensemble(FERMI, 0.3)
    counts, = classify_words([parse], string[None], FERMI, params)
    assert (counts.low_typical, counts.other_typical, counts.non_typical) == \
        direct_counts(parse, string, FERMI, params)
    assert class_total(counts) == parse.word_count


def test_classify_words_profile_cache_is_keyed_on_spec_and_length():
    bose = EnsembleSpec(Statistics.BOSE, 1.0, -0.5, CosineLattice())
    params = {spec: TypicalParams.from_ensemble(spec, 0.3) for spec in (FERMI, bose)}
    # Interleave specs and lengths so every call but the repeats misses the
    # one-entry cache, and the repeats hit it.
    order = [(FERMI, 128), (bose, 128), (bose, 128), (FERMI, 96),
             (bose, 96), (FERMI, 128), (FERMI, 128), (bose, 128)]
    _site_energies.cache_clear()
    for call, (spec, ell) in enumerate(order):
        string = g.sample_grand(spec, ell, seed=4, replica=call)
        parse = lz78_parse(string)
        counts, = classify_words([parse], string[None], spec, params[spec])
        assert (counts.low_typical, counts.other_typical, counts.non_typical) == \
            direct_counts(parse, string, spec, params[spec])

        x = _site_energies(spec, ell)
        np.testing.assert_array_equal(
            x, spec.beta * eval_dispersion(spec, np.arange(ell) / ell))
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 1.0
    info = _site_energies.cache_info()
    assert info.maxsize == 1
    # The draw, the classification and the read-back each ask once a call;
    # only the draws of the six changes of (spec, ell) miss.
    assert (info.misses, info.hits) == (6, 3 * len(order) - 6)


@pytest.mark.parametrize("block", [1, 7, 1000, sampler._BLOCK_CELLS])
@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.value)
def test_word_profile_does_not_depend_on_the_block_size(monkeypatch, stats, block):
    # Three whole blocks and a ragged fourth: the means and entropies
    # classify_words derives from the cached energies, the entropies summed
    # block by block with a carry, against the profiles computed whole and
    # summed by one cumsum, bit for bit.
    spec = EnsembleSpec(stats, 1.0, 1.0 if stats is Statistics.FERMI else -0.5,
                        CosineLattice())
    ell = 3 * block + 5
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
    _site_energies.cache_clear()
    x = _site_energies(spec, ell)
    _site_energies.cache_clear()
    means = np.empty(ell)
    ent_prefix = np.zeros(ell + 1)
    for lo, hi in sampler._blocks(ell, 1):
        means[lo:hi] = _energy_mean(stats, x[lo:hi])
        ent = _energy_entropy(stats, x[lo:hi])
        ent[0] += ent_prefix[lo]
        ent_prefix[lo + 1:hi + 1] = np.cumsum(ent)
    whole = np.concatenate([[0.0], np.cumsum(site_entropies(spec, ell))])
    for got, want in ((means, site_means(spec, ell)), (ent_prefix, whole)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def whole_string_counts(parse, string, spec: EnsembleSpec,
                        params: TypicalParams) -> tuple[int, int, int]:
    """(low typical, other typical, non-typical) from one cumsum of
    arr - means over the whole string, read at the word ends."""
    dev_prefix = np.concatenate(
        [[0.0], np.cumsum(np.asarray(string, dtype=np.int64) - site_means(spec, parse.ell))])
    ent_prefix = np.concatenate([[0.0], np.cumsum(site_entropies(spec, parse.ell))])
    first = starts(parse)
    ends = first + parse.lengths
    devs = dev_prefix[ends] - dev_prefix[first]
    allowance = parse.lengths * params.eps_prime
    typical = np.abs(devs) <= allowance if params.two_sided else devs <= allowance
    low = typical & (ent_prefix[ends] - ent_prefix[first]
                     <= (1.0 - params.eps**2) * math.log2(parse.ell))
    return (int(np.count_nonzero(low)), int(np.count_nonzero(typical & ~low)),
            int(np.count_nonzero(~typical)))


@pytest.mark.parametrize("block", [1, 7, 1000, sampler._BLOCK_CELLS])
@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.value)
def test_classify_words_does_not_depend_on_the_block_size(monkeypatch, stats, block):
    # Three whole blocks and a ragged fourth: the blocked prefix sum, read
    # at word ends, counts the words that one whole-string cumsum counts,
    # and the uint8 string and its int64 copy are counted alike.
    spec = EnsembleSpec(stats, 1.0, 1.0 if stats is Statistics.FERMI else -0.5,
                        CosineLattice())
    ell = 3 * block + 5
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
    _site_energies.cache_clear()
    narrow = g.sample_grand(spec, ell, seed=8)
    assert narrow.dtype == np.uint8
    wide = narrow.astype(np.int64)
    parse = lz78_parse(narrow)
    for two_sided in (False, True):
        params = TypicalParams.from_ensemble(spec, 0.3, two_sided=two_sided)
        want = whole_string_counts(parse, wide, spec, params)
        for string in (narrow, wide):
            counts, = classify_words([parse], string[None], spec, params)
            assert (counts.low_typical, counts.other_typical,
                    counts.non_typical) == want
    _site_energies.cache_clear()


@pytest.mark.parametrize("block", [1, 7, 1000, sampler._BLOCK_CELLS])
@pytest.mark.parametrize("stats", list(Statistics), ids=lambda s: s.value)
def test_classify_words_block_counts_each_row_as_a_whole_string(monkeypatch, stats,
                                                                block):
    # Five strings classified as one 2-D block, whose site blocks hold a
    # fifth of the cells each (ragged but for one site block at 2^17): each
    # row counts what one whole-string cumsum of that row counts.
    spec = EnsembleSpec(stats, 1.0, 1.0 if stats is Statistics.FERMI else -0.5,
                        CosineLattice())
    ell = 1237
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
    _site_energies.cache_clear()
    strings = np.stack([g.sample_grand(spec, ell, 8, rep) for rep in range(5)])
    parses = [lz78_parse(s) for s in strings]
    for two_sided in (False, True):
        params = TypicalParams.from_ensemble(spec, 0.3, two_sided=two_sided)
        counts = classify_words(parses, strings, spec, params)
        assert len(counts) == len(parses)
        for parse, s, c in zip(parses, strings, counts):
            assert (c.low_typical, c.other_typical, c.non_typical) == \
                whole_string_counts(parse, s, spec, params)
    _site_energies.cache_clear()


def test_classify_words_validation():
    vals = np.array([1, 0, 1, 1])
    parse = lz78_parse(vals)
    params = TypicalParams.from_ensemble(FERMI, 0.3)
    with pytest.raises(DomainError):
        classify_words([parse], vals[None, :3], FERMI, params)
    with pytest.raises(DomainError):
        classify_words([lz78_parse(np.array([0]))], np.array([[0]]), FERMI, params)
    # One row per parse, of integers.
    with pytest.raises(DomainError):
        classify_words([parse], vals, FERMI, params)
    with pytest.raises(DomainError):
        classify_words([parse, parse], vals[None], FERMI, params)
    with pytest.raises(DomainError):
        classify_words([parse], vals[None] + 0.5, FERMI, params)


def test_classify_words_two_sided_is_stricter():
    rng = np.random.default_rng(9)
    vals = (rng.random(512) < 0.5).astype(np.int64)
    parse = lz78_parse(vals)
    one = TypicalParams.from_ensemble(FERMI, 0.3)
    two = TypicalParams.from_ensemble(FERMI, 0.3, two_sided=True)
    c1, = classify_words([parse], vals[None], FERMI, one)
    c2, = classify_words([parse], vals[None], FERMI, two)
    assert c2.non_typical >= c1.non_typical
    assert class_total(c1) == class_total(c2) == parse.word_count


@pytest.mark.parametrize("stats", [Statistics.FERMI, Statistics.BOSE])
def test_typical_params_refuse_an_all_zero_mean_profile(stats):
    # At beta = 1000 and mu = -1 every mean occupancy underflows to 0, so
    # the per-site allowance eps e(L) / (2 L) has no value.
    frozen = EnsembleSpec(stats, 1000.0, -1.0, CosineLattice())
    with pytest.raises(DomainError, match="frozen"):
        TypicalParams.from_ensemble(frozen, 0.3)
