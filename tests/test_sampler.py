import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslz import sampler
from gibbslz import (
    CanonicalSampler,
    CosineLattice,
    DomainError,
    EnsembleSpec,
    ImpossibleConditionError,
    NumericError,
    Statistics,
    TabulatedGrid,
    build_suffix_dp,
    choose_n,
    conditional_entropy_exact,
    conditional_site_marginals,
    entropy_gap,
    make_rng,
    marginal_tables,
    particle_density,
    sample_grand,
    site_means,
    summary,
)
from gibbslz.checks import check_sampler_tv
from gibbslz.ensemble import eval_dispersion

FERMI = Statistics.FERMI
BOSE = Statistics.BOSE


def fermi_spec(beta=1.0, mu=1.0):
    return EnsembleSpec(FERMI, beta, mu, CosineLattice())

def bose_spec(beta=1.0, mu=-0.5):
    return EnsembleSpec(BOSE, beta, mu, CosineLattice())


def test_choose_n_rounds_half_up():
    assert choose_n(0.5, 7).n == 4
    assert choose_n(0.33, 100).n == 33
    t = choose_n(0.5, 64)
    assert (t.ell, t.r, t.n) == (64, 0.5, 32)


def test_rng_streams_are_keyed_by_replica_and_length():
    a = make_rng(7, 64, 0).random(5)
    b = make_rng(7, 64, 0).random(5)
    c = make_rng(7, 64, 1).random(5)
    d = make_rng(7, 128, 0).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_marginal_pmf_matches_profile():
    spec = fermi_spec()
    ell = 16
    means = site_means(spec, ell)
    tables = marginal_tables(spec, ell)
    for j in (0, 5, 15):
        t = tables[j]
        np.testing.assert_allclose(t.probs, [1 - means[j], means[j]], rtol=1e-14)
    bspec = bose_spec()
    bmeans = site_means(bspec, ell)
    btables = marginal_tables(bspec, ell)
    for j in (0, 7):
        t = btables[j]
        ks = np.arange(t.probs.size)
        assert float(t.probs @ ks) == pytest.approx(bmeans[j], abs=1e-10)


def test_grand_sampling_reproducible_and_in_range():
    spec = fermi_spec()
    s1 = sample_grand(spec, 512, seed=9, replica=3)
    s2 = sample_grand(spec, 512, seed=9, replica=3)
    assert s1.shape == (512,) and s1.dtype == np.uint8
    np.testing.assert_array_equal(s1, s2)
    assert set(np.unique(s1)) <= {0, 1}
    s3 = sample_grand(spec, 512, seed=9, replica=4)
    assert not np.array_equal(s1, s3)


def test_grand_mean_tracks_density():
    # one long string; site-averaged occupancy concentrates on the density
    spec = fermi_spec()
    s = sample_grand(spec, 1 << 15, seed=2)
    assert abs(float(s.mean()) - 0.5) < 0.01
    bspec = bose_spec()
    b = sample_grand(bspec, 1 << 15, seed=2)
    assert b.min() >= 0
    assert abs(float(b.mean()) - 0.5124120313) < 0.02


def test_grand_rejects_int64_overflow_before_the_cast():
    # mu a hair below the band minimum puts the site at y = 0 so close to
    # condensation that its geometric draw exceeds int64.  The suite turns
    # warnings into errors, so a cast warning ahead of the refusal fails here.
    with pytest.raises(DomainError, match="overflows int64"):
        sample_grand(EnsembleSpec(BOSE, 1.0, -1e-300), 16, 0)


def test_grand_refuses_lengths_over_the_cell_budget(monkeypatch):
    # The refusal comes before the first ell-sized array: with the random
    # stream made unreachable, only the budget check can end the call.
    def unreachable(*args):
        raise AssertionError("grand stream opened before the budget check")

    monkeypatch.setattr(sampler, "make_rng", unreachable)
    with pytest.raises(NumericError, match="budget"):
        sample_grand(fermi_spec(), sampler._MAX_CELLS + 1, 0)


def whole_grand_draw(spec, ell, seed, replica):
    """sample_grand's inverse transforms applied to the whole string at once."""
    u = make_rng(seed, ell, replica).random(ell)
    x = spec.beta * eval_dispersion(spec, np.arange(ell) / ell)
    if spec.stats is FERMI:
        with np.errstate(over="ignore"):
            return (u < 1.0 / (1.0 + np.exp(x))).astype(np.int64)
    return np.floor(np.log1p(-u) / -x).astype(np.int64)


@pytest.mark.parametrize("block", [1, 7, 1000, sampler._BLOCK_CELLS])
@pytest.mark.parametrize("spec", [fermi_spec(), bose_spec()], ids=["fermi", "bose"])
def test_grand_strings_do_not_depend_on_the_block_size(monkeypatch, spec, block):
    # Three whole blocks and a ragged fourth.  Each block reads the next
    # uniforms of the replica's stream, so the blocked draw is the
    # whole-string draw bit for bit.
    ell = 3 * block + 5
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
    np.testing.assert_array_equal(sample_grand(spec, ell, 9, 2),
                                  whole_grand_draw(spec, ell, 9, 2))


@pytest.mark.parametrize("block", [1, 7, sampler._BLOCK_CELLS])
def test_grand_strings_widen_past_255(monkeypatch, block):
    # The band minimum sits mid-string and mu a hair below it, so the
    # middle site draws about 10^6 particles while the sites of the first
    # block stay under 256: the uint8 string is widened once the middle
    # block is drawn, and the sites drawn before keep their values.
    spec = EnsembleSpec(BOSE, 1.0, -1e-6, TabulatedGrid((1.0, 0.0, 1.0)))
    ell = 3 * block + 5
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", block)
    want = whole_grand_draw(spec, ell, 9, 2)
    assert want.max() > 255 and want[:min(block, ell // 2)].max() <= 255
    got = sample_grand(spec, ell, 9, 2)
    assert got.dtype == np.min_scalar_type(want.max()) == np.uint32
    np.testing.assert_array_equal(got, want)


def test_canonical_strings_take_the_narrowest_dtype_of_their_supports():
    # Near condensation the Bose supports are cut at n, so a total of 300
    # needs uint16 however few particles most sites hold.
    spec = EnsembleSpec(BOSE, 1.0, -1e-6, TabulatedGrid((1.0, 0.0, 1.0)))
    cs = CanonicalSampler(spec, 8, 300)
    batch = cs.sample_batch(seed=3, replicas=[0, 1])
    assert batch.dtype == np.uint16
    np.testing.assert_array_equal(batch.sum(axis=1), 300)
    assert CanonicalSampler(spec, 8, 200).sample_batch(3, [0]).dtype == np.uint8


def test_sampler_tv_refuses_codes_that_overflow():
    # Bose at beta = 0.001 has n = 5364 at ell = 6, so base-(n+1) atom codes
    # would need more than 63 bits; the battery refuses before building.
    with pytest.raises(NumericError, match="overflow"):
        check_sampler_tv(bose_spec(beta=0.001), seed=0, draws=10)


def test_canonical_hits_target_exactly():
    for spec, n in ((fermi_spec(), 40), (bose_spec(), 70)):
        cs = CanonicalSampler(spec, 128, n)
        assert cs.n == n
        batch = cs.sample_batch(seed=5, replicas=[0, 1, 2])
        assert batch.shape == (3, 128) and batch.dtype == np.uint8
        np.testing.assert_array_equal(batch.sum(axis=1), n)
        if spec.stats is FERMI:
            assert set(np.unique(batch)) <= {0, 1}


def test_canonical_degenerate_targets():
    spec = fermi_spec()
    zeros = CanonicalSampler(spec, 32, 0).sample_batch(1, [0, 1])
    assert zeros.shape == (2, 32) and zeros.dtype == np.uint8
    np.testing.assert_array_equal(zeros, 0)
    ones = CanonicalSampler(spec, 32, 32).sample_batch(1, [0])
    assert ones.shape == (1, 32) and ones.dtype == np.uint8
    np.testing.assert_array_equal(ones, 1)


def test_canonical_rejects_impossible_totals():
    with pytest.raises(ImpossibleConditionError):
        CanonicalSampler(fermi_spec(), 16, 17)
    with pytest.raises(ImpossibleConditionError):
        # truncated Bose supports cannot carry an astronomical total
        CanonicalSampler(bose_spec(), 4, 10_000)


def build_under(monkeypatch, budget, spec, ell, n):
    # The block budget in force at construction bounds the split tables:
    # 0 cells leaves every level untabulated.
    with monkeypatch.context() as m:
        m.setattr(sampler, "_BLOCK_CELLS", budget)
        return CanonicalSampler(spec, ell, n)


def test_draws_identical_across_replica_chunks(monkeypatch):
    # Replicas, and the merges of an untabulated level, are drawn in blocks
    # sized by a cell budget; a string must not depend on the block it lands
    # in, nor on the rest of its batch.  The budget a sampler is built under
    # also bounds its split tables: 0 cells leaves every level untabulated,
    # 2^30 tabulates every level.  sample_batch and sample_from_uniforms
    # share the block loop and agree bit for bit.
    reps = [0, 1, 2, 3, 4]
    u = np.stack([make_rng(9, 300, r).random(300) for r in reps])
    block_cells = sampler._BLOCK_CELLS
    for spec in (bose_spec(), fermi_spec()):
        built = {}
        for budget in (0, 1 << 30):
            cs = built[budget] = build_under(monkeypatch, budget, spec, 300, 150)
            monkeypatch.setattr(sampler, "_BLOCK_CELLS", block_cells)
            # One block holds the whole batch and every merge of a level.
            widest = max((lv.off.size // 2) * lv.width for lv in cs._levels[:-1])
            assert sampler._BLOCK_CELLS // widest >= len(reps)
            whole = cs.sample_batch(seed=9, replicas=reps)
            if budget:
                assert sorted(cs._tables) == list(range(1, len(cs._levels)))
            else:
                assert not cs._tables
            np.testing.assert_array_equal(cs.sample_from_uniforms(u), whole)
            # One replica, and one merge of an untabulated level, per block.
            monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1)
            chunked = cs.sample_batch(seed=9, replicas=reps)
            mixed = cs.sample_batch(seed=9, replicas=[4, 1])
            np.testing.assert_array_equal(whole, chunked)
            np.testing.assert_array_equal(mixed, whole[[4, 1]])
            np.testing.assert_array_equal(cs.sample_from_uniforms(u), whole)
        # Nor may the build depend on its blocks: one sampler merged one pair
        # at a time, the other all pairs of a level in one batch.
        one, cs = built[0], built[1 << 30]
        assert len(one._levels) == len(cs._levels)
        for mine, theirs in zip(one._levels, cs._levels):
            np.testing.assert_array_equal(mine.law, theirs.law)
        assert one.conditional_entropy() == cs.conditional_entropy()
        np.testing.assert_array_equal(one.sample_batch(seed=9, replicas=reps), whole)
        # The window cuts are summed directly, so only the order of the sum
        # depends on the blocks.
        assert one.truncation_tail == pytest.approx(cs.truncation_tail, rel=1e-12,
                                                    abs=0.0)


@pytest.mark.parametrize("spec, ell, n", [
    (fermi_spec(), 1 << 14, choose_n(0.5, 1 << 14).n),
    (bose_spec(), 1 << 12, choose_n(particle_density(bose_spec()), 1 << 12).n),
], ids=["fermi", "bose"])
def test_draw_working_set_stays_within_blocks(spec, ell, n):
    # Beyond its output, a draw allocates a few blocks of transient arrays,
    # however long the strings and wide the windows, and leaves the tables
    # the build made as they were.
    cs = CanonicalSampler(spec, ell, n)
    tables = {h: t.copy() for h, t in cs._tables.items()}
    tracemalloc.start()
    try:
        out = cs.sample_batch(seed=5, replicas=range(20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs._tables.keys() == tables.keys()
    for h, t in tables.items():
        np.testing.assert_array_equal(cs._tables[h], t)
    assert peak <= out.nbytes + 12 * 8 * sampler._BLOCK_CELLS


@pytest.mark.parametrize("spec, ell, n", [
    (fermi_spec(), 300, 150),
    (bose_spec(), 64, choose_n(particle_density(bose_spec()), 64).n),
], ids=["fermi", "bose"])
def test_draws_leave_the_sampler_unchanged(spec, ell, n):
    # Everything a draw reads is built with the tree, so drawing changes no
    # byte of the sampler, and a pickled copy (what a pool worker gets)
    # draws the same strings.
    cs = CanonicalSampler(spec, ell, n)
    before = pickle.dumps(cs)
    drawn = cs.sample_batch(seed=4, replicas=range(3))
    u = np.random.default_rng(5).random((400, ell))
    from_u = cs.sample_from_uniforms(u)
    assert pickle.dumps(cs) == before
    clone = pickle.loads(before)
    np.testing.assert_array_equal(clone.sample_batch(seed=4, replicas=range(3)), drawn)
    np.testing.assert_array_equal(clone.sample_from_uniforms(u), from_u)


def canonical_draws(spec, ell, n):
    return lambda: CanonicalSampler(spec, ell, n).sample_batch(seed=11, replicas=range(8))


def grand_draws(spec, ell):
    return lambda: np.stack([sample_grand(spec, ell, 11, r) for r in range(8)])


@pytest.mark.parametrize("draw, digest", [
    (canonical_draws(fermi_spec(), 1024, choose_n(0.5, 1024).n),
     "4583e899c92a8e8dc07aa2cecfcdbb4e86ec79b94385c5b49ad86eeef4a05d5d"),
    (canonical_draws(bose_spec(), 512, choose_n(particle_density(bose_spec()), 512).n),
     "e50e1d725728c89842bae537eb3bf19d16545b04a804fe5c3c73ad05f1e94974"),
    (grand_draws(fermi_spec(), 1024),
     "6af0a334f9156920272db4cf0947f46207e4dc2b8f0a48165d6c48ad2e436a23"),
    (grand_draws(bose_spec(), 512),
     "45220abd522e708beff5f68cbc401d4d674b220b7d95e6d313cb3e8c226a573f"),
], ids=["fermi", "bose", "grand-fermi", "grand-bose"])
def test_golden_draws(draw, digest):
    # Pinned bytes of a small batch of 8 replicas at seed 11: a change to the
    # canonical law, the tree, the grand site energies or the random streams
    # that moves any string must update these hashes.
    raw = np.ascontiguousarray(draw(), dtype="<i8").tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest


def assert_tables_hold_every_cell(cs):
    # One array per tabulated level holds its CDF columns, totals and caps,
    # so t.size counts every stored cell.
    for h, t in cs._tables.items():
        parent, child = cs._levels[h], cs._levels[h - 1]
        assert t.shape == (child.width + 1, parent.width * (child.off.size // 2))
        np.testing.assert_array_equal(t[-1], np.nextafter(t[-2], 0.0))


@pytest.mark.parametrize("spec, ell, n", [
    (fermi_spec(), 6, 4),
    (bose_spec(), 6, 5),
    (fermi_spec(), 37, 20),  # odd ell: a last node carried up unmerged
    (bose_spec(), 37, 30),
    (fermi_spec(), 12, 0),  # degenerate targets
    (fermi_spec(), 12, 12),
    # na-empirical's shape: every level is 34 wide.
    (bose_spec(), 64, choose_n(particle_density(bose_spec()), 64).n),
])
def test_tabulated_draws_equal_untabulated(monkeypatch, spec, ell, n):
    # Trees this small are tabulated whole within the default budget.
    u = np.random.default_rng(7).random((400, ell))
    plain = build_under(monkeypatch, 0, spec, ell, n)
    expect = plain.sample_from_uniforms(u)
    assert not plain._tables
    cs = CanonicalSampler(spec, ell, n)
    np.testing.assert_array_equal(cs.sample_from_uniforms(u), expect)
    assert sorted(cs._tables) == list(range(1, len(cs._levels)))
    assert_tables_hold_every_cell(cs)
    assert sum(t.size for t in cs._tables.values()) <= sampler._BLOCK_CELLS
    # Later calls reuse the tables, however few strings they draw.
    np.testing.assert_array_equal(cs.sample_from_uniforms(u[:3]), expect[:3])


def test_split_tables_stay_within_the_table_budget(monkeypatch):
    # All levels of this tree would need about 2.9M table cells; only the
    # levels that fit the budget together are tabulated.
    spec = bose_spec()
    u = np.random.default_rng(3).random((12, 301))
    cs = CanonicalSampler(spec, 301, 150)
    first = cs.sample_from_uniforms(u)
    again = cs.sample_from_uniforms(u)
    assert_tables_hold_every_cell(cs)
    held = sum(t.size for t in cs._tables.values())
    assert 0 < held <= sampler._BLOCK_CELLS
    assert len(cs._tables) < len(cs._levels) - 1
    untabulated = build_under(monkeypatch, 0, spec, 301, 150)
    assert not untabulated._tables
    plain = untabulated.sample_from_uniforms(u)
    np.testing.assert_array_equal(first, plain)
    np.testing.assert_array_equal(again, plain)


def test_tabulated_draw_refuses_a_total_outside_its_window(monkeypatch):
    # A parent total outside its window must raise, never be clipped into it.
    cs = CanonicalSampler(fermi_spec(), 6, 4)
    assert len(cs._levels) - 1 in cs._tables
    monkeypatch.setattr(cs, "n", cs.n + cs._levels[-1].width)
    with pytest.raises(NumericError, match="outside its window"):
        cs._draw(np.full((2, 6), 0.5))


def test_saddle_tilt_holds_one_leaf_matrix():
    # Each Newton step rebuilds the (ell, K) tilted-law matrix; the old one
    # must be gone before the new one is made.
    spec = bose_spec()
    ell = 1 << 12
    n = choose_n(particle_density(spec), ell).n
    a, top, _ = sampler._site_laws(spec, ell, 1e-12)
    top = np.minimum(top, n).astype(np.int64)
    tracemalloc.start()
    try:
        _, laws, _, _ = sampler._saddle_tilt(a, top, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * laws.nbytes


def test_draws_independent_of_batch_composition():
    spec = fermi_spec()
    cs = CanonicalSampler(spec, 200, 100)
    batch = cs.sample_batch(seed=13, replicas=[0, 1, 2, 3])
    solo = cs.sample_batch(seed=13, replicas=[2])[0]
    np.testing.assert_array_equal(batch[2], solo)
    # a freshly built sampler gives the same string
    rebuilt = CanonicalSampler(spec, 200, 100).sample_batch(seed=13, replicas=[2])[0]
    np.testing.assert_array_equal(rebuilt, solo)


def test_two_site_conditional_law():
    # site occupancy probabilities 1/3 and 2/3; conditioned on one particle
    # the first site carries it with probability exactly 1/5
    disp = TabulatedGrid((math.log(2.0), -math.log(2.0), 0.0))
    spec = EnsembleSpec(FERMI, 1.0, 0.0, disp)
    p = site_means(spec, 2)
    np.testing.assert_allclose(p, [1 / 3, 2 / 3], rtol=1e-14)
    cs = CanonicalSampler(spec, 2, 1)
    u = np.random.default_rng(17).random((20_000, cs.ell))
    vals = cs.sample_from_uniforms(u)
    freq_first = float((vals[:, 0] == 1).mean())
    se = math.sqrt(0.2 * 0.8 / 20_000)
    assert abs(freq_first - 0.2) < 4 * se


def test_forced_configuration_with_float_degenerate_sites():
    # one site pinned full, one pinned empty: the conditional is a point mass
    disp = TabulatedGrid((-800.0, 800.0, 0.0))
    spec = EnsembleSpec(FERMI, 1.0, 0.0, disp)
    cs = CanonicalSampler(spec, 2, 1)
    u = np.random.default_rng(3).random((50, cs.ell))
    vals = cs.sample_from_uniforms(u)
    assert np.all(vals[:, 0] == 1)
    assert np.all(vals[:, 1] == 0)


def node_sites(ell):
    """(first site, site count) of every node, level by level, for the tree
    shape the sampler builds: adjacent nodes pair up and an odd last node
    moves up unmerged."""
    start, size = np.arange(ell), np.ones(ell, dtype=int)
    levels = [(start, size)]
    while start.size > 1:
        pairs = start.size // 2
        nstart = start[0:2 * pairs:2]
        nsize = size[0:2 * pairs:2] + size[1:2 * pairs:2]
        if start.size % 2:
            nstart, nsize = np.append(nstart, start[-1]), np.append(nsize, size[-1])
        start, size = nstart, nsize
        levels.append((start, size))
    return levels


def tree_split_law(cs, h, p, t):
    """The sampler's law of the left-child total at merge p of level h given
    the node total t, as a vector over s = 0, 1, ..."""
    pairs = cs._levels[h - 1].off.size // 2
    totals = np.zeros((1, pairs), dtype=np.int64)
    totals[0, p] = t
    w = cs._split_weights(h, totals)[0, p]
    assert w.sum() > 0.0
    off = int(cs._levels[h - 1].off[2 * p])
    full = np.zeros(off + w.size)
    full[off:] = w / w.sum()
    return full


def test_node_splits_match_exact_dp():
    """Node laws are FFT convolutions of tilted laws cut to windows around
    the tilted means.  With n far below the mean of the untilted sum, the
    split laws they give must still agree with the log-domain suffix DP to
    float precision at every total a draw can plausibly reach."""
    spec = fermi_spec()
    ell, n = 8192, 1500
    cs = CanonicalSampler(spec, ell, n)
    assert cs.tilt < -1.0  # deep in the tail of the untilted sum
    sites = node_sites(ell)
    # the windowed regime this test is about: near the root, windows are
    # far narrower than the nodes' supports
    assert 2 * cs._levels[-2].width < min(n, sites[-2][1].min())
    tables = marginal_tables(spec, ell)
    p1 = site_means(spec, ell)
    tilted = p1 * math.exp(cs.tilt) / (1.0 - p1 + p1 * math.exp(cs.tilt))
    top = len(cs._levels) - 1
    for h in (1, 5, 9, top - 1, top):
        start, size = sites[h - 1]
        pairs = start.size // 2
        for p in sorted({0, pairs // 2, pairs - 1}):
            a, m = start[2 * p], start[2 * p + 1]
            b = m + size[2 * p + 1]
            center = float(tilted[a:b].sum())
            sig = math.sqrt(float((tilted * (1.0 - tilted))[a:b].sum()))
            lo_t = max(0, int(center - 3 * sig))
            hi_t = min(n, b - a, int(center + 3 * sig) + 1)
            left = build_suffix_dp(tables[a:m], min(hi_t, m - a)).logT[0]
            right = build_suffix_dp(tables[m:b], min(hi_t, b - m)).logT[0]
            for t in range(lo_t, hi_t + 1):
                s = np.arange(t + 1)
                ok = (s < left.size) & (t - s < right.size)
                exact = np.full(t + 1, -np.inf)
                exact[ok] = left[s[ok]] + right[t - s[ok]]
                exact = np.exp(exact - exact.max())
                exact /= exact.sum()
                got = tree_split_law(cs, h, p, t)
                assert not got[t + 1:].any()
                got = np.pad(got[:t + 1], (0, max(0, t + 1 - got.size)))
                np.testing.assert_allclose(got, exact, atol=1e-12)
    # The entropy carried up the tree holds in this regime too.
    exact_bits = conditional_entropy_exact(build_suffix_dp(tables, n))
    assert cs.conditional_entropy() == pytest.approx(exact_bits, rel=1e-12)


def bounded_configs(tops, n):
    """Every occupancy vector with entries in [0, top_j] summing to n."""
    if not tops:
        if n == 0:
            yield ()
        return
    for k in range(min(tops[0], n) + 1):
        for rest in bounded_configs(tops[1:], n - k):
            yield (k,) + rest


@settings(max_examples=100, deadline=None)
@given(bose=st.booleans(), beta=st.floats(0.2, 5.0), mu=st.floats(-3.0, 3.0),
       ell=st.integers(1, 8), data=st.data())
def test_tree_draws_and_splits_match_enumeration(bose, beta, mu, ell, data):
    if bose:
        spec = EnsembleSpec(BOSE, beta, min(mu, -0.05), CosineLattice())
        n = data.draw(st.integers(0, 8), label="n")
    else:
        spec = EnsembleSpec(FERMI, beta, mu, CosineLattice())
        n = data.draw(st.integers(0, ell), label="n")
    tables = marginal_tables(spec, ell)
    tops = [t.support_max for t in tables]
    if sum(tops) < n:
        with pytest.raises(ImpossibleConditionError):
            CanonicalSampler(spec, ell, n)
        return
    cs = CanonicalSampler(spec, ell, n)
    u = np.random.default_rng(ell * 100 + n).random((200, cs.ell))
    vals = cs.sample_from_uniforms(u)
    assert np.all(vals.sum(axis=1) == n)
    assert np.all(vals <= np.array(tops))

    configs = np.array(list(bounded_configs(tops, n))).reshape(-1, ell)
    weights = np.ones(len(configs))
    for j, t in enumerate(tables):
        weights *= t.probs[configs[:, j]]
    weights /= weights.sum()
    bits = -float(weights @ np.log2(weights, where=weights > 0.0,
                                     out=np.zeros_like(weights)))
    assert abs(cs.conditional_entropy() - bits) <= 1e-9
    sites = node_sites(ell)
    for h in range(1, len(cs._levels)):
        start, size = sites[h - 1]
        for p in range(start.size // 2):
            a, m = start[2 * p], start[2 * p + 1]
            b = m + size[2 * p + 1]
            node = configs[:, a:b].sum(axis=1)
            left = configs[:, a:m].sum(axis=1)
            for t in np.unique(node):
                at = node == t
                if weights[at].sum() < 1e-6:
                    continue
                exact = np.bincount(left[at], weights=weights[at], minlength=t + 1)
                exact /= exact.sum()
                got = tree_split_law(cs, h, p, int(t))
                assert got[t + 1:].sum() < 1e-9
                got = np.pad(got[:t + 1], (0, max(0, t + 1 - got.size)))
                np.testing.assert_allclose(got, exact, atol=1e-9)


@pytest.mark.parametrize("spec", [fermi_spec(), bose_spec()], ids=["fermi", "bose"])
@pytest.mark.parametrize("ell", [7, 64, 256, 1024])
def test_tree_entropy_and_means_match_exact_dp(spec, ell):
    """The cost moments carried up the tree give the conditional entropy
    the log-domain suffix DP gives, and the gap that entropy_gap gives."""
    n = ell // 2
    cs = CanonicalSampler(spec, ell, n)
    tables = marginal_tables(spec, ell)
    dp = build_suffix_dp(tables, n)
    assert abs(cs.conditional_entropy() - conditional_entropy_exact(dp)) <= 1e-10
    assert abs(cs.entropy_gap() - entropy_gap(tables, n)) <= 1e-10


@pytest.mark.parametrize("spec, ell, n", [(fermi_spec(), 32, 0), (bose_spec(), 32, 0),
                                          (fermi_spec(), 32, 32)],
                         ids=["fermi-empty", "bose-empty", "fermi-full"])
def test_degenerate_targets_cost_the_free_entropy(spec, ell, n):
    # The string is fixed, so conditioning removes all of its entropy.
    cs = CanonicalSampler(spec, ell, n)
    free = sum(summary(t).entropy_bits for t in marginal_tables(spec, ell))
    assert cs.conditional_entropy() == 0.0
    assert cs.entropy_gap() == pytest.approx(-free, rel=1e-14, abs=1e-14)


def test_bulk_draws_shape_and_sum():
    spec = bose_spec()
    cs = CanonicalSampler(spec, 64, 33)
    u = np.random.default_rng(1).random((500, cs.ell))
    vals = cs.sample_from_uniforms(u)
    assert vals.shape == (500, 64)
    assert np.all(vals.sum(axis=1) == 33)


def test_site_marginals_against_dp(scale=12_000):
    spec = fermi_spec()
    ell, n = 64, 32
    cs = CanonicalSampler(spec, ell, n)
    u = np.random.default_rng(23).random((scale, cs.ell))
    vals = cs.sample_from_uniforms(u)
    emp = vals.mean(axis=0)
    exact = [t.probs[1] if t.probs.size > 1 else 0.0
             for t in conditional_site_marginals(
                 build_suffix_dp(marginal_tables(spec, ell), n))]
    exact = np.array(exact)
    se = np.sqrt(exact * (1 - exact) / scale)
    assert np.max(np.abs(emp - exact) / se) < 5.0


def test_uniform_matrix_shape_validation():
    cs = CanonicalSampler(fermi_spec(), 8, 4)
    with pytest.raises(DomainError):
        cs.sample_from_uniforms(np.zeros((3, 7)))


def test_truncation_tail_recorded():
    spec = bose_spec()
    tables = marginal_tables(spec, 32, tail_tol=1e-12)
    total = sum(t.truncation_tail for t in tables)
    assert 0.0 < total < 32 * 1e-12
    cs = CanonicalSampler(spec, 32, 16)
    assert cs.truncation_tail == pytest.approx(total, rel=1e-12)


def test_wrong_totals_raise_numeric_error(monkeypatch):
    # The total check must survive python -O, so it cannot be an assert.
    cs = CanonicalSampler(fermi_spec(), 16, 8)
    monkeypatch.setattr(cs, "_draw",
                        lambda u: np.zeros((u.shape[0], 16), dtype=np.int64))
    with pytest.raises(NumericError):
        cs.sample_batch(seed=1, replicas=[0])
    with pytest.raises(NumericError):
        cs.sample_from_uniforms(np.random.default_rng(0).random((3, 16)))


def test_negative_occupancies_raise_numeric_error(monkeypatch):
    # A string with the right total but a negative entry is refused too.
    cs = CanonicalSampler(fermi_spec(), 16, 8)
    bad = np.zeros(16, dtype=np.int64)
    bad[:2] = (-1, 9)
    monkeypatch.setattr(cs, "_draw", lambda u: np.tile(bad, (u.shape[0], 1)))
    with pytest.raises(NumericError):
        cs.sample_batch(seed=1, replicas=[0, 1])


def test_occupancies_past_the_widest_support_raise_numeric_error(monkeypatch):
    # A string with the right total but a site above every support could
    # not be stored in the sampler's narrow dtype; it is refused too.
    cs = CanonicalSampler(fermi_spec(), 16, 8)
    bad = np.zeros(16, dtype=np.int64)
    bad[0] = 8
    monkeypatch.setattr(cs, "_draw", lambda u: np.tile(bad, (u.shape[0], 1)))
    with pytest.raises(NumericError):
        cs.sample_batch(seed=1, replicas=[0])


def test_cell_budget_checked_before_site_laws(monkeypatch):
    # The leaves alone need 2 ell cells, so an oversized ell is refused
    # before the site laws are allocated.
    def unreachable(*args):
        raise AssertionError("site laws built before the budget check")

    monkeypatch.setattr(sampler, "_MAX_CELLS", 64)
    monkeypatch.setattr(sampler, "_site_laws", unreachable)
    with pytest.raises(NumericError, match="budget"):
        CanonicalSampler(fermi_spec(), 128, 64)


def test_marginal_tables_keep_each_site_support_near_condensation():
    # Bose mu = -1e-4 at ell = 256: site 0's law runs to about 276k entries
    # while most sites need a few dozen, so a dense ell x max(top) matrix
    # would hold about 70M cells.  Each table keeps only its own support,
    # and the closed-form free entropy agrees with the tables' entropies.
    spec = bose_spec(mu=-1e-4)
    ell = 256
    tables = marginal_tables(spec, ell)
    a, top, tail = sampler._site_laws(spec, ell, 1e-12)
    sizes = [t.logp.size for t in tables]
    assert sizes == (top + 1).astype(int).tolist()
    assert sum(sizes) < ell * max(sizes) // 50
    assert [t.truncation_tail for t in tables] == tail.tolist()
    free = sum(summary(t).entropy_bits for t in tables)
    assert sampler._free_entropy(spec.stats, a, top, tail) == pytest.approx(free, rel=1e-12)


def test_marginal_tables_refuse_supports_over_the_cell_budget():
    # At mu = -1e-9 site 0's Bose support would run to 2.8e10 entries.
    with pytest.raises(NumericError, match="cells"):
        marginal_tables(bose_spec(mu=-1e-9), 16)
