"""End-to-end acceptance checks at fixed scales and tolerances.

Each test states one acceptance property of the package: closed-form
anchors, oracle agreement, sampler fidelity, the shrinking conditioning
cost, the word-count rate trend, the property batteries, word-class
scaling, byte determinism, canonical word counts as grand ones conditioned
on the total, and the exact mean word count at small ell.  Two bounds are
stated as required but are not met by LZ78 word counts at these string
lengths (the rate sits roughly half above the entropy rate at ell = 2^16,
and non-typical words make up roughly 12% of the dictionary at
ell = 2^14); those tests are expected to fail and say so in their
assertion messages.
"""

import csv
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import gibbslz as g
from gibbslz import expcli
from gibbslz.checks import BatteryScale, run_batteries
from oracles import (
    bernoulli,
    conditional_site_marginals,
    entropy_gap,
    from_probs,
    kappa_iid,
)

FERMI = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
BOSE = g.EnsembleSpec(g.Statistics.BOSE, 1.0, -0.5, g.CosineLattice())

LADDER = (1 << 10, 1 << 12, 1 << 14, 1 << 16)
REPLICAS = 20
EPSILON = 0.3
SEED = 6


def test_accept_1_closed_form_anchors():
    t0 = time.perf_counter()
    mu = g.solve_mu(g.Statistics.FERMI, g.CosineLattice(), 1.0, 0.5)
    assert abs(mu - 1.0) <= 1e-8
    dens = g.particle_density(FERMI)
    assert abs(dens - 0.5) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_accept_2_quadrature_matches_riemann():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pts = 1_000_000
    ys = (np.arange(pts) + 0.5) / pts
    for _ in range(10):
        beta = rng.uniform(0.5, 3.0)
        if rng.random() < 0.5:
            spec = g.EnsembleSpec(g.Statistics.FERMI, beta,
                                  rng.uniform(-1.0, 2.0), g.CosineLattice())
        else:
            spec = g.EnsembleSpec(g.Statistics.BOSE, beta,
                                  rng.uniform(-2.5, -0.05), g.CosineLattice())
        dens_sum = float(np.mean(np.asarray(g.marginal_mean(spec, ys))))
        ent_sum = float(np.mean(np.asarray(g.marginal_entropy(spec, ys))))
        assert abs(g.particle_density(spec) - dens_sum) <= 1e-7
        assert abs(g.entropy_rate(spec) - ent_sum) <= 1e-7
    assert time.perf_counter() - t0 < 10.0


def test_accept_3_sampler_fidelity():
    t0 = time.perf_counter()
    ell, n = 6, 3
    cs = g.CanonicalSampler(FERMI, ell, n)
    u = g.make_rng(31, ell, 0).random((1_000_000, cs.ell))
    draws = cs.sample_from_uniforms(u)
    codes = draws @ (1 << np.arange(ell))
    counts = np.bincount(codes, minlength=1 << ell)

    p1 = np.array([t.probs[1] for t in g.marginal_tables(FERMI, ell)])
    law = np.zeros(1 << ell)
    for bits in itertools.product((0, 1), repeat=ell):
        if sum(bits) != n:
            continue
        code = sum(b << i for i, b in enumerate(bits))
        law[code] = math.prod(p1[i] if b else 1.0 - p1[i]
                              for i, b in enumerate(bits))
    law /= law.sum()
    tv = 0.5 * float(np.abs(counts / counts.sum() - law).sum())
    assert tv < 5e-3, f"TV distance {tv:.4g} at one million draws"

    ell = 64
    n = g.choose_n(0.5, ell).n
    cs = g.CanonicalSampler(FERMI, ell, n)
    m = 20_000
    u = g.make_rng(32, ell, 0).random((m, cs.ell))
    emp = cs.sample_from_uniforms(u).mean(axis=0)
    dp = g.build_suffix_dp(g.marginal_tables(FERMI, ell), n)
    for i, table in enumerate(conditional_site_marginals(dp)):
        ks = np.arange(table.probs.size)
        mean = float(ks @ table.probs)
        var = float(ks ** 2 @ table.probs) - mean ** 2
        se = math.sqrt(max(var, 1e-12) / m)
        assert abs(emp[i] - mean) <= 4.0 * se, \
            f"site {i}: empirical {emp[i]:.5f} vs exact {mean:.5f} (se {se:.2g})"
    assert time.perf_counter() - t0 < 120.0


def test_accept_4_conditional_entropy_oracle():
    t0 = time.perf_counter()
    tables = [bernoulli(0.5) for _ in range(4)]
    dp = g.build_suffix_dp(tables, 2)
    assert abs(g.conditional_entropy_exact(dp) - math.log2(6)) <= 1e-10

    rng = np.random.default_rng(404)
    for _ in range(50):
        sites = int(rng.integers(2, 7))
        sizes = [int(rng.integers(2, 5)) for _ in range(sites)]
        while math.prod(sizes) > 4096:
            sizes[int(rng.integers(0, sites))] = 2
        tables = [from_probs(rng.dirichlet(np.ones(size)))
                  for size in sizes]
        draw = [int(rng.integers(0, size)) for size in sizes]
        n = sum(draw)
        dp = g.build_suffix_dp(tables, n)

        total_states = 0
        entropy_terms = []
        norm = 0.0
        for config in itertools.product(*[range(size) for size in sizes]):
            total_states += 1
            if sum(config) != n:
                continue
            p = math.prod(t.probs[k] for t, k in zip(tables, config))
            entropy_terms.append(p)
            norm += p
        assert total_states <= 4096
        brute = -sum((p / norm) * math.log2(p / norm)
                     for p in entropy_terms if p > 0.0)
        assert abs(g.conditional_entropy_exact(dp) - brute) <= 1e-10
    assert time.perf_counter() - t0 < 60.0


def test_accept_5_conditioning_gap_shrinks():
    t0 = time.perf_counter()
    per_site = []
    for ell in [16, 32, 64, 128, 256, 1024]:
        delta = math.log2(math.comb(ell, ell // 2)) - ell
        per_site.append(abs(delta) / ell)
        tables = [bernoulli(0.5) for _ in range(ell)]
        assert abs(entropy_gap(tables, ell // 2) - delta) <= 1e-9
    assert all(a > b for a, b in zip(per_site, per_site[1:])), per_site
    assert per_site[-1] < 0.01

    fermi_gaps = []
    for ell in [16, 32, 64, 128, 256]:
        n = g.choose_n(0.5, ell).n
        gap = entropy_gap(g.marginal_tables(FERMI, ell), n)
        fermi_gaps.append(abs(gap) / ell)
    assert all(a > b for a, b in zip(fermi_gaps, fermi_gaps[1:])), fermi_gaps
    assert time.perf_counter() - t0 < 120.0


@pytest.fixture(scope="module")
def ladder():
    """Canonical rate ladder for both ensembles, plus grand draws at the top
    rung; shared by the rate-trend and word-class tests."""
    t0 = time.perf_counter()
    out = {}
    for label, spec, r in [("fermi", FERMI, 0.5), ("bose", BOSE, None)]:
        r_eff = g.particle_density(spec) if r is None else r
        h = g.entropy_rate(spec)
        params = g.TypicalParams.from_ensemble(spec, EPSILON)
        rungs = []
        for ell in LADDER:
            n = g.choose_n(r_eff, ell).n
            cs = g.CanonicalSampler(spec, ell, n)
            rates, lows, others, nons, words = [], [], [], [], []
            block = cs.sample_batch(SEED, range(REPLICAS))
            parses = [g.lz78_parse(s) for s in block]
            classes = g.classify_words(parses, block, spec, params)
            for parse, counts in zip(parses, classes):
                rates.append(g.lz_rate(parse))
                words.append(parse.word_count)
                lows.append(counts.low_typical)
                others.append(counts.other_typical)
                nons.append(counts.non_typical)
            rates = np.array(rates)
            rungs.append({
                "ell": ell,
                "mean_rate": float(rates.mean()),
                "se_rate": float(rates.std(ddof=1) / math.sqrt(rates.size)),
                "mean_low": float(np.mean(lows)),
                "non_typical": int(np.sum(nons)),
                "words": int(np.sum(words)),
            })
        top = LADDER[-1]
        grand = np.array([
            g.lz_rate(g.lz78_parse(g.sample_grand(spec, top, SEED, rep)))
            for rep in range(REPLICAS)
        ])
        out[label] = {
            "h": h,
            "rungs": rungs,
            "grand_mean": float(grand.mean()),
            "grand_se": float(grand.std(ddof=1) / math.sqrt(grand.size)),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_accept_6a_fermi_rate_trend(ladder):
    data = ladder["fermi"]
    means = [r["mean_rate"] for r in data["rungs"]]
    assert all(a > b for a, b in zip(means, means[1:])), means
    assert means[-1] > data["h"]
    assert ladder["elapsed"] < 600.0


def test_accept_6a_fermi_rate_within_20pct(ladder):
    data = ladder["fermi"]
    rel = (data["rungs"][-1]["mean_rate"] - data["h"]) / data["h"]
    assert abs(rel) <= 0.20, (
        f"mean lz_rate {data['rungs'][-1]['mean_rate']:.4f} sits "
        f"{rel:+.1%} from the entropy rate {data['h']:.4f} at ell=65536; "
        f"the pointer-code overhead decays like 1/log2(ell) and has not "
        f"reached 20% at this length"
    )


def test_accept_6b_canonical_vs_grand(ladder):
    data = ladder["fermi"]
    canon = data["rungs"][-1]
    diff = canon["mean_rate"] - data["grand_mean"]
    assert abs(diff) / data["grand_mean"] <= 0.03
    pooled = math.hypot(canon["se_rate"], data["grand_se"])
    assert abs(diff) <= 3.0 * pooled, (canon, data["grand_mean"], pooled)


def test_accept_6a_bose_rate_trend(ladder):
    data = ladder["bose"]
    means = [r["mean_rate"] for r in data["rungs"]]
    assert all(a > b for a, b in zip(means, means[1:])), means
    assert means[-1] > data["h"]


def test_accept_6a_bose_rate_within_20pct(ladder):
    data = ladder["bose"]
    rel = (data["rungs"][-1]["mean_rate"] - data["h"]) / data["h"]
    assert abs(rel) <= 0.20, (
        f"mean lz_rate {data['rungs'][-1]['mean_rate']:.4f} sits "
        f"{rel:+.1%} from the entropy rate {data['h']:.4f} at ell=65536; "
        f"the pointer-code overhead decays like 1/log2(ell) and has not "
        f"reached 20% at this length"
    )


def test_accept_7_property_batteries():
    t0 = time.perf_counter()
    for spec in (FERMI, BOSE):
        results = run_batteries(spec, seed=0, scale=BatteryScale.full())
        failed = [(r.name, r.detail) for r in results if not r.passed]
        assert not failed, failed
    assert time.perf_counter() - t0 < 600.0


def test_accept_8a_low_typical_growth(ladder):
    data = ladder["fermi"]
    xs = np.log2([r["ell"] for r in data["rungs"]])
    ys = np.log2([r["mean_low"] for r in data["rungs"]])
    slope = float(np.polyfit(xs, ys, 1)[0])
    budget = 1.0 - EPSILON ** 2 + 0.05
    assert slope < budget, f"fitted exponent {slope:.3f} vs budget {budget:.3f}"
    assert ladder["elapsed"] < 300.0


def test_accept_8b_non_typical_fraction(ladder):
    rung = next(r for r in ladder["fermi"]["rungs"] if r["ell"] == 1 << 14)
    frac = rung["non_typical"] / rung["words"]
    assert frac < 0.05, (
        f"non-typical words are {frac:.1%} of the dictionary at ell=16384; "
        f"word windows this short fluctuate above the per-site allowance "
        f"far more often than the asymptotic bound suggests"
    )


def test_accept_9_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(
        "ensemble.stats = fermi\n"
        "ensemble.beta = 1.0\n"
        "ensemble.r = 0.5\n"
        "run.lengths = 256,1024\n"
        "run.replicas = 8\n"
        "run.seed = 3\n"
        "run.kind = canonical\n"
        "output.format = csv\n"
    )
    outs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "gibbslz", "converge",
             "--config", str(cfg), "--out", str(out), "--workers", workers],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("results.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert time.perf_counter() - t0 < 300.0


def read_csv(path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def regression_z_and_ratio(S, C, n, other):
    """Compare word counts `other` with the grand (S, C) pairs conditioned
    on S = n, to first order: (z of other's mean against the least-squares
    line's value at n, with the two SEs combined; other's variance over the
    line's residual variance)."""
    m = S.size
    b, a = np.polyfit(S, C, 1)
    resid = C - (a + b * S)
    s2 = float(resid @ resid) / (m - 2)
    se_line = math.sqrt(s2 * (1.0 / m + (n - S.mean()) ** 2 / ((S - S.mean()) ** 2).sum()))
    se_other = math.sqrt(other.var(ddof=1) / other.size)
    return (other.mean() - (a + b * n)) / math.hypot(se_line, se_other), other.var(ddof=1) / s2


# Two-sided 99.9% band of F(127, 126): a variance ratio of 128 against 128
# replicas, the second set's variance taken about a fitted line.  (Hardcoded:
# scipy is not a dependency.)
F_BAND_127_126 = (0.554, 1.805)


@pytest.mark.parametrize("stats, mu, r", [("bose", -0.5, None), ("fermi", None, 0.3)],
                         ids=["bose", "fermi"])
def test_canonical_word_counts_are_grand_ones_conditioned_on_the_total(stats, mu, r):
    # The canonical law is the grand law conditioned on S = n, so canonical
    # word counts match the grand regression of C on S at S = n: its value
    # gives their mean and its residual variance their variance.  Fermi
    # takes r = 0.3, away from the particle-hole symmetric mu = 1 where C
    # hardly varies with S.  Negative control: further grand strings, whose
    # C still varies with S, land far outside the variance band (their mean
    # passes, so only the band tells).
    if mu is None:
        mu = g.solve_mu(g.Statistics(stats), g.CosineLattice(), 1.0, r)
    spec = g.EnsembleSpec(g.Statistics(stats), 1.0, mu, g.CosineLattice())
    ell, m, seed = 1 << 12, 128, 21
    n = g.choose_n(g.particle_density(spec), ell).n
    grand = [g.sample_grand(spec, ell, seed, i) for i in range(2 * m)]
    S = np.array([s.sum() for s in grand[:m]], dtype=float)

    def words(strings):
        return np.array([g.lz78_parse(s).word_count for s in strings], dtype=float)

    C = words(grand[:m])
    canonical = words(g.CanonicalSampler(spec, ell, n).sample_batch(seed, range(m)))
    z, ratio = regression_z_and_ratio(S, C, n, canonical)
    assert abs(z) <= 4.0, z
    assert F_BAND_127_126[0] < ratio < F_BAND_127_126[1], ratio
    _, control = regression_z_and_ratio(S, C, n, words(grand[m:]))
    assert not F_BAND_127_126[0] < control < F_BAND_127_126[1], control


def canonical_strings(n, tops):
    """Every string with sites 0..tops[j] summing to n, as uint8 rows,
    built site by site and pruned to prefixes that can still reach n."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    reach = np.append(np.cumsum(tops[::-1])[::-1], 0)  # most sites j.. can hold
    for j, top in enumerate(tops):
        have = rows.sum(axis=1)
        keep = [(k, (have + k <= n) & (have + k + reach[j + 1] >= n))
                for k in range(int(top) + 1)]
        rows = np.concatenate([np.column_stack([rows[ok], np.full(ok.sum(), k, np.uint8)])
                               for k, ok in keep])
    return rows


@pytest.mark.parametrize("stats, mu, ell, n, count, exact", [
    ("fermi", 1.0, 16, 8, 12870, 7.9183),
    ("bose", -0.5, 10, 5, 2002, 5.8690),
], ids=["fermi", "bose"])
def test_converge_mean_word_count_matches_enumeration(tmp_path, stats, mu, ell, n,
                                                      count, exact):
    # Exact E[C] over every canonical string, each weighted by its product
    # law, against converge's sampled mean over 4,000 replicas.
    spec = g.EnsembleSpec(g.Statistics(stats), 1.0, mu, g.CosineLattice())
    tables = g.marginal_tables(spec, ell)
    strings = canonical_strings(n, np.array([t.support_max for t in tables]))
    assert strings.shape == (count, ell)
    weights = np.prod([t.probs[strings[:, j]] for j, t in enumerate(tables)], axis=0)
    words = np.array([g.lz78_parse(s).word_count for s in strings], dtype=float)
    mean_c = float(weights @ words / weights.sum())
    assert mean_c == pytest.approx(exact, abs=5e-5)

    cfg = tmp_path / "small.cfg"
    cfg.write_text(f"ensemble.stats = {stats}\nensemble.beta = 1.0\nensemble.mu = {mu}\n"
                   f"run.lengths = {ell}\nrun.replicas = 4000\nrun.seed = 3\n"
                   "output.format = csv\n")
    assert expcli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    [row] = read_csv(tmp_path / "summary.csv")
    assert int(row["n"]) == n
    se = float(row["se_lz_rate"]) * ell / math.log2(ell)
    assert abs(float(row["mean_word_count"]) - mean_c) <= 4.0 * se, (row, mean_c)


@pytest.mark.parametrize("mu", [0, 1])
@pytest.mark.parametrize("kind", ["grand", "canonical"])
def test_kappa_hat_matches_the_iid_law_on_flat_bands(tmp_path, kind, mu):
    # On the flat band grid:0,0 every Fermi site is Bernoulli(p) with
    # p = 1 / (1 + e^-mu), so grand strings are i.i.d. and their word counts
    # C follow the i.i.d. LZ78 law: kappa-hat = ell h / C - ln C, with h in
    # nats, sits near kappa_iid at ell = 2^14.  Canonical strings, the same
    # law conditioned on the total, sit there too.
    ell = 1 << 14
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(f"ensemble.stats = fermi\nensemble.beta = 1.0\nensemble.mu = {mu}\n"
                   f"ensemble.dispersion = grid:0,0\nrun.lengths = {ell}\n"
                   f"run.replicas = 8\nrun.seed = 3\nrun.kind = {kind}\n"
                   "output.format = csv\n")
    assert expcli.main(["converge", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "results.csv")
    assert len(rows) == 8

    def mean_kappa_hat(h_unit: float) -> float:
        return float(np.mean([ell * float(row["h_target"]) * h_unit / int(row["word_count"])
                              - math.log(int(row["word_count"])) for row in rows]))

    kappa = {m: kappa_iid([1.0 / (1.0 + math.exp(m)), 1.0 / (1.0 + math.exp(-m))])
             for m in (0, 1)}
    assert abs(mean_kappa_hat(math.log(2.0)) - kappa[mu]) <= 0.04, kappa
    # Negative controls: h left in bits, or the other mu's constant, leave
    # the band.
    assert abs(mean_kappa_hat(1.0) - kappa[mu]) > 0.04
    assert abs(mean_kappa_hat(math.log(2.0)) - kappa[1 - mu]) > 0.04
