"""Config parsing, output schemas, determinism, and exit codes of the CLI."""

import argparse
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import gibbslz as g
from gibbslz import checks, ensemble, expcli, lzparse, sampler
from gibbslz.disttab import entropy_gap
from gibbslz.errors import ConfigError
from gibbslz.expcli import (
    _KNOWN_KEYS,
    RESULT_COLUMNS,
    SUMMARY_COLUMNS,
    _chunks,
    _fmt_cell,
    build_arg_parser,
    load_config,
    main,
    read_config_mapping,
    resolve_spec,
)
from gibbslz.sampler import marginal_tables

BASE = """
ensemble.stats = fermi
ensemble.beta = 1.0
ensemble.r = 0.5
ensemble.dispersion = cosine
run.lengths = 16,32
run.replicas = 3
run.seed = 11
run.kind = canonical
"""
BATTERY_NAMES = ("na-empirical", "moment-constants", "local-clt", "sampler-tv",
                 "ensemble-identities")


def test_cli_start_up_defers_batteries_and_process_pool():
    # Every command pays for what expcli imports; the batteries load only in
    # check, the process pool only in a run with more than one worker.
    code = ("import sys, gibbslz.expcli; print(sorted(m for m in ('gibbslz.checks', "
            "'concurrent.futures', 'multiprocessing', 'numpy.random') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_package_import_loads_no_submodule_or_numpy():
    code = ("import sys, gibbslz; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numpy' or m.startswith('gibbslz.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_lazy_names_are_their_submodules_attributes():
    assert g.__all__ == sorted(g._MODULE_OF)
    for name in g.__all__:
        module = importlib.import_module(f"gibbslz.{g._MODULE_OF[name]}")
        assert getattr(g, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        g.no_such_name


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_entry_runs_blas_on_one_thread_by_default(tmp_path, preset):
    # The entry sets the default before numpy loads; a value the caller set
    # wins.  After a one-worker `rate`, the process holds one thread.
    cfg = write_cfg(tmp_path, BASE)
    code = ("import os, sys; from gibbslz.__main__ import main; "
            "rc = main(['rate', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(rc, len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "out")],
                         capture_output=True, text=True, check=True, env=env).stdout
    rc, threads, value = out.split("\n")[-2].split()
    assert rc == "0"
    if preset is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == preset


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading: str) -> str:
    """README text from the heading line to the next heading."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = re.search(r"^#", text[start:], flags=re.M)
    return text[start:start + end.start()] if end else text[start:]


def test_readme_matches_parser_and_config_keys():
    # The "Command line" section (synopsis and command table) names exactly
    # the long options the parser accepts, and the "Config keys" table
    # names exactly the keys a config may set.
    parser = build_arg_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    listed = set(re.findall(r"(?<!-)--[a-z][a-z-]*", readme_section("## Command line")))
    assert listed == options
    first_cells = re.findall(r"^\|[^|]*", readme_section("### Config keys"), flags=re.M)
    assert set(re.findall(r"`([a-z_]+\.[a-z_]+)`", "".join(first_cells))) == _KNOWN_KEYS
    # The check row lists, in order, the batteries run_batteries runs.
    row = re.search(r"^\| `check .*$", readme_section("## Command line"), flags=re.M)
    tiny = checks.BatteryScale(na_draws=100, tv_draws=1000, riemann_points=1000)
    spec = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
    ran = [r.name for r in checks.run_batteries(spec, 0, tiny)]
    assert re.findall(r"`([a-z]+(?:-[a-z]+)+)`", row.group()) == ran


def write_cfg(tmp_path: Path, text: str, name: str = "run.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_mapping_comments_whitespace_and_errors(tmp_path):
    path = write_cfg(tmp_path, """
# full line comment
ensemble.stats = fermi   # trailing comment
ensemble.beta=2.5

run.lengths = 8
ensemble.mu = 0.0
""")
    m = read_config_mapping(path)
    assert m["ensemble.stats"] == "fermi"
    assert m["ensemble.beta"] == "2.5"
    with pytest.raises(ConfigError):
        read_config_mapping(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        read_config_mapping(write_cfg(tmp_path, "ensemble.stats fermi\n", "a.cfg"))
    with pytest.raises(ConfigError):
        read_config_mapping(write_cfg(tmp_path, "no.such.key = 1\n", "b.cfg"))
    with pytest.raises(ConfigError):
        read_config_mapping(write_cfg(
            tmp_path, "ensemble.beta = 1\nensemble.beta = 2\n", "c.cfg"))


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    assert cfg.stats is g.Statistics.FERMI
    assert cfg.mu is None and cfg.r == 0.5
    assert cfg.lengths == (16, 32)
    assert (cfg.replicas, cfg.seed, cfg.kind) == (3, 11, "canonical")
    assert (cfg.epsilon, cfg.two_sided) == (0.3, False)
    assert (cfg.quad_tol, cfg.tail_tol) == (1e-9, 1e-12)
    assert (cfg.check_scale, cfg.out_format) == ("full", "both")
    # analysis.gap_budget is retired: the sampler's cell budget is the only one.
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_cfg(tmp_path, BASE + "analysis.gap_budget = 8388608\n",
                              "retired.cfg"))

    over = load_config(write_cfg(tmp_path, BASE), seed_override=99)
    assert (over.seed, over.out_format) == (99, "both")
    # The hash names the config file contents, not the command line.
    assert over.config_hash == cfg.config_hash
    assert len(cfg.config_hash) == 12


def test_config_hash_ignores_ordering_not_values(tmp_path):
    a = load_config(write_cfg(tmp_path, BASE, "a.cfg"))
    shuffled = "\n".join(reversed([ln for ln in BASE.strip().splitlines()]))
    b = load_config(write_cfg(tmp_path, shuffled, "b.cfg"))
    assert a.config_hash == b.config_hash
    c = load_config(write_cfg(tmp_path, BASE.replace("= 0.5", "= 0.25"), "c.cfg"))
    assert c.config_hash != a.config_hash


def test_load_config_rejects_bad_values(tmp_path):
    cases = [
        BASE.replace("ensemble.r = 0.5", "ensemble.r = 0.5\nensemble.mu = 1.0"),
        BASE.replace("ensemble.r = 0.5\n", ""),
        BASE.replace("fermi", "anyon"),
        BASE.replace("run.lengths = 16,32", "run.lengths = 16,1"),
        BASE.replace("run.lengths = 16,32", "run.lengths = eight"),
        BASE.replace("run.replicas = 3", "run.replicas = 0"),
        BASE.replace("run.seed = 11", "run.seed = -4"),
        BASE.replace("run.kind = canonical", "run.kind = microcanonical"),
        BASE + "analysis.epsilon = 1.0\n",
        BASE + "analysis.epsilon = half\n",
        BASE + "analysis.two_sided = maybe\n",
        BASE + "analysis.quad_tol = 0\n",
        BASE + "analysis.quad_tol = nan\n",
        BASE + "analysis.quad_tol = inf\n",
        BASE + "analysis.tail_tol = 1e-3\n",
        BASE + "analysis.gap_budget = -1\n",
        BASE + "analysis.check_scale = huge\n",
        BASE + "output.format = xml\n",
        BASE.replace("ensemble.dispersion = cosine",
                     "ensemble.dispersion = grid:1.0"),
        BASE.replace("ensemble.dispersion = cosine",
                     "ensemble.dispersion = grid:0.5,nan,1.0"),
        BASE.replace("run.seed = 11", f"run.seed = {2**63}"),
    ]
    for i, text in enumerate(cases):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, text, f"bad{i}.cfg"))


def test_dispersion_grid_parsing(tmp_path):
    text = BASE.replace("ensemble.dispersion = cosine",
                        "ensemble.dispersion = grid:0.25,1.75,0.5")
    cfg = load_config(write_cfg(tmp_path, text))
    assert isinstance(cfg.dispersion, g.TabulatedGrid)
    for bad in ["grid:0.5", "grid:a,b", "parabola"]:
        with pytest.raises(ConfigError):
            load_config(write_cfg(
                tmp_path,
                BASE.replace("ensemble.dispersion = cosine",
                             f"ensemble.dispersion = {bad}"),
                "bad_disp.cfg"))


def test_resolve_spec_round_trip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, BASE))
    spec, r_eff, h = resolve_spec(cfg)
    assert r_eff == 0.5
    assert g.particle_density(spec) == pytest.approx(0.5, abs=1e-8)
    assert 0.0 < h < 1.0
    mu_cfg = load_config(write_cfg(
        tmp_path, BASE.replace("ensemble.r = 0.5", "ensemble.mu = 1.0"), "mu.cfg"))
    spec2, r2, h2 = resolve_spec(mu_cfg)
    assert spec2.mu == 1.0
    assert r2 == pytest.approx(0.5, abs=1e-8)
    assert h2 == pytest.approx(h, abs=1e-7)
    bad = load_config(write_cfg(
        tmp_path, BASE.replace("ensemble.r = 0.5", "ensemble.r = 1.5"), "bad_r.cfg"))
    with pytest.raises(ConfigError):
        resolve_spec(bad)


def test_chunks_cover_contiguously():
    for total in [1, 2, 5, 8, 13]:
        items = list(range(total))
        for parts in [1, 2, 3, 8, 20]:
            chunks = _chunks(items, parts)
            assert [x for ch in chunks for x in ch] == items
            assert all(ch == list(range(ch[0], ch[0] + len(ch))) for ch in chunks)


def test_fmt_cell():
    assert _fmt_cell(None) == ""
    assert _fmt_cell(0.1) == "0.1"
    assert _fmt_cell(1 / 3) == repr(1 / 3)
    assert _fmt_cell(7) == "7"
    assert _fmt_cell("x") == "x"


def test_converge_outputs_and_schema(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == ",".join(RESULT_COLUMNS)
    assert len(results) == 1 + 2 * 3
    keys = []
    for line in results[1:]:
        cells = dict(zip(RESULT_COLUMNS, line.split(",")))
        keys.append((int(cells["ell"]), int(cells["replica"])))
        assert cells["error"] == ""
        assert int(cells["word_count"]) > 0
        ell = int(cells["ell"])
        assert float(cells["lz_rate"]) == pytest.approx(
            int(cells["word_count"]) * math.log2(ell) / ell)
        total = (int(cells["low_typical_words"]) + int(cells["other_typical_words"])
                 + int(cells["non_typical_words"]))
        assert total == int(cells["word_count"])
        assert int(cells["n"]) == int(cells["ell"]) // 2
    assert keys == sorted(keys)

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_COLUMNS)
    assert len(summary) == 3
    srow = dict(zip(SUMMARY_COLUMNS, summary[1].split(",")))
    assert int(srow["replicas"]) == 3
    assert srow["entropy_gap_per_site"] != ""
    h = float(srow["h_target"])
    assert float(srow["rel_dev_from_h"]) == pytest.approx(
        (float(srow["mean_lz_rate"]) - h) / h)

    jrows = [json.loads(ln) for ln in (out / "results.jsonl").read_text().splitlines()]
    assert len(jrows) == 6
    for line, jrow in zip(results[1:], jrows):
        cells = dict(zip(RESULT_COLUMNS, line.split(",")))
        assert repr(jrow["lz_rate"]) == cells["lz_rate"]
    assert (out / "timings.csv").exists()


def assert_deterministic_across_workers_and_runs(tmp_path: Path, text: str) -> None:
    cfg_path = write_cfg(tmp_path, text)
    outs = []
    for name, workers in [("w1", "1"), ("w2", "2"), ("w1b", "1")]:
        out = tmp_path / name
        assert main(["converge", "--config", cfg_path, "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out)
    ref_results = (outs[0] / "results.csv").read_bytes()
    ref_summary = (outs[0] / "summary.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "results.csv").read_bytes() == ref_results
        assert (out / "summary.csv").read_bytes() == ref_summary


def test_converge_deterministic_across_workers_and_runs(tmp_path):
    assert_deterministic_across_workers_and_runs(tmp_path, BASE)


def test_converge_grand_deterministic_across_workers_and_runs(tmp_path):
    # With more than one worker the parent builds each length's word-
    # classification profile and the forked workers inherit it; with one,
    # the worker builds it.  The bytes must not depend on which one did.
    assert_deterministic_across_workers_and_runs(
        tmp_path, BASE.replace("canonical", "grand"))


def test_converge_grand_kind(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("canonical", "grand"))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    for line in lines[1:]:
        cells = dict(zip(RESULT_COLUMNS, line.split(",")))
        assert cells["kind"] == "grand"
        assert cells["n"] == ""
        assert cells["entropy_gap_per_site"] == ""


def grand_rows_setup(tmp_path: Path, stats: str = "bose", ell: int = 1024):
    """(cfg, spec, typical params, h) of a grand run at one length."""
    mu = "ensemble.mu = -0.5" if stats == "bose" else "ensemble.mu = 1.0"
    cfg = load_config(write_cfg(tmp_path, BASE.replace("canonical", "grand")
                                .replace("fermi", stats)
                                .replace("ensemble.r = 0.5", mu)
                                .replace("16,32", str(ell))))
    spec, _, h = resolve_spec(cfg)
    return cfg, spec, g.TypicalParams.from_ensemble(spec, cfg.epsilon), h


def canonical_rows_setup(tmp_path: Path):
    """(cfg, spec, typical params, h, sampler) of a canonical Fermi run at
    ell = 1024."""
    cfg = load_config(write_cfg(tmp_path, BASE.replace("16,32", "1024")))
    spec, r, h = resolve_spec(cfg)
    return (cfg, spec, g.TypicalParams.from_ensemble(spec, cfg.epsilon), h,
            expcli._length_sampler(cfg, spec, r, 1024))


@pytest.mark.parametrize("kind", ["grand", "canonical"])
def test_replicas_hold_one_draw_block_at_a_time(tmp_path, monkeypatch, kind):
    # Strings are drawn, parsed, classified and dropped one draw block at a
    # time: a grand block is one string, and a canonical block here is four
    # of the eight replicas (blocks of 2^12 cells, 1024 cells a replica).
    # At every draw no earlier block is still alive.
    drawn: list[weakref.ref] = []
    alive_at_draw: list[int] = []
    asked: list[int] = []

    def spy(real):
        def draw(*args):
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            block = real(*args)
            drawn.append(weakref.ref(block))
            return block
        return draw

    if kind == "grand":
        cfg, spec, typical, h = grand_rows_setup(tmp_path)
        cs, replicas = None, [0, 1, 2, 3]
        real = expcli.sample_grand
        monkeypatch.setattr(expcli, "sample_grand", spy(real))

        def reference(rep):
            return real(spec, 1024, cfg.seed, rep)
    else:
        cfg, spec, typical, h, cs = canonical_rows_setup(tmp_path)
        monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1 << 12)
        replicas = list(range(8))
        assert cs.draw_blocks(8) == [(0, 4), (4, 8)]
        real = sampler.CanonicalSampler.sample_batch
        draw = spy(real)

        def batch(self, seed, reps):
            asked.append(len(self.draw_blocks(len(reps))))
            return draw(self, seed, reps)

        monkeypatch.setattr(sampler.CanonicalSampler, "sample_batch", batch)

        def reference(rep):
            return real(cs, cfg.seed, [rep])[0]
    rows, times = expcli._replica_rows(cfg, spec, typical, h, 1024, cs, None,
                                       replicas)
    assert alive_at_draw == [0] * len(drawn)
    assert len(drawn) == (4 if kind == "grand" else 2)
    assert asked == ([] if kind == "grand" else [1, 1])
    assert [t["replica"] for t in times] == replicas
    # The lazy draws are the strings the library draws for each replica.
    for rep, row in zip(replicas, rows):
        assert row["replica"] == rep
        assert row["word_count"] == g.lz78_parse(reference(rep)).word_count


def test_canonical_rows_do_not_depend_on_the_draw_blocks(tmp_path, monkeypatch):
    # Every canonical string depends only on (seed, replica), so the rows of
    # one block of 20 replicas equal those of twenty blocks of one.
    cfg, spec, typical, h, cs = canonical_rows_setup(tmp_path)
    replicas = list(range(20))
    assert len(cs.draw_blocks(20)) == 1
    rows, _ = expcli._replica_rows(cfg, spec, typical, h, 1024, cs, None, replicas)
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1 << 10)
    assert len(cs.draw_blocks(20)) == 20
    small, _ = expcli._replica_rows(cfg, spec, typical, h, 1024, cs, None, replicas)
    assert small == rows


@pytest.mark.parametrize("stats", ["bose", "fermi"])
def test_grand_replica_working_set(tmp_path, monkeypatch, stats):
    # One grand replica at 2^18 (256 KiB of uint8), profile warmed: its
    # draw, parse and classification hold the string, the parser's copy of
    # its bytes and its word set (about 3.5 MiB for 24k words), and one
    # block of the prefix sum.  Blocks of 2^10 cells keep the transients
    # small, so an int64 copy or a float array of the string's length
    # (2 MiB) shows.  Measured 4.07 MiB (Bose) and 4.03 MiB (Fermi); the
    # bound leaves 12%.
    ell = 1 << 18
    cfg, spec, typical, h = grand_rows_setup(tmp_path, stats, ell)
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1 << 10)
    lzparse._word_profile(spec, ell)
    tracemalloc.start()
    try:
        expcli._replica_rows(cfg, spec, typical, h, ell, None, None, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lzparse._word_profile.cache_clear()
    assert peak <= 4.6 * 2**20


def converge_rows(cfg_path: str, out: Path) -> list[dict]:
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()[1:]
    return [dict(zip(RESULT_COLUMNS, line.split(","))) for line in lines]


def sample_and_converge_agree(cfg_path: str, out: Path, kind: str) -> None:
    assert main(["sample", "--config", cfg_path, "--out", str(out)]) == 0
    sdir = out / "samples"
    manifest = [json.loads(ln) for ln in (sdir / "manifest.jsonl").read_text().splitlines()]
    assert len(manifest) == 6
    # Same seed and kind: every sampled string parses to converge's word count.
    converged = {(int(row["ell"]), int(row["replica"])): int(row["word_count"])
                 for row in converge_rows(cfg_path, out / "conv")}
    assert len(converged) == 6
    for entry in manifest:
        vals = np.array([int(t) for t in (sdir / entry["file"]).read_text().split()])
        assert vals.size == entry["ell"]
        assert int(vals.sum()) == entry["sum"]
        assert entry["n"] == (entry["sum"] if kind == "canonical" else None)
        parse = g.lz78_parse(vals)
        assert parse.word_count == converged[(entry["ell"], entry["replica"])]


def test_sample_manifest_and_parse_round_trip(tmp_path):
    for kind in ("canonical", "grand"):
        cfg_path = write_cfg(tmp_path, BASE.replace("canonical", kind), f"{kind}.cfg")
        sample_and_converge_agree(cfg_path, tmp_path / kind, kind)

    cfg_path = str(tmp_path / "canonical.cfg")
    sample_file = next((tmp_path / "canonical" / "samples").glob("sample_*.txt"))
    out2 = tmp_path / "parsed"
    assert main(["parse", "--config", cfg_path, "--out", str(out2),
                 str(sample_file)]) == 0
    rows = [json.loads(ln) for ln in (out2 / "parse.jsonl").read_text().splitlines()]
    vals = np.array([int(t) for t in sample_file.read_text().split()])
    direct = g.lz78_parse(vals)
    assert rows[0]["word_count"] == direct.word_count
    assert rows[0]["lz_rate"] == pytest.approx(g.lz_rate(direct))


@pytest.mark.parametrize("stats, mu, kind, dtype", [
    ("fermi", "1.0", "canonical", np.uint8),
    # Sites of a grand Bose string near mu = 0 pass 255, so it widens.
    ("bose", "-1e-3", "grand", np.uint16),
])
def test_sample_files_hold_one_decimal_value_a_line(tmp_path, stats, mu, kind, dtype):
    cfg_path = write_cfg(tmp_path, BASE.replace("canonical", kind)
                         .replace("fermi", stats)
                         .replace("ensemble.r = 0.5", f"ensemble.mu = {mu}"))
    assert main(["sample", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    cfg = load_config(cfg_path)
    spec, r, _ = resolve_spec(cfg)
    dtypes = set()
    for ell in cfg.lengths:
        strings = expcli._draw_strings(
            cfg, spec, ell, None if kind == "grand" else
            expcli._length_sampler(cfg, spec, r, ell), list(range(cfg.replicas)))
        for rep, s in enumerate(strings):
            dtypes.add(s.dtype)
            text = (tmp_path / "samples" / f"sample_{kind}_ell{ell}_rep{rep}.txt").read_text()
            assert text == "\n".join(map(str, s.tolist())) + "\n"
    assert np.dtype(dtype) in dtypes


@pytest.mark.parametrize("text", ["1 x 2\n", "1 2.5\n", "99999999999999999999\n"])
def test_parse_rejects_a_bad_token(tmp_path, capsys, text):
    cfg_path = write_cfg(tmp_path, BASE)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["parse", "--config", cfg_path, "--out", str(tmp_path / "out"),
                 str(path)]) == 1
    assert "cannot read occupancy file" in capsys.readouterr().err


def test_converge_gap_matches_entropy_gap_command(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out = tmp_path / "gap"
    assert main(["entropy-gap", "--config", cfg_path, "--out", str(out)]) == 0
    gaps = {row["ell"]: row for row in
            (json.loads(ln) for ln in (out / "entropy_gap.jsonl").read_text().splitlines())}
    rows = converge_rows(cfg_path, tmp_path / "conv")
    assert {int(row["ell"]) for row in rows} == set(gaps) == {16, 32}
    for row in rows:
        ell = int(row["ell"])
        per_site = float(row["entropy_gap_per_site"])
        assert per_site == gaps[ell]["gap_per_site"]
        assert per_site * ell == pytest.approx(gaps[ell]["gap_bits"], rel=1e-14)


def test_converge_gap_at_every_rung(tmp_path):
    # ell = 4096 needs (ell + 1)(n + 1) = 8,394,753 suffix-DP cells, past the
    # 2^23 the DP was once allowed; the sampler's tree gives its gap as well.
    cfg_path = write_cfg(tmp_path, BASE.replace("16,32", "16,4096"))
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["converge", "--config", cfg_path, "--out", str(out),
                     "--workers", workers]) == 0
        runs.append(out)
    assert (runs[0] / "results.csv").read_bytes() == (runs[1] / "results.csv").read_bytes()
    assert main(["entropy-gap", "--config", cfg_path, "--out", str(tmp_path / "gap")]) == 0
    gaps = {row["ell"]: row for row in
            (json.loads(ln) for ln in
             (tmp_path / "gap" / "entropy_gap.jsonl").read_text().splitlines())}
    lines = (runs[0] / "results.csv").read_text().splitlines()[1:]
    rows = [dict(zip(RESULT_COLUMNS, line.split(","))) for line in lines]
    assert {int(row["ell"]) for row in rows} == {16, 4096}
    for row in rows:
        assert row["entropy_gap_per_site"] != ""
        assert float(row["entropy_gap_per_site"]) == gaps[int(row["ell"])]["gap_per_site"]
    spec, _, _ = resolve_spec(load_config(cfg_path))
    assert gaps[16]["gap_bits"] == pytest.approx(
        entropy_gap(marginal_tables(spec, 16), gaps[16]["n"]), rel=1e-12)


def test_entropy_gap_command_matches_library(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["entropy-gap", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [json.loads(ln)
            for ln in (out / "entropy_gap.jsonl").read_text().splitlines()]
    cfg = load_config(cfg_path)
    spec, r_eff, _ = resolve_spec(cfg)
    for row in rows:
        assert row["skipped"] is False
        tables = marginal_tables(spec, row["ell"], tail_tol=cfg.tail_tol)
        expected = entropy_gap(tables, row["n"])
        assert row["gap_bits"] == pytest.approx(expected, rel=1e-12)
        assert row["gap_bits"] <= 0.0
        assert row["cells"] == g.CanonicalSampler(spec, row["ell"], row["n"]).cells
    # The gap is canonical even when the config asks for grand strings.
    grand = write_cfg(tmp_path, BASE.replace("canonical", "grand"), "grand.cfg")
    out_grand = tmp_path / "grand"
    assert main(["entropy-gap", "--config", grand, "--out", str(out_grand)]) == 0
    grand_rows = [json.loads(ln)
                  for ln in (out_grand / "entropy_gap.jsonl").read_text().splitlines()]
    assert [r["gap_bits"] for r in grand_rows] == [r["gap_bits"] for r in rows]
    capsys.readouterr()

    # The sampler's cell budget is the gap's budget: the condensed Bose
    # config of test_exit_codes fails fast, naming the cells.
    condensed = write_cfg(tmp_path, BASE.replace("fermi", "bose")
                          .replace("ensemble.beta = 1.0", "ensemble.beta = 0.01")
                          .replace("ensemble.r = 0.5", "ensemble.mu = -0.001")
                          .replace("run.lengths = 16,32", "run.lengths = 256"),
                          "condensed.cfg")
    t0 = time.perf_counter()
    assert main(["entropy-gap", "--config", condensed, "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - t0 < 20.0
    assert "cells" in capsys.readouterr().err
    # An unreachable total is still a runtime failure: both sites sit at
    # energy 14, so their laws truncate to k = 0, while the dip at y = 1
    # gives the integrated density that asks for n = 1.
    crowded = write_cfg(tmp_path, BASE.replace("fermi", "bose")
                        .replace("ensemble.r = 0.5", "ensemble.mu = 0.0")
                        .replace("cosine", "grid:14,14,5e-4")
                        .replace("run.lengths = 16,32", "run.lengths = 2")
                        + "analysis.tail_tol = 9e-7\n", "crowded.cfg")
    for command in ("entropy-gap", "converge", "sample"):
        assert main([command, "--config", crowded, "--out", str(tmp_path)]) == 3
        assert "exceeds the summed" in capsys.readouterr().err


def test_scalar_commands_print_reprs(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE)
    assert main(["solve-mu", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    mu = float(capsys.readouterr().out.strip())
    assert mu == pytest.approx(1.0, abs=1e-7)
    assert main(["density", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-8)
    assert main(["rate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    h = float(capsys.readouterr().out.strip())
    cfg = load_config(cfg_path)
    _, _, h_direct = resolve_spec(cfg)
    assert h == h_direct


def test_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, BASE + "mystery.key = 1\n", "bad.cfg")
    assert main(["density", "--config", bad, "--out", str(tmp_path)]) == 1

    unsolvable = write_cfg(tmp_path, BASE.replace("= 0.5", "= 1.5"), "uns.cfg")
    for command in ("converge", "solve-mu"):
        assert main([command, "--config", unsolvable, "--out", str(tmp_path)]) == 1

    # A Bose chemical potential essentially at the band floor makes the
    # density integrand blow past the quadrature budget: a numeric failure.
    singular = write_cfg(tmp_path, BASE.replace("fermi", "bose")
                         .replace("ensemble.r = 0.5", "ensemble.mu = -1e-12"),
                         "sing.cfg")
    assert main(["density", "--config", singular, "--out", str(tmp_path)]) == 3

    # Config problems found only downstream used to surface as exit 3.
    infinite = write_cfg(tmp_path, BASE.replace("cosine", "grid:1,inf"), "inf.cfg")
    assert main(["density", "--config", infinite, "--out", str(tmp_path)]) == 1
    # A nan tolerance used to exhaust the quadrature budget (exit 3), an
    # infinite one to print a wrong rate (exit 0).
    for tol in ("nan", "inf"):
        odd = write_cfg(tmp_path, BASE.replace("ensemble.r = 0.5", "ensemble.mu = 1.0")
                        + f"analysis.quad_tol = {tol}\n", f"tol_{tol}.cfg")
        assert main(["density", "--config", odd, "--out", str(tmp_path)]) == 1
    good = write_cfg(tmp_path, BASE, "good.cfg")
    assert main(["converge", "--config", good, "--out", str(tmp_path),
                 "--seed", "99999999999999999999"]) == 1
    # A repeated length would write every row twice and pool its replicas.
    repeated = write_cfg(tmp_path, BASE.replace("16,32", "16,16"), "rep.cfg")
    assert main(["converge", "--config", repeated, "--out", str(tmp_path)]) == 1

    # A nearly condensed Bose gas: n = 572,163 particles on 256 sites, with
    # site laws up to n + 1 entries wide.  The sampler's cell budget must
    # stop it at once instead of letting it run for minutes.
    condensed = write_cfg(tmp_path, BASE.replace("fermi", "bose")
                          .replace("ensemble.beta = 1.0", "ensemble.beta = 0.01")
                          .replace("ensemble.r = 0.5", "ensemble.mu = -0.001")
                          .replace("run.lengths = 16,32", "run.lengths = 256"),
                          "condensed.cfg")
    t0 = time.perf_counter()
    assert main(["converge", "--config", condensed, "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - t0 < 20.0
    assert "cells" in capsys.readouterr().err

    # Grand strings have the same budget: 2^45 sites would need 256 TiB.
    # They are refused before anything is allocated, and main returns 3
    # with the message instead of letting a MemoryError escape.
    huge = write_cfg(tmp_path, BASE.replace("run.kind = canonical", "run.kind = grand")
                     .replace("run.lengths = 16,32", "run.lengths = 35184372088832"),
                     "huge.cfg")
    for command in ("sample", "converge"):
        assert main([command, "--config", huge, "--out", str(tmp_path)]) == 3
        assert "cell budget" in capsys.readouterr().err


def test_converge_low_temperature_fermi(tmp_path, capsys):
    # At beta = 200 the sup of the mean profile rounds to 1.0; the typical
    # window allowance must take the entropy limit 0 there, not fail.
    cfg_path = write_cfg(tmp_path, BASE.replace("ensemble.beta = 1.0",
                                                "ensemble.beta = 200")
                         .replace("run.lengths = 16,32", "run.lengths = 256"))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for line in rows:
        cells = dict(zip(RESULT_COLUMNS, line.split(",")))
        assert cells["n"] == "128" and cells["error"] == ""


def test_converge_grand_low_temperature_fermi_is_warning_free(tmp_path):
    # At beta = 1000, e^{beta omega} overflows for most modes; the grand
    # draw must take the limit mean 0 there without a RuntimeWarning.
    cfg_path = write_cfg(tmp_path, BASE.replace("ensemble.beta = 1.0",
                                                "ensemble.beta = 1000")
                         .replace("ensemble.r = 0.5", "ensemble.mu = 1")
                         .replace("run.lengths = 16,32", "run.lengths = 64")
                         .replace("canonical", "grand"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["converge", "--config", cfg_path, "--out", str(out),
                     "--workers", "1"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for line in rows:
        assert dict(zip(RESULT_COLUMNS, line.split(",")))["error"] == ""


def check_report(out: Path) -> list[dict]:
    return [json.loads(ln) for ln in (out / "check_report.jsonl").read_text().splitlines()]


def test_check_command_and_fault_injection(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE + "analysis.check_scale = quick\n")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    report = check_report(out)
    assert [r["name"] for r in report] == list(BATTERY_NAMES)
    assert all(r["passed"] for r in report)
    capsys.readouterr()

    assert main(["check", "--config", cfg_path, "--out", str(out),
                 "--inject-fault", "moment-constants"]) == 2
    failed = [r["name"] for r in check_report(out) if not r["passed"]]
    assert failed == ["moment-constants"]
    capsys.readouterr()

    # An unknown target is a config error, refused before any battery runs;
    # the lemmas that read no config are tests, not batteries.
    for target in ("bogus", "score-ratio"):
        bad = tmp_path / target
        assert main(["check", "--config", cfg_path, "--out", str(bad),
                     "--inject-fault", target]) == 1
        assert "unknown fault target" in capsys.readouterr().err
        assert not (bad / "check_report.jsonl").exists()


def test_check_bose_profiles_count_the_dropped_tail(tmp_path, capsys):
    # Bose tables cut at a loose tail_tol drop a geometric tail that the
    # closed-form profiles include; ensemble-identities adds its share back.
    cfg_path = write_cfg(tmp_path, "ensemble.stats = bose\nensemble.beta = 1.0\n"
                         "ensemble.mu = -0.5\nrun.lengths = 16\n"
                         "analysis.check_scale = quick\nanalysis.tail_tol = 1e-7\n")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["check", "--config", cfg_path, "--out", str(out),
                 "--inject-fault", "ensemble-identities"]) == 2
    failed = [r["name"] for r in check_report(out) if not r["passed"]]
    assert failed == ["ensemble-identities"]
    capsys.readouterr()


def test_check_builds_batteries_at_the_config_tolerances(tmp_path, monkeypatch):
    # analysis.tail_tol and analysis.quad_tol reach every site-law table,
    # sampler and profile integral the batteries make, not the library
    # defaults.
    seen: dict[str, set] = {}

    def spy(owner, name: str, param: str) -> None:
        real = getattr(owner, name)
        sig = inspect.signature(real)

        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.setdefault(name, set()).add(bound.arguments[param])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy(sampler, "CanonicalSampler", "tail_tol")
    spy(sampler, "marginal_tables", "tail_tol")
    spy(ensemble, "particle_density", "quad_tol")
    spy(ensemble, "entropy_rate", "quad_tol")
    cfg_path = write_cfg(tmp_path, BASE + "analysis.check_scale = quick\n"
                         "analysis.tail_tol = 1e-10\nanalysis.quad_tol = 1e-10\n")
    assert main(["check", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert seen == {"CanonicalSampler": {1e-10}, "marginal_tables": {1e-10},
                    "particle_density": {1e-10}, "entropy_rate": {1e-10}}


def test_worker_count_validation(tmp_path, capsys):
    # --workers is the only source of the worker count.  A count below 1
    # is a config error; a non-integer one is refused by argparse itself.
    cfg_path = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out),
                 "--workers", "0"]) == 1
    assert "worker count" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--config", cfg_path, "--out", str(out),
              "--workers", "many"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_seed_override_changes_results(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["converge", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["converge", "--config", cfg_path, "--out", str(out_b),
                 "--seed", "12345"]) == 0
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_lengths_run_and_report_in_ascending_order(tmp_path, capsys):
    # The config lists 32 before 16; every output follows ascending ell.
    cfg_path = write_cfg(tmp_path, BASE.replace("16,32", "32,16"))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] \
        == ["ell=16", "ell=32"]
    for name, columns in (("results.csv", RESULT_COLUMNS),
                          ("summary.csv", SUMMARY_COLUMNS)):
        lines = (out / name).read_text().splitlines()[1:]
        ells = [int(dict(zip(columns, line.split(",")))["ell"]) for line in lines]
        assert ells == sorted(ells) and set(ells) == {16, 32}
    assert main(["entropy-gap", "--config", cfg_path, "--out", str(out)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] \
        == ["ell=16", "ell=32"]
    rows = [json.loads(ln) for ln in (out / "entropy_gap.jsonl").read_text().splitlines()]
    assert [row["ell"] for row in rows] == [16, 32]


@pytest.mark.parametrize("stats, mu", [("fermi", "-1"), ("fermi", "5"), ("bose", "-1")],
                         ids=["fermi-empty", "fermi-full", "bose-empty"])
def test_converge_refuses_frozen_ensembles(tmp_path, capsys, stats, mu):
    # At beta = 1000 every mode is frozen empty (or, Fermi at mu = 5, full),
    # so the entropy rate is 0 and no word-count rate can be compared with
    # it.  converge refuses before any length; rate and density still work.
    cfg_path = write_cfg(tmp_path, BASE.replace("fermi", stats)
                         .replace("ensemble.beta = 1.0", "ensemble.beta = 1000")
                         .replace("ensemble.r = 0.5", f"ensemble.mu = {mu}"))
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg_path, "--out", str(out)]) == 1
    assert "frozen" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert main(["rate", "--config", cfg_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["density", "--config", cfg_path, "--out", str(out)]) == 0
    assert float(capsys.readouterr().out) == (1.0 if mu == "5" else 0.0)


def test_entropy_gap_at_a_coarse_tail_tolerance_matches_the_dp(tmp_path):
    # analysis.tail_tol reaches both routes: the tree behind entropy-gap and
    # the suffix DP over marginal_tables truncate the same Bose site laws.
    cfg_path = write_cfg(tmp_path, BASE.replace("fermi", "bose")
                         .replace("ensemble.r = 0.5", "ensemble.mu = -0.5")
                         .replace("16,32", "16,64") + "analysis.tail_tol = 1e-7\n")
    out = tmp_path / "out"
    assert main(["entropy-gap", "--config", cfg_path, "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    assert cfg.tail_tol == 1e-7
    spec, _, _ = resolve_spec(cfg)
    rows = [json.loads(ln) for ln in (out / "entropy_gap.jsonl").read_text().splitlines()]
    assert [row["ell"] for row in rows] == [16, 64]
    for row in rows:
        coarse = entropy_gap(marginal_tables(spec, row["ell"], tail_tol=1e-7), row["n"])
        assert abs(row["gap_bits"] - coarse) <= 1e-10
        # The tolerance matters at this precision: the default one moves
        # the gap by far more than the bound above.
        fine = entropy_gap(marginal_tables(spec, row["ell"]), row["n"])
        assert abs(row["gap_bits"] - fine) > 1e-8
