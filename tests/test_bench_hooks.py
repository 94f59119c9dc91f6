"""The benchmark's tracer (bench/tracing.py) wraps package functions by name
where the calling layer looks them up.  Entering its instrumentation resolves
every hooked name, and a traced run of a small workload reads the rest, so
renaming or deleting one fails here, not only in the minute-long bench
smoke test."""

from pathlib import Path

import numpy as np
import pytest

import gibbslz as g
from gibbslz import expcli, sampler

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_hooks_resolve_and_trace_a_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer("hooks", 0)
    spec = g.EnsembleSpec(g.Statistics.FERMI, 1.0, 1.0, g.CosineLattice())
    with tracing.instrumented(tracer):
        g.CanonicalSampler(spec, 64, 32)
        string = tracer.last_sampler.sample_batch(0, [0])[0]
        parse = expcli.lz78_parse(string)
    assert string.shape == (64,) and string.dtype == np.uint8
    assert parse.ell == 64
    assert {rec["name"] for rec in tracer.spans} == {
        "sampler.build", "sampler.draw", "lzparse.parse"}
    assert tracer.counts["words"] == parse.word_count


def test_tracer_times_every_canonical_draw_block(tmp_path, monkeypatch):
    # converge draws a canonical length one draw block at a time, and the
    # tracer records one sampler.draw span per block; together the spans
    # draw every replica, so sampler.draw_s still holds all the draw time.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("ensemble.stats = fermi\nensemble.beta = 1.0\n"
                        "ensemble.r = 0.5\nrun.lengths = 1024\nrun.replicas = 8\n")
    cfg = expcli.load_config(cfg_path)
    spec, r, h = expcli.resolve_spec(cfg)
    typical = g.TypicalParams.from_ensemble(spec, cfg.epsilon)
    cs = expcli._length_sampler(cfg, spec, r, 1024)
    monkeypatch.setattr(sampler, "_BLOCK_CELLS", 1 << 12)
    blocks = cs.draw_blocks(8)
    assert len(blocks) == 2
    drawn: list[int] = []
    real = sampler.CanonicalSampler.sample_batch

    def counted(self, seed, replicas):
        drawn.append(len(replicas))
        return real(self, seed, replicas)

    monkeypatch.setattr(sampler.CanonicalSampler, "sample_batch", counted)
    tracer = tracing.Tracer("hooks", 0)
    with tracing.instrumented(tracer):
        rows, _ = expcli._replica_rows(cfg, spec, typical, h, 1024, cs, None,
                                       list(range(8)))
    draws = [rec for rec in tracer.spans if rec["name"] == "sampler.draw"]
    assert len(draws) == len(blocks)
    assert drawn == [hi - lo for lo, hi in blocks]
    assert len(rows) == sum(drawn) == 8
    assert tracer.self_times()["sampler.draw"] == pytest.approx(
        sum(rec["end"] - rec["start"] for rec in draws))


def test_traced_run_and_layer_metrics_on_a_small_workload(tmp_path, monkeypatch):
    # The traced run also reads names outside `instrumented` (choose_n's .n,
    # BatteryScale.full(), the site profiles, sample_from_uniforms); a small
    # workload with a check and a canonical converge reaches all of them.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    (tmp_path / "bose.cfg").write_text(
        "ensemble.stats = bose\nensemble.beta = 1.0\nensemble.mu = -0.5\n"
        "run.lengths = 6\nanalysis.check_scale = quick\noutput.format = csv\n")
    (tmp_path / "fermi.cfg").write_text(
        "ensemble.stats = fermi\nensemble.beta = 1.0\nensemble.r = 0.5\n"
        "run.lengths = 64,128\nrun.replicas = 2\noutput.format = csv\n")
    monkeypatch.setattr(workloads, "CONFIGS", tmp_path)
    monkeypatch.setattr(tracing, "WORKLOADS", {"hooks": [
        workloads.Command("check", "bose.cfg", label="bose"),
        workloads.Command("converge", "fermi.cfg")]})
    tracer, wall, probes = tracing.traced_run("hooks", 3, tmp_path / "out")
    assert probes["exit_codes"] == [0, 0]
    assert probes["problems"] == []
    metrics = tracing.layer_metrics(tracer, probes, wall, wall, 1)
    # No command runs the suffix DP: sampler-tv normalises by the tables' fold.
    assert tracer.counts["dp_cells"] == 0
    always = {"sampler.kernel_cells", "sampler.bulk_s", "sampler.bulk_peak_alloc_mb",
              "lzparse.words", "lzparse.parse_msym_per_s", "lzparse.parse_peak_alloc_mb",
              "disttab.dp_cells", "expcli.overhead_s", "expcli.pool_efficiency",
              "trace_overhead_s"}
    called = {"ensemble.solve_mu_s", "ensemble.site_profiles_s", "sampler.build_s",
              "sampler.draw_s", "sampler.draw_one_s", "lzparse.parse_s",
              "lzparse.classify_s", "checks.bose.sampler-tv_s"}
    assert always | called <= set(metrics)
    assert all(np.isfinite(metrics[key]) for key in always | called)
    assert metrics["sampler.bulk_s"] > 0 and metrics["lzparse.parse_peak_alloc_mb"] > 0
