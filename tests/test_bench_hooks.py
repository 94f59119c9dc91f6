"""The benchmark's tracer (bench/tracing.py) wraps package functions by name
where the calling layer looks them up.  Entering its instrumentation resolves
every hooked name, so renaming or deleting one fails here, not only in the
minute-long bench smoke test."""

from pathlib import Path

import numpy as np

import gibbslz as g
from gibbslz import expcli

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
