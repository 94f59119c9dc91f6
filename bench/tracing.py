"""The traced run: a workload's commands in-process, with a span around each
call into a layer.

Spans are recorded from the benchmark's own code by wrapping the package's
public functions where the calling layer looks them up, so the program runs
unmodified.  Each span holds (name, start, end, parent, workload, seed);
spans stay in memory and are written once, at the end of the run.  A span's
self time is its duration minus the time of its child spans.
"""

import contextlib
import io
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Command, lengths


class Tracer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.kernel_cells: dict[int, int] = {}
        self.label = ""
        self.last_sampler = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "seed": self.seed}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = defaultdict(float)
        for rec, c in zip(self.spans, child):
            out[rec["name"]] += rec["end"] - rec["start"] - c
        return out


def _wrap(tracer: Tracer, fn, name: str, count=None):
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if count is not None:
                count(rec, result, args, kwargs)
        return result
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap each layer's entry points for the duration of the block."""
    from gibbslz import checks, disttab, expcli, lzparse, sampler

    def tables(rec, result, args, kwargs):
        tracer.kernel_cells[len(result)] = sum(t.support_max + 1 for t in result)

    def built(rec, result, args, kwargs):
        tracer.last_sampler = args[0]

    def parsed(rec, result, args, kwargs):
        tracer.counts["symbols"] += result.ell
        tracer.counts["words"] += result.word_count

    def dp(rec, result, args, kwargs):
        tracer.counts["dp_cells"] += (result.ell + 1) * (result.target + 1)

    def battery(rec, result, args, kwargs):
        rec["name"] = f"checks.{tracer.label}.{result.name}"

    # (owners, attribute, span name, counter).  Ensemble functions are
    # wrapped only where the CLI calls them: inside the ensemble module they
    # call each other, and solve_mu's own density integrals belong to it.
    table = [
        ((expcli,), "load_config", "expcli.load_config", None),
        ((expcli,), "resolve_spec", "expcli.resolve_spec", None),
        ((expcli,), "solve_mu", "ensemble.solve_mu", None),
        ((expcli,), "particle_density", "ensemble.density", None),
        ((expcli,), "entropy_rate", "ensemble.entropy_rate", None),
        ((sampler, expcli), "marginal_tables", "sampler.tables", tables),
        ((sampler.CanonicalSampler,), "__init__", "sampler.build", built),
        ((sampler.CanonicalSampler,), "sample_batch", "sampler.draw", None),
        ((expcli,), "sample_grand", "sampler.grand", None),
        ((expcli,), "lz78_parse", "lzparse.parse", parsed),
        ((expcli,), "classify_words", "lzparse.classify", None),
        ((disttab,), "build_suffix_dp", "disttab.suffix_dp", dp),
        ((disttab,), "conditional_entropy_exact", "disttab.cond_entropy", None),
    ]
    table += [((checks,), attr, "checks", battery)
              for attr in dir(checks) if attr.startswith("check_")]
    saved = []
    for owners, attr, name, count in table:
        fn = getattr(owners[0], attr)
        wrapped = _wrap(tracer, fn, name, count)
        for owner in owners:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
    typical = lzparse.TypicalParams.__dict__["from_ensemble"]
    saved.append((lzparse.TypicalParams, "from_ensemble", typical))
    lzparse.TypicalParams.from_ensemble = classmethod(
        _wrap(tracer, typical.__func__, "lzparse.typical_params"))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _peak_mb(fn, *args):
    """(seconds, peak traced allocation in MiB) of one call."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak / 2**20


def traced_run(workload: str, seed: int, out: Path) -> tuple[Tracer, float, dict]:
    """Run the workload in-process under spans, then the single-call probes.

    Returns the tracer, the wall time of the commands themselves and the
    probe figures, with the commands' "exit_codes" and the probes'
    "problems".  Commands run with one worker: spans recorded in forked pool
    workers would not reach this process.
    """
    from gibbslz import checks, ensemble, expcli, sampler
    from gibbslz.lzparse import lz78_parse

    tracer = Tracer(workload, seed)
    commands: list[Command] = WORKLOADS[workload]
    probes: dict = {"exit_codes": [], "problems": []}
    wall = 0.0
    with instrumented(tracer), contextlib.redirect_stdout(io.StringIO()):
        for i, cmd in enumerate(commands):
            tracer.label = cmd.label
            t0 = time.perf_counter()
            probes["exit_codes"].append(expcli.main(cmd.argv(seed, out / str(i), workers=1)))
            wall += time.perf_counter() - t0

    last = commands[-1]
    cfg = expcli.load_config(last.config_path, seed_override=seed)
    spec, _, _ = expcli.resolve_spec(cfg)
    top = max(lengths(last))
    with tracer.span("ensemble.site_profiles"):
        ensemble.site_means(spec, top)
        ensemble.site_entropies(spec, top)

    if last.verb == "converge":
        if cfg.kind == "canonical":
            with tracer.span("sampler.draw_one"):
                string = tracer.last_sampler.sample_batch(seed, [0])[0]
        else:
            string = sampler.sample_grand(spec, top, seed, 0)
        _, _, probes["parse_peak_alloc_mb"] = _peak_mb(lz78_parse, string)

    # sampler-tv's bulk draw at ell = 6, timed on its own for each spec.
    for cmd in commands:
        if cmd.verb != "check":
            continue
        ccfg = expcli.load_config(cmd.config_path, seed_override=seed)
        cspec, r_eff, _ = expcli.resolve_spec(ccfg)
        ell = 6
        n = sampler.choose_n(r_eff, ell).n
        u = np.random.default_rng(seed).random((checks.BatteryScale.full().tv_draws, ell))
        cs = sampler.CanonicalSampler(cspec, ell, n)
        vals, seconds, peak = _peak_mb(cs.sample_from_uniforms, u)
        if not np.all(vals.sum(axis=1) == n):
            probes["problems"].append(f"bulk draws for {cmd.label} miss the total {n}")
        probes["bulk_s"] = probes.get("bulk_s", 0.0) + seconds
        probes["bulk_peak_alloc_mb"] = max(probes.get("bulk_peak_alloc_mb", 0.0), peak)
    return tracer, wall, probes


def layer_metrics(tracer: Tracer, probes: dict, untraced_wall: float,
                  traced_wall: float, workers: int) -> dict[str, float]:
    """Per-layer figures from one traced run; a layer the workload does not
    call reports zero time and zero work."""
    self_s = tracer.self_times()
    probe_names = {"ensemble.site_profiles", "sampler.draw_one"}
    layer_sum = sum(v for k, v in self_s.items() if k not in probe_names)
    kernel_cells = tracer.kernel_cells[max(tracer.kernel_cells)] \
        if tracer.kernel_cells else 0
    parse_s = self_s.get("lzparse.parse", 0.0)
    m = {f"{name}_s": seconds for name, seconds in self_s.items()}
    m.update({
        "sampler.kernel_cells": kernel_cells,
        "sampler.bulk_s": probes.get("bulk_s", 0.0),
        "sampler.bulk_peak_alloc_mb": probes.get("bulk_peak_alloc_mb", 0.0),
        "lzparse.words": tracer.counts["words"],
        "lzparse.parse_msym_per_s":
            tracer.counts["symbols"] / parse_s / 1e6 if parse_s > 0 else 0.0,
        "lzparse.parse_peak_alloc_mb": probes.get("parse_peak_alloc_mb", 0.0),
        "disttab.dp_cells": tracer.counts["dp_cells"],
        "expcli.overhead_s": untraced_wall - layer_sum,
        "expcli.pool_efficiency": layer_sum / (workers * untraced_wall),
        "trace_overhead_s": traced_wall - untraced_wall,
    })
    return m


def write_spans(tracer: Tracer, path: Path) -> None:
    t0 = min((rec["start"] for rec in tracer.spans), default=0.0)
    with path.open("w") as fh:
        for i, rec in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, **rec, "start": rec["start"] - t0,
                                 "end": rec["end"] - t0}) + "\n")
