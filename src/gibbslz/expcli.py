"""Experiment driver: config parsing, deterministic runs, CSV/JSONL output.

Configs are flat "dotted.key = value" lines (# starts a comment).  The
ensemble block fixes statistics, inverse temperature, dispersion, and either
the chemical potential (ensemble.mu) or a target density (ensemble.r, which
is inverted to mu once per run); the run block fixes string lengths, replica
count, master seed and sampling kind; the analysis block holds the typical-
window epsilon and numeric tolerances; the output block picks the format.

Determinism contract: results.csv / results.jsonl / summary.* are byte
reproducible for a fixed config and seed, for any worker count, because
every replica owns a counter-based random stream keyed by (seed, ell,
replica) and rows are emitted in sorted (ell, replica) order.  Wall-clock
measurements go to timings.csv, which is excluded from that contract.

Exit codes: 0 success, 1 config error, 2 property-check failure, 3 numeric
or domain failure during computation.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .ensemble import (
    _DEFAULT_QUAD_TOL,
    CosineLattice,
    Dispersion,
    EnsembleSpec,
    Statistics,
    TabulatedGrid,
    entropy_rate,
    particle_density,
    solve_mu,
)
from .errors import (
    ConfigError,
    EnsembleError,
    GibbsLzError,
    TargetRangeError,
)
from .lzparse import TypicalParams, _word_profile, classify_words, code_rate, \
    lz78_parse, lz_rate
from .sampler import (
    _DEFAULT_TAIL_TOL,
    CanonicalSampler,
    choose_n,
    marginal_tables,  # not called here; bench/tracing.py wraps this name
    sample_grand,
)

_KNOWN_KEYS = frozenset({
    "ensemble.stats", "ensemble.beta", "ensemble.mu", "ensemble.r",
    "ensemble.dispersion",
    "run.lengths", "run.replicas", "run.seed", "run.kind",
    "analysis.epsilon", "analysis.two_sided", "analysis.quad_tol",
    "analysis.tail_tol", "analysis.check_scale",
    "output.format",
})


@dataclass(frozen=True)
class ExperimentConfig:
    stats: Statistics
    beta: float
    mu: float | None
    r: float | None
    dispersion: Dispersion
    lengths: tuple[int, ...]
    replicas: int
    seed: int
    kind: str
    epsilon: float
    two_sided: bool
    quad_tol: float
    tail_tol: float
    check_scale: str
    out_format: str
    config_hash: str


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_dispersion(raw: str) -> Dispersion:
    if raw == "cosine":
        return CosineLattice()
    if raw.startswith("grid:"):
        # TabulatedGrid's DomainError (too few or non-finite values) is a
        # ValueError as well.
        try:
            return TabulatedGrid(tuple(float(v) for v in raw[len("grid:"):].split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad grid dispersion {raw!r}: {exc}") from exc
    raise ConfigError(f"unknown dispersion {raw!r} (use cosine or grid:v0,v1,...)")


def read_config_mapping(path: str | Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = raw
    return mapping


def _hash_mapping(mapping: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    m = read_config_mapping(path)

    def need(key: str) -> str:
        if key not in m:
            raise ConfigError(f"missing required key {key}")
        return m[key]

    stats_raw = need("ensemble.stats").lower()
    try:
        stats = Statistics(stats_raw)
    except ValueError as exc:
        raise ConfigError(f"ensemble.stats must be bose or fermi, got {stats_raw!r}") \
            from exc
    beta = _parse_float("ensemble.beta", need("ensemble.beta"))
    mu = _parse_float("ensemble.mu", m["ensemble.mu"]) if "ensemble.mu" in m else None
    r = _parse_float("ensemble.r", m["ensemble.r"]) if "ensemble.r" in m else None
    if (mu is None) == (r is None):
        raise ConfigError("give exactly one of ensemble.mu and ensemble.r")
    dispersion = _parse_dispersion(m.get("ensemble.dispersion", "cosine"))

    lengths_raw = need("run.lengths")
    try:
        # Every command runs and reports the lengths in ascending order.
        lengths = tuple(sorted(int(tok) for tok in lengths_raw.split(",")))
    except ValueError as exc:
        raise ConfigError(f"run.lengths must be comma-separated integers") from exc
    if not lengths or any(ell < 2 for ell in lengths):
        raise ConfigError("run.lengths must list integers >= 2")
    if len(set(lengths)) != len(lengths):
        raise ConfigError("run.lengths must not repeat a length")
    replicas = _parse_int("run.replicas", m.get("run.replicas", "4"))
    if replicas < 1:
        raise ConfigError("run.replicas must be at least 1")
    seed = _parse_int("run.seed", m.get("run.seed", "0"))
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2**63:
        raise ConfigError(f"run.seed must lie in [0, 2^63), got {seed}")
    kind = m.get("run.kind", "canonical").lower()
    if kind not in ("canonical", "grand"):
        raise ConfigError(f"run.kind must be canonical or grand, got {kind!r}")

    epsilon = _parse_float("analysis.epsilon", m.get("analysis.epsilon", "0.3"))
    if not (0.0 < epsilon < 1.0):
        raise ConfigError("analysis.epsilon must lie in (0, 1)")
    two_sided = _parse_bool("analysis.two_sided", m.get("analysis.two_sided", "false"))
    quad_tol = _parse_float("analysis.quad_tol",
                            m.get("analysis.quad_tol", repr(_DEFAULT_QUAD_TOL)))
    if not (0.0 < quad_tol < math.inf):
        raise ConfigError("analysis.quad_tol must be positive and finite")
    tail_tol = _parse_float("analysis.tail_tol",
                            m.get("analysis.tail_tol", repr(_DEFAULT_TAIL_TOL)))
    if not (0.0 < tail_tol < 1e-6):
        raise ConfigError("analysis.tail_tol must be a small positive mass")
    check_scale = m.get("analysis.check_scale", "full").lower()
    if check_scale not in ("full", "quick"):
        raise ConfigError("analysis.check_scale must be full or quick")

    out_format = m.get("output.format", "both").lower()
    if out_format not in ("csv", "jsonl", "both"):
        raise ConfigError("output.format must be csv, jsonl or both")

    return ExperimentConfig(
        stats=stats, beta=beta, mu=mu, r=r, dispersion=dispersion,
        lengths=lengths, replicas=replicas, seed=seed, kind=kind,
        epsilon=epsilon, two_sided=two_sided, quad_tol=quad_tol,
        tail_tol=tail_tol, check_scale=check_scale,
        out_format=out_format, config_hash=_hash_mapping(m),
    )


def resolve_spec(cfg: ExperimentConfig) -> tuple[EnsembleSpec, float, float]:
    """EnsembleSpec plus (target density, entropy rate in bits per site).

    When the config pins the density, the chemical potential is solved for
    once here; when it pins mu, the density is integrated from the profile.
    """
    try:
        if cfg.mu is not None:
            spec = EnsembleSpec(cfg.stats, cfg.beta, cfg.mu, cfg.dispersion)
            r_eff = particle_density(spec, cfg.quad_tol)
        else:
            mu = solve_mu(cfg.stats, cfg.dispersion, cfg.beta, cfg.r,
                          quad_tol=cfg.quad_tol)
            spec = EnsembleSpec(cfg.stats, cfg.beta, mu, cfg.dispersion)
            r_eff = cfg.r
    except (EnsembleError, TargetRangeError) as exc:
        raise ConfigError(f"ensemble block is inconsistent: {exc}") from exc
    return spec, r_eff, entropy_rate(spec, cfg.quad_tol)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """A table whose columns are the first row's keys, in their order; csv
    writes a float as its repr and None as an empty cell."""
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _emit(out_dir: Path, stem: str, rows: list[dict], fmt: str) -> None:
    if fmt in ("csv", "both"):
        _write_csv(out_dir / f"{stem}.csv", rows)
    if fmt in ("jsonl", "both"):
        _write_jsonl(out_dir / f"{stem}.jsonl", rows)


def _length_sampler(cfg: ExperimentConfig, spec: EnsembleSpec, r_target: float,
                    ell: int) -> CanonicalSampler:
    """The canonical sampler of one length at its total n = round(r ell).
    A total it cannot reach or hold raises, and the command exits 3."""
    return CanonicalSampler(spec, ell, choose_n(r_target, ell).n, tail_tol=cfg.tail_tol)


def _draw_strings(cfg: ExperimentConfig, spec: EnsembleSpec, ell: int,
                  sampler: CanonicalSampler | None,
                  replicas: list[int]) -> Iterator[np.ndarray]:
    """The replicas' strings of one length, in order, drawn as the iterator
    advances: grand ones one at a time when there is no sampler, canonical
    ones one of the sampler's draw blocks at a time.  A caller that drops
    each string before taking the next holds at most one block."""
    if sampler is None:
        yield from (sample_grand(spec, ell, cfg.seed, rep) for rep in replicas)
        return
    for lo, hi in sampler.draw_blocks(len(replicas)):
        yield from sampler.sample_batch(cfg.seed, replicas[lo:hi])


def _replica_rows(cfg: ExperimentConfig, spec: EnsembleSpec, typical: TypicalParams,
                  h_target: float, ell: int, sampler: CanonicalSampler | None,
                  gap_per_site: float | None,
                  replicas: list[int]) -> tuple[list[dict], list[dict]]:
    """Result and timing rows of the replicas at one length.  A row's
    seconds run from asking for its string to finishing the row, so the draw
    of a canonical block counts on the block's first row."""
    rows: list[dict] = []
    times: list[dict] = []
    n = None if sampler is None else sampler.n
    strings = _draw_strings(cfg, spec, ell, sampler, replicas)
    for rep in replicas:
        t1 = time.perf_counter()
        s = next(strings)
        parse = lz78_parse(s)
        counts = classify_words(parse, s, spec, typical)
        del s  # drop the string before the next is drawn
        elapsed = time.perf_counter() - t1
        rows.append({
            "config_hash": cfg.config_hash,
            "kind": cfg.kind,
            "ell": ell,
            "n": n,
            "replica": rep,
            "word_count": parse.word_count,
            "lz_rate": lz_rate(parse),
            "code_rate": code_rate(parse),
            "h_target": h_target,
            "entropy_gap_per_site": gap_per_site,
            "low_typical_words": counts.low_typical,
            "other_typical_words": counts.other_typical,
            "non_typical_words": counts.non_typical,
            "error": None,
        })
        times.append({"ell": ell, "replica": rep, "seconds": elapsed})
    return rows, times


def _chunks(items: list[int], parts: int) -> list[list[int]]:
    parts = max(1, min(parts, len(items)))
    size = math.ceil(len(items) / parts)
    return [items[i:i + size] for i in range(0, len(items), size)]


# A forked worker's bound _replica_rows, set by _init_worker.
_worker_rows = None


def _init_worker(work) -> None:
    global _worker_rows
    _worker_rows = work


def _worker_chunk(chunk: list[int]) -> tuple[list[dict], list[dict]]:
    return _worker_rows(chunk)


def _run_length(cfg: ExperimentConfig, spec: EnsembleSpec, typical: TypicalParams,
                r_target: float, h_target: float, ell: int, workers: int,
                ) -> tuple[list[dict], list[dict]]:
    sampler = None if cfg.kind == "grand" else _length_sampler(cfg, spec, r_target, ell)
    gap_per_site = None if sampler is None else sampler.entropy_gap() / ell

    work = partial(_replica_rows, cfg, spec, typical, h_target, ell, sampler,
                   gap_per_site)
    replicas = list(range(cfg.replicas))
    if workers <= 1 or len(replicas) == 1:
        outputs = [work(replicas)]
    else:
        # Deferred: these imports cost start-up on every one-worker run.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        chunks = _chunks(replicas, workers)
        # Built once here, the length's word profile is inherited by every
        # forked worker instead of rebuilt in each.  So is the sampler: under
        # fork, initargs reach the workers by fork and are never pickled, and
        # only the chunks' replica numbers cross the pipe.
        _word_profile(spec, ell)
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=len(chunks), mp_context=ctx,
                                 initializer=_init_worker, initargs=(work,)) as pool:
            outputs = list(pool.map(_worker_chunk, chunks))
    # Chunks are contiguous and come back in order, so rows stay sorted.
    rows = [row for chunk_rows, _ in outputs for row in chunk_rows]
    times = [row for _, chunk_times in outputs for row in chunk_times]
    return rows, times


def _summarise(cfg: ExperimentConfig, rows: list[dict], h_target: float) -> list[dict]:
    out: list[dict] = []
    for ell in cfg.lengths:
        block = [r for r in rows if r["ell"] == ell]
        rates = np.array([r["lz_rate"] for r in block])
        words = np.array([r["word_count"] for r in block], dtype=float)
        non_typ = sum(r["non_typical_words"] for r in block)
        total_words = int(words.sum())
        se = float(rates.std(ddof=1) / math.sqrt(len(block))) if len(block) > 1 else 0.0
        out.append({
            "config_hash": cfg.config_hash,
            "kind": cfg.kind,
            "ell": ell,
            "n": block[0]["n"],
            "replicas": len(block),
            "h_target": h_target,
            "mean_word_count": float(words.mean()),
            "mean_lz_rate": float(rates.mean()),
            "se_lz_rate": se,
            "rel_dev_from_h": float((rates.mean() - h_target) / h_target),
            "mean_code_rate": float(np.mean([r["code_rate"] for r in block])),
            "non_typical_fraction": non_typ / total_words if total_words else None,
            "mean_low_typical_words": float(
                np.mean([r["low_typical_words"] for r in block])),
            "entropy_gap_per_site": block[0]["entropy_gap_per_site"],
            "error": None,
        })
    return out


def cmd_converge(cfg: ExperimentConfig, out_dir: Path, workers: int) -> int:
    spec, r_target, h_target = resolve_spec(cfg)
    if not h_target > 0.0:
        raise ConfigError(f"entropy rate is {h_target!r}: the ensemble is frozen, "
                          "and converge compares word counts with a positive rate")
    typical = TypicalParams.from_ensemble(spec, cfg.epsilon, two_sided=cfg.two_sided)
    all_rows: list[dict] = []
    all_times: list[dict] = []
    # Lengths ascend, so the rows come out sorted by (ell, replica).
    for ell in cfg.lengths:
        rows, times = _run_length(cfg, spec, typical, r_target, h_target, ell,
                                  workers)
        all_rows.extend(rows)
        all_times.extend(times)
    summaries = _summarise(cfg, all_rows, h_target)
    _emit(out_dir, "results", all_rows, cfg.out_format)
    _emit(out_dir, "summary", summaries, cfg.out_format)
    _write_csv(out_dir / "timings.csv", all_times)
    for s in summaries:
        print(f"ell={s['ell']}: mean_lz_rate={s['mean_lz_rate']:.6f} "
              f"(h={h_target:.6f}, rel_dev={s['rel_dev_from_h']:+.4f}, "
              f"se={s['se_lz_rate']:.2e})")
    return 0


def cmd_sample(cfg: ExperimentConfig, out_dir: Path) -> int:
    spec, r_target, _ = resolve_spec(cfg)
    samples_dir = out_dir / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    manifest: list[dict] = []
    for ell in cfg.lengths:
        sampler = None if cfg.kind == "grand" else \
            _length_sampler(cfg, spec, r_target, ell)
        n, tail = (None, 0.0) if sampler is None else (sampler.n, sampler.truncation_tail)
        replicas = list(range(cfg.replicas))
        strings = _draw_strings(cfg, spec, ell, sampler, replicas)
        for rep in replicas:
            s = next(strings)
            name = f"sample_{cfg.kind}_ell{ell}_rep{rep}.txt"
            # numpy's text writer, one value a line, builds no per-site str.
            with (samples_dir / name).open("w") as fh:
                s.tofile(fh, sep="\n")
                fh.write("\n")
            manifest.append({
                "kind": cfg.kind, "ell": ell, "n": n, "replica": rep,
                "file": name, "sum": int(s.sum()),
                "truncation_tail": tail, "error": None,
            })
            del s  # drop the string before the next is drawn
    _emit(samples_dir, "manifest", manifest, cfg.out_format)
    print(f"wrote {len(manifest)} samples to {samples_dir}")
    return 0


def cmd_parse(cfg: ExperimentConfig, out_dir: Path, inputs: list[str]) -> int:
    rows = []
    for path in inputs:
        try:
            # numpy applies int() to each token; the token list is freed
            # before the parse.
            values = np.array(Path(path).read_text().split(), dtype=np.int64)
        except (OSError, ValueError, OverflowError) as exc:
            raise ConfigError(f"cannot read occupancy file {path}: {exc}") from exc
        parse = lz78_parse(values)
        rows.append({
            "file": Path(path).name,
            "ell": parse.ell,
            "word_count": parse.word_count,
            "lz_rate": lz_rate(parse) if parse.ell >= 2 else None,
            "code_rate": code_rate(parse) if parse.ell >= 2 else None,
        })
    _write_jsonl(out_dir / "parse.jsonl", rows)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def cmd_entropy_gap(cfg: ExperimentConfig, out_dir: Path) -> int:
    spec, r_target, _ = resolve_spec(cfg)
    rows = []
    for ell in cfg.lengths:
        # The gap is a canonical quantity whatever run.kind says.
        sampler = _length_sampler(cfg, spec, r_target, ell)
        gap = sampler.entropy_gap()
        # skipped stays as a column, always False, for readers of the file.
        rows.append({"config_hash": cfg.config_hash, "ell": ell, "n": sampler.n,
                     "cells": sampler.cells, "gap_bits": gap,
                     "gap_per_site": gap / ell, "skipped": False})
    _emit(out_dir, "entropy_gap", rows, cfg.out_format)
    for row in rows:
        print(f"ell={row['ell']}: n={row['n']} gap_bits={row['gap_bits']:.6f} "
              f"per_site={row['gap_per_site']:.6g}")
    return 0


def cmd_check(cfg: ExperimentConfig, out_dir: Path,
              inject_fault: str | None) -> int:
    from . import checks  # deferred: only this command needs the batteries

    spec, _, _ = resolve_spec(cfg)
    scale = checks.BatteryScale.full() if cfg.check_scale == "full" \
        else checks.BatteryScale.quick()
    results = checks.run_batteries(spec, cfg.seed, scale, inject_fault=inject_fault,
                                   tail_tol=cfg.tail_tol, quad_tol=cfg.quad_tol)
    _write_jsonl(out_dir / "check_report.jsonl",
                 [{"name": r.name, "passed": r.passed, "detail": r.detail}
                  for r in results])
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    if failures:
        print(f"{failures} of {len(results)} batteries failed")
        return 2
    print(f"all {len(results)} batteries passed")
    return 0


def _scalar_command(cfg: ExperimentConfig, which: str) -> int:
    if which == "solve-mu" and cfg.r is None:
        raise ConfigError("solve-mu requires ensemble.r in the config")
    spec, _, h_target = resolve_spec(cfg)
    if which == "solve-mu":
        value = spec.mu
    elif which == "density":
        value = particle_density(spec, cfg.quad_tol)
    else:
        value = h_target
    print(repr(float(value)))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the config file")
    common.add_argument("--seed", type=int, default=None,
                        help="override run.seed from the config")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--workers", type=int, default=1,
                        help="process count (default 1)")

    parser = argparse.ArgumentParser(
        prog="gibbslz",
        description="Word-count statistics of Bose/Fermi occupancy strings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("density", parents=[common],
                   help="print the particle density integral")
    sub.add_parser("rate", parents=[common],
                   help="print the entropy rate integral (bits per site)")
    sub.add_parser("solve-mu", parents=[common],
                   help="print the chemical potential matching ensemble.r")
    sub.add_parser("sample", parents=[common],
                   help="write occupancy strings and a manifest")
    p_parse = sub.add_parser("parse", parents=[common],
                             help="parse occupancy files and report word counts")
    p_parse.add_argument("inputs", nargs="+", help="occupancy files (one int per line)")
    sub.add_parser("converge", parents=[common],
                   help="replicated rate study across run.lengths")
    sub.add_parser("entropy-gap", parents=[common],
                   help="exact conditioning entropy cost per length")
    p_check = sub.add_parser("check", parents=[common],
                             help="run the property batteries")
    p_check.add_argument("--inject-fault", default=None, metavar="BATTERY",
                         help="deliberately corrupt one battery (negative control)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("worker count must be at least 1")
        cfg = load_config(args.config, seed_override=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command in ("density", "rate", "solve-mu"):
            return _scalar_command(cfg, args.command)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir)
        if args.command == "parse":
            return cmd_parse(cfg, out_dir, args.inputs)
        if args.command == "converge":
            return cmd_converge(cfg, out_dir, args.workers)
        if args.command == "entropy-gap":
            return cmd_entropy_gap(cfg, out_dir)
        # argparse admits no command but the ones above and check.
        return cmd_check(cfg, out_dir, args.inject_fault)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GibbsLzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

