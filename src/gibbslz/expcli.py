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
import itertools
import json
import math
import sys
import time
from collections.abc import Callable, Iterator
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
from .lzparse import TypicalParams, classify_words, code_rate, lz78_parse, lz_rate
from .sampler import (
    _BLOCK_CELLS,
    _DEFAULT_TAIL_TOL,
    CanonicalSampler,
    _site_energies,
    choose_n,
    marginal_tables,  # not called here; bench/tracing.py wraps this name
    sample_grand,
)


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


# A reader turns a key's raw text into its value or raises a ConfigError
# that names the key, the rule and the text.
_Reader = Callable[[str, str], object]


def _number(kind: type, rule: str,
            ok: Callable[[float], bool] = lambda v: True) -> _Reader:
    """Reader of an int or float (kind) for which ok holds, as rule says."""
    def read(key: str, raw: str):
        try:
            value = kind(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ConfigError(f"{key} must be {rule}, got {raw!r}")
        return value
    return read


def _choice(values: dict | tuple) -> _Reader:
    """_Reader of one of values' names, in any case; values maps each name to
    its value, or is a tuple of names that are their own values."""
    table = values if isinstance(values, dict) else dict(zip(values, values))

    def read(key: str, raw: str):
        try:
            return table[raw.lower()]
        except KeyError:
            raise ConfigError(
                f"{key} must be one of {', '.join(table)}, got {raw!r}") from None
    return read


def _lengths(key: str, raw: str) -> tuple[int, ...]:
    try:
        # Every command runs and reports the lengths in ascending order.
        lengths = tuple(sorted(int(tok) for tok in raw.split(",")))
    except ValueError:
        lengths = ()
    if not lengths or lengths[0] < 2 or len(set(lengths)) != len(lengths):
        raise ConfigError(
            f"{key} must be comma-separated distinct integers >= 2, got {raw!r}")
    return lengths


def _dispersion(key: str, raw: str) -> Dispersion:
    if raw == "cosine":
        return CosineLattice()
    if raw.startswith("grid:"):
        # TabulatedGrid's DomainError (too few or non-finite values) is a
        # ValueError as well.
        try:
            return TabulatedGrid(tuple(float(v) for v in raw[len("grid:"):].split(",")))
        except ValueError as exc:
            raise ConfigError(f"{key} has a bad grid {raw!r}: {exc}") from exc
    raise ConfigError(f"{key} must be cosine or grid:v0,v1,..., got {raw!r}")


_REQUIRED = object()  # the default of a key that a config must set

# Every config key: its ExperimentConfig field, its default text (or
# _REQUIRED, or None for a key whose absence reads as None) and its reader.
_KEYS: dict[str, tuple[str, object, _Reader]] = {
    "ensemble.stats": ("stats", _REQUIRED, _choice({s.value: s for s in Statistics})),
    "ensemble.beta": ("beta", _REQUIRED, _number(float, "a number")),
    "ensemble.mu": ("mu", None, _number(float, "a number")),
    "ensemble.r": ("r", None, _number(float, "a number")),
    "ensemble.dispersion": ("dispersion", "cosine", _dispersion),
    "run.lengths": ("lengths", _REQUIRED, _lengths),
    "run.replicas": ("replicas", "4", _number(int, "an integer >= 1", lambda v: v >= 1)),
    "run.seed": ("seed", "0", _number(int, "an integer in [0, 2^63)",
                                      lambda v: 0 <= v < 2**63)),
    "run.kind": ("kind", "canonical", _choice(("canonical", "grand"))),
    "analysis.epsilon": ("epsilon", "0.3",
                         _number(float, "a number in (0, 1)", lambda v: 0.0 < v < 1.0)),
    "analysis.two_sided": ("two_sided", "false", _choice(
        {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False})),
    "analysis.quad_tol": ("quad_tol", repr(_DEFAULT_QUAD_TOL), _number(
        float, "a positive finite number", lambda v: 0.0 < v < math.inf)),
    "analysis.tail_tol": ("tail_tol", repr(_DEFAULT_TAIL_TOL), _number(
        float, "a small positive mass in (0, 1e-6)", lambda v: 0.0 < v < 1e-6)),
    "analysis.check_scale": ("check_scale", "full", _choice(("full", "quick"))),
    "output.format": ("out_format", "both", _choice(("csv", "jsonl", "both"))),
}


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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = raw
    return mapping


def _hash_mapping(mapping: dict[str, str]) -> str:
    canon = "\n".join(f"{k}={v}" for k, v in sorted(mapping.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """The config of a file, each key read from its text or its default.
    seed_override stands in for run.seed's text; the hash covers only the
    file's contents."""
    m = read_config_mapping(path)
    texts = m if seed_override is None else {**m, "run.seed": str(seed_override)}
    values = {}
    for key, (field, default, read) in _KEYS.items():
        raw = texts.get(key, default)
        if raw is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        values[field] = None if raw is None else read(key, raw)
    if (values["mu"] is None) == (values["r"] is None):
        raise ConfigError("give exactly one of ensemble.mu and ensemble.r")
    return ExperimentConfig(**values, config_hash=_hash_mapping(m))


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


def _draw_blocks(cfg: ExperimentConfig, spec: EnsembleSpec, ell: int,
                 sampler: CanonicalSampler | None,
                 replicas: list[int]) -> Iterator[np.ndarray]:
    """The replicas' strings of one length, in order, as (m, ell) blocks
    drawn as the iterator advances: a grand string is a block of one when
    there is no sampler, and canonical blocks are the sampler's draw blocks.
    A caller that drops each block before taking the next holds at most one."""
    if sampler is None:
        yield from (sample_grand(spec, ell, cfg.seed, rep)[None] for rep in replicas)
        return
    for lo, hi in sampler.draw_blocks(len(replicas)):
        yield sampler.sample_batch(cfg.seed, replicas[lo:hi])


def _draw_strings(cfg: ExperimentConfig, spec: EnsembleSpec, ell: int,
                  sampler: CanonicalSampler | None,
                  replicas: list[int]) -> Iterator[np.ndarray]:
    """The rows of _draw_blocks one string at a time; chain lets go of a
    block before it draws the next."""
    return itertools.chain.from_iterable(_draw_blocks(cfg, spec, ell, sampler, replicas))


def _replica_rows(cfg: ExperimentConfig, spec: EnsembleSpec, typical: TypicalParams,
                  h_target: float, ell: int, sampler: CanonicalSampler | None,
                  gap_per_site: float | None,
                  replicas: list[int]) -> tuple[list[dict], list[dict]]:
    """Result and timing rows of the replicas at one length, drawn, parsed
    and classified one draw block at a time.  A row's seconds are its
    string's parse; the block's first row also counts the block's draw and
    classification."""
    rows: list[dict] = []
    times: list[dict] = []
    n = None if sampler is None else sampler.n
    done = 0
    t0 = time.perf_counter()
    for block in _draw_blocks(cfg, spec, ell, sampler, replicas):
        parses, seconds = [], []
        for s in block:
            t1 = time.perf_counter()
            parses.append(lz78_parse(s))
            seconds.append(time.perf_counter() - t1)
        counts = classify_words(parses, block, spec, typical)
        del s, block  # drop the block before the next is drawn
        seconds[0] = time.perf_counter() - t0 - sum(seconds[1:])
        reps = replicas[done:done + len(parses)]
        done += len(parses)
        for rep, parse, count, elapsed in zip(reps, parses, counts, seconds):
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
                "low_typical_words": count.low_typical,
                "other_typical_words": count.other_typical,
                "non_typical_words": count.non_typical,
                "error": None,
            })
            times.append({"ell": ell, "replica": rep, "seconds": elapsed})
        t0 = time.perf_counter()
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
    # The cache builds a new length's energies before it evicts the old
    # ones, so the last length's are freed first.
    _site_energies.cache_clear()
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
        # Built once here (a sampler's build has built them already), the
        # length's site energies are inherited by every forked worker
        # instead of rebuilt in each.  So is the sampler: under fork,
        # initargs reach the workers by fork and are never pickled, and only
        # the chunks' replica numbers cross the pipe.
        _site_energies(spec, ell)
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


def cmd_converge(cfg: ExperimentConfig, out_dir: Path, args: argparse.Namespace) -> int:
    spec, r_target, h_target = resolve_spec(cfg)
    if not h_target > 0.0:
        raise ConfigError(f"entropy rate is {h_target!r}: the ensemble is frozen, "
                          "and converge compares word counts with a positive rate")
    typical = TypicalParams.from_ensemble(spec, cfg.epsilon, two_sided=cfg.two_sided)
    # Lengths ascend, so the rows come out sorted by (ell, replica).
    outputs = [_run_length(cfg, spec, typical, r_target, h_target, ell, args.workers)
               for ell in cfg.lengths]
    all_rows = [row for rows, _ in outputs for row in rows]
    all_times = [row for _, times in outputs for row in times]
    summaries = _summarise(cfg, all_rows, h_target)
    _emit(out_dir, "results", all_rows, cfg.out_format)
    _emit(out_dir, "summary", summaries, cfg.out_format)
    _write_csv(out_dir / "timings.csv", all_times)
    for s in summaries:
        print(f"ell={s['ell']}: mean_lz_rate={s['mean_lz_rate']:.6f} "
              f"(h={h_target:.6f}, rel_dev={s['rel_dev_from_h']:+.4f}, "
              f"se={s['se_lz_rate']:.2e})")
    return 0


def cmd_sample(cfg: ExperimentConfig, out_dir: Path, args: argparse.Namespace) -> int:
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


def _read_occupancies(path: str) -> np.ndarray:
    """The whitespace-separated integers of a file, converted in runs of
    lines of about _BLOCK_CELLS characters, so no token list spans the file.
    Nonnegative values are stored in the narrowest unsigned dtype, as the
    samplers store strings: a one-to-one recoding of the symbols, which
    leaves the parse unchanged."""
    runs = [np.empty(0, dtype=np.uint8)]
    with open(path) as fh:
        while lines := fh.readlines(_BLOCK_CELLS):
            # numpy applies int() to each token.
            run = np.array(" ".join(lines).split(), dtype=np.int64)
            if run.min(initial=0) >= 0:
                run = run.astype(np.min_scalar_type(run.max(initial=0)))
            runs.append(run)
    # Unsigned runs widen to the widest one's dtype; a run with a negative
    # value stays int64 and makes the whole file int64.
    signed = any(run.dtype.kind == "i" for run in runs)
    return np.concatenate(runs, dtype=np.int64 if signed else None)


def cmd_parse(cfg: ExperimentConfig, out_dir: Path, args: argparse.Namespace) -> int:
    rows = []
    for path in args.inputs:
        try:
            values = _read_occupancies(path)
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


def cmd_entropy_gap(cfg: ExperimentConfig, out_dir: Path,
                    args: argparse.Namespace) -> int:
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


def cmd_check(cfg: ExperimentConfig, out_dir: Path, args: argparse.Namespace) -> int:
    from . import checks  # deferred: only this command needs the batteries

    spec, _, _ = resolve_spec(cfg)
    scale = checks.BatteryScale.full() if cfg.check_scale == "full" \
        else checks.BatteryScale.quick()
    results = checks.run_batteries(spec, cfg.seed, scale, inject_fault=args.inject_fault,
                                   tail_tol=cfg.tail_tol, quad_tol=cfg.quad_tol)
    _write_jsonl(out_dir / "check_report.jsonl",
                 [{"name": r.name, "passed": r.passed, "detail": r.detail}
                  for r in results])
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failures = sum(not r.passed for r in results)
    if failures:
        print(f"{failures} of {len(results)} batteries failed")
        return 2
    print(f"all {len(results)} batteries passed")
    return 0


def _scalar_command(cfg: ExperimentConfig, out_dir: Path,
                    args: argparse.Namespace) -> int:
    if args.command == "solve-mu" and cfg.r is None:
        raise ConfigError("solve-mu requires ensemble.r in the config")
    spec, _, h_target = resolve_spec(cfg)
    if args.command == "solve-mu":
        value = spec.mu
    elif args.command == "density":
        value = particle_density(spec, cfg.quad_tol)
    else:
        value = h_target
    print(repr(float(value)))
    return 0


# Every command: its help line and its handler, which takes (cfg, out_dir,
# args) and returns the exit code.
_COMMANDS = {
    "density": ("print the particle density integral", _scalar_command),
    "rate": ("print the entropy rate integral (bits per site)", _scalar_command),
    "solve-mu": ("print the chemical potential matching ensemble.r", _scalar_command),
    "sample": ("write occupancy strings and a manifest", cmd_sample),
    "parse": ("parse occupancy files and report word counts", cmd_parse),
    "converge": ("replicated rate study across run.lengths", cmd_converge),
    "entropy-gap": ("exact conditioning entropy cost per length", cmd_entropy_gap),
    "check": ("run the property batteries", cmd_check),
}


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
    parsers = {name: sub.add_parser(name, parents=[common], help=help_line)
               for name, (help_line, _) in _COMMANDS.items()}
    parsers["parse"].add_argument("inputs", nargs="+",
                                  help="occupancy files (one int per line)")
    parsers["check"].add_argument(
        "--inject-fault", default=None, metavar="BATTERY",
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
        return _COMMANDS[args.command][1](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GibbsLzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
