"""Benchmark workloads and the correctness gate that vets their outputs.

A workload is a fixed list of `gibbslz` commands run back to back by one
client (a closed loop).  The gate checks the law the outputs follow, not
their bytes: canonical strings may be drawn by another engine later, which
changes `results.csv` bytes but must not change what these checks test.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCES = json.loads((BENCH / "references.json").read_text())

# Mean lz_rate of a rung may sit this many combined standard errors (the
# run's own and the pooled reference's) from the reference.
RATE_Z = 5.0
GAP_TOL_BITS = 1e-9
H_TOL = 1e-8


@dataclass(frozen=True)
class Command:
    """One `gibbslz` invocation of a workload."""

    verb: str
    config: str
    workers: int = 1
    label: str = ""

    @property
    def config_path(self) -> Path:
        return CONFIGS / self.config

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        workers = min(self.workers, nproc()) if workers is None else workers
        return [self.verb, "--config", str(self.config_path), "--seed", str(seed),
                "--out", str(out), "--workers", str(workers)]


WORKLOADS: dict[str, list[Command]] = {
    "ladder-fermi": [Command("converge", "ladder-fermi.cfg", workers=1)],
    "grand-lz": [Command("converge", "grand-lz.cfg", workers=2)],
    "oracles": [
        Command("check", "check-fermi.cfg", label="fermi"),
        Command("check", "check-bose.cfg", label="bose"),
        Command("entropy-gap", "gap-bose.cfg"),
    ],
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def read_config(path: Path) -> dict[str, str]:
    """The flat `key = value` config format, read without the package."""
    out = {}
    for line in path.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, value = (part.strip() for part in body.split("=", 1))
            out[key] = value
    return out


def lengths(cmd: Command) -> list[int]:
    return [int(tok) for tok in read_config(cmd.config_path)["run.lengths"].split(",")]


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def law(self, ok: bool, reason: str) -> None:
        """A check on the law of a set of outputs; it is not an operation."""
        if not ok:
            self.reasons.append(reason)

    @property
    def correct(self) -> bool:
        return not self.reasons


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def gate_converge(cmd: Command, out: Path, tally: Tally) -> None:
    """Rows error-free with the right n; each ladder decreases, stays above
    h, and matches the reference mean at every rung."""
    cfg = read_config(cmd.config_path)
    ref = REFERENCES[cmd.config]
    replicas = int(cfg["run.replicas"])
    canonical = cfg.get("run.kind", "canonical") == "canonical"
    rows = _read_csv(out / "results.csv")
    rates: dict[int, list[float]] = {ell: [] for ell in lengths(cmd)}
    for row in rows:
        ell = int(row["ell"])
        want_n = str(math.floor(ref["r"] * ell + 0.5)) if canonical else ""
        tally.op(row["error"] == "" and row["n"] == want_n and ell in rates,
                 f"{cmd.config} ell={ell} replica={row['replica']}: n={row['n']!r} "
                 f"(want {want_n!r}), error={row['error']!r}")
        if row["error"] == "":
            rates.setdefault(ell, []).append(float(row["lz_rate"]))
            tally.law(abs(float(row["h_target"]) - ref["h"]) <= H_TOL,
                      f"{cmd.config}: h_target {row['h_target']} != reference {ref['h']}")
    means = []
    for ell, vals in rates.items():
        if len(vals) != replicas:
            tally.law(False, f"{cmd.config} ell={ell}: {len(vals)} good rows, want {replicas}")
            continue
        mean = sum(vals) / replicas
        se = math.sqrt(sum((v - mean) ** 2 for v in vals) / (replicas - 1) / replicas)
        rung = ref["rungs"][str(ell)]
        tol = RATE_Z * math.hypot(se, rung["se"])
        tally.law(abs(mean - rung["mean_lz_rate"]) <= tol,
                  f"{cmd.config} ell={ell}: mean lz_rate {mean:.6f} is more than "
                  f"{RATE_Z} SE ({tol:.2e}) from reference {rung['mean_lz_rate']:.6f}")
        means.append(mean)
    tally.law(all(a > b for a, b in zip(means, means[1:])),
              f"{cmd.config}: mean lz_rate not strictly decreasing: {means}")
    tally.law(all(m > ref["h"] for m in means),
              f"{cmd.config}: mean lz_rate {means} not above h={ref['h']}")


def gate_check(cmd: Command, out: Path, tally: Tally) -> None:
    """Every battery in the report passed."""
    report = out / "check_report.jsonl"
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    tally.law(bool(rows), f"{cmd.config}: empty check report")
    for row in rows:
        tally.op(row["passed"] is True, f"{cmd.config}: battery {row['name']} failed: "
                                        f"{row['detail']}")


def gate_entropy_gap(cmd: Command, out: Path, tally: Tally) -> None:
    """Exact gaps at every length match the stored references."""
    ref = REFERENCES[cmd.config]
    rows = {int(r["ell"]): r for r in _read_csv(out / "entropy_gap.csv")}
    for ell in lengths(cmd):
        row = rows.get(ell)
        want = ref["gap_bits"][str(ell)]
        ok = (row is not None and row["skipped"] == "False"
              and abs(float(row["gap_bits"]) - want) <= GAP_TOL_BITS)
        tally.op(ok, f"{cmd.config} ell={ell}: gap_bits "
                     f"{row and row['gap_bits']!r} vs reference {want!r}")


GATES = {"converge": gate_converge, "check": gate_check, "entropy-gap": gate_entropy_gap}


def gate(cmd: Command, exit_code: int, out: Path, tally: Tally) -> None:
    """Count the command and its outputs into the tally."""
    tally.op(exit_code == 0, f"{cmd.verb} {cmd.config} exited {exit_code}")
    if exit_code != 0:
        return
    try:
        GATES[cmd.verb](cmd, out, tally)
    except (OSError, KeyError, ValueError) as exc:
        tally.law(False, f"{cmd.verb} {cmd.config}: unreadable output: {exc!r}")
