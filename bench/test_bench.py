"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The package's own suite does not collect this file (its testpaths is
`tests`).  It takes about a minute: it runs the grand-lz workload in both
modes and one real ladder-fermi `converge` for the negative controls.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Tally, gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, key):
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "grand-lz", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())
    if trace:
        for name in ("sampler.grand_s", "lzparse.parse_s", "lzparse.classify_s",
                     "lzparse.words", "expcli.pool_efficiency"):
            assert last["metrics"][name]["value"] > 0, name


@pytest.fixture(scope="module")
def ladder_output(tmp_path_factory):
    """A real ladder-fermi results.csv, which the gate must accept."""
    out = tmp_path_factory.mktemp("ladder")
    cmd = WORKLOADS["ladder-fermi"][0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-m", "gibbslz", *cmd.argv(7, out)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    with (out / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return cmd, out, rows


def _gate_rows(cmd, out: Path, rows: list[dict]) -> Tally:
    with (out / "results.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    tally = Tally()
    gate(cmd, 0, out, tally)
    return tally


def test_gate_accepts_real_output(ladder_output):
    cmd, out, rows = ladder_output
    tally = _gate_rows(cmd, out, rows)
    assert tally.correct, tally.reasons
    assert tally.attempted == 1 + len(rows)


@pytest.mark.parametrize("column, value", [("n", "wrong"), ("error", "injected")])
def test_gate_rejects_doctored_results(ladder_output, column, value):
    cmd, out, rows = ladder_output
    doctored = [dict(row) for row in rows]
    doctored[3][column] = str(int(doctored[3]["n"]) + 1) if value == "wrong" else value
    tally = _gate_rows(cmd, out, doctored)
    assert not tally.correct
    assert tally.failed == 1
