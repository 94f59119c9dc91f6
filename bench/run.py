"""gibbslz benchmark: runs one workload through the `gibbslz` CLI and prints
its metrics, or fails when an output is wrong.

    python3 bench/run.py --workload ladder-fermi --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the package is used from `src/`
as is (there is nothing to compile).  `--workload all` runs every workload
in turn.  With `--trace 0` the workload's commands run back to back as
subprocesses, as many times as fit in `--seconds` (at least once), and
the end-to-end metrics are medians over those repetitions.  With
`--trace 1` one untraced repetition is followed by the same commands
in-process under spans, which gives the per-layer metrics (see README.md).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Each run also writes a
record stamped with the environment, and for traced runs the spans, under
`.bench_out/`.  Exit status: 0 on success, 1 when the correctness gate
fails, 2 when the checkout holds no package to benchmark.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCES, WORKLOADS, Command, Tally, gate, lengths, nproc, \
    read_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is sampled half before and half after the repetitions, so its
# median spans the run as the repetitions do.
SETUP_REPEATS = 6


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args: list[str], out: Path) -> tuple[float, float, float, int]:
    """(wall s, user+system CPU s, peak RSS MiB, exit code) of one CLI call.

    CPU and peak RSS come from wait4 on this child alone: they include the
    child's reaped pool workers, and no other process this run started.
    """
    out.mkdir(parents=True, exist_ok=True)
    with (out / "stdout.txt").open("wb") as so, (out / "stderr.txt").open("wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gibbslz", *args], stdout=so,
                                stderr=se, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode)


def setup_seconds(cmd: Command, work: Path, tally: Tally) -> list[float]:
    """Wall times of `gibbslz rate` on the workload's first config: start-up,
    imports, config parsing and spec resolution, solve_mu included."""
    times = []
    for i in range(SETUP_REPEATS // 2):
        wall, _, _, code = run_cli(["rate", "--config", str(cmd.config_path),
                                    "--out", str(work / f"setup{i}")], work / f"setup{i}")
        tally.op(code == 0, f"setup rate {cmd.config} exited {code}")
        times.append(wall)
    return times


def repetition(workload: str, seed: int, work: Path, tally: Tally) -> dict[str, float]:
    """One pass over the workload's commands, gated as it goes."""
    wall = cpu = rss = 0.0
    for i, cmd in enumerate(WORKLOADS[workload]):
        out = work / f"cmd{i}"
        shutil.rmtree(out, ignore_errors=True)
        w, c, r, code = run_cli(cmd.argv(seed, out), out)
        gate(cmd, code, out, tally)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def working_set(workload: str) -> dict[str, int]:
    """Bytes of the largest arrays each command handles, computed from the
    config sizes (not measured; cache misses are not counted)."""
    sizes = {}
    for cmd in WORKLOADS[workload]:
        cfg = read_config(cmd.config_path)
        top = max(lengths(cmd))
        if cmd.verb == "converge":
            sizes[f"{cmd.config}: one int64 string at ell={top}"] = 8 * top
            if cfg.get("run.kind", "canonical") == "canonical":
                reps = int(cfg["run.replicas"])
                sizes[f"{cmd.config}: float64 uniforms, {reps} replicas at ell={top}"] = \
                    8 * reps * top
        elif cmd.verb == "entropy-gap":
            n = int(REFERENCES[cmd.config]["r"] * top + 0.5)
            sizes[f"{cmd.config}: float64 suffix DP at ell={top}, n={n}"] = \
                8 * (top + 1) * (n + 1)
        elif cmd.verb == "check":
            sizes[f"{cmd.config}: float64 sampler-tv uniforms, 1e6 x 6"] = 8 * 6 * 10**6
    return sizes


def environment(workload: str) -> dict:
    import numpy
    import scipy
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "git_dirty": bool(status) if rev else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "working_set_bytes_computed": working_set(workload),
    }


def measure(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """Untraced run: set-up samples, then as many repetitions as fit in
    `seconds` (at least one)."""
    first = WORKLOADS[workload][0]
    setup = setup_seconds(first, work, tally)
    reps = []
    t0 = time.perf_counter()
    while tally.correct and (not reps or time.perf_counter() - t0 + statistics.mean(
            r["wall_s"] for r in reps) <= seconds):
        reps.append(repetition(workload, seed, work, tally))
    samples = {k: [r[k] for r in reps] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup + setup_seconds(first, work, tally)
    return samples


def traced(workload: str, seed: int, work: Path, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import tracing

    untraced = repetition(workload, seed, work / "untraced", tally)
    tracer, wall, probes = tracing.traced_run(workload, seed, work / "traced")
    for problem in probes["problems"]:
        tally.law(False, problem)
    for i, (cmd, code) in enumerate(zip(WORKLOADS[workload], probes["exit_codes"])):
        gate(cmd, code, work / "traced" / str(i), tally)
    workers = max(min(cmd.workers, nproc()) for cmd in WORKLOADS[workload])
    metrics = tracing.layer_metrics(tracer, probes, untraced["wall_s"], wall, workers)
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(tracer, OUT / f"{workload}-seed{seed}-spans.jsonl")
    return metrics, {"untraced": untraced, "traced_wall_s": wall}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[Tally, dict]:
    tally = Tally()
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            values, samples = traced(workload, seed, work, tally)
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                   "unit": m["unit"]} for m in wanted}
        else:
            samples = measure(workload, seed, seconds, work, tally)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                                   "unit": m["unit"]} for m in wanted}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(workload), "samples": samples,
              "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.reasons}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tally.correct:
        for name, m in metrics.items():
            count = len(samples[name]) if name in samples else 1
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']} (n={count})")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{workload} fail_frac = {frac:.6g} ({tally.failed} of {tally.attempted} "
          f"operations)")
    for reason in tally.reasons:
        print(f"{workload} FAILED: {reason}", file=sys.stderr)
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gibbslz" / "__init__.py").is_file():
        print(f"no gibbslz package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    for name in names:
        tally, m = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        attempted, failed = attempted + tally.attempted, failed + tally.failed
        correct = correct and tally.correct
        metrics.update(m if len(names) == 1 else
                       {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
