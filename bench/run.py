"""pwcalc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  pwcalc is imported from `src/`; nothing
is installed or built.  With --trace 0 the run starts WORKERS fresh
worker processes one after the other, each timing S / WORKERS seconds of
the workload and continuing at the item where the previous one stopped,
and times CLI_RUNS_PER_WORKER cold runs of the CLI after each.  Every time
it reports is scaled to a fixed host speed by a reference computation
timed next to it (worker.reference).  It prints the end-to-end metrics.
With --trace 1 one traced worker prints the per-layer metrics.  The last
line of stdout is the result object; the line before it records the
environment and the run's details, unscaled times among them.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
WORKERS = 5
CLI_RUNS_PER_WORKER = 3
IMPORTTIME_RUNS = 3
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
REF_NOMINAL_S = 2e-3   # worker.reference()'s time at the speed times are scaled to
CLI_ARGS = ["perspective", "--f", "power:2",
            "--A", str(BENCH / "data" / "cli_A.json"),
            "--B", str(BENCH / "data" / "cli_B.json")]


def cli_output_failure(text: str) -> str | None:
    """power:2 on the fixed pair is 1.5 A: bounded, with operator norm 3."""
    lines = dict(line.split(": ", 1) for line in text.strip().splitlines()
                 if ": " in line)
    try:
        norm = float(lines.get("operator norm", "nan"))
    except ValueError:
        norm = math.nan
    if (lines.get("classification") != "bounded"
            or lines.get("infinity part dimension") != "0"
            or not abs(norm - 3.0) <= 1e-9):
        return f"unexpected CLI output: {text.strip()!r}"
    return None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(argv: list[str]) -> tuple[dict, float]:
    """Start a worker, wait for it, and return its result and launch time."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + argv
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def cli_cold_runs(runs: int) -> tuple[list[float], int]:
    times, bad = [], 0
    for _ in range(runs):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "pwcalc.cli"] + CLI_ARGS,
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        times.append(time.monotonic() - t0)
        failure = (f"CLI exited with code {proc.returncode}"
                   if proc.returncode else cli_output_failure(proc.stdout))
        if failure:
            sys.stderr.write(failure + "\n")
            bad += 1
    return times, bad


def import_times() -> dict:
    """`import pwcalc.cli` and the scipy share of it, from -X importtime."""
    pwcalc_s, scipy_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import pwcalc.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("import pwcalc.cli failed")
        top = scipy = 0
        # lines come children first, indented two spaces per level; walk
        # them backwards to see each import before the imports it caused
        stack: list[tuple[int, bool]] = []   # (depth, inside a scipy import)
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue   # the column header
            module = name.strip()
            depth = len(name) - len(name.lstrip())
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = module == "scipy" or module.startswith("scipy.")
            if module.startswith("pwcalc") and not stack:
                top += int(cumulative)
            if is_scipy and not inside:
                scipy += int(cumulative)
            stack.append((depth, inside or is_scipy))
        pwcalc_s.append(top / 1e6)
        scipy_s.append(scipy / 1e6)
    return {"cli.import_s": statistics.median(pwcalc_s),
            "cli.import.scipy_s": statistics.median(scipy_s)}


def untraced(args) -> tuple[dict, dict, int, int]:
    setups, rss, latencies, failures, cli_times, scales = [], [], [], [], [], []
    scaled: dict[int, list[float]] = {}   # scaled latencies of each (item, call)
    ops = timed = attempted = failed = 0
    start = 0
    env = None
    for _ in range(WORKERS):
        out, launched = run_worker([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / WORKERS), "--start", str(start),
            "--trace", "0"])
        env = env or out["env"]
        setups.append(out["first_op_at"] - launched)
        start = out["next_item"]
        rss.append(out["peak_rss_mb"])
        latencies += out["latencies_ms"]
        # set-up and the CLI runs after it are scaled to the speed at which
        # the reference takes REF_NOMINAL_S, by the worker's median timing
        scales.append(REF_NOMINAL_S / out["reference_s"])
        for kind, ms in zip(out["kinds"], out["scaled_ms"]):
            scaled.setdefault(kind, []).append(ms)
        ops += out["ops"]
        timed += out["timed_s"]
        attempted += out["ops"]
        failed += out["failed"]
        failures += out["failures"]
        # spread over the run, so that a slow spell of the host does not
        # fall on all of them
        times, bad = cli_cold_runs(CLI_RUNS_PER_WORKER)
        cli_times.append(times)
        attempted += len(times)
        failed += bad
    kinds = [statistics.median(v) for v in scaled.values()]
    cuts = statistics.quantiles(kinds, n=100, method="inclusive")
    metrics = {
        "setup_s": statistics.median([k * t for k, t in zip(scales, setups)]),
        "ops_per_s": 1e3 * len(kinds) / sum(kinds),
        "latency_p50_ms": cuts[49],
        "latency_p90_ms": cuts[89],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(rss),
        "cli_cold_s": statistics.median([k * t for k, times in zip(scales, cli_times)
                                         for t in times]),
    }
    every = statistics.quantiles(latencies, n=100, method="inclusive")
    info = {"env": env, "workers": WORKERS, "speed_scales": scales,
            "op_kinds": len(kinds),
            "fewest_runs_of_a_kind": min(map(len, scaled.values())),
            "calls": len(latencies), "ops": ops,
            "unscaled": {"ops_per_s": ops / timed, "latency_p50_ms": every[49],
                         "latency_p90_ms": every[89], "setups_s": setups,
                         "cli_cold_runs_s": cli_times},
            "failures": failures[:10]}
    # p99 is reported only where at least ten samples lie beyond it
    if len(latencies) >= 1000:
        info["unscaled"]["latency_p99_ms"] = every[98]
    return metrics, info, attempted, failed


def traced(args) -> tuple[dict, dict, int, int]:
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace_{args.workload}_seed{args.seed}.jsonl.gz"
    out, _ = run_worker([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(float(args.seconds)), "--trace", "1",
        "--trace-out", str(trace_file)])
    metrics = dict(out["metrics"], **import_times())
    info = {"env": out["env"], "spans": out["spans"], "cycles": out["cycles"],
            "peak_rss_mb": out["peak_rss_mb"],
            "trace_file": str(trace_file.relative_to(ROOT)),
            "failures": out["failures"][:10]}
    return metrics, info, out["attempted"], out["failed"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pwcalc" / "__init__.py").is_file():
        print(f"error: no pwcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    wanted = json.loads(SPEC.read_text())["per_layer" if args.trace
                                            else "end_to_end"]
    try:
        metrics, info, attempted, failed = (traced if args.trace else untraced)(args)
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
