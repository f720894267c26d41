"""The benchmark's own test.  Run from the repository root:

    python3 bench/selftest.py

It checks that the traced counts are exact (two traced runs of one seed
give identical counts, and a perspective_apply makes 7 eigh and 0-1 svd
calls on the seed code), that a suite's canonical report repeats for one
seed, that the result lines follow BENCHMARK.json, and that the benchmark
fails without printing a result where the sources are missing.  Takes
about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("_calls_per_op", "_n3_per_op", "_unique_ratio", "_per_perspective",
         "scalar_evals_per_op", "spans_per_op")


def bench(workload: str, seed: int, seconds: float, trace: int,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    return out


def test_perspective_lapack_counts():
    import pwcalc as pw
    from pwcalc.suites import RandomSpec, gen_pair
    from tracer import Tracer
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for trial in range(5):
            A, B = gen_pair(RandomSpec(2, 6, profile, 5), trial)
            tr = Tracer()
            tr.install()
            try:
                tr.op, tr.active = 0, True
                pw.perspective_apply(pw.catalog("tlogt"), A, B)
            finally:
                tr.active = False
                tr.uninstall()
            m = tr.per_layer(1)
            assert m["perspectives.perspective_apply.calls_per_op"] == 1
            assert m["lapack.eigh.calls_per_perspective"] == 7, (profile, m)
            assert m["lapack.svd.calls_per_perspective"] in (0, 1), (profile, m)
    assert pw.perspective_apply.__module__ == "pwcalc.perspectives"
    assert not hasattr(pw.perspective_apply, "__wrapped__"), "tracer left installed"


def test_traced_counts_repeat():
    names = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        first, second = (result(bench(w["name"], 3, s, 1))["metrics"]
                         for s in (1, 2))
        assert set(first) == names, set(first) ^ names
        for name, m in first.items():
            if name.endswith(EXACT):
                assert m["value"] == second[name]["value"], (w["name"], name)
        if first["perspectives.perspective_apply.calls_per_op"]["value"]:
            assert first["lapack.eigh.calls_per_perspective"]["value"] == 7
        print(f"  {w['name']}: traced counts repeat")


def test_suite_report_repeats():
    import workloads
    reports = []
    for _ in range(2):
        wl = workloads.build("suite", 4)
        reports.append([call.run(wl.items[0], {}).canonical_json()
                        for call in wl.calls])
    assert reports[0] == reports[1]


def test_untraced_metrics():
    out = result(bench("calc_small", 5, 2, 0))
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values()), out


def test_fails_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("calc_small", 1, 1, 0, cwd=Path(tmp))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            print(name)
            fn()
    print("ok")
