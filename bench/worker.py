"""One benchmark worker process: set up a workload, then time it.

Started by run.py as `python3 bench/worker.py --workload W --seed N
--seconds S --start I --trace 0|1`.  It imports pwcalc, generates the
workload's inputs from the seed, warms up on the first item and then runs
whole items, starting at item I, until S seconds of calls have been timed.
Between items it times a fixed reference computation, so that each call
can be scaled to a fixed host speed (see `reference`).  With --trace 1 it
instead alternates an untraced and a traced pass over all items, so the
per-op counts cover whole cycles and repeat exactly.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from time import perf_counter

import numpy as np

import run
import workloads
from tracer import Tracer

MAX_FAILURE_TEXTS = 5
CLI_MAIN_RUNS = 5
REF_EVERY_S = 0.02     # timed calls between two reference timings
REF_WINDOW = 1         # reference timings each side that set the local speed

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.T
_LARGE = _rng.standard_normal((96, 96))
_LARGE = _LARGE + _LARGE.T


def reference() -> float:
    """Time a fixed computation that uses no pwcalc code: a Python loop,
    small numpy calls and one mid-size eigh, the mix pwcalc's calls make.

    The measuring host's CPU speed changes by up to 2x over seconds to
    minutes (see bench/README.md).  A call's time divided by the time of
    this computation, measured next to it, changes far less."""
    t0 = perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    for _ in range(60):
        np.linalg.eigh(_SMALL)
        _SMALL @ _SMALL
    np.linalg.eigh(_LARGE)
    return perf_counter() - t0


class Stats:
    def __init__(self):
        self.latencies_ms: list[float] = []   # one sample per call, per op
        self.kinds: list[int] = []            # which (item, call) each sample is
        self.ref_of: list[int] = []           # the reference timing before it
        self.refs_s: list[float] = []
        self.since_ref_s = math.inf
        self.ops = 0
        self.calls = 0
        self.failed = 0
        self.timed_s = 0.0
        self.first_op_at = None
        self.failures: list[str] = []

    def maybe_reference(self) -> None:
        if self.since_ref_s >= REF_EVERY_S:
            self.refs_s.append(reference())
            self.since_ref_s = 0.0

    def scaled_ms(self) -> list[float]:
        """Each latency scaled to the speed at which the reference takes
        run.REF_NOMINAL_S, by the median of the reference timings around it."""
        local = []
        for r in range(len(self.refs_s)):
            window = self.refs_s[max(0, r - REF_WINDOW):r + REF_WINDOW + 1]
            local.append(run.REF_NOMINAL_S / statistics.median(window))
        return [ms * local[r] for ms, r in zip(self.latencies_ms, self.ref_of)]

    def record(self, kind: int, seconds: float, ops: int,
               failure: str | None) -> None:
        self.calls += 1
        self.ops += ops
        self.timed_s += seconds
        self.since_ref_s += seconds
        self.latencies_ms.append(seconds * 1e3 / ops)
        self.kinds.append(kind)
        self.ref_of.append(len(self.refs_s) - 1)
        if failure is not None:
            self.failed += ops
            if len(self.failures) < MAX_FAILURE_TEXTS:
                self.failures.append(failure)


def run_item(wl, index: int, st: Stats | None, tracer: Tracer | None = None):
    """Make every call of the workload on item `index`; check each output
    outside the timed region.  `st` None means warm-up: nothing recorded."""
    item = wl.items[index % len(wl.items)]
    prev: dict = {}
    for c, call in enumerate(wl.calls):
        if st is not None and st.first_op_at is None:
            st.first_op_at = time.monotonic()
        if tracer is not None:
            tracer.op = st.calls
            tracer.active = True
        failure = None
        t0 = perf_counter()
        try:
            res = call.run(item, prev)
        except Exception as exc:  # a failed op is counted, the run goes on
            failure = f"{call.name} raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if st is None:
            if failure is None:
                prev[call.name] = res
            continue
        if failure is None:
            prev[call.name] = res
            try:
                failure = call.check(item, res, prev)
            except Exception as exc:
                failure = f"{call.name} check raised {type(exc).__name__}: {exc}"
        st.record((index % len(wl.items)) * len(wl.calls) + c, dt, call.ops,
                  failure)


def timed_run(wl, start: int, seconds: float) -> dict:
    st = Stats()
    index = start
    while st.timed_s < seconds:
        st.maybe_reference()
        run_item(wl, index, st)
        index += 1
    return {"first_op_at": st.first_op_at, "next_item": index,
            "latencies_ms": st.latencies_ms, "scaled_ms": st.scaled_ms(),
            "reference_s": statistics.median(st.refs_s),
            "kinds": st.kinds, "ops": st.ops, "failed": st.failed,
            "timed_s": st.timed_s, "failures": st.failures}


def cli_main_seconds() -> tuple[float, int]:
    """Median in-process time of the CLI perspective command, and how many
    of its outputs failed the check."""
    from pwcalc import cli
    times, bad = [], 0
    for _ in range(CLI_MAIN_RUNS):
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(run.CLI_ARGS)
        times.append(perf_counter() - t0)
        bad += code != 0 or run.cli_output_failure(buf.getvalue()) is not None
    return statistics.median(times), bad


def traced_run(wl, seconds: float, trace_out: str, header: dict) -> dict:
    plain, traced = Stats(), Stats()
    tracer = Tracer()
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for i in range(len(wl.items)):
            run_item(wl, i, plain)
        tracer.install()
        try:
            for i in range(len(wl.items)):
                run_item(wl, i, traced, tracer)
        finally:
            tracer.uninstall()
        now = time.monotonic()
        if now - t_start + (now - t0) > seconds:
            break
    metrics = tracer.per_layer(traced.ops)
    metrics["trace.overhead_ratio"] = traced.timed_s / plain.timed_s
    main_s, cli_bad = cli_main_seconds()
    metrics["cli.main_s"] = main_s
    tracer.write(trace_out, dict(header, ops=traced.ops,
                                 overhead_ratio=metrics["trace.overhead_ratio"]))
    failures = plain.failures + traced.failures
    if cli_bad:
        failures.append(f"{cli_bad} in-process CLI runs gave a wrong output")
    return {"metrics": metrics, "attempted": plain.ops + traced.ops + CLI_MAIN_RUNS,
            "failed": plain.failed + traced.failed + cli_bad,
            "failures": failures, "spans": len(tracer),
            "cycles": traced.ops // sum(c.ops for c in wl.calls) // len(wl.items)}


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", help="span file of a traced run")
    args = p.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    run_item(wl, 0, None)   # warm-up, untimed
    for _ in range(5):
        reference()
    if args.trace:
        header = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "env": environment()}
        out = traced_run(wl, args.seconds, args.trace_out, header)
    else:
        out = timed_run(wl, args.start, args.seconds)
    out["env"] = environment()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
