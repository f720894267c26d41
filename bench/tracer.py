"""Span tracer that measures pwcalc's layers from outside the library.

`Tracer.install()` replaces every public function of the pwcalc modules
with a recording wrapper, at every module attribute that binds it (a
`from .linalg import eigh` in another module is a second binding that
patching `pwcalc.linalg` alone would miss).  It also wraps the public
methods and `__call__` of the classes those modules define, and the
`np.linalg.eigh`/`svd` boundary, which is the `lapack` layer.
`uninstall()` puts every original back.

A span is (name, start, end, parent, op id, error flag), kept in flat
arrays while the run lasts.  Wrappers record only while `active` is set,
so the benchmark's own output checks, which call reference paths of the
library, leave no spans.

Run `python3 bench/tracer.py <trace file>` to print the spans written by a
traced benchmark run, summed per span name.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "extended", "functions", "calculus", "perspectives",
          "variational", "suites", "cli")
LAPACK = ("eigh", "svd")
# spans whose first argument is hashed, to count distinct inputs per op
HASHED = ("lapack.eigh", "linalg.require_psd")
PERSPECTIVE = "perspectives.perspective_apply"


def _input_key(x):
    a = np.asarray(x)
    return hash((a.shape, a.dtype.str, a.tobytes()))


def _eigh_work(x) -> int:
    """Sum of n^3 over the (possibly stacked) matrices passed to eigh."""
    shape = np.shape(x)
    if len(shape) < 2:
        return 0
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    return batch * int(shape[-1]) ** 3


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.work: dict[int, int] = {}       # span index -> eigh n^3
        self.inputs: dict[int, int] = {}     # span index -> input hash
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hashed = name in HASHED
        eigh = name == "lapack.eigh"
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op_id.append(tr.op)
            tr.error.append(0)
            tr.end.append(0.0)
            if hashed and args:
                tr.inputs[idx] = _input_key(args[0])
            if eigh and args:
                tr.work[idx] = _eigh_work(args[0])
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.error[idx] = 1
                raise
            finally:
                tr.end[idx] = perf_counter()
                tr._stack.pop()

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"pwcalc.{layer}")
            if mod is None:
                __import__(f"pwcalc.{layer}")
                mod = sys.modules[f"pwcalc.{layer}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                                meth == "__call__" or not meth.startswith("_")):
                            self._patch(obj, meth, self._wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        linalg_mods = [np.linalg, sys.modules.get("numpy.linalg._linalg")]
        for attr in LAPACK:
            orig = getattr(np.linalg, attr)
            wrappers[id(orig)] = (orig, self._wrap(f"lapack.{attr}", orig))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pwcalc" or n.startswith("pwcalc.")]
        for mod in modules + [m for m in linalg_mods if m is not None]:
            for attr, obj in list(vars(mod).items()):
                orig, wrapper = wrappers.get(id(obj), (None, None))
                if orig is obj:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def per_layer(self, ops: int) -> dict:
        """Per-layer counts and self times, each divided by `ops`."""
        n = len(self.start)
        names = self.names
        calls: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        layer_err: dict[str, int] = {}
        selft = self_times(self.parent,
                           [e - s for s, e in zip(self.start, self.end)])
        top_persp = [-1] * n    # outermost perspective_apply span above i
        for i in range(n):
            nm = names[self.name[i]]
            calls[nm] = calls.get(nm, 0) + 1
            layer = nm.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + selft[i]
            layer_err[layer] = layer_err.get(layer, 0) + self.error[i]
            p = self.parent[i]
            if p >= 0 and top_persp[p] >= 0:
                top_persp[i] = top_persp[p]
            elif nm == PERSPECTIVE:
                top_persp[i] = i

        def unique_ratio(name):
            seen: dict[int, set] = {}
            total = 0
            nid = self._ids.get(name)
            for i, key in self.inputs.items():
                if self.name[i] == nid:
                    seen.setdefault(self.op_id[i], set()).add(key)
                    total += 1
            return sum(len(s) for s in seen.values()) / total if total else 0.0

        def per_perspective(name):
            nid = self._ids.get(name)
            persp = sum(1 for i in range(n) if top_persp[i] == i)
            inside = sum(1 for i in range(n)
                         if self.name[i] == nid and top_persp[i] >= 0)
            return inside / persp if persp else 0.0

        out = {
            "lapack.eigh.calls_per_op": calls.get("lapack.eigh", 0) / ops,
            "lapack.eigh.n3_per_op": sum(self.work.values()) / ops,
            "lapack.eigh.unique_ratio": unique_ratio("lapack.eigh"),
            "lapack.eigh.calls_per_perspective": per_perspective("lapack.eigh"),
            "lapack.svd.calls_per_op": calls.get("lapack.svd", 0) / ops,
            "lapack.svd.calls_per_perspective": per_perspective("lapack.svd"),
            "linalg.require_psd.calls_per_op":
                calls.get("linalg.require_psd", 0) / ops,
            "linalg.require_psd.unique_ratio": unique_ratio("linalg.require_psd"),
            "functions.scalar_evals_per_op":
                calls.get("functions.ExtendedFunction.__call__", 0) / ops,
            "calculus.compatible_representation.calls_per_op":
                calls.get("calculus.compatible_representation", 0) / ops,
            "perspectives.perspective_apply.calls_per_op":
                calls.get(PERSPECTIVE, 0) / ops,
            "perspectives.parallel_sum.calls_per_op":
                calls.get("perspectives.parallel_sum", 0) / ops,
            "trace.spans_per_op": n / ops,
        }
        for fn in ("make_extended", "congruence", "add", "form_leq",
                   "evaluate_state"):
            out[f"extended.{fn}.calls_per_op"] = calls.get(f"extended.{fn}", 0) / ops
        for layer in ("lapack",) + LAYERS[:-1]:
            out[f"{layer}.self_s_per_op"] = layer_self.get(layer, 0.0) / ops
            out[f"{layer}.errors_per_op"] = layer_err.get(layer, 0) / ops
        return out

    def write(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines: a header line naming the
        columns and span names, then one [op, parent, name, start, end,
        error] array per span, in the order the spans opened."""
        head = dict(header, names=self.names,
                    columns=["op", "parent", "name", "start_s", "end_s", "error"])
        rows = zip(self.op_id, self.parent, self.name, self.start, self.end,
                   self.error)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(head) + "\n")
            fh.writelines(f"[{o},{p},{n},{s!r},{e!r},{x}]\n"
                          for o, p, n, s, e, x in rows)


def self_times(parents, durations) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= durations[i]
    return own


def summarize(path) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, by self time."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    dur = [r[4] - r[3] for r in rows]
    own = self_times([r[1] for r in rows], dur)
    agg: dict[str, list] = {}
    for i, r in enumerate(rows):
        a = agg.setdefault(head["names"][r[2]], [0, 0.0, 0.0])
        a[0] += 1
        a[1] += dur[i]
        a[2] += own[i]
    return sorted(((k, *v) for k, v in agg.items()), key=lambda t: -t[3])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/tracer.py <trace .jsonl.gz>")
    print(f"{'span':58s} {'calls':>8s} {'total s':>9s} {'self s':>9s}")
    for name, count, total, own in summarize(sys.argv[1]):
        print(f"{name:58s} {count:8d} {total:9.4f} {own:9.4f}")
