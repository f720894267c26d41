"""The benchmark's workloads: seeded inputs, the timed calls, output checks.

A workload is a list of generated items and a tuple of calls made on each
item in order; the loop cycles over the items.  Every call reaches the
library through a module attribute looked up at call time, so the tracer's
wrappers see it.  Each check runs outside the timed region and returns a
failure text, or None.  Reference values that cost as much as the call
itself are computed once per item and kept in the item's `memo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pwcalc as pw
from pwcalc import suites, variational
from pwcalc.suites import RandomSpec, gen_pair, random_state

CALC_PROFILES = ("well_conditioned", "rank_deficient", "projection")
TLOGT = pw.catalog("tlogt")
POWER2 = pw.catalog("power", 2)
POWER15 = pw.catalog("power", 1.5)
GEOMETRIC = pw.connection_generator("geometric")
NUMPY_F = {"tlogt": lambda w: w * np.log(w), "power:2": lambda w: w ** 2}
SUITE_TRIALS = 5   # trials per suite call; each trial is one op


@dataclass(frozen=True)
class Call:
    name: str
    run: Callable[[dict, dict], object]    # (item, earlier results) -> result
    check: Callable[[dict, object, dict], str | None]
    ops: int = 1


@dataclass
class Workload:
    items: list
    calls: tuple


# -- numpy references ---------------------------------------------------------

def _herm(M):
    return (M + M.conj().T) / 2


def _close(got, want, rel):
    return abs(got - want) <= rel * (1.0 + abs(want))


def _max_abs(M) -> float:
    return float(np.abs(M).max(initial=0.0))


def _range_contained(A, B) -> bool:
    """range(A) inside range(B), decided by A's mass on ker(B)."""
    w, V = np.linalg.eigh(B)
    ker = V[:, w <= 1e-8 * max(float(w[-1]), 1e-300)]
    if not ker.shape[1]:
        return True
    return _max_abs(ker.conj().T @ A @ ker) <= 1e-8 * max(_max_abs(A), 1e-300)


def _sandwich_trace(name, A, B) -> float:
    """Tr B f(B^-1/2 A B^-1/2) for invertible B (criterion 9)."""
    w, V = np.linalg.eigh(B)
    invh = (V / np.sqrt(w)) @ V.conj().T
    wv, Q = np.linalg.eigh(_herm(invh @ A @ invh))
    fw = (Q * NUMPY_F[name](np.maximum(wv, 1e-300))) @ Q.conj().T
    return float(np.trace(B @ fw).real)


def _psd_power(M, p):
    w, V = np.linalg.eigh(_herm(M))
    return (V * np.maximum(w, 0.0) ** p) @ V.conj().T


def _geometric_mean(A, B):
    """A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2 for invertible A."""
    h, ih = _psd_power(A, 0.5), _psd_power(A, -0.5)
    return h @ _psd_power(ih @ B @ ih, 0.5) @ h


def _form(T):
    V = T.essential.basis
    return V @ T.finite_part @ V.conj().T


def _projector(T):
    V = T.essential.basis
    return V @ V.conj().T


def _memo(item, key, compute):
    memo = item["memo"]
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# -- checks -------------------------------------------------------------------

def _check_perspective(name, f):
    def check(item, res, prev):
        A, B, T = item["A"], item["B"], res.value
        contained = _memo(item, "contained", lambda: _range_contained(A, B))
        if (T.infinity_dim > 0) == contained:
            return (f"{name}: infinity dim {T.infinity_dim} but range(A) "
                    f"{'is' if contained else 'is not'} in range(B)")
        if item["profile"] == "well_conditioned":
            want = _memo(item, ("sandwich", name),
                         lambda: _sandwich_trace(name, A, B))
            if not _close(T.trace(), want, 1e-9):
                return f"{name}: trace {T.trace()!r} != sandwich {want!r}"
        if item["profile"] == "projection":
            ref = _memo(item, ("two_projections", name),
                        lambda: variational.two_projections(f, A, B))
            if ref.infinity_dim != T.infinity_dim:
                return (f"{name}: infinity dim {T.infinity_dim} != "
                        f"two_projections {ref.infinity_dim}")
            if _max_abs(_projector(ref) - _projector(T)) > 1e-8:
                return f"{name}: essential part differs from two_projections"
            if _max_abs(_form(ref) - _form(T)) > 1e-8 * (1 + _max_abs(_form(ref))):
                return f"{name}: finite part differs from two_projections"
        return None
    return check


def _check_state(item, val, prev):
    T, rho = prev["perspective_apply:tlogt"].value, item["rho"]
    if T.infinity_dim:
        return None if val == math.inf else f"evaluate_state {val!r} != inf"
    want = float(np.trace(rho @ _form(T)).real)
    return None if _close(val, want, 1e-9) else f"evaluate_state {val!r} != {want!r}"


def _check_geometric(item, G, prev):
    A, B = item["A"], item["B"]
    scale = 1.0 + _max_abs(A) + _max_abs(B)
    if _max_abs(G - G.conj().T) > 1e-12 * scale:
        return "geometric mean is not Hermitian"
    if np.linalg.eigvalsh(_herm((A + B) / 2 - G))[0] < -1e-9 * scale:
        return "geometric mean exceeds the arithmetic mean"
    if item["profile"] == "well_conditioned":
        want = _memo(item, "geometric", lambda: _geometric_mean(A, B))
        if _max_abs(G - want) > 1e-9 * scale:
            return f"geometric mean off its sandwich form by {_max_abs(G - want):.2e}"
    return None


def _check_lebesgue(item, dec, prev):
    A, B = item["A"], item["B"]
    scale = 1.0 + _max_abs(A)
    if _max_abs(dec.ac_part + dec.singular_part - A) > 1e-9 * scale:
        return "ac part + singular part != A"
    contained = _memo(item, "contained", lambda: _range_contained(A, B))
    if (_max_abs(dec.singular_part) > 1e-8 * scale) == contained:
        return "singular part is nonzero exactly when it should vanish"
    return None


def _check_integral(f):
    def check(item, val, prev):
        direct = _memo(item, ("direct", f.name), lambda: pw.evaluate_state(
            pw.perspective_apply(f, item["A"], item["B"]).value, item["rho"]))
        if math.isinf(val) != math.isinf(direct):
            return f"{f.name}: integral {val!r} vs direct {direct!r}"
        if math.isfinite(direct) and not _close(val, direct, 1e-5):
            return f"{f.name}: integral {val!r} != direct {direct!r}"
        return None
    return check


def _check_suite(key):
    def check(item, report, prev):
        if report.passes != report.trials or report.trials != SUITE_TRIALS:
            return f"{key}: {report.passes}/{report.trials} trials passed"
        return None
    return check


# -- workloads ----------------------------------------------------------------

CALC_CALLS = (
    Call("perspective_apply:tlogt",
         lambda it, prev: pw.perspective_apply(TLOGT, it["A"], it["B"]),
         _check_perspective("tlogt", TLOGT)),
    Call("evaluate_state",
         lambda it, prev: pw.evaluate_state(
             prev["perspective_apply:tlogt"].value, it["rho"]),
         _check_state),
    Call("perspective_apply:power2",
         lambda it, prev: pw.perspective_apply(POWER2, it["A"], it["B"]),
         _check_perspective("power:2", POWER2)),
    Call("connection:geometric",
         lambda it, prev: pw.connection(GEOMETRIC, it["A"], it["B"]),
         _check_geometric),
    Call("lebesgue_decomposition",
         lambda it, prev: pw.lebesgue_decomposition(it["A"], it["B"]),
         _check_lebesgue),
)

R77_TLOGT = variational.repr77_tlogt(200)
R97_T15 = variational.repr97_t_alpha(1.5, 200)
INTEGRAL_CALLS = (
    Call("integral_eval_91:tlogt",
         lambda it, prev: variational.integral_eval_91(
             R77_TLOGT, it["A"], it["B"], it["rho"]),
         _check_integral(TLOGT)),
    Call("integral_eval_92:t^1.5",
         lambda it, prev: variational.integral_eval_92(
             R97_T15, it["A"], it["B"], it["rho"]),
         _check_integral(POWER15)),
)

# suite_convexity is left out: on about 1 seed in 20 it raises NotPsdError
# in its compression step, where V* A1 V of a rank-deficient A1 has a
# roundoff eigenvalue just below require_psd's n eps max slack, e.g.
# suite_convexity(tlogt, RandomSpec(4, 4, "rank_deficient", 110006), 5).
# That is a defect of the library, not of the benchmark; a workload whose
# runs fail at random cannot gate performance.
SUITE_CALLS = (
    Call("suite_axioms_thm103:tlogt",
         lambda it, prev: suites.suite_axioms_thm103(
             it["candidate"], it["spec"], SUITE_TRIALS),
         _check_suite("axioms_thm103"), ops=SUITE_TRIALS),
)


def _finite_share(profile: str, n: int) -> float:
    """gen_pair's probability that range(A) lies in range(B), so that the
    perspectives are bounded: B is drawn at full rank (rank_deficient), or A
    has rank 1 on the shared direction forced in 30% of pairs (projection)."""
    if profile == "rank_deficient":
        return 1 / n
    if profile == "projection":
        return 0.3 / (n - 1)
    return 1.0


def _pairs(profile, n, count, seed, stream, streams):
    """`count` gen_pair pairs, with the share whose range(A) lies in range(B)
    fixed at gen_pair's probability, rounded, instead of drawn.  That share
    picks the code paths being timed: drawn, it moved the integral
    workload's throughput by up to a quarter from seed to seed."""
    want = {True: round(count * _finite_share(profile, n))}
    want[False] = count - want[True]
    spec = RandomSpec(n, n, profile, seed)
    pairs = []
    for k in range(1000 * count):
        # trial numbers interleaved so that no two (profile, n) share a stream
        A, B = gen_pair(spec, k * streams + stream)
        contained = _range_contained(A, B)
        if want[contained]:
            want[contained] -= 1
            pairs.append((A, B, contained))
            if len(pairs) == count:
                return pairs
    raise ValueError(f"gen_pair gave too few pairs of {profile}, n = {n}")


def _pair_items(sizes, profiles, reps, seed):
    """`gen_pair` pairs of each profile and size, with a random state each.
    Interleaved so that a run stopping part-way through the cycle still
    sees every size in equal shares."""
    kinds = [(profile, n) for profile in profiles for n in sizes]
    pairs = {kind: _pairs(*kind, reps, seed, i, len(kinds))
             for i, kind in enumerate(kinds)}
    items = []
    for rep in range(reps):
        for profile, n in kinds:
            A, B, contained = pairs[profile, n][rep]
            rho = random_state(np.random.default_rng((seed, len(items), 1)), n)
            items.append({"profile": profile, "A": A, "B": B, "rho": rho,
                          "memo": {"contained": contained}})
    return items


def build(name: str, seed: int) -> Workload:
    """The named workload's items, generated from `seed`."""
    if name == "calc_small":
        items = _pair_items((2, 3, 4, 5, 6), CALC_PROFILES, 4, seed)
        return Workload(items, CALC_CALLS)
    if name == "calc_large":
        # only full-rank pairs: gen_pair's other profiles draw ranks from
        # 1 to n - 1, which at these sizes set the LAPACK work, and the few
        # pairs a run can time made throughput depend on the seed.  One
        # pair per size, so that each call repeats about ten times a run.
        items = _pair_items((64, 128, 256), ("well_conditioned",), 1, seed)
        return Workload(items, CALC_CALLS)
    if name == "integral":
        items = _pair_items((2, 3, 4), ("well_conditioned", "rank_deficient"),
                            5, seed)
        return Workload(items, INTEGRAL_CALLS)
    if name == "suite":
        candidate = suites.candidate_perspective(TLOGT)
        items = [{"spec": RandomSpec(4, 4, "rank_deficient", seed * 1000 + i),
                  "candidate": candidate} for i in range(20)]
        return Workload(items, SUITE_CALLS)
    raise ValueError(f"unknown workload {name!r}")
