"""Seeded generators, property/axiom suites and report emission.

Every suite is a falsifier: it samples necessary conditions of a theorem and
records violations as replayable failure records.  A pass is evidence, a
failure is a certificate.  "SOT" predicates are entrywise with explicit
tolerances, the honest finite-dimensional surrogate.

Reports are deterministic: identical (seed, spec, flags) produce identical
canonical serializations.  The mandated wall_time_ms field is the single
non-deterministic entry, so the canonical form (and the determinism
guarantee) excludes exactly that field.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    HomogeneousFunction,
    PreconditionError,
    pw_apply,
    pw_apply_restricted,
)
from .extended import (
    ExtendedSelfAdjoint,
    INF,
    add,
    congruence,
    evaluate_state,
    form_leq,
    from_matrix,
)
from .functions import CLOSED_POS, ExtendedFunction
from .linalg import (
    hermitian_part,
    eigh,
    spectral_norm,
    vector_state,
)
from .perspectives import (
    connection,
    epsilon_limit,
    epsilon_monotone,
    parallel_sum,
    perspective_apply,
    perspective_of,
)

SLACK_REL = 1e-8


def t_cubed() -> ExtendedFunction:
    """Convex but not operator convex; the stock falsifier."""
    return ExtendedFunction("t3", CLOSED_POS, lambda t: t ** 3,
                            f_at_0plus=0.0, fprime_at_inf=INF, f_at_1=1.0)


@dataclass(frozen=True)
class RandomSpec:
    """Deterministic generation request: dims, spectrum profile, seed."""

    dim_lo: int
    dim_hi: int
    profile: str = "well_conditioned"
    seed: int = 0
    params: tuple = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


def trial_rng(spec: RandomSpec, trial: int) -> np.random.Generator:
    return np.random.default_rng((spec.seed, trial))


def aux_rng(spec: RandomSpec, trial: int, tag: int = 1) -> np.random.Generator:
    """Secondary per-trial stream, independent of the gen_pair stream.

    gen_pair re-derives (seed, trial) internally; drawing auxiliary inputs
    from that same stream would replay its bytes and correlate 'independent'
    matrices (homogeneity then hides genuine violations).
    """
    return np.random.default_rng((spec.seed, trial, tag))


def haar_unitary(rng, n: int) -> np.ndarray:
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(X)
    return Q * np.sign(np.diag(R).real)


def random_isometry(rng, n: int, k: int) -> np.ndarray:
    return haar_unitary(rng, n)[:, :k]


def random_psd(rng, n: int, rank: int | None = None,
               lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    U = haar_unitary(rng, n)
    w = rng.uniform(lo, hi, size=n)
    if rank is not None:
        w[rank:] = 0.0
    return hermitian_part((U * w) @ U.conj().T)


def random_state(rng, n: int) -> np.ndarray:
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(X @ X.conj().T) / n


def gen_pair(spec: RandomSpec, trial: int = 0):
    """Deterministic PSD pair with the requested spectrum profile."""
    rng = trial_rng(spec, trial)
    n = int(rng.integers(spec.dim_lo, spec.dim_hi + 1))
    profile = spec.profile
    if profile == "well_conditioned":
        return random_psd(rng, n), random_psd(rng, n)
    if profile == "rank_deficient":
        k = spec.param("rank") or int(rng.integers(1, max(2, n)))
        A = random_psd(rng, n, rank=min(k, n))
        B = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        return A, B
    if profile == "projection":
        ka = int(rng.integers(1, n))
        kb = int(rng.integers(1, n))
        U = haar_unitary(rng, n)
        V = haar_unitary(rng, n)
        if rng.uniform() < 0.3:  # force a shared range direction
            V = V.copy()
            V[:, 0] = U[:, 0]
            Q, R = np.linalg.qr(V)
            V = Q * np.sign(np.diag(R).real)
        P = hermitian_part(U[:, :ka] @ U[:, :ka].conj().T)
        Qp = hermitian_part(V[:, :kb] @ V[:, :kb].conj().T)
        return P, Qp
    if profile == "commuting_pair":
        U = haar_unitary(rng, n)
        wa = np.where(rng.uniform(size=n) < 0.25, 0.0, rng.uniform(0.2, 2.0, n))
        wb = np.where(rng.uniform(size=n) < 0.25, 0.0, rng.uniform(0.2, 2.0, n))
        A = hermitian_part((U * wa) @ U.conj().T)
        B = hermitian_part((U * wb) @ U.conj().T)
        return A, B
    if profile == "dominated_pair":
        alpha = spec.param("alpha", 0.5)
        B = random_psd(rng, n)
        A = hermitian_part(alpha * B + random_psd(rng, n, lo=0.1, hi=1.0))
        return A, B
    raise ValueError(f"unknown profile {spec.profile!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def mat_payload(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"re": [[float(x.real) for x in row] for row in M],
            "im": [[float(x.imag) for x in row] for row in M]}


def payload_mat(p: dict) -> np.ndarray:
    return np.array(p["re"], dtype=float) + 1j * np.array(p["im"], dtype=float)


def vec_payload(v) -> dict | None:
    if v is None:
        return None
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"re": [float(x.real) for x in v], "im": [float(x.imag) for x in v]}


@dataclass
class SuiteReport:
    suite_name: str
    seed: int
    trials: int
    passes: int
    failures: list
    wall_time_ms: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def payload(self, with_wall_time: bool = True) -> dict:
        out = {
            "suite": self.suite_name,
            "seed": self.seed,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
        }
        if with_wall_time:
            out["wall_time_ms"] = self.wall_time_ms
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization (wall time excluded)."""
        return json.dumps(self.payload(with_wall_time=False), sort_keys=True,
                          separators=(",", ":"))

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _finish(name, seed, trials, failures, t0, notes=None) -> SuiteReport:
    failures.sort(key=lambda rec: rec.get("trial", 0))
    return SuiteReport(name, seed, trials, trials - len({f["trial"] for f in failures}),
                       failures, (time.perf_counter() - t0) * 1e3, notes or [])


def _scale_of(*elements) -> float:
    s = 1.0
    for T in elements:
        if isinstance(T, ExtendedSelfAdjoint):
            s = max(s, 1.0 + float(np.abs(T.finite_part).max(initial=0.0)))
        else:
            s = max(s, 1.0 + float(np.abs(np.asarray(T)).max(initial=0.0)))
    return s


# ---------------------------------------------------------------------------
# Convexity suite (subadditivity, compressions, monotonicity; restricted mode)
# ---------------------------------------------------------------------------

def suite_convexity(f, spec: RandomSpec, trials: int = 500) -> SuiteReport:
    """Joint subadditivity, contraction/isometry compression, and (when the
    tags allow) monotone decrease in the first argument; for restricted
    concave diagonals the reversed inequalities on dominated pairs.
    """
    t0 = time.perf_counter()
    failures = []
    if isinstance(f, ExtendedFunction) and f.has_tag("restricted_concave"):
        f = HomogeneousFunction(f.name, f, 0.0, INF, variant="ge")
    if isinstance(f, HomogeneousFunction) and f.variant != "full":
        for trial in range(trials):
            rec = _restricted_concave_trial(f, spec, trial)
            if rec:
                failures.append(rec)
        return _finish(f"convexity:{f.name}", spec.seed, trials, failures, t0)
    phi = perspective_of(f, assert_convex=True) if isinstance(f, ExtendedFunction) else f
    monotone = (isinstance(f, ExtendedFunction)
                and f.has_tag("operator_monotone_decreasing")
                and phi.corner_x <= 0.0)
    for trial in range(trials):
        rng = aux_rng(spec, trial)
        A1, B1 = gen_pair(spec, trial)
        n = A1.shape[0]
        A2 = random_psd(rng, n)
        B2 = random_psd(rng, n)
        lhs = pw_apply(phi, hermitian_part(A1 + A2), hermitian_part(B1 + B2))
        rhs = add(pw_apply(phi, A1, B1), pw_apply(phi, A2, B2))
        slack = SLACK_REL * _scale_of(lhs, rhs)
        ok, witness = form_leq(lhs, rhs, slack)
        if not ok:
            failures.append({
                "trial": trial, "check": "subadditivity",
                "inputs": {"A1": mat_payload(A1), "B1": mat_payload(B1),
                           "A2": mat_payload(A2), "B2": mat_payload(B2)},
                "witness": vec_payload(witness), "slack": slack,
            })
            continue
        k = max(1, n - 1)
        V = random_isometry(rng, n, k)
        left = pw_apply(phi, hermitian_part(V.conj().T @ A1 @ V),
                        hermitian_part(V.conj().T @ B1 @ V))
        right = congruence(V, pw_apply(phi, A1, B1))
        slack = SLACK_REL * _scale_of(left, right)
        ok, witness = form_leq(left, right, slack)
        if not ok:
            failures.append({
                "trial": trial, "check": "isometry_compression",
                "inputs": {"A": mat_payload(A1), "B": mat_payload(B1),
                           "V": mat_payload(V)},
                "witness": vec_payload(witness), "slack": slack,
            })
            continue
        C = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        C /= max(1.0, spectral_norm(C))
        left = pw_apply(phi, hermitian_part(C.conj().T @ A1 @ C),
                        hermitian_part(C.conj().T @ B1 @ C))
        right = congruence(C, pw_apply(phi, A1, B1))
        slack = SLACK_REL * _scale_of(left, right)
        ok, witness = form_leq(left, right, slack)
        if not ok:
            failures.append({
                "trial": trial, "check": "contraction",
                "inputs": {"A": mat_payload(A1), "B": mat_payload(B1),
                           "C": mat_payload(C)},
                "witness": vec_payload(witness), "slack": slack,
            })
            continue
        if monotone:
            Abig = hermitian_part(A1 + random_psd(rng, n, lo=0.1, hi=0.5))
            hi = pw_apply(phi, A1, B1)
            lo = pw_apply(phi, Abig, B1)
            slack = SLACK_REL * _scale_of(hi, lo)
            ok, witness = form_leq(lo, hi, slack)
            if not ok:
                failures.append({
                    "trial": trial, "check": "monotone_decreasing",
                    "inputs": {"A1": mat_payload(A1), "A2": mat_payload(Abig),
                               "B": mat_payload(B1)},
                    "witness": vec_payload(witness), "slack": slack,
                })
    return _finish(f"convexity:{phi.name}", spec.seed, trials, failures, t0)


def _restricted_concave_trial(phi: HomogeneousFunction, spec: RandomSpec,
                              trial: int):
    """Reversed (superadditivity) inequality on dominated pairs."""
    rng = aux_rng(spec, trial)
    dspec = RandomSpec(spec.dim_lo, spec.dim_hi, "dominated_pair", spec.seed,
                       (("alpha", 0.5),))
    A1, B1 = gen_pair(dspec, trial)
    n = A1.shape[0]
    B2 = random_psd(rng, n)
    A2 = hermitian_part(0.5 * B2 + random_psd(rng, n, lo=0.1, hi=1.0))
    side = "ge" if phi.variant == "ge" else "le"
    if side == "le":  # the le cone needs A <= alpha B, so swap the roles
        A1, B1 = B1, A1
        A2, B2 = B2, A2
    lhs = pw_apply_restricted(phi, hermitian_part(A1 + A2),
                              hermitian_part(B1 + B2), side=side)
    rhs = add(pw_apply_restricted(phi, A1, B1, side=side),
              pw_apply_restricted(phi, A2, B2, side=side))
    slack = SLACK_REL * _scale_of(lhs, rhs)
    ok, witness = form_leq(rhs, lhs, slack)  # superadditive: rhs <= lhs
    if ok:
        return None
    return {
        "trial": trial, "check": "superadditivity",
        "inputs": {"A1": mat_payload(A1), "B1": mat_payload(B1),
                   "A2": mat_payload(A2), "B2": mat_payload(B2)},
        "witness": vec_payload(witness), "slack": slack,
    }


# ---------------------------------------------------------------------------
# Continuity suite
# ---------------------------------------------------------------------------

def suite_continuity(f: ExtendedFunction, spec: RandomSpec,
                     trials: int = 50) -> SuiteReport:
    """Decreasing-chain convergence (bounded case), liminf semicontinuity,
    and the diagonal-shift monotone limit; expected scalar blowups are
    recorded as notes, never as failures.
    """
    t0 = time.perf_counter()
    failures = []
    notes = []
    connection_mode = (f.has_tag("operator_monotone")
                       and f.has_tag("nonnegative"))
    for trial in range(trials):
        rng = aux_rng(spec, trial)
        A, B = gen_pair(spec, trial)
        n = A.shape[0]
        D = random_psd(rng, n, lo=0.2, hi=1.0)
        E = random_psd(rng, n, lo=0.2, hi=1.0)
        if connection_mode:
            base = connection(f, A, B)
            An = A + 2.0 ** -30 * D
            Bn = B + 2.0 ** -30 * E
            dev = np.abs(connection(f, An, Bn) - base).max()
            if dev > 1e-6 * _scale_of(base):
                failures.append({
                    "trial": trial, "check": "decreasing_chain",
                    "inputs": {"A": mat_payload(A), "B": mat_payload(B),
                               "D": mat_payload(D), "E": mat_payload(E)},
                    "witness": None, "slack": 1e-6 * _scale_of(base),
                    "lhs": dev,
                })
            continue
        # liminf semicontinuity along an entrywise-convergent sequence; the
        # sampled tail must sit close to the limit, since early entries of a
        # decreasing approach legitimately lie below the limit value
        rho = random_state(rng, n)
        direct = evaluate_state(perspective_apply(f, A, B).value, rho)
        tail = []
        for k in (26, 28, 30, 32):
            t = 2.0 ** -k
            val = evaluate_state(
                perspective_apply(f, hermitian_part(A + t * D),
                                  hermitian_part(B + t * E)).value, rho)
            tail.append(val)
        finite_tail = [v for v in tail if math.isfinite(v)]
        if math.isfinite(direct):
            floor = min(finite_tail) if finite_tail else INF
            if direct > floor + 1e-6 * _scale_of(A, B):
                failures.append({
                    "trial": trial, "check": "lower_semicontinuity",
                    "inputs": {"A": mat_payload(A), "B": mat_payload(B),
                               "D": mat_payload(D), "E": mat_payload(E)},
                    "witness": None, "lhs": direct, "rhs": floor,
                    "slack": 1e-6 * _scale_of(A, B),
                })
                continue
        # diagonal shift: monotone state evaluations for the f(1)=0 shift
        f1 = f.f_at_1 if f.f_at_1 is not None else f(1.0)
        f0 = ExtendedFunction(f"{f.name}-centered", f.domain,
                              lambda t, f=f, f1=f1: f(t) - f1,
                              tags=f.tags)
        entries = epsilon_limit(f0, A, B)
        if not epsilon_monotone(entries, rho, slack=1e-10):
            failures.append({
                "trial": trial, "check": "shift_monotonicity",
                "inputs": {"A": mat_payload(A), "B": mat_payload(B)},
                "witness": None, "slack": 1e-10,
            })
    if not connection_mode and (f.fprime_at_inf == INF or f.f_at_0plus == INF):
        # scalar pairs shrinking at mismatched rates can blow up; expected
        phi = perspective_of(f, assert_convex=True)
        vals = [phi.bivariate(2.0 ** -k, 8.0 ** -k) for k in range(1, 12)]
        if vals[-1] > 1e2 * max(1.0, abs(vals[0])):
            notes.append({"expected_divergence": "scalar pair (2^-n X, 8^-n X)",
                          "terminal": vals[-1]})
    return _finish(f"continuity:{f.name}", spec.seed, trials, failures, t0,
                   notes)


# ---------------------------------------------------------------------------
# Axiom suites
# ---------------------------------------------------------------------------

def suite_axioms_thm101(candidate, spec: RandomSpec,
                        trials: int = 100) -> SuiteReport:
    """Bounded-calculus axioms: operator homogeneity, direct sums,
    floored-sequence continuity, diagonal-shift continuity.
    """
    t0 = time.perf_counter()
    failures = []
    for trial in range(trials):
        rng = aux_rng(spec, trial)
        A, B = gen_pair(spec, trial)
        n = A.shape[0]
        scale = _scale_of(A, B)
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = candidate(hermitian_part(C.conj().T @ A @ C),
                        hermitian_part(C.conj().T @ B @ C))
        rhs = C.conj().T @ candidate(A, B) @ C
        if np.abs(lhs - rhs).max() > 1e-7 * _scale_of(lhs, rhs) * scale:
            failures.append({
                "trial": trial, "check": "operator_homogeneity",
                "inputs": {"A": mat_payload(A), "B": mat_payload(B),
                           "C": mat_payload(C)},
                "witness": None,
                "lhs": float(np.abs(lhs - rhs).max()),
                "slack": 1e-7 * _scale_of(lhs, rhs) * scale,
            })
            continue
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        blockA = np.block([[A, np.zeros((n, n))], [np.zeros((n, n)), A2]])
        blockB = np.block([[B, np.zeros((n, n))], [np.zeros((n, n)), B2]])
        whole = candidate(hermitian_part(blockA), hermitian_part(blockB))
        parts = np.block([
            [candidate(A, B), np.zeros((n, n))],
            [np.zeros((n, n)), candidate(A2, B2)],
        ])
        if np.abs(whole - parts).max() > 1e-8 * _scale_of(whole, parts):
            failures.append({
                "trial": trial, "check": "direct_sum",
                "inputs": {"A": mat_payload(A), "B": mat_payload(B),
                           "A2": mat_payload(A2), "B2": mat_payload(B2)},
                "witness": None, "slack": 1e-8 * _scale_of(whole, parts),
            })
            continue
        # floored SOT surrogate: A_k -> A with A_k + B_k >= 0.5 I
        eye = np.eye(n)
        base = candidate(A + 0.5 * eye, B + 0.5 * eye)
        Ak = A + 0.5 * eye + 2.0 ** -26 * random_psd(rng, n)
        Bk = B + 0.5 * eye + 2.0 ** -26 * random_psd(rng, n)
        if np.abs(candidate(Ak, Bk) - base).max() > 1e-5 * _scale_of(base):
            failures.append({
                "trial": trial, "check": "floored_continuity",
                "inputs": {"A": mat_payload(A), "B": mat_payload(B)},
                "witness": None, "slack": 1e-5 * _scale_of(base),
            })
            continue
        direct = candidate(A, B)
        shifted = candidate(A + 1e-9 * eye, B + 1e-9 * eye)
        if np.abs(shifted - direct).max() > 1e-4 * _scale_of(direct):
            failures.append({
                "trial": trial, "check": "diagonal_shift",
                "inputs": {"A": mat_payload(A), "B": mat_payload(B)},
                "witness": None, "slack": 1e-4 * _scale_of(direct),
            })
    return _finish("axioms_thm101", spec.seed, trials, failures, t0)


def suite_axioms_thm103(candidate, spec: RandomSpec,
                        trials: int = 100) -> SuiteReport:
    """Extended-perspective axioms: joint subadditivity, PSD transformer
    inequality, shift upper continuity, special boundedness, local upper
    continuity at the identity.  Also notes the orientation when the
    candidate looks superadditive (connection-like) instead.
    """
    t0 = time.perf_counter()
    failures = []
    notes = []
    for trial in range(trials):
        rng = aux_rng(spec, trial)
        A1, B1 = gen_pair(spec, trial)
        n = A1.shape[0]
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        lhs = candidate(hermitian_part(A1 + A2), hermitian_part(B1 + B2))
        rhs = add(candidate(A1, B1), candidate(A2, B2))
        slack = SLACK_REL * _scale_of(lhs, rhs)
        ok, witness = form_leq(lhs, rhs, slack)
        if not ok:
            failures.append({
                "trial": trial, "check": "joint_subadditivity",
                "inputs": {"A1": mat_payload(A1), "B1": mat_payload(B1),
                           "A2": mat_payload(A2), "B2": mat_payload(B2)},
                "witness": vec_payload(witness), "slack": slack,
            })
            continue
        C = random_psd(rng, n, lo=0.2, hi=1.5)
        left = candidate(hermitian_part(C @ A1 @ C), hermitian_part(C @ B1 @ C))
        right = congruence(C, candidate(A1, B1))
        slack = SLACK_REL * _scale_of(left, right)
        ok, witness = form_leq(left, right, slack)
        if not ok:
            failures.append({
                "trial": trial, "check": "transformer",
                "inputs": {"A": mat_payload(A1), "B": mat_payload(B1),
                           "C": mat_payload(C)},
                "witness": vec_payload(witness), "slack": slack,
            })
            continue
        rho = random_state(rng, n)
        direct = evaluate_state(candidate(A1, B1), rho)
        eye = np.eye(n)
        if math.isfinite(direct):
            shifted = evaluate_state(
                candidate(A1 + 1e-8 * eye, B1 + 1e-8 * eye), rho)
            if abs(shifted - direct) > 1e-5 * _scale_of(A1, B1):
                failures.append({
                    "trial": trial, "check": "shift_continuity",
                    "inputs": {"A": mat_payload(A1), "B": mat_payload(B1)},
                    "witness": None, "lhs": shifted, "rhs": direct,
                    "slack": 1e-5 * _scale_of(A1, B1),
                })
                continue
        t = float(rng.uniform(0.1, 4.0))
        if not candidate(t * eye, eye).is_bounded:
            failures.append({
                "trial": trial, "check": "special_boundedness",
                "inputs": {"t": t}, "witness": None, "slack": 0.0,
            })
            continue
        X = random_psd(rng, n, lo=0.0, hi=1.0)
        base = evaluate_state(candidate(eye, eye), rho)
        seq = evaluate_state(candidate(eye + 2.0 ** -26 * X, eye), rho)
        if abs(seq - base) > 1e-5:
            failures.append({
                "trial": trial, "check": "local_upper_continuity",
                "inputs": {"X": mat_payload(X)},
                "witness": None, "lhs": seq, "rhs": base, "slack": 1e-5,
            })
    # orientation: a nonpositive recovered generator means the candidate is
    # the negative of a Kubo-Ando connection, not a divergence-like object
    recovered = recover_generator(candidate, np.linspace(0.1, 4.0, 9),
                                  dim=spec.dim_lo)
    if all(v <= 1e-12 for v in recovered if math.isfinite(v)):
        notes.append({"orientation":
                      "recovered generator is nonpositive (negated connection)"})
    return _finish("axioms_thm103", spec.seed, trials, failures, t0, notes)


def recover_generator(candidate, grid, dim: int = 1) -> list:
    """f(t) recovered from candidate(tI, I) = f(t) I on a scalar grid."""
    eye = np.eye(dim)
    out = []
    for t in grid:
        T = candidate(float(t) * eye, eye)
        if isinstance(T, ExtendedSelfAdjoint):
            if not T.is_bounded:
                out.append(INF)
                continue
            T = T.form_matrix()
        out.append(float(np.asarray(T)[0, 0].real))
    return out


def suite_connection_cor107(candidate, spec: RandomSpec,
                            trials: int = 100) -> SuiteReport:
    """Connection axioms: joint superadditivity (operator concavity),
    transformer inequality, decreasing-sequence continuity.
    """
    t0 = time.perf_counter()
    failures = []
    for trial in range(trials):
        rng = aux_rng(spec, trial)
        A1, B1 = gen_pair(spec, trial)
        n = A1.shape[0]
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        whole = candidate(hermitian_part(A1 + A2), hermitian_part(B1 + B2))
        parts = candidate(A1, B1) + candidate(A2, B2)
        w, _ = eigh(hermitian_part(whole - parts))
        slack = SLACK_REL * _scale_of(whole, parts)
        if w.min(initial=0.0) < -slack:
            failures.append({
                "trial": trial, "check": "superadditivity",
                "inputs": {"A1": mat_payload(A1), "B1": mat_payload(B1),
                           "A2": mat_payload(A2), "B2": mat_payload(B2)},
                "witness": None, "lhs": float(w.min()), "slack": slack,
            })
            continue
        C = random_psd(rng, n, lo=0.2, hi=1.5)
        left = hermitian_part(C @ candidate(A1, B1) @ C)
        right = candidate(hermitian_part(C @ A1 @ C), hermitian_part(C @ B1 @ C))
        w, _ = eigh(hermitian_part(right - left))
        slack = SLACK_REL * _scale_of(left, right)
        if w.min(initial=0.0) < -slack:
            failures.append({
                "trial": trial, "check": "transformer",
                "inputs": {"A": mat_payload(A1), "B": mat_payload(B1),
                           "C": mat_payload(C)},
                "witness": None, "lhs": float(w.min()), "slack": slack,
            })
            continue
        D = random_psd(rng, n, lo=0.2, hi=1.0)
        E = random_psd(rng, n, lo=0.2, hi=1.0)
        base = candidate(A1, B1)
        dev = np.abs(candidate(A1 + 2.0 ** -30 * D, B1 + 2.0 ** -30 * E)
                     - base).max()
        if dev > 1e-6 * _scale_of(base):
            failures.append({
                "trial": trial, "check": "decreasing_continuity",
                "inputs": {"A": mat_payload(A1), "B": mat_payload(B1),
                           "D": mat_payload(D), "E": mat_payload(E)},
                "witness": None, "lhs": float(dev),
                "slack": 1e-6 * _scale_of(base),
            })
    return _finish("connection_cor107", spec.seed, trials, failures, t0)


# ---------------------------------------------------------------------------
# Stock candidates and failure replay
# ---------------------------------------------------------------------------

def candidate_parallel_sum(A, B):
    return parallel_sum(A, B)


def candidate_anticommutator(A, B):
    return hermitian_part(A @ B + B @ A)


def candidate_perspective(f: ExtendedFunction):
    def _run(A, B, f=f):
        return perspective_apply(f, A, B).value
    return _run


def candidate_biased_perspective(f: ExtendedFunction, v: np.ndarray):
    bias = from_matrix(vector_state(v))

    def _run(A, B, f=f, bias=bias):
        return add(perspective_apply(f, A, B).value, bias)
    return _run


def candidate_negated_connection(h: ExtendedFunction):
    def _run(A, B, h=h):
        return from_matrix(-connection(h, A, B))
    return _run


def candidate_connection(h: ExtendedFunction):
    def _run(A, B, h=h):
        return connection(h, A, B)
    return _run


def candidate_pw_bounded(phi: HomogeneousFunction):
    def _run(A, B, phi=phi):
        out = pw_apply(phi, A, B)
        if not out.is_bounded:
            raise PreconditionError("candidate produced an unbounded element")
        return out.form_matrix()
    return _run


def replay_convexity_failure(f, record: dict) -> bool:
    """Re-run a recorded subadditivity violation from its serialized inputs.

    Returns True when the violation reproduces within the recorded slack.
    """
    phi = perspective_of(f, assert_convex=True) if isinstance(f, ExtendedFunction) else f
    ins = record["inputs"]
    A1, B1 = payload_mat(ins["A1"]), payload_mat(ins["B1"])
    A2, B2 = payload_mat(ins["A2"]), payload_mat(ins["B2"])
    lhs = pw_apply(phi, hermitian_part(A1 + A2), hermitian_part(B1 + B2))
    rhs = add(pw_apply(phi, A1, B1), pw_apply(phi, A2, B2))
    ok, _ = form_leq(lhs, rhs, record["slack"])
    return not ok
