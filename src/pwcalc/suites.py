"""Seeded generators, property/axiom suites and report emission.

Every suite is a falsifier: it samples necessary conditions of a theorem and
records violations as failure records.  A pass is evidence, a failure is a
certificate.  "SOT" predicates are entrywise with explicit tolerances, the
honest finite-dimensional surrogate.

One runner, `_run_trials`, draws each trial's pair `gen_pair(spec, trial)` and
stream `aux_rng(spec, trial)` and passes them to the suite's generator,
which yields `(check, inputs, failure)` per check in a fixed order: the
named matrices (or floats) the check was made on, and None for a pass or
the record's remaining fields (`slack`; `witness`, `lhs`, `rhs` where the
check has them).  A trial stops at its first failure, so later checks are
neither evaluated nor drawn.  Only subadditivity records carry all their
inputs and can be replayed (`replay_convexity_failure`).

Each state a trial draws is validated once, with `require_state`, and its
values are read through the kernels that trust it (`_state_value`,
`_epsilon_monotone`).  A trial evaluates its candidate (or the calculus) once
per distinct input: the value at the drawn pair serves subadditivity and
the checks after it, and `suite_axioms_thm103` keeps candidate(I, I) per
dimension for the whole call; its orientation note evaluates candidate(tI, I)
down its grid only until the first finite value above its threshold, which
already decides the note.  Each slack and step of a check is a row of CHECKS.
Candidates are taken to be functions of their input, as the determinism
guarantee below already assumes.

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
from functools import partial

import numpy as np

from .calculus import (
    HomogeneousFunction,
    PreconditionError,
    pw_apply,
    pw_apply_restricted,
)
from .extended import (
    ExtendedSelfAdjoint,
    FORM_SLACK_REL,
    INF,
    _form_scale,
    _state_value,
    add,
    congruence,
    form_leq,
    from_matrix,
)
from .functions import CLOSED_POS, ExtendedFunction, _haar_isometry
from .linalg import (
    _range_eigh,
    _sqrt_of,
    hermitian_part,
    eigh,
    require_state,
    spectral_norm,
    vector_state,
)
from .perspectives import (
    EPS_MONOTONE_SLACK,
    _epsilon_monotone,
    connection,
    epsilon_limit,
    parallel_sum,
    perspective_apply,
    perspective_of,
)

# check or note: (slack, step); a slack multiplies _form_scale of what the
# check compares unless marked absolute; continuity slacks absorb the step.
CHECKS = {
    # _form_order and _psd_order, for every order check: two evaluations
    "form_order": (FORM_SLACK_REL, None),
    "operator_homogeneity": (1e-7, None),  # also times |A, B|: C is not unit
    "direct_sum": (1e-8, None),  # roundoff of two evaluations
    "floored_continuity": (1e-5, 2.0 ** -26),
    "diagonal_shift": (1e-4, 1e-9),
    "decreasing_chain": (1e-6, 2.0 ** -30),
    "decreasing_continuity": (1e-6, 2.0 ** -30),
    "lower_semicontinuity": (1e-6, tuple(2.0 ** -k for k in (26, 28, 30, 32))),
    "shift_continuity": (1e-5, 1e-8),
    "local_upper_continuity": (1e-5, 2.0 ** -26),  # absolute, at I
    "shift_monotonicity": (EPS_MONOTONE_SLACK, None),  # absolute
    "expected_divergence": (1e2, None),  # note: the blowup's growth factor
    "orientation": (1e-12, None),  # note: top generator value taken as <= 0
}


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
    return _haar_isometry(rng, n, n)


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


# gen_pair's profiles, with the smallest dimension each can draw
_PROFILE_MIN_DIM = {"well_conditioned": 1, "rank_deficient": 1,
                    "projection": 2, "commuting_pair": 1, "dominated_pair": 1}


def gen_pair(spec: RandomSpec, trial: int = 0):
    """Deterministic PSD pair with the requested spectrum profile."""
    profile = spec.profile
    if profile not in _PROFILE_MIN_DIM:
        raise ValueError(f"unknown profile {profile!r}")
    if spec.dim_lo < _PROFILE_MIN_DIM[profile]:
        raise ValueError(f"profile {profile!r} needs dimension >= "
                         f"{_PROFILE_MIN_DIM[profile]}, got {spec.dim_lo}")
    rng = trial_rng(spec, trial)
    n = int(rng.integers(spec.dim_lo, spec.dim_hi + 1))
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
    # dominated_pair
    alpha = spec.param("alpha", 0.5)
    B = random_psd(rng, n)
    A = alpha * B + random_psd(rng, n, lo=0.1, hi=1.0)
    return A, B


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def mat_payload(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def payload_mat(p: dict) -> np.ndarray:
    return np.array(p["re"], dtype=float) + 1j * np.array(p["im"], dtype=float)


def vec_payload(v) -> dict | None:
    if v is None:
        return None
    return mat_payload(np.reshape(v, -1))


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


# ---------------------------------------------------------------------------
# The runner and the relations its checks use
# ---------------------------------------------------------------------------

def _run_trials(name, spec: RandomSpec, trials: int, checks,
                notes=()) -> SuiteReport:
    """Run `checks` on every trial and record each trial's first failure."""
    t0 = time.perf_counter()
    failures = []
    for trial in range(trials):
        A, B = gen_pair(spec, trial)
        for check, inputs, failure in checks(A, B, aux_rng(spec, trial)):
            if failure is not None:
                failures.append({
                    "trial": trial, "check": check, "witness": None,
                    "inputs": {k: mat_payload(v) if isinstance(v, np.ndarray)
                               else v for k, v in inputs.items()},
                    **failure,
                })
                break
    return SuiteReport(name, spec.seed, trials, trials - len(failures),
                       failures, (time.perf_counter() - t0) * 1e3, list(notes))


def _failure(failed, slack, **values):
    """The failure's record fields when `failed`, else None."""
    return {"slack": slack, **values} if failed else None


def _form_order(lo, hi, slack=None):
    """lo <= hi in the form order, within the form_order slack of their
    scale unless a slack is given: None, or the failure with its witness."""
    if slack is None:
        slack = CHECKS["form_order"][0] * _form_scale(lo, hi)
    ok, witness = form_leq(lo, hi, slack)
    return None if ok else {"witness": vec_payload(witness), "slack": slack}


def _psd_order(lo, hi):
    """lo <= hi as matrices, by the least eigenvalue of hi - lo, within the
    form_order slack of their scale: None, or the failure with it as lhs."""
    w, _ = eigh(hermitian_part(hi - lo))
    slack = CHECKS["form_order"][0] * _form_scale(lo, hi)
    least = float(w.min(initial=0.0))
    return _failure(least < -slack, slack, lhs=least)


def _subadditivity(apply, first, A1, B1, A2, B2, slack=None):
    """apply(A1+A2, B1+B2) <= first + apply(A2, B2) in form order, where
    `first` is apply(A1, B1), which the caller has already computed."""
    # the inputs the suites draw are exactly Hermitian, and so are their sums
    lhs = apply(A1 + A2, B1 + B2)
    return _form_order(lhs, add(first, apply(A2, B2)), slack)


def _compress(M, V):
    """V*MV as the Gram matrix of Y = V* M^(1/2): PSD to roundoff relative
    to its own norm, where the product V*MV errs relative to |M| and can
    fail require_psd when M is rank deficient."""
    Y = V.conj().T @ _sqrt_of(*_range_eigh(M, "psd_sqrt"))
    return hermitian_part(Y @ Y.conj().T)


# ---------------------------------------------------------------------------
# Convexity suite (subadditivity, compressions, monotonicity; restricted mode)
# ---------------------------------------------------------------------------

def suite_convexity(f, spec: RandomSpec, trials: int = 500) -> SuiteReport:
    """Joint subadditivity, contraction/isometry compression, and (when the
    tags allow) monotone decrease in the first argument; for restricted
    concave diagonals the reversed inequalities on dominated pairs.
    """
    if isinstance(f, ExtendedFunction) and f.has_tag("restricted_concave"):
        f = HomogeneousFunction(f.name, f, 0.0, INF, variant="ge")
    if isinstance(f, HomogeneousFunction) and f.variant != "full":
        restricted = partial(pw_apply_restricted, f, side=f.variant)

        def superadditivity(A1, B1, rng):
            n = A1.shape[0]
            B2 = random_psd(rng, n)
            A2 = 0.5 * B2 + random_psd(rng, n, lo=0.1, hi=1.0)
            if f.variant == "le":  # the le cone needs A <= alpha B: swap roles
                A1, B1, A2, B2 = B1, A1, B2, A2
            lhs = restricted(A1 + A2, B1 + B2)
            rhs = add(restricted(A1, B1), restricted(A2, B2))
            yield ("superadditivity", {"A1": A1, "B1": B1, "A2": A2, "B2": B2},
                   _form_order(rhs, lhs))

        dspec = RandomSpec(spec.dim_lo, spec.dim_hi, "dominated_pair",
                           spec.seed, (("alpha", 0.5),))
        return _run_trials(f"convexity:{f.name}", dspec, trials, superadditivity)
    phi = perspective_of(f, assert_convex=True) if isinstance(f, ExtendedFunction) else f
    monotone = (isinstance(f, ExtendedFunction)
                and f.has_tag("operator_monotone_decreasing")
                and phi.corner_x <= 0.0)
    apply = partial(pw_apply, phi)

    def checks(A1, B1, rng):
        n = A1.shape[0]
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        whole = apply(A1, B1)
        yield ("subadditivity", {"A1": A1, "B1": B1, "A2": A2, "B2": B2},
               _subadditivity(apply, whole, A1, B1, A2, B2))
        V = random_isometry(rng, n, max(1, n - 1))
        yield ("isometry_compression", {"A": A1, "B": B1, "V": V},
               _form_order(apply(_compress(A1, V), _compress(B1, V)),
                           congruence(V, whole)))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C /= max(1.0, spectral_norm(C))
        yield ("contraction", {"A": A1, "B": B1, "C": C},
               _form_order(apply(_compress(A1, C), _compress(B1, C)),
                           congruence(C, whole)))
        if monotone:
            Abig = A1 + random_psd(rng, n, lo=0.1, hi=0.5)
            yield ("monotone_decreasing", {"A1": A1, "A2": Abig, "B": B1},
                   _form_order(apply(Abig, B1), whole))

    return _run_trials(f"convexity:{phi.name}", spec, trials, checks)


# ---------------------------------------------------------------------------
# Continuity suite
# ---------------------------------------------------------------------------

def suite_continuity(f: ExtendedFunction, spec: RandomSpec,
                     trials: int = 50) -> SuiteReport:
    """Decreasing-chain convergence (bounded case), liminf semicontinuity,
    and the diagonal-shift monotone limit; expected scalar blowups are
    recorded as notes, never as failures.
    """
    connection_mode = (f.has_tag("operator_monotone")
                       and f.has_tag("nonnegative"))
    notes = []
    if not connection_mode and (f.fprime_at_inf == INF or f.f_at_0plus == INF):
        # scalar pairs shrinking at mismatched rates can blow up; expected
        phi = perspective_of(f, assert_convex=True)
        vals = [phi.bivariate(2.0 ** -k, 8.0 ** -k) for k in range(1, 12)]
        if vals[-1] > CHECKS["expected_divergence"][0] * max(1.0, abs(vals[0])):
            notes.append({"expected_divergence": "scalar pair (2^-n X, 8^-n X)",
                          "terminal": vals[-1]})

    def checks(A, B, rng):
        n = A.shape[0]
        D = random_psd(rng, n, lo=0.2, hi=1.0)
        E = random_psd(rng, n, lo=0.2, hi=1.0)
        if connection_mode:
            base = connection(f, A, B)
            slack, step = CHECKS["decreasing_chain"]
            dev = np.abs(connection(f, A + step * D, B + step * E) - base).max()
            slack *= _form_scale(base)
            yield ("decreasing_chain", {"A": A, "B": B, "D": D, "E": E},
                   _failure(dev > slack, slack, lhs=dev))
            return
        # liminf semicontinuity along an entrywise-convergent sequence; the
        # sampled tail must sit close to the limit, since early entries of a
        # decreasing approach legitimately lie below the limit value
        rho = require_state(random_state(rng, n))
        direct = _state_value(perspective_apply(f, A, B).value, rho)
        if math.isfinite(direct):
            slack, steps = CHECKS["lower_semicontinuity"]
            tail = [_state_value(perspective_apply(
                f, A + step * D, B + step * E).value, rho) for step in steps]
            floor = min((v for v in tail if math.isfinite(v)), default=INF)
            slack *= _form_scale(A, B)
            yield ("lower_semicontinuity", {"A": A, "B": B, "D": D, "E": E},
                   _failure(direct > floor + slack, slack, lhs=direct,
                            rhs=floor))
        # diagonal shift: monotone state evaluations for the f(1)=0 shift
        f1 = f.f_at_1 if f.f_at_1 is not None else f(1.0)
        f0 = ExtendedFunction(f"{f.name}-centered", f.domain,
                              lambda t: f(t) - f1, tags=f.tags)
        slack = CHECKS["shift_monotonicity"][0]
        monotone = _epsilon_monotone(epsilon_limit(f0, A, B), rho, slack)
        yield ("shift_monotonicity", {"A": A, "B": B},
               _failure(not monotone, slack))

    return _run_trials(f"continuity:{f.name}", spec, trials, checks, notes)


# ---------------------------------------------------------------------------
# Axiom suites
# ---------------------------------------------------------------------------

def suite_axioms_thm101(candidate, spec: RandomSpec,
                        trials: int = 100) -> SuiteReport:
    """Bounded-calculus axioms: operator homogeneity, direct sums,
    floored-sequence continuity, diagonal-shift continuity.
    """
    def checks(A, B, rng):
        n = A.shape[0]
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        AB = candidate(A, B)
        lhs = candidate(hermitian_part(C.conj().T @ A @ C),
                        hermitian_part(C.conj().T @ B @ C))
        rhs = C.conj().T @ AB @ C
        dev = float(np.abs(lhs - rhs).max())
        slack = (CHECKS["operator_homogeneity"][0] * _form_scale(lhs, rhs)
                 * _form_scale(A, B))
        yield ("operator_homogeneity", {"A": A, "B": B, "C": C},
               _failure(dev > slack, slack, lhs=dev))
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        Z = np.zeros((n, n))
        whole = candidate(np.block([[A, Z], [Z, A2]]), np.block([[B, Z], [Z, B2]]))
        parts = np.block([[AB, Z], [Z, candidate(A2, B2)]])
        slack = CHECKS["direct_sum"][0] * _form_scale(whole, parts)
        yield ("direct_sum", {"A": A, "B": B, "A2": A2, "B2": B2},
               _failure(np.abs(whole - parts).max() > slack, slack))
        # floored SOT surrogate: A_k -> A with A_k + B_k >= 0.5 I
        eye = np.eye(n)
        base = candidate(A + 0.5 * eye, B + 0.5 * eye)
        slack, step = CHECKS["floored_continuity"]
        Ak = A + 0.5 * eye + step * random_psd(rng, n)
        Bk = B + 0.5 * eye + step * random_psd(rng, n)
        slack *= _form_scale(base)
        yield ("floored_continuity", {"A": A, "B": B},
               _failure(np.abs(candidate(Ak, Bk) - base).max() > slack, slack))
        slack, step = CHECKS["diagonal_shift"]
        shifted = candidate(A + step * eye, B + step * eye)
        slack *= _form_scale(AB)
        yield ("diagonal_shift", {"A": A, "B": B},
               _failure(np.abs(shifted - AB).max() > slack, slack))

    return _run_trials("axioms_thm101", spec, trials, checks)


def suite_axioms_thm103(candidate, spec: RandomSpec,
                        trials: int = 100) -> SuiteReport:
    """Extended-perspective axioms: joint subadditivity, PSD transformer
    inequality, shift upper continuity, special boundedness, local upper
    continuity at the identity.  Also notes the orientation when the
    candidate looks superadditive (connection-like) instead.
    """
    # orientation: a nonpositive recovered generator means the candidate is
    # the negative of a Kubo-Ando connection, not a divergence-like object;
    # the grid is recovered only up to its first finite value above `top`
    recovered = _recovered(candidate, np.linspace(0.1, 4.0, 9), spec.dim_lo)
    notes, top = [], CHECKS["orientation"][0]
    if all(v <= top for v in recovered if math.isfinite(v)):
        notes.append({"orientation":
                      "recovered generator is nonpositive (negated connection)"})

    at_identity = {}  # candidate(I, I) per dimension

    def checks(A1, B1, rng):
        n = A1.shape[0]
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        AB = candidate(A1, B1)
        yield ("joint_subadditivity", {"A1": A1, "B1": B1, "A2": A2, "B2": B2},
               _subadditivity(candidate, AB, A1, B1, A2, B2))
        C = random_psd(rng, n, lo=0.2, hi=1.5)
        yield ("transformer", {"A": A1, "B": B1, "C": C},
               _form_order(candidate(hermitian_part(C @ A1 @ C),
                                     hermitian_part(C @ B1 @ C)),
                           congruence(C, AB)))
        rho = require_state(random_state(rng, n))
        direct = _state_value(AB, rho)
        eye = np.eye(n)
        if math.isfinite(direct):
            slack, step = CHECKS["shift_continuity"]
            shifted = _state_value(
                candidate(A1 + step * eye, B1 + step * eye), rho)
            slack *= _form_scale(A1, B1)
            yield ("shift_continuity", {"A": A1, "B": B1},
                   _failure(abs(shifted - direct) > slack, slack, lhs=shifted,
                            rhs=direct))
        t = float(rng.uniform(0.1, 4.0))
        yield ("special_boundedness", {"t": t},
               _failure(not candidate(t * eye, eye).is_bounded, 0.0))
        X = random_psd(rng, n, lo=0.0, hi=1.0)
        if n not in at_identity:
            at_identity[n] = candidate(eye, eye)
        base = _state_value(at_identity[n], rho)
        slack, step = CHECKS["local_upper_continuity"]
        seq = _state_value(candidate(eye + step * X, eye), rho)
        yield ("local_upper_continuity", {"X": X},
               _failure(abs(seq - base) > slack, slack, lhs=seq, rhs=base))

    return _run_trials("axioms_thm103", spec, trials, checks, notes)


def recover_generator(candidate, grid, dim: int = 1) -> list:
    """f(t) recovered from candidate(tI, I) = f(t) I on a scalar grid."""
    return list(_recovered(candidate, grid, dim))


def _recovered(candidate, grid, dim: int):
    """recover_generator's values, each computed when it is consumed."""
    eye = np.eye(dim)
    for t in grid:
        T = candidate(float(t) * eye, eye)
        if isinstance(T, ExtendedSelfAdjoint):
            if not T.is_bounded:
                yield INF
                continue
            T = T._form
        yield float(np.asarray(T)[0, 0].real)


def suite_connection_cor107(candidate, spec: RandomSpec,
                            trials: int = 100) -> SuiteReport:
    """Connection axioms: joint superadditivity (operator concavity),
    transformer inequality, decreasing-sequence continuity.
    """
    def checks(A1, B1, rng):
        n = A1.shape[0]
        A2, B2 = random_psd(rng, n), random_psd(rng, n)
        AB = candidate(A1, B1)
        whole = candidate(A1 + A2, B1 + B2)
        yield ("superadditivity", {"A1": A1, "B1": B1, "A2": A2, "B2": B2},
               _psd_order(AB + candidate(A2, B2), whole))
        C = random_psd(rng, n, lo=0.2, hi=1.5)
        right = candidate(hermitian_part(C @ A1 @ C), hermitian_part(C @ B1 @ C))
        yield ("transformer", {"A": A1, "B": B1, "C": C},
               _psd_order(hermitian_part(C @ AB @ C), right))
        D = random_psd(rng, n, lo=0.2, hi=1.0)
        E = random_psd(rng, n, lo=0.2, hi=1.0)
        slack, step = CHECKS["decreasing_continuity"]
        dev = float(np.abs(candidate(A1 + step * D, B1 + step * E) - AB).max())
        slack *= _form_scale(AB)
        yield ("decreasing_continuity", {"A": A1, "B": B1, "D": D, "E": E},
               _failure(dev > slack, slack, lhs=dev))

    return _run_trials("connection_cor107", spec, trials, checks)


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
    inputs = {k: payload_mat(v) for k, v in record["inputs"].items()}
    apply = partial(pw_apply, phi)
    return _subadditivity(apply, apply(inputs["A1"], inputs["B1"]), **inputs,
                          slack=record["slack"]) is not None
