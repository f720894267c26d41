"""Operator perspectives, Kubo-Ando connections, parallel sums, Lebesgue
decomposition, maximal f-divergences and the boundedness analysis.

The perspective of a convex function f pairs f with its boundary data
alpha = f'(inf), beta = f(0+) to produce a homogeneous two-variable function;
applying the two-variable calculus to it extends the classical sandwich
B^{1/2} f(B^{-1/2} A B^{-1/2}) B^{1/2} to non-invertible pairs, at the price
of genuinely infinite parts.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    ENDPOINT_TOL,
    HomogeneousFunction,
    _checked_pair_spectrum,
    _diagonal_values,
    _endpoints,
    _pair_spectra,
    _pw_apply,
    _validated_pair,
)
from .extended import (
    BOUNDED,
    ExtendedSelfAdjoint,
    INF,
    _pairing,
    classify,
    evaluate_state,
)
from .functions import (
    CLOSED_POS,
    ExtendedFunction,
    UNIT_CLOSED,
    catalog,
)
from .linalg import (
    MATRIX_HERMITIAN_ATOL,
    Subspace,
    _check_psd,
    _hermitian_stack,
    _pinv_of,
    _require_state_of,
    default_rank_tol,
    eigh,
    hermitian_part,
    require_hermitian,
    require_state,
    spectral_norm,
    vector_state,
)

def perspective_of(f: ExtendedFunction, assert_convex: bool = False
                   ) -> HomogeneousFunction:
    """Homogeneous extension of f: diagonal (1-t) f(t/(1-t)) with the
    boundary corners alpha = f'(inf) at (1,0) and beta = f(0+) at (0,1).

    Requires the operator_convex tag unless the caller asserts convexity.
    The same f and flag give the same object.
    """
    return _perspective_of(f, bool(assert_convex))


# Cached per function and flag: building a HomogeneousFunction evaluates and
# checks its corner values, which every perspective call would otherwise
# repeat.  The key needs f hashable, as ExtendedFunction is; exceptions are
# not cached, so an untagged f raises on every call.
@functools.lru_cache(maxsize=64)
def _perspective_of(f: ExtendedFunction, assert_convex: bool) -> HomogeneousFunction:
    if not f.has_tag("operator_convex") and not assert_convex:
        raise ValueError(
            f"{f.name} is not tagged operator convex; pass assert_convex=True "
            "to use it anyway"
        )
    alpha, beta = f.fprime_at_inf, f.f_at_0plus
    if alpha is None or beta is None:
        raise ValueError(f"{f.name} is missing f'(inf) / f(0+) metadata")

    def _diag(t, f=f, alpha=alpha, beta=beta):
        if t == 1.0:
            return alpha
        if t == 0.0:
            return beta
        return (1.0 - t) * f(t / (1.0 - t))

    diag = ExtendedFunction(f"perspective({f.name})", UNIT_CLOSED, _diag,
                            f_at_1=None, tags=f.tags)
    return HomogeneousFunction(f"perspective({f.name})", diag, alpha, beta)


@dataclass(frozen=True)
class PerspectiveResult:
    value: ExtendedSelfAdjoint
    r_eigenvalues: np.ndarray = field(repr=False)
    endpoint_hits: tuple  # (count at 0, count at 1)
    classification: str

    @property
    def bounded(self) -> bool:
        return self.classification == BOUNDED


def perspective_apply(f: ExtendedFunction, A: np.ndarray, B: np.ndarray,
                      endpoint_tol: float = ENDPOINT_TOL,
                      assert_convex: bool = False) -> PerspectiveResult:
    """Extended operator perspective of (A, B) with diagnostics."""
    phi = perspective_of(f, assert_convex=assert_convex)
    value, diag = _pw_apply(phi, A, B, endpoint_tol)
    return PerspectiveResult(
        value, diag.r_eigenvalues,
        (diag.hits_at_zero, diag.hits_at_one), classify(value),
    )


DEFAULT_EPS_SCHEDULE = tuple(10.0 ** (-k) for k in range(1, 9))


def epsilon_limit(f: ExtendedFunction, A: np.ndarray, B: np.ndarray,
                  schedule=DEFAULT_EPS_SCHEDULE):
    """Regularized perspectives of (A + eps I, B + eps I) down a schedule.

    Each entry is the plain invertible-pair sandwich, a bounded Hermitian
    matrix.  For f with f(1) = 0 the state evaluations are nondecreasing as
    eps decreases, and they converge to the extended perspective; divergence
    of the tail detects the infinity part.
    """
    eps = [float(e) for e in schedule]
    # written so that a NaN, on which every comparison is False, fails it
    if not eps or not all(0.0 < e < INF for e in eps) or not all(
            e2 < e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError(
            "schedule must be finite, strictly decreasing and positive")
    A, B, _, _ = _validated_pair(A, B)
    n = A.shape[0]
    eye = np.eye(n)
    out = []
    for e in eps:
        Be = B + e * eye
        w, V = eigh(Be)
        inv_half = (V / np.sqrt(w)) @ V.conj().T
        W = hermitian_part(inv_half @ (A + e * eye) @ inv_half)
        wv, Q = eigh(W)
        fw = (Q * np.array([f(max(float(t), 1e-300)) for t in wv])) @ Q.conj().T
        half = (V * np.sqrt(w)) @ V.conj().T
        out.append((e, hermitian_part(half @ fw @ half)))
    return out


def epsilon_monotone(entries, rho: np.ndarray, slack: float = 1e-10) -> bool:
    """True iff the state evaluations are nondecreasing down the schedule."""
    return _epsilon_monotone(entries, _entries_state(entries, rho), slack)


def _entries_state(entries, rho) -> np.ndarray:
    """rho validated as a state of the size of epsilon_limit's entries
    (a square state of another size rejected first)."""
    if not entries:
        return require_state(rho)
    return _require_state_of(rho, len(entries[-1][1]), "entry")


def _epsilon_monotone(entries, rho: np.ndarray, slack: float) -> bool:
    """epsilon_monotone's kernel: rho must be a validated state of the
    entries' size."""
    vals = [_pairing(M, rho) for _, M in entries]
    return all(b >= a - slack for a, b in zip(vals, vals[1:]))


def epsilon_diverges(entries, rho: np.ndarray, threshold: float = 1e6) -> bool:
    """Divergence detector: the terminal state evaluation exceeds threshold.

    The default threshold is meaningful for the default schedule ending at
    eps = 1e-8; it is exposed as a knob rather than hard-wired.
    """
    if not entries:
        raise ValueError("entries must not be empty")
    return _pairing(entries[-1][1], _entries_state(entries, rho)) >= threshold


# ---------------------------------------------------------------------------
# Kubo-Ando connections and parallel sum
# ---------------------------------------------------------------------------

def connection_generator(name: str, param: float | None = None) -> ExtendedFunction:
    """Nonnegative operator monotone generators for connections/means."""
    tags = frozenset({"operator_monotone", "nonnegative"})
    if name == "geometric":
        return ExtendedFunction(
            "geometric", CLOSED_POS, lambda t: math.sqrt(t),
            f_at_0plus=0.0, fprime_at_inf=0.0, f_at_1=1.0, tags=tags)
    if name == "parallel":
        return ExtendedFunction(
            "parallel", CLOSED_POS, lambda t: t / (1.0 + t),
            f_at_0plus=0.0, fprime_at_inf=0.0, f_at_1=0.5, tags=tags)
    if name == "arithmetic":
        return ExtendedFunction(
            "arithmetic", CLOSED_POS, lambda t: (1.0 + t) / 2.0,
            f_at_0plus=0.5, fprime_at_inf=0.5, f_at_1=1.0, tags=tags)
    if name == "hpower":
        if param is None or not 0.0 <= param <= 1.0:
            raise ValueError("hpower requires an exponent in [0, 1]")
        p = float(param)
        return ExtendedFunction(
            f"hpower:{p}", CLOSED_POS, lambda t: t ** p,
            f_at_0plus=1.0 if p == 0.0 else 0.0,
            fprime_at_inf=1.0 if p == 1.0 else 0.0, f_at_1=1.0, tags=tags)
    raise ValueError(f"unknown connection generator {name!r}")


def connection_phi(h: ExtendedFunction, assert_monotone: bool = False
                   ) -> HomogeneousFunction:
    """Homogeneous function x h(y/x) whose calculus is the connection of h.

    Note the argument order: the connection's generator sits in the second
    slot, reversed relative to perspectives.  The same h and flag give the
    same object.
    """
    return _connection_phi(h, bool(assert_monotone))


@functools.lru_cache(maxsize=64)  # as _perspective_of
def _connection_phi(h: ExtendedFunction, assert_monotone: bool) -> HomogeneousFunction:
    if not h.has_tag("operator_monotone") and not assert_monotone:
        raise ValueError(f"{h.name} is not tagged operator monotone")
    if not h.has_tag("nonnegative") and not assert_monotone:
        raise ValueError(f"{h.name} is not tagged nonnegative")
    h0 = h(0.0) if h.domain.closed_lo else h.f_at_0plus
    slope = h.fprime_at_inf
    if h0 is None or slope is None or math.isinf(h0) or math.isinf(slope):
        raise ValueError(f"{h.name} lacks finite boundary data for a connection")

    def _diag(t, h=h, h0=h0, slope=slope):
        if t == 0.0:
            return slope
        if t == 1.0:
            return h0
        return t * h((1.0 - t) / t)

    diag = ExtendedFunction(f"connection({h.name})", UNIT_CLOSED, _diag,
                            tags=frozenset({"connection_diagonal"}))
    return HomogeneousFunction(f"connection({h.name})", diag, h0, slope)


def connection(h: ExtendedFunction, A: np.ndarray, B: np.ndarray,
               assert_monotone: bool = False) -> np.ndarray:
    """Kubo-Ando connection A sigma_h B; always a bounded PSD matrix.

    X* diag(phi(t, 1-t)) X over the spectrum (t, X) of _pair_spectra: the
    calculus of the connection's homogeneous function, which is finite at
    every t in [0, 1].  The pair is validated by _checked_pair_spectrum.
    """
    phi = connection_phi(h, assert_monotone=assert_monotone)
    _, _, t, X = _checked_pair_spectrum(A, B)
    values = np.array(_diagonal_values(phi, t)[0])
    if not np.isfinite(values).all():
        raise AssertionError(
            "connection produced an unbounded element; generator metadata is wrong"
        )
    return hermitian_part(X.conj().T @ (values[:, None] * X))


def parallel_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A : B = A - A (A+B)^+ A, the finite-dimensional exact form, (A+B)^+
    read off the validation's stack (A, B, A + B) at the rank cut."""
    A, B, w, V = _validated_pair(A, B, with_sum=True)
    return hermitian_part(A - A @ _pinv_of(w[2], V[2]) @ A)


# ---------------------------------------------------------------------------
# Lebesgue decomposition and absolute continuity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LebesgueDecomposition:
    ac_part: np.ndarray       # [B]A, the B-absolutely continuous part
    singular_part: np.ndarray  # A - [B]A


def lebesgue_decomposition(A: np.ndarray, B: np.ndarray
                           ) -> LebesgueDecomposition:
    """Ando decomposition of A relative to B.

    The singular part is assembled from the eigenvectors of R with
    eigenvalue at 1 (_endpoints; the eigenprojection form); the
    absolutely continuous part is the increasing limit of A : nB, which the
    tests cross-check at n = 1e8.  The pair and its spectrum come from
    _checked_pair_spectrum, as for connection.
    """
    A, _, t, X = _checked_pair_spectrum(A, B)
    rows = X[_endpoints(t)[1]]
    singular = hermitian_part(rows.conj().T @ rows)
    ac = hermitian_part(A - singular)
    return LebesgueDecomposition(ac, singular)


def is_absolutely_continuous(A: np.ndarray, B: np.ndarray) -> bool:
    """True iff A is B-absolutely continuous: no eigenvalue of R at 1
    (_endpoints) in _checked_pair_spectrum's t, as for connection."""
    t = _checked_pair_spectrum(A, B)[2]
    return not np.count_nonzero(_endpoints(t)[1])


# ---------------------------------------------------------------------------
# Divergences and boundedness
# ---------------------------------------------------------------------------

def max_f_divergence(f: ExtendedFunction, A: np.ndarray, B: np.ndarray) -> float:
    """Trace of the operator perspective; +inf when the infinity part is hit."""
    res = perspective_apply(f, A, B)
    return res.value.trace()


def essential_part(f: ExtendedFunction, A: np.ndarray, B: np.ndarray) -> Subspace:
    """Essential subspace of the perspective; the complement carries +inf."""
    return perspective_apply(f, A, B).value.essential


def matrix_power_psd(M: np.ndarray, p: float) -> np.ndarray:
    """M^p for PSD M, rank-consistent: eigenvalues under the rank tolerance
    go to exactly 0 first (fractional powers would otherwise amplify
    spectral noise past the rank cut, e.g. 1e-16 -> 1e-11 at p = 0.7).  The
    power reads the eigenpairs that the PSD check of M decided on."""
    M = require_hermitian(M, atol=MATRIX_HERMITIAN_ATOL, name="matrix")
    return _psd_powers(*_check_psd(M, "matrix"), p)[0]


def _psd_powers(w: np.ndarray, V: np.ndarray, *ps: float) -> list:
    """[M^p for p in ps] as matrix_power_psd makes them, from the eigenpairs
    (w, V) of a validated M."""
    w = np.where(w > default_rank_tol(w), w, 0.0)
    return [hermitian_part((V * w ** p) @ V.conj().T) for p in ps]


def dominates_scale(X: np.ndarray, Y: np.ndarray) -> float:
    """min {lambda >= 0 : X <= lambda Y}, or +inf when no lambda exists.

    max t / (1 - t) over the pair kernel's spectrum t of (X, Y), and +inf
    when max t >= 1 - ENDPOINT_TOL: finite exactly when X is Y-absolutely
    continuous (so +inf past lambda ~ 1 / ENDPOINT_TOL).  Errors name X, Y.
    """
    return _scale_of(_checked_pair_spectrum(X, Y, ("X", "Y"))[2])


def _scale_of(t: np.ndarray) -> float:
    """dominates_scale's lambda from the pair kernel's spectrum t."""
    if np.count_nonzero(_endpoints(t)[1]):
        return INF
    top = float(t.max(initial=0.0))
    return top / (1.0 - top)


@dataclass(frozen=True)
class T2Bound:
    bounded: bool
    lambda_min: float          # min {lambda : A^2 <= lambda B}, inf if none
    upper_certified: bool      # A^2 <= lambda_min B passed the form check
    lower_fails: bool          # A^2 <= (lambda_min - delta) B failed, as it must


def _t2_form_holds(lam: float, A2: np.ndarray, B: np.ndarray) -> bool:
    """A^2 <= lam B by the form check: the least eigenvalue of lam B - A^2
    is at least -1e-8 (lam |B| + |A^2|), a slack relative to the pair's
    scale, so that the check reads the same at every joint scaling."""
    scale = lam * spectral_norm(B) + spectral_norm(A2)
    w, _ = eigh(hermitian_part(lam * B - A2))
    return bool(w.min(initial=0.0) >= -1e-8 * scale)


def t2_bound(A: np.ndarray, B: np.ndarray) -> T2Bound:
    """Boundedness of the squared perspective and its exact norm.

    Bounded when max t < 1 - ENDPOINT_TOL over the pair kernel's spectrum
    (t, X), as perspective_apply decides it; then min {lambda : A^2 <=
    lambda B} is the norm of the t^2 perspective X* diag(t^2/(1-t)) X,
    certified both ways after the fact by semidefinite form checks.
    """
    return _t2_bound(*_checked_pair_spectrum(A, B))


def _t2_bound(A: np.ndarray, B: np.ndarray, t: np.ndarray, X: np.ndarray
              ) -> T2Bound:
    """t2_bound's kernel, on a validated pair and its spectrum (t, X)."""
    if np.count_nonzero(_endpoints(t)[1]):
        return T2Bound(False, INF, False, False)
    g = t * t / (1.0 - t)
    w, _ = eigh(hermitian_part(X.conj().T @ (g[:, None] * X)))
    lam = max(float(w[-1]), 0.0)
    A2 = hermitian_part(A @ A)
    upper = _t2_form_holds(lam, A2, B)
    lower_fails = True
    if lam > 0:
        delta = 1e-4 * lam
        w_lo, _ = eigh(hermitian_part((lam - delta) * B - A2))
        lower_fails = bool(w_lo.min(initial=0.0) < 0.0)
    return T2Bound(True, lam, upper, lower_fails)


@dataclass
class ChainReport:
    """Cor-8.11 style implication chain between boundedness conditions."""

    conditions: dict
    scales: dict
    implications_ok: bool
    violated: list


def _unit_dominates_scale(X: np.ndarray, Y: np.ndarray) -> float:
    """dominates_scale(X, Y) read with each side scaled to spectral norm 1,
    on a pair PSD by construction, which the pair kernel trusts."""
    x, y = spectral_norm(X) or 1.0, spectral_norm(Y) or 1.0
    return _scale_of(_pair_spectra(X / x, Y / y, ("X", "Y"))[0]) * (x / y)


def boundedness_chain(alpha: float, A: np.ndarray, B: np.ndarray,
                      trials: int = 500, seed: int = 0) -> ChainReport:
    """Evaluate conditions (a)-(e) for t^alpha boundedness and assert the chain
    (a) => (b) => (d) => (e) and (a) => (c) => (d) on the computed booleans.

    (a) A^2 <= lambda B, (b) the perspective of t^alpha is bounded,
    (c) A^alpha <= lambda B^(alpha-1), (d) the unit-vector scalar inequality,
    (e) A <= lambda B^((alpha-1)/alpha).  Each is decided by the pair
    kernel's rule max t < 1 - ENDPOINT_TOL, (c) and (e) with each side
    scaled to norm 1, as the rule reads their relative scale (so near the
    cliff at alpha < 2, (c) can hold where (d) fails); (d) also samples
    unit vectors for the reported constant.  One stacked eigh validates A
    and B and gives the powers; the trusting pair kernel gives the spectra
    of (a) and of (c)'s and (e)'s pairs, PSD by construction.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    A, B, w, V = _validated_pair(A, B)
    a2 = _t2_bound(A, B, *_pair_spectra(A, B)[:2])
    res_b = perspective_apply(catalog("power", alpha), A, B)
    (A_alpha,) = _psd_powers(w[0], V[0], alpha)
    B_c, B_e = _psd_powers(w[1], V[1], alpha - 1.0, (alpha - 1.0) / alpha)
    lam_c = _unit_dominates_scale(A_alpha, B_c)
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    lam_d = 0.0
    for _ in range(trials):
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xi /= np.linalg.norm(xi)
        qa = float(np.vdot(xi, A @ xi).real)
        qb = float(np.vdot(xi, B @ xi).real)
        if qb <= 0.0:
            lam_d = INF if qa > 0.0 else lam_d
        else:
            lam_d = max(lam_d, qa ** alpha / qb ** (alpha - 1.0))
    lam_e = _unit_dominates_scale(A, B_e)
    conds = {
        "a": a2.bounded,
        "b": res_b.bounded,
        "c": math.isfinite(lam_c),
        "d": a2.bounded,  # absolute continuity: t2_bound's rule, same pair
        "e": math.isfinite(lam_e),
    }
    chain = [("a", "b"), ("b", "d"), ("d", "e"), ("a", "c"), ("c", "d")]
    violated = [f"{p}=>{q}" for p, q in chain if conds[p] and not conds[q]]
    return ChainReport(conds,
                       {"a": a2.lambda_min, "c": lam_c, "d": lam_d, "e": lam_e},
                       not violated, violated)


def check_ah_inequality(f: ExtendedFunction, A: np.ndarray, B: np.ndarray,
                        p_list=(1.0, 0.5, 0.25), rel_slack: float = 1e-7):
    """Norm inequality |phi_f(A^p, B^p)| <= |phi_f(A,B)|^p for p in (0, 1].

    Requires f tagged pmi and either convex with f(0+) = 0 or operator
    monotone decreasing; infinite norms are allowed on either side.
    """
    if not f.has_tag("pmi"):
        raise ValueError(f"{f.name} is not tagged pmi")
    convex_zero = f.has_tag("operator_convex") and f.f_at_0plus == 0.0
    omd = f.has_tag("operator_monotone_decreasing")
    if not (convex_zero or omd):
        raise ValueError(
            f"{f.name} must be convex with f(0+)=0 or operator monotone decreasing"
        )
    base = perspective_apply(f, A, B).value.operator_norm()
    rows = []
    ok = True
    for p in p_list:
        if not 0.0 < p <= 1.0:
            raise ValueError("exponents must lie in (0, 1]")
        lhs = perspective_apply(
            f, matrix_power_psd(A, p), matrix_power_psd(B, p)
        ).value.operator_norm()
        rhs = base ** p if math.isfinite(base) else INF
        holds = (lhs <= rhs * (1.0 + rel_slack)) if math.isfinite(rhs) else True
        ok &= holds
        rows.append({"p": p, "lhs": lhs, "rhs": rhs, "holds": holds})
    return ok, rows


# ---------------------------------------------------------------------------
# Positive maps through the predual
# ---------------------------------------------------------------------------

@dataclass
class CheckOutcome:
    ok: bool
    failures: list


def _kraus_list(kraus) -> list:
    """The Kraus operators as complex arrays (np.atleast_2d); at least one."""
    kraus = [np.atleast_2d(np.asarray(K, dtype=complex)) for K in kraus]
    if not kraus:
        raise ValueError("kraus must hold at least one operator")
    return kraus


def _kraus_sum(kraus, X, predual: bool) -> np.ndarray:
    """The Hermitian part of sum_i K_i X K_i*, or sum_i K_i* X K_i (predual).
    A non-finite sum (one that overflowed, say) raises ValueError, not NaN."""
    X = np.asarray(X, dtype=complex)
    terms = (K.conj().T @ X @ K if predual else K @ X @ K.conj().T
             for K in _kraus_list(kraus))
    with np.errstate(over="ignore", invalid="ignore"):
        total = hermitian_part(functools.reduce(operator.add, terms))
    if not np.isfinite(total).all():
        raise ValueError("the Kraus sum has a non-finite (NaN or inf) entry")
    return total


def kraus_apply(kraus, X: np.ndarray) -> np.ndarray:
    """Phi(X) = sum_i K_i X K_i*."""
    return _kraus_sum(kraus, X, predual=False)


def kraus_predual(kraus, rho: np.ndarray) -> np.ndarray:
    """Phi_*(rho) = sum_i K_i* rho K_i, the predual action on states."""
    return _kraus_sum(kraus, rho, predual=True)


def check_positive_map_monotonicity(f: ExtendedFunction, kraus,
                                    A: np.ndarray, B: np.ndarray,
                                    n_states: int = 20, seed: int = 0,
                                    rel_slack: float = 1e-8):
    """phi_f(Phi(A), Phi(B)) <= Phi(phi_f(A, B)) tested at sampled states.

    The right side acts through the predual: its value at rho is the
    perspective of (A, B) evaluated at Phi_*(rho).  Naive conjugation of the
    finite part would mishandle the infinity part, so it is never used.
    A and B pass the Hermitian half of the stacked validation, which
    compares their shapes, and then each Kraus operator's shape (m x n for
    an n x n pair, all with the same m) is compared, before any eigh.
    """
    A, B = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2, ("A", "B"))
    kraus = _kraus_list(kraus)
    for i, K in enumerate(kraus):
        if K.ndim != 2 or K.shape[1] != A.shape[0] or (
                K.shape[0] != kraus[0].shape[0]):
            raise ValueError(f"dimension mismatch: Kraus operator {i} is "
                             f"{K.shape}, pair is {A.shape}")
    lhs = perspective_apply(f, kraus_apply(kraus, A), kraus_apply(kraus, B)).value
    base = perspective_apply(f, A, B).value
    dim_out = lhs.ambient_dim
    rng = np.random.default_rng(seed)
    failures = []
    scale = 1.0 + spectral_norm(np.asarray(A)) + spectral_norm(np.asarray(B))
    for trial in range(n_states):
        if trial % 2 == 0:
            xi = rng.standard_normal(dim_out) + 1j * rng.standard_normal(dim_out)
            rho = vector_state(xi / np.linalg.norm(xi))
        else:
            X = rng.standard_normal((dim_out, dim_out)) \
                + 1j * rng.standard_normal((dim_out, dim_out))
            rho = X @ X.conj().T / dim_out
        lv = evaluate_state(lhs, rho)
        pre = kraus_predual(kraus, rho)
        if float(np.trace(pre).real) <= 1e-14:
            rv = 0.0
        else:
            rv = evaluate_state(base, pre)
        if math.isinf(rv):
            continue
        if math.isinf(lv) or lv > rv + rel_slack * scale:
            failures.append({"trial": trial, "lhs": lv, "rhs": rv})
    return CheckOutcome(not failures, failures)
