"""Reference paths the tests hold the library's fast paths to.

The pair paths validate one matrix at a time, with the public
require_psd and require_state only, and then decompose, in the order the
library did before it read the validation and the spectra from one pass;
the square root and the range basis apply their rank mask at every rank,
where the library skips it on a full-rank matrix.  The `redecomposed_*`
calls validate, then decompose each matrix (and A + B) again where the
library reads the eigenpairs of its validation's stack, the `unvalidated_*` calls
decompose their input as given, and `revalidated_variational_envelope`
validates its pair at every n.  `eigh_require_state` validates a state by
its eigh at every order, where require_state certifies a large definite
state by Cholesky, and `compressed_state_value` compresses the state to
the essential part before it pairs.  `mp_perspective` evaluates the
invertible-pair sandwich in mpmath, the first arbitrary-precision
reference.  None is called by pwcalc itself.
"""

from __future__ import annotations

import math

import numpy as np

from pwcalc.calculus import (
    HomogeneityReport,
    PreconditionError,
    SpecialValues,
    _grouped_joint_eigensystem,
    _pair_spectra,
    _state_weights,
    pw_apply,
)
from pwcalc.extended import (
    CONTAINMENT_COS_TOL,
    INF,
    _loads_infinity,
    add,
    congruence,
    form_leq,
    from_matrix,
    infinity_on,
    make_extended,
    quadratic_form,
)
from pwcalc.functions import (
    CLOSED_POS,
    ExtendedFunction,
    approximants,
    calculus,
    catalog,
)
from pwcalc.linalg import (
    MATRIX_HERMITIAN_ATOL,
    Subspace,
    _range_cut,
    _range_eigh,
    default_rank_tol,
    eigh,
    hermitian_part,
    psd_pinv,
    require_hermitian,
    require_psd,
    require_state,
    span,
    spectral_norm,
    subspace_meet,
)
from pwcalc.perspectives import (
    ChainReport,
    _psd_powers,
    _t2_bound,
    dominates_scale,
    perspective_apply,
)
from pwcalc.variational import (
    _coeff_times_psd,
    optimizer_decomposition,
    variational_bound_94,
)


def _shaped(M) -> np.ndarray:
    return np.atleast_2d(np.asarray(M, dtype=complex))


def sequential_pair(A, B, names=("A", "B")):
    """A and B validated one at a time, named in errors by `names`: their
    shapes compared first, so that a mismatch raises before either is
    checked, then require_psd on A, then on B, at the matrix-argument
    tolerance."""
    A, B = _shaped(A), _shaped(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return tuple(require_psd(M, name=name, atol=MATRIX_HERMITIAN_ATOL)
                 for M, name in zip((A, B), names))


def sequential_state_pair(rho, A, B):
    """rho, A and B validated one at a time: a square state whose size
    differs from a square pair's is rejected first, before any eigh; then
    rho by require_state, then A and B by sequential_pair."""
    rho, A, B = _shaped(rho), _shaped(A), _shaped(B)
    n = A.shape[0]
    if (A.shape == B.shape == (n, n) and rho.ndim == 2
            and rho.shape[0] == rho.shape[1] != n):
        raise ValueError(
            f"dimension mismatch: state is {rho.shape[0]}-dim, pair is "
            f"{n}-dim"
        )
    return (require_state(rho), *sequential_pair(A, B))


def eigh_require_state(rho, name="state"):
    """require_state on the eigh path at every order: require_psd, then the
    trace check."""
    rho = require_psd(rho, name=name)
    with np.errstate(over="ignore"):  # a trace that overflows is inf > 0
        tr = float(rho.trace().real)
    if tr <= 0.0:
        raise ValueError(f"{name} must have strictly positive trace, got {tr:.3e}")
    return rho


def compressed_state_value(T, rho):
    """evaluate_state's value by compressing first: C = V* rho V, +inf when
    Tr rho - Tr C exceeds the infinity-mass threshold, else Tr(C F).
    Trusts its input: rho a validated state of T's size."""
    V = T.essential.basis
    C = V.conj().T @ rho @ V
    if T.infinity_dim and _loads_infinity(float(rho.trace().real),
                                          float(C.trace().real)):
        return INF
    return float((C @ T.finite_part).trace().real)


def r_spectrum_weights(A, B, rho):
    """R's clipped eigenvalues t and the state weights m_i = (X rho X*)_ii
    over the rows of _pair_spectra's X, so that
    rho(X* diag(g(t)) X) = sum_i m_i g(t_i).  Trusts its input: rho, A and B
    are the arrays sequential_state_pair returns."""
    t, X, _ = _pair_spectra(A, B)
    return t, _state_weights(X, rho)


def masked_range_eigh(M, name):
    """_range_eigh with the rank mask returned at every rank: eigh of M and
    the mask of its eigenvalues above the rank cut, all True on a
    full-rank M."""
    w, V = eigh(M)
    return w, V, w > _range_cut(w.tolist(), name)


def masked_psd_sqrt(M):
    """psd_sqrt with the rank mask applied at every rank: the eigenvalues
    at or below the rank cut floored to 0 by np.where, a full-rank M
    included."""
    w, V, keep = masked_range_eigh(M, "psd_sqrt")
    return hermitian_part((V * np.sqrt(np.where(keep, w, 0.0))) @ V.conj().T)


def unvalidated_range_subspace(M):
    """range_subspace of M as given: the eigenvectors of eigh(M) above the
    rank cut."""
    w, V = eigh(M)
    return Subspace(V[:, w > default_rank_tol(w)])


def unvalidated_psd_pinv(M):
    """psd_pinv of M as given: eigh(M), its eigenvalues above the rank cut
    inverted."""
    w, V = eigh(M)
    keep = w > default_rank_tol(w)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return hermitian_part((V * inv) @ V.conj().T)


def unvalidated_optimal_decomposition(A, B, xi, t):
    """optimal_decomposition on A and B as given."""
    A, B = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    zeta = unvalidated_psd_pinv(hermitian_part(A + t * B)) @ (A @ xi)
    return xi - zeta, zeta


def redecomposed_special_values(phi, A, alpha, beta):
    """special_values with A validated by require_psd, its range from a
    second eigh of A and each calculus from calculus(f, A), which
    validates A and decomposes it again."""
    A = require_psd(A, name="A", atol=MATRIX_HERMITIAN_ATOL)
    right = ExtendedFunction(f"{phi.name}(t,{alpha})", CLOSED_POS,
                             lambda t: phi.bivariate(t, alpha))
    left = ExtendedFunction(f"{phi.name}({alpha},t)", CLOSED_POS,
                            lambda t: phi.bivariate(alpha, t))
    scalar = phi.bivariate(alpha, beta)
    if math.isinf(scalar):
        scaled = infinity_on(unvalidated_range_subspace(A))
    else:
        scaled = from_matrix(scalar * A)
    return SpecialValues(calculus(right, A), calculus(left, A), scaled)


def redecomposed_invertible_formula(phi, A, B):
    """invertible_formula with the invertibility test and the roots read off
    a second eigh of B (or of A when B is singular)."""
    A, B = sequential_pair(A, B)
    w, V, keep = _range_eigh(B, "B")
    inner, g = A, ExtendedFunction(f"{phi.name}(t,1)", CLOSED_POS,
                                   lambda t: phi.bivariate(t, 1.0))
    if keep is not None:
        w, V, keep = _range_eigh(A, "A")
        if keep is not None:
            raise PreconditionError("invertible_formula needs A or B invertible")
        inner, g = B, ExtendedFunction(f"{phi.name}(1,t)", CLOSED_POS,
                                       lambda t: phi.bivariate(1.0, t))
    root = np.sqrt(w)
    inv_half = hermitian_part((V / root) @ V.conj().T)
    W = hermitian_part(inv_half @ inner @ inv_half)
    return congruence(hermitian_part((V * root) @ V.conj().T), calculus(g, W))


def redecomposed_matrix_power_psd(M, p):
    """matrix_power_psd with M validated by require_psd, then decomposed
    again."""
    M = require_psd(M, name="matrix", atol=MATRIX_HERMITIAN_ATOL)
    return _psd_powers(*eigh(M), p)[0]


def redecomposed_pw_commuting_oracle(phi, A, B):
    """pw_commuting_oracle with the joint eigensystem built on a second eigh
    of A."""
    A, B = sequential_pair(A, B)
    comm = spectral_norm(A @ B - B @ A)
    bound = 1e-9 * spectral_norm(A) * spectral_norm(B)
    if comm > max(bound, 1e-13):
        raise PreconditionError(
            f"pair does not commute: |AB - BA| = {comm:.3e} > {bound:.3e}"
        )
    kernel_floor = default_rank_tol(eigh(A + B)[0])
    return make_extended([
        (phi.bivariate(max(x, 0.0), max(y, 0.0), zero_tol=kernel_floor), v)
        for x, y, v in _grouped_joint_eigensystem(*eigh(A), B)])


def revalidated_variational_envelope(r, A, B, xi, n_list):
    """variational_envelope with A and B validated again at every n, by
    optimizer_decomposition and by variational_bound_94."""
    out = []
    for n in n_list:
        app = approximants(r, n)
        dec = optimizer_decomposition(app.nu_n, A, B, xi, 1.0 / n, float(n))
        out.append((n, variational_bound_94(r, A, B, xi, n, dec)))
    return out


def redecomposed_parallel_sum(A, B):
    """parallel_sum with the pair validated by sequential_pair and the
    pseudo-inverse from psd_pinv(A + B), an eigh of the sum's own."""
    A, B = sequential_pair(A, B)
    return hermitian_part(A - A @ psd_pinv(A + B) @ A)


def redecomposed_check_homogeneity(phi, A, B, C, probe_vectors=10, seed=0):
    """check_homogeneity with the pair validated by sequential_pair and the
    range of A + B from an eigh of the sum's own; C must have the pair's
    rows."""
    A, B = sequential_pair(A, B)
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    w, V, keep = masked_range_eigh(A + B, "A + B")
    if not span(C).contains(Subspace(V[:, keep]), CONTAINMENT_COS_TOL):
        return HomogeneityReport(True, "range(A+B) not contained in range(C)",
                                 True, 0.0, None)
    lhs = pw_apply(phi, hermitian_part(C.conj().T @ A @ C),
                   hermitian_part(C.conj().T @ B @ C))
    rhs = congruence(C, pw_apply(phi, A, B))
    slack = 1e-8 * (1.0 + max(np.abs(lhs.finite_part).max(initial=0.0),
                              np.abs(rhs.finite_part).max(initial=0.0)))
    le, w1 = form_leq(lhs, rhs, slack)
    ge, w2 = form_leq(rhs, lhs, slack)
    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(probe_vectors):
        xi = rng.standard_normal(C.shape[1]) + 1j * rng.standard_normal(
            C.shape[1])
        q1, q2 = quadratic_form(lhs, xi), quadratic_form(rhs, xi)
        if math.isinf(q1) != math.isinf(q2):
            dev = INF
        elif not math.isinf(q1):
            dev = max(dev, abs(q1 - q2))
    return HomogeneityReport(False, None, le and ge, dev,
                             w1 if w1 is not None else w2)


def redecomposed_boundedness_chain(alpha, A, B, trials=500, seed=0):
    """boundedness_chain with the pair validated by sequential_pair, the
    powers from eigh(A) and eigh(B), and (c) and (e) from dominates_scale,
    which validates each powered pair again."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    A, B = sequential_pair(A, B)
    a2 = _t2_bound(A, B, *_pair_spectra(A, B)[:2])
    res_b = perspective_apply(catalog("power", alpha), A, B)
    (A_alpha,) = _psd_powers(*eigh(A), alpha)
    B_c, B_e = _psd_powers(*eigh(B), alpha - 1.0, (alpha - 1.0) / alpha)

    def unit_scale(X, Y):
        x, y = spectral_norm(X) or 1.0, spectral_norm(Y) or 1.0
        return dominates_scale(X / x, Y / y) * (x / y)

    lam_c, lam_e = unit_scale(A_alpha, B_c), unit_scale(A, B_e)
    rng = np.random.default_rng(seed)
    lam_d = 0.0
    for _ in range(trials):
        xi = rng.standard_normal(len(A)) + 1j * rng.standard_normal(len(A))
        xi /= np.linalg.norm(xi)
        qa = float(np.vdot(xi, A @ xi).real)
        qb = float(np.vdot(xi, B @ xi).real)
        if qb <= 0.0:
            lam_d = INF if qa > 0.0 else lam_d
        else:
            lam_d = max(lam_d, qa ** alpha / qb ** (alpha - 1.0))
    conds = {"a": a2.bounded, "b": res_b.bounded, "c": math.isfinite(lam_c),
             "d": a2.bounded, "e": math.isfinite(lam_e)}
    chain = [("a", "b"), ("b", "d"), ("d", "e"), ("a", "c"), ("c", "d")]
    violated = [f"{p}=>{q}" for p, q in chain if conds[p] and not conds[q]]
    return ChainReport(conds,
                       {"a": a2.lambda_min, "c": lam_c, "d": lam_d, "e": lam_e},
                       not violated, violated)


def redecomposed_two_projections(f, P, Q):
    """two_projections with P and Q validated one at a time and their
    ranges from an eigh of each."""
    P, Q = (require_hermitian(X, atol=1e-10, name=name)
            for X, name in ((P, "P"), (Q, "Q")))
    for name, X in (("P", P), ("Q", Q)):
        idem = spectral_norm(X @ X - X)
        if idem > 1e-10:
            raise ValueError(f"{name} is not idempotent: |X^2 - X| = {idem:.3e}")
    f1 = f.f_at_1 if f.f_at_1 is not None else f(1.0)
    Pm = subspace_meet(unvalidated_range_subspace(P),
                       unvalidated_range_subspace(Q)).projector()
    out = from_matrix(f1 * Pm)
    for coeff, X in ((f.fprime_at_inf, P), (f.f_at_0plus, Q)):
        out = add(out, _coeff_times_psd(coeff, hermitian_part(X - Pm)))
    return out


def mp_perspective(f, A, B, shift=0.0, dps=60):
    """B^1/2 f(B^-1/2 A B^-1/2) B^1/2 of (A + shift I, B + shift I) in dps
    digits, on the given doubles (the shift added exactly), for an
    invertible B + shift I; f maps an mpmath number, as mpmath.log does.
    Needs mpmath, which pwcalc does not."""
    import mpmath

    n = len(A)
    with mpmath.workdps(dps):
        to_mp = lambda M: mpmath.matrix(
            [[mpmath.mpc(complex(v)) for v in row] for row in M]
        ) + shift * mpmath.eye(n)
        w, V = mpmath.eighe(to_mp(B))
        inv_half = V * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * V.H
        half = V * mpmath.diag([mpmath.sqrt(x) for x in w]) * V.H
        W = inv_half * to_mp(A) * inv_half
        u, Q = mpmath.eighe((W + W.H) / 2)
        M = half * Q * mpmath.diag([f(x) for x in u]) * Q.H * half
        return np.array([[complex(M[i, j]) for j in range(n)]
                         for i in range(n)])
