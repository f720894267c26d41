"""Reference paths the tests hold the library's fast paths to.

The pair paths validate with the stacked pass and then decompose, in the
order the library did before it read the validation and the spectra from
one pass; the square root and the range basis apply their rank mask at
every rank, where the library skips it on a full-rank matrix.  The
`redecomposed_*` calls validate, then decompose each matrix again where
the library reads the eigenpairs its PSD check decided on, the
`unvalidated_*` calls decompose their input as given, and
`revalidated_variational_envelope` validates its pair at every n.  None is called by
pwcalc itself.
"""

from __future__ import annotations

import math

import numpy as np

from pwcalc.calculus import (
    PreconditionError,
    SpecialValues,
    _grouped_joint_eigensystem,
    _pair_spectrum,
    _sequential_pair,
    _sequential_state_pair,
    _state_weights,
)
from pwcalc.extended import congruence, from_matrix, infinity_on, make_extended
from pwcalc.functions import CLOSED_POS, ExtendedFunction, approximants, calculus
from pwcalc.linalg import (
    HERMITIAN_ATOL,
    MATRIX_HERMITIAN_ATOL,
    Subspace,
    _hermitian_stack,
    _psd_stack,
    _range_cut,
    _range_eigh,
    default_rank_tol,
    eigh,
    hermitian_part,
    require_psd,
    spectral_norm,
)
from pwcalc.perspectives import _psd_powers
from pwcalc.variational import optimizer_decomposition, variational_bound_94


def validate_stack(mats, atols):
    """require_psd over all the matrices of one call, in one pass:
    _hermitian_stack, then _psd_stack.  Returns the Hermitian parts, as
    require_psd does, or None when any check fails."""
    H = _hermitian_stack(mats, atols)
    if H is None or not _psd_stack(H):
        return None
    return tuple(H)


def validated_pair(A, B):
    """_sequential_pair's A and B from one stacked pass (one eigh for both);
    whatever that pass rejects, _sequential_pair rejects with its own error
    and message."""
    return (validate_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2)
            or _sequential_pair(A, B))


def validated_state_pair(rho, A, B):
    """_sequential_state_pair's rho, A and B from one stacked pass (one eigh
    for all three); whatever that pass rejects, or a state without positive
    trace, _sequential_state_pair rejects with its own error and message."""
    checked = validate_stack((rho, A, B), (HERMITIAN_ATOL, MATRIX_HERMITIAN_ATOL,
                                           MATRIX_HERMITIAN_ATOL))
    if checked is None or float(np.trace(checked[0]).real) <= 0.0:
        return _sequential_state_pair(rho, A, B)
    return checked


def r_spectrum_weights(A, B, rho):
    """R's clipped eigenvalues t and the state weights m_i = (X rho X*)_ii
    over the rows of _pair_spectrum's X, so that
    rho(X* diag(g(t)) X) = sum_i m_i g(t_i).  Trusts its input: rho, A and B
    are the arrays validated_state_pair returns."""
    t, X = _pair_spectrum(A, B)
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
    A, B = _sequential_pair(A, B)
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
    A, B = _sequential_pair(A, B)
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
