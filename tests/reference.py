"""Reference paths the tests hold the library's fast paths to.

The pair paths validate one matrix at a time, with the public
require_psd and require_state only, and then decompose, in the order the
library did before it read the validation and the spectra from one pass;
the square root and the range basis apply their rank mask at every rank,
where the library skips it on a full-rank matrix.  The `redecomposed_*`
calls validate, then decompose each matrix again where the library reads
the eigenpairs its PSD check decided on, the `unvalidated_*` calls
decompose their input as given, and `revalidated_variational_envelope`
validates its pair at every n.  None is called by pwcalc itself.
"""

from __future__ import annotations

import math

import numpy as np

from pwcalc.calculus import (
    PreconditionError,
    SpecialValues,
    _grouped_joint_eigensystem,
    _pair_spectrum,
    _state_weights,
)
from pwcalc.extended import congruence, from_matrix, infinity_on, make_extended
from pwcalc.functions import CLOSED_POS, ExtendedFunction, approximants, calculus
from pwcalc.linalg import (
    MATRIX_HERMITIAN_ATOL,
    Subspace,
    _range_cut,
    _range_eigh,
    default_rank_tol,
    eigh,
    hermitian_part,
    require_psd,
    require_state,
    spectral_norm,
)
from pwcalc.perspectives import _psd_powers
from pwcalc.variational import optimizer_decomposition, variational_bound_94


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


def r_spectrum_weights(A, B, rho):
    """R's clipped eigenvalues t and the state weights m_i = (X rho X*)_ii
    over the rows of _pair_spectrum's X, so that
    rho(X* diag(g(t)) X) = sum_i m_i g(t_i).  Trusts its input: rho, A and B
    are the arrays sequential_state_pair returns."""
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
