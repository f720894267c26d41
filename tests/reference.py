"""Reference paths the tests hold the library's fast paths to.

Each validates with the stacked pass and then decomposes, in the order the
library did before it read the validation and the spectra from one pass;
none is called by pwcalc itself.
"""

from __future__ import annotations

import numpy as np

from pwcalc.calculus import (
    _pair_spectrum,
    _sequential_pair,
    _sequential_state_pair,
    _state_weights,
)
from pwcalc.linalg import (
    HERMITIAN_ATOL,
    MATRIX_HERMITIAN_ATOL,
    _hermitian_stack,
    _psd_stack,
)


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
