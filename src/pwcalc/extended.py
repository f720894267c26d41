"""Finite-dimensional extended lower-semibounded self-adjoint elements.

An element is a Hermitian operator on an *essential* subspace together with
the value +inf on the orthogonal complement (the infinity part).  Evaluation
against states, the form order, form sums and congruences all live here.

Conventions enforced throughout: 0 * inf = 0, inf + finite = inf, and
inf - inf is a trapped logic error (never a silent NaN).

The public constructors `ExtendedSelfAdjoint(...)` and `make_extended(...)`
check their input.  Elements built here from finite parts that are
Hermitian by construction, on bases that LAPACK made orthonormal, skip
those checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Subspace,
    _trusted,
    eigh,
    full_space,
    hermitian_part,
    require_state,
    subspace_meet,
    zero_subspace,
    EPS,
)

INF = math.inf

# A state numerically orthogonal to the infinity part evaluates finite:
# the infinity mass threshold is STATE_INF_REL_TOL * Tr(rho).
STATE_INF_REL_TOL = 1e-12

# Principal-angle cosine tolerance for the domain-containment half of the
# form order; decoupled from the eigenvalue slack on purpose.
CONTAINMENT_COS_TOL = 1e-8

# Relative amplitude below which a direction counts as clear of the infinity
# part when congruences split kernels.  Consistent with STATE_INF_REL_TOL:
# an amplitude fraction of 1e-12 carries mass 1e-24, far under the state
# threshold, so both classifications agree on which vectors evaluate finite.
KERNEL_REL_TOL = 1e-12


class FormArithmeticError(ArithmeticError):
    """inf - inf or NaN reached extended-real arithmetic."""


def _check_no_nan(x: float) -> float:
    if math.isnan(x):
        raise FormArithmeticError("NaN in extended-real arithmetic")
    return x


def xmul(a: float, b: float) -> float:
    """Extended-real product with the 0 * inf = 0 convention."""
    _check_no_nan(a), _check_no_nan(b)
    if a == 0.0 or b == 0.0:
        return 0.0
    if a == -INF or b == -INF:
        raise FormArithmeticError("-inf is not a permitted value")
    return _check_no_nan(a * b)


def xadd(*values: float) -> float:
    """Extended-real sum; inf - inf is trapped."""
    total = 0.0
    seen_inf = False
    for v in values:
        _check_no_nan(v)
        if v == -INF:
            raise FormArithmeticError("-inf is not a permitted value")
        if v == INF:
            seen_inf = True
        else:
            total += v
    return INF if seen_inf else _check_no_nan(total)


@dataclass(frozen=True)
class ExtendedSelfAdjoint:
    """Hermitian operator on an essential subspace, +inf on its complement.

    finite_part is expressed in the coordinates of essential.basis; the
    quadratic form on the ambient space is q(xi) = <F V* xi, V* xi> for xi in
    the essential part and +inf otherwise.
    """

    ambient_dim: int
    essential: Subspace
    finite_part: np.ndarray = field(repr=False)
    lower_bound: float = 0.0

    def __post_init__(self):
        F = hermitian_part(np.asarray(self.finite_part, dtype=complex))
        object.__setattr__(self, "finite_part", F)
        k = self.essential.dim
        if self.essential.ambient_dim != self.ambient_dim:
            raise ValueError("essential subspace has wrong ambient dimension")
        if F.shape != (k, k):
            raise ValueError(
                f"finite_part shape {F.shape} does not match essential dim {k}"
            )

    @property
    def infinity_dim(self) -> int:
        return self.ambient_dim - self.essential.dim

    @property
    def is_bounded(self) -> bool:
        return self.infinity_dim == 0

    def form_matrix(self) -> np.ndarray:
        """V F V* on the ambient space; valid as a form only on the essential part."""
        V = self.essential.basis
        return hermitian_part(V @ self.finite_part @ V.conj().T)

    def infinity_projector(self) -> np.ndarray:
        V = self.essential.basis
        return np.eye(self.ambient_dim, dtype=complex) - V @ V.conj().T

    def finite_eigenvalues(self) -> np.ndarray:
        w, _ = eigh(self.finite_part)
        return w

    def operator_norm(self) -> float:
        """max |eigenvalue|, +inf when the infinity part is nonzero."""
        if not self.is_bounded:
            return INF
        w = self.finite_eigenvalues()
        return float(np.abs(w).max(initial=0.0))

    def trace(self) -> float:
        """Trace; +inf when the infinity part is nonzero."""
        if not self.is_bounded:
            return INF
        return float(np.trace(self.finite_part).real)


def _element(essential: Subspace, F: np.ndarray,
             lower_bound: float = 0.0) -> ExtendedSelfAdjoint:
    """Element on a finite part that is exactly Hermitian and fits the
    essential part by construction: skips ExtendedSelfAdjoint's checks."""
    return _trusted(ExtendedSelfAdjoint, ambient_dim=essential.ambient_dim,
                    essential=essential, finite_part=F, lower_bound=lower_bound)


def _with_lower_bound(essential: Subspace, F: np.ndarray) -> ExtendedSelfAdjoint:
    """_element with the lower bound min(0, least eigenvalue of F)."""
    w, _ = eigh(F)
    return _element(essential, F, min(float(w[0]), 0.0) if w.size else 0.0)


def from_matrix(M: np.ndarray) -> ExtendedSelfAdjoint:
    """Wrap a bounded Hermitian matrix (full essential part, identity basis)."""
    M = hermitian_part(M)
    return _with_lower_bound(full_space(M.shape[0]), M)


def zero_element(n: int) -> ExtendedSelfAdjoint:
    return from_matrix(np.zeros((n, n), dtype=complex))


def make_extended(pairs) -> ExtendedSelfAdjoint:
    """Assemble an element from orthonormal (eigenvalue, eigenvector) pairs.

    Eigenvalues may be +inf; those eigenvectors form the infinity part.  The
    vectors must be orthonormal and span the ambient space.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("make_extended needs at least one eigenpair")
    vecs = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for _, v in pairs])
    n, k = vecs.shape
    if k != n:
        raise ValueError(f"eigenvectors must span the space: got {k} vectors in C^{n}")
    gram = vecs.conj().T @ vecs
    dev = np.abs(gram - np.eye(n))
    if dev.max() > 1e-10:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValueError(
            f"eigenvectors not orthonormal: Gram[{i}][{j}] deviates by {dev[i, j]:.3e}"
        )
    return _diagonal_element([float(v) for v, _ in pairs], vecs)


def _diagonal_element(values: list, vecs: np.ndarray) -> ExtendedSelfAdjoint:
    """Element with eigenvalues `values` (floats, +inf allowed) on the
    columns of the unitary `vecs`; the finite part is the real diagonal of
    the finite ones."""
    for v in values:
        _check_no_nan(v)
    if -INF in values:
        raise ValueError("-inf eigenvalue not permitted (lower semibounded)")
    fin = [i for i, v in enumerate(values) if v != INF]
    finite = [values[i] for i in fin]
    basis = vecs if len(fin) == len(values) else vecs[:, fin]
    lb = min(min(finite), 0.0) if finite else 0.0
    return _element(_trusted(Subspace, basis=basis),
                    np.diag(np.array(finite, dtype=complex)), lb)


def infinity_on(sub: Subspace) -> ExtendedSelfAdjoint:
    """Element that is +inf on `sub` and 0 on its complement."""
    comp = sub.complement()
    return _element(comp, np.zeros((comp.dim, comp.dim), dtype=complex))


def evaluate_state(T: ExtendedSelfAdjoint, rho: np.ndarray) -> float:
    """m(rho): finite-branch trace pairing, +inf when rho loads the inf part.

    Returns Tr(rho compressed to the essential part * finite_part) when
    Tr(rho P_inf) <= STATE_INF_REL_TOL * Tr(rho), else +inf.  The threshold
    realizes the exact 0 * inf = 0 convention numerically.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    # a square state of the wrong size is rejected before require_state's eigh
    if rho.ndim == 2 and rho.shape[0] == rho.shape[1] != T.ambient_dim:
        raise ValueError(
            f"dimension mismatch: state is {rho.shape[0]}-dim, element is "
            f"{T.ambient_dim}-dim"
        )
    return _state_value(T, require_state(rho))


def _loads_infinity(total: float, essential: float) -> bool:
    """A state of trace `total`, `essential` of it on the essential part,
    loads the infinity part: total - essential > STATE_INF_REL_TOL * total."""
    return total - essential > STATE_INF_REL_TOL * total


def _state_value(T: ExtendedSelfAdjoint, rho: np.ndarray) -> float:
    """evaluate_state's kernel: rho must be a validated state of T's size."""
    V = T.essential.basis
    compressed = V.conj().T @ rho @ V
    if T.infinity_dim and _loads_infinity(float(np.trace(rho).real),
                                          float(np.trace(compressed).real)):
        return INF
    return float(np.trace(compressed @ T.finite_part).real)


def quadratic_form(T: ExtendedSelfAdjoint, xi: np.ndarray) -> float:
    """q_T(xi) = m(omega_xi); 0 at xi = 0; a non-finite xi is rejected."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape[0] != T.ambient_dim:
        raise ValueError("vector dimension mismatch")
    if not np.isfinite(xi).all():
        raise ValueError("vector has a non-finite (NaN or inf) entry")
    nrm2 = float(np.vdot(xi, xi).real)
    if nrm2 == 0.0:
        return 0.0
    coords = T.essential.basis.conj().T @ xi
    if T.infinity_dim and _loads_infinity(
            nrm2, float(np.vdot(coords, coords).real)):
        return INF
    return float(np.vdot(coords, T.finite_part @ coords).real)


def add(T1: ExtendedSelfAdjoint, T2: ExtendedSelfAdjoint) -> ExtendedSelfAdjoint:
    """Form sum: essential parts intersect, finite forms add on the meet."""
    if T1.ambient_dim != T2.ambient_dim:
        raise ValueError("dimension mismatch in form sum")
    # a sum of two exactly Hermitian forms is exactly Hermitian
    G = T1.form_matrix() + T2.form_matrix()
    if T1.is_bounded and T2.is_bounded:
        return _with_lower_bound(full_space(T1.ambient_dim), G)
    meet = subspace_meet(T1.essential, T2.essential)
    W = meet.basis
    return _with_lower_bound(meet, hermitian_part(W.conj().T @ G @ W))


def scale(alpha: float, T: ExtendedSelfAdjoint) -> ExtendedSelfAdjoint:
    """alpha * T for alpha >= 0; scale(0, T) is the zero bounded element."""
    if alpha < 0:
        raise ValueError("scale factor must be nonnegative")
    if alpha == 0.0:
        return zero_element(T.ambient_dim)
    return _element(T.essential, alpha * T.finite_part,
                    min(alpha * T.lower_bound, 0.0))


def congruence(C: np.ndarray, T: ExtendedSelfAdjoint) -> ExtendedSelfAdjoint:
    """C* T C for a rectangular C mapping K -> H (shape dim_H x dim_K).

    The result lives on K with q(xi) = q_T(C xi); its essential part is the
    preimage of T's essential part, computed from the SVD kernel of P_inf C.
    """
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    if C.shape[0] != T.ambient_dim:
        raise ValueError(
            f"shape mismatch: C maps into C^{C.shape[0]}, element lives on "
            f"C^{T.ambient_dim}"
        )
    G = T.form_matrix()
    if T.is_bounded:
        return from_matrix(C.conj().T @ G @ C)
    kernel = _kernel(T.infinity_projector() @ C)  # preimage of essential(T)
    CW = C @ kernel
    return _with_lower_bound(_trusted(Subspace, basis=kernel),
                             hermitian_part(CW.conj().T @ G @ CW))


def _kernel(W: np.ndarray) -> np.ndarray:
    """An orthonormal basis of W's kernel from one svd, cut at
    max(max(W.shape) eps, KERNEL_REL_TOL) times the largest singular value."""
    _, s, Vh = np.linalg.svd(W)
    tol = max(max(W.shape) * EPS, KERNEL_REL_TOL) * s.max(initial=0.0)
    return Vh[int(np.sum(s > tol)):].conj().T


def _diagonal_congruence(X: np.ndarray, values) -> ExtendedSelfAdjoint:
    """X* diag(values) X for a k x n matrix X and floats `values` (+inf
    allowed): congruence(X, ...) of the diagonal element with those
    eigenvalues on the standard basis of C^k, without forming it.

    With every value finite it is X* (v X) on C^n.  Otherwise the essential
    part is the kernel of X's +inf rows, cut as congruence cuts it (one
    svd), and the finite part is Y* (v_F Y) with Y = X_F times that kernel.
    NaN and -inf raise as in _diagonal_element.
    """
    v = np.array(values, dtype=float)
    if np.isfinite(v).all():
        return _with_lower_bound(full_space(X.shape[1]),
                                 hermitian_part(X.conj().T @ (v[:, None] * X)))
    if np.isnan(v).any():
        raise FormArithmeticError("NaN in extended-real arithmetic")
    if (v == -INF).any():
        raise ValueError("-inf eigenvalue not permitted (lower semibounded)")
    inf = v == INF
    kernel = _kernel(X[inf])
    fin = ~inf
    Y = X[fin] @ kernel
    return _with_lower_bound(_trusted(Subspace, basis=kernel),
                             hermitian_part(Y.conj().T @ (v[fin, None] * Y)))


def form_leq(T1: ExtendedSelfAdjoint, T2: ExtendedSelfAdjoint, slack: float):
    """Form order T1 <= T2 up to slack, with a witness on failure.

    True iff essential(T2) is contained in essential(T1) (principal-angle
    cosines within CONTAINMENT_COS_TOL) and the compression of q2 - q1 to
    essential(T2) has min eigenvalue >= -slack.  On failure returns a vector
    xi with q1(xi) > q2(xi) + slack.
    """
    if T1.ambient_dim != T2.ambient_dim:
        raise ValueError("dimension mismatch in form order")
    V2 = T2.essential.basis
    if T2.essential.dim and not T1.essential.contains(T2.essential,
                                                      CONTAINMENT_COS_TOL):
        # direction of essential(T2) farthest from essential(T1): q1 = inf there
        if T1.essential.dim == 0:
            witness = V2[:, 0]
        else:
            _, sv, Vh = np.linalg.svd(T1.essential.basis.conj().T @ V2)
            if len(sv) < T2.essential.dim:
                idx = T2.essential.dim - 1
            else:
                idx = int(np.argmin(sv))
            witness = V2 @ Vh[idx].conj()
        return False, witness
    if T2.essential.dim == 0:
        return True, None
    D = hermitian_part(V2.conj().T @ (T2.form_matrix() - T1.form_matrix()) @ V2)
    w, Q = eigh(D)
    if w[0] >= -slack:
        return True, None
    return False, V2 @ Q[:, 0]


def approx_equal(T1: ExtendedSelfAdjoint, T2: ExtendedSelfAdjoint,
                 slack: float) -> bool:
    """Mutual form order: the elements agree as quadratic forms up to slack."""
    le, _ = form_leq(T1, T2, slack)
    ge, _ = form_leq(T2, T1, slack)
    return le and ge


BOUNDED = "bounded"
PROPER_INFINITY = "proper_infinity_part"


def classify(T: ExtendedSelfAdjoint) -> str:
    """'bounded' iff the infinity part is zero-dimensional.

    At finite dimension a dense domain forces boundedness, so there is no
    separate dense-domain class.
    """
    return BOUNDED if T.is_bounded else PROPER_INFINITY


# ---------------------------------------------------------------------------
# Serialization: {"n": ..., "essential_basis": re/im grids (n x k),
#                 "finite_part": re/im grids (k x k)}
# ---------------------------------------------------------------------------

def _grids(M: np.ndarray):
    return ([[float(x.real) for x in row] for row in M],
            [[float(x.imag) for x in row] for row in M])


def to_json_dict(T: ExtendedSelfAdjoint) -> dict:
    bre, bim = _grids(T.essential.basis)
    fre, fim = _grids(T.finite_part)
    return {
        "n": T.ambient_dim,
        "essential_basis": {"re": bre, "im": bim},
        "finite_part": {"re": fre, "im": fim},
    }


def dump_json(T: ExtendedSelfAdjoint, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(T), fh)
        fh.write("\n")


def from_json_dict(payload: dict) -> ExtendedSelfAdjoint:
    n = payload["n"]
    eb = payload["essential_basis"]
    basis = np.array(eb["re"], dtype=float) + 1j * np.array(eb["im"], dtype=float)
    basis = basis.reshape(n, -1)
    fp = payload["finite_part"]
    k = basis.shape[1]
    F = (np.array(fp["re"], dtype=float) + 1j * np.array(fp["im"], dtype=float))
    F = F.reshape(k, k)
    sub = Subspace(basis) if k else zero_subspace(n)
    return ExtendedSelfAdjoint(n, sub, F)
