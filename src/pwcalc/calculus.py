"""Two-variable functional calculus for pairs of PSD matrices.

A homogeneous function phi on the closed positive quadrant is applied to a
pair (A, B) through the compatible representation (T, R, S) of the pair:
T = (A+B)^{1/2} restricted to the range closure of A+B, R + S = I there,
T*RT = A and T*ST = B.  The calculus is phi(A, B) = T* phi(R, S) T, assembled
from the eigenvalues of R through the diagonal t -> phi(t, 1-t).

Eigenvalues of R within ENDPOINT_TOL of 0 or 1 take the corner values
phi(0,1) / phi(1,0): the corner conventions are exact set distinctions that
numerics must discretize.  A diagonal that diverges continuously near an
endpoint (t^2/(1-t) near 1, say) therefore produces a large finite value for
eigenvalues just outside the tolerance band and +inf inside it; there is no
smoothing across that cliff, only the exposed tolerance.  ENDPOINT_TOL is
one of seven deciding tolerances, with the rank cut of A+B
(linalg.default_rank_tol), linalg.MEET_COS_TOL, extended's
CONTAINMENT_COS_TOL, STATE_INF_REL_TOL and KERNEL_REL_TOL, and
variational.SINGULAR_MASS_REL_TOL; README lists what each decides.
PSD_CERTIFICATE_K only selects how a pair is validated (see _certified),
and decides no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .extended import (
    CONTAINMENT_COS_TOL,
    ExtendedSelfAdjoint,
    FormArithmeticError,
    INF,
    _diagonal_congruence,
    congruence,
    form_leq,
    from_matrix,
    infinity_on,
    make_extended,
    quadratic_form,
    xmul,
)
from .functions import (
    CLOSED_POS,
    DomainError,
    ExtendedFunction,
    _spectral_calculus,
    calculus,
)
from .linalg import (
    EPS,
    HERMITIAN_ATOL,
    MATRIX_HERMITIAN_ATOL,
    Subspace,
    _check_psd,
    _concurrently,
    _hermitian_stack,
    _psd_spectra,
    _psd_stack,
    _range_cut,
    _range_eigh,
    _range_of,
    _range_subspace,
    _sqrt_of,
    _trusted,
    default_rank_tol,
    eigh,
    hermitian_part,
    require_hermitian,
    require_state,
    span,
    spectral_norm,
)

# Endpoint classification tolerance on eigenvalues of R (which lie in [0,1]).
ENDPOINT_TOL = 1e-10
# Safety factor K of the definite-pair certificate (_certified).  It selects
# the validation path of a pair and decides no output.
PSD_CERTIFICATE_K = 1e3


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


def _endpoints(t: np.ndarray, tol: float = ENDPOINT_TOL):
    """(at_zero, at_one): the masks of the eigenvalues t of R within tol of
    0 and of 1, one within tol of both ends (tol >= 1/2) counting at 1.  The
    only comparison with the endpoint band: every corner, cone,
    singular-part and containment decision reads these masks."""
    at_one = t >= 1.0 - tol
    return (t < 1.0 - tol if tol >= 0.5 else t <= tol), at_one


def _clipped(w: np.ndarray) -> np.ndarray:
    """The eigenvalues w of R (ascending, as eigh returns them) clipped into
    [0, 1], to the bit as np.clip clips them: w itself when it lies inside
    (0, 1), where the clip changes nothing, else w.clip(0.0, 1.0), the
    method np.clip calls (it keeps a -0.0).  Every path that clips R's
    spectrum clips it here."""
    return w if len(w) and 0.0 < w[0] and w[-1] < 1.0 else w.clip(0.0, 1.0)


def _diagonal_values(phi: HomogeneousFunction, t: np.ndarray,
                     tol: float = ENDPOINT_TOL):
    """(values, at_zero, at_one): phi(t_i, 1 - t_i) over the eigenvalues t
    of R, the corner values on _endpoints' masks (PreconditionError at the
    end a restricted variant excludes) and phi.diagonal elsewhere."""
    at_zero, at_one = _endpoints(t, tol)
    for mask, variant, end in ((at_one, "le", 1), (at_zero, "ge", 0)):
        if phi.variant == variant and np.count_nonzero(mask):
            raise PreconditionError(f"{phi.name}: eigenvalue "
                                    f"{t[mask][0].item()} hits the excluded "
                                    f"endpoint {end}")
    values = [phi.corner_x if one else phi.corner_y if zero else
              phi.diagonal(ti) for ti, zero, one in
              zip(t.tolist(), at_zero.tolist(), at_one.tolist())]
    return values, at_zero, at_one


@dataclass(frozen=True)
class HomogeneousFunction:
    """Homogeneous two-variable function via its diagonal t -> phi(t, 1-t).

    The diagonal lives on [0,1] (full variant) or (0,1] / [0,1) (restricted
    variants); the corner values phi(1,0), phi(0,1) extend it to the axes and
    phi(0,0) = 0 always.  Bivariate evaluation routes through the diagonal at
    t = x/(x+y), which is equivalent for homogeneous functions and keeps a
    single tolerance policy.
    """

    name: str
    diagonal: ExtendedFunction
    corner_x: float  # phi(1, 0)
    corner_y: float  # phi(0, 1)
    variant: str = "full"  # full | ge | le

    def __post_init__(self):
        if self.variant not in ("full", "ge", "le"):
            raise ValueError(f"unknown variant {self.variant!r}")
        for v in (self.corner_x, self.corner_y):
            if math.isnan(v) or v == -INF:
                raise ValueError("corner values must be in (-inf, inf]")
        # corners must agree with the diagonal where its domain is closed
        d = self.diagonal.domain
        for end, closed, corner in (
                (1, d.hi == 1.0 and d.closed_hi, self.corner_x),
                (0, d.lo == 0.0 and d.closed_lo, self.corner_y)):
            if not closed:
                continue
            v = self.diagonal(float(end))
            if not (v == corner or abs(v - corner) <= 1e-12 * (
                    1 + abs(v) if math.isfinite(v) else 1)):
                raise ValueError(
                    f"{self.name}: diagonal({end}) = {v} disagrees with "
                    f"phi({end},{1 - end}) = {corner}")

    def diagonal_value(self, t: float) -> float:
        """phi(t, 1-t) with endpoint classification at the corners."""
        return _diagonal_values(self, np.array([t]))[0][0]

    def bivariate(self, x: float, y: float, zero_tol: float = 0.0) -> float:
        """phi(x, y) on the closed quadrant; phi(0,0) = 0.

        Arguments with x + y <= zero_tol count as the origin: callers that
        feed eigenvalue pairs pass the rank tolerance of A + B here, so the
        kernel convention matches the compatible-representation path.
        """
        if x < 0 or y < 0:
            raise DomainError(f"{self.name}: bivariate arguments must be >= 0")
        s = x + y
        if s <= zero_tol:
            return 0.0
        return xmul(s, self.diagonal_value(x / s))


@dataclass(frozen=True)
class CompatibleRepresentation:
    """(T, R, S) for a pair (A, B):  R + S = I on the range of A+B,
    T*RT = A and T*ST = B, with T the square root of A+B in range coordinates.
    """

    subspace: Subspace                      # H_{A,B}, the range closure of A+B
    t_map: np.ndarray = field(repr=False)   # k x n, maps H into H_{A,B} coords
    r: np.ndarray = field(repr=False)       # k x k, eigenvalues in [0, 1]
    s: np.ndarray = field(repr=False)       # k x k, identity minus r


def _same_shape(A, B):
    """A and B as complex arrays of at least two dimensions, with their
    shapes compared: a mismatch raises before either is validated or
    decomposed."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def _sequential_pair(A, B, names=("A", "B")):
    """A and B as complex PSD arrays, validated one at a time and named in
    errors by `names`; their shapes are compared before either is
    validated, so a mismatch raises before any eigh."""
    return tuple(M for M, _, _ in _sequential_spectra(A, B, names))


def _sequential_spectra(A, B, names=("A", "B")):
    """_sequential_pair's A and B, each with the eigenpairs its PSD check
    decided on: ((A, wA, VA), (B, wB, VB)), validated in the same order."""
    checked = []
    for M, name in zip(_same_shape(A, B), names):
        M = require_hermitian(M, atol=MATRIX_HERMITIAN_ATOL, name=name)
        checked.append((M, *_check_psd(M, name)))
    return checked


def _sequential_state_pair(rho, A, B):
    """rho, A and B validated one at a time: a square state whose size
    differs from the pair's is rejected first, before any eigh; then rho by
    require_state, then A and B as _sequential_pair does."""
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    n = A.shape[0]
    if (A.shape == B.shape == (n, n) and rho.ndim == 2
            and rho.shape[0] == rho.shape[1] != n):
        raise ValueError(
            f"dimension mismatch: state is {rho.shape[0]}-dim, pair is "
            f"{n}-dim"
        )
    return (require_state(rho), *_sequential_pair(A, B))


def compatible_representation(A: np.ndarray, B: np.ndarray
                              ) -> CompatibleRepresentation:
    """Compute the unique positive-contraction pair over the range of A+B.

    R is the compression of (A+B)^{-1/2} A (A+B)^{-1/2} to the range, with
    eigenvalues clipped into [0,1] (floating error can push them to 1+1e-16,
    which would crash diagonal evaluators).  A and B are validated here, and
    their shapes compared before any eigendecomposition.  The construction
    is _representation's; this adds S = I - R and leaves out R's
    decomposition.
    """
    h_ab, t_map, R, _, _ = _representation(A, B)
    S = -R
    S.flat[:: len(R) + 1] += 1.0  # I - R
    return CompatibleRepresentation(h_ab, t_map, R, S)


def _representation(A, B):
    """(H_{A,B}, T, R, w, Q) of compatible_representation, the reference
    construction: T = V_k* (A+B)^{1/2}, R = Y* A Y with Y = V_k w_k^-1/2
    read off a second eigh (w, V) of A+B, R decomposed to clip it, and
    (w, Q) = eigh of the clipped R.  `_pair_spectrum` gives the same
    representation from one eigh of A+B and one of R, and the tests compare
    the two.  pw_apply (so perspective_apply) still builds on
    this one, because bench/selftest.py pins perspective_apply's eigh count.

    After one stacked Hermitian check of A and B (_hermitian_stack; what it
    does not take goes to _sequential_pair, which raises its own error or
    accepts a 0x0 or scalar pair), the work runs in two lanes
    (linalg._concurrently), two at a time on large pairs: the PSD checks of
    A and B, then the root of A+B (linalg._sqrt_of), on the calling thread;
    and the eigh of A+B that gives V_k, R and R's two decompositions on the
    worker.  Each eigh gets the bytes it gets in the run in order, so the
    results are that run's to the last bit.  The first lane's error wins,
    so errors keep the order A, B, A + B: a sum that overflows reaches the
    rank cut of the root, which raises NonFiniteError naming A + B, as the
    pair kernel does.
    """
    H = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2)
    if H is None:
        A, B = _sequential_pair(A, B)
        unchecked = ()
    else:
        A, B = H
        unchecked = ((A, "A"), (B, "B"))
    with np.errstate(over="ignore"):
        S_sum = A + B  # exactly Hermitian, as A and B are

    def checked_sqrt():
        for M, name in unchecked:
            _check_psd(M, name)
        return _sqrt_of(*_range_eigh(S_sum, "A + B"))

    def r_spectrum():
        # each array is freed once spent, as both lanes' arrays are alive
        # at once: on pairs of n = 64, 128 and 256 that keeps about 3 MB
        # off the peak memory of the process
        w, V, keep = _range_eigh(S_sum, "A + B")
        if keep is not None:
            V, w = V[:, keep], w[keep]
        Y = V / np.sqrt(w)  # (A+B)^{-1/2} V_k
        R = hermitian_part(Y.conj().T @ A @ Y)
        del Y
        if len(R):
            w, Q = eigh(R)
            R = hermitian_part((Q * _clipped(w)) @ Q.conj().T)
            del w, Q
        return V, R, *eigh(R)

    sq, (V, R, w, Q) = _concurrently(len(S_sum), checked_sqrt, r_spectrum)
    return _trusted(Subspace, basis=V), V.conj().T @ sq, R, w, Q


def _pair_spectrum(A: np.ndarray, B: np.ndarray, names=("A", "B")):
    """The compatible representation of (A, B) as a spectrum, from one eigh
    of A+B and one of R: (t, X) with A = X* diag(t) X, B = X* diag(1 - t) X.

    Over the eigenpairs (w, V) of A+B above the rank cut of
    compatible_representation (so both give the same rank k), t holds the
    eigenvalues of R = D V* A V D (D = diag(w^-1/2)) clipped into [0, 1] and
    X = Q* diag(sqrt(w)) V* is k x n, Q the eigenvectors of R.  The kernel
    trusts its input: A and B are the Hermitian parts that
    _checked_pair_spectrum (or _checked_state_spectrum) has validated or
    is about to, so it validates nothing again.  An input that fails
    validation may still raise here, as NotPsdError naming A + B (`names`).
    """
    return _pair_spectra(A, B, names)[:2]


def _pair_spectra(A: np.ndarray, B: np.ndarray, names=("A", "B")):
    """_pair_spectrum with whether _certified accepts the pair:
    (t, X, certified).  The spectrum of A+B is read once as floats, for its
    rank cut and the certificate.  An error names the sum by `names`."""
    with np.errstate(over="ignore"):  # an inf sum fails the rank cut
        S = A + B
    w, V = eigh(S)
    vals = w.tolist()
    cut = _range_cut(vals, " + ".join(names))
    t, X = _r_spectrum(A, w, V, vals, cut)
    return t, X, _certified(vals, cut, t)


def _r_spectrum(A: np.ndarray, w: np.ndarray, V: np.ndarray, vals: list,
                cut: float):
    """The kernel's second half: (t, X) from the eigenpairs (w, V) of A+B
    (vals their floats) above the rank cut `cut`, by one eigh of R; t holds
    R's eigenvalues clipped into [0, 1].  V is copied only when it is cut."""
    if not (vals and vals[0] > cut):  # w ascends: some eigenvalue is cut
        keep = w > cut
        V, w = V[:, keep], w[keep]
    root = np.sqrt(w)
    Y = V / root  # V D
    r, Q = eigh(hermitian_part(Y.conj().T @ A @ Y))
    return _clipped(r), Q.conj().T @ (root[:, None] * V.conj().T)


def _state_weights(X: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The weights m_i = (X rho X*)_ii of the state rho over the rows of X,
    so that rho(X* diag(g(t)) X) = sum_i m_i g(t_i)."""
    return ((X @ rho) * X.conj()).sum(axis=1).real


def _certified(vals: list, cut: float, t: np.ndarray) -> bool:
    """True when the spectra of _pair_spectra prove that A and B pass
    require_psd, so that their own eigh can be skipped: vals the eigenvalues
    of A+B as floats, cut their rank cut and t those of R, clipped.

    Over the range of A+B, A = T* R T and B = T* (I - R) T with T* T = A + B,
    so lambda_min(A) >= t_min w_min and lambda_min(B) >= (1 - t_max) w_min.
    A pair is certified when A+B kept all n eigenvalues and
    min(t_min, 1 - t_max) w_min / w_max > K n eps (K = PSD_CERTIFICATE_K).
    The computed t are off by about n eps w_max / w_min and the w by about
    n eps w_max, so a certified A and B are positive definite with a margin
    near K n eps w_max, which eigh's own error of about n eps max|lambda|
    cannot close: require_psd accepts them.  The test is scale-invariant,
    and clipping changes none of its answers.
    """
    if not (vals and vals[0] > cut):  # w ascends: A+B kept all n eigenvalues
        return False
    ratio = vals[0] / vals[-1]
    bound = PSD_CERTIFICATE_K * len(vals) * EPS
    # each side compared on its own, so that a NaN certifies nothing
    return float(t[0]) * ratio > bound and (1.0 - float(t[-1])) * ratio > bound


def _checked_pair_spectrum(A, B, names=("A", "B")):
    """(A, B, t, X): the pair as _sequential_pair returns it, and its
    _pair_spectrum (t, X), for the public calls on a pair (named `names`).

    The kernel runs once, on the Hermitian parts from the cheap half of the
    stacked validation (_hermitian_stack), _sequential_pair's to the last
    bit.  A pair that _certified accepts is checked no further; any other
    takes the PSD half (_psd_stack).  _sequential_pair runs only to raise
    what either half rejects, or to give a 0x0 or scalar pair as arrays.
    A kernel error (NotPsdError naming A + B, say) is held until
    validation has decided, so a validation error wins.
    """
    H = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2)
    Ah, Bh = _sequential_pair(A, B, names) if H is None else H
    try:
        t, X, certified = _pair_spectra(Ah, Bh, names)
    except Exception as exc:  # on input that may yet fail validation
        held, certified = exc, False
    else:
        held = None
    if not (H is None or certified or _psd_stack(H)):
        _sequential_pair(A, B, names)  # raises its own error
    if held is not None:
        raise held
    return Ah, Bh, t, X


def _checked_state_spectrum(rho, A, B):
    """(rho, A, B, t, m, Tr rho, |A|, |B|) for the integral evaluators: the
    state and the pair as _sequential_state_pair returns them, R's clipped
    eigenvalues t and the weights m of rho over them (_state_weights of
    _pair_spectrum's X), rho's trace, and the spectral norms of A and B.

    rho, A and B are checked in one stack (_hermitian_stack) whose fourth
    slot takes A + B, the sum of their Hermitian parts; one eigh of it gives
    each matrix what eigh gives it alone, to the last bit.  Its spectra,
    read once as floats, give the PSD checks (_psd_spectra), rho's trace
    check, the rank cut of A+B (_range_cut, as the kernel makes it) and the
    norms as the largest eigenvalues (a least eigenvalue that passed the PSD
    check is never larger in magnitude); then the kernel's eigh of R.
    _sequential_state_pair runs only to raise what the stack rejects, or
    LAPACK's failure on it, in its order (rho first, then the eigh of
    A + B), or to give scalar input as arrays to stack.
    """
    atols = (HERMITIAN_ATOL, MATRIX_HERMITIAN_ATOL, MATRIX_HERMITIAN_ATOL)
    H = _hermitian_stack((rho, A, B), atols, spare=1)
    if H is None:
        H = _hermitian_stack(_sequential_state_pair(rho, A, B), atols, spare=1)
    rho_h, Ah, Bh, S = H
    with np.errstate(over="ignore"):  # an inf sum fails the rank cut
        np.add(Ah, Bh, out=S)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        _sequential_state_pair(rho, A, B)  # raises for rho, A or B
        eigh(S)  # or raises EigenSolverError for A + B
        raise
    rows = w.tolist()
    tr = float(rho_h.trace().real)
    if not _psd_spectra(rows[:3]) or tr <= 0.0:
        _sequential_state_pair(rho, A, B)  # raises its own error
    t, X = _r_spectrum(Ah, w[3], V[3], rows[3], _range_cut(rows[3], "A + B"))
    return (rho_h, Ah, Bh, t, _state_weights(X, rho_h), tr, rows[1][-1],
            rows[2][-1])


class PwDiagnostics(NamedTuple):
    r_eigenvalues: np.ndarray
    hits_at_zero: int
    hits_at_one: int


def _assemble(phi: HomogeneousFunction, t_map: np.ndarray, w: np.ndarray,
              Q: np.ndarray, endpoint_tol: float):
    """T* phi(R, S) T with its diagnostics, from (w, Q) = eigh(R) as
    _representation made it: w unclipped, so pw_apply_restricted checks its
    cone on the same spectrum.  It is X* diag(phi(t, 1-t)) X with X = Q* T
    (_diagonal_congruence), the zero element when A+B = 0.

    It runs on the calling thread after both of _representation's lanes
    have joined, so an error of either lane is raised before any of its
    own.  Moving it onto _pair_spectrum waits for a benchmark change that
    moves the eigh count bench/selftest.py pins.
    """
    t = _clipped(w)
    values, at_zero, at_one = _diagonal_values(phi, t, endpoint_tol)
    return (_diagonal_congruence(Q.conj().T @ t_map, values),
            PwDiagnostics(t, int(np.count_nonzero(at_zero)),
                          int(np.count_nonzero(at_one))))


def _pw_apply(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray,
              endpoint_tol: float):
    """(pw_apply's value, PwDiagnostics) at the endpoint band endpoint_tol:
    perspective_apply's entry, for the CLI's --tau-end."""
    if phi.variant != "full":
        raise PreconditionError(
            f"{phi.name} is a restricted variant; use pw_apply_restricted"
        )
    _, t_map, _, w, Q = _representation(A, B)
    return _assemble(phi, t_map, w, Q, endpoint_tol)


def pw_apply(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray):
    """phi(A, B) = T* phi(R, S) T, extended by 0 on ker(A+B).

    Full-domain variant only; eigenvalues of R are classified to {0}, (0,1),
    {1} by _endpoints and the corner values apply at the endpoints.
    Built on _representation rather than _pair_spectrum, for the eigh
    count bench/selftest.py pins (see _assemble).
    """
    return _pw_apply(phi, A, B, ENDPOINT_TOL)[0]


def pw_apply_restricted(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray,
                        side: str = "ge"):
    """Restricted-domain calculus on dominated pairs.

    side='ge' requires A >= alpha B for some alpha > 0, certified by no
    eigenvalue of R at 0 (_endpoints); side='le' symmetrically requires
    none at 1.  Endpoint eigenvalues inside the excluded end are a
    precondition violation, not an infinite value.  Built on
    _representation, as pw_apply is; the cone is checked on the eigenvalues
    of R that _assemble reads.
    """
    if side not in ("ge", "le"):
        raise ValueError("side must be 'ge' or 'le'")
    _, t_map, _, w, Q = _representation(A, B)
    at_zero, at_one = _endpoints(w)
    if side == "ge" and np.count_nonzero(at_zero):
        raise PreconditionError(
            f"pair is not in the >= cone: min eigenvalue of R is {w[0]:.3e}"
        )
    if side == "le" and np.count_nonzero(at_one):
        raise PreconditionError(
            f"pair is not in the <= cone: min eigenvalue of S is "
            f"{1.0 - w[-1]:.3e}"
        )
    return _assemble(phi, t_map, w, Q, ENDPOINT_TOL)[0]


def _grouped_joint_eigensystem(wA: np.ndarray, VA: np.ndarray, B: np.ndarray):
    """Joint eigenpairs of a commuting Hermitian pair (A, B), by block
    diagonalization of B over the eigenspaces of A, from the eigenpairs
    (wA, VA) of A."""
    n = len(wA)
    group_tol = 1e-7 * (1.0 + float(np.abs(wA).max(initial=0.0)))
    pairs = []
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and wA[stop] - wA[stop - 1] <= group_tol:
            stop += 1
        Vg = VA[:, start:stop]
        Bg = hermitian_part(Vg.conj().T @ B @ Vg)
        wB, QB = eigh(Bg)
        joint = Vg @ QB
        x = float(np.mean(wA[start:stop]))
        for j in range(stop - start):
            pairs.append((x, float(wB[j]), joint[:, j]))
        start = stop
    return pairs


def pw_commuting_oracle(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray
                        ) -> ExtendedSelfAdjoint:
    """Independent evaluation for commuting pairs via joint diagonalization.

    This is the oracle pw_apply is checked against: it never touches the
    compatible representation, only the joint spectrum and the bivariate
    evaluator phi(x, y) = (x+y) * diagonal(x/(x+y)).  The eigenpairs of A
    are those its PSD check decided on.
    """
    (A, wA, VA), (B, _, _) = _sequential_spectra(A, B)
    comm = spectral_norm(A @ B - B @ A)
    bound = 1e-9 * spectral_norm(A) * spectral_norm(B)
    if comm > max(bound, 1e-13):
        raise PreconditionError(
            f"pair does not commute: |AB - BA| = {comm:.3e} > {bound:.3e}"
        )
    w_sum, _ = eigh(A + B)
    kernel_floor = default_rank_tol(w_sum)
    pairs = []
    for x, y, v in _grouped_joint_eigensystem(wA, VA, B):
        x, y = max(x, 0.0), max(y, 0.0)
        pairs.append((phi.bivariate(x, y, zero_tol=kernel_floor), v))
    return make_extended(pairs)


class SpecialValues(NamedTuple):
    with_scalar_right: ExtendedSelfAdjoint   # phi(A, alpha I)
    with_scalar_left: ExtendedSelfAdjoint    # phi(alpha I, A)
    scaled_pair: ExtendedSelfAdjoint         # phi(alpha A, beta A)


def special_values(phi: HomogeneousFunction, A: np.ndarray, alpha: float,
                   beta: float) -> SpecialValues:
    """Closed-form specializations through the scalar calculus.

    phi(A, alpha I) is the spectral calculus of t -> phi(t, alpha), and
    phi(alpha A, beta A) = phi(alpha, beta) A, where an infinite scalar means
    +inf on the range of A and 0 on its kernel.  Both calculi and the range
    read the eigenpairs of A that its PSD check decided on.
    """
    if not (0.0 <= alpha < INF and 0.0 <= beta < INF):
        raise ValueError("scalars must be finite and nonnegative")
    A = require_hermitian(A, atol=MATRIX_HERMITIAN_ATOL, name="A")
    w, V = _check_psd(A, "A")

    right = ExtendedFunction(
        f"{phi.name}(t,{alpha})", CLOSED_POS,
        lambda t: phi.bivariate(t, alpha),
    )
    left = ExtendedFunction(
        f"{phi.name}({alpha},t)", CLOSED_POS,
        lambda t: phi.bivariate(alpha, t),
    )
    scalar = phi.bivariate(alpha, beta)
    if math.isinf(scalar):
        scaled = infinity_on(_range_subspace(w, V))
    else:
        scaled = from_matrix(scalar * A)
    return SpecialValues(_spectral_calculus(right, w, V),
                         _spectral_calculus(left, w, V), scaled)


def invertible_formula(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray
                       ) -> ExtendedSelfAdjoint:
    """phi(A,B) through the one-sided sandwich when A or B is invertible.

    B invertible: B^{1/2} g(B^{-1/2} A B^{-1/2}) B^{1/2} with g(t) = phi(t,1);
    else A's, with g(t) = phi(1,t).  The invertibility test and both roots
    read the eigenpairs that the PSD check of B (or A) decided on.  Must
    agree with pw_apply whenever applicable.
    """
    (A, wA, VA), (B, wB, VB) = _sequential_spectra(A, B)
    w, V, keep = _range_of(wB, VB, "B")
    inner, g = A, ExtendedFunction(f"{phi.name}(t,1)", CLOSED_POS,
                                   lambda t: phi.bivariate(t, 1.0))
    if keep is not None:  # B is singular: try A in its place
        w, V, keep = _range_of(wA, VA, "A")
        if keep is not None:
            raise PreconditionError("invertible_formula needs A or B invertible")
        inner, g = B, ExtendedFunction(f"{phi.name}(1,t)", CLOSED_POS,
                                       lambda t: phi.bivariate(1.0, t))
    root = np.sqrt(w)
    inv_half = hermitian_part((V / root) @ V.conj().T)
    W = hermitian_part(inv_half @ inner @ inv_half)
    return congruence(hermitian_part((V * root) @ V.conj().T), calculus(g, W))


@dataclass
class HomogeneityReport:
    skipped: bool
    reason: str | None
    ok: bool
    max_deviation: float
    witness: np.ndarray | None


def check_homogeneity(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray,
                      C: np.ndarray, slack: float | None = None,
                      probe_vectors: int = 10, seed: int = 0) -> HomogeneityReport:
    """Operator homogeneity phi(C*AC, C*BC) = C* phi(A,B) C.

    The postulate requires range(A+B) inside the range closure of C; pairs
    violating it are reported as skipped, not failed.  C maps into the
    pair's space, so it has as many rows as A and B; the shapes are compared
    before any eigh.
    """
    A, B = _same_shape(A, B)
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    if C.ndim != 2 or C.shape[0] != A.shape[0]:
        raise ValueError(
            f"dimension mismatch: C is {C.shape}, pair is {A.shape}")
    ran_ab = _range_subspace(*eigh(A + B))
    ran_c = span(C)
    if not ran_c.contains(ran_ab, CONTAINMENT_COS_TOL):
        return HomogeneityReport(True, "range(A+B) not contained in range(C)",
                                 True, 0.0, None)
    lhs = pw_apply(phi, hermitian_part(C.conj().T @ A @ C),
                   hermitian_part(C.conj().T @ B @ C))
    rhs = congruence(C, pw_apply(phi, A, B))
    if slack is None:
        scale = 1.0 + max(np.abs(lhs.finite_part).max(initial=0.0),
                          np.abs(rhs.finite_part).max(initial=0.0))
        slack = 1e-8 * scale
    le, w1 = form_leq(lhs, rhs, slack)
    ge, w2 = form_leq(rhs, lhs, slack)
    rng = np.random.default_rng(seed)
    dev = 0.0
    k = C.shape[1]
    for _ in range(probe_vectors):
        xi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        q1, q2 = quadratic_form(lhs, xi), quadratic_form(rhs, xi)
        if math.isinf(q1) != math.isinf(q2):
            dev = INF
        elif not math.isinf(q1):
            dev = max(dev, abs(q1 - q2))
    return HomogeneityReport(False, None, le and ge, dev,
                             w1 if w1 is not None else w2)


def check_restricted_bounded(phi: HomogeneousFunction,
                             deltas=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                             coarse: int = 129, refine: int = 16):
    """Local boundedness of the diagonal on (0,1] (or [0,1) for 'le').

    For each delta the diagonal is sampled on [delta, 1] at two resolutions;
    a non-finite value, or a max that grows by more than 10x under
    refinement (an interior pole slipping between grid points), reports
    unbounded.  Returns (bool, per-delta details).
    """
    details = []
    ok = True
    for delta in deltas:
        if phi.variant == "le":
            lo, hi = 0.0, 1.0 - delta
        else:
            lo, hi = delta, 1.0
        interior = phi.diagonal.domain
        lo = max(lo, interior.lo + (0.0 if interior.closed_lo else 1e-12))
        hi = min(hi, interior.hi - (0.0 if interior.closed_hi else 1e-12))
        grid1 = np.linspace(lo, hi, coarse)
        grid2 = np.linspace(lo, hi, coarse * refine + 1)
        try:
            v1 = np.array([phi.diagonal(float(t)) for t in grid1])
            v2 = np.array([phi.diagonal(float(t)) for t in grid2])
        except (DomainError, FormArithmeticError):
            ok = False
            details.append({"delta": delta, "bounded": False})
            continue
        finite = bool(np.isfinite(v1).all() and np.isfinite(v2).all())
        m1 = float(np.abs(v1).max()) if finite else INF
        m2 = float(np.abs(v2).max()) if finite else INF
        bounded = finite and m2 <= 10.0 * max(1.0, m1)
        details.append({"delta": delta, "bounded": bounded,
                        "max_coarse": m1, "max_fine": m2})
        ok = ok and bounded
    return ok, details
