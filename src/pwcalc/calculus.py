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
A pair is validated once, on linalg's stacked path, with its error order;
linalg's PSD_CERTIFICATE_K only selects whether that path's PSD half runs
(_certified) and, from n = DEFINITE_MIN_N (set from measured costs) on,
whether the pair kernel reduces a definite A+B by Cholesky
(_definite_spectra, on linalg._definite_factor, the certificate
require_state reads too), whose outputs differ from the eigh route's only
by roundoff; it decides no output.
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
    DEFINITE_MIN_N,
    EPS,
    HERMITIAN_ATOL,
    MATRIX_HERMITIAN_ATOL,
    PSD_CERTIFICATE_K,
    Subspace,
    _check_finite_spectrum,
    _check_psd,
    _concurrently,
    _definite_factor,
    _hermitian_stack,
    _psd_stack,
    _range_cut,
    _range_eigh,
    _range_of,
    _range_subspace,
    _require_state_of,
    _shaped,
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


def _validated_pair(A, B, with_sum: bool = False, check=None):
    """(A, B, w, V): A and B validated as require_psd validates each, in
    one stacked pass, and the eigenpairs (w[i], V[i]) it decided on.  With
    the sum, the stack is (A, B, A + B); the sum is checked for finite
    eigenvalues only (NonFiniteError naming A + B), not for PSD.  check(A)
    runs before any eigh."""
    names = ("A", "B")
    H = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2, names,
                         spare=int(with_sum))
    if check is not None:
        check(H[0])
    if with_sum:
        with np.errstate(over="ignore"):  # an inf sum fails the check below
            np.add(H[0], H[1], out=H[2])
    w, V = _psd_stack(H, names)
    if with_sum:
        _check_finite_spectrum(w[2].tolist(), "A + B")
    return H[0], H[1], w, V


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
    (w, Q) = eigh of the clipped R.  `_pair_spectra` gives the same from
    one eigh of A+B and one of R; pw_apply stays on this one for the eigh
    count bench/selftest.py pins.

    After the cheap half of the validation, two lanes run
    (linalg._concurrently): the PSD checks of A and B, then the root of
    A+B, on the calling thread; the eigh of A+B that gives V_k, R and R's
    two decompositions on the worker.  Results and errors are those of the
    run in order: A, B, then A + B (NonFiniteError for a sum that
    overflows).
    """
    A, B = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2, ("A", "B"))
    with np.errstate(over="ignore"):
        # eigh reads one triangle, so the sum is decomposed as it is
        S_sum = A + B

    def checked_sqrt():
        _check_psd(A, "A")
        _check_psd(B, "B")
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


def _pair_spectra(A: np.ndarray, B: np.ndarray, names=("A", "B")):
    """The compatible representation of (A, B) as a spectrum (t, X), with
    A = X* diag(t) X, B = X* diag(1 - t) X, and whether _certified accepts
    the pair: (t, X, certified).

    Over the eigenpairs (w, V) of A+B above the rank cut of
    compatible_representation (so both give the same rank k), read once as
    floats, t holds the eigenvalues of R = D V* A V D (D = diag(w^-1/2))
    clipped into [0, 1] and X = Q* diag(sqrt(w)) V*, Q those of R.  From
    n = DEFINITE_MIN_N on, a definite A+B takes the Cholesky route
    (_definite_spectra) instead, to roundoff.  The kernel trusts the
    Hermitian parts it is given; a pair that fails the PSD half may raise
    here first, as NotPsdError naming the sum by `names`.
    """
    with np.errstate(over="ignore"):  # an inf sum fails the rank cut
        S = A + B
    if len(S) >= DEFINITE_MIN_N:
        spectra = _definite_spectra(A, S)
        if spectra is not None:
            return spectra
    w, V = eigh(S)
    vals = w.tolist()
    cut = _range_cut(vals, " + ".join(names))
    t, X = _r_spectrum(A, w, V, vals, cut)
    # w ascends: only an A+B that kept all n eigenvalues can be certified
    return t, X, bool(vals) and vals[0] > cut and _certified(
        t, vals[0] / vals[-1])


def _definite_spectra(A: np.ndarray, S: np.ndarray):
    """_pair_spectra's (t, X, certified) by the Cholesky reduction of the
    definite pencil (A, S), S = A+B = L L*, or None where the eigh route
    must decide: linalg._definite_factor declines S.

    T = L* is a square root of S in the sense T* T = S, so t holds the
    eigenvalues of C = L^-1 A L^-*, clipped into [0, 1], and X = (L Z)*, Z
    their eigenvectors: one eigh, where the eigh route takes two.  The
    factor's rho > K n eps, a lower bound on w_min / w_max of S, means that
    the eigh route's rank cut would keep all n eigenvalues too: both routes
    give the same rank and differ only by roundoff.  _certified decides the
    pair with rho in place of w_min / w_max.
    """
    factor = _definite_factor(S)
    if factor is None:
        return None
    L, Linv, rho = factor
    r, Z = eigh(hermitian_part(Linv @ A @ Linv.conj().T))
    t = _clipped(r)
    return t, (L @ Z).conj().T, _certified(t, rho)


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


def _certified(t: np.ndarray, ratio: float) -> bool:
    """True when the spectra of _pair_spectra prove that A and B pass
    require_psd, so that their own eigh can be skipped: t the n eigenvalues
    of R, clipped, over an A+B that kept all n, and ratio w_min / w_max of
    A+B (the eigh route) or a lower bound on it (rho, the Cholesky route,
    which only makes the test stricter).

    Over the range of A+B, A = T* R T and B = T* (I - R) T with T* T = A + B,
    so lambda_min(A) >= t_min w_min and lambda_min(B) >= (1 - t_max) w_min.
    A pair is certified when
    min(t_min, 1 - t_max) w_min / w_max > K n eps (K = PSD_CERTIFICATE_K).
    The computed t are off by about n eps w_max / w_min and the w by about
    n eps w_max, so a certified A and B are positive definite with a margin
    near K n eps w_max, which eigh's own error of about n eps max|lambda|
    cannot close: require_psd accepts them.  The test is scale-invariant,
    and clipping changes none of its answers.  K also sets the margin by
    which the Cholesky route is taken.
    """
    bound = PSD_CERTIFICATE_K * len(t) * EPS
    # each side compared on its own, so that a NaN certifies nothing
    return float(t[0]) * ratio > bound and (1.0 - float(t[-1])) * ratio > bound


def _checked_pair_spectrum(A, B, names=("A", "B")):
    """(A, B, t, X): the pair validated as require_psd validates each of A
    and B (named `names`), and its _pair_spectra (t, X), for the public
    calls on a pair.  The kernel runs once, on the Hermitian parts from the
    cheap half; a pair that _certified accepts is checked no further, any
    other takes the PSD half.  A kernel error (NotPsdError naming A + B,
    say) is held until the PSD half has decided, so a validation error wins.
    """
    H = _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2, names)
    A, B = H
    try:
        t, X, certified = _pair_spectra(A, B, names)
    except Exception as exc:  # on input that may yet fail validation
        held, certified = exc, False
    else:
        held = None
    if not certified:
        _psd_stack(H, names)
    if held is not None:
        raise held
    return A, B, t, X


def _checked_state_spectrum(rho, A, B):
    """(rho, A, B, t, m, Tr rho, |A|, |B|) for the integral evaluators: the
    state and the pair validated as require_state and require_psd validate
    them, rho first; R's clipped eigenvalues t and the weights m of rho over
    them (_state_weights of _pair_spectra's X), rho's trace, and the
    spectral norms of A and B.

    One stack holds rho, A, B and, in its spare slot, the sum A + B of
    their Hermitian parts; its one eigh gives each what eigh gives it
    alone, to the last bit: the PSD checks, the rank cut of A+B and the
    norms as the largest eigenvalues.  Tr rho is read off rho's diagonal
    first (the real parts its Hermitian part keeps); where it is not
    positive or the shapes differ, rho is validated alone first, its size
    before any eigh, as its checks come first, and what fails raises.
    """
    rho, A, B = _shaped(rho), _shaped(A), _shaped(B)
    same = rho.ndim == 2 and rho.shape == A.shape == B.shape
    # a trace of unvalidated input, or a sum, that overflows is inf
    with np.errstate(over="ignore"):
        tr = float(rho.trace().real) if same else math.nan
        if not tr > 0.0:
            # rho fails its size or require_state, or else the pair its shapes
            n = A.shape[0]
            if A.shape == B.shape == (n, n):
                _require_state_of(rho, n, "pair")
            else:
                require_state(rho)
            _hermitian_stack((A, B), (MATRIX_HERMITIAN_ATOL,) * 2, ("A", "B"))
        names = ("state", "A", "B")
        atols = (HERMITIAN_ATOL, MATRIX_HERMITIAN_ATOL, MATRIX_HERMITIAN_ATOL)
        H = _hermitian_stack((rho, A, B), atols, names, spare=1)
        rho_h, Ah, Bh, S = H
        np.add(Ah, Bh, out=S)
    w, V = _psd_stack(H, names)
    rows = w.tolist()
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
    (_diagonal_congruence), the zero element when A+B = 0, made after both
    of _representation's lanes have joined, so their errors come first.
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
    Built on _representation rather than _pair_spectra, for the eigh
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
    and the kernel floor, the rank cut of A + B, come from the one eigh of
    the validation's stack (A, B, A + B).
    """
    A, B, w, V = _validated_pair(A, B, with_sum=True)
    kernel_floor = default_rank_tol(w[2])
    comm = spectral_norm(A @ B - B @ A)
    bound = 1e-9 * spectral_norm(A) * spectral_norm(B)
    if comm > max(bound, 1e-13):
        raise PreconditionError(
            f"pair does not commute: |AB - BA| = {comm:.3e} > {bound:.3e}"
        )
    pairs = []
    for x, y, v in _grouped_joint_eigensystem(w[0], V[0], B):
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
    A, B, wAB, VAB = _validated_pair(A, B)
    w, V, keep = _range_of(wAB[1], VAB[1], "B")
    inner, g = A, ExtendedFunction(f"{phi.name}(t,1)", CLOSED_POS,
                                   lambda t: phi.bivariate(t, 1.0))
    if keep is not None:  # B is singular: try A in its place
        w, V, keep = _range_of(wAB[0], VAB[0], "A")
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
    pair's space, so it has as many rows as A and B.  A and B are validated
    as require_psd validates each, C's rows compared with their size before
    any eigh, and the range of A+B read off the validation's stack (A, B,
    A + B) at _range_cut, which also rejects a sum below the PSD slack.
    """
    C = np.atleast_2d(np.asarray(C, dtype=complex))

    def check_rows(A):
        if C.ndim != 2 or C.shape[0] != A.shape[0]:
            raise ValueError(
                f"dimension mismatch: C is {C.shape}, pair is {A.shape}")

    A, B, w, V = _validated_pair(A, B, with_sum=True, check=check_rows)
    ran_ab = _range_subspace(w[2], V[2], _range_cut(w[2].tolist(), "A + B"))
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
