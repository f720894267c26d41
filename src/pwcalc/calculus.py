"""Two-variable functional calculus for pairs of PSD matrices.

A homogeneous function phi on the closed positive quadrant is applied to a
pair (A, B) through the compatible representation (T, R, S) of the pair:
T = (A+B)^{1/2} restricted to the range closure of A+B, R + S = I there,
T*RT = A and T*ST = B.  The calculus is phi(A, B) = T* phi(R, S) T, assembled
from the eigenvalues of R through the diagonal t -> phi(t, 1-t).

Eigenvalues of R within ENDPOINT_TOL of 0 or 1 take the corner values
phi(0,1) / phi(1,0): the corner conventions are exact set distinctions that
numerics must discretize, so a diagonal that diverges near an endpoint
(t^2/(1-t) near 1, say) is large and finite just outside the band and +inf
inside it, with no smoothing across that cliff.  Every tolerance is a
constant of the module that owns its question; README ("Numerical
contracts") lists what each decides.  A pair is validated once, on linalg's
stacked path, whose one eigh also decomposes A + B.  From DEFINITE_MIN_N on,
a definite A+B is reduced by Cholesky (_definite_spectra), to roundoff, and
the PSD half is skipped on a pair of margin PSD_CERTIFICATE_K (_certified):
linalg's two constants select a route and decide no output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .extended import (
    CONTAINMENT_COS_TOL,
    ExtendedSelfAdjoint,
    FORM_SLACK_REL,
    FormArithmeticError,
    INF,
    _diagonal_congruence,
    _form_scale,
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
    PSD_CERTIFICATE_K,
    Subspace,
    _check_finite_spectrum,
    _check_psd,
    _definite_factor,
    _hermitian_stack,
    _psd_stack,
    _range_cut,
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
CORNER_REL_TOL = 1e-12  # diagonal(end) vs its corner, times 1 + |diagonal|
COMMUTE_REL_TOL = 1e-9  # the commuting oracle's test, times |A| |B|
GROUP_REL_TOL = 1e-7  # its grouping of A's eigenvalues, times max |eig A|
OPEN_END_OFFSET = 1e-12  # check_restricted_bounded's step into an open end


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
            if not (v == corner or abs(v - corner) <= CORNER_REL_TOL * (
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
    H = _hermitian_stack((A, B), names, spare=int(with_sum))
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
    which would crash diagonal evaluators).  The eigenpairs (w, V) of A+B
    come from the validation's stack (A, B, A + B): H_{A,B} is spanned by
    the V_k above the rank cut (_range_of), T = V_k* (A+B)^{1/2} and
    R = Y* A Y with Y = V_k w_k^-1/2, rebuilt from its clipped eigenvalues
    by one eigh of R.  The calculus reads the same pair off
    _checked_pair_spectrum instead; this never takes its Cholesky route, so
    T is always the root in range coordinates.
    """
    A, _, w, V = _validated_pair(A, B, with_sum=True)
    w, V, keep = _range_of(w[2], V[2], "A + B")
    sq = _sqrt_of(w, V, keep)
    if keep is not None:
        V, w = V[:, keep], w[keep]
    Y = V / np.sqrt(w)  # (A+B)^{-1/2} V_k
    R = hermitian_part(Y.conj().T @ A @ Y)
    if len(R):
        r, Q = eigh(R)
        R = hermitian_part((Q * _clipped(r)) @ Q.conj().T)
    S = -R
    S.flat[:: len(R) + 1] += 1.0  # I - R
    return CompatibleRepresentation(_trusted(Subspace, basis=V),
                                    V.conj().T @ sq, R, S)


class PairSpectrum(NamedTuple):
    """The pair kernel's record of a PSD pair: A = X* diag(t) X and
    B = X* diag(1 - t) X, t R's eigenvalues clipped into [0, 1]."""

    A: np.ndarray
    B: np.ndarray
    t: np.ndarray
    X: np.ndarray


class DefiniteSpectrum(NamedTuple):
    spectrum: PairSpectrum
    certified: bool  # _certified: A and B pass require_psd


def _pair_spectra(A, B, names=("A", "B")) -> PairSpectrum:
    """The PairSpectrum of a pair PSD by construction, whose Hermitian parts
    the kernel trusts; the errors of the sum A + B name it by `names`."""
    with np.errstate(over="ignore"):  # an inf sum fails the rank cut
        S = A + B
    definite = _definite_spectra(A, B, S)
    if definite is None:
        return _eigh_spectrum(A, B, *eigh(S), " + ".join(names))
    return definite.spectrum


def _definite_spectra(A, B, S: np.ndarray):
    """The DefiniteSpectrum of (A, B) by the Cholesky reduction of the
    pencil (A, S), S = A+B = L L*; None below order DEFINITE_MIN_N (the one
    place the route is chosen) or where linalg._definite_factor declines S.

    T = L* is a square root of S in the sense T* T = S, so t holds the
    eigenvalues of C = L^-1 A L^-*, clipped into [0, 1], and X = (L Z)*, Z
    their eigenvectors: one eigh, where the eigh route takes two.  The
    factor's rho > K n eps, a lower bound on w_min / w_max of S, means that
    the eigh route's rank cut would keep all n eigenvalues too: both routes
    give the same rank and differ only by roundoff.
    """
    factor = _definite_factor(S) if len(S) >= DEFINITE_MIN_N else None
    if factor is None:
        return None
    L, Linv, rho = factor
    r, Z = eigh(hermitian_part(Linv @ A @ Linv.conj().T))
    t = _clipped(r)
    return DefiniteSpectrum(PairSpectrum(A, B, t, (L @ Z).conj().T),
                            _certified(t, rho))


def _eigh_spectrum(A, B, w, V, name: str) -> PairSpectrum:
    """The eigh route's tail: the PairSpectrum from the eigenpairs (w, V) of
    A + B, cut as compatible_representation cuts (_range_cut, naming it)."""
    vals = w.tolist()
    return PairSpectrum(A, B, *_r_spectrum(A, w, V, vals,
                                           _range_cut(vals, name)))


def _r_spectrum(A, w: np.ndarray, V: np.ndarray, vals: list, cut: float):
    """A PairSpectrum's (t, X) from the eigenpairs (w, V) of A+B (vals their
    floats) above the rank cut `cut`, by one eigh of R; V copied if cut."""
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


def _certified(t: np.ndarray, rho: float) -> bool:
    """True when the Cholesky route's spectrum proves that A and B pass
    require_psd, so that their own eigh can be skipped: t the n clipped
    eigenvalues of R, rho a lower bound on w_min / w_max of A+B.

    Over the range of A+B, A = T* R T and B = T* (I - R) T with T* T = A + B,
    so lambda_min(A) >= t_min w_min and lambda_min(B) >= (1 - t_max) w_min.
    A pair is certified when min(t_min, 1 - t_max) rho > K n eps
    (K = PSD_CERTIFICATE_K).  The computed t are off by about
    n eps w_max / w_min, so a certified A and B are definite by a margin near
    K n eps w_max, which eigh's own error of about n eps max|lambda| cannot
    close.  The test is scale-invariant, and clipping changes none of its
    answers.
    """
    bound = PSD_CERTIFICATE_K * len(t) * EPS
    # each side compared on its own, so that a NaN certifies nothing
    return float(t[0]) * rho > bound and (1.0 - float(t[-1])) * rho > bound


# The last pair _checked_pair_spectrum validated and the last triple
# _checked_state_spectrum validated, each as (_key, its read-only record):
# one entry each, replaced whole by one assignment, so a caller on another
# thread reads either the old input's record or the new one's.
_last_pair = _last_state = None


def _key(*mats):
    """The shape and bytes of each of mats as a complex array, copied, so an
    array edited in place, or a -0.0 for a 0.0, reads as other input; None
    where they are not arrays of numbers, which the validation rejects."""
    key = ()
    for M in mats:
        try:
            M = np.asarray(M, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            return None
        key += M.shape, M.tobytes()
    return key


def _checked_pair_spectrum(A, B, names=("A", "B")) -> PairSpectrum:
    """The PairSpectrum of the pair validated as require_psd validates each
    of A and B (named `names`), for the public calls on a pair, read-only.
    A sum that _definite_spectra reduces skips the PSD half of a pair it
    certifies; any other pair takes one eigh of the stack (A, B, A + B),
    whose spare slot the cheap half fills with the sum, and _eigh_spectrum.
    A pair bitwise the last one that passed (_key) gets its record
    back with neither: both are functions of those bytes alone, and a pair
    that raised is never kept.  The names only reach errors, so they are
    not in the key."""
    global _last_pair
    key = _key(A, B)
    last = _last_pair
    if last is not None and last[0] == key:
        return last[1]
    H = _hermitian_stack((A, B), names, spare=1)
    A, B, S = H
    with np.errstate(over="ignore"):  # an inf sum fails the rank cut
        np.add(A, B, out=S)
    definite = _definite_spectra(A, B, S)
    if definite is None:
        w, V = _psd_stack(H, names)
        sp = _eigh_spectrum(A, B, w[2], V[2], " + ".join(names))
    else:
        if not definite.certified:
            _psd_stack(H[:2], names)
        sp = definite.spectrum
    for M in sp:
        M.setflags(write=False)
    if key is not None:
        _last_pair = key, sp
    return sp


class StateSpectrum(NamedTuple):
    rho: np.ndarray  # the validated state
    pair: PairSpectrum  # the validated pair's, on the eigh route
    m: np.ndarray  # the state's weights over pair.t (_state_weights)
    tr: float  # Tr rho
    norm_a: float  # the spectral norms of A and B
    norm_b: float


def _checked_state_spectrum(rho, A, B) -> StateSpectrum:
    """The StateSpectrum of rho and (A, B), validated as require_state and
    require_psd validate them, rho first.  One eigh of the stack (rho, A,
    B, A + B) gives each what eigh gives it alone, to the last bit.  Where
    Tr rho, read off its diagonal, is not positive or the shapes differ,
    rho is validated alone first, its size before any eigh.  A triple
    bitwise the last one that passed gets its record back, read-only."""
    global _last_state
    rho, A, B = _shaped(rho), _shaped(A), _shaped(B)
    # keyed as shaped: nothing below reads the arguments as given
    key, last = _key(rho, A, B), _last_state
    if last is not None and last[0] == key:
        return last[1]
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
            _hermitian_stack((A, B), ("A", "B"))
        names = ("state", "A", "B")
        H = _hermitian_stack((rho, A, B), names, spare=1)
        rho_h, Ah, Bh, S = H
        np.add(Ah, Bh, out=S)
    w, V = _psd_stack(H, names)
    pair = _eigh_spectrum(Ah, Bh, w[3], V[3], "A + B")
    st = StateSpectrum(rho_h, pair, _state_weights(pair.X, rho_h), tr,
                       float(w[1, -1]), float(w[2, -1]))
    for M in (rho_h, *pair, st.m):
        M.setflags(write=False)
    _last_state = key, st
    return st


class PwDiagnostics(NamedTuple):
    r_eigenvalues: np.ndarray
    hits_at_zero: int
    hits_at_one: int


def _pw_value(phi: HomogeneousFunction, sp, endpoint_tol=ENDPOINT_TOL):
    """(pw_apply's value, PwDiagnostics) at the endpoint band endpoint_tol
    (the CLI's --tau-end), on the PairSpectrum sp of a validated pair."""
    values, at_zero, at_one = _diagonal_values(phi, sp.t, endpoint_tol)
    return (_diagonal_congruence(sp.X, values),
            PwDiagnostics(sp.t.copy(), int(np.count_nonzero(at_zero)),
                          int(np.count_nonzero(at_one))))


def pw_apply(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray):
    """phi(A, B) = T* phi(R, S) T, extended by 0 on ker(A+B).

    Full-domain variant only; eigenvalues of R are classified to {0}, (0,1),
    {1} by _endpoints and the corner values apply at the endpoints.  The
    value is X* diag(phi(t, 1-t)) X over the pair's _checked_pair_spectrum
    (_diagonal_congruence), the zero element when A+B = 0.
    """
    if phi.variant != "full":
        raise PreconditionError(
            f"{phi.name} is a restricted variant; use pw_apply_restricted"
        )
    return _pw_value(phi, _checked_pair_spectrum(A, B))[0]


def pw_apply_restricted(phi: HomogeneousFunction, A: np.ndarray, B: np.ndarray,
                        side: str = "ge"):
    """Restricted-domain calculus on dominated pairs.

    side='ge' requires A >= alpha B for some alpha > 0, certified by no
    eigenvalue of R at 0 (_endpoints); side='le' symmetrically requires
    none at 1.  Endpoint eigenvalues inside the excluded end are a
    precondition violation, not an infinite value.  The cone is checked on
    the clipped eigenvalues of R that the value reads, and its error prints
    them.
    """
    if side not in ("ge", "le"):
        raise ValueError("side must be 'ge' or 'le'")
    sp = _checked_pair_spectrum(A, B)
    at_zero, at_one = _endpoints(sp.t)
    if side == "ge" and np.count_nonzero(at_zero):
        raise PreconditionError(
            f"pair is not in the >= cone: min eigenvalue of R is {sp.t[0]:.3e}"
        )
    if side == "le" and np.count_nonzero(at_one):
        raise PreconditionError(
            f"pair is not in the <= cone: min eigenvalue of S is "
            f"{1.0 - sp.t[-1]:.3e}"
        )
    return _pw_value(phi, sp)[0]


def _grouped_joint_eigensystem(wA: np.ndarray, VA: np.ndarray, B: np.ndarray):
    """Joint eigenpairs of a commuting Hermitian pair (A, B), by block
    diagonalization of B over the eigenspaces of A, from the eigenpairs
    (wA, VA) of A."""
    n = len(wA)
    group_tol = GROUP_REL_TOL * float(np.abs(wA).max(initial=0.0))
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
    evaluator phi(x, y) = (x+y) * diagonal(x/(x+y)).  The eigenpairs of A,
    the norms of A and B and the kernel floor, the rank cut of A + B, come
    from the one eigh of the validation's stack (A, B, A + B).
    """
    A, B, w, V = _validated_pair(A, B, with_sum=True)
    kernel_floor = default_rank_tol(w[2])
    comm = spectral_norm(A @ B - B @ A)
    bound = COMMUTE_REL_TOL * float(np.prod(np.abs(w[:2]).max(axis=1)))
    if comm > bound:
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
    A = require_hermitian(A, name="A")
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
        slack = FORM_SLACK_REL * _form_scale(lhs, rhs)
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
        d = phi.diagonal.domain
        lo = max(lo, d.lo + (0.0 if d.closed_lo else OPEN_END_OFFSET))
        hi = min(hi, d.hi - (0.0 if d.closed_hi else OPEN_END_OFFSET))
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
