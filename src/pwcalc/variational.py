"""Integral and variational expressions for operator perspectives.

Both integral evaluators route every measure through weighted atoms, so a
single parallel-sum integration path serves atomic and quadrature measures
alike.  The path is evaluated from one spectrum of R: since S = I - R
commutes with R, every node's parallel sum A : lB is T*(l RS (R + lS)^-1)T,
a scalar function of R's eigenvalues; `parallel_sum` itself stays the
independent A - A(A+B)^+A oracle the tests compare against.  Measures whose
true mass is infinite carry a flag; their divergent branch is decided by
evaluating the state against the relevant singular part, which is exactly
what the tail of the integral converges to.

An evaluation reads calculus._checked_state_spectrum's record: the
pairings rho(A) = sum m_i t_i and rho(B) = sum m_i (1 - t_i) (Tr rho A and
Tr rho B but for the parts beyond the rank cut of A + B, at most
n eps |A + B| Tr rho), and Tr rho and the norms of A and B, which scale the
singular-mass threshold; a phi_{t^2}(A, B) term reads its pair spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _checked_state_spectrum, _endpoints, _validated_pair
from .extended import (
    ExtendedSelfAdjoint,
    INF,
    add,
    from_matrix,
    infinity_on,
    xadd,
    xmul,
)
from .functions import (
    ExtendedFunction,
    IntegralRepr77,
    IntegralRepr97,
    Measure,
    approximants,
)
from .linalg import (
    _hermitian_stack,
    _pinv_of,
    _psd_stack,
    _range_subspace,
    eigh,
    hermitian_part,
    spectral_norm,
    subspace_meet,
)
from .perspectives import _t2_state_value

# State mass on a singular part below this (relative) threshold counts as zero
# when deciding the divergent branch of an infinite-mass integral.
SINGULAR_MASS_REL_TOL = 1e-10
PROJECTION_ATOL = 1e-10  # two_projections' band on |X^2 - X|
PROJECTION_RANK_CUT = 1e-6  # wide: the meet's noise stays out of X - meet
DECOMPOSITION_REL_TOL = 1e-12  # by _off: a decomposition's roundoff, no gap


def _singular(mass: float, tr: float, norm: float) -> bool:
    """A singular part's state mass exceeds SINGULAR_MASS_REL_TOL * tr *
    norm, tr = Tr rho and norm the spectral norm of the matrix whose part it
    is: a cut that scales with the pair, as the mass does, at every joint
    scaling."""
    return mass > SINGULAR_MASS_REL_TOL * tr * norm


def _integrand(num: np.ndarray, t: np.ndarray, s: np.ndarray,
               lam: np.ndarray) -> np.ndarray:
    """num_i / (t_i + l s_i), s = 1 - t, at each node l (rows) and
    eigenvalue t_i of R (columns).  With the state weights m it is eq. 9.1's
    integrand for num = (2t - 1)^2 and eq. 9.2's for num = t^2, free of their
    cancellation and, weighted before m, of overflow near the float limit.
    It is formed one row per eigenvalue, so that each operation runs along
    the nodes, then copied into C order: the quadrature's product with the
    transposed view would take another BLAS kernel, which rounds
    differently."""
    K = np.multiply.outer(s, lam)
    K += t[:, None]
    np.divide(num[:, None], K, out=K)
    return K.T.copy()


def integral_eval_91(r: IntegralRepr77, A: np.ndarray, B: np.ndarray,
                     rho: np.ndarray) -> float:
    """Perspective evaluation through the general integral expression.

    a0 rho(A) + b0 rho(B) + c phi_{t^2}(A,B)(rho) + d phi_{t^2}(B,A)(rho)
    + int [rho(A) + rho(B)/l - ((1+l)/l)^2 rho(A : lB)] dmu(l),
    with a0 = b - 2c + d and b0 = a - b + c - 2d.
    """
    st = _checked_state_spectrum(rho, A, B)
    mu, t, m, s = r.mu, st.pair.t, st.m, 1.0 - st.pair.t
    # the singular parts are the eigenprojections of R at 1 (A relative to
    # B) and at 0 (B relative to A), cut as in lebesgue_decomposition; a
    # divergent branch returns before any term is computed
    at_zero, at_one = _endpoints(t)
    if mu.infinite_mass and _singular(m[at_one].sum(), st.tr, st.norm_a):
        return INF
    if mu.infinite_inv_mass and _singular(m[at_zero].sum(), st.tr, st.norm_b):
        return INF
    a0 = r.b - 2.0 * r.c + r.d
    b0 = r.a - r.b + r.c - 2.0 * r.d
    terms = [a0 * float(m @ t), b0 * float(m @ s)]
    if r.c > 0:
        terms.append(xmul(r.c, _t2_state_value(st)))
    if r.d > 0:
        terms.append(xmul(r.d, _t2_state_value(st, swapped=True)))
    kernel = _integrand((2.0 * t - 1.0) ** 2, t, s, mu.locations)
    terms.append(float(mu.weights @ kernel @ m))
    return xadd(*terms)


def integral_eval_92(r: IntegralRepr97, A: np.ndarray, B: np.ndarray,
                     rho: np.ndarray) -> float:
    """Perspective evaluation for f with finite f'(0+).

    f'(0+) rho(A) + f(0+) rho(B) + c phi_{t^2}(A,B)(rho)
    + int [rho(A) - rho(A : lB)] dnu(l).
    """
    st = _checked_state_spectrum(rho, A, B)
    nu, t, m, s = r.nu, st.pair.t, st.m, 1.0 - st.pair.t
    if nu.infinite_mass and _singular(m[_endpoints(t)[1]].sum(), st.tr, st.norm_a):
        return INF
    terms = [r.fp0 * float(m @ t), r.f0 * float(m @ s)]
    if r.c > 0:
        terms.append(xmul(r.c, _t2_state_value(st)))
    kernel = _integrand(t * t, t, s, nu.locations)
    terms.append(float(nu.weights @ kernel @ m))
    return xadd(*terms)


# ---------------------------------------------------------------------------
# Two projections
# ---------------------------------------------------------------------------

def _coeff_times_psd(coeff: float, X: np.ndarray) -> ExtendedSelfAdjoint:
    """coeff * X with inf * X meaning +inf on the range of X, for X = P or Q
    less their meet: a projection (the meet commutes with both), cut at
    PROJECTION_RANK_CUT."""
    if math.isinf(coeff):
        return infinity_on(_range_subspace(*eigh(X), PROJECTION_RANK_CUT))
    return from_matrix(coeff * X)


def two_projections(f: ExtendedFunction, P: np.ndarray, Q: np.ndarray
                    ) -> ExtendedSelfAdjoint:
    """Closed form for projection pairs:

    f(1) (P ^ Q) + f'(inf) (P - P ^ Q) + f(0+) (Q - P ^ Q),

    assembled as a form sum of three elements; infinite coefficients
    contribute infinity subspaces.  Agrees with the direct calculus.  P and
    Q are validated on the stacked path, their shapes compared before any
    eigh, then each checked for idempotency; their ranges come from one
    eigh of that stack, with no PSD check (the idempotency slack admits
    eigenvalues near -PROJECTION_ATOL).
    """
    P, Q = H = _hermitian_stack((P, Q), ("P", "Q"))
    for name, X in (("P", P), ("Q", Q)):
        idem = spectral_norm(X @ X - X)
        if idem > PROJECTION_ATOL:
            raise ValueError(f"{name} is not idempotent: |X^2 - X| = {idem:.3e}")
    alpha, beta = f.fprime_at_inf, f.f_at_0plus
    f1 = f.f_at_1 if f.f_at_1 is not None else f(1.0)
    if alpha is None or beta is None:
        raise ValueError(f"{f.name} is missing boundary metadata")
    w, V = _psd_stack(H, ())
    Pm = subspace_meet(_range_subspace(w[0], V[0]),
                       _range_subspace(w[1], V[1])).projector()
    out = from_matrix(f1 * Pm)
    for coeff, X in ((alpha, P), (beta, Q)):
        out = add(out, _coeff_times_psd(coeff, hermitian_part(X - Pm)))
    return out


# ---------------------------------------------------------------------------
# Variational bounds via piecewise-constant decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Piecewise-constant pair (eta, zeta) on [lo, hi] with eta + zeta = xi."""

    lo: float
    hi: float
    pieces: tuple  # ((lo_i, hi_i, eta_i, zeta_i), ...) sorted and contiguous
    target: np.ndarray = field(repr=False)

    def __post_init__(self):
        xi = np.asarray(self.target, dtype=complex).reshape(-1)
        object.__setattr__(self, "target", xi)
        if not self.pieces:
            raise ValueError("decomposition needs at least one piece")
        prev = self.lo
        for (a, b, eta, zeta) in self.pieces:
            if _off(a, prev) > DECOMPOSITION_REL_TOL:
                raise ValueError(f"pieces do not partition: gap at {prev} -> {a}")
            if b < a:
                raise ValueError("piece with reversed endpoints")
            dev = _off(np.asarray(eta) + np.asarray(zeta), xi)
            if dev > DECOMPOSITION_REL_TOL:
                raise ValueError(f"eta + zeta != xi on piece [{a}, {b}]: {dev:.3e}")
            prev = b
        if _off(prev, self.hi) > DECOMPOSITION_REL_TOL:
            raise ValueError(f"pieces stop at {prev}, expected {self.hi}")

    def at(self, t: float):
        for (a, b, eta, zeta) in self.pieces:
            if _off(t, min(max(t, a), b)) <= DECOMPOSITION_REL_TOL:
                return np.asarray(eta, dtype=complex), np.asarray(zeta, dtype=complex)
        raise ValueError(f"point {t} outside decomposition interval")


def _off(x, ref) -> float:
    """max |x - ref| / max(1, max |ref|): a cut point's or a vector's miss."""
    return float(np.max(np.abs(np.subtract(x, ref)), initial=0.0)) / max(
        1.0, float(np.max(np.abs(ref), initial=0.0)))


def constant_decomposition(lo: float, hi: float, eta, zeta) -> Decomposition:
    eta = np.asarray(eta, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    return Decomposition(lo, hi, ((lo, hi, eta, zeta),), eta + zeta)


def optimal_decomposition(A: np.ndarray, B: np.ndarray, xi: np.ndarray,
                          t: float):
    """Minimizer of <A eta, eta> + t <B zeta, zeta> subject to eta + zeta = xi.

    zeta = (A + tB)^+ A xi and eta = xi - zeta; components of xi in
    ker(A + tB) land in eta, where they cost nothing (any assignment of the
    zero-cost directions is a minimizer; this one is deterministic).
    Achieves the parallel-sum value <(A : tB) xi, xi>.  The shapes of A
    and B are compared, then each is validated as PSD.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    return _optimal_decomposition(*_validated_pair(A, B)[:2], xi, t)


def _optimal_decomposition(A: np.ndarray, B: np.ndarray, xi, t: float):
    """optimal_decomposition on a validated pair."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    pinv = _pinv_of(*eigh(hermitian_part(A + t * B)))
    zeta = pinv @ (A @ xi)
    return xi - zeta, zeta


def optimizer_decomposition(nu: Measure, A: np.ndarray, B: np.ndarray,
                            xi: np.ndarray, lo: float, hi: float
                            ) -> Decomposition:
    """One piece per atom of nu, each carrying the closed-form minimizer;
    A and B are validated once, as optimal_decomposition validates them."""
    return _optimizer_decomposition(nu, *_validated_pair(A, B)[:2], xi, lo, hi)


def _optimizer_decomposition(nu: Measure, A: np.ndarray, B: np.ndarray,
                             xi, lo: float, hi: float) -> Decomposition:
    """optimizer_decomposition on a validated pair."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    order = np.argsort(nu.locations)
    locs = nu.locations[order]
    if len(locs) == 0:
        return constant_decomposition(lo, hi, xi, np.zeros_like(xi))
    cuts = [lo] + [float((a + b) / 2) for a, b in zip(locs, locs[1:])] + [hi]
    pieces = []
    for i, t in enumerate(locs):
        eta, zeta = _optimal_decomposition(A, B, xi, float(t))
        pieces.append((cuts[i], cuts[i + 1], eta, zeta))
    return Decomposition(lo, hi, tuple(pieces), xi)


def variational_bound_94(r: IntegralRepr77, A: np.ndarray, B: np.ndarray,
                         xi: np.ndarray, n: int,
                         decomposition: Decomposition) -> float:
    """Lower bound for phi_f(A,B)(omega_xi) from one decomposition:

    alpha_n <A xi, xi> + beta_n <B xi, xi>
    - int (1+t)/t (<A eta(t), eta(t)> + t <B zeta(t), zeta(t)>) dnu_n(t).

    Any admissible decomposition stays below the direct value; the supremum
    over decompositions and n attains it.  The shapes of A and B are
    compared, then each is validated as PSD.
    """
    return _variational_bound_94(r, *_validated_pair(A, B)[:2], xi, n,
                                 decomposition)


def _variational_bound_94(r: IntegralRepr77, A: np.ndarray, B: np.ndarray,
                          xi, n: int, decomposition: Decomposition) -> float:
    """variational_bound_94 on a validated pair."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    app = approximants(r, n)
    lo, hi = 1.0 / n, float(n)
    if max(_off(lo, max(lo, decomposition.lo)),
           _off(hi, min(hi, decomposition.hi))) > DECOMPOSITION_REL_TOL:
        raise ValueError(
            f"decomposition covers [{decomposition.lo}, {decomposition.hi}], "
            f"needs [{lo}, {hi}]"
        )
    if _off(decomposition.target, xi) > DECOMPOSITION_REL_TOL:
        raise ValueError("decomposition target differs from xi")
    qa = float(np.vdot(xi, A @ xi).real)
    qb = float(np.vdot(xi, B @ xi).real)
    total = app.alpha_n * qa + app.beta_n * qb
    for t, w in zip(app.nu_n.locations, app.nu_n.weights):
        eta, zeta = decomposition.at(float(t))
        cost = (float(np.vdot(eta, A @ eta).real)
                + t * float(np.vdot(zeta, B @ zeta).real))
        total -= w * (1.0 + t) / t * cost
    return total


def variational_envelope(r: IntegralRepr77, A: np.ndarray, B: np.ndarray,
                         xi: np.ndarray, n_list=(1, 2, 4, 8, 16, 32)):
    """Per-n suprema via optimizer decompositions; nondecreasing in n.

    The n -> inf monotone envelope realizes the no-cutoff variational
    expression, whose tail contributions are exactly the closed forms the
    envelope already captures at finite precision.  A and B are validated
    once, as variational_bound_94 validates them.
    """
    A, B, _, _ = _validated_pair(A, B)
    out = []
    for n in n_list:
        app = approximants(r, n)
        dec = _optimizer_decomposition(app.nu_n, A, B, xi, 1.0 / n, float(n))
        out.append((n, _variational_bound_94(r, A, B, xi, n, dec)))
    return out


# ---------------------------------------------------------------------------
# Quadrature-backed measures and stock representations
# ---------------------------------------------------------------------------

def _gauss_legendre_01(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_jacobi(nodes: int, a: float, b: float):
    """Gauss-Jacobi rule for the weight (1-x)^a (1+x)^b on [-1, 1], a, b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic three-term recurrence, and the weights are
    mu0 v0^2, with v0 the first component of each normalized eigenvector.
    """
    ab = a + b
    k = np.arange(1, nodes, dtype=float)
    diag = np.concatenate((
        [(b - a) / (ab + 2.0)],
        (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0)),
    ))
    # beta_1 in closed form: the general expression is 0/0 when a + b = -1
    k = k[1:]
    beta = np.concatenate((
        [4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + ab) ** 2 * (3.0 + ab))],
        4.0 * k * (k + a) * (k + b) * (k + ab)
        / ((2.0 * k + ab) ** 2 * (2.0 * k + ab + 1.0) * (2.0 * k + ab - 1.0)),
    ))
    off = np.sqrt(beta)
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = (2.0 ** (ab + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
           / math.gamma(ab + 2.0))
    return x, mu0 * V[0] ** 2


def make_quadrature(kind: str, nodes: int = 200,
                    alpha: float | None = None) -> Measure:
    """Fixed-node quadrature measures under the substitution l = s/(1-s).

    kind='tlogt' is the Lebesgue measure dl for the representation
    t log t = int (t/(1+l) - t/(t+l)) dl, on Gauss-Legendre nodes (the
    substituted integrand is smooth).  kind='t_alpha' is the density
    sin((a-1)pi)/pi * l^(a-2) dl with 1 < a < 2, on a Gauss-Jacobi rule
    matched to the substituted endpoint exponents s^(a-2), (1-s)^(1-a)
    (Gauss-Legendre converges only at O(1/n) against those singularities).
    """
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    if kind == "tlogt":
        s, w = _gauss_legendre_01(nodes)
        lam = s / (1.0 - s)
        weights = w / (1.0 - s) ** 2
        return Measure(lam, weights, infinite_mass=True, infinite_inv_mass=True)
    if kind == "t_alpha":
        if alpha is None or not 1.0 < alpha < 2.0:
            raise ValueError("t_alpha requires an exponent in (1, 2)")
        aj = 1.0 - alpha   # exponent of (1-x) on [-1, 1]
        bj = alpha - 2.0   # exponent of (1+x)
        x, w = _gauss_jacobi(nodes, aj, bj)
        s = (x + 1.0) / 2.0
        coeff = math.sin((alpha - 1.0) * math.pi) / math.pi
        # the (0,1)-map scale factor 0.5^(aj+bj+1) is exactly 1 here
        weights = coeff * w / (1.0 - s)
        lam = s / (1.0 - s)
        return Measure(lam, weights, infinite_mass=True, infinite_inv_mass=True)
    raise ValueError(f"unknown quadrature kind {kind!r}")


def repr77_square_minus() -> IntegralRepr77:
    """(t-1)^2: pure c-term."""
    return IntegralRepr77(0.0, 0.0, 1.0, 0.0, Measure.zero())


def repr77_atom(lam: float, weight: float = 1.0) -> IntegralRepr77:
    """weight * (t-1)^2/(t+lam): single kernel atom."""
    return IntegralRepr77(0.0, 0.0, 0.0, 0.0,
                          Measure(np.array([lam]), np.array([weight])))


def repr77_tlogt(nodes: int = 200) -> IntegralRepr77:
    """t log t = t - 1 + int (t-1)^2/(t+l) * l/(1+l)^2 dl.

    The density has infinite total mass (that is alpha = inf); under the
    substitution the weighted integrands decay, so Gauss-Legendre applies.
    """
    s, w = _gauss_legendre_01(nodes)
    lam = s / (1.0 - s)
    weights = w * s / (1.0 - s)  # density l/(1+l)^2 times Jacobian ds/(1-s)^2
    mu = Measure(lam, weights, infinite_mass=True, infinite_inv_mass=False)
    return IntegralRepr77(0.0, 1.0, 0.0, 0.0, mu)


def repr97_square() -> IntegralRepr97:
    """t^2: pure c-term of the finite-slope representation."""
    return IntegralRepr97(0.0, 0.0, 1.0, Measure.zero())


def repr97_t_alpha(alpha: float, nodes: int = 200) -> IntegralRepr97:
    """t^alpha = sin((a-1)pi)/pi int t^2/(t+l) l^(a-2) dl, 1 < alpha < 2."""
    return IntegralRepr97(0.0, 0.0, 0.0, make_quadrature("t_alpha", nodes, alpha))
