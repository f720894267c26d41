"""Extended-real scalar functions, their calculus f(A), integral
representations of operator convex functions, approximant sequences, and the
numeric convexity / monotonicity / pmi falsifiers.

Boundary values f(0+) and f'(inf) are declared metadata, verified for catalog
entries; they are never inferred from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .extended import (
    ExtendedSelfAdjoint,
    FORM_SLACK_REL,
    FormArithmeticError,
    INF,
    _diagonal_element,
    _form_scale,
    congruence,
    form_leq,
    xadd,
)
from .linalg import (
    EPS,
    eigh,
    hermitian_part,
    psd_tol,
    require_hermitian,
)

LIMIT_REL_SLACK = 1e-6  # a boundary value vs its sampled limit, x 1 + |lim|
PMI_SLACK = 1e-10  # check_pmi's, absolute on its window (see there)
INTERIOR_MARGIN = 1e-3  # check_theorem37_boundary's step into its window
DIVERGENCE_FLOOR = 1e-12  # the least start of _diverges' growth test


class DomainError(ValueError):
    """An eigenvalue (or evaluation point) falls outside a function's domain."""


@dataclass(frozen=True)
class Interval:
    """Interval with endpoint-closedness flags; hi may be +inf."""

    lo: float
    hi: float
    closed_lo: bool
    closed_hi: bool

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, t: float) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo:
            return self.closed_lo
        if t == self.hi:
            return self.closed_hi
        return True

    def __str__(self):
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


OPEN_POS = Interval(0.0, INF, False, False)     # (0, inf)
CLOSED_POS = Interval(0.0, INF, True, False)    # [0, inf)
UNIT_CLOSED = Interval(0.0, 1.0, True, True)    # [0, 1]
UNIT_GE = Interval(0.0, 1.0, False, True)       # (0, 1]


@dataclass(frozen=True)
class ExtendedFunction:
    """Scalar function J -> (-inf, +inf] with declared boundary metadata.

    f_at_0plus is beta = lim_{t->0} f(t), fprime_at_inf is alpha =
    lim f(t)/t; both may be +inf and both may be None for functions (e.g.
    perspective diagonals) where they are not meaningful.
    """

    name: str
    domain: Interval
    fn: Callable[[float], float] = field(repr=False)
    f_at_0plus: float | None = None
    fprime_at_inf: float | None = None
    f_at_1: float | None = None
    tags: frozenset = frozenset()

    def __call__(self, t: float) -> float:
        v = float(self.fn(float(t)))
        if math.isnan(v):
            raise FormArithmeticError(f"{self.name}({t}) evaluated to NaN")
        return v

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def value_with_boundary(self, t: float, tol: float) -> float:
        """Evaluate with endpoint clamping.

        Points within tol of a closed endpoint are clamped onto it; the open
        endpoint 0 falls back to the declared f(0+).  Anything else outside
        the domain raises DomainError naming the point.
        """
        d = self.domain
        if d.contains(t):
            return self(t)
        if abs(t - d.lo) <= tol:
            if d.closed_lo:
                return self(d.lo)
            if d.lo == 0.0 and self.f_at_0plus is not None:
                return self.f_at_0plus
        if math.isfinite(d.hi) and abs(t - d.hi) <= tol:
            if d.closed_hi:
                return self(d.hi)
        raise DomainError(
            f"value {t!r} outside domain {d} of {self.name}"
        )


def _tagset(*tags: str) -> frozenset:
    return frozenset(tags)


def catalog(name: str, param: float | None = None) -> ExtendedFunction:
    """Named scalar functions with verified boundary metadata.

    power:p is rejected outside [-1, 0] u [1, 2] (not operator convex there,
    and the library refuses to tag what it cannot stand behind).
    """
    if name == "power":
        if param is None:
            raise ValueError("power requires an exponent")
        p = float(param)
        if not (-1.0 <= p <= 0.0 or 1.0 <= p <= 2.0):
            raise ValueError(
                f"power {p} rejected: operator convexity holds on [-1,0] u [1,2] only"
            )
        if p == 0.0:
            return ExtendedFunction(
                "power:0", OPEN_POS, lambda t: 1.0, f_at_0plus=1.0,
                fprime_at_inf=0.0, f_at_1=1.0,
                tags=_tagset("operator_convex", "nonnegative", "pmi"),
            )
        if p < 0.0:
            tags = _tagset("operator_convex", "operator_monotone_decreasing",
                           "nonnegative", "pmi")
            return ExtendedFunction(
                f"power:{p}", OPEN_POS, lambda t, p=p: t ** p,
                f_at_0plus=INF, fprime_at_inf=0.0, f_at_1=1.0, tags=tags,
            )
        alpha = 1.0 if p == 1.0 else INF
        return ExtendedFunction(
            f"power:{p}", CLOSED_POS, lambda t, p=p: t ** p,
            f_at_0plus=0.0, fprime_at_inf=alpha, f_at_1=1.0,
            tags=_tagset("operator_convex", "nonnegative", "pmi"),
        )
    if name == "tlogt":
        def _tlogt(t):
            return 0.0 if t == 0.0 else t * math.log(t)
        return ExtendedFunction(
            "tlogt", CLOSED_POS, _tlogt, f_at_0plus=0.0, fprime_at_inf=INF,
            f_at_1=0.0, tags=_tagset("operator_convex"),
        )
    if name == "neglog":
        return ExtendedFunction(
            "neglog", OPEN_POS, lambda t: -math.log(t), f_at_0plus=INF,
            fprime_at_inf=0.0, f_at_1=0.0,
            tags=_tagset("operator_convex", "operator_monotone_decreasing"),
        )
    if name == "ylogxy":
        # diagonal t -> (1-t) log(t/(1-t)) of the restricted two-variable
        # y log(x/y); the value at t=1 is the x-axis convention 0
        def _diag(t):
            if t == 1.0:
                return 0.0
            return (1.0 - t) * math.log(t / (1.0 - t))
        return ExtendedFunction(
            "ylogxy", UNIT_GE, _diag, f_at_1=None,
            tags=_tagset("restricted_concave"),
        )
    if name == "glambda":
        if param is None or param <= 0:
            raise ValueError("glambda requires lambda > 0")
        lam = float(param)
        return ExtendedFunction(
            f"glambda:{lam}", CLOSED_POS,
            lambda t, lam=lam: (t - 1.0) ** 2 / (t + lam),
            f_at_0plus=1.0 / lam, fprime_at_inf=1.0, f_at_1=0.0,
            tags=_tagset("operator_convex", "nonnegative"),
        )
    if name == "gn":
        if param is None or param <= 0:
            raise ValueError("gn requires n > 0")
        nn = float(param)
        return ExtendedFunction(
            f"gn:{nn}", CLOSED_POS,
            lambda t, nn=nn: nn * (t - 1.0) ** 2 / (t + nn),
            f_at_0plus=1.0, fprime_at_inf=nn, f_at_1=0.0,
            tags=_tagset("operator_convex", "nonnegative"),
        )
    if name == "affine":
        if param is None:
            raise ValueError("affine requires (a, b)")
        a, b = (float(param[0]), float(param[1]))
        return ExtendedFunction(
            f"affine:{a}:{b}", CLOSED_POS, lambda t, a=a, b=b: a + b * t,
            f_at_0plus=a, fprime_at_inf=b, f_at_1=a + b,
            tags=_tagset("operator_convex"),
        )
    if name == "square_minus":
        return ExtendedFunction(
            "square_minus", CLOSED_POS, lambda t: (t - 1.0) ** 2,
            f_at_0plus=1.0, fprime_at_inf=INF, f_at_1=0.0,
            tags=_tagset("operator_convex", "nonnegative"),
        )
    if name == "max1":
        # pmi but not operator convex: max(t^p, 1) = max(t, 1)^p exactly
        return ExtendedFunction(
            "max1", CLOSED_POS, lambda t: max(t, 1.0),
            f_at_0plus=1.0, fprime_at_inf=1.0, f_at_1=1.0,
            tags=_tagset("pmi", "nonnegative"),
        )
    raise ValueError(f"unknown catalog function {name!r}")


def transpose(f: ExtendedFunction) -> ExtendedFunction:
    """f~(t) = t f(1/t) on (0, inf); boundary metadata swaps alpha <-> beta."""
    if not (f.domain.lo == 0.0 and math.isinf(f.domain.hi)):
        raise ValueError("transpose is defined for functions on (0, inf)")
    tags = f.tags & _tagset("operator_convex", "nonnegative")
    return ExtendedFunction(
        f"transpose({f.name})", OPEN_POS,
        lambda t, g=f.fn: t * g(1.0 / t),
        f_at_0plus=f.fprime_at_inf, fprime_at_inf=f.f_at_0plus,
        f_at_1=f.f_at_1, tags=tags,
    )


# ---------------------------------------------------------------------------
# Measures and integral representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measure:
    """Positive measure on (0, inf) realized as weighted atoms.

    Quadrature rules enter as atoms too (one integration code path).  The
    infinite_* flags record that the *represented* measure has infinite total
    mass or infinite integral of 1/lambda, which a finite atomization cannot
    exhibit; the integral evaluators consult them for the +inf branch.
    """

    locations: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    infinite_mass: bool = False
    infinite_inv_mass: bool = False

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float).reshape(-1)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if loc.shape != w.shape:
            raise ValueError("locations and weights must have equal length")
        if not np.isfinite(loc).all() or np.any(loc <= 0):
            raise ValueError("atom locations must be finite and strictly "
                             "positive")
        if not np.isfinite(w).all() or np.any(w < 0):
            raise ValueError("atom weights must be finite and nonnegative")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def zero() -> "Measure":
        return Measure(np.zeros(0), np.zeros(0))

    @staticmethod
    def from_atoms(atoms) -> "Measure":
        atoms = list(atoms)
        if not atoms:
            return Measure.zero()
        loc, w = zip(*atoms)
        return Measure(np.array(loc, dtype=float), np.array(w, dtype=float))

    @property
    def natoms(self) -> int:
        return len(self.locations)

    def integrate(self, g) -> float:
        """sum_i w_i g(lambda_i); g may be scalar or vectorized."""
        if self.natoms == 0:
            return 0.0
        vals = np.array([float(g(l)) for l in self.locations])
        return float(np.dot(self.weights, vals))

    def mass(self) -> float:
        return INF if self.infinite_mass else float(self.weights.sum())

    def inv_mass(self) -> float:
        if self.infinite_inv_mass:
            return INF
        return float(np.dot(self.weights, 1.0 / self.locations))

    def truncated(self, lo: float, hi: float) -> "Measure":
        keep = (self.locations >= lo) & (self.locations <= hi)
        return Measure(self.locations[keep], self.weights[keep])


def _require_finite(rep, names) -> None:
    """ValueError naming the first coefficient of rep among names that is
    NaN or infinite: the representations' values and boundary data take
    only finite coefficients."""
    for name in names:
        value = getattr(rep, name)
        if not math.isfinite(value):
            raise ValueError(f"coefficient {name} must be finite, got {value}")


@dataclass(frozen=True)
class IntegralRepr77:
    """f(t) = a + b(t-1) + c(t-1)^2 + d(t-1)^2/t + int (t-1)^2/(t+l) dmu(l)."""

    a: float
    b: float
    c: float
    d: float
    mu: Measure

    def __post_init__(self):
        _require_finite(self, ("a", "b", "c", "d"))
        if self.c < 0 or self.d < 0:
            raise ValueError("c and d must be nonnegative")


@dataclass(frozen=True)
class IntegralRepr97:
    """f(t) = f0 + fp0 t + c t^2 + int t^2/(t+l) dnu(l), for f'(0+) finite."""

    f0: float
    fp0: float
    c: float
    nu: Measure

    def __post_init__(self):
        _require_finite(self, ("f0", "fp0", "c"))
        if self.c < 0:
            raise ValueError("c must be nonnegative")


def from_repr77(r: IntegralRepr77) -> ExtendedFunction:
    """Pointwise evaluator plus boundary values with exact inf propagation."""
    mu = r.mu

    def _eval(t, r=r, mu=mu):
        base = (r.a + r.b * (t - 1.0) + r.c * (t - 1.0) ** 2
                + r.d * (t - 1.0) ** 2 / t)
        tail = mu.integrate(lambda l: (t - 1.0) ** 2 / (t + l))
        return base + tail

    alpha = xadd(r.b, INF if r.c > 0 else 0.0, r.d, mu.mass())
    beta = xadd(r.a, -r.b, r.c, INF if r.d > 0 else 0.0, mu.inv_mass())
    return ExtendedFunction(
        "repr77", OPEN_POS, _eval, f_at_0plus=beta, fprime_at_inf=alpha,
        f_at_1=r.a, tags=_tagset("operator_convex"),
    )


class Approximants(NamedTuple):
    f_n: ExtendedFunction
    alpha_n: float
    beta_n: float
    nu_n: Measure
    h_n: ExtendedFunction


def approximants(r: IntegralRepr77, n: int) -> Approximants:
    """The n-th lower approximant of an operator convex function.

    f_n truncates the kernel measure to [1/n, n] and tames the quadratic
    terms; it rewrites exactly as alpha_n t + beta_n - h_n(t) for the
    operator monotone h_n built from the two endpoint atoms plus the
    truncated measure.  f_n increases pointwise to f.
    """
    if n < 1:
        raise ValueError("approximant index must be >= 1")
    n = int(n)
    trunc = r.mu.truncated(1.0 / n, float(n))

    def _fn_eval(t, r=r, n=n, trunc=trunc):
        base = (r.a + r.b * (t - 1.0)
                + n * r.c * (t - 1.0) ** 2 / (t + n)
                + r.d * (t - 1.0) ** 2 / (t + 1.0 / n))
        return base + trunc.integrate(lambda l: (t - 1.0) ** 2 / (t + l))

    alpha_n = r.b + n * r.c + r.d + float(trunc.weights.sum())
    beta_n = r.a - r.b + r.c + n * r.d
    if trunc.natoms:
        beta_n += float(np.dot(trunc.weights, 1.0 / trunc.locations))

    atoms = []
    if r.c > 0:
        atoms.append((float(n), (1.0 + n) * r.c))
    if r.d > 0:
        atoms.append((1.0 / n, (1.0 + n) * r.d))
    for l, w in zip(trunc.locations, trunc.weights):
        atoms.append((float(l), float(w) * (1.0 + l) / l))
    nu_n = Measure.from_atoms(atoms)

    def _hn_eval(t, nu=nu_n):
        if t == 0.0:
            return 0.0
        return nu.integrate(lambda l: t * (1.0 + l) / (t + l))

    f_n = ExtendedFunction(
        f"approximant:{n}", OPEN_POS, _fn_eval, f_at_0plus=beta_n,
        fprime_at_inf=alpha_n, f_at_1=r.a, tags=_tagset("operator_convex"),
    )
    h_n = ExtendedFunction(
        f"h:{n}", CLOSED_POS, _hn_eval, f_at_0plus=0.0, fprime_at_inf=0.0,
        f_at_1=_hn_eval(1.0), tags=_tagset("operator_monotone", "nonnegative"),
    )
    return Approximants(f_n, alpha_n, beta_n, nu_n, h_n)


# ---------------------------------------------------------------------------
# Functional calculus and the property falsifiers
# ---------------------------------------------------------------------------

def calculus(f: ExtendedFunction, A: np.ndarray) -> ExtendedSelfAdjoint:
    """Spectral calculus f(A) as an extended self-adjoint element.

    Eigenvalues where f is +inf populate the infinity part.  Eigenvalues
    within the rank tolerance of |A| (n eps max |eigenvalue|, at least
    4 eps) of a domain endpoint are clamped onto it; anything farther
    outside raises DomainError.
    """
    A = require_hermitian(A, name="calculus input")
    return _spectral_calculus(f, *eigh(A))


def _spectral_calculus(f: ExtendedFunction, w: np.ndarray, V: np.ndarray
                       ) -> ExtendedSelfAdjoint:
    """calculus(f, A) from the eigenpairs (w, V) of a validated A."""
    clamp_tol = max(psd_tol(w), 4.0 * EPS)
    return _diagonal_element(
        [float(f.value_with_boundary(t, clamp_tol)) for t in w.tolist()], V)


def _haar_isometry(rng, n: int, k: int) -> np.ndarray:
    X = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    Q, R = np.linalg.qr(X)
    return Q * np.sign(np.diag(R).real)


def _sample_window(domain: Interval):
    lo, hi = domain.lo, domain.hi
    if math.isinf(hi):
        hi = max(lo, 0.0) + 5.0
    width = hi - lo
    lo_eff = lo if domain.closed_lo else lo + 0.02 * width
    hi_eff = hi if domain.closed_hi else hi - 0.02 * width
    return lo_eff, hi_eff


def random_in_domain(rng, f: ExtendedFunction, n: int) -> np.ndarray:
    """Random Hermitian matrix with spectrum inside f's domain."""
    lo, hi = _sample_window(f.domain)
    w = rng.uniform(lo, hi, size=n)
    U = _haar_isometry(rng, n, n)
    return hermitian_part((U * w) @ U.conj().T)


@dataclass
class CheckReport:
    """Outcome of a sampled falsifier: a pass is evidence, a fail a certificate."""

    name: str
    trials: int
    passes: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_operator_convex(f: ExtendedFunction, dims=(4, 2), trials: int = 300,
                          seed: int = 0) -> CheckReport:
    """Sampled isometry-compression test f(V*AV) <= V* f(A) V.

    Random A with spectrum in the domain, random isometries V into a smaller
    space; both sides compared in the form order within the checks' slack.
    """
    dim_h, dim_k = dims
    failures = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        A = random_in_domain(rng, f, dim_h)
        V = _haar_isometry(rng, dim_h, dim_k)
        lhs = calculus(f, hermitian_part(V.conj().T @ A @ V))
        rhs = congruence(V, calculus(f, A))
        ok, witness = form_leq(lhs, rhs, FORM_SLACK_REL * _form_scale(lhs, rhs))
        if not ok:
            failures.append({"trial": trial, "A": A, "V": V, "witness": witness})
    return CheckReport(f"operator_convex:{f.name}", trials,
                       trials - len(failures), failures)


def _approach_limit(f: ExtendedFunction, endpoint: float, inward: float,
                    steps: int = 8):
    """Limit of f approaching `endpoint` from inside along a geometric grid."""
    vals = []
    for k in range(2, 2 + steps):
        t = endpoint + inward * 10.0 ** (-k)
        vals.append(f(t))
    if any(math.isinf(v) for v in vals) or abs(vals[-1]) > 1e12:
        return INF if vals[-1] > 0 else -INF, vals
    return vals[-1], vals


def check_theorem37_boundary(f: ExtendedFunction, trials: int = 100,
                             seed: int = 0) -> CheckReport:
    """Boundary jump test for convexity on a closed interval.

    The declared endpoint values must dominate the inward limits
    (f(a) >= f(a+), f(b) >= f(b-)); the interior must be R-valued.  Combined
    with the sampled compression test on the interior.
    """
    d = f.domain
    failures = []
    width = (d.hi - d.lo) if math.isfinite(d.hi) else 1.0
    ends = [(d.lo, width)] if d.closed_lo else []
    if math.isfinite(d.hi) and d.closed_hi:
        ends.append((d.hi, -width))
    for end, inward in ends:
        lim, _ = _approach_limit(f, end, inward)
        if not f(end) >= lim - LIMIT_REL_SLACK * (
                1 + abs(lim) if math.isfinite(lim) else 1):
            failures.append({"endpoint": end, "declared": f(end), "limit": lim})
    lo_eff, hi_eff = _sample_window(d)
    interior = np.linspace(lo_eff + INTERIOR_MARGIN * width,
                           hi_eff - INTERIOR_MARGIN * width, 101)
    for t in interior:
        if math.isinf(f(float(t))):
            failures.append({"interior_point": float(t), "value": INF})
            break
    inner = replace(f, domain=Interval(d.lo, d.hi, False, False))
    conv = check_operator_convex(inner, trials=trials, seed=seed)
    failures.extend(conv.failures)
    return CheckReport(f"boundary:{f.name}", trials, trials - len(conv.failures),
                       failures)


def check_pmi(f: ExtendedFunction, trials: int = 200, seed: int = 0) -> CheckReport:
    """Power-monotone-increasing test: f(t^p) >= f(t)^p for p >= 1.

    The sample window keeps f(t)^p below ~1e3 so the absolute PMI_SLACK
    stays above floating noise for exact-equality functions like t^2.
    """
    failures = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        t = float(10.0 ** rng.uniform(-0.6, 0.6))
        p = float(rng.uniform(1.0, 3.0))
        ft = f(t)
        if ft <= 0:
            raise ValueError(f"check_pmi requires f > 0; {f.name}({t}) = {ft}")
        if f(t ** p) < ft ** p - PMI_SLACK:
            failures.append({"trial": trial, "t": t, "p": p,
                             "lhs": f(t ** p), "rhs": ft ** p})
    return CheckReport(f"pmi:{f.name}", trials, trials - len(failures), failures)


def _diverges(vals) -> bool:
    """Consistent-divergence evidence: monotone in magnitude with real growth
    (covers logarithmic rates, where a fixed large threshold would lie)."""
    mags = [abs(v) for v in vals]
    growing = all(b >= a for a, b in zip(mags, mags[1:]))
    return growing and (mags[-1] > 1e2
                        or mags[-1] >= 1.5 * max(mags[0], DIVERGENCE_FLOOR))


def verify_boundary_metadata(f: ExtendedFunction,
                             rel_tol: float = LIMIT_REL_SLACK) -> bool:
    """Check declared f(0+) and f'(inf) against a geometric sample grid."""
    ok = True
    if f.f_at_0plus is not None:
        vals = [f(10.0 ** (-k)) for k in range(3, 9)]
        if math.isinf(f.f_at_0plus):
            ok &= _diverges(vals)
        else:
            ok &= abs(vals[-1] - f.f_at_0plus) <= rel_tol * (1 + abs(f.f_at_0plus))
    if f.fprime_at_inf is not None:
        slopes = [f(10.0 ** k) / 10.0 ** k for k in range(3, 9)]
        if math.isinf(f.fprime_at_inf):
            ok &= _diverges(slopes)
        else:
            ok &= abs(slopes[-1] - f.fprime_at_inf) <= rel_tol * (1 + abs(f.fprime_at_inf))
    return bool(ok)
