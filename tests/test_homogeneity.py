"""Exact positive homogeneity of the pair calls at powers of four.

phi(cA, cB) = c phi(A, B) for every homogeneous phi, and for c = 4^k the
scaling is exact in binary floating point, as is sqrt(c) = 2^k.  So each
call on (cA, cB) must give c times (or sqrt(c) times, or, for a scale-free
output, exactly) what it gives on (A, B), to the last bit, and raise the
same error.  The check needs no reference implementation, no tolerance and
no mpmath, so it shares no fast path with the code it checks.

Covered domain: gen_pair pairs (seed 11) of the well_conditioned,
rank_deficient and projection profiles, n in {2, 3, 6, 33, 40} (33 and 40
take the Cholesky route on a definite sum), trials 0 and 1, k in {-200,
-60, 7, 60, 200}; compatible_representation, which never takes that
route; perspective_apply and pw_apply_restricted, on both
sides, also on the commuting_pair and dominated_pair profiles; and the
independent oracles (invertible_formula, pw_commuting_oracle,
special_values) on the well_conditioned, commuting_pair and dominated_pair
profiles.  Measured on
the first three profiles' pairs up to n = 33, every output is exact for
-202 <= k <= 241 and the first breaks come at k = -203 and k = 242, where
numpy's eigh itself stops scaling exactly: LAPACK rescales a matrix near
underflow or overflow by a factor that is not a power of two.  The test
stays inside, at |k| <= 200.  t2_bound and boundedness_chain square the pair, which would
halve that range (the chain's (c) constant was exact only for |k| <= 114),
so they first divide a pair of scale outside 4^-100 ... 4^100
(perspectives.UNSCALED_POW4) by a power of four.  Beyond the exact domain,
the second test holds their decisions on both sides of the joint scales
where forming A^2 as given failed.

An element's lower bound is the least eigenvalue of its finite part F,
which can lie far below its pair's scale: F can be roundoff, of norm
1e-15 on a pair of norm 1.  numpy's eigh scales exactly with its input
only while the input's largest entry lies in 4^-202 ... 4^242
(EIGH_EXACT, measured on n = 2 ... 33); outside, LAPACK rescales the
tridiagonal form or the matrix by a factor that is not a power of two.
So the bound is compared where c max|F| lies in that window, and the
one measured case that leaves it inside |k| <= 200 is pinned on both
sides of its break (test_lower_bound_of_a_roundoff_sized_part).
"""

import functools
import math
import warnings

import numpy as np
import pytest

from pwcalc.calculus import (
    HomogeneousFunction,
    compatible_representation,
    invertible_formula,
    pw_apply_restricted,
    pw_commuting_oracle,
    special_values,
)
from pwcalc.extended import INF, evaluate_state
from pwcalc.functions import ExtendedFunction, Interval, catalog
from pwcalc.perspectives import (
    DEFAULT_EPS_SCHEDULE,
    boundedness_chain,
    connection,
    connection_generator,
    dominates_scale,
    epsilon_limit,
    is_absolutely_continuous,
    lebesgue_decomposition,
    parallel_sum,
    perspective_apply,
    perspective_of,
    t2_bound,
)
from pwcalc.suites import RandomSpec, gen_pair, random_state
from pwcalc.variational import (
    integral_eval_91,
    integral_eval_92,
    repr77_tlogt,
    repr97_t_alpha,
)

PROFILES = ("well_conditioned", "rank_deficient", "projection")
TLOGT = catalog("tlogt")
TLOGT_PHI = perspective_of(TLOGT)
# the largest entry of a matrix whose eigh scales exactly by powers of four
EIGH_EXACT = (4.0 ** -202, 4.0 ** 242)
GEOMETRIC = connection_generator("geometric")
R77 = repr77_tlogt(48)
R97 = repr97_t_alpha(1.5, 48)
# y log(x/y) on the >= cone, and x log(y/x) on the <= cone
YLOGXY_GE = HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                                variant="ge")
XLOGYX_LE = HomogeneousFunction(
    "xlogyx", ExtendedFunction(
        "diag", Interval(0.0, 1.0, True, False),
        lambda t: t * math.log((1.0 - t) / t) if t > 0 else 0.0),
    INF, 0.0, variant="le")


def _element(T, degree=1, prefix=""):
    """An element's form, infinity dimension and lower bound, the bound with
    the largest entry of its finite part, which _compare reads."""
    bound = (T.lower_bound, np.abs(T.finite_part).max(initial=0.0))
    return {prefix + "form": (degree, T.form_matrix()),
            prefix + "infinity_dim": (0, T.infinity_dim),
            prefix + "lower_bound": (degree, bound)}


def _perspective(A, B, rho, c):
    res = perspective_apply(TLOGT, A, B)
    return {**_element(res.value),
            "r_eigenvalues": (0, res.r_eigenvalues),
            "endpoint_hits": (0, res.endpoint_hits),
            "classification": (0, res.classification),
            "state": (1, evaluate_state(res.value, rho))}


def _restricted(phi, side):
    def call(A, B, rho, c):
        # the <= cone holds the dominated pair swapped
        X, Y = (A, B) if side == "ge" else (B, A)
        return _element(pw_apply_restricted(phi, X, Y, side))
    return call


def _lebesgue(A, B, rho, c):
    dec = lebesgue_decomposition(A, B)
    return {"ac": (1, dec.ac_part), "singular": (1, dec.singular_part)}


def _t2(A, B, rho, c):
    res = t2_bound(A, B)
    return {"lambda_min": (1, res.lambda_min),
            "flags": (0, (res.bounded, res.upper_certified, res.lower_fails))}


def _chain(A, B, rho, c):
    rep = boundedness_chain(2.0, A, B, trials=20)
    return {"conditions": (0, rep.conditions),
            "violated": (0, rep.violated),
            # (c) A^2 <= lam B and (d) scale as c, (e) A <= lam B^(1/2) as
            # sqrt(c)
            **{f"scale_{key}": (0.5 if key == "e" else 1, value)
               for key, value in rep.scales.items()}}


def _epsilon(A, B, rho, c):
    entries = epsilon_limit(TLOGT, A, B, [c * e for e in DEFAULT_EPS_SCHEDULE])
    return {f"entry_{i}": (1, (e, M)) for i, (e, M) in enumerate(entries)}


def _representation(A, B, rho, c):
    # T = V_k* (A+B)^(1/2) scales as sqrt(c); the basis, R and S not at all
    rep = compatible_representation(A, B)
    return {"basis": (0, rep.subspace.basis), "t_map": (0.5, rep.t_map),
            "r": (0, rep.r), "s": (0, rep.s)}


CALLS = {
    "perspective_apply": _perspective,
    "compatible_representation": _representation,
    "connection": lambda A, B, rho, c: {
        "value": (1, connection(GEOMETRIC, A, B))},
    "lebesgue_decomposition": _lebesgue,
    "is_absolutely_continuous": lambda A, B, rho, c: {
        "value": (0, is_absolutely_continuous(A, B))},
    "dominates_scale": lambda A, B, rho, c: {
        "value": (0, dominates_scale(A, B))},
    "t2_bound": _t2,
    "boundedness_chain": _chain,
    "integral_eval_91": lambda A, B, rho, c: {
        "value": (1, integral_eval_91(R77, A, B, rho))},
    "integral_eval_92": lambda A, B, rho, c: {
        "value": (1, integral_eval_92(R97, A, B, rho))},
    "parallel_sum": lambda A, B, rho, c: {
        "value": (1, parallel_sum(A, B))},
    "epsilon_limit": _epsilon,
}


# perspective_apply and pw_apply_restricted on two more profiles: commuting
# pairs, whose R can have eigenvalues at 0 and at 1, and dominated pairs,
# which lie in both cones (the <= cone swapped); a restricted call must
# raise the same PreconditionError on a pair outside its cone
MOVED_PROFILES = ("commuting_pair", "dominated_pair")
MOVED = {
    "perspective_apply": _perspective,
    "pw_apply_restricted-ge": _restricted(YLOGXY_GE, "ge"),
    "pw_apply_restricted-le": _restricted(XLOGYX_LE, "le"),
}


def _outcome(call, A, B, rho, c):
    """call's outputs on (cA, cB), or the type of its error."""
    try:
        return call(c * A, c * B, rho, c)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _bits(value, factor):
    """value times factor (each number of a nested value), as bytes, or
    the value itself where it holds no float."""
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v, factor) for v in value)
    if isinstance(value, dict):
        return {k: _bits(v, factor) for k, v in value.items()}
    if isinstance(value, (bool, str, int, np.bool_)):
        return value
    return (np.asarray(value) * factor).tobytes()


@functools.cache
def _case(profile, n, trial, calls):
    A, B = gen_pair(RandomSpec(n, n, profile, 11), trial)
    rho = random_state(np.random.default_rng((n, trial)), n)
    return A, B, rho, {name: _outcome(call, A, B, rho, 1.0)
                       for name, call in TABLES[calls].items()}


def _special_values(A, B, rho, c):
    # phi(cA, c alpha I) = c phi(A, alpha I), and the scaled pair
    # phi(c alpha cA, c beta cA) = c^2 phi(alpha A, beta A)
    sv = special_values(TLOGT_PHI, A, c * 1.0, c * 0.5)
    return {**_element(sv.with_scalar_right, prefix="right_"),
            **_element(sv.with_scalar_left, prefix="left_"),
            **_element(sv.scaled_pair, 2, "scaled_pair_")}


# the independent oracles; each must raise the same PreconditionError on a
# pair outside its domain
ORACLE_PROFILES = ("well_conditioned", "commuting_pair", "dominated_pair")
ORACLES = {
    "invertible_formula": lambda A, B, rho, c: _element(
        invertible_formula(TLOGT_PHI, A, B)),
    "pw_commuting_oracle": lambda A, B, rho, c: _element(
        pw_commuting_oracle(TLOGT_PHI, A, B)),
    "special_values": _special_values,
}
# the profiles on which each oracle's precondition holds at every n
ORACLE_DOMAINS = {
    "invertible_formula": ("well_conditioned", "dominated_pair"),
    "pw_commuting_oracle": ("commuting_pair",),
    "special_values": ORACLE_PROFILES,
}

TABLES = {"calls": CALLS, "moved": MOVED, "oracles": ORACLES}


def _rescaled_by_eigh(largest):
    """A matrix of this largest entry is rescaled inside eigh: it is nonzero
    and outside EIGH_EXACT."""
    return largest != 0 and not EIGH_EXACT[0] <= largest <= EIGH_EXACT[1]


def _compare(k, n, profiles, calls):
    """Each call of TABLES[calls] on each profile's pairs scaled by 4^k
    against the unscaled; the (profile, trial, call) whose outputs, not
    errors, were compared."""
    c = 4.0 ** k
    compared = set()
    for profile in profiles:
        for trial in range(2):
            A, B, rho, unscaled = _case(profile, n, trial, calls)
            for name, call in TABLES[calls].items():
                got, want = _outcome(call, A, B, rho, c), unscaled[name]
                label = (profile, trial, name)
                if isinstance(want, type):
                    assert got is want, label
                    continue
                assert not isinstance(got, type), (label, got)
                assert got.keys() == want.keys(), label
                for key, (degree, value) in want.items():
                    scale = 2.0 ** (2 * k * degree)
                    if key.endswith("lower_bound") and _rescaled_by_eigh(
                            scale * value[1]):
                        continue
                    assert _bits(got[key][1], 1.0) == _bits(value, scale), (
                        label, key)
                compared.add(label)
    return compared


@pytest.mark.parametrize("n", [2, 3, 6, 33, 40])
@pytest.mark.parametrize("k", [-200, -60, 7, 60, 200])
def test_outputs_scale_exactly_at_powers_of_four(k, n):
    compared = _compare(k, n, PROFILES, "calls")
    assert len(compared) == len(PROFILES) * 2 * len(CALLS)


@pytest.mark.parametrize("n", [2, 3, 6, 33, 40])
@pytest.mark.parametrize("k", [-200, -60, 7, 60, 200])
def test_kernel_calls_scale_exactly_on_more_profiles(k, n):
    # only the restricted calls on a commuting pair may raise
    compared = _compare(k, n, MOVED_PROFILES, "moved")
    assert compared >= {(profile, trial, name) for profile in MOVED_PROFILES
                        for trial in range(2) for name in MOVED
                        if profile == "dominated_pair"
                        or name == "perspective_apply"}


@pytest.mark.parametrize("n", [2, 3, 6, 33, 40])
@pytest.mark.parametrize("k", [-200, -60, 7, 60, 200])
def test_oracles_scale_exactly(k, n):
    compared = _compare(k, n, ORACLE_PROFILES, "oracles")
    assert compared >= {(profile, trial, name)
                        for name, profiles in ORACLE_DOMAINS.items()
                        for profile in profiles for trial in range(2)}


@pytest.mark.parametrize("k, exact", [(-177, True), (-178, False),
                                      (-200, False)])
def test_lower_bound_of_a_roundoff_sized_part(k, exact):
    # the perspective of this projection pair has a finite part of largest
    # entry 8.3e-16 (4^-25.05): at 4^-177 that entry is 2^-404.1 and eigh
    # scales exactly, at 4^-178 (2^-406.1) LAPACK rescales it and the bound
    # is off by roundoff, while the pair's other outputs stay exact to 4^-200
    A, B = gen_pair(RandomSpec(2, 2, "projection", 11), 1)
    T = perspective_apply(TLOGT, A, B).value
    assert 8.2e-16 < np.abs(T.finite_part).max() < 8.3e-16
    c = 4.0 ** k
    got, want = perspective_apply(TLOGT, c * A, c * B).value, c * T.lower_bound
    assert got.form_matrix().tobytes() == (c * T.form_matrix()).tobytes()
    assert (got.lower_bound == want) is exact
    assert abs(got.lower_bound - want) <= 4 * np.finfo(float).eps * abs(want)


@pytest.mark.parametrize("k", [-260, -256, -250, 250, 255, 256, 260])
@pytest.mark.parametrize("profile", ["well_conditioned", "rank_deficient"])
def test_t2_and_chain_decide_as_unscaled_beyond_the_exact_domain(profile, k):
    # Past LAPACK's own rescaling an output need not scale to the last bit,
    # but each decision must be the unscaled pair's, and nothing may warn.
    # Formed as given, A^2 overflowed from 4^256 on (svd did not converge),
    # and at 4^-260 the chain's power of A was subnormal.
    c = 4.0 ** k
    for n in (2, 3, 4):
        A, B = gen_pair(RandomSpec(n, n, profile, 11), 0)
        t2, chain = t2_bound(A, B), boundedness_chain(2.0, A, B, trials=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_t2 = t2_bound(c * A, c * B)
            got_chain = boundedness_chain(2.0, c * A, c * B, trials=20)
        assert (got_t2.bounded, got_t2.upper_certified, got_t2.lower_fails) \
            == (t2.bounded, t2.upper_certified, t2.lower_fails), n
        assert math.isclose(got_t2.lambda_min, c * t2.lambda_min,
                            rel_tol=1e-12), n
        assert got_chain.conditions == chain.conditions, n
        assert got_chain.violated == chain.violated, n
        for key, value in chain.scales.items():
            scale = math.sqrt(c) if key == "e" else c
            assert math.isclose(got_chain.scales[key], scale * value,
                                rel_tol=1e-12), (n, key)
