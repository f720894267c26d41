import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pwcalc.calculus import (
    ENDPOINT_TOL,
    HomogeneousFunction,
    PreconditionError,
    check_homogeneity,
    compatible_representation,
    invertible_formula,
    pw_apply_restricted,
    pw_commuting_oracle,
    special_values,
)
from pwcalc.extended import (
    INF,
    evaluate_state,
    form_leq,
    make_extended,
    quadratic_form,
)
from pwcalc.functions import (
    IntegralRepr77,
    IntegralRepr97,
    Measure,
    catalog,
    transpose,
)
from pwcalc.linalg import (
    NonFiniteError,
    NotHermitianError,
    NotPsdError,
    eigh,
    hermitian_part,
    vector_state,
)
from pwcalc.perspectives import (
    DEFAULT_EPS_SCHEDULE,
    _t2_form_holds,
    boundedness_chain,
    check_ah_inequality,
    check_positive_map_monotonicity,
    connection,
    connection_generator,
    connection_phi,
    dominates_scale,
    epsilon_diverges,
    epsilon_limit,
    epsilon_monotone,
    essential_part,
    is_absolutely_continuous,
    kraus_apply,
    kraus_predual,
    lebesgue_decomposition,
    matrix_power_psd,
    max_f_divergence,
    parallel_sum,
    perspective_apply,
    perspective_of,
    t2_bound,
)
from pwcalc.suites import (
    RandomSpec,
    gen_pair,
    haar_unitary,
    random_psd,
    random_state,
)
from pwcalc.variational import (
    integral_eval_91,
    integral_eval_92,
    repr77_square_minus,
    repr77_tlogt,
    repr97_t_alpha,
    two_projections,
    variational_envelope,
)

import reference

A712 = np.array([[1.0, 1.0], [1.0, 1.0]])
B712 = np.diag([1.0, 2.0])
P87 = np.diag([1.0, 0.0])
Q87 = 0.5 * np.ones((2, 2))
BIG_DIAG = np.diag([1e308, 1.0])  # finite, but BIG_DIAG @ BIG_DIAG overflows


R77_TLOGT = repr77_tlogt(48)
# both infinite flags: +inf on the singular part of either side
R77_BOTH = replace(R77_TLOGT, mu=replace(R77_TLOGT.mu, infinite_inv_mass=True))
R97_T15 = repr97_t_alpha(1.5, 48)
YLOGXY_GE = HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                                variant="ge")


CONNECTION = lambda A, B, rho: connection(connection_generator("geometric"),
                                          A, B)
LEBESGUE = lambda A, B, rho: lebesgue_decomposition(A, B)
ABS_CONT = lambda A, B, rho: is_absolutely_continuous(A, B)
DOMINATES = lambda A, B, rho: dominates_scale(A, B)
T2 = lambda A, B, rho: t2_bound(A, B)
CHAIN = lambda A, B, rho: boundedness_chain(2.0, A, B)


# Each pin counts a fresh pair: every test starts with an empty pair memo
# (tests/conftest.py), and a repeat of the last pair that passed makes
# none of the pair kernel's eigh (test_calculus.py::TestPairMemo).
# The pair calls check A and B and decompose A + B with one eigh of the
# stack (A, B, A + B), then make one of R, on every profile.  From
# n = DEFINITE_MIN_N on, a definite A + B is reduced by Cholesky instead,
# so the kernel makes one eigh, of L^-1 A L^-*, and a certified pair no
# other; a semidefinite A + B takes the stacked eigh and R's.  The
# integrals read the checks of rho, A and B and the spectrum of A + B from
# one eigh of their 4-stack, then decompose R.  perspective_apply and
# pw_apply_restricted read the pair kernel too, so 2, or 1 on a certified
# definite pair; an element's lower bound costs an eigh only when it is
# read.  pw_apply_restricted checks its cone on the kernel's t.  dominates_scale reads the pair kernel alone; t2_bound adds, on a bounded pair, one eigh
# for its norm and two for its form certificates, and two svd for the
# spectral norms of B and A^2 in its form test.  The chain validates A and
# B with one eigh of their stack, which also gives A's power and both of
# B's, then adds t2_bound's kernel and its three eigh and two svd, a
# perspective, and the kernel of each powered pair, which trusts them,
# with two spectral norms (svd) for each powered pair's scale, so both
# profiles make the same count.  The rank-deficient
# pair is bounded in this order (range A in range B) and unbounded swapped.
# A perspective with an infinity part adds one svd, for the kernel of its
# +inf rows.  np.linalg.norm(M, 2) runs the svd of numpy.linalg._linalg,
# so both bindings are counted.  The calls that validate a pair and then
# read it (invertible_formula, the commuting-pair oracle, parallel_sum,
# epsilon_limit and the variational calls) check A and B with one eigh of
# their stack; the oracle's, parallel_sum's and epsilon_limit's stack holds
# A + B too, whose rank cut gives the oracle's kernel floor and parallel_sum
# its pseudo-inverse, and whose eigenpairs, shifted by 2 eps, give
# epsilon_limit the sum at each eps.  invertible_formula reads its
# invertibility test and both roots off B's eigenpairs in it, or A's when B
# is singular (A is singular in the rank-deficient pair, B is not), then
# decomposes the sandwiched matrix.  compatible_representation reads the
# range and root of A + B off its stack (A, B, A + B) on every profile, and
# rebuilds R from one eigh of its own.  special_values and matrix_power_psd
# read everything off the PSD check of A.  The commuting-pair oracle adds
# B over each of A's four eigenspaces, and one spectral norm (svd), of the
# commutator, for its commutator test; the norms of A and B are read off
# its stack.
# variational_envelope takes one pseudo-inverse per atom, one atom at each
# of its two n, and epsilon_limit one of R at each of its eight eps.
# two_projections reads the ranges of P and Q off one eigh of their stack;
# its idempotency tests take two spectral norms (svd), and its meet of the
# ranges an svd, as does each meet inside its form sums.
# A pair rejected as not PSD is decomposed no further: on (A, -B) the one
# eigh of connection's stack, as of the integral's, raises B's error.
# An infinity part made on a subspace
# (special_values' infinite scalar, two_projections' infinite coefficient)
# takes its complement from one svd.  The singular rows give the integrals a t^2 term whose
# state has mass on the singular part: the +inf is decided from the
# state's spectrum before that term's perspective would be made.
PAIR64 = gen_pair(RandomSpec(64, 64, "rank_deficient", seed=5), 0)
DEFINITE64 = gen_pair(RandomSpec(64, 64, "well_conditioned", seed=5), 0)
# A and B of rank 21 each: A + B has rank 42 of 64
SEMIDEFINITE64 = tuple(random_psd(np.random.default_rng((64, k)), 64, rank=21)
                       for k in range(2))


def _rejects_minus_b(call):
    """call on (A, -B), which must raise B's NotPsdError."""
    def run(A, B, rho):
        with pytest.raises(NotPsdError, match="^B is not PSD"):
            call(A, -B, rho)
    return run


EYE2, P1 = np.eye(2), np.diag([1.0, 0.0])
# a commuting pair whose A has four distinct eigenvalues
DIAG_A, DIAG_B = np.diag([1.0, 2.0, 0.0, 3.0]), np.diag([0.5, 0.0, 1.0, 2.0])
R77_SQUARE_TLOGT = IntegralRepr77(0.0, 1.0, 1.0, 0.0, repr77_tlogt(32).mu)
R97_SQUARE_T15 = IntegralRepr97(0.0, 0.0, 1.0, repr97_t_alpha(1.5, 32).nu)


@pytest.mark.parametrize("call, profile, eigh_calls, svd_calls", [
    (CONNECTION, "rank_deficient", 2, 0),
    (LEBESGUE, "rank_deficient", 2, 0),
    (ABS_CONT, "rank_deficient", 2, 0),
    (lambda A, B, rho: integral_eval_91(R77_TLOGT, A, B, rho),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: integral_eval_92(R97_T15, A, B, rho),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: integral_eval_91(R77_SQUARE_TLOGT, EYE2, P1, EYE2 / 2),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: integral_eval_92(R97_SQUARE_T15, EYE2, P1, EYE2 / 2),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: perspective_apply(catalog("tlogt"), A, B),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: perspective_apply(catalog("tlogt"), B, A),
     "rank_deficient", 2, 1),
    (lambda A, B, rho: perspective_apply(catalog("tlogt"), *PAIR64),
     "rank_deficient", 2, 1),
    (lambda A, B, rho: perspective_apply(catalog("tlogt"), *DEFINITE64),
     "rank_deficient", 1, 0),
    (lambda A, B, rho: pw_apply_restricted(YLOGXY_GE, A + B, B),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: pw_apply_restricted(YLOGXY_GE, PAIR64[0] + PAIR64[1],
                                           PAIR64[1]),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: pw_apply_restricted(
        YLOGXY_GE, DEFINITE64[0] + DEFINITE64[1], DEFINITE64[1]),
     "rank_deficient", 1, 0),
    (DOMINATES, "rank_deficient", 2, 0),
    (T2, "rank_deficient", 5, 2),
    (lambda A, B, rho: t2_bound(B, A), "rank_deficient", 2, 0),
    (CHAIN, "rank_deficient", 10, 6),
    (CONNECTION, "well_conditioned", 2, 0),
    (LEBESGUE, "well_conditioned", 2, 0),
    (ABS_CONT, "well_conditioned", 2, 0),
    (DOMINATES, "well_conditioned", 2, 0),
    (T2, "well_conditioned", 5, 2),
    (CHAIN, "well_conditioned", 10, 6),
    (lambda A, B, rho: invertible_formula(TLOGT_PHI, A, B),
     "rank_deficient", 2, 0),
    (lambda A, B, rho: invertible_formula(TLOGT_PHI, B, A),
     "rank_deficient", 2, 1),
    (lambda A, B, rho: special_values(TLOGT_PHI, A, 1.0, 0.0),
     "rank_deficient", 1, 1),
    (lambda A, B, rho: special_values(TLOGT_PHI, A, 1.0, 1.0),
     "rank_deficient", 1, 0),
    (lambda A, B, rho: matrix_power_psd(A, 0.5), "rank_deficient", 1, 0),
    (lambda A, B, rho: pw_commuting_oracle(TLOGT_PHI, DIAG_A, DIAG_B),
     "rank_deficient", 5, 1),
    (lambda A, B, rho: variational_envelope(repr77_square_minus(), A, B,
                                            np.ones(4), (1, 2)),
     "rank_deficient", 3, 0),
    (lambda A, B, rho: parallel_sum(A, B), "rank_deficient", 1, 0),
    (lambda A, B, rho: epsilon_limit(catalog("tlogt"), A, B),
     "rank_deficient", 9, 0),
    (_rejects_minus_b(CONNECTION), "rank_deficient", 1, 0),
    (_rejects_minus_b(
        lambda A, B, rho: integral_eval_91(R77_TLOGT, A, B, rho)),
     "rank_deficient", 1, 0),
    (lambda A, B, rho: two_projections(catalog("power", 2), P87, Q87),
     "projection", 2, 6),
    (lambda A, B, rho: CONNECTION(*DEFINITE64, rho), "rank_deficient", 1, 0),
    (lambda A, B, rho: CONNECTION(*SEMIDEFINITE64, rho), "rank_deficient",
     2, 0),
    (lambda A, B, rho: LEBESGUE(*DEFINITE64, rho), "rank_deficient", 1, 0),
    (lambda A, B, rho: LEBESGUE(*SEMIDEFINITE64, rho), "rank_deficient",
     2, 0),
    (lambda A, B, rho: compatible_representation(A, B), "rank_deficient",
     2, 0),
    (lambda A, B, rho: compatible_representation(A, B), "well_conditioned",
     2, 0),
], ids=["connection", "lebesgue_decomposition", "is_absolutely_continuous",
        "integral_eval_91", "integral_eval_92", "integral_eval_91-singular",
        "integral_eval_92-singular", "perspective_apply",
        "perspective_apply-unbounded", "perspective_apply-n64",
        "perspective_apply-n64_definite", "pw_apply_restricted",
        "pw_apply_restricted-n64", "pw_apply_restricted-n64_definite",
        "dominates_scale",
        "t2_bound", "t2_bound-unbounded", "boundedness_chain",
        "connection-well_conditioned",
        "lebesgue_decomposition-well_conditioned",
        "is_absolutely_continuous-well_conditioned",
        "dominates_scale-well_conditioned", "t2_bound-well_conditioned",
        "boundedness_chain-well_conditioned", "invertible_formula",
        "invertible_formula-singular_B", "special_values-infinite_scalar",
        "special_values-finite_scalar", "matrix_power_psd",
        "pw_commuting_oracle", "variational_envelope", "parallel_sum",
        "epsilon_limit", "connection-B_not_psd", "integral_eval_91-B_not_psd",
        "two_projections", "connection-n64", "connection-n64_semidefinite",
        "lebesgue_decomposition-n64",
        "lebesgue_decomposition-n64_semidefinite", "compatible_representation",
        "compatible_representation-well_conditioned"])
def test_eigh_calls_per_call(call, profile, eigh_calls, svd_calls,
                             monkeypatch):
    A, B = gen_pair(RandomSpec(4, 4, profile, seed=5), 0)
    rho = random_state(np.random.default_rng(5), 4)
    calls = {"eigh": 0, "svd": 0}

    def counted(name):
        solver = getattr(np.linalg, name)

        def run(*a, **k):
            calls[name] += 1
            return solver(*a, **k)
        return run

    # np.linalg.norm(M, 2) calls the svd of numpy.linalg._linalg directly
    for name in calls:
        run = counted(name)
        for module in (np.linalg, sys.modules["numpy.linalg._linalg"]):
            monkeypatch.setattr(module, name, run)
    call(A, B, rho)
    assert calls == {"eigh": eigh_calls, "svd": svd_calls}


TLOGT_PHI = perspective_of(catalog("tlogt"))


PAIR_MISMATCH = r"^dimension mismatch: \(2, 2\) vs \(3, 3\)$"
SCHEDULE = r"^schedule must be finite, strictly decreasing and positive$"
SCALARS = r"^scalars must be finite and nonnegative$"


# each call gets I_2 and I_3; the C and Kraus rows make a matched pair of
# I_2 with an operator of I_3's size, and the rows after them pass an empty
# or non-finite argument, which is rejected first
@pytest.mark.parametrize("call, message", [
    (lambda A, B: epsilon_limit(catalog("tlogt"), A, B), PAIR_MISMATCH),
    (lambda A, B: invertible_formula(TLOGT_PHI, A, B), PAIR_MISMATCH),
    (lambda A, B: pw_commuting_oracle(TLOGT_PHI, A, B), PAIR_MISMATCH),
    (lambda A, B: t2_bound(A, B), PAIR_MISMATCH),
    (lambda A, B: dominates_scale(A, B), PAIR_MISMATCH),
    (lambda A, B: boundedness_chain(2.0, A, B), PAIR_MISMATCH),
    (lambda A, B: check_homogeneity(TLOGT_PHI, A, B, np.eye(2)),
     PAIR_MISMATCH),
    (lambda A, B: parallel_sum(A, B), PAIR_MISMATCH),
    (lambda A, B: check_positive_map_monotonicity(
        catalog("tlogt"), [np.eye(2)], A, B), PAIR_MISMATCH),
    (lambda A, B: two_projections(catalog("power", 2), P87, np.diag(
        [1.0, 0.0, 0.0])), PAIR_MISMATCH),
    (lambda A, B: check_homogeneity(TLOGT_PHI, A, A, B),
     r"^dimension mismatch: C is \(3, 3\), pair is \(2, 2\)$"),
    (lambda A, B: check_positive_map_monotonicity(
        catalog("tlogt"), [B], A, A),
     r"^dimension mismatch: Kraus operator 0 is \(3, 3\), pair is "
     r"\(2, 2\)$"),
    (lambda A, B: check_positive_map_monotonicity(
        catalog("tlogt"), [A, np.ones((3, 2))], A, A),
     r"^dimension mismatch: Kraus operator 1 is \(3, 2\), pair is "
     r"\(2, 2\)$"),
    (lambda A, B: check_positive_map_monotonicity(catalog("tlogt"), [], A, A),
     r"^kraus must hold at least one operator$"),
    (lambda A, B: kraus_apply([], A), r"^kraus must hold at least one operator$"),
    (lambda A, B: kraus_predual([], A),
     r"^kraus must hold at least one operator$"),
    (lambda A, B: epsilon_diverges([], A), r"^entries must not be empty$"),
    (lambda A, B: epsilon_monotone([(0.1, A)], B),
     r"^dimension mismatch: state is 3-dim, entry is 2-dim$"),
    (lambda A, B: epsilon_diverges([(0.1, A)], B),
     r"^dimension mismatch: state is 3-dim, entry is 2-dim$"),
    (lambda A, B: epsilon_limit(catalog("tlogt"), A, B, [math.nan]),
     SCHEDULE),
    (lambda A, B: epsilon_limit(catalog("tlogt"), A, B, [math.inf]),
     SCHEDULE),
    (lambda A, B: epsilon_limit(catalog("tlogt"), A, B, [0.1, math.nan]),
     SCHEDULE),
    (lambda A, B: special_values(TLOGT_PHI, A, math.nan, 1.0), SCALARS),
    (lambda A, B: special_values(TLOGT_PHI, A, 1.0, math.nan), SCALARS),
    (lambda A, B: special_values(TLOGT_PHI, A, math.inf, 1.0), SCALARS),
    (lambda A, B: special_values(TLOGT_PHI, A, 1.0, math.inf), SCALARS),
    (lambda A, B: quadratic_form(make_extended(zip((1.0, INF), A)),
                                 [math.nan, 0.0]),
     r"^vector has a non-finite \(NaN or inf\) entry$"),
    (lambda A, B: Measure([math.inf], [1.0]),
     r"^atom locations must be finite and strictly positive$"),
    (lambda A, B: Measure([1.0], [math.inf]),
     r"^atom weights must be finite and nonnegative$"),
    (lambda A, B: IntegralRepr77(math.inf, 0.0, 0.0, 0.0, Measure.zero()),
     r"^coefficient a must be finite, got inf$"),
    (lambda A, B: IntegralRepr77(0.0, math.nan, 0.0, 0.0, Measure.zero()),
     r"^coefficient b must be finite, got nan$"),
    (lambda A, B: IntegralRepr77(0.0, 0.0, math.nan, 0.0, Measure.zero()),
     r"^coefficient c must be finite, got nan$"),
    (lambda A, B: IntegralRepr77(0.0, 0.0, 0.0, math.inf, Measure.zero()),
     r"^coefficient d must be finite, got inf$"),
    (lambda A, B: IntegralRepr97(math.nan, 0.0, 0.0, Measure.zero()),
     r"^coefficient f0 must be finite, got nan$"),
    (lambda A, B: IntegralRepr97(0.0, -math.inf, 0.0, Measure.zero()),
     r"^coefficient fp0 must be finite, got -inf$"),
    (lambda A, B: IntegralRepr97(0.0, 0.0, math.inf, Measure.zero()),
     r"^coefficient c must be finite, got inf$"),
], ids=["epsilon_limit", "invertible_formula", "pw_commuting_oracle",
        "t2_bound", "dominates_scale", "boundedness_chain",
        "check_homogeneity", "parallel_sum", "check_positive_map_monotonicity",
        "two_projections", "check_homogeneity-C", "check_positive_map_monotonicity-kraus",
        "check_positive_map_monotonicity-kraus_rows",
        "check_positive_map_monotonicity-no_kraus",
        "kraus_apply-no_kraus", "kraus_predual-no_kraus",
        "epsilon_diverges-no_entries", "epsilon_monotone-state_size",
        "epsilon_diverges-state_size", "epsilon_limit-nan",
        "epsilon_limit-inf", "epsilon_limit-trailing_nan",
        "special_values-nan_alpha", "special_values-nan_beta",
        "special_values-inf_alpha", "special_values-inf_beta",
        "quadratic_form-nan", "Measure-inf_location", "Measure-inf_weight",
        "IntegralRepr77-inf_a", "IntegralRepr77-nan_b", "IntegralRepr77-nan_c",
        "IntegralRepr77-inf_d", "IntegralRepr97-nan_f0",
        "IntegralRepr97-inf_fp0", "IntegralRepr97-inf_c"])
def test_mismatched_pair_is_rejected_before_any_eigh(call, message,
                                                     monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    with pytest.raises(ValueError, match=message):
        call(np.eye(2), np.eye(3))
    assert calls == []


class TestPerspectiveOf:
    def test_square_diagonal(self):
        phi = perspective_of(catalog("power", 2))
        for t in (0.2, 0.5, 0.9):
            assert abs(phi.diagonal(t) - t * t / (1 - t)) < 1e-14
        assert phi.corner_x == INF and phi.corner_y == 0.0

    def test_tlogt_diagonal(self):
        phi = perspective_of(catalog("tlogt"))
        for t in (0.2, 0.5, 0.9):
            assert abs(phi.diagonal(t) - t * math.log(t / (1 - t))) < 1e-14
        assert phi.corner_x == INF and phi.corner_y == 0.0

    def test_neglog_diagonal(self):
        phi = perspective_of(catalog("neglog"))
        for t in (0.2, 0.5, 0.9):
            assert abs(phi.diagonal(t) + (1 - t) * math.log(t / (1 - t))) < 1e-14
        assert phi.corner_x == 0.0 and phi.corner_y == INF

    def test_requires_convex_tag(self):
        from pwcalc.suites import t_cubed
        with pytest.raises(ValueError, match="operator convex"):
            perspective_of(t_cubed())
        perspective_of(t_cubed(), assert_convex=True)  # explicit override

    def test_same_function_gives_same_object(self):
        f = catalog("tlogt")
        assert perspective_of(f) is perspective_of(f)
        h = connection_generator("geometric")
        assert connection_phi(h) is connection_phi(h)

    def test_untagged_function_raises_on_every_call(self):
        from pwcalc.suites import t_cubed
        f = t_cubed()
        for _ in range(2):
            with pytest.raises(ValueError, match="operator convex"):
                perspective_of(f)
        h = replace(connection_generator("geometric"), tags=frozenset())
        for _ in range(2):
            with pytest.raises(ValueError, match="operator monotone"):
                connection_phi(h)

    def test_flags_are_cached_apart(self):
        from pwcalc.suites import t_cubed
        f = t_cubed()
        asserted = perspective_of(f, assert_convex=True)
        with pytest.raises(ValueError, match="operator convex"):
            perspective_of(f)
        assert perspective_of(f, assert_convex=True) is asserted
        h = replace(connection_generator("geometric"), tags=frozenset())
        assert connection_phi(h, assert_monotone=True) is connection_phi(
            h, assert_monotone=True)
        with pytest.raises(ValueError, match="operator monotone"):
            connection_phi(h)


class TestPerspectiveApply:
    def test_example_pair(self):
        res = perspective_apply(catalog("power", 2), A712, B712)
        assert res.bounded
        assert np.abs(res.value.form_matrix() - 1.5 * A712).max() < 1e-9
        assert abs(res.value.operator_norm() - 3.0) < 1e-9

    def test_equal_arguments_give_f1_times_a(self):
        rng = np.random.default_rng(3)
        A = random_psd(rng, 3)
        for name, par in (("power", 2), ("tlogt", None)):
            f = catalog(name, par) if par else catalog(name)
            res = perspective_apply(f, A, A)
            assert np.abs(res.value.form_matrix() - f.f_at_1 * A).max() < 1e-9

    def test_commuting_diagonal(self):
        res = perspective_apply(catalog("power", 2), np.diag([1.0, 2.0]),
                                np.diag([1.0, 2.0]))
        assert np.abs(res.value.form_matrix() - np.diag([1.0, 2.0])).max() < 1e-10
        assert abs(res.value.operator_norm() - 2.0) < 1e-10

    def test_diagnostics(self):
        res = perspective_apply(catalog("power", 2), P87, Q87)
        assert res.classification == "proper_infinity_part"
        assert res.endpoint_hits[1] == 1  # one eigenvalue of R at 1

    def test_transpose_symmetry(self):
        # phi_{f~}(A,B) = phi_f(B,A) as forms
        spec = RandomSpec(4, 4, "rank_deficient", seed=70)
        f = catalog("power", 2)
        ft = transpose(f)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            lhs = perspective_apply(ft, A, B).value
            rhs = perspective_apply(f, B, A).value
            assert lhs.infinity_dim == rhs.infinity_dim
            rng = np.random.default_rng((71, trial))
            for _ in range(5):
                xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                q1, q2 = quadratic_form(lhs, xi), quadratic_form(rhs, xi)
                assert math.isinf(q1) == math.isinf(q2)
                if math.isfinite(q1):
                    assert abs(q1 - q2) < 1e-9 * (1 + abs(q1) + abs(q2))


# three profiles, trials 0-7 each, of order 3 to 5
SCALE_PAIRS = [gen_pair(RandomSpec(3 + trial % 3, 3 + trial % 3, profile, 17),
                        trial)
               for profile in ("well_conditioned", "rank_deficient",
                               "projection")
               for trial in range(8)]
UNRESOLVED = r"^eps = \S+ is not resolved by the spectrum of A \+ B$"


class TestEpsilonLimit:
    def test_monotone_for_centered_f(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=9)
        f = catalog("tlogt")
        for trial in range(5):
            A, B = gen_pair(spec, trial)
            entries = epsilon_limit(f, A, B)
            rho = random_state(np.random.default_rng((10, trial)), 4)
            assert epsilon_monotone(entries, rho, slack=1e-10)

    def test_bounded_case_converges(self):
        entries = epsilon_limit(catalog("power", 2), A712, B712)
        assert np.abs(entries[-1][1] - 1.5 * A712).max() < 1e-6

    def test_divergence_detection(self):
        entries = epsilon_limit(catalog("power", 2), P87, Q87)
        rho = vector_state(np.array([1.0, 0.0]))  # loads the singular direction
        assert epsilon_diverges(entries, rho, threshold=1e6)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            epsilon_limit(catalog("power", 2), A712, B712, schedule=(1e-2, 1e-1))

    @pytest.mark.parametrize("c", [1e-150, 1e-9, 1e9, 1e150])
    @pytest.mark.parametrize("name", ["tlogt", "neglog"])
    def test_joint_scaling(self, name, c):
        # P_f(cA + c eps, cB + c eps) = c P_f(A + eps, B + eps), to an
        # error absolute in the pair's scale
        f = catalog(name)
        for A, B in SCALE_PAIRS:
            scaled = epsilon_limit(f, c * A, c * B,
                                   [c * e for e in DEFAULT_EPS_SCHEDULE])
            tol = 1e-6 * (np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
            for (_, got), (_, want) in zip(scaled, epsilon_limit(f, A, B)):
                assert np.abs(got / c - want).max() <= tol

    @pytest.mark.parametrize("c", [1e9, 1e150])
    @pytest.mark.parametrize("name", ["tlogt", "neglog"])
    def test_default_schedule_at_scale(self, name, c):
        # an absolute eps may sink below the roundoff of c (A + B): each
        # call gives finite entries or refuses the eps by name, and warns
        # nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A, B in SCALE_PAIRS:
                try:
                    entries = epsilon_limit(catalog(name), c * A, c * B)
                except PreconditionError as exc:
                    assert re.match(UNRESOLVED, str(exc)), exc
                else:
                    assert all(np.isfinite(M).all() for _, M in entries)

    def test_unresolved_eps_is_named(self):
        A, B = gen_pair(RandomSpec(2, 6, "rank_deficient", 11), 6)
        with pytest.raises(PreconditionError, match=UNRESOLVED):
            epsilon_limit(catalog("neglog"), 1e9 * A, 1e9 * B)

    def test_overflowing_shift_is_refused(self):
        # A + B is finite, A + B + 2 eps I is not, and no overflow warns
        M = np.diag([5e307, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=UNRESOLVED):
                epsilon_limit(catalog("tlogt"), M, M, [5e307])


class TestConnection:
    def test_geometric_mean_commuting(self):
        out = connection(connection_generator("geometric"), np.diag([1.0, 4.0]),
                         np.eye(2))
        assert np.abs(out - np.diag([1.0, 2.0])).max() < 1e-10

    def test_parallel_generator_matches_parallel_sum(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=72)
        h = connection_generator("parallel")
        for trial in range(15):
            A, B = gen_pair(spec, trial)
            assert np.abs(connection(h, A, B) - parallel_sum(A, B)).max() < 1e-9

    def test_transformer_inequality(self):
        # C (A sigma B) C <= (CAC) sigma (CBC) for PSD C
        spec = RandomSpec(4, 4, "well_conditioned", seed=73)
        h = connection_generator("geometric")
        for trial in range(50):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((74, trial))
            C = random_psd(rng, 4, lo=0.2, hi=1.5)
            lhs = hermitian_part(C @ connection(h, A, B) @ C)
            rhs = connection(h, hermitian_part(C @ A @ C),
                             hermitian_part(C @ B @ C))
            w = np.linalg.eigvalsh(rhs - lhs)
            assert w.min() > -1e-8 * (1 + np.abs(rhs).max())

    def test_always_bounded(self):
        # connections stay bounded even on singular pairs
        out = connection(connection_generator("geometric"), P87, Q87)
        assert np.isfinite(out).all()

    def test_infinite_diagonal_is_a_metadata_error(self):
        # finite boundary data, but +inf around 1: the diagonal is +inf at
        # t = 1/2, the only eigenvalue of R for A = B
        h = replace(connection_generator("geometric"),
                    fn=lambda x: INF if abs(x - 1.0) < 1e-6 else math.sqrt(x))
        with pytest.raises(AssertionError, match="unbounded"):
            connection(h, np.eye(2), np.eye(2), assert_monotone=True)


class TestParallelSum:
    def test_diagonal_formula(self):
        a = np.array([1.0, 2.0, 0.0])
        b = np.array([2.0, 2.0, 0.0])
        expected = np.where(a + b > 0, a * b / np.where(a + b > 0, a + b, 1), 0.0)
        out = parallel_sum(np.diag(a), np.diag(b))
        assert np.abs(out - np.diag(expected)).max() < 1e-12

    def test_projections_scaled(self):
        # P : nQ = (n/(1+n)) (P ^ Q) for projections
        P = np.diag([1.0, 1.0, 0.0])
        Q = np.diag([0.0, 1.0, 1.0])
        meet = np.diag([0.0, 1.0, 0.0])
        for n in (1.0, 10.0, 1000.0):
            out = parallel_sum(P, n * Q)
            assert np.abs(out - n / (1 + n) * meet).max() < 1e-10

    def test_rotated_projections_scaled(self):
        rng = np.random.default_rng(42)
        U = haar_unitary(rng, 3)
        P = hermitian_part(U @ np.diag([1.0, 1.0, 0.0]) @ U.conj().T)
        Q = hermitian_part(U @ np.diag([0.0, 1.0, 1.0]) @ U.conj().T)
        meet = hermitian_part(U @ np.diag([0.0, 1.0, 0.0]) @ U.conj().T)
        for n in (1.0, 10.0, 1000.0):
            out = parallel_sum(P, n * Q)
            assert np.abs(out - n / (1 + n) * meet).max() < 1e-9

    def test_closed_form_2x2(self):
        # (A + nB)^{-1} = (1/n) [[1, -1], [-1, 1+n]] makes A : nB vanish
        A = np.ones((2, 2))
        B = np.diag([1.0, 0.0])
        for n in (1.0, 7.0, 100.0):
            inv = np.array([[1.0, -1.0], [-1.0, 1.0 + n]]) / n
            assert np.abs(np.linalg.inv(A + n * B) - inv).max() < 1e-9
            assert np.abs(parallel_sum(A, n * B)).max() < 1e-10

    def test_symmetry(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=75)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            assert np.abs(parallel_sum(A, B) - parallel_sum(B, A)).max() < 1e-10


class TestLebesgue:
    def test_invertible_b_gives_zero_singular(self):
        rng = np.random.default_rng(11)
        A = random_psd(rng, 3)
        B = random_psd(rng, 3) + 0.3 * np.eye(3)
        dec = lebesgue_decomposition(A, B)
        assert np.abs(dec.singular_part).max() < 1e-10
        assert is_absolutely_continuous(A, B)

    def test_fully_singular_example(self):
        A = np.ones((2, 2))
        B = np.diag([1.0, 0.0])
        dec = lebesgue_decomposition(A, B)
        assert np.abs(dec.ac_part).max() < 1e-10
        assert np.abs(dec.singular_part - A).max() < 1e-10
        assert not is_absolutely_continuous(A, B)

    def test_projection_pair(self):
        # singular part of P wrt Q is P - P ^ Q
        P = np.diag([1.0, 1.0, 0.0])
        Q = np.diag([0.0, 1.0, 1.0])
        dec = lebesgue_decomposition(P, Q)
        assert np.abs(dec.singular_part - np.diag([1.0, 0.0, 0.0])).max() < 1e-10

    def test_limit_cross_check(self):
        spec = RandomSpec(3, 5, "rank_deficient", seed=76)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            dec = lebesgue_decomposition(A, B)
            limit = parallel_sum(A, 1e8 * B)
            assert np.abs(dec.ac_part - limit).max() < 1e-5 * (
                1 + np.linalg.norm(A, 2))
            assert dec.ac_part.shape == A.shape
            assert np.abs(dec.ac_part + dec.singular_part - A).max() < 1e-9

    def test_b_zero(self):
        A = np.diag([1.0, 0.0])
        assert not is_absolutely_continuous(A, np.zeros((2, 2)))
        assert is_absolutely_continuous(np.zeros((2, 2)), A)

    def test_singular_part_is_b_singular(self):
        # mutual singularity criterion: (A - [B]A) : B = 0
        spec = RandomSpec(3, 5, "rank_deficient", seed=79)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            dec = lebesgue_decomposition(A, B)
            scale = 1 + np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
            assert np.abs(parallel_sum(dec.singular_part, B)).max() <= 1e-7 * scale


class TestDivergence:
    def test_state_with_itself(self):
        rho = np.diag([0.3, 0.7])
        assert abs(max_f_divergence(catalog("tlogt"), rho, rho)) < 1e-12

    def test_commuting_scalar_sum(self):
        # oracle: sum_i b_i f(a_i / b_i) for commuting pairs
        val = max_f_divergence(catalog("tlogt"), np.diag([0.5, 0.5]),
                               np.diag([0.25, 0.75]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(val - expected) < 1e-12

    def test_singular_is_infinite(self):
        assert max_f_divergence(catalog("power", 2), P87, Q87) == INF

    def test_trace_cross_check_invertible(self):
        # Tr phi_f(A,B) = Tr B f(B^{-1/2} A B^{-1/2})
        spec = RandomSpec(4, 4, "well_conditioned", seed=77)
        for name, par in (("power", 2), ("tlogt", None)):
            f = catalog(name, par) if par else catalog(name)
            for trial in range(10):
                A, B = gen_pair(spec, trial)
                w, V = np.linalg.eigh(B)
                invh = (V / np.sqrt(w)) @ V.conj().T
                W = hermitian_part(invh @ A @ invh)
                wv, Q = np.linalg.eigh(W)
                fw = (Q * np.array([f(max(t, 1e-300)) for t in wv])) @ Q.conj().T
                expected = float(np.trace(B @ fw).real)
                assert abs(max_f_divergence(f, A, B) - expected) < 1e-9 * (
                    1 + abs(expected))


class TestEssentialPart:
    def test_example_87(self):
        sub = essential_part(catalog("power", 2), P87, Q87)
        assert sub.dim == 1
        assert abs(abs(sub.basis[1, 0]) - 1.0) < 1e-10

    def test_invertible_b_full(self):
        rng = np.random.default_rng(13)
        A = random_psd(rng, 3)
        B = random_psd(rng, 3) + 0.2 * np.eye(3)
        assert essential_part(catalog("power", 2), A, B).dim == 3

    def test_finite_boundary_always_full(self):
        # alpha, beta finite means the perspective is everywhere bounded
        spec = RandomSpec(3, 4, "rank_deficient", seed=78)
        g = catalog("glambda", 1.0)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            assert essential_part(g, A, B).dim == A.shape[0]


class TestT2Bound:
    def test_commuting(self):
        res = t2_bound(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
        assert res.bounded
        assert abs(res.lambda_min - 2.0) < 1e-10  # max a_i^2 / b_i
        assert res.upper_certified and res.lower_fails

    def test_kernel_violation(self):
        res = t2_bound(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not res.bounded
        assert res.lambda_min == INF

    def test_constructed_bounded_pair(self):
        rng = np.random.default_rng(14)
        B = random_psd(rng, 4, rank=3)
        C = random_psd(rng, 4, lo=0.1, hi=0.9)
        from pwcalc.linalg import psd_sqrt
        half = psd_sqrt(B)
        A = hermitian_part(half @ C @ half)
        res = t2_bound(A, B)
        assert res.bounded and res.upper_certified and res.lower_fails
        norm = perspective_apply(catalog("power", 2), A, B).value.operator_norm()
        assert abs(res.lambda_min - norm) < 1e-7 * (1 + norm)

    # the upper certificate's slack is relative to the pair's scale: half
    # the true lambda fails it at every joint scaling, tiny pairs included
    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-100, 1e100])
    def test_upper_certificate_at_every_scale(self, scale):
        A = scale * np.array([[2.0, 1.0], [1.0, 1.0]])
        B = scale * np.diag([1.0, 0.5])
        res = t2_bound(A, B)
        assert res.bounded and res.upper_certified and res.lower_fails
        A2 = hermitian_part(A @ A)
        assert _t2_form_holds(res.lambda_min, A2, B)
        assert not _t2_form_holds(res.lambda_min / 2, A2, B)


class TestBoundednessChain:
    def test_invertible_all_hold(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=80)
        A, B = gen_pair(spec, 0)
        rep = boundedness_chain(1.5, A, B)
        assert all(rep.conditions.values())
        assert rep.implications_ok

    def test_singular_pair_fails_a_and_b(self):
        rep = boundedness_chain(1.5, P87, Q87)
        assert not rep.conditions["a"]
        assert not rep.conditions["b"]
        assert rep.implications_ok

    def test_no_violations_seeded(self):
        spec = RandomSpec(3, 4, "rank_deficient", seed=81)
        for trial in range(100):
            A, B = gen_pair(spec, trial)
            rep = boundedness_chain(1.7, A, B, trials=100, seed=trial)
            assert rep.implications_ok, rep.violated


TILT_KERNEL = np.diag([1.0, 0.0])


def _tilt(eps: float) -> np.ndarray:
    """v v* with v = (1, eps): range tilted by about eps off range(TILT_KERNEL)."""
    v = np.array([1.0, eps])
    return np.outer(v, v)


def _containment_corpus():
    """(id, A, B) pairs near the containment boundary: tilts of range(A) off
    range(B), and A = I against B = diag(1, eps) (also rotated) just on
    either side of the endpoint cliff, where 1 - max t = eps / (1 + eps)."""
    pairs = [(f"tilt-1e-{k}", _tilt(10.0 ** -k), TILT_KERNEL)
             for k in range(3, 13)]
    c, s = math.cos(0.3), math.sin(0.3)
    U = np.array([[c, -s], [s, c]])
    for base in (1e-9, 1e-10):
        for side in (1.0 - 1e-3, 1.0 + 1e-3):
            B = np.diag([1.0, base * side])
            pairs.append((f"cliff_{base * side:.4g}", np.eye(2), B))
            pairs.append((f"cliff_{base * side:.4g}_rotated", np.eye(2),
                          hermitian_part(U @ B @ U.T)))
    return pairs


CORPUS = _containment_corpus()
CORPUS_SCALES = (1.0, 1e-100, 1e100)


def _outside_cone(A, B, side):
    """True iff pw_apply_restricted rejects (A, B) as outside its cone."""
    try:
        pw_apply_restricted(TLOGT_PHI, A, B, side)
    except PreconditionError:
        return True
    return False


class TestContainmentCorpus:
    """Every containment question is decided by one rule: max t < 1 -
    ENDPOINT_TOL on the pair kernel's spectrum of R."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_tilted_range_is_not_contained(self, eps):
        A, B = _tilt(eps), TILT_KERNEL
        assert not perspective_apply(catalog("power", 2), A, B).bounded
        assert not is_absolutely_continuous(A, B)
        assert not t2_bound(A, B).bounded
        assert dominates_scale(A, B) == INF
        assert boundedness_chain(2.0, A, B).violated == []

    @pytest.mark.parametrize("scale", CORPUS_SCALES)
    @pytest.mark.parametrize("name, A, B", CORPUS,
                             ids=[name for name, _, _ in CORPUS])
    def test_one_decision(self, name, A, B, scale):
        A, B = scale * A, scale * B
        chain = boundedness_chain(2.0, A, B, trials=20)
        decisions = {
            "perspective_apply": perspective_apply(catalog("power", 2),
                                                   A, B).bounded,
            "is_absolutely_continuous": is_absolutely_continuous(A, B),
            "lebesgue_decomposition": not np.abs(
                lebesgue_decomposition(A, B).singular_part).max() > 0,
            "t2_bound": t2_bound(A, B).bounded,
            "dominates_scale": math.isfinite(dominates_scale(A, B)),
            "chain-a": chain.conditions["a"],
            "chain-b": chain.conditions["b"],
            "chain-d": chain.conditions["d"],
        }
        assert len(set(decisions.values())) == 1, decisions
        assert chain.violated == []
        # the integrals' singular branches, the restricted cones and the
        # endpoint hits decide absolute continuity of the pair and its swap
        rho = np.eye(2) / 2
        for P, Q in ((A, B), (B, A)):
            ac = is_absolutely_continuous(P, Q)
            ac_swap = is_absolutely_continuous(Q, P)
            hits0, hits1 = perspective_apply(catalog("power", 2),
                                             P, Q).endpoint_hits
            got = {
                "integral": math.isinf(integral_eval_91(R77_TLOGT, P, Q, rho)),
                "integral-both": math.isinf(
                    integral_eval_91(R77_BOTH, P, Q, rho)),
                "hits_at_one": hits1 > 0,
                "hits_at_zero": hits0 > 0,
                "le": _outside_cone(P, Q, "le"),
                "ge": _outside_cone(P, Q, "ge"),
            }
            want = {"integral": not ac, "integral-both": not (ac and ac_swap),
                    "hits_at_one": not ac, "hits_at_zero": not ac_swap,
                    "le": not ac, "ge": not ac_swap}
            assert got == want, (P is B, got)
        if name.startswith("cliff"):
            eps = float(name.split("_")[1])
            assert decisions["t2_bound"] == (eps / (1.0 + eps) > ENDPOINT_TOL)

    @pytest.mark.parametrize("alpha", [1.5, 1.7])
    @pytest.mark.parametrize("name, A, B", CORPUS,
                             ids=[name for name, _, _ in CORPUS])
    def test_chain_below_two(self, name, A, B, alpha):
        # B^(alpha-1) lifts the cliff's eps out of the endpoint band, so (c)
        # holds where (d) does not: the one violation the rule leaves
        rep = boundedness_chain(alpha, A, B, trials=20)
        inside = name.startswith("cliff") and not rep.conditions["d"]
        assert rep.violated == (["c=>d"] if inside else [])


def _definite_cliff_pair(e):
    """B = diag(np.logspace(0, -e, 4)) and A the same diagonal reversed: a
    positive definite pair whose sides differ by 10^e in one direction, so
    that R has an eigenvalue near 1 - 10^-e."""
    b = np.logspace(0, -e, 4)
    return np.diag(b[::-1]), np.diag(b)


# tr(A log A - A log B) = sum a_i log(a_i / b_i) of _definite_cliff_pair(e),
# by mpmath at 50 digits on the same doubles
DEFINITE_CLIFF_TRACE = {9: 20.730166663746846, 10: 23.0294118251335}


def _definite_cliff_traces(e):
    A, B = _definite_cliff_pair(e)
    f = catalog("tlogt")
    phi = perspective_of(f)
    return {
        "perspective_apply": perspective_apply(f, A, B).value.trace(),
        "max_f_divergence": max_f_divergence(f, A, B),
        "pw_commuting_oracle": pw_commuting_oracle(phi, A, B).trace(),
        "invertible_formula": invertible_formula(phi, A, B).trace(),
    }


class TestDefinitePairEndpointCliff:
    """Rows on each side of the endpoint cliff of a definite pair: the trace
    of its tlogt perspective is finite at every e, but at e = 10 R's
    eigenvalue 1 - 1e-10 sits inside the absolute ENDPOINT_TOL band and
    takes the corner value +inf, in the calculus and in both oracles."""

    @pytest.mark.parametrize("e", [9, pytest.param(10, marks=pytest.mark.xfail(
        strict=True, reason="the endpoint band is absolute, not scaled to "
        "the pair's own error, so R's eigenvalue 1 - 1e-10 takes the corner "
        "value +inf"))])
    def test_finite_trace(self, e):
        exact = DEFINITE_CLIFF_TRACE[e]
        for name, value in _definite_cliff_traces(e).items():
            assert math.isfinite(value), name
            assert abs(value - exact) <= 1e-8 * exact, (name, value)
        assert is_absolutely_continuous(*_definite_cliff_pair(e))


class TestContainmentIdentity:
    """The rule read by different calls gives the same answer."""

    @pytest.mark.parametrize("profile", ["well_conditioned", "rank_deficient",
                                         "projection"])
    def test_decisions_agree(self, profile):
        f2 = catalog("power", 2)
        spec = RandomSpec(2, 6, profile, seed=1010)
        contained = 0
        for trial in range(12):
            pair = gen_pair(spec, trial)
            for X, Y in (pair, pair[::-1]):
                ac = is_absolutely_continuous(X, Y)
                assert math.isfinite(dominates_scale(X, Y)) == ac, trial
                bounded = t2_bound(X, Y).bounded
                assert bounded == perspective_apply(f2, X, Y).bounded, trial
                assert bounded == ac, trial
                contained += ac
        assert contained


def _mp_top(X: np.ndarray, Y: np.ndarray, mpmath):
    """Top eigenvalue of Y^-1/2 X Y^-1/2 in 50 digits, for definite Y."""
    to_mp = lambda M: mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                                     for row in M])
    w, V = mpmath.eighe(to_mp(Y))
    inv_half = V * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * V.H
    M = inv_half * to_mp(X) * inv_half
    return max(mpmath.eighe((M + M.H) / 2, eigvals_only=True))


@pytest.mark.parametrize("decade", range(10))
def test_dominance_scale_against_mpmath(decade):
    # 1 - t loses digits as lambda grows; the error stays of order eps lambda
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng((1011, decade))
    lam = 10.0 ** decade
    for n in (2, 3, 4):
        U, V = haar_unitary(rng, n), haar_unitary(rng, n)
        y = np.concatenate(([1.0 / lam], rng.uniform(0.5, 1.0, n - 1)))
        X = hermitian_part((U * rng.uniform(0.5, 1.0, n)) @ U.conj().T)
        Y = hermitian_part((V * y) @ V.conj().T)
        tol = 100 * n * np.finfo(float).eps * (1.0 + lam)
        for got, X_ref in ((dominates_scale(X, Y), X),
                           (t2_bound(X, Y).lambda_min, X @ X)):
            want = float(_mp_top(X_ref, Y, mpmath))
            assert abs(got - want) <= tol * want, (n, got, want)


@pytest.fixture(scope="module")
def epsilon_errors():
    """epsilon_limit's error at eps = 1e-8 and f = neglog, relative to the
    largest entry of the reference, over the pairs with a singular B among
    the first 12 trials of three singular profiles."""
    mpmath = pytest.importorskip("mpmath")
    f, e = catalog("neglog"), 1e-8
    rows = {}
    for profile in ("projection", "rank_deficient", "commuting_pair"):
        for trial in range(12):
            A, B = map(hermitian_part,
                       gen_pair(RandomSpec(2, 6, profile, 11), trial))
            if np.linalg.matrix_rank(B) == len(B):
                continue
            ref = reference.mp_perspective(lambda x: -mpmath.log(x), A, B, e)
            got = epsilon_limit(f, A, B, [e])[0][1]
            rows[f"{profile}-{trial}"] = (np.abs(got - ref).max()
                                          / np.abs(ref).max())
    return rows


def _graded_pair(ratio, trial):
    """A definite and B singular, of order 3 to 5, with |A| = ratio |B|."""
    n = 3 + trial % 3
    A = gen_pair(RandomSpec(n, n, "well_conditioned", 29), trial)[0]
    B = gen_pair(RandomSpec(n, n, "rank_deficient", 29), trial)[1]
    A, B = hermitian_part(A), hermitian_part(B)
    return A * (ratio * np.linalg.norm(B, 2) / np.linalg.norm(A, 2)), B


class TestEpsilonLimitAgainstMpmath:
    """At eps = 1e-8 on a singular B, the entries are read off the pair
    kernel's t in [0, 1], whose error is absolute in |A + B|: near 1e-10 of
    the largest entry on unit pairs, and growing with how far |A| and |B|
    are apart, until 1 - t rounds onto 0 and the eps is refused."""

    def test_entries_within_a_millionth(self, epsilon_errors):
        assert len(epsilon_errors) >= 24
        for label, err in epsilon_errors.items():
            assert err <= 1e-6, (label, err)

    @pytest.mark.parametrize("ratio, bound", [
        (1e4, 1e-8), (1e6, 1e-8), (1e8, 1e-4), (1e10, 1e-4)])
    def test_graded_pairs(self, ratio, bound):
        # below the cliff every entry is resolved; past it, where 1 - t of
        # B's kernel is near eps / |A| and so near A + B's roundoff, an
        # entry is within 1e-4 or its eps is refused by name
        mpmath = pytest.importorskip("mpmath")
        f, e = catalog("neglog"), 1e-8
        for trial in range(6):
            A, B = _graded_pair(ratio, trial)
            ref = reference.mp_perspective(lambda x: -mpmath.log(x), A, B, e)
            try:
                got = epsilon_limit(f, A, B, [e])[0][1]
            except PreconditionError as exc:
                assert ratio > 1e6, (trial, exc)
                assert re.match(UNRESOLVED, str(exc)), exc
                continue
            err = np.abs(got - ref).max() / np.abs(ref).max()
            assert err <= bound, (trial, err)


@pytest.mark.parametrize("X, Y, error, message", [
    (np.diag([-1.0, 1.0]), np.eye(2), NotPsdError, r"^X is not PSD: "),
    (np.eye(2), np.diag([1.0, -1.0]), NotPsdError, r"^Y is not PSD: "),
    (np.diag([np.nan, 1.0]), np.eye(2), NonFiniteError,
     r"^X has a non-finite \(NaN or inf\) entry$"),
    (np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), NotHermitianError,
     r"^Y is not Hermitian: "),
    (np.diag([1e308, 1.0]), np.diag([1e308, 1.0]), NonFiniteError,
     r"^X \+ Y has a non-finite \(NaN or inf\) eigenvalue$"),
], ids=["X-not-psd", "Y-not-psd", "X-non-finite", "Y-not-hermitian",
        "sum-overflows"])
def test_dominates_scale_names_its_arguments(X, Y, error, message):
    with pytest.raises(error, match=message):
        dominates_scale(X, Y)


class TestAhInequality:
    def test_p_one_is_equality(self):
        rng = np.random.default_rng(15)
        A = random_psd(rng, 3)
        B = random_psd(rng, 3) + 0.2 * np.eye(3)
        ok, rows = check_ah_inequality(catalog("power", 2), A, B, p_list=(1.0,))
        assert ok
        assert abs(rows[0]["lhs"] - rows[0]["rhs"]) < 1e-9 * (1 + rows[0]["rhs"])

    def test_half_power(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=82)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            ok, _ = check_ah_inequality(catalog("power", 2), A, B,
                                        p_list=(0.5, 0.25))
            assert ok

    def test_inverse_power(self):
        spec = RandomSpec(3, 3, "well_conditioned", seed=83)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            ok, _ = check_ah_inequality(catalog("power", -1), A, B,
                                        p_list=(0.5, 0.75))
            assert ok

    def test_rejects_untagged(self):
        with pytest.raises(ValueError, match="pmi"):
            check_ah_inequality(catalog("neglog"), np.eye(2), np.eye(2))


class TestPositiveMaps:
    def test_unitary_conjugation_equality(self):
        rng = np.random.default_rng(16)
        spec = RandomSpec(4, 4, "rank_deficient", seed=84)
        A, B = gen_pair(spec, 0)
        U = haar_unitary(rng, 4)
        out = check_positive_map_monotonicity(catalog("tlogt"), [U], A, B)
        assert out.ok

    def test_pinching_data_processing(self):
        # trace-preserving pinching: data processing for the divergence
        n = 4
        kraus = [np.diag([1.0 if i == j else 0.0 for j in range(n)])
                 for i in range(n)]
        spec = RandomSpec(4, 4, "well_conditioned", seed=85)
        f = catalog("tlogt")
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            out = check_positive_map_monotonicity(f, kraus, A, B)
            assert out.ok
            lhs = max_f_divergence(f, kraus_apply(kraus, A), kraus_apply(kraus, B))
            rhs = max_f_divergence(f, A, B)
            assert lhs <= rhs + 1e-8 * (1 + abs(rhs))

    def test_scalar_functional_kraus_form(self):
        # Phi(X) = rho0(X) as a Kraus row list; monotonicity holds at states
        rng = np.random.default_rng(18)
        rho0 = random_state(rng, 3)
        w, V = np.linalg.eigh(rho0)
        kraus = [np.sqrt(max(w[i], 0.0)) * V[:, i].conj().reshape(1, -1)
                 for i in range(3)]
        assert np.abs(kraus_apply(kraus, np.eye(3))
                      - np.trace(rho0).real * np.eye(1)).max() < 1e-12
        spec = RandomSpec(3, 3, "well_conditioned", seed=94)
        for trial in range(5):
            A, B = gen_pair(spec, trial)
            out = check_positive_map_monotonicity(catalog("tlogt"), kraus, A, B)
            assert out.ok

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("call", [
        lambda: kraus_apply([BIG_DIAG] * 2, BIG_DIAG),
        lambda: kraus_predual([BIG_DIAG] * 2, BIG_DIAG),
        lambda: check_positive_map_monotonicity(
            catalog("tlogt"), [np.diag([1e200, 1.0])], np.eye(2), np.eye(2)),
    ], ids=["kraus_apply", "kraus_predual", "check_positive_map_monotonicity"])
    def test_overflowing_kraus_sum_is_named(self, call, action):
        # finite Kraus operators whose product K X K* overflows: the sum is
        # rejected by name under either warning filter, not returned with
        # NaN entries or left to numpy's overflow warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=r"^the Kraus sum has a "
                                                 r"non-finite \(NaN or inf\) "
                                                 r"entry$"):
                call()
        assert [str(w.message) for w in caught] == []

    def test_scalar_functional_peierls_bogoliubov(self):
        # phi_f(rho(A), rho(B)) <= phi_f(A,B)(rho), strict on the 7.12 pair
        f = catalog("power", 2)
        phi = perspective_of(f)
        res = perspective_apply(f, A712, B712)
        rng = np.random.default_rng(17)
        sup = 0.0
        for _ in range(2000):
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xi /= np.linalg.norm(xi)
            rho = vector_state(xi)
            lhs = phi.bivariate(float(np.vdot(xi, A712 @ xi).real),
                                float(np.vdot(xi, B712 @ xi).real))
            rhs = evaluate_state(res.value, rho)
            assert lhs <= rhs + 1e-9
            sup = max(sup, lhs)
        assert sup < 3.0 - 1e-3  # strictness of the example


class TestMiscInvariants:
    def test_prop_83_monotone_limit(self):
        # n rho(A - A:nB) climbs to phi_{t^2}(A,B)(rho)
        spec = RandomSpec(3, 3, "well_conditioned", seed=86)
        A, B = gen_pair(spec, 0)
        rho = random_state(np.random.default_rng(1), 3)
        target = evaluate_state(perspective_apply(catalog("power", 2), A, B).value,
                                rho)
        vals = []
        for n in (1, 4, 16, 64, 256, 1024, 2 ** 16, 2 ** 24):
            vals.append(n * float(np.trace(rho @ (A - parallel_sum(A, n * B))).real))
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - target) < 1e-4 * (1 + abs(target))

    def test_cor_85_necessity(self):
        # bounded perspective with alpha=inf>beta forces absolute continuity
        spec = RandomSpec(3, 4, "rank_deficient", seed=87)
        f = catalog("power", 2)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            res = perspective_apply(f, A, B)
            if res.bounded:
                assert is_absolutely_continuous(A, B)

    def test_monotone_decreasing_in_b_tlogt(self):
        # B1 <= B2 implies phi_tlogt(A, B1) >= phi_tlogt(A, B2)
        spec = RandomSpec(3, 3, "well_conditioned", seed=88)
        f = catalog("tlogt")
        for trial in range(15):
            A, B1 = gen_pair(spec, trial)
            rng = np.random.default_rng((89, trial))
            B2 = B1 + random_psd(rng, 3, lo=0.1, hi=0.8)
            hi = perspective_apply(f, A, B1).value
            lo = perspective_apply(f, A, B2).value
            scale = 1 + max(np.abs(hi.finite_part).max(initial=0),
                            np.abs(lo.finite_part).max(initial=0))
            ok, _ = form_leq(lo, hi, 1e-8 * scale)
            assert ok

    def test_lemma_79_identity(self):
        # phi_{f_n}(A,B) = alpha_n A + beta_n B - B sigma_{h_n} A
        from pwcalc.functions import approximants
        from pwcalc.variational import repr77_square_minus, repr77_tlogt
        spec = RandomSpec(4, 4, "rank_deficient", seed=90)
        for r in (repr77_square_minus(), repr77_tlogt(80)):
            for n in (1, 2, 5, 20):
                app = approximants(r, n)
                A, B = gen_pair(spec, n)
                lhs = perspective_apply(app.f_n, A, B).value.form_matrix()
                rhs = (app.alpha_n * A + app.beta_n * B
                       - connection(app.h_n, B, A))
                scale = 1 + np.abs(rhs).max()
                assert np.abs(lhs - rhs).max() < 1e-9 * scale

    def test_eq_84_identity(self):
        # phi_{g^(n)}(A,B) = nA + B - (1+n)^2/n (A : nB)
        spec = RandomSpec(4, 4, "rank_deficient", seed=91)
        for n in (1, 3, 10):
            A, B = gen_pair(spec, n)
            lhs = perspective_apply(catalog("gn", n), A, B).value.form_matrix()
            rhs = n * A + B - (1 + n) ** 2 / n * parallel_sum(A, n * B)
            assert np.abs(lhs - rhs).max() < 1e-9 * (1 + np.abs(rhs).max())

    def test_lower_semicontinuity_sampling(self):
        spec = RandomSpec(3, 3, "well_conditioned", seed=92)
        f = catalog("tlogt")
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((93, trial))
            D = random_psd(rng, 3, lo=0.2, hi=1.0)
            E = random_psd(rng, 3, lo=0.2, hi=1.0)
            rho = random_state(rng, 3)
            direct = evaluate_state(perspective_apply(f, A, B).value, rho)
            tail = [evaluate_state(perspective_apply(
                f, A + 2.0 ** -k * D, B + 2.0 ** -k * E).value, rho)
                for k in (26, 29, 32)]
            assert direct <= min(tail) + 1e-6
