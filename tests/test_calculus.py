import collections
import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from pwcalc import calculus
from pwcalc.calculus import (
    DEFINITE_MIN_N,
    ENDPOINT_TOL,
    HomogeneousFunction,
    PreconditionError,
    _checked_pair_spectrum,
    _checked_state_spectrum,
    _endpoints,
    _pair_spectra,
    check_homogeneity,
    check_restricted_bounded,
    compatible_representation,
    invertible_formula,
    pw_apply,
    pw_apply_restricted,
    pw_commuting_oracle,
    special_values,
)
from pwcalc.extended import (
    INF,
    ExtendedSelfAdjoint,
    add,
    evaluate_state,
    form_leq,
    quadratic_form,
)
from pwcalc.functions import (
    ExtendedFunction,
    IntegralRepr77,
    Interval,
    Measure,
    catalog,
)
from pwcalc.linalg import (
    EPS,
    NonFiniteError,
    NotHermitianError,
    NotPsdError,
    Subspace,
    full_space,
    hermitian_part,
    psd_pinv,
    psd_sqrt,
    range_subspace,
    require_psd,
    spectral_norm,
)
from pwcalc.perspectives import (
    boundedness_chain,
    connection,
    connection_generator,
    dominates_scale,
    is_absolutely_continuous,
    lebesgue_decomposition,
    matrix_power_psd,
    parallel_sum,
    perspective_apply,
    perspective_of,
    t2_bound,
)
from pwcalc.suites import (
    RandomSpec,
    gen_pair,
    haar_unitary,
    random_isometry,
    random_psd,
    random_state,
)
from pwcalc.variational import (
    integral_eval_91,
    integral_eval_92,
    optimal_decomposition,
    repr77_square_minus,
    repr77_tlogt,
    repr97_square,
    repr97_t_alpha,
    two_projections,
    variational_envelope,
)
import reference
from reference import sequential_pair

A712 = np.array([[1.0, 1.0], [1.0, 1.0]])
B712 = np.diag([1.0, 2.0])
P87 = np.diag([1.0, 0.0])
Q87 = 0.5 * np.ones((2, 2))


def phi_t2():
    return perspective_of(catalog("power", 2))


def ylogxy_restricted():
    return HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                               variant="ge")


def forms_agree(T1, T2, vectors, rel=1e-9):
    for xi in vectors:
        q1, q2 = quadratic_form(T1, xi), quadratic_form(T2, xi)
        if math.isinf(q1) != math.isinf(q2):
            return False
        if math.isfinite(q1) and abs(q1 - q2) > rel * (1 + abs(q1) + abs(q2)):
            return False
    return True


def probe_vectors(rng, n, k=10):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(k)]


class TestCompatibleRepresentation:
    def test_orthogonal_supports(self):
        rep = compatible_representation(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert rep.subspace.dim == 2
        # in range coordinates R and S are the complementary projections
        w = np.linalg.eigvalsh(rep.r)
        assert np.allclose(sorted(w), [0.0, 1.0], atol=1e-12)

    def test_equal_pair_gives_half(self):
        rep = compatible_representation(np.eye(2), np.eye(2))
        assert np.abs(rep.r - 0.5 * np.eye(2)).max() < 1e-12

    def test_reconstruction(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        B = np.diag([1.0, 2.0])
        rep = compatible_representation(A, B)
        T = rep.t_map
        assert np.abs(T.conj().T @ rep.r @ T - A).max() < 1e-10
        assert np.abs(T.conj().T @ rep.s @ T - B).max() < 1e-10

    def test_invariants_seeded(self):
        # R+S=I, T*RT=A, T*ST=B for 300 seeded pairs, dims 1..8
        for trial in range(300):
            rng = np.random.default_rng((23, trial))
            n = int(rng.integers(1, 9))
            A = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            B = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            rep = compatible_representation(A, B)
            k = rep.subspace.dim
            assert np.abs(rep.r + rep.s - np.eye(k)).max() < 1e-10
            scale = 1e-9 * (1 + spectral_norm(A + B))
            T = rep.t_map
            assert np.abs(T.conj().T @ rep.r @ T - A).max() < scale
            assert np.abs(T.conj().T @ rep.s @ T - B).max() < scale
            w = np.linalg.eigvalsh(rep.r)
            if k:
                # reconstruction after the clip reintroduces eps-level noise
                eps_slack = 8 * n * np.finfo(float).eps
                assert w[0] >= -eps_slack and w[-1] <= 1.0 + eps_slack

    def test_zero_pair(self):
        rep = compatible_representation(np.zeros((2, 2)), np.zeros((2, 2)))
        assert rep.subspace.dim == 0


def _kernel_reference_pairs():
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for n in range(1 if profile != "projection" else 2, 7):
            for trial in range(3):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=2105), trial)
                yield f"{profile}/{n}/{trial}", A, B
    yield "zero", np.zeros((3, 3)), np.zeros((3, 3))
    for gap in (1e-9, 1e-11):
        # top R eigenvalue 1 - gap: 10x on each side of ENDPOINT_TOL
        A, B = np.eye(2), np.diag([1.0, gap / (1.0 - gap)])
        yield f"cliff/{gap}", A, B
        yield f"cliff/{gap}/swapped", B, A


def test_pair_spectrum_matches_compatible_representation():
    power2 = catalog("power", 2)
    decisions = set()
    for label, A, B in _kernel_reference_pairs():
        rep = compatible_representation(A, B)
        spectrum = _pair_spectra(*sequential_pair(A, B))
        t, X = spectrum.t, spectrum.X
        n, k = A.shape[0], rep.subspace.dim
        assert t.shape == (k,) and X.shape == (k, n), label
        assert np.abs(t - np.linalg.eigvalsh(rep.r)).max(initial=0.0) <= 1e-12, label
        tol = 1e-10 * (1 + spectral_norm(A) + spectral_norm(B))
        assert np.abs((X.conj().T * t) @ X - A).max() <= tol, label
        assert np.abs((X.conj().T * (1 - t)) @ X - B).max() <= tol, label
        ac = is_absolutely_continuous(A, B)
        assert ac == perspective_apply(power2, A, B).value.is_bounded, label
        dec = lebesgue_decomposition(A, B)
        assert ac == (np.abs(dec.singular_part).max() == 0), label
        assert np.abs(dec.ac_part + dec.singular_part - A).max() <= tol, label
        decisions.add(ac)
    assert decisions == {True, False}


def test_nested_lists_match_arrays():
    A, B = [[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]
    got = perspective_apply(catalog("tlogt"), A, B)
    want = perspective_apply(catalog("tlogt"), np.array(A), np.array(B))
    assert np.array_equal(got.value.form_matrix(), want.value.form_matrix())
    got = pw_apply_restricted(ylogxy_restricted(), A, B)
    want = pw_apply_restricted(ylogxy_restricted(), np.array(A), np.array(B))
    assert np.array_equal(got.form_matrix(), want.form_matrix())


@pytest.mark.parametrize("call", [
    lambda: compatible_representation(np.eye(2), np.eye(3)),
    lambda: parallel_sum(np.eye(2), np.eye(3)),
    # the lower bound given, so that the element is built with no eigh
    lambda: evaluate_state(ExtendedSelfAdjoint(2, full_space(2), np.eye(2),
                                               0.0),
                           np.eye(3) / 3),
], ids=["compatible_representation", "parallel_sum", "evaluate_state"])
def test_shapes_compared_before_any_eigh(call, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()
    assert not calls


class TestPwApply:
    def test_invertible_pair_closed_form(self):
        out = pw_apply(phi_t2(), A712, B712)
        assert out.is_bounded
        assert np.abs(out.form_matrix() - 1.5 * A712).max() < 1e-9
        assert abs(out.operator_norm() - 3.0) < 1e-9

    def test_projection_pair_infinity_part(self):
        out = pw_apply(phi_t2(), P87, Q87)
        assert out.infinity_dim == 1

    def test_scaled_pair_identity(self):
        # phi(aX, bX) = phi(a,b) X, with inf X = inf on range X
        rng = np.random.default_rng(40)
        X = random_psd(rng, 3, rank=2)
        phi = phi_t2()
        for a, b in ((2.0, 1.0), (0.5, 3.0)):
            out = pw_apply(phi, a * X, b * X)
            expected = phi.bivariate(a, b) * X
            assert np.abs(out.form_matrix() - expected).max() < 1e-9
        out = pw_apply(phi, 2.0 * X, 0.0 * X)  # phi(2,0) = inf
        assert out.infinity_dim == 2  # the rank of X
        zero = pw_apply(phi, 0.0 * X, 0.0 * X)
        assert zero.is_bounded and np.abs(zero.form_matrix()).max() == 0.0

    def test_restricted_variant_rejected(self):
        with pytest.raises(PreconditionError, match="restricted"):
            pw_apply(ylogxy_restricted(), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("corners, message", [
        ((0.5, 0.0), r"^line: diagonal\(1\) = 1\.0 disagrees with "
                     r"phi\(1,0\) = 0\.5$"),
        ((1.0, INF), r"^line: diagonal\(0\) = 0\.0 disagrees with "
                     r"phi\(0,1\) = inf$"),
        ((1.0, 0.0), None),
    ], ids=["at_one", "at_zero", "exact"])
    def test_corners_must_meet_the_closed_diagonal(self, corners, message):
        # a corner value is checked against the diagonal at each closed end
        # of its domain; an exact match passes
        diag = ExtendedFunction("line", Interval(0.0, 1.0, True, True),
                                lambda t: t)
        if message is None:
            assert HomogeneousFunction("line", diag, *corners).corner_x == 1.0
            return
        with pytest.raises(ValueError, match=message):
            HomogeneousFunction("line", diag, *corners)

    def test_nan_diagonal_is_logic_error(self):
        from pwcalc.extended import FormArithmeticError
        diag = ExtendedFunction("nan", Interval(0.0, 1.0, True, True),
                                lambda t: float("nan") if 0 < t < 1 else 0.0)
        phi = HomogeneousFunction("nan", diag, 0.0, 0.0)
        with pytest.raises(FormArithmeticError, match="NaN"):
            pw_apply(phi, np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))


class TestCommutingOracle:
    def test_parallel_sum_generator_diagonal(self):
        # phi = perspective of t/(1+t): scalar formula ab/(a+b)
        f = ExtendedFunction("psgen", Interval(0.0, INF, True, False),
                             lambda t: t / (1.0 + t), f_at_0plus=0.0,
                             fprime_at_inf=0.0, f_at_1=0.5,
                             tags=frozenset({"operator_convex"}))
        phi = perspective_of(f, assert_convex=True)
        out = pw_commuting_oracle(phi, np.diag([1.0, 2.0]), np.diag([2.0, 2.0]))
        assert np.abs(out.form_matrix() - np.diag([2.0 / 3.0, 1.0])).max() < 1e-12

    def test_tlogt_diagonal(self):
        phi = perspective_of(catalog("tlogt"))
        out = pw_commuting_oracle(phi, np.diag([1.0, math.e]), np.eye(2))
        assert np.abs(out.form_matrix() - np.diag([0.0, math.e])).max() < 1e-12

    def test_agrees_with_pw_apply(self):
        spec = RandomSpec(2, 6, "commuting_pair", seed=11)
        phi = phi_t2()
        for trial in range(30):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((90, trial))
            direct = pw_apply(phi, A, B)
            oracle = pw_commuting_oracle(phi, A, B)
            assert direct.infinity_dim == oracle.infinity_dim
            assert forms_agree(direct, oracle, probe_vectors(rng, A.shape[0]))

    def test_rejects_noncommuting(self):
        with pytest.raises(PreconditionError, match="commute"):
            pw_commuting_oracle(phi_t2(), A712, B712)

    # the oracle's commutator test and eigenvalue grouping are relative, so
    # they read the same on (cA, cB) as on (A, B): an absolute floor in
    # either accepted a non-commuting pair, or grouped distinct eigenvalues
    # of A, once c was small enough
    JOINT_SCALES = (1e-150, 1e-9, 1e-8, 1e-7, 1.0, 1e9, 1e150)

    @staticmethod
    def rotated_commuting_pair():
        """diag(1, 2, 4) and diag(3, 1, 2) in a drawn unitary basis, each
        exactly Hermitian, so commuting to roundoff."""
        U = haar_unitary(np.random.default_rng(41), 3)
        return tuple(hermitian_part((U * np.array(w)) @ U.conj().T)
                     for w in ((1.0, 2.0, 4.0), (3.0, 1.0, 2.0)))

    @pytest.mark.parametrize("c", JOINT_SCALES)
    def test_agrees_with_pw_apply_at_joint_scale(self, c):
        A, B = self.rotated_commuting_pair()
        direct = pw_apply(phi_t2(), c * A, c * B).form_matrix()
        oracle = pw_commuting_oracle(phi_t2(), c * A, c * B).form_matrix()
        assert np.abs(oracle - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("c", JOINT_SCALES)
    def test_rejects_noncommuting_at_joint_scale(self, c):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError, match="commute"):
            pw_commuting_oracle(phi_t2(), c * A, c * np.diag([1.0, 3.0]))


class TestSpecialValues:
    def test_scalar_identity_recovers_f(self):
        # phi(A, 1*I) is the scalar calculus of f
        sv = special_values(phi_t2(), np.diag([1.0, 3.0]), 1.0, 1.0)
        assert np.abs(sv.with_scalar_right.form_matrix() - np.diag([1.0, 9.0])).max() < 1e-12

    def test_zero_scalar_gives_corner_times_a(self):
        # phi(A, 0) = phi(1,0) A; for t^2 that is infinity on the range
        A = np.diag([2.0, 0.0])
        sv = special_values(phi_t2(), A, 0.0, 0.0)
        assert sv.with_scalar_right.infinity_dim == 1
        # the parallel-sum function has zero corners: phi(A, 0) = 0
        diag = ExtendedFunction("t(1-t)", Interval(0.0, 1.0, True, True),
                                lambda t: t * (1.0 - t))
        phi0 = HomogeneousFunction("parallel-sum", diag, 0.0, 0.0)
        sv0 = special_values(phi0, A, 0.0, 0.0)
        assert np.abs(sv0.with_scalar_right.form_matrix()).max() == 0.0

    def test_scaled_pair_zero(self):
        sv = special_values(phi_t2(), np.diag([1.0, 2.0]), 0.0, 0.0)
        assert np.abs(sv.scaled_pair.form_matrix()).max() == 0.0

    def test_agrees_with_pw_apply(self):
        rng = np.random.default_rng(77)
        A = random_psd(rng, 3)
        phi = perspective_of(catalog("tlogt"))
        sv = special_values(phi, A, 1.3, 0.6)
        direct = pw_apply(phi, A, 1.3 * np.eye(3))
        assert forms_agree(sv.with_scalar_right, direct, probe_vectors(rng, 3))
        direct = pw_apply(phi, 1.3 * np.eye(3), A)
        assert forms_agree(sv.with_scalar_left, direct, probe_vectors(rng, 3))
        direct = pw_apply(phi, 1.3 * A, 0.6 * A)
        assert forms_agree(sv.scaled_pair, direct, probe_vectors(rng, 3))


class TestInvertibleFormula:
    def test_example_pair(self):
        out = invertible_formula(phi_t2(), A712, B712)
        assert np.abs(out.form_matrix() - 1.5 * A712).max() < 1e-10

    def test_identity_pair(self):
        phi = phi_t2()
        out = invertible_formula(phi, np.eye(2), np.eye(2))
        assert np.abs(out.form_matrix() - phi.bivariate(1.0, 1.0) * np.eye(2)).max() < 1e-12

    def test_matches_pw_apply(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=3)
        for fname, par in (("power", 2), ("tlogt", None), ("neglog", None)):
            phi = perspective_of(catalog(fname, par) if par else catalog(fname))
            for trial in range(10):
                A, B = gen_pair(spec, trial)
                rng = np.random.default_rng((91, trial))
                lhs = invertible_formula(phi, A, B)
                rhs = pw_apply(phi, A, B)
                assert forms_agree(lhs, rhs, probe_vectors(rng, 4), rel=1e-9)

    def test_a_invertible_branch(self):
        # B singular, A invertible: the second branch must fire and agree
        rng = np.random.default_rng(8)
        A = random_psd(rng, 3) + 0.5 * np.eye(3)
        B = random_psd(rng, 3, rank=2)
        phi = perspective_of(catalog("power", 2))
        lhs = invertible_formula(phi, A, B)
        rhs = pw_apply(phi, A, B)
        assert lhs.infinity_dim == rhs.infinity_dim
        assert forms_agree(lhs, rhs, probe_vectors(rng, 3), rel=1e-8)

    def test_rejects_doubly_singular(self):
        with pytest.raises(PreconditionError, match="invertible"):
            invertible_formula(phi_t2(), np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))


class TestHomogeneity:
    def test_unitary_is_equality(self):
        rng = np.random.default_rng(5)
        A, B = random_psd(rng, 4), random_psd(rng, 4)
        U = haar_unitary(rng, 4)
        rep = check_homogeneity(phi_t2(), A, B, U)
        assert not rep.skipped and rep.ok
        assert rep.max_deviation < 1e-8

    def test_positive_scalar(self):
        rng = np.random.default_rng(6)
        A, B = random_psd(rng, 3), random_psd(rng, 3)
        rep = check_homogeneity(phi_t2(), A, B, 1.7 * np.eye(3))
        assert rep.ok
        lhs = pw_apply(phi_t2(), 1.7 ** 2 * A, 1.7 ** 2 * B)
        rhs = pw_apply(phi_t2(), A, B)
        assert np.abs(lhs.form_matrix() - 1.7 ** 2 * rhs.form_matrix()).max() < 1e-9

    def test_random_surjective(self):
        rng = np.random.default_rng(55)
        spec = RandomSpec(4, 4, "well_conditioned", seed=5)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rep = check_homogeneity(perspective_of(catalog("tlogt")), A, B, C)
            assert not rep.skipped
            assert rep.ok, rep.max_deviation

    def test_range_condition_skips(self):
        # C with 1-dim range cannot carry a full-range pair
        A, B = np.eye(3), np.eye(3)
        C = np.zeros((3, 3))
        C[0, 0] = 1.0
        rep = check_homogeneity(phi_t2(), A, B, C)
        assert rep.skipped
        assert "range" in rep.reason


class TestDirectSums:
    def test_block_assembly(self):
        spec = RandomSpec(3, 3, "rank_deficient", seed=101)
        phi = phi_t2()
        for trial in range(10):
            A1, B1 = gen_pair(spec, trial)
            A2, B2 = gen_pair(spec, trial + 500)
            z = np.zeros((3, 3))
            A = np.block([[A1, z], [z, A2]])
            B = np.block([[B1, z], [z, B2]])
            whole = pw_apply(phi, A, B)
            p1 = pw_apply(phi, A1, B1)
            p2 = pw_apply(phi, A2, B2)
            assert whole.infinity_dim == p1.infinity_dim + p2.infinity_dim
            rng = np.random.default_rng((44, trial))
            for _ in range(5):
                x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                x2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                q = quadratic_form(whole, np.concatenate([x1, x2]))
                qs = quadratic_form(p1, x1) + quadratic_form(p2, x2)
                if math.isinf(q) or math.isinf(qs):
                    assert math.isinf(q) and math.isinf(qs)
                else:
                    assert abs(q - qs) < 1e-9 * (1 + abs(q))


class TestConvexityInequalities:
    def test_joint_subadditivity(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=60)
        phi = perspective_of(catalog("tlogt"))
        for trial in range(30):
            A1, B1 = gen_pair(spec, trial)
            A2, B2 = gen_pair(spec, trial + 1000)
            lhs = pw_apply(phi, A1 + A2, B1 + B2)
            rhs = add(pw_apply(phi, A1, B1), pw_apply(phi, A2, B2))
            scale = 1 + max(np.abs(lhs.finite_part).max(initial=0),
                            np.abs(rhs.finite_part).max(initial=0))
            ok, _ = form_leq(lhs, rhs, 1e-8 * scale)
            assert ok

    def test_isometry_compression(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=61)
        phi = phi_t2()
        for trial in range(30):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((62, trial))
            V = random_isometry(rng, 4, 2)
            lhs = pw_apply(phi, hermitian_part(V.conj().T @ A @ V),
                           hermitian_part(V.conj().T @ B @ V))
            from pwcalc.extended import congruence
            rhs = congruence(V, pw_apply(phi, A, B))
            scale = 1 + max(np.abs(lhs.finite_part).max(initial=0),
                            np.abs(rhs.finite_part).max(initial=0))
            ok, _ = form_leq(lhs, rhs, 1e-8 * scale)
            assert ok

    def test_monotone_decreasing_first_argument(self):
        # neglog: phi(1,0) = 0 and diagonal operator monotone decreasing
        spec = RandomSpec(3, 3, "well_conditioned", seed=63)
        phi = perspective_of(catalog("neglog"))
        for trial in range(20):
            A1, B = gen_pair(spec, trial)
            rng = np.random.default_rng((64, trial))
            A2 = A1 + random_psd(rng, 3, lo=0.1, hi=0.8)
            big = pw_apply(phi, A1, B)
            small = pw_apply(phi, A2, B)
            scale = 1 + max(np.abs(big.finite_part).max(initial=0),
                            np.abs(small.finite_part).max(initial=0))
            ok, _ = form_leq(small, big, 1e-8 * scale)
            assert ok


XLOGYX_LE = HomogeneousFunction(
    "xlogyx", ExtendedFunction(
        "diag", Interval(0.0, 1.0, True, False),
        lambda t: t * math.log((1.0 - t) / t) if t > 0 else 0.0),
    INF, 0.0, variant="le")


class TestRestricted:
    def test_commuting_scalar_value(self):
        out = pw_apply_restricted(ylogxy_restricted(), 2 * np.eye(2), np.eye(2))
        assert np.abs(out.form_matrix() - math.log(2) * np.eye(2)).max() < 1e-10

    def test_zero_second_argument(self):
        out = pw_apply_restricted(ylogxy_restricted(), np.eye(2), np.zeros((2, 2)))
        assert np.abs(out.form_matrix()).max() < 1e-12

    def test_domination_precondition(self):
        with pytest.raises(PreconditionError, match="min eigenvalue"):
            pw_apply_restricted(ylogxy_restricted(), np.diag([1.0, 0.0]),
                                np.diag([0.0, 1.0]), side="ge")

    def test_cone_error_prints_the_clipped_spectrum(self):
        # two projections: R's eigenvalue at 0 computes as -5.6e-17 and is
        # printed as the value reads it, clipped to 0
        A, B = gen_pair(RandomSpec(2, 2, "projection", seed=5), 8)
        with pytest.raises(PreconditionError, match=r"^pair is not in the "
                           r">= cone: min eigenvalue of R is 0\.000e\+00$"):
            pw_apply_restricted(ylogxy_restricted(), A, B)

    @pytest.mark.parametrize("side", ["ge", "le"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_cone_edge_at_the_endpoint_band(self, side, factor):
        # A + B = I and min t (ge) or min 1 - t (le) at factor times the
        # band: inside it the pair is outside the cone, outside it the value
        # is finite
        gap = factor * ENDPOINT_TOL
        A, B = np.diag([gap, 0.5]), np.diag([1.0 - gap, 0.5])
        phi = ylogxy_restricted() if side == "ge" else XLOGYX_LE
        if side == "le":
            A, B = B, A
        if factor < 1.0:
            cone, of = (">=", "R") if side == "ge" else ("<=", "S")
            with pytest.raises(PreconditionError, match=(
                    rf"^pair is not in the {cone} cone: min eigenvalue of "
                    rf"{of} is 5\.000e-11$")):
                pw_apply_restricted(phi, A, B, side=side)
        else:
            assert pw_apply_restricted(phi, A, B, side=side).is_bounded

    def test_le_side(self):
        out = pw_apply_restricted(XLOGYX_LE, np.eye(2), 2 * np.eye(2),
                                  side="le")
        assert np.abs(out.form_matrix() - math.log(2) * np.eye(2)).max() < 1e-10

    def test_restricted_bounded_ylogxy(self):
        ok, details = check_restricted_bounded(ylogxy_restricted())
        assert ok
        assert all(d["bounded"] for d in details)

    def test_pole_detected(self):
        def pole(t):
            return 1.0 / (t - 0.5)
        phi = HomogeneousFunction(
            "pole", ExtendedFunction("pole", Interval(0.0, 1.0, False, True), pole),
            pole(1.0), INF, variant="ge")
        ok, _ = check_restricted_bounded(phi)
        assert not ok

    def test_neglog_perspective_restricted_bounded(self):
        # perspective of -log restricted to the ge cone is locally bounded
        diag = perspective_of(catalog("neglog")).diagonal
        phi = HomogeneousFunction(
            "neglog-ge",
            ExtendedFunction("d", Interval(0.0, 1.0, False, True), diag.fn),
            0.0, INF, variant="ge")
        ok, _ = check_restricted_bounded(phi)
        assert ok

    def test_dominated_pairs_stay_bounded(self):
        spec = RandomSpec(3, 5, "dominated_pair", seed=65,
                          params=(("alpha", 0.5),))
        phi = ylogxy_restricted()
        for trial in range(15):
            A, B = gen_pair(spec, trial)
            out = pw_apply_restricted(phi, A, B, side="ge")
            assert out.is_bounded


YLOGXY_GE = HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                                variant="ge")


def _element_outputs(value):
    return [value.finite_part, value.essential.basis,
            np.array(value.lower_bound)]


def _perspective_outputs(A, B):
    out = perspective_apply(catalog("tlogt"), A, B)
    return [*_element_outputs(out.value), out.r_eigenvalues,
            np.array(out.endpoint_hits)]


def _restricted_outputs(A, B):
    # (A + B, B) lies in the >= cone: R >= I/2 on the range
    return _element_outputs(pw_apply_restricted(YLOGXY_GE, A + B, B))


def _representation_outputs(A, B):
    rep = compatible_representation(A, B)
    return [rep.subspace.basis, rep.t_map, rep.r, rep.s]


E00 = np.zeros((0, 0))


@pytest.mark.parametrize("outputs, at_scalar", [
    (_perspective_outputs,
     [[[2 * math.log(2.0)]], [[1.0]], 0.0, [2 / 3], (0, 0)]),
    # on (3, 1): phi(x, y) = y log(x / y)
    (_restricted_outputs, [[[math.log(3.0)]], [[1.0]], 0.0]),
    (_representation_outputs,
     [[[1.0]], [[math.sqrt(3.0)]], [[2 / 3]], [[1 / 3]]]),
], ids=["perspective_apply", "pw_apply_restricted",
        "compatible_representation"])
def test_empty_and_scalar_pairs(outputs, at_scalar, monkeypatch):
    # the stacked validation rejects a 0x0 pair, naming A, before any eigh,
    # and shapes the scalar pair (2, 1), which gives the scalar calculus
    calls = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh",
                  lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with pytest.raises(ValueError, match=r"^A must not be empty, got "
                                             r"shape \(0, 0\)$"):
            outputs(E00, E00)
    assert not calls
    got = outputs(2.0, 1.0)
    assert len(got) == len(at_scalar)
    for g, w in zip(got, at_scalar):
        assert g.shape == np.shape(w)
        assert np.allclose(g, w, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("call", [
    lambda A, B: perspective_apply(catalog("tlogt"), A, B),
    lambda A, B: pw_apply_restricted(YLOGXY_GE, A, B),
    compatible_representation,
], ids=["perspective_apply", "pw_apply_restricted",
        "compatible_representation"])
@pytest.mark.parametrize("case", ["A", "B", "both", "B_not_hermitian",
                                  "overflow", "negative_A", "negative_B"])
def test_errors_keep_their_order_at_n64(call, case):
    # at n = 64 the pair kernel tries the Cholesky route first, and
    # compatible_representation reads the validation's stack: each raises
    # what validating A, then B, then the sum A + B raises
    n = 64
    A, B = gen_pair(RandomSpec(n, n, "well_conditioned", seed=17), 0)
    v = np.ones(n) / math.sqrt(n)
    bad_A = A - 2 * spectral_norm(A) * np.outer(v, v)
    bad_B = B - 2 * spectral_norm(B) * np.outer(v, v)
    skew_B = B.astype(complex)
    skew_B[0, 1] += 1e-3
    huge = np.diag([1e308] + [1.0] * (n - 1))
    eye = np.eye(n)
    pair, error, message = {
        "A": ((bad_A, B), NotPsdError, "A is not PSD"),
        "B": ((A, bad_B), NotPsdError, "B is not PSD"),
        "both": ((bad_A, bad_B), NotPsdError, "A is not PSD"),
        "B_not_hermitian": ((bad_A, skew_B), NotPsdError, "A is not PSD"),
        "overflow": ((huge, huge), NonFiniteError, "A + B has a non-finite"),
        "negative_A": ((-eye, -2 * eye), NotPsdError, "A is not PSD"),
        "negative_B": ((eye, -eye), NotPsdError, "B is not PSD"),
    }[case]
    with pytest.raises(error) as info:
        call(*pair)
    assert str(info.value).startswith(message)


def _outcome_bytes(call, *args):
    """The bytes of every array call(*args) returns (elements, subspaces
    and sequences of them unpacked), or the type and message of its
    error."""
    def flat(value):
        if isinstance(value, ExtendedSelfAdjoint):
            return [a.tobytes() for a in _element_outputs(value)]
        if isinstance(value, Subspace):
            return [value.basis.tobytes()]
        if dataclasses.is_dataclass(value):  # a report: its fields in order
            value = [getattr(value, f.name)
                     for f in dataclasses.fields(value)]
        if isinstance(value, dict):
            value = list(value.items())
        if isinstance(value, (tuple, list)):
            return [b for v in value for b in flat(v)]
        if value is None or isinstance(value, str):
            return [repr(value)]
        return [np.asarray(value).tobytes()]
    try:
        return flat(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _near_hermitian(rng, M):
    """M with each entry moved by a relative 1e-12, so that it is Hermitian
    only within the tolerance."""
    return M * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, M.shape))


def _spectrum_pairs():
    """(label, A, B, kind): drawn pairs of the three profiles, n = 2...5,
    exactly Hermitian ("exact") and moved off it within the tolerance
    ("near"), commuting pairs with repeated eigenvalues in a drawn basis,
    and a non-PSD, a non-finite and a mismatched pair ("invalid")."""
    rng = np.random.default_rng(20281)
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for n in range(2, 6):
            for trial in range(2):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=41), trial)
                label = f"{profile}-{n}-{trial}"
                yield label, A, B, "exact"
                yield label + "-near", _near_hermitian(rng, A), \
                    _near_hermitian(rng, B), "near"
    for a, b in (([1.0, 1.0, 2.0, 0.0], [0.5, 3.0, 0.0, 1.0]),
                 ([2.0, 2.0, 2.0], [1.0, 0.0, 4.0]),
                 ([1.0, 2.0, 0.0, 3.0], [0.5, 0.0, 1.0, 2.0])):
        U = haar_unitary(rng, len(a))
        A = hermitian_part((U * np.array(a)) @ U.conj().T)
        B = hermitian_part((U * np.array(b)) @ U.conj().T)
        yield f"commuting-{len(a)}", A, B, "exact"
        yield f"commuting-{len(a)}-diagonal", np.diag(a), np.diag(b), "exact"
        yield f"commuting-{len(a)}-near", _near_hermitian(rng, A), \
            _near_hermitian(rng, B), "near"
    yield "not_psd", -np.eye(2), np.eye(2), "invalid"
    yield "non_finite", np.eye(2), np.diag([np.nan, 1.0]), "invalid"
    yield "mismatch", np.eye(3), np.eye(2), "invalid"


ALL = {"exact", "near", "invalid"}
R77_SQUARE_MINUS = repr77_square_minus()


class TestValidatedSpectrum:
    """special_values, invertible_formula, matrix_power_psd, the
    commuting-pair oracle and compatible_representation read the eigenpairs
    their PSD checks decided on, psd_sqrt, psd_pinv, range_subspace and
    optimal_decomposition check their input, and variational_envelope
    validates its pair once: each gives what decomposing again, decomposing
    the input as given or validating at every n gives (tests/reference.py),
    to the last bit.  The first six are held to it on every pair, with the
    same errors on invalid ones (special_values' reference validates A
    again inside calculus(f, A), which changes no bit of a Hermitian
    part).  The others
    are held to it on valid, exactly Hermitian input, where validating
    changes no bit, and the envelope to the same errors too."""

    TLOGT = perspective_of(catalog("tlogt"))

    @pytest.mark.parametrize("call, want, kinds", [
        (lambda A, B: invertible_formula(TestValidatedSpectrum.TLOGT, A, B),
         lambda A, B: reference.redecomposed_invertible_formula(
             TestValidatedSpectrum.TLOGT, A, B), ALL),
        (lambda A, B: invertible_formula(TestValidatedSpectrum.TLOGT, B, A),
         lambda A, B: reference.redecomposed_invertible_formula(
             TestValidatedSpectrum.TLOGT, B, A), ALL),
        (lambda A, B: pw_commuting_oracle(TestValidatedSpectrum.TLOGT, A, B),
         lambda A, B: reference.redecomposed_pw_commuting_oracle(
             TestValidatedSpectrum.TLOGT, A, B), ALL),
        (lambda A, B: matrix_power_psd(A, 0.7),
         lambda A, B: reference.redecomposed_matrix_power_psd(A, 0.7), ALL),
        (lambda A, B: [special_values(TestValidatedSpectrum.TLOGT, A, *ab)
                       for ab in ((1.0, 0.0), (1.0, 1.0), (0.0, 2.0))],
         lambda A, B: [reference.redecomposed_special_values(
             TestValidatedSpectrum.TLOGT, A, *ab)
             for ab in ((1.0, 0.0), (1.0, 1.0), (0.0, 2.0))], ALL),
        (lambda A, B: (psd_sqrt(A), psd_sqrt(A + B)),
         lambda A, B: (reference.masked_psd_sqrt(A),
                       reference.masked_psd_sqrt(A + B)), {"exact"}),
        (lambda A, B: (psd_pinv(A + B), psd_pinv(A - B)),
         lambda A, B: (reference.unvalidated_psd_pinv(A + B),
                       reference.unvalidated_psd_pinv(A - B)), {"exact"}),
        (lambda A, B: (range_subspace(A), range_subspace(A - B)),
         lambda A, B: (reference.unvalidated_range_subspace(A),
                       reference.unvalidated_range_subspace(A - B)),
         {"exact"}),
        (lambda A, B: optimal_decomposition(A, B, np.arange(len(A)) + 1j, 0.3),
         lambda A, B: reference.unvalidated_optimal_decomposition(
             A, B, np.arange(len(A)) + 1j, 0.3), {"exact"}),
        (lambda A, B: variational_envelope(R77_SQUARE_MINUS, A, B,
                                           np.arange(len(A)) + 1j, (1, 3)),
         lambda A, B: reference.revalidated_variational_envelope(
             R77_SQUARE_MINUS, A, B, np.arange(len(A)) + 1j, (1, 3)),
         {"exact", "invalid"}),
        (compatible_representation,
         reference.redecomposed_compatible_representation, ALL),
    ], ids=["invertible_formula", "invertible_formula-swapped",
            "pw_commuting_oracle", "matrix_power_psd", "special_values",
            "psd_sqrt", "psd_pinv", "range_subspace", "optimal_decomposition",
            "variational_envelope", "compatible_representation"])
    def test_bitwise_equal_to_the_reference(self, call, want, kinds):
        seen = set()
        for label, A, B, kind in _spectrum_pairs():
            if kind in kinds:
                got = _outcome_bytes(call, A, B)
                assert got == _outcome_bytes(want, A, B), label
                seen.add(type(got))
        # values compared, and errors too wherever invalid pairs are
        assert seen == {list, tuple} if "invalid" in kinds else {list}


def _stacked_pairs():
    """(label, A, B): drawn pairs of the five gen_pair profiles, n = 2...6,
    and definite pairs of n = 40 and 64."""
    for profile in ("well_conditioned", "rank_deficient", "projection",
                    "commuting_pair", "dominated_pair"):
        for n in range(2, 7):
            for trial in range(2):
                yield (f"{profile}-{n}-{trial}",
                       *gen_pair(RandomSpec(n, n, profile, seed=43), trial))
    for n in (40, 64):
        yield (f"definite-{n}",
               *gen_pair(RandomSpec(n, n, "well_conditioned", seed=43), 0))
    yield ("sum-below-slack", *_sum_below_slack_pair())


def _sum_below_slack_pair():
    """A and B that commute and pass require_psd (slack 3 eps), whose sum
    diag(1, 1, -4 eps) is below its own slack."""
    e = 2 * np.finfo(float).eps
    return np.diag([1.0, 0.0, -e]), np.diag([0.0, 1.0, -e])


def _full_rank_c(A):
    """A C of the pair's size whose range holds range(A + B)."""
    n = len(A)
    return np.eye(n) + 0.5j * np.tri(n, k=-1)


class TestStackedPairCalls:
    """check_homogeneity, parallel_sum, pw_commuting_oracle and
    compatible_representation read A, B and A + B from one eigh of the
    validation's stack, boundedness_chain reads
    its powers from the stack of A and B and trusts the powered pairs, and
    two_projections reads both ranges from one eigh of (P, Q): each gives
    what validating, then decomposing each matrix (and A + B) on its own
    gives (tests/reference.py), to the last bit, errors included."""

    TLOGT = perspective_of(catalog("tlogt"))

    @pytest.mark.parametrize("call, want", [
        (lambda A, B: check_homogeneity(TestStackedPairCalls.TLOGT, A, B,
                                        _full_rank_c(A)),
         lambda A, B: reference.redecomposed_check_homogeneity(
             TestStackedPairCalls.TLOGT, A, B, _full_rank_c(A))),
        (lambda A, B: check_homogeneity(TestStackedPairCalls.TLOGT, A, B,
                                        _full_rank_c(A)[:, :1]),
         lambda A, B: reference.redecomposed_check_homogeneity(
             TestStackedPairCalls.TLOGT, A, B, _full_rank_c(A)[:, :1])),
        (parallel_sum, reference.redecomposed_parallel_sum),
        (lambda A, B: pw_commuting_oracle(TestStackedPairCalls.TLOGT, A, B),
         lambda A, B: reference.redecomposed_pw_commuting_oracle(
             TestStackedPairCalls.TLOGT, A, B)),
        (lambda A, B: [boundedness_chain(alpha, A, B, trials=8)
                       for alpha in (1.5, 2.0)],
         lambda A, B: [reference.redecomposed_boundedness_chain(
             alpha, A, B, trials=8) for alpha in (1.5, 2.0)]),
        (lambda A, B: [two_projections(catalog(*f), A, B)
                       for f in (("power", 2), ("neglog",))],
         lambda A, B: [reference.redecomposed_two_projections(
             catalog(*f), A, B) for f in (("power", 2), ("neglog",))]),
        (compatible_representation,
         reference.redecomposed_compatible_representation),
    ], ids=["check_homogeneity", "check_homogeneity-skipped", "parallel_sum",
            "pw_commuting_oracle", "boundedness_chain", "two_projections",
            "compatible_representation"])
    def test_bitwise_equal_to_the_reference(self, call, want):
        seen = set()
        for label, A, B in _stacked_pairs():
            got = _outcome_bytes(call, A, B)
            assert got == _outcome_bytes(want, A, B), label
            seen.add(type(got))
        # values compared on every profile; the oracle and two_projections
        # reject the pairs that do not commute or are not projections
        assert list in seen

    def test_sum_is_decomposed_not_checked(self):
        # parallel_sum and the oracle cut the sum at the rank cut, as an eigh
        # of the sum's own did; check_homogeneity reads its range at
        # _range_cut, which rejects it
        A, B = _sum_below_slack_pair()
        e = 2 * np.finfo(float).eps
        assert np.array_equal(parallel_sum(A, B), np.diag([0.0, 0.0, -e]))
        assert isinstance(pw_commuting_oracle(self.TLOGT, A, B),
                          ExtendedSelfAdjoint)
        with pytest.raises(NotPsdError, match=r"^A \+ B: min eigenvalue "):
            check_homogeneity(self.TLOGT, A, B, np.eye(3))


# ---------------------------------------------------------------------------
# The pair kernel's Cholesky route against its eigh route
# ---------------------------------------------------------------------------

def _eigh_route(monkeypatch, call, *args):
    """call(*args) with the pair kernel on its eigh route at every order,
    on an empty memo: else a pair the Cholesky route just decomposed would
    come back as that route's record."""
    with monkeypatch.context() as m:
        m.setattr(calculus, "DEFINITE_MIN_N", math.inf)
        m.setattr(calculus, "_last_pair", None)
        return call(*args)


def _outcome(call, *args):
    """What call(*args) returns, or the type and message of its error."""
    try:
        return call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _definite_kinds(n):
    """(kind, A, B) of order n whose sum A + B is definite: a
    well-conditioned pair, the pair with A and with B of rank n/2, and the
    first scaled by 1e6 and by 1e-6."""
    rng = np.random.default_rng(20231 + n)
    A, B = random_psd(rng, n), random_psd(rng, n)
    yield "well_conditioned", A, B
    yield "A_rank_deficient", random_psd(rng, n, rank=n // 2), B
    yield "B_rank_deficient", A, random_psd(rng, n, rank=n // 2)
    yield "scaled_1e6", 1e6 * A, 1e6 * B
    yield "scaled_1e-6", 1e-6 * A, 1e-6 * B


def _pair_outputs(A, B):
    """The kernel's t and the public calls that read it, on (A, B)."""
    dec = lebesgue_decomposition(A, B)
    return (_checked_pair_spectrum(A, B).t,
            connection(connection_generator("geometric"), A, B),
            dec.ac_part, dec.singular_part, dominates_scale(A, B),
            is_absolutely_continuous(A, B))


def _with_least(U, c, kappa):
    """U diag(w) U* for a unitary U of order n, w log-spaced over
    [1/kappa, 1] with its least moved to c n eps."""
    n = len(U)
    w = np.logspace(-np.log10(kappa), 0, n)
    w[0] = c * n * EPS
    return hermitian_part((U * w) @ U.conj().T)


class TestDefiniteReduction:
    """From n = DEFINITE_MIN_N on, the pair kernel reduces a definite
    A + B = L L* by Cholesky: one eigh of L^-1 A L^-*, where the eigh route
    takes one of A + B and one of R.  Its outputs differ from the eigh
    route's by roundoff only, within the kernel's error estimate
    n eps kappa(A + B) of the pair's scale; the pairs it certifies pass
    require_psd; and every sum it cannot reduce by a margin falls through
    to the eigh route, with that route's outputs and errors."""

    @pytest.mark.parametrize("n", [DEFINITE_MIN_N, 64, 96])
    def test_agrees_with_the_eigh_route(self, n, monkeypatch):
        for kind, A, B in _definite_kinds(n):
            w = np.linalg.eigvalsh(A + B)
            estimate = n * EPS * w[-1] / w[0]
            assert calculus._definite_spectra(A, B, A + B) is not None, kind
            got = _pair_outputs(A, B)
            want = _eigh_route(monkeypatch, _pair_outputs, A, B)
            t, want_t = got[0], want[0]
            assert np.abs(t - want_t).max() <= estimate, kind
            for g, v in zip(got[1:4], want[1:4]):
                assert np.abs(g - v).max() <= estimate * w[-1], kind
            # the rank-deficient side puts n/2 eigenvalues of R at its end
            hits = [np.count_nonzero(m) for m in _endpoints(t)]
            assert hits == [np.count_nonzero(m) for m in _endpoints(want_t)]
            assert hits == {"A_rank_deficient": [n // 2, 0],
                            "B_rank_deficient": [0, n // 2]}.get(kind, [0, 0])
            assert got[4] == want[4] or (
                abs(got[4] - want[4]) <= estimate * want[4]), kind
            assert got[5] == want[5] == (kind != "B_rank_deficient"), kind

    def test_certified_pairs_pass_require_psd(self, monkeypatch):
        # least eigenvalues from -5 to 1e6 times n eps across the
        # certificate, in A or in B, at condition numbers up to 1e12 and
        # at three scales; the other matrix definite, or with the same
        # least eigenpair, so that the sum is near singular too
        rng = np.random.default_rng(20232)
        seen = set()
        for n in (DEFINITE_MIN_N, 48, 64):
            for c in (-5.0, -1.0, 0.0, 1.0, 1e2, 1e3, 1e4, 1e6):
                for scale in (1e-150, 1.0, 1e150):
                    U = haar_unitary(rng, n)
                    M = _with_least(U, c, 10 ** rng.uniform(0, 12))
                    other = (_with_least(U, c, 10 ** rng.uniform(0, 8))
                             if rng.random() < 0.3 else _with_least(
                                 haar_unitary(rng, n), 1e9,
                                 10 ** rng.uniform(0, 8)))
                    A, B = (M, other) if rng.random() < 0.5 else (other, M)
                    A, B = scale * A, scale * B
                    definite = calculus._definite_spectra(A, B, A + B)
                    certified = definite is not None and definite.certified
                    if certified:
                        for X in (A, B):
                            require_psd(X)
                    seen.add((definite is not None, certified))
                    # rejected pairs raise as on the eigh route
                    got = _outcome(_checked_pair_spectrum, A, B)
                    if isinstance(got[0], type):
                        assert got == _eigh_route(
                            monkeypatch, _outcome, _checked_pair_spectrum,
                            A, B)
        # the route certifies pairs, takes pairs it does not certify, and
        # leaves pairs to the eigh route
        assert seen == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("kind", ["rank_deficient", "below_the_cut"])
    @pytest.mark.parametrize("n", [DEFINITE_MIN_N, 64])
    def test_semidefinite_sums_fall_through(self, n, kind, monkeypatch):
        # A and B of rank n/3 each, so that the sum has rank 2n/3, or with
        # one least eigenpair at n eps / 4, so that the sum's least
        # eigenvalue sits at half the eigh route's rank cut and Cholesky
        # factors it: the kernel's outputs are the eigh route's to the
        # last bit
        rng = np.random.default_rng(20233 + n)
        if kind == "rank_deficient":
            A, B = (random_psd(rng, n, rank=n // 3) for _ in range(2))
        else:
            U = haar_unitary(rng, n)
            A, B = _with_least(U, 0.25, 4.0), _with_least(U, 0.25, 2.0)
            np.linalg.cholesky(A + B)
        assert calculus._definite_spectra(A, B, A + B) is None
        got = _pair_spectra(A, B)
        want = _eigh_route(monkeypatch, _pair_spectra, A, B)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_overflowing_sums_fall_through(self, action):
        # a valid pair whose sum overflows is named as the eigh route names
        # it, and no step warns
        huge = np.diag([1e308] + [1.0] * (DEFINITE_MIN_N - 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with np.errstate(over="ignore"):
                S = huge + huge
            assert calculus._definite_spectra(huge, huge, S) is None
            for call in (lambda A, B: connection(
                    connection_generator("geometric"), A, B),
                    lebesgue_decomposition, t2_bound):
                with pytest.raises(NonFiniteError,
                                   match=r"^A \+ B has a non-finite"):
                    call(huge, huge)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("n", [DEFINITE_MIN_N, 64])
    def test_non_psd_pairs_raise_as_on_the_eigh_route(self, n, monkeypatch):
        # A, B or both shifted to a least eigenvalue of -0.05, far beyond
        # require_psd's slack, with A + B still definite, so that the route
        # runs and must not certify: the PSD half raises the eigh route's
        # error and message.  (A, -B) has an indefinite sum, which the
        # route leaves to the eigh route.
        rng = np.random.default_rng(20234 + n)
        A, B = random_psd(rng, n), random_psd(rng, n)
        eye = np.eye(n)
        shift_a = np.linalg.eigvalsh(A)[0] + 0.05
        shift_b = np.linalg.eigvalsh(B)[0] + 0.05
        pairs = {"A": (A - shift_a * eye, B + shift_a * eye),
                 "B": (A + shift_b * eye, B - shift_b * eye),
                 "both": (A - shift_a * eye, B - shift_b * eye),
                 "minus_B": (A, -B)}
        for case, (X, Y) in pairs.items():
            definite = calculus._definite_spectra(X, Y, X + Y)
            assert (definite is None) == (case == "minus_B"), case
            assert definite is None or not definite.certified, case
            for call in (_checked_pair_spectrum, is_absolutely_continuous,
                         t2_bound):
                got = _outcome(call, X, Y)
                assert got[0] is NotPsdError, case
                name = "B" if case in ("B", "minus_B") else "A"
                assert got[1].startswith(f"{name} is not PSD"), case
                assert got == _eigh_route(monkeypatch, _outcome, call, X, Y)


# ---------------------------------------------------------------------------
# The pair kernel's memo of the last pair
# ---------------------------------------------------------------------------

MEMO_TLOGT = perspective_of(catalog("tlogt"))
MEMO_CALLS = {
    "pw_apply": lambda A, B: pw_apply(MEMO_TLOGT, A, B),
    "perspective_apply": lambda A, B: perspective_apply(catalog("tlogt"), A,
                                                        B),
    "pw_apply_restricted": lambda A, B: pw_apply_restricted(YLOGXY_GE, A, B),
    "connection": lambda A, B: connection(connection_generator("geometric"),
                                          A, B),
    "lebesgue_decomposition": lebesgue_decomposition,
    "is_absolutely_continuous": is_absolutely_continuous,
    "dominates_scale": dominates_scale,
    "t2_bound": t2_bound,
}
KERNEL_STEPS = ("_hermitian_stack", "_psd_stack", "_definite_factor")


def _memo_pairs():
    """(label, A, B): a cut and a full-rank sum on the eigh route, a pair in
    the >= cone, and a certified definite pair on the Cholesky route."""
    for profile in ("rank_deficient", "well_conditioned", "dominated_pair"):
        yield (profile, *gen_pair(RandomSpec(4, 4, profile, seed=5), 0))
    yield ("definite-40",
           *gen_pair(RandomSpec(40, 40, "well_conditioned", seed=5), 0))


def _counted(m):
    """Patch eigh and svd (numpy.linalg's and numpy.linalg._linalg's, which
    np.linalg.norm(M, 2) calls) and the kernel's validation and factor
    steps to record each run; returns the record, a Counter."""
    record = collections.Counter()

    def counting(name, run):
        return lambda *a, **k: record.update((name,)) or run(*a, **k)

    for module in (np.linalg, sys.modules["numpy.linalg._linalg"]):
        for name in ("eigh", "svd"):
            m.setattr(module, name, counting(name, getattr(module, name)))
    for name in KERNEL_STEPS:
        m.setattr(calculus, name, counting(name, getattr(calculus, name)))
    return record


def _runs(monkeypatch, call, *args):
    """(the bytes of call(*args)'s outcome, the Counter of its runs)."""
    with monkeypatch.context() as m:
        record = _counted(m)
        try:
            out = call(*args)
        except Exception as exc:
            out = exc
    if isinstance(out, Exception):
        return (type(out), str(out)), record
    return _outcome_bytes(lambda: out), record


class TestPairMemo:
    """_checked_pair_spectrum keeps the last pair that passed, keyed by the
    shape and bytes of A and B: a call on those bytes again reads its
    record, with no validation and no decomposition, and every output and
    error is what a fresh decomposition gives, to the last bit."""

    @pytest.mark.parametrize("name", MEMO_CALLS)
    def test_a_repeat_skips_the_kernel(self, name, monkeypatch):
        call = MEMO_CALLS[name]
        for label, A, B in _memo_pairs():
            monkeypatch.setattr(calculus, "_last_pair", None)
            _, kernel = _runs(monkeypatch, _checked_pair_spectrum, A, B)
            monkeypatch.setattr(calculus, "_last_pair", None)
            fresh, fresh_runs = _runs(monkeypatch, call, A, B)
            again, again_runs = _runs(monkeypatch, call, A, B)
            assert again == fresh, label
            # the repeat makes what the call makes beside the kernel: no
            # validation, no factor, and no eigh or svd of the pair's
            assert kernel["eigh"] and kernel["_hermitian_stack"] == 1, label
            assert not kernel - fresh_runs, label
            assert again_runs == fresh_runs - kernel, label
            assert not any(again_runs[step] for step in KERNEL_STEPS), label
            if name != "t2_bound":  # whose norm and form checks make eigh
                assert again_runs == {}, label

    def test_the_record_is_read_only_and_no_output_aliases_it(self):
        A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        record = _checked_pair_spectrum(A, B)
        assert not any(M.flags.writeable for M in record)
        out = perspective_apply(catalog("tlogt"), A, B)
        want = out.r_eigenvalues.copy()
        assert out.r_eigenvalues.flags.writeable
        out.r_eigenvalues[:] = 0.5
        for diagnostics in (perspective_apply(catalog("tlogt"), A, B),
                            calculus._pw_value(
                                MEMO_TLOGT, _checked_pair_spectrum(A, B))[1]):
            assert diagnostics.r_eigenvalues.tobytes() == want.tobytes()
        assert calculus._last_pair[1] is record

    @pytest.mark.parametrize("edit", ["in_place", "ulp", "negative_zero"])
    def test_other_bytes_are_decomposed_again(self, edit, monkeypatch):
        # the same array object edited in place, one entry moved by one
        # ulp, and a +0.0 imaginary part made -0.0 (equal as numbers)
        A, B = (M.astype(complex) for M in
                gen_pair(RandomSpec(4, 4, "well_conditioned", seed=5), 0))
        first = _checked_pair_spectrum(A, B)
        if edit == "in_place":
            A *= 2.0
        elif edit == "ulp":
            A[1, 1] = np.nextafter(A[1, 1].real, math.inf)
        else:
            A[2, 2] = complex(A[2, 2].real, -0.0)
        got, runs = _runs(monkeypatch, _checked_pair_spectrum, A, B)
        assert runs["_hermitian_stack"] == 1 and runs["eigh"] == 2
        assert calculus._last_pair[1] is not first
        monkeypatch.setattr(calculus, "_last_pair", None)
        assert got == _outcome_bytes(_checked_pair_spectrum, A, B)

    def test_shapes_with_the_same_bytes_differ(self):
        A, B = gen_pair(RandomSpec(4, 4, "well_conditioned", seed=5), 0)
        _checked_pair_spectrum(A, B)
        with pytest.raises(NotHermitianError,
                           match=r"^A must be square, got shape \(2, 8\)$"):
            _checked_pair_spectrum(A.reshape(2, 8), B.reshape(2, 8))

    def test_a_failing_pair_is_not_kept(self, monkeypatch):
        A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        kept = _checked_pair_spectrum(A, B)
        errors = []
        for _ in range(2):
            error, runs = _runs(monkeypatch, connection,
                                connection_generator("geometric"), A, -B)
            assert runs["_hermitian_stack"] == runs["_psd_stack"] == 1
            assert calculus._last_pair[1] is kept
            errors.append(error)
        assert errors[0] == errors[1]
        assert errors[0][0] is NotPsdError
        assert errors[0][1].startswith("B is not PSD")

    def test_one_entry_decomposes_p_again_after_q(self, monkeypatch):
        P = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        Q = gen_pair(RandomSpec(4, 4, "projection", seed=5), 0)
        outputs, kernels = [], 0
        for A, B in (P, Q, P):
            out, runs = _runs(monkeypatch, lebesgue_decomposition, A, B)
            outputs.append(out)
            kernels += runs["_hermitian_stack"]
        assert kernels == 3
        assert outputs[0] == outputs[2] != outputs[1]

    def test_another_call_and_names_read_the_same_record(self, monkeypatch):
        A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        connection(connection_generator("geometric"), A, B)
        X, Y = A.copy(), B.copy()  # other objects, the same bytes
        got, runs = _runs(monkeypatch, dominates_scale, X, Y)
        assert runs == {}
        monkeypatch.setattr(calculus, "_last_pair", None)
        assert got == _outcome_bytes(dominates_scale, X, Y)

    def test_threads_read_their_own_pairs(self):
        pairs = [gen_pair(RandomSpec(4, 4, profile, seed=5), trial)
                 for profile in ("rank_deficient", "well_conditioned")
                 for trial in range(3)]
        _each_thread_reads_its_own(lebesgue_decomposition, pairs)


def _each_thread_reads_its_own(call, inputs):
    """Four threads, more than the cores of a small host, cycle through the
    inputs from different starts, each input twice in a row, with a short
    switch interval: a record read for other input than the call's would
    show in its outputs."""
    want = [_outcome_bytes(call, *args) for args in inputs]
    wrong, done = [], []

    def run(start):
        for i in range(300):
            j = (start + i // 2) % len(inputs)  # each input twice in a row
            if _outcome_bytes(call, *inputs[j]) != want[j]:
                wrong.append(j)
        done.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []


# ---------------------------------------------------------------------------
# The state kernel's memo of the last triple
# ---------------------------------------------------------------------------

R77_TLOGT = repr77_tlogt(48)
R97_T15 = repr97_t_alpha(1.5, 48)
STATE_CALLS = {
    "integral_eval_91": lambda rho, A, B: integral_eval_91(R77_TLOGT, A, B,
                                                           rho),
    "integral_eval_92": lambda rho, A, B: integral_eval_92(R97_T15, A, B, rho),
    "integral_eval_91-square": lambda rho, A, B: integral_eval_91(
        repr77_square_minus(), A, B, rho),
    "integral_eval_92-square": lambda rho, A, B: integral_eval_92(
        repr97_square(), A, B, rho),
    # the swapped square term's pair is read from _checked_pair_spectrum
    "integral_eval_91-both_squares": lambda rho, A, B: integral_eval_91(
        IntegralRepr77(0.5, -0.25, 1.0, 0.75, Measure(np.array([0.5, 2.0]),
                                                      np.array([0.3, 0.7]))),
        A, B, rho),
}


def _memo_triples():
    """(label, rho, A, B): _memo_pairs' pairs, each with a drawn state."""
    for label, A, B in _memo_pairs():
        yield label, random_state(np.random.default_rng(5), len(A)), A, B


def _clear_memos(monkeypatch):
    monkeypatch.setattr(calculus, "_last_pair", None)
    monkeypatch.setattr(calculus, "_last_state", None)


class TestStateMemo:
    """_checked_state_spectrum keeps the last triple (rho, A, B) that
    passed, keyed by their shapes and bytes: a call on those bytes again
    reads its record, with no validation and no decomposition, and every
    output and error is what a fresh decomposition gives, to the last
    bit."""

    @pytest.mark.parametrize("name", STATE_CALLS)
    def test_a_repeat_skips_the_kernel(self, name, monkeypatch):
        call = STATE_CALLS[name]
        for label, rho, A, B in _memo_triples():
            _clear_memos(monkeypatch)
            fresh, fresh_runs = _runs(monkeypatch, call, rho, A, B)
            again, again_runs = _runs(monkeypatch, call, rho, A, B)
            assert fresh_runs["eigh"] >= 2, label
            assert fresh_runs["_hermitian_stack"] >= 1, label
            assert again == fresh, label
            # no eigh and no kernel step: only an infinite square term's
            # assembly, which makes its svd again
            assert set(again_runs) <= {"svd"}, label
            assert again_runs["svd"] == fresh_runs["svd"], label

    def test_the_second_integral_reads_the_first_ones_record(
            self, monkeypatch):
        for label, rho, A, B in _memo_triples():
            _clear_memos(monkeypatch)
            integral_eval_91(R77_TLOGT, A, B, rho)
            got, runs = _runs(monkeypatch, integral_eval_92, R97_T15, A, B,
                              rho)
            assert runs == {}, label
            _clear_memos(monkeypatch)
            assert got == _outcome_bytes(integral_eval_92, R97_T15, A, B,
                                         rho), label

    @pytest.mark.parametrize("edit", ["state", "in_place", "ulp",
                                      "negative_zero"])
    def test_other_bytes_are_decomposed_again(self, edit, monkeypatch):
        # another state on the same pair, the same state array edited in
        # place, one entry of A moved by one ulp, and a +0.0 imaginary part
        # of the state made -0.0 (equal as numbers)
        A, B = gen_pair(RandomSpec(4, 4, "well_conditioned", seed=5), 0)
        rho = random_state(np.random.default_rng(5), 4)
        first = _checked_state_spectrum(rho, A, B)
        if edit == "state":
            rho = random_state(np.random.default_rng(6), 4)
        elif edit == "in_place":
            rho *= 0.5
        elif edit == "ulp":
            A = A.copy()
            A[1, 1] = np.nextafter(A[1, 1].real, math.inf)
        else:
            assert math.copysign(1.0, rho[2, 2].imag) == 1.0
            rho[2, 2] = complex(rho[2, 2].real, -0.0)
        got, runs = _runs(monkeypatch, integral_eval_91, R77_TLOGT, A, B, rho)
        assert runs["_hermitian_stack"] == 1 and runs["eigh"] == 2
        assert calculus._last_state[1] is not first
        _clear_memos(monkeypatch)
        assert got == _outcome_bytes(integral_eval_91, R77_TLOGT, A, B, rho)

    @pytest.mark.parametrize("state, name", [(-1.0, "state"), (1.0, "B")])
    def test_a_failing_triple_is_not_kept(self, state, name, monkeypatch):
        # with B not PSD, a state that is not PSD either raises first
        A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        rho = random_state(np.random.default_rng(5), 4)
        kept = _checked_state_spectrum(rho, A, B)
        errors = []
        for _ in range(2):
            error, runs = _runs(monkeypatch, integral_eval_91, R77_TLOGT, A,
                                -B, state * rho)
            assert runs["eigh"] >= 1
            assert calculus._last_state[1] is kept
            errors.append(error)
        assert errors[0] == errors[1]
        assert errors[0][0] is NotPsdError
        assert errors[0][1].startswith(f"{name} is not PSD")

    def test_the_record_is_read_only(self):
        A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
        rho = random_state(np.random.default_rng(5), 4)
        record = _checked_state_spectrum(rho, A, B)
        assert not any(M.flags.writeable
                       for M in (record.rho, *record.pair, record.m))
        assert _checked_state_spectrum(rho.copy(), A.copy(),
                                       B.copy()) is record
        assert calculus._last_state[1] is record

    def test_threads_read_their_own_triples(self):
        # three pairs, each with two states
        triples = [(random_state(np.random.default_rng(k), 4),
                    *gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5),
                              trial))
                   for trial in range(3) for k in range(2)]
        _each_thread_reads_its_own(STATE_CALLS["integral_eval_91"], triples)
