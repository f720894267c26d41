import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pwcalc import extended
from pwcalc.calculus import compatible_representation
from pwcalc.extended import (
    BOUNDED,
    ExtendedSelfAdjoint,
    FormArithmeticError,
    INF,
    KERNEL_REL_TOL,
    PROPER_INFINITY,
    _diagonal_congruence,
    _diagonal_element,
    add,
    approx_equal,
    classify,
    congruence,
    evaluate_state,
    form_leq,
    from_json_dict,
    from_matrix,
    infinity_on,
    make_extended,
    quadratic_form,
    scale,
    to_json_dict,
    xadd,
    xmul,
    zero_element,
)
from pwcalc.functions import catalog
from pwcalc.linalg import (
    NonFiniteError,
    NotPsdError,
    eigh,
    full_space,
    span,
    vector_state,
)
from pwcalc.perspectives import perspective_of
from pwcalc.suites import RandomSpec, gen_pair, haar_unitary


def e(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def inf_on_e1_finite(vals2):
    """Element with +inf on e1 and vals2 on e2."""
    return make_extended([(INF, e(2, 0)), (vals2, e(2, 1))])


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)
xreals = st.one_of(finite_floats, st.just(INF))


class TestExtendedArithmetic:
    @given(xreals)
    def test_zero_times_anything(self, v):
        assert xmul(0.0, v) == 0.0
        assert xmul(v, 0.0) == 0.0

    @given(finite_floats, finite_floats)
    def test_finite_sum(self, a, b):
        assert xadd(a, b) == a + b

    @given(finite_floats)
    def test_inf_absorbs(self, a):
        assert xadd(a, INF) == INF
        assert xmul(INF, max(abs(a), 1.0)) == INF

    def test_nan_trapped(self):
        with pytest.raises(FormArithmeticError):
            xadd(float("nan"), 1.0)
        with pytest.raises(FormArithmeticError):
            xmul(float("nan"), 1.0)

    def test_negative_inf_trapped(self):
        with pytest.raises(FormArithmeticError):
            xadd(1.0, -INF)


class TestMakeExtended:
    def test_bounded_diag(self):
        T = make_extended([(1.0, e(2, 0)), (2.0, e(2, 1))])
        assert T.is_bounded
        assert np.abs(T.form_matrix() - np.diag([1.0, 2.0])).max() < 1e-12

    def test_infinity_direction(self):
        T = make_extended([(INF, e(2, 0)), (0.0, e(2, 1))])
        assert T.infinity_dim == 1
        assert T.essential.dim == 1
        assert abs(abs(T.essential.basis[1, 0]) - 1) < 1e-12

    def test_rotated_infinity(self):
        # inf along (e1+e2)/sqrt2, eigenvalue -3 along (e1-e2)/sqrt2
        plus = (e(2, 0) + e(2, 1)) / np.sqrt(2)
        minus = (e(2, 0) - e(2, 1)) / np.sqrt(2)
        T = make_extended([(INF, plus), (-3.0, minus)])
        assert T.essential.dim == 1
        assert T.lower_bound <= -3.0
        # direct evaluation: omega_{e1} loads the infinity direction
        assert evaluate_state(T, vector_state(e(2, 0))) == INF
        # along the essential direction the form gives the eigenvalue
        assert abs(quadratic_form(T, minus) + 3.0) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="Gram"):
            make_extended([(1.0, e(2, 0)), (2.0, (e(2, 0) + e(2, 1)) / np.sqrt(2))])

    def test_rejects_a_nan_vector(self):
        # it once made an element whose state values were NaN
        with pytest.raises(ValueError, match="orthonormal.*nan"):
            make_extended([(1.0, np.array([np.nan, 0.0])), (2.0, e(2, 1))])

    def test_rejects_incomplete_span(self):
        with pytest.raises(ValueError, match="span"):
            make_extended([(1.0, e(2, 0))])


def rotated_element(source):
    """A bounded 3 x 3 element whose essential basis is a drawn unitary, not
    the identity: from make_extended's eigenpairs, or read from JSON with a
    finite part that is not diagonal."""
    rng = np.random.default_rng(20)
    U = haar_unitary(rng, 3)
    if source == "make_extended":
        return make_extended(zip([-1.0, 0.5, 2.0], U.T))
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    F = M + M.conj().T
    return from_json_dict({
        "n": 3,
        "essential_basis": {"re": U.real.tolist(), "im": U.imag.tolist()},
        "finite_part": {"re": F.real.tolist(), "im": F.imag.tolist()},
    })


class TestEvaluateState:
    def test_bounded(self):
        T = from_matrix(np.diag([1.0, 2.0]))
        assert abs(evaluate_state(T, np.diag([0.5, 0.5])) - 1.5) < 1e-12

    @pytest.mark.parametrize("source", ["make_extended", "from_json_dict"])
    def test_bounded_on_a_rotated_basis(self, source):
        # the state is compressed to the essential basis before it meets the
        # finite part: m(rho) = Tr(rho V F V*), which Tr(rho F) is not here
        T = rotated_element(source)
        form = T.form_matrix()
        assert T.is_bounded and np.abs(form - T.finite_part).max() > 0.1
        rng = np.random.default_rng(21)
        for _ in range(10):
            X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = X @ X.conj().T
            want = float(np.trace(rho @ form).real)
            tol = 1e-12 * (1 + np.abs(form).max() * float(np.trace(rho).real))
            assert abs(evaluate_state(T, rho) - want) <= tol

    def test_infinity_hit(self):
        T = inf_on_e1_finite(0.0)
        assert evaluate_state(T, vector_state(e(2, 0))) == INF

    def test_zero_times_infinity_convention(self):
        T = inf_on_e1_finite(7.0)
        assert abs(evaluate_state(T, vector_state(e(2, 1))) - 7.0) < 1e-12

    def test_additive_homogeneous_in_state(self):
        for trial in range(50):
            rng = np.random.default_rng((5, trial))
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = from_matrix(M + M.conj().T)
            r1 = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            r2 = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            a = float(rng.uniform(0.1, 3.0))
            v12 = evaluate_state(T, r1 + r2)
            assert abs(v12 - evaluate_state(T, r1) - evaluate_state(T, r2)) < 1e-10 * (
                1 + abs(v12))
            assert abs(evaluate_state(T, a * r1) - a * evaluate_state(T, r1)) < 1e-10 * (
                1 + abs(v12))

    def test_lower_bound_certificate(self):
        # Every element admits l >= 0 with m(rho) + l Tr rho >= 0
        for trial in range(30):
            rng = np.random.default_rng((6, trial))
            n = 3
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T = from_matrix(M + M.conj().T)
            ell = max(0.0, -T.lower_bound)
            rho = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            tr = float(np.trace(rho).real)
            assert evaluate_state(T, rho) + ell * tr >= -1e-10 * (1 + tr)


class TestQuadraticForm:
    def test_degree_two_homogeneity(self):
        T = from_matrix(np.diag([3.0]))
        assert abs(quadratic_form(T, 2.0 * e(1, 0)) - 12.0) < 1e-12

    def test_zero_vector(self):
        T = inf_on_e1_finite(1.0)
        assert quadratic_form(T, np.zeros(2)) == 0.0

    def test_mixed_vector_hits_infinity(self):
        T = inf_on_e1_finite(1.0)
        assert quadratic_form(T, (e(2, 0) + e(2, 1)) / np.sqrt(2)) == INF

    @pytest.mark.parametrize("source", ["make_extended", "from_json_dict"])
    def test_bounded_on_a_rotated_basis(self, source):
        # q(xi) = <V F V* xi, xi> on an essential basis V that is not I
        T = rotated_element(source)
        form = T.form_matrix()
        rng = np.random.default_rng(22)
        for _ in range(10):
            xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            want = float(np.vdot(xi, form @ xi).real)
            tol = 1e-12 * (1 + np.abs(form).max() * float(np.vdot(xi, xi).real))
            assert abs(quadratic_form(T, xi) - want) <= tol


class TestAddScale:
    def test_bounded_sum(self):
        T = add(from_matrix(np.diag([1.0, 2.0])), from_matrix(np.diag([3.0, 4.0])))
        assert np.abs(T.form_matrix() - np.diag([4.0, 6.0])).max() < 1e-12

    def test_sum_with_infinity_part(self):
        T = add(inf_on_e1_finite(0.0), from_matrix(np.eye(2)))
        assert T.infinity_dim == 1
        assert abs(quadratic_form(T, e(2, 1)) - 1.0) < 1e-12
        assert quadratic_form(T, e(2, 0)) == INF

    def test_scale_zero_kills_infinity(self):
        T = scale(0.0, infinity_on(span(e(2, 0).reshape(-1, 1))))
        assert T.is_bounded
        assert np.abs(T.form_matrix()).max() == 0.0

    def test_scale_commutes_with_evaluation(self):
        for trial in range(50):
            rng = np.random.default_rng((9, trial))
            n = int(rng.integers(1, 5))
            M1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            T1, T2 = from_matrix(M1 + M1.conj().T), from_matrix(M2 + M2.conj().T)
            rho = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = evaluate_state(add(T1, T2), rho)
            rhs = xadd(evaluate_state(T1, rho), evaluate_state(T2, rho))
            assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


class TestCongruence:
    def test_identity(self):
        T = inf_on_e1_finite(5.0)
        S = congruence(np.eye(2), T)
        assert S.infinity_dim == 1
        assert abs(quadratic_form(S, e(2, 1)) - 5.0) < 1e-12

    def test_zero_map(self):
        T = inf_on_e1_finite(5.0)
        S = congruence(np.zeros((2, 2)), T)
        assert S.is_bounded
        assert np.abs(S.form_matrix()).max() == 0.0

    def test_projection_onto_finite_direction(self):
        # T = inf on e1 (+) 5 on e2; C maps 1-dim K onto e2 direction
        T = inf_on_e1_finite(5.0)
        C = np.array([[0.0], [1.0]])
        S = congruence(C, T)
        assert S.ambient_dim == 1
        assert S.is_bounded
        # oracle: evaluate both sides on the vector state of K
        assert abs(quadratic_form(S, np.ones(1)) - quadratic_form(T, C @ np.ones(1))) < 1e-12

    def test_composition(self):
        for trial in range(30):
            rng = np.random.default_rng((13, trial))
            T = make_extended([(INF, e(3, 0)), (1.5, e(3, 1)), (-0.5, e(3, 2))])
            C1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            C2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            lhs = congruence(C2, congruence(C1, T))
            rhs = congruence(C1 @ C2, T)
            for _ in range(5):
                xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                q1, q2 = quadratic_form(lhs, xi), quadratic_form(rhs, xi)
                assert math.isinf(q1) == math.isinf(q2)
                if math.isfinite(q1):
                    assert abs(q1 - q2) < 1e-8 * (1 + abs(q1))


class TestDiagonalCongruence:
    """_diagonal_congruence(Q* T, v) against the reference it replaces in
    pw_apply, congruence(T, _diagonal_element(v, Q)): the same infinity
    part, and form matrices, essential projectors and lower bounds to 1e-12
    relative.  The lower bound is the least eigenvalue of a finite part
    the two form with different products, so it agrees to roundoff, not
    bitwise."""

    @staticmethod
    def _compare(t_map, Q, values):
        got = _diagonal_congruence(Q.conj().T @ t_map, values)
        want = congruence(t_map, _diagonal_element(list(values), Q))
        assert got.ambient_dim == want.ambient_dim
        assert got.infinity_dim == want.infinity_dim
        scale = float(np.abs(want.form_matrix()).max(initial=0.0))
        assert np.abs(got.form_matrix() - want.form_matrix()).max(
            initial=0.0) <= 1e-12 * scale
        assert np.abs(got.essential.projector() - want.essential.projector()
                      ).max(initial=0.0) <= 1e-12
        assert abs(got.lower_bound - want.lower_bound) <= 1e-12 * scale
        return got

    def test_perspective_values_on_pairs(self):
        """tlogt's perspective values over the representation of drawn
        pairs: bounded and unbounded results, and k < n."""
        phi = perspective_of(catalog("tlogt"))
        seen = set()
        for profile in ("well_conditioned", "rank_deficient", "projection"):
            for n in range(2, 7):
                for trial in range(4):
                    A, B = gen_pair(RandomSpec(n, n, profile, 11), trial)
                    for X, Y in ((A, B), (B, A)):
                        rep = compatible_representation(X, Y)
                        w, Q = eigh(rep.r)
                        values = [phi.diagonal_value(t)
                                  for t in np.clip(w, 0.0, 1.0).tolist()]
                        got = self._compare(rep.t_map, Q, values)
                        seen.add((got.is_bounded, rep.subspace.dim < n))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_random_maps(self):
        """Random k x n maps with negative, +inf and all-+inf values, for k
        below, at and above n."""
        rng = np.random.default_rng(17)
        for k, n in ((1, 3), (2, 4), (3, 3), (4, 4), (3, 5), (4, 2)):
            for _ in range(5):
                t_map = (rng.standard_normal((k, n))
                         + 1j * rng.standard_normal((k, n)))
                Q = haar_unitary(rng, k)
                v = rng.standard_normal(k)
                self._compare(t_map, Q, v.tolist())
                v[rng.integers(k)] = INF
                self._compare(t_map, Q, v.tolist())
                got = self._compare(t_map, Q, [INF] * k)
                assert got.essential.dim == max(n - k, 0)
                assert got.lower_bound == 0.0

    def test_infinite_rows_at_the_kernel_cut(self):
        """+inf rows with singular values 1 and c KERNEL_REL_TOL: the row
        at c = 1.001 is kept in the infinity part and at c = 0.999 is not,
        on both paths.  Q = I keeps the reference's projection of T exact,
        so the two svd inputs agree and the kept side is comparable."""
        rng = np.random.default_rng(23)
        n = 4
        for c, inf_dim in ((1.001, 2), (0.999, 1)):
            for _ in range(5):
                rows = np.zeros((3, n), dtype=complex)
                rows[0, 0], rows[1, 1] = 1.0, c * KERNEL_REL_TOL
                rows[2] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                t_map = rows @ haar_unitary(rng, n)
                got = self._compare(t_map, np.eye(3, dtype=complex),
                                    [INF, INF, -0.7])
                assert got.infinity_dim == inf_dim

    def test_bad_values_raise_as_the_diagonal_element(self):
        X = np.eye(2, dtype=complex)
        for values, error in (([1.0, math.nan], FormArithmeticError),
                              ([INF, math.nan], FormArithmeticError),
                              ([-INF, math.nan], FormArithmeticError),
                              ([-INF, 1.0], ValueError)):
            with pytest.raises(error) as want:
                _diagonal_element(values, X)
            with pytest.raises(error) as got:
                _diagonal_congruence(X, values)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


class TestFormOrder:
    def test_simple_leq(self):
        ok, _ = form_leq(from_matrix(np.eye(2)), from_matrix(np.diag([2.0, 3.0])), 1e-10)
        assert ok

    def test_violation_with_witness(self):
        ok, w = form_leq(from_matrix(np.diag([2.0])), from_matrix(np.diag([1.0])), 1e-10)
        assert not ok
        assert abs(abs(w[0]) - 1.0) < 1e-8

    def test_bounded_vs_infinity_element(self):
        # diag(5,5) <= (inf on e1, 1 on e2) fails: 5 > 1 on the domain e2
        T1 = from_matrix(np.diag([5.0, 5.0]))
        T2 = inf_on_e1_finite(1.0)
        ok, w = form_leq(T1, T2, 1e-10)
        assert not ok
        assert abs(abs(w[1]) - 1.0) < 1e-8  # witness along e2
        # the reverse holds: domain shrinks, values dominate
        ok, _ = form_leq(T2, T1, 1e-10)
        assert not ok  # inf on e1 exceeds 5 there? containment full->smaller fails
        ok, _ = form_leq(from_matrix(np.diag([0.5, 0.5])), T2, 1e-10)
        assert ok

    def test_partial_order_sample(self):
        rng = np.random.default_rng(31)
        elems = []
        for _ in range(6):
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            elems.append(from_matrix(M + M.conj().T))
        for T in elems:
            ok, _ = form_leq(T, T, 1e-12)
            assert ok  # reflexive
        for T1 in elems:
            for T2 in elems:
                le12, _ = form_leq(T1, T2, 1e-10)
                le21, _ = form_leq(T2, T1, 1e-10)
                if le12 and le21:
                    assert approx_equal(T1, T2, 1e-9)
                for T3 in elems:
                    le23, _ = form_leq(T2, T3, 1e-10)
                    if le12 and le23:
                        ok, _ = form_leq(T1, T3, 3e-10)  # accumulated slack
                        assert ok


class TestClassify:
    def test_bounded(self):
        assert classify(from_matrix(np.diag([1.0, 2.0]))) == BOUNDED

    def test_proper_infinity(self):
        assert classify(inf_on_e1_finite(0.0)) == PROPER_INFINITY


class TestErrorPaths:
    def test_state_dimension_mismatch(self):
        T = from_matrix(np.eye(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_state(T, np.eye(3))

    @pytest.mark.parametrize("rho, error, message, eighs", [
        (np.eye(3) / 3, ValueError,
         "^dimension mismatch: state is 3-dim, element is 2-dim$", 0),
        (np.diag([np.nan, 1.0]), NonFiniteError,
         "^state has a non-finite", 0),
        (np.diag([1.0, -0.5]), NotPsdError, "^state is not PSD", 1),
        (np.zeros((2, 2)), ValueError, "^state must have strictly positive", 1),
    ], ids=["wrong_size", "non_finite", "not_psd", "zero_trace"])
    def test_state_rejected_before_the_kernel(self, rho, error, message, eighs,
                                              monkeypatch):
        # shape and finiteness are checked before any eigh; only the PSD
        # check's own eigh runs before a rejection, never the kernel
        T = from_matrix(np.eye(2))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        monkeypatch.setattr(extended, "_state_value",
                            lambda *a: pytest.fail("kernel reached"))
        with pytest.raises(error, match=message):
            evaluate_state(T, rho)
        assert len(calls) == eighs

    def test_congruence_shape_mismatch(self):
        T = from_matrix(np.eye(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            congruence(np.zeros((3, 2)), T)

    def test_form_sum_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            add(from_matrix(np.eye(2)), from_matrix(np.eye(3)))

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            scale(-1.0, from_matrix(np.eye(2)))


class TestSerialization:
    def test_round_trip(self):
        T = make_extended([(INF, e(3, 0)), (2.0, e(3, 1)), (-1.0, e(3, 2))])
        back = from_json_dict(to_json_dict(T))
        assert back.ambient_dim == 3
        assert back.infinity_dim == 1
        assert approx_equal(T, back, 1e-10)

    def test_zero_element_round_trip(self):
        T = zero_element(2)
        back = from_json_dict(to_json_dict(T))
        assert back.is_bounded
        assert np.abs(back.form_matrix()).max() == 0.0

    def test_round_trip_keeps_the_lower_bound(self):
        # the lower bound of an element read back, or built by the public
        # constructor, is min(0, least eigenvalue of its finite part), and
        # scale carries it
        T = from_matrix(-np.eye(2))
        back = from_json_dict(to_json_dict(T))
        assert T.lower_bound == back.lower_bound == -1.0
        assert scale(2.0, back).lower_bound == -2.0
        built = ExtendedSelfAdjoint(2, full_space(2), np.diag([3.0, -0.5]))
        assert built.lower_bound == -0.5
        assert ExtendedSelfAdjoint(2, full_space(2), np.eye(2)).lower_bound == 0.0
        assert from_json_dict(to_json_dict(infinity_on(full_space(2)))
                              ).lower_bound == 0.0


def _bits(x):
    return np.float64(x).tobytes()


def _hermitian(rng, n):
    """A Hermitian n x n matrix with eigenvalues of both signs."""
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M + M.conj().T


# +inf on e1 and a Hermitian finite part on e2, e3
UNBOUNDED3 = make_extended([(INF, e(3, 0)), (-0.7, e(3, 1)), (1.3, e(3, 2))])
LAZY_BUILDERS = {
    "from_matrix": lambda rng: from_matrix(_hermitian(rng, 3)),
    "add-bounded": lambda rng: add(from_matrix(_hermitian(rng, 3)),
                                   from_matrix(_hermitian(rng, 3))),
    "add-unbounded": lambda rng: add(UNBOUNDED3,
                                     from_matrix(_hermitian(rng, 3))),
    "congruence-bounded": lambda rng: congruence(
        rng.standard_normal((3, 2)), from_matrix(_hermitian(rng, 3))),
    "congruence-unbounded": lambda rng: congruence(
        rng.standard_normal((3, 3)), UNBOUNDED3),
    "diagonal_congruence-finite": lambda rng: _diagonal_congruence(
        rng.standard_normal((3, 3)), [-1.5, 0.25, 2.0]),
    "diagonal_congruence-inf": lambda rng: _diagonal_congruence(
        rng.standard_normal((3, 4)), [INF, -1.5, 2.0]),
    "from_json_dict": lambda rng: from_json_dict(
        to_json_dict(from_matrix(_hermitian(rng, 3)))),
    "constructor": lambda rng: ExtendedSelfAdjoint(3, full_space(3),
                                                   _hermitian(rng, 3)),
}


class TestLazyLowerBound:
    """An element built without a lower bound computes min(0, least
    eigenvalue of F) on first read, with one eigh, from the same bytes as
    the eager _least_or_zero(F), and keeps it."""

    @pytest.fixture(params=list(LAZY_BUILDERS))
    def built(self, request):
        T = LAZY_BUILDERS[request.param](np.random.default_rng(40))
        assert "lower_bound" not in vars(T)
        return T

    def test_first_read_computes_it_once(self, built, monkeypatch):
        calls = []
        solver = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or solver(*a, **k))
        first = built.lower_bound
        assert built.lower_bound is first and len(calls) == 1
        assert vars(built)["lower_bound"] is first

    def test_bitwise_the_eager_bound(self, built):
        want = extended._least_or_zero(built.finite_part)
        assert want < 0.0
        assert _bits(built.lower_bound) == _bits(want)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 7.0])
    def test_scale_as_on_an_eager_element(self, built, alpha):
        eager = extended._element(
            built.essential, built.finite_part,
            lower_bound=extended._least_or_zero(built.finite_part))
        got, want = scale(alpha, built), scale(alpha, eager)
        assert "lower_bound" in vars(got)
        assert _bits(got.lower_bound) == _bits(want.lower_bound)
        assert np.array_equal(got.finite_part, want.finite_part)

    def test_repr_reads_it(self, built):
        assert repr(built).endswith(f"lower_bound={built.lower_bound!r})")

    def test_a_given_bound_is_kept(self, built):
        F = built.finite_part
        given = ExtendedSelfAdjoint(built.ambient_dim, built.essential, F,
                                    lower_bound=-123.0)
        assert vars(given)["lower_bound"] == given.lower_bound == -123.0
        trusted = extended._element(built.essential, F, lower_bound=-5.0)
        assert trusted.lower_bound == -5.0

    def test_still_a_field(self):
        names = [f.name for f in dataclasses.fields(ExtendedSelfAdjoint)]
        assert names[-1] == "lower_bound"
        T = from_matrix(np.diag([-2.0, 1.0]))
        assert dataclasses.replace(T, lower_bound=-9.0).lower_bound == -9.0
        assert dataclasses.replace(T).lower_bound == -2.0

    def test_cheap_bounds_are_set_when_built(self):
        # the diagonal element and scale carry a float bound from the start
        T = make_extended([(INF, e(2, 0)), (-0.5, e(2, 1))])
        assert vars(T)["lower_bound"] == -0.5
        assert vars(infinity_on(full_space(2)))["lower_bound"] == 0.0
        assert vars(scale(2.0, T))["lower_bound"] == -1.0
