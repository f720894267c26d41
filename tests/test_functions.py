import math
import sys

import numpy as np
import pytest

from pwcalc.extended import INF, quadratic_form
from pwcalc.functions import (
    DomainError,
    ExtendedFunction,
    Interval,
    IntegralRepr77,
    Measure,
    approximants,
    calculus,
    catalog,
    check_operator_convex,
    check_pmi,
    check_theorem37_boundary,
    from_repr77,
    transpose,
    verify_boundary_metadata,
)
from pwcalc.suites import t_cubed
from pwcalc.variational import repr77_tlogt


class TestCatalog:
    def test_power_two_metadata(self):
        f = catalog("power", 2)
        assert f.f_at_1 == 1.0
        assert f.f_at_0plus == 0.0
        assert f.fprime_at_inf == INF

    def test_tlogt_metadata(self):
        f = catalog("tlogt")
        assert f.f_at_1 == 0.0
        assert f.f_at_0plus == 0.0
        assert f.fprime_at_inf == INF
        assert f(0.0) == 0.0  # continuous extension at zero

    def test_neglog_metadata(self):
        f = catalog("neglog")
        assert f.f_at_1 == 0.0
        assert f.f_at_0plus == INF
        assert f.fprime_at_inf == 0.0

    def test_inverse_power_metadata(self):
        f = catalog("power", -1)
        assert f.f_at_0plus == INF
        assert f.fprime_at_inf == 0.0
        assert f.has_tag("operator_monotone_decreasing")

    def test_rejects_non_operator_convex_power(self):
        with pytest.raises(ValueError, match="rejected"):
            catalog("power", 3)
        with pytest.raises(ValueError, match="rejected"):
            catalog("power", 0.5)

    @pytest.mark.parametrize("name,param", [
        ("power", 2), ("power", 1.5), ("power", -1), ("power", -0.5),
        ("tlogt", None), ("neglog", None), ("glambda", 0.5), ("gn", 3),
        ("square_minus", None), ("max1", None),
    ])
    def test_declared_boundary_metadata_verified(self, name, param):
        f = catalog(name, param) if param is not None else catalog(name)
        assert verify_boundary_metadata(f)

    def test_glambda_values(self):
        g = catalog("glambda", 2.0)
        assert abs(g(1.0)) == 0.0
        assert g.f_at_0plus == 0.5
        assert g.fprime_at_inf == 1.0

    def test_gn_matches_glambda_scaling(self):
        gn = catalog("gn", 4)
        gl = catalog("glambda", 4.0)
        for t in (0.3, 1.0, 2.5):
            assert abs(gn(t) - 4 * gl(t)) < 1e-14


class TestRepr77:
    def test_linear_term(self):
        f = from_repr77(IntegralRepr77(0.0, 1.0, 0.0, 0.0, Measure.zero()))
        for t in (0.2, 1.0, 3.0):
            assert abs(f(t) - (t - 1.0)) < 1e-14
        assert f.fprime_at_inf == 1.0
        assert f.f_at_0plus == -1.0

    def test_square_term_infinite_slope(self):
        f = from_repr77(IntegralRepr77(0.0, 0.0, 1.0, 0.0, Measure.zero()))
        assert f.fprime_at_inf == INF  # c > 0 forces alpha = inf
        assert f.f_at_0plus == 1.0

    def test_value_at_one_is_a_exactly(self):
        mu = Measure(np.array([0.5, 2.0]), np.array([0.3, 0.7]))
        f = from_repr77(IntegralRepr77(1.25, -2.0, 0.5, 0.25, mu))
        assert f(1.0) == 1.25

    def test_tlogt_representation_pointwise(self):
        f = from_repr77(repr77_tlogt(200))
        g = catalog("tlogt")
        for t in np.geomspace(0.1, 10.0, 40):
            assert abs(f(float(t)) - g(float(t))) < 1e-8
        assert f.fprime_at_inf == INF  # infinite-mass flag propagates
        assert abs(f.f_at_0plus) < 1e-8  # beta = -1 + int (1+l)^-2 dl = 0


class TestApproximants:
    def test_hand_derived_first_approximant(self):
        # f = (t-1)^2: f_1(t) = (t-1)^2/(t+1), alpha_1 = beta_1 = 1,
        # nu_1 = 2 delta_1  (plug n=1 into the defining formulas)
        r = IntegralRepr77(0.0, 0.0, 1.0, 0.0, Measure.zero())
        app = approximants(r, 1)
        assert app.alpha_n == 1.0
        assert app.beta_n == 1.0
        assert np.allclose(app.nu_n.locations, [1.0])
        assert np.allclose(app.nu_n.weights, [2.0])
        for t in np.linspace(0.05, 5.0, 31):
            assert abs(app.f_n(float(t)) - (t - 1) ** 2 / (t + 1)) < 1e-14

    def test_rewrite_identity(self):
        # sum form vs alpha_n t + beta_n - h_n(t) on a wide log grid
        r = IntegralRepr77(0.3, -1.0, 0.7, 0.2,
                           Measure(np.array([0.4, 3.0]), np.array([1.0, 0.5])))
        for n in (1, 2, 7):
            app = approximants(r, n)
            for t in np.geomspace(1e-3, 1e3, 61):
                direct = app.f_n(float(t))
                rewritten = app.alpha_n * t + app.beta_n - app.h_n(float(t))
                assert abs(direct - rewritten) < 1e-9 * (1 + abs(direct))

    def test_monotone_nondecreasing_in_n(self):
        r = repr77_tlogt(100)
        f = from_repr77(r)
        grid = np.geomspace(0.05, 20.0, 25)
        prev = None
        for n in (1, 2, 4, 8, 16):
            app = approximants(r, n)
            vals = np.array([app.f_n(float(t)) for t in grid])
            if prev is not None:
                assert np.all(vals >= prev - 1e-12)
            assert np.all(vals <= np.array([f(float(t)) for t in grid]) + 1e-9)
            prev = vals

    def test_pure_linear_is_fixed_point(self):
        r = IntegralRepr77(0.0, 1.0, 0.0, 0.0, Measure.zero())
        for n in (1, 5):
            app = approximants(r, n)
            assert app.nu_n.natoms == 0
            for t in (0.2, 1.0, 4.0):
                assert abs(app.f_n(t) - (t - 1.0)) < 1e-14

    def test_convergence_at_fixed_point(self):
        # f_n(2) = n/(n+2) climbs to f(2) = 1; monotone, no stated rate
        r = IntegralRepr77(0.0, 0.0, 1.0, 0.0, Measure.zero())
        f = from_repr77(r)
        vals = [approximants(r, n).f_n(2.0) for n in (1, 2, 4, 8, 32, 512)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= f(2.0)
        assert abs(vals[-1] - f(2.0)) < 5e-3


class TestTranspose:
    def test_power_two_becomes_inverse(self):
        f = transpose(catalog("power", 2))
        g = catalog("power", -1)
        for t in (0.2, 1.0, 5.0):
            assert abs(f(t) - g(t)) < 1e-14
        assert f.f_at_0plus == INF
        assert f.fprime_at_inf == 0.0

    def test_tlogt_becomes_neglog(self):
        f = transpose(catalog("tlogt"))
        g = catalog("neglog")
        for t in (0.3, 1.0, 4.0):
            assert abs(f(t) - g(t)) < 1e-14

    def test_involution(self):
        f = catalog("glambda", 0.7)
        ff = transpose(transpose(f))
        for t in np.geomspace(0.05, 20, 21):
            assert abs(ff(float(t)) - f(float(t))) < 1e-12

    def test_metadata_swap_with_infinities(self):
        f = catalog("tlogt")  # alpha = inf, beta = 0
        ft = transpose(f)
        assert ft.fprime_at_inf == 0.0
        assert ft.f_at_0plus == INF


class TestCalculus:
    def test_square_diagonal(self):
        T = calculus(catalog("power", 2), np.diag([1.0, 3.0]))
        assert np.abs(T.form_matrix() - np.diag([1.0, 9.0])).max() < 1e-12

    def test_neglog_kernel_becomes_infinity(self):
        T = calculus(catalog("neglog"), np.diag([0.0, 1.0]))
        assert T.infinity_dim == 1
        assert abs(quadratic_form(T, np.array([0.0, 1.0]))) < 1e-12

    def test_tlogt_elementary_values(self):
        T = calculus(catalog("tlogt"), np.diag([1.0, math.e]))
        assert np.abs(T.form_matrix() - np.diag([0.0, math.e])).max() < 1e-12

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(DomainError, match="-1"):
            calculus(catalog("power", 2), np.diag([-1.0, 1.0]))

    def test_unitary_covariance(self):
        for trial in range(20):
            rng = np.random.default_rng((17, trial))
            n = 4
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            U = np.linalg.qr(X)[0]
            A = np.diag(rng.uniform(0.1, 3.0, n))
            f = catalog("tlogt")
            lhs = calculus(f, U.conj().T @ A @ U)
            rhs = calculus(f, A)
            for _ in range(4):
                xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                q1 = quadratic_form(lhs, xi)
                q2 = quadratic_form(rhs, U @ xi)
                assert abs(q1 - q2) < 1e-9 * (1 + abs(q1))

    def test_package_name_is_the_two_variable_module(self):
        # README documents pwcalc.calculus as the module of the two-variable
        # calculus; the spectral calculus f(A) is pwcalc.functions.calculus
        import pwcalc
        import pwcalc.functions

        assert pwcalc.calculus is sys.modules["pwcalc.calculus"]
        assert pwcalc.functions.calculus is calculus and callable(calculus)


class TestConvexityChecker:
    def test_square_passes(self):
        rep = check_operator_convex(catalog("power", 2), dims=(4, 2),
                                    trials=300, seed=0)
        assert rep.ok

    def test_cube_fails_with_witness(self):
        rep = check_operator_convex(t_cubed(), dims=(4, 2), trials=300, seed=0)
        assert not rep.ok
        rec = rep.failures[0]
        assert rec["A"].shape == (4, 4)
        assert rec["V"].shape == (4, 2)
        assert rec["witness"] is not None

    def test_infinite_except_one_point_passes_vacuously(self):
        f = ExtendedFunction(
            "spike", Interval(0.0, INF, True, False),
            lambda t: 0.0 if t == 1.0 else INF,
        )
        rep = check_operator_convex(f, dims=(3, 2), trials=50, seed=1)
        assert rep.ok


class TestBoundaryChecker:
    def test_square_perspective_diagonal_passes(self):
        # t -> t^2/(1-t) on [0,1] with value inf at the right endpoint
        def diag(t):
            if t >= 1.0:
                return INF
            return t * t / (1.0 - t)
        f = ExtendedFunction("sq-diag", Interval(0.0, 1.0, True, True), diag)
        rep = check_theorem37_boundary(f, trials=50, seed=2)
        assert rep.ok

    def test_boundary_jump_down_fails(self):
        def bad(t):
            return 0.0 if t == 1.0 else 1.0  # f(1) < limit 1
        f = ExtendedFunction("bad", Interval(0.0, 1.0, True, True), bad)
        rep = check_theorem37_boundary(f, trials=10, seed=3)
        assert any("endpoint" in rec for rec in rep.failures)

    def test_tlogt_perspective_diagonal_passes(self):
        def diag(t):
            if t >= 1.0:
                return INF
            if t == 0.0:
                return 0.0
            return t * math.log(t / (1.0 - t))
        f = ExtendedFunction("tlogt-diag", Interval(0.0, 1.0, True, True), diag)
        rep = check_theorem37_boundary(f, trials=50, seed=4)
        assert rep.ok


class TestPmiChecker:
    def test_square_passes(self):
        assert check_pmi(catalog("power", 2), trials=200, seed=0).ok

    def test_affine_shift_fails(self):
        f = ExtendedFunction("t+1", Interval(0.0, INF, True, False),
                             lambda t: t + 1.0)
        rep = check_pmi(f, trials=200, seed=0)
        assert not rep.ok
        rec = rep.failures[0]
        assert rec["lhs"] < rec["rhs"]

    def test_max_one_passes(self):
        assert check_pmi(catalog("max1"), trials=200, seed=0).ok
