import math
from dataclasses import replace

import numpy as np
import pytest

from pwcalc.extended import INF, evaluate_state, form_leq, quadratic_form
from pwcalc.functions import catalog, transpose
from pwcalc.linalg import hermitian_part, vector_state
from pwcalc.perspectives import (
    boundedness_chain,
    check_ah_inequality,
    check_positive_map_monotonicity,
    connection,
    connection_generator,
    connection_phi,
    epsilon_diverges,
    epsilon_limit,
    epsilon_monotone,
    essential_part,
    is_absolutely_continuous,
    kraus_apply,
    lebesgue_decomposition,
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
    repr77_tlogt,
    repr97_t_alpha,
)

A712 = np.array([[1.0, 1.0], [1.0, 1.0]])
B712 = np.diag([1.0, 2.0])
P87 = np.diag([1.0, 0.0])
Q87 = 0.5 * np.ones((2, 2))


R77_TLOGT = repr77_tlogt(48)
R97_T15 = repr97_t_alpha(1.5, 48)


# _pair_spectrum makes one eigh per validated input, one of A + B and one of
# R (the integrals one more, for rho); perspective_apply keeps the 7 of
# compatible_representation and _assemble
@pytest.mark.parametrize("call, eigh_calls", [
    (lambda A, B, rho: connection(connection_generator("geometric"), A, B), 4),
    (lambda A, B, rho: lebesgue_decomposition(A, B), 4),
    (lambda A, B, rho: is_absolutely_continuous(A, B), 4),
    (lambda A, B, rho: integral_eval_91(R77_TLOGT, A, B, rho), 5),
    (lambda A, B, rho: integral_eval_92(R97_T15, A, B, rho), 5),
    (lambda A, B, rho: perspective_apply(catalog("tlogt"), A, B), 7),
], ids=["connection", "lebesgue_decomposition", "is_absolutely_continuous",
        "integral_eval_91", "integral_eval_92", "perspective_apply"])
def test_eigh_calls_per_call(call, eigh_calls, monkeypatch):
    A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=5), 0)
    rho = random_state(np.random.default_rng(5), 4)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    call(A, B, rho)
    assert len(calls) == eigh_calls


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
