import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwcalc
from pwcalc.calculus import ENDPOINT_TOL, compatible_representation
from pwcalc.extended import INF, evaluate_state, quadratic_form
from pwcalc.functions import IntegralRepr77, Measure, catalog, from_repr77
from pwcalc.linalg import spectral_norm, vector_state
from pwcalc.perspectives import (
    is_absolutely_continuous,
    lebesgue_decomposition,
    parallel_sum,
    perspective_apply,
)
from pwcalc.suites import RandomSpec, gen_pair, random_state
from pwcalc.variational import (
    SINGULAR_MASS_REL_TOL,
    Decomposition,
    _gauss_jacobi,
    _integrand,
    _singular,
    constant_decomposition,
    integral_eval_91,
    integral_eval_92,
    make_quadrature,
    optimal_decomposition,
    optimizer_decomposition,
    repr77_atom,
    repr77_square_minus,
    repr77_tlogt,
    repr97_square,
    repr97_t_alpha,
    two_projections,
    variational_bound_94,
    variational_envelope,
)
from pwcalc.functions import approximants
from reference import r_spectrum_weights

P87 = np.diag([1.0, 0.0])
Q87 = 0.5 * np.ones((2, 2))


class TestIntegralEval91:
    def test_square_minus_reduction(self):
        # (t-1)^2 alone: a0 = -2, b0 = 1, c = 1
        spec = RandomSpec(3, 3, "well_conditioned", seed=20)
        A, B = gen_pair(spec, 0)
        rho = random_state(np.random.default_rng(0), 3)
        t2 = evaluate_state(perspective_apply(catalog("power", 2), A, B).value,
                            rho)
        expected = t2 - 2 * float(np.trace(rho @ A).real) + float(
            np.trace(rho @ B).real)
        got = integral_eval_91(repr77_square_minus(), A, B, rho)
        assert abs(got - expected) < 1e-9 * (1 + abs(expected))

    def test_atomic_measure_matches_g1_perspective(self):
        # mu = delta_1 alone is the perspective of g_1 = (t-1)^2/(t+1)
        spec = RandomSpec(3, 3, "rank_deficient", seed=21)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rho = random_state(np.random.default_rng((22, trial)), 3)
            got = integral_eval_91(repr77_atom(1.0), A, B, rho)
            direct = evaluate_state(
                perspective_apply(catalog("glambda", 1.0), A, B).value, rho)
            assert abs(got - direct) < 1e-9 * (1 + abs(direct))

    def test_tlogt_quadrature_dual_path(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=13)
        r = repr77_tlogt(200)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rho = random_state(np.random.default_rng((23, trial)), 4)
            got = integral_eval_91(r, A, B, rho)
            direct = evaluate_state(
                perspective_apply(catalog("tlogt"), A, B).value, rho)
            assert abs(got - direct) < 1e-6 * (1 + abs(direct))

    def test_infinite_classification_agreement(self):
        # singular pair + state on the singular direction: both paths inf
        rho = vector_state(np.array([1.0, 0.0]))
        r = repr77_tlogt(120)
        got = integral_eval_91(r, P87, Q87, rho)
        direct = evaluate_state(
            perspective_apply(catalog("tlogt"), P87, Q87).value, rho)
        assert math.isinf(got) and math.isinf(direct)

    def test_square_term_infinity(self):
        rho = vector_state(np.array([1.0, 0.0]))
        got = integral_eval_91(repr77_square_minus(), P87, Q87, rho)
        assert math.isinf(got)


class TestIntegralEval92:
    def test_square_exact(self):
        spec = RandomSpec(3, 3, "rank_deficient", seed=24)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rho = random_state(np.random.default_rng((25, trial)), 3)
            got = integral_eval_92(repr97_square(), A, B, rho)
            direct = evaluate_state(
                perspective_apply(catalog("power", 2), A, B).value, rho)
            if math.isinf(direct):
                assert math.isinf(got)
            else:
                assert abs(got - direct) < 1e-9 * (1 + abs(direct))

    def test_t_alpha_quadrature(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=26)
        r = repr97_t_alpha(1.5, 200)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rho = random_state(np.random.default_rng((27, trial)), 4)
            got = integral_eval_92(r, A, B, rho)
            direct = evaluate_state(
                perspective_apply(catalog("power", 1.5), A, B).value, rho)
            assert abs(got - direct) < 1e-5 * (1 + abs(direct))

    def test_singular_agreement(self):
        rho = vector_state(np.array([1.0, 0.0]))
        r = repr97_t_alpha(1.5, 120)
        got = integral_eval_92(r, P87, Q87, rho)
        direct = evaluate_state(
            perspective_apply(catalog("power", 1.5), P87, Q87).value, rho)
        assert math.isinf(got) and math.isinf(direct)


@pytest.mark.parametrize("evaluate, r", [
    (integral_eval_91, repr77_square_minus()),
    (integral_eval_92, repr97_square()),
], ids=["91", "92"])
def test_square_term_reads_the_validated_state(evaluate, r, monkeypatch):
    # 1 eigh of the stack (rho, A, B, A+B) validates rho, A and B and
    # gives the spectrum of A+B, 1 gives R's, and 2 the perspective of t^2,
    # whose state value does not validate rho again nor read its lower bound
    A, B = gen_pair(RandomSpec(4, 4, "rank_deficient", seed=24), 0)
    rho = random_state(np.random.default_rng(25), 4)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    evaluate(r, A, B, rho)
    assert len(calls) == 4


@pytest.mark.parametrize("evaluate, r", [
    (integral_eval_91, repr77_tlogt()),
    (integral_eval_92, repr97_t_alpha(1.5)),
], ids=["91", "92"])
def test_state_of_another_size_is_rejected_before_any_eigh(evaluate, r,
                                                           monkeypatch):
    A, B = np.array([[2.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 0.5])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    with pytest.raises(ValueError, match=r"^dimension mismatch: state is "
                                         r"3-dim, pair is 2-dim$"):
        evaluate(r, A, B, np.eye(3) / 3)
    assert not calls


@pytest.mark.parametrize("evaluate, r, f", [
    (integral_eval_91, repr77_tlogt(), catalog("tlogt")),
    (integral_eval_92, repr97_t_alpha(1.5), catalog("power", 1.5)),
], ids=["91", "92"])
def test_integrand_does_not_overflow_near_the_float_limit(evaluate, r, f):
    # a valid pair of norm 1e307: eq. 9.1's rho(B)/l term overflowed at the
    # smallest nodes, then cancelled as inf - inf
    A, B, rho = np.diag([1e307, 1.0]), np.diag([1e307, 2.0]), np.eye(2) / 2
    want = evaluate_state(perspective_apply(f, A, B).value, rho)
    assert abs(evaluate(r, A, B, rho) - want) <= 1e-12 * 1e307


def _pairing(rho, M) -> float:
    return float(np.trace(rho @ M).real)


def _oracle_pairings(A, B, rho, lam) -> np.ndarray:
    """rho(A : lB) at every node, one parallel_sum per node."""
    return np.array([_pairing(rho, parallel_sum(A, l * B)) for l in lam])


def _oracle_singular(rho, A, B) -> bool:
    """rho loads the B-singular part of A, from lebesgue_decomposition."""
    mass = _pairing(rho, lebesgue_decomposition(A, B).singular_part)
    tr = float(np.trace(rho).real)
    return mass > SINGULAR_MASS_REL_TOL * tr * (1.0 + spectral_norm(A))


def _oracle_eval(r, A, B, rho, ps) -> float:
    """integral_eval_91/92 for representations without t^2 terms, from
    per-node parallel sums `ps`, with the infinite-mass branches decided by
    lebesgue_decomposition."""
    assert r.c == 0 and getattr(r, "d", 0) == 0
    ra, rb = _pairing(rho, A), _pairing(rho, B)
    if isinstance(r, IntegralRepr77):
        mu = r.mu
        if mu.infinite_mass and _oracle_singular(rho, A, B):
            return INF
        if mu.infinite_inv_mass and _oracle_singular(rho, B, A):
            return INF
        lam = mu.locations
        terms = ra + rb / lam - ((1.0 + lam) / lam) ** 2 * ps
        return r.b * ra + (r.a - r.b) * rb + float(np.dot(mu.weights, terms))
    nu = r.nu
    if nu.infinite_mass and _oracle_singular(rho, A, B):
        return INF
    return r.fp0 * ra + r.f0 * rb + float(np.dot(nu.weights, ra - ps))


def _integral_scale(r, A, B, rho, ps) -> float:
    """Sum of the magnitudes the integral cancels: its relative-error base."""
    ra, rb = _pairing(rho, A), _pairing(rho, B)
    if isinstance(r, IntegralRepr77):
        lam, w = r.mu.locations, r.mu.weights
        return float(np.dot(w, ra + rb / lam + ((1.0 + lam) / lam) ** 2 * np.abs(ps)))
    return float(np.dot(r.nu.weights, ra + np.abs(ps)))


# 48-node rules keep the oracle's per-node loop short; the comparison is
# between evaluation paths, not of quadrature accuracy.
ORACLE_REPRS = (
    ("tlogt:77", repr77_tlogt(48), integral_eval_91),
    ("tlogt:both-masses", IntegralRepr77(0.0, 1.0, 0.0, 0.0,
                                         make_quadrature("tlogt", 48)),
     integral_eval_91),
    ("t^1.5:97", repr97_t_alpha(1.5, 48), integral_eval_92),
)


class TestSpectrumPathOracle:
    """The one-spectrum-of-R evaluation against one parallel_sum per node."""

    @pytest.mark.parametrize("profile", ["well_conditioned", "rank_deficient",
                                         "projection"])
    def test_matches_per_node_parallel_sums(self, profile):
        infinite = finite = 0
        for n in range(2, 7):
            spec = RandomSpec(n, n, profile, seed=2105)
            for trial in range(3):
                A, B = gen_pair(spec, trial)
                rho = random_state(np.random.default_rng((2106, n, trial)), n)
                t, m = r_spectrum_weights(A, B, rho)
                ra, rb = _pairing(rho, A), _pairing(rho, B)
                for name, r, evaluate in ORACLE_REPRS:
                    lam = (r.mu if isinstance(r, IntegralRepr77) else r.nu).locations
                    ps = _oracle_pairings(A, B, rho, lam)
                    # the closed-form integrand against the oracle's terms,
                    # relative to the sum of those terms' magnitudes
                    if isinstance(r, IntegralRepr77):
                        num = (2.0 * t - 1.0) ** 2
                        a, b = ra + rb / lam, ((1.0 + lam) / lam) ** 2 * ps
                    else:
                        num, a, b = t * t, ra, ps
                    err = np.abs(_integrand(num, t, 1.0 - t, lam) @ m - (a - b))
                    assert (err <= 1e-9 * (a + np.abs(b))).all(), (name, n, trial)
                    want = _oracle_eval(r, A, B, rho, ps)
                    got = evaluate(r, A, B, rho)
                    assert math.isinf(got) == math.isinf(want), (name, n, trial)
                    if math.isinf(want):
                        infinite += 1
                        continue
                    finite += 1
                    scale = 1.0 + _integral_scale(r, A, B, rho, ps)
                    assert abs(got - want) <= 1e-9 * scale, (name, n, trial)
        assert finite and (infinite or profile == "well_conditioned")

    def test_both_singular_branches(self):
        # A = P, B = Q: each is singular relative to the other
        P, Q = P87, Q87
        rho = np.eye(2) / 2
        assert not is_absolutely_continuous(P, Q)
        assert not is_absolutely_continuous(Q, P)
        only_a = IntegralRepr77(0.0, 1.0, 0.0, 0.0,
                                Measure(np.array([1.0]), np.array([1.0]),
                                        infinite_mass=True))
        only_b = IntegralRepr77(0.0, 1.0, 0.0, 0.0,
                                Measure(np.array([1.0]), np.array([1.0]),
                                        infinite_inv_mass=True))
        for r in (only_a, only_b):
            assert math.isinf(integral_eval_91(r, P, Q, rho))
        # states that miss the singular directions keep each branch finite
        e2 = vector_state(np.array([0.0, 1.0]))
        assert math.isfinite(integral_eval_91(only_a, P, Q, e2))
        assert math.isinf(integral_eval_91(only_b, P, Q, e2))

    @pytest.mark.parametrize("gap", [1e-9, 1e-11])
    def test_endpoint_cut_decided_as_lebesgue(self, gap):
        # top R eigenvalue 1 - gap: 10x on each side of ENDPOINT_TOL
        A = np.eye(2)
        B = np.diag([1.0, gap / (1.0 - gap)])
        rho = np.eye(2) / 2
        top = np.linalg.eigvalsh(compatible_representation(A, B).r)[-1]
        assert abs((1.0 - top) - gap) < 1e-3 * gap
        singular = not is_absolutely_continuous(A, B)
        assert singular == (gap < ENDPOINT_TOL)
        assert singular == (np.abs(lebesgue_decomposition(A, B).singular_part).max() > 0)
        got = integral_eval_91(repr77_tlogt(48), A, B, rho)
        assert math.isinf(got) == singular
        got = integral_eval_92(repr97_t_alpha(1.5, 48), A, B, rho)
        assert math.isinf(got) == singular
        # the same cut read from the other side: with the pair swapped, R's
        # eigenvalue is `gap` and the infinite_inv_mass branch decides
        both = IntegralRepr77(0.0, 1.0, 0.0, 0.0, make_quadrature("tlogt", 48))
        assert math.isinf(integral_eval_91(both, B, A, rho)) == singular


def _count_svd(monkeypatch) -> list:
    """Count LAPACK SVDs, also those np.linalg.norm(M, 2) makes inside
    numpy."""
    calls = []
    for module in (np.linalg, sys.modules["numpy.linalg._linalg"]):
        svd = module.svd
        monkeypatch.setattr(module, "svd", lambda *a, svd=svd, **k:
                            calls.append(1) or svd(*a, **k))
    return calls


class TestSingularMass:
    def test_no_norm_without_singular_mass(self, monkeypatch):
        # full-rank B: no R eigenvalue at 1, so the singular mass is 0
        A, B = gen_pair(RandomSpec(3, 3, "well_conditioned", seed=20), 0)
        rho = random_state(np.random.default_rng(0), 3)
        calls = _count_svd(monkeypatch)
        assert math.isfinite(integral_eval_91(repr77_tlogt(48), A, B, rho))
        assert math.isfinite(integral_eval_92(repr97_t_alpha(1.5, 48), A, B, rho))
        assert not calls

    @pytest.mark.parametrize("profile", ["rank_deficient", "projection"])
    def test_singular_mass_needs_no_svd(self, profile, monkeypatch):
        # the norms of A and B come from the eigh that validates them
        spec = RandomSpec(4, 4, profile, seed=20)
        calls = _count_svd(monkeypatch)
        infinite = 0
        for trial in range(6):
            A, B = gen_pair(spec, trial)
            rho = random_state(np.random.default_rng((20, trial)), 4)
            for r, evaluate in ((repr77_tlogt(48), integral_eval_91),
                                (repr97_t_alpha(1.5, 48), integral_eval_92)):
                infinite += math.isinf(evaluate(r, A, B, rho))
        assert infinite and not calls

    def test_decision_unchanged(self):
        # the cut scales with the pair: SINGULAR_MASS_REL_TOL Tr rho |A|
        A, _ = gen_pair(RandomSpec(3, 3, "rank_deficient", seed=20), 0)
        rho = random_state(np.random.default_rng(0), 3)
        tr = float(np.trace(rho).real)
        for scale in (1.0, 1e-12, 1e100):
            norm = spectral_norm(scale * A)
            cut = SINGULAR_MASS_REL_TOL * tr * norm
            for mass in (0.0, cut / 2, cut, cut * (1 + 1e-12), 2 * cut,
                         scale):
                assert _singular(mass, tr, norm) == (mass > cut), mass


class TestTwoProjections:
    def test_example_87(self):
        out = two_projections(catalog("power", 2), P87, Q87)
        direct = perspective_apply(catalog("power", 2), P87, Q87).value
        assert out.infinity_dim == direct.infinity_dim == 1
        assert out.essential.same_as(direct.essential, 1e-8)

    def test_equal_projections(self):
        P = np.diag([1.0, 0.0, 1.0])
        f = catalog("power", 2)
        out = two_projections(f, P, P)
        assert out.is_bounded
        assert np.abs(out.form_matrix() - f.f_at_1 * P).max() < 1e-10

    def test_generic_pairs_match_direct(self):
        spec = RandomSpec(4, 4, "projection", seed=17)
        f = catalog("tlogt")
        for trial in range(15):
            P, Q = gen_pair(spec, trial)
            out = two_projections(f, P, Q)
            direct = perspective_apply(f, P, Q).value
            assert out.infinity_dim == direct.infinity_dim
            rng = np.random.default_rng((28, trial))
            for _ in range(6):
                xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                q1, q2 = quadratic_form(out, xi), quadratic_form(direct, xi)
                assert math.isinf(q1) == math.isinf(q2)
                if math.isfinite(q1):
                    assert abs(q1 - q2) < 1e-8 * (1 + abs(q1) + abs(q2))

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError, match="idempotent"):
            two_projections(catalog("power", 2), 2 * P87, Q87)


class TestOptimalDecomposition:
    def test_a_zero(self):
        xi = np.array([1.0, 2.0])
        eta, zeta = optimal_decomposition(np.zeros((2, 2)), np.eye(2), xi, 1.0)
        assert np.abs(eta - xi).max() < 1e-12
        assert np.abs(zeta).max() < 1e-12

    def test_identity_pair(self):
        xi = np.array([1.0, 1.0])
        eta, zeta = optimal_decomposition(np.eye(2), np.eye(2), xi, 1.0)
        assert np.abs(eta - xi / 2).max() < 1e-12
        assert np.abs(zeta - xi / 2).max() < 1e-12
        val = np.vdot(eta, eta).real + np.vdot(zeta, zeta).real
        assert abs(val - np.linalg.norm(xi) ** 2 / 2) < 1e-12  # <(I:I)xi,xi>

    def test_attains_parallel_sum(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=21)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((29, trial))
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            t = float(rng.uniform(0.1, 3.0))
            eta, zeta = optimal_decomposition(A, B, xi, t)
            assert np.abs(eta + zeta - xi).max() < 1e-12
            val = float(np.vdot(eta, A @ eta).real) + t * float(
                np.vdot(zeta, B @ zeta).real)
            ps = float(np.vdot(xi, parallel_sum(A, t * B) @ xi).real)
            assert abs(val - ps) < 1e-9 * (1 + abs(ps))

    def test_kernel_goes_to_eta(self):
        A = np.diag([1.0, 0.0])
        B = np.diag([1.0, 0.0])
        xi = np.array([1.0, 1.0])
        eta, zeta = optimal_decomposition(A, B, xi, 1.0)
        assert abs(eta[1] - 1.0) < 1e-12  # kernel component kept in eta
        assert abs(zeta[1]) < 1e-12


class TestVariationalBound:
    def test_admissible_never_exceeds_direct(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=30)
        r = repr77_square_minus()
        f = from_repr77(r)
        for trial in range(20):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((31, trial))
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            direct = quadratic_form(perspective_apply(f, A, B).value, xi)
            n = int(rng.integers(1, 5))
            # random admissible piecewise decomposition
            app = approximants(r, n)
            cuts = np.sort(rng.uniform(1.0 / n, float(n), size=2))
            pieces = []
            lo = 1.0 / n
            for hi in list(cuts) + [float(n)]:
                eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                pieces.append((lo, hi, eta, xi - eta))
                lo = hi
            dec = Decomposition(1.0 / n, float(n), tuple(pieces), xi)
            val = variational_bound_94(r, A, B, xi, n, dec)
            assert val <= direct + 1e-8 * (1 + abs(direct))

    def test_optimizer_attains_supremum(self):
        # the optimizer decomposition hits rho(phi_{f_n}) for its n
        spec = RandomSpec(3, 3, "well_conditioned", seed=32)
        r = repr77_square_minus()
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            rng = np.random.default_rng((33, trial))
            xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            for n in (1, 2, 5):
                app = approximants(r, n)
                dec = optimizer_decomposition(app.nu_n, A, B, xi, 1.0 / n,
                                              float(n))
                val = variational_bound_94(r, A, B, xi, n, dec)
                target = quadratic_form(
                    perspective_apply(app.f_n, A, B).value, xi)
                assert abs(val - target) < 1e-7 * (1 + abs(target))

    def test_envelope_monotone(self):
        spec = RandomSpec(4, 4, "well_conditioned", seed=34)
        A, B = gen_pair(spec, 0)
        rng = np.random.default_rng(35)
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        r = repr77_tlogt(60)
        env = variational_envelope(r, A, B, xi, (1, 2, 4, 8, 16))
        vals = [v for _, v in env]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        direct = quadratic_form(
            perspective_apply(catalog("tlogt"), A, B).value, xi)
        assert vals[-1] <= direct + 1e-8

    def test_target_mismatch_rejected(self):
        A = B = np.eye(2)
        xi = np.array([1.0, 0.0])
        dec = constant_decomposition(0.5, 2.0, xi, np.zeros(2))
        with pytest.raises(ValueError, match="target"):
            variational_bound_94(repr77_square_minus(), A, B,
                                 np.array([0.0, 1.0]), 2, dec)

    def test_coverage_checked(self):
        A = B = np.eye(2)
        xi = np.array([1.0, 0.0])
        dec = constant_decomposition(0.9, 1.5, xi, np.zeros(2))
        with pytest.raises(ValueError, match="covers"):
            variational_bound_94(repr77_square_minus(), A, B, xi, 4, dec)


class TestQuadrature:
    def test_tlogt_kernel_identity(self):
        # int (t/(1+l) - t/(t+l)) dl = t log t
        mu = make_quadrature("tlogt", 200)
        for t in (0.5, 2.0, 7.0):
            got = mu.integrate(lambda l: t / (1 + l) - t / (t + l))
            assert abs(got - t * math.log(t)) < 1e-6

    def test_t_alpha_kernel_identity(self):
        nu = make_quadrature("t_alpha", 200, alpha=1.5)
        for t in (0.5, 3.0, 10.0):
            got = nu.integrate(lambda l: t * t / (t + l))
            assert abs(got - t ** 1.5) < 1e-5

    def test_refinement_improves(self):
        errs = []
        for nodes in (25, 50, 100):
            mu = make_quadrature("tlogt", nodes)
            got = mu.integrate(lambda l: 2.0 / (1 + l) - 2.0 / (2.0 + l))
            errs.append(abs(got - 2.0 * math.log(2.0)))
        assert errs[-1] <= errs[0]

    def test_node_floor(self):
        with pytest.raises(ValueError, match="nodes"):
            make_quadrature("tlogt", 8)

    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.7, 1.95])
    # scipy's own recurrence divides 0/0 where a + b = -1
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_gauss_jacobi_matches_scipy(self, alpha):
        special = pytest.importorskip("scipy.special")
        a, b = 1.0 - alpha, alpha - 2.0
        x, w = _gauss_jacobi(200, a, b)
        xs, ws = special.roots_jacobi(200, a, b)
        assert np.abs(x - xs).max() < 1e-14
        assert (np.abs(w - ws) / ws).max() < 1e-8

    def test_import_leaves_scipy_out(self):
        code = "import sys, pwcalc.cli; print('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(pwcalc.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_flags(self):
        assert make_quadrature("tlogt", 32).infinite_mass
        assert repr77_tlogt(32).mu.infinite_mass
        assert not repr77_tlogt(32).mu.infinite_inv_mass
        assert repr97_t_alpha(1.5, 32).nu.infinite_mass
