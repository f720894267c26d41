import functools
import json

import numpy as np
import pytest

from pwcalc import linalg, suites
from pwcalc.extended import ExtendedSelfAdjoint
from pwcalc.functions import catalog
from pwcalc.linalg import spectral_norm
from pwcalc.perspectives import connection_generator
from pwcalc.suites import (
    RandomSpec,
    candidate_anticommutator,
    candidate_biased_perspective,
    candidate_connection,
    candidate_negated_connection,
    candidate_parallel_sum,
    candidate_perspective,
    gen_pair,
    recover_generator,
    replay_convexity_failure,
    suite_axioms_thm101,
    suite_axioms_thm103,
    suite_connection_cor107,
    suite_continuity,
    suite_convexity,
    t_cubed,
)

SPEC = RandomSpec(4, 4, "well_conditioned", seed=42)


class TestGenPair:
    def test_projection_profile(self):
        spec = RandomSpec(3, 3, "projection", seed=1)
        for trial in range(10):
            P, Q = gen_pair(spec, trial)
            assert spectral_norm(P @ P - P) < 1e-10
            assert spectral_norm(Q @ Q - Q) < 1e-10

    def test_commuting_profile(self):
        spec = RandomSpec(2, 6, "commuting_pair", seed=2)
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            assert spectral_norm(A @ B - B @ A) <= 1e-10

    def test_dominated_profile_certified(self):
        spec = RandomSpec(3, 5, "dominated_pair", seed=3,
                          params=(("alpha", 0.5),))
        for trial in range(10):
            A, B = gen_pair(spec, trial)
            w = np.linalg.eigvalsh(A - 0.5 * B)
            assert w.min() > -1e-10

    def test_rank_deficient_profile(self):
        spec = RandomSpec(4, 4, "rank_deficient", seed=4, params=(("rank", 2),))
        for trial in range(10):
            A, _ = gen_pair(spec, trial)
            assert np.linalg.matrix_rank(A, tol=1e-8) == 2

    def test_profile_minimum_dimension(self):
        with pytest.raises(ValueError, match=">= 2"):
            gen_pair(RandomSpec(1, 1, "projection", seed=6))
        with pytest.raises(ValueError, match=">= 1"):
            gen_pair(RandomSpec(0, 2, "well_conditioned", seed=6))
        with pytest.raises(ValueError, match="unknown profile"):
            gen_pair(RandomSpec(2, 2, "nope", seed=6))

    def test_deterministic(self):
        spec = RandomSpec(2, 6, "well_conditioned", seed=5)
        A1, B1 = gen_pair(spec, 3)
        A2, B2 = gen_pair(spec, 3)
        assert A1.tobytes() == A2.tobytes()
        assert B1.tobytes() == B2.tobytes()


class TestConvexitySuite:
    def test_square_clean(self):
        rep = suite_convexity(catalog("power", 2), SPEC, trials=100)
        assert rep.ok
        assert rep.passes == rep.trials == 100

    def test_cube_flagged_with_replayable_witness(self):
        rep = suite_convexity(t_cubed(), SPEC, trials=100)
        assert not rep.ok
        sub = [r for r in rep.failures if r["check"] == "subadditivity"]
        assert sub
        assert replay_convexity_failure(t_cubed(), sub[0])

    def test_monotone_check_included_for_neglog(self):
        rep = suite_convexity(catalog("neglog"), SPEC, trials=60)
        assert rep.ok

    def test_rank_deficient_compressions_stay_psd(self):
        # V*AV of a rank-deficient A formed as a product had roundoff
        # eigenvalues below require_psd's slack and raised NotPsdError
        rep = suite_convexity(catalog("tlogt"),
                              RandomSpec(4, 4, "rank_deficient", 110006), 5)
        assert rep.passes == rep.trials == 5
        for seed in (3, 5):
            rep = suite_convexity(catalog("tlogt"),
                                  RandomSpec(2, 6, "rank_deficient", seed), 100)
            assert rep.passes == rep.trials == 100

    def test_slack_scale_ignores_the_essential_basis(self):
        # one unbounded element in two bases of its essential part: the
        # slack scale that the suites, check_homogeneity and
        # check_operator_convex share must not depend on the basis LAPACK
        # happened to return, as F's entries do
        from pwcalc.extended import _form_scale
        from pwcalc.linalg import Subspace
        from pwcalc.suites import haar_unitary, random_psd
        rng = np.random.default_rng(7)
        V = haar_unitary(rng, 4)[:, :3]
        F = random_psd(rng, 3)
        Q = haar_unitary(rng, 3)
        T1 = ExtendedSelfAdjoint(4, Subspace(V), F)
        T2 = ExtendedSelfAdjoint(4, Subspace(V @ Q), Q.conj().T @ F @ Q)
        assert abs(np.abs(T1.finite_part).max()
                   - np.abs(T2.finite_part).max()) > 0.1
        assert abs(_form_scale(T1) - _form_scale(T2)) < 1e-12

    def test_restricted_concave_superadditivity(self):
        from pwcalc.calculus import HomogeneousFunction
        from pwcalc.extended import INF
        phi = HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                                  variant="ge")
        rep = suite_convexity(phi, SPEC, trials=60)
        assert rep.ok


class TestContinuitySuite:
    def test_perspective_mode(self):
        rep = suite_continuity(catalog("tlogt"), SPEC, trials=20)
        assert rep.ok

    def test_connection_mode(self):
        rep = suite_continuity(connection_generator("parallel"), SPEC, trials=20)
        assert rep.ok

    def test_expected_divergence_noted_not_failed(self):
        rep = suite_continuity(catalog("power", 2), SPEC, trials=10)
        assert rep.ok
        assert any("expected_divergence" in n for n in rep.notes)


class TestAxiomSuites:
    def test_parallel_sum_satisfies_101(self):
        rep = suite_axioms_thm101(candidate_parallel_sum, SPEC, trials=40)
        assert rep.ok

    def test_anticommutator_fails_homogeneity(self):
        rep = suite_axioms_thm101(candidate_anticommutator, SPEC, trials=40)
        assert not rep.ok
        assert all(r["check"] == "operator_homogeneity" for r in rep.failures)

    def test_bounded_pw_candidate_passes_101(self):
        from pwcalc.calculus import HomogeneousFunction
        from pwcalc.suites import candidate_pw_bounded
        from pwcalc.perspectives import connection_phi
        phi = connection_phi(connection_generator("arithmetic"))
        rep = suite_axioms_thm101(candidate_pw_bounded(phi), SPEC, trials=30)
        assert rep.ok

    def test_perspectives_satisfy_103(self):
        for f in (catalog("tlogt"), catalog("power", 2)):
            rep = suite_axioms_thm103(candidate_perspective(f), SPEC, trials=40)
            assert rep.ok, rep.failures[:2]

    def test_rank_one_bias_fails_transformer(self):
        v = np.array([0.6, 0.1, 0.2, 0.4])
        rep = suite_axioms_thm103(
            candidate_biased_perspective(catalog("tlogt"), v), SPEC, trials=40)
        assert not rep.ok
        assert any(r["check"] == "transformer" for r in rep.failures)

    def test_negated_mean_passes_with_orientation_note(self):
        rep = suite_axioms_thm103(
            candidate_negated_connection(connection_generator("geometric")),
            SPEC, trials=30)
        assert rep.ok
        assert any("orientation" in n for n in rep.notes)

    def test_generator_recovery(self):
        grid = np.linspace(0.1, 4.0, 50)
        f = catalog("tlogt")
        vals = recover_generator(candidate_perspective(f), grid)
        for t, v in zip(grid, vals):
            assert abs(v - f(float(t))) < 1e-9


class TestConnectionSuite:
    def test_means_pass(self):
        for name in ("geometric", "arithmetic", "parallel"):
            rep = suite_connection_cor107(
                candidate_connection(connection_generator(name)), SPEC,
                trials=40)
            assert rep.ok, (name, rep.failures[:1])

    def test_parallel_sum_direct(self):
        rep = suite_connection_cor107(candidate_parallel_sum, SPEC, trials=40)
        assert rep.ok

    def test_convex_perspective_fails_concavity(self):
        def t2_matrix(A, B):
            from pwcalc.perspectives import perspective_apply
            return perspective_apply(catalog("power", 2), A, B).value.form_matrix()
        rep = suite_connection_cor107(t2_matrix, SPEC, trials=40)
        assert not rep.ok
        assert all(r["check"] == "superadditivity" for r in rep.failures)


class TestReports:
    def test_canonical_json_deterministic(self):
        r1 = suite_convexity(catalog("power", 2), SPEC, trials=25)
        r2 = suite_convexity(catalog("power", 2), SPEC, trials=25)
        assert r1.canonical_json() == r2.canonical_json()

    def test_failure_records_deterministic(self):
        r1 = suite_convexity(t_cubed(), SPEC, trials=25)
        r2 = suite_convexity(t_cubed(), SPEC, trials=25)
        assert r1.canonical_json() == r2.canonical_json()

    def test_counts_balance(self):
        rep = suite_convexity(t_cubed(), SPEC, trials=30)
        assert rep.passes + len(rep.failures) == rep.trials

    def test_file_format(self, tmp_path):
        rep = suite_convexity(catalog("power", 2), SPEC, trials=10)
        path = tmp_path / "report.json"
        rep.write(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"suite", "seed", "trials", "passes",
                                "failures", "wall_time_ms"}
        assert payload["trials"] == 10
        assert payload["passes"] == 10

    def test_failures_sorted_by_trial(self):
        rep = suite_convexity(t_cubed(), SPEC, trials=40)
        trials = [r["trial"] for r in rep.failures]
        assert trials == sorted(trials)


def _key(A, B):
    return (np.asarray(A, dtype=complex).tobytes(),
            np.asarray(B, dtype=complex).tobytes())


def _record_trials(monkeypatch):
    """(trials, record): record(A, B) appends the input's key to the list of
    the current trial.  A trial starts at its gen_pair; trials[0] holds what
    a suite computes before its first trial."""
    trials = [[]]
    draw = suites.gen_pair

    def gen_pair(spec, trial=0):
        trials.append([])
        return draw(spec, trial)
    monkeypatch.setattr(suites, "gen_pair", gen_pair)
    return trials, lambda A, B: trials[-1].append(_key(A, B))


class TestEvaluatesOnce:
    """Suites evaluate a candidate once per distinct input in a trial and
    validate each drawn state once."""

    def test_thm103_candidate(self, monkeypatch):
        spec = RandomSpec(2, 4, "rank_deficient", seed=3)
        dims = {gen_pair(spec, trial)[0].shape[0] for trial in range(8)}
        trials, record = _record_trials(monkeypatch)
        inner = candidate_perspective(catalog("tlogt"))

        def candidate(A, B):
            record(A, B)
            return inner(A, B)

        assert suite_axioms_thm103(candidate, spec, trials=8).ok
        assert len(trials) == 9 and len(dims) > 1
        for inputs in trials[1:]:
            assert len(inputs) == len(set(inputs))
        identities = {_key(np.eye(n), np.eye(n)) for n in dims}
        seen = [k for inputs in trials for k in inputs if k in identities]
        assert sorted(seen) == sorted(identities)

    def test_convexity_applies_the_drawn_pair_once(self, monkeypatch):
        spec = RandomSpec(2, 5, "rank_deficient", seed=5)
        pairs = [_key(*gen_pair(spec, trial)) for trial in range(6)]
        trials, record = _record_trials(monkeypatch)
        apply = suites.pw_apply

        def pw_apply(phi, A, B):
            record(A, B)
            return apply(phi, A, B)
        monkeypatch.setattr(suites, "pw_apply", pw_apply)
        suite_convexity(catalog("neglog"), spec, trials=6)
        assert len(trials) == 7
        for pair, inputs in zip(pairs, trials[1:]):
            assert inputs.count(pair) == 1
            assert len(inputs) == len(set(inputs))

    @pytest.mark.parametrize("suite", [
        lambda spec: suite_axioms_thm103(
            candidate_perspective(catalog("tlogt")), spec, trials=6),
        lambda spec: suite_continuity(catalog("tlogt"), spec, trials=6),
    ], ids=["thm103", "continuity"])
    def test_state_validated_once_per_trial(self, suite, monkeypatch):
        # the suites' states (n <= 6) sit below linalg.DEFINITE_MIN_N, so
        # require_state validates them through require_psd
        trials, record = _record_trials(monkeypatch)
        check = linalg.require_psd

        def require_psd(M, name="matrix", **kw):
            if name == "state":
                record(M, M)
            return check(M, name=name, **kw)
        monkeypatch.setattr(linalg, "require_psd", require_psd)
        suite(RandomSpec(2, 4, "rank_deficient", seed=7))
        assert [len(inputs) for inputs in trials] == [0] + [1] * 6

    @pytest.mark.parametrize("candidate, recovered", [
        (candidate_perspective(catalog("tlogt")), 3),
        (candidate_negated_connection(connection_generator("geometric")), 9),
    ], ids=["tlogt", "negated_geometric"])
    def test_thm103_orientation_stops_at_first_positive(
            self, candidate, recovered, monkeypatch):
        # t log t is first positive at the grid's third point, t = 1.075;
        # -sqrt(t) is never, so the note needs the whole grid
        trials, record = _record_trials(monkeypatch)

        def recording(A, B):
            record(A, B)
            return candidate(A, B)

        suite_axioms_thm103(recording, RandomSpec(2, 4, "rank_deficient", 3),
                            trials=1)
        assert len(trials[0]) == recovered

    def test_thm103_eigh_count(self, monkeypatch):
        # 2 per perspective (the pair kernel's), one value per distinct
        # input of a trial, candidate(I, I) once and 3 of the orientation
        # grid's 9: 70; one per form order, two orders a trial; and one eigh
        # per trial validating its state.  No check reads a lower bound, so
        # the form sum and the congruence the orders compare make none
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a, **k: calls.append(1) or eigh(*a, **k))
        suite_axioms_thm103(candidate_perspective(catalog("tlogt")),
                            RandomSpec(4, 4, "rank_deficient", 3), 5)
        assert len(calls) == 85

    def test_thm103_forms_each_element_once(self, monkeypatch):
        # the form order, form sums and congruences read an element's form
        # matrix V F V* from the element, which forms it on first read:
        # over 30 trials each of the 198 elements read is formed once (the
        # scale of a form-order check and form_leq formed both sides twice,
        # and the subadditivity sum and the transformer congruence formed
        # the trial's value twice: 348 formations)
        formed, kept = [], []
        form = ExtendedSelfAdjoint._form.func

        def counted(T):
            formed.append(id(T))
            kept.append(T)  # alive, so that no id is reused
            return form(T)
        prop = functools.cached_property(counted)
        prop.__set_name__(ExtendedSelfAdjoint, "_form")
        monkeypatch.setattr(ExtendedSelfAdjoint, "_form", prop)
        for seed in range(3000, 3006):
            assert suite_axioms_thm103(candidate_perspective(catalog("tlogt")),
                                       RandomSpec(4, 4, "rank_deficient",
                                                  seed), 5).ok
        assert len(formed) == len(set(formed)) == 198
