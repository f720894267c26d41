import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcalc import calculus, linalg, perspectives
from pwcalc.calculus import (
    ENDPOINT_TOL,
    PSD_CERTIFICATE_K,
    HomogeneousFunction,
    _checked_pair_spectrum,
    _checked_state_spectrum,
    _clipped,
    _diagonal_values,
    _pair_spectra,
    _validated_pair,
    check_homogeneity,
    compatible_representation,
    invertible_formula,
    pw_apply,
    pw_apply_restricted,
    pw_commuting_oracle,
)
from pwcalc.extended import (
    INF,
    ExtendedSelfAdjoint,
    _is_identity,
    _state_value,
    evaluate_state,
    from_matrix,
    make_extended,
    scale,
)
from pwcalc.functions import Measure, catalog
from pwcalc.perspectives import (
    boundedness_chain,
    check_ah_inequality,
    check_positive_map_monotonicity,
    connection,
    connection_generator,
    dominates_scale,
    epsilon_limit,
    essential_part,
    is_absolutely_continuous,
    lebesgue_decomposition,
    max_f_divergence,
    parallel_sum,
    perspective_apply,
    perspective_of,
    t2_bound,
)
from pwcalc.suites import RandomSpec, gen_pair, haar_unitary, random_state
from pwcalc.variational import (
    SINGULAR_MASS_REL_TOL,
    _singular,
    constant_decomposition,
    integral_eval_91,
    integral_eval_92,
    optimal_decomposition,
    optimizer_decomposition,
    repr77_square_minus,
    repr77_tlogt,
    repr97_t_alpha,
    variational_bound_94,
    variational_envelope,
)
from pwcalc.linalg import (
    DEFINITE_MIN_N,
    EigenSolverError,
    MatrixFileError,
    NonFiniteError,
    NotHermitianError,
    NotPsdError,
    Subspace,
    _hermitian_stack,
    _range_eigh,
    eigh,
    full_space,
    hermitian_part,
    psd_pinv,
    psd_sqrt,
    range_subspace,
    read_matrix,
    require_hermitian,
    require_psd,
    require_state,
    span,
    spectral_norm,
    subspace_meet,
    write_matrix,
    zero_subspace,
)
from reference import (
    compressed_state_value,
    eigh_require_state,
    masked_psd_sqrt,
    masked_r_spectrum,
    r_spectrum_weights,
    sequential_pair,
    sequential_state_pair,
)


def rand_hermitian(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(X)


def rand_psd(rng, n, rank=None):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if rank is not None:
        X = X[:, :rank]
    return hermitian_part(X @ X.conj().T) / n


class TestEigh:
    def test_identity(self):
        w, V = eigh(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.abs(V @ V.conj().T - np.eye(3)).max() < 1e-12

    def test_diagonal_sorted(self):
        w, V = eigh(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])
        # permuted standard basis columns
        assert np.abs(np.abs(V) - np.array([[0, 1], [1, 0]])).max() < 1e-12

    def test_reconstruction_residual(self):
        # oracle: V diag(w) V* must reproduce the input
        M = rand_hermitian(np.random.default_rng(7), 5)
        w, V = eigh(M)
        rec = (V * w) @ V.conj().T
        assert np.abs(rec - M).max() <= 1e-10 * (1 + np.linalg.norm(M, 2))

    def test_deterministic(self):
        M = rand_hermitian(np.random.default_rng(3), 6)
        w1, V1 = eigh(M.copy())
        w2, V2 = eigh(M.copy())
        assert w1.tobytes() == w2.tobytes()
        assert V1.tobytes() == V2.tobytes()


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-12

    def test_zero(self):
        assert np.abs(psd_sqrt(np.zeros((3, 3)))).max() == 0.0

    def test_square_back(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = psd_sqrt(M)
        assert np.abs(S @ S - M).max() < 1e-12

    def test_square_back_seeded(self):
        # 200 seeded random PSD matrices, dims 1..8
        for trial in range(200):
            rng = np.random.default_rng((101, trial))
            n = int(rng.integers(1, 9))
            M = rand_psd(rng, n)
            S = psd_sqrt(M)
            nrm = max(np.linalg.norm(M, 2), 1e-30)
            assert np.abs(S @ S - M).max() <= 1e-10 * (1 + nrm)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestSpectrumShortcuts:
    """psd_sqrt and the representation's range basis skip their rank mask
    when the matrix keeps every eigenvalue, and calculus._clipped skips
    np.clip when R's spectrum lies inside (0, 1): each gives what the
    masked formula (tests/reference.py) or np.clip gives, to the last
    bit."""

    @staticmethod
    def _psd_corpus():
        """PSD matrices of full rank and with eigenvalues cut: random ones
        of n = 1...8 at ranks 1, n - 1 and n, exact zeros, an eigenvalue
        at half and at twice the rank cut before roundoff, the sums of
        drawn pairs."""
        rng = np.random.default_rng(20270)
        for n in range(1, 9):
            for rank in sorted({1, max(n - 1, 1), n}):
                yield rand_psd(rng, n, rank)
        for c in (0.5, 2.0):  # the cut is 3 eps of the largest eigenvalue
            U = haar_unitary(rng, 3)
            w = np.array([c * 3 * np.finfo(float).eps, 0.5, 1.0])
            yield hermitian_part((U * w) @ U.conj().T)
        yield np.diag([0.0, 1.0, 2.0])
        yield np.zeros((2, 2))
        for profile in ("well_conditioned", "rank_deficient", "projection"):
            for trial in range(4):
                A, B = gen_pair(RandomSpec(2, 6, profile, seed=31), trial)
                yield A + B

    def test_psd_sqrt_is_the_masked_root(self):
        full_rank = set()
        for M in self._psd_corpus():
            full_rank.add(_range_eigh(M, "psd_sqrt")[2] is None)
            assert psd_sqrt(M).tobytes() == masked_psd_sqrt(M).tobytes()
        assert full_rank == {True, False}

    def test_perspective_is_that_of_the_masked_roots(self, monkeypatch):
        # on a full-rank A + B, the pair kernel's _r_spectrum reads the
        # range basis as the eigenvectors themselves, not a copy in another
        # memory layout: the products that read it give the same
        # perspective to the last bit as the copy V[:, keep] that an
        # all-True mask makes
        def parts(res):
            T = res.value
            return (T.essential.basis.tobytes(), T.finite_part.tobytes(),
                    T.lower_bound, res.r_eigenvalues.tobytes())

        def masked(A, w, V, vals, cut):
            full_rank.add(vals[0] > cut)
            return masked_r_spectrum(A, w, V, vals, cut)

        pairs = [(A, B) for label, _, A, B in _kernel_corpus()
                 if label not in ("0x0", "scalars")]
        tlogt = catalog("tlogt")
        got = [parts(perspective_apply(tlogt, *p)) for p in pairs]
        full_rank = set()
        monkeypatch.setattr(calculus, "_r_spectrum", masked)
        assert got == [parts(perspective_apply(tlogt, *p)) for p in pairs]
        assert full_rank == {True, False}

    @pytest.mark.parametrize("w", [
        [0.25, 0.5, 0.75], [0.5], [-0.0, 0.5], [-0.0], [0.0, 0.5], [0.0],
        [0.5, 1.0], [1.0], [0.0, 1.0], [-1e-17, 0.5], [0.5, 1.0 + 2e-16],
        [-2.0, 0.5, 3.0], [],
    ], ids=["inside", "inside-one", "minus-zero", "minus-zero-alone", "zero",
            "zero-alone", "one", "one-alone", "zero-and-one", "below-zero",
            "above-one", "far-outside", "empty"])
    def test_clip_rule_is_np_clip(self, w):
        # inside (0, 1) the spectrum itself is returned; anywhere else the
        # clip's result, -0.0 kept as np.clip keeps it
        w = np.array(w, dtype=float)
        got = _clipped(w)
        assert got.tobytes() == np.clip(w, 0.0, 1.0).tobytes()
        assert (got is w) == bool(len(w) and 0.0 < w.min() and w.max() < 1.0)

    def test_representation_clips_as_np_clip(self, monkeypatch):
        # compatible_representation rebuilds R from np.clip of its
        # eigenvalues: that eigh of R is the only one calculus makes itself
        decompositions = []
        eigh_ = calculus.eigh
        monkeypatch.setattr(calculus, "eigh", lambda M: decompositions.append(
            (M, *eigh_(M))) or decompositions[-1][1:])
        clipped = set()
        for label, _, A, B in _kernel_corpus():
            if label in ("0x0", "scalars"):
                continue
            decompositions.clear()
            rep = compatible_representation(A, B)
            [(_, w, Q)] = decompositions
            want = hermitian_part((Q * np.clip(w, 0.0, 1.0)) @ Q.conj().T)
            assert rep.r.tobytes() == want.tobytes(), label
            clipped.add(not (0.0 < w[0] and w[-1] < 1.0))
        assert clipped == {True, False}


def basis_vec(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


class TestSubspaceMeet:
    def test_same_line(self):
        s = span(basis_vec(2, 0).reshape(-1, 1))
        m = subspace_meet(s, s)
        assert m.dim == 1
        assert abs(abs(m.basis[0, 0]) - 1) < 1e-12

    def test_orthogonal_lines(self):
        s1 = span(basis_vec(2, 0).reshape(-1, 1))
        s2 = span(basis_vec(2, 1).reshape(-1, 1))
        assert subspace_meet(s1, s2).dim == 0

    def test_planes_in_dim3(self):
        # oracle: brute force over all candidate basis directions
        P = span(np.column_stack([basis_vec(3, 0), basis_vec(3, 1)]))
        Q = span(np.column_stack([basis_vec(3, 1), basis_vec(3, 2)]))
        m = subspace_meet(P, Q)
        assert m.dim == 1
        expected = None
        for i in range(3):
            e = basis_vec(3, i)
            in_p = np.linalg.norm(P.projector() @ e - e) < 1e-12
            in_q = np.linalg.norm(Q.projector() @ e - e) < 1e-12
            if in_p and in_q:
                expected = e
        assert expected is not None
        assert np.linalg.norm(m.projector() @ expected - expected) < 1e-10

    def test_commutative_idempotent(self):
        for trial in range(30):
            rng = np.random.default_rng((77, trial))
            n = int(rng.integers(2, 7))
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            P = span(X[:, : rng.integers(1, n + 1)])
            Q = span(Y[:, : rng.integers(1, n + 1)])
            m1 = subspace_meet(P, Q)
            m2 = subspace_meet(Q, P)
            assert m1.dim == m2.dim
            if m1.dim:
                assert m1.same_as(m2, 1e-8)
            mm = subspace_meet(m1, m1) if m1.dim else m1
            assert mm.dim == m1.dim

    def test_zero_and_full(self):
        assert subspace_meet(zero_subspace(3), full_space(3)).dim == 0
        assert subspace_meet(full_space(3), full_space(3)).dim == 3


class TestMatrixFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        p = tmp_path / "m.json"
        M = np.eye(4)
        write_matrix(p, M)
        back = read_matrix(p)
        assert back.tobytes() == M.astype(complex).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64, min_value=-1e300, max_value=1e300),
                    min_size=4, max_size=4))
    def test_round_trip_arbitrary_doubles(self, vals):
        import tempfile
        from pathlib import Path

        M = hermitian_part(np.array([[vals[0], vals[1] + 1j * vals[2]],
                                     [0.0, vals[3]]], dtype=complex))
        # a directory per example (tmp_path is one per test), removed with
        # its files when the example ends
        with tempfile.TemporaryDirectory() as tmp:
            path, path2 = Path(tmp, "m.json"), Path(tmp, "m2.json")
            write_matrix(path, M)
            back = read_matrix(path)
            assert np.array_equal(back, M)  # exact doubles (0.0 == -0.0 allowed)
            # writing what was read reproduces the file byte for byte
            write_matrix(path2, back)
            assert path2.read_bytes() == path.read_bytes() or \
                np.array_equal(read_matrix(path2), back)

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 2, "re": [[1, 0], [0, 1]],
                                 "im": [[0, 0]]}))
        with pytest.raises(MatrixFileError, match="im"):
            read_matrix(p)

    def test_complex_hermitian_accepted(self, tmp_path):
        p = tmp_path / "herm.json"
        p.write_text(json.dumps({"n": 2, "re": [[1, 0], [0, 1]],
                                 "im": [[0, 1], [-1, 0]]}))
        M = read_matrix(p)
        assert abs(M[0, 1] - 1j) < 1e-12
        assert abs(M[1, 0] + 1j) < 1e-12

    def test_im_omitted(self, tmp_path):
        p = tmp_path / "real.json"
        p.write_text(json.dumps({"n": 2, "re": [[1, 2], [2, 1]]}))
        assert np.abs(read_matrix(p).imag).max() == 0.0

    def test_non_hermitian_rejected(self, tmp_path):
        p = tmp_path / "nh.json"
        p.write_text(json.dumps({"n": 2, "re": [[0, 1], [0, 0]]}))
        with pytest.raises(MatrixFileError, match="Hermitian"):
            read_matrix(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "mf.json"
        p.write_text(json.dumps({"re": [[1.0]]}))
        with pytest.raises(MatrixFileError, match="'n'"):
            read_matrix(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "mj.json"
        p.write_text("{not json")
        with pytest.raises(MatrixFileError, match="JSON"):
            read_matrix(p)

    def test_nan_literal_rejected(self, tmp_path):
        # Python's json module accepts the NaN literal as a float
        p = tmp_path / "nan.json"
        p.write_text('{"n": 2, "re": [[1.0, NaN], [NaN, 1.0]]}')
        with pytest.raises(MatrixFileError, match="non-finite"):
            read_matrix(p)


NAN_PAIR = np.array([[1.0, np.nan], [np.nan, 1.0]])
INF_PAIR = np.array([[np.inf, 0.0], [0.0, 1.0]])


class TestNonFiniteInput:
    """NaN and inf are rejected at the boundary, naming the argument."""

    @pytest.mark.parametrize("A, B, name", [
        (NAN_PAIR, np.eye(2), "A"),
        (np.eye(2), INF_PAIR, "B"),
    ])
    def test_perspective_apply(self, A, B, name):
        with pytest.raises(NonFiniteError, match=f"^{name} has a non-finite"):
            perspective_apply(catalog("tlogt"), A, B)

    @pytest.mark.parametrize("A, B, rho, name", [
        (NAN_PAIR, np.eye(2), np.eye(2) / 2, "A"),
        (np.eye(2), INF_PAIR, np.eye(2) / 2, "B"),
        (np.eye(2), np.eye(2), NAN_PAIR / 2, "state"),
    ])
    def test_integral_eval_91(self, A, B, rho, name):
        with pytest.raises(NonFiniteError, match=f"^{name} has a non-finite"):
            integral_eval_91(repr77_tlogt(32), A, B, rho)

    def test_evaluate_state(self):
        with pytest.raises(NonFiniteError, match="^state has a non-finite"):
            evaluate_state(from_matrix(np.eye(2)), NAN_PAIR / 2)

    def test_is_a_value_error(self):
        assert issubclass(NonFiniteError, ValueError)


NAN_1 = np.diag([np.nan, 1.0])
ATOM = Measure(np.array([1.0]), np.array([1.0]))


# the public matrix helpers check their argument as require_hermitian
# does; optimal_decomposition and variational_bound_94 compare the shapes,
# then validate A and B; scale takes only a finite factor
@pytest.mark.parametrize("call, error, message", [
    (lambda: psd_sqrt([[1.0, 5.0], [0.0, 1.0]]), NotHermitianError,
     r"^psd_sqrt input is not Hermitian: max \|M - M\*\| = 5\.000e\+00"),
    (lambda: psd_sqrt(NAN_1), NonFiniteError,
     r"^psd_sqrt input has a non-finite \(NaN or inf\) entry$"),
    (lambda: psd_sqrt(np.ones((2, 3))), NotHermitianError,
     r"^psd_sqrt input must be square, got shape \(2, 3\)$"),
    (lambda: psd_pinv(NAN_1), NonFiniteError,
     r"^psd_pinv input has a non-finite \(NaN or inf\) entry$"),
    (lambda: psd_pinv([[1.0, 5.0], [0.0, 1.0]]), NotHermitianError,
     r"^psd_pinv input is not Hermitian"),
    (lambda: psd_pinv(np.ones((2, 3))), NotHermitianError,
     r"^psd_pinv input must be square"),
    (lambda: range_subspace(NAN_1), NonFiniteError,
     r"^range_subspace input has a non-finite \(NaN or inf\) entry$"),
    (lambda: range_subspace([[1.0, 5.0], [0.0, 1.0]]), NotHermitianError,
     r"^range_subspace input is not Hermitian"),
    (lambda: range_subspace(np.ones((2, 3))), NotHermitianError,
     r"^range_subspace input must be square"),
    (lambda: optimal_decomposition(np.eye(3), np.eye(2), np.ones(2), 1.0),
     ValueError, r"^dimension mismatch: \(3, 3\) vs \(2, 2\)$"),
    (lambda: optimal_decomposition(NAN_1, np.eye(2), np.ones(2), 1.0),
     NonFiniteError, r"^A has a non-finite \(NaN or inf\) entry$"),
    (lambda: optimizer_decomposition(ATOM, np.eye(2), NAN_1, np.ones(2),
                                     0.5, 2.0),
     NonFiniteError, r"^B has a non-finite \(NaN or inf\) entry$"),
    (lambda: variational_bound_94(repr77_square_minus(), np.eye(3),
                                  np.eye(2), np.ones(2), 1, None),
     ValueError, r"^dimension mismatch: \(3, 3\) vs \(2, 2\)$"),
    (lambda: scale(np.nan, from_matrix(np.eye(2))), ValueError,
     r"^scale factor must be finite$"),
    (lambda: scale(np.inf, from_matrix(np.eye(2))), ValueError,
     r"^scale factor must be finite$"),
], ids=["psd_sqrt-not_hermitian", "psd_sqrt-non_finite",
        "psd_sqrt-not_square", "psd_pinv-non_finite",
        "psd_pinv-not_hermitian", "psd_pinv-not_square",
        "range_subspace-non_finite", "range_subspace-not_hermitian",
        "range_subspace-not_square", "optimal_decomposition-mismatch",
        "optimal_decomposition-non_finite",
        "optimizer_decomposition-non_finite", "variational_bound_94-mismatch",
        "scale-nan", "scale-inf"])
def test_boundary_rejects_named_input(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


# the entries of HUGE and of its Hermitian part are near the float limit;
# (M + M*)/2 would overflow to inf there, M/2 + M*/2 does not
HUGE = np.array([[1.7e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]])
NEAR_LIMIT = np.diag([-1e308, 1.0])  # not PSD: its least eigenvalue is -1e308
BIG_PSD = np.diag([1e308, 1.0])  # PSD, but BIG_PSD + BIG_PSD overflows
# finite, but its deviation M - M* overflows: 1.7e308 - (-1.7e308)
ANTI_HERMITIAN_LIMIT = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]])


class TestFloatLimitInput:
    """Input near the float limit is validated as it is, not as the NaN an
    overflowing Hermitian part would make of it, and a Hermitian part is
    exactly Hermitian, whatever the scale."""

    def test_hermitian_part_does_not_overflow(self):
        assert require_hermitian(HUGE).tobytes() == HUGE.tobytes()
        H = _hermitian_stack((HUGE, HUGE), ("A", "B"))
        assert H[1].tobytes() == HUGE.tobytes()
        # off Hermitian within the band, near the float limit
        moved = HUGE * (1.0 + 1e-12 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = require_hermitian(moved)
        assert np.isfinite(got).all()
        assert got.tobytes() == require_hermitian(got).tobytes()

    def test_hermitian_part_keeps_its_bits(self):
        # an exactly Hermitian matrix is its own Hermitian part, subnormal
        # entries included; a matrix whose components differ from their
        # mirror images by a relative 1e-10, inside the band of the largest,
        # gets (M + M*)/2 to the last bit, over entries from 1e-300 to 1e300
        rng = np.random.default_rng(20263)
        tiny = np.finfo(float).smallest_subnormal
        for _ in range(200):
            n = int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-300, 300, size=(n, n))
            Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            H = hermitian_part(Z * scale)
            H[-1, 0], H[0, -1] = 3 * tiny + 5j * tiny, 3 * tiny - 5j * tiny
            H.flat[:: n + 1] = H.diagonal().real
            wobble = 1.0 + 1e-10 * rng.uniform(-1, 1, size=(n, n, 2))
            M = H.real * wobble[..., 0] + 1j * H.imag * wobble[..., 1]
            for X, want in ((H, H), (M, (M + M.conj().T) / 2)):
                got = require_hermitian(X)
                assert got.tobytes() == want.tobytes()
                got = _hermitian_stack((X, X), "AB")[0]
                assert got.tobytes() == want.tobytes()

    def test_validating_a_hermitian_part_keeps_its_bits(self):
        # 1x1 to 5x5 matrices of scale (largest component) 1e-12...1e3, real
        # or complex, moved by complex noise of up to 1e-10 of it, so that
        # D = M - M* is inexact on the small components: M - D/2 alone can
        # round two mirrored entries apart, the Hermitian part cannot, and
        # validating it again changes no bit
        rng = np.random.default_rng(20301)
        inexact = 0
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            scale = 10.0 ** rng.uniform(-12, 3)
            Z = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                Z = Z + 1j * rng.standard_normal((n, n))
            H = hermitian_part(Z)
            H *= scale / np.abs(H.view(float)).max()
            noise = rng.uniform(-1, 1, (n, n, 2)) @ [1.0, 1j]
            M = H + 1e-10 / 2 * scale * noise
            half = M - (M - M.conj().T) * 0.5
            inexact += not np.array_equal(half, half.conj().T)
            H = require_hermitian(M)
            assert np.array_equal(H, H.conj().T)
            assert require_hermitian(H).tobytes() == H.tobytes()
            assert _hermitian_stack((M, H), "AB")[1].tobytes() == H.tobytes()
        assert inexact > 200

    @pytest.mark.parametrize("call", [
        lambda A: require_psd(A, name="A"),
        lambda A: perspective_apply(catalog("tlogt"), A, np.eye(2)),
        lambda A: connection(connection_generator("geometric"), A, np.eye(2)),
        lambda A: lebesgue_decomposition(A, np.eye(2)),
        lambda A: integral_eval_91(repr77_tlogt(32), A, np.eye(2), np.eye(2) / 2),
    ], ids=["require_psd", "perspective_apply", "connection",
            "lebesgue_decomposition", "integral_eval_91"])
    def test_non_psd_input_is_rejected_naming_it(self, call):
        with pytest.raises(NotPsdError,
                           match=r"^A is not PSD: min eigenvalue -1\.000e\+308"):
            call(NEAR_LIMIT)

    @pytest.mark.parametrize("call", [
        lambda A: connection(connection_generator("geometric"), A, A),
        lambda A: lebesgue_decomposition(A, A),
        lambda A: integral_eval_91(repr77_tlogt(32), A, A, np.eye(2) / 2),
        lambda A: check_homogeneity(perspective_of(catalog("tlogt")), A, A,
                                    np.eye(2)),
        lambda A: parallel_sum(A, A),
        lambda A: pw_commuting_oracle(perspective_of(catalog("tlogt")), A, A),
        lambda A: epsilon_limit(TLOGT, A, A),
    ], ids=["connection", "lebesgue_decomposition", "integral_eval_91",
            "check_homogeneity", "parallel_sum", "pw_commuting_oracle",
            "epsilon_limit"])
    def test_overflowing_sum_is_rejected_naming_it(self, call):
        # A and B are valid; the kernel's A + B overflows
        with pytest.raises(NonFiniteError, match=r"^A \+ B has a non-finite"):
            call(BIG_PSD)

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("call", [
        lambda A, B: perspective_apply(catalog("tlogt"), A, B),
        lambda A, B: connection(connection_generator("geometric"), A, B),
        lambda A, B: lebesgue_decomposition(A, B),
        lambda A, B: integral_eval_91(repr77_tlogt(32), A, B, np.eye(2) / 2),
        lambda A, B: integral_eval_92(repr97_t_alpha(1.5, 32), A, B,
                                      np.eye(2) / 2),
        lambda A, B: check_homogeneity(perspective_of(catalog("tlogt")), A, B,
                                       np.eye(2)),
        lambda A, B: parallel_sum(A, B),
        lambda A, B: pw_commuting_oracle(perspective_of(catalog("tlogt")), A,
                                         B),
        lambda A, B: epsilon_limit(TLOGT, A, B),
    ], ids=["perspective_apply", "connection", "lebesgue_decomposition",
            "integral_eval_91", "integral_eval_92", "check_homogeneity",
            "parallel_sum", "pw_commuting_oracle", "epsilon_limit"])
    def test_overflowing_sum_warns_nothing(self, call, action):
        # the sum of a pair is formed with numpy's overflow silenced: the
        # valid pair's inf sum fails the rank cut, and the invalid pair's
        # -inf sum never hides A's own error, under either warning filter
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(NonFiniteError,
                               match=r"has a non-finite \(NaN or inf\) "
                                     r"eigenvalue$"):
                call(BIG_PSD, BIG_PSD)
            with pytest.raises(NotPsdError,
                               match=r"^A is not PSD: min eigenvalue -1\.000e"):
                call(NEAR_LIMIT, NEAR_LIMIT)
        assert [str(w.message) for w in caught] == []


    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("call, name", [
        (lambda M: require_hermitian(M), "matrix"),
        (lambda M: require_psd(M), "matrix"),
        (lambda M: perspective_apply(catalog("tlogt"), M, np.eye(2)), "A"),
        (lambda M: connection(connection_generator("geometric"), np.eye(2),
                              M), "B"),
        (lambda M: integral_eval_91(repr77_tlogt(32), M, np.eye(2),
                                    np.eye(2) / 2), "A"),
    ], ids=["require_hermitian", "require_psd", "perspective_apply",
            "connection", "integral_eval_91"])
    def test_overflowing_deviation_is_not_hermitian(self, call, name, action):
        # a finite matrix whose deviation M - M* overflows is rejected as
        # not Hermitian, by a deviation of inf, under either warning filter;
        # the pair and state calls meet it first in the stacked check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(NotHermitianError,
                               match=rf"^{name} is not Hermitian: "
                                     r"max \|M - M\*\| = inf > ") as info:
                call(ANTI_HERMITIAN_LIMIT)
        assert type(info.value) is NotHermitianError
        assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 100])
def test_lower_inverse_is_the_inverse(n):
    # by halves above 32: lower triangular to the last bit, and the
    # inverse to roundoff of L's condition
    rng = np.random.default_rng(20235 + n)
    L = np.linalg.cholesky(rand_psd(rng, n, n) + np.eye(n))
    got = linalg._lower_inverse(L)
    assert not np.triu(got, 1).any()
    assert np.abs(got @ L - np.eye(n)).max() <= 100 * n * np.finfo(float).eps


class TestSubspaceValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_a_nan_column(self):
        # a NaN entry makes |B*B - I| NaN, which the check must not pass
        with pytest.raises(ValueError, match="orthonormal.*nan"):
            Subspace(np.array([[np.nan], [0.0]]))

    def test_complement(self):
        s = span(np.array([[1.0], [0.0]]))
        c = s.complement()
        assert c.dim == 1
        assert abs(abs(c.basis[1, 0]) - 1) < 1e-12

    @pytest.mark.parametrize("tilt, cos_tol, contained", [
        (0.0, 1e-8, True), (0.5e-4, 1e-8, True), (2e-4, 1e-8, False),
        (2e-4, 0.5, True), (np.pi / 2, 0.5, False),
    ])
    def test_contains_reads_the_least_principal_cosine(self, tilt, cos_tol,
                                                       contained):
        # span(e1, e2) shares e1 with span(e1, cos a e2 + sin a e3): their
        # principal cosines are 1 and cos a (1 - cos a is about a^2 / 2,
        # 1.25e-9 and 2e-8 at the two small tilts), and the least decides
        e = np.eye(3)
        P = span(e[:, :2])
        Q = span(np.column_stack((e[:, 0], np.cos(tilt) * e[:, 1]
                                  + np.sin(tilt) * e[:, 2])))
        assert P.contains(Q, cos_tol) is contained
        assert P.contains(span(e[:, :1]), cos_tol)


# ---------------------------------------------------------------------------
# The stacked validator against the one-at-a-time reference
# ---------------------------------------------------------------------------

def _outcome(validate, *args):
    """What a validator does with args: its arrays, or its error."""
    try:
        return validate(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _counting(monkeypatch, name):
    """Patch calculus.<name> to record each call; returns the record."""
    calls = []
    validator = getattr(calculus, name)
    monkeypatch.setattr(calculus, name,
                        lambda *a: calls.append(1) or validator(*a))
    return calls


def _validator_runs(monkeypatch):
    """Patch every validator calculus calls to record its name at each
    run: the two stacked halves (the PSD half also where the cheap half
    runs it, on the matrices before one that fails), require_state (also
    where linalg._require_state_of runs it after the size check),
    require_hermitian and _check_psd.  Returns the record."""
    runs = []
    for module, name in ((calculus, "_hermitian_stack"),
                         (calculus, "_psd_stack"), (linalg, "_psd_stack"),
                         (calculus, "require_state"),
                         (linalg, "require_state"),
                         (calculus, "require_hermitian"),
                         (calculus, "_check_psd")):
        monkeypatch.setattr(module, name,
                            lambda *a, run=getattr(module, name), name=name,
                            **k: runs.append(name) or run(*a, **k))
    return runs


def _same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


def _psd_cliff(rng, n, scale):
    """A Hermitian n x n matrix (n >= 2) whose least eigenvalue is -scale
    times require_psd's slack n eps max |lambda|, as a diagonal and rotated
    by a random unitary."""
    w = np.linspace(0.5, 1.0, n)
    w[0] = -scale * n * np.finfo(float).eps
    U = haar_unitary(rng, n)
    return np.diag(w).astype(complex), hermitian_part((U * w) @ U.conj().T)


def _with_deviation(M, dev):
    """M with one off-diagonal entry moved so max |M - M*| = dev exactly."""
    M = np.array(M, dtype=complex)
    M[0, 1], M[1, 0] = 0.0, dev
    return M


def _invalid_variants(M, n):
    """Invalid stand-ins for an n x n argument M, one per kind of error."""
    nan, inf = M.copy(), M.copy()
    nan[0, 0], inf[-1, -1] = np.nan, np.inf
    other = np.eye(n + 1, dtype=complex) / (n + 1)
    return {"nonsquare": M[:, :-1], "vector": np.ones(n), "3d": M[None],
            "nan": nan, "inf": inf, "size": other,
            "nonhermitian": _with_deviation(M, 1e-6),
            "notpsd": M - 2.0 * np.eye(n), "zero": np.zeros((n, n))}


def _validation_corpus():
    """(label, rho, A, B) around every check the validators make."""
    rng = np.random.default_rng(20260)
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for n in range(2 if profile == "projection" else 1, 10):
            for trial in range(2):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=7 + n), trial)
                yield (f"{profile}/{n}/{trial}", random_state(rng, n), A, B)
    n = 3
    rho, A, B = np.eye(n) / n, np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 2.0])
    base = [rho, A, B]
    for c in (1e-3, 1.0, 1e3):
        for side in (1 - 1e-3, 1 + 1e-3):
            for i in range(3):
                # the band is relative to the largest component, which the
                # moved entry leaves as it is
                args = [c * M for M in base]
                band = linalg.HERMITIAN_REL_TOL * np.abs(args[i]).max()
                args[i] = _with_deviation(args[i], side * band)
                yield (f"hermitian/{c}/{side}/{i}", *args)
    for scale in (1 - 1e-3, 1 + 1e-3):
        for m in (2, 5):
            for j, M in enumerate(_psd_cliff(rng, m, scale)):
                ok = np.eye(m, dtype=complex) / m
                for i in range(3):
                    args = [ok, ok, ok]
                    args[i] = M
                    yield (f"psd/{scale}/{m}/{j}/{i}", *args)
    yield "zero trace", np.zeros((n, n)), A, B
    variants = [_invalid_variants(M, n) for M in base]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for ki, Mi in variants[i].items():
            for kj, Mj in variants[j].items():
                args = list(base)
                args[i], args[j] = Mi, Mj
                yield (f"invalid/{i}:{ki}/{j}:{kj}", *args)


def _kernel_corpus():
    """(label, rho, A, B) for the pair and state kernels against their
    validate-then-decompose references: pairs whose sum A + B has full
    rank (the kernel reads its eigenvectors without a copy) or not, pairs
    with R's eigenvalues clipped at 0 or 1, 1 x 1 pairs, and 0 x 0 and
    scalar input."""
    rng = np.random.default_rng(20264)
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for n in (1, 2, 3, 4, 6):
            if profile == "projection" and n == 1:
                continue
            for trial in range(3):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=13 + n), trial)
                yield f"{profile}/{n}/{trial}", random_state(rng, n), A, B
    for n, r in ((2, 1), (3, 2), (5, 3)):
        # A + B of rank r < n: A and B on one r-dimensional subspace
        U = haar_unitary(rng, n)[:, :r]
        A, B = ((U * rng.uniform(0.1, 1.0, r)) @ U.conj().T for _ in range(2))
        yield f"shared/{n}/{r}", random_state(rng, n), A, B
    yield "1x1", np.eye(1), np.full((1, 1), 2.0), np.full((1, 1), 3.0)
    yield "1x1 kernel", np.eye(1), np.zeros((1, 1)), np.full((1, 1), 3.0)
    yield "0x0", np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))
    yield "scalars", 1.0, 2.0, 3.0


def _xi(A):
    return np.ones(np.atleast_2d(A).shape[0], dtype=complex)


TLOGT = catalog("tlogt")
TLOGT_PHI = perspective_of(TLOGT)
YLOGXY_GE = HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, np.inf,
                                variant="ge")
BOUNDARY_A, BOUNDARY_B = np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 2.0])
NOT_HERMITIAN_B = _with_deviation(BOUNDARY_B, 1e-6)
# (A, B, rho) on each side of every check the pair and state validators
# make, then a 0x0 triple, which they reject as empty before any eigh, and a
# scalar triple, which they accept as a pair
BOUNDARY_COLUMNS = {
    "mismatch": (BOUNDARY_A, np.eye(2), np.eye(3) / 3),
    "not_square": (np.ones((3, 2)), np.ones((3, 2)), np.eye(3) / 3),
    "nan": (np.diag([np.nan, 0.5, 0.0]), BOUNDARY_B, np.eye(3) / 3),
    "not_hermitian": (BOUNDARY_A, NOT_HERMITIAN_B, np.eye(3) / 3),
    "not_psd": (BOUNDARY_A, BOUNDARY_B - 2.0 * np.eye(3), np.eye(3) / 3),
    "A_not_psd_B_not_hermitian": (BOUNDARY_A - 2.0 * np.eye(3),
                                  NOT_HERMITIAN_B, np.eye(3) / 3),
    "state_size": (BOUNDARY_A, BOUNDARY_B, np.eye(2) / 2),
    "state_trace": (BOUNDARY_A, BOUNDARY_B, np.zeros((3, 3))),
    # not Hermitian, and its trace overflows
    "state_huge": (BOUNDARY_A, BOUNDARY_B,
                   np.diag([1e308, 1e308, 1.0]) + np.triu(np.ones((3, 3)), 1)),
    "0x0": (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
    "scalars": (2.0, 1.0, 1.0),
}


PAIR = lambda A, B, rho: sequential_pair(A, B)
STATE = lambda A, B, rho: sequential_state_pair(rho, A, B)


# every public call on a PSD pair, with the validator whose errors it must
# raise; two_projections takes projections, which it checks itself
@pytest.mark.parametrize("call, reference", [
    (lambda A, B, rho: perspective_apply(TLOGT, A, B), PAIR),
    (lambda A, B, rho: pw_apply(TLOGT_PHI, A, B), PAIR),
    (lambda A, B, rho: pw_apply_restricted(YLOGXY_GE, A, B), PAIR),
    (lambda A, B, rho: compatible_representation(A, B), PAIR),
    (lambda A, B, rho: max_f_divergence(TLOGT, A, B), PAIR),
    (lambda A, B, rho: essential_part(TLOGT, A, B), PAIR),
    (lambda A, B, rho: check_ah_inequality(catalog("power", 2), A, B),
     PAIR),
    (lambda A, B, rho: connection(connection_generator("geometric"), A, B),
     PAIR),
    (lambda A, B, rho: parallel_sum(A, B), PAIR),
    (lambda A, B, rho: lebesgue_decomposition(A, B), PAIR),
    (lambda A, B, rho: is_absolutely_continuous(A, B), PAIR),
    (lambda A, B, rho: dominates_scale(A, B),
     lambda A, B, rho: sequential_pair(A, B, ("X", "Y"))),
    (lambda A, B, rho: t2_bound(A, B), PAIR),
    (lambda A, B, rho: boundedness_chain(2.0, A, B, trials=4),
     PAIR),
    (lambda A, B, rho: epsilon_limit(TLOGT, A, B), PAIR),
    (lambda A, B, rho: invertible_formula(TLOGT_PHI, A, B), PAIR),
    (lambda A, B, rho: pw_commuting_oracle(TLOGT_PHI, A, B), PAIR),
    (lambda A, B, rho: check_homogeneity(
        TLOGT_PHI, A, B, np.eye(np.atleast_2d(A).shape[0])), PAIR),
    # a C whose range misses range(A + B): the check is skipped, after A
    # and B are validated
    (lambda A, B, rho: check_homogeneity(
        TLOGT_PHI, A, B, np.eye(np.atleast_2d(A).shape[0])[:, :1]), PAIR),
    (lambda A, B, rho: check_positive_map_monotonicity(
        TLOGT, [np.eye(np.atleast_2d(A).shape[0])], A, B, n_states=2),
     PAIR),
    (lambda A, B, rho: optimal_decomposition(A, B, _xi(A), 1.0),
     PAIR),
    (lambda A, B, rho: optimizer_decomposition(ATOM, A, B, _xi(A), 0.5, 2.0),
     PAIR),
    (lambda A, B, rho: variational_bound_94(
        repr77_square_minus(), A, B, _xi(A), 1,
        constant_decomposition(1.0, 1.0, _xi(A), 0 * _xi(A))),
     PAIR),
    (lambda A, B, rho: variational_envelope(repr77_square_minus(), A, B,
                                            _xi(A), (1,)), PAIR),
    (lambda A, B, rho: integral_eval_91(repr77_tlogt(16), A, B, rho),
     STATE),
    (lambda A, B, rho: integral_eval_92(repr97_t_alpha(1.5, 16), A, B, rho),
     STATE),
], ids=["perspective_apply", "pw_apply", "pw_apply_restricted",
        "compatible_representation", "max_f_divergence", "essential_part",
        "check_ah_inequality", "connection", "parallel_sum",
        "lebesgue_decomposition", "is_absolutely_continuous",
        "dominates_scale", "t2_bound", "boundedness_chain", "epsilon_limit",
        "invertible_formula", "pw_commuting_oracle", "check_homogeneity",
        "check_homogeneity-singular_C",
        "check_positive_map_monotonicity", "optimal_decomposition",
        "optimizer_decomposition", "variational_bound_94",
        "variational_envelope", "integral_eval_91", "integral_eval_92"])
@pytest.mark.filterwarnings("error")
def test_pair_and_state_boundary(call, reference):
    # each column the reference rejects, the call rejects with the
    # reference's error type and message; what it accepts, the call
    # validates without an error.  The 0x0 column is rejected as empty,
    # naming the first matrix: the state in the state calls, A (or X)
    # elsewhere
    for column, (A, B, rho) in BOUNDARY_COLUMNS.items():
        want = _outcome(reference, A, B, rho)
        if column == "0x0":
            assert want[0] is ValueError
            assert re.fullmatch(r"(A|X|state) must not be empty, got shape "
                                r"\(0, 0\)", want[1]), want
        try:
            got = call(A, B, rho)
        except Exception as exc:
            got = type(exc), str(exc)
        if isinstance(want[0], type):
            assert got == want, column
        elif isinstance(got, tuple) and isinstance(got[0], type):
            assert not issubclass(got[0], (NotHermitianError,
                                           NotPsdError)), got
            assert not got[1].startswith("dimension mismatch"), got


GEOMETRIC = connection_generator("geometric")
# U diag(1, 2, 3, 4) U^T for an orthogonal U: |M - M^T| = 5.6e-17
ROTATED = (lambda U: (U * [1.0, 2.0, 3.0, 4.0]) @ U.T)(
    np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0])


def _written(path, M):
    """path, with M written to it in the matrix file format as it is."""
    path.write_text(json.dumps({"n": len(M), "re": M.real.tolist(),
                                "im": M.imag.tolist()}))
    return path


class TestStackedValidation:
    """linalg's two stacked halves accept exactly what the one-at-a-time
    reference validators (tests/reference.py, built from require_psd and
    require_state) accept and return their arrays to the last bit, with
    each matrix's eigenpairs; what the reference rejects they reject with
    its error and message."""

    def test_matches_sequential(self):
        decisions = set()
        for label, rho, A, B in _validation_corpus():
            kind = label.split("/")[0]
            want = _outcome(sequential_pair, A, B)
            got = _outcome(_validated_pair, A, B)
            rejected = isinstance(want[0], type)
            decisions.add((kind, rejected))
            if rejected:
                assert got == want, label
            else:
                assert _same_arrays(got[:2], want), label
                for w, V, M in zip(*got[2:], want):
                    assert _same_arrays((w, V), eigh(M)), label
            want = _outcome(sequential_state_pair, rho, A, B)
            got = _outcome(_checked_state_spectrum, rho, A, B)
            rejected = isinstance(want[0], type)
            decisions.add((kind, rejected))
            if rejected:
                assert got == want, label
            else:
                assert _same_arrays((got.rho, got.A, got.B), want), label
        # each cliff is met from both sides
        for kind in ("hermitian", "psd"):
            assert {(kind, True), (kind, False)} <= decisions

    # max |M - M*| at most 1e-9 times M's largest component, at any scale:
    # an upper-triangular matrix is not Hermitian at 1e-10, and a rotated
    # diagonal with |M - M^T| = 5.6e-17 is at 1e9
    @pytest.mark.parametrize("call, hermitian", [
        (lambda: require_psd(1e-10 * np.triu(np.ones((2, 2)))), False),
        (lambda: connection(GEOMETRIC, 1e-10 * np.triu(np.ones((2, 2))),
                            1e-10 * np.eye(2)), False),
        (lambda: connection(GEOMETRIC, 1e9 * ROTATED, np.eye(4)), True),
        (lambda: connection(GEOMETRIC, ROTATED, np.eye(4)), True),
    ], ids=["require_psd-triangular", "connection-triangular",
            "connection-rotated-1e9", "connection-rotated"])
    def test_hermitian_band_is_relative(self, call, hermitian):
        if hermitian:
            call()
        else:
            with pytest.raises(NotHermitianError, match=r"^\w+ is not Herm"):
                call()

    @pytest.mark.parametrize("c", [1e-150, 1e-9, 1.0, 1e9, 1e150])
    @pytest.mark.parametrize("call", [
        lambda X, c, path: require_psd(X),
        lambda X, c, path: require_state(X),
        lambda X, c, path: connection(GEOMETRIC, X, c * np.eye(len(X))),
        lambda X, c, path: integral_eval_91(repr77_tlogt(32), X,
                                            c * np.eye(len(X)),
                                            np.eye(len(X)) / len(X)),
        lambda X, c, path: read_matrix(_written(path, X)),
    ], ids=["require_psd", "require_state", "connection", "integral_eval_91",
            "read_matrix"])
    def test_hermitian_check_reads_the_same_at_every_scale(self, call, c,
                                                           tmp_path):
        # PSD matrices moved off Hermitian by 1e-10 and 1e-8 of their
        # largest component, then scaled by c: the first is Hermitian at
        # every c, the second at none
        tridiagonal = 2.0 * np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)
        for M in (tridiagonal,
                  rand_psd(np.random.default_rng(20302), 4) + np.eye(4) / 2):
            largest = np.abs(M.astype(complex).view(float)).max()
            for rel in (1e-10, 1e-8):
                X = M.astype(complex)
                X[-1, 0] += rel * largest * (0.6 + 0.8j)
                X *= c
                if rel < 1e-9:
                    call(X, c, tmp_path / "m.json")
                else:
                    with pytest.raises((NotHermitianError, MatrixFileError),
                                       match="is not Hermitian: "):
                        call(X, c, tmp_path / "m.json")

    def test_pair_kernel_runs_once_and_nothing_validates_twice(
            self, monkeypatch):
        # the stacked kernel, where it keeps all of A + B's eigenvalues (its
        # view of V without a copy) or cuts some, gives what validating A
        # and B one at a time and then decomposing them gives, to the last
        # bit, and raises what that raises.  The kernel runs at most once,
        # the cheap half once and the PSD half at most once, and no other
        # validator runs
        runs = _validator_runs(monkeypatch)
        kernels = _counting(monkeypatch, "_r_spectrum")
        ranks, decisions = set(), set()
        corpus = [(label, A, B) for label, _, A, B in _kernel_corpus()]
        corpus += [(label, A, B) for label, _, A, B in _validation_corpus()]
        corpus.append(("cliff/A+B", *_sum_cliff()))
        for label, A, B in corpus:
            want = _outcome(_validated_spectrum, A, B)
            rejected = isinstance(_outcome(sequential_pair, A, B)[0], type)
            runs.clear()
            kernels.clear()
            got = _outcome(_checked_pair_spectrum, A, B)
            assert len(kernels) <= 1, label
            assert runs.count("_hermitian_stack") == 1, label
            assert runs.count("_psd_stack") <= 1, label
            assert len(runs) == len(set(runs)) <= 2, label
            raised = isinstance(want[0], type)
            if raised:
                assert got == want, label
            else:
                assert _same_arrays(got, want), label
                ranks.add(got[3].shape[0] == got[3].shape[1])
            decisions.add((rejected, raised))
        assert ranks == {True, False}
        # the kernel's own error on a valid pair (the A + B cliff) is raised
        assert decisions == {(True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("failing, a_psd, error", [
        ("A", True, EigenSolverError), ("B", True, EigenSolverError),
        ("B", False, NotPsdError)])
    def test_lapack_failure_keeps_its_order(self, failing, a_psd, error,
                                            monkeypatch):
        # np.linalg.eigh fails on any stack holding the chosen matrix, as
        # LAPACK would on one it cannot decompose: the first matrix whose
        # own eigh fails raises, unless one before it is not PSD
        A, B = np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 2.0])
        if not a_psd:
            A = -A
        bad = {"A": A, "B": B}[failing]
        eigh_ = np.linalg.eigh

        def eigh_failing(M, *a, **k):
            if any(np.array_equal(X, bad) for X in np.reshape(M, (-1, 3, 3))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh_(M, *a, **k)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing)
        want = _outcome(sequential_pair, A, B)
        assert want[0] is error
        assert _outcome(_validated_pair, A, B) == want

    def test_pair_kernel_clips_as_np_clip(self, monkeypatch):
        # t is np.clip of R's eigenvalues to the last bit, where roundoff
        # puts some outside [0, 1] and where all lie inside
        spectra = []
        eigh_ = calculus.eigh
        monkeypatch.setattr(calculus, "eigh",
                            lambda M: spectra.append(eigh_(M)) or spectra[-1])
        outside = set()
        for label, _, A, B in _kernel_corpus():
            if label in ("0x0", "scalars"):
                continue
            t = _pair_spectra(*sequential_pair(A, B)).t
            r = spectra[-1][0]  # R's, the kernel's last eigh
            assert t.tobytes() == np.clip(r, 0.0, 1.0).tobytes(), label
            outside.add(bool((r < 0.0).any() or (r > 1.0).any()))
        assert outside == {True, False}

    def test_stacked_eigh_is_per_matrix_eigh(self):
        stacked = 0
        for label, *args in _validation_corpus():
            mats = [np.atleast_2d(np.asarray(M, dtype=complex)) for M in args]
            if len({M.shape for M in mats}) > 1 or mats[0].ndim != 2 or not all(
                    np.isfinite(M).all() for M in mats):
                continue
            mats = [hermitian_part(M) for M in mats]
            mats.append(mats[1] + mats[2])  # the integrals' stack adds A + B
            w, V = np.linalg.eigh(np.stack(mats))
            for i, M in enumerate(mats):
                wi, Vi = np.linalg.eigh(M)
                assert w[i].tobytes() == wi.tobytes(), label
                assert V[i].tobytes() == Vi.tobytes(), label
            stacked += 1
        assert stacked >= 100


# ---------------------------------------------------------------------------
# The definite-pair certificate against validate-then-decompose
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _validated_spectrum(A, B):
    """The reference path: validate the pair, then decompose it."""
    A, B = sequential_pair(A, B)
    return _pair_spectra(A, B)


def _rotated(rng, w):
    U = haar_unitary(rng, len(w))
    return hermitian_part((U * np.asarray(w)) @ U.conj().T)


def _with_least(rng, n, c, kappa):
    """A random n x n Hermitian matrix (n >= 2) with eigenvalues log-spaced
    over [1/kappa, 1], its least moved to c n eps."""
    w = np.logspace(-np.log10(kappa), 0, n)
    w[0] = c * n * EPS
    return _rotated(rng, w)


def _margin_pair(side, s=1e-2):
    """A diagonal pair whose certificate margin t_min w_min / w_max is
    side * K n eps, n = 2: A + B = diag(s, 1), spec R = (tau, 1/2)."""
    tau = side * PSD_CERTIFICATE_K * 2 * EPS / s
    return np.diag([tau * s, 0.5]), np.diag([(1 - tau) * s, 0.5])


def _sum_cliff():
    """A pair that passes require_psd whose sum A + B fails the kernel's
    own PSD check."""
    a = 0.9 * 3 * EPS
    return np.diag([-a, 1.0, 0.0]), np.diag([-a, 0.0, 1.0])


def _certificate_corpus():
    """(label, A, B) around the certificate and every check of the pair
    validators."""
    rng = np.random.default_rng(20262)
    for profile in ("well_conditioned", "rank_deficient", "projection"):
        for n in range(2 if profile == "projection" else 1, 10):
            for trial in range(2):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=11 + n), trial)
                for scale in (1.0, 1e300, 1e-300):
                    yield f"{profile}/{n}/{trial}/{scale:.0e}", scale * A, scale * B
    for kappa in 10.0 ** np.arange(0, 16, 3):
        for n in (2, 5, 9):
            A = _rotated(rng, np.logspace(-np.log10(kappa), 0, n))
            B = _rotated(rng, np.logspace(-np.log10(kappa), 0, n))
            for scale in (1.0, 1e300, 1e-300):
                yield f"definite/{kappa:.0e}/{n}/{scale:.0e}", scale * A, scale * B
    # a least eigenvalue of -(1 +- 1e-3) times require_psd's slack, in A
    # or in B, diagonal and rotated
    for side in (1 - 1e-3, 1 + 1e-3):
        for n in (2, 5):
            for j, M in enumerate(_psd_cliff(rng, n, side)):
                ok = _rotated(rng, np.linspace(0.2, 1.0, n))
                yield f"psd/{side}/{n}/{j}/A", M, ok
                yield f"psd/{side}/{n}/{j}/B", ok, M
    # least eigenvalues from -5 to 1e6 times n eps, across the certificate
    for _ in range(300):
        n = int(rng.integers(2, 13))
        c = float(rng.choice([-5.0, -1.0, 0.0, 1.0, 1e2, 1e3, 1e4, 1e6])
                  * rng.uniform(0.5, 2.0))
        M = _with_least(rng, n, c, 10 ** rng.uniform(0, 15))
        other = _rotated(rng, np.logspace(-rng.uniform(0, 15), 0, n))
        scale = 10.0 ** rng.choice([-300, -150, 0, 150, 300])
        A, B = (M, other) if rng.random() < 0.5 else (other, M)
        yield f"least/{c:.1e}/{n}/{scale:.0e}", scale * A, scale * B
    # the certificate's margin K n eps approached from both sides
    for side in (1 - 1e-3, 1 + 1e-3):
        yield f"margin/{side > 1}/diagonal", *_margin_pair(side)
        A, B = _margin_pair(side, s=1.0)
        yield f"margin/{side > 1}/swapped", B, A
    for side in (0.9, 1.1):
        U = haar_unitary(rng, 2)
        A, B = _margin_pair(side)
        yield (f"margin/{side > 1}/rotated", hermitian_part(U @ A @ U.conj().T),
               hermitian_part(U @ B @ U.conj().T))
    yield "cliff/A+B", *_sum_cliff()
    # every invalid kind in each argument, and in both, around a definite
    # pair (which would be certified) and a rank-deficient one
    n = 3
    for base, (A, B) in (("definite", (np.diag([1.0, 0.5, 0.25]),
                                       np.diag([0.3, 1.0, 2.0]))),
                         ("deficient", (np.diag([1.0, 0.5, 0.0]),
                                        np.diag([0.0, 1.0, 2.0])))):
        for side in (1 - 1e-3, 1 + 1e-3):
            yield f"hermitian/{side}/{base}/A", _with_deviation(A, side * 1e-9), B
            yield f"hermitian/{side}/{base}/B", A, _with_deviation(B, side * 1e-9)
        kinds_a, kinds_b = _invalid_variants(A, n), _invalid_variants(B, n)
        for ka, Ma in kinds_a.items():
            yield f"invalid/{base}/A:{ka}", Ma, B
            yield f"invalid/{base}/B:{ka}", A, kinds_b[ka]
            for kb, Mb in kinds_b.items():
                yield f"invalid/{base}/A:{ka}/B:{kb}", Ma, Mb
    yield "empty", np.zeros((0, 0)), np.zeros((0, 0))
    yield "scalars", 2.0, 3.0


class TestPairCertificate:
    """calculus._checked_pair_spectrum gives what validating the pair and
    then decomposing it gives, to the last bit, with the same errors.
    Below DEFINITE_MIN_N no certificate is read: every pair that passes
    the cheap half takes the PSD half once.  From it on, a pair whose sum
    Cholesky factors and whose certificate declines keeps the Cholesky
    spectrum and takes the PSD half."""

    def test_matches_validated_spectrum(self, monkeypatch):
        halves = _counting(monkeypatch, "_psd_stack")
        seen = {}
        for label, A, B in _certificate_corpus():
            want = _outcome(_validated_spectrum, A, B)
            halves.clear()
            got = _outcome(_checked_pair_spectrum, A, B)
            rejected = isinstance(want[0], type)
            if rejected:
                assert isinstance(got[0], type) and got == want, label
            else:
                assert not isinstance(got[0], type), (label, got)
                assert _same_arrays(got, want), label
                assert len(halves) == 1, label
            kind = label.split("/")[0]
            seen.setdefault(kind, set()).add(rejected)
            if kind == "cliff":
                assert want[0] is NotPsdError and want[1].startswith("A + B"), want
        # valid pairs, and pairs rejected next to require_psd's cliff on
        # either side
        for kind in ("definite", "least", "margin", "hermitian", "psd"):
            assert False in seen[kind], kind
        for kind in ("least", "psd", "hermitian", "invalid"):
            assert True in seen[kind], kind

    @pytest.mark.parametrize("n", [DEFINITE_MIN_N + 1, 40])
    def test_uncertified_definite_pairs_keep_the_cholesky_spectrum(
            self, n, monkeypatch):
        # rank-deficient and projection pairs whose sum Cholesky factors,
        # while a singular A (or B) puts an eigenvalue of R at 0 (or 1),
        # so that the certificate declines: the pair calls read the
        # Cholesky route's (t, X) to the last bit, which differs from the
        # stacked eigh route's by roundoff, and run the PSD half of A and B
        halves = _counting(monkeypatch, "_psd_stack")
        pairs, moved = 0, 0
        for profile in ("rank_deficient", "projection"):
            for trial in range(10):
                A, B = gen_pair(RandomSpec(n, n, profile, seed=5), trial)
                definite = calculus._definite_spectra(A, B, A + B)
                if definite is None or definite.certified:
                    continue
                want, spectrum = _validated_spectrum(A, B), definite.spectrum
                assert _same_arrays((spectrum.t, spectrum.X),
                                    (want.t, want.X)), (profile, trial)
                halves.clear()
                got = _checked_pair_spectrum(A, B)
                assert _same_arrays(got, want), (profile, trial)
                assert len(halves) == 1, (profile, trial)
                # the public calls read that spectrum
                geometric = connection_generator("geometric")
                values = np.array(_diagonal_values(
                    perspectives.connection_phi(geometric), want.t)[0])
                assert connection(geometric, A, B).tobytes() == hermitian_part(
                    want.X.conj().T @ (values[:, None] * want.X)).tobytes()
                assert dominates_scale(A, B) == perspectives._scale_of(want.t)
                assert t2_bound(A, B) == perspectives._t2_bound(want)
                with monkeypatch.context() as m:
                    m.setattr(calculus, "DEFINITE_MIN_N", np.inf)
                    eigh_route = _checked_pair_spectrum(A, B)
                moved += not _same_arrays(eigh_route, got)
                pairs += 1
        assert pairs >= 8 and moved


# ---------------------------------------------------------------------------
# The definite certificate on one state
# ---------------------------------------------------------------------------

def _eigh_calls(monkeypatch):
    """Patch np.linalg.eigh to record each call; returns the record."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or eigh(*a, **k))
    return calls


def _wishart_state(rng, n, m):
    """A random state X X* / tr of rank min(n, m): m = 2n is definite with
    condition number about 34, m = n/2 rank-deficient."""
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    rho = hermitian_part(X @ X.conj().T)
    return rho / rho.trace().real


def _fall_through_states():
    """(label, state) that require_state must decide by its eigh, with the
    errors and messages of that path: every state below DEFINITE_MIN_N,
    and from it on every state the certificate declines."""
    rng = np.random.default_rng(20243)
    n = DEFINITE_MIN_N
    yield "definite/below_the_floor", _wishart_state(rng, n - 1, 2 * n - 2)
    yield "rank_deficient", _wishart_state(rng, n, n // 2)
    yield "rank_deficient/64", _wishart_state(rng, 64, 32)
    yield "not_psd", random_state(rng, n) - np.eye(n)
    yield "negative_definite", -np.eye(n)
    yield "zero_trace", np.zeros((n, n))
    nan = random_state(rng, n)
    nan[3, 3] = np.nan  # its trace is NaN
    yield "nan_trace", nan
    # definite, and its trace overflows: Cholesky factors it
    yield "overflowing_trace", np.diag([1e308, 1e308] + [1.0] * (n - 2))
    yield "not_hermitian", _with_deviation(random_state(rng, n), 1e-6)


class TestStateCertificate:
    """From order DEFINITE_MIN_N on, require_state skips the eigh of a
    state that linalg._definite_factor certifies (the certificate the pair
    kernel's Cholesky route reads); the states it certifies pass the eigh
    check, and every other state takes that check, with its errors and
    messages.  evaluate_state pairs the state without compressing it."""

    def test_certified_states_pass_the_eigh_check(self, monkeypatch):
        # least eigenvalues from -5 to 1e6 times n eps across the
        # certificate, at condition numbers up to 1e12 and at three scales.
        # The certificate's margin is read off the exact spectrum w too:
        # 1 / (sum 1/w sum w) = 1 / (|L^-1|_F^2 tr rho) in exact arithmetic,
        # computed to within n eps kappa, so a state at half the margin or
        # less is declined and one at twice the margin or more certified
        rng = np.random.default_rng(20242)
        calls = _eigh_calls(monkeypatch)
        seen = set()
        for n in (DEFINITE_MIN_N, 48, 64):
            bound = PSD_CERTIFICATE_K * n * EPS
            for c in (-5.0, -1.0, 0.0, 1.0, 1e2, 1e3, 1e4, 1e6):
                for s in (1e-150, 1.0, 1e150):
                    w = np.logspace(-rng.uniform(0, 12), 0, n)
                    w[0] = c * n * EPS
                    rho = s * _rotated(rng, w)
                    H = require_hermitian(rho, name="state")
                    certified = linalg._definite_factor(H) is not None
                    if w[0] <= 0 or 1 / (np.sum(1 / w) * w.sum()) < bound / 2:
                        assert not certified, (n, c, s)
                    elif 1 / (np.sum(1 / w) * w.sum()) > 2 * bound:
                        assert certified, (n, c, s)
                    if certified:
                        linalg._check_psd(H, "state")
                    want = _outcome(eigh_require_state, rho)
                    calls.clear()
                    got = _outcome(require_state, rho)
                    rejected = isinstance(want[0], type)
                    assert len(calls) == (not certified), (n, c, s)
                    if rejected:
                        assert got == want, (n, c, s)
                    else:
                        assert _same_arrays([got], [want]), (n, c, s)
                    seen.add((certified, rejected))
        assert seen == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("label, rho", list(_fall_through_states()),
                             ids=[label for label, _ in _fall_through_states()])
    def test_other_states_take_the_eigh_path(self, label, rho, monkeypatch):
        # the Hermitian half rejects the last two before any eigh
        cheap_reject = label in ("not_hermitian", "nan_trace")
        calls = _eigh_calls(monkeypatch)
        want = _outcome(eigh_require_state, rho)
        assert len(calls) == (not cheap_reject)
        calls.clear()
        got = _outcome(require_state, rho)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert _same_arrays([got], [want])
        assert len(calls) == (not cheap_reject)
        if label == "definite/below_the_floor":  # the floor decides
            assert linalg._definite_factor(require_hermitian(rho)) is not None
        elif not cheap_reject:
            assert linalg._definite_factor(require_hermitian(rho)) is None

    @pytest.mark.parametrize("n, kind, eigh_calls", [
        (4, "definite", 1), (DEFINITE_MIN_N - 1, "definite", 1),
        (DEFINITE_MIN_N, "definite", 0), (64, "definite", 0),
        (64, "rank_deficient", 1),
    ])
    def test_evaluate_state_eigh_calls(self, n, kind, eigh_calls,
                                       monkeypatch):
        rng = np.random.default_rng(20244 + n)
        definite = kind == "definite"
        rho = _wishart_state(rng, n, 2 * n if definite else n // 2)
        assert (linalg._definite_factor(require_hermitian(rho)) is not None
                ) == definite
        T = from_matrix(rand_hermitian(rng, n))
        calls = _eigh_calls(monkeypatch)
        value = evaluate_state(T, rho)
        assert len(calls) == eigh_calls
        assert value == _state_value(T, eigh_require_state(rho))

    def test_state_value_agrees_with_compressing_first(self):
        # bounded elements on the identity basis (no product) and on a
        # rotated one, unbounded elements on standard and rotated bases,
        # with real diagonal and complex finite parts, and states that load
        # the infinity part and states that do not.
        # Each way errs by about n eps |F| Tr rho; observed at most 0.97 of
        # it, at n = 1
        rng = np.random.default_rng(20245)
        seen = set()
        for n in (1, 2, 3, 5, 8, 16, 33, 64):
            for _ in range(6):
                U = haar_unitary(rng, n)
                vals = list(rng.uniform(-3, 3, n) * 10 ** rng.uniform(-5, 5))
                elements = {
                    "identity": from_matrix((U * vals) @ U.conj().T),
                    "rotated": make_extended(zip(vals, U.T)),
                    "rotated_complex": ExtendedSelfAdjoint(
                        n, Subspace(U), rand_hermitian(rng, n))}
                if n > 1:
                    k = int(rng.integers(1, n))
                    at_inf = [INF] * k + vals[k:]
                    elements["unbounded"] = make_extended(zip(at_inf, U.T))
                    elements["unbounded_standard"] = make_extended(
                        zip(at_inf, np.eye(n)))
                    elements["unbounded_complex"] = ExtendedSelfAdjoint(
                        n, Subspace(U[:, k:]), rand_hermitian(rng, n - k))
                for kind, T in elements.items():
                    V = T.essential.basis
                    assert _is_identity(V) == (kind == "identity"), kind
                    states = [random_state(rng, n)]
                    if T.infinity_dim:  # a state on the essential part
                        Y = V @ rng.standard_normal((V.shape[1], V.shape[1]))
                        states.append(Y @ Y.conj().T)
                    for rho in map(require_state, states):
                        got = _state_value(T, rho)
                        want = compressed_state_value(T, rho)
                        seen.add((kind, got == INF))
                        if want == INF:
                            assert got == INF, (kind, n)
                            continue
                        bound = 2 * n * EPS * spectral_norm(
                            T.finite_part) * float(rho.trace().real)
                        assert abs(got - want) <= bound, (kind, n)
        assert seen == {("identity", False), ("rotated", False),
                        ("rotated_complex", False),
                        *((kind, inf) for kind in (
                            "unbounded", "unbounded_standard",
                            "unbounded_complex") for inf in (True, False))}

    def test_identity_basis_needs_every_entry(self):
        n = 4
        eye = np.eye(n, dtype=complex)
        assert _is_identity(eye)
        flipped, perm, near = eye.copy(), eye[:, ::-1], eye.copy()
        flipped[2, 2] = -1.0
        near[0, 1] = 1e-300
        for V in (flipped, perm, near):
            assert not _is_identity(V)


# ---------------------------------------------------------------------------
# The integrals' one stacked spectrum against validate-then-decompose
# ---------------------------------------------------------------------------

def _validated_state_spectrum(rho, A, B):
    """The reference path: validate rho, A and B, then decompose the pair."""
    rho, A, B = sequential_state_pair(rho, A, B)
    return (rho, A, B, *r_spectrum_weights(A, B, rho))


def _reference_singular(mass, rho, A) -> bool:
    """The singular-mass decision with the norm's SVD."""
    floor = SINGULAR_MASS_REL_TOL * float(np.trace(rho).real)
    return mass > floor * spectral_norm(A)


def _recording_r_spectrum(monkeypatch):
    """Patch the kernel's R half to record the X it returns."""
    seen = []
    r_spectrum = calculus._r_spectrum

    def recording(*args):
        r, X = r_spectrum(*args)
        seen.append(X)
        return r, X

    monkeypatch.setattr(calculus, "_r_spectrum", recording)
    return seen


class TestStateSpectrum:
    """calculus._checked_state_spectrum gives what validating rho, A and B
    and then decomposing the pair gives, to the last bit, with the same
    errors in the same order, and the same singular-mass decisions from
    norms read off its stacked spectra."""

    def test_matches_validated_state_spectrum(self, monkeypatch):
        seen = _recording_r_spectrum(monkeypatch)
        decisions, accepted = set(), 0
        corpus = list(_validation_corpus()) + [("scalars", 1.0, 2.0, 3.0)]
        for label, rho, A, B in corpus:
            seen.clear()
            want = _outcome(_validated_state_spectrum, rho, A, B)
            want_x = list(seen)
            seen.clear()
            got = _outcome(_checked_state_spectrum, rho, A, B)
            if isinstance(want[0], type):
                assert got == want, label
                continue
            accepted += 1
            assert not isinstance(got[0], type), (label, got)
            assert _same_arrays(got[:5], want), label
            assert len(seen) == len(want_x) == 1, label
            assert _same_arrays(seen, want_x), label
            rho_h, A_h, B_h, t, m, tr, norm_a, norm_b = got
            assert tr == float(np.trace(rho_h).real), label
            for M, norm in ((A_h, norm_a), (B_h, norm_b)):
                exact = spectral_norm(M)
                assert abs(norm - exact) <= 8 * M.shape[0] * EPS * exact, label
            for M, norm, mass in ((A_h, norm_a, m[t >= 1.0 - ENDPOINT_TOL].sum()),
                                  (B_h, norm_b, m[t <= ENDPOINT_TOL].sum())):
                cut = SINGULAR_MASS_REL_TOL * tr * spectral_norm(M)
                for x in (mass, cut * (1 - 1e-9), cut * (1 + 1e-9)):
                    decision = _singular(x, tr, norm)
                    assert decision == _reference_singular(x, rho_h, M), label
                decisions.add(_singular(mass, tr, norm))
        assert accepted >= 70 and decisions == {True, False}

    def test_state_kernel_runs_once_and_nothing_validates_twice(
            self, monkeypatch):
        # the one stack (rho, A, B, A + B), its spectra read once, gives
        # what validating rho, A and B one at a time and then decomposing
        # the pair gives, to the last bit: arrays, trace and norms, on
        # full-rank sums (no copy of V), cut ones, 1 x 1 and scalars, and
        # raises what that raises.  The kernel's R half runs at most once,
        # and each validator at most once: the stack's two halves, or
        # require_state on rho alone, where its trace or the shapes fail,
        # then the cheap half on the pair, which raises
        runs = _validator_runs(monkeypatch)
        kernels = _counting(monkeypatch, "_r_spectrum")
        ranks, decisions = set(), set()
        corpus = [*_kernel_corpus(), *_validation_corpus(),
                  ("cliff/A+B", np.eye(3) / 3, *_sum_cliff())]
        for label, rho, A, B in corpus:
            want = _outcome(_validated_state_spectrum, rho, A, B)
            rejected = isinstance(
                _outcome(sequential_state_pair, rho, A, B)[0], type)
            runs.clear()
            kernels.clear()
            got = _outcome(_checked_state_spectrum, rho, A, B)
            assert len(kernels) <= 1, label
            assert len(runs) == len(set(runs)) <= 2, label
            assert set(runs) <= {"_hermitian_stack", "_psd_stack",
                                 "require_state"}, label
            raised = isinstance(want[0], type)
            if "require_state" in runs:
                assert rejected and "_psd_stack" not in runs, label
            if raised:
                assert got == want, label
            else:
                assert _same_arrays(got[:5], want), label
                assert got[5:] == (float(np.trace(want[0]).real),
                                   *(float(eigh(M)[0][-1]) for M in want[1:3]))
                ranks.add(len(got[3]) == got[1].shape[0])
            decisions.add((rejected, raised))
        assert ranks == {True, False}
        # the kernel's own error on valid input (the A + B cliff) is raised
        assert decisions == {(True, True), (False, False), (False, True)}

    @pytest.mark.parametrize("failing", ["rho", "A", "B", "A + B"])
    def test_lapack_failure_keeps_its_order(self, failing, monkeypatch):
        # np.linalg.eigh fails on any stack holding the chosen matrix, as
        # LAPACK would on one it cannot decompose
        rho, A, B = np.eye(3) / 3, np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 1.0, 2.0])
        bad = {"rho": rho, "A": A, "B": B, "A + B": A + B}[failing]
        eigh_ = np.linalg.eigh

        def eigh_failing(M, *a, **k):
            mats = np.reshape(M, (-1, 3, 3))
            if any(np.array_equal(X, bad) for X in mats):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh_(M, *a, **k)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing)
        want = _outcome(_validated_state_spectrum, rho, A, B)
        assert want[0] is EigenSolverError
        assert _outcome(_checked_state_spectrum, rho, A, B) == want
