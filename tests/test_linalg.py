import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcalc.extended import evaluate_state, from_matrix
from pwcalc.functions import catalog
from pwcalc.perspectives import perspective_apply
from pwcalc.variational import integral_eval_91, repr77_tlogt
from pwcalc.linalg import (
    MatrixFileError,
    NonFiniteError,
    NotPsdError,
    Subspace,
    eigh,
    full_space,
    hermitian_part,
    pinv_sqrt,
    psd_sqrt,
    read_matrix,
    span,
    subspace_meet,
    write_matrix,
    zero_subspace,
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


class TestPinvSqrt:
    def test_diagonal_with_kernel(self):
        P, sub = pinv_sqrt(np.diag([4.0, 0.0]))
        assert np.abs(P - np.diag([0.5, 0.0])).max() < 1e-12
        assert sub.dim == 1
        assert np.abs(np.abs(sub.basis[:, 0]) - [1, 0]).max() < 1e-12

    def test_identity(self):
        P, sub = pinv_sqrt(np.eye(2))
        assert np.abs(P - np.eye(2)).max() < 1e-12
        assert sub.dim == 2

    def test_rank_one_penrose(self):
        M = np.ones((2, 2))
        P, sub = pinv_sqrt(M)
        assert sub.dim == 1
        v = sub.basis[:, 0]
        assert np.abs(np.abs(v) - np.ones(2) / np.sqrt(2)).max() < 1e-12
        # Penrose identity through the square: M (P^2) M = M
        assert np.abs(M @ (P @ P) @ M - M).max() < 1e-9

    def test_penrose_identities_seeded(self):
        for trial in range(50):
            rng = np.random.default_rng((55, trial))
            n = int(rng.integers(1, 9))
            rank = int(rng.integers(1, n + 1))
            # controlled spectrum: zeros are exact, positives stay O(1)
            w = np.zeros(n)
            w[:rank] = rng.uniform(0.3, 2.0, rank)
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Q = np.linalg.qr(X)[0]
            M = hermitian_part((Q * w) @ Q.conj().T)
            S = psd_sqrt(M)
            P, _ = pinv_sqrt(M)
            assert np.abs(S @ P @ S - S).max() < 1e-9
            assert np.abs(P @ S @ P - P).max() < 1e-9
            assert np.abs((S @ P) - (S @ P).conj().T).max() < 1e-9
            assert np.abs((P @ S) - (P @ S).conj().T).max() < 1e-9


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

        M = hermitian_part(np.array([[vals[0], vals[1] + 1j * vals[2]],
                                     [0.0, vals[3]]], dtype=complex))
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            path = fh.name
        write_matrix(path, M)
        back = read_matrix(path)
        assert np.array_equal(back, M)  # exact doubles (0.0 == -0.0 allowed)
        # writing what was read reproduces the file byte for byte
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            path2 = fh.name
        write_matrix(path2, back)
        assert open(path2, "rb").read() == open(path, "rb").read() or \
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


class TestSubspaceValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0], [1.0]]))

    def test_complement(self):
        s = span(np.array([[1.0], [0.0]]))
        c = s.complement()
        assert c.dim == 1
        assert abs(abs(c.basis[1, 0]) - 1) < 1e-12
