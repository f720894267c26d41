"""Hermitian linear-algebra substrate shared by every other module.

Complex Hermitian matrices throughout; real symmetric input is the
zero-imaginary special case.  All functions are pure: they never mutate
their arguments and the returned arrays are freshly allocated.

Input is validated once, at the public boundary, on one path: the stack of
a call's matrices takes a cheap half (`_hermitian_stack`: shapes compared,
then square, finite and Hermitian at each matrix's own scale) and a PSD
half (`_psd_stack`: one eigh, whose eigenpairs the caller reads).  Errors
come as from `require_psd` run on each matrix in turn: a shape mismatch,
then A Hermitian, A PSD, B Hermitian, B PSD.  `require_hermitian` is the cheap half of one matrix;
`psd_sqrt`, `psd_pinv` and `range_subspace` check their argument with it
(the library calls their private halves).  One definite certificate
(`_definite_factor`: Cholesky, then a margin of PSD_CERTIFICATE_K n eps on
a lower bound of w_min / w_max) proves a matrix positive definite without
an eigh; from order DEFINITE_MIN_N on, the pair kernel reduces a definite
A+B with it and `require_state` skips the PSD half's eigh of a state it
certifies.  `Subspace(...)` checks that its
columns are orthonormal, except where LAPACK's vectors make them so
(`_trusted`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)
_COMPLEX = np.dtype(complex)

# Conjugate-symmetry band of every Hermitian check, relative to the matrix:
# max |M - M*| at most this times its largest real or imaginary component.
HERMITIAN_REL_TOL = 1e-9
# Principal-angle cosine threshold for subspace intersection.
MEET_COS_TOL = 1e-10
ORTHONORMAL_ATOL = 1e-10  # |B*B - I| of a Subspace's or make_extended's B
# Safety factor K of the definite certificate (_definite_factor): it selects
# a validation path and a kernel route, and decides no output.
PSD_CERTIFICATE_K = 1e3
# Order from which the pair kernel and require_state try that certificate
# first, set from measured costs (README, "Numerical contracts").
DEFINITE_MIN_N = 32


class NotHermitianError(ValueError):
    """Input violates conjugate symmetry beyond tolerance."""


class NonFiniteError(NotHermitianError):
    """Input has a NaN or infinite entry."""


class NotPsdError(ValueError):
    """Input has an eigenvalue below the PSD tolerance."""


class EigenSolverError(RuntimeError):
    """The eigensolver failed to converge."""


class MatrixFileError(ValueError):
    """A matrix file is malformed; the message names the offending field."""


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` with `fields` set as given,
    without running its __post_init__ checks: for values that pass them by
    construction, such as LAPACK's eigenvectors as a Subspace basis."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2: symmetrizes a matrix that is Hermitian up to roundoff.

    Exact on a matrix that is already exactly Hermitian (such as a sum of
    two such matrices, or a real diagonal), so it is not applied there.
    """
    M = _as_complex(M)
    H = M.conj().T + M
    H *= 0.5
    return H


def _as_complex(M) -> np.ndarray:
    """M as a complex ndarray: M itself when it already is one."""
    if type(M) is np.ndarray and M.dtype is _COMPLEX:
        return M
    return np.asarray(M, dtype=complex)


def require_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate a square Hermitian matrix with finite entries; returns its
    Hermitian part (_hermitian_from): the stacked cheap half on M alone."""
    return _hermitian_stack((M,), (name,))[0]


def _hermitian_from(M: np.ndarray, D: np.ndarray) -> None:
    """Overwrite M with its Hermitian part, from its deviation D = M - M*
    (overwritten too): the lower triangle of M - D/2 with its conjugate
    mirrored above, exactly Hermitian, so validating it again leaves it as
    it is.  Once D is within the Hermitian band, M - D/2 cannot overflow, as
    (M + M*)/2 does for entries above about 9e307.  It is (M + M*)/2 to the
    last bit wherever D is exact, which it is (by Sterbenz's lemma) for
    every real and imaginary component above twice the band in magnitude.
    """
    D *= 0.5  # not D /= 2, a complex true division about 5x slower
    M -= D
    i, j = np.triu_indices(len(M), 1)
    M.real[i, j] = M.real[j, i]
    # 0 - x, not -x: a zero imaginary part stays +0.0, as in (M + M*)/2
    M.imag[i, j] = 0.0 - M.imag[j, i]


def eigh(M: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix).  Backed by
    LAPACK through numpy; deterministic for identical input bytes.
    """
    M = _as_complex(M)
    if M.size == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenSolverError(f"eigensolver did not converge on {M.shape[0]}x"
                               f"{M.shape[1]} input: {exc}") from exc
    return w, V


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """The inverse of a nonsingular lower-triangular L, by halves:
    [[L11, 0], [L21, L22]]^-1 = [[I11, 0], [-I22 L21 I11, I22]] with
    I11 = L11^-1 and I22 = L22^-1, down to blocks of 32, which np.linalg.inv
    inverts.  Its matrix products make a quarter of the flops of
    np.linalg.inv's LU solve, and took about a third of its time at
    n = 128 (0.57 against 1.60 ms on a 2-CPU x86-64 host, one OpenBLAS
    thread)."""
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    h = n // 2
    inv11, inv22 = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = inv11, inv22
    out[h:, :h] = -(inv22 @ (L[h:, :h] @ inv11))
    return out


def _definite_factor(S: np.ndarray):
    """(L, L^-1, rho) for a Hermitian S = L L* that is definite by the
    certificate's margin, or None: the factorization fails, a value is not
    finite, or rho <= K n eps (K = PSD_CERTIFICATE_K).

    rho = 1 / (|L^-1|_F^2 tr S) is a lower bound on w_min / w_max of L L*,
    and L L* = S + E with |E|_2 <= (n + 1) eps tr S (Higham, Accuracy and
    Stability, Thm 10.3), so lambda_min(S) > (K n - n - 1) eps tr S: an S
    that passes is positive definite by a margin that eigh's own error of
    about n eps max|lambda| cannot close, and require_psd accepts it.
    Cholesky reads the lower triangle of S, as eigh does.
    """
    bound = PSD_CERTIFICATE_K * len(S) * EPS
    with np.errstate(all="ignore"):  # inf and NaN fail the tests below
        try:
            L = np.linalg.cholesky(S)
            trace = float(S.trace().real)
            # |L^-1|_F^2 >= 1 / min L_ii^2: most near-singular S fail
            # here, before the inverse is formed
            if not float(L.diagonal().real.min()) ** 2 > bound * trace:
                return None
            Linv = _lower_inverse(L)
        except np.linalg.LinAlgError:  # S is not numerically definite
            return None
        rho = 1.0 / (float(np.vdot(Linv, Linv).real) * trace)
    return (L, Linv, rho) if rho > bound else None


def psd_tol(eigenvalues) -> float:
    """Scale-invariant PSD slack: n * eps * max |eigenvalue|.

    The eigenvalues come in ascending order, as eigh returns them, so the
    largest magnitude is read off the two ends.  They may be the array or
    its floats (w.tolist()), which the kernels read once.
    """
    n = len(eigenvalues)
    if not n:
        return 0.0
    return n * EPS * max(-float(eigenvalues[0]), float(eigenvalues[-1]))


def default_rank_tol(eigenvalues) -> float:
    """Rank cut n * eps * lambda_max; defines the range of a PSD matrix.

    The eigenvalues come in ascending order, as eigh returns them, as the
    array or its floats.
    """
    n = len(eigenvalues)
    top = float(eigenvalues[-1]) if n else 0.0
    return n * EPS * max(top, 0.0)


def require_psd(M, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian + PSD (smallest eigenvalue >= -psd_tol)."""
    M = require_hermitian(M, name=name)
    _check_psd(M, name)
    return M


def _check_psd(M: np.ndarray, name: str):
    """require_psd's PSD half, on a matrix that passed its Hermitian half:
    the eigenpairs (w, V) of M it decided on, for the caller to read."""
    w, V = eigh(M)
    _check_psd_spectrum(w.tolist(), name)
    return w, V


def _check_psd_spectrum(vals: list, name: str) -> None:
    """NotPsdError when the least of the eigenvalues vals (ascending floats,
    w.tolist()) of the matrix `name` is below -psd_tol(vals)."""
    tol = psd_tol(vals)
    if vals and vals[0] < -tol:
        raise NotPsdError(
            f"{name} is not PSD: min eigenvalue {vals[0]:.3e} < -{tol:.3e}"
        )


def _range_eigh(M: np.ndarray, name: str):
    """eigh of a PSD matrix, with its range: _range_of(*eigh(M), name)."""
    return _range_of(*eigh(M), name)


def _range_of(w: np.ndarray, V: np.ndarray, name: str):
    """The eigenpairs (w, V) of a PSD matrix named `name`, with its range:
    (w, V, keep), keep marking the eigenvalues above the rank cut, or None
    when all of them are (w ascends, so its least one decides, read once as
    a float).  It raises as _range_cut does."""
    vals = w.tolist()
    cut = _range_cut(vals, name)
    return w, V, None if vals and vals[0] > cut else w > cut


def _range_cut(vals: list, name: str) -> float:
    """The rank cut default_rank_tol(vals) of the eigenvalues vals
    (ascending floats, w.tolist(), of a PSD matrix named `name`): those
    above it span the range.  An eigenvalue below the PSD slack raises
    NotPsdError, and a NaN at either end NonFiniteError: eigh answers a
    matrix with an infinite entry, such as a sum A + B that overflowed,
    with NaN eigenvalues only."""
    _check_finite_spectrum(vals, name)
    tol = psd_tol(vals)
    if vals and vals[0] < -tol:
        raise NotPsdError(f"{name}: min eigenvalue {vals[0]:.3e} < -{tol:.3e}")
    return default_rank_tol(vals)


def _check_finite_spectrum(vals: list, name: str) -> None:
    """NonFiniteError when the eigenvalues vals (ascending floats,
    w.tolist()) of the matrix `name` have a NaN or inf at either end."""
    if vals and not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):
        raise NonFiniteError(f"{name} has a non-finite (NaN or inf) eigenvalue")


def psd_sqrt(M) -> np.ndarray:
    """Principal square root of a PSD matrix.

    M is validated by require_hermitian.  Eigenvalues within the PSD slack
    below zero are clamped to 0 before the root; anything lower raises
    NotPsdError.  Eigenvalues under the rank tolerance are floored to 0 so
    the root has the rank of the range basis above the cut (a sub-tolerance
    eigenvalue would otherwise surface as a sqrt-amplified spurious
    direction of size ~1e-8).
    """
    M = require_hermitian(M, name="psd_sqrt input")
    return _sqrt_of(*_range_eigh(M, "psd_sqrt"))


def _sqrt_of(w: np.ndarray, V: np.ndarray, keep) -> np.ndarray:
    """psd_sqrt's root from _range_of's (w, V, keep): the eigenvalues off
    keep floored to 0, or, when keep is None, w as eigh returned it."""
    if keep is not None:
        w = np.where(keep, w, 0.0)
    return hermitian_part((V * np.sqrt(w)) @ V.conj().T)


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^n represented by an n x k isometry (orthonormal columns)."""

    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=complex)
        if B.ndim != 2:
            raise ValueError(f"subspace basis must be 2-d, got ndim {B.ndim}")
        object.__setattr__(self, "basis", B)
        dev = np.abs(B.conj().T @ B - np.eye(B.shape[1]))
        if not dev.max(initial=0.0) <= ORTHONORMAL_ATOL:  # NaN fails too
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            raise ValueError(f"subspace basis columns not orthonormal: "
                             f"|B*B - I| = {dev[i, j]:.3e} at Gram[{i}][{j}]")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        """Orthogonal complement: the kernel of basis*, from its svd."""
        n, k = self.basis.shape
        if k == 0:
            return full_space(n)
        if k == n:
            return zero_subspace(n)
        Vh = np.linalg.svd(self.basis.conj().T)[2]
        return _trusted(Subspace, basis=Vh[k:].conj().T)

    def contains(self, other: "Subspace", cos_tol: float) -> bool:
        """True iff every principal-angle cosine of `other` against self is >= 1 - cos_tol."""
        if other.dim == 0:
            return True
        if self.dim == 0:
            return False
        sv = np.linalg.svd(self.basis.conj().T @ other.basis, compute_uv=False)
        if len(sv) < other.dim:
            return False
        # svd returns the singular values in descending order
        return bool(sv[-1] >= 1.0 - cos_tol)

    def same_as(self, other: "Subspace", cos_tol: float) -> bool:
        return (self.dim == other.dim and self.contains(other, cos_tol)
                and other.contains(self, cos_tol))


def full_space(n: int) -> Subspace:
    return _trusted(Subspace, basis=np.eye(n, dtype=complex))


def zero_subspace(n: int) -> Subspace:
    return _trusted(Subspace, basis=np.zeros((n, 0), dtype=complex))


def span(columns: np.ndarray) -> Subspace:
    """Orthonormalize arbitrary columns into a Subspace (rank-revealing SVD,
    cut at max(shape) * eps * the largest singular value)."""
    C = np.atleast_2d(np.asarray(columns, dtype=complex))
    if C.shape[1] == 0:
        return zero_subspace(C.shape[0])
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    r = int(np.sum(s > max(C.shape) * EPS * s.max(initial=0.0)))
    return _trusted(Subspace, basis=U[:, :r])


def psd_pinv(M) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix via its eigensystem, cut
    at the rank cut (n*eps*lambda_max).  M is validated by
    require_hermitian."""
    return _pinv_of(*eigh(require_hermitian(M, name="psd_pinv input")))


def _pinv_of(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """psd_pinv from the eigenpairs (w, V) of a Hermitian matrix, its
    eigenvalues above the rank cut inverted."""
    keep = w > default_rank_tol(w)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return hermitian_part((V * inv) @ V.conj().T)


def range_subspace(M) -> Subspace:
    """Range of a PSD matrix at the rank cut (default_rank_tol).  M is
    validated by require_hermitian."""
    M = require_hermitian(M, name="range_subspace input")
    return _range_subspace(*eigh(M))


def _range_subspace(w: np.ndarray, V: np.ndarray,
                    rank_tol: float | None = None) -> Subspace:
    """range_subspace from the eigenpairs (w, V) of a Hermitian matrix."""
    if rank_tol is None:
        rank_tol = default_rank_tol(w)
    return _trusted(Subspace, basis=V[:, w > rank_tol])


def subspace_meet(P: Subspace, Q: Subspace) -> Subspace:
    """Intersection of two subspaces via principal angles.

    Directions whose principal-angle cosine is >= 1 - MEET_COS_TOL count as
    shared.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {P.ambient_dim} vs {Q.ambient_dim}"
        )
    if P.dim == 0 or Q.dim == 0:
        return zero_subspace(P.ambient_dim)
    U, sv, _ = np.linalg.svd(P.basis.conj().T @ Q.basis)
    k = int(np.count_nonzero(sv >= 1.0 - MEET_COS_TOL))
    if k == 0:
        return zero_subspace(P.ambient_dim)
    # an orthonormal basis times orthonormal singular vectors
    return _trusted(Subspace, basis=P.basis @ U[:, :k])


def spectral_norm(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def require_state(rho, name: str = "state") -> np.ndarray:
    """Validate a state: PSD with strictly positive trace.

    From order DEFINITE_MIN_N on, the Hermitian half runs first, and a
    state that _definite_factor certifies skips the eigh of the PSD half;
    any other state, and every smaller one (through require_psd), takes
    that eigh, with its errors.
    """
    rho = _shaped(rho)
    if len(rho) < DEFINITE_MIN_N:
        rho = require_psd(rho, name=name)
    else:
        rho = require_hermitian(rho, name=name)
        if _definite_factor(rho) is None:
            _check_psd(rho, name)
    with np.errstate(over="ignore"):  # a trace that overflows is inf > 0
        tr = float(rho.trace().real)
    if tr <= 0.0:
        raise ValueError(f"{name} must have strictly positive trace, got {tr:.3e}")
    return rho


def _require_state_of(rho, n: int, what: str) -> np.ndarray:
    """require_state(rho) for a state that pairs with an n x n `what`: a
    square state of another size is rejected first, before any
    factorization or eigh, as `dimension mismatch: state is k-dim, <what>
    is n-dim`."""
    rho = _shaped(rho)
    if rho.ndim == 2 and rho.shape[0] == rho.shape[1] != n:
        raise ValueError(f"dimension mismatch: state is {rho.shape[0]}-dim, "
                         f"{what} is {n}-dim")
    return require_state(rho)


def _hermitian_stack(mats, names, spare: int = 0):
    """The cheap half of the stacked validation: the matrices mats (named
    by `names` in errors), shaped as np.atleast_2d shapes them, stacked
    with `spare` slots after them for the caller to fill, and the square,
    finite and Hermitian checks run once over them (max |M - M*| at most
    HERMITIAN_REL_TOL times M's largest component, the same at every
    scale); returns the stack, their Hermitian parts (_hermitian_from).
    Different shapes, and 0 x 0 matrices, raise ValueError, before any
    eigh; the first matrix that fails a check raises its error after the
    PSD checks of those before it.
    """
    try:
        # one allocation; the spare slots hold copies of the first matrix
        S = np.array((*mats, *mats[:1] * spare), dtype=complex)
    except ValueError:  # matrices of different shapes
        S = None
    if S is None or S.ndim != 3:  # or scalars, vectors, or not matrices
        mats = [_shaped(M) for M in mats]
        for M in mats[1:]:
            if M.shape != mats[0].shape:
                raise ValueError(
                    f"dimension mismatch: {mats[0].shape} vs {M.shape}")
        S = np.array(mats + mats[:1] * spare)
    if S.ndim != 3 or S.shape[1] != S.shape[2]:
        raise NotHermitianError(
            f"{names[0]} must be square, got shape {S.shape[1:]}")
    if not S.shape[1]:
        raise ValueError(f"{names[0]} must not be empty, got shape (0, 0)")
    H = S[:len(mats)]
    # the deviations D = H - H*.  A NaN or infinite entry makes its
    # deviation NaN or inf, as one that overflows does
    with np.errstate(over="ignore", invalid="ignore"):
        D = H - H.conj().transpose(0, 2, 1)
        devs = np.abs(D).max(axis=(1, 2), initial=0.0).tolist()
    if not any(devs):  # exactly Hermitian: each is its own Hermitian part
        return S
    for i, dev in enumerate(devs):
        if dev:
            # the largest component, off the float view: |z| could overflow
            tol = HERMITIAN_REL_TOL * float(np.abs(H[i].view(float)).max())
            if not dev <= tol < math.inf:  # NaN fails; an inf entry, tol inf
                break
            _hermitian_from(H[i], D[i])
    else:
        return S
    if i:
        _psd_stack(H[:i], names)
    if not np.isfinite(H[i]).all():
        raise NonFiniteError(f"{names[i]} has a non-finite (NaN or inf) entry")
    raise NotHermitianError(f"{names[i]} is not Hermitian: max |M - M*| = "
                            f"{dev:.3e} > {tol:.3e}")


def _shaped(M) -> np.ndarray:
    """M as a complex array, a scalar 1 x 1 and a vector one row."""
    M = np.asarray(M, dtype=complex)
    return M if M.ndim >= 2 else M.reshape(1, -1)


def _psd_stack(H, names):
    """The PSD half: the eigenpairs (w, V) of the stack H from one
    np.linalg.eigh, to the last bit each matrix's from eigh alone (the
    tests check it), and the PSD check of each matrix `names` names, in
    order; slots after them are only decomposed.  Should LAPACK fail on the
    stack, the matrices are decomposed one at a time, so the first whose
    own eigh fails raises EigenSolverError, unless one before it is not PSD.
    """
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        pairs = [_check_psd(M, name) for M, name in zip(H, names)]
        pairs += map(eigh, H[len(names):])
        return tuple(map(np.array, zip(*pairs)))
    for vals, name in zip(w.tolist(), names):
        _check_psd_spectrum(vals, name)
    return w, V


def vector_state(xi: np.ndarray) -> np.ndarray:
    """Rank-one state omega_xi = |xi><xi|."""
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    return np.outer(xi, xi.conj())


# ---------------------------------------------------------------------------
# Matrix file I/O: UTF-8 text object {"n": int, "re": [[...]], "im": [[...]]},
# im optional (all zeros).  Doubles round-trip exactly through repr.
# ---------------------------------------------------------------------------

def _check_grid(grid, n: int, field_name: str, path) -> np.ndarray:
    if not isinstance(grid, list) or len(grid) != n:
        raise MatrixFileError(
            f"{path}: field '{field_name}' must be an {n}x{n} grid, "
            f"got {len(grid) if isinstance(grid, list) else type(grid).__name__} rows"
        )
    out = np.zeros((n, n))
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFileError(
                f"{path}: field '{field_name}' row {i} has length "
                f"{len(row) if isinstance(row, list) else 'non-list'}; expected {n}"
            )
        for j, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise MatrixFileError(
                    f"{path}: field '{field_name}' entry [{i}][{j}] is not a number"
                )
            out[i, j] = float(v)
    return out


def read_matrix(path) -> np.ndarray:
    """Read a Hermitian matrix from the text format; validates all fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: top-level object expected")
    if "n" not in payload:
        raise MatrixFileError(f"{path}: missing field 'n'")
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise MatrixFileError(f"{path}: field 'n' must be a positive integer")
    if "re" not in payload:
        raise MatrixFileError(f"{path}: missing field 're'")
    re = _check_grid(payload["re"], n, "re", path)
    if payload.get("im") is not None:
        im = _check_grid(payload["im"], n, "im", path)
    else:
        im = np.zeros((n, n))
    M = re + 1j * im
    try:
        return require_hermitian(M, name=str(path))
    except NotHermitianError as exc:
        raise MatrixFileError(str(exc)) from exc


def write_matrix(path, M: np.ndarray) -> None:
    """Write a Hermitian matrix in the text format (lossless doubles)."""
    M = require_hermitian(M, name="matrix")
    n = M.shape[0]
    payload = {
        "n": n,
        "re": [[float(M[i, j].real) for j in range(n)] for i in range(n)],
        "im": [[float(M[i, j].imag) for j in range(n)] for i in range(n)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
