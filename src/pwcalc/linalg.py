"""Hermitian linear-algebra substrate shared by every other module.

Complex Hermitian matrices throughout; real symmetric input is the
zero-imaginary special case.  All functions are pure: they never mutate
their arguments and the returned arrays are freshly allocated.

Validation happens once, at the public boundary: `require_hermitian`,
`require_psd` and `require_state` check outside input, and the public
`Subspace(...)` checks that its columns are orthonormal.  A call that takes
several matrices checks them in one stacked pass (a cheap half
`_hermitian_stack` and a PSD half `_psd_stack`) and falls back to the
one-at-a-time validators for their error.  Subspaces built
here from LAPACK's eigenvectors or singular vectors are orthonormal by
construction and skip that check (`_trusted`).
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)
_COMPLEX = np.dtype(complex)

# Absolute conjugate-symmetry tolerance for validated Hermitian input.
HERMITIAN_ATOL = 1e-12
# Looser tolerance for matrix arguments of the public calls and for matrices
# arriving from files.
MATRIX_HERMITIAN_ATOL = 1e-9
# Principal-angle cosine threshold for subspace intersection.
MEET_COS_TOL = 1e-10
# Order from which _concurrently runs its two thunks at once: below it,
# handing one to the worker thread costs more than it saves.
CONCURRENT_MIN_N = 64


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


@functools.cache
def _cpu_count() -> int:
    """The number of CPUs this process may run on, read once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _concurrently(n: int, first, second):
    """(first(), second()) for two independent thunks on n x n matrices.

    From n = CONCURRENT_MIN_N on, and when the process may use two CPUs,
    second runs on a thread started for this call while first runs on the
    calling thread; LAPACK releases the GIL, so two decompositions overlap.
    Otherwise both run in order on the calling thread.  Either way each
    thunk computes what it computes alone, the thread is joined before the
    call returns or raises, and first's exception wins over second's, so
    the error is the one the run in order raises.
    """
    if n < CONCURRENT_MIN_N or _cpu_count() < 2:
        return first(), second()
    box = [None, None]  # second's result, or its exception

    def run():
        try:
            box[0] = second()
        except BaseException as exc:  # re-raised on the calling thread
            box[1] = exc

    worker = threading.Thread(target=run, name="pwcalc")
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if box[1] is not None:
        raise box[1]
    return result, box[0]


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


def require_hermitian(M, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> np.ndarray:
    """Validate a square Hermitian matrix with finite entries; returns its
    Hermitian part, formed as M - D/2 with D = M - M* (_hermitian_from)."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotHermitianError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteError(f"{name} has a non-finite (NaN or inf) entry")
    D = M - M.conj().T
    dev = np.abs(D).max(initial=0.0)
    if dev > atol:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |M - M*| = {dev:.3e} > {atol:.1e}"
        )
    return _hermitian_from(M, D)


def _hermitian_from(M: np.ndarray, D: np.ndarray, out=None) -> np.ndarray:
    """The Hermitian part of M as M - D/2, from its deviation D = M - M*
    (overwritten).

    Once D is within the Hermitian tolerance, M - D/2 cannot overflow, as
    (M + M*)/2 does for entries above about 9e307.  It is M itself when M is
    exactly Hermitian, at any magnitude, and (M + M*)/2 to the last bit
    wherever D is exact, which it is (by Sterbenz's lemma) for every real
    and imaginary component above twice the tolerance in magnitude.
    """
    D /= 2
    return np.subtract(M, D, out=out)


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


def psd_tol(eigenvalues: np.ndarray) -> float:
    """Scale-invariant PSD slack: n * eps * max |eigenvalue|.

    The eigenvalues come in ascending order, as eigh returns them, so the
    largest magnitude is read off the two ends.
    """
    n = len(eigenvalues)
    if not n:
        return 0.0
    return n * EPS * max(-float(eigenvalues[0]), float(eigenvalues[-1]))


def default_rank_tol(eigenvalues: np.ndarray) -> float:
    """Rank cut n * eps * lambda_max; defines the range of a PSD matrix.

    The eigenvalues come in ascending order, as eigh returns them.
    """
    n = len(eigenvalues)
    top = float(eigenvalues[-1]) if n else 0.0
    return n * EPS * max(top, 0.0)


def require_psd(M, name: str = "matrix", atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Validate Hermitian + PSD (smallest eigenvalue >= -psd_tol)."""
    M = require_hermitian(M, atol=atol, name=name)
    _check_psd(M, name)
    return M


def _check_psd(M: np.ndarray, name: str) -> None:
    """require_psd's PSD half, on a matrix that passed its Hermitian half."""
    w, _ = eigh(M)
    tol = psd_tol(w)
    if w.size and w[0] < -tol:
        raise NotPsdError(
            f"{name} is not PSD: min eigenvalue {w[0]:.3e} < -{tol:.3e}"
        )


def _range_eigh(M: np.ndarray, name: str):
    """eigh of a PSD matrix, with its range: (w, V, keep), keep marking the
    eigenvalues above the rank cut.  It raises as _range_cut does."""
    w, V = eigh(M)
    return w, V, _range_cut(w, name)


def _range_cut(w: np.ndarray, name: str) -> np.ndarray:
    """The mask of the eigenvalues w (ascending, of a PSD matrix named
    `name`) above the rank cut default_rank_tol(w).  An eigenvalue below
    the PSD slack raises NotPsdError, and a NaN at either end
    NonFiniteError: eigh answers a matrix with an infinite entry, such as a
    sum A + B that overflowed, with NaN eigenvalues only."""
    if not len(w):
        return w > 0.0
    lo, hi = float(w[0]), float(w[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteError(f"{name} has a non-finite (NaN or inf) eigenvalue")
    tol = psd_tol(w)
    if lo < -tol:
        raise NotPsdError(f"{name}: min eigenvalue {lo:.3e} < -{tol:.3e}")
    return w > default_rank_tol(w)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Eigenvalues within the PSD slack below zero are clamped to 0 before the
    root; anything lower raises NotPsdError.  Eigenvalues under the rank
    tolerance are floored to 0 so the root is rank-consistent with
    pinv_sqrt (a sub-tolerance eigenvalue would otherwise surface as a
    sqrt-amplified spurious direction of size ~1e-8).
    """
    w, V, keep = _range_eigh(M, "psd_sqrt")
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
        if B.shape[1]:
            gram = B.conj().T @ B
            dev = np.abs(gram - np.eye(B.shape[1])).max()
            if dev > 1e-10:
                raise ValueError(
                    f"subspace basis columns not orthonormal: |B*B - I| = {dev:.3e}"
                )

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        """Orthogonal complement, via the trailing eigenvectors of the projector."""
        n, k = self.basis.shape
        if k == 0:
            return full_space(n)
        if k == n:
            return zero_subspace(n)
        w, V = eigh(self.projector())
        return _trusted(Subspace, basis=V[:, : n - k])

    def contains(self, other: "Subspace", cos_tol: float) -> bool:
        """True iff every principal-angle cosine of `other` against self is >= 1 - cos_tol."""
        if other.dim == 0:
            return True
        if self.dim == 0:
            return False
        sv = np.linalg.svd(self.basis.conj().T @ other.basis, compute_uv=False)
        if len(sv) < other.dim:
            return False
        return bool(sv.min() >= 1.0 - cos_tol)

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


def pinv_sqrt(M: np.ndarray):
    """Moore-Penrose pseudo-inverse of psd_sqrt(M) plus the range subspace.

    Eigenvalues at or below the rank cut (n*eps*lambda_max) are treated as
    zero; the returned Subspace is spanned by the eigenvectors above it.
    """
    w, V, keep = _range_eigh(M, "pinv_sqrt")
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / np.sqrt(w[keep])
    P = hermitian_part((V * inv) @ V.conj().T)
    return P, _trusted(Subspace, basis=V[:, keep])


def psd_pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD matrix via its eigensystem, cut
    at the rank cut (n*eps*lambda_max)."""
    M = np.asarray(M, dtype=complex)
    w, V = eigh(M)
    keep = w > default_rank_tol(w)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return hermitian_part((V * inv) @ V.conj().T)


def range_subspace(M: np.ndarray, rank_tol: float | None = None) -> Subspace:
    """Range of a PSD matrix at the rank_tol cut."""
    w, V = eigh(np.asarray(M, dtype=complex))
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
    shared = sv >= 1.0 - MEET_COS_TOL
    k = int(np.sum(shared))
    if k == 0:
        return zero_subspace(P.ambient_dim)
    return Subspace(P.basis @ U[:, :k])


def spectral_norm(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def require_state(rho, name: str = "state") -> np.ndarray:
    """Validate a state: PSD with strictly positive trace."""
    rho = require_psd(rho, name=name)
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        raise ValueError(f"{name} must have strictly positive trace, got {tr:.3e}")
    return rho


def _hermitian_stack(mats, atols):
    """The cheap half of the stacked validation: the matrices stacked, with
    the square, finite and Hermitian checks (each matrix against its own
    atol) run once over the stack.  Returns the stack of their Hermitian
    parts, as require_hermitian computes them, or None when the shapes
    differ or any check fails.
    """
    try:
        S = np.array(mats, dtype=complex)
    except (TypeError, ValueError):
        return None
    n = S.shape[-1]
    if S.ndim != 3 or S.shape[1] != n or n == 0 or not np.isfinite(S).all():
        return None
    # the deviations D = S - S*, then the Hermitian parts S - D/2 in place
    D = S - S.conj().transpose(0, 2, 1)
    devs = np.abs(D).reshape(len(S), -1).max(axis=1).tolist()
    if any(dev > atol for dev, atol in zip(devs, atols)):
        return None
    return _hermitian_from(S, D, out=S)


def _psd_stack(H) -> bool:
    """The PSD half of the stacked validation: True iff every matrix of the
    stack H passes require_psd's check.  It reads one np.linalg.eigh of the
    stack, which gives each matrix the eigenvalues eigh gives it alone, to
    the last bit (the tests check it), so the PSD cliff sits where
    require_psd puts it; a LAPACK failure counts as a rejection.
    """
    try:
        w = np.linalg.eigh(H)[0]
    except np.linalg.LinAlgError:
        return False
    return _psd_spectra(w)


def _psd_spectra(w: np.ndarray) -> bool:
    """True iff every row of w (the eigenvalues of a stack, ascending)
    passes require_psd's check."""
    return not any(row[0] < -psd_tol(row) for row in w.tolist())


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
        return require_hermitian(M, atol=MATRIX_HERMITIAN_ATOL, name=str(path))
    except NotHermitianError as exc:
        raise MatrixFileError(str(exc)) from exc


def write_matrix(path, M: np.ndarray) -> None:
    """Write a Hermitian matrix in the text format (lossless doubles)."""
    M = require_hermitian(M, atol=MATRIX_HERMITIAN_ATOL, name="matrix")
    n = M.shape[0]
    payload = {
        "n": n,
        "re": [[float(M[i, j].real) for j in range(n)] for i in range(n)],
        "im": [[float(M[i, j].imag) for j in range(n)] for i in range(n)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
