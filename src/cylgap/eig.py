"""Generalized symmetric eigensolver for the assembled pencils K u = lambda M u.

Every pencil with more unknowns than requested pairs goes through one
ARPACK run for exactly those pairs, with a deterministic start vector on
one banded Cholesky factor of K - sigma M, shift-inverted at a floor
sigma below the whole spectrum (Ericsson & Ruhe, Math. Comp. 35, 1980).
A cylinder stiffness is the Kronecker sum
sum_ab F_ab x X_ab with exact axial factors and A sampled where the
reduced cross assembly samples it, so u.Ku >= u.(M1 x Kc_red)u >=
Lambda1 u.Mu and no eigenvalue lies below Lambda1.  The floor of a
cylinder solve is Lambda1 - margin, strictly below it even where
lambda1 = Lambda1.  The floor sits far below lambda1 (about 0.8 on the
model field), and Lanczos converges at the rate (lambda1 - sigma) /
(lambda_next - sigma), so a solve may also bring a guess: a shift just
below a lambda1 that an earlier solve of the run already holds (see
``experiments.solve_cylinder`` for which guesses are proven and which
only observed).  The solve factors K - guess M first and keeps that
factor if it exists, else it factors at the floor.  On the ell = 16
model cylinder a guess at lambda1 - margin takes 21 operator
applications where the floor takes 51 (75 at count 2).

A = K - sigma M is then symmetric positive definite, and since A depends
on X2 only it is block tridiagonal in x1.  Nodes are C-ordered with the
axial axes first, so A is banded: its half-bandwidth b is the offset to
the farthest neighbour in the next x1 layer, one layer plus one node in
2D (32 on the pencils of the configs) and one layer, one row and one
node in 3D (599 on the pencil of ``multi_direction`` at L = 4).  LAPACK
``dpbtrf`` factors the lower band in place, in exactly n (b + 1) stored
values, known before the factor starts, and ``dpbtrs`` applies the
shift-invert operator.  The factor is also a certificate: it succeeds
exactly when the discrete lambda_1 lies above sigma (to rounding), and
raises FactorizationFailed otherwise.  So a guessed shift needs no
trust: it costs one factor try, and a failed try is freed before the
floor is factored, so one band is alive at a time.  A fill-reducing
sparse factor wins only on cross-sections much finer than any config
uses: at 128 cross cells per unit (n = 32 895, b = 256, on a 2-vCPU VM)
a banded solve takes 8.0 ms against 5.6 ms for a minimum-degree SuperLU
factor, which stores 28.9 MiB against the band's 64.5 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                  LinearOperator, eigsh)

from .errors import FactorizationFailed, NoConvergence

DEFAULT_TOL = 1e-9
MIN_TOL = 1e-12  # the smallest residual tolerance a solve accepts
MAX_RESTARTS = 500


@dataclass
class EigenPair:
    """Eigenvalue with its M-normalized, sign-fixed coefficient vector."""

    value: float
    vector: np.ndarray
    residual: float


def _full(form):
    if hasattr(form, "full"):
        return form.full()
    return sparse.csr_matrix(form)


def _residuals(Kf, Mf, vals, vecs):
    KV = Kf @ vecs
    MV = Mf @ vecs
    res = np.linalg.norm(KV - MV * vals[None, :], axis=0)
    den = np.linalg.norm(MV, axis=0)
    return res / np.where(den > 0, den, 1.0)


def _sign_fix(vec):
    i = int(np.argmax(np.abs(vec)))
    return vec if vec[i] >= 0 else -vec


def _normalize_columns(Mf, vecs):
    MV = Mf @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, MV))
    return vecs / norms[None, :]


def _shifted(Kf, Mf, floor):
    """Kf - floor * Mf.  On a shared sparsity pattern, as assembly gives,
    it is one new data array on Kf's index arrays: the general sparse
    difference allocates double-length buffers, and with them the peak
    RSS of a whole run rose by about 4%."""
    if not floor:
        return Kf
    if np.array_equal(Kf.indptr, Mf.indptr) and \
            np.array_equal(Kf.indices, Mf.indices):
        return sparse.csr_matrix((Kf.data - floor * Mf.data, Kf.indices,
                                  Kf.indptr), shape=Kf.shape)
    return Kf - floor * Mf


def _half_bandwidth(A):
    """max |i - j| over the stored entries of the symmetric CSR matrix A
    with sorted indices: the first column of each row is its farthest below
    the diagonal, so this reads one entry per row."""
    starts = A.indptr[:-1]
    rows = np.flatnonzero(starts < A.indptr[1:])
    return int((rows - A.indices[starts[rows]]).max(initial=0))


@dataclass
class BandCholesky:
    """Lower Cholesky factor L of a banded SPD matrix in LAPACK band
    storage, ``band[i - j, j] = L[i, j]``, shape (b + 1, n)."""

    band: np.ndarray

    def solve(self, rhs):
        return dpbtrs(self.band, rhs, lower=1)[0]


def _factor(A):
    """Banded Cholesky factor of the symmetric CSR matrix A.  The band is
    Fortran-ordered so that ``dpbtrf`` factors it in place: a C-ordered
    band would be copied, doubling its storage."""
    A = A if A.has_sorted_indices else A.sorted_indices()
    n = A.shape[0]
    band = np.zeros((_half_bandwidth(A) + 1, n), order="F")
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    lower = A.indices <= rows
    cols = A.indices[lower]
    band[rows[lower] - cols, cols] = A.data[lower]
    del rows, lower, cols
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info:
        raise FactorizationFailed(
            f"singular or not positive definite at leading minor {info}")
    return BandCholesky(band)


def _factor_above(Kf, Mf, floor, guess):
    """``(factor, shift)``: the banded factor of K - guess M when it exists,
    which proves lambda_1 > guess, else that of K - floor M.  A failed try
    is dropped before the floor is factored (its band goes with the
    traceback), so one band is alive at a time."""
    if guess is not None and guess > floor:
        try:
            return _factor(_shifted(Kf, Mf, guess)), guess
        except FactorizationFailed:
            pass
    try:
        return _factor(_shifted(Kf, Mf, floor)), floor
    except FactorizationFailed as exc:
        raise FactorizationFailed(
            f"K - floor M at the floor {floor:.3e} is {exc}; lambda_1 "
            "is not above the floor") from None


def smallest_eigenpairs(K, M, count=1, tol=DEFAULT_TOL, seed=0, floor=0.0,
                        guess=None):
    """The ``count`` smallest eigenpairs of K u = lambda M u, ascending.

    ``floor`` must lie strictly below the whole spectrum: the solve
    factors K - floor M, and a lambda_1 at or below it raises
    FactorizationFailed.  A ``guess`` above the floor is factored first:
    if K - guess M factors, lambda_1 > guess is proven and the solve
    shift-inverts at the guess, closer to lambda_1 and so in fewer
    operator applications; otherwise it shift-inverts at the floor
    exactly as without a guess.  The pencil needs more than ``count``
    unknowns, and one Lanczos run computes exactly ``count`` pairs.
    Vectors are M-normalized, pairwise M-orthogonal, and the first
    vector is sign-fixed positive.  Residual ||Ku - lambda Mu|| / ||Mu||
    is checked against ``tol``.
    """
    if count < 1 or count > 6:
        raise ValueError("count must be between 1 and 6")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be at least {MIN_TOL:g}")
    Kf, Mf = _full(K), _full(M)
    n = Kf.shape[0]
    if Kf.shape != Mf.shape:
        raise ValueError("K and M dimensions differ")
    if count >= n:
        raise ValueError(f"requested {count} pairs from a dimension-{n} pencil")

    chol, shift = _factor_above(Kf, Mf, floor, guess)
    OPinv = LinearOperator((n, n), matvec=chol.solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(Kf, k=count, M=Mf, sigma=shift, which="LM",
                           v0=v0, tol=0.0, maxiter=MAX_RESTARTS, OPinv=OPinv)
    except ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        best = float(_residuals(Kf, Mf, exc.eigenvalues,
                                exc.eigenvectors).min()) if got else math.nan
        raise NoConvergence(f"ARPACK converged {got}/{count} pairs, "
                            f"best residual {best:.3e}")
    except (ArpackError, RuntimeError) as exc:
        raise FactorizationFailed(f"shift-invert Lanczos failed: {exc}")

    order = np.argsort(vals)
    vals = np.asarray(vals, dtype=float)[order]
    vecs = np.asarray(vecs, dtype=float)[:, order]
    if vals[0] <= shift:
        raise FactorizationFailed(
            f"lambda_1 = {vals[0]:.3e} is not above the shift {shift:.3e}; "
            "assembly, boundary tagging or floor bug")
    vecs = _normalize_columns(Mf, vecs)
    gram = vecs.T @ (Mf @ vecs)
    if np.abs(gram - np.eye(count)).max() > 10 * tol:
        # re-orthonormalize in the M inner product (gram is near identity)
        vecs = vecs @ np.linalg.inv(np.linalg.cholesky(gram).T)
        vals = np.einsum("ij,ij->j", vecs, Kf @ vecs)
    res = _residuals(Kf, Mf, vals, vecs)
    if np.any(res > tol):
        raise NoConvergence(f"residuals {res} exceed tol {tol}")
    return [EigenPair(float(vals[i]),
                      _sign_fix(vecs[:, i]) if i == 0 else vecs[:, i],
                      float(res[i])) for i in range(count)]
