"""Generalized symmetric eigensolver for the assembled pencils K u = lambda M u.

Every pencil with more unknowns than requested pairs goes through one
ARPACK run for exactly those pairs, with a deterministic start vector on
one banded Cholesky factor K - sigma M = L L^T at a floor sigma below the
whole spectrum.  A cylinder stiffness is the Kronecker sum
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
factor if it exists, else it factors at the floor.

ARPACK runs in its standard mode on the symmetric operator
C = L^-1 M L^-T, the spectral transformation of Ericsson & Ruhe (Math.
Comp. 35, 1980): C y = theta y exactly when K u = lambda M u with
lambda = sigma + 1/theta and u = L^-T y, so the largest theta are the
smallest lambda above sigma.  An application is two triangular band
sweeps (BLAS ``dtbsv``) and one product with M, and ARPACK asks for
nothing else; its generalized shift-invert mode, with the M inner
product, made 3.0-3.3 products with M per application (42 for 13 and
293 for 88 on the ell = 16 model cylinder).
ARPACK stops once each Ritz pair's residual is below ``LANCZOS_TOL`` =
DEFAULT_TOL / 1000 times its theta.  That is the rounding floor: over
the tests the worst residual ||Ku - lambda Mu|| / ||Mu|| is 3.3e-11,
against 3.1e-11 when ARPACK iterates to machine precision, while at
1e-11 it grows to 2.0e-10 and at 1e-10 a residual of 1.3e-9 fails
DEFAULT_TOL.  The back-transform u = L^-T y also lowers the residual's
own rounding floor: on the 1D model cross-section at 1 000 / 1 500 /
2 000 / 3 000 cells per unit it is 2.3e-10 / 5.4e-10 / 8.7e-10 /
2.1e-9, where the generalized mode reached 4.8e-10 / 1.1e-9 / 1.9e-9 /
4.6e-9.

The Lanczos basis holds ncv = 2 count + 4 vectors (at most n), not
ARPACK's default 20, and ARPACK tests convergence at every implicit
restart (Lehoucq & Sorensen, SIAM J. Matrix Anal. Appl. 17, 1996), so a
solve stops once its pairs have converged instead of after a first full
block of 20.  On the ell = 16 model cylinder a guess at lambda1 - margin
takes 10 operator applications (15 at count 2) where a 20-vector basis
takes 21.  A floor solve costs more, 70 applications against 41 (69
against 57 at count 2): far below lambda1 the shift-inverted spectrum
is clustered, and a small basis restarted many times keeps less of it
than one long Lanczos run.  Most solves of a run shift at a guess, so a
run makes fewer applications: 365, 191 and 105 on the ``model_gap``,
``asymmetric_showcase`` and ``multi_direction`` configs, against 798,
420 and 189 with 20 vectors.

K - sigma M is banded, and its lower band comes straight from the
Kronecker terms of the forms (``assemble.KroneckerForm``): a term
F_1 x ... x F_k adds the outer product of diagonal d_k of each factor,
v_k[j] = F_k[j + d_k, j], at band row D = sum_k d_k s_k, with s_k the
stride of axis k.  Rows D >= 0 are the lower band, so the half-bandwidth
b is known before the band is allocated: one x1 layer plus one node in
2D (32 on the pencils of the configs), one layer, one row and one node
in 3D (599 on ``multi_direction`` at L = 4).  LAPACK ``dpbtrf`` factors
the band in place in n (b + 1) values.  A band of more than
``errors.MEMORY_BUDGET`` (1 GiB) raises MemoryBudget before it is
allocated, and one band is alive at a time, so that is the most a
solve's factor takes.  The
factor is also a certificate: it succeeds exactly when lambda_1 lies
above sigma (to rounding), so a guessed shift costs one factor try.  A
fill-reducing sparse factor wins only on cross-sections much finer than
any config uses: at 128 cross cells per unit (n = 32 895, b = 256, on a
2-vCPU VM) a banded solve takes 8.0 ms against 5.6 ms for a
minimum-degree SuperLU factor, which stores 28.9 MiB against the band's
64.5 MiB.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                  LinearOperator, eigsh)

from .errors import (MEMORY_BUDGET, BadResolution, FactorizationFailed,
                     MemoryBudget, NoConvergence)

DEFAULT_TOL = 1e-9
# ARPACK's stopping rule, relative to each Ritz value theta (see above)
LANCZOS_TOL = DEFAULT_TOL / 1000
MAX_RESTARTS = 500


@dataclass
class EigenPair:
    """Eigenvalue with its M-normalized, sign-fixed coefficient vector."""

    value: float
    vector: np.ndarray
    residual: float


def _residuals(K, M, vals, vecs):
    KV = K @ vecs
    MV = M @ vecs
    res = np.linalg.norm(KV - MV * vals[None, :], axis=0)
    den = np.linalg.norm(MV, axis=0)
    return res / np.where(den > 0, den, 1.0)


def _sign_fix(vec):
    i = int(np.argmax(np.abs(vec)))
    return vec if vec[i] >= 0 else -vec


def _normalize_columns(M, vecs):
    MV = M @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, MV))
    return vecs / norms[None, :]


def _diagonals(F):
    """``(d, v)`` for each stored diagonal of the square CSR matrix F, with
    v[j] = F[j + d, j] and zero where j + d falls outside F."""
    n = F.shape[0]
    offsets = np.repeat(np.arange(n), np.diff(F.indptr)) - F.indices
    for d in np.unique(offsets).tolist():
        v = np.zeros(n)
        v[max(-d, 0):n - max(d, 0)] = F.diagonal(-d)
        yield d, v


@dataclass
class BandCholesky:
    """Lower Cholesky factor L of a banded SPD matrix in LAPACK band
    storage, ``band[i - j, j] = L[i, j]``, shape (b + 1, n)."""

    band: np.ndarray

    def shift_invert(self, M, y):
        """C y for C = L^-1 M L^-T, the symmetric operator similar to
        the shift-invert operator (K - sigma M)^-1 M: two triangular band
        sweeps and one product with M."""
        b = self.band.shape[0] - 1
        return dtbsv(b, self.band, M @ dtbsv(b, self.band, y, lower=1,
                                             trans=1), lower=1)

    def back_transform(self, Y):
        """u = L^-T y for each column y of Y."""
        b = self.band.shape[0] - 1
        return np.column_stack([dtbsv(b, self.band, y, lower=1, trans=1)
                                for y in Y.T])


def _band(K, M, shift):
    """Lower band of K - shift M in LAPACK storage, ``band[i - j, j] =
    A[i, j]``, shape (b + 1, n), filled from the Kronecker terms.  It is
    Fortran-ordered so that ``dpbtrf`` factors it in place: a C-ordered
    band would be copied, doubling its storage.  A band of more than
    ``MEMORY_BUDGET`` bytes raises MemoryBudget before it is allocated."""
    rows = {}
    for form, scale in ((K, 1.0), (M, -shift)):
        for term in form.terms:
            sizes = [F.shape[0] for F in term]
            strides = [math.prod(sizes[k + 1:]) for k in range(len(term))]
            for combo in itertools.product(*map(_diagonals, term)):
                D = sum(d * s for (d, _), s in zip(combo, strides))
                if D >= 0:
                    v = functools.reduce(np.multiply.outer,
                                         [diag for _, diag in combo])
                    rows[D] = rows.get(D, 0.0) + scale * v.ravel()
    n, b = K.dim, max(rows)
    if 8 * n * (b + 1) > MEMORY_BUDGET:
        raise MemoryBudget(f"the band of n = {n}, b = {b} takes "
                           f"{8 * n * (b + 1)} bytes > {MEMORY_BUDGET}")
    band = np.zeros((b + 1, n), order="F")
    for D, v in rows.items():
        band[D] = v
    return band


def _factor(K, M, shift):
    """Banded Cholesky factor of K - shift M."""
    band, info = dpbtrf(_band(K, M, shift), lower=1, overwrite_ab=1)
    if info:
        raise FactorizationFailed(
            f"singular or not positive definite at leading minor {info}")
    return BandCholesky(band)


def _factor_above(K, M, floor, guess):
    """``(factor, shift)``: the banded factor of K - guess M when it exists,
    which proves lambda_1 > guess, else that of K - floor M.  A failed try
    is dropped before the floor is factored (its band goes with the
    traceback), so one band is alive at a time."""
    if guess is not None and guess > floor:
        try:
            return _factor(K, M, guess), guess
        except FactorizationFailed:
            pass
    try:
        return _factor(K, M, floor), floor
    except FactorizationFailed as exc:
        raise FactorizationFailed(
            f"K - floor M at the floor {floor:.3e} is {exc}; lambda_1 "
            "is not above the floor") from None


def smallest_eigenpairs(K, M, count=1, seed=0, floor=0.0, guess=None):
    """The ``count`` smallest eigenpairs of K u = lambda M u, ascending.

    K and M are assembled forms (``assemble.KroneckerForm``).  ``floor``
    must lie strictly below the whole spectrum: the solve factors
    K - floor M, and a lambda_1 at or below it raises FactorizationFailed.
    A ``guess`` above the floor is factored first: if K - guess M
    factors, lambda_1 > guess is proven and the solve shift-inverts at
    the guess, closer to lambda_1 and so in fewer operator applications;
    otherwise it shift-inverts at the floor exactly as without a guess.
    One Lanczos run computes exactly ``count`` pairs, so the pencil needs
    more than ``count`` unknowns; fewer raise BadResolution.  Vectors are
    M-normalized, pairwise M-orthogonal, and the first vector is
    sign-fixed positive.  Residual ||Ku - lambda Mu|| / ||Mu|| is checked
    against ``DEFAULT_TOL``.
    """
    if count < 1 or count > 6:
        raise ValueError("count must be between 1 and 6")
    n = K.dim
    if M.dim != n:
        raise ValueError("K and M dimensions differ")
    if count >= n:
        raise BadResolution(
            f"requested {count} pairs from a dimension-{n} pencil")

    chol, shift = _factor_above(K, M, floor, guess)
    # ARPACK applies C and nothing else; a Ritz pair (theta, y) of C is
    # the pair (shift + 1/theta, L^-T y) of the pencil
    C = LinearOperator((n, n), matvec=functools.partial(chol.shift_invert,
                                                        M), dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        thetas, ys = eigsh(C, k=count, which="LA", v0=v0,
                           ncv=min(n, 2 * count + 4), tol=LANCZOS_TOL,
                           maxiter=MAX_RESTARTS)
    except ArpackNoConvergence as exc:
        got = len(exc.eigenvalues)
        best = float(_residuals(
            K, M, shift + 1.0 / exc.eigenvalues,
            chol.back_transform(exc.eigenvectors)).min()) if got else math.nan
        raise NoConvergence(f"ARPACK converged {got}/{count} pairs, "
                            f"best residual {best:.3e}")
    except (ArpackError, RuntimeError) as exc:
        raise FactorizationFailed(f"shift-invert Lanczos failed: {exc}")

    vals = shift + 1.0 / np.asarray(thetas, dtype=float)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = chol.back_transform(np.asarray(ys, dtype=float)[:, order])
    if vals[0] <= shift:
        raise FactorizationFailed(
            f"lambda_1 = {vals[0]:.3e} is not above the shift {shift:.3e}; "
            "assembly, boundary tagging or floor bug")
    vecs = _normalize_columns(M, vecs)
    gram = vecs.T @ (M @ vecs)
    if np.abs(gram - np.eye(count)).max() > 10 * DEFAULT_TOL:
        # re-orthonormalize in the M inner product (gram is near identity)
        vecs = vecs @ np.linalg.inv(np.linalg.cholesky(gram).T)
        vals = np.einsum("ij,ij->j", vecs, K @ vecs)
    res = _residuals(K, M, vals, vecs)
    if np.any(res > DEFAULT_TOL):
        raise NoConvergence(f"residuals {res} exceed tol {DEFAULT_TOL}")
    return [EigenPair(float(vals[i]),
                      _sign_fix(vecs[:, i]) if i == 0 else vecs[:, i],
                      float(res[i])) for i in range(count)]
