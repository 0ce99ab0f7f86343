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
block of 20.  On the whole ell = 16 model cylinder a guess at
lambda1 - margin takes 10 operator applications (15 at count 2) where a
20-vector basis takes 21.  A floor solve costs more, 70 applications
against 41 (69 against 57 at count 2): far below lambda1 the
shift-inverted spectrum is clustered, and a small basis restarted many
times keeps less of it than one long Lanczos run.  (Its even sector,
below, takes 7 and 34.)  Most solves of a run shift at a guess, so a
run makes fewer applications: 365, 191 and 105 on the ``model_gap``,
``asymmetric_showcase`` and ``multi_direction`` configs with every
pencil whole, against 798, 420 and 189 with 20 vectors.

K - sigma M is banded, and its lower band comes straight from the
Kronecker terms of the forms (``assemble.KroneckerForm``): a term
F_1 x ... x F_k adds the outer product of diagonal d_k of each factor,
v_k[j] = F_k[j + d_k, j], at band row D = sum_k d_k s_k, with s_k the
stride of axis k.  The factors are DIA arrays, so diagonal d_k is the
``data`` row of offset -d_k, read with the entries whose row leaves the
factor set to zero.  Rows D >= 0 are the lower band, so the
half-bandwidth b is known from the factors' offsets alone: one x1 layer
plus one node in 2D (32 on the pencils of the configs), one layer, one
row and one node in 3D (599 on the L = 4 ``multi_direction`` pencil,
which separates, below, into 2D pencils of b = 24).  A solve checks the
memory budget of the first band it factors from its size and b, then
builds the rows of K and of M once (``BandRows``) and combines them at
each shift it factors: guess, floor and certificate.  LAPACK ``dpbtrf``
factors the band in place in n (b + 1) values.  A band of more than
``errors.MEMORY_BUDGET`` (1 GiB) raises MemoryBudget before it is
allocated, and one band is alive at a time, so that is the most a
solve's factor takes; a first band over the budget raises before any
row is built (on a 16/8 multi-direction pencil at L = 5 of a field that
couples both axial rows, the even band of the point reflection,
1.9 GiB, raised so, where the rows of K and M took 67 MiB).  The
factor is also a certificate: it succeeds exactly when lambda_1 lies
above sigma (to rounding), so a guessed shift costs one factor try.  A
fill-reducing sparse factor wins only on cross-sections much finer than
any config uses: at 128 cross cells per unit (n = 32 895, b = 256, on a
2-vCPU VM) a banded solve takes 8.0 ms against 5.6 ms for a
minimum-degree SuperLU factor, which stores 28.9 MiB against the band's
64.5 MiB.

A pencil of ``point_symmetric`` forms (property (S) on a mesh whose
every axis mirrors bit for bit, ``TensorMesh.mirrored``; assembly decides
it) commutes with the point reflection, which reverses the order of
its n unknowns, so it splits into an even sector of n - n // 2 unknowns
and an odd one of n // 2 (``Sector``), each banded with the same b.  A
one-pair solve runs in the even sector, where the ground state of the
paper's fields lies: its band (``BandRows.band``) comes from the same
rows, Lanczos runs on C = L^-1 W^T M W L^-T with M applied by its
Kronecker terms to the unfolded vector, and the pair comes back as
u = W L^-T y, exactly symmetric; normalization and the residual check
run on the whole forms.  Then the odd sector's factor at the even
lambda_1 proves that every odd eigenvalue lies above it, so it is the
pencil's lambda_1.  If that factor fails, the lowest mode is odd (or
ties the even one to rounding), and the solve starts again on the whole
pencil.  Two-pair solves stay whole: solving both sectors for two pairs
each cost more than one whole solve (8.6/12.0/19.1 ms against
7.1/9.6/16.0 ms on the guessed pencils of ``second`` at ell = 8/12/16).

A field that leaves an axial axis x_k uncoupled, C[..., k, j] =
C[..., j, k] = 0 for j != k in every sample
(``KroneckerForm.uncoupled_axis``), gives a pencil that separates along
x_k.  Every term of K then carries on axis k the axis's own 1D mass M_k
or stiffness K_k: a term with one x_k derivative has a zero cross factor,
and assembly drops it.  Write A for the sum of the M_k terms and B for
the K_k term, each without its factor k, and M_r for M without M_k;
with axis k moved last, K = A x M_k + B x K_k and M = M_r x M_k.  In the
M_k-orthonormal eigenbasis of (K_k, M_k), K_k q_j = mu_j M_k q_j, the
pencil is block diagonal with blocks (A + mu_j B, M_r), j = 1 ... n_k.
B = M_1 x ... x X_kk, with X_kk the cross mass weighted by A_kk > 0 (the
ellipticity audit), is positive semidefinite, so lambda_1(A + mu B, M_r)
is nondecreasing in mu: the pencil's lambda_1 is that of the block of
mu_1, with eigenvector v x q_1, and no certificate is needed for the
other blocks.  With both ends free, q_1 is the constant over
sqrt(1^T M_k 1), since K_k >= 0 and K_k 1 = 0; otherwise K_k is SPD and
q_1 is the lowest pair of (K_k, M_k) at the floor 0, solved like any
pencil, in its even sector where the axis mirrors with like ends, so
that q_1 is exactly even.  A one-pair solve weights each term by
q^T F_k q, folded into its cross factor, solves the reduced forms (which
keep ``point_symmetric``, so the reduced solve keeps its own sector
certificate), and puts q_1 back on axis k; normalization, the Gram check
and the residual check run on the whole forms.  On the L = 4
``multi_direction`` pencil (n = 14 375, b = 599) the reduced pencil has
575 unknowns at b = 24, whose even sector holds 288, and the one-pair
solve takes 3.4 ms, against 88 ms when the pencil was folded into the
quarter sectors of x2 -> -x2 and the point reflection (2-vCPU Intel
Xeon VM, best of 5).  A ``multi_direction`` run sweeps 9 480 unknowns
over its 90 applications, against 56 190 over 93 in quarter sectors and
271 755 with every pencil whole; ``model_gap`` and
``asymmetric_showcase`` have no separable pencil and stay at 642 634 and
473 070.
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

from .assemble import KroneckerForm
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


def _residuals(KV, MV, vals):
    """||Ku - lambda Mu|| / ||Mu|| per column, from the products KV and MV."""
    res = np.linalg.norm(KV - MV * vals[None, :], axis=0)
    den = np.linalg.norm(MV, axis=0)
    return res / np.where(den > 0, den, 1.0)


def _sign_fix(vec):
    i = int(np.argmax(np.abs(vec)))
    return vec if vec[i] >= 0 else -vec


def _reach(term):
    """The farthest lower band row D = sum_k d_k s_k of a Kronecker term,
    read from its factors' DIA offsets: each factor at its lowest
    diagonal, d_k = -min o.  The strides s_k are products of the later
    sizes, so D = D' m_k + d_k factor by factor."""
    D = 0
    for F in term:
        m = F.shape[0]
        D = D * m - min(o for o in F.offsets.tolist() if abs(o) < m)
    return D


def _diagonals(F):
    """``(d, v)`` per diagonal of a DIA factor, d ascending: DIA row k
    holds F[c - o, c] at column c for offset o, so it is diagonal d = -o,
    v[j] = F[j + d, j], zero where the row j + d leaves F."""
    m, o = F.shape[0], F.offsets
    j = np.arange(m)
    V = np.where((j >= o[:, None]) & (j < m + o[:, None]),
                 F.data[:, :m], 0.0)
    return [(-int(o[k]), V[k]) for k in np.argsort(-o) if abs(o[k]) < m]


def _rows(form):
    """The lower band rows of a form, ``{D: v}`` with v[j] = A[j + D, j],
    from its Kronecker terms (see above)."""
    rows = {}
    for term in form.terms:
        factors = [_diagonals(F) for F in term]
        sizes = [F.shape[0] for F in term]
        strides = [math.prod(sizes[k + 1:]) for k in range(len(term))]
        for combo in itertools.product(*factors):
            D = sum(d * s for (d, _), s in zip(combo, strides))
            if D >= 0:
                v = functools.reduce(np.multiply.outer,
                                     [diag for _, diag in combo])
                rows[D] = rows.get(D, 0.0) + v.ravel()
    return rows


@dataclass(frozen=True)
class Sector:
    """The even (``sign`` = 1) or odd (-1) sector of a pencil of ``n``
    unknowns that commutes with the reversal P of their order.  Its basis
    W has the columns e_i + sign e_{n-1-i} for i < n // 2 and, in the
    even sector of an odd n, the middle unit vector e_{n // 2} last.  The
    pencil (W^T K W, W^T M W) holds exactly the sector's eigenvalues, and
    W and W^T only copy, negate and add entries: W^T W = diag(2, ..., 2, 1)
    is exact in floating point, where the orthonormal basis's sqrt 2
    would round every entry it touches."""

    n: int
    sign: int

    @property
    def size(self):
        return self.n - self.n // 2 if self.sign > 0 else self.n // 2

    def unfold(self, z):
        """W z for a vector or the columns of a block: exactly symmetric
        (even) or antisymmetric (odd) under P."""
        h = self.n // 2
        u = np.empty((self.n,) + z.shape[1:])
        u[:h] = z[:h]
        u[self.n - h:] = self.sign * z[:h][::-1]
        if self.n % 2:
            u[h] = z[h] if self.sign > 0 else 0.0
        return u

    def fold(self, u):
        """W^T u."""
        h = self.n // 2
        y = np.empty((self.size,) + u.shape[1:])
        y[:h] = u[:h] + self.sign * u[::-1][:h]
        if self.size > h:
            y[h] = u[h]
        return y


class BandRows:
    """The lower band rows of the forms K and M (``_rows``), built once per
    solve and combined into the band of K - shift M at each shift that it
    factors.  The half-bandwidth b comes from the factors' offsets
    (``_reach``), so the band of ``sector`` (the whole pencil's when
    None), the first that the solve factors, raises MemoryBudget when it
    takes more than ``MEMORY_BUDGET`` bytes before any row is built."""

    def __init__(self, K, M, sector=None):
        self.forms = K, M
        self.n = K.dim
        self.b = max(_reach(term) for form in self.forms
                     for term in form.terms)
        self.shape(sector)
        self.rows = tuple(map(_rows, self.forms))

    def size(self, sector):
        """The unknowns of ``sector``, of the whole pencil when None."""
        return self.n if sector is None else sector.size

    def shape(self, sector):
        """The shape (b + 1, size) of the band of ``sector``, the whole
        pencil when None; raises MemoryBudget when it takes more than
        ``MEMORY_BUDGET`` bytes."""
        size = self.size(sector)
        b = min(self.b, size - 1)
        if 8 * size * (b + 1) > MEMORY_BUDGET:
            raise MemoryBudget(f"the band of n = {size}, b = {b} takes "
                               f"{8 * size * (b + 1)} bytes > {MEMORY_BUDGET}")
        return b + 1, size

    def band(self, shift, sector):
        """Lower band of K - shift M, or of its ``sector`` block W^T A W
        when one is given, in LAPACK storage, ``band[i - j, j] = A[i, j]``,
        shape (b + 1, size).  It is Fortran-ordered so that ``dpbtrf``
        factors it in place: a C-ordered band would be copied, doubling its
        storage.  A band of more than ``MEMORY_BUDGET`` bytes raises
        MemoryBudget before it is allocated (``shape``).

        A sector's entry is 2 (A[i, j] + sign A[i, n-1-j]) for
        i, j < h = n // 2 (A commutes with P); the second term is nonzero
        only in a b x b corner next to the middle, so the sector keeps the
        half-bandwidth b.  The even sector of an odd n adds the middle
        row, 2 A[h, j], and A[h, h]: every column but the middle one is
        doubled."""
        band = np.zeros(self.shape(sector), order="F")
        Krows, Mrows = self.rows
        rows = dict(Krows)
        for D, v in Mrows.items():
            rows[D] = rows.get(D, 0.0) + -shift * v
        n, size = self.n, band.shape[1]
        b = band.shape[0] - 1
        for D, v in rows.items():
            if D <= b:
                band[D, :size - D] = v[:size - D]
        if sector is None:
            return band
        h = n // 2
        for off, v in rows.items():
            # v[r] = A[r + off, r] is the corner term of the sector entry
            # (i, j) = (r, n - 1 - r - off) when that lies in the lower
            # triangle of the first h rows
            r = np.arange(max((n - off) // 2, n - h - off, 0),
                          min(h, n - off))
            j = n - 1 - off - r
            band[r - j, j] += sector.sign * v[r]
        band[:, :h] *= 2.0
        return band


@dataclass
class BandCholesky:
    """Lower Cholesky factor L of a banded SPD matrix in LAPACK band
    storage, ``band[i - j, j] = L[i, j]``, shape (b + 1, n): of K - sigma M,
    or of its ``sector`` block when one is given."""

    band: np.ndarray
    sector: Sector | None

    def shift_invert(self, M, y):
        """C y for C = L^-1 M L^-T (L^-1 W^T M W L^-T in a sector), the
        symmetric operator similar to the shift-invert operator
        (K - sigma M)^-1 M: two triangular band sweeps and one product
        with M, applied by its Kronecker terms to the unfolded vector."""
        b = self.band.shape[0] - 1
        z = dtbsv(b, self.band, y, lower=1, trans=1)
        if self.sector is None:
            Mz = M @ z
        else:
            Mz = self.sector.fold(M @ self.sector.unfold(z))
        return dtbsv(b, self.band, Mz, lower=1)

    def back_transform(self, Y):
        """u = L^-T y (W L^-T y in a sector) for each column y of Y."""
        b = self.band.shape[0] - 1
        U = np.column_stack([dtbsv(b, self.band, y, lower=1, trans=1)
                             for y in Y.T])
        return U if self.sector is None else self.sector.unfold(U)


def _factor(rows, shift, sector):
    """Banded Cholesky factor of K - shift M, or of its ``sector`` block."""
    band, info = dpbtrf(rows.band(shift, sector), lower=1, overwrite_ab=1)
    if info:
        raise FactorizationFailed(
            f"singular or not positive definite at leading minor {info}")
    return BandCholesky(band, sector)


def _factor_above(rows, floor, guess, sector):
    """``(factor, shift)``: the banded factor of K - guess M when it exists,
    which proves lambda_1 > guess, else that of K - floor M (of their
    ``sector`` blocks, which proves it of the sector).  A failed try is
    dropped before the floor is factored (its band goes with the
    traceback), so one band is alive at a time."""
    if guess is not None and guess > floor:
        try:
            return _factor(rows, guess, sector), guess
        except FactorizationFailed:
            pass
    try:
        return _factor(rows, floor, sector), floor
    except FactorizationFailed as exc:
        raise FactorizationFailed(
            f"K - floor M at the floor {floor:.3e} is {exc}; lambda_1 "
            "is not above the floor") from None


def _above(rows, sector, lam):
    """Whether the ``sector`` block of K - lam M factors, which proves
    that every eigenvalue of the sector lies above ``lam``."""
    try:
        _factor(rows, lam, sector)
    except FactorizationFailed:
        return False
    return True


def _lanczos(rows, count, seed, floor, guess, sector):
    """``(values, vectors)``: the ``count`` smallest eigenpairs of the
    forms of ``rows``, or of their ``sector``, ascending, with vectors of
    the forms, unnormalized.  The factor is dropped on return."""
    K, M = rows.forms
    chol, shift = _factor_above(rows, floor, guess, sector)
    size = rows.size(sector)
    # ARPACK applies C and nothing else; a Ritz pair (theta, y) of C is
    # the pair (shift + 1/theta, L^-T y) of the pencil
    C = LinearOperator((size, size), dtype=float,
                       matvec=functools.partial(chol.shift_invert, M))
    v0 = np.random.default_rng(seed).standard_normal(size)
    try:
        thetas, ys = eigsh(C, k=count, which="LA", v0=v0,
                           ncv=min(size, 2 * count + 4), tol=LANCZOS_TOL,
                           maxiter=MAX_RESTARTS)
    except ArpackNoConvergence as exc:
        got, best = len(exc.eigenvalues), math.nan
        if got:
            U = chol.back_transform(exc.eigenvectors)
            best = float(_residuals(K @ U, M @ U,
                                    shift + 1.0 / exc.eigenvalues).min())
        raise NoConvergence(f"ARPACK converged {got}/{count} pairs, "
                            f"best residual {best:.3e}")
    except (ArpackError, RuntimeError) as exc:
        raise FactorizationFailed(f"shift-invert Lanczos failed: {exc}")

    vals = shift + 1.0 / np.asarray(thetas, dtype=float)
    order = np.argsort(vals)
    vals = vals[order]
    if vals[0] <= shift:
        raise FactorizationFailed(
            f"lambda_1 = {vals[0]:.3e} is not above the shift {shift:.3e}; "
            "assembly, boundary tagging or floor bug")
    return vals, chol.back_transform(np.asarray(ys, dtype=float)[:, order])


def _axial_mode(axis, seed):
    """The lowest mode q of the 1D pencil (K_k, M_k) of an
    ``UncoupledAxis``, M_k-normalized: the constant on an axis with free
    ends (or one free node), else the solved pair at the floor 0."""
    K, M = axis.K, axis.M
    if axis.free or K.dim == 1:
        q = np.ones(K.dim)
    else:
        q = _solve(K, M, 1, seed, 0.0, None)[1][:, 0]
    return q / math.sqrt(q @ (M @ q))


def _reduced(form, k, q):
    """The form on the v of u = v x q, with q on axis k: each term loses
    its factor F_k, and q^T F_k q weights its last factor."""
    return KroneckerForm(
        form.dim // len(q),
        [term[:k] + term[k + 1:-1] + (float(q @ (term[k] @ q)) * term[-1],)
         for term in form.terms],
        point_symmetric=form.point_symmetric)


def _solve(K, M, count, seed, floor, guess):
    """``(values, vectors)``: the ``count`` smallest eigenpairs of the
    forms, ascending, unnormalized.  A one-pair solve separates an
    ``uncoupled_axis`` that both forms record, and runs in the even sector
    of point-symmetric forms, kept once the odd sector's factor proves its
    spectrum above the pair; otherwise it solves the whole pencil (see
    above)."""
    axis = K.uncoupled_axis
    if (count == 1 and axis is not None and axis is M.uncoupled_axis
            and K.dim > axis.K.dim):
        k, q = axis.index, _axial_mode(axis, seed)
        vals, V = _solve(_reduced(K, k, q), _reduced(M, k, q), 1, seed,
                         floor, guess)
        before = math.prod(F.shape[0] for F in K.terms[0][:k])
        return vals, (V.reshape(before, 1, -1) * q[:, None]).reshape(-1, 1)
    folds = count == 1 and K.dim > 2 and K.point_symmetric \
        and M.point_symmetric
    first = Sector(K.dim, 1) if folds else None
    rows = BandRows(K, M, first)
    vals, vecs = _lanczos(rows, count, seed, floor, guess, first)
    if folds and not _above(rows, Sector(K.dim, -1), vals[0]):
        vals, vecs = _lanczos(rows, count, seed, floor, guess, None)
    return vals, vecs


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
    more than ``count`` unknowns; fewer raise BadResolution.  A one-pair
    solve of forms that separate along an ``uncoupled_axis`` solves their
    reduced pencil, and one of ``point_symmetric`` forms runs in the even
    sector and keeps its pair once the odd sector's factor proves the odd
    spectrum above it; otherwise it solves the whole pencil (see above).
    Vectors are M-normalized, pairwise M-orthogonal, and the first vector
    is sign-fixed positive.  Residual ||Ku - lambda Mu|| / ||Mu|| is
    checked against ``DEFAULT_TOL``; normalization and the residual check
    run on the whole forms.
    """
    if count < 1 or count > 6:
        raise ValueError("count must be between 1 and 6")
    n = K.dim
    if M.dim != n:
        raise ValueError("K and M dimensions differ")
    if count >= n:
        raise BadResolution(
            f"requested {count} pairs from a dimension-{n} pencil")

    vals, vecs = _solve(K, M, count, seed, floor, guess)

    # one product with each form serves normalization, the Gram check and
    # the residuals
    MV = M @ vecs
    norms = np.sqrt(np.einsum("ij,ij->j", vecs, MV))
    vecs, MV = vecs / norms, MV / norms
    KV = K @ vecs
    gram = vecs.T @ MV
    if np.abs(gram - np.eye(count)).max() > 10 * DEFAULT_TOL:
        # re-orthonormalize in the M inner product (gram is near identity)
        R = np.linalg.inv(np.linalg.cholesky(gram).T)
        vecs, MV, KV = vecs @ R, MV @ R, KV @ R
        vals = np.einsum("ij,ij->j", vecs, KV)
    res = _residuals(KV, MV, vals)
    if np.any(res > DEFAULT_TOL):
        raise NoConvergence(f"residuals {res} exceed tol {DEFAULT_TOL}")
    return [EigenPair(float(vals[i]),
                      _sign_fix(vecs[:, i]) if i == 0 else vecs[:, i],
                      float(res[i])) for i in range(count)]
