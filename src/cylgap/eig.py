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
row and one node in 3D (599 on ``multi_direction`` at L = 4).  A solve
checks the memory budget of every band of its first try (below) from
its size and b, then builds the rows of K and of M once (``BandRows``)
and combines them at each shift it factors: guess, floor and
certificates.  LAPACK ``dpbtrf`` factors the band in place in n (b + 1)
values.  A band of more than ``errors.MEMORY_BUDGET`` (1 GiB) raises
MemoryBudget before it is allocated, and one band is alive at a time, so
that is the most a solve's factor takes; a band of the first try over
the budget raises before any row is built (on the 16/8
``multi_direction`` pencil at L = 5 the even band of the point
reflection, 1.9 GiB, raised so, where the rows of K and M took 67 MiB;
its quarter sectors, below, now fit up to L = 6).  The
factor is also a certificate: it succeeds exactly when lambda_1 lies
above sigma (to rounding), so a guessed shift costs one factor try.  A
fill-reducing sparse factor wins only on cross-sections much finer than
any config uses: at 128 cross cells per unit (n = 32 895, b = 256, on a
2-vCPU VM) a banded solve takes 8.0 ms against 5.6 ms for a
minimum-degree SuperLU factor, which stores 28.9 MiB against the band's
64.5 MiB.

A pencil of ``point_symmetric`` forms (property (S) on a mesh symmetric
about 0) commutes with the point reflection, which reverses the order of
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

A field that leaves an axial axis x_k uncoupled (A_kj = 0 for j != k:
``KroneckerForm.mirror_axis``) on an axis that mirrors gives a pencil
that also commutes with x_k -> -x_k, which acts on each term's factor k
alone.  Its sectors are Kronecker forms again (``Mirror``): factor k
becomes W^T F W in the even or odd basis of the axis and moves
innermost, and the terms with a zero factor (the x_k derivatives of the
uncoupled row) are dropped.  On such a form the point reflection
reverses the order of blocks of h_k unknowns, one mirror-sector axis
each, so ``Sector`` folds it by blocks: the quarter sector, even under
both, holds about n / 4 unknowns at about half the bandwidth (3 744 at
b = 313 on the L = 4 ``multi_direction`` pencil of n = 14 375,
b = 599).  A one-pair solve runs there wherever the fold lowers b (on a
p = 1 cylinder only where the axis has fewer than about twice as many
free nodes as the cross-section, as on no config's pencil); the factors
at its lambda_1 of the point-odd sector of the x_k-even form and of
both block sectors of the x_k-odd form prove the answer
(``_tries``).  Where one fails, the solve falls back to the point
reflection's even sector, then to the whole pencil; vectors come back
exactly symmetric under x_k -> -x_k.  On the L = 4 pencil the four
sector factors take about 16-23 ms each (3 744, 3 731, 3 456 and 3 444
unknowns at b = 313, 313, 289 and 289) against 105-118 ms for each of
the two point sectors, and an application about 1.1 ms against 6.5-7.2
ms.  A run sweeps 642 634 unknowns over its applications on
``model_gap`` and 56 190 on ``multi_direction`` (123 816 in point
sectors alone), against 1 111 863 and 271 755 whole;
``asymmetric_showcase`` has no symmetric pencil and stays at 473 070.
Over 10 alternating benchmark pairs (seed 3, 2-vCPU VM)
``multi_direction`` ran in a median 0.113 s against 0.246 s with the
point fold alone, at a peak RSS of 75.9 MB against 103.2 MB.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
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


def _bandwidth(*forms):
    """The half-bandwidth of the forms, read from their factors' offsets
    (``_reach``)."""
    return max(_reach(term) for form in forms for term in form.terms)


@dataclass(frozen=True)
class Sector:
    """The even (``sign`` = 1) or odd (-1) sector of a pencil of ``n``
    unknowns that commutes with the reversal P of the order of their
    blocks of ``block`` consecutive unknowns (of the unknowns themselves
    at block 1): with N = n / block blocks, P maps unknown t of block i to
    unknown t of block N - 1 - i.  The basis W has the columns
    e_j + sign e_{P(j)} for the j in the first N // 2 blocks (``half``
    unknowns) and, in the even sector of an odd N, the unit vectors of the
    middle block, which P fixes, last.  The pencil (W^T K W, W^T M W)
    holds exactly the sector's eigenvalues, and W and W^T only copy,
    negate and add entries: W^T W = diag(2, ..., 2, 1, ..., 1) is exact
    in floating point, where the orthonormal basis's sqrt 2 would round
    every entry it touches."""

    n: int
    sign: int
    block: int = 1

    @property
    def half(self):
        return self.n // self.block // 2 * self.block

    @property
    def size(self):
        return self.n - self.half if self.sign > 0 else self.half

    def _reversed(self, a):
        """The blocks of the leading axis of ``a`` in reverse order."""
        return a.reshape((-1, self.block) + a.shape[1:])[::-1].reshape(
            a.shape)

    def unfold(self, z):
        """W z for a vector or the columns of a block: exactly symmetric
        (even) or antisymmetric (odd) under P."""
        h = self.half
        u = np.empty((self.n,) + z.shape[1:])
        u[:h] = z[:h]
        u[self.n - h:] = self.sign * self._reversed(z[:h])
        u[h:self.n - h] = z[h:] if self.sign > 0 else 0.0
        return u

    def fold(self, u):
        """W^T u."""
        h = self.half
        y = np.empty((self.size,) + u.shape[1:])
        y[:h] = u[:h] + self.sign * self._reversed(u[self.n - h:])
        if self.size > h:
            y[h:] = u[h:self.n - h]
        return y


def _congruence(F, sector):
    """W^T F W for the basis W of ``sector``, as a DIA array of F's
    half-bandwidth w, which a sector keeps (``BandRows.band``)."""
    m, s = F.shape[0], sector.size
    j = np.arange(m)
    dense = np.zeros((m, m))
    for d, v in _diagonals(F):
        run = j[max(-d, 0):m - max(d, 0)]
        dense[run + d, run] = v[run]
    G = sector.fold(sector.fold(dense).T).T
    w = min(max(abs(int(o)) for o in F.offsets), s - 1)
    offsets = np.arange(-w, w + 1)
    data = np.zeros((len(offsets), s))
    for k, o in enumerate(offsets):
        c = np.arange(max(o, 0), s + min(o, 0))
        data[k, c] = G[c - o, c]
    return sparse.dia_array((data, offsets), shape=(s, s))


def _is_zero(F):
    return not any(v.any() for _, v in _diagonals(F))


@dataclass(frozen=True)
class Mirror:
    """The reflection x_k -> -x_k of axis k = ``axis`` of forms over the
    C-ordered free node grid of ``shape``, one size per factor of a term,
    that commute with it (``KroneckerForm.mirror_axis``).  A sector of
    the reflection is a form again: factor k of each term becomes
    W^T F W in the ``Sector`` basis W of the axis and moves last, so that
    the axis is innermost, and a term with a zero factor is dropped."""

    shape: tuple
    axis: int

    def sector(self, sign):
        return Sector(self.shape[self.axis], sign)

    def fold(self, form, sign):
        """The form (W^T F W term by term) on the ``sign`` sector."""
        W, k = self.sector(sign), self.axis
        terms = [term[:k] + term[k + 1:] + (_congruence(term[k], W),)
                 for term in form.terms]
        return KroneckerForm(
            form.dim // self.shape[k] * W.size,
            [term for term in terms if not any(map(_is_zero, term))])

    def unfold(self, Z):
        """W Z of the even sector for the columns of a block Z of its
        unknowns, in the order of the whole form: exactly symmetric under
        the reflection."""
        W = self.sector(1)
        Z = Z.reshape(math.prod(self.shape[:self.axis]), -1, W.size,
                      Z.shape[-1])
        U = W.unfold(Z.transpose(2, 0, 1, 3)).transpose(1, 0, 2, 3)
        return U.reshape(-1, Z.shape[-1])


class BandRows:
    """The lower band rows of the forms K and M (``_rows``), built once on
    first use and combined into the band of K - shift M at each shift
    that a solve factors.  The half-bandwidth b comes from the factors'
    offsets (``_bandwidth``), so ``shape`` checks the memory budget of a
    band before any row is built."""

    def __init__(self, K, M):
        self.forms = K, M
        self.n = K.dim
        self.b = _bandwidth(K, M)

    @functools.cached_property
    def rows(self):
        return tuple(map(_rows, self.forms))

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

        A sector's entry is 2 (A[i, j] + sign A[i, P(j)]) for i, j below
        its ``half`` h (A commutes with P); the second term is nonzero only
        in a corner next to the middle, where the lower half of the band
        of A meets its reflection, so the sector keeps the half-bandwidth
        b.  The even sector of an odd number of blocks adds the middle
        block's rows, 2 A[i, j] for j < h, and its own entries A[i, j]:
        every column below h is doubled."""
        shape = self.shape(sector)
        Krows, Mrows = self.rows
        band = np.zeros(shape, order="F")
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
        h, block = sector.half, sector.block
        for off, v in rows.items():
            # v[r] = A[r + off, r] = A[r, P(j)] is the corner term of the
            # sector entry (r, j), j = P(r + off), when that lies in the
            # lower triangle of the first h rows; P(q) >= n - block - q.
            # Beyond the band v[r] is zero: such an entry would step the
            # innermost axis out of its block, which no term couples
            r = np.arange(max((n - block - off) // 2, 0), min(h, n - off))
            q = r + off
            j = n - block - q + 2 * (q % block)
            keep = (j <= r) & (r - j <= b)
            r, j = r[keep], j[keep]
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


def _quarter(K, M, point):
    """The try of a one-pair solve on a sector of K's ``mirror_axis`` (see
    ``_tries``), or None when the forms have none or its fold would not
    lower the half-bandwidth.  With ``point`` symmetry each sector of the
    mirror is split again by the point reflection, which reverses the
    order of its blocks of one mirror-sector axis each."""
    k = K.mirror_axis
    if k is None or k != M.mirror_axis:
        return None
    mirror = Mirror(tuple(F.shape[0] for F in K.terms[0]), k)
    even = BandRows(*(mirror.fold(F, 1) for F in (K, M)))
    if even.b >= _bandwidth(K, M):
        return None
    odd = BandRows(*(mirror.fold(F, -1) for F in (K, M)))
    if point:
        pieces = [(rows, Sector(rows.n, sign, mirror.sector(parity).size))
                  for parity, rows in ((1, even), (-1, odd))
                  for sign in (1, -1)]
    else:
        pieces = [(even, None), (odd, None)]
    (rows, first), *certificates = [(rows, sector) for rows, sector in pieces
                                    if rows.size(sector) > 0]
    if rows.size(first) < 2:
        return None
    return rows, first, certificates, mirror.unfold


def _tries(K, M, count):
    """The solves of a pencil in the order they are tried, each
    ``(rows, sector, certificates, unfold)``: Lanczos on ``sector`` of
    the forms of ``rows`` (all of it when None), kept when each
    certificate ``(rows, sector)`` factors at its lambda_1; ``unfold``
    maps the vectors to K's unknowns (None: they are K's).  A one-pair
    solve tries the quarter sector (``_quarter``), then the even sector
    of point-symmetric forms, and every solve ends on the whole pencil.
    Every band of the first try is checked against the budget here,
    before any row is built; rows are built on a try's first factor."""
    point = K.point_symmetric and M.point_symmetric
    quarter = _quarter(K, M, point) if count == 1 else None
    tries = [] if quarter is None else [quarter]
    whole = BandRows(K, M)
    if count == 1 and point and K.dim > 2:
        tries.append((whole, Sector(K.dim, 1),
                      [(whole, Sector(K.dim, -1))], None))
    tries.append((whole, None, [], None))
    rows, first, certificates, _ = tries[0]
    for rows, sector in [(rows, first)] + certificates:
        rows.shape(sector)
    return tries


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
    solve runs in a sector of the forms' symmetries and keeps its pair
    once the factors of the other sectors prove their spectra above it;
    otherwise it tries a larger sector, and last the whole pencil (see
    above).  Vectors are M-normalized, pairwise M-orthogonal, and the
    first vector is sign-fixed positive.  Residual ||Ku - lambda Mu|| /
    ||Mu|| is checked against ``DEFAULT_TOL``.
    """
    if count < 1 or count > 6:
        raise ValueError("count must be between 1 and 6")
    n = K.dim
    if M.dim != n:
        raise ValueError("K and M dimensions differ")
    if count >= n:
        raise BadResolution(
            f"requested {count} pairs from a dimension-{n} pencil")

    for rows, sector, certificates, unfold in _tries(K, M, count):
        vals, vecs = _lanczos(rows, count, seed, floor, guess, sector)
        if all(_above(*cert, vals[0]) for cert in certificates):
            break
    if unfold is not None:
        vecs = unfold(vecs)

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
