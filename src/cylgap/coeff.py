"""Coefficient matrix fields A(X2) and their block algebra.

A field maps a cross-section point X2 (dimension n-p) to a symmetric
n x n matrix whose leading p x p block couples the elongated axes.
Fields are immutable and evaluate vectorized over many points.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatch, SingularBlock

RCOND_SINGULAR = 1e-12
TOL_CON = 1e-8


class CoefficientField:
    """Symmetric matrix field with p elongated directions.

    ``matrix_fn`` receives points of shape (m, n-p) and returns
    (m, n, n) symmetric matrices; builders in this module construct
    symmetric output, it is not re-checked.
    """

    def __init__(self, n, p, matrix_fn, kind="user", params=None,
                 piecewise_constant=False):
        if n not in (2, 3):
            raise ValueError("spatial dimension n must be 2 or 3")
        if p not in (1, 2) or p >= n:
            raise ValueError("need 1 <= p < n")
        self.n = int(n)
        self.p = int(p)
        self.cross_dim = self.n - self.p
        self._fn = matrix_fn
        self.kind = kind
        self.params = dict(params or {})
        self.piecewise_constant = bool(piecewise_constant)

    def as_points(self, X2):
        """Normalize X2 input to shape (m, cross_dim)."""
        pts = np.asarray(X2, dtype=float)
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
        elif pts.ndim == 1:
            if self.cross_dim == 1:
                pts = pts.reshape(-1, 1)
            else:
                pts = pts.reshape(1, -1)
        if pts.shape[1] != self.cross_dim:
            raise MeshMismatch(
                f"points have dimension {pts.shape[1]}, field cross dim {self.cross_dim}"
            )
        return pts

    def eval_many(self, X2):
        pts = self.as_points(X2)
        out = np.asarray(self._fn(pts), dtype=float)
        if out.shape != (len(pts), self.n, self.n):
            raise ValueError("matrix_fn returned wrong shape")
        return out

    def __call__(self, X2):
        return self.eval_many(X2)[0]

    def reflected(self):
        """Field with the axial coupling negated (x1 -> -x1 change of
        variables on the first axis)."""
        base = self._fn
        p, n = self.p, self.n

        def fn(pts):
            A = np.array(base(pts), dtype=float, copy=True)
            A[:, :p, p:] *= -1.0
            A[:, p:, :p] *= -1.0
            return A

        return CoefficientField(n, p, fn, kind=self.kind + "-reflected",
                                params=self.params,
                                piecewise_constant=self.piecewise_constant)

    def is_even(self, samples):
        """Check A(-X2) = A(X2) on sample points (property (S) half)."""
        pts = self.as_points(samples)
        return bool(np.allclose(self.eval_many(pts), self.eval_many(-pts),
                                atol=1e-12, rtol=1e-12))

    @property
    def signature(self):
        items = ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if np.isscalar(v))
        return f"{self.kind}(n={self.n},p={self.p},{items})"

    def __repr__(self):
        return f"CoefficientField({self.signature})"


# -- builders -------------------------------------------------------------


def _entries_fn(n, entries):
    def fn(pts):
        m = len(pts)
        A = np.zeros((m, n, n))
        for (i, j), e in entries.items():
            v = e(pts) if callable(e) else float(e)
            A[:, i, j] = v
            if i != j:
                A[:, j, i] = v
        return A

    return fn


def field_from_entries(n, p, entries, kind="user", params=None,
                       piecewise_constant=False):
    """Field from a dict {(i, j): const or callable(points)->(m,)} giving
    the upper triangle; the lower triangle is mirrored."""
    return CoefficientField(n, p, _entries_fn(n, entries), kind=kind,
                            params=params, piecewise_constant=piecewise_constant)


def model_field(delta):
    """Constant 2x2 field [[1, delta], [delta, 1]] on omega = (-1, 1)."""
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    return field_from_entries(
        2, 1, {(0, 0): 1.0, (0, 1): float(delta), (1, 1): 1.0},
        kind="model-delta", params={"delta": float(delta)})


def identity_field(n=2, p=1):
    return field_from_entries(n, p, {(i, i): 1.0 for i in range(n)},
                              kind="identity")


def diagonal_field(diag, p=1):
    """Constant diagonal field diag(a11, a22, ...)."""
    diag = [float(d) for d in diag]
    return field_from_entries(len(diag), p,
                              {(i, i): d for i, d in enumerate(diag)},
                              kind="diagonal",
                              params={f"a{i}{i}": d
                                      for i, d in enumerate(diag, 1)})


def asymmetric_model_field(delta0=0.5):
    """Model field with delta replaced by delta0*(1 + x2/2): smooth,
    non-even coupling that breaks property (S)."""
    if not 0.0 < delta0 <= 0.6:
        raise ValueError("delta0 in (0, 0.6] keeps the field elliptic on (-1,1)")
    return field_from_entries(
        2, 1,
        {(0, 0): 1.0, (0, 1): lambda pts: delta0 * (1.0 + pts[:, 0] / 2.0),
         (1, 1): 1.0},
        kind="asymmetric-model", params={"delta0": float(delta0)})


def variable_a22_field(delta):
    """Model coupling with the variable cross block a22 = 1 + x2^2/4."""
    return field_from_entries(
        2, 1, {(0, 0): 1.0, (0, 1): float(delta),
               (1, 1): lambda pts: 1.0 + pts[:, 0] ** 2 / 4.0},
        kind="variable-a22", params={"delta": float(delta)})


def neg_coupling_field(c=0.5, a11=2.0):
    """2x2 field with a12 = c*sin(pi x2 / 2) on omega = (-1, 1).

    Against W1 = cos(pi x2 / 2) the coupling satisfies
    a12 * W1' = -(pi/2) c sin^2 <= 0 everywhere, the one-signed case in
    which the axial Rayleigh quotient cannot drop below mu^1.
    """
    return field_from_entries(
        2, 1,
        {(0, 0): float(a11),
         (0, 1): lambda pts: c * np.sin(np.pi * pts[:, 0] / 2.0),
         (1, 1): 1.0},
        kind="neg-coupling", params={"c": float(c), "a11": float(a11)})


def multi_model_field(delta):
    """3x3 field with two elongated axes; only the first axial row
    couples to the cross direction (A12 rows (delta,) and (0,))."""
    return field_from_entries(
        3, 2, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (0, 2): float(delta)},
        kind="multi-model", params={"delta": float(delta)})


def row_restriction_field(field, i):
    """Restriction of A to the span of axial direction i and the cross
    directions: the (1 + n - p) x (1 + n - p) matrix of row i."""
    if not 0 <= i < field.p:
        raise ValueError("row index must name an elongated axis")
    p, q = field.p, field.cross_dim

    def fn(pts):
        A = field.eval_many(pts)
        m = len(pts)
        B = np.empty((m, 1 + q, 1 + q))
        B[:, 0, 0] = A[:, i, i]
        B[:, 0, 1:] = A[:, i, p:]
        B[:, 1:, 0] = A[:, p:, i]
        B[:, 1:, 1:] = A[:, p:, p:]
        return B

    return CoefficientField(1 + q, 1, fn, kind=f"{field.kind}-row{i}",
                            params=field.params,
                            piecewise_constant=field.piecewise_constant)


def piecewise_constant_field(bounds, matrices, p=1):
    """Piecewise-constant field over a 1D cross-section.

    ``bounds`` are the cell edges (len m+1), ``matrices`` the per-cell
    symmetric matrices (m, n, n).
    """
    bounds = np.asarray(bounds, dtype=float)
    mats = np.asarray(matrices, dtype=float)
    if bounds.ndim != 1 or len(bounds) != len(mats) + 1:
        raise ValueError("need len(bounds) == len(matrices) + 1")
    if np.any(np.diff(bounds) <= 0):
        raise ValueError("bounds must increase")
    n = mats.shape[1]
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    mats.setflags(write=False)

    def fn(pts):
        idx = np.clip(np.searchsorted(bounds, pts[:, 0], side="right") - 1,
                      0, len(mats) - 1)
        return mats[idx]

    digest = hashlib.blake2b(bounds.tobytes() + mats.tobytes(),
                             digest_size=16).hexdigest()
    return CoefficientField(n, p, fn, kind="piecewise-table",
                            params={"cells": len(mats), "table": digest},
                            piecewise_constant=True)


def field_from_table(path):
    """Load a piecewise-constant field from a plain-text table.

    First non-comment line: ``n p``.  Each following line describes one
    cross-section cell: ``lo hi`` followed by the n(n+1)/2 upper-triangular
    entries of A in row-major order.  Cells must tile an interval.
    """
    with open(path, "r", encoding="utf-8") as f:
        rows = [ln.split("#", 1)[0].strip() for ln in f]
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: empty table")
    header = rows[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: first line must be 'n p'")
    n, p = int(header[0]), int(header[1])
    if n - p != 1:
        raise ValueError("tables support 1D cross-sections (n - p = 1)")
    n_upper = n * (n + 1) // 2
    cells = []
    for r in rows[1:]:
        vals = [float(v) for v in r.split()]
        if len(vals) != 2 + n_upper:
            raise ValueError(f"{path}: cell line needs 2 + {n_upper} numbers")
        cells.append(vals)
    cells.sort(key=lambda v: v[0])
    bounds = [cells[0][0]]
    mats = []
    for v in cells:
        if abs(v[0] - bounds[-1]) > 1e-12:
            raise ValueError(f"{path}: cells do not tile an interval")
        bounds.append(v[1])
        A = np.zeros((n, n))
        k = 2
        for i in range(n):
            for j in range(i, n):
                A[i, j] = A[j, i] = v[k]
                k += 1
        mats.append(A)
    return piecewise_constant_field(bounds, mats, p=p)


# -- operations -----------------------------------------------------------


def _a11_blocks(field, pts):
    A = field.eval_many(pts)
    p = field.p
    A11 = A[:, :p, :p]
    w = np.linalg.eigvalsh(A11)
    scale = np.abs(A).max(axis=(1, 2))
    bad = (w[:, 0] <= 0) | (w[:, 0] < RCOND_SINGULAR * scale)
    if np.any(bad):
        raise SingularBlock(
            f"axial block numerically singular at X2={pts[np.argmax(bad)]}")
    return A11, A[:, :p, p:], A[:, p:, p:]


def schur_reduce_many(field, pts):
    """Vectorized Schur complements A22 - A12^t A11^-1 A12 at many points."""
    pts = field.as_points(pts)
    A11, A12, A22 = _a11_blocks(field, pts)
    red = A22 - np.einsum("mpi,mpj->mij", A12, np.linalg.solve(A11, A12))
    return 0.5 * (red + red.transpose(0, 2, 1))


def cell_center_gradients(mesh, node_values):
    """Per-cell gradient of a multilinear nodal function at cell centers."""
    vals = node_values[mesh.cell_node_indices()]
    d = mesh.ndim
    t = vals.reshape((mesh.n_cells,) + (2,) * d)
    h = mesh.cell_sizes()
    grads = np.empty((mesh.n_cells, d))
    for a in range(d):
        dv = np.diff(t, axis=1 + a)
        grads[:, a] = dv.reshape(mesh.n_cells, -1).mean(axis=1) / h[:, a]
    return grads


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    norm: float
    signed_integral: object
    pointwise_nonpositive: bool


def condition_con(field, W1, mesh):
    """Audit the coupling condition A12 . grad(W1) != 0 on the cross-section.

    ``norm`` is the L2(omega) norm of A12 . grad(W1) with elementwise
    gradients and midpoint quadrature; ``signed_integral`` is the
    quadrature value of the boundary-flux integral (A12 . grad W1) W1,
    one value per elongated axis (a scalar when p = 1);
    ``pointwise_nonpositive`` reports the one-signed case
    A12 . grad(W1) <= TOL_CON at every midpoint; ``holds`` means a norm
    above TOL_CON.
    """
    if mesh.domain_kind != "cross-section":
        raise MeshMismatch("condition audit needs a cross-section mesh")
    if mesh.ndim != field.cross_dim:
        raise MeshMismatch("mesh dimension does not match the field")
    vec = W1.vector if hasattr(W1, "vector") else np.asarray(W1, dtype=float)
    full = mesh.scatter_free(vec)
    grads = cell_center_gradients(mesh, full)
    centers = mesh.cell_centers()
    A = field.eval_many(centers)
    p = field.p
    g = np.einsum("mpq,mq->mp", A[:, :p, p:], grads)
    vol = mesh.cell_volumes()
    norm = float(np.sqrt((vol[:, None] * g**2).sum()))
    w_center = full[mesh.cell_node_indices()].mean(axis=1)
    signed = (vol[:, None] * g * w_center[:, None]).sum(axis=0)
    signed_out = float(signed[0]) if p == 1 else signed
    return ConditionReport(
        holds=norm > TOL_CON,
        norm=norm,
        signed_integral=signed_out,
        pointwise_nonpositive=bool(np.all(g <= TOL_CON)),
    )
