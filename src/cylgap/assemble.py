"""Stiffness and mass assembly on tensor meshes with Q1 elements.

Multilinear elements, 2-point tensor Gauss quadrature.  A depends on the
cross variable only, so cylinder forms are Kronecker sums of 1D axial and
cross-section matrices.  Dirichlet elimination happens on the factors,
each restricted to its free indices before the products; forms store
only the lower triangle, so they are exactly symmetric.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import coeff as coeff_mod
from .errors import DimensionMismatch, MeshMismatch, NotElliptic
from .grid import TensorMesh

_SQRT3 = np.sqrt(3.0)


def gauss_points_01():
    """2-point Gauss abscissae on [0, 1] (weights are 1/2 each)."""
    return np.array([0.5 - 0.5 / _SQRT3, 0.5 + 0.5 / _SQRT3])


@functools.cache
def reference_basis(d):
    """Q1 shape values and unit-cell gradients at the tensor Gauss points.

    Returns (N, G) with N[q, i] and G[q, a, i]; corners and quadrature
    points are ordered with the last axis fastest, so both are Kronecker
    products of the 1D tables.
    """
    xi = gauss_points_01()
    vals = np.stack([1.0 - xi, xi], axis=1)   # vals[q, corner]
    ders = np.array([[-1.0, 1.0]] * 2)        # unit-cell derivative
    N = functools.reduce(np.kron, [vals] * d)
    G = np.stack([functools.reduce(np.kron, [ders if a == b else vals
                                             for a in range(d)])
                  for b in range(d)], axis=1)
    return N, G


def quadrature_coords(mesh):
    """Physical quadrature coordinates, shape (n_cells, nq, ndim)."""
    offsets = np.array(list(itertools.product(gauss_points_01(),
                                              repeat=mesh.ndim)))
    return mesh.cell_origins()[:, None] + mesh.cell_sizes()[:, None] * offsets


@dataclass
class SparseSymmetricForm:
    """Assembled symmetric bilinear form over the free nodes.

    Only the lower triangle (including the diagonal) is stored in CSR;
    ``full()`` mirrors it on first use and keeps the mirror.
    """

    dim: int
    lower: sparse.csr_matrix
    kind: str
    provenance: dict = dc_field(default_factory=dict)
    _full: sparse.csr_matrix | None = dc_field(default=None, init=False,
                                               repr=False, compare=False)

    def full(self):
        if self._full is None:
            low = self.lower.tocsr()
            diag = sparse.diags(low.diagonal())
            self._full = (low + low.T - diag).tocsr()
        return self._full

    def energy(self, u):
        u = np.asarray(u, dtype=float)
        return float(u @ (self.full() @ u))


def _audit_spd(C, what):
    w = np.linalg.eigvalsh(C.reshape(-1, C.shape[-1], C.shape[-1]))
    lam = float(w[:, 0].min())
    if lam <= 0.0:
        raise NotElliptic(f"{what} has smallest sampled eigenvalue {lam:.3e}")


def factor_mesh(parts):
    """Tensor mesh over some axes of another mesh, such as its
    cross-section or one axial axis, with every axis end clamped (as the
    cross axes of a cylinder are)."""
    return TensorMesh("cross-section", parts, 0, None)


def coefficient_samples(cross, field, mats):
    """Coefficient ``mats`` (cross points to m x m matrices, such as
    ``field.eval_many``) at the quadrature points of a cross-section mesh,
    shape (n_cells, 2**ndim, m, m).

    Piecewise-constant fields take the midpoint rule: the cell-centre
    value at every point of the cell.
    """
    midpoint = field.piecewise_constant
    pts = cross.cell_centers() if midpoint else quadrature_coords(cross)
    C = mats(pts.reshape(-1, cross.ndim))
    _audit_spd(C, "coefficient at " + ("cell centers" if midpoint
                                       else "quadrature points"))
    C = C.reshape((cross.n_cells, -1) + C.shape[1:])
    return np.broadcast_to(C, (cross.n_cells, 2**cross.ndim) + C.shape[2:])


def _slot_matrices(mesh, C, n_values):
    """Slot matrices S[a][b] = int C_ab psi_a psi_b over all nodes.

    psi_a is the Q1 basis function itself for a < n_values and its
    derivative along axis a - n_values after that; C has shape
    (n_cells, nq, s, s), or broadcasts to it.
    """
    N, G = reference_basis(mesh.ndim)
    nq, nloc = N.shape
    s = n_values + mesh.ndim
    C = np.broadcast_to(C, (mesh.n_cells, nq, s, s))
    base = np.concatenate([np.repeat(N[:, None], n_values, axis=1), G],
                          axis=1)
    # value slots are unscaled, derivative slots carry 1/h of their axis
    scale = np.concatenate([np.ones((mesh.n_cells, n_values)),
                            1.0 / mesh.cell_sizes()], axis=1)
    w = mesh.cell_volumes() / nq
    Cs = C * (w[:, None, None, None] * scale[:, None, :, None]
              * scale[:, None, None, :])
    local = np.einsum("cqab,qai,qbj->abcij", Cs, base, base)
    cells = mesh.cell_node_indices()
    rows = np.repeat(cells, nloc, axis=1).ravel()   # local (i, j), j fastest
    cols = np.tile(cells, nloc).ravel()
    return [[sparse.csr_matrix((local[a, b].ravel(), (rows, cols)),
                               shape=(mesh.n_nodes, mesh.n_nodes))
             for b in range(s)] for a in range(s)]


def _kron(factors):
    return functools.reduce(
        lambda a, b: sparse.kron(a, b, format="csr"), factors)


def _assemble_pair(mesh, field, mats, reduced):
    """Stiffness and mass as Kronecker sums of 1D axial slot matrices and
    cross-section slot matrices.

    With p axial axes, slot a of the coefficient is an axial derivative
    for a < p and a cross derivative after that, so
    K = sum_ab (F_1(a, b) x ... x F_p(a, b)) x X_ab, where X_ab are the
    cross slot matrices of A and F_k(a, b) is the 1D stiffness, mixed or
    mass matrix as a and b are or are not k; M = M_1 x ... x M_p x M_c.
    Nodes are C-ordered with the axial axes first, as in these products.
    A cross-section pencil has no axial factor.  Each factor is sliced to
    the free indices of its axes first (``mesh.axis_free[k]`` for F_k, the
    cross mesh's free nodes for X_ab and Mc), so the products span the
    free nodes only.
    """
    p = mesh.n_axial
    cross = factor_mesh(mesh.cross_partitions)
    C = coefficient_samples(cross, field, mats)

    def free_slots(factor, C, n_values, free):
        if free[-1] - free[0] + 1 == free.size:  # a run slices faster
            free = slice(free[0], free[-1] + 1)
        return [[S[free][:, free] for S in row]
                for row in _slot_matrices(factor, C, n_values)]

    X = free_slots(cross, C, p, cross.free_nodes)
    axes = [free_slots(factor_mesh(mesh.axis_partitions[k:k + 1]),
                       np.ones((1, 1, 2, 2)), 1, mesh.axis_free[k])
            for k in range(p)]
    K = sum(_kron([axes[k][int(a == k)][int(b == k)] for k in range(p)]
                  + [X[a][b]])
            for a, b in itertools.product(range(C.shape[-1]), repeat=2))
    Mc = free_slots(cross, np.ones((1, 1, 1, 1)), 1, cross.free_nodes)[0][0]
    M = _kron([ax[0][0] for ax in axes] + [Mc])
    prov = {"mesh": mesh.key, "field": field.signature,
            "quadrature": "midpoint" if field.piecewise_constant else "gauss2",
            "reduced": bool(reduced), "_mesh": mesh, "_field": field}
    return tuple(SparseSymmetricForm(mesh.n_free,
                                     sparse.tril(mat, format="csr"),
                                     kind, dict(prov))
                 for mat, kind in ((K, "stiffness"), (M, "mass")))


def assemble_cylinder(mesh, field):
    """Stiffness and mass of the mixed problem on a cylinder-like mesh."""
    if mesh.domain_kind not in ("full-cylinder", "half-plus", "half-minus",
                                "multi-direction"):
        raise MeshMismatch(f"cylinder assembly on {mesh.domain_kind} mesh")
    if mesh.n_axial != field.p:
        raise DimensionMismatch(
            f"mesh has {mesh.n_axial} elongated axes, field has p={field.p}")
    if mesh.ndim - mesh.n_axial != field.cross_dim:
        raise DimensionMismatch(
            f"mesh cross dimension {mesh.ndim - mesh.n_axial} != field "
            f"cross dimension {field.cross_dim}")
    return _assemble_pair(mesh, field, field.eval_many, False)


def assemble_cross_section(mesh, field, reduced=False):
    """Cross-section pencil: coefficient A22, or its Schur reduction
    A22 - A12^t A11^-1 A12 when ``reduced``."""
    if mesh.domain_kind != "cross-section":
        raise MeshMismatch("cross-section assembly needs a cross-section mesh")
    if mesh.ndim != field.cross_dim:
        raise DimensionMismatch(
            f"mesh dim {mesh.ndim} != field cross dimension {field.cross_dim}")

    def mats(pts):
        if reduced:
            return coeff_mod.schur_reduce_many(field, pts)
        return field.eval_many(pts)[:, field.p:, field.p:]

    return _assemble_pair(mesh, field, mats, reduced)
