"""Stiffness and mass assembly on tensor meshes with Q1 elements.

Multilinear elements, 2-point tensor Gauss quadrature.  A depends on the
cross variable only, so cylinder forms are Kronecker sums of 1D axial and
cross-section matrices.  Dirichlet elimination happens on the factors,
each restricted to its free indices; a form holds these factors, term by
term, and never forms their products.  A cross-section pencil of A is
the cross block of its cylinders' cross set.  Inside a ``solve_memo``
block each slot set is built once and restricted once per free-index set.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import coeff as coeff_mod
from .errors import DimensionMismatch, MeshMismatch, NotElliptic
from .grid import TensorMesh

_SQRT3 = np.sqrt(3.0)

# the slot-matrix sets of the enclosing ``experiments.solve_memo``
# block; None outside any block
_MEMO = contextvars.ContextVar("cylgap_solve_memo", default=None)


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
class KroneckerForm:
    """Symmetric form over the free nodes as a sum of Kronecker products:
    each term is a tuple of CSR factors F_1, ..., F_k, restricted to the
    free indices of their axes, for F_1 x ... x F_k.  ``form @ u``
    applies it to a vector or a block factor by factor; ``lower``, the
    CSR lower triangle of the sum, is built on first access."""

    dim: int
    terms: list
    provenance: dict = dc_field(default_factory=dict)

    def __matmul__(self, u):
        u = np.asarray(u, dtype=float)
        total = 0.0
        for term in self.terms:
            # each factor acts on the leading axis and the transpose
            # rotates it to the back, so (n_1, ..., cols) ends (cols, ...)
            V = u
            for F in term:
                V = (F @ V.reshape(F.shape[1], -1)).T
            total = total + V
        return total.reshape(-1, self.dim).T.reshape(u.shape)

    @functools.cached_property
    def lower(self):
        return sparse.tril(sum(functools.reduce(
            lambda a, b: sparse.kron(a, b, format="csr"), term)
            for term in self.terms), format="csr")


def _audit_spd(C, what):
    w = np.linalg.eigvalsh(C.reshape(-1, C.shape[-1], C.shape[-1]))
    lam = float(w[:, 0].min())
    if not lam > 0.0:  # NaN compares False
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


def _slot_matrices(mesh, C, n_values, free):
    """Slot matrices S[a][b] = int C_ab psi_a psi_b on the nodes ``free``.

    psi_a is the Q1 basis function itself for a < n_values and its
    derivative along axis a - n_values after that; C has shape
    (n_cells, nq, s, s), or broadcasts to it.

    Inside a ``solve_memo`` block the all-node set of each mesh key,
    ``n_values`` and C (shape and bytes) is built once, and restricted
    once per ``free``; callers only read what they get.  Outside any
    block every call builds and restricts afresh.
    """
    memo = {} if _MEMO.get() is None else _MEMO.get()
    key = (mesh.key, n_values, C.shape,
           hashlib.blake2b(C.tobytes(), digest_size=16).hexdigest())
    if key not in memo:
        memo[key] = _build_slots(mesh, C, n_values)
    restricted = key + (free.tobytes(),)
    if restricted not in memo:
        memo[restricted] = [[_restrict(S, free) for S in row]
                            for row in memo[key]]
    return memo[restricted]


def _restrict(S, free):
    if free[-1] - free[0] + 1 == free.size:  # a run slices faster
        free = slice(free[0], free[-1] + 1)
    return S[free][:, free]


def _build_slots(mesh, C, n_values):
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


def _assemble_pair(mesh, field, mats, n_values):
    """Stiffness and mass as Kronecker sums of 1D axial slot matrices and
    cross-section slot matrices.

    With p axial axes, slot a of the coefficient is an axial derivative
    for a < p and a cross derivative after that, so
    K = sum_ab (F_1(a, b) x ... x F_p(a, b)) x X_ab, where X_ab are the
    cross slot matrices of ``mats`` and F_k(a, b) is the 1D stiffness,
    mixed or mass matrix as a and b are or are not k; M = M_1 x ... x
    M_p x M_c.  Of the cross set's ``n_values`` value slots the first
    n_values - p are dropped, so a cross-section pencil of A is the cross
    block of the set its cylinders read.  Nodes are C-ordered with the
    axial axes first, as in these products.  Mc is the value slot of the
    cross set of C = I.  Each factor comes restricted to the free indices
    of its axes (``mesh.axis_free[k]`` for F_k, the cross mesh's free
    nodes for X_ab and Mc), so every term spans the free nodes only.
    """
    p = mesh.n_axial
    cross = factor_mesh(mesh.cross_partitions)
    X = _slot_matrices(cross, coefficient_samples(cross, field, mats),
                       n_values, cross.free_nodes)
    axes = [_slot_matrices(factor_mesh(mesh.axis_partitions[k:k + 1]),
                           np.ones((1, 1, 2, 2)), 1, mesh.axis_free[k])
            for k in range(p)]
    K = [tuple(axes[k][int(a == k)][int(b == k)] for k in range(p))
         + (X[a][b],)
         for a, b in itertools.product(range(n_values - p, len(X)), repeat=2)]
    Mc = _slot_matrices(cross, np.eye(1 + cross.ndim)[None, None], 1,
                        cross.free_nodes)[0][0]
    M = [tuple(ax[0][0] for ax in axes) + (Mc,)]
    prov = {"mesh": mesh.key, "field": field.signature,
            "quadrature": "midpoint" if field.piecewise_constant else "gauss2",
            "reduced": n_values == 0, "_mesh": mesh, "_field": field}
    return tuple(KroneckerForm(mesh.n_free, terms, dict(prov))
                 for terms in (K, M))


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
    return _assemble_pair(mesh, field, field.eval_many, field.p)


def assemble_cross_section(mesh, field, reduced=False):
    """Cross-section pencil: coefficient A22, the cross block of A's set,
    or its Schur reduction A22 - A12^t A11^-1 A12 when ``reduced``."""
    if mesh.domain_kind != "cross-section":
        raise MeshMismatch("cross-section assembly needs a cross-section mesh")
    if mesh.ndim != field.cross_dim:
        raise DimensionMismatch(
            f"mesh dim {mesh.ndim} != field cross dimension {field.cross_dim}")
    if reduced:
        return _assemble_pair(mesh, field, functools.partial(
            coeff_mod.schur_reduce_many, field), 0)
    return _assemble_pair(mesh, field, field.eval_many, field.p)
