"""Stiffness and mass assembly on tensor meshes with Q1 elements.

Multilinear elements, 2-point tensor Gauss quadrature, Dirichlet
elimination by dropping tagged rows and columns.  Forms store only the
lower triangle, so they are exactly symmetric by construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import coeff as coeff_mod
from .errors import DimensionMismatch, MeshMismatch, NotElliptic
from .grid import with_full_dirichlet

_SQRT3 = np.sqrt(3.0)


def gauss_points_01():
    """2-point Gauss abscissae on [0, 1] (weights are 1/2 each)."""
    return np.array([0.5 - 0.5 / _SQRT3, 0.5 + 0.5 / _SQRT3])


@functools.cache
def reference_basis(d):
    """Q1 shape values and unit-cell gradients at the tensor Gauss points.

    Returns (N, G) with N[q, i] and G[q, a, i]; corners and quadrature
    points are ordered with the last axis fastest.
    """
    xi = gauss_points_01()
    n1 = np.stack([1.0 - xi, xi])      # n1[corner, q]
    d1 = np.array([-1.0, 1.0])         # unit-cell derivative per corner
    corners = list(itertools.product((0, 1), repeat=d))
    qcombos = list(itertools.product((0, 1), repeat=d))
    nq, nloc = len(qcombos), len(corners)
    N = np.empty((nq, nloc))
    G = np.empty((nq, d, nloc))
    for qi, qc in enumerate(qcombos):
        for ki, kc in enumerate(corners):
            axis_vals = [n1[kc[a], qc[a]] for a in range(d)]
            N[qi, ki] = np.prod(axis_vals)
            for b in range(d):
                parts = list(axis_vals)
                parts[b] = d1[kc[b]]
                G[qi, b, ki] = np.prod(parts)
    return N, G


def quadrature_coords(mesh):
    """Physical quadrature coordinates, shape (n_cells, nq, ndim)."""
    d = mesh.ndim
    xi = gauss_points_01()
    origins = mesh.cell_origins()
    sizes = mesh.cell_sizes()
    nq = 2**d
    pts = np.empty((mesh.n_cells, nq, d))
    for qi, qc in enumerate(itertools.product((0, 1), repeat=d)):
        off = np.array([xi[c] for c in qc])
        pts[:, qi] = origins + sizes * off
    return pts


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

    @property
    def col_indices(self):
        return self.lower.indices

    @property
    def values(self):
        return self.lower.data

    def energy(self, u):
        u = np.asarray(u, dtype=float)
        return float(u @ (self.full() @ u))

    def scale(self, c):
        return SparseSymmetricForm(self.dim, (self.lower * c).tocsr(),
                                   self.kind, dict(self.provenance))


def _audit_spd(C, what):
    w = np.linalg.eigvalsh(C.reshape(-1, C.shape[-1], C.shape[-1]))
    lam = float(w[:, 0].min())
    if lam <= 0.0:
        raise NotElliptic(f"{what} has smallest sampled eigenvalue {lam:.3e}")


def _assemble_pair(mesh, mat_at_points, midpoint, provenance):
    d = mesh.ndim
    N, Gref = reference_basis(d)
    nq = nloc = 2**d
    cells = mesh.cell_node_indices()
    h = mesh.cell_sizes()
    vol = mesh.cell_volumes()
    nc = mesh.n_cells
    if midpoint:
        C = mat_at_points(mesh.cell_centers())
        _audit_spd(C, "coefficient at cell centers")
        C = np.broadcast_to(C[:, None], (nc, nq, d, d))
    else:
        pts = quadrature_coords(mesh).reshape(-1, d)
        C = mat_at_points(pts).reshape(nc, nq, d, d)
        _audit_spd(C, "coefficient at quadrature points")
    scale = 1.0 / h
    Cs = C * scale[:, None, :, None] * scale[:, None, None, :]
    Kloc = np.einsum("cqab,qai,qbj->cij", Cs, Gref, Gref)
    Kloc *= (vol / nq)[:, None, None]
    Mref = (N[:, :, None] * N[:, None, :]).mean(axis=0)
    Mloc = vol[:, None, None] * Mref

    fi = mesh.free_index[cells]
    ii = np.broadcast_to(fi[:, :, None], (nc, nloc, nloc))
    jj = np.broadcast_to(fi[:, None, :], (nc, nloc, nloc))
    keep = (ii >= 0) & (jj >= 0)
    nf = mesh.n_free
    rows = ii[keep]
    cols = jj[keep]

    def pack(local, kind):
        mat = sparse.coo_matrix((local[keep], (rows, cols)),
                                shape=(nf, nf)).tocsr()
        return SparseSymmetricForm(nf, sparse.tril(mat, format="csr"),
                                   kind, dict(provenance))

    return pack(Kloc, "stiffness"), pack(Mloc, "mass")


def _cross_slices(mesh, field):
    n_cross = mesh.ndim - mesh.n_axial
    if n_cross != field.cross_dim:
        raise DimensionMismatch(
            f"mesh cross dimension {n_cross} != field cross dimension "
            f"{field.cross_dim}")


def assemble_cylinder(mesh, field):
    """Stiffness and mass of the mixed problem on a cylinder-like mesh."""
    if mesh.domain_kind not in ("full-cylinder", "half-plus", "half-minus",
                                "multi-direction"):
        raise MeshMismatch(f"cylinder assembly on {mesh.domain_kind} mesh")
    if mesh.n_axial != field.p:
        raise DimensionMismatch(
            f"mesh has {mesh.n_axial} elongated axes, field has p={field.p}")
    _cross_slices(mesh, field)

    def mats(pts):
        return field.eval_many(pts[:, mesh.n_axial:])

    prov = {"mesh": mesh.signature, "field": field.signature,
            "quadrature": "midpoint" if field.piecewise_constant else "gauss2",
            "_mesh": mesh, "_field": field}
    return _assemble_pair(mesh, mats, field.piecewise_constant, prov)


def assemble_dirichlet_cylinder(mesh, field):
    """Same bilinear forms with the whole boundary Dirichlet (the
    comparison spectrum of the all-sides-clamped problem)."""
    return assemble_cylinder(with_full_dirichlet(mesh), field)


def assemble_cross_section(mesh, field, reduced=False):
    """Cross-section pencil: coefficient A22, or its Schur reduction
    A22 - A12^t A11^-1 A12 when ``reduced``."""
    if mesh.domain_kind != "cross-section":
        raise MeshMismatch("cross-section assembly needs a cross-section mesh")
    if mesh.ndim != field.cross_dim:
        raise DimensionMismatch(
            f"mesh dim {mesh.ndim} != field cross dimension {field.cross_dim}")
    p = field.p

    if reduced:
        def mats(pts):
            return coeff_mod.schur_reduce_many(field, pts)
    else:
        def mats(pts):
            return field.eval_many(pts)[:, p:, p:]

    prov = {"mesh": mesh.signature, "field": field.signature,
            "quadrature": "midpoint" if field.piecewise_constant else "gauss2",
            "reduced": bool(reduced), "_mesh": mesh, "_field": field}
    return _assemble_pair(mesh, mats, field.piecewise_constant, prov)


def dump_coordinate(form, path):
    """Write the stored lower triangle as 'row col value' lines."""
    mat = form.lower.tocoo()
    with open(path, "w", encoding="utf-8") as f:
        for i, j, v in zip(mat.row, mat.col, mat.data):
            f.write(f"{i} {j} {v:.17g}\n")
