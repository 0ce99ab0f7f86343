"""Stiffness and mass assembly on tensor meshes with Q1 elements.

Multilinear elements, 2-point tensor Gauss quadrature.  A depends on the
cross variable only, so cylinder forms are Kronecker sums of 1D axial and
cross-section matrices.  Each factor is a Q1 stencil with 3**d known
diagonals, stored as a ``scipy.sparse.dia_array`` that assembly fills
straight from the element matrices, one slice-add per pair of local
corners.  Dirichlet elimination happens on the factors, each restricted
to its free indices: on one axis a view of the all-node factor's
diagonals, on a box cross-section a gather onto its free grid.  A form
holds these factors, term by term, and never forms their products.  A
cross-section pencil of A is the cross block of its cylinders' cross
set.  Inside a ``solve_memo`` block the block's store keeps what a run
derives from a field and a mesh, each item under what it is built from:
the samples of each (cross mesh, field, reduction), the factor mesh of
each partition, and the all-node slot set of each mesh, value-slot count
and samples.  No CSR or COO matrix is formed outside
``KroneckerForm.lower``.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from . import coeff as coeff_mod
from .errors import DimensionMismatch, MeshMismatch, NotElliptic
from .grid import TensorMesh

_SQRT3 = np.sqrt(3.0)

# the store of the enclosing ``experiments.solve_memo`` block, a dict
# filled by ``_stored``; None outside any block
_MEMO = contextvars.ContextVar("cylgap_solve_memo", default=None)


def gauss_points_01():
    """2-point Gauss abscissae on [0, 1] (weights are 1/2 each)."""
    return np.array([0.5 - 0.5 / _SQRT3, 0.5 + 0.5 / _SQRT3])


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
    each term is a tuple of square DIA factors F_1, ..., F_k (their
    ``data`` one column per matrix column), restricted to the free
    indices of their axes, for F_1 x ... x F_k.  A 1D factor is a view of
    its all-node slot matrix: its ``data`` keeps the entries that couple
    the run to clamped nodes, at rows outside the factor, which DIA
    ignores and ``eig`` reads as zeros.  ``form @ u`` applies it to a
    vector or a block factor by factor; ``lower``, the CSR lower
    triangle of the sum, is built on first access, and only the
    benchmark's tracer (``perfbench/tracer.py``) reads it.
    ``point_symmetric`` records that the form commutes with the reversal
    of its unknowns' order, the point reflection x -> -x of a mesh whose
    every axis mirrors (``TensorMesh.mirrored``) under samples even in X2
    (property (S)).  Assembly alone decides it (``_assemble_pair``); the
    eigensolver then folds the pencil into its even and odd sectors, and
    the experiments read the flag of a field's cross pencil as its
    verdict on property (S).
    ``uncoupled_axis`` is the index of the first axial axis along which
    the pencil separates onto its constant mode (``_uncoupled_axis``), or
    None."""

    dim: int
    terms: list
    provenance: dict = dc_field(default_factory=dict)
    point_symmetric: bool = False
    uncoupled_axis: int | None = None

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


def _stored(key, build):
    """``build()``, made once per ``key`` inside a ``solve_memo`` block and
    kept in its store until the block closes; callers only read what they
    get.  Outside any block every call builds afresh."""
    store = {} if _MEMO.get() is None else _MEMO.get()
    if key not in store:
        store[key] = build()
    return store[key]


def factor_mesh(parts):
    """Tensor mesh over some axes of another mesh, such as its
    cross-section or one axial axis, with every axis end clamped (as the
    cross axes of a cylinder are); one per partition in a block."""
    return _stored(("mesh",) + tuple(part.tobytes() for part in parts),
                   lambda: TensorMesh("cross-section", parts, 0, None))


def coefficient_samples(cross, field, reduced):
    """A, or its Schur reduction A22 - A12^t A11^-1 A12 when ``reduced``,
    at the quadrature points of a cross-section mesh, shape
    (n_cells, 2**ndim, m, m), audited for ellipticity.

    Piecewise-constant fields take the midpoint rule: the cell-centre
    value at every point of the cell.  Inside a ``solve_memo`` block each
    cross mesh key, field (by identity) and ``reduced`` is sampled once,
    so assembly, diagnostics and the coupling drop read the same array.
    """
    return _stored(("samples", cross.key, field, reduced),
                   lambda: _sample(cross, field, reduced))


def _sample(cross, field, reduced):
    midpoint = field.piecewise_constant
    pts = (cross.cell_centers() if midpoint
           else quadrature_coords(cross)).reshape(-1, cross.ndim)
    C = (coeff_mod.schur_reduce_many(field, pts) if reduced
         else field.eval_many(pts))
    lam = float(np.linalg.eigvalsh(C)[:, 0].min())
    if not lam > 0.0:  # NaN compares False
        where = "cell centers" if midpoint else "quadrature points"
        raise NotElliptic(f"coefficient at {where} has smallest sampled "
                          f"eigenvalue {lam:.3e}")
    C = C.reshape((cross.n_cells, -1) + C.shape[1:])
    return np.broadcast_to(C, (cross.n_cells, 2**cross.ndim) + C.shape[2:])


def _slot_set(mesh, C, n_values):
    """Slot matrices S[a][b] = int C_ab psi_a psi_b over all nodes, as DIA
    arrays.

    psi_a is the Q1 basis function itself for a < n_values and its
    derivative along axis a - n_values after that; C has shape
    (n_cells, nq, s, s), or broadcasts to it.

    Inside a ``solve_memo`` block the set of each mesh key, ``n_values``
    and digest of C's bytes is built once, so sets whose samples coincide,
    such as those of two fields equal on the mesh, are one set; its
    restrictions (``_restrict``) are views or copies, not store items.
    """
    digest = hashlib.blake2b(C.tobytes(), digest_size=16).hexdigest()
    return _stored(("slots", mesh.key, n_values, digest),
                   lambda: _build_slots(mesh, C, n_values))


def cross_slots(cross, field=None):
    """The all-node slot set of ``field``'s samples on a cross mesh, with
    ``field.p`` value slots; with no field that of C = I with one value
    slot, whose value slot is the cross mass Mc."""
    if field is None:
        return _slot_set(cross, np.eye(1 + cross.ndim)[None, None], 1)
    return _slot_set(cross, coefficient_samples(cross, field, False), field.p)


def _stencil(d):
    """The 3**d neighbour steps of a Q1 stencil, lexicographic, so that
    their offsets in a C-ordered grid of at least 3 nodes per axis
    ascend."""
    return np.array(list(itertools.product((-1, 0, 1), repeat=d)))


def _strides(shape):
    return np.array([math.prod(shape[k + 1:]) for k in range(len(shape))])


def _restrict(S, shape, free):
    """The all-node DIA matrix S of a node grid of ``shape`` on the
    product of the index runs ``free``.

    A grid whose nodes are all free keeps S.  On one axis this slices
    the columns of S's data, a view: an entry whose row leaves the run
    falls outside the restricted matrix, where DIA ignores it.  On more
    axes the sliced data is gathered into a copy.  There a row that
    leaves axis k > 0 would wrap into the neighbouring grid line, so
    those entries are set to zero; a step that no free pair takes is
    dropped, and steps that meet at one offset (on an axis of two free
    nodes) share its diagonal.
    """
    cut = (slice(None),) + tuple(slice(r[0], r[-1] + 1) for r in free)
    grid = S.data.reshape((-1,) + shape)[cut]
    sizes = grid.shape[1:]
    if sizes == shape:
        return S
    n = math.prod(sizes)
    if len(sizes) == 1:
        return sparse.dia_array((grid, S.offsets), shape=(n, n))
    steps = _stencil(len(sizes))
    grid = grid.copy()
    for k in range(1, len(sizes)):
        # row index = column index - step, out of the run at one edge
        for step, edge in ((1, 0), (-1, sizes[k] - 1)):
            index = [steps[:, k] == step] + [slice(None)] * len(sizes)
            index[1 + k] = edge
            grid[tuple(index)] = 0.0
    kept = (np.abs(steps) < sizes).all(axis=1)
    offsets, where = np.unique(steps[kept] @ _strides(sizes),
                               return_inverse=True)
    data = np.zeros((len(offsets), n))
    np.add.at(data, where, grid[kept].reshape(-1, n))
    return sparse.dia_array((data, offsets), shape=(n, n))


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
    local = np.einsum("cqab,qai,qbj->abcij", Cs, base, base).reshape(
        (s, s) + mesh.cells_shape + (nloc, nloc))
    # DIA storage, data[k, col] = S[col - offset_k, col]: the local pair
    # (i, j) of every cell couples corner i to corner j, one stencil step
    # apart, and the columns of corner j over all cells are one block of
    # the node grid, so each pair is one slice-add
    steps = _stencil(mesh.ndim)
    offsets = steps @ _strides(mesh.shape)
    data = np.zeros((s, s, len(steps)) + mesh.shape)
    corners = list(itertools.product((0, 1), repeat=mesh.ndim))
    for i, ci in enumerate(corners):
        for j, cj in enumerate(corners):
            k = np.ravel_multi_index(np.subtract(cj, ci) + 1,
                                     (3,) * mesh.ndim)
            block = tuple(slice(c, c + m)
                          for c, m in zip(cj, mesh.cells_shape))
            data[(slice(None), slice(None), k) + block] += local[..., i, j]
    data = data.reshape(s, s, len(steps), mesh.n_nodes)
    return [[sparse.dia_array((data[a, b], offsets),
                              shape=(mesh.n_nodes, mesh.n_nodes))
             for b in range(s)] for a in range(s)]


def _uncoupled_axis(mesh, C):
    """The first axial axis k with both ends free that the samples C of a
    cylinder leave uncoupled, C[..., k, j] = C[..., j, k] = 0 exactly for
    every j != k; None when there is none.  Then every term of K with a
    nonzero cross factor carries on axis k the 1D stiffness (the x_k
    derivatives of both slots) or the mass (of neither): a term with one
    x_k derivative has the cross factor of C[..., k, j] or C[..., j, k],
    which is zero.  The free ends make the constants the kernel of the
    stiffness, so the pencil's lowest mode is constant along x_k
    (``eig``)."""
    for k in range(mesh.n_axial):
        others = np.arange(C.shape[-1]) != k
        if not (any(mesh.clamped[k]) or C[..., k, others].any()
                or C[..., others, k].any()):
            return k
    return None


def _assemble_pair(mesh, field, reduced):
    """Stiffness and mass as Kronecker sums of 1D axial slot matrices and
    cross-section slot matrices.

    With p axial axes, slot a of the coefficient is an axial derivative
    for a < p and a cross derivative after that, so
    K = sum_ab (F_1(a, b) x ... x F_p(a, b)) x X_ab, where X_ab are the
    cross slot matrices of A's samples (``coefficient_samples``) and
    F_k(a, b) is the 1D stiffness, mixed or mass matrix as a and b are or
    are not k; M = M_1 x ... x M_p x M_c.  Of the field.p value slots of
    A's cross set the first field.p - p are dropped before any slot is
    restricted, so a cross-section pencil of A is the cross block of the
    set its cylinders read; the Schur reduction, ``reduced``, has a set
    with no value slot.  Nodes are C-ordered with the axial axes first,
    as in these products.  Mc is the value slot of the cross set of
    C = I.  Each factor comes restricted to the free indices of its axes
    (``mesh.axis_free[k]`` for F_k, the cross mesh's free nodes for X_ab
    and Mc), so every term spans the free nodes only.

    A term whose cross factor is zero, that of an entry that every sample
    leaves zero, is dropped.  Both forms record the ``uncoupled_axis`` of
    the samples (``_uncoupled_axis``), and both are ``point_symmetric``
    (property (S)) when every axis of the mesh mirrors bit for bit
    (``mesh.mirrored``) and the samples are even in X2 to 1e-12: each term
    of K then carries two derivatives, each odd under x -> -x, times an
    even coefficient.  On such a mesh the points reflected from the
    quadrature points of a cross cell are those of the mirrored cell,
    read backwards, so the samples already taken decide it, with no
    further evaluation of A.  No other code compares samples for parity.
    """
    p = mesh.n_axial
    cross = factor_mesh(mesh.cross_partitions)
    C = coefficient_samples(cross, field, reduced)
    n_values = 0 if reduced else field.p
    # X counts from slot n_values - p, which is slot 0 wherever p > 0, and
    # only the slots read are restricted
    X = [[_restrict(S, cross.shape, cross.axis_free)
          for S in row[n_values - p:]]
         for row in _slot_set(cross, C, n_values)[n_values - p:]]
    axes = [[[_restrict(S, (len(part),), [free]) for S in row] for row in
             _slot_set(factor_mesh([part]), np.ones((1, 1, 2, 2)), 1)]
            for part, free in zip(mesh.axis_partitions[:p], mesh.axis_free)]
    K = [tuple(axes[k][int(a == k)][int(b == k)] for k in range(p))
         + (X[a][b],)
         for a, b in itertools.product(range(len(X)), repeat=2)
         if X[a][b].data.any()]
    Mc = _restrict(cross_slots(cross)[0][0], cross.shape, cross.axis_free)
    M = [tuple(ax[0][0] for ax in axes) + (Mc,)]
    prov = {"mesh": mesh.key, "field": field.signature,
            "quadrature": "midpoint" if field.piecewise_constant else "gauss2",
            "reduced": reduced, "_mesh": mesh, "_field": field}
    symmetric = all(mesh.mirrored) and np.allclose(
        C, C[::-1, ::-1], atol=1e-12, rtol=1e-12)
    axis = _uncoupled_axis(mesh, C)
    return tuple(KroneckerForm(mesh.n_free, terms, dict(prov), symmetric,
                               axis) for terms in (K, M))


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
    return _assemble_pair(mesh, field, False)


def assemble_cross_section(mesh, field, reduced=False):
    """Cross-section pencil: coefficient A22, the cross block of A's set,
    or its Schur reduction A22 - A12^t A11^-1 A12 when ``reduced``."""
    if mesh.domain_kind != "cross-section":
        raise MeshMismatch("cross-section assembly needs a cross-section mesh")
    if mesh.ndim != field.cross_dim:
        raise DimensionMismatch(
            f"mesh dim {mesh.ndim} != field cross dimension {field.cross_dim}")
    return _assemble_pair(mesh, field, reduced)
