"""Tensor-product meshes for cylinders, half-cylinders, and cross-sections.

Domains are axis-aligned products of intervals.  The first ``n_axial``
axes are the elongated directions (length set by ``ell``); the remaining
axes span the cross-section ``omega``.  Each axis records which of its
ends are clamped (Dirichlet, eliminated); the free nodes are the product
of the per-axis runs of unclamped indices, the other ends carrying the
natural (Neumann) condition.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .errors import (MEMORY_BUDGET, BadResolution, DimensionMismatch,
                     MemoryBudget, MeshMismatch)

DOMAIN_KINDS = (
    "full-cylinder",
    "half-plus",
    "half-minus",
    "cross-section",
    "multi-direction",
)


class TensorMesh:
    """Immutable tensor-product grid with clamped axis ends.

    Attributes
    ----------
    domain_kind : one of DOMAIN_KINDS
    axis_partitions : tuple of strictly increasing coordinate arrays
    n_axial : number of elongated axes (0 for a cross-section)
    ell : half-length of the elongated axes (None for a cross-section)
    clamped : per axis, whether its (lo, hi) ends are Dirichlet (both,
        on every axis, for a cross-section or with ``full_dirichlet``)
    axis_free : per axis, the indices of its unclamped nodes; the free
        nodes are their product in C order
    mirrored : per axis, whether the reflection x -> -x maps it onto
        itself bit for bit (cached)
    """

    def __init__(self, domain_kind, axis_partitions, n_axial, ell,
                 full_dirichlet=False):
        if domain_kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {domain_kind!r}")
        self.domain_kind = domain_kind
        parts = []
        for part in axis_partitions:
            arr = np.asarray(part, dtype=float).copy()
            if arr.ndim != 1 or arr.size < 3 or np.any(np.diff(arr) <= 0):
                raise BadResolution(
                    "each axis needs a strictly increasing partition with >= 2 cells"
                )
            arr.setflags(write=False)
            parts.append(arr)
        self.axis_partitions = tuple(parts)
        self.n_axial = int(n_axial)
        self.ell = None if ell is None else float(ell)
        self.shape = tuple(len(p) for p in self.axis_partitions)
        self.ndim = len(self.shape)
        self.n_nodes = int(np.prod(self.shape))
        self.cells_shape = tuple(s - 1 for s in self.shape)
        self.n_cells = int(np.prod(self.cells_shape))
        # (lo, hi) clamped per axis: both ends of every cross axis, the
        # x1 = ell end of a half-plus and the x1 = -ell end of a half-minus
        everywhere = full_dirichlet or domain_kind == "cross-section"
        ends = {"half-plus": (False, True), "half-minus": (True, False)}
        self.clamped = tuple(
            (True, True) if everywhere or a >= self.n_axial
            else ends.get(domain_kind, (False, False))
            for a in range(self.ndim))
        self.axis_free = tuple(np.arange(int(lo), s - int(hi))
                               for s, (lo, hi) in zip(self.shape, self.clamped))
        self.free_nodes = np.ravel_multi_index(np.ix_(*self.axis_free),
                                               self.shape).ravel()
        self.n_free = int(self.free_nodes.size)
        self.dirichlet_mask = np.ones(self.n_nodes, dtype=bool)
        self.dirichlet_mask[self.free_nodes] = False
        self.dirichlet_mask.setflags(write=False)

    # -- derived geometry ------------------------------------------------

    @property
    def cross_partitions(self):
        return self.axis_partitions[self.n_axial :]

    def cell_sizes(self):
        """(n_cells, ndim) per-axis cell extents."""
        return _product_points([np.diff(p) for p in self.axis_partitions])

    def cell_origins(self):
        """(n_cells, ndim) lower-corner coordinates."""
        return _product_points([p[:-1] for p in self.axis_partitions])

    def cell_centers(self):
        return self.cell_origins() + 0.5 * self.cell_sizes()

    def cell_volumes(self):
        return np.prod(self.cell_sizes(), axis=1)

    # -- vectors over nodes ----------------------------------------------

    def scatter_free(self, free_values):
        """Free-node vector -> all-node vector with zeros on Dirichlet nodes."""
        free_values = np.asarray(free_values, dtype=float)
        if free_values.shape != (self.n_free,):
            raise MeshMismatch(
                f"expected {self.n_free} free values, got {free_values.shape}"
            )
        full = np.zeros(self.n_nodes)
        full[self.free_nodes] = free_values
        return full

    @functools.cached_property
    def mirrored(self):
        """Per axis, whether its partition is its own negated reverse bit
        for bit and both of its ends clamp alike.  Where every axis
        mirrors, the point reflection (x1, X2) -> (-x1, -X2) maps each
        node, free node and cell onto one of its kind, and reverses the
        order of each."""
        return tuple(lo == hi and np.array_equal(part, -part[::-1])
                     for part, (lo, hi) in zip(self.axis_partitions,
                                               self.clamped))

    @functools.cached_property
    def key(self):
        """Faithful identity: the domain kind plus a digest of the shape,
        the partition bytes and the Dirichlet mask, so meshes with equal
        keys have the same nodes and the same tags.  The mesh is
        immutable, so the digest is taken once."""
        h = hashlib.blake2b(np.asarray(self.shape).tobytes(), digest_size=16)
        for part in self.axis_partitions:
            h.update(part.tobytes())
        h.update(self.dirichlet_mask.tobytes())
        return f"{self.domain_kind}:{h.hexdigest()}"

    def __repr__(self):
        cells = "x".join(map(str, self.cells_shape))
        return (f"TensorMesh({self.domain_kind}[{cells}], ell={self.ell}, "
                f"nodes={self.n_nodes}, free={self.n_free})")


def _product_points(axes):
    """(n, len(axes)) array of the C-ordered tensor product of ``axes``."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)


def _axis_cells(length, res):
    n = int(round(length * float(res)))
    if n < 2:
        raise BadResolution(
            f"axis of length {length} at {res} cells/unit gives {n} < 2 cells"
        )
    return n


def _graded_axis(lo, hi, res, grading, refine_lo, refine_hi):
    """Partition [lo, hi]; bands of width 1 at refined ends are split
    ``grading`` times finer.  Band points stay on the base lattice so
    graded meshes nest into finer/longer ones."""
    g = max(1, int(round(grading)))
    length = hi - lo
    if g == 1 or length < 3.0 or not (refine_lo or refine_hi):
        n = _axis_cells(length, res)
        return np.linspace(lo, hi, n + 1)
    pieces = []
    a, b = lo, hi
    if refine_lo:
        n = _axis_cells(1.0, res) * g
        pieces.append(np.linspace(lo, lo + 1.0, n + 1))
        a = lo + 1.0
    if refine_hi:
        b = hi - 1.0
    n_mid = _axis_cells(b - a, res)
    pieces.append(np.linspace(a, b, n_mid + 1))
    if refine_hi:
        n = _axis_cells(1.0, res) * g
        pieces.append(np.linspace(hi - 1.0, hi, n + 1))
    out = pieces[0]
    for piece in pieces[1:]:
        out = np.concatenate([out, piece[1:]])
    return out


def _normalize_omega(omega):
    omega = np.asarray(omega, dtype=float)
    if omega.ndim == 1 and omega.shape == (2,):
        omega = omega[None, :]
    if omega.ndim != 2 or omega.shape[1] != 2 or omega.shape[0] not in (1, 2):
        raise ValueError("omega must be an interval (lo, hi) or a box of two")
    if np.any(omega[:, 1] <= omega[:, 0]):
        raise ValueError("omega bounds must be increasing")
    return omega


def build_mesh(kind, ell=None, omega=(-1.0, 1.0), resolution=8, grading=1.0):
    """Build a tagged tensor mesh.

    ``resolution`` is cells per unit length, scalar or one value per axis
    (axial axes first).  ``grading`` refines the axial cells within
    distance 1 of each free end; it is ignored for cross-sections and for
    axes shorter than 3 units.  A mesh of more than
    ``MEMORY_BUDGET // 1024`` nodes raises MemoryBudget: besides its band,
    which ``eig`` checks, a run stores up to about 750 bytes per node
    (assembly and Lanczos vectors), so neither store exceeds the budget.
    """
    if kind not in DOMAIN_KINDS:
        raise ValueError(f"unknown domain kind {kind!r}")
    omega = _normalize_omega(omega)
    n_axial = 0 if kind == "cross-section" else (2 if kind == "multi-direction" else 1)
    if n_axial and (ell is None or ell <= 0):
        raise ValueError("ell must be positive for cylinder meshes")
    ndim = n_axial + omega.shape[0]
    res = np.asarray(resolution, dtype=float)
    if res.size not in (1, ndim):
        raise DimensionMismatch(f"{res.size} resolutions for {ndim} axes")
    res = np.broadcast_to(res, (ndim,))
    # axial (lo, hi) in units of ell, and whether each end is refined
    lo, hi, rlo, rhi = {"half-plus": (0.0, 1.0, True, False),
                        "half-minus": (-1.0, 0.0, False, True)}.get(
                            kind, (-1.0, 1.0, True, True))
    spans = [(lo * ell, hi * ell) for _ in range(n_axial)] + omega.tolist()
    cap = MEMORY_BUDGET // 1024
    for (a, b), r in zip(spans, res):
        # in Python floats, so a huge length or resolution fails here and
        # not in int() or linspace; no axis has more nodes than the mesh
        if not (b - a) * float(r) <= cap:
            raise MemoryBudget(f"an axis of length {b - a} at {r} cells/unit "
                               f"exceeds the budget of {cap} nodes")
    parts = [_graded_axis(a, b, r, grading, rlo, rhi)
             for (a, b), r in zip(spans[:n_axial], res)]
    parts += [np.linspace(a, b, _axis_cells(b - a, r) + 1)
              for (a, b), r in zip(spans[n_axial:], res[n_axial:])]
    # an axis symmetric about 0 is mirrored exactly, so that the point
    # reflection maps every node onto a node and every width onto an
    # equal one bit for bit (linspace drifts by 2.2e-13 relative in the
    # widths at 2 000 cells), as ``TensorMesh.mirrored`` requires
    parts = [(x - x[::-1]) / 2 if a == -b else x
             for x, (a, b) in zip(parts, spans)]
    n_nodes = math.prod(len(p) for p in parts)
    if n_nodes > cap:
        raise MemoryBudget(f"{n_nodes} nodes exceed the budget of {cap}")
    return TensorMesh(kind, parts, n_axial, None if kind == "cross-section" else ell)


def with_full_dirichlet(mesh):
    """Copy of a full-cylinder mesh with the entire boundary Dirichlet
    (the comparison problem of the all-Dirichlet spectrum)."""
    if mesh.domain_kind not in ("full-cylinder", "multi-direction"):
        raise MeshMismatch("full Dirichlet variant needs a full cylinder mesh")
    return TensorMesh(mesh.domain_kind, mesh.axis_partitions, mesh.n_axial,
                      mesh.ell, full_dirichlet=True)

