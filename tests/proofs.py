"""The objects the paper's proofs are built from, checked by the tests.

A run checks the paper's statements through eigen-solves and
diagnostics; the tests also check the pieces the proofs use: the
ellipticity bounds and the Schur minimizer, the nesting of meshes into
longer ones, the explicit Rayleigh test functions v_l, v~_l, the glued
phi and z_alpha, and the Picone gap.  No run executes them, so they live
here rather than in the package.

The cellwise oracle is the reference assembly that the Kronecker
forms are checked against, the A22-only slot set the reference for the
cross block of a cross-section pencil, and the midpoint coupling audit
the reference for the Schur energy drop of a cross context.  Node
coordinates, Dirichlet nodes, free-node restriction, point values of a
field and the form of a bare sparse matrix are helpers only tests need.

Test functions are evaluated as nodal interpolants on the active mesh;
every interpolant vanishes exactly on Dirichlet-tagged nodes, so its
Rayleigh quotient is a true upper bound for the discrete first
eigenvalue of the same pencil.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from cylgap import assemble as asm
from cylgap import coeff as coeff_mod
from cylgap import experiments as ex
from cylgap.errors import (CylgapError, MeshMismatch, NotElliptic,
                           NoReflectionSymmetry)


class ZeroFunction(CylgapError):
    """Test function has (numerically) zero mass."""


class DegenerateWeight(CylgapError):
    """Positive weight function vanishes at a needed interior node."""


# -- nodes and point values -------------------------------------------------


def node_coords(mesh):
    """(n_nodes, ndim) node coordinates, C-ordered as the mesh's nodes."""
    return np.stack([g.ravel() for g in np.meshgrid(*mesh.axis_partitions,
                                                    indexing="ij")], axis=1)


def cell_node_indices(mesh):
    """(n_cells, 2**ndim) corner node indices; corners ordered with the
    last axis fastest, matching the reference element."""
    nodes = np.arange(mesh.n_nodes).reshape(mesh.shape)
    lows = nodes[(slice(-1),) * mesh.ndim].ravel()
    # corner offsets: the node indices of the first cell
    return lows[:, None] + nodes[(slice(2),) * mesh.ndim].ravel()


def dirichlet_nodes(mesh):
    return np.flatnonzero(mesh.dirichlet_mask)


def restrict_free(mesh, node_values):
    """All-node vector -> its free-node values."""
    node_values = np.asarray(node_values, dtype=float)
    if node_values.shape != (mesh.n_nodes,):
        raise MeshMismatch("node vector has wrong length")
    return node_values[mesh.free_nodes]


def at(field, X2):
    """A(X2) at one cross-section point."""
    return field.eval_many(X2)[0]


# -- coefficient algebra ----------------------------------------------------


@dataclass(frozen=True)
class EllipticityBounds:
    lambda_a: float
    c_a: float
    argmin: np.ndarray
    argmax: np.ndarray


def ellipticity_bounds(field, sample_grid):
    """Sampled ellipticity floor lambda_A and norm bound C_A.

    lambda_A is the smallest eigenvalue of A over the samples, C_A the
    largest; the attaining sample points are reported alongside.
    """
    pts = field.as_points(sample_grid)
    if len(pts) == 0:
        raise ValueError("sample grid is empty")
    w = np.linalg.eigvalsh(field.eval_many(pts))
    i_min = int(np.argmin(w[:, 0]))
    i_max = int(np.argmax(w[:, -1]))
    lam = float(w[i_min, 0])
    if lam <= 0.0:
        raise NotElliptic(
            f"smallest sampled eigenvalue {lam:.3e} at X2={pts[i_min]}")
    return EllipticityBounds(lam, float(w[i_max, -1]), pts[i_min], pts[i_max])


def schur_reduce(field, X2):
    """Effective cross-section coefficient after minimizing the quadratic
    form over the axial components; symmetric positive definite."""
    return coeff_mod.schur_reduce_many(field, X2)[0]


def schur_minimizer(field, X2, Z2):
    """Axial components Z1 = -A11^-1 A12 Z2 attaining the blockwise minimum."""
    pts = field.as_points(X2)
    A11, A12, _ = coeff_mod._a11_blocks(field, pts)
    Z2 = np.atleast_1d(np.asarray(Z2, dtype=float))
    return -np.linalg.solve(A11[0], A12[0] @ Z2)


def cell_center_gradients(mesh, node_values):
    """Per-cell gradient of a multilinear nodal function at cell centers."""
    vals = node_values[cell_node_indices(mesh)]
    d = mesh.ndim
    t = vals.reshape((mesh.n_cells,) + (2,) * d)
    h = mesh.cell_sizes()
    grads = np.empty((mesh.n_cells, d))
    for a in range(d):
        dv = np.diff(t, axis=1 + a)
        grads[:, a] = dv.reshape(mesh.n_cells, -1).mean(axis=1) / h[:, a]
    return grads


@dataclass(frozen=True)
class CouplingAudit:
    norm: float
    signed_integral: object
    pointwise_nonpositive: bool


def coupling_audit(field, W1, mesh):
    """Midpoint audit of the coupling g = A12.grad(W1) on a cross-section
    mesh: elementwise gradients and A at cell centres, independent of the
    pencils, so it is the oracle for ``CrossContext.coupling``.

    ``norm`` is sqrt(sum_cells vol g^t A11^-1 g), which equals sqrt(c)
    for fields constant on each cell; ``signed_integral`` is the
    quadrature value of the boundary-flux integral (A12.grad W1) W1, one
    value per elongated axis (a scalar when p = 1);
    ``pointwise_nonpositive`` reports the one-signed case g <= TOL_CON at
    every midpoint.
    """
    full = mesh.scatter_free(W1.vector)
    grads = cell_center_gradients(mesh, full)
    A = field.eval_many(mesh.cell_centers())
    p = field.p
    g = np.einsum("mpq,mq->mp", A[:, :p, p:], grads)
    weighted = np.einsum("mp,mp->m", g, np.linalg.solve(A[:, :p, :p],
                                                        g[:, :, None])[..., 0])
    vol = mesh.cell_volumes()
    w_center = full[cell_node_indices(mesh)].mean(axis=1)
    signed = (vol[:, None] * g * w_center[:, None]).sum(axis=0)
    return CouplingAudit(
        norm=float(np.sqrt((vol * weighted).sum())),
        signed_integral=float(signed[0]) if p == 1 else signed,
        pointwise_nonpositive=bool(np.all(g <= ex.TOL_CON)))


# -- nesting meshes ---------------------------------------------------------


def free_reflection_permutation(mesh):
    """Reflection permutation restricted to free nodes: the free grid
    reversed, when every axis mirrors (``TensorMesh.mirrored``: its
    partition bit for bit, its ends clamped alike)."""
    if not all(mesh.mirrored):
        raise NoReflectionSymmetry("mesh does not mirror about 0")
    return np.arange(mesh.n_free)[::-1]


def _match_run(sub_part, sup_part, shift):
    shifted = sub_part + shift
    # the first super node at the shifted start, up to rounding of the shift
    start = int(np.searchsorted(sup_part, shifted[0] - 1e-12))
    stop = start + len(shifted)
    if stop > len(sup_part):
        raise MeshMismatch("shifted partition extends past the target mesh")
    if not np.allclose(sup_part[start:stop], shifted, atol=1e-10):
        raise MeshMismatch("axis partitions are not nested cell-for-cell")
    return start


def free_embedding(sub, sup, shift=None):
    """Map free-node indices of ``sub`` onto free-node indices of ``sup``.

    The shifted sub partition must appear cell-for-cell inside the super
    partition on every axis, so that extension by zero of a sub function
    is an exact member of the super trial space.  ``shift`` translates
    the sub mesh (per axis; scalar applies to axis 0).
    """
    if sub.ndim != sup.ndim:
        raise MeshMismatch("meshes have different dimension")
    shifts = np.zeros(sub.ndim)
    if shift is not None:
        if np.isscalar(shift):
            shifts[0] = float(shift)
        else:
            shifts[:] = np.asarray(shift, dtype=float)
    # per axis, the positions in the super free run of the sub free run
    runs = []
    for a in range(sub.ndim):
        start = _match_run(sub.axis_partitions[a], sup.axis_partitions[a],
                           shifts[a])
        run = sub.axis_free[a] + start - sup.axis_free[a][0]
        if run[0] < 0 or run[-1] >= len(sup.axis_free[a]):
            raise MeshMismatch(
                "a free sub node lands on a Dirichlet super node")
        runs.append(run)
    return np.ravel_multi_index(
        np.ix_(*runs), [len(f) for f in sup.axis_free]).ravel()


def extend_by_zero(sub, sup, free_values, shift=None):
    """Zero-extension of a sub free vector into the super free space."""
    mapping = free_embedding(sub, sup, shift)
    out = np.zeros(sup.n_free)
    out[mapping] = np.asarray(free_values, dtype=float)
    return out


# -- Rayleigh test functions ------------------------------------------------

SNAP_TOL = 1e-9
# the model cutoff near x2 = +-1 has width ell**MODEL_ALPHA_CUT (at most 1)
MODEL_ALPHA_CUT = 0.5
# width of the boundary roll-off of the discrete coupling ratio
COUPLING_CUTOFF = 0.5


def w1_model(x2):
    """Positive normalized first Dirichlet eigenfunction on (-1, 1)."""
    return np.cos(np.pi * np.asarray(x2) / 2.0)


def w1_model_prime(x2):
    return -(np.pi / 2.0) * np.sin(np.pi * np.asarray(x2) / 2.0)


def cross_values_on(mesh, cross_mesh, full_cross_values):
    """Per-node values on ``mesh`` of a nodal function given on the matching
    cross-section mesh (partitions must agree exactly)."""
    if cross_mesh.ndim != mesh.ndim - mesh.n_axial:
        raise MeshMismatch("cross mesh dimension mismatch")
    for a in range(cross_mesh.ndim):
        if (len(mesh.cross_partitions[a]) != len(cross_mesh.axis_partitions[a])
                or not np.allclose(mesh.cross_partitions[a],
                                   cross_mesh.axis_partitions[a], atol=1e-12)):
            raise MeshMismatch("cross partitions do not match")
    # nodes are C-ordered with the axial axes first
    return np.tile(np.asarray(full_cross_values, dtype=float),
                   mesh.n_nodes // cross_mesh.n_nodes)


def node_projected_gradient(cross_mesh, full_values):
    """Elementwise gradients averaged to nodes with volume weights."""
    grads = cell_center_gradients(cross_mesh, full_values)
    vol = cross_mesh.cell_volumes()
    cells = cell_node_indices(cross_mesh)
    num = np.zeros((cross_mesh.n_nodes, cross_mesh.ndim))
    den = np.zeros(cross_mesh.n_nodes)
    for k in range(cells.shape[1]):
        np.add.at(num, cells[:, k], grads * vol[:, None])
        np.add.at(den, cells[:, k], vol)
    return num / den[:, None]


def boundary_ramp(cross_mesh, width):
    """Piecewise-linear cutoff: 0 on the omega boundary, 1 at distance
    >= width (per-node, distance taken axiswise)."""
    coords = node_coords(cross_mesh)
    d = np.full(len(coords), np.inf)
    for a, part in enumerate(cross_mesh.axis_partitions):
        d = np.minimum(d, np.minimum(coords[:, a] - part[0],
                                     part[-1] - coords[:, a]))
    return np.clip(d / width, 0.0, 1.0)


def coupling_ratio_nodes(field, cross_mesh, pair):
    """Nodal A12.grad(w)/a11 for p = 1 fields, rolled off to zero over a
    distance COUPLING_CUTOFF from the cross-section boundary (the discrete
    stand-in for a compactly supported mollification).  A roll-off of one
    mesh cell would give a gradient spike that can dominate the cross
    energy of products with x1."""
    if field.p != 1:
        raise MeshMismatch("coupling ratio is built for p = 1 fields")
    full = cross_mesh.scatter_free(pair.vector)
    node_grad = node_projected_gradient(cross_mesh, full)
    A = field.eval_many(node_coords(cross_mesh))
    a11 = A[:, 0, 0]
    A12 = A[:, :1, 1:]
    g = np.einsum("mpq,mq->m", A12, node_grad) / a11
    g = g * boundary_ramp(cross_mesh, COUPLING_CUTOFF)
    g[dirichlet_nodes(cross_mesh)] = 0.0
    return g


@dataclass(frozen=True)
class SeparableProfile:
    """v(x1, X2) = W(X2) - G(X2) x1 given by per-node cross data."""

    w_of: object
    g_of: object


@dataclass
class TestFunction:
    name: str
    params: dict
    profile: SeparableProfile | None
    _nodal: object

    def nodal(self, mesh):
        vals = self._nodal(mesh)
        if np.any(vals[dirichlet_nodes(mesh)] != 0.0):
            raise CylgapError(
                f"test function {self.name} is nonzero on a Dirichlet node")
        return vals

    def free_values(self, mesh):
        return restrict_free(mesh, self.nodal(mesh))


def _snap_dirichlet(mesh, vals):
    scale = max(1.0, float(np.abs(vals).max()))
    bvals = vals[dirichlet_nodes(mesh)]
    if np.any(np.abs(bvals) > SNAP_TOL * scale):
        raise CylgapError("test function does not vanish on Dirichlet nodes")
    vals[dirichlet_nodes(mesh)] = 0.0
    return vals


def _require_model_omega(mesh):
    part = mesh.cross_partitions[0]
    if mesh.ndim - mesh.n_axial != 1 or abs(part[0] + 1) > 1e-12 or \
            abs(part[-1] - 1) > 1e-12:
        raise MeshMismatch("model profile needs omega = (-1, 1)")


def model_w1_nodes(mesh):
    """Analytic cos profile at the nodes of a mesh."""
    _require_model_omega(mesh)
    return w1_model(node_coords(mesh)[:, mesh.n_axial])


def discrete_w1_nodes(cross_mesh, pair):
    full = cross_mesh.scatter_free(pair.vector)

    def w_of(mesh):
        return cross_values_on(mesh, cross_mesh, full)

    return w_of


def model_profile(delta):
    """Model-field profile: G = delta W1'(x2) rho(x2) with a piecewise-linear
    cutoff of width ell**MODEL_ALPHA_CUT near x2 = +-1, ell the evaluation
    mesh's half-length."""

    def g_of(mesh):
        _require_model_omega(mesh)
        width = min(1.0, float(mesh.ell) ** MODEL_ALPHA_CUT)
        x2 = node_coords(mesh)[:, mesh.n_axial]
        rho = np.clip(np.minimum((x2 + 1.0) / width, (1.0 - x2) / width),
                      0.0, 1.0)
        return delta * w1_model_prime(x2) * rho

    return SeparableProfile(model_w1_nodes, g_of)


def discrete_profile(field, cross_mesh, pair):
    g_nodes = coupling_ratio_nodes(field, cross_mesh, pair)

    def g_of(mesh):
        return cross_values_on(mesh, cross_mesh, g_nodes)

    return SeparableProfile(discrete_w1_nodes(cross_mesh, pair), g_of)


def _separable_testfn(name, params, profile):
    def nodal(mesh):
        if mesh.domain_kind not in ("full-cylinder",):
            raise MeshMismatch(f"{name} lives on a full cylinder")
        x1 = node_coords(mesh)[:, 0]
        vals = profile.w_of(mesh) - profile.g_of(mesh) * x1
        return _snap_dirichlet(mesh, vals)

    return TestFunction(name, params, profile, nodal)


def model_vl(delta):
    """W1(x2) - delta x1 W1'(x2) rho(x2) on the model cylinder."""
    return _separable_testfn(
        "model-vl", {"delta": delta, "alpha_cut": MODEL_ALPHA_CUT},
        model_profile(delta))


def general_vl(field, cross_mesh, w1_pair):
    """w1(X2) - (A12.grad w1 / a11)(X2) x1 with the reduced-pencil w1."""
    return _separable_testfn(
        "general-vl", {"cutoff": COUPLING_CUTOFF},
        discrete_profile(field, cross_mesh, w1_pair))


def tilde_vl(field, cross_mesh, W1_pair):
    """Like general_vl but built from the unreduced eigenfunction W1."""
    return _separable_testfn(
        "tilde-vl", {"cutoff": COUPLING_CUTOFF},
        discrete_profile(field, cross_mesh, W1_pair))


def glued_phi(inner, ell0, eta):
    """Five-branch glued test function: the inner profile is planted on the
    outer ell0-collars of the cylinder, ramped down over width eta, and zero
    in the bulk.  Even in x1 on the ramp bands by construction."""
    profile = inner.profile
    if profile is None:
        raise ValueError("glued_phi needs a separable inner test function")

    def nodal(mesh):
        if mesh.domain_kind != "full-cylinder":
            raise MeshMismatch("glued-phi lives on a full cylinder")
        ell = mesh.ell
        if ell <= ell0 + eta:
            raise ValueError("need ell > ell0 + eta")
        x1 = node_coords(mesh)[:, 0]
        W = profile.w_of(mesh)
        G = profile.g_of(mesh)
        vals = np.zeros(mesh.n_nodes)
        right = x1 >= ell - ell0
        vals[right] = (W - G * (x1 - ell + ell0))[right]
        left = x1 <= -(ell - ell0)
        vals[left] = (W - G * (x1 + ell - ell0))[left]
        band = (np.abs(x1) < ell - ell0) & (np.abs(x1) > ell - ell0 - eta)
        ramp = (np.abs(x1) - (ell - ell0 - eta)) / eta
        vals[band] = (ramp * W)[band]
        return _snap_dirichlet(mesh, vals)

    return TestFunction("glued-phi",
                        {"ell0": ell0, "eta": eta, "inner": inner.name},
                        profile, nodal)


def exp_decay(epsilon):
    """exp(-epsilon |x1|) W1(X2) on a half cylinder, truncated to zero on
    the clamped far end (its last mesh cell acts as the cutoff)."""

    def nodal(mesh):
        if mesh.domain_kind not in ("half-plus", "half-minus"):
            raise MeshMismatch("exp-decay lives on a half cylinder")
        x1 = node_coords(mesh)[:, 0]
        vals = np.exp(-epsilon * np.abs(x1)) * model_w1_nodes(mesh)
        vals[dirichlet_nodes(mesh)] = 0.0
        return vals

    return TestFunction("exp-decay", {"epsilon": epsilon}, None, nodal)


def z_alpha(alpha, ell1, inner):
    """Half-cylinder test function: the inner profile on (0, ell1) glued to
    the exponential tail W1 exp(-alpha (x1 - ell1)) beyond."""
    profile = inner.profile
    if profile is None:
        raise ValueError("z_alpha needs a separable inner test function")

    def nodal(mesh):
        if mesh.domain_kind != "half-plus":
            raise MeshMismatch("z-alpha lives on a half-plus mesh")
        x1 = node_coords(mesh)[:, 0]
        W = profile.w_of(mesh)
        G = profile.g_of(mesh)
        head = x1 < ell1
        vals = np.where(head, W - G * (x1 - ell1),
                        W * np.exp(-alpha * np.maximum(x1 - ell1, 0.0)))
        vals[dirichlet_nodes(mesh)] = 0.0
        return vals

    return TestFunction("z-alpha", {"alpha": alpha, "ell1": ell1,
                                    "inner": inner.name}, profile, nodal)


def cutoff_w1(width):
    """W1(X2) times a trapezoid in x1: up over (0, 1), flat to ``width``,
    down over one unit; for half-plus Picone probes."""

    def nodal(mesh):
        if mesh.domain_kind != "half-plus":
            raise MeshMismatch("cutoff-w1 lives on a half-plus mesh")
        x1 = node_coords(mesh)[:, 0]
        up = np.clip(x1, 0.0, 1.0)
        down = np.clip(width + 1.0 - x1, 0.0, 1.0)
        vals = model_w1_nodes(mesh) * np.minimum(up, down)
        vals[dirichlet_nodes(mesh)] = 0.0
        return vals

    return TestFunction("cutoff-w1", {"width": width}, None, nodal)


# -- Rayleigh quotients and the Picone gap ----------------------------------


@dataclass(frozen=True)
class RayleighValue:
    quotient: float
    numerator: float
    denominator: float


def rayleigh_of_testfn(tf, mesh, field, forms=None):
    """Rayleigh quotient of the nodal interpolant of ``tf``; by the
    variational principle it upper-bounds the discrete first eigenvalue
    of the same pencil."""
    if forms is None:
        if mesh.domain_kind == "cross-section":
            forms = asm.assemble_cross_section(mesh, field)
        else:
            forms = asm.assemble_cylinder(mesh, field)
    K, M = forms
    if hasattr(tf, "free_values"):
        u = tf.free_values(mesh)
    else:
        u = np.asarray(tf, dtype=float)
        if u.shape != (mesh.n_free,):
            u = restrict_free(mesh, u)
    num = energy(K, u)
    den = energy(M, u)
    if den < 1e-14:
        raise ZeroFunction("test function has numerically zero mass")
    return RayleighValue(num / den, num, den)


def picone_gap(u, W1, mu1, mesh, forms):
    """int A grad(u).grad(u) - mu1 u^2 of a free-node vector u on a half
    mesh, with ``forms`` the (K, M) pencil assembled on that mesh."""
    if mesh.domain_kind not in ("half-plus", "half-minus"):
        raise MeshMismatch("picone gap is evaluated on half meshes")
    wvec = W1.vector if hasattr(W1, "vector") else np.asarray(W1, dtype=float)
    wmax = float(np.abs(wvec).max())
    if np.any(wvec < 1e-12 * wmax):
        raise DegenerateWeight("W1 is not strictly positive at interior nodes")
    K, M = forms
    return energy(K, u) - mu1 * energy(M, u)


# -- reference assembly -----------------------------------------------------


def form(A):
    """A sparse matrix as an assembled form: one term of one DIA factor."""
    return asm.KroneckerForm(A.shape[0], [(sparse.dia_array(A),)])


def full(form):
    """The whole matrix of an assembled form in CSR: the sum of the
    Kronecker products of its terms, mirrored from its lower triangle, so
    exactly symmetric; the oracle that the products of its Kronecker terms
    are checked against."""
    low = sparse.tril(sum(functools.reduce(
        lambda a, b: sparse.kron(a, b, format="csr"), term)
        for term in form.terms), format="csr")
    return (low + low.T - sparse.diags(low.diagonal())).tocsr()


def energy(form, u):
    """u.Au of an assembled form, through ``full``."""
    u = np.asarray(u, dtype=float)
    return float(u @ (full(form) @ u))


def a22_slots(mesh, field):
    """Dense cross slot matrices of A22 alone on the free nodes of a
    cross-section mesh, built from A's samples with the A12 rows and
    columns cut off: the oracle of the cross block of A's set that
    ``assemble_cross_section`` reads."""
    p = field.p
    C = asm.coefficient_samples(mesh, field, False)
    free = np.ix_(mesh.free_nodes, mesh.free_nodes)
    return [[S.toarray()[free] for S in row]
            for row in asm._build_slots(mesh, C[..., p:, p:], 0)]


def cellwise_oracle(mesh, mats, midpoint):
    """Dense (K, M) assembled cell by cell: the coefficient sampled at every
    2-point Gauss point of every cell (at its centre when ``midpoint``),
    one einsum over all cells, Dirichlet rows and columns dropped."""
    d = mesh.ndim
    N, G = asm.reference_basis(d)
    nq = 2**d
    h = mesh.cell_sizes()
    vol = mesh.cell_volumes()
    if midpoint:
        C = np.repeat(mats(mesh.cell_centers())[:, None], nq, axis=1)
    else:
        pts = asm.quadrature_coords(mesh).reshape(-1, d)
        C = mats(pts).reshape(mesh.n_cells, nq, d, d)
    Cs = C / h[:, None, :, None] / h[:, None, None, :]
    Kloc = np.einsum("cqab,qai,qbj->cij", Cs, G, G) * (vol / nq)[:, None, None]
    Mloc = vol[:, None, None] * (N.T @ N / nq)
    cells = cell_node_indices(mesh)
    idx = (cells[:, :, None], cells[:, None, :])
    free = np.ix_(mesh.free_nodes, mesh.free_nodes)
    out = []
    for loc in (Kloc, Mloc):
        full = np.zeros((mesh.n_nodes, mesh.n_nodes))
        np.add.at(full, idx, loc)
        out.append(full[free])
    return out
