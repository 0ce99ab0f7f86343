"""Explicit Rayleigh test functions and eigenfunction diagnostics.

Test functions are evaluated as nodal interpolants on the active mesh;
every interpolant vanishes exactly on Dirichlet-tagged nodes, so its
Rayleigh quotient is a true upper bound for the discrete first
eigenvalue of the same pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from . import coeff as coeff_mod
from . import grid as grid_mod
from .errors import (CylgapError, DegenerateWeight, MeshMismatch,
                     NoReflectionSymmetry, TooShort, ZeroFunction)

NO_DECAY_ALPHA = 0.8
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


# -- cross-section data lifted onto cylinder meshes ------------------------


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
    grads = coeff_mod.cell_center_gradients(cross_mesh, full_values)
    vol = cross_mesh.cell_volumes()
    cells = cross_mesh.cell_node_indices()
    num = np.zeros((cross_mesh.n_nodes, cross_mesh.ndim))
    den = np.zeros(cross_mesh.n_nodes)
    for k in range(cells.shape[1]):
        np.add.at(num, cells[:, k], grads * vol[:, None])
        np.add.at(den, cells[:, k], vol)
    return num / den[:, None]


def boundary_ramp(cross_mesh, width):
    """Piecewise-linear cutoff: 0 on the omega boundary, 1 at distance
    >= width (per-node, distance taken axiswise)."""
    coords = cross_mesh.node_coords()
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
    A = field.eval_many(cross_mesh.node_coords())
    a11 = A[:, 0, 0]
    A12 = A[:, :1, 1:]
    g = np.einsum("mpq,mq->m", A12, node_grad) / a11
    g = g * boundary_ramp(cross_mesh, COUPLING_CUTOFF)
    g[cross_mesh.dirichlet_nodes] = 0.0
    return g


# -- test functions ---------------------------------------------------------


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
        if np.any(vals[mesh.dirichlet_nodes] != 0.0):
            raise CylgapError(
                f"test function {self.name} is nonzero on a Dirichlet node")
        return vals

    def free_values(self, mesh):
        return mesh.restrict_free(self.nodal(mesh))


def _snap_dirichlet(mesh, vals):
    scale = max(1.0, float(np.abs(vals).max()))
    bvals = vals[mesh.dirichlet_nodes]
    if np.any(np.abs(bvals) > SNAP_TOL * scale):
        raise CylgapError("test function does not vanish on Dirichlet nodes")
    vals[mesh.dirichlet_nodes] = 0.0
    return vals


def _require_model_omega(mesh):
    part = mesh.cross_partitions[0]
    if mesh.ndim - mesh.n_axial != 1 or abs(part[0] + 1) > 1e-12 or \
            abs(part[-1] - 1) > 1e-12:
        raise MeshMismatch("model profile needs omega = (-1, 1)")


def model_w1_nodes(mesh):
    """Analytic cos profile at the nodes of a mesh."""
    _require_model_omega(mesh)
    return w1_model(mesh.node_coords()[:, mesh.n_axial])


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
        x2 = mesh.node_coords()[:, mesh.n_axial]
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
        x1 = mesh.node_coords()[:, 0]
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
        x1 = mesh.node_coords()[:, 0]
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
        x1 = mesh.node_coords()[:, 0]
        vals = np.exp(-epsilon * np.abs(x1)) * model_w1_nodes(mesh)
        vals[mesh.dirichlet_nodes] = 0.0
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
        x1 = mesh.node_coords()[:, 0]
        W = profile.w_of(mesh)
        G = profile.g_of(mesh)
        head = x1 < ell1
        vals = np.where(head, W - G * (x1 - ell1),
                        W * np.exp(-alpha * np.maximum(x1 - ell1, 0.0)))
        vals[mesh.dirichlet_nodes] = 0.0
        return vals

    return TestFunction("z-alpha", {"alpha": alpha, "ell1": ell1,
                                    "inner": inner.name}, profile, nodal)


def cutoff_w1(width):
    """W1(X2) times a trapezoid in x1: up over (0, 1), flat to ``width``,
    down over one unit; for half-plus Picone probes."""

    def nodal(mesh):
        if mesh.domain_kind != "half-plus":
            raise MeshMismatch("cutoff-w1 lives on a half-plus mesh")
        x1 = mesh.node_coords()[:, 0]
        up = np.clip(x1, 0.0, 1.0)
        down = np.clip(width + 1.0 - x1, 0.0, 1.0)
        vals = model_w1_nodes(mesh) * np.minimum(up, down)
        vals[mesh.dirichlet_nodes] = 0.0
        return vals

    return TestFunction("cutoff-w1", {"width": width}, None, nodal)


# -- Rayleigh quotients ------------------------------------------------------


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
            u = mesh.restrict_free(u)
    num = K.energy(u)
    den = M.energy(u)
    if den < 1e-14:
        raise ZeroFunction("test function has numerically zero mass")
    return RayleighValue(num / den, num, den)


# -- cross-section integrals at axial Gauss points -------------------------


def axial_densities(full_values, parts, field=None):
    """Mass and energy of a nodal function at each axial Gauss point of a
    p = 1 box, integrated over its cross-section, and the x1 of each point.

    ``parts`` are the box's axis partitions, the axial one first, and the
    nodes are C-ordered as in them.  The cross integrals go through the
    cross slot matrices X_ab and the cross mass Mc that assembly builds
    its cylinder forms from, with A taken from ``coefficient_samples``
    (the identity without a field: the plain |grad u|^2).  So the
    energies add up to u.Ku and the masses to u.Mu.  Returns three arrays
    of shape (axial cells, 2).
    """
    axis = parts[0]
    cross = asm.factor_mesh(parts[1:])
    C = (np.eye(1 + cross.ndim)[None, None] if field is None
         else asm.coefficient_samples(cross, field, field.eval_many))
    X = asm._slot_matrices(cross, C, 1)
    Mc = asm._slot_matrices(cross, np.ones((1, 1, 1, 1)), 1)[0][0]
    u = np.asarray(full_values, dtype=float).reshape(len(axis), -1)
    h = np.diff(axis)[:, None]
    xi = asm.gauss_points_01()
    # slot 0 holds the axial derivative, constant on an axial cell (it
    # broadcasts over the cell's two points); the cross slots hold the
    # values at the points, whose cross derivatives X applies
    vals = u[:-1, None] * (1.0 - xi)[:, None] + u[1:, None] * xi[:, None]
    slots = [((u[1:] - u[:-1]) / h)[:, None]] + [vals] * cross.ndim

    def pair(mat, a, b):
        return (a @ mat.toarray() * b).sum(axis=-1)

    energy = 0.5 * h * sum(pair(X[a][b], sa, sb)
                           for a, sa in enumerate(slots)
                           for b, sb in enumerate(slots))
    mass = 0.5 * h * pair(Mc, vals, vals)
    return mass, energy, axis[:-1, None] + h * xi


# -- diagnostics -------------------------------------------------------------


@dataclass
class DecayProfile:
    masses: list
    alpha_fit: float
    slope_ci: tuple
    r2: float
    no_decay: bool
    grad_masses: list
    grad_alpha: float
    grad_r2: float


def _fit_log_decay(ell, rs, masses):
    t = ell - np.asarray(rs, dtype=float)
    y = np.log(np.maximum(masses, 1e-300))
    n = len(rs)
    lo = n // 3
    hi = max(lo + 3, (2 * n + 2) // 3)
    tt, yy = t[lo:hi], y[lo:hi]
    A = np.stack([tt, np.ones_like(tt)], axis=1)
    sol, *_ = np.linalg.lstsq(A, yy, rcond=None)
    slope, intercept = sol
    pred = A @ sol
    ss_res = float(((yy - pred) ** 2).sum())
    ss_tot = float(((yy - yy.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(tt) - 2, 1)
    se = math.sqrt(ss_res / dof / float(((tt - tt.mean()) ** 2).sum()))
    return slope, (slope - 2 * se, slope + 2 * se), r2


def decay_profile(u, mesh):
    """Bulk masses int_{|x1|<=r} u^2 for integer r and the fitted decay
    base alpha (mass ~ alpha^(ell - r)); flags alpha near 1 as no-decay.
    The same fit of the bulk |grad u|^2 gives the gradient rate."""
    if mesh.domain_kind != "full-cylinder":
        raise MeshMismatch("decay profile needs a full cylinder")
    if mesh.ell < 4:
        raise TooShort("need ell >= 4 for a linear regime")
    vec = u.vector if hasattr(u, "vector") else np.asarray(u, dtype=float)
    mass, energy, x1q = axial_densities(mesh.scatter_free(vec),
                                        mesh.axis_partitions)
    rs = list(range(1, int(math.floor(mesh.ell))))
    masses = [float(mass[np.abs(x1q) <= r].sum()) for r in rs]
    gmasses = [float(energy[np.abs(x1q) <= r].sum()) for r in rs]
    slope, ci, r2 = _fit_log_decay(mesh.ell, rs, masses)
    gslope, _, gr2 = _fit_log_decay(mesh.ell, rs, gmasses)
    alpha = math.exp(slope)
    return DecayProfile(
        masses=list(zip(rs, masses)),
        alpha_fit=alpha,
        slope_ci=(math.exp(ci[0]), math.exp(ci[1])),
        r2=r2,
        no_decay=alpha > NO_DECAY_ALPHA,
        grad_masses=list(zip(rs, gmasses)),
        grad_alpha=math.exp(gslope),
        grad_r2=gr2,
    )


@dataclass(frozen=True)
class ConcentrationSplit:
    n_plus: float
    n_minus: float
    d_plus: float
    d_minus: float


def concentration_split(u, mesh, field):
    """Stiffness and mass energies of the pair ``u`` of ``field`` on
    ``mesh``, split at x1 = 0; an axial cell straddling zero is split by
    the sign of its axial Gauss points.  Verifies N+ + N- = lambda and
    D+ + D- = 1 to the stated tolerances."""
    if mesh.domain_kind != "full-cylinder":
        raise MeshMismatch("concentration split needs a full cylinder")
    mass, energy, x1q = axial_densities(mesh.scatter_free(u.vector),
                                        mesh.axis_partitions, field)
    plus = x1q > 0.0
    n_plus = float(energy[plus].sum())
    n_minus = float(energy[~plus].sum())
    d_plus = float(mass[plus].sum())
    d_minus = float(mass[~plus].sum())
    lam = u.value
    if abs((n_plus + n_minus) - lam) > 1e-8 * abs(lam):
        raise CylgapError(
            f"energy split {n_plus + n_minus} != lambda {lam} beyond 1e-8")
    if abs((d_plus + d_minus) - 1.0) > 1e-10:
        raise CylgapError(
            f"mass split {d_plus + d_minus} != 1 beyond 1e-10")
    return ConcentrationSplit(n_plus, n_minus, d_plus, d_minus)


def symmetry_defect(u, mesh, field=None):
    """M-norm of u - Pu with P the (x1, X2) -> (-x1, -X2) node permutation."""
    perm = grid_mod.reflection_permutation(mesh)
    if field is not None and not field.is_even(
            asm.factor_mesh(mesh.cross_partitions).cell_centers()):
        raise NoReflectionSymmetry("field is not even in X2")
    vec = u.vector if hasattr(u, "vector") else np.asarray(u, dtype=float)
    full = mesh.scatter_free(vec)
    mass, _, _ = axial_densities(full - full[perm], mesh.axis_partitions)
    return float(np.sqrt(mass.sum()))


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
    return K.energy(u) - mu1 * M.energy(u)


def end_profile_distance(u_cyl, cyl_mesh, u_half, half_mesh, r):
    """Discrete H1 distance on the end collar Omega_r at x1 = -ell between
    the shifted cylinder eigenfunction and the half-plus minimizer,
    sign-aligned."""
    if cyl_mesh.domain_kind != "full-cylinder":
        raise MeshMismatch("first argument must live on a full cylinder")
    if half_mesh.domain_kind != "half-plus":
        raise MeshMismatch("second mesh must be a half-plus mesh")
    if r <= 0 or r > min(cyl_mesh.ell, half_mesh.ell):
        raise ValueError("r must fit in both meshes")
    for a in range(1, cyl_mesh.ndim):
        if not np.allclose(cyl_mesh.axis_partitions[a],
                           half_mesh.axis_partitions[a], atol=1e-12):
            raise MeshMismatch("cross partitions do not match")
    hx = half_mesh.axis_partitions[0]
    cx = cyl_mesh.axis_partitions[0]
    k = int(np.searchsorted(hx, r + 1e-12))
    if not np.allclose(hx[:k], cx[:k] + cyl_mesh.ell, atol=1e-10):
        raise MeshMismatch("axis partitions not aligned on the collar")

    cyl_full = cyl_mesh.scatter_free(
        u_cyl.vector if hasattr(u_cyl, "vector") else u_cyl)
    half_full = half_mesh.scatter_free(
        u_half.vector if hasattr(u_half, "vector") else u_half)
    cyl_grid = cyl_full.reshape(cyl_mesh.shape)[:k].ravel()
    half_grid = half_full.reshape(half_mesh.shape)[:k].ravel()
    # H1 norm of the sign-aligned difference on the collar box
    sign = 1.0 if float(cyl_grid @ half_grid) >= 0 else -1.0
    mass, energy, _ = axial_densities(cyl_grid - sign * half_grid,
                                      [hx[:k], *half_mesh.cross_partitions])
    return float(np.sqrt(mass.sum() + energy.sum()))
