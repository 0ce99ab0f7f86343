"""Eigenfunction diagnostics: decay of the bulk mass, the energy split
at x1 = 0, the reflection symmetry defect and the distance between end
profiles, all integrated through the pencil's Kronecker factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from . import grid as grid_mod
from .errors import CylgapError, MeshMismatch, NoReflectionSymmetry, TooShort

NO_DECAY_ALPHA = 0.8


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


def end_profile_distance(u_cyl, cyl_mesh, u_half, half_mesh, r):
    """Discrete H1 distance on the end collar Omega_r at x1 = -ell between
    the shifted cylinder eigenfunction and the half-plus minimizer,
    sign-aligned."""
    if cyl_mesh.domain_kind != "full-cylinder":
        raise MeshMismatch("first argument must live on a full cylinder")
    if half_mesh.domain_kind != "half-plus":
        raise MeshMismatch("second mesh must be a half-plus mesh")
    if r <= 0 or r > min(cyl_mesh.ell, half_mesh.ell):
        raise TooShort("r must fit in both meshes")
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
