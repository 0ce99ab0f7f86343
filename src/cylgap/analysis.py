"""Eigenfunction diagnostics: decay of the bulk mass, the energy split
at x1 = 0, the reflection symmetry defect and the distance between end
profiles, all integrated through the pencil's Kronecker factors, of
eigenfunctions given as free-node vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assemble as asm
from .errors import CylgapError, MeshMismatch, NoReflectionSymmetry, TooShort

NO_DECAY_ALPHA = 0.8


def axial_densities(full_values, parts, field=None):
    """Mass and energy of a nodal function at each axial Gauss point of a
    p = 1 box, integrated over its cross-section, and the x1 of each point.

    ``parts`` are the box's axis partitions, the axial one first, and the
    nodes are C-ordered as in them.  The cross integrals go through the
    cross slot matrices X_ab and the cross mass Mc that assembly builds
    its cylinder forms from (``assemble.cross_slots``; C = I without a
    field: the plain |grad u|^2; Mc is its value slot), over all cross
    nodes: a nodal function of the box vanishes on its lateral boundary,
    so the clamped nodes add nothing and the all-node sets serve
    unrestricted.  So the energies add up to u.Ku and the masses to u.Mu.
    Returns three arrays of shape (axial cells, 2).
    """
    axis = parts[0]
    cross = asm.factor_mesh(parts[1:])
    X = asm.cross_slots(cross, field)
    Mc = asm.cross_slots(cross)[0][0]
    u = np.asarray(full_values, dtype=float).reshape(len(axis), -1)
    h = np.diff(axis)[:, None]
    xi = asm.gauss_points_01()
    # slot 0 holds the axial derivative, constant on an axial cell (it
    # broadcasts over the cell's two points); the cross slots hold the
    # values at the points, whose cross derivatives X applies
    vals = u[:-1, None] * (1.0 - xi)[:, None] + u[1:, None] * xi[:, None]
    slots = [((u[1:] - u[:-1]) / h)[:, None]] + [vals] * cross.ndim

    def pair(mat, a, b):
        # a . (mat b) along the last axis, mat applied to b's rows at once
        mb = (mat @ b.reshape(-1, b.shape[-1]).T).T.reshape(b.shape)
        return np.einsum("...i,...i->...", a, mb)

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
    r2: float
    grad_masses: list
    grad_alpha: float


def _fit_log_decay(ell, rs, masses):
    t = ell - np.asarray(rs, dtype=float)
    y = np.log(np.maximum(masses, 1e-300))
    n = len(rs)
    lo = n // 3
    hi = max(lo + 3, (2 * n + 2) // 3)
    tt, yy = t[lo:hi], y[lo:hi]
    if len(tt) < 3:  # a line fits two points with r2 = 1, decay or not
        raise TooShort(f"fit window holds {len(tt)} lengths, need 3")
    A = np.stack([tt, np.ones_like(tt)], axis=1)
    sol, *_ = np.linalg.lstsq(A, yy, rcond=None)
    slope, intercept = sol
    pred = A @ sol
    ss_res = float(((yy - pred) ** 2).sum())
    ss_tot = float(((yy - yy.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def decay_profile(u, mesh):
    """Bulk masses int_{|x1|<=r} u^2 for integer r and the fitted decay
    base alpha (mass ~ alpha^(ell - r)); a base above ``NO_DECAY_ALPHA``
    reads as no decay.  The same fit of the bulk |grad u|^2 gives the
    gradient rate."""
    if mesh.domain_kind != "full-cylinder":
        raise MeshMismatch("decay profile needs a full cylinder")
    mass, energy, x1q = axial_densities(mesh.scatter_free(u),
                                        mesh.axis_partitions)
    rs = list(range(1, int(math.floor(mesh.ell))))
    masses = [float(mass[np.abs(x1q) <= r].sum()) for r in rs]
    gmasses = [float(energy[np.abs(x1q) <= r].sum()) for r in rs]
    slope, r2 = _fit_log_decay(mesh.ell, rs, masses)
    gslope, _ = _fit_log_decay(mesh.ell, rs, gmasses)
    return DecayProfile(
        masses=list(zip(rs, masses)),
        alpha_fit=math.exp(slope),
        r2=r2,
        grad_masses=list(zip(rs, gmasses)),
        grad_alpha=math.exp(gslope),
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


def symmetry_defect(u, mesh):
    """M-norm of u - Pu with P the point reflection (x1, X2) -> (-x1, -X2),
    which reverses the node order of a mesh whose every axis mirrors
    (``TensorMesh.mirrored``); another mesh raises NoReflectionSymmetry.
    It measures property (S) on the eigenfunction of a pencil whose forms
    are ``point_symmetric``."""
    if not all(mesh.mirrored):
        raise NoReflectionSymmetry("mesh does not mirror about 0")
    full = mesh.scatter_free(u)
    mass, _, _ = axial_densities(full - full[::-1], mesh.axis_partitions)
    return float(np.sqrt(mass.sum()))


def end_profile_distance(u_cyl, cyl_mesh, u_half, half_mesh, r):
    """Discrete H1 distance on the end collar Omega_r at x1 = -ell between
    the shifted cylinder eigenfunction and the half-plus minimizer,
    sign-aligned.

    Both pairs are M-normalized, the cylinder's over both ends, so the
    cylinder profile is divided by sqrt(D-), its mass on x1 < 0 (as in
    ``concentration_split``): its minus half then has unit mass like the
    minimizer.  Unscaled, a field with property (S) (D- = 1/2) leaves the
    distance at (1 - 1/sqrt 2) times the profile's norm as ell grows."""
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

    cyl_grid, half_grid = [
        m.scatter_free(u).reshape(m.shape)[:k].ravel()
        for m, u in ((cyl_mesh, u_cyl), (half_mesh, u_half))]
    mass, _, x1q = axial_densities(cyl_mesh.scatter_free(u_cyl),
                                   cyl_mesh.axis_partitions)
    cyl_grid = cyl_grid / np.sqrt(mass[x1q < 0.0].sum())
    # H1 norm of the sign-aligned difference on the collar box
    sign = 1.0 if float(cyl_grid @ half_grid) >= 0 else -1.0
    mass, energy, _ = axial_densities(cyl_grid - sign * half_grid,
                                      [hx[:k], *half_mesh.cross_partitions])
    return float(np.sqrt(mass.sum() + energy.sum()))
