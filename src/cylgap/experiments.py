"""Named experiments that verify the asymptotic behavior of the spectrum.

Each experiment orchestrates meshes, assembly, and solves, emits one
SweepRecord per parameter value, and judges its assertions against
mesh-aware tolerances computed from a two-level refinement of the
cross-section eigenvalue (coarse/fine difference times three).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import time
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import analysis as an
from . import assemble as asm
from . import coeff as coeff_mod
from . import eig
from . import grid as grid_mod
from .errors import (ConditionConFails, CylgapError, DimensionMismatch,
                     NoReflectionSymmetry, NotConverged)

STRICT_MARGIN = 1e-3
REFLECTION_TOL = 1e-8    # |lambda-(A) - lambda+(A~)|, one pencil reflected
TOL_LIMIT_MODEL = 1e-2
TOL_LIMIT_GENERAL = 2e-2
DIRICHLET_SPREAD = 0.30
SECOND_GAP_SHRINK = 2.0  # the lambda2 - lambda1 gap at least halves per step
END_COLLAR = 3.0         # end-profile collar length r, at the plus end


@dataclass
class ExperimentConfig:
    """Shared knobs; margins are derived per run, never hard-coded."""

    resolution: float = 16.0        # cross-section cells per unit
    axial_resolution: float = 8.0   # cells per unit along the long axes
    grading: float = 1.0
    tol: float = 1e-9
    seed: int = 0
    node_cap: int = grid_mod.DEFAULT_NODE_CAP
    conv_tol: float = 5e-3          # last truncation step of a settled nu
    tol_inf: float = 5e-3           # final |lambda - min nu| in limit-infinity
    omega: tuple = (-1.0, 1.0)
    res3d_axial: float = 3.0
    res3d_cross: float = 12.0


@dataclass
class SweepRecord:
    """One row of an experiment; unset slots stay None and serialize empty."""

    experiment: str = ""
    field_kind: str = ""
    delta: float | None = None
    n: int | None = None
    p: int | None = None
    ell: float | None = None
    resolution: str = ""
    grading: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    sigma1: float | None = None
    lambda_half_plus: float | None = None
    lambda_half_minus: float | None = None
    mu1_disc: float | None = None
    Lambda1_disc: float | None = None
    nu_plus: float | None = None
    nu_minus: float | None = None
    alpha_fit: float | None = None
    r2: float | None = None
    d_plus: float | None = None
    d_minus: float | None = None
    n_plus: float | None = None
    n_minus: float | None = None
    symmetry_defect: float | None = None
    end_distance: float | None = None
    gap: float | None = None
    fitted_c: float | None = None
    extrapolated: float | None = None
    target: float | None = None
    margin: float | None = None
    residual: float | None = None
    passed: bool = True
    note: str = ""
    wall_time_s: float | None = None

    def add_note(self, text):
        """Append ``text`` to the note, ``"; "``-separated."""
        self.note = f"{self.note}; {text}" if self.note else text

    def check(self, ok, reason):
        """One assertion of the row: a failed check clears ``passed`` and
        appends ``reason`` to the note."""
        if not ok:
            self.passed = False
            self.add_note(reason)


# wall time is volatile; it stays off the byte-stable CSV schema
CSV_COLUMNS = [f.name for f in dc_fields(SweepRecord) if f.name != "wall_time_s"]


def _delta_of(field):
    for key in ("delta", "delta0"):
        if key in field.params:
            return float(field.params[key])
    return None


# -- shared context ----------------------------------------------------------


@dataclass
class CrossContext:
    mesh: object
    mu1: float
    W1: eig.EigenPair
    Lambda1: float
    mesh_err: float
    margin: float
    condition: coeff_mod.ConditionReport


_CROSS_CACHE = {}


def cross_context(field, cfg):
    """Cross-section eigendata at ``cfg.resolution`` plus the two-level
    mesh-error estimate.

    Cached per field object and every ``cfg`` field read here (fields
    compare by identity, and the key keeps its field alive)."""
    res = cfg.resolution
    key = (field, tuple(np.ravel(cfg.omega)), res, cfg.tol, cfg.seed,
           cfg.node_cap)
    if key in _CROSS_CACHE:
        return _CROSS_CACHE[key]

    def first_pair(mesh, reduced=False):
        K, M = asm.assemble_cross_section(mesh, field, reduced=reduced)
        return eig.smallest_eigenpairs(K, M, count=1, tol=cfg.tol,
                                       seed=cfg.seed)[0]

    mesh, fine = [grid_mod.build_mesh("cross-section", omega=cfg.omega,
                                      resolution=r, node_cap=cfg.node_cap)
                  for r in (res, 2 * res)]
    W1 = first_pair(mesh)
    Lambda1 = first_pair(mesh, reduced=True).value
    err = abs(W1.value - first_pair(fine).value)
    ctx = CrossContext(mesh, W1.value, W1, Lambda1, err, 3.0 * err,
                       coeff_mod.condition_con(field, W1, mesh))
    _CROSS_CACHE[key] = ctx
    return ctx


# entries of the enclosing ``solve_memo`` block; None outside any block
_MEMO = contextvars.ContextVar("cylgap_solve_memo", default=None)


@contextlib.contextmanager
def solve_memo():
    """Within the block, ``solve_cylinder`` assembles and solves each
    distinct pencil once and answers repeats from entries the block owns;
    outside any block every call solves afresh."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


@dataclass(frozen=True)
class _Held:
    """A memo entry: the pairs of one pencil, the cross context and length
    they were solved at, and whether both axial ends were free."""

    ctx: CrossContext
    ell: float
    free_ends: bool
    pairs: list


def _held_lambda1(memo, ctx, ell):
    """The largest lambda_1 that ``memo`` holds under the cross context
    ``ctx`` (so for one field up to reflection) on a mixed pencil with
    both ends free and no longer than ``ell``; None if it holds none."""
    return max((entry.pairs[0].value for entry in memo.values()
                if entry.ctx is ctx and entry.free_ends and entry.ell <= ell),
               default=None)


def solve_cylinder(field, ell, cfg, kind="full-cylinder", count=1,
                   grading=None, dirichlet=False):
    """Mesh and smallest pairs of a cylinder pencil; returns
    ``(mesh, pairs)``.

    Every elongated axis gets ``cfg.axial_resolution`` cells per unit, but
    at least 4 cells for tiny ``ell``; the cross axes get
    ``cfg.resolution``.  ``dirichlet`` clamps the whole boundary, ends
    included (the comparison spectrum), and the returned mesh is that
    clamped mesh.  The solve's floor is the field's ``Lambda1 - margin``
    from ``cross_context``, taken for the unreflected field: a reflection
    negates A12 only, so it leaves A22 and the Schur complement, and with
    them Lambda1 and the margin, bit-identical.

    Inside ``solve_memo`` a pencil already solved there (same mesh key,
    which holds the clamped ends, field object, ``count``, ``cfg.tol``
    and ``cfg.seed``) is not assembled or solved again, and repeats share
    the stored pairs, which callers only read; a failed solve is never
    stored.  A new
    pencil gets the guess ``P - margin`` (see ``eig.smallest_eigenpairs``),
    where P is the largest lambda_1 the block holds under the same cross
    context on a mixed pencil with both ends free (full-cylinder,
    multi-direction) no longer than ``ell``.  P has a proven comparison
    pencil below the solved lambda_1 for
      * an all-Dirichlet pencil: the mixed pencil on the same mesh;
      * a half-cylinder of length L: the full cylinder at ell = L / 2 on
        a matched mesh (extension by zero);
      * a count-2 solve: the count-1 solve of the same pencil.
    P is that comparison value wherever lambda_1 of the full cylinder
    rises with ell, which every committed row shows but nothing proves;
    for a longer full cylinder P rests on that observation alone.  The
    factor of K - guess M decides either way, and a rejected guess costs
    one factor before the solve falls back to the floor."""
    axial = max(cfg.axial_resolution, 2.0 / ell)
    mesh = grid_mod.build_mesh(
        kind, ell=ell, omega=cfg.omega,
        resolution=[axial] * field.p + [cfg.resolution] * field.cross_dim,
        grading=cfg.grading if grading is None else grading,
        node_cap=cfg.node_cap)
    if dirichlet:
        mesh = grid_mod.with_full_dirichlet(mesh)
    memo = _MEMO.get()
    # fields compare by identity, and the key keeps its field alive
    key = (mesh.key, field, count, cfg.tol, cfg.seed)
    entry = None if memo is None else memo.get(key)
    if entry is None:
        # no cylinder eigenvalue lies below the Schur floor Lambda1
        ctx = cross_context(field.unreflected, cfg)
        held = None if memo is None else _held_lambda1(memo, ctx, mesh.ell)
        pairs = eig.smallest_eigenpairs(
            *asm.assemble_cylinder(mesh, field), count=count, tol=cfg.tol,
            seed=cfg.seed, floor=ctx.Lambda1 - ctx.margin,
            guess=None if held is None else held - ctx.margin)
        free_ends = not any(any(ends)
                            for ends in mesh.clamped[:mesh.n_axial])
        entry = _Held(ctx, mesh.ell, free_ends, pairs)
        if memo is not None:
            memo[key] = entry
    return mesh, entry.pairs


# the first eigenvalue of a half-cylinder is the tilde-lambda of its side
_FIRST_VALUE_COLUMN = {"half-plus": "lambda_half_plus",
                       "half-minus": "lambda_half_minus"}


def _row(experiment, field, cfg, ell, judge, ctx=None, margin=None,
         diagnostics=False, **solve):
    """One timed record.

    With a length ``ell`` the row solves ``solve_cylinder(field, ell, cfg,
    **solve)`` and records the resolution, the first eigenvalue, the
    largest residual and, when ``diagnostics`` is set and the mesh is a
    full cylinder, the concentration split of the first pair and its
    symmetry defect (for reflection-symmetric fields; both self-check
    their identities); ``judge(rec, mesh, pairs)`` then fills in the rest
    and judges it through ``rec.check``.  A row without a length only
    calls ``judge(rec, None, None)``.  ``ctx`` supplies ``mu1_disc``.
    The row starts passed with an empty note; a CylgapError fails this
    row alone, with the exception in its note.
    """
    t0 = time.perf_counter()
    rec = SweepRecord(experiment=experiment, field_kind=field.kind,
                      delta=_delta_of(field), n=field.n, p=field.p, ell=ell,
                      grading=cfg.grading,
                      mu1_disc=None if ctx is None else ctx.mu1,
                      margin=margin)
    try:
        if ell is None:
            judge(rec, None, None)
        else:
            mesh, pairs = solve_cylinder(field, ell, cfg, **solve)
            rec.resolution = "x".join(str(c) for c in mesh.cells_shape)
            setattr(rec, _FIRST_VALUE_COLUMN.get(mesh.domain_kind, "lambda1"),
                    pairs[0].value)
            rec.residual = max(p.residual for p in pairs)
            if diagnostics and mesh.domain_kind == "full-cylinder":
                split = an.concentration_split(pairs[0], mesh, field)
                rec.n_plus, rec.n_minus = split.n_plus, split.n_minus
                rec.d_plus, rec.d_minus = split.d_plus, split.d_minus
                with contextlib.suppress(NoReflectionSymmetry):
                    rec.symmetry_defect = an.symmetry_defect(
                        pairs[0], mesh, field=field)
            judge(rec, mesh, pairs)
    except CylgapError as exc:
        rec.check(False, f"{type(exc).__name__}: {exc}")
    rec.wall_time_s = time.perf_counter() - t0
    return rec


# -- experiments -------------------------------------------------------------


def exp_bounds_sweep(field, ell_list, cfg):
    """Universal sandwich Lambda1 <= lambda <= mu1 per length, with strict
    interior placement for the coupled model field."""
    ctx = cross_context(field, cfg)
    delta = _delta_of(field)
    is_model = field.kind == "model-delta"

    def judge(rec, mesh, pairs):
        lam = rec.lambda1
        rec.Lambda1_disc = ctx.Lambda1
        rec.check(ctx.Lambda1 - ctx.margin <= lam <= ctx.mu1 + ctx.margin,
                  "outside [Lambda1 - margin, mu1 + margin]")
        if is_model and delta and delta > 0.0:
            rec.check((1 - delta**2) * ctx.mu1 + STRICT_MARGIN < lam
                      < ctx.mu1 - STRICT_MARGIN,
                      "strict interior placement failed")
        if is_model and delta == 0.0:
            rec.check(abs(lam - ctx.mu1) <= 1e-9,
                      "delta=0 should pin lambda to mu1")
        rec.gap = ctx.mu1 - lam

    return [_row("bounds", field, cfg, ell, judge, ctx=ctx,
                 margin=ctx.margin, diagnostics=True) for ell in ell_list]


def _richardson(lams):
    """Extrapolate lambda(ell) to ell -> 0 from a halving schedule."""
    if len(lams) < 3:
        raise NotConverged("Richardson extrapolation needs 3 solved "
                           f"lengths, got {len(lams)}", sequence=lams)
    d2 = lams[-2] - lams[-3]
    d3 = lams[-1] - lams[-2]
    if d3 == 0 or d2 / d3 <= 1.0:
        return lams[-1], math.nan
    q = math.log2(abs(d2 / d3))
    return lams[-1] + d3 / (2**q - 1), q


def exp_limit_zero(field, ell_list, cfg):
    """Thin-cylinder limit: lambda extrapolates to the Schur-reduced
    cross-section value.  The cross resolution is raised until cells can
    resolve the lateral boundary layer of width ~ min(ell)."""
    ells = sorted(ell_list, reverse=True)
    zcfg = replace(cfg, resolution=max(cfg.resolution, 2.0 / min(ells)))
    ctx = cross_context(field, zcfg)
    tol_limit = (TOL_LIMIT_MODEL if field.kind == "model-delta"
                 else TOL_LIMIT_GENERAL)

    def judge(rec, mesh, pairs):
        rec.Lambda1_disc = ctx.Lambda1

    records = [_row("limit-zero", field, zcfg, ell, judge, ctx=ctx)
               for ell in ells]

    def summarize(rec, mesh, pairs):
        rec.Lambda1_disc = ctx.Lambda1
        extrap, order = _richardson([r.lambda1 for r in records
                                     if r.lambda1 is not None])
        rec.extrapolated = extrap
        rec.target = ctx.Lambda1
        rec.add_note(f"extrapolation (observed order {order:.2f})"
                     if math.isfinite(order)
                     else "extrapolation (order indeterminate)")
        rec.check(abs(extrap - ctx.Lambda1) < tol_limit,
                  f"extrapolated value off target by >= {tol_limit}")

    records.append(_row("limit-zero", field, zcfg, None, summarize, ctx=ctx,
                        margin=tol_limit))
    return records


def _half_truncations(field, side, lengths, cfg):
    """Records of the half-cylinder truncations of one side (``"+"`` or
    ``"-"``), nonincreasing in L down to the semi-infinite value nu, which
    every record carries in its ``nu_plus`` or ``nu_minus`` column.

    nu is the last truncation, an upper bound; with no coupling it is
    identified with mu1.  The last record notes the bracket of the last
    step and whether the sequence settled within ``cfg.conv_tol``.
    Fewer than two solved lengths raise NotConverged.
    """
    ctx = cross_context(field, cfg)
    seq = []

    def judge(rec, mesh, pairs):
        val = pairs[0].value
        rec.check(not seq or val <= seq[-1] + 10 * cfg.tol,
                  "truncation sequence not nonincreasing")
        seq.append(val)

    records = [_row(f"nu-half{side}", field, cfg, L, judge, ctx=ctx,
                    kind="half-plus" if side == "+" else "half-minus",
                    grading=1.0) for L in sorted(lengths)]
    if len(seq) < 2:
        raise NotConverged("half-cylinder estimate needs 2 solved "
                           f"lengths, got {len(seq)}", sequence=seq)
    last = records[-1]
    converged = abs(seq[-2] - seq[-1]) < cfg.conv_tol
    nu = seq[-1]
    if not ctx.condition.holds:
        # equality case: the limit is mu1 itself; truncations only bound it
        nu = ctx.mu1
        last.add_note("no coupling: limit identified with mu1")
        converged = True
    for rec in records:
        setattr(rec, "nu_plus" if side == "+" else "nu_minus", nu)
    lower = seq[-1] - (seq[-2] - seq[-1])
    last.add_note(f"bracket=[{lower:.9g},{seq[-1]:.9g}]")
    if not converged:
        last.add_note("truncation sequence not converged")
    return records


def reflection_check(field, L, cfg):
    """lambda-tilde minus of A equals lambda-tilde plus of the reflected
    field, exactly up to solver tolerance."""
    _, pm = solve_cylinder(field, L, cfg, kind="half-minus", grading=1.0)
    _, pp = solve_cylinder(field.reflected(), L, cfg, kind="half-plus",
                           grading=1.0)
    return pm[0].value, pp[0].value


def exp_nu_half(field, lengths, cfg):
    """Both half-cylinder truncation sequences, then the reflection
    identity at the first length: lambda-tilde minus of A equals
    lambda-tilde plus of the reflected field within ``REFLECTION_TOL``.

    The reflection row keeps empty delta, resolution and grading cells."""
    records = (_half_truncations(field, "+", lengths, cfg)
               + _half_truncations(field, "-", lengths, cfg))
    rec = SweepRecord(experiment="nu-half", field_kind=field.kind,
                      n=field.n, p=field.p, ell=lengths[0],
                      note="reflection identity lambda-(A) vs lambda+(A~)")
    try:
        lm, lp = reflection_check(field, lengths[0], cfg)
        rec.lambda_half_minus, rec.lambda_half_plus = lm, lp
        rec.gap = abs(lm - lp)
        rec.check(rec.gap <= REFLECTION_TOL, "reflection identity violated")
    except CylgapError as exc:
        rec.check(False, f"{type(exc).__name__}: {exc}")
    return records + [rec]


def exp_limit_infinity(field, L_list, cfg):
    """lambda converges to min(nu+, nu-), ending within ``cfg.tol_inf``;
    includes the half-vs-half-length sandwich at matched meshes."""
    Ls = sorted(L_list)
    Lmax = Ls[-1]
    sched = sorted({max(4, Lmax // 4), max(4, Lmax // 2), Lmax})
    nu_p = _half_truncations(field, "+", sched, cfg)[-1].nu_plus
    nu_m = _half_truncations(field, "-", sched, cfg)[-1].nu_minus
    nu_min = min(nu_p, nu_m)
    ctx = cross_context(field, cfg)
    diffs = []

    def judge(rec, mesh, pairs):
        L = rec.ell
        lam = rec.lambda1
        rec.nu_plus = nu_p
        rec.nu_minus = nu_m
        diff = abs(lam - nu_min)
        rec.gap = diff
        rec.check(not diffs or diff <= diffs[-1] + 10 * cfg.tol,
                  "|lambda - nu| not decreasing")
        # sandwich lambda_{L/2} <= tilde-lambda_L^+ on nested meshes
        _, half_pairs = solve_cylinder(field, L, cfg, kind="half-plus",
                                          grading=1.0)
        _, cyl_half = solve_cylinder(field, L / 2.0, cfg, grading=1.0)
        rec.lambda_half_plus = half_pairs[0].value
        rec.check(cyl_half[0].value <= half_pairs[0].value + 10 * cfg.tol,
                  "sandwich lambda_{L/2} <= tilde lambda_L^+ violated")
        diffs.append(diff)
        if L == Lmax:
            rec.margin = cfg.tol_inf
            rec.check(diff < cfg.tol_inf,
                      f"final |lambda - nu| {diff:.2e} >= {cfg.tol_inf}")

    return [_row("limit-infinity", field, cfg, L, judge, ctx=ctx,
                 grading=1.0, diagnostics=True) for L in Ls]


def exp_gap(field, L_list, cfg):
    """Gap phenomenon: mu1 - lambda stays above three mesh errors."""
    ctx = cross_context(field, cfg)
    if not ctx.condition.holds:
        raise ConditionConFails(
            "A12.grad(W1) vanishes in L2; the gap experiment needs coupling")

    def judge(rec, mesh, pairs):
        rec.gap = ctx.mu1 - rec.lambda1
        rec.check(rec.gap > ctx.margin,
                  f"gap {rec.gap:.3e} below margin {ctx.margin:.3e}")

    return [_row("gap", field, cfg, L, judge, ctx=ctx, margin=ctx.margin,
                 diagnostics=True) for L in sorted(L_list)]


def exp_second_eigenvalue(field, L_list, cfg):
    """Second eigenvalue closes onto the first under property (S), squeezed
    by the matched half-cylinder value."""
    ctx = cross_context(field, cfg)
    for part in ctx.mesh.axis_partitions:
        if abs(part[0] + part[-1]) > 1e-12:
            raise NoReflectionSymmetry(
                "property (S) requires omega symmetric about the origin")
    if not field.is_even(ctx.mesh.cell_centers()):
        raise NoReflectionSymmetry("property (S) requires an even field")
    gaps = []

    def judge(rec, mesh, pairs):
        lam1, lam2 = pairs[0].value, pairs[1].value
        rec.lambda2 = lam2
        _, half_pairs = solve_cylinder(field, rec.ell, cfg,
                                          kind="half-plus", grading=1.0)
        rec.lambda_half_plus = half_pairs[0].value
        gap = lam2 - lam1
        rec.gap = gap
        if pairs[0].degenerate or pairs[1].degenerate:
            rec.add_note("near-degenerate pair")
        else:
            rec.check(lam1 < lam2, "lambda1 < lambda2 failed")
            rec.check(lam2 <= half_pairs[0].value + 10 * cfg.tol,
                      "lambda2 <= tilde lambda^+ failed")
            rec.check(not gaps or gap <= gaps[-1] / SECOND_GAP_SHRINK,
                      f"gap did not shrink by {SECOND_GAP_SHRINK}x")
        gaps.append(gap)

    return [_row("second", field, cfg, L, judge, ctx=ctx, count=2,
                 grading=1.0, diagnostics=True) for L in sorted(L_list)]


def exp_dirichlet_comparison(field, L_list, cfg):
    """All-Dirichlet spectrum: sigma approaches mu1 from above at rate C/L^2
    with a stable fitted constant."""
    ctx = cross_context(field, cfg)
    Ls = sorted(L_list)
    cs = []

    def judge(rec, mesh, pairs):
        L = rec.ell
        _, dpairs = solve_cylinder(field, L, cfg, grading=1.0,
                                      dirichlet=True)
        sig = dpairs[0]
        rec.sigma1 = sig.value
        rec.residual = max(rec.residual, sig.residual)
        rec.fitted_c = (sig.value - ctx.mu1) * L * L
        rec.check(sig.value >= ctx.mu1 - ctx.margin,
                  "sigma1 below mu1 - margin")
        rec.check(rec.lambda1 <= sig.value + 10 * cfg.tol,
                  "mixed above Dirichlet at a matched mesh")
        cs.append(rec.fitted_c)
        if L == Ls[-1]:
            spread = (max(cs) - min(cs)) / max(cs) if max(cs) > 0 else math.inf
            rec.check(spread <= DIRICHLET_SPREAD,
                      f"fitted C spread {spread:.0%} > 30%")

    return [_row("dirichlet", field, cfg, L, judge, ctx=ctx,
                 margin=ctx.margin, grading=1.0) for L in Ls]


def exp_multi_direction(field3d, L_list, cfg):
    """Two elongated directions at coarse resolution: the gap appears
    exactly when some row of A12 couples to the cross gradient, and the
    row-restricted 2D pencil upper-bounds the 3D value."""
    if field3d.p != 2 or field3d.n != 3:
        raise DimensionMismatch("multi-direction experiment needs n=3, p=2")
    cfg3 = replace(cfg, axial_resolution=cfg.res3d_axial,
                   resolution=cfg.res3d_cross)
    ctx = cross_context(field3d, cfg3)
    if ctx.condition.holds:
        # the row coupling most strongly to W1 gives the tightest bound
        norms = [coeff_mod.condition_con(
            coeff_mod.row_restriction_field(field3d, i), ctx.W1,
            ctx.mesh).norm for i in range(field3d.p)]
        bfield = coeff_mod.row_restriction_field(field3d,
                                                 int(np.argmax(norms)))

    def judge(rec, mesh, pairs):
        lam = rec.lambda1
        rec.gap = ctx.mu1 - lam
        if ctx.condition.holds:
            rec.check(rec.gap > ctx.margin,
                      "expected gap above the mesh-error margin")
            # row-restriction upper bound at a matched (x_i, X2) mesh
            _, bpairs = solve_cylinder(bfield, rec.ell, cfg3,
                                          grading=1.0)
            rec.target = bpairs[0].value
            rec.check(lam <= rec.target + 10 * cfg.tol,
                      "3D value above the row-restricted 2D bound")
        else:
            rec.check(abs(lam - ctx.mu1) <= max(1e-8, 100 * cfg.tol),
                      "uncoupled field should pin lambda to mu1")

    # records keep the caller's grading column; cfg3 only sets resolutions
    return [_row("multi-direction", field3d, cfg3, L, judge, ctx=ctx,
                 margin=ctx.margin, kind="multi-direction", grading=1.0)
            for L in sorted(L_list)]


def exp_decay(field, ell_list, cfg):
    """Bulk decay of the eigenfunction, one row per length; flags the
    separable no-decay case.

    Returns the records and ``(ell, profile)`` for each row that fitted
    its decay profile.
    """
    ctx = cross_context(field, cfg)
    profiles = []

    def judge(rec, mesh, pairs):
        prof = an.decay_profile(pairs[0], mesh)
        profiles.append((rec.ell, prof))
        rec.alpha_fit = prof.alpha_fit
        rec.r2 = prof.r2
        if ctx.condition.holds:
            rec.check(not prof.no_decay and prof.r2 > 0.99,
                      "expected exponential decay")
            rec.check(abs(prof.grad_alpha - prof.alpha_fit)
                      <= 0.2 * prof.alpha_fit,
                      "gradient rate off by more than 20%")
        else:
            rec.check(prof.no_decay,
                      "expected flat profile for uncoupled field")
            rec.add_note("no-decay")

    records = [_row("decay", field, cfg, ell, judge, ctx=ctx,
                    grading=cfg.grading if cfg.grading > 1
                    else (2.0 if ell >= 4 else 1.0), diagnostics=True)
               for ell in ell_list]
    return records, profiles


def exp_end_profile(field, ell_list, cfg, half_length=None):
    """H1 distance between shifted cylinder eigenfunctions and the long
    half-plus minimizer on the plus end collar of length ``END_COLLAR``,
    decreasing in ell.

    End collars are graded (default 2x for ell >= 4): that is where the
    profiles live, and identical grading on both meshes keeps the collar
    partitions aligned node-for-node.
    """
    half_length = max(ell_list) if half_length is None else half_length
    grading = cfg.grading if cfg.grading > 1 else \
        (2.0 if min(ell_list) >= 4 else 1.0)
    hmesh, hpairs = solve_cylinder(field, half_length, cfg,
                                      kind="half-plus", grading=grading)
    dists = []

    def judge(rec, mesh, pairs):
        d = an.end_profile_distance(pairs[0], mesh, hpairs[0], hmesh,
                                    END_COLLAR)
        rec.end_distance = d
        rec.lambda_half_plus = hpairs[0].value
        rec.check(not dists or d <= dists[-1],
                  "end-profile distance not decreasing")
        dists.append(d)

    return [_row("end-profile", field, cfg, ell, judge, grading=grading)
            for ell in sorted(ell_list)]
