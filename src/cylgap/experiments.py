"""Named experiments that verify the asymptotic behavior of the spectrum.

Each experiment orchestrates meshes, assembly, and solves, emits one
SweepRecord per parameter value, and judges its assertions against
mesh-aware tolerances computed from a two-level refinement of the
cross-section eigenvalue (coarse/fine difference times three).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import (dataclass, field as dc_field, fields as dc_fields,
                         replace)

import numpy as np

from . import analysis as an
from . import assemble as asm
from . import coeff as coeff_mod
from . import eig
from . import grid as grid_mod
from .errors import (ConditionConFails, CylgapError, DimensionMismatch,
                     NoReflectionSymmetry, NotConverged)

STRICT_MARGIN = 1e-3
SOLVE_SLACK = 10 * eig.DEFAULT_TOL  # one solved eigenvalue below another
PIN_TOL = 1e-7           # |lambda - mu1| of an uncoupled multi-direction row
REFLECTION_TOL = 1e-8    # |lambda-(A) - lambda+(A~)|, one pencil reflected
TOL_LIMIT_MODEL = 1e-2
TOL_LIMIT_GENERAL = 2e-2
DIRICHLET_SPREAD = 0.30
SECOND_GAP_SHRINK = 2.0  # the lambda2 - lambda1 gap at least halves per step
DEGENERACY_RTOL = 1e-8   # a smaller lambda2 - lambda1, relative, skips checks
END_COLLAR = 3.0         # end-profile collar length r, at x1 = -ell
TOL_CON = 1e-8           # a smaller sqrt of the Schur energy drop: uncoupled
CONV_TOL = 5e-3          # last truncation step of a settled nu
TOL_INF = 5e-3           # final |lambda - min nu| in limit-infinity


@dataclass
class ExperimentConfig:
    """Shared knobs: resolutions, seed and omega.  None moves a verdict:
    the mesh-error margin is derived per run (``cross_context``), and the
    other thresholds are the constants at the top of this module."""

    resolution: float = 16.0        # cross-section cells per unit
    axial_resolution: float = 8.0   # cells per unit along the long axes
    seed: int = 0
    omega: tuple = (-1.0, 1.0)


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
    # every require of the row as (label, q, op, t, margin); not a column
    checks: list = dc_field(default_factory=list)

    def add_note(self, text):
        """Append ``text`` to the note, ``"; "``-separated."""
        self.note = f"{self.note}; {text}" if self.note else text

    def fail(self, note):
        """Clear ``passed`` and append ``note``."""
        self.passed = False
        self.add_note(note)

    def require(self, label, q, op, t, margin=0.0):
        """One claim of the row, ``q op t`` for ``op`` in ``<``, ``<=``,
        ``>`` and ``>=``, with ``margin`` moved against the claim: it
        holds when q op t + margin for ``>`` and ``>=``, and when
        q op t - margin for ``<`` and ``<=``.  A positive margin is
        clearance the claim must clear, a negative one slack it is
        granted.  The claim goes to ``checks`` as ``(label, q, op, t,
        margin)``; a failed one fails the row with the note
        ``label: q op t + s failed`` (or ``- s``), the inequality it
        tested, where s = |margin| and every float is in repr, so that
        the note reads back exactly."""
        q, t, margin = float(q), float(t), float(margin)
        self.checks.append((label, q, op, t, margin))
        shift = margin if op[0] == ">" else -margin
        bound = t + shift
        if not {"<": q < bound, "<=": q <= bound, ">": q > bound,
                ">=": q >= bound}[op]:
            self.fail(f"{label}: {q!r} {op} {t!r} "
                      f"{'+' if shift >= 0 else '-'} {abs(shift)!r} failed")


CSV_COLUMNS = [f.name for f in dc_fields(SweepRecord) if f.name != "checks"]


def _delta_of(field):
    for key in ("delta", "delta0"):
        if key in field.params:
            return float(field.params[key])
    return None


# -- shared context ----------------------------------------------------------


@dataclass
class CrossContext:
    """The run's record of one field at one cross resolution: W1 and mu1,
    Lambda1, the mesh-error margin, the unreduced cross ``stiffness``,
    the Schur energy drop ``coupling`` of W1 (see ``cross_context``), and
    ``solved``: ``(mesh key, field, count)`` of every cylinder pencil
    solved under it to its pairs and ell (None if an axial end clamps)."""

    mesh: object
    mu1: float
    W1: eig.EigenPair
    Lambda1: float
    margin: float
    stiffness: asm.KroneckerForm
    coupling: float
    solved: dict = dc_field(default_factory=dict)

    @property
    def coupled(self):
        """Condition (Con): A12.grad(W1) does not vanish, read as
        sqrt(coupling) > TOL_CON."""
        return self.coupling > TOL_CON**2


_CROSS_CACHE = {}


def cross_context(field, cfg, base=None):
    """Cross-section eigendata at ``cfg.resolution`` plus the two-level
    mesh-error estimate.

    A ``base``, the context of a field with the same A22 (such as the
    field of a row restriction), lends its mesh, mu1, W1, margin and
    ``stiffness``; Lambda1, the drop and ``solved`` are always new.

    ``coupling`` is the drop c = W1.(K - K_red)W1 between the unreduced
    and the Schur-reduced cross stiffness, both already assembled for mu1
    and Lambda1.  Both read A at the same points
    (``asm.coefficient_samples``), so c is the integral of
    (A12 grad W1)^t A11^-1 (A12 grad W1) under the pencils' own rule:
    W1.K_red.W1 = mu1 - c.  Where A12 vanishes the reduced samples equal
    A22 bit for bit, and c is exactly 0.

    A field and its reflections share the context of
    ``field.unreflected``: a reflection negates A12 only, which leaves
    mu1, W1, Lambda1, the margin and c bit-identical.  Inside a
    ``solve_memo`` block it is cached per that field object and every
    ``cfg`` field read here (fields compare by identity, and the key keeps
    its field alive) until the outermost block closes, and its cross
    pencils read the samples, factor meshes and slot sets of the block's
    store, which the field's cylinders and diagnostics share; outside any
    block every call builds afresh and holds nothing."""
    field = field.unreflected
    key = (field, tuple(np.ravel(cfg.omega)), cfg.resolution, cfg.seed)
    if key in _CROSS_CACHE:
        return _CROSS_CACHE[key]

    def first_pair(mesh, reduced=False):
        K, M = asm.assemble_cross_section(mesh, field, reduced=reduced)
        return K, eig.smallest_eigenpairs(K, M, count=1, seed=cfg.seed)[0]

    if base is None:
        mesh, fine = [grid_mod.build_mesh("cross-section", omega=cfg.omega,
                                          resolution=r)
                      for r in (cfg.resolution, 2 * cfg.resolution)]
        K, W1 = first_pair(mesh)
        err = abs(W1.value - first_pair(fine)[1].value)
        base = CrossContext(mesh, W1.value, W1, None, 3.0 * err, K, None)
    K_red, w1 = first_pair(base.mesh, reduced=True)
    W = base.W1.vector
    ctx = replace(base, Lambda1=w1.value, solved={},
                  coupling=float(W @ (base.stiffness @ W - K_red @ W)))
    if asm._MEMO.get() is not None:
        _CROSS_CACHE[key] = ctx
    return ctx


@contextlib.contextmanager
def solve_memo():
    """Within the block, assembly and diagnostics share one store
    (``asm._MEMO``) of what they derive from a field and a mesh, each item
    made once under what it is built from: the samples of each (cross
    mesh, field, reduced), the factor mesh of each partition and the
    all-node slot-matrix set of each mesh, value-slot count and samples,
    which assembly restricts to each pencil's free nodes.  Each field's
    cross context, which keeps every pencil ``solve_cylinder`` solves
    under it, is built once (``_CROSS_CACHE``, emptied when the outermost
    block closes).  The store is the block's own: a nested block starts
    an empty one.  Outside any block every call solves and builds
    afresh."""
    token = asm._MEMO.set({})
    try:
        yield
    finally:
        asm._MEMO.reset(token)
        if asm._MEMO.get() is None:
            _CROSS_CACHE.clear()


def solve_cylinder(field, ell, cfg, kind="full-cylinder", count=1,
                   grading=1.0, dirichlet=False):
    """Mesh and smallest pairs of a cylinder pencil; returns
    ``(mesh, pairs)``.

    Every elongated axis gets ``cfg.axial_resolution`` cells per unit, but
    at least 4 cells for tiny ``ell``; the cross axes get
    ``cfg.resolution``.  ``dirichlet`` clamps the whole boundary, ends
    included (the comparison spectrum), and the returned mesh is that
    clamped mesh.

    The pencil lives on the field's ``cross_context``, whose ``Lambda1 -
    margin`` is the solve's floor: a pencil already in its ``solved`` is
    not assembled or solved again, and repeats share the stored pairs,
    which callers only read; a failed solve is never stored.  A new
    pencil gets the guess ``P - margin`` (see ``eig.smallest_eigenpairs``),
    where P is the largest stored lambda_1 of a pencil with both ends
    free (full-cylinder or multi-direction) at an ell no longer than its
    own; outside ``solve_memo`` the context is fresh and holds none, so no
    guess is made.  P has a proven comparison pencil below the solved
    lambda_1 for
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
        grading=grading)
    if dirichlet:
        mesh = grid_mod.with_full_dirichlet(mesh)
    ctx = cross_context(field, cfg)
    # fields compare by identity, and the key keeps its field alive
    key = (mesh.key, field, count)
    if key not in ctx.solved:
        below = [pairs[0].value for pairs, at in ctx.solved.values()
                 if at is not None and at <= mesh.ell]
        # no cylinder eigenvalue lies below the Schur floor Lambda1
        pairs = eig.smallest_eigenpairs(
            *asm.assemble_cylinder(mesh, field), count=count, seed=cfg.seed,
            floor=ctx.Lambda1 - ctx.margin,
            guess=max(below) - ctx.margin if below else None)
        clamped = any(any(ends) for ends in mesh.clamped[:mesh.n_axial])
        ctx.solved[key] = (pairs, None if clamped else mesh.ell)
    return mesh, ctx.solved[key][0]


# the first eigenvalue of a half-cylinder is the tilde-lambda of its side
_FIRST_VALUE_COLUMN = {"half-plus": "lambda_half_plus",
                       "half-minus": "lambda_half_minus"}


def _row(experiment, field, cfg, ell, judge, ctx=None, margin=None,
         diagnostics=False, **solve):
    """One record.

    With a length ``ell`` the row solves ``solve_cylinder(field, ell, cfg,
    **solve)`` and records the resolution, the first eigenvalue, the
    largest residual and, when ``diagnostics`` is set and the mesh is a
    full cylinder, the concentration split of the first pair (which
    self-checks its identities) and, exactly when the cross stiffness of
    ``ctx`` is ``point_symmetric`` (property (S)), its symmetry defect;
    ``judge(rec, mesh, pairs)`` then fills in the rest and judges it
    through ``rec.require``.  A row without a length only calls
    ``judge(rec, None, None)``.  ``ctx`` supplies ``mu1_disc``.
    The row starts passed with an empty note; a CylgapError fails this
    row alone, with the exception in its note.
    """
    rec = SweepRecord(experiment=experiment, field_kind=field.kind,
                      delta=_delta_of(field), n=field.n, p=field.p, ell=ell,
                      # graded decay and end-profile rows read 1 as well
                      grading=1.0,
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
                if ctx.stiffness.point_symmetric:
                    rec.symmetry_defect = an.symmetry_defect(
                        pairs[0].vector, mesh)
            judge(rec, mesh, pairs)
    except CylgapError as exc:
        rec.fail(f"{type(exc).__name__}: {exc}")
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
        rec.require("lambda1 >= Lambda1", lam, ">=", ctx.Lambda1, -ctx.margin)
        rec.require("lambda1 <= mu1", lam, "<=", ctx.mu1, -ctx.margin)
        if is_model and delta and delta > 0.0:
            rec.require("strict lambda1 > (1 - delta^2) mu1", lam, ">",
                        (1 - delta**2) * ctx.mu1, STRICT_MARGIN)
            rec.require("strict lambda1 < mu1", lam, "<", ctx.mu1,
                        STRICT_MARGIN)
        if is_model and delta == 0.0:
            rec.require("|lambda1 - mu1|", abs(lam - ctx.mu1), "<=", 1e-9)
        rec.gap = ctx.mu1 - lam

    return [_row("bounds", field, cfg, ell, judge, ctx=ctx,
                 margin=ctx.margin, diagnostics=True) for ell in ell_list]


def _richardson(lams):
    """Extrapolate lambda(ell) to ell -> 0 from a halving schedule."""
    if len(lams) < 3:
        raise NotConverged("Richardson extrapolation needs 3 solved "
                           f"lengths, got {len(lams)}: {lams}")
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
        rec.require("|extrapolated - Lambda1|", abs(extrap - ctx.Lambda1),
                    "<", tol_limit)

    records.append(_row("limit-zero", field, zcfg, None, summarize, ctx=ctx,
                        margin=tol_limit))
    return records


def _half_truncations(field, side, lengths, cfg):
    """Records of the half-cylinder truncations of one side (``"+"`` or
    ``"-"``), nonincreasing in L down to the semi-infinite value nu, which
    every record carries in its ``nu_plus`` or ``nu_minus`` column.

    nu is the last truncation, an upper bound; with no coupling it is
    identified with mu1.  The last record notes the bracket of the last
    step and whether the sequence settled within ``CONV_TOL``.
    Fewer than two solved lengths raise NotConverged.
    """
    ctx = cross_context(field, cfg)
    seq = []

    def judge(rec, mesh, pairs):
        val = pairs[0].value
        if seq:
            rec.require("nonincreasing", val, "<=", seq[-1], -SOLVE_SLACK)
        seq.append(val)

    records = [_row(f"nu-half{side}", field, cfg, L, judge, ctx=ctx,
                    kind="half-plus" if side == "+" else "half-minus")
               for L in sorted(lengths)]
    if len(seq) < 2:
        raise NotConverged("half-cylinder estimate needs 2 solved "
                           f"lengths, got {len(seq)}: {seq}")
    last = records[-1]
    converged = abs(seq[-2] - seq[-1]) < CONV_TOL
    nu = seq[-1]
    if not ctx.coupled:
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
    _, pm = solve_cylinder(field, L, cfg, kind="half-minus")
    _, pp = solve_cylinder(field.reflected(), L, cfg, kind="half-plus")
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
        rec.require("reflection gap", rec.gap, "<=", REFLECTION_TOL)
    except CylgapError as exc:
        rec.fail(f"{type(exc).__name__}: {exc}")
    return records + [rec]


def exp_limit_infinity(field, L_list, cfg):
    """lambda converges to min(nu+, nu-), ending within ``TOL_INF``;
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
        if diffs:
            rec.require("decreasing", diff, "<=", diffs[-1], -SOLVE_SLACK)
        # sandwich lambda_{L/2} <= tilde-lambda_L^+ on nested meshes
        _, half_pairs = solve_cylinder(field, L, cfg, kind="half-plus")
        _, cyl_half = solve_cylinder(field, L / 2.0, cfg)
        rec.lambda_half_plus = half_pairs[0].value
        rec.require("lambda1(L/2) <= half-plus", cyl_half[0].value, "<=",
                    half_pairs[0].value, -SOLVE_SLACK)
        diffs.append(diff)
        if L == Lmax:
            rec.margin = TOL_INF
            rec.require("|lambda1 - min nu|", diff, "<", TOL_INF)

    return [_row("limit-infinity", field, cfg, L, judge, ctx=ctx,
                 diagnostics=True) for L in Ls]


def exp_gap(field, L_list, cfg):
    """Gap phenomenon: mu1 - lambda stays above three mesh errors."""
    ctx = cross_context(field, cfg)
    if not ctx.coupled:
        raise ConditionConFails(
            f"A12.grad(W1) vanishes (Schur energy drop {ctx.coupling:.1e}); "
            "the gap experiment needs coupling")

    def judge(rec, mesh, pairs):
        rec.gap = ctx.mu1 - rec.lambda1
        rec.require("mu1 - lambda1", rec.gap, ">", 0.0, ctx.margin)

    return [_row("gap", field, cfg, L, judge, ctx=ctx, margin=ctx.margin,
                 diagnostics=True) for L in sorted(L_list)]


def exp_second_eigenvalue(field, L_list, cfg):
    """Second eigenvalue closes onto the first under property (S), squeezed
    by the matched half-cylinder value.  A row whose own lambda2 - lambda1
    is below ``DEGENERACY_RTOL`` lambda1 notes a near-degenerate pair and
    skips its checks."""
    ctx = cross_context(field, cfg)
    if not ctx.stiffness.point_symmetric:
        raise NoReflectionSymmetry("property (S) requires an even field")
    gaps = []

    def judge(rec, mesh, pairs):
        lam1, lam2 = pairs[0].value, pairs[1].value
        rec.lambda2 = lam2
        _, half_pairs = solve_cylinder(field, rec.ell, cfg, kind="half-plus")
        rec.lambda_half_plus = half_pairs[0].value
        gap = lam2 - lam1
        rec.gap = gap
        if gap < DEGENERACY_RTOL * lam1:
            rec.add_note("near-degenerate pair")
        else:
            rec.require("lambda1 < lambda2", lam1, "<", lam2)
            rec.require("lambda2 <= half-plus", lam2, "<=",
                        half_pairs[0].value, -SOLVE_SLACK)
            if gaps:
                rec.require("shrink", gap, "<=", gaps[-1] / SECOND_GAP_SHRINK)
        gaps.append(gap)

    return [_row("second", field, cfg, L, judge, ctx=ctx, count=2,
                 diagnostics=True) for L in sorted(L_list)]


def exp_dirichlet_comparison(field, L_list, cfg):
    """All-Dirichlet spectrum: sigma approaches mu1 from above at rate C/L^2
    with a stable fitted constant."""
    ctx = cross_context(field, cfg)
    Ls = sorted(L_list)
    cs = []

    def judge(rec, mesh, pairs):
        L = rec.ell
        _, dpairs = solve_cylinder(field, L, cfg, dirichlet=True)
        sig = dpairs[0]
        rec.sigma1 = sig.value
        rec.residual = max(rec.residual, sig.residual)
        rec.fitted_c = (sig.value - ctx.mu1) * L * L
        rec.require("sigma1 >= mu1", sig.value, ">=", ctx.mu1, -ctx.margin)
        rec.require("lambda1 <= sigma1", rec.lambda1, "<=", sig.value,
                    -SOLVE_SLACK)
        cs.append(rec.fitted_c)
        if L == Ls[-1]:
            spread = (max(cs) - min(cs)) / max(cs) if max(cs) > 0 else math.inf
            rec.require("fitted C spread", spread, "<=", DIRICHLET_SPREAD)

    return [_row("dirichlet", field, cfg, L, judge, ctx=ctx,
                 margin=ctx.margin) for L in Ls]


def exp_multi_direction(field3d, L_list, cfg):
    """Two elongated directions on the experiment's own coarse mesh, 3
    cells per unit along the long axes and 12 across, whatever the
    resolutions of ``cfg``: the gap appears exactly when some row of A12
    couples to the cross gradient, and the row-restricted 2D pencil
    upper-bounds the 3D value.

    The bound row is the one whose reduced cross stiffness drops W1's
    energy most: a row restriction keeps A22, so its context borrows the
    field's own (``cross_context``'s ``base``) and solves only its
    reduced pencil, and the bound's cylinders are solved under it.  A
    field that leaves the other axial row uncoupled, as
    ``multi_model_field`` leaves x2, gives a pencil that separates along
    that axis (``eig``); its ends are free, so the reduced pencil is the
    bound row's own, and the 3D lambda1 equals the row-restricted bound to
    rounding."""
    if field3d.p != 2 or field3d.n != 3:
        raise DimensionMismatch("multi-direction experiment needs n=3, p=2")
    # a field that couples both axial rows does not separate, and at the
    # 2D resolutions its L = 4 pencil (n = 130 975, b = 2 047) folds into
    # an even-sector band of 1.0 GiB, just under eig's MEMORY_BUDGET; the
    # L = 5 one exceeds it
    cfg3 = replace(cfg, axial_resolution=3.0, resolution=12.0)
    ctx = cross_context(field3d, cfg3)
    if ctx.coupled:
        bfield = max((coeff_mod.row_restriction_field(field3d, i)
                      for i in range(field3d.p)),
                     key=lambda row: cross_context(row, cfg3, ctx).coupling)

    def judge(rec, mesh, pairs):
        lam = rec.lambda1
        rec.gap = ctx.mu1 - lam
        if ctx.coupled:
            rec.require("mu1 - lambda1", rec.gap, ">", 0.0, ctx.margin)
            # row-restriction upper bound at a matched (x_i, X2) mesh
            _, bpairs = solve_cylinder(bfield, rec.ell, cfg3)
            rec.target = bpairs[0].value
            rec.require("lambda1 <= row bound", lam, "<=", rec.target,
                        -SOLVE_SLACK)
        else:
            rec.require("|lambda1 - mu1|", abs(lam - ctx.mu1), "<=", PIN_TOL)

    return [_row("multi-direction", field3d, cfg3, L, judge, ctx=ctx,
                 margin=ctx.margin, kind="multi-direction")
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
        prof = an.decay_profile(pairs[0].vector, mesh)
        profiles.append((rec.ell, prof))
        rec.alpha_fit = prof.alpha_fit
        rec.r2 = prof.r2
        if ctx.coupled:
            rec.require("alpha_fit", prof.alpha_fit, "<=", an.NO_DECAY_ALPHA)
            rec.require("r2", prof.r2, ">", 0.99)
            rec.require("|grad_alpha - alpha_fit|",
                        abs(prof.grad_alpha - prof.alpha_fit), "<=",
                        0.2 * prof.alpha_fit)
        else:
            rec.require("alpha_fit", prof.alpha_fit, ">", an.NO_DECAY_ALPHA)
            rec.add_note("no-decay")

    records = [_row("decay", field, cfg, ell, judge, ctx=ctx,
                    grading=2.0 if ell >= 4 else 1.0, diagnostics=True)
               for ell in ell_list]
    return records, profiles


def exp_end_profile(field, ell_list, cfg):
    """H1 distance between shifted cylinder eigenfunctions and the
    half-plus minimizer of length ``max(ell_list)`` on the end collar of
    length ``END_COLLAR`` at x1 = -ell, decreasing in ell (see
    ``analysis.end_profile_distance``).

    End collars are graded (2x when every ell >= 4): that is where the
    profiles live, and identical grading on both meshes keeps the collar
    partitions aligned node-for-node.
    """
    grading = 2.0 if min(ell_list) >= 4 else 1.0
    hmesh, hpairs = solve_cylinder(field, max(ell_list), cfg,
                                      kind="half-plus", grading=grading)
    dists = []

    def judge(rec, mesh, pairs):
        d = an.end_profile_distance(pairs[0].vector, mesh, hpairs[0].vector,
                                    hmesh, END_COLLAR)
        rec.end_distance = d
        rec.lambda_half_plus = hpairs[0].value
        if dists:
            rec.require("decreasing", d, "<=", dists[-1])
        dists.append(d)

    return [_row("end-profile", field, cfg, ell, judge, grading=grading)
            for ell in sorted(ell_list)]
