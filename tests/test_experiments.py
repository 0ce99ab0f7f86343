import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cylgap import assemble, cli, coeff, eig, grid
from cylgap import experiments as ex
from cylgap.errors import (MEMORY_BUDGET, ConditionConFails,
                           DimensionMismatch, NoConvergence,
                           NoReflectionSymmetry, NotConverged)

from conftest import BOTH_ROWS, MU1, holds


@pytest.fixture(scope="module")
def cfg():
    return ex.ExperimentConfig(resolution=16, axial_resolution=8)


@pytest.fixture(scope="module")
def model(cfg):
    return coeff.model_field(0.6)


def cylinder_key(cfg, ell):
    """Key of the full-cylinder mesh that ``solve_cylinder`` builds at
    length ``ell``, ungraded and with the default count."""
    return grid.build_mesh("full-cylinder", ell=ell, omega=cfg.omega,
                           resolution=(cfg.axial_resolution, cfg.resolution)
                           ).key


@pytest.fixture()
def solves(monkeypatch):
    """Every eigen-solve from here on, as (mesh key, field signature,
    reduced, count)."""
    calls = []
    solve = eig.smallest_eigenpairs

    def counted(K, M, **kwargs):
        prov = K.provenance
        calls.append((prov["mesh"], prov["field"], prov["reduced"],
                      kwargs.get("count", 1)))
        return solve(K, M, **kwargs)

    monkeypatch.setattr(eig, "smallest_eigenpairs", counted)
    return calls


class TestBoundsSweep:
    def test_model_passes_with_strict_margins(self, model, cfg):
        recs = ex.exp_bounds_sweep(model, [0.1, 1.0, 8.0], cfg)
        assert all(r.passed for r in recs)
        for r in recs:
            assert r.Lambda1_disc < r.lambda1 < r.mu1_disc
            assert r.lambda1 > (1 - 0.36) * r.mu1_disc + 1e-3
            assert r.lambda1 < r.mu1_disc - 1e-3

    def test_delta_zero_pins_to_mu(self, cfg):
        field = coeff.model_field(0.0)
        recs = ex.exp_bounds_sweep(field, [0.5, 2.0], cfg)
        for r in recs:
            assert r.passed
            assert abs(r.lambda1 - r.mu1_disc) <= 1e-9

    def test_uncoupled_3d_field(self):
        # n=3, p=1 diagonal field on a box cross-section: no coupling
        field = coeff.diagonal_field([1.0, 1.0, 1.0], p=1)
        cfg3 = ex.ExperimentConfig(resolution=8, axial_resolution=4,
                                   omega=((-1, 1), (-1, 1)))
        recs = ex.exp_bounds_sweep(field, [1.0], cfg3)
        r = recs[0]
        assert r.passed
        assert abs(r.lambda1 - r.mu1_disc) <= 1e-8
        assert r.mu1_disc == pytest.approx(2 * MU1, rel=5e-3)

    def test_solver_error_aborts_record_not_sweep(self, model, cfg):
        # the grid refuses the second length's mesh before making a node
        ok, bad = ex.exp_bounds_sweep(model, [1.0, 1e12], cfg)
        assert ok.passed and ok.note == ""
        assert not bad.passed
        assert bad.note.startswith("MemoryBudget: an axis of length ")


class TestLimitZero:
    def test_model_extrapolates_to_reduced_value(self, model, cfg):
        recs = ex.exp_limit_zero(model, [0.4, 0.2, 0.1, 0.05], cfg)
        summary = recs[-1]
        assert summary.passed
        assert abs(summary.extrapolated - summary.Lambda1_disc) < 1e-2
        # Lambda1_disc is exactly (1 - delta^2) mu1_disc for the model
        assert summary.Lambda1_disc == pytest.approx(
            0.64 * summary.mu1_disc, rel=1e-11)

    def test_delta_zero_constant_sequence(self, cfg):
        field = coeff.model_field(0.0)
        recs = ex.exp_limit_zero(field, [0.4, 0.2, 0.1], cfg)
        lams = [r.lambda1 for r in recs if r.lambda1 is not None]
        assert max(lams) - min(lams) <= 1e-9

    def test_variable_coefficient_field(self, cfg):
        field = coeff.variable_a22_field(0.6)
        recs = ex.exp_limit_zero(field, [0.4, 0.2, 0.1, 0.05], cfg)
        summary = recs[-1]
        assert summary.passed
        assert abs(summary.extrapolated - summary.Lambda1_disc) < 2e-2


def plus_side(records):
    return [r for r in records if r.experiment == "nu-half+"]


class TestNuHalf:
    def test_model_monotone_and_below_mu(self, model, cfg):
        plus = plus_side(ex.exp_nu_half(model, [4, 8, 16], cfg))
        seq = [r.lambda_half_plus for r in plus]
        assert all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))
        assert "not converged" not in plus[-1].note
        mu = ex.cross_context(model, cfg).mu1
        nu = plus[-1].nu_plus
        assert nu < mu - 1e-2
        lower, upper = map(float, re.search(r"bracket=\[(.*),(.*)\]",
                                            plus[-1].note).groups())
        # the note prints the bracket to 9 digits
        assert lower <= nu <= upper * (1 + 1e-8)

    def test_diagonal_identified_with_mu(self, cfg):
        field = coeff.diagonal_field([1.0, 1.0])
        plus = plus_side(ex.exp_nu_half(field, [4, 8, 16], cfg))
        mu = ex.cross_context(field, cfg).mu1
        assert plus[-1].nu_plus == mu
        assert all(r.lambda_half_plus >= mu - 1e-9 for r in plus)

    def test_reflection_identity(self, model, cfg):
        lm, lp = ex.reflection_check(model, 4, cfg)
        assert abs(lm - lp) <= 1e-8

    def test_reflection_row(self, model, cfg):
        rec = ex.exp_nu_half(model, [4, 8], cfg)[-1]
        assert (rec.experiment, rec.ell, rec.passed) == ("nu-half", 4, True)
        assert (rec.lambda_half_minus, rec.lambda_half_plus) == \
            ex.reflection_check(model, 4, cfg)
        assert rec.gap <= ex.REFLECTION_TOL
        assert rec.delta is None and rec.resolution == "" and \
            rec.grading is None

    def test_reflected_field_reuses_the_cross_context(self, model, cfg):
        # A22 and the Schur complement do not change under x1 -> -x1
        with ex.solve_memo():
            ex.cross_context(model, cfg)
            built = len(ex._CROSS_CACHE)
            ex.reflection_check(model, 4, cfg)
            assert len(ex._CROSS_CACHE) == built
        assert model.reflected().reflected().unreflected is model

    def test_not_converged_raises_with_sequence(self, cfg, monkeypatch):
        field = coeff.asymmetric_model_field(0.5)
        # an unsettled sequence is still reported, as an upper bound
        monkeypatch.setattr(ex, "CONV_TOL", 1e-6)
        plus = plus_side(ex.exp_nu_half(field, [2, 4], cfg))
        assert "truncation sequence not converged" in plus[-1].note
        assert len(plus) == 2
        assert plus[-1].nu_plus == plus[-1].lambda_half_plus
        # a single length gives no estimate at all
        with pytest.raises(NotConverged) as err:
            ex.exp_nu_half(field, [4], cfg)
        _, pairs = ex.solve_cylinder(field, 4, cfg, kind="half-plus",
                                     grading=1.0)
        assert str(err.value).endswith(f"got 1: [{pairs[0].value!r}]")


class TestLimitInfinity:
    def test_model(self, model, cfg):
        recs = ex.exp_limit_infinity(model, [8, 12, 16], cfg)
        assert all(r.passed for r in recs)
        diffs = [r.gap for r in recs]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[-1] < 5e-3

    def test_diagonal_equalities(self, cfg):
        field = coeff.diagonal_field([1.0, 1.0])
        recs = ex.exp_limit_infinity(field, [4, 8], cfg)
        for r in recs:
            assert abs(r.lambda1 - r.mu1_disc) <= 1e-8
            assert abs(min(r.nu_plus, r.nu_minus) - r.mu1_disc) <= 1e-8

    def test_asymmetric_tracks_min(self, cfg):
        field = coeff.asymmetric_model_field(0.5)
        recs = ex.exp_limit_infinity(field, [8, 12], cfg)
        r = recs[-1]
        assert r.passed
        nu_min, nu_max = sorted([r.nu_plus, r.nu_minus])
        assert abs(r.lambda1 - nu_min) < 1e-3
        assert abs(r.lambda1 - nu_max) > 5e-2
        # one-sided concentration on the side of the smaller limit
        d_small = r.d_minus if r.nu_minus < r.nu_plus else r.d_plus
        assert d_small < 1e-3


class TestGap:
    def test_model_deltas(self, cfg):
        for delta in (0.3, 0.6):
            recs = ex.exp_gap(coeff.model_field(delta), [8, 16], cfg)
            assert all(r.passed for r in recs)
            gaps = [r.gap for r in recs]
            assert min(gaps) > recs[0].margin

    def test_delta_zero_refuses(self, cfg):
        with pytest.raises(ConditionConFails):
            ex.exp_gap(coeff.model_field(0.0), [8], cfg)

    def test_failed_solve_fails_only_its_row(self, model, cfg, monkeypatch):
        solve = eig.smallest_eigenpairs
        target = cylinder_key(cfg, 12)

        def fails_at_12(K, M, **kwargs):
            if K.provenance["mesh"] == target:
                raise NoConvergence("forced")
            return solve(K, M, **kwargs)

        monkeypatch.setattr(eig, "smallest_eigenpairs", fails_at_12)
        recs = ex.exp_gap(model, [8, 12, 16], cfg)
        assert [r.ell for r in recs] == [8, 12, 16]
        assert recs[0].passed and recs[2].passed
        assert recs[2].gap > recs[2].margin
        assert not recs[1].passed
        assert recs[1].experiment == "gap"
        assert "NoConvergence" in recs[1].note


class TestSecondEigenvalue:
    def test_model_gap_closes(self, model, cfg):
        recs = ex.exp_second_eigenvalue(model, [8, 12, 16], cfg)
        assert all(r.passed for r in recs)
        gaps = [r.gap for r in recs]
        assert gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2
        for r in recs:
            assert r.lambda1 < r.lambda2 <= r.lambda_half_plus + 1e-8

    def test_near_degenerate_row_skips_its_checks(self, model):
        # the row judges its own lambda2 - lambda1: 4.9e-9 at ell = 28,
        # below DEGENERACY_RTOL lambda1, but not the gaps before it
        cfg = ex.ExperimentConfig(resolution=8, axial_resolution=4)
        recs = ex.exp_second_eigenvalue(model, [16, 24, 28], cfg)
        assert all(r.passed for r in recs)
        assert [r.note for r in recs] == ["", "", "near-degenerate pair"]
        for r in recs:
            assert (r.gap < ex.DEGENERACY_RTOL * r.lambda1) == (r.ell == 28)

    def test_asymmetric_field_rejected(self, cfg):
        with pytest.raises(NoReflectionSymmetry):
            ex.exp_second_eigenvalue(coeff.asymmetric_model_field(0.5),
                                     [8], cfg)

    def test_delta_zero_neumann_mode_spacing(self, cfg):
        # separable check: lambda2 - lambda1 = (pi / 2L)^2 for delta = 0
        field = coeff.model_field(0.0)
        recs = ex.exp_second_eigenvalue(field, [4], cfg)
        r = recs[0]
        assert r.gap == pytest.approx((np.pi / 8) ** 2, rel=0.05)


class TestDirichletComparison:
    def test_identity_constant(self, cfg):
        recs = ex.exp_dirichlet_comparison(coeff.identity_field(),
                                           [4, 8, 16], cfg)
        assert all(r.passed for r in recs)
        for r in recs:
            assert r.fitted_c == pytest.approx(MU1, rel=0.05)

    def test_model_consistent_constant(self, model, cfg):
        recs = ex.exp_dirichlet_comparison(model, [4, 8, 16], cfg)
        assert all(r.passed for r in recs)
        cs = [r.fitted_c for r in recs]
        assert (max(cs) - min(cs)) / max(cs) <= 0.30
        for r in recs:
            assert r.sigma1 >= r.mu1_disc - r.margin
            assert r.lambda1 <= r.sigma1 + 1e-8

    def test_spread_note_states_the_spread_it_checks(self, model,
                                                     monkeypatch):
        monkeypatch.setattr(ex, "DIRICHLET_SPREAD", 0.01)
        cfg = ex.ExperimentConfig(resolution=8, axial_resolution=4)
        recs = ex.exp_dirichlet_comparison(model, [2, 4], cfg)
        assert not recs[-1].passed
        spread, bound = map(float, re.fullmatch(
            r"fitted C spread: (\S+) <= (\S+) \+ 0\.0 failed",
            recs[-1].note).groups())
        cs = [r.fitted_c for r in recs]
        assert spread == (max(cs) - min(cs)) / max(cs)
        assert bound == 0.01

    def test_dirichlet_solve_returns_the_clamped_mesh(self, model):
        cfg = ex.ExperimentConfig(resolution=8, axial_resolution=4)
        with ex.solve_memo():
            mixed, mpairs = ex.solve_cylinder(model, 4, cfg, grading=1.0)
            mesh, pairs = ex.solve_cylinder(model, 4, cfg, grading=1.0,
                                            dirichlet=True)
        assert all(ends == (True, True) for ends in mesh.clamped)
        assert mesh.n_free == pairs[0].vector.size < mixed.n_free
        full = mesh.scatter_free(pairs[0].vector)
        assert np.all(full[mesh.dirichlet_mask] == 0.0)
        assert pairs[0].value > mpairs[0].value


class TestMultiDirection:
    def test_coupled_field_gap_and_row_bound(self):
        field = coeff.multi_model_field(0.6)
        recs = ex.exp_multi_direction(field, [2, 4], ex.ExperimentConfig())
        assert all(r.passed for r in recs)
        for r in recs:
            assert r.gap > r.margin
            assert r.lambda1 <= r.target + 1e-8  # 2D row-restriction bound

    def test_uncoupled_field_equality(self):
        field = coeff.diagonal_field([1.0, 1.0, 1.0], p=2)
        recs = ex.exp_multi_direction(field, [2], ex.ExperimentConfig())
        r = recs[0]
        assert r.passed
        assert abs(r.lambda1 - r.mu1_disc) <= 1e-8

    def test_wrong_field_rejected(self, model):
        with pytest.raises(DimensionMismatch):
            ex.exp_multi_direction(model, [2], ex.ExperimentConfig())

    def test_pencil_at_the_2d_resolutions_fails_its_row_unallocated(self):
        # BOTH_ROWS leaves no axial row uncoupled, so its pencil does not
        # separate: at 16/8 the L = 5 pencil folds into an even sector
        # whose band would take 1.9 GiB; the row fails before it is
        # allocated.  (At L = 4 the even band, 1 072 955 392 bytes, fits
        # the budget by 786 432 bytes.)  Its factors have 81, 81 and 31
        # free nodes, so n = 203 391, and the budget is checked from their
        # offsets before any band row (n values each) is built: the peak,
        # 3.5 MiB when measured, is the mesh's free-node index (8 n bytes)
        # and the factors, where the rows of K and M took 67 MiB
        tracemalloc.start()
        try:
            rec = ex._row("multi-direction", BOTH_ROWS,
                          ex.ExperimentConfig(), 5.0, lambda *_: None,
                          kind="multi-direction")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rec.passed
        assert rec.note == ("MemoryBudget: the band of n = 101696, b = 2543 "
                            f"takes {8 * 101696 * 2544} bytes > "
                            f"{MEMORY_BUDGET}")
        n = 81 * 81 * 31
        assert peak < 3 * 8 * n

    def test_separated_pencil_at_the_2d_resolutions_passes(self):
        """The multi-model field leaves x2 uncoupled, and its ends are
        free, so the L = 7 pencil at 16/8 (113 x 113 x 31 free nodes,
        whose even band would take 1.4 GiB) solves as its reduced 2D
        pencil, that of the row restriction to x1, and its lambda1 equals
        that row's to rounding."""
        field, cfg = coeff.multi_model_field(0.6), ex.ExperimentConfig()
        rec = ex._row("multi-direction", field, cfg, 7.0, lambda *_: None,
                      kind="multi-direction")
        assert rec.passed, rec.note
        _, pairs = ex.solve_cylinder(coeff.row_restriction_field(field, 0),
                                     7.0, cfg)
        assert rec.lambda1 == pytest.approx(pairs[0].value, rel=1e-12)


class TestDecayAndProfiles:
    def test_decay_records(self, model, cfg):
        recs, [(ell, prof)] = ex.exp_decay(model, [12], cfg)
        assert ell == 12
        assert recs[0].passed
        assert recs[0].alpha_fit < 0.8
        assert recs[0].r2 > 0.99

    def test_end_profile_records(self, model, cfg):
        recs = ex.exp_end_profile(model, [6, 10, 14], cfg)
        assert all(r.passed for r in recs)
        dists = [r.end_distance for r in recs]
        assert dists[2] < dists[1] < dists[0]
        # the minus half of the cylinder pair, rescaled to unit mass,
        # tends to the half-plus minimizer: 0.0488, 0.0083, 0.0015 when
        # measured, where the unscaled profile levels off near 0.53
        assert dists[2] < dists[0] / 10


# a failed require's note, ``label: q op t + s failed`` (or ``- s``)
CLAIM = re.compile(r"(.+): (\S+) ([<>]=?) (\S+) ([+-]) (\S+) failed")


def noted_claims(rec):
    """(label, q, op, t, margin) of each failed require of ``rec``, read
    back from its note: s is the margin against the claim, so + s is
    margin s for ``>`` and ``>=`` and margin -s for ``<`` and ``<=``."""
    claims = []
    for part in rec.note.split("; "):
        if match := CLAIM.fullmatch(part):
            label, q, op, t, sign, s = match.groups()
            shift = float(s) if sign == "+" else -float(s)
            claims.append((label, float(q), op, float(t),
                           shift if op[0] == ">" else -shift))
    return claims


SMALL = ex.ExperimentConfig(resolution=8, axial_resolution=4)
MODEL = coeff.model_field(0.6)


def bounds_strict_margin(mp):
    mp.setattr(ex, "STRICT_MARGIN", 1.0)
    return ex.exp_bounds_sweep(MODEL, [1.0], SMALL)


def limit_zero_tolerance(mp):
    mp.setattr(ex, "TOL_LIMIT_MODEL", 0.0)
    return ex.exp_limit_zero(MODEL, [0.4, 0.2, 0.1], SMALL)


def nu_half_slack(mp):
    mp.setattr(ex, "SOLVE_SLACK", -1.0)
    return ex.exp_nu_half(MODEL, [2, 4], SMALL)


def limit_infinity_tolerance(mp):
    mp.setattr(ex, "TOL_INF", 0.0)
    return ex.exp_limit_infinity(MODEL, [4, 8], SMALL)


def gap_margin(mp):
    # the mesh-error margin is derived per run: plant one above the gap
    build = ex.cross_context
    mp.setattr(ex, "cross_context",
               lambda *args: replace(build(*args), margin=1.0))
    return ex.exp_gap(MODEL, [4, 8], SMALL)


def second_shrink(mp):
    mp.setattr(ex, "SECOND_GAP_SHRINK", 1e6)
    return ex.exp_second_eigenvalue(MODEL, [4, 6], SMALL)


def dirichlet_slack(mp):
    mp.setattr(ex, "SOLVE_SLACK", -1.0)
    return ex.exp_dirichlet_comparison(MODEL, [2, 4], SMALL)


def multi_direction_slack(mp):
    mp.setattr(ex, "SOLVE_SLACK", -1.0)
    return ex.exp_multi_direction(coeff.multi_model_field(0.6), [2],
                                  ex.ExperimentConfig())


def decay_base(mp):
    mp.setattr(ex.an, "NO_DECAY_ALPHA", 0.0)
    return ex.exp_decay(MODEL, [8], SMALL)[0]


def end_profile_distance(mp):
    # no constant: the threshold is the last distance, so grow each one
    measure, calls = ex.an.end_profile_distance, []

    def growing(*args):
        calls.append(1)
        return measure(*args) * 100.0 ** len(calls)

    mp.setattr(ex.an, "end_profile_distance", growing)
    return ex.exp_end_profile(MODEL, [6, 10], SMALL)


PLANTS = [(bounds_strict_margin, "strict lambda1 < mu1"),
          (limit_zero_tolerance, "|extrapolated - Lambda1|"),
          (nu_half_slack, "nonincreasing"),
          (limit_infinity_tolerance, "|lambda1 - min nu|"),
          (gap_margin, "mu1 - lambda1"),
          (second_shrink, "shrink"),
          (dirichlet_slack, "lambda1 <= sigma1"),
          (multi_direction_slack, "lambda1 <= row bound"),
          (decay_base, "alpha_fit"),
          (end_profile_distance, "decreasing")]


@pytest.mark.parametrize("plant, label", PLANTS,
                         ids=[plant.__name__ for plant, _ in PLANTS])
def test_planted_failure_reads_back_from_the_note(plant, label,
                                                  monkeypatch):
    """One verdict constant or threshold moved past the committed values
    fails rows of its experiment, and each failed row's note gives back
    exactly the requires of ``rec.checks`` that fail."""
    failed = [rec for rec in plant(monkeypatch) if not rec.passed]
    assert failed
    for rec in failed:
        claims = noted_claims(rec)
        assert claims == [c for c in rec.checks if not holds(*c[1:])]
        assert label in [c[0] for c in claims]


def test_require_margin_moves_against_the_claim():
    """A positive margin must be cleared and a negative one is granted,
    on either side, and a held claim leaves the note alone."""
    rec = ex.SweepRecord()
    rec.require("a", 1.0, ">", 0.5, 0.25)
    rec.require("b", 1.0, "<=", 1.5, -0.5)
    assert rec.passed and rec.note == ""
    rec.require("c", 1.0, ">=", 0.5, 0.75)
    rec.require("d", 1.0, "<", 1.5, 0.5)
    rec.require("e", 2.0, "<=", 1.5, -0.25)
    assert not rec.passed
    assert rec.note == ("c: 1.0 >= 0.5 + 0.75 failed; d: 1.0 < 1.5 - 0.5 "
                        "failed; e: 2.0 <= 1.5 + 0.25 failed")
    assert noted_claims(rec) == rec.checks[2:]
    assert "checks" not in ex.CSV_COLUMNS


class TestUniversalSandwich:
    def test_all_eigenvalue_records_respect_bounds(self, model, cfg):
        # every populated lambda1 slot sits inside
        # [Lambda1_disc - margin, mu1_disc + margin]
        ctx = ex.cross_context(model, cfg)
        records = []
        records += ex.exp_gap(model, [8], cfg)
        records += ex.exp_limit_infinity(model, [8], cfg)
        records += ex.exp_limit_zero(model, [0.4, 0.2, 0.1], cfg)
        for r in records:
            if r.lambda1 is None:
                continue
            assert ctx.Lambda1 - ctx.margin <= r.lambda1 \
                <= ctx.mu1 + ctx.margin, r.experiment

    def test_asymmetric_omega_rejected_for_second(self, model):
        cfg = ex.ExperimentConfig(resolution=8, axial_resolution=4,
                                  omega=(0.0, 2.0))
        with pytest.raises(NoReflectionSymmetry):
            ex.exp_second_eigenvalue(model, [4], cfg)


class TestCrossContext:
    def test_cache_key_holds_resolution(self, model, cfg):
        with ex.solve_memo():
            ctx = ex.cross_context(model, cfg)
            assert ex.cross_context(model, replace(cfg)) is ctx
            coarse = ex.cross_context(model, replace(cfg, resolution=8))
            assert coarse is not ctx
            assert coarse.mesh.key != ctx.mesh.key
            assert ex.cross_context(model, replace(cfg, resolution=8)) \
                is coarse

    def test_only_a_block_holds_lambda1_for_guesses(self, model, cfg,
                                                    monkeypatch):
        # outside solve_memo every call builds a fresh context, so a
        # solve finds nothing held and makes no guess
        guesses = []
        solve = eig.smallest_eigenpairs

        def spied(K, M, **kwargs):
            if K.provenance["mesh"].startswith("full-cylinder"):
                guesses.append(kwargs["guess"])
            return solve(K, M, **kwargs)

        monkeypatch.setattr(eig, "smallest_eigenpairs", spied)
        for ell in (2, 4):
            ex.solve_cylinder(model, ell, cfg)
        assert ex.cross_context(model, cfg).solved == {}
        assert guesses == [None, None]
        guesses.clear()
        with ex.solve_memo():
            short_mesh, short = ex.solve_cylinder(model, 2, cfg)
            long_mesh, long = ex.solve_cylinder(model, 4, cfg)
            solved = ex.cross_context(model, cfg).solved
        assert list(solved) == [(short_mesh.key, model, 1),
                                (long_mesh.key, model, 1)]
        assert [ell for _, ell in solved.values()] == [2.0, 4.0]
        assert all(pairs is solved_pairs for pairs, (solved_pairs, _)
                   in zip([short, long], solved.values()))
        ctx = ex.cross_context(model, cfg)
        assert guesses == [None, short[0].value - ctx.margin]


    @pytest.mark.parametrize("i", [0, 1])
    def test_a_row_borrows_its_fields_context(self, i):
        # a row restriction keeps A22: its context on the field's equals
        # one built from scratch, and it stores its own pencils
        field = coeff.multi_model_field(0.6)
        cfg3 = ex.ExperimentConfig(resolution=12, axial_resolution=3)
        ctx = ex.cross_context(field, cfg3)
        row = coeff.row_restriction_field(field, i)
        borrowed = ex.cross_context(row, cfg3, ctx)
        fresh = ex.cross_context(row, cfg3)
        for name in ("mu1", "Lambda1", "margin", "coupling"):
            assert getattr(borrowed, name) == getattr(fresh, name), name
        assert np.array_equal(borrowed.W1.vector, fresh.W1.vector)
        assert borrowed.solved == {} and borrowed.solved is not ctx.solved


class TestRecordPlumbing:
    def test_wall_time_not_in_csv_schema(self):
        assert "wall_time_s" not in ex.CSV_COLUMNS
        assert "lambda1" in ex.CSV_COLUMNS

    def test_every_solve_reports_residual(self, model, cfg):
        recs = ex.exp_bounds_sweep(model, [1.0], cfg)
        assert recs[0].residual is not None
        assert recs[0].residual <= eig.DEFAULT_TOL

    def test_symmetry_defect_recorded_for_even_fields(self, model, cfg):
        recs = ex.exp_bounds_sweep(model, [1.0], cfg)
        assert recs[0].symmetry_defect is not None
        assert recs[0].symmetry_defect <= 1e-7


MEMO_CFG = """
[run]
experiments = bounds, gap, limit-infinity, second, dirichlet
output_dir = {out}

[field]
kind = model
delta = 0.6

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
ell_bounds = 4 8
l_infinity = 4 8
l_gap = 4 8
l_second = 4 8
l_dirichlet = 4 8
"""


class TestSolveMemo:
    @pytest.fixture()
    def run_cfg(self, tmp_path):
        path = tmp_path / "memo.cfg"
        path.write_text(MEMO_CFG.format(out=tmp_path / "out"))
        return str(path)

    def test_run_solves_each_distinct_pencil_once(self, run_cfg, solves,
                                                  monkeypatch):
        requests = []
        solve_cylinder = ex.solve_cylinder

        def counted(*args, **kwargs):
            requests.append(args)
            return solve_cylinder(*args, **kwargs)

        monkeypatch.setattr(ex, "solve_cylinder", counted)
        cli.run(run_cfg)
        assert len(solves) == len(set(solves))
        cylinder_solves = [s for s in solves
                           if not s[0].startswith("cross-section")]
        assert len(requests) > len(cylinder_solves)

    def test_consecutive_runs_solve_alike(self, run_cfg, solves,
                                          monkeypatch):
        # both runs get one field object, so only the scope of the memo
        # and of the cross contexts tells them apart
        field = coeff.model_field(0.6)
        monkeypatch.setattr(cli, "make_field", lambda rc: field)
        counts = []
        for _ in range(2):
            solves.clear()
            cli.run(run_cfg)
            counts.append(len(solves))
        assert counts[0] == counts[1] > 0
        assert ex._CROSS_CACHE == {}

    def test_failed_solve_is_not_stored(self, model, cfg, solves,
                                        monkeypatch):
        solve = eig.smallest_eigenpairs
        target = cylinder_key(cfg, 12)
        failed = []

        def fails_once_at_12(K, M, **kwargs):
            if K.provenance["mesh"] == target and not failed:
                failed.append(K.provenance["mesh"])
                raise NoConvergence("forced")
            return solve(K, M, **kwargs)

        monkeypatch.setattr(eig, "smallest_eigenpairs", fails_once_at_12)
        with ex.solve_memo():
            first = ex.exp_gap(model, [8, 12, 16], cfg)
            before = list(solves)
            again = ex.exp_gap(model, [8, 12, 16], cfg)
        assert [r.passed for r in first] == [True, False, True]
        assert "NoConvergence" in first[1].note
        assert all(r.passed for r in again)
        assert [s[0] for s in solves[len(before):]] == failed

    def test_diagnostics_on_a_hit_match_a_fresh_solve(self, model, cfg,
                                                      solves):
        diag = ("n_plus", "n_minus", "d_plus", "d_minus", "symmetry_defect")
        fresh = ex.exp_bounds_sweep(model, [4], cfg)[0]
        solves.clear()
        with ex.solve_memo():
            mesh, pairs = ex.solve_cylinder(model, 4, cfg)
            hit = ex.exp_bounds_sweep(model, [4], cfg)[0]
            again_mesh, again = ex.solve_cylinder(model, 4, cfg)
        # the pencil, and the three cross-section pencils of its context
        assert len(solves) == 4
        assert again is pairs and again_mesh.key == mesh.key
        assert all(getattr(hit, k) is not None for k in diag)
        assert [getattr(hit, k) for k in diag] == \
            [getattr(fresh, k) for k in diag]
        assert hit.lambda1 == fresh.lambda1 == pairs[0].value
        # no entry, and no cross context, outlives its block
        ex.solve_cylinder(model, 4, cfg)
        assert len(solves) == 8

    def test_count_two_shifts_below_the_held_lambda1(self, model, cfg,
                                                     monkeypatch):
        applications = []
        shift_invert = eig.BandCholesky.shift_invert

        def counted(chol, M, y):
            applications.append(1)
            return shift_invert(chol, M, y)

        monkeypatch.setattr(eig.BandCholesky, "shift_invert", counted)
        with ex.solve_memo():
            _, first = ex.solve_cylinder(model, 16, cfg, grading=1.0)
            applications.clear()
            _, pairs = ex.solve_cylinder(model, 16, cfg, count=2,
                                         grading=1.0)
        assert pairs[0].value == pytest.approx(first[0].value, rel=1e-12)
        assert 0 < len(applications) <= 40  # 15 against 69 at the floor

    def test_pencils_live_on_their_cross_context(self, model, cfg,
                                                 slot_builds, samplings,
                                                 monkeypatch):
        guesses = []
        solve = eig.smallest_eigenpairs

        def spied(K, M, **kwargs):
            guesses.append(kwargs["guess"])
            return solve(K, M, **kwargs)

        L = 8
        with ex.solve_memo():
            ctx = ex.cross_context(model, cfg)
            _, cyl = ex.solve_cylinder(model, L / 2, cfg, grading=1.0)
            monkeypatch.setattr(eig, "smallest_eigenpairs", spied)
            half, pairs = ex.solve_cylinder(model.reflected(), L, cfg,
                                            kind="half-plus", grading=1.0)
            monkeypatch.setattr(eig, "smallest_eigenpairs", solve)
            # a reflection shares its field's context, and a clamped end
            # stores no ell to guess from
            [(key, (stored, ell))] = [item for item in ctx.solved.items()
                                      if item[0][1] is not model]
            assert (key[0], key[2], ell) == (half.key, 1, None)
            assert stored is pairs
            assert guesses == [cyl[0].value - ctx.margin]
            ex.exp_bounds_sweep(model, [1.0, 2.0], cfg)
            ex.exp_nu_half(model, [2.0, 4.0], cfg)
            # the store's slot-matrix sets are the all-node sets, each one
            # built here (restrictions are views of them, not items), and
            # its samples are those sampled here, each once
            store = set(assemble._MEMO.get())
        built = {("slots", mesh_key, n_values, hashlib.blake2b(
            data, digest_size=16).hexdigest())
            for mesh_key, n_values, shape, data in slot_builds}
        assert built == {key for key in store if key[0] == "slots"}
        assert len(samplings) == len(set(samplings))
        assert {("samples", *key) for key in samplings} == \
            {key for key in store if key[0] == "samples"}

    def test_diagnostics_row_on_a_hit_assembles_nothing(self, model, cfg,
                                                        solves, monkeypatch):
        assembled = []
        assemble_cylinder = assemble.assemble_cylinder

        def counted(mesh, field):
            assembled.append(mesh.key)
            return assemble_cylinder(mesh, field)

        with ex.solve_memo():
            ex.solve_cylinder(model, 4, cfg)
            monkeypatch.setattr(assemble, "assemble_cylinder", counted)
            solves.clear()
            rec = ex.exp_gap(model, [4], cfg)[0]
        assert rec.d_plus is not None and rec.n_plus is not None
        assert assembled == [] and solves == []
