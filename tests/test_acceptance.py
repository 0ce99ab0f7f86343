"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Discretization margins come from two-level mesh
refinement (coarse/fine difference times three), never from hard-coded
constants.
"""

import time

import numpy as np
import pytest

from cylgap import analysis as an
from cylgap import assemble, cli, coeff, eig, grid
from cylgap import experiments as ex

import proofs
from conftest import MU1, random_spd


def check(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cfg():
    return ex.ExperimentConfig(resolution=16, axial_resolution=8)


@pytest.fixture(scope="module")
def model(cfg):
    return coeff.model_field(0.6)


def test_criterion_01_cross_section_oracle():
    field = coeff.identity_field()
    errs = []
    for res in (32, 64, 128):  # 64, 128, 256 cells over (-1, 1)
        mesh = grid.build_mesh("cross-section", omega=(-1, 1),
                               resolution=res)
        K, M = assemble.assemble_cross_section(mesh, field)
        mu = eig.smallest_eigenpairs(K, M)[0]
        assert mu.residual <= 1e-10
        errs.append(abs(mu.value - MU1))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = errs[-1] < 1e-4 and all(1.8 <= q <= 2.2 for q in orders)
    check(1, "cross-section oracle", ok,
          f"err@256cells={errs[-1]:.2e}, orders={[f'{q:.2f}' for q in orders]}")


def test_criterion_02_model_bounds(cfg):
    t0 = time.perf_counter()
    ok = True
    details = []
    for delta in (0.3, 0.6):
        recs = ex.exp_bounds_sweep(coeff.model_field(delta),
                                   [0.1, 0.5, 1.0, 2.0, 4.0, 8.0], cfg)
        for r in recs:
            inside = ((1 - delta**2) * r.mu1_disc + 1e-3 < r.lambda1
                      < r.mu1_disc - 1e-3)
            ok = ok and r.passed and inside
        details.append(f"delta={delta}: {sum(r.passed for r in recs)}/6")
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    check(2, "model bounds, margin 1e-3", ok,
          f"{'; '.join(details)}; runtime {dt:.1f}s")


def test_criterion_03_limit_zero(cfg, model):
    recs = ex.exp_limit_zero(model, [0.4, 0.2, 0.1, 0.05], cfg)
    s1 = recs[-1]
    err1 = abs(s1.extrapolated - 0.64 * s1.mu1_disc)
    recs = ex.exp_limit_zero(coeff.variable_a22_field(0.6),
                             [0.4, 0.2, 0.1, 0.05], cfg)
    s2 = recs[-1]
    err2 = abs(s2.extrapolated - s2.Lambda1_disc)
    ok = err1 < 1e-2 and err2 < 2e-2
    check(3, "thin-cylinder limit", ok,
          f"model err={err1:.2e} (<1e-2), variable err={err2:.2e} (<2e-2)")


def test_criterion_04_half_cylinder_monotone(cfg, model):
    recs = ex.exp_nu_half(model, [4, 8, 16], cfg)
    seq = [r.lambda_half_plus for r in recs if r.experiment == "nu-half+"]
    mono = all(b - a <= 1e-9 for a, b in zip(seq, seq[1:]))
    lm, lp = recs[-1].lambda_half_minus, recs[-1].lambda_half_plus
    refl = abs(lm - lp) <= 1e-8
    check(4, "half-cylinder monotonicity + reflection", mono and refl,
          f"seq={[f'{v:.6f}' for v in seq]}, |refl diff|={abs(lm - lp):.1e}")


def test_criterion_05_limit_identification(cfg, model):
    recs = ex.exp_limit_infinity(model, [16], cfg)
    r = recs[-1]
    diff = abs(r.lambda1 - min(r.nu_plus, r.nu_minus))
    ok = diff < 5e-3 and r.passed
    field = coeff.diagonal_field([1.0, 1.0])
    drecs = ex.exp_limit_infinity(field, [16], cfg)
    d = drecs[-1]
    ok_diag = (abs(d.lambda1 - d.mu1_disc) <= 1e-8
               and abs(min(d.nu_plus, d.nu_minus) - d.mu1_disc) <= 1e-8)
    check(5, "limit identification", ok and ok_diag,
          f"model |lam16-nu|={diff:.2e} (<5e-3), "
          f"diagonal |lam16-mu|={abs(d.lambda1 - d.mu1_disc):.1e}")


def test_criterion_06_gap_phenomenon():
    cfg64 = ex.ExperimentConfig(resolution=64, axial_resolution=8)
    details = []
    ok = True
    for delta in (0.1, 0.3, 0.6):
        recs = ex.exp_gap(coeff.model_field(delta), [16], cfg64)
        r = recs[0]
        ok = ok and r.passed and r.gap > r.margin
        details.append(f"d={delta}: gap={r.gap:.1e} > {r.margin:.1e}")
    # equality cases sit below the mesh error
    ctx = ex.cross_context(coeff.model_field(0.0), cfg64)
    mesh, pairs = ex.solve_cylinder(coeff.model_field(0.0), 16, cfg64)
    flat = abs(ctx.mu1 - pairs[0].value)
    ok = ok and flat < ctx.margin / 3  # one mesh error
    drecs = ex.exp_multi_direction(coeff.diagonal_field([1, 1, 1], p=2),
                                   [2], ex.ExperimentConfig())
    ok = ok and drecs[0].passed
    check(6, "gap above 3x mesh error", ok,
          "; ".join(details) + f"; delta=0 |gap|={flat:.1e}")


def test_criterion_07_decay(cfg, model):
    recs, [(_, prof)] = ex.exp_decay(model, [12], cfg)
    ok = (prof.r2 > 0.99 and prof.alpha_fit < 1.0
          and abs(prof.grad_alpha - prof.alpha_fit) <= 0.2 * prof.alpha_fit)
    drecs, [(_, dprof)] = ex.exp_decay(coeff.diagonal_field([1.0, 1.0]),
                                       [12], cfg)
    ok = ok and dprof.alpha_fit > an.NO_DECAY_ALPHA
    check(7, "exponential decay", ok,
          f"alpha={prof.alpha_fit:.3f}, R2={prof.r2:.4f}, "
          f"grad={prof.grad_alpha:.3f}; diagonal alpha={dprof.alpha_fit:.3f} "
          "(flagged no-decay)")


def test_criterion_08_concentration_identities(cfg, model):
    worst_n, worst_d, worst_sym = 0.0, 0.0, 0.0
    for field, ell in ((model, 1.0), (model, 8.0),
                       (coeff.asymmetric_model_field(0.5), 8.0)):
        mesh, pairs = ex.solve_cylinder(field, ell, cfg)
        split = an.concentration_split(pairs[0], mesh, field)
        worst_n = max(worst_n, abs(split.n_plus + split.n_minus
                                   - pairs[0].value) / pairs[0].value)
        worst_d = max(worst_d, abs(split.d_plus + split.d_minus - 1.0))
        if field is model:
            worst_sym = max(worst_sym,
                            an.symmetry_defect(pairs[0].vector, mesh,
                                               field=field))
    ok = worst_n <= 1e-8 and worst_d <= 1e-10 and worst_sym <= 1e-7
    check(8, "concentration identities", ok,
          f"|N-lam|/lam<={worst_n:.1e}, |D-1|<={worst_d:.1e}, "
          f"sym defect<={worst_sym:.1e}")


def test_criterion_09_second_eigenvalue(cfg, model):
    recs = ex.exp_second_eigenvalue(model, [8, 12, 16], cfg)
    gaps = [r.gap for r in recs]
    shrink = gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2
    sandwich = all(r.lambda1 < r.lambda2 <= r.lambda_half_plus + 1e-8
                   for r in recs)
    ok = shrink and sandwich and all(r.passed for r in recs)
    check(9, "second eigenvalue collapse", ok,
          f"gaps={[f'{g:.2e}' for g in gaps]} (>=2x per step), sandwich ok")


def test_criterion_10_dirichlet_comparison(cfg, model):
    recs = ex.exp_dirichlet_comparison(model, [4, 8, 16], cfg)
    cs = [r.fitted_c for r in recs]
    spread = (max(cs) - min(cs)) / max(cs)
    ok = all(r.passed for r in recs) and spread <= 0.30
    irecs = ex.exp_dirichlet_comparison(coeff.identity_field(),
                                        [4, 8, 16], cfg)
    c_err = abs(irecs[-1].fitted_c - MU1) / MU1
    ok = ok and c_err < 0.05
    check(10, "all-Dirichlet comparison", ok,
          f"model C spread={spread:.0%} (<=30%), identity C err={c_err:.1%}")


def test_criterion_11_picone():
    field = coeff.neg_coupling_field(0.5)
    half = grid.build_mesh("half-plus", ell=12, omega=(-1, 1),
                           resolution=(8, 32))
    forms = assemble.assemble_cylinder(half, field)
    cm = grid.build_mesh("cross-section", omega=(-1, 1), resolution=32)
    Kc, Mc = assemble.assemble_cross_section(cm, field)
    W1 = eig.smallest_eigenpairs(Kc, Mc)[0]
    Mf = proofs.full(forms[1])
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(50):
        u = rng.standard_normal(half.n_free)
        u /= np.sqrt(u @ (Mf @ u))
        worst = min(worst, proofs.picone_gap(u, W1, MU1, half, forms))
    gaps = []
    for width in (2.0, 4.0, 8.0):
        u = proofs.cutoff_w1(width).free_values(half)
        u /= np.sqrt(u @ (Mf @ u))
        gaps.append(proofs.picone_gap(u, W1, MU1, half, forms))
    mono = gaps[0] > gaps[1] > gaps[2] >= -1e-8 and gaps[2] < 0.6 * gaps[0]
    ok = worst >= -1e-8 and mono
    check(11, "Picone nonnegativity", ok,
          f"min random gap={worst:.2e} (>=-1e-8), "
          f"cutoff gaps={[f'{g:.3f}' for g in gaps]} decreasing to 0+")


def test_criterion_12_end_profiles(cfg, model):
    recs = ex.exp_end_profile(model, [6, 10, 14], cfg)
    dists = [r.end_distance for r in recs]
    ok = dists[0] > dists[1] > dists[2] and all(r.passed for r in recs)
    check(12, "end-profile convergence", ok,
          f"H1 distances={[f'{d:.4f}' for d in dists]} decreasing")


def test_criterion_13_algebraic_unit_suite(cfg, model):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        B = random_spd(rng, n, scale=float(rng.uniform(0, 2)))
        field = coeff.CoefficientField(
            n, 1, lambda pts, B=B: np.broadcast_to(B, (len(pts), n, n)).copy(),
            kind="user")
        Z2 = rng.standard_normal(n - 1)
        red = proofs.schur_reduce(field, np.zeros(n - 1))
        zs = np.arange(-10.0, 10.0 + 1e-3, 1e-3)
        quad = (B[0, 0] * zs * zs + 2 * zs * (B[0, 1:] @ Z2)
                + Z2 @ B[1:, 1:] @ Z2)
        i = int(np.argmin(quad))
        y0, y1, y2 = quad[max(i - 1, 0)], quad[i], quad[min(i + 1, len(zs) - 1)]
        denom = y0 - 2 * y1 + y2
        brute = y1 - 0.125 * (y0 - y2) ** 2 / denom if denom > 0 else y1
        worst = max(worst, abs(Z2 @ red @ Z2 - brute))
    mesh = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                           resolution=(8, 32))
    forms = assemble.assemble_cylinder(mesh, model)
    lam1 = eig.smallest_eigenpairs(*forms)[0].value
    cm = grid.build_mesh("cross-section", omega=(-1, 1), resolution=32)
    Kc, Mc = assemble.assemble_cross_section(cm, model)
    W1 = eig.smallest_eigenpairs(Kc, Mc)[0]
    tilde = proofs.tilde_vl(model, cm, W1)
    upper_ok = True
    for tf in (proofs.model_vl(0.6), tilde,
               proofs.glued_phi(tilde, 0.5, 2.0)):
        q = proofs.rayleigh_of_testfn(tf, mesh, model, forms=forms).quotient
        upper_ok = upper_ok and q >= lam1
    ok = worst < 1e-6 and upper_ok
    check(13, "algebraic unit suite", ok,
          f"max |schur - brute force|={worst:.2e} (<1e-6), "
          f"upper bounds hold={upper_ok}")


DETERMINISM_CFG = """
[run]
experiments = bounds, nu-half, gap, limit-zero
output_dir = {out}
seed = 0
parallelism = 1

[field]
kind = model
delta = 0.6

[mesh]
resolution = 8
axial_resolution = 4

[schedules]
ell_bounds = 0.5 1 2
l_half = 2 4
l_gap = 4 8
ell_zero = 0.4 0.2 0.1
"""


def test_criterion_14_determinism(tmp_path, monkeypatch):
    path = tmp_path / "det.cfg"
    path.write_text(DETERMINISM_CFG.format(out=tmp_path / "a"))
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "r1"))
    rc1 = cli.main(["run", str(path)])
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "r2"))
    rc2 = cli.main(["run", str(path)])
    names = ["bounds.csv", "nu-half.csv", "gap.csv", "limit-zero.csv"]
    identical = all((tmp_path / "r1" / n).read_bytes()
                    == (tmp_path / "r2" / n).read_bytes() for n in names)
    ok = rc1 == rc2 == 0 and identical
    check(14, "bitwise determinism", ok,
          f"exit codes {rc1}/{rc2}, {len(names)} CSVs byte-identical={identical}")
