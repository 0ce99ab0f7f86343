import numpy as np
import pytest
from scipy.integrate import quad

from cylgap import analysis as an
from cylgap import assemble, coeff, eig, experiments, grid
from cylgap.errors import MeshMismatch, TooShort

import proofs
from conftest import MU1


@pytest.fixture(scope="module")
def cyl8(model06_mod):
    mesh = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                           resolution=(8, 32))
    K, M = assemble.assemble_cylinder(mesh, model06_mod)
    pairs = eig.smallest_eigenpairs(K, M, count=2)
    return {"mesh": mesh, "K": K, "M": M, "pairs": pairs}


@pytest.fixture(scope="module")
def model06_mod():
    return coeff.model_field(0.6)


@pytest.fixture(scope="module")
def cross_mod(model06_mod):
    mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=32)
    K, M = assemble.assemble_cross_section(mesh, model06_mod)
    W1 = eig.smallest_eigenpairs(K, M)[0]
    Kr, Mr = assemble.assemble_cross_section(mesh, model06_mod, reduced=True)
    w1 = eig.smallest_eigenpairs(Kr, Mr)[0]
    return {"mesh": mesh, "W1": W1, "w1": w1, "mu1": W1.value}


def subs_oracle_quotient(delta, ell, alpha_cut):
    """Exact Rayleigh quotient of the thin-cylinder test function,
    assembled from the four 1D integrals of its closed-form expansion."""
    w = min(1.0, ell**alpha_cut)
    W1p2 = lambda t: (np.pi / 2) ** 2 * np.sin(np.pi * t / 2) ** 2
    rho = lambda t: float(np.clip(min((t + 1) / w, (1 - t) / w), 0.0, 1.0))
    W1pp = lambda t: -((np.pi / 2) ** 2) * np.cos(np.pi * t / 2)
    W1p = lambda t: -(np.pi / 2) * np.sin(np.pi * t / 2)

    def rhop(t):
        if -1 <= t < -1 + w:
            return 1.0 / w
        if 1 - w < t <= 1:
            return -1.0 / w
        return 0.0

    i_r2 = quad(lambda t: rho(t) ** 2 * W1p2(t), -1, 1, limit=200)[0]
    i_r1 = quad(lambda t: rho(t) * W1p2(t), -1, 1, limit=200)[0]
    i_mix = quad(lambda t: (rho(t) * W1pp(t) + W1p(t) * rhop(t)) ** 2,
                 -1, 1, limit=200)[0]
    num = (delta**2 * i_r2 + MU1 - 2 * delta**2 * i_r1
           + (delta**2 * ell**2 / 3) * i_mix)
    den = 1.0 + (ell**2 * delta**2 / 3) * i_r2
    return num / den


class TestTestFunctions:
    def test_all_vanish_on_dirichlet_nodes(self, model06_mod, cross_mod):
        cm = cross_mod["mesh"]
        mesh = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                               resolution=(8, 32))
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=(8, 32))
        tilde = proofs.tilde_vl(model06_mod, cm, cross_mod["W1"])
        cases = [
            (proofs.model_vl(0.6), mesh),
            (tilde, mesh),
            (proofs.general_vl(model06_mod, cm, cross_mod["w1"]),
             mesh),
            (proofs.glued_phi(tilde, 0.5, 4.0), mesh),
            (proofs.exp_decay(0.5), half),
            (proofs.z_alpha(0.2, 0.5, tilde), half),
            (proofs.cutoff_w1(4.0), half),
        ]
        for tf, m in cases:
            vals = tf.nodal(m)
            assert np.all(vals[proofs.dirichlet_nodes(m)] == 0.0), tf.name

    def test_rayleigh_upper_bounds_lambda1(self, model06_mod, cross_mod,
                                           cyl8):
        mesh, forms = cyl8["mesh"], (cyl8["K"], cyl8["M"])
        lam1 = cyl8["pairs"][0].value
        cm = cross_mod["mesh"]
        tilde = proofs.tilde_vl(model06_mod, cm, cross_mod["W1"])
        for tf in (proofs.model_vl(0.6), tilde,
                   proofs.glued_phi(tilde, 0.5, 4.0)):
            q = proofs.rayleigh_of_testfn(tf, mesh, model06_mod, forms=forms)
            assert q.quotient >= lam1

    def test_eigenvector_attains_lambda(self, cyl8, model06_mod):
        u = cyl8["pairs"][0]
        q = proofs.rayleigh_of_testfn(u.vector, cyl8["mesh"], model06_mod,
                                  forms=(cyl8["K"], cyl8["M"]))
        assert q.quotient == pytest.approx(u.value, rel=1e-8)

    def test_exp_decay_closed_form(self, model06_mod):
        # signed integral vanishes for the model, so the quotient tends to
        # mu1 + eps^2 * int a11 W1^2 = mu1 + eps^2
        eps = 0.5
        half = grid.build_mesh("half-plus", ell=16, omega=(-1, 1),
                               resolution=(8, 64))
        q = proofs.rayleigh_of_testfn(proofs.exp_decay(eps), half, model06_mod)
        assert q.quotient == pytest.approx(MU1 + eps**2, abs=1e-3)

    def test_model_vl_matches_subs_oracle(self, model06_mod):
        # oracle: numerical evaluation of the thin-limit expansion; the
        # interpolant reproduces it and decreases toward (1-d^2) mu1
        quotients = []
        for ell in (0.4, 0.1, 0.05):
            mesh = grid.build_mesh(
                "full-cylinder", ell=ell, omega=(-1, 1),
                resolution=(max(8, 4 / ell), 64))
            q = proofs.rayleigh_of_testfn(proofs.model_vl(0.6), mesh,
                                          model06_mod)
            oracle = subs_oracle_quotient(0.6, ell, 0.5)
            assert q.quotient == pytest.approx(oracle, abs=2e-3)
            quotients.append(q.quotient)
        assert quotients[0] > quotients[1] > quotients[2]
        assert quotients[2] - 0.64 * MU1 < 0.15

    def test_glued_phi_even_on_ramp(self, model06_mod, cross_mod):
        mesh = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                               resolution=(8, 32))
        tilde = proofs.tilde_vl(model06_mod, cross_mod["mesh"],
                            cross_mod["W1"])
        tf = proofs.glued_phi(tilde, ell0=0.5, eta=4.0)
        vals = tf.nodal(mesh).reshape(mesh.shape)
        x1 = mesh.axis_partitions[0]
        band = (np.abs(x1) < 7.5) & (np.abs(x1) > 3.5)
        idx = np.flatnonzero(band)
        flipped = len(x1) - 1 - idx
        np.testing.assert_array_equal(vals[idx], vals[flipped])

    def test_glued_phi_beats_mu_for_tuned_params(self, model06_mod,
                                                 cross_mod, cyl8):
        # good gluing parameters exist whenever the coupling is active;
        # a coarse grid search must find a quotient below mu1
        tilde = proofs.tilde_vl(model06_mod, cross_mod["mesh"],
                            cross_mod["W1"])
        qs = [proofs.rayleigh_of_testfn(
                  proofs.glued_phi(tilde, ell0=l0, eta=eta), cyl8["mesh"],
                  model06_mod, forms=(cyl8["K"], cyl8["M"])).quotient
              for l0 in (0.25, 0.5, 1.0) for eta in (4.0, 6.0)]
        assert min(qs) < cross_mod["mu1"]

    def test_z_alpha_beats_mu(self, model06_mod, cross_mod):
        half = grid.build_mesh("half-plus", ell=16, omega=(-1, 1),
                               resolution=(8, 32))
        forms = assemble.assemble_cylinder(half, model06_mod)
        tilde = proofs.tilde_vl(model06_mod, cross_mod["mesh"],
                            cross_mod["W1"])
        qs = [proofs.rayleigh_of_testfn(proofs.z_alpha(a, 0.5, tilde), half,
                                    model06_mod, forms=forms).quotient
              for a in (0.2, 0.3)]
        assert min(qs) < cross_mod["mu1"]

    def test_zero_function_rejected(self, model06_mod):
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=8)
        with pytest.raises(proofs.ZeroFunction):
            proofs.rayleigh_of_testfn(np.zeros(mesh.n_nodes), mesh,
                                      model06_mod)

    def test_box_cross_section_profile(self):
        # n = 3, p = 1 with a box omega: same machinery, 2D cross data
        field = coeff.field_from_entries(
            3, 1, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0, (0, 1): 0.5},
            kind="user")
        cm = grid.build_mesh("cross-section", omega=((-1, 1), (-1, 1)),
                             resolution=8)
        Kc, Mc = assemble.assemble_cross_section(cm, field)
        W1 = eig.smallest_eigenpairs(Kc, Mc)[0]
        mesh = grid.build_mesh("full-cylinder", ell=0.2,
                               omega=((-1, 1), (-1, 1)),
                               resolution=(10, 8, 8))
        forms = assemble.assemble_cylinder(mesh, field)
        lam1 = eig.smallest_eigenpairs(*forms)[0].value
        tf = proofs.tilde_vl(field, cm, W1)
        vals = tf.nodal(mesh)
        assert np.all(vals[proofs.dirichlet_nodes(mesh)] == 0.0)
        q = proofs.rayleigh_of_testfn(tf, mesh, field, forms=forms)
        assert q.quotient >= lam1
        # on a thin cylinder the coupling buys a bound below mu1
        assert q.quotient < W1.value


class TestQuadratureConsistency:
    def test_mass_norm_matches_assembled_mass(self, model06_mod):
        # the diagnostic masses and the assembled mass matrix share the
        # cross mass and the axial rule, so they agree to round-off,
        # graded meshes included
        mesh = grid.build_mesh("full-cylinder", ell=6, omega=(-1, 1),
                               resolution=(4, 8), grading=2)
        _, M = assemble.assemble_cylinder(mesh, model06_mod)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(mesh.n_free)
            mass, _, _ = an.axial_densities(mesh.scatter_free(u),
                                            mesh.axis_partitions)
            assert mass.sum() == pytest.approx(proofs.energy(M, u), rel=1e-12)


class TestDecayProfile:
    def test_model_exponential_decay(self, model06_mod):
        mesh = grid.build_mesh("full-cylinder", ell=12, omega=(-1, 1),
                               resolution=(8, 16), grading=2)
        K, M = assemble.assemble_cylinder(mesh, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        prof = an.decay_profile(u.vector, mesh)
        assert prof.alpha_fit < 1.0
        assert prof.r2 > 0.99
        assert prof.alpha_fit <= an.NO_DECAY_ALPHA
        assert abs(prof.grad_alpha - prof.alpha_fit) <= 0.2 * prof.alpha_fit
        # envelope form of decay: masses admit a base-alpha bound < 1
        env = max(m ** (1.0 / max(1, int(np.floor(mesh.ell - r))))
                  for r, m in prof.masses[:-1])
        assert env < 1.0

    def test_uncoupled_field_flat_profile(self):
        field = coeff.diagonal_field([1.0, 1.0])
        mesh = grid.build_mesh("full-cylinder", ell=12, omega=(-1, 1),
                               resolution=(4, 16))
        K, M = assemble.assemble_cylinder(mesh, field)
        u = eig.smallest_eigenpairs(K, M)[0]
        prof = an.decay_profile(u.vector, mesh)
        assert prof.alpha_fit > an.NO_DECAY_ALPHA
        assert prof.alpha_fit > 0.8
        # separable eigenfunction: mass(r) = r / ell
        for r, m in prof.masses:
            assert m == pytest.approx(r / 12.0, rel=1e-6)

    def test_too_short(self, model06_mod):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        with pytest.raises(TooShort):
            an.decay_profile(u.vector, mesh)

    def test_fit_window_of_two_lengths_is_too_short(self, model06_mod):
        # at ell = 4.5 the masses at r = 1, 2, 3 leave 2 in the fit
        # window, and a line through them has r2 = 1 by construction
        mesh = grid.build_mesh("full-cylinder", ell=4.5, omega=(-1, 1),
                               resolution=(4, 8))
        K, M = assemble.assemble_cylinder(mesh, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        with pytest.raises(TooShort, match="fit window"):
            an.decay_profile(u.vector, mesh)


class TestConcentrationAndSymmetry:
    def test_split_identities_and_symmetry(self, cyl8, model06_mod):
        split = an.concentration_split(cyl8["pairs"][0], cyl8["mesh"],
                                       model06_mod)
        lam = cyl8["pairs"][0].value
        assert split.n_plus + split.n_minus == pytest.approx(lam,
                                                             rel=1e-8)
        assert split.d_plus + split.d_minus == pytest.approx(1.0,
                                                             abs=1e-10)
        # property (S): equal halves
        assert split.d_plus == pytest.approx(0.5, abs=1e-6)

    def test_symmetry_defect_small_for_model(self, cyl8):
        assert cyl8["K"].point_symmetric and cyl8["M"].point_symmetric
        d = an.symmetry_defect(cyl8["pairs"][0].vector, cyl8["mesh"])
        assert d <= 1e-7

    def test_defect_invariant_under_reflection(self, cyl8):
        mesh = cyl8["mesh"]
        u = cyl8["pairs"][0]
        full = mesh.scatter_free(u.vector)
        reflected = proofs.restrict_free(mesh, full[::-1])
        d1 = an.symmetry_defect(u.vector, mesh)
        d2 = an.symmetry_defect(reflected, mesh)
        assert d1 == pytest.approx(d2, abs=1e-14)

    def test_asymmetric_field_large_defect(self):
        """Without property (S) the forms are not ``point_symmetric``, the
        first pair gathers at one end, so its defect on the mirrored mesh
        is near sqrt 2, and the rows of the field leave the defect empty
        (the counterpart of ``test_symmetry_defect_recorded_for_even_fields``)."""
        field = coeff.asymmetric_model_field(0.5)
        mesh = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                               resolution=(8, 16))
        K, M = assemble.assemble_cylinder(mesh, field)
        assert not K.point_symmetric and not M.point_symmetric
        u = eig.smallest_eigenpairs(K, M)[0]
        assert an.symmetry_defect(u.vector, mesh) > 1.0
        cfg = experiments.ExperimentConfig(resolution=8, axial_resolution=4)
        recs = experiments.exp_bounds_sweep(field, [1.0, 8.0], cfg)
        assert all(r.d_plus is not None and r.symmetry_defect is None
                   for r in recs)


@pytest.fixture(scope="module")
def picone_setup():
    field = coeff.neg_coupling_field(0.5)
    half = grid.build_mesh("half-plus", ell=12, omega=(-1, 1),
                           resolution=(8, 32))
    forms = assemble.assemble_cylinder(half, field)
    cm = grid.build_mesh("cross-section", omega=(-1, 1), resolution=32)
    Kc, Mc = assemble.assemble_cross_section(cm, field)
    W1 = eig.smallest_eigenpairs(Kc, Mc)[0]
    return field, half, forms, cm, W1


class TestPicone:
    def test_random_vectors_nonnegative(self, picone_setup):
        field, half, forms, cm, W1 = picone_setup
        rng = np.random.default_rng(7)
        M = proofs.full(forms[1])
        for _ in range(50):
            u = rng.standard_normal(half.n_free)
            u /= np.sqrt(u @ (M @ u))
            gap = proofs.picone_gap(u, W1, MU1, half, forms)
            assert gap >= -1e-8

    def test_widening_cutoff_decreases_to_zero(self, picone_setup):
        field, half, forms, cm, W1 = picone_setup
        M = proofs.full(forms[1])
        gaps = []
        for width in (2.0, 4.0, 8.0):
            u = proofs.cutoff_w1(width).free_values(half)
            u = u / np.sqrt(u @ (M @ u))
            gaps.append(proofs.picone_gap(u, W1, MU1, half, forms))
        assert gaps[0] > gaps[1] > gaps[2] >= -1e-8
        assert gaps[2] < 0.6 * gaps[0]

    def test_model_field_goes_negative(self, model06_mod, cross_mod):
        # the one-signed coupling condition fails for the model field, and
        # the half-cylinder minimizer itself drops below mu1
        half = grid.build_mesh("half-plus", ell=12, omega=(-1, 1),
                               resolution=(8, 32))
        forms = assemble.assemble_cylinder(half, model06_mod)
        u = eig.smallest_eigenpairs(*forms)[0]
        gap = proofs.picone_gap(u.vector, cross_mod["W1"], cross_mod["mu1"],
                            half, forms)
        assert gap < -1e-3

    def test_degenerate_weight(self, picone_setup):
        field, half, forms, cm, W1 = picone_setup
        bad = W1.vector.copy()
        bad[len(bad) // 2] = 0.0
        with pytest.raises(proofs.DegenerateWeight):
            proofs.picone_gap(np.ones(half.n_free), bad, MU1, half, forms)


class TestEndProfiles:
    def test_self_distance_zero(self, model06_mod):
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=(8, 16))
        K, M = assemble.assemble_cylinder(half, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        # plant the half minimizer on the left end of a cylinder; the
        # translated profile then coincides with the minimizer itself
        cyl = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                              resolution=(8, 16))
        ext = proofs.extend_by_zero(half, cyl, u.vector, shift=-8.0)
        d = an.end_profile_distance(ext, cyl, u.vector, half, 3.0)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_distance_decreases_with_ell(self, model06_mod):
        half = grid.build_mesh("half-plus", ell=16, omega=(-1, 1),
                               resolution=(8, 16))
        Kh, Mh = assemble.assemble_cylinder(half, model06_mod)
        uh = eig.smallest_eigenpairs(Kh, Mh)[0]
        dists = []
        for ell in (6, 14):
            mesh = grid.build_mesh("full-cylinder", ell=ell, omega=(-1, 1),
                                   resolution=(8, 16))
            K, M = assemble.assemble_cylinder(mesh, model06_mod)
            u = eig.smallest_eigenpairs(K, M)[0]
            dists.append(an.end_profile_distance(u.vector, mesh, uh.vector,
                                                 half, 3.0))
        assert dists[1] < dists[0]

    def test_mesh_mismatch(self, model06_mod):
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=(8, 16))
        other = grid.build_mesh("half-minus", ell=8, omega=(-1, 1),
                                resolution=(8, 16))
        K, M = assemble.assemble_cylinder(half, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        with pytest.raises(MeshMismatch):
            an.end_profile_distance(u, half, u, other, 2.0)

    def test_bulk_two_exponential_fit(self, model06_mod):
        # g e^(a x1) + g' e^(-a x1) on a uniform axis satisfies
        # u(x1 - h) + u(x1 + h) = 2 cosh(a h) u(x1): one ratio for all x1
        mesh = grid.build_mesh("full-cylinder", ell=12, omega=(-1, 1),
                               resolution=(8, 16))
        K, M = assemble.assemble_cylinder(mesh, model06_mod)
        u = eig.smallest_eigenpairs(K, M)[0]
        full = mesh.scatter_free(u.vector).reshape(mesh.shape)
        line = full[:, mesh.shape[1] // 2]  # X2 = 0
        mid = np.flatnonzero(np.abs(mesh.axis_partitions[0]) <= mesh.ell / 3)
        ratio = (line[mid - 1] + line[mid + 1]) / (2.0 * line[mid])
        assert np.ptp(ratio) < 1e-6 * ratio.mean()
        assert ratio.mean() > 1.0  # a > 0
