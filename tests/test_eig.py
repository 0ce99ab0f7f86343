import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.linalg.blas import dtbmv
from scipy.sparse.linalg import ArpackNoConvergence, splu

from cylgap import assemble, coeff, eig, experiments, grid
from cylgap.errors import (BadResolution, FactorizationFailed, MemoryBudget,
                           NoConvergence)

import proofs
from conftest import BOTH_ROWS, MU1


def separable_mixed_spectrum(ell, kmax=6, mmax=6):
    """Analytic eigenvalues of the identity-field mixed problem on
    (-ell, ell) x (-1, 1): Dirichlet modes in x2, Neumann modes in x1."""
    vals = []
    for k in range(1, kmax + 1):
        for m in range(0, mmax + 1):
            vals.append((k * np.pi / 2.0) ** 2 + (m * np.pi / (2 * ell)) ** 2)
    return sorted(vals)


@pytest.fixture(scope="module")
def pencil_1d():
    mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=64)
    K, M = assemble.assemble_cross_section(mesh, coeff.identity_field())
    return K, M


def schur_floor(field, resolution):
    """Lambda1 - margin of ``field`` at a cross resolution: the shift
    that ``solve_cylinder`` uses."""
    ctx = experiments.cross_context(
        field, experiments.ExperimentConfig(resolution=resolution))
    return ctx.Lambda1 - ctx.margin


@pytest.fixture(scope="module")
def pencil_3d():
    """Multi-direction (p = 2) pencil with 2535 free nodes, its two
    smallest eigenvalues from a dense solve and its Schur floor."""
    field = coeff.multi_model_field(0.6)
    mesh = grid.build_mesh("multi-direction", ell=2, omega=(-1, 1),
                           resolution=(3, 3, 8))
    K, M = assemble.assemble_cylinder(mesh, field)
    dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                              proofs.full(M).toarray(),
                              subset_by_index=[0, 1])[0]
    return K, M, dense, schur_floor(field, 8)


@pytest.fixture(scope="module")
def cylinder_16():
    """The full model cylinder at ell = 16 (n = 7 967, with the
    near-degenerate end pair), its Schur floor and the margin below it."""
    field = coeff.model_field(0.6)
    mesh = grid.build_mesh("full-cylinder", ell=16, omega=(-1, 1),
                           resolution=(8, 16))
    K, M = assemble.assemble_cylinder(mesh, field)
    assert K.dim == 7967
    ctx = experiments.cross_context(
        field, experiments.ExperimentConfig(resolution=16))
    return K, M, ctx.Lambda1 - ctx.margin, ctx.margin


class CountingFactor:
    """A banded Cholesky factor that counts its operator applications:
    Lanczos applies C = L^-1 M L^-T once per step, and nothing else."""

    def __init__(self, chol):
        self.chol = chol
        self.sector = chol.sector
        self.applications = 0

    def shift_invert(self, M, y):
        self.applications += 1
        return self.chol.shift_invert(M, y)

    def back_transform(self, Y):
        return self.chol.back_transform(Y)


@pytest.fixture()
def factors(monkeypatch):
    """Every banded factor made from here on, as a CountingFactor; a
    factor that fails is not listed.  A folded solve lists its sector
    certificates too, with no applications."""
    made = []
    factor = eig._factor

    def counting_factor(rows, shift, sector):
        made.append(CountingFactor(factor(rows, shift, sector)))
        return made[-1]

    monkeypatch.setattr(eig, "_factor", counting_factor)
    return made


def lanczos_factors(factors):
    """The factors Lanczos ran on: all but the sector certificates, which
    apply nothing."""
    return [f for f in factors if f.applications]


@pytest.fixture()
def lanczos_calls(monkeypatch):
    """One entry per shift-invert Lanczos run from here on."""
    calls = []

    def counting_eigsh(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    eigsh = eig.eigsh
    monkeypatch.setattr(eig, "eigsh", counting_eigsh)
    return calls


class TestSmallestEigenpairs:
    def test_1d_identity_spectrum(self, pencil_1d):
        pairs = eig.smallest_eigenpairs(*pencil_1d, count=2)
        assert pairs[0].value == pytest.approx(MU1, abs=3e-4)
        assert pairs[1].value == pytest.approx(np.pi**2, abs=1e-2)
        assert pairs[0].value < pairs[1].value

    def test_identity_pencil(self):
        mesh = grid.build_mesh("cross-section", omega=(-1, 1), resolution=16)
        _, M = assemble.assemble_cross_section(mesh, coeff.identity_field())
        pairs = eig.smallest_eigenpairs(M, M, count=3)
        for p in pairs:
            assert p.value == pytest.approx(1.0, abs=1e-12)
        # any M-orthonormal set is valid
        V = np.stack([p.vector for p in pairs], axis=1)
        G = V.T @ (proofs.full(M) @ V)
        np.testing.assert_allclose(G, np.eye(3), atol=1e-8)

    def test_model_strictly_inside_bounds(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=32)
        K, M = assemble.assemble_cylinder(mesh, model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        margin = 1e-2  # a-priori discretization allowance
        assert 0.64 * MU1 + margin < lam < MU1 - margin

    def test_normalization_and_residual(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        pairs = eig.smallest_eigenpairs(K, M, count=3)
        Mf = proofs.full(M)
        for p in pairs:
            assert p.vector @ (Mf @ p.vector) == pytest.approx(1.0, abs=1e-10)
            assert p.residual <= 1e-9
        # pairwise M-orthogonal
        V = np.stack([p.vector for p in pairs], axis=1)
        G = V.T @ (Mf @ V)
        assert np.abs(G - np.eye(3)).max() <= 1e-8

    def test_first_vector_constant_sign(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        u = eig.smallest_eigenpairs(K, M)[0].vector
        assert u.min() >= -1e-8 * u.max()

    def test_rayleigh_matches_value(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        p = eig.smallest_eigenpairs(K, M)[0]
        assert proofs.energy(K, p.vector) / proofs.energy(M, p.vector) == \
            pytest.approx(p.value, rel=1e-8)

    def test_pencil_scaling(self, pencil_1d):
        K, M = pencil_1d
        base = eig.smallest_eigenpairs(K, M, count=2)
        K7, M7 = (assemble.KroneckerForm(
            f.dim, [(7.5 * term[0],) + term[1:] for term in f.terms])
            for f in (K, M))
        both = eig.smallest_eigenpairs(K7, M7, count=2)
        only_k = eig.smallest_eigenpairs(K7, M, count=2)
        for b, s, k in zip(base, both, only_k):
            assert s.value == pytest.approx(b.value, rel=1e-10)
            assert k.value == pytest.approx(7.5 * b.value, rel=1e-10)

    def test_no_convergence_reports_the_best_residual(self, pencil_1d,
                                                      monkeypatch):
        K, M = pencil_1d
        first = eig.smallest_eigenpairs(K, M)[0]
        # the Ritz pair of C = L^-1 M L^-T at the floor 0, where L L^T = K:
        # theta = 1 / lambda and y = L^T u
        band = eig._factor(eig.BandRows(K, M), 0.0, None).band
        y = dtbmv(band.shape[0] - 1, band, first.vector, lower=1, trans=1)

        def stalls(*args, **kwargs):
            raise ArpackNoConvergence("stalled", np.array([1 / first.value]),
                                      y[:, None])

        monkeypatch.setattr(eig, "eigsh", stalls)
        with pytest.raises(NoConvergence) as err:
            eig.smallest_eigenpairs(K, M, count=2)
        prefix, best = str(err.value).rsplit(" ", 1)
        assert prefix == "ARPACK converged 1/2 pairs, best residual"
        assert float(best) <= 1e-9

    def test_indefinite_pencil_rejected(self):
        K = proofs.form(sparse.diags([-1.0, 1.0, 2.0]))
        M = proofs.form(sparse.identity(3))
        with pytest.raises(FactorizationFailed):
            eig.smallest_eigenpairs(K, M)

    @pytest.mark.parametrize("count, n", [(1, 63), (2, 63), (3, 8)])
    def test_lanczos_basis_is_two_count_plus_four(self, monkeypatch, count,
                                                  n):
        """ARPACK gets ncv = min(n, 2 count + 4) vectors: 6 and 8 on a
        pencil of 63 unknowns, and all 8 unknowns of a pencil smaller than
        2 count + 4 = 10."""
        ncvs = []
        eigsh = eig.eigsh

        def recording_eigsh(*args, **kwargs):
            ncvs.append(kwargs["ncv"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(eig, "eigsh", recording_eigsh)
        K = proofs.form(sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                                     shape=(n, n)))
        M = proofs.form(sparse.diags(np.linspace(1.0, 2.0, n)))
        assert len(eig.smallest_eigenpairs(K, M, count=count)) == count
        assert ncvs == [min(n, 2 * count + 4)]

    def test_parameter_validation(self, pencil_1d):
        K, M = pencil_1d
        with pytest.raises(ValueError):
            eig.smallest_eigenpairs(K, M, count=7)

    def test_arpack_path_matches_dense(self, model06, lanczos_calls):
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=16)
        K, M = assemble.assemble_cylinder(mesh, model06)
        dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                                  proofs.full(M).toarray(),
                                  subset_by_index=[0, 1])[0]
        floors = (0.0, schur_floor(model06, 16))
        lanczos_calls.clear()  # the cross-section solves of the floor
        for floor in floors:
            pairs = eig.smallest_eigenpairs(K, M, count=2, floor=floor)
            assert pairs[0].value == pytest.approx(dense[0], rel=1e-10)
            assert pairs[1].value == pytest.approx(dense[1], rel=1e-10)
        assert len(lanczos_calls) == len(floors)

    @pytest.mark.parametrize("count", [1, 2])
    def test_arpack_path_matches_dense_3d(self, pencil_3d, lanczos_calls,
                                          count):
        K, M, dense, schur = pencil_3d
        for floor in (0.0, schur):
            pairs = eig.smallest_eigenpairs(K, M, count=count, floor=floor)
            assert len(pairs) == count
            for p, d in zip(pairs, dense):
                assert p.value == pytest.approx(d, rel=1e-10)
        assert len(lanczos_calls) == 2

    @pytest.mark.parametrize("kind, resolution", [
        ("cross-section", 2), ("full-cylinder", 16)],
        ids=["cross-section", "full-cylinder"])
    def test_floor_above_lambda1_rejected(self, model06, kind, resolution):
        mesh = grid.build_mesh(kind, ell=2, omega=(-1, 1),
                               resolution=resolution)
        assemble_forms = assemble.assemble_cross_section \
            if kind == "cross-section" else assemble.assemble_cylinder
        K, M = assemble_forms(mesh, model06)
        lam = scipy.linalg.eigh(proofs.full(K).toarray(),
                                proofs.full(M).toarray(),
                                subset_by_index=[0, 1])[0]
        with pytest.raises(FactorizationFailed, match="floor"):
            eig.smallest_eigenpairs(K, M, floor=(lam[0] + lam[1]) / 2)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_fallback_boundary(self, factors, lanczos_calls, count):
        """Every pencil with more unknowns than requested pairs, down to
        count + 1, is solved by one Lanczos run on one factor at the
        floor; as many pairs as unknowns are refused as a BadResolution."""
        for n in (count + 1, count + 2, count + 3):
            K = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
            M = sparse.diags(np.linspace(1.0, 2.0, n))
            exact = scipy.linalg.eigh(K.toarray(), M.toarray(),
                                      eigvals_only=True)
            K, M = proofs.form(K), proofs.form(M)
            factors.clear()
            lanczos_calls.clear()
            pairs = eig.smallest_eigenpairs(K, M, count=count,
                                            floor=exact[0] / 2)
            assert len(pairs) == count
            for p, e in zip(pairs, exact):
                assert p.value == pytest.approx(e, rel=1e-12)
            assert len(factors) == len(lanczos_calls) == 1
            with pytest.raises(FactorizationFailed, match="floor"):
                eig.smallest_eigenpairs(K, M, count=count,
                                        floor=(exact[0] + exact[1]) / 2)
            if n == count + 1:
                with pytest.raises(BadResolution):
                    eig.smallest_eigenpairs(K, M, count=n)

    def test_odd_ground_state_falls_back_to_the_whole_pencil(self, factors):
        """tridiag(1, 2, 1) commutes with the reversal of its unknowns, and
        at even n its lowest mode, sin(n j pi / (n + 1)), is odd.  The odd
        sector's factor at the even sector's lambda_1 fails, so the solve
        starts again on the whole pencil and returns its lambda_1."""
        n = 50
        K, M = (assemble.KroneckerForm(n, [(sparse.dia_array(A),)],
                                       point_symmetric=True)
                for A in (sparse.diags([1.0, 2.0, 1.0], [-1, 0, 1],
                                       shape=(n, n)), sparse.identity(n)))
        pair = eig.smallest_eigenpairs(K, M)[0]
        assert pair.value == pytest.approx(2 - 2 * np.cos(np.pi / (n + 1)),
                                           rel=1e-10)
        np.testing.assert_allclose(pair.vector, -pair.vector[::-1],
                                   atol=1e-10)
        # the even factor Lanczos ran on, then the whole one; the failed
        # odd certificate is not listed
        assert [f.chol.band.shape[1] for f in factors] == [n // 2, n]

    def test_a_coupled_p2_field_runs_in_its_point_even_sector(self,
                                                              factors):
        """BOTH_ROWS couples both axial rows to the cross direction, so its
        multi-direction pencil records no uncoupled axis and does not
        separate.  It is even in X2, so a one-pair solve runs whole in the
        even sector of the point reflection, kept by the odd sector's
        factor, and matches the dense lambda_1."""
        mesh = grid.build_mesh("multi-direction", ell=1, omega=(-1, 1),
                               resolution=(3, 3, 6))
        K, M = assemble.assemble_cylinder(mesh, BOTH_ROWS)
        assert K.uncoupled_axis is None and K.point_symmetric
        dense = scipy.linalg.eigh(proofs.full(K).toarray(),
                                  proofs.full(M).toarray(),
                                  eigvals_only=True,
                                  subset_by_index=[0, 0])[0]
        pair = eig.smallest_eigenpairs(K, M)[0]
        assert pair.value == pytest.approx(dense, rel=1e-10)
        assert np.array_equal(pair.vector, pair.vector[::-1])
        # the even factor Lanczos ran on and the odd certificate
        n = K.dim
        assert [f.chol.band.shape[1] for f in factors] == [n - n // 2,
                                                            n // 2]
        assert [f.applications > 0 for f in factors] == [True, False]

    def test_floor_with_unshared_pattern(self):
        # tridiagonal K against a diagonal M: M reaches fewer band rows
        n = 500
        K = proofs.form(sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                                     shape=(n, n)))
        M = proofs.form(sparse.identity(n))
        exact = 4 * np.sin(np.arange(1, 3) * np.pi / (2 * (n + 1)))**2
        pairs = eig.smallest_eigenpairs(K, M, count=2, floor=exact[0] / 2)
        for p, e in zip(pairs, exact):
            assert p.value == pytest.approx(e, rel=1e-10)

    def test_schur_floor_saves_operator_applications(self, cylinder_16,
                                                     factors):
        K, M, schur, _ = cylinder_16
        values = [eig.smallest_eigenpairs(K, M, seed=0, floor=floor)[0].value
                  for floor in (0.0, schur)]
        assert values[1] == pytest.approx(values[0], rel=1e-10)
        at_zero, at_floor = (f.applications
                             for f in lanczos_factors(factors))
        # 34 against 58 in the even sector when measured (70 against 157
        # on the whole pencil)
        assert 0 < at_floor < at_zero

    def test_singular_above_cutoff_is_factorization_failed(self):
        n = 500
        K = proofs.form(sparse.diags(np.arange(n, dtype=float)))  # K00 = 0
        M = proofs.form(sparse.identity(n))
        with pytest.raises(FactorizationFailed, match="singular"):
            eig.smallest_eigenpairs(K, M)

    def test_symmetric_ordering_fills_less_than_default(self, pencil_3d):
        # the band stores n (b + 1) values: 537 420 against an L + U fill
        # of 673 164 for SuperLU's default ordering when measured
        K, M = pencil_3d[:2]
        band = eig._factor(eig.BandRows(K, M), 0.0, None).band
        default = splu(proofs.full(K).tocsc())
        assert band.size < default.L.nnz + default.U.nnz

    @pytest.mark.parametrize("kind, dirichlet, grading, resolution", [
        ("full-cylinder", False, 1, (4, 8)),
        ("half-plus", False, 1, (4, 8)),
        ("half-minus", False, 1, (4, 8)),
        ("full-cylinder", False, 2, (4, 8)),
        ("full-cylinder", True, 1, (4, 8)),
        ("multi-direction", False, 1, (2, 2, 4)),
    ], ids=["full", "half-plus", "half-minus", "graded", "full-dirichlet",
            "p2"])
    def test_band_read_is_max_offset(self, model06, kind, dirichlet,
                                     grading, resolution):
        field = coeff.multi_model_field(0.6) if kind == "multi-direction" \
            else model06
        mesh = grid.build_mesh(kind, ell=2, omega=(-1, 1),
                               resolution=resolution, grading=grading)
        if dirichlet:
            mesh = grid.with_full_dirichlet(mesh)
        K, M = assemble.assemble_cylinder(mesh, field)
        coo = proofs.full(K).tocoo()
        b = eig.BandRows(K, M).band(0.0, None).shape[0] - 1
        assert b == np.abs(coo.row - coo.col).max()

    def test_separable_second_eigenvalue(self):
        field = coeff.identity_field()
        mesh = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                               resolution=32)
        K, M = assemble.assemble_cylinder(mesh, field)
        pairs = eig.smallest_eigenpairs(K, M, count=2)
        exact = separable_mixed_spectrum(1.0)
        assert pairs[0].value == pytest.approx(exact[0], rel=3e-3)
        assert pairs[1].value == pytest.approx(exact[1], rel=3e-3)


class CountingForm:
    """A form that counts its products with vectors and blocks."""

    def __init__(self, form):
        self.form, self.dim, self.terms = form, form.dim, form.terms
        self.point_symmetric = form.point_symmetric
        self.uncoupled_axis = form.uncoupled_axis
        self.products = 0

    def __matmul__(self, u):
        self.products += 1
        return self.form @ u


class TestSymmetricOperator:
    """Lanczos runs in ARPACK's standard mode on C = L^-1 M L^-T, where
    K - sigma M = L L^T is the banded factor."""

    @pytest.mark.parametrize("pencil", ["cylinder_16", "pencil_3d"])
    def test_operator_is_symmetric_to_rounding(self, request, pencil):
        K, M = request.getfixturevalue(pencil)[:2]
        chol = eig._factor(eig.BandRows(K, M), 0.0, None)
        y, z = np.random.default_rng(1).standard_normal((2, K.dim))
        Cy, Cz = chol.shift_invert(M, y), chol.shift_invert(M, z)
        # 4.5e-18 relative on both pencils when measured
        assert abs(y @ Cz - z @ Cy) <= (10 * np.finfo(float).eps
                                        * np.linalg.norm(y)
                                        * np.linalg.norm(Cz))

    def test_one_mass_product_per_application(self, cylinder_16, factors):
        """A guessed solve of the ell = 16 model pencil applies M once per
        Lanczos step and once after it, a product that M-normalizes, checks
        the Gram matrix and enters the residual; the odd-sector certificate
        reads M's band rows and applies nothing.  ARPACK's generalized
        mode, with the M inner product, made 42 products for 13 steps
        here."""
        K, M, floor, margin = cylinder_16
        lam = eig.smallest_eigenpairs(K, M, floor=floor)[0].value
        factors.clear()
        M = CountingForm(M)
        eig.smallest_eigenpairs(K, M, floor=floor, guess=lam - margin)
        chol, certificate = factors
        assert chol.applications > 0 and chol.sector.sign == 1
        assert certificate.applications == 0 and certificate.sector.sign == -1
        assert M.products == chol.applications + 1

    def test_fine_cross_section_converges(self):
        """The back-transform u = L^-T y keeps the residual's rounding
        floor under DEFAULT_TOL at 1 500 cells per unit (5.4e-10 when
        measured, on every seed), where shift-invert in ARPACK's
        generalized mode reached 1.1e-9 and raised NoConvergence."""
        mesh = grid.build_mesh("cross-section", omega=(-1, 1),
                               resolution=1500)
        K, M = assemble.assemble_cross_section(mesh, coeff.model_field(0.6))
        for seed in range(3):
            pair = eig.smallest_eigenpairs(K, M, seed=seed)[0]
            assert pair.residual <= eig.DEFAULT_TOL
            assert pair.value == pytest.approx(MU1, rel=1e-2)


def budget_pencil(kind):
    """A small pencil of each domain kind, with the cross-section's and
    the all-Dirichlet cylinder's, on the model fields, and on BOTH_ROWS
    for the multi-direction one, whose pencil does not separate."""
    if kind == "cross-section":
        mesh = grid.build_mesh(kind, omega=(-1, 1), resolution=8)
        return assemble.assemble_cross_section(mesh, coeff.model_field(0.6))
    if kind == "multi-direction":
        mesh = grid.build_mesh(kind, ell=1, omega=(-1, 1),
                               resolution=(3, 3, 12))
        return assemble.assemble_cylinder(mesh, BOTH_ROWS)
    mesh = grid.build_mesh(kind.removesuffix("-dirichlet"), ell=2,
                           omega=(-1, 1), resolution=(4, 8))
    if kind.endswith("-dirichlet"):
        mesh = grid.with_full_dirichlet(mesh)
    return assemble.assemble_cylinder(mesh, coeff.model_field(0.6))


class TestMemoryBudget:
    @pytest.mark.parametrize("kind", [
        "full-cylinder", "half-plus", "half-minus", "full-cylinder-dirichlet",
        "multi-direction", "cross-section"])
    def test_the_budget_is_exact_at_the_band(self, kind, monkeypatch):
        """The budget bounds the largest band a solve allocates: the even
        sector's, n - n // 2 columns, on the point-symmetric pencils, and
        the whole band on the half-cylinders."""
        K, M = budget_pencil(kind)
        bands = []
        band = eig.BandRows.band

        def recorded(rows, shift, sector):
            bands.append(band(rows, shift, sector))
            return bands[-1]

        monkeypatch.setattr(eig.BandRows, "band", recorded)
        eig.smallest_eigenpairs(K, M)
        largest = max(bands, key=lambda a: a.nbytes)
        n = K.dim
        assert largest.shape[1] == (n if kind.startswith("half")
                                    else n - n // 2)
        nbytes = largest.nbytes
        monkeypatch.setattr(eig, "MEMORY_BUDGET", nbytes)
        assert eig.smallest_eigenpairs(K, M)[0].value > 0
        monkeypatch.setattr(eig, "MEMORY_BUDGET", nbytes - 1)
        with pytest.raises(MemoryBudget, match=f" takes {nbytes} bytes"):
            eig.smallest_eigenpairs(K, M)


class TestGuessedShift:
    """A guess above the floor is a shift the banded factor certifies or
    rejects; a rejected guess leaves the floor solve as it was."""

    def test_guess_above_lambda1_falls_back_to_the_floor(self, cylinder_16,
                                                         factors):
        K, M, floor, _ = cylinder_16
        at_floor = eig.smallest_eigenpairs(K, M, count=2, floor=floor)
        guessed = eig.smallest_eigenpairs(K, M, count=2, floor=floor,
                                          guess=at_floor[0].value + 1e-3)
        for g, f in zip(guessed, at_floor):
            assert g.value == f.value
            np.testing.assert_array_equal(g.vector, f.vector)
        # the guess did not factor; both solves ran on a floor factor
        assert factors[0].applications > 0
        assert [f.applications for f in factors] == \
            [factors[0].applications] * 2

    @pytest.mark.parametrize("count", [1, 2])
    def test_guess_below_lambda1_is_used(self, cylinder_16, factors, count):
        K, M, floor, margin = cylinder_16
        at_floor = eig.smallest_eigenpairs(K, M, count=count, floor=floor)
        # the guess a run makes from this pencil's own lambda_1
        guessed = eig.smallest_eigenpairs(
            K, M, count=count, floor=floor,
            guess=at_floor[0].value - margin)
        for g, f in zip(guessed, at_floor):
            assert g.value == pytest.approx(f.value, rel=1e-12)
        floor_apps, guess_apps = (f.applications
                                  for f in lanczos_factors(factors))
        assert 0 < guess_apps <= 25 and guess_apps < floor_apps
        # 7 against 34 at count 1 (in the even sector; 10 against 70
        # whole) and 15 against 69 at count 2 when measured

    def test_small_basis_keeps_the_near_degenerate_pair(self, cylinder_16,
                                                        monkeypatch):
        """At count 2, at the floor and at a guess, the basis of
        2 count + 4 = 8 vectors finds both eigenvalues of the end pair
        (lambda2 - lambda1 = 9.4e-6) that ARPACK's default 20 vectors
        find."""
        K, M, floor, margin = cylinder_16
        at_floor = eig.smallest_eigenpairs(K, M, count=2, floor=floor)
        guess = at_floor[0].value - margin
        guessed = eig.smallest_eigenpairs(K, M, count=2, floor=floor,
                                          guess=guess)
        eigsh = eig.eigsh
        monkeypatch.setattr(eig, "eigsh",
                            lambda *a, **kw: eigsh(*a, **{**kw, "ncv": 20}))
        for small, shift in ((at_floor, None), (guessed, guess)):
            wide = eig.smallest_eigenpairs(K, M, count=2, floor=floor,
                                           guess=shift)
            assert 0 < small[1].value - small[0].value < 1e-5
            for s, w in zip(small, wide):
                assert s.value == pytest.approx(w.value, rel=1e-12)

    def test_floor_at_or_above_lambda1_raises_whatever_the_guess(
            self, cylinder_16):
        K, M, floor, _ = cylinder_16
        lam = eig.smallest_eigenpairs(K, M, floor=floor)[0].value
        for bad_floor in (lam * (1 + 1e-6), lam + 0.1):
            for guess in (None, floor, bad_floor + 0.1):
                with pytest.raises(FactorizationFailed, match="floor"):
                    eig.smallest_eigenpairs(K, M, floor=bad_floor,
                                            guess=guess)

    def test_small_cylinder_takes_the_guess(self, model06, factors):
        """The resolution-4 cylinder (n = 119) is factored and solved by
        Lanczos like every larger pencil, at a certified guess too."""
        mesh = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=4)
        K, M = assemble.assemble_cylinder(mesh, model06)
        margin = experiments.cross_context(
            model06, experiments.ExperimentConfig(resolution=4)).margin
        factors.clear()  # the cross-section solves of the context
        at_floor = eig.smallest_eigenpairs(K, M, count=2)
        guessed = eig.smallest_eigenpairs(
            K, M, count=2, guess=at_floor[0].value - margin)
        for g, f in zip(guessed, at_floor):
            assert g.value == pytest.approx(f.value, rel=1e-12)
        # 14 against 21 applications when measured
        floor_apps, guess_apps = (f.applications for f in factors)
        assert 0 < guess_apps <= floor_apps


class TestTrialSpaceMonotonicity:
    def test_mixed_below_dirichlet(self, model06):
        mesh = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                               resolution=8)
        K, M = assemble.assemble_cylinder(mesh, model06)
        Kd, Md = assemble.assemble_cylinder(
            grid.with_full_dirichlet(mesh), model06)
        lam = eig.smallest_eigenpairs(K, M)[0].value
        sig = eig.smallest_eigenpairs(Kd, Md)[0].value
        assert lam <= sig + 1e-8

    def test_half_cylinder_upper_bounds_half_length(self, model06):
        # lambda_{L/2} <= tilde-lambda_L^+ via exact extension by zero
        L = 8
        half = grid.build_mesh("half-plus", ell=L, omega=(-1, 1),
                               resolution=(8, 16))
        cyl = grid.build_mesh("full-cylinder", ell=L / 2, omega=(-1, 1),
                              resolution=(8, 16))
        Kh, Mh = assemble.assemble_cylinder(half, model06)
        Kc, Mc = assemble.assemble_cylinder(cyl, model06)
        ph = eig.smallest_eigenpairs(Kh, Mh)[0]
        pc = eig.smallest_eigenpairs(Kc, Mc)[0]
        assert pc.value <= ph.value + 1e-8
        # matrix-level check: the extension preserves both energies
        ext = proofs.extend_by_zero(half, cyl, ph.vector, shift=-L / 2)
        assert proofs.energy(Kc, ext) == pytest.approx(
            proofs.energy(Kh, ph.vector), rel=1e-12)
        assert proofs.energy(Mc, ext) == pytest.approx(
            proofs.energy(Mh, ph.vector), rel=1e-12)

    def test_half_monotone_in_length(self, model06):
        vals = []
        for L in (4, 8):
            mesh = grid.build_mesh("half-plus", ell=L, omega=(-1, 1),
                                   resolution=(8, 16))
            K, M = assemble.assemble_cylinder(mesh, model06)
            vals.append(eig.smallest_eigenpairs(K, M)[0].value)
        assert vals[1] <= vals[0] + 1e-9
