import itertools

import numpy as np
import pytest

from cylgap import grid
from cylgap.errors import (BadResolution, MemoryBudget, MeshMismatch,
                           NoReflectionSymmetry)

import proofs


def boundary_nodes(mesh):
    """Nodes on a face of the box, read off their coordinates."""
    x = proofs.node_coords(mesh)
    on = (x == x.min(axis=0)) | (x == x.max(axis=0))
    return np.flatnonzero(on.any(axis=1))


def free_boundary_nodes(mesh):
    return np.intersect1d(boundary_nodes(mesh), mesh.free_nodes)


def clamped_face_nodes(mesh, ell, omega, full_dirichlet=False):
    """Nodes on a clamped face, from their coordinates and the domain kind
    alone: the lateral faces (X2 on the boundary of omega), the x1 = ell
    face of a half-plus and the x1 = -ell face of a half-minus, and every
    axial face of a full-Dirichlet mesh."""
    x = proofs.node_coords(mesh)
    omega = np.reshape(omega, (-1, 2))
    p = x.shape[1] - len(omega)
    on = np.zeros(len(x), dtype=bool)
    for j, (lo, hi) in enumerate(omega):
        on |= (x[:, p + j] == lo) | (x[:, p + j] == hi)
    if p:
        faces = [-ell, ell] if full_dirichlet else {
            "half-plus": [ell], "half-minus": [-ell]}.get(mesh.domain_kind, [])
        on |= np.isin(x[:, :p], faces).any(axis=1)
    return np.flatnonzero(on)


TAG_CASES = {
    "full": ("full-cylinder", 2, (-1, 1), 4, False),
    "half-plus": ("half-plus", 2, (-1, 1), 4, False),
    "half-minus": ("half-minus", 2, (-1, 1), 4, False),
    "cross": ("cross-section", None, (-1, 1), 4, False),
    "multi": ("multi-direction", 2, (-1, 1), (2, 2, 4), False),
    "full-dirichlet": ("full-cylinder", 2, (-1, 1), 4, True),
    "multi-dirichlet": ("multi-direction", 2, (-1, 1), (2, 2, 4), True),
    "box": ("full-cylinder", 2, ((-1, 1), (0, 2)), (2, 4, 3), False),
    "cross-box": ("cross-section", None, ((-1, 1), (0, 2)), (4, 3), False),
}


def tag_case(name):
    kind, ell, omega, res, dirichlet = TAG_CASES[name]
    m = grid.build_mesh(kind, ell=ell, omega=omega, resolution=res)
    return grid.with_full_dirichlet(m) if dirichlet else m


class TestBuildMesh:
    def test_full_cylinder_counts(self):
        m = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                            resolution=4)
        assert m.cells_shape == (8, 8)
        assert m.n_nodes == 81
        # free end nodes: {x1 = +-1} x interior omega = 2 * 7
        assert len(free_boundary_nodes(m)) == 14
        # Dirichlet: every node with x2 = +-1
        assert len(proofs.dirichlet_nodes(m)) == 18
        coords = proofs.node_coords(m)
        assert np.all(np.abs(coords[proofs.dirichlet_nodes(m)][:, 1]) == 1.0)

    def test_cross_section_counts(self):
        m = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        assert m.n_cells == 16
        assert m.n_nodes == 17
        assert len(proofs.dirichlet_nodes(m)) == 2

    def test_half_plus_tags(self):
        m = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=4)
        coords = proofs.node_coords(m)
        at_far_end = np.flatnonzero(coords[:, 0] == 4.0)
        assert set(at_far_end) <= set(proofs.dirichlet_nodes(m))
        free_face = coords[free_boundary_nodes(m)]
        assert np.all(free_face[:, 0] == 0.0)

    def test_every_boundary_node_tagged_once(self):
        for name, (_, ell, omega, _, dirichlet) in TAG_CASES.items():
            m = tag_case(name)
            d = set(proofs.dirichlet_nodes(m))
            f = set(free_boundary_nodes(m))
            assert not d & f, name
            boundary = set(boundary_nodes(m))
            assert d | f == boundary, name
            assert d == set(clamped_face_nodes(m, ell, omega, dirichlet)), name
            assert set(m.free_nodes) == set(range(m.n_nodes)) - d, name
            assert np.all(np.diff(m.free_nodes) > 0), name

    def test_half_matches_restricted_cylinder(self):
        full = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                               resolution=4)
        half = grid.build_mesh("half-plus", ell=4, omega=(-1, 1),
                               resolution=4)
        x_full = full.axis_partitions[0]
        np.testing.assert_allclose(x_full[x_full >= 0],
                                   half.axis_partitions[0])
        np.testing.assert_allclose(full.axis_partitions[1],
                                   half.axis_partitions[1])

    def test_multi_direction(self):
        m = grid.build_mesh("multi-direction", ell=2, omega=(-1, 1),
                            resolution=(2, 2, 4))
        assert m.ndim == 3 and m.n_axial == 2
        coords = proofs.node_coords(m)
        assert np.all(np.abs(coords[proofs.dirichlet_nodes(m)][:, 2]) == 1.0)

    def test_bad_resolution(self):
        with pytest.raises(BadResolution):
            grid.build_mesh("full-cylinder", ell=0.1, omega=(-1, 1),
                            resolution=4)

    def test_memory_budget(self):
        # one axis over the budget fails before any node is made; axes
        # each within it fail on their product of nodes, even where the
        # band would be small (38 MB at b = 4 on the last mesh)
        for resolution in (1e9, (1250, 10_000), (20_000, 2)):
            with pytest.raises(MemoryBudget):
                grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                                resolution=resolution)

    def test_measure(self):
        m = grid.build_mesh("full-cylinder", ell=3, omega=(-1, 1),
                            resolution=4)
        spans = [p[-1] - p[0] for p in m.axis_partitions]
        assert np.prod(spans) == pytest.approx(12.0)
        assert m.cell_volumes().sum() == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("kind, omega, res", [
        ("cross-section", ((-1, 1), (0, 2)), (3, 2)),
        ("half-plus", (-1, 1), (3, 4)),
        ("multi-direction", (-1, 1), (2, 3, 3)),
    ])
    def test_cell_corners_against_coords(self, kind, omega, res):
        # corner k of a cell is its origin plus its size times the k-th
        # 0/1 offset, the offsets ordered with the last axis fastest
        m = grid.build_mesh(kind, ell=2, omega=omega, resolution=res,
                            grading=2)
        offsets = np.array(list(itertools.product((0, 1), repeat=m.ndim)))
        np.testing.assert_allclose(
            proofs.node_coords(m)[proofs.cell_node_indices(m)],
            m.cell_origins()[:, None] + m.cell_sizes()[:, None] * offsets,
            rtol=0, atol=1e-12)


class TestGrading:
    def test_bands_refined_near_free_ends(self):
        m = grid.build_mesh("full-cylinder", ell=6, omega=(-1, 1),
                            resolution=4, grading=2)
        x = m.axis_partitions[0]
        h = np.diff(x)
        assert h[x[:-1] < -5.0].max() == pytest.approx(1 / 8)
        assert h[np.abs(x[:-1] + 2) < 1.0].min() == pytest.approx(1 / 4)
        assert h[x[:-1] >= 5.0].max() == pytest.approx(1 / 8)

    def test_half_plus_grades_free_end_only(self):
        m = grid.build_mesh("half-plus", ell=6, omega=(-1, 1), resolution=4,
                            grading=2)
        x = m.axis_partitions[0]
        h = np.diff(x)
        assert h[x[:-1] < 1.0].max() == pytest.approx(1 / 8)
        assert h[x[:-1] > 5.0].min() == pytest.approx(1 / 4)

    def test_short_axis_ignores_grading(self):
        m = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                            resolution=4, grading=2)
        assert np.allclose(np.diff(m.axis_partitions[0]), 1 / 4)

    def test_graded_half_nests_into_graded_cylinder(self):
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=4, grading=2)
        cyl = grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                              resolution=4, grading=2)
        mapping = proofs.free_embedding(half, cyl, shift=-8.0)
        assert len(mapping) == half.n_free
        assert len(set(mapping.tolist())) == half.n_free


class TestReflection:
    def test_involution(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        perm = grid.reflection_permutation(m)
        np.testing.assert_array_equal(perm[perm], np.arange(m.n_nodes))
        coords = proofs.node_coords(m)
        np.testing.assert_allclose(coords[perm], -coords, atol=1e-14)

    def test_free_permutation_closed(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        fp = proofs.free_reflection_permutation(m)
        assert sorted(fp.tolist()) == list(range(m.n_free))

    def test_p2_and_full_dirichlet_against_coords(self):
        for name in ("multi", "full-dirichlet", "multi-dirichlet", "cross"):
            m = tag_case(name)
            coords = proofs.node_coords(m)
            perm = grid.reflection_permutation(m)
            np.testing.assert_allclose(coords[perm], -coords, atol=1e-14)
            free_xy = coords[m.free_nodes]
            fp = proofs.free_reflection_permutation(m)
            assert sorted(fp.tolist()) == list(range(m.n_free)), name
            np.testing.assert_allclose(free_xy[fp], -free_xy, atol=1e-14)

    @pytest.mark.parametrize("kind, ell, res, grading", [
        ("cross-section", None, 1000, 1), ("cross-section", None, 1500, 1),
        ("full-cylinder", 4, (250, 8), 2), ("full-cylinder", 3, (3.5, 7.5), 1),
        ("multi-direction", 2, (3.25, 3.25, 4.5), 1)],
        ids=["2000-cells", "3000-cells", "graded", "odd-cells", "p2"])
    def test_symmetric_axes_mirror_exactly(self, kind, ell, res, grading):
        """Every axis symmetric about 0 mirrors bit for bit: its widths
        read the same backwards, and the reflection permutation maps each
        node onto its exact negative.  linspace(-1, 1, n + 1) alone misses
        by 2.2e-13 and 3.3e-13 relative in the widths at 2 000 and 3 000
        cells."""
        m = grid.build_mesh(kind, ell=ell, omega=(-1, 1), resolution=res,
                            grading=grading)
        for part in m.axis_partitions:
            widths = np.diff(part)
            assert np.array_equal(widths, widths[::-1])
        coords = proofs.node_coords(m)
        assert np.array_equal(coords[grid.reflection_permutation(m)],
                              -coords)

    def test_asymmetric_omega_rejected(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(0, 2),
                            resolution=4)
        with pytest.raises(NoReflectionSymmetry):
            grid.reflection_permutation(m)

    def test_half_meshes_rejected(self):
        m = grid.build_mesh("half-plus", ell=2, omega=(-1, 1), resolution=4)
        with pytest.raises(NoReflectionSymmetry):
            grid.reflection_permutation(m)


class TestEmbedding:
    def test_half_into_longer_half(self):
        sub = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=4)
        sup = grid.build_mesh("half-plus", ell=8, omega=(-1, 1), resolution=4)
        mapping = proofs.free_embedding(sub, sup)
        sub_xy = proofs.node_coords(sub)[sub.free_nodes]
        sup_xy = proofs.node_coords(sup)[sup.free_nodes]
        np.testing.assert_allclose(sup_xy[mapping], sub_xy, atol=1e-12)

    def test_half_into_translated_cylinder(self):
        # the half-cylinder trial space embeds into the half-length
        # cylinder after translation (its far-end zero is free there)
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=4)
        cyl = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                              resolution=4)
        mapping = proofs.free_embedding(half, cyl, shift=-4.0)
        assert len(mapping) == half.n_free

    def test_p2_and_full_dirichlet_against_coords(self):
        def embedded(sub, sup, shift=None):
            mapping = proofs.free_embedding(sub, sup, shift)
            sub_xy = proofs.node_coords(sub)[sub.free_nodes]
            if shift is not None:
                sub_xy = sub_xy + (np.eye(sub.ndim)[0] * shift
                                   if np.isscalar(shift) else shift)
            sup_xy = proofs.node_coords(sup)[sup.free_nodes]
            np.testing.assert_allclose(sup_xy[mapping], sub_xy, atol=1e-12)
            assert len(set(mapping.tolist())) == sub.n_free

        def multi(ell):
            return grid.build_mesh("multi-direction", ell=ell,
                                   omega=(-1, 1), resolution=(2, 2, 4))

        def full(ell):
            return grid.build_mesh("full-cylinder", ell=ell, omega=(-1, 1),
                                   resolution=4)

        dirichlet = grid.with_full_dirichlet
        embedded(multi(1), multi(2))
        embedded(multi(1), multi(2), shift=(0.5, -1.0, 0.0))
        embedded(dirichlet(multi(1)), dirichlet(multi(2)))
        embedded(dirichlet(full(2)), full(2))
        embedded(full(1), dirichlet(full(2)), shift=0.5)
        # free axial ends land on the clamped ends of the same box
        for sub, sup in ((full(2), dirichlet(full(2))),
                         (multi(2), dirichlet(multi(2)))):
            with pytest.raises(MeshMismatch):
                proofs.free_embedding(sub, sup)

    def test_mismatched_spacing_rejected(self):
        sub = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=3)
        sup = grid.build_mesh("half-plus", ell=8, omega=(-1, 1), resolution=4)
        with pytest.raises(MeshMismatch):
            proofs.free_embedding(sub, sup)

    def test_extend_by_zero_round_trip(self):
        sub = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=4)
        sup = grid.build_mesh("half-plus", ell=8, omega=(-1, 1), resolution=4)
        v = np.arange(sub.n_free, dtype=float)
        ext = proofs.extend_by_zero(sub, sup, v)
        assert ext.sum() == v.sum()
        assert np.count_nonzero(ext) == np.count_nonzero(v)


class TestFullDirichlet:
    def test_all_boundary_clamped(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        d = grid.with_full_dirichlet(m)
        assert len(free_boundary_nodes(d)) == 0
        assert d.n_free < m.n_free
        assert set(d.free_nodes) <= set(m.free_nodes)


class TestMeshKey:
    def test_cross_sections_on_shifted_omega_differ(self):
        a, b = (grid.build_mesh("cross-section", omega=omega, resolution=8)
                for omega in ((-1, 1), (0, 2)))
        assert a.cells_shape == b.cells_shape
        assert a.key != b.key

    def test_full_dirichlet_variant_differs(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        assert grid.with_full_dirichlet(m).key != m.key
        assert grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                               resolution=4).key == m.key
