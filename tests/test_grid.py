import numpy as np
import pytest

from cylgap import grid
from cylgap.errors import (BadResolution, MemoryBudget, MeshMismatch,
                           NoReflectionSymmetry)


class TestBuildMesh:
    def test_full_cylinder_counts(self):
        m = grid.build_mesh("full-cylinder", ell=1, omega=(-1, 1),
                            resolution=4)
        assert m.cells_shape == (8, 8)
        assert m.n_nodes == 81
        # free end nodes: {x1 = +-1} x interior omega = 2 * 7
        assert len(m.free_boundary_nodes) == 14
        # Dirichlet: every node with x2 = +-1
        assert len(m.dirichlet_nodes) == 18
        coords = m.node_coords()
        assert np.all(np.abs(coords[m.dirichlet_nodes][:, 1]) == 1.0)

    def test_cross_section_counts(self):
        m = grid.build_mesh("cross-section", omega=(-1, 1), resolution=8)
        assert m.n_cells == 16
        assert m.n_nodes == 17
        assert len(m.dirichlet_nodes) == 2

    def test_half_plus_tags(self):
        m = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=4)
        coords = m.node_coords()
        at_far_end = np.flatnonzero(coords[:, 0] == 4.0)
        assert set(at_far_end) <= set(m.dirichlet_nodes)
        free_face = coords[m.free_boundary_nodes]
        assert np.all(free_face[:, 0] == 0.0)

    def test_every_boundary_node_tagged_once(self):
        for kind, ell in (("full-cylinder", 2), ("half-plus", 2),
                          ("half-minus", 2), ("cross-section", None)):
            m = grid.build_mesh(kind, ell=ell, omega=(-1, 1), resolution=4)
            d = set(m.dirichlet_nodes)
            f = set(m.free_boundary_nodes)
            assert not d & f
            boundary = set(np.flatnonzero(m._boundary_mask))
            assert d | f == boundary

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
        coords = m.node_coords()
        assert np.all(np.abs(coords[m.dirichlet_nodes][:, 2]) == 1.0)

    def test_bad_resolution(self):
        with pytest.raises(BadResolution):
            grid.build_mesh("full-cylinder", ell=0.1, omega=(-1, 1),
                            resolution=4)

    def test_memory_budget(self):
        with pytest.raises(MemoryBudget):
            grid.build_mesh("full-cylinder", ell=8, omega=(-1, 1),
                            resolution=64, node_cap=1000)

    def test_measure(self):
        m = grid.build_mesh("full-cylinder", ell=3, omega=(-1, 1),
                            resolution=4)
        spans = [p[-1] - p[0] for p in m.axis_partitions]
        assert np.prod(spans) == pytest.approx(12.0)
        assert m.cell_volumes().sum() == pytest.approx(12.0, rel=1e-12)


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
        mapping = grid.free_embedding(half, cyl, shift=-8.0)
        assert len(mapping) == half.n_free
        assert len(set(mapping.tolist())) == half.n_free


class TestReflection:
    def test_involution(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        perm = grid.reflection_permutation(m)
        np.testing.assert_array_equal(perm[perm], np.arange(m.n_nodes))
        coords = m.node_coords()
        np.testing.assert_allclose(coords[perm], -coords, atol=1e-14)

    def test_free_permutation_closed(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        fp = grid.free_reflection_permutation(m)
        assert sorted(fp.tolist()) == list(range(m.n_free))

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
        mapping = grid.free_embedding(sub, sup)
        sub_xy = sub.node_coords()[sub.free_nodes]
        sup_xy = sup.node_coords()[sup.free_nodes]
        np.testing.assert_allclose(sup_xy[mapping], sub_xy, atol=1e-12)

    def test_half_into_translated_cylinder(self):
        # the half-cylinder trial space embeds into the half-length
        # cylinder after translation (its far-end zero is free there)
        half = grid.build_mesh("half-plus", ell=8, omega=(-1, 1),
                               resolution=4)
        cyl = grid.build_mesh("full-cylinder", ell=4, omega=(-1, 1),
                              resolution=4)
        mapping = grid.free_embedding(half, cyl, shift=-4.0)
        assert len(mapping) == half.n_free

    def test_mismatched_spacing_rejected(self):
        sub = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=3)
        sup = grid.build_mesh("half-plus", ell=8, omega=(-1, 1), resolution=4)
        with pytest.raises(MeshMismatch):
            grid.free_embedding(sub, sup)

    def test_extend_by_zero_round_trip(self):
        sub = grid.build_mesh("half-plus", ell=4, omega=(-1, 1), resolution=4)
        sup = grid.build_mesh("half-plus", ell=8, omega=(-1, 1), resolution=4)
        v = np.arange(sub.n_free, dtype=float)
        ext = grid.extend_by_zero(sub, sup, v)
        assert ext.sum() == v.sum()
        assert np.count_nonzero(ext) == np.count_nonzero(v)


class TestFullDirichlet:
    def test_all_boundary_clamped(self):
        m = grid.build_mesh("full-cylinder", ell=2, omega=(-1, 1),
                            resolution=4)
        d = grid.with_full_dirichlet(m)
        assert len(d.free_boundary_nodes) == 0
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
