import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from multifem.mesh import (
    EmptySelectionError, Mesh, MeshError, OutOfDomainError, cell_submesh,
    facet_submesh, near, polyline_mesh, read_mesh_ascii, unit_cube_mesh,
    unit_square_mesh, write_mesh_ascii,
)


def boundary_of_unit_square(p):
    return near(p[..., 0], 0) | near(p[..., 0], 1) | near(p[..., 1], 0) | near(p[..., 1], 1)


class TestGenerators:
    def test_minimal_square_split(self):
        m = unit_square_mesh(1, 1)
        assert m.num_cells == 2 and m.num_vertices == 4

    def test_square_counts(self):
        m = unit_square_mesh(2, 2)
        assert m.num_cells == 8 and m.num_vertices == 9

    @pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (4, 7)])
    def test_square_area_partition(self, n, m):
        mesh = unit_square_mesh(n, m)
        assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-12

    def test_square_offset_extent(self):
        mesh = unit_square_mesh(3, 6, offset=(0.5, 0.0), extent=(0.5, 1.0))
        assert abs(mesh.cell_volumes.sum() - 0.5) < 1e-12
        assert mesh.vertices[:, 0].min() == pytest.approx(0.5)
        assert mesh.vertices[:, 0].max() == pytest.approx(1.0)

    def test_cube_counts(self):
        assert unit_cube_mesh(1).num_cells == 6
        assert unit_cube_mesh(1).num_vertices == 8
        assert unit_cube_mesh(2).num_cells == 48

    def test_cube_volume(self):
        assert abs(unit_cube_mesh(2).cell_volumes.sum() - 1.0) < 1e-12

    def test_polyline_counts_and_length(self):
        g = polyline_mesh([(0.5, 0.5, 0.1), (0.5, 0.5, 0.9)], 4)
        assert g.num_cells == 4 and g.num_vertices == 5
        assert abs(g.cell_volumes.sum() - 0.8) < 1e-12

    def test_polyline_tangent_straight(self):
        g = polyline_mesh([(0.5, 0.5, 0.1), (0.5, 0.5, 0.9)], 4)
        t = g.vertices[g.cells[:, 1]] - g.vertices[g.cells[:, 0]]
        t /= np.linalg.norm(t, axis=1)[:, None]
        assert np.allclose(t, [0, 0, 1], atol=1e-14)

    def test_generator_determinism_bitwise(self):
        a, b = unit_square_mesh(5, 3), unit_square_mesh(5, 3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cells, b.cells)
        c, d = unit_cube_mesh(2), unit_cube_mesh(2)
        assert np.array_equal(c.vertices, d.vertices)
        assert np.array_equal(c.cells, d.cells)

    def test_invalid_arguments(self):
        with pytest.raises(MeshError):
            unit_square_mesh(0, 1)
        with pytest.raises(MeshError):
            unit_square_mesh(2, 2, extent=(0.0, 1.0))
        with pytest.raises(MeshError):
            unit_cube_mesh(0)
        with pytest.raises(MeshError):
            polyline_mesh([(0, 0), (0, 0)], 2)

    @pytest.mark.parametrize("count", [2.7, 2.0, np.float64(3.0), True, 0, -3, "2"])
    @pytest.mark.parametrize("make", [
        unit_cube_mesh, unit_square_mesh, lambda c: unit_square_mesh(2, c),
        lambda c: polyline_mesh([(0, 0), (1, 1)], c)],
        ids=["cube", "square-n", "square-m", "polyline"])
    def test_counts_must_be_integers(self, make, count):
        with pytest.raises(MeshError, match="must be an integer >= 1"):
            make(count)

    def test_numpy_integer_counts_accepted(self):
        assert unit_cube_mesh(np.int64(2)).num_cells == 48
        assert unit_square_mesh(np.int32(2), np.uint8(3)).num_cells == 12
        assert polyline_mesh([(0, 0), (1, 1)], np.int16(4)).num_cells == 4

    @pytest.mark.parametrize("make", [
        lambda: unit_square_mesh(2, offset=(np.nan, 0)),
        lambda: unit_square_mesh(2, offset=(0, -np.inf)),
        lambda: unit_square_mesh(2, extent=(np.inf, 1)),
        lambda: unit_square_mesh(2, extent=(1, np.nan)),
        lambda: polyline_mesh([(0, 0, 0), (np.nan, 1, 1)], 2),
        lambda: polyline_mesh([(np.inf, 0, 0), (np.inf, 1, 1)], 2),
    ])
    def test_non_finite_generator_input_rejected(self, make):
        with pytest.raises(MeshError, match="finite"):
            make()

    def test_non_finite_vertex_is_named(self):
        with pytest.raises(MeshError, match=r"vertex 2 is not finite: \[nan, 1.0\]"):
            Mesh([[0, 0], [1, 0], [np.nan, 1]], [[0, 1, 2]])
        # the first one, even when no cell uses it
        with pytest.raises(MeshError, match=r"vertex 1 is not finite: \[inf, 0.0\]"):
            Mesh([[0, 0], [np.inf, 0], [1, 0], [0, 1], [-np.inf, 0]], [[0, 2, 3]])

    def test_nan_measure_rejected(self):
        # finite vertices whose 2x2 determinant overflows to inf - inf
        verts = [[0.0, 0.0], [1e200, 1e200], [1e200, 2e200]]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(MeshError, match="cell 0 has measure nan"):
                Mesh(verts, [[0, 1, 2]])

    def test_degenerate_cell_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError):
            Mesh(verts, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("verts", [
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],    # flat tet
        [[0, 0, 0], [1, 1, 1], [2, 2, 2]],               # collinear triangle in 3d
        [[0.3, 0.1, 0.2], [0.3, 0.1, 0.2]],              # zero-length segment
    ])
    def test_degenerate_cells_rejected_before_any_inverse(self, verts):
        verts = np.array(verts, dtype=float)
        with pytest.raises(MeshError, match="measure"):
            Mesh(verts, np.arange(len(verts))[None, :])


def _perturbed(mesh, seed=3, scale=0.1):
    """The mesh with every vertex moved by up to ``scale`` of the smallest
    edge, so the cells' affine maps are general."""
    h = np.linalg.norm(mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]],
                       axis=1).min()
    rng = np.random.default_rng(seed)
    return Mesh(mesh.vertices + scale * h * rng.uniform(-1, 1, mesh.vertices.shape),
                mesh.cells)


def _affine_meshes():
    cube = _perturbed(unit_cube_mesh(3))
    return {
        "triangles": _perturbed(unit_square_mesh(5, 4, offset=(0.5, -1.0), extent=(2.0, 0.5))),
        "tets": cube,
        "curve-3d": polyline_mesh([(0.1, 0.2, 0.3), (0.7, 0.4, 0.9), (0.2, 0.9, 0.1)], 5),
        "facets-3d": facet_submesh(cube, lambda p: np.ones(len(p), bool)),
    }


class TestAffineGeometry:
    @pytest.mark.parametrize("name", ["triangles", "tets", "curve-3d", "facets-3d"])
    def test_geometry_matches_per_cell_oracle(self, name):
        # oracle, one cell at a time: x = v0 + xi @ E, gradients map by
        # pinv(E) (inv(E) when square), the measure is |det E| or the square
        # root of the Gram determinant
        mesh = _affine_meshes()[name]
        G = mesh.gradient_transform
        assert G.shape == (mesh.num_cells, mesh.gdim, mesh.tdim)
        for c, cell in enumerate(mesh.cells):
            E = mesh.vertices[cell[1:]] - mesh.vertices[cell[0]]
            if mesh.tdim == mesh.gdim:
                Ginv, measure = np.linalg.inv(E), abs(np.linalg.det(E))
            else:
                Ginv, measure = np.linalg.pinv(E), np.sqrt(np.linalg.det(E @ E.T))
            assert np.abs(G[c] - Ginv).max() <= 1e-14 * np.abs(Ginv).max()
            assert abs(mesh.jacobian_measure[c] - measure) <= 1e-14 * measure
        factorial = {1: 1, 2: 2, 3: 6}[mesh.tdim]
        assert np.array_equal(mesh.cell_volumes, mesh.jacobian_measure / factorial)

    def test_mesh_arrays_are_read_only_copies(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2]])
        mesh = Mesh(verts, cells)
        for arr in (mesh.vertices, mesh.cells, mesh.jacobian_measure,
                    mesh.gradient_transform):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        # the caller's arrays stay writable and do not alias the mesh's
        verts[1, 0] = 2.0
        cells[0, 0] = 1
        assert mesh.vertices[1, 0] == 1.0 and mesh.cells[0, 0] == 0


# (tdim, gdim) of the cells the closed-form kernels handle: intervals,
# triangles and tets, curves in 2d and 3d, surfaces in 3d
_CELL_KINDS = [(1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)]


def _cells_of(vertices):
    """Mesh of the independent cells ``vertices`` (nc, tdim+1, gdim)."""
    nc, k, gdim = vertices.shape
    return Mesh(vertices.reshape(-1, gdim), np.arange(nc * k).reshape(nc, k))


def _random_cells(tdim, gdim):
    return st.integers(1, 4).flatmap(lambda nc: arrays(
        np.float64, (nc, tdim + 1, gdim), elements=st.floats(-4, 4, width=64)))


class TestClosedFormGeometry:
    # Oracle: LAPACK inverse, determinant and pseudo-inverse per cell.  The
    # adjugate inverse is accurate to about cond(E) eps; on manifolds it
    # inverts the Gram matrix, whose condition number is cond(E)^2.
    @given(data=st.data())
    def test_matches_lapack_oracle(self, data):
        tdim, gdim = data.draw(st.sampled_from(_CELL_KINDS))
        v = data.draw(_random_cells(tdim, gdim))
        E = v[:, 1:] - v[:, :1]
        cond = np.linalg.cond(E)
        assume(np.all(cond < 1e6))
        manifold = tdim < gdim
        measure = (np.sqrt(np.linalg.det(E @ E.transpose(0, 2, 1))) if manifold
                   else np.abs(np.linalg.det(E)))
        assume(np.all(measure > 1e-6))
        mesh = _cells_of(v)
        G = np.linalg.pinv(E) if manifold else np.linalg.inv(E)
        tol = 64 * np.finfo(float).eps * cond ** (2 if manifold else 1)
        gap = np.abs(mesh.gradient_transform - G).max(axis=(1, 2))
        assert np.all(gap <= tol * np.abs(G).max(axis=(1, 2)))
        assert np.all(np.abs(mesh.jacobian_measure - measure) <= tol * measure)

    @given(data=st.data())
    def test_degenerate_cell_raises(self, data):
        tdim, gdim = data.draw(st.sampled_from(_CELL_KINDS))
        v = data.draw(_random_cells(tdim, gdim))
        E = v[:, 1:] - v[:, :1]
        assume(np.all(np.linalg.det(E @ E.transpose(0, 2, 1)) > 1e-6))
        bad = data.draw(st.integers(0, len(v) - 1))
        if data.draw(st.booleans()):        # a repeated vertex: measure exactly 0
            v[bad, -1] = v[bad, 0]
        else:                               # a cell far below the measure floor
            v[bad] = v[bad, :1] + 1e-16 * (v[bad] - v[bad, :1])
        with pytest.raises(MeshError, match=f"cell {bad} has measure"):
            _cells_of(v)


class TestLocate:
    def test_centroid_identity_on_all_generated_meshes(self):
        for mesh in (unit_square_mesh(4, 3), unit_cube_mesh(2),
                     polyline_mesh([(0, 0, 0), (1, 1, 1)], 5)):
            for c in range(mesh.num_cells):
                found, lam = mesh.locator.locate(mesh.cell_centroids[c])
                assert found == c
                assert abs(lam.sum() - 1.0) < 1e-12
                assert lam.min() >= -1e-10

    def test_shared_vertex_tie_break_lowest_cell(self):
        mesh = unit_square_mesh(2, 2)
        # the center vertex is shared by several cells; lowest index wins
        containing = [c for c in range(mesh.num_cells) if 4 in mesh.cells[c]]
        assert len(containing) > 2
        found, _ = mesh.locator.locate(mesh.vertices[4])
        assert found == min(containing)

    def test_outside_point_raises(self):
        mesh = unit_square_mesh(2, 2)
        with pytest.raises(OutOfDomainError):
            mesh.locator.locate(np.array([2.0, 2.0]))

    def test_barycentric_range(self):
        mesh = unit_square_mesh(3, 3)
        rng = np.random.default_rng(7)
        for p in rng.uniform(0, 1, size=(50, 2)):
            _, lam = mesh.locator.locate(p)
            assert lam.min() >= -1e-10 and lam.max() <= 1 + 1e-10

    def test_each_cell_indexed_once_by_lower_corner(self):
        # the cube without its grid, so its locator builds bins
        m = unit_cube_mesh(3)
        mesh = Mesh(m.vertices, m.cells)
        loc = mesh.locator
        assert np.all(np.diff(loc.bin_keys) > 0)
        assert loc.bin_ptr[0] == 0 and loc.bin_ptr[-1] == len(loc.bin_cells)
        assert np.array_equal(np.sort(loc.bin_cells), np.arange(mesh.num_cells))
        for a, b in zip(loc.bin_ptr[:-1], loc.bin_ptr[1:]):
            assert b > a and np.all(np.diff(loc.bin_cells[a:b]) > 0)
        # upper corners lie at most ``reach`` bins above the lower ones
        keys = np.repeat(loc.bin_keys, np.diff(loc.bin_ptr))
        lower = np.column_stack(np.unravel_index(keys, (loc.nbins,) * 3))
        assert loc.bin_upper.shape == lower.shape
        assert np.array_equal((loc.bin_upper - lower).max(axis=0), loc.reach)
        assert (loc.bin_upper - lower).min() >= 0

    def test_tolerance_reaches_past_a_bin_edge(self):
        # the x bin edge lies 5e-12 right of the facet x = 0.5; the point is
        # 8e-12 right of it, so inside cell 0 by the 1e-10 tolerance but in
        # the next bin
        w = 1.0 + 1e-11
        mesh = Mesh(np.array([[0, 0], [0.5, 0], [0.5, 1], [w, 0], [w, 1]]),
                    np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2]]))
        found, lam = mesh.locator.locate(np.array([0.5 + 8e-12, 0.5]))
        assert found == 0 and -1e-10 < lam.min() < 0

    def test_first_failing_point_is_reported(self):
        mesh = unit_square_mesh(2, 2)
        pts = np.array([[0.5, 0.5], [np.nan, 0.2], [3.0, 0.0], [0.3, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomainError) as err:
                mesh.locator.locate_many(pts)
        assert err.value.index == 1
        with pytest.raises(OutOfDomainError) as err:
            mesh.locator.locate_many(pts[[0, 3, 2]])
        assert err.value.index == 2 and err.value.point.tolist() == [3.0, 0.0]


class TestGrid:
    def test_generators_record_their_grid(self):
        sq = unit_square_mesh(3, 6, offset=(0.5, -1.0), extent=(0.5, 2.0))
        assert sq.grid.offset.tolist() == [0.5, -1.0]
        assert sq.grid.extent.tolist() == [0.5, 2.0]
        assert sq.grid.counts.tolist() == [3, 6] and sq.grid.nsplit == 2
        cube = unit_cube_mesh(4)
        assert cube.grid.offset.tolist() == [0.0] * 3
        assert cube.grid.extent.tolist() == [1.0] * 3
        assert cube.grid.counts.tolist() == [4] * 3 and cube.grid.nsplit == 6

    def test_cell_numbering_follows_the_grid(self):
        # cell split + nsplit * sub lies in sub-cell sub (row-major, x fastest)
        for mesh in (unit_square_mesh(3, 2, offset=(1, 2), extent=(3, 0.5)),
                     unit_cube_mesh(3)):
            g = mesh.grid
            sub = np.arange(mesh.num_cells) // g.nsplit
            corner = np.column_stack(np.unravel_index(sub, g.counts[::-1]))[:, ::-1]
            lo = g.offset + g.extent * corner / g.counts
            assert np.abs(mesh.vertices[mesh.cells].min(axis=1) - lo).max() < 1e-15

    def test_only_the_generators_record_a_grid(self, tmp_path):
        square, cube = unit_square_mesh(3), unit_cube_mesh(2)
        write_mesh_ascii(square, tmp_path / "mesh.txt")
        for mesh in (Mesh(square.vertices, square.cells), Mesh(cube.vertices, cube.cells),
                     facet_submesh(cube, lambda p: near(p[:, 2], 0)),
                     cell_submesh(square, lambda c: c[:, 0] <= 0.5),
                     cell_submesh(cube, lambda c: c[:, 0] <= 2.0),
                     polyline_mesh([(0, 0, 0), (1, 1, 1)], 3),
                     read_mesh_ascii(tmp_path / "mesh.txt")):
            assert mesh.grid is None
            assert len(mesh.locator.bin_cells) == mesh.num_cells

    def test_grid_locator_builds_no_bins(self):
        loc = unit_cube_mesh(2).locator
        assert not hasattr(loc, "bin_keys") and not hasattr(loc, "reach")


class TestSubmeshes:
    def test_single_boundary_edge(self):
        mesh = unit_square_mesh(1, 1)
        sub = facet_submesh(mesh, lambda p: near(p[:, 0], 0))
        assert sub.num_cells == 1
        assert sub.parent.mesh is mesh

    def test_interface_count_matches_facet_count(self):
        n = 4
        m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
        assert gamma.num_cells == 2 * n

    def test_submesh_vertices_satisfy_predicate(self):
        mesh = unit_square_mesh(3, 3)
        sub = facet_submesh(mesh, boundary_of_unit_square)
        for v in sub.vertices:
            assert boundary_of_unit_square(v)

    def test_parent_vertices_coincide(self):
        mesh = unit_square_mesh(3, 5)
        sub = facet_submesh(mesh, lambda p: near(p[:, 1], 1))
        link = sub.parent
        assert np.abs(sub.vertices - mesh.vertices[link.vertex_map]).max() < 1e-14

    def test_boundary_facet_has_unique_parent_cell(self):
        mesh = unit_square_mesh(2, 2)
        sub = facet_submesh(mesh, lambda p: near(p[:, 0], 0))
        for sc in range(sub.num_cells):
            pc = sub.parent.cell_to_parent_cell[sc]
            pf = sub.parent.cell_to_parent_entity[sc]
            assert pc in mesh.facet_cells[pf]
            assert len(mesh.facet_cells[pf]) == 1

    def test_empty_selection_raises(self):
        mesh = unit_square_mesh(2, 2)
        with pytest.raises(EmptySelectionError):
            facet_submesh(mesh, lambda p: near(p[:, 0], 7.0))

    def test_cell_submesh_half_square(self):
        mesh = unit_square_mesh(4, 4)
        sub = cell_submesh(mesh, lambda c: c[:, 0] <= 0.5)
        assert sub.num_cells == mesh.num_cells // 2
        assert abs(sub.cell_volumes.sum() - 0.5) < 1e-12


def test_ascii_roundtrip(tmp_path):
    mesh = unit_square_mesh(2, 3)
    path = tmp_path / "mesh.txt"
    write_mesh_ascii(mesh, path)
    back = read_mesh_ascii(path)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.abs(back.vertices - mesh.vertices).max() == 0.0
