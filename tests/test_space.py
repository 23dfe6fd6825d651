import numpy as np
import pytest

from multifem.mesh import (
    _LOCAL_EDGES, OutOfDomainError, unit_cube_mesh, unit_square_mesh, polyline_mesh,
)
from multifem.space import (
    Element, Function, FunctionSpace, UnsupportedElementError, basis_row,
    build_space, dg0, evaluate, interpolate, lagrange, rt0, vector_dg0,
    tabulate_lagrange, vector_lagrange, _dof_values,
)


@pytest.fixture(scope="module")
def square():
    return unit_square_mesh(3, 3)


class TestDofCounts:
    def test_p2_scalar_minimal(self):
        m = unit_square_mesh(1, 1)
        V = build_space(m, lagrange(2))
        assert V.dim == 4 + 5     # vertices + edges

    def test_rt0_minimal(self):
        m = unit_square_mesh(1, 1)
        assert build_space(m, rt0()).dim == 5

    def test_vector_p2_minimal(self):
        m = unit_square_mesh(1, 1)
        assert build_space(m, vector_lagrange(2)).dim == 18

    def test_p1_p0_dims(self, square):
        assert build_space(square, lagrange(1)).dim == square.num_vertices
        assert build_space(square, dg0()).dim == square.num_cells
        assert build_space(square, vector_dg0()).dim == 2 * square.num_cells

    def test_shared_dofs_identical_between_cells(self, square):
        V = build_space(square, lagrange(2))
        seen = {}
        for c in range(square.num_cells):
            for loc, vtx in enumerate(square.cells[c]):
                key = int(vtx)
                if key in seen:
                    assert seen[key] == V.dofmap[c][loc]
                seen[key] = V.dofmap[c][loc]

    def test_unsupported_elements(self):
        cube = unit_cube_mesh(1)
        with pytest.raises(UnsupportedElementError):
            build_space(cube, rt0())
        with pytest.raises(UnsupportedElementError):
            build_space(cube, lagrange(2))
        with pytest.raises(UnsupportedElementError):
            build_space(cube, vector_lagrange(1))

    @pytest.mark.parametrize("element", [Element("RaviartThomas", 2),
                                         Element("RaviartThomas", 1, vector=True)])
    def test_raviart_thomas_only_as_rt0(self, square, element):
        with pytest.raises(UnsupportedElementError, match="Raviart-Thomas only at degree 1"):
            FunctionSpace(square, element)


class TestInterpolationEvaluation:
    def test_constant_interpolation(self, square):
        V = build_space(square, lagrange(1))
        f = interpolate(V, 3.0)
        assert np.all(f.coefficients == 3.0)

    def test_p1_reproduces_linears(self, square):
        V = build_space(square, lagrange(1))
        f = interpolate(V, lambda p: p[:, 0])
        rng = np.random.default_rng(0)
        for p in rng.uniform(0, 1, (20, 2)):
            assert abs(evaluate(f, p) - p[0]) < 1e-12

    def test_p2_reproduces_quadratic_at_point(self, square):
        V = build_space(square, lagrange(2))
        f = interpolate(V, lambda p: p[:, 0] ** 2)
        assert abs(evaluate(f, np.array([0.3, 0.7])) - 0.09) < 1e-12

    @pytest.mark.parametrize("element,exact", [
        (lagrange(1), lambda p: 2 * p[..., 0] - p[..., 1] + 1),
        (lagrange(2), lambda p: p[..., 0] ** 2 - 3 * p[..., 0] * p[..., 1] + p[..., 1] + 0.5),
    ])
    def test_polynomial_reproduction_100_points(self, square, element, exact):
        V = build_space(square, element)
        f = interpolate(V, exact)
        rng = np.random.default_rng(42)
        for p in rng.uniform(0, 1, (100, 2)):
            assert abs(evaluate(f, p) - exact(p)) < 1e-12

    def test_vector_interpolation_components(self, square):
        V = build_space(square, vector_lagrange(1))
        f = interpolate(V, lambda p: np.stack([p[:, 0], -p[:, 1]], axis=1))
        val = evaluate(f, np.array([0.4, 0.6]))
        assert np.allclose(val, [0.4, -0.6], atol=1e-13)

    def test_vector_field_called_once_per_node(self):
        # vector P2 on the 4x4 square: 162 dofs at 81 nodes.  The field is
        # called once, on the nodes, and each dof is its component of the
        # value there, bitwise what a call on every dof's coordinate gives
        V = build_space(unit_square_mesh(4), vector_lagrange(2))

        def field(p):
            return np.stack([np.sin(3 * p[:, 0]) * p[:, 1], np.exp(p[:, 1]) - p[:, 0]], axis=1)
        calls = []
        f = interpolate(V, lambda p: calls.append(len(p)) or field(p))
        assert V.dim == 162 and calls == [81]
        every = field(V.dof_coords)[np.arange(V.dim), V.dof_component]
        assert np.array_equal(f.coefficients, every)
        # a selection of dofs, as a boundary condition makes, one call on
        # the nodes they sit at
        dofs = np.arange(1, V.dim, 3)
        calls.clear()
        vals = _dof_values(V, lambda p: calls.append(len(p)) or field(p), dofs)
        assert calls == [len(np.unique(dofs // 2))]
        assert np.array_equal(vals, every[dofs])

    def test_p0_value_constant_on_cell(self, square):
        V = build_space(square, dg0())
        f = Function(V, np.arange(V.dim, dtype=float))
        for c in (0, 5, square.num_cells - 1):
            assert evaluate(f, square.cell_centroids[c]) == float(c)

    def test_continuous_value_side_independent_at_vertex(self, square):
        V = build_space(square, lagrange(1))
        rng = np.random.default_rng(1)
        f = Function(V, rng.standard_normal(V.dim))
        vtx = square.vertices[4]
        cells = [c for c in range(square.num_cells) if 4 in square.cells[c]]
        vals = []
        for c in cells:
            cols, rows = basis_row(V, vtx, cell=c)
            vals.append(float(rows[0] @ f.coefficients[cols]))
        assert np.ptp(vals) < 1e-12

    def test_p1_on_3d_and_curve(self):
        cube = unit_cube_mesh(2)
        V = build_space(cube, lagrange(1))
        f = interpolate(V, lambda p: p[:, 0] + 2 * p[:, 1] - p[:, 2])
        assert abs(evaluate(f, np.array([0.3, 0.3, 0.4])) - 0.5) < 1e-12
        line = polyline_mesh([(0, 0, 0), (1, 1, 1)], 4)
        Q = build_space(line, lagrange(2))
        g = interpolate(Q, lambda p: p[:, 2] ** 2)
        assert abs(evaluate(g, np.array([0.25, 0.25, 0.25])) - 0.0625) < 1e-12


class TestPointField:
    """``Function.__call__`` evaluates a batch of points as ``evaluate``
    does one, each the contraction of its ``basis_row`` with the local
    coefficients."""

    @pytest.mark.parametrize("mesh,element", [
        (unit_square_mesh(4, 3), lagrange(1)), (unit_square_mesh(4, 3), lagrange(2)),
        (unit_square_mesh(4, 3), vector_lagrange(2)), (unit_square_mesh(4, 3), rt0()),
        (unit_square_mesh(4, 3), dg0()), (unit_square_mesh(4, 3), vector_dg0()),
        (unit_cube_mesh(2), lagrange(1)),
        (polyline_mesh([(0, 0, 0), (1, 0.5, 0.25)], 5), lagrange(2)),
    ], ids=["P1", "P2", "vector-P2", "RT0", "P0", "vector-P0", "3d-P1", "curve-P2"])
    def test_call_is_evaluate_bitwise(self, mesh, element):
        V = build_space(mesh, element)
        rng = np.random.default_rng(8)
        f = Function(V, rng.standard_normal(V.dim))
        if mesh.tdim == 1:
            a, b = mesh.vertices[0], mesh.vertices[-1]
            points = a + rng.random((200, 1)) * (b - a)
        else:
            points = rng.random((200, mesh.gdim))
        vals = f(points)
        assert vals.shape == (200,) + V.value_shape
        assert np.array_equal(vals, np.array([evaluate(f, x) for x in points]))
        rows = [basis_row(V, x) for x in points]
        assert np.array_equal(vals.reshape(200, -1),
                              np.array([r @ f.coefficients[c] for c, r in rows]))

    def test_point_outside_raises(self, square):
        f = Function(build_space(square, lagrange(2)))
        with pytest.raises(OutOfDomainError) as info:
            f(np.array([[0.5, 0.5], [0.5, 1.25], [2.0, 0.0]]))
        assert info.value.index == 1
        with pytest.raises(ValueError, match="OutOfDomainError"):
            interpolate(build_space(unit_square_mesh(2, 2, extent=(2.0, 1.0)), lagrange(1)), f)


class TestRT0:
    def test_constant_field_reproduced(self, square):
        V = build_space(square, rt0())
        f = interpolate(V, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
        rng = np.random.default_rng(3)
        for p in rng.uniform(0.05, 0.95, (20, 2)):
            assert np.allclose(evaluate(f, p), [1.0, 0.0], atol=1e-10)

    def test_normal_continuity_across_interior_edges(self, square):
        V = build_space(square, rt0())
        rng = np.random.default_rng(4)
        f = Function(V, rng.standard_normal(V.dim))
        for e in range(len(square.edges)):
            cells = square.facet_cells[e]
            if len(cells) != 2:
                continue
            mid = V.edge_midpoints[e]
            n = V.edge_normals[e]
            vals = []
            for c in cells:
                cols, rows = basis_row(V, mid, cell=c)
                vals.append(float(n @ (rows @ f.coefficients[cols])))
            assert abs(vals[0] - vals[1]) < 1e-12

    def test_divergence_of_constant_interpolant_vanishes(self, square):
        V = build_space(square, rt0())
        f = interpolate(V, lambda p: np.tile([0.7, -0.3], (len(p), 1)))
        cell_div = np.einsum("ck,ck->c", V.cell_divs, f.coefficients[V.dofmap])
        assert np.abs(cell_div).max() < 1e-12


class TestReferenceBasis:
    # the nodes: reference vertices, then the midpoints of the mesh's local
    # edges, in the order that numbers a cell's edge dofs
    @pytest.mark.parametrize("tdim, degree", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_nodal_with_exact_gradient_sums(self, tdim, degree):
        verts = np.vstack([np.zeros(tdim), np.eye(tdim)])
        nodes = verts if degree == 1 else np.vstack(
            [verts, [0.5 * (verts[a] + verts[b]) for a, b in _LOCAL_EDGES[tdim]]])
        vals, grads = tabulate_lagrange(tdim, degree, nodes)
        assert np.array_equal(vals, np.eye(len(nodes)))
        assert grads.shape == (len(nodes), len(nodes), tdim)
        assert np.abs(grads.sum(axis=1)).max() == 0.0

    @pytest.mark.parametrize("tdim, degree", [(1, 3), (2, 3), (3, 2), (4, 1)])
    def test_unsupported_pairs_raise(self, tdim, degree):
        with pytest.raises(UnsupportedElementError):
            tabulate_lagrange(tdim, degree, np.zeros((1, tdim)))


class TestBasisRow:
    def test_vertex_row_is_kronecker(self, square):
        V = build_space(square, lagrange(1))
        cols, rows = basis_row(V, square.vertices[4])
        vals = dict(zip(cols, rows[0]))
        assert abs(vals[4] - 1.0) < 1e-14
        assert all(abs(v) < 1e-14 for k, v in vals.items() if k != 4)

    def test_edge_midpoint_row(self, square):
        V = build_space(square, lagrange(1))
        a, b = square.edges[0]
        mid = 0.5 * (square.vertices[a] + square.vertices[b])
        cols, rows = basis_row(V, mid)
        vals = dict(zip(cols, rows[0]))
        assert abs(vals[a] - 0.5) < 1e-14 and abs(vals[b] - 0.5) < 1e-14

    @pytest.mark.parametrize("element", [lagrange(1), lagrange(2)])
    def test_partition_of_unity(self, square, element):
        V = build_space(square, element)
        rng = np.random.default_rng(5)
        for p in rng.uniform(0, 1, (25, 2)):
            _, rows = basis_row(V, p)
            assert abs(rows[0].sum() - 1.0) < 1e-12

    def test_vector_rows_one_per_component(self, square):
        V = build_space(square, vector_lagrange(2))
        _, rows = basis_row(V, np.array([0.21, 0.34]))
        assert rows.shape[0] == 2
        assert abs(rows[0].sum() - 1.0) < 1e-12
        assert abs(rows[1].sum() - 1.0) < 1e-12
