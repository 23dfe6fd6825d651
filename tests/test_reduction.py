import numpy as np
import pytest

from multifem.bench import assemble_babuska, assemble_darcy_stokes, assemble_perfusion
from multifem.forms import FormError, ReductionKind
from multifem.mesh import (
    OutOfDomainError, facet_submesh, near, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)
from multifem.reduction import (
    ReductionCache, UnsupportedReductionError, average_matrix, circle_frames,
    circle_points, curve_dof_tangents, deduce_reduced_space, trace_matrix,
)
from multifem.space import (build_space, dg0, interpolate, lagrange, rt0, vector_lagrange,
)

TRACE = ReductionKind("trace")
RESTRICT = ReductionKind("restrict")


def boundary(p):
    return near(p[:, 0], 0) | near(p[:, 0], 1) | near(p[:, 1], 0) | near(p[:, 1], 1)


class TestDeducedSpaces:
    def test_lagrange_keeps_degree_and_shape(self):
        mesh = unit_square_mesh(2, 2)
        gamma = facet_submesh(mesh, boundary)
        V = build_space(mesh, vector_lagrange(2))
        Vbar = deduce_reduced_space(V, gamma, TRACE)
        assert Vbar.element.degree == 2 and Vbar.ncomp == 2
        assert Vbar.mesh is gamma

    def test_rt0_reduces_to_vector_p0(self):
        mesh = unit_square_mesh(2, 4, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(mesh, lambda p: near(p[:, 0], 0.5))
        V = build_space(mesh, rt0())
        Vbar = deduce_reduced_space(V, gamma, TRACE)
        assert Vbar.element.family == "DiscontinuousLagrange"
        assert Vbar.element.degree == 0 and Vbar.ncomp == 2

    def test_average_keeps_p1(self):
        cube = unit_cube_mesh(2)
        gamma = polyline_mesh([(0.5, 0.5, 0.1), (0.5, 0.5, 0.9)], 4)
        V = build_space(cube, lagrange(1))
        Q = deduce_reduced_space(V, gamma, ReductionKind("average", 0.2, 16))
        assert Q.element.degree == 1 and Q.mesh is gamma

    def test_unsupported_combination(self):
        mesh = unit_square_mesh(2, 2)
        gamma = facet_submesh(mesh, boundary)
        V = build_space(mesh, dg0())
        with pytest.raises(UnsupportedReductionError):
            deduce_reduced_space(V, gamma, TRACE)


class TestTraceMatrix:
    def test_linear_field_traced_exactly_matching(self):
        mesh = unit_square_mesh(4, 4)
        gamma = facet_submesh(mesh, boundary)
        V = build_space(mesh, lagrange(1))
        Vbar = deduce_reduced_space(V, gamma, TRACE)
        T = trace_matrix(V, Vbar)
        f = lambda p: p[:, 0]
        lifted = T @ interpolate(V, f).coefficients
        assert np.abs(lifted - interpolate(Vbar, f).coefficients).max() < 1e-12

    def test_nonmatching_interface_reproduces_linears(self):
        # bulk at n x n, interface from the neighbor mesh at n x 2n
        n = 4
        m1 = unit_square_mesh(n, n, offset=(0, 0), extent=(0.5, 1))
        m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
        V1 = build_space(m1, vector_lagrange(2))
        Vbar = deduce_reduced_space(V1, gamma, TRACE)
        T = trace_matrix(V1, Vbar)
        f = lambda p: np.stack([p[:, 1] ** 2, p[:, 0] - 2 * p[:, 1]], axis=1)
        lifted = T @ interpolate(V1, f).coefficients
        assert np.abs(lifted - interpolate(Vbar, f).coefficients).max() < 1e-10

    def test_row_sums_one_for_lagrange_sources(self):
        mesh = unit_square_mesh(3, 3)
        gamma = facet_submesh(mesh, boundary)
        for elem in (lagrange(1), lagrange(2)):
            V = build_space(mesh, elem)
            Vbar = deduce_reduced_space(V, gamma, TRACE)
            T = trace_matrix(V, Vbar)
            assert np.abs(np.asarray(T.sum(axis=1)).ravel() - 1.0).max() < 1e-12

    def test_rt0_normal_trace_is_facet_constant(self):
        n = 3
        m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
        V = build_space(m2, rt0())
        Vbar = deduce_reduced_space(V, gamma, TRACE)
        T = trace_matrix(V, Vbar)
        f = lambda p: np.tile([1.5, -0.5], (len(p), 1))
        traced = T @ interpolate(V, f).coefficients
        normal_flux = traced[0::2] * 1.0 + traced[1::2] * 0.0
        assert np.abs(normal_flux - 1.5).max() < 1e-10

    def test_out_of_domain_target_reports_dof(self):
        m1 = unit_square_mesh(2, 2)                      # unit square
        far = unit_square_mesh(2, 2, offset=(5.0, 0.0))  # disjoint
        gamma = facet_submesh(far, lambda p: near(p[:, 0], 5.0))
        V = build_space(m1, lagrange(1))
        Vbar = deduce_reduced_space(V, gamma, TRACE)
        with pytest.raises(OutOfDomainError, match="dof") as err:
            trace_matrix(V, Vbar)
        # every target dof is outside: the first one, in dof order of first
        # appearance, is reported at its batched position
        first = Vbar.dofmap.ravel()[0]
        assert err.value.index == 0
        assert f"target dof {first})" in str(err.value)
        assert np.array_equal(err.value.point, Vbar.dof_coords[first])


@pytest.fixture(scope="module")
def setting():
    cube = unit_cube_mesh(4)
    gamma = polyline_mesh([(0.5, 0.5, 0.1), (0.5, 0.5, 0.9)], 4)
    V = build_space(cube, lagrange(1))
    Q = deduce_reduced_space(V, gamma, ReductionKind("average", 0.2, 16))
    return cube, gamma, V, Q


class TestAverageMatrix:

    @pytest.mark.parametrize("n_quad", [0, 2.5, -3, True])
    def test_n_quad_validated(self, setting, n_quad):
        cube, gamma, V, Q = setting
        with pytest.raises(FormError, match="n_quad must be an integer >= 1"):
            average_matrix(V, Q, radius=0.2, n_quad=n_quad)

    @pytest.mark.parametrize("radius", [0.0, -0.2, float("nan")])
    def test_radius_validated(self, setting, radius):
        cube, gamma, V, Q = setting
        with pytest.raises(FormError, match="radius must be positive"):
            average_matrix(V, Q, radius=radius, n_quad=16)

    def test_constants_preserved(self, setting):
        cube, gamma, V, Q = setting
        Pi = average_matrix(V, Q, radius=0.2, n_quad=16)
        lifted = Pi @ interpolate(V, 2.5).coefficients
        assert np.abs(lifted - 2.5).max() < 1e-12

    def test_axis_odd_linear_annihilated(self, setting):
        cube, gamma, V, Q = setting
        Pi = average_matrix(V, Q, radius=0.3, n_quad=16)
        lifted = Pi @ interpolate(V, lambda p: p[:, 0] - 0.5).coefficients
        assert np.abs(lifted).max() < 1e-12

    def test_quadratic_radial_average_analytic(self):
        # closed-form circle average of (x-.5)^2+(y-.5)^2 about the axis is R^2;
        # oracle below: dense uniform rule with 10^4 points
        f = lambda p: (p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2
        center = np.array([[0.5, 0.5, 0.4]])
        tangent = np.array([[0.0, 0.0, 1.0]])
        R = 0.2
        oracle = f(circle_points(center, tangent, R, 10_000)).mean()
        approx = f(circle_points(center, tangent, R, 16)).mean()
        assert abs(oracle - R ** 2) < 1e-12
        assert abs(approx - oracle) < 1e-6

    def test_frame_right_handed_orthonormal(self, setting):
        cube, gamma, V, Q = setting
        tangents = curve_dof_tangents(Q)
        for t, e1, e2 in zip(tangents, *circle_frames(tangents)):
            gram = np.array([[e1 @ e1, e1 @ e2, e1 @ t],
                             [e2 @ e1, e2 @ e2, e2 @ t],
                             [t @ e1, t @ e2, t @ t]])
            assert np.abs(gram - np.eye(3)).max() < 1e-12
            assert np.cross(e1, e2) @ t > 1.0 - 1e-12

    def test_out_of_domain_circle_is_hard_error(self):
        cube = unit_cube_mesh(2)
        gamma = polyline_mesh([(0.9, 0.9, 0.2), (0.9, 0.9, 0.8)], 2)
        V = build_space(cube, lagrange(1))
        Q = deduce_reduced_space(V, gamma, ReductionKind("average", 0.3, 8))
        with pytest.raises(OutOfDomainError, match="circle") as err:
            average_matrix(V, Q, radius=0.3, n_quad=8)
        # the first circle point outside the cube, at its batched position
        pts = circle_points(Q.dof_coords, curve_dof_tangents(Q), 0.3, 8).reshape(-1, 3)
        first = int(np.flatnonzero(((pts < 0.0) | (pts > 1.0)).any(axis=1))[0])
        assert err.value.index == first
        assert f"curve dof {first // 8})" in str(err.value)
        assert np.array_equal(err.value.point, pts[first])

    def test_row_sums_one(self, setting):
        cube, gamma, V, Q = setting
        Pi = average_matrix(V, Q, radius=0.25, n_quad=16)
        assert np.abs(np.asarray(Pi.sum(axis=1)).ravel() - 1.0).max() < 1e-12


class TestRestrictionMatrix:
    def test_full_domain_is_permutation_like(self):
        mesh = unit_square_mesh(2, 2)
        from multifem.mesh import cell_submesh
        sub = cell_submesh(mesh, lambda c: np.ones(len(c), bool))
        V = build_space(mesh, lagrange(1))
        Vbar = deduce_reduced_space(V, sub, RESTRICT)
        R = trace_matrix(V, Vbar)
        dense = R.toarray()
        assert np.all(np.isin(dense, (0.0, 1.0)))
        assert np.abs(dense.sum(axis=1) - 1.0).max() == 0.0
        assert np.abs(dense.sum(axis=0) - 1.0).max() == 0.0

    def test_derived_submesh_rows_are_single_ones(self):
        from multifem.mesh import cell_submesh
        mesh = unit_square_mesh(4, 4)
        sub = cell_submesh(mesh, lambda c: c[:, 0] <= 0.5)
        V = build_space(mesh, lagrange(1))
        Vbar = deduce_reduced_space(V, sub, RESTRICT)
        R = trace_matrix(V, Vbar)
        for i in range(R.shape[0]):
            row = R.getrow(i)
            vals = row.data[np.abs(row.data) > 1e-14]
            assert len(vals) == 1 and abs(vals[0] - 1.0) < 1e-14

    def test_linears_reproduced(self):
        from multifem.mesh import cell_submesh
        mesh = unit_square_mesh(4, 4)
        sub = cell_submesh(mesh, lambda c: c[:, 0] <= 0.5)
        V = build_space(mesh, lagrange(2))
        Vbar = deduce_reduced_space(V, sub, RESTRICT)
        R = trace_matrix(V, Vbar)
        f = lambda p: p[:, 0] * p[:, 1] - 2 * p[:, 1] ** 2
        lifted = R @ interpolate(V, f).coefficients
        assert np.abs(lifted - interpolate(Vbar, f).coefficients).max() < 1e-10


class TestPolynomialReproductionAllKinds:
    def test_quantified_reproduction(self):
        tol = 1e-10
        # trace, matching and nonmatching
        n = 3
        m1 = unit_square_mesh(n, n, offset=(0, 0), extent=(0.5, 1))
        m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
        for deg in (1, 2):
            V = build_space(m1, lagrange(deg))
            Vbar = deduce_reduced_space(V, gamma, TRACE)
            T = trace_matrix(V, Vbar)
            f = (lambda p: 1 + p[:, 1]) if deg == 1 else (lambda p: 1 + p[:, 1] - p[:, 1] ** 2)
            gap = T @ interpolate(V, f).coefficients - interpolate(Vbar, f).coefficients
            assert np.abs(gap).max() <= tol
        # average of linear fields (P1)
        cube = unit_cube_mesh(3)
        line = polyline_mesh([(0.45, 0.55, 0.2), (0.45, 0.55, 0.8)], 3)
        V = build_space(cube, lagrange(1))
        Q = deduce_reduced_space(V, line, ReductionKind("average", 0.2, 16))
        Pi = average_matrix(V, Q, radius=0.2, n_quad=16)
        f = lambda p: p[:, 2] + 1.0
        gap = Pi @ interpolate(V, f).coefficients - interpolate(Q, f).coefficients
        assert np.abs(gap).max() <= tol
        # restriction
        from multifem.mesh import cell_submesh
        mesh = unit_square_mesh(4, 4)
        sub = cell_submesh(mesh, lambda c: c[:, 1] <= 0.5)
        V = build_space(mesh, lagrange(1))
        Vbar = deduce_reduced_space(V, sub, RESTRICT)
        R = trace_matrix(V, Vbar)
        f = lambda p: 3 * p[:, 0] - p[:, 1]
        gap = R @ interpolate(V, f).coefficients - interpolate(Vbar, f).coefficients
        assert np.abs(gap).max() <= tol


class TestCache:
    def test_build_once_per_key(self):
        cache = ReductionCache()
        mesh = unit_square_mesh(2, 2)
        gamma = facet_submesh(mesh, boundary)
        V = build_space(mesh, lagrange(1))
        a = cache.get_or_build(V, gamma, TRACE)
        b = cache.get_or_build(V, gamma, TRACE)
        assert a is b and cache.build_count == 1

    def test_unknown_kind_raises(self):
        # rejected where it is named, so no cache ever sees it
        with pytest.raises(FormError, match="unknown reduction 'lift'"):
            ReductionKind("lift")

    def test_distinct_radii_distinct_entries(self):
        cache = ReductionCache()
        cube = unit_cube_mesh(3)
        line = polyline_mesh([(0.5, 0.5, 0.2), (0.5, 0.5, 0.8)], 2)
        V = build_space(cube, lagrange(1))
        cache.get_or_build(V, line, ReductionKind("average", 0.2, 16))
        cache.get_or_build(V, line, ReductionKind("average", 0.25, 16))
        assert cache.build_count == 2


@pytest.mark.parametrize("system", [
    lambda: assemble_babuska(16), lambda: assemble_darcy_stokes(8, "mixed"),
    lambda: assemble_perfusion(12)], ids=["babuska", "ds-mixed", "perfusion"])
def test_reduction_matrices_store_no_zeros(system):
    # basis functions that vanish at an evaluation point are not stored
    store = system()["cache"]._store
    assert store
    for red in store.values():
        assert red.matrix.nnz and np.all(red.matrix.data != 0)
