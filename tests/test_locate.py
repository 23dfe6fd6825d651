"""Property-based check of batched point location against a brute-force
oracle that tests every cell of the mesh, of the closed-form barycentric
coordinates against per-point LAPACK solves, and of the grid candidates of
generator meshes against the bin candidates of the same mesh."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multifem.mesh import (
    Mesh, OutOfDomainError, facet_submesh, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)

TOL = 1e-10


def oracle_coordinates(mesh, x):
    """Barycentric coordinates of x in every cell (nc, tdim+1) and the
    distances off the cells' planes, by one linear solve per cell (the
    normal equations E E^T mu = E d, stacked)."""
    v = mesh.vertices[mesh.cells]
    E = v[:, 1:] - v[:, :1]                             # (nc, tdim, gdim)
    d = x - v[:, 0]
    mu = np.linalg.solve(E @ E.transpose(0, 2, 1), (E @ d[:, :, None]))[:, :, 0]
    resid = np.linalg.norm(d - (mu[:, None, :] @ E)[:, 0], axis=1)
    return np.column_stack([1.0 - mu.sum(axis=1), mu]), resid


def oracle_locate(mesh, x):
    """Lowest-index cell containing x within the tolerance, else None; and
    whether x lies so close to a tolerance edge that rounding decides."""
    lam, resid = oracle_coordinates(mesh, x)
    v = mesh.vertices[mesh.cells]
    limit = TOL * (1.0 + np.linalg.norm(v.max(axis=1) - v.min(axis=1), axis=1))
    ok = (lam.min(axis=1) >= -TOL) & (resid <= limit)
    edge = (np.abs(lam.min(axis=1) + TOL) < 1e-13) | (np.abs(resid - limit) < 1e-13)
    found = np.flatnonzero(ok)
    return (int(found[0]) if len(found) else None), bool(edge.any())


def coordinate_gradients(mesh, c):
    """Physical gradients (tdim+1, gdim) of the barycentric coordinates of
    cell c, tangent to the cell."""
    v = mesh.vertices[mesh.cells[c]]
    E = v[1:] - v[0]
    pinv = np.linalg.solve(E @ E.T, E)          # rows: gradients of lam_1..
    return np.vstack([-pinv.sum(axis=0), pinv])


@st.composite
def meshes(draw):
    kind = draw(st.sampled_from(["square", "cube", "curve"]))
    if kind == "square":
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        offset = draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
        extent = draw(st.tuples(st.floats(0.1, 3), st.floats(0.1, 3)))
        return unit_square_mesh(n, m, offset=offset, extent=extent)
    if kind == "cube":
        return unit_cube_mesh(draw(st.integers(1, 3)))
    coord = st.floats(-1, 1)
    start = np.array(draw(st.tuples(coord, coord, coord)))
    if draw(st.booleans()):                     # axis-aligned: two flat bin axes
        turns = [start, start + [0.0, 0.0, draw(st.floats(0.2, 2))]]
    else:
        turns = [start]
        for _ in range(draw(st.integers(1, 3))):
            step = np.array(draw(st.tuples(coord, coord, coord)))
            assume(np.linalg.norm(step) > 0.1)
            turns.append(turns[-1] + step)
    return polyline_mesh(turns, draw(st.integers(1, 3)))


@st.composite
def query_points(draw, mesh):
    """A point on a vertex, an edge or facet midpoint, inside a cell, or
    pushed off a cell's boundary or plane to just inside or just outside
    the tolerance."""
    kind = draw(st.sampled_from(["vertex", "edge", "facet", "interior", "push", "lift"]))
    if kind == "vertex":
        return mesh.vertices[draw(st.integers(0, mesh.num_vertices - 1))]
    if kind == "edge" or (kind == "facet" and mesh.tdim == 1):
        e = draw(st.integers(0, len(mesh.edges) - 1))
        return mesh.vertices[mesh.edges[e]].mean(axis=0)
    if kind == "facet":
        f = draw(st.integers(0, len(mesh.facets) - 1))
        return mesh.vertices[mesh.facets[f]].mean(axis=0)
    c = draw(st.integers(0, mesh.num_cells - 1))
    v = mesh.vertices[mesh.cells[c]]
    weights = np.array(draw(st.lists(st.floats(0.01, 1), min_size=mesh.tdim + 1,
                                     max_size=mesh.tdim + 1)))
    factor = draw(st.sampled_from([0.5, 2.0]))   # x tolerance: inside / outside
    if kind == "interior":
        return weights / weights.sum() @ v
    if kind == "push":
        # a point of the facet opposite local vertex k, moved out through it
        # until lam_k = -factor * TOL
        k = draw(st.integers(0, mesh.tdim))
        weights[k] = 0.0
        g = coordinate_gradients(mesh, c)[k]
        return weights / weights.sum() @ v - factor * TOL * g / (g @ g)
    # lift: off the cell's plane by factor x the residual tolerance
    assume(mesh.tdim < mesh.gdim)
    E = v[1:] - v[0]
    normal = np.array(draw(st.tuples(*[st.floats(-1, 1)] * mesh.gdim)))
    normal -= np.linalg.solve(E @ E.T, E @ normal) @ E
    assume(np.linalg.norm(normal) > 1e-3)
    diam = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    return (weights / weights.sum() @ v
            + factor * TOL * (1.0 + diam) * normal / np.linalg.norm(normal))


@st.composite
def graded_meshes(draw):
    """Cells graded along one axis, so that the widest cells' padded boxes
    reach 3 or more locator bins along it: a square whose x nodes halve
    towards 0, or a cube whose z nodes are cubed."""
    if draw(st.booleans()):
        n, m = draw(st.integers(5, 8)), draw(st.integers(5, 8))
        base = unit_square_mesh(n, m)
        x = np.r_[0.0, 0.5 ** np.arange(n - 1, -1, -1)]
        v = np.column_stack([x[np.rint(base.vertices[:, 0] * n).astype(int)],
                             base.vertices[:, 1]])
        offset = np.array(draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2))))
        extent = np.array(draw(st.tuples(st.floats(0.1, 3), st.floats(0.1, 3))))
        return Mesh(offset + extent * v, base.cells)
    base = unit_cube_mesh(draw(st.integers(3, 4)))
    v = base.vertices.copy()
    v[:, 2] **= 3
    return Mesh(v, base.cells)


@st.composite
def long_curves(draw):
    """A polyline of 2,000 or more cells in 3d: its corner keys are sparse
    in a grid of 2,000^3 bins."""
    coord = st.floats(-1, 1)
    turns = [np.array(draw(st.tuples(coord, coord, coord)))]
    for _ in range(draw(st.integers(1, 3))):
        step = np.array(draw(st.tuples(coord, coord, coord)))
        assume(np.linalg.norm(step) > 0.1)
        turns.append(turns[-1] + step)
    return polyline_mesh(turns, -(-2000 // (len(turns) - 1)))


def check_against_oracle(data, mesh):
    points = np.array(data.draw(st.lists(query_points(mesh), min_size=1, max_size=12)))
    expected = []
    for x in points:
        cell, on_edge = oracle_locate(mesh, x)
        assume(not on_edge)
        expected.append(cell)
    if None in expected:
        with pytest.raises(OutOfDomainError) as err:
            mesh.locator.locate_many(points)
        assert err.value.index == expected.index(None)
        assert np.array_equal(err.value.point, points[err.value.index])
        return
    cells, lam = mesh.locator.locate_many(points)
    assert cells.tolist() == expected
    for x, c, l in zip(points, cells, lam):
        assert np.allclose(l, oracle_coordinates(mesh, x)[0][c], rtol=0, atol=1e-9)
        assert np.allclose(l @ mesh.vertices[mesh.cells[c]], x, rtol=0, atol=1e-9)


@given(st.data())
def test_locate_many_matches_brute_force(data):
    check_against_oracle(data, data.draw(meshes()))


@settings(max_examples=100)
@given(st.data())
def test_locate_many_on_graded_meshes(data):
    mesh = data.draw(graded_meshes())
    assert mesh.locator.reach.max() >= 3
    check_against_oracle(data, mesh)


@settings(max_examples=50)
@given(st.data())
def test_locate_many_on_long_curves(data):
    mesh = data.draw(long_curves())
    assert mesh.num_cells >= 2000
    check_against_oracle(data, mesh)


def lapack_coordinates(mesh, cells, x):
    """Per-point oracle: barycentric coordinates from one LAPACK solve of
    E^T mu = x - v0 per point (least squares on manifolds)."""
    out = []
    for c, p in zip(cells, x):
        v = mesh.vertices[mesh.cells[c]]
        E = v[1:] - v[0]
        mu = np.linalg.lstsq(E.T, p - v[0], rcond=None)[0]
        out.append(np.r_[1.0 - mu.sum(), mu])
    return np.array(out)


def jittered(mesh, h, seed):
    """``mesh`` (cells of width ``h``) with its interior vertices moved by
    up to a quarter cell."""
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    inner = np.all((v > 1e-12) & (v < 1 - 1e-12), axis=1)
    v[inner] += rng.uniform(-0.25 * h, 0.25 * h, (inner.sum(), mesh.gdim))
    return Mesh(v, mesh.cells)


def _box_boundary(p):
    return np.any((np.abs(p) < 1e-10) | (np.abs(p - 1) < 1e-10), axis=1)


def tilted_square(n):
    """``unit_square_mesh(n)`` mapped onto a tilted plane in 3d."""
    sq = unit_square_mesh(n)
    return Mesh(sq.vertices @ np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.5]]), sq.cells)


@pytest.mark.parametrize("mesh", [
    unit_square_mesh(12), jittered(unit_square_mesh(12), 1 / 12, 1),
    unit_cube_mesh(5), jittered(unit_cube_mesh(5), 1 / 5, 2),
    facet_submesh(unit_cube_mesh(4), _box_boundary), tilted_square(6),
    facet_submesh(unit_square_mesh(9), _box_boundary),
    polyline_mesh([(0.1, 0.2, 0.3), (0.9, 0.4, 0.5), (0.3, 0.8, 0.7)], 7),
], ids=["square", "square-jittered", "cube", "cube-jittered", "cube-surface",
        "tilted-square", "square-boundary", "polyline-3d"])
def test_closed_form_coordinates_match_lapack(mesh):
    rng = np.random.default_rng(5)
    cells = rng.integers(0, mesh.num_cells, 400)
    w = rng.dirichlet(np.ones(mesh.tdim + 1), len(cells))
    x = np.einsum("nk,nkg->ng", w, mesh.vertices[mesh.cells[cells]])
    expected = lapack_coordinates(mesh, cells, x)
    lam, resid = mesh.barycentric_many(cells, x)
    assert np.abs(lam - expected).max() <= 1e-13
    assert resid.max() <= 1e-13
    found, lam_found = mesh.locator.locate_many(x)
    assert np.abs(lam_found - lapack_coordinates(mesh, found, x)).max() <= 1e-13
    for c, l in ((cells, lam), (found, lam_found)):
        back = np.einsum("nk,nkg->ng", l, mesh.vertices[mesh.cells[c]])
        assert np.abs(back - x).max() <= 1e-13


# -- grid candidates against bin candidates ------------------------------------
# A generator mesh locates through its grid; the same mesh rebuilt from its
# arrays carries no grid and locates through bins.  Both feed the same
# containment test, so their answers must agree bitwise.

def assert_grid_matches_bins(mesh, points):
    """``locate_many`` on the generator ``mesh`` equals, bitwise, the bin
    locator of the same mesh without its grid, including the index of the
    first point outside; returns how many points were located."""
    assert mesh.grid is not None
    bins = Mesh(mesh.vertices, mesh.cells).locator
    try:
        expected = bins.locate_many(points)
    except OutOfDomainError as err:
        with pytest.raises(OutOfDomainError) as got:
            mesh.locator.locate_many(points)
        assert got.value.index == err.index
        assert np.array_equal(got.value.point, err.point, equal_nan=True)
        return 0
    cells, lam = mesh.locator.locate_many(points)
    assert np.array_equal(cells, expected[0])
    assert lam.tobytes() == expected[1].tobytes()
    return len(points)


def square_nx2n(n):
    """The right-hand ds-mixed bulk mesh: n x 2n on [0.5, 1] x [0, 1]."""
    return unit_square_mesh(n, 2 * n, offset=(0.5, 0.0), extent=(0.5, 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
def test_grid_locates_nested_cube_vertices_as_bins_do(n):
    fine = unit_cube_mesh(2 * n)
    assert assert_grid_matches_bins(unit_cube_mesh(n), fine.vertices) == fine.num_vertices


@pytest.mark.parametrize("n", [1, 3, 8])
def test_grid_locates_offset_square_as_bins_do(n):
    mesh = square_nx2n(n)
    rng = np.random.default_rng(n)
    points = np.vstack([square_nx2n(2 * n).vertices, rng.uniform((0.5, 0), (1, 1), (500, 2)),
                        mesh.cell_centroids, mesh.vertices[mesh.edges].mean(axis=1)])
    assert assert_grid_matches_bins(mesh, points) == len(points)


def pushed_across_planes(mesh, factors, seed, interior):
    """Points on the grid planes x_a = offset_a + k extent_a / n_a (interior
    planes, or the two boundary planes), and on the sub-cells' diagonal
    planes r_a = r_b, each moved off its plane along +-(factor x tol) in
    grid units."""
    g = mesh.grid
    rng = np.random.default_rng(seed)
    out = []
    for a in range(mesh.gdim):
        ks = np.arange(1, g.counts[a]) if interior else np.array([0, g.counts[a]])
        for k in ks:
            s = rng.uniform(0, g.counts, (4, mesh.gdim))
            s[:, a] = k
            for f in factors:
                for sign in (1.0, -1.0):
                    t = s.copy()
                    t[:, a] += sign * f * TOL
                    out.append(t)
    if interior:
        for a, b in itertools.combinations(range(mesh.gdim), 2):
            s = rng.uniform(0, g.counts, (8, mesh.gdim))
            base = np.floor(s)
            s[:, b] = base[:, b] + (s[:, a] - base[:, a])   # r_a == r_b
            s = np.minimum(s, g.counts)
            for f in factors:
                for sign in (1.0, -1.0):
                    t = s.copy()
                    t[:, a] += sign * f * TOL
                    out.append(t)
    s = np.vstack(out)
    return g.offset + s * (g.extent / g.counts)


@pytest.mark.parametrize("mesh", [unit_cube_mesh(3), square_nx2n(4),
                                  unit_square_mesh(3, 5, offset=(-1.5, 0.25), extent=(2.5, 0.75))],
                         ids=["cube", "square-nx2n", "square-offset"])
def test_grid_matches_bins_for_points_pushed_across_planes(mesh):
    # interior planes: half and twice the tolerance both stay in the domain
    points = pushed_across_planes(mesh, (0.5, 2.0), 0, interior=True)
    assert assert_grid_matches_bins(mesh, points) == len(points)
    # boundary planes: outward by half the tolerance is inside, by twice is
    # outside; one point at a time, so each either locates or raises
    points = pushed_across_planes(mesh, (0.5, 2.0), 1, interior=False)
    located = sum(assert_grid_matches_bins(mesh, p[None]) for p in points)
    assert 0 < located < len(points)


@pytest.mark.parametrize("mesh", [unit_cube_mesh(7), square_nx2n(5),
                                  unit_square_mesh(5, 9, offset=(-0.3, 0.7), extent=(1.7, 0.3))],
                         ids=["cube", "square-nx2n", "square-offset"])
def test_grid_matches_bins_at_the_tolerance_edge(mesh):
    # points within a few ulps of lying exactly tol beyond an interior grid
    # plane: rounding decides whether the sub-cell on the far side holds
    # them, and the grid must then offer the next sub-cell too
    g = mesh.grid
    rng = np.random.default_rng(11)
    points = []
    for _ in range(24):
        s = rng.uniform(0, g.counts)
        a = rng.integers(mesh.gdim)
        k = rng.integers(1, g.counts[a])
        for edge in (k + TOL, k - TOL):
            for j in range(-40, 41, 2):
                t = s.copy()
                t[a] = edge + j * np.spacing(edge)
                points.append(g.offset + t * (g.extent / g.counts))
    points = np.array(points)
    assert assert_grid_matches_bins(mesh, points) == len(points)


@pytest.mark.parametrize("bad", [
    [np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5], [0.5, 0.5, np.nan],
    [np.inf, np.inf, np.inf], [-np.inf, np.nan, np.inf], [1.5, 0.5, 0.5],
    [0.5, 0.5, -2e-10], [0.5, 1 + 2e-10, 0.5]])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_grid_reports_the_first_point_outside_as_bins_do(bad, where):
    mesh = unit_cube_mesh(3)
    points = np.random.default_rng(where).uniform(0, 1, (6, 3))
    points[where] = bad
    points[5] = [2.0, 0.5, 0.5]                 # a later point outside too
    with pytest.raises(OutOfDomainError) as err:
        mesh.locator.locate_many(points)
    assert err.value.index == where
    assert assert_grid_matches_bins(mesh, points) == 0


def test_grid_rejects_non_finite_square_points():
    mesh = square_nx2n(2)
    for bad in ([np.nan, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [0.75, np.inf]):
        assert assert_grid_matches_bins(mesh, np.array([[0.75, 0.5], bad])) == 0


@given(st.data())
def test_grid_matches_bins_on_generated_meshes(data):
    mesh = data.draw(meshes())
    assume(mesh.grid is not None)
    points = np.array(data.draw(st.lists(query_points(mesh), min_size=1, max_size=12)))
    assert_grid_matches_bins(mesh, points)
