"""Coordinate callbacks: every predicate and field is called once per point
set, on points (N, gdim).

The batched selection and boundary data are checked bitwise against
per-point loops (the oracle), bad callbacks against their diagnostics, and
the number of calls against the mesh size.
"""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multifem.assemble import DirichletBC, assemble
from multifem.forms import Analytic, Coefficient, Measure, inner
from multifem.mesh import (
    EmptySelectionError, MeshError, cell_submesh, facet_submesh, near,
    unit_cube_mesh, unit_square_mesh,
)
from multifem.space import Function, build_space, interpolate, lagrange, rt0, vector_lagrange


# Fields written on p[..., k] with +, -, *, sin, cos and exp, which round a
# point alone as they do in a batch, so the per-point oracle is bitwise.
def field(p):
    x, y = p[..., 0], p[..., 1]
    return np.sin(3.0 * x) * np.cos(2.0 * y) + x * y * y - 0.25 * p[..., -1]


def vector_field(p):
    return np.stack([field(p), np.exp(p[..., 0]) - p[..., 1]], axis=-1)


# -- per-point oracles ------------------------------------------------------------

def oracle_facets(mesh, holds):
    return [f for f, verts in enumerate(mesh.facets)
            if all(holds(mesh.vertices[v]) for v in verts)
            and holds(mesh.vertices[verts].mean(axis=0))]


def oracle_link(mesh, entities, entity_vertices, parent_cells):
    """Submesh arrays of the parent entities: vertices numbered by first
    appearance, cells in that numbering, and the parent links."""
    vertex_map = []
    for verts in entity_vertices:
        for v in verts:
            if v not in vertex_map:
                vertex_map.append(int(v))
    cells = [[vertex_map.index(v) for v in verts] for verts in entity_vertices]
    return {"cells": cells, "vertex_map": vertex_map,
            "cell_to_parent_cell": parent_cells, "cell_to_parent_entity": entities}


def oracle_bc(space, value, holds):
    if space.is_point_evaluation:
        dofs = [i for i, x in enumerate(space.dof_coords) if holds(x)]
        if space.ncomp == 1:
            values = [float(value(space.dof_coords[i])) for i in dofs]
        else:
            values = [float(value(space.dof_coords[i])[space.dof_component[i]]) for i in dofs]
        return dofs, values
    mesh = space.mesh
    ev = mesh.vertices[mesh.edges]
    dofs = [e for e in range(space.dim)
            if holds(space.edge_midpoints[e]) and holds(ev[e, 0]) and holds(ev[e, 1])]
    return dofs, oracle_edge_flux(space, value, dofs)


def oracle_edge_flux(space, value, edges):
    g = 1.0 / math.sqrt(3.0)
    out = []
    for e in edges:
        ev = space.mesh.vertices[space.mesh.edges[e]]
        mid, half = ev.mean(axis=0), 0.5 * (ev[1] - ev[0])
        avg = 0.5 * (value(mid - g * half) + value(mid + g * half))
        out.append(space.edge_lengths[e] * float(avg @ space.edge_normals[e]))
    return out


def same_bits(got, expected, dtype):
    got = np.asarray(got)
    expected = np.asarray(expected, dtype=dtype).reshape(got.shape)
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# -- random meshes and axis-aligned predicates ------------------------------------

@st.composite
def meshes(draw):
    if draw(st.booleans()):
        return unit_cube_mesh(draw(st.integers(1, 3)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    offset = draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
    extent = draw(st.tuples(st.floats(0.25, 3), st.floats(0.25, 3)))
    return unit_square_mesh(n, m, offset=offset, extent=extent)


@st.composite
def predicates(draw, mesh):
    """(batched, per-point) forms of a union of one or two terms, each a
    plane through a mesh vertex or a half-space, on one axis."""
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        axis = draw(st.integers(0, mesh.gdim - 1))
        kind = draw(st.sampled_from(["plane", "below", "above"]))
        if kind == "plane":
            c = float(mesh.vertices[draw(st.integers(0, mesh.num_vertices - 1)), axis])
        else:
            lo, hi = mesh.vertices[:, axis].min(), mesh.vertices[:, axis].max()
            c = draw(st.floats(lo - 0.1, hi + 0.1))
        terms.append((axis, kind, c))

    def term(kind, x, c):
        if kind == "plane":
            return near(x, c)
        return x <= c if kind == "below" else x >= c

    def batched(p):
        mask = np.zeros(len(p), dtype=bool)
        for axis, kind, c in terms:
            mask |= term(kind, p[:, axis], c)
        return mask

    def holds(x):
        return any(term(kind, x[axis], c) for axis, kind, c in terms)

    return batched, holds


@given(data=st.data())
def test_batched_selection_matches_per_point_loop(data):
    mesh = data.draw(meshes())
    predicate, holds = data.draw(predicates(mesh))

    selected = oracle_facets(mesh, holds)
    if selected:
        sub = facet_submesh(mesh, predicate)
        expected = oracle_link(mesh, selected, mesh.facets[selected],
                               [min(mesh.facet_cells[f]) for f in selected])
        assert same_bits(sub.cells, expected["cells"], np.int64)
        for name in ("vertex_map", "cell_to_parent_cell", "cell_to_parent_entity"):
            assert same_bits(getattr(sub.parent, name), expected[name], np.int64), name
        assert same_bits(sub.vertices, mesh.vertices[expected["vertex_map"]], float)
    else:
        with pytest.raises(EmptySelectionError):
            facet_submesh(mesh, predicate)

    kept = [c for c in range(mesh.num_cells)
            if holds(mesh.vertices[mesh.cells[c]].mean(axis=0))]
    if kept:
        sub = cell_submesh(mesh, predicate)
        expected = oracle_link(mesh, kept, mesh.cells[kept], kept)
        assert same_bits(sub.cells, expected["cells"], np.int64)
        for name in ("vertex_map", "cell_to_parent_cell", "cell_to_parent_entity"):
            assert same_bits(getattr(sub.parent, name), expected[name], np.int64), name
    else:
        with pytest.raises(EmptySelectionError):
            cell_submesh(mesh, predicate)

    if mesh.tdim == 3:
        spaces = [(build_space(mesh, lagrange(1)), field)]
    else:
        spaces = [(build_space(mesh, lagrange(1)), field),
                  (build_space(mesh, lagrange(2)), field),
                  (build_space(mesh, vector_lagrange(2)), vector_field),
                  (build_space(mesh, rt0()), vector_field)]
    for V, value in spaces:
        dofs, values = oracle_bc(V, value, holds)
        if dofs:
            bc = DirichletBC(V, value, predicate)
            assert same_bits(bc.dofs, dofs, np.int64), V.element
            assert same_bits(bc.values, values, float), V.element
        else:
            with pytest.raises(EmptySelectionError):
                DirichletBC(V, value, predicate)
        _, everywhere = oracle_bc(V, value, lambda x: True)
        assert same_bits(interpolate(V, value).coefficients, everywhere, float), V.element


# -- bad callbacks raise with a diagnostic -----------------------------------------

SQUARE = unit_square_mesh(3, 3)

SELECTIONS = {
    "facet_submesh": lambda pred: facet_submesh(SQUARE, pred),
    "cell_submesh": lambda pred: cell_submesh(SQUARE, pred),
    "P1 DirichletBC": lambda pred: DirichletBC(build_space(SQUARE, lagrange(1)), 0.0, pred),
    "RT0 DirichletBC": lambda pred: DirichletBC(build_space(SQUARE, rt0()), 0.0, pred),
}

BAD_PREDICATES = [
    (lambda p: True, r"returned shape \(\) for points of shape \((\d+), 2\); expected \(\1,\)"),
    (lambda p: near(p[1:, 0], 0), r"returned shape \((\d+),\) for points of shape "
                                  r"\(\d+, 2\); expected \(\d+,\)"),
    (lambda p: p[:, 0] * 1.0, r"returned dtype float64 for points of shape \((\d+), 2\); "
                              r"expected \(\1,\), a boolean mask"),
]


@pytest.mark.parametrize("select", list(SELECTIONS))
@pytest.mark.parametrize("bad", range(len(BAD_PREDICATES)))
def test_bad_predicate_raises_with_diagnostic(select, bad):
    predicate, message = BAD_PREDICATES[bad]
    with pytest.raises(ValueError, match=r"predicate .*<lambda> \(test_callbacks.py:\d+\) "
                                         + message):
        SELECTIONS[select](predicate)


@pytest.mark.parametrize("select", list(SELECTIONS))
def test_per_point_predicate_raises_with_diagnostic(select):
    # written for one point: on a batch, `or` asks for the truth of an array
    per_point = lambda p: near(p[0], 0) or near(p[1], 1)   # noqa: E731
    with pytest.raises(ValueError, match=r"raised ValueError \(.*\) for points of shape "
                                         r"\(\d+, 2\); expected \(\d+,\), a boolean mask") as info:
        SELECTIONS[select](per_point)
    assert isinstance(info.value.__cause__, ValueError)


def test_predicate_errors_of_submeshes_are_mesh_errors():
    with pytest.raises(MeshError):
        facet_submesh(SQUARE, lambda p: True)
    with pytest.raises(MeshError):
        cell_submesh(SQUARE, lambda p: True)


@pytest.mark.parametrize("element,value,expected", [
    (lagrange(1), lambda p: p, r"\(\d+,\)"),
    (vector_lagrange(2), lambda p: p[:, 0], r"\(\d+, 2\)"),
    (rt0(), lambda p: p[:, 0], r"\(\d+, 2\)"),
])
def test_field_of_wrong_shape_raises(element, value, expected):
    V = build_space(SQUARE, element)
    boundary = lambda p: near(p[:, 0], 0)   # noqa: E731
    with pytest.raises(ValueError, match=r"field .*<lambda> .*returned shape "
                                         r".* for points of shape .*; expected " + expected):
        DirichletBC(V, value, boundary)
    with pytest.raises(ValueError, match=r"field .*<lambda> .*returned shape .*; expected "
                                         + expected):
        interpolate(V, value)


@pytest.mark.parametrize("element,value", [
    (lagrange(1), lambda p: np.full(len(p), np.nan)),
    (lagrange(1), np.inf),
    (rt0(), lambda p: np.full((len(p), 2), np.nan)),
    (rt0(), (np.inf, 0.0)),
])
def test_non_finite_boundary_values_raise(element, value):
    V = build_space(SQUARE, element)
    with pytest.raises(ValueError, match="finite"):
        DirichletBC(V, value, lambda p: near(p[:, 0], 0))


# -- each callback is called a fixed number of times -------------------------------

class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, p):
        self.calls += 1
        return self.fn(p)


def _boundary(p):
    return near(p[:, 0] * (1 - p[:, 0]), 0) | near(p[:, 1] * (1 - p[:, 1]), 0)


@pytest.mark.parametrize("n", [2, 24])
def test_call_counts_do_not_grow_with_the_mesh(n):
    mesh = unit_square_mesh(n, n)
    cube = unit_cube_mesh(max(1, n // 8))
    left = lambda p: p[:, 0] <= 0.5     # noqa: E731
    selections = [
        (lambda pred: facet_submesh(mesh, pred), _boundary, 2),
        (lambda pred: facet_submesh(cube, pred), _boundary, 2),
        (lambda pred: cell_submesh(mesh, pred), left, 1),
        (lambda pred: cell_submesh(cube, pred), left, 1),
        (lambda pred: DirichletBC(build_space(mesh, lagrange(2)), 0.0, pred), _boundary, 1),
        (lambda pred: DirichletBC(build_space(mesh, vector_lagrange(2)), 0.0, pred),
         _boundary, 1),
        (lambda pred: DirichletBC(build_space(mesh, rt0()), 0.0, pred), _boundary, 3),
    ]
    for select, fn, most in selections:
        predicate = Counting(fn)
        select(predicate)
        assert 1 <= predicate.calls <= most

    for element, value in ((lagrange(1), field), (lagrange(2), field),
                           (vector_lagrange(2), vector_field), (rt0(), vector_field)):
        V = build_space(mesh, element)
        counted = Counting(value)
        DirichletBC(V, counted, _boundary)
        interpolate(V, counted)
        assert counted.calls == 2, element


# -- a Function is a field ------------------------------------------------------------

@pytest.mark.parametrize("element", [lagrange(1), lagrange(2), vector_lagrange(2), rt0()],
                         ids=["P1", "P2", "vector-P2", "RT0"])
def test_function_is_a_field_of_every_callback(element):
    # a coarse function goes where a callable does: its interpolant and
    # boundary values on a finer mesh are its point values there, and as
    # analytic data it integrates as its own coefficient does
    coarse, fine = unit_square_mesh(3, 3), unit_square_mesh(6, 6)
    Vc, Vf = build_space(coarse, element), build_space(fine, element)
    fc = Function(Vc, np.random.default_rng(11).standard_normal(Vc.dim))
    ref = interpolate(Vf, lambda p: fc(p))
    assert np.array_equal(interpolate(Vf, fc).coefficients, ref.coefficients)
    bc = DirichletBC(Vf, fc, _boundary)
    assert np.array_equal(bc.values, DirichletBC(Vf, lambda p: fc(p), _boundary).values)
    if Vf.is_point_evaluation:
        assert np.array_equal(bc.values, ref.coefficients[bc.dofs])
    dx = Measure(coarse)
    as_field = assemble(inner(Analytic(fc, shape=Vc.value_shape), Coefficient(fc)) * dx,
                        quad_degree=4)
    as_coefficient = assemble(inner(Coefficient(fc), Coefficient(fc)) * dx, quad_degree=4)
    assert abs(as_field - as_coefficient) <= 1e-13 * as_coefficient
