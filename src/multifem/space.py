"""Finite element spaces on simplicial meshes.

Supported elements: continuous Lagrange P1/P2 (scalar and vector),
discontinuous P0 (scalar and vector), and lowest-order Raviart-Thomas on
triangles.  Global dofs are numbered vertices first, then edges, then
cells, in mesh order; vector components are interleaved.  Spaces and
functions are immutable after construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import _LOCAL_EDGES, Mesh, MeshError, _call_on_points

__all__ = [
    "Element", "FunctionSpace", "Function", "UnsupportedElementError",
    "lagrange", "vector_lagrange", "dg0", "vector_dg0", "rt0",
    "build_space", "interpolate", "evaluate", "basis_row", "basis_rows",
    "tabulate_lagrange", "vector_basis", "rt0_edge_flux",
]

_uid_counter = itertools.count()


class UnsupportedElementError(ValueError):
    pass


@dataclass(frozen=True)
class Element:
    family: str            # 'Lagrange' | 'DiscontinuousLagrange' | 'RaviartThomas'
    degree: int
    vector: bool = False   # True: value shape (gdim,)

    def value_shape(self, gdim):
        if self.family == "RaviartThomas":
            return (gdim,)
        return (gdim,) if self.vector else ()


def lagrange(degree):
    return Element("Lagrange", degree)


def vector_lagrange(degree):
    return Element("Lagrange", degree, vector=True)


def dg0():
    return Element("DiscontinuousLagrange", 0)


def vector_dg0():
    return Element("DiscontinuousLagrange", 0, vector=True)


def rt0():
    return Element("RaviartThomas", 1)


# -- reference Lagrange bases -------------------------------------------------

def tabulate_lagrange(tdim, degree, points):
    """Values and reference gradients of the scalar Lagrange basis.

    Returns (vals, grads) of shapes (Q, nloc) and (Q, nloc, tdim), built
    from the barycentric coordinates lam = (1 - x - y - z, x, y, z): P1 is
    lam; P2 is lam_i (2 lam_i - 1) at the vertices, then 4 lam_a lam_b on
    the local edges (a, b) of the mesh's edge table (edge k is opposite
    vertex k on triangles, the cell itself on intervals).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = len(pts)
    if degree == 0:
        return np.ones((q, 1)), np.zeros((q, 1, tdim))
    if degree not in (1, 2) or tdim not in _LOCAL_EDGES or (tdim, degree) == (3, 2):
        raise UnsupportedElementError(f"Lagrange degree {degree} on tdim={tdim}")
    lam0 = 1 - pts[:, 0]
    for t in range(1, tdim):
        lam0 = lam0 - pts[:, t]
    lam = np.column_stack([lam0, pts[:, :tdim]])                  # (Q, tdim+1)
    dlam = np.vstack([-np.ones(tdim), np.eye(tdim)])              # (tdim+1, tdim)
    if degree == 1:
        return lam, np.tile(dlam, (q, 1, 1))
    a, b = np.array(_LOCAL_EDGES[tdim]).T
    vals = np.hstack([lam * (2 * lam - 1), 4 * lam[:, a] * lam[:, b]])
    grads = np.concatenate([(4 * lam - 1)[:, :, None] * dlam,
                            4 * (lam[:, a, None] * dlam[b] + lam[:, b, None] * dlam[a])], axis=1)
    return vals, grads


def vector_basis(scalar, nc):
    """Values (P, nloc_s * nc, nc, ...) of the vector basis with ``nc``
    interleaved components built from the scalar basis values ``scalar``
    (P, nloc_s, ...): local dof i * nc + c is scalar function i in
    component c, and zero in the others."""
    out = np.zeros(scalar.shape[:2] + (nc, nc) + scalar.shape[2:])
    for c in range(nc):
        out[:, :, c, c] = scalar
    return out.reshape((len(out), -1, nc) + scalar.shape[2:])


# -- function spaces ----------------------------------------------------------

class FunctionSpace:
    """Element + dof map over a mesh.

    Point-evaluation spaces carry ``dof_coords`` (and ``dof_component`` for
    vector elements).  RT0 carries edge-flux functionals: per-edge global
    normals/lengths, and per cell the orientation signs and the basis
    divergences (constant on each cell), both (C, 3).
    """

    def __init__(self, mesh: Mesh, element: Element):
        self.mesh = mesh
        self.element = element
        self.uid = next(_uid_counter)
        gdim, tdim = mesh.gdim, mesh.tdim
        self.value_shape = element.value_shape(gdim)
        self.ncomp = self.value_shape[0] if self.value_shape else 1

        fam, deg = element.family, element.degree
        if fam == "RaviartThomas":
            if deg != 1 or element.vector:
                raise UnsupportedElementError(
                    f"Raviart-Thomas only at degree 1 (RT0, vector=False), got {element}")
            if tdim != 2:
                raise UnsupportedElementError("RT0 requires a triangle mesh")
            self._init_rt0()
            return
        if fam == "Lagrange" and tdim == 3 and (deg != 1 or element.vector):
            raise UnsupportedElementError("3d meshes support scalar P1 only")
        if fam == "DiscontinuousLagrange":
            if deg != 0:
                raise UnsupportedElementError("discontinuous Lagrange only at degree 0")
            self._init_dg0()
            return
        if fam == "Lagrange":
            if deg not in (1, 2):
                raise UnsupportedElementError(f"Lagrange degree {deg} unsupported")
            self._init_lagrange(deg)
            return
        raise UnsupportedElementError(f"unknown element family {fam}")

    def _vectorize(self, scalar_dofmap, scalar_coords):
        """Interleave components: scalar dof s, component c -> s*ncomp + c,
        the layout of ``vector_basis``."""
        nc = self.ncomp
        dm = scalar_dofmap[:, :, None] * nc + np.arange(nc)
        self.dofmap = dm.reshape(len(dm), -1)
        self.dof_coords = np.repeat(scalar_coords, nc, axis=0)
        self.dof_component = np.tile(np.arange(nc), len(scalar_coords))
        self.dim = self.dof_coords.shape[0]

    def _init_lagrange(self, deg):
        mesh = self.mesh
        if deg == 1:
            scalar_dofmap, coords = mesh.cells, mesh.vertices
        else:
            nv = mesh.num_vertices
            scalar_dofmap = np.hstack([mesh.cells, nv + mesh.cell_edges])
            midpoints = mesh.vertices[mesh.edges].mean(axis=1)
            coords = np.vstack([mesh.vertices, midpoints])
        self._vectorize(scalar_dofmap, coords)

    def _init_dg0(self):
        scalar_dofmap = np.arange(self.mesh.num_cells, dtype=np.int64)[:, None]
        self._vectorize(scalar_dofmap, self.mesh.cell_centroids)

    def _init_rt0(self):
        mesh = self.mesh
        edges = mesh.edges
        ev = mesh.vertices[edges]                       # (ne, 2, gdim)
        tang = ev[:, 1] - ev[:, 0]
        self.edge_lengths = np.linalg.norm(tang, axis=1)
        tang = tang / self.edge_lengths[:, None]
        # global normal: ascending-vertex tangent rotated clockwise
        self.edge_normals = np.column_stack([tang[:, 1], -tang[:, 0]])
        self.edge_midpoints = ev.mean(axis=1)
        self.dofmap = mesh.cell_edges.copy()
        centroids = mesh.cell_centroids
        # sign +1 where the global edge normal points out of the cell
        out = self.edge_midpoints[self.dofmap] - centroids[:, None, :]
        dots = np.einsum("ckg,ckg->ck", out, self.edge_normals[self.dofmap])
        self.cell_signs = np.where(dots > 0, 1.0, -1.0)
        self.cell_divs = self.cell_signs * (2.0 / mesh.jacobian_measure)[:, None]
        self.dim = len(edges)
        self.dof_coords = self.edge_midpoints  # functional location, not point evaluation
        self.dof_component = None

    @property
    def nloc(self):
        return self.dofmap.shape[1]

    @property
    def is_point_evaluation(self):
        return self.element.family != "RaviartThomas"

    def rt0_cell_basis(self, cells, offsets):
        """Physical RT0 basis values on the given cells (C,), cells last:
        (Q, 3, gdim, C) at the points ``offsets`` (Q, gdim, C), given
        relative to each cell's first vertex.  Relative
        coordinates keep the basis exact where it vanishes: absolute ones
        would carry the rounding of the cells' position into every value."""
        mesh = self.mesh
        v = mesh.vertices.T[:, mesh.cells[cells].T]     # (gdim, 3, C)
        twice_area = mesh.jacobian_measure[cells]       # (C,)
        signs = self.cell_signs[cells].T                # (3, C)
        diff = offsets[:, None] - (v - v[:, :1]).transpose(1, 0, 2)
        return (signs / twice_area)[:, None] * diff


def build_space(mesh, element):
    """Construct a FunctionSpace; deterministic dof numbering."""
    return FunctionSpace(mesh, element)


class Function:
    """A finite element function: a space plus a coefficient vector, and a
    point field that goes wherever a callable field does (``__call__``)."""

    def __init__(self, space: FunctionSpace, coefficients=None):
        self.space = space
        if coefficients is None:
            coefficients = np.zeros(space.dim)
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape != (space.dim,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} != space dim {space.dim}")

    def __call__(self, points):
        """Values (N,) + value shape at the points (N, gdim): per point, one
        stacked matmul of its ``basis_rows`` with its local coefficients."""
        cols, rows = basis_rows(self.space, points)
        vals = np.matmul(rows, self.coefficients[cols][:, :, None])[:, :, 0]
        return vals if self.space.value_shape else vals[:, 0]


def _field_values(f, points, value_shape):
    """Values (N,) + value_shape of ``f`` at the points (N, gdim): one call
    of a callable field, or a constant broadcast to that shape."""
    if callable(f):
        return _call_on_points(f, points, value_shape)
    return np.broadcast_to(np.asarray(f, dtype=float), (len(points),) + value_shape)


def rt0_edge_flux(space: FunctionSpace, field, edges):
    """Edge fluxes int_e f.n ds of ``field`` (a constant or a callable
    field) against the global normals of the listed edges, by 2-point
    Gauss on each.  A callable is called once, on the Gauss points of all
    the edges (2 len(edges), gdim)."""
    edges = np.asarray(edges, dtype=np.int64)
    g = 1.0 / math.sqrt(3.0)
    ev = space.mesh.vertices[space.mesh.edges[edges]]
    mid, half = ev.mean(axis=1), 0.5 * (ev[:, 1] - ev[:, 0])
    vals = _field_values(field, np.concatenate([mid - g * half, mid + g * half]),
                         space.value_shape)
    avg = 0.5 * (vals[:len(edges)] + vals[len(edges):])
    # stacked matmul runs the BLAS dot of a single edge's avg @ normal
    flux = np.matmul(avg[:, None, :], space.edge_normals[edges, :, None])[:, 0, 0]
    return space.edge_lengths[edges] * flux


def _dof_values(space: FunctionSpace, f, dofs):
    """The degrees of freedom ``dofs`` of ``f`` (a constant or a callable
    field, called once): point values at the dof coordinates, of the dof's
    component for vector elements, or RT0 edge fluxes.  A vector element's
    field is called once on each node its dofs sit at."""
    dofs = np.asarray(dofs, dtype=np.int64)
    if not space.is_point_evaluation:
        return rt0_edge_flux(space, f, dofs)
    if space.ncomp == 1:
        return np.array(_field_values(f, space.dof_coords[dofs], space.value_shape))
    # dof s * ncomp + c is component c at scalar node s
    nodes, at = np.unique(dofs // space.ncomp, return_inverse=True)
    vals = _field_values(f, space.dof_coords[nodes * space.ncomp], space.value_shape)
    return vals[at, space.dof_component[dofs]]


def interpolate(space: FunctionSpace, f) -> Function:
    """Nodal interpolation of ``f``, a constant or a field that maps points
    (N, gdim) to values (N,) + value shape and is called once.  Lagrange:
    point values at the dof coordinates.  RT0: edge fluxes of f against
    the globally oriented normals (2-point Gauss on each edge)."""
    return Function(space, _dof_values(space, f, np.arange(space.dim)))


def basis_rows(space: FunctionSpace, points, cells=None):
    """Global basis values at each of the points (N, gdim), each from one
    evaluating cell.

    Returns (columns, values) of shapes (N, nloc) and (N, ncomp, nloc): one
    row per point and value component.  ``cells`` (N,) overrides the
    locator's lowest-index tie-break (used to evaluate from a designated
    parent side).  Out-of-domain points raise the locator's
    OutOfDomainError, whose ``index`` names the first one.
    """
    points = np.asarray(points, dtype=float)
    if cells is None:
        cells, lam = space.mesh.locator.locate_many(points)
    else:
        cells = np.asarray(cells, dtype=np.int64)
        lam, _ = space.mesh.barycentric_many(cells, points)
    cols = space.dofmap[cells]
    if space.element.family == "RaviartThomas":
        v0 = space.mesh.vertices[space.mesh.cells[cells, 0]]
        vals = space.rt0_cell_basis(cells, (points - v0).T[None])
        return cols, vals[0].transpose(2, 1, 0)        # (N, gdim, 3)
    vals, _ = tabulate_lagrange(space.mesh.tdim, space.element.degree, lam[:, 1:])
    return cols, vector_basis(vals, space.ncomp).transpose(0, 2, 1)


def basis_row(space: FunctionSpace, x, cell=None):
    """Global basis values at point ``x`` from one evaluating cell.

    Returns (columns, values) with values of shape (ncomp, nloc): one row
    per value component.  ``cell`` overrides the locator's lowest-index
    tie-break (used to evaluate from a designated parent side).
    """
    cols, rows = basis_rows(space, np.asarray(x, dtype=float)[None, :],
                            None if cell is None else [cell])
    return cols[0], rows[0]


def evaluate(fn: Function, x):
    """Point evaluation of a finite element function (scalar or vector)."""
    val = fn(np.asarray(x, dtype=float)[None, :])[0]
    return float(val) if not fn.space.value_shape else val
