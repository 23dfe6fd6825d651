"""Reduction matrices coupling bulk spaces to lower-dimensional (or
subdomain) target spaces: point-evaluation traces, circle averages around
a curve, and same-dimension restrictions.

Rows correspond to target dofs, columns to source dofs.  A synchronized
cache builds each matrix once per (source space, target mesh, kind,
parameters) key and exposes a build counter for testing; it lives as long
as its owner (``multi_assemble`` makes one per call that is given none).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forms import ReductionKind, _check_average
from .mesh import Mesh, OutOfDomainError
from .space import Element, FunctionSpace, basis_rows, build_space

__all__ = [
    "ReductionMatrix", "ReductionCache", "UnsupportedReductionError", "reduction_key",
    "deduce_reduced_space", "trace_matrix", "average_matrix",
    "circle_frames", "circle_points", "curve_dof_tangents",
]


class UnsupportedReductionError(ValueError):
    pass


@dataclass
class ReductionMatrix:
    kind: ReductionKind
    target_space: FunctionSpace
    matrix: sp.csr_matrix


def deduce_reduced_space(source: FunctionSpace, target_mesh: Mesh, kind: ReductionKind):
    """Target space of a reduction: Lagrange sources keep their degree and
    value shape; RT0 reduces to cellwise-constant vectors; restriction
    preserves the element exactly."""
    el = source.element
    if kind.name == "restrict":
        return build_space(target_mesh, el)
    if el.family == "Lagrange" and el.degree >= 1:
        return build_space(target_mesh, el)
    if el.family == "RaviartThomas" and kind.name == "trace":
        return build_space(target_mesh, Element("DiscontinuousLagrange", 0, vector=True))
    raise UnsupportedReductionError(
        f"no reduced space for {el.family} degree {el.degree} under {kind.name}")


def trace_matrix(source: FunctionSpace, target: FunctionSpace):
    """Point-evaluation trace onto a lower-dimensional target mesh, or
    restriction onto a same-dimension submesh.  Row i holds the source
    basis values at the functional location of target dof i: the dof
    coordinate for Lagrange targets, the cell midpoint for vector-P0
    targets (RT0 source).  Each dof is evaluated from the first target cell
    listing it, in the parent cell of that cell when the target mesh was
    derived from the source mesh (otherwise the locator's tie-break)."""
    link = target.mesh.parent
    hints = link.cell_to_parent_cell if link is not None and link.mesh is source.mesh else None
    # target dofs in order of first appearance in the target cells
    flat = target.dofmap.ravel()
    _, first = np.unique(flat, return_index=True)
    first.sort()
    dofs = flat[first]
    x = target.dof_coords[dofs]
    cells = hints[first // target.nloc] if hints is not None else None
    try:
        cols, vals = basis_rows(source, x, cells)
    except OutOfDomainError as err:
        raise OutOfDomainError(x[err.index], detail=f"target dof {dofs[err.index]}",
                               index=err.index) from None
    if len(dofs) != target.dim:
        raise UnsupportedReductionError("target space has dofs not reachable from cells")
    if target.ncomp > 1 and source.ncomp > 1:
        vals = vals[np.arange(len(dofs)), target.dof_component[dofs]]
    else:
        vals = vals[:, 0]
    return _csr(np.repeat(dofs, cols.shape[1]), cols, vals, (target.dim, source.dim))


def _csr(rows, cols, vals, shape):
    """CSR from COO triplets in the given order, duplicates summed and
    exact zeros (basis functions that vanish at a point) not stored.  The
    conversion sums duplicates and sorts the column indices itself."""
    m = sp.coo_matrix((vals.ravel(), (rows, cols.ravel())), shape=shape).tocsr()
    m.eliminate_zeros()
    return m


# -- circle averages -----------------------------------------------------------

_AXES = np.eye(3)


def circle_frames(tangents):
    """Right-handed orthonormal frames (e1, e2, t) of the tangents (N, 3):
    e1 = normalize(t x a) with a the coordinate axis minimizing |t.a|
    (lowest index on ties)."""
    t = np.asarray(tangents, dtype=float)
    t = t / _norms(t)[:, None]
    a = _AXES[np.argmin(np.round(np.abs(t), 12), axis=1)]
    e1 = np.cross(t, a)
    e1 /= _norms(e1)[:, None]
    return e1, np.cross(t, e1)


def _norms(v):
    """Euclidean norms of the rows of v, each bitwise ``np.linalg.norm(row)``
    (a BLAS dot, which ``norm(v, axis=1)`` is not)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def circle_points(centers, tangents, radius, n_quad):
    """(N, n_quad, 3) uniform points on the circles of given radius around
    the centers (N, 3), in the planes orthogonal to the tangents (N, 3)."""
    e1, e2 = circle_frames(tangents)
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    return (np.asarray(centers)[:, None, :]
            + radius * (np.cos(theta)[None, :, None] * e1[:, None, :]
                        + np.sin(theta)[None, :, None] * e2[:, None, :]))


def curve_dof_tangents(target: FunctionSpace):
    """Unit tangent per target dof: normalized average of the tangents of
    the adjacent curve cells (well defined at polyline joints)."""
    mesh = target.mesh
    if mesh.tdim != 1:
        raise UnsupportedReductionError("averages target curve meshes only")
    cell_t = mesh.vertices[mesh.cells[:, 1]] - mesh.vertices[mesh.cells[:, 0]]
    cell_t = cell_t / np.linalg.norm(cell_t, axis=1)[:, None]
    acc = np.zeros((target.dim, mesh.gdim))
    # unbuffered, in cell order: the sums of a loop over cells
    np.add.at(acc, target.dofmap.ravel(), np.repeat(cell_t, target.nloc, axis=0))
    norms = np.linalg.norm(acc, axis=1)
    if np.any(norms < 1e-14):
        raise UnsupportedReductionError("degenerate tangent at a curve dof")
    return acc / norms[:, None]


def average_matrix(source: FunctionSpace, target: FunctionSpace,
                   radius: float, n_quad: int = 16):
    """Circle-average rows: row i is the mean of source basis rows over
    ``n_quad`` uniform points on the circle of ``radius`` around dof i in
    the plane normal to the curve tangent.  Out-of-domain circle points are
    a hard error naming the dof; a radius <= 0 or an ``n_quad`` that is
    not an integer >= 1 raises ``FormError``."""
    _check_average(radius, n_quad)
    if source.ncomp != 1:
        raise UnsupportedReductionError("averages support scalar sources only")
    tangents = curve_dof_tangents(target)
    pts = circle_points(target.dof_coords, tangents, radius, n_quad).reshape(-1, 3)
    try:
        cols, vals = basis_rows(source, pts)
    except OutOfDomainError as err:
        raise OutOfDomainError(pts[err.index], detail=f"circle point of curve dof "
                               f"{err.index // n_quad}", index=err.index) from None
    rows = np.repeat(np.arange(target.dim), n_quad * cols.shape[1])
    return _csr(rows, cols, vals[:, 0] / n_quad, (target.dim, source.dim))


# -- cache ----------------------------------------------------------------------

def reduction_key(source: FunctionSpace, target_mesh: Mesh, kind: ReductionKind):
    """(source space uid, target mesh uid, kind, parameters): the key of a
    reduction in ``ReductionCache``, orderable and computed without a build."""
    return (source.uid, target_mesh.uid, kind.name, kind.params())


class ReductionCache:
    """Build-once map keyed by ``reduction_key``."""

    def __init__(self):
        self._store = {}
        self._lock = threading.Lock()
        self.build_count = 0

    def get_or_build(self, source: FunctionSpace, target_mesh: Mesh,
                     kind: ReductionKind) -> ReductionMatrix:
        key = reduction_key(source, target_mesh, kind)
        with self._lock:
            hit = self._store.get(key)
            if hit is not None:
                return hit
            target = deduce_reduced_space(source, target_mesh, kind)
            if kind.name == "average":
                matrix = average_matrix(source, target, kind.radius, kind.n_quad)
            else:
                matrix = trace_matrix(source, target)
            built = ReductionMatrix(kind, target, matrix)
            self._store[key] = built
            self.build_count += 1
            return built
