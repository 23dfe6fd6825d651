"""Simplicial meshes embedded in 1d/2d/3d: structured generators, derived
facet/cell submeshes with parent maps, and point location.

The square and cube generators record their structured grid
(``Mesh.grid``), and their locators take each point's candidate cells from
it in closed form; every other mesh (submeshes, polylines, ``Mesh(v, c)``)
is located through background bins.

Meshes are immutable after construction and safe to share across threads:
their cell geometry is computed at construction, and the entity tables and
locator built on first use depend only on the mesh's arrays.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh", "CellLocator", "ParentLink", "MeshError", "OutOfDomainError",
    "EmptySelectionError", "unit_square_mesh", "unit_cube_mesh",
    "polyline_mesh", "facet_submesh", "cell_submesh", "near",
]

_MIN_MEASURE = 1e-14
_LOCATE_PAIRS = 1 << 17     # (point, corner offset or split cell) pairs per lookup
_LOCATE_TOL = 1e-10         # containment tolerance of CellLocator

_uid_counter = itertools.count()


class MeshError(ValueError):
    pass


class OutOfDomainError(MeshError):
    """Raised when a query point lies outside every cell of a mesh."""

    def __init__(self, point, detail=None, index=None):
        self.point = np.asarray(point, dtype=float)
        self.index = index        # position of the point in a batched query
        msg = f"point {self.point.tolist()} is outside the mesh"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EmptySelectionError(MeshError):
    pass


def _read_only(a):
    a.setflags(write=False)
    return a


def _is_count(value):
    """Whether ``value`` is an integer >= 1 (a bool is not): the rule for
    every cell and quadrature count of the package."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def _check_finite(what, rows):
    """Raise MeshError naming the first row of ``rows`` (N, d) that has a
    non-finite entry."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if len(bad):
        raise MeshError(f"{what} {bad[0]} is not finite: {rows[bad[0]].tolist()}")


@dataclass(frozen=True)
class _Grid:
    """Structured grid of a generated mesh: ``counts`` sub-cells per axis
    tile the box from ``offset`` to ``offset + extent`` ((gdim,) float64
    arrays, finite), and each sub-cell is split into ``nsplit`` simplices
    that share its main diagonal.  Cell ``split + nsplit * sub`` lies in
    sub-cell ``sub``, numbered row-major with x fastest."""
    offset: np.ndarray
    extent: np.ndarray
    counts: np.ndarray
    nsplit: int


def near(a, b=0.0, tol=1e-10):
    """Elementwise proximity check for coordinate predicates (absolute
    tolerance): ``near(p[:, 0], 1)`` is the boolean mask of the points
    ``p`` (N, gdim) on the plane x = 1."""
    return abs(a - b) < tol


def _call_on_points(fn, points, shape=None, error=ValueError):
    """Call the coordinate callback ``fn`` once on all ``points`` (N, gdim).

    Every callback of the package follows this convention.  A predicate
    (``shape`` None) returns a boolean mask (N,); a field returns values of
    shape (N,) + ``shape``, returned as float64.  An exception from ``fn``,
    or a result of another shape or dtype, raises ``error`` naming the
    callable, the shape of the points and the expected result; ``fn`` is
    never called once per point instead."""
    points = np.asarray(points, dtype=float)
    expected = (len(points),) + (() if shape is None else tuple(shape))

    def failure(problem):
        code, where = getattr(fn, "__code__", None), ""
        if code is not None:
            where = f" ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"
        kind, want = ("predicate", "a boolean mask") if shape is None else ("field", "float values")
        name = getattr(fn, "__qualname__", None) or repr(fn)
        return error(f"{kind} {name}{where} {problem} for points of shape "
                     f"{points.shape}; expected {expected}, {want}")

    try:
        out = fn(points)
        out = np.asarray(out) if shape is None else np.asarray(out, dtype=float)
    except Exception as exc:
        raise failure(f"raised {type(exc).__name__} ({exc})") from exc
    if out.shape != expected:
        raise failure(f"returned shape {out.shape}")
    if shape is None and out.dtype != bool:
        raise failure(f"returned dtype {out.dtype}")
    return out


# Local sub-entity numbering. Edge/facet k is opposite local vertex k where
# that convention exists (triangle edges, tet faces).  The edges, keyed by
# tdim, also order the P2 edge functions of ``space.tabulate_lagrange``.
_LOCAL_EDGES = {1: ((0, 1),), 2: ((1, 2), (0, 2), (0, 1)),
                3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# compare-exchanges that sort k <= 3 columns, keyed by k
_SORTING_NETWORK = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1))}


def _number_entities(cells, local):
    """Number the sub-entities of every cell, given as tuples ``local`` of
    local vertex indices (k <= 3 each), by first appearance in cell order.
    Returns the entities as ascending vertex tuples (ne, k) and the
    (nc, len(local)) map from cells into that numbering.

    One sort: each tuple's vertex columns are put in ascending order by
    compare-exchange, one stable ``lexsort`` groups equal keys, and the
    groups are ranked by first appearance with a mark array and a
    ``cumsum`` over the N = nc * len(local) tuples."""
    cols = [cells[:, j].ravel() for j in np.asarray(local).T]
    for i, j in _SORTING_NETWORK[len(cols)]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    order = np.lexsort(cols[::-1])          # stable: equal keys stay in cell order
    new = np.zeros(len(order), dtype=bool)  # where a group of equal keys starts
    new[0] = True
    for c in cols:
        s = c[order]
        new[1:] |= s[1:] != s[:-1]
    first = order[new]                      # first appearance of each group
    mark = np.zeros(len(order), dtype=bool)
    mark[first] = True
    rank = np.cumsum(mark) - 1              # at a first appearance, its rank
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = rank[first][np.cumsum(new) - 1]
    kept = np.flatnonzero(mark)
    return (np.stack([c[kept] for c in cols], axis=1),
            inverse.reshape(len(cells), len(local)))


@dataclass(frozen=True)
class ParentLink:
    """Connection of a derived mesh to the mesh it was extracted from."""
    mesh: "Mesh"
    vertex_map: np.ndarray        # submesh vertex -> parent vertex
    cell_to_parent_cell: np.ndarray
    cell_to_parent_entity: np.ndarray  # facet index (facet submesh) or cell index


class Mesh:
    """Simplicial mesh of topological dimension ``tdim`` embedded in
    ``gdim``-space (tdim <= gdim <= 3).

    ``vertices`` is (nv, gdim) float64, ``cells`` is (nc, tdim+1) int64
    with nc >= 1 and indices in [0, nv) (given as an integer array).
    Derived entities (edges, facets) are numbered deterministically by
    first appearance in cell order, each kind with one sort on first
    access, so regenerating a mesh from equal inputs reproduces identical
    arrays.  A facet's lowest adjacent cell is where it first appears;
    the full facet -> cell table ``facet_cells`` is built on first access
    only.

    The mesh keeps read-only copies of its arrays and owns the geometry of
    its cells' affine maps x = v0 + xi @ E, both in closed form and both
    computed at construction from one gather of the edge vectors E:
    ``jacobian_measure`` (nc,), |det E| or sqrt|det(E E^T)| on manifolds,
    and ``gradient_transform`` (nc, gdim, tdim), E^-1 or E^T (E E^T)^-1.
    Neither is built lazily, on first use.
    """

    def __init__(self, vertices, cells, parent: ParentLink | None = None):
        # Own read-only copies: the geometry below must not go stale.
        self.vertices = _read_only(np.array(vertices, dtype=np.float64, order="C"))
        cells = np.asarray(cells)
        if cells.dtype.kind not in "iu":
            raise MeshError(f"cells must hold integer vertex indices, got dtype {cells.dtype}")
        self.cells = _read_only(np.array(cells, dtype=np.int64, order="C"))
        if self.vertices.ndim != 2 or self.cells.ndim != 2:
            raise MeshError("vertices must be (nv, gdim), cells (nc, tdim+1)")
        if not len(self.cells):
            raise MeshError(f"the mesh has no cells (cells of shape {self.cells.shape})")
        self.gdim = self.vertices.shape[1]
        self.tdim = self.cells.shape[1] - 1
        if not 1 <= self.tdim <= self.gdim <= 3:
            raise MeshError(f"unsupported dimensions tdim={self.tdim}, gdim={self.gdim}")
        nv = len(self.vertices)
        if not (self.cells.min() >= 0 and self.cells.max() < nv):
            bad = np.flatnonzero(((self.cells < 0) | (self.cells >= nv)).any(axis=1))[0]
            raise MeshError(f"cell {bad} has vertex indices {self.cells[bad].tolist()} "
                            f"outside [0, {nv})")
        _check_finite("vertex", self.vertices)
        self.parent = parent
        self.uid = next(_uid_counter)
        E = self._edge_components()
        G, det = _gradient_transform(E)
        self.jacobian_measure = _read_only(
            np.abs(det) if len(E) == len(E[0]) else np.sqrt(np.abs(det)))
        vols = self.cell_volumes
        bad = np.flatnonzero(~(vols >= _MIN_MEASURE))     # NaN fails too
        if len(bad):
            raise MeshError(f"cell {bad[0]} has measure {vols[bad[0]]:.3e} < {_MIN_MEASURE}")
        # the per-cell map of reference to physical gradients,
        # grad = G @ ref_grad; it divides by det, checked nonzero above
        G /= det
        self.gradient_transform = _read_only(G.transpose(2, 0, 1))

    # -- basic quantities ---------------------------------------------------

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def cell_volumes(self):
        """Unsigned cell measures (length/area/volume)."""
        return self.jacobian_measure / math.factorial(self.tdim)

    def _edge_components(self):
        """(tdim, gdim, nc) edge vectors E of the affine maps x = v0 + xi @ E,
        component-major: ``E[t][g]`` is one contiguous array over the cells."""
        v = self.vertices.T[:, self.cells.T]             # (gdim, tdim+1, nc)
        return (v[:, 1:] - v[:, :1]).transpose(1, 0, 2)

    @property
    def cell_centroids(self):
        return self.vertices[self.cells].mean(axis=1)

    # -- derived entities ---------------------------------------------------

    @functools.cached_property
    def _edge_numbering(self):
        if self.tdim == 1:
            return self.cells.copy(), np.arange(self.num_cells, dtype=np.int64)[:, None]
        return _number_entities(self.cells, _LOCAL_EDGES[self.tdim])

    @property
    def edges(self):
        """(ne, 2) vertex pairs, each sorted ascending; for tdim=1 the cells."""
        return self._edge_numbering[0]

    @property
    def cell_edges(self):
        """(nc, edges per cell) map into the global edge numbering."""
        return self._edge_numbering[1]

    @functools.cached_property
    def _facet_numbering(self):
        if self.tdim == 2:
            return self.edges, self.cell_edges
        if self.tdim == 3:
            return _number_entities(self.cells, _TET_FACES)
        raise MeshError("facets are not defined for tdim=1 meshes")

    @property
    def facets(self):
        """(nf, tdim) codimension-1 entities as sorted vertex tuples."""
        return self._facet_numbering[0]

    @functools.cached_property
    def _facet_adjacency(self):
        cell_facets = self._facet_numbering[1]
        flat = cell_facets.ravel()
        # CSR: the cells of facet f, ascending, are idx[ptr[f]:ptr[f + 1]]
        idx = (np.argsort(flat, kind="stable") // cell_facets.shape[1]).tolist()
        ptr = np.r_[0, np.cumsum(np.bincount(flat, minlength=len(self.facets)))].tolist()
        return [idx[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    @property
    def facet_cells(self):
        """List of adjacent cell indices per facet (1 on the boundary, else
        2), ascending; built on first access only."""
        return self._facet_adjacency

    def _lowest_facet_cell(self, selected):
        """Lowest-index adjacent cell of each facet in ``selected``, without
        the ``facet_cells`` table.  Facets are numbered by first appearance
        in cell order, so that cell is the one where a facet first appears:
        a position where the flattened cell -> facet map exceeds its running
        maximum, divided by the facets per cell."""
        self.facets                 # the numbering, built through its property
        flat = self._facet_numbering[1].ravel()
        first = np.flatnonzero(np.r_[True, flat[1:] > np.maximum.accumulate(flat)[:-1]])
        return first[selected] // (self.tdim + 1)

    # The structured grid the square and cube generators record (see
    # ``CellLocator``); no other mesh carries one.
    grid = None

    @functools.cached_property
    def locator(self):
        return CellLocator(self)

    def barycentric_many(self, cells, x):
        """Barycentric coordinates (N, tdim+1) of the points ``x`` (N, gdim)
        in ``cells`` (N,), plus their distances (N,) off the cells' planes
        (zero when tdim == gdim).  Needs no locator."""
        return _barycentric(self.vertices, self.cells, self.gradient_transform,
                            np.asarray(cells, dtype=np.int64), np.asarray(x, dtype=float))


# -- closed-form affine geometry -----------------------------------------------
# Matrices are nested sequences a[i][j] of arrays over the cells, t x t with
# t <= 3, so each entry is a few vectorized products.

def _adjugate(a, i, j):
    """Entry (i, j) of adj(a), the matrix with a @ adj(a) = det(a) I."""
    t = len(a)
    if t == 1:
        return np.ones_like(a[0][0])
    if t == 2:
        return a[1 - j][1 - i] if i == j else -a[1 - j][1 - i]
    p, q, r, s = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
    return a[p][r] * a[q][s] - a[p][s] * a[q][r]


def _det(a, adj):
    """det(a), expanded along the first row, from the adjugate ``adj`` of a."""
    d = a[0][0] * adj[0][0]
    for i in range(1, len(a)):
        d += a[0][i] * adj[i][0]
    return d


def _gram(E):
    """E E^T of edge vectors ``E`` (tdim, gdim, nc)."""
    t = len(E)
    dot = [[None] * t for _ in range(t)]
    for i in range(t):
        for k in range(i, t):
            d = E[i][0] * E[k][0]
            for g in range(1, len(E[0])):
                d += E[i][g] * E[k][g]
            dot[i][k] = dot[k][i] = d
    return dot


def _gradient_transform(E):
    """G = E^-1, or E^T (E E^T)^-1 on manifolds, of the edge vectors ``E``
    (tdim, gdim, nc), as G det (gdim, tdim, nc) and det (nc,), where det is
    det E, or det(E E^T) on manifolds: each entry of the adjugate is
    computed once, and det from its first column, so the cell measure
    comes from det and the division by it waits for the measure check."""
    t, g = len(E), len(E[0])
    a = E if t == g else _gram(E)
    adj = [[_adjugate(a, i, j) for j in range(t)] for i in range(t)]
    if t == g:
        G = np.array(adj)
    else:
        G = np.empty((g, t, E.shape[2]))
        for i in range(g):
            for j in range(t):
                G[i, j] = E[0][i] * adj[0][j]
                for k in range(1, t):
                    G[i, j] += E[k][i] * adj[k][j]
    return G, _det(a, adj)


class CellLocator:
    """Point location in the cells of a mesh.

    ``locate_many`` returns (cell indices, barycentric coordinates) for a
    batch of points.  Points shared by several cells resolve to the lowest
    cell index; containment uses an absolute tolerance tol = 1e-10 on
    barycentric coordinates and, on manifolds, on the distance to the
    cell's plane.  Non-finite points, and points farther outside the vertex
    bounding box than its diameter, lie in no cell.  Only the source of
    each point's candidate cells depends on the mesh; the containment test
    and the tie-break are the same for both sources.  The locator keeps
    only the geometry it needs, not the mesh.

    *Grid candidates* (meshes with a ``grid``: the square and cube
    generators).  In grid units s, a point has local coordinates
    r = s - a in sub-cell a, and the split cells' barycentric coordinates
    are 1 - max r, the consecutive differences of sorted r, and min r.  So
    sub-cell a holds the point within the tolerance iff every r_i lies in
    [-tol, 1 + tol]: the holding sub-cells are a product of per-axis
    ranges, and since cell indices grow with each a_i the lowest holding
    cell is a split of sub-cell ``a_i = clip(ceil(s_i - 1 - tol), 0,
    n_i - 1)``.  Those ``nsplit`` cells are the candidates; no bins are
    built.  Where s_i - 1 - tol lies within rounding of an integer, the
    sub-cells on both sides along that axis are candidates, so that the
    answer in floating point is the bins' answer there too.

    *Bin candidates* (every other mesh).  A uniform background grid over
    padded cell bounding boxes indexes each cell once, under the bin of
    its padded box's lower corner.  The occupied corner bins are stored in
    CSR form: bin ``bin_keys[b]`` (a row-major index into the
    ``nbins ** gdim`` grid, ascending) holds the cells
    ``bin_cells[bin_ptr[b]:bin_ptr[b + 1]]`` in ascending order, and
    ``bin_upper`` holds the (gdim,) bin index of each of those cells'
    upper corner.  ``reach`` is the per-axis maximum of upper minus lower
    bin index, so a point in bin ``i`` can lie only in the cells whose
    corner bin is ``i - off`` for some ``0 <= off <= reach`` and whose
    upper index is ``>= i``.
    """

    def __init__(self, mesh: Mesh):
        self.tdim, self.gdim = mesh.tdim, mesh.gdim
        self._num_cells = mesh.num_cells
        # geometry for barycentric solves: the mesh's own read-only arrays
        self._vertices, self._cells = mesh.vertices, mesh.cells
        self._G = mesh.gradient_transform
        # Every point a cell holds within the tolerance lies within
        # ``margin`` of the vertex box; one farther out gets no candidate,
        # which also keeps huge finite points out of the barycentric solve.
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        span = np.linalg.norm(hi - lo)
        margin = span + _LOCATE_TOL * (1.0 + (self.tdim + 1) * span)
        self._box_lo, self._box_hi = lo - margin, hi + margin
        self._grid = mesh.grid
        if self._grid is not None:
            g = self._grid
            self._sub_strides = np.cumprod(np.r_[1, g.counts[:-1]])
            self._corners = np.array(list(np.ndindex((2,) * self.gdim)), dtype=np.int64)
            # bound, in grid units, on the rounding of s and of the
            # barycentric coordinates, both computed from coordinates of
            # size up to |offset| + extent in cells of width extent / n
            self._slack = 64 * np.finfo(float).eps * (1.0 + (np.abs(g.offset) + g.extent)
                                                      * g.counts / g.extent)
            self._per_point = g.nsplit
        else:
            self._build_bins(mesh)
            self._per_point = len(self._offsets)

    def _build_bins(self, mesh):
        v = mesh.vertices[mesh.cells]                      # (nc, tdim+1, gdim)
        cell_lo = v.min(axis=1)
        cell_hi = v.max(axis=1)
        self.lo = cell_lo.min(axis=0)
        self.hi = cell_hi.max(axis=0)
        nbins = max(1, math.ceil(mesh.num_cells ** (1.0 / mesh.tdim)))
        if nbins ** self.gdim >= 2 ** 63:
            raise MeshError(f"{nbins}^{self.gdim} locator bins overflow int64 keys")
        self.nbins = nbins
        self._strides = nbins ** np.arange(self.gdim - 1, -1, -1, dtype=np.int64)
        span = self.hi - self.lo
        # Degenerate axes (e.g. a vertical line in 3d) collapse to one bin.
        self.width = np.where(span > 0, span / nbins, 1.0)
        self._diam = np.linalg.norm(cell_hi - cell_lo, axis=1)
        # A point with every barycentric coordinate >= -tol lies within
        # tdim * tol * diam of its cell's box, and one that passes the
        # residual test within tol * (1 + diam) of the cell's plane.
        pad = (1e-12 + 1e-12 * np.linalg.norm(span)
               + _LOCATE_TOL * (1.0 + (self.tdim + 1) * self._diam))[:, None]
        lo_idx = np.clip(np.floor((cell_lo - pad - self.lo) / self.width),
                         0, nbins - 1).astype(np.int64)
        hi_idx = np.clip(np.floor((cell_hi + pad - self.lo) / self.width),
                         0, nbins - 1).astype(np.int64)
        corner = lo_idx @ self._strides
        order = np.argsort(corner, kind="stable")          # cells ascend in a bin
        corner = corner[order]
        first = np.flatnonzero(np.r_[True, corner[1:] != corner[:-1]])
        self.bin_keys = corner[first]
        self.bin_ptr = np.append(first, len(corner))
        self.bin_cells = order
        self.bin_upper = hi_idx[order]
        self.reach = (hi_idx - lo_idx).max(axis=0)
        self._offsets = np.array(list(np.ndindex(*self.reach + 1)), dtype=np.int64)

    def _candidates(self, x):
        """(point, cell) pairs of the finite points ``x`` (N, gdim) and
        their candidate cells, in no particular order."""
        if self._grid is not None:
            return self._grid_candidates(x)
        return self._bin_candidates(x)

    def _grid_candidates(self, x):
        """The split cells of the lowest sub-cell that can hold each point:
        one sub-cell, or the 2 to 2^gdim sub-cells that ``_slack`` spans
        when s_i - 1 - tol lies within rounding of an integer."""
        g = self._grid
        t = (x - g.offset) / g.extent * g.counts - 1.0 - _LOCATE_TOL
        lo = np.clip(np.ceil(t - self._slack), 0, g.counts - 1).astype(np.int64)
        hi = np.clip(np.ceil(t + self._slack), 0, g.counts - 1).astype(np.int64)
        # corners lo + c, c in {0, 1}^gdim, up to hi
        within = np.ones((len(x), len(self._corners)), dtype=bool)
        for a in range(self.gdim):
            within &= self._corners[:, a] <= (hi - lo)[:, a, None]
        point, corner = np.nonzero(within)
        sub = (lo[point] + self._corners[corner]) @ self._sub_strides
        cells = (sub * g.nsplit)[:, None] + np.arange(g.nsplit)
        return np.repeat(point, g.nsplit), cells.ravel()

    def _bin_candidates(self, x):
        """The cells whose padded boxes cover each point's bin."""
        # fmax/fmin clamp the bins into the grid
        idx = np.floor(np.fmin(np.fmax((x - self.lo) / self.width, 0),
                               self.nbins - 1)).astype(np.int64)
        # corner bins idx - off inside the grid, as row-major keys
        inside = np.ones((len(idx), len(self._offsets)), dtype=bool)
        for a in range(self.gdim):
            inside &= idx[:, a, None] >= self._offsets[:, a]
        point = np.nonzero(inside)[0]
        key = ((idx @ self._strides)[:, None] - self._offsets @ self._strides)[inside]
        b = np.minimum(np.searchsorted(self.bin_keys, key), len(self.bin_keys) - 1)
        start = self.bin_ptr[b]
        count = np.where(self.bin_keys[b] == key, self.bin_ptr[b + 1] - start, 0)
        point = np.repeat(point, count)
        pos = np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(point))
        covers = np.ones(len(pos), dtype=bool)
        for a in range(self.gdim):
            covers &= self.bin_upper[pos, a] >= idx[point, a]
        return point[covers], self.bin_cells[pos[covers]]

    def locate_many(self, points):
        """Containing cell (N,) and barycentric coordinates (N, tdim+1) of
        each of the points (N, gdim).

        Raises OutOfDomainError for the first point, in input order, that
        no cell contains; its ``index`` is that point's position."""
        x = np.asarray(points, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.gdim:
            raise MeshError(f"expected points of shape (N, {self.gdim}), got {x.shape}")
        cells = np.empty(len(x), dtype=np.int64)
        lam = np.empty((len(x), self.tdim + 1))
        step = max(1, _LOCATE_PAIRS // self._per_point)
        for lo in range(0, len(x), step):
            chunk = x[lo:lo + step]
            # a point outside the padded vertex box (NaN and inf included)
            # gets no candidate, so it is reported missing
            boxed = np.flatnonzero(((chunk >= self._box_lo)
                                    & (chunk <= self._box_hi)).all(axis=1))
            point, cand = self._candidates(chunk[boxed])
            point = boxed[point]
            mu, resid = _barycentric(self._vertices, self._cells, self._G, cand,
                                     chunk[point])
            # column by column: a row-wise min over tdim+1 entries is slower
            inside = mu[:, 0] >= -_LOCATE_TOL
            for k in range(1, self.tdim + 1):
                inside &= mu[:, k] >= -_LOCATE_TOL
            if self.tdim < self.gdim:       # resid is zero on full-dimensional cells
                inside &= resid <= _LOCATE_TOL * (1.0 + self._diam[cand])
            hit = np.flatnonzero(inside)
            # sort the hits by (point, cell): each point's lowest cell first
            hit = hit[np.argsort(point[hit] * self._num_cells + cand[hit])]
            found, first = np.unique(point[hit], return_index=True)
            hit = hit[first]
            if len(found) < len(chunk):
                miss = int(np.setdiff1d(np.arange(len(chunk)), found)[0])
                raise OutOfDomainError(chunk[miss], index=lo + miss)
            cells[lo:lo + len(chunk)] = cand[hit]
            lam[lo:lo + len(chunk)] = mu[hit]
        return cells, lam

    def locate(self, x):
        """Containing cell (lowest index on ties) and barycentric
        coordinates of one point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.gdim,):
            raise MeshError(f"expected point of dimension {self.gdim}, got shape {x.shape}")
        cells, lam = self.locate_many(x[None])
        return int(cells[0]), lam[0]


def _barycentric(vertices, cells, G, which, x):
    """Barycentric coordinates (N, tdim+1) of the points ``x`` (N, gdim) in
    the cells ``which`` (N,) of the mesh (``vertices``, ``cells``), plus
    their distances (N,) off the cells' planes (zero when tdim == gdim).

    The reference coordinates are mu = G^T d, with d = x - v0 and ``G``
    (nc, gdim, tdim) the mesh's gradient transform: the closed-form E^-1
    on full-dimensional cells, the least-squares inverse E^T (E E^T)^-1 on
    manifolds.  One kernel serves every mesh."""
    tdim, gdim = cells.shape[1] - 1, vertices.shape[1]
    v0 = vertices[cells[which, 0]]
    d = x - v0
    # Stacked np.matmul runs the same BLAS kernel per point as the
    # single-point product; einsum sums in another order.
    mu = np.matmul(np.swapaxes(G, 1, 2)[which], d[:, :, None])[:, :, 0]
    if tdim == gdim:
        resid = np.zeros(len(which))
    else:
        E = vertices[cells[which, 1:]] - v0[:, None, :]
        r = d - np.matmul(mu[:, None, :], E)[:, 0, :]
        resid = np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])
    lam = np.empty((len(which), tdim + 1))
    lam[:, 0] = 1.0 - mu.sum(axis=1)
    lam[:, 1:] = mu
    return lam, resid


# -- generators --------------------------------------------------------------

def _check_count(name, value):
    if not _is_count(value):
        raise MeshError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _grid_mesh(vertices, cells, offset, extent, counts, nsplit):
    """The generated mesh with its grid recorded; only the generators call
    this, with a finite offset and extent."""
    mesh = Mesh(vertices, cells)
    mesh.grid = _Grid(_read_only(np.array(offset, dtype=float)),
                      _read_only(np.array(extent, dtype=float)),
                      _read_only(np.array(counts, dtype=np.int64)), nsplit)
    return mesh


def unit_square_mesh(n, m=None, offset=(0.0, 0.0), extent=(1.0, 1.0)):
    """Triangulated rectangle: n x m rectangles, each split by the diagonal
    from its lower-left vertex.  Vertex (i, j) has index j*(n+1)+i.
    """
    if m is None:
        m = n
    n, m = _check_count("cell count n", n), _check_count("cell count m", m)
    offset = (float(offset[0]), float(offset[1]))
    extent = (float(extent[0]), float(extent[1]))
    if not np.isfinite(offset + extent).all():
        raise MeshError(f"offset and extent must be finite, got {offset} and {extent}")
    if min(extent) <= 0:
        raise MeshError(f"extents must be positive, got {extent}")
    xs = offset[0] + extent[0] * np.arange(n + 1) / n
    ys = offset[1] + extent[1] * np.arange(m + 1) / m
    X, Y = np.meshgrid(xs, ys)                     # row j = y level j
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((m + 1) * (n + 1), dtype=np.int64).reshape(m + 1, n + 1)
    ll, lr, ul, ur = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    cells = np.stack([np.stack([ll, lr, ur], axis=-1),
                      np.stack([ll, ur, ul], axis=-1)], axis=2)   # (m, n, 2, 3)
    return _grid_mesh(vertices, cells.reshape(-1, 3), offset, extent, (n, m), 2)


def unit_cube_mesh(n):
    """[0,1]^3 as n^3 sub-cubes, each split into 6 tetrahedra sharing the
    main diagonal (Kuhn split): one tet per axis permutation.  Vertex
    (i, j, k) has index (k*(n+1)+j)*(n+1)+i."""
    n = _check_count("cell count", n)
    axis = np.arange(n + 1) / n
    z, y, x = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    vid = np.arange((n + 1) ** 3, dtype=np.int64).reshape(n + 1, n + 1, n + 1)
    base = vid[:-1, :-1, :-1].ravel()              # lower corner, i fastest
    # each tet walks from the lower corner along the axes in permuted order
    step = np.array([1, n + 1, (n + 1) ** 2], dtype=np.int64)
    walk = np.zeros((6, 4), dtype=np.int64)
    walk[:, 1:] = np.cumsum(step[list(itertools.permutations(range(3)))], axis=1)
    return _grid_mesh(vertices, (base[:, None, None] + walk).reshape(-1, 4),
                      (0.0,) * 3, (1.0,) * 3, (n,) * 3, 6)


def polyline_mesh(points, cells_per_segment):
    """Interval mesh along an ordered polyline, each segment subdivided into
    ``cells_per_segment`` equal cells."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        raise MeshError("polyline needs at least 2 points")
    k = _check_count("cells_per_segment", cells_per_segment)
    _check_finite("polyline point", points)
    seg = points[1:] - points[:-1]
    short = np.linalg.norm(seg, axis=1) < _MIN_MEASURE
    if short.any():
        raise MeshError(f"repeated consecutive polyline points at "
                        f"{points[np.argmax(short)].tolist()}")
    steps = np.arange(1, k + 1)[None, :, None]
    inner = points[:-1, None, :] + seg[:, None, :] * steps / k
    vertices = np.vstack([points[:1], inner.reshape(-1, points.shape[1])])
    nc = len(vertices) - 1
    cells = np.column_stack([np.arange(nc), np.arange(1, nc + 1)]).astype(np.int64)
    return Mesh(vertices, cells)


# -- derived meshes ----------------------------------------------------------

def _submesh(parent: Mesh, entity_vertices, parent_cells, parent_entities):
    """Mesh whose cells are the given parent entities (rows of parent
    vertex indices), vertices renumbered by first appearance."""
    vertex_map, cells = _number_entities(
        entity_vertices, [(k,) for k in range(entity_vertices.shape[1])])
    link = ParentLink(
        mesh=parent,
        vertex_map=vertex_map[:, 0],
        cell_to_parent_cell=np.asarray(parent_cells, dtype=np.int64),
        cell_to_parent_entity=np.asarray(parent_entities, dtype=np.int64),
    )
    return Mesh(parent.vertices[link.vertex_map], cells, parent=link)


def _facets_where(mesh: Mesh, predicate):
    """Ascending indices of the facets whose vertices and midpoint all
    satisfy ``predicate``: one call on all vertices, then one on the
    midpoints of the facets whose vertices all satisfy it."""
    facets = mesh.facets
    on = _call_on_points(predicate, mesh.vertices, error=MeshError)
    candidates = np.flatnonzero(on[facets].all(axis=1))
    midpoints = mesh.vertices[facets[candidates]].mean(axis=1)
    return candidates[_call_on_points(predicate, midpoints, error=MeshError)]


def facet_submesh(parent: Mesh, predicate):
    """Mesh of the parent facets whose vertices and midpoint all satisfy
    ``predicate``.  Each submesh cell records its parent facet and the
    adjacent parent cell (the unique one on the boundary, else the lowest
    cell index).  The predicate maps points (N, gdim) to a boolean mask
    (N,); it is called on all parent vertices, then on the midpoints of
    the facets whose vertices all satisfy it."""
    selected = _facets_where(parent, predicate)
    if not len(selected):
        raise EmptySelectionError("predicate selects no facets")
    return _submesh(parent, parent.facets[selected],
                    parent._lowest_facet_cell(selected), selected)


def cell_submesh(parent: Mesh, predicate):
    """Same-dimension submesh of the parent cells whose centroid satisfies
    ``predicate`` (used for restriction to a subdomain).  The predicate
    is called once, on all centroids (nc, gdim), and returns a boolean
    mask (nc,)."""
    keep = np.flatnonzero(_call_on_points(predicate, parent.cell_centroids, error=MeshError))
    if not len(keep):
        raise EmptySelectionError("predicate selects no cells")
    return _submesh(parent, parent.cells[keep], keep, keep)
