"""Singlescale assembler: quadrature evaluation of reduction-free forms
into scipy sparse matrices / vectors / scalars, plus Dirichlet boundary
conditions (pointwise and block-system variants) and Matrix Market IO.

The element loop is vectorized over chunks of cells; output is independent
of the chunk size.  Quadrature degree is estimated from the integrand
(sum of factor degrees, gradients reduce by one, analytic data counts as
its declared degree) and clamped to the available rules.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .forms import (
    Add, Analytic, Argument, Coefficient, Constant, Div, Dot, Form, FormError,
    Grad, Inner, Neg, Scale, Sym, reduced_terminals,
)
from .mesh import EmptySelectionError, _call_on_points, _facets_where
from .opalg import BlockMat, Matrix, OpError, Product, Sum, Transpose, Zero, collapse
from .space import FunctionSpace, tabulate_lagrange, vector_basis, _dof_values

__all__ = [
    "assemble", "NotSinglescaleError", "DirichletBC", "apply_bc",
    "apply_bc_block", "save_matrix_market", "load_matrix_market",
]

_CHUNK = 512

# An assembled entry a_ij is a sum of element contributions, each at most
# m_K = max|A_K| in size.  Where they cancel in exact arithmetic (the
# Kuhn-cube P1 stiffness couples some vertex pairs with weight zero), the
# floating-point sum can leave residue, and it stores an explicit zero
# where they cancel exactly.  An entry is not stored when
# |a_ij| <= _RESIDUE_ULPS * eps * min(r_i, c_j), where r_i and c_j sum m_K
# over the cells of test dof i and of trial dof j.  The rule is scale-free
# and has no h in it.  Measured, the Kuhn-cube couplings cancel to exact
# zeros (n = 12, 24), the RT0 couplings that vanish on right triangles
# come out under half an ulp at n = 8, 32 and 64 (the basis is evaluated
# at coordinates relative to each cell), and the smallest true entry of
# every benchmark matrix lies above 1e13 of them; 8 leaves room on both
# sides.
_RESIDUE_ULPS = 8


class NotSinglescaleError(FormError):
    """A reduced terminal survived lowering; the caller has a bug."""


def estimate_degree(e):
    if isinstance(e, Argument):
        return _element_degree(e.space)
    if isinstance(e, Coefficient):
        return _element_degree(e.function.space)
    if isinstance(e, Constant):
        return 0
    if isinstance(e, Analytic):
        return e.degree
    if isinstance(e, (Grad, Div)):
        return max(estimate_degree(e.children[0]) - 1, 0)
    if isinstance(e, (Sym, Neg, Scale)):
        return estimate_degree(e.children[0])
    if isinstance(e, (Inner, Dot)):
        return sum(estimate_degree(c) for c in e.children)
    if isinstance(e, Add):
        return max(estimate_degree(c) for c in e.children)
    raise FormError(f"cannot estimate degree of {e!r}")


def _element_degree(space):
    if space.element.family == "RaviartThomas":
        return 1
    return space.element.degree


# -- geometry over a chunk of cells -------------------------------------------

def _sum_products(pairs):
    """a_0 * b_0 + a_1 * b_1 + ... over ``pairs``, summed in order: a
    contraction over one short axis, written out."""
    (a, b), *rest = pairs
    out = a * b
    for a, b in rest:
        out += a * b
    return out


class _ChunkGeometry:
    """The cells ``cells`` (a slice) of a mesh, cells last: gradient
    transforms (gdim, tdim, C) sliced from the mesh's geometry; the
    quadrature points' offsets from each cell's first vertex and their
    physical positions (Q, gdim, C) on first use."""

    def __init__(self, mesh, cells, ref_pts):
        self.mesh = mesh
        self.cells = cells
        self.ref_pts = ref_pts

    @property
    def G(self):
        return self.mesh.gradient_transform[self.cells].transpose(1, 2, 0)

    @functools.cached_property
    def offsets(self):
        """sum_t xi_t E_t of the edge vectors E of x = v0 + xi @ E."""
        v = self.mesh.vertices.T[:, self.mesh.cells[self.cells].T]  # (g, tdim+1, C)
        E = v[:, 1:] - v[:, :1]
        xi = self.ref_pts[:, :, None, None]
        return _sum_products((xi[:, t], E[:, t]) for t in range(E.shape[1]))

    @functools.cached_property
    def phys(self):
        return self.mesh.vertices[self.mesh.cells[self.cells, 0]].T + self.offsets


# -- expression evaluation ------------------------------------------------------

def _basis_slot(arr, arg):
    """Basis values (Q, nloc, ...) of ``arg`` as (Q, T, U, ...): its basis
    axis in the test or trial slot, the other of length 1."""
    return np.expand_dims(arr, 2 if arg.role == "test" else 1)


class _Evaluator:
    """Evaluates an integrand over one chunk as arrays (Q, T, U, *shape, C):
    quadrature points, test and trial basis functions, the value's axes,
    then the chunk's cells, so that every product runs along the cells.
    Any axis but the value's may have length 1 and broadcast."""

    def __init__(self, space_mesh, geom, ref_pts, tabs):
        self.mesh = space_mesh
        self.geom = geom
        self.ref_pts = ref_pts
        self.memo = {}
        self._tab = tabs              # shared by the chunks of one integral
        self._grads = {}
        self._rt0 = {}

    def tab(self, space):
        key = space.uid
        if key not in self._tab:
            self._tab[key] = tabulate_lagrange(
                space.mesh.tdim, space.element.degree, self.ref_pts)
        return self._tab[key]

    def eval(self, e):
        key = id(e)
        if key not in self.memo:
            self.memo[key] = self._eval(e)
        return self.memo[key]

    def _eval(self, e):
        if isinstance(e, Argument):
            return self._argument_values(e)
        if isinstance(e, Grad):
            return self._grad(e.children[0])
        if isinstance(e, Div):
            return self._div(e.children[0])
        if isinstance(e, Coefficient):
            return self._coefficient_values(e)
        if isinstance(e, Constant):
            return e.value.reshape((1, 1, 1) + e.shape + (1,))
        if isinstance(e, Analytic):
            return self._analytic(e)
        if isinstance(e, Inner):
            a, b = (self.eval(c) for c in e.children)
            at = [(..., *i, slice(None)) for i in np.ndindex(e.children[0].shape)]
            return _sum_products((a[i], b[i]) for i in at)
        if isinstance(e, Dot):
            # a's last value axis against b's first
            a, b = (self.eval(c) for c in e.children)
            ra, rb = len(e.children[0].shape), len(e.children[1].shape)
            return _sum_products(
                (a[(..., j) + (None,) * (rb - 1) + (slice(None),)],
                 b[(...,) + (None,) * (ra - 1) + (j,) + (slice(None),) * rb])
                for j in range(e.children[0].shape[-1]))
        if isinstance(e, Sym):
            a = self.eval(e.children[0])
            return 0.5 * (a + np.swapaxes(a, -2, -3))
        if isinstance(e, Add):
            return self.eval(e.children[0]) + self.eval(e.children[1])
        if isinstance(e, Neg):
            return -self.eval(e.children[0])
        if isinstance(e, Scale):
            return e.alpha * self.eval(e.children[0])
        raise FormError(f"cannot evaluate {e!r}")

    # terminal helpers ---------------------------------------------------

    def _rt0_basis(self, space):
        """RT0 values (Q, 3, g, C) and divergences (3, C) on the chunk."""
        key = space.uid
        if key not in self._rt0:
            self._rt0[key] = space.rt0_cell_basis(self.geom.cells, self.geom.offsets)
        return self._rt0[key]

    def _argument_values(self, arg):
        space = arg.space
        if space.element.family == "RaviartThomas":
            return _basis_slot(self._rt0_basis(space)[0], arg)
        vals, _ = self.tab(space)                       # (Q, nloc_s)
        if space.ncomp == 1:
            return _basis_slot(vals[:, :, None], arg)
        return _basis_slot(vector_basis(vals[:, :, None], space.ncomp), arg)

    def _phys_scalar_grads(self, space):
        """(Q, nloc_s, g, C), or (1, nloc_s, g, C) where the gradients are
        constant on each cell (degree <= 1)."""
        key = space.uid
        if key not in self._grads:
            _, ref_grads = self.tab(space)              # (Q, nloc_s, t)
            if space.element.degree <= 1:
                ref_grads = ref_grads[:1]
            G = self.geom.G                             # (g, t, C)
            self._grads[key] = _sum_products(
                (ref_grads[:, :, None, t, None], G[:, t]) for t in range(G.shape[1]))
        return self._grads[key]

    def _coefficients(self, term):
        """The term's space and its coefficients on the chunk (nloc, C)."""
        space, coeffs = term.function.space, term.function.coefficients
        if space.mesh is not self.mesh:
            raise FormError("coefficient lives on a different mesh than the measure")
        return space, coeffs[space.dofmap[self.geom.cells].T]

    def _grad(self, term):
        if isinstance(term, Argument):
            space = term.space
            sg = self._phys_scalar_grads(space)         # (Q, nloc_s, g, C)
            if space.ncomp == 1:
                return _basis_slot(sg, term)
            return _basis_slot(vector_basis(sg, space.ncomp), term)
        space, cf = self._coefficients(term)
        sg = self._phys_scalar_grads(space)
        if space.ncomp == 1:
            out = _sum_products((sg[:, i], cf[i]) for i in range(len(cf)))
        else:
            cfv = cf.reshape(space.nloc_scalar, space.ncomp, -1)
            out = _sum_products((sg[:, i, None], cfv[i, :, None]) for i in range(len(cfv)))
        return out[:, None, None]

    def _div(self, term):
        space = term.space if isinstance(term, Argument) else term.function.space
        if space.element.family != "RaviartThomas":
            # the trace of the vector gradient: for a basis function, one
            # nonzero addend per dof
            return np.trace(self._grad(term), axis1=-3, axis2=-2)
        divs = self._rt0_basis(space)[1]
        if isinstance(term, Argument):
            return _basis_slot(divs[None], term)
        _, cf = self._coefficients(term)
        return _sum_products((divs[k], cf[k]) for k in range(len(cf)))[None, None, None]

    def _coefficient_values(self, e):
        space, cf = self._coefficients(e)
        if space.element.family == "RaviartThomas":
            vals = self._rt0_basis(space)[0]
            out = _sum_products((vals[:, k], cf[k]) for k in range(len(cf)))
            return out[:, None, None]
        vals, _ = self.tab(space)                       # (Q, nloc_s)
        cfv = cf.reshape(space.nloc_scalar, -1)         # (nloc_s, ncomp * C)
        out = _sum_products((vals[:, i, None], cfv[i]) for i in range(len(cfv)))
        if space.ncomp > 1:
            out = out.reshape(len(vals), space.ncomp, -1)
        return out[:, None, None]

    def _analytic(self, e):
        """``e.fn`` maps points (N, gdim) to values (N,) + e.shape."""
        pts = self.geom.phys
        Q, g, C = pts.shape
        flat = pts.transpose(0, 2, 1).reshape(-1, g)
        vals = _call_on_points(e.fn, flat, e.shape, error=FormError)
        return np.moveaxis(vals.reshape((Q, C) + e.shape), 1, -1)[:, None, None]


# -- assembly -------------------------------------------------------------------

def assemble(form, quad_degree=None):
    """Assemble a reduction-free form: arity 2 -> csr matrix, 1 -> vector,
    0 -> float.  ``quad_degree`` overrides the estimated degree."""
    if isinstance(form, Form):
        integrals = form.integrals
    else:
        integrals = [form]
    for integral in integrals:
        if reduced_terminals(integral.integrand):
            raise NotSinglescaleError(
                f"form still contains reductions: {reduced_terminals(integral.integrand)[0]!r}")
    arity = integrals[0].arity
    test = integrals[0].test_argument()
    trial = integrals[0].trial_argument()

    result = None
    for integral in integrals:
        part = _assemble_integral(integral, quad_degree)
        result = part if result is None else result + part
    if arity == 2:
        result = result.tocsr()
        result.sum_duplicates()
        result.sort_indices()
        if result.shape != (test.space.dim, trial.space.dim):
            raise FormError("assembled shape mismatch")
    return result


def _assemble_integral(integral, quad_degree):
    mesh = integral.mesh
    test = integral.test_argument()
    trial = integral.trial_argument()
    deg = quad_degree if quad_degree is not None else estimate_degree(integral.integrand)
    ref_pts, ref_wts = quadrature.rule(mesh.tdim, deg)

    nT = test.space.nloc if test is not None else 1
    nU = trial.space.nloc if trial is not None else 1

    bilinear = test is not None and trial is not None
    if bilinear:
        # entry (c, t, u) of the cell-major triplets couples test dof t and
        # trial dof u of cell c
        rows = np.repeat(test.space.dofmap.ravel(), nU)
        cols = np.tile(trial.space.dofmap, nT).ravel()
        vals = np.empty(len(rows))
        cell_max = np.empty(mesh.num_cells)
    vec = np.zeros(test.space.dim) if test is not None and trial is None else None
    scalar = 0.0
    tabs = {}

    for start in range(0, mesh.num_cells, _CHUNK):
        cells = slice(start, min(start + _CHUNK, mesh.num_cells))
        geom = _ChunkGeometry(mesh, cells, ref_pts)
        val = _Evaluator(mesh, geom, ref_pts, tabs).eval(integral.integrand)
        val = np.broadcast_to(val, (len(ref_wts),) + val.shape[1:])
        # sum_q w_q |det E| val_q, with |det E| factored out: a value that is
        # the same on every cell (a mass matrix) is summed once, not per cell
        loc = _sum_products(zip(ref_wts, val)) * mesh.jacobian_measure[cells]
        C = loc.shape[-1]
        loc = np.broadcast_to(loc, (nT, nU, C))
        if bilinear:
            out = slice(start * nT * nU, (start + C) * nT * nU)
            vals[out].reshape(C, nT, nU)[...] = loc.transpose(2, 0, 1)
            cell_max[cells] = np.abs(loc.reshape(-1, C)).max(axis=0)
        elif test is not None:
            np.add.at(vec, test.space.dofmap[cells], loc[:, 0].T)
        else:
            scalar += float(loc.sum())

    if bilinear:
        A = sp.coo_matrix((vals, (rows, cols)),
                          shape=(test.space.dim, trial.space.dim)).tocsr()
        return _drop_residue(A, cell_max, test.space.dofmap, trial.space.dofmap)
    if test is not None:
        return vec
    return scalar


def _drop_residue(A, cell_max, test_dofmap, trial_dofmap):
    """``A`` without the cancellation residue described at
    ``_RESIDUE_ULPS``; kept entries are unchanged."""
    def dof_scale(dofmap, dim):
        return np.bincount(dofmap.ravel(), np.repeat(cell_max, dofmap.shape[1]),
                           minlength=dim)
    r = dof_scale(test_dofmap, A.shape[0])
    c = dof_scale(trial_dofmap, A.shape[1])
    bound = np.minimum(np.repeat(r, np.diff(A.indptr)), c[A.indices])
    bound *= _RESIDUE_ULPS * np.finfo(float).eps
    keep = np.abs(A.data) > bound
    if keep.all():
        return A
    indptr = np.concatenate([[0], np.cumsum(keep)])[A.indptr]
    return sp.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=A.shape)


# -- Dirichlet boundary conditions ----------------------------------------------

class DirichletBC:
    """Essential condition on the dofs selected by a coordinate predicate.

    ``predicate`` maps points (N, gdim) to a boolean mask (N,) and
    ``value`` is a constant or a field mapping points to values (N,) +
    value shape; each is called once per point set.  Lagrange spaces: the
    dofs whose coordinate satisfies the predicate (one call, on all dof
    coordinates), valued at those coordinates.  RT0: the edge dofs whose
    endpoints and midpoint satisfy it (a call on all vertices, then one on
    the candidate midpoints), valued by the edge fluxes of the field.  A
    predicate that selects no dof raises ``EmptySelectionError``.
    """

    def __init__(self, space: FunctionSpace, value, predicate):
        self.space = space
        if space.is_point_evaluation:
            dofs = np.flatnonzero(_call_on_points(predicate, space.dof_coords))
        else:
            dofs = _facets_where(space.mesh, predicate)
        if not len(dofs):
            raise EmptySelectionError("boundary condition selects no dofs")
        self.dofs = dofs
        self.values = _dof_values(space, value, dofs)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("boundary values must be finite")


def _bc_vectors(block_op, i, bcs):
    """Boundary values and pinned-dof mask of the conditions ``bcs`` on
    block ``i``, each checked against the block's dimensions."""
    n = block_op.col_dims[i]
    g, mask = np.zeros(n), np.zeros(n)
    for bc in bcs:
        if {block_op.row_dims[i], n} != {bc.space.dim}:
            raise ValueError(f"boundary condition space has {bc.space.dim} dofs, "
                             f"block {i} is {block_op.row_dims[i]} x {n}")
        g[bc.dofs] = bc.values
        mask[bc.dofs] = 1.0
    return g, mask


def apply_bc(matrix, rhs, bcs, symmetric=False):
    """Constrain a square single-space system: ``apply_bc_block`` on the
    1x1 block system, collapsed (forced: the result stores at most the
    entries of ``matrix`` and its diagonal)."""
    bcs = [bcs] if isinstance(bcs, DirichletBC) else bcs
    op, (rhs,) = apply_bc_block(BlockMat([[matrix]]), [rhs], {0: bcs}, symmetric)
    return collapse(op, force=True), rhs


def apply_bc_block(block_op, rhs_blocks, bcs_by_block, symmetric=True):
    """Constrain a lazy block system.  ``bcs_by_block`` maps block index ->
    list of DirichletBC, each on a space of that block's dimension.  Rows
    of constrained dofs are zeroed with a unit diagonal and their rhs
    entries set to the boundary values; with ``symmetric`` the columns are
    eliminated too, lifting the rhs first.  The masks go into the blocks'
    matrix leaves (``_constrain``): a constrained block keeps the shape of
    its lowered tree, and no product the interpreter built is collapsed."""
    rows = block_op.blocks
    vectors = {i: _bc_vectors(block_op, i, bcs) for i, bcs in bcs_by_block.items()}
    rhs = [np.array(b, dtype=float, copy=True) for b in rhs_blocks]
    if symmetric:
        for j, row in enumerate(rows):
            for i, (gi, _) in vectors.items():
                if not isinstance(row[i], Zero):
                    rhs[j] -= row[i].matvec(gi)

    keep = {i: 1.0 - mask for i, (_, mask) in vectors.items()}
    new_rows = [[_constrain(blk, keep.get(i), keep.get(j) if symmetric else None)
                 for j, blk in enumerate(row)] for i, row in enumerate(rows)]
    for i, (gi, mask) in vectors.items():
        diag, unit = new_rows[i][i], Matrix(sp.diags(mask).tocsr())
        new_rows[i][i] = unit if isinstance(diag, Zero) else Sum([diag, unit])
        rhs[i] = keep[i] * rhs[i] + gi
    return BlockMat(new_rows), rhs


def _constrain(op, rows, cols):
    """``op`` with its rows scaled by the 0/1 mask ``rows`` and its columns
    by ``cols`` (None: unmasked).  Each masked sparse leaf is a copy whose
    data is scaled in place, keeping the order in which products and
    matvecs sum; the leaves of ``op`` are shared and stay unchanged."""
    if isinstance(op, Zero) or (rows is None and cols is None):
        return op
    if isinstance(op, Sum):
        return Sum([_constrain(t, rows, cols) for t in op.terms])
    if isinstance(op, Product):
        f = list(op.factors)
        f[-1] = _constrain(f[-1], None, cols)
        f[0] = _constrain(f[0], rows, None)
        return Product(f)
    if isinstance(op, Transpose):
        return Transpose(_constrain(op.child, cols, rows))
    if isinstance(op, Matrix) and sp.issparse(op.a):
        a = op.a.tocsr(copy=True)
        if rows is not None:
            a.data *= np.repeat(rows, np.diff(a.indptr))
        if cols is not None:
            a.data *= cols[a.indices]
        a.eliminate_zeros()
        return Matrix(a)
    raise OpError(f"Dirichlet conditions cannot constrain {type(op).__name__} nodes")


# -- Matrix Market IO -------------------------------------------------------------

def save_matrix_market(path, m):
    """Sparse matrices in coordinate format, dense vectors in array format."""
    import scipy.io         # slow to import; only Matrix Market IO needs it
    if sp.issparse(m):
        scipy.io.mmwrite(str(path), m.tocoo())
    else:
        arr = np.asarray(m, dtype=float)
        scipy.io.mmwrite(str(path), arr.reshape(-1, 1) if arr.ndim == 1 else arr)


def load_matrix_market(path):
    import scipy.io
    m = scipy.io.mmread(str(path))
    if sp.issparse(m):
        return m.tocsr()
    arr = np.asarray(m)
    return arr.ravel() if arr.ndim == 2 and arr.shape[1] == 1 else arr
