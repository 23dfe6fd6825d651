"""Singlescale assembler: quadrature evaluation of reduction-free forms
into scipy sparse matrices / vectors / scalars, plus Dirichlet boundary
conditions (pointwise and block-system variants) and Matrix Market IO.

A form's integrals are grouped by mesh and (test, trial) space pair, and
each group is assembled in one pass over chunks of cells: per chunk, every
integral's local tensor under its own quadrature rule, summed in the order
the integrals are written, then one scatter per group: one ``bincount`` of
a vector, one sum of a functional's per-cell values, and for a matrix one
sparse product D_V^T (W D_U) of the test dofs' incidence D_V with the
local rows (see ``_product_operands``), which sums each entry's
contributions in cell order and stores no exact zero.  A chunk's cell
count follows from budgets on its largest evaluated table, on its
callback points and on its cells (see ``_CHUNK_ENTRIES``); the output is
bitwise independent of it.
Quadrature degree is estimated from the integrand (sum of factor degrees,
gradients reduce by one, analytic data counts as its declared degree); a
degree above the available rules raises.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .forms import (
    Add, Analytic, Argument, Coefficient, Constant, Div, Dot, FormError,
    Grad, Inner, Scale, Sym, _walk, arguments,
)
from .mesh import EmptySelectionError, _call_on_points, _facets_where
from .opalg import BlockMat, Matrix, OpError, Product, Sum, Transpose, Zero, collapse
from .space import FunctionSpace, tabulate_lagrange, vector_basis, _dof_values

__all__ = [
    "assemble", "NotSinglescaleError", "DirichletBC", "apply_bc",
    "apply_bc_block", "save_matrix_market", "load_matrix_market",
]

# An assembled entry a_ij is a sum of element contributions, each at most
# m_K = max|A_K| in size.  Where they cancel in exact arithmetic (the
# Kuhn-cube P1 stiffness couples some vertex pairs with weight zero), the
# floating-point sum can leave residue; where they cancel exactly, the
# product that sums them stores nothing.  An entry is not stored when
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
    if isinstance(e, (Argument, Coefficient)):
        return e.space.element.degree
    if isinstance(e, Constant):
        return 0
    if isinstance(e, Analytic):
        return e.degree
    if isinstance(e, (Grad, Div)):
        return max(estimate_degree(e.children[0]) - 1, 0)
    if isinstance(e, (Sym, Scale)):
        return estimate_degree(e.children[0])
    if isinstance(e, (Inner, Dot)):
        return sum(estimate_degree(c) for c in e.children)
    if isinstance(e, Add):
        return max(estimate_degree(c) for c in e.children)
    raise FormError(f"cannot estimate degree of {e!r}")


# -- expression evaluation ------------------------------------------------------

def _sum_products(pairs):
    """a_0 * b_0 + a_1 * b_1 + ... over ``pairs``, summed in order: a
    contraction over one short axis, written out."""
    (a, b), *rest = pairs
    out = a * b
    for a, b in rest:
        out += a * b
    return out


class _Evaluator:
    """Evaluates an integrand over the cells ``cells`` (a slice) of a mesh
    as arrays (Q, T, U, *shape, C): quadrature points, test and trial basis
    functions, the value's axes, then the chunk's cells, so that every
    product runs along the cells.  Any axis but the value's may have length
    1 and broadcast."""

    def __init__(self, mesh, cells, ref_pts, tabs):
        self.mesh = mesh
        self.cells = cells
        self.ref_pts = ref_pts
        self.memo = {}
        self._tab = tabs              # shared by the chunks of one rule
        self._basis = {}

    def tab(self, space):
        key = space.uid
        if key not in self._tab:
            self._tab[key] = tabulate_lagrange(
                space.mesh.tdim, space.element.degree, self.ref_pts)
        return self._tab[key]

    @functools.cached_property
    def offsets(self):
        """The quadrature points (Q, gdim, C) relative to each cell's first
        vertex: sum_t xi_t E_t of the edge vectors E of x = v0 + xi @ E."""
        v = self.mesh.vertices.T[:, self.mesh.cells[self.cells].T]  # (g, tdim+1, C)
        E = v[:, 1:] - v[:, :1]
        xi = self.ref_pts[:, :, None, None]
        return _sum_products((xi[:, t], E[:, t]) for t in range(E.shape[1]))

    @functools.cached_property
    def phys(self):
        """The quadrature points' physical positions (Q, gdim, C)."""
        return self.mesh.vertices[self.mesh.cells[self.cells, 0]].T + self.offsets

    def eval(self, e):
        key = id(e)
        if key not in self.memo:
            self.memo[key] = self._eval(e)
        return self.memo[key]

    def _eval(self, e):
        if isinstance(e, (Argument, Coefficient)):
            return self.terminal(e)
        if isinstance(e, (Grad, Div)):
            return self.terminal(e.children[0], type(e))
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
        if isinstance(e, Scale):
            return e.alpha * self.eval(e.children[0])
        raise FormError(f"cannot evaluate {e!r}")

    # terminals ----------------------------------------------------------

    def terminal(self, e, op=None):
        """The Argument or Coefficient ``e``, or its ``Grad`` or ``Div``
        (``op``): an argument is its basis table in its test or trial slot,
        a coefficient the table contracted with its local coefficients in
        local-dof order."""
        if op is Div and e.space.element.family != "RaviartThomas":
            # the trace of the vector gradient: for a basis function, one
            # nonzero addend per dof
            return np.trace(self.terminal(e, Grad), axis1=-3, axis2=-2)
        if isinstance(e, Argument):
            return np.expand_dims(self.basis(e.space, op), 2 if e.role == "test" else 1)
        if e.space.mesh is not self.mesh:
            raise FormError("coefficient lives on a different mesh than the measure")
        phi = self.basis(e.space, op)
        cf = e.function.coefficients[e.space.dofmap[self.cells].T]     # (nloc, C)
        return _sum_products((phi[:, k], cf[k]) for k in range(len(cf)))[:, None, None]

    def basis(self, space, op=None):
        """The basis of ``space`` on the chunk, (Q, nloc, *shape, C) with Q
        or C of length 1 where it is constant: values (``op`` None),
        gradients (``Grad``) or RT0 divergences (``Div``)."""
        key = (space.uid, op)
        if key in self._basis:
            return self._basis[key]
        if space.element.family == "RaviartThomas":
            self._basis[key] = (space.cell_divs[self.cells].T[None] if op is Div
                                else space.rt0_cell_basis(self.cells, self.offsets))
            return self._basis[key]
        vals, ref_grads = self.tab(space)               # (Q, nloc_s), (Q, nloc_s, t)
        if op is Grad:
            if space.element.degree <= 1:               # constant on each cell
                ref_grads = ref_grads[:1]
            G = self.mesh.gradient_transform[self.cells].transpose(1, 2, 0)  # (g, t, C)
            scalar = _sum_products(
                (ref_grads[:, :, None, t, None], G[:, t]) for t in range(G.shape[1]))
        else:
            scalar = vals[:, :, None]
        out = scalar if space.ncomp == 1 else vector_basis(scalar, space.ncomp)
        self._basis[key] = out
        return out

    def _analytic(self, e):
        """``e.fn`` maps points (N, gdim) to values (N,) + e.shape."""
        pts = self.phys
        Q, g, C = pts.shape
        flat = pts.transpose(0, 2, 1).reshape(-1, g)
        vals = _call_on_points(e.fn, flat, e.shape, error=FormError)
        return np.moveaxis(vals.reshape((Q, C) + e.shape), 1, -1)[:, None, None]


# -- assembly -------------------------------------------------------------------

# Cells per chunk follow from budgets measured on the benchmark's peak RSS.
# The largest table a chunk's evaluation makes, Q quadrature points times
# its entries per point and cell (``_point_entries``), holds at most
# _CHUNK_ENTRIES entries: the vector-P2 Stokes form's product table, 3 * 144
# per cell, gets 462 cells, under the 512 at which it was measured flat
# (flat 4096-cell chunks raised ds-mixed's peak from 103 to 120 MB through
# it).  An Analytic callback makes temporaries of its own as long as the
# points it is called on, Q per cell, so those are at most _CHUNK_POINTS:
# whole-mesh chunks (32768 cells, 7 points each) raised babuska's peak from
# 103 to 131 MB through its error norms, which get 4681 cells here.  A
# chunk holds at most _CHUNK_CELLS: P1 forms in chunks of up to 8192 cells
# left babuska and perfusion flat, and perfusion's 3d stiffness in 12500
# raised its peak by 2 MB.
_CHUNK_ENTRIES = 200_000
_CHUNK_POINTS = 1 << 15
_CHUNK_CELLS = 8192


def assemble(form, quad_degree=None):
    """Assemble a reduction-free form: arity 2 -> csr matrix, 1 -> vector,
    0 -> float.  ``quad_degree`` overrides the estimated degree.  The
    integrals on one mesh and one (test, trial) space pair form a group,
    assembled in one pass over the cells; the groups' results add in the
    order of their first integrals."""
    groups = {}
    for integral in form:
        if integral.reduced:
            raise NotSinglescaleError(
                f"form still contains reductions: {integral.reduced[0]!r}")
        key = (id(integral.mesh),) + tuple(
            None if a is None else a.space.uid for a in (integral.test, integral.trial))
        groups.setdefault(key, []).append(integral)
    result = None
    for group in groups.values():
        part = _assemble_group(group, quad_degree)
        result = part if result is None else result + part
    return result


def _rules(integrals, quad_degree):
    """Each integral's quadrature degree, and the rule of each degree."""
    tdim = integrals[0].mesh.tdim
    degrees = [quad_degree if quad_degree is not None else estimate_degree(i.integrand)
               for i in integrals]
    return degrees, {d: quadrature.rule(tdim, d) for d in degrees}


def _point_entries(integrand, gdim):
    """Entries per quadrature point and cell of the largest table that
    evaluating ``integrand`` makes: a node's value size times the local dofs
    of the arguments below it, or of the coefficient whose basis table it
    reads; a gradient or divergence reads the gradient table of its operand,
    gdim times the operand's value size."""
    largest = 1
    for node in _walk(integrand):
        operand, size = node, math.prod(node.shape)
        if isinstance(node, (Grad, Div)):
            operand = node.children[0]
            size = math.prod(operand.shape) * gdim
        if isinstance(operand, Coefficient):
            dofs = operand.space.nloc
        else:
            dofs = math.prod(a.space.nloc for a in arguments(node))
        largest = max(largest, dofs * size)
    return largest


def _chunk_cells(integrals, quad_degree=None):
    """Cells per chunk of the group ``integrals``: the most that keep each
    integral within the budgets (see ``_CHUNK_ENTRIES``), and at least one."""
    degrees, rules = _rules(integrals, quad_degree)
    gdim = integrals[0].mesh.gdim
    cells = [_CHUNK_CELLS]
    for integral, d in zip(integrals, degrees):
        Q = len(rules[d][1])
        cells.append(_CHUNK_ENTRIES // (Q * _point_entries(integral.integrand, gdim)))
        if any(isinstance(n, Analytic) for n in _walk(integral.integrand)):
            cells.append(_CHUNK_POINTS // Q)
    return max(1, min(cells))


def _assemble_group(integrals, quad_degree):
    """One pass over the cells for ``integrals``, which share their mesh and
    their test and trial spaces.  Per chunk, each integral's local tensor
    under its own rule, the tensors summed in order; then one scatter, for
    a matrix one sparse product with sorted indices and its residue
    dropped."""
    mesh = integrals[0].mesh
    test, trial = integrals[0].test, integrals[0].trial
    nT = test.space.nloc if test is not None else 1
    nU = trial.space.nloc if trial is not None else 1
    degrees, rules = _rules(integrals, quad_degree)
    step = _chunk_cells(integrals, quad_degree)

    bilinear = test is not None and trial is not None
    # entry (c, t, u) of the cell-major local values belongs to test dof t
    # and trial dof u of cell c (a single entry per cell for a functional)
    vals = np.empty(mesh.num_cells * nT * nU)
    if bilinear:
        cell_max = np.empty(mesh.num_cells)
    tabs = {d: {} for d in rules}       # shared by the chunks of one rule

    for start in range(0, mesh.num_cells, step):
        cells = slice(start, min(start + step, mesh.num_cells))
        loc = None
        for integral, d in zip(integrals, degrees):
            ref_pts, ref_wts = rules[d]
            val = _Evaluator(mesh, cells, ref_pts, tabs[d]).eval(integral.integrand)
            val = np.broadcast_to(val, (len(ref_wts),) + val.shape[1:])
            # sum_q w_q |det E| val_q, with |det E| factored out: a value that
            # is the same on every cell (a mass matrix) is summed once, not
            # per cell
            part = _sum_products(zip(ref_wts, val)) * mesh.jacobian_measure[cells]
            loc = part if loc is None else loc + part
        C = loc.shape[-1]
        loc = np.broadcast_to(loc, (nT, nU, C))
        out = slice(start * nT * nU, (start + C) * nT * nU)
        vals[out].reshape(C, nT, nU)[...] = loc.transpose(2, 0, 1)
        if bilinear:
            cell_max[cells] = np.abs(loc.reshape(-1, C)).max(axis=0)

    if bilinear:
        incidence, local = _product_operands(
            vals, test.space.dofmap, trial.space.dofmap, (test.space.dim, trial.space.dim))
        A = incidence @ local
        A.sort_indices()
        return _drop_residue(A, cell_max, test.space.dofmap, trial.space.dofmap)
    if test is not None:
        # each dof's values summed in cell-major order from zero
        return np.bincount(test.space.dofmap.ravel(), vals, minlength=test.space.dim)
    # the per-cell values summed once, whatever the chunks
    return float(vals.sum())


def _index_dtype(sizes):
    """The index width of a sparse matrix whose indices and pointers are at
    most ``sizes`` (its shape, and its entries where they may outnumber
    them): int32 when every one fits, else int64, as scipy picks for the
    matrices it builds.  Index arrays of this width are taken as they are;
    wider ones are scanned and copied down to it."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _product_operands(vals, test_dofmap, trial_dofmap, shape):
    """The factors of sum_K P_K^T A_K P_K = D_V^T (W D_U), a matrix of
    ``shape`` from the cell-major local values ``vals`` (c, t, u), both in
    one index width.  D_V^T (CSR) is the transpose of the incidence with a
    single 1 in row (c, t), at test dof t of cell c; its rows list their
    (c, t) in cell order.  Row (c, t) of W D_U (CSR) is that cell's local
    row: ``vals`` as they are, at the trial dofs of cell c.  scipy's
    product (Gustavson's, with a dense accumulator) adds each entry's
    contributions in the order of D_V^T's row, from zero, and stores no
    entry whose sum is exactly zero."""
    C, nT = test_dofmap.shape
    nU = trial_dofmap.shape[1]
    idx = _index_dtype((*shape, vals.size))
    n = C * nT
    incidence = sp.csc_matrix(
        (np.ones(n), test_dofmap.astype(idx).ravel(), np.arange(n + 1, dtype=idx)),
        shape=(shape[0], n)).tocsr()
    cols = np.repeat(trial_dofmap.astype(idx), nT, axis=0).ravel()
    local = sp.csr_matrix((vals, cols, np.arange(0, vals.size + 1, nU, dtype=idx)),
                          shape=(n, shape[1]))
    return incidence, local


def _drop_residue(A, cell_max, test_dofmap, trial_dofmap):
    """``A`` without the cancellation residue described at
    ``_RESIDUE_ULPS``; kept entries are unchanged."""
    def dof_scale(dofmap, dim):
        return np.bincount(dofmap.ravel(), np.repeat(cell_max, dofmap.shape[1]),
                           minlength=dim)
    r = dof_scale(test_dofmap, A.shape[0])
    c = r if trial_dofmap is test_dofmap else dof_scale(trial_dofmap, A.shape[1])
    bound = np.minimum(np.repeat(r, np.diff(A.indptr)), c[A.indices])
    bound *= _RESIDUE_ULPS * np.finfo(float).eps
    keep = np.abs(A.data) > bound
    if keep.all():
        return A
    # kept entries before each position, in the width scipy gave A
    kept = np.zeros(len(keep) + 1, dtype=A.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return sp.csr_matrix((A.data[keep], A.indices[keep], kept[A.indptr]), shape=A.shape)


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


def apply_bc(matrix, rhs, bcs, *, symmetric):
    """Constrain a square single-space system: ``apply_bc_block`` on the
    1x1 block system, collapsed (forced: the result stores at most the
    entries of ``matrix`` and its diagonal)."""
    bcs = [bcs] if isinstance(bcs, DirichletBC) else bcs
    op, (rhs,) = apply_bc_block(BlockMat([[matrix]]), [rhs], {0: bcs}, symmetric=symmetric)
    return collapse(op, force=True), rhs


def apply_bc_block(block_op, rhs_blocks, bcs_by_block, *, symmetric):
    """Constrain a lazy block system.  ``bcs_by_block`` maps block index ->
    list of DirichletBC, each on a space of that block's dimension.  Rows
    of constrained dofs are zeroed with a unit diagonal and their rhs
    entries set to the boundary values; with ``symmetric`` the columns are
    eliminated too, lifting the rhs first.  The masks go into the blocks'
    matrix leaves (``_constrain``): a constrained block keeps the shape of
    its lowered tree, and no product the interpreter built is collapsed.

    Each caller states ``symmetric``: ds-mixed's MinRes needs the symmetric
    form, and perfusion's direct solve is faster with rows alone (symmetric
    elimination slowed its n=24 ``spsolve``, though the fill fell)."""
    rows = block_op.blocks
    for i in bcs_by_block:
        if not 0 <= i < len(rows):
            raise ValueError(f"boundary conditions on block {i}; the system has {len(rows)} blocks")
    vectors = {i: _bc_vectors(block_op, i, bcs) for i, bcs in bcs_by_block.items()}
    rhs = [np.array(b, dtype=float, copy=True) for b in rhs_blocks]
    if symmetric:
        for j, row in enumerate(rows):
            for i, (gi, _) in vectors.items():
                if not isinstance(row[i], Zero):
                    rhs[j] -= row[i].matvec(gi)

    keep = {i: 1.0 - mask for i, (_, mask) in vectors.items()}
    masked = {}
    new_rows = [[_constrain(blk, keep.get(i), keep.get(j) if symmetric else None, masked)
                 for j, blk in enumerate(row)] for i, row in enumerate(rows)]
    for i, (gi, mask) in vectors.items():
        diag, unit = new_rows[i][i], Matrix(sp.diags(mask).tocsr())
        new_rows[i][i] = unit if isinstance(diag, Zero) else Sum([diag, unit])
        rhs[i] = keep[i] * rhs[i] + gi
    return BlockMat(new_rows), rhs


def _constrain(op, rows, cols, masked):
    """``op`` with its rows scaled by the 0/1 mask ``rows`` and its columns
    by ``cols`` (None: unmasked).  Each masked sparse leaf is a copy whose
    data is scaled in place, keeping the order in which products and
    matvecs sum; the leaves of ``op`` are shared and stay unchanged.
    ``masked`` holds the copies made so far, by leaf and masks, so a leaf
    masked alike in several blocks (a coupling and its transpose under
    symmetric conditions, a reduction matrix) is copied once."""
    if isinstance(op, Zero) or (rows is None and cols is None):
        return op
    if isinstance(op, Sum):
        return Sum([_constrain(t, rows, cols, masked) for t in op.terms])
    if isinstance(op, Product):
        f = list(op.factors)
        f[-1] = _constrain(f[-1], None, cols, masked)
        f[0] = _constrain(f[0], rows, None, masked)
        return Product(f)
    if isinstance(op, Transpose):
        return Transpose(_constrain(op.child, cols, rows, masked))
    if isinstance(op, Matrix) and sp.issparse(op.a):
        key = (id(op.a), id(rows), id(cols))
        if key not in masked:
            a = op.a.tocsr(copy=True)
            if rows is not None:
                a.data *= np.repeat(rows, np.diff(a.indptr))
            if cols is not None:
                a.data *= cols[a.indices]
            a.eliminate_zeros()
            masked[key] = Matrix(a)
        return masked[key]
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
