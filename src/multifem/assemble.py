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
from .space import FunctionSpace, rt0_edge_flux, tabulate_lagrange, _as_field

__all__ = [
    "assemble", "NotSinglescaleError", "DirichletBC", "apply_bc",
    "apply_bc_block", "save_matrix_market", "load_matrix_market",
]

_CHUNK = 512

# An assembled entry a_ij is a sum of element contributions, each at most
# m_K = max|A_K| in size.  Where they cancel in exact arithmetic (the
# Kuhn-cube P1 stiffness couples some vertex pairs with weight zero), the
# floating-point sum leaves residue.  An entry is not stored when
# |a_ij| <= _RESIDUE_ULPS * eps * min(r_i, c_j), where r_i and c_j sum m_K
# over the cells of test dof i and of trial dof j.  The rule is scale-free
# and has no h in it.  Measured, the Kuhn-cube residue stays under 1 such
# ulp (n = 12, 24), and the smallest true entry of every benchmark matrix
# lies above 1e13 of them; 8 leaves room on both sides.  Residue made inside one
# element is dropped only while it stays under the bound: RT0 couplings
# that vanish on right triangles come out at 3, 11 and 21 ulps at
# n = 8, 32 and 64, because the basis is evaluated at absolute coordinates.
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

class _ChunkGeometry:
    """The cells ``cells`` (a slice) of a mesh: quadrature weights and
    gradient transforms sliced from the mesh's geometry, physical
    quadrature points computed on first use."""

    def __init__(self, mesh, cells, ref_pts, ref_wts):
        self.mesh = mesh
        self.cells = cells
        self.ref_pts = ref_pts
        self.weights = ref_wts[None, :] * mesh.jacobian_measure[cells, None]  # (C, Q)

    @property
    def G(self):
        return self.mesh.gradient_transform[self.cells]      # (C, g, t)

    @functools.cached_property
    def phys(self):
        v = self.mesh.vertices[self.mesh.cells[self.cells]]     # (C, tdim+1, g)
        E = v[:, 1:, None, :] - v[:, :1, None, :]                # (C, t, 1, g)
        xi = self.ref_pts.T[:, :, None]                          # (t, Q, 1)
        # v0 + sum_t xi_t E_t: the sum of einsum("qt,ctg->cqg", ref_pts, E),
        # in its order, at a quarter of its time on these shapes
        x = xi[0] * E[:, 0]
        for t in range(1, len(xi)):
            x += xi[t] * E[:, t]
        return v[:, 0, None, :] + x


# -- expression evaluation ------------------------------------------------------

class _Evaluator:
    """Evaluates an integrand over one chunk as arrays (C, Q, T, U, *shape)."""

    def __init__(self, space_mesh, geom, ref_pts, test_arg, trial_arg, tabs):
        self.mesh = space_mesh
        self.geom = geom
        self.ref_pts = ref_pts
        self.test_arg = test_arg
        self.trial_arg = trial_arg
        self.memo = {}
        self._tab = tabs              # shared by the chunks of one integral
        self._grads = {}

    def tab(self, space):
        key = space.uid
        if key not in self._tab:
            self._tab[key] = tabulate_lagrange(
                space.mesh.tdim, space.element.degree, self.ref_pts)
        return self._tab[key]

    def _axis_slot(self, arg):
        # returns a reshape inserting the basis axis into the T or U slot
        return 2 if arg.role == "test" else 3

    def eval(self, e):
        key = id(e)
        if key not in self.memo:
            self.memo[key] = self._eval(e)
        return self.memo[key]

    def _eval(self, e):
        geom = self.geom
        C, Q = geom.weights.shape
        if isinstance(e, Argument):
            return self._argument_values(e)
        if isinstance(e, Grad):
            return self._grad(e.children[0])
        if isinstance(e, Div):
            return self._div(e.children[0])
        if isinstance(e, Coefficient):
            return self._coefficient_values(e)
        if isinstance(e, Constant):
            return e.value.reshape((1, 1, 1, 1) + e.shape)
        if isinstance(e, Analytic):
            return self._analytic(e)
        if isinstance(e, Inner):
            a, b = (self.eval(c) for c in e.children)
            rank = len(e.children[0].shape)
            if rank == 0:
                return a * b
            spec = "...i,...i->..." if rank == 1 else "...ij,...ij->..."
            return np.einsum(spec, a, b)
        if isinstance(e, Dot):
            a, b = (self.eval(c) for c in e.children)
            ra, rb = len(e.children[0].shape), len(e.children[1].shape)
            spec = {(1, 1): "...i,...i->...", (2, 1): "...ij,...j->...i",
                    (1, 2): "...i,...ij->...j", (2, 2): "...ij,...jk->...ik"}[(ra, rb)]
            return np.einsum(spec, a, b)
        if isinstance(e, Sym):
            a = self.eval(e.children[0])
            return 0.5 * (a + np.swapaxes(a, -1, -2))
        if isinstance(e, Add):
            return self.eval(e.children[0]) + self.eval(e.children[1])
        if isinstance(e, Neg):
            return -self.eval(e.children[0])
        if isinstance(e, Scale):
            return e.alpha * self.eval(e.children[0])
        raise FormError(f"cannot evaluate {e!r}")

    # terminal helpers ---------------------------------------------------

    def _argument_values(self, arg):
        slot = self._axis_slot(arg)
        space = arg.space
        if space.element.family == "RaviartThomas":
            vals, _ = space.rt0_cell_basis(self.geom.cells, self.geom.phys)
            return np.expand_dims(vals, axis=3 if slot == 2 else 2)
        vals, _ = self.tab(space)                       # (Q, nloc_s)
        nc = space.ncomp
        if nc == 1:
            arr = vals[None, :, :, None] if slot == 2 else vals[None, :, None, :]
            return arr
        nloc = space.nloc_scalar * nc
        vv = np.zeros((len(self.ref_pts), nloc, nc))
        for c in range(nc):
            vv[:, c::nc, c] = vals
        if slot == 2:
            return vv[None, :, :, None, :]
        return vv[None, :, None, :, :]

    def _phys_scalar_grads(self, space):
        """(C, Q, nloc_s, g), or (C, 1, nloc_s, g) where the gradients are
        constant on each cell (degree <= 1)."""
        key = space.uid
        if key not in self._grads:
            _, ref_grads = self.tab(space)              # (Q, nloc_s, t)
            if space.element.degree <= 1:
                ref_grads = ref_grads[:1]
            self._grads[key] = np.einsum("qit,cgt->cqig", ref_grads, self.geom.G)
        return self._grads[key]

    def _grad(self, term):
        if isinstance(term, Argument):
            space = term.space
            slot = self._axis_slot(term)
            sg = self._phys_scalar_grads(space)         # (C, Q, nloc_s, g)
            nc = space.ncomp
            if nc == 1:
                return np.expand_dims(sg, axis=3 if slot == 2 else 2)
            C, Q, nloc_s, g = sg.shape
            vg = np.zeros((C, Q, nloc_s * nc, nc, g))
            for c in range(nc):
                vg[:, :, c::nc, c, :] = sg
            if slot == 2:
                return vg[:, :, :, None, :, :]
            return vg[:, :, None, :, :, :]
        space, coeffs = _coefficient_data(term)
        self._check_mesh(space)
        sg = self._phys_scalar_grads(space)
        cf = coeffs[space.dofmap[self.geom.cells]]      # (C, nloc)
        nc = space.ncomp
        if nc == 1:
            out = np.einsum("cqig,ci->cqg", sg, cf)
            return out[:, :, None, None, :]
        cfv = cf.reshape(len(cf), space.nloc_scalar, nc)
        out = np.einsum("cqig,cid->cqdg", sg, cfv)
        return out[:, :, None, None, :, :]

    def _div(self, term):
        if isinstance(term, Argument):
            space = term.space
            slot = self._axis_slot(term)
            if space.element.family == "RaviartThomas":
                _, divs = space.rt0_cell_basis(self.geom.cells, self.geom.phys)
                arr = divs[:, None, :]                  # (C, 1, nloc)
                return np.expand_dims(arr, axis=3 if slot == 2 else 2)
            sg = self._phys_scalar_grads(space)
            nc = space.ncomp
            C, Q, nloc_s, _ = sg.shape
            dv = np.zeros((C, Q, nloc_s * nc))
            for c in range(nc):
                dv[:, :, c::nc] = sg[:, :, :, c]
            return np.expand_dims(dv, axis=3 if slot == 2 else 2)
        space, coeffs = _coefficient_data(term)
        self._check_mesh(space)
        cf = coeffs[space.dofmap[self.geom.cells]]
        if space.element.family == "RaviartThomas":
            _, divs = space.rt0_cell_basis(self.geom.cells, self.geom.phys)
            out = np.einsum("ck,ck->c", divs, cf)
            return out[:, None, None, None]
        sg = self._phys_scalar_grads(space)
        cfv = cf.reshape(len(cf), space.nloc_scalar, space.ncomp)
        out = np.einsum("cqid,cid->cq", sg, cfv)
        return out[:, :, None, None]

    def _coefficient_values(self, e):
        space, coeffs = _coefficient_data(e)
        self._check_mesh(space)
        cf = coeffs[space.dofmap[self.geom.cells]]
        if space.element.family == "RaviartThomas":
            vals, _ = space.rt0_cell_basis(self.geom.cells, self.geom.phys)
            out = np.einsum("cqkd,ck->cqd", vals, cf)
            return out[:, :, None, None, :]
        vals, _ = self.tab(space)
        nc = space.ncomp
        if nc == 1:
            out = np.einsum("qi,ci->cq", vals, cf)
            return out[:, :, None, None]
        cfv = cf.reshape(len(cf), space.nloc_scalar, nc)
        out = np.einsum("qi,cid->cqd", vals, cfv)
        return out[:, :, None, None, :]

    def _check_mesh(self, space):
        if space.mesh is not self.mesh:
            raise FormError("coefficient lives on a different mesh than the measure")

    def _analytic(self, e):
        """``e.fn`` maps points (N, gdim) to values (N,) + e.shape."""
        pts = self.geom.phys
        C, Q, g = pts.shape
        flat = pts.reshape(-1, g)
        expected = (len(flat),) + e.shape
        try:
            vals = np.asarray(e.fn(flat), dtype=float)
        except Exception as exc:
            raise FormError(
                f"{e!r}: the function raised {type(exc).__name__}: {exc} on points "
                f"of shape {flat.shape}; it must map them to values of shape "
                f"{expected}") from exc
        if vals.shape != expected:
            raise FormError(
                f"{e!r}: the function returned shape {vals.shape} for points of "
                f"shape {flat.shape}; expected {expected}")
        return vals.reshape((C, Q, 1, 1) + e.shape)


def _coefficient_data(term):
    return term.function.space, term.function.coefficients


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
        size = mesh.num_cells * nT * nU
        rows = np.empty(size, dtype=np.int64)
        cols = np.empty(size, dtype=np.int64)
        vals = np.empty(size)
        cell_max = np.empty(mesh.num_cells)
    vec = np.zeros(test.space.dim) if test is not None and trial is None else None
    scalar = 0.0
    tabs = {}

    for start in range(0, mesh.num_cells, _CHUNK):
        cells = slice(start, min(start + _CHUNK, mesh.num_cells))
        geom = _ChunkGeometry(mesh, cells, ref_pts, ref_wts)
        ev = _Evaluator(mesh, geom, ref_pts, test, trial, tabs)
        val = ev.eval(integral.integrand)
        C, Q = geom.weights.shape
        val = np.broadcast_to(val, (C, Q, nT, nU))
        loc = np.einsum("cq,cqtu->ctu", geom.weights, val)
        if bilinear:
            out = slice(start * nT * nU, (start + C) * nT * nU)
            rows[out].reshape(loc.shape)[...] = test.space.dofmap[cells][:, :, None]
            cols[out].reshape(loc.shape)[...] = trial.space.dofmap[cells][:, None, :]
            vals[out] = loc.ravel()
            cell_max[cells] = np.abs(loc).max(axis=(1, 2))
        elif test is not None:
            np.add.at(vec, test.space.dofmap[cells], loc[:, :, 0])
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

    Lagrange spaces: dofs whose coordinate satisfies the predicate.  RT0:
    edge dofs whose midpoint and both endpoints satisfy it; values are the
    edge fluxes of the prescribed field.
    """

    def __init__(self, space: FunctionSpace, value, predicate):
        self.space = space
        field = _as_field(value, space.value_shape)
        if space.is_point_evaluation:
            dofs = [i for i, x in enumerate(space.dof_coords) if predicate(x)]
            if space.ncomp == 1:
                values = [float(field(space.dof_coords[i])) for i in dofs]
            else:
                values = [float(np.asarray(field(space.dof_coords[i]))[space.dof_component[i]])
                          for i in dofs]
        else:
            mesh = space.mesh
            ev = mesh.vertices[mesh.edges]
            dofs = [e for e in range(space.dim)
                    if predicate(space.edge_midpoints[e])
                    and predicate(ev[e, 0]) and predicate(ev[e, 1])]
            values = rt0_edge_flux(space, field, dofs)
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("boundary values must be finite")


def _bc_vectors(space_dim, bcs):
    g = np.zeros(space_dim)
    mask = np.zeros(space_dim)
    for bc in bcs:
        g[bc.dofs] = bc.values
        mask[bc.dofs] = 1.0
    return g, mask


def apply_bc(matrix, rhs, bcs, symmetric=False):
    """Constrain a square single-space system.  Rows are zeroed with a unit
    diagonal and rhs entries set to the boundary values; with ``symmetric``
    the columns are eliminated too, lifting the rhs first."""
    bcs = [bcs] if isinstance(bcs, DirichletBC) else list(bcs)
    for bc in bcs:
        if bc.space.dim != matrix.shape[0]:
            raise ValueError("boundary condition space does not match the matrix")
    n = matrix.shape[0]
    g, mask = _bc_vectors(n, bcs)
    keep = sp.diags(1.0 - mask)
    pin = sp.diags(mask)
    if symmetric:
        rhs = keep @ (rhs - matrix @ g) + g
        out = (keep @ matrix @ keep + pin).tocsr()
    else:
        rhs = keep @ rhs + g
        out = (keep @ matrix + pin).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out, rhs


def apply_bc_block(block_op, rhs_blocks, bcs_by_block, symmetric=True):
    """Constrain a lazy block system.  ``bcs_by_block`` maps block index ->
    list of DirichletBC.  Off-diagonal blocks are masked lazily (row/column
    projectors composed around the original operators), so products built by
    the interpreter never need to be materialized."""
    from .opalg import BlockMat, Matrix, Sum, Product, Zero, as_op

    rows = block_op.blocks
    nb = len(rows)
    row_dims, col_dims = block_op.row_dims, block_op.col_dims
    g = {i: _bc_vectors(col_dims[i], bcs)[0] for i, bcs in bcs_by_block.items()}
    masks = {i: _bc_vectors(col_dims[i], bcs)[1] for i, bcs in bcs_by_block.items()}

    rhs = [np.array(b, dtype=float, copy=True) for b in rhs_blocks]
    if symmetric:
        for j in range(nb):
            for i, gi in g.items():
                blk = rows[j][i]
                if isinstance(blk, Zero):
                    continue
                rhs[j] = rhs[j] - blk.matvec(gi)

    new_rows = [[rows[i][j] for j in range(nb)] for i in range(nb)]
    for i, mask in masks.items():
        keep = Matrix(sp.diags(1.0 - mask).tocsr())
        pin = sp.diags(mask).tocsr()
        for j in range(nb):
            if not isinstance(new_rows[i][j], Zero):
                new_rows[i][j] = Product([keep, as_op(new_rows[i][j])])
            if symmetric and not isinstance(new_rows[j][i], Zero):
                new_rows[j][i] = Product([as_op(new_rows[j][i]), keep])
        diag = new_rows[i][i]
        unit = Matrix(pin)
        new_rows[i][i] = Sum([as_op(diag), unit]) if not isinstance(diag, Zero) else unit
        rhs[i] = (1.0 - mask) * rhs[i] + g[i]
    return BlockMat(new_rows), rhs


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
