"""Lazy linear operator expressions: matrix leaves, products, sums,
transposes of matrix leaves, scalings, block structure and inverse handles.

Expressions are immutable trees evaluated through their forward action
(``matvec``) on flat vectors, or materialized with ``collapse``.  No
simplification is performed.  The only transpose a lowering makes is that
of a reduction matrix (``R^T`` in ``R^T o A o R``), so ``Transpose`` wraps
matrix leaves only and no node has a transposed action.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

__all__ = [
    "OpExpr", "Matrix", "Identity", "Zero", "Sum", "Product", "Transpose",
    "Scaled", "InverseHandle", "BlockMat", "as_op", "block_diag_mat",
    "collapse", "OpError", "NotCollapsibleError", "CollapseSizeError",
]

COLLAPSE_LIMIT = 5_000_000


class OpError(ValueError):
    pass


class NotCollapsibleError(OpError):
    pass


class CollapseSizeError(OpError):
    pass


class OpExpr:
    shape: tuple

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    def matvec(self, x):
        raise NotImplementedError

    def __matmul__(self, other):
        if isinstance(other, OpExpr):
            return Product([self, other])
        if sp.issparse(other):
            return Product([self, Matrix(other)])
        if isinstance(other, np.ndarray):
            return self.matvec(other)
        return NotImplemented

    def __rmul__(self, alpha):
        if np.isscalar(alpha):
            return Scaled(float(alpha), self)
        return NotImplemented

    def __add__(self, other):
        return Sum([self, as_op(other)])

    def __sub__(self, other):
        return Sum([self, Scaled(-1.0, as_op(other))])

    def __neg__(self):
        return Scaled(-1.0, self)


def as_op(obj):
    """Wrap raw sparse/dense matrices as operator leaves."""
    if isinstance(obj, OpExpr):
        return obj
    if sp.issparse(obj) or isinstance(obj, np.ndarray):
        return Matrix(obj)
    raise OpError(f"cannot interpret {type(obj).__name__} as an operator")


def _check_vec(e, x, n):
    x = np.asarray(x)
    if x.shape != (n,):
        raise OpError(f"operator of shape {e.shape} got vector of shape {x.shape}")
    return x


class Matrix(OpExpr):
    """Explicit matrix leaf (scipy sparse or dense ndarray)."""

    def __init__(self, a):
        if not (sp.issparse(a) or isinstance(a, np.ndarray)):
            raise OpError(f"matrix leaf needs an array, got {type(a).__name__}")
        self.a = a
        self.shape = a.shape

    def matvec(self, x):
        return self.a @ _check_vec(self, x, self.cols)


class Identity(OpExpr):
    def __init__(self, n):
        self.shape = (n, n)

    def matvec(self, x):
        return _check_vec(self, x, self.cols).copy()


class Zero(OpExpr):
    def __init__(self, rows, cols):
        self.shape = (rows, cols)

    def matvec(self, x):
        _check_vec(self, x, self.cols)
        return np.zeros(self.rows)


class Sum(OpExpr):
    def __init__(self, terms):
        self.terms = [as_op(t) for t in terms]
        if not self.terms:
            raise OpError("empty sum")
        self.shape = self.terms[0].shape
        for t in self.terms[1:]:
            if t.shape != self.shape:
                raise OpError(f"sum shape mismatch: {t.shape} vs {self.shape}")

    def matvec(self, x):
        x = _check_vec(self, x, self.cols)
        out = self.terms[0].matvec(x)
        for t in self.terms[1:]:
            out = out + t.matvec(x)
        return out


class Product(OpExpr):
    def __init__(self, factors):
        self.factors = [as_op(f) for f in factors]
        if not self.factors:
            raise OpError("empty product")
        for a, b in zip(self.factors[:-1], self.factors[1:]):
            if a.cols != b.rows:
                raise OpError(f"product inner dimension mismatch: {a.shape} * {b.shape}")
        self.shape = (self.factors[0].rows, self.factors[-1].cols)

    def matvec(self, x):
        x = _check_vec(self, x, self.cols)
        for f in reversed(self.factors):
            x = f.matvec(x)
        return x


class Transpose(OpExpr):
    """Transpose of a matrix leaf, applied through the leaf's transposed
    copy (CSR when sparse), built on first use."""

    def __init__(self, e):
        self.child = as_op(e)
        if not isinstance(self.child, Matrix):
            raise OpError(f"only matrix leaves can be transposed, got "
                          f"{type(self.child).__name__}")
        self.shape = (self.child.cols, self.child.rows)

    @functools.cached_property
    def _at(self):
        a = self.child.a
        return a.T.tocsr() if sp.issparse(a) else a.T

    def matvec(self, x):
        return self._at @ _check_vec(self, x, self.cols)


class Scaled(OpExpr):
    def __init__(self, alpha, e):
        self.alpha = float(alpha)
        self.child = as_op(e)
        self.shape = self.child.shape

    def matvec(self, x):
        return self.alpha * self.child.matvec(x)


class InverseHandle(OpExpr):
    """Solver-backed application of an (approximate) inverse; not collapsible."""

    def __init__(self, n, apply, label="block"):
        self.shape = (n, n)
        self._apply = apply
        self.label = label

    def matvec(self, x):
        return self._apply(_check_vec(self, x, self.cols))


class BlockMat(OpExpr):
    """Dense table of operator blocks acting on flat vectors."""

    def __init__(self, blocks):
        self.blocks = [[as_op(b) for b in row] for row in blocks]
        nrows = len(self.blocks)
        ncols = len(self.blocks[0])
        if any(len(row) != ncols for row in self.blocks):
            raise OpError("ragged block structure")
        self.row_dims = [self.blocks[i][0].rows for i in range(nrows)]
        self.col_dims = [self.blocks[0][j].cols for j in range(ncols)]
        for i in range(nrows):
            for j in range(ncols):
                shape = self.blocks[i][j].shape
                if shape != (self.row_dims[i], self.col_dims[j]):
                    raise OpError(
                        f"block ({i},{j}) has shape {shape}, expected "
                        f"({self.row_dims[i]}, {self.col_dims[j]})")
        self.shape = (sum(self.row_dims), sum(self.col_dims))

    def __getitem__(self, ij):
        i, j = ij
        return self.blocks[i][j]

    def matvec(self, x):
        x = _check_vec(self, x, self.cols)
        parts = np.split(x, np.cumsum(self.col_dims)[:-1])
        out = []
        for i, row in enumerate(self.blocks):
            acc = np.zeros(self.row_dims[i])
            for j, blk in enumerate(row):
                if isinstance(blk, Zero):
                    continue
                acc = acc + blk.matvec(parts[j])
            out.append(acc)
        return np.concatenate(out)


def block_diag_mat(entries):
    """Diagonal block operator; off-diagonal blocks are symbolic zeros."""
    entries = [as_op(e) for e in entries]
    for e in entries:
        if e.rows != e.cols:
            raise OpError(f"block_diag_mat needs square blocks, got {e.shape}")
    n = len(entries)
    rows = [[entries[i] if i == j else Zero(entries[i].rows, entries[j].cols)
             for j in range(n)] for i in range(n)]
    return BlockMat(rows)


# -- materialization -----------------------------------------------------------

def _guard(m, force):
    if not force and m.nnz > COLLAPSE_LIMIT:
        raise CollapseSizeError(
            f"collapse would store {m.nnz} entries (> {COLLAPSE_LIMIT}); pass force=True")
    return m


def collapse(e, force=False):
    """Materialize an operator expression as a csr matrix.  Refuses inverse
    handles and results above COLLAPSE_LIMIT stored entries (unless forced)."""
    e = as_op(e)
    if isinstance(e, Matrix):
        m = e.a if sp.issparse(e.a) else sp.csr_matrix(e.a)
        return _guard(m.tocsr(), force)
    if isinstance(e, Identity):
        return sp.identity(e.rows, format="csr")
    if isinstance(e, Zero):
        return sp.csr_matrix(e.shape)
    if isinstance(e, Sum):
        out = collapse(e.terms[0], force)
        for t in e.terms[1:]:
            out = _guard((out + collapse(t, force)).tocsr(), force)
        return out
    if isinstance(e, Product):
        out = collapse(e.factors[0], force)
        for f in e.factors[1:]:
            out = _guard((out @ collapse(f, force)).tocsr(), force)
        return out
    if isinstance(e, Transpose):
        return collapse(e.child, force).T.tocsr()
    if isinstance(e, Scaled):
        return (e.alpha * collapse(e.child, force)).tocsr()
    if isinstance(e, BlockMat):
        grid = [[collapse(b, force) for b in row] for row in e.blocks]
        return _guard(sp.bmat(grid, format="csr"), force)
    if isinstance(e, InverseHandle):
        raise NotCollapsibleError(f"inverse handle '{e.label}' cannot be collapsed")
    raise OpError(f"cannot collapse {type(e).__name__}")
