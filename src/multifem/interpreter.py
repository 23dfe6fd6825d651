"""Lowering of (block) symbolic forms to lazy block-operator expressions.

A form's integrals are grouped by the reductions of their test and trial
arguments (their reduction pair, ``None`` for an unreduced or absent
side), in order of first appearance; the keys are the reduction cache's,
computed without building anything.  Each group is lowered in one pass:
every reduced terminal of its integrals is replaced by a bare one on the
reduction's target space (building the reduction, or finding it in the
cache), the group is assembled by the singlescale assembler in one call
into ``A``, and ``A`` is composed with the reduction matrices ``R``:

* arguments reduced:   R_test^T o A o R_trial (an unreduced side is left out)
* linear form:         R_test^T b
* coefficient reduced: coefficients mapped through R, no composition

The groups' contributions are summed in group order.  A reduction-free
form is the single ``(None, None)`` group, so its matrix is bitwise that
of the base assembler.  A block form lowers its forms in row-major order
of their block keys, whatever order they were added in.

A block form's coupling (j, i), j > i, that holds the integrals of (i, j)
in the same order with test and trial swapped (``_is_transpose``) is not
lowered again: its entry is the transpose of the lowered (i, j), taken
down to its matrix leaves (``_transpose``): a product's factors reversed,
a sum's terms in order, ``Transpose(Transpose(M))`` is ``M``.  This is
bitwise the lowering of (j, i): each assembled entry sums the same local
values over the same cells in cell order, and the residue bound
min(r_i, c_j) is symmetric.
"""
from __future__ import annotations

import itertools
import numbers

import numpy as np

from .assemble import assemble
from .forms import (
    Analytic, Argument, BlockForm, Coefficient, Constant, Form, FormError, Inner, Integral,
    Reduced, Scale, replace,
)
from .opalg import BlockMat, Matrix, Product, Sum, Transpose, Zero, as_op
from .reduction import ReductionCache, reduction_key
from .space import Function

__all__ = ["multi_assemble"]


def multi_assemble(obj, cache: ReductionCache | None = None):
    """Assemble a form, or a block form entrywise (absent blocks become
    dimension-carrying zeros): a bilinear one into a block operator, a
    linear one into a list of per-block vectors.  Reduction matrices are
    built once per ``cache``; without one, a fresh cache serves this call
    and is dropped with it."""
    cache = cache if cache is not None else ReductionCache()
    if isinstance(obj, Form):
        return _lower(obj, cache)
    if isinstance(obj, BlockForm):
        return _lower_block_form(obj, cache)
    raise FormError(f"cannot assemble {type(obj).__name__}")


def _reduction_pair(integral):
    """The reduction keys of the integral's test and trial arguments."""
    keys = {id(node.operand): reduction_key(node.operand.space, node.target_mesh, node.kind)
            for node in integral.reduced}
    return keys.get(id(integral.test)), keys.get(id(integral.trial))


def _lower(form, cache):
    groups = {}
    for integral in form:
        groups.setdefault(_reduction_pair(integral), []).append(integral)
    parts = [_lower_group(group, cache) for group in groups.values()]
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, (numbers.Number, np.ndarray)) for p in parts):
        return sum(parts[1:], start=parts[0])
    return Sum([as_op(p) for p in parts])


def _lower_group(integrals, cache):
    """``R_test^T o A o R_trial`` of integrals that share their reduction
    pair, with ``A`` the singlescale assembly of the integrals after their
    reduced terminals are replaced by bare ones on the target spaces."""
    left = right = None
    bare_integrals = []
    for integral in integrals:
        integrand = integral.integrand
        for node in integral.reduced:
            operand = node.operand
            red = cache.get_or_build(operand.space, node.target_mesh, node.kind)
            if isinstance(operand, Argument):
                bare = Argument(red.target_space, operand.role, operand.block)
                if operand.role == "test":
                    left = red.matrix
                else:
                    right = red.matrix
            else:
                bare = Coefficient(Function(red.target_space,
                                            red.matrix @ operand.function.coefficients))
            integrand = replace(integrand, node, bare)
        bare_integrals.append(Integral(integrand, integral.mesh))
    out = assemble(Form(bare_integrals))
    if left is None and right is None:
        return out
    if isinstance(out, np.ndarray):
        return left.T @ out
    factors = [Matrix(out)]
    if left is not None:
        factors.insert(0, Transpose(Matrix(left)))
    if right is not None:
        factors.append(Matrix(right))
    return Product(factors)


def _lower_block_form(bf, cache):
    if not bf.table:
        raise FormError("block form has no forms to assemble")
    dims = [V.dim for V in bf.spaces]
    n = len(dims)
    lowered = {}
    for key in itertools.product(range(n), repeat=bf.arity):
        if key not in bf.table:
            continue
        partner = key[::-1]            # in ``lowered`` when it precedes key
        if partner in lowered and _is_transpose(bf.table[key], bf.table[partner]):
            lowered[key] = _transpose(lowered[partner])
        else:
            lowered[key] = _lower(bf.table[key], cache)
    entries = [lowered[key] if key in lowered else _zero([dims[k] for k in key])
               for key in itertools.product(range(n), repeat=bf.arity)]
    if bf.arity == 1:
        return entries
    return BlockMat([entries[i * n:(i + 1) * n] for i in range(n)])


def _is_transpose(form, other):
    """Whether ``form`` holds the integrals of ``other`` in the same order,
    each on the same measure mesh with test and trial swapped."""
    return len(form.integrals) == len(other.integrals) and all(
        a.mesh is b.mesh and _swapped(a.integrand, b.integrand)
        for a, b in zip(form, other))


def _swapped(a, b):
    """Whether the expression ``a`` is ``b`` with test and trial swapped:
    the same tree over the same spaces and the same data (functions,
    callbacks and reductions by identity, equal constants and scalings),
    where an ``Inner`` may hold its operands in either order."""
    if type(a) is not type(b) or a.shape != b.shape:
        return False
    if isinstance(a, Argument):
        return a.space is b.space and a.block == b.block and a.role != b.role
    if isinstance(a, Coefficient):
        return a.function is b.function
    if isinstance(a, Constant):
        return np.array_equal(a.value, b.value)
    if isinstance(a, Analytic):
        return a.fn is b.fn and a.degree == b.degree
    if isinstance(a, Reduced) and (a.kind != b.kind or a.target_mesh is not b.target_mesh):
        return False
    if isinstance(a, Scale) and a.alpha != b.alpha:
        return False
    if isinstance(a, Inner) and all(map(_swapped, a.children, b.children[::-1])):
        return True
    return all(map(_swapped, a.children, b.children))


def _transpose(e):
    """The transpose of a lowered matrix entry, taken down to its leaves."""
    if isinstance(e, Transpose):
        return e.child
    if isinstance(e, Product):
        return Product([_transpose(f) for f in reversed(e.factors)])
    if isinstance(e, Sum):
        return Sum([_transpose(t) for t in e.terms])
    return Transpose(as_op(e))


def _zero(shape):
    """An absent block: a zero vector, or a zero operator of its shape."""
    return np.zeros(shape) if len(shape) == 1 else Zero(*shape)
