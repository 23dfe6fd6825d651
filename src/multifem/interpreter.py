"""Lowering of (block) symbolic forms to lazy block-operator expressions.

A form without reduction terminals goes to the singlescale assembler
whole, so its matrix is bitwise that of the base assembler.  Any other
form is lowered one integral at a time, in one pass each: every reduced
terminal is replaced by a bare one on the reduction's target space, the
resulting singlescale integral is assembled once into ``A`` and composed
with the reduction matrices ``R``:

* arguments reduced:   R_test^T o A o R_trial (an unreduced side is left out)
* linear form:         R_test^T b
* coefficient reduced: coefficients mapped through R, no composition

The integrals' contributions are summed in form order.
"""
from __future__ import annotations

import numbers

import numpy as np

from .assemble import assemble
from .forms import (
    Argument, BlockForm, Coefficient, Form, FormError, Integral,
    reduced_terminals, replace,
)
from .opalg import BlockMat, Matrix, Product, Sum, Transpose, Zero, as_op
from .reduction import ReductionCache
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
        return _assemble_form(obj, cache)
    if isinstance(obj, BlockForm):
        return _assemble_block_form(obj, cache)
    raise FormError(f"cannot assemble {type(obj).__name__}")


def _assemble_form(form, cache):
    if not any(reduced_terminals(i.integrand) for i in form):
        return assemble(form)
    return _sum_contributions([_lower_integral(i, cache) for i in form])


def _lower_integral(integral, cache):
    """``R_test^T o A o R_trial`` of one integral, with ``A`` the
    singlescale assembly of the integral after its reduced terminals are
    replaced by bare ones on the target spaces."""
    integrand = integral.integrand
    left = right = None
    for node in reduced_terminals(integral.integrand):
        operand = node.operand
        if isinstance(operand, Argument):
            red = cache.get_or_build(operand.space, node.target_mesh, node.kind)
            bare = Argument(red.target_space, operand.role, operand.block)
            if operand.role == "test":
                left = red.matrix
            else:
                right = red.matrix
        else:
            red = cache.get_or_build(operand.space, node.target_mesh, node.kind)
            bare = Coefficient(Function(red.target_space,
                                        red.matrix @ operand.function.coefficients))
        integrand = replace(integrand, node, bare)
    out = assemble(Form([Integral(integrand, integral.mesh)]))
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


def _sum_contributions(parts):
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(p, (numbers.Number, np.ndarray)) for p in parts):
        return sum(parts[1:], start=parts[0])
    return Sum([as_op(p) for p in parts])


def _assemble_block_form(bf, cache):
    dims = [V.dim for V in bf.spaces]
    if bf.arity == 2:
        rows = []
        for i in range(bf.n_blocks):
            row = []
            for j in range(bf.n_blocks):
                entry = bf.table[i][j]
                if entry is None:
                    row.append(Zero(dims[i], dims[j]))
                else:
                    row.append(as_op(_assemble_form(entry, cache)))
            rows.append(row)
        return BlockMat(rows)
    blocks = []
    for i in range(bf.n_blocks):
        entry = bf.table[i]
        if entry is None:
            blocks.append(np.zeros(dims[i]))
        else:
            blocks.append(_assemble_form(entry, cache))
    return blocks
