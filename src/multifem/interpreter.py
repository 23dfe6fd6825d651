"""Lowering of (block) symbolic forms to lazy block-operator expressions.

``multi_assemble`` dispatches each form through an ordered registry of
reduced assemblers (trace, average, restrict); each strips terminals of
its own reduction kind, delegates the transformed form back to
``multi_assemble`` and composes the result with the reduction matrix:

* trial argument reduced:  (recursed operator) o R
* test argument reduced:   R^T o (recursed operator)
* coefficient reduced:     coefficients mapped through R, no composition

Reduction-free forms fall through to the singlescale assembler, so their
matrices are bitwise those of the base assembler.
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

__all__ = ["multi_assemble", "UnhandledReductionError", "KINDS"]

KINDS = ("trace", "average", "restrict")


class UnhandledReductionError(FormError):
    """A reduction kind no registered assembler handles."""


def multi_assemble(obj, cache: ReductionCache | None = None):
    """Assemble numbers as-is, forms through the reduced-assembler registry,
    and block forms entrywise (absent blocks become dimension-carrying
    zeros): a bilinear one into a block operator, a linear one into a list
    of per-block vectors.  Reduction matrices are built once per
    ``cache``; without one, a fresh cache serves this call and its
    recursion and is dropped with it."""
    cache = cache if cache is not None else ReductionCache()
    if isinstance(obj, numbers.Number):
        return obj
    if isinstance(obj, Form):
        return _assemble_form(obj, cache)
    if isinstance(obj, BlockForm):
        return _assemble_block_form(obj, cache)
    raise FormError(f"cannot assemble {type(obj).__name__}")


def _assemble_form(form, cache):
    for kind in KINDS:
        out = _reduced_assemble(form, kind, cache)
        if out is not None:
            return out
    leftovers = [r for i in form for r in reduced_terminals(i.integrand)]
    if leftovers:
        raise UnhandledReductionError(f"no assembler handles {leftovers[0]!r}")
    return assemble(form)


def _reduced_assemble(form, kind, cache):
    """One pass of the reduced assembler for ``kind``; None when the form
    holds no terminal of that kind."""
    marked = [bool(reduced_terminals(i.integrand, kind)) for i in form]
    if not any(marked):
        return None
    contributions = []
    for integral, has_kind in zip(form.integrals, marked):
        if not has_kind:
            contributions.append(multi_assemble(Form([integral]), cache))
            continue
        node = reduced_terminals(integral.integrand, kind)[0]
        operand = node.operand
        if isinstance(operand, Argument):
            source = operand.space
            red = cache.get_or_build(source, node.target_mesh, node.kind)
            fresh = Argument(red.target_space, operand.role, operand.block)
            lowered = replace(integral.integrand, node, fresh)
            inner = multi_assemble(Form([Integral(lowered, integral.mesh)]), cache)
            if operand.role == "trial":
                contributions.append(Product([as_op(inner), Matrix(red.matrix)]))
            elif isinstance(inner, np.ndarray):
                contributions.append(red.matrix.T @ inner)
            else:
                contributions.append(Product([Transpose(Matrix(red.matrix)), as_op(inner)]))
        else:
            source = operand.function.space
            red = cache.get_or_build(source, node.target_mesh, node.kind)
            mapped = Function(red.target_space, red.matrix @ operand.function.coefficients)
            lowered = replace(integral.integrand, node, Coefficient(mapped))
            contributions.append(
                multi_assemble(Form([Integral(lowered, integral.mesh)]), cache))
    return _sum_contributions(contributions)


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
                    row.append(as_op(multi_assemble(entry, cache)))
            rows.append(row)
        return BlockMat(rows)
    blocks = []
    for i in range(bf.n_blocks):
        entry = bf.table[i]
        if entry is None:
            blocks.append(np.zeros(dims[i]))
        else:
            vec = multi_assemble(entry, cache)
            if not isinstance(vec, np.ndarray):
                raise FormError(f"linear block {i} did not assemble to a vector")
            blocks.append(vec)
    return blocks
