"""Symbolic variational forms: expression trees with reduction terminals
(trace / circle-average / restriction), integrals, and block forms.

Expression trees are immutable values; construction validates shapes and
rejects reductions of non-terminal operands and nested reductions.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh, _is_count
from .space import Function, FunctionSpace

__all__ = [
    "FormError", "Expr", "Argument", "Coefficient", "Constant", "Analytic",
    "ReductionKind", "Reduced", "Trace", "Average", "Restrict",
    "Grad", "Div", "Sym", "Inner", "Dot", "Add", "Neg", "Scale",
    "grad", "div", "sym", "inner", "dot",
    "Integral", "Form", "Measure", "BlockForm",
    "TrialFunction", "TestFunction", "TrialFunctions", "TestFunctions",
    "arguments", "reduced_terminals", "replace",
]


class FormError(ValueError):
    pass


class Expr:
    """Base expression node; subclasses set ``shape`` and ``children``."""
    shape: tuple
    children: tuple

    def __add__(self, other):
        return Add(self, other)

    def __sub__(self, other):
        return Add(self, Neg(other))

    def __neg__(self):
        return Neg(self)

    def __rmul__(self, alpha):
        if isinstance(alpha, numbers.Number):
            return Scale(float(alpha), self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Measure):
            return Form([Integral(self, other.mesh)])
        if isinstance(other, numbers.Number):
            return Scale(float(other), self)
        return NotImplemented


def _arity_signature(e):
    has_test = has_trial = False
    for a in arguments(e):
        if a.role == "test":
            has_test = True
        else:
            has_trial = True
    return has_test, has_trial


class Argument(Expr):
    """Test or trial function placeholder on a space, with a block index."""

    def __init__(self, space: FunctionSpace, role: str, block: int = 0):
        if role not in ("test", "trial"):
            raise FormError(f"argument role must be 'test' or 'trial', got {role!r}")
        self.space = space
        self.role = role
        self.block = block
        self.shape = space.value_shape
        self.children = ()

    def __repr__(self):
        return f"{self.role}[{self.block}]"


class Coefficient(Expr):
    def __init__(self, function: Function):
        self.function = function
        self.shape = function.space.value_shape
        self.children = ()

    def __repr__(self):
        return "coefficient"


class Constant(Expr):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.shape = self.value.shape
        self.children = ()

    def __repr__(self):
        return f"Constant({self.value.tolist()})"


class Analytic(Expr):
    """Field evaluated at quadrature points: ``fn`` maps points (N, gdim)
    to values (N,) + ``shape`` and is called once per chunk of cells.
    ``degree`` drives the quadrature estimate (analytic data defaults to
    degree 2)."""

    def __init__(self, fn, shape=(), degree=2):
        self.fn = fn
        self.shape = tuple(shape)
        self.degree = degree
        self.children = ()

    def __repr__(self):
        return f"Analytic(shape={self.shape})"


@dataclass(frozen=True)
class ReductionKind:
    name: str                      # 'trace' | 'average' | 'restrict'
    radius: float | None = None    # average only
    n_quad: int | None = None      # average only

    def params(self):
        return () if self.name != "average" else (self.radius, self.n_quad)


def _check_average(radius, n_quad):
    """The circle-average parameters, checked where a form names them and
    where ``reduction.average_matrix`` builds from them."""
    if radius is None or not radius > 0:
        raise FormError(f"average radius must be positive, got {radius}")
    if not _is_count(n_quad):
        raise FormError(f"average n_quad must be an integer >= 1, got {n_quad!r}")


class Reduced(Expr):
    """Reduction of a terminal (Argument or Coefficient) onto a target mesh."""

    def __init__(self, kind: ReductionKind, operand, target_mesh: Mesh):
        if not isinstance(operand, (Argument, Coefficient)):
            raise FormError(
                f"reductions apply to terminal arguments/coefficients only, got {operand!r}")
        space = operand.space if isinstance(operand, Argument) else operand.function.space
        if kind.name == "average":
            if space.mesh.gdim != 3 or target_mesh.tdim != 1:
                raise FormError("average reduces a 3d field onto a curve")
            _check_average(kind.radius, kind.n_quad)
        self.kind = kind
        self.operand = operand
        self.target_mesh = target_mesh
        self.shape = operand.shape
        self.children = (operand,)

    def __repr__(self):
        return f"{self.kind.name}({self.operand!r})"


def Trace(operand, target_mesh):
    return Reduced(ReductionKind("trace"), operand, target_mesh)


def Average(operand, target_mesh, radius, n_quad=16):
    return Reduced(ReductionKind("average", radius, n_quad), operand, target_mesh)


def Restrict(operand, target_mesh):
    return Reduced(ReductionKind("restrict"), operand, target_mesh)


class Grad(Expr):
    """Appends an axis of length gdim (tangential gradient on manifolds)."""

    def __init__(self, e):
        if not isinstance(e, (Argument, Coefficient)):
            raise FormError(f"grad applies to arguments/coefficients, got {e!r}")
        space = e.space if isinstance(e, Argument) else e.function.space
        if space.element.family == "RaviartThomas":
            raise FormError("grad of RT0 fields is not available")
        self.shape = e.shape + (space.mesh.gdim,)
        self.children = (e,)

    def __repr__(self):
        return f"grad({self.children[0]!r})"


class Div(Expr):
    def __init__(self, e):
        if not isinstance(e, (Argument, Coefficient)):
            raise FormError(f"div applies to arguments/coefficients, got {e!r}")
        if len(e.shape) != 1:
            raise FormError(f"div needs a vector operand, got shape {e.shape}")
        self.shape = ()
        self.children = (e,)

    def __repr__(self):
        return f"div({self.children[0]!r})"


class Sym(Expr):
    def __init__(self, e):
        if len(e.shape) != 2 or e.shape[0] != e.shape[1]:
            raise FormError(f"sym needs a square matrix, got shape {e.shape}")
        self.shape = e.shape
        self.children = (e,)

    def __repr__(self):
        return f"sym({self.children[0]!r})"


class Inner(Expr):
    """Full contraction of equal shapes."""

    def __init__(self, a, b):
        if a.shape != b.shape:
            raise FormError(f"inner shape mismatch: {a.shape} vs {b.shape}")
        self.shape = ()
        self.children = (a, b)

    def __repr__(self):
        return f"inner({self.children[0]!r}, {self.children[1]!r})"


class Dot(Expr):
    """Contraction of the last axis of a with the first axis of b."""

    def __init__(self, a, b):
        if not a.shape or not b.shape or a.shape[-1] != b.shape[0]:
            raise FormError(f"dot shape mismatch: {a.shape} vs {b.shape}")
        self.shape = a.shape[:-1] + b.shape[1:]
        self.children = (a, b)

    def __repr__(self):
        return f"dot({self.children[0]!r}, {self.children[1]!r})"


class Add(Expr):
    def __init__(self, a, b):
        if a.shape != b.shape:
            raise FormError(f"add shape mismatch: {a.shape} vs {b.shape}")
        if _arity_signature(a) != _arity_signature(b):
            raise FormError("cannot add expressions of different arity")
        self.shape = a.shape
        self.children = (a, b)

    def __repr__(self):
        return f"({self.children[0]!r} + {self.children[1]!r})"


class Neg(Expr):
    def __init__(self, e):
        self.shape = e.shape
        self.children = (e,)

    def __repr__(self):
        return f"-{self.children[0]!r}"


class Scale(Expr):
    def __init__(self, alpha, e):
        self.alpha = float(alpha)
        self.shape = e.shape
        self.children = (e,)

    def __repr__(self):
        return f"{self.alpha}*{self.children[0]!r}"


def grad(e):
    return Grad(e)


def div(e):
    return Div(e)


def sym(e):
    return Sym(e)


def inner(a, b):
    return Inner(a, b)


def dot(a, b):
    return Dot(a, b)


# -- tree queries -------------------------------------------------------------

def _walk(e):
    yield e
    for c in e.children:
        yield from _walk(c)


def arguments(obj):
    """Distinct Arguments in an expression, integral or form (pre-order)."""
    if isinstance(obj, Form):
        exprs = [i.integrand for i in obj.integrals]
    elif isinstance(obj, Integral):
        exprs = [obj.integrand]
    else:
        exprs = [obj]
    out = []
    for e in exprs:
        for node in _walk(e):
            if isinstance(node, Argument) and node not in out:
                out.append(node)
    return out


def reduced_terminals(e, kind_name=None):
    """Reduced nodes in pre-order; optionally filtered by kind name."""
    out = []
    for node in _walk(e):
        if isinstance(node, Reduced) and (kind_name is None or node.kind.name == kind_name):
            out.append(node)
    return out


def _same_reduced(a, b):
    return (isinstance(a, Reduced) and isinstance(b, Reduced)
            and a.kind == b.kind and a.operand is b.operand
            and a.target_mesh is b.target_mesh)


def replace(e, old: Reduced, new):
    """Replace every occurrence of the Reduced node ``old`` by the bare
    terminal ``new``; other nodes are rebuilt structurally."""
    if new.shape != old.shape:
        raise FormError(
            f"invalid substitution: shape {new.shape} does not match {old.shape}")
    return _replace(e, old, new)


def _replace(node, old, new):
    # Module-level rather than a closure: a closure that refers to itself
    # is a reference cycle, which would keep ``old`` and its spaces and
    # meshes alive until the cyclic garbage collector runs.
    if _same_reduced(node, old):
        return new
    if not node.children:
        return node
    new_children = tuple(_replace(c, old, new) for c in node.children)
    if all(a is b for a, b in zip(new_children, node.children)):
        return node
    return _rebuild(node, new_children)


def _rebuild(node, children):
    cls = type(node)
    if cls is Scale:
        return Scale(node.alpha, children[0])
    if cls is Reduced:
        return Reduced(node.kind, children[0], node.target_mesh)
    return cls(*children)


# -- integrals, forms, block forms ---------------------------------------------

class Integral:
    """Integrand over a measure mesh.  Arity <= 2; non-reduced arguments
    must live on the measure mesh, reductions must target it."""

    def __init__(self, integrand: Expr, mesh: Mesh):
        if integrand.shape != ():
            raise FormError(f"integrand must be scalar, got shape {integrand.shape}")
        self.integrand = integrand
        self.mesh = mesh
        reduced_ops = {id(r.operand) for r in reduced_terminals(integrand)}
        for node in _walk(integrand):
            if isinstance(node, Reduced) and node.target_mesh is not mesh:
                raise FormError(
                    f"reduction {node!r} targets a different mesh than the measure")
            if isinstance(node, Argument) and id(node) not in reduced_ops:
                if node.space.mesh is not mesh:
                    raise FormError(
                        f"argument {node!r} lives off the measure mesh")
        roles = [a.role for a in arguments(integrand)]
        if roles.count("test") > 1 or roles.count("trial") > 1:
            raise FormError("integrand has more than one test/trial lineage")

    @property
    def arity(self):
        return len(arguments(self.integrand))

    def test_argument(self):
        for a in arguments(self.integrand):
            if a.role == "test":
                return a
        return None

    def trial_argument(self):
        for a in arguments(self.integrand):
            if a.role == "trial":
                return a
        return None


class Form:
    """Sum of integrals of one common arity."""

    def __init__(self, integrals):
        self.integrals = list(integrals)
        if not self.integrals:
            raise FormError("a form needs at least one integral")
        sig = _form_signature(self.integrals[0])
        for i in self.integrals[1:]:
            if _form_signature(i) != sig:
                raise FormError("all integrals of a form must share the same arity")

    def __add__(self, other):
        if isinstance(other, Form):
            return Form(self.integrals + other.integrals)
        return NotImplemented

    def __neg__(self):
        return Form([Integral(Neg(i.integrand), i.mesh) for i in self.integrals])

    def __sub__(self, other):
        if isinstance(other, Form):
            return self + (-other)
        return NotImplemented

    def __iter__(self):
        return iter(self.integrals)

    @property
    def arity(self):
        return self.integrals[0].arity


def _form_signature(integral):
    t = integral.test_argument()
    u = integral.trial_argument()
    return (t is not None, u is not None)


class Measure:
    """``expr * Measure(mesh)`` builds a one-integral Form."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

    def __rmul__(self, integrand):
        return Form([Integral(integrand, self.mesh)])


def TrialFunction(space, block=0):
    return Argument(space, "trial", block)


def TestFunction(space, block=0):
    return Argument(space, "test", block)


def TrialFunctions(spaces):
    return [Argument(V, "trial", i) for i, V in enumerate(spaces)]


def TestFunctions(spaces):
    return [Argument(V, "test", i) for i, V in enumerate(spaces)]


class BlockForm:
    """Table of forms indexed by the block indices of their arguments.

    ``arity`` 2 keeps a (test, trial)-indexed table, 1 a test-indexed list.
    ``add`` merges contributions integral by integral.
    """

    def __init__(self, spaces, arity):
        if arity not in (1, 2):
            raise FormError(f"block form arity must be 1 or 2, got {arity}")
        self.spaces = list(spaces)
        self.arity = arity
        n = len(self.spaces)
        self.n_blocks = n
        if arity == 2:
            self.table = [[None] * n for _ in range(n)]
        else:
            self.table = [None] * n

    def add(self, form: Form):
        for integral in form:
            test = integral.test_argument()
            trial = integral.trial_argument()
            if test is None:
                raise FormError("block form contributions need a test function")
            if self.arity == 2:
                if trial is None:
                    raise FormError("bilinear block form got a linear contribution")
                i, j = test.block, trial.block
                cur = self.table[i][j]
                self.table[i][j] = Form([integral]) if cur is None else cur + Form([integral])
            else:
                if trial is not None:
                    raise FormError("linear block form got a bilinear contribution")
                i = test.block
                cur = self.table[i]
                self.table[i] = Form([integral]) if cur is None else cur + Form([integral])
        return self
