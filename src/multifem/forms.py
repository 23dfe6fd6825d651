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
    """A finite element function as a terminal: sum_k c_k phi_k over the
    basis of its ``space``."""

    def __init__(self, function: Function):
        self.function = function
        self.space = function.space
        self.shape = self.space.value_shape
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

    def __post_init__(self):
        if self.name not in ("trace", "average", "restrict"):
            raise FormError(f"unknown reduction {self.name!r}")

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
        if kind.name == "average":
            if operand.space.mesh.gdim != 3 or target_mesh.tdim != 1:
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
        if e.space.element.family == "RaviartThomas":
            raise FormError("grad of RT0 fields is not available")
        self.shape = e.shape + (e.space.mesh.gdim,)
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


def arguments(e):
    """Distinct Arguments in an expression (pre-order)."""
    out = []
    for node in _walk(e):
        if isinstance(node, Argument) and node not in out:
            out.append(node)
    return out


def reduced_terminals(e):
    """Reduced nodes in pre-order."""
    return [node for node in _walk(e) if isinstance(node, Reduced)]


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
    must live on the measure mesh, reductions must target it.

    ``test`` and ``trial`` are the integrand's argument of each role (or
    None), ``reduced`` its reduced terminals in pre-order."""

    def __init__(self, integrand: Expr, mesh: Mesh):
        if integrand.shape != ():
            raise FormError(f"integrand must be scalar, got shape {integrand.shape}")
        self.integrand = integrand
        self.mesh = mesh
        nodes = list(_walk(integrand))
        self.reduced = tuple(node for node in nodes if isinstance(node, Reduced))
        reduced_ops = {id(r.operand) for r in self.reduced}
        for node in self.reduced:
            if node.target_mesh is not mesh:
                raise FormError(
                    f"reduction {node!r} targets a different mesh than the measure")
        roles = {"test": [], "trial": []}
        for node in nodes:
            if isinstance(node, Argument) and node not in roles[node.role]:
                if id(node) not in reduced_ops and node.space.mesh is not mesh:
                    raise FormError(f"argument {node!r} lives off the measure mesh")
                roles[node.role].append(node)
        if len(roles["test"]) > 1 or len(roles["trial"]) > 1:
            raise FormError("integrand has more than one test/trial lineage")
        self.test = roles["test"][0] if roles["test"] else None
        self.trial = roles["trial"][0] if roles["trial"] else None

    @property
    def arity(self):
        return (self.test is not None) + (self.trial is not None)


class Form:
    """Sum of integrals of one common arity: each has an argument of the
    same roles."""

    def __init__(self, integrals):
        self.integrals = list(integrals)
        if not self.integrals:
            raise FormError("a form needs at least one integral")
        if len({(i.test is None, i.trial is None) for i in self.integrals}) > 1:
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


class Measure:
    """``expr * Measure(mesh)`` builds a one-integral Form."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh


def TrialFunction(space, block=0):
    return Argument(space, "trial", block)


def TestFunction(space, block=0):
    return Argument(space, "test", block)


def TrialFunctions(spaces):
    return [Argument(V, "trial", i) for i, V in enumerate(spaces)]


def TestFunctions(spaces):
    return [Argument(V, "test", i) for i, V in enumerate(spaces)]


class BlockForm:
    """Forms keyed by the block indices of their arguments: ``(test block,)``
    for linear forms, ``(test block, trial block)`` for bilinear ones.  The
    first form added fixes the arity; ``add`` merges contributions integral
    by integral."""

    def __init__(self, spaces):
        self.spaces = list(spaces)
        self.table = {}

    @property
    def arity(self):
        """1 or 2, or None before the first ``add``."""
        return len(next(iter(self.table))) if self.table else None

    def add(self, form: Form):
        keys = [self._key(integral) for integral in form]
        for key, integral in zip(keys, form):
            cur = self.table.get(key)
            self.table[key] = Form([integral]) if cur is None else cur + Form([integral])
        return self

    def _key(self, integral):
        if integral.test is None:
            raise FormError("block form contributions need a test function")
        if self.arity not in (None, integral.arity):
            raise FormError(f"block form of arity {self.arity} got a contribution "
                            f"of arity {integral.arity}")
        args = [a for a in (integral.test, integral.trial) if a is not None]
        for a in args:
            if not 0 <= a.block < len(self.spaces):
                raise FormError(f"argument {a!r} has block index {a.block} outside "
                                f"the block form's {len(self.spaces)} spaces")
            if a.space is not self.spaces[a.block]:
                raise FormError(f"argument {a!r} does not live on the block form's "
                                f"space {a.block}")
        return tuple(a.block for a in args)
