"""Symbolic derivation of the manufactured fields, and the printer of the
numpy module the run path reads.

This module is the single source of the manufactured data: every field of
``multifem.manufactured`` is derived here with sympy from a few chosen
smooth solutions, and nothing is hand-entered.  It is not imported at run
time; after changing a derivation, regenerate the committed module with

    python -m multifem.derive_manufactured

which rewrites ``multifem/_manufactured_fields.py``.  The test suite
regenerates the text in memory and compares it with the committed file;
the committed text is the output of sympy 1.14.0 (the version the
``test`` extra pins), since another version may print or eliminate
subexpressions differently.

A field's components go through one joint ``sympy.cse``, and the common
subexpressions are printed as local assignments ahead of the components.
Everything is printed by ``NumPyPrinter`` with the settings
``lambdify(..., modules="numpy")`` uses, into a namespace of the same
numpy names, so a generated function computes each component bitwise as
``lambdify(coords, components, modules="numpy", cse=True)`` does.  A data
set lists its coordinate symbols, which become the arguments of its
functions: (x, y) for the planar cases, and a field in (x, y, z) goes
through unchanged.
"""
from __future__ import annotations

from pathlib import Path

import sympy as sym
from sympy.printing.numpy import NumPyPrinter

__all__ = ["darcy_stokes_fields", "babuska_fields", "DATA_SETS", "GENERATED",
           "components", "render"]

GENERATED = Path(__file__).with_name("_manufactured_fields.py")

# lambdify's printer settings for modules="numpy" with no user functions
LAMBDIFY_NUMPY_SETTINGS = {"fully_qualified_modules": False, "inline": True,
                           "allow_unknown_functions": True, "user_functions": {}}


def darcy_stokes_fields():
    """Coordinates and name -> field of the Darcy-Stokes solution and its
    data; the interface normal n = (1, 0) points from the Stokes domain
    into the Darcy domain, tau = (0, 1), sigma = sym(grad u1) - p1 I."""
    x, y = xy = sym.symbols("x y", real=True)
    pi = sym.pi
    # stream function with a polynomial part so no interface residual
    # degenerates to zero on x = 1/2
    psi = sym.sin(pi * x) * sym.sin(pi * y) + x ** 3 * y ** 2
    u1 = sym.Matrix([sym.diff(psi, y), -sym.diff(psi, x)])   # divergence free
    p1 = sym.sin(pi * x) * sym.cos(pi * y)
    p2 = sym.cos(pi * x) * sym.cos(pi * y) + (x - sym.Rational(1, 2)) * y
    u2 = -sym.Matrix([sym.diff(p2, x), sym.diff(p2, y)])

    gradu1 = u1.jacobian([x, y])
    stress = (gradu1 + gradu1.T) / 2 - p1 * sym.eye(2)
    f1 = sym.Matrix([-sym.diff(stress[0, 0], x) - sym.diff(stress[0, 1], y),
                     -sym.diff(stress[1, 0], x) - sym.diff(stress[1, 1], y)])
    f2 = sym.diff(u2[0], x) + sym.diff(u2[1], y)

    n = sym.Matrix([1, 0])
    tau = sym.Matrix([0, 1])
    sn = stress * n
    # outward normal (0, -1) on y = 0 and (0, 1) on y = 1
    side = sym.sign(y - sym.Rational(1, 2))
    return xy, {
        "u1": u1,
        "grad_u1": gradu1,
        "p1": p1,
        "p2": p2,
        "u2": u2,
        "f1": f1,
        "f2": f2,
        "g_mass": (u1 - u2).dot(n),
        "g_stress": n.dot(sn) + p2,
        "g_bjs": -tau.dot(sn) - u1.dot(tau),
        "multiplier": -n.dot(sn),               # normal stress the multiplier carries
        # sigma . n and grad p2 . n on the y = 0 / y = 1 boundary pieces
        "traction_horizontal": [side * stress[0, 1], side * stress[1, 1]],
        "darcy_flux_horizontal": side * sym.diff(p2, y),
    }


def babuska_fields():
    """Coordinates and name -> field of u* = cos(pi x) cos(pi y) with
    f = (2 pi^2 + 1) u*, boundary value g = u*, multiplier -du*/dn
    (identically zero for this solution) and the gradient for H1 errors."""
    x, y = xy = sym.symbols("x y", real=True)
    pi = sym.pi
    u = sym.cos(pi * x) * sym.cos(pi * y)
    return xy, {
        "u": u,
        "grad_u": [sym.diff(u, x), sym.diff(u, y)],
        "f": -sym.diff(u, x, 2) - sym.diff(u, y, 2) + u,
        "g": u,
        "multiplier": sym.S.Zero * x,
    }


# prefix of the generated function names -> derivation
DATA_SETS = {"darcy_stokes": darcy_stokes_fields, "babuska": babuska_fields}


def components(field):
    """Value shape and row-major components of an expression, a list of
    expressions (a vector) or a matrix (a column matrix is a vector)."""
    if isinstance(field, sym.MatrixBase):
        return ((field.rows,) if field.cols == 1 else field.shape), list(field)
    if isinstance(field, list):
        return (len(field),), field
    return (), [field]


def render():
    """The text of the generated module."""
    printer = NumPyPrinter(LAMBDIFY_NUMPY_SETTINGS)
    shapes, functions = [], []
    for prefix, derive in DATA_SETS.items():
        coords, fields = derive()
        args = ", ".join(str(c) for c in coords)
        for name, field in fields.items():
            shape, comps = components(field)
            shapes.append(f'    "{prefix}_{name}": {shape!r},')
            subexprs, comps = sym.cse(comps, list=False)
            local = "".join(f"    {v} = {printer.doprint(e)}\n" for v, e in subexprs)
            body = "".join(f"        {printer.doprint(c)},\n" for c in comps)
            functions.append(f"def {prefix}_{name}({args}):\n{local}    return (\n{body}    )\n")
    imports = "".join(f"from {module} import {', '.join(sorted(names))}\n"
                      for module, names in sorted(printer.module_imports.items()))
    return (
        '"""Manufactured fields as numpy functions.\n\n'
        "Generated, do not edit: ``python -m multifem.derive_manufactured``\n"
        "rewrites this file from the sympy derivations in that module.  Each\n"
        "function maps coordinate arrays to the components of one field in\n"
        "row-major order; ``SHAPES`` gives each field's value shape.\n"
        '"""\n'
        f"{imports}\n"
        "SHAPES = {\n" + "\n".join(shapes) + "\n}\n\n\n"
        + "\n\n".join(functions)
    )


def main():
    GENERATED.write_text(render())
    print(f"wrote {GENERATED}")


if __name__ == "__main__":
    main()
