"""Manufactured solutions and symbolically derived problem data.

All volume, boundary and interface data for the Darcy-Stokes benchmarks
(forcing terms, tractions, fluxes, and the residuals of the interface
conditions) are derived from the chosen smooth fields with sympy and
lambdified; nothing is hand-entered.  A finite-difference cross-check of
the derived fields lives in the test suite.

Conventions: the interface normal n = (1, 0) points from the Stokes domain
into the Darcy domain, tau = (0, 1); sigma = sym(grad u1) - p1 I.

sympy takes ~0.15 s to import, so it is imported by the cached builders
of the data, not at module load: cases without manufactured data (the
perfusion study, the restriction demo) never load it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["DarcyStokesData", "darcy_stokes_data", "babuska_data"]


def _field(xy, expr, shape=()):
    """A sympy expression, or for a nonempty ``shape`` its components in
    row-major order, as a field of points (..., 2) -> values (...) + shape."""
    from sympy import lambdify
    fns = [lambdify(xy, e, modules="numpy") for e in (list(expr) if shape else [expr])]

    def field(p):
        p = np.asarray(p, dtype=float)
        X, Y = p[..., 0], p[..., 1]
        comps = [np.broadcast_to(np.asarray(f(X, Y), dtype=float), np.shape(X))
                 for f in fns]
        return np.stack(comps, axis=-1).reshape(np.shape(X) + shape)

    return field


class DarcyStokesData:
    """Callable fields of the manufactured Darcy-Stokes solution and its
    data (point or batched-point input)."""

    def __init__(self):
        import sympy as sym
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
        g_mass = (u1 - u2).dot(n)
        g_stress = n.dot(sn) + p2
        g_bjs = -tau.dot(sn) - u1.dot(tau)
        multiplier = -n.dot(sn)                 # normal stress the multiplier carries

        self.u1 = _field(xy, u1, (2,))
        self.grad_u1 = _field(xy, gradu1, (2, 2))
        self.p1 = _field(xy, p1)
        self.p2 = _field(xy, p2)
        self.u2 = _field(xy, u2, (2,))
        self.f1 = _field(xy, f1, (2,))
        self.f2 = _field(xy, f2)
        self.g_mass = _field(xy, g_mass)
        self.g_stress = _field(xy, g_stress)
        self.g_bjs = _field(xy, g_bjs)
        self.multiplier = _field(xy, multiplier)
        # column sigma . e_y; tractions on y = 0/1 are -/+ this column
        self.stress_col_y = _field(xy, [stress[0, 1], stress[1, 1]], (2,))
        self.dp2_dy = _field(xy, sym.diff(p2, y))

    def traction_horizontal(self, p):
        """sigma . n on the y=0 / y=1 boundary pieces (outward normals)."""
        p = np.asarray(p, dtype=float)
        sign = np.where(p[..., 1] > 0.5, 1.0, -1.0)
        return sign[..., None] * self.stress_col_y(p)

    def darcy_flux_horizontal(self, p):
        """grad p2 . n on the y=0 / y=1 boundary pieces (outward normals)."""
        p = np.asarray(p, dtype=float)
        sign = np.where(p[..., 1] > 0.5, 1.0, -1.0)
        return sign * self.dp2_dy(p)


@lru_cache(maxsize=1)
def darcy_stokes_data() -> DarcyStokesData:
    return DarcyStokesData()


@lru_cache(maxsize=1)
def babuska_data():
    """u* = cos(pi x) cos(pi y) with f = (2 pi^2 + 1) u*, boundary value
    g = u*, multiplier -du*/dn (identically zero for this solution); the
    gradient field is included for H1 errors."""
    import sympy as sym
    x, y = xy = sym.symbols("x y", real=True)
    pi = sym.pi
    u = sym.cos(pi * x) * sym.cos(pi * y)
    f = -sym.diff(u, x, 2) - sym.diff(u, y, 2) + u
    return {
        "u": _field(xy, u),
        "grad_u": _field(xy, [sym.diff(u, x), sym.diff(u, y)], (2,)),
        "f": _field(xy, f),
        "g": _field(xy, u),
        "multiplier": _field(xy, sym.S.Zero * x),
    }
