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


def _wrap_scalar(xy, expr):
    from sympy import lambdify
    f = lambdify(xy, expr, modules="numpy")

    def field(p):
        p = np.asarray(p, dtype=float)
        X, Y = p[..., 0], p[..., 1]
        return np.broadcast_to(np.asarray(f(X, Y), dtype=float), np.shape(X)).copy()

    return field


def _wrap_vector(xy, exprs):
    from sympy import lambdify
    fns = [lambdify(xy, e, modules="numpy") for e in exprs]

    def field(p):
        p = np.asarray(p, dtype=float)
        X, Y = p[..., 0], p[..., 1]
        comps = [np.broadcast_to(np.asarray(f(X, Y), dtype=float), np.shape(X))
                 for f in fns]
        return np.stack(comps, axis=-1)

    return field


def _wrap_matrix(xy, mat):
    from sympy import lambdify
    rows = [[lambdify(xy, mat[i, j], modules="numpy") for j in range(2)]
            for i in range(2)]

    def field(p):
        p = np.asarray(p, dtype=float)
        X, Y = p[..., 0], p[..., 1]
        grid = [[np.broadcast_to(np.asarray(rows[i][j](X, Y), dtype=float), np.shape(X))
                 for j in range(2)] for i in range(2)]
        return np.stack([np.stack(r, axis=-1) for r in grid], axis=-2)

    return field


class DarcyStokesData:
    """Callable fields (point or batched-point input) plus the underlying
    sympy expressions in ``exprs`` for re-derivation in tests."""

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

        self.exprs = {
            "u1": u1, "p1": p1, "p2": p2, "u2": u2, "stress": stress,
            "f1": f1, "f2": f2, "g_mass": g_mass, "g_stress": g_stress,
            "g_bjs": g_bjs, "multiplier": multiplier,
        }

        self.u1 = _wrap_vector(xy, list(u1))
        self.grad_u1 = _wrap_matrix(xy, gradu1)
        self.p1 = _wrap_scalar(xy, p1)
        self.p2 = _wrap_scalar(xy, p2)
        self.grad_p2 = _wrap_vector(xy, [sym.diff(p2, x), sym.diff(p2, y)])
        self.u2 = _wrap_vector(xy, list(u2))
        self.f1 = _wrap_vector(xy, list(f1))
        self.f2 = _wrap_scalar(xy, f2)
        self.g_mass = _wrap_scalar(xy, g_mass)
        self.g_stress = _wrap_scalar(xy, g_stress)
        self.g_bjs = _wrap_scalar(xy, g_bjs)
        self.multiplier = _wrap_scalar(xy, multiplier)
        # column sigma . e_y; tractions on y = 0/1 are -/+ this column
        self.stress_col_y = _wrap_vector(xy, [stress[0, 1], stress[1, 1]])
        self.dp2_dy = _wrap_scalar(xy, sym.diff(p2, y))

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
        "u": _wrap_scalar(xy, u),
        "grad_u": _wrap_vector(xy, [sym.diff(u, x), sym.diff(u, y)]),
        "f": _wrap_scalar(xy, f),
        "g": _wrap_scalar(xy, u),
        "multiplier": _wrap_scalar(xy, sym.S.Zero * x),
    }
