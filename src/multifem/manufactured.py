"""Manufactured solutions and the problem data they imply, as fields on points.

All volume, boundary and interface data for the benchmarks (forcing
terms, tractions, fluxes, and the residuals of the interface conditions)
are derived from the chosen smooth fields with sympy in
``multifem.derive_manufactured``; nothing is hand-entered.  That module
prints the fields into the committed numpy module
``multifem._manufactured_fields``, which is all this module reads: no run
path imports sympy.  A finite-difference cross-check of the fields, and a
check that the committed module is the derivation's output, live in the
test suite.

Conventions: the interface normal n = (1, 0) points from the Stokes domain
into the Darcy domain, tau = (0, 1); sigma = sym(grad u1) - p1 I.
"""
from __future__ import annotations

import math

import numpy as np

from . import _manufactured_fields as generated

__all__ = ["DarcyStokesData", "darcy_stokes_data", "babuska_data"]


def _on_points(fn):
    """The generated function ``fn`` as a field of points (..., gdim) ->
    values (...) + shape; a constant component is broadcast."""
    shape = generated.SHAPES[fn.__name__]

    def field(p):
        p = np.asarray(p, dtype=float)
        batch = p.shape[:-1]
        out = np.empty(batch + shape)
        comps = out.reshape(batch + (math.prod(shape),))
        for k, value in enumerate(fn(*np.moveaxis(p, -1, 0))):
            comps[..., k] = value
        return out

    return field


class DarcyStokesData:
    """Callable fields of the manufactured Darcy-Stokes solution and its
    data (point or batched-point input)."""

    def __init__(self):
        self.u1 = _on_points(generated.darcy_stokes_u1)
        self.grad_u1 = _on_points(generated.darcy_stokes_grad_u1)
        self.p1 = _on_points(generated.darcy_stokes_p1)
        self.p2 = _on_points(generated.darcy_stokes_p2)
        self.u2 = _on_points(generated.darcy_stokes_u2)
        self.f1 = _on_points(generated.darcy_stokes_f1)
        self.f2 = _on_points(generated.darcy_stokes_f2)
        self.g_mass = _on_points(generated.darcy_stokes_g_mass)
        self.g_stress = _on_points(generated.darcy_stokes_g_stress)
        self.g_bjs = _on_points(generated.darcy_stokes_g_bjs)
        self.multiplier = _on_points(generated.darcy_stokes_multiplier)
        self.stress_col_y = _on_points(generated.darcy_stokes_stress_col_y)
        self.dp2_dy = _on_points(generated.darcy_stokes_dp2_dy)

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


def darcy_stokes_data() -> DarcyStokesData:
    return DarcyStokesData()


def babuska_data():
    """u* = cos(pi x) cos(pi y) with f = (2 pi^2 + 1) u*, boundary value
    g = u*, multiplier -du*/dn (identically zero for this solution); the
    gradient field is included for H1 errors."""
    return {
        "u": _on_points(generated.babuska_u),
        "grad_u": _on_points(generated.babuska_grad_u),
        "f": _on_points(generated.babuska_f),
        "g": _on_points(generated.babuska_g),
        "multiplier": _on_points(generated.babuska_multiplier),
    }
