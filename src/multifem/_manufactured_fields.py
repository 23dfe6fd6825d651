"""Manufactured fields as numpy functions.

Generated, do not edit: ``python -m multifem.derive_manufactured``
rewrites this file from the sympy derivations in that module.  Each
function maps coordinate arrays to the components of one field in
row-major order; ``SHAPES`` gives each field's value shape.
"""
from numpy import cos, pi, sign, sin

SHAPES = {
    "darcy_stokes_u1": (2,),
    "darcy_stokes_grad_u1": (2, 2),
    "darcy_stokes_p1": (),
    "darcy_stokes_p2": (),
    "darcy_stokes_u2": (2,),
    "darcy_stokes_f1": (2,),
    "darcy_stokes_f2": (),
    "darcy_stokes_g_mass": (),
    "darcy_stokes_g_stress": (),
    "darcy_stokes_g_bjs": (),
    "darcy_stokes_multiplier": (),
    "darcy_stokes_traction_horizontal": (2,),
    "darcy_stokes_darcy_flux_horizontal": (),
    "babuska_u": (),
    "babuska_grad_u": (2,),
    "babuska_f": (),
    "babuska_g": (),
    "babuska_multiplier": (),
}


def darcy_stokes_u1(x, y):
    x0 = pi*x
    x1 = pi*y
    return (
        2*x**3*y + pi*sin(x0)*cos(x1),
        -3*x**2*y**2 - pi*sin(x1)*cos(x0),
    )


def darcy_stokes_grad_u1(x, y):
    x0 = pi**2
    x1 = pi*x
    x2 = pi*y
    x3 = 6*x**2*y + x0*cos(x1)*cos(x2)
    x4 = -x0*sin(x1)*sin(x2)
    return (
        x3,
        2*x**3 + x4,
        -6*x*y**2 - x4,
        -x3,
    )


def darcy_stokes_p1(x, y):
    return (
        sin(pi*x)*cos(pi*y),
    )


def darcy_stokes_p2(x, y):
    return (
        y*(x - 1/2) + cos(pi*x)*cos(pi*y),
    )


def darcy_stokes_u2(x, y):
    x0 = pi*x
    x1 = pi*y
    return (
        -y + pi*sin(x0)*cos(x1),
        -x + pi*sin(x1)*cos(x0) + 1/2,
    )


def darcy_stokes_f1(x, y):
    x0 = pi*x
    x1 = cos(x0)
    x2 = pi*y
    x3 = cos(x2)
    x4 = pi**3
    x5 = sin(x0)
    x6 = sin(x2)
    return (
        -6*x*y + pi*x1*x3 + x3*x4*x5,
        3*x**2 - x1*x4*x6 - pi*x5*x6 + 3*y**2,
    )


def darcy_stokes_f2(x, y):
    return (
        2*pi**2*cos(pi*x)*cos(pi*y),
    )


def darcy_stokes_g_mass(x, y):
    return (
        2*x**3*y + y,
    )


def darcy_stokes_g_stress(x, y):
    x0 = pi*x
    x1 = cos(pi*y)
    x2 = x1*cos(x0)
    return (
        6*x**2*y - x1*sin(x0) + x2 + pi**2*x2 + y*(x - 1/2),
    )


def darcy_stokes_g_bjs(x, y):
    x0 = 3*y**2
    return (
        -x**3 + x**2*x0 + x*x0 + pi*sin(pi*y)*cos(pi*x),
    )


def darcy_stokes_multiplier(x, y):
    x0 = pi*x
    x1 = cos(pi*y)
    return (
        -6*x**2*y + x1*sin(x0) - pi**2*x1*cos(x0),
    )


def darcy_stokes_traction_horizontal(x, y):
    x0 = sign(y - 1/2)
    x1 = pi*x
    x2 = cos(pi*y)
    return (
        x0*(x**3 - 3*x*y**2),
        x0*(-6*x**2*y - x2*sin(x1) - pi**2*x2*cos(x1)),
    )


def darcy_stokes_darcy_flux_horizontal(x, y):
    return (
        (x - pi*sin(pi*y)*cos(pi*x) - 1/2)*sign(y - 1/2),
    )


def babuska_u(x, y):
    return (
        cos(pi*x)*cos(pi*y),
    )


def babuska_grad_u(x, y):
    x0 = pi*x
    x1 = pi*y
    return (
        -pi*sin(x0)*cos(x1),
        -pi*sin(x1)*cos(x0),
    )


def babuska_f(x, y):
    x0 = cos(pi*x)*cos(pi*y)
    return (
        x0 + 2*pi**2*x0,
    )


def babuska_g(x, y):
    return (
        cos(pi*x)*cos(pi*y),
    )


def babuska_multiplier(x, y):
    return (
        0,
    )
