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
    return (
        2*x**3*y + pi*sin(pi*x)*cos(pi*y),
        -3*x**2*y**2 - pi*sin(pi*y)*cos(pi*x),
    )


def darcy_stokes_grad_u1(x, y):
    return (
        6*x**2*y + pi**2*cos(pi*x)*cos(pi*y),
        2*x**3 - pi**2*sin(pi*x)*sin(pi*y),
        -6*x*y**2 + pi**2*sin(pi*x)*sin(pi*y),
        -6*x**2*y - pi**2*cos(pi*x)*cos(pi*y),
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
    return (
        -y + pi*sin(pi*x)*cos(pi*y),
        -x + pi*sin(pi*y)*cos(pi*x) + 1/2,
    )


def darcy_stokes_f1(x, y):
    return (
        -6*x*y + pi**3*sin(pi*x)*cos(pi*y) + pi*cos(pi*x)*cos(pi*y),
        3*x**2 + 3*y**2 - pi*sin(pi*x)*sin(pi*y) - pi**3*sin(pi*y)*cos(pi*x),
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
    return (
        6*x**2*y + y*(x - 1/2) - sin(pi*x)*cos(pi*y) + cos(pi*x)*cos(pi*y) + pi**2*cos(pi*x)*cos(pi*y),
    )


def darcy_stokes_g_bjs(x, y):
    return (
        -x**3 + 3*x**2*y**2 + 3*x*y**2 + pi*sin(pi*y)*cos(pi*x),
    )


def darcy_stokes_multiplier(x, y):
    return (
        -6*x**2*y + sin(pi*x)*cos(pi*y) - pi**2*cos(pi*x)*cos(pi*y),
    )


def darcy_stokes_traction_horizontal(x, y):
    return (
        (x**3 - 3*x*y**2)*sign(y - 1/2),
        (-6*x**2*y - sin(pi*x)*cos(pi*y) - pi**2*cos(pi*x)*cos(pi*y))*sign(y - 1/2),
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
    return (
        -pi*sin(pi*x)*cos(pi*y),
        -pi*sin(pi*y)*cos(pi*x),
    )


def babuska_f(x, y):
    return (
        cos(pi*x)*cos(pi*y) + 2*pi**2*cos(pi*x)*cos(pi*y),
    )


def babuska_g(x, y):
    return (
        cos(pi*x)*cos(pi*y),
    )


def babuska_multiplier(x, y):
    return (
        0,
    )
