"""Quadrature rules against exact monomial integrals on reference cells.

Oracles: int_T x^a y^b = a! b! / (a+b+2)! on the reference triangle,
int_K x^a y^b z^c = a! b! c! / (a+b+c+3)! on the reference tetrahedron,
int_0^1 x^a = 1/(a+1).
"""
from math import factorial

import numpy as np
import pytest

from multifem.assemble import assemble
from multifem.forms import Analytic, Measure, TestFunction, inner
from multifem.mesh import unit_cube_mesh
from multifem.quadrature import MAX_DEGREE, rule
from multifem.space import build_space, lagrange

REF_MEASURE = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


def exact_monomial(tdim, powers):
    if tdim == 1:
        return 1.0 / (powers[0] + 1)
    if tdim == 2:
        a, b = powers
        return factorial(a) * factorial(b) / factorial(a + b + 2)
    a, b, c = powers
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def monomials_up_to(tdim, degree):
    rng = range(degree + 1)
    if tdim == 1:
        return [(a,) for a in rng]
    if tdim == 2:
        return [(a, b) for a in rng for b in rng if a + b <= degree]
    return [(a, b, c) for a in rng for b in rng for c in rng if a + b + c <= degree]


@pytest.mark.parametrize("tdim", [1, 2, 3])
def test_weights_sum_to_reference_measure(tdim):
    for degree in range(1, MAX_DEGREE[tdim] + 1):
        _, wts = rule(tdim, degree)
        assert abs(wts.sum() - REF_MEASURE[tdim]) < 1e-14


@pytest.mark.parametrize("tdim", [1, 2, 3])
def test_rules_exact_to_stated_degree(tdim):
    for degree in range(1, MAX_DEGREE[tdim] + 1):
        pts, wts = rule(tdim, degree)
        for powers in monomials_up_to(tdim, degree):
            approx = wts.copy()
            for ax, p in enumerate(powers):
                approx = approx * pts[:, ax] ** p
            assert abs(approx.sum() - exact_monomial(tdim, powers)) < 1e-14, \
                f"degree-{degree} rule misses monomial {powers}"


@pytest.mark.parametrize("tdim", [1, 2, 3])
def test_weights_positive_at_the_maximum_degree(tdim):
    # bench.err_norm integrates two squares, its value term and its
    # derivative term, at MAX_DEGREE and takes the square root of their sum
    # unguarded; not every rule is positive (the degree-3 triangle rule
    # weighs its centroid -27/48), so this names the degree
    _, wts = rule(tdim, MAX_DEGREE[tdim])
    assert (wts > 0).all()


def test_triangle_degree2_single_monomials():
    pts, wts = rule(2, 2)
    # each quadratic monomial integrates to 1/12; their sum to 1/6
    assert abs((wts * pts[:, 0] ** 2).sum() - 1.0 / 12.0) < 1e-14
    assert abs((wts * pts[:, 1] ** 2).sum() - 1.0 / 12.0) < 1e-14
    assert abs((wts * (pts[:, 0] ** 2 + pts[:, 1] ** 2)).sum() - 1.0 / 6.0) < 1e-14


def test_interval_two_point_gauss_exact_for_cubics():
    pts, wts = rule(1, 3)
    assert len(pts) == 2
    assert abs((wts * pts[:, 0] ** 3).sum() - 0.25) < 1e-15


@pytest.mark.parametrize("tdim, degree", [(1, 10), (2, 6), (3, 3)])
def test_degree_above_maximum_raises(tdim, degree):
    msg = f"degree {degree} for tdim={tdim} \\(maximum {MAX_DEGREE[tdim]}\\)"
    with pytest.raises(ValueError, match=msg):
        rule(tdim, degree)


def test_form_above_maximum_degree_raises():
    # P1 test function (1) times degree-3 data on tets: degree 4, where
    # the rules stop at 2
    V = build_space(unit_cube_mesh(1), lagrange(1))
    f = Analytic(lambda p: p[:, 0] ** 3, degree=3)
    with pytest.raises(ValueError, match="degree 4 for tdim=3"):
        assemble(inner(f, TestFunction(V)) * Measure(V.mesh))
