"""Quadrature rules on reference simplices.

Reference cells: interval [0,1], triangle {(0,0),(1,0),(0,1)}, tetrahedron
{0, e1, e2, e3}.  Weights sum to the reference measure.  A degree above
the supported maximum raises ``ValueError``.
"""
from __future__ import annotations

import numpy as np

MAX_DEGREE = {1: 9, 2: 5, 3: 2}


def _interval_rule(degree):
    npts = min(5, max(1, (degree + 2) // 2))  # k points exact to 2k-1
    x, w = np.polynomial.legendre.leggauss(npts)
    return ((x[:, None] + 1.0) / 2.0, w / 2.0)


def _perm_bary(groups):
    """Expand (weight, barycentric point) groups over unique permutations."""
    pts, wts = [], []
    for w, bary in groups:
        seen = set()
        from itertools import permutations
        for p in permutations(bary):
            if p in seen:
                continue
            seen.add(p)
            pts.append(p[1:])  # drop lambda_0: reference coords
            wts.append(w)
    return np.asarray(pts), np.asarray(wts)


def _triangle_rule(degree):
    if degree <= 1:
        return np.array([[1 / 3, 1 / 3]]), np.array([0.5])
    if degree == 2:
        pts, wts = _perm_bary([(1 / 3, (2 / 3, 1 / 6, 1 / 6))])
        return pts, wts / 2.0
    if degree == 3:
        pts, wts = _perm_bary([
            (-27 / 48, (1 / 3, 1 / 3, 1 / 3)),
            (25 / 48, (0.6, 0.2, 0.2)),
        ])
        return pts, wts / 2.0
    if degree == 4:
        pts, wts = _perm_bary([
            (0.223381589678011, (0.108103018168070, 0.445948490915965, 0.445948490915965)),
            (0.109951743655322, (0.816847572980459, 0.091576213509771, 0.091576213509771)),
        ])
        return pts, wts / 2.0
    pts, wts = _perm_bary([
        (0.225, (1 / 3, 1 / 3, 1 / 3)),
        (0.132394152788506, (0.059715871789770, 0.470142064105115, 0.470142064105115)),
        (0.125939180544827, (0.797426985353087, 0.101286507323456, 0.101286507323456)),
    ])
    return pts, wts / 2.0


def _tet_rule(degree):
    if degree <= 1:
        return np.array([[0.25, 0.25, 0.25]]), np.array([1 / 6])
    a, b = 0.585410196624969, 0.138196601125011
    pts, wts = _perm_bary([(0.25, (a, b, b, b))])
    return pts, wts / 6.0  # 4 points, each weight 1/24


def rule(tdim, degree):
    """(points, weights) exact for polynomials up to ``degree`` on the
    reference simplex of dimension ``tdim``."""
    degree = max(1, int(degree))
    if degree > MAX_DEGREE[tdim]:
        raise ValueError(f"no quadrature rule of degree {degree} for tdim={tdim} "
                         f"(maximum {MAX_DEGREE[tdim]})")
    if tdim == 1:
        return _interval_rule(degree)
    if tdim == 2:
        return _triangle_rule(degree)
    return _tet_rule(degree)
