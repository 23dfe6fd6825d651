"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expensive refinement studies are shared through module-scoped fixtures.
Dense lowering oracles are built from independently exported factor
matrices (base assembler + reduction builders), never through the
interpreter's own composition.
"""
import time

import numpy as np
import pytest

from multifem.assemble import assemble
from multifem.bench import (
    CaseConfig, assemble_babuska, assemble_darcy_stokes, assemble_perfusion,
    run_case, run_perfusion,
)
from multifem.forms import (
    Constant, Measure, ReductionKind, TestFunction, TrialFunction, dot, grad,
    inner,
)
from multifem.krylov import fd_dual_pencil, h1_pencil, hs_norm
from multifem.mesh import (
    cell_submesh, facet_submesh, near, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)
from multifem.opalg import Zero, collapse
from multifem.reduction import (
    ReductionCache, average_matrix, circle_points, deduce_reduced_space,
    trace_matrix,
)
from multifem.space import build_space, interpolate, lagrange, vector_lagrange

TRACE = ReductionKind("trace")
RESTRICT = ReductionKind("restrict")


def check(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def rel_entry_gap(lowered, oracle):
    scale = max(np.abs(oracle).max(), 1e-300)
    return np.abs(lowered - oracle).max() / scale


# -- shared studies ------------------------------------------------------------

@pytest.fixture(scope="module")
def babuska_study():
    return run_case(CaseConfig(case="babuska", n=8, levels=4, seed=0))


@pytest.fixture(scope="module")
def mixed_study():
    # MinRes starts from zero (seed=None), so the 1e-10 reduction is relative
    # to ||b||_B, the same quantity at every level.  A seeded start is uniform
    # per dof; on the RT0 edge fluxes that is a field of size ~1/h, and
    # ||r0||_B / ||b||_B grows as 22.5, 67.3, 206, 597 at n = 8, 16, 32, 64.
    # The fixed relative tolerance then asks less of the solution at each
    # level: seed 0 gives counts 35, 35, 33, 31, zero gives 36, 37, 36, 35.
    return run_case(CaseConfig(case="ds-mixed", n=8, levels=4, seed=None))


@pytest.fixture(scope="module")
def primal_study():
    return run_case(CaseConfig(case="ds-primal", n=8, levels=4, seed=0))


@pytest.fixture(scope="module")
def perfusion_study():
    # solves at n = 4, 8, 16, 32 give the differences indexed by n = 4, 8, 16
    return run_perfusion(CaseConfig(case="perfusion", n=4, levels=4, seed=0))


# -- criterion 1: lowering soundness ---------------------------------------------

def _check_blocks(A, oracles, tol=1e-12):
    worst = 0.0
    for (i, j), oracle in oracles.items():
        blk = A[i, j]
        lowered = collapse(blk).toarray()
        if oracle is None:
            assert isinstance(blk, Zero)
            assert np.abs(lowered).max() == 0.0
            continue
        worst = max(worst, rel_entry_gap(lowered, oracle))
    return worst


def _babuska_oracles(sys):
    V, Q = sys["W"]
    mesh, gamma = sys["omega"], sys["gamma"]
    u, v = TrialFunction(V), TestFunction(V)
    p, q = TrialFunction(Q, 1), TestFunction(Q, 1)
    dx, dl = Measure(mesh), Measure(gamma)
    Vbar = deduce_reduced_space(V, gamma, TRACE)
    T = trace_matrix(V, Vbar).toarray()
    ubar, vbar = TrialFunction(Vbar), TestFunction(Vbar)
    A00 = assemble(inner(grad(u), grad(v)) * dx + inner(u, v) * dx).toarray()
    M10 = assemble(inner(ubar, q) * dl).toarray()
    M01 = assemble(inner(p, vbar) * dl).toarray()
    return {(0, 0): A00, (1, 0): M10 @ T, (0, 1): T.T @ M01, (1, 1): None}


def _mixed_oracles(sys):
    V1, Q1, V2, Q2, Q = sys["W"]
    m1, m2, gamma = sys["meshes"]
    dx1, dx2, dl = Measure(m1), Measure(m2), Measure(gamma)
    n_if, tau = Constant((1.0, 0.0)), Constant((0.0, 1.0))
    from multifem.forms import div, sym
    u1, v1 = TrialFunction(V1), TestFunction(V1)
    p1, q1 = TrialFunction(Q1), TestFunction(Q1)
    u2, v2 = TrialFunction(V2), TestFunction(V2)
    p2, q2 = TrialFunction(Q2), TestFunction(Q2)
    p, q = TrialFunction(Q), TestFunction(Q)

    V1b = deduce_reduced_space(V1, gamma, TRACE)
    V2b = deduce_reduced_space(V2, gamma, TRACE)
    T1 = trace_matrix(V1, V1b).toarray()
    T2 = trace_matrix(V2, V2b).toarray()
    u1b, v1b = TrialFunction(V1b), TestFunction(V1b)
    u2b, v2b = TrialFunction(V2b), TestFunction(V2b)

    A = assemble(inner(sym(grad(u1)), sym(grad(v1))) * dx1).toarray()
    Kt = assemble(inner(dot(u1b, tau), dot(v1b, tau)) * dl).toarray()
    B1 = assemble(-1.0 * inner(p1, div(v1)) * dx1).toarray()
    B1t = assemble(-1.0 * inner(q1, div(u1)) * dx1).toarray()
    M2 = assemble(inner(u2, v2) * dx2).toarray()
    B2 = assemble(-1.0 * inner(p2, div(v2)) * dx2).toarray()
    B2t = assemble(-1.0 * inner(q2, div(u2)) * dx2).toarray()
    N1 = assemble(inner(p, dot(v1b, n_if)) * dl).toarray()     # rows V1b, cols Q
    N2 = assemble(inner(p, dot(v2b, n_if)) * dl).toarray()
    N1t = assemble(inner(q, dot(u1b, n_if)) * dl).toarray()    # rows Q, cols V1b
    N2t = assemble(inner(q, dot(u2b, n_if)) * dl).toarray()

    oracles = {
        (0, 0): A + T1.T @ Kt @ T1,
        (0, 1): B1, (1, 0): B1t,
        (2, 2): M2, (2, 3): B2, (3, 2): B2t,
        (0, 4): T1.T @ N1,
        (2, 4): -T2.T @ N2,
        (4, 0): N1t @ T1,
        (4, 2): -N2t @ T2,
    }
    for i in range(5):
        for j in range(5):
            oracles.setdefault((i, j), None)
    return oracles


def _perfusion_oracles(sys, radius=0.2, n_quad=16):
    V, Q = sys["W"]
    omega, gamma = sys["omega"], sys["gamma"]
    dx, dl = Measure(omega), Measure(gamma)
    u, v = TrialFunction(V), TestFunction(V)
    p, q = TrialFunction(Q, 1), TestFunction(Q, 1)
    Vb = deduce_reduced_space(V, gamma, TRACE)
    Va = deduce_reduced_space(V, gamma, ReductionKind("average", radius, n_quad))
    T = trace_matrix(V, Vb).toarray()
    Pi = average_matrix(V, Va, radius, n_quad).toarray()
    ub, vb = TrialFunction(Vb), TestFunction(Vb)
    ua = TrialFunction(Va)
    K3 = assemble(inner(grad(u), grad(v)) * dx).toarray()
    Mat = assemble(inner(ua, vb) * dl).toarray()        # average trial, trace test
    Mpq = assemble(inner(p, q) * dl).toarray()
    Mav = assemble(inner(ua, q) * dl).toarray()         # rows Q, cols Va
    Mpv = assemble(inner(p, vb) * dl).toarray()         # rows Vb, cols Q
    Kg = assemble(inner(grad(p), grad(q)) * dl).toarray()
    return {
        (0, 0): K3 + T.T @ Mat @ Pi,
        (0, 1): -T.T @ Mpv,
        (1, 0): -Mav @ Pi,
        (1, 1): Kg + Mpq,
    }


def test_criterion_1_lowering_soundness():
    worst = 0.0
    sys_b = assemble_babuska(8)
    worst = max(worst, _check_blocks(sys_b["A"], _babuska_oracles(sys_b)))
    sys_m = assemble_darcy_stokes(4, "mixed", apply_bcs=False)
    worst = max(worst, _check_blocks(sys_m["A"], _mixed_oracles(sys_m)))
    sys_p = assemble_perfusion(4, apply_bcs=False)
    worst = max(worst, _check_blocks(sys_p["A"], _perfusion_oracles(sys_p)))
    check(1, "lowering soundness", worst <= 1e-12,
          f"max relative entry error {worst:.3e}")


# -- criterion 2: reduction exactness ---------------------------------------------

def test_criterion_2_reduction_exactness():
    tol = 1e-10
    worst = 0.0

    def gap(red, src, tgt, f):
        lifted = red @ interpolate(src, f).coefficients
        return np.abs(lifted - interpolate(tgt, f).coefficients).max()

    # matching trace (interface mesh from the same parent)
    mesh = unit_square_mesh(4, 4)
    bdry = facet_submesh(mesh, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0)
                         | near(p[:, 1] * (1 - p[:, 1]), 0))
    for deg, f in ((1, lambda p: 1 + 2 * p[:, 0] - p[:, 1]),
                   (2, lambda p: p[:, 0] ** 2 - p[:, 0] * p[:, 1] + p[:, 1])):
        V = build_space(mesh, lagrange(deg))
        Vb = deduce_reduced_space(V, bdry, TRACE)
        worst = max(worst, gap(trace_matrix(V, Vb), V, Vb, f))

    # nonmatching interface: bulk n x n against trace mesh from n x 2n
    n = 4
    m1 = unit_square_mesh(n, n, offset=(0, 0), extent=(0.5, 1))
    m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
    gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
    for elem, f in ((lagrange(2), lambda p: 1 - p[:, 1] + p[:, 1] ** 2),
                    (vector_lagrange(2),
                     lambda p: np.stack([p[:, 1] ** 2, 1 + p[:, 1]], axis=1))):
        V = build_space(m1, elem)
        Vb = deduce_reduced_space(V, gamma, TRACE)
        worst = max(worst, gap(trace_matrix(V, Vb), V, Vb, f))

    # circle average of P1 fields
    cube = unit_cube_mesh(3)
    line = polyline_mesh([(0.55, 0.55, 0.15), (0.55, 0.55, 0.85)], 3)
    V = build_space(cube, lagrange(1))
    kind = ReductionKind("average", 0.2, 16)
    Q = deduce_reduced_space(V, line, kind)
    worst = max(worst, gap(average_matrix(V, Q, 0.2, 16), V, Q,
                           lambda p: 2.0 + p[:, 2]))

    # restriction onto a derived submesh
    mesh = unit_square_mesh(4, 4)
    sub = cell_submesh(mesh, lambda c: c[:, 0] <= 0.5)
    for deg, f in ((1, lambda p: p[:, 0] - 3 * p[:, 1]),
                   (2, lambda p: p[:, 0] * p[:, 1] + p[:, 0] ** 2)):
        V = build_space(mesh, lagrange(deg))
        Vb = deduce_reduced_space(V, sub, RESTRICT)
        worst = max(worst, gap(trace_matrix(V, Vb), V, Vb, f))

    check(2, "reduction exactness", worst <= tol, f"sup-norm gap {worst:.3e}")


# -- criterion 3: circle average ----------------------------------------------------

def test_criterion_3_circle_average():
    f = lambda p: (p[..., 0] - 0.5) ** 2 + (p[..., 1] - 0.5) ** 2
    center = np.array([[0.5, 0.5, 0.3]])
    tangent = np.array([[0.0, 0.0, 1.0]])
    R = 0.2
    oracle = f(circle_points(center, tangent, R, 10_000)).mean()
    sixteen = f(circle_points(center, tangent, R, 16)).mean()
    ok_quad = abs(sixteen - 0.04) <= 1e-6 and abs(sixteen - oracle) <= 1e-6

    const = (lambda p: 0 * p[..., 0] + 3.25)
    ok_const = abs(const(circle_points(center, tangent, R, 16)).mean() - 3.25) <= 1e-12
    odd = lambda p: p[..., 0] - 0.5
    ok_odd = abs(odd(circle_points(center, tangent, R, 16)).mean()) <= 1e-12
    check(3, "circle average", ok_quad and ok_const and ok_odd,
          f"16pt={sixteen:.12g} oracle={oracle:.12g}")


# -- criterion 4: fractional norm identities ---------------------------------------

def test_criterion_4_hs_norm_identities():
    mesh = unit_square_mesh(16, 16)
    gamma = facet_submesh(mesh, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0)
                          | near(p[:, 1] * (1 - p[:, 1]), 0))
    pencils = [h1_pencil(build_space(gamma, lagrange(1)))]
    m2 = unit_square_mesh(4, 8, offset=(0.5, 0), extent=(0.5, 1))
    iface = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
    from multifem.space import dg0
    pencils.append(fd_dual_pencil(build_space(iface, dg0())))

    def matrix(op):
        return np.column_stack([op.matvec(e) for e in np.eye(op.cols)])

    worst_f, worst_inv = 0.0, 0.0
    rng = np.random.default_rng(0)
    for M, S in pencils:
        Md, Sd = M.toarray(), S.toarray()
        worst_f = max(worst_f,
                      np.linalg.norm(matrix(hs_norm(M, S, 1.0).forward) - Sd)
                      / np.linalg.norm(Sd),
                      np.linalg.norm(matrix(hs_norm(M, S, 0.0).forward) - Md)
                      / np.linalg.norm(Md))
        for s in (0.0, 1.0, 0.5, -0.5):
            op = hs_norm(M, S, s)
            for _ in range(5):
                x = rng.standard_normal(M.shape[0])
                y = op.inverse.matvec(op.forward.matvec(x))
                worst_inv = max(worst_inv,
                                np.linalg.norm(y - x) / np.linalg.norm(x))
    check(4, "fractional norm identities",
          worst_f <= 1e-10 and worst_inv <= 1e-9,
          f"reconstruction {worst_f:.3e}, roundtrip {worst_inv:.3e}")


# -- criteria 5-9: study-based ------------------------------------------------------

def test_criterion_5_babuska_mesh_independence(babuska_study):
    counts = babuska_study.iterations()
    ok = babuska_study.ok and max(counts) <= 60 and max(counts) - min(counts) <= 15
    check(5, "babuska mesh independence", ok, f"counts {counts}")


def test_criterion_6_mixed_iterations(mixed_study):
    counts = mixed_study.iterations()
    drift = abs(counts[0] - counts[-1])
    in_band = all(35 <= c <= 75 for c in counts)
    seed = mixed_study.meta["seed"]
    start = "zero start" if seed is None else f"seeded start {seed}"
    check(6, "darcy-stokes mixed iterations",
          mixed_study.ok and in_band and drift <= 10,
          f"counts {counts} (band [35, 75], drift {drift}, {start})")


def test_criterion_7_primal_iterations(primal_study):
    counts = primal_study.iterations()
    spread = max(counts) - min(counts)
    ok = (primal_study.ok and all(30 <= c <= 75 for c in counts) and spread <= 10)
    check(7, "darcy-stokes primal iterations", ok,
          f"counts {counts} (darcy pressure block: stiffness)")


def test_criterion_8_convergence_rates(babuska_study, mixed_study, primal_study):
    rates_b = babuska_study.rates()[1:]
    ok = all(r["u_h1"] >= 0.9 and r["u_l2"] >= 1.8 for r in rates_b)
    rates_m = mixed_study.rates()[1:]
    ok = ok and all(r["u1_h1"] >= 1.7 and r["u2_hdiv"] >= 0.8 and r["p2_l2"] >= 0.8
                    for r in rates_m)
    e_mixed = mixed_study.errors("u1_h1")[1]      # n = 16 level
    e_primal = primal_study.errors("u1_h1")[1]
    agree = abs(e_primal - e_mixed) / e_mixed <= 0.10
    detail = (f"babuska {[round(r['u_l2'], 2) for r in rates_b]}, "
              f"mixed u1 {[round(r['u1_h1'], 2) for r in rates_m]}, "
              f"stokes agreement {abs(e_primal - e_mixed) / e_mixed:.2%}")
    check(8, "convergence rates", ok and agree, detail)


def test_criterion_9_perfusion_refinement(perfusion_study):
    diffs = perfusion_study.errors("diff")
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    pairwise = [diffs[k - 1] / diffs[k] for k in range(1, len(diffs))]
    # per-level reduction ratio: the fitted per-halving factor over the study;
    # individual pairs wobble with the alignment phase of the line inside
    # the bulk lattice
    per_level = (diffs[0] / diffs[-1]) ** (1.0 / (len(diffs) - 1))
    ok = decreasing and 1.4 <= per_level <= 3.0
    check(9, "perfusion refinement", ok,
          f"diffs {['%.4g' % d for d in diffs]}, per-level ratio {per_level:.2f}, "
          f"pairwise {['%.2f' % r for r in pairwise]}")


# -- criterion 10: reduction cache reuse --------------------------------------------

def test_criterion_10_cache_reuse():
    cache = ReductionCache()
    assemble_babuska(8, cache)
    check(10, "trace matrix reuse", cache.build_count == 1,
          f"{cache.build_count} build(s) for B and B'")


# -- criterion 11: assembly scaling smoke -------------------------------------------

def test_criterion_11_scaling_smoke():
    assemble_babuska(32)                      # warm caches
    # the sizes alternate, so a drift in host speed slows both alike
    best = {64: float("inf"), 128: float("inf")}
    for _ in range(5):
        for n in best:
            t0 = time.perf_counter()
            assemble_babuska(n)
            best[n] = min(best[n], time.perf_counter() - t0)
    t64, t128 = best[64], best[128]
    ratio = t128 / t64
    check(11, "assembly scaling smoke", ratio <= 5.0,
          f"t(n=64)={t64:.3f}s t(n=128)={t128:.3f}s ratio {ratio:.2f}")
