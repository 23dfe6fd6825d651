"""Benchmark cases: Babuska boundary-multiplier problem, Darcy-Stokes in
primal and mixed form on nonmatching interface meshes, 3d-1d perfusion,
and a restriction smoke case.  Each case runs a refinement study and
records dof counts, Krylov iterations, per-field error norms and rates to
CSV (17 significant digits).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla

from . import quadrature
from .assemble import DirichletBC, apply_bc_block, assemble, save_matrix_market
from .forms import (
    Analytic, Average, BlockForm, Coefficient, Constant, Measure,
    ReductionKind, Restrict, Trace, div, dot, grad, inner, sym,
    TestFunction, TestFunctions, TrialFunction, TrialFunctions,
)
from .interpreter import multi_assemble
from .krylov import (
    _mass, build_preconditioner, fd_dual_pencil, gmres, h1_pencil, hs_norm,
    minres, nested_dissection,
)
from .manufactured import babuska_data, darcy_stokes_data
from .mesh import (
    cell_submesh, facet_submesh, near, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)
from .opalg import BlockVec, Matrix, Zero, collapse
from .reduction import ReductionCache
from .space import (
    Function, basis_rows, build_space, dg0, interpolate, lagrange, rt0, vector_lagrange,
)

__all__ = [
    "CaseConfig", "StudyRecord", "run_babuska", "run_darcy_stokes",
    "run_perfusion", "run_restrict_demo", "run_case", "export_case",
    "assemble_babuska", "assemble_darcy_stokes", "assemble_perfusion",
]

DEFAULT_DARCY_BLOCK = "stiffness"


@dataclass
class CaseConfig:
    case: str = "babuska"
    n: int = 8
    levels: int = 3
    tol: float = 1e-10
    seed: int | None = 0      # None starts the Krylov solve from zero
    hs_mode: str = "eig"
    darcy_pressure_block: str = DEFAULT_DARCY_BLOCK
    radius: float = 0.2
    n_quad: int = 16
    out_dir: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("resolution n must be >= 2")
        if self.levels < 1:
            raise ValueError("refinement count must be >= 1")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tolerance must lie in (0, 1)")


@dataclass
class StudyRecord:
    case: str
    err_columns: list
    meta: dict = dc_field(default_factory=dict)
    rows: list = dc_field(default_factory=list)
    ok: bool = True

    def add_row(self, level, h, dofs, iters, errors, seconds):
        row = {"level": level, "h": h, "dofs_total": dofs, "iters": iters,
               "seconds": seconds}
        for c in self.err_columns:
            row[f"err_{c}"] = errors[c]
        self.rows.append(row)

    def rates(self):
        """log2(e_prev / e_cur) per error column, assuming halved h."""
        out = []
        for k, row in enumerate(self.rows):
            rates = {}
            for c in self.err_columns:
                if k == 0 or row[f"err_{c}"] == 0 or self.rows[k - 1][f"err_{c}"] == 0:
                    rates[c] = float("nan")
                else:
                    rates[c] = math.log2(self.rows[k - 1][f"err_{c}"] / row[f"err_{c}"])
            out.append(rates)
        return out

    def errors(self, column):
        return [row[f"err_{column}"] for row in self.rows]

    def iterations(self):
        return [row["iters"] for row in self.rows]

    def write_csv(self, path):
        rates = self.rates()
        header = (["level", "h", "dofs_total", "iters"]
                  + [f"err_{c}" for c in self.err_columns]
                  + [f"rate_{c}" for c in self.err_columns]
                  + ["seconds"])
        with open(path, "w") as fh:
            meta = " ".join(f"{k}={v}" for k, v in self.meta.items())
            fh.write(f"# case={self.case} {meta}\n")
            fh.write(",".join(header) + "\n")
            for row, rate in zip(self.rows, rates):
                cells = [str(row["level"]), f"{row['h']:.17g}",
                         str(row["dofs_total"]), str(row["iters"])]
                cells += [f"{row[f'err_{c}']:.17g}" for c in self.err_columns]
                cells += [f"{rate[c]:.17g}" for c in self.err_columns]
                cells.append(f"{row['seconds']:.17g}")
                fh.write(",".join(cells) + "\n")


# -- error norms -----------------------------------------------------------------

def _diff(fn, exact, degree=3):
    shape = fn.space.value_shape
    return Coefficient(fn) - Analytic(exact, shape=shape, degree=degree)


def _qmax(mesh):
    return quadrature.MAX_DEGREE[mesh.tdim]


def err_l2(fn, exact):
    e = _diff(fn, exact)
    mesh = fn.space.mesh
    return math.sqrt(abs(assemble(inner(e, e) * Measure(mesh), quad_degree=_qmax(mesh))))


def err_h1(fn, exact, grad_exact):
    mesh = fn.space.mesh
    shape = fn.space.value_shape
    e = _diff(fn, exact)
    ge = grad(Coefficient(fn)) - Analytic(grad_exact, shape=shape + (mesh.gdim,), degree=3)
    q = _qmax(mesh)
    val = (assemble(inner(e, e) * Measure(mesh), quad_degree=q)
           + assemble(inner(ge, ge) * Measure(mesh), quad_degree=q))
    return math.sqrt(abs(val))


def err_hdiv(fn, exact, div_exact):
    mesh = fn.space.mesh
    e = _diff(fn, exact)
    de = div(Coefficient(fn)) - Analytic(div_exact, shape=(), degree=3)
    q = _qmax(mesh)
    val = (assemble(inner(e, e) * Measure(mesh), quad_degree=q)
           + assemble(inner(de, de) * Measure(mesh), quad_degree=q))
    return math.sqrt(abs(val))


def _split(x, spaces):
    return BlockVec.from_flat([V.dim for V in spaces], x)


# -- Babuska ---------------------------------------------------------------------

def _square_boundary(p):
    return near(p[0], 0) or near(p[0], 1) or near(p[1], 0) or near(p[1], 1)


def assemble_babuska(n, cache=None, data=None):
    """Bulk reaction-diffusion with the boundary value enforced by a
    multiplier on the boundary mesh."""
    omega = unit_square_mesh(n, n)
    gamma = facet_submesh(omega, _square_boundary)
    V = build_space(omega, lagrange(1))
    Q = build_space(gamma, lagrange(1))
    W = [V, Q]
    u, p = TrialFunctions(W)
    v, q = TestFunctions(W)
    dx, dl = Measure(omega), Measure(gamma)

    a = BlockForm(W, 2)
    a.add(inner(grad(u), grad(v)) * dx + inner(u, v) * dx)
    a.add(inner(p, Trace(v, gamma)) * dl)
    a.add(inner(Trace(u, gamma), q) * dl)

    if data is None:
        bd = babuska_data()
        data = {"f": Analytic(bd["f"], degree=3), "g": Analytic(bd["g"], degree=3)}
    L = BlockForm(W, 1)
    L.add(inner(data["f"], v) * dx)
    L.add(inner(data["g"], q) * dl)

    cache = cache if cache is not None else ReductionCache()
    A = multi_assemble(a, cache)
    b = multi_assemble(L, cache)
    return {"A": A, "b": b, "W": W, "omega": omega, "gamma": gamma, "cache": cache}


def run_babuska(cfg: CaseConfig) -> StudyRecord:
    bd = babuska_data()
    rec = StudyRecord("babuska", ["u_h1", "u_l2", "p_l2"],
                      meta={"n0": cfg.n, "seed": cfg.seed, "tol": cfg.tol})
    n = cfg.n
    for level in range(cfg.levels):
        t0 = time.perf_counter()
        sys = assemble_babuska(n)
        V, Q = sys["W"]
        B = build_preconditioner("babuska", sys["A"], sys["W"], hs_mode=cfg.hs_mode)
        x, rep = minres(sys["A"], B, sys["b"].concatenate(), tol=cfg.tol, seed=cfg.seed)
        rec.ok = rec.ok and rep.converged
        parts = _split(x, sys["W"])
        uh = Function(V, parts[0])
        ph = Function(Q, parts[1])
        errors = {
            "u_h1": err_h1(uh, bd["u"], bd["grad_u"]),
            "u_l2": err_l2(uh, bd["u"]),
            "p_l2": err_l2(ph, bd["multiplier"]),
        }
        rec.add_row(level, 1.0 / n, V.dim + Q.dim, rep.iterations, errors,
                    time.perf_counter() - t0)
        n *= 2
    return rec


# -- Darcy-Stokes ------------------------------------------------------------------

_N_IF = Constant((1.0, 0.0))     # interface normal, Stokes -> Darcy
_TAU_IF = Constant((0.0, 1.0))


def _ds_meshes(n):
    m1 = unit_square_mesh(n, n, offset=(0.0, 0.0), extent=(0.5, 1.0))
    m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0.0), extent=(0.5, 1.0))
    gamma = facet_submesh(m2, lambda p: near(p[0], 0.5))
    return m1, m2, gamma


def _horizontal(p):
    return near(p[1] * (1.0 - p[1]), 0.0)


def assemble_darcy_stokes(n, formulation, cache=None, apply_bcs=True):
    """Coupled Stokes-Darcy system on [0,0.5]x[0,1] | [0.5,1]x[0,1] with
    independent n x n and n x 2n triangulations; the interface mesh comes
    from the Darcy-side facets.  Manufactured data enters through volume
    forcing, boundary tractions/fluxes and interface residual terms."""
    data = darcy_stokes_data()
    m1, m2, gamma = _ds_meshes(n)
    gn1 = facet_submesh(m1, _horizontal)
    cache = cache if cache is not None else ReductionCache()

    V1 = build_space(m1, vector_lagrange(2))
    Q1 = build_space(m1, lagrange(1))
    dx1, dx2, dl = Measure(m1), Measure(m2), Measure(gamma)
    n_if, tau = _N_IF, _TAU_IF

    f1 = Analytic(data.f1, shape=(2,), degree=3)
    f2 = Analytic(data.f2, degree=3)
    g_n = Analytic(data.g_stress, degree=3)
    g_t = Analytic(data.g_bjs, degree=3)
    g_m = Analytic(data.g_mass, degree=3)
    traction = Analytic(data.traction_horizontal, shape=(2,), degree=3)

    if formulation == "primal":
        Q2p = build_space(m2, lagrange(2))
        W = [V1, Q1, Q2p]
        u1, p1, p2 = TrialFunctions(W)
        v1, q1, q2 = TestFunctions(W)
        gn2 = facet_submesh(m2, _horizontal)

        a = BlockForm(W, 2)
        a.add(inner(sym(grad(u1)), sym(grad(v1))) * dx1
              + inner(dot(Trace(u1, gamma), tau), dot(Trace(v1, gamma), tau)) * dl)
        a.add(-1.0 * inner(p1, div(v1)) * dx1)
        a.add(-1.0 * inner(q1, div(u1)) * dx1)
        a.add(inner(Trace(p2, gamma), dot(Trace(v1, gamma), n_if)) * dl)
        a.add(-1.0 * inner(dot(Trace(u1, gamma), n_if), Trace(q2, gamma)) * dl)
        a.add(inner(grad(p2), grad(q2)) * dx2)

        flux = Analytic(data.darcy_flux_horizontal, degree=3)
        L = BlockForm(W, 1)
        L.add(inner(f1, v1) * dx1
              + inner(g_n, dot(Trace(v1, gamma), n_if)) * dl
              - inner(g_t, dot(Trace(v1, gamma), tau)) * dl
              + inner(traction, Trace(v1, gn1)) * Measure(gn1))
        L.add(inner(f2, q2) * dx2
              + inner(flux, Trace(q2, gn2)) * Measure(gn2)
              - inner(g_m, Trace(q2, gamma)) * dl)

        bcs = {
            0: [DirichletBC(V1, data.u1, lambda p: near(p[0], 0.0))],
            2: [DirichletBC(Q2p, data.p2, lambda p: near(p[0], 1.0))],
        }
    elif formulation == "mixed":
        V2 = build_space(m2, rt0())
        Q2 = build_space(m2, dg0())
        Q = build_space(gamma, dg0())
        W = [V1, Q1, V2, Q2, Q]
        u1, p1, u2, p2, p = TrialFunctions(W)
        v1, q1, v2, q2, q = TestFunctions(W)
        gd2 = facet_submesh(m2, lambda p: near(p[0], 1.0))

        a = BlockForm(W, 2)
        a.add(inner(sym(grad(u1)), sym(grad(v1))) * dx1
              + inner(dot(Trace(u1, gamma), tau), dot(Trace(v1, gamma), tau)) * dl)
        a.add(-1.0 * inner(p1, div(v1)) * dx1)
        a.add(-1.0 * inner(q1, div(u1)) * dx1)
        a.add(inner(u2, v2) * dx2)
        a.add(-1.0 * inner(p2, div(v2)) * dx2)
        a.add(-1.0 * inner(q2, div(u2)) * dx2)
        a.add(inner(p, dot(Trace(v1, gamma), n_if)) * dl)
        a.add(-1.0 * inner(p, dot(Trace(v2, gamma), n_if)) * dl)
        a.add(inner(q, dot(Trace(u1, gamma), n_if)) * dl)
        a.add(-1.0 * inner(q, dot(Trace(u2, gamma), n_if)) * dl)

        p2_bdry = Analytic(data.p2, degree=3)
        L = BlockForm(W, 1)
        L.add(inner(f1, v1) * dx1
              - inner(g_t, dot(Trace(v1, gamma), tau)) * dl
              + inner(traction, Trace(v1, gn1)) * Measure(gn1))
        L.add(inner(g_n, dot(Trace(v2, gamma), n_if)) * dl
              - inner(p2_bdry, dot(Trace(v2, gd2), Constant((1.0, 0.0)))) * Measure(gd2))
        L.add(-1.0 * inner(f2, q2) * dx2)
        L.add(inner(g_m, q) * dl)

        bcs = {
            0: [DirichletBC(V1, data.u1, lambda p: near(p[0], 0.0))],
            2: [DirichletBC(V2, data.u2, _horizontal)],
        }
    else:
        raise ValueError(f"unknown formulation {formulation!r}")

    A = multi_assemble(a, cache)
    b = multi_assemble(L, cache)
    if apply_bcs:
        A, b = apply_bc_block(A, b, bcs, symmetric=True)
    return {"A": A, "b": b, "W": W, "meshes": (m1, m2, gamma), "cache": cache,
            "data": data}


def _multiplier_errors(ph, data, hs_mode):
    """L2 and discrete H^1/2 errors of the interface multiplier."""
    Q = ph.space
    exact = interpolate(Q, data.multiplier)
    e = ph.coefficients - exact.coefficients
    M, S = fd_dual_pencil(Q) if Q.element.degree == 0 else h1_pencil(Q)
    op = hs_norm(M, S, 0.5).forward_op()
    l2 = err_l2(ph, data.multiplier)
    hhalf = math.sqrt(abs(e @ op.matvec(e)))
    return l2, hhalf


def run_darcy_stokes(cfg: CaseConfig, formulation) -> StudyRecord:
    data = darcy_stokes_data()
    if formulation == "mixed":
        cols = ["u1_h1", "p1_l2", "u2_hdiv", "p2_l2", "p_l2", "composite"]
    else:
        cols = ["u1_h1", "p1_l2", "p2_l2"]
    rec = StudyRecord(f"ds-{formulation}", cols,
                      meta={"n0": cfg.n, "seed": cfg.seed, "tol": cfg.tol,
                            "darcy_pressure_block": cfg.darcy_pressure_block,
                            "hs_mode": cfg.hs_mode})
    n = cfg.n
    for level in range(cfg.levels):
        t0 = time.perf_counter()
        sys = assemble_darcy_stokes(n, formulation)
        W = sys["W"]
        flat_b = BlockVec(sys["b"]).concatenate()
        if formulation == "mixed":
            B = build_preconditioner("ds-mixed", sys["A"], W, hs_mode=cfg.hs_mode)
            x, rep = minres(sys["A"], B, flat_b, tol=cfg.tol, seed=cfg.seed)
        else:
            B = build_preconditioner("ds-primal", sys["A"], W,
                                     darcy_pressure_block=cfg.darcy_pressure_block)
            x, rep = gmres(sys["A"], B, flat_b, tol=cfg.tol, seed=cfg.seed)
        rec.ok = rec.ok and rep.converged
        parts = _split(x, W)
        u1h = Function(W[0], parts[0])
        p1h = Function(W[1], parts[1])
        errors = {
            "u1_h1": err_h1(u1h, data.u1, data.grad_u1),
            "p1_l2": err_l2(p1h, data.p1),
        }
        if formulation == "mixed":
            u2h = Function(W[2], parts[2])
            p2h = Function(W[3], parts[3])
            ph = Function(W[4], parts[4])
            errors["u2_hdiv"] = err_hdiv(u2h, data.u2, data.f2)
            errors["p2_l2"] = err_l2(p2h, data.p2)
            p_l2, p_hhalf = _multiplier_errors(ph, data, cfg.hs_mode)
            errors["p_l2"] = p_l2
            errors["composite"] = math.sqrt(
                errors["u1_h1"] ** 2 + errors["p1_l2"] ** 2
                + errors["u2_hdiv"] ** 2 + errors["p2_l2"] ** 2 + p_hhalf ** 2)
        else:
            p2h = Function(W[2], parts[2])
            errors["p2_l2"] = err_l2(p2h, data.p2)
        dofs = sum(V.dim for V in W)
        rec.add_row(level, 1.0 / n, dofs, rep.iterations, errors,
                    time.perf_counter() - t0)
        n *= 2
    return rec


# -- perfusion ----------------------------------------------------------------------

def _cube_boundary(p):
    return (near(p[0] * (1.0 - p[0]), 0.0) or near(p[1] * (1.0 - p[1]), 0.0)
            or near(p[2] * (1.0 - p[2]), 0.0))


def _gamma_line(n):
    d = 0.55
    return polyline_mesh([(d, d, 0.1), (d, d, 0.9)], n)


def _p_closure(p):
    # 1 at the lower curve endpoint, 2 at the upper
    return 1.0 + (p[2] - 0.1) / 0.8


def assemble_perfusion(n, radius=0.2, n_quad=16, beta=1.0, cache=None,
                       apply_bcs=True):
    """Bulk diffusion exchanging with a 1d vessel through the circle
    average (trial side) and the curve trace (test side); closed by a
    fixed bulk boundary value and fixed vessel endpoint pressures."""
    omega = unit_cube_mesh(n)
    gamma = _gamma_line(n)
    V = build_space(omega, lagrange(1))
    Q = build_space(gamma, lagrange(1))
    W = [V, Q]
    u, p = TrialFunctions(W)
    v, q = TestFunctions(W)
    dx, dl = Measure(omega), Measure(gamma)

    a = BlockForm(W, 2)
    a.add(inner(grad(u), grad(v)) * dx
          + beta * inner(Average(u, gamma, radius, n_quad), Trace(v, gamma)) * dl)
    a.add(-beta * inner(p, Trace(v, gamma)) * dl)
    a.add(-beta * inner(Average(u, gamma, radius, n_quad), q) * dl)
    a.add(inner(grad(p), grad(q)) * dl + beta * inner(p, q) * dl)

    cache = cache if cache is not None else ReductionCache()
    A = multi_assemble(a, cache)
    b = BlockVec([np.zeros(V.dim), np.zeros(Q.dim)])
    if apply_bcs:
        bcs = {
            0: [DirichletBC(V, 0.0, _cube_boundary)],
            1: [DirichletBC(Q, _p_closure,
                            lambda x: near(x[2], 0.1) or near(x[2], 0.9))],
        }
        A, b = apply_bc_block(A, b, bcs, symmetric=False)
    return {"A": A, "b": b, "W": W, "omega": omega, "gamma": gamma, "cache": cache}


def _solve_perfusion(n, radius, n_quad, beta=1.0):
    """Direct solve of the perfusion system in geometric nested-dissection
    order over the bulk and curve dof points.  ``spsolve`` picks only the
    column order, so the matrix is permuted symmetrically beforehand and
    factorized in NATURAL order.  A singular matrix makes SuperLU warn and
    return NaNs; that raises here."""
    sys = assemble_perfusion(n, radius, n_quad, beta)
    V, Q = sys["W"]
    mono = collapse(sys["A"])
    perm = nested_dissection(mono, np.vstack([V.dof_coords, Q.dof_coords]))
    b = BlockVec(sys["b"]).concatenate()
    x = np.empty_like(b)
    x[perm] = spla.spsolve(mono[perm].tocsc()[:, perm], b[perm], permc_spec="NATURAL")
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError(
            f"perfusion direct solve at n={n} ({x.size} dofs) gave non-finite "
            f"values; the system matrix is singular or not finite")
    parts = _split(x, sys["W"])
    return Function(V, parts[0]), Function(Q, parts[1])


def _interp_onto(fn, target_space):
    """Nodal interpolation of the scalar function ``fn`` into ``target_space``."""
    cols, rows = basis_rows(fn.space, target_space.dof_coords)
    vals = np.matmul(rows, fn.coefficients[cols][:, :, None])[:, 0, 0]
    return Function(target_space, vals)


def _mass_norm(masses, vecs):
    return math.sqrt(abs(sum(vec @ (M @ vec) for M, vec in zip(masses, vecs))))


def run_perfusion(cfg: CaseConfig) -> StudyRecord:
    rec = StudyRecord("perfusion", ["diff"],
                      meta={"n0": cfg.n, "radius": cfg.radius, "n_quad": cfg.n_quad})
    if cfg.radius >= 0.45 - 0.05:
        raise ValueError("circle radius reaches the bulk boundary")
    n = cfg.n
    solutions = []
    sizes = []
    times = []
    for level in range(cfg.levels):
        t0 = time.perf_counter()
        solutions.append(_solve_perfusion(n, cfg.radius, cfg.n_quad))
        times.append(time.perf_counter() - t0)
        sizes.append(n)
        n *= 2
    for level in range(1, len(solutions)):
        u_c, p_c = solutions[level - 1]
        u_f, p_f = solutions[level]
        Vf, Qf = u_f.space, p_f.space
        du = u_f.coefficients - _interp_onto(u_c, Vf).coefficients
        dp = p_f.coefficients - _interp_onto(p_c, Qf).coefficients
        masses = [_mass(Vf), _mass(Qf)]
        num = _mass_norm(masses, [du, dp])
        den = _mass_norm(masses, [u_f.coefficients, p_f.coefficients])
        rec.add_row(level, 1.0 / sizes[level], Vf.dim + Qf.dim, 0,
                    {"diff": num / den}, times[level])
    return rec


# -- restriction demo ----------------------------------------------------------------

def run_restrict_demo(cfg: CaseConfig) -> StudyRecord:
    """Lowering and polynomial-reproduction checks for the restriction
    operator onto a subdomain carved out of the parent triangulation; no
    PDE solve."""
    rec = StudyRecord("restrict-demo", ["restrict_interp", "rowsum"],
                      meta={"n0": cfg.n})
    omega = unit_square_mesh(cfg.n, cfg.n)
    sub = cell_submesh(omega, lambda c: c[0] <= 0.5)
    V = build_space(omega, lagrange(1))
    Vw = build_space(sub, lagrange(1))
    phi = TrialFunction(V)
    v = TestFunction(Vw)
    dxw = Measure(sub)
    cache = ReductionCache()
    t0 = time.perf_counter()
    op = multi_assemble(inner(Restrict(phi, sub), v) * dxw, cache)
    multi_assemble(inner(Restrict(phi, sub), v) * dxw, cache)
    rec.ok = cache.build_count == 1

    red = cache.get_or_build(V, sub, ReductionKind("restrict"))
    f = lambda p: p[0] + 2.0 * p[1]
    lifted = red.matrix @ interpolate(V, f).coefficients
    dev_interp = float(np.abs(lifted - interpolate(red.target_space, f).coefficients).max())

    ubar = TrialFunction(red.target_space)
    mass = assemble(inner(ubar, v) * dxw)
    dev_rowsum = float(np.abs(np.asarray(collapse(op).sum(axis=1)).ravel()
                              - np.asarray(mass.sum(axis=1)).ravel()).max())
    rec.ok = rec.ok and dev_interp < 1e-12 and dev_rowsum < 1e-12
    rec.add_row(0, 1.0 / cfg.n, V.dim + Vw.dim, 0,
                {"restrict_interp": dev_interp, "rowsum": dev_rowsum},
                time.perf_counter() - t0)
    return rec


def run_case(cfg: CaseConfig) -> StudyRecord:
    if cfg.case == "babuska":
        return run_babuska(cfg)
    if cfg.case == "ds-primal":
        return run_darcy_stokes(cfg, "primal")
    if cfg.case == "ds-mixed":
        return run_darcy_stokes(cfg, "mixed")
    if cfg.case == "perfusion":
        return run_perfusion(cfg)
    if cfg.case == "restrict-demo":
        return run_restrict_demo(cfg)
    raise ValueError(f"unknown case {cfg.case!r}")


# -- matrix export --------------------------------------------------------------------

def export_case(case, n, out_dir):
    """Write every system block, rhs block and reduction matrix of a case
    in Matrix Market format."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    cache = ReductionCache()
    if case == "babuska":
        sys = assemble_babuska(n, cache)
    elif case == "ds-primal":
        sys = assemble_darcy_stokes(n, "primal", cache)
    elif case == "ds-mixed":
        sys = assemble_darcy_stokes(n, "mixed", cache)
    elif case == "perfusion":
        sys = assemble_perfusion(n, cache=cache)
    else:
        raise ValueError(f"case {case!r} has no exportable system")
    A, b = sys["A"], sys["b"]
    nb = len(A.row_dims)
    for i in range(nb):
        for j in range(nb):
            if isinstance(A[i, j], Zero):
                continue
            save_matrix_market(os.path.join(out_dir, f"A_{i}_{j}.mtx"),
                               collapse(A[i, j]))
    rhs = b if isinstance(b, (list, BlockVec)) else [b]
    for i, vec in enumerate(rhs):
        save_matrix_market(os.path.join(out_dir, f"b_{i}.mtx"), np.asarray(vec))
    for k, (key, red) in enumerate(sorted(cache._store.items())):
        save_matrix_market(os.path.join(out_dir, f"reduction_{red.kind.name}_{k}.mtx"),
                           red.matrix)
    return out_dir
