"""Benchmark cases: Babuska boundary-multiplier problem, Darcy-Stokes in
primal and mixed form on nonmatching interface meshes, and 3d-1d perfusion.
Each case is a refinement study and the assembler of its system; a study
records dof counts, Krylov iterations, per-field error norms and rates to
CSV (17 significant digits).  A Krylov case is its assembler: the system,
its Riesz map as operators, its solver and its error norms; one study runs
them all.
"""
from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse.linalg as spla

from . import quadrature
from .assemble import DirichletBC, apply_bc, apply_bc_block, assemble, save_matrix_market
from .forms import (
    Analytic, Average, BlockForm, Coefficient, Constant, FormError, Measure, Trace,
    _check_average, div, dot, grad, inner, sym,
    TestFunction, TestFunctions, TrialFunction, TrialFunctions,
)
from .interpreter import multi_assemble
from .krylov import (
    KrylovError, build_preconditioner, gmres, hs_norm, mass_matrix, minres, pencil,
)
from .manufactured import babuska_data, darcy_stokes_data
from .mesh import (
    _is_count, facet_submesh, near, polyline_mesh, unit_cube_mesh, unit_square_mesh,
)
from .opalg import Zero, collapse
from .reduction import ReductionCache
from .space import (
    Function, basis_rows, build_space, dg0, interpolate, lagrange, rt0, vector_lagrange,
)

__all__ = [
    "CASES", "CaseConfig", "ConfigError", "StudyRecord", "run_krylov", "run_perfusion",
    "run_case", "export_case",
    "assemble_babuska", "assemble_darcy_stokes", "assemble_perfusion",
]


class ConfigError(ValueError):
    """A study configuration that no study can run."""


@dataclass
class CaseConfig:
    case: str = "babuska"
    n: int = 8
    levels: int = 3
    tol: float = 1e-10
    seed: int | None = None   # None starts the Krylov solve from zero
    radius: float = 0.2
    n_quad: int = 16

    def __post_init__(self):
        _check_case(self.case)
        if not (_is_count(self.n) and self.n >= 2):
            raise ConfigError(f"resolution n must be >= 2 and an integer, got {self.n!r}")
        if not _is_count(self.levels):
            raise ConfigError(f"refinement count must be an integer >= 1, got {self.levels!r}")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tolerance must lie in (0, 1)")
        if self.seed is not None and not (isinstance(self.seed, numbers.Integral)
                                          and not isinstance(self.seed, bool)
                                          and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        try:
            _check_average(self.radius, self.n_quad)
        except FormError as exc:
            raise ConfigError(str(exc)) from None


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

def err_norm(fn, exact, grad_exact=None, div_exact=None):
    """L2 norm of ``fn - exact``; with ``grad_exact`` or ``div_exact`` the
    H1 or H(div) norm, adding the L2 norm of ``grad(fn) - grad_exact`` or
    ``div(fn) - div_exact``.  The rule at ``MAX_DEGREE`` has positive
    weights, so the integral of squares is >= 0 and a negative one raises."""
    mesh = fn.space.mesh
    shape = fn.space.value_shape
    e = Coefficient(fn) - Analytic(exact, shape=shape, degree=3)
    integrand = inner(e, e)
    if grad_exact is not None:
        d = grad(Coefficient(fn)) - Analytic(grad_exact, shape=shape + (mesh.gdim,), degree=3)
        integrand = integrand + inner(d, d)
    elif div_exact is not None:
        d = div(Coefficient(fn)) - Analytic(div_exact, shape=(), degree=3)
        integrand = integrand + inner(d, d)
    val = assemble(integrand * Measure(mesh), quad_degree=quadrature.MAX_DEGREE[mesh.tdim])
    return math.sqrt(val)


def _functions(x, spaces):
    """The flat solution vector as one Function per block space."""
    parts = np.split(x, np.cumsum([V.dim for V in spaces])[:-1])
    return [Function(V, c) for V, c in zip(spaces, parts)]


# -- the Krylov study ------------------------------------------------------------

def run_krylov(cfg: CaseConfig) -> StudyRecord:
    """Refinement study of a case solved by a preconditioned Krylov method.
    Its assembler in ``CASES`` returns, beside ``A`` and ``b``, the Riesz-map
    entries (blocks to factor, or inverses to apply as they are), the solver
    and the error norms as a function of the flat solution vector; the CSV
    columns are the error norms' keys.  Assemblers read the solver from this
    module's globals when they run, so a solver patched by name is the one
    called."""
    assembler = CASES[cfg.case][1]
    rec = StudyRecord(cfg.case, [], meta={"n0": cfg.n, "seed": cfg.seed, "tol": cfg.tol})
    n = cfg.n
    for level in range(cfg.levels):
        t0 = time.perf_counter()
        sys = assembler(n)
        B = build_preconditioner(sys["riesz"])
        x, rep = sys["solver"](sys["A"], B, np.concatenate(sys["b"]), tol=cfg.tol,
                               seed=cfg.seed)
        rec.ok = rec.ok and rep.converged
        # the factorizations are dead after the solve; freed, they leave
        # room for the error norms' chunks below the process's peak memory
        del B
        errors = sys["errors"](x)
        if level == 0:
            rec.err_columns = list(errors)
        rec.add_row(level, 1.0 / n, sum(V.dim for V in sys["W"]), rep.iterations, errors,
                    time.perf_counter() - t0)
        n *= 2
    return rec


# -- Babuska ---------------------------------------------------------------------

def _square_boundary(p):
    return near(p[:, 0], 0) | near(p[:, 0], 1) | near(p[:, 1], 0) | near(p[:, 1], 1)


def assemble_babuska(n, cache=None, data=None):
    """Bulk reaction-diffusion with the boundary value enforced by a
    multiplier on the boundary mesh.  Riesz map: the system's H1 block and
    the inverse of the multiplier's H^{-1/2} norm, built here from its
    pencil; solved by MinRes.  ``data`` holds point fields ``f`` and ``g``
    (default: the manufactured data set)."""
    data = babuska_data() if data is None else data
    omega = unit_square_mesh(n, n)
    gamma = facet_submesh(omega, _square_boundary)
    V = build_space(omega, lagrange(1))
    Q = build_space(gamma, lagrange(1))
    W = [V, Q]
    u, p = TrialFunctions(W)
    v, q = TestFunctions(W)
    dx, dl = Measure(omega), Measure(gamma)

    a = BlockForm(W)
    a.add(inner(grad(u), grad(v)) * dx + inner(u, v) * dx)
    a.add(inner(p, Trace(v, gamma)) * dl)
    a.add(inner(Trace(u, gamma), q) * dl)

    L = BlockForm(W)
    L.add(inner(Analytic(data.f, degree=3), v) * dx)
    L.add(inner(Analytic(data.g, degree=3), q) * dl)

    cache = cache if cache is not None else ReductionCache()
    A = multi_assemble(a, cache)
    b = multi_assemble(L, cache)
    riesz = {"H1": A[0, 0], "multiplier": hs_norm(*pencil(Q), -0.5).inverse_op()}
    return {"A": A, "b": b, "riesz": riesz, "W": W, "omega": omega, "gamma": gamma,
            "cache": cache, "solver": minres,
            "errors": functools.partial(_babuska_errors, W, data)}


def _babuska_errors(W, data, x):
    uh, ph = _functions(x, W)
    return {"u_h1": err_norm(uh, data.u, grad_exact=data.grad_u),
            "u_l2": err_norm(uh, data.u), "p_l2": err_norm(ph, data.multiplier)}


# -- Darcy-Stokes ------------------------------------------------------------------

_N_IF = Constant((1.0, 0.0))     # interface normal, Stokes -> Darcy
_TAU_IF = Constant((0.0, 1.0))


def _ds_meshes(n):
    m1 = unit_square_mesh(n, n, offset=(0.0, 0.0), extent=(0.5, 1.0))
    m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0.0), extent=(0.5, 1.0))
    gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
    return m1, m2, gamma


def _horizontal(p):
    return near(p[:, 1] * (1.0 - p[:, 1]), 0.0)


def assemble_darcy_stokes(n, formulation, cache=None, apply_bcs=True):
    """Coupled Stokes-Darcy system on [0,0.5]x[0,1] | [0.5,1]x[0,1] with
    independent n x n and n x 2n triangulations; the interface mesh comes
    from the Darcy-side facets.  Manufactured data enters through volume
    forcing, boundary tractions/fluxes and interface residual terms.

    Both systems share the Stokes side and its Riesz blocks: the system's
    Stokes block (with its tangential interface coupling) and the P1
    pressure mass.  ``formulation`` picks the Darcy side: "primal"
    (nonsymmetric, solved by GMRES; Riesz block: the system's pressure
    Laplacian) or "mixed" (symmetric, solved by MinRes; Riesz blocks: the
    H(div) inner product under the flux conditions, the P0 pressure mass and
    the inverse of the P0 multiplier's H^{1/2} norm, whose forward operator
    the multiplier's error norm reads, so the norm is built once)."""
    if formulation not in ("primal", "mixed"):
        raise ValueError(f"unknown formulation {formulation!r}")
    data = darcy_stokes_data()
    m1, m2, gamma = _ds_meshes(n)
    gn1 = facet_submesh(m1, _horizontal)
    cache = cache if cache is not None else ReductionCache()

    V1 = build_space(m1, vector_lagrange(2))
    Q1 = build_space(m1, lagrange(1))
    u1, p1 = TrialFunction(V1, 0), TrialFunction(Q1, 1)
    v1, q1 = TestFunction(V1, 0), TestFunction(Q1, 1)
    dx1, dx2, dl = Measure(m1), Measure(m2), Measure(gamma)
    un1, vn1 = dot(Trace(u1, gamma), _N_IF), dot(Trace(v1, gamma), _N_IF)
    ut1, vt1 = dot(Trace(u1, gamma), _TAU_IF), dot(Trace(v1, gamma), _TAU_IF)

    f1 = Analytic(data.f1, shape=(2,), degree=3)
    f2 = Analytic(data.f2, degree=3)
    g_n = Analytic(data.g_stress, degree=3)
    g_t = Analytic(data.g_bjs, degree=3)
    g_m = Analytic(data.g_mass, degree=3)
    traction = Analytic(data.traction_horizontal, shape=(2,), degree=3)

    # the Darcy side: its forms, its loads, the normal-stress load on the
    # Stokes test function (primal only) and its boundary condition
    if formulation == "primal":
        Q2 = build_space(m2, lagrange(2))
        W = [V1, Q1, Q2]
        p2, q2 = TrialFunctions(W)[2], TestFunctions(W)[2]
        gn2 = facet_submesh(m2, _horizontal)
        darcy = [inner(Trace(p2, gamma), vn1) * dl, -1.0 * inner(un1, Trace(q2, gamma)) * dl,
                 inner(grad(p2), grad(q2)) * dx2]
        flux = Analytic(data.darcy_flux_horizontal, degree=3)
        loads = [inner(f2, q2) * dx2 + inner(flux, Trace(q2, gn2)) * Measure(gn2)
                 - inner(g_m, Trace(q2, gamma)) * dl]
        stress = [inner(g_n, vn1) * dl]
        darcy_bc = DirichletBC(Q2, data.p2, lambda p: near(p[:, 0], 1.0))
    else:
        V2 = build_space(m2, rt0())
        Q2 = build_space(m2, dg0())
        Q = build_space(gamma, dg0())
        W = [V1, Q1, V2, Q2, Q]
        u2, p2, p = TrialFunctions(W)[2:]
        v2, q2, q = TestFunctions(W)[2:]
        un2, vn2 = dot(Trace(u2, gamma), _N_IF), dot(Trace(v2, gamma), _N_IF)
        gd2 = facet_submesh(m2, lambda p: near(p[:, 0], 1.0))
        darcy = [inner(u2, v2) * dx2, -1.0 * inner(p2, div(v2)) * dx2,
                 -1.0 * inner(q2, div(u2)) * dx2, inner(p, vn1) * dl,
                 -1.0 * inner(p, vn2) * dl, inner(q, un1) * dl, -1.0 * inner(q, un2) * dl]
        p2_bdry = Analytic(data.p2, degree=3)
        loads = [inner(g_n, vn2) * dl
                 - inner(p2_bdry, dot(Trace(v2, gd2), Constant((1.0, 0.0)))) * Measure(gd2),
                 -1.0 * inner(f2, q2) * dx2, inner(g_m, q) * dl]
        stress = []
        darcy_bc = DirichletBC(V2, data.u2, _horizontal)

    a = BlockForm(W)
    a.add(inner(sym(grad(u1)), sym(grad(v1))) * dx1 + inner(ut1, vt1) * dl)
    a.add(-1.0 * inner(p1, div(v1)) * dx1)
    a.add(-1.0 * inner(q1, div(u1)) * dx1)
    L = BlockForm(W)
    # a block's integrals sum in the order written; the primal stress stays second
    L.add(sum([*stress, -inner(g_t, vt1) * dl, inner(traction, Trace(v1, gn1)) * Measure(gn1)],
              inner(f1, v1) * dx1))
    for form in darcy:
        a.add(form)
    for form in loads:
        L.add(form)

    A = multi_assemble(a, cache)
    b = multi_assemble(L, cache)
    if apply_bcs:
        bcs = {0: [DirichletBC(V1, data.u1, lambda p: near(p[:, 0], 0.0))], 2: [darcy_bc]}
        A, b = apply_bc_block(A, b, bcs, symmetric=True)
    riesz = {"stokes": A[0, 0], "stokes-pressure": mass_matrix(Q1)}
    if formulation == "primal":
        riesz["darcy-pressure"] = A[2, 2]
        solver, errors = gmres, _ds_primal_errors
    else:
        hdiv = assemble(inner(u2, v2) * dx2 + inner(div(u2), div(v2)) * dx2)
        # the constrained matrix does not depend on the boundary values
        hdiv, _ = apply_bc(hdiv, np.zeros(V2.dim), [darcy_bc], symmetric=True)
        M, S = pencil(Q)
        hhalf = hs_norm(M, S, 0.5)
        riesz.update({"hdiv": hdiv, "darcy-pressure": mass_matrix(Q2),
                      "multiplier": hhalf.inverse_op()})
        solver, errors = minres, functools.partial(_ds_mixed_errors, hhalf, S)
    return {"A": A, "b": b, "riesz": riesz, "W": W, "meshes": (m1, m2, gamma),
            "cache": cache, "solver": solver, "errors": functools.partial(errors, W, data)}


def _multiplier_errors(ph, data, hhalf, S):
    """L2 and discrete H^1/2 errors of the interface multiplier, the latter
    by ``hhalf``, the H^1/2 norm of the pencil with stiffness ``S``.  An
    H^1/2 quadratic form below -1e-12 times the H^1 one raises
    ``KrylovError``; a smaller negative value, rounding, reads as 0."""
    exact = interpolate(ph.space, data.multiplier)
    e = ph.coefficients - exact.coefficients
    form = e @ hhalf.forward_op().matvec(e)
    if form < -1e-12 * (e @ (S @ e)):
        raise KrylovError(f"discrete H^1/2 form of the multiplier error is {form:.3e} < 0")
    return err_norm(ph, data.multiplier), math.sqrt(max(form, 0.0))


def _ds_primal_errors(W, data, x):
    u1h, p1h, p2h = _functions(x, W)
    return {"u1_h1": err_norm(u1h, data.u1, grad_exact=data.grad_u1),
            "p1_l2": err_norm(p1h, data.p1), "p2_l2": err_norm(p2h, data.p2)}


def _ds_mixed_errors(hhalf, S, W, data, x):
    """Per-field errors and their composite, with the multiplier in the
    discrete H^1/2 norm (see ``_multiplier_errors``)."""
    u1h, p1h, u2h, p2h, ph = _functions(x, W)
    errors = {"u1_h1": err_norm(u1h, data.u1, grad_exact=data.grad_u1),
              "p1_l2": err_norm(p1h, data.p1),
              "u2_hdiv": err_norm(u2h, data.u2, div_exact=data.f2),
              "p2_l2": err_norm(p2h, data.p2)}
    errors["p_l2"], p_hhalf = _multiplier_errors(ph, data, hhalf, S)
    errors["composite"] = math.sqrt(
        errors["u1_h1"] ** 2 + errors["p1_l2"] ** 2
        + errors["u2_hdiv"] ** 2 + errors["p2_l2"] ** 2 + p_hhalf ** 2)
    return errors


# -- perfusion ----------------------------------------------------------------------

def _cube_boundary(p):
    return (near(p[:, 0] * (1.0 - p[:, 0]), 0.0) | near(p[:, 1] * (1.0 - p[:, 1]), 0.0)
            | near(p[:, 2] * (1.0 - p[:, 2]), 0.0))


def _gamma_line(n):
    d = 0.55
    return polyline_mesh([(d, d, 0.1), (d, d, 0.9)], n)


def _p_closure(p):
    # 1 at the lower curve endpoint, 2 at the upper
    return 1.0 + (p[:, 2] - 0.1) / 0.8


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

    a = BlockForm(W)
    a.add(inner(grad(u), grad(v)) * dx
          + beta * inner(Average(u, gamma, radius, n_quad), Trace(v, gamma)) * dl)
    a.add(-beta * inner(p, Trace(v, gamma)) * dl)
    a.add(-beta * inner(Average(u, gamma, radius, n_quad), q) * dl)
    a.add(inner(grad(p), grad(q)) * dl + beta * inner(p, q) * dl)

    cache = cache if cache is not None else ReductionCache()
    A = multi_assemble(a, cache)
    b = [np.zeros(V.dim), np.zeros(Q.dim)]
    if apply_bcs:
        bcs = {
            0: [DirichletBC(V, 0.0, _cube_boundary)],
            1: [DirichletBC(Q, _p_closure,
                            lambda x: near(x[:, 2], 0.1) | near(x[:, 2], 0.9))],
        }
        A, b = apply_bc_block(A, b, bcs, symmetric=False)
    return {"A": A, "b": b, "W": W, "omega": omega, "gamma": gamma, "cache": cache}


def _solve_perfusion(n, radius, n_quad):
    """Direct solve of the perfusion system by SuperLU in the minimum-degree
    order of A + A^T, the ordering of every sparse LU in the package (see
    ``krylov.inverse_handle``).  The assembler stores no cancellation
    residue, so the factored pattern is the true one.  A singular matrix
    makes SuperLU warn and return NaNs; that raises here.  The lazy operator
    is released before the factorization."""
    sys = assemble_perfusion(n, radius, n_quad)
    V, Q = sys["W"]
    b = np.concatenate(sys["b"])
    A = collapse(sys.pop("A")).tocsc()
    del sys
    x = spla.spsolve(A, b, permc_spec="MMD_AT_PLUS_A")
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError(
            f"perfusion direct solve at n={n} ({x.size} dofs) gave non-finite "
            f"values; the system matrix is singular or not finite")
    return _functions(x, [V, Q])


def _interp_onto(fn, target_space):
    """Nodal interpolation of the scalar function ``fn`` into ``target_space``."""
    cols, rows = basis_rows(fn.space, target_space.dof_coords)
    vals = np.matmul(rows, fn.coefficients[cols][:, :, None])[:, 0, 0]
    return Function(target_space, vals)


def _l2_norm(*fns):
    """Square root of the summed squared L2 norms of the functions."""
    return math.sqrt(sum(assemble(inner(Coefficient(f), Coefficient(f)) * Measure(f.space.mesh))
                         for f in fns))


def run_perfusion(cfg: CaseConfig) -> StudyRecord:
    rec = StudyRecord("perfusion", ["diff"],
                      meta={"n0": cfg.n, "radius": cfg.radius, "n_quad": cfg.n_quad})
    if cfg.radius >= 0.45 - 0.05:
        raise ConfigError("circle radius reaches the bulk boundary")
    if cfg.levels < 2:
        raise ConfigError("a study of differences between levels needs levels >= 2")
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
        num = _l2_norm(Function(Vf, du), Function(Qf, dp))
        den = _l2_norm(u_f, p_f)
        rec.add_row(level, 1.0 / sizes[level], Vf.dim + Qf.dim, 0,
                    {"diff": num / den}, times[level])
    return rec


# case -> (refinement study of a CaseConfig, assembler of its system from
# (n, cache=...))
CASES = {
    "babuska": (run_krylov, assemble_babuska),
    "ds-primal": (run_krylov, functools.partial(assemble_darcy_stokes, formulation="primal")),
    "ds-mixed": (run_krylov, functools.partial(assemble_darcy_stokes, formulation="mixed")),
    "perfusion": (run_perfusion, assemble_perfusion),
}


def _check_case(case):
    if case not in CASES:
        raise ConfigError(f"unknown case {case!r}; the cases are {', '.join(CASES)}")


def run_case(cfg: CaseConfig) -> StudyRecord:
    return CASES[cfg.case][0](cfg)


# -- matrix export --------------------------------------------------------------------

def export_case(case, n, out_dir):
    """Write every system block, rhs block and reduction matrix of a case
    in Matrix Market format."""
    import os
    _check_case(case)
    assembler = CASES[case][1]
    if not _is_count(n):
        raise ConfigError(f"resolution n must be an integer >= 1, got {n!r}")
    os.makedirs(out_dir, exist_ok=True)
    cache = ReductionCache()
    sys = assembler(n, cache=cache)
    A, b = sys["A"], sys["b"]
    nb = len(A.row_dims)
    for i in range(nb):
        for j in range(nb):
            if isinstance(A[i, j], Zero):
                continue
            save_matrix_market(os.path.join(out_dir, f"A_{i}_{j}.mtx"),
                               collapse(A[i, j]))
    for i, vec in enumerate(b):
        save_matrix_market(os.path.join(out_dir, f"b_{i}.mtx"), vec)
    for k, (key, red) in enumerate(sorted(cache._store.items())):
        save_matrix_market(os.path.join(out_dir, f"reduction_{red.kind.name}_{k}.mtx"),
                           red.matrix)
    return out_dir
