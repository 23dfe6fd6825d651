"""Preconditioned Krylov solvers (MinRes, GMRES), solver-backed inverse
handles for preconditioner blocks, eigenvalue realization of fractional
Sobolev norm operators, and the block-diagonal preconditioners of the
benchmark problems.

Stopping is on the preconditioned residual norm relative to the initial
one.  By default (``seed=None``) the solve starts from zero, so ``tol`` is
relative to the preconditioned norm of ``b``; an integer ``seed`` starts
from a uniform random vector and is recorded in the report.  A right-hand
side that is not a finite vector of the operator's size, or a residual
that is not finite, raises ``KrylovError``.

A seeded start is uniform per dof, whatever the dof measures.  For RT0
edge-flux dofs that is a field of size ~1/h, so the initial residual, and
with it the effective tolerance, changes under refinement: on the mixed
Darcy-Stokes system ||r0||_B / ||b||_B is 22.5, 67.3, 206 and 597 at
n = 8, 16, 32 and 64 for seed 0.  Measure iteration counts across a
refinement study from a zero start.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import DirichletBC, apply_bc, assemble
from .forms import Measure, div, grad, inner, TestFunction, TrialFunction
from .mesh import near
from .opalg import (
    Identity, InverseHandle, Matrix, as_op, block_diag_mat, collapse,
)

__all__ = [
    "KrylovReport", "KrylovError", "minres", "gmres",
    "HsNormOperator", "hs_norm", "inverse_handle", "build_preconditioner",
    "hs_inverse_block", "h1_pencil", "fd_dual_pencil",
]

HS_DIM_LIMIT = 5000

# A dense eigensolve finds the pencil's eigenvalues to a modest multiple of
# eps * lam_max: on babuska's multiplier pencils |lam_min - 1| / (eps
# lam_max) is 0.02 at 512 rows and up to 0.31 at 2,048.  64 leaves room
# and still rejects a pencil shifted down by 1e-6 M while lam_max < 7e7.
_EIG_ULPS = 64


class KrylovError(RuntimeError):
    pass


@dataclass
class KrylovReport:
    converged: bool
    iterations: int
    history: list = field(default_factory=list)
    seed: int | None = None


def _check_rhs(b, shape):
    b = np.asarray(b, dtype=float)
    if b.shape != shape[:1]:
        raise KrylovError(f"right-hand side of shape {b.shape} for an operator "
                          f"of shape {shape}")
    if not np.isfinite(b).all():
        raise KrylovError("right-hand side is not finite")
    return b


def _check_residual(norm, itn):
    """One scalar per iteration: the (squared) preconditioned residual norm
    the solver tracks."""
    if not np.isfinite(norm):
        raise KrylovError(f"preconditioned residual is not finite at iteration {itn}")


def _initial_guess(n, seed):
    if seed is None:
        return np.zeros(n)
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _check_symmetric(A, n, tol=1e-10, npairs=5, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(npairs):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ax, ay = A.matvec(x), A.matvec(y)
        gap = abs(ax @ y - x @ ay)
        scale = max(1.0, np.linalg.norm(ax) * np.linalg.norm(y),
                    np.linalg.norm(ay) * np.linalg.norm(x))
        if gap > tol * scale:
            raise KrylovError(f"operator is not symmetric in action (gap {gap:.3e})")


def minres(A, B, b, tol=1e-10, maxiter=500, seed=None):
    """Preconditioned MinRes for symmetric A with SPD preconditioner B.

    ``B=None`` is the identity.  Tracks the B-norm of the residual; stops
    when it drops below ``tol`` relative to the initial one.  By default
    (``seed=None``) the start is zero and the initial residual is ``b``; a
    seeded start is uniform per dof (see the module docstring for its
    effect on RT0 fluxes).  Non-convergence is reported, not raised; a
    right-hand side that is not a finite vector of length ``A.rows``, or a
    non-finite residual, raises ``KrylovError``.
    """
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    n = A.rows
    b = _check_rhs(b, A.shape)
    _check_symmetric(A, n)
    x = _initial_guess(n, seed)

    r1 = b - A.matvec(x)
    y = B.matvec(r1)
    beta1 = r1 @ y
    _check_residual(beta1, 0)
    if beta1 < 0:
        raise KrylovError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)
    history = [beta1]
    if beta1 == 0.0:
        return x, KrylovReport(True, 0, history, seed)

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    converged = False
    itn = 0
    while itn < maxiter:
        itn += 1
        s = 1.0 / beta
        v = s * y
        y = A.matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = v @ y
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = B.matvec(r2)
        oldb = beta
        beta = r2 @ y
        _check_residual(beta, itn)
        if beta < 0:
            raise KrylovError("preconditioner is not positive definite")
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.sqrt(gbar * gbar + beta * beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        history.append(phibar)
        if phibar <= tol * beta1:
            converged = True
            break
    return x, KrylovReport(converged, itn, history, seed)


def gmres(A, B, b, tol=1e-10, maxiter=500, seed=None):
    """Full (unrestarted) left-preconditioned GMRES with modified
    Gram-Schmidt (``B=None`` is the identity); tracks and minimizes the
    2-norm of the preconditioned residual.  Stops when it drops below
    ``tol`` relative to the initial one: the 2-norm of ``B b`` from the
    default zero start (``seed=None``), else that of the seeded
    uniform-per-dof start.  Breakdown triggers a final convergence check;
    a right-hand side that is not a finite vector of length ``A.rows``, or
    a non-finite residual, raises ``KrylovError``."""
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    n = A.rows
    b = _check_rhs(b, A.shape)
    x = _initial_guess(n, seed)

    r = b - A.matvec(x)
    z = B.matvec(r)
    beta = np.linalg.norm(z)
    _check_residual(beta, 0)
    history = [beta]
    if beta == 0.0:
        return x, KrylovReport(True, 0, history, seed)

    V = [z / beta]
    H = []                      # column j holds h[0..j+1]
    givens = []
    g = [beta]
    converged = False
    itn = 0
    for j in range(maxiter):
        itn = j + 1
        w = B.matvec(A.matvec(V[j]))
        h = np.zeros(j + 2)
        for i in range(j + 1):
            h[i] = V[i] @ w
            w = w - h[i] * V[i]
        hj1 = np.linalg.norm(w)
        h[j + 1] = hj1
        breakdown = hj1 < 1e-14 * max(1.0, beta)
        for i, (c, s) in enumerate(givens):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], -s * h[i] + c * h[i + 1]
        denom = np.hypot(h[j], h[j + 1])
        c, s = (1.0, 0.0) if denom == 0 else (h[j] / denom, h[j + 1] / denom)
        givens.append((c, s))
        h[j] = denom
        h[j + 1] = 0.0
        H.append(h[:j + 1].copy())
        g.append(-s * g[j])
        g[j] = c * g[j]
        res = abs(g[j + 1])
        _check_residual(res, itn)
        history.append(res)
        if res <= tol * beta or breakdown:
            converged = res <= tol * beta
            break
        V.append(w / hj1)

    # back substitution on the triangular system
    m = len(H)
    if m:
        y = np.zeros(m)
        for i in range(m - 1, -1, -1):
            y[i] = (g[i] - sum(H[k][i] * y[k] for k in range(i + 1, m))) / H[i][i]
        for k in range(m):
            x = x + y[k] * V[k]
    return x, KrylovReport(converged, itn, history, seed)


# -- fractional Sobolev norms ----------------------------------------------------

class HsNormOperator:
    """H^s norm operator from the generalized eigenproblem S u = lam M u
    with U^T M U = I (S the mass-shifted stiffness, so lam >= 1).

    forward: M U lam^s U^T M (reconstructs S at s=1, M at s=0), built on
    first use, since a Riesz-map block needs only the inverse;
    inverse: U lam^-s U^T.
    """

    def __init__(self, M, S, s):
        n = M.shape[0]
        if n > HS_DIM_LIMIT:
            raise ValueError(f"dense eigensolve refused for dimension {n} > {HS_DIM_LIMIT}")
        if not -1.0 <= s <= 1.0:
            raise ValueError(f"exponent must lie in [-1, 1], got {s}")
        Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
        Sd = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
        lam, U = scipy.linalg.eigh(Sd, Md)
        slack = _EIG_ULPS * np.finfo(float).eps * lam.max()
        if lam.min() < 1.0 - slack:
            raise ValueError(f"shifted pencil has eigenvalue {lam.min():.12g} < 1 "
                             f"(rounding allows {slack:.3g})")
        self.M, self.s = Md, s
        self.eigenvalues, self.eigenvectors = lam, U
        self._inverse = (U * (lam ** -s)[None, :]) @ U.T

    @functools.cached_property
    def _forward(self):
        MU = self.M @ self.eigenvectors
        return (MU * (self.eigenvalues ** self.s)[None, :]) @ MU.T

    def forward_op(self):
        return Matrix(self._forward)

    def inverse_op(self):
        return Matrix(self._inverse)


def hs_norm(M, S, s):
    """Eigenvalue realization of the fractional operator for the pencil
    (S, M); see HsNormOperator."""
    return HsNormOperator(M, S, s)


def _mass(space):
    p, q = TrialFunction(space), TestFunction(space)
    return assemble(inner(p, q) * Measure(space.mesh))


def h1_pencil(space):
    """(mass, stiffness + mass) pair discretizing (I, -Laplace + I)."""
    p, q = TrialFunction(space), TestFunction(space)
    dx = Measure(space.mesh)
    S = assemble(inner(grad(p), grad(q)) * dx + inner(p, q) * dx)
    return _mass(space), S


def fd_dual_pencil(space):
    """Pencil for cellwise-constant multiplier spaces on a curve: mass plus
    a two-point finite-difference Laplacian on the dual grid of cell
    centers (spacing weights, natural ends), mass-shifted."""
    mesh = space.mesh
    if mesh.tdim != 1 or space.element.degree != 0 or space.ncomp != 1:
        raise ValueError("dual-grid pencil expects a scalar P0 space on a curve")
    M = _mass(space)
    # the two cells of each vertex that joins exactly two, lower index first
    flat = mesh.cells.ravel()
    order = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=mesh.num_vertices)
    start = np.cumsum(count) - count
    joints = start[count == 2]
    a = order[joints] // 2
    b = order[joints + 1] // 2
    centers = mesh.cell_centroids
    w = 1.0 / np.linalg.norm(centers[a] - centers[b], axis=1)
    rows = np.concatenate([a, a, b, b])
    cols = np.concatenate([a, b, a, b])
    vals = np.concatenate([w, -w, -w, w])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(space.dim, space.dim)).tocsr()
    return M, (K + M).tocsr()


def _pencil(space):
    """The dual-grid pencil of a P0 multiplier space, else the H1 pencil."""
    return fd_dual_pencil(space) if space.element.degree == 0 else h1_pencil(space)


def hs_inverse_block(space, s):
    """Riesz-map block for an H^s multiplier space: inverse of the
    eigenvalue-realized fractional norm operator."""
    M, S = _pencil(space)
    return hs_norm(M, S, s).inverse_op()


# -- inverse handles ---------------------------------------------------------------

def inverse_handle(block, label="block"):
    """Operator applying the inverse of a square block, factorized once.

    SuperLU orders by minimum degree on A + A^T in symmetric mode: every
    block the preconditioners hand it is a Riesz map, symmetric in
    structure, and symmetric mode prefers diagonal pivots and does not
    postorder the column elimination tree of A^T A, which would spoil an
    A + A^T order.  On the babuska H1 and ds-mixed Stokes blocks this has
    40% and 52% less fill than COLAMD.  The same ordering serves the
    perfusion direct solve.  Every block is factorized, whatever its size;
    a factorization that fails (an exactly singular block, or one whose
    factors do not fit in memory) raises ``KrylovError`` naming the block.
    """
    op = as_op(block)
    if op.rows != op.cols:
        raise ValueError(f"inverse handle needs a square block, got {op.shape}")
    A = collapse(op).tocsc()
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except (RuntimeError, MemoryError) as exc:
        raise KrylovError(
            f"LU of block '{label}' ({A.shape[0]} rows, {A.nnz} stored entries) "
            f"failed: {exc}") from exc
    return InverseHandle(op.rows, lu.solve, label=label)


# -- benchmark preconditioners ------------------------------------------------------

def build_preconditioner(problem, system, spaces):
    """Block-diagonal Riesz-map preconditioners for the demo problems.

    babuska:  diag(H1 inner product, H^{-1/2} multiplier norm)^-1 -- the H1
    block is shared with the system.
    ds-mixed: diag(Stokes block incl. tangential coupling, P1 mass, Hdiv
    inner product with essential flux conditions, P0 mass, H^{1/2} P0
    multiplier norm)^-1.
    ds-primal: as mixed on the Stokes side; the Darcy pressure block is the
    system's Laplacian block with its essential conditions applied.
    """
    if problem == "babuska":
        V, Q = spaces
        return block_diag_mat([
            inverse_handle(system[0, 0], "H1"),
            hs_inverse_block(Q, s=-0.5),
        ])

    if problem == "ds-mixed":
        V1, Q1, V2, Q2, Q = spaces
        u, v = TrialFunction(V2), TestFunction(V2)
        dx2 = Measure(V2.mesh)
        hdiv = assemble(inner(u, v) * dx2 + inner(div(u), div(v)) * dx2)
        bc = DirichletBC(V2, (0.0, 0.0), lambda x: near(x[:, 1] * (1.0 - x[:, 1]), 0.0))
        hdiv, _ = apply_bc(hdiv, np.zeros(V2.dim), [bc], symmetric=True)
        return block_diag_mat([
            inverse_handle(system[0, 0], "stokes"),
            inverse_handle(_mass(Q1), "stokes-pressure"),
            inverse_handle(hdiv, "hdiv"),
            inverse_handle(_mass(Q2), "darcy-pressure"),
            hs_inverse_block(Q, s=0.5),
        ])

    if problem == "ds-primal":
        V1, Q1, Q2p = spaces
        return block_diag_mat([
            inverse_handle(system[0, 0], "stokes"),
            inverse_handle(_mass(Q1), "stokes-pressure"),
            inverse_handle(system[2, 2], "darcy-pressure"),
        ])

    raise ValueError(f"unknown preconditioner problem {problem!r}")

