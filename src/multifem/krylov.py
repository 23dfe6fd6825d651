"""Preconditioned Krylov solvers (MinRes, GMRES), solver-backed inverse
handles for preconditioner blocks, fractional Sobolev norms realized as
rational sums of shifted sparse solves, and the block-diagonal
preconditioner of a case's Riesz-map entries.

Stopping is on the preconditioned residual norm relative to the initial
one.  By default (``seed=None``) the solve starts from zero, so ``tol`` is
relative to the preconditioned norm of ``b``; an integer ``seed`` starts
from a uniform random vector and is recorded in the report.  A right-hand
side that is not a finite vector of the operator's size, or a residual
that is not finite, raises ``KrylovError``.  Every check is relative, with
no absolute floor: from a zero start, a solve with ``s A`` takes the
iterations of one with ``A`` at any scale ``s``.

A seeded start is uniform per dof, whatever the dof measures.  For RT0
edge-flux dofs that is a field of size ~1/h, so the initial residual, and
with it the effective tolerance, changes under refinement: on the mixed
Darcy-Stokes system ||r0||_B / ||b||_B is 22.5, 67.3, 206 and 597 at
n = 8, 16, 32 and 64 for seed 0.  Measure iteration counts across a
refinement study from a zero start.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import assemble
from .forms import Measure, grad, inner, TestFunction, TrialFunction
from .opalg import (
    Identity, InverseHandle, Matrix, OpExpr, Product, as_op, block_diag_mat, collapse,
)

__all__ = [
    "KrylovReport", "KrylovError", "minres", "gmres",
    "HsNorm", "hs_norm", "spectral_bound", "rational_inverse_sqrt",
    "inverse_handle", "build_preconditioner",
    "mass_matrix", "h1_pencil", "fd_dual_pencil", "pencil",
]

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


def _start(A, B, b, seed):
    """The operator, the preconditioner (``B=None`` is the identity), the
    initial guess and its residual ``b - A x``, after checking ``b``.  The
    guess is zero for ``seed=None``, else uniform in [-1, 1] per dof."""
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    b = _check_rhs(b, A.shape)
    if seed is None:
        x = np.zeros(A.rows)
    else:
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, A.rows)
    return A, B, x, b - A.matvec(x)


def _check_symmetric(A, n, tol=1e-10, npairs=5, seed=1234):
    """Probe x.Ay = y.Ax on random pairs, relative to |Ax||y| and |Ay||x|:
    the test has no absolute floor, so it holds at any scale of A."""
    rng = np.random.default_rng(seed)
    for _ in range(npairs):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ax, ay = A.matvec(x), A.matvec(y)
        gap = abs(ax @ y - x @ ay)
        scale = max(np.linalg.norm(ax) * np.linalg.norm(y),
                    np.linalg.norm(ay) * np.linalg.norm(x))
        if gap > tol * scale:
            raise KrylovError(f"operator is not symmetric in action (gap {gap:.3e})")


def minres(A, B, b, tol=1e-10, maxiter=500, seed=None):
    """Preconditioned MinRes for symmetric A with SPD preconditioner B.

    ``B=None`` is the identity.  Tracks the B-norm of the residual; stops
    when it drops below ``tol`` relative to the initial one.  By default
    (``seed=None``) the start is zero and the initial residual is ``b``; a
    seeded start is uniform per dof (see the module docstring for its
    effect on RT0 fluxes).  Non-convergence is reported, not raised, and a
    breakdown (gamma exactly 0: A singular on the Krylov space) ends the
    iteration unconverged; a right-hand side that is not a finite vector of
    length ``A.rows``, or a non-finite residual, raises ``KrylovError``.
    """
    A, B, x, r1 = _start(A, B, b, seed)
    n = A.rows
    _check_symmetric(A, n)

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
        gamma = np.sqrt(gbar * gbar + beta * beta)
        if gamma == 0.0:                # A is singular on the Krylov space
            break
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
    uniform-per-dof start.  Breakdown, the new Arnoldi vector falling to
    1e-14 of its norm before orthogonalization, triggers a final
    convergence check, and a Hessenberg column that rotates to zero (A
    singular on the Krylov space) ends the iteration unconverged; a
    right-hand side that is not a finite vector of length ``A.rows``, or a
    non-finite residual, raises ``KrylovError``."""
    A, B, x, r = _start(A, B, b, seed)
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
        wnorm = np.linalg.norm(w)
        h = np.zeros(j + 2)
        for i in range(j + 1):
            h[i] = V[i] @ w
            w = w - h[i] * V[i]
        hj1 = np.linalg.norm(w)
        h[j + 1] = hj1
        breakdown = hj1 <= 1e-14 * wnorm
        for i, (c, s) in enumerate(givens):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], -s * h[i] + c * h[i + 1]
        denom = np.hypot(h[j], h[j + 1])
        if denom == 0.0:                # A is singular on the Krylov space
            break
        c, s = h[j] / denom, h[j + 1] / denom
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

# Largest relative error of the rational approximation of lam^(-1/2) on the
# pencil's spectral interval [1, b]; it alone fixes the number of poles
# (20 on babuska's 512-row multiplier pencil, 24 at 2,048 rows).  A norm
# applied and then inverted is checked to 1e-9, which the approximation
# alone meets from about 5e-10; the rest is left to the rounding of the
# shifted solves.
RATIONAL_TOL = 1e-11

# The check that a pencil has no eigenvalue below 1 allows rounding of this
# many eps * b, b its spectral bound.  The exact least eigenvalue of the
# multiplier pencils is 1; their LDL^T passes from 0.21 eps b (P1 on the
# unit square's boundary, 32 to 2,048 rows) and 0.13 eps b (the P0
# interface).  64 leaves room and still refuses a pencil shifted down by
# 1e-6 M while b < 7e7.
_SHIFT_ULPS = 64


def spectral_bound(M, S):
    """Upper bound on the largest eigenvalue of the symmetric pencil (S, M)
    with M positive definite, by Gershgorin's theorem twice: with D the
    diagonal of the row sums of |M|, lam_max(S, D) <= max_i sum_j |S_ij| /
    D_ii and lam_min(D^-1 M) >= min_i (M_ii - sum_{j!=i} |M_ij|) / D_ii, and
    lam_max(S, M) is at most their ratio.  The second bound is exact for a
    diagonal M (P0); on a uniform P1 loop of spacing h the ratio is 12/h^2
    + 3 against the true 12/h^2 + 1.  A mass matrix that is not strictly
    diagonally dominant (P1 on a surface) raises ``ValueError``."""
    D = np.asarray(abs(M).sum(axis=1)).ravel()
    if not (D > 0).all():
        raise ValueError("mass matrix has an empty row")
    diag = M.diagonal()
    least = ((diag + np.abs(diag) - D) / D).min()
    if not least > 0:
        raise ValueError(f"Gershgorin bound on the mass matrix is {least:.3g} <= 0: "
                         "no spectral bound for the pencil")
    return (np.asarray(abs(S).sum(axis=1)).ravel() / D).max() / least


def _check_shift(M, S, b):
    """Raise ``ValueError`` unless S - (1 - slack) M is positive definite,
    i.e. the pencil (S, M) has no eigenvalue below 1 by more than the
    rounding slack.  Symmetric mode with no pivoting threshold factors
    P A P^T = L U with U = D L^T, so it is definite when the row and
    column orders agree and every pivot is positive."""
    slack = _SHIFT_ULPS * np.finfo(float).eps * b
    try:
        lu = spla.splu((S - (1.0 - slack) * M).tocsc(), diag_pivot_thresh=0.0, **_SUPERLU)
        definite = np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all()
    except RuntimeError:                    # an exactly zero pivot
        definite = False
    if not definite:
        raise ValueError(f"shifted pencil has an eigenvalue below 1 by more than "
                         f"its rounding allows ({slack:.3g})")


def _agm(a, b):
    """Arithmetic-geometric mean of a >= b > 0; K(k) = pi / (2 agm(1, kc))
    (DLMF 19.8.5)."""
    while a - b > np.finfo(float).eps * a:
        a, b = (a + b) / 2.0, np.sqrt(a * b)
    return a


def _sc(t, kc):
    """Jacobi's sn(u, k) / cn(u, k) at u = t K(k), for modulus k = sqrt(1 -
    kc^2), by the descending Landen (arithmetic-geometric mean) recurrence
    (DLMF 22.20(ii)).  Its limit a_N gives K(k) = pi / (2 a_N) (DLMF
    19.8.5), so the starting angle 2^N a_N u is 2^N t pi / 2."""
    a, b, c = [1.0], kc, [np.sqrt((1.0 - kc) * (1.0 + kc))]
    while c[-1] > np.finfo(float).eps * a[-1]:
        a_n = a[-1]
        a.append((a_n + b) / 2.0)
        c.append((a_n - b) / 2.0)
        b = np.sqrt(a_n * b)
    phi = 2.0 ** (len(a) - 1) * t * np.pi / 2.0
    for a_n, c_n in zip(a[:0:-1], c[:0:-1]):
        phi = (phi + np.arcsin(c_n / a_n * np.sin(phi))) / 2.0
    return np.tan(phi)


def rational_inverse_sqrt(b):
    """Zolotarev's best relative approximation of lam^(-1/2) on [1, b] of
    type (m, m), with m the least degree whose error is at most
    ``RATIONAL_TOL``:

        lam^(-1/2) ~ c0 + sum_l w_l / (lam - p_l),  c0 > 0, w_l > 0, p_l < 0.

    Its zeros and poles are -C_i, C_i = sc^2(i K / (2m + 1), k) with k^2 =
    1 - 1/b, i = 1..2m, poles at the odd i (van den Eshof et al., Comput.
    Phys. Commun. 146, 2002); C_i C_{2m+1-i} = b gives the upper half from
    the lower, where the recurrence is accurate.  The relative error
    equioscillates between the 2m + 2 points 1 / dn^2(i K / (2m + 1), k) =
    (1 + C_i) / (1 + C_i / b), i = 0..2m+1 (C_0 = 0, the ends 1 and b), and
    c0 centres its values there, which also absorbs the rounding of the
    C_i.  The error is about 4 q^(2m+1), q = exp(-pi K(kc) / K(k)) the
    nome and kc^2 = 1/b, and on 1 <= b <= 1e10 it is never below that, so
    the search starts from the degree this estimate gives.  The residues
    are products of ratios of interlaced C_i, so they neither overflow nor
    change sign.  Returns (c0, poles, weights)."""
    kc = 1.0 / np.sqrt(b)
    k = np.sqrt((1.0 - kc) * (1.0 + kc))
    start = 1
    if k > 0.0:
        decay = np.pi * _agm(1.0, kc) / _agm(1.0, k)        # -ln q
        start = max(1, math.ceil((math.log(4.0 / RATIONAL_TOL) / decay - 1.0) / 2.0))
    for m in itertools.count(start):
        low = _sc(np.arange(1, m + 1) / (2 * m + 1), kc) ** 2
        C = np.concatenate([low, b / low[::-1]])
        odd, even = C[0::2], C[1::2]
        lam = np.concatenate([[1.0], (1.0 + C) / (1.0 + C / b), [b]])[:, None]
        g = np.sqrt(lam[:, 0]) * np.prod((lam + even) / (lam + odd), axis=1)
        if g.max() - g.min() <= RATIONAL_TOL * (g.max() + g.min()):
            break
    c0 = 2.0 / (g.max() + g.min())
    ratios = (even[None, :] - odd[:, None]) / (odd[None, :] - odd[:, None] + np.eye(m))
    return c0, -odd, c0 * np.prod(ratios, axis=1)


class HsNorm(NamedTuple):
    """The H^s norm of a pencil as two lazy operators: ``forward``, the
    norm's matrix, and ``inverse``, its inverse (a Riesz-map block)."""
    forward: OpExpr
    inverse: InverseHandle


def hs_norm(M, S, s):
    """The H^s norm of the pencil (S, M), S the mass-shifted stiffness
    (so every eigenvalue lam of S u = lam M u is >= 1), for s in {-1/2, 0,
    1/2, 1}; any other exponent raises ``ValueError``, as does a pencil
    with an eigenvalue below 1 (see ``_check_shift``).

    In the eigenbasis (U^T M U = I) the norm is M U lam^s U^T M and its
    inverse U lam^-s U^T.  s = 0 and s = 1 are M and S.  For s = +-1/2, R
    = c0 M^-1 + sum_l w_l (S - p_l M)^-1 realizes U lam^(-1/2) U^T with
    the rational approximation of ``rational_inverse_sqrt`` on
    [1, ``spectral_bound``]: the norm at 1/2 is S R M, its inverse R; at
    -1/2 they are M R M and M^-1 S R.  The shifted pencils are stacked into
    one block-diagonal matrix, factored once, so R costs one solve with M
    and one with the stack on the tiled vector.  Both operators agree with
    the eigen realization to within 2 ``RATIONAL_TOL`` relative on the
    benchmark cases' multiplier pencils (measured: 8.5e-12 up to 1,024
    rows)."""
    if s not in (-0.5, 0.0, 0.5, 1.0):
        raise ValueError(f"exponent must be one of -1/2, 0, 1/2, 1, got {s}")
    M, S = sp.csr_matrix(M), sp.csr_matrix(S)
    n = M.shape[0]
    b = spectral_bound(M, S)
    _check_shift(M, S, b)
    if s == 1.0:
        return HsNorm(Matrix(S), InverseHandle(n, _factor(S, "hs").solve, label="hs"))
    mass = _factor(M, "hs mass").solve
    if s == 0.0:
        return HsNorm(Matrix(M), InverseHandle(n, mass, label="hs"))

    c0, poles, weights = rational_inverse_sqrt(b)
    m = poles.size
    Sc, Mc = S.tocoo(), M.tocoo()
    shift = n * np.arange(m)[:, None]
    stack = sp.csc_matrix((
        np.concatenate([np.tile(Sc.data, m), (-poles[:, None] * Mc.data).ravel()]),
        (np.concatenate([(Sc.row + shift).ravel(), (Mc.row + shift).ravel()]),
         np.concatenate([(Sc.col + shift).ravel(), (Mc.col + shift).ravel()]))),
        shape=(m * n, m * n))
    shifted = _factor(stack, "hs shifted pencils").solve

    def inverse_sqrt(x):
        return c0 * mass(x) + weights @ shifted(np.tile(x, m)).reshape(m, n)

    R = InverseHandle(n, inverse_sqrt, label="hs")
    if s == 0.5:
        return HsNorm(Product([Matrix(S), R, Matrix(M)]), R)
    return HsNorm(Product([Matrix(M), R, Matrix(M)]),
                  InverseHandle(n, lambda x: mass(S @ inverse_sqrt(x)), label="hs"))


def mass_matrix(space):
    """L2 inner product of ``space``."""
    p, q = TrialFunction(space), TestFunction(space)
    return assemble(inner(p, q) * Measure(space.mesh))


def h1_pencil(space):
    """(mass, stiffness + mass) pair discretizing (I, -Laplace + I)."""
    p, q = TrialFunction(space), TestFunction(space)
    dx = Measure(space.mesh)
    return mass_matrix(space), assemble(inner(grad(p), grad(q)) * dx + inner(p, q) * dx)


def fd_dual_pencil(space):
    """Pencil for cellwise-constant multiplier spaces on a curve: mass plus
    a two-point finite-difference Laplacian on the dual grid of cell
    centers (spacing weights, natural ends), mass-shifted.  A branch point,
    a vertex of more than two cells, raises."""
    mesh = space.mesh
    if mesh.tdim != 1 or space.element.degree != 0 or space.ncomp != 1:
        raise ValueError("dual-grid pencil expects a scalar P0 space on a curve")
    flat = mesh.cells.ravel()
    count = np.bincount(flat, minlength=mesh.num_vertices)
    if count.max() > 2:
        v = np.argmax(count > 2)
        raise ValueError(f"dual-grid pencil needs an unbranched curve; vertex {v} joins "
                         f"{count[v]} cells")
    M = mass_matrix(space)
    # the two cells of each vertex that joins exactly two, lower index first
    order = np.argsort(flat, kind="stable")
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


def pencil(space):
    """The dual-grid pencil of a P0 multiplier space, else the H1 pencil."""
    return fd_dual_pencil(space) if space.element.degree == 0 else h1_pencil(space)


# -- inverse handles ---------------------------------------------------------------

# SuperLU's options for every factorization in this module (see inverse_handle).
_SUPERLU = {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}


def _factor(A, label):
    """SuperLU factors of a square sparse matrix; a failure raises
    ``KrylovError`` naming ``label``."""
    A = sp.csc_matrix(A)
    try:
        return spla.splu(A, **_SUPERLU)
    except (RuntimeError, MemoryError) as exc:
        raise KrylovError(
            f"LU of block '{label}' ({A.shape[0]} rows, {A.nnz} stored entries) "
            f"failed: {exc}") from exc


def inverse_handle(block, label="block"):
    """Operator applying the inverse of a square block, factorized once.

    SuperLU orders by minimum degree on A + A^T in symmetric mode: every
    block a preconditioner hands it is a Riesz map, symmetric in
    structure, and symmetric mode prefers diagonal pivots and does not
    postorder the column elimination tree of A^T A, which would spoil an
    A + A^T order.  On the benchmark's H1 (unit square) and Stokes blocks
    this has 40% and 52% less fill than COLAMD.  The same ordering serves
    the benchmark's direct solve.  Every block is factorized, whatever its
    size; a factorization that fails (an exactly singular block, or one
    whose factors do not fit in memory) raises ``KrylovError`` naming the
    block.
    """
    op = as_op(block)
    if op.rows != op.cols:
        raise ValueError(f"inverse handle needs a square block, got {op.shape}")
    return InverseHandle(op.rows, _factor(collapse(op), label).solve, label=label)


# -- Riesz-map preconditioners -----------------------------------------------------

def build_preconditioner(blocks):
    """Block-diagonal preconditioner diag(R_1, ..., R_k)^-1 from a case's
    Riesz-map entries ``blocks``, a dict label -> entry in block order.  An
    ``InverseHandle`` already is the inverse (an H^s norm's ``inverse``)
    and is used as it is; any other entry, sparse or lazy, is a block
    factorized in that order by ``inverse_handle(block, label)``."""
    return block_diag_mat([block if isinstance(block, InverseHandle)
                           else inverse_handle(block, label)
                           for label, block in blocks.items()])
