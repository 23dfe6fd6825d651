"""Preconditioned Krylov solvers (MinRes, GMRES, CG), solver-backed inverse
handles for preconditioner blocks, eigenvalue realization of fractional
Sobolev norm operators, and the block-diagonal preconditioners of the
benchmark problems.

Stopping is on the preconditioned residual norm relative to the initial
one.  Initial guesses are seeded uniform random vectors (seed recorded in
the report) unless an explicit ``x0`` is passed; with no ``x0`` and
``seed=None`` the solve starts from zero, so ``tol`` is relative to the
preconditioned norm of ``b``.

A seeded start is uniform per dof, whatever the dof measures.  For RT0
edge-flux dofs that is a field of size ~1/h, so the initial residual, and
with it the effective tolerance, changes under refinement: on the mixed
Darcy-Stokes system ||r0||_B / ||b||_B is 22.5, 67.3, 206 and 597 at
n = 8, 16, 32 and 64 for seed 0.  Measure iteration counts across a
refinement study from a zero start.
"""
from __future__ import annotations

import csv
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
    "KrylovReport", "KrylovError", "minres", "gmres", "cg",
    "HsNormOperator", "hs_norm", "inverse_handle", "build_preconditioner",
    "hs_inverse_block", "save_history_csv", "h1_pencil", "fd_dual_pencil",
    "nested_dissection",
]

HS_DIM_LIMIT = 5000


class KrylovError(RuntimeError):
    pass


@dataclass
class KrylovReport:
    converged: bool
    iterations: int
    history: list = field(default_factory=list)
    relative_residual: float = 0.0
    seed: int | None = None


def _initial_guess(n, seed, x0):
    if x0 is not None:
        return np.array(x0, dtype=float, copy=True)
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


def minres(A, B=None, b=None, tol=1e-10, maxiter=500, seed=0, x0=None,
           check_symmetry=True):
    """Preconditioned MinRes for symmetric A with SPD preconditioner B.

    Tracks the B-norm of the residual; stops when it drops below ``tol``
    relative to the initial one.  With ``seed=None`` and no ``x0`` the
    start is zero and the initial residual is ``b``; a seeded start is
    uniform per dof (see the module docstring for its effect on RT0
    fluxes).  Non-convergence is reported, not raised.
    """
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    n = A.rows
    b = np.asarray(b, dtype=float)
    if check_symmetry:
        _check_symmetric(A, n)
    x = _initial_guess(n, seed, x0)

    r1 = b - A.matvec(x)
    y = B.matvec(r1)
    beta1 = r1 @ y
    if beta1 < 0:
        raise KrylovError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)
    history = [beta1]
    if beta1 == 0.0:
        return x, KrylovReport(True, 0, history, 0.0, seed if x0 is None else None)

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
    rel = history[-1] / beta1
    return x, KrylovReport(converged, itn, history, rel, seed if x0 is None else None)


def gmres(A, B=None, b=None, tol=1e-10, maxiter=500, seed=0, x0=None):
    """Full (unrestarted) left-preconditioned GMRES with modified
    Gram-Schmidt; tracks and minimizes the 2-norm of the preconditioned
    residual.  Stops when it drops below ``tol`` relative to the initial
    one: the 2-norm of ``B b`` with ``seed=None`` and no ``x0`` (zero
    start), else that of the seeded uniform-per-dof or the given start.
    Breakdown triggers a final convergence check."""
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    n = A.rows
    b = np.asarray(b, dtype=float)
    x = _initial_guess(n, seed, x0)

    r = b - A.matvec(x)
    z = B.matvec(r)
    beta = np.linalg.norm(z)
    history = [beta]
    report_seed = seed if x0 is None else None
    if beta == 0.0:
        return x, KrylovReport(True, 0, history, 0.0, report_seed)

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
    rel = history[-1] / beta
    return x, KrylovReport(converged, itn, history, rel, report_seed)


def cg(A, b, B=None, tol=1e-12, maxiter=2000, seed=None, x0=None):
    """Preconditioned conjugate gradients; history in the B-inner-product
    residual norm, stopping at ``tol`` relative to the initial one.  The
    default ``seed=None`` starts from zero, so ``tol`` is relative to the
    B-norm of ``b``; an integer seed starts from a uniform-per-dof vector."""
    A = as_op(A)
    B = as_op(B) if B is not None else Identity(A.rows)
    n = A.rows
    b = np.asarray(b, dtype=float)
    x = _initial_guess(n, seed, x0)
    r = b - A.matvec(x)
    z = B.matvec(r)
    rho = r @ z
    history = [np.sqrt(max(rho, 0.0))]
    if history[0] == 0.0:
        return x, KrylovReport(True, 0, history, 0.0, seed)
    p = z.copy()
    converged = False
    itn = 0
    for itn in range(1, maxiter + 1):
        q = A.matvec(p)
        alpha = rho / (p @ q)
        x = x + alpha * p
        r = r - alpha * q
        z = B.matvec(r)
        rho_new = r @ z
        history.append(np.sqrt(max(rho_new, 0.0)))
        if history[-1] <= tol * history[0]:
            converged = True
            break
        p = z + (rho_new / rho) * p
        rho = rho_new
    rel = history[-1] / history[0]
    return x, KrylovReport(converged, itn, history, rel, seed)


# -- fractional Sobolev norms ----------------------------------------------------

class HsNormOperator:
    """H^s norm operator from the generalized eigenproblem S u = lam M u
    with U^T M U = I (S the mass-shifted stiffness, so lam >= 1).

    forward: M U lam^s U^T M (reconstructs S at s=1, M at s=0);
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
        if lam.min() < 1.0 - 1e-10:
            raise ValueError(f"shifted pencil has eigenvalue {lam.min():.12g} < 1")
        self.M, self.S, self.s = Md, Sd, s
        self.eigenvalues, self.eigenvectors = lam, U
        MU = Md @ U
        self._forward = (MU * (lam ** s)[None, :]) @ MU.T
        self._inverse = (U * (lam ** -s)[None, :]) @ U.T

    def forward_op(self):
        return Matrix(self._forward)

    def inverse_op(self):
        return Matrix(self._inverse)


def hs_norm(M, S, s):
    """Eigenvalue realization of the fractional operator for the pencil
    (S, M); see HsNormOperator."""
    return HsNormOperator(M, S, s)


def h1_pencil(space):
    """(mass, stiffness + mass) pair discretizing (I, -Laplace + I)."""
    p, q = TrialFunction(space), TestFunction(space)
    dx = Measure(space.mesh)
    M = assemble(inner(p, q) * dx)
    S = assemble(inner(grad(p), grad(q)) * dx + inner(p, q) * dx)
    return M, S


def fd_dual_pencil(space):
    """Pencil for cellwise-constant multiplier spaces on a curve: mass plus
    a two-point finite-difference Laplacian on the dual grid of cell
    centers (spacing weights, natural ends), mass-shifted."""
    mesh = space.mesh
    if mesh.tdim != 1 or space.element.degree != 0 or space.ncomp != 1:
        raise ValueError("dual-grid pencil expects a scalar P0 space on a curve")
    p, q = TrialFunction(space), TestFunction(space)
    M = assemble(inner(p, q) * Measure(mesh))
    centers = mesh.cell_centroids
    touching = {}
    for c in range(mesh.num_cells):
        for v in mesh.cells[c]:
            touching.setdefault(int(v), []).append(c)
    rows, cols, vals = [], [], []
    for cells in touching.values():
        if len(cells) != 2:
            continue                      # natural end
        a, b = cells
        d = np.linalg.norm(centers[a] - centers[b])
        w = 1.0 / d
        rows += [a, a, b, b]
        cols += [a, b, a, b]
        vals += [w, -w, -w, w]
    K = sp.coo_matrix((vals, (rows, cols)), shape=(space.dim, space.dim)).tocsr()
    return M, (K + M).tocsr()


def _pencil(space, hs_mode):
    if space.element.degree == 0:
        return fd_dual_pencil(space)
    if hs_mode not in ("eig", "fd-surrogate"):
        raise ValueError(f"unknown hs mode {hs_mode!r}")
    return h1_pencil(space)


def hs_inverse_block(space, s, hs_mode="eig"):
    """Riesz-map block for an H^s multiplier space: inverse of the
    eigenvalue-realized fractional norm operator."""
    M, S = _pencil(space, hs_mode)
    return hs_norm(M, S, s).inverse_op()


# -- fill-reducing orderings -------------------------------------------------------

_ND_LEAF = 32          # parts of at most this many rows are not split further
_ND_BITS = 40          # bits of a tree path; far more than the depth reached


def nested_dissection(pattern, points):
    """Geometric nested dissection (George 1973): a fill-reducing symmetric
    ordering of the graph of ``pattern + pattern^T`` whose vertex i sits at
    ``points[i]``.  Returns ``perm`` with ``A[perm][:, perm]`` the
    reordered matrix.

    The points are bisected recursively, every part at the median of its
    widest coordinate (ties kept in the order already held), until parts
    have at most ``_ND_LEAF`` vertices; all parts of one depth are cut by
    one sort.  Then, for each edge between two leaves, the end in the upper
    half of the tree node where their paths part joins that node's
    separator; a vertex that joins several stays in the shallowest.  The
    numbering is the tree's postorder (lower subtree, upper subtree,
    separator), so no edge joins the two subtrees of a node except through
    a vertex numbered after both.  On a 3d mesh the separators are planes,
    and an LU in this order (NATURAL column order of the reordered matrix)
    has half of COLAMD's fill on the perfusion system at n=24.
    """
    pattern = sp.csr_matrix(pattern)
    n = pattern.shape[0]
    points = np.asarray(points, dtype=float)
    if pattern.shape != (n, n) or points.ndim != 2 or points.shape[0] != n:
        raise ValueError(f"nested dissection needs a square pattern and one point "
                         f"per row, got {pattern.shape} and {points.shape}")
    coords = np.ascontiguousarray(points.T)
    path = np.zeros(n, dtype=np.int64)     # leaf path bits, left-aligned to _ND_BITS
    depth = np.zeros(n, dtype=np.int64)
    active = np.arange(n)                  # vertices not in a leaf yet, grouped by part
    part = np.zeros(n, dtype=np.int64)     # their path so far
    d = 0
    while True:
        starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        sizes = np.diff(np.r_[starts, active.size])
        big = sizes > _ND_LEAF
        if not big.all():
            leaf = np.repeat(~big, sizes)
            depth[active[leaf]] = d
            path[active[leaf]] = part[leaf] << (_ND_BITS - d)
            active, part, sizes = active[~leaf], part[~leaf], sizes[big]
            starts = np.r_[0, np.cumsum(sizes)[:-1]]
        if not active.size:
            break
        # sort key: part index + position along the part's widest axis in [0, 0.5]
        pts = coords.take(active, axis=1)
        lo = np.minimum.reduceat(pts, starts, axis=1)
        extent = np.maximum.reduceat(pts, starts, axis=1) - lo
        seg = np.arange(sizes.size)
        axis = np.argmax(extent, axis=0)
        width = extent[axis, seg]
        scale = 0.5 / np.where(width > 0, width, 1.0)
        x = pts.ravel().take(np.repeat(axis * active.size, sizes) + np.arange(active.size))
        key = np.repeat(seg, sizes) + (x - np.repeat(lo[axis, seg], sizes)) * np.repeat(scale, sizes)
        active = active.take(np.argsort(key, kind="stable"))
        upper = np.arange(active.size) >= np.repeat(starts + sizes // 2, sizes)
        part = 2 * part + upper
        d += 1
    # Two leaf paths part at the depth of their first differing bit; the
    # end whose path is larger lies in the upper half there.
    ones = sp.csr_matrix((np.ones(pattern.nnz, np.int8), pattern.indices,
                          pattern.indptr), shape=(n, n))
    graph = ones + ones.T
    row = np.repeat(path, np.diff(graph.indptr))
    col = path.take(graph.indices)
    parting = _ND_BITS - np.frexp((row ^ col).astype(float))[1]
    none = _ND_BITS + 1
    parting = np.where(row > col, parting, none)
    sep = np.minimum.reduceat(np.r_[parting, none], graph.indptr[:-1])
    sep[graph.indptr[:-1] == graph.indptr[1:]] = none
    depth = np.minimum(depth, sep)
    node = path >> (_ND_BITS - depth)
    # postorder: by the right end of each node's span at full depth, deeper
    # nodes first, then by vertex
    return np.lexsort((-depth, (node + 1) << (_ND_BITS - depth)))


# -- inverse handles ---------------------------------------------------------------

def inverse_handle(block, mode="direct", tol=1e-12, maxiter=2000, label="block"):
    """Operator applying the (approximate) inverse of a square block.

    'direct' factorizes the collapsed matrix once by SuperLU with the
    minimum-degree ordering of A + A^T in symmetric mode: every block the
    preconditioners hand it is a Riesz map, symmetric in structure, and
    symmetric mode prefers diagonal pivots and does not postorder the
    column elimination tree of A^T A, which would spoil an A + A^T order.
    On the babuska H1 and ds-mixed Stokes blocks this has 40% and 52%
    less fill than COLAMD, and factor and triangular solves are cheaper.
    'inner-cg' runs a matrix-free CG per application and raises on
    non-convergence.
    """
    op = as_op(block)
    if op.rows != op.cols:
        raise ValueError(f"inverse handle needs a square block, got {op.shape}")
    if mode == "direct":
        lu = spla.splu(collapse(op).tocsc(), permc_spec="MMD_AT_PLUS_A",
                       options={"SymmetricMode": True})
        return InverseHandle(op.rows, lu.solve,
                             apply_t=lambda v: lu.solve(v, trans="T"), label=label)
    if mode == "inner-cg":
        def apply(v):
            y, rep = cg(op, v, tol=tol, maxiter=maxiter)
            if not rep.converged:
                raise KrylovError(
                    f"inner CG for block '{label}' stalled at {rep.relative_residual:.3e}")
            return y
        return InverseHandle(op.rows, apply, apply_t=apply, label=label)
    raise ValueError(f"unknown inverse mode {mode!r}")


# -- benchmark preconditioners ------------------------------------------------------

DIRECT_BLOCK_LIMIT = 50_000


def _block_inverse(block, label):
    mode = "direct" if as_op(block).rows <= DIRECT_BLOCK_LIMIT else "inner-cg"
    return inverse_handle(block, mode=mode, label=label)


def _mass(space):
    p, q = TrialFunction(space), TestFunction(space)
    return assemble(inner(p, q) * Measure(space.mesh))


def build_preconditioner(problem, system, spaces, hs_mode="eig",
                         darcy_pressure_block="stiffness"):
    """Block-diagonal Riesz-map preconditioners for the demo problems.

    babuska:  diag(H1 inner product, H^{-1/2} multiplier norm)^-1 -- the H1
    block is shared with the system.
    ds-mixed: diag(Stokes block incl. tangential coupling, P1 mass, Hdiv
    inner product with essential flux conditions, P0 mass, H^{1/2} P0
    multiplier norm)^-1.
    ds-primal: as mixed on the Stokes side; the Darcy pressure block is
    configurable (mass | neg-mass | stiffness), stiffness sharing the
    system's Laplacian block with its essential conditions applied.
    """
    if problem == "babuska":
        V, Q = spaces
        return block_diag_mat([
            _block_inverse(system[0, 0], "H1"),
            hs_inverse_block(Q, s=-0.5, hs_mode=hs_mode),
        ])

    if problem == "ds-mixed":
        V1, Q1, V2, Q2, Q = spaces
        u, v = TrialFunction(V2), TestFunction(V2)
        dx2 = Measure(V2.mesh)
        hdiv = assemble(inner(u, v) * dx2 + inner(div(u), div(v)) * dx2)
        bc = DirichletBC(V2, (0.0, 0.0), lambda x: near(x[1] * (1.0 - x[1]), 0.0))
        hdiv, _ = apply_bc(hdiv, np.zeros(V2.dim), [bc], symmetric=True)
        return block_diag_mat([
            _block_inverse(system[0, 0], "stokes"),
            _block_inverse(_mass(Q1), "stokes-pressure"),
            _block_inverse(hdiv, "hdiv"),
            _block_inverse(_mass(Q2), "darcy-pressure"),
            hs_inverse_block(Q, s=0.5, hs_mode=hs_mode),
        ])

    if problem == "ds-primal":
        V1, Q1, Q2p = spaces
        if darcy_pressure_block == "mass":
            darcy = _block_inverse(_mass(Q2p), "darcy-pressure")
        elif darcy_pressure_block == "neg-mass":
            darcy = -1.0 * _block_inverse(_mass(Q2p), "darcy-pressure")
        elif darcy_pressure_block == "stiffness":
            darcy = _block_inverse(system[2, 2], "darcy-pressure")
        else:
            raise ValueError(f"unknown darcy pressure block {darcy_pressure_block!r}")
        return block_diag_mat([
            _block_inverse(system[0, 0], "stokes"),
            _block_inverse(_mass(Q1), "stokes-pressure"),
            darcy,
        ])

    raise ValueError(f"unknown preconditioner problem {problem!r}")


def save_history_csv(report: KrylovReport, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for k, r in enumerate(report.history):
            writer.writerow([k, f"{r:.17g}"])
