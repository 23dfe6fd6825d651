import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hs_oracle import DenseHsNorm
from multifem import krylov
from multifem.bench import _ds_meshes, assemble_babuska
from multifem.krylov import (
    KrylovError, build_preconditioner, fd_dual_pencil, gmres, h1_pencil,
    hs_norm, inverse_handle, mass_matrix, minres,
)
from multifem.mesh import Mesh, facet_submesh, near, polyline_mesh, unit_square_mesh
from multifem.opalg import Identity, Matrix, OpError, Scaled, collapse
from multifem.space import build_space, dg0, lagrange


@pytest.fixture(scope="module")
def babuska16():
    return assemble_babuska(16)


class TestMinres:
    def test_identity_converges_immediately(self):
        b = np.ones(8)
        x, rep = minres(Identity(8), None, b, seed=0)
        assert rep.converged and rep.iterations <= 1
        assert np.abs(x - b).max() < 1e-10

    def test_perfectly_clustered_spectrum(self):
        A = Matrix(np.diag([1.0, 2.0]))
        B = Matrix(np.diag([1.0, 0.5]))
        x, rep = minres(A, B, np.array([3.0, 4.0]), seed=1)
        assert rep.converged and rep.iterations <= 1

    def test_small_babuska_matches_direct_solve(self):
        sys = assemble_babuska(4)
        A = collapse(sys["A"])
        b = np.concatenate(sys["b"])
        ref = spla.spsolve(A.tocsc(), b)
        B = build_preconditioner(sys["riesz"])
        x, rep = minres(sys["A"], B, b, tol=1e-12, seed=0)
        assert rep.converged
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_history_non_increasing(self):
        sys = assemble_babuska(4)
        B = build_preconditioner(sys["riesz"])
        _, rep = minres(sys["A"], B, np.concatenate(sys["b"]), seed=3)
        hist = np.asarray(rep.history)
        assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12))

    def test_zero_rhs_zero_guess_converges_in_zero_iterations(self):
        x, rep = minres(Identity(5), None, np.zeros(5))
        assert rep.converged and rep.iterations == 0
        assert np.abs(x).max() == 0.0

    # the probe is relative to |Ax||y|: at 1e-12 an absolute floor of 1
    # once let the operator through
    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_nonsymmetric_operator_rejected(self, scale):
        A = Matrix(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(KrylovError, match="symmetric"):
            minres(A, None, np.ones(2))

    # every quantity of the recurrence scales with the operator; a floor of
    # eps on gamma once reported convergence at a relative residual of 0.99
    # (scale 1e-17) and 1.0 (scale 1e-20)
    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e-17, 1e-20])
    def test_iterations_independent_of_operator_scale(self, scale):
        n = 50
        T = sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        A = (scale * T).tocsr()
        b = np.random.default_rng(0).standard_normal(n)
        x, rep = minres(Matrix(A), None, b)
        assert rep.converged and rep.iterations == 33
        assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b)

    def test_zero_operator_is_not_converged(self):
        x, rep = minres(Matrix(sp.csr_matrix((4, 4))), None, np.ones(4))
        assert not rep.converged and np.abs(x).max() == 0.0

    def test_seed_stability_iteration_counts(self, babuska16):
        B = build_preconditioner(babuska16["riesz"])
        b = np.concatenate(babuska16["b"])
        counts = []
        for seed in range(5):
            _, rep = minres(babuska16["A"], B, b, seed=seed)
            assert rep.converged and rep.seed == seed
            counts.append(rep.iterations)
        assert max(counts) - min(counts) <= 4      # +/- 2 around the median

    def test_zero_start_residual_is_b_in_the_preconditioner_norm(self, babuska16):
        B = build_preconditioner(babuska16["riesz"])
        b = np.concatenate(babuska16["b"])
        _, rep = minres(babuska16["A"], B, b, seed=None)
        assert rep.converged and rep.seed is None
        assert rep.history[0] == pytest.approx(np.sqrt(b @ B.matvec(b)),
                                               rel=1e-13)


class TestGmres:
    def test_identity(self):
        b = np.ones(6)
        x, rep = gmres(Identity(6), None, b, seed=0)
        assert rep.converged and rep.iterations <= 1

    # breakdown compares the orthogonalized vector with its norm before
    # orthogonalization; against max(1, |Bb|) it once stopped at 1e-16
    # after one iteration with a relative residual of 0.34
    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_breakdown_independent_of_operator_scale(self, scale):
        n = 30
        N = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -2.0 * np.ones(n - 1)], [-1, 0, 1])
        A = (scale * N).tocsr()
        b = np.ones(n)
        x, rep = gmres(Matrix(A), None, b)
        assert rep.converged and rep.iterations == 30
        assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b)

    # a zero rotation once read as a zero residual: converged, with an
    # x of infinities
    @pytest.mark.parametrize("diagonal", [[0.0, 0.0, 0.0], [1.0, 0.0]])
    def test_singular_krylov_space_is_not_converged(self, diagonal):
        b = np.ones(len(diagonal))
        x, rep = gmres(Matrix(np.diag(diagonal)), None, b)
        assert not rep.converged and np.isfinite(x).all()

    def test_nonsymmetric_2x2_two_iterations(self):
        A = Matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        x, rep = gmres(A, None, np.array([2.0, 1.0]))
        assert rep.converged and rep.iterations <= 2
        assert np.abs(x - [1.0, 1.0]).max() < 1e-10

    def test_matches_minres_iterate_for_iterate_on_spd(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((30, 30))
        S = Matrix(A @ A.T + 30 * np.eye(30))
        b = rng.standard_normal(30)
        _, rg = gmres(S, None, b, tol=1e-10, seed=2)
        _, rm = minres(S, None, b, tol=1e-10, seed=2)
        k = min(len(rg.history), len(rm.history))
        gap = max(abs(a - m) for a, m in zip(rg.history[:k], rm.history[:k]))
        assert gap <= 1e-8 * rg.history[0]

    def test_history_monotone(self):
        rng = np.random.default_rng(10)
        A = Matrix(np.eye(25) + 0.5 * rng.standard_normal((25, 25)))
        _, rep = gmres(A, None, rng.standard_normal(25), seed=0)
        hist = np.asarray(rep.history)
        assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12))

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(11)
        A = Matrix(np.diag(np.linspace(1e-8, 1, 40)))
        _, rep = gmres(A, None, rng.standard_normal(40), tol=1e-14, maxiter=5)
        assert not rep.converged and rep.iterations == 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """A non-finite right-hand side or operator raises at once, naming
    which, instead of iterating to ``maxiter`` on NaNs."""

    @pytest.mark.parametrize("solver", [minres, gmres])
    def test_nan_rhs(self, solver):
        b = np.ones(50)
        b[7] = np.nan
        with pytest.raises(KrylovError, match="right-hand side is not finite"):
            solver(Identity(50), None, b)

    @pytest.mark.parametrize("solver", [minres, gmres])
    def test_inf_operator_entry(self, solver):
        A = sp.diags(np.linspace(1.0, 2.0, 50)).tolil()
        A[3, 3] = np.inf
        with pytest.raises(KrylovError, match="residual is not finite at iteration 0"):
            solver(Matrix(A.tocsr()), None, np.ones(50))

    def test_overflow_reported_at_its_iteration(self):
        A = Matrix(np.diag([1e300, 1.0]))
        with pytest.raises(KrylovError, match="residual is not finite at iteration 1"):
            minres(A, None, np.ones(2))


class TestRightHandSide:
    """The right-hand side is required and must be a vector of the
    operator's size; a wrong one raises before any iteration."""

    @pytest.mark.parametrize("solver", [minres, gmres])
    def test_missing_rhs(self, solver):
        for args in [(Identity(4),), (Identity(4), None)]:
            with pytest.raises(TypeError, match="'b'"):
                solver(*args)

    @pytest.mark.parametrize("solver", [minres, gmres])
    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), ()])
    def test_wrong_length_rhs(self, solver, shape):
        msg = re.escape(f"right-hand side of shape {shape} for an operator of shape (4, 4)")
        with pytest.raises(KrylovError, match=msg):
            solver(Identity(4), None, np.ones(shape))


@pytest.fixture(scope="module")
def pencil():
    return h1_pencil(boundary_space(8))


def test_h1_pencil_is_the_assembled_forms_bitwise(babuska16):
    # each matrix is the assembly of its one form
    from multifem.assemble import assemble
    from multifem.forms import Measure, TestFunction, TrialFunction, grad, inner
    Q = babuska16["W"][1]
    p, q = TrialFunction(Q), TestFunction(Q)
    dx = Measure(Q.mesh)
    M, S = h1_pencil(Q)
    for got, form in ((M, inner(p, q) * dx),
                      (S, inner(grad(p), grad(q)) * dx + inner(p, q) * dx)):
        want = assemble(form)
        assert got.shape == want.shape == (64, 64)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


def as_dense(op):
    """The matrix of a lazy operator, one column per unit vector."""
    return np.column_stack([op.matvec(e) for e in np.eye(op.cols)])


def boundary_space(n):
    """P1 on the boundary loop of the unit square at resolution n."""
    omega = unit_square_mesh(n)
    gamma = facet_submesh(omega, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0)
                          | near(p[:, 1] * (1 - p[:, 1]), 0))
    return build_space(gamma, lagrange(1))


class TestHsNorm:

    def test_s1_reconstructs_shifted_stiffness(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, 1.0)
        assert tuple(op) == (op.forward, op.inverse)
        gap = np.linalg.norm(as_dense(op.forward) - S.toarray()) / np.linalg.norm(S.toarray())
        assert gap <= 1e-10
        x = np.random.default_rng(12).standard_normal(M.shape[0])
        y = op.inverse.matvec(op.forward.matvec(x))
        assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_s0_reconstructs_mass(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, 0.0)
        gap = np.linalg.norm(as_dense(op.forward) - M.toarray()) / np.linalg.norm(M.toarray())
        assert gap <= 1e-10
        x = np.random.default_rng(12).standard_normal(M.shape[0])
        y = op.inverse.matvec(op.forward.matvec(x))
        assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_half_power_cauchy_schwarz(self, pencil):
        # x^T H^1/2 x = sum lam^1/2 (U^T M x)^2 is bounded by the geometric
        # mean of the s=0 and s=1 quadratic forms
        M, S = pencil
        op = hs_norm(M, S, 0.5)
        rng = np.random.default_rng(13)
        H = as_dense(op.forward)
        Md, Sd = M.toarray(), S.toarray()
        for _ in range(100):
            x = rng.standard_normal(H.shape[0])
            half = x @ H @ x
            bound = np.sqrt(x @ Md @ x) * np.sqrt(x @ Sd @ x)
            assert half <= bound * (1 + 1e-12)

    def test_forward_inverse_identity(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, 0.5)
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.standard_normal(M.shape[0])
            y = op.inverse.matvec(op.forward.matvec(x))
            assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_negative_exponent_inverse(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, -0.5)
        x = np.random.default_rng(15).standard_normal(M.shape[0])
        y = op.inverse.matvec(op.forward.matvec(x))
        assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_preconditioner_factors_once(self, monkeypatch):
        # the shift check, the mass matrix and the stacked shifted pencils,
        # each factored once however many poles and applications
        factored = []
        splu = krylov.spla.splu
        monkeypatch.setattr(krylov.spla, "splu",
                            lambda A, **kw: factored.append(A.shape) or splu(A, **kw))
        Q = build_space(polyline_mesh([(0.0, 0.0), (1.0, 0.0)], 16), lagrange(1))
        B = build_preconditioner({"multiplier": hs_norm(*krylov.pencil(Q), -0.5).inverse})
        poles = krylov.rational_inverse_sqrt(krylov.spectral_bound(*krylov.pencil(Q)))[1]
        assert poles.size > 1
        assert factored == [(17, 17), (17, 17), (17 * poles.size, 17 * poles.size)]
        x = np.random.default_rng(23).standard_normal(17)
        for _ in range(5):
            B.matvec(x)
        assert len(factored) == 3

    @pytest.mark.parametrize("shift", [-1.0, -1e-6], ids=["stiffness", "below-mass"])
    def test_eigenvalue_guard_rejects_pencil_below_the_shift(self, pencil, shift):
        # S = stiffness (lam_min = 0) and S = stiffness + (1 - 1e-6) M
        M, S = pencil
        with pytest.raises(ValueError, match="eigenvalue"):
            hs_norm(M, S + shift * M, 0.5)

    def test_eigenvalue_guard_scales_with_rounding(self):
        # babuska's n=512 multiplier pencil (2,048 rows): its LDL^T puts
        # lam_min below the exact 1 by 0.21 eps b, more than an absolute
        # 1e-10 would allow
        Q = boundary_space(512)
        assert Q.dim == 2048
        B = build_preconditioner({"multiplier": hs_norm(*krylov.pencil(Q), -0.5).inverse})
        assert B.shape == (2048, 2048)

    def test_pencil_beyond_the_old_dense_limit(self):
        # 5,002 rows, which the dense eigensolve refused above 5,000
        Q = build_space(polyline_mesh([(0.0, 0.0), (1.0, 0.0)], 5001), lagrange(1))
        M, S = krylov.pencil(Q)
        assert M.shape == (5002, 5002)
        rng = np.random.default_rng(24)
        for s in (0.5, -0.5):
            op = hs_norm(M, S, s)
            x = rng.standard_normal(M.shape[0])
            y = op.inverse.matvec(op.forward.matvec(x))
            assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    @pytest.mark.parametrize("s", [0.25, 0.3, 2.0 / 3.0, -1.0, 2.0])
    def test_unsupported_exponent(self, pencil, s):
        M, S = pencil
        with pytest.raises(ValueError, match="exponent"):
            hs_norm(M, S, s)

    def test_fd_dual_pencil_on_p0(self):
        mesh = unit_square_mesh(2, 4, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(mesh, lambda p: near(p[:, 0], 0.5))
        Q = build_space(gamma, dg0())
        M, S = fd_dual_pencil(Q)
        assert M.shape == (Q.dim, Q.dim)
        lam = np.linalg.eigvalsh(np.linalg.solve(M.toarray(), S.toarray()))
        assert lam.min() >= 1 - 1e-10
        # constants see only the mass shift
        ones = np.ones(Q.dim)
        assert np.abs(S @ ones - M @ ones).max() < 1e-12


# -- the rational realization against the dense eigen one -----------------------

MULTIPLIER_SPACES = {
    **{f"babuska-{n}": (lambda n=n: boundary_space(n)) for n in (16, 32, 64, 128, 256)},
    **{f"ds-mixed-{n}": (lambda n=n: build_space(_ds_meshes(n)[2], dg0())) for n in (8, 32)},
}


@pytest.mark.parametrize("name", MULTIPLIER_SPACES)
def test_rational_hs_norm_matches_the_eigen_realization(name):
    # both operators at s = +-1/2 agree with the eigen ones to twice the
    # approximation's tolerance: the approximation and the solves' rounding
    M, S = krylov.pencil(MULTIPLIER_SPACES[name]())
    dense = DenseHsNorm(M, S)
    X = np.random.default_rng(25).standard_normal((M.shape[0], 6))
    for s in (0.5, -0.5):
        op = hs_norm(M, S, s)
        for got, want in ((op.forward, dense.forward(s)),
                          (op.inverse, dense.inverse(s))):
            ref = want @ X
            gap = np.column_stack([got.matvec(x) for x in X.T]) - ref
            assert np.linalg.norm(gap) <= 2 * krylov.RATIONAL_TOL * np.linalg.norm(ref)


@pytest.mark.parametrize("space", [
    lambda: boundary_space(16),                                            # closed P1 loop
    lambda: build_space(polyline_mesh([(0, 0), (1, 0.3), (1.5, 1)], 20), lagrange(1)),
    lambda: build_space(polyline_mesh([(0, 0), (1, 0.3), (1.5, 1)], 20), dg0()),
    lambda: build_space(_ds_meshes(8)[2], dg0()),                          # P0 interface
], ids=["p1-loop", "p1-open", "p0-polyline", "p0-interface"])
def test_spectral_bound_holds(space):
    M, S = krylov.pencil(space())
    lam = DenseHsNorm(M, S).eigenvalues
    assert lam.max() <= krylov.spectral_bound(M, S)


def test_spectral_bound_refuses_a_mass_without_diagonal_dominance():
    # P1 on a surface: each row's off-diagonal sum equals its diagonal
    M = mass_matrix(build_space(unit_square_mesh(3), lagrange(1)))
    with pytest.raises(ValueError, match="Gershgorin"):
        krylov.spectral_bound(M, M)


@pytest.mark.parametrize("b", np.geomspace(1.0, 1e9, 28))
def test_rational_inverse_sqrt_is_positive_and_within_tolerance(b):
    c0, poles, weights = krylov.rational_inverse_sqrt(b)
    assert c0 > 0 and (poles < 0).all() and (weights > 0).all()
    lam = np.geomspace(1.0, b, 20001)
    r = c0 + (weights / (lam[:, None] - poles)).sum(axis=1)
    assert np.abs(np.sqrt(lam) * r - 1.0).max() <= krylov.RATIONAL_TOL


@pytest.mark.parametrize("b, degree", [
    (1.0, 1), (np.nextafter(1.0, 2.0), 1), (1.5, 4), (771.0, 13), (16385.0, 17),
    (196611.0, 20), (3145731.0, 24), (1e9, 32),
])
def test_rational_degree_is_the_least_within_tolerance(b, degree):
    # degrees found by searching from m = 1; the search starts at the
    # nome estimate, which must not skip past them
    assert krylov.rational_inverse_sqrt(b)[1].size == degree


def loop_dual_laplacian(mesh):
    """The dual-grid Laplacian of ``fd_dual_pencil`` by a loop over the
    vertices joining two cells."""
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
        w = 1.0 / np.linalg.norm(centers[a] - centers[b])
        rows += [a, a, b, b]
        cols += [a, b, a, b]
        vals += [w, -w, -w, w]
    n = mesh.num_cells
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("mesh", [
    _ds_meshes(8)[2],                                            # ds-mixed interface
    polyline_mesh([(0, 0, 0), (1, 0.2, 0), (1.3, 1, 0.5)], 5),   # one joint, two ends
], ids=["interface", "polyline"])
def test_fd_dual_pencil_matches_loop(mesh):
    M, S = fd_dual_pencil(build_space(mesh, dg0()))
    ref = (loop_dual_laplacian(mesh) + M).toarray()
    assert np.abs(S.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("mesh,vertex,cells", [
    (Mesh(np.array([[0, 0], [1, 0], [0, 1], [-1, -1]]),          # a 3-arm star
          np.array([[0, 1], [0, 2], [0, 3]])), 0, 3),
    (Mesh(np.array([[0, 0], [1, 0], [2, 0.5], [2, -0.5], [3, 1]]),   # three cells
          np.array([[0, 1], [1, 2], [3, 1], [2, 4]])), 1, 3),          # at vertex 1
], ids=["star", "branch"])
def test_fd_dual_pencil_refuses_branched_curves(mesh, vertex, cells):
    # a branch point has no two-point stencil; the star once gave K = 0,
    # a pencil (M, M) whose H^{1/2} block is the mass
    with pytest.raises(ValueError, match=f"vertex {vertex} joins {cells} cells"):
        fd_dual_pencil(build_space(mesh, dg0()))


class TestInverseHandle:
    def test_roundtrip_direct(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((15, 15))
        S = sp.csr_matrix(A @ A.T + 15 * np.eye(15))
        inv = inverse_handle(Matrix(S), label="m")
        for _ in range(5):
            x = rng.standard_normal(15)
            assert np.linalg.norm(inv.matvec(S @ x) - x) <= 1e-9 * np.linalg.norm(x)

    def test_singular_block_names_its_label(self):
        S = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(10, 10)).tolil()
        S[9, :] = 0.0                                       # one zero row
        with pytest.raises(KrylovError, match=r"'darcy' \(10 rows, 26 stored") as err:
            inverse_handle(Matrix(S.tocsr()), label="darcy")
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_identity_block(self):
        inv = inverse_handle(Identity(4), label="id")
        x = np.arange(4.0)
        assert np.abs(inv.matvec(x) - x).max() < 1e-12

    def test_mismatched_length_rejected(self):
        inv = inverse_handle(Identity(4))
        with pytest.raises(Exception):
            inv.matvec(np.zeros(5))

    def test_direct_on_structurally_nonsymmetric_block(self):
        # symmetric mode orders A + A^T; a block outside that assumption
        # must still be solved
        rng = np.random.default_rng(21)
        S = (sp.random(80, 80, density=0.06, random_state=21, format="csr")
             + 4.0 * sp.eye(80)).tocsr()
        assert (S != S.T).nnz and ((S != 0) != (S.T != 0)).nnz
        inv = inverse_handle(Matrix(S), label="nonsym")
        dense = S.toarray()
        for _ in range(3):
            b = rng.standard_normal(80)
            ref = np.linalg.solve(dense, b)
            assert np.linalg.norm(inv.matvec(b) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_direct_on_ds_primal_preconditioner(self):
        from multifem.bench import assemble_darcy_stokes
        sys = assemble_darcy_stokes(4, "primal")
        V1, Q1, Q2p = sys["W"]
        B = build_preconditioner(sys["riesz"])
        blocks = [collapse(sys["A"][0, 0]).toarray(), mass_matrix(Q1).toarray(),
                  collapse(sys["A"][2, 2]).toarray()]
        offs = np.cumsum([0] + [b.shape[0] for b in blocks])
        rng = np.random.default_rng(22)
        x = rng.standard_normal(offs[-1])
        y = B.matvec(x)
        for k, blk in enumerate(blocks):
            ref = np.linalg.solve(blk, x[offs[k]:offs[k + 1]])
            got = y[offs[k]:offs[k + 1]]
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


class TestPreconditioners:
    def test_no_riesz_entries_named(self):
        # once a bare IndexError from the empty block diagonal
        with pytest.raises(OpError, match="no Riesz-map entries"):
            build_preconditioner({})

    def test_babuska_blocks_spd_in_action(self, babuska16):
        B = build_preconditioner(babuska16["riesz"])
        rng = np.random.default_rng(18)
        n = sum(V.dim for V in babuska16["W"])
        for _ in range(5):
            x = rng.standard_normal(n)
            assert x @ B.matvec(x) > 0

    def test_babuska_symmetric_in_action(self, babuska16):
        B = build_preconditioner(babuska16["riesz"])
        rng = np.random.default_rng(19)
        n = sum(V.dim for V in babuska16["W"])
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert abs(B.matvec(x) @ y - x @ B.matvec(y)) <= 1e-10 * abs(B.matvec(x) @ y)

    def test_mixed_preconditioner_five_spd_blocks(self):
        from multifem.bench import assemble_darcy_stokes
        sys = assemble_darcy_stokes(4, "mixed")
        B = build_preconditioner(sys["riesz"])
        assert len(B.row_dims) == 5
        rng = np.random.default_rng(20)
        for i in range(5):
            blk = B[i, i]
            for _ in range(5):
                x = rng.standard_normal(blk.shape[1])
                assert x @ blk.matvec(x) > 0


    @pytest.mark.parametrize("case, order", [
        ("babuska", ["H1"]),
        ("ds-mixed", ["stokes", "stokes-pressure", "hdiv", "darcy-pressure"]),
    ])
    def test_blocks_inverted_in_order(self, monkeypatch, case, order):
        # every factorization before a block comes first; the multiplier's
        # norm, built by the assembler, is its inverse and is used as it is
        from multifem.bench import CASES
        sys = CASES[case][1](4)
        calls = []
        factor = krylov.inverse_handle
        monkeypatch.setattr(krylov, "inverse_handle",
                            lambda blk, label: calls.append(label) or factor(blk, label))
        B = build_preconditioner(sys["riesz"])
        assert calls == order
        assert list(sys["riesz"]) == [*order, "multiplier"]
        assert B[len(order), len(order)] is sys["riesz"]["multiplier"]

    def test_singular_block_named_by_its_label(self):
        singular = sp.diags([1.0, 1.0, 0.0]).tocsr()
        with pytest.raises(KrylovError, match="'flux'"):
            build_preconditioner({"mass": sp.identity(3, format="csr"), "flux": singular})

    def test_mixed_hdiv_block_is_the_flux_constrained_inner_product(self):
        # the case's own flux condition, with its boundary values, gives
        # the matrix of a zero-valued condition on the horizontal edges
        from multifem.assemble import DirichletBC, apply_bc, assemble
        from multifem.bench import assemble_darcy_stokes
        from multifem.forms import Measure, TestFunction, TrialFunction, div, inner
        sys = assemble_darcy_stokes(8, "mixed")
        V2, got = sys["W"][2], sys["riesz"]["hdiv"]
        u, v = TrialFunction(V2), TestFunction(V2)
        dx2 = Measure(V2.mesh)
        ref = assemble(inner(u, v) * dx2 + inner(div(u), div(v)) * dx2)
        bc = DirichletBC(V2, (0.0, 0.0), lambda x: near(x[:, 1] * (1.0 - x[:, 1]), 0.0))
        ref, _ = apply_bc(ref, np.zeros(V2.dim), [bc], symmetric=True)
        assert got.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))
