import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from multifem import krylov
from multifem.bench import _ds_meshes, assemble_babuska
from multifem.krylov import (
    KrylovError, build_preconditioner, fd_dual_pencil, gmres, h1_pencil,
    hs_inverse_block, hs_norm, inverse_handle, minres,
)
from multifem.mesh import Mesh, facet_submesh, near, polyline_mesh, unit_square_mesh
from multifem.opalg import Identity, Matrix, Scaled, collapse
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
        B = build_preconditioner("babuska", sys["A"], sys["W"])
        x, rep = minres(sys["A"], B, b, tol=1e-12, seed=0)
        assert rep.converged
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_history_non_increasing(self):
        sys = assemble_babuska(4)
        B = build_preconditioner("babuska", sys["A"], sys["W"])
        _, rep = minres(sys["A"], B, np.concatenate(sys["b"]), seed=3)
        hist = np.asarray(rep.history)
        assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12))

    def test_zero_rhs_zero_guess_converges_in_zero_iterations(self):
        x, rep = minres(Identity(5), None, np.zeros(5))
        assert rep.converged and rep.iterations == 0
        assert np.abs(x).max() == 0.0

    def test_nonsymmetric_operator_rejected(self):
        A = Matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(KrylovError, match="symmetric"):
            minres(A, None, np.ones(2))

    def test_seed_stability_iteration_counts(self, babuska16):
        B = build_preconditioner("babuska", babuska16["A"], babuska16["W"])
        b = np.concatenate(babuska16["b"])
        counts = []
        for seed in range(5):
            _, rep = minres(babuska16["A"], B, b, seed=seed)
            assert rep.converged and rep.seed == seed
            counts.append(rep.iterations)
        assert max(counts) - min(counts) <= 4      # +/- 2 around the median

    def test_zero_start_residual_is_b_in_the_preconditioner_norm(self, babuska16):
        B = build_preconditioner("babuska", babuska16["A"], babuska16["W"])
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
    mesh = unit_square_mesh(8, 8)
    gamma = facet_submesh(mesh, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0)
                          | near(p[:, 1] * (1 - p[:, 1]), 0))
    Q = build_space(gamma, lagrange(1))
    return h1_pencil(Q)


class TestHsNorm:

    def test_s1_reconstructs_shifted_stiffness(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, 1.0)
        gap = np.linalg.norm(op._forward - S.toarray()) / np.linalg.norm(S.toarray())
        assert gap <= 1e-10

    def test_s0_reconstructs_mass(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, 0.0)
        gap = np.linalg.norm(op._forward - M.toarray()) / np.linalg.norm(M.toarray())
        assert gap <= 1e-10

    def test_half_power_cauchy_schwarz(self, pencil):
        # oracle: direct eigen-expansion gives x^T H^s x = sum lam^s (U^T M x)^2,
        # bounded by the geometric mean of the s=0 and s=1 quadratic forms
        M, S = pencil
        op = hs_norm(M, S, 0.5)
        rng = np.random.default_rng(13)
        H = op._forward
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
            y = op.inverse_op().matvec(op.forward_op().matvec(x))
            assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_negative_exponent_inverse(self, pencil):
        M, S = pencil
        op = hs_norm(M, S, -0.5)
        x = np.random.default_rng(15).standard_normal(M.shape[0])
        y = op.inverse_op().matvec(op.forward_op().matvec(x))
        assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)

    def test_inverse_block_builds_no_forward_operator(self, monkeypatch):
        built = []
        make = krylov.hs_norm
        monkeypatch.setattr(krylov, "hs_norm", lambda *a: built.append(make(*a)) or built[-1])
        gamma = polyline_mesh([(0.0, 0.0), (1.0, 0.0)], 16)
        hs_inverse_block(build_space(gamma, lagrange(1)), -0.5)
        assert len(built) == 1 and "_forward" not in vars(built[0])
        built[0].forward_op()
        assert "_forward" in vars(built[0])

    @pytest.mark.parametrize("shift", [-1.0, -1e-6], ids=["stiffness", "below-mass"])
    def test_eigenvalue_guard_rejects_pencil_below_the_shift(self, pencil, shift):
        # S = stiffness (lam_min = 0) and S = stiffness + (1 - 1e-6) M
        M, S = pencil
        with pytest.raises(ValueError, match="eigenvalue"):
            hs_norm(M, S + shift * M, 0.5)

    def test_eigenvalue_guard_scales_with_rounding(self):
        # babuska's n=512 multiplier pencil (2,048 rows): the dense eigh
        # puts lam_min 1.3e-10 to 2.2e-10 below the exact 1, more than the
        # absolute 1e-10 the guard once allowed
        omega = unit_square_mesh(512)
        gamma = facet_submesh(omega, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0)
                              | near(p[:, 1] * (1 - p[:, 1]), 0))
        Q = build_space(gamma, lagrange(1))
        assert Q.dim == 2048
        assert hs_inverse_block(Q, -0.5).shape == (2048, 2048)

    def test_dimension_guard(self):
        n = 5001
        M = sp.identity(n, format="csr")
        with pytest.raises(ValueError, match="5000"):
            hs_norm(M, M, 0.5)

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


def loop_dual_laplacian(mesh):
    """The dual-grid Laplacian of ``fd_dual_pencil`` by a loop over the
    vertices joining exactly two cells."""
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
    Mesh(np.array([[0, 0], [1, 0], [2, 0.5], [2, -0.5], [3, 1]]),   # three cells
         np.array([[0, 1], [1, 2], [3, 1], [2, 4]])),                # at vertex 1
], ids=["interface", "polyline", "branch"])
def test_fd_dual_pencil_matches_loop(mesh):
    M, S = fd_dual_pencil(build_space(mesh, dg0()))
    ref = (loop_dual_laplacian(mesh) + M).toarray()
    assert np.abs(S.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()


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
        from multifem.krylov import _mass
        sys = assemble_darcy_stokes(4, "primal")
        V1, Q1, Q2p = sys["W"]
        B = build_preconditioner("ds-primal", sys["A"], sys["W"])
        blocks = [collapse(sys["A"][0, 0]).toarray(), _mass(Q1).toarray(),
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
    def test_babuska_blocks_spd_in_action(self, babuska16):
        B = build_preconditioner("babuska", babuska16["A"], babuska16["W"])
        rng = np.random.default_rng(18)
        n = sum(V.dim for V in babuska16["W"])
        for _ in range(5):
            x = rng.standard_normal(n)
            assert x @ B.matvec(x) > 0

    def test_babuska_symmetric_in_action(self, babuska16):
        B = build_preconditioner("babuska", babuska16["A"], babuska16["W"])
        rng = np.random.default_rng(19)
        n = sum(V.dim for V in babuska16["W"])
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert abs(B.matvec(x) @ y - x @ B.matvec(y)) <= 1e-10 * abs(B.matvec(x) @ y)

    def test_mixed_preconditioner_five_spd_blocks(self):
        from multifem.bench import assemble_darcy_stokes
        sys = assemble_darcy_stokes(4, "mixed")
        B = build_preconditioner("ds-mixed", sys["A"], sys["W"])
        assert len(B.row_dims) == 5
        rng = np.random.default_rng(20)
        for i in range(5):
            blk = B[i, i]
            for _ in range(5):
                x = rng.standard_normal(blk.shape[1])
                assert x @ blk.matvec(x) > 0

