import gc
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from multifem import bench
from multifem.assemble import load_matrix_market
from multifem.bench import (
    CaseConfig, _solve_perfusion, assemble_babuska, assemble_perfusion,
    export_case, run_babuska, run_case, run_restrict_demo,
)
from multifem.assemble import assemble
from multifem.forms import Analytic, Coefficient, FormError, Measure, div, grad, inner
from multifem.krylov import build_preconditioner, minres
from multifem.manufactured import babuska_data, darcy_stokes_data
from multifem.mesh import CellLocator, Mesh, unit_square_mesh
from multifem.opalg import BlockVec, Matrix, collapse
from multifem.quadrature import MAX_DEGREE
from multifem.reduction import ReductionCache
from multifem.space import (
    Function, FunctionSpace, build_space, interpolate, lagrange, rt0, vector_lagrange,
)


class TestCaseConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CaseConfig(n=1)
        with pytest.raises(ValueError):
            CaseConfig(levels=0)
        with pytest.raises(ValueError):
            CaseConfig(tol=2.0)


class TestBabuskaCase:
    def test_zero_data_zero_solution_zero_iterations(self):
        zero = Analytic(lambda p: np.zeros(np.shape(np.asarray(p)[..., 0])), degree=1)
        sys = assemble_babuska(4, data={"f": zero, "g": zero})
        b = sys["b"].concatenate()
        assert np.abs(b).max() == 0.0
        B = build_preconditioner("babuska", sys["A"], sys["W"])
        x, rep = minres(sys["A"], B, b, x0=np.zeros(len(b)))
        assert rep.converged and rep.iterations == 0
        assert np.abs(x).max() == 0.0

    def test_study_record_and_csv(self, tmp_path):
        rec = run_babuska(CaseConfig(case="babuska", n=4, levels=2))
        assert rec.ok
        path = tmp_path / "babuska.csv"
        rec.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# case=babuska")
        header = lines[1].split(",")
        assert header[:4] == ["level", "h", "dofs_total", "iters"]
        assert "err_u_h1" in header and "rate_u_h1" in header
        assert header[-1] == "seconds"
        assert len(lines) == 2 + 2

    def test_hinted_trace_builds_no_locator(self):
        # every boundary dof is evaluated from its parent cell
        sys = assemble_babuska(32)
        assert sys["omega"]._locator is None

    def test_reproducible_iteration_counts(self):
        a = run_babuska(CaseConfig(case="babuska", n=4, levels=2, seed=5))
        b = run_babuska(CaseConfig(case="babuska", n=4, levels=2, seed=5))
        assert a.iterations() == b.iterations()


class TestErrorNorms:
    """Each error norm is assembled as one integral; it equals the sum of
    its value and derivative parts assembled as two."""

    @staticmethod
    def two_integrals(fn, exact, deriv, deriv_exact, deriv_shape):
        mesh = fn.space.mesh
        q = MAX_DEGREE[mesh.tdim]
        e = Coefficient(fn) - Analytic(exact, shape=fn.space.value_shape, degree=3)
        de = deriv(Coefficient(fn)) - Analytic(deriv_exact, shape=deriv_shape, degree=3)
        return math.sqrt(abs(assemble(inner(e, e) * Measure(mesh), quad_degree=q)
                             + assemble(inner(de, de) * Measure(mesh), quad_degree=q)))

    @staticmethod
    def perturbed(space, f):
        """Interpolant of f plus a fixed perturbation, so that the error is
        not the interpolation error alone."""
        c = interpolate(space, f).coefficients
        return Function(space, c + 1e-2 * np.random.default_rng(3).standard_normal(len(c)))

    def test_h1_scalar_and_vector(self):
        mesh = unit_square_mesh(5, 4)
        bd = babuska_data()
        uh = self.perturbed(build_space(mesh, lagrange(2)), bd["u"])
        one = bench.err_h1(uh, bd["u"], bd["grad_u"])
        two = self.two_integrals(uh, bd["u"], grad, bd["grad_u"], (2,))
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two
        data = darcy_stokes_data()
        u1h = self.perturbed(build_space(mesh, vector_lagrange(2)), data.u1)
        one = bench.err_h1(u1h, data.u1, data.grad_u1)
        two = self.two_integrals(u1h, data.u1, grad, data.grad_u1, (2, 2))
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two

    def test_hdiv(self):
        data = darcy_stokes_data()
        u2h = self.perturbed(build_space(unit_square_mesh(4, 6), rt0()), data.u2)
        one = bench.err_hdiv(u2h, data.u2, data.f2)
        two = self.two_integrals(u2h, data.u2, div, data.f2, ())
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two


class TestPerfusionCase:
    def test_beta_zero_decouples(self):
        # with no exchange the bulk is pure diffusion with zero data and the
        # vessel pressure solves its own 1d problem
        sys = assemble_perfusion(4, beta=0.0)
        V, Q = sys["W"]
        mono = collapse(sys["A"])
        x = spla.spsolve(mono.tocsc(), BlockVec(sys["b"]).concatenate())
        u = x[:V.dim]
        p = x[V.dim:]
        assert np.abs(u).max() < 1e-10
        # standalone vessel solve: beta = 0 leaves -p'' = 0 between the ends
        from multifem.assemble import DirichletBC, apply_bc, assemble
        from multifem.bench import _p_closure
        from multifem.forms import Measure, TestFunction, TrialFunction, grad, inner
        from multifem.mesh import near
        ph, q = TrialFunction(Q), TestFunction(Q)
        dl = Measure(Q.mesh)
        A1 = assemble(inner(grad(ph), grad(q)) * dl)
        bc = DirichletBC(Q, _p_closure, lambda z: near(z[:, 2], 0.1) | near(z[:, 2], 0.9))
        A1, b1 = apply_bc(A1, np.zeros(Q.dim), [bc], symmetric=False)
        ref = spla.spsolve(A1.tocsc(), b1)
        assert np.abs(p - ref).max() < 1e-10

    def test_radius_guard(self):
        with pytest.raises(ValueError, match="radius"):
            run_case(CaseConfig(case="perfusion", n=2, levels=2, radius=0.5))

    def test_n_quad_guard(self):
        # zero circle points once gave a zero average and a decoupled
        # system that reported ok
        with pytest.raises(FormError, match="n_quad"):
            run_case(CaseConfig(case="perfusion", n=2, levels=2, n_quad=0))

    def test_ordered_solve_matches_unordered(self):
        sys = assemble_perfusion(8)
        ref = spla.spsolve(collapse(sys["A"]).tocsc(), BlockVec(sys["b"]).concatenate())
        u, p = _solve_perfusion(8, 0.2, 16)
        x = np.concatenate([u.coefficients, p.coefficients])
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_minimum_degree_fill_on_the_true_pattern(self):
        # minimum degree on A + A^T has about half of COLAMD's fill on the
        # true pattern
        A = collapse(assemble_perfusion(12)["A"]).tocsc()
        assert A.nnz == 14_371
        mmd = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        colamd = spla.splu(A, permc_spec="COLAMD")
        assert mmd.L.nnz + mmd.U.nnz == 131_629
        assert colamd.L.nnz + colamd.U.nnz == 246_959

    # Every bulk coupling that vanishes in exact arithmetic cancels exactly
    # (to a zero that collapsing drops), so the assembler prunes nothing
    # from the operator at any of these sizes.
    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_exact_cancellation_operator_bitwise_unpruned(self, n, unpruned):
        def operator():
            A = collapse(assemble_perfusion(n)["A"]).tocsr()
            A.sort_indices()
            return A
        pruned, full = operator(), unpruned(operator)
        for a, b in [(pruned.indptr, full.indptr), (pruned.indices, full.indices),
                     (pruned.data, full.data)]:
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_singular_system_raises(self, monkeypatch):
        def singular(n, *args, **kwargs):
            sys = assemble_perfusion(n, *args, **kwargs)
            mono = collapse(sys["A"]).tocsr()
            assert mono[0].nnz == 1 and mono[0, 0] == 1.0     # a Dirichlet row
            keep = np.ones(mono.shape[0])
            keep[0] = 0.0
            sys["A"] = Matrix(sp.diags(keep) @ mono)
            return sys
        monkeypatch.setattr(bench, "assemble_perfusion", singular)
        with pytest.raises(np.linalg.LinAlgError, match=r"n=4 \(130 dofs\)"):
            run_case(CaseConfig(case="perfusion", n=4, levels=2))


@pytest.mark.parametrize("case,n,levels", [
    ("babuska", 4, 1), ("ds-mixed", 4, 1), ("perfusion", 4, 2)])
def test_run_leaves_no_cyclic_meshes_or_spaces(case, n, levels):
    """Meshes, spaces and locators of a finished run are freed by reference
    counting alone; a cycle through them would hold their arrays until a
    full collection."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_case(CaseConfig(case=case, n=n, levels=levels))
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (Mesh, FunctionSpace, CellLocator))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


class TestRestrictDemo:
    def test_checks_pass_and_single_build(self):
        rec = run_restrict_demo(CaseConfig(case="restrict-demo", n=8))
        assert rec.ok
        assert rec.rows[0]["err_restrict_interp"] < 1e-12
        assert rec.rows[0]["err_rowsum"] < 1e-12


class TestExport:
    def test_babuska_export_matches_collapse(self, tmp_path):
        out = export_case("babuska", 4, tmp_path)
        files = sorted(os.listdir(out))
        assert "A_0_0.mtx" in files and "A_1_0.mtx" in files
        assert "b_0.mtx" in files and "b_1.mtx" in files
        assert any(f.startswith("reduction_trace") for f in files)
        cache = ReductionCache()
        sys = assemble_babuska(4, cache)
        back = load_matrix_market(os.path.join(out, "A_1_0.mtx"))
        ref = collapse(sys["A"][1, 0])
        assert np.abs((back - ref).toarray()).max() < 1e-15


class TestCli:
    def test_run_and_export_smoke(self, tmp_path):
        from multifem.cli import main
        out = tmp_path / "res"
        code = main(["run", "--case", "restrict-demo", "--n", "4",
                     "--out", str(out)])
        assert code == 0
        assert (out / "restrict-demo.csv").exists()
        code = main(["export", "--case", "babuska", "--n", "3",
                     "--out", str(tmp_path / "mats")])
        assert code == 0
        assert (tmp_path / "mats" / "A_0_0.mtx").exists()

    def test_run_solver_case(self, tmp_path):
        from multifem.cli import main
        out = tmp_path / "res"
        code = main(["run", "--case", "babuska", "--n", "4", "--levels", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        text = (out / "babuska.csv").read_text()
        assert text.splitlines()[1].split(",")[0] == "level"
        assert len(text.splitlines()) == 4

    def test_unknown_case_rejected(self):
        from multifem.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--case", "nope"])
