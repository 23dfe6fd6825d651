import gc
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
from multifem.forms import Analytic
from multifem.krylov import build_preconditioner, minres, nested_dissection
from multifem.mesh import CellLocator, Mesh
from multifem.opalg import BlockVec, Matrix, collapse
from multifem.reduction import ReductionCache
from multifem.space import FunctionSpace


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

    def test_reproducible_iteration_counts(self):
        a = run_babuska(CaseConfig(case="babuska", n=4, levels=2, seed=5))
        b = run_babuska(CaseConfig(case="babuska", n=4, levels=2, seed=5))
        assert a.iterations() == b.iterations()


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
        bc = DirichletBC(Q, _p_closure, lambda z: near(z[2], 0.1) or near(z[2], 0.9))
        A1, b1 = apply_bc(A1, np.zeros(Q.dim), [bc], symmetric=False)
        ref = spla.spsolve(A1.tocsc(), b1)
        assert np.abs(p - ref).max() < 1e-10

    def test_radius_guard(self):
        with pytest.raises(ValueError, match="radius"):
            run_case(CaseConfig(case="perfusion", n=2, levels=2, radius=0.5))

    def test_ordered_solve_matches_unordered(self):
        sys = assemble_perfusion(8)
        ref = spla.spsolve(collapse(sys["A"]).tocsc(), BlockVec(sys["b"]).concatenate())
        u, p = _solve_perfusion(8, 0.2, 16)
        x = np.concatenate([u.coefficients, p.coefficients])
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_nested_dissection_fill_below_colamd(self):
        sys = assemble_perfusion(12)
        V, Q = sys["W"]
        mono = collapse(sys["A"])
        perm = nested_dissection(mono, np.vstack([V.dof_coords, Q.dof_coords]))
        nd = spla.splu(mono[perm].tocsc()[:, perm], permc_spec="NATURAL")
        colamd = spla.splu(mono.tocsc(), permc_spec="COLAMD")
        assert nd.L.nnz + nd.U.nnz == 264_478
        assert colamd.L.nnz + colamd.U.nnz == 366_702

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
