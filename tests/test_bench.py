import gc
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from multifem import bench, krylov
from multifem.assemble import load_matrix_market
from multifem.bench import (
    CaseConfig, _solve_perfusion, assemble_babuska, assemble_perfusion,
    export_case, run_case,
)
from multifem.assemble import assemble
from multifem.forms import Analytic, Coefficient, Measure, div, grad, inner
from multifem.krylov import KrylovError, build_preconditioner, minres
from multifem.manufactured import babuska_data, darcy_stokes_data
from multifem.mesh import CellLocator, Mesh, unit_square_mesh
from multifem.opalg import Matrix, OpExpr, Scaled, collapse
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
        # every study input is checked here, before anything runs
        for bad, message in [
                ({"case": "nope"}, "unknown case 'nope'"),
                ({"n": 2.5}, "resolution n must be >= 2 and an integer, got 2.5"),
                ({"n": True}, "resolution n must be >= 2"),
                ({"levels": 1.5}, "refinement count must be an integer >= 1, got 1.5"),
                ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
                ({"seed": -1}, "seed must be a non-negative integer, got -1")]:
            with pytest.raises(bench.ConfigError, match=message):
                CaseConfig(**bad)
        cfg = CaseConfig(case="perfusion", n=np.int64(2), levels=np.int64(2), seed=0)
        assert (cfg.n, cfg.levels, cfg.seed) == (2, 2, 0)


class TestBabuskaCase:
    def test_zero_data_zero_solution_zero_iterations(self):
        zero = lambda p: np.zeros(np.shape(np.asarray(p)[..., 0]))
        sys = assemble_babuska(4, data=SimpleNamespace(f=zero, g=zero))
        b = np.concatenate(sys["b"])
        assert np.abs(b).max() == 0.0
        B = build_preconditioner(sys["riesz"])
        x, rep = minres(sys["A"], B, b)
        assert rep.converged and rep.iterations == 0
        assert np.abs(x).max() == 0.0

    def test_study_record_and_csv(self, tmp_path):
        rec = run_case(CaseConfig(case="babuska", n=4, levels=2))
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
        assert "locator" not in vars(sys["omega"])

    def test_reproducible_iteration_counts(self):
        a = run_case(CaseConfig(case="babuska", n=4, levels=2, seed=5))
        b = run_case(CaseConfig(case="babuska", n=4, levels=2, seed=5))
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
        uh = self.perturbed(build_space(mesh, lagrange(2)), bd.u)
        one = bench.err_norm(uh, bd.u, grad_exact=bd.grad_u)
        two = self.two_integrals(uh, bd.u, grad, bd.grad_u, (2,))
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two
        data = darcy_stokes_data()
        u1h = self.perturbed(build_space(mesh, vector_lagrange(2)), data.u1)
        one = bench.err_norm(u1h, data.u1, grad_exact=data.grad_u1)
        two = self.two_integrals(u1h, data.u1, grad, data.grad_u1, (2, 2))
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two

    def test_hdiv(self):
        data = darcy_stokes_data()
        u2h = self.perturbed(build_space(unit_square_mesh(4, 6), rt0()), data.u2)
        one = bench.err_norm(u2h, data.u2, div_exact=data.f2)
        two = self.two_integrals(u2h, data.u2, div, data.f2, ())
        assert one > 1e-3 and abs(one - two) <= 1e-12 * two


class TestPerfusionCase:
    def test_beta_zero_decouples(self):
        # with no exchange the bulk is pure diffusion with zero data and the
        # vessel pressure solves its own 1d problem
        sys = assemble_perfusion(4, beta=0.0)
        V, Q = sys["W"]
        mono = collapse(sys["A"])
        x = spla.spsolve(mono.tocsc(), np.concatenate(sys["b"]))
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

    def test_single_level_raises_before_solving(self, monkeypatch):
        # the study reports differences between levels; one level once gave
        # an ok study with no rows and a CSV of its header alone
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the level check")
        monkeypatch.setattr(bench, "_solve_perfusion", no_solve)
        with pytest.raises(ValueError, match="levels >= 2"):
            run_case(CaseConfig(case="perfusion", n=4, levels=1))

    def test_n_quad_guard(self):
        # zero circle points once gave a zero average and a decoupled
        # system that reported ok
        with pytest.raises(bench.ConfigError, match="n_quad"):
            run_case(CaseConfig(case="perfusion", n=2, levels=2, n_quad=0))

    def test_ordered_solve_matches_unordered(self):
        sys = assemble_perfusion(8)
        ref = spla.spsolve(collapse(sys["A"]).tocsc(), np.concatenate(sys["b"]))
        u, p = _solve_perfusion(8, 0.2, 16)
        x = np.concatenate([u.coefficients, p.coefficients])
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_minimum_degree_fill_on_the_true_pattern(self):
        # minimum degree on A + A^T has about half of COLAMD's fill on the
        # true pattern
        A = collapse(assemble_perfusion(12)["A"]).tocsc()
        assert A.nnz == 14_374
        mmd = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        colamd = spla.splu(A, permc_spec="COLAMD")
        assert mmd.L.nnz + mmd.U.nnz == 131_629
        assert colamd.L.nnz + colamd.U.nnz == 246_961

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

    def test_kuhn_cancellation_leaves_the_collapsed_entries(self):
        # the couplings that cancel on the Kuhn cube are not stored
        assert collapse(assemble_perfusion(24)["A"]).nnz == 101_498

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


def _bits(M):
    M = collapse(M)
    return M.shape, M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()


class TestDarcyStokesCase:
    @pytest.mark.parametrize("apply_bcs", [True, False])
    def test_formulations_share_the_stokes_side_bitwise(self, apply_bcs):
        primal, mixed = (bench.assemble_darcy_stokes(4, f, apply_bcs=apply_bcs)
                         for f in ("primal", "mixed"))
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert _bits(primal["A"][i, j]) == _bits(mixed["A"][i, j]), (i, j)
        assert primal["b"][1].tobytes() == mixed["b"][1].tobytes()
        for key in ("stokes", "stokes-pressure"):
            assert _bits(primal["riesz"][key]) == _bits(mixed["riesz"][key]), key

    def test_negative_hhalf_form_raises(self, monkeypatch):
        # a forward operator that is not positive is reported, not hidden
        # under an absolute value
        hs_norm = bench.hs_norm

        def negated(M, S, s):
            norm = hs_norm(M, S, s)
            return SimpleNamespace(forward_op=lambda: Scaled(-1.0, norm.forward_op()),
                                   inverse_op=norm.inverse_op)
        monkeypatch.setattr(bench, "hs_norm", negated)
        sys = bench.assemble_darcy_stokes(4, "mixed")
        with pytest.raises(KrylovError, match="H\\^1/2 form"):
            sys["errors"](np.zeros(sum(V.dim for V in sys["W"])))

    def test_multiplier_norm_built_once_per_level(self, monkeypatch):
        # the error norm reads the forward operator of the norm whose
        # inverse preconditions the multiplier block
        calls = []
        hs_norm = bench.hs_norm
        for module in (bench, krylov):
            monkeypatch.setattr(module, "hs_norm", lambda *a: calls.append(a[2]) or hs_norm(*a))
        assert run_case(CaseConfig(case="ds-mixed", n=4, levels=2)).ok
        assert calls == [0.5, 0.5]

    def test_unknown_formulation_raises_before_any_mesh(self, monkeypatch):
        def no_meshes(n):
            raise AssertionError("built meshes for an unknown formulation")
        monkeypatch.setattr(bench, "_ds_meshes", no_meshes)
        with pytest.raises(ValueError, match="unknown formulation 'dual'"):
            bench.assemble_darcy_stokes(4, "dual")


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


@pytest.mark.parametrize("case", list(bench.CASES))
def test_system_rhs_is_a_list_of_block_arrays(case):
    sys = bench.CASES[case][1](4)
    b = sys["b"]
    assert type(b) is list and len(b) == len(sys["A"].row_dims)
    for vec, n in zip(b, sys["A"].row_dims):
        assert type(vec) is np.ndarray and vec.dtype == np.float64 and vec.shape == (n,)


@pytest.mark.parametrize("case", [c for c, (study, _) in bench.CASES.items()
                                  if study is bench.run_krylov])
def test_riesz_entries_are_operators(case):
    # a block to factor or an inverse to apply, never a recipe to decode
    riesz = bench.CASES[case][1](4)["riesz"]
    assert riesz and all(isinstance(e, OpExpr) or sp.issparse(e) for e in riesz.values())


# The comment line and header each case writes at n=4 (two levels where the
# study compares levels); the error norms a case declares set the columns.
CSV_HEAD = {
    "babuska": (
        "# case=babuska n0=4 seed=None tol=1e-10",
        "level,h,dofs_total,iters,err_u_h1,err_u_l2,err_p_l2,"
        "rate_u_h1,rate_u_l2,rate_p_l2,seconds"),
    "ds-primal": (
        "# case=ds-primal n0=4 seed=None tol=1e-10",
        "level,h,dofs_total,iters,err_u1_h1,err_p1_l2,err_p2_l2,"
        "rate_u1_h1,rate_p1_l2,rate_p2_l2,seconds"),
    "ds-mixed": (
        "# case=ds-mixed n0=4 seed=None tol=1e-10",
        "level,h,dofs_total,iters,err_u1_h1,err_p1_l2,err_u2_hdiv,err_p2_l2,err_p_l2,"
        "err_composite,rate_u1_h1,rate_p1_l2,rate_u2_hdiv,rate_p2_l2,rate_p_l2,"
        "rate_composite,seconds"),
    "perfusion": (
        "# case=perfusion n0=4 radius=0.2 n_quad=16",
        "level,h,dofs_total,iters,err_diff,rate_diff,seconds"),
}


def test_csv_head_is_pinned_for_every_case(tmp_path):
    assert set(CSV_HEAD) == set(bench.CASES)
    for case, head in CSV_HEAD.items():
        levels = 2 if case == "perfusion" else 1
        path = tmp_path / f"{case}.csv"
        run_case(CaseConfig(case=case, n=4, levels=levels)).write_csv(path)
        lines = path.read_text().splitlines()
        assert tuple(lines[:2]) == head and len(lines) == 3, case


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

    def test_unknown_case_rejected_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(bench.ConfigError, match="unknown case 'nope'"):
            export_case("nope", 2, out)
        assert not out.exists()


class TestCli:
    def test_run_and_export_smoke(self, tmp_path):
        from multifem.cli import main
        out = tmp_path / "res"
        code = main(["run", "--case", "ds-primal", "--n", "4", "--levels", "1",
                     "--out", str(out)])
        assert code == 0
        assert (out / "ds-primal.csv").exists()
        code = main(["export", "--case", "ds-primal", "--n", "3",
                     "--out", str(tmp_path / "mats")])
        assert code == 0
        assert (tmp_path / "mats" / "A_0_0.mtx").exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_export_rejects_a_resolution_below_one(self, tmp_path, capsys, n):
        from multifem.cli import main
        with pytest.raises(SystemExit) as err:
            main(["export", "--case", "babuska", "--n", n, "--out", str(tmp_path / "bad")])
        assert err.value.code == 2
        assert f"resolution n must be an integer >= 1, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("case", list(bench.CASES))
    def test_export_at_the_coarsest_resolution(self, tmp_path, case):
        # every case lowers a trace or an average, so writes its matrix
        from multifem.cli import main
        assert main(["export", "--case", case, "--n", "1", "--out", str(tmp_path)]) == 0
        files = os.listdir(tmp_path)
        assert "A_0_0.mtx" in files
        assert any(f.startswith("reduction_") and f.endswith(".mtx") for f in files)

    def test_run_solver_case(self, tmp_path):
        from multifem.cli import main
        out = tmp_path / "res"
        code = main(["run", "--case", "babuska", "--n", "4", "--levels", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        text = (out / "babuska.csv").read_text()
        assert text.splitlines()[1].split(",")[0] == "level"
        assert len(text.splitlines()) == 4

    def test_run_defaults_are_the_case_config(self, monkeypatch, tmp_path):
        from multifem import cli
        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return bench.StudyRecord(cfg.case, [])
        monkeypatch.setattr(cli, "run_case", fake_run)
        assert cli.main(["run", "--case", "ds-mixed", "--out", str(tmp_path)]) == 0
        assert seen == [CaseConfig(case="ds-mixed")]

    @pytest.mark.parametrize("argv, message", [
        (["--case", "perfusion", "--n", "4", "--levels", "1"], "levels >= 2"),
        (["--case", "perfusion", "--radius", "0.5"], "radius reaches"),
        (["--case", "babuska", "--n", "1"], "resolution n must be >= 2"),
        (["--case", "babuska", "--tol", "2"], "tolerance"),
        (["--case", "perfusion", "--radius", "0"], "radius must be positive"),
        (["--case", "perfusion", "--radius", "-0.1"], "radius must be positive"),
        (["--case", "perfusion", "--nquad", "0"], "n_quad must be an integer >= 1"),
        (["--case", "babuska", "--n", "4", "--levels", "1", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        # the circle average's parameters are checked for every case
        (["--case", "babuska", "--n", "4", "--levels", "1", "--radius", "-1"],
         "radius must be positive"),
        (["--case", "babuska", "--n", "4", "--levels", "1", "--nquad", "0"],
         "n_quad must be an integer >= 1"),
    ])
    def test_config_errors_are_usage_errors(self, argv, message, tmp_path, capsys):
        # they once escaped as a traceback
        from multifem.cli import main
        with pytest.raises(SystemExit) as err:
            main(["run", *argv, "--out", str(tmp_path)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: multifem") and message in stderr
        assert "Traceback" not in stderr and not os.listdir(tmp_path)

    def test_unknown_case_rejected(self):
        from multifem.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--case", "nope"])
