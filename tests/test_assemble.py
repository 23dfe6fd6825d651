import importlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import dropped_residue
from multifem.assemble import (
    DirichletBC, NotSinglescaleError, apply_bc, apply_bc_block, assemble,
    load_matrix_market, save_matrix_market,
)
from multifem.forms import (
    Analytic, Coefficient, Constant, FormError, Measure, Trace, div, grad, inner, sym,
    TestFunction, TrialFunction,
)
from multifem import bench, mesh as mesh_module
from multifem.bench import _ds_meshes, assemble_babuska
from multifem.mesh import (
    EmptySelectionError, Mesh, facet_submesh, near, unit_cube_mesh, unit_square_mesh,
)
from multifem.opalg import (
    BlockMat, InverseHandle, Matrix, OpError, Product, Sum, Transpose, Zero, collapse,
)
from multifem.reduction import ReductionCache
from multifem.space import build_space, interpolate, lagrange, rt0, vector_lagrange

assemble_module = importlib.import_module("multifem.assemble")   # not the function


def reference_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


class TestHandComputedMatrices:
    def test_p1_mass_on_reference_triangle(self):
        # oracle: int lambda_i lambda_j = area (1 + delta_ij) / 12
        V = build_space(reference_triangle(), lagrange(1))
        u, v = TrialFunction(V), TestFunction(V)
        M = assemble(inner(u, v) * Measure(V.mesh)).toarray()
        oracle = 0.5 * (np.ones((3, 3)) + np.eye(3)) / 12.0
        assert np.abs(M - oracle).max() < 1e-15

    def test_p1_stiffness_on_reference_triangle(self):
        # constant barycentric gradients integrated by hand
        V = build_space(reference_triangle(), lagrange(1))
        u, v = TrialFunction(V), TestFunction(V)
        K = assemble(inner(grad(u), grad(v)) * Measure(V.mesh)).toarray()
        oracle = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.abs(K - oracle).max() < 1e-15

    def test_unit_functional(self):
        mesh = unit_square_mesh(5, 4)
        val = assemble(Constant(1.0) * Measure(mesh))
        assert abs(val - 1.0) < 1e-12

    def test_stiffness_matches_independent_gradient_formula(self):
        mesh = unit_square_mesh(3, 2)
        V = build_space(mesh, lagrange(1))
        u, v = TrialFunction(V), TestFunction(V)
        K = assemble(inner(grad(u), grad(v)) * Measure(mesh)).toarray()
        oracle = np.zeros((V.dim, V.dim))
        for cell in mesh.cells:
            p = mesh.vertices[cell]
            d = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
            e1, e2 = p[1] - p[0], p[2] - p[0]
            a2 = e1[0] * e2[1] - e1[1] * e2[0]
            grads = np.column_stack([-d[:, 1], d[:, 0]]) / a2
            oracle[np.ix_(cell, cell)] += abs(a2) / 2 * grads @ grads.T
        assert np.abs(K - oracle).max() < 1e-13


class TestAssemblyProperties:
    def test_reduced_form_rejected(self):
        mesh = unit_square_mesh(2, 2)
        gamma = facet_submesh(mesh, lambda p: near(p[:, 0], 0))
        V = build_space(mesh, lagrange(1))
        Q = build_space(gamma, lagrange(1))
        u, q = TrialFunction(V), TestFunction(Q)
        with pytest.raises(NotSinglescaleError):
            assemble(inner(Trace(u, gamma), q) * Measure(gamma))

    def test_cell_order_independence(self):
        mesh = unit_square_mesh(3, 3)
        rng = np.random.default_rng(11)
        perm = rng.permutation(mesh.num_cells)
        shuffled = Mesh(mesh.vertices.copy(), mesh.cells[perm])
        for m in (mesh, shuffled):
            pass
        mats = []
        for m in (mesh, shuffled):
            V = build_space(m, lagrange(1))
            u, v = TrialFunction(V), TestFunction(V)
            form = inner(grad(u), grad(v)) * Measure(m) + inner(u, v) * Measure(m)
            mats.append(assemble(form).toarray())
        assert np.abs(mats[0] - mats[1]).max() < 1e-13

    def test_vector_divergence_is_trace_of_gradient(self):
        # div of a vector P2 argument and of a coefficient: the quadratic
        # field (x^2, xy) is interpolated exactly, and its divergence is 3x
        mesh = unit_square_mesh(4, 4)
        V = build_space(mesh, vector_lagrange(2))
        q = TestFunction(build_space(mesh, lagrange(1)))
        dx = Measure(mesh)
        fh = interpolate(V, lambda p: np.column_stack([p[:, 0] ** 2, p[:, 0] * p[:, 1]]))
        B = assemble(inner(div(TrialFunction(V)), q) * dx)
        b = assemble(inner(div(Coefficient(fh)), q) * dx)
        assert np.abs(B @ fh.coefficients - b).max() < 1e-15
        total = assemble(inner(div(Coefficient(fh)), Constant(1.0)) * dx)
        assert abs(total - 1.5) < 1e-14

    def test_mass_matrix_spd(self):
        mesh = unit_square_mesh(3, 3)
        V = build_space(mesh, lagrange(2))
        u, v = TrialFunction(V), TestFunction(V)
        M = assemble(inner(u, v) * Measure(mesh)).toarray()
        assert np.abs(M - M.T).max() < 1e-15
        assert np.linalg.eigvalsh(M).min() > 0

    def test_galerkin_l2_convergence_rate(self):
        # reaction-diffusion with natural conditions: rate >= 1.9 in L2
        from multifem.manufactured import babuska_data
        bd = babuska_data()
        errs = []
        for n in (8, 16, 32):
            mesh = unit_square_mesh(n, n)
            V = build_space(mesh, lagrange(1))
            u, v = TrialFunction(V), TestFunction(V)
            dx = Measure(mesh)
            A = assemble(inner(grad(u), grad(v)) * dx + inner(u, v) * dx)
            b = assemble(inner(Analytic(bd["f"], degree=3), v) * dx)
            x = spla.spsolve(A.tocsc(), b)
            e = x - interpolate(V, bd["u"]).coefficients
            M = assemble(inner(u, v) * dx)
            errs.append(np.sqrt(e @ (M @ e)))
        rates = [np.log2(errs[k - 1] / errs[k]) for k in (1, 2)]
        assert min(rates) >= 1.9


def _geometry_forms(mesh):
    """Mass, stiffness, vector-P2, RT0 and Analytic-load forms on ``mesh``."""
    dx = Measure(mesh)
    V1, V2, R = (build_space(mesh, e) for e in (lagrange(1), vector_lagrange(2), rt0()))
    u, v = TrialFunction(V1), TestFunction(V1)
    w, z = TrialFunction(V2), TestFunction(V2)
    s, t = TrialFunction(R), TestFunction(R)
    load = Analytic(lambda p: np.sin(3 * p[:, 0]) * p[:, 1], degree=3)
    return [
        inner(u, v) * dx,
        inner(grad(u), grad(v)) * dx + inner(u, v) * dx,
        inner(sym(grad(w)), sym(grad(z))) * dx + inner(w, z) * dx,
        inner(s, t) * dx + inner(div(s), div(t)) * dx,
        inner(load, v) * dx,
    ]


def _same_bits(a, b):
    if hasattr(a, "indptr"):
        return all(np.array_equal(x, y) for x, y in
                   ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))
    return np.array_equal(a, b)


class TestMeshGeometryReuse:
    # 1200 cells: three chunks of the assembler, the last one partial
    @staticmethod
    def mesh():
        return unit_square_mesh(30, 20, offset=(0.25, -0.5), extent=(1.5, 0.75))

    def test_warm_geometry_assembles_bitwise_as_cold(self):
        warm = self.mesh()
        for form in _geometry_forms(warm):
            assemble(form)
        for k, form in enumerate(_geometry_forms(warm)):
            cold = assemble(_geometry_forms(self.mesh())[k])
            assert _same_bits(assemble(form), cold), k

    @pytest.mark.parametrize("chunk", [7, 1199])    # 1199: a last chunk of one cell
    def test_chunk_size_does_not_change_bits(self, chunk, monkeypatch):
        mesh = self.mesh()
        fh = Coefficient(interpolate(build_space(mesh, lagrange(2)),
                                     lambda p: p[:, 0] * p[:, 1] ** 2))
        v = TestFunction(build_space(mesh, lagrange(1)))
        forms = _geometry_forms(mesh) + [
            inner(fh, v) * Measure(mesh) + inner(grad(fh), grad(v)) * Measure(mesh)]
        ref = [assemble(form) for form in forms]
        monkeypatch.setattr(assemble_module, "_CHUNK", chunk)
        for k, form in enumerate(forms):
            assert _same_bits(assemble(form), ref[k]), k

    def test_geometry_built_once_per_mesh(self, monkeypatch):
        mesh = self.mesh()
        calls = []
        build = mesh_module._gradient_transform
        monkeypatch.setattr(mesh_module, "_gradient_transform",
                            lambda E: calls.append(E.shape) or build(E))
        G = None
        for form in _geometry_forms(mesh) * 2:
            assemble(form)
            G = mesh.gradient_transform if G is None else G
            assert mesh.gradient_transform is G
        assert calls == [(2, 2, mesh.num_cells)]


def _cube_stiffness(n, scale=1.0):
    V = build_space(unit_cube_mesh(n), lagrange(1))
    u, v = TrialFunction(V), TestFunction(V)
    return scale * inner(grad(u), grad(v)) * Measure(V.mesh)


class TestCancellationResidue:
    # The Kuhn-cube P1 stiffness couples some vertex pairs with weight zero;
    # summed, those couplings leave stored zeros (or residue, with a less
    # exact gradient transform) at n=12 and 24 and cancel exactly at n=16.
    @pytest.mark.parametrize("n", [12, 24])
    def test_only_residue_is_dropped(self, n, unpruned):
        pruned = assemble(_cube_stiffness(n))
        full = unpruned(assemble, _cube_stiffness(n))
        assert dropped_residue(pruned, full) > 0.3 * full.nnz

    def test_exact_cancellation_keeps_every_nonzero(self, unpruned):
        full = unpruned(assemble, _cube_stiffness(16))
        full.eliminate_zeros()
        assert _same_bits(assemble(_cube_stiffness(16)), full)

    # RT0 mass couplings that vanish on the right triangles of the Darcy
    # mesh come out under half an ulp of the bound at every n, so all of
    # them are dropped; from absolute coordinates they grew like 1/h.
    @pytest.mark.parametrize("n,kept", [(8, 920), (32, 14_432), (64, 57_536)])
    def test_rt0_vanishing_couplings_dropped_at_every_n(self, n, kept, unpruned):
        R = build_space(_ds_meshes(n)[1], rt0())
        form = inner(TrialFunction(R), TestFunction(R)) * Measure(R.mesh)
        pruned, full = assemble(form), unpruned(assemble, form)
        assert pruned.nnz == kept
        assert dropped_residue(pruned, full) == full.nnz - kept

    @pytest.mark.parametrize("scale", [1e-30, 1e30])
    def test_scale_free(self, scale):
        plain = assemble(_cube_stiffness(12))
        scaled = assemble(_cube_stiffness(12, scale))
        assert plain.nnz == 14_365
        assert np.array_equal(scaled.indptr, plain.indptr)
        assert np.array_equal(scaled.indices, plain.indices)


class TestAnalyticContract:
    def setup_method(self):
        self.V = build_space(unit_square_mesh(4, 3), lagrange(1))
        self.dx = Measure(self.V.mesh)

    def test_vectorized_function(self):
        # a linear field is interpolated exactly, so M @ f_h = int f v
        u, v = TrialFunction(self.V), TestFunction(self.V)
        f = lambda p: p[:, 0] + 2.0 * p[:, 1]
        b = assemble(inner(Analytic(f, degree=1), v) * self.dx)
        M = assemble(inner(u, v) * self.dx)
        fh = interpolate(self.V, lambda x: x[:, 0] + 2.0 * x[:, 1]).coefficients
        assert np.abs(b - M @ fh).max() < 1e-15

    def test_wrong_shape_raises(self):
        v = TestFunction(self.V)
        with pytest.raises(FormError, match=r"returned shape \(\) .* expected \(\d+,\)"):
            assemble(inner(Analytic(lambda p: 1.0), v) * self.dx)
        vec = Analytic(lambda p: p[:, 0], shape=(2,))
        with pytest.raises(FormError, match=r"expected \(\d+, 2\)"):
            assemble(inner(vec, Constant((1.0, 0.0))) * self.dx)

    def test_raising_function_surfaces_as_form_error(self):
        v = TestFunction(self.V)

        def pointwise(p):
            return float(p[0]) ** 2        # a scalar-only function

        with pytest.raises(FormError, match="TypeError") as info:
            assemble(inner(Analytic(pointwise), v) * self.dx)
        assert isinstance(info.value.__cause__, TypeError)


class TestQuadratureDegreeEstimate:
    def test_p2_mass_exact(self):
        # degree-4 integrand must be integrated exactly by the estimate
        mesh = unit_square_mesh(2, 2)
        V = build_space(mesh, lagrange(2))
        u, v = TrialFunction(V), TestFunction(V)
        M = assemble(inner(u, v) * Measure(mesh))
        ones = np.ones(V.dim)
        assert abs(ones @ (M @ ones) - 1.0) < 1e-13

    def test_degree_override(self):
        mesh = unit_square_mesh(2, 2)
        V = build_space(mesh, lagrange(1))
        u, v = TrialFunction(V), TestFunction(V)
        exact = assemble(inner(u, v) * Measure(mesh)).toarray()
        low = assemble(inner(u, v) * Measure(mesh), quad_degree=1).toarray()
        assert np.abs(exact - low).max() > 1e-6   # under-integration must differ


class TestDirichletBC:
    def setup_method(self):
        self.mesh = unit_square_mesh(4, 4)
        self.V = build_space(self.mesh, lagrange(1))
        u, v = TrialFunction(self.V), TestFunction(self.V)
        dx = Measure(self.mesh)
        self.A = assemble(inner(grad(u), grad(v)) * dx)
        self.b = assemble(inner(Constant(1.0), v) * dx)
        self.bc = DirichletBC(self.V, lambda p: p[:, 0],
                              lambda p: near(p[:, 0] * (1 - p[:, 0]), 0))

    def test_symmetric_application_preserves_symmetry(self):
        A, _ = apply_bc(self.A, self.b, [self.bc], symmetric=True)
        d = A - A.T
        assert np.abs(d.toarray()).max() <= 1e-14

    def test_solution_attains_bc_values(self):
        A, b = apply_bc(self.A, self.b, [self.bc], symmetric=True)
        x = spla.spsolve(A.tocsc(), b)
        assert np.abs(x[self.bc.dofs] - self.bc.values).max() < 1e-14

    def test_zero_bc_symmetric_equals_nonsymmetric(self):
        bc0 = DirichletBC(self.V, 0.0, lambda p: near(p[:, 0] * (1 - p[:, 0]), 0))
        As, bs = apply_bc(self.A, self.b, [bc0], symmetric=True)
        An, bn = apply_bc(self.A, self.b, [bc0], symmetric=False)
        xs = spla.spsolve(As.tocsc(), bs)
        xn = spla.spsolve(An.tocsc(), bn)
        assert np.abs(xs - xn).max() < 1e-11

    def test_inhomogeneous_symmetric_solution_correct(self):
        As, bs = apply_bc(self.A, self.b, [self.bc], symmetric=True)
        An, bn = apply_bc(self.A, self.b, [self.bc], symmetric=False)
        xs = spla.spsolve(As.tocsc(), bs)
        xn = spla.spsolve(An.tocsc(), bn)
        assert np.abs(xs - xn).max() < 1e-11

    def test_rt0_bc_resolves_edge_dofs(self):
        V = build_space(self.mesh, rt0())
        bc = DirichletBC(V, (0.0, 0.0), lambda p: near(p[:, 1] * (1 - p[:, 1]), 0))
        mids = V.edge_midpoints[bc.dofs]
        assert len(bc.dofs) == 8
        assert np.all((np.abs(mids[:, 1]) < 1e-12) | (np.abs(mids[:, 1] - 1) < 1e-12))

    @pytest.mark.parametrize("element", [lagrange(1), rt0()], ids=["P1", "RT0"])
    def test_empty_selection_raises(self, element):
        V = build_space(self.mesh, element)
        value = 1.0 if V.is_point_evaluation else (1.0, 0.0)
        with pytest.raises(EmptySelectionError, match="selects no dofs"):
            DirichletBC(V, value, lambda x: near(x[:, 0], 2.0))

    def test_corner_vertex_selects_no_rt0_edge(self):
        corner = lambda x: near(x[:, 0], 0.0) & near(x[:, 1], 0.0)
        assert len(DirichletBC(self.V, 1.0, corner).dofs) == 1
        with pytest.raises(EmptySelectionError):
            DirichletBC(build_space(self.mesh, rt0()), (1.0, 0.0), corner)

    def test_mismatched_space_rejected(self):
        other = build_space(self.mesh, lagrange(2))
        bc = DirichletBC(other, 0.0, lambda p: near(p[:, 0], 0))
        with pytest.raises(ValueError):
            apply_bc(self.A, self.b, [bc])

    def test_both_paths_reject_a_condition_on_another_block_space(self):
        # a condition on babuska's 32-dof multiplier space once pinned dofs
        # of the 81-dof bulk block through the lazy path
        sys = assemble_babuska(8)
        V, Q = sys["W"]
        bc = DirichletBC(Q, 0.0, lambda p: np.ones(len(p), dtype=bool))
        with pytest.raises(ValueError, match="32 dofs, block 0 is 81 x 81"):
            apply_bc_block(sys["A"], sys["b"], {0: [bc]})
        with pytest.raises(ValueError, match="block 0"):
            apply_bc(collapse(sys["A"][0, 0]), np.zeros(V.dim), [bc])


def _mask_products(block_op, rhs_blocks, bcs_by_block, symmetric):
    """The oracle: Dirichlet conditions as diagonal 0/1 masks composed
    lazily around each block (``Product([keep, block])`` for the rows,
    ``Product([block, keep])`` for the columns) and a unit diagonal."""
    rows = [list(row) for row in block_op.blocks]
    rhs = [np.array(b, dtype=float) for b in rhs_blocks]
    masks = {}
    for i, bcs in bcs_by_block.items():
        g, mask = np.zeros(block_op.col_dims[i]), np.zeros(block_op.col_dims[i])
        for bc in bcs:
            g[bc.dofs], mask[bc.dofs] = bc.values, 1.0
        masks[i] = g, mask
    if symmetric:
        for j in range(len(rows)):
            for i, (g, _) in masks.items():
                if not isinstance(rows[j][i], Zero):
                    rhs[j] -= rows[j][i].matvec(g)
    for i, (g, mask) in masks.items():
        keep = Matrix(sp.diags(1.0 - mask).tocsr())
        for j in range(len(rows)):
            if not isinstance(rows[i][j], Zero):
                rows[i][j] = Product([keep, rows[i][j]])
            if symmetric and not isinstance(rows[j][i], Zero):
                rows[j][i] = Product([rows[j][i], keep])
        unit = Matrix(sp.diags(mask).tocsr())
        rows[i][i] = unit if isinstance(rows[i][i], Zero) else Sum([rows[i][i], unit])
        rhs[i] = (1.0 - mask) * rhs[i] + g
    return BlockMat(rows), rhs


def _nodes(op):
    """Every node of an operator tree, symbolic zeros included."""
    yield op
    if isinstance(op, BlockMat):
        children = [b for row in op.blocks for b in row]
    elif isinstance(op, Transpose):
        children = [op.child]
    else:
        children = getattr(op, "terms", getattr(op, "factors", []))
    for c in children:
        yield from _nodes(c)


def _leaves(op):
    return [e for e in _nodes(op) if isinstance(e, Matrix)]


def _sorted(op):
    return collapse(op, force=True).sorted_indices()


@pytest.fixture
def constrained(monkeypatch):
    """Assemble a benchmark system, recording the unconstrained block
    operator, rhs, conditions and symmetry its ``apply_bc_block`` call got,
    with copies of every matrix leaf of that operator and every reduction
    matrix of the system's cache, taken before the call."""
    def build(name, n):
        cache, calls = ReductionCache(), []

        def recorded(block_op, rhs_blocks, bcs_by_block, symmetric=True):
            shared = [m.a for m in _leaves(block_op)]
            shared += [red.matrix for red in cache._store.values()]
            before = [(a, a.copy()) for a in shared]
            out = apply_bc_block(block_op, rhs_blocks, bcs_by_block, symmetric)
            calls.append((block_op, rhs_blocks, bcs_by_block, symmetric, before))
            return out
        monkeypatch.setattr(bench, "apply_bc_block", recorded)
        if name == "perfusion":
            sys = bench.assemble_perfusion(n, cache=cache)
        else:
            sys = bench.assemble_darcy_stokes(n, name, cache=cache)
        (call,) = calls
        return sys, call
    return build


class TestLeafConstraints:
    @pytest.mark.parametrize("name", ["mixed", "primal", "perfusion"])
    def test_bitwise_the_mask_products(self, constrained, name):
        sys, (block_op, rhs_blocks, bcs, symmetric, _) = constrained(name, 4)
        assert symmetric == (name != "perfusion")
        oracle, oracle_rhs = _mask_products(block_op, rhs_blocks, bcs, symmetric)
        A = sys["A"]
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.standard_normal(A.cols)
            assert np.array_equal(A.matvec(x), oracle.matvec(x))
        for i, row in enumerate(A.blocks):
            for j, blk in enumerate(row):
                x = rng.standard_normal(blk.cols)
                assert np.array_equal(blk.matvec(x), oracle[i, j].matvec(x)), (i, j)
                assert _same_bits(_sorted(blk), _sorted(oracle[i, j])), (i, j)
        assert _same_bits(_sorted(A), _sorted(oracle))
        assert all(np.array_equal(b, c) for b, c in zip(sys["b"], oracle_rhs))

    @pytest.mark.parametrize("name", ["mixed", "primal", "perfusion"])
    def test_shared_matrices_unchanged(self, constrained, name):
        _, (*_, before) = constrained(name, 4)
        assert len(before) > 10
        assert all(_same_bits(a, copy) for a, copy in before)

    def test_unconstrained_blocks_are_the_lowered_blocks(self):
        # babuska's trace matrix T is a leaf of both off-diagonal blocks;
        # rows of block 0 constrained, block (0, 1) = T^T M takes a masked
        # copy of T and block (1, 0) = M T keeps T itself
        sys = assemble_babuska(8)
        A = sys["A"]
        V = sys["W"][0]
        bc = DirichletBC(V, 0.0, lambda p: near(p[:, 1], 0.0))
        out, _ = apply_bc_block(A, sys["b"], {0: [bc]}, symmetric=False)
        assert out[1, 0] is A[1, 0] and out[1, 1] is A[1, 1]
        (T,) = [m.a for m in _leaves(A[0, 1]) if m.a.shape[1] == V.dim]
        assert any(m.a is T for m in _leaves(out[1, 0]))
        assert not any(m.a is T for m in _leaves(out[0, 1]))

    def test_no_mask_products(self, constrained):
        # the constrained tree is the lowered tree plus a Sum and a unit
        # diagonal per constrained block: no mask product or mask leaf
        sys, (block_op, _, bcs, _, _) = constrained("mixed", 32)
        nodes = len(list(_nodes(sys["A"])))
        assert nodes <= 46
        assert nodes == len(list(_nodes(block_op))) + 2 * len(bcs)
        stored = sum(m.a.nnz for m in _leaves(sys["A"]))
        assert stored <= 1.02 * collapse(sys["A"], force=True).nnz

    def test_inverse_handle_block_raises(self):
        V = build_space(unit_square_mesh(4, 4), lagrange(1))
        bc = DirichletBC(V, 0.0, lambda p: near(p[:, 0], 0.0))
        op = BlockMat([[InverseHandle(V.dim, lambda x: x, label="riesz")]])
        with pytest.raises(OpError, match="InverseHandle"):
            apply_bc_block(op, [np.zeros(V.dim)], {0: [bc]})


def test_matrix_market_roundtrip(tmp_path):
    mesh = unit_square_mesh(2, 2)
    V = build_space(mesh, lagrange(1))
    u, v = TrialFunction(V), TestFunction(V)
    A = assemble(inner(grad(u), grad(v)) * Measure(mesh))
    p = tmp_path / "a.mtx"
    save_matrix_market(p, A)
    back = load_matrix_market(p)
    assert np.abs((A - back).toarray()).max() == 0.0
    vec = np.linspace(0, 1, V.dim)
    pv = tmp_path / "b.mtx"
    save_matrix_market(pv, vec)
    assert np.abs(load_matrix_market(pv) - vec).max() == 0.0
