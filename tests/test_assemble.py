import hashlib
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
    Analytic, Coefficient, Constant, Form, FormError, Measure, Trace, div, dot, grad, inner,
    sym, TestFunction, TrialFunction,
)
from multifem import bench, mesh as mesh_module, quadrature
from multifem.bench import _ds_meshes, assemble_babuska
from multifem.mesh import (
    EmptySelectionError, Mesh, facet_submesh, near, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)
from multifem.opalg import (
    BlockMat, InverseHandle, Matrix, OpError, Product, Sum, Transpose, Zero, collapse,
)
from multifem.reduction import ReductionCache, average_matrix, trace_matrix
from multifem.space import (
    Function, build_space, dg0, interpolate, lagrange, rt0, vector_dg0, vector_lagrange,
)

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
            b = assemble(inner(Analytic(bd.f, degree=3), v) * dx)
            x = spla.spsolve(A.tocsc(), b)
            e = x - interpolate(V, bd.u).coefficients
            M = assemble(inner(u, v) * dx)
            errs.append(np.sqrt(e @ (M @ e)))
        rates = [np.log2(errs[k - 1] / errs[k]) for k in (1, 2)]
        assert min(rates) >= 1.9


def _value(e):
    return e


# (mesh, element, the operators T checked on it)
_TERMINAL_CASES = {
    "P1": (lambda: unit_square_mesh(5, 4), lagrange(1), [_value, grad]),
    "P2": (lambda: unit_square_mesh(5, 4), lagrange(2), [_value, grad]),
    "vector-P1": (lambda: unit_square_mesh(5, 4), vector_lagrange(1), [_value, grad]),
    "vector-P2": (lambda: unit_square_mesh(5, 4), vector_lagrange(2), [_value, grad, div]),
    "tet-P1": (lambda: unit_cube_mesh(3), lagrange(1), [_value, grad]),
    "curve-P1": (lambda: polyline_mesh([(0.1, 0.2, 0.3), (0.7, 0.4, 0.9)], 7),
                 lagrange(1), [_value, grad]),
    "P0": (lambda: unit_square_mesh(5, 4), dg0(), [_value]),
    "vector-P0": (lambda: unit_square_mesh(5, 4), vector_dg0(), [_value]),
    "RT0": (lambda: unit_square_mesh(5, 4), rt0(), [_value, div]),
}


class TestCoefficientTerminals:
    """A coefficient is its basis contracted with its coefficients, so
    T(coefficient) tested against T(v) is the matrix of T(u), T(v) applied
    to the coefficient vector."""

    @pytest.mark.parametrize("case", list(_TERMINAL_CASES))
    def test_coefficient_is_the_argument_matrix_applied(self, case):
        make_mesh, element, ops = _TERMINAL_CASES[case]
        mesh = make_mesh()
        V = build_space(mesh, element)
        c = np.random.default_rng(7).standard_normal(V.dim)
        u, v, dx = TrialFunction(V), TestFunction(V), Measure(mesh)
        for T in ops:
            lhs = assemble(inner(T(Coefficient(Function(V, c))), T(v)) * dx)
            rhs = assemble(inner(T(u), T(v)) * dx) @ c
            assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(rhs).max(), T.__name__

    def test_coefficient_off_the_measure_mesh_raises(self):
        other = build_space(unit_square_mesh(3, 3), lagrange(1))
        mesh = unit_square_mesh(2, 2)
        v = TestFunction(build_space(mesh, lagrange(1)))
        for T in (_value, grad):
            with pytest.raises(FormError, match="different mesh"):
                assemble(inner(T(Coefficient(Function(other))), T(v)) * Measure(mesh))


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

    # a budget of 7 entries gives every form one-cell chunks; 1199 gives
    # P1 forms chunks of a few dozen cells, the last one partial
    @pytest.mark.parametrize("budget", [7, 1199])
    def test_chunk_size_does_not_change_bits(self, budget, monkeypatch):
        mesh = self.mesh()
        fh = Coefficient(interpolate(build_space(mesh, lagrange(2)),
                                     lambda p: p[:, 0] * p[:, 1] ** 2))
        v = TestFunction(build_space(mesh, lagrange(1)))
        e = fh - Analytic(lambda p: np.sin(3 * p[:, 0]) * p[:, 1], degree=2)
        forms = _geometry_forms(mesh) + [
            inner(fh, v) * Measure(mesh) + inner(grad(fh), grad(v)) * Measure(mesh),
            inner(e, e) * Measure(mesh) + inner(grad(fh), grad(fh)) * Measure(mesh)]
        ref = [assemble(form) for form in forms]
        assert assemble_module._chunk_cells(forms[-1].integrals) >= mesh.num_cells
        monkeypatch.setattr(assemble_module, "_CHUNK_ENTRIES", budget)
        for k, form in enumerate(forms):
            assert _same_bits(assemble(form), ref[k]), k

    def test_geometry_built_once_per_mesh(self, monkeypatch):
        # the geometry is built at construction, from one gather of the
        # edge vectors; assembling and locating build none of it again
        gathers, transforms = [], []
        gather = mesh_module.Mesh._edge_components
        build = mesh_module._gradient_transform
        monkeypatch.setattr(mesh_module.Mesh, "_edge_components",
                            lambda self: gathers.append(self.uid) or gather(self))
        monkeypatch.setattr(mesh_module, "_gradient_transform",
                            lambda E: transforms.append(E.shape) or build(E))
        mesh = self.mesh()
        assert gathers == [mesh.uid] and transforms == [(2, 2, mesh.num_cells)]
        G = mesh.gradient_transform
        for form in _geometry_forms(mesh) * 2:
            assemble(form)
            assert mesh.gradient_transform is G
        mesh.locator.locate_many(mesh.cell_centroids)
        assert gathers == [mesh.uid] and transforms == [(2, 2, mesh.num_cells)]


def _digest(a):
    h = hashlib.sha256()
    for x in (a.indptr, a.indices, a.data) if hasattr(a, "indptr") else (a,):
        h.update(np.ascontiguousarray(x, dtype=np.int64 if x.dtype.kind == "i" else float)
                 .tobytes())
    return h.hexdigest()[:16]


class TestThirtyTwoBitScatter:
    """Triplet indices go to scipy in the matrix's index width (int32 when
    the dimensions fit); every matrix is bitwise the one that int64
    triplets in the same order give."""

    @staticmethod
    def spy(monkeypatch):
        """Record the triplets and shape of every ``sp.coo_matrix`` built, and
        the per-cell scale of every residue drop."""
        triplets, drops = [], []
        coo, drop = sp.coo_matrix, assemble_module._drop_residue

        def spy_coo(arg, shape=None, **kw):
            vals, (rows, cols) = arg
            triplets.append((vals, rows, cols, shape))
            return coo(arg, shape=shape, **kw)

        def spy_drop(A, cell_max, *dofmaps):
            drops.append(cell_max)
            return drop(A, cell_max, *dofmaps)
        monkeypatch.setattr(sp, "coo_matrix", spy_coo)
        monkeypatch.setattr(assemble_module, "_drop_residue", spy_drop)
        return triplets, drops, coo

    @staticmethod
    def dropped(full, cell_max, test_dm, trial_dm):
        """``full`` less its residue, by the rule at ``_RESIDUE_ULPS`` with
        int64 row pointers: the reference for the assembler's drop."""
        def scale(dm, n):
            return np.bincount(dm.ravel(), np.repeat(cell_max, dm.shape[1]), minlength=n)
        bound = np.minimum(np.repeat(scale(test_dm, full.shape[0]), np.diff(full.indptr)),
                           scale(trial_dm, full.shape[1])[full.indices])
        keep = np.abs(full.data) > bound * (assemble_module._RESIDUE_ULPS * np.finfo(float).eps)
        indptr = np.concatenate([[0], np.cumsum(keep)])[full.indptr]
        return sp.csr_matrix((full.data[keep], full.indices[keep], indptr), shape=full.shape)

    @staticmethod
    def cube_stiffness():
        # perfusion's bulk block at n=6: the Kuhn cube stores exact zeros,
        # which the residue drop removes
        V = build_space(unit_cube_mesh(6), lagrange(1))
        return inner(grad(TrialFunction(V)), grad(TestFunction(V))) * Measure(V.mesh)

    @staticmethod
    def rectangular():
        # P1 trial, P2 test: two dofmaps, two dof scales
        mesh = TestMeshGeometryReuse.mesh()
        V, W = (build_space(mesh, lagrange(d)) for d in (1, 2))
        u, w = TrialFunction(V), TestFunction(W)
        return inner(grad(u), grad(w)) * Measure(mesh) + inner(u, w) * Measure(mesh)

    @staticmethod
    def layered():
        # P1 trial, RT0 test: grad(u) . t integrates to zero over the two
        # cells of an edge at each of its endpoints, leaving residue, and a
        # coefficient of 1e-3 below y = 1/3 scales the cells there; vertex j
        # (trial dof j) lies above edge j (test dof j), so only the trial
        # side's scale drops the residue
        mesh = unit_square_mesh(3)
        V, R = build_space(mesh, lagrange(1)), build_space(mesh, rt0())
        W = Analytic(lambda p: np.where(p[:, 1] < 1 / 3, 1e-3, 1.0)[:, None, None] * np.eye(2),
                     shape=(2, 2), degree=0)
        return inner(dot(W, grad(TrialFunction(V))), TestFunction(R)) * Measure(mesh)

    @pytest.mark.parametrize("k", ["cube", 1, 2, 3, "rectangular", "layered"])
    def test_assembled_matrix_is_the_int64_one(self, k, monkeypatch):
        # cube P1 stiffness, P1 stiffness + mass (babuska's H1 block),
        # vector-P2 sym-grad + mass, RT0 mass + div-div, P2 x P1, RT0 x P1
        if isinstance(k, str):
            form = {"cube": self.cube_stiffness, "rectangular": self.rectangular,
                    "layered": self.layered}[k]()
        else:
            form = _geometry_forms(TestMeshGeometryReuse.mesh())[k]
        integral = form.integrals[0]
        test_dm, trial_dm = integral.test.space.dofmap, integral.trial.space.dofmap
        triplets, drops, coo = self.spy(monkeypatch)
        A = assemble(form)
        ((vals, rows, cols, shape),), (cell_max,) = triplets, drops
        assert rows.dtype == cols.dtype == np.int32
        # the int64 triplets of the cell-major local tensors, in their order
        rows64 = np.repeat(test_dm.ravel(), trial_dm.shape[1])
        cols64 = np.tile(trial_dm, test_dm.shape[1]).ravel()
        assert rows64.dtype == np.int64
        assert np.array_equal(rows, rows64) and np.array_equal(cols, cols64)
        full = coo((vals, (rows64, cols64)), shape=shape).tocsr()
        assert _same_bits(A, self.dropped(full, cell_max, test_dm, trial_dm))
        if k == "cube":
            assert A.nnz < full.nnz        # the rebuilt CSR is compared too
        if k == "layered":
            # the test side's scale in place of the trial side's keeps residue
            assert A.nnz < self.dropped(full, cell_max, test_dm, test_dm).nnz

    @pytest.mark.parametrize("kind", ["trace", "average"])
    def test_reduction_matrix_is_the_int64_one(self, kind, monkeypatch):
        V = build_space(unit_cube_mesh(6), lagrange(1))
        Q = build_space(bench._gamma_line(6), lagrange(1))
        triplets, _, coo = self.spy(monkeypatch)
        R = trace_matrix(V, Q) if kind == "trace" else average_matrix(V, Q, 0.2, 16)
        ((vals, rows, cols, shape),) = triplets
        assert rows.dtype == cols.dtype == np.int32
        ref = coo((vals, (rows.astype(np.int64), cols.astype(np.int64))), shape=shape).tocsr()
        ref.eliminate_zeros()
        assert _same_bits(R, ref)

    def test_width_rule(self):
        # decided from the dimensions alone: no array of 2**31 entries
        index_dtype = assemble_module._index_dtype
        assert index_dtype((2**31 - 1, 3)) is np.int32
        assert index_dtype((2**31, 3)) is index_dtype((3, 2**31)) is np.int64
        dofmap = np.array([[0, 1], [1, 2]])
        for dim, width in [(3, np.int32), (2**31, np.int64)]:
            rows, cols = assemble_module._triplet_indices(dofmap, dofmap, (dim, dim))
            assert rows.dtype == cols.dtype == width
            assert rows.tolist() == [0, 0, 1, 1, 1, 1, 2, 2]
            assert cols.tolist() == [0, 1, 0, 1, 1, 2, 1, 2]


class TestFusedGroups:
    @staticmethod
    def mesh():
        return TestMeshGeometryReuse.mesh()

    def test_one_coo_to_csr_per_group(self, monkeypatch):
        # groups: (m1, V, V), (m1, W, V) and (m2, X, X), two integrals each
        m1, m2 = unit_square_mesh(4, 3), unit_square_mesh(4, 3, offset=(2.0, 0.0))
        V, W, X = (build_space(m, lagrange(1)) for m in (m1, m1, m2))
        u, v, w = TrialFunction(V), TestFunction(V), TestFunction(W)
        x, y = TrialFunction(X), TestFunction(X)
        dx1, dx2 = Measure(m1), Measure(m2)
        form = (inner(grad(u), grad(v)) * dx1 + inner(u, w) * dx1 + inner(x, y) * dx2
                + inner(u, v) * dx1 + inner(grad(x), grad(y)) * dx2
                + inner(grad(u), grad(w)) * dx1)
        separate = [assemble(Form([i])) for i in form]
        calls = []
        tocsr = sp.coo_matrix.tocsr
        monkeypatch.setattr(sp.coo_matrix, "tocsr",
                            lambda self, *a, **k: calls.append(self.shape) or tocsr(self, *a, **k))
        fused = assemble(form)
        assert calls == [(V.dim, V.dim)] * 3
        assert abs(fused - sum(separate[1:], separate[0])).max() <= 4e-16 * abs(fused).max()

    # P1 stiffness + mass (babuska's H1 block), RT0 mass + div-div
    # (ds-mixed's H(div) block), vector-P2 sym-grad + mass
    @pytest.mark.parametrize("k", [1, 3, 2])
    def test_fused_matrix_is_the_sum_of_its_integrals(self, k):
        form = _geometry_forms(self.mesh())[k]
        fused = assemble(form)
        separate = [assemble(Form([i])) for i in form]
        summed = sum(separate[1:], separate[0])
        assert np.array_equal(fused.indptr, summed.indptr)
        assert np.array_equal(fused.indices, summed.indices)
        gap = np.abs(fused.data - summed.data)
        eps = np.finfo(float).eps
        if k != 2:
            assert np.all(gap <= 4 * eps * np.abs(summed.data))
        else:
            # vector-P2 sym-grad entries cancel across cells down to 1e-5 of
            # their row; each summand's rounding is bounded by the row
            row_max = np.maximum.reduceat(np.abs(summed.data), summed.indptr[:-1])
            assert np.all(gap <= 4 * eps * np.repeat(row_max, np.diff(summed.indptr)))

    def test_single_integrals_bitwise_the_per_integral_assembler(self):
        # digests of what the assembler gave when it assembled, scattered and
        # summed each integral on its own, in chunks of 512 cells: a group of
        # one integral is assembled as one integral was
        mesh = self.mesh()
        dx = Measure(mesh)
        V1, V2, R = (build_space(mesh, e) for e in (lagrange(1), vector_lagrange(2), rt0()))
        u, v = TrialFunction(V1), TestFunction(V1)
        w, z = TrialFunction(V2), TestFunction(V2)
        s, t = TrialFunction(R), TestFunction(R)
        load = Analytic(lambda p: p[:, 0] ** 2 * p[:, 1] - p[:, 1], degree=3)
        forms = {
            "886c110faae5c84e": inner(u, v) * dx,
            "a96b8657a425a0f1": inner(grad(u), grad(v)) * dx,
            "512b2eb1bd7e605c": inner(sym(grad(w)), sym(grad(z))) * dx,
            "d51d76a5d0afb094": inner(s, t) * dx,
            "f565770481f2bd96": inner(div(s), div(t)) * dx,
            "d375a7c154507054": inner(load, v) * dx,
            "e9bc6a0abf3f22cf": inner(load, div(t)) * dx,
        }
        assert [_digest(assemble(f)) for f in forms.values()] == list(forms)


class TestChunkRule:
    # The bounds that keep peak memory where it was measured (see
    # ``_CHUNK_ENTRIES``): the vector-P2 Stokes form no larger than 512
    # cells, P1 forms and error functionals in chunks of thousands, up to
    # 8192 cells, well below a whole benchmark mesh (32768 cells).
    def test_vector_p2_sym_grad_at_most_512_cells(self):
        V = build_space(unit_square_mesh(2), vector_lagrange(2))
        form = inner(sym(grad(TrialFunction(V))), sym(grad(TestFunction(V)))) * Measure(V.mesh)
        assert assemble_module._chunk_cells(form.integrals) <= 512

    # babuska's mass and perfusion's bulk stiffness (162 chunks of 512 cells
    # at n=24)
    @pytest.mark.parametrize("mesh,T", [(unit_square_mesh(2), _value), (unit_cube_mesh(1), grad)])
    def test_p1_forms_at_least_4096_cells(self, mesh, T):
        V = build_space(mesh, lagrange(1))
        form = inner(T(TrialFunction(V)), T(TestFunction(V))) * Measure(mesh)
        assert 4096 <= assemble_module._chunk_cells(form.integrals) <= 8192

    def test_p1_error_functional_between_4096_and_8192_cells(self):
        # the two integrands of ``bench.err_norm`` with a gradient, its
        # value term and its gradient term, each at its degree
        mesh = unit_square_mesh(2)
        fh = Coefficient(Function(build_space(mesh, lagrange(1))))
        e = fh - Analytic(lambda p: p[:, 0], degree=3)
        d = grad(fh) - Analytic(lambda p: p, shape=(2,), degree=3)
        for term in (inner(e, e), inner(d, d)):
            cells = assemble_module._chunk_cells((term * Measure(mesh)).integrals,
                                                 quadrature.MAX_DEGREE[2])
            assert 4096 <= cells <= 8192


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
            apply_bc(self.A, self.b, [bc], symmetric=False)

    def test_both_paths_reject_a_condition_on_another_block_space(self):
        # a condition on babuska's 32-dof multiplier space once pinned dofs
        # of the 81-dof bulk block through the lazy path
        sys = assemble_babuska(8)
        V, Q = sys["W"]
        bc = DirichletBC(Q, 0.0, lambda p: np.ones(len(p), dtype=bool))
        with pytest.raises(ValueError, match="32 dofs, block 0 is 81 x 81"):
            apply_bc_block(sys["A"], sys["b"], {0: [bc]}, symmetric=True)
        with pytest.raises(ValueError, match="block 0"):
            apply_bc(collapse(sys["A"][0, 0]), np.zeros(V.dim), [bc], symmetric=False)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_block_index_outside_the_system_rejected(self, index):
        # -1 once constrained the last block, 5 raised a bare IndexError
        sys = assemble_babuska(4)
        bc = DirichletBC(sys["W"][1], 0.0, lambda p: np.ones(len(p), dtype=bool))
        with pytest.raises(ValueError, match=rf"block {index}; the system has 2 blocks"):
            apply_bc_block(sys["A"], sys["b"], {index: [bc]}, symmetric=True)


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

        def recorded(block_op, rhs_blocks, bcs_by_block, *, symmetric):
            shared = [m.a for m in _leaves(block_op)]
            shared += [red.matrix for red in cache._store.values()]
            before = [(a, a.copy()) for a in shared]
            out = apply_bc_block(block_op, rhs_blocks, bcs_by_block, symmetric=symmetric)
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
            apply_bc_block(op, [np.zeros(V.dim)], {0: [bc]}, symmetric=True)


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
