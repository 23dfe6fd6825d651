import gc
import weakref

import numpy as np
import pytest

from multifem import bench, interpreter, reduction

from multifem.assemble import assemble
from multifem.forms import (
    Average, BlockForm, Coefficient, Constant, Form, FormError, Measure, ReductionKind,
    Restrict, TestFunction, TestFunctions, Trace, TrialFunction,
    TrialFunctions, dot, grad, inner,
)
from multifem.interpreter import multi_assemble
from multifem.mesh import (
    cell_submesh, facet_submesh, near, polyline_mesh, unit_cube_mesh,
    unit_square_mesh,
)
from multifem.opalg import BlockMat, Matrix, Product, Sum, Transpose, Zero, collapse
from multifem.reduction import (
    ReductionCache, average_matrix, deduce_reduced_space, trace_matrix,
)
from multifem.space import build_space, interpolate, lagrange, vector_lagrange

TRACE = ReductionKind("trace")


def boundary(p):
    return near(p[:, 0], 0) | near(p[:, 0], 1) | near(p[:, 1], 0) | near(p[:, 1], 1)


def rel_gap(a, b):
    scale = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


@pytest.fixture(scope="module")
def babuska_setup():
    mesh = unit_square_mesh(4, 4)
    gamma = facet_submesh(mesh, boundary)
    V = build_space(mesh, lagrange(1))
    Q = build_space(gamma, lagrange(1))
    return mesh, gamma, V, Q


class TestFallback:
    def test_reduction_free_form_is_bitwise_base(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        u, v = TrialFunction(V), TestFunction(V)
        dx = Measure(mesh)
        form = inner(grad(u), grad(v)) * dx + inner(u, v) * dx
        direct = assemble(form)
        routed = multi_assemble(form, ReductionCache())
        assert (direct != routed).nnz == 0

    def test_functional_assembles_to_number(self, babuska_setup):
        mesh, *_ = babuska_setup
        out = multi_assemble(Constant(2.0) * Measure(mesh), ReductionCache())
        assert abs(out - 2.0) < 1e-12


class TestBabuskaLowering:
    def test_block_structure_and_dense_oracle(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        dx, dl = Measure(mesh), Measure(gamma)
        a = BlockForm(W)
        a.add(inner(grad(u), grad(v)) * dx + inner(u, v) * dx)
        a.add(inner(p, Trace(v, gamma)) * dl)
        a.add(inner(Trace(u, gamma), q) * dl)
        cache = ReductionCache()
        A = multi_assemble(a, cache)

        assert isinstance(A, BlockMat)
        assert isinstance(A[1, 1], Zero)
        assert A[1, 1].shape == (Q.dim, Q.dim)
        assert cache.build_count == 1      # one trace serves B and B'

        # dense oracle from independently built factors
        red = cache.get_or_build(V, gamma, TRACE)
        T = red.matrix.toarray()
        ubar = TrialFunction(red.target_space)
        vbar = TestFunction(red.target_space)
        M10 = assemble(inner(ubar, q) * dl).toarray()
        M01 = assemble(inner(p, vbar) * dl).toarray()
        A00 = assemble(inner(grad(u), grad(v)) * dx + inner(u, v) * dx).toarray()
        assert rel_gap(collapse(A[0, 0]).toarray(), A00) <= 1e-12
        assert rel_gap(collapse(A[1, 0]).toarray(), M10 @ T) <= 1e-12
        assert rel_gap(collapse(A[0, 1]).toarray(), T.T @ M01) <= 1e-12

    def test_adjoint_consistency_in_action(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        u, v = TrialFunction(V), TestFunction(V)
        p, q = TrialFunction(Q, block=1), TestFunction(Q, block=1)
        dl = Measure(gamma)
        cache = ReductionCache()
        B = multi_assemble(inner(Trace(u, gamma), q) * dl, cache)
        Bp = multi_assemble(inner(p, Trace(v, gamma)) * dl, cache)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(V.dim)
            y = rng.standard_normal(Q.dim)
            assert abs(B.matvec(x) @ y - x @ Bp.matvec(y)) < 1e-12 * (
                1 + abs(B.matvec(x) @ y))

    def test_linear_form_with_reduced_test_function(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        v = TestFunction(V)
        dl = Measure(gamma)
        g = Constant(1.0)
        cache = ReductionCache()
        vec = multi_assemble(inner(g, Trace(v, gamma)) * dl, cache)
        assert isinstance(vec, np.ndarray) and vec.shape == (V.dim,)
        # oracle: T^T applied to the reduced-space load vector
        red = cache.get_or_build(V, gamma, TRACE)
        vbar = TestFunction(red.target_space)
        oracle = red.matrix.T @ assemble(inner(g, vbar) * dl)
        assert np.abs(vec - oracle).max() < 1e-14


class TestTangentialAndSumLowering:
    def test_bjs_term_symmetric_triple_product(self):
        n = 3
        m1 = unit_square_mesh(n, n, offset=(0, 0), extent=(0.5, 1))
        m2 = unit_square_mesh(n, 2 * n, offset=(0.5, 0), extent=(0.5, 1))
        gamma = facet_submesh(m2, lambda p: near(p[:, 0], 0.5))
        V = build_space(m1, vector_lagrange(2))
        u, v = TrialFunction(V), TestFunction(V)
        tau = Constant((0.0, 1.0))
        dl = Measure(gamma)
        form = inner(dot(Trace(u, gamma), tau), dot(Trace(v, gamma), tau)) * dl
        cache = ReductionCache()
        K = collapse(multi_assemble(form, cache)).toarray()
        assert np.abs(K - K.T).max() <= 1e-12 * max(1, np.abs(K).max())
        red = cache.get_or_build(V, gamma, TRACE)
        ubar = TrialFunction(red.target_space)
        vbar = TestFunction(red.target_space)
        Kbar = assemble(inner(dot(ubar, tau), dot(vbar, tau)) * dl).toarray()
        T = red.matrix.toarray()
        assert rel_gap(K, T.T @ Kbar @ T) <= 1e-12

    def test_sum_of_volume_and_interface_terms(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        u, v = TrialFunction(V), TestFunction(V)
        dx, dl = Measure(mesh), Measure(gamma)
        form = inner(u, v) * dx + inner(Trace(u, gamma), Trace(v, gamma)) * dl
        cache = ReductionCache()
        op = multi_assemble(form, cache)
        assert isinstance(op, Sum)
        M = assemble(inner(u, v) * dx)
        red = cache.get_or_build(V, gamma, TRACE)
        ubar = TrialFunction(red.target_space)
        vbar = TestFunction(red.target_space)
        Mbar = assemble(inner(ubar, vbar) * dl)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(V.dim)
            ref = M @ x + red.matrix.T @ (Mbar @ (red.matrix @ x))
            assert np.abs(op.matvec(x) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture(scope="module")
def three_d():
    cube = unit_cube_mesh(3)
    line = polyline_mesh([(0.55, 0.55, 0.1), (0.55, 0.55, 0.9)], 3)
    V = build_space(cube, lagrange(1))
    Q = build_space(line, lagrange(1))
    return cube, line, V, Q


class TestAverageLowering:

    def test_mixed_average_trace_not_symmetric(self, three_d):
        cube, line, V, Q = three_d
        u, v = TrialFunction(V), TestFunction(V)
        dl = Measure(line)
        form = inner(Average(u, line, 0.2, 16), Trace(v, line)) * dl
        C = collapse(multi_assemble(form, ReductionCache())).toarray()
        assert np.abs(C - C.T).max() > 1e-8 * max(1, np.abs(C).max())

    def test_single_sided_average(self, three_d):
        cube, line, V, Q = three_d
        u = TrialFunction(V)
        q = TestFunction(Q, block=1)
        dl = Measure(line)
        cache = ReductionCache()
        op = multi_assemble(inner(Average(u, line, 0.2, 16), q) * dl, cache)
        red = cache.get_or_build(V, line, ReductionKind("average", 0.2, 16))
        ubar = TrialFunction(red.target_space)
        Mbar = assemble(inner(ubar, q) * dl).toarray()
        assert rel_gap(collapse(op).toarray(), Mbar @ red.matrix.toarray()) <= 1e-12

    def test_constant_exchange_annihilates_constants(self, three_d):
        cube, line, V, Q = three_d
        u, p = TrialFunction(V), TrialFunction(Q, block=1)
        v, q = TestFunction(V), TestFunction(Q, block=1)
        dl = Measure(line)
        cache = ReductionCache()
        B_avg = multi_assemble(inner(Average(u, line, 0.2, 16), q) * dl, cache)
        B_p = multi_assemble(inner(p, q) * dl, cache)
        cu = interpolate(V, 4.0).coefficients
        cp = interpolate(Q, 4.0).coefficients
        out = B_avg.matvec(cu) - B_p @ cp
        assert np.abs(out).max() < 1e-12

    def test_reduced_coefficient_path(self, three_d):
        cube, line, V, Q = three_d
        f = interpolate(V, lambda p: p[:, 2])
        q = TestFunction(Q)
        dl = Measure(line)
        cache = ReductionCache()
        vec = multi_assemble(inner(Trace(Coefficient(f), line), q) * dl, cache)
        assert isinstance(vec, np.ndarray)
        # oracle: trace the coefficient then assemble on the curve
        red = cache.get_or_build(V, line, TRACE)
        from multifem.space import Function
        fbar = Function(red.target_space, red.matrix @ f.coefficients)
        oracle = assemble(inner(Coefficient(fbar), q) * dl)
        assert np.abs(vec - oracle).max() < 1e-14


class TestOnePassLowering:
    """A reduced integral is lowered once into ``R_test^T o A o R_trial``;
    the oracles take their factors from the reduction builders directly,
    not from the lowering's cache."""

    def test_average_trial_trace_test_is_one_flat_product(self, three_d):
        cube, line, V, Q = three_d
        u, v = TrialFunction(V), TestFunction(V)
        dl = Measure(line)
        avg = ReductionKind("average", 0.2, 16)
        op = multi_assemble(inner(Average(u, line, 0.2, 16), Trace(v, line)) * dl,
                            ReductionCache())
        assert isinstance(op, Product)
        assert [type(f) for f in op.factors] == [Transpose, Matrix, Matrix]
        Vbar = deduce_reduced_space(V, line, avg)
        P = trace_matrix(V, deduce_reduced_space(V, line, TRACE)).toarray()
        R = average_matrix(V, Vbar, 0.2, 16).toarray()
        M = assemble(inner(TrialFunction(Vbar), TestFunction(Vbar)) * dl).toarray()
        assert rel_gap(collapse(op).toarray(), P.T @ M @ R) <= 1e-12

    def test_reduced_coefficient_and_test_argument(self, three_d):
        cube, line, V, Q = three_d
        f = interpolate(V, lambda p: 1.0 + p[:, 2])
        v = TestFunction(V)
        dl = Measure(line)
        vec = multi_assemble(inner(Trace(Coefficient(f), line), Trace(v, line)) * dl,
                             ReductionCache())
        assert isinstance(vec, np.ndarray) and vec.shape == (V.dim,)
        Vbar = deduce_reduced_space(V, line, TRACE)
        P = trace_matrix(V, Vbar).toarray()
        M = assemble(inner(TrialFunction(Vbar), TestFunction(Vbar)) * dl).toarray()
        assert rel_gap(vec, P.T @ M @ P @ f.coefficients) <= 1e-12


class TestRestrictLowering:
    def test_single_sided_and_crossed(self):
        mesh = unit_square_mesh(4, 4)
        sub = cell_submesh(mesh, lambda c: c[:, 0] <= 0.5)
        V = build_space(mesh, lagrange(1))
        Vw = build_space(sub, lagrange(1))
        phi = TrialFunction(V)
        v = TestFunction(Vw)
        dxw = Measure(sub)
        cache = ReductionCache()
        op = multi_assemble(inner(Restrict(phi, sub), v) * dxw, cache)
        red = cache.get_or_build(V, sub, ReductionKind("restrict"))
        phibar = TrialFunction(red.target_space)
        Mw = assemble(inner(phibar, v) * dxw).toarray()
        assert rel_gap(collapse(op).toarray(), Mw @ red.matrix.toarray()) <= 1e-12

    def test_full_domain_restriction_is_permuted_mass(self):
        # with the submesh covering everything the lowered operator is the
        # bulk mass conjugated by the dof permutation: M_w R = (P M P^T) P = P M
        mesh = unit_square_mesh(3, 3)
        sub = cell_submesh(mesh, lambda c: np.ones(len(c), bool))
        V = build_space(mesh, lagrange(1))
        Vw = build_space(sub, lagrange(1))
        phi, psi = TrialFunction(V), TestFunction(V)
        v = TestFunction(Vw)
        dx, dxw = Measure(mesh), Measure(sub)
        cache = ReductionCache()
        op = multi_assemble(inner(Restrict(phi, sub), v) * dxw, cache)
        red = cache.get_or_build(V, sub, ReductionKind("restrict"))
        P = red.matrix.toarray()
        assert np.abs(P - np.round(P)).max() < 1e-12
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
        P = np.round(P)
        M = assemble(inner(phi, psi) * dx).toarray()
        assert rel_gap(collapse(op).toarray(), P @ M) <= 1e-12

    def test_two_sided_restriction_spd(self):
        mesh = unit_square_mesh(3, 3)
        sub = cell_submesh(mesh, lambda c: c[:, 1] <= 0.5)
        V = build_space(mesh, lagrange(1))
        phi = TrialFunction(V)
        psi = TestFunction(V)
        dxw = Measure(sub)
        form = inner(Restrict(phi, sub), Restrict(psi, sub)) * dxw
        K = collapse(multi_assemble(form, ReductionCache())).toarray()
        assert np.abs(K - K.T).max() <= 1e-13
        eig = np.linalg.eigvalsh(K)
        assert eig.min() >= -1e-12        # PSD: dofs off the subdomain are null


def test_unknown_reduction_kind_reported():
    # an unknown kind is rejected where it is named, before any lowering
    with pytest.raises(FormError, match="unknown reduction 'mystery'"):
        ReductionKind("mystery")


class TestPerCallCache:
    """Without a cache, ``multi_assemble`` builds one for the call and drops
    it with the call: nothing outlives the result."""

    def test_uncached_call_keeps_no_space_alive(self):
        mesh = unit_square_mesh(4, 4)
        gamma = facet_submesh(mesh, boundary)
        V = build_space(mesh, lagrange(1))
        Q = build_space(gamma, lagrange(1))
        alive = weakref.ref(V)
        multi_assemble(inner(Trace(TrialFunction(V), gamma), TestFunction(Q)) * Measure(gamma))
        del V
        gc.collect()
        assert alive() is None

    def test_uncached_block_form_builds_each_reduction_once(self, babuska_setup, monkeypatch):
        mesh, gamma, V, Q = babuska_setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        dl = Measure(gamma)
        a = BlockForm(W)
        a.add(inner(p, Trace(v, gamma)) * dl)
        a.add(inner(Trace(u, gamma), q) * dl)
        builds = []
        original = reduction.trace_matrix
        monkeypatch.setattr(reduction, "trace_matrix",
                            lambda *args: builds.append(1) or original(*args))
        multi_assemble(a)
        multi_assemble(a)
        assert len(builds) == 2            # once per call: B and B' share it


class TestBlockShapes:
    def test_zero_blocks_carry_dimensions(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        a = BlockForm(W)
        a.add(inner(u, v) * Measure(mesh))
        A = multi_assemble(a, ReductionCache())
        assert A[0, 1].shape == (V.dim, Q.dim)
        assert A[1, 0].shape == (Q.dim, V.dim)
        assert A[1, 1].shape == (Q.dim, Q.dim)

    def test_linear_block_form_to_blockvec(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        W = [V, Q]
        v, q = TestFunctions(W)
        L = BlockForm(W)
        L.add(inner(Constant(1.0), v) * Measure(mesh))
        b = multi_assemble(L, ReductionCache())
        assert isinstance(b, list) and len(b) == 2
        assert b[0].shape == (V.dim,) and np.abs(b[1]).max() == 0.0


class TestGroupedLowering:
    """A form's integrals lower in groups that share their reduction pair:
    one substitution pass, one ``assemble`` call and one composition each."""

    @staticmethod
    def record(monkeypatch):
        """Log the lowering's ``assemble`` calls (mesh cells, integral count)
        and the reduction builds, in order."""
        events = []
        original = interpreter.assemble
        monkeypatch.setattr(interpreter, "assemble", lambda form: events.append(
            ("assemble", form.integrals[0].mesh.num_cells, len(form.integrals)))
            or original(form))
        for name in ("trace_matrix", "average_matrix"):
            build = getattr(reduction, name)
            monkeypatch.setattr(reduction, name, lambda *a, _b=build, _n=name:
                                events.append((_n,)) or _b(*a))
        return events

    def test_shared_pair_is_one_product(self, babuska_setup):
        mesh, gamma, *_ = babuska_setup
        V = build_space(mesh, vector_lagrange(1))
        u, v = TrialFunction(V), TestFunction(V)
        c = Constant((1.0, 2.0))
        dl = Measure(gamma)
        tu, tv = Trace(u, gamma), Trace(v, gamma)
        form = inner(tu, tv) * dl + inner(dot(tu, c), dot(tv, c)) * dl
        cache = ReductionCache()
        op = multi_assemble(form, cache)
        assert isinstance(op, Product)
        assert [type(f) for f in op.factors] == [Transpose, Matrix, Matrix]
        # the middle matrix against the integral-by-integral sum
        Vbar = cache.get_or_build(V, gamma, TRACE).target_space
        ubar, vbar = TrialFunction(Vbar), TestFunction(Vbar)
        ref = (assemble(inner(ubar, vbar) * dl)
               + assemble(inner(dot(ubar, c), dot(vbar, c)) * dl)).tocsr()
        mid = op.factors[1].a.tocsr()
        ref.sort_indices()
        mid.sort_indices()
        assert np.array_equal(mid.indptr, ref.indptr)
        assert np.array_equal(mid.indices, ref.indices)
        assert np.all(np.abs(mid.data - ref.data) <= 4 * np.finfo(float).eps * np.abs(ref.data))

    def test_ds_primal_stokes_load_fuses_its_interface_terms(self, monkeypatch):
        # g_n and g_t both test the trace of the Stokes velocity on the
        # interface: 4 integrals, 3 groups
        built = []
        lower = bench.multi_assemble
        monkeypatch.setattr(bench, "multi_assemble",
                            lambda obj, cache=None: built.append(obj) or lower(obj, cache))
        bench.assemble_darcy_stokes(2, "primal", apply_bcs=False)
        [L] = [bf for bf in built if bf.arity == 1]
        load = L.table[(0,)]
        assert len(load.integrals) == 4
        events = self.record(monkeypatch)
        fused = multi_assemble(load)
        assert [e[2] for e in events if e[0] == "assemble"] == [1, 2, 1]
        separate = sum(multi_assemble(Form([i])) for i in load)
        assert np.abs(fused - separate).max() <= 4 * np.finfo(float).eps * np.abs(separate).max()

    def test_blocks_lower_in_row_major_order(self, babuska_setup, monkeypatch):
        mesh, gamma, V, Q = babuska_setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        dx, dl = Measure(mesh), Measure(gamma)
        forms = [inner(Trace(u, gamma), q) * dl, inner(p, Trace(v, gamma)) * dl,
                 inner(u, v) * dx]                     # (1, 0), (0, 1), (0, 0)
        events = self.record(monkeypatch)
        ordered = multi_assemble(BlockForm(W).add(forms[2]).add(forms[1]).add(forms[0]))
        first = list(events)
        events.clear()
        reversed_ = multi_assemble(BlockForm(W).add(forms[0]).add(forms[1]).add(forms[2]))
        assert events == first == [("assemble", mesh.num_cells, 1), ("trace_matrix",),
                                   ("assemble", gamma.num_cells, 1),
                                   ("assemble", gamma.num_cells, 1)]
        for i in range(2):
            for j in range(2):
                assert type(ordered[i, j]) is type(reversed_[i, j])

    def test_perfusion_stiffness_before_its_reductions(self, monkeypatch):
        # A[0, 0] = stiffness + average-trace exchange: the bulk stiffness
        # is assembled before the circle average and the trace are built
        events = self.record(monkeypatch)
        sys = bench.assemble_perfusion(2, apply_bcs=False)
        omega, gamma = sys["omega"], sys["gamma"]
        assert events[:4] == [("assemble", omega.num_cells, 1), ("average_matrix",),
                              ("trace_matrix",), ("assemble", gamma.num_cells, 1)]

    def test_empty_block_form_rejected(self, babuska_setup):
        mesh, gamma, V, Q = babuska_setup
        with pytest.raises(FormError, match="no forms"):
            multi_assemble(BlockForm([V, Q]))
