import numpy as np
import pytest

from multifem.forms import (
    Analytic, Average, BlockForm, Coefficient, Constant, FormError,
    Integral, Measure, Trace, arguments, div, dot, grad, inner,
    reduced_terminals, replace, sym, TestFunction, TestFunctions,
    TrialFunction, TrialFunctions,
)
from multifem.mesh import facet_submesh, near, polyline_mesh, unit_cube_mesh, unit_square_mesh
from multifem.space import Function, build_space, interpolate, lagrange, vector_lagrange


@pytest.fixture(scope="module")
def setup():
    mesh = unit_square_mesh(2, 2)
    gamma = facet_submesh(mesh, lambda p: near(p[:, 0], 0))
    V = build_space(mesh, lagrange(1))
    Q = build_space(gamma, lagrange(1))
    return mesh, gamma, V, Q


class TestArguments:
    def test_bilinear(self, setup):
        mesh, gamma, V, Q = setup
        u, v = TrialFunction(V), TestFunction(V)
        [itg] = inner(grad(u), grad(v)) * Measure(mesh)
        assert {a.role for a in arguments(itg.integrand)} == {"trial", "test"}
        assert (itg.test, itg.trial, itg.arity) == (v, u, 2)

    def test_functional_has_none(self, setup):
        mesh, *_ = setup
        [itg] = Constant(1.0) * Measure(mesh)
        assert arguments(itg.integrand) == []
        assert (itg.test, itg.trial, itg.arity) == (None, None, 0)

    def test_trace_coupling(self, setup):
        mesh, gamma, V, Q = setup
        u, q = TrialFunction(V), TestFunction(Q, block=1)
        node = Trace(u, gamma)
        [itg] = inner(node, q) * Measure(gamma)
        assert {a.role for a in arguments(itg.integrand)} == {"trial", "test"}
        assert (itg.test, itg.trial) == (q, u)
        assert itg.reduced == (node,)


class TestReducedTerminals:
    def test_single(self, setup):
        mesh, gamma, V, Q = setup
        u, q = TrialFunction(V), TestFunction(Q)
        e = inner(Trace(u, gamma), q)
        assert len(reduced_terminals(e)) == 1

    def test_two_in_preorder(self, setup):
        mesh, gamma, V, Q = setup
        Vv = build_space(mesh, vector_lagrange(1))
        u, v = TrialFunction(Vv), TestFunction(Vv)
        tau = Constant((0.0, 1.0))
        e = inner(dot(Trace(u, gamma), tau), dot(Trace(v, gamma), tau))
        terms = reduced_terminals(e)
        assert len(terms) == 2
        assert terms[0].operand is u and terms[1].operand is v

    def test_none_in_plain_form(self, setup):
        mesh, gamma, V, Q = setup
        u, v = TrialFunction(V), TestFunction(V)
        assert reduced_terminals(inner(grad(u), grad(v))) == []


class TestReplace:
    def test_substitution(self, setup):
        mesh, gamma, V, Q = setup
        u, q = TrialFunction(V), TestFunction(Q)
        node = Trace(u, gamma)
        ubar = TrialFunction(build_space(gamma, lagrange(1)))
        out = replace(inner(node, q), node, ubar)
        assert reduced_terminals(out) == []
        assert ubar in arguments(out)

    def test_absent_terminal_is_identity(self, setup):
        mesh, gamma, V, Q = setup
        u, v = TrialFunction(V), TestFunction(V)
        e = inner(grad(u), grad(v))
        w = TrialFunction(V)
        other = Trace(w, gamma)
        assert replace(e, other, TrialFunction(V)) is e

    def test_double_substitution_clears_reductions(self, setup):
        mesh, gamma, V, Q = setup
        Vv = build_space(mesh, vector_lagrange(1))
        Vb = build_space(gamma, vector_lagrange(1))
        u, v = TrialFunction(Vv), TestFunction(Vv)
        tau = Constant((0.0, 1.0))
        tu, tv = Trace(u, gamma), Trace(v, gamma)
        e = inner(dot(tu, tau), dot(tv, tau))
        e = replace(e, tu, TrialFunction(Vb))
        e = replace(e, tv, TestFunction(Vb))
        assert reduced_terminals(e) == []

    def test_shape_mismatch_rejected(self, setup):
        mesh, gamma, V, Q = setup
        Vv = build_space(mesh, vector_lagrange(1))
        u = TrialFunction(Vv)
        node = Trace(u, gamma)
        with pytest.raises(FormError):
            replace(dot(node, Constant((1.0, 0.0))), node, TrialFunction(Q))


class TestWellFormedness:
    def test_nested_reduction_rejected(self, setup):
        mesh, gamma, V, Q = setup
        u = TrialFunction(V)
        node = Trace(u, gamma)
        with pytest.raises(FormError, match="terminal"):
            Trace(node, gamma)

    def test_non_terminal_operand_rejected(self, setup):
        mesh, gamma, V, Q = setup
        u, v = TrialFunction(V), TestFunction(V)
        with pytest.raises(FormError, match="terminal"):
            Trace(inner(u, v), gamma)

    def test_average_radius_validation(self, setup):
        mesh, gamma, V, Q = setup
        u = TrialFunction(V)
        with pytest.raises(FormError):
            Average(u, gamma, radius=-0.1)

    @pytest.mark.parametrize("n_quad", [0, 2.5, -3])
    def test_average_n_quad_validation(self, n_quad):
        cube = unit_cube_mesh(2)
        line = polyline_mesh([(0.5, 0.5, 0.2), (0.5, 0.5, 0.8)], 2)
        u = TrialFunction(build_space(cube, lagrange(1)))
        with pytest.raises(FormError, match="n_quad must be an integer >= 1"):
            Average(u, line, 0.2, n_quad=n_quad)
        Average(u, line, 0.2, n_quad=np.int64(1))

    def test_shape_rules(self, setup):
        mesh, gamma, V, Q = setup
        Vv = build_space(mesh, vector_lagrange(1))
        u, v = TrialFunction(Vv), TestFunction(V)
        with pytest.raises(FormError):
            inner(u, v)                      # vector vs scalar
        with pytest.raises(FormError):
            dot(v, v)                        # scalars cannot contract
        with pytest.raises(FormError):
            div(v)
        assert grad(u).shape == (2, 2)
        assert sym(grad(u)).shape == (2, 2)

    def test_mixed_arity_add_rejected(self, setup):
        mesh, gamma, V, Q = setup
        u, v = TrialFunction(V), TestFunction(V)
        with pytest.raises(FormError):
            inner(u, v) + inner(Constant(1.0), v)

    def test_off_mesh_argument_rejected(self, setup):
        mesh, gamma, V, Q = setup
        u, q = TrialFunction(V), TestFunction(Q)
        with pytest.raises(FormError):
            Integral(inner(u, q), gamma)     # u unreduced off the measure mesh

    def test_number_times_measure_rejected(self, setup):
        mesh, gamma, V, Q = setup
        with pytest.raises(TypeError):
            2.0 * Measure(mesh)

    def test_two_trial_lineages_rejected(self, setup):
        mesh, gamma, V, Q = setup
        u, w = TrialFunction(V), TrialFunction(V)
        with pytest.raises(FormError):
            Integral(inner(grad(u), grad(w)), mesh)


class TestReconstruct:
    def test_measure_mesh_preserved(self, setup):
        mesh, gamma, V, Q = setup
        u, q = TrialFunction(V), TestFunction(Q)
        node = Trace(u, gamma)
        itg = Integral(inner(node, q), gamma)
        ubar = TrialFunction(build_space(gamma, lagrange(1)))
        out = Integral(replace(itg.integrand, node, ubar), itg.mesh)
        assert out.mesh is gamma
        assert out.arity == 2


class TestBlockForm:
    def test_add_routes_by_block_indices(self, setup):
        mesh, gamma, V, Q = setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        dx, dl = Measure(mesh), Measure(gamma)
        a = BlockForm(W)
        a.add(inner(grad(u), grad(v)) * dx)
        a.add(inner(p, Trace(v, gamma)) * dl)
        assert sorted(a.table) == [(0, 0), (0, 1)]
        assert a.arity == 2

    def test_disjoint_adds_commute(self, setup):
        mesh, gamma, V, Q = setup
        W = [V, Q]
        u, p = TrialFunctions(W)
        v, q = TestFunctions(W)
        dx, dl = Measure(mesh), Measure(gamma)
        f1 = inner(u, v) * dx
        f2 = inner(Trace(u, gamma), q) * dl
        a = BlockForm(W).add(f1).add(f2)
        b = BlockForm(W).add(f2).add(f1)
        assert a.table.keys() == b.table.keys()
        for key, lhs in a.table.items():
            assert [id(x) for x in lhs.integrals] == [id(x) for x in b.table[key].integrals]

    def test_arity_mismatch_rejected(self, setup):
        # the first form added fixes the arity
        mesh, gamma, V, Q = setup
        W = [V, Q]
        v = TestFunctions(W)[0]
        L = BlockForm(W).add(inner(Constant(1.0), v) * Measure(mesh))
        with pytest.raises(FormError, match="arity 1 got a contribution of arity 2"):
            L.add(inner(TrialFunctions(W)[0], v) * Measure(mesh))
        assert list(L.table) == [(0,)] and L.arity == 1

    def test_linear_contribution_needs_a_test_function(self, setup):
        mesh, gamma, V, Q = setup
        W = [V, Q]
        with pytest.raises(FormError, match="need a test function"):
            BlockForm(W).add(inner(Constant(1.0), TrialFunctions(W)[0]) * Measure(mesh))

    def test_block_index_outside_spaces_rejected(self, setup):
        mesh, gamma, V, Q = setup
        a = BlockForm([V, Q])
        u, v = TrialFunction(V, block=2), TestFunction(V)
        with pytest.raises(FormError, match="block index 2 outside"):
            a.add(inner(u, v) * Measure(mesh))
        with pytest.raises(FormError, match="block index -1 outside"):
            a.add(inner(TrialFunction(V), TestFunction(V, block=-1)) * Measure(mesh))
        assert a.table == {}

    def test_space_other_than_the_blocks_rejected(self, setup):
        mesh, gamma, V, Q = setup
        a = BlockForm([V, Q])
        other = build_space(mesh, lagrange(1))         # equal, but not V
        u, v = TrialFunction(other), TestFunction(V)
        with pytest.raises(FormError, match="space 0"):
            a.add(inner(u, v) * Measure(mesh))
        with pytest.raises(FormError, match="space 1"):
            a.add(inner(TrialFunction(V), TestFunction(V, block=1)) * Measure(mesh))
        assert a.table == {}


def test_coefficient_expressions(setup):
    mesh, gamma, V, Q = setup
    f = interpolate(V, lambda p: p[:, 0])
    v = TestFunction(V)
    form = inner(Coefficient(f), v) * Measure(mesh)
    assert form.arity == 1
    assert Coefficient(f).shape == ()
    assert Analytic(lambda p: 1.0).shape == ()
