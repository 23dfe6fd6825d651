"""Checks of the symbolically derived problem data.

Every derived field (forcing, interface residuals, tractions) is rebuilt
here from the primitive manufactured fields with central differences and
compared against the symbolic version at random points.  The committed
numpy module is checked against its sympy derivation, and the run path
against a process without sympy.
"""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import sympy

from multifem import _manufactured_fields, derive_manufactured
from multifem.manufactured import babuska_data, darcy_stokes_data

H = 1e-6
FD_TOL = 1e-6


def fd_grad(f, p):
    out = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = H
        out.append((np.asarray(f(p + e)) - np.asarray(f(p - e))) / (2 * H))
    return np.array(out).T  # [..., i, k] = d f_i / d x_k


@pytest.fixture(scope="module")
def data():
    return darcy_stokes_data()


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(1729)
    return rng.uniform(0.05, 0.95, size=(12, 2))


def stress_fd(data, p):
    g = fd_grad(data.u1, p)
    return 0.5 * (g + g.T) - data.p1(p) * np.eye(2)


class TestDerivedVolumeData:
    def test_u1_divergence_free(self, data, points):
        for p in points:
            g = fd_grad(data.u1, p)
            assert abs(g[0, 0] + g[1, 1]) < FD_TOL

    def test_grad_u1_matches_fd(self, data, points):
        for p in points:
            assert np.abs(data.grad_u1(p) - fd_grad(data.u1, p)).max() < FD_TOL

    def test_f1_is_negative_divergence_of_stress(self, data, points):
        h = 1e-4
        for p in points:
            div_sigma = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                ds = (stress_fd(data, p + e) - stress_fd(data, p - e)) / (2 * h)
                div_sigma += ds[:, k]
            assert np.abs(data.f1(p) + div_sigma).max() < 1e-4

    def test_u2_is_negative_pressure_gradient(self, data, points):
        for p in points:
            fd = fd_grad(lambda q: np.array([data.p2(q)]), p).ravel()
            assert np.abs(data.u2(p) + fd).max() < FD_TOL

    def test_f2_is_divergence_of_u2(self, data, points):
        for p in points:
            g = fd_grad(data.u2, p)
            assert abs(data.f2(p) - (g[0, 0] + g[1, 1])) < FD_TOL


class TestInterfaceResiduals:
    def test_mass_residual(self, data):
        for y in np.linspace(0.05, 0.95, 7):
            p = np.array([0.5, y])
            gap = (data.u1(p) - data.u2(p))[0]
            assert abs(data.g_mass(p) - gap) < FD_TOL

    def test_stress_residual(self, data):
        for y in np.linspace(0.05, 0.95, 7):
            p = np.array([0.5, y])
            s = stress_fd(data, p)
            assert abs(data.g_stress(p) - (s[0, 0] + data.p2(p))) < FD_TOL

    def test_bjs_residual(self, data):
        for y in np.linspace(0.05, 0.95, 7):
            p = np.array([0.5, y])
            s = stress_fd(data, p)
            expected = -s[0, 1] - data.u1(p)[1]
            assert abs(data.g_bjs(p) - expected) < FD_TOL

    def test_multiplier_is_negative_normal_stress(self, data):
        for y in np.linspace(0.05, 0.95, 7):
            p = np.array([0.5, y])
            s = stress_fd(data, p)
            assert abs(data.multiplier(p) + s[0, 0]) < FD_TOL

    def test_residuals_not_trivially_zero(self, data):
        ys = np.linspace(0.1, 0.9, 9)
        pts = np.column_stack([np.full(9, 0.5), ys])
        assert np.abs(data.g_mass(pts)).max() > 1e-3
        assert np.abs(data.g_stress(pts)).max() > 1e-3
        assert np.abs(data.g_bjs(pts)).max() > 1e-3


class TestBoundaryData:
    def test_traction_on_horizontal_boundaries(self, data):
        for x in np.linspace(0.05, 0.45, 5):
            bottom = np.array([x, 0.0])
            top = np.array([x, 1.0])
            assert np.abs(data.traction_horizontal(bottom)
                          - stress_fd(data, bottom) @ [0, -1]).max() < FD_TOL
            assert np.abs(data.traction_horizontal(top)
                          - stress_fd(data, top) @ [0, 1]).max() < FD_TOL

    def test_darcy_flux_on_horizontal_boundaries(self, data):
        for x in np.linspace(0.55, 0.95, 5):
            bottom = np.array([x, 0.0])
            fd = fd_grad(lambda q: np.array([data.p2(q)]), bottom).ravel()
            assert abs(data.darcy_flux_horizontal(bottom) - fd @ [0, -1]) < FD_TOL


    def test_horizontal_pieces_are_the_signed_column_bitwise(self, data):
        # sigma . e_y and dp2/dy by hand, negated on y = 0 and kept on y = 1
        x = np.linspace(0.0, 1.0, 2001)
        for y0 in (0.0, 1.0):
            y = np.full_like(x, y0)
            pts = np.column_stack([x, y])
            side = np.where(y > 1 / 2, 1.0, -1.0)
            col = np.column_stack([
                x ** 3 - 3 * x * y ** 2,
                -6 * x ** 2 * y - np.sin(np.pi * x) * np.cos(np.pi * y)
                - np.pi ** 2 * np.cos(np.pi * x) * np.cos(np.pi * y)])
            dp2_dy = x - np.pi * np.sin(np.pi * y) * np.cos(np.pi * x) - 1 / 2
            assert np.array_equal(data.traction_horizontal(pts), side[:, None] * col)
            assert np.array_equal(data.darcy_flux_horizontal(pts), side * dp2_dy)


class TestDataSets:
    @pytest.mark.parametrize("prefix, read", [("darcy_stokes", darcy_stokes_data),
                                              ("babuska", babuska_data)])
    def test_attributes_are_the_generated_fields(self, prefix, read):
        names = {key[len(prefix) + 1:] for key in _manufactured_fields.SHAPES
                 if key.startswith(prefix + "_")}
        assert names and set(vars(read())) == names

    def test_babuska_study_reads_its_data_once_per_level(self, monkeypatch):
        from multifem import bench
        calls = []

        def counted():
            calls.append(1)
            return babuska_data()
        monkeypatch.setattr(bench, "babuska_data", counted)
        bench.run_case(bench.CaseConfig(case="babuska", n=4, levels=2))
        assert len(calls) == 2


class TestBabuskaData:
    def test_f_matches_operator_applied_to_u(self):
        bd = babuska_data()
        rng = np.random.default_rng(7)
        h = 1e-4
        for p in rng.uniform(0.1, 0.9, (8, 2)):
            lap = 0.0
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                lap += (bd.u(p + e) - 2 * bd.u(p) + bd.u(p - e)) / h ** 2
            assert abs(bd.f(p) - (-lap + bd.u(p))) < 1e-5

    def test_boundary_value_is_u(self):
        bd = babuska_data()
        p = np.array([0.0, 0.3])
        assert bd.g(p) == pytest.approx(bd.u(p))

    def test_exact_multiplier_vanishes(self):
        bd = babuska_data()
        pts = np.column_stack([np.zeros(5), np.linspace(0, 1, 5)])
        assert np.abs(bd.multiplier(pts)).max() == 0.0

    def test_vectorized_and_pointwise_agree(self):
        bd = babuska_data()
        pts = np.random.default_rng(3).uniform(0, 1, (6, 2))
        batch = bd.f(pts)
        single = np.array([bd.f(p) for p in pts])
        assert np.abs(batch - single).max() < 1e-14


class TestGeneratedModule:
    def test_committed_module_is_the_derivation_output(self):
        # a changed derivation needs `python -m multifem.derive_manufactured`
        assert derive_manufactured.GENERATED.read_text() == derive_manufactured.render()

    @pytest.mark.parametrize("shape", [(2,), (50, 2), (7, 5, 2)])
    def test_fields_bitwise_equal_to_lambdified(self, shape):
        xy = np.moveaxis(np.random.default_rng(11).uniform(-0.2, 1.2, shape), -1, 0)

        def bits(value):
            return np.broadcast_to(np.asarray(value, dtype=float), shape[:-1]).view(np.uint64)

        checked = 0
        for prefix, derive in derive_manufactured.DATA_SETS.items():
            coords, fields = derive()
            for name, field in fields.items():
                fn = getattr(_manufactured_fields, f"{prefix}_{name}")
                field_shape, comps = derive_manufactured.components(field)
                assert _manufactured_fields.SHAPES[fn.__name__] == field_shape
                generated = fn(*xy)
                assert len(generated) == len(comps)
                # the components share their common subexpressions
                lambdified = sympy.lambdify(coords, comps, modules="numpy", cse=True)
                for value, expected in zip(generated, lambdified(*xy), strict=True):
                    assert np.array_equal(bits(value), bits(expected)), fn.__name__
                checked += 1
        assert checked == 18


def test_run_path_needs_no_sympy(tmp_path):
    # a None entry in sys.modules makes every import of sympy raise
    import multifem
    src = os.path.dirname(os.path.dirname(multifem.__file__))
    code = textwrap.dedent(f"""
        import sys
        sys.modules["sympy"] = None
        from multifem import cli
        from multifem.bench import CaseConfig, run_case
        for case in ("babuska", "ds-primal", "ds-mixed"):
            assert run_case(CaseConfig(case=case, n=4, levels=1)).ok, case
        assert cli.main(["run", "--case", "ds-mixed", "--n", "4", "--levels", "1",
                         "--out", {str(tmp_path)!r}]) == 0
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "ds-mixed.csv").exists()
