"""Tests of the benchmark's own helpers: span arithmetic, the accuracy
check, the operator-tree census and one small traced unit.

    python3 -m pytest -q perfbench
"""
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import layers
import run
from multifem import bench, krylov, mesh
from multifem.opalg import (
    BlockMat, Identity, InverseHandle, Matrix, Product, Scaled, Sum, Transpose, Zero, collapse,
)
from tracing import self_times

REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_self_times_of_nested_spans():
    spans = [["unit", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0],
             ["c", 5.0, 9.0, 0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0][2] - spans[0][1]


def _study(case, **change):
    ref = REFERENCE[case]
    errors = dict(ref["errors"])
    row = {"dofs_total": ref["dofs_total"], "iters": ref["iters"]}
    for key, value in change.items():
        if key in errors:
            errors[key] = value
        else:
            row[key] = value
    rec = bench.StudyRecord(case, list(errors))
    rec.add_row(0, 1.0, row["dofs_total"], row["iters"], errors, 1.0)
    return rec, dict(ref, rtol=REFERENCE["rtol"], iters_rtol=REFERENCE["iters_rtol"])


def test_reference_check_passes_within_tolerance():
    u = REFERENCE["babuska"]["errors"]["u_h1"]
    assert run.check_record(*_study("babuska", u_h1=u * (1 + 5e-4), iters=45)) == []


@pytest.mark.parametrize("change", [
    {"u_h1": REFERENCE["babuska"]["errors"]["u_h1"] * (1 + 2e-3)},
    {"p_l2": math.nan},
    {"iters": 46},
    {"dofs_total": 17154},
])
def test_reference_check_flags_a_bad_unit(change):
    problems = run.check_record(*_study("babuska", **change))
    assert len(problems) == 1
    assert run.failed_frac([{"problems": []}, {"problems": problems}]) == 0.5


def test_census_of_a_hand_built_tree():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    dense = np.ones((2, 2))
    inv = InverseHandle(2, lambda v: v)
    tree = BlockMat([[Sum([Matrix(a), Scaled(2.0, Transpose(Matrix(dense)))]), Zero(2, 2)],
                     [Product([Matrix(a), Identity(2)]), inv]])
    assert layers.census(tree) == {"opalg.tree_nodes": 11, "opalg.tree_leaves": 5,
                                   "opalg.stored_entries": 8, "opalg.collapsed_nnz": None}
    tree.blocks[1][1] = Matrix(a)
    assert layers.census(tree)["opalg.collapsed_nnz"] == collapse(tree).nnz == 8


def test_census_of_the_ds_mixed_system():
    A = bench.assemble_darcy_stokes(4, "mixed")["A"]
    c = layers.census(A)
    assert c["opalg.collapsed_nnz"] == collapse(A).nnz
    assert (c["opalg.tree_nodes"], c["opalg.tree_leaves"]) == (71, 31)
    assert c["opalg.stored_entries"] > c["opalg.collapsed_nnz"]


def _small_babuska():
    case = {"case": "babuska", "n": 8, "levels": 1, "tol": 1e-10, "seed": 3}
    row = bench.run_case(bench.CaseConfig(**case)).rows[0]
    ref = {"dofs_total": row["dofs_total"], "iters": row["iters"], "rtol": 1e-3, "iters_rtol": 0,
           "errors": {c: row[f"err_{c}"] for c in ("u_h1", "u_l2", "p_l2")}}
    return case, ref


def test_traced_unit_accounts_for_its_time(capsys):
    case, ref = _small_babuska()
    units = [run.run_unit(uid, case, ref, full_trace=True) for uid in (1, 2)]
    assert "not found" not in capsys.readouterr().err
    counts = []
    for unit, rec in units:
        assert unit["problems"] == []
        assert {s[4] for s in rec.spans} == {unit["id"]}
        m = unit["layers"]
        self_total = (sum(m[k] for k in layers.SELF_METRIC.values())
                      + sum(m[k] for k in layers.ASSEMBLE_METRICS))
        assert self_total == pytest.approx(m["trace.run_s"], rel=1e-9)
        assert m["trace.run_s"] == unit["end_to_end"]["run_s"]
        counts.append({k: v for k, v in m.items() if layers.UNIT_LAYER_METRICS[k] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["krylov.iters"] == ref["iters"]
    assert counts[0]["krylov.hs_dim"] == 32 and counts[0]["reduction.builds"] == 1


def test_untraced_unit_times_only_the_solver():
    case, ref = _small_babuska()
    unit, rec = run.run_unit(0, case, ref, full_trace=False)
    assert [s[0] for s in rec.spans] == ["unit", "krylov.solver"]
    e2e = unit["end_to_end"]
    assert 0 < e2e["solve_s"] and 0 < e2e["setup_s"]
    assert e2e["setup_s"] + e2e["solve_s"] < e2e["run_s"]
    assert 0 < unit["host_s"]


def test_end_to_end_leaves_out_the_samplers_time():
    spans = [["unit", 0.0, 10.0, -1, 0],
             ["krylov.solver", 4.0, 6.0, 0, 0],
             ["krylov.solver", 7.0, 8.0, 0, 0]]
    sampler = run.HostSampler()
    sampler.samples = [(-1.0, 0.5), (1.0, 0.25), (5.0, 0.5), (7.5, 0.25), (9.0, 0.5)]
    assert layers.end_to_end(spans, sampler.unscaled) == {
        "run_s": 8.5, "solve_s": 2.25, "setup_s": 8.0 - 0.25 - 0.5 - 0.25 - 2.25}


def test_sampled_seconds_scale_to_reference_host_speed():
    ref = run.KERNEL_REF_S
    sampler = run.HostSampler()
    sampler.samples = [(1.0, ref), (3.0, 2 * ref), (6.0, 2 * ref)]
    # [0, 1) at the first sample's speed; the next stretch, from its end to
    # the second sample, at the mean of the two; then at half speed.
    assert sampler.seconds(0.0, 1.0) == pytest.approx(1.0)
    assert sampler.seconds(1.0 + ref, 3.0) == pytest.approx((2.0 - ref) / 1.5)
    assert sampler.seconds(3.0 + 2 * ref, 6.0) == pytest.approx((3.0 - 2 * ref) / 2)
    assert sampler.seconds(7.0, 9.0) == pytest.approx(1.0)
    assert sampler.seconds(0.0, 9.0) == pytest.approx(
        1.0 + (2.0 - ref) / 1.5 + (3.0 - 2 * ref) / 2 + (3.0 - 2 * ref) / 2)


def test_tracing_restores_every_binding():
    import multifem
    before = (bench.minres, bench.collapse, multifem.assemble, spla.spsolve,
              vars(mesh.Mesh)["edges"], vars(mesh.CellLocator)["locate"])
    case, ref = _small_babuska()
    run.run_unit(0, case, ref, full_trace=True)
    after = (bench.minres, bench.collapse, multifem.assemble, spla.spsolve,
             vars(mesh.Mesh)["edges"], vars(mesh.CellLocator)["locate"])
    assert all(a is b for a, b in zip(before, after))
    assert bench.minres is krylov.minres and not hasattr(bench.minres, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(layers.UNIT_LAYER_METRICS, **layers.PROCESS_METRICS)
    unit = {"end_to_end": {"run_s": 1.0, "setup_s": 0.5, "solve_s": 0.25}}
    emitted = {k: m["unit"] for k, m in run.end_to_end_metrics([unit]).items()}
    assert emitted == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
