"""What the benchmark harness in ``perfbench/`` needs of the package.

The harness traces the package from outside: it replaces the functions,
methods and properties named in ``perfbench/layers.py`` by name, and an
untimed unit is one whose solver call it did not see.  A rename that
breaks a name here would turn the benchmark's layers into zeros or mark
every unit failed.  These tests only read ``perfbench/``.
"""
import importlib
import sys
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

from multifem import bench
from multifem.bench import CaseConfig, run_case
from multifem.mesh import Mesh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_call_resolves(layers):
    for modname, path, _, _ in layers.CALLS:
        owner = importlib.import_module(modname)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert vars(owner).get(attr) is not None, f"{modname}.{path}"


def test_entity_accessors_are_mesh_properties(layers):
    for name in layers.ENTITY_PROPERTIES:
        assert isinstance(vars(Mesh).get(name), property), name


@pytest.mark.parametrize("case,attr,owner", [
    ("babuska", "minres", bench), ("perfusion", "spsolve", spla)])
def test_solver_called_through_patched_name(case, attr, owner, monkeypatch):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)
    run_case(CaseConfig(case=case, n=4, levels=1))
    assert len(calls) == 1

