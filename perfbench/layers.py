"""Which multifem calls the benchmark wraps, and the metrics derived from
the spans of one study unit.

Spans are recorded from outside the program: every wrapped function is
replaced in each multifem module that binds it (``from ... import`` copies
included), methods and properties on their class, and ``spsolve`` on
``scipy.sparse.linalg``, where ``multifem.bench`` reaches it.  ``forms``,
``quadrature``, ``manufactured`` and ``cli`` get no span of their own;
their time shows in their callers' self time.
"""
from __future__ import annotations

import statistics
import sys

import scipy.sparse as sp

from multifem import opalg
from tracing import Patch, self_times, wrap

SOLVERS = ("krylov.solver", "solve.direct")

# Span names and the per-layer self-time metric each one feeds.  ``unit``
# is the root span around one ``run_case`` call; its self time is the
# part of the unit no other span covers.  ``assemble`` is split by phase.
SELF_METRIC = {
    "unit": "trace.unspanned_s",
    "mesh.generate": "mesh.generate_s",
    "mesh.submesh": "mesh.submesh_s",
    "mesh.entities": "mesh.entities_s",
    "mesh.locator_build": "mesh.locator_build_s",
    "mesh.locate": "mesh.locate_s",
    "space.build": "space.build_s",
    "space.basis_row": "space.basis_row_s",
    "space.evaluate": "space.evaluate_s",
    "reduction.lookup": "reduction.lookup_s",
    "reduction.trace": "reduction.trace_s",
    "reduction.average": "reduction.average_s",
    "interpreter": "interpreter.self_s",
    "assemble.bc": "assemble.bc_s",
    "opalg.matvec": "opalg.matvec_s",
    "opalg.collapse": "opalg.collapse_s",
    "krylov.precond_build": "krylov.precond_build_s",
    "krylov.factor": "krylov.factor_s",
    "krylov.hs_build": "krylov.hs_build_s",
    "krylov.precond_apply": "krylov.precond_apply_s",
    "krylov.solver": "krylov.solver_self_s",
    "solve.direct": "solve.direct_s",
}
# ``assemble`` spans that start before the last solver call returns are
# system assembly (setup); later ones evaluate error norms.
ASSEMBLE_METRICS = ("assemble.system_s", "assemble.norm_s")

CALL_COUNT = {
    "mesh.locate": "mesh.locate_calls",
    "space.basis_row": "space.basis_row_calls",
    "space.evaluate": "space.evaluate_calls",
    "reduction.lookup": "reduction.lookups",
    "interpreter": "interpreter.calls",
    "assemble": "assemble.calls",
    "opalg.matvec": "opalg.matvec_calls",
    "krylov.precond_apply": "krylov.precond_apply_calls",
}

# Every per-layer metric of one traced unit: name -> unit.  A traced run
# also reports PROCESS_METRICS, measured once per process.
UNIT_LAYER_METRICS = {
    **{m: "s" for m in SELF_METRIC.values()},
    **{m: "s" for m in ASSEMBLE_METRICS},
    **{m: "count" for m in CALL_COUNT.values()},
    "interpreter.lower_s": "s",
    "reduction.builds": "count",
    "reduction.hit_ratio": "ratio",
    "krylov.iters": "count",
    "krylov.hs_dim": "count",
    "solve.direct_n": "count",
    "solve.direct_nnz": "count",
    "opalg.tree_nodes": "count",
    "opalg.tree_leaves": "count",
    "opalg.stored_entries": "count",
    "opalg.collapsed_nnz": "count",
    "trace.run_s": "s",
}
PROCESS_METRICS = {"process.import_s": "s", "trace.overhead": "ratio"}


# -- hooks: values noted at a call --------------------------------------------

def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _note_lookup(rec, idx, args, kwargs):
    cache = args[0]
    before = cache.build_count
    return lambda out: {"built": cache.build_count > before}


def _note_hs(rec, idx, args, kwargs):
    dim = _first_arg(args, kwargs, "M").shape[0]
    return lambda out: {"dim": dim}


def _note_direct(rec, idx, args, kwargs):
    a = _first_arg(args, kwargs, "A")
    return lambda out: {"n": a.shape[0], "nnz": a.nnz}


def _note_solver(rec, idx, args, kwargs):
    """The operator handed to MinRes: keep it for the census and record
    its top-level ``matvec``."""
    op = _first_arg(args, kwargs, "A")
    rec.operator = op
    if isinstance(op, opalg.OpExpr):
        op.matvec = wrap(rec, "opalg.matvec", op.matvec)
    return None


def _note_collapse(rec, idx, args, kwargs):
    """A collapse called straight from the unit, whose parent span is the
    root (index 0), materializes the operator handed to the direct solver."""
    if rec.spans[idx][3] == 0:
        rec.operator = _first_arg(args, kwargs, "e")
    return None


# (module, attribute, span name, hook); ``Class.attr`` patches the class.
CALLS = (
    ("multifem.mesh", "unit_square_mesh", "mesh.generate", None),
    ("multifem.mesh", "unit_cube_mesh", "mesh.generate", None),
    ("multifem.mesh", "polyline_mesh", "mesh.generate", None),
    ("multifem.mesh", "facet_submesh", "mesh.submesh", None),
    ("multifem.mesh", "cell_submesh", "mesh.submesh", None),
    ("multifem.mesh", "CellLocator.__init__", "mesh.locator_build", None),
    ("multifem.mesh", "CellLocator.locate", "mesh.locate", None),
    ("multifem.space", "build_space", "space.build", None),
    ("multifem.space", "basis_row", "space.basis_row", None),
    ("multifem.space", "evaluate", "space.evaluate", None),
    ("multifem.reduction", "ReductionCache.get_or_build", "reduction.lookup", _note_lookup),
    ("multifem.reduction", "trace_matrix", "reduction.trace", None),
    ("multifem.reduction", "average_matrix", "reduction.average", None),
    ("multifem.interpreter", "multi_assemble", "interpreter", None),
    ("multifem.assemble", "assemble", "assemble", None),
    ("multifem.assemble", "DirichletBC.__init__", "assemble.bc", None),
    ("multifem.assemble", "apply_bc_block", "assemble.bc", None),
    ("multifem.opalg", "collapse", "opalg.collapse", _note_collapse),
    # Factorized preconditioner blocks; the dense Hs block is a Matrix leaf,
    # so its application stays in the solver's self time.
    ("multifem.opalg", "InverseHandle.matvec", "krylov.precond_apply", None),
    ("multifem.krylov", "build_preconditioner", "krylov.precond_build", None),
    ("multifem.krylov", "inverse_handle", "krylov.factor", None),
    ("multifem.krylov", "hs_norm", "krylov.hs_build", _note_hs),
    ("multifem.krylov", "minres", "krylov.solver", _note_solver),
    ("scipy.sparse.linalg", "spsolve", "solve.direct", _note_direct),
)
# Mesh entities are built on first access of these properties.
ENTITY_PROPERTIES = ("edges", "cell_edges", "facets", "facet_cells")


def _entity_property(rec, prop):
    built = set()

    def getter(mesh):
        if mesh.uid in built:
            return prop.fget(mesh)
        built.add(mesh.uid)
        idx = rec.open("mesh.entities")
        try:
            return prop.fget(mesh)
        finally:
            rec.close(idx)
    return property(getter, doc=prop.__doc__)


def install(rec, full=True):
    """Wrap the solver entry points (``full=False``: all the untraced run
    times) or every call in ``CALLS``.  Returns the Patch that undoes it.

    A wrapped name that no longer exists is reported on stderr and skipped,
    so its metrics read zero."""
    patch = Patch()
    for modname, path, name, hook in CALLS:
        if not full and name not in SOLVERS:
            continue
        owner = sys.modules[modname]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            print(f"perfbench: {modname}.{path} not found; not traced", file=sys.stderr)
            continue
        traced = wrap(rec, name, original, hook if full else None)
        patch.set(owner, attr, traced)
        if not cls:
            patch.rebind("multifem", original, traced)
    if full:
        mesh_cls = sys.modules["multifem.mesh"].Mesh
        for attr in ENTITY_PROPERTIES:
            patch.set(mesh_cls, attr, _entity_property(rec, vars(mesh_cls)[attr]))
    return patch


# -- operator-tree census -----------------------------------------------------

def census(op):
    """Size of a lowered operator tree.

    ``tree_nodes`` counts every node, symbolic zero blocks included;
    ``tree_leaves`` the leaves that store or apply something (matrices,
    identities, inverse handles); ``stored_entries`` the entries the
    matrix leaves store (nnz, or size when dense); ``collapsed_nnz`` the
    nnz of the collapsed operator, or None when it holds inverse handles.
    """
    nodes = leaves = stored = 0
    has_inverse = False
    stack = [op]
    while stack:
        e = stack.pop()
        nodes += 1
        if isinstance(e, opalg.BlockMat):
            stack.extend(b for row in e.blocks for b in row)
        elif isinstance(e, opalg.Sum):
            stack.extend(e.terms)
        elif isinstance(e, opalg.Product):
            stack.extend(e.factors)
        elif isinstance(e, (opalg.Transpose, opalg.Scaled)):
            stack.append(e.child)
        elif isinstance(e, opalg.Zero):
            pass
        else:
            leaves += 1
            if isinstance(e, opalg.Matrix):
                stored += e.a.nnz if sp.issparse(e.a) else e.a.size
            has_inverse = has_inverse or isinstance(e, opalg.InverseHandle)
    collapsed = None if has_inverse else int(opalg.collapse(op, force=True).nnz)
    return {"opalg.tree_nodes": nodes, "opalg.tree_leaves": leaves,
            "opalg.stored_entries": int(stored), "opalg.collapsed_nnz": collapsed}


# -- metrics of one unit --------------------------------------------------------

def end_to_end(spans, seconds):
    """run_s, setup_s and solve_s of one unit from its root span (index 0)
    and its solver spans, with ``seconds(start, end)`` as the length of an
    interval; None when the unit made no solver call."""
    root = spans[0]
    solver = [s for s in spans if s[0] in SOLVERS]
    if not solver:
        return None
    solve = sum(seconds(s[1], s[2]) for s in solver)
    last_end = max(s[2] for s in solver)
    return {"run_s": seconds(root[1], root[2]), "solve_s": solve,
            "setup_s": seconds(root[1], last_end) - solve}


def _inside(spans, idx, name):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(rec, iters, tree):
    """Per-layer metrics of one traced unit: its recorder, its Krylov
    iteration count and the census of the operator handed to its solver."""
    spans = rec.spans
    out = {m: 0 for m in UNIT_LAYER_METRICS}
    own = self_times(spans)
    last_solver_end = max(s[2] for s in spans if s[0] in SOLVERS)
    for i, s in enumerate(spans):
        name = s[0]
        if name == "assemble":
            out[ASSEMBLE_METRICS[s[1] >= last_solver_end]] += own[i]
        else:
            out[SELF_METRIC[name]] += own[i]
        if name in CALL_COUNT:
            out[CALL_COUNT[name]] += 1
        if name == "interpreter" and not _inside(spans, i, "interpreter"):
            out["interpreter.lower_s"] += s[2] - s[1]
        note = rec.notes.get(i)
        if name == "reduction.lookup":
            out["reduction.builds"] += int(note["built"])
        elif name == "krylov.hs_build":
            out["krylov.hs_dim"] = max(out["krylov.hs_dim"], note["dim"])
        elif name == "solve.direct":
            out["solve.direct_n"], out["solve.direct_nnz"] = note["n"], note["nnz"]
    lookups = out["reduction.lookups"]
    out["reduction.hit_ratio"] = (lookups - out["reduction.builds"]) / lookups if lookups else 0.0
    out["krylov.iters"] = iters
    out["trace.run_s"] = spans[0][2] - spans[0][1]
    for key, value in tree.items():
        out[key] = value if value is not None else 0
    return out


def median_metrics(per_unit):
    """Lower median over units of each metric, so that counts, which
    repeat exactly for one seed, stay the integers they are."""
    return {k: statistics.median_low(u[k] for u in per_unit) for k in per_unit[0]}
