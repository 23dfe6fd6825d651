"""multifem: finite element assembly of multiscale PDE systems.

Symbolic variational forms with reduction terminals (traces, circle
averages, restrictions) are lowered to lazy block operator expressions and
solved with preconditioned Krylov methods.
"""
from .mesh import (
    Mesh, CellLocator, MeshError, OutOfDomainError, EmptySelectionError,
    unit_square_mesh, unit_cube_mesh, polyline_mesh, facet_submesh,
    cell_submesh, near,
)
from .space import (
    Element, FunctionSpace, Function, lagrange, vector_lagrange, dg0,
    vector_dg0, rt0, build_space, interpolate, evaluate, basis_row, basis_rows,
)
from .forms import (
    Argument, Coefficient, Constant, Analytic, Trace, Average, Restrict,
    Measure, Form, Integral, BlockForm, TrialFunction, TestFunction,
    TrialFunctions, TestFunctions, grad, div, sym, inner, dot,
    arguments, replace, FormError,
)
from .assemble import (
    assemble, DirichletBC, apply_bc, apply_bc_block, NotSinglescaleError,
    save_matrix_market, load_matrix_market,
)
from .reduction import (
    ReductionCache, deduce_reduced_space, UnsupportedReductionError,
)
from .interpreter import multi_assemble
from .opalg import (
    Matrix, Identity, Zero, Sum, Product, Transpose, Scaled, InverseHandle,
    BlockMat, block_diag_mat, collapse, as_op,
)
from .krylov import (
    minres, gmres, hs_norm, inverse_handle,
    build_preconditioner, KrylovReport, KrylovError,
)

__version__ = "0.1.0"
