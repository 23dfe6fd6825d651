"""Manufactured solutions and the problem data they imply, as fields on points.

Every field is derived with sympy in ``multifem.derive_manufactured``
(nothing is hand-entered) and printed into the committed numpy module
``multifem._manufactured_fields``, which is all this module reads: no run
path imports sympy.  One reader turns a data set, the generated fields
under one name prefix, into point fields named without the prefix.  The
test suite cross-checks the fields by finite differences and checks that
the committed module is the derivation's output.
"""
import math
from types import SimpleNamespace

import numpy as np

from . import _manufactured_fields as generated

__all__ = ["darcy_stokes_data", "babuska_data"]


def _on_points(fn):
    """The generated function ``fn`` as a field of points (..., gdim) ->
    values (...) + shape; a constant component is broadcast."""
    shape = generated.SHAPES[fn.__name__]

    def field(p):
        p = np.asarray(p, dtype=float)
        batch = p.shape[:-1]
        out = np.empty(batch + shape)
        comps = out.reshape(batch + (math.prod(shape),))
        for k, value in enumerate(fn(*np.moveaxis(p, -1, 0))):
            comps[..., k] = value
        return out

    return field


def _data_set(prefix):
    """The generated fields whose ``SHAPES`` key starts with ``prefix_``,
    as point fields named by the rest of the key."""
    head = prefix + "_"
    return SimpleNamespace(**{key[len(head):]: _on_points(getattr(generated, key))
                              for key in generated.SHAPES if key.startswith(head)})


def darcy_stokes_data():
    """The fields of ``derive_manufactured.darcy_stokes_fields``."""
    return _data_set("darcy_stokes")


def babuska_data():
    """The fields of ``derive_manufactured.babuska_fields``."""
    return _data_set("babuska")
