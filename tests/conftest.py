import importlib

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, and replay no saved
# failures, so the suite's outcome does not depend on a seed or on state
# left by an earlier run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture
def unpruned(monkeypatch):
    """``unpruned(f, *args)`` calls ``f`` with the assembler storing every
    summed entry, cancellation residue included (the reference that the
    stored-pattern rule is checked against)."""
    module = importlib.import_module("multifem.assemble")

    def call(f, *args):
        with monkeypatch.context() as m:
            m.setattr(module, "_drop_residue", lambda A, *rest: A)
            return f(*args)
    return call


def dropped_residue(pruned, full, kept_rtol=0.0):
    """Check that ``pruned`` is ``full`` less some entries, each within
    1e-12 of its row's largest, the kept ones bitwise (or, with
    ``kept_rtol``, within that fraction of their row's largest).  Returns
    the number dropped."""
    pruned, full = pruned.tocsr(), full.tocsr()
    rows = np.repeat(np.arange(full.shape[0]), np.diff(full.indptr))
    row_max = np.maximum.reduceat(np.abs(full.data), full.indptr[:-1])
    at = pruned.tocoo()
    gap = np.abs(np.asarray(full[at.row, at.col]).ravel() - at.data)
    assert np.all(gap <= kept_rtol * row_max[at.row])
    kept = np.asarray((pruned != 0)[rows, full.indices]).ravel()
    assert np.all(np.abs(full.data[~kept]) <= 1e-12 * row_max[rows[~kept]])
    return int((~kept).sum())
