"""Reference entity numbering for ``multifem.mesh._number_entities``: each
tuple sorted along its short axis, one ``lexsort`` and an ``argsort`` of the
first appearances.  The kernel must give the same arrays bitwise.
"""
import numpy as np


def number_entities(cells, local):
    """The sub-entities ``local`` of every cell numbered by first appearance
    in cell order: (ne, k) ascending vertex tuples and the (nc, len(local))
    map from cells into that numbering."""
    keys = np.sort(cells[:, np.asarray(local)], axis=2).reshape(-1, len(local[0]))
    order = np.lexsort(keys.T[::-1])        # stable: equal keys stay in cell order
    sk = keys[order]
    new = np.r_[True, np.any(sk[1:] != sk[:-1], axis=1)]
    first = order[new]                      # first appearance of each distinct key
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = rank[np.cumsum(new) - 1]
    return keys[np.sort(first)], inverse.reshape(len(cells), len(local))
