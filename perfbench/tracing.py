"""In-memory span recorder and the namespace patching that feeds it.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span in the same recorder (-1 for none) and ``unit`` the id
of the study unit it belongs to.  The program is single threaded, so the
spans of a recorder nest strictly and a span's children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time


class Recorder:
    """Spans of one study unit, plus values noted at some calls."""

    def __init__(self, unit):
        self.unit = unit
        self.spans = []
        self.notes = {}            # span index -> dict
        self.operator = None       # the operator handed to the solver, kept by a hook
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")


def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    The self times of all spans sum to the total duration of the root spans.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def wrap(rec, name, fn, hook=None):
    """``fn`` with every call recorded as a span called ``name``.

    ``hook(rec, idx, args, kwargs)`` runs inside the span before the call
    and may return ``finish(result) -> dict`` whose value is noted on the
    span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            finish = hook(rec, idx, args, kwargs) if hook is not None else None
            out = fn(*args, **kwargs)
            if finish is not None:
                rec.notes[idx] = finish(out)
            return out
        finally:
            rec.close(idx)
    return traced


class Patch:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, prefix, original, replacement):
        """Replace ``original`` in every loaded module under ``prefix`` that
        binds it, whatever name it is bound under there."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
