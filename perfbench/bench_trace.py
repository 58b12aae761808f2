"""Spans recorded from outside the program, by wrapping module-level functions.

A span has a name, a start and end (``perf_counter_ns``), the index of the
span that was open when it began (its parent, -1 for none) and the id of the
benchmark operation it belongs to (-1 for set-up). Spans live in flat
``array`` columns so that the millions a capped CLI run produces stay small,
and are written out once, at the end, as one compressed ``.npz`` file.

Wrapping is done by replacing a module attribute for the duration of a
``with`` block. Call sites that resolve the name at call time (module
globals, or ``module.attr`` lookups) see the wrapper; that is why a function
imported into another module by name is wrapped there as well, under the
label of the module whose code it is.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np


class Tracer:
    """In-memory span recorder shared by every wrapper it creates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[tuple[int, str], int] = {}

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def count(self, label: str, value: int) -> None:
        """Add ``value`` to the ``label`` counter of the current operation."""
        key = (self.op_id, label)
        self.counts[key] = self.counts.get(key, 0) + value

    def counted(self, label: str, ops: Iterable[int]) -> int:
        return sum(self.counts.get((op, label), 0) for op in ops)

    def wrap(self, label: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return ``fn`` recording one span per call; ``after(args, out)`` counts work.

        The counting hook runs after the span closes, so its cost falls in
        the parent span and in the measured tracing overhead, not in ``label``.
        """
        nid = self._name_id(label)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def totals(self, ops: Iterable[int]) -> dict[str, dict[str, float]]:
        """Per span name, over the spans of operations ``ops``: calls, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        cols = self.columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child[: len(dur)]
        keep = np.isin(cols["op"], list(ops))
        out = {}
        for nid, label in enumerate(self.names):
            mask = keep & (cols["name"] == nid)
            out[label] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()) / 1e9,
                "self_s": float(self_time[mask].sum()) / 1e9,
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple]) -> Iterator[None]:
    """Wrap each ``(module, attr, label[, after])`` target for the block's duration."""
    saved = []
    try:
        for module, attr, label, *hook in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(label, original, *hook))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
