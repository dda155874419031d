"""Span tracer that times calls into the program's layers from outside.

The benchmark wraps public functions and methods of ``repro`` by
patching the module or class attribute that the caller looks the name
up through; nothing under ``src/`` knows it is being traced. A span is
recorded only while the calling thread is inside an op (see
:meth:`Tracer.op`), so the benchmark's own checks and reference runs,
which call the same functions, never show up as layer time.

Spans stay in memory as tuples and are written out once, at the end of
the run (:meth:`Tracer.write_jsonl`). A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: (module, attribute path, span name). An attribute path with a dot is
#: ``Class.method``. Several targets may share one span name; their
#: self times add up under that name.
WrapTarget = Tuple[str, str, str]

OP = "op"


class Tracer:
    """In-memory span recorder plus attribute patching."""

    def __init__(self) -> None:
        #: Finished spans: (span id, parent id, op id, name, start, end,
        #: self seconds). Appended on exit, so children precede parents.
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, op_id) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), parent, op_id, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, op_id, name, start, children = frame
        duration = end - start
        if stack:
            stack[-1][5] += duration
        self.spans.append(
            (span_id, parent, op_id, name, start, end, duration - children)
        )

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one op; layer spans nest under it."""
        frame = self._enter(OP, op_id)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping --------------------------------------------------------------

    def _traced(self, original, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if not stack:
                return original(*args, **kwargs)
            frame = tracer._enter(name, stack[-1][2])
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[WrapTarget]):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for module_name, path, name in targets:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                own = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self._traced(original, name))
                undo.append((owner, attr, original, own))
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- folding ---------------------------------------------------------------

    def fold(self) -> Tuple[Dict[str, float], Dict[str, int], List[float]]:
        """Self seconds and call counts per span name, and the duration
        of every op span (seconds)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        ops: List[float] = []
        for _id, _parent, _op, name, start, end, own in self.spans:
            self_s[name] += own
            calls[name] += 1
            if name == OP:
                ops.append(end - start)
        return self_s, calls, ops

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
