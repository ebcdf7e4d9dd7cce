"""Self-time spans around the calls into each layer, recorded from
outside the program.

:class:`SpanTracer` replaces module and class attributes with timing
wrappers while installed and restores them on :meth:`uninstall`.  A
layer's *self* time is its span's duration minus the spans nested in
it, so the self times of one operation plus its uncovered remainder add
up to the operation's wall time.  Only calls made on the thread that
created the tracer are timed: rank threads run concurrently with it, and
their time is reported from the transport's own counters instead.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable


class SpanTracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._thread = threading.get_ident()
        self._targets: list[tuple[Any, str, str, "str | None"]] = []
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def add(
        self, owner: Any, attr: str, layer: str,
        result_layer: "str | None" = None,
    ) -> None:
        """Time ``owner.attr`` as ``layer``; with ``result_layer``, the
        callable it returns is timed as that layer too (generated code)."""
        self._targets.append((owner, attr, layer, result_layer))

    def reset(self) -> None:
        self.self_s.clear()

    def install(self) -> None:
        for owner, attr, layer, result_layer in self._targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, self.timed(original, layer, result_layer))

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def timed(
        self, fn: Callable, layer: str, result_layer: "str | None" = None
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        thread = self._thread
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if result_layer is not None:
                return self.timed(out, result_layer)
            return out

        return wrapper
