"""Spans recorded from outside the program, around calls into its layers.

The benchmark does not change the library to trace it.  Instead
:meth:`Tracer.install` replaces a public function or method with a thin
wrapper that records one span per call: a name, a start and an end
(``perf_counter`` seconds), the id of the span that was open on the same
thread when the call began (its parent), and the thread.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON at the end of a run.

Self time of a span is its duration minus the part of it covered by its
children; :meth:`Tracer.summary` aggregates count, total and self time
per span name.  Every wrapper is removed again by :meth:`Tracer.uninstall`,
so an untraced measurement in the same process runs the original code.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path


class Span:
    """One recorded call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "size")

    def __init__(self, span_id, name, start, parent, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        #: Optional work measure the wrapper attaches (tasks, bytes, ...).
        self.size = 0

    def to_doc(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "size": self.size}


class Tracer:
    """Records spans around patched library entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span on the calling thread (nested under its open span)."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span = Span(self._next_id, name, 0.0,
                        stack[-1].id if stack else None,
                        threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(self, function, name: str, size=None):
        """A wrapper recording ``name`` spans; ``size(args, result)`` sizes them."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install_method(self, cls, method: str, name: str, size=None) -> None:
        """Trace ``cls.method`` (subclasses that override it are untouched)."""
        self._patch(cls, method, self.wrap(cls.__dict__[method], name, size))

    def install_function(self, function, name: str, size=None) -> None:
        """Trace a module-level function under every name it is bound to.

        ``from module import function`` copies the binding, so the wrapper
        replaces the function in every loaded ``repro`` module that holds
        it, not only in the module that defines it.
        """
        traced = self.wrap(function, name, size)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, attribute, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched, first restored)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis --------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: ``count``, ``total_s``, ``self_s`` and ``size``."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = (children.get(span.parent, 0.0)
                                         + (span.end - span.start))
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0, "size": 0})
            duration = span.end - span.start
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += max(0.0, duration - children.get(span.id, 0.0))
            entry["size"] += span.size
        return out

    def write(self, path: Path) -> None:
        """Dump every span as JSON (one document, written once)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_doc() for span in self.spans], handle)


def load_summary(path: Path) -> dict[str, dict]:
    """Rebuild :meth:`Tracer.summary` from spans another process wrote."""
    tracer = Tracer()
    for doc in json.loads(path.read_text(encoding="utf-8")):
        span = Span(doc["id"], doc["name"], doc["start"], doc["parent"],
                    doc["thread"])
        span.end = doc["end"]
        span.size = doc["size"]
        tracer.spans.append(span)
    return tracer.summary()
