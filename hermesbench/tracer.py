"""Per-layer span tracer for the benchmark's traced run.

The tracer measures the simulator from outside: it swaps selected public
methods of the ``repro`` classes for timing wrappers while a traced
episode runs, and restores the originals afterwards.  Nothing under
``src/`` knows it is being measured.

Every wrapped call opens a span on a stack.  A span's *self* time is its
duration minus the time its child spans cover, so the self times of all
spans under a root add up to the root's duration; whatever the root
itself keeps is the *unattributed* remainder.

* Generator-returning functions (``GraphStore.neighbor_entries``,
  ``MigrationExecutor.migrate_steps``) are timed while they are iterated:
  each ``next()`` is one timed segment of the same span, because the work
  happens there and not in the call that creates the generator.
* Storage spans nested inside another storage span are absorbed into the
  outer one (``chain_contains`` walking ``neighbor_entries`` is chain
  membership work, not a separate read), and absorbed calls skip the
  wrapper's bookkeeping entirely, so the per-edge read path pays for one
  comparison instead of a span.
* Count-only wrappers (network hops) record a count and no time.

Spans are kept in memory (up to :data:`SPAN_LIMIT`; the aggregates keep
counting past it) and written out by :meth:`Tracer.write_spans` at exit.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: spans retained for the exported span log; aggregates are unbounded
SPAN_LIMIT = 200_000

#: layers whose nested calls fold into the enclosing span of the same layer
ABSORBING_LAYERS = frozenset({"storage"})

#: ``post(tracer, result)`` hook run after a wrapped call returns
PostHook = Callable[["Tracer", Any], None]


class Tracer:
    """Span stack + per-name aggregates for one benchmark process."""

    def __init__(self) -> None:
        #: open frames: [name, layer, span_id, child_seconds, first_start]
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (span_id, parent_id, name, start, end); parent -1 for roots
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self._patches: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str) -> list:
        frame = [name, layer, self._next_id, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, record: bool) -> None:
        """Pop ``frame`` after one timed segment [start, end]."""
        self._stack.pop()
        duration = end - start
        self.self_s[frame[0]] += duration - frame[3]
        frame[3] = 0.0
        if self._stack:
            self._stack[-1][3] += duration
        if record:
            self._record(frame, frame[4] or start, end)

    def _record(self, frame: list, start: float, end: float) -> None:
        if len(self.spans) < SPAN_LIMIT:
            parent = self._stack[-1][2] if self._stack else -1
            self.spans.append((frame[2], parent, frame[0], start, end))

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark's own code."""
        return _SpanContext(self, name)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        generator: bool = False,
        count_only: bool = False,
        post: Optional[PostHook] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`unwrap`."""
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        if count_only:
            wrapped = self._counting(func, name)
        elif generator:
            wrapped = self._timed_generator(func, name)
        else:
            wrapped = self._timed(func, name, post)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def unwrap(self) -> None:
        """Restore every wrapped attribute (in reverse wrapping order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _timed(self, func: Callable, name: str, post: Optional[PostHook]) -> Callable:
        tracer = self
        stack = self._stack
        layer = name.split(".", 1)[0]
        absorbs = layer in ABSORBING_LAYERS
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if absorbs and stack and stack[-1][1] == layer:
                return func(*args, **kwargs)
            frame = tracer._open(name, layer)
            tracer.calls[name] += 1
            start = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf(), record=True)
            if post is not None:
                post(tracer, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _timed_generator(self, func: Callable, name: str) -> Callable:
        tracer = self
        stack = self._stack
        layer = name.split(".", 1)[0]
        absorbs = layer in ABSORBING_LAYERS

        def traced(*args, **kwargs):
            if absorbs and stack and stack[-1][1] == layer:
                return func(*args, **kwargs)
            tracer.calls[name] += 1
            return _TimedIterator(tracer, name, layer, func(*args, **kwargs))

        traced.__wrapped__ = func
        return traced

    def _counting(self, func: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_spans(self, path) -> int:
        """Write the retained spans as CSV (microseconds); returns rows."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id,parent_id,name,start_us,end_us\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    f"{span_id},{parent},{name},{start * 1e6:.1f},{end * 1e6:.1f}\n"
                )
        return len(self.spans)


class _SpanContext:
    __slots__ = ("tracer", "name", "frame", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer._open(self.name, self.name.split(".", 1)[0])
        self.tracer.calls[self.name] += 1
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.frame, self.start, time.perf_counter(), record=True)


class _TimedIterator:
    """Iterates a wrapped generator, timing every resumption as one
    segment of a single span (recorded once, when iteration ends)."""

    __slots__ = ("tracer", "gen", "name", "layer", "frame")

    def __init__(self, tracer: Tracer, name: str, layer: str, gen: Iterator):
        self.tracer = tracer
        self.gen = gen
        self.name = name
        self.layer = layer
        self.frame: Optional[list] = None

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self.tracer
        frame = self.frame
        if frame is None:
            frame = self.frame = tracer._open(self.name, self.layer)
        else:
            tracer._stack.append(frame)
        start = time.perf_counter()
        if not frame[4]:
            frame[4] = start
        try:
            value = next(self.gen)
        except BaseException:
            # StopIteration (exhausted) or an error: the span ends here.
            tracer._close(frame, start, time.perf_counter(), record=True)
            raise
        tracer._close(frame, start, time.perf_counter(), record=False)
        return value
