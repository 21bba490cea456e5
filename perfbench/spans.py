"""Benchmark-side tracing: spans around each layer's public calls.

Nothing under ``src/`` records these spans.  :class:`Tracer` wraps the
calls a layer exposes — a backend instance's ``execute``, the inner
``submit_chunk``, an adapter class's ``program_key`` … — for the
length of one traced round, then puts the originals back.

A span is ``(name, start, end, parent, job)``.  ``parent`` is the span
that was open on the same thread when this one began; ``job`` is the
submission index for spans that serve one job and ``-1`` otherwise.
Spans stay in memory, in flat arrays, until the round is over.

Work done in another process (pool workers, dist nodes) cannot be
wrapped from here.  A chunk sent there gets a *round-trip* span on the
master, from submit until its future settles, and inside it a *remote*
span as long as the seconds the worker reports for the chunk, ending
when the future settles.

Self time is wall-clock attribution: at every instant the spans that
are open and have no open child share that instant equally.  For
nested calls on one thread this is exactly "span minus child spans";
where threads or worker processes overlap, the overlapping innermost
spans split the time, so the self times of all layers add up to the
time during which any span was open.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from collections.abc import Callable
from typing import Any

__all__ = ["Tracer", "layer_of", "merge"]

_clock = time.perf_counter


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its text before the first dot,
    with engine spans kept per kind (``engine.sat``)."""
    head, _, rest = name.partition(".")
    if head == "engine":
        return "engine." + rest.partition(".")[0]
    return head


class Tracer:
    """Records spans for one round; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.job = array("q")
        self.steps: dict[str, float] = defaultdict(float)  # engine kind -> cost units
        self.runs: dict[str, int] = defaultdict(int)  # engine kind -> jobs run
        self.chunk_seconds = 0.0  # worker-reported seconds over every chunk
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent: int = -1, job: int = -1) -> int:
        """Record a finished span; returns its index."""
        with self._lock:
            i = len(self.start)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.name.append(self._name_id(name))
            self.job.append(job)
        return i

    def call(self, name: str, fn: Callable, *args: Any, job: int = -1, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        i = self.add(name, _clock(), 0.0, stack[-1] if stack else -1, job)
        stack.append(i)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = _clock()
            stack.pop()

    # -- patching ------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` (an instance, class or
        module attribute).  ``before(*args)`` runs just before the span
        opens; ``after(result, *args)`` once it closes, to read the
        counters the layer publishes.  Neither is inside the span."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        self._replace(owner, attr, traced)

    def wrap_engine(self, cls: type, attr: str, kind: str) -> None:
        """Time an adapter's execute/run_direct as one engine run."""
        fn = getattr(cls, attr)
        tracer = self
        name = f"engine.{kind}.{attr}"

        def traced(workload: Any, *args: Any, **kwargs: Any) -> Any:
            result = tracer.call(name, fn, workload, *args, **kwargs)
            tracer.runs[kind] += 1
            tracer.steps[kind] += workload.cost(result)
            return result

        self._replace(cls, attr, traced)

    def wrap_chunks(self, owner: Any, attr: str, name: str, *, kind: str, remote: bool) -> None:
        """Trace a chunk submit that returns a future (or ``(future,
        bytes)``) settling to ``(results, stats, seconds)``.

        The span opens at the submit call and closes when the future
        settles.  With ``remote`` the chunk ran in another process: a
        remote engine span of the reported seconds, ending at
        settlement, is recorded inside it.
        """
        from repro.runtime import get_workload

        fn = getattr(owner, attr)
        tracer = self
        cost = get_workload(kind).cost

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            i = tracer.add(name, _clock(), 0.0, stack[-1] if stack else -1)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[i] = _clock()
                raise
            finally:
                stack.pop()
            future = out[0] if isinstance(out, tuple) else out

            def settled(f: Any) -> None:
                end = _clock()
                tracer.end[i] = end
                if f.cancelled() or f.exception() is not None:
                    return
                results, _stats, seconds = f.result()
                steps = sum(cost(r) for r in results if r is not None) if remote else 0
                with tracer._lock:
                    tracer.chunk_seconds += seconds
                    if remote:
                        tracer.runs[kind] += len(results)
                        tracer.steps[kind] += steps
                if remote:
                    start = max(tracer.start[i], end - seconds)
                    tracer.add(f"engine.{kind}.remote", start, end, i)

            future.add_done_callback(settled)
            return out

        self._replace(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------------

    def spans_named(self, prefix: str) -> list[int]:
        """Indices of the spans whose name starts with ``prefix``."""
        ids = {nid for name, nid in self._name_ids.items() if name.startswith(prefix)}
        return [i for i, nid in enumerate(self.name) if nid in ids]

    def durations(self, prefix: str) -> list[float]:
        """Durations of the closed spans whose name starts with ``prefix``."""
        spans = self.spans_named(prefix)
        return [self.end[i] - self.start[i] for i in spans if self.end[i] >= self.start[i]]

    def attribute(self, windows: list[tuple[float, float]]) -> tuple[dict[str, float], float]:
        """Self seconds per span name inside ``windows``, and the total
        time inside them during which any span was open.

        A sweep over span boundaries: the open spans without an open
        child share each interval equally.
        """
        n = len(self.start)
        events: list[tuple[float, int, int]] = []
        for i in range(n):
            if self.end[i] > self.start[i]:
                events.append((self.start[i], 1, i))
                events.append((self.end[i], 0, i))
        events.sort()
        open_children = [0] * n
        active = [False] * n
        leaves: set[int] = set()
        self_s = [0.0] * len(self.names)
        covered = 0.0
        windows = merge(windows)
        w = 0
        last = events[0][0] if events else 0.0
        for t, opening, i in events:
            if leaves and t > last:
                inside = _overlap(windows, last, t, w)
                if inside > 0:
                    share = inside / len(leaves)
                    for leaf in leaves:
                        self_s[self.name[leaf]] += share
                    covered += inside
            while w < len(windows) and windows[w][1] <= t:
                w += 1
            last = t
            p = self.parent[i]
            if opening:
                active[i] = True
                leaves.add(i)
                if p >= 0 and active[p]:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                active[i] = False
                leaves.discard(i)
                if p >= 0 and active[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        return {self.names[k]: s for k, s in enumerate(self_s) if s}, covered


def merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``intervals``."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _overlap(windows: list[tuple[float, float]], a: float, b: float, first: int) -> float:
    """Length of ``[a, b]`` inside the sorted, disjoint ``windows``."""
    total = 0.0
    while first < len(windows):
        lo, hi = windows[first]
        if lo >= b:
            break
        total += max(0.0, min(b, hi) - max(a, lo))
        first += 1
    return total
