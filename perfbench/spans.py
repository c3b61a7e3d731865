"""In-memory spans around the names through which gjk2d modules call each other.

A ``Tracer`` rebinds module attributes (for example ``gjk2d.gjk.s2d``)
to timing wrappers on ``install()`` and restores them on ``close()``.
Only calls made through a rebound name are seen: ``gjk2d.gjk`` looks its
layers up as module globals at call time, so wrapping ``gjk2d.gjk.s2d``
times every triangle solve of the query loops but not the ``s1d`` calls
that ``s2d`` makes internally. A name that no longer exists is recorded
in ``missing`` instead of raising, so the metrics built on it are
reported as missing.

Spans are folded on close into per-name aggregates (calls, total time,
self time). A span's self time is its duration minus its children's
durations and minus the wrapper cost that each child adds to it, which
is calibrated once per tracer.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Namer = Union[str, Callable[..., str]]
# (module, attribute, span name or function of the call args, capture key)
Patch = Tuple[object, str, Namer, Optional[str]]
CALIBRATE_ROUNDS = 5
CALIBRATE_CALLS = 2000


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0.0


def _noop() -> None:
    return None


class Tracer:
    """Span aggregates for a fixed set of patch points.

    Top-level spans (those opened with no span around them) are numbered
    in ``query_id``; while ``capturing`` is set, calls through a patch
    with a capture key append ``(query_id, args)`` to ``captures[key]``.
    """

    def __init__(self, patches: Sequence[Patch]) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.missing: List[str] = []
        self.captures: Dict[str, List[Tuple[int, tuple]]] = {}
        self.capturing = False
        self.query_id = 0
        self._patches = list(patches)
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[Tuple[int, str], Callable] = {}
        self._inside_ns = 0.0
        self._outside_ns = 0.0
        self._calibrate()
        for module, attr, _, _ in self._patches:
            if getattr(module, attr, None) is None:
                self.missing.append(f"{module.__name__}.{attr}")

    def wrap(self, name: Namer, fn: Callable, capture: Optional[str] = None) -> Callable:
        """Timing wrapper around ``fn``."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter_ns
        captured = self.captures.setdefault(capture, []) if capture else None

        def traced(*args, **kwargs):
            if not stack:
                self.query_id += 1
            if captured is not None and self.capturing:
                captured.append((self.query_id, args))
            frame = [0, 0]  # children's total ns, number of children
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                key = name if isinstance(name, str) else name(*args, **kwargs)
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = SpanStats()
                entry.calls += 1
                entry.total_ns += dur
                entry.self_ns += (
                    dur - frame[0] - frame[1] * self._outside_ns - self._inside_ns
                )
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += 1

        return traced

    def install(self) -> "Tracer":
        for module, attr, name, capture in self._patches:
            original = getattr(module, attr, None)
            if original is None:
                continue
            key = (id(module), attr)
            wrapper = self._wrappers.get(key)
            if wrapper is None:
                wrapper = self._wrappers[key] = self.wrap(name, original, capture)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)
        return self

    def close(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def _calibrate(self) -> None:
        """Measure the wrapper cost inside and outside a span's own clock window.

        Median of several rounds, each timing a loop of traced no-op calls
        under a traced parent against a loop of bare no-op calls.
        """
        clock = time.perf_counter_ns
        calls = CALIBRATE_CALLS
        inside = []
        outside = []
        child = self.wrap("calibrate.child", _noop)

        def traced_loop():
            for _ in range(calls):
                child()

        def bare_loop():
            for _ in range(calls):
                _noop()

        parent = self.wrap("calibrate.parent", traced_loop)
        for _ in range(CALIBRATE_ROUNDS):
            self.stats.clear()
            t0 = clock()
            bare_loop()
            bare = (clock() - t0) / calls
            t0 = clock()
            parent()
            per_call = (clock() - t0) / calls
            inner = self.stats["calibrate.child"].total_ns / calls
            inside.append(inner)
            outside.append(max(per_call - bare - inner, 0.0))
        inside.sort()
        outside.sort()
        self._inside_ns = inside[len(inside) // 2]
        self._outside_ns = outside[len(outside) // 2]
        self.stats.clear()
        self.query_id = 0

    def self_ns(self, prefix: str) -> float:
        """Summed self time of the spans whose names start with ``prefix``."""
        return sum(s.self_ns for k, s in self.stats.items() if k.startswith(prefix))

    def per_call_ns(self, name: str) -> Optional[float]:
        entry = self.stats.get(name)
        if entry is None or entry.calls == 0:
            return None
        return entry.total_ns / entry.calls
