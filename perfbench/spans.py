"""In-memory span tracing by wrapping functions at their lookup sites.

`voxloc.pipeline`, `voxloc.training` and `voxloc.synthworld` import
functions by name, so a wrapper has to replace the name where the caller
looks it up (`pipeline.decode`, not only `decoder.decode`). Every wrapper
appends one span -- name, start, end, parent span, operation id -- to a
list; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 at the top
    op: int         # query index or training repetition, -1 in set-up

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span wrappers and keeps their spans and counters."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.raised: Counter = Counter()   # span name -> exceptions raised
        self.counts: Counter = Counter()   # counter name -> total
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, on_call=None):
        spans, stack, raised = self.spans, self._stack, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)
        return traced

    def _count_only(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, owner, attr: str, name: str, *, count_only=False,
                on_call=None) -> None:
        """Replace owner.attr by a wrapper; `uninstall` puts it back."""
        original = getattr(owner, attr)
        if count_only:
            wrapper = self._count_only(original, name)
        else:
            wrapper = self._wrap(original, name, on_call)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self.raised.clear()
        self.counts.clear()

    def stats(self) -> dict[str, list]:
        """Span name -> [calls, total seconds]."""
        out: dict[str, list] = {}
        for s in self.spans:
            if s is not None:
                row = out.setdefault(s.name, [0, 0.0])
                row[0] += 1
                row[1] += s.duration
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s is not None and s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s is not None:
                out[s.name] = out.get(s.name, 0.0) + s.duration - child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    f.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                            f"{s.parent}\t{s.op}\n")
