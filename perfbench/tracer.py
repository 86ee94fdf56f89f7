"""Outside-in tracing: spans recorded around calls into the package's layers.

The tracer replaces public module attributes with timing wrappers from the
benchmark's side, so the package itself carries no tracing code.  Spans are
kept in memory as ``[name, start, end, parent, failed]`` and written out at
the end; :func:`summarize` derives per-name call counts, total and self
times.  :meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import pickle
from contextlib import contextmanager
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.samples: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, False]
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        except BaseException:
            span[4] = True
            raise
        finally:
            self._close(span)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` around each call; ``observe(args, kwargs, result)`` runs
        after a successful call, outside the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write spans, counts and samples with pickle, which takes a tenth
        of the time JSON needs for tens of thousands of spans."""
        with open(path, "wb") as fh:
            pickle.dump({"spans": self.spans, "counts": self.counts, "samples": self.samples}, fh)


def load(path) -> dict:
    """Read what :meth:`Tracer.dump` wrote (only ever this benchmark's own
    child processes)."""
    with open(path, "rb") as fh:
        return pickle.load(fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``failed``, ``s`` (summed duration) and
    ``self_s`` (duration minus the time covered by direct children)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, failed) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += int(failed)
        row["s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return out


def child_time_under(spans: list[list], child: str, parents: set[str]) -> float:
    """Summed duration of ``child`` spans whose direct parent is named in
    ``parents``."""
    return sum(
        end - start
        for name, start, end, parent, _ in spans
        if name == child and parent != NO_PARENT and spans[parent][0] in parents
    )
