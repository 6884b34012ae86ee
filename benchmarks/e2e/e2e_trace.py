"""In-memory span recorder for the traced run of the e2e benchmark.

Spans are recorded from the benchmark's own files, around each call into a
layer of ``repro`` (the program itself is not instrumented): name, start,
end, the span that caused it, and the identifiers it shares with the other
spans of one trial / batch / request.  Nothing is written until
:meth:`Tracer.write`; a disabled tracer records nothing, so the untraced
trials that produce the end-to-end numbers pay one attribute check per
call site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List


class Stopwatch:
    seconds = 0.0


class Tracer:
    """Record ``[name, start, end, parent, ids]`` rows on a span stack."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str, **ids: object) -> int:
        """Open a span under the innermost open one; returns its index."""
        if not self.enabled:
            return -1
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, ids])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = time.perf_counter()
        while self._open and self._open.pop() != index:
            pass  # an exception skipped inner end() calls: close them too

    def add(self, name: str, start: float, end: float, **ids: object) -> None:
        """A completed leaf span, from timestamps the caller already took
        (the same ``perf_counter`` readings the latency lists are built
        from, so tracing adds no second clock read to the timed call)."""
        if self.enabled:
            parent = self._open[-1] if self._open else None
            self.spans.append([name, start, end, parent, ids])

    @contextmanager
    def span(self, name: str, **ids: object) -> Iterator[Stopwatch]:
        """A span that is also a stopwatch: the wall seconds of the block are
        on the yielded object afterwards, whether or not tracing is on."""
        watch = Stopwatch()
        index = self.begin(name, **ids)
        start = time.perf_counter()
        try:
            yield watch
        finally:
            watch.seconds = time.perf_counter() - start
            self.end(index)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [(s[2] or s[1]) - s[1] for s in self.spans]
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                own[span[3]] -= (span[2] or span[1]) - span[1]
        return own

    def coverage(self, root: int) -> float:
        """Share of ``root``'s wall that lies inside a named span below it:
        what is not its own self time."""
        wall = self.spans[root][2] - self.spans[root][1]
        return 1.0 - self.self_times()[root] / wall if wall > 0 else 0.0

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, ids) in enumerate(self.spans):
                row: Dict[str, object] = {
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round((end or start) - origin, 7),
                    "self": round(own[index], 7),
                    "parent": parent,
                }
                row.update(ids)
                out.write(json.dumps(row) + "\n")
