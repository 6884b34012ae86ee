"""Ring-buffer structured tracing with deterministic ids.

Events are flat dicts: ``i`` (a process-local sequence number), ``kind``
(dotted event name), ``ts`` (``time.monotonic_ns()``) and the caller's
keyword fields — ids, counts, names; never objects.  Sequence numbers and
fields are deterministic for a deterministic run; ``ts`` is the *only*
nondeterministic key, which is the contract the double-run tests verify
(they compare traces with ``ts`` masked).

The ring is a ``deque(maxlen=capacity)``: a long soak drops oldest events
rather than growing; ``emitted`` keeps the true total so the export notes
how many were dropped.

Monotonic-only on purpose — wall clocks are banned outside bench*/ by
detlint's DET-time rule, and a monotonic stamp is all a trace needs.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Dict, List


class Tracer:
    __slots__ = ("capacity", "emitted", "_ring")

    #: Hot call sites guard on this instead of calling ``event`` — building
    #: the kwargs dict for a no-op NullTracer call costs ~0.5µs, which is
    #: real money on a per-request path in metrics-only mode.
    enabled = True

    def __init__(self, capacity: int = 65_536) -> None:
        self.capacity = capacity
        self.emitted = 0
        self._ring: deque = deque(maxlen=capacity)

    def event(self, kind: str, **fields) -> int:
        """Record one event; returns its id (usable as a ``span`` field by
        a matching ``*.end`` event)."""
        i = self.emitted
        self.emitted = i + 1
        rec: Dict[str, object] = {"i": i, "kind": kind, "ts": time.monotonic_ns()}
        rec.update(fields)
        self._ring.append(rec)
        return i

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._ring)

    def events(self) -> List[Dict[str, object]]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def export_jsonl(self, path: str) -> int:
        """One sorted-key JSON object per line, oldest first; returns the
        number of events written.  With dropped events, a leading
        ``trace.dropped`` marker records the gap."""
        with open(path, "w", encoding="utf-8") as f:
            if self.dropped:
                marker = {"i": -1, "kind": "trace.dropped", "n": self.dropped, "ts": 0}
                f.write(json.dumps(marker, sort_keys=True, separators=(",", ":")) + "\n")
            for rec in self._ring:
                f.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        return len(self._ring)


class NullTracer:
    """The disabled stub: same surface, does nothing, emits id -1."""

    __slots__ = ()

    enabled = False

    def event(self, kind: str, **fields) -> int:
        return -1

    def __len__(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0

    def events(self) -> List[Dict[str, object]]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


def load_jsonl(path: str) -> List[Dict[str, object]]:
    """Read a trace file back (the ``summarize`` CLI and tests)."""
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def masked(events: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Events with the nondeterministic ``ts`` field dropped — the shape
    the determinism tests compare."""
    return [{k: v for k, v in rec.items() if k != "ts"} for rec in events]
