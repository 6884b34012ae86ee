"""Memory guard: what a Loom pass holds per live match, and after ``finalize``.

The window ``Ptemp`` and its matchList are the largest transient of a Loom
pass (ARCHITECTURE.md, "Resident state").  This module traces the pass
over the reference benchmark's input (musicbrainz 8k, BFS, k = 8, window
|E| / 8, seed 7, 2048-edge batches) with ``tracemalloc`` and bounds

* the traced peak of the pass per peak live match (the matchList's
  high-water length, read after every batch), so a per-match field added
  back beside a match's edges, endpoints and sort key fails; and
* the bytes the partitioner still holds once ``finalize`` has drained the
  window, so tables left at their high-water size fail.
"""

import gc
import tracemalloc

from repro.graph.stream import batched

from helpers import BENCH_BATCH_EDGES, bench_loom_input, new_bench_loom

#: Traced peak ÷ peak live matches on CPython 3.11: 1094 B (5.41 MiB over
#: 5179 matches); the bound is that plus 10 %.  With a degree map and a
#: support float per match it read 1260 B.
BYTES_PER_PEAK_MATCH = 1200

#: Bytes still traced once ``finalize`` returns, partitioner alive: 1.57
#: MiB on CPython 3.11; the bound is that plus 10 %.  With the emptied
#: window, matchList indexes and deferral queue kept at their high-water
#: size it read 2.47 MiB.
BYTES_HELD_AFTER_FINALIZE = int(1.73 * (1 << 20))


def test_loom_pass_bytes_per_match_and_after_finalize():
    dataset, events = bench_loom_input()
    batches = list(batched(events, BENCH_BATCH_EDGES))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loom = new_bench_loom(dataset, events)
        peak_matches = 0
        for batch in batches:
            loom.ingest_batch(batch)
            peak_matches = max(peak_matches, len(loom.matcher.matchlist))
        loom.finalize()
        gc.collect()
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loom.window_occupancy == 0 and len(loom.matcher.matchlist) == 0
    assert peak_matches > 0
    assert peak / peak_matches <= BYTES_PER_PEAK_MATCH
    assert held <= BYTES_HELD_AFTER_FINALIZE
