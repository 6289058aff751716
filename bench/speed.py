"""The machine's current speed, from a fixed reference loop.

The benchmark's host shares its cores: the speed of the same Python code
changes by up to 2x from one ten-second spell to the next, for the
package and for any other code alike.  So the loop below, which never
touches the package, is timed next to every op, and each timing is
reported at the reference speed: multiplied by REFERENCE_S over the
reference loop's measured time.  Only ``time`` is imported here, so the
set-up probes can load this module before they time the package import.
"""

import time

REFERENCE_S = 0.003  # nominal wall time of one reference_time() loop
HALF_WINDOW = 2  # factor() takes the median of 2 * HALF_WINDOW + 1 samples


def reference_time() -> float:
    """Wall time of fixed string, dict, sort and join work, like the package's own.

    It allocates a few thousand objects, as an op does, so that it feels
    contention for caches and memory as well as for the core.
    """
    t0 = time.perf_counter()
    words = ["w%d" % (k % 1500) for k in range(4000)]
    counts: dict[str, int] = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1
    rows = [(word, len(word), n) for word, n in counts.items()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    " ".join(words)
    return time.perf_counter() - t0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def factor(refs: list[float], i: int | None = None) -> float:
    """Scale for a timing taken next to reference sample ``i``: the median
    of the samples within HALF_WINDOW of it, or of all samples when ``i``
    is None."""
    window = refs if i is None else refs[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
    return REFERENCE_S / _median(window)


def reference_median(repeats: int) -> float:
    return _median([reference_time() for _ in range(repeats)])
