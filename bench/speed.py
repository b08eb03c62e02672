"""The machine's speed, measured by a fixed calibration kernel.

The benchmark runs on shared virtual machines whose speed drifts by 15-40%
in phases that last from seconds to minutes: the same run of the same code
on the same inputs can take 40% longer a minute later, in process CPU time
as much as in wall time. Repetition inside a run cannot remove drift that
outlasts the run.

So the harness times a fixed pure-Python kernel (string folding and
splitting, dictionary counting, sorting, float arithmetic: the operations
semindex spends its time in) right before and right after every measured
operation, and scales the operation's time by how much slower or faster the
kernel ran than its reference time ``REFERENCE_S``::

    normalized = raw * REFERENCE_S / kernel_s

A normalized time is the time the operation would have taken had the
machine run the kernel in exactly ``REFERENCE_S``. The kernel does not
depend on semindex, so a change to the program moves normalized times as
much as raw ones; only the machine's drift cancels. Raw times are printed
next to normalized ones in the readable report.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# Median time of one kernel pass on the 2-vCPU Intel Xeon VM the benchmark
# was tuned on (Python 3.11). Any fixed value works; this one keeps
# normalized times close to raw ones there.
REFERENCE_S = 0.02
PASSES = 5  # kernel passes per probe; the probe reports their median

_FOLD = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ى": "ي", "ة": "ه", "ـ": None, "َ": None})
_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهويأإىةـَ"


def _text(lines: int, words: int) -> list[str]:
    """Fixed pseudo-random text (a linear congruential generator, no seed)."""
    state, out = 12345, []
    for _ in range(lines):
        tokens = []
        for _ in range(words):
            state = (state * 1103515245 + 12345) % 2**31
            word, rest = "", state
            for _ in range(3 + state % 4):
                word += _LETTERS[rest % len(_LETTERS)]
                rest //= len(_LETTERS)
            tokens.append(word)
        out.append(" ".join(tokens))
    return out


_TEXT = _text(150, 60)


def kernel() -> int:
    """One pass of fixed work; returns a checksum so nothing is optimized away."""
    counts: dict[str, int] = {}
    for line in _TEXT:
        for token in line.translate(_FOLD).split():
            counts[token] = counts.get(token, 0) + 1
    n = len(counts)
    scored = [(c * math.log(1.0 + n / c), term) for term, c in counts.items()]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return len(scored) + sum(len(term) for _, term in scored[:50])


def probe() -> float:
    """Median seconds of PASSES kernel passes, now.

    The garbage collector is off meanwhile: the kernel frees everything it
    allocates, so the program's collections happen where they would have
    happened without the probe.
    """
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PASSES):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


class Speedometer:
    """Normalizes operation times by kernel probes taken around each operation.

    ``around(op)`` probes, runs ``op``, probes again and returns op's result,
    its raw seconds and the scale factor ``REFERENCE_S / mean(probe before,
    probe after)``. A probe taken after one operation serves as the probe
    before the next one, so back-to-back operations cost one probe each.
    """

    def __init__(self) -> None:
        self._last: float | None = None
        self.factors: list[float] = []

    def around(self, op):
        before = self._last if self._last is not None else probe()
        start = time.perf_counter()
        try:
            value = op()
        finally:
            raw = time.perf_counter() - start
            self._last = probe()
        factor = REFERENCE_S / ((before + self._last) / 2)
        self.factors.append(factor)
        return value, raw, factor
