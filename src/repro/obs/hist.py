"""Bucketed histogram series with a sliding quantile window.

The series type behind every histogram family of the metrics registry
(:meth:`repro.obs.metrics.MetricsRegistry.histogram`).  A series counts
observations into fixed buckets and keeps two views of them:

* **lifetime** — bucket counts, count, sum and max since the last reset;
  monotone, so they are what the Prometheus exposition renders
  (``le="+Inf"`` always equals ``_count``);
* **window** — the same buckets over a sliding window by epoch rotation:
  observations land in the current epoch's array, and every
  :data:`EPOCH_S` seconds the oldest of :data:`N_EPOCHS` arrays is
  recycled.  Quantiles read the window, so a readout always covers the
  last 50–60 seconds of traffic regardless of request rate — a burst of
  fast requests cannot evict the slow tail the way a sample reservoir's
  would.

Latency uses log-spaced bounds (:data:`BUCKET_BOUNDS_S`, factor 2 from
100 µs to ~1.6 s plus an overflow bucket), so one small int array covers
five decades and a quantile is a cumulative walk with interpolation.
"""

from __future__ import annotations

from time import monotonic
from typing import Optional, Sequence

#: Bucket upper bounds in seconds: 100 µs · 2^k for k = 0..14, then +∞.
#: Covers 0.1 ms .. ~1.6 s, which brackets every serving latency the
#: benchmarks have ever recorded; slower requests land in the overflow.
BUCKET_BOUNDS_S: tuple[float, ...] = tuple(1e-4 * (2.0 ** k) for k in range(15))

#: The quantile window: 6 epochs of 10 s ⇒ quantiles always reflect the
#: last 50–60 seconds of traffic.
EPOCH_S = 10.0
N_EPOCHS = 6


class LatencyHistogram:
    """One bucketed series: lifetime counts plus a rotating epoch window.

    Not thread-safe on its own — the owning histogram family serializes
    access.  ``observe`` is a clock compare, a bucket scan and a few
    increments; rotation is amortized (an array swap per epoch).
    """

    __slots__ = (
        "bounds", "_epochs", "_epoch_start", "_lifetime", "_count", "_sum", "_max"
    )

    def __init__(
        self, bounds: Sequence[float] = BUCKET_BOUNDS_S, *, now: Optional[float] = None
    ):
        self.bounds = tuple(bounds)
        # _epochs[0] is current; rotation pushes a fresh array at the front.
        self._epochs: list[list[int]] = [
            [0] * (len(self.bounds) + 1) for _ in range(N_EPOCHS)
        ]
        self._epoch_start = monotonic() if now is None else now
        self._lifetime = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def _rotate(self, now: float) -> None:
        lapsed = now - self._epoch_start
        while lapsed >= EPOCH_S:
            self._epochs.pop()
            self._epochs.insert(0, [0] * (len(self.bounds) + 1))
            self._epoch_start += EPOCH_S
            lapsed -= EPOCH_S
            if all(not any(epoch) for epoch in self._epochs):
                # Fully idle: snap the epoch clock forward instead of
                # spinning through every missed rotation.
                self._epoch_start = now
                break

    def observe(self, value: float, *, now: Optional[float] = None) -> None:
        now = monotonic() if now is None else now
        if now - self._epoch_start >= EPOCH_S:
            self._rotate(now)
        slot = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                slot = index
                break
        self._epochs[0][slot] += 1
        self._lifetime[slot] += 1
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value

    def absorb(self, other: "LatencyHistogram", *, now: Optional[float] = None) -> None:
        """Add *other*'s window and lifetime into this series (exact merge)."""
        window = other.window_counts(now=now)
        for index in range(len(self.bounds) + 1):
            self._epochs[0][index] += window[index]
            self._lifetime[index] += other._lifetime[index]
        self._count += other._count
        self._sum += other._sum
        self._max = max(self._max, other._max)

    # -- readers -------------------------------------------------------------
    def window_counts(self, *, now: Optional[float] = None) -> list[int]:
        """Per-bucket counts merged across the live window."""
        now = monotonic() if now is None else now
        if now - self._epoch_start >= EPOCH_S:
            self._rotate(now)
        return [sum(column) for column in zip(*self._epochs)]

    def lifetime_counts(self) -> list[int]:
        """Per-bucket counts since the series was created (monotone)."""
        return list(self._lifetime)

    def quantile(self, q: float, *, now: Optional[float] = None) -> float:
        """Windowed *q*-quantile, interpolated within a bucket.

        Interpolation is linear from the bucket's lower bound; the
        overflow bucket reports its lower bound (the largest finite
        bound) — a floor, not a fabrication.
        """
        counts = self.window_counts(now=now)
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                low = 0.0 if index == 0 else self.bounds[index - 1]
                high = self.bounds[index]
                fraction = (rank - cumulative) / count
                return low + (high - low) * min(1.0, max(0.0, fraction))
            cumulative += count
        return self.bounds[-1]

    def snapshot(self, *, now: Optional[float] = None) -> dict:
        """Lifetime count/sum/max and windowed quantiles, in milliseconds."""
        return {
            "count": self._count,
            "window": sum(self.window_counts(now=now)),
            "sum_s": round(self._sum, 6),
            "p50_ms": round(self.quantile(0.50, now=now) * 1e3, 3),
            "p90_ms": round(self.quantile(0.90, now=now) * 1e3, 3),
            "p99_ms": round(self.quantile(0.99, now=now) * 1e3, 3),
            "max_ms": round(self._max * 1e3, 3),
        }

    @property
    def count(self) -> int:
        """Lifetime observation count (monotone; Prometheus ``_count``)."""
        return self._count

    @property
    def sum(self) -> float:
        """Lifetime sum of observed values (monotone; Prometheus ``_sum``)."""
        return self._sum
