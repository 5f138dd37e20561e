"""Time-varying per-UE link capacity as a piecewise-constant function."""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from itertools import islice

# the sinusoid's sampling step
SINUSOID_SAMPLE_SECS = 0.025


class ChannelTrace:
    """Piecewise-constant capacity (bytes/s) over strictly increasing breakpoints.

    The last segment extends to infinity, so evaluation is defined for any
    t >= 0.  The breakpoints are stored as two flat ``array('d')`` columns,
    not as pairs: segment starts followed by an ``inf`` sentinel, so segment
    i covers ``[_times[i], _times[i + 1])``, and capacities.  Lookups keep a
    cursor on the last segment they hit, so the simulator's monotone
    slot-by-slot queries skip the binary search.
    """

    def __init__(self, breakpoints: list[tuple[float, float]]):
        if not breakpoints:
            raise ValueError("channel trace needs at least one breakpoint")
        last = -math.inf
        for t, cap in breakpoints:
            if not (math.isfinite(t) and math.isfinite(cap)):
                raise ValueError(f"breakpoint ({t}, {cap}) must be finite")
            if t <= last:
                raise ValueError(f"breakpoints must be strictly increasing (at t={t})")
            if cap < 0:
                raise ValueError(f"capacity must be >= 0 (at t={t})")
            last = t
        if breakpoints[0][0] > 0:
            raise ValueError("first breakpoint must be at t=0")
        self._times = array("d", [t for t, _ in breakpoints])
        self._times.append(math.inf)
        self._caps = array("d", [c for _, c in breakpoints])
        self._cursor = 0

    @property
    def breakpoints(self) -> list[tuple[float, float]]:
        """The trace's ``(t, capacity)`` pairs, rebuilt on each read."""
        return list(zip(self._times, self._caps))

    def rate_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        i = self._cursor
        if not self._times[i] <= t < self._times[i + 1]:
            # the sentinel is no segment start, so search the starts alone
            i = self._cursor = bisect_right(self._times, t, 0, len(self._caps)) - 1
        return self._caps[i]

    def integral(self, t0: float, t1: float) -> float:
        """Bytes the channel could carry over [t0, t1]."""
        if t1 <= t0:
            return 0.0
        total = 0.0
        for seg0, seg1, cap in zip(self._times, islice(self._times, 1, None), self._caps):
            lo, hi = max(t0, seg0), min(t1, seg1)
            if hi > lo:
                total += cap * (hi - lo)
        return total

    # -- generators ---------------------------------------------------------

    @classmethod
    def static(cls, capacity_bytes_per_sec: float) -> "ChannelTrace":
        return cls([(0.0, capacity_bytes_per_sec)])

    @classmethod
    def step(cls, c1: float, c2: float, period: float, horizon: float) -> "ChannelTrace":
        """Alternate between c1 and c2 every half period."""
        if period <= 0:
            raise ValueError("period must be positive")
        if min(c1, c2) < 0:
            raise ValueError("capacities must be >= 0")
        pts = []
        t = 0.0
        i = 0
        while t <= horizon:
            pts.append((t, c1 if i % 2 == 0 else c2))
            t += period / 2
            i += 1
        return cls(pts)

    @classmethod
    def sinusoid(
        cls,
        mean: float,
        amplitude: float,
        period: float,
        horizon: float,
        sample_secs: float = SINUSOID_SAMPLE_SECS,
        phase: float = 0.0,
    ) -> "ChannelTrace":
        if period <= 0 or sample_secs <= 0:
            raise ValueError("period and sample_secs must be positive")
        if abs(amplitude) > mean:
            raise ValueError("amplitude may not exceed mean (capacity must stay >= 0)")
        pts = []
        n = int(horizon / sample_secs) + 1
        for i in range(n + 1):
            t = i * sample_secs
            cap = mean + amplitude * math.sin(2 * math.pi * (t / period + phase))
            pts.append((t, cap))
        return cls(pts)

    @classmethod
    def fading(
        cls,
        mean: float,
        slow_amplitude: float,
        slow_period: float,
        horizon: float,
        fade_floor: float = 0.5,
        fade_secs: float = 0.1,
        fast_floor: float = 0.75,
        fast_secs: float = 0.01,
        seed: int = 1,
        phase: float = 0.0,
    ) -> "ChannelTrace":
        """Mobile-style channel: a slow sinusoidal mean multiplied by a seeded
        piecewise shadowing factor in [fade_floor, 1] held for fade_secs, and
        a fast per-transmission jitter in [fast_floor, 1] held for fast_secs.

        The shadowing hold stays above the estimation coherence window while
        the fast layer varies inside it, which is the residual uncertainty
        the Gaussian error model is there to absorb.
        """
        if not 0.0 < fade_floor <= 1.0 or not 0.0 < fast_floor <= 1.0:
            raise ValueError("fade floors must be in (0, 1]")
        if fade_secs <= 0 or fast_secs <= 0:
            raise ValueError("fade hold times must be positive")
        if slow_period <= 0:
            raise ValueError("period must be positive")
        rng = random.Random(seed)
        fast_rng = random.Random(seed + 7919)
        pts = []
        shadow = 1.0
        n = int(horizon / fast_secs) + 2
        per_shadow = max(1, round(fade_secs / fast_secs))
        for i in range(n):
            t = i * fast_secs
            if i % per_shadow == 0:
                shadow = rng.uniform(fade_floor, 1.0)
            slow = mean + slow_amplitude * math.sin(2 * math.pi * (t / slow_period + phase))
            pts.append((t, max(slow, 0.0) * shadow * fast_rng.uniform(fast_floor, 1.0)))
        return cls(pts)

    @classmethod
    def from_file(cls, path: str) -> "ChannelTrace":
        """Load `time_secs,capacity_bits_per_sec` lines; '#' starts a comment."""
        pts = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'time_secs,capacity_bits_per_sec'")
                try:
                    t, bps = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                pts.append((t, bps / 8.0))
        if not pts:
            raise ValueError(f"{path}: no trace records")
        return cls(pts)
