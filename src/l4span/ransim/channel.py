"""Time-varying per-UE link capacity as a piecewise-constant function."""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right

import numpy as np

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

    def __init__(self, times, caps):
        """``times`` and ``caps`` are equal-length columns (sequences or numpy
        arrays): breakpoint i starts at ``times[i]`` with capacity ``caps[i]``.
        A bad column raises ``ValueError`` naming its first bad breakpoint."""
        times = np.asarray(times, dtype=float)
        caps = np.asarray(caps, dtype=float)
        if times.shape != caps.shape or times.ndim != 1:
            raise ValueError("breakpoint times and capacities must be two columns of one length")
        if not len(times):
            raise ValueError("channel trace needs at least one breakpoint")
        # per breakpoint, in the order its checks run: finite, later than the
        # one before, non-negative
        finite = np.isfinite(times) & np.isfinite(caps)
        rising = np.empty(len(times), dtype=bool)
        rising[0] = True
        np.greater(times[1:], times[:-1], out=rising[1:])
        bad = ~(finite & rising & (caps >= 0.0))
        if bad.any():
            i = int(bad.argmax())
            t, cap = float(times[i]), float(caps[i])
            if not finite[i]:
                raise ValueError(f"breakpoint ({t}, {cap}) must be finite")
            if not rising[i]:
                raise ValueError(f"breakpoints must be strictly increasing (at t={t})")
            raise ValueError(f"capacity must be >= 0 (at t={t})")
        if times[0] > 0:
            raise ValueError("first breakpoint must be at t=0")
        self._times = array("d", times.tobytes())
        self._times.append(math.inf)
        self._caps = array("d", caps.tobytes())
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
        starts = np.frombuffer(self._times)
        lo = np.maximum(t0, starts[:-1])
        hi = np.minimum(t1, starts[1:])
        inside = hi > lo
        if not inside.any():
            return 0.0
        # a zero capacity up to t1 = inf carries 0 * inf = NaN bytes, as
        # float arithmetic has it, without a warning
        with np.errstate(invalid="ignore"):
            shares = np.frombuffer(self._caps)[inside] * (hi[inside] - lo[inside])
        # segment by segment from 0.0, as a loop adds them: cumsum adds in
        # order, where np.sum pairs and builtin sum compensates
        return 0.0 + float(np.cumsum(shares)[-1])

    # -- generators ---------------------------------------------------------

    @classmethod
    def static(cls, capacity_bytes_per_sec: float) -> "ChannelTrace":
        return cls([0.0], [capacity_bytes_per_sec])

    @classmethod
    def step(cls, c1: float, c2: float, period: float, horizon: float) -> "ChannelTrace":
        """Alternate between c1 and c2 every half period."""
        if period <= 0:
            raise ValueError("period must be positive")
        if min(c1, c2) < 0:
            raise ValueError("capacities must be >= 0")
        times, caps = [], []
        t = 0.0
        i = 0
        while t <= horizon:
            times.append(t)
            caps.append(c1 if i % 2 == 0 else c2)
            t += period / 2
            i += 1
        return cls(times, caps)

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
        t = np.arange(int(horizon / sample_secs) + 2) * sample_secs
        return cls(t, _sine(t, mean, amplitude, period, phase))

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

        Sample i sits at ``i * fast_secs``.  Each factor is the value
        ``random.Random.uniform(floor, 1.0)`` draws, ``floor + (1.0 - floor) * u``:
        the shadowing draws come from ``Random(seed)``, one per ``fade_secs``
        hold, and the jitter draws from ``Random(seed + 7919)``, one per sample.
        """
        if not 0.0 < fade_floor <= 1.0 or not 0.0 < fast_floor <= 1.0:
            raise ValueError("fade floors must be in (0, 1]")
        if fade_secs <= 0 or fast_secs <= 0:
            raise ValueError("fade hold times must be positive")
        if slow_period <= 0:
            raise ValueError("period must be positive")
        n = int(horizon / fast_secs) + 2
        per_shadow = max(1, round(fade_secs / fast_secs))
        draw, fast_draw = random.Random(seed).random, random.Random(seed + 7919).random
        shadow = np.array([draw() for _ in range(-(-n // per_shadow))])
        fast = np.array([fast_draw() for _ in range(n)])
        shadow = np.repeat(fade_floor + (1.0 - fade_floor) * shadow, per_shadow)[:n]
        fast = fast_floor + (1.0 - fast_floor) * fast
        t = np.arange(n) * fast_secs
        slow = _sine(t, mean, slow_amplitude, slow_period, phase)
        # max(slow, 0.0) as Python takes it: np.maximum would turn -0.0 into 0.0
        return cls(t, np.where(0.0 > slow, 0.0, slow) * shadow * fast)

    @classmethod
    def from_file(cls, path: str) -> "ChannelTrace":
        """Load `time_secs,capacity_bits_per_sec` lines; '#' starts a comment."""
        times, caps = [], []
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
                times.append(t)
                caps.append(bps / 8.0)
        if not times:
            raise ValueError(f"{path}: no trace records")
        return cls(times, caps)


def _sine(t: np.ndarray, mean: float, amplitude: float, period: float, phase: float) -> np.ndarray:
    """``mean + amplitude * sin(2 pi (t / period + phase))`` per sample, with
    ``math.sin``: ``np.sin`` may differ from it in the last bit."""
    arg = 2 * math.pi * (t / period + phase)
    return mean + amplitude * np.array(list(map(math.sin, arg.tolist())))
