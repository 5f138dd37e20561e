"""Per-DRB packet profile table.

Records each packet's size at ingress and its transmit time from the RAN's
cumulative status message, the highest transmitted PDCP SN, and produces
egress-rate, error, and sojourn-time estimates.

Estimation uses two stacked sliding windows of length ``window_secs``
(half a preset channel coherence time):

* the instantaneous egress rate at a transmitted packet k is the bytes
  transmitted in the window ending at k's transmit time, divided by the
  window length;
* the smoothed rate is the mean of those instantaneous rates over the
  window ending at the newest transmit time, and the error width is their
  population standard deviation;
* the predicted sojourn of the standing queue is queued-bytes / smoothed
  rate.

All packets contributing to an estimate were therefore transmitted within
two window lengths, inside which the wireless channel is assumed stable.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import EstimateUnavailable, ProtocolError

DEFAULT_COHERENCE_SECS = 0.0249
DEFAULT_WINDOW_SECS = DEFAULT_COHERENCE_SECS / 2  # 12.45 ms
KEEP_HORIZON_SECS = 1.0  # how long entries outlive their transmit time

# refresh the running byte-window sum from scratch this often to bound float drift
_SUM_REFRESH_PERIOD = 1024


@dataclass(slots=True)
class ProfileEntry:
    pdcp_sn: int
    size_bytes: int
    t_transmit: Optional[float] = None


@dataclass(slots=True)
class EgressEstimate:
    r_hat: float            # smoothed egress rate, bytes/s
    e_hat: float            # std of instantaneous rates over the window, bytes/s
    n_queue: int            # standing (not yet transmitted) bytes
    sojourn_hat: float      # predicted sojourn, seconds (inf when r_hat == 0)
    at: float               # timestamp of the newest transmit the estimate is anchored to
    sample_count: int


class ProfileTable:
    """Ordered record of a DRB's packets, their sizes and transmit times;
    each status message that stamps a packet evicts the ones past the horizon."""

    def __init__(self, window_secs: float = DEFAULT_WINDOW_SECS):
        if window_secs <= 0:
            raise ValueError("window_secs must be positive")
        self.window_secs = window_secs
        self.entries: deque[ProfileEntry] = deque()
        self.highest_tx_sn: Optional[int] = None
        self._last_sn: Optional[int] = None
        self._pending: deque[ProfileEntry] = deque()       # no transmit timestamp yet
        self._pending_bytes = 0
        # transmitted entries inside the current window, one per packet:
        # (t_transmit, size, instantaneous rate at that packet); the running
        # byte sum and rate moments are recomputed exactly every
        # _SUM_REFRESH_PERIOD pushes to bound float drift
        self._win: deque[tuple[float, int, float]] = deque()
        self._win_sum = 0
        self._sum_r = 0.0
        self._sum_r2 = 0.0
        self._win_ops = 0

    # -- ingest -----------------------------------------------------------

    def record_ingress(self, sn: int, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self._last_sn is not None and sn <= self._last_sn:
            raise ProtocolError(f"non-monotone pdcp_sn {sn} (last {self._last_sn})")
        entry = ProfileEntry(sn, size_bytes)
        self.entries.append(entry)
        self._pending.append(entry)
        self._last_sn = sn
        self._pending_bytes += size_bytes

    def on_f1u_feedback(self, highest_tx_sn: int, now: float) -> int:
        """Apply a cumulative status message, the highest transmitted PDCP SN.

        Stamps the message arrival time on every pending packet up to
        ``highest_tx_sn`` and returns how many it stamped.
        """
        if self.highest_tx_sn is not None and highest_tx_sn < self.highest_tx_sn:
            raise ProtocolError(
                f"regressing transmit feedback {highest_tx_sn} < {self.highest_tx_sn}"
            )

        stamped = 0
        pending = self._pending
        while pending and pending[0].pdcp_sn <= highest_tx_sn:
            entry = pending.popleft()
            entry.t_transmit = now
            self._pending_bytes -= entry.size_bytes
            self._push_sample(entry)
            stamped += 1
        if stamped:
            self.highest_tx_sn = entry.pdcp_sn
            self.gc_delivered(KEEP_HORIZON_SECS, now)
        return stamped

    def _push_sample(self, entry: ProfileEntry) -> None:
        t = entry.t_transmit
        low = t - self.window_secs
        win = self._win
        expired = []
        while win and win[0][0] <= low:
            _, size, old = win.popleft()
            self._win_sum -= size
            expired.append(old)
        self._win_sum += entry.size_bytes
        rate = self._win_sum / self.window_secs
        # add the new rate before removing the expired ones: the float
        # moments depend on the order of operations
        self._sum_r += rate
        self._sum_r2 += rate * rate
        for old in expired:
            self._sum_r -= old
            self._sum_r2 -= old * old
        win.append((t, entry.size_bytes, rate))
        self._win_ops += 1
        if self._win_ops >= _SUM_REFRESH_PERIOD:
            self._win_sum = sum(s for _, s, _ in win)
            self._sum_r = math.fsum(r for _, _, r in win)
            self._sum_r2 = math.fsum(r * r for _, _, r in win)
            self._win_ops = 0

    # -- estimates --------------------------------------------------------

    def egress_rate_smoothed(self) -> EgressEstimate:
        # the window is trimmed on every push, so the running moments cover
        # exactly the entries it selects
        if not self._win:
            raise EstimateUnavailable("no transmitted entries")
        t_k = self._win[-1][0]
        n = len(self._win)
        r_hat = self._sum_r / n
        if n >= 2:
            var = self._sum_r2 / n - r_hat * r_hat
            # variances below float resolution of the moments are zero
            if var > r_hat * r_hat * 1e-12:
                e_hat = math.sqrt(var)
            else:
                e_hat = 0.0
        else:
            e_hat = 0.0
        n_queue = self._pending_bytes
        if r_hat > 0:
            sojourn = n_queue / r_hat
        else:
            sojourn = math.inf
        return EgressEstimate(r_hat, e_hat, n_queue, sojourn, t_k, n)

    @property
    def queued_bytes(self) -> int:
        return self._pending_bytes

    # -- maintenance ------------------------------------------------------

    def gc_delivered(self, keep_horizon_secs: float, now: float) -> int:
        """Evict the entries transmitted before ``now - keep_horizon_secs``
        and return how many; estimates are unaffected.

        Transmit times do not decrease in SN order and untransmitted entries
        are the newest, so eviction is front-only.
        """
        cutoff = now - keep_horizon_secs
        entries = self.entries
        n = len(entries)
        while entries and entries[0].t_transmit is not None and entries[0].t_transmit < cutoff:
            entries.popleft()
        return n - len(entries)
