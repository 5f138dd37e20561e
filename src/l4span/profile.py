"""Per-DRB packet profile table.

Ingests cumulative transmit/delivery feedback and produces egress-rate,
error, and sojourn-time estimates.

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

from .core import DrbConfig, EstimateUnavailable, ProtocolError, RlcMode

DEFAULT_COHERENCE_SECS = 0.0249
DEFAULT_WINDOW_SECS = DEFAULT_COHERENCE_SECS / 2  # 12.45 ms

# refresh the running byte-window sum from scratch this often to bound float drift
_SUM_REFRESH_PERIOD = 1024


@dataclass
class ProfileEntry:
    pdcp_sn: int
    size_bytes: int
    t_ingress: float
    t_transmit: Optional[float] = None
    t_deliver: Optional[float] = None


@dataclass
class EgressEstimate:
    r_hat: float            # smoothed egress rate, bytes/s
    e_hat: float            # std of instantaneous rates over the window, bytes/s
    n_queue: int            # standing (not yet transmitted) bytes
    sojourn_hat: float      # predicted sojourn, seconds (inf when r_hat == 0)
    at: float               # timestamp of the newest transmit the estimate is anchored to
    sample_count: int


class ProfileTable:
    """Ordered record of a DRB's packets and their ingress/transmit/delivery times."""

    def __init__(self, drb: DrbConfig, window_secs: float = DEFAULT_WINDOW_SECS):
        if window_secs <= 0:
            raise ValueError("window_secs must be positive")
        self.drb = drb
        self.window_secs = window_secs
        self.entries: deque[ProfileEntry] = deque()
        self.highest_tx_sn: Optional[int] = None
        self._last_sn: Optional[int] = None
        self._pending: deque[ProfileEntry] = deque()       # no transmit timestamp yet
        self._undelivered: deque[ProfileEntry] = deque()   # AM: transmitted, not delivered
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

    def record_ingress(self, sn: int, size_bytes: int, now: float) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self._last_sn is not None and sn <= self._last_sn:
            raise ProtocolError(f"non-monotone pdcp_sn {sn} (last {self._last_sn})")
        entry = ProfileEntry(pdcp_sn=sn, size_bytes=size_bytes, t_ingress=now)
        self.entries.append(entry)
        self._pending.append(entry)
        self._last_sn = sn
        self._pending_bytes += size_bytes

    def on_f1u_feedback(
        self,
        highest_tx_sn: int,
        highest_dlv_sn: Optional[int],
        now: float,
    ) -> list[ProfileEntry]:
        """Apply a cumulative transmit/delivery status message.

        Returns the entries newly stamped as transmitted, in SN order.  The
        message arrival time is used as the transmit/delivery timestamp for
        every packet the message covers.
        """
        if self.highest_tx_sn is not None and highest_tx_sn < self.highest_tx_sn:
            raise ProtocolError(
                f"regressing transmit feedback {highest_tx_sn} < {self.highest_tx_sn}"
            )
        if highest_dlv_sn is not None:
            if self.drb.rlc_mode is not RlcMode.AM:
                raise ProtocolError("delivery feedback is only valid in RLC AM")
            if highest_dlv_sn > highest_tx_sn:
                raise ProtocolError("delivered SN cannot exceed transmitted SN")

        am = self.drb.rlc_mode is RlcMode.AM
        newly: list[ProfileEntry] = []
        while self._pending and self._pending[0].pdcp_sn <= highest_tx_sn:
            entry = self._pending.popleft()
            entry.t_transmit = now
            self._pending_bytes -= entry.size_bytes
            newly.append(entry)
            if am:
                self._undelivered.append(entry)
        if highest_dlv_sn is not None:
            while self._undelivered and self._undelivered[0].pdcp_sn <= highest_dlv_sn:
                self._undelivered.popleft().t_deliver = now
        if newly:
            self.highest_tx_sn = newly[-1].pdcp_sn
            for entry in newly:
                self._push_sample(entry)
        return newly

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
        return EgressEstimate(
            r_hat=r_hat,
            e_hat=e_hat,
            n_queue=n_queue,
            sojourn_hat=sojourn,
            at=t_k,
            sample_count=n,
        )

    @property
    def queued_bytes(self) -> int:
        return self._pending_bytes

    # -- maintenance ------------------------------------------------------

    def gc_delivered(self, keep_horizon_secs: float, now: float) -> int:
        """Evict completed entries older than the horizon; estimates are unaffected.

        AM entries need a delivery timestamp to be eligible, UM entries only a
        transmit timestamp.  Eviction is front-only so SN order is preserved.
        """
        cutoff = now - keep_horizon_secs
        removed = 0
        am = self.drb.rlc_mode is RlcMode.AM
        while self.entries:
            head = self.entries[0]
            done_at = head.t_deliver if am else head.t_transmit
            if done_at is None or done_at >= cutoff:
                break
            self.entries.popleft()
            removed += 1
        return removed
