"""Golden-stream pin: the exact bytes of a small mixed run.

Four UEs under proportional fair, AM and UM bearers (with air loss on
both), Prague/AccECN, CUBIC/classic-ECN, a finite Prague flow and UDP
ECT(1) flows.  The SHA-256 of its packets, intervals and summary streams
is pinned, so any change to event order or arithmetic anywhere on the
slot path shows here.  A change that reorders events on purpose updates
the digest and says so in CHANGES.md.  The pinned value was recorded with
CPython 3.11 on x86-64 Linux (glibc); a libm that rounds ``sin`` or
``erfc`` differently gives other stream bytes.
"""

from __future__ import annotations

import hashlib
import json

from l4span.harness.metrics import dumps_intervals, dumps_packets
from l4span.harness.scenario import (
    AqmSpec,
    ChannelSpec,
    DrbSpec,
    FlowSpec,
    Scenario,
    UeSpec,
)
from l4span.ransim.sim import run

GOLDEN_SHA256 = "d871f39ff73ce15a98a6c2d231a2eada5ec2d4886d33abab7fbaf89820b47a0e"


def golden_scenario() -> Scenario:
    def fading(ue: int) -> ChannelSpec:
        return ChannelSpec(kind="fading", mean_bps=10e6, amplitude_bps=4e6,
                           period_secs=2.0, phase=ue / 4, fade_seed=ue)

    ues = [
        UeSpec(ue_id=1, channel=fading(1), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=[
                FlowSpec(name="prague-1", kind="prague"),
                FlowSpec(name="cubic-1", kind="cubic", feedback="classic", start=0.05),
            ]),
            DrbSpec(drb_id=2, rlc_mode="um", loss_p=0.01, flows=[
                FlowSpec(name="udp-1", kind="udp", feedback="none", udp_rate_bps=2e6),
            ]),
        ]),
        UeSpec(ue_id=2, channel=fading(2), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", loss_p=0.02, flows=[
                FlowSpec(name="prague-2", kind="prague", start=0.1),
                FlowSpec(name="short-2", kind="prague", start=0.6, size_bytes=60_000),
            ]),
        ]),
        UeSpec(ue_id=3, channel=ChannelSpec(kind="sinusoid", mean_bps=8e6,
                                            amplitude_bps=3e6, period_secs=1.0), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", max_queue_sdus=40, flows=[
                FlowSpec(name="cubic-3", kind="cubic", feedback="classic", start=0.2),
            ]),
        ]),
        UeSpec(ue_id=4, channel=ChannelSpec(kind="static", capacity_bps=8e6), drbs=[
            DrbSpec(drb_id=1, rlc_mode="um", loss_p=0.005, max_queue_sdus=48, flows=[
                FlowSpec(name="prague-4", kind="prague", start=0.15),
                FlowSpec(name="udp-4", kind="udp", feedback="none", udp_rate_bps=3e6,
                         start=0.3, stop=1.6),
            ]),
        ]),
    ]
    return Scenario(name="golden-4ue", horizon_secs=2.0, warmup_secs=0.5, seed=7,
                    scheduler="proportional_fair", ues=ues, aqm=AqmSpec())


def stream_digest(result) -> str:
    h = hashlib.sha256()
    h.update(dumps_packets(result.collector.packets).encode())
    h.update(dumps_intervals(result.collector.intervals).encode())
    h.update((json.dumps(result.summary, indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def test_golden_streams_are_pinned():
    result = run(golden_scenario())
    # the run exercises every path the pin is meant to cover
    flows = result.summary["flows"]
    assert all(flows[name]["delivered_bytes"] > 0 for name in flows)
    assert flows["short-2"]["completion_secs"] is not None
    assert sum(f["marks"] for f in flows.values()) > 0
    assert result.summary["drbs"]["4:1"]["tail_drops"] > 0
    assert stream_digest(result) == GOLDEN_SHA256
