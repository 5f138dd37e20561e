#!/usr/bin/env python3
"""Feedback short-circuiting: rewrite the uplink ACK instead of waiting for
the marked packet to cross the radio segment.

Sixteen loaded UEs on fading channels; compare how long a mark decision
takes to reach the sender, and the sender-observed RTT tail, with the
rewrite enabled and disabled.
"""

import numpy as np

from l4span.harness.scenario import BUILTIN_SCENARIOS
from l4span.ransim.sim import run


def measure(short_circuit):
    scn = BUILTIN_SCENARIOS["ablation-no-shortcircuit"]()
    scn.horizon_secs = 20.0
    scn.aqm.short_circuit = short_circuit
    res = run(scn)
    lats, rtts = [], []
    for pairs in res.collector.feedback_latency.values():
        lats.extend(v for t, v in pairs if t >= scn.warmup_secs)
    for flow in res.collector.flow_names:
        rtts.extend(res.collector.steady_rtts(flow))
    tput = sum(f["throughput_bps"] for f in res.summary["flows"].values())
    return np.array(lats), np.array(rtts), tput


def main():
    print("running 16-UE fading scenario twice ...")
    lat_on, rtt_on, tput_on = measure(True)
    lat_off, rtt_off, tput_off = measure(False)

    print("\n                         rewrite ON    rewrite OFF")
    print(f"mean feedback latency   {np.mean(lat_on)*1e3:9.1f} ms {np.mean(lat_off)*1e3:11.1f} ms")
    print(f"p99 feedback latency    {np.percentile(lat_on, 99)*1e3:9.1f} ms "
          f"{np.percentile(lat_off, 99)*1e3:11.1f} ms")
    print(f"median RTT              {np.median(rtt_on)*1e3:9.1f} ms {np.median(rtt_off)*1e3:11.1f} ms")
    print(f"p99.9 RTT               {np.percentile(rtt_on, 99.9)*1e3:9.1f} ms "
          f"{np.percentile(rtt_off, 99.9)*1e3:11.1f} ms")
    print(f"aggregate throughput    {tput_on/1e6:9.2f}    {tput_off/1e6:11.2f}  Mbit/s")
    print("\nthe decision that once waited out the RLC queue, the delivery delay and")
    print("the uplink leg now rides the next ACK already passing the middlebox.")


if __name__ == "__main__":
    main()
