"""Declarative experiment description: UEs, bearers, flows, channel, AQM.

Scenario files are YAML or JSON mirroring the dataclasses below; unknown
keys and dangling references are configuration errors naming the offending
field.  A registry of bundled scenarios covers the standard experiments.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..core import DrbConfig, RlcMode
from ..profile import DEFAULT_COHERENCE_SECS

DEFAULT_CAPACITY_BPS = 40e6          # 40 Mbit/s cell
DEFAULT_SLOT_SECS = 0.0005           # 30 kHz-SCS slot
DEFAULT_TAU_THR = 0.010
DEFAULT_MSS = 1500
DEFAULT_QUEUE_SDUS = 16384
DEFAULT_DELIVERY_DELAY = 0.008
DEFAULT_ARQ_DELAY = 0.020

SENDER_KINDS = ("prague", "cubic", "reno", "udp")
FEEDBACK_KINDS = ("accecn", "classic", "none")
AQM_KINDS = ("l4span", "dualpi2step", "none")
SHARED_POLICIES = ("coupled", "l4s", "classic", "original")


class ConfigError(Exception):
    """Scenario inconsistency, raised before any event runs."""


@dataclass
class FlowSpec:
    name: str
    kind: str = "prague"
    start: float = 0.0
    stop: Optional[float] = None          # None: run to horizon
    size_bytes: Optional[int] = None      # short-lived flow size; None: unbounded
    feedback: str = "accecn"              # accecn | classic | none
    udp_rate_bps: float = 8e6             # udp sender pace, bits/s
    # server turnaround between handshake completion and the first data
    # packet; the middlebox's handshake RTT measurement absorbs it, which
    # is the overestimate that lets classic flows keep a standing buffer
    think_secs: float = 0.02
    # receive-window cap on outstanding payload bytes (autotuned socket
    # buffers bound real flows the same way)
    rwnd_bytes: int = 4_000_000


@dataclass
class DrbSpec:
    drb_id: int = 1
    rlc_mode: str = "am"
    max_queue_sdus: int = DEFAULT_QUEUE_SDUS
    mss_bytes: int = DEFAULT_MSS
    delivery_delay_secs: float = DEFAULT_DELIVERY_DELAY
    arq_delay_secs: float = DEFAULT_ARQ_DELAY
    loss_p: float = 0.0
    flows: list[FlowSpec] = field(default_factory=list)


@dataclass
class ChannelSpec:
    kind: str = "static"                  # static | step | sinusoid | fading | file
    capacity_bps: float = DEFAULT_CAPACITY_BPS
    low_bps: float = 20e6                 # step
    high_bps: float = 40e6                # step
    mean_bps: float = 30e6                # sinusoid / fading
    amplitude_bps: float = 10e6           # sinusoid / fading
    period_secs: float = 5.0
    phase: float = 0.0
    fade_floor: float = 0.5               # fading: shadowing depth
    fade_secs: float = 0.1                # fading: shadowing hold
    fast_floor: float = 0.75              # fading: sub-window jitter depth
    fast_secs: float = 0.01               # fading: jitter hold
    fade_seed: int = 1                    # fading (fixed per UE, not the run seed)
    path: Optional[str] = None            # file

    def build(self, horizon: float):
        from ..ransim.channel import ChannelTrace

        if self.kind == "static":
            return ChannelTrace.static(self.capacity_bps / 8.0)
        if self.kind == "step":
            return ChannelTrace.step(self.high_bps / 8.0, self.low_bps / 8.0, self.period_secs, horizon)
        if self.kind == "sinusoid":
            return ChannelTrace.sinusoid(
                self.mean_bps / 8.0, self.amplitude_bps / 8.0, self.period_secs, horizon, phase=self.phase
            )
        if self.kind == "fading":
            return ChannelTrace.fading(
                self.mean_bps / 8.0, self.amplitude_bps / 8.0, self.period_secs, horizon,
                fade_floor=self.fade_floor, fade_secs=self.fade_secs,
                fast_floor=self.fast_floor, fast_secs=self.fast_secs,
                seed=self.fade_seed, phase=self.phase,
            )
        if self.kind == "file":
            if not self.path:
                raise ConfigError("channel.path required for kind=file")
            return ChannelTrace.from_file(self.path)
        raise ConfigError(f"unknown channel.kind {self.kind!r}")


@dataclass
class UeSpec:
    ue_id: int
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    drbs: list[DrbSpec] = field(default_factory=lambda: [DrbSpec()])


@dataclass
class AqmSpec:
    kind: str = "l4span"                  # l4span | dualpi2step | none
    tau_thr: float = DEFAULT_TAU_THR      # sojourn threshold (dualpi2step: step threshold)
    beta: float = 0.5
    short_circuit: bool = True
    drop_fallback: bool = False
    shared_policy: str = "coupled"
    force_zero_error: bool = False


@dataclass
class PathDelays:
    dl_prop_secs: float = 0.014           # server -> CU
    ul_prop_secs: float = 0.014           # CU -> server
    ran_ul_secs: float = 0.002            # UE -> CU (uncongested uplink leg)


@dataclass
class Scenario:
    name: str = "scenario"
    horizon_secs: float = 30.0
    seed: int = 1
    ues: list[UeSpec] = field(default_factory=list)
    scheduler: str = "round_robin"
    slot_secs: float = DEFAULT_SLOT_SECS
    coherence_secs: float = DEFAULT_COHERENCE_SECS
    aqm: AqmSpec = field(default_factory=AqmSpec)
    delays: PathDelays = field(default_factory=PathDelays)
    warmup_secs: float = 5.0              # excluded from steady-state statistics

    @property
    def window_secs(self) -> float:
        return self.coherence_secs / 2.0

    def scheduler_policy(self):
        from ..ransim.scheduler import SchedulerPolicy

        return SchedulerPolicy(self.scheduler)

    def validate(self) -> None:
        if self.horizon_secs <= 0:
            raise ConfigError("horizon_secs must be positive")
        if self.slot_secs <= 0:
            raise ConfigError("slot_secs must be positive")
        if self.coherence_secs <= 0:
            raise ConfigError("coherence_secs must be positive")
        if self.warmup_secs >= self.horizon_secs:
            raise ConfigError("warmup_secs must be shorter than horizon_secs")
        if self.scheduler not in ("round_robin", "proportional_fair"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.aqm.kind not in AQM_KINDS:
            raise ConfigError(f"unknown aqm.kind {self.aqm.kind!r}")
        if self.aqm.shared_policy not in SHARED_POLICIES:
            raise ConfigError(f"unknown aqm.shared_policy {self.aqm.shared_policy!r}")
        if not 0 < self.aqm.beta < 1:
            raise ConfigError("aqm.beta must be in (0, 1)")
        if self.aqm.tau_thr <= 0:
            raise ConfigError("aqm.tau_thr must be positive")
        if not self.ues:
            raise ConfigError("scenario needs at least one UE")
        seen_ue = set()
        seen_names = set()
        for i, ue in enumerate(self.ues):
            if ue.ue_id in seen_ue:
                raise ConfigError(f"duplicate ue_id {ue.ue_id}")
            seen_ue.add(ue.ue_id)
            try:
                ue.channel.build(self.horizon_secs)  # validates parameters
            except (ConfigError, ValueError, OSError) as exc:
                raise ConfigError(f"ues[{i}].channel: {exc}") from None
            if not ue.drbs:
                raise ConfigError(f"ue {ue.ue_id} has no DRBs")
            seen_drb = set()
            for drb in ue.drbs:
                if drb.drb_id in seen_drb:
                    raise ConfigError(f"duplicate drb_id {drb.drb_id} in ue {ue.ue_id}")
                seen_drb.add(drb.drb_id)
                if drb.rlc_mode not in ("am", "um"):
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: unknown rlc_mode {drb.rlc_mode!r}")
                if drb.max_queue_sdus <= 0:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: max_queue_sdus must be positive")
                if not 0 <= drb.loss_p < 1:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: loss_p must be in [0, 1)")
                if drb.delivery_delay_secs < 0 or drb.arq_delay_secs < 0:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: delays must be >= 0")
                for flow in drb.flows:
                    loc = f"flow {flow.name!r} (ue {ue.ue_id}, drb {drb.drb_id})"
                    if flow.name in seen_names:
                        raise ConfigError(f"duplicate flow name {flow.name!r}")
                    seen_names.add(flow.name)
                    if flow.kind not in SENDER_KINDS:
                        raise ConfigError(f"{loc}: unknown kind {flow.kind!r}")
                    if flow.feedback not in FEEDBACK_KINDS:
                        raise ConfigError(f"{loc}: unknown feedback {flow.feedback!r}")
                    if flow.kind == "udp" and flow.feedback != "none":
                        raise ConfigError(f"{loc}: udp flows use feedback 'none'")
                    stop = flow.stop if flow.stop is not None else self.horizon_secs
                    if not flow.start < stop <= self.horizon_secs:
                        raise ConfigError(f"{loc}: need start < stop <= horizon")
                    if flow.size_bytes is not None and flow.size_bytes <= 0:
                        raise ConfigError(f"{loc}: size_bytes must be positive")

    def drb_config(self, ue: UeSpec, drb: DrbSpec) -> DrbConfig:
        return DrbConfig(
            ue_id=ue.ue_id,
            drb_id=drb.drb_id,
            rlc_mode=RlcMode.AM if drb.rlc_mode == "am" else RlcMode.UM,
            max_queue_sdus=drb.max_queue_sdus,
            mss_bytes=drb.mss_bytes,
        )


# -- (de)serialization -------------------------------------------------------


def _as_float(value: Any, where: str) -> float:
    """A float field's value: ints, floats and numeric strings (YAML reads
    ``40e6`` as a string) become floats; anything else is rejected."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if isinstance(value, bool) or not math.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _from_dict(cls, data: Any, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    nested = {"ues": UeSpec, "drbs": DrbSpec, "flows": FlowSpec}
    for key, value in data.items():
        f = fields[key]
        if key in ("channel",):
            kwargs[key] = _from_dict(ChannelSpec, value, f"{where}.{key}")
        elif key == "aqm":
            kwargs[key] = _from_dict(AqmSpec, value, f"{where}.{key}")
        elif key == "delays":
            kwargs[key] = _from_dict(PathDelays, value, f"{where}.{key}")
        elif key in nested:
            if not isinstance(value, list):
                raise ConfigError(f"{where}.{key}: expected a list")
            kwargs[key] = [
                _from_dict(nested[key], item, f"{where}.{key}[{i}]") for i, item in enumerate(value)
            ]
        # annotations are strings under postponed evaluation
        elif f.type == "float" or (f.type == "Optional[float]" and value is not None):
            kwargs[key] = _as_float(value, f"{where}.{key}")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def scenario_from_dict(data: dict) -> Scenario:
    scn = _from_dict(Scenario, data, "scenario")
    scn.validate()
    return scn


def scenario_to_dict(scn: Scenario) -> dict:
    return dataclasses.asdict(scn)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file (YAML or JSON), fill defaults, validate."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    text = p.read_text()
    if p.suffix in (".yaml", ".yml"):
        import yaml

        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
    return scenario_from_dict(data)


def save_scenario(scn: Scenario, path: str | Path) -> None:
    p = Path(path)
    data = scenario_to_dict(scn)
    if p.suffix in (".yaml", ".yml"):
        import yaml

        p.write_text(yaml.safe_dump(data, sort_keys=False))
    else:
        p.write_text(json.dumps(data, indent=2, sort_keys=True))


# -- bundled scenarios --------------------------------------------------------


def _one_ue(
    name: str,
    flows: list[FlowSpec],
    channel: ChannelSpec,
    horizon: float = 30.0,
    aqm: Optional[AqmSpec] = None,
    **kw,
) -> Scenario:
    return Scenario(
        name=name,
        horizon_secs=horizon,
        ues=[UeSpec(ue_id=1, channel=channel, drbs=[DrbSpec(flows=flows)])],
        aqm=aqm if aqm is not None else AqmSpec(),
        **kw,
    )


def static_1ue() -> Scenario:
    return _one_ue(
        "static-1ue",
        [FlowSpec(name="prague-1", kind="prague")],
        ChannelSpec(kind="static", capacity_bps=DEFAULT_CAPACITY_BPS),
    )


def mobile_1ue() -> Scenario:
    return _one_ue(
        "mobile-1ue",
        [FlowSpec(name="prague-1", kind="prague")],
        ChannelSpec(kind="fading", mean_bps=30e6, amplitude_bps=10e6, period_secs=5.0),
    )


def _many_ue(
    name: str, n: int, channel_kind: str, horizon: float = 30.0, stagger: float = 0.0, **kw
) -> Scenario:
    ues = []
    for i in range(1, n + 1):
        if channel_kind == "static":
            ch = ChannelSpec(kind="static", capacity_bps=DEFAULT_CAPACITY_BPS)
        else:
            ch = ChannelSpec(
                kind="fading", mean_bps=30e6, amplitude_bps=10e6, period_secs=5.0,
                phase=i / n, fade_seed=i,
            )
        ues.append(
            UeSpec(ue_id=i, channel=ch,
                   drbs=[DrbSpec(flows=[FlowSpec(name=f"prague-{i}", kind="prague",
                                                 start=(i - 1) * stagger)])])
        )
    return Scenario(name=name, horizon_secs=horizon, ues=ues, **kw)


def static_16ue() -> Scenario:
    return _many_ue("static-16ue", 16, "static")


def mobile_16ue() -> Scenario:
    return _many_ue("mobile-16ue", 16, "sinusoid")


def static_64ue() -> Scenario:
    return _many_ue("static-64ue", 64, "static")


def shared_drb() -> Scenario:
    # modest client socket buffers: on a shared bearer at equal RTT they are
    # what keeps the window race between the two flow classes bounded
    return _one_ue(
        "shared-drb",
        [
            FlowSpec(name="prague-1", kind="prague", feedback="accecn", rwnd_bytes=400_000),
            FlowSpec(name="cubic-1", kind="cubic", feedback="classic", rwnd_bytes=400_000),
        ],
        ChannelSpec(kind="static", capacity_bps=DEFAULT_CAPACITY_BPS),
        horizon=40.0,
    )


def slf_llf() -> Scenario:
    return _one_ue(
        "slf-llf",
        [
            FlowSpec(name="llf", kind="prague"),
            FlowSpec(name="slf", kind="prague", start=15.0, size_bytes=14000),
        ],
        ChannelSpec(kind="static", capacity_bps=DEFAULT_CAPACITY_BPS),
        horizon=40.0,
    )


def ablation_no_shortcircuit() -> Scenario:
    # nearby server: the RAN-internal feedback lag (queue sojourn + the 8 ms
    # delivery delay + the uplink leg) then dominates the control loop, which
    # is exactly what the ACK rewrite skips; 16 UEs with staggered starts
    # supply scheduling load and ramp-up episodes throughout the run
    scn = _many_ue("ablation-no-shortcircuit", 16, "fading", stagger=1.0)
    scn.delays = PathDelays(dl_prop_secs=0.002, ul_prop_secs=0.002)
    scn.aqm = AqmSpec(short_circuit=False)
    return scn


def baseline_dualpi2_1ms() -> Scenario:
    scn = mobile_1ue()
    scn.name = "baseline-dualpi2-1ms"
    scn.aqm = AqmSpec(kind="dualpi2step", tau_thr=0.001)
    return scn


def baseline_dualpi2_10ms() -> Scenario:
    scn = mobile_1ue()
    scn.name = "baseline-dualpi2-10ms"
    scn.aqm = AqmSpec(kind="dualpi2step", tau_thr=0.010)
    return scn


BUILTIN_SCENARIOS = {
    "static-1ue": static_1ue,
    "mobile-1ue": mobile_1ue,
    "static-16ue": static_16ue,
    "mobile-16ue": mobile_16ue,
    "static-64ue": static_64ue,
    "shared-drb": shared_drb,
    "slf-llf": slf_llf,
    "ablation-no-shortcircuit": ablation_no_shortcircuit,
    "baseline-dualpi2-1ms": baseline_dualpi2_1ms,
    "baseline-dualpi2-10ms": baseline_dualpi2_10ms,
}


def resolve_scenario(ref: str) -> Scenario:
    """A path to a scenario file, or the name of a bundled scenario."""
    if ref in BUILTIN_SCENARIOS:
        scn = BUILTIN_SCENARIOS[ref]()
        scn.validate()
        return scn
    if Path(ref).exists():
        return load_scenario(ref)
    raise ConfigError(f"no such scenario file or builtin: {ref!r}")
