"""Declarative experiment description: UEs, bearers, flows, channel, AQM.

Scenario files are YAML or JSON mirroring the dataclasses below, read by
one loader with one rule per field type (``_load``).  Unknown keys, values
of the wrong type, out-of-range values and dangling references are
configuration errors naming the offending field.  A scenario derived from
another (a sweep point, an acceptance variant, a derived bundled scenario)
is its base plus dotted-path overrides through the same loader
(``override``).  A registry of bundled scenarios covers the standard
experiments.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..core import TCP_HEADER_BYTES, RlcMode
from ..marking import SHARED_POLICIES
from ..profile import DEFAULT_COHERENCE_SECS
from ..ransim.channel import SINUSOID_SAMPLE_SECS, ChannelTrace
from ..ransim.scheduler import SchedulerPolicy
from ..senders import SENDERS
from .metrics import INTERVAL_SECS

DEFAULT_CAPACITY_BPS = 40e6          # 40 Mbit/s cell
DEFAULT_SLOT_SECS = 0.0005           # 30 kHz-SCS slot
DEFAULT_TAU_THR = 0.010
DEFAULT_MSS = 1500
DEFAULT_QUEUE_SDUS = 16384
DEFAULT_DELIVERY_DELAY = 0.008
DEFAULT_ARQ_DELAY = 0.020
# the most breakpoints one UE's channel trace may hold: 10,000 s of a fading
# channel's 10 ms jitter holds, about 144 MB at the build's peak and 25 MB kept
MAX_TRACE_BREAKPOINTS = 1_000_000

AQM_KINDS = ("l4span", "dualpi2step", "none")


class ConfigError(Exception):
    """Scenario inconsistency, raised before any event runs."""


@dataclass
class FlowSpec:
    name: str
    kind: str = "prague"
    start: float = 0.0
    stop: Optional[float] = None          # None: run to horizon
    size_bytes: Optional[int] = None      # short-lived flow size; None: unbounded
    feedback: str = "accecn"              # one the kind reads, see senders.SENDERS
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
    rlc_mode: str = "am"                  # an RlcMode value
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

    def check(self) -> None:
        """Raise what ``build`` raises for these parameters over a zero
        horizon.  A ``sinusoid`` or ``fading`` channel is checked by its
        generator's parameter check, which builds and draws nothing; any
        other kind is built over a zero horizon (a ``file`` is read whole)."""
        if self.kind == "sinusoid":
            ChannelTrace.check_sinusoid(self.mean_bps / 8.0, self.amplitude_bps / 8.0,
                                        self.period_secs, phase=self.phase)
        elif self.kind == "fading":
            ChannelTrace.check_fading(self.mean_bps / 8.0, self.amplitude_bps / 8.0,
                                      self.period_secs, fade_floor=self.fade_floor,
                                      fade_secs=self.fade_secs, fast_floor=self.fast_floor,
                                      fast_secs=self.fast_secs, phase=self.phase)
        else:
            self.build(0.0)

    def build(self, horizon: float):
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
    scheduler: str = "round_robin"        # a SchedulerPolicy value
    slot_secs: float = DEFAULT_SLOT_SECS
    coherence_secs: float = DEFAULT_COHERENCE_SECS
    aqm: AqmSpec = field(default_factory=AqmSpec)
    delays: PathDelays = field(default_factory=PathDelays)
    warmup_secs: float = 5.0              # excluded from steady-state statistics

    @property
    def window_secs(self) -> float:
        return self.coherence_secs / 2.0

    def validate(self) -> None:
        """Check every field; each channel is checked as its trace would be
        over a zero horizon (``ChannelSpec.check``), so no full trace is built
        (``Simulator`` builds them).  Each bound is written ``not x >= 0`` or
        ``not x > 0``, so that a NaN fails it too."""
        if not self.horizon_secs > 0:
            raise ConfigError("horizon_secs must be positive")
        if not self.slot_secs > 0:
            raise ConfigError("slot_secs must be positive")
        if self.slot_secs > INTERVAL_SECS:
            # slots close the metric intervals, so one slot may not span two
            raise ConfigError(f"slot_secs must not exceed the {INTERVAL_SECS} s metric interval")
        if not self.window_secs >= self.slot_secs:
            # a window shorter than a slot divides a slot's transmits by less than
            # the time they took: the estimate means nothing
            raise ConfigError("coherence_secs must be at least 2 * slot_secs "
                              "(the estimation window is half of it)")
        if not 0 <= self.warmup_secs < self.horizon_secs:
            raise ConfigError("warmup_secs must be >= 0 and shorter than horizon_secs")
        if self.scheduler not in {p.value for p in SchedulerPolicy}:
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.aqm.kind not in AQM_KINDS:
            raise ConfigError(f"unknown aqm.kind {self.aqm.kind!r}")
        if self.aqm.shared_policy not in SHARED_POLICIES:
            raise ConfigError(f"unknown aqm.shared_policy {self.aqm.shared_policy!r}")
        if not 0 < self.aqm.beta < 1:
            raise ConfigError("aqm.beta must be in (0, 1)")
        if not self.aqm.tau_thr > 0:
            raise ConfigError("aqm.tau_thr must be positive")
        for leg, secs in vars(self.delays).items():
            if not secs >= 0:
                raise ConfigError(f"delays.{leg} must be >= 0")
        if not self.ues:
            raise ConfigError("scenario needs at least one UE")
        seen_ue = set()
        seen_names = set()
        for i, ue in enumerate(self.ues):
            if ue.ue_id in seen_ue:
                raise ConfigError(f"duplicate ue_id {ue.ue_id}")
            seen_ue.add(ue.ue_id)
            ch, where = ue.channel, f"ues[{i}].channel"
            # a trace holds a breakpoint per hold: a hold shorter than a slot
            # changes nothing a slot reads, and grows the build without bound
            if ch.kind == "step" and not ch.period_secs / 2 >= self.slot_secs:
                raise ConfigError(f"{where}.period_secs: the half-period must be at least slot_secs")
            if ch.kind == "fading" and not ch.fast_secs >= self.slot_secs:
                raise ConfigError(f"{where}.fast_secs must be at least slot_secs")
            if ch.kind == "fading" and not ch.period_secs > 0:
                raise ConfigError(f"{where}.period_secs must be positive")
            # the shadowing hold is a whole number of jitter holds; any other
            # fade_secs would be rounded to one and run as a different hold
            if ch.kind == "fading":
                holds = ch.fade_secs / ch.fast_secs
                if not holds >= 1 or abs(holds - round(holds)) > 1e-9 * holds:
                    raise ConfigError(f"{where}.fade_secs must be a whole multiple of fast_secs")
            # the generator's own count, one breakpoint per hold over the horizon
            hold = {"step": ch.period_secs / 2, "sinusoid": SINUSOID_SAMPLE_SECS,
                    "fading": ch.fast_secs}.get(ch.kind)
            if hold is not None and self.horizon_secs / hold + 2 > MAX_TRACE_BREAKPOINTS:
                raise ConfigError(f"{where}: horizon_secs {self.horizon_secs:g} needs about "
                                  f"{self.horizon_secs / hold:.3g} {ch.kind} breakpoints, more "
                                  f"than the {MAX_TRACE_BREAKPOINTS:,} a trace may hold")
            try:
                ch.check()
            except (ConfigError, ValueError, OSError) as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if not ue.drbs:
                raise ConfigError(f"ue {ue.ue_id} has no DRBs")
            seen_drb = set()
            for drb in ue.drbs:
                if drb.drb_id in seen_drb:
                    raise ConfigError(f"duplicate drb_id {drb.drb_id} in ue {ue.ue_id}")
                seen_drb.add(drb.drb_id)
                if drb.rlc_mode not in {m.value for m in RlcMode}:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: unknown rlc_mode {drb.rlc_mode!r}")
                if not drb.max_queue_sdus > 0:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: max_queue_sdus must be positive")
                if not drb.mss_bytes > TCP_HEADER_BYTES:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: mss_bytes must exceed "
                                      f"the {TCP_HEADER_BYTES}-byte header")
                if not 0 <= drb.loss_p < 1:
                    raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: loss_p must be in [0, 1)")
                for delay in ("delivery_delay_secs", "arq_delay_secs"):
                    if not getattr(drb, delay) >= 0:
                        raise ConfigError(f"ue {ue.ue_id} drb {drb.drb_id}: delays must be >= 0 "
                                          f"({delay})")
                for flow in drb.flows:
                    loc = f"flow {flow.name!r} (ue {ue.ue_id}, drb {drb.drb_id})"
                    if flow.name in seen_names:
                        raise ConfigError(f"duplicate flow name {flow.name!r}")
                    seen_names.add(flow.name)
                    if flow.kind not in SENDERS:
                        raise ConfigError(f"{loc}: unknown kind {flow.kind!r}")
                    reads = SENDERS[flow.kind].data_ecn
                    if flow.feedback not in reads:
                        raise ConfigError(f"{loc}: kind {flow.kind!r} reads feedback "
                                          f"{' or '.join(map(repr, reads))}, not {flow.feedback!r}")
                    stop = flow.stop if flow.stop is not None else self.horizon_secs
                    if not 0 <= flow.start < stop <= self.horizon_secs:
                        raise ConfigError(f"{loc}: need 0 <= start < stop <= horizon")
                    if flow.size_bytes is not None and not flow.size_bytes > 0:
                        raise ConfigError(f"{loc}: size_bytes must be positive")
                    if not flow.udp_rate_bps > 0:
                        raise ConfigError(f"{loc}: udp_rate_bps must be positive")
                    if not flow.think_secs >= 0:
                        raise ConfigError(f"{loc}: think_secs must be >= 0")
                    if not flow.rwnd_bytes >= drb.mss_bytes - TCP_HEADER_BYTES:
                        raise ConfigError(f"{loc}: rwnd_bytes must hold one payload "
                                          f"(mss_bytes - {TCP_HEADER_BYTES})")


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


_EXPECTED = {int: "an integer", bool: "true or false", str: "a string"}


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _load(tp, value: Any, where: str):
    """A field's value under the one rule for its annotation ``tp``: a
    dataclass takes a mapping and ``list[Spec]`` a list of mappings, loaded
    recursively; ``float`` a finite number or numeric string (YAML reads
    ``40e6`` as text); ``int`` an integer that is not a bool; ``bool`` and
    ``str`` their own type; ``None`` only where the field is ``Optional``."""
    if typing.get_origin(tp) is typing.Union:  # Optional[X]: None or an X
        if value is None:
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _from_dict(tp, value, where)
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        (item,) = typing.get_args(tp)
        return [_from_dict(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    if tp is float:
        return _as_float(value, where)
    if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {value!r}")


def _from_dict(cls, data: Any, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)}")
    kwargs = {key: _load(types[key], value, f"{where}.{key}") for key, value in data.items()}
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


def _slot(node: Any, part: str, path: str):
    """The key or index ``part`` of ``path`` names in ``node``, which must exist."""
    if isinstance(node, list):
        if part.isdigit() and int(part) < len(node):
            return int(part)
        raise ConfigError(f"parameter {path!r}: no index {part!r} ({len(node)} entries)")
    if isinstance(node, dict) and part in node:
        return part
    raise ConfigError(f"unknown parameter {path!r}: no field {part!r}")


def override(scn: Scenario, changes: dict) -> Scenario:
    """A new scenario: ``scn`` with each dotted path of ``changes`` set to
    its value, loaded and validated like a scenario file.  A numeric
    segment indexes a list (``ues.0.drbs.0.flows.0.kind``)."""
    data = scenario_to_dict(scn)
    for path, value in changes.items():
        node, parts = data, path.split(".")
        for part in parts[:-1]:
            node = node[_slot(node, part, path)]
        node[_slot(node, parts[-1], path)] = value
    return scenario_from_dict(data)


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file (YAML or JSON), fill defaults, resolve each
    channel ``path`` against the file's directory, validate."""
    import yaml

    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    try:
        text = p.read_text()
        data = yaml.safe_load(text) if p.suffix in (".yaml", ".yml") else json.loads(text)
    except (OSError, ValueError, yaml.YAMLError) as exc:
        # parser messages span lines; the CLI reports one
        raise ConfigError(f"cannot read scenario file {p}: {' '.join(str(exc).split())}") from None
    scn = _from_dict(Scenario, data, "scenario")
    # a channel file named by a relative path sits beside the scenario file
    # that names it, wherever the command runs
    for ue in scn.ues:
        if ue.channel.path:
            ue.channel.path = str(p.parent.resolve() / ue.channel.path)
    scn.validate()
    return scn


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
    name: str, n: int, fading: bool, horizon: float = 30.0, stagger: float = 0.0, **kw
) -> Scenario:
    ues = []
    for i in range(1, n + 1):
        if fading:
            ch = ChannelSpec(
                kind="fading", mean_bps=30e6, amplitude_bps=10e6, period_secs=5.0,
                phase=i / n, fade_seed=i,
            )
        else:
            ch = ChannelSpec(kind="static", capacity_bps=DEFAULT_CAPACITY_BPS)
        ues.append(
            UeSpec(ue_id=i, channel=ch,
                   drbs=[DrbSpec(flows=[FlowSpec(name=f"prague-{i}", kind="prague",
                                                 start=(i - 1) * stagger)])])
        )
    return Scenario(name=name, horizon_secs=horizon, ues=ues, **kw)


def static_16ue() -> Scenario:
    return _many_ue("static-16ue", 16, fading=False)


def mobile_16ue() -> Scenario:
    return _many_ue("mobile-16ue", 16, fading=True)


def static_64ue() -> Scenario:
    return _many_ue("static-64ue", 64, fading=False)


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
    return override(_many_ue("ablation-no-shortcircuit", 16, fading=True, stagger=1.0), {
        "delays.dl_prop_secs": 0.002, "delays.ul_prop_secs": 0.002, "aqm.short_circuit": False})


def baseline_dualpi2_1ms() -> Scenario:
    return override(mobile_1ue(), {
        "name": "baseline-dualpi2-1ms", "aqm.kind": "dualpi2step", "aqm.tau_thr": 0.001})


def baseline_dualpi2_10ms() -> Scenario:
    return override(mobile_1ue(), {
        "name": "baseline-dualpi2-10ms", "aqm.kind": "dualpi2step", "aqm.tau_thr": 0.010})


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
    """A path to a scenario file, or the name of a bundled scenario; either
    is validated."""
    if ref in BUILTIN_SCENARIOS:
        scn = BUILTIN_SCENARIOS[ref]()
        scn.validate()
        return scn
    if Path(ref).exists():
        return load_scenario(ref)
    raise ConfigError(f"no such scenario file or builtin: {ref!r}")
