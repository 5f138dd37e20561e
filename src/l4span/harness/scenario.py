"""Declarative experiment description: UEs, bearers, flows, channel, AQM.

Scenario files are YAML or JSON mirroring the dataclasses below, read by
one loader with one rule per field type (``_load``).  Each numeric or
fixed-choice field declares its domain at the field (``Domain``), and
``Scenario.validate`` checks every domain, then the rules that tie fields
together.  Unknown keys, values of the wrong type, out-of-range values and
dangling references are configuration errors naming the offending field by
its ``--param`` path.  A scenario derived from another (a sweep point, an
acceptance variant, a derived bundled scenario) is its base plus
dotted-path overrides through the same loader (``override``).  A registry
of bundled scenarios covers the standard experiments.
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


class ConfigError(Exception):
    """Scenario inconsistency, raised before any event runs."""


@dataclass(frozen=True)
class Domain:
    """What a field may hold, declared at the field (``_within``) and checked
    by ``Scenario.validate``.  A number is finite, above ``gt`` or from ``ge``
    on, below ``lt`` or up to ``le``, and an ``int`` (not a float or a bool)
    where ``integer`` is set; ``optional`` admits ``None``.  Text is one of
    ``choices``.  ``kinds`` names the channel kinds that read a
    ``ChannelSpec`` field; under any other kind it goes unchecked."""

    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None
    le: Optional[float] = None
    integer: bool = False
    optional: bool = False
    choices: tuple = ()
    kinds: tuple = ()

    def bounds(self) -> list[tuple[str, float]]:
        return [(op, bound) for op, bound in ((">", self.gt), (">=", self.ge), ("<", self.lt),
                                              ("<=", self.le)) if bound is not None]

    def describe(self) -> str:
        if self.choices:
            return "one of " + ", ".join(map(repr, self.choices))
        what = "an integer" if self.integer else "a finite number"
        return ", ".join([what] + [f"{op} {bound:g}" for op, bound in self.bounds()])

    def source(self) -> str:
        """Python source that is true when ``v`` lies in the domain; a ``v``
        that is no number makes it raise ``TypeError``."""
        if self.choices:
            return f"v in {set(self.choices)!r}"
        # float constants: a float compares faster with a float than with an int
        terms = [f"v {op} {float(bound)!r}" for op, bound in self.bounds()]
        if self.gt is None and self.ge is None:
            terms.insert(0, "v > -inf")
        if self.lt is None and self.le is None:
            terms.append("v < inf")
        test = " and ".join(["type(v) is int"] * self.integer + terms)
        return f"(v is None or {test})" if self.optional else test


def _within(default: Any = dataclasses.MISSING, **domain) -> Any:
    """A field whose value must lie in ``Domain(**domain)``."""
    return field(default=default, metadata={"domain": Domain(**domain)})


@dataclass
class FlowSpec:
    name: str
    kind: str = _within("prague", choices=tuple(SENDERS))
    start: float = _within(0.0, ge=0)
    stop: Optional[float] = _within(None, optional=True)  # None: run to horizon
    size_bytes: Optional[int] = _within(None, gt=0, integer=True, optional=True)  # None: unbounded
    feedback: str = "accecn"              # one the kind reads, see senders.SENDERS
    udp_rate_bps: float = _within(8e6, gt=0)  # udp sender pace, bits/s
    # server turnaround between handshake completion and the first data
    # packet; the middlebox's handshake RTT measurement absorbs it, which
    # is the overestimate that lets classic flows keep a standing buffer
    think_secs: float = _within(0.02, ge=0)
    # receive-window cap on outstanding payload bytes (autotuned socket
    # buffers bound real flows the same way)
    rwnd_bytes: int = _within(4_000_000, integer=True)


@dataclass
class DrbSpec:
    drb_id: int = _within(1, integer=True)
    rlc_mode: str = _within("am", choices=tuple(m.value for m in RlcMode))
    max_queue_sdus: int = _within(DEFAULT_QUEUE_SDUS, gt=0, integer=True)
    mss_bytes: int = _within(DEFAULT_MSS, gt=TCP_HEADER_BYTES, integer=True)  # room for a payload
    delivery_delay_secs: float = _within(DEFAULT_DELIVERY_DELAY, ge=0)
    arq_delay_secs: float = _within(DEFAULT_ARQ_DELAY, ge=0)
    loss_p: float = _within(0.0, ge=0, lt=1)
    flows: list[FlowSpec] = field(default_factory=list)


@dataclass
class ChannelSpec:
    kind: str = _within("static", choices=("static", "step", "sinusoid", "fading", "file"))
    capacity_bps: float = _within(DEFAULT_CAPACITY_BPS, ge=0, kinds=("static",))
    low_bps: float = _within(20e6, ge=0, kinds=("step",))
    high_bps: float = _within(40e6, ge=0, kinds=("step",))
    mean_bps: float = _within(30e6, kinds=("sinusoid", "fading"))
    amplitude_bps: float = _within(10e6, kinds=("sinusoid", "fading"))
    period_secs: float = _within(5.0, gt=0, kinds=("step", "sinusoid", "fading"))
    phase: float = _within(0.0, kinds=("sinusoid", "fading"))
    fade_floor: float = _within(0.5, gt=0, le=1, kinds=("fading",))  # shadowing depth
    fade_secs: float = _within(0.1, gt=0, kinds=("fading",))  # shadowing hold
    fast_floor: float = _within(0.75, gt=0, le=1, kinds=("fading",))  # sub-window jitter depth
    fast_secs: float = _within(0.01, gt=0, kinds=("fading",))  # jitter hold
    fade_seed: int = _within(1, integer=True, kinds=("fading",))  # fixed per UE, not the run seed
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
    ue_id: int = _within(integer=True)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    drbs: list[DrbSpec] = field(default_factory=lambda: [DrbSpec()])


@dataclass
class AqmSpec:
    kind: str = _within("l4span", choices=("l4span", "dualpi2step", "none"))
    tau_thr: float = _within(DEFAULT_TAU_THR, gt=0)  # sojourn threshold (dualpi2step: step's)
    beta: float = _within(0.5, gt=0, lt=1)
    short_circuit: bool = True
    drop_fallback: bool = False
    shared_policy: str = _within("coupled", choices=tuple(SHARED_POLICIES))
    force_zero_error: bool = False


@dataclass
class PathDelays:
    dl_prop_secs: float = _within(0.014, ge=0)   # server -> CU
    ul_prop_secs: float = _within(0.014, ge=0)   # CU -> server
    ran_ul_secs: float = _within(0.002, ge=0)    # UE -> CU (uncongested uplink leg)


@dataclass
class Scenario:
    name: str = "scenario"
    horizon_secs: float = _within(30.0, gt=0)
    seed: int = _within(1, integer=True)
    ues: list[UeSpec] = field(default_factory=list)
    scheduler: str = _within("round_robin", choices=tuple(p.value for p in SchedulerPolicy))
    # slots close the metric intervals, so one slot may not span two
    slot_secs: float = _within(DEFAULT_SLOT_SECS, gt=0, le=INTERVAL_SECS)
    coherence_secs: float = _within(DEFAULT_COHERENCE_SECS)  # at least two slots: see validate()
    aqm: AqmSpec = field(default_factory=AqmSpec)
    delays: PathDelays = field(default_factory=PathDelays)
    warmup_secs: float = _within(5.0, ge=0)  # excluded from steady-state statistics

    @property
    def window_secs(self) -> float:
        return self.coherence_secs / 2.0

    def validate(self) -> None:
        """Check every declared field against its domain (``_walk``), then
        the rules that tie fields together, which thus see only finite values.
        Each channel is checked as its trace would be over a zero horizon
        (``ChannelSpec.check``), so no full trace is built (``Simulator``
        builds them)."""
        _walk([self], _plan(Scenario), indexed=False)
        if self.window_secs < self.slot_secs:
            # the estimation window is half of coherence_secs; one shorter than a slot
            # divides a slot's transmits by less than the time they took: it means nothing
            raise ConfigError("coherence_secs must be at least 2 * slot_secs")
        if self.warmup_secs >= self.horizon_secs:
            raise ConfigError("warmup_secs must be shorter than horizon_secs")
        if not self.ues:
            raise ConfigError("ues: a scenario needs at least one UE")
        seen_ue = set()
        seen_names = set()
        for i, ue in enumerate(self.ues):
            if ue.ue_id in seen_ue:
                raise ConfigError(f"ues.{i}.ue_id: duplicate ue_id {ue.ue_id}")
            seen_ue.add(ue.ue_id)
            ch = ue.channel
            # a trace holds a breakpoint per hold: a hold shorter than a slot
            # changes nothing a slot reads, and grows the build without bound
            if ch.kind == "step" and ch.period_secs / 2 < self.slot_secs:
                raise ConfigError(f"ues.{i}.channel.period_secs / 2 must be at least slot_secs")
            if ch.kind == "fading" and ch.fast_secs < self.slot_secs:
                raise ConfigError(f"ues.{i}.channel.fast_secs must be at least slot_secs")
            # the generator's own count, one breakpoint per hold over the horizon
            hold = {"step": ch.period_secs / 2, "sinusoid": SINUSOID_SAMPLE_SECS,
                    "fading": ch.fast_secs}.get(ch.kind)
            if hold is not None and self.horizon_secs / hold + 2 > MAX_TRACE_BREAKPOINTS:
                raise ConfigError(f"ues.{i}.channel: horizon_secs {self.horizon_secs:g} needs "
                                  f"about {self.horizon_secs / hold:.3g} {ch.kind} breakpoints, "
                                  f"more than the {MAX_TRACE_BREAKPOINTS:,} a trace may hold")
            # the shadowing hold is a whole number of jitter holds; any other
            # fade_secs would be rounded to one and run as a different hold
            if ch.kind == "fading":
                holds = ch.fade_secs / ch.fast_secs
                if not 1 <= holds < math.inf or abs(holds - round(holds)) > 1e-9 * holds:
                    raise ConfigError(f"ues.{i}.channel.fade_secs must be a multiple of fast_secs")
            try:
                ch.check()
            except (ConfigError, ValueError, OSError) as exc:
                raise ConfigError(f"ues.{i}.channel: {exc}") from None
            if not ue.drbs:
                raise ConfigError(f"ues.{i}.drbs: a UE needs at least one DRB")
            seen_drb = set()
            for j, drb in enumerate(ue.drbs):
                if drb.drb_id in seen_drb:
                    raise ConfigError(f"ues.{i}.drbs.{j}.drb_id: duplicate drb_id {drb.drb_id}")
                seen_drb.add(drb.drb_id)
                payload = drb.mss_bytes - TCP_HEADER_BYTES
                for k, flow in enumerate(drb.flows):
                    if flow.name in seen_names:
                        raise ConfigError(
                            f"ues.{i}.drbs.{j}.flows.{k}.name: duplicate {flow.name!r}")
                    seen_names.add(flow.name)
                    reads = SENDERS[flow.kind].data_ecn
                    if flow.feedback not in reads:
                        raise ConfigError(f"ues.{i}.drbs.{j}.flows.{k}.feedback: flow "
                                          f"{flow.name!r} of kind {flow.kind!r} reads "
                                          f"{' or '.join(map(repr, reads))}, not {flow.feedback!r}")
                    stop = flow.stop if flow.stop is not None else self.horizon_secs
                    if not flow.start < stop <= self.horizon_secs:
                        raise ConfigError(f"ues.{i}.drbs.{j}.flows.{k}: flow {flow.name!r} needs "
                                          "0 <= start < stop <= horizon")
                    if flow.rwnd_bytes < payload:
                        raise ConfigError(f"ues.{i}.drbs.{j}.flows.{k}.rwnd_bytes must hold one "
                                          f"payload (mss_bytes - {TCP_HEADER_BYTES})")


@functools.cache
def _plan(cls) -> tuple:
    """``_walk``'s plan for a ``cls`` spec: a function that returns the name
    of its first declared field outside its domain, or None, and ``(name,
    plan, is a list)`` for each nested spec.  The function is compiled from
    the domains, as ``dataclasses`` compiles ``__init__``: a loop over them
    made ``validate`` twice as slow as the hand-written checks it replaced."""
    lines, nested = [], []
    for name, tp in _field_types(cls).items():
        domain = cls.__dataclass_fields__[name].metadata.get("domain")
        if domain is not None:
            guard = f"s.kind in {set(domain.kinds)!r} and " if domain.kinds else ""
            lines += [f"name, v = {name!r}, s.{name}", f"if {guard}not ({domain.source()}):",
                      "    return name"]
        elif dataclasses.is_dataclass(tp) or typing.get_origin(tp) is list:
            many = typing.get_origin(tp) is list
            nested.append((name, _plan(typing.get_args(tp)[0] if many else tp), many))
    scope = {"inf": math.inf}
    body = "".join(f"\n        {line}" for line in lines)
    exec(f"def check(s):\n    try:{body}\n    except TypeError:  # no number\n"
         "        return name", scope)
    return scope["check"], tuple(nested)


def _walk(specs: list, plan: tuple, indexed: bool) -> None:
    """Raise ``ConfigError`` for the first field, of a spec in ``specs`` or
    of one nested in it, outside its declared domain, naming its ``--param``
    path (led by the spec's index where ``indexed``); ``plan`` is ``_plan``
    of the specs' class.  No string is built unless a value is refused."""
    check, nested = plan
    for i, spec in enumerate(specs):
        name = check(spec)
        if name is not None:
            domain = spec.__dataclass_fields__[name].metadata["domain"]
            where = f"{i}.{name}" if indexed else name
            raise ConfigError(f"{where} must be {domain.describe()}, got {getattr(spec, name)!r}")
        for name, inner, many in nested:
            value = getattr(spec, name)
            try:
                _walk(value if many else [value], inner, many)
            except ConfigError as exc:
                raise ConfigError(f"{i}.{name}.{exc}" if indexed else f"{name}.{exc}") from None


# -- (de)serialization -------------------------------------------------------


_EXPECTED = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _load(tp, value: Any, where: str):
    """A field's value under the one rule for its annotation ``tp``: a
    dataclass takes a mapping and ``list[Spec]`` a list of mappings, loaded
    recursively; ``float`` a number or numeric string (YAML reads
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
        return [_from_dict(item, v, f"{where}.{i}") for i, v in enumerate(value)]
    if tp is float and not isinstance(value, bool):
        try:
            return float(value)  # whether it is in the field's domain is validate's to say
        except (TypeError, ValueError, OverflowError):
            pass
    if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {value!r}")


def _from_dict(cls, data: Any, where: str):
    """``cls`` from the mapping at ``where``, the ``--param`` path of the
    mapping (empty for the scenario itself)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'scenario'}: expected a mapping, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{where or 'scenario'}: unknown key(s) {sorted(unknown, key=str)}")
    kwargs = {key: _load(types[key], value, f"{where}.{key}" if where else key)
              for key, value in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where or 'scenario'}: {exc}") from None


def scenario_from_dict(data: dict) -> Scenario:
    scn = _from_dict(Scenario, data, "")
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
    scn = _from_dict(Scenario, data, "")
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
