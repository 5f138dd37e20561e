from .metrics import MetricsCollector, PacketRecord, write_run
from .scenario import (
    BUILTIN_SCENARIOS,
    AqmSpec,
    ChannelSpec,
    ConfigError,
    DrbSpec,
    FlowSpec,
    PathDelays,
    Scenario,
    UeSpec,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "AqmSpec", "BUILTIN_SCENARIOS", "ChannelSpec", "ConfigError", "DrbSpec",
    "FlowSpec", "MetricsCollector", "PacketRecord", "PathDelays", "Scenario",
    "UeSpec", "load_scenario", "resolve_scenario", "save_scenario",
    "scenario_from_dict", "scenario_to_dict", "write_run",
]
