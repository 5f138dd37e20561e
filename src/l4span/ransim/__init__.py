from .channel import ChannelTrace
from .events import EventKind, EventLoop, SimEvent
from .layer import DrbLayer
from .rlc import EnqueueResult, RlcQueue
from .scheduler import SchedulerPolicy, UeContext, scheduler_slot
from .sim import SimResult, Simulator, run

__all__ = [
    "ChannelTrace", "DrbLayer", "EnqueueResult", "EventKind", "EventLoop",
    "RlcQueue", "SchedulerPolicy", "SimEvent", "SimResult", "Simulator",
    "UeContext", "run", "scheduler_slot",
]
