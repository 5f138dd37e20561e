"""The RAN simulator: channel traces, RLC queues, the slot scheduler, the
per-bearer marking layer and the event loop that runs them (``sim``)."""
