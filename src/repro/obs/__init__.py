"""Unified observability for the IFP pipeline: ``repro.obs``.

Four layers, each usable alone:

==============  ======================================================
module          role
==============  ======================================================
`events`        typed event definitions + the zero-cost-when-disabled
                event bus every instrumented site emits into
`profile`       hot-site profiler keyed by ``(function, instr_index)``
                with per-scheme breakdowns and a top-N text report
`forensics`     trap diagnosis: tag anatomy, tripping bounds, trace
                tail, recent events — rendered self-contained
`metrics`       stable JSON schema (+ Prometheus text format) for
                ``RunStats``/profiler export and ``BENCH_*.json``
==============  ======================================================

Typical use::

    from repro.obs import attach_observer
    machine = Machine(program)
    obs = attach_observer(machine, profile=True, forensics=True)
    result = machine.run()
    print(obs.profiler.report(top=10))
    if result.trap is not None:
        print(obs.last_report.render())

``python -m repro.obs report`` runs a workload with profiling and prints
the hot-site report; ``python -m repro.obs validate`` checks metrics
JSON against the schema.
"""

from repro.obs.events import (
    AllocEvent, BoundsSpillEvent, CheckEvent, DegradeEvent, Event,
    EventBus, FaultEvent, MacVerifyEvent, MetadataFetchEvent, NarrowEvent,
    PromoteEvent, SchemeAssignEvent, TraceContext, TrapEvent,
)
from repro.obs.forensics import ForensicsReport, capture_forensics
from repro.obs.metrics import (
    SCHEMA_V2, load_metrics, metrics_document, stats_to_dict,
    to_prometheus, validate_document, write_bench, write_metrics,
)
from repro.obs.observer import Observer, attach_observer
from repro.obs.profile import HotSiteProfiler, SiteStats

__all__ = [
    "AllocEvent", "BoundsSpillEvent", "CheckEvent", "DegradeEvent",
    "Event", "EventBus", "FaultEvent",
    "ForensicsReport", "HotSiteProfiler", "MacVerifyEvent",
    "MetadataFetchEvent", "NarrowEvent", "Observer", "PromoteEvent",
    "SCHEMA_V2", "SchemeAssignEvent", "SiteStats",
    "TraceContext", "TrapEvent",
    "attach_observer", "capture_forensics", "load_metrics",
    "metrics_document", "stats_to_dict", "to_prometheus",
    "validate_document", "write_bench", "write_metrics",
]
