"""Resilience engineering for the IFP pipeline: ``repro.resil``.

Four layers, each usable alone:

==============  ======================================================
module          role
==============  ======================================================
`policy`        :class:`DegradationPolicy` — per-resource exhaustion
                behaviour (degrade to legacy pointers vs. trap),
                installed on ``MachineConfig``
`faults`        deterministic, seeded fault injector: declarative
                :class:`FaultPlan` applied to a machine via hooks in
                the IFP unit, the metadata port, and the allocators
`retry`         deterministic-reseed retry with exponential backoff
                for transient failures (``WorkloadTimeout``)
`matrix`        the resilience campaign: run workloads under each
                fault class and classify the outcome into a
                fault class × scheme resilience matrix
==============  ======================================================

``python -m repro.resil`` runs a campaign and writes the matrix as a
``repro.obs.metrics/v2`` document.

Import discipline: this package root must stay importable from
``repro.vm.machine`` (which carries the policy), so it only pulls in
the leaf modules — ``matrix`` (which imports the eval harness, hence
the vm) is imported lazily by the CLI.
"""

from repro.resil.faults import (
    FAULT_CLASSES, FaultInjector, FaultPlan, FaultSpec,
)
from repro.resil.policy import (
    DEFAULT_POLICY, DEGRADE, STRICT, STRICT_POLICY, DegradationPolicy,
)
from repro.resil.retry import call_with_retry, derive_seed

__all__ = [
    "DEFAULT_POLICY", "DEGRADE", "FAULT_CLASSES", "FaultInjector",
    "FaultPlan", "FaultSpec", "STRICT", "STRICT_POLICY",
    "DegradationPolicy", "call_with_retry", "derive_seed",
]
