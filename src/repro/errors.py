"""Exception hierarchy for the In-Fat Pointer reproduction.

Every failure mode in the simulated system maps to one of these exception
types.  Exceptions that model *architectural* traps (the kind the paper's
hardware would raise and the modified Linux kernel would deliver as a
segmentation fault) derive from :class:`SimTrap`; programming errors in the
host-side tooling (bad mini-C source, compiler misuse) derive from
:class:`ReproError`.
"""

from __future__ import annotations

from typing import Any, Dict

#: values that serialize to JSON unchanged
_JSON_SCALARS = (type(None), bool, int, float, str)


def _json_safe(value: Any) -> Any:
    """Project an attribute value into pure-JSON content.

    Nested :class:`ReproError` instances become tagged ``__error__``
    documents so they survive the round trip as typed errors (the
    ``WorkloadTrapped.trap`` case); tuples become lists (JSON has no
    tuple); anything else non-JSON is reduced to a tagged ``repr``
    string — lossy, but every API response stays serializable.
    """
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, ReproError):
        return {"__error__": value.to_dict()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return {"__repr__": repr(value)}


def _json_revive(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__error__"}:
            return ReproError.from_dict(value["__error__"])
        if set(value) == {"__repr__"}:
            return value["__repr__"]
        return {key: _json_revive(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_revive(item) for item in value]
    return value


def error_class(name: str) -> type:
    """Resolve an error class name anywhere under :class:`ReproError`.

    The registry is the live subclass tree, so classes defined outside
    this module (e.g. :class:`repro.par.checkpoint.CheckpointMismatch`)
    resolve as long as their module has been imported.
    """
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        if cls.__name__ == name:
            return cls
        stack.extend(cls.__subclasses__())
    raise ValueError(f"unknown error class {name!r}")


def _rebuild_error(cls, args, state):
    """Unpickle helper: rebuild without re-running ``cls.__init__``.

    Most exceptions in this hierarchy take richer constructor
    signatures than their ``args`` tuple (which holds only the rendered
    message), so the default ``Exception`` pickling — ``cls(*args)`` —
    either crashes on required parameters (``WorkloadTrapped``) or
    silently drops attributes (``MemoryFault.address``).  Rebuilding
    from ``__dict__`` restores every attribute exactly, which the
    ``repro.par`` worker pool relies on to ship typed failures across
    process boundaries.
    """
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(state)
    return exc


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        return (_rebuild_error,
                (type(self), self.args, dict(self.__dict__)))

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for API boundaries: type name, rendered message,
        and every instance attribute projected to JSON content.

        The contract (enforced hierarchy-wide by the serialization
        test): ``from_dict(json.loads(json.dumps(e.to_dict())))``
        rebuilds the same type with the same message, with JSON-scalar
        attributes and nested :class:`ReproError` attributes intact.
        """
        return {
            "type": type(self).__name__,
            "message": str(self.args[0]) if self.args else str(self),
            "fields": {key: _json_safe(value)
                       for key, value in self.__dict__.items()},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ReproError":
        """Rebuild a typed error from its :meth:`to_dict` form.

        Like :func:`_rebuild_error`, construction bypasses
        ``__init__`` (whose signatures vary across the hierarchy) and
        restores attributes directly.
        """
        cls = error_class(data["type"])
        exc = cls.__new__(cls)
        Exception.__init__(exc, data.get("message", ""))
        for key, value in data.get("fields", {}).items():
            setattr(exc, key, _json_revive(value))
        return exc


# ---------------------------------------------------------------------------
# Host-side (tooling) errors
# ---------------------------------------------------------------------------

class SourceError(ReproError):
    """Error in mini-C source code (lexing, parsing, or type checking).

    Carries an optional ``line``/``col`` for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0):
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class LexError(SourceError):
    """Invalid token in mini-C source."""


class ParseError(SourceError):
    """Syntax error in mini-C source."""


class TypeError_(SourceError):
    """Semantic / type error in mini-C source.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CompileError(ReproError):
    """Internal error while lowering or instrumenting a program."""


class LinkError(ReproError):
    """Error resolving symbols when assembling the final program image."""


# ---------------------------------------------------------------------------
# Architectural traps (simulated hardware exceptions)
# ---------------------------------------------------------------------------

class SimTrap(ReproError):
    """A trap raised by the simulated machine.

    ``pc`` identifies the faulting instruction (function, index) when known.
    """

    def __init__(self, message: str, pc: object = None):
        super().__init__(message)
        self.pc = pc


class MemoryFault(SimTrap):
    """Access to unmapped or otherwise invalid simulated memory (page fault)."""

    def __init__(self, message: str, address: int = 0, pc: object = None):
        super().__init__(message, pc)
        self.address = address


class PoisonTrap(SimTrap):
    """Load/store through a pointer whose poison bits are not 'valid'.

    This is the trap that signals a detected spatial memory-safety
    violation: In-Fat Pointer poisons the pointer when a bounds check fails
    and standard loads/stores trap on poisoned pointers.
    """

    def __init__(self, message: str, pointer: int = 0, pc: object = None):
        super().__init__(message, pc)
        self.pointer = pointer


class BoundsTrap(SimTrap):
    """Explicit bounds-check (``ifpchk``) failure configured to trap."""

    def __init__(self, message: str, pointer: int = 0,
                 lower: int = 0, upper: int = 0, pc: object = None):
        super().__init__(message, pc)
        self.pointer = pointer
        self.lower = lower
        self.upper = upper


class MetadataError(SimTrap):
    """Invalid or tampered object metadata discovered during promote.

    Raised when a MAC check fails or a metadata encoding is malformed in a
    way the hardware is specified to trap on (rather than poison).
    """


class SyscallError(SimTrap):
    """Invalid syscall or syscall arguments from the guest program."""


class StepBudgetExceeded(SimTrap):
    """The interpreter's instruction step-budget ran out.

    This is the watchdog that turns a runaway guest (infinite loop,
    pathological input) into a deterministic trap instead of an unbounded
    simulation.  ``executed`` is the number of instructions retired when
    the budget tripped.
    """

    def __init__(self, message: str, executed: int = 0, limit: int = 0,
                 pc: object = None):
        super().__init__(message, pc)
        self.executed = executed
        self.limit = limit


class InvalidFree(SimTrap):
    """A free-path violation detected by a runtime allocator.

    ``kind`` distinguishes the failure modes the allocators can tell
    apart: ``double_free`` (the chunk/slot is already free),
    ``unknown_pointer`` (the address belongs to no live allocation of
    this allocator), and ``interior_pointer`` (the address lies inside
    an allocation but is not its start).  ``allocator`` names the
    allocator that rejected the free so the trap message carries full
    context without a debugger.
    """

    def __init__(self, message: str, address: int = 0,
                 allocator: str = "", kind: str = "unknown_pointer",
                 pc: object = None):
        super().__init__(message, pc)
        self.address = address
        self.allocator = allocator
        self.kind = kind


class TemporalViolation(SimTrap):
    """A lock-and-key temporal memory-safety violation.

    Raised when the generation key carried in a pointer's tag bits no
    longer matches the lock registered for its allocation base in the
    :class:`repro.temporal.TemporalRegistry` — the signature of a
    use-after-free, double free, or stale post-``realloc`` pointer.
    Distinct from the spatial traps (:class:`PoisonTrap` /
    :class:`BoundsTrap`) and from :class:`InvalidFree` (the allocators'
    structural free-path check): this trap fires on *temporal* identity,
    which structural checks cannot see once an address is reused.

    ``kind`` is the forensics anatomy:

    * ``stale_key`` — the lock is live but holds a different key: the
      allocation was freed and its address reused, and this pointer
      belongs to the *previous* incarnation;
    * ``freed_lock`` — the lock is dead: the allocation was freed and
      not reallocated (the classic dangling-pointer dereference);
    * ``double_free`` — a free through a pointer whose lock is already
      dead;
    * ``stale_free`` — a free through a stale-generation pointer into a
      reused allocation.

    ``origin`` names the check site (``promote`` / ``load`` / ``store``
    / ``free`` / ``realloc``); ``key`` is the pointer's tag key;
    ``lock`` the registry's current key (0 when the lock is dead or the
    entry missing); ``address`` the allocation base probed.
    """

    def __init__(self, message: str, pointer: int = 0, address: int = 0,
                 key: int = 0, lock: int = 0, kind: str = "stale_key",
                 origin: str = "", pc: object = None):
        super().__init__(message, pc)
        self.pointer = pointer
        self.address = address
        self.key = key
        self.lock = lock
        self.kind = kind
        self.origin = origin


# ---------------------------------------------------------------------------
# Evaluation-harness errors (differential running of one program under
# several configurations)
# ---------------------------------------------------------------------------

class HarnessError(ReproError):
    """A workload/configuration sweep did not behave as required.

    These are *host-side* verdicts about guest executions: a configuration
    trapped where it must not, produced the wrong answer, or disagreed
    with its siblings.  They carry enough structure for the fuzzing oracle
    to distinguish the failure modes.
    """


def _stats_suffix(stats) -> str:
    """Render an optional RunStats into a message fragment."""
    return f" [{stats.compact()}]" if stats is not None else ""


class WorkloadTrapped(HarnessError):
    """An execution that was required to run clean ended in a trap.

    ``trap`` is the underlying :class:`SimTrap`; ``workload`` and
    ``config`` identify the run.  ``stats`` (a ``RunStats``) and
    ``forensics_path`` (a written :class:`repro.obs.ForensicsReport`)
    enrich the message when the caller ran under observation.
    """

    def __init__(self, workload: str, config: str, trap: "SimTrap",
                 stats=None, forensics_path: str = ""):
        message = (f"{workload} [{config}] trapped: {trap}"
                   + _stats_suffix(stats))
        if forensics_path:
            message += f" (forensics: {forensics_path})"
        super().__init__(message)
        self.workload = workload
        self.config = config
        self.trap = trap
        self.stats = stats
        self.forensics_path = forensics_path


class UnexpectedOutput(HarnessError):
    """A run completed but its stdout fails the workload's sanity check."""

    def __init__(self, workload: str, config: str, output: str,
                 expected: str = "", stats=None):
        super().__init__(
            f"{workload} [{config}] produced unexpected output "
            f"{output!r}" + _stats_suffix(stats))
        self.workload = workload
        self.config = config
        self.output = output
        self.expected = expected
        self.stats = stats


class OutputDivergence(HarnessError):
    """Configurations of the same program computed different answers.

    ``outputs`` maps config name to its ``(output, exit_code)`` pair;
    ``stats`` optionally maps config name to that run's ``RunStats``.
    """

    def __init__(self, workload: str, outputs: dict, stats=None):
        rendered = ", ".join(
            f"{config}={pair!r}" for config, pair in sorted(outputs.items()))
        message = f"{workload}: configurations disagree: {rendered}"
        if stats:
            message += " [" + "; ".join(
                f"{config}: {run_stats.compact()}"
                for config, run_stats in sorted(stats.items())) + "]"
        super().__init__(message)
        self.workload = workload
        self.outputs = outputs
        self.stats = stats or {}


class WorkloadTimeout(HarnessError):
    """A run exceeded its wall-clock budget and was killed by the watchdog.

    Raised from inside the interpreter loop (which polls the machine's
    deadline every few thousand instructions) and re-raised by the
    harness enriched with workload/config identity.  Deliberately *not*
    a :class:`SimTrap`: a timeout is a verdict about the harness budget,
    not an architectural event, so ``Machine.run`` must not fold it into
    the trap-result path where it could be mistaken for a detection.
    """

    def __init__(self, message: str, workload: str = "", config: str = "",
                 seconds: float = 0.0, executed: int = 0, stats=None):
        super().__init__(message)
        self.workload = workload
        self.config = config
        self.seconds = seconds
        self.executed = executed
        self.stats = stats

    def with_context(self, workload: str, config: str) -> "WorkloadTimeout":
        """Re-wrap with run identity (used by the harness)."""
        return WorkloadTimeout(
            f"{workload} [{config}] {self.args[0]}", workload, config,
            self.seconds, self.executed, self.stats)


class GuestExit(ReproError):
    """Non-error control-flow exception: the guest called ``exit``.

    Not a :class:`SimTrap` because it is the normal way a guest program
    terminates; the VM catches it internally.
    """

    def __init__(self, code: int):
        super().__init__(f"guest exited with code {code}")
        self.code = code


class ResourceExhausted(SimTrap):
    """A fixed-size architectural resource overflowed.

    Examples: the global metadata table is full, or all 16 subheap control
    registers are in use.
    """


# ---------------------------------------------------------------------------
# Injected host faults (repro.resil.chaos) — typed so a chaos run's
# failures are distinguishable from real ones in every log and API
# response, yet shaped like the real thing to the code under test
# ---------------------------------------------------------------------------

class InjectedFault(ReproError):
    """Base class for faults the chaos harness injects on purpose.

    ``fault`` names the schedule's fault class, ``op`` the persistence
    call site it fired at, ``path`` the file involved — enough to join
    an observed failure back to the schedule decision that caused it.
    """

    def __init__(self, message: str, fault: str = "", op: str = "",
                 path: str = ""):
        super().__init__(message)
        self.fault = fault
        self.op = op
        self.path = path


class InjectedIOFault(InjectedFault, OSError):
    """An injected IO error (ENOSPC, EIO) raised from inside an atomic
    write.

    Deliberately *is* an :class:`OSError`: the hardening under test
    guards persistence with ``except OSError``, and an injection that
    bypassed those guards would be testing nothing.  ``errno_code``
    rides in ``__dict__`` (so it serializes); the C-level ``errno``
    slot is set too for code that switches on it.
    """

    def __init__(self, message: str, fault: str = "", op: str = "",
                 path: str = "", errno_code: int = 0):
        super().__init__(message, fault=fault, op=op, path=path)
        self.errno_code = errno_code
        self.errno = errno_code


class InjectedCrash(InjectedFault):
    """A simulated process death (a torn checkpoint write).

    Deliberately *not* an :class:`OSError`: a crash must blow past the
    graceful IO-fault guards and abort the run, so the chaos campaign
    exercises the checkpoint-resume path rather than the
    degrade-in-place path.
    """


# ---------------------------------------------------------------------------
# Campaign-service errors (repro.serve) — every one of these can cross
# the HTTP API boundary, so each maps to a status code and round-trips
# through to_dict/from_dict
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for errors the campaign service reports to clients.

    ``http_status`` is the response code the API layer uses; subclasses
    carrying ``retry_after`` additionally produce a ``Retry-After``
    header (the backpressure contract).
    """

    http_status = 500


class InvalidJobSpec(ServiceError):
    """A submitted job spec failed validation (unknown kind, bad or
    out-of-range parameter).  ``field`` names the offending entry."""

    http_status = 400

    def __init__(self, message: str, field: str = ""):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class UnknownJob(ServiceError):
    """A job id that does not exist in this service's store."""

    http_status = 404

    def __init__(self, job_id: str):
        super().__init__(f"no such job {job_id!r}")
        self.job_id = job_id


class JobNotCancellable(ServiceError):
    """DELETE on a job already in a terminal state."""

    http_status = 409

    def __init__(self, job_id: str, status: str):
        super().__init__(
            f"job {job_id!r} is {status}; only queued or running jobs "
            f"can be cancelled")
        self.job_id = job_id
        self.status = status


class QuotaExceeded(ServiceError):
    """A per-tenant admission limit was hit (429 + Retry-After)."""

    http_status = 429

    def __init__(self, message: str, tenant: str = "", limit: int = 0,
                 retry_after: float = 1.0):
        super().__init__(message)
        self.tenant = tenant
        self.limit = limit
        self.retry_after = retry_after


class QueueFull(QuotaExceeded):
    """A tenant's bounded submission queue is full — the backpressure
    signal; clients should honor ``Retry-After`` and resubmit."""

    def __init__(self, tenant: str, depth: int, limit: int,
                 retry_after: float = 1.0):
        super().__init__(
            f"tenant {tenant!r} queue is full ({depth}/{limit} jobs "
            f"queued); retry after {retry_after:g}s",
            tenant=tenant, limit=limit, retry_after=retry_after)
        self.depth = depth


class ServiceUnavailable(ServiceError):
    """The service is draining for shutdown and not accepting jobs."""

    http_status = 503

    def __init__(self, message: str = "service is draining",
                 retry_after: float = 5.0):
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpen(ServiceError):
    """A tenant's circuit breaker is open: recent jobs failed or
    quarantined shards, so submissions are rejected until the cooldown
    elapses (429 + Retry-After), then one probe job is admitted."""

    http_status = 429

    def __init__(self, tenant: str, retry_after: float = 1.0,
                 reason: str = ""):
        message = (f"tenant {tenant!r} circuit breaker is open; retry "
                   f"after {retry_after:g}s")
        if reason:
            message += f" ({reason})"
        super().__init__(message)
        self.tenant = tenant
        self.retry_after = retry_after
        self.reason = reason
