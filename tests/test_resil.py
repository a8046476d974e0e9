"""Tests for repro.resil: fault injection, graceful degradation, and
the watchdog/retry hardening (plus the InvalidFree allocator guards)."""

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import (
    InvalidFree, ResourceExhausted, SimTrap, StepBudgetExceeded,
    WorkloadTimeout,
)
from repro.ifp.config import IFPConfig
from repro.obs import attach_observer
from repro.obs.events import DegradeEvent, FaultEvent
from repro.resil import (
    DEFAULT_POLICY, STRICT_POLICY, DegradationPolicy, FaultInjector,
    FaultPlan, FaultSpec, call_with_retry, derive_seed,
)
from repro.vm import Machine, MachineConfig

GT_ONLY = IFPConfig(schemes_enabled=("global_table",))

#: heap churn with live pointers: every object occupies a table row
#: under the global-table-only configuration
CHURN = """
int main(void) {
    char *keep[64];
    int i;
    int sum = 0;
    for (i = 0; i < 64; i++) {
        keep[i] = (char*)malloc(16);
        keep[i][0] = i;
    }
    for (i = 0; i < 64; i++) { sum = sum + keep[i][0]; }
    return sum & 0xFF;
}
"""


def _machine(source, options=None, **config_kwargs):
    options = options or CompilerOptions.wrapped()
    program = compile_source(source, options)
    config_kwargs.setdefault("ifp", options.ifp)
    return Machine(program, MachineConfig(**config_kwargs))


def _drain_global_table(machine, leave):
    table = machine.global_table
    while table.free_rows > leave:
        table._free_rows.pop()


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(global_table_exhaustion="panic").validate()

    def test_names(self):
        assert DEFAULT_POLICY.name == "degrade"
        assert STRICT_POLICY.name == "strict"
        mixed = DegradationPolicy(global_table_exhaustion="strict")
        assert mixed.name == "mixed"


class TestGlobalTableDegradation:
    """Satellite: global-table exhaustion degrades to legacy pointers by
    default and keeps trapping under the strict policy."""

    def test_default_policy_degrades(self):
        machine = _machine(CHURN, CompilerOptions.wrapped(ifp=GT_ONLY))
        _drain_global_table(machine, leave=8)
        result = machine.run()
        assert result.ok, result.trap
        assert result.stats.degraded_allocs > 0
        # Degraded allocations still compute the right answer.
        assert result.exit_code == sum(range(64)) & 0xFF

    def test_strict_policy_traps(self):
        machine = _machine(CHURN, CompilerOptions.wrapped(ifp=GT_ONLY),
                           policy=STRICT_POLICY)
        _drain_global_table(machine, leave=8)
        result = machine.run()
        assert isinstance(result.trap, ResourceExhausted)

    def test_degrade_emits_typed_events(self):
        machine = _machine(CHURN, CompilerOptions.wrapped(ifp=GT_ONLY))
        events = []
        obs = attach_observer(machine, profile=False, forensics=False)
        obs.bus.subscribe(events.append)
        _drain_global_table(machine, leave=8)
        result = machine.run()
        assert result.ok, result.trap
        degrades = [e for e in events if isinstance(e, DegradeEvent)]
        assert degrades
        assert degrades[0].resource == "global_table"
        assert degrades[0].action == "legacy_pointer"
        assert result.stats.degraded_allocs == len(degrades)


class TestInvalidFree:
    """Satellite: explicit double-free / wild-free detection with the
    address and allocator context in the trap."""

    def test_freelist_double_free(self):
        result = _machine("""
        int main(void) {
            char *p = (char*)malloc(24);
            free(p);
            free(p);
            return 0;
        }
        """, CompilerOptions.baseline()).run()
        assert isinstance(result.trap, InvalidFree)
        assert result.trap.kind == "double_free"
        assert result.trap.allocator == "freelist"
        assert result.trap.address != 0
        assert "double free" in str(result.trap)
        assert f"0x{result.trap.address:x}" in str(result.trap)

    def test_freelist_unknown_pointer(self):
        result = _machine("""
        int main(void) {
            char local[16];
            free(local);
            return 0;
        }
        """, CompilerOptions.baseline()).run()
        assert isinstance(result.trap, InvalidFree)
        assert result.trap.kind == "unknown_pointer"

    def test_subheap_double_free(self):
        result = _machine("""
        int main(void) {
            char *p = (char*)malloc(24);
            free(p);
            free(p);
            return 0;
        }
        """, CompilerOptions.subheap()).run()
        assert isinstance(result.trap, InvalidFree)
        assert result.trap.kind == "double_free"
        assert result.trap.allocator == "subheap"

    def test_wrapped_double_free(self):
        result = _machine("""
        int main(void) {
            char *p = (char*)malloc(24);
            free(p);
            free(p);
            return 0;
        }
        """, CompilerOptions.wrapped()).run()
        assert isinstance(result.trap, InvalidFree)
        assert result.trap.kind == "double_free"


class TestWatchdog:
    """Acceptance: a deliberately infinite guest raises WorkloadTimeout
    instead of hanging; the step budget stays a typed trap."""

    INFINITE = """
    int main(void) {
        int x = 1;
        while (x) { x = x + 1; x = x | 1; }
        return 0;
    }
    """

    def test_infinite_guest_times_out(self):
        machine = _machine(self.INFINITE, CompilerOptions.baseline())
        with pytest.raises(WorkloadTimeout) as info:
            machine.run(timeout_seconds=0.2)
        exc = info.value
        assert exc.seconds == pytest.approx(0.2)
        assert exc.executed > 0
        assert exc.stats is not None
        assert exc.stats.ifp is not None  # stats were finalized

    def test_timeout_is_not_a_guest_trap(self):
        # A timeout must never count as a detection (SimTrap).
        assert not issubclass(WorkloadTimeout, SimTrap)

    def test_run_argument_overrides_config(self):
        machine = _machine(self.INFINITE, CompilerOptions.baseline())
        with pytest.raises(WorkloadTimeout):
            machine.run(timeout_seconds=0.2)

    def test_with_context_labels_workload(self):
        exc = WorkloadTimeout("wall-clock timeout after 0.2s",
                              seconds=0.2, executed=1000)
        labelled = exc.with_context("treeadd", "wrapped")
        assert labelled.workload == "treeadd"
        assert labelled.config == "wrapped"
        assert "treeadd" in str(labelled)
        assert "wall-clock timeout" in str(labelled)

    def test_step_budget_is_typed_trap(self):
        machine = _machine(self.INFINITE, CompilerOptions.baseline(),
                           max_instructions=10_000)
        result = machine.run()
        assert isinstance(result.trap, StepBudgetExceeded)
        assert result.trap.limit == 10_000
        assert result.trap.executed >= 10_000
        assert "limit" in str(result.trap)


class TestRetry:
    def test_derive_seed_attempt_zero_is_identity(self):
        for seed in (0, 1, 42, (1 << 63) + 17):
            assert derive_seed(seed, 0) == seed

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(1234, attempt) for attempt in range(6)]
        assert seeds == [derive_seed(1234, attempt)
                         for attempt in range(6)]
        assert len(set(seeds)) == 6
        assert all(0 <= s < (1 << 64) for s in seeds)

    def test_nearby_seeds_diverge(self):
        assert derive_seed(1, 1) != derive_seed(2, 1)

    def test_retry_succeeds_after_transient_failures(self):
        delays, attempts_seen, retries = [], [], []

        def flaky(attempt):
            attempts_seen.append(attempt)
            if attempt < 2:
                raise WorkloadTimeout("slow")
            return derive_seed(7, attempt)

        value = call_with_retry(
            flaky, attempts=3, base_delay=0.1, sleep=delays.append,
            on_retry=lambda a, exc, d: retries.append((a, d)))
        assert value == derive_seed(7, 2)
        assert attempts_seen == [0, 1, 2]
        assert delays == pytest.approx([0.1, 0.2])  # exponential
        assert retries == [(0, pytest.approx(0.1)),
                           (1, pytest.approx(0.2))]

    def test_non_transient_propagates_immediately(self):
        delays = []

        def broken(attempt):
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(broken, attempts=3, sleep=delays.append)
        assert delays == []

    def test_exhausted_attempts_reraise(self):
        delays = []

        def hopeless(attempt):
            raise WorkloadTimeout(f"attempt {attempt}")

        with pytest.raises(WorkloadTimeout) as info:
            call_with_retry(hopeless, attempts=3, base_delay=0.5,
                            sleep=delays.append)
        assert "attempt 2" in str(info.value)
        assert len(delays) == 2  # no sleep after the final attempt


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.single("cosmic_ray", seed=0).validate()
        with pytest.raises(ValueError):
            FaultSpec(fault="mac_corrupt", period=0).validate()
        FaultPlan.single("mac_corrupt", seed=0, period=3).validate()

    def test_tag_flip_stays_in_tag_bits(self):
        injector = FaultInjector(FaultPlan.single("tag_bit_flip", seed=9))
        pointer = (1 << 60) | 0x7F00  # SUBHEAP-tagged pointer
        tag_mask = ((1 << 62) - 1) ^ ((1 << 48) - 1)  # bits 48..61
        for _ in range(64):
            flipped = injector.on_promote(pointer)
            assert (flipped ^ pointer) & ~tag_mask == 0
            assert flipped != pointer  # period 1: every promote flips
        assert len(injector.injections) == 64

    def test_metadata_load_phase_targeting(self):
        injector = FaultInjector(FaultPlan.single("mac_corrupt", seed=3))
        # Non-MAC widths and non-metadata phases pass through untouched.
        assert injector.on_metadata_load(0x1000, 8, 0xAB, "metadata") == 0xAB
        assert injector.on_metadata_load(0x1000, 6, 0xAB, "layout") == 0xAB
        assert injector.on_metadata_load(0x1000, 6, 0xAB, None) == 0xAB
        corrupted = injector.on_metadata_load(0x1000, 6, 0xAB, "metadata")
        assert corrupted != 0xAB
        assert corrupted < (1 << 48)

    def test_start_and_period_gate(self):
        plan = FaultPlan.single("metadata_corrupt", seed=0, start=2,
                                period=3)
        injector = FaultInjector(plan)
        hits = [injector.on_metadata_load(0, 8, 0, "metadata") != 0
                for _ in range(8)]
        # Opportunities 0,1 skipped; then every 3rd: 2, 5, ...
        assert hits == [False, False, True, False, False, True, False,
                        False]

    def test_same_plan_same_injections(self):
        plan = FaultPlan.single("metadata_corrupt", seed=11, period=7)
        logs = []
        for _ in range(2):
            machine = _machine(CHURN)
            injector = FaultInjector(plan)
            injector.arm(machine)
            machine.run()
            logs.append([(i.fault, i.target, i.detail)
                         for i in injector.injections])
        assert logs[0], "plan injected nothing"
        assert logs[0] == logs[1]

    def test_arm_time_global_table_drain(self):
        machine = _machine(CHURN, CompilerOptions.wrapped(ifp=GT_ONLY))
        injector = FaultInjector(FaultPlan.single(
            "global_table_exhaust", seed=0, payload=3))
        injector.arm(machine)
        assert machine.global_table.free_rows == 3

    def test_arm_time_subheap_register_pressure(self):
        machine = _machine(CHURN, CompilerOptions.subheap())
        injector = FaultInjector(FaultPlan.single(
            "subheap_register_pressure", seed=0, payload=1))
        injector.arm(machine)
        registers = machine.ifp.control._subheap
        assert sum(1 for r in registers if r is None) == 1

    def test_alloc_oom_returns_null(self):
        machine = _machine(CHURN)
        injector = FaultInjector(FaultPlan.single("alloc_oom", seed=0))
        injector.arm(machine)
        address, _cycles, _instrs = machine.freelist.malloc(32)
        assert address == 0

    def test_injections_reach_the_observer(self):
        machine = _machine(CHURN, CompilerOptions.wrapped(ifp=GT_ONLY))
        events = []
        obs = attach_observer(machine, profile=False, forensics=False)
        obs.bus.subscribe(events.append)
        injector = FaultInjector(FaultPlan.single(
            "global_table_exhaust", seed=0, payload=4))
        injector.arm(machine)
        faults = [e for e in events if isinstance(e, FaultEvent)]
        assert len(faults) == 1
        assert faults[0].fault == "global_table_exhaust"


class TestFuzzDriverRetry:
    """Acceptance: a flaky (timing-out) fuzz iteration is retried with a
    deterministically derived seed and exponential backoff."""

    def _run(self, monkeypatch, fail_first_n, retries=2):
        from repro.fuzz import driver

        calls = []

        def flaky_check_clean(source, configs, name="", \
                              timeout_seconds=None, engine="auto",
                              temporal="off"):
            calls.append(source)
            if len(calls) <= fail_first_n:
                raise WorkloadTimeout("simulated hang")
            return {}, []

        delays = []
        monkeypatch.setattr(driver, "check_clean", flaky_check_clean)
        monkeypatch.setattr("time.sleep", delays.append)
        stats = driver.run_fuzz(
            1, seed=42, configs=["baseline"], inject=False,
            timeout_seconds=5.0, retries=retries, backoff_base=0.1,
            log=lambda message: None)
        return stats, calls, delays

    def test_flaky_iteration_retries_with_derived_seed(self, monkeypatch):
        stats, calls, delays = self._run(monkeypatch, fail_first_n=1)
        assert stats.reseed_retries == 1
        assert stats.timeouts == 0
        assert stats.programs == 2  # original + one reseeded attempt
        # The retry regenerated the program from a *different* seed.
        assert calls[0] != calls[1]
        # Backoff is seeded-jittered (+-50% around the exponential
        # base), keyed on seed ^ iteration = 42 ^ 0.
        from repro.par.seeds import jittered_backoff
        assert delays == pytest.approx([jittered_backoff(0.1, 0, 42)])
        assert 0.05 <= delays[0] <= 0.15

    def test_retry_sequence_is_deterministic(self, monkeypatch):
        first = self._run(monkeypatch, fail_first_n=1)[1]
        second = self._run(monkeypatch, fail_first_n=1)[1]
        assert first == second

    def test_exhausted_iteration_is_abandoned(self, monkeypatch):
        stats, calls, delays = self._run(monkeypatch, fail_first_n=99)
        assert stats.timeouts == 1
        assert stats.reseed_retries == 2
        assert len(calls) == 3  # 1 + retries attempts
        from repro.par.seeds import jittered_backoff
        assert delays == pytest.approx(
            [jittered_backoff(0.1, attempt, 42) for attempt in (0, 1)])
        assert stats.ok  # a timeout is not an oracle failure


class TestCampaign:
    def test_smoke_campaign(self):
        from repro.obs.metrics import metrics_document, validate_document
        from repro.resil.matrix import run_campaign

        campaign = run_campaign(
            workloads=("treeadd",), schemes=("local_offset",),
            faults=("metadata_corrupt", "mac_corrupt"), seed=1,
            timeout_seconds=60.0)
        assert len(campaign.cells) == 2
        assert campaign.ok  # zero MAC-protected silent corruption
        assert campaign.mac_protected_silent_corruptions() == []
        for cell in campaign.cells:
            assert cell.outcome in ("detected_by_mac",
                                    "detected_by_bounds", "degraded",
                                    "unaffected"), cell.row()
        doc = metrics_document("resil", {"seed": 1}, campaign.metrics())
        assert validate_document(doc) == []
        assert "treeadd" in campaign.render()

    def test_temporal_lock_corrupt_cells_never_diverge_silently(self):
        """Satellite gate: a corrupted lock generation must surface as
        the typed TemporalViolation (or be harmless) — registry
        corruption only changes check outcomes, never guest data."""
        from repro.resil.matrix import CampaignRunner

        runner = CampaignRunner(timeout_seconds=60.0)
        campaign = runner.run(
            workload_names=("treeadd",),
            schemes=("local_offset", "subheap", "global_table"),
            faults=("temporal_lock_corrupt",), seed=1234)
        assert campaign.ok
        assert campaign.temporal_silent_corruptions() == []
        assert campaign.metrics()["temporal_silent_corruption"] == 0
        outcomes = {cell.outcome for cell in campaign.cells}
        assert outcomes <= {"detected_by_temporal", "unaffected"}, \
            campaign.render()
        assert "detected_by_temporal" in outcomes
        assert any(cell.injections > 0 for cell in campaign.cells)
        assert "temporal lock corruption: zero silent corruption" \
            in campaign.render()

    def test_temporal_fault_is_noop_with_policy_off(self):
        """Arming the fault on a machine without the temporal policy
        leaves it untouched (nothing to corrupt)."""
        from repro.compiler import CompilerOptions, compile_source
        from repro.resil.faults import FaultInjector, FaultPlan
        from repro.vm import Machine

        source = "int main(void) { int *p = (int*)malloc(8); " \
                 "p[0] = 1; free(p); return 0; }"
        program = compile_source(source, CompilerOptions.wrapped())
        machine = Machine(program)
        injector = FaultInjector(FaultPlan.single(
            "temporal_lock_corrupt", seed=3, period=1))
        injector.arm(machine)
        result = machine.run()
        assert result.trap is None
        assert injector.injections == []

    def test_compiled_engine_matches_reference_on_every_cell(self):
        """Differential gate for the deadline-armed compiled tier: the
        campaign's verdicts, details and injection counts must not
        depend on the engine."""
        from repro.resil.matrix import CampaignRunner

        cells = {}
        for engine in ("auto", "reference"):
            campaign = CampaignRunner(engine=engine).run(
                workload_names=("ks", "anagram"),
                schemes=("local_offset", "subheap", "global_table"),
                faults=("mac_corrupt", "layout_corrupt",
                        "temporal_lock_corrupt"), seed=3)
            cells[engine] = [cell.to_dict() for cell in campaign.cells]
        assert len(cells["auto"]) == 18
        assert cells["auto"] == cells["reference"]
        outcomes = {cell["outcome"] for cell in cells["auto"]}
        assert {"detected_by_mac", "detected_by_temporal"} <= outcomes

    def test_cell_seeds_are_deterministic(self):
        from repro.resil.matrix import CampaignRunner

        runner = CampaignRunner(timeout_seconds=60.0)
        runs = [runner.run(workload_names=("treeadd",),
                           schemes=("local_offset",),
                           faults=("metadata_corrupt",), seed=5)
                for _ in range(2)]
        first, second = (r.cells[0] for r in runs)
        assert first.seed == second.seed == derive_seed(5, 1)
        assert first.outcome == second.outcome
        assert first.injections == second.injections

    def test_exhaustion_cell_degrades_then_traps_under_strict(self):
        from repro.resil.matrix import run_campaign

        kwargs = dict(workloads=("treeadd",), schemes=("global_table",),
                      faults=("global_table_exhaust",), seed=0,
                      timeout_seconds=60.0)
        degrade = run_campaign(**kwargs)
        assert degrade.cells[0].outcome == "degraded"
        strict = run_campaign(strict=True, **kwargs)
        assert strict.cells[0].outcome == "trapped"
        assert "ResourceExhausted" in strict.cells[0].detail
