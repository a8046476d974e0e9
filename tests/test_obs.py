"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import OutputDivergence, WorkloadTrapped
from repro.eval.harness import run_workload, verify_runs_agree
from repro.fuzz.oracle import fuzz_workload
from repro.obs import (
    CheckEvent, EventBus, PromoteEvent, attach_observer,
    metrics_document, stats_to_dict, to_prometheus, validate_document,
    write_metrics,
)
from repro.obs.metrics import load_metrics, write_bench
from repro.vm import Machine

NESTED_SOURCE = """
struct Inner { int v3; int v4; };
struct S { int v1; struct Inner array[2]; int v5; };
int *g_escape;
int use(int *p) { return p[0]; }
int main(void) {
    struct S *objs = (struct S*)malloc(3 * sizeof(struct S));
    int i;
    int total = 0;
    for (i = 0; i < 3; i++) {
        objs[i].v1 = i;
        objs[i].array[0].v3 = i + 1;
        objs[i].array[1].v4 = i + 2;
        objs[i].v5 = i + 3;
    }
    g_escape = &objs[1].array[0].v3;
    int *q = g_escape;
    total = use(q);
    for (i = 0; i < 3; i++) { total = total + objs[i].v5; }
    printf("total = %d\\n", total);
    free(objs);
    return 0;
}
"""

OVERFLOW_SOURCE = """
struct Inner { int v3; int v4; };
struct S { int v1; struct Inner array[2]; int v5; };
int *g_escape;
int main(void) {
    struct S *s = (struct S*)malloc(sizeof(struct S));
    s->v5 = 99;
    g_escape = &s->array[1].v3;
    int *q = g_escape;
    q[1] = 7;
    printf("v5 = %d\\n", s->v5);
    return 0;
}
"""


def _machine(source, options=None):
    program = compile_source(source, options or CompilerOptions.wrapped())
    return Machine(program)


class TestEventBusDisabledPath:
    def test_bus_with_no_sinks_is_disabled(self):
        bus = EventBus()
        assert bus.enabled is False
        bus.emit(CheckEvent(("f", 0), "load", False, 0, 4, True))
        assert bus.emitted == 0

    def test_subscribe_unsubscribe_toggles_enabled(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.enabled is True
        event = CheckEvent(("f", 0), "load", False, 0, 4, True)
        bus.emit(event)
        assert seen == [event] and bus.emitted == 1
        bus.unsubscribe(seen.append)
        assert bus.enabled is False
        bus.emit(event)
        assert seen == [event] and bus.emitted == 1

    def test_machine_without_observer_has_no_obs(self):
        machine = _machine(NESTED_SOURCE)
        result = machine.run()
        assert result.ok
        assert machine.obs is None
        assert machine.ifp.obs is None

    def test_observation_does_not_perturb_the_run(self):
        plain = _machine(NESTED_SOURCE).run()
        observed_machine = _machine(NESTED_SOURCE)
        attach_observer(observed_machine, profile=True, forensics=True)
        observed = observed_machine.run()
        assert plain.exit_code == observed.exit_code
        assert plain.output == observed.output
        assert plain.stats.total_instructions \
            == observed.stats.total_instructions
        assert plain.stats.cycles == observed.stats.cycles
        assert plain.stats.implicit_checks \
            == observed.stats.implicit_checks


class TestHotSiteProfiler:
    @pytest.fixture(scope="class")
    def observed(self):
        machine = _machine(NESTED_SOURCE)
        obs = attach_observer(machine, profile=True, forensics=False)
        result = machine.run()
        assert result.ok
        return machine, obs, result

    def test_promotes_fully_attributed(self, observed):
        machine, obs, result = observed
        profiler = obs.profiler
        assert profiler.total_promotes == result.stats.ifp.promotes_total
        assert profiler.total_promotes > 0

    def test_checks_fully_attributed(self, observed):
        _machine_, obs, result = observed
        assert obs.profiler.total_checks == result.stats.implicit_checks

    def test_sites_are_function_indexed(self, observed):
        _machine_, obs, _result = observed
        for (function, index), site in obs.profiler.sites.items():
            assert site.function == function and site.index == index
            assert function in ("main", "use", "<runtime>") \
                or function.startswith("__")

    def test_per_scheme_breakdown(self, observed):
        _machine_, obs, result = observed
        by_scheme = {}
        for site in obs.profiler.sites.values():
            for scheme, count in site.by_scheme.items():
                by_scheme[scheme] = by_scheme.get(scheme, 0) + count
        assert sum(by_scheme.values()) == result.stats.ifp.promotes_total
        assert set(by_scheme) <= {"LEGACY", "LOCAL_OFFSET", "SUBHEAP",
                                  "GLOBAL_TABLE"}

    def test_scheme_assignments_counted(self, observed):
        _machine_, obs, result = observed
        heap = sum(count for (region, _scheme), count
                   in obs.profiler.scheme_assignments.items()
                   if region == "heap")
        assert heap == result.stats.heap_objects

    def test_top_sites_sorted_and_report_renders(self, observed):
        _machine_, obs, _result = observed
        top = obs.profiler.top_sites(5)
        assert len(top) <= 5
        cycles = [site.cycles for site in top]
        assert cycles == sorted(cycles, reverse=True)
        report = obs.profiler.report(top=5)
        assert "hot sites" in report
        assert "per-function rollup" in report
        assert "scheme assignments" in report

    def test_narrow_events_attributed(self, observed):
        _machine_, obs, result = observed
        narrows = sum(site.narrows
                      for site in obs.profiler.sites.values())
        assert narrows == result.stats.ifp.narrow_attempts


class TestForensics:
    def test_intra_object_overflow_report(self):
        machine = _machine(OVERFLOW_SOURCE)
        obs = attach_observer(machine, profile=False, forensics=True)
        result = machine.run()
        assert result.trap is not None
        report = obs.last_report
        assert report is not None
        assert report.scheme == "LOCAL_OFFSET"
        assert "subobject_index" in report.tag_fields
        lower, upper = report.bounds
        assert upper - lower == 4  # the narrowed int-member subobject
        rendered = report.render()
        assert "trap forensics" in rendered
        assert "LOCAL_OFFSET" in rendered
        assert "subobject" in rendered
        assert report.trace_tail and report.recent_events

    def test_report_roundtrips_to_dict(self):
        machine = _machine(OVERFLOW_SOURCE)
        obs = attach_observer(machine, profile=False, forensics=True)
        machine.run()
        record = obs.last_report.to_dict()
        assert record["trap_type"] in ("PoisonTrap", "BoundsTrap")
        assert json.loads(json.dumps(record)) == record

    def test_fuzz_failures_ship_forensics(self, tmp_path):
        from repro.fuzz import run_fuzz
        stats = run_fuzz(1, seed=0, corpus_dir=str(tmp_path),
                         plant_bug=True, log=lambda m: None,
                         progress_every=0)
        assert not stats.ok
        with_forensics = [record for record in stats.failures
                          if record.forensics_path]
        assert with_forensics
        for record in with_forensics:
            content = open(record.forensics_path).read()
            assert "trap forensics" in content
            assert record.entry.extra["forensics"] \
                == record.entry.name + ".forensics.txt"


class TestMetricsSchema:
    def _document(self):
        machine = _machine(NESTED_SOURCE)
        result = machine.run()
        return metrics_document("nested", "wrapped",
                                stats_to_dict(result.stats))

    def test_roundtrip(self, tmp_path):
        doc = self._document()
        assert validate_document(doc) == []
        path = write_metrics(str(tmp_path / "m.json"), doc)
        loaded = load_metrics(path)
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["metrics"]["total_instructions"] > 0
        assert "ifp" in loaded["metrics"]

    def test_validation_rejects_bad_documents(self):
        assert validate_document([]) != []
        assert validate_document({"schema": "nope"}) != []
        good = metrics_document("x", "cfg", {"a": 1})
        assert validate_document(good) == []
        assert validate_document({**good, "metrics": {"a": "one"}})
        assert validate_document({**good, "metrics": {"a": True}})
        assert validate_document({**good, "surprise": 1})
        assert validate_document({**good, "timestamp": "now"})

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_metrics(str(tmp_path / "bad.json"),
                          {"schema": "wrong"})

    def test_prometheus_export(self):
        doc = metrics_document("run", "wrapped",
                               {"cycles": 7, "ifp": {"promotes": 3}})
        text = to_prometheus(doc)
        assert 'repro_cycles{name="run",config="wrapped"} 7' in text
        assert 'repro_ifp_promotes{name="run",config="wrapped"} 3' in text

    def test_write_bench_naming(self, tmp_path):
        path = write_bench("smoke", "baseline", {"value": 1},
                           directory=str(tmp_path))
        assert path.endswith("BENCH_smoke.json")
        assert load_metrics(path)["name"] == "smoke"


class TestHarnessIntegration:
    def test_trapped_error_carries_stats_and_forensics(self, tmp_path):
        workload = fuzz_workload(OVERFLOW_SOURCE, "overflow")
        with pytest.raises(WorkloadTrapped) as excinfo:
            run_workload(workload, "wrapped", observe=True,
                         forensics_dir=str(tmp_path))
        message = str(excinfo.value)
        assert "instr=" in message
        assert "forensics:" in message
        assert excinfo.value.forensics_path
        assert "trap forensics" in open(
            excinfo.value.forensics_path).read()

    def test_trapped_error_without_observation_still_has_stats(self):
        workload = fuzz_workload(OVERFLOW_SOURCE, "overflow")
        with pytest.raises(WorkloadTrapped) as excinfo:
            run_workload(workload, "wrapped")
        assert "instr=" in str(excinfo.value)
        assert excinfo.value.forensics_path == ""

    def test_divergence_error_carries_per_config_stats(self):
        clean = fuzz_workload("int main(void) "
                              "{ printf(\"ok\\n\"); return 0; }",
                              "clean")
        runs = [run_workload(clean, "baseline"),
                run_workload(clean, "wrapped")]
        runs[1].output = "different"
        with pytest.raises(OutputDivergence) as excinfo:
            verify_runs_agree(runs)
        assert "baseline:" in str(excinfo.value)
        assert "instr=" in str(excinfo.value)

    def test_workload_run_carries_observer(self):
        workload = fuzz_workload(NESTED_SOURCE, "nested")
        run = run_workload(workload, "wrapped", observe=True)
        assert run.observer is not None
        assert run.observer.profiler.total_promotes \
            == run.stats.ifp.promotes_total


class TestCLI:
    def test_validate_command(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        good = str(tmp_path / "good.json")
        write_metrics(good, metrics_document("x", "cfg", {"a": 1}))
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as handle:
            json.dump({"schema": "wrong"}, handle)
        assert main(["validate", good]) == 0
        assert main(["validate", good, bad]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "INVALID" in out

    def test_forensics_command(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        out_path = str(tmp_path / "report.txt")
        assert main(["forensics", "--out", out_path]) == 0
        assert "LOCAL_OFFSET" in capsys.readouterr().out
        assert "trap forensics" in open(out_path).read()

    def test_fuzz_metrics_out(self, tmp_path, capsys):
        from repro.fuzz.__main__ import main
        metrics_path = str(tmp_path / "fuzz.json")
        status = main(["--iterations", "2", "--seed", "0", "--quiet",
                       "--corpus", str(tmp_path / "corpus"),
                       "--metrics-out", metrics_path])
        assert status == 0
        doc = load_metrics(metrics_path)
        assert doc["name"] == "fuzz"
        assert doc["metrics"]["programs"] == 2

    def test_render_hotpath_ranks_by_cache_misses(self):
        from repro.ifp.unit import IFPUnitStats
        from repro.obs.__main__ import render_hotpath
        cells = {
            "treeadd/baseline": IFPUnitStats(),
            "treeadd/subheap": IFPUnitStats(
                promotes_valid=40, promote_cache_hits=30,
                promote_cache_misses=10, mac_cache_hits=1,
                mac_cache_misses=3, promote_cache_invalidations=2),
        }
        lines = render_hotpath(cells).splitlines()
        assert lines[0].split() == ["cell", "promotes", "cache", "mac",
                                    "miss", "inval"]
        assert set(lines[1]) == {"-"}
        assert lines[2].split() == ["treeadd/subheap", "40", "75.0%",
                                    "25.0%", "10", "2"]
        assert lines[3].split() == ["treeadd/baseline", "0", "—", "—",
                                    "0", "0"]
        assert lines[4].startswith("cache/mac = ")


# ---------------------------------------------------------------------------
# trace correlation: TraceContext on events, buses, and forensics
# ---------------------------------------------------------------------------

class TestTraceCorrelation:
    def test_uncorrelated_events_serialize_without_ctx(self):
        event = PromoteEvent(site=("main", 3), pointer=0x10,
                             scheme="local_offset", outcome="hit",
                             narrowed=False, cycles=5)
        record = event.to_dict()
        assert "ctx" not in record
        assert record["kind"] == "promote"

    def test_explicit_ctx_serializes(self):
        from repro.obs import TraceContext
        ctx = TraceContext(tenant="acme", job_id="job-7")
        event = PromoteEvent(site=None, pointer=1, scheme="s",
                             outcome="hit", narrowed=False, cycles=1,
                             ctx=ctx)
        record = event.to_dict()
        assert record["ctx"] == {"tenant": "acme", "job_id": "job-7",
                                 "shard_id": None, "seed": None}

    def test_bus_ambient_context_stamps_events(self):
        from repro.obs import TraceContext
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.context = TraceContext(tenant="acme", job_id="job-1",
                                   shard_id=2, seed=99)
        bus.emit(CheckEvent(site=("f", 0), op="load", explicit=False,
                            address=8, size=4, passed=True))
        assert seen[0].ctx.tenant == "acme"
        assert seen[0].ctx.shard_id == 2
        # an explicitly stamped ctx wins over the ambient one
        other = TraceContext(tenant="zen")
        bus.emit(CheckEvent(site=None, op="load", explicit=False,
                            address=8, size=4, passed=True, ctx=other))
        assert seen[1].ctx is other

    def test_with_shard_and_labels(self):
        from repro.obs import TraceContext
        ctx = TraceContext(tenant="acme", job_id="job-1")
        refined = ctx.with_shard(3, 1234)
        assert refined.shard_id == 3 and refined.seed == 1234
        assert ctx.shard_id is None  # frozen original untouched
        assert refined.labels() == {"tenant": "acme",
                                    "job_id": "job-1",
                                    "shard_id": "3", "seed": "1234"}
        assert TraceContext.from_dict(refined.to_dict()) == refined

    def test_forensics_report_carries_bus_context(self):
        from repro.obs import TraceContext
        machine = _machine(OVERFLOW_SOURCE)
        obs = attach_observer(machine, profile=False, forensics=True)
        obs.bus.context = TraceContext(tenant="acme", job_id="job-9",
                                       shard_id=0, seed=7)
        result = machine.run()
        assert result.trap is not None
        report = obs.last_report
        assert report.context == {"tenant": "acme", "job_id": "job-9",
                                  "shard_id": 0, "seed": 7}
        assert "tenant=acme" in report.render()
        assert report.to_dict()["context"]["job_id"] == "job-9"

    def test_fuzz_trap_forensics_accepts_trace(self):
        from repro.fuzz.oracle import capture_trap_forensics
        trace = {"tenant": "acme", "job_id": "job-2",
                 "shard_id": 1, "seed": 42}
        report = capture_trap_forensics(OVERFLOW_SOURCE, "wrapped",
                                        trace=trace)
        assert report is not None
        assert report.context == trace


# ---------------------------------------------------------------------------
# temporal trap forensics: lock-and-key anatomy + correlation
# ---------------------------------------------------------------------------

UAF_SOURCE = """
int main(void) {
    int *p = (int*)malloc(16 * sizeof(int));
    p[0] = 1;
    free(p);
    printf("x = %d\\n", p[0]);
    return 0;
}
"""


class TestTemporalForensics:
    def _trap_machine(self):
        from repro.vm.machine import MachineConfig
        program = compile_source(UAF_SOURCE, CompilerOptions.wrapped())
        return Machine(program, MachineConfig(temporal="check"))

    def test_temporal_trap_report_has_lock_anatomy(self):
        machine = self._trap_machine()
        obs = attach_observer(machine, profile=False, forensics=True)
        result = machine.run()
        assert type(result.trap).__name__ == "TemporalViolation"
        report = obs.last_report
        assert report is not None
        assert report.trap_type == "TemporalViolation"
        assert report.tag_fields["kind"] == "freed_lock"
        assert report.tag_fields["lock"] == 0
        assert report.tag_fields["temporal_key"] >= 1
        assert report.pointer is not None
        rendered = report.render()
        assert "temporal registry lock" in rendered
        assert "lock is DEAD" in rendered
        record = report.to_dict()
        assert json.loads(json.dumps(record)) == record

    def test_temporal_trap_carries_bus_context(self):
        from repro.obs import TraceContext
        machine = self._trap_machine()
        obs = attach_observer(machine, profile=False, forensics=True)
        obs.bus.context = TraceContext(tenant="acme", job_id="job-t",
                                       shard_id=1, seed=5)
        result = machine.run()
        assert result.trap is not None
        report = obs.last_report
        assert report.context == {"tenant": "acme", "job_id": "job-t",
                                  "shard_id": 1, "seed": 5}
        assert "tenant=acme" in report.render()
        # every event feeding the report is stamped too, including the
        # TrapEvent itself (emitted at the shared on_trap seam)
        trap_events = [line for line in report.recent_events
                       if "trap_type=TemporalViolation" in line]
        assert trap_events and "'tenant': 'acme'" in trap_events[0]

    def test_fuzz_temporal_forensics_accepts_trace(self):
        from repro.fuzz.oracle import capture_trap_forensics
        trace = {"tenant": "acme", "job_id": "job-3",
                 "shard_id": 0, "seed": 9}
        report = capture_trap_forensics(UAF_SOURCE, "wrapped",
                                        trace=trace, temporal="check")
        assert report is not None
        assert report.trap_type == "TemporalViolation"
        assert report.context == trace


# ---------------------------------------------------------------------------
# metrics schema v2: correlation/engine labels
# ---------------------------------------------------------------------------

class TestMetricsV2:
    def test_labels_produce_v2(self, tmp_path):
        from repro.obs import SCHEMA_V2
        doc = metrics_document("run", "wrapped", {"cycles": 7},
                               labels={"engine": "fastpath",
                                       "tenant": "acme"})
        assert doc["schema"] == SCHEMA_V2
        assert validate_document(doc) == []
        path = write_metrics(str(tmp_path / "v2.json"), doc)
        assert load_metrics(path)["labels"]["engine"] == "fastpath"

    def test_no_labels_writes_v2(self):
        from repro.obs import SCHEMA_V2
        doc = metrics_document("run", "wrapped", {"cycles": 7})
        assert doc["schema"] == SCHEMA_V2
        assert doc["labels"] == {}
        assert validate_document(doc) == []

    def test_v2_rejects_non_string_labels(self):
        doc = metrics_document("run", "wrapped", {"cycles": 7},
                               labels={"engine": "fastpath"})
        bad = {**doc, "labels": {"shard": 3}}
        assert validate_document(bad) != []
        bad = {**doc, "labels": "fastpath"}
        assert validate_document(bad) != []

    def test_v1_document_rejected(self, tmp_path):
        doc = metrics_document("run", "wrapped", {"cycles": 7})
        legacy = {key: value for key, value in doc.items()
                  if key != "labels"}
        legacy["schema"] = "repro.obs.metrics/v1"
        assert validate_document(legacy) != []
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(legacy))
        with pytest.raises(ValueError, match="schema"):
            load_metrics(str(path))

    def test_prometheus_merges_labels(self):
        doc = metrics_document("run", "wrapped", {"cycles": 7},
                               labels={"engine": "fastpath"})
        text = to_prometheus(doc)
        assert ('repro_cycles{name="run",config="wrapped",'
                'engine="fastpath"} 7') in text


# ---------------------------------------------------------------------------
# armed-engine equivalence: the instrumented fastpath emits the same
# event stream as the armed reference interpreter
# ---------------------------------------------------------------------------

class TestArmedEngineEquivalence:
    def _event_stream(self, source, config, engine):
        from dataclasses import replace as dc_replace
        from repro.eval.configs import build_machine_config, \
            build_options
        program = compile_source(source, build_options(config))
        machine = Machine(program,
                          dc_replace(build_machine_config(config),
                                     engine=engine))
        obs = attach_observer(machine, profile=True, forensics=True,
                              tracer_capacity=0)
        stream = []
        obs.bus.subscribe(lambda event: stream.append(event.to_dict()))
        result = machine.run()
        return stream, result, obs.profiler.metrics()

    @pytest.mark.parametrize("config", ["wrapped", "subheap"])
    def test_event_streams_byte_identical(self, config):
        ref_stream, ref_result, ref_profile = self._event_stream(
            NESTED_SOURCE, config, "reference")
        fast_stream, fast_result, fast_profile = self._event_stream(
            NESTED_SOURCE, config, "auto")
        assert json.dumps(ref_stream) == json.dumps(fast_stream)
        assert ref_profile == fast_profile
        assert ref_result.output == fast_result.output
        assert stats_to_dict(ref_result.stats) == \
            stats_to_dict(fast_result.stats)
        assert ref_stream  # armed run must actually observe something

    def test_armed_fastpath_engine_selected(self):
        from dataclasses import replace as dc_replace
        from repro.eval.configs import build_machine_config, \
            build_options
        program = compile_source(NESTED_SOURCE,
                                 build_options("wrapped"))
        machine = Machine(program,
                          dc_replace(build_machine_config("wrapped"),
                                     engine="auto"))
        obs = attach_observer(machine, profile=True, forensics=True)
        machine.run()
        assert machine.engine_used == "fastpath"
        assert obs.engine == "fastpath"
