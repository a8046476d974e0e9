"""Tests for the host-level chaos harness: seeded fault schedules,
the hostio injection seam, checkpoint integrity under injected
corruption, quarantine/resume round-trips, and the chaos-matrix gate.
"""

import json
import os

import pytest

from repro.errors import InjectedCrash, InjectedFault, InjectedIOFault
from repro.hostio import (
    TMP_SUFFIX, atomic_write_json, crc32_of_json, inject_faults,
    sweep_stale_tmp,
)
from repro.par.checkpoint import Checkpoint
from repro.par.plan import plan_indices
from repro.par.pool import run_plan
from repro.resil.chaos import (
    CELL_VERDICTS, HOST_FAULT_CLASSES, POISON_SHARD, ChaosSchedule,
    HostFaultInjector, check_matrix, run_chaos_cell, run_chaos_campaign,
)

SELFTEST = "repro.par.campaigns:run_selftest_shard"


def _plan(seed, total, shards, **params):
    params.setdefault("fail_shards", [])
    return plan_indices("selftest", seed, list(range(total)),
                        params=params, shards=shards)


# ---------------------------------------------------------------------------
# the schedule: pure, seeded, validated
# ---------------------------------------------------------------------------

class TestChaosSchedule:
    def test_fires_is_a_pure_function_of_seed_fault_index(self):
        a = ChaosSchedule(seed=7)
        b = ChaosSchedule(seed=7)
        trace = [(fault, index)
                 for fault in HOST_FAULT_CLASSES
                 for index in range(64) if a.fires(fault, index)]
        assert trace == [(fault, index)
                         for fault in HOST_FAULT_CLASSES
                         for index in range(64)
                         if b.fires(fault, index)]
        assert trace    # a period-3 schedule fires somewhere in 64

    def test_different_seeds_and_faults_sample_independently(self):
        schedule = ChaosSchedule(seed=7)
        other = ChaosSchedule(seed=8)
        fires = {fault: [schedule.fires(fault, i) for i in range(64)]
                 for fault in HOST_FAULT_CLASSES}
        # no two fault classes share a fire sequence under one seed
        sequences = [tuple(v) for v in fires.values()]
        assert len(set(sequences)) == len(sequences)
        assert any(
            fires[f] != [other.fires(f, i) for i in range(64)]
            for f in HOST_FAULT_CLASSES)

    def test_period_one_always_fires(self):
        schedule = ChaosSchedule(seed=0, period=1)
        assert all(schedule.fires("enospc", i) for i in range(16))

    def test_unscheduled_fault_never_fires(self):
        schedule = ChaosSchedule(seed=0, faults=("enospc",), period=1)
        assert not schedule.fires("eio", 0)
        assert not schedule.fires("worker_kill", 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown host fault"):
            ChaosSchedule(seed=0, faults=("disk_melt",))
        with pytest.raises(ValueError, match="period"):
            ChaosSchedule(seed=0, period=0)
        with pytest.raises(ValueError, match="max_injections"):
            ChaosSchedule(seed=0, max_injections=-1)

    def test_to_config_is_flat_strings_and_numbers(self):
        config = ChaosSchedule(seed=3).to_config()
        assert all(isinstance(v, (str, int, float))
                   for v in config.values())
        assert config["faults"] == ",".join(HOST_FAULT_CLASSES)


# ---------------------------------------------------------------------------
# the injector: budget, counters, the hostio seam
# ---------------------------------------------------------------------------

class TestHostFaultInjector:
    def test_budget_bounds_firings_per_class(self):
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("enospc",), period=1,
                          max_injections=2))
        fired = [injector.fire("enospc") is not None for _ in range(8)]
        assert fired == [True, True] + [False] * 6
        assert injector.counts() == {"enospc": 2}
        assert injector.exhausted()

    def test_opportunity_counter_spans_budget_exhaustion(self):
        # indices keep advancing after the budget is spent — the
        # monotonic counter is what makes resumes replayable
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("eio",), period=1,
                          max_injections=1))
        injector.fire("eio")
        injector.fire("eio")
        assert injector._indices["eio"] == 2
        assert injector.counts() == {"eio": 1}

    def test_counts_are_shape_stable(self):
        injector = HostFaultInjector(ChaosSchedule(seed=0))
        assert set(injector.counts()) == set(HOST_FAULT_CLASSES)
        assert all(v == 0 for v in injector.counts().values())

    def test_injections_record_op_and_index(self):
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("enospc",), period=1))
        injection = injector.fire("enospc", op="manifest",
                                  detail="/ckpt/manifest.json")
        assert (injection.fault, injection.op, injection.index) \
            == ("enospc", "manifest", 0)
        assert injector.injections == [injection]

    def test_before_write_raises_typed_os_errors(self, tmp_path):
        import errno
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("enospc", "eio"), period=1,
                          max_injections=1))
        path = str(tmp_path / "doc.json")
        with inject_faults(injector):
            with pytest.raises(InjectedIOFault) as info:
                atomic_write_json(path, {"x": 1}, op="manifest")
        assert isinstance(info.value, OSError)
        assert info.value.errno == errno.ENOSPC
        assert not os.path.exists(path)
        # second write draws the EIO injection
        with inject_faults(injector):
            with pytest.raises(InjectedIOFault) as info:
                atomic_write_json(path, {"x": 1}, op="manifest")
        assert info.value.errno == errno.EIO

    def test_torn_write_leaves_truncated_tmp_and_raises(self, tmp_path):
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("torn_write",), period=1,
                          max_injections=1))
        path = str(tmp_path / "doc.json")
        atomic_write_json(path, {"x": 1})
        with inject_faults(injector):
            with pytest.raises(InjectedCrash):
                atomic_write_json(path, {"x": 2})
        # a torn write is a crash, not an absorbable IO error
        assert not isinstance(InjectedCrash("x"), OSError)
        # destination untouched, truncated debris left behind
        with open(path) as handle:
            assert json.load(handle) == {"x": 1}
        tmp = path + TMP_SUFFIX
        assert os.path.exists(tmp)
        with open(tmp) as handle:
            with pytest.raises(ValueError):
                json.load(handle)
        assert sweep_stale_tmp(str(tmp_path)) == 1
        assert not os.path.exists(tmp)

    def test_stale_tmp_debris_is_swept_on_next_open(self, tmp_path):
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("stale_tmp",), period=1,
                          max_injections=1))
        path = str(tmp_path / "doc.json")
        with inject_faults(injector):
            atomic_write_json(path, {"x": 1})
        debris = [name for name in os.listdir(tmp_path)
                  if name.endswith(TMP_SUFFIX)]
        assert len(debris) == 1
        assert sweep_stale_tmp(str(tmp_path)) == 1
        with open(path) as handle:    # the real write still landed
            assert json.load(handle) == {"x": 1}

    def test_corrupt_result_flips_one_bit_in_shard_results_only(
            self, tmp_path):
        injector = HostFaultInjector(
            ChaosSchedule(seed=0, faults=("corrupt_result",), period=1,
                          max_injections=2))
        other = str(tmp_path / "manifest.json")
        with inject_faults(injector):
            atomic_write_json(other, {"x": 1}, op="manifest")
        with open(other) as handle:   # manifest op: not a target
            assert json.load(handle) == {"x": 1}
        target = str(tmp_path / "shard-0001.json")
        with inject_faults(injector):
            atomic_write_json(target, {"x": 1}, op="shard_result")
        with open(target, "rb") as handle:
            data = handle.read()
        clean = (json.dumps({"x": 1}, indent=2, sort_keys=True)
                 + "\n").encode()
        assert data != clean
        assert len(data) == len(clean)
        assert sum(a != b for a, b in zip(data, clean)) == 1


# ---------------------------------------------------------------------------
# checkpoint integrity under corruption
# ---------------------------------------------------------------------------

class TestCheckpointIntegrity:
    def _checkpoint_with_result(self, tmp_path):
        plan = _plan(3, 4, 2)
        checkpoint = Checkpoint(str(tmp_path / "ckpt"))
        checkpoint.open(plan)
        checkpoint.record_result(0, 1, {"value": 42})
        return plan, checkpoint

    def test_result_files_carry_payload_crc(self, tmp_path):
        _, checkpoint = self._checkpoint_with_result(tmp_path)
        with open(checkpoint.result_path(0)) as handle:
            document = json.load(handle)
        assert document["schema"] == "repro.par.shard_result/v2"
        assert document["crc32"] == crc32_of_json({"value": 42})
        assert checkpoint.load_result(0) == {"value": 42}

    def test_tampered_result_demotes_to_pending_on_open(self, tmp_path):
        plan, checkpoint = self._checkpoint_with_result(tmp_path)
        path = checkpoint.result_path(0)
        with open(path) as handle:
            text = handle.read()
        # flip the payload without breaking the JSON: parses fine,
        # fails the CRC — the silent-rot case only the checksum catches
        with open(path, "w") as handle:
            handle.write(text.replace('"value": 42', '"value": 43'))
        with pytest.raises(ValueError, match="checksum"):
            checkpoint.load_result(0)
        resumed = Checkpoint(checkpoint.directory)
        assert resumed.open(plan) == set()   # demoted, will re-run
        assert resumed.statuses()[0] == "pending"

    def test_legacy_v1_results_still_restore(self, tmp_path):
        plan, checkpoint = self._checkpoint_with_result(tmp_path)
        with open(checkpoint.result_path(0)) as handle:
            document = json.load(handle)
        document["schema"] = "repro.par.shard_result/v1"
        del document["crc32"]
        atomic_write_json(checkpoint.result_path(0), document)
        resumed = Checkpoint(checkpoint.directory)
        assert resumed.open(plan) == {0}


# ---------------------------------------------------------------------------
# quarantine: dead-lettered poison shards survive resume
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_poison_shard_quarantines_without_failing_the_run(self):
        plan = _plan(2, 8, 4, mode="raise", fail_shards=[1])
        outcome = run_plan(plan, SELFTEST, jobs=1, retries=1,
                           backoff_base=0.0, quarantine=True)
        assert outcome.ok               # quarantine != failure
        assert not outcome.failures
        assert [q.shard_id for q in outcome.quarantined] == [1]
        assert outcome.quarantined[0].reason == "error"
        assert outcome.quarantined[0].attempts == 2
        assert sorted(outcome.results) == [0, 2, 3]

    def test_quarantine_survives_resume_without_rerun(self, tmp_path):
        plan = _plan(2, 8, 4, mode="raise", fail_shards=[1])
        first = run_plan(plan, SELFTEST, jobs=1, retries=1,
                         backoff_base=0.0, quarantine=True,
                         checkpoint=Checkpoint(str(tmp_path / "c")))
        assert [q.shard_id for q in first.quarantined] == [1]
        checkpoint = Checkpoint(str(tmp_path / "c"))
        assert checkpoint.quarantined()[0]["shard_id"] == 1
        assert os.path.exists(checkpoint.quarantine_path(1))
        plan_again = _plan(2, 8, 4, mode="raise", fail_shards=[1])
        second = run_plan(plan_again, SELFTEST, jobs=1, retries=1,
                          backoff_base=0.0, quarantine=True,
                          checkpoint=Checkpoint(str(tmp_path / "c")))
        # the poison shard is a settled verdict: restored, not re-run
        assert second.executed == []
        assert [q.shard_id for q in second.quarantined] == [1]
        assert sorted(second.restored) == [0, 2, 3]

    def test_without_quarantine_failures_still_sink_the_run(self):
        plan = _plan(2, 8, 4, mode="raise", fail_shards=[1])
        outcome = run_plan(plan, SELFTEST, jobs=1, retries=1,
                           backoff_base=0.0)
        assert not outcome.ok
        assert [f.shard_id for f in outcome.failures] == [1]
        assert not outcome.quarantined


# ---------------------------------------------------------------------------
# chaos cells and the campaign gate
# ---------------------------------------------------------------------------

class TestChaosCell:
    def test_poison_cell_converges_with_no_faults(self, tmp_path):
        schedule = ChaosSchedule(seed=1, faults=(), max_injections=0)
        outcome = run_chaos_cell(
            "selftest", 5, work_dir=str(tmp_path), schedule=schedule,
            jobs=1)
        assert outcome.verdict == "converged"
        assert outcome.rounds == 1
        assert outcome.crashes == 0
        # the poison shard quarantines in reference AND chaos runs —
        # matching dead-letter sets are convergence, not divergence
        assert [q["shard_id"] for q in outcome.quarantined] \
            == [POISON_SHARD]

    def test_cell_self_heals_under_io_and_crash_faults(self, tmp_path):
        schedule = ChaosSchedule(
            seed=9, faults=("enospc", "eio", "torn_write",
                            "stale_tmp", "corrupt_result"),
            period=2, max_injections=1)
        outcome = run_chaos_cell(
            "selftest", 11, work_dir=str(tmp_path), schedule=schedule,
            jobs=1)
        assert outcome.verdict in ("converged", "quarantined")
        assert outcome.verdict != "diverged"
        assert sum(outcome.injections.values()) > 0
        assert outcome.rounds >= 1

    def test_one_worker_pool_absorbs_worker_kills(self, tmp_path):
        schedule = ChaosSchedule(seed=0, faults=("worker_kill",),
                                 period=1, max_injections=2)
        outcome = run_chaos_cell(
            "selftest", 4, work_dir=str(tmp_path), schedule=schedule,
            jobs=1)
        # a killed worker is respawned and its shard requeued inside
        # the round, as at any --jobs: nothing aborts the run
        assert outcome.crashes == 0
        assert outcome.rounds == 1
        assert outcome.injections["worker_kill"] == 2
        assert outcome.verdict in ("converged", "quarantined")

    def test_two_worker_kills_never_hang_the_pool(self, tmp_path):
        # Regression: a worker SIGKILLed while its queue feeder thread
        # held the lock of a result queue shared by every worker left
        # the survivors blocked and the parent polling an empty queue
        # forever.  One subprocess per run, so a hang fails the test
        # at its timeout instead of wedging the suite.
        import signal
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from repro.resil.chaos import (\n"
            "    HOST_FAULT_CLASSES, ChaosSchedule, run_chaos_cell)\n"
            "schedule = ChaosSchedule(seed=11, faults=HOST_FAULT_CLASSES,\n"
            "                         period=2, max_injections=2)\n"
            "outcome = run_chaos_cell('fuzz', 11, work_dir=sys.argv[1],\n"
            "                         schedule=schedule, jobs=2)\n"
            "print(outcome.verdict)\n")
        for run in range(3):
            work_dir = tmp_path / f"run{run}"
            work_dir.mkdir()
            # its own session, so a hung run's workers die with it
            child = subprocess.Popen(
                [sys.executable, "-c", script, str(work_dir)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True)
            try:
                out, err = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                pytest.fail(f"chaos cell run {run} hung past 60 s")
            assert child.returncode == 0, err
            assert out.split()[-1] in ("converged", "quarantined")

    def test_cell_metrics_are_numbers_only(self, tmp_path):
        schedule = ChaosSchedule(seed=1, faults=(), max_injections=0)
        outcome = run_chaos_cell(
            "selftest", 5, work_dir=str(tmp_path), schedule=schedule,
            jobs=1)
        def leaves(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from leaves(value)
            else:
                yield node
        assert all(isinstance(leaf, (int, float)) and
                   not isinstance(leaf, bool)
                   for leaf in leaves(outcome.metrics()))


class TestChaosMatrix:
    def _matrix(self, tmp_path):
        return run_chaos_campaign(
            seed=0, kinds=(), faults=("enospc", "torn_write",
                                      "worker_kill"),
            period=2, max_injections=1, jobs=1,
            work_dir=str(tmp_path / "work"))

    def test_campaign_document_passes_gate_and_validates(
            self, tmp_path):
        from repro.obs import validate_document
        doc = self._matrix(tmp_path)
        assert validate_document(doc) == []
        assert check_matrix(doc) == []
        cells = doc["metrics"]["cells"]
        assert set(cells) == {"selftest-poison"}
        assert doc["metrics"]["totals"]["diverged"] == 0

    def test_gate_flags_divergence_and_bad_totals(self, tmp_path):
        doc = self._matrix(tmp_path)
        row = doc["metrics"]["cells"]["selftest-poison"]
        for verdict in CELL_VERDICTS:
            row[verdict] = 0
        row["diverged"] = 1
        row["diff_lines"] = 3
        violations = check_matrix(doc)
        assert any("DIVERGED" in v for v in violations)
        assert any("totals" in v for v in violations)

    def test_gate_flags_missing_and_multiple_verdicts(self, tmp_path):
        doc = self._matrix(tmp_path)
        row = doc["metrics"]["cells"]["selftest-poison"]
        saved = {v: row[v] for v in CELL_VERDICTS}
        for verdict in CELL_VERDICTS:
            row[verdict] = 0
        assert any("no verdict" in v for v in check_matrix(doc))
        for verdict in CELL_VERDICTS:
            row[verdict] = 1
        assert any("multiple verdicts" in v for v in check_matrix(doc))
        row.update(saved)

    def test_cli_gate_and_artifact(self, tmp_path, capsys):
        from repro.resil.chaos import main
        out = str(tmp_path / "chaos-matrix.json")
        code = main(["--kinds", "", "--quiet", "--check",
                     "--faults", "enospc,torn_write",
                     "--work-dir", str(tmp_path / "work"),
                     "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "gate passed" in printed
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["name"] == "chaos"
        assert check_matrix(doc) == []

    def test_error_taxonomy(self):
        # the crash/absorb split the whole harness leans on
        assert issubclass(InjectedIOFault, OSError)
        assert issubclass(InjectedIOFault, InjectedFault)
        assert issubclass(InjectedCrash, InjectedFault)
        assert not issubclass(InjectedCrash, OSError)
