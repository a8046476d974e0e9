"""Tests for repro.par: deterministic seed-splitting, shard planning,
the crash-recovering worker pool, checkpoint resume, and the merge
layer's sequential-identical guarantee."""

import json
import os
import pickle

import pytest

from repro.compiler import CompilerOptions
from repro.errors import (
    MemoryFault, SourceError, StepBudgetExceeded, WorkloadTrapped,
)
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.driver import FuzzStats, run_fuzz
from repro.par.checkpoint import Checkpoint, CheckpointMismatch
from repro.par.engine import run_campaign_plan
from repro.par.kinds import plan_fuzz, plan_resil
from repro.par.merge import canonical_metrics, diff_documents
from repro.par.plan import (
    ShardPlan, ShardSpec, plan_indices, plan_range, split_evenly,
)
from repro.par.pool import (
    PlanResult, ShardFailure, ShardRunnerError, run_plan,
)
from repro.par.seeds import (
    GOLDEN_GAMMA, backoff_delay, derive_seed, jittered_backoff,
    shard_seed, splitmix64,
)
from repro.resil.faults import FaultPlan

SELFTEST = "repro.par.campaigns:run_selftest_shard"


def test_import_repro_does_not_load_the_pool():
    """``import repro`` reaches ``repro.par.seeds`` (retry reseeding);
    the package root must not drag the pool and merge layers in."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = (f"import sys; sys.path.insert(0, {src!r})\n"
              "import repro\n"
              "loaded = sorted(m for m in sys.modules\n"
              "                if m.startswith('repro.par'))\n"
              "assert 'repro.par.pool' not in sys.modules, loaded\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# seeds: the repo's one splitmix64
# ---------------------------------------------------------------------------

class TestSeeds:
    def test_splitmix64_golden_vector(self):
        # the standard splitmix64 test vector: first output for seed 0
        assert splitmix64(GOLDEN_GAMMA) == 0xE220A8397B1DCDAF

    def test_derive_seed_golden_values(self):
        # pinned: these exact values seed persisted resil campaigns
        assert derive_seed(0, 1) == 0xE220A8397B1DCDAF
        assert derive_seed(42, 3) == 0x47526757130F9F52

    def test_derive_seed_attempt_zero_is_identity(self):
        assert derive_seed(1234, 0) == 1234

    def test_retry_module_reexports_shared_helpers(self):
        # satellite 1: resil.retry must use the exact same splitmix64
        from repro.resil import retry
        assert retry.derive_seed is derive_seed
        assert retry.backoff_delay is backoff_delay

    def test_shard_seed_distinct_and_64bit(self):
        seeds = [shard_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2 ** 64 for s in seeds)

    def test_shard_seed_differs_from_retry_namespace(self):
        # domain separation: shard i's seed is not retry attempt i's
        assert shard_seed(0, 0) != derive_seed(0, 1)

    def test_shard_seed_rejects_negative_index(self):
        with pytest.raises(ValueError):
            shard_seed(0, -1)

    def test_backoff_delay_doubles(self):
        assert [backoff_delay(0.1, a) for a in range(4)] \
            == [0.1, 0.2, 0.4, 0.8]

    def test_jittered_backoff_golden_values(self):
        # pinned: seeded jitter must stay byte-stable across refactors
        # (retry timing is part of the deterministic-replay contract)
        assert [jittered_backoff(0.1, a, 7) for a in range(4)] \
            == pytest.approx([0.11632463251904675,
                              0.19993571527220494,
                              0.30160054653054746,
                              0.8571751160925519])

    def test_jittered_backoff_varies_by_seed_not_randomness(self):
        assert jittered_backoff(0.1, 0, 7) \
            == jittered_backoff(0.1, 0, 7)
        assert jittered_backoff(0.1, 0, 7) != jittered_backoff(0.1, 0, 8)

    def test_jittered_backoff_is_bounded_by_spread(self):
        for attempt in range(6):
            for seed in range(32):
                delay = jittered_backoff(0.1, attempt, seed, spread=0.5)
                plain = backoff_delay(0.1, attempt)
                assert 0.75 * plain <= delay <= 1.25 * plain

    def test_jittered_backoff_zero_spread_is_plain_backoff(self):
        assert [jittered_backoff(0.1, a, 7, spread=0.0)
                for a in range(4)] \
            == [backoff_delay(0.1, a) for a in range(4)]


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

class TestPlan:
    def test_split_evenly_partitions_contiguously(self):
        chunks = split_evenly(10, 3)
        assert chunks == [(0, 4), (4, 3), (7, 3)]
        assert sum(count for _, count in chunks) == 10

    def test_split_evenly_more_parts_than_items(self):
        assert split_evenly(2, 5) == [(0, 1), (1, 1)]

    def test_plan_range_covers_the_range_in_order(self):
        plan = plan_range("selftest", 3, 11, params={}, shards=4)
        spans = [(s.items[0], s.items[1]) for s in plan.shards]
        assert sum(count for _, count in spans) == 11
        ends = [start + count for start, count in spans]
        starts = [start for start, _ in spans]
        assert starts[1:] == ends[:-1]     # contiguous, ordered

    def test_plan_shards_get_distinct_derived_seeds(self):
        plan = plan_indices("selftest", 9, list(range(8)), params={},
                            shards=4)
        seeds = [s.seed for s in plan.shards]
        assert seeds == [shard_seed(9, i) for i in range(4)]
        assert len(set(seeds)) == 4

    def test_plan_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ShardPlan(kind="nope", seed=0, params={}, shards=[])

    def test_fingerprint_is_stable_and_content_sensitive(self):
        a = plan_indices("selftest", 1, [0, 1], params={"x": 1},
                         shards=2)
        b = plan_indices("selftest", 1, [0, 1], params={"x": 1},
                         shards=2)
        c = plan_indices("selftest", 2, [0, 1], params={"x": 1},
                         shards=2)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_plan_round_trips_through_dict(self):
        plan = plan_indices("selftest", 5, list(range(6)),
                            params={"mode": "ok"}, shards=3)
        again = ShardPlan.from_dict(plan.to_dict())
        assert again.fingerprint() == plan.fingerprint()
        assert again.shards[1].items == plan.shards[1].items


# ---------------------------------------------------------------------------
# satellite 2: artifacts must survive pickling (multiprocessing) and
# JSON round-trips (checkpoint shard results)
# ---------------------------------------------------------------------------

class TestPicklability:
    def test_errors_pickle_with_custom_init_signatures(self):
        trap = StepBudgetExceeded("budget", executed=10, limit=5)
        cases = [
            SourceError("bad token", line=3, col=7),
            MemoryFault("unmapped", address=0xDEAD),
            trap,
            WorkloadTrapped("treeadd", "wrapped", trap),
        ]
        for exc in cases:
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            for key, value in exc.__dict__.items():
                cloned = clone.__dict__[key]
                if isinstance(value, BaseException):
                    # exceptions compare by identity; match by repr
                    assert repr(cloned) == repr(value)
                else:
                    assert cloned == value, key

    def test_compiler_options_pickle(self):
        options = CompilerOptions.subheap()
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options

    def test_fault_plan_json_round_trip(self):
        plan = FaultPlan.single("metadata_corrupt", seed=3)
        clone = FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_corpus_entry_json_round_trip(self):
        entry = CorpusEntry(
            name="x-s1-i2-abc", kind="false_positive", detail="d",
            seed=1, iteration=2, iteration_seed=99,
            configs=["baseline"], source_sha256="ab" * 32,
            repro="python -m repro.fuzz --seed 1",
            config="baseline", extra={"minimized_lines": 5})
        clone = CorpusEntry.from_dict(
            json.loads(json.dumps(entry.to_dict())))
        assert clone == entry
        assert pickle.loads(pickle.dumps(entry)) == entry

    def test_fuzz_stats_round_trip_is_lossless(self):
        stats = FuzzStats(seed=3, configs=["baseline", "wrapped"])
        stats.programs = 4
        stats.attacks_injected = 2
        stats.trap_histogram[("wrapped", "PoisonTrap")] = 2
        clone = FuzzStats.from_dict(
            json.loads(json.dumps(stats.to_dict())))
        assert clone.to_dict() == stats.to_dict()
        assert clone.trap_histogram == stats.trap_histogram

    def test_shard_failure_round_trip(self):
        failure = ShardFailure(shard_id=3, reason="timeout",
                               attempts=2, detail="budget")
        assert ShardFailure.from_dict(
            json.loads(json.dumps(failure.to_dict()))) == failure


# ---------------------------------------------------------------------------
# the pool: determinism, work stealing, crash recovery
# ---------------------------------------------------------------------------

def _selftest_plan(seed, total, shards, **params):
    params.setdefault("fail_shards", [])
    return plan_indices("selftest", seed, list(range(total)),
                        params=params, shards=shards)


def _values(outcome: PlanResult, plan: ShardPlan):
    return [outcome.results[s.shard_id]["value"] for s in plan.shards]


class TestPool:
    def test_inline_equals_multiprocess(self):
        inline = run_plan(_selftest_plan(7, 20, 6), SELFTEST, jobs=1)
        plan = _selftest_plan(7, 20, 6)
        multi = run_plan(plan, SELFTEST, jobs=3)
        assert _values(multi, plan) \
            == _values(inline, _selftest_plan(7, 20, 6))
        assert multi.ok and inline.ok

    def test_raise_becomes_typed_failure_after_retries(self):
        plan = _selftest_plan(2, 8, 4, mode="raise", fail_shards=[1])
        outcome = run_plan(plan, SELFTEST, jobs=2, retries=1,
                           backoff_base=0.01)
        assert [f.shard_id for f in outcome.failures] == [1]
        assert outcome.failures[0].reason == "error"
        assert outcome.failures[0].attempts == 2
        assert outcome.retries == 1
        assert sorted(outcome.results) == [0, 2, 3]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_crash_is_recovered_and_respawned(self, jobs):
        plan = _selftest_plan(2, 8, 4, mode="crash", fail_shards=[0])
        outcome = run_plan(plan, SELFTEST, jobs=jobs, retries=1,
                           backoff_base=0.01)
        assert [f.reason for f in outcome.failures] == ["crash"]
        assert sorted(outcome.results) == [1, 2, 3]
        assert sum(w.respawns for w in outcome.workers) >= 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_wall_clock_budget_terminates_hung_shard(self, jobs):
        plan = _selftest_plan(2, 8, 4, mode="hang", fail_shards=[2],
                              hang_seconds=60.0)
        outcome = run_plan(plan, SELFTEST, jobs=jobs, retries=1,
                           backoff_base=0.01, shard_timeout=0.5)
        assert [f.reason for f in outcome.failures] == ["timeout"]
        assert sorted(outcome.results) == [0, 1, 3]

    def test_timed_out_worker_keeps_its_sigterm(self):
        """The SIGTERM that ends a timed-out worker must not reach the
        parent: neither through the drain handler the worker inherits
        from a CLI, nor through an inherited signal wakeup fd (asyncio's
        self-pipe in ``python -m repro.serve``, which drained the whole
        service on the first shard timeout)."""
        import signal
        import socket
        import threading
        import time

        from repro.par.pool import install_drain_handler

        stop = threading.Event()
        restore = install_drain_handler(stop)
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            started = time.monotonic()
            outcome = run_plan(
                _selftest_plan(2, 4, 2, mode="hang", fail_shards=[0],
                               hang_seconds=60.0),
                SELFTEST, jobs=1, retries=0, shard_timeout=0.5)
            elapsed = time.monotonic() - started
        finally:
            signal.set_wakeup_fd(previous_fd)
            restore()
        try:
            leaked = reader.recv(64)
        except BlockingIOError:
            leaked = b""
        reader.close()
        writer.close()
        assert [f.reason for f in outcome.failures] == ["timeout"]
        assert leaked == b""
        assert not stop.is_set()
        # the worker dies at SIGTERM instead of outliving the pool's
        # 5 s grace before SIGKILL
        assert elapsed < 4.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unresolvable_runner_raises_typed(self, jobs):
        plan = _selftest_plan(2, 8, 4)
        for ref in ("repro.par.campaigns:no_such_runner",
                    "no_such_module:run", "not-a-reference"):
            with pytest.raises(ShardRunnerError):
                run_plan(plan, ref, jobs=jobs)

    def test_flaky_shard_recovers_within_retry_budget(self):
        plan = _selftest_plan(2, 8, 4, mode="flaky", fail_shards=[3],
                              succeed_attempt=1)
        outcome = run_plan(plan, SELFTEST, jobs=2, retries=2,
                           backoff_base=0.01)
        assert outcome.ok
        assert outcome.retries == 1
        # the recovered shard's payload matches a clean sequential run
        # (the selftest runner's 'attempt' diagnostic aside)
        reference = run_plan(_selftest_plan(2, 8, 4), SELFTEST, jobs=1)
        assert outcome.results[3]["value"] \
            == reference.results[3]["value"]
        assert outcome.results[3]["items"] \
            == reference.results[3]["items"]

    def test_steals_are_counted(self):
        plan = _selftest_plan(7, 20, 6)
        outcome = run_plan(plan, SELFTEST, jobs=3)
        assert outcome.steals \
            == sum(w.steals for w in outcome.workers)


class TestCheckpoint:
    def test_resume_skips_completed_shards(self, tmp_path):
        marker = tmp_path / "marker"
        marker.touch()
        params = {"mode": "marker", "fail_shards": [1],
                  "marker": str(marker)}
        plan = plan_indices("selftest", 3, list(range(12)),
                            params=params, shards=4)
        first = run_plan(plan, SELFTEST, jobs=2, retries=0,
                         checkpoint=Checkpoint(str(tmp_path / "ck")))
        assert [f.shard_id for f in first.failures] == [1]

        marker.unlink()     # the environmental failure clears
        plan_again = plan_indices("selftest", 3, list(range(12)),
                                  params=params, shards=4)
        second = run_plan(plan_again, SELFTEST, jobs=2, retries=0,
                          checkpoint=Checkpoint(str(tmp_path / "ck")))
        assert sorted(second.restored) == [0, 2, 3]
        assert second.executed == [1]
        assert second.ok

        # merged values match a run that never failed
        clean = run_plan(_selftest_plan(3, 12, 4), SELFTEST, jobs=1)
        assert _values(second, plan_again) \
            == _values(clean, _selftest_plan(3, 12, 4))

    def test_checkpoint_rejects_a_different_plan(self, tmp_path):
        checkpoint = Checkpoint(str(tmp_path / "ck"))
        run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                 checkpoint=checkpoint)
        with pytest.raises(CheckpointMismatch):
            Checkpoint(str(tmp_path / "ck")).open(
                _selftest_plan(4, 8, 4))

    def test_fully_restored_plan_runs_nothing(self, tmp_path):
        checkpoint = Checkpoint(str(tmp_path / "ck"))
        run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                 checkpoint=checkpoint)
        again = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=2,
                         checkpoint=Checkpoint(str(tmp_path / "ck")))
        assert not again.executed
        assert sorted(again.restored) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# merge: sequential-identical campaign outputs
# ---------------------------------------------------------------------------

class TestMergeDeterminism:
    FUZZ_CONFIGS = ("baseline", "wrapped")

    def test_sharded_fuzz_matches_sequential(self, tmp_path):
        sequential = run_fuzz(
            8, seed=11, configs=list(self.FUZZ_CONFIGS),
            corpus_dir=str(tmp_path / "seq"), plant_bug=True,
            log=lambda message: None)
        plan = plan_fuzz(8, 11, configs=list(self.FUZZ_CONFIGS),
                         corpus_dir=str(tmp_path / "par"),
                         plant_bug=True, jobs=2)
        merged, outcome = run_campaign_plan(plan, jobs=2)
        assert outcome.ok

        expected = sequential.to_dict()
        actual = merged.to_dict()
        expected.pop("elapsed"), actual.pop("elapsed")
        # failure records embed their corpus paths; the two runs use
        # different directories by construction — normalize those
        normalized = json.loads(
            json.dumps(expected).replace(str(tmp_path / "seq"),
                                         str(tmp_path / "par")))
        assert actual == normalized

        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert sorted(p.name for p in seq_dir.iterdir()) \
            == sorted(p.name for p in par_dir.iterdir())
        for path in seq_dir.iterdir():
            assert (par_dir / path.name).read_bytes() \
                == path.read_bytes(), path.name

    def test_temporal_plans_keep_old_fingerprints(self, tmp_path):
        """Back-compat: plans built before the temporal policy existed
        carry no ``temporal`` params key, and planning with the default
        policy must reproduce them byte-for-byte (same fingerprint) so
        old checkpoint manifests keep verifying."""
        default = plan_fuzz(4, 7, configs=["baseline"],
                            corpus_dir=str(tmp_path / "c"), jobs=2)
        assert "temporal" not in default.params
        # a pre-temporal manifest round-trips to the same fingerprint
        old_manifest = json.loads(json.dumps(default.to_dict()))
        assert "temporal" not in old_manifest["params"]
        assert ShardPlan.from_dict(old_manifest).fingerprint() \
            == default.fingerprint()
        # arming the policy is recorded and changes the fingerprint
        armed = plan_fuzz(4, 7, configs=["baseline"],
                          corpus_dir=str(tmp_path / "c"), jobs=2,
                          temporal="check")
        assert armed.params["temporal"] == "check"
        assert armed.fingerprint() != default.fingerprint()

    def test_old_manifest_without_temporal_key_still_executes(
            self, tmp_path):
        plan = plan_fuzz(2, 3, configs=["baseline"],
                         corpus_dir=str(tmp_path / "c"), jobs=1,
                         inject=False)
        revived = ShardPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        merged, outcome = run_campaign_plan(revived, jobs=1)
        assert outcome.ok
        assert merged.temporal == "off"

    def test_armed_juliet_plan_covers_temporal_cases(self):
        from repro.juliet.cases import generate_cases, \
            generate_temporal_cases
        from repro.par.kinds import plan_juliet
        default = plan_juliet(jobs=2)
        armed = plan_juliet(jobs=2, temporal="check")
        assert "temporal" not in default.params
        assert armed.params["temporal"] == "check"
        spatial, temporal = len(generate_cases()), \
            len(generate_temporal_cases())
        assert sum(len(s.items) for s in default.shards) == spatial
        assert sum(len(s.items) for s in armed.shards) \
            == spatial + temporal

    def test_juliet_cli_temporal_flag(self, tmp_path, monkeypatch, capsys):
        import repro.par.__main__ as cli
        from repro.par.kinds import plan_juliet
        plans = []

        def spy(**kwargs):
            plans.append(plan_juliet(**kwargs))
            return plans[-1]

        monkeypatch.setattr(cli, "plan_juliet", spy)
        for temporal in ("off", "check"):
            out = tmp_path / f"juliet-{temporal}.json"
            assert cli.main(["juliet", "--quiet", "--temporal", temporal,
                             "--out", str(out)]) == 0
            config = json.loads(out.read_text())["config"]
            assert config.get("temporal", "off") == temporal
            assert plans[-1].params.get("temporal", "off") == temporal
        assert "temporal" not in plans[0].params
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [[], ["--shard-timeout", "30"]],
                             ids=["no-pool-flags", "shard-timeout"])
    @pytest.mark.parametrize("cli", ["fuzz", "resil", "par-juliet"])
    def test_shard_timeout_selects_the_pool_at_one_job(
            self, cli, flags, tmp_path, monkeypatch, capsys):
        """Every CLI run goes through the pool with a drain event, at
        the default one job and with or without pool flags."""
        import importlib
        import threading

        import repro.par.cli as front
        seen = []
        real = front.run_campaign_plan

        def spy(plan, **options):
            seen.append(options)
            return real(plan, **options)

        monkeypatch.setattr(front, "run_campaign_plan", spy)
        module, _, command = cli.partition("-")
        main = importlib.import_module(f"repro.{module}.__main__").main
        args = {"fuzz": ["-n", "2", "--no-inject",
                         "--corpus", str(tmp_path)],
                "resil": ["--workloads", "treeadd",
                          "--schemes", "local_offset",
                          "--faults", "metadata_corrupt"],
                "par": [command]}[module]
        assert main(args + ["--quiet"] + flags) == 0
        assert [(o["jobs"], o["shard_timeout"]) for o in seen] \
            == [(1, 30.0 if flags else None)]
        assert isinstance(seen[0]["stop"], threading.Event)
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sharded_resil_matches_sequential(self, jobs):
        from repro.resil.matrix import SCHEMES, run_campaign
        kwargs = dict(workloads=("treeadd",), schemes=SCHEMES,
                      faults=("metadata_corrupt",), seed=4)
        sequential = run_campaign(**kwargs)
        plan = plan_resil(jobs=jobs, **{k: list(v) if isinstance(v, tuple)
                                        else v for k, v in kwargs.items()})
        merged, outcome = run_campaign_plan(plan, jobs=jobs)
        assert outcome.ok
        assert canonical_metrics(merged.to_dict()) \
            == canonical_metrics(sequential.to_dict())
        assert merged.ok == sequential.ok

    def test_resil_worker_reuses_one_runner(self, monkeypatch):
        """Oracle for the per-worker runner memo: two shards of one
        plan give the same payloads with the memo kept as with it
        cleared between them, and the kept memo compiles each
        (workload, scheme) pair once."""
        import repro.resil.matrix as matrix
        from repro.par.campaigns import _resil_runner, run_resil_shard

        plan = plan_resil(workloads=["treeadd"],
                          schemes=["local_offset", "subheap"],
                          faults=["metadata_corrupt", "mac_corrupt"],
                          seed=4, jobs=1, shard_size=2)
        shards = [shard.to_dict() for shard in plan.shards]
        assert [shard["items"] for shard in shards] == [[0, 1], [2, 3]]
        compiled = []
        real = matrix.compile_source

        def counting(source, options):
            compiled.append(options)
            return real(source, options)

        monkeypatch.setattr(matrix, "compile_source", counting)
        _resil_runner.cache_clear()
        reused = [run_resil_shard(shard, 0) for shard in shards]
        assert len(compiled) == 2     # one per (workload, scheme) pair

        fresh = []
        for shard in shards:
            _resil_runner.cache_clear()
            fresh.append(run_resil_shard(shard, 0))
        _resil_runner.cache_clear()
        assert reused == fresh
        assert len(compiled) == 2 + 4


class TestDiffDocuments:
    def test_timing_fields_are_ignored_by_default(self):
        a = {"elapsed": 1.0, "runs_per_second": 9.0, "count": 3,
             "nested": {"wall_seconds": 2.0, "x": 1}}
        b = {"elapsed": 5.0, "runs_per_second": 2.0, "count": 3,
             "nested": {"wall_seconds": 9.0, "x": 1}}
        assert diff_documents(a, b) == []
        assert diff_documents(a, b, ignore_timing=False)

    def test_real_differences_are_reported(self):
        differences = diff_documents({"count": 3}, {"count": 4})
        assert len(differences) == 1
        assert "count" in differences[0]

    def test_par_diff_cli(self, tmp_path, capsys):
        from repro.par.__main__ import main
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"n": 1, "elapsed": 1.0}))
        b.write_text(json.dumps({"n": 1, "elapsed": 2.0}))
        assert main(["diff", str(a), str(b)]) == 0
        b.write_text(json.dumps({"n": 2, "elapsed": 2.0}))
        assert main(["diff", str(a), str(b)]) == 1
        capsys.readouterr()


    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "malformed"])
    def test_par_diff_cli_unreadable_document(self, content, tmp_path,
                                              capsys):
        from repro.par.__main__ import main
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"n": 1}))
        if content is not None:
            bad.write_text(content)
        for pair in ([str(good), str(bad)], [str(bad), str(good)]):
            assert main(["diff", *pair]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cannot read {bad}: ")


# ---------------------------------------------------------------------------
# obs integration: shard events drive the utilization report
# ---------------------------------------------------------------------------

class TestPoolObservability:
    def test_events_stream_written_and_rendered(self, tmp_path):
        from repro.obs.__main__ import render_pool_events
        from repro.par.engine import execute_plan
        plan = _selftest_plan(6, 12, 4)
        outcome = execute_plan(plan, jobs=2, checkpoint_dir=None,
                               shard_timeout=None, shard_retries=2,
                               backoff_base=0.01, log=None,
                               events_out=str(tmp_path / "events.jsonl"))
        assert outcome.ok
        records = [json.loads(line) for line in
                   (tmp_path / "events.jsonl").read_text().splitlines()]
        kinds = {record["kind"] for record in records}
        assert "shard_start" in kinds and "shard_done" in kinds
        report = render_pool_events(records)
        assert "worker 0" in report and "worker 1" in report
        assert "4 shards ok" in report

    def test_utilization_metrics_shape(self):
        plan = _selftest_plan(6, 8, 4)
        outcome = run_plan(plan, SELFTEST, jobs=2)
        metrics = outcome.utilization_metrics()
        assert metrics["shards_executed"] == 4
        assert set(metrics["workers"]) == {"0", "1"}
        for stats in metrics["workers"].values():
            assert 0.0 <= stats["utilization"]


# ---------------------------------------------------------------------------
# graceful drain: stop event + SIGTERM/SIGINT handler
# ---------------------------------------------------------------------------

class TestDrain:
    def _drain_after_first_shard(self, jobs, tmp_path):
        """Set the stop event off the bus as soon as one shard lands;
        the run must checkpoint what finished and report drained."""
        import threading

        from repro.obs.events import EventBus, ShardDoneEvent

        stop = threading.Event()
        bus = EventBus()
        bus.subscribe(lambda event: stop.set()
                      if isinstance(event, ShardDoneEvent) else None)
        plan = _selftest_plan(5, 12, 6, sleep_seconds=0.05)
        checkpoint = Checkpoint(str(tmp_path / "ck"))
        outcome = run_plan(plan, SELFTEST, jobs=jobs, bus=bus,
                           checkpoint=checkpoint, stop=stop)
        assert outcome.drained
        assert not outcome.ok or len(outcome.executed) < 6
        assert "drained" in outcome.summary()
        assert outcome.utilization_metrics()["drained"] == 1
        statuses = Checkpoint(str(tmp_path / "ck")).statuses()
        assert set(statuses.values()) <= {"done", "pending"}
        assert list(statuses.values()).count("done") \
            == len(outcome.executed)

        # resuming the same plan finishes it, values sequential-equal
        resumed = run_plan(_selftest_plan(5, 12, 6,
                                          sleep_seconds=0.05),
                           SELFTEST, jobs=jobs,
                           checkpoint=Checkpoint(str(tmp_path / "ck")))
        assert resumed.ok and not resumed.drained
        assert sorted(resumed.restored) == sorted(outcome.executed)
        clean = run_plan(_selftest_plan(5, 12, 6), SELFTEST, jobs=1)
        assert _values(resumed, plan) \
            == _values(clean, _selftest_plan(5, 12, 6))

    def test_drained_document_is_labelled(self, tmp_path, monkeypatch,
                                          capsys):
        """A checkpointed resil run stopped after its first shard writes
        its document from the partial merge: the document carries
        ``labels.drained`` and ``repro.par diff`` names it; a complete
        run's document carries no such label."""
        import json

        import repro.par.cli as front
        from repro.obs.events import EventBus, ShardDoneEvent
        from repro.par.__main__ import main as par_main
        from repro.resil.__main__ import main as resil_main

        real = front.run_campaign_plan

        def stop_after_first_shard(plan, **options):
            bus = EventBus()
            bus.subscribe(lambda event: options["stop"].set()
                          if isinstance(event, ShardDoneEvent) else None)
            return real(plan, bus=bus, **options)

        args = ["--workloads", "treeadd,health", "--schemes",
                "local_offset", "--faults", "metadata_corrupt",
                "--shard-size", "1", "--quiet"]
        drained = str(tmp_path / "drained.json")
        complete = str(tmp_path / "complete.json")
        with monkeypatch.context() as patch:
            patch.setattr(front, "run_campaign_plan",
                          stop_after_first_shard)
            assert resil_main(args + [
                "--checkpoint", str(tmp_path / "ck"),
                "--out", drained]) == front.EXIT_DRAINED
        assert resil_main(args + ["--out", complete]) == 0
        with open(drained) as handle:
            assert json.load(handle)["labels"] == {"drained": "true"}
        with open(complete) as handle:
            assert "drained" not in json.load(handle)["labels"]
        capsys.readouterr()
        assert par_main(["diff", drained, complete]) == 1
        out = capsys.readouterr().out
        assert f"{drained}: drained run" in out
        assert f"{complete}: drained run" not in out
        assert "$.labels.drained: only in first" in out

    def test_inline_drain_checkpoints_and_resumes(self, tmp_path):
        self._drain_after_first_shard(1, tmp_path)

    def test_multiprocess_drain_checkpoints_and_resumes(self, tmp_path):
        self._drain_after_first_shard(2, tmp_path)

    def test_preset_stop_dispatches_nothing(self):
        import threading
        stop = threading.Event()
        stop.set()
        plan = _selftest_plan(2, 8, 4)
        outcome = run_plan(plan, SELFTEST, jobs=1, stop=stop)
        assert outcome.drained
        assert not outcome.executed

    def test_drain_beats_retry_backoff(self):
        # a drain requested mid-retry must return immediately instead
        # of sleeping out the (here: 10s) backoff — the test hangs if
        # the ordering regresses
        import threading

        from repro.obs.events import EventBus, ShardRetryEvent

        stop = threading.Event()
        bus = EventBus()
        bus.subscribe(lambda event: stop.set()
                      if isinstance(event, ShardRetryEvent) else None)
        plan = _selftest_plan(2, 8, 4, mode="raise",
                              fail_shards=[0, 1, 2, 3])
        outcome = run_plan(plan, SELFTEST, jobs=1, retries=5,
                           backoff_base=10.0, bus=bus, stop=stop)
        assert outcome.drained
        assert outcome.retries == 1
        assert not outcome.failures   # pending, not burned retries

    def test_install_drain_handler_signal_contract(self):
        import signal
        import threading
        import time

        from repro.par.pool import install_drain_handler

        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        stop = threading.Event()
        seen = []
        restore = install_drain_handler(stop, log=seen.append)
        try:
            signal.raise_signal(signal.SIGTERM)
            deadline = time.monotonic() + 2.0
            while not stop.is_set() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert stop.is_set()
            assert any("drain requested" in line for line in seen)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGTERM)
                time.sleep(0.1)
        finally:
            restore()
        assert signal.getsignal(signal.SIGTERM) is previous_term
        assert signal.getsignal(signal.SIGINT) is previous_int


# ---------------------------------------------------------------------------
# checkpoint edge cases: torn writes, tampered manifests, SIGKILL
# ---------------------------------------------------------------------------

class TestCheckpointEdgeCases:
    def _completed_checkpoint(self, tmp_path):
        checkpoint = Checkpoint(str(tmp_path / "ck"))
        outcome = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                           checkpoint=checkpoint)
        assert outcome.ok
        return tmp_path / "ck"

    def test_truncated_shard_result_demotes_to_pending(self, tmp_path):
        directory = self._completed_checkpoint(tmp_path)
        victim = directory / "shard-0001.json"
        victim.write_text(victim.read_text()[: len(victim.read_text())
                                             // 2])
        again = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                         checkpoint=Checkpoint(str(directory)))
        assert again.ok
        assert again.executed == [1]
        assert sorted(again.restored) == [0, 2, 3]
        clean = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1)
        plan = _selftest_plan(3, 8, 4)
        assert _values(again, plan) == _values(clean, plan)

    def test_missing_shard_result_demotes_to_pending(self, tmp_path):
        directory = self._completed_checkpoint(tmp_path)
        (directory / "shard-0002.json").unlink()
        again = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                         checkpoint=Checkpoint(str(directory)))
        assert again.ok
        assert again.executed == [2]

    def test_wrong_shard_identity_in_result_demotes(self, tmp_path):
        directory = self._completed_checkpoint(tmp_path)
        victim = directory / "shard-0000.json"
        document = json.loads(victim.read_text())
        document["shard_id"] = 9   # result stolen from another shard
        victim.write_text(json.dumps(document))
        again = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                         checkpoint=Checkpoint(str(directory)))
        assert again.ok
        assert again.executed == [0]

    def test_tampered_fingerprint_refuses_resume(self, tmp_path):
        from repro.par.engine import resume_checkpoint
        directory = self._completed_checkpoint(tmp_path)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatch):
            resume_checkpoint(str(directory), jobs=1)

    def test_resume_after_sigkill_is_sequential_identical(self,
                                                          tmp_path):
        """SIGKILL a checkpointing campaign mid-flight; the resumed
        merge must equal an uninterrupted run's."""
        import os
        import signal
        import subprocess
        import sys
        import time

        directory = tmp_path / "ck"
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.par.checkpoint import Checkpoint\n"
            "from repro.par.pool import run_plan\n"
            "from repro.par.plan import plan_indices\n"
            "plan = plan_indices('selftest', 3, list(range(8)),\n"
            "    params={{'fail_shards': [], 'sleep_seconds': 0.2}},\n"
            "    shards=8)\n"
            "run_plan(plan, 'repro.par.campaigns:run_selftest_shard',\n"
            "    jobs=1, checkpoint=Checkpoint({ck!r}))\n"
        ).format(src=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), ck=str(directory))
        child = subprocess.Popen([sys.executable, "-c", script])
        deadline = time.monotonic() + 30.0
        try:
            # Kill only once a manifest row says "done": the shard result
            # file is written before its row flips, so a kill between the
            # two would leave nothing restorable.
            while time.monotonic() < deadline:
                if (directory / "manifest.json").exists() and "done" in \
                        Checkpoint(str(directory)).statuses().values():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no shard completed before the deadline")
            child.kill()
        finally:
            child.wait(timeout=30)

        plan = plan_indices(
            "selftest", 3, list(range(8)),
            params={"fail_shards": [], "sleep_seconds": 0.2}, shards=8)
        resumed = run_plan(plan, SELFTEST, jobs=1,
                           checkpoint=Checkpoint(str(directory)))
        assert resumed.ok
        assert resumed.restored   # the kill left real progress behind
        clean_plan = plan_indices(
            "selftest", 3, list(range(8)),
            params={"fail_shards": [], "sleep_seconds": 0.2}, shards=8)
        clean = run_plan(clean_plan, SELFTEST, jobs=1)
        assert _values(resumed, plan) == _values(clean, clean_plan)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path,
                                                      jobs):
        """A SIGKILLed pool leaves no orphaned worker behind."""
        import signal
        import subprocess
        import sys
        import time

        def live_members(pgid):
            members = []
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        state, _ppid, group = \
                            handle.read().rsplit(")", 1)[1].split()[:3]
                except OSError:
                    continue
                if state != "Z" and int(group) == pgid:
                    members.append(int(entry))
            return members

        directory = tmp_path / "ck"
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.par.checkpoint import Checkpoint\n"
            "from repro.par.pool import run_plan\n"
            "from repro.par.plan import plan_indices\n"
            "plan = plan_indices('selftest', 3, list(range(8)),\n"
            "    params={{'fail_shards': [], 'sleep_seconds': 0.2}},\n"
            "    shards=8)\n"
            "run_plan(plan, 'repro.par.campaigns:run_selftest_shard',\n"
            "    jobs={jobs}, checkpoint=Checkpoint({ck!r}))\n"
        ).format(src=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), ck=str(directory),
            jobs=jobs)
        # its own process group, so its workers can be found and, if the
        # check fails, killed
        child = subprocess.Popen([sys.executable, "-c", script],
                                 start_new_session=True)
        try:
            deadline = time.monotonic() + 30.0
            while not any(directory.glob("shard-*.json")):
                assert time.monotonic() < deadline, "no shard completed"
                time.sleep(0.02)
            assert len(live_members(child.pid)) > 1   # workers up
            child.kill()
            child.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while live_members(child.pid) \
                    and time.monotonic() < deadline:
                time.sleep(0.1)
            assert live_members(child.pid) == []
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


# ---------------------------------------------------------------------------
# degraded persistence: injected ENOSPC/EIO on every checkpoint call
# site must degrade writes, never sink a run
# ---------------------------------------------------------------------------

class _OpFault:
    """Injector that raises ENOSPC on atomic writes with one op tag,
    after skipping the first ``skip`` hits (so ``Checkpoint.open`` can
    still create the manifest)."""

    def __init__(self, op, skip=0):
        self.op = op
        self.skip = skip
        self.hits = 0

    def before_write(self, op, path):
        import errno
        from repro.errors import InjectedIOFault
        if op != self.op:
            return
        self.hits += 1
        if self.hits > self.skip:
            raise InjectedIOFault(f"chaos: ENOSPC writing {path}",
                                  fault="enospc", op=op, path=path,
                                  errno_code=errno.ENOSPC)

    def torn_write(self, op, path):
        return False

    def after_write(self, op, path):
        pass


class TestDegradedPersistence:
    def _run(self, tmp_path, injector, **kwargs):
        from repro.hostio import inject_faults
        with inject_faults(injector):
            return run_plan(
                _selftest_plan(3, 8, 4, **kwargs.pop("params", {})),
                SELFTEST, jobs=1, backoff_base=0.0,
                checkpoint=Checkpoint(str(tmp_path / "ck")), **kwargs)

    def test_enospc_on_manifest_degrades_not_fails(self, tmp_path):
        injector = _OpFault("manifest", skip=1)
        outcome = self._run(tmp_path, injector)
        assert outcome.ok
        assert len(outcome.results) == 4
        assert outcome.io_errors > 0
        assert injector.hits > 1

    def test_enospc_on_shard_results_degrades_not_fails(self, tmp_path):
        outcome = self._run(tmp_path, _OpFault("shard_result"))
        assert outcome.ok
        assert len(outcome.results) == 4    # kept in memory
        assert outcome.io_errors == 4       # one degraded write each
        # nothing persisted: a resume re-runs everything, still clean
        again = run_plan(_selftest_plan(3, 8, 4), SELFTEST, jobs=1,
                         checkpoint=Checkpoint(str(tmp_path / "ck")))
        assert again.ok and again.restored == []

    def test_enospc_on_quarantine_records_degrades_not_fails(
            self, tmp_path):
        outcome = self._run(
            tmp_path, _OpFault("quarantine"), retries=1,
            quarantine=True,
            params={"mode": "raise", "fail_shards": [1]})
        assert outcome.ok
        assert [q.shard_id for q in outcome.quarantined] == [1]
        assert outcome.io_errors == 1


# ---------------------------------------------------------------------------
# error serialization: every ReproError crosses the API boundary typed
# ---------------------------------------------------------------------------

class TestErrorSerialization:
    @staticmethod
    def _samples():
        import repro.errors as errors_mod
        from repro.par.checkpoint import CheckpointMismatch as CkMismatch
        trap = errors_mod.StepBudgetExceeded("budget", executed=9,
                                             limit=5)
        return {
            "SourceError": errors_mod.SourceError("bad", line=2, col=4),
            "LexError": errors_mod.LexError("tok"),
            "ParseError": errors_mod.ParseError("syntax"),
            "TypeError_": errors_mod.TypeError_("types"),
            "CompileError": errors_mod.CompileError("lowering"),
            "LinkError": errors_mod.LinkError("symbol"),
            "SimTrap": errors_mod.SimTrap("trap", pc=("main", 3)),
            "MemoryFault": errors_mod.MemoryFault("unmapped",
                                                  address=0xBEEF),
            "PoisonTrap": errors_mod.PoisonTrap("poison", pointer=7),
            "BoundsTrap": errors_mod.BoundsTrap("oob", pointer=9,
                                                lower=0, upper=8),
            "MetadataError": errors_mod.MetadataError("mac"),
            "SyscallError": errors_mod.SyscallError("bad syscall"),
            "StepBudgetExceeded": trap,
            "InvalidFree": errors_mod.InvalidFree(
                "double free", address=16, allocator="subheap",
                kind="double_free"),
            "HarnessError": errors_mod.HarnessError("verdict"),
            "WorkloadTrapped": errors_mod.WorkloadTrapped(
                "treeadd", "wrapped", trap),
            "UnexpectedOutput": errors_mod.UnexpectedOutput(
                "treeadd", "wrapped", "x", expected="y"),
            "OutputDivergence": errors_mod.OutputDivergence(
                "treeadd", {"baseline": ("1", 0), "wrapped": ("2", 0)}),
            "WorkloadTimeout": errors_mod.WorkloadTimeout(
                "slow", workload="tsp", config="subheap", seconds=1.5,
                executed=100),
            "GuestExit": errors_mod.GuestExit(3),
            "TemporalViolation": errors_mod.TemporalViolation(
                "stale key", pointer=0x1010, address=0x1000,
                key=1, lock=2, kind="stale_key", origin="load"),
            "ResourceExhausted": errors_mod.ResourceExhausted("table"),
            "ServiceError": errors_mod.ServiceError("boom"),
            "InvalidJobSpec": errors_mod.InvalidJobSpec(
                "expected integer", field="params.seed"),
            "UnknownJob": errors_mod.UnknownJob("job-000042"),
            "JobNotCancellable": errors_mod.JobNotCancellable(
                "job-000001", "done"),
            "QuotaExceeded": errors_mod.QuotaExceeded(
                "limit", tenant="alice", limit=2, retry_after=1.5),
            "QueueFull": errors_mod.QueueFull(
                "alice", depth=4, limit=4, retry_after=2.0),
            "ServiceUnavailable": errors_mod.ServiceUnavailable(),
            "CheckpointMismatch": CkMismatch("fingerprint differs"),
            "InjectedFault": errors_mod.InjectedFault(
                "chaos", fault="enospc", op="manifest", path="/tmp/x"),
            "InjectedIOFault": errors_mod.InjectedIOFault(
                "chaos: no space", fault="enospc", op="shard_result",
                path="/tmp/y", errno_code=28),
            "InjectedCrash": errors_mod.InjectedCrash(
                "chaos: torn write", fault="torn_write", op="manifest",
                path="/tmp/z"),
            "CircuitOpen": errors_mod.CircuitOpen(
                "alice", retry_after=2.0, reason="quarantine"),
        }

    @staticmethod
    def _all_subclasses():
        from repro.errors import ReproError
        import repro.par.checkpoint  # noqa: F401 — registers its class
        found, stack = set(), [ReproError]
        while stack:
            cls = stack.pop()
            for sub in cls.__subclasses__():
                found.add(sub.__name__)
                stack.append(sub)
        return found

    def test_every_subclass_has_a_sample(self):
        # a new error type must add a sample here or this fails —
        # that is how the hierarchy-wide round-trip stays exhaustive
        missing = self._all_subclasses() - set(self._samples())
        assert not missing, f"no serialization sample for: {missing}"

    def test_round_trip_preserves_type_message_and_fields(self):
        from repro.errors import ReproError
        for name, exc in self._samples().items():
            wire = json.loads(json.dumps(exc.to_dict()))
            clone = ReproError.from_dict(wire)
            assert type(clone) is type(exc), name
            assert str(clone.args[0]) == str(exc.args[0]), name
            for key, value in exc.__dict__.items():
                cloned = getattr(clone, key)
                if isinstance(value, ReproError):
                    assert type(cloned) is type(value), (name, key)
                    assert str(cloned) == str(value), (name, key)
                elif isinstance(value, tuple):
                    assert cloned == list(value), (name, key)
                elif isinstance(value, dict) and any(
                        isinstance(v, tuple) for v in value.values()):
                    assert cloned == {k: list(v) if isinstance(v, tuple)
                                      else v for k, v in value.items()}, \
                        (name, key)
                elif value is None or isinstance(value,
                                                 (bool, int, float, str,
                                                  list, dict)):
                    assert cloned == value, (name, key)

    def test_http_status_survives_round_trip(self):
        from repro.errors import QueueFull, ReproError
        exc = QueueFull("bob", depth=3, limit=3, retry_after=0.5)
        clone = ReproError.from_dict(
            json.loads(json.dumps(exc.to_dict())))
        assert clone.http_status == 429
        assert clone.retry_after == 0.5
        assert clone.depth == 3

    def test_unknown_type_raises(self):
        from repro.errors import ReproError
        with pytest.raises(ValueError):
            ReproError.from_dict({"type": "NoSuchError",
                                  "message": "x", "fields": {}})

    def test_nested_error_attribute_revives_typed(self):
        from repro.errors import (
            PoisonTrap, ReproError, WorkloadTrapped,
        )
        exc = WorkloadTrapped("anagram", "subheap",
                              PoisonTrap("poisoned", pointer=0xAB))
        clone = ReproError.from_dict(
            json.loads(json.dumps(exc.to_dict())))
        assert isinstance(clone.trap, PoisonTrap)
        assert clone.trap.pointer == 0xAB


class TestCliListChecks:
    """Each campaign CLI checks its comma-separated lists with its
    kind's parameter checks (``CampaignKind.checks``), the ones a served
    job passes: a bad value exits 2 with a message naming it."""

    @staticmethod
    def _main(cli: str):
        if cli == "par":
            from repro.par.__main__ import main
            return lambda argv: main(["bench"] + argv)
        if cli == "resil":
            from repro.resil.__main__ import main
            return main
        from repro.fuzz.__main__ import main
        return main

    @pytest.mark.parametrize("cli, flag, good", [
        ("par", "--workloads", "treeadd"),
        ("par", "--configs", "baseline"),
        ("resil", "--workloads", "anagram"),
        ("resil", "--schemes", "subheap"),
        ("resil", "--faults", "mac_corrupt"),
        ("fuzz", "--configs", "baseline"),
    ])
    def test_unknown_value_exits_2_naming_it(self, capsys, cli, flag,
                                             good):
        main = self._main(cli)
        try:
            code = main([flag, f"{good},no-such-value"])
        except SystemExit as exc:   # argparse's parser.error
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag}: unknown" in err
        assert "'no-such-value'" in err
        assert f"'{good}'" not in err.split("expected from")[0]


class TestPlanChecks:
    """``execute_plan`` runs the kind's parameter checks over a plan's
    parameters before any worker starts, so a plan no CLI or job spec
    would accept fails once, naming the parameter."""

    def test_planned_bad_engine_fails_before_any_shard(self, tmp_path):
        from repro.errors import InvalidJobSpec
        from repro.par.kinds import plan_bench

        plan = plan_bench(workloads=("treeadd",),
                          configs=("baseline", "subheap"),
                          engine="superblock")
        events = tmp_path / "events.jsonl"
        with pytest.raises(InvalidJobSpec) as info:
            run_campaign_plan(plan, jobs=1, events_out=str(events))
        assert info.value.field == "engine"
        assert "'superblock'" in str(info.value)
        assert not events.exists()

    def test_cli_value_the_checks_reject_exits_2(self, capsys):
        from repro.fuzz.__main__ import main
        assert main(["-n", "0", "--quiet"]) == 2
        assert "iterations: expected in [1, 1000000], got 0" \
            in capsys.readouterr().err

    def test_checks_accept_a_manifest_plan(self, tmp_path):
        # a manifest holds lists where planners were given tuples
        from repro.par.engine import execute_plan
        from repro.par.kinds import plan_selftest

        directory = str(tmp_path / "ckpt")
        Checkpoint(directory).open(plan_selftest(
            total=4, shards=2, fail_shards=(9,)))
        plan = Checkpoint(directory).load_plan()
        assert plan.params["fail_shards"] == [9]
        assert execute_plan(plan, jobs=1).ok

    def test_resume_of_a_legacy_engine_checkpoint_exits_2(self,
                                                         tmp_path):
        import subprocess
        import sys
        from repro.par.kinds import plan_bench

        directory = tmp_path / "ckpt"
        Checkpoint(str(directory)).open(plan_bench(
            workloads=("treeadd",), configs=("baseline",),
            engine="superblock"))
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["plan"]["params"]["engine"] == "superblock"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.par", "resume", "--checkpoint",
             str(directory), "--quiet"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 2, result.stderr
        assert "cannot resume: engine: unknown value 'superblock'" \
            in result.stderr
        assert not (directory / "events.jsonl").exists()
