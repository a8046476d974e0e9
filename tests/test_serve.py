"""Tests for repro.serve: spec validation, weighted-fair scheduling
with backpressure, the campaign service's execution/cancel/drain
lifecycle, the HTTP API (dispatched directly and over a real socket),
and the restart-recovery guarantee — a killed service resumes its
campaigns to results byte-identical (timing aside) to an uninterrupted
run."""

import inspect
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import (
    InvalidJobSpec, JobNotCancellable, QueueFull, ServiceUnavailable,
    UnknownJob,
)
from repro.obs.metrics import metrics_document, validate_document
from repro.par.kinds import CAMPAIGN_KINDS
from repro.par.merge import canonical_metrics
from repro.par.plan import plan_indices
from repro.par.pool import run_plan
from repro.serve import (
    BackgroundServer, CampaignService, JobRecord, TenantQuota,
    WeightedFairScheduler, build_plan, dispatch, validate_spec,
)

SELFTEST = "repro.par.campaigns:run_selftest_shard"


def _spec(tenant="alice", kind="selftest", workers=1, **params):
    return {"tenant": tenant, "kind": kind, "workers": workers,
            "params": params}


def _service(tmp_path, name="store", **kwargs):
    kwargs.setdefault("workers_total", 1)
    return CampaignService(str(tmp_path / name), **kwargs)


def _reference_values(total=8, seed=3, shards=4, **params):
    params.setdefault("fail_shards", [])
    params.setdefault("sleep_seconds", 0.0)
    params.setdefault("mode", "ok")
    params.setdefault("succeed_attempt", 1)
    params.setdefault("marker", "")
    plan = plan_indices("selftest", seed, list(range(total)),
                        params=params, shards=shards)
    outcome = run_plan(plan, SELFTEST, jobs=1)
    return [outcome.results[s.shard_id]["value"] for s in plan.shards]


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

class TestValidateSpec:
    def test_defaults_resolve_at_submit_time(self):
        tenant, kind, workers, params = validate_spec(_spec())
        assert (tenant, kind, workers) == ("alice", "selftest", 1)
        assert params["total"] == 8
        assert params["shards"] == 4
        assert params["mode"] == "ok"

    def test_fuzz_defaults_and_comma_configs(self):
        _, _, _, params = validate_spec(
            _spec(kind="fuzz", configs="baseline,wrapped"))
        assert params["iterations"] == 20
        assert params["configs"] == ["baseline", "wrapped"]
        assert params["engine"] == "auto"
        assert params["temporal"] == "off"

    @pytest.mark.parametrize("kind", ["fuzz", "juliet"])
    def test_temporal_param_validates(self, kind):
        _, _, _, params = validate_spec(
            _spec(kind=kind, temporal="check"))
        assert params["temporal"] == "check"
        with pytest.raises(InvalidJobSpec) as info:
            validate_spec(_spec(kind=kind, temporal="paranoid"))
        assert info.value.field == "params.temporal"

    def test_temporal_spec_builds_an_armed_plan(self):
        _, kind, workers, params = validate_spec(
            _spec(kind="fuzz", iterations=4, temporal="check"))
        armed = build_plan(kind, params, workers)
        assert armed.params["temporal"] == "check"
        # the default policy stays absent from plan params, so
        # pre-temporal checkpoint fingerprints keep verifying
        _, kind, workers, params = validate_spec(
            _spec(kind="fuzz", iterations=4))
        assert "temporal" not in build_plan(kind, params, workers).params

    @pytest.mark.parametrize("body,field", [
        ({"kind": "selftest"}, "tenant"),
        (_spec(tenant="no spaces!"), "tenant"),
        (_spec(tenant="x" * 65), "tenant"),
        ({"tenant": "a", "kind": "nope"}, "kind"),
        (_spec(workers=0), "workers"),
        (_spec(workers=99), "workers"),
        (_spec(total=0), "params.total"),
        (_spec(total="many"), "params.total"),
        (_spec(mode="explode"), "params.mode"),
        (_spec(bogus=1), "params"),
        ({**_spec(), "extra": True}, "body"),
        ("not an object", "body"),
        ({"tenant": "a", "kind": "fuzz",
          "params": {"configs": ["baseline", "nope"]}},
         "params.configs"),
    ])
    def test_invalid_specs_name_the_field(self, body, field):
        with pytest.raises(InvalidJobSpec) as info:
            validate_spec(body)
        assert info.value.field == field
        assert info.value.http_status == 400

    def test_disabled_kind_rejected(self):
        with pytest.raises(InvalidJobSpec) as info:
            validate_spec(_spec(kind="fuzz"),
                          allowed_kinds=("selftest",))
        assert info.value.field == "kind"

    def test_plan_is_pure_function_of_resolved_spec(self):
        _, kind, workers, params = validate_spec(
            _spec(kind="fuzz", iterations=5, seed=9))
        first = build_plan(kind, params, workers)
        second = build_plan(
            kind, json.loads(json.dumps(params)), workers)
        assert first.fingerprint() == second.fingerprint()


#: full plan fingerprints of every kind's default spec at workers=2,
#: pinned so stored job records and checkpoints keep verifying
PINNED_FINGERPRINTS = [
    ("fuzz", {}, "1b718af538fc9b045a8f4c2ce3e196d7"
                 "ef147c80fd9a50dfc77f54590a70415e"),
    ("fuzz", {"temporal": "check"}, "727151ddb39ec8a36b4cf0e26553a62b"
                                    "fa597fd4a2c2aaeab926fb48d59251e6"),
    ("resil", {}, "d384a6e2344ca3e15c90cdfc3c6c33dd"
                  "eeaf83e526731534981e5e44e42432c0"),
    ("juliet", {}, "0606d31bc92d4b7f8dafaf204e17bff0"
                   "d0b79d53e1d3ca8e4c8b715bdd18ad61"),
    ("juliet", {"temporal": "check"}, "e7fefd2cea020a0ccedf4a047e742281"
                                      "fa73c56add697865632f717d17d3ff4a"),
    ("bench", {}, "aae3af897093b4336e2b4778a197a7e7"
                  "58bc5197f30c31c5cf1dcb87bc6d17e6"),
    ("selftest", {}, "66036d62fefe457e245e40bd8744cd20"
                     "4b4417dabcb73b45080ae52887a20b17"),
]


@pytest.mark.parametrize("kind,params,fingerprint", PINNED_FINGERPRINTS)
def test_default_plan_fingerprints_are_pinned(kind, params, fingerprint):
    _, kind, workers, resolved = validate_spec(
        _spec(kind=kind, workers=2, **params))
    assert build_plan(kind, resolved, workers).fingerprint() \
        == fingerprint


#: every kind's empty-spec resolved params (in persisted key order) and
#: plan fingerprint at workers=1; resil and bench gained ``engine``
#: when the service began taking it, without moving the fingerprint
PINNED_EMPTY_SPECS = [
    ("fuzz", {"iterations": 20, "seed": 0,
              "configs": ["baseline", "subheap", "wrapped", "subheap-np"],
              "start": 0, "clean": True, "inject": True,
              "corpus_dir": "corpus", "minimize": True, "max_attacks": 2,
              "plant_bug": False, "timeout_seconds": None, "retries": 2,
              "backoff_base": 0.1, "engine": "auto", "temporal": "off",
              "shard_size": 0},
     "adb663ff0e46320b22a61b461267a188"
     "06a6e8b2e66e06ea1afdbbc55f71484d"),
    ("resil", {"workloads": ["treeadd", "anagram", "ks", "health"],
               "schemes": ["local_offset", "subheap", "global_table"],
               "faults": ["tag_bit_flip", "metadata_corrupt",
                          "mac_corrupt", "layout_corrupt",
                          "global_table_exhaust",
                          "subheap_register_pressure", "alloc_oom",
                          "temporal_lock_corrupt"],
               "seed": 0, "scale": 1, "timeout_seconds": 120.0,
               "strict": False, "shard_size": 0, "engine": "auto"},
     "d7e348f81d312fc8b9b734a975bece2f"
     "f1c8707e6ea0a7bc0897530813881dea"),
    ("juliet", {"seed": 0, "allocator": "wrapped", "temporal": "off",
                "shard_size": 0},
     "80aa4df86e77f4e83547ecadc96871a4"
     "a799d900c9bd556a14704aae76fb5a47"),
    ("bench", {"workloads": ["treeadd", "anagram"],
               "configs": ["baseline", "wrapped", "subheap"], "scale": 1,
               "timeout_seconds": None, "seed": 0, "shard_size": 0,
               "engine": "auto"},
     "427b1c0715d5a3691fe18bdeb3ed2e51"
     "95f206205510290fe8f95cfc29d67026"),
    ("selftest", {"total": 8, "seed": 0, "shards": 4,
                  "sleep_seconds": 0.0, "fail_shards": [], "mode": "ok",
                  "succeed_attempt": 1, "marker": ""},
     "66036d62fefe457e245e40bd8744cd20"
     "4b4417dabcb73b45080ae52887a20b17"),
]


class TestParamsFromTheTable:
    @pytest.mark.parametrize("kind", sorted(CAMPAIGN_KINDS))
    def test_empty_spec_resolves_to_the_planner_defaults(self, kind):
        campaign = CAMPAIGN_KINDS[kind]
        keywords = {name: parameter.default for name, parameter in
                    inspect.signature(campaign.plan).parameters.items()
                    if name != "jobs"}
        _, _, _, resolved = validate_spec(_spec(kind=kind))
        assert list(resolved) == list(keywords)
        assert set(campaign.checks) == set(keywords)
        for name, default in keywords.items():
            if isinstance(default, tuple):
                default = list(default)
            assert resolved[name] == default, name

    @pytest.mark.parametrize("kind,resolved,fingerprint",
                             PINNED_EMPTY_SPECS)
    def test_empty_spec_is_pinned(self, kind, resolved, fingerprint):
        _, kind, workers, params = validate_spec(_spec(kind=kind))
        assert json.dumps(params) == json.dumps(resolved)
        assert build_plan(kind, params, workers).fingerprint() \
            == fingerprint

    @pytest.mark.parametrize("kind", ["resil", "bench"])
    def test_served_engine_param(self, kind):
        _, kind, workers, params = validate_spec(
            _spec(kind=kind, engine="reference"))
        assert params["engine"] == "reference"
        assert build_plan(kind, params, workers).params["engine"] \
            == "reference"
        with pytest.raises(InvalidJobSpec) as info:
            validate_spec(_spec(kind=kind, engine="turbo"))
        assert info.value.field == "params.engine"

    def test_resil_record_without_engine_rebuilds_its_plan(self):
        # a resil record as persisted before the service took ``engine``
        kind, resolved, fingerprint = PINNED_EMPTY_SPECS[1]
        assert kind == "resil"
        old = {name: value for name, value in resolved.items()
               if name != "engine"}
        record = JobRecord.from_dict(json.loads(json.dumps({
            "job_id": "j1", "tenant": "alice", "kind": "resil",
            "workers": 1, "params": old, "status": "queued"})))
        assert build_plan(record.kind, record.params,
                          record.workers).fingerprint() == fingerprint


# ---------------------------------------------------------------------------
# weighted-fair scheduling + backpressure
# ---------------------------------------------------------------------------

def _record(job_id, tenant):
    return JobRecord(job_id=job_id, tenant=tenant, kind="selftest",
                     workers=1, params={})


class TestScheduler:
    def test_weight_2_dispatches_twice_as_often(self):
        scheduler = WeightedFairScheduler(
            default_quota=TenantQuota(max_queued=64, max_running=64),
            quotas={"heavy": TenantQuota(weight=2, max_queued=64,
                                         max_running=64)})
        for index in range(12):
            scheduler.submit(_record(f"h{index}", "heavy"))
            scheduler.submit(_record(f"l{index}", "light"))
        order = [scheduler.next_job().tenant for _ in range(9)]
        assert order.count("heavy") == 6
        assert order.count("light") == 3

    def test_dispatch_order_is_deterministic(self):
        def run_once():
            scheduler = WeightedFairScheduler(
                default_quota=TenantQuota(max_queued=64,
                                          max_running=64))
            for index in range(4):
                for tenant in ("a", "b", "c"):
                    scheduler.submit(_record(f"{tenant}{index}",
                                             tenant))
            return [scheduler.next_job().job_id for _ in range(12)]
        assert run_once() == run_once()

    def test_queue_full_backpressure(self):
        scheduler = WeightedFairScheduler(
            default_quota=TenantQuota(max_queued=2, retry_after=3.5))
        scheduler.submit(_record("j1", "t"))
        scheduler.submit(_record("j2", "t"))
        with pytest.raises(QueueFull) as info:
            scheduler.submit(_record("j3", "t"))
        assert info.value.http_status == 429
        assert info.value.retry_after == 3.5
        assert info.value.depth == 2
        assert scheduler.tenant("t").rejected == 1
        # force bypasses the bound (crash-recovery re-admission only)
        scheduler.submit(_record("j3", "t"), force=True)
        assert scheduler.depth() == 3

    def test_max_running_gates_eligibility(self):
        scheduler = WeightedFairScheduler(
            default_quota=TenantQuota(max_queued=8, max_running=1))
        scheduler.submit(_record("j1", "t"))
        scheduler.submit(_record("j2", "t"))
        assert scheduler.next_job().job_id == "j1"
        assert scheduler.next_job() is None   # at the cap
        scheduler.release("t", "done")
        assert scheduler.next_job().job_id == "j2"
        assert scheduler.tenant("t").completed == 1

    def test_new_tenant_starts_at_current_pass_floor(self):
        scheduler = WeightedFairScheduler(
            default_quota=TenantQuota(max_queued=64, max_running=64))
        for index in range(6):
            scheduler.submit(_record(f"a{index}", "a"))
        for _ in range(4):
            scheduler.next_job()
        # a latecomer must not get retroactive credit for idle time:
        # it starts at the minimum pass, so dispatch alternates rather
        # than draining the newcomer's whole queue first
        for index in range(6):
            scheduler.submit(_record(f"z{index}", "late"))
        order = [scheduler.next_job().tenant for _ in range(4)]
        assert order.count("late") == 2

    def test_cancel_queued(self):
        scheduler = WeightedFairScheduler()
        scheduler.submit(_record("j1", "t"))
        assert scheduler.cancel_queued("j1")
        assert not scheduler.cancel_queued("j1")
        assert scheduler.depth() == 0


# ---------------------------------------------------------------------------
# the service core: lifecycle, cancel, determinism
# ---------------------------------------------------------------------------

class TestCampaignService:
    def test_selftest_job_runs_to_deterministic_values(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=8, seed=3, shards=4))
            assert record.status in ("queued", "running")
            assert record.fingerprint
            done = service.wait(record.job_id)
            assert done.status == "done"
            assert done.result["values"] == _reference_values()
            assert done.progress["shards_done"] == 4
        finally:
            service.drain()

    def test_failed_shards_quarantine_instead_of_failing(self, tmp_path):
        # poison shards dead-letter after exhausting retries; the job
        # still completes and reports them, and the tenant's breaker
        # trips so follow-up submissions bounce with a 429
        service = _service(tmp_path)
        try:
            record = service.submit(
                _spec(mode="raise", fail_shards=[0, 1, 2, 3]))
            done = service.wait(record.job_id)
            assert done.status == "done"
            quarantined = done.result["quarantined"]
            assert len(quarantined) == 4
            assert {q["reason"] for q in quarantined} == {"error"}
            assert done.progress.get("quarantined") == 4
            assert service.breakers.state("alice") == "open"
        finally:
            service.drain()

    def test_running_jobs_execute_at_once(self, tmp_path):
        # the worker budget is the one concurrency limit: a job granted
        # a worker and marked running executes at once, never waiting
        # for an executor thread
        service = _service(tmp_path, workers_total=3)
        try:
            started = time.monotonic()
            records = [service.submit(_spec(tenant=tenant, total=1,
                                            shards=1, sleep_seconds=1.0))
                       for tenant in ("alice", "bob", "carol")]
            time.sleep(0.5)
            assert [service.get(r.job_id).status for r in records] \
                == ["running"] * 3
            done = [service.wait(r.job_id, timeout=30.0) for r in records]
            elapsed = time.monotonic() - started
            assert [d.status for d in done] == ["done"] * 3
            assert elapsed < 1.5, elapsed
            for record in done:
                # running lasted as long as the one 1-s shard
                assert record.finished - record.started < 1.4
        finally:
            service.drain()

    def test_cancel_queued_job(self, tmp_path):
        service = _service(tmp_path)
        try:
            blocker = service.submit(_spec(sleep_seconds=0.2, total=4,
                                           shards=4))
            queued = service.submit(_spec(tenant="bob"))
            cancelled = service.cancel(queued.job_id)
            assert cancelled.status == "cancelled"
            assert service.wait(blocker.job_id).status == "done"
        finally:
            service.drain()

    def test_cancel_running_job_drains_it(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(sleep_seconds=0.1, total=8,
                                          shards=8))
            deadline = time.monotonic() + 10.0
            while service.get(record.job_id).status != "running" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            service.cancel(record.job_id)
            done = service.wait(record.job_id)
            assert done.status == "cancelled"
        finally:
            service.drain()

    def test_cancel_terminal_job_conflicts(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=2, shards=2))
            service.wait(record.job_id)
            with pytest.raises(JobNotCancellable) as info:
                service.cancel(record.job_id)
            assert info.value.http_status == 409
        finally:
            service.drain()

    def test_unknown_job(self, tmp_path):
        service = _service(tmp_path)
        try:
            with pytest.raises(UnknownJob):
                service.get("job-999999")
        finally:
            service.drain()

    def test_draining_service_rejects_submissions(self, tmp_path):
        service = _service(tmp_path)
        service.drain()
        with pytest.raises(ServiceUnavailable) as info:
            service.submit(_spec())
        assert info.value.http_status == 503
        assert info.value.retry_after == 5.0

    def test_metrics_document_validates(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=4, shards=2))
            service.wait(record.job_id)
            document = service.metrics()
            assert validate_document(document) == []
            assert document["metrics"]["jobs"]["done"] == 1
            assert document["metrics"]["shards_done"] == 2
            assert "alice" in document["metrics"]["tenants"]
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["jobs"]["done"] == 1
        finally:
            service.drain()


class TestServeFuzzEquivalence:
    def test_serve_fuzz_matches_batch_document(self, tmp_path):
        """The core acceptance criterion: a fuzz campaign submitted
        through the service produces a metrics document canonical-equal
        to the sequential batch run's, and a byte-identical corpus."""
        from repro.fuzz.driver import run_fuzz

        configs = ["baseline", "wrapped"]
        stats = run_fuzz(6, seed=5, configs=configs,
                         corpus_dir=str(tmp_path / "seq"),
                         log=lambda message: None)
        batch = metrics_document(
            "fuzz", {"seed": 5, "iterations": 6,
                     "configs": ",".join(configs)}, stats.metrics())

        service = _service(tmp_path)
        try:
            record = service.submit(_spec(
                kind="fuzz", iterations=6, seed=5, configs=configs,
                corpus_dir=str(tmp_path / "srv")))
            done = service.wait(record.job_id, timeout=120.0)
            assert done.status == "done"
            served = done.result["metrics_document"]
            assert validate_document(served) == []
            assert canonical_metrics(served) == canonical_metrics(batch)
        finally:
            service.drain()

        # a run with no findings never creates its corpus directory —
        # equivalence then means the served run created none either
        seq_dir, srv_dir = tmp_path / "seq", tmp_path / "srv"
        assert seq_dir.is_dir() == srv_dir.is_dir()
        if seq_dir.is_dir():
            assert sorted(p.name for p in seq_dir.iterdir()) \
                == sorted(p.name for p in srv_dir.iterdir())
            for path in seq_dir.iterdir():
                assert (srv_dir / path.name).read_bytes() \
                    == path.read_bytes(), path.name


    def test_served_temporal_fuzz_matches_cli_document(self, tmp_path):
        """A served ``temporal: check`` fuzz job's document equals the
        batch CLI's, ``config.temporal`` included: both are built from
        the plan by the campaign table."""
        from repro.fuzz.__main__ import main as fuzz_main
        from repro.par.merge import diff_documents

        batch_path = tmp_path / "batch.json"
        assert fuzz_main(["-n", "2", "--seed", "4", "--temporal", "check",
                          "--quiet", "--corpus", str(tmp_path / "seq"),
                          "--metrics-out", str(batch_path)]) == 0
        batch = json.loads(batch_path.read_text())
        assert batch["config"]["temporal"] == "check"

        service = _service(tmp_path)
        try:
            record = service.submit(_spec(
                kind="fuzz", iterations=2, seed=4, temporal="check",
                corpus_dir=str(tmp_path / "srv")))
            done = service.wait(record.job_id, timeout=120.0)
            assert done.status == "done"
            served = done.result["metrics_document"]
        finally:
            service.drain()
        assert diff_documents(batch, served) == []


# ---------------------------------------------------------------------------
# restart recovery: drained and SIGKILLed services resume byte-identical
# ---------------------------------------------------------------------------

def _any_shard_done(checkpoints) -> bool:
    """True once some job's checkpoint manifest has a ``done`` row."""
    for manifest in checkpoints.glob("*/manifest.json"):
        try:
            rows = json.loads(manifest.read_text())["shards"].values()
        except (OSError, ValueError, KeyError):
            continue  # not written yet
        if any(row["status"] == "done" for row in rows):
            return True
    return False


class TestRestartRecovery:
    def test_drained_job_parks_and_resumes_identically(self, tmp_path):
        first = _service(tmp_path)
        record = first.submit(_spec(sleep_seconds=0.15, total=8,
                                    shards=8, seed=3))
        deadline = time.monotonic() + 15.0
        while record.progress.get("shards_done", 0) < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert record.progress["shards_done"] >= 1
        first.drain()
        parked = first.get(record.job_id)
        assert parked.status == "queued"

        second = _service(tmp_path)
        try:
            done = second.wait(record.job_id, timeout=60.0)
            assert done.status == "done"
            assert done.progress["shards_restored"] >= 1
            assert done.result["values"] == _reference_values(
                total=8, seed=3, shards=8, sleep_seconds=0.15)
        finally:
            second.drain()

    def test_resume_after_sigkill_matches_clean_run(self, tmp_path):
        """SIGKILL a service process mid-campaign; a fresh service on
        the same store resumes the job from its checkpoint to the same
        values an uninterrupted run produces."""
        store = tmp_path / "store"
        script = (
            "import sys, time; sys.path.insert(0, {src!r})\n"
            "from repro.serve import CampaignService\n"
            "service = CampaignService({store!r}, workers_total=1)\n"
            "service.submit({{'tenant': 'alice', 'kind': 'selftest',\n"
            "                 'workers': 1,\n"
            "                 'params': {{'total': 8, 'shards': 8,\n"
            "                             'seed': 3,\n"
            "                             'sleep_seconds': 0.2}}}})\n"
            "time.sleep(60)\n"
        ).format(src=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"), store=str(store))
        child = subprocess.Popen([sys.executable, "-c", script])
        deadline = time.monotonic() + 30.0
        try:
            # Kill only once a manifest row says "done": the shard result
            # file is written before its row flips, so a kill between the
            # two would leave nothing restorable.
            while time.monotonic() < deadline:
                if _any_shard_done(store / "checkpoints"):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no shard checkpointed before the deadline")
            child.send_signal(signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        service = CampaignService(str(store), workers_total=1)
        try:
            jobs = service.list_jobs()
            assert len(jobs) == 1
            done = service.wait(jobs[0].job_id, timeout=60.0)
            assert done.status == "done"
            assert done.progress["shards_restored"] >= 1
            assert done.result["values"] == _reference_values(
                total=8, seed=3, shards=8, sleep_seconds=0.2)
        finally:
            service.drain()


# ---------------------------------------------------------------------------
# HTTP API: direct dispatch and a real socket
# ---------------------------------------------------------------------------

def _json_body(response):
    return json.loads(response[2].decode("utf-8"))


class TestApiDispatch:
    def test_submit_get_list_delete_round_trip(self, tmp_path):
        service = _service(tmp_path)
        try:
            status, _, _ = dispatch(
                service, "POST", "/jobs",
                json.dumps(_spec(total=2, shards=2)).encode())
            assert status == 201
            response = dispatch(service, "GET", "/jobs")
            assert response[0] == 200
            jobs = _json_body(response)["jobs"]
            assert len(jobs) == 1
            job_id = jobs[0]["job_id"]
            service.wait(job_id)
            response = dispatch(service, "GET", f"/jobs/{job_id}")
            assert response[0] == 200
            assert _json_body(response)["status"] == "done"
            # terminal DELETE is a typed 409
            response = dispatch(service, "DELETE", f"/jobs/{job_id}")
            assert response[0] == 409
            assert _json_body(response)["error"]["type"] \
                == "JobNotCancellable"
        finally:
            service.drain()

    def test_tenant_filter(self, tmp_path):
        service = _service(tmp_path, workers_total=1)
        try:
            dispatch(service, "POST", "/jobs",
                     json.dumps(_spec(tenant="alice")).encode())
            dispatch(service, "POST", "/jobs",
                     json.dumps(_spec(tenant="bob")).encode())
            response = dispatch(service, "GET", "/jobs?tenant=bob")
            assert [job["tenant"] for job
                    in _json_body(response)["jobs"]] == ["bob"]
        finally:
            service.drain()

    def test_error_statuses(self, tmp_path):
        service = _service(tmp_path)
        try:
            assert dispatch(service, "GET", "/jobs/job-000099")[0] == 404
            assert dispatch(service, "PUT", "/jobs")[0] == 405
            assert dispatch(service, "GET", "/nope")[0] == 404
            status, _, body = dispatch(service, "POST", "/jobs",
                                       b"{not json")
            assert status == 400
            assert json.loads(body)["error"]["type"] == "InvalidJobSpec"
            assert dispatch(service, "POST", "/jobs", b"")[0] == 400
            status, _, body = dispatch(
                service, "POST", "/jobs",
                json.dumps(_spec(kind="nope")).encode())
            assert status == 400
            assert "kind" in json.loads(body)["error"]["message"]
        finally:
            service.drain()

    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        service = _service(
            tmp_path,
            default_quota=TenantQuota(max_queued=1, max_running=1,
                                      retry_after=2.0))
        try:
            # occupy the single worker, then fill the 1-deep queue
            dispatch(service, "POST", "/jobs", json.dumps(
                _spec(sleep_seconds=0.3, total=4, shards=4)).encode())
            dispatch(service, "POST", "/jobs",
                     json.dumps(_spec()).encode())
            status, headers, body = dispatch(
                service, "POST", "/jobs", json.dumps(_spec()).encode())
            assert status == 429
            assert ("Retry-After", "2") in headers
            assert json.loads(body)["error"]["type"] == "QueueFull"
        finally:
            service.drain()

    def test_metrics_and_healthz(self, tmp_path):
        service = _service(tmp_path)
        try:
            status, headers, body = dispatch(service, "GET", "/metrics")
            assert status == 200
            assert dict(headers)["Content-Type"].startswith(
                "text/plain")
            assert "repro_workers_total" in body.decode()
            status, _, body = dispatch(service, "GET",
                                       "/metrics?format=json")
            assert status == 200
            assert validate_document(json.loads(body)) == []
            status, _, body = dispatch(service, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            service.drain()


class TestHttpServer:
    def test_real_socket_round_trip(self, tmp_path):
        service = _service(tmp_path)
        server = BackgroundServer(service)
        port = server.start()
        base = f"http://127.0.0.1:{port}"
        try:
            request = urllib.request.Request(
                f"{base}/jobs", method="POST",
                data=json.dumps(_spec(total=4, shards=2,
                                      seed=3)).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as reply:
                assert reply.status == 201
                job_id = json.loads(reply.read())["job_id"]

            deadline = time.monotonic() + 30.0
            record = None
            while time.monotonic() < deadline:
                with urllib.request.urlopen(f"{base}/jobs/{job_id}",
                                            timeout=10) as reply:
                    record = json.loads(reply.read())
                if record["status"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            assert record["status"] == "done"
            assert record["result"]["values"] == _reference_values(
                total=4, seed=3, shards=2)

            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10) as reply:
                assert json.loads(reply.read())["status"] == "ok"

            bad = urllib.request.Request(
                f"{base}/jobs", method="POST",
                data=json.dumps(_spec(kind="nope")).encode())
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(bad, timeout=10)
            assert info.value.code == 400
            assert json.loads(info.value.read())["error"]["type"] \
                == "InvalidJobSpec"
        finally:
            server.stop()
            service.drain()


# ---------------------------------------------------------------------------
# correlated job event streams: GET /jobs/<id>/events + /metrics v2
# ---------------------------------------------------------------------------

class TestJobEventStream:
    def test_events_carry_correlation_ids(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=8, seed=3, shards=4))
            done = service.wait(record.job_id)
            assert done.status == "done"
            events = service.job_events(record.job_id)
            assert events
            kinds = {event["kind"] for event in events}
            assert "job" in kinds and "shard_done" in kinds
            for event in events:
                assert event["ctx"]["tenant"] == "alice"
                assert event["ctx"]["job_id"] == record.job_id
            shard_events = [e for e in events
                            if e["kind"] == "shard_done"]
            assert {e["ctx"]["shard_id"]
                    for e in shard_events} == {0, 1, 2, 3}
            assert all(e["ctx"]["seed"] is not None
                       for e in shard_events)
            # seq is strictly monotonic: a valid resume cursor
            seqs = [event["seq"] for event in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            # the job result carries the same correlation ids
            assert done.result["correlation"]["tenant"] == "alice"
            assert done.result["correlation"]["job_id"] \
                == record.job_id
        finally:
            service.drain()

    def test_job_events_cursor_and_unknown_job(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=4, shards=2))
            service.wait(record.job_id)
            events = service.job_events(record.job_id)
            mid = events[len(events) // 2]["seq"]
            tail = service.job_events(record.job_id, after=mid)
            assert tail == [e for e in events if e["seq"] > mid]
            assert service.job_events(record.job_id,
                                      after=events[-1]["seq"]) == []
            with pytest.raises(UnknownJob):
                service.job_events("job-nope")
        finally:
            service.drain()

    def test_api_streams_ndjson(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=4, shards=2))
            service.wait(record.job_id)
            status, headers, body = dispatch(
                service, "GET", f"/jobs/{record.job_id}/events")
            assert status == 200
            assert dict(headers)["Content-Type"] \
                == "application/x-ndjson"
            events = [json.loads(line)
                      for line in body.decode().splitlines()]
            assert events == service.job_events(record.job_id)
            # ?after=N resumes past already-seen events
            mid = events[len(events) // 2]["seq"]
            status, _, body = dispatch(
                service, "GET",
                f"/jobs/{record.job_id}/events?after={mid}")
            assert status == 200
            tail = [json.loads(line)
                    for line in body.decode().splitlines()]
            assert all(event["seq"] > mid for event in tail)
            # malformed cursor is a typed 400, unknown job a 404
            status, _, body = dispatch(
                service, "GET",
                f"/jobs/{record.job_id}/events?after=xyz")
            assert status == 400
            status, _, _ = dispatch(service, "GET",
                                    "/jobs/nope/events")
            assert status == 404
            status, _, _ = dispatch(
                service, "DELETE", f"/jobs/{record.job_id}/events")
            assert status == 405
        finally:
            service.drain()

    def test_event_ring_spills_past_its_bound(self, tmp_path):
        service = _service(tmp_path, events_tail=5)
        try:
            record = service.submit(_spec(total=8, seed=3, shards=4))
            service.wait(record.job_id)
            # the in-memory ring stays bounded...
            with service._lock:
                assert len(service._job_events[record.job_id]) == 5
            # ...but the on-disk spill fills the gap: the cursor walks
            # the full history with no seq holes, starting at 1
            events = service.job_events(record.job_id)
            assert len(events) > 5
            seqs = [event["seq"] for event in events]
            assert seqs == list(range(1, len(events) + 1))
            # cursoring inside the spilled region works too
            tail = service.job_events(record.job_id, after=seqs[2])
            assert [event["seq"] for event in tail] == seqs[3:]
        finally:
            service.drain()

    def test_metrics_v2_with_per_shard_rollup(self, tmp_path):
        from repro.obs import SCHEMA_V2
        service = _service(tmp_path)
        try:
            record = service.submit(_spec(total=4, shards=2))
            service.wait(record.job_id)
            document = service.metrics()
            assert document["schema"] == SCHEMA_V2
            assert validate_document(document) == []
            assert document["labels"] == {"component": "repro.serve"}
            per_shard = document["metrics"]["per_shard"]
            shards = per_shard[record.job_id]
            assert set(shards) == {"0", "1"}
            for stats in shards.values():
                assert stats["done"] == 1
        finally:
            service.drain()


# ---------------------------------------------------------------------------
# circuit breakers: poison tenants back off, the service degrades typed
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _trip(self, service, tenant="alice"):
        """Run one poison campaign to completion; its quarantine trips
        the tenant's breaker."""
        record = service.submit(
            _spec(tenant=tenant, mode="raise",
                  fail_shards=[0, 1, 2, 3]))
        done = service.wait(record.job_id)
        assert done.status == "done"
        assert service.breakers.state(tenant) == "open"
        return record

    def test_open_breaker_rejects_with_429_and_retry_after(
            self, tmp_path):
        from repro.errors import CircuitOpen
        service = _service(tmp_path)
        try:
            self._trip(service)
            with pytest.raises(CircuitOpen) as info:
                service.submit(_spec())
            assert info.value.http_status == 429
            assert info.value.retry_after > 0
            status, headers, body = dispatch(
                service, "POST", "/jobs",
                json.dumps(_spec()).encode())
            assert status == 429
            assert "Retry-After" in dict(headers)
            assert json.loads(body)["error"]["type"] == "CircuitOpen"
        finally:
            service.drain()

    def test_healthz_degrades_with_breaker_detail(self, tmp_path):
        service = _service(tmp_path)
        try:
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["breakers"] == []
            self._trip(service)
            health = service.healthz()
            assert health["status"] == "degraded"
            [detail] = health["breakers"]
            assert detail["tenant"] == "alice"
            assert detail["state"] == "open"
            assert "quarantined" in detail["reason"]
        finally:
            service.drain()

    def test_breaker_isolates_tenants(self, tmp_path):
        service = _service(tmp_path)
        try:
            self._trip(service)
            record = service.submit(_spec(tenant="bob"))
            assert service.wait(record.job_id).status == "done"
            assert service.breakers.state("bob") == "closed"
        finally:
            service.drain()

    def test_half_open_probe_recovers_the_tenant(self, tmp_path):
        service = _service(tmp_path, breaker_cooldown=0.05)
        try:
            self._trip(service)
            time.sleep(0.2)     # cooldown elapses -> half_open probe
            record = service.submit(_spec())
            done = service.wait(record.job_id)
            assert done.status == "done"
            assert service.breakers.state("alice") == "closed"
            assert service.healthz()["status"] == "ok"
        finally:
            service.drain()

    def test_service_shard_timeout_quarantines_a_hung_shard(
            self, tmp_path):
        # the service-wide shard budget fails a hung shard as a
        # timeout on a one-worker job, long before the hang ends
        import time
        service = _service(tmp_path, shard_timeout=1.0)
        try:
            started = time.monotonic()
            record = service.submit(_spec(mode="hang", fail_shards=[0]))
            done = service.wait(record.job_id, timeout=60.0)
            assert time.monotonic() - started < 30.0
            assert done.status == "done"
            assert [(q["shard_id"], q["reason"])
                    for q in done.result["quarantined"]] == [(0, "timeout")]
        finally:
            service.drain()

    def test_quarantined_shards_ride_in_the_result(self, tmp_path):
        service = _service(tmp_path)
        try:
            record = service.submit(
                _spec(mode="raise", fail_shards=[2]))
            done = service.wait(record.job_id)
            assert done.status == "done"
            assert [q["shard_id"]
                    for q in done.result["quarantined"]] == [2]
            # the healthy shards still merged
            assert len(done.result["values"]) == 4
        finally:
            service.drain()


# ---------------------------------------------------------------------------
# event spill + degraded saves: full-disk turns history lossy, never
# the job
# ---------------------------------------------------------------------------

class _OpFault:
    """Raise ENOSPC on every atomic write carrying one op tag."""

    def __init__(self, op):
        self.op = op
        self.hits = 0

    def before_write(self, op, path):
        import errno
        from repro.errors import InjectedIOFault
        if op == self.op:
            self.hits += 1
            raise InjectedIOFault(f"chaos: ENOSPC writing {path}",
                                  fault="enospc", op=op, path=path,
                                  errno_code=errno.ENOSPC)

    def torn_write(self, op, path):
        return False

    def after_write(self, op, path):
        pass


class TestSpillAndDegradedStore:
    def test_event_history_survives_restart_via_spill(self, tmp_path):
        first = _service(tmp_path)
        record = first.submit(_spec(total=8, seed=3, shards=4))
        first.wait(record.job_id)
        before = first.job_events(record.job_id)
        assert before
        first.drain()

        second = _service(tmp_path)
        try:
            after = second.job_events(record.job_id)
            assert after == before          # ring gone, spill answers
            mid = before[len(before) // 2]["seq"]
            assert second.job_events(record.job_id, after=mid) \
                == [e for e in before if e["seq"] > mid]
            # per-job numbering resumes past the spill, no seq reuse
            assert second._job_seq[record.job_id] == before[-1]["seq"]
        finally:
            second.drain()

    def test_enospc_on_job_records_degrades_not_fails(self, tmp_path):
        from repro.hostio import inject_faults
        service = _service(tmp_path)
        injector = _OpFault("job_record")
        try:
            with inject_faults(injector):
                record = service.submit(_spec(total=4, shards=2))
                done = service.wait(record.job_id)
            assert done.status == "done"    # in-memory record intact
            assert done.result["values"]
            assert injector.hits > 0        # every save was refused
            assert service.healthz()["status"] == "ok"
        finally:
            service.drain()
