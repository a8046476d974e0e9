"""API latency and throughput of the campaign service (repro.serve).

Drives a real socket: N tenant threads each submit M selftest jobs over
HTTP (``BackgroundServer``) and poll them to completion.  Records
submit-latency percentiles (the admission path: validation, plan
fingerprinting, scheduling, persistence), end-to-end job latency, and
sustained jobs/second — the service-layer cost on top of the raw
engine, which BENCH_parallel_scaling measures.

Two properties are asserted:

* **correctness under concurrency** — every job completes ``done`` and
  every result matches the deterministic selftest values;
* **responsiveness** — median submit latency stays under one second
  (generous: the admission path is a few dict validations plus two
  atomic file writes; regressing past that means accidental blocking
  work landed under the service lock).
"""

import json
import statistics
import threading
import time
import urllib.request

import pytest

from repro.obs.metrics import write_bench
from repro.serve import BackgroundServer, CampaignService

_TENANTS = 3
_JOBS_PER_TENANT = 4
_SPEC_PARAMS = {"total": 8, "shards": 4, "seed": 3}


def _post_job(base: str, tenant: str) -> str:
    request = urllib.request.Request(
        f"{base}/jobs", method="POST",
        data=json.dumps({"tenant": tenant, "kind": "selftest",
                         "workers": 1,
                         "params": dict(_SPEC_PARAMS)}).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as reply:
        return json.loads(reply.read())["job_id"]


def _poll_done(base: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{base}/jobs/{job_id}",
                                    timeout=30) as reply:
            record = json.loads(reply.read())
        if record["status"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.02)
    return record


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


@pytest.mark.benchmark(group="serve")
def test_serve_latency(benchmark, tmp_path):
    service = CampaignService(str(tmp_path / "store"), workers_total=2)
    server = BackgroundServer(service)
    base = f"http://127.0.0.1:{server.start()}"

    submit_latencies = []
    job_latencies = []
    records = []
    lock = threading.Lock()

    def tenant_session(tenant: str) -> None:
        for _ in range(_JOBS_PER_TENANT):
            t0 = time.monotonic()
            job_id = _post_job(base, tenant)
            t1 = time.monotonic()
            record = _poll_done(base, job_id)
            t2 = time.monotonic()
            with lock:
                submit_latencies.append(t1 - t0)
                job_latencies.append(t2 - t0)
                records.append(record)

    def campaign():
        threads = [threading.Thread(target=tenant_session,
                                    args=(f"tenant-{index}",))
                   for index in range(_TENANTS)]
        t0 = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.monotonic() - t0

    try:
        elapsed = benchmark.pedantic(campaign, rounds=1, iterations=1)
    finally:
        server.stop()
        service.drain()

    total_jobs = _TENANTS * _JOBS_PER_TENANT
    assert len(records) == total_jobs
    expected = None
    for record in records:
        assert record["status"] == "done", record
        values = record["result"]["values"]
        if expected is None:
            expected = values
        assert values == expected     # deterministic across tenants

    submit_p50 = statistics.median(submit_latencies)
    metrics = {
        "jobs_total": total_jobs,
        "tenants": _TENANTS,
        "jobs_per_second": total_jobs / (elapsed or 1e-9),
        "submit_latency": {
            "p50_seconds": submit_p50,
            "p95_seconds": _percentile(submit_latencies, 0.95),
            "max_seconds": max(submit_latencies),
        },
        "job_latency": {
            "p50_seconds": statistics.median(job_latencies),
            "p95_seconds": _percentile(job_latencies, 0.95),
            "max_seconds": max(job_latencies),
        },
    }
    print(f"\n  {total_jobs} jobs over {_TENANTS} tenants in "
          f"{elapsed:.2f}s ({metrics['jobs_per_second']:.1f} jobs/s); "
          f"submit p50 {submit_p50 * 1000:.1f}ms, "
          f"p95 {metrics['submit_latency']['p95_seconds'] * 1000:.1f}ms")
    assert submit_p50 < 1.0, (
        f"submit p50 regressed to {submit_p50:.2f}s — blocking work "
        f"has crept into the admission path")

    path = write_bench(
        "serve_latency",
        {"tenants": _TENANTS, "jobs_per_tenant": _JOBS_PER_TENANT,
         "params": ",".join(f"{k}={v}"
                            for k, v in sorted(_SPEC_PARAMS.items()))},
        metrics)
    print(f"  bench record: {path}")
