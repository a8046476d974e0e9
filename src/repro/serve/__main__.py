"""CLI entry point: ``python -m repro.serve``.

Boot the multi-tenant campaign service::

    python -m repro.serve --port 8340 --store serve-store --workers 2

    # submit a fuzz campaign from any HTTP client
    curl -X POST http://127.0.0.1:8340/jobs -d '{
        "tenant": "alice", "kind": "fuzz",
        "params": {"iterations": 50, "seed": 0}}'

    # poll, observe, cancel
    curl http://127.0.0.1:8340/jobs/job-000001
    curl http://127.0.0.1:8340/metrics
    curl -X DELETE http://127.0.0.1:8340/jobs/job-000001

SIGTERM/SIGINT drains gracefully: admission stops (503), in-flight
shards finish and checkpoint, interrupted jobs park back in ``queued``,
and the next boot against the same ``--store`` resumes them from their
checkpoints — results stay byte-identical (timing aside) to an
uninterrupted run.

``--supervise`` adds the self-healing layer on top: the server runs
as a child process and any abnormal exit (crash, OOM, ``kill -9``)
restarts it against the same store with exponential backoff — see
:mod:`repro.serve.supervisor`.  ``--pid-file`` records the *server*
process's pid (the child, under ``--supervise``) so chaos tooling can
aim its kills::

    python -m repro.serve --supervise --pid-file server.pid \\
        --store serve-store
    kill -9 "$(cat server.pid)"   # supervisor restarts; jobs resume
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.obs.events import EventBus, JobEvent, QueueRejectEvent
from repro.serve.server import CampaignServer
from repro.serve.service import CampaignService
from repro.serve.tenants import TenantQuota


def _parse_weights(entries):
    weights = {}
    for entry in entries or []:
        name, _, value = entry.partition("=")
        try:
            weights[name] = int(value)
        except ValueError:
            raise SystemExit(
                f"--tenant-weight expects NAME=WEIGHT, got {entry!r}")
    return weights


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant campaign service over the sharded "
                    "repro.par engine.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8340,
                        help="listen port; 0 picks a free one "
                             "(default 8340)")
    parser.add_argument("--store", default="serve-store", metavar="DIR",
                        help="persistent job + checkpoint root "
                             "(default serve-store/)")
    parser.add_argument("--workers", type=int, default=2,
                        help="global shard-worker budget shared by all "
                             "running jobs (default 2)")
    parser.add_argument("--max-queued", type=int, default=8,
                        help="per-tenant queued-job bound; full queues "
                             "get 429 + Retry-After (default 8)")
    parser.add_argument("--max-running", type=int, default=2,
                        help="per-tenant running-job cap (default 2)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per shard attempt of "
                             "every job; a shard over it is retried, "
                             "then quarantined as a timeout (default: "
                             "no budget)")
    parser.add_argument("--tenant-weight", action="append",
                        metavar="NAME=WEIGHT",
                        help="weighted-fair share override, repeatable")
    parser.add_argument("--kinds",
                        help="comma-separated campaign kinds to accept "
                             "(default: all)")
    parser.add_argument("--supervise", action="store_true",
                        help="run the server as a supervised child; "
                             "abnormal exits restart it against the "
                             "same store with exponential backoff")
    parser.add_argument("--restart-backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="supervisor restart backoff base "
                             "(default 0.5, doubles per crash streak)")
    parser.add_argument("--max-restarts", type=int, default=0,
                        help="supervisor restart budget "
                             "(default 0 = unbounded)")
    parser.add_argument("--pid-file", metavar="PATH",
                        help="write the server process's pid here "
                             "(the child's, under --supervise)")
    parser.add_argument("--quiet", "-q", action="store_true")
    args = parser.parse_args(argv)

    log = (lambda message: None) if args.quiet else print
    if args.supervise:
        from repro.serve.supervisor import supervise
        return supervise(list(argv) if argv is not None
                         else sys.argv[1:],
                         backoff_base=args.restart_backoff,
                         max_restarts=args.max_restarts, log=log)
    if args.pid_file:
        from repro.serve.supervisor import write_pid_file
        write_pid_file(args.pid_file)
    weights = _parse_weights(args.tenant_weight)
    default_quota = TenantQuota(max_queued=args.max_queued,
                                max_running=args.max_running)
    quotas = {name: TenantQuota(weight=weight,
                                max_queued=args.max_queued,
                                max_running=args.max_running)
              for name, weight in weights.items()}
    kinds = [k.strip() for k in args.kinds.split(",")
             if k.strip()] if args.kinds else None

    bus = EventBus()
    if not args.quiet:
        def narrate(event) -> None:
            if isinstance(event, JobEvent):
                log(f"[repro.serve] {event.job_id} "
                    f"({event.campaign}, tenant {event.tenant}) "
                    f"-> {event.status}")
            elif isinstance(event, QueueRejectEvent):
                log(f"[repro.serve] rejected submission from tenant "
                    f"{event.tenant}: {event.reason}")
        bus.subscribe(narrate)

    service = CampaignService(
        args.store, workers_total=args.workers,
        default_quota=default_quota, quotas=quotas, kinds=kinds,
        bus=bus, log=log, shard_timeout=args.shard_timeout)
    return asyncio.run(_serve(service, args.host, args.port, log))


async def _serve(service, host: str, port: int, log) -> int:
    server = CampaignServer(service, host, port)
    bound = await server.start()
    log(f"[repro.serve] listening on http://{host}:{bound} "
        f"(store: {service.store.root})")
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, shutdown.set)
    await shutdown.wait()
    log("[repro.serve] shutdown requested; draining")
    await server.stop()
    # drain blocks on in-flight campaigns checkpointing; keep it off
    # the event loop thread
    await loop.run_in_executor(None, service.drain)
    log("[repro.serve] drained; unfinished jobs parked for resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
