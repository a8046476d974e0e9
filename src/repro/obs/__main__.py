"""CLI entry point: ``python -m repro.obs``.

Examples::

    # hot-site profile of one workload under one configuration
    python -m repro.obs report --workload ft --config wrapped --top 10

    # same run, exporting metrics JSON (and Prometheus text)
    python -m repro.obs report --workload ft --metrics-out ft.json \\
        --prometheus

    # rank workload cells by IFP-unit cache hit/miss counters
    python -m repro.obs report --workload treeadd,coremark --hotpath

    # trap forensics demo: a forced intra-object overflow
    python -m repro.obs forensics

    # per-worker utilization of a sharded campaign (repro.par)
    python -m repro.obs report --par-events ckpt/events.jsonl

    # validate metrics JSON against the schema (CI does this)
    python -m repro.obs validate BENCH_fuzz_throughput.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import WorkloadTrapped
from repro.eval.configs import CONFIG_NAMES
from repro.obs.metrics import (
    load_metrics, metrics_document, stats_to_dict, to_prometheus,
    write_metrics,
)

#: paper Listing 1 shape: a nested struct whose sibling member an
#: off-by-one subobject write would clobber
OVERFLOW_DEMO = """
struct Inner { int v3; int v4; };
struct S { int v1; struct Inner array[2]; int v5; };
int *g_escape;
int main(void) {
    struct S *s = (struct S*)malloc(sizeof(struct S));
    s->v5 = 99;
    g_escape = &s->array[1].v3;  /* subobject pointer escapes */
    int *q = g_escape;           /* reload: promote + narrowing */
    q[1] = 7;                    /* intra-object overflow into v4 */
    printf("v5 = %d\\n", s->v5);
    return 0;
}
"""


def render_pool_events(records) -> str:
    """Per-worker utilization from a repro.par / repro.serve event
    stream.

    ``records`` is an iterable of event dicts (``events.jsonl`` rows a
    checkpointed/evented pool run writes, or a serve job's NDJSON event
    stream): ``shard_start``, ``shard_done``, ``shard_retry``,
    ``steal``, ``job`` and ``queue_reject`` kinds are consumed,
    anything else is ignored so the stream can be mixed.

    Correlated streams (events carrying a ``ctx`` dict with a
    ``job_id``) are grouped per job: each job gets its own per-worker
    utilization section headed by its (tenant, job) correlation ids.
    Uncorrelated streams render as one flat pool section, so
    plain-batch ``events.jsonl`` files keep their historical output.
    """
    jobs: dict = {}         # job key (None = uncorrelated) -> state
    job_status: dict = {}   # job_id -> last lifecycle status
    job_tenants: dict = {}  # job_id -> tenant
    rejects: dict = {}      # tenant -> queue_reject count

    def group(record) -> dict:
        ctx = record.get("ctx") or {}
        key = ctx.get("job_id")
        if key is not None and ctx.get("tenant") is not None:
            job_tenants.setdefault(key, ctx["tenant"])
        return jobs.setdefault(key, {
            "workers": {}, "wall": 0.0, "done": 0, "failures": 0,
            "retries": 0, "steals": 0})

    def slot(state: dict, worker: int) -> dict:
        return state["workers"].setdefault(
            worker, {"busy": 0.0, "done": 0, "steals": 0, "retries": 0})

    for record in records:
        kind = record.get("kind")
        if kind == "job":
            job_status[record.get("job_id")] = record.get("status")
            if record.get("tenant") is not None:
                job_tenants.setdefault(record.get("job_id"),
                                       record.get("tenant"))
            continue
        if kind == "queue_reject":
            tenant = record.get("tenant", "?")
            rejects[tenant] = rejects.get(tenant, 0) + 1
            continue
        if kind not in ("shard_start", "shard_done", "shard_retry",
                        "steal"):
            continue
        state = group(record)
        state["wall"] = max(state["wall"], float(record.get("t", 0.0)))
        if kind == "shard_done":
            entry = slot(state, record["worker"])
            entry["busy"] += float(record.get("seconds", 0.0))
            if record.get("status") == "ok":
                entry["done"] += 1
                state["done"] += 1
            else:
                state["failures"] += 1
        elif kind == "shard_retry":
            state["retries"] += 1
            if record.get("worker", -1) >= 0:
                slot(state, record["worker"])["retries"] += 1
        elif kind == "steal":
            state["steals"] += 1
            slot(state, record["worker"])["steals"] += 1

    if not any(state["workers"] for state in jobs.values()):
        if job_status or rejects:
            lines = []
            for job_id in sorted(job_status):
                tenant = job_tenants.get(job_id, "?")
                lines.append(f"job {job_id} [tenant {tenant}]: "
                             f"{job_status[job_id]} (no shard events)")
            for tenant in sorted(rejects):
                lines.append(f"tenant {tenant}: {rejects[tenant]} "
                             f"queue rejection(s)")
            return "\n".join(lines)
        return "no shard events found"

    correlated = any(key is not None for key in jobs)
    lines = []
    for key in sorted(jobs, key=lambda k: (k is not None, k or "")):
        state = jobs[key]
        if not state["workers"]:
            continue
        label = "pool"
        if key is not None:
            tenant = job_tenants.get(key, "?")
            status = job_status.get(key)
            label = f"job {key} [tenant {tenant}]"
            if status:
                label += f" ({status})"
        elif correlated:
            label = "uncorrelated"
        lines.append(
            f"{label}: {state['done']} shards ok, "
            f"{state['failures']} failed attempts, "
            f"{state['retries']} retries, {state['steals']} steals "
            f"({state['wall']:.1f}s wall)")
        denominator = state["wall"] or 1e-9
        for worker in sorted(state["workers"]):
            entry = state["workers"][worker]
            lines.append(
                f"  worker {worker}: {entry['done']} shards, "
                f"busy {entry['busy']:.1f}s "
                f"({100.0 * entry['busy'] / denominator:.0f}%), "
                f"{entry['steals']} steals, {entry['retries']} retries")
    for tenant in sorted(rejects):
        lines.append(f"tenant {tenant}: {rejects[tenant]} "
                     f"queue rejection(s)")
    return "\n".join(lines)


def render_hotpath(cells: "dict[str, object]") -> str:
    """Rank workload cells by residual promote-path host work.

    ``cells`` maps ``"<workload>/<config>"`` to that run's
    :class:`~repro.ifp.unit.IFPUnitStats`.  Cells are ranked by
    promote-cache misses — the promotes that still walk metadata on the
    host after the promote-result cache has taken its share — so the
    top row is where IFP-unit host time concentrates.
    """
    def rate(hits: int, misses: int) -> str:
        total = hits + misses
        return f"{100.0 * hits / total:5.1f}%" if total else "    —"

    ranked = sorted(cells.items(),
                    key=lambda item: item[1].promote_cache_misses,
                    reverse=True)
    header = (f"{'cell':24s} {'promotes':>9s} {'cache':>6s} {'mac':>6s} "
              f"{'miss':>8s} {'inval':>6s}")
    lines = [header, "-" * len(header)]
    for key, ifp in ranked:
        lines.append(
            f"{key:24s} {ifp.promotes_valid:9d} "
            f"{rate(ifp.promote_cache_hits, ifp.promote_cache_misses):>6s} "
            f"{rate(ifp.mac_cache_hits, ifp.mac_cache_misses):>6s} "
            f"{ifp.promote_cache_misses:8d} "
            f"{ifp.promote_cache_invalidations:6d}")
    lines.append(
        "cache/mac = hit rates of the promote-result cache and the MAC "
        "memo; miss = promotes still walking metadata on the host; "
        "inval = store-snoop invalidations")
    return "\n".join(lines)


def _cmd_hotpath(args) -> int:
    from repro.eval.harness import run_workload
    from repro.workloads import WORKLOADS
    workloads = [w.strip() for w in args.workload.split(",")
                 if w.strip()]
    configs = [c.strip() for c in args.hotpath.split(",") if c.strip()]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)} "
              f"(available: {', '.join(sorted(WORKLOADS))})",
              file=sys.stderr)
        return 2
    unknown = [c for c in configs if c not in CONFIG_NAMES]
    if unknown:
        print(f"unknown configuration(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    cells = {}
    for name in workloads:
        for config in configs:
            try:
                run = run_workload(WORKLOADS[name], config,
                                   scale=args.scale)
            except WorkloadTrapped as exc:
                print(f"workload trapped: {exc}", file=sys.stderr)
                return 1
            cells[f"{name}/{config}"] = run.stats.ifp
    print(f"IFP-unit promote-path cache ranking (scale={args.scale})")
    print(render_hotpath(cells))
    return 0


def _cmd_report(args) -> int:
    if args.hotpath:
        return _cmd_hotpath(args)
    if args.par_events:
        try:
            with open(args.par_events) as handle:
                records = [json.loads(line) for line in handle
                           if line.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.par_events}: {exc}",
                  file=sys.stderr)
            return 2
        print(render_pool_events(records))
        return 0
    from repro.eval.harness import run_workload
    from repro.workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} "
              f"(available: {', '.join(sorted(WORKLOADS))})",
              file=sys.stderr)
        return 2
    try:
        run = run_workload(workload, args.config, scale=args.scale,
                           observe=True)
    except WorkloadTrapped as exc:
        print(f"workload trapped: {exc}", file=sys.stderr)
        return 1
    profiler = run.observer.profiler
    print(f"{workload.name} [{args.config}] scale={args.scale}")
    print(run.stats.summary())
    print()
    print(profiler.report(top=args.top))
    if args.metrics_out or args.prometheus:
        metrics = stats_to_dict(run.stats)
        metrics["profile"] = profiler.metrics(top=args.top)
        engine = getattr(run.observer, "engine", None)
        doc = metrics_document(
            f"{workload.name}", args.config, metrics,
            labels={"engine": engine} if engine else None)
        if args.metrics_out:
            path = write_metrics(args.metrics_out, doc)
            print(f"\nmetrics written to {path}")
        if args.prometheus:
            print()
            print(to_prometheus(doc), end="")
    return 0


def _cmd_forensics(args) -> int:
    from repro.compiler import compile_source
    from repro.eval.configs import build_machine_config, build_options
    from repro.obs.observer import attach_observer
    from repro.vm import Machine
    program = compile_source(OVERFLOW_DEMO, build_options(args.config))
    machine = Machine(program, build_machine_config(args.config))
    obs = attach_observer(machine, profile=False, forensics=True)
    result = machine.run()
    if result.trap is None:
        print(f"[{args.config}] the overflow ran silently — "
              "no layout table or narrowing in this configuration",
              file=sys.stderr)
        return 1
    report = obs.last_report
    print(report.render())
    if args.out:
        report.write(args.out)
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    status = 0
    for path in args.files:
        try:
            load_metrics(path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"INVALID {path}: {exc}")
            status = 1
        else:
            print(f"ok      {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry, hot-site profiling, and trap forensics "
                    "for the IFP pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="run a workload with profiling; print hot sites")
    report.add_argument("--workload", "-w", default="ft",
                        help="workload name (default: ft)")
    report.add_argument("--config", "-c", default="wrapped",
                        choices=CONFIG_NAMES,
                        help="configuration (default: wrapped)")
    report.add_argument("--scale", type=int, default=1)
    report.add_argument("--top", type=int, default=10,
                        help="sites to show (default 10)")
    report.add_argument("--metrics-out", metavar="JSON",
                        help="write schema-v2 metrics JSON here")
    report.add_argument("--prometheus", action="store_true",
                        help="also print Prometheus text format")
    report.add_argument("--par-events", metavar="JSONL",
                        help="instead of running a workload, render "
                             "per-worker utilization from a repro.par "
                             "events.jsonl stream")
    report.add_argument("--hotpath", metavar="CONFIGS", nargs="?",
                        const="baseline,subheap",
                        help="instead of the hot-site profile, run "
                             "--workload (comma list allowed) under "
                             "these configs (default baseline,subheap) "
                             "and rank the cells by IFP-unit promote-"
                             "path cache hit/miss counters")
    report.set_defaults(func=_cmd_report)

    forensics = sub.add_parser(
        "forensics",
        help="force an intra-object overflow; print its trap forensics")
    forensics.add_argument("--config", "-c", default="wrapped",
                           choices=CONFIG_NAMES)
    forensics.add_argument("--out", metavar="TXT",
                           help="also write the report to a file")
    forensics.set_defaults(func=_cmd_forensics)

    validate = sub.add_parser(
        "validate", help="validate metrics JSON against the schema")
    validate.add_argument("files", nargs="+", metavar="JSON")
    validate.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
