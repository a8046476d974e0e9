"""CLI entry point: ``python -m repro.par``.

Ad-hoc sharded campaign execution plus the determinism tooling the CI
gates use.

Examples::

    # the Juliet suite across 4 workers, resumable
    python -m repro.par juliet --jobs 4 --checkpoint ckpt-juliet

    # the suite plus its CWE-415/416 lifetime cases, temporal policy armed
    python -m repro.par juliet --temporal check --out juliet-temporal.json

    # ad-hoc sharded bench sweep, merged into one metrics document
    python -m repro.par bench --workloads treeadd,anagram \\
        --configs baseline,wrapped,subheap --jobs 2 --out sweep.json

    # resume any interrupted checkpointed campaign
    python -m repro.par resume --checkpoint ckpt-juliet --jobs 4

    # CI determinism gate: --jobs N output == --jobs 1 output
    python -m repro.par diff metrics-j1.json metrics-j4.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import threading

from repro.par.engine import resume_checkpoint, run_campaign_plan
from repro.par.kinds import campaign_kind, plan_bench, plan_juliet
from repro.par.merge import diff_documents
from repro.par.pool import install_drain_handler
from repro.vm.machine import ENGINE_CHOICES, TEMPORAL_POLICIES

#: exit code for a campaign drained by SIGTERM/SIGINT: the checkpoint
#: is resumable, but the run did not complete
EXIT_DRAINED = 3


@contextlib.contextmanager
def _drain_on_signal(log):
    """First SIGTERM/SIGINT drains the pool (in-flight shards finish
    and checkpoint); a second one aborts immediately."""
    stop = threading.Event()
    restore = install_drain_handler(stop, log=log)
    try:
        yield stop
    finally:
        restore()


def _log_for(args):
    return (lambda message: None) if args.quiet else print


def _report(plan, merged, outcome, args) -> int:
    """Print any campaign's summary and pool outcome, write its metrics
    document to ``--out`` when given, and map the verdict to the exit
    code."""
    kind = campaign_kind(plan.kind)
    print(kind.summary(merged))
    if not args.quiet:
        print(outcome.summary())
    if outcome.drained:
        print("drained: campaign interrupted; resume with "
              "`python -m repro.par resume --checkpoint DIR`",
              file=sys.stderr)
    if args.out:
        from repro.obs.metrics import write_metrics
        path = write_metrics(args.out, kind.document(plan, merged))
        print(f"metrics written to {path}")
    if outcome.drained:
        return EXIT_DRAINED
    return 0 if kind.ok(merged) and outcome.ok else 1


def _run(plan, args) -> int:
    with _drain_on_signal(_log_for(args)) as stop:
        merged, outcome = run_campaign_plan(
            plan, jobs=args.jobs, checkpoint_dir=args.checkpoint,
            shard_timeout=args.shard_timeout,
            shard_retries=args.retries, log=_log_for(args), stop=stop)
    return _report(plan, merged, outcome, args)


def _cmd_juliet(args) -> int:
    return _run(plan_juliet(seed=args.seed, allocator=args.allocator,
                            jobs=args.jobs, shard_size=args.shard_size,
                            temporal=args.temporal),
                args)


def _cmd_bench(args) -> int:
    workloads = [w.strip() for w in args.workloads.split(",")
                 if w.strip()]
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    from repro.eval.configs import CONFIG_NAMES
    from repro.workloads import WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    unknown = [c for c in configs if c not in CONFIG_NAMES]
    if unknown:
        print(f"unknown configuration(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    return _run(plan_bench(workloads=workloads, configs=configs,
                           scale=args.scale,
                           timeout_seconds=args.shard_timeout,
                           seed=args.seed, jobs=args.jobs,
                           shard_size=args.shard_size,
                           engine=args.engine),
                args)


def _cmd_resume(args) -> int:
    try:
        with _drain_on_signal(_log_for(args)) as stop:
            plan, merged, outcome = resume_checkpoint(
                args.checkpoint, jobs=args.jobs,
                shard_timeout=args.shard_timeout,
                shard_retries=args.retries, log=_log_for(args),
                stop=stop)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    return _report(plan, merged, outcome, args)


def _cmd_diff(args) -> int:
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    differences = diff_documents(first, second,
                                 ignore_timing=not args.strict_timing)
    if differences:
        print(f"{args.first} != {args.second} "
              f"({len(differences)} difference(s)):")
        for line in differences[:args.max_diffs]:
            print(f"  {line}")
        if len(differences) > args.max_diffs:
            print(f"  ... {len(differences) - args.max_diffs} more")
        return 1
    timing_note = "" if args.strict_timing \
        else " (timing fields ignored)"
    print(f"identical: {args.first} == {args.second}{timing_note}")
    return 0


def _add_pool_args(parser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--shard-size", type=int, default=0,
                        help="items per shard (default: auto, "
                             "4 shards per worker)")
    parser.add_argument("--checkpoint", metavar="DIR",
                        help="resumable checkpoint directory")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per shard attempt")
    parser.add_argument("--retries", type=int, default=2,
                        help="requeues per failed shard (default 2)")
    parser.add_argument("--seed", "-s", type=int, default=0,
                        help="campaign master seed (default 0)")
    parser.add_argument("--quiet", "-q", action="store_true")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.par",
        description="Sharded parallel campaign execution for the IFP "
                    "pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    juliet = sub.add_parser(
        "juliet", help="run the Juliet-style suite across workers")
    juliet.add_argument("--allocator", choices=("wrapped", "subheap"),
                        default="wrapped")
    juliet.add_argument("--temporal", choices=TEMPORAL_POLICIES,
                        default="off",
                        help="lock-and-key temporal policy; armed, the "
                             "suite adds the CWE-415/416 cases "
                             "(default off)")
    juliet.add_argument("--out", metavar="JSON",
                        help="write schema-v2 metrics JSON here")
    _add_pool_args(juliet)
    juliet.set_defaults(func=_cmd_juliet)

    bench = sub.add_parser(
        "bench", help="ad-hoc sharded (workload x config) sweep")
    bench.add_argument("--workloads", default="treeadd,anagram",
                       help="comma-separated workload list")
    bench.add_argument("--configs", default="baseline,wrapped,subheap",
                       help="comma-separated configuration list")
    bench.add_argument("--scale", type=int, default=1)
    bench.add_argument("--engine", default="auto",
                       choices=ENGINE_CHOICES,
                       help="execution engine; byte-identical results "
                            "either way (default auto)")
    bench.add_argument("--out", metavar="JSON",
                       help="write schema-v2 metrics JSON here")
    _add_pool_args(bench)
    bench.set_defaults(func=_cmd_bench)

    resume = sub.add_parser(
        "resume", help="resume a checkpointed campaign of any kind")
    resume.add_argument("--checkpoint", required=True, metavar="DIR")
    resume.add_argument("--jobs", "-j", type=int, default=1)
    resume.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS")
    resume.add_argument("--retries", type=int, default=2)
    resume.add_argument("--quiet", "-q", action="store_true")
    resume.set_defaults(func=_cmd_resume, out=None)

    diff = sub.add_parser(
        "diff", help="compare two metrics documents, ignoring "
                     "wall-clock-derived fields")
    diff.add_argument("first", metavar="A.json")
    diff.add_argument("second", metavar="B.json")
    diff.add_argument("--strict-timing", action="store_true",
                      help="also compare timing fields")
    diff.add_argument("--max-diffs", type=int, default=20)
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
