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
import json
import sys

from repro.errors import InvalidJobSpec
from repro.par.cli import (
    add_pool_args, check_lists, drain_on_signal, log_for, report, run,
)
from repro.par.engine import resume_checkpoint
from repro.par.kinds import (
    BENCH_CONFIGS, BENCH_WORKLOADS, plan_bench, plan_juliet,
)
from repro.par.merge import diff_documents
from repro.vm.machine import ENGINES, TEMPORAL_POLICIES


def _cmd_juliet(args) -> int:
    return run(plan_juliet(seed=args.seed, allocator=args.allocator,
                           jobs=args.jobs, shard_size=args.shard_size,
                           temporal=args.temporal),
               args, args.out)


def _cmd_bench(args) -> int:
    try:
        lists = check_lists("bench", args, ("workloads", "configs"))
    except InvalidJobSpec as exc:
        print(exc, file=sys.stderr)
        return 2
    return run(plan_bench(**lists, scale=args.scale,
                          timeout_seconds=args.shard_timeout,
                          seed=args.seed, jobs=args.jobs,
                          shard_size=args.shard_size,
                          engine=args.engine),
               args, args.out)


def _cmd_resume(args) -> int:
    try:
        with drain_on_signal(log_for(args)) as stop:
            plan, merged, outcome = resume_checkpoint(
                args.checkpoint, jobs=args.jobs,
                shard_timeout=args.shard_timeout,
                shard_retries=args.shard_retries, log=log_for(args),
                stop=stop)
    except (FileNotFoundError, ValueError, InvalidJobSpec) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    return report(plan, merged, outcome, args)


def _cmd_diff(args) -> int:
    documents = []
    for path in (args.first, args.second):
        try:
            with open(path) as handle:
                documents.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    first, second = documents
    for path, document in zip((args.first, args.second), documents):
        labels = document.get("labels") if isinstance(document, dict) \
            else None
        if isinstance(labels, dict) and labels.get("drained") == "true":
            print(f"{path}: drained run, merged from the shards that "
                  f"finished")
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


def _add_campaign_args(parser) -> None:
    add_pool_args(parser)
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
    _add_campaign_args(juliet)
    juliet.set_defaults(func=_cmd_juliet)

    bench = sub.add_parser(
        "bench", help="ad-hoc sharded (workload x config) sweep")
    bench.add_argument("--workloads", default=",".join(BENCH_WORKLOADS),
                       help="comma-separated workload list")
    bench.add_argument("--configs", default=",".join(BENCH_CONFIGS),
                       help="comma-separated configuration list")
    bench.add_argument("--scale", type=int, default=1)
    bench.add_argument("--engine", default="auto",
                       choices=ENGINES,
                       help="execution engine; byte-identical results "
                            "either way (default auto)")
    bench.add_argument("--out", metavar="JSON",
                       help="write schema-v2 metrics JSON here")
    _add_campaign_args(bench)
    bench.set_defaults(func=_cmd_bench)

    resume = sub.add_parser(
        "resume", help="resume a checkpointed campaign of any kind")
    add_pool_args(resume, resume=True)
    resume.add_argument("--quiet", "-q", action="store_true")
    resume.set_defaults(func=_cmd_resume)

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
