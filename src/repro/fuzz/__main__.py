"""CLI entry point: ``python -m repro.fuzz``.

Examples::

    # the standard differential + attack-injection run
    python -m repro.fuzz --iterations 200 --seed 0

    # attack injection only, custom configuration set
    python -m repro.fuzz --iterations 50 --seed 7 --inject-only \\
        --configs baseline,subheap,wrapped,wrapped-np

    # force a failure end-to-end (minimizer + corpus self-test)
    python -m repro.fuzz --iterations 1 --seed 0 --plant-bug

    # re-run a persisted failure, verbatim from its seed
    python -m repro.fuzz --replay corpus/<name>.json

    # the same campaign across 4 worker processes, resumable
    python -m repro.fuzz --iterations 200 --seed 0 --jobs 4 \\
        --checkpoint ckpt-fuzz
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import InvalidJobSpec
from repro.eval.configs import CONFIG_NAMES
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, load_entry
from repro.fuzz.driver import DEFAULT_CONFIGS, replay_entry
from repro.par.cli import add_pool_args, check_lists, run
from repro.par.kinds import plan_fuzz
from repro.vm.machine import ENGINES, TEMPORAL_POLICIES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing & attack injection for the "
                    "IFP pipeline.")
    parser.add_argument("--iterations", "-n", type=int, default=100,
                        help="programs to generate (default 100)")
    parser.add_argument("--seed", "-s", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--start", type=int, default=0,
                        help="first iteration index (for reproduction)")
    parser.add_argument("--configs", type=str,
                        default=",".join(DEFAULT_CONFIGS),
                        help="comma-separated configuration list "
                             f"(available: {', '.join(CONFIG_NAMES)})")
    parser.add_argument("--inject-only", action="store_true",
                        help="skip the clean differential phase")
    parser.add_argument("--no-inject", action="store_true",
                        help="skip attack injection")
    parser.add_argument("--corpus", type=str,
                        default=DEFAULT_CORPUS_DIR,
                        help="directory for failing cases "
                             "(default: corpus/)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="persist failures without delta-debugging")
    parser.add_argument("--max-attacks", type=int, default=2,
                        help="attacks injected per program (default 2)")
    parser.add_argument("--plant-bug", action="store_true",
                        help="self-test: feed one attacked program to "
                             "the clean oracle to force a failure")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per execution; timed-"
                             "out iterations retry with a derived seed")
    parser.add_argument("--retries", type=int, default=2,
                        help="reseed retries per timed-out iteration "
                             "(default 2)")
    parser.add_argument("--backoff", type=float, default=0.1,
                        metavar="SECONDS",
                        help="base of the exponential retry backoff "
                             "(default 0.1)")
    parser.add_argument("--engine", type=str, default="auto",
                        choices=ENGINES,
                        help="execution engine for oracle runs; engines "
                             "are byte-identical in every simulated "
                             "observable (default auto)")
    parser.add_argument("--temporal", type=str, default="off",
                        choices=TEMPORAL_POLICIES,
                        help="lock-and-key temporal policy for oracle "
                             "machines; also enables use-after-free / "
                             "double-free / stale-realloc attack kinds "
                             "(default off)")
    parser.add_argument("--replay", type=str, metavar="JSON",
                        help="re-run one corpus entry verbatim")
    parser.add_argument("--metrics-out", type=str, metavar="JSON",
                        help="write run metrics in the repro.obs "
                             "schema-v2 JSON format")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress pool progress lines")
    add_pool_args(parser)
    args = parser.parse_args(argv)

    if args.replay:
        try:  # validate the entry up front for a friendly CLI error
            load_entry(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot replay {args.replay}: {exc}")
        return 0 if replay_entry(args.replay, log=print) else 1

    try:
        configs = check_lists("fuzz", args, ("configs",))["configs"]
    except InvalidJobSpec as exc:
        parser.error(str(exc))

    return run(plan_fuzz(
        args.iterations, args.seed, configs=configs, start=args.start,
        clean=not args.inject_only, inject=not args.no_inject,
        corpus_dir=args.corpus, minimize=not args.no_minimize,
        max_attacks=args.max_attacks, plant_bug=args.plant_bug,
        timeout_seconds=args.timeout, retries=args.retries,
        backoff_base=args.backoff, jobs=args.jobs,
        shard_size=args.shard_size, engine=args.engine,
        temporal=args.temporal), args, args.metrics_out)


if __name__ == "__main__":
    sys.exit(main())
