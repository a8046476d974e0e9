"""The campaign CLIs' one front end.

``python -m repro.fuzz``, ``python -m repro.resil`` and
``python -m repro.par juliet|bench|resume`` each build a plan and hand
it here.  Every run goes through the pool, at every ``--jobs``, with
the same pool flags, the same drain on SIGTERM/SIGINT, and the same
report and exit code.
"""

from __future__ import annotations

import contextlib
import sys
import threading

from repro.errors import InvalidJobSpec
from repro.par.engine import run_campaign_plan
from repro.par.kinds import campaign_kind
from repro.par.pool import install_drain_handler

#: exit code for a campaign drained by SIGTERM/SIGINT: the checkpoint
#: is resumable, but the run did not complete
EXIT_DRAINED = 3


def add_pool_args(parser, *, resume: bool = False) -> None:
    """The pool flags.  A ``resume`` reads its shards from the
    checkpoint, so it requires ``--checkpoint`` and takes no
    ``--shard-size``."""
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default 1)")
    if not resume:
        parser.add_argument("--shard-size", type=int, default=0,
                            help="items per shard (default: auto, "
                                 "4 shards per worker)")
    parser.add_argument("--checkpoint", metavar="DIR", required=resume,
                        help="resumable checkpoint directory")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per shard attempt")
    parser.add_argument("--shard-retries", type=int, default=2,
                        help="requeues per failed shard (default 2)")


def check_lists(kind: str, args, names) -> dict:
    """The comma-separated list flags ``names`` of a ``kind`` campaign,
    split and checked by the kind's parameter checks
    (:attr:`~repro.par.kinds.CampaignKind.checks`), the ones a served
    job's parameters pass: name -> list.  A bad value raises
    :class:`~repro.errors.InvalidJobSpec` naming the flag and the
    value."""
    checks = campaign_kind(kind).checks
    return {name: checks[name](f"--{name}", getattr(args, name))
            for name in names}


def log_for(args):
    return (lambda message: None) if args.quiet else print


@contextlib.contextmanager
def drain_on_signal(log):
    """First SIGTERM/SIGINT drains the pool (in-flight shards finish
    and checkpoint); a second one aborts immediately."""
    stop = threading.Event()
    restore = install_drain_handler(stop, log=log)
    try:
        yield stop
    finally:
        restore()


def report(plan, merged, outcome, args, out=None) -> int:
    """Print any campaign's summary and pool outcome, write its metrics
    document to ``out`` when given (labelled ``drained`` when the run
    was), and map the verdict to the exit code."""
    kind = campaign_kind(plan.kind)
    print(kind.summary(merged))
    if not args.quiet:
        print(outcome.summary())
    if outcome.drained:
        hint = (f"re-run the same command to resume from "
                f"{args.checkpoint}" if args.checkpoint
                else "no --checkpoint, so nothing to resume")
        print(f"drained: campaign interrupted; {hint}", file=sys.stderr)
    if out:
        from repro.obs.metrics import write_metrics
        document = kind.document(plan, merged)
        if outcome.drained:
            # built from the shards that finished: label it, so it never
            # reads as the complete run of the same name and config
            document["labels"]["drained"] = "true"
        path = write_metrics(out, document)
        print(f"metrics written to {path}")
    if outcome.drained:
        return EXIT_DRAINED
    return 0 if kind.ok(merged) and outcome.ok else 1


def run(plan, args, out=None) -> int:
    """Execute ``plan`` through the pool under the parsed pool flags
    and report it; exit 2 naming the parameter when a value fails the
    kind's checks, as a served job's would."""
    log = log_for(args)
    try:
        with drain_on_signal(log) as stop:
            merged, outcome = run_campaign_plan(
                plan, jobs=args.jobs, checkpoint_dir=args.checkpoint,
                shard_timeout=args.shard_timeout,
                shard_retries=args.shard_retries, log=log, stop=stop)
    except InvalidJobSpec as exc:
        print(exc, file=sys.stderr)
        return 2
    return report(plan, merged, outcome, args, out)
