"""CLI entry point: ``python -m repro.resil``.

Runs a resilience campaign — every selected workload under every
selected fault class and metadata scheme — and writes the resulting
fault class × scheme matrix as a ``repro.obs.metrics/v2`` document.

Examples::

    # the standard campaign: 4 workloads x 3 schemes x 8 fault classes
    python -m repro.resil --out resil-matrix.json

    # quick smoke (one workload, the MAC-protected fault classes)
    python -m repro.resil --workloads treeadd \\
        --faults metadata_corrupt,mac_corrupt --out matrix.json

    # strict policy: resource exhaustion traps instead of degrading
    python -m repro.resil --strict --faults global_table_exhaust

    # host-fault chaos campaign (worker kills, torn writes, ENOSPC):
    # the gate fails on any silent divergence from a fault-free run
    python -m repro.resil chaos --check --out chaos-matrix.json

    # the full matrix across 4 worker processes, resumable
    python -m repro.resil --jobs 4 --checkpoint ckpt-resil \\
        --out resil-matrix.json

Every run goes through the :mod:`repro.par` pool, ``--jobs 1``
included.  The exit code is 1 when any MAC-protected metadata fault
ended in silent corruption — the property CI enforces — and 3 when a
SIGTERM/SIGINT drained the run.
"""

from __future__ import annotations

import argparse
import sys

from repro.resil.faults import FAULT_CLASSES
from repro.vm.machine import ENGINES


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        # host-fault chaos campaign: its own CLI, imported lazily so
        # the package root stays light (repro.vm.machine imports it)
        from repro.resil.chaos import main as chaos_main
        return chaos_main(argv[1:])
    from repro.errors import InvalidJobSpec
    from repro.par.cli import add_pool_args, check_lists, run
    from repro.par.kinds import plan_resil
    from repro.resil.matrix import DEFAULT_WORKLOADS, SCHEMES
    parser = argparse.ArgumentParser(
        prog="python -m repro.resil",
        description="Fault-injection resilience campaign for the IFP "
                    "pipeline.")
    parser.add_argument("--workloads", type=str,
                        default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload list "
                             f"(default: {','.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--schemes", type=str, default=",".join(SCHEMES),
                        help="comma-separated scheme list "
                             f"(available: {', '.join(SCHEMES)})")
    parser.add_argument("--faults", type=str,
                        default=",".join(FAULT_CLASSES),
                        help="comma-separated fault-class list "
                             f"(available: {', '.join(FAULT_CLASSES)})")
    parser.add_argument("--seed", "-s", type=int, default=0,
                        help="campaign master seed (default 0)")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload scale factor (default 1)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="wall-clock watchdog per run (default 120)")
    parser.add_argument("--strict", action="store_true",
                        help="strict degradation policy: resource "
                             "exhaustion traps instead of degrading")
    parser.add_argument("--engine", type=str, default="auto",
                        choices=ENGINES,
                        help="execution engine; 'auto' runs clean and "
                             "fault-injected runs on the fastpath, "
                             "byte-identical to 'reference' (default "
                             "auto)")
    parser.add_argument("--out", type=str, metavar="JSON",
                        help="write the matrix as a repro.obs "
                             "schema-v2 metrics document")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress pool progress lines")
    add_pool_args(parser)
    args = parser.parse_args(argv)

    try:
        lists = check_lists("resil", args,
                            ("workloads", "schemes", "faults"))
    except InvalidJobSpec as exc:
        parser.error(str(exc))

    timeout = args.timeout if args.timeout > 0 else None
    return run(plan_resil(
        **lists, seed=args.seed, scale=args.scale,
        timeout_seconds=timeout, strict=args.strict, jobs=args.jobs,
        shard_size=args.shard_size, engine=args.engine), args, args.out)


if __name__ == "__main__":
    sys.exit(main())
