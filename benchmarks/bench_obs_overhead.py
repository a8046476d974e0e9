"""Cost of the observability subsystem (repro.obs) across engines.

Three claims worth guarding:

* **disarmed is free** — with no observer attached every instrumented
  site compiles to nothing on the fastpath (translate-time
  specialization), so armed/disarmed deltas are pure observation cost;
* **armed fastpath is still fast** — with a full observer armed the
  fastpath translates a second, guarded-emit variant of each function;
  its guest-MIPS must stay well above the armed reference interpreter
  (the CI gate requires a >= 2x geomean speedup);
* **armed engines are equivalent** — the armed fastpath and armed
  reference must agree byte-for-byte on every observable: guest
  output, exit code, trap, full RunStats, the event stream (hashed
  event-by-event), and the profiler's counters.

For every selected ``(workload, config)`` cell the script verifies the
equivalence gate, then times three modes over ``--repeats`` fresh runs
(best-of): observer-armed fastpath, observer-armed reference, and
disarmed fastpath.  Results land in ``BENCH_obs_overhead.json`` — a
repro.obs **schema v2** document whose labels name the engines and
whose cell fields are engine-keyed (``fastpath_armed_mips``,
``reference_armed_mips``, ``fastpath_disarmed_mips``).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \\
        --workloads treeadd,em3d,mst,coremark --configs baseline,subheap \\
        --check-speedup 2.0
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.compiler import compile_source
from repro.eval.configs import CONFIG_NAMES, build_machine_config, \
    build_options
from repro.obs import attach_observer
from repro.obs.metrics import bench_path, metrics_document, \
    write_metrics
from repro.vm import Machine
from repro.workloads import WORKLOADS

DEFAULT_WORKLOADS = "treeadd,em3d,mst,coremark"
DEFAULT_CONFIGS = "baseline,subheap"


def _observables(result) -> Tuple:
    trap = result.trap
    return (result.exit_code, result.output,
            (type(trap).__name__, str(trap)) if trap else None,
            dataclasses.asdict(result.stats))


def _run_once(program, machine_config, engine: str, armed: bool,
              hash_events: bool = False):
    """One fresh run; returns (result, seconds, event digest or None,
    profiler metrics or None)."""
    machine = Machine(program, replace(machine_config, engine=engine))
    digest = profile = None
    if armed:
        obs = attach_observer(machine, profile=True, forensics=True,
                              tracer_capacity=0)
        if hash_events:
            hasher = hashlib.sha256()

            def sink(event):
                hasher.update(json.dumps(event.to_dict(),
                                         sort_keys=True).encode())

            obs.bus.subscribe(sink)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    if armed:
        profile = obs.profiler.metrics() if obs.profiler else None
        if hash_events:
            digest = hasher.hexdigest()
    return result, elapsed, digest, profile


def bench_cell(workload: str, config: str, scale: int, repeats: int,
               verify_only: bool) -> Dict:
    """Verify and time one (workload, config) cell.

    All cell fields are numeric (the repro.obs schema forbids strings
    in metrics); the "<workload>/<config>" key carries the identity
    and the field names carry the engine.
    """
    program = compile_source(WORKLOADS[workload].source(scale),
                             build_options(config))
    machine_config = build_machine_config(config)

    # Equivalence gate: armed fastpath vs armed reference must agree on
    # observables AND the full event stream (hashed event-by-event) AND
    # the profiler counters.  The hashing sink perturbs timing, so this
    # pair is never used for the measurements below.
    ref_result, _, ref_digest, ref_profile = _run_once(
        program, machine_config, "reference", armed=True,
        hash_events=True)
    fast_result, _, fast_digest, fast_profile = _run_once(
        program, machine_config, "auto", armed=True,
        hash_events=True)
    identical = (_observables(ref_result) == _observables(fast_result)
                 and ref_digest == fast_digest
                 and ref_profile == fast_profile)
    cell = {
        "identical": 1 if identical else 0,
        "instructions": ref_result.stats.total_instructions,
    }
    if not identical or verify_only:
        return cell

    # Timing: best-of over fresh machines (each pays translation once,
    # like every real harness run does).
    seconds = {"reference_armed": float("inf"),
               "fastpath_armed": float("inf"),
               "fastpath_disarmed": float("inf")}
    for _ in range(max(1, repeats)):
        _, t, _, _ = _run_once(program, machine_config, "reference",
                               armed=True)
        seconds["reference_armed"] = min(seconds["reference_armed"], t)
        _, t, _, _ = _run_once(program, machine_config, "auto",
                               armed=True)
        seconds["fastpath_armed"] = min(seconds["fastpath_armed"], t)
        _, t, _, _ = _run_once(program, machine_config, "auto",
                               armed=False)
        seconds["fastpath_disarmed"] = min(
            seconds["fastpath_disarmed"], t)
    instructions = cell["instructions"]
    for mode, t in seconds.items():
        cell[f"{mode}_seconds"] = round(t, 6)
        cell[f"{mode}_mips"] = round(instructions / t / 1e6, 4)
    cell["armed_speedup"] = round(
        seconds["reference_armed"] / seconds["fastpath_armed"], 4)
    cell["armed_over_disarmed"] = round(
        seconds["fastpath_armed"] / seconds["fastpath_disarmed"], 4)
    return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Observer-armed fastpath vs reference vs disarmed "
                    "fastpath, with a built-in armed-equivalence gate.")
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        help=f"comma list (default {DEFAULT_WORKLOADS})")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help=f"comma list (default {DEFAULT_CONFIGS})")
    parser.add_argument("--scale", type=int, default=2,
                        help="workload scale factor (default 2)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing runs per mode, best-of "
                             "(default 2)")
    parser.add_argument("--verify-only", action="store_true",
                        help="run the armed-equivalence gate only; "
                             "skip timing")
    parser.add_argument("--out-dir", default=None,
                        help="directory for BENCH_obs_overhead.json "
                             "(default: $REPRO_BENCH_DIR or cwd)")
    parser.add_argument("--check-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless the armed fastpath/reference "
                             "geomean speedup is >= X (CI uses 2.0)")
    args = parser.parse_args(argv)

    workloads = [w.strip() for w in args.workloads.split(",")
                 if w.strip()]
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    unknown = [c for c in configs if c not in CONFIG_NAMES]
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")

    cells: Dict[str, Dict] = {}
    divergent: List[str] = []
    for workload in workloads:
        for config in configs:
            cell = bench_cell(workload, config, args.scale,
                              args.repeats, args.verify_only)
            key = f"{workload}/{config}"
            cells[key] = cell
            if not cell["identical"]:
                divergent.append(key)
                print(f"  {key:24s} DIVERGED — armed engines disagree")
            elif args.verify_only:
                print(f"  {key:24s} identical "
                      f"({cell['instructions']:,} instructions)")
            else:
                print(f"  {key:24s} "
                      f"ref+obs {cell['reference_armed_mips']:6.2f} "
                      f"fast+obs {cell['fastpath_armed_mips']:6.2f} "
                      f"fast {cell['fastpath_disarmed_mips']:6.2f} "
                      f"MIPS  speedup {cell['armed_speedup']:5.2f}x  "
                      f"obs cost {cell['armed_over_disarmed']:4.2f}x")

    speedups = [c["armed_speedup"] for c in cells.values()
                if "armed_speedup" in c]
    overheads = [c["armed_over_disarmed"] for c in cells.values()
                 if "armed_over_disarmed" in c]
    summary: Dict[str, object] = {
        "cells_verified": sum(1 for c in cells.values()
                              if c["identical"]),
        "cells_divergent": len(divergent),
    }
    if speedups:
        summary.update({
            "geomean_armed_speedup": round(
                math.exp(sum(math.log(s) for s in speedups)
                         / len(speedups)), 4),
            "min_armed_speedup": min(speedups),
            "geomean_armed_over_disarmed": round(
                math.exp(sum(math.log(o) for o in overheads)
                         / len(overheads)), 4),
        })
        print(f"geomean armed speedup "
              f"{summary['geomean_armed_speedup']:.2f}x "
              f"(min {summary['min_armed_speedup']:.2f}x); "
              f"observation costs "
              f"{summary['geomean_armed_over_disarmed']:.2f}x "
              f"over the disarmed fastpath")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    document = metrics_document(
        "obs_overhead",
        {"workloads": ",".join(workloads), "configs": ",".join(configs),
         "scale": str(args.scale), "repeats": str(args.repeats),
         "verify_only": str(args.verify_only)},
        {"cells": cells, "summary": summary},
        labels={"engines": "fastpath,reference",
                "observer": "armed"})
    path = write_metrics(bench_path("obs_overhead", args.out_dir),
                         document)
    print(f"bench record written to {path}")

    if divergent:
        print(f"EQUIVALENCE GATE FAILED: {', '.join(divergent)}",
              file=sys.stderr)
        return 1
    if args.check_speedup is not None and speedups:
        geomean = summary["geomean_armed_speedup"]
        if geomean < args.check_speedup:
            print(f"SPEEDUP GATE FAILED: geomean armed speedup "
                  f"{geomean:.2f}x < required "
                  f"{args.check_speedup:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
