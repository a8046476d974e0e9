"""Host-throughput benchmark: compiled engine vs reference guest-MIPS.

For every selected ``(workload, config)`` cell this script

1. compiles the workload once,
2. runs it under both engines (``reference`` and the block-fused
   compiled engine ``auto``) and asserts byte-identical observables
   (guest output, exit code, trap, and every ``RunStats`` field
   including the IFP unit's cache counters) — the differential gate
   that backs the compiled engine's equivalence contract, and
3. times each engine over ``--repeats`` fresh runs (best-of), reporting
   simulated guest instructions per host second (guest-MIPS) and the
   compiled engine's speedup over the reference.

Timed subheap cells additionally get ``subheap_vs_baseline_ratio`` —
subheap-config wall seconds over baseline-config wall seconds for the
same workload and scale under the compiled engine, the host-side cost
factor of subheap protection.  It divides seconds, not MIPS, because
the two configs of one program may execute different guest
instruction counts (treeadd/subheap runs about 0.62x the instructions
of treeadd/baseline).  ``--max-subheap-gap`` turns that ratio into a
gate.

Results land in ``BENCH_host_throughput.json`` (repro.obs schema v2).
With ``--baseline`` the run is additionally gated against a committed
record: any cell whose speedup drops more than ``--max-regression``
below its baseline speedup fails the run.  Speedup ratios, not raw
MIPS, are compared across hosts — absolute MIPS varies with the CI
machine, the ratio of two interpreters on the same machine does not.

Usage::

    PYTHONPATH=src python benchmarks/bench_host_throughput.py
    PYTHONPATH=src python benchmarks/bench_host_throughput.py \\
        --workloads treeadd,em3d,mst,coremark --configs baseline,subheap \\
        --baseline benchmarks/baselines/host_throughput.json
    PYTHONPATH=src python benchmarks/bench_host_throughput.py --verify-only
"""

from __future__ import annotations

import argparse
import dataclasses
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
from repro.obs.metrics import write_bench
from repro.vm import Machine
from repro.vm.machine import TEMPORAL_POLICIES
from repro.workloads import WORKLOADS

DEFAULT_WORKLOADS = "treeadd,em3d,mst,coremark"
DEFAULT_CONFIGS = "baseline,subheap"


def _observables(result) -> Tuple:
    trap = result.trap
    return (result.exit_code, result.output,
            (type(trap).__name__, str(trap)) if trap else None,
            dataclasses.asdict(result.stats))


def _run_once(program, machine_config, engine: str):
    machine = Machine(program, replace(machine_config, engine=engine))
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


#: engines timed and differentially verified per cell
_ENGINES = ("reference", "auto")


def bench_cell(workload: str, config: str, scale: int, repeats: int,
               verify_only: bool, temporal: str = "off") -> Dict:
    """Verify and time one (workload, config) cell.

    The compiled engine is verified against the reference and both are
    timed; the cell is ``identical`` only when they agree byte-for-byte.

    All cell fields are numeric (the repro.obs schema forbids strings
    in metrics); the "<workload>/<config>" key carries the identity.
    """
    program = compile_source(WORKLOADS[workload].source(scale),
                             build_options(config))
    machine_config = replace(build_machine_config(config),
                             temporal=temporal)

    # Differential gate: one verified run per engine per cell, always.
    ref_result, ref_seconds = _run_once(program, machine_config,
                                        "reference")
    result, auto_seconds = _run_once(program, machine_config, "auto")
    seconds = {"reference": ref_seconds, "auto": auto_seconds}
    identical = _observables(result) == _observables(ref_result)
    cell = {
        "identical": 1 if identical else 0,
        "instructions": ref_result.stats.total_instructions,
    }
    if not identical or verify_only:
        return cell

    # Timing: best-of over fresh machines (each pays translation once,
    # like every real harness run does).
    for _ in range(max(0, repeats - 1)):
        for engine in _ENGINES:
            _, elapsed = _run_once(program, machine_config, engine)
            seconds[engine] = min(seconds[engine], elapsed)
    instructions = cell["instructions"]
    for engine in _ENGINES:
        cell[f"{engine}_seconds"] = round(seconds[engine], 6)
        cell[f"{engine}_mips"] = round(
            instructions / seconds[engine] / 1e6, 4)
    cell["speedup"] = round(seconds["reference"] / seconds["auto"], 4)
    return cell


def add_subheap_ratios(cells: Dict[str, Dict]) -> List[float]:
    """Stamp ``subheap_vs_baseline_ratio`` into every timed subheap cell.

    The ratio is subheap-config wall seconds over baseline-config wall
    seconds for the same workload under the compiled engine — the
    host-side cost factor of subheap protection that
    ``--max-subheap-gap`` bounds.  Returns the ratios stamped.
    """
    ratios: List[float] = []
    for key, cell in cells.items():
        workload, _, config = key.partition("/")
        if config != "subheap" or "auto_seconds" not in cell:
            continue
        base = cells.get(f"{workload}/baseline")
        if not base or "auto_seconds" not in base:
            continue
        ratio = round(cell["auto_seconds"] / base["auto_seconds"], 4)
        cell["subheap_vs_baseline_ratio"] = ratio
        ratios.append(ratio)
    return ratios


def check_baseline(cells: Dict[str, Dict], baseline_path: str,
                   max_regression: float) -> List[str]:
    """Compare cell speedups against a committed baseline record."""
    with open(baseline_path) as handle:
        document = json.load(handle)
    baseline_cells = document["metrics"]["cells"]
    failures = []
    for key, cell in cells.items():
        expected = baseline_cells.get(key, {}).get("speedup")
        if "speedup" not in cell or expected is None:
            continue
        floor = expected * (1.0 - max_regression)
        if cell["speedup"] < floor:
            failures.append(
                f"{key}: speedup {cell['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {expected:.2f}x - "
                f"{max_regression:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compiled vs reference host-throughput benchmark "
                    "with a built-in byte-identity differential gate.")
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        help=f"comma list (default {DEFAULT_WORKLOADS})")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help=f"comma list (default {DEFAULT_CONFIGS})")
    parser.add_argument("--scale", type=int, default=2,
                        help="workload scale factor (default 2)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing runs per engine, best-of "
                             "(default 2)")
    parser.add_argument("--verify-only", action="store_true",
                        help="run the byte-identity differential gate "
                             "only; skip timing")
    parser.add_argument("--temporal", default="off",
                        choices=TEMPORAL_POLICIES,
                        help="temporal lock-and-key policy armed on "
                             "every cell's machine (default off)")
    parser.add_argument("--out-dir", default=None,
                        help="directory for BENCH_host_throughput.json "
                             "(default: $REPRO_BENCH_DIR or cwd)")
    parser.add_argument("--baseline", metavar="JSON", default=None,
                        help="committed BENCH record to gate speedup "
                             "regressions against")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional speedup drop vs the "
                             "baseline (default 0.20)")
    parser.add_argument("--max-subheap-gap", type=float, default=None,
                        metavar="RATIO",
                        help="fail when any workload's subheap-config "
                             "run takes more than RATIO times its "
                             "baseline-config wall seconds (the "
                             "paper-parity target is 1.5; unset "
                             "disables the gate)")
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
                              args.repeats, args.verify_only,
                              temporal=args.temporal)
            key = f"{workload}/{config}"
            cells[key] = cell
            if not cell["identical"]:
                divergent.append(key)
                print(f"  {key:24s} DIVERGED — engines disagree")
            elif args.verify_only:
                print(f"  {key:24s} identical "
                      f"({cell['instructions']:,} instructions)")
            else:
                print(f"  {key:24s} ref {cell['reference_mips']:6.2f} "
                      f"MIPS  auto {cell['auto_mips']:6.2f} MIPS  "
                      f"speedup {cell['speedup']:5.2f}x")

    ratios = add_subheap_ratios(cells)
    speedups = [c["speedup"] for c in cells.values() if "speedup" in c]
    summary: Dict[str, object] = {
        "cells_verified": sum(1 for c in cells.values()
                              if c["identical"]),
        "cells_divergent": len(divergent),
    }

    def _geomean(values: List[float]) -> float:
        return round(math.exp(sum(math.log(v) for v in values)
                              / len(values)), 4)

    if speedups:
        summary.update({
            "geomean_speedup": _geomean(speedups),
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
        })
        print(f"geomean speedup {summary['geomean_speedup']:.2f}x "
              f"(min {summary['min_speedup']:.2f}x, "
              f"max {summary['max_speedup']:.2f}x)")
    if ratios:
        summary["max_subheap_gap"] = max(ratios)
        summary["geomean_subheap_gap"] = _geomean(ratios)
        print(f"subheap/baseline wall-time gap: geomean "
              f"{summary['geomean_subheap_gap']:.2f}x, max "
              f"{summary['max_subheap_gap']:.2f}x")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    path = write_bench(
        "host_throughput",
        {"workloads": ",".join(workloads), "configs": ",".join(configs),
         "scale": str(args.scale), "repeats": str(args.repeats),
         "verify_only": str(args.verify_only),
         "temporal": args.temporal},
        {"cells": cells, "summary": summary},
        directory=args.out_dir)
    print(f"bench record written to {path}")

    if divergent:
        print(f"DIFFERENTIAL GATE FAILED: {', '.join(divergent)}",
              file=sys.stderr)
        return 1
    if args.max_subheap_gap is not None and ratios:
        over = [f"{key}: gap "
                f"{cell['subheap_vs_baseline_ratio']:.2f}x"
                for key, cell in cells.items()
                if cell.get("subheap_vs_baseline_ratio", 0.0)
                > args.max_subheap_gap]
        if over:
            print(f"SUBHEAP GAP GATE FAILED (limit "
                  f"{args.max_subheap_gap:.2f}x): {', '.join(over)}",
                  file=sys.stderr)
            return 1
        print(f"subheap gap gate passed "
              f"(limit {args.max_subheap_gap:.2f}x)")
    if args.baseline and speedups:
        failures = check_baseline(cells, args.baseline,
                                  args.max_regression)
        if failures:
            for line in failures:
                print(f"PERF REGRESSION: {line}", file=sys.stderr)
            return 1
        print(f"baseline gate passed "
              f"(allowed drop {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
