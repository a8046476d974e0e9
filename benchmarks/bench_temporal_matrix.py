"""Temporal lock-and-key detection matrix: scheme x CWE family.

The paper's Juliet claim is spatial; this benchmark extends the same
accounting to the lifetime families (CWE-415 double free, CWE-416
use-after-free and stale-pre-realloc) under the temporal lock-and-key
policy.  Each cell of the scheme x family matrix runs every generated
good/bad pair under one policy mode and scores:

* **detected** — every bad variant traps (no missed detections);
* **transparent** — every good variant runs trap-free (no false
  positives);
* **engine_identical** — the reference interpreter and the fastpath
  agree byte-for-byte on (exit code, guest output, trap class, trap
  message) for every case in the cell.

Scheme routing follows allocation size: the small cases allocate a few
dozen bytes, so ``wrapped`` compiles them onto LOCAL_OFFSET and
``subheap`` onto SUBHEAP; the big (``_gt``) variants allocate 8192-int
buffers, which overflow both fast schemes and land in the GLOBAL_TABLE.

Results land in ``BENCH_temporal_matrix.json`` — a repro.obs schema v2
document with one numeric cell per ``<scheme>/<family>`` key.  CI runs
with ``--check``: zero missed detections, zero false positives, and
zero engine divergences in check mode, or exit 1.

Usage::

    PYTHONPATH=src python benchmarks/bench_temporal_matrix.py
    PYTHONPATH=src python benchmarks/bench_temporal_matrix.py \\
        --temporal quarantine --schemes local_offset,subheap
    PYTHONPATH=src python benchmarks/bench_temporal_matrix.py --check
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.compiler import CompilerOptions, compile_source
from repro.juliet.cases import JulietCase, generate_temporal_cases
from repro.obs.metrics import bench_path, metrics_document, write_metrics
from repro.vm import Machine, MachineConfig

#: matrix rows: scheme name -> (compiler options factory, big cases?)
SCHEMES: Dict[str, Tuple[str, bool]] = {
    "local_offset": ("wrapped", False),
    "subheap": ("subheap", False),
    "global_table": ("wrapped", True),
}

#: matrix columns: family name -> (cwe, direction) selector
FAMILIES: Dict[str, Tuple[str, str]] = {
    "CWE-415": ("CWE-415", "dfree"),
    "CWE-416-uaf": ("CWE-416", "uaf"),
    "CWE-416-stale": ("CWE-416", "stale"),
}

#: trap classes that count as a *temporal* detection (InvalidFree is
#: the allocators' structural free-path check catching a double free
#: before the lock comparison runs — still a detection, tallied apart)
TEMPORAL_TRAPS = ("TemporalViolation",)


def _options(name: str) -> CompilerOptions:
    return CompilerOptions.subheap() if name == "subheap" \
        else CompilerOptions.wrapped()


def _observables(result) -> Tuple:
    trap = result.trap
    return (result.exit_code, result.output,
            (type(trap).__name__, str(trap)) if trap else None)


def _run_case(case: JulietCase, options: CompilerOptions,
              temporal: str, engine: str):
    program = compile_source(case.source, options)
    return Machine(program, MachineConfig(
        max_instructions=2_000_000, temporal=temporal,
        engine=engine)).run()


def bench_cell(scheme: str, family: str, cases: List[JulietCase],
               temporal: str) -> Tuple[Dict, List[str]]:
    """Run one matrix cell; returns (numeric metrics, failure notes)."""
    options = _options(SCHEMES[scheme][0])
    cell = {"bad": 0, "detected": 0, "temporal_traps": 0, "missed": 0,
            "good": 0, "false_positive": 0, "divergent": 0}
    notes: List[str] = []
    for case in cases:
        reference = _run_case(case, options, temporal, "reference")
        fastpath = _run_case(case, options, temporal, "auto")
        if _observables(reference) != _observables(fastpath):
            cell["divergent"] += 1
            notes.append(f"{case.name}: engines diverge "
                         f"({_observables(reference)[2]} vs "
                         f"{_observables(fastpath)[2]})")
        result = fastpath
        trap_name = type(result.trap).__name__ if result.trap else None
        if case.is_bad:
            cell["bad"] += 1
            if result.trap is not None:
                cell["detected"] += 1
                if trap_name in TEMPORAL_TRAPS:
                    cell["temporal_traps"] += 1
            else:
                cell["missed"] += 1
                notes.append(f"{case.name}: bad case ran silently")
        else:
            cell["good"] += 1
            if result.trap is not None:
                cell["false_positive"] += 1
                notes.append(f"{case.name}: good case trapped "
                             f"({trap_name}: {result.trap})")
    cell["detected_verdict"] = int(cell["bad"] > 0
                                   and cell["missed"] == 0)
    cell["transparent_verdict"] = int(cell["false_positive"] == 0)
    cell["engine_identical"] = int(cell["divergent"] == 0)
    return cell, notes


def select_cases(scheme: str, family: str) -> List[JulietCase]:
    cwe, direction = FAMILIES[family]
    cases = generate_temporal_cases(big=SCHEMES[scheme][1])
    return [case for case in cases
            if case.cwe == cwe and case.direction == direction]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Temporal lock-and-key detection matrix over the "
                    "CWE-415/CWE-416 Juliet-style families.")
    parser.add_argument("--temporal", default="check",
                        choices=("check", "quarantine"),
                        help="policy mode under test (default check)")
    parser.add_argument("--schemes", default=",".join(SCHEMES),
                        help=f"comma list (default {','.join(SCHEMES)})")
    parser.add_argument("--families", default=",".join(FAMILIES),
                        help=f"comma list (default {','.join(FAMILIES)})")
    parser.add_argument("--out-dir", default=None,
                        help="directory for BENCH_temporal_matrix.json "
                             "(default: $REPRO_BENCH_DIR or cwd)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every cell detects all bad "
                             "cases, passes all good cases, and the "
                             "engines agree byte-for-byte")
    args = parser.parse_args(argv)

    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        parser.error(f"unknown scheme(s): {', '.join(unknown)}")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        parser.error(f"unknown family(-ies): {', '.join(unknown)}")

    cells: Dict[str, Dict] = {}
    failures: List[str] = []
    print(f"temporal={args.temporal}")
    for scheme in schemes:
        for family in families:
            cases = select_cases(scheme, family)
            cell, notes = bench_cell(scheme, family, cases,
                                     args.temporal)
            cells[f"{scheme}/{family}"] = cell
            failures.extend(f"{scheme}/{family}: {note}"
                            for note in notes)
            verdict = ("ok" if cell["detected_verdict"]
                       and cell["transparent_verdict"]
                       and cell["engine_identical"] else "FAIL")
            print(f"  {scheme:13s} {family:14s} "
                  f"bad {cell['detected']}/{cell['bad']} detected "
                  f"({cell['temporal_traps']} temporal), "
                  f"good {cell['good'] - cell['false_positive']}"
                  f"/{cell['good']} clean, "
                  f"engines {'identical' if cell['engine_identical'] else 'DIVERGED'}"
                  f"  [{verdict}]")

    summary = {
        "cells": len(cells),
        "missed_detections": sum(c["missed"] for c in cells.values()),
        "false_positives": sum(c["false_positive"]
                               for c in cells.values()),
        "engine_divergences": sum(c["divergent"]
                                  for c in cells.values()),
    }
    print(f"summary: {summary['missed_detections']} missed, "
          f"{summary['false_positives']} false positives, "
          f"{summary['engine_divergences']} engine divergences "
          f"across {summary['cells']} cells")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    document = metrics_document(
        "temporal_matrix",
        {"temporal": args.temporal, "schemes": ",".join(schemes),
         "families": ",".join(families)},
        {"cells": cells, "summary": summary})
    path = write_metrics(bench_path("temporal_matrix", args.out_dir),
                         document)
    print(f"bench record written to {path}")

    if args.check and (summary["missed_detections"]
                       or summary["false_positives"]
                       or summary["engine_divergences"]):
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print("TEMPORAL MATRIX GATE FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
