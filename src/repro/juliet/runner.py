"""Run the generated Juliet-style suite and score detections.

The paper's result: In-Fat Pointer "successfully detected all
vulnerabilities while passing all non-vulnerable cases" — i.e. 100 %
detection on bad variants, 0 false positives on good variants.  The
report reproduces that accounting per CWE family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler import CompilerOptions, compile_source
from repro.juliet.cases import JulietCase, generate_cases
from repro.vm import Machine, MachineConfig


@dataclass
class CaseResult:
    case: JulietCase
    trapped: bool
    trap: Optional[str]

    @property
    def passed(self) -> bool:
        return self.trapped == self.case.expect_trap


@dataclass
class JulietReport:
    results: List[CaseResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def detected(self) -> int:
        return sum(1 for r in self.results if r.case.is_bad and r.trapped)

    @property
    def bad_total(self) -> int:
        return sum(1 for r in self.results if r.case.is_bad)

    @property
    def false_positives(self) -> int:
        return sum(1 for r in self.results
                   if not r.case.is_bad and r.trapped)

    @property
    def good_total(self) -> int:
        return sum(1 for r in self.results if not r.case.is_bad)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.passed]

    def by_cwe(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            row = out.setdefault(result.case.cwe, {
                "bad": 0, "detected": 0, "good": 0, "false_positive": 0})
            if result.case.is_bad:
                row["bad"] += 1
                row["detected"] += int(result.trapped)
            else:
                row["good"] += 1
                row["false_positive"] += int(result.trapped)
        return out

    def summary(self) -> str:
        lines = [
            f"Juliet-style functional evaluation: {self.total} cases",
            f"  detection: {self.detected}/{self.bad_total} bad cases "
            f"trapped",
            f"  false positives: {self.false_positives}/{self.good_total} "
            f"good cases",
            "",
            f"  {'CWE family':14s} {'bad':>5s} {'detected':>9s} "
            f"{'good':>5s} {'false+':>7s}",
        ]
        for cwe, row in sorted(self.by_cwe().items()):
            lines.append(
                f"  {cwe:14s} {row['bad']:5d} {row['detected']:9d} "
                f"{row['good']:5d} {row['false_positive']:7d}")
        return "\n".join(lines)


def run_case(case: JulietCase,
             options: Optional[CompilerOptions] = None,
             temporal: str = "off",
             engine: str = "auto") -> CaseResult:
    options = options or CompilerOptions.wrapped()
    program = compile_source(case.source, options)
    result = Machine(program, MachineConfig(
        max_instructions=2_000_000, temporal=temporal,
        engine=engine)).run()
    trap_name = type(result.trap).__name__ if result.trap else None
    return CaseResult(case, result.trap is not None, trap_name)


def run_suite(options: Optional[CompilerOptions] = None,
              cases: Optional[List[JulietCase]] = None,
              temporal: str = "off",
              engine: str = "auto") -> JulietReport:
    cases = cases if cases is not None else generate_cases()
    report = JulietReport()
    for case in cases:
        report.results.append(run_case(case, options, temporal=temporal,
                                       engine=engine))
    return report
