"""The fuzzing driver: the loop behind ``python -m repro.fuzz``.

Each iteration derives a fresh seed from ``(master seed, iteration)``,
generates one program, and runs up to two phases:

1. **transparency** (unless ``--inject-only``): the clean program must
   run trap-free with identical (stdout, exit code) under every
   selected configuration;
2. **attack injection** (unless ``--no-inject``): a sample of the
   program's access sites is mutated and each mutant's per-config trap
   behaviour is matched against the paper's detection semantics.

Any oracle failure is delta-minimized, persisted to the corpus with a
seed that regenerates the program verbatim, and reported with a
one-line reproduction command.  The driver exits non-zero when any
failure occurred — the CI contract.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.fuzz.attacks import Attack, TEMPORAL_KINDS, attacks_for
from repro.fuzz.corpus import (
    CorpusEntry, DEFAULT_CORPUS_DIR, entry_name, save_failure,
    source_digest,
)
from repro.fuzz.generator import (
    GeneratedProgram, generate_program, iteration_seed, render,
)
from repro.fuzz.minimize import minimize_source
from repro.fuzz.oracle import (
    SPATIAL_TRAPS, Divergence, accepted_traps, capture_trap_forensics,
    check_attack, check_clean, run_program,
)

#: divergence kinds whose failing run ends in a trap — the ones a
#: forensics dump can diagnose
_TRAP_KINDS = ("false_positive", "unexpected_trap", "wrong_trap_class")

DEFAULT_CONFIGS = ["baseline", "subheap", "wrapped", "subheap-np"]


@dataclass
class FailureRecord:
    """One failure, as reported to the user / CI."""

    entry: CorpusEntry
    json_path: str
    minimized_lines: int
    original_lines: int
    #: trap-forensics dump written next to the corpus entry, if any
    forensics_path: str = ""

    def to_dict(self) -> dict:
        return {
            "entry": self.entry.to_dict(),
            "json_path": self.json_path,
            "minimized_lines": self.minimized_lines,
            "original_lines": self.original_lines,
            "forensics_path": self.forensics_path,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        return cls(entry=CorpusEntry.from_dict(data["entry"]),
                   json_path=data["json_path"],
                   minimized_lines=data["minimized_lines"],
                   original_lines=data["original_lines"],
                   forensics_path=data.get("forensics_path", ""))


@dataclass
class FuzzStats:
    """Per-run accounting, printed by the CLI summary."""

    seed: int = 0
    iterations: int = 0
    configs: List[str] = field(default_factory=list)
    #: lock-and-key policy the campaign ran with (off/check/quarantine)
    temporal: str = "off"
    programs: int = 0
    executions: int = 0
    clean_runs: int = 0
    attack_runs: int = 0
    attacks_injected: int = 0
    attacks_detectable: int = 0
    attacks_detected: int = 0
    expected_evasions: int = 0
    evasions_confirmed: int = 0
    #: iterations re-run with a derived seed after a wall-clock timeout
    reseed_retries: int = 0
    #: iterations abandoned after exhausting their retry budget
    timeouts: int = 0
    #: (config, trap class) -> count, over attack runs
    trap_histogram: Counter = field(default_factory=Counter)
    failures: List[FailureRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def divergences(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"repro.fuzz: {self.iterations} iterations, "
            f"seed {self.seed}"
            + (f", temporal={self.temporal}"
               if self.temporal != "off" else ""),
            f"  configs            : {', '.join(self.configs)}",
            f"  programs generated : {self.programs}",
            f"  executions         : {self.executions} "
            f"(clean {self.clean_runs}, attack {self.attack_runs})",
            f"  attacks injected   : {self.attacks_injected} "
            f"(detectable {self.attacks_detectable}, "
            f"expected-evasion {self.expected_evasions})",
            f"  detected           : {self.attacks_detected}"
            f"/{self.attacks_detectable}",
            f"  evasions confirmed : {self.evasions_confirmed}"
            f"/{self.expected_evasions}",
            f"  divergences        : {self.divergences}",
        ]
        if self.reseed_retries or self.timeouts:
            lines.append(f"  timeout recovery   : "
                         f"{self.reseed_retries} reseed retries, "
                         f"{self.timeouts} iterations abandoned")
        if self.trap_histogram:
            lines.append("  trap histogram     :")
            for (config, trap), count in sorted(
                    self.trap_histogram.items()):
                lines.append(f"    {config:12s} {trap:14s} {count:5d}")
        if self.elapsed > 0:
            lines.append(
                f"  throughput         : "
                f"{self.programs / self.elapsed:.2f} programs/s, "
                f"{self.executions / self.elapsed:.1f} runs/s "
                f"({self.elapsed:.1f}s)")
        for record in self.failures:
            lines.append(f"  FAILURE {record.entry.name}: "
                         f"{record.entry.kind} — {record.entry.detail}")
            lines.append(f"    minimized {record.original_lines} -> "
                         f"{record.minimized_lines} lines; "
                         f"repro: {record.entry.repro}")
            if record.forensics_path:
                lines.append(f"    forensics: {record.forensics_path}")
        return "\n".join(lines)

    def metrics(self) -> dict:
        """Schema-v2 ``metrics`` payload (see :mod:`repro.obs.metrics`)."""
        elapsed = self.elapsed or 1e-9
        return {
            "iterations": self.iterations,
            "programs": self.programs,
            "executions": self.executions,
            "clean_runs": self.clean_runs,
            "attack_runs": self.attack_runs,
            "attacks_injected": self.attacks_injected,
            "attacks_detectable": self.attacks_detectable,
            "attacks_detected": self.attacks_detected,
            "expected_evasions": self.expected_evasions,
            "evasions_confirmed": self.evasions_confirmed,
            "divergences": self.divergences,
            "reseed_retries": self.reseed_retries,
            "timeouts": self.timeouts,
            "elapsed_seconds": self.elapsed,
            "programs_per_second": self.programs / elapsed,
            "executions_per_second": self.executions / elapsed,
            "trap_histogram": {
                f"{config}/{trap}": count
                for (config, trap), count
                in sorted(self.trap_histogram.items())},
        }

    def to_dict(self) -> dict:
        """Full JSON form — lossless (unlike :meth:`metrics`, which is
        the schema-v2 numeric subset).  The shape parallel shard
        results travel in and checkpoints persist."""
        return {
            "seed": self.seed, "iterations": self.iterations,
            "configs": list(self.configs), "temporal": self.temporal,
            "programs": self.programs,
            "executions": self.executions,
            "clean_runs": self.clean_runs,
            "attack_runs": self.attack_runs,
            "attacks_injected": self.attacks_injected,
            "attacks_detectable": self.attacks_detectable,
            "attacks_detected": self.attacks_detected,
            "expected_evasions": self.expected_evasions,
            "evasions_confirmed": self.evasions_confirmed,
            "reseed_retries": self.reseed_retries,
            "timeouts": self.timeouts,
            "trap_histogram": [
                [config, trap, count]
                for (config, trap), count
                in sorted(self.trap_histogram.items())],
            "failures": [record.to_dict()
                         for record in self.failures],
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzStats":
        stats = cls(
            seed=data["seed"], iterations=data["iterations"],
            configs=list(data["configs"]),
            # absent in checkpoints/manifests written before the
            # temporal policy existed
            temporal=data.get("temporal", "off"),
            programs=data["programs"],
            executions=data["executions"],
            clean_runs=data["clean_runs"],
            attack_runs=data["attack_runs"],
            attacks_injected=data["attacks_injected"],
            attacks_detectable=data["attacks_detectable"],
            attacks_detected=data["attacks_detected"],
            expected_evasions=data["expected_evasions"],
            evasions_confirmed=data["evasions_confirmed"],
            reseed_retries=data["reseed_retries"],
            timeouts=data["timeouts"], elapsed=data["elapsed"])
        for config, trap, count in data["trap_histogram"]:
            stats.trap_histogram[(config, trap)] = count
        stats.failures = [FailureRecord.from_dict(record)
                          for record in data["failures"]]
        return stats


# ---------------------------------------------------------------------------
# Failure predicates for the minimizer
# ---------------------------------------------------------------------------

def _false_positive_predicate(config: str,
                              temporal: str = "off",
                              ) -> Callable[[str], bool]:
    def predicate(source: str) -> bool:
        return run_program(source, config,
                           temporal=temporal).trap is not None
    return predicate


def _divergence_predicate(configs: List[str],
                          temporal: str = "off",
                          ) -> Callable[[str], bool]:
    def predicate(source: str) -> bool:
        seen = set()
        for config in configs:
            result = run_program(source, config, temporal=temporal)
            if result.trap is not None:
                return False
            seen.add((result.output, result.exit_code))
        return len(seen) > 1
    return predicate


def _missed_attack_predicate(config: str, needle: str,
                             accepted: Tuple[str, ...] = SPATIAL_TRAPS,
                             temporal: str = "off",
                             ) -> Callable[[str], bool]:
    """The attack access must survive minimization, yet stay silent."""
    def predicate(source: str) -> bool:
        if needle not in source:
            return False
        result = run_program(source, config, temporal=temporal)
        return result.trap is None \
            or type(result.trap).__name__ not in accepted
    return predicate


def _attack_needle(source: str, attack: Attack) -> str:
    """A line that must survive minimization of an attack failure: the
    first line mentioning the mutated index — or, for a temporal
    attack, the first ``free`` of the epilogue (the only frees in an
    attacked render; cleanup frees are suppressed)."""
    if attack.kind in TEMPORAL_KINDS:
        for line in source.splitlines():
            if "free(" in line:
                return line.strip()
        return ""
    probes = (f"[{attack.index}]", f"({attack.index})", f"{attack.index};")
    for line in source.splitlines():
        if any(probe in line for probe in probes):
            return line.strip()
    return ""


def _predicate_for(divergence: Divergence, configs: List[str],
                   attack: Optional[Attack],
                   source: str,
                   temporal: str = "off",
                   ) -> Optional[Callable[[str], bool]]:
    if divergence.kind in ("false_positive", "unexpected_trap",
                           "wrong_trap_class"):
        return _false_positive_predicate(divergence.config, temporal) \
            if divergence.config else None
    if divergence.kind == "output_divergence":
        return _divergence_predicate(
            [c for c in configs if not c.endswith("-np")] or configs,
            temporal)
    if divergence.kind == "missed_attack" and divergence.config \
            and attack is not None:
        needle = _attack_needle(source, attack)
        if needle:
            return _missed_attack_predicate(
                divergence.config, needle,
                accepted=accepted_traps(attack), temporal=temporal)
    return None


# ---------------------------------------------------------------------------
# The driver loop
# ---------------------------------------------------------------------------

def _record_failure(stats: FuzzStats, *, kind: str, detail: str,
                    config: Optional[str], seed: int, iteration: int,
                    configs: List[str], source: str,
                    attack: Optional[Attack], site_dict: Optional[dict],
                    corpus_dir: str, minimize: bool,
                    predicate: Optional[Callable[[str], bool]],
                    log: Callable[[str], None],
                    trace: Optional[dict] = None,
                    temporal: str = "off") -> None:
    digest = source_digest(source)
    name = entry_name(kind, seed, iteration, digest)
    # One corpus entry per (kind, program): the same planted bug seen by
    # several configurations would otherwise overwrite the same files
    # and triple-report in the summary.
    if any(record.entry.name == name for record in stats.failures):
        return
    minimized = source
    if minimize and predicate is not None:
        try:
            minimized = minimize_source(source, predicate)
        except ValueError:
            minimized = source      # not reproducible in isolation
    # Trap forensics for the minimized reproducer: the corpus entry
    # ships with its own diagnosis (tag anatomy, tripping bounds, trace
    # tail) so a failure is debuggable without re-running anything.
    forensics = None
    if config and kind in _TRAP_KINDS:
        forensics = capture_trap_forensics(minimized, config,
                                           trace=trace,
                                           temporal=temporal)
    repro = (f"PYTHONPATH=src python -m repro.fuzz --seed {seed} "
             f"--start {iteration} --iterations 1 "
             f"--configs {','.join(configs)}")
    if temporal != "off":
        repro += f" --temporal {temporal}"
    entry = CorpusEntry(
        name=name, kind=kind, detail=detail, seed=seed,
        iteration=iteration,
        iteration_seed=iteration_seed(seed, iteration),
        configs=list(configs), source_sha256=source_digest(source),
        repro=repro, config=config,
        attack=attack.to_dict() if attack else None, site=site_dict,
        extra={**({"forensics": name + ".forensics.txt"} if forensics
                  else {}),
               **({"temporal": temporal} if temporal != "off"
                  else {})})
    json_path = save_failure(corpus_dir, entry, source, minimized)
    forensics_path = ""
    if forensics is not None:
        forensics_path = forensics.write(
            os.path.join(corpus_dir, name + ".forensics.txt"))
    stats.failures.append(FailureRecord(
        entry=entry, json_path=json_path,
        minimized_lines=len(minimized.splitlines()),
        original_lines=len(source.splitlines()),
        forensics_path=forensics_path))
    log(f"[repro.fuzz] FAILURE {kind} at iteration {iteration}: "
        f"{detail}")
    log(f"[repro.fuzz]   saved {json_path}; repro: {repro}")
    if forensics_path:
        log(f"[repro.fuzz]   forensics: {forensics_path}")


def _plant_bug_program(program: GeneratedProgram, rng: random.Random):
    """Self-test: return an *attacked* render (plus the attack and its
    site) that the driver will feed to the clean-program oracle — a
    guaranteed, honest-to-diagnose failure exercising minimization and
    corpus persistence."""
    sites = program.sites
    site = rng.choice(sites)
    candidates = attacks_for(site)
    overs = [a for a in candidates if a.kind == "over"]
    attack = overs[0] if overs else candidates[0]
    return render(program.spec, (attack.sid, attack.index)), attack, site


def run_fuzz(iterations: int, seed: int = 0,
             configs: Optional[List[str]] = None,
             start: int = 0,
             clean: bool = True, inject: bool = True,
             corpus_dir: str = DEFAULT_CORPUS_DIR,
             minimize: bool = True,
             max_attacks_per_program: int = 2,
             plant_bug: bool = False,
             log: Optional[Callable[[str], None]] = None,
             timeout_seconds: Optional[float] = None,
             retries: int = 2,
             backoff_base: float = 0.1,
             engine: str = "auto",
             trace: Optional[dict] = None,
             temporal: str = "off") -> FuzzStats:
    """Run the fuzzing loop; returns the run's :class:`FuzzStats`.

    ``engine`` selects the execution engine for every oracle run
    (auto/reference); the two are byte-identical in every simulated
    observable, so fuzz verdicts never depend on this knob — it only
    changes host throughput.  Both engines run instrumented
    (the fastpath compiles inline emit sites), so observation never
    forces the slow engine either.

    ``trace`` (the dict form of a :class:`~repro.obs.TraceContext`,
    injected by a correlated :mod:`repro.par` pool run) stamps every
    forensics report this campaign writes with its (tenant, job,
    shard, seed) correlation ids; it never influences verdicts.

    ``timeout_seconds`` arms the per-execution wall-clock watchdog; an
    iteration whose program times out is retried up to ``retries``
    times, each attempt with a deterministically derived seed
    (:func:`repro.resil.derive_seed` — a genuinely hanging program
    would just hang again) and exponential backoff.  An iteration that
    exhausts its budget is counted in ``stats.timeouts`` and skipped;
    corpus entries record the *effective* seed so replays stay exact.

    ``temporal`` (off/check/quarantine) arms the lock-and-key policy on
    every oracle machine *and* widens the attack pool with the temporal
    kinds (use-after-free, double free, stale realloc pointer) for
    sites that support them.  With the default "off" the iteration
    stream is byte-identical to historical campaigns.
    """
    from repro.errors import WorkloadTimeout
    from repro.resil.retry import call_with_retry, derive_seed

    configs = list(configs) if configs else list(DEFAULT_CONFIGS)
    log = log or (lambda message: print(message))
    stats = FuzzStats(seed=seed, iterations=iterations, configs=configs,
                      temporal=temporal)
    started = time.monotonic()

    def one_iteration(iteration: int, iter_seed: int,
                      allow_plant: bool) -> None:
        program = generate_program(iter_seed, iteration)
        stats.programs += 1
        rng = random.Random(iteration_seed(iter_seed, iteration)
                            ^ 0xA77AC4)

        if clean:
            source = program.source
            planted = plant_bug and allow_plant
            planted_attack = planted_site = None
            if planted:
                source, planted_attack, planted_site = \
                    _plant_bug_program(program, rng)
            runs, divergences = check_clean(
                source, configs, name=f"fuzz-i{iteration}",
                timeout_seconds=timeout_seconds, engine=engine,
                temporal=temporal)
            stats.clean_runs += len(configs)
            stats.executions += len(configs)
            for divergence in divergences:
                _record_failure(
                    stats, kind=divergence.kind,
                    detail=divergence.detail
                    + (" (planted via --plant-bug)" if planted else ""),
                    config=divergence.config, seed=iter_seed,
                    iteration=iteration, configs=configs, source=source,
                    attack=planted_attack,
                    site_dict=planted_site.to_dict()
                    if planted_site else None, corpus_dir=corpus_dir,
                    minimize=minimize,
                    predicate=_predicate_for(divergence, configs, None,
                                             source, temporal),
                    log=log, trace=trace, temporal=temporal)

        if inject and program.sites:
            sites = list(program.sites)
            rng.shuffle(sites)
            for site in sites[:max_attacks_per_program]:
                attack = rng.choice(attacks_for(
                    site, include_temporal=temporal != "off"))
                source, verdict = check_attack(
                    program.spec, attack, configs,
                    timeout_seconds=timeout_seconds, engine=engine,
                    temporal=temporal)
                stats.attacks_injected += 1
                stats.attack_runs += len(configs)
                stats.executions += len(configs)
                for config, trap in verdict.observed.items():
                    stats.trap_histogram[(config, trap or "-")] += 1
                if verdict.detectable:
                    stats.attacks_detectable += 1
                    if verdict.detected:
                        stats.attacks_detected += 1
                else:
                    stats.expected_evasions += 1
                    if verdict.ok:
                        stats.evasions_confirmed += 1
                for divergence in verdict.divergences:
                    _record_failure(
                        stats, kind=divergence.kind,
                        detail=divergence.detail,
                        config=divergence.config, seed=iter_seed,
                        iteration=iteration, configs=configs,
                        source=source, attack=attack,
                        site_dict=site.to_dict(), corpus_dir=corpus_dir,
                        minimize=minimize,
                        predicate=_predicate_for(divergence, configs,
                                                 attack, source,
                                                 temporal),
                        log=log, trace=trace, temporal=temporal)

    for offset in range(iterations):
        iteration = start + offset

        def attempt_iteration(attempt: int, _iteration=iteration,
                              _first=(offset == 0)) -> None:
            one_iteration(_iteration, derive_seed(seed, attempt), _first)

        def note_retry(attempt: int, exc: BaseException,
                       delay: float, _iteration=iteration) -> None:
            stats.reseed_retries += 1
            log(f"[repro.fuzz] iteration {_iteration} timed out "
                f"({exc}); retrying with derived seed "
                f"{derive_seed(seed, attempt + 1)} "
                f"after {delay:.2f}s backoff")

        if timeout_seconds is None:
            one_iteration(iteration, seed, offset == 0)
        else:
            try:
                call_with_retry(attempt_iteration,
                                attempts=1 + max(0, retries),
                                base_delay=backoff_base,
                                jitter_seed=seed ^ iteration,
                                on_retry=note_retry)
            except WorkloadTimeout as exc:
                stats.timeouts += 1
                log(f"[repro.fuzz] iteration {iteration} abandoned "
                    f"after {1 + max(0, retries)} timed-out attempts: "
                    f"{exc}")

    stats.elapsed = time.monotonic() - started
    return stats


def replay_entry(path: str,
                 log: Optional[Callable[[str], None]] = None) -> bool:
    """Re-run one persisted corpus entry; True when it reproduces
    verbatim (source digest matches) and the oracle still fails."""
    from repro.fuzz.corpus import load_entry
    log = log or (lambda message: print(message))
    entry = load_entry(path)
    program = generate_program(entry.seed, entry.iteration)
    source = program.source
    if entry.attack is not None:
        if entry.attack.get("kind") in TEMPORAL_KINDS:
            source = render(program.spec,
                            (entry.attack["sid"],
                             entry.attack["index"],
                             entry.attack["kind"]))
        else:
            source = render(program.spec,
                            (entry.attack["sid"],
                             entry.attack["index"]))
    digest = source_digest(source)
    if digest != entry.source_sha256:
        log(f"[repro.fuzz] replay {entry.name}: source mismatch "
            f"({digest} != {entry.source_sha256}) — generator changed?")
        return False
    log(f"[repro.fuzz] replay {entry.name}: source reproduced verbatim")
    stats = run_fuzz(1, seed=entry.seed, start=entry.iteration,
                     configs=entry.configs, minimize=False,
                     corpus_dir=DEFAULT_CORPUS_DIR + "/.replay",
                     log=log,
                     temporal=entry.extra.get("temporal", "off"))
    log(stats.summary())
    return True
