"""Tests for the differential fuzzing subsystem (repro.fuzz)."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import OutputDivergence, WorkloadTrapped
from repro.eval.harness import Sweep, run_workload, verify_runs_agree
from repro.fuzz import (
    AccessSite, EXPECT_MAY, EXPECT_NO_TRAP, EXPECT_TRAP, attacks_for,
    check_attack, check_clean, ddmin_lines, expectation, generate_program,
    iteration_seed, minimize_source, render, run_fuzz, run_program,
)
from repro.fuzz.corpus import CorpusEntry, load_entry, save_failure
from repro.fuzz.driver import replay_entry
from repro.workloads import Workload

CONFIGS = ["baseline", "subheap", "wrapped"]


def _tiny_workload(name: str = "tiny", body: str = "return 0;") -> Workload:
    return Workload(name=name, suite="fuzz", description="",
                    paper_notes="",
                    source_fn=lambda scale: "int main(void) { %s }\n" % body)


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------

class TestGeneratorDeterminism:
    def test_same_seed_same_source(self):
        for iteration in range(5):
            a = generate_program(42, iteration)
            b = generate_program(42, iteration)
            assert a.source == b.source
            assert [s.to_dict() for s in a.sites] \
                == [s.to_dict() for s in b.sites]

    def test_different_iterations_differ(self):
        sources = {generate_program(42, it).source for it in range(10)}
        assert len(sources) > 1

    def test_iteration_seed_is_stable(self):
        assert iteration_seed(0, 0) == iteration_seed(0, 0)
        assert iteration_seed(0, 1) != iteration_seed(0, 2)
        assert iteration_seed(1, 0) != iteration_seed(2, 0)

    def test_attack_render_differs_only_at_site(self):
        program = generate_program(7, 3)
        site = program.sites[0]
        attack = attacks_for(site)[0]
        mutated = render(program.spec, (attack.sid, attack.index))
        assert mutated != program.source

    def test_generated_programs_compile_and_run_clean(self):
        for iteration in range(5):
            program = generate_program(11, iteration)
            for config in CONFIGS:
                result = run_program(program.source, config)
                assert result.trap is None, (
                    f"iteration {iteration} config {config}: "
                    f"{result.trap}")


# ---------------------------------------------------------------------------
# Expectation matrix (paper Table 4 semantics)
# ---------------------------------------------------------------------------

def _site(**kwargs) -> AccessSite:
    base = dict(sid=0, obj="a0", region="heap", flow="direct",
                kind="write", length=8, safe_index=3, via_wrapper=False,
                scheme="subheap", member_offset_elems=0, object_elems=8,
                nested=False)
    base.update(kwargs)
    return AccessSite(**base)


class TestExpectationMatrix:
    def test_baseline_never_expects_trap(self):
        site = _site()
        for attack in attacks_for(site):
            assert expectation(site, attack, "baseline") \
                == EXPECT_NO_TRAP

    def test_overflow_expected_on_instrumented(self):
        site = _site()
        over = [a for a in attacks_for(site) if a.kind == "over"][0]
        assert expectation(site, over, "subheap") == EXPECT_TRAP
        assert expectation(site, over, "wrapped") == EXPECT_TRAP

    def test_no_promote_config_is_may(self):
        site = _site()
        over = [a for a in attacks_for(site) if a.kind == "over"][0]
        assert expectation(site, over, "subheap-np") == EXPECT_MAY

    def test_wrapper_object_intra_is_expected_evasion(self):
        # Alloc-wrapper objects have no layout table: intra-object
        # overflow coarsens to object bounds (paper Section 3 / Table 4).
        site = _site(via_wrapper=True, region="heap_wrapped",
                     member_offset_elems=2, object_elems=11, length=5,
                     flow="reload")
        intra = [a for a in attacks_for(site)
                 if a.kind.startswith("intra")]
        assert intra, "wrapper struct site should offer intra attacks"
        for attack in intra:
            assert expectation(site, attack, "wrapped") == EXPECT_NO_TRAP

    def test_global_table_intra_is_expected_evasion(self):
        site = _site(region="global", scheme="global_table",
                     member_offset_elems=0, object_elems=360, length=260,
                     flow="reload")
        intra = [a for a in attacks_for(site)
                 if a.kind.startswith("intra")]
        for attack in intra:
            assert expectation(site, attack, "subheap") == EXPECT_NO_TRAP

    def test_whole_object_overflow_always_expected(self):
        site = _site(via_wrapper=True, region="heap_wrapped",
                     flow="reload")
        over = [a for a in attacks_for(site) if a.kind == "over"][0]
        assert expectation(site, over, "wrapped") == EXPECT_TRAP


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_clean_program_has_no_divergence(self):
        program = generate_program(0, 0)
        _, divergences = check_clean(program.source, CONFIGS)
        assert divergences == []

    def test_oracle_catches_planted_divergence(self):
        # An attacked render fed to the *clean* oracle must surface as a
        # false positive on the instrumented configurations.
        program = generate_program(0, 1)
        site = next(s for s in program.sites
                    if not s.via_wrapper and s.scheme != "global_table")
        attack = [a for a in attacks_for(site) if a.kind == "over"][0]
        bad = render(program.spec, (attack.sid, attack.index))
        _, divergences = check_clean(bad, CONFIGS)
        assert divergences
        assert any(d.kind == "false_positive" for d in divergences)

    def test_attack_verdict_detected(self):
        program = generate_program(0, 2)
        site = next(s for s in program.sites
                    if not s.via_wrapper and s.scheme != "global_table")
        attack = [a for a in attacks_for(site) if a.kind == "over"][0]
        _, verdict = check_attack(program.spec, attack, CONFIGS)
        assert verdict.ok, [str(d) for d in verdict.divergences]
        assert verdict.detectable and verdict.detected

    def test_output_divergence_detected(self):
        runs = [run_workload(_tiny_workload("zero"), "baseline"),
                run_workload(_tiny_workload("three", "return 3;"),
                             "subheap")]
        with pytest.raises(OutputDivergence):
            verify_runs_agree(runs)


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------

class TestMinimizer:
    def test_ddmin_shrinks_to_needle(self):
        lines = [f"line{i}" for i in range(30)]
        lines[17] = "NEEDLE"
        result = ddmin_lines(lines, lambda ls: "NEEDLE" in ls)
        assert result == ["NEEDLE"]

    def test_ddmin_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin_lines(["a", "b"], lambda ls: False)

    def test_minimize_shrinks_failing_program(self):
        # A known failing program: OOB loop over a global array traps
        # under the wrapped configuration.  The minimizer must keep the
        # failure while discarding the unrelated allocation noise.
        source = "\n".join([
            "int g_sink = 0;",
            "int ga[16];",
            "int unused_one = 1;",
            "int unused_two = 2;",
            "int main(void) {",
            "    int *p = (int *)malloc(10 * sizeof(int));",
            "    p[0] = 5;",
            "    g_sink += p[0];",
            "    free(p);",
            "    int i;",
            "    for (i = 0; i <= 16; i++) {",
            "        g_sink += ga[i];",
            "    }",
            "    return g_sink;",
            "}",
        ]) + "\n"

        def still_traps(candidate: str) -> bool:
            return run_program(candidate, "wrapped").trap is not None

        assert still_traps(source)
        minimized = minimize_source(source, still_traps)
        assert still_traps(minimized)
        assert len(minimized.splitlines()) < len(source.splitlines())
        assert "malloc" not in minimized

    def test_minimizer_survives_compile_errors(self):
        # Candidates that no longer parse must count as "not failing",
        # not crash the minimizer.
        source = "int ga[4];\nint main(void) {\n    int i = 9;\n" \
                 "    ga[i] = 1;\n    return 0;\n}\n"

        def predicate(candidate: str) -> bool:
            return run_program(candidate, "subheap").trap is not None

        minimized = minimize_source(source, predicate)
        assert predicate(minimized)


# ---------------------------------------------------------------------------
# Corpus persistence
# ---------------------------------------------------------------------------

class TestCorpus:
    def test_round_trip(self, tmp_path):
        entry = CorpusEntry(
            name="missed_attack-s1-i2-deadbeef", kind="missed_attack",
            detail="d", seed=1, iteration=2,
            iteration_seed=iteration_seed(1, 2),
            configs=["baseline", "wrapped"], source_sha256="deadbeef",
            repro="python -m repro.fuzz --seed 1 --start 2 "
                  "--iterations 1",
            config="wrapped", attack={"sid": 0, "kind": "over",
                                      "index": 9, "description": "x"})
        path = save_failure(str(tmp_path), entry, "original\n", "min\n")
        loaded = load_entry(path)
        assert loaded.to_dict() == entry.to_dict()
        base = os.path.join(str(tmp_path), entry.name)
        assert open(base + ".c").read() == "min\n"
        assert open(base + ".orig.c").read() == "original\n"

    def test_plant_bug_persists_and_replays(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        stats = run_fuzz(1, seed=5, plant_bug=True, corpus_dir=corpus,
                         log=lambda m: None)
        assert not stats.ok
        assert stats.failures
        record = stats.failures[0]
        assert record.minimized_lines <= record.original_lines
        data = json.load(open(record.json_path))
        assert data["seed"] == 5
        assert "python -m repro.fuzz" in data["repro"]
        assert replay_entry(record.json_path, log=lambda m: None)


# ---------------------------------------------------------------------------
# Driver smoke (tier-1)
# ---------------------------------------------------------------------------

class TestDriverSmoke:
    def test_fuzz_smoke(self, tmp_path):
        stats = run_fuzz(25, seed=0, corpus_dir=str(tmp_path),
                         log=lambda m: None)
        assert stats.ok, stats.summary()
        assert stats.programs == 25
        assert stats.attacks_injected > 0
        assert stats.attacks_detected == stats.attacks_detectable
        assert stats.evasions_confirmed == stats.expected_evasions
        assert not os.listdir(str(tmp_path))

    def test_stats_summary_renders(self, tmp_path):
        stats = run_fuzz(2, seed=1, corpus_dir=str(tmp_path),
                         log=lambda m: None)
        text = stats.summary()
        assert "programs generated : 2" in text
        assert "divergences" in text


# ---------------------------------------------------------------------------
# temporal attack classes (lock-and-key policy armed)
# ---------------------------------------------------------------------------

class TestTemporalFuzz:
    def test_temporal_attacks_are_opt_in(self):
        """A default campaign draws no temporal attacks, so historical
        corpus digests and iteration streams stay byte-identical."""
        from repro.fuzz.attacks import TEMPORAL_KINDS, attacks_for
        from repro.fuzz.generator import generate_program
        program = generate_program(11, 0)
        for site in program.sites:
            kinds = {a.kind for a in attacks_for(site)}
            assert not kinds & set(TEMPORAL_KINDS)
            if site.temporal_ok:
                armed = {a.kind for a in
                         attacks_for(site, include_temporal=True)}
                assert set(TEMPORAL_KINDS) <= armed

    def test_armed_campaign_detects_temporal_attacks(self, tmp_path):
        stats = run_fuzz(10, seed=11, corpus_dir=str(tmp_path),
                         temporal="check", log=lambda m: None)
        assert stats.ok, stats.summary()
        assert stats.temporal == "check"
        temporal_traps = sum(
            count for (_config, trap), count
            in stats.trap_histogram.items()
            if trap == "TemporalViolation")
        assert temporal_traps > 0
        assert "temporal=check" in stats.summary()

    def test_temporal_stats_round_trip_with_back_compat(self):
        from repro.fuzz.driver import FuzzStats
        stats = FuzzStats(seed=1, configs=["baseline"],
                          temporal="check")
        again = FuzzStats.from_dict(stats.to_dict())
        assert again.temporal == "check"
        # records written before the policy existed lack the key
        old = stats.to_dict()
        del old["temporal"]
        assert FuzzStats.from_dict(old).temporal == "off"


# ---------------------------------------------------------------------------
# Harness satellites: typed errors + generalized agreement check
# ---------------------------------------------------------------------------

class TestHarnessSatellites:
    def test_run_workload_raises_typed_trap(self):
        bad = Workload(name="oob", suite="fuzz", description="",
                       paper_notes="",
                       source_fn=lambda scale: "int main(void) {\n"
                       "    int *p = (int *)malloc(4 * sizeof(int));\n"
                       "    int i = 6;\n    p[i] = 1;\n    return 0;\n}\n")
        with pytest.raises(WorkloadTrapped) as info:
            run_workload(bad, "wrapped")
        assert info.value.workload == "oob"
        assert info.value.config == "wrapped"
        assert info.value.trap is not None

    def test_sweep_verify_accepts_custom_configs(self):
        sweep = Sweep()
        workload = _tiny_workload("sweep-tiny")
        for config in ("baseline", "subheap-np"):
            sweep.run(workload, config)
        # Must not raise despite the standard triple not being present.
        sweep.verify_outputs_agree(["baseline", "subheap-np"])
        sweep.verify_outputs_agree()  # inferred from configs actually run
