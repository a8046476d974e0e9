"""Throughput of the differential fuzzing subsystem (repro.fuzz).

The fuzzer's value scales with how many generated programs it can push
through the compile-run-compare loop per second, so this bench tracks
three costs separately:

* **generation** — seed to mini-C source (no compilation);
* **transparency** — one clean differential iteration across the
  standard configuration set;
* **end-to-end** — the full driver loop (clean phase + attack
  injection) as ``python -m repro.fuzz`` runs it.
"""

import pytest

from repro.fuzz import check_clean, generate_program, run_fuzz
from repro.obs.metrics import write_bench

_CONFIGS = ["baseline", "subheap", "wrapped", "subheap-np"]


@pytest.mark.benchmark(group="fuzz")
def test_fuzz_generation_rate(benchmark):
    """Pure generation: seed -> source, no compilation or execution."""
    counter = [0]

    def generate_batch():
        base = counter[0]
        counter[0] += 50
        return [generate_program(0, base + i).source for i in range(50)]

    sources = benchmark(generate_batch)
    assert len(sources) == 50
    assert all("int main(void)" in s for s in sources)


@pytest.mark.benchmark(group="fuzz")
def test_fuzz_transparency_rate(benchmark):
    """One clean differential check across the standard config set."""
    program = generate_program(0, 0)

    def check():
        return check_clean(program.source, _CONFIGS)

    runs, divergences = benchmark.pedantic(check, rounds=3, iterations=1)
    assert divergences == []
    assert len(runs) == len(_CONFIGS)


@pytest.mark.benchmark(group="fuzz")
def test_fuzz_end_to_end_rate(benchmark, tmp_path):
    """The full driver loop, as the CLI runs it; reports programs/s and
    executions/s alongside the timing."""

    def fuzz():
        return run_fuzz(10, seed=0, corpus_dir=str(tmp_path),
                        log=lambda message: None)

    stats = benchmark.pedantic(fuzz, rounds=1, iterations=1)
    assert stats.ok, stats.summary()
    print(f"\nfuzz throughput: "
          f"{stats.programs / stats.elapsed:.2f} programs/s, "
          f"{stats.executions / stats.elapsed:.1f} runs/s "
          f"({stats.attacks_injected} attacks, "
          f"{stats.attacks_detected}/{stats.attacks_detectable} "
          f"detected)")
    # Seed the perf trajectory: BENCH_fuzz_throughput.json in the shared
    # repro.obs schema ($REPRO_BENCH_DIR overrides the directory).
    path = write_bench(
        "fuzz_throughput",
        {"seed": 0, "iterations": 10, "configs": ",".join(stats.configs)},
        stats.metrics())
    print(f"bench record: {path}")
