"""Throughput scaling of the sharded campaign engine (repro.par).

Runs the same fixed-seed fuzzing campaign at ``--jobs`` 1, 2 and 4 and
records programs/second per worker count, plus the pool's own
utilization accounting (steals, busy fractions).  Two properties are
asserted:

* **determinism** — every worker count produces the same merged
  counters (the byte-identical guarantee, minus timing);
* **scaling** — on a machine with at least 4 CPUs, 4 workers must
  deliver at least 2x the throughput of 1.  Every worker count runs
  through the same pool and starts from cold workers.  On smaller hosts
  (CI containers here expose a single core, where any speedup is
  physically impossible) the numbers are recorded but not gated.
"""

import os

import pytest

from repro.obs.metrics import write_bench
from repro.par.engine import run_campaign_plan
from repro.par.kinds import plan_fuzz
from repro.par.merge import canonical_metrics

_SEED = 0
_ITERATIONS = 24
_CONFIGS = ["baseline", "wrapped"]
_JOBS = (1, 2, 4)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # non-Linux
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="par")
def test_parallel_scaling(benchmark, tmp_path):
    runs = {}

    def campaign(jobs: int):
        plan = plan_fuzz(
            _ITERATIONS, _SEED, configs=_CONFIGS,
            corpus_dir=str(tmp_path / f"corpus-j{jobs}"), jobs=jobs)
        return run_campaign_plan(plan, jobs=jobs)

    def sweep():
        for jobs in _JOBS:
            runs[jobs] = campaign(jobs)
        return runs

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    for jobs, (stats, outcome) in runs.items():
        assert outcome.ok, outcome.summary()
        assert stats.ok, stats.summary()

    # determinism gate: merged counters identical across worker counts
    reference = canonical_metrics(runs[1][0].metrics())
    for jobs in _JOBS[1:]:
        assert canonical_metrics(runs[jobs][0].metrics()) \
            == reference, f"--jobs {jobs} diverged from --jobs 1"

    throughput = {
        jobs: stats.programs / (outcome.wall_seconds or 1e-9)
        for jobs, (stats, outcome) in runs.items()}
    cpus = _cpu_count()
    for jobs in _JOBS:
        print(f"\n  jobs={jobs}: {throughput[jobs]:.2f} programs/s "
              f"({runs[jobs][1].wall_seconds:.1f}s wall, "
              f"{runs[jobs][1].steals} steals)")
    speedup4 = throughput[4] / (throughput[1] or 1e-9)
    print(f"  speedup at 4 workers: {speedup4:.2f}x ({cpus} CPUs)")
    if cpus >= 4:
        assert speedup4 >= 2.0, (
            f"expected >=2x throughput at 4 workers on a {cpus}-CPU "
            f"host, measured {speedup4:.2f}x")

    path = write_bench(
        "parallel_scaling",
        {"seed": _SEED, "iterations": _ITERATIONS,
         "configs": ",".join(_CONFIGS), "cpus": cpus},
        {
            "throughput_programs_per_second": {
                str(jobs): throughput[jobs] for jobs in _JOBS},
            "speedup_4_workers": speedup4,
            "pool": {str(jobs): runs[jobs][1].utilization_metrics()
                     for jobs in _JOBS},
        })
    print(f"  bench record: {path}")
