"""Host-time benchmark of the whole user path, one workload per process.

    python3 perfbench/run.py --workload juliet-suite --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --regen-goldens

A run builds its workload's op list (ops.py), permutes it with
``--seed``, runs one untimed warm-up op, then repeats closed-loop passes
over the list (one client, one op at a time, in this one process) while
another pass still fits in ``--seconds``, checking every op's verdict
against goldens.json.  Times are rescaled to the reference host speed
by the calibration kernel of hostspeed.py, timed right before and right
after each op and each set-up.  Each op's time is the median over the
passes; ``pass_s`` sums those medians.  ``setup_s`` is the median of
this process's own set-up and of a few cold set-ups in fresh
interpreters, run one after the other before the timed passes.  With
``--trace 1`` it times one plain pass and one traced pass (ledger.py)
instead and reports the per-layer ledger.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import time

import hostspeed

_KERNEL_BEFORE = hostspeed.median_kernel_seconds()
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"
LEDGER_DIR = HERE / "out"
#: cold set-ups in fresh interpreters, besides this process's own
COLD_SETUPS = 6
COLD_SETUP_TIMEOUT_S = 120
#: ledger check: layer self times must cover this share of the pass
MIN_COVERAGE = 0.95

if __name__ == "__main__" and not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a full "
             "checkout of the repository")
sys.path.insert(0, str(SRC))

import ops  # noqa: E402
from repro.vm import Machine  # noqa: E402


def load_goldens(workload: str) -> dict:
    return json.loads(GOLDENS.read_text())["workloads"][workload]


def check(op, goldens: dict) -> bool:
    """Run one op; True when its verdict matches the golden digest."""
    try:
        verdict = op.run()
    except Exception as exc:  # an op that raises is a failed op
        print(f"FAILED {op.key}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return False
    if ops.digest(verdict) != goldens.get(op.key):
        print(f"FAILED {op.key}: verdict differs from its golden",
              file=sys.stderr)
        return False
    return True


def run_pass(order, goldens, op_seconds=None, ledger=None):
    """One closed-loop pass over ``order``; returns (seconds, failed).
    With ``op_seconds``, the kernel runs three times between ops and
    each op's time, rescaled by the median kernel runs on either side,
    goes to its list."""
    gc.collect()
    failed = 0
    start = time.perf_counter()
    if op_seconds is not None:
        kernel = hostspeed.median_kernel_seconds(3)
    for index, op in enumerate(order):
        began = time.perf_counter()
        if ledger is not None:
            ledger.op = index
            root = ledger.open(op.key)
        failed += not check(op, goldens)
        if ledger is not None:
            ledger.close(root)
        if op_seconds is not None:
            seconds = time.perf_counter() - began
            after = hostspeed.median_kernel_seconds(3)
            op_seconds[index].append(hostspeed.rescale(seconds, kernel,
                                                       after))
            kernel = after
    return time.perf_counter() - start, failed


class InstructionCount:
    """Simulated instructions of every ``Machine.run`` while installed."""

    def __init__(self):
        self.total = 0

    def __enter__(self):
        self._run = run = Machine.run

        def counted(machine, *args, **kwargs):
            result = run(machine, *args, **kwargs)
            self.total += result.stats.total_instructions
            return result
        Machine.run = counted
        return self

    def __exit__(self, *exc):
        Machine.run = self._run


def setup(workload: str, seed: int):
    """Build the op list, permute it, load goldens, run the warm-up op.
    The warm-up op is fixed, so set-up work does not depend on the seed."""
    suite = ops.build(workload)
    order = suite.ordered(seed)
    goldens = load_goldens(workload)
    warm_ok = check(suite.ops[0], goldens)
    return order, goldens, warm_ok


def cold_setups(args):
    """Set-up seconds of ``COLD_SETUPS`` fresh interpreters, run one at a
    time; returns (seconds list, failed set-ups)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    seconds, failed = [], 0
    for _ in range(COLD_SETUPS):
        proc = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                              text=True, timeout=COLD_SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"FAILED cold set-up: {proc.stderr.strip()}",
                  file=sys.stderr)
            failed += 1
            continue
        seconds.append(float(proc.stdout.split()[-1]))
    return seconds, failed


def measure(args, order, goldens):
    """Passes while another one fits in ``args.seconds``; each op's time
    is its median over the passes."""
    op_seconds = [[] for _ in order]
    passes, instructions = [], []
    failed = 0
    start = time.perf_counter()
    with InstructionCount() as count:
        while True:
            count.total = 0
            seconds, bad = run_pass(order, goldens, op_seconds)
            passes.append(seconds)
            instructions.append(count.total)
            failed += bad
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(passes) > args.seconds:
                break
    per_op_ms = [statistics.median(s) * 1e3 for s in op_seconds]
    pass_s = sum(per_op_ms) / 1e3
    print(f"passes: {len(passes)} x {len(order)} ops, wall seconds "
          "with kernel runs " + ", ".join(f"{s:.3f}" for s in passes))
    print(f"op percentiles over {len(per_op_ms)} per-op medians "
          f"({len(passes)} samples each)")
    metrics = {
        "pass_s": pass_s,
        "guest_mips": statistics.median(instructions) / pass_s / 1e6,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms_p50": statistics.median(per_op_ms),
        "op_ms_p90": statistics.quantiles(
            per_op_ms, n=10, method="inclusive")[8],
    }
    consistent = len(set(instructions)) == 1
    if not consistent:
        print("simulated instructions differ between passes",
              file=sys.stderr)
    return metrics, len(passes) * len(order), failed, consistent


def trace(args, order, goldens):
    from ledger import Ledger
    untraced_s, failed = run_pass(order, goldens)
    book = Ledger()
    with book.installed():
        traced_s, bad = run_pass(order, goldens, ledger=book)
    table = book.table(traced_s, untraced_s)
    path = LEDGER_DIR / f"{args.workload}-seed{args.seed}.json"
    book.write(path, {"workload": args.workload, "seed": args.seed,
                      "pass_s": traced_s, "untraced_pass_s": untraced_s},
               table, [op.key for op in order])
    print(f"ledger written to {path}")
    covered = table["trace.coverage"] >= MIN_COVERAGE
    if not covered:
        print(f"layer self times cover {table['trace.coverage']:.3f} of "
              f"the traced pass, below {MIN_COVERAGE}", file=sys.stderr)
    return table, 2 * len(order), failed + bad, covered


def regen_goldens() -> int:
    """Regenerate goldens.json from the reference interpreter, after
    checking that the default engine reproduces every digest."""
    goldens = {}
    for workload in ops.WORKLOADS:
        reference = ops.verdicts(ops.build(workload, engine="reference"))
        auto = ops.verdicts(ops.build(workload, engine="auto"))
        differ = sorted(key for key in reference
                        if auto[key] != reference[key])
        if differ:
            print(f"{workload}: engine=auto differs from engine=reference "
                  f"on {', '.join(differ)}", file=sys.stderr)
            return 1
        goldens[workload] = reference
        print(f"{workload}: {len(reference)} ops, engines agree")
    GOLDENS.write_text(json.dumps(
        {"oracle": "engine=reference, matched by engine=auto",
         "workloads": goldens}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-goldens", action="store_true",
                        help="rewrite goldens.json and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit")
    args = parser.parse_args(argv)
    if args.regen_goldens:
        return regen_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    order, goldens, warm_ok = setup(args.workload, args.seed)
    setup_s = hostspeed.rescale(time.perf_counter() - _START,
                                _KERNEL_BEFORE,
                                hostspeed.median_kernel_seconds())
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0 if warm_ok else 1
    spec = json.loads(SPEC.read_text())
    failed, attempted = int(not warm_ok), 1
    if args.trace:
        values, ran, bad, ok = trace(args, order, goldens)
        wanted = spec["per_layer"]
    else:
        cold, cold_failed = cold_setups(args)
        values, ran, bad, ok = measure(args, order, goldens)
        print("set-up seconds: " + ", ".join(
            f"{s:.3f}" for s in [setup_s] + cold))
        values["setup_s"] = statistics.median([setup_s] + cold)
        attempted += COLD_SETUPS
        failed += cold_failed
        wanted = spec["end_to_end"]
    attempted += ran
    failed += bad
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
