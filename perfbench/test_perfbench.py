"""Self-test of the benchmark: op lists, seeds and golden checks.

    python3 -m pytest perfbench -q
"""

import pytest

import run as bench  # puts the checkout's src/ on sys.path first
import ops


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_op_list_is_deterministic_per_seed(workload):
    first = [op.key for op in ops.build(workload).ordered(7)]
    again = [op.key for op in ops.build(workload).ordered(7)]
    assert first == again


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_seeds_permute_the_same_ops(workload):
    suite = ops.build(workload)
    one = [op.key for op in suite.ordered(1)]
    two = [op.key for op in suite.ordered(2)]
    assert one != two
    assert sorted(one) == sorted(two) == sorted(bench.load_goldens(workload))


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_one_op_verifies_and_a_corrupted_golden_fails(workload):
    goldens = bench.load_goldens(workload)
    op = ops.build(workload).ordered(3)[:1]
    assert bench.run_pass(op, goldens)[1] == 0
    corrupted = dict(goldens, **{op[0].key: "0" * 16})
    assert bench.run_pass(op, corrupted)[1] == 1


def test_setup_only_prints_its_seconds(capsys):
    assert bench.main(["--workload", "juliet-suite", "--setup-only"]) == 0
    assert float(capsys.readouterr().out.split()[-1]) > 0
