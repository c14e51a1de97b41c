"""Tests of the benchmark itself: checks, seeds, output contract.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def T():
    return W.fresh_import()


def flip_one_byte(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]


def test_verify_output_is_pinned_and_a_flipped_byte_fails(T):
    op = W.verify_deep(T, 0).ops[0]
    result = op.run(None)
    assert op.check(result) == W.OK
    for at in (0, len(result.out) // 2, len(result.out) - 3):
        corrupted = result._replace(out=flip_one_byte(result.out, at))
        assert op.check(corrupted) == W.WRONG
    assert op.check(result._replace(rc=1)) == W.WRONG


def test_corrupted_and_raising_ops_count_as_failed_without_stopping(T):
    good = W.oracle_crosscheck(T, 0).ops[0]
    corrupted = W.Op("corrupted", lambda tracer: (1, 2), good.check)

    def boom(tracer):
        raise ZeroDivisionError("op raised")

    raising = W.Op("raising", boom, good.check)
    work = W.Workload("mixed", [good, corrupted, raising, good], good)
    tally = run.Tally()
    run.run_pass(work, tally)
    assert len(tally.durations) == 4
    assert tally.failed == 2
    assert tally.verdicts == {W.OK: 2, W.WRONG: 2}


def test_det_deep_check_rejects_a_changed_value(T):
    work = W.det_deep(T, 0)
    op = next(op for op in work.ops if "a0=2" in op.label)
    value = op.run(None)
    assert op.check(value) == W.OK
    assert op.check(value ^ 1) == W.WRONG
    cheap = next(op for op in work.ops if op.label.startswith("I-32"))
    assert cheap.check(cheap.run(None) + 1) == W.WRONG


def test_cli_check_tells_the_known_defect_from_a_wrong_output():
    argv = ["seq", "fibonacci", "--from", "0", "--to", "3"]
    op = W._cli_op(argv, 0, W.sha256(b"0 1 1 2\n"), W.DEFECT_STDERR)
    assert op.check(W.CliResult(0, b"0 1 1 2\n", b"")) == W.OK
    assert op.check(W.CliResult(0, b"0 1 1 3\n", b"")) == W.WRONG
    assert op.check(W.CliResult(2, b"", b"error: " + W.DEFECT_STDERR)) == W.KNOWN
    assert op.check(W.CliResult(2, b"", b"error: something else")) == W.WRONG


def test_known_defect_expectation_is_the_uncapped_output(T):
    expected = W.expected_defect_output()
    assert sys.get_int_max_str_digits() == 4300
    terms = T.seq_range(T.SequenceKind("tribonacci"), W.DEFECT_FROM, W.DEFECT_TO)
    sys.set_int_max_str_digits(0)
    try:
        assert expected.endswith(b"\n")
        assert [int(tok) for tok in expected.split()] == terms
    finally:
        sys.set_int_max_str_digits(4300)


def test_seed_changes_det_and_oracle_inputs_but_not_verify(T):
    def labels(build, seed):
        return sorted(op.label for op in build(T, seed).ops)

    assert labels(W.det_deep, 1) != labels(W.det_deep, 2)
    assert labels(W.det_deep, 1) == labels(W.det_deep, 1)
    assert labels(W.oracle_crosscheck, 1) != labels(W.oracle_crosscheck, 2)
    assert labels(W.oracle_crosscheck, 1) == labels(W.oracle_crosscheck, 1)
    assert labels(W.verify_deep, 1) == labels(W.verify_deep, 2)
    assert W.verify_deep(T, 1).ops[0].check is W.verify_deep(T, 2).ops[0].check
    order = [[op.label for op in W.cli_cold(T, seed).ops] for seed in (1, 2)]
    assert order[0] != order[1] and sorted(order[0]) == sorted(order[1])


def test_det_sizes_stay_in_range_and_pair_up():
    import random

    for seed in range(50):
        low, high = W.det_sizes(random.Random(seed))
        assert W.DET_N_LOW <= low < W.DET_N_HIGH and W.DET_N_LOW <= high < W.DET_N_HIGH
        assert low + high == W.DET_N_LOW + W.DET_N_HIGH - 1


def _bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle-crosscheck", "--seed", "3",
           "--seconds", "0.01"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    with open(os.path.join(W.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _bench(W.ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(W.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(W.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
