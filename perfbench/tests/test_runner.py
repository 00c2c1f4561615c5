"""Tests of the benchmark runner, at smoke size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, spec  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(*args):
    return subprocess.run([*RUN, *args], capture_output=True, text=True, cwd=ROOT, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in spec.WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_result_line(workload, trace):
    res = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
              "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert res.returncode != 0
    assert res.stdout == ""


def test_message_count_matches_enumeration():
    from mdconv import construct_mds_rate_1n, free_distance_estimate, make_field
    for p, m, delta, cap in [(7, 2, 1, 1), (7, 2, 1, 2), (5, 1, 1, 3), (8, 1, 1, 2)]:
        F = make_field(2, 3) if p == 8 else make_field(p)
        code, _ = construct_mds_rate_1n(F, m, 3, delta)
        report = free_distance_estimate(code.generator, cap)
        assert report.messages_tried == oracle.normalized_message_count(F.q, 1, cap, m)


def test_injected_zero_is_the_first_zero_minor():
    from mdconv import ConstMatrix, is_superregular, make_field
    F = make_field(23)
    rng = random.Random(5)
    for size in (2, 3):
        for _ in range(5):
            xs = rng.sample(range(23), 12)
            S = oracle.cauchy_mod_p(23, xs[:6], xs[6:])
            M, (rs, cs) = oracle.inject_zero_minor(S, 23, rng, size)
            report = is_superregular(ConstMatrix(F, tuple(map(tuple, M))))
            assert report.failing_minor == (rs, cs, 0)
            assert report.minors_checked == oracle.minor_position(6, 6, rs, cs)
