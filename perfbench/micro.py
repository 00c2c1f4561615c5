"""Unit costs of single layer operations, through public entry points.

With these, a layer's time can be split as count x unit cost: the traced run
counts `mul`/`inv` calls and minors, and these give the cost of one each.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

from mdconv import ConstMatrix, construct_mds_rate_1n, make_field
from mdconv.superreg import det

REPEATS = 5


def _median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def field_op_ns(F, op: str, n: int, rng) -> float:
    """Median ns per call of the bound method F.<op> over n seeded operands."""
    fn = getattr(F, op)
    if op == "inv":
        xs = [rng.randrange(1, F.q) for _ in range(n)]
        run = lambda: [fn(a) for a in xs]
    else:
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(n)]
        run = lambda: [fn(a, b) for a, b in pairs]
    return _median_time(run) / n * 1e9


def det_us(size: int, count: int, rng) -> float:
    F = make_field(23)
    mats = [ConstMatrix(F, tuple(tuple(rng.randrange(1, 23) for _ in range(size))
                                 for _ in range(size))) for _ in range(count)]
    return _median_time(lambda: [det(A) for A in mats]) / count * 1e6


def make_field_s() -> float:
    """Time to build the fields the workloads use, extension fields included."""
    specs = [(23, 1), (61, 1), (2, 3), (2, 4), (3, 3), (2, 5)]
    return _median_time(lambda: [make_field(p, e) for p, e in specs])


def layer_units(seed: int, smoke: bool) -> dict[str, float]:
    rng = random.Random(seed)
    n = 2000 if smoke else 20000
    Fp, Fe = make_field(23), make_field(2, 5)
    return {
        "galois.mul_ns.prime": field_op_ns(Fp, "mul", n, rng),
        "galois.mul_ns.ext": field_op_ns(Fe, "mul", n // 10, rng),
        "galois.inv_ns.prime": field_op_ns(Fp, "inv", n, rng),
        "galois.inv_ns.ext": field_op_ns(Fe, "inv", n // 100, rng),
        "galois.make_field_s": make_field_s(),
        "superreg.det_us": det_us(5, 100 if smoke else 1000, rng),
    }


# ---------------------------------------------------------------------------
# Command-line costs
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import mdconv; "
                "print(time.perf_counter() - t)")


def process_costs(env: dict, repeats: int = REPEATS) -> dict[str, float]:
    """Bare interpreter start, and `import mdconv` timed inside a fresh one."""
    starts, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, timeout=60)
        starts.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, env=env,
                             capture_output=True, timeout=60).stdout
        imports.append(float(out))
    return {"cli.python_ms": statistics.median(starts) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


def write_cli_inputs(workdir: str) -> None:
    """Small inputs for one in-process run of every subcommand."""
    code, _ = construct_mds_rate_1n(make_field(7), 2, 3, 1)
    files = {
        "code.json": code.to_json(),
        "fail.json": {"field": {"p": 7, "e": 1}, "entries": [[1, 2], [2, 4]]},
    }
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def cli_argvs(workdir: str) -> dict[str, list[str]]:
    p = lambda name: os.path.join(workdir, name)
    return {
        "bound": ["bound", "--m", "2", "--k", "1", "--n", "3", "--delta", "1"],
        "construct": ["construct", "--p", "13", "--m", "2", "--n", "3", "--delta", "1",
                      "--source", "random", "--seed", "1"],
        "construct-staircase": ["construct-staircase", "--p", "17", "--m", "1", "--k", "2",
                                "--n", "5", "--nu", "1"],
        "flatten": ["flatten", "-i", p("code.json")],
        "check-sr": ["check-sr", "-i", p("fail.json")],
        "certify": ["certify", "-i", p("code.json")],
        "witness": ["witness", "-i", p("code.json")],
        "encode": ["encode", "-i", p("code.json"), "--message", "[[[[0, 0], 1], [[1, 0], 2]]]"],
        "distance": ["distance", "-i", p("code.json"), "--cap", "1", "--workers", "2"],
        "selftest": ["selftest"],
    }


def run_main(argv) -> float:
    """Seconds for one in-process `mdconv.cli.main(argv)`, stdout discarded."""
    from mdconv import cli

    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return time.perf_counter() - t0
