#!/usr/bin/env python3
"""mdconv benchmark runner.

One workload:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 40 --trace 0

builds the workload's inputs from the seed (set-up), runs its fixed list of
operations in rounds for about --seconds, checks every exact answer, and
prints as its last line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of `spec.END_TO_END`; with
--trace 1 they are the per-layer ones of `spec.PER_LAYER`.  The line before
it holds every figure of the run, workload-specific ones included, with the
environment.

Every workload, untraced and traced, with a table of every metric:

    python3 perfbench/run.py --all [--seconds 40] [--seed 0] [--out FILE]

which also rewrites BENCHMARK.json from `spec.py`.  `--smoke` shrinks every
input for a quick run of the machinery (then the golden answers, which are
recorded for the full-size default seed, are not compared).
`--record-golden` rewrites perfbench/golden.json from the current program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = BENCH / "golden.json"
SETUP_SAMPLES = 7  # this process plus six fresh ones
REF_EVERY = 0.2  # seconds of operations between two reference slices


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the runner")
    ap.add_argument("--all", action="store_true", help="run every workload, traced and not")
    ap.add_argument("--out", help="with --all: also write every figure to this JSON file")
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, smoke: bool, workdir: Path):
    """Import mdconv, build the fields and inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    from perfbench.workloads import SETUPS
    workdir.mkdir(parents=True, exist_ok=True)
    wl = SETUPS[name](seed, smoke, str(workdir))
    return wl, time.perf_counter() - t0


def run_round(wl, ref=None, tracer=None):
    """One pass over the workload's operations.  With `ref`, reference slices
    run at the start, at the end and after an operation, one for each
    REF_EVERY seconds of operations since the last, and "ref" is the median
    slice time of the round."""
    times, summaries, raws, slices = [], [], [], []
    if ref:
        slices.append(ref.slice())
    owed = 0.0
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            summary, raw = tracer.operation(op.name, op.run) if tracer else op.run()
        except Exception as exc:  # a raising operation counts as failed
            summary, raw = {"error": f"{type(exc).__name__}: {exc}"}, None
        times.append(time.perf_counter() - t0)
        summaries.append(summary)
        raws.append(raw)
        owed += times[-1]
        while ref and owed >= REF_EVERY:
            slices.append(ref.slice())
            owed -= REF_EVERY
    if ref:
        slices.append(ref.slice())
    return {"times": times, "wall": sum(times), "summaries": summaries, "raws": raws,
            "ref": statistics.median(slices) if slices else None}


def round_time(rounds) -> float:
    """Typical time of one round: the sum over operations of each one's
    median time.  Unlike the median of round sums it also discounts a slow
    spell that covers only part of a round."""
    return sum(statistics.median(ts) for ts in zip(*(r["times"] for r in rounds)))


def round_ref(rounds) -> float:
    """Typical round wall time in reference slices: the median over rounds of
    the round's wall time over its own median slice time.  Host slowdowns
    that last longer than a round move both and cancel out."""
    return statistics.median(r["wall"] / r["ref"] for r in rounds)


def run_rounds(wl, budget: float, ref, tracer=None):
    """Closed loop: rounds back to back until another would overrun `budget`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(wl, ref, tracer))
        if len(rounds) > 1:  # only round 0's results are checked in full
            rounds[-1]["raws"] = None
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall"] for r in rounds) > budget:
            return rounds


def check(wl, rounds, seed, smoke):
    """Exactness: per-operation checks on round 0, the golden answers for the
    default seed, identical answers in every later round, and the workload's
    extra checks.  Returns (attempted, list of failure names)."""
    from perfbench.workloads import DEFAULT_SEED
    first = rounds[0]
    golden = None
    if seed == DEFAULT_SEED and not smoke:
        golden = json.loads(GOLDEN.read_text())[wl.name]
    bad = set()
    for i, op in enumerate(wl.ops):
        summary, raw = first["summaries"][i], first["raws"][i]
        try:
            ok = "error" not in summary and op.check(summary, raw)
        except Exception:  # a check that cannot even run fails the operation
            ok = False
        if golden is not None:
            ok = ok and len(golden) == len(wl.ops) and golden[i] == summary
        if not ok:
            bad.add(i)
    failures = []
    for r, rnd in enumerate(rounds):
        for i, op in enumerate(wl.ops):
            if i in bad or rnd["summaries"][i] != first["summaries"][i]:
                failures.append(f"round {r}: {op.name}")
    attempted = len(rounds) * len(wl.ops)
    extra = wl.extra_checks(first["raws"])
    attempted += len(extra)
    failures += [name for name, ok in extra if not ok]
    return attempted, failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process and of fresh processes doing the same."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def workload_figures(wl, rounds) -> dict[str, tuple[float, str]]:
    """The end-to-end figures a workload has, beyond the bounded ones."""
    out = {}
    for kind, metric in (("construct", "construct_s"), ("certify", "certify_s"),
                         ("distance", "distance_s")):
        idx = [i for i, op in enumerate(wl.ops) if op.kind == kind]
        if idx:
            out[metric] = (statistics.median(sum(r["times"][i] for i in idx) for r in rounds), "s")
    dist = [i for i, op in enumerate(wl.ops) if op.kind == "distance"]
    if dist:
        tried = sum(r["summaries"][i].get("messages_tried", 0) for r in rounds for i in dist)
        spent = sum(r["times"][i] for r in rounds for i in dist)
        out["messages_per_s"] = (tried / spent, "1/s")
    return out


def environment(args) -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "commit": commit,
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke}


def traced_layers(wl, ref, args, workdir: Path, untraced_budget: float, traced_budget: float):
    """Per-layer figures: untraced rounds, then traced rounds, then one traced
    in-process run of every subcommand, then the unit-cost probes."""
    from perfbench import micro, spec, trace
    from perfbench.workloads import cli_env

    plain = run_rounds(wl, untraced_budget, ref)
    tracer = trace.Tracer()
    tracer.install()
    try:
        rounds = run_rounds(wl, traced_budget, ref, tracer)
        n_round_spans, round_counts = len(tracer.spans), dict(tracer.counts)
        micro.write_cli_inputs(str(workdir))
        argvs = micro.cli_argvs(str(workdir))
        for argv in argvs.values():
            micro.run_main(argv)
    finally:
        tracer.uninstall()
    # Per round of the workload, plus the one in-process pass of every
    # subcommand (which keeps every layer entered on every workload).
    per_round = Fraction(1, len(rounds))
    for s in tracer.spans[:n_round_spans]:
        s.weight = per_round
    counts = {k: round_counts[k] * per_round + tracer.counts[k] - round_counts[k]
              for k in tracer.counts}
    layers = {k: float(v) for k, v in trace.layer_metrics(tracer.spans, counts).items()}
    layers.update(micro.layer_units(args.seed, args.smoke))
    layers.update(micro.process_costs(cli_env()))
    for sub, argv in argvs.items():
        layers[f"cli.main_ms.{sub}"] = statistics.median(
            micro.run_main(argv) for _ in range(3)) * 1e3
    layers["trace.overhead_frac"] = round_ref(rounds) / round_ref(plain) - 1
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    return (plain + rounds, {k: (layers[k], units[k]) for k in units},
            str(spans_file.relative_to(ROOT)))


def run_workload(args) -> dict:
    from perfbench import spec
    from perfbench.calib import Reference

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        wl, setup_first = set_up(args.workload, args.seed, args.smoke, workdir)
        ref = Reference()
        for _ in range(3):  # warm-up
            ref.slice()
        spans_file = None
        if args.trace:
            rounds, report, spans_file = traced_layers(wl, ref, args, workdir, seconds / 3,
                                                       seconds * 2 / 3)
        else:
            rounds = run_rounds(wl, seconds, ref)
            rss = peak_rss_mb()
        if len(rounds) == 1:  # answers must repeat; give them a second round
            rounds.append(run_round(wl, ref))
        attempted, failures = check(wl, rounds, args.seed, args.smoke)
        if not args.trace:
            setup = setup_samples(args, setup_first)
            report = {
                "wall_ref": (round_ref(rounds), "ref"),
                "wall_s": (round_time(rounds), "s"),
                "ref_ms": (statistics.median(r["ref"] for r in rounds) * 1e3, "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (rss, "MB"),
                **workload_figures(wl, rounds),
                "failed_frac": (len(failures) / attempted, "ratio"),
                "rounds": (len(rounds), "count"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [m["name"] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    print(json.dumps({
        "env": environment(args),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "failures": failures[:20],
        "spans": spans_file,
    }))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]} for k in names},
    }


# ---------------------------------------------------------------------------
# Golden answers, every workload, entry point
# ---------------------------------------------------------------------------

def record_golden(names):
    from perfbench.workloads import DEFAULT_SEED
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in names:
        workdir = OUT / f"golden-{name}"
        try:
            wl, _ = set_up(name, DEFAULT_SEED, False, workdir)
            rnd = run_round(wl)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = [op.name for op, s, r in zip(wl.ops, rnd["summaries"], rnd["raws"])
               if "error" in s or not op.check(s, r)]
        if bad:
            raise SystemExit(f"{name}: answers fail their checks, not recorded: {bad}")
        golden[name] = rnd["summaries"]
        print(f"recorded {len(rnd['summaries'])} answers for {name}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    from perfbench import spec

    (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
    results = {}
    ok = True
    for w in spec.WORKLOADS:
        name = w["name"]
        for tr in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(tr)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={tr}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                ok = False
                continue
            detail, final = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and final["correct"]
            entry = results.setdefault(name, {"env": detail["env"], "metrics": {}})
            entry["metrics"].update(detail["report"])
            entry[f"trace{tr}"] = {k: final[k] for k in ("correct", "attempted", "failed")}
    for name, entry in results.items():
        print(f"== {name}  ({entry.get('trace0')}, traced {entry.get('trace1')})")
        for metric, v in entry["metrics"].items():
            print(f"  {metric:34s} {v['value']:>16.6g} {v['unit']}")
    if results:
        env = next(iter(results.values()))["env"]
        print("env: " + json.dumps({k: env[k] for k in ("nproc", "python", "numpy", "cpu",
                                                         "commit", "seed")}))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdconv" / "__init__.py").is_file():
        print(f"error: no mdconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    OUT.mkdir(parents=True, exist_ok=True)
    from perfbench import spec
    names = [w["name"] for w in spec.WORKLOADS]
    if args.all:
        return run_all(args)
    if args.record_golden:
        record_golden([args.workload] if args.workload else names)
        return 0
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = OUT / f"setup-{os.getpid()}"
        try:
            _, seconds = set_up(args.workload, args.seed, args.smoke, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(seconds)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
