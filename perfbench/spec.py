"""What the benchmark measures: workloads and metrics, with units.

`BENCHMARK.json` at the repository root is generated from this file
(`python3 perfbench/run.py --all` rewrites it), and the runner reports
exactly these metric names.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = [
    {"name": "certify",
     "why": "prime-field minor scans: full Cauchy passes, early-exit random searches and "
            "injected-zero certificates; superreg does the work, distance none"},
    {"name": "extfield",
     "why": "GF(2^4), GF(3^3), GF(2^5) certificates and the scalar GF(8) distance path, "
            "where per-element extension arithmetic dominates"},
]

# Bounded metrics, reported by every untraced run.  `wall_ref` is one round's
# wall time in slices of the reference kernel timed beside it (calib.py).
# The raw round time `wall_s` and the workload-specific figures (certify_s,
# construct_s, distance_s, messages_per_s, failed_frac) are printed beside
# them but carry no bound: the raw times drift with the host's speed by more
# than any bound, and not every workload has the specific ones.
END_TO_END = [
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

MODULES = ["galois", "multipoly", "superreg", "codes", "distance", "cli"]
CLI_SUBCOMMANDS = ["bound", "construct", "construct-staircase", "flatten", "check-sr",
                   "certify", "witness", "encode", "distance", "selftest"]


def _h(name, unit):
    return {"name": name, "unit": unit, "better": "higher"}


def _l(name, unit):
    return {"name": name, "unit": unit, "better": "lower"}


PER_LAYER = [
    _l("galois.mul_calls", "count"), _l("galois.inv_calls", "count"),
    _l("galois.add_calls", "count"),
    _l("galois.mul_ns.prime", "ns"), _l("galois.mul_ns.ext", "ns"),
    _l("galois.inv_ns.prime", "ns"), _l("galois.inv_ns.ext", "ns"),
    _l("galois.make_field_s", "s"),
    _l("superreg.scans", "count"), _l("superreg.scans_failed", "count"),
    _l("superreg.minors_checked.pass", "count"), _l("superreg.minors_checked.fail", "count"),
    _l("superreg.scan_s.pass", "s"), _l("superreg.scan_s.fail", "s"),
    _h("superreg.minors_per_s", "1/s"), _l("superreg.det_us", "us"),
    _l("superreg.search_tries", "count"), _h("superreg.search_yield", "ratio"),
    _l("codes.flatten_s", "s"), _l("codes.lift_s", "s"), _l("codes.certify_self_s", "s"),
    _l("multipoly.matmul_calls", "count"), _l("multipoly.matmul_s", "s"),
    _l("multipoly.row_rank_s", "s"),
    _l("distance.calls", "count"), _l("distance.messages_tried", "count"),
    _l("distance.search_space", "count"), _l("distance.tried_share", "ratio"),
    _l("distance.scan_s", "s"), _h("distance.msgs_per_s", "1/s"),
    _h("distance.cpu_per_wall", "ratio"),
    _l("cli.python_ms", "ms"), _l("cli.import_ms", "ms"),
    *[_l(f"cli.main_ms.{sub}", "ms") for sub in CLI_SUBCOMMANDS],
    *[_l(f"self_s.{mod}", "s") for mod in MODULES],
    _l("trace.overhead_frac", "ratio"),
]


def benchmark_json() -> str:
    spec = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
    return json.dumps(spec, indent=2) + "\n"
