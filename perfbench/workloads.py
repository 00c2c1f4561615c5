"""The two benchmark workloads, built from a seed.

Each workload is a fixed list of operations run in order, one at a time (a
closed loop with one client).  An operation calls one public mdconv entry
point on inputs made here from the seed, and returns a JSON-able summary of its exact answer plus the raw result.
Every operation carries a check of that answer that holds for any seed; for
the default seed the summaries are also compared with `golden.json`.

Sizes are chosen so that one round costs roughly the same for every seed:
the seed moves values (Cauchy points, injected zeros, search seeds), never
the fields or shapes that set the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from mdconv import (
    CERTIFIED_MDS,
    NOT_CERTIFIED,
    CodeDescriptor,
    ConstMatrix,
    cauchy_matrix,
    certify,
    construct_mds_rate_1n,
    construct_mds_staircase,
    free_distance_estimate,
    make_field,
    phi_flatten,
    phi_lift,
)

from . import oracle

DEFAULT_SEED = 0
P = 23  # the prime field of the certify workload


@dataclass
class Op:
    name: str
    kind: str  # "construct", "certify" or "distance"
    run: Callable[[], tuple[Any, Any]]  # -> (summary, raw result)
    check: Callable[[Any, Any], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Checks beyond the per-operation ones, run once after timing; each
    # returns a list of (name, passed) pairs given the round-0 raw results.
    extra_checks: Callable[[list[Any]], list[tuple[str, bool]]] = lambda raws: []


def sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def code_summary(code, cert) -> dict:
    return {"certificate": cert.to_json(), "generator_sha256": sha(code.to_json())}


def rate_1n_distance(m, n, delta):
    return n * comb(delta + m, m)


def staircase_distance(m, k, n, nu):
    delta = k * nu + k - 1
    t = delta // k
    return n * comb(t + m, m) - k * (t + 1) + delta + 1


def flat_shape(spec) -> tuple[int, int]:
    kind, m, k, n, d = spec
    if kind == "rate_1n":
        return comb(d + m, m), n
    return (k - 1) * comb(d + 1 + m, m) + comb(d + m, m), n


def expected_distance(spec) -> int:
    kind, m, k, n, d = spec
    return rate_1n_distance(m, n, d) if kind == "rate_1n" else staircase_distance(m, k, n, d)


def construct(F, spec, source="cauchy", seed=0):
    kind, m, k, n, d = spec
    if kind == "rate_1n":
        return construct_mds_rate_1n(F, m, n, d, source=source, seed=seed)
    return construct_mds_staircase(F, m, k, n, d, source=source, seed=seed)


def row_plan(spec):
    kind, m, k, n, d = spec
    return [(1, d)] if kind == "rate_1n" else [(1, d + 1)] * (k - 1) + [(1, d)]


def passed_certificate(cert, spec) -> bool:
    rows, cols = flat_shape(spec)
    return (
        cert.verdict == CERTIFIED_MDS
        and cert.certified_distance == expected_distance(spec)
        and cert.hypotheses[-1].detail == f"all {oracle.minors_count(rows, cols)} minors nonzero"
    )


def flattens_to(code, entries) -> bool:
    return [list(r) for r in phi_flatten(code.generator).matrix.entries] == [list(r) for r in entries]


def seeded_cauchy_points(rng, q, rows, cols):
    pts = rng.sample(range(q), rows + cols)
    return pts[:rows], pts[rows:]


# ---------------------------------------------------------------------------
# certify: the superregularity minor scan on prime fields
# ---------------------------------------------------------------------------

def setup_certify(seed: int, smoke: bool, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    state: dict = {}

    # Full passes: seeded Cauchy sources, every minor scanned three times
    # (the construction checks its explicit source, then its own certificate,
    # then `certify`).  The field is fixed: the cost of `inv` grows with p.
    full = [("rate_1n", 2, 1, 6, 2)] if smoke else [
        ("rate_1n", 2, 1, 6, 2),     # 6 x 6,    923 minors
        ("staircase", 1, 2, 7, 2),   # 7 x 7,  3,431 minors
        ("rate_1n", 1, 1, 8, 7),     # 8 x 8, 12,869 minors
        ("staircase", 2, 2, 5, 1),   # 9 x 5,  2,001 minors
    ]
    F = make_field(P)
    for i, spec in enumerate(full):
        rows, cols = flat_shape(spec)
        cauchy = oracle.cauchy_mod_p(P, *seeded_cauchy_points(rng, P, rows, cols))
        S = ConstMatrix(F, tuple(map(tuple, cauchy)))

        def run_construct(spec=spec, S=S, i=i):
            code, cert = construct(F, spec, source=S)
            state[i] = code
            return code_summary(code, cert), (code, cert)

        def check_construct(summary, raw, spec=spec, cauchy=cauchy):
            code, cert = raw
            return passed_certificate(cert, spec) and flattens_to(code, cauchy)

        def run_certify(i=i):
            cert = certify(state[i])
            return cert.to_json(), cert

        ops.append(Op(f"construct {spec[0]} {rows}x{cols} GF({P})", "construct",
                      run_construct, check_construct))
        ops.append(Op(f"certify {spec[0]} {rows}x{cols} GF({P})", "certify", run_certify,
                      lambda s, cert, spec=spec: passed_certificate(cert, spec)))

    # Early exits: seeded random 4x4 sources over GF(61).  Most tries stop at
    # an early zero minor; many short searches keep the round cost steady.
    F61 = make_field(61)
    search_spec = ("rate_1n", 3, 1, 4, 1)
    for _ in range(8 if smoke else 160):
        s = rng.randrange(2**31)

        def run_search(s=s):
            code, cert = construct(F61, search_spec, source="random", seed=s)
            return code_summary(code, cert), (code, cert)

        ops.append(Op(f"construct random 4x4 GF(61) seed {s}", "construct", run_search,
                      lambda summ, raw: passed_certificate(raw[1], search_spec)))

    # Failing certificates: a seeded Cauchy source with one injected zero
    # 3 x 3 minor; the certificate must name its first canonical location.
    fail_spec = ("staircase", 1, 2, 7, 2)
    rows, cols = flat_shape(fail_spec)
    for _ in range(2 if smoke else 8):
        xs, ys = seeded_cauchy_points(rng, P, rows, cols)
        M, (rs, cs) = oracle.inject_zero_minor(oracle.cauchy_mod_p(P, xs, ys), P, rng, 3)
        code = CodeDescriptor.from_generator(
            phi_lift(ConstMatrix(F, tuple(map(tuple, M))), fail_spec[1], row_plan(fail_spec))
        )
        detail = f"zero minor at rows {list(rs)}, cols {list(cs)}"

        def run_fail(code=code):
            cert = certify(code)
            return cert.to_json(), cert

        ops.append(Op(f"certify injected zero GF({P}) at {rs}x{cs}", "certify", run_fail,
                      lambda s, cert, detail=detail: cert.verdict == NOT_CERTIFIED
                      and cert.hypotheses[-1].detail == detail))
    return Workload("certify", ops)


# ---------------------------------------------------------------------------
# Distance answers
# ---------------------------------------------------------------------------

def _distance_checks(G, bound, space, expect_below):
    def check(summary, report):
        w = (report.witness_message @ G).weight()
        if w != report.min_weight_found:
            return False
        if expect_below:
            return report.below_bound and report.min_weight_found < bound \
                and report.messages_tried <= space
        return (not report.below_bound and report.min_weight_found == bound
                and report.messages_tried == space)
    return check


# ---------------------------------------------------------------------------
# extfield: per-element GF(p^e) arithmetic in both jobs
# ---------------------------------------------------------------------------

def setup_extfield(seed: int, smoke: bool, workdir: str) -> Workload:
    rng = random.Random(seed)
    state: dict = {}
    ops = []
    certs = [((2, 4), ("rate_1n", 2, 1, 6, 1))] if smoke else [
        ((2, 4), ("rate_1n", 2, 1, 6, 1)),    # GF(16), 3 x 6
        ((3, 3), ("staircase", 1, 2, 5, 1)),  # GF(27), 5 x 5
        ((2, 5), ("rate_1n", 2, 1, 5, 2)),    # GF(32), 6 x 5
    ]
    for i, ((p, e), spec) in enumerate(certs):
        F = make_field(p, e)
        rows, cols = flat_shape(spec)
        S = cauchy_matrix(F, *seeded_cauchy_points(rng, F.q, rows, cols))

        def run_construct(F=F, spec=spec, S=S, i=i):
            code, cert = construct(F, spec, source=S)
            state[i] = code
            return code_summary(code, cert), (code, cert)

        def check_construct(summary, raw, spec=spec, S=S):
            return passed_certificate(raw[1], spec) and flattens_to(raw[0], S.entries)

        def run_certify(i=i):
            cert = certify(state[i])
            return cert.to_json(), cert

        ops.append(Op(f"construct {spec[0]} {rows}x{cols} {F!r}", "construct",
                      run_construct, check_construct))
        ops.append(Op(f"certify {spec[0]} {rows}x{cols} {F!r}", "certify", run_certify,
                      lambda s, cert, spec=spec: passed_certificate(cert, spec)))

    # Scalar-path distance over GF(8): every message is encoded as u @ G.
    F8 = make_field(2, 3)
    spec = ("rate_1n", 1, 1, 3, 1)
    cap = 2 if smoke else 4
    S = cauchy_matrix(F8, *seeded_cauchy_points(rng, 8, *flat_shape(spec)))
    code, cert = construct(F8, spec, source=S)
    space = oracle.normalized_message_count(8, 1, cap, 1)

    def run_distance():
        report = free_distance_estimate(code.generator, cap, workers=1)
        return report.to_json(), report

    ops.append(Op(f"distance rate_1n GF(8) cap {cap}", "distance", run_distance,
                  _distance_checks(code.generator, cert.certified_distance, space, False)))

    # Worker-count independence, on the scalar path (this GF(8) code at cap 2)
    # and on the numpy path (a seeded GF(7) code).
    F7 = make_field(7)
    spec7 = ("rate_1n", 2, 1, 3, 1)
    S7 = ConstMatrix(F7, tuple(map(tuple, oracle.cauchy_mod_p(
        7, *seeded_cauchy_points(rng, 7, *flat_shape(spec7))))))
    small = [("GF(8) cap 2", code.generator, 2),
             ("GF(7) cap 2", construct(F7, spec7, source=S7)[0].generator, 2)]

    def extra(raws):
        return [(f"workers=1 == workers=2: {name}",
                 free_distance_estimate(G, c, workers=1).to_json()
                 == free_distance_estimate(G, c, workers=2).to_json())
                for name, G, c in small]

    return Workload("extfield", ops, extra)


# ---------------------------------------------------------------------------
# The environment of an `mdconv` subprocess (for the per-layer cli probes)
# ---------------------------------------------------------------------------

def cli_env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MDCONV_WORKERS", None)
    return env


SETUPS = {
    "certify": setup_certify,
    "extfield": setup_extfield,
}
