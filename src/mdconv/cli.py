"""Command-line front end over the JSON formats.

Exit codes: 0 success / property verified; 1 property failed (not
superregular, below_bound true, not CERTIFIED_MDS); 2 usage or parameter
error; 3 construction infeasible (field too small, search exhausted).
All randomness derives from --seed; identical invocations print identical
bytes.  `--message`, however abbreviated, takes any JSON text, a negative
number such as -1e5 included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .galois import json_list, make_field
from .multipoly import PolyMatrix, Polynomial
from .superreg import ConstMatrix, SearchExhaustedError, cauchy_matrix, is_superregular
from .codes import (
    CERTIFIED_MDS,
    CodeDescriptor,
    ConstructionError,
    certify,
    construct_mds_staircase,
    phi_flatten,
    phi_lift,
    singleton_bound,
    singleton_witness,
    support_count,
    support_count_identity_check,
)
from .distance import codeword_weight_profile, default_cap, encode, free_distance_estimate

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _dump(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdconv",
        description="Construct, certify, and probe MDS multidimensional convolutional codes.",
    )
    ap.add_argument("--pretty", action="store_true", help="pretty-print JSON output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bound", help="evaluate the generalized Singleton bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)

    def add_field_args(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--e", type=int, default=1, help="extension degree")

    def add_source_args(p):
        p.add_argument("--source", choices=["cauchy", "random"], default="cauchy")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-tries", type=int, default=10_000)

    p = sub.add_parser("construct", help="build a certified MDS rate-1/n code")
    add_field_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    add_source_args(p)
    p.add_argument("-o", "--output", help="write the code JSON here")

    p = sub.add_parser("construct-staircase", help="build a certified MDS rate-k/n staircase code")
    add_field_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    add_source_args(p)
    p.add_argument("-o", "--output", help="write the code JSON here")

    p = sub.add_parser("flatten", help="print the flattened constant matrix of a code")
    p.add_argument("-i", "--input", required=True, help="code JSON file")

    p = sub.add_parser("check-sr", help="check superregularity of a constant matrix")
    p.add_argument("-i", "--input", required=True, help="constant matrix JSON file")

    p = sub.add_parser("certify", help="certify an imported code against the theorems")
    p.add_argument("-i", "--input", required=True, help="code JSON file")

    p = sub.add_parser("witness", help="produce the Singleton-bound proof witness")
    p.add_argument("-i", "--input", required=True, help="code JSON file")

    p = sub.add_parser("encode", help="encode a message with a code's generator")
    p.add_argument("-i", "--input", required=True, help="code JSON file")
    p.add_argument("--message", required=True,
                   help="JSON list of k polynomials, each a list of [[exponents], coeff] terms")

    p = sub.add_parser("distance", help="bounded brute-force free-distance estimate")
    p.add_argument("-i", "--input", required=True, help="code JSON file")
    p.add_argument("--cap", type=int, help="message total-degree cap (default depends on k)")
    p.add_argument("--stop-below", type=int, help="stop at the first codeword lighter than this")
    p.add_argument("--workers", type=int, default=1)

    sub.add_parser("selftest", help="run the lemma and identity property suites")
    return ap


def _cmd_bound(args, pretty) -> int:
    print(singleton_bound(args.m, args.k, args.n, args.delta))
    return EXIT_OK


def _cmd_construct(args, pretty) -> int:
    F = make_field(args.p, args.e)
    k, nu = (1, args.delta) if args.cmd == "construct" else (args.k, args.nu)
    code, cert = construct_mds_staircase(
        F, args.m, k, args.n, nu,
        source=args.source, seed=args.seed, max_tries=args.max_tries,
    )
    if args.output:
        _write_json(args.output, code.to_json())
        _dump(cert.to_json(), pretty)
    else:
        _dump({"code": code.to_json(), "certificate": cert.to_json()}, pretty)
    return EXIT_OK


def _cmd_flatten(args, pretty) -> int:
    code = CodeDescriptor.from_json(_load_json(args.input))
    _dump(phi_flatten(code.generator).to_json(), pretty)
    return EXIT_OK


def _cmd_check_sr(args, pretty) -> int:
    A = ConstMatrix.from_json(_load_json(args.input))
    report = is_superregular(A)
    _dump(report.to_json(), pretty)
    return EXIT_OK if report.verdict else EXIT_PROPERTY_FAILED


def _cmd_certify(args, pretty) -> int:
    code = CodeDescriptor.from_json(_load_json(args.input))
    cert = certify(code)
    _dump(cert.to_json(), pretty)
    return EXIT_OK if cert.verdict == CERTIFIED_MDS else EXIT_PROPERTY_FAILED


def _cmd_witness(args, pretty) -> int:
    code = CodeDescriptor.from_json(_load_json(args.input))
    message, codeword, w = singleton_witness(code)
    bound = singleton_bound(code.m, code.k, code.n, code.generator.external_degree())
    _dump(
        {
            "message": [p.to_json() for p in message.entries[0]],
            "codeword": [p.to_json() for p in codeword.entries[0]],
            "weight": w,
            "singleton_bound": bound,
        },
        pretty,
    )
    return EXIT_OK


def _cmd_encode(args, pretty) -> int:
    code = CodeDescriptor.from_json(_load_json(args.input))
    polys = [
        Polynomial.from_json(p, code.field, code.m) for p in json_list(json.loads(args.message))
    ]
    u = PolyMatrix(code.field, code.m, [polys])
    w = encode(u, code.generator)
    _dump({"codeword": [p.to_json() for p in w.entries[0]], "weight": w.weight()}, pretty)
    return EXIT_OK


def _cmd_distance(args, pretty) -> int:
    code = CodeDescriptor.from_json(_load_json(args.input))
    G = code.generator
    cap = args.cap if args.cap is not None else default_cap(code.k, G.external_degree())
    report = free_distance_estimate(G, cap, stop_below=args.stop_below, workers=args.workers)
    out = report.to_json()
    out["weight_profile"] = codeword_weight_profile(G)
    _dump(out, pretty)
    return EXIT_PROPERTY_FAILED if report.below_bound else EXIT_OK


def _cmd_selftest(args, pretty) -> int:
    checks = []

    ok = all(
        support_count_identity_check(nu, m)
        for nu in range(0, 9) for m in range(2, 6)
    )
    checks.append(("support_count_identity", ok))

    # Weight lemma on canonical Cauchy A (r x s): A is superregular iff the
    # constant code [I_r | A] has distance s + 1 (Roth-Seroussi).
    ok = True
    for p, e in [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]:
        F = make_field(p, e)
        for r in range(1, 4):
            for s in range(r, 5):
                if F.q < r + s:
                    continue
                A = cauchy_matrix(F, list(range(r)), list(range(r, r + s)))
                S = ConstMatrix(F, [[int(i == j) for j in range(r)] + list(row)
                                    for i, row in enumerate(A.entries)])
                G = phi_lift(S, 1, [(r, 0)])
                ok = ok and is_superregular(A).verdict and (
                    free_distance_estimate(G, 0).min_weight_found == s + 1)
    checks.append(("superregular_weight_lemma", ok))

    _dump({"checks": [{"name": n, "passed": p} for n, p in checks]}, pretty)
    return EXIT_OK if all(p for _, p in checks) else EXIT_PROPERTY_FAILED


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a JSON value such as -1e5 for an option; bind it to its (abbreviated) flag.
    for i, arg in enumerate(argv[:-1]):
        if len(arg) > 2 and "--message".startswith(arg):
            argv[i:i + 2] = [f"{arg}={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    handlers = {
        "bound": _cmd_bound,
        "construct": _cmd_construct,
        "construct-staircase": _cmd_construct,
        "flatten": _cmd_flatten,
        "check-sr": _cmd_check_sr,
        "certify": _cmd_certify,
        "witness": _cmd_witness,
        "encode": _cmd_encode,
        "distance": _cmd_distance,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.cmd](args, args.pretty)
    except (SearchExhaustedError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
