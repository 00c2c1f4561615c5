"""Command-line front end over the JSON formats.

One dispatch path: `build_parser` registers each subcommand once, with its
handler; a handler takes the parsed arguments and returns `(JSON object,
holds)`; `main` alone prints the object (compact, or indented under
--pretty) and maps `holds` and the two error families to the exit code.

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
from .superreg import MAX_TRIES, ConstMatrix, SearchExhaustedError, cauchy_matrix, is_superregular
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
    support_count_identity_check,
)
from .distance import codeword_weight_profile, default_cap, encode, free_distance_estimate

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _code(args) -> CodeDescriptor:
    return CodeDescriptor.from_json(_load_json(args.input))


def _bound(args):
    return singleton_bound(args.m, args.k, args.n, args.delta), True


def _construct(args):
    k, nu = (1, args.delta) if "delta" in args else (args.k, args.nu)
    code, cert = construct_mds_staircase(
        make_field(args.p, args.e), args.m, k, args.n, nu,
        source=args.source, seed=args.seed, max_tries=args.max_tries,
    )
    if not args.output:
        return {"code": code.to_json(), "certificate": cert.to_json()}, True
    _write_json(args.output, code.to_json())
    return cert.to_json(), True


def _flatten(args):
    return phi_flatten(_code(args).generator).to_json(), True


def _check_sr(args):
    report = is_superregular(ConstMatrix.from_json(_load_json(args.input)))
    return report.to_json(), report.verdict


def _certify(args):
    cert = certify(_code(args))
    return cert.to_json(), cert.verdict == CERTIFIED_MDS


def _witness(args):
    code = _code(args)
    message, codeword, w = singleton_witness(code)
    return {
        "message": [p.to_json() for p in message.entries[0]],
        "codeword": [p.to_json() for p in codeword.entries[0]],
        "weight": w,
        "singleton_bound": singleton_bound(code.m, code.k, code.n,
                                           code.generator.external_degree()),
    }, True


def _encode(args):
    code = _code(args)
    polys = [
        Polynomial.from_json(p, code.field, code.m) for p in json_list(json.loads(args.message))
    ]
    w = encode(PolyMatrix(code.field, code.m, [polys]), code.generator)
    return {"codeword": [p.to_json() for p in w.entries[0]], "weight": w.weight()}, True


def _distance(args):
    code = _code(args)
    G = code.generator
    cap = args.cap if args.cap is not None else default_cap(code.k, G.external_degree())
    report = free_distance_estimate(G, cap, stop_below=args.stop_below, workers=args.workers)
    out = {**report.to_json(), "weight_profile": codeword_weight_profile(G)}
    return out, not report.below_bound


def _selftest(args):
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

    return {"checks": [{"name": n, "passed": p} for n, p in checks]}, all(p for _, p in checks)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdconv",
        description="Construct, certify, and probe MDS multidimensional convolutional codes.",
    )
    ap.add_argument("--pretty", action="store_true", help="pretty-print JSON output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, run, help, input_help=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if input_help:
            p.add_argument("-i", "--input", required=True, help=input_help)
        return p

    def dims(p, *names):
        for name in names:
            p.add_argument(f"--{name}", type=int, required=True)

    dims(command("bound", _bound, "evaluate the generalized Singleton bound"),
         "m", "k", "n", "delta")
    for name, help, names in [
        ("construct", "build a certified MDS rate-1/n code", ("m", "n", "delta")),
        ("construct-staircase", "build a certified MDS rate-k/n staircase code",
         ("m", "k", "n", "nu")),
    ]:
        p = command(name, _construct, help)
        p.add_argument("--p", type=int, required=True, help="field characteristic")
        p.add_argument("--e", type=int, default=1, help="extension degree")
        dims(p, *names)
        p.add_argument("--source", choices=["cauchy", "random"], default="cauchy")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-tries", type=int, default=MAX_TRIES)
        p.add_argument("-o", "--output", help="write the code JSON here")

    command("flatten", _flatten, "print the flattened constant matrix of a code",
            "code JSON file")
    command("check-sr", _check_sr, "check superregularity of a constant matrix",
            "constant matrix JSON file")
    command("certify", _certify, "certify an imported code against the theorems",
            "code JSON file")
    command("witness", _witness, "produce the Singleton-bound proof witness", "code JSON file")
    p = command("encode", _encode, "encode a message with a code's generator", "code JSON file")
    p.add_argument("--message", required=True,
                   help="JSON list of k polynomials, each a list of [[exponents], coeff] terms")
    p = command("distance", _distance, "bounded brute-force free-distance estimate",
                "code JSON file")
    p.add_argument("--cap", type=int, help="message total-degree cap (default depends on k)")
    p.add_argument("--stop-below", type=int, help="stop at the first codeword lighter than this")
    p.add_argument("--workers", type=int, default=1,
                   help="at least 1; every count runs the same search")
    command("selftest", _selftest, "run the lemma and identity property suites")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a JSON value such as -1e5 for an option; bind it to its (abbreviated) flag.
    for i, arg in enumerate(argv[:-1]):
        if len(arg) > 2 and "--message".startswith(arg):
            argv[i:i + 2] = [f"{arg}={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    try:
        obj, holds = args.run(args)
        if args.pretty:
            print(json.dumps(obj, sort_keys=True, indent=2))
        else:
            print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        return EXIT_OK if holds else EXIT_PROPERTY_FAILED
    except (SearchExhaustedError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
