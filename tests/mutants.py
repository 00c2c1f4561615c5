"""Mutation check: every mutant below must make its selected tests fail.

Run from anywhere with `python tests/mutants.py`.  pytest does not collect
this file, so tier-1 does not run it.

A mutant is a named (file under src/mdconv, old text, new text, selector)
tuple; a selector is a test file and a pytest `-k` expression.  For each
mutant the runner copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, replaces the old text, which must occur exactly once,
and runs the selector there with `-x`.  A clean copy must first pass every
selected test.  The runner exits 1 when an old text is not found once, or
when a mutant survives (its tests pass).

A mutant that no test can tell apart from the program (an equivalent
mutant) is left out.  Example: `_BATCH_ELEMENTS = 1 << 17` changes only the
batch and table sizes, and every size gives the same report.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIST = "tests/test_distance.py"
SR = "tests/test_superreg.py"
CLI = "tests/test_cli.py"
MUTANTS = [
    ("low codes not negated", "distance.py",
     "None, negate=True)", "None)",
     (DIST, "split_kernel or weight_zero")),
    ("one-hot column offset shifted by one", "distance.py",
     "self.col.take(high + self.offsets, mode=", "self.col.take(high + self.offsets + self.width, mode=",
     (DIST, "split_kernel")),
    ("matches taken from the first coefficient column only", "distance.py",
     "hit = col >= 0", "hit = (col >= 0) & (np.arange(self.ncoef) < 1)",
     (DIST, "split_kernel")),
    ("keep mask built with any in place of all", "distance.py",
     "self.low_ok[None, :nl]).all(axis=2)", "self.low_ok[None, :nl]).any(axis=2)",
     (DIST, "normalized_enumeration or split_kernel or skip_only_empty")),
    ("witness without its h0·Q offset", "distance.py",
     "x0 = h0 * self.Q", "x0 = 0",
     (DIST, "later_high_part")),
    ("low table sized without its one-hot factor q", "distance.py",
     "q ** (L + 1) * max(1, ncoef)", "q ** L * max(1, ncoef)",
     (DIST, "low_table")),
    ("batch rows sized without the table", "distance.py",
     "(_BATCH_ELEMENTS - self.B.size)", "_BATCH_ELEMENTS",
     (DIST, "low_table")),
    ("row swap without negating a row", "superreg.py",
     "                for c in range(col, ncols):\n                    Q[c] = neg(Q[c])\n", "",
     (SR, "det_matches_cofactor")),
    ("pivot inverse not negated", "superreg.py",
     "neg(inv(P[col]))", "inv(P[col])",
     (SR, "det_matches_cofactor or scan_report")),
    ("pivot search starts at row 0", "superreg.py",
     "for pr in range(row, nrows):", "for pr in range(nrows):",
     (SR, "det_matches_cofactor or scan_report")),
    ("elimination skips the last row", "superreg.py",
     "for r in range(row + 1, nrows):", "for r in range(row + 1, nrows - 1):",
     (SR, "det_matches_cofactor or scan_report")),
    ("Zech entry off by one", "galois.py",
     "zech[zlog[b] - la]", "zech[zlog[b] - la - 1]",
     ("tests/test_galois.py", "zech")),
    ("log 0 set to 2(q-1) - 1", "galois.py",
     "log = [2 * n] * F.q", "log = [2 * n - 1] * F.q",
     ("tests/test_galois.py", "tables_only or tables_match_polynomial_oracle")),
    ("exp's zero padding one entry short", "galois.py",
     "[0] * (2 * n + 1)", "[0] * (2 * n)",
     ("tests/test_galois.py", "tables_only or tables_match_polynomial_oracle")),
    ("Zech region for a = 0 one entry short", "galois.py",
     "    for i in range(n):\n        zech[i] = i - 2 * n",
     "    for i in range(n - 1):\n        zech[i] = i - 2 * n",
     ("tests/test_galois.py", "tables_only or zech")),
    ("Zech region for nonzero a, b one entry short", "galois.py",
     "for d in range(1 - n, n):", "for d in range(2 - n, n):",
     ("tests/test_galois.py", "tables_match_polynomial_oracle")),
    ("float64 bound written as <=", "distance.py",
     ") < 1 << 53 else", ") <= 1 << 53 else",
     (DIST, "product_dtype")),
    ("lifted polynomial keeps its zero terms", "multipoly.py",
     "{alpha: c for alpha, c in terms.items() if c}", "dict(terms)",
     ("tests/test_codes.py", "library_built")),
    ("random draws may be 0", "superreg.py",
     "draw(1, q)", "draw(0, q)",
     (SR, "draw_row_major")),
    ("odd-p negation by g^((q-1)/2 - 1)", "galois.py",
     "half = n // 2", "half = n // 2 - 1",
     ("tests/test_galois.py", "zech")),
    ("tabled inverse read one exponent low", "galois.py",
     "return exp[n - log[a]]", "return exp[n - log[a] - 1]",
     ("tests/test_galois.py", "tables_match_polynomial_oracle")),
    ("p = 2 addition bound as OR", "galois.py",
     "add, neg = operator.xor,", "add, neg = operator.or_,",
     ("tests/test_galois.py", "tables_match_polynomial_oracle")),
    ("tabled product reads log a twice", "galois.py",
     "exp[log[a] + log[b]]", "exp[log[a] + log[a]]",
     ("tests/test_galois.py", "tables_match_polynomial_oracle")),
    ("Zech table's 1 + x increments digit 1", "galois.py",
     "x - x % p + (x + 1) % p", "x - x // p % p * p + (x // p + 1) % p * p",
     ("tests/test_galois.py", "zech")),
    ("element code read from its digits in descending order", "galois.py",
     "    for d in reversed(digits):\n", "    for d in digits:\n",
     ("tests/test_galois.py", "untabled_add")),
    ("multiplication block transposed", "distance.py",
     "return [to_digits(F.mul(g, p**i), p, e) for i in range(e)]",
     "return [list(c) for c in zip(*[to_digits(F.mul(g, p**i), p, e) for i in range(e)])]",
     (DIST, "extension_field_kernel")),
    ("Singleton bound of degree - 1", "codes.py",
     "singleton_bound(m, k, n, sum(degrees))", "singleton_bound(m, k, n, sum(degrees) - 1)",
     ("tests/test_codes.py", "golden")),
    ("stop counts one message too few", "distance.py",
     "keep.flat[:f + 1]", "keep.flat[:f]",
     (DIST, "split_kernel or later_high_part")),
    ("no break at a stop", "distance.py",
     "            below = True\n            break\n", "            below = True\n",
     (DIST, "stop_below_ends")),
    ("last nonempty stratum skipped", "distance.py",
     "range(self.dim - int(", "range(self.dim - 1 - int(",
     (DIST, "skip_only_empty")),
    ("descending profile test made strict", "codes.py",
     "all(a >= b for a, b in zip(", "all(a > b for a, b in zip(",
     ("tests/test_codes.py", "golden")),
    ("equal last two degrees recognized", "codes.py",
     "and degrees[-2] > nu:", "and degrees[-2] >= nu:",
     ("tests/test_codes.py", "worked_example_not_certified")),
    ("unrecognized profile left unscanned", "codes.py",
     "if not hyps[0].passed or hyps[1].passed:", "if hyps[0].passed and hyps[1].passed:",
     ("tests/test_codes.py", "golden")),
    ("explicit source field not checked", "codes.py",
     "        if source.field != F:\n            raise ValueError(f\"explicit matrix is over GF("
     "{source.field.q}), need GF({F.q})\")\n", "",
     ("tests/test_codes.py", "another_field")),
    ("witness block of greatest degree", "codes.py",
     "degrees[r] == min(degrees)", "degrees[r] == max(degrees)",
     ("tests/test_codes.py", "witness")),
    ("exponent vectors not reversed", "multipoly.py",
     "bars, bars))[::-1]", "bars, bars))",
     ("tests/test_multipoly.py", "monomials_upto")),
    ("cofactor signs swapped", "multipoly.py",
     "(term if j % 2 == 0 else -term)", "(term if j % 2 else -term)",
     ("tests/test_multipoly.py", "minors_match")),
    ("largest minor size not scanned", "superreg.py",
     "range(4, min(A.rows, A.cols) + 1)", "range(4, min(A.rows, A.cols))",
     (SR, "superregular or scan_report")),
    ("level-1 failing index transposed", "superreg.py",
     "((i,), (j,), 0)", "((j,), (i,), 0)",
     (SR, "scan_report")),
    ("level-2 cross term wrong", "superreg.py",
     "mul(R0[c1], R1[c0])", "mul(R0[c1], R1[c1])",
     (SR, "scan_report")),
    ("level-3 minor read from rows (r0, r2)", "superreg.py",
     "D[r0, r1], E[r2]", "D[r0, r2], E[r2]",
     (SR, "scan_report")),
    # The next two are equivalent over characteristic 2, where -x = x: their
    # selector needs an odd-p scan, such as the GF(23) 7x7 injected zero.
    ("level-3 middle cofactor term added", "superreg.py",
     "== mul(R[c1], Dr[i02])", "== neg(mul(R[c1], Dr[i02]))",
     (SR, "scan_report")),
    ("stored 2x2 minor a·d + b·c", "superreg.py",
     "Dr.append(add(ad, neg(bc)))", "Dr.append(add(ad, bc))",
     (SR, "scan_report")),
    ("last-pivot guard off by one", "superreg.py",
     "row + 1 < nrows", "row + 2 < nrows",
     (SR, "det_matches_cofactor or scan_report")),
    ("last column left out of the subsets", "superreg.py",
     "for c in combinations(range(A.cols), size)]", "for c in combinations(range(A.cols - 1), size)]",
     (SR, "scan_report")),
    ("exit codes of holds swapped", "cli.py",
     "EXIT_OK if holds else EXIT_PROPERTY_FAILED", "EXIT_PROPERTY_FAILED if holds else EXIT_OK",
     (CLI, "golden")),
    ("--pretty ignored", "cli.py",
     "if args.pretty:", "if False:",
     (CLI, "golden")),
    ("construct -o prints the code too", "cli.py",
     "    return cert.to_json(), True\n",
     "    return {\"code\": code.to_json(), \"certificate\": cert.to_json()}, True\n",
     (CLI, "golden")),
    ("only the whole --message flag bound", "cli.py",
     '"--message".startswith(arg)', 'arg == "--message"',
     (CLI, "negative_number")),
    ("infeasible construction exits 2", "cli.py",
     "return EXIT_INFEASIBLE", "return EXIT_USAGE",
     (CLI, "field_too_small or ball_bound or giving_up")),
    ("__main__ drops the exit code", "cli.py",
     "sys.exit(main())", "main()",
     (CLI, "entry_point")),
    ("Ball's bound refuses r + s = q + 1", "codes.py",
     "rows + n > F.q + 1", "rows + n >= F.q + 1",
     (CLI, "giving_up")),
    ("Ball's bound over GF(p^e) only for min(r, s) < p", "codes.py",
     "min(rows, n) <= F.p", "min(rows, n) < F.p",
     ("tests/test_codes.py", "ball_bound")),
    ("a budget of zero tries accepted", "superreg.py",
     "if max_tries < 1:", "if max_tries < 0:",
     (CLI, "max_tries")),
    ("shortest admissible length refused", "codes.py",
     "if n < (need :=", "if n <= (need :=",
     (CLI, "golden")),
    ("failing draw lifted anyway", "codes.py",
     "        if report.verdict:\n"
     "            code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))\n",
     "        code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))\n"
     "        if report.verdict:\n",
     ("tests/test_codes.py", "lifts_only")),
    ("certificate built from the previous candidate's report", "codes.py",
     "    for S in candidates:\n"
     "        report = is_superregular(S)\n"
     "        if report.verdict:\n"
     "            code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))\n"
     "            return code, _certificate(code, lambda: report)\n",
     "    prev = None\n"
     "    for S in candidates:\n"
     "        report = is_superregular(S)\n"
     "        if report.verdict:\n"
     "            code = CodeDescriptor.from_generator(phi_lift(S, m, [(1, d) for d in profile]))\n"
     "            return code, _certificate(code, lambda: prev or report)\n"
     "        prev = report\n",
     ("tests/test_codes.py", "equals_certify")),
    ("composite characteristic accepted", "galois.py",
     "if not is_prime(p) or e < 1", "if e < 1",
     ("tests/test_galois.py", "non_fields")),
    ("non-unit inverse unchecked", "galois.py",
     "        if not r1:\n            raise GaloisError(", "        if False:\n            raise GaloisError(",
     ("tests/test_galois.py", "ben_or")),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_pytest(cwd: Path, files, keyword: str) -> int:
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *files, "-k", keyword]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        files = sorted({f for *_, (f, _) in MUTANTS})
        if run_pytest(clean, files, " or ".join(f"({k})" for *_, (_, k) in MUTANTS)) != 0:
            print("the clean copy fails the selected tests")
            return 1
        for i, (name, rel, old, new, (test_file, keyword)) in enumerate(MUTANTS):
            work = Path(tmp) / f"m{i}"
            copy_tree(work)
            path = work / "src" / "mdconv" / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"MISSING  {name}: old text occurs {text.count(old)} times in {rel}")
                bad.append(name)
                continue
            path.write_text(text.replace(old, new))
            # pytest exits 1 when tests fail; any other code is a broken run.
            rc = run_pytest(work, [test_file], keyword)
            status = {0: "SURVIVED", 1: "killed"}.get(rc, f"ERROR rc={rc}")
            print(f"{status:8} {name}")
            if rc != 1:
                bad.append(name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
