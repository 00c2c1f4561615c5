"""The CLI's golden cases and the two ways to run a command.

`CASES` lists the argv of every case, and `cli_golden.json` holds, for each,
the exit code, stdout, stderr and `-o` file text the CLI gave when the file
was recorded.  The cases open with `PLAIN` (a `bound` and every subcommand
that prints an object) without, then with, `--pretty`.  The exits 2 and 3,
the extension-field cases, exit-2 refusals of malformed inputs and
parameters, and a witness whose least-degree block has two rows follow.
After them come, group by group, the cases of `BEHAVIOURS` not already
listed: refused parameters, Ball's bound, the search budget and its give-up,
pipelines that read back what `construct -o` wrote, codes that fail a
hypothesis, malformed JSON documents, every abbreviation of `--message` with
a negative number, and README's `bound` line.  Argparse's own usage errors
are not cases: their text differs across Python versions, and they leave
`main` as a `SystemExit`.

Both runners return `(exit code, stdout, stderr)`: `in_process` calls
`cli.main` with the streams redirected, and `run_subprocess` starts a
command, `python -m mdconv.cli` by default, in a fresh interpreter.
`tests/test_cli.py` checks every case in process, a behaviour's cases in a
test named after it.  To replay them through another command, such as the
installed console script, run

    python tests/cli_cases.py /path/to/venv/bin/mdconv

which runs each case in one fresh directory, names each mismatch and exits
1 if there is one.  This module imports `mdconv` only inside `in_process`,
so a replay needs no `mdconv` on its own path.  After an intended change of
output, or to add a case to `CASES`, rewrite the file from this tree's
`src/` with

    python tests/cli_cases.py --record
"""

import contextlib
import functools
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# The code that `construct --p 7 --m 1 --n 2 --delta 1 -o c7.json` writes;
# the malformed codes below are edits of it.
C7 = {"field": {"e": 1, "p": 7}, "generator": [[[[[0], 3], [[1], 6]], [[[0], 2], [[1], 3]]]],
      "k": 1, "m": 1, "n": 2}

# Input files for the commands below, which run in one directory.
CLI_INPUTS = {
    "pass.json": {"field": {"p": 3, "e": 1}, "entries": [[1, 1], [1, 2]]},
    "fail.json": {"field": {"p": 7, "e": 1}, "entries": [[1, 2], [2, 4]]},
    # 1·3 = 2·2 = 3 in GF(4): its 2x2 minor is zero only under field multiplication.
    "sr4.json": {"field": {"p": 2, "e": 2}, "entries": [[1, 2], [2, 3]]},
    # `construct-staircase --p 17 --m 1 --k 2 --n 3 --nu 0` with its generator
    # rows reversed: row degrees [0, 1] match no theorem, though the flattening
    # is superregular.
    "s17r.json": {"field": {"e": 1, "p": 17}, "generator": [
        [[[[0], 16]], [[[0], 8]], [[[0], 11]]],
        [[[[0], 11], [[1], 8]], [[[0], 4], [[1], 11]], [[[0], 10], [[1], 4]]]],
        "k": 2, "m": 1, "n": 3},
    # Inputs each of which the CLI refuses with exit 2.
    "empty.json": {"field": {"p": 3, "e": 1}, "entries": []},
    "ragged.json": {"field": {"p": 3, "e": 1}, "entries": [[1, 1], [1]]},
    # x^2 + 2x + 2 is irreducible over GF(3), but the canonical GF(9) modulus is x^2 + 1.
    "gf9.json": {"field": {"p": 3, "e": 2, "irreducible": [2, 2, 1]}, "entries": [[1]]},
    "m0.json": {"field": {"p": 7, "e": 1}, "generator": [[[[[], 1]], [[[], 2]]]],
                "k": 1, "m": 0, "n": 2},
    "ragged_code.json": {"field": {"p": 7, "e": 1}, "generator": [
        [[[[0], 1]], [[[0], 2]]], [[[[0], 1]]]], "k": 2, "m": 1, "n": 2},
    # Two rows of least degree: the witness takes a nullspace vector.
    "w7.json": {"field": {"p": 7, "e": 1}, "generator": [
        [[[[0], 1]], [[[0], 1]], [[[0], 1]]], [[[[0], 1]], [[[0], 2]], [[[0], 3]]]],
        "k": 2, "m": 1, "n": 3},
    # The 1x1 minor at row 0, column 1 is zero.
    "zero_entry.json": {"field": {"p": 5, "e": 1}, "entries": [[1, 0], [2, 3]]},
    # Its second row is zero: certify fails it, witness finds no full row rank.
    "zero_row.json": {"field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 2,
                      "generator": [[[[[0], 1], [[1], 1]], [[[0], 2]]], [[], []]]},
    "k_above_n.json": {"field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 1,
                       "generator": [[[[[0], 1], [[1], 1]]], [[[[0], 2]]]]},
    # phi_lift of the 4x4 Cauchy matrix over GF(11) by the plan [(1, 2), (1, 0)]:
    # a superregular flattening of profile [2, 0], distance 4 below the bound 7.
    "c11.json": {"field": {"p": 11, "e": 1}, "m": 1, "k": 2, "n": 4, "generator": [
        [[[[0], 8], [[1], 7], [[2], 5]], [[[0], 2], [[1], 8], [[2], 7]],
         [[[0], 9], [[1], 2], [[2], 8]], [[[0], 3], [[1], 9], [[2], 2]]],
        [[[[0], 10]], [[[0], 5]], [[[0], 7]], [[[0], 8]]]]},
    # GF(2^32 - 5): a product of two elements overflows int64.
    "int64.json": {"field": {"p": 2**32 - 5, "e": 1}, "m": 1, "k": 1, "n": 1,
                   "generator": [[[[[0], 1], [[1], 2]]]]},
    # JSON that parses but is not the document the command reads.
    "float_entries.json": {"field": {"p": 5, "e": 1}, "entries": [[1.9, "2"], [True, 4]]},
    "float_coeff.json": {**C7, "generator": [[[[[0], 2.7], [[1], 6]], [[[0], 2], [[1], 3]]]]},
    "string_m.json": {**C7, "m": "1"},
    "scalar_entries.json": {"field": {"p": 5}, "entries": 5},
    "list.json": [1, 2],
    "no_generator.json": {key: v for key, v in C7.items() if key != "generator"},
    "long_term.json": {**C7, "generator": [[[[[0], 1, 2]], []]]},
    "short_term.json": {**C7, "generator": [[[[[0]]], []]]},
    # An empty object was once read as the zero polynomial.
    "object_poly.json": {**C7, "generator": [[{}, []]]},
    "scalar_field.json": {**C7, "field": 7},
}

# `bound`, then one or more commands per subcommand that prints an object.
# The `-o` commands write the code files that the later ones read.
PLAIN = [shlex.split(line) for line in [
    "bound --m 3 --k 1 --n 3 --delta 2",
    "construct --p 7 --m 1 --n 2 --delta 1",
    "construct --p 7 --m 1 --n 2 --delta 1 -o c7.json",
    "construct-staircase --p 17 --m 1 --k 2 --n 3 --nu 0",
    "construct-staircase --p 17 --m 1 --k 2 --n 3 --nu 0 -o s17.json",
    "flatten -i s17.json",
    "check-sr -i pass.json",
    "check-sr -i fail.json",
    "certify -i c7.json",
    "certify -i s17.json",
    "witness -i c7.json",
    "encode -i c7.json --message '[[[[0], 1], [[1], 2]]]'",
    "distance -i c7.json --cap 2",
    "distance -i c7.json --cap 2 --stop-below 5",
    "selftest",
]]

CASES = [*PLAIN, *(["--pretty", *argv] for argv in PLAIN), *(shlex.split(line) for line in [
    "distance -i c7.json --cap 1 --workers 0",
    "encode -i c7.json --message -1e5",
    "certify -i missing.json",
    "construct --p 2 --m 2 --n 3 --delta 1 --source cauchy",
    "construct --p 5 --m 2 --n 4 --delta 1 --source random",
    "construct --p 2 --e 5 --m 2 --n 5 --delta 2 -o c32.json",
    "certify -i c32.json",
    "distance -i c32.json --cap 1 --workers 1",
    "distance -i c32.json --cap 1 --workers 2",
    "construct-staircase --p 3 --e 3 --m 1 --k 2 --n 5 --nu 1 -o c27.json",
    "certify -i c27.json",
    "distance -i c27.json --cap 1",
    "witness -i c27.json",
    "check-sr -i sr4.json",
    "certify -i s17r.json",
    "check-sr -i empty.json",
    "check-sr -i ragged.json",
    "check-sr -i gf9.json",
    "construct --p 7 --m 0 --n 2 --delta 1",
    "construct-staircase --p 17 --m 1 --k 0 --n 3 --nu 0",
    "distance -i c7.json --cap -1",
    "certify -i m0.json",
    "certify -i ragged_code.json",
    "witness -i w7.json",
])]

# The behaviours that a named test of `tests/test_cli.py` checks, each as the
# argvs of its cases: `test_<name>` runs them, and the golden test runs every
# case that no behaviour names.  The cases of a behaviour that are not among
# the cases above follow them in `CASES`, in this order.
BEHAVIOURS = {name: [shlex.split(line) for line in group] for name, group in {
    "check_sr_pass_exit_0": ["check-sr -i pass.json"],
    "selftest": ["selftest"],
    "missing_input_exit_2": ["certify -i missing.json"],
    "construct_field_too_small_exit_3": [
        "construct --p 2 --m 2 --n 3 --delta 1 --source cauchy"],
    "bound_rejects_bad_dimensions": ["bound --m 1 --k 3 --n 2 --delta 0"],
    "construct_length_precondition_exit_2": ["construct --p 7 --m 1 --n 2 --delta 2"],
    "distance_workers_below_one_exit_2": [
        "distance -i c7.json --cap 1 --workers 0",
        "distance -i c7.json --cap 1 --workers -2"],
    "construct_max_tries_below_one_exit_2": [
        # max_tries is checked first, before the 3x7 shape meets Ball's bound.
        "construct --p 7 --m 1 --n 2 --delta 1 --source random --max-tries -3",
        "construct --p 7 --m 1 --n 2 --delta 1 --source random --max-tries 0",
        "construct-staircase --p 7 --m 1 --k 2 --n 3 --nu 0 --source random --max-tries -3",
        "construct --p 7 --m 2 --n 7 --delta 1 --source random --max-tries -3"],
    "random_source_beyond_ball_bound_exit_3": [
        "construct --p 5 --m 2 --n 4 --delta 1 --source random",
        # 9x5 over GF(7): r + s > q + 1, refused before the first draw.
        "construct-staircase --p 7 --m 2 --k 2 --n 5 --nu 1 --source random"],
    "random_search_giving_up_exit_3_says_it_proves_nothing": [
        # 3x9 over GF(11) meets r + s = q + 1, but seed 0's first draw fails.
        "construct --p 11 --m 2 --n 9 --delta 1 --source random --seed 0 --max-tries 1"],
    # One variable per stack level once overflowed the stack from m = 500 on.
    "construct_many_variables": ["construct --p 7 --m 600 --n 3 --delta 0"],
    # Pipelines: construct, then read the code back.
    "construct_certify_pipeline": [
        "construct --p 7 --m 2 --n 3 --delta 1 --source cauchy -o c7m2.json",
        "certify -i c7m2.json"],
    "construct_staircase_and_flatten": [
        "construct-staircase --p 17 --m 2 --k 2 --n 5 --nu 1 -o s17m2.json",
        "flatten -i s17m2.json"],
    "encode_and_witness": [
        "construct --p 5 --m 1 --n 2 --delta 1 --source random --seed 3 -o r5.json",
        "encode -i r5.json --message '[[[[0], 1]]]'",
        "witness -i r5.json"],
    "distance_exit_codes": [
        "distance -i r5.json --cap 3 --stop-below 4",
        "distance -i r5.json --cap 3 --stop-below 5"],
    # Codes and matrices that fail a hypothesis.
    "check_sr_zero_entry_exit_1": ["check-sr -i zero_entry.json"],
    # The golden tests turn warnings into errors, so none of these may warn.
    "zero_row_code_writes_no_warning": [
        "certify -i zero_row.json",
        "flatten -i zero_row.json",
        "distance -i zero_row.json",
        "witness -i zero_row.json"],
    "certify_k_above_n_not_certified_exit_1": ["certify -i k_above_n.json"],
    "certify_distance_below_singleton_bound_exit_1": ["certify -i c11.json"],
    "distance_int64_overflow_exit_2": ["distance -i int64.json --cap 0"],
    # Malformed documents and messages: one `error:` line, exit 2.
    "json_non_integers_exit_2": [
        "check-sr -i float_entries.json",
        "certify -i float_coeff.json",
        "certify -i string_m.json",
        "encode -i c7.json --message '[[[[0], 1.5]]]'"],
    "json_wrong_shape_exit_2": [
        "check-sr -i scalar_entries.json",
        "certify -i list.json",
        "encode -i c7.json --message 5"],
    "json_shape_errors_name_the_input": [
        "certify -i no_generator.json",
        "certify -i long_term.json",
        "certify -i short_term.json",
        "certify -i object_poly.json",
        "certify -i scalar_field.json"],
    "repeated_exponent_vector_exits_2": [
        "encode -i c7.json --message '[[[[0], 1], [[0], 2]]]'"],
    # Each abbreviation of --message takes a negative number as its value.
    "negative_number_message_reaches_the_json_reader": [
        "encode -i c7.json --message -1e5",
        "encode -i c7.json --messag -2.2250738585072014e-308",
        "encode -i c7.json --mess -1",
        "encode -i c7.json --m -1e5"],
    # The line README shows, which prints 9.
    "bound_prints_value": ["bound --m 2 --k 1 --n 3 --delta 1"],
}.items()}
CASES += [argv for group in BEHAVIOURS.values() for argv in group if argv not in CASES]

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.json"


def in_process(argv):
    """Exit code, stdout and stderr of `cli.main(argv)` in this interpreter."""
    from mdconv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_subprocess(argv, command=(sys.executable, "-m", "mdconv.cli"), **kw):
    """Exit code, stdout and stderr of `command argv` in a new process; `kw`
    goes to `subprocess.run`, for a `timeout` or an `env`."""
    res = subprocess.run([*command, *argv], capture_output=True, text=True, **kw)
    return res.returncode, res.stdout, res.stderr


def hash_seed_env(seed: int) -> dict:
    """This environment with PYTHONHASHSEED fixed, for a child interpreter."""
    return {**os.environ, "PYTHONHASHSEED": str(seed)}


@contextlib.contextmanager
def fresh_directory():
    """Work in a new temporary directory that holds `CLI_INPUTS`."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in CLI_INPUTS.items():
                Path(name).write_text(json.dumps(obj), encoding="utf-8")
            yield
        finally:
            os.chdir(home)


def golden_run(argv, run=in_process) -> dict:
    """Exit code, stdout, stderr and the `-o` file of one command, run by `run`."""
    written = argv[argv.index("-o") + 1] if "-o" in argv else None
    if written:
        Path(written).unlink(missing_ok=True)
    code, out, err = run(argv)
    files = {written: Path(written).read_text(encoding="utf-8")} if written else {}
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err, "files": files}


def load_golden() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def replay(command) -> int:
    run = functools.partial(run_subprocess, command=command)
    expected = load_golden()
    bad = 0
    with fresh_directory():
        for case in expected:
            got = golden_run(case["argv"], run)
            if got != case:
                bad += 1
                differ = [key for key in case if got[key] != case[key]]
                print(f"MISMATCH in {', '.join(differ)}: {' '.join(case['argv'])}")
    print(f"{len(expected) - bad} of {len(expected)} golden cases match")
    return 1 if bad else 0


def record() -> None:
    """Rewrite `cli_golden.json` from `CASES`, run in process on this tree's `src/`."""
    sys.path.insert(0, str(ROOT / "src"))
    with fresh_directory():
        cases = [golden_run(argv) for argv in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} golden cases")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        sys.exit(record())
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py --record | COMMAND [ARG ...]")
    sys.exit(replay(sys.argv[1:]))
