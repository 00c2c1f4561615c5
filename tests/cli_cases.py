"""The CLI's golden cases and the two ways to run a command.

`cli_golden.json` is the list of CLI cases: each holds an argv and the
exit code, stdout, stderr and `-o` file text the CLI gave for it when the
file was recorded.  It opens with every subcommand of `BOUND` and
`OBJECT_COMMANDS` without, then with, `--pretty`; the exits 2 and 3 and the
extension-field cases follow.  Both runners return `(exit code, stdout, stderr)`: `in_process`
calls `cli.main` with the streams redirected, and `run_subprocess` starts a
command, `python -m mdconv.cli` by default, in a fresh interpreter.
`tests/test_cli.py` checks every case in process.  To replay them through
another command, such as the installed console script, run

    python tests/cli_cases.py /path/to/venv/bin/mdconv

which runs each case in one fresh directory, names each mismatch and exits
1 if there is one.  This module imports `mdconv` only inside `in_process`,
so a replay needs no `mdconv` on its own path.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
}

# One or more commands per subcommand that prints an object.  The `-o`
# commands write the code files that the later ones read.
OBJECT_COMMANDS = [
    ["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1"],
    ["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1", "-o", "c7.json"],
    ["construct-staircase", "--p", "17", "--m", "1", "--k", "2", "--n", "3", "--nu", "0"],
    ["construct-staircase", "--p", "17", "--m", "1", "--k", "2", "--n", "3", "--nu", "0",
     "-o", "s17.json"],
    ["flatten", "-i", "s17.json"],
    ["check-sr", "-i", "pass.json"],
    ["check-sr", "-i", "fail.json"],
    ["certify", "-i", "c7.json"],
    ["certify", "-i", "s17.json"],
    ["witness", "-i", "c7.json"],
    ["encode", "-i", "c7.json", "--message", "[[[[0], 1], [[1], 2]]]"],
    ["distance", "-i", "c7.json", "--cap", "2"],
    ["distance", "-i", "c7.json", "--cap", "2", "--stop-below", "5"],
    ["selftest"],
]

BOUND = ["bound", "--m", "3", "--k", "1", "--n", "3", "--delta", "2"]

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


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


def write_cli_inputs(directory) -> None:
    for name, obj in CLI_INPUTS.items():
        Path(directory, name).write_text(json.dumps(obj), encoding="utf-8")


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
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_cli_inputs(tmp)
            bad = 0
            for case in expected:
                got = golden_run(case["argv"], run)
                if got != case:
                    bad += 1
                    differ = [key for key in case if got[key] != case[key]]
                    print(f"MISMATCH in {', '.join(differ)}: {' '.join(case['argv'])}")
        finally:
            os.chdir(home)
    print(f"{len(expected) - bad} of {len(expected)} golden cases match")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARG ...]")
    sys.exit(replay(sys.argv[1:]))
