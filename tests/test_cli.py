"""CLI tests.  The outcome of a command with fixed input is a case of
`cli_golden.json` (see `cli_cases.py`), checked by the golden tests at the
end; the other tests here need something a case cannot give: a fresh
interpreter, a kill timeout, README text or Hypothesis."""

import functools
import json
import operator
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cli_cases import (
    BEHAVIOURS,
    CASES,
    PLAIN,
    fresh_directory,
    golden_run,
    in_process,
    load_golden,
    run_subprocess,
)
from mdconv.galois import make_field
from mdconv.multipoly import monomials_upto


def test_construct_huge_prime_exit_2_fast():
    # 2^89 - 1 is prime but above the 2^62 field-size limit; the size check
    # comes before the primality test.
    code, _, err = run_subprocess(["construct", "--p", str(2**89 - 1), "--m", "1", "--n", "2",
                                   "--delta", "1"], timeout=10)
    assert code == 2
    assert "too large" in err


def test_construct_large_extension_degree_fast():
    code, out, _ = run_subprocess(["construct", "--p", "2", "--e", "61", "--m", "1", "--n", "2",
                                   "--delta", "1"], timeout=10)
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "CERTIFIED_MDS"


def test_python_m_entry_point_exits_with_mains_code():
    # The `__main__` line must pass `main`'s return value to the exit status.
    argv = ["check-sr", "-i", "fail.json"]
    with fresh_directory():
        result = run_subprocess(argv)
        assert result[0] == 1
        assert result == in_process(argv)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_and_bound_line_run():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library example\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    line = re.search(r"^mdconv (bound .*?)\s+# prints the distance bound: (\d+)$", text, re.M)
    # README's line is a golden case, which `test_bound_prints_value` runs.
    case = next(case for case in load_golden() if case["argv"] == line.group(1).split())
    assert (case["exit"], case["stdout"], case["stderr"]) == (0, line.group(2) + "\n", "")
    assert line.group(1) == "bound --m 2 --k 1 --n 3 --delta 1" and line.group(2) == "9"


# Malformed input: valid JSON with zero to two random edits, each replacing or
# deleting one node.  Fields stay at p <= 7, e <= 2 and shapes at 3 x 3 of
# degree <= 1, so no example does exponential work.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 2) | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["p", "e", "irreducible", "field", "entries"]), kids, max_size=2),
    max_leaves=4,
)


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from _nodes(doc[key], path + (key,))


def _edited(draw, doc):
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(ANY_JSON)
            continue
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(ANY_JSON)
    return doc


@st.composite
def cli_inputs(draw, cmd):
    """argv tail and input document for `cmd`."""
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]))
    F = make_field(p, e)
    m, k, n = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    element = st.integers(0, F.q - 1)
    if cmd == "check-sr":
        return [], _edited(draw, {"field": F.to_json(), "entries": [
            [draw(element) for _ in range(n)] for _ in range(k)]})
    poly = st.dictionaries(st.sampled_from(monomials_upto(1, m)), element).map(
        lambda terms: [[list(a), c] for a, c in terms.items()])
    generator = [[draw(poly) for _ in range(n)] for _ in range(k)]
    doc = _edited(draw, {"field": F.to_json(), "m": m, "k": k, "n": n, "generator": generator})
    extra = {
        "encode": ["--message", json.dumps(_edited(draw, [draw(poly) for _ in range(k)]))],
        "distance": ["--cap", "0"],
    }.get(cmd, [])
    return extra, doc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["flatten", "check-sr", "certify", "witness", "encode", "distance"]),
       st.data())
def test_malformed_json_exits_cleanly(cmd, data):
    extra, doc = data.draw(cli_inputs(cmd))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = in_process([cmd, "-i", path, *extra])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
    if code == 2:
        # One line that describes the input, not a bare KeyError repr.
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not err.startswith("error: '")


def test_pretty_flag_changes_format_not_content():
    # The golden file's first cases are `PLAIN` without, then with, --pretty.
    golden = load_golden()
    for plain, pretty in zip(golden[:len(PLAIN)], golden[len(PLAIN):2 * len(PLAIN)]):
        assert pretty["argv"] == ["--pretty", *plain["argv"]]
        assert plain["stderr"] == pretty["stderr"] == "", plain["argv"]
        assert (plain["exit"], plain["files"]) == (pretty["exit"], pretty["files"]), plain["argv"]
        assert json.loads(plain["stdout"]) == json.loads(pretty["stdout"]), plain["argv"]
        # An object takes several lines under --pretty; the bound stays one.
        assert plain["stdout"].count("\n") == 1, plain["argv"]
        assert (pretty["stdout"].count("\n") > 2) == plain["stdout"].startswith("{")


def check_golden(argvs):
    """Run these golden cases in process, each in a directory that holds
    `CLI_INPUTS` and every recorded `-o` file, and compare with the record."""
    golden = {tuple(case["argv"]): case for case in load_golden()}
    with fresh_directory():
        for case in golden.values():
            for name, text in case["files"].items():
                Path(name).write_text(text, encoding="utf-8")
        for argv in argvs:
            assert golden_run(argv) == golden[tuple(argv)]


# In process, pytest records warnings instead of letting them reach stderr;
# "error" makes a warning of any category raise inside `main`.
@pytest.mark.filterwarnings("error")
def test_cli_output_matches_golden():
    # The expected bytes are `golden_run` over each case's argv at an earlier
    # commit; re-record them only for an intended change of output.
    expected = load_golden()
    assert [case["argv"] for case in expected] == CASES
    named = [argv for group in BEHAVIOURS.values() for argv in group]
    check_golden([argv for argv in CASES if argv not in named])
    # Every --workers count runs the same search.
    d1, d2 = (case["stdout"] for case in expected
              if case["argv"][:3] == ["distance", "-i", "c32.json"])
    assert d1 == d2


# One test per named behaviour, so that a failure names what broke and a
# mutant's selector can pick the cases that kill it.
def _behaviour_test(name, argvs):
    def test():
        check_golden(argvs)
    test.__name__ = test.__qualname__ = f"test_{name}"
    return pytest.mark.filterwarnings("error")(test)


for _name, _argvs in BEHAVIOURS.items():
    globals()[f"test_{_name}"] = _behaviour_test(_name, _argvs)
