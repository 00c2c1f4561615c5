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
    BOUND,
    OBJECT_COMMANDS,
    golden_run,
    hash_seed_env,
    in_process,
    load_golden,
    run_subprocess,
    write_cli_inputs,
)
from mdconv.galois import make_field
from mdconv.multipoly import monomials_upto


def test_bound_prints_value():
    assert in_process(["bound", "--m", "2", "--k", "1", "--n", "3", "--delta", "1"]) == (
        0, "9\n", "")


def test_bound_rejects_bad_dimensions():
    assert in_process(["bound", "--m", "1", "--k", "3", "--n", "2", "--delta", "0"]) == (
        2, "", "error: invalid dimensions (m=1, k=3, n=2, delta=0)\n")


def test_construct_certify_pipeline(tmp_path):
    out = tmp_path / "code.json"
    code, stdout, _ = in_process([
        "construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1",
        "--source", "cauchy", "-o", str(out),
    ])
    assert code == 0
    cert = json.loads(stdout)
    assert cert["verdict"] == "CERTIFIED_MDS"
    assert cert["certified_distance"] == 9

    code, stdout, _ = in_process(["certify", "-i", str(out)])
    assert code == 0
    assert json.loads(stdout)["verdict"] == "CERTIFIED_MDS"


def test_construct_field_too_small_exit_3():
    assert in_process(["construct", "--p", "2", "--m", "2", "--n", "3", "--delta", "1",
                       "--source", "cauchy"]) == (
        3, "", "error: Cauchy source needs q >= 6, field has q = 2\n")


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


def test_construct_many_variables():
    # A recursive `monomials_upto`, one stack level per variable, overflowed
    # the interpreter's stack from about m = 500 on.
    code, out, err = in_process(["construct", "--p", "7", "--m", "600", "--n", "3", "--delta", "0"])
    assert code == 0, err
    assert json.loads(out)["certificate"]["verdict"] == "CERTIFIED_MDS"


def test_construct_staircase_and_flatten(tmp_path):
    out = tmp_path / "code.json"
    code, stdout, _ = in_process([
        "construct-staircase", "--p", "17", "--m", "2", "--k", "2", "--n", "5",
        "--nu", "1", "-o", str(out),
    ])
    assert code == 0
    assert json.loads(stdout)["certified_distance"] == 15

    code, stdout, _ = in_process(["flatten", "-i", str(out)])
    assert code == 0
    obj = json.loads(stdout)
    assert len(obj["matrix"]["entries"]) == 9
    assert len(obj["row_index"]) == 9


def test_check_sr_zero_entry_exit_1(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"field": {"p": 5, "e": 1}, "entries": [[1, 0], [2, 3]]}))
    code, out, _ = in_process(["check-sr", "-i", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert not rep["verdict"]
    assert rep["failing_minor"]["rows"] == [0]
    assert rep["failing_minor"]["cols"] == [1]


def test_check_sr_pass_exit_0(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"field": {"p": 3, "e": 1}, "entries": [[1, 1], [1, 2]]}))
    assert in_process(["check-sr", "-i", str(path)]) == (
        0, '{"minors_checked":5,"verdict":true}\n', "")


def test_encode_and_witness(tmp_path):
    out = tmp_path / "code.json"
    in_process(["construct", "--p", "5", "--m", "1", "--n", "2", "--delta", "1",
                "--source", "random", "--seed", "3", "-o", str(out)])
    msg = json.dumps([[[[0], 1]]])
    code, stdout, _ = in_process(["encode", "-i", str(out), "--message", msg])
    assert code == 0
    assert json.loads(stdout)["weight"] > 0

    code, stdout, _ = in_process(["witness", "-i", str(out)])
    assert code == 0
    obj = json.loads(stdout)
    assert obj["weight"] <= obj["singleton_bound"]


def test_distance_exit_codes(tmp_path):
    out = tmp_path / "code.json"
    in_process(["construct", "--p", "5", "--m", "1", "--n", "2", "--delta", "1",
                "--source", "random", "--seed", "3", "-o", str(out)])
    code, stdout, _ = in_process(["distance", "-i", str(out), "--cap", "3", "--stop-below", "4"])
    assert code == 0
    rep = json.loads(stdout)
    assert rep["min_weight"] == 4 and not rep["below_bound"]

    code, stdout, _ = in_process(["distance", "-i", str(out), "--cap", "3", "--stop-below", "5"])
    assert code == 1
    assert json.loads(stdout)["below_bound"]


# In process, pytest records warnings instead of letting them reach stderr;
# "error" makes a warning of any category raise inside `main`.
@pytest.mark.filterwarnings("error")
def test_zero_row_code_writes_no_warning(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({
        "field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 2,
        "generator": [[[[[0], 1], [[1], 1]], [[[0], 2]]], [[], []]],
    }))
    for cmd, expected in (("certify", 1), ("flatten", 0), ("distance", 0)):
        code, out, err = in_process([cmd, "-i", str(path)])
        assert (code, err) == (expected, ""), cmd
        json.loads(out)
    assert in_process(["witness", "-i", str(path)]) == (
        2, "", "error: generator matrix is not full row rank\n")


def test_distance_int64_overflow_exit_2(tmp_path):
    from mdconv.codes import CodeDescriptor
    from mdconv.multipoly import Polynomial, PolyMatrix

    F = make_field(2**32 - 5)
    G = PolyMatrix(F, 1, [[Polynomial(F, 1, {(0,): 1, (1,): 2})]])
    out = tmp_path / "code.json"
    out.write_text(json.dumps(CodeDescriptor.from_generator(G).to_json()))
    code, stdout, err = in_process(["distance", "-i", str(out), "--cap", "0"])
    assert code == 2
    assert "int64" in err and stdout == ""


def test_certify_k_above_n_not_certified_exit_1(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 1,
                                "generator": [[[[[0], 1], [[1], 1]]], [[[[0], 2]]]]}))
    code, out, _ = in_process(["certify", "-i", str(path)])
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] == "NOT_CERTIFIED"
    assert cert["hypotheses"][1] == {"name": "length_condition", "passed": False,
                                     "detail": "n = 1, k(nu+2) - 1 = 3"}


def test_construct_max_tries_below_one_exit_2():
    # The last shape, 3x7 over GF(7), is beyond the q + 1 bound: exit 2 first.
    for cmd, dims in [("construct", ["--m", "1", "--n", "2", "--delta", "1"]),
                      ("construct-staircase", ["--m", "1", "--k", "2", "--n", "3", "--nu", "0"]),
                      ("construct", ["--m", "2", "--n", "7", "--delta", "1"])]:
        assert in_process([cmd, "--p", "7", *dims, "--source", "random", "--max-tries", "-3"]) == (
            2, "", "error: max_tries must be at least 1, got -3\n")


def test_random_source_beyond_ball_bound_exit_3():
    # 3x4 over GF(5) and 9x5 over GF(7): r + s > q + 1, refused before the
    # first of the 10,000 default tries.
    for cmd, dims in [("construct", ["--p", "5", "--m", "2", "--n", "4", "--delta", "1"]),
                      ("construct-staircase",
                       ["--p", "7", "--m", "2", "--k", "2", "--n", "5", "--nu", "1"])]:
        code, out, err = in_process([cmd, *dims, "--source", "random"])
        assert (code, out) == (3, "")
        assert "r + s <= q + 1" in err


def test_random_search_giving_up_exit_3_says_it_proves_nothing():
    # 3x9 over GF(11) passes the Ball preflight (r + s = q + 1) and such
    # matrices exist, but seed 0's first draw is not superregular.
    assert in_process(["construct", "--p", "11", "--m", "2", "--n", "9", "--delta", "1",
                       "--source", "random", "--seed", "0", "--max-tries", "1"]) == (
        3, "", "error: seeded random search gave up: no superregular 3x9 matrix "
               "over GF(11) in 1 tries; this does not show that none exists\n")


def test_json_non_integers_exit_2(tmp_path):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"field": {"p": 5, "e": 1}, "entries": [[1.9, "2"], [True, 4]]}))
    code, out, err = in_process(["check-sr", "-i", str(mat)])
    assert (code, out) == (2, "")
    assert "expected an integer, got 1.9" in err

    path = tmp_path / "code.json"
    assert in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1",
                       "-o", str(path)])[0] == 0
    code_doc = json.loads(path.read_text())
    bad_coeff = json.loads(path.read_text())
    bad_coeff["generator"][0][0][0][1] = 2.7
    for bad in [bad_coeff, {**code_doc, "m": "1"}]:
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code, out, err = in_process(["certify", "-i", str(bad_path)])
        assert (code, out) == (2, "")
        assert "expected an integer" in err

    code, out, err = in_process(["encode", "-i", str(path), "--message", "[[[[0], 1.5]]]"])
    assert (code, out) == (2, "")
    assert "expected an integer, got 1.5" in err


def test_json_wrong_shape_exit_2(tmp_path):
    # JSON that parses but has the wrong structure is a usage error, not a
    # failed property: one `error:` line, no traceback, nothing on stdout.
    code_path = tmp_path / "code.json"
    assert in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1",
                       "-o", str(code_path)])[0] == 0
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"field": {"p": 5}, "entries": 5}))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for argv in [["check-sr", "-i", str(matrix)], ["certify", "-i", str(listed)],
                 ["encode", "-i", str(code_path), "--message", "5"]]:
        code, out, err = in_process(argv)
        assert (code, out) == (2, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_input_exit_2():
    assert in_process(["certify", "-i", "/nonexistent/code.json"]) == (
        2, "", "error: [Errno 2] No such file or directory: '/nonexistent/code.json'\n")


def test_byte_identical_reruns(tmp_path):
    # Fresh interpreters under two fixed hash seeds: output that depended on
    # string-hash order would differ on every run, not only by chance.
    out = tmp_path / "code.json"
    construct = ["construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1",
                 "--source", "random", "--seed", "9", "-o", str(out)]
    first = run_subprocess(construct, env=hash_seed_env(0))
    blob = out.read_bytes()
    assert first[0] == 0
    assert run_subprocess(construct, env=hash_seed_env(1)) == first
    assert out.read_bytes() == blob

    distance = ["distance", "-i", str(out), "--cap", "2"]
    d0 = run_subprocess(distance, env=hash_seed_env(0))
    assert d0[0] == 0
    assert run_subprocess(distance, env=hash_seed_env(1)) == d0


def test_python_m_entry_point_exits_with_mains_code(tmp_path, monkeypatch):
    # The `__main__` line must pass `main`'s return value to the exit status.
    monkeypatch.chdir(tmp_path)
    write_cli_inputs(tmp_path)
    argv = ["check-sr", "-i", "fail.json"]
    result = run_subprocess(argv)
    assert result[0] == 1
    assert result == in_process(argv)


def test_distance_workers_below_one_exit_2(tmp_path):
    out = tmp_path / "code.json"
    in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1", "-o", str(out)])
    for workers in ("0", "-2"):
        assert in_process(["distance", "-i", str(out), "--cap", "1", "--workers", workers]) == (
            2, "", f"error: workers must be at least 1, got {workers}\n")


def test_selftest():
    code, out, _ = in_process(["selftest"])
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


def test_certify_distance_below_singleton_bound_exit_1(tmp_path):
    from mdconv import CodeDescriptor, cauchy_matrix, phi_lift

    F = make_field(11)
    G = phi_lift(cauchy_matrix(F, range(4), range(4, 8)), 1, [(1, 2), (1, 0)])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(CodeDescriptor.from_generator(G).to_json()))
    code, out, _ = in_process(["certify", "-i", str(path)])
    assert code == 1
    cert = json.loads(out)
    assert (cert["verdict"], cert["certified_distance"]) == ("CERTIFIED_DISTANCE", 4)
    assert cert["hypotheses"][-1] == {"name": "meets_singleton_bound", "passed": False,
                                      "detail": "certified distance 4, Singleton bound 7"}


def test_construct_length_precondition_exit_2():
    assert in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "2"]) == (
        2, "", "error: need n >= 3, got n = 2\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_and_bound_line_run():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library example\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    line = re.search(r"^mdconv (bound .*?)\s+# prints the distance bound: (\d+)$", text, re.M)
    assert in_process(line.group(1).split()) == (0, line.group(2) + "\n", "")
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


def test_negative_number_message_reaches_the_json_reader(tmp_path):
    # argparse would take -1e5 for an option and exit outside `main`'s handler.
    _, out, _ = in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1"])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(json.loads(out)["code"]))
    tiny = "-2.2250738585072014e-308"
    # argparse accepts any unambiguous abbreviation of the flag.
    for flag in ("--message", "--messag", "--mess", "--m"):
        for message, shown in [("-1e5", "-100000.0"), (tiny, tiny), ("-1", "-1")]:
            assert in_process(["encode", "-i", str(path), flag, message]) == (
                2, "", f"error: expected a list, got {shown}\n")


def test_json_shape_errors_name_the_input(tmp_path):
    _, out, _ = in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1"])
    doc = json.loads(out)["code"]
    cases = [
        ({k: v for k, v in doc.items() if k != "generator"}, "missing key 'generator'"),
        ({**doc, "generator": [[[[[0], 1, 2]], []]]},
         "polynomial term must be [exponents, coefficient], got [[0], 1, 2]"),
        ({**doc, "generator": [[[[[0]]], []]]},
         "polynomial term must be [exponents, coefficient], got [[0]]"),
        # An empty object was once read as the zero polynomial.
        ({**doc, "generator": [[{}, []]]}, "expected a list, got {}"),
        ({**doc, "field": 7}, "expected an object with key 'p', got 7"),
    ]
    path = tmp_path / "code.json"
    for bad, message in cases:
        path.write_text(json.dumps(bad))
        assert in_process(["certify", "-i", str(path)]) == (2, "", f"error: {message}\n")


def test_repeated_exponent_vector_exits_2(tmp_path):
    # A repeated term is refused, not read as its last coefficient.
    _, out, _ = in_process(["construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1"])
    path = tmp_path / "code.json"
    path.write_text(json.dumps(json.loads(out)["code"]))
    assert in_process(["encode", "-i", str(path), "--message", "[[[[0],1],[[0],2]]]"]) == (
        2, "", "error: repeated exponent vector [0] in polynomial\n")


def test_pretty_flag_changes_format_not_content(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_cli_inputs(tmp_path)
    assert in_process(BOUND) == in_process(["--pretty", *BOUND]) == (0, "30\n", "")
    for argv in OBJECT_COMMANDS:
        code, plain, err = in_process(argv)
        pretty_code, pretty, pretty_err = in_process(["--pretty", *argv])
        assert err == pretty_err == "", argv
        assert code == pretty_code, argv
        assert json.loads(plain) == json.loads(pretty), argv
        assert plain.count("\n") == 1 and pretty.count("\n") > 2, argv


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    # The expected bytes are `golden_run` over each case's argv at an earlier
    # commit; re-record them only for an intended change of output.  The file
    # opens with every subcommand without, then with, --pretty.
    monkeypatch.chdir(tmp_path)
    write_cli_inputs(tmp_path)
    expected = load_golden()
    pairs = [pre + argv for pre in ([], ["--pretty"]) for argv in [BOUND, *OBJECT_COMMANDS]]
    assert [case["argv"] for case in expected[:len(pairs)]] == pairs
    for case in expected:
        assert golden_run(case["argv"]) == case
    # Every --workers count runs the same search.
    d1, d2 = (case["stdout"] for case in expected
              if case["argv"][:3] == ["distance", "-i", "c32.json"])
    assert d1 == d2
