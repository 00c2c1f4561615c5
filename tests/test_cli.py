import json
import subprocess
import sys


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "mdconv.cli", *args],
        capture_output=True, text=True, **kw,
    )


def test_bound_prints_value():
    res = run_cli("bound", "--m", "2", "--k", "1", "--n", "3", "--delta", "1")
    assert res.returncode == 0
    assert res.stdout.strip() == "9"


def test_bound_rejects_bad_dimensions():
    res = run_cli("bound", "--m", "1", "--k", "3", "--n", "2", "--delta", "0")
    assert res.returncode == 2


def test_construct_certify_pipeline(tmp_path):
    out = tmp_path / "code.json"
    res = run_cli(
        "construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1",
        "--source", "cauchy", "-o", str(out),
    )
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["verdict"] == "CERTIFIED_MDS"
    assert cert["certified_distance"] == 9

    res2 = run_cli("certify", "-i", str(out))
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["verdict"] == "CERTIFIED_MDS"


def test_construct_field_too_small_exit_3():
    res = run_cli("construct", "--p", "2", "--m", "2", "--n", "3", "--delta", "1",
                  "--source", "cauchy")
    assert res.returncode == 3


def test_construct_huge_prime_exit_2_fast():
    # 2^89 - 1 is prime but above the 2^62 field-size limit; the size check
    # comes before the primality test.
    res = run_cli("construct", "--p", str(2**89 - 1), "--m", "1", "--n", "2",
                  "--delta", "1", timeout=10)
    assert res.returncode == 2
    assert "too large" in res.stderr


def test_construct_large_extension_degree_fast():
    res = run_cli("construct", "--p", "2", "--e", "61", "--m", "1", "--n", "2",
                  "--delta", "1", timeout=10)
    assert res.returncode == 0
    assert json.loads(res.stdout)["certificate"]["verdict"] == "CERTIFIED_MDS"


def test_construct_staircase_and_flatten(tmp_path):
    out = tmp_path / "code.json"
    res = run_cli(
        "construct-staircase", "--p", "17", "--m", "2", "--k", "2", "--n", "5",
        "--nu", "1", "-o", str(out),
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["certified_distance"] == 15

    flat = run_cli("flatten", "-i", str(out))
    assert flat.returncode == 0
    obj = json.loads(flat.stdout)
    assert len(obj["matrix"]["entries"]) == 9
    assert len(obj["row_index"]) == 9


def test_check_sr_zero_entry_exit_1(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"field": {"p": 5, "e": 1}, "entries": [[1, 0], [2, 3]]}))
    res = run_cli("check-sr", "-i", str(path))
    assert res.returncode == 1
    rep = json.loads(res.stdout)
    assert not rep["verdict"]
    assert rep["failing_minor"]["rows"] == [0]
    assert rep["failing_minor"]["cols"] == [1]


def test_check_sr_pass_exit_0(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"field": {"p": 3, "e": 1}, "entries": [[1, 1], [1, 2]]}))
    res = run_cli("check-sr", "-i", str(path))
    assert res.returncode == 0


def test_encode_and_witness(tmp_path):
    out = tmp_path / "code.json"
    run_cli("construct", "--p", "5", "--m", "1", "--n", "2", "--delta", "1",
            "--source", "random", "--seed", "3", "-o", str(out))
    msg = json.dumps([[[[0], 1]]])
    res = run_cli("encode", "-i", str(out), "--message", msg)
    assert res.returncode == 0
    assert json.loads(res.stdout)["weight"] > 0

    wit = run_cli("witness", "-i", str(out))
    assert wit.returncode == 0
    obj = json.loads(wit.stdout)
    assert obj["weight"] <= obj["singleton_bound"]


def test_distance_exit_codes(tmp_path):
    out = tmp_path / "code.json"
    run_cli("construct", "--p", "5", "--m", "1", "--n", "2", "--delta", "1",
            "--source", "random", "--seed", "3", "-o", str(out))
    ok = run_cli("distance", "-i", str(out), "--cap", "3", "--stop-below", "4")
    assert ok.returncode == 0
    rep = json.loads(ok.stdout)
    assert rep["min_weight"] == 4 and not rep["below_bound"]

    bad = run_cli("distance", "-i", str(out), "--cap", "3", "--stop-below", "5")
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["below_bound"]


def test_zero_row_code_writes_no_warning(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({
        "field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 2,
        "generator": [[[[[0], 1], [[1], 1]], [[[0], 2]]], [[], []]],
    }))
    for cmd, code in (("certify", 1), ("flatten", 0), ("distance", 0)):
        res = run_cli(cmd, "-i", str(path))
        assert (res.returncode, res.stderr) == (code, ""), cmd
        json.loads(res.stdout)
    res = run_cli("witness", "-i", str(path))
    assert res.returncode == 2
    assert res.stderr == "error: generator matrix is not full row rank\n"


def test_distance_int64_overflow_exit_2(tmp_path):
    from mdconv.codes import CodeDescriptor
    from mdconv.galois import make_field
    from mdconv.multipoly import Polynomial, PolyMatrix

    F = make_field(2**32 - 5)
    G = PolyMatrix(F, 1, [[Polynomial(F, 1, {(0,): 1, (1,): 2})]])
    out = tmp_path / "code.json"
    out.write_text(json.dumps(CodeDescriptor.from_generator(G).to_json()))
    res = run_cli("distance", "-i", str(out), "--cap", "0")
    assert res.returncode == 2
    assert "int64" in res.stderr and res.stdout == ""


def test_certify_k_above_n_not_certified_exit_1(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": {"p": 5, "e": 1}, "m": 1, "k": 2, "n": 1,
                                "generator": [[[[[0], 1], [[1], 1]]], [[[[0], 2]]]]}))
    res = run_cli("certify", "-i", str(path))
    assert res.returncode == 1
    cert = json.loads(res.stdout)
    assert cert["verdict"] == "NOT_CERTIFIED"
    assert cert["hypotheses"][1] == {"name": "length_condition", "passed": False,
                                     "detail": "n = 1, k(nu+2) - 1 = 3"}


def test_construct_max_tries_below_one_exit_2():
    for cmd, dims in [("construct", ("--m", "1", "--n", "2", "--delta", "1")),
                      ("construct-staircase", ("--m", "1", "--k", "2", "--n", "3", "--nu", "0"))]:
        res = run_cli(cmd, "--p", "7", *dims, "--source", "random", "--max-tries", "-3")
        assert res.returncode == 2
        assert res.stderr == "error: max_tries must be at least 1, got -3\n"


def test_json_non_integers_exit_2(tmp_path):
    mat = tmp_path / "mat.json"
    mat.write_text(json.dumps({"field": {"p": 5, "e": 1}, "entries": [[1.9, "2"], [True, 4]]}))
    res = run_cli("check-sr", "-i", str(mat))
    assert (res.returncode, res.stdout) == (2, "")
    assert "expected an integer, got 1.9" in res.stderr

    out = tmp_path / "code.json"
    assert run_cli("construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1",
                   "-o", str(out)).returncode == 0
    code = json.loads(out.read_text())
    bad_coeff = json.loads(out.read_text())
    bad_coeff["generator"][0][0][0][1] = 2.7
    for bad in [bad_coeff, {**code, "m": "1"}]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        res = run_cli("certify", "-i", str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert "expected an integer" in res.stderr

    res = run_cli("encode", "-i", str(out), "--message", "[[[[0], 1.5]]]")
    assert (res.returncode, res.stdout) == (2, "")
    assert "expected an integer, got 1.5" in res.stderr


def test_json_wrong_shape_exit_2(tmp_path):
    # JSON that parses but has the wrong structure is a usage error, not a
    # failed property: one `error:` line, no traceback, nothing on stdout.
    code = tmp_path / "code.json"
    assert run_cli("construct", "--p", "7", "--m", "1", "--n", "2", "--delta", "1",
                   "-o", str(code)).returncode == 0
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"field": {"p": 5}, "entries": 5}))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for args in [("check-sr", "-i", str(matrix)), ("certify", "-i", str(listed)),
                 ("encode", "-i", str(code), "--message", "5")]:
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (2, ""), res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_missing_input_exit_2():
    res = run_cli("certify", "-i", "/nonexistent/code.json")
    assert res.returncode == 2


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "code.json"
    args = ("construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1",
            "--source", "random", "--seed", "9", "-o", str(out))
    first = run_cli(*args)
    blob1 = out.read_bytes()
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert blob1 == out.read_bytes()

    d1 = run_cli("distance", "-i", str(out), "--cap", "2")
    d2 = run_cli("distance", "-i", str(out), "--cap", "2")
    assert d1.stdout == d2.stdout


def test_workers_env_override(tmp_path):
    out = tmp_path / "code.json"
    run_cli("construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1", "-o", str(out))
    import os

    env = dict(os.environ, MDCONV_WORKERS="4")
    a = run_cli("distance", "-i", str(out), "--cap", "2")
    b = subprocess.run(
        [sys.executable, "-m", "mdconv.cli", "distance", "-i", str(out), "--cap", "2"],
        capture_output=True, text=True, env=env,
    )
    assert a.stdout == b.stdout


def test_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0
    assert all(c["passed"] for c in json.loads(res.stdout)["checks"])


def test_pretty_flag_changes_format_not_content():
    plain = run_cli("bound", "--m", "3", "--k", "1", "--n", "3", "--delta", "2")
    assert plain.stdout.strip() == "30"
