"""Command-line surface: outputs, round trips, exit codes."""

import json

import pytest

from cdalg import load_algebra, named_algebra
from cdalg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "octonions.json"
    code, _, _ = run_cli(capsys, "gen", "O", "--out", str(out))
    assert code == 0
    loaded, grading = load_algebra(str(out))
    assert loaded == named_algebra("O").algebra
    assert grading is not None


def test_gen_stdout_round_trips(capsys):
    code, out, _ = run_cli(capsys, "gen", "TO")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8
    assert data["grading"] == {"even": [0, 1, 2, 3], "odd": [4, 5, 6, 7]}


def test_gen_stdout_follows_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "C", "--format", "md")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim: 2"
    assert "grading: " + json.dumps({"even": [0], "odd": [1]}) in lines


def test_table_formats(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",1,e1"
    assert lines[2] == "e1,e1,-1"
    code, out, _ = run_cli(capsys, "table", "C", "--format", "md")
    assert code == 0 and "-1" in out
    code, out, _ = run_cli(capsys, "table", "C", "--format", "json")
    data = json.loads(out)
    assert data["table"][1][1] == "-1"


def test_check_reports_json(capsys):
    code, out, _ = run_cli(capsys, "check", "J3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    flags = data["flags"]
    assert flags["quadratic"] == "yes"
    assert flags["locally_complex"] == "yes"
    assert flags["alternative"] == "no"
    assert flags["commutative"] == "yes"
    assert flags["has_zero_divisors"] == "yes"


def test_check_single_property(capsys):
    code, out, _ = run_cli(capsys, "check", "O", "--property", "alt")
    data = json.loads(out)
    assert data["flags"] == {"alternative": "yes"}


def test_recognize_file(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run_cli(capsys, "gen", "H", "--out", str(out))[0] == 0
    code, text, _ = run_cli(capsys, "recognize", str(out))
    assert code == 0
    assert json.loads(text)["tag"] == "H"


def test_classify_super(capsys):
    code, out, _ = run_cli(capsys, "classify-super", "TS")
    assert code == 0
    assert json.loads(out)["tag"] == "TS"


def test_classify3_params(capsys):
    code, out, _ = run_cli(capsys, "classify3", "--params", "3/2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == "3/2" and data["s"] == "2"


def test_classify4_flags(capsys):
    code, out, _ = run_cli(
        capsys, "classify4", "--T", "1,0,0,0,1,0,0,0,-1", "--u", "0,0,0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "hyperboloid"
    assert data["division"] is False
    assert "zero_divisor_pair" in data
    assert "configuration" in data


def test_iso4_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"T": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0]}))
    b.write_text(json.dumps({"T": [["-1", 0, 0], [0, -1, 0], [0, 0, -1]], "u": [0, 0, 0]}))
    code, out, _ = run_cli(capsys, "iso4", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_division4(capsys):
    code, out, _ = run_cli(capsys, "division4", "--T", "1,0,0,0,1,0,0,0,1")
    assert code == 0
    assert json.loads(out)["division"] is True


def test_ann_element_expression(capsys):
    code, out, _ = run_cli(capsys, "ann", "TS", "--element", "f3+f12")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6


def test_zerodiv_definitive_no(capsys):
    code, out, _ = run_cli(capsys, "zerodiv", "H")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "none_found" and data["definitive"] is True


def test_zerodiv_found(capsys):
    code, out, _ = run_cli(capsys, "zerodiv", "TO", "--budget", "10", "--seed", "1")
    data = json.loads(out)
    assert data["status"] == "found"


def test_alterscalar(capsys):
    code, out, _ = run_cli(capsys, "alterscalar", "S")
    data = json.loads(out)
    assert data["solution_dim"] == 2 and data["has_alter_scalars"] is True


def test_embed_check_pass_and_fail(tmp_path, capsys):
    from cdalg.fileio import fraction_to_str
    from cdalg.verify import embedding_matrix

    matrix = embedding_matrix()
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [[fraction_to_str(c) for c in row] for row in matrix]}))
    code, out, _ = run_cli(capsys, "embed-check", "--map", str(path), "--from", "TO", "--to", "S")
    assert code == 0
    assert json.loads(out)["holds"] is True
    flipped = [[-c if j == 5 else c for j, c in enumerate(row)] for row in matrix]
    path.write_text(json.dumps({"matrix": [[fraction_to_str(c) for c in row] for row in flipped]}))
    code, out, _ = run_cli(capsys, "embed-check", "--map", str(path), "--from", "TO", "--to", "S")
    assert code == 1
    assert json.loads(out)["holds"] is False


def test_subalg_census(capsys):
    code, out, _ = run_cli(capsys, "subalg", "O", "--dims", "1,4", "--budget", "5")
    assert code == 0
    data = json.loads(out)
    assert data["hits"]["1"] is True
    assert data["hits"]["4"] is True


def test_exit_code_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "recognize", str(bad))
    assert code == 3
    assert "malformed-input" in err


def _mangled_quaternions(tmp_path, mangle):
    from cdalg import algebra_to_dict

    data = algebra_to_dict(named_algebra("H").algebra)
    mangle(data)
    path = tmp_path / "mangled.json"
    path.write_text(json.dumps(data))
    return str(path)


def _ragged(data):
    data["constants"][1][2] = data["constants"][1][2][:3]


def _unit_out_of_range(data):
    data["unit"] = 7


def _scalar_constants(data):
    data["constants"] = 5


def _short_labels(data):
    data["labels"] = ["1", "i"]


def _boolean_constant(data):
    data["constants"][0][1][1] = True  # was "1"


def _boolean_grading_index(data):
    data["grading"] = {"even": [0, True], "odd": [2, 3]}  # True was read as 1


@pytest.mark.parametrize(
    "mangle",
    [_ragged, _unit_out_of_range, _scalar_constants, _short_labels,
     _boolean_constant, _boolean_grading_index],
)
def test_malformed_algebra_file_exits_3(tmp_path, capsys, mangle):
    code, out, err = run_cli(capsys, "check", _mangled_quaternions(tmp_path, mangle))
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "malformed-input"


def test_classify4_without_operand_exits_3(capsys):
    code, out, err = run_cli(capsys, "classify4")
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "malformed-input"


@pytest.mark.parametrize("element", ["1/0", "2/0*e1", "e1/0"])
def test_zero_denominator_in_element_exits_3(capsys, element):
    code, out, err = run_cli(capsys, "ann", "O", "--element", element)
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "malformed-input"


@pytest.mark.parametrize(
    "argv",
    [["ann", "O", "--element=--"], ["zerodiv", "S", "--seed=--"], ["check", "H", "--budget=--"]],
)
def test_double_dash_option_value_exits_3(capsys, argv):
    """argparse turns "--opt=--" into an empty list, which used to escape
    as a traceback, or pass unnoticed while the value went unused."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["kind"] == "malformed-input"


def test_exit_code_math_failure(capsys):
    code, _, err = run_cli(capsys, "recognize", "S")
    assert code == 1
    assert "NotAlternativeError" in err


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "zerodiv", "S", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "zerodiv", "S", "--seed", "7")
    assert (code1, out1) == (code2, out2)


def test_division4_prints_exact_surd_pairs(capsys):
    code, out, _ = run_cli(capsys, "division4", "--T", "1,0,0,0,1,0,0,0,-3")
    assert code == 0
    data = json.loads(out)
    assert data["division"] is False and data["pair_exact"] is True
    entries = data["zero_divisor_pair"][0] + data["zero_divisor_pair"][1]
    assert any("sqrt(3)" in e for e in entries)
    code, out, _ = run_cli(capsys, "division4", "--T", "1,0,0,0,1,0,0,0,-2")
    assert code == 0 and "sqrt" not in out and json.loads(out)["pair_exact"] is True


def test_classify4_kind_agrees_with_division_near_a_tiny_eigenvalue(capsys):
    for last, kind, division in (("1/1000000000000", "ellipsoid", True),
                                 ("-1/1000000000000", "hyperboloid", False)):
        code, out, _ = run_cli(capsys, "classify4", "--T", f"1,0,0,0,1,0,0,0,{last}")
        assert code == 0
        data = json.loads(out)
        assert (data["kind"], data["division"]) == (kind, division)
