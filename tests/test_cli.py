"""Command-line surface: outputs, round trips, exit codes."""

import json
import random

import pytest

from cdalg import (
    Grading,
    algebra_to_dict,
    cli,
    is_super_alternative,
    load_algebra,
    named_algebra,
)
from cdalg.cli import main
from cdalg.errors import InvalidGradingError


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse CLI output as strict JSON: ``NaN``, ``Infinity`` and
    ``-Infinity``, which ``json.dumps`` writes by default, are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one call; every JSON document it
    prints must parse strictly, whatever the test reads of it."""
    code = main(list(argv))
    captured = capsys.readouterr()
    for text in (captured.out, captured.err):
        if text.lstrip().startswith(("{", "[")):
            strict_json(text)
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
    data = strict_json(out)
    assert data["dim"] == 8
    assert data["grading"] == {"even": [0, 1, 2, 3], "odd": [4, 5, 6, 7]}


def test_gen_stdout_follows_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "C", "--format", "md")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim: 2"
    assert "grading: " + json.dumps({"even": [0], "odd": [1]}) in lines


def test_table_formats(capsys):
    code, out, _ = run_cli(capsys, "table", "C", "--format", "md")
    assert code == 0 and "-1" in out
    code, out, _ = run_cli(capsys, "table", "C", "--format", "json")
    data = strict_json(out)
    assert data["table"][1][1] == "-1"


def test_check_reports_json(capsys):
    code, out, _ = run_cli(capsys, "check", "J3", "--format", "json")
    assert code == 0
    data = strict_json(out)
    flags = data["flags"]
    assert flags["quadratic"] == "yes"
    assert flags["locally_complex"] == "yes"
    assert flags["alternative"] == "no"
    assert flags["commutative"] == "yes"
    assert flags["has_zero_divisors"] == "yes"


def test_check_single_property(capsys):
    code, out, _ = run_cli(capsys, "check", "O", "--property", "alt")
    data = strict_json(out)
    assert data["flags"] == {"alternative": "yes"}


# The decider behind each --property value; "all" adds the zero-divisor search.
CHECK_DECIDERS = {"quadratic": "is_quadratic", "lc": "is_locally_complex", "alt": "is_alternative",
                  "superalt": "is_super_alternative", "nn": "is_nicely_normed",
                  "all": "zero_divisor_search"}


@pytest.mark.parametrize("prop", list(CHECK_DECIDERS))
def test_check_calls_each_decider_through_the_cli_binding(prop, capsys, monkeypatch):
    """``check`` reaches every decider through this module's binding, once,
    so a wrapper installed there (as the benchmark's tracer installs one)
    sees each call; ``--property X`` reaches X's decider alone."""
    calls = []
    for name in CHECK_DECIDERS.values():
        decide = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _decide=decide, **k:
                            calls.append(_name) or _decide(*a, **k))
    code, out, _ = run_cli(capsys, "check", "H", "--property", prop, "--budget", "5")
    assert code == 0
    assert calls == (list(CHECK_DECIDERS.values()) if prop == "all" else [CHECK_DECIDERS[prop]])
    assert len(strict_json(out)["flags"]) == (7 if prop == "all" else 1)


def test_check_super_alternative_after_alternativity(tmp_path, capsys, monkeypatch):
    """``check`` decides the super-alternative flag by one super sweep per
    graded file, whether or not the algebra is alternative; an invalid
    grading fails as the sweep's own validation does."""
    calls = []
    monkeypatch.setattr(cli, "is_super_alternative",
                        lambda *a: calls.append(a) or is_super_alternative(*a))
    for count, name in enumerate(("H", "O", "S"), start=1):
        code, out, _ = run_cli(capsys, "check", name, "--budget", "5")
        flags = strict_json(out)["flags"]
        assert code == 0 and flags["super_alternative"] == "yes"
        assert flags["alternative"] == ("no" if name == "S" else "yes")
        assert len(calls) == count
    path = tmp_path / "o.json"
    assert run_cli(capsys, "gen", "O", "--out", str(path))[0] == 0
    data = strict_json(path.read_text())
    data["grading"] = {"even": [0, 1, 2, 4], "odd": [3, 5, 6, 7]}
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidGradingError) as raised:
        is_super_alternative(*load_algebra(str(path)))
    code, out, err = run_cli(capsys, "check", str(path), "--budget", "5")
    assert code == 1 and out == ""
    assert strict_json(err) == {"error": str(raised.value), "kind": "InvalidGradingError"}
    assert len(calls) == 4


def _character_gradings(name):
    """Index gradings of a named table: the natural one, its index lists
    shuffled and reversed, and the even parts of other characters
    b_i -> (-1)^popcount(i & mask) of the index group."""
    n, rng = named_algebra(name).algebra.dim, random.Random(f"super:{name}")
    for mask in (n // 2, *rng.sample(range(1, n), 3)):
        even = [i for i in range(n) if not bin(i & mask).count("1") % 2]
        odd = [i for i in range(n) if i not in even]
        yield even, odd
        yield rng.sample(even, len(even)), rng.sample(odd, len(odd))
        yield even[::-1], odd


def _super_outcome(algebra, grading):
    try:
        return is_super_alternative(algebra, grading)
    except InvalidGradingError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["O", "S", "TS", "TO", "A5", "A6"])
def test_check_super_witness_is_the_sweeps(name, tmp_path, capsys):
    """On the files of every tried grading, ``check`` prints the super
    sweep's verdict and witness, or fails as its grading validation does."""
    algebra = named_algebra(name).algebra
    for even, odd in _character_gradings(name):
        grading = Grading.from_indices(algebra.dim, even, odd)
        want = _super_outcome(algebra, grading)
        path = tmp_path / "graded.json"
        data = algebra_to_dict(algebra)
        data["grading"] = {"even": even, "odd": odd}
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check", str(path), "--budget", "5")
        if isinstance(want, str):
            assert (code, strict_json(err)["error"]) == (1, want)
            continue
        assert code == 0
        printed = strict_json(out)
        assert printed["flags"]["super_alternative"] == ("yes" if want.holds else "no")
        if not want.holds:
            u, x, law = want.witness
            assert printed["witnesses"]["super_alternative"] == {
                "law": law, "u": cli.element_text(algebra, u), "x": cli.element_text(algebra, x)}


def test_recognize_file(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert run_cli(capsys, "gen", "H", "--out", str(out))[0] == 0
    code, text, _ = run_cli(capsys, "recognize", str(out))
    assert code == 0
    assert strict_json(text)["tag"] == "H"


def test_classify_super(capsys):
    code, out, _ = run_cli(capsys, "classify-super", "TS")
    assert code == 0
    assert strict_json(out)["tag"] == "TS"


def test_classify3_params(capsys):
    code, out, _ = run_cli(capsys, "classify3", "--params", "3/2", "2")
    assert code == 0
    data = strict_json(out)
    assert data["t"] == "3/2" and data["s"] == "2" and data["s_squared"] == "4"


def test_classify4_flags(capsys):
    code, out, _ = run_cli(
        capsys, "classify4", "--T", "1,0,0,0,1,0,0,0,-1", "--u", "0,0,0"
    )
    assert code == 0
    data = strict_json(out)
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
    assert strict_json(out)["equivalent"] is True


ISO4_CASES = {
    # T differs from diag(1, 2, 3) in the 13th decimal: exact input, so "no".
    "near-pair": (
        {"T": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "u": [1, 0, 0]},
        {"T": [[1, 0, 0], [0, 2, 0], [0, 0, 3.000000000001]], "u": [1, 0, 0]},
        '{\n "equivalent": false,\n "borderline": false,\n "differs": "tr S"\n}\n',
    ),
    # The image under the rotation by (3/5, 4/5) about e3; W has rank 3.
    "rational-rank3": (
        {"T": [[1, 1, -1], [-1, 2, 1], [1, -1, 3]], "u": [1, 0, 0]},
        {"T": [["41/25", "13/25", "-7/5"], ["-37/25", "34/25", "-1/5"], ["7/5", "1/5", "3"]],
         "u": ["3/5", "4/5", "0"]},
        '{\n "equivalent": true,\n "borderline": false,\n "witness": [\n'
        '  [\n   "3/5",\n   "-4/5",\n   "0"\n  ],\n'
        '  [\n   "4/5",\n   "3/5",\n   "0"\n  ],\n'
        '  [\n   "0",\n   "0",\n   "1"\n  ]\n ]\n}\n',
    ),
    # S = 2I and u on the skew axis: W has rank 1, so no witness.
    "rank-deficient": (
        {"T": [[2, 1, 0], [-1, 2, 0], [0, 0, 2]], "u": [0, 0, 1]},
        {"T": [[2, 0, 0], [0, 2, 1], [0, -1, 2]], "u": [1, 0, 0]},
        '{\n "equivalent": true,\n "borderline": false\n}\n',
    ),
}


@pytest.mark.parametrize("name", ISO4_CASES)
def test_iso4_stdout(tmp_path, capsys, name):
    first, second, expected = ISO4_CASES[name]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    code, out, _ = run_cli(capsys, "iso4", "--a", str(a), "--b", str(b))
    assert (code, out) == (0, expected)


def test_division4(capsys):
    code, out, _ = run_cli(capsys, "division4", "--T", "1,0,0,0,1,0,0,0,1")
    assert code == 0
    assert strict_json(out)["division"] is True


def test_ann_element_expression(capsys):
    code, out, _ = run_cli(capsys, "ann", "TS", "--element", "f3+f12")
    assert code == 0
    data = strict_json(out)
    assert data["dim"] == 6


def test_zerodiv_definitive_no(capsys):
    code, out, _ = run_cli(capsys, "zerodiv", "H")
    assert code == 0
    data = strict_json(out)
    assert data["status"] == "none_found" and data["definitive"] is True


def test_zerodiv_found(capsys):
    code, out, _ = run_cli(capsys, "zerodiv", "TO", "--budget", "10", "--seed", "1")
    data = strict_json(out)
    assert data["status"] == "found"


def test_alterscalar(capsys):
    code, out, _ = run_cli(capsys, "alterscalar", "S")
    data = strict_json(out)
    assert data["solution_dim"] == 2 and data["has_alter_scalars"] is True


def test_embed_check_pass_and_fail(tmp_path, capsys):
    from cdalg.fileio import fraction_to_str
    from cdalg.verify import embedding_matrix

    matrix = embedding_matrix()
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": [[fraction_to_str(c) for c in row] for row in matrix]}))
    code, out, _ = run_cli(capsys, "embed-check", "--map", str(path), "--from", "TO", "--to", "S")
    assert code == 0
    assert strict_json(out)["holds"] is True
    flipped = [[-c if j == 5 else c for j, c in enumerate(row)] for row in matrix]
    path.write_text(json.dumps({"matrix": [[fraction_to_str(c) for c in row] for row in flipped]}))
    code, out, _ = run_cli(capsys, "embed-check", "--map", str(path), "--from", "TO", "--to", "S")
    assert code == 1
    assert strict_json(out)["holds"] is False


def test_subalg_census(capsys):
    code, out, _ = run_cli(capsys, "subalg", "O", "--dims", "1,4", "--budget", "5")
    assert code == 0
    data = strict_json(out)
    assert data["hits"]["1"] is True
    assert data["hits"]["4"] is True


@pytest.mark.parametrize("dims", ["a,b", "1,,2"])
def test_subalg_bad_dims_exit_3(capsys, dims):
    code, out, err = run_cli(capsys, "subalg", "O", "--dims", dims)
    assert code == 3 and out == ""
    error = strict_json(err)
    assert error["kind"] == "malformed-input" and "--dims" in error["error"]


@pytest.mark.parametrize("command", ["subalg", "zerodiv", "check"])
@pytest.mark.parametrize("budget", ["-1", "-500"])
def test_negative_budget_exits_3(capsys, command, budget):
    code, out, err = run_cli(capsys, command, "H", "--budget", budget)
    assert code == 3 and out == ""
    error = strict_json(err)
    assert error["kind"] == "malformed-input" and "--budget" in error["error"]


def test_zero_budget_is_accepted(capsys):
    for command in ("subalg", "zerodiv", "check"):
        assert run_cli(capsys, command, "H", "--budget", "0")[0] == 0


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
    assert strict_json(err)["kind"] == "malformed-input"


@pytest.mark.parametrize("command", ["check", "recognize", "table", "classify3"])
def test_undecodable_algebra_file_exits_3(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


@pytest.mark.parametrize("params", [("-1", "2"), ("1/2", "-3")])
def test_classify3_negative_params_exit_3(capsys, params):
    code, out, err = run_cli(capsys, "classify3", "--params", *params)
    assert code == 3 and out == ""
    error = strict_json(err)
    assert error["kind"] == "malformed-input" and "nonnegative" in error["error"]


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_gen_to_unwritable_path_exits_3(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, stdout, err = run_cli(capsys, "gen", "O", "--out", str(out))
    assert code == 3 and stdout == ""
    error = strict_json(err)
    assert error["kind"] == "malformed-input" and str(out) in error["error"]


def test_classify4_without_operand_exits_3(capsys):
    code, out, err = run_cli(capsys, "classify4")
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


MALFORMED_PARAMS = {
    "two-row-T": {"T": [[1, 0, 0], [0, 1, 0]], "u": [0, 0, 0]},
    "scalar-T": {"T": 5, "u": [0, 0, 0]},
    "short-row": {"T": [[1, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0]},
    "long-u": {"T": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "u": [0, 0, 0, 0]},
    "missing-u": {"T": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "top-level-list": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("command", ["division4", "classify4", "iso4"])
@pytest.mark.parametrize("name", sorted(MALFORMED_PARAMS))
def test_malformed_parameter_file_exits_3(tmp_path, capsys, command, name):
    """A parameter file of the wrong shape is malformed input, not a
    dimension error or a traceback."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(MALFORMED_PARAMS[name]))
    argv = ["iso4", "--a", str(path), "--b", str(path)] if command == "iso4" else [command, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    error = strict_json(err)
    assert error["kind"] == "malformed-input" and "bad parameter file" in error["error"]


@pytest.mark.parametrize("data", [
    {"matrix": 5},
    {"matrix": [5]},
    [[1]],
    {"map": []},
    # Of the wrong shape for an 8-dimensional source and a 16-dimensional
    # target: too small, one row, ragged.
    {"matrix": [[1, 0], [0, 1]]},
    {"matrix": [[1] + [0] * 7]},
    {"matrix": [[int(i == j) for j in range(8 if i != 3 else 7)] for i in range(16)]},
])
def test_malformed_map_file_exits_3(tmp_path, capsys, data):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "embed-check", "--map", str(path), "--from", "TO", "--to", "S")
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


@pytest.mark.parametrize("element", ["1/0", "2/0*e1", "e1/0"])
def test_zero_denominator_in_element_exits_3(capsys, element):
    code, out, err = run_cli(capsys, "ann", "O", "--element", element)
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


@pytest.mark.parametrize(
    "argv",
    [["ann", "O", "--element=--"], ["zerodiv", "S", "--seed=--"], ["check", "H", "--budget=--"]],
)
def test_double_dash_option_value_exits_3(capsys, argv):
    """argparse turns "--opt=--" into an empty list, which used to escape
    as a traceback, or pass unnoticed while the value went unused."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


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
    data = strict_json(out)
    assert data["division"] is False and data["pair_exact"] is True
    entries = data["zero_divisor_pair"][0] + data["zero_divisor_pair"][1]
    assert any("sqrt(3)" in e for e in entries)
    code, out, _ = run_cli(capsys, "division4", "--T", "1,0,0,0,1,0,0,0,-2")
    assert code == 0 and "sqrt" not in out and strict_json(out)["pair_exact"] is True


# The whole stdout of division4 for each kind of zero-divisor pair.
DIVISION4_STDOUT = [
    # a Q(sqrt(3)) pair
    (["--T=1,0,0,0,1,0,0,0,-3", "--u=1,2,3"], """\
{
 "division": false,
 "zero_divisor_pair": [
  [
   "0",
   "-1",
   "0",
   "-sqrt(3)"
  ],
  [
   "1",
   "-1/4 + 1/4*sqrt(3)",
   "1/3*sqrt(3)",
   "3/4 - 1/4*sqrt(3)"
  ]
 ],
 "pair_exact": true
}
"""),
    # a rational pair
    (["--T=1,0,0,0,1,0,0,0,-2", "--u=1,2,3"], """\
{
 "division": false,
 "zero_divisor_pair": [
  [
   "0",
   "-1",
   "1",
   "-2"
  ],
  [
   "1",
   "7/6",
   "-1/6",
   "4/3"
  ]
 ],
 "pair_exact": true
}
"""),
    # T z = 0: w is z x e_k and y has scalar part 0
    (["--T=1,2,0,-2,1,0,0,0,0", "--u=0,1,0"], """\
{
 "division": false,
 "zero_divisor_pair": [
  [
   "0",
   "0",
   "1",
   "0"
  ],
  [
   "0",
   "-1",
   "0",
   "0"
  ]
 ],
 "pair_exact": true
}
"""),
    # a dense rational T
    (["--T=1/3,2,-5/7,1,-1/2,3,2,1/5,-2", "--u=1/2,-1,3"], """\
{
 "division": false,
 "zero_divisor_pair": [
  [
   "0",
   "7",
   "-133",
   "46/5"
  ],
  [
   "1",
   "45865/148522",
   "-128825/148522",
   "-12295/74261"
  ]
 ],
 "pair_exact": true
}
"""),
]


@pytest.mark.parametrize("argv, stdout", DIVISION4_STDOUT, ids=[a[0] for a, _ in DIVISION4_STDOUT])
def test_division4_stdout_is_pinned(capsys, argv, stdout):
    assert run_cli(capsys, "division4", *argv) == (0, stdout, "")


def test_classify4_kind_agrees_with_division_near_a_tiny_eigenvalue(capsys):
    for last, kind, division in (("1/1000000000000", "ellipsoid", True),
                                 ("-1/1000000000000", "hyperboloid", False)):
        code, out, _ = run_cli(capsys, "classify4", "--T", f"1,0,0,0,1,0,0,0,{last}")
        assert code == 0
        data = strict_json(out)
        assert (data["kind"], data["division"]) == (kind, division)


@pytest.mark.parametrize("T", ["1e400,0,0,0,1,0,0,0,-1", "1/3,0,0,0,1,0,0,0,-1e400", "file"])
def test_classify4_hyperboloid_beyond_the_float_range_exits_3(tmp_path, capsys, T):
    """A hyperboloid's configuration is a float frame: an exact entry beyond
    the float range is malformed input, not a traceback."""
    argv = ["--T", T]
    if T == "file":
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"T": [[10**400, 0, 0], [0, 1, 0], [0, 0, -1]], "u": [0, 0, 0]}))
        argv = [str(path)]
    code, out, err = run_cli(capsys, "classify4", *argv)
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


def test_classify4_hyperboloid_near_the_float_maximum(capsys):
    """The symmetric part of 1e308 entries is formed without overflow, so
    the configuration is finite JSON; a skew part whose axis leaves the
    float range makes the frame malformed input."""
    code, out, err = run_cli(capsys, "classify4", "--T", "1e308,0,0,0,1e308,0,0,0,-1e308")
    assert code == 0 and err == ""
    data = strict_json(out)
    assert (data["rank"], data["kind"]) == (3, "hyperboloid")
    assert data["configuration"]["delta"] == [1e308, 1e308, -1e308]
    code, out, err = run_cli(capsys, "classify4", "--T", "1e308,-1.7e308,0,1.7e308,1e308,0,0,0,-1e308")
    assert code == 3 and out == ""
    assert strict_json(err)["kind"] == "malformed-input"


def test_strict_json_rejects_non_finite_numbers():
    for text in ('{"delta": [NaN]}', "[Infinity]", "-Infinity"):
        with pytest.raises(ValueError, match="is not JSON"):
            strict_json(text)
    assert strict_json('{"delta": [1e308]}') == {"delta": [1e308]}


def test_classify4_ellipsoid_beyond_the_float_range_is_exact(capsys):
    code, out, err = run_cli(capsys, "classify4", "--T", "1e400,0,0,0,1,0,0,0,1")
    assert code == 0 and err == ""
    data = strict_json(out)
    assert data["T"] == [[str(10**400), "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert data["u"] == ["0", "0", "0"]
    assert (data["rank"], data["kind"], data["division"]) == (3, "ellipsoid", True)
    assert "configuration" not in data and "zero_divisor_pair" not in data


# Commands, usage errors and "--": each argv is parsed by the parser cached
# for its first token.
PARSER_CASES = [
    ["check", "O", "--property", "alt"],
    ["ann", "H", "--element", "e1 + e2"],
    ["check", "H", "--property", "lc", "--format", "md"],
    ["check", "O", "--budget", "many"],
    ["zerodiv"],
    ["nosuch", "O"],
    [],
    ["--format", "json", "check", "O"],
    ["--", "check", "O"],
    ["check", "--", "O"],
    ["ann", "H", "--element=--"],
    ["ann", "H", "--element", "e1", "--", "e2"],
    ["recognize", "O"],
]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parsers_print_what_fresh_ones_print(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    fresh = []
    for argv in PARSER_CASES:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in PARSER_CASES * 2] == fresh * 2
    # One parser per command named first, and one for any other first token.
    named = {argv[0] for argv in PARSER_CASES if argv} & set(cli._COMMANDS)
    assert cli._parser.cache_info().misses == len(named) + 1
