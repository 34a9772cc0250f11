"""Frozen usage and help output of the command line.

Each case holds the exact stdout, stderr and exit code of one argv: the
top-level and every sub-command's ``--help``, no command, an unknown
command, unknown options before and after the command, missing operands,
bad option values and values that begin with "-".  ``cli.main`` builds
only the sub-parser its first token names, and these bytes pin that the
lazy build prints what the full parser prints.  The literals are argparse's wording on Python 3.11 at 80 columns;
other Python versions word some messages differently.
"""

import contextlib
import io
import sys

import pytest

from cdalg.cli import main

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse wording differs between Python versions"
)

CASES = [
    (
        ['--help'],
        0,
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...

Construct, check and classify finite-dimensional real nonassociative algebras
given by structure constants.

positional arguments:
  {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
    gen                 emit a built-in algebra as a JSON file
    table               print a multiplication table
    check               property report for an algebra
    recognize           recognize an alternative division algebra
    classify-super      classify a graded super-alternative locally complex
                        algebra
    classify3           canonical form of a 3-dimensional algebra
    classify4           canonical data of a 4-dimensional algebra
    iso4                equivalence of two parameter pairs
    division4           division criterion for parameters (T, u)
    ann                 annihilator of an element
    zerodiv             zero divisor search
    alterscalar         solution space of x^2 a = x(xa)
    embed-check         verify a homomorphism matrix
    subalg              bounded subalgebra census
    verify-paper        run the built-in verification suite

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    (
        ['gen', '--help'],
        0,
        """\
usage: cdalg gen [-h] [--format {json,md}] [--out OUT] name

positional arguments:
  name

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --out OUT
""",
        "",
    ),
    (
        ['table', '--help'],
        0,
        """\
usage: cdalg table [-h] [--format {json,md}] name

positional arguments:
  name

options:
  -h, --help          show this help message and exit
  --format {json,md}
""",
        "",
    ),
    (
        ['check', '--help'],
        0,
        """\
usage: cdalg check [-h] [--format {json,md}]
                   [--property {all,quadratic,lc,alt,superalt,nn}]
                   [--budget BUDGET] [--seed SEED]
                   target

positional arguments:
  target

options:
  -h, --help            show this help message and exit
  --format {json,md}
  --property {all,quadratic,lc,alt,superalt,nn}
  --budget BUDGET
  --seed SEED
""",
        "",
    ),
    (
        ['recognize', '--help'],
        0,
        """\
usage: cdalg recognize [-h] [--format {json,md}] target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
""",
        "",
    ),
    (
        ['classify-super', '--help'],
        0,
        """\
usage: cdalg classify-super [-h] [--format {json,md}] target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
""",
        "",
    ),
    (
        ['classify3', '--help'],
        0,
        """\
usage: cdalg classify3 [-h] [--format {json,md}] [--params T S] [file]

positional arguments:
  file

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --params T S
""",
        "",
    ),
    (
        ['classify4', '--help'],
        0,
        """\
usage: cdalg classify4 [-h] [--format {json,md}] [--T T] [--u U] [file]

positional arguments:
  file

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --T T
  --u U
""",
        "",
    ),
    (
        ['iso4', '--help'],
        0,
        """\
usage: cdalg iso4 [-h] [--format {json,md}] --a A --b B

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --a A
  --b B
""",
        "",
    ),
    (
        ['division4', '--help'],
        0,
        """\
usage: cdalg division4 [-h] [--format {json,md}] [--T T] [--u U] [file]

positional arguments:
  file

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --T T
  --u U
""",
        "",
    ),
    (
        ['ann', '--help'],
        0,
        """\
usage: cdalg ann [-h] [--format {json,md}] --element ELEMENT target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --element ELEMENT
""",
        "",
    ),
    (
        ['zerodiv', '--help'],
        0,
        """\
usage: cdalg zerodiv [-h] [--format {json,md}] [--budget BUDGET] [--seed SEED]
                     target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --budget BUDGET
  --seed SEED
""",
        "",
    ),
    (
        ['alterscalar', '--help'],
        0,
        """\
usage: cdalg alterscalar [-h] [--format {json,md}] target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
""",
        "",
    ),
    (
        ['embed-check', '--help'],
        0,
        """\
usage: cdalg embed-check [-h] [--format {json,md}] --map MAP --from FROM --to
                         TO

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --map MAP
  --from FROM
  --to TO
""",
        "",
    ),
    (
        ['subalg', '--help'],
        0,
        """\
usage: cdalg subalg [-h] [--format {json,md}] [--dims DIMS] [--budget BUDGET]
                    [--seed SEED]
                    target

positional arguments:
  target

options:
  -h, --help          show this help message and exit
  --format {json,md}
  --dims DIMS
  --budget BUDGET
  --seed SEED
""",
        "",
    ),
    (
        ['verify-paper', '--help'],
        0,
        """\
usage: cdalg verify-paper [-h] [--format {json,md}]

options:
  -h, --help          show this help message and exit
  --format {json,md}
""",
        "",
    ),
    (
        [],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: the following arguments are required: command
""",
    ),
    (
        ['nope'],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: argument command: invalid choice: 'nope' (choose from 'gen', 'table', 'check', 'recognize', 'classify-super', 'classify3', 'classify4', 'iso4', 'division4', 'ann', 'zerodiv', 'alterscalar', 'embed-check', 'subalg', 'verify-paper')
""",
    ),
    (
        ['nope', 'S'],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: argument command: invalid choice: 'nope' (choose from 'gen', 'table', 'check', 'recognize', 'classify-super', 'classify3', 'classify4', 'iso4', 'division4', 'ann', 'zerodiv', 'alterscalar', 'embed-check', 'subalg', 'verify-paper')
""",
    ),
    (
        ['--bogus', 'check', 'S'],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: unrecognized arguments: --bogus
""",
    ),
    (
        ['check', 'S', '--bogus'],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: unrecognized arguments: --bogus
""",
    ),
    (
        ['check'],
        2,
        "",
        """\
usage: cdalg check [-h] [--format {json,md}]
                   [--property {all,quadratic,lc,alt,superalt,nn}]
                   [--budget BUDGET] [--seed SEED]
                   target
cdalg check: error: the following arguments are required: target
""",
    ),
    (
        ['ann', 'S'],
        2,
        "",
        """\
usage: cdalg ann [-h] [--format {json,md}] --element ELEMENT target
cdalg ann: error: the following arguments are required: --element
""",
    ),
    (
        ['check', 'S', 'extra'],
        2,
        "",
        """\
usage: cdalg [-h]
             {gen,table,check,recognize,classify-super,classify3,classify4,iso4,division4,ann,zerodiv,alterscalar,embed-check,subalg,verify-paper}
             ...
cdalg: error: unrecognized arguments: extra
""",
    ),
    (
        ['check', 'S', '--property', 'bad'],
        2,
        "",
        """\
usage: cdalg check [-h] [--format {json,md}]
                   [--property {all,quadratic,lc,alt,superalt,nn}]
                   [--budget BUDGET] [--seed SEED]
                   target
cdalg check: error: argument --property: invalid choice: 'bad' (choose from 'all', 'quadratic', 'lc', 'alt', 'superalt', 'nn')
""",
    ),
    (
        ['check', 'S', '--format', 'xml'],
        2,
        "",
        """\
usage: cdalg check [-h] [--format {json,md}]
                   [--property {all,quadratic,lc,alt,superalt,nn}]
                   [--budget BUDGET] [--seed SEED]
                   target
cdalg check: error: argument --format: invalid choice: 'xml' (choose from 'json', 'md')
""",
    ),
    (
        ['subalg', 'O', '--budget', 'many'],
        2,
        "",
        """\
usage: cdalg subalg [-h] [--format {json,md}] [--dims DIMS] [--budget BUDGET]
                    [--seed SEED]
                    target
cdalg subalg: error: argument --budget: invalid int value: 'many'
""",
    ),
    # Option values that begin with "-" and read as rationals or comma lists
    # are values, as they are after "=".
    (
        ['division4', '--T', '-1,0,0,0,1,0,0,0,1'],
        0,
        """\
{
 "division": false,
 "zero_divisor_pair": [
  [
   "0",
   "1",
   "1",
   "0"
  ],
  [
   "1",
   "0",
   "0",
   "1"
  ]
 ],
 "pair_exact": true
}
""",
        "",
    ),
    (
        ['division4', '--T=1,0,0,0,1,0,0,0,-3', '--u', '-1,0,0'],
        0,
        """\
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
   "1/4",
   "1/3*sqrt(3)",
   "1/4*sqrt(3)"
  ]
 ],
 "pair_exact": true
}
""",
        "",
    ),
    (
        ['classify3', '--params', '1', '-1/2'],
        3,
        "",
        """\
{"error": "bad --params: canonical parameters must be nonnegative; use build_raw_3d", "kind": "malformed-input"}
""",
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", CASES, ids=[" ".join(c[0]) or "<none>" for c in CASES]
)
def test_usage_bytes_are_frozen(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(list(argv))
        except SystemExit as exc:
            got = exc.code
    assert (got, out.getvalue(), err.getvalue()) == (code, stdout, stderr)
