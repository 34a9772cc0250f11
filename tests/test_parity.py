"""Byte-for-byte command-line output on a fixed file set, pinned by digest.

The file set: the named tables C, H, O, TO, S and TS with their gradings;
seeded rotations of O, TO, S and TS within their gradings and of H and O
fully; H in the basis (1, i+j, i-j, k); a sheared TO; the quaternions
(-1, -3); a 3- and a 4-dimensional algebra with rotated copies; and an
invalid grading.  For each of the seeds 0, 5 and 77 the rotations are drawn
afresh and ``check``, ``subalg`` and ``zerodiv`` take the seed.  The exit
code, stdout and stderr of ``check``, ``subalg``, ``zerodiv``, ``ann``,
``alterscalar``, ``recognize``, ``classify-super``, ``classify3`` and
``classify4`` are hashed together per run.  The digests in
``parity_digests.json`` were recorded while elements held tuples of
``Fraction``s, so how elements and matrices are stored inside the library
must not change a byte of what it prints.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cdalg import Grading, build_3d, build_4d, change_of_basis, named_algebra, rotated_copy
from cdalg.cli import main
from cdalg.fileio import save_algebra

from test_kernel import _quaternion_table

SEEDS = (0, 5, 77)
DIGESTS = Path(__file__).with_name("parity_digests.json")


def _file_set(tmp: Path, seed: int) -> list[tuple[str, str]]:
    """``(name, path)`` of every input for one seed."""
    rng = random.Random(f"parity:{seed}")
    files = []

    def save(name, algebra, grading=None):
        path = tmp / f"{name}.json"
        save_algebra(str(path), algebra, grading)
        files.append((name, str(path)))

    for name in ("C", "H", "O", "TO", "S", "TS"):
        bundle = named_algebra(name)
        save(name, bundle.algebra, bundle.grading)
    for name in ("O", "TO", "S", "TS"):
        bundle = named_algebra(name)
        save(f"graded-{name}", *rotated_copy(bundle.algebra, rng, bundle.grading)[:2])
    for name in ("H", "O"):
        rotated = rotated_copy(named_algebra(name).algebra, rng)[0]
        save(f"rotated-{name}", rotated, Grading.trivial(rotated.dim))
    h = named_algebra("H").algebra
    save("H-sums", change_of_basis(h, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
                                   unit_index=0))
    to = named_algebra("TO")
    shear = [[int(i == j) + (i == j + 1 and j > 0) for j in range(8)] for i in range(8)]
    save("sheared-TO", change_of_basis(to.algebra, shear, unit_index=0))
    save("quaternions-1-3", _quaternion_table(-1, -3))
    t, s = Fraction(rng.randint(1, 5), 2), Fraction(rng.randint(0, 3), 3)
    save("dim3", build_3d(t, s))
    save("dim3-rotated", rotated_copy(build_3d(t, s), rng)[0])
    diag = [[Fraction(rng.randint(1, 4)) if i == j else 0 for j in range(3)] for i in range(3)]
    diag[0][1] = Fraction(rng.randint(-2, 2), 2)
    u = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    save("dim4", build_4d(diag, u))
    save("dim4-rotated", rotated_copy(build_4d(diag, u), rng)[0])
    # i j = k leaves span(1, i, j): not a grading.
    save("invalid-grading", h, Grading.from_indices(4, [0, 1, 2], [3]))
    return files


def _commands(name: str, path: str, seed: int) -> list[list[str]]:
    runs = [
        ["check", path, "--seed", str(seed)],
        ["subalg", path, "--budget", "20", "--seed", str(seed)],
        ["zerodiv", path, "--budget", "100", "--seed", str(seed)],
        ["alterscalar", path],
        ["recognize", path],
        ["classify-super", path],
    ]
    data = json.loads(Path(path).read_text())
    labels = data.get("labels") or [f"b{i}" for i in range(data["dim"])]
    runs.append(["ann", path, "--element", f"{labels[1]} + {labels[-1]}"])
    if name.startswith("dim3") or name == "quaternions-1-3":
        runs.append(["classify3", path])
    if name.startswith("dim4") or name in ("H", "H-sums", "quaternions-1-3"):
        runs.append(["classify4", path])
    return runs


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


def outputs(tmp: Path, seed: int) -> dict[str, str]:
    """The digest of every run for one seed, keyed by the command line with
    the file's name in place of its path."""
    got = {}
    for name, path in _file_set(tmp, seed):
        for argv in _commands(name, path, seed):
            got[" ".join(argv).replace(path, name)] = _digest(argv)
    return got


@pytest.mark.parametrize("seed", SEEDS)
def test_output_is_byte_identical(tmp_path, seed):
    want = json.loads(DIGESTS.read_text())[str(seed)]
    got = outputs(tmp_path, seed)
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []
