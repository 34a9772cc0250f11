"""Quadraticity, local complexity and the unit-square search against the
multiply-based reference in slow_reference.

The library decides quadraticity by one polarized identity on the integer
tensor, reads the Gram matrix off the table in closed form, runs
Gram-Schmidt on coefficient vectors only when the certificate is read, and
reads the squares and anticommutators of the search candidates off one
bilinear table, stopping at the first candidate that scales to a unit
square.  Every field of the results must match the reference, which
multiplies elements and builds every candidate, except the element
witnessing "not quadratic", which must be valid in both.
"""

import dataclasses
import gc
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdalg import (
    Algebra,
    CdalgError,
    Element,
    Grading,
    build_3d,
    build_4d,
    change_of_basis,
    classify_super_alternative,
    find_unit_square_vector,
    is_locally_complex,
    is_quadratic,
    named_algebra,
)
from cdalg import analysis, properties
from cdalg.analysis import rotated_copy
from cdalg.cli import main
from cdalg.errors import (
    NotAlternativeError,
    NotLocallyComplexError,
    UnsupportedRationalClassError,
)
from cdalg.fileio import algebra_from_dict, algebra_to_dict, save_algebra
from cdalg.kernel import INT64_LIMIT, first_quadratic_defect, scaled_tensor
from cdalg.linalg import rank
from cdalg.properties import LocallyComplexCheck, QuadraticCheck, imaginary_basis

import slow_reference as ref

F0, F1 = Fraction(0), Fraction(1)
SMALL = [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
NONZERO = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]


def outcome(fn, *args):
    """The result, or the type of the library error raised instead."""
    try:
        return fn(*args)
    except CdalgError as exc:
        return type(exc)


def independent_square(algebra, x):
    return rank([algebra.one().coords, x.coords, algebra.multiply(x, x).coords]) == 3


def assert_same_verdicts(algebra):
    """Equal results, except that a "not quadratic" witness comes from the
    first polarized defect in the library and from a candidate list in the
    reference: there both must be valid, and nothing else may differ."""
    q, q_ref = outcome(is_quadratic, algebra), outcome(ref.is_quadratic, algebra)
    lc, lc_ref = outcome(is_locally_complex, algebra), outcome(ref.is_locally_complex, algebra)
    if isinstance(q_ref, QuadraticCheck) and not q_ref.holds:
        assert independent_square(algebra, q_ref.witness)
        assert not q.holds and independent_square(algebra, q.witness)
        assert lc == dataclasses.replace(lc_ref, counterexample=q.witness)
    else:
        assert q == q_ref
        assert lc == lc_ref


def constants_of(algebra):
    return [[list(entries) for entries in row] for row in algebra.constants]


def sheared(algebra, draw):
    """The algebra in a triangular basis: b'_i = d_i b_i + earlier vectors
    and a multiple of the unit, so traces and the Gram matrix are generic."""
    n, u = algebra.dim, algebra.unit
    rows = []
    for i in range(n):
        row = [F0] * n
        row[i] = F1
        if i != u:
            row[i] = Fraction(draw(st.sampled_from(NONZERO)))
            for k in range(i):
                row[k] = Fraction(draw(st.sampled_from(SMALL)))
        rows.append(row)
    return change_of_basis(algebra, rows, unit_index=u)


def moved_unit(algebra, unit):
    """The same table with the basis permuted so the unit sits at ``unit``."""
    n = algebra.dim
    order = [i for i in range(n) if i != algebra.unit]
    order.insert(unit, algebra.unit)  # new index p holds old basis vector order[p]
    pos = {old: new for new, old in enumerate(order)}
    c = algebra.constants
    out = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[pos[i]][pos[j]][pos[k]] = c[i][j][k]
    return Algebra(out, unit=unit)


@st.composite
def base_tables(draw):
    kind = draw(st.sampled_from(["named", "3d", "4d", "small"]))
    if kind == "named":
        return named_algebra(draw(st.sampled_from(["R", "C", "H", "O", "TO", "J3", "J4"]))).algebra
    if kind == "3d":
        t, s = (Fraction(draw(st.sampled_from([0, 1, 2, Fraction(1, 2), 3]))) for _ in range(2))
        return build_3d(t, s)
    if kind == "4d":
        T = [[draw(st.sampled_from(SMALL)) for _ in range(3)] for _ in range(3)]
        return build_4d(T, [draw(st.sampled_from(SMALL)) for _ in range(3)])
    # A random unital table of dimension 1 to 3.
    n = draw(st.integers(1, 3))
    c = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        c[0][i][i] = c[i][0][i] = F1
    for i in range(1, n):
        for j in range(1, n):
            c[i][j] = [Fraction(draw(st.sampled_from(SMALL))) for _ in range(n)]
    return Algebra(c, unit=0)


@st.composite
def tables(draw):
    """Base tables in rotated or sheared bases, optionally perturbed so that
    quadraticity or definiteness fails, with the unit moved off index 0, or
    with one basis vector scaled so that entries pass the int64 bound."""
    algebra = draw(base_tables())
    n, u = algebra.dim, algebra.unit
    style = draw(st.sampled_from(["plain", "rotated", "sheared"]))
    if style == "rotated" and n > 1:
        algebra = rotated_copy(algebra, random.Random(draw(st.integers(0, 10**6))))[0]
    elif style == "sheared":
        algebra = sheared(algebra, draw)
    imag = [i for i in range(n) if i != u]
    perturb = draw(st.sampled_from(["none", "symmetric", "antisymmetric", "norm"]))
    if perturb != "none" and imag:
        c = constants_of(algebra)
        i, j = draw(st.sampled_from(imag)), draw(st.sampled_from(imag))
        k = draw(st.integers(0, n - 1))
        delta = Fraction(draw(st.sampled_from(NONZERO)))
        if perturb == "symmetric":
            # Changes the square of b_i + b_j; quadraticity survives only
            # when k is the unit, or i = j = k.
            c[i][j][k] += delta
        elif perturb == "antisymmetric":
            # Leaves every square alone, so quadraticity survives.
            c[i][j][k] += delta
            c[j][i][k] -= delta
        else:
            # A new norm for b_i: b_i^2 = t_i b_i + value 1.
            c[i][i][u] = Fraction(draw(st.sampled_from([1, 0, 2, Fraction(1, 4), -1, -3])))
        algebra = Algebra(c, unit=u)
    if draw(st.booleans()) and imag:
        i = draw(st.sampled_from(imag))
        factor = Fraction(draw(st.sampled_from([2**40, Fraction(1, 2**40), 3**30])))
        rows = [[factor if (r == i and s == i) else F1 if r == s else F0 for s in range(n)]
                for r in range(n)]
        algebra = change_of_basis(algebra, rows, unit_index=u)
    return moved_unit(algebra, draw(st.integers(0, n - 1)))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_local_complexity_matches_reference(algebra):
    assert_same_verdicts(algebra)


@pytest.mark.parametrize("name", ["C", "H", "O", "TO", "S", "TS", "A5", "J6"])
def test_named_tables_match_reference(name):
    assert_same_verdicts(named_algebra(name).algebra)


@pytest.mark.parametrize("name", ["S", "TS"])
def test_rotated_sedenion_tables_match_reference(name):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"lc:{name}"), bundle.grading)[0]
    assert_same_verdicts(rotated)


def test_entries_past_int64_bound():
    """Scaling b_1 of H by 2^40 puts 2^80 into the table, so the identity is
    checked on Python ints; breaking a square there must still be seen."""
    h = named_algebra("H").algebra
    rows = [[F1 if r == s else F0 for s in range(4)] for r in range(4)]
    rows[1][1] = Fraction(2**40)
    big = change_of_basis(h, rows, unit_index=0)
    assert scaled_tensor(big).max_abs >= INT64_LIMIT
    assert is_quadratic(big).holds and is_locally_complex(big).holds
    assert_same_verdicts(big)
    c = constants_of(big)
    c[1][2][3] += 1
    broken = Algebra(c, unit=0)
    assert not is_quadratic(broken).holds
    assert_same_verdicts(broken)


# -- the certificate, built when read -----------------------------------------


@pytest.fixture
def orthonormalize_calls(monkeypatch):
    """The argument tuples of every ``properties.orthonormalize`` call."""
    calls = []
    original = properties.orthonormalize

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(properties, "orthonormalize", spy)
    return calls


def fresh(algebra, grading=None):
    """An equal algebra with nothing decided yet, and its grading."""
    return algebra_from_dict(algebra_to_dict(algebra, grading))


def graded_copy(name, grading="natural", rotate=True):
    """A fresh copy of the named table with its natural grading or the
    trivial one, rotated within the blocks of that grading unless ``rotate``
    is false."""
    bundle = named_algebra(name)
    natural = bundle.grading if grading == "natural" else None
    algebra = bundle.algebra
    if rotate:
        algebra = rotated_copy(algebra, random.Random(f"lazy:{name}"), natural)[0]
    return fresh(algebra, natural or Grading.trivial(algebra.dim))


def square_root_table(square):
    """The 2-dimensional unital algebra with b_1^2 = square * 1."""
    return Algebra([[[F1, F0], [F0, F1]], [[F0, F1], [Fraction(square), F0]]], unit=0)


def without_certificate():
    """Locally complex, but Gram-Schmidt finds no rational normalized basis:
    b_1^2 = -2, H in the basis (1, i + j, i - j, k), and the 3-dimensional
    algebra with t = 1 in the basis (1, e1 + e2, e1 - e2)."""
    root_two = square_root_table(-2)
    h = change_of_basis(named_algebra("H").algebra,
                        [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]], unit_index=0)
    t1 = change_of_basis(build_3d(1, 0), [[1, 0, 0], [0, 1, 1], [0, 1, -1]], unit_index=0)
    return [root_two, h, t1]


@pytest.mark.parametrize("name, grading", [
    ("S", "natural"), ("TS", "natural"), ("O", "trivial"), ("TO", "natural"), ("H", "trivial"),
])
@pytest.mark.parametrize("rotate", [False, True])
def test_classification_builds_no_certificate(orthonormalize_calls, name, grading, rotate):
    algebra, graded = graded_copy(name, grading, rotate)
    assert classify_super_alternative(algebra, graded).tag == name
    assert is_locally_complex(algebra).holds
    assert orthonormalize_calls == []


def test_rejections_build_no_certificate(orthonormalize_calls):
    """The trivial grading of a rotated S is rejected after local complexity
    (not alternative); b_1^2 = 3 is rejected by local complexity."""
    algebra, grading = graded_copy("S", "trivial")
    with pytest.raises(NotAlternativeError):
        classify_super_alternative(algebra, grading)
    assert is_locally_complex(algebra).holds
    split = square_root_table(3)
    with pytest.raises(NotLocallyComplexError):
        classify_super_alternative(split, Grading.trivial(2))
    assert not is_locally_complex(split).holds
    assert orthonormalize_calls == []


@pytest.mark.parametrize("name, rotate", [("S", False), ("O", False), ("S", True)])
def test_check_builds_no_certificate(orthonormalize_calls, tmp_path, capsys, name, rotate):
    algebra, grading = graded_copy(name, rotate=rotate)
    path = tmp_path / "algebra.json"
    save_algebra(str(path), algebra, grading)
    assert main(["check", str(path), "--budget", "5"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags["locally_complex"] == flags["nicely_normed"] == "yes"
    assert orthonormalize_calls == []


def test_certificate_is_built_on_first_read_only(orthonormalize_calls):
    algebra, _ = graded_copy("O", "trivial")
    check = is_locally_complex(algebra)
    assert orthonormalize_calls == []
    cert = check.certificate
    assert len(orthonormalize_calls) == 1
    cert.validate(algebra)
    assert check.certificate is cert
    assert is_locally_complex(algebra).certificate is cert
    assert len(orthonormalize_calls) == 1


def sheared_named(name, seed):
    """The named table in a seeded triangular basis with the unit row kept."""
    n, rng = named_algebra(name).algebra.dim, random.Random(seed)
    rows = [[F1] + [F0] * (n - 1)]
    for r in range(1, n):
        row = [F0] + [Fraction(rng.choice([0, 1, -1, 2])) for _ in range(1, r)]
        row += [Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))] + [F0] * (n - r - 1)
        rows.append(row)
    return change_of_basis(named_algebra(name).algebra, rows, unit_index=0)


CERTIFICATE_CASES = {
    **{name: lambda name=name: named_algebra(name).algebra
       for name in ("R", "C", "H", "O", "TO", "S", "TS")},
    **{f"{name}-{grading}-rotated": lambda name=name, grading=grading: graded_copy(name, grading)[0]
       for name in ("C", "H", "O", "TO", "S", "TS") for grading in ("natural", "trivial")},
    **{f"{name}-sheared": lambda name=name: sheared_named(name, 7) for name in ("H", "O", "TO")},
    "4d": lambda: build_4d([[1, 2, 0], [0, 1, 0], [0, 0, 3]], [0, 0, 0]),
    "3d": lambda: build_3d(2, 1),
}


@pytest.mark.parametrize("case", list(CERTIFICATE_CASES))
def test_certificate_matches_reference(case):
    algebra = fresh(CERTIFICATE_CASES[case]())[0]
    want = ref.is_locally_complex(algebra).certificate
    assert want is not None
    assert is_locally_complex(algebra).certificate == want


def test_no_rational_certificate_reads_none(orthonormalize_calls):
    for algebra in without_certificate():
        check = is_locally_complex(algebra)
        assert check.holds
        assert check.certificate is None and check.certificate is None
        assert ref.is_locally_complex(algebra).certificate is None
    assert len(orthonormalize_calls) == 3


def test_constructor_and_replace_keep_a_given_certificate():
    cert = is_locally_complex(named_algebra("C").algebra).certificate
    given = LocallyComplexCheck(True, certificate=cert)
    assert given.certificate is cert
    assert LocallyComplexCheck(True).certificate is None
    assert dataclasses.replace(given, reason="r").certificate is cert
    deferred = LocallyComplexCheck.deferred(lambda: cert)
    assert deferred == given and dataclasses.replace(deferred, reason="r").certificate is cert


class Tracked(Algebra):
    """An algebra a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("case", ["O", "S-rotated", "no-certificate", "split"])
@pytest.mark.parametrize("read", [False, True])
def test_decided_algebra_is_freed_by_reference_counting(case, read):
    """No reference cycle runs through the check kept on the algebra, so
    with the cyclic collector off the algebra goes when its last reference
    does, whether or not the certificate was built."""
    source = {
        "O": lambda: named_algebra("O").algebra,
        "S-rotated": lambda: graded_copy("S")[0],
        "no-certificate": lambda: without_certificate()[1],
        "split": lambda: square_root_table(3),
    }[case]()
    gc.collect()
    gc.disable()
    try:
        algebra = Tracked._of_table(scaled_tensor(source), source.unit)
        check = is_locally_complex(algebra)
        if read:
            check.certificate
        watch = weakref.ref(algebra)
        del algebra
        assert watch() is None
    finally:
        gc.enable()


# -- the unit-square search -------------------------------------------------


def recognition_calls(algebra):
    """The searches the recognizer makes, each with both implementations:
    e1 in the imaginary part, then e2 anticommuting with e1, then (in
    dimension 8) e4 anticommuting with e1, e2 and e1 e2."""
    imag = imaginary_basis(algebra)
    one = algebra.one()
    family = []
    results = []
    for _ in range({2: 1, 4: 2, 8: 3}[algebra.dim]):
        closure = [one] + family if family else None
        got = outcome(find_unit_square_vector, algebra, imag, family, closure)
        want = outcome(ref.find_unit_square_vector, algebra, imag, family, closure)
        results.append((got, want))
        if isinstance(got, type):
            break
        family.append(got)
        if len(family) == 2:
            family.append(algebra.multiply(family[0], family[1]))
    return results


@pytest.mark.parametrize("name", ["O", "TO", "C", "H"])
@pytest.mark.parametrize("seed", range(3))
def test_unit_square_search_pinned_on_rotations(name, seed):
    bundle = named_algebra(name)
    rotated = rotated_copy(bundle.algebra, random.Random(f"usv:{name}:{seed}"))[0]
    results = recognition_calls(rotated)
    assert len(results) == {2: 1, 4: 2, 8: 3}[rotated.dim]
    for got, want in results:
        assert got == want


def test_unit_square_search_on_graded_odd_part():
    """The classifier's call for TO: a unit-square odd vector, normalized
    through the recognized even quaternions."""
    bundle = named_algebra("TO")
    rotated, grading, _ = rotated_copy(bundle.algebra, random.Random("usv:odd"), bundle.grading)
    odd = [rotated.basis_element(i) for i in range(4, 8)]
    closure = [rotated.basis_element(i) for i in range(4)]
    args = (rotated, odd, (), closure)
    assert find_unit_square_vector(*args) == ref.find_unit_square_vector(*args)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["H", "O"]), st.data())
def test_unit_square_search_on_sheared_bases(name, data):
    """Sheared bases make most candidates fail, which exercises the pair
    products and the sum-of-squares normalization."""
    algebra = sheared(named_algebra(name).algebra, data.draw)
    for got, want in recognition_calls(algebra):
        assert got == want


def h_in_basis(rows):
    """H in the basis whose imaginary rows are given in i, j, k coordinates."""
    full = [[1, 0, 0, 0]] + [[0, *row] for row in rows]
    return change_of_basis(named_algebra("H").algebra, full, unit_index=0)


@pytest.fixture
def search_path(monkeypatch):
    """Which stages the last searches reached: "pair" once a product of
    candidates is squared, "closure" once a sum-of-squares split is asked."""
    reached = set()

    def spy(stage, fn):
        def wrapped(*args):
            reached.add(stage)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis, "_square_scalar", spy("pair", analysis._square_scalar))
    for name in ("two_squares_fraction", "four_squares_fraction"):
        monkeypatch.setattr(analysis, name, spy("closure", getattr(analysis, name)))
    return reached


def assert_search_matches(algebra, space, family=(), closure=None):
    got = outcome(find_unit_square_vector, algebra, space, family, closure)
    want = outcome(ref.find_unit_square_vector, algebra, space, family, closure)
    assert got == want
    return got


@pytest.mark.parametrize("name", ["S", "TS"])
def test_early_exit_matches_reference_on_rotated_even_parts(name):
    bundle = named_algebra(name)
    algebra, grading = rotated_copy(bundle.algebra, random.Random(f"even:{name}"),
                                    bundle.grading)[:2]
    even = analysis._induced_algebra(algebra, analysis._even_part_rows(algebra, grading))
    for got, want in recognition_calls(even):
        assert not isinstance(got, type) and got == want


def test_early_exit_reaches_the_pair_fallback(search_path):
    """Over the rows (1,-1,0), (1,0,1), (2,-1,-1) every candidate has norm
    2, 6, 10 or 14, none a square; the first anticommuting pair, (1,0,1)
    and (-1,0,1), multiplies two norms of 2 into 4."""
    algebra = h_in_basis([[1, -1, 0], [1, 0, 1], [2, -1, -1]])
    got = assert_search_matches(algebra, imaginary_basis(algebra))
    assert isinstance(got, Element) and search_path == {"pair"}


def test_early_exit_reaches_the_closure_fallback(search_path):
    """e1 = b_1 / 3 is found directly.  No candidate anticommuting with it
    has a square norm, their pair products are multiples of e1, and one of
    them is scaled through a two-square split in span(1, e1)."""
    algebra = h_in_basis([[2, 2, -1], [1, 2, 2], [1, 2, 1]])
    imag = imaginary_basis(algebra)
    e1 = assert_search_matches(algebra, imag)
    assert search_path == set()
    got = assert_search_matches(algebra, imag, [e1], [algebra.one(), e1])
    assert isinstance(got, Element) and search_path == {"pair", "closure"}


def test_early_exit_reports_no_unit_square(search_path):
    """Over the rows (2,1,-1), (-1,-1,2), (-1,2,1) the candidate norms are
    2, 6, 10, 14 and 22, no anticommuting pair multiplies two of them into
    a square, and there is no closure to try."""
    algebra = h_in_basis([[2, 1, -1], [-1, -1, 2], [-1, 2, 1]])
    got = assert_search_matches(algebra, imaginary_basis(algebra))
    assert got is UnsupportedRationalClassError and search_path == {"pair"}


# -- the constructive quadratic witness ----------------------------------------


def first_defect_by_loops(algebra):
    """The first non-unit (a, b, k) with C[a,b,k] + C[b,a,k] !=
    ell_a [b = k] + ell_b [a = k], ell_a = C[a,a,a], in Fraction loops:
    squares (a = b) first, then every triple in lexicographic order."""
    c, rest = algebra.constants, [i for i in range(algebra.dim) if i != algebra.unit]
    triples = [(a, a, k) for a in rest for k in rest]
    triples += [(a, b, k) for a in rest for b in rest for k in rest]
    for a, b, k in triples:
        want = (c[a][a][a] if b == k else 0) + (c[b][b][b] if a == k else 0)
        if c[a][b][k] + c[b][a][k] != want:
            return a, b, k
    return None


@settings(max_examples=200, deadline=None)
@given(tables())
def test_quadratic_witness_on_the_plane_of_the_first_defect(algebra):
    if algebra.unit is None:
        return
    defect = first_defect_by_loops(algebra)
    assert first_quadratic_defect(algebra) == defect
    res = is_quadratic(algebra)
    assert res.holds == (defect is None)
    if defect is not None:
        a, b, _ = defect
        x = res.witness
        assert independent_square(algebra, x)
        # x = b_a + t b_b with t in {0, 1, 2, 3} (x = (1 + t) b_a when a = b).
        assert any(x.coords == (algebra.basis_element(a) + algebra.basis_element(b).scale(t)).coords
                   for t in range(4))
