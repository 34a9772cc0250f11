"""Quadraticity, local complexity and the unit-square search against the
multiply-based reference in slow_reference.

The library decides quadraticity by one polarized identity on the integer
tensor, reads the Gram matrix off the table in closed form, and builds the
certificate only when it is asked for.  Every field of the results and the
certificate must match the reference, which multiplies elements, except
the element witnessing "not quadratic", which must be valid in both, and
the certificate where the reference's Gram-Schmidt on square lengths finds
none: the library then decides by Hasse invariants whether one exists and
builds it by descent.
The unit-square search must agree with the reference on rotations of the
named tables, and succeed wherever the reference does.
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
    recognize_alternative_division,
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
from cdalg.properties import (
    LocallyComplexCheck,
    QuadraticCheck,
    certificate_or_raise,
    imaginary_basis,
)
from test_kernel import _quaternion_table

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
        if isinstance(lc, LocallyComplexCheck) and lc.holds:
            cert, cert_ref = properties._normalized_basis(algebra), ref.normalized_basis(algebra)
            if cert_ref is not None:
                assert cert == cert_ref
            elif not isinstance(cert, str):
                # Built by descent where square lengths alone give none.
                ref.validate_certificate(cert, algebra)


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
    """Locally complex, but the imaginary norm form is not a sum of squares
    over Q: b_1^2 = -2 (determinant 2), the quaternions (-1, -3) (Hasse
    invariant -1 at 3), and b_1^2 = -1, b_2^2 = -3 with b_1 b_2 = b_2 b_1 = 0
    (imaginary Gram matrix diag(1, 3), determinant 3)."""
    c = [[[F0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        c[0][i][i] = c[i][0][i] = F1
    c[1][1][0], c[2][2][0] = Fraction(-1), Fraction(-3)
    return [square_root_table(-2), _quaternion_table(-1, -3), Algebra(c, unit=0)]


NO_CERTIFICATE_INVARIANTS = [
    "its determinant 2 is not a rational square",
    "its Hasse invariant at 3 is -1",
    "its determinant 3 is not a rational square",
]


def certificate_by_descent():
    """Tables whose certificate needs the descent: Gram-Schmidt on square
    lengths finds none.  H in the bases (1, i + j, i - j, k) (imaginary
    Gram matrix diag(2, 2, 1)) and (1, i + j, j + k, k + i), and the
    3-dimensional algebra with t = 1 in the basis (1, e1 + e2, e1 - e2)."""
    h = named_algebra("H").algebra
    return [
        change_of_basis(h, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]],
                        unit_index=0),
        change_of_basis(h, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]],
                        unit_index=0),
        change_of_basis(build_3d(1, 0), [[1, 0, 0], [0, 1, 1], [0, 1, -1]], unit_index=0),
    ]


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
    cert = certificate_or_raise(algebra)
    assert len(orthonormalize_calls) == 1
    ref.validate_certificate(cert, algebra)
    assert certificate_or_raise(algebra) is cert
    assert is_locally_complex(algebra) is check
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
    want = ref.normalized_basis(algebra)
    assert want is not None
    assert certificate_or_raise(algebra) == want


def test_no_rational_certificate_reads_none(orthonormalize_calls):
    for algebra, invariant in zip(without_certificate(), NO_CERTIFICATE_INVARIANTS):
        assert is_locally_complex(algebra).holds
        assert ref.normalized_basis(algebra) is None
        for _ in range(2):
            with pytest.raises(UnsupportedRationalClassError) as info:
                certificate_or_raise(algebra)
            assert str(info.value) == (
                "a rational normalized basis needs the imaginary norm form to be a sum of "
                f"squares over Q, and it is not a sum of squares over Q: {invariant}")
    # One build per table; the message reads the clause that build kept.
    assert len(orthonormalize_calls) == 3


@pytest.mark.parametrize("index", range(3))
def test_certificate_built_by_descent(index):
    algebra = certificate_by_descent()[index]
    assert ref.normalized_basis(algebra) is None
    ref.validate_certificate(certificate_or_raise(algebra), algebra)


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
            outcome(certificate_or_raise, algebra)
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


def search_steps(algebra):
    """The recognizer's searches as in :func:`recognition_calls`, each with
    its family: ``(got, want, family)``, the family grown from ``got``."""
    imag = imaginary_basis(algebra)
    one = algebra.one()
    family = []
    for _ in range({2: 1, 4: 2, 8: 3}[algebra.dim]):
        closure = [one] + family if family else None
        got = outcome(find_unit_square_vector, algebra, imag, family, closure)
        want = outcome(ref.find_unit_square_vector, algebra, imag, family, closure)
        yield got, want, list(family)
        if isinstance(got, type):
            return
        family.append(got)
        if len(family) == 2:
            family.append(algebra.multiply(family[0], family[1]))


def is_unit_square(algebra, x, family=()):
    """x^2 = -1 and x anticommutes with the family, multiplied out."""
    return algebra.multiply(x, x) == -algebra.one() and all(
        (algebra.multiply(x, e) + algebra.multiply(e, x)).is_zero() for e in family
    )


def assert_search_dominates(algebra):
    """Wherever the reference's candidate search succeeds, the library's
    search succeeds too, and every vector it returns is a unit square."""
    steps = 0
    for got, want, family in search_steps(algebra):
        steps += 1
        if not isinstance(want, type):
            assert not isinstance(got, type)
        if not isinstance(got, type):
            assert is_unit_square(algebra, got, family)
    return steps


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["H", "O"]), st.data())
def test_unit_square_search_on_sheared_bases(name, data):
    """Sheared bases make most basis vectors of the search space fail to
    have a square norm, which sends the reference to its pair products and
    sum-of-squares splits, and the library to its descent."""
    algebra = sheared(named_algebra(name).algebra, data.draw)
    assert assert_search_dominates(algebra) == {4: 2, 8: 3}[algebra.dim]


@pytest.mark.parametrize("name", ["H", "O"])
@pytest.mark.parametrize("seed", range(3))
def test_unit_square_search_on_sheared_named_tables(name, seed):
    """Alternative tables only: in TO under the trivial grading e1 e2 need
    not square to -1, and a unit square can exist anticommuting with the
    family while the norm form there is not a sum of squares."""
    assert_search_dominates(sheared_named(name, seed))


def random_small_basis(name, seed):
    """The named table in a seeded basis that keeps the unit and the blocks
    of its natural grading, with the other entries drawn from -3..3: bases
    in which most candidate norms are not squares."""
    bundle = named_algebra(name)
    base, n, rng = bundle.algebra, bundle.algebra.dim, random.Random(f"small:{name}:{seed}")
    even, odd = bundle.grading.index_partition()
    while True:
        rows = [[F1 if k == i else F0 for k in range(n)] if i == base.unit else
                [Fraction(rng.randint(-3, 3)) if (k in even) == (i in even) and k != base.unit
                 else F0 for k in range(n)] for i in range(n)]
        if rank(rows) == n:
            return change_of_basis(base, rows, unit_index=base.unit), Grading.from_indices(n, even, odd)


@pytest.mark.parametrize("name", ["O", "S", "TS"])
def test_random_small_bases_succeed_wherever_the_reference_does(name):
    """The classification, the recognition of O (of the even part O for S
    and TS) and each of its unit-square searches succeed wherever the
    reference's do.  The reference's searches find small vectors through
    sums and differences of basis vectors and two-square splits; a vector
    built by descent alone is larger, and the next search space with it."""
    for seed in range(10):
        algebra, grading = random_small_basis(name, seed)
        octonions = algebra if name == "O" else analysis._induced_algebra(
            algebra, analysis._even_part_rows(algebra, grading))
        for fn, *args in ((classify_super_alternative, algebra, grading),
                          (recognize_alternative_division, octonions)):
            if not isinstance(outcome(getattr(ref, fn.__name__), *args), type):
                assert not isinstance(outcome(fn, *args), type), (name, seed, fn.__name__)
        assert_search_dominates(octonions)


def h_in_basis(rows):
    """H in the basis whose imaginary rows are given in i, j, k coordinates."""
    full = [[1, 0, 0, 0]] + [[0, *row] for row in rows]
    return change_of_basis(named_algebra("H").algebra, full, unit_index=0)


@pytest.fixture
def search_path(monkeypatch):
    """Which steps the last searches reached: "descent" once a unit vector
    is built by descent, "two squares" and "four squares" once a split of
    the reciprocal norm over a closure is asked."""
    reached = set()

    def spy(stage, fn):
        def wrapped(*args):
            reached.add(stage)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis, "unit_vector_by_descent",
                        spy("descent", analysis.unit_vector_by_descent))
    monkeypatch.setattr(analysis, "four_squares_fraction",
                        spy("four squares", analysis.four_squares_fraction))
    monkeypatch.setattr(analysis, "ternary_zero", spy("two squares", analysis.ternary_zero))
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


def assert_unit_square(algebra, space, family=(), closure=None):
    x = find_unit_square_vector(algebra, space, family, closure)
    assert is_unit_square(algebra, x, family)
    return x


def test_early_exit_reaches_the_pair_fallback(search_path):
    """Over the rows (1,-1,0), (1,0,1), (2,-1,-1) the norms are 2, 2 and 6,
    none a square.  The reference squares the product of (1,0,1) and
    (-1,0,1); the library decides that the form with LDL pivots 2, 3/2 and
    4/3 is a sum of squares and builds a unit vector by descent."""
    algebra = h_in_basis([[1, -1, 0], [1, 0, 1], [2, -1, -1]])
    assert isinstance(ref.find_unit_square_vector(algebra, imaginary_basis(algebra)), Element)
    assert_unit_square(algebra, imaginary_basis(algebra))
    assert search_path == {"descent"}


def test_early_exit_reaches_the_closure_fallback(search_path):
    """e1 = b_1 / 3 is found directly, as by the reference.  No vector
    anticommuting with it, nor sum or difference of two, has a square norm;
    like the reference, the library scales one through a two-square split
    in span(1, e1)."""
    algebra = h_in_basis([[2, 2, -1], [1, 2, 2], [1, 2, 1]])
    imag = imaginary_basis(algebra)
    e1 = assert_search_matches(algebra, imag)
    assert search_path == set()
    assert isinstance(ref.find_unit_square_vector(algebra, imag, [e1], [algebra.one(), e1]),
                      Element)
    assert_unit_square(algebra, imag, [e1], [algebra.one(), e1])
    assert search_path == {"two squares"}


def test_early_exit_reports_no_unit_square(search_path):
    """The rows (2,1,-1), (-1,-1,2), (-1,2,1) are a basis of the imaginary
    quaternions, so the algebra is H.  The reference's candidate norms are
    2, 6, 10, 14 and 22, no anticommuting pair multiplies two of them into a
    square, and it reports no unit square.  The library decides that the
    form with LDL pivots 6, 11/6 and 64/11 is a sum of squares and builds a
    unit vector by descent, and the recognizer finds H."""
    algebra = h_in_basis([[2, 1, -1], [-1, -1, 2], [-1, 2, 1]])
    imag = imaginary_basis(algebra)
    assert outcome(ref.find_unit_square_vector, algebra, imag) is UnsupportedRationalClassError
    assert_unit_square(algebra, imag)
    assert search_path == {"descent"}
    assert recognize_alternative_division(algebra).tag == "H"


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
