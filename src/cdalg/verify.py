"""Built-in verification suite.

Each claim is a self-contained check of one reference fact or one contract
of this library, run with exact arithmetic unless a tolerance is stated.
The suite powers both the ``verify-paper`` CLI command and the acceptance
tests; claim ids are stable and every claim appears exactly once in a
report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import tables
from .analysis import (
    alter_scalar_space,
    annihilator,
    check_homomorphism,
    classify_super_alternative,
    random_rational_orthogonal,
    recognize_alternative_division,
    rotated_copy,
)
from .construct import Grading, cayley_dickson_tower, named_algebra
from .core import generated_subalgebra
from .fileio import parse_element
from .linalg import F0, Subspace, unit_vector
from .lowdim import (
    build_3d,
    build_4d,
    build_raw_3d,
    canonical_params_3d,
    equiv_4d,
    extract_params_4d,
    geometric_type,
    is_division_4d,
    params_equal_3d,
)
from .properties import (
    _decide_local_complexity,
    is_alternative,
    is_commutative_jn,
    is_nicely_normed,
    is_super_alternative,
    middle_moufang_on_basis,
)


@dataclass(frozen=True)
class ClaimOutcome:
    claim_id: str
    description: str
    passed: bool
    elapsed_ms: float
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    outcomes: tuple[ClaimOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


class ClaimFailure(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ClaimFailure(message)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


def claim_doubling_tables() -> str:
    tower = cayley_dickson_tower(4)
    _require(
        tower[3].algebra == tables.algebra_from_signed_table(tables.OCTONION_TABLE),
        "doubled dim-8 table differs from the reference table",
    )
    _require(
        tower[4].algebra == tables.algebra_from_signed_table(tables.SEDENION_TABLE),
        "doubled dim-16 table differs from the reference table",
    )
    return "dim-8 and dim-16 doubling tables match the references entry for entry"


def claim_moufang() -> str:
    octonions = named_algebra("O").algebra
    sedenions = named_algebra("S").algebra
    holds, witness = middle_moufang_on_basis(octonions)
    _require(holds, f"middle Moufang identity failed on the dim-8 table at {witness}")
    holds, witness = middle_moufang_on_basis(sedenions)
    _require(not holds, "middle Moufang identity unexpectedly holds on the dim-16 table")
    i, j, k = witness
    return f"Moufang holds on all dim-8 basis triples; dim-16 witness (b{i}, b{j}, b{k})"


def claim_recognizers() -> str:
    rng = random.Random(20240)
    for name in ("R", "C", "H", "O"):
        bundle = named_algebra(name)
        rec = recognize_alternative_division(bundle.algebra)
        _require(rec.tag == name, f"{name} misrecognized as {rec.tag}")
        for _ in range(10):
            rotated, _, _ = rotated_copy(bundle.algebra, rng)
            rec = recognize_alternative_division(rotated)
            _require(rec.tag == name, f"rotated {name} misrecognized as {rec.tag}")
            hom = check_homomorphism(rec.iso, rotated, named_algebra(name).algebra)
            _require(hom.holds, f"returned iso for rotated {name} is not multiplicative")
    return "R/C/H/O recognized, 10 rational rotations each, isos re-verified"


def claim_alter_scalars() -> str:
    sedenions = named_algebra("S").algebra
    space = alter_scalar_space(sedenions)
    expected = Subspace([unit_vector(16, 0), unit_vector(16, 8)], 16)
    _require(
        space.solutions == expected and space.has_alter_scalars,
        "dim-16 alter-scalar space is not span{1, e8}",
    )
    for name in ("TO", "TS"):
        algebra = named_algebra(name).algebra
        space = alter_scalar_space(algebra)
        only_one = Subspace([unit_vector(algebra.dim, 0)], algebra.dim)
        _require(
            space.solutions == only_one and not space.has_alter_scalars,
            f"{name} unexpectedly has alter-scalars",
        )
    octonions = named_algebra("O").algebra
    space = alter_scalar_space(octonions)
    _require(space.solutions.dim == 8, "dim-8 alter-scalar space is not everything")
    return "solution spaces: dim-16 = span{1,e8}; twisted tables = span{1}; dim-8 = all"


def claim_zero_divisors_annihilators() -> str:
    twisted_oct = named_algebra("TO").algebra
    x = parse_element("f1-f4", twisted_oct)
    y = parse_element("f3-f6", twisted_oct)
    _require(twisted_oct.multiply(x, y).is_zero(), "(f1-f4)(f3-f6) != 0")
    ann = annihilator(twisted_oct, x)
    _require(ann.dim == 2, f"dim Ann(f1-f4) = {ann.dim}, expected 2")
    for expr in ("f2+f7", "f3-f6"):
        _require(
            ann.contains(parse_element(expr, twisted_oct).coords),
            f"{expr} missing from Ann(f1-f4)",
        )
    twisted_sed = named_algebra("TS").algebra
    ann6 = annihilator(twisted_sed, parse_element("f3+f12", twisted_sed))
    _require(ann6.dim == 6, f"dim Ann(f3+f12) = {ann6.dim}, expected 6")
    for expr in ("f1+f14", "f2-f13", "f4+f11", "f5+f10", "f6-f9", "f7-f8"):
        _require(
            ann6.contains(parse_element(expr, twisted_sed).coords),
            f"{expr} missing from Ann(f3+f12)",
        )
    sedenions = named_algebra("S").algebra
    zero_div_count = 0
    for i in range(1, 16):
        for j in range(i + 1, 16):
            for sign in (1, -1):
                x = sedenions.basis_element(i) + sedenions.basis_element(j).scale(sign)
                d = annihilator(sedenions, x).dim
                if d:
                    zero_div_count += 1
                    _require(d == 4, f"dim Ann(e{i}{'+' if sign>0 else '-'}e{j}) = {d}")
    _require(zero_div_count > 0, "no zero divisors found in the paired-basis family")
    return (
        "twisted-table annihilators match the reference spans; "
        f"{zero_div_count} paired-basis zero divisors in dim 16, all with dim Ann = 4"
    )


def claim_super_classification() -> str:
    rng = random.Random(555)
    cases = [
        ("C", Grading.trivial(2)),
        ("H", Grading.trivial(4)),
        ("O", Grading.trivial(8)),
        ("S", None),
        ("TO", None),
        ("TS", None),
    ]
    for name, grading in cases:
        bundle = named_algebra(name)
        grading = grading or bundle.grading
        rec = classify_super_alternative(bundle.algebra, grading)
        _require(rec.tag == name, f"{name} classified as {rec.tag}")
        for _ in range(5):
            rotated, new_grading, _ = rotated_copy(bundle.algebra, rng, grading)
            rec = classify_super_alternative(rotated, new_grading)
            _require(rec.tag == name, f"rotated {name} classified as {rec.tag}")
            hom = check_homomorphism(rec.iso, rotated, named_algebra(name).algebra)
            _require(hom.holds, f"classifier iso for rotated {name} not multiplicative")
    return "C/H/O (trivial), S/TO/TS (natural) classified, 5 rotations each, isos verified"


def embedding_matrix() -> tuple[tuple[Fraction, ...], ...]:
    """The unital embedding of the twisted dim-8 table into the sedenions."""
    images = {0: (0, 1), 1: (1, 1), 2: (2, 1), 3: (3, 1),
              4: (12, 1), 5: (13, -1), 6: (14, -1), 7: (15, -1)}
    cols = []
    for src in range(8):
        k, sign = images[src]
        col = [F0] * 16
        col[k] = Fraction(sign)
        cols.append(col)
    return tuple(tuple(cols[j][r] for j in range(8)) for r in range(16))


def claim_embedding() -> str:
    twisted_oct = named_algebra("TO").algebra
    sedenions = named_algebra("S").algebra
    matrix = embedding_matrix()
    res = check_homomorphism(matrix, twisted_oct, sedenions)
    _require(res.holds, f"embedding rejected: {res.violation}")
    flipped = tuple(
        tuple(-c if j == 5 else c for j, c in enumerate(row)) for row in matrix
    )
    res = check_homomorphism(flipped, twisted_oct, sedenions)
    _require(not res.holds, "sign-flipped embedding unexpectedly accepted")
    _require(
        isinstance(res.violation, tuple) and len(res.violation) == 2,
        "no violating product pair located",
    )
    return f"embedding verified; mutated map rejected at product pair {res.violation}"


def claim_subalgebras() -> str:
    twisted_sed = named_algebra("TS").algebra
    # The f3 term carries a plus sign here: with f3-f12 the span is not
    # multiplicatively closed (it closes to dimension 8), while f3+f12 -- the
    # same element whose annihilator is spanned by the other generators --
    # yields an exact 5-dimensional subalgebra.
    gens = [
        parse_element(e, twisted_sed)
        for e in ("f1+f14", "f3+f12", "f6-f9", "f7-f8")
    ]
    span = generated_subalgebra(twisted_sed, gens, include_unit=True)
    _require(span.dim == 5, f"five-element span closed to dim {span.dim}")
    octonions = named_algebra("O").algebra
    span4 = generated_subalgebra(
        octonions,
        [octonions.basis_element(1), octonions.basis_element(2)],
        include_unit=True,
    )
    _require(span4.dim == 4, f"{{1,e1,e2}} generated dim {span4.dim}")
    return "5-dim subalgebra of the twisted dim-16 table confirmed; {1,e1,e2} spans dim 4"


def claim_classification_3d() -> str:
    grid = [Fraction(k, 3) for k in range(10)]
    forms = {}
    for t in grid:
        for s in grid:
            c = canonical_params_3d(build_3d(t, s))
            _require(
                c.t == t and c.s == s, f"round trip failed at ({t}, {s}) -> {c}"
            )
            forms[(t, s)] = c
    keys = list(forms)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            _require(
                not params_equal_3d(forms[keys[a]], forms[keys[b]]),
                f"distinct grid points {keys[a]} and {keys[b]} compare equal",
            )
    raw = canonical_params_3d(build_raw_3d(-2, 3, 0))
    _require((raw.t, raw.s) == (2, 3), f"raw (-2, (3,0)) mapped to {raw}")
    raw = canonical_params_3d(build_raw_3d(Fraction(-1, 2), 0, Fraction(5, 2)))
    _require(
        (raw.t, raw.s) == (Fraction(1, 2), Fraction(5, 2)),
        f"raw (-1/2, (0,5/2)) mapped to {raw}",
    )
    return "100-point grid round trips exactly; negative-t raw forms normalize to (|t|, |z|)"


def claim_classification_4d() -> str:
    rng = random.Random(777)
    nprng = np.random.default_rng(777)
    rotations = random.Random(778)
    for trial in range(20):
        T = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        u = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(3)]
        params = extract_params_4d(build_4d(T, u))
        _require(
            params.t_matrix == tuple(tuple(row) for row in T)
            and params.u == tuple(u),
            "4d parameter round trip failed",
        )
        # (T', u') = (det Q) (Q T Q^T, Q u), with det Q = -1 on odd trials.
        sign = (-1) ** trial
        Q = sign * np.array(random_rational_orthogonal(3, rotations), dtype=object)
        T2, u2 = sign * Q @ np.array(T, dtype=object) @ Q.T, sign * Q @ np.array(u, dtype=object)
        res = equiv_4d((T, u), (T2, u2))
        _require(res.witness is not None and res.witness.tolist() == Q.tolist(),
                 f"rational orbit pair {trial} without its exact orthogonal witness")
    for trial in range(20):
        T = nprng.uniform(-2, 2, (3, 3))
        u = nprng.uniform(-2, 2, 3)
        if trial == 0:
            T2, u2 = -T, u.copy()
        else:
            q, _ = np.linalg.qr(nprng.normal(size=(3, 3)))
            d = np.linalg.det(q)
            T2, u2 = d * q @ T @ q.T, d * q @ u
        res = equiv_4d((T, u), (T2, u2))
        _require(res.equivalent and res.witness is not None,
                 f"orbit pair {trial} not recognized as equivalent")
        _require(
            geometric_type(T).kind == geometric_type(T2).kind,
            "geometric type varies along an orbit",
        )
    for trial in range(20):
        lams = sorted(nprng.uniform(0.5, 3.0, 3))
        lams2 = [lams[0], lams[1], lams[2] + 0.7]
        q1, _ = np.linalg.qr(nprng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(nprng.normal(size=(3, 3)))
        T = q1 @ np.diag(lams) @ q1.T
        T2 = q2 @ np.diag(lams2) @ q2.T
        res = equiv_4d((T, np.zeros(3)), (T2, np.zeros(3)))
        _require(not res.equivalent, "eigenvalue-separated pair compared equal")
    near = [[1, 0, 0], [0, 2, 0], [0, 0, 3 + Fraction(1, 10**12)]]
    res = equiv_4d((np.diag([1, 2, 3]).tolist(), [1, 0, 0]), (near, [1, 0, 0]))
    _require(not res.equivalent and not res.borderline, "diag(1, 2, 3 + 10^-12) compared equal")
    # Float pairs 1e-4 apart whose invariants differ by less than 1e-9.
    T = np.diag([1.0, 2.0, 3.0])
    res = equiv_4d((T, np.array([1.0, 0, 0])), (T, np.array([1.0, 1e-4, 0])))
    _require(not res.equivalent, "u = (1, 0, 0) and (1, 1e-4, 0) compared equal")
    division_no = 0
    for trial in range(50):
        T = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            for _ in range(3)
        ]
        u = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        check = is_division_4d(T, u)
        P = np.array([[float(T[i][j] + T[j][i]) / 2 for j in range(3)] for i in range(3)])
        w = np.linalg.eigvalsh(P)
        definite = bool(np.all(w > 1e-9) or np.all(w < -1e-9))
        _require(
            check.is_division == definite,
            f"division verdict disagrees with eigenvalue signs for {T}",
        )
        if not check.is_division:
            division_no += 1
            _require(check.pair is not None, "missing zero-divisor witness")
    _require(division_no > 0, "random sample produced no indefinite cases")
    return (
        "20 exact round trips, each equivalent to a rational orbit image with its exact "
        "witness; 20 float orbit pairs equivalent incl. the (-T, u) flip, each with a "
        "witness; diag(1, 2, 3 + 10^-12) distinct from diag(1, 2, 3), and u = (1, 1e-4, 0) "
        "from (1, 0, 0) in floats; "
        f"20 separated pairs distinct; division criterion matched eigenvalue signs "
        f"with {division_no} verified zero-divisor pairs"
    )


def claim_property_suite() -> str:
    for name in ("R", "C", "H", "O"):
        _require(is_alternative(named_algebra(name).algebra).holds, f"{name} not alternative")
    for name in ("S", "TO", "TS", "A5"):
        res = is_alternative(named_algebra(name).algebra)
        _require(not res.holds and res.witness is not None, f"{name} alternative?")
    seven = [
        ("R", Grading.trivial(1)),
        ("C", None),
        ("H", None),
        ("O", None),
        ("S", None),
        ("TO", None),
        ("TS", None),
    ]
    for name, grading in seven:
        bundle = named_algebra(name)
        g = grading or bundle.grading
        _require(
            is_super_alternative(bundle.algebra, g).holds,
            f"{name} not super-alternative with its grading",
        )
    named_all = ["R", "C", "H", "O", "S", "A5", "A6", "TO", "TS", "J3", "J4", "J5", "J6"]
    # Decided from each table, not read off the check its writer keeps on it.
    for name in named_all:
        _require(
            _decide_local_complexity(named_algebra(name).algebra).holds,
            f"{name} not locally complex",
        )
    samples_3d = [(Fraction(1, 2), Fraction(3)), (2, 1), (0, Fraction(5, 3))]
    for t, s in samples_3d:
        _require(_decide_local_complexity(build_3d(t, s)).holds, "3d sample not locally complex")
    rng = random.Random(99)
    for _ in range(3):
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        u = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        _require(_decide_local_complexity(build_4d(T, u)).holds, "4d sample not locally complex")
    for t in (0, 1, 2):
        for s in (0, 1, 2):
            _require(
                is_nicely_normed(build_3d(t, s)) == (t == 0),
                f"nicely-normed verdict wrong at (t,s)=({t},{s})",
            )
    for _ in range(4):
        T = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        u = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        expected = all(x == 0 for x in u)
        _require(
            is_nicely_normed(build_4d(T, u)) == expected,
            f"nicely-normed verdict wrong for u={u}",
        )
    _require(
        is_nicely_normed(build_4d([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [1, 0, 0])) is False,
        "nonzero u reported nicely normed",
    )
    for k in (3, 4, 5, 6):
        res = is_commutative_jn(named_algebra(f"J{k}").algebra)
        _require(res.holds and res.witness is not None, f"J{k} not detected commutative")
    res = is_commutative_jn(named_algebra("H").algebra)
    _require(not res.holds and res.witness is not None, "quaternions deemed commutative")
    return (
        "alternativity, super-alternativity, local complexity, nicely-normed and "
        "commutative classifications all behave as required"
    )


def claim_annihilator_scaling() -> str:
    algebra = named_algebra("A5").algebra
    rng = random.Random(31337)
    dims_seen = set()
    for _ in range(200):
        i = rng.randint(1, 31)
        j = rng.randint(1, 31)
        while j == i:
            j = rng.randint(1, 31)
        sign = rng.choice((1, -1))
        x = algebra.basis_element(i) + algebra.basis_element(j).scale(sign)
        d = annihilator(algebra, x).dim
        _require(d % 4 == 0, f"dim Ann(b{i}{'+' if sign > 0 else '-'}b{j}) = {d}")
        dims_seen.add(d)
    return f"200 paired-basis annihilators in dim 32, dims {sorted(dims_seen)}, all multiples of 4"


CLAIMS: tuple[tuple[str, str, Callable[[], str]], ...] = (
    ("AC01", "doubling reproduces the dim-8 and dim-16 reference tables", claim_doubling_tables),
    ("AC02", "middle Moufang identity: holds in dim 8, fails in dim 16", claim_moufang),
    ("AC03", "alternative division recognizers with rotations", claim_recognizers),
    ("AC04", "alter-scalar solution spaces", claim_alter_scalars),
    ("AC05", "zero divisors and annihilator dimensions", claim_zero_divisors_annihilators),
    ("AC06", "super-alternative classification with rotations", claim_super_classification),
    ("AC07", "embedding of the twisted dim-8 table into the sedenions", claim_embedding),
    ("AC08", "subalgebra closures", claim_subalgebras),
    ("AC09", "3-dimensional canonical forms", claim_classification_3d),
    ("AC10", "4-dimensional canonical forms and division criterion", claim_classification_4d),
    ("AC11", "property suite across the named algebras", claim_property_suite),
    ("AC12", "annihilator dimensions in dim 32 are multiples of 4", claim_annihilator_scaling),
)


def run_claim(claim_id: str) -> ClaimOutcome:
    for cid, description, func in CLAIMS:
        if cid == claim_id:
            start = time.perf_counter()
            try:
                detail = func()
                passed = True
            except ClaimFailure as exc:
                detail = str(exc)
                passed = False
            except Exception as exc:
                # Any other error fails this claim and the report goes on;
                # interrupts and exits still propagate.
                detail = f"{type(exc).__name__}: {exc}"
                passed = False
            elapsed = (time.perf_counter() - start) * 1000
            return ClaimOutcome(cid, description, passed, elapsed, detail)
    raise KeyError(f"unknown claim id {claim_id!r}")


def run_verification() -> VerificationReport:
    """Run every claim; outcomes are ordered by claim id regardless of runtime."""
    outcomes = [run_claim(cid) for cid, _, _ in CLAIMS]
    outcomes.sort(key=lambda o: o.claim_id)
    return VerificationReport(tuple(outcomes))
