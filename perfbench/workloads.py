"""The three benchmark workloads: seeded inputs, the ops on them, and the
independent check of every op's output.

Each workload runs in blocks.  A block holds a fixed number of ops of each
kind (``MIX``) in a seeded order, so every seed gives the same mix of op
kinds; only the inputs change with the seed.  A ``MIX`` entry may name
several kinds, which its ops take in turn from block to block.  The shares
are chosen so that the median and the 90th percentile of op latency each
fall inside one op kind rather than on a boundary between kinds, whose
latencies differ by up to 1000x.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle

F0 = Fraction(0)


class Op:
    """One call into the library.  ``inputs`` describes what it is given;
    ``call`` returns the library's result; ``check`` returns an error message
    or None; ``expect`` is the exception type the call must raise instead."""

    __slots__ = ("kind", "inputs", "call", "check", "expect")

    def __init__(self, kind, inputs, call, check, expect=None):
        self.kind, self.inputs, self.call = kind, inputs, call
        self.check, self.expect = check, expect


class Workload:
    MIX: tuple[tuple[str | tuple[str, ...], int], ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Everything a user pays once before the first op."""

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        counts = dict(self.MIX)
        entries = [entry for entry, count in self.MIX for _ in range(count)]
        rng.shuffle(entries)
        ops, seen = [], dict.fromkeys(counts, 0)
        for entry in entries:
            kinds = (entry,) if isinstance(entry, str) else entry
            slot = index * counts[entry] + seen[entry]
            seen[entry] += 1
            ops.append(self.make_op(kinds[slot % len(kinds)], rng, slot // len(kinds)))
        return ops

    def make_op(self, kind: str, rng: random.Random, slot: int) -> Op:
        """The op of this kind; slot numbers the ops of one kind in a run."""
        raise NotImplementedError


# -- rotated-classify -------------------------------------------------------------


class RotatedClassify(Workload):
    """classify_super_alternative on rational rotations of the named tables.

    Set-up rotates each table a few times with ``rotated_copy`` (the cost of
    ``change_of_basis``).  Each op then gets its own ``Algebra``: a pool
    rotation composed with a seeded signed permutation of the imaginary basis,
    which is again a rational rotation, so no two ops see equal tensors.

    The pool rotations are a fixed data set, the same for every seed, and the
    ops of a kind take them in turn.  Coefficient sizes, and with them the
    cost of an op, differ several-fold between rotations; drawing the pool
    from the seed would make a run's figures depend on which few rotations
    it drew.  The seed draws the signed permutations and the op order.
    """

    name = "rotated-classify"
    # kind: (pool, grading, expected tag; None means NotAlternativeError)
    KINDS = {
        "S-natural": ("S", "natural", "S"),
        "TS-natural": ("TS", "natural", "TS"),
        "O-trivial": ("O", "trivial", "O"),
        "S-trivial-reject": ("S-trivial", "trivial", None),
        "TS-trivial-reject": ("TS-trivial", "trivial", None),
        "TO-natural": ("TO-natural", "natural", "TO"),
        "H-trivial": ("H", "trivial", "H"),
        "TO-trivial-reject": ("TO-trivial", "trivial", None),
        "C-trivial": ("C", "trivial", "C"),
    }
    # Slowest first: S or TS (5%) lie above the 90th percentile, which falls
    # in the middle of O (5%..15%); the median falls inside H (40%..80%).
    # The dimension-16 rejections are fully rotated so that they fail early,
    # as a rotated table typically does, and stay below O.
    MIX = (
        (("S-natural", "TS-natural"), 1),
        ("O-trivial", 2),
        ("S-trivial-reject", 1),
        ("TS-trivial-reject", 1),
        ("TO-natural", 3),
        ("H-trivial", 8),
        ("TO-trivial-reject", 1),
        ("C-trivial", 3),
    )
    # pool name: (table, rotate within the natural grading's blocks, copies)
    POOL = {
        "C": ("C", False, 2),
        "H": ("H", False, 4),
        "O": ("O", False, 4),
        "TO-trivial": ("TO", False, 2),
        "TO-natural": ("TO", True, 3),
        "S": ("S", True, 2),
        "TS": ("TS", True, 2),
        "S-trivial": ("S", False, 1),
        "TS-trivial": ("TS", False, 1),
    }

    def setup(self) -> None:
        import cdalg

        self.cdalg = cdalg
        self.targets = {tag: cdalg.named_algebra(tag).algebra for tag in ("C", "H", "O", "TO", "S", "TS")}
        self.pool = {}
        for pool_name, (table, blocked, copies) in self.POOL.items():
            named = cdalg.named_algebra(table)
            grading = named.grading if blocked else None
            self.pool[pool_name] = [
                cdalg.rotated_copy(
                    named.algebra, random.Random(f"pool:{pool_name}:{i}"), grading
                )[0].constants
                for i in range(copies)
            ]

    def make_op(self, kind: str, rng: random.Random, slot: int) -> Op:
        cdalg = self.cdalg
        pool_name, grading_kind, expected = self.KINDS[kind]
        pool = self.pool[pool_name]
        constants = pool[slot % len(pool)]
        n = len(constants)
        if grading_kind == "natural":
            half = n // 2
            blocks = [list(range(1, half)), list(range(half, n))]
        else:
            blocks = [list(range(1, n))]
        tensor = signed_permutation(constants, blocks, rng)
        inputs = f"{pool_name} tensor hash {hash(tensor)}"
        algebra = cdalg.Algebra(tensor, unit=0)
        if grading_kind == "natural":
            grading = cdalg.Grading.from_indices(n, list(range(n // 2)), list(range(n // 2, n)))
        else:
            grading = cdalg.Grading.trivial(n)

        def call():
            return cdalg.classify_super_alternative(algebra, grading)

        if expected is None:
            return Op(kind, inputs, call, None, cdalg.NotAlternativeError)

        def check(result):
            if result.tag != expected:
                return f"tag {result.tag}, expected {expected}"
            hom = cdalg.check_homomorphism(result.iso, algebra, self.targets[expected])
            if not hom.holds:
                return f"iso fails check_homomorphism: {hom.violation}"
            return None

        return Op(kind, inputs, call, check)


def signed_permutation(constants, blocks, rng: random.Random):
    """c'_ijk = s_i s_j s_k c_p(i)p(j)p(k) for b'_i = s_i b_p(i); p permutes
    within each block and fixes the unit b_0."""
    n = len(constants)
    perm = list(range(n))
    sign = [1] * n
    for block in blocks:
        images = block[:]
        rng.shuffle(images)
        for i, j in zip(block, images):
            perm[i] = j
            sign[i] = rng.choice((1, -1))
    return tuple(
        tuple(
            tuple(
                constants[perm[i]][perm[j]][perm[k]] * (sign[i] * sign[j] * sign[k])
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


# -- named-cli --------------------------------------------------------------------


class NamedCli(Workload):
    """In-process ``cdalg.cli.main`` on algebra files of the shipped tables.

    The files are written once in set-up; every call parses its file again,
    as a separate CLI invocation would.
    """

    name = "named-cli"
    TABLES = ("H", "O", "TO", "S", "TS", "A5", "J6")
    # Slowest first: check A5 or O and subalg TO (2.5% each) lie above the
    # 90th percentile, which falls in the middle of check S and TS
    # (5%..15%, equal latencies); the median falls inside ann on S and TS
    # (27.5%..95%).
    MIX = (
        (("check-A5", "check-O"), 1),
        ("subalg-TO", 1),
        ("check-S", 2),
        ("check-TS", 2),
        ("alterscalar-S", 1),
        ("alterscalar-TS", 1),
        ("subalg-O", 1),
        ("check-TO", 1),
        ("check-H", 1),
        ("check-J6", 1),
        ("ann-A5", 1),
        ("ann-S", 14),
        ("ann-TS", 13),
    )
    # Flags of `cdalg check` on each shipped table.  O has no zero divisors,
    # but the bounded search can only answer "unknown" there.
    FLAGS = {
        "H": ("yes", "yes", "yes", "yes", "yes", "no", "no"),
        "O": ("yes", "yes", "yes", "yes", "yes", "no", "unknown"),
        "TO": ("yes", "yes", "no", "yes", "yes", "no", "yes"),
        "S": ("yes", "yes", "no", "yes", "yes", "no", "yes"),
        "TS": ("yes", "yes", "no", "yes", "yes", "no", "yes"),
        "A5": ("yes", "yes", "no", "no", "yes", "no", "yes"),
        "J6": ("yes", "yes", "no", "unknown", "yes", "yes", "yes"),
    }
    FLAG_NAMES = ("quadratic", "locally_complex", "alternative", "super_alternative",
                  "nicely_normed", "commutative", "has_zero_divisors")
    ALTER_SCALAR_DIM = {"S": 2, "TS": 1}
    # The census always reaches these from its structured generators; the
    # seeded random ones add more (4 in O; 3, 4 or 8 in TO), each of which is
    # checked by closing its generators independently.
    SUBALGEBRA_DIMS = {1, 2}

    def setup(self) -> None:
        import cdalg
        import cdalg.cli

        self.main = cdalg.cli.main
        self.paths = {}
        self.labels = {}
        for table in self.TABLES:
            named = cdalg.named_algebra(table)
            path = os.path.join(self.workdir, f"{table}.json")
            cdalg.save_algebra(path, named.algebra, named.grading)
            self.paths[table] = path
            self.labels[table] = named.algebra.labels
        self._tables = {}
        self._paired = {}

    def paired_elements(self, table: str) -> list[str]:
        """Every b_i +- b_j with b_i in the first and b_j in the second half
        of the imaginary basis, in a seeded order.  The ops take them in
        turn, so the mix of annihilator sizes is the same for every seed."""
        if table not in self._paired:
            labels = self.labels[table]
            half = len(labels) // 2
            elements = [f"{labels[i]} {sign} {labels[j]}" for i in range(1, half)
                        for j in range(half + 1, len(labels)) for sign in "+-"]
            random.Random(f"{self.seed}:{table}").shuffle(elements)
            self._paired[table] = elements
        return self._paired[table]

    def table(self, name: str):
        """(constants, unit, labels) read from the file, without cdalg."""
        if name not in self._tables:
            with open(self.paths[name], encoding="utf-8") as fh:
                data = json.load(fh)
            constants, unit = oracle.tensor_from_json(data)
            self._tables[name] = (constants, unit, data["labels"])
        return self._tables[name]

    def make_op(self, kind: str, rng: random.Random, slot: int) -> Op:
        command, table = kind.split("-", 1)
        path = self.paths[table]
        if command == "check":
            argv = ["check", path, "--seed", str(rng.randrange(1 << 16))]
            check = lambda out: self._check_flags(table, out)
        elif command == "ann":
            elements = self.paired_elements(table)
            element = elements[slot % len(elements)]
            argv = ["ann", path, "--element", element]
            check = lambda out: self._check_ann(table, element, out)
        elif command == "alterscalar":
            argv = ["alterscalar", path]
            check = lambda out: self._check_alter_scalars(table, out)
        else:
            argv = ["subalg", path, "--seed", str(rng.randrange(1 << 16))]
            check = lambda out: self._check_subalgebras(table, out)
        main = self.main
        inputs = " ".join(table if a == path else a for a in argv)

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return code, buf.getvalue()

        def check_output(result):
            code, text = result
            if code != 0:
                return f"exit code {code}"
            return check(json.loads(text))

        return Op(kind, inputs, call, check_output)

    def _check_flags(self, table, out):
        expected = dict(zip(self.FLAG_NAMES, self.FLAGS[table]))
        if out["flags"] != expected:
            return f"flags {out['flags']}, expected {expected}"
        constants, _, labels = self.table(table)
        witnesses = out["witnesses"]
        for key, first in (("alternative", "x"), ("super_alternative", "u")):
            if out["flags"][key] == "no":
                w = witnesses[key]
                second = "y" if first == "x" else "x"
                a = oracle.parse_text(w[first], labels)
                b = oracle.parse_text(w[second], labels)
                if oracle.is_zero(oracle.alternative_defect(constants, a, b, w["law"])):
                    return f"{key} witness {w} has no defect"
        if out["flags"]["has_zero_divisors"] == "yes":
            w = witnesses["has_zero_divisors"]
            x, y = oracle.parse_text(w["x"], labels), oracle.parse_text(w["y"], labels)
            if oracle.is_zero(x) or oracle.is_zero(y) or not oracle.is_zero(oracle.multiply(constants, x, y)):
                return f"zero-divisor witness {w} does not multiply to zero"
        return None

    def _check_ann(self, table, element, out):
        constants, _, labels = self.table(table)
        x = oracle.parse_text(element, labels)
        rows = [oracle.parse_text(r, labels) for r in out["basis"]]
        nullity = len(constants) - oracle.left_mul_rank(constants, x)
        if out["dim"] != nullity or len(rows) != nullity or oracle.rank(rows) != nullity:
            return f"annihilator of {element}: dim {out['dim']}, expected {nullity}"
        for r in rows:
            if not oracle.is_zero(oracle.multiply(constants, x, r)):
                return f"annihilator row {r} of {element} does not give x*y = 0"
        return None

    def _check_alter_scalars(self, table, out):
        constants, _, labels = self.table(table)
        expected = self.ALTER_SCALAR_DIM[table]
        if out["solution_dim"] != expected or out["has_alter_scalars"] != (expected >= 2):
            return f"alter-scalar space dim {out['solution_dim']}, expected {expected}"
        rows = [oracle.parse_text(r, labels) for r in out["basis"]]
        if oracle.rank(rows) != expected:
            return "alter-scalar basis is not independent"
        n = len(constants)
        unit = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]
        family = unit + [tuple(p + q for p, q in zip(unit[i], unit[j]))
                         for i in range(n) for j in range(i + 1, n)]
        for a in rows:
            for x in family:
                if not oracle.is_zero(oracle.alternative_defect(constants, x, a, "left")):
                    return f"x^2 a != x(xa) for a = {a}"
        return None

    def _check_subalgebras(self, table, out):
        constants, unit, labels = self.table(table)
        realized = out["realized"]
        dims = {int(d) for d in realized}
        if not self.SUBALGEBRA_DIMS <= dims:
            return f"subalgebra dims {sorted(dims)} lack {sorted(self.SUBALGEBRA_DIMS)}"
        for d, gens in realized.items():
            got = oracle.closure_dim(constants, unit, [oracle.parse_text(g, labels) for g in gens])
            if got != int(d):
                return f"generators {gens} close to dimension {got}, not {d}"
        return None


# -- lowdim -------------------------------------------------------------------------


class LowDim(Workload):
    """Dimensions 3 and 4: exact constructions and extractions, the division
    criterion on rational and float parameters, orbit equivalence in floats."""

    name = "lowdim"
    # Slowest first: float division (5%) and indefinite rational division
    # (5%..15%) hold the 90th percentile; the median falls inside the
    # build_4d -> extract_params_4d round trips.
    MIX = (
        ("division-float", 1),
        ("division-indefinite", 2),
        ("division-singular", 1),
        ("division-definite", 1),
        ("roundtrip-4d", 7),
        ("nicely-normed-4d", 2),
        ("equiv-4d", 2),
        ("separated-4d", 1),
        ("canonical-3d", 2),
        ("geometric-type", 1),
    )

    def setup(self) -> None:
        import cdalg

        self.cdalg = cdalg

    def make_op(self, kind: str, rng: random.Random, slot: int) -> Op:
        cdalg = self.cdalg
        if kind.startswith("division"):
            if kind == "division-float":
                T, u = float_indefinite(rng)
                exact_T = [[Fraction(x) for x in row] for row in T]
                exact_u = [Fraction(x) for x in u]
            else:
                T = parameter_matrix(rng, kind.split("-")[1])
                u = small_vector(rng)
                exact_T, exact_u = T, u
            definite = oracle.signature(oracle.symmetric_part(exact_T)) in ((3, 0), (0, 3))
            return Op(kind, f"T={T} u={u}", lambda: cdalg.is_division_4d(T, u),
                      lambda r: check_division(r, definite, exact_T, exact_u))
        if kind == "roundtrip-4d":
            T, u = parameter_matrix(rng, rng.choice(("definite", "indefinite"))), small_vector(rng)

            def check(p):
                if p.t_matrix != tuple(map(tuple, T)) or p.u != tuple(u):
                    return f"round trip gave {p}, expected T={T}, u={u}"
                return None

            return Op(kind, f"T={T} u={u}", lambda: cdalg.extract_params_4d(cdalg.build_4d(T, u)), check)
        if kind == "nicely-normed-4d":
            T = parameter_matrix(rng, "definite")
            u = small_vector(rng) if rng.random() < 0.5 else [F0, F0, F0]
            expected = not any(u)
            return Op(kind, f"T={T} u={u}", lambda: cdalg.is_nicely_normed(cdalg.build_4d(T, u)),
                      lambda r: None if r == expected else f"nicely normed {r}, expected {expected}")
        if kind in ("equiv-4d", "separated-4d"):
            p1, p2, expected = orbit_pair(rng, kind == "equiv-4d")
            return Op(kind, f"{p1} {p2}", lambda: cdalg.equiv_4d(p1, p2),
                      lambda r: check_equiv(r, p1, p2, expected))
        if kind == "canonical-3d":
            t = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            s = Fraction(rng.randint(0, 8), rng.randint(1, 4))

            def check(form):
                if form.t != t or form.s != s:
                    return f"canonical form ({form.t}, {form.s}), expected ({t}, {s})"
                return None

            return Op(kind, f"t={t} s={s}", lambda: cdalg.canonical_params_3d(cdalg.build_3d(t, s)), check)
        T = parameter_matrix(rng, rng.choice(("definite", "indefinite", "singular")))
        expected = oracle.geometric_kind(T)
        return Op(kind, f"T={T}", lambda: cdalg.geometric_type(T),
                  lambda r: None if (r.rank, r.kind) == expected else f"type {r}, expected {expected}")


def small_fraction(rng, bound=3, den=3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def small_vector(rng) -> list[Fraction]:
    return [small_fraction(rng, 2, 2) for _ in range(3)]


def parameter_matrix(rng, kind: str) -> list[list[Fraction]]:
    """T = P + R with P symmetric of the requested kind and R a random skew part."""
    while True:
        if kind == "singular":
            Q = oracle.cayley_rotation(*(small_fraction(rng) for _ in range(3)))
            d = (small_fraction(rng) or Fraction(1), small_fraction(rng) or Fraction(-1), F0)
            P = [[sum(Q[i][k] * d[k] * Q[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
        else:
            P = [[F0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    P[i][j] = P[j][i] = small_fraction(rng)
        pos, neg = oracle.signature(P)
        if (kind == "definite" and (pos, neg) in ((3, 0), (0, 3))) or (
            kind == "indefinite" and pos and neg and pos + neg == 3
        ) or (kind == "singular" and pos + neg < 3):
            break
    c = [small_fraction(rng, 2, 2) for _ in range(3)]
    R = [[F0, c[2], -c[1]], [-c[2], F0, c[0]], [c[1], -c[0], F0]]
    return [[P[i][j] + R[i][j] for j in range(3)] for i in range(3)]


def float_indefinite(rng) -> tuple[list[list[float]], list[float]]:
    """Float parameters in steps of 0.1, whose binary values have large
    denominators, with an indefinite nonsingular symmetric part."""
    while True:
        T = [[rng.randint(-30, 30) / 10 for _ in range(3)] for _ in range(3)]
        pos, neg = oracle.signature(oracle.symmetric_part([[Fraction(x) for x in r] for r in T]))
        if pos and neg and pos + neg == 3:
            return T, [rng.randint(-20, 20) / 10 for _ in range(3)]


def check_division(result, definite, T, u):
    if result.is_division != definite:
        return f"division {result.is_division}, expected {definite}"
    if definite:
        return None
    if result.pair is None:
        return "no zero-divisor pair for a non-division algebra"
    x, y = result.pair
    if result.exact:
        if oracle.is_zero(x) or oracle.is_zero(y) or not oracle.is_zero(oracle.multiply_4d(T, u, x, y)):
            return f"exact pair {result.pair} does not multiply to zero"
        return None
    Tf = [[float(v) for v in row] for row in T]
    scale = 1.0 + max(abs(v) for row in Tf for v in row)
    prod = oracle.multiply_4d(Tf, [float(v) for v in u], [float(v) for v in x], [float(v) for v in y])
    if max(abs(v) for v in prod) > 1e-8 * scale or max(abs(v) for v in x) < 1e-6:
        return f"float pair {result.pair} does not multiply to zero"
    return None


def orbit_pair(rng, equivalent: bool):
    """Two float parameter pairs related by (T, u) -> (det Q) (Q T Q^T, Q u),
    or separated by a shift of the symmetric part that changes |trace T|."""
    T = parameter_matrix(rng, rng.choice(("definite", "indefinite")))
    u = small_vector(rng)
    Q = oracle.cayley_rotation(*(small_fraction(rng) for _ in range(3)))
    QTQ = [[sum(Q[i][a] * T[a][b] * Q[j][b] for a in range(3) for b in range(3)) for j in range(3)]
           for i in range(3)]
    Qu = [sum(Q[i][a] * u[a] for a in range(3)) for i in range(3)]
    if equivalent:
        if rng.random() < 0.5:
            # Q' = -Q has determinant -1: T' = -(Q T Q^T), u' = Q u.
            QTQ = [[-v for v in row] for row in QTQ]
        T2, u2 = QTQ, Qu
    else:
        trace = T[0][0] + T[1][1] + T[2][2]
        shift = Fraction(1, 2) if trace >= 0 else Fraction(-1, 2)
        T2 = [[QTQ[i][j] + (shift if i == j else 0) for j in range(3)] for i in range(3)]
        u2 = Qu

    def floats(M, v):
        return [[float(x) for x in row] for row in M], [float(x) for x in v]

    return floats(T, u), floats(T2, u2), equivalent


def check_equiv(result, p1, p2, expected):
    if result.equivalent != expected or result.borderline:
        return f"equivalent {result.equivalent} (borderline {result.borderline}), expected {expected}"
    if not expected or result.witness is None:
        return None
    import numpy as np

    Q = np.asarray(result.witness, dtype=float)
    T1, u1 = (np.asarray(a, dtype=float) for a in p1)
    T2, u2 = (np.asarray(a, dtype=float) for a in p2)
    det = np.linalg.det(Q)
    if (np.abs(Q @ Q.T - np.eye(3)).max() > 1e-6
            or np.abs(det * Q @ T1 @ Q.T - T2).max() > 1e-6
            or np.abs(det * Q @ u1 - u2).max() > 1e-6):
        return "equivalence witness does not map the first pair to the second"
    return None


WORKLOADS = {cls.name: cls for cls in (RotatedClassify, NamedCli, LowDim)}
