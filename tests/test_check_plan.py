"""The compiled equation plans of `check_axioms` against the closure checker.

The oracle is the checker `check_axioms` used before its equation
families were compiled into plans: one closure pair per equation
instance, evaluated at once, every operation word recomputed.  It is
kept here with one deliberate change, the exact caps (a cap of 0 checks
no pairs, triples or quadruples; the old loops tested the cap only after
appending).  Both checkers must return the same counts, in the same
family order, and the same violation strings in the same order, or
raise the same exception, on sampled and on faulty models.

On the nerves, `core._run` runs a plan's compiled program, built when
the plan is first lowered, and runs the equations one by one only when
the program declines.  The same nerves with their programs switched off
(`Uncompiled`) are the oracle of that path: the reports must be equal on
the first run of each plan and on later runs, on lawful nerves and on
nerves with a corrupted compiled table, which make the program decline.
The structural guards at the end need no timing.
"""

import collections
import functools
import random
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import cube, disk, tensor, with_group_cones_above
from cubeforge.core import (
    ALPHAS,
    CompositionError,
    NotInvertible,
    Report,
    Violation,
    check_axioms,
    check_globular,
    globular_cells,
)
from cubeforge.indices import lower, raise_
from cubeforge.nerve import NcModel, NgModel, _NerveBase, _shape

from cubical_models import BoxModel, CellModel, PosetModel, grid2, opposite
from test_lowering import Swapped, program, walk
from test_lowering import model as lowering_model

# -- the closure-based oracle ---------------------------------------------------


def _eq(model, report, family, dim, lhs, rhs, detail):
    report.checked[family] = report.checked.get(family, 0) + 1
    try:
        left = lhs()
        right = rhs()
    except CompositionError as exc:
        text = detail() if callable(detail) else detail
        report.violations.append(
            Violation(family, dim, f"{text}: composition failed ({exc})")
        )
        return
    if not model.equal(left, right):
        text = detail() if callable(detail) else detail
        report.violations.append(Violation(family, dim, text))


def oracle_pairs(model, cells, i, max_pairs):
    by_minus = {}
    for B in cells:
        by_minus.setdefault(model.face(B, i, "-").key(), []).append(B)
    pairs = []
    for A in cells:
        for B in by_minus.get(model.face(A, i, "+").key(), ()):
            if len(pairs) >= max_pairs:
                return pairs
            pairs.append((A, B))
    return pairs


def oracle_check_axioms(model, dim, cells_by_dim, max_pairs):
    report = Report()
    for n in range(dim + 1):
        sample = list(cells_by_dim.get(n, ()))
        for A in sample:
            oracle_unary(model, report, A, n)
        for i in range(1, n + 1):
            pairs = oracle_pairs(model, sample, i, max_pairs)
            for A, B in pairs:
                oracle_pair(model, report, A, B, i, n)
            oracle_assoc(model, report, sample, pairs, i, n, max_pairs)
            for j in range(1, n + 1):
                if i != j:
                    oracle_interchange(model, report, pairs, i, j, n, max_pairs)
    return report


def oracle_unary(model, report, A, n):
    can_raise = n + 1 <= model.max_dim
    can_raise2 = n + 2 <= model.max_dim
    face_a = {
        (i, a): model.face(A, i, a) for i in range(1, n + 1) for a in ALPHAS
    }
    if can_raise:
        deg_a = {j: model.deg(A, j) for j in range(1, n + 2)}
        conn_a = {
            (j, b): model.conn(A, j, b) for j in range(1, n + 1) for b in ALPHAS
        }
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in ALPHAS:
                for b in ALPHAS:
                    _eq(model, report, "face-face", n,
                        lambda: model.face(face_a[(i, b)], lower(j, i), a),
                        lambda: model.face(face_a[(j, a)], lower(i, j), b),
                        lambda: f"d_{lower(j,i)}^{a} d_{i}^{b} != d_{lower(i,j)}^{b} d_{j}^{a} on {A.payload!r}")
    if can_raise:
        for j in range(1, n + 2):
            for i in range(1, n + 2):
                for a in ALPHAS:
                    if i == j:
                        _eq(model, report, "face-deg", n,
                            lambda: model.face(deg_a[j], i, a),
                            lambda: A,
                            lambda: f"d_{i}^{a} eps_{i} != id on {A.payload!r}")
                    elif n >= 1:
                        _eq(model, report, "face-deg", n,
                            lambda: model.face(deg_a[j], i, a),
                            lambda: model.deg(face_a[(lower(i, j), a)], lower(j, i)),
                            lambda: f"d_{i}^{a} eps_{j} on {A.payload!r}")
    if can_raise:
        for j in range(1, n + 1):
            for i in range(1, n + 2):
                for a in ALPHAS:
                    for b in ALPHAS:
                        if i in (j, j + 1):
                            if a == b:
                                _eq(model, report, "face-conn", n,
                                    lambda: model.face(conn_a[(j, b)], i, a),
                                    lambda: A,
                                    lambda: f"d_{i}^{a} Gamma_{j}^{b} != id on {A.payload!r}")
                            else:
                                _eq(model, report, "face-conn", n,
                                    lambda: model.face(conn_a[(j, b)], i, a),
                                    lambda: model.deg(face_a[(j, a)], j),
                                    lambda: f"d_{i}^{a} Gamma_{j}^{b} != eps_j d_j^{a} on {A.payload!r}")
                        else:
                            _eq(model, report, "face-conn", n,
                                lambda: model.face(conn_a[(j, b)], i, a),
                                lambda: model.conn(face_a[(lower(i, j), a)], lower(j, i), b),
                                lambda: f"d_{i}^{a} Gamma_{j}^{b} on {A.payload!r}")
    if can_raise2:
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                _eq(model, report, "deg-deg", n,
                    lambda: model.deg(deg_a[i], raise_(j, i)),
                    lambda: model.deg(deg_a[j], raise_(i, j)),
                    lambda: f"eps_{raise_(j,i)} eps_{i} != eps_{raise_(i,j)} eps_{j} on {A.payload!r}")
    if can_raise2:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for a in ALPHAS:
                    for b in ALPHAS:
                        if i != j:
                            _eq(model, report, "conn-conn", n,
                                lambda: model.conn(conn_a[(j, b)], raise_(i, j), a),
                                lambda: model.conn(conn_a[(i, a)], raise_(j, i), b),
                                lambda: f"Gamma_{raise_(i,j)}^{a} Gamma_{j}^{b} on {A.payload!r}")
                        elif a == b:
                            _eq(model, report, "conn-conn", n,
                                lambda: model.conn(conn_a[(i, a)], i + 1, a),
                                lambda: model.conn(conn_a[(i, a)], i, a),
                                lambda: f"Gamma_{i+1}^{a} Gamma_{i}^{a} != Gamma_i Gamma_i on {A.payload!r}")
    if can_raise2:
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for a in ALPHAS:
                    if i == j:
                        _eq(model, report, "conn-deg", n,
                            lambda: model.conn(deg_a[i], i, a),
                            lambda: model.deg(deg_a[i], i),
                            lambda: f"Gamma_{i}^{a} eps_{i} != eps_i eps_i on {A.payload!r}")
                    else:
                        if lower(i, j) > n:
                            continue
                        _eq(model, report, "conn-deg", n,
                            lambda: model.conn(deg_a[j], i, a),
                            lambda: model.deg(conn_a[(lower(i, j), a)], raise_(j, i)),
                            lambda: f"Gamma_{i}^{a} eps_{j} on {A.payload!r}")
    for i in range(1, n + 1):
        _eq(model, report, "unit", n,
            lambda: model.comp(A, model.deg(face_a[(i, "+")], i), i),
            lambda: A, f"right unit in direction {i} on {A.payload!r}")
        _eq(model, report, "unit", n,
            lambda: model.comp(model.deg(face_a[(i, "-")], i), A, i),
            lambda: A, f"left unit in direction {i} on {A.payload!r}")
    if can_raise:
        for i in range(1, n + 1):
            _eq(model, report, "transport", n,
                lambda: model.comp(conn_a[(i, "+")], conn_a[(i, "-")], i),
                lambda: deg_a[i + 1],
                lambda: f"Gamma_i^+ *_i Gamma_i^- != eps_(i+1) on {A.payload!r}")
            _eq(model, report, "transport", n,
                lambda: model.comp(conn_a[(i, "+")], conn_a[(i, "-")], i + 1),
                lambda: deg_a[i],
                lambda: f"Gamma_i^+ *_(i+1) Gamma_i^- != eps_i on {A.payload!r}")


def oracle_pair(model, report, A, B, i, n):
    AB = model.comp(A, B, i)
    for k in range(1, n + 1):
        for a in ALPHAS:
            if k == i:
                _eq(model, report, "face-comp", n,
                    lambda: model.face(AB, i, a),
                    lambda: model.face(A, i, "-") if a == "-" else model.face(B, i, "+"),
                    f"d_{i}^{a} of *_{i}-composite")
            else:
                _eq(model, report, "face-comp", n,
                    lambda: model.face(AB, k, a),
                    lambda: model.comp(model.face(A, k, a), model.face(B, k, a), lower(i, k)),
                    f"d_{k}^{a} of *_{i}-composite")
    if n + 1 > model.max_dim:
        return
    for k in range(1, n + 2):
        _eq(model, report, "deg-comp", n,
            lambda: model.deg(AB, k),
            lambda: model.comp(model.deg(A, k), model.deg(B, k), raise_(i, k)),
            f"eps_{k} of *_{i}-composite")
    for k in range(1, n + 1):
        if k == i:
            continue
        for a in ALPHAS:
            _eq(model, report, "conn-comp", n,
                lambda: model.conn(AB, k, a),
                lambda: model.comp(model.conn(A, k, a), model.conn(B, k, a), raise_(i, k)),
                f"Gamma_{k}^{a} of *_{i}-composite")
    _eq(model, report, "conn-comp", n,
        lambda: model.conn(AB, i, "-"),
        lambda: grid2(model,
                      [[model.conn(A, i, "-"), model.deg(B, i + 1)],
                       [model.deg(B, i), model.conn(B, i, "-")]],
                      i, i + 1),
        f"Gamma_{i}^- of *_{i}-composite")
    _eq(model, report, "conn-comp", n,
        lambda: model.conn(AB, i, "+"),
        lambda: grid2(model,
                      [[model.conn(A, i, "+"), model.deg(A, i)],
                       [model.deg(A, i + 1), model.conn(B, i, "+")]],
                      i, i + 1),
        f"Gamma_{i}^+ of *_{i}-composite")


def oracle_assoc(model, report, sample, pairs, i, n, max_triples):
    by_minus = {}
    for C in sample:
        by_minus.setdefault(model.face(C, i, "-").key(), []).append(C)
    count = 0
    for A, B in pairs:
        for C in by_minus.get(model.face(B, i, "+").key(), ()):
            if count >= max_triples:
                return
            _eq(model, report, "assoc", n,
                lambda: model.comp(model.comp(A, B, i), C, i),
                lambda: model.comp(A, model.comp(B, C, i), i),
                f"associativity along {i}")
            count += 1


def oracle_interchange(model, report, pairs, i, j, n, max_quads):
    by_top = {}
    for C, D in pairs:
        key = (model.face(C, j, "-").key(), model.face(D, j, "-").key())
        by_top.setdefault(key, []).append((C, D))
    count = 0
    for A, B in pairs:
        key = (model.face(A, j, "+").key(), model.face(B, j, "+").key())
        for C, D in by_top.get(key, ()):
            if count >= max_quads:
                return
            _eq(model, report, "interchange", n,
                lambda: model.comp(model.comp(A, B, i), model.comp(C, D, i), j),
                lambda: model.comp(model.comp(A, C, j), model.comp(B, D, j), i),
                f"interchange *_{i} / *_{j}")
            count += 1


def oracle_check_globular(model, cells_by_dim, max_pairs):
    """The globular laws one closure pair at a time, with source, target,
    identity and the composite over a k-boundary spelled here from the
    model's face, deg and comp."""
    report = Report()
    view = types.SimpleNamespace(
        src=lambda X: model.face(X, 1, "-"), tgt=lambda X: model.face(X, 1, "+"),
        identity=lambda X: model.deg(X, 1), comp=lambda A, B, k: model.comp(A, B, A.dim - k))
    for n, sample in sorted(cells_by_dim.items()):
        for A in sample:
            if n >= 2:
                _eq(model, report, "globularity", n,
                    lambda: view.src(view.src(A)), lambda: view.src(view.tgt(A)),
                    "s s != s t")
                _eq(model, report, "globularity", n,
                    lambda: view.tgt(view.src(A)), lambda: view.tgt(view.tgt(A)),
                    "t s != t t")
            if n >= 1:
                _eq(model, report, "glob-unit", n,
                    lambda: view.comp(view.identity(view.src(A)), A, n - 1),
                    lambda: A, "1_s(A) . A != A")
                _eq(model, report, "glob-unit", n,
                    lambda: view.comp(A, view.identity(view.tgt(A)), n - 1),
                    lambda: A, "A . 1_t(A) != A")
            _eq(model, report, "glob-id-st", n,
                lambda: view.src(view.identity(A)), lambda: A, "s(1_A) != A")
            _eq(model, report, "glob-id-st", n,
                lambda: view.tgt(view.identity(A)), lambda: A, "t(1_A) != A")
        for k in range(n):
            pairs = oracle_pairs(model, list(sample), n - k, max_pairs)
            for A, B in pairs:
                if k == n - 1:
                    _eq(model, report, "glob-src-comp", n,
                        lambda: view.src(view.comp(A, B, k)),
                        lambda: view.src(A), "s(A . B) != s(A)")
                    _eq(model, report, "glob-src-comp", n,
                        lambda: view.tgt(view.comp(A, B, k)),
                        lambda: view.tgt(B), "t(A . B) != t(B)")
                else:
                    _eq(model, report, "glob-src-comp", n,
                        lambda: view.src(view.comp(A, B, k)),
                        lambda: view.comp(view.src(A), view.src(B), k),
                        "s(A . B) != s(A) . s(B)")
            for j in range(k):
                oracle_exchange_glob(model, view, report, pairs, n, k, j, max_pairs)
    return report


def oracle_exchange_glob(model, view, report, pairs, n, k, j, max_quads):
    j_cub = n - j
    by_top = {}
    for C, D in pairs:
        key = (model.face(C, j_cub, "-").key(), model.face(D, j_cub, "-").key())
        by_top.setdefault(key, []).append((C, D))
    count = 0
    for A, B in pairs:
        key = (model.face(A, j_cub, "+").key(), model.face(B, j_cub, "+").key())
        for C, D in by_top.get(key, ()):
            if count >= max_quads:
                return
            _eq(model, report, "glob-exchange", n,
                lambda: view.comp(view.comp(A, B, k), view.comp(C, D, k), j),
                lambda: view.comp(view.comp(A, C, j), view.comp(B, D, j), k),
                f"exchange .{k} / .{j}")
            count += 1


# -- models and their sample pools ---------------------------------------------


class Corrupted(PosetModel):
    """eps_1 swapped to eps_2 on cells of dimension >= 1 (as in test_core)."""

    def deg(self, A, i):
        if A.dim >= 1 and i == 1:
            return super().deg(A, 2)
        return super().deg(A, i)


class RefusingComp(PosetModel):
    """Refuses some composable pairs of 3-cells, by a fixed rule on their labels."""

    def comp(self, A, B, i):
        if A.dim >= 3 and sum(map(ord, A.payload + B.payload)) % 3 == 0:
            raise CompositionError(f"refused {A.payload!r} *_{i} {B.payload!r}")
        return super().comp(A, B, i)


class WrongConn(PosetModel):
    """Gamma_2^+ computed as Gamma_1^+."""

    def conn(self, A, i, alpha):
        if i == 2 and alpha == "+":
            return super().conn(A, 1, alpha)
        return super().conn(A, i, alpha)


class FlippedFace(NgModel):
    """d_2^- and d_2^+ exchanged in the compiled tables, so that the
    cell-level faces and the lowered plans (compositions included) see the
    same fault."""

    def _table(self, kind, n, i, alpha=""):
        return super()._table(kind, n, i, opposite(alpha) if kind == "face" and i == 2
                              else alpha)


CHAIN = ("abc", [("a", "b"), ("b", "c")])
SQUARE = ("blrt", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])

MODELS = {
    "disk(3)": lambda: NcModel(disk(3)),
    "cube(2)": lambda: NcModel(cube(2)),
    "omega0": lambda: NcModel(with_group_cones_above(disk(2), 0)),
    "chain3": lambda: PosetModel(*CHAIN),
    "square": lambda: PosetModel(*SQUARE),
    "box": lambda: BoxModel(PosetModel(*CHAIN), 1),
}
class WrongSlab(Swapped):
    """A nerve whose compiled comp table at `key` has its slab positions
    rotated, so that each slab sum adds the chains of the wrong positions."""

    def _table(self, kind, n, i, alpha=""):
        key = (kind, n, i, alpha)
        if key == self.key and key not in self._tables:
            tab = NcModel._table(self, kind, n, i, alpha)
            self._tables[key] = tab._replace(extra=tab.extra[1:] + tab.extra[:1])
        return NcModel._table(self, kind, n, i, alpha)


FAULTY = {
    "corrupted": lambda: Corrupted(*CHAIN),
    "refusing": lambda: RefusingComp(*SQUARE),
    "wrong-conn": lambda: WrongConn(*SQUARE),
    # compiled tables corrupted, so that the nerve's programs decline: the
    # Gamma_1^+ table on 2-cells, and the *_1 table on 2-cells
    "swapped-conn": lambda: Swapped(disk(2), ("conn", 2, 1, "+")),
    "wrong-slab": lambda: WrongSlab(disk(2), ("comp", 2, 1, "")),
}
# globular nerves, lawful and with d_2^- and d_2^+ exchanged, for the globular checker
GLOBULAR = {
    "ng disk(3)": lambda: NgModel(disk(3)),
    "ng (w,1) disk(3)": lambda: NgModel(with_group_cones_above(disk(3), 1)),
    "ng tensor": lambda: NgModel(tensor(disk(1), disk(2))),
    "ng flipped-d2": lambda: FlippedFace(with_group_cones_above(disk(2), 0)),
}
TOP = {"disk(3)": 3, "cube(2)": 3, "omega0": 3, "chain3": 3, "square": 3, "box": 2,
       "corrupted": 2, "refusing": 3, "wrong-conn": 3, "swapped-conn": 3, "wrong-slab": 3,
       "ng disk(3)": 3, "ng (w,1) disk(3)": 3, "ng tensor": 2, "ng flipped-d2": 3}


@functools.lru_cache(maxsize=None)
def model(name):
    return {**MODELS, **FAULTY, **GLOBULAR}[name]()


@functools.lru_cache(maxsize=None)
def pool(name, n):
    m = model(name)
    if isinstance(m, (NcModel, NgModel)):
        if name == "omega0" and n == 3:
            # the bound-1 enumeration of omega0 3-cells exceeds the search budget
            return list(dict.fromkeys(m.sample_cells(3, 40, 1, random.Random(3))))
        return m.cells(n, 1)
    if isinstance(m, BoxModel) and n <= m.n:
        return m.base.cells(n, 0)
    return m.cells(n, 0)


def outcome(check, m, dim, cells, max_pairs):
    try:
        report = check(m, dim, cells, max_pairs)
    except Exception as exc:  # the checkers must fail alike
        return ("raised", type(exc).__name__, str(exc))
    return list(report.checked.items()), [str(v) for v in report.violations]


def plans(m, dim, cells, max_pairs):
    return check_axioms(m, dim, cells, max_pairs=max_pairs)


def globular(m, dim, cells, max_pairs):
    return check_globular(m, cells, max_pairs=max_pairs)


def globular_oracle(m, dim, cells, max_pairs):
    return oracle_check_globular(m, cells, max_pairs)


def assert_agrees(name, cells, dim, max_pairs, check=plans, oracle=oracle_check_axioms):
    m = model(name)
    got = outcome(check, m, dim, cells, max_pairs)
    assert got == outcome(oracle, m, dim, cells, max_pairs)
    return got


def draw_sample(data, name):
    dim = data.draw(st.integers(min_value=0, max_value=TOP[name]), label="dim")
    cells = {}
    for n in range(dim + 1):
        cands = pool(name, n)
        picks = data.draw(st.lists(st.integers(0, len(cands) - 1), unique=True,
                                   max_size=6 if n < 3 else 4), label=f"cells{n}")
        cells[n] = [cands[k] for k in picks]
    return dim, cells


CAPS = st.sampled_from([0, 1, 2, 7, 60])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(MODELS)), max_pairs=CAPS)
def test_plans_match_oracle_on_samples(data, name, max_pairs):
    dim, cells = draw_sample(data, name)
    checked, violations = assert_agrees(name, cells, dim, max_pairs)
    assert violations == []


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FAULTY)), max_pairs=CAPS)
def test_plans_match_oracle_on_faulty_models(data, name, max_pairs):
    dim, cells = draw_sample(data, name)
    assert_agrees(name, cells, dim, max_pairs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted({**MODELS, **FAULTY, **GLOBULAR})),
       max_pairs=CAPS)
def test_globular_plans_match_oracle(data, name, max_pairs):
    dim, cells = draw_sample(data, name)
    assert_agrees(name, cells, dim, max_pairs, globular, globular_oracle)


def test_globular_plans_match_oracle_on_folded_cells():
    m = model("omega0")
    rng = random.Random(23)
    cells = {n: globular_cells(m, m.sample_cells(n, 30, 1, rng)) for n in range(4)}
    checked, violations = assert_agrees("omega0", cells, 3, 40, globular, globular_oracle)
    assert violations == [] and dict(checked)["glob-exchange"] > 0


@pytest.mark.parametrize("name", sorted(FAULTY) + ["ng flipped-d2"])
def test_faulty_models_report_violations(name):
    """Whole pools, so that every faulty path shows up at least once; the
    globular nerve under the globular checker."""
    dim = 2
    cells = {n: pool(name, n) for n in range(dim + 1)}
    checkers = (globular, globular_oracle) if name in GLOBULAR else ()
    got = assert_agrees(name, cells, dim, 40, *checkers)
    assert got[0] != "raised" and got[1]
    if name == "refusing":
        assert any("composition failed (refused" in v for v in got[1])


def test_refused_selected_pair_raises_like_the_oracle():
    cells = {3: pool("refusing", 3)[:30]}
    assert assert_agrees("refusing", cells, 3, 60)[0] == "raised"


def test_zero_cap_checks_no_pairs():
    m = NcModel(disk(2))
    report = check_axioms(m, 1, max_pairs=0)
    assert report.ok
    assert set(report.checked) & {"face-comp", "deg-comp", "conn-comp", "assoc",
                                  "interchange"} == set()
    cells = {n: m.cells(n, 1) for n in (0, 1)}
    assert report.checked == oracle_check_axioms(m, 1, cells, 0).checked
    one = check_axioms(m, 1, max_pairs=1).checked
    assert (one["face-comp"], one["assoc"]) == (2, 1)


class Counting(CellModel):
    """Forwards to a model and counts the operations called on it."""

    def __init__(self, base):
        self.base, self.max_dim, self.calls = base, base.max_dim, 0

    def _count(name):
        def op(self, *args):
            self.calls += 1
            return getattr(self.base, name)(*args)
        return op

    face, deg, conn, comp = _count("face"), _count("deg"), _count("conn"), _count("comp")


@pytest.mark.parametrize("name, dims", [("disk(3)", range(4)), ("square", range(3))])
def test_plans_are_smaller_than_the_calls_they_replace(name, dims):
    m = model(name)
    for n in dims:
        A = pool(name, n)[-1]
        counter = Counting(m)
        oracle_unary(counter, Report(), A, n)
        assert len(core._unary_plan(n, m.max_dim).nodes) < counter.calls
        for i in range(1, n + 1):
            B = next(B for B in pool(name, n)
                     if m.face(B, i, "-") == m.face(A, i, "+"))
            counter.calls = 0
            oracle_pair(counter, Report(), A, B, i, n)
            # the caller computes A *_i B once for the pair plan
            assert 1 + len(core._pair_plan(n, m.max_dim, i).nodes) < counter.calls
            assert len(core._assoc_plan(i).nodes) < 4
            for j in range(1, n + 1):
                if j != i:
                    assert len(core._interchange_plan(i, j).nodes) < 6


class CountingOps:
    """Mixed into a nerve class: counts the calls of its cell-level operations by kind."""

    def __init__(self, K):
        super().__init__(K)
        self.calls = collections.Counter()

    def _count(name):
        def op(self, *args):
            self.calls[name] += 1
            return getattr(super(CountingOps, self), name)(*args)
        return op

    face, deg, conn, comp = _count("face"), _count("deg"), _count("conn"), _count("comp")


class CountingNerve(CountingOps, NcModel):
    pass


class CountingGlobular(CountingOps, NgModel):
    pass


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)", "omega0"])
def test_plans_reach_cells_only_through_their_leaves(name):
    """The sample cells (and each pair's composite) are the plans' only
    leaves: everything above them is a lowered node, and the composability
    keys are the lowered faces of a plan too, so the checker calls no
    cell-level face, deg or conn."""
    m = CountingNerve(model(name).K)
    cells = {n: [core.Cell(m, n, A.payload) for A in pool(name, n)[:8]] for n in range(4)}
    report = check_axioms(m, 3, cells, max_pairs=7)
    assert report.ok and report.checked["conn-comp"] and report.checked["interchange"]
    assert m.calls["face"] == m.calls["deg"] == m.calls["conn"] == 0
    for n in range(4):
        assert core._unary_plan(n, m.max_dim).leaves == 1
        assert all(core._pair_plan(n, m.max_dim, i).leaves == 3 for i in range(1, n + 1))


@pytest.mark.parametrize("cls, name", [(CountingNerve, "omega0"), (CountingGlobular, "ng disk(3)")])
def test_globular_checks_call_no_cell_level_operation(cls, name):
    """`check_globular` takes its composability keys from lowered faces too,
    on full folds and on globular nerve cells."""
    m = cls(model(name).K)
    cells = {n: [core.Cell(m, n, A.payload) for A in pool(name, n)[:12]] for n in range(4)}
    if cls is CountingNerve:
        cells = {n: globular_cells(m, sample) for n, sample in cells.items()}
    m.calls.clear()
    report = check_globular(m, cells, max_pairs=7)
    assert report.ok and report.checked["glob-src-comp"] and not m.calls


# -- the compiled programs against their steps -------------------------------------


class Uncompiled:
    """Mixed into a nerve class: no compiled programs, so every plan runs on
    its steps.  The oracle of the programs."""

    def lower(self, plan, leaf_dims):
        return super().lower(plan, leaf_dims)._replace(program=None)


class Observed:
    """Mixed into a nerve class: counts the plan runs handed to the steps
    (`on_steps`), because no program was built or it declined."""

    on_steps = 0

    def lower(self, plan, leaf_dims):
        low = super().lower(plan, leaf_dims)

        def observed(vals):
            value = NotImplemented if low.program is None else low.program(vals)
            self.on_steps += value is NotImplemented
            return value

        return low._replace(program=observed)


def fresh(name, *mixins):
    """A new instance of nerve `name`, its class extended by `mixins`."""
    m = model(name)
    cls = type(m)
    if mixins:
        cls = type("".join(c.__name__ for c in (*mixins, cls)), (*mixins, cls), {})
    return cls(m.K, m.key) if isinstance(m, Swapped) else cls(m.K)


def on(m, cells):
    """The cells of `cells` as cells of model `m`."""
    return {n: [core.Cell(m, n, A.payload) for A in sample] for n, sample in cells.items()}


def compiled_programs(m, fn):
    """The programs nerve `m` compiles while `fn()` runs, by (plan, leaf dimensions)."""
    built, original = {}, _NerveBase._program

    def record(self, plan, steps, dims):
        run = original(self, plan, steps, dims)
        if self is m:
            built[plan, tuple(dims[:plan.leaves])] = run
        return run

    with mock.patch.object(_NerveBase, "_program", record):
        fn()
    return built


def compiled_walks(m, fn):
    """What nerve `m` compiles its programs from while `fn()` runs, by (plan,
    leaf dimensions): the `_walk` of each, and the sums it read as one
    summand, as (zero register, summand register) pairs."""
    built, original = {}, _NerveBase._walk

    def record(self, plan, steps, dims):
        elided = []

        def spy(frame, event, result):  # the returns of `_walk`'s `fill`
            if event == "return" and frame.f_code.co_qualname == "_NerveBase._walk.<locals>.fill":
                kind, a, b = frame.f_locals["op"]
                if kind == "add" and result in (a, b):  # a new register is neither operand
                    elided.append((b if result == a else a, result))

        previous = sys.getprofile()
        sys.setprofile(spy)
        try:
            walked = original(self, plan, steps, dims)
        finally:
            sys.setprofile(previous)
        if self is m:
            built[plan, tuple(dims[:plan.leaves])] = walked, elided
        return walked

    with mock.patch.object(_NerveBase, "_walk", record):
        fn()
    return built


def register_ranks(m, leaf_dims, walked):
    """The rank of each register of a `_walk`: the leaf values' and the zero
    chains' as `_program`'s `ranks` has them, then each fill's, its first
    operand's."""
    zeros, _, _, batches, _ = walked
    ranks = [len(zeros[k]) for d in leaf_dims for k, _ in m.elements(d)] + list(map(len, zeros))
    for op in (op for batch in batches for op in batch):
        assert op[1] == len(ranks)
        ranks.append(ranks[op[2]])
    return ranks


def run_plan(plan):
    """`core._run` of `plan` as a checker whose cells are the plan's leaves."""
    def check(m, dim, cells, max_pairs):
        report = Report()
        core._run(plan, m, report, cells, dim)
        return report
    return check


LAWFUL = {"disk(3)", "cube(2)", "omega0", "ng disk(3)", "ng (w,1) disk(3)", "ng tensor"}


@pytest.mark.parametrize("name, check", [
    *((name, plans) for name in ("disk(3)", "cube(2)", "omega0", "swapped-conn", "wrong-slab")),
    *((name, globular) for name in ("ng disk(3)", "ng (w,1) disk(3)", "ng tensor",
                                    "ng flipped-d2", "swapped-conn", "wrong-slab"))])
def test_programs_report_as_their_steps(name, check):
    """A checker on a fresh nerve and on its `Uncompiled` twin: equal reports
    (counts, and violations in order and text) while each plan runs for the
    first time, and again on later runs.  On a lawful nerve the programs
    decide every equation from the first run on; on a faulty one some
    decline, and the steps report."""
    compiled, oracle = fresh(name, Observed), fresh(name, Uncompiled)
    cells = {n: pool(name, n)[:10] for n in range(TOP[name] + 1)}
    expected = outcome(check, oracle, TOP[name], on(oracle, cells), 7)
    assert expected[0] != "raised" and dict(expected[0])
    for later in (False, True):
        compiled.on_steps = 0
        assert outcome(check, compiled, TOP[name], on(compiled, cells), 7) == expected
        assert (compiled.on_steps == 0) == (name in LAWFUL)
    assert (expected[1] == []) == (name in LAWFUL)


def test_corrupted_table_falls_back_to_the_oracle_report():
    m = model("swapped-conn")
    cells = {n: pool("swapped-conn", n)[:10] for n in range(4)}
    for check, oracle in ((plans, oracle_check_axioms), (globular, globular_oracle)):
        got = outcome(check, m, 3, cells, 7)
        assert got == outcome(oracle, m, 3, cells, 7)
    # the fault breaks gather-only equations, which only the steps can report
    assert any(v.startswith("[face-conn]") for v in outcome(plans, m, 3, cells, 7)[1])
    run = program(m, core._unary_plan(2, m.max_dim), (2,))
    assert any(run([A.payload]) is NotImplemented for A in cells[2])


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)", "omega0", "swapped-conn", "wrong-slab"])
def test_programs_compare_only_registers_they_have(name):
    """Every checker plan a nerve runs compiles (the unary plans
    included), and the program it compiles compares sides of equal length,
    never a register with itself, at most one compare per composite and
    equation, and only registers of its file: the leaf payloads, the zero
    chains and its fills.  Each sum it reads as one summand pairs the zero
    chain of a degree k with a register of rank K.rank(k).  The checkers'
    reports equal the oracle's."""
    _shape.cache_clear()  # so that `m` compiles what its shape runs
    m, oracle = fresh(name), fresh(name, Uncompiled)
    cells = {n: pool(name, n)[:4] for n in range(4)}

    def checks(model):
        return [outcome(check, model, 3, on(model, cells), 4)
                for _ in range(2) for check in (plans, globular)]

    built = compiled_walks(m, lambda: checks(m))
    assert checks(m) == checks(oracle)
    assert {key for key, (walked, _) in built.items() if walked} >= {
        (core._unary_plan(n, m.max_dim), (n,)) for n in range(4)}
    elisions = []
    for (plan, leaf_dims), (walked, elided) in built.items():
        if walked is None:
            continue
        zeros, sizes, _, batches, compares = walked
        width = sum(sizes) + len(zeros) + sum(map(len, batches))
        composites = sum(kind == "comp" for kind, *_ in plan.nodes)
        assert sum(op[0] == "faces" for op in compares) <= composites
        assert sum(op[0] == "eq" for op in compares) <= len(plan.equations)
        for _, lhs, rhs, *_ in compares:
            assert len(lhs) == len(rhs) and lhs != rhs and max(lhs + rhs) < width
        ranks = register_ranks(m, leaf_dims, walked)
        elisions += [(zero - sum(sizes), len(zeros), ranks[kept]) for zero, kept in elided]
    assert elisions and all(0 <= k < degrees and rank == m.K.rank(k)
                            for k, degrees, rank in elisions)


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)"])
@pytest.mark.parametrize("plan, leaf_dims, fills, compares", [
    (core._unary_plan(3, 6), (3,), {}, 0),
    (core._pair_plan(3, 6, 1), (3, 3, 3), {"add": 9}, 32)])
def test_checker_programs_read_sums_with_zero_as_the_summand(name, plan, leaf_dims, fills,
                                                             compares):
    """The 3-cell programs `check_axioms` compiles: every one of the unary
    plan's 41 slab sums has a zero chain as a summand, so it fills nothing
    and its 12 equations become identities; the pair plan along direction 1
    keeps 9 of its 34 sums and all 32 compares."""
    _shape.cache_clear()  # so that `m` compiles what its shape runs
    m = fresh(name)
    built = compiled_walks(m, lambda: check_axioms(m, 3, {3: pool(name, 3)[:8]}, max_pairs=4))
    *_, batches, got = built[plan, leaf_dims][0]
    assert collections.Counter(op[0] for batch in batches for op in batch) == fills
    assert len(got) == compares


def compared_pairs(run):
    """The register pairs program `run` compares, read off its two compare
    kernels: applied to the register numbers, each gives its side."""
    kernels = dict(zip(run.__code__.co_freevars, (c.cell_contents for c in run.__closure__)))
    regs = range(sys.maxsize)
    return list(zip(kernels["left"](regs), kernels["right"](regs)))


@pytest.mark.parametrize("name, plan, leaf_dims, counts", [
    *((name, plan, leaf_dims, counts) for name in ("disk(3)", "cube(2)")
      for plan, leaf_dims, counts in (
          (core._pair_plan(3, 6, 1), (3, 3, 3), (1200, 804, 36)),
          (core._pair_plan(2, 6, 1), (2, 2, 2), (284, 188, 12)),
          (core._assoc_plan(1), (3,) * 4, (54, 45, 45)),
          (core._interchange_plan(1, 2), (3,) * 6, (63, 63, 63)))),
    ("omega1", invert._t_plan(1), (3,), (126, 54, 54))])
def test_programs_compare_each_distinct_register_pair_once(name, plan, leaf_dims, counts):
    """Of the register positions `_walk`'s compares line up (`counts`: all of
    them, those reading two registers, and the distinct unordered pairs
    among those), the program compares each distinct pair once, as (lower,
    higher) register, and nothing else."""
    m = lowering_model(name)
    compares = walk(m, plan, leaf_dims)[-1]
    positions = [p for _, lhs, rhs, *_ in compares for p in zip(lhs, rhs)]
    distinct = dict.fromkeys((min(p), max(p)) for p in positions if p[0] != p[1])
    assert (len(positions), sum(a != b for a, b in positions), len(distinct)) == counts
    assert compared_pairs(program(m, plan, leaf_dims)) == list(distinct)


def perturbed(data, payloads):
    """`payloads` with one value of one leaf changed by a nonzero vector."""
    leaf = data.draw(st.integers(0, len(payloads) - 1), label="leaf")
    spots = [p for p, v in enumerate(payloads[leaf]) if v]
    p = spots[data.draw(st.integers(0, len(spots) - 1), label="position")]
    old = payloads[leaf][p]
    delta = data.draw(st.lists(st.integers(-2, 2), min_size=len(old), max_size=len(old)),
                      label="delta")
    delta[data.draw(st.integers(0, len(old) - 1), label="at")] = data.draw(
        st.sampled_from([-2, -1, 1, 2]), label="by")
    value = tuple(c + d for c, d in zip(old, delta))
    return [*payloads[:leaf], (*payloads[leaf][:p], value, *payloads[leaf][p + 1:]),
            *payloads[leaf + 1:]]


PERTURBED = ("disk(3)", "cube(2)", "omega0")


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(PERTURBED), n=st.integers(1, 3))
def test_checker_programs_decline_exactly_where_the_steps_report(data, name, n):
    """A selected pair A, B and their composite, one leaf value changed: the
    pair plan's program declines exactly when its steps (on the `Uncompiled`
    twin) report a violation, and accepts the lawful leaves."""
    m, oracle = model(name), fresh(name, Uncompiled)
    i = data.draw(st.integers(1, n), label="i")
    pairs = core.composable_pairs(m, pool(name, n), i, 60)
    A, B = pairs[data.draw(st.integers(0, len(pairs) - 1), label="pair")]
    plan = core._pair_plan(n, m.max_dim, i)
    run = program(m, plan, (n, n, n))
    payloads = [A.payload, B.payload, m.comp(A, B, i).payload]
    assert run(payloads) is not NotImplemented
    payloads = perturbed(data, payloads)
    report = Report()
    core._run(plan, oracle, report, [core.Cell(oracle, n, v) for v in payloads], n)
    assert (run(payloads) is NotImplemented) == bool(report.violations)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(PERTURBED), n=st.integers(2, 3))
def test_construction_programs_decline_exactly_where_the_steps_fail(data, name, n):
    """The T-plan on one cell, and the T and R verifications on a cell and its
    inverse (the cell itself when it has none), as they are and with one
    leaf value changed: the program declines exactly when the steps (on
    the `Uncompiled` twin) return None or raise, and otherwise gives the
    steps' value."""
    m, oracle = model(name), fresh(name, Uncompiled)
    cells = pool(name, n)
    A = cells[data.draw(st.integers(0, len(cells) - 1), label="A")]
    i = data.draw(st.integers(1, n - 1), label="i")
    k = data.draw(st.integers(1, n), label="k")
    kind = data.draw(st.sampled_from(["T", "verify T", "verify R"]), label="plan")
    if kind == "T":
        plan, leaves = invert._t_plan(i), [A]
    else:
        plan, inverse = ((invert._verify_t_plan(i), lambda: invert.t_inverse(m, A, i))
                         if kind == "verify T" else (invert._r_plan(k), lambda: m.r_inverse(A, k)))
        try:
            leaves = [A, inverse()]
        except NotInvertible:
            leaves = [A, A]
    run = program(m, plan, (n,) * len(leaves))
    payloads = [C.payload for C in leaves]
    for payloads in (payloads, perturbed(data, payloads)):
        try:
            value = core._eval(plan, oracle, [core.Cell(oracle, n, v) for v in payloads])
        except (CompositionError, NotInvertible):
            value = None
        got = run(payloads)
        assert (got is NotImplemented) == (value is None)
        assert value is None or got == value.payload


def test_sides_of_unequal_length_stay_on_the_loop():
    """Leaves A and its face d_1^- A: an equation between sides of unequal
    length cannot hold, so the plan compiles to no program, and the steps
    report it on every run, as on the oracle."""
    p, (A, B) = core._Plan(2, on_cell=True), range(2)
    p.eq("short", B, A, "d_1^- A != A")
    p.eq("even", p.face(B, 1, "-"), p.face(p.face(A, 1, "-"), 1, "-"), "d_1^- d_1^-")
    m = NcModel(disk(2))
    cell = m.cells(2, 1)[-1]
    leaves = [cell, m.face(cell, 1, "-")]
    expected = ([("short", 1), ("even", 1)], [f"[short] dim 2: d_1^- A != A on {cell.payload!r}"])
    oracle = fresh("disk(3)", Uncompiled)
    assert [outcome(run_plan(p), model, 2, leaves, 0) for model in (m, m, oracle)] == [expected] * 3
    assert program(m, p, (2, 1)) is None


def test_leaves_of_the_wrong_width_fall_back():
    """Leaf payloads whose concatenation is right but whose widths are not:
    the program must not read them as aligned, and declines."""
    p, (A, B) = core._Plan(2), range(2)
    p.eq("even", p.face(B, 1, "-"), p.face(p.face(A, 1, "-"), 1, "-"), "d_1^- d_1^-")
    compiled = NcModel(disk(2))
    got = []
    for m in (compiled, type("UncompiledNcModel", (Uncompiled, NcModel), {})(disk(2))):
        cell = m.cells(2, 1)[-1]
        face = m.face(cell, 1, "-").payload
        leaves = [cell.payload + face[:1], face[1:]]
        cells = [core.Cell(m, 2, leaves[0]), core.Cell(m, 1, leaves[1])]
        got.append([outcome(run_plan(p), m, 2, cells, 0) for _ in range(2)])
    assert got[0] == got[1] and got[0][0] != ([("even", 1)], [])
    run = program(compiled, p, (2, 1))
    assert run is not None and run(leaves) is NotImplemented


def test_a_plan_compiles_once_per_shape_when_first_lowered():
    """A plan compiles when a nerve of its shape first lowers it, in the
    checkers as in the constructions, and never again in the process: not
    on its second run, nor on a new nerve of the shape."""
    _shape.cache_clear()  # no nerve of this shape has lowered a plan
    m = NcModel(with_group_cones_above(disk(2), 0))
    oracle = type("UncompiledNcModel", (Uncompiled, NcModel), {})(m.K)
    cells = {n: m.cells(n, 1)[:1] for n in range(3)}
    want = check_axioms(oracle, 2, on(oracle, cells), max_pairs=0)

    def run(model):
        assert check_axioms(model, 2, on(model, cells), max_pairs=0) == want
        A = on(model, cells)[2][0]
        return core.phi(model, A, 2).payload, invert.t_inverse(model, A, 1).payload

    first = []
    built = compiled_programs(m, lambda: first.append(run(m)))
    assert {(core._unary_plan(n, m.max_dim), (n,)) for n in range(3)} <= set(built)
    assert (invert._t_plan(1), (2,)) in built
    faces = {core._faces_plan(n) for n in range(3)}  # read as steps: compiled to no program
    assert all((run is None) == (plan in faces) for (plan, _), run in built.items())
    with mock.patch.object(_NerveBase, "_program", side_effect=AssertionError("compiled again")):
        assert run(m) == run(NcModel(m.K)) == first[0]
