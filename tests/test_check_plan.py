"""The compiled equation plans of `check_axioms` against the closure checker.

The oracle is the checker `check_axioms` used before its equation
families were compiled into plans: one closure pair per equation
instance, evaluated at once, every operation word recomputed.  It is
kept here with one deliberate change, the exact caps (a cap of 0 checks
no pairs, triples or quadruples; the old loops tested the cap only after
appending).  Both checkers must return the same counts, in the same
family order, and the same violation strings in the same order, or
raise the same exception, on sampled and on faulty models.

On the cubical nerve, `core._run` first tries one fused check of the
equations that are gathers only, and runs them one by one only when it
fails.  One faulty nerve, with a corrupted compiled table, makes it fail.
The structural guards at the end need no timing.
"""

import collections
import functools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import cube, disk, tensor, with_group_cones_above
from cubeforge.core import (
    ALPHAS,
    BoxModel,
    CompositionError,
    CubModel,
    PosetModel,
    Report,
    Violation,
    check_axioms,
    check_globular,
    globular_cells,
    grid2,
)
from cubeforge.indices import lower, raise_
from cubeforge.nerve import NcModel, NgModel

from test_lowering import Swapped

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
        return super()._table(kind, n, i, core.opposite(alpha) if kind == "face" and i == 2
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
FAULTY = {
    "corrupted": lambda: Corrupted(*CHAIN),
    "refusing": lambda: RefusingComp(*SQUARE),
    "wrong-conn": lambda: WrongConn(*SQUARE),
    # the compiled Gamma_1^+ table on 2-cells corrupted, for the fused check
    "swapped-conn": lambda: Swapped(disk(2), ("conn", 2, 1, "+")),
}
# globular nerves, lawful and with d_2^- and d_2^+ exchanged, for the globular checker
GLOBULAR = {
    "ng disk(3)": lambda: NgModel(disk(3)),
    "ng (w,1) disk(3)": lambda: NgModel(with_group_cones_above(disk(3), 1)),
    "ng tensor": lambda: NgModel(tensor(disk(1), disk(2))),
    "ng flipped-d2": lambda: FlippedFace(with_group_cones_above(disk(2), 0)),
}
TOP = {"disk(3)": 3, "cube(2)": 3, "omega0": 3, "chain3": 3, "square": 3, "box": 2,
       "corrupted": 2, "refusing": 3, "wrong-conn": 3, "swapped-conn": 3,
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


class Counting(CubModel):
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


class CountingNerve(NcModel):
    """The nerve, counting the calls of its cell-level operations by kind."""

    def __init__(self, K):
        super().__init__(K)
        self.calls = collections.Counter()

    def _count(name):
        def op(self, *args):
            self.calls[name] += 1
            return getattr(NcModel, name)(self, *args)
        return op

    face, deg, conn, comp = _count("face"), _count("deg"), _count("conn"), _count("comp")


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)", "omega0"])
def test_plans_reach_cells_only_through_their_leaves(name):
    """The sample cells (and each pair's composite) are the plans' only
    leaves: everything above them is a lowered node, so the checker calls
    no cell-level deg or conn, and face only for the 2n composability keys
    of each sample n-cell."""
    m = CountingNerve(model(name).K)
    cells = {n: [core.Cell(m, n, A.payload) for A in pool(name, n)[:8]] for n in range(4)}
    report = check_axioms(m, 3, cells, max_pairs=7)
    assert report.ok and report.checked["conn-comp"] and report.checked["interchange"]
    assert m.calls["deg"] == m.calls["conn"] == 0
    assert m.calls["face"] == sum(2 * n * len(cells[n]) for n in cells)
    for n in range(4):
        assert core._unary_plan(n, m.max_dim).leaves == 1
        assert all(core._pair_plan(n, m.max_dim, i).leaves == 3 for i in range(1, n + 1))


# -- the fused check -------------------------------------------------------------


def built(m):
    """What nerve `m` built when asked for fused checks, by (plan, leaf
    dimensions): a fused check, or None for a plan with no gather-only
    equation."""
    return {key: low.fused() for key, low in m._lowered.items()
            if low.fused.cache_info().currsize}


def fused_checks(m):
    return {key: check for key, check in built(m).items() if check is not None}


def run_plan(plan):
    """`core._run` of `plan` as a checker whose cells are the plan's leaves."""
    def check(m, dim, cells, max_pairs):
        report = Report()
        core._run(plan, m, report, cells, dim)
        return report
    return check


class Unfused(NcModel):
    """The nerve with no fused checks: every equation runs on the loop."""

    def lower(self, plan, leaf_dims):
        return super().lower(plan, leaf_dims)._replace(fused=lambda: None)


def test_corrupted_table_falls_back_to_the_oracle_report():
    m = model("swapped-conn")
    cells = {n: pool("swapped-conn", n)[:10] for n in range(4)}
    for check, oracle in ((plans, oracle_check_axioms), (globular, globular_oracle)):
        got = outcome(check, m, 3, cells, 7)
        assert got == outcome(oracle, m, 3, cells, 7)
    # the fault breaks gather-only equations, which only the loop can report
    assert any(v.startswith("[face-conn]") for v in outcome(plans, m, 3, cells, 7)[1])
    unary = core._unary_plan(2, m.max_dim)
    assert any(plan is unary for plan, _ in fused_checks(m))


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)", "omega0", "swapped-conn"])
def test_fused_forests_are_no_wider_than_their_input(name):
    m = model(name)
    cells = {n: pool(name, n)[:4] for n in range(4)}
    check_axioms(m, 3, cells, max_pairs=4)
    check_globular(m, cells, max_pairs=4)
    checks = fused_checks(m)
    assert {plan for plan, _ in checks} >= {core._unary_plan(n, m.max_dim) for n in range(4)}
    for (plan, _), check in checks.items():
        lhs, rhs = check.pairs
        assert len(lhs) == len(rhs) < check.width
        assert all(p != q and max(p, q) < check.width for p, q in zip(lhs, rhs))
        assert sum(count for _, count in check.counts) + len(check.rest) == len(plan.equations)
        assert [family for family, _ in check.counts] == list(
            dict.fromkeys(family for family, *_ in plan.equations))


def test_sides_of_unequal_length_stay_on_the_loop():
    """Leaves A and its face d_1^- A: the fused check covers the second
    equation only, and the loop reports the first."""
    m = NcModel(disk(2))
    p, (A, B) = core._Plan(2, on_cell=True), range(2)
    p.eq("short", B, A, "d_1^- A != A")
    p.eq("even", p.face(B, 1, "-"), p.face(p.face(A, 1, "-"), 1, "-"), "d_1^- d_1^-")
    check = m.lower(p, (2, 1)).fused()
    assert [family for family, *_ in check.rest] == ["short"]
    assert check.counts == (("short", 0), ("even", 1)) and check.pairs[0]
    cell = m.cells(2, 1)[-1]
    assert outcome(run_plan(p), m, 2, [cell, m.face(cell, 1, "-")], 0) == (
        [("short", 1), ("even", 1)], [f"[short] dim 2: d_1^- A != A on {cell.payload!r}"])


def test_leaves_of_the_wrong_width_fall_back():
    """Leaf payloads whose concatenation is right but whose widths are not:
    the fused check must not read them as aligned."""
    p, (A, B) = core._Plan(2), range(2)
    p.eq("even", p.face(B, 1, "-"), p.face(p.face(A, 1, "-"), 1, "-"), "d_1^- d_1^-")
    got = {}
    for m in (NcModel(disk(2)), Unfused(disk(2))):
        cell = m.cells(2, 1)[-1]
        face = m.face(cell, 1, "-").payload
        leaves = [core.Cell(m, 2, cell.payload + face[:1]), core.Cell(m, 1, face[1:])]
        got[type(m)] = outcome(run_plan(p), m, 2, leaves, 0)
    assert got[NcModel] == got[Unfused] != ([("even", 1)], [])


def test_constructions_build_no_fused_check():
    m = NcModel(with_group_cones_above(disk(2), 0))
    for A in m.cells(2, 1)[:5]:
        core.phi(m, A, 2)
        invert.t_inverse(m, A, 1)
        invert.verify_t_inverse(m, A, m.t_inverse(A, 1), 1)
    assert m._lowered and not built(m)
    check_axioms(m, 1, max_pairs=2)
    assert fused_checks(m)
