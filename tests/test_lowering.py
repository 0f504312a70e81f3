"""Lowered plans against the cell-level code they replace.

Every plan runs through `CubModel.lower`; the cubical nerve lowers it to
payload kernels.  The oracles below are the cell-level code the plans
replaced, kept as it was apart from the plan node kinds now being
strings and the two verifications answering False for a direction out
of range: the equation loop of `core._run`, and `psi`, `psi_block`,
`phi`, `fold_tail`, `verify_r_inverse`, `verify_t_inverse` and the
fold-route `t_inverse`; the recursive closure evaluator
(`cubical_models.closure_oracle`) is the oracle of
`r_inverse_by_closure`.  Both sides must give the same counts and
violation strings in the same order, the same values, or the same
exception type and text, on lawful nerves, on nerves with a corrupted
compiled table, on a poset model, and on wrong inverse candidates; on a
recording model they must also call the same operations in the same
order.  The one allowed difference: a closure whose index arithmetic
fails raises `DomainError` while its plan is built, before any operation
runs, where the oracle may first fail an operation.
The nerves' `has_r_inverse`, the exception route of `CubModel`, is
checked against the slab cone condition.  A `CubModel` that does not
lower plans runs none.
"""

import collections
import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import cube, disk, make_adc, tensor, vec_neg, with_group_cones_above
from cubeforge.core import (Cell, CompositionError, CubModel, DomainError, NotInvertible,
                            OracleUnavailable, Violation, check_axioms, check_globular,
                            composable_pairs)
from cubeforge.invert import Comp, Conn, Eps, Leaf
from cubeforge.nerve import _SHIFT, NcModel, NgModel, _kernel, _shape, _sign_test, _Table

from cubical_models import CellModel, PosetModel, check_composable, closure_oracle, eval_expr

# -- the cell-level oracles -------------------------------------------------------


def comp(model, A, B, i):
    """A composite as the cell-level nerve formed it: range, then the face
    compare through `face`, then the composite."""
    if isinstance(model, NcModel) and A.dim == B.dim and 1 <= i <= A.dim:
        check_composable(model, A, B, i)
    return model.comp(A, B, i)


def cell_run(plan, model, report, vals, n):
    ops = {"face": model.face, "deg": model.deg, "conn": model.conn}
    nodes, base = plan.nodes, plan.leaves
    vals = vals + [None] * len(nodes)
    for family, lhs, rhs, detail, steps, _ in plan.equations:
        report.checked[family] = report.checked.get(family, 0) + 1
        try:
            for k in steps:
                if vals[k] is None:
                    kind, x, args = nodes[k - base]
                    if kind == "comp":
                        vals[k] = comp(model, vals[x], vals[args[0]], args[1])
                    else:
                        vals[k] = ops[kind](vals[x], *args)
        except CompositionError as exc:
            why = f": composition failed ({exc})"
        else:
            if model.equal(vals[lhs], vals[rhs]):
                continue
            why = ""
        on = f" on {vals[0].payload!r}" if plan.on_cell else ""
        report.violations.append(Violation(family, n, detail + on + why))


def cell_psi(model, A, i):
    if not 1 <= i <= A.dim - 1:
        raise DomainError(f"psi index {i} out of range for a {A.dim}-cell")
    left = model.conn(model.face(A, i + 1, "-"), i, "+")
    right = model.conn(model.face(A, i + 1, "+"), i, "-")
    return comp(model, comp(model, left, A, i + 1), right, i + 1)


def cell_psi_block(model, A, r):
    if not 1 <= r <= A.dim:
        raise DomainError(f"block fold index {r} out of range for a {A.dim}-cell")
    for i in range(1, r):
        A = cell_psi(model, A, i)
    return A


def cell_phi(model, A, m):
    if not 0 <= m <= A.dim:
        raise DomainError(f"fold depth {m} out of range for a {A.dim}-cell")
    for r in range(m, 0, -1):
        A = cell_psi_block(model, A, r)
    return A


def cell_fold_tail(model, A):
    for i in range(A.dim - 1, 0, -1):
        A = cell_psi(model, A, i)
    return A


def cell_verify_r_inverse(model, A, B, k):
    if not 1 <= k <= A.dim:
        return False
    left = comp(model, A, B, k)
    right = comp(model, B, A, k)
    return model.equal(
        left, model.deg(model.face(A, k, "-"), k)
    ) and model.equal(right, model.deg(model.face(A, k, "+"), k))


def grid2(model, rows, row_dir, col_dir):
    composed_rows = []
    for row in rows:
        acc = row[0]
        for cell in row[1:]:
            acc = comp(model, acc, cell, row_dir)
        composed_rows.append(acc)
    result = composed_rows[0]
    for band in composed_rows[1:]:
        result = comp(model, result, band, col_dir)
    return result


def cell_verify_t_inverse(model, A, B, i):
    if not 1 <= i <= A.dim - 1:
        return False
    for j, a in ((i, "-"), (i, "+"), (i + 1, "-"), (i + 1, "+")):
        other = i + 1 if j == i else i
        if not model.equal(model.face(B, j, a), model.face(A, other, a)):
            return False

    def braid(X, Y):
        lhs = grid2(
            model,
            [
                [model.conn(model.face(Y, i, "-"), i, "+"), Y],
                [X, model.conn(model.face(X, i, "+"), i, "-")],
            ],
            i,
            i + 1,
        )
        rhs = comp(
            model,
            model.conn(model.face(X, i, "-"), i, "-"),
            model.conn(model.face(X, i + 1, "+"), i, "+"),
            i,
        )
        return model.equal(lhs, rhs)

    return braid(A, B) and braid(B, A)


def cell_t_inverse(model, A, i):
    if not 1 <= i <= A.dim - 1:
        raise DomainError(f"no transposition {i} on a {A.dim}-cell")
    mid = model.r_inverse(cell_psi(model, A, i), i)
    top = comp(
        model,
        model.deg(model.face(A, i + 1, "-"), i),
        model.conn(model.face(A, i, "+"), i, "+"),
        i + 1,
    )
    bottom = comp(
        model,
        model.conn(model.face(A, i, "-"), i, "-"),
        model.deg(model.face(A, i + 1, "+"), i),
        i + 1,
    )
    candidate = comp(model, comp(model, top, mid, i), bottom, i)
    if not cell_verify_t_inverse(model, A, candidate, i):
        raise NotInvertible(f"fold route produced a bad transposition inverse at {i}")
    return candidate


# -- models and pools ---------------------------------------------------------------


class Swapped(NcModel):
    """A nerve with the first two entries of one compiled index swapped, so
    that the cell-level wrappers and the lowered plans see the same fault."""

    def __init__(self, K, key):
        super().__init__(K)
        self.key = key

    def _table(self, kind, n, i, alpha=""):
        key = (kind, n, i, alpha)
        if key == self.key and key not in self._tables:
            tab = super()._table(kind, n, i, alpha)
            index = list(tab.getter(tuple(range(2 * len(self.elements(n)) + len(tab.extra)))))
            index[0], index[1] = index[1], index[0]
            self._tables[key] = _Table(_kernel(index), tab.extra)
        return super()._table(kind, n, i, alpha)


class Recording(CellModel):
    """Forwards to a model and logs every operation called, in order; its
    plans run on cells (`CellModel`)."""

    def __init__(self, base):
        self.base, self.max_dim, self.log = base, base.max_dim, []

    def _forward(name):
        def op(self, *args):
            self.log.append((name, *(hash(a.payload) if isinstance(a, Cell) else a
                                     for a in args)))
            return getattr(self.base, name)(*args)
        return op

    face, deg, conn, comp, r_inverse = map(_forward, ("face", "deg", "conn", "comp",
                                                      "r_inverse"))


SQUARE = ("blrt", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])
MODELS = {
    "disk(3)": lambda: NcModel(disk(3)),
    "cube(2)": lambda: NcModel(cube(2)),
    "tensor": lambda: NcModel(tensor(disk(1), disk(2))),
    "omega0": lambda: NcModel(with_group_cones_above(disk(2), 0)),
    "omega1": lambda: NcModel(with_group_cones_above(disk(2), 1)),
    "swapped-deg": lambda: Swapped(disk(2), ("deg", 1, 1, "")),
    "swapped-face": lambda: Swapped(disk(2), ("face", 2, 1, "+")),
    "swapped-comp": lambda: Swapped(disk(2), ("comp", 2, 1, "")),
    "swapped-rev": lambda: Swapped(with_group_cones_above(disk(2), 0), ("rev", 2, 1, "")),
    "swapped-swap": lambda: Swapped(with_group_cones_above(disk(2), 1), ("swap", 3, 1, "")),
    "globular": lambda: NgModel(disk(2)),
    "square": lambda: PosetModel(*SQUARE),
}
TOP = {name: 3 for name in MODELS}


@functools.lru_cache(maxsize=None)
def model(name):
    return MODELS[name]()


@functools.lru_cache(maxsize=None)
def pool(name, n):
    m = model(name)
    if isinstance(m, PosetModel):
        return m.cells(n)
    if n == 3 and name in ("omega0", "swapped-rev"):
        # the bound-1 enumeration exceeds the search budget: a seeded distinct sample
        return list(dict.fromkeys(m.sample_cells(n, 60, 1, random.Random(n))))
    return m.cells(n, 1)


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # both sides must fail alike
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, core.Report):
        return list(result.checked.items()), [str(v) for v in result.violations]
    return result


def both_paths(fn, m):
    """`fn(model)` with the plans checked by `core._run` and by the cell-level
    loop: the outcome on `m`, and on a recording wrapper of `m` the outcome
    and the operations called."""
    rec = Recording(m)
    lowered = outcome(fn, m), outcome(fn, rec), rec.log
    rec.log = []
    with mock.patch.object(core, "_run", cell_run):
        cell_level = outcome(fn, m), outcome(fn, rec), rec.log
    return lowered, cell_level


def assert_same_work(fn, oracle, m, *args):
    """Equal outcomes on `m`; on a recording wrapper, also the same operations
    first called in the same order, so that short-circuits and evaluation
    order agree (a plan computes a repeated word once)."""
    assert outcome(fn, m, *args) == outcome(oracle, m, *args)
    rec = Recording(m)
    got, log = outcome(fn, rec, *args), rec.log
    rec.log = []
    assert got == outcome(oracle, rec, *args)
    assert list(dict.fromkeys(log)) == list(dict.fromkeys(rec.log))


CAPS = st.sampled_from([0, 1, 2, 60])
NAMES = st.sampled_from(sorted(MODELS))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), name=NAMES, max_pairs=CAPS)
def test_checkers_match_the_cell_level_loop(data, name, max_pairs):
    m = model(name)
    dim = data.draw(st.integers(0, TOP[name]), label="dim")
    cells = {}
    for n in range(dim + 1):
        cands = pool(name, n)
        picks = data.draw(st.lists(st.integers(0, len(cands) - 1), unique=True,
                                   max_size=6 if n < 3 else 4), label=f"cells{n}")
        cells[n] = [cands[k] for k in picks]
    lowered, cell_level = both_paths(
        lambda model: check_axioms(model, dim, cells, max_pairs=max_pairs), m)
    assert lowered == cell_level
    lowered, cell_level = both_paths(
        lambda model: check_globular(model, cells, max_pairs=max_pairs), m)
    assert lowered == cell_level


@pytest.mark.parametrize("name, shows", [("swapped-deg", "eps_1"),
                                         ("swapped-face", "composition failed")])
def test_swapped_tables_show_in_both_paths(name, shows):
    m = model(name)
    cells = {n: pool(name, n) for n in range(3)}
    lowered, cell_level = both_paths(lambda model: check_axioms(model, 2, cells), m)
    assert lowered == cell_level
    assert any(shows in v for v in lowered[0][1])


def candidates(m, name, A, k, inverse, data):
    """The true inverse, if any, and wrong ones: another cell of A's dimension,
    A itself, and a cell of another dimension."""
    out = [] if inverse is None else [inverse]
    same = pool(name, A.dim)
    out.append(same[data.draw(st.integers(0, len(same) - 1), label="other")])
    out.append(A)
    other = pool(name, max(A.dim - 1, 0) if A.dim > 1 else A.dim + 1)
    out.append(other[data.draw(st.integers(0, len(other) - 1), label="wrong-dim")])
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=NAMES)
def test_constructions_match_the_cell_level_code(data, name):
    m = model(name)
    n = data.draw(st.integers(1, TOP[name]), label="n")
    cells = pool(name, n)
    A = cells[data.draw(st.integers(0, len(cells) - 1), label="A")]
    i = data.draw(st.integers(0, n + 1), label="i")  # out of range at both ends
    assert_same_work(core.psi, cell_psi, m, A, i)
    assert_same_work(core.psi_block, cell_psi_block, m, A, i)
    assert_same_work(core.phi, cell_phi, m, A, i)
    assert_same_work(core.fold_tail, cell_fold_tail, m, A)
    assert_same_work(invert.t_inverse, cell_t_inverse, m, A, i)
    r_inv = outcome(m.r_inverse, A, i)
    for B in candidates(m, name, A, i, None if isinstance(r_inv, tuple) else r_inv, data):
        assert_same_work(invert.verify_r_inverse, cell_verify_r_inverse, m, A, B, i)
    t_inv = outcome(getattr(m, "t_inverse", m.r_inverse), A, i)
    for B in candidates(m, name, A, i, None if isinstance(t_inv, tuple) else t_inv, data):
        assert_same_work(invert.verify_t_inverse, cell_verify_t_inverse, m, A, B, i)


@pytest.mark.parametrize("name, dim", [("omega1", 3), ("omega0", 2), ("swapped-deg", 2)])
def test_t_inverse_agrees_on_whole_pools(name, dim):
    """Every cell, every direction: built inverses, refusals and their texts."""
    m = model(name)
    built = 0
    for A in pool(name, dim):
        for i in range(1, dim):
            assert_same_work(invert.t_inverse, cell_t_inverse, m, A, i)
            built += not isinstance(outcome(invert.t_inverse, m, A, i), tuple)
    assert built > 0


def draw_leaf(data, m, name, n, cell=None):
    """A leaf of dimension n: `cell` or a pool cell, its inverses left to the
    model or supplied for a few directions (the model's where it has one,
    or another n-cell)."""
    cands = pool(name, n)
    A = cell or cands[data.draw(st.integers(0, len(cands) - 1), label="leaf")]
    if not data.draw(st.booleans(), label="supplied"):
        return Leaf(A)
    inverses = {}
    for d in data.draw(st.lists(st.integers(0, n + 1), unique=True, max_size=3), label="dirs"):
        B = outcome(m.r_inverse, A, d)
        if isinstance(B, tuple) or not data.draw(st.booleans(), label="true inverse"):
            B = cands[data.draw(st.integers(0, len(cands) - 1), label="other")]
        inverses[d] = B
    return Leaf(A, inverses)


def draw_expr(data, m, name, n, depth):
    """An expression of dimension n, at most `depth` operations deep.  A
    composite's right operand is often composable with its left: a pool cell
    whose d_i^- matches, or the unit eps_i d_i^+ of the left's value."""
    kinds = ["comp", "eps"] * (depth > 0 and n > 0) + ["conn"] * (depth > 0 and n > 1) + ["leaf"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "leaf":
        return draw_leaf(data, m, name, n)
    if kind == "eps":
        return Eps(data.draw(st.integers(1, n), label="i"), draw_expr(data, m, name, n - 1, depth - 1))
    if kind == "conn":
        return Conn(data.draw(st.integers(1, n - 1), label="i"), data.draw(st.sampled_from("-+")),
                    draw_expr(data, m, name, n - 1, depth - 1))
    i = data.draw(st.integers(1, n), label="i")
    left = draw_expr(data, m, name, n, depth - 1)
    value = outcome(eval_expr, m, left)
    right = data.draw(st.sampled_from(["match", "unit", "any"]), label="right")
    if right == "any" or isinstance(value, tuple):
        return Comp(i, left, draw_expr(data, m, name, n, depth - 1))
    if right == "unit":
        return Comp(i, left, Eps(i, Leaf(m.face(value, i, "+"))))
    matches = [B for B in pool(name, n) if m.face(B, i, "-") == m.face(value, i, "+")]
    if not matches:
        return Comp(i, left, draw_leaf(data, m, name, n))
    return Comp(i, left, draw_leaf(data, m, name, n, matches[
        data.draw(st.integers(0, len(matches) - 1), label="match")]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=NAMES)
def test_closure_plans_match_the_recursive_evaluator(data, name):
    """Expressions up to depth 2, in every direction k from 0 to n+1 (the
    simplest draws first: a composite, k = 1).  On a new model the first
    call runs the closure plan's steps, the second its compiled program;
    both agree with the recursive oracle.  A `DomainError` from the plan's
    index arithmetic is only checked to be an error of the oracle too."""
    m = model(name)
    n = data.draw(st.sampled_from((2, 1, 3, 0)), label="n")
    expr = draw_expr(data, m, name, n, data.draw(st.sampled_from((2, 1, 0)), label="depth"))
    k = data.draw(st.sampled_from((*range(1, n + 1), 0, n + 1)), label="k")
    fresh = MODELS[name]()
    built = outcome(invert.r_inverse_by_closure, Recording(fresh), expr, k)
    if isinstance(built, tuple) and built[1] == "DomainError":
        assert outcome(invert.r_inverse_by_closure, fresh, expr, k) == built
        assert outcome(closure_oracle, fresh, expr, k)[0] == "raised"
        return
    for _ in range(2):
        assert_same_work(invert.r_inverse_by_closure, closure_oracle, fresh, expr, k)


def test_closure_builds_one_plan_per_shape():
    """Closure calls of one shape and direction share one plan and one
    lowering, whose compiled program gives every call's value."""
    m = MODELS["omega0"]()
    pairs = composable_pairs(m, [Cell(m, 2, A.payload) for A in pool("omega0", 2)], 1, 40)
    invert._closure_plan.cache_clear()
    got = [invert.r_inverse_by_closure(m, Comp(1, Leaf(A), Leaf(B)), 1) for A, B in pairs]
    assert len(pairs) == 40 and invert._closure_plan.cache_info().currsize == 1
    shape = ("comp", 1, ("leaf", 0, None), ("leaf", 1, None))
    run = m.lower(invert._closure_plan(shape, 1, 2, True), (2, 2)).program
    assert run is not None
    assert [run([A.payload, B.payload]) for A, B in pairs] == [C.payload for C in got]


def test_a_model_without_lower_runs_no_plan():
    class Bare(CubModel):
        max_dim = 3

    m = Bare()
    with pytest.raises(NotImplementedError):
        core.psi(m, Cell(m, 2, ()), 1)


def program(m, plan, leaf_dims):
    """The compiled program of `plan` on `m`, which the nerve builds when it
    first lowers the plan."""
    return m.lower(plan, leaf_dims).program


def walk(m, plan, leaf_dims):
    """What `m` compiles `plan` from: the zero chains, leaf sizes, output
    map, batched fills and compares of `_walk`, or None."""
    dims = list(leaf_dims)
    for kind, x, _ in plan.nodes:
        dims.append(dims[x] + _SHIFT.get(kind, 0))
    return m._walk(plan, m.lower(plan, leaf_dims).steps, dims)


def test_an_unread_negation_still_refuses():
    """A rev node that nothing reads still runs its cone check: the program
    hands a cell that fails it to the steps, which raise."""
    p = core._Plan(1)
    p.rev(0, 1)  # `out` stays the leaf
    m = model("disk(3)")
    A = next(A for A in pool("disk(3)", 2) if not m.has_r_inverse(A, 1))
    B = next(B for B in pool("disk(3)", 2) if m.has_r_inverse(B, 1))
    run = program(m, p, (2,))
    *_, batches, compares = walk(m, p, (2,))
    assert [op[0] for batch in batches for op in batch] == ["neg"] * 3 and not compares
    assert run([A.payload]) is NotImplemented and run([B.payload]) == B.payload
    assert outcome(core._eval, p, m, [A]) == outcome(m.r_inverse, A, 1)
    assert core._eval(p, m, [B]) is B


def test_the_program_declines_leaf_values_of_another_shape():
    """Payloads of another length, or with a chain of another rank, go to the
    steps, whose gathers and cone checks read them as they are."""
    m = model("omega0")
    A = pool("omega0", 2)[5]
    run = program(m, invert._t_plan(1), (2,))
    assert run([A.payload]) == invert.t_inverse(m, A, 1).payload
    wider = (A.payload[0] + (0,),) + A.payload[1:]
    for bad in (A.payload[:-1], A.payload + A.payload[:1], wider):
        assert run([bad]) is NotImplemented


@pytest.mark.parametrize("name, n", [("omega0", 2), ("omega1", 3)])
def test_the_verifications_stay_run_time_compares(name, n):
    """No defining equation of a transposition or reversal inverse is settled
    while the program is compiled: each runs as a compare on every call.
    The programs keep every fill, as a construction reads no sum with a
    zero chain as the other summand (the T-plan, its verification, each
    R-plan)."""
    m = model(name)
    plans = [(invert._t_plan(1), (n,)), (invert._verify_t_plan(1), (n, n))]
    plans += [(invert._r_plan(k), (n, n)) for k in range(1, n + 1)]
    for plan, leaf_dims in plans:
        compares = walk(m, plan, leaf_dims)[-1]
        assert len(plan.equations) == sum(op[0] == "eq" for op in compares) > 0
    assert len(invert._t_plan(1).equations) == 6
    if n == 3:  # and 4 of the 14 composability compares
        assert sum(op[0] == "faces" for op in walk(m, invert._t_plan(1), (3,))[-1]) == 4
    assert [collections.Counter(op[0] for batch in walk(m, plan, leaf_dims)[3] for op in batch)
            for plan, leaf_dims in plans] == {
        "omega0": [{"add": 33, "neg": 2}, {"add": 23}] + [{"add": 6}] * 2,
        "omega1": [{"add": 97, "neg": 5}, {"add": 68}] + [{"add": 18}] * 3}[name]


@pytest.mark.parametrize("name", ["omega0", "omega1", "disk(3)", "cube(2)", "tensor"])
def test_has_r_inverse_matches_the_exception_route(name):
    m = model(name)
    assert type(m).has_r_inverse is CubModel.has_r_inverse
    # every bound-1 cell; omega0's 3-cells exceed the enumeration budget at
    # bound 1.  On the nonneg cones most slab values fail the cone check.
    tops = {"omega0": 2}.get(name, 3)
    seen = set()
    for n in range(tops + 1):
        for A in m.cells(n, 1):
            for i in range(0, n + 2):
                fast = m.has_r_inverse(A, i)
                # an R_i-inverse negates the values on the slab s_i = 0
                assert fast == (1 <= i <= n and all(
                    m.K.in_cone(k, tuple(-c for c in A.payload[pos]))
                    for pos, (k, s) in enumerate(m.elements(n)) if s[i - 1] == "0"))
                seen.add(fast)
    assert seen == {True, False}



@st.composite
def complexes(draw):
    """A complex of random ranks (0 to 3 per degree, zero boundaries) whose
    cone at each degree is "nonneg", "group" or a random bool per element."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4), label="ranks")
    cones = [draw(st.sampled_from(["nonneg", "group"])
                  | st.lists(st.booleans(), min_size=r, max_size=r), label=f"cone{k}")
             for k, r in enumerate(ranks)]
    degrees = [[f"e{k}_{j}" for j in range(r)] for k, r in enumerate(ranks)]
    boundary = [[[0] * r for _ in range(ranks[k])] for k, r in enumerate(ranks[1:])]
    return make_adc(degrees, boundary, [1] * ranks[0], cones)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), K=complexes())
def test_the_sign_test_is_the_cone_of_the_negations(data, K):
    """Values of the right ranks (degrees above the top too), in a tuple or a
    list, read at any positions, repeats included: the compiled test answers
    as `Adc.in_cone` on each negation.  A value of another rank never reaches
    it: the program's rank check sends it to the steps (the test below)."""
    degrees = data.draw(st.lists(st.integers(0, K.top + 2), max_size=6), label="degrees")
    values = [tuple(data.draw(st.lists(st.integers(-3, 3), min_size=K.rank(k),
                                       max_size=K.rank(k)), label=f"value{q}"))
              for q, k in enumerate(degrees)]
    read = data.draw(st.lists(st.integers(0, len(degrees) - 1)) if degrees else st.just([]),
                     label="positions")
    registers = data.draw(st.sampled_from([tuple, list]), label="registers")(values)
    got = _sign_test(K, [(degrees[p], p) for p in read])(registers)
    assert got == all(K.in_cone(degrees[p], vec_neg(values[p])) for p in read)


@pytest.mark.parametrize("K, shows", [
    (with_group_cones_above(disk(2), 1), {False, "ValueError"}),
    (disk(3), {False, "ValueError"}),
    (disk(1), {True, False, "ValueError"}),  # a widened (0,) above the top is invertible
], ids=["omega1", "disk(3)", "disk(1)"])
def test_has_r_inverse_reads_values_of_another_rank_as_the_steps_do(K, shows):
    """A slab value one coordinate wider or narrower: `has_r_inverse` answers,
    or raises, as the step route's cone check on the negations does."""
    m = NcModel(K)
    seen = set()
    for A in m.cells(2, 1)[:40]:
        for i in (1, 2):
            _, ((_, negs), in_cone) = m._step("rev", 2, i)
            for _, p, _ in negs:
                for v in (A.payload[p] + (0,), A.payload[p][1:]):
                    B = Cell(m, 2, A.payload[:p] + (v,) + A.payload[p + 1:])
                    got = outcome(m.has_r_inverse, B, i)
                    steps = outcome(lambda: all(in_cone(k, vec_neg(B.payload[q]))
                                                for k, q, _ in negs))
                    assert got == steps
                    seen.add(got if isinstance(got, bool) else got[1])
    assert seen == shows


# -- fault models beside stock nerves ------------------------------------------------


def fault_models():
    """name -> (a fault model over K, its stock class, K).  Built when called:
    `test_check_plan` and `test_probes`, which define some of them, import
    this module."""
    from test_check_plan import FlippedFace, WrongSlab
    from test_probes import Unglued
    return {
        "swapped-conn": (lambda K: Swapped(K, ("conn", 2, 1, "+")), NcModel, disk(2)),
        "swapped-face": (lambda K: Swapped(K, ("face", 2, 2, "+")), NcModel, disk(2)),
        "wrong-slab": (lambda K: WrongSlab(K, ("comp", 2, 1, "")), NcModel, disk(2)),
        "unglued": (lambda K: Unglued(K, (2, 2)), NcModel, disk(2)),
        "flipped-face": (FlippedFace, NgModel, with_group_cones_above(disk(2), 0)),
    }


def step_maps(m):
    """What each operation's step on cells of dimension <= 3 reads: the index
    map and extra of every table in its data, or the error it raises."""
    from test_nerve import table_keys
    out = {}
    for kind, n, i, alpha in table_keys(3):
        args = {"face": (i, alpha), "conn": (i, alpha), "comp": (n, i)}.get(kind, (i,))
        try:
            _, data = m._step(kind, n, *args)
        except (ValueError, OracleUnavailable, NotInvertible) as exc:
            out[kind, n, i, alpha] = type(exc).__name__
            continue
        width = 2 * len(m.elements(n))
        tables = [data] if isinstance(data, _Table) else [t for t in data if isinstance(t, _Table)]
        out[kind, n, i, alpha] = [(t.getter(tuple(range(width + len(t.extra)))), t.extra)
                                  for t in tables]
    return out


def behaviour(m, payloads):
    """`m`'s step maps, and its checker's report, 2-folds and T_1-inverses on
    the cells `payloads` (dimension -> payloads), each run twice: a plan's
    second run in a clean process is compiled."""
    cells = {n: [Cell(m, n, p) for p in ps] for n, ps in payloads.items()}
    if isinstance(m, NgModel):
        check = functools.partial(check_globular, m, cells, max_pairs=4)
    else:
        check = functools.partial(check_axioms, m, 2, cells, max_pairs=4)
    got = []
    for _ in range(2):
        got.append(outcome(check))
        for A in cells[2]:
            got += [outcome(lambda: core.phi(m, A, 2).payload),
                    outcome(lambda: invert.t_inverse(m, A, 1).payload)]
    return step_maps(m), got


def alone(make, payloads):
    """`behaviour` of the nerve `make()` builds as the first of its shape."""
    _shape.cache_clear()
    return behaviour(make(), payloads)


@pytest.mark.parametrize("first", ["fault", "stock"])
@pytest.mark.parametrize("name", ["swapped-conn", "swapped-face", "wrong-slab", "unglued",
                                  "flipped-face"])
def test_fault_models_keep_their_faults_beside_stock_nerves(name, first):
    """A fault model built before or after a stock nerve over the same K, the
    two run in turn: each behaves as it does alone, so the fault model shows
    its own fault and the stock nerve, which reports no violation, none."""
    make, stock_class, K = fault_models()[name]
    payloads = {n: [A.payload for A in stock_class(K).cells(n, 1)[:5]] for n in range(3)}
    want = {"fault": alone(lambda: make(K), payloads),
            "stock": alone(lambda: stock_class(K), payloads)}
    assert want["fault"][0] != want["stock"][0] and want["stock"][1][0][1] == []  # violations
    _shape.cache_clear()
    order = ["fault", "stock"] if first == "fault" else ["stock", "fault"]
    models = {}
    for side in order:
        models[side] = make(K) if side == "fault" else stock_class(K)
        assert behaviour(models[side], payloads) == want[side], side
    for side in order:
        assert behaviour(models[side], payloads) == want[side], side


def test_two_swapped_nerves_over_one_complex_keep_their_own_faults():
    """Swapped nerves over one K, with different keys: each keeps its own
    corrupted table, whichever runs first, and neither reaches a stock nerve."""
    keys, K = [("conn", 2, 1, "+"), ("face", 2, 2, "+")], disk(2)
    payloads = {n: [A.payload for A in NcModel(K).cells(n, 1)[:5]] for n in range(3)}
    want = [alone(lambda: Swapped(K, key), payloads) for key in keys]
    stock = alone(lambda: NcModel(K), payloads)
    assert len({repr(w[0]) for w in (*want, stock)}) == 3
    for order in (keys, keys[::-1]):
        _shape.cache_clear()
        models = [Swapped(K, key) for key in order]
        got = [behaviour(m, payloads) for m in models + [NcModel(K)]]
        assert got == [want[keys.index(key)] for key in order] + [stock]
