"""Lowered plans against the cell-level code they replace.

Every plan runs through `CubModel.lower`; the cubical nerve lowers it to
payload kernels.  The oracles below are the cell-level code the plans
replaced, kept as it was apart from the plan node kinds now being
strings: the equation loop of `core._run`, and `psi`, `psi_block`,
`phi`, `fold_tail`, `verify_r_inverse`, `verify_t_inverse` and the
fold-route `t_inverse`.  Both sides must give the same counts and
violation strings in the same order, the same values, or the same
exception type and text, on lawful nerves, on nerves with a corrupted
compiled table, on a poset model, and on wrong inverse candidates; on a
recording model they must also call the same operations in the same
order.  `NcModel.has_r_inverse`, which reads the cone check alone, is
checked against the exception route and against the slab cone condition.
"""

import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import cube, disk, tensor, with_group_cones_above
from cubeforge.core import (Cell, CompositionError, CubModel, DomainError, NotInvertible,
                            PosetModel, Violation, check_axioms, check_globular)
from cubeforge.nerve import NcModel, NgModel, _kernel, _Table

# -- the cell-level oracles -------------------------------------------------------


def comp(model, A, B, i):
    """A composite as the cell-level nerve formed it: range, then the face
    compare through `face`, then the composite."""
    if isinstance(model, NcModel) and A.dim == B.dim and 1 <= i <= A.dim:
        model.check_composable(A, B, i)
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
            index = list(tab.index)
            index[0], index[1] = index[1], index[0]
            self._tables[key] = _Table(_kernel(index), tab.extra, tuple(index))
        return super()._table(kind, n, i, alpha)


class Recording(CubModel):
    """Forwards to a model and logs every operation called, in order; it
    keeps the cell-level default of `lower`."""

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


def program(m, plan, leaf_dims):
    """The compiled program of `plan` on `m`, which the nerve builds when the
    plan runs a second time."""
    low = m.lower(plan, leaf_dims)
    return low.program() or low.program()


def test_an_unread_negation_still_refuses():
    """A rev node that nothing reads still runs its cone check: the program
    hands a cell that fails it to the steps, which raise."""
    p = core._Plan(1)
    p.rev(0, 1)  # `out` stays the leaf
    m = model("disk(3)")
    A = next(A for A in pool("disk(3)", 2) if not m.has_r_inverse(A, 1))
    B = next(B for B in pool("disk(3)", 2) if m.has_r_inverse(B, 1))
    run = program(m, p, (2,))
    assert [op[0] for op in run.ops] == ["neg"] * 3 + ["out"]
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
    while the program is compiled: each runs as a compare on every call."""
    m = model(name)
    plans = [(invert._t_plan(1), (n,)), (invert._verify_t_plan(1), (n, n))]
    plans += [(invert._r_plan(k), (n, n)) for k in range(1, n + 1)]
    for plan, leaf_dims in plans:
        ops = program(m, plan, leaf_dims).ops
        assert len(plan.equations) == sum(op[0] == "eq" for op in ops) > 0
    assert len(invert._t_plan(1).equations) == 6
    if n == 3:  # and 4 of the 14 composability compares
        assert sum(op[0] == "faces" for op in program(m, invert._t_plan(1), (3,)).ops) == 4


@pytest.mark.parametrize("name", ["omega0", "omega1"])
def test_has_r_inverse_matches_the_exception_route(name):
    m = model(name)
    # every bound-1 cell, 454 and 442 of them; omega0's 3-cells exceed the
    # enumeration budget at bound 1
    tops = {"omega0": 2, "omega1": 3}[name]
    seen = set()
    for n in range(tops + 1):
        for A in m.cells(n, 1):
            for i in range(0, n + 2):
                fast = m.has_r_inverse(A, i)
                assert fast == CubModel.has_r_inverse(m, A, i)
                # an R_i-inverse negates the values on the slab s_i = 0
                assert fast == (1 <= i <= n and all(
                    m.K.in_cone(k, tuple(-c for c in A.payload[pos]))
                    for pos, (k, s) in enumerate(m.elements(n)) if s[i - 1] == "0"))
                seen.add(fast)
    assert seen == {True, False}

