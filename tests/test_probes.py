"""The probe plans of `cubeforge.invert` against the cell-level code they
replaced.

`classify_omega_p`, `is_plain_invertible`, `has_r_invertible_shell`,
`is_t_invertible` and `has_t_invertible_shell` ask whether cells have
reversal inverses through probe plans (`core._ask`); their old bodies are
the oracles of `cubical_models`.  Each comparison runs three ways: on a
nerve whose programs are switched off, so that every call runs the
steps, then twice on one new model, whose every call runs the compiled
program of its plan, compiled when first lowered.  Reports must be
equal in every field and in their summary text; the predicates must give
the same answers, or raise the same exception with the same text.  The
models cover both orientations, non-negative and group cones, a poset,
a nerve with a corrupted face table (`test_lowering.Swapped`) and one
whose composites refuse some composable pairs (`Unglued`): on those two
the programs hand calls to the steps, and the order of the shells'
short-circuits decides which exception, if any, a call raises.
"""

import functools
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import (SOURCE_MINUS_TARGET, TARGET_MINUS_SOURCE, cube, disk, tensor,
                           with_group_cones_above)
from cubeforge.core import Cell
from cubeforge.nerve import NcModel, _kernel, _NerveBase, _shape, _Table

from cubical_models import (PosetModel, classify_oracle, plain_oracle, r_shell_oracle,
                            t_oracle, t_shell_oracle)
from test_lowering import SQUARE, Recording, Swapped, assert_same_work, outcome


class Unglued(NcModel):
    """A nerve whose composites of n-cells along i, for (n, i) = `at`, compare
    d_i^+ A with its first two entries swapped against d_i^- B: some
    composable pairs raise `CompositionError`, in the steps and in the
    programs alike, while every face stays lawful."""

    def __init__(self, K, at):
        super().__init__(K)
        self.at = at

    def _step(self, kind, n, *args):
        fn, data = super()._step(kind, n, *args)
        if kind == "comp" and (n, args[1]) == self.at:
            getter, plus, minus, i = data
            index = list(plus.getter(tuple(range(len(self.elements(n)) + len(plus.extra)))))
            index[0], index[1] = index[1], index[0]
            data = (getter, _Table(_kernel(index), plus.extra), minus, i)
        return fn, data


# name: the model on an orientation, and the top dimension whose bound-1
# cells are few enough to classify here (omega0's 3-cells exceed the search
# budget; tensor has 5,455 and (w,1) disk(3) 77,242)
MODELS = {
    "disk(2)": (lambda c: NcModel(disk(2, c)), 3),
    "disk(3)": (lambda c: NcModel(disk(3, c)), 3),
    "cube(2)": (lambda c: NcModel(cube(2, c)), 3),
    "tensor": (lambda c: NcModel(tensor(disk(1, c), disk(2, c))), 2),
    "omega0": (lambda c: NcModel(with_group_cones_above(disk(2, c), 0)), 2),
    "(w,1) disk(3)": (lambda c: NcModel(with_group_cones_above(disk(3, c), 1)), 2),
    "(w,2) disk(3)": (lambda c: NcModel(with_group_cones_above(disk(3, c), 2)), 3),
    "poset": (lambda c: PosetModel(*SQUARE), 3),
    "swapped": (lambda c: Swapped(disk(2, c), ("face", 2, 2, "+")), 3),
    "unglued": (lambda c: Unglued(disk(2, c), (2, 2)), 3),
}
NAMES = st.sampled_from(sorted(MODELS))
CONVENTIONS = st.sampled_from([TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
PREDICATES = [(invert.has_r_invertible_shell, r_shell_oracle),
              (invert.is_t_invertible, t_oracle),
              (invert.has_t_invertible_shell, t_shell_oracle)]


def three_ways(make, fn):
    """fn(model) on a new model with its programs switched off, then twice on
    another new model; each is the first nerve of its shape to run a plan,
    and the first one's switched-off programs are not the second's."""
    _shape.cache_clear()
    off = make()
    with mock.patch.object(_NerveBase, "_program", lambda *_: None):
        steps = fn(off)
    _shape.cache_clear()
    m = make()
    return [steps, fn(m), fn(m)]


def classify(model, dims, extra, seed, fn=invert.classify_omega_p):
    """The report of `fn`, as its fields and its summary, or what it raised."""
    got = outcome(lambda: fn(model, dims, bound=1, extra_random=extra, rng=random.Random(seed)))
    return got if isinstance(got, tuple) else (got.evidence, got.bound, got.summary())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=NAMES, conv=CONVENTIONS)
def test_classification_matches_the_cell_level_loop(data, name, conv):
    make, top = MODELS[name]
    dims = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True)
                     .filter(lambda ds: 0 not in ds or len(ds) == 1), label="dims")
    extra = data.draw(st.sampled_from([0, 0, 3]), label="extra_random")
    seed = data.draw(st.integers(0, 99), label="seed")
    want = classify(make(conv), dims, extra, seed, classify_oracle)
    assert three_ways(lambda: make(conv), lambda m: classify(m, dims, extra, seed)) == [want] * 3


@functools.lru_cache(maxsize=None)
def pool(name, conv, n):
    """Up to 12 distinct n-cells of a model, as payloads."""
    m = MODELS[name][0](conv)
    if n == 0 or isinstance(m, PosetModel) or MODELS[name][1] >= n:
        cells = m.cells(n, 1)
    else:
        cells = m.sample_cells(n, 12, 1, random.Random(n))
    return list(dict.fromkeys(A.payload for A in cells))[:12]


def answers(model, cells, oracles=False):
    """Each predicate on each of `cells` ((dimension, payload) pairs), in every
    direction from -1 to dim+1: answers or what was raised."""
    out = []
    for n, payload in cells:
        A = Cell(model, n, payload)
        out.append(outcome(plain_oracle if oracles else invert.is_plain_invertible, model, A))
        for fn, oracle in PREDICATES:
            out += [outcome(oracle if oracles else fn, model, A, i) for i in range(-1, n + 2)]
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=NAMES, conv=CONVENTIONS)
def test_predicates_match_the_cell_level_code(data, name, conv):
    """Cells of dimensions 0 to 3 (sampled where the bound-1 cells are too
    many), two at a time, so that each plan meets the steps, then its
    program."""
    make = MODELS[name][0]
    cells = []
    for _ in range(data.draw(st.integers(1, 4), label="count")):
        n = data.draw(st.integers(0, 3), label="n")
        cands = pool(name, conv, n)
        if cands:
            cells += [(n, cands[data.draw(st.integers(0, len(cands) - 1), label="cell")])] * 2
    want = answers(make(conv), cells, oracles=True)
    assert three_ways(lambda: make(conv), lambda m: answers(m, cells)) == [want] * 3


def test_the_shells_short_circuit_as_before():
    """On the corrupted nerves some 3-cells fail the T_1 shell at the face
    d_3^-, whose 1-fold reverses in no direction, while the 1-fold of d_3^+
    raises `CompositionError`: the shell answers False, as the cell-level
    loop did, and does not raise.  The classification of the 3-cells
    raises the loop's `CompositionError`, from the same cell and fold."""
    for name in ("swapped", "unglued"):
        m = MODELS[name][0](TARGET_MINUS_SOURCE)
        unread = [A for A in m.cells(3, 1) if outcome(invert.has_t_invertible_shell, m, A, 1)
                  is False and isinstance(outcome(core.psi, m, m.face(A, 3, "+"), 1), tuple)]
        assert unread and not any(t_shell_oracle(m, A, 1) for A in unread)
        got = classify(MODELS[name][0](TARGET_MINUS_SOURCE), [3], 0, 0)
        assert got[:2] == ("raised", "CompositionError")
        assert got == classify(MODELS[name][0](TARGET_MINUS_SOURCE), [3], 0, 0, classify_oracle)


class Listed(Recording):
    """A recording model that also lists its base's cells."""

    def cells(self, n, bound):
        return [Cell(self, n, A.payload) for A in self.base.cells(n, bound)]


def test_the_steps_call_the_operations_in_the_old_order():
    """On a recording model, whose plans run on cells, the predicates and the
    classifier call the operations (`r_inverse` for each probe) first in the
    order the cell-level code called them; a plan computes a repeated word
    once."""
    for name in ("disk(3)", "omega0", "poset", "unglued"):
        base = MODELS[name][0](TARGET_MINUS_SOURCE)
        for n in (1, 2, 3):
            for payload in pool(name, TARGET_MINUS_SOURCE, n)[:4]:
                A = Cell(base, n, payload)
                assert_same_work(invert.is_plain_invertible, plain_oracle, base, A)
                for fn, oracle in PREDICATES:
                    for i in range(0, n + 2):
                        assert_same_work(fn, oracle, base, A, i)
        rec = Listed(base)
        got, log = classify(rec, [1, 2, 3][:MODELS[name][1]], 0, 0), rec.log
        rec.log = []
        assert got == classify(rec, [1, 2, 3][:MODELS[name][1]], 0, 0, classify_oracle)
        assert list(dict.fromkeys(log)) == list(dict.fromkeys(rec.log))


def test_a_warm_classification_builds_one_plan_and_one_lowering_per_dimension():
    _shape.cache_clear()  # the record then holds what `m` lowers
    m = NcModel(cube(2))
    invert._probe_plan.cache_clear()
    first = invert.classify_omega_p(m, [1, 2, 3])
    assert invert._probe_plan.cache_info().currsize == 3 and len(m._plans) == 3
    assert invert.classify_omega_p(m, [1, 2, 3]) == first
    assert invert._probe_plan.cache_info().currsize == 3
    assert set(m._plans) == {(invert._probe_plan(n, 1, parts), (n,))
                             for n, parts in ((1, "PRA"), (2, "PRATt"), (3, "PRATt"))}
    assert all(m.lower(*key).program is not None for key in m._plans)


class Counting(NcModel):
    """A nerve that counts its cell-level operations."""

    def __init__(self, K):
        super().__init__(K)
        self.calls = {"face": 0, "has_r_inverse": 0, "psi": 0}

    def face(self, A, i, alpha):
        self.calls["face"] += 1
        return super().face(A, i, alpha)

    def has_r_inverse(self, A, i):
        self.calls["has_r_inverse"] += 1
        return super().has_r_inverse(A, i)


def test_a_warm_classification_makes_no_cell_level_call():
    """No `face`, `psi` or `has_r_inverse` call per cell, on a cold run too:
    each cell's questions are answered by its dimension's program."""
    m = Counting(with_group_cones_above(disk(2), 0))
    psi = core.psi

    def counted(model, A, i):
        m.calls["psi"] += 1
        return psi(model, A, i)

    with mock.patch.object(core, "psi", counted), mock.patch.object(invert, "psi", counted):
        cold = invert.classify_omega_p(m, [1, 2])
        assert m.calls == dict.fromkeys(m.calls, 0)
        assert invert.classify_omega_p(m, [1, 2]) == cold
    assert cold.evidence[1].checked == 442 and m.calls == dict.fromkeys(m.calls, 0)


def test_a_leaf_of_the_wrong_rank_declines_to_the_steps():
    """A 2-cell with a value one coordinate wider or narrower: the warm
    program declines it, and the steps give the oracle's answer or raise its
    exception."""
    m = NcModel(with_group_cones_above(disk(2), 0))
    invert.classify_omega_p(m, [2])
    run = m.lower(invert._probe_plan(2, 1, "PRATt"), (2,)).program
    A = m.cells(2, 1)[7]
    answers(m, [(2, A.payload)] * 2)  # and so do the predicates' plans
    seen = set()
    for p in range(len(A.payload)):
        for v in (A.payload[p] + (0,), A.payload[p][1:]):
            bad = A.payload[:p] + (v,) + A.payload[p + 1:]
            assert run([bad]) is NotImplemented
            got = answers(m, [(2, bad)])
            assert got == answers(NcModel(m.K), [(2, bad)], oracles=True)
            seen.update(x if isinstance(x, bool) else x[1] for x in got)
    assert seen == {True, False, "ValueError"}
