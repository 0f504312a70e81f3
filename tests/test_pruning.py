"""The pruned programs (`_NerveBase._prune`) against the steps, and the
batched probe reader (`core._ask` over many rows).

A compiled program keeps only the fills some answer reads.  On every test
model, lawful and fault-injecting, a plan run through its program must
answer as the same plan run on its steps (an `Uncompiled` twin): the
probe plans, the unary and pair checker plans, the T-plan and a closure
plan, on bound-1 cells, cells whose sign test fails, and a leaf with a
value of another rank.
"""

import collections

import pytest

import cubeforge.core as core
import cubeforge.invert as invert
from cubeforge.adc import cube, disk, with_group_cones_above
from cubeforge.core import Cell, Report
from cubeforge.invert import Eps, Leaf
from cubeforge.nerve import NcModel, NgModel

from cubical_models import classify_oracle
from test_check_plan import FlippedFace, Uncompiled, WrongSlab
from test_lowering import Swapped, outcome, walk
from test_probes import Unglued

MODELS = {
    "disk(2)": (NcModel, (disk(2),)),
    "disk(3)": (NcModel, (disk(3),)),
    "cube(2)": (NcModel, (cube(2),)),
    "omega0": (NcModel, (with_group_cones_above(disk(2), 0),)),
    "omega1": (NcModel, (with_group_cones_above(disk(2), 1),)),
    "ng disk(3)": (NgModel, (disk(3),)),
    "swapped": (Swapped, (disk(2), ("face", 2, 2, "+"))),
    "wrong-slab": (WrongSlab, (disk(2), ("comp", 2, 1, ""))),
    "unglued": (Unglued, (disk(2), (2, 2))),
    "flipped": (FlippedFace, (with_group_cones_above(disk(2), 0),)),
}
TOP = {"omega0": 2}  # omega0's bound-1 3-cells exceed the search budget


def twins(name):
    """A nerve `name` and its `Uncompiled` twin, whose plans run on steps."""
    cls, args = MODELS[name]
    return cls(*args), type("Uncompiled" + cls.__name__, (Uncompiled, cls), {})(*args)


def rows(m, n):
    """Up to 6 bound-1 n-cells of `m` and one whose first value is one
    coordinate wider, as payloads."""
    payloads = [A.payload for A in m.cells(n, 1)[:6]]
    return payloads + [((*payloads[0][0], 0),) + payloads[0][1:]]


def fills(m, plan, leaf_dims):
    """The fills by kind of `_walk` and of the program `_prune` keeps."""
    dims = list(leaf_dims)
    for kind, x, _ in plan.nodes:
        dims.append(dims[x] + {"face": -1, "deg": 1, "conn": 1}.get(kind, 0))
    pruned = m._prune(plan, m.lower(plan, leaf_dims).steps, dims)
    count = lambda batches: collections.Counter(op[0] for b in batches for op in b)
    return count(walk(m, plan, leaf_dims)[3]), None if pruned is None else count(pruned[2])


def bits(reader, plan):
    return outcome(lambda: [reader(q) for q in range(len(plan.probes))])


def answers(m, n, payloads):
    """Per plan, what each row gives on model `m`: the probes' bits, a unary
    and a pair check's reports, the T-inverse and a closure inverse."""
    cells = [Cell(m, n, v) for v in payloads]
    out = []
    for parts in ("PRATt", "PRA", "P"):
        plan = invert._probe_plan(n, 1, parts)
        out.append([bits(r, plan) for r in core._ask(plan, m, [[A] for A in cells])])

    def check(plan, leaves):
        report = Report()
        core._run(plan, m, report, leaves, n)
        return report

    out.append([outcome(check, core._unary_plan(n, m.max_dim), [A]) for A in cells])
    for A, B in core.composable_pairs(m, cells[:-1], 1, 4):
        out.append(outcome(lambda: check(core._pair_plan(n, m.max_dim, 1),
                                         [A, B, m.comp(A, B, 1)])))
    payload = lambda C: C.payload
    if n >= 2:
        out.append([outcome(lambda: payload(invert.t_inverse(m, A, 1))) for A in cells])
    out.append([outcome(lambda: payload(invert.r_inverse_by_closure(m, Eps(2, Leaf(A)), 1)))
                for A in cells])
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pruned_programs_answer_as_the_steps(name):
    m, oracle = twins(name)
    seen = set()
    for n in range(1, TOP.get(name, 3) + 1):
        payloads = rows(m, n)
        got = answers(m, n, payloads)
        assert got == answers(oracle, n, payloads)
        seen.update(b for row in got[0] if isinstance(row, list) for b in row)
    if name in ("disk(3)", "cube(2)", "omega1", "wrong-slab"):  # sign tests hold and fail
        assert seen == {True, False}


@pytest.mark.parametrize("name, n, before", [("omega0", 2, 6), ("omega1", 3, 48)])
def test_probe_programs_fill_no_sum(name, n, before):
    """Every nonzero probe condition is a leaf value, so no sum is read."""
    m = twins(name)[0]
    for parts in ("PRATt", "PRA", "P"):
        walked, kept = fills(m, invert._probe_plan(n, 1, parts), (n,))
        assert kept == {} and walked["add"] <= before
    assert fills(m, invert._probe_plan(n, 1, "PRATt"), (n,))[0] == {"add": before}


@pytest.mark.parametrize("name", ["disk(3)", "cube(2)", "omega1"])
def test_checker_programs_and_the_t_plan_keep_every_fill(name):
    m = twins(name)[0]
    for plan, leaf_dims in ((core._unary_plan(3, 6), (3,)), (core._pair_plan(3, 6, 1), (3,) * 3),
                            (core._pair_plan(2, 6, 2), (2,) * 3), (core._assoc_plan(1), (3,) * 4),
                            (core._interchange_plan(1, 2), (3,) * 6),
                            (invert._t_plan(1), (3,)), (invert._verify_t_plan(1), (3, 3))):
        walked, kept = fills(m, plan, leaf_dims)
        assert kept == walked


def test_a_faces_plan_compiles_to_no_program():
    """`_face_keys` reads the steps of `_faces_plan`, so no program is built."""
    m = twins("cube(2)")[0]
    assert all(m.lower(core._faces_plan(n), (n,)).program is None for n in range(4))
    assert fills(m, core._faces_plan(3), (3,)) == ({}, None)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_call_gives_each_row_the_bits_of_a_one_row_call(name):
    m = twins(name)[0]
    for n in range(1, TOP.get(name, 3) + 1):
        plan = invert._probe_plan(n, 1, "PRATt" if n >= 2 else "PRA")
        cells = [[Cell(m, n, v)] for v in rows(m, n)]
        together = [bits(r, plan) for r in core._ask(plan, m, cells)]
        assert together == [bits(core._ask(plan, m, [row])[0], plan) for row in cells]
    assert core._ask(plan, m, []) == []


@pytest.mark.parametrize("name", sorted(MODELS))
def test_classification_matches_the_oracle(name):
    m = twins(name)[0]
    dims = list(range(1, TOP.get(name, 3) + 1))
    assert outcome(invert.classify_omega_p, m, dims) == outcome(classify_oracle, m, dims)
