import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge.adc import (SOURCE_MINUS_TARGET, TARGET_MINUS_SOURCE, Chain, cube, disk, tensor,
                           vec_neg, with_group_cones_above)
from cubeforge.core import (
    BoxModel,
    BudgetExceeded,
    Cell,
    CompositionError,
    NotInvertible,
    OracleUnavailable,
    check_axioms,
    fold_tail,
    globular_cells,
    in_deg_image,
    is_thin,
    phi,
    shell_of,
)
from cubeforge.invert import r_inverse
from cubeforge.nerve import NcModel, NgModel, _boundary, gamma_vs_ng, globular_signature


@pytest.fixture(scope="module")
def nc_disk1():
    return NcModel(disk(1))


@pytest.fixture(scope="module")
def nc_disk2():
    return NcModel(disk(2))


@pytest.fixture(scope="module")
def nc_omega0():
    return NcModel(with_group_cones_above(disk(2), 0))


def test_enumeration_counts(nc_disk1):
    # the nerve of the walking arrow: 2 vertices; edges id_s, id_t, x
    assert len(nc_disk1.cells(0, 1)) == 2
    assert len(nc_disk1.cells(1, 1)) == 3


def test_enumeration_disk0_point():
    nc = NcModel(disk(0))
    assert len(nc.cells(0, 1)) == 1
    assert len(nc.cells(1, 1)) == 1  # only the degenerate edge


def test_ng_enumeration_counts():
    ng = NgModel(disk(1))
    assert len(ng.cells(0, 1)) == 2
    assert len(ng.cells(1, 1)) == 3


def test_bound_zero_forces_zero_top(nc_disk1):
    for A in nc_disk1.cells(1, 0):
        assert not any(nc_disk1.value(A, "0"))


def test_validation_rejects_bad_cells(nc_disk1):
    K = nc_disk1.K
    # wrong augmentation
    with pytest.raises(ValueError):
        nc_disk1.make(0, {"": (0, 0)})
    # chain-map law violated: edge x but equal endpoints
    with pytest.raises(ValueError):
        nc_disk1.make(1, {"-": (1, 0), "+": (1, 0), "0": (1,)})
    # cone violated
    with pytest.raises(ValueError):
        nc_disk1.make(1, {"-": (0, 1), "+": (1, 0), "0": (-1,)})


@pytest.mark.parametrize("values, problems", [
    ({"-": (1,), "+": (0, 1), "0": (1,)}, "value at - has wrong rank for degree 0"),
    ({"-": (1, 0), "+": (0, 1), "0": (1, 0)}, "value at 0 has wrong rank for degree 1"),
    ({"-": (1, 0, 0), "+": (0,), "0": ()},
     "value at + has wrong rank for degree 0; value at - has wrong rank for degree 0; "
     "value at 0 has wrong rank for degree 1"),
])
def test_wrong_ranks_are_listed_not_indexed(nc_disk1, values, problems):
    """A short or long value is reported before the laws read it at its rank."""
    with pytest.raises(ValueError) as info:
        nc_disk1.make(1, values)
    assert str(info.value) == problems


NERVES = {
    "disk(3)": (lambda: NcModel(disk(3)), 3),
    "cube(2)": (lambda: NcModel(cube(2)), 3),
    "tensor(disk(1),disk(2))": (lambda: NcModel(tensor(disk(1), disk(2))), 3),
    "omega0": (lambda: NcModel(with_group_cones_above(disk(2), 0)), 2),
    "globular disk(3)": (lambda: NgModel(disk(3)), 3),
}


@pytest.mark.parametrize("name", NERVES)
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_vertex_query_is_the_augmentation_filter(name, bound):
    """Degree 0 of `chains_with_boundary` reads the augmentation as the
    boundary: the box filtered by e(v) == a, in box order."""
    K = NERVES[name][0]().K
    box = list(itertools.product(*(range(0 if f else -bound, bound + 1) for f in K.cone[0])))
    for a in (0, 1, 2):
        want = tuple(v for v in box if sum(e * c for e, c in zip(K.augmentation, v)) == a)
        assert NcModel(K).solver.chains_with_boundary(0, (a,), bound) == want


def oracle_invalid_reasons(model, A):
    """The laws with each value's boundary scanned by name from the domain's
    boundary matrix, as `invalid_reasons` read them before the table."""
    K, dom = model.K, model.domain(A.dim)
    flat = list(zip(model.elements(A.dim), A.payload))
    problems = [f"value at {name} has wrong rank for degree {k}"
                for (k, name), v in flat if len(v) != K.rank(k)]
    if problems:
        return problems
    for (k, name), v in flat:
        if not K.in_cone(k, v):
            problems.append(f"value at {name} escapes the cone")
        if k == 0:
            if K.aug(v) != 1:
                problems.append(f"augmentation at {name} is not 1")
            continue
        col = dom.basis_index(k, name)
        rhs = list(model.zero_chain(k - 1))
        if k - 1 <= K.top:
            for row, lowname in enumerate(dom.degrees[k - 1]):
                c = dom.boundary[k - 1][row][col]
                if c:
                    w = model.value(A, lowname)
                    for t in range(len(rhs)):
                        rhs[t] += c * w[t]
        lhs = K.d(k, v) if k <= K.top else model.zero_chain(k - 1)
        if lhs != tuple(rhs):
            problems.append(f"chain-map law fails at {name}")
    return problems


@pytest.mark.parametrize("name", NERVES)
def test_invalid_reasons_matches_the_by_name_law(name):
    make, top = NERVES[name]
    model, rng, flagged = make(), random.Random(name), 0
    for n in range(top + 1):
        cells = model.cells(n, 1)
        for A in rng.sample(cells, min(len(cells), 30)):
            assert model.invalid_reasons(A) == oracle_invalid_reasons(model, A) == []
            for _ in range(3):  # one coefficient off by +-1, or one value cut short
                payload = list(A.payload)
                p = rng.randrange(len(payload))
                v = list(payload[p])
                if v and rng.random() < 0.8:
                    v[rng.randrange(len(v))] += rng.choice((-1, 1))
                else:
                    v = v[1:] if v else [0]
                payload[p] = tuple(v)
                bad = Cell(model, n, tuple(payload))
                assert model.invalid_reasons(bad) == oracle_invalid_reasons(model, bad)
                flagged += bool(oracle_invalid_reasons(model, bad))
    assert flagged


def test_axioms_nerve_disk1_dim2(nc_disk1):
    cells = {n: nc_disk1.cells(n, 1) for n in range(3)}
    report = check_axioms(nc_disk1, 2, cells, max_pairs=60)
    assert report.ok, report.summary()


def test_deg_then_face_identity(nc_disk2):
    rng = random.Random(3)
    for A in nc_disk2.sample_cells(2, 20, 1, rng):
        for i in (1, 2, 3):
            E = nc_disk2.deg(A, i)
            for a in "-+":
                assert nc_disk2.equal(nc_disk2.face(E, i, a), A)


def test_transport_equation_on_1_cells(nc_disk1):
    for A in nc_disk1.cells(1, 1):
        lhs = nc_disk1.comp(nc_disk1.conn(A, 1, "+"), nc_disk1.conn(A, 1, "-"), 1)
        assert nc_disk1.equal(lhs, nc_disk1.deg(A, 2))
        lhs2 = nc_disk1.comp(nc_disk1.conn(A, 1, "+"), nc_disk1.conn(A, 1, "-"), 2)
        assert nc_disk1.equal(lhs2, nc_disk1.deg(A, 1))


def test_composition_error(nc_disk1):
    cells = nc_disk1.cells(1, 1)
    x = next(c for c in cells if any(nc_disk1.value(c, "0")))
    with pytest.raises(CompositionError):
        nc_disk1.comp(x, x, 1)  # target of x differs from its source


def test_r_inverse_on_omega0(nc_omega0):
    rng = random.Random(5)
    cells = nc_omega0.sample_cells(2, 60, 1, rng)
    for A in cells:
        for i in (1, 2):
            B = nc_omega0.r_inverse(A, i)
            left = nc_omega0.comp(A, B, i)
            right = nc_omega0.deg(nc_omega0.face(A, i, "-"), i)
            assert nc_omega0.equal(left, right)
            left2 = nc_omega0.comp(B, A, i)
            right2 = nc_omega0.deg(nc_omega0.face(A, i, "+"), i)
            assert nc_omega0.equal(left2, right2)
            assert nc_omega0.equal(nc_omega0.r_inverse(B, i), A)


def test_r_inverse_refused_on_positive_cone(nc_disk2):
    A = next(c for c in nc_disk2.cells(2, 1) if any(nc_disk2.value(c, "00")))
    with pytest.raises(NotInvertible):
        nc_disk2.r_inverse(A, 1)


def test_t_inverse_involution_and_faces(nc_omega0):
    rng = random.Random(7)
    for A in nc_omega0.sample_cells(2, 40, 1, rng):
        T = nc_omega0.t_inverse(A, 1)
        assert nc_omega0.equal(nc_omega0.t_inverse(T, 1), A)
        for a in "-+":
            assert nc_omega0.equal(nc_omega0.face(T, 1, a), nc_omega0.face(A, 2, a))
            assert nc_omega0.equal(nc_omega0.face(T, 2, a), nc_omega0.face(A, 1, a))


def test_t_of_degenerate_is_shifted_degeneracy(nc_omega0):
    # T_j eps_j A = eps_{j+1} A on 1-cells
    for A in nc_omega0.cells(1, 1):
        E = nc_omega0.deg(A, 1)
        assert nc_omega0.equal(nc_omega0.t_inverse(E, 1), nc_omega0.deg(A, 2))


def test_thinness(nc_disk2):
    x = nc_disk2.cells(1, 1)[0]
    assert is_thin(nc_disk2, nc_disk2.deg(x, 1))
    assert is_thin(nc_disk2, nc_disk2.conn(x, 1, "-"))
    assert is_thin(nc_disk2, nc_disk2.conn(x, 1, "+"))
    fat = next(c for c in nc_disk2.cells(2, 1) if any(nc_disk2.value(c, "00")))
    assert not is_thin(nc_disk2, fat)


def test_fold_makes_side_faces_degenerate(nc_disk2):
    rng = random.Random(11)
    for A in nc_disk2.sample_cells(2, 30, 1, rng) + nc_disk2.sample_cells(3, 30, 1, rng):
        G = phi(nc_disk2, A, A.dim)
        for j in range(2, A.dim + 1):
            for a in "-+":
                assert in_deg_image(nc_disk2, nc_disk2.face(G, j, a), 1)
        F = fold_tail(nc_disk2, A)
        for j in range(2, A.dim + 1):
            for a in "-+":
                assert in_deg_image(nc_disk2, nc_disk2.face(F, j, a), 1)


def test_box_of_nerve_passes_axioms(nc_disk1):
    box = BoxModel(nc_disk1, 1)
    cells = {0: nc_disk1.cells(0, 1), 1: nc_disk1.cells(1, 1), 2: box.cells(2, 1)}
    report = check_axioms(box, 2, cells, max_pairs=50)
    assert report.ok, report.summary()
    # every shell of an actual 2-cell appears among the box cells
    embedded = {box.embed(A).payload for A in nc_disk1.cells(2, 1)}
    assert embedded <= {c.payload for c in cells[2]}


def test_shell_compatibility_random(nc_disk2):
    rng = random.Random(13)
    for A in nc_disk2.sample_cells(2, 50, 1, rng) + nc_disk2.sample_cells(3, 25, 1, rng):
        assert shell_of(nc_disk2, A).is_compatible(nc_disk2)


def test_ng_model_operations():
    ng = NgModel(disk(1))
    ones = ng.cells(1, 1)
    x = next(c for c in ones if any(c.payload[-1]))
    s, t = ng.face(x, 1, "-"), ng.face(x, 1, "+")
    assert s.payload != t.payload
    assert ng.comp(ng.deg(s, 1), x, 1) == x
    assert ng.comp(x, ng.deg(t, 1), 1) == x
    with pytest.raises(CompositionError):
        ng.comp(x, x, 1)
    # eps_1 is the only degeneracy; there are no connections
    for refused in (lambda: ng.deg(x, 2), lambda: ng.deg(x, 3), lambda: ng.face(x, 2, "-"),
                    lambda: ng.conn(x, 1, "-"), lambda: ng.comp(x, s, 1),
                    lambda: ng.comp(x, x, 2)):
        with pytest.raises(ValueError):
            refused()


def test_ng_faces_are_raised_boundaries():
    # d_i^alpha of an n-cell is its alpha-boundary at level n-i, raised by
    # i-1 identities: (d_1^alpha)^i, then eps_1^(i-1)
    ng = NgModel(with_group_cones_above(disk(2), 1))
    for A in ng.cells(2, 1) + ng.cells(3, 1):
        for i in range(1, A.dim + 1):
            for a in "-+":
                X = A
                for _ in range(i):
                    X = ng.face(X, 1, a)
                for _ in range(i - 1):
                    X = ng.deg(X, 1)
                assert ng.face(A, i, a) == X
                assert not ng.invalid_reasons(X)


def test_ng_inverse_formula():
    G = with_group_cones_above(disk(1), 0)
    ng = NgModel(G)
    x = next(c for c in ng.cells(1, 1) if any(c.payload[-1]))
    y = r_inverse(ng, x, 1)
    assert y.payload[-1] == tuple(-v for v in x.payload[-1])
    assert ng.comp(x, y, 1) == ng.deg(ng.face(x, 1, "-"), 1)
    assert ng.comp(y, x, 1) == ng.deg(ng.face(x, 1, "+"), 1)
    assert ng.has_r_inverse(x, 1) and not ng.has_r_inverse(x, 2)
    with pytest.raises(OracleUnavailable):
        ng.r_inverse(ng.deg(x, 1), 2)
    plain = NgModel(disk(1))
    with pytest.raises(NotInvertible):
        r_inverse(plain, next(c for c in plain.cells(1, 1) if any(c.payload[-1])), 1)


def test_ng_associativity_of_top_composition():
    ng = NgModel(with_group_cones_above(disk(1), 0))
    cells = ng.cells(1, 1)
    triples = 0
    for A in cells:
        for B in cells:
            if A.payload[1] != B.payload[0]:
                continue
            for C in cells:
                if B.payload[1] != C.payload[0]:
                    continue
                lhs = ng.comp(ng.comp(A, B, 1), C, 1)
                rhs = ng.comp(A, ng.comp(B, C, 1), 1)
                assert lhs == rhs
                triples += 1
    assert triples > 0


def test_gamma_vs_ng_cases():
    assert gamma_vs_ng(disk(1), 1, 1).ok
    assert gamma_vs_ng(disk(0), 0, 1).ok
    for n in range(3):
        assert gamma_vs_ng(disk(2), n, 1).ok
    assert gamma_vs_ng(cube(1), 1, 1).ok


def test_globular_signature_matches_ng_payload():
    nc, ng = NcModel(disk(2)), NgModel(disk(2))
    ng_payloads = {B.payload for B in ng.cells(2, 2)}
    for A in nc.cells(2, 1):
        sig = globular_signature(nc, phi(nc, A, 2))
        assert sig in ng_payloads


@pytest.mark.parametrize("K, top", [(disk(1), 2), (disk(2), 2), (disk(3), 3), (cube(2), 2),
                                    (with_group_cones_above(disk(2), 0), 3),
                                    (tensor(disk(1), disk(2)), 2)])
def test_ng_faces_match_folded_faces(K, top):
    """The globular nerve's faces are those of full folds, read through
    `globular_signature`: d_i^alpha g = eps_1^(i-1) (d_1^alpha)^i g."""
    nc, ng, rng = NcModel(K), NgModel(K), random.Random(5)
    compared = 0
    for n in range(1, top + 1):
        raw = nc.cells(n, 1) if n < 3 else nc.sample_cells(n, 40, 1, rng)
        for g in globular_cells(nc, raw):
            G = Cell(ng, n, globular_signature(nc, g))
            assert not ng.invalid_reasons(G)
            for i, a in itertools.product(range(1, n + 1), "-+"):
                assert globular_signature(nc, nc.face(g, i, a)) == ng.face(G, i, a).payload
                compared += 1
    assert compared > 0


# -- the globular nerve against its hand-written operations -------------------
#
# Before `NgModel` compiled its operations from the disk co-maps, it sliced
# payloads by hand; those operations are kept here as the oracle.  Each
# returns a payload or raises what the nerve must raise.


def _oracle_identities(ng, head, top, r):
    """The payload of eps_1^r X for the cell X with payload head + (top,)."""
    m = len(head) // 2
    chains = (top, *map(ng.zero_chain, range(m + 1, m + r + 1)))
    return head + tuple(c for c in chains[:-1] for _ in "st") + chains[-1:]


def oracle_ng_face(ng, A, i, alpha):
    n = A.dim
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no face (i={i}, alpha={alpha}) on a {n}-cell")
    m = n - i
    top = A.payload[2 * m + (alpha == "+")]
    return _oracle_identities(ng, A.payload[:2 * m], top, i - 1)


def oracle_ng_deg(ng, A, i):
    n = A.dim
    if not 1 <= i <= n + 1:
        raise ValueError(f"no degeneracy slot {i} on a {n}-cell")
    if n + 1 > ng.max_dim:
        raise ValueError("degeneracy exceeds the model dimension bound")
    if i != 1:
        raise ValueError(f"a globular cell has no degeneracy slot {i}, only the identity")
    return _oracle_identities(ng, A.payload[:-1], A.payload[-1], 1)


def oracle_ng_conn(ng, A, i, alpha):
    raise ValueError("a globular cell has no connections")


def oracle_ng_comp(ng, A, B, i):
    n = A.dim
    if B.dim != n or not 1 <= i <= n:
        raise ValueError("bad composition request")
    if oracle_ng_face(ng, A, i, "+") != oracle_ng_face(ng, B, i, "-"):
        raise CompositionError(f"faces differ along direction {i}")
    k, a, b = n - i, A.payload, B.payload  # s_k from A, t_k from B, sums above
    sums = tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a[2 * k + 2:], b[2 * k + 2:]))
    return a[:2 * k + 1] + b[2 * k + 1:2 * k + 2] + sums


def oracle_ng_r_inverse(ng, A, i):
    n = A.dim
    if not 1 <= i <= n:
        raise NotInvertible(f"no direction {i} on a {n}-cell")
    if i != 1:
        raise OracleUnavailable("the globular nerve inverts along direction 1 only")
    neg = vec_neg(A.payload[-1])
    if not ng.K.in_cone(n, neg):
        raise NotInvertible("top chain is not invertible in the cone")
    s, t = A.payload[2 * n - 2:2 * n]
    return A.payload[:2 * n - 2] + (t, s, neg)


def oracle_ng_has_r_inverse(ng, A, i):
    try:
        oracle_ng_r_inverse(ng, A, i)
    except NotInvertible:
        return False
    return True


def _result(op):
    """What `op()` gives: a payload (of a cell), a bool, or the type it raised."""
    try:
        out = op()
    except Exception as exc:
        return type(exc)
    return out.payload if isinstance(out, Cell) else out


NG_COMPLEXES = {
    "disk(1)": lambda conv: disk(1, conv),
    "disk(2)": lambda conv: disk(2, conv),
    "disk(3)": lambda conv: disk(3, conv),
    "(w,1) disk(3)": lambda conv: with_group_cones_above(disk(3, conv), 1),
    "(w,0) disk(2)": lambda conv: with_group_cones_above(disk(2, conv), 0),
    "tensor(disk(1),disk(2))": lambda conv: tensor(disk(1, conv), disk(2, conv)),
    "cube(2)": lambda conv: cube(2, conv),
}


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("name", NG_COMPLEXES)
def test_ng_operations_match_the_hand_written_ones(name, conv):
    """Equal outputs and equal exception types on every enumerated cell of
    dims 0-3 at bound 1, out-of-range and refused requests included, and
    on every pair for the composites."""
    ng = NgModel(NG_COMPLEXES[name](conv))
    cells = {n: ng.cells(n, 1) for n in range(4)}
    calls, raised = 0, set()

    def agree(op, oracle):
        nonlocal calls
        got, want = _result(op), _result(oracle)
        assert got == want
        calls += 1
        if isinstance(want, type):
            raised.add(want)

    for n, pool in cells.items():
        for A in pool:
            for i in range(n + 3):
                agree(lambda: ng.deg(A, i), lambda: oracle_ng_deg(ng, A, i))
                agree(lambda: ng.r_inverse(A, i), lambda: oracle_ng_r_inverse(ng, A, i))
                agree(lambda: ng.has_r_inverse(A, i), lambda: oracle_ng_has_r_inverse(ng, A, i))
                for a in "-+":
                    agree(lambda: ng.face(A, i, a), lambda: oracle_ng_face(ng, A, i, a))
                    agree(lambda: ng.conn(A, i, a), lambda: oracle_ng_conn(ng, A, i, a))
                for B in pool + cells[max(n - 1, 0)][:1]:
                    agree(lambda: ng.comp(A, B, i), lambda: oracle_ng_comp(ng, A, B, i))
    assert raised == {ValueError, CompositionError, NotInvertible, OracleUnavailable}
    assert calls > 500


def test_both_nerves_run_on_the_base_operations():
    """A nerve names its family, co-maps and split; the operations, their
    tables and their lowering are `_NerveBase`'s alone."""
    shared = ("face", "deg", "conn", "comp", "r_inverse", "has_r_inverse", "lower", "_table",
              "_step", "domain")
    for nerve in (NcModel, NgModel):
        assert not set(shared) & set(vars(nerve))
        assert {"family", "split", "_co_map"} <= set(vars(nerve))


def test_budget_exceeded():
    nc = NcModel(cube(2))
    with pytest.raises(BudgetExceeded) as exc:
        nc._search(3, 1, budget=50, rng=None, limit=None)
    assert str(exc.value) == "enumeration of 3-cells at bound 1 exceeded 50 nodes"
    assert (exc.value.n, exc.value.bound, exc.value.nodes, exc.value.budget) == (3, 1, 51, 50)


# -- the search against its direct form ---------------------------------------


def _rescan_order(model, n):
    """The placement order by rescanning the (-degree, position) ranking
    from its start after every placement: the oracle of `_order`."""
    flat, terms = model.elements(n), model._boundary_terms(n)
    placed, order = set(), []
    by_pref = sorted(range(len(flat)), key=lambda p: (-flat[p][0], p))
    while len(order) < len(flat):
        for p in by_pref:
            if p not in placed and all(q in placed for _, q in terms[p]):
                order.append(p)
                placed.add(p)
                break
    return order


@pytest.mark.parametrize("model", [NcModel(disk(1)), NgModel(disk(1))], ids=repr)
def test_heap_order_is_the_rescan_order(model):
    for n in range(model.max_dim + 1):
        assert model._order(n) == _rescan_order(model, n)


def _direct_search(model, n, bound, budget, rng, limit):
    """The search without the candidate memo: every step sums its rhs and
    asks the solver.  Returns the cells and the nodes visited."""
    flat, terms = model.elements(n), model._boundary_terms(n)
    query = model.solver.chains_with_boundary
    nodes, out, values = 0, [], [None] * len(flat)

    def descend(step):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(n, bound, nodes, budget)
        if step == len(order):
            out.append(Cell(model, n, tuple(values)))
            return limit is not None and len(out) >= limit
        pos = order[step]
        k = flat[pos][0]
        rhs = _boundary(terms[pos], values, model.K.rank(k - 1)) if k else (1,)
        cands = query(k, rhs, bound)
        if rng is not None and len(cands) > 1:
            cands = list(cands)
            rng.shuffle(cands)
        for v in cands:
            values[pos] = v
            if descend(step + 1):
                return True
        values[pos] = None
        return False

    order = _rescan_order(model, n)
    descend(0)
    return out, nodes


def _budget_outcome(search):
    try:
        return search()
    except BudgetExceeded as exc:
        return ("raised", str(exc), exc.n, exc.bound, exc.nodes, exc.budget)


# Models shared across examples, so that each search meets the memos that
# earlier searches at other dimensions and bounds left behind.
SEARCH_MODELS = {
    "disk(1)": NcModel(disk(1)),
    "disk(2)": NcModel(disk(2)),
    "disk(3)": NcModel(disk(3)),
    "cube(2)": NcModel(cube(2)),
    "tensor(disk(1),disk(2))": NcModel(tensor(disk(1), disk(2))),
    "omega0": NcModel(with_group_cones_above(disk(2), 0)),
    "ng omega0": NgModel(with_group_cones_above(disk(2), 0)),
}
SEARCH_BUDGET = 20_000  # above every complete search here but tensor's and omega0's 3-cells


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SEARCH_MODELS)), n=st.integers(0, 3), bound=st.integers(1, 2),
       budget=st.one_of(st.just(SEARCH_BUDGET), st.integers(1, SEARCH_BUDGET)))
def test_memo_search_is_the_direct_search(name, n, bound, budget):
    """Same cells in the same order, and the budget runs out at the same node."""
    model = SEARCH_MODELS[name]
    direct = _budget_outcome(lambda: _direct_search(model, n, bound, budget, None, None))
    memo = _budget_outcome(lambda: model._search(n, bound, budget, None, None))
    if direct[0] == "raised":
        assert memo == direct
        return
    cells, nodes = direct
    assert memo == cells
    assert model._search(n, bound, nodes, None, None) == cells
    short = _budget_outcome(lambda: model._search(n, bound, nodes - 1, None, None))
    assert short[0] == "raised"
    assert short == _budget_outcome(lambda: _direct_search(model, n, bound, nodes - 1, None, None))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEARCH_MODELS)), n=st.integers(0, 3), bound=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_memo_sampling_is_the_direct_sampling(name, n, bound, seed):
    """Identical draws, and the generator left in the same state."""
    model, count = SEARCH_MODELS[name], 5
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    try:
        drawn = model.sample_cells(n, count, bound, rng, budget=SEARCH_BUDGET)
    except BudgetExceeded as exc:
        drawn = ("raised", str(exc))
    want = []
    try:
        for _ in range(count):
            found, _ = _direct_search(model, n, bound, SEARCH_BUDGET, oracle_rng, 1)
            if not found:
                break
            want.append(found[0])
    except BudgetExceeded as exc:
        want = ("raised", str(exc))
    assert drawn == want
    assert rng.random() == oracle_rng.random()


# -- the recorded enumerations of the benchmark -------------------------------

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
ENUM_COMPLEXES = {
    "cube(2)": lambda: cube(2),
    "disk(3)": lambda: disk(3),
    "omega0": lambda: with_group_cones_above(disk(2), 0),
    "tensor(disk(1),disk(2))": lambda: tensor(disk(1), disk(2)),
}


def test_recorded_enumerations_match():
    """Count and digest (sorted reprs of (dim, payload), one per line,
    SHA-256) of every enumeration the benchmark records."""
    recorded = json.loads(EXPECTED.read_text())["enumerate"]
    assert len(recorded) == 23
    models = {}
    for key, (count, digest) in recorded.items():
        label, n, bound = re.fullmatch(r"(.+) dim (\d+) bound (\d+)", key).groups()
        model = models.setdefault((label, bound), NcModel(ENUM_COMPLEXES[label]()))
        cells = model.cells(int(n), int(bound))
        h = hashlib.sha256()
        for text in sorted(repr((c.dim, c.payload)) for c in cells):
            h.update(text.encode() + b"\n")
        assert (len(cells), h.hexdigest()) == (count, digest), key


def test_content_chain(nc_disk2):
    A = next(c for c in nc_disk2.cells(2, 1) if any(nc_disk2.value(c, "00")))
    chain = nc_disk2.content(A)
    assert isinstance(chain, Chain)
    assert chain.degree == 2 and any(chain.coeffs)
