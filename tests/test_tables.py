"""The compiled operation tables of the nerves against their sources.

Two oracles: the string-surgery tables the cubical nerve used before its
tables were compiled from the `cubeforge.adc` co-maps (kept here as
`oracle_table`, with the operations that read them), and the co-maps
themselves (`ChainMap.terms`, `comp_split`, and for the globular nerve
the disk co-maps and `disk_split`).  The property test also
checks every result with `invalid_reasons`.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge.adc import (
    SOURCE_MINUS_TARGET,
    TARGET_MINUS_SOURCE,
    comp_split,
    conn_collapse,
    cube,
    cube_conn,
    cube_deg,
    cube_face,
    cube_rev,
    cube_swap,
    disk,
    disk_face,
    disk_identity,
    disk_rev,
    disk_split,
    tensor,
    vec_neg,
    with_group_cones_above,
)
from cubeforge.core import NotInvertible
from cubeforge.nerve import NcModel, NgModel

# -- the string-surgery oracle -------------------------------------------------


def _insert(s, i, sym):
    return s[: i - 1] + sym + s[i - 1:]


def _flip(s, i):
    sym = {"-": "+", "+": "-"}[s[i - 1]]
    return s[: i - 1] + sym + s[i:]


def oracle_table(model, kind, n, i, alpha=""):
    tab = []
    # deg/conn entries are either a source position (int) or the
    # pre-built zero chain of the killed position's degree
    if kind == "face":  # cells n -> n-1; positions over length-(n-1) seqs
        for k, u in model.elements(n - 1):
            tab.append(model.pos(n, _insert(u, i, alpha)))
    elif kind == "deg":  # cells n -> n+1
        for k, s in model.elements(n + 1):
            if s[i - 1] == "0":
                tab.append(model.zero_chain(k))
            else:
                tab.append(model.pos(n, s[: i - 1] + s[i:]))
    elif kind == "conn":  # cells n -> n+1, collapsing slots i, i+1
        for k, s in model.elements(n + 1):
            sym = conn_collapse(s[i - 1: i + 1], alpha)
            if sym is None:
                tab.append(model.zero_chain(k))
            else:
                tab.append(model.pos(n, s[: i - 1] + sym + s[i + 1:]))
    elif kind == "comp":
        for k, s in model.elements(n):
            tab.append(s[i - 1])
    elif kind == "swap":  # transpose slots i, i+1
        for k, s in model.elements(n):
            t = s[: i - 1] + s[i] + s[i - 1] + s[i + 1:]
            tab.append(model.pos(n, t))
    return tab


def oracle_gather(model, kind, A, i, alpha=""):
    tab = oracle_table(model, kind, A.dim, i, alpha)
    return tuple(A.payload[e] if type(e) is int else e for e in tab)


def oracle_comp(model, A, B, i):
    payload = []
    for pos, tag in enumerate(oracle_table(model, "comp", A.dim, i)):
        if tag == "0":
            payload.append(tuple(a + b for a, b in zip(A.payload[pos], B.payload[pos])))
        elif tag == "-":
            payload.append(A.payload[pos])
        else:
            payload.append(B.payload[pos])
    return tuple(payload)


def oracle_r_inverse(model, A, i):
    payload = []
    for pos, (k, s) in enumerate(model.elements(A.dim)):
        if s[i - 1] == "0":
            neg = vec_neg(A.payload[pos])
            if not model.K.in_cone(k, neg):
                raise NotInvertible(f"value at {s} is not invertible in the cone")
            payload.append(neg)
        else:
            payload.append(A.payload[model.pos(A.dim, _flip(s, i))])
    return tuple(payload)


def oracle_t_inverse(model, A, i):
    swap = oracle_table(model, "swap", A.dim, i)
    payload = []
    for pos, (k, s) in enumerate(model.elements(A.dim)):
        if s[i - 1] == "0" and s[i] == "0":
            neg = vec_neg(A.payload[pos])
            if not model.K.in_cone(k, neg):
                raise NotInvertible(f"value at {s} is not invertible in the cone")
            payload.append(neg)
        else:
            payload.append(A.payload[swap[pos]])
    return tuple(payload)


# -- compiled operations agree with the oracle on enumerated cells ------------

COMPLEXES = {
    "disk3": lambda: disk(3),
    "cube2": lambda: cube(2),
    "tensor": lambda: tensor(disk(1), disk(2)),
    "omega0": lambda: with_group_cones_above(disk(2), 0),
}


@functools.lru_cache(maxsize=None)
def model(name):
    return NcModel(COMPLEXES[name]())


@functools.lru_cache(maxsize=None)
def pool(name, n):
    m = model(name)
    if name == "omega0" and n == 3:
        # the bound-1 enumeration of omega0 3-cells exceeds the search budget
        return m.sample_cells(3, 60, 1, random.Random(3))
    return m.cells(n, 1)


@functools.lru_cache(maxsize=None)
def by_minus_face(name, n, i):
    m = model(name)
    out = {}
    for B in pool(name, n):
        out.setdefault(m.face(B, i, "-").payload, []).append(B)
    return out


def assert_matches(m, result, dim, expected):
    assert result.model is m and result.dim == dim
    assert result.payload == expected
    assert m.invalid_reasons(result) == []


def assert_inverse_matches(m, compiled, oracle, A, i):
    try:
        expected = oracle(m, A, i)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as err:
            compiled(A, i)
        assert str(err.value) == str(exc)
        return
    assert_matches(m, compiled(A, i), A.dim, expected)


@settings(max_examples=250, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(COMPLEXES)),
       n=st.integers(min_value=0, max_value=3))
def test_compiled_operations_match_string_surgery(data, name, n):
    m = model(name)
    A = data.draw(st.sampled_from(pool(name, n)), label="A")
    for i in range(1, n + 1):
        for alpha in "-+":
            assert_matches(m, m.face(A, i, alpha), n - 1,
                           oracle_gather(m, "face", A, i, alpha))
            assert_matches(m, m.conn(A, i, alpha), n + 1,
                           oracle_gather(m, "conn", A, i, alpha))
    for i in range(1, n + 2):
        assert_matches(m, m.deg(A, i), n + 1, oracle_gather(m, "deg", A, i))
    for i in range(1, n + 1):
        partners = by_minus_face(name, n, i).get(m.face(A, i, "+").payload)
        if partners:
            B = data.draw(st.sampled_from(partners), label=f"B{i}")
            assert_matches(m, m.comp(A, B, i), n, oracle_comp(m, A, B, i))
        assert_inverse_matches(m, m.r_inverse, oracle_r_inverse, A, i)
    for i in range(1, n):
        assert_inverse_matches(m, m.t_inverse, oracle_t_inverse, A, i)


# -- compiled tables agree entry for entry with the co-maps -------------------


def flat_offsets(K):
    offs = [0]
    for basis in K.degrees:
        offs.append(offs[-1] + len(basis))
    return offs


def assert_table_is_co_map(m, tab, cmap, n):
    """`tab` gathers an n-cell's payload along the terms of `cmap`; a term
    of coefficient -1 reads the negated value that `tab.extra` names."""
    width = len(m.elements(n))
    offs = flat_offsets(cmap.target)
    r = 0
    for k, row in enumerate(cmap.terms):
        for j, terms in enumerate(row):
            assert len(terms) <= 1
            if terms:
                ((c, t),) = terms
                if c == 1:
                    assert tab.index[r] == offs[k] + t
                else:
                    name = cmap.source.degrees[k][j]
                    assert c == -1 and tab.extra[tab.index[r] - width] == (k, offs[k] + t, name)
            else:
                assert tab.index[r] == width + k
                assert tab.extra[k] == m.zero_chain(k)
            r += 1
    assert r == len(tab.index)


def assert_comp_table_is_split(m, tab, split, n, i):
    """`tab` takes each position of a *_i-composite from A, from B or from
    their sum, as `split` says."""
    width, slab = len(m.elements(n)), []
    for pos, (_, e) in enumerate(m.elements(n)):
        pieces = split(n, i, e)
        assert all(t == e for _, t in pieces)
        if len(pieces) == 2:
            assert tab.index[pos] == 2 * width + len(slab)
            slab.append(pos)
        else:
            ((tag, _),) = pieces
            assert tab.index[pos] == (pos if tag == 1 else width + pos)
    assert list(tab.extra) == slab


def resolved(m, tab, n):
    """A gather table in the oracle's form: a position, or the zero chain itself."""
    width = len(m.elements(n))
    return [tab.extra[p - width] if p >= width else p for p in tab.index]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tables_agree_with_co_maps(n):
    m = NcModel(disk(2))
    for i in range(1, n + 1):
        for alpha in "-+":
            tab = m._table("face", n, i, alpha)
            assert_table_is_co_map(m, tab, cube_face(n, i, alpha), n)
            assert resolved(m, tab, n) == oracle_table(m, "face", n, i, alpha)
            tab = m._table("conn", n, i, alpha)
            assert_table_is_co_map(m, tab, cube_conn(n, i, alpha), n)
            assert resolved(m, tab, n) == oracle_table(m, "conn", n, i, alpha)
        tab = m._table("deg", n - 1, i)
        assert_table_is_co_map(m, tab, cube_deg(n, i), n - 1)
        assert resolved(m, tab, n - 1) == oracle_table(m, "deg", n - 1, i)
        tab = m._table("comp", n, i)
        assert_comp_table_is_split(m, tab, comp_split, n, i)
        assert list(tab.extra) == [
            pos for pos, (_, s) in enumerate(m.elements(n)) if s[i - 1] == "0"
        ]


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_co_maps_are_chain_maps(n, conv):
    for i in range(1, n + 1):
        assert cube_rev(n, i, conv).is_chain_map()
    for i in range(1, n):
        assert cube_swap(n, i, conv).is_chain_map()


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disk_co_maps_are_chain_maps(n, conv):
    for i in range(1, n + 1):
        for alpha in "-+":
            assert disk_face(n, i, alpha, conv).is_chain_map()
    assert disk_identity(n - 1, conv).is_chain_map()
    assert disk_rev(n, conv).is_chain_map()


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ng_tables_are_the_disk_co_maps(n, conv):
    """Every compiled table of the globular nerve reads its co-map's terms."""
    m = NgModel(disk(2, conv))
    for i in range(1, n + 1):
        for alpha in "-+":
            assert_table_is_co_map(m, m._table("face", n, i, alpha),
                                   disk_face(n, i, alpha, conv), n)
        assert_comp_table_is_split(m, m._table("comp", n, i), disk_split, n, i)
    assert_table_is_co_map(m, m._table("deg", n - 1, 1), disk_identity(n - 1, conv), n - 1)
    assert_table_is_co_map(m, m._table("rev", n, 1), disk_rev(n, conv), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_tables_agree_with_flip_and_swap(n):
    m = NcModel(disk(2))
    width = len(m.elements(n))
    for kind, dirs in (("rev", range(1, n + 1)), ("swap", range(1, n))):
        for i in dirs:
            tab = m._table(kind, n, i)
            slab = "0" if kind == "rev" else "00"
            swap = oracle_table(m, "swap", n, i) if kind == "swap" else None
            negs = iter(tab.extra)
            for r, (k, s) in enumerate(m.elements(n)):
                if s[i - 1: i - 1 + len(slab)] == slab:  # the value at s is negated
                    assert tab.index[r] >= width
                    assert next(negs) == (k, r, s)
                elif kind == "rev":
                    assert tab.index[r] == m.pos(n, _flip(s, i))
                else:
                    assert tab.index[r] == swap[r]
            assert next(negs, None) is None
