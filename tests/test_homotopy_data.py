"""`random_homotopy_data` and the p = 0 / p = 1 constructors against oracles.

The first oracle is the column-based construction that the matrix-based
one replaced.  Both must return equal matrices and leave the rng in the
same state, with and without a pinned `start`; the benchmark draws its
transfor tables from this function.

The constructor oracles are the hand-written chain-map and chain-homotopy
constructors that `tensor_transfor` replaced: on random and hand-made
data both must give the same entries, in the same order.
"""

import random

import pytest

from cubeforge.adc import (SOURCE_MINUS_TARGET, cube, disk, orientation_sign,
                           with_group_cones_above)
from cubeforge.nerve import NcModel
from cubeforge.transfor import (LAX, chain_map_transfor, homotopy_lax_transfor, make_table,
                                random_homotopy_data, validate_transfor)


class _Retry(Exception):
    pass


def oracle_random_homotopy_data(source, target, rng, coeff_bound=1, tries=400, start=None):
    K, L = source.K, target.K
    eta = 1 if K.d_convention == "target-minus-source" else -1
    solver = target.solver

    def unit(k, j):
        return tuple(1 if m == j else 0 for m in range(K.rank(k)))

    def cols_to_matrix(cols, out_rank):
        return [[col[r] for col in cols] for r in range(out_rank)]

    def apply_cols(cols, chain, out_rank):
        out = [0] * out_rank
        for j, c in enumerate(chain):
            if c:
                for r in range(out_rank):
                    out[r] += c * cols[j][r]
        return tuple(out)

    def random_chain_map():
        mats_cols = []
        for k in range(K.top + 1):
            cols = []
            for j in range(K.rank(k)):
                if k == 0:
                    cands = solver.chains_with_boundary(0, (1,), coeff_bound)
                else:
                    rhs = apply_cols(mats_cols[k - 1], K.d(k, unit(k, j)), L.rank(k - 1))
                    cands = solver.chains_with_boundary(k, rhs, coeff_bound)
                if not cands:
                    raise _Retry
                cols.append(rng.choice(cands))
            mats_cols.append(cols)
        return mats_cols

    def matrix_to_cols(mats):
        return [
            [tuple(mats[k][r][j] for r in range(L.rank(k))) for j in range(K.rank(k))]
            for k in range(K.top + 1)
        ]

    for _ in range(tries):
        try:
            fm_cols = matrix_to_cols(start) if start is not None else random_chain_map()
            fp_cols = random_chain_map()
            h_cols = []
            for k in range(K.top + 1):
                cols = []
                for j in range(K.rank(k)):
                    e = unit(k, j)
                    rhs = [
                        eta * (p - m)
                        for p, m in zip(apply_cols(fp_cols[k], e, L.rank(k)),
                                        apply_cols(fm_cols[k], e, L.rank(k)))
                    ]
                    if k >= 1:
                        back = apply_cols(h_cols[k - 1], K.d(k, e), L.rank(k))
                        rhs = [a - b for a, b in zip(rhs, back)]
                    cands = solver.chains_with_boundary(k + 1, tuple(rhs), coeff_bound)
                    if not cands:
                        raise _Retry
                    cols.append(rng.choice(cands))
                h_cols.append(cols)
            f_minus = [cols_to_matrix(fm_cols[k], L.rank(k)) for k in range(K.top + 1)]
            f_plus = [cols_to_matrix(fp_cols[k], L.rank(k)) for k in range(K.top + 1)]
            h = [cols_to_matrix(h_cols[k], L.rank(k + 1)) for k in range(K.top + 1)]
            return f_minus, f_plus, h
        except _Retry:
            continue
    raise RuntimeError("no homotopy data found within the retry budget")


def _push(target, mats, k, chain, out_degree):
    if target.K.rank(out_degree) == 0 or k >= len(mats) or not chain:
        return target.zero_chain(out_degree)
    return tuple(sum(x * c for x, c in zip(row, chain)) for row in mats[k])  # rows times chain


def _unit(K, k, j):
    return tuple(1 if m == j else 0 for m in range(K.rank(k)))


def _homotopy_rhs(target, K, eta, f_minus, f_plus, h, k, e):
    rhs = [eta * (p - m) for p, m in zip(_push(target, f_plus, k, e, k),
                                         _push(target, f_minus, k, e, k))]
    if k >= 1:
        rhs = [a - b for a, b in zip(rhs, _push(target, h, k - 1, K.d(k, e), k))]
    return tuple(rhs)


def oracle_chain_map_transfor(source, target, matrices, dims, bound):
    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {
                name: _push(target, matrices, k, source.value(A, name), k)
                for k, name in source.elements(n)
            }
            out.append((A, target.make(n, values)))
    return make_table(LAX, 0, source, target, out)


def oracle_homotopy_lax_transfor(source, target, f_minus, f_plus, h, dims, bound):
    K, L = source.K, target.K
    if K.d_convention != L.d_convention:
        raise ValueError("source and target must share a d_convention")
    eta = orientation_sign(K.d_convention)
    for k in range(K.top + 1):
        for j in range(K.rank(k)):
            e = _unit(K, k, j)
            he = _push(target, h, k, e, k + 1)
            dh = L.d(k + 1, he) if k + 1 <= L.top else target.zero_chain(k)
            if tuple(dh) != _homotopy_rhs(target, K, eta, f_minus, f_plus, h, k, e):
                raise ValueError(f"homotopy law fails on a degree-{k} generator")
    out = []
    for n in dims:
        for A in source.cells(n, bound):
            values = {}
            for k, u in target.elements(n + 1):
                head, tail = u[0], u[1:]
                chain = source.value(A, tail)
                if head == "-":
                    values[u] = _push(target, f_minus, k, chain, k)
                elif head == "+":
                    values[u] = _push(target, f_plus, k, chain, k)
                else:
                    values[u] = _push(target, h, k - 1, chain, k)
            out.append((A, target.make(n + 1, values)))
    return make_table(LAX, 1, source, target, out)


def entry_list(F):
    """A table's cells and image payloads, in order, with its variance and degree."""
    return F.variance, F.p, [(A.dim, A.payload, FA.dim, FA.payload) for A, FA in F.pairs()]


PAIRS = {
    "disk1-omega0": (disk(1), with_group_cones_above(disk(2), 0)),
    "disk1-omega0-flipped": (disk(1, SOURCE_MINUS_TARGET),
                             with_group_cones_above(disk(2, SOURCE_MINUS_TARGET), 0)),
    "disk0-disk1": (disk(0), disk(1)),
    "disk1-disk2": (disk(1), disk(2)),
    "cube1-cube2": (cube(1), cube(2)),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def pair(request):
    K, L = PAIRS[request.param]
    return NcModel(K), NcModel(L)


def _both(src, tgt, seed, **kw):
    """Run the function and its oracle from equal rng states."""
    results = []
    for fn in (random_homotopy_data, oracle_random_homotopy_data):
        rng = random.Random(seed)
        try:
            out = fn(src, tgt, rng, **kw)
        except RuntimeError as exc:
            out = str(exc)
        results.append((out, rng.random()))
    return results


@pytest.mark.parametrize("seed", range(8))
def test_matches_column_oracle(pair, seed):
    src, tgt = pair
    new, old = _both(src, tgt, seed)
    assert new == old
    fm, fp, h = new[0]
    # a second transfor pinned to start where the first one ends
    new, old = _both(src, tgt, seed + 100, start=fp)
    assert new == old
    assert new[0][0] == fp


def test_matches_oracle_with_small_budget(pair):
    src, tgt = pair
    for seed in range(4):
        new, old = _both(src, tgt, seed, coeff_bound=2, tries=1)
        assert new == old


def test_generated_tables_validate(pair):
    src, tgt = pair
    fm, fp, h = random_homotopy_data(src, tgt, random.Random(3))
    F = homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1], 1)
    assert validate_transfor(F).ok


@pytest.mark.parametrize("seed", range(8))
def test_constructors_match_their_oracles(pair, seed):
    src, tgt = pair
    fm, fp, h = random_homotopy_data(src, tgt, random.Random(seed))
    for f in (fm, fp):
        assert entry_list(chain_map_transfor(src, tgt, f, [0, 1, 2], 1)) == entry_list(
            oracle_chain_map_transfor(src, tgt, f, [0, 1, 2], 1))
    assert entry_list(homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1, 2], 1)) == entry_list(
        oracle_homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1, 2], 1))


# the hand-made data of tests/test_transfor.py: (target, f_minus, f_plus, h)
HAND = {
    "homotopy-omega0": ("omega0", [[[1, 1], [0, 0]], [[0], [0]]],
                        [[[0, 0], [1, 1]], [[0], [0]]], [[[1, 1], [0, 0]], [[0]]]),
    "non-pseudo-disk2": ("disk2", [[[1, 1], [0, 0]], [[0], [0]]],
                         [[[0, 0], [1, 1]], [[0], [0]]], [[[0, 1], [1, 0]], [[1]]]),
    "non-pseudo-omega0": ("omega0", [[[1, 1], [0, 0]], [[0], [0]]],
                          [[[0, 0], [1, 1]], [[0], [0]]], [[[0, 1], [1, 0]], [[1]]]),
}
TARGETS = {"omega0": with_group_cones_above(disk(2), 0), "disk2": disk(2)}


@pytest.mark.parametrize("name", sorted(HAND))
def test_hand_homotopies_match_the_oracle(name):
    target, fm, fp, h = HAND[name]
    src, tgt = NcModel(disk(1)), NcModel(TARGETS[target])
    assert entry_list(homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1, 2], 1)) == entry_list(
        oracle_homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1, 2], 1))


@pytest.mark.parametrize("source, target, f", [
    (disk(1), with_group_cones_above(disk(2), 0), [[[1, 0], [0, 1]], [[1], [0]]]),
    (disk(1), disk(1), [[[1, 0], [0, 1]], [[1]]]),
])
def test_hand_chain_maps_match_the_oracle(source, target, f):
    src, tgt = NcModel(source), NcModel(target)
    assert entry_list(chain_map_transfor(src, tgt, f, [0, 1, 2], 1)) == entry_list(
        oracle_chain_map_transfor(src, tgt, f, [0, 1, 2], 1))


def test_bad_hand_homotopy_fails_both_ways():
    src, tgt = NcModel(disk(1)), NcModel(TARGETS["omega0"])
    _, fm, fp, _ = HAND["homotopy-omega0"]
    bad_h = [[[0, 0], [0, 0]], [[0]]]
    for construct in (homotopy_lax_transfor, oracle_homotopy_lax_transfor):
        with pytest.raises(ValueError):
            construct(src, tgt, fm, fp, bad_h, [0], 1)
