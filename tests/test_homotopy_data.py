"""`random_homotopy_data` against its column-by-column form.

The oracle below is the column-based construction that the matrix-based
one replaced.  Both must return equal matrices and leave the rng in the
same state, with and without a pinned `start`; the benchmark draws its
transfor tables from this function.
"""

import random

import pytest

from cubeforge.adc import SOURCE_MINUS_TARGET, cube, disk, with_group_cones_above
from cubeforge.nerve import NcModel
from cubeforge.transfor import homotopy_lax_transfor, random_homotopy_data, validate_transfor


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
                    cands = solver.vertex_chains(coeff_bound)
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
