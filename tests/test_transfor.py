import random

import pytest

from cubeforge.adc import SOURCE_MINUS_TARGET, TARGET_MINUS_SOURCE, disk, with_group_cones_above
from cubeforge.nerve import NcModel
from cubeforge.transfor import (
    LAX,
    OPLAX,
    chain_map_transfor,
    homotopy_lax_transfor,
    is_pseudo,
    make_table,
    random_homotopy_data,
    random_tensor_map,
    tensor_transfor,
    to_lax,
    to_oplax,
    transfor_comp,
    transfor_conn,
    transfor_deg,
    transfor_face,
    validate_transfor,
)


@pytest.fixture(scope="module")
def models():
    src = NcModel(disk(1))
    tgt = NcModel(with_group_cones_above(disk(2), 0))
    return src, tgt


@pytest.fixture(scope="module")
def identityish(models):
    src, tgt = models
    f = [[[1, 0], [0, 1]], [[1], [0]]]  # s0->s0, t0->t0, x->s1
    return chain_map_transfor(src, tgt, f, [0, 1], 1)


@pytest.fixture(scope="module")
def homotopy_table(models):
    src, tgt = models
    f_minus = [[[1, 1], [0, 0]], [[0], [0]]]
    f_plus = [[[0, 0], [1, 1]], [[0], [0]]]
    h = [[[1, 1], [0, 0]], [[0]]]
    return homotopy_lax_transfor(src, tgt, f_minus, f_plus, h, [0, 1], 1)


def test_zero_transfor_valid_both_ways(models, identityish):
    src, tgt = models
    assert validate_transfor(identityish).ok
    # the same entries read as oplax are also a valid 0-transfor
    as_oplax = make_table(OPLAX, 0, src, tgt, list(identityish.pairs()))
    assert validate_transfor(as_oplax).ok
    assert is_pseudo(identityish)


def test_dimension_law_enforced(models, identityish):
    src, tgt = models
    x = src.cells(0, 1)[0]
    img2 = next(iter(identityish.entries[1]))[1]
    with pytest.raises(ValueError):
        make_table(LAX, 0, src, tgt, [(x, img2)])


def test_negative_control_swapped_face(models, identityish):
    src, tgt = models
    # corrupt one image: replace a 1-cell's image by a cell with a swapped
    # boundary (the reversal of the identity edge image)
    pairs = []
    for A, FA in identityish.pairs():
        if A.dim == 1 and any(src.value(A, "0")) and tgt.has_r_inverse(FA, 1):
            FA = tgt.r_inverse(FA, 1)
        pairs.append((A, FA))
    bad = make_table(LAX, 0, src, tgt, pairs)
    report = validate_transfor(bad)
    assert not report.ok
    assert any("boundary law" in v for v in report.violations)


def test_homotopy_transfor_validates(homotopy_table):
    report = validate_transfor(homotopy_table)
    assert report.ok, report.summary()
    assert report.checked.get("boundary", 0) > 0
    assert report.checked.get("composition", 0) > 0


def test_homotopy_law_checked(models):
    src, tgt = models
    f_minus = [[[1, 1], [0, 0]], [[0], [0]]]
    f_plus = [[[0, 0], [1, 1]], [[0], [0]]]
    bad_h = [[[0, 0], [0, 0]], [[0]]]  # fails d h + h d = f+ - f-
    with pytest.raises(ValueError):
        homotopy_lax_transfor(src, tgt, f_minus, f_plus, bad_h, [0], 1)


def test_transfor_face_is_chain_map_table(homotopy_table):
    F = homotopy_table
    for alpha in "-+":
        dF = transfor_face(F, 1, alpha)
        assert dF.p == 0
        assert validate_transfor(dF).ok


def test_transfor_deg_and_conn_validate(homotopy_table):
    F = homotopy_table
    for i in (1, 2):
        assert validate_transfor(transfor_deg(F, i)).ok
    assert validate_transfor(transfor_conn(F, 1, "-")).ok
    assert validate_transfor(transfor_conn(F, 1, "+")).ok


def test_pseudo_via_recursion_and_direct(homotopy_table):
    assert is_pseudo(homotopy_table, direct_samples=4, rng=random.Random(0))


def test_non_pseudo_detected(models):
    src = models[0]
    tgt_plain = NcModel(disk(2))  # positive cones: nothing inverts
    f_minus = [[[1, 1], [0, 0]], [[0], [0]]]
    f_plus = [[[0, 0], [1, 1]], [[0], [0]]]
    # h sends the arrow to the positive top generator, whose negative
    # escapes the cone, so one image 2-cell is not invertible
    h = [[[0, 1], [1, 0]], [[1]]]
    F = homotopy_lax_transfor(src, tgt_plain, f_minus, f_plus, h, [0, 1], 1)
    assert validate_transfor(F).ok
    assert not is_pseudo(F)
    # the same table into the group-cone target is pseudo
    F2 = homotopy_lax_transfor(src, models[1], f_minus, f_plus, h, [0, 1], 1)
    assert is_pseudo(F2, direct_samples=3, rng=random.Random(2))


def test_conversion_roundtrip(homotopy_table):
    G = to_oplax(homotopy_table)
    assert G.variance == OPLAX
    assert validate_transfor(G).ok
    back = to_lax(G)
    assert back.same_table(homotopy_table)
    with pytest.raises(ValueError):
        to_oplax(G)


def test_conversion_commutes_with_face(homotopy_table):
    F = homotopy_table
    P = to_oplax(F)
    for alpha in "-+":
        left = to_oplax(transfor_face(F, 1, alpha)) if transfor_face(F, 1, alpha).variance == LAX else None
        dF = transfor_face(F, 1, alpha)
        # p = 0 conversion is the identity on entries
        converted = make_table(OPLAX, 0, dF.source, dF.target, list(dF.pairs()))
        assert converted.same_table(transfor_face(P, 1, alpha))


def test_conversion_commutes_with_deg_and_conn(homotopy_table):
    F = homotopy_table
    P = to_oplax(F)
    for i in (1, 2):
        assert to_oplax(transfor_deg(F, i)).same_table(transfor_deg(P, i))
    for alpha in "-+":
        assert to_oplax(transfor_conn(F, 1, alpha)).same_table(
            transfor_conn(P, 1, alpha)
        )


def test_conversion_commutes_with_comp(models):
    src, tgt = models
    rng = random.Random(99)
    fm, fp, h1 = random_homotopy_data(src, tgt, rng)
    F = homotopy_lax_transfor(src, tgt, fm, fp, h1, [0, 1], 1)
    # G starts where F ends: pin f_minus of G to f_plus of F
    _, fp2, h2 = random_homotopy_data(src, tgt, rng, start=fp)
    G = homotopy_lax_transfor(src, tgt, fp, fp2, h2, [0, 1], 1)
    FG = transfor_comp(F, G, 1)
    assert validate_transfor(FG).ok
    assert is_pseudo(FG)
    assert to_oplax(FG).same_table(transfor_comp(to_oplax(F), to_oplax(G), 1))


def test_random_homotopy_generator(models):
    src, tgt = models
    rng = random.Random(7)
    for _ in range(5):
        fm, fp, h = random_homotopy_data(src, tgt, rng)
        F = homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1], 1)
        assert validate_transfor(F).ok
        assert is_pseudo(F)
        G = to_oplax(F)
        assert validate_transfor(G).ok
        assert to_lax(G).same_table(F)


def test_identity_counts_one_degeneracy_per_vertex():
    D = NcModel(disk(1))
    F = chain_map_transfor(D, D, [[[1, 0], [0, 1]], [[1]]], [0, 1], 1)
    report = validate_transfor(F)
    assert report.ok, report.summary()
    assert report.checked["degeneracy"] == len(D.cells(0, 1)) == 2


def test_degeneracy_checked_at_last_slot():
    # replace the image of eps_2 A by eps_1 F(A) for one non-degenerate
    # 1-cell A: only the law at slot n+1 = 2 compares against it
    D = NcModel(disk(1))
    F = chain_map_transfor(D, D, [[[1, 0], [0, 1]], [[1]]], [0, 1, 2], 1)
    A = next(A for A in D.cells(1, 1) if any(D.value(A, "0")))
    E2 = D.deg(A, 2)
    assert not D.equal(E2, D.deg(A, 1))
    pairs = [(B, D.deg(F.image(A), 1) if D.equal(B, E2) else FB) for B, FB in F.pairs()]
    report = validate_transfor(make_table(LAX, 0, D, D, pairs))
    assert "degeneracy law fails at dim 1, i=2" in report.violations
    assert "degeneracy law fails at dim 1, i=1" not in report.violations


def test_chain_map_law_checked():
    # x -> 0 breaks d f = f d; at dims [0] no image would show it
    D = NcModel(disk(1))
    with pytest.raises(ValueError, match="not a chain map"):
        chain_map_transfor(D, D, [[[1, 0], [0, 1]], [[0]]], [0], 1)


def test_chain_map_conventions_must_agree():
    src, tgt = NcModel(disk(1)), NcModel(disk(1, SOURCE_MINUS_TARGET))
    with pytest.raises(ValueError, match="d_convention"):
        chain_map_transfor(src, tgt, [[[1, 0], [0, 1]], [[1]]], [0], 1)


# ---------------------------------------------------------------------------
# p = 2: modifications from chain maps out of cube(2) ⊗ disk(1)

CONVENTIONS = [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET]


def _modifications(target, conv, seed, count):
    src, tgt = NcModel(disk(1, conv)), NcModel(target)
    rng = random.Random(seed)
    return rng, [tensor_transfor(src, tgt, random_tensor_map(src, tgt, 2, rng), 2, [0, 1], 1)
                 for _ in range(count)]


@pytest.mark.parametrize("conv", CONVENTIONS)
@pytest.mark.parametrize("target", ["omega0", "omega1-disk3"])
def test_p2_tables_convert_and_commute(conv, target):
    K = {"omega0": with_group_cones_above(disk(2, conv), 0),
         "omega1-disk3": with_group_cones_above(disk(3, conv), 1)}[target]
    rng, tables = _modifications(K, conv, 5, 3)
    for F in tables:
        assert F.p == 2 and F.dims() == [0, 1]
        assert validate_transfor(F).ok
        assert is_pseudo(F, direct_samples=3, rng=rng)
        G = to_oplax(F)
        assert validate_transfor(G).ok
        assert to_lax(G).same_table(F)
        for i in (1, 2):
            for alpha in "-+":
                assert to_oplax(transfor_face(F, i, alpha)).same_table(transfor_face(G, i, alpha))
                assert to_oplax(transfor_conn(F, i, alpha)).same_table(transfor_conn(G, i, alpha))
        for i in (1, 2, 3):
            assert to_oplax(transfor_deg(F, i)).same_table(transfor_deg(G, i))


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_p2_pseudo_exactly_where_images_invert(conv):
    rng, tables = _modifications(disk(2, conv), conv, 11, 10)
    pseudo = [is_pseudo(F) for F in tables]
    assert any(pseudo) and not all(pseudo)
    for F, p in zip(tables, pseudo):
        assert validate_transfor(F).ok
        if p:
            assert is_pseudo(F, direct_samples=4, rng=rng)
            assert to_lax(to_oplax(F)).same_table(F)
