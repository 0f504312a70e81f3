import random

import pytest

from cubeforge.adc import disk, with_group_cones_above
from cubeforge.core import NotInvertible, OracleUnavailable, PosetModel, fold_tail, is_thin
from cubeforge.indices import DomainError
from cubeforge.invert import (
    Comp,
    Conn,
    Eps,
    Leaf,
    classify_omega_p,
    eval_expr,
    has_r_invertible_shell,
    has_t_invertible_shell,
    is_plain_invertible,
    is_sigma_invertible,
    is_t_invertible,
    plain_witness,
    r_inverse,
    r_inverse_by_closure,
    sigma_act,
    t_inverse,
    verify_r_inverse,
    verify_t_inverse,
)
from cubeforge.nerve import NcModel
from cubeforge.perms import Perm, TWord


@pytest.fixture(scope="module")
def omega0():
    return NcModel(with_group_cones_above(disk(2), 0))


@pytest.fixture(scope="module")
def plain_disk2():
    return NcModel(disk(2))


@pytest.fixture(scope="module")
def sample2(omega0):
    rng = random.Random(2024)
    return omega0.sample_cells(2, 50, 1, rng)


@pytest.fixture(scope="module")
def sample3(omega0):
    rng = random.Random(2025)
    return omega0.sample_cells(3, 30, 1, rng)


def test_verify_r_inverse_degenerate(omega0):
    x = omega0.cells(1, 1)[0]
    e = omega0.deg(x, 1)
    assert verify_r_inverse(omega0, e, e, 1)


def test_verify_r_inverse_rejects_non_idempotent(omega0):
    A = next(c for c in omega0.cells(1, 1) if any(omega0.value(c, "0")))
    assert not verify_r_inverse(omega0, A, A, 1)


def test_r_inverse_verified_and_witnessed(omega0, sample2):
    for A in sample2[:20]:
        for k in (1, 2):
            B = r_inverse(omega0, A, k)
            assert verify_r_inverse(omega0, A, B, k)


def test_closure_composite_reversal(omega0, sample2):
    by_face = {}
    for B in sample2:
        by_face.setdefault(omega0.face(B, 1, "-").payload, []).append(B)
    pairs = [
        (A, B)
        for A in sample2
        for B in by_face.get(omega0.face(A, 1, "+").payload, ())
    ]
    assert pairs
    for A, B in pairs[:12]:
        # same-direction composites reverse in the opposite order
        got = r_inverse_by_closure(omega0, Comp(1, Leaf(A), Leaf(B)), 1)
        expect = omega0.comp(omega0.r_inverse(B, 1), omega0.r_inverse(A, 1), 1)
        assert omega0.equal(got, expect)
        # other directions act componentwise
        got2 = r_inverse_by_closure(omega0, Comp(1, Leaf(A), Leaf(B)), 2)
        expect2 = omega0.comp(omega0.r_inverse(A, 2), omega0.r_inverse(B, 2), 1)
        assert omega0.equal(got2, expect2)


def test_closure_eps_and_conn(omega0, sample2):
    for A in sample2[:10]:
        for i in (1, 2, 3):
            E = Eps(i, Leaf(A))
            assert omega0.equal(
                r_inverse_by_closure(omega0, E, i), eval_expr(omega0, E)
            )
        # eps commutes with reversal up to index shift
        got = r_inverse_by_closure(omega0, Eps(1, Leaf(A)), 2)
        assert omega0.equal(got, omega0.deg(omega0.r_inverse(A, 1), 1))
        for i in (1, 2):
            for alpha in "-+":
                for k in (1, 2, 3):
                    r_inverse_by_closure(omega0, Conn(i, alpha, Leaf(A)), k)


def test_closure_supplied_component_inverses(omega0, sample2):
    A = sample2[0]
    leaf = Leaf(A, inverses={1: omega0.r_inverse(A, 1)})
    assert omega0.equal(
        r_inverse_by_closure(omega0, Eps(2, leaf), 1),
        omega0.deg(omega0.r_inverse(A, 1), 2),
    )
    with pytest.raises(DomainError):
        r_inverse_by_closure(omega0, Eps(2, leaf), 3)  # needs direction 2


def test_plain_invertibility(omega0, plain_disk2):
    for A in omega0.cells(2, 1)[:50]:
        assert is_plain_invertible(omega0, A)
    fat = next(
        c for c in plain_disk2.cells(2, 1) if any(plain_disk2.value(c, "00"))
    )
    assert not is_plain_invertible(plain_disk2, fat)
    A = omega0.cells(2, 1)[0]
    assert verify_r_inverse(omega0, fold_tail(omega0, A), plain_witness(omega0, A), 1)


def test_thin_cells_are_plain_invertible(plain_disk2):
    x = plain_disk2.cells(1, 1)[0]
    for T in (
        plain_disk2.deg(x, 1),
        plain_disk2.deg(x, 2),
        plain_disk2.conn(x, 1, "-"),
        plain_disk2.conn(x, 1, "+"),
    ):
        assert is_thin(plain_disk2, T)
        assert is_plain_invertible(plain_disk2, T)


def test_t_inverse_properties(omega0, sample2):
    for A in sample2[:25]:
        T = t_inverse(omega0, A, 1)
        assert verify_t_inverse(omega0, A, T, 1)
        assert omega0.equal(t_inverse(omega0, T, 1), A)
        assert omega0.equal(T, omega0.t_inverse(A, 1))  # matches closed formula


def test_t_of_connection_and_degeneracy(omega0):
    # T_j Gamma_j^a x = Gamma_j^a x and T_j eps_j x = eps_(j+1) x
    for x in omega0.cells(1, 1):
        for alpha in "-+":
            G = omega0.conn(x, 1, alpha)
            assert omega0.equal(t_inverse(omega0, G, 1), G)
        assert omega0.equal(
            t_inverse(omega0, omega0.deg(x, 1), 1), omega0.deg(x, 2)
        )


def test_t_thin_preservation(plain_disk2):
    x = plain_disk2.cells(1, 1)[0]
    for T in (plain_disk2.conn(x, 1, "-"), plain_disk2.deg(x, 1)):
        assert is_thin(plain_disk2, t_inverse(plain_disk2, T, 1))


def test_shell_conditions(plain_disk2, omega0, sample2):
    # every 2-cell has a transposition-invertible shell at 1 (vacuous faces)
    for A in plain_disk2.cells(2, 1)[:20]:
        assert has_t_invertible_shell(plain_disk2, A, 1)
    # degenerate cells have reversal-invertible shells
    x = plain_disk2.cells(1, 1)[0]
    assert has_r_invertible_shell(plain_disk2, plain_disk2.deg(x, 1), 1)
    # negative case: a 2-cell over plain disk(2) with a non-invertible face
    bad = next(
        c
        for c in plain_disk2.cells(2, 1)
        if any(plain_disk2.value(plain_disk2.face(c, 2, "-"), "0"))
    )
    assert not has_r_invertible_shell(plain_disk2, bad, 1)


def test_equivalence_of_characterisations(plain_disk2, omega0, sample2):
    # reversal-invertible iff plain invertible with reversal-invertible shell
    for model, cells in ((plain_disk2, plain_disk2.cells(2, 1)), (omega0, sample2)):
        for A in cells:
            for j in (1, 2):
                closed = model.has_r_inverse(A, j)
                composite = is_plain_invertible(model, A) and has_r_invertible_shell(
                    model, A, j
                )
                assert closed == composite
    # transposition analogue at 1
    for A in plain_disk2.cells(2, 1):
        t_closed = is_t_invertible(plain_disk2, A, 1)
        t_composite = is_plain_invertible(plain_disk2, A) and has_t_invertible_shell(
            plain_disk2, A, 1
        )
        assert t_closed == t_composite


def test_composite_of_invertibles_is_invertible(omega0, sample2):
    by_face = {}
    for B in sample2:
        by_face.setdefault(omega0.face(B, 1, "-").payload, []).append(B)
    checked = 0
    for A in sample2:
        for B in by_face.get(omega0.face(A, 1, "+").payload, ()):
            AB = omega0.comp(A, B, 1)
            assert is_plain_invertible(omega0, AB)
            checked += 1
    assert checked > 5


def test_sigma_act_identity(omega0, sample3):
    one = Perm.identity(3)
    for A in sample3[:5]:
        assert omega0.equal(sigma_act(omega0, A, one), A)


def test_sigma_act_reduced_word_independence(omega0, sample3):
    w0 = Perm((3, 2, 1))
    b1, b2 = TWord(3, (1, 2, 1)), TWord(3, (2, 1, 2))
    for A in sample3[:15]:
        assert omega0.equal(
            sigma_act(omega0, A, w0, word=b1), sigma_act(omega0, A, w0, word=b2)
        )
    with pytest.raises(DomainError):
        sigma_act(omega0, sample3[0], w0, word=TWord(3, (1, 1, 1, 2, 1)))


def test_sigma_act_faces(omega0, sample3):
    # faces of a permuted cell: direction j of sigma.A is the boundary
    # permutation acting on the (j . sigma)-face of A
    from cubeforge.perms import boundary_perm
    import itertools

    perms = [Perm(p) for p in itertools.permutations((1, 2, 3))]
    for A in sample3[:6]:
        for sigma in perms:
            SA = sigma_act(omega0, A, sigma)
            for j in (1, 2, 3):
                for a in "-+":
                    lhs = omega0.face(SA, j, a)
                    rhs = sigma_act(
                        omega0,
                        omega0.face(A, sigma.apply(j), a),
                        boundary_perm(sigma, j),
                    )
                    assert omega0.equal(lhs, rhs)


def test_sigma_on_degenerate(omega0, sample2):
    # sigma . eps_i A = eps_{i.sigma^-}(boundary_perm(sigma, i.sigma^-) . A)
    from cubeforge.perms import boundary_perm
    import itertools

    perms = [Perm(p) for p in itertools.permutations((1, 2, 3))]
    for A in sample2[:6]:
        for sigma in perms:
            for i in (1, 2, 3):
                E = omega0.deg(A, i)
                lhs = sigma_act(omega0, E, sigma)
                j = sigma.inverse().apply(i)
                rhs = omega0.deg(sigma_act(omega0, A, boundary_perm(sigma, j)), j)
                assert omega0.equal(lhs, rhs)


def test_sigma_on_connection(omega0, sample2):
    # the connection formula needs (i+1).sigma^- = i.sigma^- + 1
    from cubeforge.perms import boundary_perm
    import itertools

    perms = [Perm(p) for p in itertools.permutations((1, 2, 3))]
    for A in sample2[:5]:
        for sigma in perms:
            inv_s = sigma.inverse()
            for i in (1, 2):
                if inv_s.apply(i + 1) != inv_s.apply(i) + 1:
                    continue
                for alpha in "-+":
                    G = omega0.conn(A, i, alpha)
                    lhs = sigma_act(omega0, G, sigma)
                    j = inv_s.apply(i)
                    rhs = omega0.conn(
                        sigma_act(omega0, A, boundary_perm(sigma, j)), j, alpha
                    )
                    assert omega0.equal(lhs, rhs)


def test_not_invertible_reports_prefix(plain_disk2):
    fat = next(
        c for c in plain_disk2.cells(2, 1) if any(plain_disk2.value(c, "00"))
    )
    with pytest.raises(NotInvertible) as err:
        sigma_act(plain_disk2, fat, Perm((2, 1)))
    assert "T1" in str(err.value)
    assert not is_sigma_invertible(plain_disk2, fat, Perm((2, 1)))


def test_classifier_reports(plain_disk2, omega0):
    rep = classify_omega_p(plain_disk2, [1, 2], bound=1)
    assert rep.p_estimate == 2
    assert rep.consistent
    assert any(e.witness is not None for e in rep.evidence)
    assert "witness" in rep.summary()

    rep0 = classify_omega_p(omega0, [1, 2], bound=1)
    assert rep0.p_estimate == 0
    assert rep0.consistent


def test_classifier_deterministic(plain_disk2):
    r1 = classify_omega_p(plain_disk2, [1, 2], bound=1,
                          extra_random=10, rng=random.Random(5))
    r2 = classify_omega_p(plain_disk2, [1, 2], bound=1,
                          extra_random=10, rng=random.Random(5))
    assert r1.summary() == r2.summary()


def test_classifier_refuses_extra_cells_it_cannot_draw(plain_disk2):
    """Extra random cells need an rng and a sampler; without either the
    classifier raises rather than check the enumerated cells alone."""
    with pytest.raises(ValueError, match="extra_random"):
        classify_omega_p(plain_disk2, [1, 2], bound=1, extra_random=10)
    poset = PosetModel("ab", [("a", "b")])
    with pytest.raises(ValueError, match="extra_random"):
        classify_omega_p(poset, [1], extra_random=3, rng=random.Random(5))


def test_oracle_unavailable():
    from cubeforge.core import CubModel, Cell

    class NoOracle(CubModel):
        max_dim = 2

    m = NoOracle()
    with pytest.raises(OracleUnavailable):
        m.r_inverse(Cell(m, 1, ()), 1)


def test_poset_oracle_plugs_in():
    poset = PosetModel("abc", [("a", "b"), ("b", "c")])
    const = poset.cell(["a", "a"], 1)
    assert is_plain_invertible(poset, const)
    arrow = poset.cell(["a", "b"], 1)
    assert not is_plain_invertible(poset, arrow)


def test_omega1_every_cell_transposition_invertible():
    # group cones above degree 1: every 2-cell and 3-cell is
    # transposition-invertible at every index
    model = NcModel(with_group_cones_above(disk(2), 1))
    rng = random.Random(31)
    for A in model.cells(2, 1)[:60] + model.sample_cells(3, 25, 1, rng):
        for i in range(1, A.dim):
            assert is_t_invertible(model, A, i)
            t_inverse(model, A, i)  # constructs and verifies


def test_omega0_every_cell_reverses_everywhere(omega0, sample2, sample3):
    for A in sample2[:40] + sample3[:20]:
        for i in range(1, A.dim + 1):
            assert omega0.has_r_inverse(A, i)
