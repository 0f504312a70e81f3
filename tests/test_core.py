import pytest

from cubeforge.core import (
    ALPHAS,
    CompositionError,
    NotInvertible,
    check_axioms,
    fold_tail,
    in_deg_image,
    is_thin,
    phi,
    psi,
    psi_block,
    shell_key,
)
from cubeforge.indices import DomainError

from cubical_models import BoxModel, PosetModel, grid2, is_shell


@pytest.fixture(scope="module")
def square():
    # the commutative square poset: bottom -> left/right -> top
    return PosetModel("blrt", [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")])


@pytest.fixture(scope="module")
def chain3():
    return PosetModel("abc", [("a", "b"), ("b", "c")])


def test_poset_cells_counts(chain3):
    assert len(chain3.cells(0, 0)) == 3
    # monotone edges in a 3-chain: 6 pairs a<=b
    assert len(chain3.cells(1, 0)) == 6


def test_poset_faces_and_degeneracies(chain3):
    A = chain3.cell(["a", "b", "b", "c"], 2)  # square a<=b, b<=c
    assert chain3.face(A, 1, "-").payload == ("a", "b")
    assert chain3.face(A, 1, "+").payload == ("b", "c")
    assert chain3.face(A, 2, "-").payload == ("a", "b")
    assert chain3.face(A, 2, "+").payload == ("b", "c")
    e = chain3.cell(["a", "c"], 1)
    assert chain3.deg(e, 1).payload == ("a", "c", "a", "c")
    assert chain3.deg(e, 2).payload == ("a", "a", "c", "c")


def test_poset_composition_and_errors(chain3):
    ab = chain3.cell(["a", "b"], 1)
    bc = chain3.cell(["b", "c"], 1)
    assert chain3.comp(ab, bc, 1).payload == ("a", "c")
    with pytest.raises(CompositionError):
        chain3.comp(bc, ab, 1)


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_poset_axioms(chain3, dim):
    cells = {n: chain3.cells(n, 0) for n in range(dim + 1)}
    report = check_axioms(chain3, dim, cells, max_pairs=80)
    assert report.ok, report.summary()


def test_poset_axioms_dim3(square):
    cells = {n: square.cells(n, 0) for n in range(4)}
    # trim dimension 3 to keep the check quick
    cells[3] = cells[3][:40]
    report = check_axioms(square, 3, cells, max_pairs=40)
    assert report.ok, report.summary()


class Corrupted(PosetModel):
    """Negative control: eps_1 swapped to eps_2 wrecks the axioms."""

    def deg(self, A, i):
        if A.dim >= 1 and i == 1:
            return super().deg(A, 2)
        return super().deg(A, i)


def test_corrupted_model_reports_violations():
    bad = Corrupted("abc", [("a", "b"), ("b", "c")])
    cells = {n: bad.cells(n, 0) for n in range(2)}
    report = check_axioms(bad, 1, cells, max_pairs=30)
    assert not report.ok
    assert any(v.family == "face-deg" for v in report.violations)


def test_thin_cells(chain3):
    e = chain3.cell(["a", "c"], 1)
    assert not is_thin(chain3, e)
    assert is_thin(chain3, chain3.deg(e, 1))
    assert is_thin(chain3, chain3.deg(e, 2))
    assert is_thin(chain3, chain3.conn(e, 1, "-"))
    assert is_thin(chain3, chain3.conn(e, 1, "+"))
    with pytest.raises(DomainError):
        is_thin(chain3, chain3.cell(["a"], 0))


def test_fold_operations(chain3):
    A = chain3.cell(["a", "b", "b", "c"], 2)
    assert phi(chain3, A, 0) == A
    f = chain3.cell(["a", "c"], 1)
    assert phi(chain3, f, 1) == f  # the level-1 block fold is empty
    folded = fold_tail(chain3, A)
    # after folding, both side faces are degenerate
    assert in_deg_image(chain3, chain3.face(folded, 2, "-"), 1)
    assert in_deg_image(chain3, chain3.face(folded, 2, "+"), 1)
    assert psi_block(chain3, A, 2) == psi(chain3, A, 1)
    with pytest.raises(DomainError):
        psi(chain3, A, 2)


def test_shells(chain3):
    A = chain3.cell(["a", "b", "b", "c"], 2)
    box = BoxModel(chain3, 1)
    sh = box.embed(A)
    assert is_shell(chain3, 1, box.shell_faces(sh))
    assert box.face(sh, 1, "-") == chain3.face(A, 1, "-")
    e = chain3.cell(["a", "c"], 1)
    sh2 = box.embed(chain3.deg(e, 1))
    assert box.face(sh2, 1, "-") == e and box.face(sh2, 1, "+") == e
    # shell keys group equal shells
    assert shell_key(chain3, A) == shell_key(chain3, A)


def test_shell_from_connection(chain3):
    f = chain3.cell(["a", "c"], 1)
    box = BoxModel(chain3, 1)
    sh = box.shell_faces(box.embed(chain3.conn(f, 1, "-")))
    assert sh[(1, "-")] == f
    assert sh[(2, "-")] == f
    assert in_deg_image(chain3, sh[(1, "+")], 1)
    assert in_deg_image(chain3, sh[(2, "+")], 1)


def test_is_shell_refuses_a_replaced_face(chain3):
    # a 1-cell of a poset is fixed by its two vertices, and each vertex of
    # a square lies on two of its faces, so any replaced face breaks a
    # face-face identity
    squares = chain3.cells(2, 0)
    box = BoxModel(chain3, 1)
    slots = [(i, a) for i in (1, 2) for a in ALPHAS]
    refused = 0
    for A in squares:
        faces = box.shell_faces(box.embed(A))
        assert is_shell(chain3, 1, faces)
        for B in squares:
            for slot in slots:
                other = chain3.face(B, *slot)
                if other != faces[slot]:
                    assert not is_shell(chain3, 1, {**faces, slot: other})
                    refused += 1
    assert refused


def test_box_model_axioms(chain3):
    box = BoxModel(chain3, 1)
    cells = {0: chain3.cells(0, 0), 1: chain3.cells(1, 0), 2: box.cells(2, 0)}
    report = check_axioms(box, 2, cells, max_pairs=60)
    assert report.ok, report.summary()
    # a real 2-cell embeds as its shell key, which is among the box cells
    shells = {c.payload for c in cells[2]}
    for A in chain3.cells(2, 0):
        assert box.embed(A).payload == shell_key(chain3, A)
        assert box.embed(A).payload in shells


def test_box_eps_face_roundtrip(chain3):
    box = BoxModel(chain3, 1)
    e = chain3.cell(["a", "c"], 1)
    s = box.deg(e, 1)
    assert box.face(s, 1, "-") == e and box.face(s, 1, "+") == e
    # embedding a real 2-cell gives its shell
    A = chain3.cell(["a", "b", "b", "c"], 2)
    sh = box.embed(A)
    assert box.face(sh, 2, "+") == chain3.face(A, 2, "+")


def test_box_cells_are_compatible_families(chain3):
    box = BoxModel(chain3, 0)
    shells = box.cells(1, 0)
    # 1-shells over a poset are pairs of 0-cells; all 9 pairs
    assert len(shells) == 9
    for s in shells:
        faces = box.shell_faces(s)
        assert set(faces) == {(1, "-"), (1, "+")}


def test_poset_r_inverse_oracle(chain3):
    e = chain3.cell(["a", "c"], 1)
    with pytest.raises(NotInvertible):
        chain3.r_inverse(e, 1)
    const = chain3.cell(["a", "a"], 1)
    assert chain3.r_inverse(const, 1) == const
    assert chain3.has_r_inverse(const, 1)
    assert not chain3.has_r_inverse(e, 1)


def test_grid2_interchange(chain3):
    A = chain3.cell(["a", "a", "a", "b"], 2)
    B = chain3.cell(["a", "b", "b", "b"], 2)
    C = chain3.cell(["a", "b", "a", "b"], 2)
    D = chain3.cell(["b", "b", "b", "c"], 2)
    # (A *_2 B), (C *_2 D) composable along 1; the row-major grid equals
    # the column-major composite
    out = grid2(chain3, [[A, B], [C, D]], 2, 1)
    comp = chain3.comp
    assert chain3.equal(out, comp(comp(A, C, 1), comp(B, D, 1), 2))


def test_shell_requires_all_faces(chain3):
    e = chain3.cell(["a", "c"], 1)
    with pytest.raises(ValueError):
        is_shell(chain3, 0, {(1, "-"): e})
