"""The globular laws on both globular models: full folds of cubical nerve
cells (`globular_cells`) and the globular nerve `NgModel`.  Both spell
source, target, identity and the composite over a k-boundary as d_1^-,
d_1^+, eps_1 and *_(n-k), and one checker (`check_globular`) checks them."""

import random

import pytest

from cubeforge.adc import cube, disk, tensor, with_group_cones_above
from cubeforge.core import check_globular, globular_cells, in_deg_image, phi, psi
from cubeforge.nerve import NcModel, NgModel


@pytest.fixture(scope="module")
def model():
    return NcModel(disk(2))


def test_identity_source_target(model):
    for m in (model, NgModel(disk(2))):
        for A in m.cells(1, 1):
            one = m.deg(A, 1)
            assert m.equal(m.face(one, 1, "-"), A)
            assert m.equal(m.face(one, 1, "+"), A)


def test_source_of_composite(model):
    for m, ones in ((model, globular_cells(model, model.cells(1, 1))),
                    (NgModel(disk(2)), NgModel(disk(2)).cells(1, 1))):
        found = 0
        for A in ones:
            for B in ones:
                if m.equal(m.face(A, 1, "+"), m.face(B, 1, "-")):
                    assert m.equal(m.face(m.comp(A, B, 1), 1, "-"), m.face(A, 1, "-"))
                    found += 1
        assert found > 0


def test_globular_axiom_suite_on_folded_cells(model):
    rng = random.Random(17)
    cells = {
        0: model.cells(0, 1),
        1: globular_cells(model, model.cells(1, 1)),
        2: globular_cells(model, model.cells(2, 1) + model.sample_cells(2, 40, 2, rng)),
    }
    report = check_globular(model, cells, max_pairs=60)
    assert report.ok, report.summary()
    assert report.checked.get("glob-exchange", 0) > 0


def test_exchange_on_omega0_3_cells():
    model = NcModel(with_group_cones_above(disk(2), 0))
    rng = random.Random(23)
    cells = {
        0: model.cells(0, 1),
        1: globular_cells(model, model.sample_cells(1, 25, 1, rng)),
        2: globular_cells(model, model.sample_cells(2, 60, 1, rng)),
        3: globular_cells(model, model.sample_cells(3, 60, 1, rng)),
    }
    report = check_globular(model, cells, max_pairs=40)
    assert report.ok, report.summary()


@pytest.mark.parametrize("K, top, instances", [
    (disk(1), 2, 56),
    (disk(2), 2, 92),
    (disk(3), 3, 232),
    (with_group_cones_above(disk(2), 0), 2, 496),
    (with_group_cones_above(disk(3), 1), 3, 1004),
    (cube(2), 2, 216),
    (tensor(disk(1), disk(2)), 2, 422),
])
def test_globular_laws_on_the_globular_nerve(K, top, instances):
    ng = NgModel(K)
    report = check_globular(ng, {n: ng.cells(n, 1) for n in range(top + 1)}, max_pairs=60)
    assert report.ok, report.summary()
    assert sum(report.checked.values()) == instances


def test_phi_absorbs_psi():
    # folding an already folded direction changes nothing at full depth
    model = NcModel(disk(2))
    rng = random.Random(29)
    for A in model.sample_cells(2, 30, 1, rng) + model.sample_cells(3, 20, 1, rng):
        n = A.dim
        full = phi(model, A, n)
        for i in range(1, n):
            assert model.equal(phi(model, psi(model, A, i), n), full)


def test_gamma_cells_have_degenerate_sides(model):
    ng = NgModel(disk(2))
    for m, cells in ((model, globular_cells(model, model.cells(2, 1))), (ng, ng.cells(2, 1))):
        for A in cells:
            for a in "-+":
                assert in_deg_image(m, m.face(A, 2, a), 1)
