import random

import pytest

from cubeforge.adc import disk, with_group_cones_above
from cubeforge.core import GammaView, check_axioms, phi, psi
from cubeforge.nerve import NcModel


@pytest.fixture(scope="module")
def view():
    model = NcModel(disk(2))
    return model, GammaView(model)


def test_identity_source_target(view):
    model, gv = view
    for A in model.cells(1, 1):
        one = gv.identity(A)
        assert model.equal(gv.src(one), A)
        assert model.equal(gv.tgt(one), A)


def test_source_of_composite(view):
    model, gv = view
    ones = [gv.globularize(A) for A in model.cells(1, 1)]
    found = 0
    for A in ones:
        for B in ones:
            if model.equal(gv.tgt(A), gv.src(B)):
                assert model.equal(gv.src(gv.comp(A, B, 0)), gv.src(A))
                found += 1
    assert found > 0


def test_globular_axiom_suite_on_folded_cells(view):
    model, gv = view
    rng = random.Random(17)
    cells = {
        0: model.cells(0, 1),
        1: gv.cells(1, model.cells(1, 1)),
        2: gv.cells(2, model.cells(2, 1) + model.sample_cells(2, 40, 2, rng)),
    }
    report = gv.check_globular(cells, max_pairs=60)
    assert report.ok, report.summary()
    assert report.checked.get("glob-exchange", 0) > 0


def test_exchange_on_omega0_3_cells():
    model = NcModel(with_group_cones_above(disk(2), 0))
    gv = GammaView(model)
    rng = random.Random(23)
    cells = {
        0: model.cells(0, 1),
        1: gv.cells(1, model.sample_cells(1, 25, 1, rng)),
        2: gv.cells(2, model.sample_cells(2, 60, 1, rng)),
        3: gv.cells(3, model.sample_cells(3, 60, 1, rng)),
    }
    report = gv.check_globular(cells, max_pairs=40)
    assert report.ok, report.summary()


def test_phi_absorbs_psi():
    # folding an already folded direction changes nothing at full depth
    model = NcModel(disk(2))
    rng = random.Random(29)
    for A in model.sample_cells(2, 30, 1, rng) + model.sample_cells(3, 20, 1, rng):
        n = A.dim
        full = phi(model, A, n)
        for i in range(1, n):
            assert model.equal(phi(model, psi(model, A, i), n), full)


def test_gamma_cells_have_degenerate_sides(view):
    model, gv = view
    from cubeforge.core import in_deg_image

    for A in gv.cells(2, model.cells(2, 1)):
        for j in (2,):
            for a in "-+":
                assert in_deg_image(model, model.face(A, j, a), 1)
