"""Byte-exact CLI output: stdout and exit code against recorded goldens.

The README promises byte-identical output for fixed inputs, seed and
flags; these cases pin it.  Each golden under ``tests/golden/`` is the
exact stdout of one call.  Inputs that need a file (a corrupted complex,
the omega0 complex, transfor tables) are written to a temporary
directory; no path appears in the output.
"""

import json
from pathlib import Path

import pytest

from cubeforge.adc import disk, save_adc, to_json_dict, with_group_cones_above
from cubeforge.cli import main
from cubeforge.nerve import NcModel, _shape
from cubeforge.transfor import chain_map_transfor, homotopy_lax_transfor

GOLDEN = Path(__file__).parent / "golden"


def _table(F, adc_source, adc_target) -> dict:
    def assignment(model, A):
        return {k: list(A.payload[pos]) for pos, (_, k) in enumerate(model.elements(A.dim))}

    return {
        "variance": F.variance,
        "p": F.p,
        "adc_source": adc_source,
        "adc_target": adc_target,
        "entries": [{"dim": A.dim, "cell": assignment(F.source, A),
                     "image": assignment(F.target, FA)} for A, FA in F.pairs()],
    }


def _corrupted_disk2(tmp: Path) -> str:
    data = to_json_dict(disk(2))
    data["boundary"]["2"] = [[1], [1]]  # d[x] = s1 + t1: breaks d o d = 0
    path = tmp / "bad.adc"
    path.write_text(json.dumps(data))
    return str(path)


def _omega0(tmp: Path) -> str:
    path = tmp / "omega0.adc"
    save_adc(with_group_cones_above(disk(2), 0), str(path))
    return str(path)


def _identity_table(tmp: Path) -> str:
    model = NcModel(disk(1))
    F = chain_map_transfor(model, model, [[[1, 0], [0, 1]], [[1]]], [0, 1], 1)
    path = tmp / "id.transfor"
    path.write_text(json.dumps(_table(F, "disk:1", "disk:1")))
    return str(path)


def _homotopy_table(tmp: Path) -> str:
    src, tgt = NcModel(disk(1)), NcModel(with_group_cones_above(disk(2), 0))
    f_minus = [[[1, 1], [0, 0]], [[0], [0]]]
    f_plus = [[[0, 0], [1, 1]], [[0], [0]]]
    h = [[[1, 1], [0, 0]], [[0]]]
    F = homotopy_lax_transfor(src, tgt, f_minus, f_plus, h, [0, 1], 1)
    path = tmp / "f.transfor"
    path.write_text(json.dumps(_table(F, to_json_dict(src.K), to_json_dict(tgt.K))))
    return str(path)


# name -> (argv builder over a temporary directory, exit code)
CASES = {
    "check_disk2.txt": (lambda tmp: ["check", "--adc", "disk:2", "--dim", "2"], 0),
    "check_disk2.json": (lambda tmp: ["check", "--adc", "disk:2", "--dim", "2",
                                      "--format", "json"], 0),
    "check_corrupted.txt": (lambda tmp: ["check", "--adc", _corrupted_disk2(tmp),
                                         "--dim", "1"], 1),
    "classify_disk2.txt": (lambda tmp: ["classify", "--adc", "disk:2", "--dims", "1..2"], 0),
    "classify_disk2.json": (lambda tmp: ["classify", "--adc", "disk:2", "--dims", "1..2",
                                         "--format", "json"], 0),
    "classify_omega0.txt": (lambda tmp: ["classify", "--adc", _omega0(tmp),
                                         "--dims", "1..2"], 0),
    "classify_omega0.json": (lambda tmp: ["classify", "--adc", _omega0(tmp),
                                          "--dims", "1..2", "--format", "json"], 0),
    "transfor_validate.txt": (lambda tmp: ["transfor", "--table", _identity_table(tmp)], 0),
    "transfor_oplax.json": (lambda tmp: ["transfor", "--table", _homotopy_table(tmp),
                                         "--to", "oplax", "--format", "json"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, capsys):
    build, want_code = CASES[name]
    code = main(build(tmp_path))
    assert code == want_code
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("first", ["disk2", "omega0"])
def test_classify_goldens_hold_in_either_order(first, tmp_path, capsys):
    """disk(2) and omega0 have equal ranks and different cones, so their
    nerves share no record: classifying both in one process, in either
    order and each twice (the second call on the shape's compiled plans),
    prints the goldens."""
    _shape.cache_clear()
    names = ["classify_disk2.txt", "classify_omega0.txt"]
    for name in (names if first == "disk2" else names[::-1]) * 2:
        build, want_code = CASES[name]
        assert main(build(tmp_path)) == want_code
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes(), name
