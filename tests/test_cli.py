import json

import pytest

from cubeforge.adc import disk, save_adc, to_json_dict, with_group_cones_above
from cubeforge.cli import main
from cubeforge.core import is_thin
from cubeforge.invert import verify_r_inverse
from cubeforge.nerve import NcModel, _NerveBase, cell_to_json
from cubeforge.transfor import homotopy_lax_transfor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(tmp_path, capsys):
    path = tmp_path / "disk2.adc"
    save_adc(disk(2), str(path))
    code, out, _ = run(capsys, "check", "--adc", str(path), "--dim", "2", "--bound", "1")
    assert code == 0
    assert "result: ok" in out
    assert "cubeforge 0.1.0" in out
    assert "d_convention" in out


def test_check_corrupted_exit1(tmp_path, capsys):
    data = to_json_dict(disk(2))
    data["boundary"]["2"] = [[1], [1]]  # d[x] = s1 + t1: breaks d o d = 0
    path = tmp_path / "bad.adc"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check", "--adc", str(path), "--dim", "1")
    assert code == 1
    assert "d o d" in out


def test_check_missing_file_exit2(capsys):
    code, _, err = run(capsys, "check", "--adc", "nowhere.adc", "--dim", "1")
    assert code == 2
    assert "no such file" in err


@pytest.mark.parametrize("flag", ["--dim", "--bound", "--max-pairs"])
def test_check_negative_value_exit2(capsys, flag):
    code, out, err = run(capsys, "check", "--adc", "disk:2", flag, "-1")
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be >= 0, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "--adc", "disk:1", "--dim", "1", "--random", "-5"], "--random must be >= 0, got -5"),
    (["classify", "--adc", "disk:2", "--dims", "1..2", "--bound", "-1"],
     "--bound must be >= 0, got -1"),
    (["classify", "--adc", "disk:2", "--dims", "1..2", "--random", "-3"],
     "--random must be >= 0, got -3"),
    (["classify", "--adc", "disk:2", "--dims=-2..1"], "--dims must be >= 0, got '-2..1'"),
    (["check", "--adc", "disk:-1", "--dim", "1"], "disk:N needs N >= 0, got 'disk:-1'"),
    (["check", "--adc", "cube:-1", "--dim", "1"], "cube:N needs N >= 0, got 'cube:-1'"),
    (["check", "--adc", "disk:2", "--dim", "2", "--bound", "0"],
     "no 0-cells at bound 0, so nothing to check"),
    (["classify", "--adc", "disk:2", "--dims", "1..2", "--bound", "0"],
     "no 1-cells at bound 0, so nothing to check"),
    (["perm", "rho", "--n", "2", "--m", "-3"], "--m must be >= 0, got -3"),
    (["perm", "rho", "--n", "-1", "--m", "2"], "--n must be >= 0, got -1"),
    (["check", "--adc", "disk:x", "--dim", "1"], "disk:N needs an integer N, got 'disk:x'"),
    (["check", "--adc", "disk:", "--dim", "1"], "disk:N needs an integer N, got 'disk:'"),
    (["check", "--adc", "cube:1.5", "--dim", "1"], "cube:N needs an integer N, got 'cube:1.5'"),
])
def test_negative_input_exit2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "--adc", "disk:0", "--dim", "7"],
     "--dim must be <= 6, the nerve's dimension bound, got 7"),
    (["classify", "--adc", "disk:0", "--dims", "7..7"],
     "--dims end must be <= 6, the nerve's dimension bound, got 7"),
    (["classify", "--adc", "disk:2", "--dims", "1..9"],
     "--dims end must be <= 6, the nerve's dimension bound, got 9"),
])
def test_dimension_above_bound_exit2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_check_budget_exceeded_exit2(capsys, monkeypatch):
    cells = _NerveBase.cells
    monkeypatch.setattr(_NerveBase, "cells",
                        lambda self, n, bound: cells(self, n, bound, budget=50))
    code, out, err = run(capsys, "check", "--adc", "disk:2", "--dim", "2")
    assert code == 2 and out == ""
    assert err == ("error: enumeration of 2-cells at bound 1 exceeded 50 nodes; "
                   "lower the dimension or the bound\n")


def test_check_json_deterministic(tmp_path, capsys):
    path = tmp_path / "disk1.adc"
    save_adc(disk(1), str(path))
    args = ("check", "--adc", str(path), "--dim", "2", "--seed", "9",
            "--random", "5", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True and payload["version"]


def test_classify_printed_and_omega0(tmp_path, capsys):
    path = tmp_path / "disk2.adc"
    save_adc(disk(2), str(path))
    code, out, _ = run(capsys, "classify", "--adc", str(path), "--dims", "1..2")
    assert code == 0
    assert "p-estimate: >= 2" in out
    assert "witness" in out

    g = tmp_path / "omega0.adc"
    save_adc(with_group_cones_above(disk(2), 0), str(g))
    code, out, _ = run(capsys, "classify", "--adc", str(g), "--dims", "1..2")
    assert code == 0
    assert "p-estimate: >= 0" in out


def test_classify_empty_dims_exit2(capsys):
    code, _, err = run(capsys, "classify", "--adc", "disk:2", "--dims", "3..1")
    assert code == 2
    assert "empty" in err


def test_perm_commands(capsys):
    assert run(capsys, "perm", "boundary", "--word", "T1 T2", "--i", "2") == (0, "T1\n", "")
    assert run(capsys, "perm", "boundary", "--word", "T1 T2", "--i", "1")[1] == "1\n"
    assert run(capsys, "perm", "eval", "--word", "T1 T1")[1] == "(1 2)\n"
    assert run(capsys, "perm", "length", "--word", "T1 T2 T1")[1] == "3\n"
    assert run(capsys, "perm", "minrep", "--word", "T2 T1 T2")[1] == "T1 T2 T1\n"
    assert run(capsys, "perm", "rho", "--n", "1", "--m", "1")[1] == "(2 1)\n"
    assert run(capsys, "perm", "bc-eval", "--word", "R1 R1")[1] == "(1)\n"
    code, out, _ = run(capsys, "perm", "boundary", "--word", "T1 T2", "--i", "3",
                       "--format", "json")
    assert json.loads(out)["word"] == "T1"


def test_invert_thin_cell_stays_thin(tmp_path, capsys):
    model = NcModel(with_group_cones_above(disk(2), 0))
    x = next(c for c in model.cells(1, 1) if any(model.value(c, "0")))
    thin = model.conn(x, 1, "-")
    cellfile = tmp_path / "thin.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, thin)))
    code, out, _ = run(capsys, "invert", "--cell", str(cellfile), "--kind", "T",
                       "--i", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    back = model.make(data["dim"], {k: tuple(v) for k, v in data["assignment"].items()})
    assert is_thin(model, back)


def test_invert_not_invertible_exit1(tmp_path, capsys):
    model = NcModel(disk(2))
    fat = next(c for c in model.cells(2, 1) if any(model.value(c, "00")))
    cellfile = tmp_path / "fat.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, fat)))
    code, _, err = run(capsys, "invert", "--cell", str(cellfile), "--kind", "R", "--i", "1")
    assert code == 1
    assert "not invertible" in err
    # the offending basis element is named
    assert "0" in err


def test_invert_r_reverifies_the_closed_form(tmp_path, capsys, monkeypatch):
    model = NcModel(with_group_cones_above(disk(2), 0))
    A = next(c for c in model.cells(2, 1) if not verify_r_inverse(model, c, c, 1))
    cellfile = tmp_path / "a.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, A)))
    monkeypatch.setattr(NcModel, "r_inverse", lambda self, A, i: A)  # a corrupted closed form
    code, out, err = run(capsys, "invert", "--cell", str(cellfile), "--kind", "R", "--i", "1")
    assert code == 1 and out == ""
    assert err == "not invertible: oracle returned a bad reversal inverse in direction 1\n"


@pytest.mark.parametrize("kind, i", [("R", 0), ("R", 3), ("T", 0), ("T", 2)])
def test_invert_direction_out_of_range_exit2(tmp_path, capsys, kind, i):
    model = NcModel(with_group_cones_above(disk(2), 0))
    cellfile = tmp_path / "a.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, model.cells(2, 1)[5])))
    code, out, err = run(capsys, "invert", "--cell", str(cellfile), "--kind", kind,
                         "--i", str(i))
    what = "direction" if kind == "R" else "transposition"
    assert code == 2 and out == ""
    assert err == f"error: no {what} {i} on a 2-cell\n"


def test_invert_sigma(tmp_path, capsys):
    model = NcModel(with_group_cones_above(disk(2), 0))
    A = model.cells(2, 1)[5]
    cellfile = tmp_path / "a.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, A)))
    code, out, _ = run(capsys, "invert", "--cell", str(cellfile), "--kind", "sigma",
                       "--sigma", "T1", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 2


@pytest.mark.parametrize("argv, flags", [
    (["fold", "--psi", "1", "--phi", "9"], ("--psi", "--phi")),
    (["invert", "--kind", "R", "--i", "1", "--sigma", "T9"], ("--i", "--sigma")),
    (["invert", "--kind", "sigma", "--i", "7", "--sigma", "T1"], ("--i", "--sigma")),
])
def test_ignored_flag_exit2(tmp_path, capsys, argv, flags):
    """A flag the command would not read is a usage error naming both flags."""
    model = NcModel(with_group_cones_above(disk(2), 0))
    cellfile = tmp_path / "a.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, model.cells(2, 1)[5])))
    code, out, err = run(capsys, argv[0], "--cell", str(cellfile), *argv[1:])
    assert code == 2 and out == ""
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert all(flag in line for flag in flags)


def test_fold_phi2_degenerate_sides(tmp_path, capsys):
    model = NcModel(disk(2))
    A = next(c for c in model.cells(2, 1) if any(model.value(c, "00")))
    cellfile = tmp_path / "a.cell"
    cellfile.write_text(json.dumps(cell_to_json(model, A)))
    code, out, _ = run(capsys, "fold", "--cell", str(cellfile), "--phi", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    folded = model.make(data["dim"], {k: tuple(v) for k, v in data["assignment"].items()})
    from cubeforge.core import in_deg_image

    for a in "-+":
        assert in_deg_image(model, model.face(folded, 2, a), 1)


def test_transfor_convert_roundtrip(tmp_path, capsys):
    src = NcModel(disk(1))
    tgt = NcModel(with_group_cones_above(disk(2), 0))
    f_minus = [[[1, 1], [0, 0]], [[0], [0]]]
    f_plus = [[[0, 0], [1, 1]], [[0], [0]]]
    h = [[[1, 1], [0, 0]], [[0]]]
    F = homotopy_lax_transfor(src, tgt, f_minus, f_plus, h, [0, 1], 1)
    table = {
        "variance": "lax",
        "p": 1,
        "adc_source": to_json_dict(src.K),
        "adc_target": to_json_dict(tgt.K),
        "entries": [
            {
                "dim": A.dim,
                "cell": {k: list(A.payload[pos])
                         for pos, (_, k) in enumerate(src.elements(A.dim))},
                "image": {k: list(FA.payload[pos])
                          for pos, (_, k) in enumerate(tgt.elements(FA.dim))},
            }
            for A, FA in F.pairs()
        ],
    }
    path = tmp_path / "f.transfor"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "transfor", "--table", str(path), "--to", "oplax",
                       "--format", "json")
    assert code == 0
    converted = json.loads(out)
    assert converted["variance"] == "oplax"
    # write the converted table and convert back
    path2 = tmp_path / "g.transfor"
    path2.write_text(out)
    code, out2, _ = run(capsys, "transfor", "--table", str(path2), "--to", "lax",
                        "--format", "json")
    assert code == 0
    back = json.loads(out2)
    assert back["entries"] == table["entries"]


def test_transfor_validate_only(tmp_path, capsys):
    src = NcModel(disk(1))
    tgt = NcModel(disk(1))
    f_id = [[[1, 0], [0, 1]], [[1]]]
    from cubeforge.transfor import chain_map_transfor

    F = chain_map_transfor(src, tgt, f_id, [0, 1], 1)
    table = {
        "variance": "lax",
        "p": 0,
        "adc_source": "disk:1",
        "adc_target": "disk:1",
        "entries": [
            {
                "dim": A.dim,
                "cell": {k: list(A.payload[pos])
                         for pos, (_, k) in enumerate(src.elements(A.dim))},
                "image": {k: list(FA.payload[pos])
                          for pos, (_, k) in enumerate(tgt.elements(FA.dim))},
            }
            for A, FA in F.pairs()
        ],
    }
    path = tmp_path / "id.transfor"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "transfor", "--table", str(path))
    assert code == 0
    assert "valid: yes" in out


def test_shorthand_adc(capsys):
    code, out, _ = run(capsys, "check", "--adc", "disk:1", "--dim", "1",
                       "--orientation", "flipped")
    assert code == 0
    assert "source-minus-target" in out


def test_usage_error_exit2(capsys):
    code = main(["check"])  # missing --adc
    assert code == 2


def _disk1_identity_entries():
    src = NcModel(disk(1))
    from cubeforge.transfor import chain_map_transfor

    F = chain_map_transfor(src, src, [[[1, 0], [0, 1]], [[1]]], [0, 1], 1)
    return [
        {"dim": A.dim,
         "cell": {k: list(A.payload[pos]) for pos, (_, k) in enumerate(src.elements(A.dim))},
         "image": {k: list(FA.payload[pos]) for pos, (_, k) in enumerate(src.elements(FA.dim))}}
        for A, FA in F.pairs()
    ]


def test_transfor_invalid_prints_report(tmp_path, capsys):
    entries = _disk1_identity_entries()
    # the identity with the images of the two vertices swapped
    entries[0]["image"], entries[1]["image"] = entries[1]["image"], entries[0]["image"]
    path = tmp_path / "bad.transfor"
    path.write_text(json.dumps({"variance": "lax", "p": 0, "adc_source": "disk:1",
                                "adc_target": "disk:1", "entries": entries}))
    code, out, err = run(capsys, "transfor", "--table", str(path))
    assert code == 1 and out == ""
    assert err == ("checked 12 equation instances\n  boundary: 6\n  composition: 4\n"
                   + "  degeneracy: 2\n"
                   + 3 * "VIOLATION boundary law fails at dim 1, i=1, alpha=+\n"
                   + 3 * "VIOLATION boundary law fails at dim 1, i=1, alpha=-\n"
                   + 2 * "VIOLATION degeneracy law fails at dim 0, i=1\n")


@pytest.mark.parametrize("field", ["cell", "image"])
def test_transfor_entry_not_an_object_exit2(tmp_path, capsys, field):
    entries = _disk1_identity_entries()
    entries[0][field] = list(entries[0][field].values())
    path = tmp_path / "list.transfor"
    path.write_text(json.dumps({"variance": "lax", "p": 0, "adc_source": "disk:1",
                                "adc_target": "disk:1", "entries": entries}))
    code, out, err = run(capsys, "transfor", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: bad table file: an assignment must be a JSON object, "
                   "not list\n")


def test_transfor_no_entries_exit2(tmp_path, capsys):
    path = tmp_path / "empty.transfor"
    path.write_text(json.dumps({"variance": "lax", "p": 0, "adc_source": "disk:1",
                                "adc_target": "disk:1", "entries": []}))
    code, out, err = run(capsys, "transfor", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == "error: bad table file: no entries, so nothing to validate\n"


def _table(**fields):
    return {"variance": "lax", "p": 0, "adc_source": "disk:1", "adc_target": "disk:1",
            "entries": _disk1_identity_entries(), **fields}


def _entry(**fields):
    return {**_disk1_identity_entries()[2], **fields}  # a non-degenerate 1-cell


def _cell(**fields):
    entry = _entry()
    return {"kind": "cubical", "dim": 1, "adc": "disk:1", "assignment": entry["cell"], **fields}


def _complex(**fields):
    data = {**to_json_dict(disk(1)), **fields}  # degrees [["s0", "t0"], ["x"]]
    return {key: value for key, value in data.items() if value is not None}


BAD_FILES = {
    "table-dim-null": ("transfor", lambda: _table(entries=[_entry(dim=None)]), "not None"),
    "table-entries-int": ("transfor", lambda: _table(entries=5), "list of JSON objects"),
    "table-entries-lists": ("transfor", lambda: _table(entries=[[1]]), "list of JSON objects"),
    "table-entry-int": ("transfor", lambda: _table(entries=[5]), "list of JSON objects"),
    "table-top-level-list": ("transfor", lambda: [_table()], "expected a JSON object, not list"),
    "table-p-negative": ("transfor", lambda: _table(p=-1), "p must be an int >= 0, not -1"),
    "table-coefficient-int": (
        "transfor", lambda: _table(entries=[_entry(cell={**_entry()["cell"], "-": 1})]),
        "1-cell element '-' needs a list of 2 ints, got 1"),
    "table-coefficient-str": (
        "transfor", lambda: _table(entries=[_entry(cell={**_entry()["cell"], "-": "ab"})]),
        "1-cell element '-' needs a list of 2 ints, got 'ab'"),
    "table-missing-element": (
        "transfor", lambda: _table(entries=[_entry(cell={"+": [0, 1], "0": [1]})]),
        "1-cell element '-' needs a list of 2 ints, got nothing"),
    "cell-top-level-list": ("invert", lambda: [_cell()], "expected a JSON object, not list"),
    "cell-dim-null": ("invert", lambda: _cell(dim=None), "not None"),
    "cell-dim-negative": ("invert", lambda: _cell(dim=-1), "in 0..6, not -1"),
    "cell-dim-above-bound": ("fold", lambda: _cell(dim=9), "in 0..6, not 9"),
    "cell-coefficient-int": (
        "fold", lambda: _cell(assignment={**_cell()["assignment"], "0": 1}),
        "1-cell element '0' needs a list of 1 ints, got 1"),
    "cell-missing-element": (
        "invert", lambda: _cell(assignment={"-": [1, 0], "+": [0, 1]}),
        "1-cell element '0' needs a list of 1 ints, got nothing"),
    "table-inline-degrees-int": (
        "transfor", lambda: _table(adc_source={"degrees": 5}),
        "cannot read the complex 'adc_source': object of type 'int' has no len()"),
    "table-inline-cone-null": (
        "transfor", lambda: _table(adc_target={**to_json_dict(disk(1)), "cone": None}),
        "cannot read the complex 'adc_target': 'NoneType' object is not iterable"),
    "cell-inline-cone-int": (
        "invert", lambda: _cell(adc={**to_json_dict(disk(1)), "cone": 7}),
        "cannot read the complex 'adc': 'int' object is not iterable"),
    "cell-inline-missing-field": (
        "fold", lambda: _cell(adc={"degrees": [["x"]], "cone": ["nonneg"]}),
        "cannot read the complex 'adc': no field 'augmentation'"),
    "complex-cone-short": (
        "check", lambda: _complex(cone=["nonneg"]), "cone has 1 entries for 2 degrees, not 2"),
    "complex-cone-long": (
        "check", lambda: _complex(cone=["nonneg"] * 3), "cone has 3 entries for 2 degrees, not 2"),
    "complex-cone-misspelt": (
        "check", lambda: _complex(cone=["nonneg", "g"]), "cone at degree 1 is 'g', not"),
    "complex-cone-flag-misspelt": (
        "check", lambda: _complex(cone=["nonneg", ["nonegative"]]),
        "cone at degree 1 is ['nonegative'], not"),
    "complex-duplicate-names": (
        "check", lambda: _complex(degrees=[["s0", "s0"], ["x"]]),
        "degree 0 names the basis element 's0' twice"),
    "complex-boundary-columns": (
        "check", lambda: _complex(boundary={"1": [[-1, 0], [1, 0]]}),
        "boundary matrix at degree 1 has wrong shape: need 2 rows of 1"),
    "complex-no-boundary": (
        "check", lambda: _complex(boundary=None),
        "boundary matrix at degree 1 has wrong shape: need 2 rows of 1"),
    "complex-augmentation-long": (
        "check", lambda: _complex(augmentation=[1, 1, 1]),
        "augmentation vector has 3 entries, not 2"),
}


@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_malformed_file_exits_2_with_one_line(tmp_path, capsys, name):
    command, build, needle = BAD_FILES[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(build()))
    argv = {"transfor": ["transfor", "--table", str(path)],
            "invert": ["invert", "--cell", str(path), "--kind", "R", "--i", "1"],
            "fold": ["fold", "--cell", str(path)],
            "check": ["check", "--adc", str(path)]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err and needle in err
    prefix = {"transfor": "error: bad table file: ",
              "check": f"error: cannot parse complex from {path}: "}.get(
                  command, f"error: bad cell file {path}: ")
    assert err.startswith(prefix)
