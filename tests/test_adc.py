import itertools
import random
import re

import pytest

from cubeforge.adc import (
    SOURCE_MINUS_TARGET,
    TARGET_MINUS_SOURCE,
    Chain,
    ChainMap,
    NotInCone,
    abelianize,
    chain_invertible,
    comp_split,
    cube,
    cube_basis,
    cube_conn,
    cube_deg,
    cube_face,
    cube_rev,
    cube_swap,
    det,
    disk,
    disk_face,
    disk_identity,
    disk_rev,
    from_json_dict,
    is_omega_p_adc,
    load_adc,
    make_adc,
    mat_mul,
    rect_adc,
    save_adc,
    smith_normal_form,
    tensor,
    to_json_dict,
    validate,
    with_group_cones_above,
)
from cubeforge.adc import _basis_map


def unit(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


# --- validation -----------------------------------------------------------


def test_disk_valid():
    for n in range(5):
        assert validate(disk(n)).ok
        assert validate(disk(n, SOURCE_MINUS_TARGET)).ok


def test_cube_valid_and_tensor_built():
    for n in range(5):
        assert validate(cube(n)).ok


def test_corrupted_boundary_reported():
    K = disk(2)
    bad = make_adc(
        [list(d) for d in K.degrees],
        [
            [[row for row in col] for col in (list(map(list, m)) for m in [K.boundary[0]])][0],
            [[1, ], [1, ]],  # flipped sign on s1-row: d[x] = s1 + t1
        ],
        list(K.augmentation),
        ["nonneg"] * 3,
    )
    report = validate(bad)
    assert not report.ok
    assert any("d o d" in v for v in report.violations)


def test_d_refuses_degrees_without_a_boundary_matrix():
    K = disk(2)
    assert K.d(1, (1, 0)) == (-1, 1)  # d s1 = t0 - s0
    for k in (0, 3, -1):
        with pytest.raises(ValueError, match=f"degree {k} has no boundary matrix"):
            K.d(k, (1,) * K.rank(k))


@pytest.mark.parametrize("boundary", [[], [[[-1], [1]], [[1]]]])
def test_make_adc_counts_the_boundary_matrices(boundary):
    # a JSON complex always yields one matrix per degree above 0; Python callers may not
    with pytest.raises(ValueError, match=f"boundary has {len(boundary)} entries for 2 degrees"):
        make_adc([["s0", "t0"], ["x"]], boundary, [1, 1], ["nonneg", "nonneg"])


@pytest.mark.parametrize("spec", ["g", "nonnegative", "", ("nonneg",), (1,), (None,)])
def test_make_adc_refuses_other_cones(spec):
    with pytest.raises(ValueError, match=f"cone at degree 1 is {re.escape(repr(spec))}, not"):
        make_adc([["s0", "t0"], ["x"]], [[[-1], [1]]], [1, 1], ["nonneg", spec])


@pytest.mark.parametrize("flag", ["nonegative", "group", 1, 0, None])
def test_json_cone_flags_are_nonneg_free_or_bools(flag):
    data = {**to_json_dict(disk(1)), "cone": ["nonneg", [flag]]}
    with pytest.raises(ValueError, match="cone at degree 1 is"):
        from_json_dict(data)
    for ok, want in (("nonneg", True), (True, True), ("free", False), (False, False)):
        assert from_json_dict({**data, "cone": ["nonneg", [ok]]}).cone[1] == (want,)


# --- disk -----------------------------------------------------------------


def test_disk_shapes_and_printed_boundaries():
    K = disk(2)
    assert [K.rank(k) for k in range(3)] == [2, 2, 1]
    # d[s1] = t0 - s0 under the printed disk convention
    assert K.d(1, unit(2, 0)) == (-1, 1)
    assert K.d(2, (1,)) == (-1, 1)  # d[x] = t1 - s1
    K0 = disk(0)
    assert K0.rank(0) == 1
    assert K0.aug((1,)) == 1


def test_disk_flipped():
    K = disk(2, SOURCE_MINUS_TARGET)
    assert K.d(1, unit(2, 0)) == (1, -1)


# --- cube -----------------------------------------------------------------


def test_cube_ranks():
    assert [cube(1).rank(k) for k in range(2)] == [2, 1]
    assert [cube(2).rank(k) for k in range(3)] == [4, 4, 1]
    assert cube(3).rank(1) == 12  # C(3,1) * 2^2
    for n in range(5):
        K = cube(n)
        for k in range(n + 1):
            from math import comb

            assert K.rank(k) == comb(n, k) * 2 ** (n - k)


def test_tensor_cube1_cube1_ranks():
    T = tensor(cube(1), cube(1))
    assert [T.rank(k) for k in range(3)] == [4, 4, 1]
    assert validate(T).ok


def test_tensor_unit():
    K = disk(0)
    L = disk(2)
    T = tensor(K, L)
    assert [T.rank(k) for k in range(T.top + 1)] == [L.rank(k) for k in range(L.top + 1)]
    for k in range(1, T.top + 1):
        assert T.boundary[k - 1] == L.boundary[k - 1]


def test_tensor_matches_direct_cube():
    # cube(n) as built on sign sequences == tensor power of cube(1),
    # under the reassociation/relabeling bijection
    for conv in (TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET):
        for n in range(2, 5):
            direct = cube(n, conv)
            power = cube(1, conv)
            for _ in range(n - 1):
                power = tensor(power, cube(1, conv))

            # basis names of `power` are nested "a⊗b" strings; strip ⊗ to
            # recover a sign sequence
            def seq_of(name):
                return name.replace("⊗", "")

            for k in range(n + 1):
                relabeled = [seq_of(s) for s in power.degrees[k]]
                assert sorted(relabeled) == list(direct.degrees[k])
                perm = [direct.basis_index(k, s) for s in relabeled]
                if k >= 1:
                    permlow = [direct.basis_index(k - 1, seq_of(s)) for s in power.degrees[k - 1]]
                    for j in range(power.rank(k)):
                        col = power.d(k, unit(power.rank(k), j))
                        direct_col = direct.d(n and k, unit(direct.rank(k), perm[j]))
                        relocated = [0] * direct.rank(k - 1)
                        for r, c in enumerate(col):
                            relocated[permlow[r]] += c
                        assert tuple(relocated) == direct_col


def test_tensor_associative_up_to_relabeling():
    A, B, C = disk(1), cube(1), disk(2)
    left = tensor(tensor(A, B), C)
    right = tensor(A, tensor(B, C))

    def flat(name):
        return name.replace("⊗", "|")

    for k in range(left.top + 1):
        ln = [flat(s) for s in left.degrees[k]]
        rn = [flat(s) for s in right.degrees[k]]
        assert sorted(ln) == sorted(rn)
    # boundary matrices agree under the bijection
    for k in range(1, left.top + 1):
        lidx = {flat(s): j for j, s in enumerate(left.degrees[k])}
        lidx_low = {flat(s): j for j, s in enumerate(left.degrees[k - 1])}
        for j, s in enumerate(right.degrees[k]):
            col_r = right.d(k, unit(right.rank(k), j))
            col_l = left.d(k, unit(left.rank(k), lidx[flat(s)]))
            moved = [0] * left.rank(k - 1)
            for r, c in enumerate(col_r):
                moved[lidx_low[flat(right.degrees[k - 1][r])]] += c
            assert tuple(moved) == col_l


def test_cube2_top_boundary_matches_cubical_formula():
    # under the source-minus-target convention, d[top] expands to the
    # alternating face sum [d1-] - [d1+] + [d2+] - [d2-]
    K = cube(2, SOURCE_MINUS_TARGET)
    d_top = K.d(2, (1,))
    expect = {"-0": 1, "+0": -1, "0+": 1, "0-": -1}
    for j, s in enumerate(K.degrees[1]):
        assert d_top[j] == expect.get(s, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_boundary_is_signed_face_sum(n):
    # d[s] = sum over zero slots i of alpha * (-1)^i [s with slot i set to
    # alpha], exhaustively, under source-minus-target; the default
    # convention gives the global negative.
    K = cube(n, SOURCE_MINUS_TARGET)
    Kdef = cube(n)
    for k in range(1, n + 1):
        for j, s in enumerate(K.degrees[k]):
            expect = {}
            zero_slot = 0
            for i, sym in enumerate(s, start=1):
                if sym != "0":
                    continue
                zero_slot += 1
                for alpha, asign in (("-", -1), ("+", 1)):
                    face = s[: i - 1] + alpha + s[i:]
                    expect[face] = expect.get(face, 0) + asign * (-1) ** zero_slot
            col = K.d(k, unit(K.rank(k), j))
            col_def = Kdef.d(k, unit(K.rank(k), j))
            for r, t in enumerate(K.degrees[k - 1]):
                assert col[r] == expect.get(t, 0)
                assert col_def[r] == -expect.get(t, 0)


# --- cube co-structure maps -----------------------------------------------


def test_cube_face_insertion():
    f = cube_face(2, 1, "-")
    K1, K2 = cube(1), cube(2)
    assert f.apply(1, (1,)) == tuple(1 if s == "-0" else 0 for s in K2.degrees[1])


def test_cube_deg_kills_zero_slot():
    e = cube_deg(1, 1)
    assert e.apply(1, (1,)) == ()  # the 1-cell class dies in the point
    assert e.apply(0, (1, 0)) == (1,)
    assert e.apply(0, (0, 1)) == (1,)


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_costructure_maps_are_chain_maps(n, conv):
    for i in range(1, n + 1):
        for alpha in "-+":
            assert cube_face(n, i, alpha, conv).is_chain_map()
    for i in range(1, n + 1):
        assert cube_deg(n, i, conv).is_chain_map()
    if n <= 3:
        for i in range(1, n + 1):
            for alpha in "-+":
                assert cube_conn(n, i, alpha, conv).is_chain_map()


COMAPS = [(cube_face, (2, 1, "+")), (cube_deg, (3, 2)), (cube_conn, (2, 2, "-")),
          (cube_rev, (2, 1)), (cube_swap, (3, 2)), (disk_face, (3, 2, "-")),
          (disk_identity, (2,)), (disk_rev, (2,))]
BAD_ARGS = {cube_face: (2, 3, "+"), cube_deg: (3, 0), cube_conn: (2, 1, "0"), cube_rev: (2, 3),
            cube_swap: (3, 3), disk_face: (3, 0, "-"), disk_rev: (0,)}


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("comap, args", COMAPS, ids=lambda x: getattr(x, "__name__", ""))
def test_costructure_maps_are_built_once_per_arguments(comap, args, conv):
    """A co-map is a pure function of its arguments and immutable, so a
    repeated call returns the same object; a bad request raises every time."""
    first = comap(*args, conv)
    assert comap(*args, conv) is first and first.is_chain_map()
    assert first.source.d_convention == conv
    if comap in BAD_ARGS:
        for _ in range(2):
            with pytest.raises(ValueError):
                comap(*BAD_ARGS[comap], conv)


def cube_comp(n: int, i: int,
              d_convention: str = TARGET_MINUS_SOURCE) -> tuple[ChainMap, ChainMap, ChainMap]:
    """The composition co-map and the two copy inclusions into rect(n, i);
    the oracle of `comp_split`, which the nerve's composites read.

    Returns (star, into_first, into_second), all chain maps
    cube(n) -> rect(n, i).  ``star`` sends the slot-i symbols -, +, 0 to
    v0, v2, a + b respectively; the inclusions send them to (v0, v1, a)
    and (v1, v2, b).  ``star`` is the sum of the copy-tagged pieces of
    :func:`comp_split` under the inclusions.
    """
    rect = rect_adc(n, i, d_convention)
    src = cube(n, d_convention)

    def relabel(s: str, mid: str) -> str:
        left = s[: i - 1] or ""
        right = s[i:] or ""
        return f"{left}⊗{mid}⊗{right}"

    def build(slot_images: dict[str, list[tuple[int, str]]]) -> ChainMap:
        image = {}
        for basis in src.degrees:
            for s in basis:
                image[s] = [
                    (c, relabel(s, mid)) for c, mid in slot_images[s[i - 1]]
                ]
        return _basis_map(src, rect, image)

    star = build({"-": [(1, "v0")], "+": [(1, "v2")], "0": [(1, "a"), (1, "b")]})
    inc1 = build({"-": [(1, "v0")], "+": [(1, "v1")], "0": [(1, "a")]})
    inc2 = build({"-": [(1, "v1")], "+": [(1, "v2")], "0": [(1, "b")]})
    return star, inc1, inc2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_comp_costructure(n):
    for i in range(1, n + 1):
        star, inc1, inc2 = cube_comp(n, i)
        assert validate(rect_adc(n, i)).ok
        assert star.is_chain_map()
        assert inc1.is_chain_map()
        assert inc2.is_chain_map()
        # the two inclusions agree on the glued face
        K = cube(n)
        for k in range(n + 1):
            for j, s in enumerate(K.degrees[k]):
                pieces = comp_split(n, i, s)
                if s[i - 1] == "0":
                    assert pieces == [(1, s), (2, s)]
                elif s[i - 1] == "-":
                    assert pieces == [(1, s)]
                else:
                    assert pieces == [(2, s)]
                # star = inc1-part + inc2-part pointwise
                e = unit(K.rank(k), j)
                total = [0] * star.target.rank(k)
                for tag, t in pieces:
                    inc = inc1 if tag == 1 else inc2
                    for r, c in enumerate(inc.apply(k, unit(K.rank(k), K.basis_index(k, t)))):
                        total[r] += c
                assert tuple(total) == star.apply(k, e)


def test_costructure_duals_of_cubical_set_equations():
    # dual identities mirror the cubical-set axioms, e.g. deleting after
    # inserting is the identity, checked as matrix identities for n <= 3
    from cubeforge.indices import lower, raise_

    for n in range(1, 4):
        for i in range(1, n + 1):
            for alpha in "-+":
                f = cube_face(n, i, alpha)
                for j in range(1, n + 1):
                    e = cube_deg(n, j)
                    K = cube(n - 1)
                    for k in range(K.top + 1):
                        for b in range(K.rank(k)):
                            x = unit(K.rank(k), b)
                            got = e.apply(k, f.apply(k, x))
                            if i == j:
                                assert got == x
                            else:
                                # eps_{j_i} then face_{i_j} on the small cube
                                e2 = cube_deg(n - 1, lower(j, i))
                                f2 = cube_face(n - 1, lower(i, j), alpha)
                                assert got == f2.apply(k, e2.apply(k, x))
        # face into connection
        for i in range(1, n + 1):
            for alpha in "-+":
                g = cube_conn(n, i, alpha)
                for j in range(1, n + 2):
                    f = cube_face(n + 1, j, "-")
                    K = cube(n)
                    # dual of the face/connection axiom, spot-checked via
                    # composite map equality on all generators
                    for k in range(K.top + 1):
                        for b in range(K.rank(k)):
                            x = unit(K.rank(k), b)
                            got = g.apply(k, f.apply(k, x))
                            if j not in (i, i + 1):
                                g2 = cube_conn(n - 1, lower(i, j) if j < i else i, alpha) if n >= 1 else None
                                # only check the well-shaped branch
                                jj = lower(j, i) if j > i + 1 else j
                                if j > i + 1:
                                    g2 = cube_conn(n - 1, i, alpha)
                                    f2 = cube_face(n, j - 1, "-")
                                else:
                                    g2 = cube_conn(n - 1, i - 1, alpha)
                                    f2 = cube_face(n, j, "-")
                                assert got == f2.apply(k, g2.apply(k, x))


# --- cones ----------------------------------------------------------------


def test_is_omega_p():
    assert not is_omega_p_adc(disk(2), 0)
    assert not is_omega_p_adc(disk(2), 1)
    assert is_omega_p_adc(disk(2), 2)
    assert is_omega_p_adc(disk(2), 5)
    G = with_group_cones_above(disk(2), 0)
    assert is_omega_p_adc(G, 0)
    assert is_omega_p_adc(cube(2), 2) and not is_omega_p_adc(cube(2), 1)


def test_chain_invertible():
    K = disk(1)
    assert chain_invertible(K, Chain(1, (0,)))
    assert not chain_invertible(K, Chain(1, (1,)))
    with pytest.raises(NotInCone):
        chain_invertible(K, Chain(1, (-1,)))
    G = with_group_cones_above(K, 0)
    assert chain_invertible(G, Chain(1, (5,)))


def test_tensor_cone_flags():
    G = with_group_cones_above(cube(1), 0)
    T = tensor(G, cube(1))
    # a pair is constrained iff both factors are: degree-1 pairs mixing the
    # free 1-cell of G stay free
    for j, name in enumerate(T.degrees[1]):
        left = name.split("⊗")[0]
        expected = left != "0"
        assert T.cone[1][j] == expected


# --- abelianization and SNF -------------------------------------------------


def test_abelianize_idempotent_generator():
    pres = abelianize(["a"], [{"a": 1}])  # a + a = a, i.e. a = 0
    assert pres.is_trivial()


def test_abelianize_free():
    pres = abelianize(["a", "b"], [])
    assert pres.free_rank == 2 and not pres.torsion


def test_abelianize_sum_relation():
    pres = abelianize(["a", "b", "c"], [{"c": 1, "a": -1, "b": -1}])
    assert pres.free_rank == 2 and not pres.torsion
    assert pres.class_of({"c": 1}) == pres.class_of({"a": 1, "b": 1})


def test_abelianize_torsion():
    pres = abelianize(["a"], [{"a": 4}])
    assert pres.free_rank == 0 and pres.torsion == (4,)
    assert pres.class_of({"a": 5}) == pres.class_of({"a": 1})


def test_snf_roundtrip_random():
    rng = random.Random(20260810)
    for trial in range(100):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, d), v) == tuple(tuple(row) for row in m)
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        # D diagonal with nonneg divisibility chain
        diag = []
        for i in range(nrows):
            for j in range(ncols):
                if i != j:
                    assert d[i][j] == 0
                elif d[i][j]:
                    diag.append(d[i][j])
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


@pytest.mark.parametrize("name, corrupt", [
    ("det", lambda m: 2),  # U and V no longer look unimodular
    ("mat_mul", lambda a, b: tuple(tuple(x + 1 for x in row) for row in a)),
])
def test_snf_raises_when_its_check_fails(monkeypatch, name, corrupt):
    import cubeforge.adc as adc
    smith_normal_form([[2, 4], [6, 8]])
    monkeypatch.setattr(adc, name, corrupt)
    with pytest.raises(ArithmeticError, match="U \\* D \\* V == R with U, V unimodular"):
        smith_normal_form([[2, 4], [6, 8]])


# --- serialization -----------------------------------------------------------


def test_json_roundtrip(tmp_path):
    mixed = tensor(with_group_cones_above(disk(1), 0), disk(1))  # per-element flags in degree 1
    assert "free" in to_json_dict(mixed)["cone"][1] and "nonneg" in to_json_dict(mixed)["cone"][1]
    for K in (disk(2), cube(2), with_group_cones_above(disk(2), 1), mixed):
        data = to_json_dict(K)
        K2 = from_json_dict(data)
        assert K2.degrees == K.degrees
        assert K2.boundary == K.boundary
        assert K2.augmentation == K.augmentation
        assert K2.cone == K.cone
        assert K2.d_convention == K.d_convention
        path = tmp_path / "k.adc"
        save_adc(K, str(path))
        assert load_adc(str(path)).boundary == K.boundary


def test_documented_format_example_loads():
    data = {
        "degrees": [["v-", "v+"], ["e"]],
        "boundary": {"1": [[-1], [1]]},
        "augmentation": [1, 1],
        "cone": ["nonneg", "nonneg"],
    }
    K = from_json_dict(data)
    assert validate(K).ok
    assert K.d(1, (1,)) == (-1, 1)


def test_abelianize_finite_nerve_sample():
    # abelianizing the bounded nerve of the walking arrow recovers its
    # chain groups: compositions become sums and connection images die
    from cubeforge.adc import cubical_boundary_classes
    from cubeforge.nerve import NcModel

    model = NcModel(disk(1))
    cells = {n: model.cells(n, 1) for n in range(3)}
    names = {n: {A: f"c{n}_{i}" for i, A in enumerate(cells[n])} for n in cells}

    def relations(n):
        rels = []
        index = {A.payload: A for A in cells[n]}
        for i in range(1, n + 1):
            for A in cells[n]:
                for B in cells[n]:
                    try:
                        AB = model.comp(A, B, i)
                    except Exception:
                        continue
                    if AB.payload in index:
                        combo = {}
                        for name, c in ((names[n][index[AB.payload]], 1),
                                        (names[n][A], -1), (names[n][B], -1)):
                            combo[name] = combo.get(name, 0) + c
                        rels.append(combo)
        if n >= 1:
            for A in cells[n - 1]:
                for i in range(1, n):
                    for alpha in "-+":
                        G = model.conn(A, i, alpha)
                        if G.payload in index:
                            rels.append({names[n][index[G.payload]]: 1})
        return rels

    pres = {n: abelianize(sorted(names[n].values()), relations(n)) for n in range(3)}
    assert pres[0].free_rank == 2 and not pres[0].torsion
    assert pres[1].free_rank == 1 and not pres[1].torsion
    assert pres[2].is_trivial()

    # induced boundary via the alternating face sum
    faces = {}
    index0 = {A.payload: A for A in cells[0]}
    for A in cells[1]:
        faces[names[1][A]] = [
            (1, alpha, {names[0][index0[model.face(A, 1, alpha).payload]]: 1})
            for alpha in "-+"
        ]
    d1 = cubical_boundary_classes(pres[1], pres[0], faces)
    nonzero = [v for v in d1.values() if any(v)]
    assert len(nonzero) == 1  # only the arrow has a boundary
    x_name = [g for g, v in d1.items() if any(v)][0]
    s_class = pres[0].class_of({pres[0].generators[0]: 1})
    t_class = pres[0].class_of({pres[0].generators[1]: 1})
    assert d1[x_name] in (
        tuple(a - b for a, b in zip(s_class, t_class)),
        tuple(b - a for a, b in zip(s_class, t_class)),
    )
    # cone image: every generator class is recorded
    assert set(pres[1].cone_image()) == set(pres[1].generators)


@pytest.mark.parametrize("conv", [TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET])
@pytest.mark.parametrize("a, b", [(a, b) for a in (1, 2) for b in range(0, 5 - a)])
def test_tensor_of_cubes_is_the_cube(conv, a, b):
    """Under s(x)t -> st, cube(a) (x) cube(b) has the bases and boundary of cube(a+b)."""
    T, C = tensor(cube(a, conv), cube(b, conv)), cube(a + b, conv)

    def boundary(K, rename):
        return [{(rename(K.degrees[k][r]), rename(K.degrees[k + 1][c])): v
                 for r, row in enumerate(m) for c, v in enumerate(row) if v}
                for k, m in enumerate(K.boundary)]

    def rename(name):
        return name.replace("⊗", "")

    assert [sorted(map(rename, d)) for d in T.degrees] == [sorted(d) for d in C.degrees]
    assert boundary(T, rename) == boundary(C, str)
