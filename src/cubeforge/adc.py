"""Augmented directed complexes: validation, tensor, disks, cubes, SNF.

An ``Adc`` is a finitely-based chain complex of free abelian groups with
an augmentation to Z on degree 0 and a positivity cone per degree.  All
coefficients are exact Python integers; matrices are tuples of rows.

Cones.  In principle a positivity cone is an arbitrary submonoid per
degree, but every construction performed here yields a cone cut out
coordinatewise: some basis elements are constrained to non-negative
coefficients, the rest are free.  ``cone[k]`` therefore stores one flag
per degree-k basis element (``True`` = non-negative); the serialized
form also accepts the shorthand strings ``"nonneg"`` and ``"group"`` for
all-true / all-false.  This family is closed under tensor products: a
tensor basis element is constrained iff both of its factors are.

Orientation.  The two printed conventions for the boundary of a directed
generator disagree: the disk complexes are printed with d[top] =
target - source, while the abelianization of a directed category is
printed with d[A] = [source] - [target].  A single global convention per
complex, recorded in ``d_convention``, keeps the nerve constructions
coherent; ``disk`` and ``cube`` accept either and default to
``"target-minus-source"``.  Every serialized artifact records the flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .core import Report

TARGET_MINUS_SOURCE = "target-minus-source"
SOURCE_MINUS_TARGET = "source-minus-target"

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class NotInCone(ValueError):
    """A chain was asserted to lie in the positivity cone but does not."""


def _as_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


def zero_vec(n: int) -> Vector:
    return (0,) * n


def vec_neg(u: Sequence[int]) -> Vector:
    return tuple(-a for a in u)


@dataclass(frozen=True)
class Chain:
    """A homogeneous chain: a degree and a coefficient vector over that basis."""

    degree: int
    coeffs: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


@dataclass(frozen=True)
class Adc:
    degrees: tuple[tuple[str, ...], ...]
    boundary: tuple[Matrix, ...]  # boundary[k] maps degree k+1 -> degree k
    augmentation: Vector
    cone: tuple[tuple[bool, ...], ...]  # True = coefficient constrained >= 0
    d_convention: str = TARGET_MINUS_SOURCE
    name: str = ""

    @property
    def top(self) -> int:
        return len(self.degrees) - 1

    def rank(self, k: int) -> int:
        return len(self.degrees[k]) if 0 <= k <= self.top else 0

    def basis_index(self, k: int, name: str) -> int:
        return self.degrees[k].index(name)

    def d(self, k: int, coeffs: Sequence[int]) -> Vector:
        """Boundary of a degree-k chain, 1 <= k <= top (a vertex has `aug`)."""
        if not 0 < k <= len(self.boundary):
            raise ValueError(f"degree {k} has no boundary matrix in degrees 1..{self.top}")
        return mat_vec(self.boundary[k - 1], coeffs)

    def aug(self, coeffs: Sequence[int]) -> int:
        return sum(e * c for e, c in zip(self.augmentation, coeffs, strict=True))

    def in_cone(self, k: int, coeffs: Sequence[int]) -> bool:
        if k > self.top:
            return all(c == 0 for c in coeffs)
        return all(c >= 0 for c, f in zip(coeffs, self.cone[k], strict=True) if f)

    def chain(self, k: int, combo: dict[str, int]) -> Chain:
        v = [0] * self.rank(k)
        for name, c in combo.items():
            v[self.basis_index(k, name)] += c
        return Chain(k, tuple(v))

    def show(self, k: int, coeffs: Sequence[int]) -> str:
        terms = [
            (f"{c}*" if c not in (1, -1) else ("-" if c == -1 else "")) + name
            for name, c in zip(self.degrees[k], coeffs)
            if c
        ]
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def make_adc(
    degrees: Sequence[Sequence[str]],
    boundary: Sequence[Sequence[Sequence[int]]],
    augmentation: Sequence[int],
    cone: Sequence[object],
    d_convention: str = TARGET_MINUS_SOURCE,
    name: str = "",
) -> Adc:
    """Build an Adc, normalising the cone shorthands.

    A degree's cone is "nonneg", "group" or one bool per element.  Raises
    ValueError naming the field when a cone is anything else, when the
    entries of `cone`, `boundary` or `augmentation` do not fit the ranks of
    `degrees`, or when a degree names a basis element twice.
    """
    degs = tuple(tuple(d) for d in degrees)
    ranks = [len(names) for names in degs]
    for k, names in enumerate(degs):
        if len(set(names)) < len(names):
            twice = next(x for x in names if names.count(x) > 1)
            raise ValueError(f"degree {k} names the basis element {twice!r} twice")
    for what, got, want in (("cone", len(cone), len(degs)),
                            ("boundary", len(boundary), max(len(degs) - 1, 0))):
        if got != want:
            raise ValueError(f"{what} has {got} entries for {len(degs)} degrees, not {want}")
    flags = []
    for k, spec in enumerate(cone):
        if spec in ("nonneg", "group"):
            flags.append((spec == "nonneg",) * ranks[k])
        elif isinstance(spec, str) or not all(type(x) is bool for x in spec):  # type: ignore[union-attr]
            raise ValueError(f"cone at degree {k} is {spec!r}, "
                             "not 'nonneg', 'group' or one bool per element")
        else:
            flags.append(tuple(spec))  # type: ignore[arg-type]
        if len(flags[-1]) != ranks[k]:
            raise ValueError(f"cone length mismatch at degree {k}")
    mats = tuple(_as_matrix(m) for m in boundary)
    for k, m in enumerate(mats, 1):
        if len(m) != ranks[k - 1] or any(len(row) != ranks[k] for row in m):
            raise ValueError(f"boundary matrix at degree {k} has wrong shape: "
                             f"need {ranks[k - 1]} rows of {ranks[k]}")
    aug, vertices = tuple(int(x) for x in augmentation), ranks[0] if ranks else 0
    if len(aug) != vertices:
        raise ValueError(f"augmentation vector has {len(aug)} entries, not {vertices}")
    if d_convention not in (TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET):
        raise ValueError(f"unknown d_convention {d_convention!r}")
    return Adc(degs, mats, aug, tuple(flags), d_convention, name)


def validate(K: Adc) -> Report:
    """Check d o d = 0 and e o d = 0 (`make_adc` checks the shapes)."""
    report = Report()
    report.checked = {"d o d": sum(K.rank(k) for k in range(2, K.top + 1)), "e o d": K.rank(1)}
    for k in range(2, K.top + 1):
        for j in range(K.rank(k)):
            col = tuple(1 if i == j else 0 for i in range(K.rank(k)))
            dd = K.d(k - 1, K.d(k, col))
            if any(dd):
                report.violations.append(
                    f"d o d != 0 on degree-{k} generator {K.degrees[k][j]}: {K.show(k - 2, dd)}"
                )
    if K.top >= 1:
        for j in range(K.rank(1)):
            col = tuple(1 if i == j else 0 for i in range(K.rank(1)))
            if K.aug(K.d(1, col)) != 0:
                report.violations.append(
                    f"e o d != 0 on degree-1 generator {K.degrees[1][j]}"
                )
    return report


def chain_invertible(K: Adc, c: Chain) -> bool:
    """Directed invertibility: c is in the cone and so is -c."""
    if not K.in_cone(c.degree, c.coeffs):
        raise NotInCone(f"chain {K.show(c.degree, c.coeffs)} is not in the cone")
    return K.in_cone(c.degree, vec_neg(c.coeffs))


def is_omega_p_adc(K: Adc, p: int) -> bool:
    """True iff the cone is the full group in every degree above p."""
    return all(
        not any(K.cone[k]) for k in range(p + 1, K.top + 1)
    )


def with_group_cones_above(K: Adc, p: int, name: str = "") -> Adc:
    """A copy of K whose cones above degree p are relaxed to the full group."""
    cone = tuple(
        (False,) * K.rank(k) if k > p else K.cone[k] for k in range(K.top + 1)
    )
    return Adc(K.degrees, K.boundary, K.augmentation, cone,
               K.d_convention, name or (K.name + f"!(omega,{p})"))


# ---------------------------------------------------------------------------
# disk and cube complexes


def orientation_sign(d_convention: str) -> int:
    """+1 under the target-minus-source convention, -1 under the flipped one."""
    return 1 if d_convention == TARGET_MINUS_SOURCE else -1


def disk(n: int, d_convention: str = TARGET_MINUS_SOURCE) -> Adc:
    """The n-disk complex: generators s_k, t_k below degree n and x on top.

    Under the default convention d[x] = t_{n-1} - s_{n-1} and
    d[s_{k+1}] = d[t_{k+1}] = t_k - s_k; the flipped convention negates
    every boundary.  All cones are non-negative.
    """
    sign = orientation_sign(d_convention)
    degrees = [[f"s{k}", f"t{k}"] for k in range(n)] + [["x"]]
    boundary = []
    for k in range(1, n + 1):
        rows = len(degrees[k - 1])
        cols = len(degrees[k])
        m = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            # d[generator] = sign * (t_{k-1} - s_{k-1})
            m[0][j] = -sign
            m[1][j] = sign
        boundary.append(m)
    augmentation = [1] * len(degrees[0])
    cone = ["nonneg"] * (n + 1)
    return make_adc(degrees, boundary, augmentation, cone, d_convention, f"disk({n})")


def cube_basis(n: int, k: int) -> list[str]:
    """Degree-k basis of the n-cube: sign sequences with exactly k zeros."""
    out: list[str] = []

    def build(prefix: str, zeros: int) -> None:
        if len(prefix) == n:
            if zeros == k:
                out.append(prefix)
            return
        if zeros < k:
            build(prefix + "0", zeros + 1)
        build(prefix + "-", zeros)
        build(prefix + "+", zeros)

    build("", 0)
    return sorted(out)


def cube_d_terms(s: str, d_convention: str = TARGET_MINUS_SOURCE) -> list[tuple[int, str]]:
    """Boundary of a sign-sequence basis element as (coefficient, sequence) terms."""
    sign = orientation_sign(d_convention)
    terms = []
    zeros_before = 0
    for i, sym in enumerate(s):
        if sym == "0":
            plus = s[:i] + "+" + s[i + 1:]
            minus = s[:i] + "-" + s[i + 1:]
            c = sign * (-1) ** zeros_before
            terms.append((c, plus))
            terms.append((-c, minus))
            zeros_before += 1
    return terms


def cube(n: int, d_convention: str = TARGET_MINUS_SOURCE) -> Adc:
    """The n-cube complex on sign-sequence bases (tensor power of cube(1))."""
    return _cube(n, d_convention)


@lru_cache(maxsize=None)
def _cube(n: int, d_convention: str) -> Adc:
    # an Adc is immutable, so every caller can share one copy per (n, convention)
    degrees = [cube_basis(n, k) for k in range(n + 1)]
    index = [{s: j for j, s in enumerate(basis)} for basis in degrees]
    boundary = []
    for k in range(1, n + 1):
        m = [[0] * len(degrees[k]) for _ in range(len(degrees[k - 1]))]
        for j, s in enumerate(degrees[k]):
            for c, t in cube_d_terms(s, d_convention):
                m[index[k - 1][t]][j] += c
        boundary.append(m)
    augmentation = [1] * len(degrees[0])
    cone = ["nonneg"] * (n + 1)
    return make_adc(degrees, boundary, augmentation, cone, d_convention, f"cube({n})")


def tensor(K: Adc, L: Adc, name: str = "") -> Adc:
    """Tensor product of complexes with the signed Leibniz boundary.

    Basis of degree n: pairs x (x) y with deg x + deg y = n, ordered by the
    degree of the left factor and then row-major.  The cone constrains a
    pair iff both factors are constrained.
    """
    if K.d_convention != L.d_convention:
        raise ValueError("tensor factors must share a d_convention")
    top = K.top + L.top
    degrees: list[list[str]] = []
    pairs: list[list[tuple[int, int, int, int]]] = []  # (i, a, j, b) per basis elt
    index: list[dict[tuple[int, int, int, int], int]] = []
    for nn in range(top + 1):
        names = []
        keyed = []
        for i in range(0, nn + 1):
            j = nn - i
            if i > K.top or j > L.top:
                continue
            for a in range(K.rank(i)):
                for b in range(L.rank(j)):
                    names.append(f"{K.degrees[i][a]}⊗{L.degrees[j][b]}")
                    keyed.append((i, a, j, b))
        degrees.append(names)
        pairs.append(keyed)
        index.append({key: pos for pos, key in enumerate(keyed)})
    boundary = []
    for nn in range(1, top + 1):
        m = [[0] * len(pairs[nn]) for _ in range(len(pairs[nn - 1]))]
        for col, (i, a, j, b) in enumerate(pairs[nn]):
            if i >= 1:
                colvec = tuple(1 if r == a else 0 for r in range(K.rank(i)))
                for r, c in enumerate(K.d(i, colvec)):
                    if c:
                        m[index[nn - 1][(i - 1, r, j, b)]][col] += c
            if j >= 1:
                colvec = tuple(1 if r == b else 0 for r in range(L.rank(j)))
                sgn = (-1) ** i
                for r, c in enumerate(L.d(j, colvec)):
                    if c:
                        m[index[nn - 1][(i, a, j - 1, r)]][col] += sgn * c
        boundary.append(m)
    augmentation = [
        K.augmentation[a] * L.augmentation[b] for (_, a, _, b) in pairs[0]
    ]
    cone = [
        tuple(K.cone[i][a] and L.cone[j][b] for (i, a, j, b) in pairs[nn])
        for nn in range(top + 1)
    ]
    return Adc(
        tuple(tuple(d) for d in degrees),
        tuple(_as_matrix(m) for m in boundary),
        tuple(augmentation),
        tuple(cone),
        K.d_convention,
        name or f"({K.name})⊗({L.name})",
    )


# ---------------------------------------------------------------------------
# chain maps and the cube co-structure


@dataclass(frozen=True)
class ChainMap:
    """A degree-preserving map of complexes given per-degree on basis elements.

    ``terms[k][j]`` lists (coefficient, target-basis-position) pairs for the
    j-th degree-k source generator.
    """

    source: Adc
    target: Adc
    terms: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    def apply(self, k: int, coeffs: Sequence[int]) -> Vector:
        out = [0] * self.target.rank(k)
        if k <= self.source.top:
            for j, c in enumerate(coeffs):
                if c:
                    for coef, pos in self.terms[k][j]:
                        out[pos] += c * coef
        return tuple(out)

    def is_chain_map(self) -> bool:
        """Exact check that boundaries and augmentations commute."""
        src, tgt = self.source, self.target
        for k in range(1, src.top + 1):
            for j in range(src.rank(k)):
                e = tuple(1 if i == j else 0 for i in range(src.rank(k)))
                if k <= tgt.top:
                    left = tgt.d(k, self.apply(k, e))
                else:
                    left = zero_vec(tgt.rank(k - 1))
                right = self.apply(k - 1, src.d(k, e))
                if left != right:
                    return False
        for j in range(src.rank(0)):
            e = tuple(1 if i == j else 0 for i in range(src.rank(0)))
            if src.aug(e) != tgt.aug(self.apply(0, e)):
                return False
        return True


def _basis_map(source: Adc, target: Adc, image: dict[str, list[tuple[int, str]]]) -> ChainMap:
    index = [{name: j for j, name in enumerate(basis)} for basis in target.degrees]
    terms = []
    for k, basis in enumerate(source.degrees):
        row = []
        for name in basis:
            row.append(tuple([(c, index[k][tname]) for c, tname in image.get(name, ())]))
        terms.append(tuple(row))
    return ChainMap(source, target, tuple(terms))


def _insert(s: str, i: int, sym: str) -> str:
    return s[: i - 1] + sym + s[i - 1:]


@lru_cache(maxsize=None)
def cube_face(n: int, i: int, alpha: str,
              d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The face co-map cube(n-1) -> cube(n): insert alpha at slot i."""
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no face (i={i}, alpha={alpha}) on the {n}-cube")
    src, tgt = cube(n - 1, d_convention), cube(n, d_convention)
    image = {s: [(1, _insert(s, i, alpha))] for basis in src.degrees for s in basis}
    return _basis_map(src, tgt, image)


@lru_cache(maxsize=None)
def cube_deg(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The degeneracy co-map cube(n) -> cube(n-1): delete slot i, kill 0 there."""
    if not 1 <= i <= n:
        raise ValueError(f"no degeneracy slot {i} on the {n}-cube")
    src, tgt = cube(n, d_convention), cube(n - 1, d_convention)
    image = {}
    for basis in src.degrees:
        for s in basis:
            if s[i - 1] == "0":
                image[s] = []
            else:
                image[s] = [(1, s[: i - 1] + s[i:])]
    return _basis_map(src, tgt, image)


def conn_collapse(pair: str, alpha: str) -> str | None:
    """The two-slot collapse of the connection co-map; None means zero."""
    beta = "+" if alpha == "-" else "-"
    table = {
        alpha + alpha: alpha,
        alpha + beta: beta,
        beta + alpha: beta,
        beta + beta: beta,
        "0" + alpha: "0",
        alpha + "0": "0",
        "0" + beta: None,
        beta + "0": None,
        "00": None,
    }
    return table[pair]


@lru_cache(maxsize=None)
def cube_conn(n: int, i: int, alpha: str,
              d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The connection co-map cube(n+1) -> cube(n): collapse slots i, i+1."""
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no connection (i={i}, alpha={alpha}) on the {n}-cube")
    src, tgt = cube(n + 1, d_convention), cube(n, d_convention)
    collapse = {a + b: conn_collapse(a + b, alpha) for a in "-+0" for b in "-+0"}
    image = {}
    for basis in src.degrees:
        for s in basis:
            sym = collapse[s[i - 1: i + 1]]
            if sym is None:
                image[s] = []
            else:
                image[s] = [(1, s[: i - 1] + sym + s[i + 1:])]
    return _basis_map(src, tgt, image)


@lru_cache(maxsize=None)
def cube_rev(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The reversal co-map cube(n) -> cube(n): swap - and + at slot i, negate a 0 there."""
    if not 1 <= i <= n:
        raise ValueError(f"no reversal slot {i} on the {n}-cube")
    K = cube(n, d_convention)
    flip = {"-": (1, "+"), "+": (1, "-"), "0": (-1, "0")}
    image = {}
    for basis in K.degrees:
        for s in basis:
            c, sym = flip[s[i - 1]]
            image[s] = [(c, s[: i - 1] + sym + s[i:])]
    return _basis_map(K, K, image)


@lru_cache(maxsize=None)
def cube_swap(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The transposition co-map cube(n) -> cube(n): swap slots i, i+1 (Koszul sign on 00)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"no transposition slot {i} on the {n}-cube")
    K = cube(n, d_convention)
    image = {}
    for basis in K.degrees:
        for s in basis:
            c = -1 if s[i - 1: i + 1] == "00" else 1
            image[s] = [(c, s[: i - 1] + s[i] + s[i - 1] + s[i + 1:])]
    return _basis_map(K, K, image)


def comp_split(n: int, i: int, s: str) -> list[tuple[int, str]]:
    """Copy-tagged pieces of the composition co-map on a basis sequence.

    A sequence with a 0 in slot i splits across both copies of the glued
    rectangle; otherwise it lands in the copy named by its sign.
    """
    if s[i - 1] == "0":
        return [(1, s), (2, s)]
    if s[i - 1] == "-":
        return [(1, s)]
    return [(2, s)]


# the globular co-structure: disk(n) has s_k, t_k at levels k < n and x at level n


@lru_cache(maxsize=None)
def disk_face(n: int, i: int, alpha: str,
              d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The face co-map disk(n-1) -> disk(n) of d_i^alpha: levels below m = n-i
    kept, level m onto s_m (alpha -) or t_m (alpha +), the levels above killed."""
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no face (i={i}, alpha={alpha}) on the {n}-disk")
    src, m = disk(n - 1, d_convention), n - i
    onto = ("s" if alpha == "-" else "t") + str(m)
    image = {e: [(1, onto if k == m else e)] for k in range(m + 1) for e in src.degrees[k]}
    return _basis_map(src, disk(n, d_convention), image)


@lru_cache(maxsize=None)
def disk_identity(n: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The identity co-map disk(n+1) -> disk(n): s_n and t_n onto x, the top killed."""
    src = disk(n + 1, d_convention)
    image = {e: [(1, "x" if k == n else e)] for k in range(n + 1) for e in src.degrees[k]}
    return _basis_map(src, disk(n, d_convention), image)


@lru_cache(maxsize=None)
def disk_rev(n: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The reversal co-map disk(n) -> disk(n): swap s_{n-1} and t_{n-1}, negate x."""
    if n < 1:
        raise ValueError("the 0-disk has no reversal")
    K, m = disk(n, d_convention), n - 1
    swap = {f"s{m}": (1, f"t{m}"), f"t{m}": (1, f"s{m}"), "x": (-1, "x")}
    return _basis_map(K, K, {e: [swap.get(e, (1, e))] for names in K.degrees for e in names})


def disk_split(n: int, i: int, s: str) -> list[tuple[int, str]]:
    """`comp_split`'s globular twin: *_i on disk(n) glues over the
    (n-i)-boundary, so s_{n-i} and the levels below come from the first
    copy, t_{n-i} from the second, and every level above from both."""
    k, level = n - i, n if s == "x" else int(s[1:])
    if level > k:
        return [(1, s), (2, s)]
    return [(2, s)] if level == k and s[0] == "t" else [(1, s)]


def walking_composite(d_convention: str = TARGET_MINUS_SOURCE) -> Adc:
    """Three vertices v0, v1, v2 and edges a: v0->v1, b: v1->v2."""
    sign = orientation_sign(d_convention)
    return make_adc(
        [["v0", "v1", "v2"], ["a", "b"]],
        [[[-sign, 0], [sign, -sign], [0, sign]]],
        [1, 1, 1],
        ["nonneg", "nonneg"],
        d_convention,
        "walking-composite",
    )


def rect_adc(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> Adc:
    """The glued double cube in direction i: cube(i-1) ⊗ walking ⊗ cube(n-i)."""
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range on the {n}-cube")
    return tensor(
        tensor(cube(i - 1, d_convention), walking_composite(d_convention)),
        cube(n - i, d_convention),
        name=f"rect({n},{i})",
    )


# ---------------------------------------------------------------------------
# Smith normal form and finitely presented abelian groups


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix]:
    """Decompose R = U * D * V with U, V unimodular and D in Smith form.

    Returns (U, D, V), re-checked before returning: ArithmeticError if
    U * D * V != R or det U, det V are not +-1.  Works over exact Python
    integers; intermediate entries may grow, which is fine.
    """
    R = _as_matrix(rows)
    r = [list(row) for row in R]
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    u = _identity(nrows)  # accumulates inverses of the row operations
    v = _identity(ncols)  # accumulates inverses of the column operations

    def row_swap(a, b):
        r[a], r[b] = r[b], r[a]
        for k in range(nrows):
            u[k][a], u[k][b] = u[k][b], u[k][a]

    def row_add(dst, src, c):  # row[dst] += c * row[src]
        for j in range(ncols):
            r[dst][j] += c * r[src][j]
        for k in range(nrows):
            u[k][src] -= c * u[k][dst]

    def row_neg(a):
        for j in range(ncols):
            r[a][j] = -r[a][j]
        for k in range(nrows):
            u[k][a] = -u[k][a]

    def col_swap(a, b):
        for k in range(nrows):
            r[k][a], r[k][b] = r[k][b], r[k][a]
        v[a], v[b] = v[b], v[a]

    def col_add(dst, src, c):  # col[dst] += c * col[src]
        for k in range(nrows):
            r[k][dst] += c * r[k][src]
        for j in range(ncols):
            v[src][j] -= c * v[dst][j]

    def find_pivot(t: int) -> tuple[int, int] | None:
        pivot = None
        best = None
        for a in range(t, nrows):
            for b in range(t, ncols):
                if r[a][b] and (best is None or abs(r[a][b]) < best):
                    best = abs(r[a][b])
                    pivot = (a, b)
        return pivot

    def diagonalize() -> int:
        t = 0
        while t < min(nrows, ncols):
            # re-select the globally smallest pivot after every reduction
            # pass; this is what keeps coefficient growth tame
            while True:
                pivot = find_pivot(t)
                if pivot is None:
                    return t
                row_swap(t, pivot[0])
                col_swap(t, pivot[1])
                for a in range(t + 1, nrows):
                    if r[a][t]:
                        row_add(a, t, -(r[a][t] // r[t][t]))
                for b in range(t + 1, ncols):
                    if r[t][b]:
                        col_add(b, t, -(r[t][b] // r[t][t]))
                if all(r[a][t] == 0 for a in range(t + 1, nrows)) and all(
                    r[t][b] == 0 for b in range(t + 1, ncols)
                ):
                    break
            if r[t][t] < 0:
                row_neg(t)
            t += 1
        return t

    # diagonalize, then patch the first divisibility violation and repeat;
    # each patch replaces d_k by gcd(d_k, d_{k+1}), so this terminates
    while True:
        t = diagonalize()
        bad = next(
            (
                k
                for k in range(t - 1)
                if r[k][k] and r[k + 1][k + 1] % r[k][k] != 0
            ),
            None,
        )
        if bad is None:
            break
        col_add(bad, bad + 1, 1)
    U, D, V = _as_matrix(u), _as_matrix(r), _as_matrix(v)
    if mat_mul(mat_mul(U, D), V) != R or abs(det(U)) != 1 or abs(det(V)) != 1:
        raise ArithmeticError("Smith normal form fails U * D * V == R with U, V unimodular")
    return U, D, V


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class AbelianPresentation:
    """A finitely presented abelian group with its Smith decomposition."""

    generators: tuple[str, ...]
    relations: Matrix  # rows = relations, columns = generators
    u: Matrix
    d: Matrix
    v: Matrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(k) if self.d[i][i] != 0)

    @property
    def free_rank(self) -> int:
        return len(self.generators) - len(self.invariant_factors)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.invariant_factors if f > 1)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def class_of(self, combo: dict[str, int]) -> Vector:
        """Canonical coordinates of a generator combination in the quotient.

        Coordinates live in the basis given by the rows of V; torsion
        coordinates are reduced mod their invariant factor.
        """
        x = [0] * len(self.generators)
        for name, c in combo.items():
            x[self.generators.index(name)] += c
        vinv = _inverse_unimodular(self.v)
        y = [sum(x[a] * vinv[a][j] for a in range(len(x))) for j in range(len(x))]
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        for i in range(k):
            f = self.d[i][i]
            if f > 0:
                y[i] %= f
        return tuple(y)

    def cone_image(self) -> dict[str, Vector]:
        """Classes of the declared generators; the cone is their N-span."""
        return {g: self.class_of({g: 1}) for g in self.generators}


def _inverse_unimodular(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix (exact, via adjugate)."""
    n = len(m)
    d = det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [m[a][b] for b in range(n) if b != j] for a in range(n) if a != i
            ]
            row.append((-1) ** (i + j) * det(minor))
        cof.append(row)
    # inverse = adjugate / det; adjugate = transpose of cofactor matrix
    return _as_matrix(
        [[cof[j][i] * d for j in range(n)] for i in range(n)]
    )


def abelianize(
    gens: Sequence[str], relations: Sequence[dict[str, int]]
) -> AbelianPresentation:
    """Present the abelian group on `gens` modulo combos declared zero.

    Each relation is a dict name -> coefficient read as "the combination
    equals zero"; e.g. the cubical relations [A *_k B] = [A] + [B] enter
    as {A*B: 1, A: -1, B: -1}.
    """
    generators = tuple(gens)
    rows = []
    for rel in relations:
        row = [0] * len(generators)
        for name, c in rel.items():
            row[generators.index(name)] += c
        rows.append(row)
    if not rows:
        rows_m: Matrix = ((0,) * len(generators),) if generators else ((),)
        u, d, v = smith_normal_form(rows_m)
        return AbelianPresentation(generators, rows_m, u, d, v)
    u, d, v = smith_normal_form(rows)
    return AbelianPresentation(generators, _as_matrix(rows), u, d, v)


def cubical_boundary_classes(
    pres: AbelianPresentation,
    lower: AbelianPresentation,
    faces: dict[str, Sequence[tuple[int, str, dict[str, int]]]],
) -> dict[str, Vector]:
    """Induced boundary of a presented level: the alternating face sum.

    ``faces[g]`` lists (direction, sign, face-combination) triples for
    the generator g; each face contributes with weight alpha * (-1)^i,
    and the total is reduced to canonical coordinates in the lower
    presentation.  Degenerate-looking face data is the caller's business;
    the combination language is the same as for relations.
    """
    out = {}
    for g, face_list in faces.items():
        total: dict[str, int] = {}
        for i, alpha, combo in face_list:
            weight = (1 if alpha == "+" else -1) * (-1) ** i
            for name, c in combo.items():
                total[name] = total.get(name, 0) + weight * c
        out[g] = lower.class_of(total)
    return out


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(K: Adc) -> dict:
    cone: list[object] = []
    for flags in K.cone:
        if all(flags):
            cone.append("nonneg")
        elif not any(flags):
            cone.append("group")
        else:
            cone.append(["nonneg" if f else "free" for f in flags])
    return {
        "degrees": [list(d) for d in K.degrees],
        "boundary": {
            str(k): [list(row) for row in K.boundary[k - 1]]
            for k in range(1, K.top + 1)
        },
        "augmentation": list(K.augmentation),
        "cone": cone,
        "d_convention": K.d_convention,
        "name": K.name,
    }


def from_json_dict(data: dict) -> Adc:
    degrees = data["degrees"]
    boundary = [data.get("boundary", {}).get(str(k), []) for k in range(1, len(degrees))]
    flag = {"nonneg": True, "free": False}
    cone = [spec if isinstance(spec, str) else
            [flag.get(f, f) if isinstance(f, str) else f for f in spec] for spec in data["cone"]]
    return make_adc(
        degrees,
        boundary,
        data["augmentation"],
        cone,
        data.get("d_convention", TARGET_MINUS_SOURCE),
        data.get("name", ""),
    )


def save_adc(K: Adc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(K), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_adc(path: str) -> Adc:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
