"""Augmented directed complexes: validation, tensor, disks, cubes, SNF.

An ``Adc`` is a finitely-based chain complex of free abelian groups with
an augmentation to Z on degree 0 and a positivity cone per degree.  All
coefficients are exact Python integers.  The boundary is stored once, as
sparse columns: each generator's boundary as (coefficient, row) pairs.
Dense boundary matrices, as lists of rows, are only input to `make_adc`
and the JSON form.

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

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .core import Report

TARGET_MINUS_SOURCE = "target-minus-source"
SOURCE_MINUS_TARGET = "source-minus-target"

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]
Column = tuple[tuple[int, int], ...]  # (coefficient, row) pairs, rows ascending


class NotInCone(ValueError):
    """A chain was asserted to lie in the positivity cone but does not."""


def _as_matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _columns(m: Sequence[Sequence[int]], width: int) -> tuple[Column, ...]:
    """The `width` columns of `m`, each its nonzero entries as (coefficient, row) pairs."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for r, row in enumerate(m):
        for j in itertools.compress(range(width), row):
            cols[j].append((row[j], r))
    return tuple(map(tuple, cols))


def _sparse_sum(terms: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> dict[int, int]:
    """The sum of c * column over `terms`' (c, column) pairs, as {row: nonzero coefficient}."""
    out: dict[int, int] = {}
    for c, col in terms:
        for x, r in col:
            out[r] = out.get(r, 0) + c * x
    return {r: x for r, x in out.items() if x}


def _column(terms: Iterable[tuple[int, int]]) -> Column:
    """(coefficient, row) `terms` summed per row: the nonzero entries, rows ascending."""
    return tuple((x, r) for r, x in sorted(_sparse_sum(((1, terms),)).items()))


def _apply(columns: Sequence[Column], coeffs: Sequence[int], rank: int) -> Vector:
    """The rank-`rank` vector sum(coeffs[j] * columns[j])."""
    out = [0] * rank
    for col, c in zip(columns, coeffs, strict=True):
        if c:
            for x, r in col:
                out[r] += c * x
    return tuple(out)


def _kernel(index: Sequence[int]) -> Callable[[tuple], tuple]:
    """The gather of the positions `index` from a tuple, as a tuple."""
    # itemgetter of a single index returns the bare item, not a 1-tuple
    return itemgetter(*index) if len(index) > 1 else lambda payload, p=index[0]: (payload[p],)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


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
    # columns[k][j]: d of the j-th degree-k generator as (coefficient, row)
    # pairs, rows ascending; empty on a vertex (its `aug` is its boundary)
    columns: tuple[tuple[Column, ...], ...]
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
        if not 0 < k <= self.top:
            raise ValueError(f"degree {k} has no boundary matrix in degrees 1..{self.top}")
        return _apply(self.columns[k], coeffs, len(self.degrees[k - 1]))

    def aug(self, coeffs: Sequence[int]) -> int:
        return sum(e * c for e, c in zip(self.augmentation, coeffs, strict=True))

    def in_cone(self, k: int, coeffs: Sequence[int]) -> bool:
        if k > self.top:
            return all(c == 0 for c in coeffs)
        return all(c >= 0 for c, f in zip(coeffs, self.cone[k], strict=True) if f)

    def show(self, k: int, coeffs: Sequence[int]) -> str:
        terms = [
            (f"{c}*" if c not in (1, -1) else ("-" if c == -1 else "")) + name
            for name, c in zip(self.degrees[k], coeffs)
            if c
        ]
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    # the flat basis and what reads it, built once per complex (an Adc is immutable)
    @cached_property
    def flat(self) -> tuple[tuple[int, str], ...]:
        """The basis as (degree, name) pairs: by degree, then as `degrees` lists it."""
        return tuple((k, name) for k, names in enumerate(self.degrees) for name in names)

    @cached_property
    def positions(self) -> Mapping[str, int]:
        """Each basis name's position in `flat`."""
        return MappingProxyType({name: pos for pos, (_, name) in enumerate(self.flat)})

    @cached_property
    def flat_columns(self) -> tuple[Column, ...]:
        """Per `flat` position, its boundary column with rows shifted to `flat` positions."""
        offs = list(itertools.accumulate(map(len, self.degrees), initial=0))
        return tuple(tuple((c, offs[k - 1] + r) for c, r in col)
                     for k, cols in enumerate(self.columns) for col in cols)


def make_adc(
    degrees: Sequence[Sequence[str]],
    boundary: Sequence[Sequence[Sequence[int]]],
    augmentation: Sequence[int],
    cone: Sequence[object],
    d_convention: str = TARGET_MINUS_SOURCE,
    name: str = "",
) -> Adc:
    """Build an Adc from dense boundary matrices, normalising the cone shorthands.

    A degree's cone is "nonneg", "group" or one bool per element.  Raises
    ValueError naming the field when a cone is anything else, when the
    entries of `cone`, `boundary` or `augmentation` do not fit the ranks of
    `degrees`, when a boundary or augmentation entry is not an int, or when
    a degree is not a list of distinct names.
    """
    for k, names in enumerate(degrees):
        if not isinstance(names, (list, tuple)) or not all(type(x) is str for x in names):
            raise ValueError(f"degree {k} is {names!r}, not a list of names")
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
    for k, m in enumerate(boundary, 1):
        if len(m) != ranks[k - 1] or any(len(row) != ranks[k] for row in m):
            raise ValueError(f"boundary matrix at degree {k} has wrong shape: "
                             f"need {ranks[k - 1]} rows of {ranks[k]}")
        _refuse_non_ints(f"boundary matrix at degree {k}", itertools.chain.from_iterable(m))
    aug, vertices = tuple(augmentation), ranks[0] if ranks else 0
    if len(aug) != vertices:
        raise ValueError(f"augmentation vector has {len(aug)} entries, not {vertices}")
    _refuse_non_ints("augmentation vector", aug)
    if d_convention not in (TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET):
        raise ValueError(f"unknown d_convention {d_convention!r}")
    columns = tuple(_columns(boundary[k - 1], r) if k else ((),) * r for k, r in enumerate(ranks))
    return Adc(degs, columns, aug, tuple(flags), d_convention, name)


def _refuse_non_ints(field: str, entries: Iterable[object]) -> None:
    """ValueError naming `field` at its first entry that is not an int (bools too)."""
    for x in entries:
        if type(x) is not int:
            raise ValueError(f"{field} has the entry {x!r}, not an int")


def validate(K: Adc) -> Report:
    """Check d o d = 0 and e o d = 0 per generator (`make_adc` checks the shapes)."""
    report, cols = Report(), K.columns
    report.checked = {"d o d": sum(K.rank(k) for k in range(2, K.top + 1)), "e o d": K.rank(1)}
    for k in range(2, K.top + 1):
        for j, col in enumerate(cols[k]):
            dd = _sparse_sum((c, cols[k - 1][r]) for c, r in col)
            if dd:
                report.violations.append(
                    f"d o d != 0 on degree-{k} generator {K.degrees[k][j]}: "
                    f"{K.show(k - 2, [dd.get(q, 0) for q in range(K.rank(k - 2))])}"
                )
    for j, col in enumerate(cols[1] if K.top >= 1 else ()):
        if sum(c * K.augmentation[r] for c, r in col) != 0:
            report.violations.append(f"e o d != 0 on degree-1 generator {K.degrees[1][j]}")
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
    return Adc(K.degrees, K.columns, K.augmentation, cone,
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
    return _disk(n, d_convention)


@lru_cache(maxsize=None)
def _disk(n: int, d_convention: str) -> Adc:
    # an Adc is immutable, so every caller can share one copy per (n, convention)
    sign = orientation_sign(d_convention)
    degrees = [[f"s{k}", f"t{k}"] for k in range(n)] + [["x"]]
    # d[generator] = sign * (t_{k-1} - s_{k-1}): rows s_{k-1}, t_{k-1}
    boundary = [[[-sign] * len(degrees[k]), [sign] * len(degrees[k])] for k in range(1, n + 1)]
    augmentation = [1] * len(degrees[0])
    cone = ["nonneg"] * (n + 1)
    return make_adc(degrees, boundary, augmentation, cone, d_convention, f"disk({n})")


def cube_basis(n: int, k: int) -> list[str]:
    """Degree-k basis of the n-cube: sign sequences with exactly k zeros."""
    return sorted(s for s in map("".join, itertools.product("-+0", repeat=n)) if s.count("0") == k)


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
    degrees = tuple(tuple(cube_basis(n, k)) for k in range(n + 1))
    index = [{s: j for j, s in enumerate(basis)} for basis in degrees]
    columns = (((),) * 2 ** n,) + tuple(
        tuple(_column((c, index[k - 1][t]) for c, t in cube_d_terms(s, d_convention))
              for s in degrees[k]) for k in range(1, n + 1))
    return Adc(degrees, columns, (1,) * 2 ** n, tuple((True,) * len(b) for b in degrees),
               d_convention, f"cube({n})")


def tensor(K: Adc, L: Adc, name: str = "") -> Adc:
    """Tensor product of complexes with the signed Leibniz boundary.

    Basis of degree n: pairs x (x) y with deg x + deg y = n, ordered by the
    degree of the left factor and then row-major.  The cone constrains a
    pair iff both factors are constrained.
    """
    if K.d_convention != L.d_convention:
        raise ValueError("tensor factors must share a d_convention")
    top = K.top + L.top
    pairs = [[(i, a, nn - i, b) for i in range(nn + 1)  # (i, a, j, b) per basis element
              for a in range(K.rank(i)) for b in range(L.rank(nn - i))] for nn in range(top + 1)]
    index = [{key: pos for pos, key in enumerate(keyed)} for keyed in pairs]
    degrees = [[f"{K.degrees[i][a]}⊗{L.degrees[j][b]}" for i, a, j, b in keyed]
               for keyed in pairs]
    columns = [((),) * len(pairs[0])]
    for lo, keyed in zip(index, pairs[1:]):
        columns.append(tuple(_column(
            [(c, lo[i - 1, r, j, b]) for c, r in K.columns[i][a]]
            + [((-1) ** i * c, lo[i, a, j - 1, r]) for c, r in L.columns[j][b]])
            for i, a, j, b in keyed))
    augmentation = tuple(K.augmentation[a] * L.augmentation[b] for _, a, _, b in pairs[0])
    cone = tuple(tuple(K.cone[i][a] and L.cone[j][b] for i, a, j, b in keyed) for keyed in pairs)
    return Adc(tuple(map(tuple, degrees)), tuple(columns), augmentation, cone, K.d_convention,
               name or f"({K.name})⊗({L.name})")


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

    @cached_property
    def precomposition(self) -> tuple[Callable[[tuple], tuple], tuple, int]:
        """Precomposition with this monomial co-map over `flat` payloads, built once:
        (gather, negs, kills).  Past the target's width the gather reads the negated
        values `negs` names (degree, position, name), or zero chains of degrees < kills."""
        width, offs = len(self.target.flat), list(
            itertools.accumulate(map(len, self.target.degrees), initial=0))
        index: list[int] = []
        negs: list[tuple[int, int, str]] = []
        for (k, name), terms in zip(self.source.flat, (t for row in self.terms for t in row),
                                    strict=True):
            if not terms:
                index.append(width + k)
                continue
            ((c, t),) = terms
            if c == 1:
                index.append(offs[k] + t)
            else:
                index.append(width + len(negs))
                negs.append((k, offs[k] + t, name))
        kills = len(self.terms) if not negs and max(index) >= width else 0
        return _kernel(index), tuple(negs), kills

    def apply(self, k: int, coeffs: Sequence[int]) -> Vector:
        if k > self.source.top:
            return (0,) * self.target.rank(k)
        return _apply(self.terms[k], coeffs, self.target.rank(k))

    def is_chain_map(self) -> bool:
        """Exact check that boundaries and augmentations commute, generator by generator."""
        src, tgt, terms = self.source, self.target, self.terms
        for k in range(1, src.top + 1):
            for j, col in enumerate(src.columns[k]):
                left = (_sparse_sum((c, tgt.columns[k][t]) for c, t in terms[k][j])
                        if k <= tgt.top else {})
                if left != _sparse_sum((c, terms[k - 1][r]) for c, r in col):
                    return False
        return all(src.augmentation[j] == sum(c * tgt.augmentation[t] for c, t in terms[0][j])
                   for j in range(src.rank(0)))


def _basis_map(source: Adc, target: Adc, image: dict[str, list[tuple[int, str]]]) -> ChainMap:
    index = [{name: j for j, name in enumerate(basis)} for basis in target.degrees]
    terms = []
    for k, basis in enumerate(source.degrees):
        row = []
        for name in basis:
            row.append(tuple([(c, index[k][tname]) for c, tname in image.get(name, ())]))
        terms.append(tuple(row))
    return ChainMap(source, target, tuple(terms))


def _slot_map(source: Adc, target: Adc, i: int,
              table: dict[str, tuple[int, str] | None]) -> ChainMap:
    """Rewrite the window of symbols from slot i of every basis name by `table`.

    A table sends each window (all of one width) to (coefficient,
    replacement), or to None for zero.  Only the cube prefix of a name is
    read, so between tensor(cube(m), K) complexes a table gives its co-map
    (x) id_K.
    """
    width, image = len(next(iter(table))), {}
    for basis in source.degrees:
        for s in basis:
            hit = table[s[i - 1: i - 1 + width]]
            image[s] = [(hit[0], s[: i - 1] + hit[1] + s[i - 1 + width:])] if hit else []
    return _basis_map(source, target, image)


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


# The cube co-structure as slot tables (Brown and Higgins' cubical site): a
# face inserts alpha, a degeneracy deletes a slot, a connection collapses
# two, a reversal flips one and a transposition swaps two.
_PAIRS = [a + b for a in "-+0" for b in "-+0"]
_FACE = {alpha: {"": (1, alpha)} for alpha in "-+"}
_DEG = {"-": (1, ""), "+": (1, ""), "0": None}
_CONN = {alpha: {ab: (1, sym) if sym else None for ab in _PAIRS
                 for sym in [conn_collapse(ab, alpha)]} for alpha in "-+"}
_REV = {"-": (1, "+"), "+": (1, "-"), "0": (-1, "0")}
_SWAP = {ab: (-1 if ab == "00" else 1, ab[::-1]) for ab in _PAIRS}
_COPIES = {"-": (1,), "+": (2,), "0": (1, 2)}  # comp_split's copies of a slot


@lru_cache(maxsize=None)
def cube_face(n: int, i: int, alpha: str,
              d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The face co-map cube(n-1) -> cube(n): insert alpha at slot i."""
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no face (i={i}, alpha={alpha}) on the {n}-cube")
    return _slot_map(cube(n - 1, d_convention), cube(n, d_convention), i, _FACE[alpha])


@lru_cache(maxsize=None)
def cube_deg(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The degeneracy co-map cube(n) -> cube(n-1): delete slot i, kill 0 there."""
    if not 1 <= i <= n:
        raise ValueError(f"no degeneracy slot {i} on the {n}-cube")
    return _slot_map(cube(n, d_convention), cube(n - 1, d_convention), i, _DEG)


@lru_cache(maxsize=None)
def cube_conn(n: int, i: int, alpha: str,
              d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The connection co-map cube(n+1) -> cube(n): collapse slots i, i+1."""
    if not (1 <= i <= n and alpha in "-+"):
        raise ValueError(f"no connection (i={i}, alpha={alpha}) on the {n}-cube")
    return _slot_map(cube(n + 1, d_convention), cube(n, d_convention), i, _CONN[alpha])


@lru_cache(maxsize=None)
def cube_rev(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The reversal co-map cube(n) -> cube(n): swap - and + at slot i, negate a 0 there."""
    if not 1 <= i <= n:
        raise ValueError(f"no reversal slot {i} on the {n}-cube")
    return _slot_map(cube(n, d_convention), cube(n, d_convention), i, _REV)


@lru_cache(maxsize=None)
def cube_swap(n: int, i: int, d_convention: str = TARGET_MINUS_SOURCE) -> ChainMap:
    """The transposition co-map cube(n) -> cube(n): swap slots i, i+1 (Koszul sign on 00)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"no transposition slot {i} on the {n}-cube")
    return _slot_map(cube(n, d_convention), cube(n, d_convention), i, _SWAP)


def comp_split(n: int, i: int, s: str) -> list[tuple[int, str]]:
    """Copy-tagged pieces of the composition co-map on a basis sequence.

    A sequence with a 0 in slot i splits across both copies of the glued
    rectangle; otherwise it lands in the copy named by its sign.
    """
    return [(copy, s) for copy in _COPIES[s[i - 1]]]


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
    U * D * V != R, det U, det V are not +-1, or V times the inverse of
    V built alongside it is not the identity.  Works over exact Python
    integers; intermediate entries may grow, which is fine.
    """
    return _smith(rows)[:3]


def _smith(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """`smith_normal_form`'s (U, D, V), and V's inverse as a fourth matrix."""
    R = _as_matrix(rows)
    r = [list(row) for row in R]
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    u = _identity(nrows)  # accumulates inverses of the row operations
    v = _identity(ncols)  # accumulates inverses of the column operations
    vinv = _identity(ncols)  # accumulates the column operations themselves

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
        for k in range(ncols):
            vinv[k][a], vinv[k][b] = vinv[k][b], vinv[k][a]

    def col_add(dst, src, c):  # col[dst] += c * col[src]
        for k in range(nrows):
            r[k][dst] += c * r[k][src]
        for j in range(ncols):
            v[src][j] -= c * v[dst][j]
            vinv[j][dst] += c * vinv[j][src]

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
    U, D, V, Vinv = _as_matrix(u), _as_matrix(r), _as_matrix(v), _as_matrix(vinv)
    if (mat_mul(mat_mul(U, D), V) != R or abs(det(U)) != 1 or abs(det(V)) != 1
            or mat_mul(V, Vinv) != _as_matrix(_identity(ncols))):
        raise ArithmeticError("Smith normal form fails U * D * V == R with U, V unimodular"
                              " and V * V^-1 == I")
    return U, D, V, Vinv


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
    vinv: Matrix  # the inverse of v, built by `smith_normal_form` alongside it

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

    def class_of(self, combo: dict[str, int]) -> Vector:
        """Canonical coordinates of a generator combination in the quotient.

        Coordinates live in the basis given by the rows of V; torsion
        coordinates are reduced mod their invariant factor.
        """
        x = [0] * len(self.generators)
        for name, c in combo.items():
            x[self.generators.index(name)] += c
        vinv = self.vinv
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
        return AbelianPresentation(generators, rows_m, *_smith(rows_m))
    return AbelianPresentation(generators, _as_matrix(rows), *_smith(rows))


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
        "boundary": {str(k): _rows(K.columns[k], K.rank(k - 1)) for k in range(1, K.top + 1)},
        "augmentation": list(K.augmentation),
        "cone": cone,
        "d_convention": K.d_convention,
        "name": K.name,
    }


def _rows(columns: Sequence[Column], height: int) -> list[list[int]]:
    """The dense `height` x len(columns) matrix of `columns`, as rows."""
    rows = [[0] * len(columns) for _ in range(height)]
    for j, col in enumerate(columns):
        for x, r in col:
            rows[r][j] = x
    return rows


def from_json_dict(data: dict) -> Adc:
    """The complex of a `to_json_dict` object.  Raises ValueError when `data`
    is not an object, naming the field when `"boundary"` is not an object
    keyed by degrees in 1..top or `"name"` not a string, or as `make_adc` does."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, not {type(data).__name__}")
    degrees, matrices, name = data["degrees"], data.get("boundary", {}), data.get("name", "")
    if not isinstance(matrices, dict):
        raise ValueError(f"boundary is {matrices!r}, not an object of matrices by degree")
    keys = [str(k) for k in range(1, len(degrees))]
    stray = sorted(set(matrices) - set(keys))
    if stray:
        raise ValueError(f"boundary has the key {stray[0]!r}, not a degree in 1..{len(keys)}")
    if type(name) is not str:
        raise ValueError(f"name is {name!r}, not a string")
    flag = {"nonneg": True, "free": False}
    cone = [spec if isinstance(spec, str) else
            [flag.get(f, f) if isinstance(f, str) else f for f in spec] for spec in data["cone"]]
    return make_adc(
        degrees,
        [matrices.get(key, []) for key in keys],
        data["augmentation"],
        cone,
        data.get("d_convention", TARGET_MINUS_SOURCE),
        name,
    )


def save_adc(K: Adc, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(K), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_adc(path: str) -> Adc:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
