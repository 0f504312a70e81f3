"""Dimension-bounded cubical omega-categories with connections.

A model (`CubModel`) exposes faces, degeneracies, connections and the
partial compositions on opaque cells.  Nothing here assumes a particular
representation: the shipped instances are the cubical nerve of an
augmented directed complex (`cubeforge.nerve`), the shell construction
(`BoxModel` below), and a small poset model (`PosetModel`) that keeps
this module testable on its own.

Conventions.  Dimensions and directions are 1-based.  For an n-cell A,
``face(A, i, alpha)`` is defined for 1 <= i <= n, ``deg(A, i)`` for
1 <= i <= n+1, ``conn(A, i, alpha)`` for 1 <= i <= n, and
``comp(A, B, i)`` exactly when ``face(A, i, '+') == face(B, i, '-')``.
Attempting an undefined composition raises `CompositionError` (carrying
the mismatched faces); that is an error in the *caller*, while an axiom
violation found by `check_axioms` is data in the returned report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .indices import DomainError, lower, raise_

ALPHAS = ("-", "+")


class CompositionError(ValueError):
    """Two cells were composed along a direction where their faces differ."""


class NotInvertible(ValueError):
    """An inverse was requested for a cell that has none (of that kind)."""


class OracleUnavailable(RuntimeError):
    """The model has no decision procedure for the requested inverses."""


class BudgetExceeded(RuntimeError):
    """Bounded enumeration visited more nodes than the configured budget."""


def opposite(alpha: str) -> str:
    return "+" if alpha == "-" else "-"


@dataclass(frozen=True)
class Cell:
    """An opaque cell: a model handle, a dimension, and a hashable payload."""

    model: "CubModel" = field(repr=False)
    dim: int
    payload: Any

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cell)
            and self.model is other.model
            and self.dim == other.dim
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((id(self.model), self.dim, self.payload))

    def key(self) -> tuple:
        """A model-independent dedup key."""
        return (self.dim, self.payload)


class CubModel:
    """Interface for a cubical omega-category truncated at ``max_dim``.

    Subclasses implement the five operations; the optional hooks
    (`cells`, `r_inverse`, `has_r_inverse`) power enumeration-based
    checks and the invertibility machinery.
    """

    max_dim: int = 0

    # -- required operations ------------------------------------------------

    def face(self, A: Cell, i: int, alpha: str) -> Cell:
        raise NotImplementedError

    def deg(self, A: Cell, i: int) -> Cell:
        raise NotImplementedError

    def conn(self, A: Cell, i: int, alpha: str) -> Cell:
        raise NotImplementedError

    def comp(self, A: Cell, B: Cell, i: int) -> Cell:
        raise NotImplementedError

    def equal(self, A: Cell, B: Cell) -> bool:
        return A.dim == B.dim and A.payload == B.payload

    # -- optional hooks ------------------------------------------------------

    def cells(self, n: int, bound: int) -> list[Cell]:
        """All n-cells with coefficients bounded by `bound`, if enumerable."""
        raise OracleUnavailable(f"{type(self).__name__} has no cell enumerator")

    def r_inverse(self, A: Cell, i: int) -> Cell:
        raise OracleUnavailable(f"{type(self).__name__} has no inverse oracle")

    def has_r_inverse(self, A: Cell, i: int) -> bool:
        try:
            self.r_inverse(A, i)
            return True
        except NotInvertible:
            return False

    # -- generic helpers ------------------------------------------------------

    def check_composable(self, A: Cell, B: Cell, i: int) -> None:
        fa, fb = self.face(A, i, "+"), self.face(B, i, "-")
        if not self.equal(fa, fb):
            raise CompositionError(
                f"faces differ along direction {i}: {fa.payload!r} vs {fb.payload!r}"
            )


# ---------------------------------------------------------------------------
# 2D composites


DEBUG_GRID = False


def grid2(model: CubModel, rows: Sequence[Sequence[Cell]], row_dir: int, col_dir: int) -> Cell:
    """Compose a rectangular array: rows along `row_dir`, then down `col_dir`.

    With DEBUG_GRID set, 2x2 grids are also evaluated column-major and the
    two results compared (the interchange law); a mismatch raises.
    """
    composed_rows = []
    for row in rows:
        acc = row[0]
        for cell in row[1:]:
            acc = model.comp(acc, cell, row_dir)
        composed_rows.append(acc)
    result = composed_rows[0]
    for band in composed_rows[1:]:
        result = model.comp(result, band, col_dir)
    if DEBUG_GRID and len(rows) == 2 and len(rows[0]) == len(rows[1]) == 2:
        (a, b), (c, d) = rows
        other = model.comp(model.comp(a, c, col_dir), model.comp(b, d, col_dir), row_dir)
        if not model.equal(result, other):
            raise AssertionError("interchange violated in grid2")
    return result


# ---------------------------------------------------------------------------
# folding operations and thin cells


def psi(model: CubModel, A: Cell, i: int) -> Cell:
    """One elementary fold in direction i (1 <= i <= dim-1)."""
    if not 1 <= i <= A.dim - 1:
        raise DomainError(f"psi index {i} out of range for a {A.dim}-cell")
    left = model.conn(model.face(A, i + 1, "-"), i, "+")
    right = model.conn(model.face(A, i + 1, "+"), i, "-")
    return model.comp(model.comp(left, A, i + 1), right, i + 1)


def psi_block(model: CubModel, A: Cell, r: int) -> Cell:
    """The block fold: psi_{r-1} ... psi_1 (psi_1 first); 1 <= r <= dim."""
    if not 1 <= r <= A.dim:
        raise DomainError(f"block fold index {r} out of range for a {A.dim}-cell")
    for i in range(1, r):
        A = psi(model, A, i)
    return A


def phi(model: CubModel, A: Cell, m: int) -> Cell:
    """The full globularizing fold: the block folds at m, m-1, ..., 1."""
    if not 0 <= m <= A.dim:
        raise DomainError(f"fold depth {m} out of range for a {A.dim}-cell")
    for r in range(m, 0, -1):
        A = psi_block(model, A, r)
    return A


def fold_tail(model: CubModel, A: Cell) -> Cell:
    """The composite psi_1 ... psi_{n-1} A (psi_{n-1} applied first).

    This is the fold used by thinness and by plain invertibility.
    """
    for i in range(A.dim - 1, 0, -1):
        A = psi(model, A, i)
    return A


def in_deg_image(model: CubModel, A: Cell, i: int = 1) -> bool:
    """Exact membership in the image of the i-th degeneracy.

    Uses the round trip A == eps_i d_i^- A, which characterises the image.
    """
    if A.dim == 0:
        return False
    return model.equal(A, model.deg(model.face(A, i, "-"), i))


def is_thin(model: CubModel, A: Cell) -> bool:
    """A cell is thin when its full fold is a first-direction degeneracy."""
    if A.dim < 1:
        raise DomainError("thinness is defined for cells of dimension >= 1")
    return in_deg_image(model, fold_tail(model, A), 1)


# ---------------------------------------------------------------------------
# shells and the Box construction


@dataclass(frozen=True)
class Shell:
    """A compatible family of n-cells bounding a would-be (n+1)-cell."""

    base_dim: int
    faces: tuple[tuple[tuple[int, str], Cell], ...]  # sorted ((i, alpha), cell)

    @classmethod
    def from_faces(cls, base_dim: int, faces: Mapping[tuple[int, str], Cell]) -> "Shell":
        items = tuple(sorted(faces.items(), key=lambda kv: (kv[0][0], kv[0][1])))
        expected = {(i, a) for i in range(1, base_dim + 2) for a in ALPHAS}
        if {k for k, _ in items} != expected:
            raise ValueError("shell must provide every face (i, alpha)")
        return cls(base_dim, items)

    def face(self, i: int, alpha: str) -> Cell:
        return dict(self.faces)[(i, alpha)]

    def is_compatible(self, model: CubModel) -> bool:
        n = self.base_dim + 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for a in ALPHAS:
                    for b in ALPHAS:
                        lhs = model.face(self.face(j, b), lower(i, j), a)
                        rhs = model.face(self.face(i, a), lower(j, i), b)
                        if not model.equal(lhs, rhs):
                            return False
        return True


def shell_of(model: CubModel, A: Cell) -> Shell:
    """The family of all faces of A."""
    if A.dim < 1:
        raise DomainError("cells of dimension 0 have no shell")
    return Shell.from_faces(
        A.dim - 1,
        {
            (i, a): model.face(A, i, a)
            for i in range(1, A.dim + 1)
            for a in ALPHAS
        },
    )


def shell_key(model: CubModel, A: Cell) -> tuple:
    """Hashable signature of the shell of A, for grouping cells by shell."""
    return tuple(
        (i, a, model.face(A, i, a).payload)
        for i in range(1, A.dim + 1)
        for a in ALPHAS
    )


class BoxModel(CubModel):
    """The shell construction over a model truncated at level n.

    Cells of dimension <= n are the base model's own cells; cells of
    dimension n+1 are compatible families of n-cells with the face,
    degeneracy, connection and composition formulas acting
    componentwise.
    """

    def __init__(self, base: CubModel, n: int):
        self.base = base
        self.n = n
        self.max_dim = n + 1

    # shells are stored as payload ("shell", ((i, alpha, face_payload), ...))

    def shell_cell(self, faces: Mapping[tuple[int, str], Cell]) -> Cell:
        items = tuple(
            (i, a, faces[(i, a)].payload)
            for i in range(1, self.n + 2)
            for a in ALPHAS
        )
        return Cell(self, self.n + 1, ("shell", items))

    def from_shell(self, shell: Shell) -> Cell:
        return self.shell_cell(dict(shell.faces))

    def shell_faces(self, A: Cell) -> dict[tuple[int, str], Cell]:
        _, items = A.payload
        return {(i, a): Cell(self.base, self.n, p) for i, a, p in items}

    def embed(self, A: Cell) -> Cell:
        """View an (n+1)-cell of an ambient model as its shell here."""
        faces = {
            (i, a): A.model.face(A, i, a)
            for i in range(1, self.n + 2)
            for a in ALPHAS
        }
        return self.shell_cell(faces)

    def face(self, A: Cell, i: int, alpha: str) -> Cell:
        if A.dim == self.n + 1:
            return self.shell_faces(A)[(i, alpha)]
        return self.base.face(A, i, alpha)

    def deg(self, A: Cell, i: int) -> Cell:
        if A.dim == self.n:
            faces = {}
            for j in range(1, self.n + 2):
                for b in ALPHAS:
                    if j == i:
                        faces[(j, b)] = A
                    else:
                        faces[(j, b)] = self.base.deg(
                            self.base.face(A, lower(j, i), b), lower(i, j)
                        )
            return self.shell_cell(faces)
        return self.base.deg(A, i)

    def conn(self, A: Cell, i: int, alpha: str) -> Cell:
        if A.dim == self.n:
            faces = {}
            for j in range(1, self.n + 2):
                for b in ALPHAS:
                    if j in (i, i + 1):
                        if b == alpha:
                            faces[(j, b)] = A
                        else:
                            faces[(j, b)] = self.base.deg(self.base.face(A, i, b), i)
                    else:
                        faces[(j, b)] = self.base.conn(
                            self.base.face(A, lower(j, i), b), lower(i, j), alpha
                        )
            return self.shell_cell(faces)
        return self.base.conn(A, i, alpha)

    def comp(self, A: Cell, B: Cell, i: int) -> Cell:
        if A.dim == self.n + 1:
            fa, fb = self.shell_faces(A), self.shell_faces(B)
            if fa[(i, "+")] != fb[(i, "-")]:
                raise CompositionError(f"shells not composable along {i}")
            faces = {}
            for j in range(1, self.n + 2):
                for b in ALPHAS:
                    if j == i:
                        faces[(j, b)] = fa[(i, "-")] if b == "-" else fb[(i, "+")]
                    else:
                        faces[(j, b)] = self.base.comp(fa[(j, b)], fb[(j, b)], lower(i, j))
            return self.shell_cell(faces)
        return self.base.comp(A, B, i)

    def cells(self, n: int, bound: int) -> list[Cell]:
        if n <= self.n:
            return self.base.cells(n, bound)
        if n > self.n + 1:
            return []
        base_cells = self.base.cells(self.n, bound)
        slots = [(i, a) for i in range(1, self.n + 2) for a in ALPHAS]
        found: list[Cell] = []

        def compatible(placed: dict, slot: tuple[int, str], cand: Cell) -> bool:
            i, a = slot
            for (j, b), other in placed.items():
                if j == i:
                    continue
                lhs = self.base.face(other, lower(i, j), a)
                rhs = self.base.face(cand, lower(j, i), b)
                if not self.base.equal(lhs, rhs):
                    return False
            return True

        def search(pos: int, placed: dict) -> None:
            if pos == len(slots):
                found.append(self.shell_cell(placed))
                return
            slot = slots[pos]
            for cand in base_cells:
                if compatible(placed, slot, cand):
                    placed[slot] = cand
                    search(pos + 1, placed)
                    del placed[slot]

        search(0, {})
        return found

    def r_inverse(self, A: Cell, i: int) -> Cell:
        if A.dim != self.n + 1:
            return self.base.r_inverse(A, i)
        fa = self.shell_faces(A)
        faces = {}
        for j in range(1, self.n + 2):
            for b in ALPHAS:
                if j == i:
                    faces[(j, b)] = fa[(i, opposite(b))]
                else:
                    faces[(j, b)] = self.base.r_inverse(fa[(j, b)], lower(i, j))
        return self.shell_cell(faces)


# ---------------------------------------------------------------------------
# a small independent instance: monotone cube labelings in a poset


class PosetModel(CubModel):
    """The cubical nerve of a finite poset (e.g. reachability in a DAG).

    An n-cell is a monotone map {0,1}^n -> P, stored as the tuple of its
    values with coordinate 1 most significant.  Compositions glue along a
    direction; connections precompose with min/max.  R_i-inverses exist
    exactly for cells constant in direction i, which makes this a handy
    non-groupoid test instance with a full oracle.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]],
                 max_dim: int = 4):
        self.vertices = tuple(vertices)
        self.max_dim = max_dim
        reach = {v: {v} for v in vertices}
        adj: dict[str, set[str]] = {v: set() for v in vertices}
        for a, b in edges:
            adj[a].add(b)
        changed = True
        while changed:
            changed = False
            for v in vertices:
                for w in list(reach[v]):
                    extra = adj[w] - reach[v]
                    if extra:
                        reach[v] |= extra
                        changed = True
        self._reach = reach
        for v in vertices:
            for w in reach[v]:
                if v != w and v in reach[w]:
                    raise ValueError("relation has a cycle; need a poset")

    def leq(self, a: str, b: str) -> bool:
        return b in self._reach[a]

    def cell(self, labels: Sequence[str], dim: int) -> Cell:
        labels = tuple(labels)
        if len(labels) != 1 << dim:
            raise ValueError("wrong number of labels")
        for x in range(1 << dim):
            for bit in range(dim):
                y = x | (1 << bit)
                if y != x and not self.leq(labels[x], labels[y]):
                    raise ValueError("labeling is not monotone")
        return Cell(self, dim, labels)

    @staticmethod
    def _coord_bit(dim: int, i: int) -> int:
        # coordinate i in 1..dim; coordinate 1 is the most significant bit
        return dim - i

    def face(self, A: Cell, i: int, alpha: str) -> Cell:
        n = A.dim
        bit = self._coord_bit(n, i)
        val = 0 if alpha == "-" else 1
        labels = []
        for x in range(1 << (n - 1)):
            high = x >> bit
            low = x & ((1 << bit) - 1)
            labels.append(A.payload[(high << (bit + 1)) | (val << bit) | low])
        return Cell(self, n - 1, tuple(labels))

    def deg(self, A: Cell, i: int) -> Cell:
        n = A.dim
        bit = self._coord_bit(n + 1, i)
        labels = []
        for x in range(1 << (n + 1)):
            high = x >> (bit + 1)
            low = x & ((1 << bit) - 1)
            labels.append(A.payload[(high << bit) | low])
        return Cell(self, n + 1, tuple(labels))

    def conn(self, A: Cell, i: int, alpha: str) -> Cell:
        n = A.dim
        labels = []
        for x in range(1 << (n + 1)):
            bits = [(x >> self._coord_bit(n + 1, j)) & 1 for j in range(1, n + 2)]
            xi, xi1 = bits[i - 1], bits[i]
            merged = min(xi, xi1) if alpha == "+" else max(xi, xi1)
            newbits = bits[: i - 1] + [merged] + bits[i + 1:]
            y = 0
            for j, bval in enumerate(newbits, start=1):
                y |= bval << self._coord_bit(n, j)
            labels.append(A.payload[y])
        return Cell(self, n + 1, tuple(labels))

    def comp(self, A: Cell, B: Cell, i: int) -> Cell:
        self.check_composable(A, B, i)
        n = A.dim
        bit = self._coord_bit(n, i)
        labels = []
        for x in range(1 << n):
            src = A if not (x >> bit) & 1 else B
            labels.append(src.payload[x])
        return Cell(self, n, tuple(labels))

    def cells(self, n: int, bound: int = 0) -> list[Cell]:
        del bound  # the poset is finite; no coefficient bound applies
        out: list[Cell] = []

        def extend(labels: list[str]) -> None:
            x = len(labels)
            if x == 1 << n:
                out.append(Cell(self, n, tuple(labels)))
                return
            for v in self.vertices:
                ok = True
                for bit in range(n):
                    y = x & ~(1 << bit)
                    if y < x and not self.leq(labels[y], v):
                        ok = False
                        break
                if ok:
                    extend(labels + [v])

        extend([])
        return out

    def r_inverse(self, A: Cell, i: int) -> Cell:
        bit = self._coord_bit(A.dim, i)
        for x in range(1 << A.dim):
            if A.payload[x] != A.payload[x ^ (1 << bit)]:
                raise NotInvertible(
                    f"cell varies along direction {i}; posets have no inverses"
                )
        return A


# ---------------------------------------------------------------------------
# the axiom checker


@dataclass
class Violation:
    family: str
    dim: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.family}] dim {self.dim}: {self.detail}"


@dataclass
class AxiomReport:
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, family: str) -> None:
        self.checked[family] = self.checked.get(family, 0) + 1

    def summary(self) -> str:
        total = sum(self.checked.values())
        lines = [f"checked {total} equation instances in {len(self.checked)} families"]
        for family in sorted(self.checked):
            lines.append(f"  {family}: {self.checked[family]}")
        if self.violations:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("no violations")
        return "\n".join(lines)


def _eq(model: CubModel, report: AxiomReport, family: str, dim: int,
        lhs: Callable[[], Cell], rhs: Callable[[], Cell],
        detail: "str | Callable[[], str]") -> None:
    report.count(family)
    try:
        left = lhs()
        right = rhs()
    except CompositionError as exc:
        text = detail() if callable(detail) else detail
        report.violations.append(
            Violation(family, dim, f"{text}: composition failed ({exc})")
        )
        return
    if not model.equal(left, right):
        text = detail() if callable(detail) else detail
        report.violations.append(Violation(family, dim, text))


def composable_pairs(model: CubModel, cells: Sequence[Cell], i: int,
                     max_pairs: int) -> list[tuple[Cell, Cell]]:
    by_minus: dict[tuple, list[Cell]] = {}
    for B in cells:
        by_minus.setdefault(model.face(B, i, "-").key(), []).append(B)
    pairs = []
    for A in cells:
        for B in by_minus.get(model.face(A, i, "+").key(), ()):
            pairs.append((A, B))
            if len(pairs) >= max_pairs:
                return pairs
    return pairs


def check_axioms(
    model: CubModel,
    dim: int,
    cells_by_dim: Mapping[int, Sequence[Cell]] | None = None,
    *,
    bound: int = 1,
    max_pairs: int = 120,
) -> AxiomReport:
    """Evaluate every cubical-set and composition equation family on a sample.

    `cells_by_dim` maps each dimension <= dim to the sample cells; when
    omitted, the model's own enumerator at the given bound supplies it.
    Violations are collected, not raised.
    """
    if cells_by_dim is None:
        cells_by_dim = {n: model.cells(n, bound) for n in range(dim + 1)}
    report = AxiomReport()

    for n in range(dim + 1):
        sample = list(cells_by_dim.get(n, ()))
        for A in sample:
            _unary_families(model, report, A, n)
        for i in range(1, n + 1):
            pairs = composable_pairs(model, sample, i, max_pairs)
            for A, B in pairs:
                _pair_families(model, report, A, B, i, n)
            _associativity(model, report, sample, pairs, i, n, max_pairs)
            for j in range(1, n + 1):
                if i != j:
                    _interchange(model, report, pairs, i, j, n, max_pairs)
    return report


def _unary_families(model: CubModel, report: AxiomReport, A: Cell, n: int) -> None:
    can_raise = n + 1 <= model.max_dim  # room for one eps/Gamma above A
    can_raise2 = n + 2 <= model.max_dim
    # single-step results are shared across many equation instances
    face_a = {
        (i, a): model.face(A, i, a) for i in range(1, n + 1) for a in ALPHAS
    }
    if can_raise:
        deg_a = {j: model.deg(A, j) for j in range(1, n + 2)}
        conn_a = {
            (j, b): model.conn(A, j, b) for j in range(1, n + 1) for b in ALPHAS
        }
    # face/face
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for a in ALPHAS:
                for b in ALPHAS:
                    _eq(model, report, "face-face", n,
                        lambda: model.face(face_a[(i, b)], lower(j, i), a),
                        lambda: model.face(face_a[(j, a)], lower(i, j), b),
                        lambda: f"d_{lower(j,i)}^{a} d_{i}^{b} != d_{lower(i,j)}^{b} d_{j}^{a} on {A.payload!r}")
    # face/degeneracy
    if can_raise:
        for j in range(1, n + 2):
            for i in range(1, n + 2):
                for a in ALPHAS:
                    if i == j:
                        _eq(model, report, "face-deg", n,
                            lambda: model.face(deg_a[j], i, a),
                            lambda: A,
                            lambda: f"d_{i}^{a} eps_{i} != id on {A.payload!r}")
                    elif n >= 1:  # the inner face acts on an n-cell
                        _eq(model, report, "face-deg", n,
                            lambda: model.face(deg_a[j], i, a),
                            lambda: model.deg(face_a[(lower(i, j), a)], lower(j, i)),
                            lambda: f"d_{i}^{a} eps_{j} on {A.payload!r}")
    # face/connection
    if can_raise:
        for j in range(1, n + 1):
            for i in range(1, n + 2):
                for a in ALPHAS:
                    for b in ALPHAS:
                        if i in (j, j + 1):
                            if a == b:
                                _eq(model, report, "face-conn", n,
                                    lambda: model.face(conn_a[(j, b)], i, a),
                                    lambda: A,
                                    lambda: f"d_{i}^{a} Gamma_{j}^{b} != id on {A.payload!r}")
                            else:
                                _eq(model, report, "face-conn", n,
                                    lambda: model.face(conn_a[(j, b)], i, a),
                                    lambda: model.deg(face_a[(j, a)], j),
                                    lambda: f"d_{i}^{a} Gamma_{j}^{b} != eps_j d_j^{a} on {A.payload!r}")
                        else:
                            _eq(model, report, "face-conn", n,
                                lambda: model.face(conn_a[(j, b)], i, a),
                                lambda: model.conn(face_a[(lower(i, j), a)], lower(j, i), b),
                                lambda: f"d_{i}^{a} Gamma_{j}^{b} on {A.payload!r}")
    # degeneracy/degeneracy: eps_i then eps_{j^i} equals eps_j then eps_{i^j}
    # (this family is printed in diagram order: leftmost operator first;
    # for i <= j it is the classical eps_i eps_j = eps_{j+1} eps_i)
    if can_raise2:
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                _eq(model, report, "deg-deg", n,
                    lambda: model.deg(deg_a[i], raise_(j, i)),
                    lambda: model.deg(deg_a[j], raise_(i, j)),
                    lambda: f"eps_{raise_(j,i)} eps_{i} != eps_{raise_(i,j)} eps_{j} on {A.payload!r}")
    # connection/connection
    if can_raise2:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for a in ALPHAS:
                    for b in ALPHAS:
                        if i != j:
                            _eq(model, report, "conn-conn", n,
                                lambda: model.conn(conn_a[(j, b)], raise_(i, j), a),
                                lambda: model.conn(conn_a[(i, a)], raise_(j, i), b),
                                lambda: f"Gamma_{raise_(i,j)}^{a} Gamma_{j}^{b} on {A.payload!r}")
                        elif a == b:
                            _eq(model, report, "conn-conn", n,
                                lambda: model.conn(conn_a[(i, a)], i + 1, a),
                                lambda: model.conn(conn_a[(i, a)], i, a),
                                lambda: f"Gamma_{i+1}^{a} Gamma_{i}^{a} != Gamma_i Gamma_i on {A.payload!r}")
    # connection/degeneracy
    if can_raise2:
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                for a in ALPHAS:
                    if i == j:
                        _eq(model, report, "conn-deg", n,
                            lambda: model.conn(deg_a[i], i, a),
                            lambda: model.deg(deg_a[i], i),
                            lambda: f"Gamma_{i}^{a} eps_{i} != eps_i eps_i on {A.payload!r}")
                    else:
                        if lower(i, j) > n:
                            continue
                        _eq(model, report, "conn-deg", n,
                            lambda: model.conn(deg_a[j], i, a),
                            lambda: model.deg(conn_a[(lower(i, j), a)], raise_(j, i)),
                            lambda: f"Gamma_{i}^{a} eps_{j} on {A.payload!r}")
    # units and transport
    for i in range(1, n + 1):
        _eq(model, report, "unit", n,
            lambda: model.comp(A, model.deg(face_a[(i, "+")], i), i),
            lambda: A, f"right unit in direction {i} on {A.payload!r}")
        _eq(model, report, "unit", n,
            lambda: model.comp(model.deg(face_a[(i, "-")], i), A, i),
            lambda: A, f"left unit in direction {i} on {A.payload!r}")
    if can_raise:
        for i in range(1, n + 1):
            _eq(model, report, "transport", n,
                lambda: model.comp(conn_a[(i, "+")], conn_a[(i, "-")], i),
                lambda: deg_a[i + 1],
                lambda: f"Gamma_i^+ *_i Gamma_i^- != eps_(i+1) on {A.payload!r}")
            _eq(model, report, "transport", n,
                lambda: model.comp(conn_a[(i, "+")], conn_a[(i, "-")], i + 1),
                lambda: deg_a[i],
                lambda: f"Gamma_i^+ *_(i+1) Gamma_i^- != eps_i on {A.payload!r}")


def _pair_families(model: CubModel, report: AxiomReport, A: Cell, B: Cell,
                   i: int, n: int) -> None:
    AB = model.comp(A, B, i)
    # faces of a composite
    for k in range(1, n + 1):
        for a in ALPHAS:
            if k == i:
                _eq(model, report, "face-comp", n,
                    lambda: model.face(AB, i, a),
                    lambda: model.face(A, i, "-") if a == "-" else model.face(B, i, "+"),
                    f"d_{i}^{a} of *_{i}-composite")
            else:
                _eq(model, report, "face-comp", n,
                    lambda: model.face(AB, k, a),
                    lambda: model.comp(model.face(A, k, a), model.face(B, k, a), lower(i, k)),
                    f"d_{k}^{a} of *_{i}-composite")
    if n + 1 > model.max_dim:
        return
    # degeneracies of a composite
    for k in range(1, n + 2):
        _eq(model, report, "deg-comp", n,
            lambda: model.deg(AB, k),
            lambda: model.comp(model.deg(A, k), model.deg(B, k), raise_(i, k)),
            f"eps_{k} of *_{i}-composite")
    # connections of a composite
    for k in range(1, n + 1):
        if k == i:
            continue
        for a in ALPHAS:
            _eq(model, report, "conn-comp", n,
                lambda: model.conn(AB, k, a),
                lambda: model.comp(model.conn(A, k, a), model.conn(B, k, a), raise_(i, k)),
                f"Gamma_{k}^{a} of *_{i}-composite")
    # the two 2D transport tables at k == i
    _eq(model, report, "conn-comp", n,
        lambda: model.conn(AB, i, "-"),
        lambda: grid2(model,
                      [[model.conn(A, i, "-"), model.deg(B, i + 1)],
                       [model.deg(B, i), model.conn(B, i, "-")]],
                      i, i + 1),
        f"Gamma_{i}^- of *_{i}-composite")
    _eq(model, report, "conn-comp", n,
        lambda: model.conn(AB, i, "+"),
        lambda: grid2(model,
                      [[model.conn(A, i, "+"), model.deg(A, i)],
                       [model.deg(A, i + 1), model.conn(B, i, "+")]],
                      i, i + 1),
        f"Gamma_{i}^+ of *_{i}-composite")


def _associativity(model: CubModel, report: AxiomReport, sample: Sequence[Cell],
                   pairs: Sequence[tuple[Cell, Cell]], i: int, n: int,
                   max_triples: int) -> None:
    by_minus: dict[tuple, list[Cell]] = {}
    for C in sample:
        by_minus.setdefault(model.face(C, i, "-").key(), []).append(C)
    count = 0
    for A, B in pairs:
        for C in by_minus.get(model.face(B, i, "+").key(), ()):
            _eq(model, report, "assoc", n,
                lambda: model.comp(model.comp(A, B, i), C, i),
                lambda: model.comp(A, model.comp(B, C, i), i),
                f"associativity along {i}")
            count += 1
            if count >= max_triples:
                return


def _interchange(model: CubModel, report: AxiomReport,
                 pairs: Sequence[tuple[Cell, Cell]], i: int, j: int, n: int,
                 max_quads: int) -> None:
    by_top: dict[tuple, list[tuple[Cell, Cell]]] = {}
    for C, D in pairs:
        key = (model.face(C, j, "-").key(), model.face(D, j, "-").key())
        by_top.setdefault(key, []).append((C, D))
    count = 0
    for A, B in pairs:
        key = (model.face(A, j, "+").key(), model.face(B, j, "+").key())
        for C, D in by_top.get(key, ()):
            _eq(model, report, "interchange", n,
                lambda: model.comp(model.comp(A, B, i), model.comp(C, D, i), j),
                lambda: model.comp(model.comp(A, C, j), model.comp(B, D, j), i),
                f"interchange *_{i} / *_{j}")
            count += 1
            if count >= max_quads:
                return


# ---------------------------------------------------------------------------
# the globular view


@dataclass
class GammaView:
    """The globular facade on a cubical model: cells are full folds."""

    model: CubModel
    top_dim: int

    def globularize(self, A: Cell) -> Cell:
        return phi(self.model, A, A.dim)

    def cells(self, n: int, sample: Sequence[Cell]) -> list[Cell]:
        seen = []
        for A in sample:
            g = self.globularize(A)
            if all(not self.model.equal(g, h) for h in seen):
                seen.append(g)
        return seen

    def src(self, A: Cell) -> Cell:
        return self.model.face(A, 1, "-")

    def tgt(self, A: Cell) -> Cell:
        return self.model.face(A, 1, "+")

    def identity(self, A: Cell) -> Cell:
        return self.model.deg(A, 1)

    def comp(self, A: Cell, B: Cell, k: int) -> Cell:
        """The globular composite over a k-dimensional boundary."""
        if not 0 <= k < A.dim:
            raise DomainError(f"no composition over dimension {k} for {A.dim}-cells")
        return self.model.comp(A, B, A.dim - k)

    def check_globular(self, cells_by_dim: Mapping[int, Sequence[Cell]],
                       max_pairs: int = 60) -> AxiomReport:
        """Sampled globular laws: globularity, units, associativity, exchange."""
        report = AxiomReport()
        model = self.model
        for n, sample in sorted(cells_by_dim.items()):
            for A in sample:
                if n >= 2:
                    _eq(model, report, "globularity", n,
                        lambda: self.src(self.src(A)), lambda: self.src(self.tgt(A)),
                        "s s != s t")
                    _eq(model, report, "globularity", n,
                        lambda: self.tgt(self.src(A)), lambda: self.tgt(self.tgt(A)),
                        "t s != t t")
                if n >= 1:
                    _eq(model, report, "glob-unit", n,
                        lambda: self.comp(self.identity(self.src(A)), A, n - 1),
                        lambda: A, "1_s(A) . A != A")
                    _eq(model, report, "glob-unit", n,
                        lambda: self.comp(A, self.identity(self.tgt(A)), n - 1),
                        lambda: A, "A . 1_t(A) != A")
                _eq(model, report, "glob-id-st", n,
                    lambda: self.src(self.identity(A)), lambda: A, "s(1_A) != A")
                _eq(model, report, "glob-id-st", n,
                    lambda: self.tgt(self.identity(A)), lambda: A, "t(1_A) != A")
            for k in range(n):
                i = n - k
                pairs = composable_pairs(model, list(sample), i, max_pairs)
                for A, B in pairs:
                    if k == n - 1:
                        _eq(model, report, "glob-src-comp", n,
                            lambda: self.src(self.comp(A, B, k)),
                            lambda: self.src(A), "s(A . B) != s(A)")
                        _eq(model, report, "glob-src-comp", n,
                            lambda: self.tgt(self.comp(A, B, k)),
                            lambda: self.tgt(B), "t(A . B) != t(B)")
                    else:
                        _eq(model, report, "glob-src-comp", n,
                            lambda: self.src(self.comp(A, B, k)),
                            lambda: self.comp(self.src(A), self.src(B), k),
                            "s(A . B) != s(A) . s(B)")
                for j in range(k):
                    _exchange_glob(self, report, pairs, n, k, j, max_pairs)
        return report


def _exchange_glob(view: GammaView, report: AxiomReport,
                   pairs: Sequence[tuple[Cell, Cell]], n: int, k: int, j: int,
                   max_quads: int) -> None:
    model = view.model
    i_cub = n - k
    j_cub = n - j
    by_top: dict[tuple, list[tuple[Cell, Cell]]] = {}
    for C, D in pairs:
        key = (model.face(C, j_cub, "-").key(), model.face(D, j_cub, "-").key())
        by_top.setdefault(key, []).append((C, D))
    count = 0
    for A, B in pairs:
        key = (model.face(A, j_cub, "+").key(), model.face(B, j_cub, "+").key())
        for C, D in by_top.get(key, ()):
            _eq(model, report, "glob-exchange", n,
                lambda: view.comp(view.comp(A, B, k), view.comp(C, D, k), j),
                lambda: view.comp(view.comp(A, C, j), view.comp(B, D, j), k),
                f"exchange .{k} / .{j}")
            count += 1
            if count >= max_quads:
                return
