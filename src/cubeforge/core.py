"""Dimension-bounded cubical omega-categories with connections.

A model (`CubModel`) exposes faces, degeneracies, connections and the
partial compositions on opaque cells.  Nothing here assumes a particular
representation: the shipped instances are the cubical and globular
nerves of an augmented directed complex (`cubeforge.nerve`), and
`shell_key` reads the shell of a cell, the family of its faces.
Globular cells speak the same vocabulary: source, target, identity and
the composite over a k-dimensional boundary are d_1^-, d_1^+, eps_1 and
*_(n-k), so one checker (`check_globular`) covers the full folds of
cubical cells (`globular_cells`) and the globular nerve
(`cubeforge.nerve.NgModel`).

Conventions.  Dimensions and directions are 1-based.  For an n-cell A,
``face(A, i, alpha)`` is defined for 1 <= i <= n, ``deg(A, i)`` for
1 <= i <= n+1, ``conn(A, i, alpha)`` for 1 <= i <= n, and
``comp(A, B, i)`` exactly when ``face(A, i, '+') == face(B, i, '-')``.
Attempting an undefined composition raises `CompositionError` (carrying
the mismatched faces); that is an error in the *caller*, while an axiom
violation found by `check_axioms` is data in the returned report.

The checkers compile each equation family, once per dimension (and
direction), into a cached `_Plan`: operation words deduplicated by
structure, evaluated on demand at most once per cell.  The leaves are
the sample cells themselves; only a pair's composite is computed once
outside the plans, and shared by the plans of its pair, triples and
quadruples.  Counts and violations are those of checking each equation
on its own.
The folds and the constructions and verifications of `cubeforge.invert`
(the closure formulas among them) are plans too.  Plans are
model-independent: `CubModel.lower`, the one evaluation hook, turns a
plan into steps over the model's values, each step one of the five
operations (face, deg, conn, comp, r_inverse); the nerves lower them to
payload kernels.  `_run` checks equations with the counts and violation
text described above; `_eval` runs a construction in the order it was
built and stops at its first failing equation; `_ask` answers a plan's
probes (has this slot a reversal inverse in that direction?) as asked.

On the nerves a plan is compiled into one program (`Lowered.program`)
when it is first lowered, which serves all three runners: it computes
every node at once and then makes every check (composability compares,
cone checks, the equations) at once.  When they all hold, `_eval` returns
its value, `_run` adds the plan's per-family counts and `_ask` reads
every probe's answer; when any fails, the program declines and the call
goes to the steps, which stay the reference for every failure, so
violations keep their order and text.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .indices import DomainError, lower, raise_

ALPHAS = ("-", "+")


class CompositionError(ValueError):
    """Two cells were composed along a direction where their faces differ."""


class NotInvertible(ValueError):
    """An inverse was requested for a cell that has none (of that kind)."""


class OracleUnavailable(RuntimeError):
    """The model has no decision procedure for the requested inverses."""


class BudgetExceeded(RuntimeError):
    """Bounded enumeration of n-cells at a coefficient bound visited `nodes`
    nodes (or would scan a box of `nodes` points), more than its `budget`."""

    def __init__(self, n: int, bound: int, nodes: int, budget: int, what: str = "nodes"):
        super().__init__(f"enumeration of {n}-cells at bound {bound} exceeded {budget} {what}")
        self.n, self.bound, self.nodes, self.budget = n, bound, nodes, budget


@dataclass(frozen=True, slots=True)
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


class Lowered(NamedTuple):
    """A plan on a model: ``steps[k] = (fn, x, y, data)`` gives node slot
    k the value ``fn(vals[x], vals[y], data)`` (y is read by comp only).
    `load` maps a leaf cell to its value, `cell(model, k, value)` a value
    in slot k back to a cell of `model`, and `equal` compares values as
    the model compares cells; so the nerves of one shape share one record.
    `program` is None or the compiled plan, which `_run`, `_eval` and
    `_ask` try first: a function of the leaf values giving slot `out`'s
    value (a plan with probes: the list of their answers) when every
    composability compare, cone check and equation holds, else
    NotImplemented, which hands the call to the steps.
    """

    steps: tuple
    load: Callable[[Cell], Any]
    cell: Callable[["CubModel", int, Any], Cell]
    equal: Callable[[Any, Any], bool]
    program: Callable[[list], Any] | None = None


class CubModel:
    """Interface for a cubical omega-category truncated at ``max_dim``.

    Subclasses implement the five operations; the optional hooks
    (`cells`, `r_inverse`, `has_r_inverse`) power enumeration-based
    checks and the invertibility machinery; `has_r_inverse` answers
    whether `r_inverse` raises `NotInvertible`, on the nerves too.
    `lower` is the one hook through which plans are evaluated; without it
    a model runs no plan.
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

    def lower(self, plan: "_Plan", leaf_dims: tuple[int, ...]) -> Lowered:
        """`plan` as steps over this model's values, for leaves of `leaf_dims`.

        Each step runs its node's operation (r_inverse for rev) and raises
        what that operation raises on the same cells.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# folding operations and thin cells


def psi(model: CubModel, A: Cell, i: int) -> Cell:
    """One elementary fold in direction i (1 <= i <= dim-1)."""
    if not 1 <= i <= A.dim - 1:
        raise DomainError(f"psi index {i} out of range for a {A.dim}-cell")
    return _eval(_fold_plan((i,)), model, [A])


def psi_block(model: CubModel, A: Cell, r: int) -> Cell:
    """The block fold: psi_{r-1} ... psi_1 (psi_1 first); 1 <= r <= dim."""
    if not 1 <= r <= A.dim:
        raise DomainError(f"block fold index {r} out of range for a {A.dim}-cell")
    return _eval(_fold_plan(tuple(range(1, r))), model, [A])


def phi(model: CubModel, A: Cell, m: int) -> Cell:
    """The full globularizing fold: the block folds at m, m-1, ..., 1."""
    if not 0 <= m <= A.dim:
        raise DomainError(f"fold depth {m} out of range for a {A.dim}-cell")
    dirs = tuple(i for r in range(m, 0, -1) for i in range(1, r))
    return _eval(_fold_plan(dirs), model, [A])


def fold_tail(model: CubModel, A: Cell) -> Cell:
    """The composite psi_1 ... psi_{n-1} A (psi_{n-1} applied first).

    This is the fold used by thinness and by plain invertibility.
    """
    return _eval(_fold_plan(tuple(range(A.dim - 1, 0, -1))), model, [A])


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
# shells


def shell_key(model: CubModel, A: Cell) -> tuple:
    """Hashable signature of the shell of A, for grouping cells by shell."""
    return tuple(
        (i, a, model.face(A, i, a).payload)
        for i in range(1, A.dim + 1)
        for a in ALPHAS
    )


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
class Report:
    """Counts of checked equation instances by family, and the violations found."""

    checked: dict[str, int] = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [f"checked {sum(self.checked.values())} equation instances"]
        lines += [f"  {family}: {self.checked[family]}" for family in sorted(self.checked)]
        lines += [f"VIOLATION {v}" for v in sorted(map(str, self.violations))]
        return "\n".join(lines)


def _match(plus: Iterable, minus: Sequence, limit: int) -> list[tuple[int, int]]:
    """The first `limit` index pairs (x, y), x-major, with plus[x] == minus[y]."""
    out, by_key = [], {}
    for y, key in enumerate(minus):
        by_key.setdefault(key, []).append(y)
    for x, key in enumerate(plus):
        for y in by_key.get(key, ()):
            if len(out) >= limit:
                return out
            out.append((x, y))
    return out


def composable_pairs(model: CubModel, cells: Sequence[Cell], i: int,
                     max_pairs: int) -> list[tuple[Cell, Cell]]:
    """The first `max_pairs` pairs (A, B) of `cells` with d_i^+ A == d_i^- B, A-major."""
    minus = [model.face(B, i, "-").key() for B in cells]
    plus = (model.face(A, i, "+").key() for A in cells)
    return [(cells[x], cells[y]) for x, y in _match(plus, minus, max_pairs)]


@functools.cache
def _faces_plan(n: int) -> _Plan:
    """The 2n faces d_i^alpha of one n-cell, (i, alpha) in `_face_keys` order."""
    p = _Plan(1)
    for i, a in product(range(1, n + 1), ALPHAS):
        p.face(0, i, a)
    return p


def _face_keys(model: CubModel, cells: Sequence[Cell], n: int) -> dict[tuple[int, str], list]:
    """Keys of d_i^alpha A for each of the n-cells A of `cells`, by (i, alpha):
    the lowered values of `_faces_plan(n)`, to compare within one model and
    dimension (the payloads on the nerves, the cells elsewhere)."""
    low = model.lower(_faces_plan(n), (n,))
    vals = list(map(low.load, cells))
    return {(i, a): [fn(v, v, data) for v in vals]
            for (i, a), (fn, _, _, data) in zip(product(range(1, n + 1), ALPHAS), low.steps[1:])}


class _Plan:
    """Equations between operation words on a fixed list of leaf cells.

    Slots ``0 .. leaves-1`` hold the cells a caller passes in.  Node
    ``(kind, x, args)`` fills the next slot with the operation `kind` on
    slot x and `args`: (i, alpha) for face and conn, (i,) for deg and rev
    (the reversal inverse), and (slot y, i) for comp.  Nodes are
    deduplicated by structure.  Each equation keeps the nodes its lhs,
    then its rhs, need, in order, and the number of slots built before
    it; `counts` holds the number of equations per family, in
    first-appearance order; `out` is the slot a construction returns;
    `probes` ask `has_r_inverse` of slots (`_ask`; such plans hold no
    equations).  A plan names operations only: `CubModel.lower` supplies
    the code.
    `checker` marks the plans `_run` runs, whose programs read a sum with
    a zero chain as the other summand (`cubeforge.nerve`).
    """

    def __init__(self, leaves: int, on_cell: bool = False, checker: bool = False):
        self.leaves = leaves
        self.on_cell = on_cell  # details end in " on <payload of slot 0>"
        self.checker = checker
        self.nodes: list[tuple] = []
        self.slots: dict[tuple, int] = {}
        self.equations: list[tuple] = []  # (family, lhs, rhs, detail, steps, built)
        self.counts: dict[str, int] = {}
        self.probes: list[tuple] = []  # (x, k, the nodes its word reached, in that order)
        self.touched: list[int] = []  # the slots `op` returned since the last eq or probe
        self.out = 0

    def op(self, kind: str, x: int, *args) -> int:
        node = (kind, x, args)
        if node not in self.slots:
            self.slots[node] = self.leaves + len(self.nodes)
            self.nodes.append(node)
        self.touched.append(self.slots[node])
        return self.slots[node]

    def face(self, x: int, i: int, alpha: str) -> int:
        return self.op("face", x, i, alpha)

    def deg(self, x: int, i: int) -> int:
        return self.op("deg", x, i)

    def conn(self, x: int, i: int, alpha: str) -> int:
        return self.op("conn", x, i, alpha)

    def comp(self, x: int, y: int, i: int) -> int:
        return self.op("comp", x, y, i)

    def rev(self, x: int, i: int) -> int:
        return self.op("rev", x, i)

    def psi(self, x: int, i: int) -> int:
        """The elementary fold of slot x in direction i, built as `psi` computes it."""
        left = self.conn(self.face(x, i + 1, "-"), i, "+")
        right = self.conn(self.face(x, i + 1, "+"), i, "-")
        return self.comp(self.comp(left, x, i + 1), right, i + 1)

    def eq(self, family: str, lhs: int, rhs: int, detail: str) -> None:
        steps: list[int] = []

        def need(slot: int) -> None:
            if slot >= self.leaves and slot not in steps:
                kind, x, args = self.nodes[slot - self.leaves]
                need(x)
                if kind == "comp":
                    need(args[0])
                steps.append(slot)

        need(lhs)
        need(rhs)
        built = self.leaves + len(self.nodes)
        self.equations.append((family, lhs, rhs, detail, tuple(steps), built))
        self.counts[family] = self.counts.get(family, 0) + 1
        self.touched = []

    def probe(self, x: int, k: int) -> int:
        """Ask `has_r_inverse` of slot x in direction k; the probe's index.  Its
        nodes are those the calls building its word, just before it, reached,
        in that order, which is the order code evaluating the word computes them."""
        nodes, self.touched = tuple(dict.fromkeys(s for s in self.touched if s >= self.leaves)), []
        self.probes.append((x, k, nodes))
        return len(self.probes) - 1


def _run(plan: _Plan, model: CubModel, report: Report, cells: list, n: int) -> None:
    """Check the equations of `plan` on the leaf `cells`, adding to `report`.

    A lowered plan's program, if any, runs first; when every check holds it
    adds the plan's counts and the steps are not run.  Otherwise a node is
    computed when an equation first needs it, then shared.  A
    `CompositionError` ends its equation as a violation, and a node it
    left uncomputed is computed afresh by the next equation needing it.
    """
    low = model.lower(plan, tuple(A.dim for A in cells))
    vals, checked = list(map(low.load, cells)), report.checked
    if low.program is not None and low.program(vals) is not NotImplemented:
        for family, count in plan.counts.items():
            checked[family] = checked.get(family, 0) + count
        return
    steps, equal = low.steps, low.equal
    vals += [None] * len(plan.nodes)
    for family, lhs, rhs, detail, need, _ in plan.equations:
        checked[family] = checked.get(family, 0) + 1
        try:
            for k in need:
                if vals[k] is None:
                    fn, x, y, data = steps[k]
                    vals[k] = fn(vals[x], vals[y], data)
        except CompositionError as exc:
            why = f": composition failed ({exc})"
        else:
            if equal(vals[lhs], vals[rhs]):
                continue
            why = ""
        on = f" on {cells[0].payload!r}" if plan.on_cell else ""
        report.violations.append(Violation(family, n, detail + on + why))


def _eval(plan: _Plan, model: CubModel, cells: list) -> Cell | None:
    """Run `plan` as a construction on the leaf `cells`.

    Nodes are computed in the order the plan built them, and each
    equation is tested once the nodes built before it are computed, so
    work, exceptions and short-circuiting follow the code the plan
    replaces.  Returns None at the first failing equation, else the
    cell in slot `plan.out`.  A lowered plan's program, if any, runs
    first; the steps run only when it declines, returning NotImplemented.
    """
    low, out = model.lower(plan, tuple(A.dim for A in cells)), plan.out
    vals = list(map(low.load, cells))
    value = NotImplemented if low.program is None else low.program(vals)
    if value is NotImplemented:
        steps, equal = low.steps, low.equal

        def build(upto: int) -> None:
            for fn, x, y, data in steps[len(vals):upto]:
                vals.append(fn(vals[x], vals[y], data))

        for _, lhs, rhs, _, _, built in plan.equations:
            build(built)
            if not equal(vals[lhs], vals[rhs]):
                return None
        build(len(steps))
        value = vals[out]
    return cells[out] if out < plan.leaves else low.cell(model, out, value)


def _ask(plan: _Plan, model: CubModel, rows: Sequence[list]) -> list[Callable[[int], bool]]:
    """Per row of leaf cells (rows of one shape), the answers to `plan`'s probes
    by index: the plan lowered once, its program run on each row.  A row it
    declines is answered when asked, `model.has_r_inverse` deciding a probe after
    its nodes (`probe`) are computed or shared, so work and exceptions follow it."""
    low = model.lower(plan, tuple(A.dim for A in rows[0])) if rows else None
    return [_reader(plan, model, low, cells) for cells in rows]


def _reader(plan: _Plan, model: CubModel, low: Lowered, cells: list) -> Callable[[int], bool]:
    vals = list(map(low.load, cells))
    bits = NotImplemented if low.program is None else low.program(vals)
    if bits is not NotImplemented:
        return bits.__getitem__
    steps, leaves = low.steps, plan.leaves
    vals += [None] * len(plan.nodes)

    def ask(q: int) -> bool:
        x, k, need = plan.probes[q]
        for s in need:
            if vals[s] is None:
                fn, a, b, data = steps[s]
                vals[s] = fn(vals[a], vals[b], data)
        return model.has_r_inverse(cells[x] if x < leaves else low.cell(model, x, vals[x]), k)

    return ask


@functools.cache
def _fold_plan(dirs: tuple[int, ...]) -> _Plan:
    """The elementary folds psi_i, for i in `dirs` in that order, of one cell."""
    p = _Plan(1)
    for i in dirs:
        p.out = p.psi(p.out, i)
    return p


@functools.cache
def _unary_plan(n: int, max_dim: int) -> _Plan:
    """All families on one n-cell A, the plan's one leaf."""
    p, A = _Plan(1, on_cell=True, checker=True), 0
    dirs, slots = range(1, n + 1), range(1, n + 2)  # directions of A and of eps A
    can_raise = n + 1 <= max_dim  # room for one eps/Gamma above A
    can_raise2 = n + 2 <= max_dim
    for i, j, a, b in product(dirs, dirs, ALPHAS, ALPHAS):
        if i != j:
            p.eq("face-face", p.face(p.face(A, i, b), lower(j, i), a),
                 p.face(p.face(A, j, a), lower(i, j), b),
                 f"d_{lower(j,i)}^{a} d_{i}^{b} != d_{lower(i,j)}^{b} d_{j}^{a}")
    if can_raise:
        for j, i, a in product(slots, slots, ALPHAS):
            if i == j:
                p.eq("face-deg", p.face(p.deg(A, j), i, a), A, f"d_{i}^{a} eps_{i} != id")
            elif n >= 1:  # the inner face acts on an n-cell
                p.eq("face-deg", p.face(p.deg(A, j), i, a),
                     p.deg(p.face(A, lower(i, j), a), lower(j, i)), f"d_{i}^{a} eps_{j}")
        for j, i, a, b in product(dirs, slots, ALPHAS, ALPHAS):
            lhs, what = p.face(p.conn(A, j, b), i, a), f"d_{i}^{a} Gamma_{j}^{b}"
            if i not in (j, j + 1):
                p.eq("face-conn", lhs, p.conn(p.face(A, lower(i, j), a), lower(j, i), b), what)
            elif a == b:
                p.eq("face-conn", lhs, A, f"{what} != id")
            else:
                p.eq("face-conn", lhs, p.deg(p.face(A, j, a), j), f"{what} != eps_j d_j^{a}")
    if can_raise2:
        # eps_i then eps_{j^i} equals eps_j then eps_{i^j}, printed in diagram
        # order (for i <= j: the classical eps_i eps_j = eps_{j+1} eps_i)
        for i, j in product(slots, slots):
            p.eq("deg-deg", p.deg(p.deg(A, i), raise_(j, i)), p.deg(p.deg(A, j), raise_(i, j)),
                 f"eps_{raise_(j,i)} eps_{i} != eps_{raise_(i,j)} eps_{j}")
        for i, j, a, b in product(dirs, dirs, ALPHAS, ALPHAS):
            if i != j:
                p.eq("conn-conn", p.conn(p.conn(A, j, b), raise_(i, j), a),
                     p.conn(p.conn(A, i, a), raise_(j, i), b),
                     f"Gamma_{raise_(i,j)}^{a} Gamma_{j}^{b}")
            elif a == b:
                p.eq("conn-conn", p.conn(p.conn(A, i, a), i + 1, a), p.conn(p.conn(A, i, a), i, a),
                     f"Gamma_{i+1}^{a} Gamma_{i}^{a} != Gamma_i Gamma_i")
        for i, j, a in product(slots, slots, ALPHAS):
            if i == j:
                p.eq("conn-deg", p.conn(p.deg(A, i), i, a), p.deg(p.deg(A, i), i),
                     f"Gamma_{i}^{a} eps_{i} != eps_i eps_i")
            elif lower(i, j) <= n:
                p.eq("conn-deg", p.conn(p.deg(A, j), i, a),
                     p.deg(p.conn(A, lower(i, j), a), raise_(j, i)), f"Gamma_{i}^{a} eps_{j}")
    for i in dirs:
        p.eq("unit", p.comp(A, p.deg(p.face(A, i, "+"), i), i), A, f"right unit in direction {i}")
        p.eq("unit", p.comp(p.deg(p.face(A, i, "-"), i), A, i), A, f"left unit in direction {i}")
    if can_raise:
        for i in dirs:
            p.eq("transport", p.comp(p.conn(A, i, "+"), p.conn(A, i, "-"), i), p.deg(A, i + 1),
                 "Gamma_i^+ *_i Gamma_i^- != eps_(i+1)")
            p.eq("transport", p.comp(p.conn(A, i, "+"), p.conn(A, i, "-"), i + 1), p.deg(A, i),
                 "Gamma_i^+ *_(i+1) Gamma_i^- != eps_i")
    return p


@functools.cache
def _pair_plan(n: int, max_dim: int, i: int) -> _Plan:
    """The composite families of A *_i B; leaves: A, B, then A *_i B."""
    p, (A, B, AB) = _Plan(3, checker=True), range(3)
    for k, a in product(range(1, n + 1), ALPHAS):
        if k == i:
            p.eq("face-comp", p.face(AB, i, a), p.face(A if a == "-" else B, i, a),
                 f"d_{i}^{a} of *_{i}-composite")
        else:
            p.eq("face-comp", p.face(AB, k, a),
                 p.comp(p.face(A, k, a), p.face(B, k, a), lower(i, k)),
                 f"d_{k}^{a} of *_{i}-composite")
    if n + 1 > max_dim:
        return p
    for k in range(1, n + 2):
        p.eq("deg-comp", p.deg(AB, k), p.comp(p.deg(A, k), p.deg(B, k), raise_(i, k)),
             f"eps_{k} of *_{i}-composite")
    for k, a in product(range(1, n + 1), ALPHAS):
        if k != i:
            p.eq("conn-comp", p.conn(AB, k, a),
                 p.comp(p.conn(A, k, a), p.conn(B, k, a), raise_(i, k)),
                 f"Gamma_{k}^{a} of *_{i}-composite")
    # the two 2D transport tables at k == i: each row composed along i,
    # then the two rows along i+1
    grids = {"-": ((p.conn(A, i, "-"), p.deg(B, i + 1)), (p.deg(B, i), p.conn(B, i, "-"))),
             "+": ((p.conn(A, i, "+"), p.deg(A, i)), (p.deg(A, i + 1), p.conn(B, i, "+")))}
    for a, (top, bottom) in grids.items():
        p.eq("conn-comp", p.conn(AB, i, a), p.comp(p.comp(*top, i), p.comp(*bottom, i), i + 1),
             f"Gamma_{i}^{a} of *_{i}-composite")
    return p


@functools.cache
def _assoc_plan(i: int) -> _Plan:
    p, (A, B, C, AB) = _Plan(4, checker=True), range(4)
    p.eq("assoc", p.comp(AB, C, i), p.comp(A, p.comp(B, C, i), i), f"associativity along {i}")
    return p


@functools.cache
def _interchange_plan(i: int, j: int) -> _Plan:
    p, (A, B, C, D, AB, CD) = _Plan(6, checker=True), range(6)
    p.eq("interchange", p.comp(AB, CD, j), p.comp(p.comp(A, C, j), p.comp(B, D, j), i),
         f"interchange *_{i} / *_{j}")
    return p


def check_axioms(
    model: CubModel,
    dim: int,
    cells_by_dim: Mapping[int, Sequence[Cell]] | None = None,
    *,
    bound: int = 1,
    max_pairs: int = 120,
) -> Report:
    """Evaluate every cubical-set and composition equation family on a sample.

    `cells_by_dim` maps each dimension <= dim to the sample cells; when
    omitted, the model's own enumerator at the given bound supplies it.
    Violations are collected, not raised.  Per direction at most
    `max_pairs` composable pairs are checked, and as many triples and
    quadruples.

    The families run as the cached plans described in the module
    docstring; counts and violations (in order and text) are those of
    evaluating each equation on its own, lhs then rhs.
    """
    if cells_by_dim is None:
        cells_by_dim = {n: model.cells(n, bound) for n in range(dim + 1)}
    report = Report()
    for n in range(dim + 1):
        sample = list(cells_by_dim.get(n, ()))
        unary = _unary_plan(n, model.max_dim)
        for A in sample:
            _run(unary, model, report, [A], n)
        key = _face_keys(model, sample, n)
        for i in range(1, n + 1):
            pairs, ab = _match(key[(i, "+")], key[(i, "-")], max_pairs), []
            for x, y in pairs:
                ab.append(model.comp(sample[x], sample[y], i))
                _run(_pair_plan(n, model.max_dim, i), model, report,
                     [sample[x], sample[y], ab[-1]], n)
            for p, z in _match([key[(i, "+")][y] for _, y in pairs], key[(i, "-")], max_pairs):
                x, y = pairs[p]
                _run(_assoc_plan(i), model, report, [sample[x], sample[y], sample[z], ab[p]], n)
            for j in range(1, n + 1):
                if j == i:
                    continue
                sides = {a: [(key[(j, a)][x], key[(j, a)][y]) for x, y in pairs] for a in ALPHAS}
                for p, q in _match(sides["+"], sides["-"], max_pairs):
                    (x, y), (z, w) = pairs[p], pairs[q]
                    _run(_interchange_plan(i, j), model, report,
                         [sample[x], sample[y], sample[z], sample[w], ab[p], ab[q]], n)
    return report


# ---------------------------------------------------------------------------
# the globular laws


def globular_cells(model: CubModel, sample: Iterable[Cell]) -> list[Cell]:
    """The distinct full folds of the cells of `sample`, in first-seen order."""
    return list({g.key(): g for g in (phi(model, A, A.dim) for A in sample)}.values())


def check_globular(model: CubModel, cells_by_dim: Mapping[int, Sequence[Cell]],
                   max_pairs: int = 60) -> Report:
    """Sampled globular laws on globular cells, full folds (`globular_cells`)
    or globular nerve cells: globularity, glob-unit, glob-id-st (s and t of
    an identity), glob-src-comp (s and t of a composite) and glob-exchange."""
    report = Report()
    for n, sample in sorted(cells_by_dim.items()):
        sample = list(sample)
        for A in sample:
            _run(_globular_plan(n), model, report, [A], n)
        key = _face_keys(model, sample, n)
        for k in range(n):
            pairs = _match(key[(n - k, "+")], key[(n - k, "-")], max_pairs)
            for x, y in pairs:
                _run(_globular_plan(n, k), model, report, [sample[x], sample[y]], n)
            for j in range(k):
                sides = {a: [(key[(n - j, a)][x], key[(n - j, a)][y]) for x, y in pairs]
                         for a in ALPHAS}
                for p, q in _match(sides["+"], sides["-"], max_pairs):
                    (x, y), (z, w) = pairs[p], pairs[q]
                    _run(_globular_plan(n, k, j), model, report,
                         [sample[x], sample[y], sample[z], sample[w]], n)
    return report


@functools.cache
def _globular_plan(n: int, k: int = -1, j: int = -1) -> _Plan:
    """The globular laws on an n-cell A (k < 0), on a pair A ._k B (j < 0),
    or the exchange of ._k and ._j on a quadruple A, B, C, D."""
    p = _Plan(1 if k < 0 else 2 if j < 0 else 4, checker=True)
    s, t = (lambda X: p.face(X, 1, "-")), (lambda X: p.face(X, 1, "+"))
    A, B, C, D = range(4)
    if k < 0:
        if n >= 2:
            p.eq("globularity", s(s(A)), s(t(A)), "s s != s t")
            p.eq("globularity", t(s(A)), t(t(A)), "t s != t t")
        if n >= 1:
            p.eq("glob-unit", p.comp(p.deg(s(A), 1), A, 1), A, "1_s(A) . A != A")
            p.eq("glob-unit", p.comp(A, p.deg(t(A), 1), 1), A, "A . 1_t(A) != A")
        p.eq("glob-id-st", s(p.deg(A, 1)), A, "s(1_A) != A")
        p.eq("glob-id-st", t(p.deg(A, 1)), A, "t(1_A) != A")
    elif j < 0:
        AB = p.comp(A, B, n - k)
        if k == n - 1:
            p.eq("glob-src-comp", s(AB), s(A), "s(A . B) != s(A)")
            p.eq("glob-src-comp", t(AB), t(B), "t(A . B) != t(B)")
        else:
            p.eq("glob-src-comp", s(AB), p.comp(s(A), s(B), n - 1 - k), "s(A . B) != s(A) . s(B)")
    else:
        p.eq("glob-exchange", p.comp(p.comp(A, B, n - k), p.comp(C, D, n - k), n - j),
             p.comp(p.comp(A, C, n - j), p.comp(B, D, n - j), n - k), f"exchange .{k} / .{j}")
    return p
