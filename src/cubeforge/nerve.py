"""Executable nerves of augmented directed complexes.

An n-cell of a nerve over a complex K assigns a K-chain of the same
degree to every basis element of its domain: `cube(n)` (sign sequences)
for the cubical nerve `NcModel`, `disk(n)` (s_k, t_k below level n, x on
top) for Steiner's globular nerve `NgModel`.  Three laws are checked
eagerly at construction:

* chain map: the K-boundary of each value equals the signed sum of the
  values along its domain boundary (degrees above the top of K force
  zero values and turn the law into a linear constraint one level down);
* augmentation: every vertex value has augmentation 1;
* positivity: every value lies in the cone of its degree.

Validation and the bounded search read the signed sums from the domain's
boundary columns shifted to payload positions (`Adc.flat_columns`); with
the augmentation read as the boundary of a vertex (rhs = (1,)), one
solver query draws every value.
The search's step table (`_steps`, one per dimension and bound) memoizes
each step's candidates by the values its rhs reads, so the sum and the
query run once per distinct such values.  It is kept for sampling until
`cells` has enumerated every cell at its dimension and bound; `cells`
then keeps their payloads alone, and hands out fresh cells.

One mechanism (`_NerveBase`) runs both nerves; each names only its
domain family, its co-maps (`_co_map`) and its composition split.  The
operations act by precomposition with the co-structure maps of
`cubeforge.adc`: `cube_face`, `cube_deg`, `cube_conn`, `cube_rev` and
`cube_swap`, split as `comp_split` says; or `disk_face`, `disk_identity`
(eps_1, the only degeneracy; there are no connections) and `disk_rev`
(direction 1 only), split as `disk_split` says.  Each map's gather
(`ChainMap.precomposition`) and each composite's (`_comp_table`) is built
once per process; an operation's table appends K's zero chains where its
map kills values, so an operation is one C-level gather.  `lower` turns
each node of a `core` plan into a step calling its table, with the same
range checks, composability compare and cone check.  Composing a plan's
gathers (`_walk`) gives its one program (`_program`), which `core._run`
(the checkers), `core._eval` (the constructions) and `core._ask` (the
probes of `cubeforge.invert`'s invertibility predicates) all run
first: its chain sums and negations in batches over one register file,
then every check at once: each distinct register pair once, the cone
checks in one `_sign_test`; a failing check hands the call to the steps.
A probe is one more `_sign_test`, of its slot's `rev` slab registers; a
program keeps only the fills an answer reads (`_prune`).
A checker's program reads a slab sum with a zero chain as the other
summand, which settles the equations it makes identities at compile
time; a construction's keeps every sum and compares every equation.
These read K only through its cone and convention, so the nerves of one
class, convention and cone share them (`_shape`): each plan is lowered
and compiled once, when the first of them lowers it.
The globular nerve speaks the cubical vocabulary of folded cells (source,
target, identity and the composite over a k-boundary are d_1^-, d_1^+,
eps_1 and *_(n-k)), so `core.check_globular` checks it and
`invert.r_inverse` verifies its inverses.

Cells are immutable; payloads are tuples of coefficient tuples aligned
with a fixed ordering of the domain basis (by degree, then as the domain
lists it), so equality and hashing are cheap.  Enumeration is the only
place where infinity appears: every consumer passes an explicit
coefficient bound, and reports restate it.  A search whose coefficient
box in a degree it queries holds more than `SEARCH_BUDGET` points is
refused before it starts.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import add, attrgetter, eq, getitem, itemgetter, sub
from typing import Callable, Mapping, NamedTuple, Sequence

from .adc import (Adc, Chain, ChainMap, _kernel, comp_split, cube, cube_conn, cube_deg,
                  cube_face, cube_rev, cube_swap, disk, disk_face, disk_identity, disk_rev,
                  disk_split, to_json_dict, vec_neg)
from .core import (BudgetExceeded, Cell, CompositionError, CubModel, Lowered, NotInvertible,
                   OracleUnavailable, globular_cells)

SEARCH_BUDGET = 2_000_000  # a search's default node budget, and its most box points


def _box_ranges(flags: Sequence[bool], bound: int) -> list[range]:
    return [
        range(0, bound + 1) if f else range(-bound, bound + 1) for f in flags
    ]


class _ChainSolver:
    """Bounded enumeration of chains with a prescribed boundary, cached."""

    def __init__(self, K: Adc):
        self.K = K
        self._cache: dict[tuple, tuple] = {}

    def chains_with_boundary(self, k: int, rhs: tuple, bound: int) -> tuple:
        """All degree-k cone chains v with d(v) = rhs and coefficients <= bound,
        in box order.  A vertex chain's boundary is its augmentation, (e(v),)."""
        key = (k, rhs, bound)
        found = self._cache.get(key)
        if found is None:
            K = self.K
            if k > K.top:
                found = ((),) if not any(rhs) else ()
            else:
                d = functools.partial(K.d, k) if k else lambda v: (K.aug(v),)
                found = tuple(
                    v for v in itertools.product(*_box_ranges(K.cone[k], bound)) if d(v) == rhs)
            self._cache[key] = found
        return found


def _boundary(terms: Sequence[tuple[int, int]], values: Sequence[tuple], rank: int) -> tuple:
    """The rank-`rank` chain sum(c * values[q] for c, q in terms)."""
    rhs = [0] * rank
    for c, q in terms:
        v = values[q]
        for t in range(rank):
            rhs[t] += c * v[t]
    return tuple(rhs)


# ---------------------------------------------------------------------------
# compiled operations


class _Table(NamedTuple):
    """A compiled operation: ``getter`` gathers from the payload plus the
    appended zero chains (face, deg, conn; kept in ``extra``), negated
    values (rev, swap; ``extra`` holds their (degree, position, name)) or
    slab sums (comp; ``extra`` holds the slab positions)."""

    getter: Callable[[tuple], tuple]
    extra: tuple


@functools.lru_cache(maxsize=None)
def _comp_table(family: Callable, split: Callable, n: int, i: int, conv: str) -> _Table:
    """The composite along i of n-cells over `family(n, conv)`, built once per
    process: it indexes A's payload, then B's, then the slab sums."""
    flat = family(n, conv).flat
    index: list[int] = []
    slab: list[int] = []
    for pos, (_, s) in enumerate(flat):
        pieces = split(n, i, s)
        if len(pieces) == 2:
            index.append(2 * len(flat) + len(slab))
            slab.append(pos)
        else:
            index.append(pos if pieces[0][0] == 1 else len(flat) + pos)
    return _Table(_kernel(index), tuple(slab))


@functools.lru_cache(maxsize=None)
def _shape(cls: type, conv: str, cone: tuple) -> tuple[dict, ...]:
    """The record the nerves of one class, convention and cone (so ranks and
    top degree) share for the process: zero chains, tables, lowered plans."""
    return {}, {}, {}


# -- payload kernels: (payload, payload of the second operand, data) -> payload

_SHIFT = {"face": -1, "deg": 1, "conn": 1}  # the dimension change of a plan node


def _gather(a: tuple, _b: tuple, tab: _Table) -> tuple:
    getter, zeros = tab
    return getter(a + zeros)


def _compose(a: tuple, b: tuple, data: tuple) -> tuple:
    (getter, slab), plus, minus, i = data
    fa, fb = _gather(a, b, plus), _gather(b, a, minus)
    if fa != fb:
        raise CompositionError(f"faces differ along direction {i}: {fa!r} vs {fb!r}")
    return getter(a + b + tuple(tuple(map(add, a[p], b[p])) for p in slab))


def _invert(a: tuple, _b: tuple, data: tuple) -> tuple:
    (getter, negs), in_cone = data
    flipped = []
    for k, p, name in negs:
        flipped.append(vec_neg(a[p]))
        if not in_cone(k, flipped[-1]):
            raise NotInvertible(f"value at {name} is not invertible in the cone")
    return getter(a + tuple(flipped))


def _sign_test(K: Adc, sources: Sequence[tuple[int, int]]) -> Callable[[Sequence[tuple]], bool]:
    """Whether the negation of `values[p]` is in the cone for each (degree k, position
    p) of `sources`, for values of the right ranks: one max over the flagged coordinates."""
    flagged = [(p, c) for k, p in sources if k <= K.top for c, f in enumerate(K.cone[k]) if f]
    if not flagged:
        return lambda _values: True
    rows, cols = zip(*flagged)
    return lambda values: max(map(getitem, map(values.__getitem__, rows), cols)) <= 0


def _refuse(_a: tuple, _b: tuple, error: tuple) -> tuple:
    kind, text = error
    raise kind(text)


class _NerveBase(CubModel):
    """A nerve over a domain family: assignment payloads over the basis of
    `family(n)`.  Its operations compile from `_co_map(kind, n, i, alpha)`,
    the co-map whose precomposition is operation `kind` on n-cells (or the
    error the family raises for one it lacks), and from `split`.  The
    nerves of one class, convention and cone share one record (`_shape`):
    zero chains, tables and each plan's `Lowered`, its steps and program.
    A nerve keeps what reads K's boundaries: the solver, cells and search
    steps.  `has_r_inverse` is `CubModel`'s, through `r_inverse`.  A class
    that changes `_table`, `_step` or `_co_map` keeps its own record."""

    max_dim = 6
    family: Callable[[int, str], Adc]
    split: Callable[[int, int, str], list[tuple[int, str]]]

    def __init__(self, K: Adc):
        self.K = K
        self.solver = _ChainSolver(K)
        self._cell_cache: dict[tuple[int, int], list[tuple]] = {}
        self._step_tables: dict[tuple[int, int], tuple[tuple, ...]] = {}
        cls = type(self)  # a class that changes a table, step or co-map keeps its own record
        stock = all(f.__module__ == __name__ for f in (cls._table, cls._step, cls._co_map))
        self._zeros, self._tables, self._plans = (
            _shape if stock else _shape.__wrapped__)(cls, K.d_convention, K.cone)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.K.name or 'K'})"

    def domain(self, n: int) -> Adc:
        return self.family(n, self.K.d_convention)  # cached by the family

    def elements(self, n: int) -> tuple[tuple[int, str], ...]:
        """The domain basis of dimension-n cells as (degree, name) pairs."""
        return self.domain(n).flat

    def pos(self, n: int, name: str) -> int:
        return self.domain(n).positions[name]

    def zero_chain(self, k: int) -> tuple:
        if k not in self._zeros:
            self._zeros[k] = (0,) * self.K.rank(k)
        return self._zeros[k]

    def value(self, A: Cell, name: str) -> tuple:
        return A.payload[self.pos(A.dim, name)]

    def make(self, n: int, values: Mapping[str, Sequence[int]]) -> Cell:
        payload = tuple(
            tuple(values[name]) for _, name in self.elements(n)
        )
        cell = Cell(self, n, payload)
        problems = self.invalid_reasons(cell)
        if problems:
            raise ValueError("; ".join(problems))
        return cell

    def invalid_reasons(self, A: Cell) -> list[str]:
        K, flat = self.K, list(zip(self.elements(A.dim), A.payload))
        problems = [f"value at {name} has wrong rank for degree {k}"
                    for (k, name), v in flat if len(v) != K.rank(k)]
        if problems:  # the laws below read every value at its rank
            return problems
        for ((k, name), v), terms in zip(flat, self.domain(A.dim).flat_columns):
            if not K.in_cone(k, v):
                problems.append(f"value at {name} escapes the cone")
            if k == 0:
                if K.aug(v) != 1:
                    problems.append(f"augmentation at {name} is not 1")
            elif ((K.d(k, v) if k <= K.top else self.zero_chain(k - 1))
                  != _boundary(terms, A.payload, K.rank(k - 1))):
                problems.append(f"chain-map law fails at {name}")
        return problems

    # -- enumeration --------------------------------------------------------

    def cells(self, n: int, bound: int, budget: int = SEARCH_BUDGET) -> list[Cell]:
        """Every n-cell at `bound`, in search order; the payloads are kept,
        so a second call searches nothing."""
        key = (n, bound)
        if key not in self._cell_cache:
            self._cell_cache[key] = self._search(n, bound, budget=budget, rng=None, limit=None)
            del self._step_tables[key]  # its memo only serves more searches at n, bound
        return [Cell(self, n, payload) for payload in self._cell_cache[key]]

    def sample_cells(self, n: int, count: int, bound: int, rng,
                     budget: int = SEARCH_BUDGET) -> list[Cell]:
        """Seeded random cells: repeated randomized descent with backtracking."""
        out = []
        for _ in range(count):
            found = self._search(n, bound, budget=budget, rng=rng, limit=1)
            if not found:
                break
            out.append(Cell(self, n, found[0]))
        return out

    def _order(self, n: int) -> list[int]:
        """Assignment order for the dimension-n search.

        Elements are placed as soon as every basis element in their
        boundary is placed (most-constrained first), which lets the
        search prune long before all vertices are chosen.  Readiness only
        grows, so a heap of ready positions keyed by (-degree, position)
        pops the element a rescan of that ranking would pick.
        """
        flat, terms = self.elements(n), self.domain(n).flat_columns
        missing = [len(t) for t in terms]
        users: list[list[int]] = [[] for _ in flat]
        for p, t in enumerate(terms):
            for _, q in t:
                users[q].append(p)
        ready = [(-flat[p][0], p) for p, m in enumerate(missing) if not m]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            p = heapq.heappop(ready)[1]
            order.append(p)
            for u in users[p]:
                missing[u] -= 1
                if not missing[u]:
                    heapq.heappush(ready, (-flat[u][0], u))
        return order

    def _steps(self, n: int, bound: int) -> tuple[tuple, ...]:
        """The steps of the dimension-n search at `bound`, in `_order`, built
        once per (n, bound) and kept with their memos until `cells` has
        enumerated every cell at n and `bound`.

        A step is (position, gather, memo, degree, terms, rank): the gather
        takes the values its rhs reads (None for a vertex), the memo maps
        them to candidates, and the rest is what a miss asks the solver.
        """
        key = (n, bound)
        if key not in self._step_tables:
            flat, terms = self.elements(n), self.domain(n).flat_columns
            self._step_tables[key] = tuple(
                (p, itemgetter(*(q for _, q in terms[p])) if k else None, {},
                 k, terms[p], self.K.rank(k - 1))
                for p in self._order(n) for k in (flat[p][0],))
        return self._step_tables[key]

    def _search(self, n: int, bound: int, budget: int, rng, limit) -> list[tuple]:
        """The payloads of n-cells found by depth-first placement of values
        in `_order`, each step drawing from `chains_with_boundary(k, rhs, bound)`.

        A step's rhs is a function of the values at its boundary positions,
        so its memo maps those values, taken with one gather, to its
        candidates, and `_boundary` and the query run only on a miss.  The
        memo lives with the step table, so sampling draws share it.  A
        random draw shuffles a copy of the candidates.
        """
        K = self.K
        for k in range(min(n, K.top) + 1):
            points = math.prod(len(r) for r in _box_ranges(K.cone[k], bound))
            if points > SEARCH_BUDGET:
                raise BudgetExceeded(n, bound, points, SEARCH_BUDGET,
                                     f"box points (degree {k} has {points})")
        steps = self._steps(n, bound)
        query = self.solver.chains_with_boundary
        vertices = query(0, (1,), bound)  # they depend on no placed value
        nodes, last = 0, len(steps)
        out: list[tuple] = []
        values: list[tuple | None] = [None] * last

        def descend(step: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(n, bound, nodes, budget)
            if step == last:
                out.append(tuple(values))
                return limit is not None and len(out) >= limit
            pos, gather, memo, k, terms, rank = steps[step]
            if gather is None:
                cands = vertices
            else:
                placed = gather(values)
                cands = memo.get(placed)
                if cands is None:
                    cands = memo[placed] = query(k, _boundary(terms, values, rank), bound)
            if rng is not None and len(cands) > 1:
                cands = list(cands)
                rng.shuffle(cands)
            for v in cands:
                values[pos] = v
                if descend(step + 1):
                    return True
            values[pos] = None
            return False

        descend(0)
        return out

    # -- operation tables -----------------------------------------------------

    def _table(self, kind: str, n: int, i: int, alpha: str = "") -> _Table:
        """The compiled table of an operation on n-cells, kept per model: the
        shared compile of its co-map (or of `split`), with this K's zero chains
        appended where it kills values."""
        key = (kind, n, i, alpha)
        tab = self._tables.get(key)
        if tab is None:
            if kind == "comp":
                tab = _comp_table(self.family, self.split, n, i, self.K.d_convention)
            else:
                getter, negs, kills = self._co_map(kind, n, i, alpha).precomposition
                tab = _Table(getter, negs or tuple(map(self.zero_chain, range(kills))))
            self._tables[key] = tab
        return tab

    def _step(self, kind: str, n: int, *args) -> tuple:
        """The kernel and its data for operation `kind` on n-cells.

        Raises what the operation raises on a request out of range or
        refused: args are (i, alpha) for face and conn, (i,) for deg, rev
        and swap, and (the second operand's dimension, i) for comp.
        """
        if kind == "face":
            i, alpha = args
            if not (1 <= i <= n and alpha in "-+"):
                raise ValueError(f"no face (i={i}, alpha={alpha}) on a {n}-cell")
            return _gather, self._table(kind, n, i, alpha)
        if kind == "deg":
            (i,) = args
            if not 1 <= i <= n + 1:
                raise ValueError(f"no degeneracy slot {i} on a {n}-cell")
            if n + 1 > self.max_dim:
                raise ValueError("degeneracy exceeds the model dimension bound")
            return _gather, self._table(kind, n, i)
        if kind == "conn":
            i, alpha = args
            if not (1 <= i <= n and alpha in "-+"):
                raise ValueError(f"no connection (i={i}, alpha={alpha}) on a {n}-cell")
            if n + 1 > self.max_dim:
                raise ValueError("connection exceeds the model dimension bound")
            return _gather, self._table(kind, n, i, alpha)
        if kind == "comp":
            m, i = args
            if m != n or not 1 <= i <= n:
                raise ValueError(f"no composite in direction {i} of a {n}-cell and a {m}-cell")
            return _compose, (self._table(kind, n, i), self._table("face", n, i, "+"),
                              self._table("face", n, i, "-"), i)
        (i,) = args
        if kind == "rev" and not 1 <= i <= n:
            raise NotInvertible(f"no direction {i} on a {n}-cell")
        if kind == "swap" and not 1 <= i <= n - 1:
            raise NotInvertible(f"no transposition {i} on a {n}-cell")
        return _invert, (self._table(kind, n, i), self.K.in_cone)

    def lower(self, plan, leaf_dims: tuple[int, ...]) -> Lowered:
        """`plan` as payload kernels over the compiled tables, with its program:
        built by the first nerve of the shape to lower it, and kept in the
        shape's record for them all.  A node out of range or refused becomes
        a step raising what the operation would raise, when (and if) it runs."""
        key = (plan, leaf_dims)
        low = self._plans.get(key)
        if low is None:
            dims, steps = list(leaf_dims), [None] * plan.leaves
            for kind, x, args in plan.nodes:
                y, args = (args[0], (dims[args[0]], args[1])) if kind == "comp" else (x, args)
                try:
                    fn, data = self._step(kind, dims[x], *args)
                except (ValueError, OracleUnavailable) as exc:
                    fn, data = _refuse, (type(exc), str(exc))
                steps.append((fn, x, y, data))
                dims.append(dims[x] + _SHIFT.get(kind, 0))
            steps = tuple(steps)
            low = self._plans[key] = Lowered(
                steps, attrgetter("payload"), lambda model, k, v: Cell(model, dims[k], v), eq,
                self._program(plan, steps, dims))
        return low

    def _walk(self, plan, steps: tuple, dims: list) -> tuple | None:
        """Map a lowered plan onto one register file (the leaf payloads, a zero
        chain per degree, then the fills): the zero chains, the leaf sizes, the
        index map of each slot, the fills (chain sums ("add", dst, a, b) and
        negations ("neg", dst, zero, src) in batches, none reading its own
        registers) and the compares of sides that differ (("faces", lhs, rhs,
        i) per composite, ("eq", lhs, rhs) per equation), run once per distinct
        register pair.  None when a step is refused or sides differ in length.

        In a checker plan (`plan.checker`) a slab sum with a zero-chain
        register as one summand is the other summand's register, not a
        fill: both summands sit at one payload position, so have one degree,
        the zero register holds the zero chain of that degree, and `run`
        rank-checks every leaf before any fill.  The equations this makes
        identities drop out with the other compares of a register with
        itself.  Constructions keep every sum, so each defining equation
        stays a run-time compare (the rule would settle the T-plan's two
        T-face equations here)."""
        zeros = tuple(map(self.zero_chain, range(max(dims) + 1)))
        sizes = [len(self.elements(d)) for d in dims[:plan.leaves]]
        offs = list(itertools.accumulate(sizes + [len(zeros)], initial=0))
        *maps, zero_at = (tuple(range(a, b)) for a, b in zip(offs, offs[1:]))
        ids, batches, compares = {}, [], []
        zero_summands = set(zero_at) if plan.checker else set()

        def fill(*op) -> int:  # a summand, or a new register hash-consed on `op`
            kind, a, b = op
            if kind == "add" and (a in zero_summands or b in zero_summands):
                return b if a in zero_summands else a
            if op not in ids:
                ids[op] = offs[-1] + len(ids)
                if not batches or max(op[1:]) >= batches[-1][0][1]:
                    batches.append([])  # a batch reads none of its own registers
                batches[-1].append((op[0], ids[op], *op[1:]))
            return ids[op]

        for fn, x, y, data in steps[plan.leaves:]:
            a, b = maps[x], maps[y]
            if fn is _refuse or a is None or b is None:
                maps.append(None)
            elif fn is _gather:
                maps.append(data.getter(a + zero_at))
            elif fn is _invert:
                getter, negs = data[0]
                maps.append(getter(a + tuple(fill("neg", zero_at[k], a[p]) for k, p, _ in negs)))
            else:
                (getter, slab), plus, minus, i = data
                compares.append(("faces", plus.getter(a + zero_at), minus.getter(b + zero_at), i))
                maps.append(getter(a + b + tuple(fill("add", a[p], b[p]) for p in slab)))
        compares += [("eq", maps[lhs], maps[rhs]) for _, lhs, rhs, *_ in plan.equations]
        if None in maps or any(len(op[1]) != len(op[2]) for op in compares):
            return None
        return zeros, sizes, maps, batches, [op for op in compares if op[1] != op[2]]

    def _prune(self, plan, steps: tuple, dims: list) -> tuple | None:
        """What `_program` runs of `plan`'s `_walk`: zero chains, leaf sizes, the
        fills an answer reads (a compared pair, a negation's source, a probe's
        cone-flagged register, `out`) renumbered in order in `_walk`'s batches,
        the pairs, negated sources, probed registers and `out` (empty with
        probes).  None if `_walk` or a probe's `rev` refuses, or it would check
        nothing and answer a leaf."""
        walked = self._walk(plan, steps, dims)
        if walked is None:
            return None
        zeros, sizes, maps, batches, compares = walked
        probed, K = [], self.K
        for x, k, _ in plan.probes:
            try:  # the steps' `has_r_inverse` answers a probe `rev` refuses
                _, ((_, negs), _) = self._step("rev", dims[x], k)
            except (ValueError, OracleUnavailable):
                return None
            probed.append([(d, maps[x][p]) for d, p, _ in negs if d <= K.top and any(K.cone[d])])
        fills = [op for batch in batches for op in batch]
        negated = [(zero_k - sum(sizes), q) for kind, _, zero_k, q in fills if kind == "neg"]
        pairs = dict.fromkeys((min(p), max(p)) for op in compares for p in zip(*op[1:3])
                              if p[0] != p[1])  # a conjunction: each unordered pair once
        if not (plan.equations or probed or negated or pairs) and plan.out < plan.leaves:
            return None  # its steps answer as fast: `load` and `cell` of a leaf
        out = () if probed else maps[plan.out]
        live = {*itertools.chain(*pairs, out), *(r for _, r in itertools.chain(negated, *probed))}
        for op in reversed(fills):
            if op[1] in live:
                live.update(op[2:])
        reg = {r: r for r in range(sum(sizes) + len(zeros))}  # leaves and zeros keep theirs
        reg.update(zip((op[1] for op in fills if op[1] in live), itertools.count(len(reg))))
        batches = [b for b in ([(op[0], *map(reg.get, op[1:])) for op in batch if op[1] in live]
                               for batch in batches) if b]
        negated, *probed = ([(k, reg[r]) for k, r in sources] for sources in (negated, *probed))
        pairs = [(reg[a], reg[b]) for a, b in pairs]  # renumbering keeps (lower, higher)
        return zeros, sizes, batches, pairs, negated, probed, [reg[r] for r in out]

    def _program(self, plan, steps: tuple, dims: list) -> Callable[[list], object] | None:
        """`plan` over the registers of `_prune` as a function of the leaf
        values giving slot `out`'s value (or the probes' answers, each a
        `_sign_test` of the slot's `rev` slab): the kept fills a batch at a
        time, then the cone checks and each distinct compared register pair
        at once (NotImplemented when one fails); None where `_prune` is."""
        pruned = self._prune(plan, steps, dims)
        if pruned is None:
            return None
        zeros, sizes, batches, pairs, negated, probed, out = pruned
        stages = [([add if op[0] == "add" else sub for op in batch],
                   *(_kernel([op[k] for op in batch]) for k in (2, 3))) for batch in batches]
        left, right = (_kernel([p[s] for p in pairs] or [0]) for s in (0, 1))
        negated, *tests = (_sign_test(self.K, sources) for sources in (negated, *probed))
        ranks = [len(zeros[k]) for d in dims[:plan.leaves] for k, _ in self.elements(d)]
        ranks += map(len, zeros)
        out = (lambda regs: [test(regs) for test in tests]) if tests else _kernel(out)

        def run(vals: list):
            regs = list(itertools.chain(*vals, zeros))
            if list(map(len, vals)) != sizes or list(map(len, regs)) != ranks:
                return NotImplemented
            for fns, a, b in stages:
                regs.extend(map(tuple, map(map, fns, a(regs), b(regs))))
            holds = left(regs) == right(regs) and negated(regs)
            return out(regs) if holds else NotImplemented

        return run

    # -- the cubical operations ------------------------------------------------

    def face(self, A: Cell, i: int, alpha: str) -> Cell:
        fn, tab = self._step("face", A.dim, i, alpha)
        return Cell(self, A.dim - 1, fn(A.payload, (), tab))

    def deg(self, A: Cell, i: int) -> Cell:
        fn, tab = self._step("deg", A.dim, i)
        return Cell(self, A.dim + 1, fn(A.payload, (), tab))

    def conn(self, A: Cell, i: int, alpha: str) -> Cell:
        fn, tab = self._step("conn", A.dim, i, alpha)
        return Cell(self, A.dim + 1, fn(A.payload, (), tab))

    def comp(self, A: Cell, B: Cell, i: int) -> Cell:
        fn, data = self._step("comp", A.dim, B.dim, i)
        return Cell(self, A.dim, fn(A.payload, B.payload, data))

    # -- closed-form inverses ---------------------------------------------------

    def r_inverse(self, A: Cell, i: int) -> Cell:
        """The reversal inverse in direction i, when every slab chain flips."""
        fn, data = self._step("rev", A.dim, i)
        return Cell(self, A.dim, fn(A.payload, (), data))


# ---------------------------------------------------------------------------
# the two nerves


class NcModel(_NerveBase):
    """The cubical nerve of an augmented directed complex."""

    family = staticmethod(cube)
    split = staticmethod(comp_split)

    def _co_map(self, kind: str, n: int, i: int, alpha: str) -> ChainMap:
        conv = self.K.d_convention
        if kind == "deg":
            return cube_deg(n + 1, i, conv)
        if kind in ("face", "conn"):
            return (cube_face if kind == "face" else cube_conn)(n, i, alpha, conv)
        return (cube_rev if kind == "rev" else cube_swap)(n, i, conv)

    def t_inverse(self, A: Cell, i: int) -> Cell:
        """The transposition inverse exchanging directions i and i+1."""
        fn, data = self._step("swap", A.dim, i)
        return Cell(self, A.dim, fn(A.payload, (), data))

    def content(self, A: Cell) -> Chain:
        """The top value: the chain assigned to the all-0 sequence."""
        return Chain(A.dim, self.value(A, "0" * A.dim))


class NgModel(_NerveBase):
    """The globular nerve of a complex: cells over the disk complexes.

    An n-cell's payload is s0, t0, ..., s_{n-1}, t_{n-1}, x.  d_i^alpha is
    the alpha-boundary at level n-i raised by i-1 identities, eps_1 the
    identity, *_i composes over the (n-i)-boundary, and the direction-1
    reversal inverse swaps s_{n-1} and t_{n-1} and negates x.
    """

    family = staticmethod(disk)
    split = staticmethod(disk_split)

    def _co_map(self, kind: str, n: int, i: int, alpha: str) -> ChainMap:
        conv = self.K.d_convention
        if kind == "face":
            return disk_face(n, i, alpha, conv)
        if kind == "conn":
            raise ValueError("a globular cell has no connections")
        if i != 1 and kind == "rev":
            raise OracleUnavailable("the globular nerve inverts along direction 1 only")
        if i != 1:
            raise ValueError(f"a globular cell has no degeneracy slot {i}, only the identity")
        return disk_identity(n, conv) if kind == "deg" else disk_rev(n, conv)


# ---------------------------------------------------------------------------
# serialization


def assignment_to_json(model: _NerveBase, A: Cell) -> dict:
    """A cell's assignment as a JSON object: element name -> coefficient list."""
    return {name: list(A.payload[pos]) for pos, (_, name) in enumerate(model.elements(A.dim))}


def assignment_from_json(model: _NerveBase, dim, assignment) -> Cell:
    """The dim-cell that a JSON object of `assignment_to_json` names, or ValueError."""
    if type(dim) is not int or not 0 <= dim <= model.max_dim:
        raise ValueError(f"a cell dimension must be an int in 0..{model.max_dim}, not {dim!r}")
    if not isinstance(assignment, dict):
        raise ValueError(f"an assignment must be a JSON object, not {type(assignment).__name__}")
    stray = next((name for name in assignment if name not in model.domain(dim).positions), None)
    if stray is not None:
        raise ValueError(f"a {dim}-cell has no element {stray!r}")
    for k, name in model.elements(dim):
        v, rank = assignment.get(name), model.K.rank(k)
        if not (isinstance(v, list) and len(v) == rank and all(type(c) is int for c in v)):
            got = repr(v) if name in assignment else "nothing"
            raise ValueError(f"{dim}-cell element {name!r} needs a list of {rank} ints, got {got}")
    return model.make(dim, assignment)


def cell_to_json(model: _NerveBase, A: Cell) -> dict:
    """Serialize a nerve cell: named assignment plus the complex and flag."""
    return {
        "kind": "cubical" if isinstance(model, NcModel) else "globular",
        "dim": A.dim,
        "assignment": assignment_to_json(model, A),
        "adc": to_json_dict(model.K),
        "d_convention": model.K.d_convention,
    }


def cell_from_json(model: _NerveBase, data: dict) -> Cell:
    expected = "cubical" if isinstance(model, NcModel) else "globular"
    if data.get("kind", expected) != expected:
        raise ValueError(f"cell kind {data.get('kind')!r} does not fit the model")
    return assignment_from_json(model, data["dim"], data["assignment"])


@dataclass
class MatchReport:
    adc_name: str
    dim: int
    bound: int
    cubical_cells: int
    globularized: int
    globular_cells: int
    unmatched_cubical: int
    unmatched_globular: int

    @property
    def ok(self) -> bool:
        return self.unmatched_cubical == 0 and self.unmatched_globular == 0

    def __str__(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        return (
            f"{status} {self.adc_name} dim {self.dim} bound {self.bound}: "
            f"{self.cubical_cells} cubical cells -> {self.globularized} globularized, "
            f"{self.globular_cells} globular cells, "
            f"unmatched {self.unmatched_cubical}/{self.unmatched_globular}"
        )


def globular_signature(model: NcModel, A: Cell) -> tuple:
    """The source/target tower and top chain of a globularized n-cell, read
    off its values: s_k at -^(n-k) 0^k, t_k at -^(n-k-1) + 0^k, x at 0^n."""
    n = A.dim
    return tuple(model.value(A, "-" * (n - k - 1) + end + "0" * k)
                 for k in range(n) for end in "-+") + (model.value(A, "0" * n),)


def gamma_vs_ng(K: Adc, n: int, bound: int, budget: int = SEARCH_BUDGET) -> MatchReport:
    """Match globularized cubical nerve cells against globular nerve cells.

    Both sides are enumerated independently under the same coefficient
    bound; matching is by the full source/target tower plus top chain.
    """
    nc = NcModel(K)
    ng = NgModel(K)
    raw = nc.cells(n, bound, budget)
    images = globular_cells(nc, raw)
    nc_sigs = Counter(globular_signature(nc, g) for g in images)
    ng_sigs = Counter(B.payload for B in ng.cells(n, bound, budget))
    unmatched_nc = sum((nc_sigs - ng_sigs).values())
    unmatched_ng = sum((ng_sigs - nc_sigs).values())
    return MatchReport(
        adc_name=K.name or "K",
        dim=n,
        bound=bound,
        cubical_cells=len(raw),
        globularized=len(images),
        globular_cells=sum(ng_sigs.values()),
        unmatched_cubical=unmatched_nc,
        unmatched_globular=unmatched_ng,
    )
