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

Validation and the bounded search read the signed sums from one table
per dimension (`_boundary_terms`); with the augmentation read as the
boundary of a vertex (rhs = (1,)), one solver query draws every value.
The search's step table (`_steps`, one per dimension and bound, kept for
the model's life) memoizes each step's candidates by the values its rhs
reads, so the sum and the query run once per distinct such values.

One mechanism (`_NerveBase`) runs both nerves; each names only its
domain family, its co-maps (`_co_map`) and its composition split.  The
operations act by precomposition with the co-structure maps of
`cubeforge.adc`: `cube_face`, `cube_deg`, `cube_conn`, `cube_rev` and
`cube_swap`, split as `comp_split` says; or `disk_face`, `disk_identity`
(eps_1, the only degeneracy; there are no connections) and `disk_rev`
(direction 1 only), split as `disk_split` says.  Each map is built once
(`adc` caches it) and compiled once per (operation, dimension,
direction, sign) into an `operator.itemgetter` over the payload, with
the zero chains it kills appended, so an operation is one C-level
gather.  The cell-level methods wrap one payload kernel per table, and
`lower` turns each node of a `core` plan into a step calling it, with
the same range checks, composability compare and cone check.  Composing
a plan's gathers (`_walk`) gives a checked plan's fused check (`_fuse`)
and a construction's program (`_program`): its chain sums and negations
in batches over one register file, then every check at once.  The
globular nerve speaks the cubical vocabulary of folded cells (source,
target, identity and the composite over a k-boundary are d_1^-, d_1^+,
eps_1 and *_(n-k)), so `core.check_globular` checks it and
`invert.r_inverse` verifies its inverses.

Cells are immutable; payloads are tuples of coefficient tuples aligned
with a fixed ordering of the domain basis (by degree, then as the domain
lists it), so equality and hashing are cheap.  Enumeration is the only
place where infinity appears: every consumer passes an explicit
coefficient bound, and reports restate it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add, attrgetter, eq, itemgetter, sub
from typing import Callable, Mapping, NamedTuple, Sequence

from .adc import (Adc, Chain, ChainMap, comp_split, cube, cube_conn, cube_deg, cube_face,
                  cube_rev, cube_swap, disk, disk_face, disk_identity, disk_rev, disk_split,
                  to_json_dict, vec_neg)
from .core import (BudgetExceeded, Cell, CompositionError, CubModel, Lowered, NotInvertible,
                   OracleUnavailable, globular_cells)


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
    """A compiled operation: ``getter`` gathers ``index`` from the payload plus
    the appended zero chains (face, deg, conn; kept in ``extra``), negated
    values (rev, swap; ``extra`` holds their (degree, position, name)) or
    slab sums (comp; ``extra`` holds the slab positions)."""

    getter: Callable[[tuple], tuple]
    extra: tuple
    index: tuple[int, ...]


def _kernel(index: Sequence[int]) -> Callable[[tuple], tuple]:
    # itemgetter of a single index returns the bare item, not a 1-tuple
    return itemgetter(*index) if len(index) > 1 else lambda payload, p=index[0]: (payload[p],)


# -- payload kernels: (payload, payload of the second operand, data) -> payload

_SHIFT = {"face": -1, "deg": 1, "conn": 1}  # the dimension change of a plan node


def _gather(a: tuple, _b: tuple, tab: _Table) -> tuple:
    getter, zeros, _ = tab
    return getter(a + zeros)


def _compose(a: tuple, b: tuple, data: tuple) -> tuple:
    (getter, slab, _), plus, minus, i = data
    fa, fb = _gather(a, b, plus), _gather(b, a, minus)
    if fa != fb:
        raise CompositionError(f"faces differ along direction {i}: {fa!r} vs {fb!r}")
    return getter(a + b + tuple(tuple(map(add, a[p], b[p])) for p in slab))


def _negated(payload: tuple, negs: tuple, in_cone) -> tuple:
    """The values `negs` names, negated, and None; or None and the name of
    the first value whose negation leaves the cone."""
    flipped = []
    for k, p, name in negs:
        neg = vec_neg(payload[p])
        if not in_cone(k, neg):
            return None, name
        flipped.append(neg)
    return tuple(flipped), None


def _invert(a: tuple, _b: tuple, data: tuple) -> tuple:
    (getter, negs, _), in_cone = data
    flipped, bad = _negated(a, negs, in_cone)
    if flipped is None:
        raise NotInvertible(f"value at {bad} is not invertible in the cone")
    return getter(a + flipped)


def _refuse(_a: tuple, _b: tuple, error: tuple) -> tuple:
    kind, text = error
    raise kind(text)


class _Fused(NamedTuple):
    """The fused check of a lowered plan (see `core.Lowered`).  `pairs` holds
    the forest as two aligned tuples of the input positions it compares,
    `width` the length of the input: every leaf payload, then the zero
    chains."""

    holds: Callable[[list], bool]
    counts: tuple
    rest: tuple
    pairs: tuple[tuple[int, ...], tuple[int, ...]]
    width: int


class _NerveBase(CubModel):
    """A nerve over a domain family: assignment payloads over the basis of
    `family(n)`.  Its operations compile from `_co_map(kind, n, i, alpha)`,
    the co-map whose precomposition is operation `kind` on n-cells (or the
    error the family raises for one it lacks), and from `split`."""

    max_dim = 6
    family: Callable[[int, str], Adc]
    split: Callable[[int, int, str], list[tuple[int, str]]]

    def __init__(self, K: Adc):
        self.K = K
        self.solver = _ChainSolver(K)
        self._domains: dict[int, Adc] = {}
        self._elements: dict[int, list[tuple[int, str]]] = {}
        self._index: dict[int, dict[str, int]] = {}
        self._cell_cache: dict[tuple[int, int], list[Cell]] = {}
        self._zeros: dict[int, tuple] = {}
        self._terms: dict[int, tuple] = {}
        self._step_tables: dict[tuple[int, int], tuple[tuple, ...]] = {}
        self._tables: dict[tuple, _Table] = {}
        self._lowered: dict[tuple, Lowered] = {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.K.name or 'K'})"

    def domain(self, n: int) -> Adc:
        if n not in self._domains:
            self._domains[n] = self.family(n, self.K.d_convention)
        return self._domains[n]

    def elements(self, n: int) -> list[tuple[int, str]]:
        """The domain basis of dimension-n cells as (degree, name) pairs."""
        if n not in self._elements:
            dom = self.domain(n)
            flat = [
                (k, name)
                for k in range(dom.top + 1)
                for name in dom.degrees[k]
            ]
            self._elements[n] = flat
            self._index[n] = {name: pos for pos, (k, name) in enumerate(flat)}
        return self._elements[n]

    def pos(self, n: int, name: str) -> int:
        self.elements(n)
        return self._index[n][name]

    def zero_chain(self, k: int) -> tuple:
        if k not in self._zeros:
            self._zeros[k] = (0,) * self.K.rank(k)
        return self._zeros[k]

    def value(self, A: Cell, name: str) -> tuple:
        return A.payload[self.pos(A.dim, name)]

    def make(self, n: int, values: Mapping[str, Sequence[int]],
             validate: bool = True) -> Cell:
        payload = tuple(
            tuple(values[name]) for _, name in self.elements(n)
        )
        cell = Cell(self, n, payload)
        if validate:
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
        for ((k, name), v), terms in zip(flat, self._boundary_terms(A.dim)):
            if not K.in_cone(k, v):
                problems.append(f"value at {name} escapes the cone")
            if k == 0:
                if K.aug(v) != 1:
                    problems.append(f"augmentation at {name} is not 1")
            elif ((K.d(k, v) if k <= K.top else self.zero_chain(k - 1))
                  != _boundary(terms, A.payload, K.rank(k - 1))):
                problems.append(f"chain-map law fails at {name}")
        return problems

    def _boundary_terms(self, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The chain-map law of n-cells: per payload position p, the
        (coefficient, position) pairs of its domain boundary, so the value
        at p must have boundary `_boundary(terms[p], payload, rank)`."""
        if n not in self._terms:
            dom = self.domain(n)
            offs = list(itertools.accumulate(map(len, dom.degrees), initial=0))
            self._terms[n] = tuple(
                tuple((row[j], offs[k - 1] + r)
                      for r, row in enumerate(dom.boundary[k - 1]) if row[j]) if k else ()
                for k, names in enumerate(dom.degrees) for j in range(len(names)))
        return self._terms[n]

    # -- enumeration --------------------------------------------------------

    def cells(self, n: int, bound: int, budget: int = 2_000_000) -> list[Cell]:
        key = (n, bound)
        if key not in self._cell_cache:
            self._cell_cache[key] = list(
                self._search(n, bound, budget=budget, rng=None, limit=None)
            )
        return self._cell_cache[key]

    def sample_cells(self, n: int, count: int, bound: int, rng,
                     budget: int = 2_000_000) -> list[Cell]:
        """Seeded random cells: repeated randomized descent with backtracking."""
        out = []
        for _ in range(count):
            found = self._search(n, bound, budget=budget, rng=rng, limit=1)
            if not found:
                break
            out.append(found[0])
        return out

    def _order(self, n: int) -> list[int]:
        """Assignment order for the dimension-n search.

        Elements are placed as soon as every basis element in their
        boundary is placed (most-constrained first), which lets the
        search prune long before all vertices are chosen.  Readiness only
        grows, so a heap of ready positions keyed by (-degree, position)
        pops the element a rescan of that ranking would pick.
        """
        flat, terms = self.elements(n), self._boundary_terms(n)
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
        once per (n, bound) and kept with their memos for the model's life.

        A step is (position, gather, memo, degree, terms, rank): the gather
        takes the values its rhs reads (None for a vertex), the memo maps
        them to candidates, and the rest is what a miss asks the solver.
        """
        key = (n, bound)
        if key not in self._step_tables:
            flat, terms = self.elements(n), self._boundary_terms(n)
            self._step_tables[key] = tuple(
                (p, itemgetter(*(q for _, q in terms[p])) if k else None, {},
                 k, terms[p], self.K.rank(k - 1))
                for p in self._order(n) for k in (flat[p][0],))
        return self._step_tables[key]

    def _search(self, n: int, bound: int, budget: int, rng, limit) -> list[Cell]:
        """Depth-first placement of values in `_order`, each step drawing
        from `chains_with_boundary(k, rhs, bound)`.

        A step's rhs is a function of the values at its boundary positions,
        so its memo maps those values, taken with one gather, to its
        candidates, and `_boundary` and the query run only on a miss.  The
        memo lives with the step table, so sampling draws share it.  A
        random draw shuffles a copy of the candidates.
        """
        steps = self._steps(n, bound)
        query = self.solver.chains_with_boundary
        vertices = query(0, (1,), bound)  # they depend on no placed value
        nodes, last = 0, len(steps)
        out: list[Cell] = []
        values: list[tuple | None] = [None] * last

        def descend(step: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(n, bound, nodes, budget)
            if step == last:
                out.append(Cell(self, n, tuple(values)))
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
        """The compiled table of an operation on n-cells, built once."""
        key = (kind, n, i, alpha)
        tab = self._tables.get(key)
        if tab is None:
            if kind == "comp":
                tab = self._compile_comp(n, i)
            else:
                tab = self._compile(self._co_map(kind, n, i, alpha), n)
            self._tables[key] = tab
        return tab

    def _compile(self, cmap: ChainMap, n: int) -> _Table:
        """Precomposition with a co-map into the n-th domain, over an n-cell's payload."""
        width = len(self.elements(n))
        offs = list(itertools.accumulate(map(len, cmap.target.degrees), initial=0))
        images = (terms for row in cmap.terms for terms in row)
        index: list[int] = []
        negs: list[tuple[int, int, str]] = []
        for (k, name), terms in zip(self.elements(cmap.source.top), images, strict=True):
            if not terms:
                index.append(width + k)
                continue
            ((c, t),) = terms
            if c == 1:
                index.append(offs[k] + t)
            else:
                index.append(width + len(negs))
                negs.append((k, offs[k] + t, name))
        zeros = tuple(self.zero_chain(k) for k in range(len(cmap.terms)))
        extra = tuple(negs) if negs else zeros if max(index) >= width else ()
        return _Table(_kernel(index), extra, tuple(index))

    def _compile_comp(self, n: int, i: int) -> _Table:
        """A composite indexes A's payload, then B's, then the slab sums."""
        flat = self.elements(n)
        width = len(flat)
        index: list[int] = []
        slab: list[int] = []
        for pos, (_, s) in enumerate(flat):
            pieces = self.split(n, i, s)
            if len(pieces) == 2:
                index.append(2 * width + len(slab))
                slab.append(pos)
            else:
                index.append(pos if pieces[0][0] == 1 else width + pos)
        return _Table(_kernel(index), tuple(slab), tuple(index))

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
                raise ValueError("bad composition request")
            return _compose, (self._table(kind, n, i), self._table("face", n, i, "+"),
                              self._table("face", n, i, "-"), i)
        (i,) = args
        if kind == "rev" and not 1 <= i <= n:
            raise NotInvertible(f"no direction {i} on a {n}-cell")
        if kind == "swap" and not 1 <= i <= n - 1:
            raise NotInvertible(f"no transposition {i} on a {n}-cell")
        return _invert, (self._table(kind, n, i), self.K.in_cone)

    def lower(self, plan, leaf_dims: tuple[int, ...]) -> Lowered:
        """`plan` as payload kernels over the compiled tables, built once per
        (plan, leaf dimensions).  A node out of range or refused becomes a
        step raising what the operation would raise, when (and if) it runs."""
        key = (plan, leaf_dims)
        low = self._lowered.get(key)
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
            steps, runs = tuple(steps), itertools.count()  # a plan run once keeps its steps
            program = functools.cache(lambda: self._program(plan, steps, dims))
            low = Lowered(steps, attrgetter("payload"),
                          lambda k, payload: Cell(self, dims[k], payload), eq,
                          functools.cache(lambda: self._fuse(plan, steps, dims)),
                          lambda: program() if next(runs) else None)
            self._lowered[key] = low
        return low

    def _walk(self, plan, steps: tuple, dims: list) -> tuple:
        """Map a lowered plan onto one register file (the leaf payloads, a zero
        chain per degree, then `_program`'s fills): the zero chains, leaf sizes,
        slots' index maps (None past a refused step), batched fills, compares."""
        zeros = tuple(map(self.zero_chain, range(max(dims) + 1)))
        sizes = [len(self.elements(d)) for d in dims[:plan.leaves]]
        offs = list(itertools.accumulate(sizes + [len(zeros)], initial=0))
        *maps, zero_at = (tuple(range(a, b)) for a, b in zip(offs, offs[1:]))
        ids, batches, compares = {}, [], []

        def fill(*op) -> int:  # a new register, hash-consed on `op`
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
                getter, negs, _ = data[0]
                maps.append(getter(a + tuple(fill("neg", zero_at[k], a[p]) for k, p, _ in negs)))
            else:
                (getter, slab, _), plus, minus, i = data
                compares.append(("faces", plus.getter(a + zero_at), minus.getter(b + zero_at), i))
                maps.append(getter(a + b + tuple(fill("add", a[p], b[p]) for p in slab)))
        return zeros, sizes, maps, batches, compares

    def _fuse(self, plan, steps: tuple, dims: list) -> _Fused | None:
        """One gather and compare for the equations of `plan` whose sides are
        gathers from the leaves, or None when there are none.

        Such a slot is an index map into the register file of `_walk`.
        Equality is an equivalence, so a spanning forest of the position
        pairs (lhs[p], rhs[p]) of those equations holds exactly when all the
        pairs do.
        """
        zeros, sizes, maps, *_ = self._walk(plan, steps, dims)
        parent = list(range(sum(sizes) + len(zeros)))

        def find(p: int) -> int:
            while parent[p] != p:
                parent[p] = p = parent[parent[p]]
            return p

        counts, rest, forest = {}, [], []
        for equation in plan.equations:
            family, lhs, rhs = equation[:3]
            lhs, rhs = maps[lhs], maps[rhs]
            fused = (None not in (lhs, rhs) and len(lhs) == len(rhs)
                     and max(lhs + rhs) < len(parent))
            counts[family] = counts.get(family, 0) + fused
            if not fused:
                rest.append(equation)
                continue
            for p, q in zip(lhs, rhs):
                root_p, root_q = find(p), find(q)
                if root_p != root_q:
                    parent[root_p] = root_q
                    forest.append((p, q))
        if len(rest) == len(plan.equations):
            return None
        pairs = tuple(zip(*forest)) or ((), ())
        # an empty forest compares position 0 with itself
        left, right = (itemgetter(*side or (0,)) for side in pairs)

        def holds(vals: list) -> bool:
            if list(map(len, vals)) != sizes:
                return False
            inputs = [*vals, zeros]
            # a list: a tuple grown from an iterator is reallocated as it
            # grows, which left the peak RSS higher pass after pass
            flat = list(itertools.chain.from_iterable(inputs))
            return left(flat) == right(flat)

        return _Fused(holds, tuple(counts.items()), tuple(rest), pairs, len(parent))

    def _program(self, plan, steps: tuple, dims: list) -> Callable[[list], object] | None:
        """`plan` over the registers of `_walk` as a function of the leaf
        values (NotImplemented when a check fails), or None if it must fail.
        Its ``ops``: chain sums ("add", dst, a, b) and negations ("neg", dst,
        zero, src) a batch at a time; with the cone checks, the compares
        ("faces", lhs, rhs, i) and ("eq", lhs, rhs) of distinct registers; ("out", regs)."""
        zeros, sizes, maps, batches, compares = self._walk(plan, steps, dims)
        compares += [("eq", maps[lhs], maps[rhs]) for _, lhs, rhs, *_ in plan.equations]
        if None in maps or any(len(op[1]) != len(op[2]) for op in compares):
            return None  # a refused step, or an equation that cannot hold
        compares = [op for op in compares if op[1] != op[2]]
        negs = [op for batch in batches for op in batch if op[0] == "neg"]
        stages = [([add if op[0] == "add" else sub for op in batch],
                   *(_kernel([op[k] for op in batch]) for k in (2, 3))) for batch in batches]
        left, right, flipped = (_kernel(regs or [0]) for regs in (
            [r for op in compares for r in op[1]], [r for op in compares for r in op[2]],
            [op[1] for op in negs]))
        degrees = [zero - sum(sizes) for _, _, zero, _ in negs]  # zero chain k: sum(sizes) + k
        ranks = [len(zeros[k]) for d in dims[:plan.leaves] for k, _ in self.elements(d)]
        ranks += map(len, zeros)
        in_cone, out = self.K.in_cone, _kernel(maps[plan.out])

        def run(vals: list):
            regs = list(itertools.chain(*vals, zeros))
            if list(map(len, vals)) != sizes or list(map(len, regs)) != ranks:
                return NotImplemented
            for fns, a, b in stages:
                regs.extend(map(tuple, map(map, fns, a(regs), b(regs))))
            holds = left(regs) == right(regs) and all(map(in_cone, degrees, flipped(regs)))
            return out(regs) if holds else NotImplemented

        run.ops = (*itertools.chain(*batches), *compares, ("out", maps[plan.out]))
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

    def has_r_inverse(self, A: Cell, i: int) -> bool:
        """Whether `r_inverse` succeeds, from its cone check alone."""
        if not 1 <= i <= A.dim:
            return False
        _, ((_, negs, _), in_cone) = self._step("rev", A.dim, i)
        return _negated(A.payload, negs, in_cone)[0] is not None


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
    for k, name in model.elements(dim):
        v, rank = assignment.get(name), model.K.rank(k)
        if not (isinstance(v, list) and len(v) == rank and all(type(c) is int for c in v)):
            got = repr(v) if name in assignment else "nothing"
            raise ValueError(f"{dim}-cell element {name!r} needs a list of {rank} ints, got {got}")
    return model.make(dim, {name: tuple(v) for name, v in assignment.items()})


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


def gamma_vs_ng(K: Adc, n: int, bound: int, budget: int = 2_000_000) -> MatchReport:
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
