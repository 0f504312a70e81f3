"""Two small cubical models, the cell-level evaluators, and the helpers
only tests need.

`CellModel` lowers a plan to steps that call the model's own cell-level
operations, so exceptions and their order are the operations' own.
`BoxModel`, the shell construction of Al-Agl, Brown and Steiner
(Adv. Math. 2002) over any model truncated at level n, and `PosetModel`,
the cubical nerve of a finite poset, build on it, and so do the
recording and counting wrappers of the tests.  A shell has one form: the
`core.shell_key` tuple ``((i, alpha, face_payload), ...)``, which is the
payload of a Box (n+1)-cell.  `fits` is the one compatibility test: the
search of `BoxModel.cells` places faces with it, and `is_shell` checks a
whole family with it.

`eval_expr` and `closure_oracle` are the recursive cell-level evaluator of
the closure formulas that `cubeforge.invert.r_inverse_by_closure` replaced
by a plan; they stay here as its oracle.  `plain_oracle`,
`r_shell_oracle`, `t_oracle`, `t_shell_oracle` and `classify_oracle` are
the cell-level bodies of `is_plain_invertible`, `has_r_invertible_shell`,
`is_t_invertible`, `has_t_invertible_shell` and `classify_omega_p`, which
now ask their questions through probe plans (`cubeforge.core._ask`).
They are kept as they were, apart from three checks the plans brought:
a shell direction out of range answers False, as `has_r_inverse` and
`is_t_invertible` do; the classifier refuses a dimension below 1 before
it draws any cell; and `plain_oracle` no longer turns a
`NotImplementedError` into `OracleUnavailable`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from cubeforge.core import (ALPHAS, Cell, CompositionError, CubModel, Lowered, NotInvertible,
                            fold_tail, psi, shell_key)
from cubeforge.indices import DomainError, lower
from cubeforge.invert import (Comp, Conn, DimEvidence, Eps, Expr, Leaf, OmegaPReport,
                              verify_r_inverse)


def _unary(a, _b, data):
    op, args = data
    return op(a, *args)


def _binary(a, b, data):
    op, i = data
    return op(a, b, i)


class CellModel(CubModel):
    """A model whose plans run on cells: each step calls one of the five
    cell-level operations (face, deg, conn, comp, r_inverse)."""

    def lower(self, plan, leaf_dims: tuple[int, ...]) -> Lowered:
        steps: list = [None] * plan.leaves
        for kind, x, args in plan.nodes:
            op = getattr(self, "r_inverse" if kind == "rev" else kind)
            if kind == "comp":
                steps.append((_binary, x, args[0], (op, args[1])))
            else:
                steps.append((_unary, x, x, (op, args)))
        return Lowered(tuple(steps), lambda A: A, lambda _model, _k, A: A, self.equal)


# ---------------------------------------------------------------------------
# the closure formulas, evaluated recursively on cells


def eval_expr(model: CubModel, expr: Expr) -> Cell:
    if isinstance(expr, Leaf):
        return expr.cell
    if isinstance(expr, Comp):
        return model.comp(eval_expr(model, expr.left), eval_expr(model, expr.right), expr.i)
    if isinstance(expr, Eps):
        return model.deg(eval_expr(model, expr.sub), expr.i)
    if isinstance(expr, Conn):
        return model.conn(eval_expr(model, expr.sub), expr.i, expr.alpha)
    raise DomainError(f"not an expression: {expr!r}")


def leaf_inverse(model: CubModel, leaf: Leaf, k: int) -> Cell:
    if leaf.inverses is not None:
        if k not in leaf.inverses:
            raise DomainError(f"no component inverse supplied for direction {k}")
        return leaf.inverses[k]
    return model.r_inverse(leaf.cell, k)


def closure(model: CubModel, expr: Expr, k: int) -> Cell:
    """The case analysis: reverse order along k, act componentwise elsewhere."""
    if isinstance(expr, Leaf):
        return leaf_inverse(model, expr, k)
    if isinstance(expr, Comp):
        if expr.i == k:
            return model.comp(
                closure(model, expr.right, k), closure(model, expr.left, k), k
            )
        return model.comp(
            closure(model, expr.left, k), closure(model, expr.right, k), expr.i
        )
    if isinstance(expr, Eps):
        if expr.i == k:
            return eval_expr(model, expr)  # a degeneracy is its own inverse
        return model.deg(closure(model, expr.sub, lower(k, expr.i)), expr.i)
    if isinstance(expr, Conn):
        i, alpha = expr.i, expr.alpha
        if k not in (i, i + 1):
            return model.conn(closure(model, expr.sub, lower(k, i)), i, alpha)
        inner = eval_expr(model, expr.sub)
        inner_inv = closure(model, expr.sub, i)
        if k == i:
            if alpha == "-":
                # composed along i (not i+1): the other gluing does not typecheck
                return model.comp(
                    model.deg(inner_inv, i + 1), model.conn(inner, i, "+"), i
                )
            return model.comp(
                model.conn(inner, i, "-"), model.deg(inner_inv, i + 1), i
            )
        if alpha == "-":
            return model.comp(
                model.deg(inner_inv, i), model.conn(inner, i, "+"), i + 1
            )
        return model.comp(
            model.conn(inner, i, "-"), model.deg(inner_inv, i), i + 1
        )
    raise DomainError(f"not an expression: {expr!r}")


def closure_oracle(model: CubModel, expr: Expr, k: int) -> Cell:
    """The reversal inverse of a composite from component inverses: the value,
    then the candidate, then `invert.verify_r_inverse`."""
    value = eval_expr(model, expr)
    candidate = closure(model, expr, k)
    if not verify_r_inverse(model, value, candidate, k):
        raise NotInvertible(
            f"closure formula produced a bad inverse in direction {k}"
        )
    return candidate


# ---------------------------------------------------------------------------
# the invertibility predicates and the classifier, on cells


def plain_oracle(model: CubModel, A: Cell) -> bool:
    """Reversal invertibility in direction 1 after the full fold."""
    if A.dim < 1:
        raise DomainError("plain invertibility needs dimension >= 1")
    return model.has_r_inverse(fold_tail(model, A), 1)


def r_shell_oracle(model: CubModel, A: Cell, i: int) -> bool:
    """Face-wise reversal invertibility, with the displaced direction i_j."""
    if A.dim < 1:
        raise DomainError("shells need dimension >= 1")
    if not 1 <= i <= A.dim:
        return False
    return all(
        model.has_r_inverse(model.face(A, j, a), lower(i, j))
        for j in range(1, A.dim + 1)
        if j != i
        for a in ALPHAS
    )


def t_oracle(model: CubModel, A: Cell, i: int) -> bool:
    """A is transposition-invertible at i iff its i-fold reverses at i."""
    if not 1 <= i <= A.dim - 1:
        return False
    return model.has_r_inverse(psi(model, A, i), i)


def t_shell_oracle(model: CubModel, A: Cell, i: int) -> bool:
    if A.dim < 2:
        raise DomainError("transposition shells need dimension >= 2")
    if not 1 <= i <= A.dim - 1:
        return False
    return all(
        t_oracle(model, model.face(A, j, a), lower(i, j))
        for j in range(1, A.dim + 1)
        if j not in (i, i + 1)
        for a in ALPHAS
    )


def classify_oracle(model: CubModel, dims: Sequence[int], *, bound: int = 1,
                    extra_random: int = 0, rng=None) -> OmegaPReport:
    """The classifier's loop: per cell, the plain, R-shell and T-shell
    predicates in turn, each with its own short-circuits."""
    if extra_random and (rng is None or not hasattr(model, "sample_cells")):
        raise ValueError("extra_random needs an rng and a model with sample_cells")
    if any(n < 1 for n in dims):
        raise DomainError("plain invertibility needs dimension >= 1")
    evidence = []
    for n in sorted(dims):
        cells = list(model.cells(n, bound))
        if extra_random:
            cells += model.sample_cells(n, extra_random, bound + 1, rng)
        witness = None
        all_inv = True
        shell_ok = True
        t_shell_ok = True
        for A in cells:
            plain = plain_oracle(model, A)
            if not plain and witness is None:
                all_inv = False
                witness = A.payload
            if r_shell_oracle(model, A, 1):
                if model.has_r_inverse(A, 1) != plain:
                    shell_ok = False
            elif model.has_r_inverse(A, 1):
                shell_ok = False  # invertible cells always have invertible shells
            if n >= 2 and t_shell_oracle(model, A, 1):
                if t_oracle(model, A, 1) != plain:
                    t_shell_ok = False
        evidence.append(
            DimEvidence(n, len(cells), all_inv, witness, shell_ok, t_shell_ok)
        )
    return OmegaPReport(evidence, bound)


def opposite(alpha: str) -> str:
    return "+" if alpha == "-" else "-"


def check_composable(model: CubModel, A: Cell, B: Cell, i: int) -> None:
    """Raise `CompositionError` unless d_i^+ A == d_i^- B."""
    fa, fb = model.face(A, i, "+"), model.face(B, i, "-")
    if not model.equal(fa, fb):
        raise CompositionError(
            f"faces differ along direction {i}: {fa.payload!r} vs {fb.payload!r}"
        )


def grid2(model: CubModel, rows: Sequence[Sequence[Cell]], row_dir: int, col_dir: int) -> Cell:
    """Compose a rectangular array: rows along `row_dir`, then down `col_dir`."""
    composed_rows = []
    for row in rows:
        acc = row[0]
        for cell in row[1:]:
            acc = model.comp(acc, cell, row_dir)
        composed_rows.append(acc)
    result = composed_rows[0]
    for band in composed_rows[1:]:
        result = model.comp(result, band, col_dir)
    return result


# ---------------------------------------------------------------------------
# shells and the Box construction


def _slots(n: int) -> list[tuple[int, str]]:
    """The faces (i, alpha) of an (n+1)-cell, in `shell_key` order."""
    return [(i, a) for i in range(1, n + 2) for a in ALPHAS]


def fits(model: CubModel, placed: Mapping[tuple[int, str], Cell],
         slot: tuple[int, str], cand: Cell) -> bool:
    """Whether `cand` as face `slot` meets every `placed` face of another
    direction as the face-face identity asks."""
    i, a = slot
    for (j, b), other in placed.items():
        if j != i and not model.equal(model.face(other, lower(i, j), a),
                                      model.face(cand, lower(j, i), b)):
            return False
    return True


def is_shell(model: CubModel, n: int, faces: Mapping[tuple[int, str], Cell]) -> bool:
    """Whether the n-cells `faces`, by (i, alpha), bound an (n+1)-cell.

    ValueError unless every face (i, alpha), 1 <= i <= n+1, is given.
    """
    slots = _slots(n)
    if set(faces) != set(slots):
        raise ValueError("shell must provide every face (i, alpha)")
    placed: dict = {}
    for slot in slots:
        if not fits(model, placed, slot, faces[slot]):
            return False
        placed[slot] = faces[slot]
    return True


class BoxModel(CellModel):
    """The shell construction over a model truncated at level n.

    Cells of dimension <= n are the base model's own cells; an (n+1)-cell
    is a compatible family of n-cells, stored as its `shell_key`, with the
    face, degeneracy, connection and composition formulas acting
    componentwise.
    """

    def __init__(self, base: CubModel, n: int):
        self.base = base
        self.n = n
        self.max_dim = n + 1

    def shell_cell(self, faces: Mapping[tuple[int, str], Cell]) -> Cell:
        return Cell(self, self.n + 1, tuple((i, a, faces[(i, a)].payload)
                                            for i, a in _slots(self.n)))

    def shell_faces(self, A: Cell) -> dict[tuple[int, str], Cell]:
        return {(i, a): Cell(self.base, self.n, p) for i, a, p in A.payload}

    def embed(self, A: Cell) -> Cell:
        """View an (n+1)-cell of an ambient model as its shell here."""
        return Cell(self, self.n + 1, shell_key(A.model, A))

    def face(self, A: Cell, i: int, alpha: str) -> Cell:
        if A.dim == self.n + 1:
            return self.shell_faces(A)[(i, alpha)]
        return self.base.face(A, i, alpha)

    def deg(self, A: Cell, i: int) -> Cell:
        if A.dim != self.n:
            return self.base.deg(A, i)
        base = self.base
        return self.shell_cell({
            (j, b): A if j == i else base.deg(base.face(A, lower(j, i), b), lower(i, j))
            for j, b in _slots(self.n)})

    def conn(self, A: Cell, i: int, alpha: str) -> Cell:
        if A.dim != self.n:
            return self.base.conn(A, i, alpha)
        base, faces = self.base, {}
        for j, b in _slots(self.n):
            if j not in (i, i + 1):
                faces[(j, b)] = base.conn(base.face(A, lower(j, i), b), lower(i, j), alpha)
            elif b == alpha:
                faces[(j, b)] = A
            else:
                faces[(j, b)] = base.deg(base.face(A, i, b), i)
        return self.shell_cell(faces)

    def comp(self, A: Cell, B: Cell, i: int) -> Cell:
        if A.dim != self.n + 1:
            return self.base.comp(A, B, i)
        fa, fb = self.shell_faces(A), self.shell_faces(B)
        if fa[(i, "+")] != fb[(i, "-")]:
            raise CompositionError(f"shells not composable along {i}")
        faces = {}
        for j, b in _slots(self.n):
            if j == i:
                faces[(j, b)] = fa[(i, "-")] if b == "-" else fb[(i, "+")]
            else:
                faces[(j, b)] = self.base.comp(fa[(j, b)], fb[(j, b)], lower(i, j))
        return self.shell_cell(faces)

    def cells(self, n: int, bound: int) -> list[Cell]:
        if n <= self.n:
            return self.base.cells(n, bound)
        if n > self.n + 1:
            return []
        base_cells = self.base.cells(self.n, bound)
        slots = _slots(self.n)
        found: list[Cell] = []

        def search(pos: int, placed: dict) -> None:
            if pos == len(slots):
                found.append(self.shell_cell(placed))
                return
            slot = slots[pos]
            for cand in base_cells:
                if fits(self.base, placed, slot, cand):
                    placed[slot] = cand
                    search(pos + 1, placed)
                    del placed[slot]

        search(0, {})
        return found

    def r_inverse(self, A: Cell, i: int) -> Cell:
        if A.dim != self.n + 1:
            return self.base.r_inverse(A, i)
        fa = self.shell_faces(A)
        return self.shell_cell({
            (j, b): fa[(i, opposite(b))] if j == i else self.base.r_inverse(fa[(j, b)], lower(i, j))
            for j, b in _slots(self.n)})


# ---------------------------------------------------------------------------
# a small independent instance: monotone cube labelings in a poset


class PosetModel(CellModel):
    """The cubical nerve of a finite poset (e.g. reachability in a DAG).

    An n-cell is a monotone map {0,1}^n -> P, stored as the tuple of its
    values with coordinate 1 most significant.  Compositions glue along a
    direction; connections precompose with min/max.  R_i-inverses exist
    exactly for cells constant in direction i, which makes this a handy
    non-groupoid test instance with a full oracle.
    """

    max_dim = 4

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]]):
        self.vertices = tuple(vertices)
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
        check_composable(self, A, B, i)
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
