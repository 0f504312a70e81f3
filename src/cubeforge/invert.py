"""Invertibility of cubical cells: reversal, transposition, plain, and
permutation actions.

Three notions are implemented, all relative to a model's inverse oracle
(`CubModel.r_inverse`):

* reversal invertibility in a direction i ("is there B with
  A *_i B and B *_i A degenerate?") — verified generically, searched by
  the model;
* plain invertibility: reversal invertibility in direction 1 of the full
  fold, the dimension-wise condition classifying (omega, p)-models;
* transposition invertibility exchanging directions i and i+1, decided
  through the fold identity "A is transposition-invertible iff the
  i-fold of A is reversal-invertible in direction i".

Every constructor here is fail-closed: it checks the defining equations
of the inverse it built before returning it.  The index arithmetic is
delicate enough that silent corruption must be impossible.

The two verifications and the fold-route transposition inverse are
cached `core` plans, one per direction, run by `core._eval` in the order
the formulas below compute them.  So are the closure formulas, one plan
per expression shape and direction, on the leaf cells and the inverses
supplied with them: the expression's value, its inverse, the R equations.
The predicates (plain, shell and transposition invertibility) and the
classifier ask "does this cell reverse in that direction?" through probe
plans (`_probe_plan`, answered by `core._ask`), cached per dimension,
direction and question; the classifier asks one plan per dimension of each
cell (its full fold, the faces of its R_1 shell, the cell, the 1-folds of
the faces of its T_1 shell, its 1-fold), a compiled program on the nerves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence, Union

from .core import (
    ALPHAS,
    Cell,
    CubModel,
    NotInvertible,
    _ask,
    _eval,
    _Plan,
    fold_tail,
    psi,  # noqa: F401 -- perfbench traces it as `invert.psi`
)
from .indices import DomainError, lower
from .perms import Perm, TWord, eval_word, length, min_rep


# ---------------------------------------------------------------------------
# reversal (R) invertibility


def _r_equations(p: _Plan, A: int, B: int, k: int) -> None:
    """The defining equations of B as the reversal inverse of A in direction
    k, both composites built before either is compared."""
    left, right = p.comp(A, B, k), p.comp(B, A, k)
    p.eq("R", left, p.deg(p.face(A, k, "-"), k), f"A *_{k} B != eps_{k} d_{k}^- A")
    p.eq("R", right, p.deg(p.face(A, k, "+"), k), f"B *_{k} A != eps_{k} d_{k}^+ A")


@functools.cache
def _r_plan(k: int) -> _Plan:
    p = _Plan(2)
    _r_equations(p, 0, 1, k)
    return p


def verify_r_inverse(model: CubModel, A: Cell, B: Cell, k: int) -> bool:
    """Do A and B compose to the two k-degenerate identities?

    Both composites are computed before either is compared; k outside 1..A.dim fails.
    """
    return 1 <= k <= A.dim and _eval(_r_plan(k), model, [A, B]) is not None


def r_inverse(model: CubModel, A: Cell, k: int) -> Cell:
    """The model-supplied reversal inverse, re-verified before returning."""
    B = model.r_inverse(A, k)
    if not verify_r_inverse(model, A, B, k):
        raise NotInvertible(f"oracle returned a bad reversal inverse in direction {k}")
    return B


def has_r_invertible_shell(model: CubModel, A: Cell, i: int) -> bool:
    """Face-wise reversal invertibility: every face d_j^alpha A with j != i
    reverses in the displaced direction i_j.  False for i outside 1..dim."""
    if A.dim < 1:
        raise DomainError("shells need dimension >= 1")
    return 1 <= i <= A.dim and _holds(model, A, i, "R")


# ---------------------------------------------------------------------------
# the closure formulas: inverses of composites of eps/Gamma/comp trees


@dataclass(frozen=True)
class Leaf:
    cell: Cell
    inverses: Mapping[int, Cell] | None = None  # None: defer to the model


@dataclass(frozen=True)
class Comp:
    i: int
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Eps:
    i: int
    sub: "Expr"


@dataclass(frozen=True)
class Conn:
    i: int
    alpha: str
    sub: "Expr"


Expr = Union[Leaf, Comp, Eps, Conn]


def _shape(expr: Expr, leaves: list) -> tuple:
    """`expr` with each leaf cell, and each inverse supplied with it, replaced
    by its slot in `leaves`, to which they are appended in that order:
    ("leaf", slot, ((k, slot), ...) or None), ("comp", i, left, right),
    ("deg", i, sub) or ("conn", i, sub, alpha)."""
    if isinstance(expr, Leaf):
        leaves.append(expr.cell)
        slot, supplied = len(leaves) - 1, None
        if expr.inverses is not None:
            supplied = tuple((k, len(leaves) + n) for n, k in enumerate(expr.inverses))
            leaves += expr.inverses.values()
        return ("leaf", slot, supplied)
    if isinstance(expr, Comp):
        return ("comp", expr.i, _shape(expr.left, leaves), _shape(expr.right, leaves))
    if isinstance(expr, Eps):
        return ("deg", expr.i, _shape(expr.sub, leaves))
    if isinstance(expr, Conn):
        return ("conn", expr.i, _shape(expr.sub, leaves), expr.alpha)
    raise DomainError(f"not an expression: {expr!r}")


def _dim(s: tuple, dims: Sequence[int]) -> int:
    """The dimension of an expression of shape `s` over leaves of dimensions `dims`."""
    return dims[s[1]] if s[0] == "leaf" else _dim(s[2], dims) + (s[0] != "comp")


@functools.cache
def _closure_plan(shape: tuple, k: int, leaves: int, checked: bool) -> _Plan:
    """The value of an expression of `shape`, its closure inverse in direction
    k (`out`), then, if `checked`, the two R equations between them."""
    p = _Plan(leaves)

    def value(s: tuple) -> int:
        kind, i = s[:2]
        if kind == "leaf":
            return i
        if kind == "comp":
            return p.comp(value(s[2]), value(s[3]), i)
        return p.op(kind, value(s[2]), i, *s[3:])

    def inverse(s: tuple, k: int) -> int:
        """The case analysis: reverse order along k, act componentwise elsewhere."""
        kind, i = s[:2]
        if kind == "leaf":
            if s[2] is None:
                return p.rev(i, k)
            supplied = dict(s[2])
            if k not in supplied:
                raise DomainError(f"no component inverse supplied for direction {k}")
            return supplied[k]
        if kind == "comp":
            if i == k:
                return p.comp(inverse(s[3], k), inverse(s[2], k), k)
            return p.comp(inverse(s[2], k), inverse(s[3], k), i)
        if kind == "deg" and i == k:
            return value(s)  # a degeneracy is its own inverse
        if kind == "deg" or k not in (i, i + 1):
            return p.op(kind, inverse(s[2], lower(k, i)), i, *s[3:])
        sub, alpha = s[2:]
        inner, inner_inv = value(sub), inverse(sub, i)
        if k == i:
            if alpha == "-":
                # composed along i (not i+1): the other gluing does not typecheck
                return p.comp(p.deg(inner_inv, i + 1), p.conn(inner, i, "+"), i)
            return p.comp(p.conn(inner, i, "-"), p.deg(inner_inv, i + 1), i)
        if alpha == "-":
            return p.comp(p.deg(inner_inv, i), p.conn(inner, i, "+"), i + 1)
        return p.comp(p.conn(inner, i, "-"), p.deg(inner_inv, i), i + 1)

    A = value(shape)
    p.out = inverse(shape, k)
    if checked:
        _r_equations(p, A, p.out, k)
    return p


def r_inverse_by_closure(model: CubModel, expr: Expr, k: int) -> Cell:
    """Assemble the reversal inverse of a composite from component inverses."""
    leaves: list = []
    shape = _shape(expr, leaves)
    in_range = 1 <= k <= _dim(shape, [A.dim for A in leaves])  # else `verify_r_inverse` fails
    candidate = _eval(_closure_plan(shape, k, len(leaves), in_range), model, leaves)
    if candidate is None or not in_range:
        raise NotInvertible(f"closure formula produced a bad inverse in direction {k}")
    return candidate


# ---------------------------------------------------------------------------
# plain invertibility


def is_plain_invertible(model: CubModel, A: Cell) -> bool:
    """Reversal invertibility in direction 1 after the full fold."""
    if A.dim < 1:
        raise DomainError("plain invertibility needs dimension >= 1")
    return _holds(model, A, 1, "P")


def plain_witness(model: CubModel, A: Cell) -> Cell:
    """The direction-1 reversal inverse of A's full fold, re-verified."""
    return r_inverse(model, fold_tail(model, A), 1)


# ---------------------------------------------------------------------------
# transposition (T) invertibility


def _t_equations(p: _Plan, A: int, B: int, i: int) -> None:
    """The defining equations of B as the transposition inverse of A at i."""
    for j, a in ((i, "-"), (i, "+"), (i + 1, "-"), (i + 1, "+")):
        other = i + 1 if j == i else i
        p.eq("T-face", p.face(B, j, a), p.face(A, other, a), f"d_{j}^{a} B != d_{other}^{a} A")
    for X, Y in ((A, B), (B, A)):
        # [[corner+, Y], [X, corner-]] composed (rows *_i, columns *_{i+1}),
        # every cell built before any composite
        corner_plus = p.conn(p.face(Y, i, "-"), i, "+")
        corner_minus = p.conn(p.face(X, i, "+"), i, "-")
        lhs = p.comp(p.comp(corner_plus, Y, i), p.comp(X, corner_minus, i), i + 1)
        rhs = p.comp(p.conn(p.face(X, i, "-"), i, "-"), p.conn(p.face(X, i + 1, "+"), i, "+"), i)
        p.eq("T-braid", lhs, rhs, "braid")


@functools.cache
def _verify_t_plan(i: int) -> _Plan:
    p = _Plan(2)
    _t_equations(p, 0, 1, i)
    return p


def verify_t_inverse(model: CubModel, A: Cell, B: Cell, i: int) -> bool:
    """The two defining 2D equations of the transposition inverse.

    An i outside 1..A.dim-1 fails.  The four face equations come first, then
    the braid of (A, B), then that of (B, A); the first failing one ends it.
    """
    return 1 <= i <= A.dim - 1 and _eval(_verify_t_plan(i), model, [A, B]) is not None


@functools.cache
def _t_plan(i: int) -> _Plan:
    p, A = _Plan(1), 0
    mid = p.rev(p.psi(A, i), i)
    top = p.comp(p.deg(p.face(A, i + 1, "-"), i), p.conn(p.face(A, i, "+"), i, "+"), i + 1)
    bottom = p.comp(p.conn(p.face(A, i, "-"), i, "-"), p.deg(p.face(A, i + 1, "+"), i), i + 1)
    p.out = p.comp(p.comp(top, mid, i), bottom, i)
    _t_equations(p, A, p.out, i)
    return p


def t_inverse(model: CubModel, A: Cell, i: int) -> Cell:
    """Build the transposition inverse through the fold.

    The candidate is the three-band composite around the reversal inverse
    of the i-fold: degenerate/connection bands on top and bottom, glued
    along direction i.  The defining equations are checked before the
    cell is returned.
    """
    if not 1 <= i <= A.dim - 1:
        raise DomainError(f"no transposition {i} on a {A.dim}-cell")
    candidate = _eval(_t_plan(i), model, [A])
    if candidate is None:
        raise NotInvertible(f"fold route produced a bad transposition inverse at {i}")
    return candidate


def is_t_invertible(model: CubModel, A: Cell, i: int) -> bool:
    """A is transposition-invertible at i iff its i-fold reverses at i."""
    return 1 <= i <= A.dim - 1 and _holds(model, A, i, "t")


def has_t_invertible_shell(model: CubModel, A: Cell, i: int) -> bool:
    """Face-wise transposition invertibility: every face d_j^alpha A with j
    not in {i, i+1} is transposition-invertible at i_j.  False for i
    outside 1..dim-1."""
    if A.dim < 2:
        raise DomainError("transposition shells need dimension >= 2")
    return 1 <= i <= A.dim - 1 and _holds(model, A, i, "T")


@functools.cache
def _probe_plan(n: int, i: int, parts: str) -> _Plan:
    """The probes of an n-cell A, for each letter of `parts` in turn: "P"
    its full fold in direction 1; "R" each face d_j^alpha A, j != i, at
    i_j (the R_i shell); "A" A at i; "T" the i_j-fold of each d_j^alpha A,
    j not in {i, i+1}, at i_j (the T_i shell); "t" the i-fold of A at i."""
    p, A = _Plan(1), 0
    for part in parts:
        if part == "P":
            p.probe(functools.reduce(p.psi, range(n - 1, 0, -1), A), 1)
        elif part in "At":
            p.probe(A if part == "A" else p.psi(A, i), i)
        else:
            for j, a in product(range(1, n + 1), ALPHAS):
                if j != i and (part == "R" or j != i + 1):
                    X, k = p.face(A, j, a), lower(i, j)
                    p.probe(X if part == "R" else p.psi(X, k), k)
    return p


def _holds(model: CubModel, A: Cell, i: int, parts: str) -> bool:
    """Whether every probe of `_probe_plan(A.dim, i, parts)` holds on A, asked in order."""
    plan = _probe_plan(A.dim, i, parts)
    return all(map(_ask(plan, model, [[A]])[0], range(len(plan.probes))))


# ---------------------------------------------------------------------------
# permutation actions


def word_act(model: CubModel, A: Cell, word: TWord) -> Cell:
    """Apply a word of transpositions, rightmost letter first.

    Raises NotInvertible at the first failing letter, reporting the part
    of the word that was still pending.
    """
    for pos in range(len(word.letters) - 1, -1, -1):
        i = word.letters[pos]
        try:
            A = t_inverse(model, A, i)
        except NotInvertible as exc:
            pending = TWord(word.ambient, word.letters[: pos + 1])
            raise NotInvertible(
                f"letter T{i} failed with prefix '{pending}' pending: {exc}"
            )
    return A


def sigma_act(model: CubModel, A: Cell, sigma: Perm, word: TWord | None = None) -> Cell:
    """Act by a permutation through a reduced word (canonical by default).

    Any reduced word gives the same result (the braid and commutation
    moves are compatible with transposition inverses); passing `word`
    makes that independence testable.
    """
    if sigma.n != A.dim:
        raise DomainError(f"permutation of {sigma.n} cannot act on a {A.dim}-cell")
    if word is None:
        word = min_rep(sigma)
    elif eval_word(word) != sigma or len(word) != length(sigma):
        raise DomainError("word is not a reduced representative of the permutation")
    return word_act(model, A, word)


def is_sigma_invertible(model: CubModel, A: Cell, sigma: Perm) -> bool:
    try:
        sigma_act(model, A, sigma)
        return True
    except NotInvertible:
        return False


# ---------------------------------------------------------------------------
# (omega, p) classification


@dataclass
class DimEvidence:
    dim: int
    checked: int
    all_invertible: bool
    witness: object  # payload of a non-invertible cell, if any
    shell_route_agrees: bool
    t_shell_route_agrees: bool


@dataclass
class OmegaPReport:
    """Sample-based evidence for the least p with all higher cells invertible."""

    evidence: list[DimEvidence]
    bound: int

    @property
    def p_estimate(self) -> int:
        failing = [e.dim for e in self.evidence if not e.all_invertible]
        if failing:
            return max(failing)
        return min(e.dim for e in self.evidence) - 1 if self.evidence else 0

    @property
    def consistent(self) -> bool:
        return all(e.shell_route_agrees and e.t_shell_route_agrees for e in self.evidence)

    def summary(self) -> str:
        lines = []
        for e in self.evidence:
            status = "all invertible" if e.all_invertible else "non-invertible cell found"
            lines.append(f"dim {e.dim}: {e.checked} cells, {status}")
            if e.witness is not None:
                lines.append(f"  witness: {e.witness!r}")
        lines.append(f"p-estimate: >= {self.p_estimate} (sample-based)")
        lines.append(f"cross-checks consistent: {self.consistent}")
        return "\n".join(lines)


def classify_omega_p(
    model: CubModel,
    dims: Sequence[int],
    *,
    bound: int = 1,
    extra_random: int = 0,
    rng=None,
) -> OmegaPReport:
    """Estimate the least p such that all sampled cells above p invert.

    For each dimension the primary condition is plain invertibility of
    every sampled cell (equivalently, of its full fold).  Two cross
    checks run on the same sample: cells with a reversal-invertible
    shell in direction 1 must reverse in direction 1, and (dimension
    >= 2) cells with a transposition-invertible shell at 1 must be
    transposition-invertible at 1.  Per dimension this is one probe plan
    (`_probe_plan`), asked of all the cells in one `_ask` call, read per cell
    in that order, shells short-circuiting; on the nerves one program.  A
    dimension below 1 raises `DomainError` before any cell is drawn.
    `extra_random` more cells per dimension come from `sample_cells` with
    `rng`; without both, ValueError.
    """
    if extra_random and (rng is None or not hasattr(model, "sample_cells")):
        raise ValueError("extra_random needs an rng and a model with sample_cells")
    if any(n < 1 for n in dims):
        raise DomainError("plain invertibility needs dimension >= 1")
    evidence = []
    for n in sorted(dims):
        cells = list(model.cells(n, bound))
        if extra_random:
            cells += model.sample_cells(n, extra_random, bound + 1, rng)
        # probe 0 the fold, 1..r-1 the R_1 shell, r the cell, r+1..t-1 the T_1 shell, t the 1-fold
        plan, r, t = _probe_plan(n, 1, "PRATt" if n >= 2 else "PRA"), 2 * n - 1, 4 * n - 4
        witness, all_inv, shell_ok, t_shell_ok = None, True, True, True
        for A, bit in zip(cells, _ask(plan, model, [[A] for A in cells])):
            plain = bit(0)
            if not plain and witness is None:
                all_inv, witness = False, A.payload
            shell = all(map(bit, range(1, r)))
            if bit(r) != (shell and plain):  # invertible cells have invertible shells
                shell_ok = False
            if n >= 2 and all(map(bit, range(r + 1, t))) and bit(t) != plain:
                t_shell_ok = False
        evidence.append(
            DimEvidence(n, len(cells), all_inv, witness, shell_ok, t_shell_ok)
        )
    return OmegaPReport(evidence, bound)
