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
the formulas below compute them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .core import (
    ALPHAS,
    Cell,
    CubModel,
    NotInvertible,
    OracleUnavailable,
    _eval,
    _Plan,
    fold_tail,
    psi,
)
from .indices import DomainError, lower
from .perms import Perm, TWord, eval_word, length, min_rep


# ---------------------------------------------------------------------------
# reversal (R) invertibility


@functools.cache
def _r_plan(k: int) -> _Plan:
    p, (A, B) = _Plan(2), range(2)
    left, right = p.comp(A, B, k), p.comp(B, A, k)
    p.eq("R", left, p.deg(p.face(A, k, "-"), k), f"A *_{k} B != eps_{k} d_{k}^- A")
    p.eq("R", right, p.deg(p.face(A, k, "+"), k), f"B *_{k} A != eps_{k} d_{k}^+ A")
    return p


def verify_r_inverse(model: CubModel, A: Cell, B: Cell, k: int) -> bool:
    """Do A and B compose to the two k-degenerate identities?

    Both composites are computed before either is compared.
    """
    return _eval(_r_plan(k), model, [A, B]) is not None


def r_inverse(model: CubModel, A: Cell, k: int) -> Cell:
    """The model-supplied reversal inverse, re-verified before returning."""
    B = model.r_inverse(A, k)
    if not verify_r_inverse(model, A, B, k):
        raise NotInvertible(f"oracle returned a bad reversal inverse in direction {k}")
    return B


def has_r_invertible_shell(model: CubModel, A: Cell, i: int) -> bool:
    """Face-wise reversal invertibility, with the displaced direction i_j."""
    if A.dim < 1:
        raise DomainError("shells need dimension >= 1")
    return all(
        model.has_r_inverse(model.face(A, j, a), lower(i, j))
        for j in range(1, A.dim + 1)
        if j != i
        for a in ALPHAS
    )


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


def _leaf_inverse(model: CubModel, leaf: Leaf, k: int) -> Cell:
    if leaf.inverses is not None:
        if k not in leaf.inverses:
            raise DomainError(f"no component inverse supplied for direction {k}")
        return leaf.inverses[k]
    return model.r_inverse(leaf.cell, k)


def _closure(model: CubModel, expr: Expr, k: int) -> Cell:
    """The case analysis: reverse order along k, act componentwise elsewhere."""
    if isinstance(expr, Leaf):
        return _leaf_inverse(model, expr, k)
    if isinstance(expr, Comp):
        if expr.i == k:
            return model.comp(
                _closure(model, expr.right, k), _closure(model, expr.left, k), k
            )
        return model.comp(
            _closure(model, expr.left, k), _closure(model, expr.right, k), expr.i
        )
    if isinstance(expr, Eps):
        if expr.i == k:
            return eval_expr(model, expr)  # a degeneracy is its own inverse
        return model.deg(_closure(model, expr.sub, lower(k, expr.i)), expr.i)
    if isinstance(expr, Conn):
        i, alpha = expr.i, expr.alpha
        if k not in (i, i + 1):
            return model.conn(_closure(model, expr.sub, lower(k, i)), i, alpha)
        inner = eval_expr(model, expr.sub)
        inner_inv = _closure(model, expr.sub, i)
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


def r_inverse_by_closure(model: CubModel, expr: Expr, k: int) -> Cell:
    """Assemble the reversal inverse of a composite from component inverses."""
    value = eval_expr(model, expr)
    candidate = _closure(model, expr, k)
    if not verify_r_inverse(model, value, candidate, k):
        raise NotInvertible(
            f"closure formula produced a bad inverse in direction {k}"
        )
    return candidate


# ---------------------------------------------------------------------------
# plain invertibility


def is_plain_invertible(model: CubModel, A: Cell) -> bool:
    """Reversal invertibility in direction 1 after the full fold."""
    if A.dim < 1:
        raise DomainError("plain invertibility needs dimension >= 1")
    try:
        return model.has_r_inverse(fold_tail(model, A), 1)
    except NotImplementedError as exc:  # pragma: no cover
        raise OracleUnavailable(str(exc))


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
        # every cell before any composite, as `grid2` receives them
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

    The four face equations come first, then the braid of (A, B), then
    that of (B, A); the first failing one ends the check.
    """
    return _eval(_verify_t_plan(i), model, [A, B]) is not None


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
    if not 1 <= i <= A.dim - 1:
        return False
    return model.has_r_inverse(psi(model, A, i), i)


def has_t_invertible_shell(model: CubModel, A: Cell, i: int) -> bool:
    if A.dim < 2:
        raise DomainError("transposition shells need dimension >= 2")
    return all(
        is_t_invertible(model, model.face(A, j, a), lower(i, j))
        for j in range(1, A.dim + 1)
        if j not in (i, i + 1)
        for a in ALPHAS
    )


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
    transposition-invertible at 1.  `extra_random` more cells per dimension
    come from `sample_cells` with `rng`; without both, ValueError.
    """
    if extra_random and (rng is None or not hasattr(model, "sample_cells")):
        raise ValueError("extra_random needs an rng and a model with sample_cells")
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
            plain = is_plain_invertible(model, A)
            if not plain and witness is None:
                all_inv = False
                witness = A.payload
            if has_r_invertible_shell(model, A, 1):
                if model.has_r_inverse(A, 1) != plain:
                    shell_ok = False
            elif model.has_r_inverse(A, 1):
                shell_ok = False  # invertible cells always have invertible shells
            if n >= 2 and has_t_invertible_shell(model, A, 1):
                if is_t_invertible(model, A, 1) != plain:
                    t_shell_ok = False
        evidence.append(
            DimEvidence(n, len(cells), all_inv, witness, shell_ok, t_shell_ok)
        )
    return OmegaPReport(evidence, bound)
